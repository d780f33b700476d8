//! `revoke_sweep`: lazy revocation and background convergence at zero RTT,
//! on small objects.
//!
//! A 256-member group (partition size 64), 8 data folders, objects of
//! **512 B** — so per-object fixed costs (AES key schedule and GHASH set-up
//! per DEK, KEK derivation, `list`/`get`/CAS, lease dispatch) dominate
//! instead of per-byte AES. Each segment:
//!
//! 1. revokes one member through the batched pipeline (the O(1) lazy
//!    revocation: no stored object is touched) — timed;
//! 2. times a member's first `read` after the rotation (poll → sync → ring
//!    rebuild over a growing `_epochs` history → fetch → open at an old
//!    epoch);
//! 3. arms the group and runs `SweepScheduler::converge_all` on a fixed
//!    fleet of 2 workers, lease 32 — the primary operation: objects
//!    migrated per converge second;
//! 4. checks the end state: every object at the current epoch, the revoked
//!    identity's read of a swept object is `UnknownEpoch`, a member's read
//!    returns the right bytes;
//! 5. times a short burst of steady-state 512 B reads and write-backs.
//!
//! The object count is fixed by `--seconds`, so the exact metrics repeat.

use super::{requests_between, Config, Footprint, Segment, Stat, Workload, SEGMENTS};
use crate::layers::{self, Values};
use crate::oracle::{Payloads, Tally};
use crate::trace::{BudgetSpec, WAITING};
use ibbe_sgx::acs::{Admin, AdminSigner};
use ibbe_sgx::cloud::{LatencyModel, ObjectStore, ShardedStore};
use ibbe_sgx::core::{client_decrypt_key_ring, GroupEngine, PartitionSize};
use ibbe_sgx::dataplane::{
    ClientSession, DataError, FleetConfig, SealedObject, SweepConfig, SweepScheduler, SweepTask,
    TaskId,
};
use ibbe_sgx::telemetry::span;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const GROUP: &str = "rs";
pub const MEMBERS: usize = 256;
pub const PARTITION: usize = 64;
pub const DATA_FOLDERS: usize = 8;
pub const PAYLOAD: usize = 512;
pub const WORKERS: usize = 2;
pub const LEASE: usize = 32;
const WRITER: usize = 0;
const READER: usize = 1;
const SWEEPER: usize = 2;
/// Members below this index are never revoked.
const FIRST_VICTIM: usize = 8;
/// Objects the fleet migrates per nominal second; sizes the object count
/// from `--seconds` (the issue's 20 000 objects need ~1 s per converge,
/// 16 s of converging alone).
const MIGRATE_NOMINAL_PER_S: f64 = 19_000.0;
/// Steady-state small writes and reads timed per segment.
const SMALL_OPS: usize = 100;

pub fn member_name(i: usize) -> String {
    format!("u{i:03}")
}

pub struct RevokeSweep {
    pub admin: Admin,
    pub store: ShardedStore,
    /// The member whose reads and writes are timed and checked.
    pub reader: ClientSession,
    scheduler: SweepScheduler,
    task: TaskId,
    names: Vec<String>,
    gens: Vec<u32>,
    payloads: Payloads,
    trace: StdRng,
    next_victim: usize,
    buf: Vec<u8>,
    /// Nonce source of the steps the traced run re-performs.
    step_rng: StdRng,
}

/// The program's span around one object's migration.
const MIGRATE: &str = "session.migrate";
/// Objects whose re-encryption the traced run re-performs per segment.
const REPERFORMED: usize = 32;

fn session(admin: &Admin, store: &ShardedStore, member: usize, seed: u64) -> ClientSession {
    let identity = member_name(member);
    ClientSession::with_seed(
        &identity,
        admin
            .engine()
            .extract_user_key(&identity)
            .expect("user key"),
        admin.engine().public_key().clone(),
        store.clone(),
        GROUP,
        seed,
    )
    .with_data_shards(DATA_FOLDERS)
}

/// Objects a run of `seconds` sweeps per segment.
pub fn object_count(seconds: f64) -> usize {
    // about four fifths of a segment goes to the converge
    let n = seconds / SEGMENTS as f64 * 0.8 * MIGRATE_NOMINAL_PER_S;
    (n as usize / 100 * 100).clamp(200, 20_000)
}

pub fn setup(cfg: &Config) -> RevokeSweep {
    let engine = GroupEngine::bootstrap_seeded(
        PartitionSize::new(PARTITION).expect("valid size"),
        cfg.engine_seed(),
    )
    .expect("engine boots");
    let store = ShardedStore::with_latency(4, LatencyModel::none());
    let signer = AdminSigner::new("admin-0", &mut StdRng::seed_from_u64(cfg.derive("signer")));
    let admin = Admin::new(engine, store.clone()).with_signer(signer);
    admin
        .create_group(GROUP, (0..MEMBERS).map(member_name).collect())
        .expect("group is created");

    let mut writer = session(&admin, &store, WRITER, cfg.derive("writer"));
    let mut reader = session(&admin, &store, READER, cfg.derive("reader"));
    let objects = object_count(cfg.seconds);
    let names: Vec<String> = (0..objects).map(super::rw::object_name).collect();
    let payloads = Payloads::new(cfg.derive("payloads"), PAYLOAD);
    let mut buf = Vec::with_capacity(PAYLOAD);
    for (i, name) in names.iter().enumerate() {
        payloads.fill(i as u32, 1, &mut buf);
        writer.write(name, &buf).expect("pre-write");
    }
    reader.refresh().expect("reader derives its ring");

    let sweepers = (0..DATA_FOLDERS)
        .map(|w| {
            session(
                &admin,
                &store,
                SWEEPER,
                cfg.derive("sweeper") ^ ((w as u64) << 32),
            )
        })
        .collect();
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: WORKERS,
        lease: LEASE,
        ..FleetConfig::default()
    });
    let task = scheduler.register(SweepTask::new(sweepers, SweepConfig::default()));
    RevokeSweep {
        admin,
        store,
        reader,
        scheduler,
        task,
        gens: vec![1; objects],
        names,
        payloads,
        trace: StdRng::seed_from_u64(cfg.derive("trace")),
        next_victim: FIRST_VICTIM,
        buf,
        step_rng: StdRng::seed_from_u64(cfg.derive("steps")),
    }
}

impl RevokeSweep {
    fn pick(&mut self) -> usize {
        self.trace.gen_range(0..self.names.len())
    }

    /// Re-performs, under harness spans, what a migration does to an object
    /// besides its store requests — on [`REPERFORMED`] objects, with the
    /// reader's ring.
    fn reperform_reencrypt(&mut self) {
        let identity = member_name(READER);
        let Ok(usk) = self.admin.engine().extract_user_key(&identity) else {
            return;
        };
        let Ok(meta) = self.admin.metadata(GROUP) else {
            return;
        };
        let Ok(ring) =
            client_decrypt_key_ring(self.admin.engine().public_key(), &usk, &identity, &meta)
        else {
            return;
        };
        for _ in 0..REPERFORMED {
            let object = self.pick();
            self.payloads
                .fill(object as u32, self.gens[object], &mut self.buf);
            super::rw::reperform_read(&ring, &self.names[object], &self.buf, &mut self.step_rng);
            super::rw::reperform_write(&ring, &self.names[object], &self.buf, &mut self.step_rng);
        }
    }

    /// Current key epoch of the group, per the admin.
    fn current_epoch(&self) -> u64 {
        self.admin.metadata(GROUP).expect("group is cached").epoch
    }
}

impl Workload for RevokeSweep {
    fn name(&self) -> &'static str {
        "revoke_sweep"
    }

    fn slot_stats(&self) -> [Stat; 4] {
        [Stat::Percentile(50.0); 4]
    }

    fn segment(&mut self, _budget: f64, tally: &mut Tally) -> Segment {
        let mut seg = Segment::default();
        // the victim holds a ring from before its revocation (the lazy
        // window's attacker model), derived outside the timed parts
        let victim = self.next_victim;
        self.next_victim += 1;
        let mut revoked = session(&self.admin, &self.store, victim, victim as u64);
        tally.expect_ok("victim refresh", revoked.refresh());

        // 1. the lazy revocation
        {
            let _rid = ibbe_sgx::telemetry::request_scope();
            let t = Instant::now();
            let result = {
                let _span = span("bench.revoke").enter();
                self.admin
                    .begin_batch(GROUP)
                    .remove(member_name(victim))
                    .commit()
            };
            seg.lat[0].push(t.elapsed().as_secs_f64());
            tally.expect_ok("revoke", result);
        }

        // 2. a member's first read after the rotation
        {
            let object = self.pick();
            let _rid = ibbe_sgx::telemetry::request_scope();
            let t = Instant::now();
            let result = {
                let _span = span("bench.first_read").enter();
                self.reader.read(&self.names[object])
            };
            seg.lat[1].push(t.elapsed().as_secs_f64());
            tally.check_read(&self.payloads, object as u32, self.gens[object], result);
        }

        // 3. converge: the primary operation
        self.scheduler.arm(self.task);
        let before = self.store.metrics();
        let t = Instant::now();
        let report = {
            let _rid = ibbe_sgx::telemetry::request_scope();
            let _span = span("bench.converge").enter();
            self.scheduler.converge_all()
        };
        seg.wall = t.elapsed().as_secs_f64();
        seg.requests = requests_between(&before, &self.store.metrics());
        if let Some(report) = tally.expect_ok("converge_all", report) {
            seg.ops = report.total.migrated as u64;
            tally.check(
                report.total.converged && report.total.migrated == self.names.len(),
                || {
                    format!(
                        "converge migrated {} of {} objects",
                        report.total.migrated,
                        self.names.len()
                    )
                },
            );
        }

        // the sweeper's re-encryption (open at the old epoch, seal at the
        // new) has no span: re-perform both halves on a sample of objects
        if ibbe_sgx::telemetry::enabled() {
            self.reperform_reencrypt();
        }

        // 4. end state of the segment
        let epoch = self.current_epoch();
        let at_epoch = self
            .names
            .iter()
            .filter(|name| {
                let folder = self.reader.folder_of(name);
                self.store
                    .get(folder, name)
                    .and_then(|(bytes, _)| SealedObject::peek_epoch(&bytes))
                    == Some(epoch)
            })
            .count();
        tally.check(at_epoch == self.names.len(), || {
            format!(
                "{at_epoch} of {} objects are at epoch {epoch}",
                self.names.len()
            )
        });
        let object = self.pick();
        let locked_out = revoked.read(&self.names[object]);
        tally.check(
            matches!(locked_out, Err(DataError::UnknownEpoch(_))),
            || {
                format!(
                    "revoked member read a swept object: {:?}",
                    locked_out.as_ref().map(Vec::len)
                )
            },
        );
        let object = self.pick();
        let result = self.reader.read(&self.names[object]);
        tally.check_read(&self.payloads, object as u32, self.gens[object], result);

        // 5. steady-state small-object reads and writes: one member reads
        // an object (adopting its post-sweep version) and writes it back
        for _ in 0..SMALL_OPS {
            let object = self.pick();
            let t = Instant::now();
            let result = self.reader.read(&self.names[object]);
            seg.lat[3].push(t.elapsed().as_secs_f64());
            tally.check_read(&self.payloads, object as u32, self.gens[object], result);

            self.gens[object] += 1;
            self.payloads
                .fill(object as u32, self.gens[object], &mut self.buf);
            let t = Instant::now();
            let result = self.reader.write(&self.names[object], &self.buf);
            seg.lat[2].push(t.elapsed().as_secs_f64());
            tally.expect_ok("small write", result);
        }
        seg
    }

    fn counters(&self) -> Values {
        let mut out = super::store_counters(&self.store.metrics());
        let data = self.reader.metrics();
        out.push(("dataplane.session_key_refreshes", data.key_refreshes as f64));
        out.push((
            "dataplane.session_cas_conflicts",
            data.write_conflicts as f64,
        ));
        out
    }

    fn budgets(&self) -> [Option<BudgetSpec>; 3] {
        // every `session.migrate` on the fleet's threads re-encrypts one
        // object, which the harness re-performed as an open and a seal
        let reencrypt = [
            super::rw::open_steps(MIGRATE),
            super::rw::seal_steps(MIGRATE),
        ]
        .concat();
        [
            // `Admin::apply_batch` opens its own span
            Some(BudgetSpec::new("bench.revoke", "harness")),
            // `ClientSession::read` does not
            Some(BudgetSpec::new("bench.first_read", "dataplane.session")),
            // the leases run on the fleet's own threads: the caller waits
            Some(BudgetSpec::new("bench.converge", WAITING).with_steps(reencrypt)),
        ]
    }

    fn probes(&self, cfg: &Config) -> Values {
        let mut out = Values::new();
        let log_len = self.admin.log_head(GROUP).map_or(0, |head| head.size);
        layers::control_plane(cfg, log_len, &mut out);
        layers::symcrypto_and_envelope(cfg, &mut out);
        layers::cloud_store(&mut out);
        layers::sweeper(cfg, &mut out);
        layers::telemetry_disabled(&mut out);
        out
    }

    fn finish(&mut self, tally: &mut Tally) -> Footprint {
        super::read_back(
            &mut self.reader,
            &self.store,
            &self.names,
            &self.gens,
            &self.payloads,
            tally,
        )
    }
}
