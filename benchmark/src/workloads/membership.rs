//! `membership`: the control plane at zero RTT with journaling on — the
//! paper's own evaluation axis (Figs. 7–9).
//!
//! Partition size 128; set-up creates a 4096-member group and syncs two
//! observers. Each segment runs a fixed number of rounds of
//! 3 × `add_user`, 1 × `remove_user` and the surviving observer's
//! `Client::sync` (log-extension check, partition fetch, IBBE decrypt);
//! every fourth segment also creates a fresh 4096-member group. The op
//! counts are fixed by `--seconds`, not by the clock, so the exact metrics
//! (store requests per op, metadata bytes per member) repeat exactly.
//!
//! End checks: the roster equals the trace-implied roster, the two
//! observers derive the same `gk`, a removed member gets `NotAMember`, and
//! an untrusted `Auditor` accepts the published log and rebuilds the same
//! roster from signatures alone.

use super::{requests_between, Config, Footprint, Segment, Stat, Workload, SEGMENTS};
use crate::layers::{self, Values};
use crate::oracle::Tally;
use crate::trace::{BudgetSpec, OpBudget, Step};
use ibbe_sgx::acs::{AcsError, Admin, AdminSigner, Auditor, Client};
use ibbe_sgx::cloud::{LatencyModel, ObjectStore, ShardedStore};
use ibbe_sgx::core::{client_decrypt_from_partition, GroupEngine, PartitionSize};
use ibbe_sgx::telemetry::span;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Instant;

pub const GROUP: &str = "m";
pub const PARTITION: usize = 128;
pub const MEMBERS: usize = 4096;
pub const ADMIN_NAME: &str = "admin-0";
const ADDS_PER_ROUND: usize = 3;
/// Nominal seconds one round (3 adds, 1 remove, 1 sync) takes; sizes the
/// rounds per segment from `--seconds`.
const ROUND_NOMINAL_S: f64 = 0.17;
/// A fresh group is created in every `CREATE_EVERY`-th segment.
const CREATE_EVERY: usize = 4;

pub fn member_name(i: usize) -> String {
    format!("u{i:05}")
}

pub struct Membership {
    pub admin: Admin,
    pub store: ShardedStore,
    signer_key: ibbe_sgx::sgx::bls::VerifyingKey,
    /// The observer whose `sync` is timed after every revocation.
    pub observer: Client,
    /// Its identity and key, for the decrypt the traced run re-performs.
    observer_key: (String, ibbe_sgx::ibbe::UserSecretKey),
    /// A second member, synced only at the end: must derive the same `gk`.
    witness: Client,
    /// The roster the trace implies.
    roster: BTreeSet<String>,
    /// Original members still eligible for removal (never the observers).
    removable: Vec<String>,
    removed: Vec<String>,
    trace: StdRng,
    rounds_per_segment: usize,
    next_new: usize,
    segments_run: usize,
}

fn client_for(admin: &Admin, store: &ShardedStore, identity: &str) -> Client {
    Client::new(
        identity,
        admin.engine().extract_user_key(identity).expect("user key"),
        admin.engine().public_key().clone(),
        store.clone(),
        GROUP,
    )
}

/// Boots the journaling admin, creates the 4096-member group and syncs the
/// two observers (the first sync scans for the member's partition).
pub fn setup(cfg: &Config) -> Membership {
    let engine = GroupEngine::bootstrap_seeded(
        PartitionSize::new(PARTITION).expect("valid size"),
        cfg.engine_seed(),
    )
    .expect("engine boots");
    let store = ShardedStore::with_latency(4, LatencyModel::none());
    let signer = AdminSigner::new(ADMIN_NAME, &mut StdRng::seed_from_u64(cfg.derive("signer")));
    let signer_key = signer.verifying_key();
    let admin = Admin::new(engine, store.clone()).with_signer(signer);
    let members: Vec<String> = (0..MEMBERS).map(member_name).collect();
    admin
        .create_group(GROUP, members.clone())
        .expect("group is created");

    let mut trace = StdRng::seed_from_u64(cfg.derive("trace"));
    let observer_idx = trace.gen_range(0..MEMBERS);
    let witness_idx = (observer_idx + MEMBERS / 2) % MEMBERS;
    let mut observer = client_for(&admin, &store, &members[observer_idx]);
    let mut witness = client_for(&admin, &store, &members[witness_idx]);
    observer.sync().expect("observer syncs");
    witness.sync().expect("witness syncs");
    let removable = members
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != observer_idx && *i != witness_idx)
        .map(|(_, m)| m.clone())
        .collect();
    let observer_key = (
        members[observer_idx].clone(),
        admin
            .engine()
            .extract_user_key(&members[observer_idx])
            .expect("user key"),
    );
    let rounds_per_segment =
        ((cfg.seconds / SEGMENTS as f64 / ROUND_NOMINAL_S).round() as usize).max(1);
    Membership {
        admin,
        store,
        signer_key,
        observer_key,
        observer,
        witness,
        roster: members.into_iter().collect(),
        removable,
        removed: Vec::new(),
        trace,
        rounds_per_segment,
        next_new: 0,
        segments_run: 0,
    }
}

impl Workload for Membership {
    fn name(&self) -> &'static str {
        "membership"
    }

    fn slot_stats(&self) -> [Stat; 4] {
        [Stat::Percentile(50.0); 4]
    }

    fn segment(&mut self, _budget: f64, tally: &mut Tally) -> Segment {
        let mut seg = Segment::default();
        let before = self.store.metrics();
        let t0 = Instant::now();
        for _ in 0..self.rounds_per_segment {
            for _ in 0..ADDS_PER_ROUND {
                let identity = format!("n{:05}", self.next_new);
                self.next_new += 1;
                let _rid = ibbe_sgx::telemetry::request_scope();
                let t = Instant::now();
                let result = {
                    let _span = span("bench.add").enter();
                    self.admin.add_user(GROUP, &identity)
                };
                seg.lat[0].push(t.elapsed().as_secs_f64());
                if tally.expect_ok("add_user", result).is_some() {
                    self.roster.insert(identity);
                }
            }
            let victim = self
                .removable
                .swap_remove(self.trace.gen_range(0..self.removable.len()));
            {
                let _rid = ibbe_sgx::telemetry::request_scope();
                let t = Instant::now();
                let result = {
                    let _span = span("bench.remove").enter();
                    self.admin.remove_user(GROUP, &victim)
                };
                seg.lat[2].push(t.elapsed().as_secs_f64());
                if tally.expect_ok("remove_user", result).is_some() {
                    self.roster.remove(&victim);
                    self.removed.push(victim);
                }
            }
            // "revocation published" → "new gk in hand"
            let rid = ibbe_sgx::telemetry::request_scope();
            let t = Instant::now();
            let result = {
                let _span = span("bench.sync").enter();
                self.observer.sync()
            };
            seg.lat[1].push(t.elapsed().as_secs_f64());
            tally.expect_ok("sync", result);
            drop(rid);
            if ibbe_sgx::telemetry::enabled() {
                // `Client::sync` opens no span around its IBBE decrypt:
                // re-perform it on the partition the sync just cached
                if let Some(partition) = self.observer.cached_partition() {
                    let (identity, usk) = &self.observer_key;
                    let _s = span("bench.step.client_decrypt").enter();
                    let pk = self.admin.engine().public_key();
                    let _ = std::hint::black_box(client_decrypt_from_partition(
                        pk, usk, identity, GROUP, partition,
                    ));
                }
            }
        }
        seg.wall = t0.elapsed().as_secs_f64();
        seg.requests = requests_between(&before, &self.store.metrics());
        seg.ops = (self.rounds_per_segment * (ADDS_PER_ROUND + 2)) as u64;

        if self.segments_run.is_multiple_of(CREATE_EVERY) {
            let name = format!("fresh-{}", self.segments_run);
            let members = (0..MEMBERS).map(member_name).collect();
            let _rid = ibbe_sgx::telemetry::request_scope();
            let t = Instant::now();
            let result = {
                let _span = span("bench.create").enter();
                self.admin.create_group(&name, members)
            };
            seg.lat[3].push(t.elapsed().as_secs_f64());
            tally.expect_ok("create_group", result);
        }
        self.segments_run += 1;
        seg
    }

    fn counters(&self) -> Values {
        super::store_counters(&self.store.metrics())
    }

    fn budgets(&self) -> [Option<BudgetSpec>; 3] {
        // neither `Admin::add_user`/`remove_user` nor `Client::sync` opens a
        // span of its own: the root's self time is the acs layer's. The
        // sync's IBBE decrypt has no span either; the traced run re-performs
        // it
        let decrypt = Step::new("core", "bench.step.client_decrypt", "acs", "bench.sync");
        [
            Some(BudgetSpec::new("bench.add", "acs")),
            Some(
                BudgetSpec::new("bench.sync", "acs")
                    .with_steps(vec![decrypt])
                    .gated(),
            ),
            Some(BudgetSpec::new("bench.remove", "acs").gated()),
        ]
    }

    fn budget_metrics(&self, budgets: &[Option<OpBudget>; 3]) -> Values {
        match &budgets[1] {
            Some(sync) => vec![
                ("acs.sync_self_ms", sync.row("acs") / 1e3),
                ("acs.sync_store_requests", sync.store_requests),
            ],
            None => Values::new(),
        }
    }

    fn probes(&self, cfg: &Config) -> Values {
        let mut out = Values::new();
        let log_len = self.admin.log_head(GROUP).map_or(0, |head| head.size);
        layers::control_plane(cfg, log_len, &mut out);
        layers::cloud_store(&mut out);
        layers::telemetry_disabled(&mut out);
        out
    }

    fn finish(&mut self, tally: &mut Tally) -> Footprint {
        // roster: the admin's view equals what the trace implies
        let meta = self.admin.metadata(GROUP).expect("group is cached");
        let actual: BTreeSet<String> = meta.members().map(str::to_string).collect();
        tally.check(actual == self.roster, || {
            format!(
                "roster has {} members, the trace implies {}",
                actual.len(),
                self.roster.len()
            )
        });
        // two members derive the same gk
        let a = tally.expect_ok("observer sync", self.observer.sync());
        let b = tally.expect_ok("witness sync", self.witness.sync());
        tally.check(a.is_some() && a == b, || {
            "two members derived different group keys".to_string()
        });
        // a removed member is locked out
        if let Some(gone) = self.removed.last() {
            let outcome = client_for(&self.admin, &self.store, gone).sync();
            tally.check(matches!(outcome, Err(AcsError::NotAMember(_))), || {
                format!("removed member {gone} synced: {outcome:?}")
            });
        }
        // an untrusted auditor accepts the published log
        let mut auditor = Auditor::new();
        auditor.register_admin(ADMIN_NAME, self.signer_key);
        let handle = self.admin.store().clone();
        match auditor.audit_group(&handle, GROUP) {
            Ok(report) => {
                let audited: BTreeSet<String> = report.membership.into_iter().collect();
                tally.check(audited == self.roster, || {
                    "the audited log implies another roster".to_string()
                });
            }
            Err(e) => tally.check(false, || format!("audit_group: {e}")),
        }

        let stored: usize = self
            .store
            .list(GROUP)
            .iter()
            .filter_map(|item| self.store.get(GROUP, item))
            .map(|(bytes, _)| bytes.len())
            .sum();
        Footprint {
            stored_bytes_per_item: stored as f64 / self.roster.len() as f64,
        }
    }
}
