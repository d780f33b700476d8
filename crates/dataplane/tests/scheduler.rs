//! Integration tests of the sweep scheduler: staleness-priority leasing
//! on a bounded shared fleet, watch-driven re-arming (idle groups cost
//! nothing), equivalence with dedicated one-group fleets, request-trace
//! equality between a one-worker fleet and a hand-composed pass,
//! per-group metrics attribution, epoch-history compaction driven from
//! a fleet report, a migration batch that loses races mid-chunk, and one
//! IBBE decrypt per rotation and identity across a task's units.

use acs::AcsError;
use acs::FleetFixture;
use cloud_store::{
    BatchWrite, Bytes, CloudStore, MetricsSnapshot, ObjectStore, Request, RequestOp, Response,
    StoreError, StoreHandle,
};
use dataplane::fixtures::{
    fleet_session, fleet_session_on, fleet_sweep_sessions, fleet_sweep_sessions_on,
};
use dataplane::{
    DataError, FleetConfig, ReencryptionPolicy, RevocationCoordinator, SweepConfig, SweepScheduler,
    SweepTask, Sweeper,
};
use ibbe_sgx_core::{MembershipBatch, PartitionSize};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;
use support::{sweep_by_hand, RecordingStore};

mod support;

const WRITER: &str = "writer";
const SWEEPER: &str = "sweeper";

struct Fleet {
    fixture: FleetFixture,
    shards: usize,
}

/// Boots one admin over `sizes.len()` groups (`g0`, `g1`, …), each holding
/// `sizes[i]` objects written by a shared writer identity.
fn fleet(sizes: &[usize], shards: usize, seed: u64) -> Fleet {
    let specs: Vec<(String, Vec<String>)> = (0..sizes.len())
        .map(|i| {
            (
                format!("g{i}"),
                (0..4).map(|m| format!("g{i}-u{m}")).collect(),
            )
        })
        .collect();
    let fixture = FleetFixture::new(
        CloudStore::new(),
        PartitionSize::new(4).unwrap(),
        &specs,
        &[WRITER.to_string(), SWEEPER.to_string()],
        seed,
    )
    .unwrap();
    for (i, &objects) in sizes.iter().enumerate() {
        let mut writer = fleet_session(&fixture, WRITER, &format!("g{i}"), shards, seed ^ 0xa0);
        for o in 0..objects {
            writer
                .write(
                    &format!("obj-{o:04}"),
                    format!("g{i} payload {o}").as_bytes(),
                )
                .unwrap();
        }
    }
    Fleet { fixture, shards }
}

fn task(f: &Fleet, group: &str, seed: u64) -> SweepTask {
    SweepTask::new(
        fleet_sweep_sessions(&f.fixture, SWEEPER, group, f.shards, seed),
        SweepConfig {
            deadline: Duration::from_secs(60),
        },
    )
}

fn revoke(f: &Fleet, group: &str, victim: &str) {
    let mut batch = MembershipBatch::new();
    batch.remove(victim);
    let outcome = f.fixture.admin().apply_batch(group, &batch).unwrap();
    assert!(outcome.gk_rotated);
}

/// The headline: W workers converge G > W groups; leases always go to the
/// stalest ready group (verified from the grant log, race-free), every
/// group converges and the most-behind group finishes before the freshest.
#[test]
fn shared_fleet_respects_staleness_priority() {
    let sizes = [6, 6, 6, 6, 6, 6];
    let f = fleet(&sizes, 2, 11);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        lease: 2,
        max_passes: 32,
        max_retries: 8,
        ..FleetConfig::default()
    });
    for i in 0..sizes.len() {
        scheduler.register(task(&f, &format!("g{i}"), 0x50 + i as u64));
    }
    // the wave lands in reverse registration order: g5 is most behind
    let arm_order = [5usize, 4, 3, 2, 1, 0];
    for &i in &arm_order {
        revoke(&f, &format!("g{i}"), &format!("g{i}-u0"));
        scheduler.arm(i);
    }

    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    assert_eq!(report.total.migrated, sizes.iter().sum::<usize>());
    assert_eq!(report.groups.len(), sizes.len());
    for (i, &objects) in sizes.iter().enumerate() {
        let g = report.group(&format!("g{i}")).unwrap();
        assert!(g.report.converged, "g{i} converged");
        assert_eq!(g.report.migrated, objects);
        assert_eq!(g.report.scanned, objects);
        assert_eq!(g.overshoot, Duration::ZERO);
    }

    // no priority inversion: every grant went to the stalest ready group
    assert!(!report.leases.is_empty());
    for lease in &report.leases {
        assert!(
            lease.stamp <= lease.remaining_min_stamp.unwrap_or(u64::MAX),
            "lease for {} (stamp {}) granted while a staler group was ready",
            lease.group,
            lease.stamp
        );
    }

    // a fixed fleet (no floor/ceiling configured) never scales: the
    // active set is the configured width for the whole run
    assert_eq!(report.peak_workers, report.workers);

    // the most-behind group finishes its backlog before the freshest
    let order = report.completion_order();
    let pos = |g: &str| order.iter().position(|o| *o == g).unwrap();
    assert!(
        pos("g5") < pos("g0"),
        "stalest g5 must complete before freshest g0: {order:?}"
    );

    // a served backlog disarms; an idle fleet run is empty
    assert!((0..sizes.len()).all(|i| !scheduler.is_armed(i)));
    let idle = scheduler.converge_all().unwrap();
    assert!(idle.groups.is_empty() && idle.leases.is_empty());

    // everything reads back at the new epoch for a surviving member
    for (i, &objects) in sizes.iter().enumerate() {
        let mut reader = fleet_session(&f.fixture, WRITER, &format!("g{i}"), 2, 0xbeef);
        for o in 0..objects {
            reader.read(&format!("obj-{o:04}")).unwrap();
        }
    }
}

/// Watch-driven re-arming: only groups whose key epoch moved get armed;
/// structural changes and idle groups never wake the sweep machinery, so
/// idle groups cost no migrations and no scans.
#[test]
fn watch_arms_exactly_the_rotated_groups() {
    let f = fleet(&[3, 3, 3], 1, 22);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    });
    for i in 0..3 {
        scheduler.register(task(&f, &format!("g{i}"), 0x90 + i as u64));
    }

    // nothing changed: the watch times out quietly
    assert_eq!(scheduler.watch(Duration::from_millis(30)).unwrap(), 0);

    // a pure add bumps g0's metadata but not its epoch: still no arming
    let mut adds = MembershipBatch::new();
    adds.add("g0-new-member");
    let outcome = f.fixture.admin().apply_batch("g0", &adds).unwrap();
    assert!(!outcome.gk_rotated);
    assert_eq!(scheduler.watch(Duration::from_millis(30)).unwrap(), 0);

    // a rotation in g1 arms exactly g1
    revoke(&f, "g1", "g1-u0");
    assert_eq!(scheduler.watch(Duration::from_secs(5)).unwrap(), 1);
    assert!(!scheduler.is_armed(0) && scheduler.is_armed(1) && !scheduler.is_armed(2));

    let report = scheduler.converge_all().unwrap();
    assert_eq!(report.completion_order(), vec!["g1"]);
    assert_eq!(report.group("g1").unwrap().report.migrated, 3);

    // idle groups cost nothing: no migrations, no scans attributed to them
    let metrics = scheduler.metrics();
    for idle in ["g0", "g2"] {
        let m = metrics.group(idle).unwrap();
        assert_eq!(m.migrations, 0, "{idle} never migrated");
        assert_eq!(m.reads, 0, "{idle} never read an object");
    }
    assert_eq!(metrics.group("g1").unwrap().migrations, 3);
    assert_eq!(metrics.total.migrations, 3);
}

/// A shared fleet does exactly the work G dedicated one-group fleets (a
/// worker per shard each) do: identical per-group migration totals on
/// identically seeded deployments, and the per-group metrics breakdown
/// attributes each group its own migrations and sums to the fleet
/// aggregate.
#[test]
fn shared_fleet_matches_dedicated_pools() {
    let sizes = [9, 4, 1, 6];
    let shards = 2;

    // dedicated fleets, one per group, on their own stack
    let ded = fleet(&sizes, shards, 33);
    let mut dedicated_migrated = Vec::new();
    for (i, &objects) in sizes.iter().enumerate() {
        let group = format!("g{i}");
        revoke(&ded, &group, &format!("g{i}-u0"));
        let mut dedicated = SweepScheduler::new(FleetConfig {
            workers: shards,
            ..FleetConfig::default()
        });
        let id = dedicated.register(task(&ded, &group, 0xd0));
        dedicated.arm(id);
        let report = dedicated.converge_all().unwrap().groups[0].report;
        assert!(report.converged);
        assert_eq!(report.migrated, objects);
        dedicated_migrated.push(report.migrated);
    }

    // the shared fleet on an identically seeded stack
    let f = fleet(&sizes, shards, 33);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 3,
        lease: 4,
        ..FleetConfig::default()
    });
    for i in 0..sizes.len() {
        scheduler.register(task(&f, &format!("g{i}"), 0x70 + i as u64));
        revoke(&f, &format!("g{i}"), &format!("g{i}-u0"));
    }
    scheduler.arm_all();
    let report = scheduler.converge_all().unwrap();
    for (i, &expected) in dedicated_migrated.iter().enumerate() {
        assert_eq!(
            report.group(&format!("g{i}")).unwrap().report.migrated,
            expected,
            "g{i}: shared fleet must migrate exactly what a dedicated fleet does"
        );
    }

    let metrics = scheduler.metrics();
    for (i, &objects) in sizes.iter().enumerate() {
        let group = format!("g{i}");
        let (_, m) = metrics.by_group.iter().find(|(g, _)| *g == group).unwrap();
        assert_eq!(
            m.migrations, objects as u64,
            "metrics attribute {group}'s migrations to it"
        );
    }
    assert_eq!(metrics.total.migrations, sizes.iter().sum::<usize>() as u64);
}

/// The one driver is the old serial one when W = 1: a one-folder task on a
/// one-worker fleet issues exactly the store requests — kind, folder,
/// item, in order — of the hand-composed `begin_pass` / `step(lease)` … /
/// `finish` loop over an identically seeded deployment. (The sweep
/// analogue of "window 1 replays the serial trace" in `pipeline.rs`.)
#[test]
fn a_one_worker_fleet_replays_the_hand_composed_pass_exactly() {
    let (objects, lease) = (7, 3);
    let run = |through_the_fleet: bool| {
        let f = fleet(&[objects], 1, 88);
        revoke(&f, "g0", "g0-u0");
        let recorder = RecordingStore::new(f.fixture.admin().store().clone());
        let mut sessions = fleet_sweep_sessions_on(
            &f.fixture,
            StoreHandle::new(recorder.clone()),
            SWEEPER,
            "g0",
            1,
            0xe0,
        );
        let report = if through_the_fleet {
            let mut scheduler = SweepScheduler::new(FleetConfig {
                workers: 1,
                lease,
                ..FleetConfig::default()
            });
            let id = scheduler.register(SweepTask::new(sessions, SweepConfig::default()));
            scheduler.arm(id);
            scheduler.converge_all().unwrap().groups[0].report
        } else {
            let session = sessions.pop().unwrap();
            sweep_by_hand(&mut Sweeper::new(session, SweepConfig::default()), lease)
        };
        assert!(report.converged);
        assert_eq!((report.scanned, report.migrated), (objects, objects));
        (recorder.data_ops(), recorder.data_requests())
    };
    let by_hand = run(false);
    let entries = |kind: &str| by_hand.0.iter().filter(|(k, ..)| k == kind).count();
    assert_eq!(
        (entries("get_many"), entries("put_many"), by_hand.0.len()),
        (objects, objects, 2 * objects),
        "every object read once and written once, by batches"
    );
    assert_eq!(
        by_hand.1,
        2 * objects.div_ceil(lease),
        "one GetMany and one conditional PutMany per lease step"
    );
    assert_eq!(run(true), by_hand);
}

/// Rotations landing while a task is already armed merge into the same
/// backlog (oldest stamp), converge in one wave, and the group's fleet
/// report is a valid floor for epoch-history compaction.
#[test]
fn merged_backlogs_converge_and_compact_history() {
    let f = fleet(&[5], 2, 44);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    });
    scheduler.register(task(&f, "g0", 0x60));

    revoke(&f, "g0", "g0-u0");
    scheduler.arm(0);
    revoke(&f, "g0", "g0-u1"); // second rotation joins the armed backlog
    assert_eq!(
        f.fixture
            .admin()
            .metadata("g0")
            .unwrap()
            .key_history
            .epoch_count(),
        2
    );

    let report = scheduler.converge_all().unwrap();
    let g = report.group("g0").unwrap();
    assert!(g.report.converged);
    assert_eq!(
        g.report.migrated, 5,
        "one migration per object, not per epoch"
    );
    assert_eq!(g.report.min_live_epoch, Some(3));

    // the labelled group report is the floor history compaction keys off
    let coordinator = RevocationCoordinator::new(f.fixture.admin(), ReencryptionPolicy::Lazy)
        .with_history_compaction();
    assert_eq!(coordinator.compact_after("g0", &g.report).unwrap(), 2);
    assert_eq!(
        f.fixture
            .admin()
            .metadata("g0")
            .unwrap()
            .key_history
            .epoch_count(),
        0
    );

    // survivors still read everything post-compaction
    let mut reader = fleet_session(&f.fixture, WRITER, "g0", 2, 0xcafe);
    for o in 0..5 {
        reader.read(&format!("obj-{o:04}")).unwrap();
    }
}

/// Autoscaling: a deep multi-group backlog drives the active worker set
/// up from the floor (the peak lands in the report), and the whole
/// backlog converges exactly as it would on a fixed fleet.
#[test]
fn autoscaler_follows_the_backlog() {
    let sizes = [6, 6, 6, 6];
    let f = fleet(&sizes, 2, 55);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 4,
        min_workers: 1,
        max_workers: 4,
        lease: 2,
        ..FleetConfig::default()
    });
    for i in 0..sizes.len() {
        scheduler.register(task(&f, &format!("g{i}"), 0xa0 + i as u64));
        revoke(&f, &format!("g{i}"), &format!("g{i}-u0"));
    }
    scheduler.arm_all();
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    assert_eq!(report.total.migrated, sizes.iter().sum::<usize>());
    assert_eq!(report.workers, 4);
    assert!(
        report.peak_workers > 1 && report.peak_workers <= 4,
        "eight ready units over a one-worker floor must scale up (peak {})",
        report.peak_workers
    );
}

/// A lease-rate cap defers only the capped tenant: an uncapped group
/// behind it in staleness converges at full speed, while the capped
/// group's grants respect the configured gap.
#[test]
fn rate_cap_defers_only_the_capped_tenant() {
    let sizes = [6, 6];
    let f = fleet(&sizes, 1, 66);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 1,
        lease: 2,
        ..FleetConfig::default()
    });
    scheduler.register(task(&f, "g0", 0xb0).with_lease_rate_cap(2));
    scheduler.register(task(&f, "g1", 0xb1));
    revoke(&f, "g0", "g0-u0");
    revoke(&f, "g1", "g1-u0");
    scheduler.arm(0); // the capped tenant is the staler one
    scheduler.arm(1);
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    let g0 = report.group("g0").unwrap();
    let g1 = report.group("g1").unwrap();
    assert_eq!(g0.report.migrated, 6);
    assert_eq!(g1.report.migrated, 6);
    // the uncapped group overtakes the staler capped one: a deferred unit
    // never blocks the grants queued behind it
    assert_eq!(report.completion_order()[0], "g1");
    assert!(g1.report.elapsed < g0.report.elapsed);
    // the cap really paced g0: n grants take at least (n - 1) gaps
    let n0 = report.leases.iter().filter(|l| l.group == "g0").count() as u32;
    assert!(n0 >= 2, "a 6-object backlog takes several leases");
    let floor = Duration::from_millis(500) * (n0 - 1) * 4 / 5;
    assert!(
        g0.report.elapsed >= floor,
        "{n0} grants under a 500ms gap finished in {:?}",
        g0.report.elapsed
    );
}

/// Weight buys throughput: of two equal backlogs on one worker, the
/// 4x-weighted group converges first even though it armed later
/// (staleness alone would put it second).
#[test]
fn weight_buys_a_larger_share() {
    let sizes = [8, 8];
    let f = fleet(&sizes, 1, 77);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 1,
        lease: 1,
        ..FleetConfig::default()
    });
    scheduler.register(task(&f, "g0", 0xc0));
    scheduler.register(task(&f, "g1", 0xc1).with_weight(4));
    revoke(&f, "g0", "g0-u0");
    revoke(&f, "g1", "g1-u0");
    scheduler.arm(0); // the unweighted group is staler
    scheduler.arm(1);
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    assert_eq!(report.group("g0").unwrap().report.migrated, 8);
    assert_eq!(report.group("g1").unwrap().report.migrated, 8);
    assert_eq!(
        report.completion_order()[0],
        "g1",
        "the 4x-weighted group must finish its equal backlog first"
    );
}

/// A store that runs `race` once, just before it forwards the first
/// conditional multi-write: the writes the race makes land between a
/// sweep step's read and its write.
struct RacingStore {
    inner: StoreHandle,
    race: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl ObjectStore for RacingStore {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        if let RequestOp::PutMany(items) = &request.op {
            if items.iter().any(BatchWrite::is_conditional) {
                if let Some(race) = self.race.lock().unwrap().take() {
                    race();
                }
            }
        }
        self.inner.call(request)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// One chunk, two lost races: between the step's read and its write, a
/// current member re-seals one object at the current epoch and a revoked
/// member's frozen ring re-seals another at the retired epoch. The step's
/// batch is rejected naming both, their headers are re-read in one
/// `GetMany`, and the rest of the chunk lands in one resubmitted batch —
/// while the stale-epoch winner keeps the pass unconverged and its epoch
/// in the floor, so history compaction cannot orphan it.
#[test]
fn a_chunk_that_loses_two_races_migrates_the_rest_and_keeps_the_stale_floor() {
    let f = fleet(&[6], 1, 37);
    let admin = f.fixture.admin();
    let store = admin.store().clone();
    let epoch = || admin.metadata("g0").unwrap().epoch;
    let retired = epoch();
    // both racers adopt their object's version before the rotation; the
    // victim keeps the retired ring it held
    let mut victim = fleet_session(&f.fixture, "g0-u3", "g0", 1, 41);
    victim.read("obj-0004").unwrap();
    let mut writer = fleet_session(&f.fixture, WRITER, "g0", 1, 42);
    writer.read("obj-0001").unwrap();
    revoke(&f, "g0", "g0-u3");
    let current = epoch();
    assert!(current > retired);

    let racing = RacingStore {
        inner: store.clone(),
        race: Mutex::new(Some(Box::new(move || {
            writer.write("obj-0001", b"current writer").unwrap();
            victim.write("obj-0004", b"frozen ring").unwrap();
        }))),
    };
    let recorder = RecordingStore::new(StoreHandle::new(racing));
    let sessions = fleet_sweep_sessions_on(
        &f.fixture,
        StoreHandle::new(recorder.clone()),
        SWEEPER,
        "g0",
        1,
        43,
    );
    let mut unit = Sweeper::new(sessions.into_iter().next().unwrap(), SweepConfig::default());
    let mut pass = unit.begin_pass().unwrap();
    assert_eq!(pass.remaining(), 6);

    let before = (store.metrics(), recorder.data_requests());
    assert_eq!(pass.step(&mut unit, 6).unwrap(), 6);
    let after = (store.metrics(), recorder.data_requests());
    assert_eq!(
        after.1 - before.1,
        4,
        "read, rejected batch, one re-read of both losers, batch of the rest"
    );
    assert_eq!(
        (
            after.0.cas_conflicts - before.0.cas_conflicts,
            after.0.puts_batched - before.0.puts_batched,
            after.0.batched_items - before.0.batched_items,
        ),
        (1, 1, 4),
        "the rejected batch wrote nothing; the resubmission wrote the rest"
    );
    let report = pass.finish();
    assert_eq!((report.stale, report.migrated, report.conflicts), (6, 4, 2));
    assert!(!report.converged, "a stale-epoch winner is still stale");
    assert_eq!(report.min_live_epoch, Some(retired));
    assert_eq!(unit.metrics().migration_conflicts, 2);
    let epoch_of = |name: &str| {
        let (bytes, _) = store.get(unit.session().folder_of(name), name).unwrap();
        dataplane::SealedObject::peek_epoch(&bytes)
    };
    for i in 0..6 {
        let name = format!("obj-{i:04}");
        let want = if i == 4 { retired } else { current };
        assert_eq!(epoch_of(&name), Some(want), "{name}");
    }
}

/// IBBE decrypts the units of `group`'s task have run.
fn derivations(scheduler: &SweepScheduler, group: &str) -> u64 {
    scheduler.metrics().group(group).unwrap().key_derivations
}

/// An 8-folder task of one identity on 2 workers decrypts each rotation
/// once: whether `converge_all` meets it at every unit's first lease or
/// `refresh` primes the rings up front, one unit derives the key and the
/// other seven reuse it after reading the same partition.
#[test]
fn a_task_of_one_identity_derives_each_rotation_once() {
    let f = fleet(&[16], 8, 55);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        lease: 2,
        ..FleetConfig::default()
    });
    let id = scheduler.register(task(&f, "g0", 0x55));

    revoke(&f, "g0", "g0-u0");
    scheduler.arm(id);
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    assert_eq!(report.total.migrated, 16);
    assert_eq!(derivations(&scheduler, "g0"), 1);
    assert_eq!(
        scheduler.metrics().total.key_refreshes,
        8,
        "every unit still rebuilt its own ring"
    );

    revoke(&f, "g0", "g0-u1");
    scheduler.refresh().unwrap();
    assert_eq!(derivations(&scheduler, "g0"), 2);
    scheduler.arm(id);
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    assert_eq!(report.total.migrated, 16);
    assert_eq!(
        derivations(&scheduler, "g0"),
        2,
        "primed rings need no decrypt in the converge"
    );
}

/// Sessions of two identities in one task share only within their
/// identity: a rotation costs the task one decrypt per identity.
#[test]
fn a_task_of_two_identities_derives_once_per_identity() {
    let f = fleet(&[16], 8, 66);
    let sessions = (0..8u64)
        .map(|i| {
            let identity = if i % 2 == 0 { SWEEPER } else { WRITER };
            fleet_session(&f.fixture, identity, "g0", 8, 0x66 ^ (i << 32))
        })
        .collect();
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        lease: 2,
        ..FleetConfig::default()
    });
    let id = scheduler.register(SweepTask::new(sessions, SweepConfig::default()));
    revoke(&f, "g0", "g0-u0");
    scheduler.arm(id);
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged);
    assert_eq!(report.total.migrated, 16);
    assert_eq!(derivations(&scheduler, "g0"), 2);
}

/// What a [`PartitionView`] serves for a partition item, given its name
/// and its stored bytes.
type Serve = Box<dyn Fn(&str, Bytes) -> Bytes + Send + Sync>;

/// A store view that rewrites every partition object its multi-GETs of
/// `group`'s metadata folder return.
struct PartitionView {
    inner: StoreHandle,
    group: String,
    serve: Serve,
}

impl ObjectStore for PartitionView {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        let names = match &request.op {
            RequestOp::GetMany(names) if request.folder == self.group => names.clone(),
            _ => return self.inner.call(request),
        };
        let Response::GetMany { items, version } = self.inner.call(request)? else {
            unreachable!("a multi-GET answers with items");
        };
        let items = names.iter().zip(items).map(|(name, got)| match got {
            Some((bytes, v)) if !name.starts_with('_') => Some(((self.serve)(name, bytes), v)),
            other => other,
        });
        Ok(Response::GetMany {
            items: items.collect(),
            version,
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// A unit whose view serves a partition other than the one its siblings
/// derived from never adopts their key. With the partition tampered
/// (a flipped tag byte) the decrypt fails; replayed from before the
/// rotation, the stale key does not open the current history. Either way
/// the run fails with the error a lone session on that view reports.
#[test]
fn a_unit_served_another_partition_never_adopts_the_shared_key() {
    for replay in [false, true] {
        let f = fleet(&[8], 2, 77);
        let store = f.fixture.admin().store().clone();
        let retired: HashMap<String, Bytes> = store
            .list("g0")
            .into_iter()
            .filter(|name| !name.starts_with('_'))
            .map(|name| {
                let (bytes, _) = store.get("g0", &name).unwrap();
                (name, bytes)
            })
            .collect();
        revoke(&f, "g0", "g0-u0");
        let view = || {
            let serve: Serve = if replay {
                let retired = retired.clone();
                Box::new(move |name, _| retired[name].clone())
            } else {
                Box::new(|_, bytes| {
                    let mut bytes = bytes.to_vec();
                    *bytes.last_mut().unwrap() ^= 1;
                    bytes.into()
                })
            };
            StoreHandle::new(PartitionView {
                inner: store.clone(),
                group: "g0".into(),
                serve,
            })
        };
        let expected = fleet_session_on(&f.fixture, view(), SWEEPER, "g0", 2, 1)
            .refresh()
            .unwrap_err()
            .to_string();

        // the honest unit derives first: the shared cell holds the
        // current key when the other unit reads its own view
        let mut honest = fleet_session(&f.fixture, SWEEPER, "g0", 2, 2);
        honest.refresh().unwrap();
        let forged = fleet_session_on(&f.fixture, view(), SWEEPER, "g0", 2, 3);
        let mut scheduler = SweepScheduler::new(FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        });
        let id = scheduler.register(SweepTask::new(vec![honest, forged], SweepConfig::default()));
        scheduler.arm(id);
        let got = scheduler.converge_all().unwrap_err();
        assert_eq!(got.to_string(), expected, "replay: {replay}");
    }
}

/// A revoked sweeper identity is listed in no partition: each unit's sync
/// answers `NotAMember` before any derivation is looked up, so none adopts
/// the key its siblings derived before the revocation, and a task of that
/// identity cannot start a sweep.
#[test]
fn a_revoked_sweeper_gets_not_a_member_on_every_unit() {
    let f = fleet(&[8], 4, 88);
    let mut units = fleet_sweep_sessions(&f.fixture, SWEEPER, "g0", 4, 0x88);
    // linked as `SweepTask::new` links them
    let (first, rest) = units.split_first_mut().unwrap();
    for unit in rest.iter_mut() {
        unit.share_derivations_with(first);
    }
    let retired: Vec<u64> = units.iter_mut().map(|u| u.refresh().unwrap()).collect();
    let total = |units: &[dataplane::ClientSession]| {
        units
            .iter()
            .map(|u| u.metrics().key_derivations)
            .sum::<u64>()
    };
    assert_eq!(total(&units), 1);

    revoke(&f, "g0", SWEEPER);
    for (unit, retired) in units.iter_mut().zip(retired) {
        let got = unit.refresh();
        assert!(
            matches!(got, Err(DataError::Acs(AcsError::NotAMember(_)))),
            "{got:?}"
        );
        assert_eq!(unit.current_epoch(), Some(retired), "the stale ring stays");
    }
    assert_eq!(total(&units), 1, "only the pre-revocation decrypt");

    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    });
    let id = scheduler.register(task(&f, "g0", 0x89));
    scheduler.arm(id);
    let got = scheduler.converge_all();
    assert!(
        matches!(got, Err(DataError::Acs(AcsError::NotAMember(_)))),
        "{got:?}"
    );
    assert_eq!(derivations(&scheduler, "g0"), 0);
}
