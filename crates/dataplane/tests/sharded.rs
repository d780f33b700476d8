//! Integration tests of the sharded data plane: the acceptance criterion
//! (a one-group fleet with a worker per shard over a `ShardedStore`
//! converges a stale namespace in measurably less wall-clock than a single
//! worker on one shard, with identical migration totals and nothing lost), replay
//! equivalence between the single and sharded deployments, epoch-history
//! compaction after converged sweeps, and the sessions' versions-map GC.

use cloud_store::{CloudStore, LatencyModel, ObjectStore, ShardedStore, StoreHandle};
use dataplane::{
    ClientSession, FleetConfig, SweepConfig, SweepReport, SweepScheduler, SweepTask, Sweeper,
};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionSize};
use std::time::Duration;
use support::replay::{RwSystemBackend, RwSystemConfig};
use support::sweep_by_hand;
use workloads::{generate_read_write, replay_events, RwOp, RwTraceConfig};

mod support;

/// One deployment over any store: admin, writer, and a one-group sweep
/// fleet of `workers` workers over `data_shards` data folders.
struct Deployment {
    admin: acs::Admin,
    writer: ClientSession,
    fleet: SweepScheduler,
}

/// A session for `identity` on the deployment's store and data layout.
fn session(admin: &acs::Admin, identity: &str, data_shards: usize, seed: u64) -> ClientSession {
    ClientSession::with_seed(
        identity,
        admin.engine().extract_user_key(identity).unwrap(),
        admin.engine().public_key().clone(),
        admin.store().clone(),
        "g",
        seed,
    )
    .with_data_shards(data_shards)
}

/// One sweeper session per data folder.
fn sweep_sessions(admin: &acs::Admin, data_shards: usize, seed: u64) -> Vec<ClientSession> {
    (0..data_shards)
        .map(|w| {
            session(
                admin,
                "sweeper",
                data_shards,
                seed ^ 0xbb ^ ((w as u64) << 32),
            )
        })
        .collect()
}

fn deploy(
    store: impl Into<StoreHandle>,
    seed: u64,
    data_shards: usize,
    workers: usize,
    objects: usize,
    sweep: SweepConfig,
) -> Deployment {
    let store = store.into();
    let mut seed_bytes = [0u8; 32];
    seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
    let engine = GroupEngine::bootstrap_seeded(PartitionSize::new(4).unwrap(), seed_bytes).unwrap();
    let admin = acs::Admin::new(engine, store.clone());
    let members: Vec<String> = (0..6)
        .map(|i| format!("u{i}"))
        .chain(["writer".to_string(), "sweeper".to_string()])
        .collect();
    admin.create_group("g", members).unwrap();
    let mut writer = session(&admin, "writer", data_shards, seed ^ 0xaa);
    for i in 0..objects {
        writer
            .write(&format!("obj-{i:04}"), format!("payload {i}").as_bytes())
            .unwrap();
    }
    let mut fleet = SweepScheduler::new(FleetConfig {
        workers,
        ..FleetConfig::default()
    });
    fleet.register(SweepTask::new(
        sweep_sessions(&admin, data_shards, seed),
        sweep,
    ));
    Deployment {
        admin,
        writer,
        fleet,
    }
}

/// A lazy revocation: the admin's re-key, then arm the group's task.
fn revoke(admin: &acs::Admin, fleet: &mut SweepScheduler, victim: &str) {
    let mut batch = MembershipBatch::new();
    batch.remove(victim);
    assert!(admin.apply_batch("g", &batch).unwrap().gk_rotated);
    fleet.arm(0);
}

/// Prunes the epoch history below a converged report's floor (nothing
/// otherwise); returns the entries pruned.
fn compact(admin: &acs::Admin, report: &SweepReport) -> usize {
    report
        .compaction_floor()
        .map_or(0, |floor| admin.compact_history("g", floor).unwrap())
}

/// THE acceptance criterion: with per-request latency, an 8-worker fleet
/// over an 8-shard store converges the same stale namespace in measurably
/// less wall-clock than a single worker on one shard — same total
/// migrated, zero lost objects (every object readable at the new epoch).
#[test]
fn sweep_pool_on_sharded_store_beats_single_sweeper() {
    let n = 32;
    let latency = LatencyModel::new(Duration::from_millis(3), Duration::ZERO);
    let sweep = SweepConfig {
        deadline: Duration::from_secs(60),
    };

    // single worker, one shard; the rings are primed outside the timed
    // window on both deployments, so the comparison measures convergence
    // I/O, not key derivation
    let mut single = deploy(CloudStore::with_latency(latency), 11, 1, 1, n, sweep);
    revoke(&single.admin, &mut single.fleet, "u0");
    single.fleet.refresh().unwrap();
    let serial = single.fleet.converge_all().unwrap().groups[0].report;
    assert!(serial.converged);
    assert_eq!(serial.migrated, n);

    // 8 workers over 8 data shards on an 8-shard store
    let mut sharded = deploy(ShardedStore::with_latency(8, latency), 11, 8, 8, n, sweep);
    revoke(&sharded.admin, &mut sharded.fleet, "u0");
    sharded.fleet.refresh().unwrap();
    let parallel = sharded.fleet.converge_all().unwrap().groups[0].report;
    assert!(parallel.converged);
    assert_eq!(
        parallel.migrated, serial.migrated,
        "same total migrated on both deployments"
    );
    assert_eq!(parallel.stale, n);
    assert_eq!(parallel.scanned, n, "no object lost by the shard split");

    // zero lost objects: every object is at the new epoch and readable
    for i in 0..n {
        let (sealed, _) = sharded.writer.fetch(&format!("obj-{i:04}")).unwrap();
        assert_eq!(sealed.epoch, 2);
        assert_eq!(
            sharded.writer.read(&format!("obj-{i:04}")).unwrap(),
            format!("payload {i}").as_bytes()
        );
    }

    assert!(
        parallel.elapsed.as_secs_f64() < serial.elapsed.as_secs_f64() * 0.6,
        "8 shards must beat 1 measurably: {parallel:?} vs {serial:?}"
    );
}

/// Replaying the same rw trace through a single-store deployment and an
/// 8-shard/4-worker sharded deployment yields identical plaintext reads
/// for every object — the storage layout is invisible above the trait.
#[test]
fn sharded_and_single_store_replay_identically() {
    let trace = generate_read_write(&RwTraceConfig {
        objects: 12,
        events: 80,
        write_ratio: 0.5,
        churn_every: 25,
        churn_ops: 3,
        churn_revocation_ratio: 0.67,
        seed: 0xfeed,
    });
    let config = RwSystemConfig {
        sweep: SweepConfig {
            deadline: Duration::from_secs(5),
        },
        seed: 99,
        ..RwSystemConfig::default()
    };
    let mut single = RwSystemBackend::with_store(CloudStore::new(), "g", &trace, config);
    let mut sharded = RwSystemBackend::with_store(
        ShardedStore::new(8),
        "g",
        &trace,
        RwSystemConfig {
            data_shards: 8,
            sweep_workers: 4,
            ..config
        },
    );
    replay_events(&trace.events, &mut single, None);
    replay_events(&trace.events, &mut sharded, None);
    assert_eq!(
        single.failure(),
        None,
        "single replay applied the whole trace"
    );
    assert_eq!(
        sharded.failure(),
        None,
        "sharded replay applied the whole trace"
    );

    let written: std::collections::BTreeSet<&str> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            RwOp::Write { object } => Some(object.as_str()),
            _ => None,
        })
        .collect();
    assert!(!written.is_empty());
    assert_eq!(
        single.session_mut().list_objects().unwrap(),
        sharded.session_mut().list_objects().unwrap(),
        "merged sharded listing equals the single-store listing"
    );
    for object in written {
        assert_eq!(
            single.session_mut().read(object).unwrap(),
            sharded.session_mut().read(object).unwrap(),
            "plaintext of {object} must not depend on the layout"
        );
    }
}

/// Epoch-history compaction: after a converged full-namespace sweep, the
/// `_epochs` object shrinks to exactly the epochs still in use, current
/// members keep reading everything, and an unsafe early prune can never
/// happen (the bound is the sweep's floor epoch).
#[test]
fn converged_sweeps_compact_the_epoch_history() {
    let mut d = deploy(CloudStore::new(), 21, 2, 2, 6, SweepConfig::default());

    // three rotations pile up three retired epochs
    for victim in ["u0", "u1", "u2"] {
        revoke(&d.admin, &mut d.fleet, victim);
    }
    assert_eq!(d.admin.metadata("g").unwrap().key_history.epoch_count(), 3);

    // sweep converges everything to epoch 4 → epochs 1..=3 are dead weight
    let report = d.fleet.converge_all().unwrap().groups[0].report;
    assert!(report.converged);
    assert_eq!(report.migrated, 6);
    assert_eq!(report.min_live_epoch, Some(4));
    assert_eq!(compact(&d.admin, &report), 3);
    assert_eq!(
        d.admin.metadata("g").unwrap().key_history.epoch_count(),
        0,
        "no retired epoch is referenced by any object"
    );

    // survivors still read everything post-compaction
    for i in 0..6 {
        assert!(d.writer.read(&format!("obj-{i:04}")).is_ok());
    }
    // an idle re-compaction publishes nothing
    assert_eq!(compact(&d.admin, &report), 0);
}

/// An eager revocation compacts inline: after its `converge_all` nothing
/// is stale, so the history is already minimal.
#[test]
fn eager_revocations_compact_inline() {
    let mut d = deploy(CloudStore::new(), 22, 1, 1, 4, SweepConfig::default());
    revoke(&d.admin, &mut d.fleet, "u3");
    let run = d.fleet.converge_all().unwrap();
    let own = run.group("g").expect("an armed task is reported");
    assert!(own.error.is_none() && own.report.converged, "{own:?}");
    assert_eq!(own.report.migrated, 4);
    assert_eq!(compact(&d.admin, &own.report), 1);
    assert_eq!(
        d.admin.metadata("g").unwrap().key_history.epoch_count(),
        0,
        "the retired epoch was pruned in the same revocation"
    );
    assert!(d.writer.read("obj-0000").is_ok());
}

/// A revoked member's frozen ring can win a CAS race against the sweeper
/// and re-seal an object at a *retired* epoch. Whatever the interleaving,
/// history compaction must never orphan that object: either the sweep
/// reports non-convergence (no pruning), or its floor keeps the retired
/// key, or the object was migrated first — in every case a survivor still
/// reads it after compaction.
#[test]
fn conflicted_stale_writes_never_let_compaction_orphan_objects() {
    for offset_ms in [0u64, 6, 12, 18, 24, 36] {
        let latency = LatencyModel::new(Duration::from_millis(6), Duration::ZERO);
        let d = deploy(
            CloudStore::with_latency(latency),
            31,
            1,
            1,
            1,
            SweepConfig {
                deadline: Duration::from_secs(30),
            },
        );
        let mk = |identity: &str, s: u64| session(&d.admin, identity, 1, s);
        // the victim arms an epoch-1 ring and the object's CAS version
        let mut victim = mk("u5", 40 + offset_ms);
        victim.read("obj-0000").unwrap();

        let mut fleet = d.fleet;
        revoke(&d.admin, &mut fleet, "u5");
        fleet.refresh().unwrap();
        let sweep = std::thread::spawn(move || fleet.converge_all().unwrap().groups[0].report);
        std::thread::sleep(Duration::from_millis(offset_ms));
        // frozen-ring write: seals at retired epoch 1; may lose the CAS
        // race to the sweeper, which is fine
        let _ = victim.write("obj-0000", b"stale ring write");
        let report = sweep.join().unwrap();

        compact(&d.admin, &report);
        let mut survivor = mk("u1", 50 + offset_ms);
        assert!(
            survivor.read("obj-0000").is_ok(),
            "offset {offset_ms}ms: compaction orphaned the object ({report:?})"
        );
    }
}

/// Versions-map GC: deletions (own or foreign) stop leaking CAS
/// expectations in long-lived sessions, and a sweep, which conditions its
/// writes on the versions its own reads return, tracks none.
#[test]
fn versions_map_gc_drops_deleted_objects() {
    let mut d = deploy(CloudStore::new(), 23, 2, 2, 8, SweepConfig::default());
    assert_eq!(d.writer.tracked_versions(), 8);

    // own delete drops the entry immediately
    assert!(d.writer.delete("obj-0000").unwrap());
    assert_eq!(d.writer.tracked_versions(), 7);

    // foreign deletes (another actor, straight through the store) leak
    // until gc_versions reconciles against the live namespace
    let store = d.admin.store().clone();
    for i in 1..4 {
        let name = format!("obj-{i:04}");
        assert!(store.delete(d.writer.folder_of(&name), &name));
    }
    assert_eq!(d.writer.tracked_versions(), 7);
    assert_eq!(d.writer.gc_versions().unwrap(), 3);
    assert_eq!(d.writer.tracked_versions(), 4);

    // a fetch of a vanished object also reconciles its entry
    let (sealed, _) = d.writer.fetch("obj-0004").unwrap();
    assert_eq!(sealed.epoch, 1);
    store.delete(d.writer.folder_of("obj-0004"), "obj-0004");
    assert!(d.writer.fetch("obj-0004").is_err());
    assert_eq!(d.writer.tracked_versions(), 3);

    // a sweep of the three live objects leaves its session's map empty.
    // The sweeper is stepped by hand so its session stays inspectable.
    revoke(&d.admin, &mut d.fleet, "u0");
    let session = sweep_sessions(&d.admin, 2, 23).remove(0);
    let mut sweeper = Sweeper::new(session, SweepConfig::default());
    let report = sweep_by_hand(&mut sweeper, 8);
    assert!(report.converged);
    assert_eq!((report.scanned, report.migrated), (3, 3));
    assert_eq!(sweeper.session().tracked_versions(), 0);
}
