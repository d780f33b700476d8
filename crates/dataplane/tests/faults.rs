//! Fault-injection suite: the fleet over a misbehaving store.
//!
//! The sweeper sessions route every request through a seeded
//! [`FaultyStore`] (outages, timeouts, torn polls, spurious CAS
//! conflicts), while the admin and the verifying readers keep a clean
//! handle. For **any** injected fault schedule the fleet must
//!
//! 1. complete the run (`converge_all` returns `Ok`, never aborts the
//!    process) and converge every group;
//! 2. migrate exactly what an identically seeded fault-free deployment
//!    migrates, group by group — failed requests have no partial effect,
//!    so retries and re-leases never double-migrate;
//! 3. lose zero objects: every written object is still readable with its
//!    exact plaintext afterwards;
//! 4. leak nothing to revoked members: after convergence a revoked
//!    identity can read none of the group's objects.
//!
//! The deterministic test at the bottom is the crash-safety acceptance
//! case: a one-shot panic armed mid-pass kills a sweep worker's lease,
//! and the scheduler must re-lease the unit under the same stamp and
//! still satisfy 1–4. A second run over the same stack, under the canned
//! schedule, is traced: its telemetry spans and `fault.*` events must
//! reconcile with the store's own counters and the injector's stats.
//! A fatal error (the sweeper revoked from one group) must end only that
//! group's run: the other group converges in the same `converge_all`.
//!
//! Case count: a light default (each case boots two full fleet stacks),
//! scaled up by `PROPTEST_CASES` like the other data-plane suites.

use acs::{AcsError, FleetFixture};
use cloud_store::{
    CloudStore, FaultConfig, FaultInjector, FaultStats, FaultyStore, MetricsSnapshot, ObjectStore,
    StoreHandle,
};
use dataplane::fixtures::{
    fleet_session, fleet_session_on, fleet_sweep_sessions, fleet_sweep_sessions_on,
};
use dataplane::{
    ClientSession, DataError, FleetConfig, PipelinedSession, RetryPolicy, SweepConfig,
    SweepScheduler, SweepTask,
};
use ibbe_sgx_core::{MembershipBatch, PartitionSize};
use proptest::prelude::*;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

const WRITER: &str = "writer";
const SWEEPER: &str = "sweeper";

/// A telemetry subscriber is process-wide and this binary's tests run on
/// parallel threads: the traced run holds this lock exclusively so that no
/// other test's store traffic lands in its collector, every other test
/// holds it shared ([`untraced`]).
static TRACED_RUN: RwLock<()> = RwLock::new(());

fn untraced() -> RwLockReadGuard<'static, ()> {
    TRACED_RUN.read().unwrap_or_else(PoisonError::into_inner)
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|c| (c / 8).max(4))
        .unwrap_or(5)
}

struct Stack {
    fixture: FleetFixture,
}

/// Boots groups `g0..gN` of 3 members each (plus the service identities),
/// writes `sizes[i]` objects into group `i`, then revokes `g{i}-u0` from
/// every group — the staleness wave the sweeps must clear.
fn build_stack(sizes: &[usize], shards: usize, seed: u64) -> Stack {
    let specs: Vec<(String, Vec<String>)> = (0..sizes.len())
        .map(|i| {
            (
                format!("g{i}"),
                (0..3).map(|m| format!("g{i}-u{m}")).collect(),
            )
        })
        .collect();
    let fixture = FleetFixture::new(
        CloudStore::new(),
        PartitionSize::new(2).unwrap(),
        &specs,
        &[WRITER.to_string(), SWEEPER.to_string()],
        seed,
    )
    .unwrap();
    for (i, &objects) in sizes.iter().enumerate() {
        let mut writer = fleet_session(&fixture, WRITER, &format!("g{i}"), shards, seed ^ 0xa0);
        for o in 0..objects {
            writer
                .write(&format!("obj-{o:03}"), format!("g{i}/{o}").as_bytes())
                .unwrap();
        }
    }
    for i in 0..sizes.len() {
        let mut batch = MembershipBatch::new();
        batch.remove(format!("g{i}-u0"));
        let outcome = fixture
            .admin()
            .apply_batch(&format!("g{i}"), &batch)
            .unwrap();
        assert!(outcome.gk_rotated);
    }
    Stack { fixture }
}

/// Sweeper sessions whose every store request rolls `injector`'s schedule.
fn faulty_sweep_sessions(
    stack: &Stack,
    injector: &Arc<FaultInjector>,
    group: &str,
    shards: usize,
    seed: u64,
) -> Vec<ClientSession> {
    let clean = stack.fixture.admin().store().clone();
    let faulty: StoreHandle = FaultyStore::with_injector(clean, Arc::clone(injector)).into();
    fleet_sweep_sessions_on(&stack.fixture, faulty, SWEEPER, group, shards, seed)
}

/// Fault-free dedicated one-group fleets (a worker per shard): the
/// migrated-total baseline the faulted fleet must reproduce exactly.
fn baseline_migrated(sizes: &[usize], shards: usize, seed: u64) -> Vec<usize> {
    let stack = build_stack(sizes, shards, seed);
    sizes
        .iter()
        .enumerate()
        .map(|(i, &expected)| {
            let mut dedicated = SweepScheduler::new(FleetConfig {
                workers: shards,
                ..FleetConfig::default()
            });
            let id = dedicated.register(SweepTask::new(
                fleet_sweep_sessions(&stack.fixture, SWEEPER, &format!("g{i}"), shards, 0xd0),
                SweepConfig::default(),
            ));
            dedicated.arm(id);
            let report = dedicated.converge_all().unwrap().groups[0].report;
            assert!(report.converged);
            assert_eq!(report.migrated, expected);
            report.migrated
        })
        .collect()
}

/// 3 + 4: every object readable with its exact plaintext by a member,
/// none readable by the revoked identity.
fn assert_no_loss_no_leak(stack: &Stack, sizes: &[usize], shards: usize) {
    for (i, &objects) in sizes.iter().enumerate() {
        let group = format!("g{i}");
        let mut member = fleet_session(&stack.fixture, WRITER, &group, shards, 0xbeef);
        let mut revoked =
            fleet_session(&stack.fixture, &format!("g{i}-u0"), &group, shards, 0xdead);
        for o in 0..objects {
            let name = format!("obj-{o:03}");
            assert_eq!(
                member.read(&name).unwrap(),
                format!("g{i}/{o}").into_bytes(),
                "object {name} of {group} lost or corrupted"
            );
            assert!(
                revoked.read(&name).is_err(),
                "revoked member still reads {name} of {group}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn any_fault_schedule_converges_with_zero_loss(
        seed: u64,
        fault_seed: u64,
        groups in 1usize..=3,
        workers in 1usize..=3,
        shards in 1usize..=2,
        timeout_pct in 0u32..=25,
        outage_permille in 0u32..=20,
        torn_poll_pct in 0u32..=50,
        cas_storm_pct in 0u32..=25,
    ) {
        let _untraced = untraced();
        let mut sizes = vec![0usize; groups];
        for (i, s) in sizes.iter_mut().enumerate() {
            *s = 2 + (seed as usize >> (4 * i)) % 5;
        }
        let expected = baseline_migrated(&sizes, shards, seed);

        let stack = build_stack(&sizes, shards, seed);
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            seed: fault_seed,
            domains: 4,
            timeout_prob: f64::from(timeout_pct) / 100.0,
            outage_prob: f64::from(outage_permille) / 1000.0,
            outage: Duration::from_millis(10),
            torn_poll_prob: f64::from(torn_poll_pct) / 100.0,
            cas_storm_prob: f64::from(cas_storm_pct) / 100.0,
        }));
        let mut scheduler = SweepScheduler::new(FleetConfig {
            workers,
            lease: 3,
            max_passes: 64,
            // the schedule keeps firing for the whole run, so allow far
            // more lost leases than the production default
            max_retries: 64,
        });
        for i in 0..groups {
            scheduler.register(SweepTask::new(
                faulty_sweep_sessions(&stack, &injector, &format!("g{i}"), shards, 0x5a),
                SweepConfig::default(),
            ));
        }
        for i in 0..groups {
            scheduler.arm(i);
        }

        // 1. the run completes and converges under live fault injection
        let report = scheduler.converge_all().unwrap();
        prop_assert!(report.total.converged);
        prop_assert_eq!(report.groups.len(), groups);

        // 2. identical migrated totals to the fault-free baseline
        for (i, &expect) in expected.iter().enumerate() {
            let g = report.group(&format!("g{i}")).unwrap();
            prop_assert!(g.report.converged, "g{} converged", i);
            prop_assert!(
                g.report.migrated == expect,
                "g{} migrated {} objects, fault-free baseline migrated {}",
                i, g.report.migrated, expect
            );
        }

        // a re-queued lease must carry its cause
        let noted = report.leases.iter().filter(|l| l.failure.is_some()).count() as u64;
        prop_assert_eq!(report.retries, noted);

        // 3 + 4, via clean-handle sessions
        injector.heal();
        assert_no_loss_no_leak(&stack, &sizes, shards);
    }
}

/// The span/counter consistency gate: a collector scoped to a faulted run
/// must reconcile with the clean store's own counters (span placement
/// mirrors metric placement exactly) and with the injector's tally (one
/// `fault.*` event per injection decision). `store.poll` spans are outside
/// the gate — polling is a liveness mechanism, not accounted work.
fn assert_trace_reconciles(
    collector: &telemetry::Collector,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    stats: &FaultStats,
) {
    let spans = collector.spans();
    let span_count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    // the store records a get — single or multi — only when it hits; the
    // span records both outcomes and flags which one happened
    let hits = |name: &str| {
        spans
            .iter()
            .filter(|s| {
                s.name == name && s.field("hit").and_then(telemetry::Value::as_bool) == Some(true)
            })
            .count() as u64
    };
    for (label, got, want) in [
        (
            "store.put",
            span_count("store.put"),
            after.puts - before.puts,
        ),
        (
            "store.put_many",
            span_count("store.put_many"),
            after.puts_batched - before.puts_batched,
        ),
        (
            "store.delete",
            span_count("store.delete"),
            after.deletes - before.deletes,
        ),
        (
            "store.cas",
            span_count("store.cas"),
            (after.cas_puts + after.cas_conflicts) - (before.cas_puts + before.cas_conflicts),
        ),
        (
            "store.get[hit] + store.get_many[hit]",
            hits("store.get") + hits("store.get_many"),
            after.gets - before.gets,
        ),
        (
            "fault.unavailable",
            collector.event_count("fault.unavailable"),
            stats.unavailable,
        ),
        (
            "fault.timeout",
            collector.event_count("fault.timeout"),
            stats.timeouts,
        ),
        (
            "fault.torn_poll",
            collector.event_count("fault.torn_poll"),
            stats.torn_polls,
        ),
        (
            "fault.cas_storm",
            collector.event_count("fault.cas_storm"),
            stats.cas_conflicts,
        ),
        (
            "fault.panic",
            collector.event_count("fault.panic"),
            stats.panics,
        ),
    ] {
        assert_eq!(got, want, "{label} spans/events vs the counter delta");
    }
    // causality: every store-lane execution ran under some lease's (or
    // session's) request id — the chain a trace viewer groups by
    let mut lanes = spans.iter().filter(|s| s.name == "store.lane").peekable();
    assert!(lanes.peek().is_some(), "the run crossed no submit lane");
    assert!(
        lanes.all(|s| s.rid != 0),
        "every store.lane span carries a request id"
    );
}

/// The traced run: the canned fault schedule plus one armed worker panic
/// over the crash-safety stack below, with a [`telemetry::Collector`]
/// scoped to exactly the fleet's life (setup traffic excluded).
#[test]
fn a_faulted_fleet_run_reconciles_its_trace_with_counters_and_injector_stats() {
    let _traced = TRACED_RUN.write().unwrap_or_else(PoisonError::into_inner);
    let sizes = [5usize, 4];
    let shards = 2;
    let stack = build_stack(&sizes, shards, 0xc4a5);
    let clean = stack.fixture.admin().store().clone();
    let injector = Arc::new(FaultInjector::new(FaultConfig::canned(42, 4)));
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        lease: 2,
        // the schedule keeps firing for the whole run
        max_retries: 256,
        ..FleetConfig::default()
    });

    let collector = Arc::new(telemetry::Collector::new());
    let installed = telemetry::install(Arc::clone(&collector) as Arc<dyn telemetry::Subscriber>);
    let before = clean.metrics();
    for i in 0..sizes.len() {
        scheduler.register(SweepTask::new(
            faulty_sweep_sessions(&stack, &injector, &format!("g{i}"), shards, 0x5a),
            SweepConfig::default(),
        ));
        scheduler.arm(i);
    }
    injector.arm_panic(6);
    let report = scheduler.converge_all().unwrap();
    // a sweep only GETs and CASes, on its workers' own threads: one of
    // every other accounted verb and one pipelined write across a submit
    // lane, so that no gate compares zero with zero
    clean.put("probe", "a", b"x".to_vec());
    clean.put_many("probe", [("b".to_string(), b"y".to_vec())]);
    clean.try_get_many("probe", vec!["b".to_string()]).unwrap();
    clean.delete("probe", "a");
    let mut piped =
        PipelinedSession::new(fleet_session(&stack.fixture, WRITER, "g0", shards, 0x77), 4);
    piped.write("obj-lane", b"z").unwrap();
    piped.flush().unwrap();
    let after = clean.metrics();
    drop(installed);

    let stats = injector.stats();
    assert!(report.total.converged, "the traced run converged");
    assert_eq!(stats.panics, 1, "the armed panic fired");
    assert_trace_reconciles(&collector, &before, &after, &stats);
}

/// The crash-safety acceptance case: a sweep worker panics mid-pass (a
/// one-shot fault armed inside the injector), and the fleet must contain
/// it — the unit is re-leased under the same stamp, the run converges,
/// migrated totals equal the fault-free baseline, and nothing is lost.
#[test]
fn a_mid_pass_worker_panic_requeues_the_unit_and_loses_nothing() {
    let _untraced = untraced();
    let sizes = [5usize, 4];
    let shards = 2;
    let seed = 0xc4a5;
    let expected = baseline_migrated(&sizes, shards, seed);

    let stack = build_stack(&sizes, shards, seed);
    // a quiet schedule: the only fault in the run is the armed panic
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 7,
        domains: 4,
        ..FaultConfig::default()
    }));
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        lease: 2,
        ..FleetConfig::default()
    });
    for i in 0..sizes.len() {
        scheduler.register(SweepTask::new(
            faulty_sweep_sessions(&stack, &injector, &format!("g{i}"), shards, 0x5a),
            SweepConfig::default(),
        ));
        scheduler.arm(i);
    }

    // fire a few requests into the first lease's pass: the worker dies
    // between a scan and its migrations, with the pass half-done
    injector.arm_panic(6);
    let report = scheduler.converge_all().unwrap();

    assert_eq!(injector.stats().panics, 1, "the armed panic fired");
    assert!(report.retries >= 1, "the lost lease was re-queued");
    let note = report
        .leases
        .iter()
        .find_map(|l| l.failure.as_ref())
        .expect("the lost lease carries a failure note");
    assert!(
        note.contains("panic"),
        "failure note names the panic: {note}"
    );

    // the fleet still converges to exactly the fault-free totals
    assert!(report.total.converged);
    for (i, &expect) in expected.iter().enumerate() {
        let g = report.group(&format!("g{i}")).unwrap();
        assert!(g.report.converged, "g{i} converged despite the panic");
        assert_eq!(g.report.migrated, expect, "g{i} migrated total");
    }
    assert_no_loss_no_leak(&stack, &sizes, shards);
}

/// A store that never recovers must not wedge the run: with every request
/// refused, the unit burns its retry budget, retires unconverged, and
/// `converge_all` still returns (with the failure on the record) instead
/// of spinning or aborting.
#[test]
fn a_dead_store_retires_the_unit_instead_of_wedging_the_run() {
    let _untraced = untraced();
    let sizes = [3usize];
    let shards = 1;
    let stack = build_stack(&sizes, shards, 0x0dd);
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 3,
        domains: 1,
        timeout_prob: 1.0, // every request fails, forever
        ..FaultConfig::default()
    }));
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        max_retries: 3,
        ..FleetConfig::default()
    });
    scheduler.register(SweepTask::new(
        faulty_sweep_sessions(&stack, &injector, "g0", shards, 0x5a),
        SweepConfig::default(),
    ));
    scheduler.arm(0);

    let report = scheduler.converge_all().unwrap();
    assert!(!report.total.converged, "a dead store cannot converge");
    let g = report.group("g0").unwrap();
    assert!(!g.report.converged);
    assert_eq!(
        g.retries, 4,
        "max_retries lost leases, then the capping one"
    );
    assert!(report.leases.iter().any(|l| l.failure.is_some()));

    // the objects are merely stale, not lost: heal and re-run
    injector.heal();
    scheduler.arm(0);
    let report = scheduler.converge_all().unwrap();
    assert!(report.total.converged, "recovery converges the backlog");
    assert_no_loss_no_leak(&stack, &sizes, shards);
}

/// Eager revocation fails closed: when the synchronous sweep cannot
/// converge (the store is down for the sweepers across the whole call),
/// the group's report says so — the revoked member still reads the old
/// objects. The batch stays applied, the report yields no compaction
/// floor, and after the outage the caller re-arms the task and one
/// `converge_all` finishes the job.
#[test]
fn an_eager_revocation_across_an_outage_fails_closed_and_recovers() {
    let _untraced = untraced();
    let sizes = [4usize];
    let shards = 2;
    let stack = build_stack(&sizes, shards, 0xea6e);
    let admin = stack.fixture.admin();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 5,
        domains: 1,
        timeout_prob: 1.0, // the sweepers' store is dead until healed
        ..FaultConfig::default()
    }));
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        max_retries: 2,
        ..FleetConfig::default()
    });
    scheduler.register(SweepTask::new(
        faulty_sweep_sessions(&stack, &injector, "g0", shards, 0x5a),
        SweepConfig::default(),
    ));
    // the victim derives its ring while still a member
    let mut victim = fleet_session(&stack.fixture, "g0-u1", "g0", shards, 0xbad);
    victim.read("obj-000").unwrap();
    let epochs_before = admin.metadata("g0").unwrap().key_history.epoch_count();

    // the eager sequence: re-key, arm, converge
    let mut batch = MembershipBatch::new();
    batch.remove("g0-u1");
    assert!(admin.apply_batch("g0", &batch).unwrap().gk_rotated);
    scheduler.arm(0);
    let run = scheduler.converge_all().unwrap();
    let own = run.group("g0").expect("an armed task is reported");
    assert!(own.error.is_none(), "{own:?}");
    let report = own.report;
    assert!(
        !report.converged && report.migrated == 0,
        "an unconverged eager sweep is not a successful revocation"
    );
    assert_eq!(report.compaction_floor(), None, "nothing may be pruned");
    // the batch was applied (one more retired epoch), nothing was pruned,
    // and the lazy window is still open — which is why success would be a
    // lie
    assert_eq!(
        admin.metadata("g0").unwrap().key_history.epoch_count(),
        epochs_before + 1
    );
    assert!(victim.read("obj-000").is_ok(), "the old objects are stale");

    // the outage ends: the caller re-arms, and one more fleet run closes
    // the window
    injector.heal();
    scheduler.arm(0);
    let recovered = scheduler.converge_all().unwrap();
    assert!(recovered.total.converged);
    assert_eq!(recovered.group("g0").unwrap().report.migrated, sizes[0]);
    for o in 0..sizes[0] {
        assert!(
            victim.read(&format!("obj-{o:03}")).is_err(),
            "the revoked member must be locked out of obj-{o:03}"
        );
    }
    assert_no_loss_no_leak(&stack, &sizes, shards);
}

/// One group's fatal error stays in that group: two groups share a
/// 2-worker fleet, both rotated, and the sweeper is also revoked from
/// `g0`. The first `converge_all` converges `g1` and reports `NotAMember`
/// for `g0` alone — in `g0`'s report and in one `fleet.task_failed` event
/// — and `g0` stays armed; once the sweeper is back in `g0`, the next run
/// converges it.
#[test]
fn a_fatal_error_in_one_group_leaves_the_other_converged() {
    let _traced = TRACED_RUN.write().unwrap_or_else(PoisonError::into_inner);
    let sizes = [4usize, 4];
    let shards = 2;
    let stack = build_stack(&sizes, shards, 0x61);
    let mut scheduler = SweepScheduler::new(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    });
    for i in 0..sizes.len() {
        scheduler.register(SweepTask::new(
            fleet_sweep_sessions(&stack.fixture, SWEEPER, &format!("g{i}"), shards, 0x62),
            SweepConfig::default(),
        ));
    }
    let mut batch = MembershipBatch::new();
    batch.remove(SWEEPER);
    stack.fixture.admin().apply_batch("g0", &batch).unwrap();
    scheduler.arm_all();

    let collector = Arc::new(telemetry::Collector::new());
    let installed = telemetry::install(Arc::clone(&collector) as Arc<dyn telemetry::Subscriber>);
    let report = scheduler.converge_all().unwrap();
    drop(installed);

    let g1 = report.group("g1").unwrap();
    assert!(g1.report.converged && g1.error.is_none(), "{g1:?}");
    assert_eq!(g1.report.migrated, sizes[1]);
    let g0 = report.group("g0").unwrap();
    assert!(
        matches!(&g0.error, Some(DataError::Acs(AcsError::NotAMember(who))) if who == SWEEPER),
        "{:?}",
        g0.error
    );
    assert!(!g0.report.converged && !report.total.converged);
    assert!(scheduler.is_armed(0) && !scheduler.is_armed(1));
    let failures: Vec<_> = collector
        .events()
        .into_iter()
        .filter(|e| e.name == "fleet.task_failed")
        .collect();
    assert_eq!(failures.len(), 1, "{failures:?}");
    let field = |name| failures[0].field(name).and_then(telemetry::Value::as_str);
    assert_eq!(field("group"), Some("g0"));
    assert!(field("error").is_some_and(|e| e.contains(SWEEPER)));

    let mut batch = MembershipBatch::new();
    batch.add(SWEEPER);
    stack.fixture.admin().apply_batch("g0", &batch).unwrap();
    let report = scheduler.converge_all().unwrap();
    assert_eq!(report.completion_order(), vec!["g0"]);
    let g0 = report.group("g0").unwrap();
    assert!(g0.report.converged && g0.error.is_none(), "{g0:?}");
    assert_eq!(g0.report.migrated, sizes[0]);
    assert!(!scheduler.is_armed(0));
    assert_no_loss_no_leak(&stack, &sizes, shards);
}

// --- pipelined writer under faults ---------------------------------------

/// One group of three members plus the service identities — the pipelined
/// fault cases need a writable group, not the full multi-group stack.
fn writer_fixture(seed: u64) -> FleetFixture {
    FleetFixture::new(
        CloudStore::new(),
        PartitionSize::new(2).unwrap(),
        &[(
            "g0".to_string(),
            (0..3).map(|m| format!("g0-u{m}")).collect(),
        )],
        &[WRITER.to_string(), SWEEPER.to_string()],
        seed,
    )
    .unwrap()
}

/// A pipelined writer whose every store request rolls `injector`'s
/// schedule, while the fixture's admin keeps a clean handle.
fn pipelined_writer(
    fixture: &FleetFixture,
    injector: &Arc<FaultInjector>,
    window: usize,
    retry: RetryPolicy,
) -> PipelinedSession {
    let clean = fixture.admin().store().clone();
    let faulty: StoreHandle = FaultyStore::with_injector(clean, Arc::clone(injector)).into();
    let session = fleet_session_on(fixture, faulty, WRITER, "g0", 1, 0x9a).with_retry_policy(retry);
    PipelinedSession::new(session, window)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Request-level faults striking mid-window (timeouts, spurious CAS
    /// conflicts, torn polls) never lose or duplicate a completed
    /// pipelined write: the retry budget absorbs the schedule, the
    /// writes/coalesced accounting matches the enqueued ops exactly, and
    /// a clean serial session reads every object's final payload.
    #[test]
    fn pipelined_writes_survive_request_level_faults(
        seed: u64,
        fault_seed: u64,
        timeout_pct in 0u32..=8,
        cas_storm_pct in 0u32..=12,
        torn_poll_pct in 0u32..=50,
    ) {
        let _untraced = untraced();
        const OBJECTS: usize = 6;
        const ROUNDS: usize = 3;
        let fixture = writer_fixture(seed);
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            seed: fault_seed,
            domains: 1,
            timeout_prob: f64::from(timeout_pct) / 100.0,
            cas_storm_prob: f64::from(cas_storm_pct) / 100.0,
            torn_poll_prob: f64::from(torn_poll_pct) / 100.0,
            ..FaultConfig::default()
        }));
        let retry = RetryPolicy { attempts: 6, backoff: Duration::from_millis(1) };
        let mut p = pipelined_writer(&fixture, &injector, 4, retry);
        for r in 0..ROUNDS {
            for o in 0..OBJECTS {
                p.write(&format!("obj-{o:03}"), format!("{o}@{r}").as_bytes()).unwrap();
            }
        }
        p.flush().unwrap();
        let m = p.metrics();
        prop_assert_eq!(m.writes + m.coalesced_writes, (OBJECTS * ROUNDS) as u64);
        prop_assert!(injector.stats().requests > 0);

        injector.heal();
        let mut verifier = fleet_session(&fixture, WRITER, "g0", 1, 0xfee1);
        for o in 0..OBJECTS {
            prop_assert_eq!(
                verifier.read(&format!("obj-{o:03}")).unwrap(),
                format!("{o}@{}", ROUNDS - 1).into_bytes()
            );
        }
    }
}

#[test]
fn a_forced_outage_mid_window_loses_no_write() {
    let _untraced = untraced();
    let fixture = writer_fixture(0xace);
    let injector = Arc::new(FaultInjector::new(FaultConfig::default()));
    let retry = RetryPolicy {
        attempts: 4,
        backoff: Duration::from_millis(10),
    };
    let mut p = pipelined_writer(&fixture, &injector, 4, retry);

    // a completed write before the outage — must survive untouched
    p.write("obj-000", b"pre-outage").unwrap();
    p.flush().unwrap();

    // everything submitted during the outage fails at submission and
    // retries on the 10/20/40ms backoff schedule, which outlasts it
    injector.force_outage(0, Duration::from_millis(25));
    for o in 0..4 {
        p.write(&format!("obj-{o:03}"), format!("final-{o}").as_bytes())
            .unwrap();
    }
    p.flush().unwrap();
    injector.heal();

    let m = p.metrics();
    assert_eq!(m.writes + m.coalesced_writes, 5);
    let mut verifier = fleet_session(&fixture, WRITER, "g0", 1, 0xfee2);
    for o in 0..4 {
        assert_eq!(
            verifier.read(&format!("obj-{o:03}")).unwrap(),
            format!("final-{o}").into_bytes(),
            "write lost across the outage"
        );
    }
}
