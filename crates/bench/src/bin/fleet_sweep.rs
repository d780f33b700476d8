//! Fleet sweep: G groups' lazy-window convergence on one shared W-worker
//! fleet vs G dedicated one-group fleets vs a serial baseline.
//!
//! The multi-tenant trace deals every tenant a revocation wave (skewed
//! sizes, skewed churn), leaving each group's whole namespace stale. Three
//! identically seeded deployments then converge it — the same driver
//! (`SweepScheduler`) every time, only the way the groups are spread over
//! fleets differs:
//!
//! * **serial** — G one-group fleets (a worker per data shard), run one
//!   after another in staleness order: the no-sharing floor.
//! * **dedicated** — the same G one-group fleets, all running
//!   concurrently: the per-group answer, costing G × shards threads.
//! * **shared** — one G-group fleet with W workers serving every group in
//!   staleness-priority order: the fleet answer, costing W threads.
//!
//! The store has no synthetic latency, so the work is compute-bound
//! (re-encryption): the shared fleet's claim is converge-all wall-clock
//! parity (within 1.5x of dedicated) at a fraction of the threads, plus
//! staleness ordering — the most-behind group finishes its backlog before
//! the freshest one. Both are asserted; `--check` additionally gates
//! against the serial baseline (the per-PR CI smoke).
//!
//! `--faults SEED` adds a fourth, gated run: the same shared fleet, but
//! every sweeper request routed through a seed-driven [`FaultyStore`]
//! (canned outage/timeout/torn-poll/CAS-storm schedule) with one worker
//! panic armed mid-run. The crash-safety claim is zero lost work: the
//! faulted fleet must converge with exactly the fault-free migrated
//! totals — `--check` makes this the CI gate.
//!
//! With `--trace PATH` the whole run's telemetry (every span and event,
//! request ids threaded causally from lease grant through store lane to
//! fault decision) is exported as Chrome-trace JSON. A `--faults` run
//! additionally scopes a [`telemetry::Collector`] to the faulted fleet and
//! reconciles its spans with the store's own counters and the injector's
//! stats — the span/counter consistency gate `--check` relies on in CI.
//!
//! Flags: `--groups G`, `--workers W`, `--ops N` (base objects),
//! `--full`, `--faults SEED`, `--json PATH`, `--trace PATH`, `--check`.

use acs::FleetFixture;
use cloud_store::{
    CloudStore, FaultConfig, FaultInjector, FaultStats, FaultyStore, MetricsSnapshot, ObjectStore,
    StoreHandle,
};
use dataplane::fixtures::{fleet_session, fleet_sweep_sessions_on};
use dataplane::{FleetConfig, FleetReport, SweepConfig, SweepScheduler, SweepTask};
use ibbe_sgx_bench::json::{fault_stats_row, write_results, Json};
use ibbe_sgx_bench::{fmt_duration, print_table, time, BenchArgs};
use ibbe_sgx_core::{MembershipBatch, PartitionSize};
use std::sync::Arc;
use std::time::Duration;
use workloads::{generate_fleet, FleetTrace, FleetTraceConfig};

const WRITER: &str = "writer";
const SWEEPER: &str = "sweeper";

/// One identically seeded deployment: admin over all tenant groups, every
/// tenant's objects written, the revocation wave applied.
struct Stack {
    fixture: FleetFixture,
}

fn build_stack(trace: &FleetTrace, shards: usize, payload: usize, seed: u64) -> Stack {
    let specs: Vec<(String, Vec<String>)> = trace
        .tenants
        .iter()
        .map(|t| (t.group.clone(), t.members.clone()))
        .collect();
    let fixture = FleetFixture::new(
        CloudStore::new(),
        PartitionSize::new(4).unwrap(),
        &specs,
        &[WRITER.to_string(), SWEEPER.to_string()],
        seed,
    )
    .expect("fleet fixture");
    let body = vec![0xd5u8; payload];
    for (i, tenant) in trace.tenants.iter().enumerate() {
        let mut writer = fleet_session(&fixture, WRITER, &tenant.group, shards, seed ^ i as u64);
        for o in 0..tenant.objects {
            writer.write(&format!("obj-{o:06}"), &body).unwrap();
        }
    }
    // the wave: every tenant's skewed share of revocations, each one an
    // O(1) lazy rotation (zero object writes — that is the point)
    for tenant in &trace.tenants {
        for victim in 0..tenant.revocations {
            let mut batch = MembershipBatch::new();
            batch.remove(tenant.members[victim].clone());
            let outcome = fixture.admin().apply_batch(&tenant.group, &batch).unwrap();
            assert!(outcome.gk_rotated);
        }
    }
    Stack { fixture }
}

struct ModeResult {
    wall: Duration,
    threads: usize,
    migrated: usize,
    per_group: Vec<Duration>,
    worst_overshoot: Duration,
}

/// One armed fleet per entry of `layout` (the tenants, by index, that fleet
/// serves — registered and armed in the order given, so the first listed
/// is the stalest), its sweeper sessions routed through `store`.
fn build_fleets(
    trace: &FleetTrace,
    stack: &Stack,
    store: &StoreHandle,
    shards: usize,
    sweep: SweepConfig,
    config: FleetConfig,
    layout: &[Vec<usize>],
) -> Vec<SweepScheduler> {
    layout
        .iter()
        .map(|tenants| {
            let mut fleet = SweepScheduler::new(config);
            for &idx in tenants {
                let task = fleet.register(SweepTask::new(
                    fleet_sweep_sessions_on(
                        &stack.fixture,
                        store.clone(),
                        SWEEPER,
                        &trace.tenants[idx].group,
                        shards,
                        0x5a7ed,
                    ),
                    sweep,
                ));
                fleet.arm(task);
            }
            fleet
        })
        .collect()
}

/// Converges every fleet — all at once on a thread each when `concurrent`,
/// else one after another — and checks that each tenant converged with
/// its whole namespace migrated (and its metrics attributed to it).
fn converge(
    trace: &FleetTrace,
    fleets: &mut [SweepScheduler],
    concurrent: bool,
) -> (ModeResult, Vec<FleetReport>) {
    let width = fleets[0].config().workers;
    let threads = if concurrent {
        fleets.len() * width
    } else {
        width
    };
    let (reports, wall): (Vec<FleetReport>, _) = time(|| {
        if concurrent {
            std::thread::scope(|scope| {
                let handles: Vec<_> = fleets
                    .iter_mut()
                    .map(|fleet| scope.spawn(move || fleet.converge_all().unwrap()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a fleet run panicked"))
                    .collect()
            })
        } else {
            fleets
                .iter_mut()
                .map(|fleet| fleet.converge_all().unwrap())
                .collect()
        }
    });
    let tenant_of = |group: &str| {
        let idx = trace.tenants.iter().position(|t| t.group == group);
        idx.expect("a swept group is a tenant")
    };
    let mut per_group = vec![Duration::ZERO; trace.tenants.len()];
    let mut migrated = 0usize;
    let mut completed = 0usize;
    for g in reports.iter().flat_map(|r| &r.groups) {
        let idx = tenant_of(&g.group);
        assert!(g.report.converged, "tenant {idx} converged");
        assert_eq!(
            g.report.migrated, trace.tenants[idx].objects,
            "tenant {idx} migrated its whole namespace, no more, no less"
        );
        migrated += g.report.migrated;
        per_group[idx] = g.report.elapsed;
        completed += 1;
    }
    assert_eq!(
        completed,
        trace.tenants.len(),
        "every armed tenant completes"
    );
    // per-group metrics attribution agrees with the reports
    for (group, metrics) in fleets.iter().flat_map(|f| f.metrics().by_group) {
        assert_eq!(
            metrics.migrations,
            trace.tenants[tenant_of(&group)].objects as u64,
            "metrics attribute {group}'s migrations to it"
        );
    }
    let worst_overshoot = reports
        .iter()
        .map(FleetReport::worst_overshoot)
        .max()
        .unwrap_or(Duration::ZERO);
    (
        ModeResult {
            wall,
            threads,
            migrated,
            per_group,
            worst_overshoot,
        },
        reports,
    )
}

/// The span/counter consistency gate: the collector scoped to the faulted
/// run must reconcile with the store's own counters (span placement mirrors
/// metric placement exactly) and with the injector's fault tally (one
/// `fault.*` event per injection decision). `store.poll` spans are outside
/// the gate — polling is a liveness mechanism, not accounted work.
fn check_trace_consistency(
    collector: &telemetry::Collector,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    stats: &FaultStats,
) {
    let spans = collector.spans();
    let span_count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u64;
    let gate = |label: &str, got: u64, want: u64| {
        assert_eq!(
            got, want,
            "telemetry gate: {label} spans/events must match the counter delta"
        );
    };
    gate(
        "store.put",
        span_count("store.put"),
        after.puts - before.puts,
    );
    gate(
        "store.put_many",
        span_count("store.put_many"),
        after.puts_batched - before.puts_batched,
    );
    gate(
        "store.delete",
        span_count("store.delete"),
        after.deletes - before.deletes,
    );
    gate(
        "store.cas",
        span_count("store.cas"),
        (after.cas_puts + after.cas_conflicts) - (before.cas_puts + before.cas_conflicts),
    );
    // the store records a get only when it hits; the span records both
    // outcomes and flags which one happened
    let get_hits = spans
        .iter()
        .filter(|s| {
            s.name == "store.get"
                && s.field("hit").and_then(telemetry::Value::as_bool) == Some(true)
        })
        .count() as u64;
    gate("store.get[hit]", get_hits, after.gets - before.gets);
    gate(
        "fault.unavailable",
        collector.event_count("fault.unavailable"),
        stats.unavailable,
    );
    gate(
        "fault.timeout",
        collector.event_count("fault.timeout"),
        stats.timeouts,
    );
    gate(
        "fault.torn_poll",
        collector.event_count("fault.torn_poll"),
        stats.torn_polls,
    );
    gate(
        "fault.cas_storm",
        collector.event_count("fault.cas_storm"),
        stats.cas_conflicts,
    );
    gate(
        "fault.panic",
        collector.event_count("fault.panic"),
        stats.panics,
    );
    // causality: every store-lane execution ran under some lease's (or
    // session's) request id — the chain a trace viewer groups by
    let orphan_lanes = spans
        .iter()
        .filter(|s| s.name == "store.lane" && s.rid == 0)
        .count();
    assert_eq!(
        orphan_lanes, 0,
        "telemetry gate: every store.lane span carries a request id"
    );
    println!(
        "telemetry gate: {} spans / {} events reconcile with store counters and \
         injector stats",
        spans.len(),
        collector.events().len(),
    );
}

fn main() {
    let args = BenchArgs::parse();
    let (groups, base_objects, payload, shards, workers, max_revocations) = if args.full {
        (32, 160, 4096, 4, 8, 5)
    } else {
        (12, 40, 256, 2, 4, 3)
    };
    let groups = args.groups.unwrap_or(groups).max(1);
    let workers = args.workers.unwrap_or(workers).max(1);
    let base_objects = args.ops.unwrap_or(base_objects).max(1);
    // --trace: capture the whole run (all four modes) as Chrome-trace JSON
    let trace_ctx = args.trace_writer();
    let sweep = SweepConfig {
        deadline: Duration::from_secs(60),
    };
    let fleet = FleetConfig {
        workers,
        ..FleetConfig::default()
    };
    // a dedicated fleet serves one group with a worker per data shard
    let per_group = FleetConfig {
        workers: shards,
        ..fleet
    };

    let trace = generate_fleet(&FleetTraceConfig {
        groups,
        base_objects,
        members_per_group: max_revocations + 3,
        max_revocations,
        seed: 0xf1ee7,
    });
    println!(
        "fleet sweep: {} groups ({} objects, {} rotations total, {payload}B payloads, \
         {shards} data shards/group), shared fleet of {workers} workers vs {} dedicated \
         fleet threads vs serial",
        groups,
        trace.total_objects(),
        trace.total_revocations(),
        groups * shards,
    );

    // the groups in staleness order, each on a fleet of its own / all on one
    let solo: Vec<Vec<usize>> = trace.arm_order.iter().map(|&idx| vec![idx]).collect();
    let together = [trace.arm_order.clone()];
    let run = |config: FleetConfig, layout: &[Vec<usize>], concurrent: bool| {
        let stack = build_stack(&trace, shards, payload, 7);
        let store = stack.fixture.admin().store().clone();
        let mut fleets = build_fleets(&trace, &stack, &store, shards, sweep, config, layout);
        converge(&trace, &mut fleets, concurrent)
    };
    let (serial, _) = run(per_group, &solo, false);
    let (dedicated, _) = run(per_group, &solo, true);
    let (shared, mut shared_reports) = run(fleet, &together, false);
    let fleet_report = shared_reports.remove(0);
    // the crash-safety run: the same shared fleet, with every sweeper
    // request rolled through a seeded fault schedule and one worker panic
    // armed mid-run. `converge` asserts it reaches exactly the fault-free
    // totals — faults cost leases and wall-clock, never work.
    let faulted = args.faults.map(|fault_seed| {
        let stack = build_stack(&trace, shards, payload, 7);
        let clean = stack.fixture.admin().store().clone();
        let injector = Arc::new(FaultInjector::new(FaultConfig::canned(fault_seed, 4)));
        let faulty: StoreHandle =
            FaultyStore::with_injector(clean.clone(), Arc::clone(&injector)).into();
        // the schedule keeps firing for the whole run: allow far more lost
        // leases per unit than the production default
        let config = FleetConfig {
            max_retries: 256,
            ..fleet
        };
        // scope a collector to exactly the faulted fleet run (setup traffic
        // excluded), teeing into the whole-run trace writer when present
        let collector = Arc::new(telemetry::Collector::new());
        let gate_guard = match &trace_ctx {
            Some((w, _)) => telemetry::install(Arc::new(telemetry::Tee::new(vec![
                Arc::clone(w) as Arc<dyn telemetry::Subscriber>,
                Arc::clone(&collector) as Arc<dyn telemetry::Subscriber>,
            ]))),
            None => telemetry::install(Arc::clone(&collector) as Arc<dyn telemetry::Subscriber>),
        };
        let before = clean.metrics();
        let mut fleets = build_fleets(&trace, &stack, &faulty, shards, sweep, config, &together);
        // on top of the probabilistic schedule, one worker dies mid-run
        injector.arm_panic(64);
        let (mode, mut reports) = converge(&trace, &mut fleets, false);
        let after = clean.metrics();
        drop(gate_guard);
        let (report, stats) = (reports.remove(0), injector.stats());
        assert_eq!(stats.panics, 1, "the armed worker panic fired");
        assert!(
            report.retries >= 1,
            "the panicked lease was re-queued on the record"
        );
        check_trace_consistency(&collector, &before, &after, &stats);
        (mode, report, stats)
    });

    // staleness-priority ordering: the most-behind group finished its
    // backlog before the freshest group did
    let order = fleet_report.completion_order();
    let most_behind = &trace.tenants[trace.arm_order[0]].group;
    let freshest = &trace.tenants[*trace.arm_order.last().unwrap()].group;
    let pos = |g: &str| order.iter().position(|o| *o == g).expect("completed");
    assert!(
        pos(most_behind) < pos(freshest),
        "staleness priority: {most_behind} (stalest) must finish before {freshest} \
         (freshest); completion order {order:?}"
    );

    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64().max(1e-9);
    let mut modes: Vec<(&str, &ModeResult)> = vec![
        ("serial", &serial),
        ("dedicated", &dedicated),
        ("shared", &shared),
    ];
    if let Some((faulted_mode, _, _)) = &faulted {
        modes.push(("shared+faults", faulted_mode));
    }
    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|(mode, r)| {
            vec![
                mode.to_string(),
                format!("{}", r.threads),
                format!("{}", r.migrated),
                fmt_duration(r.wall),
                format!("{:.2}x", ratio(r.wall, dedicated.wall)),
                fmt_duration(r.worst_overshoot),
            ]
        })
        .collect();
    print_table(
        "fleet convergence: one shared W-worker fleet vs dedicated per-group fleets vs serial",
        &[
            "mode",
            "sweep threads",
            "migrated",
            "converge all",
            "vs dedicated",
            "worst overshoot",
        ],
        &rows,
    );

    let mut group_rows = Vec::new();
    for (rank, &idx) in trace.arm_order.iter().enumerate() {
        let tenant = &trace.tenants[idx];
        let g = fleet_report.group(&tenant.group).unwrap();
        group_rows.push(vec![
            tenant.group.clone(),
            format!("{}", tenant.objects),
            format!("{}", tenant.revocations),
            format!("{rank}"),
            format!("{}", pos(&tenant.group)),
            format!("{}", g.leases),
            fmt_duration(serial.per_group[idx]),
            fmt_duration(dedicated.per_group[idx]),
            fmt_duration(shared.per_group[idx]),
        ]);
    }
    print_table(
        "per group (staleness rank 0 = most behind; completion index per the shared run)",
        &[
            "group",
            "objects",
            "rotations",
            "stale rank",
            "completed#",
            "leases",
            "serial",
            "dedicated",
            "shared",
        ],
        &group_rows,
    );

    println!(
        "\nthe shared fleet serves {} groups with {} workers ({} threads saved vs \
         dedicated fleets) at {:.2}x dedicated wall-clock; leases follow staleness \
         priority, so the deepest backlog drains first while idle groups cost \
         nothing between waves.",
        groups,
        workers,
        dedicated.threads.saturating_sub(shared.threads),
        ratio(shared.wall, dedicated.wall),
    );

    assert!(
        ratio(shared.wall, dedicated.wall) <= 1.5,
        "acceptance: shared fleet must stay within 1.5x of dedicated fleets \
         (shared {:?} vs dedicated {:?})",
        shared.wall,
        dedicated.wall
    );

    if let Some((faulted_mode, faulted_report, stats)) = &faulted {
        // the printed stats line IS the archived JSON row — one schema
        println!(
            "\nfault stats: {}",
            fault_stats_row(args.faults.unwrap(), stats, faulted_report.retries)
        );
        println!(
            "faulted run converged with identical migrated totals ({} == {}) at {:.2}x \
             the clean shared wall-clock.",
            faulted_mode.migrated,
            shared.migrated,
            ratio(faulted_mode.wall, shared.wall),
        );
        // `converge`'s asserts are the gate; here only the cross-mode
        // equality remains to check
        assert_eq!(
            faulted_mode.migrated, shared.migrated,
            "faulted and clean shared runs migrated identical totals"
        );
    }

    if let Some(path) = &args.json {
        let mode_row = |mode: &str, r: &ModeResult| {
            Json::obj([
                ("table", Json::from("fleet")),
                ("mode", Json::from(mode)),
                ("threads", Json::from(r.threads)),
                ("migrated", Json::from(r.migrated)),
                ("wall_ms", Json::ms(r.wall)),
                ("vs_dedicated", Json::from(ratio(r.wall, dedicated.wall))),
                ("worst_overshoot_ms", Json::ms(r.worst_overshoot)),
            ])
        };
        let mut rows = vec![
            mode_row("serial", &serial),
            mode_row("dedicated", &dedicated),
            mode_row("shared", &shared),
        ];
        if let Some((faulted_mode, faulted_report, stats)) = &faulted {
            rows.push(mode_row("shared+faults", faulted_mode));
            rows.push(fault_stats_row(
                args.faults.unwrap(),
                stats,
                faulted_report.retries,
            ));
        }
        for (rank, &idx) in trace.arm_order.iter().enumerate() {
            let tenant = &trace.tenants[idx];
            let g = fleet_report.group(&tenant.group).unwrap();
            rows.push(Json::obj([
                ("table", Json::from("groups")),
                ("group", Json::from(tenant.group.as_str())),
                ("objects", Json::from(tenant.objects)),
                ("rotations", Json::from(tenant.revocations)),
                ("stale_rank", Json::from(rank)),
                ("completion_index", Json::from(pos(&tenant.group))),
                ("leases", Json::from(g.leases)),
                ("serial_ms", Json::ms(serial.per_group[idx])),
                ("dedicated_ms", Json::ms(dedicated.per_group[idx])),
                ("shared_ms", Json::ms(shared.per_group[idx])),
            ]));
        }
        write_results(
            path,
            "fleet_sweep",
            [
                ("full", Json::from(args.full)),
                ("groups", Json::from(groups)),
                ("workers", Json::from(workers)),
                ("data_shards", Json::from(shards)),
                ("base_objects", Json::from(base_objects)),
                ("total_objects", Json::from(trace.total_objects())),
                ("total_rotations", Json::from(trace.total_revocations())),
                ("payload", Json::from(payload)),
                ("lease", Json::from(fleet.lease)),
            ],
            rows,
        );
    }

    if let Some((writer, _)) = &trace_ctx {
        args.write_trace(writer);
    }

    if args.check {
        // coarse per-PR sanity: sharing a bounded fleet must not regress
        // below the serial floor (small headroom for 1-core CI jitter)
        assert!(
            ratio(shared.wall, serial.wall) <= 1.25,
            "--check: shared fleet slower than the serial baseline \
             (shared {:?} vs serial {:?})",
            shared.wall,
            serial.wall
        );
        if faulted.is_some() {
            println!(
                "--check passed: shared fleet within bounds of serial and dedicated; \
                 faulted fleet converged with zero lost work"
            );
        } else {
            println!("--check passed: shared fleet within bounds of serial and dedicated");
        }
    }
}
