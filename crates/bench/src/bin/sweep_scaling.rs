//! Sweep scaling over the sharded store — how the lazy window shrinks
//! with shard count.
//!
//! Identically seeded deployments at 1/2/4/8 store shards (data namespace
//! and sweep-fleet width sharded to match) each revoke one member, then
//! converge the stale namespace on a one-group `SweepScheduler` with a
//! worker per shard. Every deployment migrates the same object total;
//! wall-clock convergence time drops roughly by the shard factor because
//! each worker's round trips hit an independent shard (own clock, wait
//! queue and latency model). The round trips are chunked, not per object:
//! a pass lists each folder once, and each lease reads its objects in one
//! `GetMany` and writes the stale ones back in one conditional `PutMany`,
//! so the table also reports the store requests each migrated object
//! cost. After convergence the epoch history is compacted and the pruned
//! entry count is reported.
//!
//! The client side of the same axis — serial per-session throughput flat
//! in the shard count, pipelined throughput growing with it — is
//! `rw_scaling`'s table.
//!
//! Flags: `--shards A,B,…` (default `1,2,4,8`), `--ops N` (object-count
//! override), `--full` (paper-scale objects/payloads), `--json PATH`
//! (machine-readable series), `--check` (the highest shard count must
//! converge no slower than the lowest, and every shard count must spend at
//! most 0.1 store requests per migrated object — the per-PR CI gate).
//!
//! The request count is `MetricsSnapshot::requests()`: every round trip
//! the store served, a rejected conditional `PutMany` included. The repo
//! benchmark's `store_requests_per_op` still leaves rejected conditional
//! writes out, so the two counts differ on a run that loses CAS races.

use cloud_store::{LatencyModel, ObjectStore, ShardedStore};
use dataplane::{
    ClientSession, FleetConfig, ReencryptionPolicy, RevocationCoordinator, SweepConfig,
    SweepScheduler, SweepTask,
};
use ibbe_sgx_bench::json::{write_results, Json};
use ibbe_sgx_bench::{fmt_duration, print_table, time, BenchArgs};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionSize};
use std::time::Duration;

const GROUP: &str = "g";

/// `--check`'s ceiling on store requests per migrated object.
const MAX_REQUESTS_PER_OBJECT: f64 = 0.1;

/// One deployment's converge: shard count, wall clock, and store requests
/// per migrated object.
struct Converge {
    shards: usize,
    wall: Duration,
    requests_per_object: f64,
}

struct Deployment {
    admin: acs::Admin,
    store: ShardedStore,
    fleet: SweepScheduler,
}

fn session(admin: &acs::Admin, store: &ShardedStore, identity: &str, seed: u64) -> ClientSession {
    ClientSession::with_seed(
        identity,
        admin.engine().extract_user_key(identity).unwrap(),
        admin.engine().public_key().clone(),
        store.clone(),
        GROUP,
        seed,
    )
}

/// Boots one deployment at `shards` store shards (data folders and sweep
/// workers matched) with `objects` stored objects of `payload` bytes.
fn deploy(shards: usize, objects: usize, payload: usize, latency: LatencyModel) -> Deployment {
    let seed_bytes = [7u8; 32];
    let engine = GroupEngine::bootstrap_seeded(PartitionSize::new(4).unwrap(), seed_bytes).unwrap();
    let store = ShardedStore::with_latency(shards, latency);
    let admin = acs::Admin::new(engine, store.clone());
    let members: Vec<String> = (0..6)
        .map(|i| format!("user-{i:02}"))
        .chain(["writer".to_string(), "sweeper".to_string()])
        .collect();
    admin.create_group(GROUP, members).unwrap();
    let mut writer =
        session(&admin, &store, "writer", 0xaa ^ shards as u64).with_data_shards(shards);
    let body = vec![0xd5u8; payload];
    for i in 0..objects {
        writer.write(&format!("obj-{i:06}"), &body).unwrap();
    }
    let mut fleet = SweepScheduler::new(FleetConfig {
        workers: shards,
        lease: 64,
        ..FleetConfig::default()
    });
    fleet.register(SweepTask::new(
        (0..shards)
            .map(|w| {
                session(&admin, &store, "sweeper", 0xbb ^ ((w as u64) << 32))
                    .with_data_shards(shards)
            })
            .collect(),
        SweepConfig {
            deadline: Duration::from_secs(600),
        },
    ));
    Deployment {
        admin,
        store,
        fleet,
    }
}

fn converge_rows(
    shard_counts: &[usize],
    objects: usize,
    payload: usize,
    latency: LatencyModel,
) -> (Vec<Json>, Vec<Converge>) {
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut converges = Vec::new();
    let mut baseline = None;
    for &shards in shard_counts {
        let mut d = deploy(shards, objects, payload, latency);
        let coordinator = RevocationCoordinator::new(&d.admin, ReencryptionPolicy::Lazy)
            .with_history_compaction();
        let mut batch = MembershipBatch::new();
        batch.remove("user-00");
        let outcome = coordinator.revoke(GROUP, &batch, &mut d.fleet).unwrap();
        assert!(outcome.batch.gk_rotated && outcome.sweep.is_none());
        // prime the rings outside the timed window: the comparison is about
        // convergence I/O, not per-unit key derivation
        d.fleet.refresh().unwrap();
        let before = d.store.metrics();
        let (run, wall) = time(|| d.fleet.converge_all().unwrap());
        let served = d.store.metrics().requests() - before.requests();
        let report = run.groups[0].report;
        assert!(report.converged, "sweep must converge: {report:?}");
        assert_eq!(report.migrated, objects, "no object may be lost");
        assert_eq!(report.scanned, objects);
        let requests_per_object = served as f64 / report.migrated as f64;
        let pruned = coordinator.compact_after(GROUP, &report).unwrap();
        let speedup = match baseline {
            None => {
                baseline = Some(wall);
                1.0
            }
            Some(base) => base.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        };
        rows.push(vec![
            format!("{shards}"),
            format!("{}", report.migrated),
            fmt_duration(wall),
            format!("{speedup:.1}x"),
            format!("{requests_per_object:.3}"),
            format!("{pruned}"),
        ]);
        json_rows.push(Json::obj([
            ("table", Json::from("converge")),
            ("shards", Json::from(shards)),
            ("migrated", Json::from(report.migrated)),
            ("converge_ms", Json::ms(wall)),
            ("speedup", Json::from(speedup)),
            ("store_requests_per_object", Json::from(requests_per_object)),
            ("epochs_pruned", Json::from(pruned)),
        ]));
        converges.push(Converge {
            shards,
            wall,
            requests_per_object,
        });
    }
    print_table(
        "lazy-window convergence vs shard count (one revocation, one fleet worker per shard)",
        &[
            "shards",
            "migrated",
            "converge",
            "speedup",
            "requests/object",
            "epochs pruned",
        ],
        &rows,
    );
    (json_rows, converges)
}

fn main() {
    let args = BenchArgs::parse();
    let trace_ctx = args.trace_writer();
    let shard_counts = args.shards.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let (objects, payload, latency) = if args.full {
        (
            512,
            4096,
            LatencyModel::new(Duration::from_millis(10), Duration::ZERO)
                .with_per_item(Duration::from_micros(200)),
        )
    } else {
        // a folder pass costs at least three requests (List, GetMany,
        // PutMany), so the request gate needs folders of well over 30
        // objects: 512 objects keep 64 per folder at 8 shards
        (
            512,
            256,
            LatencyModel::new(Duration::from_millis(3), Duration::ZERO)
                .with_per_item(Duration::from_micros(100)),
        )
    };
    let objects = args.ops.unwrap_or(objects).max(1);

    println!(
        "sweep scaling on the sharded store: {objects} objects, {payload}B payloads, \
         {:?} base latency per request, shard counts {shard_counts:?}",
        latency
    );
    let (json_rows, converges) = converge_rows(&shard_counts, objects, payload, latency);
    println!(
        "\nconvergence scales with the shard count because each sweep worker's \
         round trips (one List per folder, then one GetMany and one conditional \
         PutMany per lease) hit its own shard (independent clock, wait queue and \
         latency). Client-side scaling for the same store is in `rw_scaling`."
    );

    if let Some(path) = &args.json {
        write_results(
            path,
            "sweep_scaling",
            [
                ("full", Json::from(args.full)),
                ("objects", Json::from(objects)),
                ("payload", Json::from(payload)),
                (
                    "shards",
                    Json::Arr(shard_counts.iter().map(|&s| Json::from(s)).collect()),
                ),
            ],
            json_rows,
        );
    }

    if let Some((writer, _)) = &trace_ctx {
        args.write_trace(writer);
    }

    if args.check {
        // the sweep is chunked: a folder pass costs a handful of requests
        // whatever its object count, never one or two per object
        for c in &converges {
            assert!(
                c.requests_per_object <= MAX_REQUESTS_PER_OBJECT,
                "--check: {}-shard convergence spent {:.3} store requests per migrated \
                 object (ceiling {MAX_REQUESTS_PER_OBJECT})",
                c.shards,
                c.requests_per_object
            );
        }
        println!(
            "--check passed: at most {MAX_REQUESTS_PER_OBJECT} store requests per migrated \
             object at every shard count"
        );
        // coarse per-PR sanity: the widest deployment must converge no
        // slower than the narrowest (with per-request latency it is in
        // fact ~linearly faster, so the margin is wide)
        let lo = converges
            .iter()
            .min_by_key(|c| c.shards)
            .expect("non-empty");
        let hi = converges
            .iter()
            .max_by_key(|c| c.shards)
            .expect("non-empty");
        let (lo_shards, lo, hi_shards, hi) = (lo.shards, lo.wall, hi.shards, hi.wall);
        if lo_shards < hi_shards {
            assert!(
                hi.as_secs_f64() <= lo.as_secs_f64() * 1.1,
                "--check: {hi_shards}-shard convergence ({hi:?}) slower than the \
                 {lo_shards}-shard baseline ({lo:?})"
            );
            println!(
                "--check passed: {hi_shards}-shard convergence is not slower than \
                 {lo_shards}-shard"
            );
        }
    }
}
