//! Elastic capacity: live shard resize under load vs static baselines.
//!
//! Three identically seeded deployments replay the same skewed read/write
//! trace (square-law popularity, no churn) in three barrier-separated
//! segments — *before*, *during* and *after* — through hash-partitioned
//! pipelined sessions:
//!
//! - `static-4` / `static-8`: fixed shard counts, the floor and ceiling
//!   baselines;
//! - `elastic`: starts at 4 shards and calls
//!   [`cloud_store::ShardedStore::resize`]`(8)` from a side thread while
//!   the *during* segment is replaying. The resize joins before the *after*
//!   segment starts, so the third row measures steady state behind the new
//!   routing epoch.
//!
//! Every read that errors anywhere in a run is counted, not unwrapped —
//! the cutover protocol promises zero read unavailability and the bench
//! measures the promise instead of assuming it. After the elastic run the
//! final store contents are read back serially and compared byte for byte
//! against the trace's last-write payloads ([`RwTrace::final_write_indices`]),
//! proving migration relocated objects without corrupting them. Per-shard
//! request counters and the folder/op imbalance ratios of the resized
//! store are printed from
//! [`cloud_store::ShardedStore::per_shard_metrics`] and
//! [`cloud_store::ShardedStore::imbalance`].
//!
//! Flags: `--workers N` (sessions, default 4), `--ops N` (trace-event
//! override), `--full` (larger trace + RTT), `--json PATH`, `--trace PATH`,
//! `--check` (CI gate: resize completed at 8 shards, zero read errors,
//! zero content mismatches, and elastic *after*-segment throughput ≥ 80%
//! of the static-8 *after* segment).

use cloud_store::LatencyModel;
use ibbe_sgx_bench::json::{write_results, Json};
use ibbe_sgx_bench::{
    deploy, fmt_duration, payload_for, print_table, replay_partitioned, BenchArgs, Deployment,
    Segment, PAYLOAD,
};
use std::time::Duration;
use workloads::rw::{generate_read_write, RwTrace, RwTraceConfig};

/// In-flight window per pipelined session.
const WINDOW: usize = 16;
/// Data-folder fan-out of every session. Fixed across modes (a resize
/// moves folders between shards, it cannot re-cut the folder layout
/// mid-run) and sized so 8 store shards still have folders to spread.
const DATA_FOLDERS: usize = 8;
const SEGMENTS: [&str; 3] = ["before", "during", "after"];
const FROM_SHARDS: usize = 4;
const TO_SHARDS: usize = 8;

struct ModeRun {
    segments: Vec<Segment>,
    read_errors: u64,
    deployment: Deployment,
}

/// Replays `trace` in three barrier-separated segments through the
/// deployment's pipelined clients. Deployments are identically seeded, so
/// only the shard count (and `before_segment`, the elastic mode's mid-run
/// resize) differs between measurements.
fn run_mode(deployment: Deployment, trace: &RwTrace, before_segment: impl FnMut(usize)) -> ModeRun {
    let (segments, read_errors) =
        replay_partitioned(&deployment, WINDOW, trace, SEGMENTS.len(), before_segment);
    ModeRun {
        segments,
        read_errors,
        deployment,
    }
}

/// Reads every object back serially and compares against the trace's
/// last-write payloads. Returns the number of mismatching objects.
fn verify_contents(d: &Deployment, trace: &RwTrace) -> (usize, usize) {
    let mut reader = d.session(0);
    let mut mismatches = 0;
    let final_writes = trace.final_write_indices();
    for (object, &i) in &final_writes {
        let expected = payload_for(object, i);
        match reader.read(object) {
            Ok(got) if got == expected => {}
            _ => mismatches += 1,
        }
    }
    (final_writes.len(), mismatches)
}

/// One table row + its JSON twin per (mode, segment).
fn render(
    mode: &str,
    shards_label: &str,
    seg: usize,
    run: &mut ModeRun,
) -> (Vec<String>, Json, f64) {
    let s = &mut run.segments[seg];
    let tput = s.throughput();
    let [w50, w99, r50, r99] = s.percentiles();
    let row = vec![
        mode.to_string(),
        shards_label.to_string(),
        SEGMENTS[seg].to_string(),
        format!("{}", s.events),
        fmt_duration(s.wall),
        format!("{tput:.0}/s"),
        fmt_duration(w50),
        fmt_duration(w99),
        fmt_duration(r50),
        fmt_duration(r99),
    ];
    let json = Json::obj([
        ("mode", Json::from(mode)),
        ("segment", Json::from(SEGMENTS[seg])),
        ("events", Json::from(s.events)),
        ("wall_ms", Json::ms(s.wall)),
        ("ops_per_sec", Json::from(tput)),
        ("write_p50_ms", Json::ms(w50)),
        ("write_p99_ms", Json::ms(w99)),
        ("read_p50_ms", Json::ms(r50)),
        ("read_p99_ms", Json::ms(r99)),
        ("read_errors", Json::from(run.read_errors)),
    ]);
    (row, json, tput)
}

const HEADERS: [&str; 10] = [
    "mode", "shards", "segment", "events", "wall", "tput", "w p50", "w p99", "r p50", "r p99",
];

fn main() {
    let args = BenchArgs::parse();
    let trace_ctx = args.trace_writer();
    let sessions = args.workers.unwrap_or(4).max(1);
    let (objects, events, latency) = if args.full {
        (
            256,
            3000,
            LatencyModel::new(Duration::from_millis(5), Duration::ZERO),
        )
    } else {
        (
            96,
            900,
            LatencyModel::new(Duration::from_millis(3), Duration::ZERO),
        )
    };
    let events = args.ops.unwrap_or(events).max(SEGMENTS.len() * sessions);
    let trace = generate_read_write(&RwTraceConfig {
        objects,
        events,
        write_ratio: 0.5,
        churn_every: 0, // pure rw: only the *routing* epoch moves mid-run
        churn_ops: 0,
        churn_revocation_ratio: 0.0,
        seed: 0xe1a5,
    });

    println!(
        "elastic scaling: {objects} objects, {events} events in {} segments, {sessions} \
         sessions, window {WINDOW}, {PAYLOAD}B payloads, {DATA_FOLDERS} data folders, \
         {latency:?} per request, resize {FROM_SHARDS} -> {TO_SHARDS} during segment 2",
        SEGMENTS.len()
    );

    let deploy_at = |shards| deploy(shards, sessions, DATA_FOLDERS, latency);
    let mut static4 = run_mode(deploy_at(FROM_SHARDS), &trace, |_| {});
    let mut static8 = run_mode(deploy_at(TO_SHARDS), &trace, |_| {});
    // the resizer launches just before "during" begins, so the cutover
    // overlaps live traffic, and is joined before "after" starts: segment
    // 2 is steady state behind the new routing epoch
    let deployment = deploy_at(FROM_SHARDS);
    let store = deployment.store.clone();
    let mut resizer = None;
    let mut resize = None;
    let mut elastic = run_mode(deployment, &trace, |seg| {
        if seg == 1 {
            let store = store.clone();
            resizer = Some(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(15));
                store.resize(TO_SHARDS)
            }));
        } else if let Some(r) = resizer.take() {
            resize = Some(r.join().expect("resize thread"));
        }
    });
    let resize = resize.expect("elastic run resized");

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut tputs = std::collections::HashMap::new();
    for (mode, label, run) in [
        ("static-4", "4", &mut static4),
        ("static-8", "8", &mut static8),
        ("elastic", "4->8", &mut elastic),
    ] {
        for seg in 0..SEGMENTS.len() {
            let (row, json, tput) = render(mode, label, seg, run);
            rows.push(row);
            json_rows.push(json);
            tputs.insert((mode, seg), tput);
        }
    }
    print_table(
        "throughput before/during/after a live 4->8 resize vs static baselines",
        &HEADERS,
        &rows,
    );

    println!(
        "\nresize: {} -> {} shards, {} folders relocated, routing epoch {}; read errors \
         across the elastic run: {}",
        resize.from, resize.to, resize.relocated, resize.epoch, elastic.read_errors
    );

    let (verified, mismatches) = verify_contents(&elastic.deployment, &trace);
    println!("content check after cutover: {verified} objects read back, {mismatches} mismatches");

    let store = &elastic.deployment.store;
    let imb = store.imbalance();
    println!(
        "\nper-shard traffic after cutover ({} shards):",
        store.shard_count()
    );
    for (slot, m) in store.per_shard_metrics() {
        println!(
            "  slot {slot:>2}: {:>5} requests ({} puts, {} gets, {} cas), {} up / {} down",
            m.requests(),
            m.puts + m.puts_batched,
            m.gets,
            m.cas_puts,
            m.bytes_up,
            m.bytes_down
        );
    }
    println!(
        "imbalance: folders {:.2} (max {} of {}), ops {:.2} (max {} of {})",
        imb.folder_ratio(),
        imb.max_folders,
        imb.total_folders,
        imb.op_ratio(),
        imb.max_ops,
        imb.total_ops
    );

    let after = SEGMENTS.len() - 1;
    let elastic_after = tputs[&("elastic", after)];
    let static8_after = tputs[&("static-8", after)];
    println!(
        "\nelastic after-cutover throughput is {:.0}% of the static-8 baseline \
         ({elastic_after:.0}/s vs {static8_after:.0}/s)",
        100.0 * elastic_after / static8_after
    );

    if let Some(path) = &args.json {
        write_results(
            path,
            "elastic_scaling",
            [
                ("full", Json::from(args.full)),
                ("objects", Json::from(objects)),
                ("events", Json::from(events)),
                ("sessions", Json::from(sessions)),
                ("window", Json::from(WINDOW)),
                ("payload", Json::from(PAYLOAD)),
                ("data_folders", Json::from(DATA_FOLDERS)),
                ("from_shards", Json::from(FROM_SHARDS)),
                ("to_shards", Json::from(TO_SHARDS)),
                ("relocated", Json::from(resize.relocated)),
                ("routing_epoch", Json::from(resize.epoch)),
                ("read_errors", Json::from(elastic.read_errors)),
                ("objects_verified", Json::from(verified)),
                ("content_mismatches", Json::from(mismatches)),
                ("folder_imbalance", Json::from(imb.folder_ratio())),
                ("op_imbalance", Json::from(imb.op_ratio())),
            ],
            json_rows,
        );
    }

    if let Some((writer, _)) = &trace_ctx {
        args.write_trace(writer);
    }

    if args.check {
        assert_eq!(resize.to, TO_SHARDS, "--check: resize did not complete");
        assert_eq!(
            store.shard_count(),
            TO_SHARDS,
            "--check: store not at target"
        );
        assert_eq!(
            elastic.read_errors, 0,
            "--check: reads failed during the live cutover"
        );
        assert_eq!(
            mismatches, 0,
            "--check: migrated contents not byte-identical"
        );
        assert_eq!(
            static4.read_errors + static8.read_errors,
            0,
            "--check: static baseline reads failed"
        );
        assert!(
            elastic_after >= 0.8 * static8_after,
            "--check: elastic after-cutover throughput ({elastic_after:.0}/s) is not \
             >= 80% of static-8 ({static8_after:.0}/s)"
        );
        println!(
            "--check passed: cutover complete at {TO_SHARDS} shards, zero read errors, \
             contents byte-identical, after-segment at {:.0}% of static-8",
            100.0 * elastic_after / static8_after
        );
    }
}
