//! Per-session read/write throughput vs shard count with the pipelined
//! store client.
//!
//! The serial [`dataplane::ClientSession`] pays one full store round trip
//! per operation, so its throughput is pinned at `1/RTT` no matter how many
//! shards the store has — sharding buys sweep parallelism, not
//! single-client speed (see `sweep_scaling`). The
//! [`dataplane::PipelinedSession`] keeps a bounded window of requests in
//! flight instead, and each `CloudStore` shard serves its own pool of
//! `SUBMIT_LANES` concurrent lanes — so a single session's throughput grows
//! with the shard count until the window (or the lane total) is the binding
//! limit.
//!
//! Each row boots an identically seeded deployment, partitions a pure
//! read/write trace (no churn) across the sessions by stable object hash
//! (no CAS race ever crosses threads), and replays it: writes stream
//! through the window, reads overlap via `read_begin`/`read_wait` FIFO.
//! Serial baseline rows run the same client at window 1, which replays
//! the exact blocking request trace. Per-op latency (enqueue →
//! completion) is reported as nearest-rank p50/p99 per op class.
//!
//! Flags: `--shards A,B,…` (default `1,2,4,8`), `--workers N` (sessions,
//! default 4), `--ops N` (trace-event override), `--full` (adds the macro
//! row: 10^5 objects, 64 sessions, 8 shards), `--json PATH`, `--check`
//! (per-session throughput at the highest shard count must be ≥ 2× the
//! lowest — the per-PR CI gate).

use cloud_store::LatencyModel;
use ibbe_sgx_bench::json::{write_results, Json};
use ibbe_sgx_bench::{
    deploy, fmt_duration, print_table, replay_partitioned, BenchArgs, Segment, PAYLOAD,
};
use std::time::Duration;
use workloads::rw::{generate_read_write, RwTrace, RwTraceConfig};

/// In-flight window of the pipelined rows (serial rows run at window 1).
const WINDOW: usize = 16;
/// Data folders per store shard. Rendezvous routing spreads folders
/// *statistically*, so a row needs folders ≫ shards for its traffic to
/// reach every shard — with exactly one folder per shard, placement luck
/// (not the store) decides how many shards actually serve traffic.
const FOLDERS_PER_SHARD: usize = 64;

/// Replays `trace` through `sessions` pipelined clients at `window`
/// against a fresh `shards`-shard deployment — identically seeded across
/// rows, so only the shard count and the window differ between
/// measurements.
fn run_row(
    shards: usize,
    sessions: usize,
    window: usize,
    trace: &RwTrace,
    latency: LatencyModel,
) -> Segment {
    let d = deploy(shards, sessions, FOLDERS_PER_SHARD * shards, latency);
    let (segment, read_errors) = replay_partitioned(&d, window, trace);
    assert_eq!(read_errors, 0, "a replayed read failed");
    segment
}

/// Formats one table row + its JSON twin from a finished measurement.
fn render(
    table: &str,
    mode: &str,
    shards: usize,
    sessions: usize,
    window: usize,
    mut s: Segment,
) -> (Vec<String>, Json, f64) {
    let agg = s.throughput();
    let per_session = agg / sessions as f64;
    let [w50, w99, r50, r99] = s.percentiles();
    let row = vec![
        mode.to_string(),
        format!("{shards}"),
        format!("{sessions}"),
        format!("{window}"),
        format!("{}", s.events),
        fmt_duration(s.wall),
        format!("{agg:.0}/s"),
        format!("{per_session:.0}/s"),
        fmt_duration(w50),
        fmt_duration(w99),
        fmt_duration(r50),
        fmt_duration(r99),
    ];
    let json = Json::obj([
        ("table", Json::from(table)),
        ("mode", Json::from(mode)),
        ("shards", Json::from(shards)),
        ("sessions", Json::from(sessions)),
        ("window", Json::from(window)),
        ("events", Json::from(s.events)),
        ("wall_ms", Json::ms(s.wall)),
        ("ops_per_sec", Json::from(agg)),
        ("per_session_ops_per_sec", Json::from(per_session)),
        ("write_p50_ms", Json::ms(w50)),
        ("write_p99_ms", Json::ms(w99)),
        ("read_p50_ms", Json::ms(r50)),
        ("read_p99_ms", Json::ms(r99)),
    ]);
    (row, json, per_session)
}

const HEADERS: [&str; 12] = [
    "mode",
    "shards",
    "sessions",
    "window",
    "events",
    "wall",
    "agg tput",
    "per-session",
    "w p50",
    "w p99",
    "r p50",
    "r p99",
];

fn rw_trace(objects: usize, events: usize, seed: u64) -> RwTrace {
    generate_read_write(&RwTraceConfig {
        objects,
        events,
        write_ratio: 0.5,
        churn_every: 0, // pure rw: the epoch never moves mid-run
        churn_ops: 0,
        churn_revocation_ratio: 0.0,
        seed,
    })
}

fn main() {
    let args = BenchArgs::parse();
    let trace_ctx = args.trace_writer();
    let shard_counts = args.shards.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let sessions = args.workers.unwrap_or(4).max(1);
    let (objects, events, latency) = if args.full {
        (
            256,
            3000,
            LatencyModel::new(Duration::from_millis(5), Duration::ZERO),
        )
    } else {
        (
            384,
            800,
            LatencyModel::new(Duration::from_millis(3), Duration::ZERO),
        )
    };
    let events = args.ops.unwrap_or(events).max(sessions);
    let trace = rw_trace(objects, events, 0x77a11);

    println!(
        "pipelined rw scaling: {objects} objects, {events} events, {sessions} sessions, \
         window {WINDOW}, {PAYLOAD}B payloads, {latency:?} per request, \
         shard counts {shard_counts:?}"
    );

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut per_session_by_shards = Vec::new();
    for &shards in &shard_counts {
        let serial = run_row(shards, sessions, 1, &trace, latency);
        let (row, json, _) = render("scaling", "serial(w=1)", shards, sessions, 1, serial);
        rows.push(row);
        json_rows.push(json);

        let piped = run_row(shards, sessions, WINDOW, &trace, latency);
        let (row, json, per_session) =
            render("scaling", "pipelined", shards, sessions, WINDOW, piped);
        rows.push(row);
        json_rows.push(json);
        per_session_by_shards.push((shards, per_session));
    }
    print_table(
        "per-session rw throughput vs shard count (pure rw trace, hash-partitioned sessions)",
        &HEADERS,
        &rows,
    );

    if args.full {
        // the macro point of the acceptance sheet: 10^5 objects, 64
        // pipelined sessions over 8 shards, pipelined rows only (a serial
        // replay at this scale would add minutes and no information)
        let (m_objects, m_events, m_sessions, m_shards) = (100_000, 120_000, 64, 8);
        let m_latency = LatencyModel::new(Duration::from_millis(2), Duration::ZERO);
        println!(
            "\nmacro row: {m_objects} objects, {m_events} events, {m_sessions} sessions, \
             {m_shards} shards, {m_latency:?} per request"
        );
        let m_trace = rw_trace(m_objects, m_events, 0x77a12);
        let macro_row = run_row(m_shards, m_sessions, WINDOW, &m_trace, m_latency);
        let (row, json, _) = render(
            "macro",
            "pipelined",
            m_shards,
            m_sessions,
            WINDOW,
            macro_row,
        );
        print_table("macro scale (pipelined only)", &HEADERS, &[row]);
        json_rows.push(json);
    }

    println!(
        "\nthe serial client is pinned near 1/RTT per session at every shard count; the \
         pipelined client overlaps its window across the per-shard submit lanes, so \
         per-session throughput grows with the shard count until window or lane totals \
         bind. Convergence-side scaling for the same store is in `sweep_scaling`."
    );

    if let Some(path) = &args.json {
        write_results(
            path,
            "rw_scaling",
            [
                ("full", Json::from(args.full)),
                ("objects", Json::from(objects)),
                ("events", Json::from(events)),
                ("sessions", Json::from(sessions)),
                ("window", Json::from(WINDOW)),
                ("payload", Json::from(PAYLOAD)),
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
        // coarse per-PR sanity: pipelined per-session throughput must at
        // least double from the lowest to the highest shard count (the
        // measured growth is ~linear, so the margin is wide)
        let (lo_shards, lo) = *per_session_by_shards
            .iter()
            .min_by_key(|(s, _)| *s)
            .expect("non-empty");
        let (hi_shards, hi) = *per_session_by_shards
            .iter()
            .max_by_key(|(s, _)| *s)
            .expect("non-empty");
        if lo_shards < hi_shards {
            assert!(
                hi >= lo * 2.0,
                "--check: pipelined per-session throughput at {hi_shards} shards \
                 ({hi:.0}/s) is not ≥ 2x the {lo_shards}-shard baseline ({lo:.0}/s)"
            );
            println!(
                "--check passed: pipelined per-session throughput grew {:.1}x from \
                 {lo_shards} to {hi_shards} shards",
                hi / lo
            );
        }
    }
}
