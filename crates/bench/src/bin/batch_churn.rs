//! Sequential vs batched revocation cost (the batched membership pipeline;
//! paper §VIII "optimize the administrator-side operation cost").
//!
//! Replays the same batched-churn workload twice against identically seeded
//! IBBE-SGX stacks: once operation by operation (the paper's Algorithms 2/3,
//! `k × |P|` re-keys and `k` store round-trips for `k` revocations) and once
//! batch by batch (`|P|` re-keys and **one** `put_many` round-trip per
//! batch). Prints the admin wall-clock, the store traffic, the engine re-key
//! counters, and the partition size a batch-aware `AdaptivePolicy` would
//! recommend.
//!
//! Flags: `--full` (paper-scale), `--ops N` (total op budget).

use cloud_store::ObjectStore;
use ibbe_sgx_bench::{fmt_bytes, fmt_duration, print_table, BenchArgs, IbbeBackend};
use ibbe_sgx_core::AdaptivePolicy;
use workloads::{generate_batched_churn, replay, replay_batched, BatchedChurnConfig};

fn main() {
    let args = BenchArgs::parse();
    // Small partitions + modest groups keep the smoke run in seconds; --full
    // approaches the paper's partition sizing.
    let (batches, batch_size, partition) = if args.full {
        (20, 100, 1000)
    } else {
        (6, 16, 8)
    };
    let (batches, batch_size) = match args.ops {
        Some(ops) => (ops.div_ceil(batch_size).max(1), batch_size),
        None => (batches, batch_size),
    };

    let mut rows = Vec::new();
    for ratio in [0.25, 0.5, 0.9] {
        let trace = generate_batched_churn(&BatchedChurnConfig {
            batches,
            batch_size,
            revocation_ratio: ratio,
            seed: 0xc0de ^ (ratio * 100.0) as u64,
        });

        // Sequential: one engine op + one publish round-trip per trace op.
        let mut seq = IbbeBackend::new(partition, "g", &trace.initial_members, 42);
        seq.set_auto_repartition(false);
        let seq_report = replay(&trace.flatten(), &mut seq, None);
        let seq_metrics = seq.admin().store().metrics();

        // Batched: one coalesced apply_batch + one put_many per burst.
        let mut bat = IbbeBackend::new(partition, "g", &trace.initial_members, 42);
        bat.set_auto_repartition(false);
        let bat_report = replay_batched(&trace.batches, &mut bat, None);
        let bat_metrics = bat.admin().store().metrics();

        // Batch-aware adaptive observations: each burst counts one re-key
        // sweep, however many removals it coalesced.
        let mut policy = AdaptivePolicy::new(4, partition).expect("bounds");
        for outcome in bat.batch_outcomes() {
            policy.record_batch(outcome);
            policy.record_decrypt();
        }
        let members = bat.admin().member_count("g").expect("group exists").max(1);
        let rekeys: usize = bat
            .batch_outcomes()
            .iter()
            .map(|o| o.partitions_rekeyed)
            .sum();

        rows.push(vec![
            format!("{:.0}%", ratio * 100.0),
            fmt_duration(seq_report.total),
            fmt_duration(bat_report.total),
            format!(
                "{:.1}x",
                seq_report.total.as_secs_f64() / bat_report.total.as_secs_f64().max(1e-9)
            ),
            format!("{}", seq_metrics.puts_batched + seq_metrics.puts),
            format!("{}", bat_metrics.puts_batched + bat_metrics.puts),
            format!("{rekeys}"),
            fmt_bytes(seq_metrics.bytes_up as usize),
            fmt_bytes(bat_metrics.bytes_up as usize),
            format!("{}", policy.recommended(members).get()),
        ]);
    }

    println!(
        "batched-churn: {batches} batches x {batch_size} ops, partition size {partition} \
         (identical seeds, repartitioning off)"
    );
    print_table(
        "sequential vs batched revocation cost",
        &[
            "revoc",
            "seq time",
            "batch time",
            "speedup",
            "seq RTs",
            "batch RTs",
            "batch rekeys",
            "seq up",
            "batch up",
            "adaptive |p|",
        ],
        &rows,
    );
    println!(
        "\nRTs = store write round-trips (every admin publish is one put_many); the \
         sequential path pays one per op, the batched path one per batch."
    );
}
