//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their bounds, per-layer metrics with the end-to-end metric each
//! should move — and the two serialisations of it (`BENCHMARK.json` and the
//! one-line result a run ends with).

use std::fmt::Write as _;

/// Seconds one run measures (`BENCHMARK.json`'s `run_seconds`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u32 = 12;

/// The four workloads: `(name, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "rw_cpu",
        "Serial session at zero RTT, 4 KiB objects: the CPU is the bottleneck and ~96% of an op is \
         symcrypto GCM through the envelope; exec and store lanes are bypassed.",
    ),
    (
        "rw_rtt",
        "Same trace through a window-16 pipelined session at 5 ms RTT: round trips, window occupancy \
         and lane queueing dominate; the no-change workload for any crypto optimisation.",
    ),
    (
        "membership",
        "Control plane only, 4096 members at partition size 128, journaling on: pairing/ibbe/core/\
         sgx_sim/acs/oplog do all the work; admin re-key and client decrypt are the same order.",
    ),
    (
        "revoke_sweep",
        "Lazy revocation then a 2-worker fleet sweep over 512 B objects: per-object fixed costs (key \
         schedule, KEK, list/get/CAS, lease dispatch) and per-rotation key re-derivation dominate, not per-byte AES.",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: every workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. `lat1_us`…`lat4_us` are the workload's four
/// user-visible latencies; [`LATENCY_SLOTS`] names what each slot holds.
///
/// A bound is shared by every workload that reports the metric, so it is
/// sized for the least steady of them: about three times the widest
/// ten-seed quartile spread measured in a calm hour (5.5 %; 6.5 % for
/// `lat4_us`, which holds a queueing tail on `rw_rtt` and a four-sample
/// median on `membership`) and above the ~10 % a fully contended run can
/// read off after calibration. `setup_s` is one sub-second measurement per
/// run and takes the widest bound the contract allows.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "lat1_us", unit: "us", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "lat2_us", unit: "us", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "lat3_us", unit: "us", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "lat4_us", unit: "us", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "store_requests_per_op", unit: "count", better: Better::Lower, bound: 0.02 },
    EndToEnd { name: "stored_bytes_per_item", unit: "B", better: Better::Lower, bound: 0.01 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

/// What `lat1_us`…`lat4_us` hold on each workload (the issue's metric
/// names; printed beside the slot in a run's report).
pub const LATENCY_SLOTS: [(&str, [&str; 4]); 4] = [
    (
        "rw_cpu",
        [
            "write_p50_us",
            "read_p50_us",
            "write_mean_us",
            "read_mean_us",
        ],
    ),
    (
        "rw_rtt",
        ["write_p50_us", "read_p50_us", "write_p95_us", "read_p95_us"],
    ),
    (
        "membership",
        [
            "add_p50_ms",
            "key_sync_p50_ms",
            "remove_p50_ms",
            "create_group_ms",
        ],
    ),
    (
        "revoke_sweep",
        [
            "revoke_ms",
            "first_read_ms",
            "small_write_p50_us",
            "small_read_p50_us",
        ],
    ),
];

/// The issue's name for latency slot `slot` (0-based) on `workload`.
pub fn slot_alias(workload: &str, slot: usize) -> &'static str {
    LATENCY_SLOTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or("", |(_, names)| names[slot])
}

/// One per-layer metric, with the end-to-end metric it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const LO: Better = Better::Lower;
const HI: Better = Better::Higher;

const M_CTRL: &str =
    "remove/key_sync/create on membership; revoke/first_read on revoke_sweep; nothing on rw_*";
const M_RW_CPU: &str = "write/read p50 and ops_per_s on rw_cpu; nothing on rw_rtt, membership";
const M_SMALL: &str = "ops_per_s on revoke_sweep";
const M_RTT: &str = "ops_per_s and p95 slots on rw_rtt; nothing on rw_cpu, membership";
const M_SWEEP: &str =
    "ops_per_s, store_requests_per_op on revoke_sweep; nothing on rw_*, membership";

/// The per-layer metrics (layers are the crates; `dataplane` split by
/// module). Every traced run prints every one; a layer a workload never
/// enters reads 0 there.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    layer("bigint.fp_mul_ns", "ns", LO, M_CTRL),
    layer("bigint.fr_mul_ns", "ns", LO, M_CTRL),
    layer("bigint.fp_inv_us", "us", LO, M_CTRL),
    layer("pairing.pairing_ms", "ms", LO, M_CTRL),
    layer("pairing.miller_loop_ms", "ms", LO, M_CTRL),
    layer("pairing.final_exp_ms", "ms", LO, M_CTRL),
    layer("pairing.g1_mul_us", "us", LO, "as bigint, plus add on membership (BLS sign)"),
    layer("pairing.g2_mul_us", "us", LO, M_CTRL),
    layer("pairing.gt_pow_us", "us", LO, M_CTRL),
    layer("pairing.hash_to_scalar_us", "us", LO, M_CTRL),
    layer("ibbe.encrypt_msk_ms", "ms", LO, "create_group on membership, setup_s"),
    layer("ibbe.decrypt_ms", "ms", LO, "key_sync on membership, first_read on revoke_sweep"),
    layer("ibbe.rekey_ms", "ms", LO, "remove on membership, revoke on revoke_sweep"),
    layer("ibbe.add_user_msk_us", "us", LO, "add on membership"),
    layer("ibbe.remove_user_msk_ms", "ms", LO, "remove on membership, revoke on revoke_sweep"),
    layer("ibbe.extract_us", "us", LO, "setup_s"),
    layer("sgx_sim.ecall_ns", "ns", LO, "add/remove on membership"),
    layer("sgx_sim.seal_us", "us", LO, "remove on membership"),
    layer("sgx_sim.unseal_us", "us", LO, "add/remove on membership"),
    layer("sgx_sim.bls_sign_ms", "ms", LO, "add (most of it), remove on membership"),
    layer("sgx_sim.bls_verify_ms", "ms", LO, "acs.audit_ms_per_entry"),
    layer("core.create_group_ms", "ms", LO, "create_group on membership, setup_s"),
    layer("core.apply_batch_ms", "ms", LO, "remove on membership, revoke on revoke_sweep"),
    layer("core.rekey_partition_ms", "ms", LO, "remove on membership, revoke on revoke_sweep"),
    layer("core.rekey_partitions_per_op", "count", LO, "remove on membership"),
    layer("core.client_decrypt_ms", "ms", LO, "key_sync on membership, first_read on revoke_sweep"),
    layer("core.keyring_assemble_1_us", "us", LO, "first_read on revoke_sweep"),
    layer("core.keyring_assemble_16_us", "us", LO, "first_read on revoke_sweep"),
    layer("core.extract_user_key_us", "us", LO, "setup_s"),
    layer("oplog.append_us", "us", LO, "add on membership (<1%: shows a regression to O(n))"),
    layer("oplog.verify_consistency_us", "us", LO, "key_sync on membership (<1%)"),
    layer("oplog.transition_verify_us", "us", LO, "audit only"),
    layer("oplog.consistency_proof_bytes", "B", LO, "stored_bytes_per_item on membership"),
    layer("acs.apply_batch_self_ms", "ms", LO, "revoke on revoke_sweep"),
    layer("acs.publish_ms", "ms", LO, "revoke on revoke_sweep"),
    layer("acs.publish_items", "count", LO, "store_requests_per_op on revoke_sweep"),
    layer("acs.sync_self_ms", "ms", LO, "key_sync on membership"),
    layer("acs.verify_extends_us", "us", LO, "key_sync on membership, first_read on revoke_sweep"),
    layer("acs.audit_ms_per_entry", "ms", LO, "end-state check time only"),
    layer("acs.sync_store_requests", "count", LO, "store_requests_per_op on membership"),
    layer("symcrypto.gcm_seal_4k_us", "us", LO, M_RW_CPU),
    layer("symcrypto.gcm_open_4k_us", "us", LO, M_RW_CPU),
    layer("symcrypto.gcm_seal_512b_us", "us", LO, M_SMALL),
    layer("symcrypto.gcm_new_ns", "ns", LO, M_SMALL),
    layer("symcrypto.gcm_wrap_32b_us", "us", LO, M_SMALL),
    layer("symcrypto.sha256_4k_us", "us", LO, "nothing gated (reference point)"),
    layer("symcrypto.sha256_64b_ns", "ns", LO, "oplog.*"),
    layer("dataplane.envelope_seal_4k_us", "us", LO, M_RW_CPU),
    layer("dataplane.envelope_open_4k_us", "us", LO, M_RW_CPU),
    layer("dataplane.envelope_reencrypt_512b_us", "us", LO, M_SMALL),
    layer("dataplane.envelope_self_us", "us", LO, M_RW_CPU),
    layer("dataplane.to_bytes_4k_ns", "ns", LO, "write p50 on rw_cpu, peak_rss_mib"),
    layer("dataplane.from_bytes_4k_ns", "ns", LO, "read p50 on rw_cpu, peak_rss_mib"),
    layer("dataplane.session_write_self_us", "us", LO, "write p50, store_requests_per_op on rw_cpu"),
    layer("dataplane.session_read_self_us", "us", LO, "read p50, store_requests_per_op on rw_cpu"),
    layer("dataplane.session_refresh_ms", "ms", LO, "first_read on revoke_sweep"),
    layer("dataplane.session_key_refreshes", "count", LO, "first_read on revoke_sweep"),
    layer("dataplane.session_cas_conflicts", "count", LO, "store_requests_per_op"),
    layer("dataplane.pipeline_write_call_us", "us", LO, M_RTT),
    layer("dataplane.pipeline_read_wait_us", "us", LO, M_RTT),
    layer("dataplane.pipeline_window_mean", "count", HI, M_RTT),
    layer("dataplane.pipeline_window_full_ratio", "ratio", HI, M_RTT),
    layer("dataplane.pipeline_coalesced_writes", "count", HI, "store_requests_per_op on rw_rtt"),
    layer("dataplane.pipeline_zero_rtt_us_per_op", "us", LO, "witness of the pipelined-slower-than-serial gap at zero RTT"),
    layer("cloud_store.get_4k_ns", "ns", LO, M_SMALL),
    layer("cloud_store.cas_4k_ns", "ns", LO, M_SMALL),
    layer("cloud_store.poll_zero_ns", "ns", LO, "write/read p50 on rw_cpu (<2%)"),
    layer("cloud_store.put_many_us", "us", LO, "remove on membership, revoke on revoke_sweep"),
    layer("cloud_store.list_2500_us", "us", LO, M_SMALL),
    layer("cloud_store.submit_wait_us", "us", LO, M_RTT),
    layer("cloud_store.lane_queue_us_p50", "us", LO, M_RTT),
    layer("cloud_store.lane_queue_us_p95", "us", LO, M_RTT),
    layer("cloud_store.lane_service_us_p50", "us", LO, M_RTT),
    layer("cloud_store.requests_put", "count", LO, "store_requests_per_op"),
    layer("cloud_store.requests_put_many", "count", LO, "store_requests_per_op"),
    layer("cloud_store.requests_cas", "count", LO, "store_requests_per_op"),
    layer("cloud_store.requests_get", "count", LO, "store_requests_per_op"),
    layer("cloud_store.requests_delete", "count", LO, "store_requests_per_op"),
    layer("cloud_store.requests_poll", "count", LO, "store_requests_per_op"),
    layer("cloud_store.bytes_up", "B", LO, "stored_bytes_per_item"),
    layer("cloud_store.bytes_down", "B", LO, "stored_bytes_per_item"),
    layer("exec.ticket_roundtrip_us", "us", LO, M_RTT),
    layer("exec.executor_spawn_us", "us", LO, M_RTT),
    layer("exec.waker_wake_us", "us", LO, M_RTT),
    layer("dataplane.sweeper_scan_ms", "ms", LO, M_SWEEP),
    layer("dataplane.sweeper_step_us_per_object", "us", LO, M_SWEEP),
    layer("dataplane.scheduler_lease_us_p50", "us", LO, M_SWEEP),
    layer("dataplane.scheduler_leases", "count", LO, M_SWEEP),
    layer("dataplane.scheduler_worker_busy_ratio", "ratio", HI, M_SWEEP),
    layer("dataplane.sweeper_gets_per_migrated", "ratio", LO, M_SWEEP),
    layer("telemetry.enabled_overhead_pct", "%", LO, "informs the <=5% gate; end-to-end metrics are taken with telemetry off"),
    layer("telemetry.spans_per_op", "count", LO, "telemetry.enabled_overhead_pct"),
    layer("telemetry.disabled_site_ns", "ns", LO, "every end-to-end latency (one site per layer boundary)"),
    layer("budget.op1_unattributed_pct", "%", LO, "reconciliation of lat1's layer rows with its p50"),
    layer("budget.op2_unattributed_pct", "%", LO, "reconciliation of lat2's layer rows with its p50"),
    layer("budget.op3_unattributed_pct", "%", LO, "reconciliation of lat3's layer rows with its p50"),
];

/// One reported value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("string write");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(name),
            json_str(why)
        )
        .expect("string write");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound
        )
        .expect("string write");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        )
        .expect("string write");
    }
    s.push_str("  ]\n}\n");
    s
}

/// The JSON object a run prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        )
        .expect("string write");
    }
    s.push_str("}}");
    s
}

/// A parsed [`result_line`] (what `selfcheck` reads back from a child run).
#[derive(Debug, Clone)]
pub struct Parsed {
    pub correct: bool,
    pub metrics: Vec<(String, f64)>,
}

/// Parses a line written by [`result_line`]. Not a general JSON parser: it
/// reads back exactly the shape this program writes.
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let name_end = after.find('"')?;
        let name = &after[..name_end];
        let value_at = after.find("{\"value\": ")? + 10;
        let value_str = &after[value_at..];
        let value_end = value_str.find(',')?;
        metrics.push((name.to_string(), value_str[..value_end].parse().ok()?));
        rest = &value_str[value_str.find('}')? + 1..];
    }
    Some(Parsed { correct, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_contract_limits_hold() {
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {} chars",
                why.len()
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16 && !m.moves.is_empty());
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_one_this_program_writes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, benchmark_json(), "regenerate with `-- spec`");
    }

    #[test]
    fn a_result_line_reads_back() {
        let metrics = vec![
            Metric::new("setup_s", 0.8127, "s"),
            Metric::new("ops_per_s", 7012.25, "1/s"),
        ];
        let line = result_line(true, 1000, 0, &metrics);
        let parsed = parse_result_line(&line).expect("parses");
        assert!(parsed.correct);
        assert!(
            !parse_result_line(&result_line(false, 10, 1, &metrics))
                .expect("parses")
                .correct
        );
        assert_eq!(
            parsed.metrics,
            vec![
                ("setup_s".to_string(), 0.8127),
                ("ops_per_s".to_string(), 7012.25)
            ]
        );
    }
}
