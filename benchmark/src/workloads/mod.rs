//! The four workloads and the timing discipline they share.
//!
//! All load is closed-loop and generated from this one process with at most
//! two busy threads. A run sets up once, then measures [`SEGMENTS`] equal
//! segments, each bracketed by the reference kernel (see
//! [`crate::calibrate`]). Every reported metric is the median over segments;
//! the uncalibrated value travels beside it under a `raw.` prefix.

pub mod membership;
pub mod revoke_sweep;
pub mod rw;

use crate::calibrate::Bracket;
use crate::layers::Values;
use crate::oracle::{Payloads, Tally};
use crate::report::{slot_alias, Metric, END_TO_END};
use crate::stats::{median, percentile};
use crate::trace::{BudgetSpec, OpBudget};
use ibbe_sgx::cloud::{stable_hash64, MetricsSnapshot, ObjectStore, ShardedStore};
use ibbe_sgx::dataplane::ClientSession;
use std::time::Instant;

/// Timed segments of an untraced run (the issue's floor is 12).
pub const SEGMENTS: usize = 16;
/// Timed segments of each half (telemetry off, then on) of a traced run.
pub const TRACED_SEGMENTS: usize = 4;

/// False for `rw_rtt` alone: it is sleep-bound and repeats within ±2 % raw,
/// so it skips the reference kernel and is reported uncalibrated.
pub fn calibrated(workload: &str) -> bool {
    workload != "rw_rtt"
}

/// What one run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// Seconds the timed segments should take in total.
    pub seconds: f64,
}

impl Config {
    /// A sub-seed for `label`, so engine keys, session nonces, object choice
    /// and payload bytes are independent streams of the one `--seed`.
    pub fn derive(&self, label: &str) -> u64 {
        stable_hash64(&format!("{}/{label}", self.seed))
    }

    /// 32 seed bytes for `GroupEngine::bootstrap_seeded`.
    pub fn engine_seed(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, chunk) in out.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&self.derive(&format!("engine{i}")).to_le_bytes());
        }
        out
    }

    /// Seconds one of [`SEGMENTS`] segments may take, after the reference
    /// kernel's share.
    pub fn segment_budget(&self) -> f64 {
        let kernels = (SEGMENTS + 1) as f64 * crate::calibrate::BURST_NOMINAL_S;
        ((self.seconds - kernels) / SEGMENTS as f64).max(0.01)
    }
}

/// What one timed segment measured (raw seconds).
#[derive(Default)]
pub struct Segment {
    /// Primary operations completed in `wall` seconds.
    pub ops: u64,
    pub wall: f64,
    /// Store requests the primary operations issued.
    pub requests: u64,
    /// Latency samples of the workload's four slots.
    pub lat: [Vec<f64>; 4],
}

/// End-of-run facts a workload reports after its end-state checks.
pub struct Footprint {
    /// Stored bytes per item (object or member) at the end of the run.
    pub stored_bytes_per_item: f64,
}

/// A workload: built by its module's `setup`, driven by [`run_segments`].
pub trait Workload {
    fn name(&self) -> &'static str;
    /// The statistic reported for each latency slot.
    fn slot_stats(&self) -> [Stat; 4];
    /// Which of a segment's sample vectors each slot's percentile is taken
    /// from (two slots may be two percentiles of one op).
    fn slot_samples(&self) -> [usize; 4] {
        [0, 1, 2, 3]
    }
    /// Runs one segment of about `budget` seconds.
    fn segment(&mut self, budget: f64, tally: &mut Tally) -> Segment;
    /// End-state checks, counted on `tally`, and the storage footprint.
    fn finish(&mut self, tally: &mut Tally) -> Footprint;
    /// Cumulative counters behind the count-valued per-layer metrics; the
    /// traced run reports their growth over its traced half.
    fn counters(&self) -> Values;
    /// How the traced run lays out the budgets of latency slots 1–3.
    fn budgets(&self) -> [Option<BudgetSpec>; 3];
    /// Per-layer metrics that are rows of those budgets.
    fn budget_metrics(&self, _budgets: &[Option<OpBudget>; 3]) -> Values {
        Values::new()
    }
    /// Direct-call probes (see [`crate::layers`]) of the layers this
    /// workload enters, on inputs of its own shape. Telemetry must be off.
    fn probes(&self, cfg: &Config) -> Values;
}

/// What a latency slot reports of a segment's samples.
#[derive(Clone, Copy, Debug)]
pub enum Stat {
    /// Nearest-rank percentile, by the rule in [`crate::stats`].
    Percentile(f64),
    /// Arithmetic mean: what the tail costs a user on average. Gated where
    /// a tail percentile measures the neighbours instead of the program.
    Mean,
}

impl Stat {
    fn of(self, samples: &[f64]) -> Option<f64> {
        match self {
            Stat::Percentile(pct) => percentile(samples, pct),
            Stat::Mean if samples.is_empty() => None,
            Stat::Mean => Some(samples.iter().sum::<f64>() / samples.len() as f64),
        }
    }
}

impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stat::Percentile(pct) => write!(f, "p{pct}"),
            Stat::Mean => write!(f, "mean"),
        }
    }
}

/// The store's request counters under their per-layer metric names.
pub fn store_counters(m: &MetricsSnapshot) -> Values {
    vec![
        ("cloud_store.requests_put", m.puts as f64),
        ("cloud_store.requests_put_many", m.puts_batched as f64),
        ("cloud_store.requests_cas", m.cas_puts as f64),
        ("cloud_store.requests_get", m.gets as f64),
        ("cloud_store.requests_delete", m.deletes as f64),
        ("cloud_store.requests_poll", m.polls as f64),
        ("cloud_store.bytes_up", m.bytes_up as f64),
        ("cloud_store.bytes_down", m.bytes_down as f64),
    ]
}

/// Store requests between two snapshots, by the issue's formula: each is a
/// billed round trip in deployment.
pub fn requests_between(before: &MetricsSnapshot, after: &MetricsSnapshot) -> u64 {
    let count =
        |m: &MetricsSnapshot| m.puts + m.cas_puts + m.gets + m.deletes + m.polls + m.puts_batched;
    count(after) - count(before)
}

/// End-state check of the object workloads: reads every object back through
/// `session`, compares it with the last generation written, and reports the
/// stored bytes per object.
pub fn read_back(
    session: &mut ClientSession,
    store: &ShardedStore,
    names: &[String],
    gens: &[u32],
    payloads: &Payloads,
    tally: &mut Tally,
) -> Footprint {
    let mut stored = 0usize;
    for (i, name) in names.iter().enumerate() {
        let result = session.read(name);
        tally.check_read(payloads, i as u32, gens[i], result);
        stored += store
            .get(session.folder_of(name), name)
            .map_or(0, |(bytes, _)| bytes.len());
    }
    Footprint {
        stored_bytes_per_item: stored as f64 / names.len() as f64,
    }
}

/// Per-segment values of the throughput and the four latency slots, both
/// calibrated and raw.
#[derive(Default)]
pub struct Series {
    pub ops_per_s: [Vec<f64>; 2],
    pub lat: [[Vec<f64>; 2]; 4],
    pub samples: [usize; 4],
    /// Segments that had samples for a slot but too few beyond its
    /// percentile: they are left out of the slot's median.
    pub refused: [usize; 4],
    /// Raw p99 of slots 1 and 2 in every segment with enough samples for the
    /// percentile rule to allow it — printed as information only.
    pub p99: [Vec<f64>; 2],
    pub ops: u64,
    pub requests: u64,
    /// Each segment on the telemetry clock, with its calibration factor —
    /// what the traced run calibrates spans by.
    pub windows: Vec<crate::trace::Window>,
}

const CAL: usize = 0;
const RAW: usize = 1;

impl Series {
    fn push(&mut self, seg: &Segment, scale: f64, stats: [Stat; 4], sources: [usize; 4]) {
        if seg.ops > 0 && seg.wall > 0.0 {
            self.ops_per_s[CAL].push(seg.ops as f64 / (seg.wall * scale));
            self.ops_per_s[RAW].push(seg.ops as f64 / seg.wall);
        }
        for (slot, stat) in stats.iter().enumerate() {
            let samples = &seg.lat[sources[slot]];
            match stat.of(samples) {
                Some(v) => {
                    self.lat[slot][CAL].push(v * scale);
                    self.lat[slot][RAW].push(v);
                }
                None if samples.is_empty() => {}
                None => self.refused[slot] += 1,
            }
            self.samples[slot] += samples.len();
        }
        for slot in 0..2 {
            self.p99[slot].extend(percentile(&seg.lat[slot], 99.0));
        }
        self.ops += seg.ops;
        self.requests += seg.requests;
    }

    /// Median over segments of latency slot `slot`, calibrated, in µs.
    pub fn lat_us(&self, slot: usize) -> f64 {
        median(&self.lat[slot][CAL]) * 1e6
    }
}

/// Runs `segments` bracketed segments of `workload`.
pub fn run_segments(
    workload: &mut dyn Workload,
    segments: usize,
    budget: f64,
    tally: &mut Tally,
) -> Series {
    let mut series = Series::default();
    let stats = workload.slot_stats();
    let sources = workload.slot_samples();
    let mut bracket = Bracket::open(calibrated(workload.name()));
    for _ in 0..segments {
        let started = ibbe_sgx::telemetry::now_us();
        let seg = workload.segment(budget, tally);
        let ended = ibbe_sgx::telemetry::now_us();
        let scale = bracket.close();
        series.push(&seg, scale, stats, sources);
        series.windows.push((started, ended, scale));
    }
    series
}

/// Runs `setup`, bracketed by the reference kernel when the workload is
/// `calibrated`, and returns the deployment with its calibrated and raw
/// set-up time (equal for a workload that is reported raw).
pub fn timed_setup(
    calibrated: bool,
    setup: impl FnOnce() -> Box<dyn Workload>,
) -> (Box<dyn Workload>, f64, f64) {
    let mut bracket = Bracket::open(calibrated);
    let t = Instant::now();
    let workload = setup();
    let raw = t.elapsed().as_secs_f64();
    (workload, raw * bracket.close(), raw)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything an untraced run reports.
pub struct Measured {
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// `raw.` twins, the issue's names for the latency slots, sample counts.
    pub info: Vec<Metric>,
}

/// Turns a measured series into the end-to-end metrics. A latency slot
/// whose percentile the rule refused in more segments than it allowed (or
/// that no segment reported) is a failed check on `tally`.
pub fn end_to_end(
    workload: &dyn Workload,
    series: &Series,
    setup_cal: f64,
    setup_raw: f64,
    footprint: &Footprint,
    tally: &mut Tally,
) -> Measured {
    let name = workload.name();
    let stats = workload.slot_stats();
    for (slot, stat) in stats.iter().enumerate() {
        let (used, refused) = (series.lat[slot][CAL].len(), series.refused[slot]);
        tally.check(used > 0 && used >= refused, || {
            format!(
                "{} ({stat}): only {used} segment(s) report it, {refused} have fewer than {} samples beyond it",
                slot_alias(name, slot),
                crate::stats::MIN_BEYOND
            )
        });
    }
    let requests_per_op = series.requests as f64 / series.ops.max(1) as f64;
    let values = [
        setup_cal,
        median(&series.ops_per_s[CAL]),
        series.lat_us(0),
        series.lat_us(1),
        series.lat_us(2),
        series.lat_us(3),
        requests_per_op,
        footprint.stored_bytes_per_item,
        peak_rss_mib(),
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(spec, v)| Metric::new(spec.name, v, spec.unit))
        .collect();

    let mut info = vec![
        Metric::new("raw.setup_s", setup_raw, "s"),
        Metric::new("raw.ops_per_s", median(&series.ops_per_s[RAW]), "1/s"),
    ];
    for (slot, stat) in stats.iter().enumerate() {
        let alias = slot_alias(name, slot);
        let raw_us = median(&series.lat[slot][RAW]) * 1e6;
        info.push(Metric::new(format!("raw.lat{}_us", slot + 1), raw_us, "us"));
        // the issue's name and unit for the slot
        let (value, unit) = if alias.ends_with("_ms") {
            (series.lat_us(slot) / 1e3, "ms")
        } else {
            (series.lat_us(slot), "us")
        };
        info.push(Metric::new(
            format!(
                "{alias} (lat{}, {stat}, n={}, {} segments)",
                slot + 1,
                series.samples[slot],
                series.lat[slot][CAL].len()
            ),
            value,
            unit,
        ));
    }
    // p99 is information only: its run-to-run spread is too wide to gate
    for slot in 0..2 {
        if series.p99[slot].len() * 2 >= series.ops_per_s[RAW].len().max(1) {
            let alias = slot_alias(name, slot).replace("_p50", "_p99");
            info.push(Metric::new(
                format!(
                    "raw.{alias} (median of {} segments)",
                    series.p99[slot].len()
                ),
                median(&series.p99[slot]) * 1e6,
                "us",
            ));
        }
    }
    info.push(Metric::new("primary_ops", series.ops as f64, "count"));
    info.push(Metric::new(
        "segments",
        series.ops_per_s[CAL].len() as f64,
        "count",
    ));
    Measured { end_to_end, info }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_with(samples: usize) -> Segment {
        let mut seg = Segment {
            ops: samples as u64,
            wall: 1.0,
            ..Segment::default()
        };
        seg.lat[0] = (1..=samples).map(|i| i as f64).collect();
        seg
    }

    #[test]
    fn a_segment_with_too_thin_a_tail_is_skipped_not_replaced_by_its_median() {
        let stats = [Stat::Percentile(95.0); 4];
        let mut series = Series::default();
        // 400 samples leave 20 beyond p95, 100 leave 5: the rule refuses
        series.push(&segment_with(400), 1.0, stats, [0, 1, 2, 3]);
        series.push(&segment_with(100), 1.0, stats, [0, 1, 2, 3]);
        assert_eq!(series.lat[0][RAW], vec![380.0]);
        assert_eq!(series.refused, [1, 0, 0, 0]);
        // a slot with no samples at all is neither used nor refused
        assert!(series.lat[1][RAW].is_empty());
    }
}
