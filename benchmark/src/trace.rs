//! The traced run's span harvest: self times, the per-layer metrics that
//! only the program's own spans can give, and the per-op layer budget that
//! must reconcile with the op's end-to-end median.
//!
//! Spans come from two places: the ones the program already emits
//! (`store.*`, `session.*`, `enclave.*`, `admin.*`, `oplog.*`, `fleet.*`)
//! and the harness spans this benchmark wraps around each generated op
//! (`bench.<op>`) and around each step it re-performs where a layer has no
//! span of its own (`bench.step.<step>`). A span's self time is its duration
//! minus its direct children on the same thread; an op's spans are found by
//! the request id the harness opened around it.

use crate::layers::Values;
use crate::stats::median;
use ibbe_sgx::telemetry::{ClosedSpan, Event};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Everything the collector held when the traced phase ended.
pub struct Harvest {
    pub spans: Vec<ClosedSpan>,
    pub events: Vec<Event>,
    /// Calibrated duration of `spans[i]` in µs.
    dur_us: Vec<f64>,
    /// Calibrated self time of `spans[i]` in µs.
    self_us: Vec<f64>,
}

/// A timed segment on the telemetry clock with its calibration factor:
/// `(start µs, end µs, scale)`.
pub type Window = (u64, u64, f64);

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The layer a span's time belongs to.
pub fn layer_of(span: &str) -> &'static str {
    match span.split('.').next().unwrap_or("") {
        "store" => "cloud_store",
        "enclave" => "core",
        "admin" => "acs",
        "oplog" => "oplog",
        "session" => "dataplane.session",
        "fleet" => "dataplane.scheduler",
        _ => "harness",
    }
}

impl Harvest {
    /// Takes the collector's spans (delivered in close order, so per thread
    /// they are a post-order walk of the span tree), calibrates each by the
    /// segment it started in, and computes self times.
    pub fn new(spans: Vec<ClosedSpan>, events: Vec<Event>, windows: &[Window]) -> Self {
        let dur_us: Vec<f64> = spans
            .iter()
            .map(|s| {
                let scale = windows
                    .iter()
                    .find(|(start, end, _)| (*start..=*end).contains(&s.start_us))
                    .map_or(1.0, |w| w.2);
                us(s.duration) * scale
            })
            .collect();
        let mut self_us = vec![0.0; spans.len()];
        // per thread: children_total[d] = time of closed spans at depth d
        // whose parent has not closed yet
        let mut children: HashMap<u64, Vec<f64>> = HashMap::new();
        for (i, span) in spans.iter().enumerate() {
            let totals = children.entry(span.tid).or_default();
            if totals.len() < span.depth + 2 {
                totals.resize(span.depth + 2, 0.0);
            }
            let dur = dur_us[i];
            self_us[i] = (dur - totals[span.depth + 1]).max(0.0);
            totals[span.depth + 1] = 0.0;
            totals[span.depth] += dur;
        }
        Self {
            spans,
            events,
            dur_us,
            self_us,
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a ClosedSpan)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Median duration (µs) of the spans called `name` that pass `keep`.
    pub fn p50_us(&self, name: &str, keep: impl Fn(&ClosedSpan) -> bool) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .filter(|(_, s)| keep(s))
            .map(|(i, _)| self.dur_us[i])
            .collect();
        median(&v)
    }

    /// `pct`-th percentile of a u64 field of the spans called `name`, by the
    /// benchmark's percentile rule; 0 if no span carries the field or the
    /// rule refuses the tail.
    pub fn field_percentile(&self, name: &str, field: &str, pct: f64) -> f64 {
        // the rule speaks seconds: read the field as µs, whatever it counts
        let v: Vec<f64> = self
            .named(name)
            .filter_map(|(_, s)| s.field(field).and_then(|v| v.as_u64()))
            .map(|v| v as f64 / 1e6)
            .collect();
        crate::stats::percentile(&v, pct).unwrap_or(0.0) * 1e6
    }

    /// Mean duration (µs) of the spans called `name` (0 if there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.named(name).map(|(i, _)| self.dur_us[i]).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// Median self time (µs) of the spans called `name`.
    pub fn self_p50_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.named(name).map(|(i, _)| self.self_us[i]).collect();
        median(&v)
    }
}

/// How one op kind's budget is laid out.
#[derive(Clone)]
pub struct BudgetSpec {
    /// The harness span around the op (`bench.write`, …).
    pub root: &'static str,
    /// The layer the root span's own self time belongs to: `harness` when
    /// the callee opens a span of its own, otherwise the callee's layer.
    pub root_layer: &'static str,
    /// Steps the harness re-performed because the layer that does them has
    /// no span.
    pub steps: Vec<Step>,
    /// True for the ops whose rows must reconcile with the end-to-end p50
    /// (the roadmap's "within 10 %"), or the traced run fails.
    pub must_reconcile: bool,
}

impl BudgetSpec {
    /// A budget with no re-performed steps and no reconciliation gate.
    pub fn new(root: &'static str, root_layer: &'static str) -> Self {
        Self {
            root,
            root_layer,
            steps: Vec::new(),
            must_reconcile: false,
        }
    }

    pub fn with_steps(mut self, steps: Vec<Step>) -> Self {
        self.steps = steps;
        self
    }

    pub fn gated(mut self) -> Self {
        self.must_reconcile = true;
        self
    }
}

/// One re-performed step: its time is added to `row` and taken out of
/// `carved_from`, the row that contains it in the real op.
#[derive(Clone, Copy)]
pub struct Step {
    pub row: &'static str,
    /// The `bench.step.*` span around the re-performed call.
    pub span: &'static str,
    pub carved_from: &'static str,
    /// The span that contains one such step per occurrence in the real
    /// program: the op's root for a step done once per op, otherwise an
    /// in-program span on whichever thread does the work (then the step
    /// counts towards [`cpu_shares`] only, not the caller's budget).
    pub per: &'static str,
}

impl Step {
    pub const fn new(
        row: &'static str,
        span: &'static str,
        carved_from: &'static str,
        per: &'static str,
    ) -> Self {
        Self {
            row,
            span,
            carved_from,
            per,
        }
    }
}

/// One op kind's layer rows against its end-to-end median.
pub struct OpBudget {
    pub root: &'static str,
    pub ops: usize,
    pub p50_us: f64,
    /// `(layer, median µs per op)`.
    pub rows: Vec<(String, f64)>,
    pub unattributed_pct: f64,
    /// Median count of `store.*` spans per op.
    pub store_requests: f64,
    /// Copied from the spec: `unattributed_pct` is gated for this op.
    pub must_reconcile: bool,
}

impl OpBudget {
    pub fn row(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Builds the budget of the op kind `spec.root` from the harvest, or `None`
/// when the workload never ran it.
pub fn budget(h: &Harvest, spec: &BudgetSpec) -> Option<OpBudget> {
    // root span of every op, by request id; its thread is the op's thread
    let roots: HashMap<u64, (usize, u64)> = h
        .named(spec.root)
        .filter(|(_, s)| s.rid != 0)
        .map(|(i, s)| (s.rid, (i, s.tid)))
        .collect();
    if roots.is_empty() {
        return None;
    }
    // per op: self time per layer, over the op thread's spans
    let mut per_op: HashMap<u64, BTreeMap<&'static str, f64>> = HashMap::new();
    let mut store_spans: HashMap<u64, f64> = HashMap::new();
    for (i, span) in h.spans.iter().enumerate() {
        let Some(&(root_idx, tid)) = roots.get(&span.rid) else {
            continue;
        };
        if span.tid != tid || span.name.starts_with("bench.step.") {
            continue;
        }
        // nested harness ops (none today) would double-count: only the root
        // itself may be a bench.* span
        if span.name.starts_with("bench.") && i != root_idx {
            continue;
        }
        let layer = if i == root_idx {
            spec.root_layer
        } else {
            layer_of(span.name)
        };
        *per_op
            .entry(span.rid)
            .or_default()
            .entry(layer)
            .or_default() += h.self_us[i];
        if span.name.starts_with("store.") {
            *store_spans.entry(span.rid).or_default() += 1.0;
        }
    }
    let layers: HashSet<&'static str> = per_op.values().flat_map(|m| m.keys().copied()).collect();
    let mut rows: Vec<(String, f64)> = layers
        .into_iter()
        .map(|layer| {
            let v: Vec<f64> = per_op
                .values()
                .map(|m| m.get(layer).copied().unwrap_or(0.0))
                .collect();
            (layer.to_string(), median(&v))
        })
        .collect();
    for step in spec.steps.iter().filter(|step| step.per == spec.root) {
        let step_us = h.p50_us(step.span, |_| true);
        if let Some(carved) = rows.iter_mut().find(|(l, _)| l == step.carved_from) {
            carved.1 -= step_us;
        }
        match rows.iter_mut().find(|(l, _)| l == step.row) {
            Some(existing) => existing.1 += step_us,
            None => rows.push((step.row.to_string(), step_us)),
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let durations: Vec<f64> = roots.values().map(|&(i, _)| h.dur_us[i]).collect();
    let p50_us = median(&durations);
    // a negative row means a re-performed step cost more than the layer it
    // was carved from: that time sits in a row that cannot hold it, so it
    // counts as unattributed on top of the gap between the rows and the p50
    let sum: f64 = rows.iter().map(|(_, v)| v).sum();
    let negative: f64 = rows.iter().map(|(_, v)| (-v).max(0.0)).sum();
    let unattributed_pct = ((p50_us - sum).abs() + negative) / p50_us.max(1e-9) * 100.0;
    let requests: Vec<f64> = roots
        .keys()
        .map(|rid| store_spans.get(rid).copied().unwrap_or(0.0))
        .collect();
    Some(OpBudget {
        root: spec.root,
        ops: roots.len(),
        p50_us,
        rows,
        unattributed_pct,
        store_requests: median(&requests),
        must_reconcile: spec.must_reconcile,
    })
}

/// The per-layer metrics only spans can give. A layer the workload never
/// entered reads 0.
pub fn span_metrics(h: &Harvest, workload: &str, ops: u64) -> Values {
    let rotating = |s: &ClosedSpan| s.field("rotates").and_then(|v| v.as_bool()) == Some(true);
    let rotations = h
        .named("enclave.apply_batch")
        .filter(|(_, s)| rotating(s))
        .count();
    let mut out: Values = vec![
        (
            "core.apply_batch_ms",
            h.p50_us("enclave.apply_batch", rotating) / 1e3,
        ),
        (
            "core.rekey_partition_ms",
            h.p50_us("enclave.rekey", |_| true) / 1e3,
        ),
        (
            "core.rekey_partitions_per_op",
            h.count("enclave.rekey") as f64 / rotations.max(1) as f64,
        ),
        (
            "acs.apply_batch_self_ms",
            h.self_p50_us("admin.apply_batch") / 1e3,
        ),
        ("acs.publish_ms", h.p50_us("admin.publish", |_| true) / 1e3),
        (
            "acs.publish_items",
            h.field_percentile("admin.publish", "items", 50.0),
        ),
        ("acs.verify_extends_us", h.p50_us("oplog.verify", |_| true)),
        (
            "dataplane.session_refresh_ms",
            h.p50_us("session.refresh", |_| true) / 1e3,
        ),
        (
            "cloud_store.lane_queue_us_p50",
            h.field_percentile("store.lane", "queue_us", 50.0),
        ),
        (
            "cloud_store.lane_queue_us_p95",
            h.field_percentile("store.lane", "queue_us", 95.0),
        ),
        (
            "cloud_store.lane_service_us_p50",
            h.p50_us("store.lane", |_| true),
        ),
        (
            "dataplane.scheduler_lease_us_p50",
            h.p50_us("fleet.lease", |_| true),
        ),
        (
            "telemetry.spans_per_op",
            h.spans.len() as f64 / ops.max(1) as f64,
        ),
    ];

    // the pipeline's view of itself, on the workload that runs it
    let on_rtt = workload == "rw_rtt";
    let windows: Vec<(f64, f64)> = h
        .events
        .iter()
        .filter(|e| e.name == "pipeline.window")
        .filter_map(|e| {
            Some((
                e.field("inflight")?.as_u64()? as f64,
                e.field("window")?.as_u64()? as f64,
            ))
        })
        .collect();
    let mean_inflight =
        windows.iter().map(|(i, _)| i).sum::<f64>().max(0.0) / windows.len().max(1) as f64;
    let full = windows.iter().filter(|(i, w)| i >= w).count() as f64 / windows.len().max(1) as f64;
    out.push(("dataplane.pipeline_window_mean", mean_inflight));
    out.push(("dataplane.pipeline_window_full_ratio", full));
    out.push((
        "dataplane.pipeline_write_call_us",
        if on_rtt {
            h.p50_us("bench.write", |_| true)
        } else {
            0.0
        },
    ));
    out.push((
        "dataplane.pipeline_read_wait_us",
        h.p50_us("bench.read_wait", |_| true),
    ));

    // the fleet: leases per converge, how busy its two workers were, and
    // how many GETs each migrated object cost
    let converges = h.count("bench.converge").max(1) as f64;
    let lease_rids: HashSet<u64> = h.named("fleet.lease").map(|(_, s)| s.rid).collect();
    let lease_us: f64 = h.named("fleet.lease").map(|(i, _)| h.dur_us[i]).sum();
    let converge_us: f64 = h.named("bench.converge").map(|(i, _)| h.dur_us[i]).sum();
    let migrated: f64 = h
        .named("fleet.lease")
        .filter_map(|(_, s)| s.field("consumed").and_then(|v| v.as_u64()))
        .sum::<u64>() as f64;
    let lease_gets = h
        .named("store.get")
        .filter(|(_, s)| lease_rids.contains(&s.rid))
        .count() as f64;
    out.push((
        "dataplane.scheduler_leases",
        h.count("fleet.lease") as f64 / converges,
    ));
    out.push((
        "dataplane.scheduler_worker_busy_ratio",
        if converge_us > 0.0 {
            lease_us / (crate::workloads::revoke_sweep::WORKERS as f64 * converge_us)
        } else {
            0.0
        },
    ));
    out.push((
        "dataplane.sweeper_gets_per_migrated",
        if migrated > 0.0 {
            lease_gets / migrated
        } else {
            0.0
        },
    ));
    out
}

/// Layers whose time is not this process's CPU at work: the harness's own
/// spans and a caller blocked on other threads.
fn not_cpu(layer: &str) -> bool {
    layer == "harness" || layer == WAITING
}

/// Root layer of an op whose caller only waits while other threads work.
pub const WAITING: &str = "waiting";

/// Each layer's share of the traced half's self time, over every thread:
/// the program's own spans by [`layer_of`], a span-less callee's time from
/// its op's root span, and the re-performed steps moved to their own rows.
/// Largest first.
pub fn cpu_shares(h: &Harvest, specs: &[BudgetSpec]) -> Vec<(String, f64)> {
    let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, span) in h.spans.iter().enumerate() {
        if !span.name.starts_with("bench.") {
            *totals.entry(layer_of(span.name)).or_default() += h.self_us[i];
        }
    }
    for spec in specs {
        let roots: Vec<usize> = h.named(spec.root).map(|(i, _)| i).collect();
        *totals.entry(spec.root_layer).or_default() +=
            roots.iter().map(|&i| h.self_us[i]).sum::<f64>();
        for step in &spec.steps {
            // totals are sums, so a sampled step stands in with its mean
            let moved = h.mean_us(step.span) * h.count(step.per) as f64;
            *totals.entry(step.row).or_default() += moved;
            *totals.entry(step.carved_from).or_default() -= moved;
        }
    }
    totals.retain(|layer, us| !not_cpu(layer) && *us > 0.0);
    let sum: f64 = totals.values().sum();
    let mut shares: Vec<(String, f64)> = totals
        .into_iter()
        .map(|(layer, us)| (layer.to_string(), us / sum.max(1e-9)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Prints one op kind's budget table.
pub fn print_budget(b: &OpBudget) {
    println!(
        "\nbudget of {} ({} ops, end-to-end p50 {:.2} us)",
        b.root, b.ops, b.p50_us
    );
    for (layer, v) in &b.rows {
        println!(
            "  {layer:<28} {v:>12.2} us  {:>6.1} %",
            v / b.p50_us.max(1e-9) * 100.0
        );
    }
    let sum: f64 = b.rows.iter().map(|(_, v)| v).sum();
    println!("  {:<28} {sum:>12.2} us", "sum of rows");
    println!(
        "  {:<28} {:>12.2} %",
        "unattributed_pct", b.unattributed_pct
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, tid: u64, rid: u64, depth: usize, us: u64) -> ClosedSpan {
        ClosedSpan {
            name,
            fields: Vec::new(),
            start_us: 0,
            duration: Duration::from_micros(us),
            tid,
            rid,
            depth,
            open_seq: 0,
        }
    }

    /// Two ops of `bench.write { session.write { store.poll, store.cas } }`
    /// in close order, plus a re-performed seal and a lane-thread span that
    /// shares the rid but not the thread.
    fn harvest() -> Harvest {
        let mut spans = Vec::new();
        for rid in [7, 8] {
            spans.push(span("store.poll", 1, rid, 2, 2));
            spans.push(span("store.cas", 1, rid, 2, 8));
            spans.push(span("session.write", 1, rid, 1, 90));
            spans.push(span("bench.write", 1, rid, 0, 100));
            spans.push(span("bench.step.envelope_seal", 1, 0, 0, 70));
            spans.push(span("store.lane", 2, rid, 0, 500));
        }
        Harvest::new(spans, Vec::new(), &[])
    }

    #[test]
    fn a_span_is_calibrated_by_the_segment_it_started_in() {
        let mut inside = span("store.get", 1, 0, 0, 10);
        inside.start_us = 150;
        let outside = span("store.get", 1, 0, 0, 10);
        let h = Harvest::new(vec![inside, outside], Vec::new(), &[(100, 200, 0.5)]);
        assert_eq!(h.dur_us, vec![5.0, 10.0]);
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let h = harvest();
        assert_eq!(h.self_p50_us("session.write"), 80.0);
        assert_eq!(h.self_p50_us("bench.write"), 10.0);
        assert_eq!(h.self_p50_us("store.cas"), 8.0);
    }

    #[test]
    fn a_budget_carves_re_performed_steps_out_and_reconciles() {
        let spec = BudgetSpec::new("bench.write", "harness").with_steps(vec![Step::new(
            "dataplane.envelope",
            "bench.step.envelope_seal",
            "dataplane.session",
            "bench.write",
        )]);
        let b = budget(&harvest(), &spec).expect("two ops");
        assert_eq!(b.ops, 2);
        assert_eq!(b.p50_us, 100.0);
        assert_eq!(
            b.row("cloud_store"),
            10.0,
            "the lane thread's span is not the op's"
        );
        assert_eq!(b.row("dataplane.envelope"), 70.0);
        assert_eq!(b.row("dataplane.session"), 10.0);
        assert_eq!(b.row("harness"), 10.0);
        assert!(b.unattributed_pct < 1e-9);
        assert_eq!(b.store_requests, 2.0);
    }

    #[test]
    fn a_step_costlier_than_its_layer_shows_as_unattributed() {
        let spec = BudgetSpec::new("bench.write", "harness").with_steps(vec![Step::new(
            "dataplane.envelope",
            "bench.step.envelope_seal",
            "cloud_store",
            "bench.write",
        )]);
        let b = budget(&harvest(), &spec).expect("two ops");
        assert!(b.row("cloud_store") < 0.0);
        assert!(b.unattributed_pct > 50.0, "{}", b.unattributed_pct);
    }

    #[test]
    fn cpu_shares_cover_every_thread_and_skip_the_harness() {
        let spec = BudgetSpec::new("bench.write", "harness").with_steps(vec![Step::new(
            "dataplane.envelope",
            "bench.step.envelope_seal",
            "dataplane.session",
            "bench.write",
        )]);
        let shares = cpu_shares(&harvest(), &[spec]);
        // per op: lane thread 500, envelope 70, session 10, store 10
        let names: Vec<&str> = shares.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            names,
            ["cloud_store", "dataplane.envelope", "dataplane.session"]
        );
        assert!((shares[0].1 - 510.0 / 590.0).abs() < 1e-9);
        assert!((shares.iter().map(|(_, v)| v).sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn an_op_the_workload_never_ran_has_no_budget() {
        let spec = BudgetSpec::new("bench.sync", "acs");
        assert!(budget(&harvest(), &spec).is_none());
    }
}
