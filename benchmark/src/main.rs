//! The repository benchmark: four closed-loop workloads, calibrated
//! end-to-end metrics and an outside-in per-layer budget. See `README.md`
//! beside this package.
//!
//! ```text
//! ibbe_sgx_benchmark run --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1]
//! ibbe_sgx_benchmark selfcheck [--seed <u64>] [--seconds <s>]
//! ibbe_sgx_benchmark spread [--seed <u64>] [--seconds <s>]
//! ibbe_sgx_benchmark baseline [--seed <u64>]   # a BENCH_<pr>.json trajectory point (last line)
//! ibbe_sgx_benchmark spec      # prints BENCHMARK.json
//! ```

mod calibrate;
mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use oracle::Tally;
use report::{Better, Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use workloads::{Config, Workload, SEGMENTS, TRACED_SEGMENTS};

/// `unattributed_pct` above this fails a traced run on the ops whose budget
/// must reconcile (`bench.write`/`bench.read` on `rw_cpu`, `bench.remove`/
/// `bench.sync` on `membership`).
const RECONCILE_LIMIT_PCT: f64 = 10.0;

/// Prefix of the traced run's line naming its three largest layer shares
/// (read back by `baseline`).
const TOP_CPU_COSTS: &str = "top_cpu_costs:";

/// How to read a `baseline` trajectory point (its `config.note`).
const BASELINE_NOTE: &str = "end-to-end metrics of one untraced run per workload (telemetry off, \
    calibrated to ref_nominal_s except rw_rtt); latency_slots names what lat1_us..lat4_us hold; \
    top_cpu_costs are the three largest layer shares of CPU time in the traced run (zero-RTT \
    workloads only)";

/// Where the traced run writes its Chrome trace.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Seeds per workload that `spread` runs: the ten values whose quartiles a
/// metric's bound is judged against.
const SPREAD_RUNS: u64 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.iter().any(|(name, _)| *name == parsed.workload) {
        return Err(format!("unknown workload {}", parsed.workload));
    }
    Ok(parsed)
}

fn build(name: &str, cfg: &Config) -> Box<dyn Workload> {
    match name {
        "rw_cpu" => Box::new(workloads::rw::setup(cfg, workloads::rw::Mode::Cpu)),
        "rw_rtt" => Box::new(workloads::rw::setup(cfg, workloads::rw::Mode::Rtt)),
        "membership" => Box::new(workloads::membership::setup(cfg)),
        "revoke_sweep" => Box::new(workloads::revoke_sweep::setup(cfg)),
        other => unreachable!("parse_args admitted {other}"),
    }
}

fn print_metric(m: &Metric) {
    println!("{:<56} {:>16.4} {}", m.name, m.value, m.unit);
}

/// Prints the verdict and the result line; the exit code says whether every
/// op and check passed.
fn conclude(tally: &Tally, metrics: &[Metric]) -> ExitCode {
    for note in tally.notes() {
        println!("FAILED: {note}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        println!("FAILED: a metric is not a finite number");
    }
    let correct = tally.failed == 0 && finite;
    println!("attempted {} failed {}", tally.attempted, tally.failed);
    println!(
        "{}",
        report::result_line(correct, tally.attempted.max(1), tally.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The untraced run: telemetry off, end-to-end metrics.
fn run_untraced(name: &str, cfg: &Config) -> ExitCode {
    let (mut workload, setup_cal, setup_raw) =
        workloads::timed_setup(workloads::calibrated(name), || build(name, cfg));
    let mut tally = Tally::default();
    let series = workloads::run_segments(
        workload.as_mut(),
        SEGMENTS,
        cfg.segment_budget(),
        &mut tally,
    );
    let footprint = workload.finish(&mut tally);
    let measured = workloads::end_to_end(
        workload.as_ref(),
        &series,
        setup_cal,
        setup_raw,
        &footprint,
        &mut tally,
    );
    println!(
        "workload {name} seed {} seconds {} ({SEGMENTS} segments, telemetry off)",
        cfg.seed, cfg.seconds
    );
    for m in measured.end_to_end.iter().chain(&measured.info) {
        print_metric(m);
    }
    conclude(&tally, &measured.end_to_end)
}

/// The traced run: half its segments with telemetry off (the reference for
/// the tracing overhead), half under `Tee(Collector, JsonWriter)`; then the
/// probes, the span-derived metrics, the budgets and the trace file.
fn run_traced(name: &str, cfg: &Config) -> ExitCode {
    use ibbe_sgx::telemetry::{install, Collector, JsonWriter, Subscriber, Tee};
    let mut workload = build(name, cfg);
    let mut tally = Tally::default();
    let budget_s = cfg.segment_budget();
    let off = workloads::run_segments(workload.as_mut(), TRACED_SEGMENTS, budget_s, &mut tally);

    let collector = Arc::new(Collector::new());
    let writer = Arc::new(JsonWriter::new());
    let before = workload.counters();
    let on = {
        let sinks: Vec<Arc<dyn Subscriber>> = vec![collector.clone(), writer.clone()];
        let _installed = install(Arc::new(Tee::new(sinks)));
        workloads::run_segments(workload.as_mut(), TRACED_SEGMENTS, budget_s, &mut tally)
    };
    let after = workload.counters();
    workload.finish(&mut tally);

    let harvest = trace::Harvest::new(collector.spans(), collector.events(), &on.windows);
    let trace_path = format!("{OUT_DIR}/trace_{name}.json");
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| writer.write_to(&trace_path));
    tally.check(written.is_ok(), || {
        format!("writing {trace_path}: {written:?}")
    });

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    values.extend(workload.probes(cfg));
    values.extend(trace::span_metrics(&harvest, name, on.ops));
    for ((metric, end), (_, start)) in after.iter().zip(&before) {
        values.insert(metric, end - start);
    }
    values.insert(
        "telemetry.enabled_overhead_pct",
        (on.lat_us(0) / off.lat_us(0).max(1e-9) - 1.0) * 100.0,
    );

    println!(
        "workload {name} seed {} seconds {} (traced: {TRACED_SEGMENTS}+{TRACED_SEGMENTS} segments)",
        cfg.seed, cfg.seconds
    );
    println!(
        "trace: {trace_path} ({} spans, {} events)",
        harvest.spans.len(),
        harvest.events.len()
    );
    let specs = workload.budgets();
    let budgets = specs
        .clone()
        .map(|spec| spec.and_then(|spec| trace::budget(&harvest, &spec)));
    const UNATTRIBUTED: [&str; 3] = [
        "budget.op1_unattributed_pct",
        "budget.op2_unattributed_pct",
        "budget.op3_unattributed_pct",
    ];
    for (slot, budget) in budgets.iter().enumerate() {
        let Some(budget) = budget else { continue };
        trace::print_budget(budget);
        values.insert(UNATTRIBUTED[slot], budget.unattributed_pct);
        let reconciles = !budget.must_reconcile || budget.unattributed_pct <= RECONCILE_LIMIT_PCT;
        tally.check(reconciles, || {
            format!(
                "{} on {name} leaves {:.1} % unattributed",
                budget.root, budget.unattributed_pct
            )
        });
    }
    values.extend(workload.budget_metrics(&budgets));

    // where the traced half's CPU time went, by layer, over every thread —
    // for CPU-bound workloads only: at 5 ms per request a lane's span is
    // mostly sleep
    if workloads::calibrated(name) {
        let specs: Vec<trace::BudgetSpec> = specs.into_iter().flatten().collect();
        let shares = trace::cpu_shares(&harvest, &specs);
        println!("\ncpu shares of the traced half, by layer:");
        for (layer, share) in &shares {
            println!("  {layer:<28} {:>6.1} %", share * 100.0);
        }
        let top: Vec<String> = shares
            .iter()
            .take(3)
            .map(|(layer, share)| format!("{layer}={share:.4}"))
            .collect();
        println!("{TOP_CPU_COSTS} {}", top.join(" "));
    }

    println!();
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|spec| {
            Metric::new(
                spec.name,
                values.get(spec.name).copied().unwrap_or(0.0),
                spec.unit,
            )
        })
        .collect();
    for (m, spec) in metrics.iter().zip(PER_LAYER) {
        println!(
            "{:<44} {:>16.4} {:<6} -> {}",
            m.name, m.value, m.unit, spec.moves
        );
    }
    conclude(&tally, &metrics)
}

/// Runs `args` as a child of this executable (one process per workload, so
/// `peak_rss_mib` is the workload's own), echoing its report.
fn child(args: &[String]) -> Result<report::Parsed, String> {
    child_with_output(args).map(|(parsed, _)| parsed)
}

/// As [`child`], also returning the report's lines. The child's stdout is
/// echoed line by line as it arrives and its stderr is this process's own,
/// so a panic in a set-up path names its cause.
fn child_with_output(args: &[String]) -> Result<(report::Parsed, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut running = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = running.stdout.take().expect("stdout is piped");
    let mut lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the child's report: {e}"))?;
        println!("{line}");
        lines.push(line);
    }
    let status = running.wait().map_err(|e| format!("wait: {e}"))?;
    let parsed = lines.last().and_then(|l| report::parse_result_line(l));
    match parsed {
        Some(parsed) if status.success() && parsed.correct => Ok((parsed, lines)),
        _ => Err(format!("`{}` failed ({status})", args.join(" "))),
    }
}

fn child_args(workload: &str, seed: u64, seconds: f64, traced: bool) -> Vec<String> {
    [
        "run",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec()
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for (name, _) in WORKLOADS {
        println!();
        if let Err(e) = child(&child_args(name, args.seed, args.seconds, args.traced)) {
            println!("FAILED: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set: every workload once, untraced. `None` if any run failed.
fn run_set(seed: u64, seconds: f64) -> Option<HashMap<(String, String), f64>> {
    let mut set = HashMap::new();
    for (name, _) in WORKLOADS {
        let parsed = child(&child_args(name, seed, seconds, false))
            .map_err(|e| println!("FAILED: {e}"))
            .ok()?;
        for (metric, value) in parsed.metrics {
            set.insert((name.to_string(), metric), value);
        }
    }
    Some(set)
}

/// Two sets on one seed compared against the benchmark's own bounds, plus a
/// third on another seed shown alongside (no gate), so a metric that moves
/// with the seed is visible.
fn selfcheck(args: &Args) -> ExitCode {
    let (Some(a), Some(b), Some(c)) = (
        run_set(args.seed, args.seconds),
        run_set(args.seed, args.seconds),
        run_set(args.seed + 1, args.seconds),
    ) else {
        return ExitCode::FAILURE;
    };
    println!(
        "\nselfcheck: set B against set A (seed {}), set C on seed {}",
        args.seed,
        args.seed + 1
    );
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>7}  {:>14}",
        "workload", "metric", "A", "B", "B vs A", "bound", "C (other seed)"
    );
    let mut misses = 0;
    for (name, _) in WORKLOADS {
        for spec in &END_TO_END {
            let key = (name.to_string(), spec.name.to_string());
            let (va, vb, vc) = (a[&key], b[&key], c[&key]);
            // positive = worse
            let worse = match spec.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let miss = worse.abs() > spec.bound;
            misses += usize::from(miss);
            println!(
                "{name:<14} {:<24} {va:>14.4} {vb:>14.4} {:>+7.2}% {:>6.0}%  {vc:>14.4}{}",
                spec.name,
                worse * 100.0,
                spec.bound * 100.0,
                if miss { "  MISS" } else { "" }
            );
        }
    }
    if misses == 0 {
        println!("selfcheck passed: every metric of set B is within its bound of set A");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED: {misses} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}

/// Runs every workload on [`SPREAD_RUNS`] consecutive seeds and prints, per
/// end-to-end metric, the distance between the first and third quartile as
/// a share of the median — the spread a metric's bound is judged against.
fn spread(args: &Args) -> ExitCode {
    let mut too_wide = 0;
    let mut table = Vec::new();
    for (name, _) in WORKLOADS {
        let mut runs: HashMap<String, Vec<f64>> = HashMap::new();
        for seed in args.seed..args.seed + SPREAD_RUNS {
            match child(&child_args(name, seed, args.seconds, false)) {
                Ok(parsed) => {
                    for (metric, value) in parsed.metrics {
                        runs.entry(metric).or_default().push(value);
                    }
                }
                Err(e) => {
                    println!("FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for spec in &END_TO_END {
            let values = &runs[spec.name];
            let (q1, q3) = stats::quartiles(values);
            let share = stats::spread(values);
            let verdict = if share <= spec.bound / 3.0 {
                "steady"
            } else if share <= spec.bound || spec.name == "setup_s" {
                "within bound"
            } else {
                too_wide += 1;
                "TOO WIDE"
            };
            table.push(format!(
                "{name:<14} {:<24} {:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>6.0}%  {verdict}",
                spec.name,
                stats::median(values),
                share * 100.0,
                spec.bound * 100.0
            ));
        }
    }
    println!("\nspread over {SPREAD_RUNS} seeds from {}", args.seed);
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for line in table {
        println!("{line}");
    }
    if too_wide == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{too_wide} metric(s) spread wider than their bound");
        ExitCode::FAILURE
    }
}

/// One trajectory point in the `{bench, config, rows}` shape of
/// `results/*.json`: every end-to-end metric per workload (with the issue's
/// name for each latency slot) and, from the traced run, the three largest
/// layer shares of CPU time.
fn baseline(args: &Args) -> ExitCode {
    let mut rows = Vec::new();
    for (name, _) in WORKLOADS {
        let runs = child(&child_args(name, args.seed, args.seconds, false)).and_then(|e2e| {
            Ok((
                e2e,
                child_with_output(&child_args(name, args.seed, args.seconds, true))?.1,
            ))
        });
        let (e2e, traced_output) = match runs {
            Ok(pair) => pair,
            Err(e) => {
                println!("FAILED: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut fields = vec![format!("\"workload\":\"{name}\"")];
        for (metric, value) in &e2e.metrics {
            fields.push(format!("\"{metric}\":{value}"));
        }
        let slots: Vec<String> = (0..4)
            .map(|slot| format!("\"{}\"", report::slot_alias(name, slot)))
            .collect();
        fields.push(format!("\"latency_slots\":[{}]", slots.join(",")));
        let top: Vec<String> = traced_output
            .iter()
            .find_map(|l| l.strip_prefix(TOP_CPU_COSTS))
            .unwrap_or("")
            .split_whitespace()
            .filter_map(|pair| pair.split_once('='))
            .map(|(layer, share)| format!("{{\"layer\":\"{layer}\",\"share\":{share}}}"))
            .collect();
        // the sleep-bound workload prints no CPU shares
        if !top.is_empty() {
            fields.push(format!("\"top_cpu_costs\":[{}]", top.join(",")));
        }
        rows.push(format!("{{{}}}", fields.join(",")));
    }
    println!(
        "BASELINE {{\"bench\":\"benchmark\",\"config\":{{\"seed\":{},\"seconds\":{},\"segments\":{SEGMENTS},\"ref_nominal_s\":{},\"nproc\":{},\"note\":\"{BASELINE_NOTE}\"}},\"rows\":[{}]}}",
        args.seed,
        args.seconds,
        calibrate::REF_NOMINAL_S,
        std::thread::available_parallelism().map_or(0, usize::from),
        rows.join(",")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    match command {
        "spec" => {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }
        "run" | "selfcheck" | "spread" | "baseline" => {
            let parsed = match parse_args(rest) {
                Ok(parsed) => parsed,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let cfg = Config {
                seed: parsed.seed,
                seconds: parsed.seconds,
            };
            match (command, parsed.workload.as_str()) {
                ("selfcheck", _) => selfcheck(&parsed),
                ("spread", _) => spread(&parsed),
                ("baseline", _) => baseline(&parsed),
                (_, "all") => run_all(&parsed),
                (_, name) if parsed.traced => run_traced(name, &cfg),
                (_, name) => run_untraced(name, &cfg),
            }
        }
        _ => {
            eprintln!(
                "usage: run --workload <name|all> --seed <u64> [--seconds <s>] [--trace 0|1] | selfcheck | spread | baseline | spec"
            );
            ExitCode::from(2)
        }
    }
}
