//! # ibbe-sgx-bench — harness regenerating the paper's tables and figures
//!
//! One binary per figure/table of the evaluation section (§VI):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | Fig. 2a/2b — raw HE-PKI / HE-IBE / IBBE group creation + metadata size |
//! | `fig6` | Fig. 6a/6b — system setup latency, key-extraction throughput |
//! | `fig7` | Fig. 7a/7b — create/remove/footprint vs HE; partition-size sweep |
//! | `fig8` | Fig. 8a/8b — add-user latency CDF; client decrypt latency |
//! | `fig9` | Fig. 9 — kernel-trace replay (admin time + decrypt time) |
//! | `fig10` | Fig. 10 — synthetic revocation-ratio sweep |
//! | `table1` | Table I — empirical complexity scaling of every operation |
//!
//! Every binary accepts `--full` to run at paper-scale parameters (slow) and
//! prints the series it measured in a row/column format mirroring the paper.
//! `batch_churn` covers §VIII's batched-churn comparison.
//!
//! Two more binaries sweep an axis the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`) does not have:
//!
//! | binary | axis |
//! |---|---|
//! | `rw_scaling` | store shard count, under the pipelined client |
//! | `sweep_scaling` | store shard count, under the re-encryption sweep |
//!
//! They additionally accept `--json PATH` to archive the measured series
//! machine-readably (see [`json`]), `--trace PATH` for a Chrome trace and
//! `--check` to enforce their coarse sanity gates — the combination the
//! per-PR CI bench smoke runs. `rw_scaling` replays through one deployment
//! and one replay loop ([`deploy`], [`replay_partitioned`]).
//! Kernel micro-timings, lazy vs eager revocation cost and op-log proof
//! cost are metrics of the repo benchmark or tier-1 tests; the README's
//! "Benchmarks and paper figures" table says which.

pub mod json;

use acs::{Admin, HeAdmin};
use cloud_store::{stable_hash64, CloudStore, LatencyModel, ShardedStore};
use dataplane::{ClientSession, OpClass, PipelinedSession};
use he::PkiKeyPair;
use ibbe::UserSecretKey;
use ibbe_sgx_core::{
    client_decrypt_from_partition, BatchOutcome, GroupEngine, MembershipBatch, PartitionSize,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use workloads::rw::{RwOp, RwTrace};
use workloads::{BatchReplayBackend, ReplayBackend, TraceOp};

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// The one usage line: what `--help` prints and what a bad command line
/// gets back on stderr.
const USAGE: &str = "flags: --full  --ops N  --no-repartition  --shards A,B,…  --workers N  \
                     --json PATH  --trace PATH  --check";

/// Simple command-line flags: `--full`, `--ops N`, `--no-repartition`,
/// `--shards A,B,…`, `--workers N`, `--json PATH`, `--trace PATH`,
/// `--check`.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Run at paper-scale parameters.
    pub full: bool,
    /// Override the number of trace operations (fig9/fig10, rw_scaling) or
    /// stored objects (sweep_scaling).
    pub ops: Option<usize>,
    /// Disable the re-partitioning heuristic (fig10 ablation).
    pub no_repartition: bool,
    /// Override the shard-count sweep (rw_scaling, sweep_scaling), e.g.
    /// `--shards 2,8`.
    pub shards: Option<Vec<usize>>,
    /// Override the client-session count (rw_scaling).
    pub workers: Option<usize>,
    /// Also write the measured series as machine-readable JSON (see
    /// [`crate::json`]) to this path.
    pub json: Option<String>,
    /// Also record the run's telemetry spans and events as a Chrome-trace
    /// JSON file at this path (open with Perfetto / `chrome://tracing`).
    /// Honoured by the scaling binaries (`rw_scaling`, `sweep_scaling`).
    pub trace: Option<String>,
    /// Enforce the bench's coarse perf sanity checks (exit non-zero on
    /// regression) — what the per-PR CI smoke runs.
    pub check: bool,
}

impl BenchArgs {
    /// Parses `std::env::args`. A flag this crate does not know, or a flag
    /// missing its value, prints the problem and the usage line to stderr
    /// and exits with status 2.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1)).unwrap_or_else(|problem| {
            eprintln!("{problem}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// [`BenchArgs::parse`] over any argument vector (program name already
    /// stripped); `Err` carries what was wrong with it.
    fn parse_from(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Self {
            full: false,
            ops: None,
            no_repartition: false,
            shards: None,
            workers: None,
            json: None,
            trace: None,
            check: false,
        };
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
            let int = |v: &str| v.parse().map_err(|_| format!("{flag} needs an integer"));
            match flag.as_str() {
                "--full" => args.full = true,
                "--no-repartition" => args.no_repartition = true,
                "--check" => args.check = true,
                "--ops" => args.ops = Some(int(&value("an integer")?)?),
                "--workers" => args.workers = Some(int(&value("an integer")?)?),
                "--json" => args.json = Some(value("a path")?),
                "--trace" => args.trace = Some(value("a path")?),
                "--shards" => {
                    let parsed: Vec<usize> = value("a list")?
                        .split(',')
                        .map(|v| v.trim().parse().ok().filter(|&s| s >= 1))
                        .collect::<Option<_>>()
                        .ok_or("--shards needs positive counts, e.g. 1,4")?;
                    args.shards = Some(parsed);
                }
                "--help" | "-h" => {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    /// When `--trace PATH` was given, installs a [`telemetry::JsonWriter`]
    /// as the process subscriber and returns it with its install guard
    /// (keep the pair alive for the instrumented part of the run; finish
    /// with [`BenchArgs::write_trace`]). `None` — the flag's absence —
    /// leaves telemetry disabled, so the instrumented code paths cost one
    /// relaxed atomic load each.
    pub fn trace_writer(
        &self,
    ) -> Option<(
        std::sync::Arc<telemetry::JsonWriter>,
        telemetry::InstallGuard,
    )> {
        self.trace.as_ref().map(|_| {
            let writer = std::sync::Arc::new(telemetry::JsonWriter::new());
            let guard = telemetry::install(
                std::sync::Arc::clone(&writer) as std::sync::Arc<dyn telemetry::Subscriber>
            );
            (writer, guard)
        })
    }

    /// Writes `writer`'s collected trace to the `--trace` path.
    ///
    /// # Panics
    /// Panics if the file cannot be written — a bench asked for a trace it
    /// could not produce.
    pub fn write_trace(&self, writer: &telemetry::JsonWriter) {
        if let Some(path) = &self.trace {
            writer.write_to(path).expect("write trace file");
            println!(
                "wrote Chrome-trace JSON to {path} (open with https://ui.perfetto.dev \
                 or chrome://tracing)"
            );
        }
    }
}

/// Pretty-prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Human-readable duration (paper-style: ms / s / m).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{:.1}m", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Human-readable byte size.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Generates `n` member identities.
pub fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user-{i:07}")).collect()
}

/// A deterministic RNG for benchmarks.
pub fn bench_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Converts a burst of trace operations into one coalesced
/// [`MembershipBatch`].
pub fn to_membership_batch(ops: &[TraceOp]) -> MembershipBatch {
    let mut batch = MembershipBatch::new();
    for op in ops {
        match op {
            TraceOp::Add { user } => batch.add(user.clone()),
            TraceOp::Remove { user } => batch.remove(user.clone()),
        };
    }
    batch
}

/// IBBE-SGX replay backend over the full `acs` stack (engine + cloud PUTs),
/// with a user-key cache for decrypt sampling.
pub struct IbbeBackend {
    admin: Admin,
    group: String,
    usk_cache: HashMap<String, UserSecretKey>,
    rng: StdRng,
    batch_outcomes: Vec<BatchOutcome>,
}

impl IbbeBackend {
    /// Boots an engine/admin and creates `group` with `initial` members.
    pub fn new(partition_size: usize, group: &str, initial: &[String], seed: u64) -> Self {
        let mut rng = bench_rng(seed);
        let engine = GroupEngine::bootstrap(PartitionSize::new(partition_size).unwrap(), &mut rng)
            .expect("bootstrap");
        let admin = Admin::new(engine, CloudStore::new());
        if !initial.is_empty() {
            admin
                .create_group(group, initial.to_vec())
                .expect("create group");
        } else {
            // groups cannot be empty; start with a resident placeholder
            admin
                .create_group(group, vec!["__resident".to_string()])
                .expect("create group");
        }
        Self {
            admin,
            group: group.to_string(),
            usk_cache: HashMap::new(),
            rng,
            batch_outcomes: Vec::new(),
        }
    }

    /// Access to the underlying admin.
    pub fn admin(&self) -> &Admin {
        &self.admin
    }

    /// Toggle the re-partitioning heuristic.
    pub fn set_auto_repartition(&mut self, enabled: bool) {
        // Admin::set_auto_repartition takes &mut self
        self.admin.set_auto_repartition(enabled);
    }

    /// Outcomes of the batches applied so far (batch-aware cost
    /// accounting; feed them to `AdaptivePolicy::record_batch`).
    pub fn batch_outcomes(&self) -> &[BatchOutcome] {
        &self.batch_outcomes
    }
}

impl ReplayBackend for IbbeBackend {
    fn add_user(&mut self, user: &str) {
        self.admin.add_user(&self.group, user).expect("add");
    }

    fn remove_user(&mut self, user: &str) {
        self.admin.remove_user(&self.group, user).expect("remove");
    }

    fn sample_decrypt(&mut self) -> Option<Duration> {
        use rand::seq::SliceRandom;
        let meta = self.admin.metadata(&self.group).ok()?;
        let members: Vec<String> = meta
            .members()
            .filter(|m| !m.starts_with("__"))
            .map(String::from)
            .collect();
        let member = members.choose(&mut self.rng)?.clone();
        let usk = match self.usk_cache.get(&member) {
            Some(u) => *u,
            None => {
                let u = self.admin.engine().extract_user_key(&member).ok()?;
                self.usk_cache.insert(member.clone(), u);
                u
            }
        };
        let idx = meta.partition_of(&member)?;
        let pk = self.admin.engine().public_key().clone();
        let (gk, dt) = time(|| {
            client_decrypt_from_partition(&pk, &usk, &member, &meta.name, &meta.partitions[idx])
        });
        gk.ok()?;
        Some(dt)
    }
}

impl BatchReplayBackend for IbbeBackend {
    fn apply_batch(&mut self, ops: &[TraceOp]) {
        let batch = to_membership_batch(ops);
        let outcome = self.admin.apply_batch(&self.group, &batch).expect("batch");
        self.batch_outcomes.push(outcome);
    }
}

/// HE-PKI replay backend at equal zero-knowledge deployment (enclave-hosted
/// group keys, cloud pushes).
pub struct HeBackend {
    admin: HeAdmin,
    group: String,
    keys: HashMap<String, PkiKeyPair>,
    rng: StdRng,
}

impl HeBackend {
    /// Boots the HE admin and creates `group` with `initial` members.
    pub fn new(group: &str, initial: &[String], seed: u64) -> Self {
        let mut rng = bench_rng(seed);
        let mut admin = HeAdmin::new(CloudStore::new());
        let mut keys = HashMap::new();
        for m in initial {
            let kp = PkiKeyPair::generate(&mut rng);
            admin.register_user(m, &kp);
            keys.insert(m.clone(), kp);
        }
        let members: Vec<String> = initial.to_vec();
        if members.is_empty() {
            let kp = PkiKeyPair::generate(&mut rng);
            admin.register_user("__resident", &kp);
            keys.insert("__resident".to_string(), kp);
            admin.create_group(group, &["__resident".to_string()]);
        } else {
            admin.create_group(group, &members);
        }
        Self {
            admin,
            group: group.to_string(),
            keys,
            rng,
        }
    }

    /// Access to the underlying HE admin.
    pub fn admin(&self) -> &HeAdmin {
        &self.admin
    }
}

impl ReplayBackend for HeBackend {
    fn add_user(&mut self, user: &str) {
        // registration (certificate intake) is part of user onboarding, not
        // of the membership operation; do it outside the (inner) timed path
        if !self.keys.contains_key(user) {
            let kp = PkiKeyPair::generate(&mut self.rng);
            self.admin.register_user(user, &kp);
            self.keys.insert(user.to_string(), kp);
        }
        self.admin.add_user(&self.group, user).expect("add");
    }

    fn remove_user(&mut self, user: &str) {
        self.admin.remove_user(&self.group, user).expect("remove");
    }

    fn sample_decrypt(&mut self) -> Option<Duration> {
        use rand::seq::SliceRandom;
        let meta = self.admin.fetch_metadata(&self.group).ok()?;
        let members: Vec<String> = meta
            .members()
            .filter(|m| !m.starts_with("__"))
            .map(String::from)
            .collect();
        let member = members.choose(&mut self.rng)?.clone();
        let key = self.keys.get(&member)?;
        let (gk, dt) = time(|| self.admin.manager().decrypt(&member, key, &meta));
        gk?;
        Some(dt)
    }
}

// ---------------------------------------------------------------------------
// the data-plane deployment `rw_scaling` replays

const GROUP: &str = "g";

/// Payload size of every object the scaling bins write.
pub const PAYLOAD: usize = 256;

/// One data-plane deployment: an admin over a sharded store and a group of
/// `sessions` client identities, each spreading its namespace over
/// `data_folders` data folders.
pub struct Deployment {
    admin: Admin,
    store: ShardedStore,
    sessions: usize,
    data_folders: usize,
}

/// Boots one deployment at `shards` store shards — identically seeded on
/// every call, so only the arguments differ between two measurements.
pub fn deploy(
    shards: usize,
    sessions: usize,
    data_folders: usize,
    latency: LatencyModel,
) -> Deployment {
    let engine = GroupEngine::bootstrap_seeded(PartitionSize::new(4).unwrap(), [11u8; 32]).unwrap();
    let store = ShardedStore::with_latency(shards, latency);
    let admin = Admin::new(engine, store.clone());
    let members: Vec<String> = (0..sessions).map(|c| format!("client-{c}")).collect();
    admin.create_group(GROUP, members).unwrap();
    Deployment {
        admin,
        store,
        sessions,
        data_folders,
    }
}

impl Deployment {
    /// Client `c`'s serial session.
    fn session(&self, c: usize) -> ClientSession {
        let identity = format!("client-{c}");
        ClientSession::with_seed(
            &identity,
            self.admin.engine().extract_user_key(&identity).unwrap(),
            self.admin.engine().public_key().clone(),
            self.store.clone(),
            GROUP,
            0xcc ^ c as u64,
        )
        .with_data_shards(self.data_folders)
    }
}

/// The payload event `i` of a trace writes into `object`.
fn payload_for(object: &str, i: usize) -> Vec<u8> {
    format!("{object}@{i};")
        .bytes()
        .cycle()
        .take(PAYLOAD)
        .collect()
}

/// What one [`replay_partitioned`] run measured.
pub struct Segment {
    /// Wall clock from the replay's start barrier to its end barrier.
    pub wall: Duration,
    /// Trace events replayed, over all sessions.
    pub events: usize,
    /// Per-op latency (enqueue → completion) of every write.
    pub writes: Vec<Duration>,
    /// Per-op latency of every read.
    pub reads: Vec<Duration>,
}

impl Segment {
    /// Events per second over the segment's wall clock.
    pub fn throughput(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Nearest-rank write p50, write p99, read p50, read p99.
    pub fn percentiles(&mut self) -> [Duration; 4] {
        let w = telemetry::stats::percentiles(&mut self.writes, &[50.0, 99.0]);
        let r = telemetry::stats::percentiles(&mut self.reads, &[50.0, 99.0]);
        [w[0], w[1], r[0], r[1]]
    }
}

/// Replays `trace` against `d` through one pipelined session per client at
/// in-flight `window`, every session starting and finishing at a shared
/// barrier. Objects are partitioned across sessions by stable hash, so
/// every read stays behind its writer in program order and no CAS race
/// crosses threads; writes stream through the window, reads overlap
/// through a FIFO of handles bounded by the same window (at window 1 this
/// is the exact blocking request trace).
///
/// Returns the measurement and the number of reads that failed — counted,
/// not unwrapped, so a caller can assert the count instead of assuming it.
pub fn replay_partitioned(d: &Deployment, window: usize, trace: &RwTrace) -> (Segment, u64) {
    let mut out = Segment {
        wall: Duration::ZERO,
        events: trace.events.len(),
        writes: Vec::new(),
        reads: Vec::new(),
    };
    let mut read_errors = 0;
    let barrier = Barrier::new(d.sessions + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..d.sessions)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut p = PipelinedSession::new(d.session(c), window).with_op_log();
                    let mine = |object: &str| stable_hash64(object) % d.sessions as u64 == c as u64;
                    let mut errors = 0u64;
                    barrier.wait();
                    let mut pending = VecDeque::new();
                    for (i, event) in trace.events.iter().enumerate() {
                        match event {
                            RwOp::Write { object } if mine(object) => {
                                p.write(object, &payload_for(object, i)).unwrap();
                            }
                            RwOp::Read { object } if mine(object) => {
                                match p.read_begin(object) {
                                    Ok(h) => pending.push_back(h),
                                    Err(_) => errors += 1,
                                }
                                if pending.len() >= window {
                                    let h = pending.pop_front().unwrap();
                                    errors += u64::from(p.read_wait(h).is_err());
                                }
                            }
                            _ => {}
                        }
                    }
                    while let Some(h) = pending.pop_front() {
                        errors += u64::from(p.read_wait(h).is_err());
                    }
                    p.flush().unwrap();
                    let ops = p.take_op_log();
                    barrier.wait();
                    (ops, errors)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        out.wall = t0.elapsed();
        for h in handles {
            let (ops, errors) = h.join().expect("session thread");
            read_errors += errors;
            for op in ops {
                match op.class {
                    OpClass::Write => out.writes.push(op.latency),
                    OpClass::Read => out.reads.push(op.latency),
                }
            }
        }
    });
    (out, read_errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_reads_every_flag_and_names_what_is_wrong_with_a_bad_one() {
        let args = parse(&[
            "--full",
            "--ops",
            "12",
            "--no-repartition",
            "--shards",
            "1, 4",
            "--workers",
            "3",
            "--json",
            "out.json",
            "--trace",
            "out.trace",
            "--check",
        ])
        .unwrap();
        assert!(args.full && args.no_repartition && args.check);
        assert_eq!((args.ops, args.workers), (Some(12), Some(3)));
        assert_eq!(args.shards, Some(vec![1, 4]));
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.trace.as_deref(), Some("out.trace"));

        let quiet = parse(&[]).unwrap();
        assert!(!quiet.full && quiet.ops.is_none() && quiet.shards.is_none());

        for (bad, problem) in [
            (&["--groups", "4"][..], "unknown flag --groups"),
            (&["--ops"][..], "--ops needs an integer"),
            (&["--workers", "many"][..], "--workers needs an integer"),
            (&["--json"][..], "--json needs a path"),
            (
                &["--shards", "1,0"][..],
                "--shards needs positive counts, e.g. 1,4",
            ),
        ] {
            assert_eq!(parse(bad).unwrap_err(), problem);
        }
    }
}
