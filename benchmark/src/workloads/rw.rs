//! `rw_cpu` and `rw_rtt`: one member reading and writing 4 KiB objects,
//! 50/50, uniform object choice, over a 4-shard store.
//!
//! * `rw_cpu` — a serial [`ClientSession`] on a zero-latency store. The CPU
//!   is the bottleneck; `exec` and the store's submit lanes are bypassed.
//! * `rw_rtt` — the same trace generator through one window-16
//!   [`PipelinedSession`] at 5 ms per request, reads overlapped through a
//!   FIFO of handles. Sleep-bound, so it is reported uncalibrated.
//!
//! Every read's plaintext is compared with the last payload written.

use super::{requests_between, Config, Footprint, Segment, Stat, Workload};
use crate::layers::{self, Values};
use crate::oracle::{Payloads, Tally};
use crate::trace::{BudgetSpec, OpBudget, Step};
use ibbe_sgx::acs::Admin;
use ibbe_sgx::cloud::{LatencyModel, ObjectStore, ShardedStore};
use ibbe_sgx::core::{client_decrypt_key_ring, GroupEngine, KeyRing, PartitionSize};
use ibbe_sgx::dataplane::{ClientSession, OpClass, PipelinedSession, ReadHandle, SealedObject};
use ibbe_sgx::symcrypto::gcm::AesGcm;
use ibbe_sgx::symcrypto::sha256::Sha256;
use ibbe_sgx::telemetry::span;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const GROUP: &str = "rw";
pub const MEMBER: &str = "member-0";
pub const SHARDS: usize = 4;
pub const DATA_FOLDERS: usize = 16;
pub const PAYLOAD: usize = 4096;
pub const WINDOW: usize = 16;
pub const RTT: Duration = Duration::from_millis(5);
const OBJECTS_CPU: usize = 1024;
const OBJECTS_RTT: usize = 512;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// `rw_cpu`: serial session, zero-latency store.
    Cpu,
    /// `rw_rtt`: pipelined session, 5 ms per request.
    Rtt,
    /// The `rw_cpu` deployment driven through the pipelined session — the
    /// probe behind `dataplane.pipeline_zero_rtt_us_per_op`.
    ZeroRttPipelined,
}

impl Mode {
    fn pipelined(self) -> bool {
        self != Mode::Cpu
    }
}

enum Client {
    Serial(ClientSession),
    Pipelined(PipelinedSession),
}

pub struct Rw {
    mode: Mode,
    // kept alive for the run: the admin owns the engine the keys came from
    _admin: Admin,
    pub store: ShardedStore,
    client: Client,
    names: Vec<String>,
    /// Last generation written per object — the read oracle.
    gens: Vec<u32>,
    payloads: Payloads,
    trace: StdRng,
    buf: Vec<u8>,
    /// The member's key ring and a nonce source, for the steps the traced
    /// run re-performs (the session's own are private to it).
    ring: KeyRing,
    step_rng: StdRng,
}

/// The span-less steps of sealing one object, as [`reperform_write`]
/// re-performs them, once per `per` span: the envelope's seal and
/// serialisation leave the session's row, the seal's cipher calls leave the
/// envelope's.
pub(super) fn seal_steps(per: &'static str) -> Vec<Step> {
    vec![
        Step::new(ENVELOPE, "bench.step.envelope_seal", SESSION, per),
        Step::new(ENVELOPE, "bench.step.to_bytes", SESSION, per),
        Step::new("symcrypto", "bench.step.kek_sha", ENVELOPE, per),
        Step::new("symcrypto", "bench.step.gcm_wrap", ENVELOPE, per),
        Step::new("symcrypto", "bench.step.gcm_seal", ENVELOPE, per),
    ]
}

/// The span-less steps of opening one object, as [`reperform_read`]
/// re-performs them.
pub(super) fn open_steps(per: &'static str) -> Vec<Step> {
    vec![
        Step::new(ENVELOPE, "bench.step.from_bytes", SESSION, per),
        Step::new(ENVELOPE, "bench.step.envelope_open", SESSION, per),
        Step::new("symcrypto", "bench.step.kek_sha", ENVELOPE, per),
        Step::new("symcrypto", "bench.step.gcm_unwrap", ENVELOPE, per),
        Step::new("symcrypto", "bench.step.gcm_open", ENVELOPE, per),
    ]
}

const ENVELOPE: &str = "dataplane.envelope";
const SESSION: &str = "dataplane.session";

/// One op in this many has its span-less steps re-performed when traced.
const REPERFORM_EVERY: u64 = 4;

pub fn object_name(i: usize) -> String {
    format!("obj-{i:05}")
}

/// Boots the deployment and pre-writes every object once.
pub fn setup(cfg: &Config, mode: Mode) -> Rw {
    let latency = match mode {
        Mode::Cpu | Mode::ZeroRttPipelined => LatencyModel::none(),
        Mode::Rtt => LatencyModel::new(RTT, Duration::ZERO),
    };
    let engine = GroupEngine::bootstrap_seeded(
        PartitionSize::new(8).expect("valid size"),
        cfg.engine_seed(),
    )
    .expect("engine boots");
    let store = ShardedStore::with_latency(SHARDS, latency);
    let admin = Admin::new(engine, store.clone());
    let members = (0..8).map(|i| format!("member-{i}")).collect();
    admin
        .create_group(GROUP, members)
        .expect("group is created");
    let usk = admin.engine().extract_user_key(MEMBER).expect("user key");
    let session = ClientSession::with_seed(
        MEMBER,
        usk,
        admin.engine().public_key().clone(),
        store.clone(),
        GROUP,
        cfg.derive("session"),
    )
    .with_data_shards(DATA_FOLDERS);

    let ring = client_decrypt_key_ring(
        admin.engine().public_key(),
        &usk,
        MEMBER,
        &admin.metadata(GROUP).expect("group is cached"),
    )
    .expect("the member derives its ring");

    let objects = match mode {
        Mode::Cpu | Mode::ZeroRttPipelined => OBJECTS_CPU,
        Mode::Rtt => OBJECTS_RTT,
    };
    let names: Vec<String> = (0..objects).map(object_name).collect();
    let payloads = Payloads::new(cfg.derive("payloads"), PAYLOAD);
    let mut buf = Vec::with_capacity(PAYLOAD);
    let client = if mode.pipelined() {
        let mut pipe = PipelinedSession::new(session, WINDOW).with_op_log();
        for (i, name) in names.iter().enumerate() {
            payloads.fill(i as u32, 1, &mut buf);
            pipe.write(name, &buf).expect("pre-write");
        }
        pipe.flush().expect("pre-writes land");
        pipe.take_op_log();
        Client::Pipelined(pipe)
    } else {
        let mut session = session;
        for (i, name) in names.iter().enumerate() {
            payloads.fill(i as u32, 1, &mut buf);
            session.write(name, &buf).expect("pre-write");
        }
        Client::Serial(session)
    };
    Rw {
        mode,
        _admin: admin,
        store,
        client,
        gens: vec![1; objects],
        names,
        payloads,
        trace: StdRng::seed_from_u64(cfg.derive("trace")),
        buf,
        ring,
        step_rng: StdRng::seed_from_u64(cfg.derive("steps")),
    }
}

/// When a segment's loop stops issuing operations.
#[derive(Clone, Copy)]
enum Stop {
    AfterSeconds(f64),
    AfterOps(u64),
}

impl Stop {
    fn reached(self, started: Instant, ops: u64) -> bool {
        match self {
            Stop::AfterSeconds(budget) => started.elapsed().as_secs_f64() >= budget,
            Stop::AfterOps(n) => ops >= n,
        }
    }
}

/// The `rw_cpu` trace, 2 000 ops, through a window-16 [`PipelinedSession`]
/// on the zero-latency store: calibrated µs per op. The direct witness of
/// the pipelined client being slower than the serial one at zero RTT.
pub fn zero_rtt_pipelined_us_per_op(cfg: &Config) -> f64 {
    const OPS: u64 = 2_000;
    let mut rw = setup(cfg, Mode::ZeroRttPipelined);
    let mut tally = Tally::default();
    let mut bracket = crate::calibrate::Bracket::open(true);
    let seg = rw.pipelined_segment(Stop::AfterOps(OPS), &mut tally);
    let scale = bracket.close();
    assert_eq!(
        tally.failed,
        0,
        "the zero-RTT pipelined probe failed an op: {:?}",
        tally.notes()
    );
    seg.wall * scale * 1e6 / OPS as f64
}

/// The envelope's KEK derivation, spelled with the public hash (the
/// envelope's own is private): SHA-256 over the group key and a label.
fn kek(ring: &KeyRing) -> [u8; 32] {
    let (_, gk) = ring.current();
    let mut h = Sha256::new();
    h.update(gk.as_bytes());
    h.update(b"ibbe-sgx-dataplane-kek-v1");
    h.finalize()
}

/// Re-performs a write's span-less steps through the public functions, in
/// the order the session does them, each under a harness span: the
/// envelope seal and serialisation, then the seal's `symcrypto` parts.
pub(super) fn reperform_write(ring: &KeyRing, name: &str, plaintext: &[u8], rng: &mut StdRng) {
    let sealed = {
        let _s = span("bench.step.envelope_seal").enter();
        SealedObject::seal(ring, name, plaintext, rng)
    };
    {
        let _s = span("bench.step.to_bytes").enter();
        std::hint::black_box(sealed.to_bytes());
    }
    let kek = {
        let _s = span("bench.step.kek_sha").enter();
        kek(ring)
    };
    let (dek, nonce) = ([0x5du8; 32], [0x17u8; 12]);
    {
        let _s = span("bench.step.gcm_wrap").enter();
        std::hint::black_box(AesGcm::new(&kek).seal(&nonce, name.as_bytes(), &dek));
    }
    let _s = span("bench.step.gcm_seal").enter();
    std::hint::black_box(AesGcm::new(&dek).seal(&nonce, name.as_bytes(), plaintext));
}

/// Re-performs a read's span-less steps on bytes equal to what the store
/// holds (sealed here, so no store request is added): parse, envelope open,
/// then the open's `symcrypto` parts.
pub(super) fn reperform_read(ring: &KeyRing, name: &str, plaintext: &[u8], rng: &mut StdRng) {
    let stored = SealedObject::seal(ring, name, plaintext, rng).to_bytes();
    let sealed = {
        let _s = span("bench.step.from_bytes").enter();
        SealedObject::from_bytes(&stored)
    };
    let Ok(sealed) = sealed else { return };
    let plaintext = {
        let _s = span("bench.step.envelope_open").enter();
        sealed.open(ring, name)
    };
    let Ok(plaintext) = plaintext else { return };
    let kek = {
        let _s = span("bench.step.kek_sha").enter();
        kek(ring)
    };
    let (dek, nonce) = ([0x5du8; 32], [0x17u8; 12]);
    let gcm = AesGcm::new(&kek);
    let wrapped = gcm.seal(&nonce, name.as_bytes(), &dek);
    {
        let _s = span("bench.step.gcm_unwrap").enter();
        std::hint::black_box(
            AesGcm::new(&kek)
                .open(&nonce, name.as_bytes(), &wrapped)
                .is_ok(),
        );
    }
    let payload = AesGcm::new(&dek).seal(&nonce, name.as_bytes(), &plaintext);
    let _s = span("bench.step.gcm_open").enter();
    std::hint::black_box(
        AesGcm::new(&dek)
            .open(&nonce, name.as_bytes(), &payload)
            .is_ok(),
    );
}

/// Completes the oldest overlapped read and checks what it returned.
fn redeem(
    pipe: &mut PipelinedSession,
    payloads: &Payloads,
    tally: &mut Tally,
    read: (ReadHandle, u32, u32),
) {
    let (handle, object, gen) = read;
    let _span = span("bench.read_wait").enter();
    let result = pipe.read_wait(handle);
    tally.check_read(payloads, object, gen, result);
}

impl Rw {
    fn serial_segment(&mut self, budget: f64, tally: &mut Tally) -> Segment {
        let Client::Serial(session) = &mut self.client else {
            unreachable!("rw_cpu runs the serial session")
        };
        let mut seg = Segment::default();
        let before = self.store.metrics();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < budget {
            let object = self.trace.gen_range(0..self.names.len());
            let name = &self.names[object];
            let write = self.trace.gen_bool(0.5);
            if write {
                self.gens[object] += 1;
                self.payloads
                    .fill(object as u32, self.gens[object], &mut self.buf);
                let t = Instant::now();
                let result = {
                    let _rid = ibbe_sgx::telemetry::request_scope();
                    let _span = span("bench.write").enter();
                    session.write(name, &self.buf)
                };
                seg.lat[0].push(t.elapsed().as_secs_f64());
                tally.expect_ok("write", result);
            } else {
                let t = Instant::now();
                let result = {
                    let _rid = ibbe_sgx::telemetry::request_scope();
                    let _span = span("bench.read").enter();
                    session.read(name)
                };
                seg.lat[1].push(t.elapsed().as_secs_f64());
                tally.check_read(&self.payloads, object as u32, self.gens[object], result);
            }
            seg.ops += 1;
            if ibbe_sgx::telemetry::enabled() && seg.ops % REPERFORM_EVERY == 0 {
                // on the op's own inputs: a read re-opens the generation it
                // just fetched
                self.payloads
                    .fill(object as u32, self.gens[object], &mut self.buf);
                if write {
                    reperform_write(&self.ring, name, &self.buf, &mut self.step_rng);
                } else {
                    reperform_read(&self.ring, name, &self.buf, &mut self.step_rng);
                }
            }
        }
        seg.wall = t0.elapsed().as_secs_f64();
        seg.requests = requests_between(&before, &self.store.metrics());
        seg
    }

    fn pipelined_segment(&mut self, stop: Stop, tally: &mut Tally) -> Segment {
        let Client::Pipelined(pipe) = &mut self.client else {
            unreachable!("rw_rtt runs the pipelined session")
        };
        let mut seg = Segment::default();
        let before = self.store.metrics();
        // reads overlap through a FIFO of handles bounded by the window, so
        // backpressure matches the write path; each remembers the
        // generation program order says it must return
        let mut pending: VecDeque<(ReadHandle, u32, u32)> = VecDeque::new();
        let t0 = Instant::now();
        while !stop.reached(t0, seg.ops) {
            let object = self.trace.gen_range(0..self.names.len());
            let name = &self.names[object];
            if self.trace.gen_bool(0.5) {
                self.gens[object] += 1;
                self.payloads
                    .fill(object as u32, self.gens[object], &mut self.buf);
                let result = {
                    let _rid = ibbe_sgx::telemetry::request_scope();
                    let _span = span("bench.write").enter();
                    pipe.write(name, &self.buf)
                };
                // a failed enqueue is a failed op; the write's own CAS is
                // checked by every later read of the object
                if let Err(e) = result {
                    tally.check(false, || format!("pipelined write: {e}"));
                }
            } else {
                let begun = {
                    let _rid = ibbe_sgx::telemetry::request_scope();
                    let _span = span("bench.read").enter();
                    pipe.read_begin(name)
                };
                match begun {
                    Ok(handle) => pending.push_back((handle, object as u32, self.gens[object])),
                    Err(e) => tally.check(false, || format!("read_begin: {e}")),
                }
                if pending.len() >= WINDOW {
                    let oldest = pending.pop_front().expect("non-empty");
                    redeem(pipe, &self.payloads, tally, oldest);
                }
            }
            seg.ops += 1;
        }
        while let Some(oldest) = pending.pop_front() {
            redeem(pipe, &self.payloads, tally, oldest);
        }
        let flushed = pipe.flush();
        seg.wall = t0.elapsed().as_secs_f64();
        if let Err(e) = flushed {
            tally.check(false, || format!("flush: {e}"));
        }
        seg.requests = requests_between(&before, &self.store.metrics());
        // enqueue → completion, from the session's own op log; a coalesced
        // write logs once, so completed writes are counted from the log
        for sample in pipe.take_op_log() {
            let slot = match sample.class {
                OpClass::Write => 0,
                OpClass::Read => 1,
            };
            seg.lat[slot].push(sample.latency.as_secs_f64());
        }
        tally.attempted += seg.lat[0].len() as u64;
        seg
    }

    /// Coalesced writes so far (0 for the serial client).
    pub fn data_metrics(&self) -> ibbe_sgx::dataplane::DataMetricsSnapshot {
        match &self.client {
            Client::Serial(s) => s.metrics(),
            Client::Pipelined(p) => p.metrics(),
        }
    }
}

impl Workload for Rw {
    fn name(&self) -> &'static str {
        match self.mode {
            Mode::Cpu | Mode::ZeroRttPipelined => "rw_cpu",
            Mode::Rtt => "rw_rtt",
        }
    }

    /// The tail slots are p95 where queueing makes the tail (`rw_rtt`, where
    /// p95 repeats within 3 %). At zero RTT a tail percentile measures the
    /// neighbours: over identical runs p95 moved 125–158 µs and p90
    /// 109–131 µs while p50 stayed within 1 %. There the slots hold the
    /// mean, which a stall in the program still moves but which repeats
    /// within 2 %; p99 is printed as information.
    fn slot_stats(&self) -> [Stat; 4] {
        let median = Stat::Percentile(50.0);
        match self.mode {
            Mode::Rtt => [
                median,
                median,
                Stat::Percentile(95.0),
                Stat::Percentile(95.0),
            ],
            Mode::Cpu | Mode::ZeroRttPipelined => [median, median, Stat::Mean, Stat::Mean],
        }
    }

    /// Both statistics of an op are taken from the same samples.
    fn slot_samples(&self) -> [usize; 4] {
        [0, 1, 0, 1]
    }

    fn segment(&mut self, budget: f64, tally: &mut Tally) -> Segment {
        match self.mode {
            Mode::Cpu => self.serial_segment(budget, tally),
            Mode::Rtt | Mode::ZeroRttPipelined => {
                self.pipelined_segment(Stop::AfterSeconds(budget), tally)
            }
        }
    }

    fn counters(&self) -> Values {
        let mut out = super::store_counters(&self.store.metrics());
        let data = self.data_metrics();
        out.push(("dataplane.session_key_refreshes", data.key_refreshes as f64));
        out.push((
            "dataplane.session_cas_conflicts",
            data.write_conflicts as f64,
        ));
        out.push((
            "dataplane.pipeline_coalesced_writes",
            data.coalesced_writes as f64,
        ));
        out
    }

    fn budgets(&self) -> [Option<BudgetSpec>; 3] {
        if self.mode.pipelined() {
            // the call enqueues; sealing happens at submission inside it
            return [
                Some(BudgetSpec::new("bench.write", "dataplane.pipeline")),
                Some(BudgetSpec::new("bench.read", "dataplane.pipeline")),
                None,
            ];
        }
        [
            Some(
                BudgetSpec::new("bench.write", "harness")
                    .with_steps(seal_steps("bench.write"))
                    .gated(),
            ),
            // `ClientSession::read` opens no span of its own: the root's
            // self time is the session's
            Some(
                BudgetSpec::new("bench.read", SESSION)
                    .with_steps(open_steps("bench.read"))
                    .gated(),
            ),
            None,
        ]
    }

    fn budget_metrics(&self, budgets: &[Option<OpBudget>; 3]) -> Values {
        match (self.mode, budgets) {
            (Mode::Cpu, [Some(write), Some(read), _]) => vec![
                ("dataplane.session_write_self_us", write.row(SESSION)),
                ("dataplane.session_read_self_us", read.row(SESSION)),
            ],
            _ => Values::new(),
        }
    }

    fn probes(&self, cfg: &Config) -> Values {
        let mut out = Values::new();
        layers::symcrypto_and_envelope(cfg, &mut out);
        layers::cloud_store(&mut out);
        layers::telemetry_disabled(&mut out);
        // the serial session never enters the pipeline or `exec`
        if self.mode == Mode::Rtt {
            layers::exec(&mut out);
            out.push((
                "dataplane.pipeline_zero_rtt_us_per_op",
                zero_rtt_pipelined_us_per_op(cfg),
            ));
        }
        out
    }

    fn finish(&mut self, tally: &mut Tally) -> Footprint {
        // the pipelined client drains first
        let session = match &mut self.client {
            Client::Serial(s) => s,
            Client::Pipelined(p) => p.session_mut(),
        };
        super::read_back(
            session,
            &self.store,
            &self.names,
            &self.gens,
            &self.payloads,
            tally,
        )
    }
}
