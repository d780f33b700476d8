//! The data-plane system under test for read/write trace replay: one
//! backend drives the full stack (admin, store, writer session, a
//! one-group sweep fleet) through the generic `workloads` event driver.
//! The backend is built over any [`cloud_store::ObjectStore`], so the same
//! trace replays unchanged on a single `CloudStore` or a folder-sharded
//! `ShardedStore` with a matching [`SweepScheduler`] width.

use acs::Admin;
use cloud_store::{CloudStore, StoreHandle};
use dataplane::{
    ClientSession, DataError, DataMetricsSnapshot, FleetConfig, PipelinedSession, SweepConfig,
    SweepScheduler, SweepTask,
};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionSize};
use workloads::rw::{RwOp, RwTrace};
use workloads::{EventBackend, TraceOp};

/// Reserved identity for the replay backend's writer/reader session.
pub const WRITER_IDENTITY: &str = "__writer";

/// Reserved identity for the sweep workers' privileged sessions.
pub const SWEEPER_IDENTITY: &str = "__sweeper";

/// CAS-conflict retries per replayed write before the event fails (each
/// retry re-fetches the winner first, so the bound is only ever hit under
/// a pathological conflict storm).
const CONFLICT_RETRIES: usize = 4;

/// In-flight window of the writer session when
/// [`RwSystemConfig::pipelined`] is set — deep enough to exercise
/// coalescing and cross-object reordering without hiding ordering bugs
/// behind a huge window.
pub const PIPELINE_WINDOW: usize = 8;

/// A replayed event that failed, with the event context attached. The
/// generic `workloads` driver applies events infallibly, so the backend
/// records the first of these and skips the rest of the trace
/// (fail-stop) instead of panicking the replay thread — see
/// [`RwSystemBackend::failure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayError {
    /// The event kind that failed: `"write"`, `"read"` or `"churn"`.
    pub op: &'static str,
    /// The object name, or a churn-batch summary.
    pub target: String,
    /// The underlying data-plane failure; `None` for an eager churn whose
    /// sweep ended unconverged without one.
    pub source: Option<DataError>,
}

impl ReplayError {
    fn new(op: &'static str, target: impl Into<String>, source: DataError) -> Self {
        Self {
            op,
            target: target.into(),
            source: Some(source),
        }
    }
}

impl core::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "replayed {} of {}", self.op, self.target)?;
        match &self.source {
            Some(e) => write!(f, ": {e}"),
            None => write!(f, ": the sweep did not converge"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source.as_ref().map(|e| e as _)
    }
}

/// When a replayed churn event moves stored objects to a rotated epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Revocation {
    /// Re-key and arm the group's sweep task; the fleet converges later
    /// (O(1) churn, a bounded stale window).
    Lazy,
    /// Re-key, arm and converge before the event returns (O(n) churn);
    /// the event fails unless the group's sweep converged.
    Eager,
}

/// Deployment shape of a replayed data-plane system.
#[derive(Clone, Copy, Debug)]
pub struct RwSystemConfig {
    /// IBBE partition size.
    pub partition_size: usize,
    /// How churn events re-encrypt stored objects.
    pub revocation: Revocation,
    /// The group's sweep parameters.
    pub sweep: SweepConfig,
    /// Payload size of every written object.
    pub payload_len: usize,
    /// Seed for the engine and the sessions' DEK/nonce generators.
    pub seed: u64,
    /// Data folders the namespace is spread over (see
    /// [`dataplane::data_shard_folder`]).
    pub data_shards: usize,
    /// Sweep-fleet workers, `W` (usually equal to `data_shards`).
    pub sweep_workers: usize,
    /// Drive reads and writes through a [`PipelinedSession`] (window
    /// [`PIPELINE_WINDOW`]) instead of the serial [`ClientSession`] —
    /// same trace, same observable plaintexts, pipelined request flow.
    pub pipelined: bool,
}

impl Default for RwSystemConfig {
    fn default() -> Self {
        Self {
            partition_size: 4,
            revocation: Revocation::Lazy,
            sweep: SweepConfig::default(),
            payload_len: 64,
            seed: 0xda7a,
            data_shards: 1,
            sweep_workers: 1,
            pipelined: false,
        }
    }
}

/// The replay writer: either session type behind one op surface, so the
/// event arms stay session-agnostic.
enum WriterSession {
    Serial(ClientSession),
    Pipelined(PipelinedSession),
}

impl WriterSession {
    fn metrics(&self) -> DataMetricsSnapshot {
        match self {
            WriterSession::Serial(session) => session.metrics(),
            WriterSession::Pipelined(pipeline) => pipeline.metrics(),
        }
    }

    /// The serial session under either variant (draining the pipeline
    /// first, so the borrow never races queued work).
    fn session_mut(&mut self) -> &mut ClientSession {
        match self {
            WriterSession::Serial(session) => session,
            WriterSession::Pipelined(pipeline) => pipeline.session_mut(),
        }
    }

    /// Completes every outstanding pipelined request (no-op for serial).
    fn drain(&mut self) -> Result<(), DataError> {
        match self {
            WriterSession::Serial(_) => Ok(()),
            WriterSession::Pipelined(pipeline) => pipeline.flush(),
        }
    }
}

/// A complete data-plane deployment replaying [`RwOp`] events: reads and
/// writes go through a member [`ClientSession`], churn bursts through the
/// admin under the configured [`Revocation`] (eager sweeps run
/// synchronously inside the churn event).
pub struct RwSystemBackend {
    admin: Admin,
    group: String,
    session: WriterSession,
    /// A one-group fleet: the trace's group is its only task (id 0).
    sweepers: SweepScheduler,
    config: RwSystemConfig,
    payload: Vec<u8>,
    seq: u64,
    read_digest: u64,
    failure: Option<ReplayError>,
}

impl RwSystemBackend {
    /// Boots a single-store, single-shard deployment — the classic shape
    /// (equivalent to [`RwSystemBackend::with_store`] over a fresh
    /// [`CloudStore`] and a one-worker fleet).
    pub fn new(
        partition_size: usize,
        group: &str,
        trace: &RwTrace,
        revocation: Revocation,
        sweep: SweepConfig,
        payload_len: usize,
        seed: u64,
    ) -> Self {
        Self::with_store(
            CloudStore::new(),
            group,
            trace,
            RwSystemConfig {
                partition_size,
                revocation,
                sweep,
                payload_len,
                seed,
                ..RwSystemConfig::default()
            },
        )
    }

    /// Boots an engine/admin (deterministically from `config.seed`) over
    /// any store, creates the trace's group with the service identities
    /// appended, and opens the writer session plus a [`SweepScheduler`] of
    /// `config.sweep_workers` workers serving one unit per
    /// `config.data_shards` data folder.
    pub fn with_store(
        store: impl Into<StoreHandle>,
        group: &str,
        trace: &RwTrace,
        config: RwSystemConfig,
    ) -> Self {
        let store = store.into();
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&config.seed.to_le_bytes());
        let engine = GroupEngine::bootstrap_seeded(
            PartitionSize::new(config.partition_size).expect("partition size"),
            seed_bytes,
        )
        .expect("bootstrap");
        let admin = Admin::new(engine, store.clone());
        let mut members = trace.initial_members.clone();
        members.push(WRITER_IDENTITY.to_string());
        members.push(SWEEPER_IDENTITY.to_string());
        admin.create_group(group, members).expect("create group");

        let pk = admin.engine().public_key().clone();
        let session = |identity: &str, seed: u64| {
            ClientSession::with_seed(
                identity,
                admin
                    .engine()
                    .extract_user_key(identity)
                    .expect("service usk"),
                pk.clone(),
                store.clone(),
                group,
                seed,
            )
            .with_data_shards(config.data_shards)
        };
        let writer = session(WRITER_IDENTITY, config.seed ^ 0x5e55);
        let writer = if config.pipelined {
            WriterSession::Pipelined(PipelinedSession::new(writer, PIPELINE_WINDOW))
        } else {
            WriterSession::Serial(writer)
        };
        let mut sweepers = SweepScheduler::new(FleetConfig {
            workers: config.sweep_workers.max(1),
            ..FleetConfig::default()
        });
        sweepers.register(SweepTask::new(
            (0..config.data_shards)
                .map(|w| session(SWEEPER_IDENTITY, config.seed ^ 0x5eed ^ (w as u64) << 32))
                .collect(),
            config.sweep,
        ));
        Self {
            admin,
            group: group.to_string(),
            session: writer,
            sweepers,
            config,
            payload: vec![0xd5; config.payload_len],
            seq: 0,
            read_digest: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            failure: None,
        }
    }

    /// The underlying admin (store metrics, metadata).
    pub fn admin(&self) -> &Admin {
        &self.admin
    }

    /// The deployment shape.
    pub fn config(&self) -> RwSystemConfig {
        self.config
    }

    /// The writer session (post-replay reads and diagnostics). Under a
    /// pipelined deployment this drains the window first, so the serial
    /// view is always consistent.
    pub fn session_mut(&mut self) -> &mut ClientSession {
        self.session.session_mut()
    }

    /// The writer session's counters.
    pub fn session_metrics(&self) -> DataMetricsSnapshot {
        self.session.metrics()
    }

    /// FNV-1a fold of `(object name, plaintext)` over every successful
    /// replayed read, in event order. Two deployments that replayed the
    /// same trace and observed the same bytes at every read have equal
    /// digests — the observational-equivalence check the pipelined
    /// property tests assert.
    pub fn read_digest(&self) -> u64 {
        self.read_digest
    }

    fn fold_read(&mut self, object: &str, plaintext: &[u8]) {
        let mut h = self.read_digest;
        for byte in object.as_bytes().iter().chain([0xffu8].iter()) {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for byte in plaintext {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.read_digest = h;
    }

    /// The sweep fleet (drive it between events under the lazy policy).
    pub fn sweeper_mut(&mut self) -> &mut SweepScheduler {
        &mut self.sweepers
    }

    /// The sweep sessions' merged counters.
    pub fn sweeper_metrics(&self) -> DataMetricsSnapshot {
        self.sweepers.metrics().total
    }

    fn churn(&mut self, ops: &[TraceOp]) -> Result<(), ReplayError> {
        let target = format!("batch of {}", ops.len());
        let fail = |e: DataError| ReplayError::new("churn", target.clone(), e);
        // Complete the window before the membership change: queued writes
        // sealed under the outgoing epoch must land (and be swept) rather
        // than straddle the rotation.
        self.session.drain().map_err(fail)?;
        let mut batch = MembershipBatch::new();
        for op in ops {
            match op {
                TraceOp::Add { user } => batch.add(user.clone()),
                TraceOp::Remove { user } => batch.remove(user.clone()),
            };
        }
        let outcome = self
            .admin
            .apply_batch(&self.group, &batch)
            .map_err(|e| fail(e.into()))?;
        if !outcome.gk_rotated {
            return Ok(());
        }
        self.sweepers.arm(0);
        if self.config.revocation == Revocation::Eager {
            let run = self.sweepers.converge_all().map_err(fail)?;
            let own = &run.groups[0];
            // a fatal error also leaves the report unconverged
            if !own.report.converged {
                return Err(ReplayError {
                    op: "churn",
                    target,
                    source: own.error.clone(),
                });
            }
        }
        Ok(())
    }

    /// The first event failure of the replay, if any. The infallible
    /// [`EventBackend::apply`] records it and skips every later event, so
    /// a finished replay with `failure() == None` really did apply the
    /// whole trace.
    pub fn failure(&self) -> Option<&ReplayError> {
        self.failure.as_ref()
    }

    /// Takes the recorded failure, re-arming the backend for more events.
    pub fn take_failure(&mut self) -> Option<ReplayError> {
        self.failure.take()
    }

    /// Applies one event, surfacing failures as typed [`ReplayError`]s
    /// instead of panicking. A lost CAS race on a write adopts the
    /// winning version and retries (bounded).
    ///
    /// # Errors
    /// The failed session or churn call, wrapped with the event context.
    pub fn try_apply(&mut self, event: &RwOp) -> Result<(), ReplayError> {
        match event {
            RwOp::Write { object } => {
                self.seq = self.seq.wrapping_add(1);
                let n = self.payload.len().min(8);
                // low-order counter bytes, so short payloads still vary
                self.payload[..n].copy_from_slice(&self.seq.to_le_bytes()[..n]);
                let payload = self.payload.clone();
                match &mut self.session {
                    WriterSession::Serial(session) => {
                        let mut conflicts = 0;
                        loop {
                            match session.write(object, &payload) {
                                Ok(_) => return Ok(()),
                                Err(DataError::Conflict(_)) if conflicts < CONFLICT_RETRIES => {
                                    conflicts += 1;
                                    // adopt the winning version, then retry
                                    session.fetch(object).map_err(|e| {
                                        ReplayError::new("conflicted re-fetch", object.clone(), e)
                                    })?;
                                }
                                Err(e) => return Err(ReplayError::new("write", object.clone(), e)),
                            }
                        }
                    }
                    // the pipeline retries lost CAS races internally
                    WriterSession::Pipelined(pipeline) => pipeline
                        .write(object, &payload)
                        .map_err(|e| ReplayError::new("write", object.clone(), e)),
                }
            }
            RwOp::Read { object } => {
                let plaintext = match &mut self.session {
                    WriterSession::Serial(session) => session.read(object),
                    WriterSession::Pipelined(pipeline) => pipeline.read(object),
                }
                .map_err(|e| ReplayError::new("read", object.clone(), e))?;
                self.fold_read(object, &plaintext);
                Ok(())
            }
            RwOp::Churn { ops } => self.churn(ops),
        }
    }
}

impl EventBackend<RwOp> for RwSystemBackend {
    /// Fail-stop, never panicking: the first [`ReplayError`] is recorded
    /// (see [`RwSystemBackend::failure`]) and every later event is
    /// skipped, so post-replay assertions can distinguish "trace
    /// diverged" from "backend crashed mid-trace".
    fn apply(&mut self, event: &RwOp) {
        if self.failure.is_some() {
            return;
        }
        if let Err(e) = self.try_apply(event) {
            self.failure = Some(e);
        }
    }
}

impl core::fmt::Debug for RwSystemBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "RwSystemBackend({}, {:?}, {}B payload, {} data shards, {} sweep workers)",
            self.group,
            self.config.revocation,
            self.payload.len(),
            self.config.data_shards,
            self.config.sweep_workers
        )
    }
}
