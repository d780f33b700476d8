//! [`PipelinedSession`]: a bounded in-flight window of store requests
//! over a [`ClientSession`].
//!
//! A serial session's throughput is capped at one round-trip time per
//! operation, no matter how many shards the store has — `sweep_scaling`'s
//! rw section measured exactly that (flat ~760 ops/s from 1 to 8 shards).
//! The pipelined session keeps up to `max_inflight` requests outstanding
//! through [`cloud_store::ObjectStore::submit`], so per-session
//! throughput scales with the number of independent store lanes
//! (shards × [`cloud_store::SUBMIT_LANES`]) instead of the round-trip
//! time.
//!
//! Observational equivalence with the serial session is the design
//! invariant, enforced by three ordering rules:
//!
//! 1. **Per-object total order.** At most one request per object is ever
//!    in flight; a second write to a busy object waits in the submission
//!    queue, and a read of a busy object drains the object's in-flight
//!    request first. Cross-object reordering is allowed — it is not
//!    observable through plaintext reads.
//! 2. **Program-order reads.** A read of an object with a *queued*
//!    (not yet submitted) write returns that write's payload directly: the
//!    value a serial session would have stored and fetched back.
//! 3. **Serial degeneration.** At `max_inflight == 1` the queue never
//!    holds a second entry, so no write is ever coalesced and every
//!    request completes before the next is submitted — the exact request
//!    count and per-shard order of a serial session.
//!
//! Writes still queued when another write to the same object arrives are
//! **coalesced** (last-write-wins before submission — both payloads were
//! doomed to be overwritten in order anyway); the CAS expectation is
//! stamped at submission and re-stamped from each completion, and a lost
//! CAS retries with the surviving payload at the winner's version.
//! Epoch semantics follow the serial session: every enqueue runs the same
//! zero-timeout invalidation check, and an observed rotation drains the
//! window so queued writes seal under the new ring at submission.

use crate::envelope::SealedObject;
use crate::error::DataError;
use crate::metrics::DataMetricsSnapshot;
use crate::session::ClientSession;
use cloud_store::{Request, Response, StoreError, StoreTicket};
use exec::Waker;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// CAS-conflict retries per pipelined write before it fails — the same
/// bound (and rationale) as the replay backend's serial retry loop.
const CONFLICT_RETRIES: u32 = 4;

/// How long one wait-for-completion sleep lasts before re-scanning the
/// window. Purely a liveness backstop: the waker wakes the session the
/// moment any ticket completes.
const REAP_SLICE: Duration = Duration::from_millis(50);

/// The operation class of an [`OpSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A pipelined write (enqueue → CAS completion processed).
    Write,
    /// A pipelined read (begin → payload decrypted).
    Read,
}

/// One completed operation's latency, recorded when the session was built
/// [`PipelinedSession::with_op_log`]. For a coalesced write the earliest
/// enqueue wins: the sample spans from the first merged `write()` call to
/// the surviving request's completion.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Which op class completed.
    pub class: OpClass,
    /// Enqueue-to-completion latency.
    pub latency: Duration,
}

/// A not-yet-submitted write, coalescing-eligible until it goes out.
struct QueuedWrite {
    plaintext: Vec<u8>,
    enqueued: Instant,
    /// Telemetry request id minted at enqueue — adopted at submission (and
    /// on every retry) so the eventual store request joins the chain of
    /// the `write()` call that queued it.
    rid: u64,
}

enum InflightKind {
    /// The payload is kept so a lost CAS can retry with the surviving
    /// (possibly coalesced) plaintext at the winner's version.
    Write {
        plaintext: Vec<u8>,
    },
    Read,
}

struct InflightOp {
    id: u64,
    object: String,
    kind: InflightKind,
    ticket: StoreTicket,
    enqueued: Instant,
    conflicts: u32,
    transients: u32,
    /// Telemetry request id of the originating `write()`/`read_begin()`,
    /// re-adopted when a retry submits a fresh store request.
    rid: u64,
}

/// A finished read, parked until its [`ReadHandle`] is waited on.
struct DoneRead {
    object: String,
    enqueued: Instant,
    result: Result<Option<(bytes::Bytes, u64)>, StoreError>,
}

enum ReadState {
    /// Served from a queued (unsubmitted) write — rule 2 above.
    Local {
        object: String,
        plaintext: Vec<u8>,
        enqueued: Instant,
    },
    /// A submitted GET, identified by its in-flight id.
    Inflight(u64),
}

/// The handle [`PipelinedSession::read_begin`] returns; redeem it with
/// [`PipelinedSession::read_wait`]. Every handle should be waited on —
/// an abandoned handle's completed GET is simply discarded on drop.
pub struct ReadHandle(ReadState);

impl core::fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.0 {
            ReadState::Local { object, .. } => write!(f, "ReadHandle(local {object})"),
            ReadState::Inflight(id) => write!(f, "ReadHandle(inflight #{id})"),
        }
    }
}

/// A pipelined wrapper around a [`ClientSession`] (see the module docs
/// for the ordering rules). Drop flushes best-effort; call
/// [`PipelinedSession::flush`] to observe drain errors.
pub struct PipelinedSession {
    inner: ClientSession,
    window: usize,
    /// Submission order of `queued` (unique object names).
    queue: VecDeque<String>,
    /// Unsubmitted writes by object — the coalescing buffer.
    queued: HashMap<String, QueuedWrite>,
    inflight: Vec<InflightOp>,
    /// Completed GETs waiting for their handles.
    done_reads: HashMap<u64, DoneRead>,
    waker: Arc<Waker>,
    next_id: u64,
    op_log: Option<Vec<OpSample>>,
}

impl PipelinedSession {
    /// Wraps `inner` with an in-flight window of `max_inflight` requests
    /// (clamped to at least 1; 1 degenerates to exactly serial
    /// semantics).
    #[must_use]
    pub fn new(inner: ClientSession, max_inflight: usize) -> Self {
        Self {
            inner,
            window: max_inflight.max(1),
            queue: VecDeque::new(),
            queued: HashMap::new(),
            inflight: Vec::new(),
            done_reads: HashMap::new(),
            waker: Arc::new(Waker::new()),
            next_id: 0,
            op_log: None,
        }
    }

    /// Enables per-operation latency sampling (see
    /// [`PipelinedSession::take_op_log`]).
    #[must_use]
    pub fn with_op_log(mut self) -> Self {
        self.op_log = Some(Vec::new());
        self
    }

    /// Takes the samples recorded so far (empty unless built
    /// [`PipelinedSession::with_op_log`]).
    pub fn take_op_log(&mut self) -> Vec<OpSample> {
        self.op_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The in-flight window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests currently submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Writes queued but not yet submitted (coalescing-eligible).
    pub fn queued_writes(&self) -> usize {
        self.queue.len()
    }

    /// The wrapped session's counters.
    pub fn metrics(&self) -> DataMetricsSnapshot {
        self.inner.metrics()
    }

    /// The wrapped serial session, for diagnostics and post-run reads.
    /// Drains the pipeline first (best-effort — use
    /// [`PipelinedSession::flush`] to observe drain errors), so the
    /// borrow never races queued work.
    pub fn session_mut(&mut self) -> &mut ClientSession {
        let _ = self.flush();
        &mut self.inner
    }

    /// Read-only view of the wrapped session.
    pub fn session(&self) -> &ClientSession {
        &self.inner
    }

    /// Enqueues a write of `plaintext` as `object`. Returns once the
    /// write is queued or submitted — its CAS completes asynchronously;
    /// a completion failure surfaces from the call that processes it
    /// (a later write, a read, or [`PipelinedSession::flush`]).
    ///
    /// # Errors
    /// Epoch-refresh failures, or a failure of some *earlier* operation
    /// whose completion was processed while making room in the window.
    pub fn write(&mut self, object: &str, plaintext: &[u8]) -> Result<(), DataError> {
        let _rid = telemetry::request_scope();
        self.observe_epoch()?;
        if let Some(queued) = self.queued.get_mut(object) {
            // still unsubmitted: last-write-wins, one request saved
            queued.plaintext = plaintext.to_vec();
            self.inner.metrics_ref().record_coalesced_write();
            return Ok(());
        }
        self.queue.push_back(object.to_string());
        self.queued.insert(
            object.to_string(),
            QueuedWrite {
                plaintext: plaintext.to_vec(),
                enqueued: Instant::now(),
                rid: telemetry::current_request_id(),
            },
        );
        self.pump()?;
        // backpressure: never hold more unsubmitted writes than the
        // window (at window=1 this drains the queue entirely, which is
        // what makes coalescing impossible there)
        while self.queue.len() >= self.window {
            self.wait_for_progress()?;
            self.pump()?;
        }
        Ok(())
    }

    /// Synchronous read: [`PipelinedSession::read_begin`] followed by
    /// [`PipelinedSession::read_wait`].
    ///
    /// # Errors
    /// As for the two halves.
    pub fn read(&mut self, object: &str) -> Result<Vec<u8>, DataError> {
        let handle = self.read_begin(object)?;
        self.read_wait(handle)
    }

    /// Starts a pipelined read of `object`, returning a handle to redeem
    /// with [`PipelinedSession::read_wait`]. A read of an object with a
    /// queued write is served from that write's payload (program order);
    /// a read of an object with an in-flight request drains that request
    /// first (per-object total order).
    ///
    /// # Errors
    /// Epoch-refresh failures, or a failure of an earlier operation
    /// processed while draining.
    pub fn read_begin(&mut self, object: &str) -> Result<ReadHandle, DataError> {
        let _rid = telemetry::request_scope();
        self.observe_epoch()?;
        if let Some(queued) = self.queued.get(object) {
            return Ok(ReadHandle(ReadState::Local {
                object: object.to_string(),
                plaintext: queued.plaintext.clone(),
                enqueued: Instant::now(),
            }));
        }
        self.drain_object(object)?;
        while self.inflight.len() >= self.window {
            self.wait_for_progress()?;
            self.pump()?;
        }
        let folder = self.inner.folder_of(object).to_string();
        let ticket = self
            .inner
            .store()
            .submit(Request::get(folder, object.to_string()));
        let id = self.push_inflight(
            object.to_string(),
            InflightKind::Read,
            ticket,
            Instant::now(),
        );
        Ok(ReadHandle(ReadState::Inflight(id)))
    }

    /// Completes a read started with [`PipelinedSession::read_begin`]:
    /// waits for the GET, records the observed version, and decrypts
    /// with the serial read path's refresh-once semantics.
    ///
    /// # Errors
    /// [`DataError::NotFound`], [`DataError::UnknownEpoch`],
    /// [`DataError::AuthFailed`] — the serial read contract — plus any
    /// failure of an earlier operation processed while waiting.
    pub fn read_wait(&mut self, handle: ReadHandle) -> Result<Vec<u8>, DataError> {
        match handle.0 {
            ReadState::Local {
                object: _,
                plaintext,
                enqueued,
            } => {
                // the value a serial session would have stored and read
                // back; sealed/openable at the current epoch by
                // construction
                self.inner.metrics_ref().record_read(false);
                self.log_op(OpClass::Read, enqueued);
                Ok(plaintext)
            }
            ReadState::Inflight(id) => {
                while !self.done_reads.contains_key(&id) {
                    self.wait_for_progress()?;
                }
                let done = self.done_reads.remove(&id).expect("just observed");
                let object = done.object;
                match done.result {
                    Ok(Some((bytes, version))) => {
                        self.inner.note_version(&object, version);
                        let sealed = SealedObject::from_bytes(&bytes)?;
                        let plaintext = self.inner.open_sealed(&object, &sealed)?;
                        self.log_op(OpClass::Read, done.enqueued);
                        Ok(plaintext)
                    }
                    Ok(None) => {
                        self.inner.forget_version(&object);
                        Err(DataError::NotFound(object))
                    }
                    Err(e) => Err(e.into()),
                }
            }
        }
    }

    /// Drains every queued and in-flight request; returns once the
    /// pipeline is empty.
    ///
    /// # Errors
    /// The first completion failure encountered while draining (later
    /// requests keep draining on the next call / on drop).
    pub fn flush(&mut self) -> Result<(), DataError> {
        loop {
            self.pump()?;
            if self.queue.is_empty() && self.inflight.is_empty() {
                return Ok(());
            }
            self.wait_for_progress()?;
        }
    }

    // --- internals --------------------------------------------------------

    /// The serial session's pre-operation invalidation check, plus the
    /// pipelined addition: when the check observes a rotation, the
    /// in-flight window is drained, so everything still queued seals
    /// under the new ring at submission.
    fn observe_epoch(&mut self) -> Result<(), DataError> {
        let before = self.inner.current_epoch();
        self.inner.maybe_refresh()?;
        if self.inner.current_epoch() != before {
            self.drain_inflight()?;
        }
        Ok(())
    }

    /// Submits queued writes while the window has room, skipping (not
    /// reordering past) objects that already have a request in flight.
    fn pump(&mut self) -> Result<(), DataError> {
        let mut i = 0;
        while self.inflight.len() < self.window && i < self.queue.len() {
            if self.object_in_flight(&self.queue[i]) {
                // per-object order: this write waits for the in-flight
                // request; later queued objects may still go out
                i += 1;
                continue;
            }
            let object = self.queue.remove(i).expect("index checked");
            let queued = self.queued.remove(&object).expect("queue/queued agree");
            self.submit_write(object, queued.plaintext, queued.enqueued, 0, 0, queued.rid)?;
        }
        Ok(())
    }

    /// Seals under the *current* ring and submits one CAS write under the
    /// originating `write()`'s request id.
    fn submit_write(
        &mut self,
        object: String,
        plaintext: Vec<u8>,
        enqueued: Instant,
        conflicts: u32,
        transients: u32,
        rid: u64,
    ) -> Result<(), DataError> {
        let _rid = telemetry::adopt_request_id(rid);
        let sealed = self.inner.seal_object(&object, &plaintext)?;
        let expected = self.inner.expected_version(&object);
        let folder = self.inner.folder_of(&object).to_string();
        let ticket = self.inner.store().submit(Request::put_if_version(
            folder,
            object.clone(),
            sealed.to_bytes(),
            expected,
        ));
        let id = self.push_inflight(object, InflightKind::Write { plaintext }, ticket, enqueued);
        let op = self
            .inflight
            .iter_mut()
            .find(|op| op.id == id)
            .expect("just pushed");
        op.conflicts = conflicts;
        op.transients = transients;
        Ok(())
    }

    fn push_inflight(
        &mut self,
        object: String,
        kind: InflightKind,
        ticket: StoreTicket,
        enqueued: Instant,
    ) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        ticket.on_complete(Arc::clone(&self.waker));
        self.inflight.push(InflightOp {
            id,
            object,
            kind,
            ticket,
            enqueued,
            conflicts: 0,
            transients: 0,
            rid: telemetry::current_request_id(),
        });
        telemetry::event("pipeline.window")
            .with("inflight", self.inflight.len())
            .with("queued", self.queue.len())
            .with("window", self.window)
            .emit();
        id
    }

    fn object_in_flight(&self, object: &str) -> bool {
        self.inflight.iter().any(|op| op.object == object)
    }

    /// Blocks until the request in flight for `object` (if any) has been
    /// processed — the read path's per-object ordering barrier.
    fn drain_object(&mut self, object: &str) -> Result<(), DataError> {
        while self.object_in_flight(object) {
            self.wait_for_progress()?;
        }
        Ok(())
    }

    fn drain_inflight(&mut self) -> Result<(), DataError> {
        while !self.inflight.is_empty() {
            self.wait_for_progress()?;
        }
        Ok(())
    }

    /// Waits (on the waker) until at least one in-flight request has
    /// completed, then processes every completed one. Returns
    /// immediately when nothing is in flight.
    fn wait_for_progress(&mut self) -> Result<(), DataError> {
        loop {
            if self.inflight.is_empty() {
                return Ok(());
            }
            let seen = self.waker.current();
            if self.process_ready()? > 0 {
                return Ok(());
            }
            self.waker.wait_past(seen, REAP_SLICE);
        }
    }

    /// Processes every completed in-flight request (writes may resubmit
    /// themselves on conflict/transient failure — that counts as
    /// processed, the retry is a fresh in-flight entry).
    fn process_ready(&mut self) -> Result<usize, DataError> {
        let mut processed = 0;
        let mut i = 0;
        while i < self.inflight.len() {
            if !self.inflight[i].ticket.is_ready() {
                i += 1;
                continue;
            }
            let op = self.inflight.remove(i);
            processed += 1;
            self.complete_op(op)?;
        }
        Ok(processed)
    }

    fn complete_op(&mut self, op: InflightOp) -> Result<(), DataError> {
        let result = op.ticket.wait(); // ready: does not block
        match op.kind {
            InflightKind::Write { plaintext } => self.complete_write(
                op.object,
                plaintext,
                op.enqueued,
                op.conflicts,
                op.transients,
                op.rid,
                result,
            ),
            InflightKind::Read => match result {
                Err(ref e) if e.is_transient() && op.transients + 1 < self.retry_attempts() => {
                    self.backoff(op.transients);
                    let _rid = telemetry::adopt_request_id(op.rid);
                    let folder = self.inner.folder_of(&op.object).to_string();
                    let ticket = self
                        .inner
                        .store()
                        .submit(Request::get(folder, op.object.clone()));
                    ticket.on_complete(Arc::clone(&self.waker));
                    self.inflight.push(InflightOp {
                        transients: op.transients + 1,
                        ticket,
                        ..op
                    });
                    Ok(())
                }
                result => {
                    self.done_reads.insert(
                        op.id,
                        DoneRead {
                            object: op.object,
                            enqueued: op.enqueued,
                            result: result.map(|response| match response {
                                Response::Get(found) => found,
                                other => unreachable!("GET completed as {other:?}"),
                            }),
                        },
                    );
                    Ok(())
                }
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn complete_write(
        &mut self,
        object: String,
        plaintext: Vec<u8>,
        enqueued: Instant,
        conflicts: u32,
        transients: u32,
        rid: u64,
        result: Result<Response, StoreError>,
    ) -> Result<(), DataError> {
        match result {
            Ok(Response::Put { version }) => {
                self.inner.note_version(&object, version);
                self.inner.metrics_ref().record_write();
                self.log_op(OpClass::Write, enqueued);
                Ok(())
            }
            Ok(other) => unreachable!("CAS completed as {other:?}"),
            Err(StoreError::Conflict(conflict)) => {
                self.inner.metrics_ref().record_write_conflict();
                if conflicts >= CONFLICT_RETRIES {
                    return Err(DataError::Conflict(conflict));
                }
                // adopt the winning version and retry with the surviving
                // payload — the pipelined analogue of the serial
                // fetch-adopt-retry loop
                self.inner.note_version(&object, conflict.current);
                self.submit_write(object, plaintext, enqueued, conflicts + 1, transients, rid)
            }
            Err(e) if e.is_transient() => {
                if transients + 1 >= self.retry_attempts() {
                    return Err(e.into());
                }
                self.backoff(transients);
                self.submit_write(object, plaintext, enqueued, conflicts, transients + 1, rid)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn retry_attempts(&self) -> u32 {
        self.inner.retry_policy().attempts.max(1)
    }

    /// The serial retry policy's doubling backoff, applied before the
    /// `n+1`-th attempt.
    fn backoff(&self, transients_so_far: u32) {
        let base = self.inner.retry_policy().backoff;
        if !base.is_zero() {
            std::thread::sleep(base * 2u32.saturating_pow(transients_so_far));
        }
    }

    fn log_op(&mut self, class: OpClass, enqueued: Instant) {
        if let Some(log) = self.op_log.as_mut() {
            log.push(OpSample {
                class,
                latency: enqueued.elapsed(),
            });
        }
    }
}

impl Drop for PipelinedSession {
    /// Best-effort drain: completed writes are never abandoned with their
    /// versions untracked. Errors are dropped — flush explicitly to see
    /// them.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl core::fmt::Debug for PipelinedSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PipelinedSession(window {}, {} in flight, {} queued, over {:?})",
            self.window,
            self.inflight.len(),
            self.queue.len(),
            self.inner
        )
    }
}
