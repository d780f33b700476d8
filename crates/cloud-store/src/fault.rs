//! Deterministic fault injection behind the [`ObjectStore`] trait.
//!
//! [`FaultyStore`] wraps any store and injects — on a seed-driven,
//! reproducible schedule — the partial failures a real cloud exhibits:
//! **outages** (every request against a folder of the affected outage
//! domain is refused for a wall-clock window), individual request **timeouts**,
//! **torn long-polls** (the poll returns early with no changes and the
//! *unchanged* cursor, so no notification is ever lost), and spurious
//! **CAS-conflict storms** (a conditional PUT is rejected with the item's
//! true current version without being executed; a conditional multi-write
//! is rejected naming its first conditional item, with that item's true
//! version).
//!
//! Faults are injected **before** delegating to the inner store, so a
//! failed request has no partial effect and is always safe to retry —
//! which is what makes fault-injected runs comparable, migration count by
//! migration count, to fault-free ones.
//!
//! The wrapper intercepts [`ObjectStore::call`] and
//! [`ObjectStore::submit`] with one shared roll, so every verb — blocking
//! or queued — meets the same schedule. Fallible consumers call the `try_*`
//! verbs and see [`StoreError`]; legacy infallible calls ride out the fault
//! (bounded by the outage window) so existing code cannot observe a torn
//! write.
//!
//! ```
//! use cloud_store::{CloudStore, FaultConfig, FaultyStore, ObjectStore, StoreError};
//! let store = FaultyStore::new(CloudStore::new(), FaultConfig::default());
//! store.injector().force_outage(0, std::time::Duration::from_secs(60));
//! let err = store.try_get("g", "item").unwrap_err();
//! assert!(matches!(err, StoreError::Unavailable { .. }));
//! store.injector().heal();
//! assert!(store.try_get("g", "item").unwrap().is_none());
//! ```

use crate::metrics::MetricsSnapshot;
use crate::object_store::ObjectStore;
use crate::sharded::stable_hash64;
use crate::store::{PollResult, VersionConflict};
use crate::submit::{completed_ticket, BatchWrite, Request, RequestOp, Response, StoreTicket};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A store request refused or lost by the (simulated) cloud.
///
/// `#[non_exhaustive]`: real object stores have a long tail of failure
/// modes — downstream matches must keep a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The request's outage domain is inside an outage window.
    Unavailable {
        /// Index of the affected domain ([`FaultInjector::domain_of`]).
        domain: usize,
    },
    /// The individual request was dropped (no effect on the store).
    Timeout,
    /// A conditional PUT lost the race; carries the item's true current
    /// version. Folded in so `try_put_if_version` has one error type.
    Conflict(VersionConflict),
    /// A conditional multi-write was rejected and wrote nothing. Names
    /// every conditional item whose expectation failed, in request order,
    /// with that item's current version (`0` if absent).
    BatchConflict(Vec<(String, u64)>),
}

impl StoreError {
    /// True for errors that a retry (possibly after a backoff) can clear:
    /// outages end and timeouts are per-request. Conflicts are *not*
    /// transient — the caller must re-read before retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, Self::Unavailable { .. } | Self::Timeout)
    }
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Unavailable { domain } => write!(f, "store domain {domain} unavailable"),
            Self::Timeout => write!(f, "store request timed out"),
            Self::Conflict(c) => write!(f, "{c}"),
            Self::BatchConflict(lost) => {
                write!(f, "conditional batch rejected on {} item(s)", lost.len())
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<VersionConflict> for StoreError {
    fn from(conflict: VersionConflict) -> Self {
        Self::Conflict(conflict)
    }
}

/// Knobs of a [`FaultInjector`] schedule. All probabilities are per
/// request, rolled from one seeded generator, so a `(seed, workload)`
/// pair replays the identical fault schedule.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the schedule's random generator.
    pub seed: u64,
    /// Number of outage domains. Folders fall into domains by
    /// `stable_hash64(folder) % domains`, independently of a sharded
    /// store's placement (see [`FaultInjector::domain_of`]).
    pub domains: usize,
    /// Per-request probability of dropping the request ([`StoreError::Timeout`]).
    pub timeout_prob: f64,
    /// Per-request probability of starting an outage on the request's domain.
    pub outage_prob: f64,
    /// Wall-clock length of an injected outage window.
    pub outage: Duration,
    /// Per-poll probability of tearing a long poll (early return, no
    /// changes, cursor unchanged).
    pub torn_poll_prob: f64,
    /// Per-CAS probability of a spurious conflict (the PUT — or the
    /// conditional multi-write — is not executed; the reported version is
    /// the item's true current one).
    pub cas_storm_prob: f64,
}

impl Default for FaultConfig {
    /// A quiet schedule: no faults until probabilities are raised or an
    /// outage is forced.
    fn default() -> Self {
        Self {
            seed: 0,
            domains: 1,
            timeout_prob: 0.0,
            outage_prob: 0.0,
            outage: Duration::from_millis(25),
            torn_poll_prob: 0.0,
            cas_storm_prob: 0.0,
        }
    }
}

impl FaultConfig {
    /// The canned moderate-chaos schedule: short per-domain outages,
    /// occasional timeouts, torn polls and spurious CAS conflicts, all
    /// driven by `seed`.
    pub fn canned(seed: u64, domains: usize) -> Self {
        Self {
            seed,
            domains: domains.max(1),
            timeout_prob: 0.05,
            outage_prob: 0.01,
            outage: Duration::from_millis(25),
            torn_poll_prob: 0.2,
            cas_storm_prob: 0.05,
        }
    }
}

/// Counters of what a [`FaultInjector`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests that passed through the injector (including refused ones).
    pub requests: u64,
    /// Requests refused because their domain was inside an outage window.
    pub unavailable: u64,
    /// Outage windows started (probabilistic and forced).
    pub outages: u64,
    /// Requests dropped as timeouts.
    pub timeouts: u64,
    /// Long polls torn (early empty return, cursor preserved).
    pub torn_polls: u64,
    /// Spurious CAS conflicts reported.
    pub cas_conflicts: u64,
    /// Armed panics fired.
    pub panics: u64,
}

struct InjectorState {
    rng: StdRng,
    /// Per-domain outage windows: `Some(until)` while the domain is down.
    outages: Vec<Option<Instant>>,
    stats: FaultStats,
    /// One-shot panic trigger: fires on the request that decrements it
    /// past zero (see [`FaultInjector::arm_panic`]).
    panic_after: Option<u64>,
    enabled: bool,
}

/// The shared schedule driver behind one or more [`FaultyStore`] wrappers.
pub struct FaultInjector {
    config: FaultConfig,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// A new injector for `config`, enabled from the start.
    pub fn new(config: FaultConfig) -> Self {
        let domains = config.domains.max(1);
        Self {
            config,
            state: Mutex::new(InjectorState {
                rng: StdRng::seed_from_u64(config.seed),
                outages: vec![None; domains],
                stats: FaultStats::default(),
                panic_after: None,
                enabled: true,
            }),
        }
    }

    /// The schedule this injector rolls from.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Outage domain owning `folder`: the folder hash modulo the domain
    /// count. Note this is a *fault* partition, deliberately independent
    /// of the store's rendezvous-hash shard routing: an outage domain
    /// models a blast radius, not a shard.
    pub fn domain_of(&self, folder: &str) -> usize {
        (stable_hash64(folder) % self.config.domains.max(1) as u64) as usize
    }

    /// Rolls the schedule for one request against `folder`: counts the
    /// request, fires an armed panic, refuses requests inside an outage
    /// window, and may start an outage or drop the request.
    ///
    /// # Errors
    /// [`StoreError::Unavailable`] or [`StoreError::Timeout`] when the
    /// schedule says so.
    ///
    /// # Panics
    /// When a panic armed via [`FaultInjector::arm_panic`] comes due —
    /// the injected "worker crashed mid-request" fault.
    pub fn check(&self, folder: &str) -> Result<(), StoreError> {
        let domain = self.domain_of(folder);
        let mut s = self.state.lock();
        s.stats.requests += 1;
        if let Some(left) = s.panic_after {
            if left == 0 {
                s.panic_after = None;
                s.stats.panics += 1;
                drop(s);
                telemetry::event("fault.panic")
                    .with("folder", folder)
                    .emit();
                panic!("injected fault: worker panic on request against {folder}");
            }
            s.panic_after = Some(left - 1);
        }
        if !s.enabled {
            return Ok(());
        }
        let now = Instant::now();
        match s.outages[domain] {
            Some(until) if now < until => {
                s.stats.unavailable += 1;
                drop(s);
                telemetry::event("fault.unavailable")
                    .with("domain", domain)
                    .with("outage_started", false)
                    .emit();
                return Err(StoreError::Unavailable { domain });
            }
            Some(_) => s.outages[domain] = None, // window expired: recovered
            None => {}
        }
        if self.config.outage_prob > 0.0 && s.rng.gen_bool(self.config.outage_prob) {
            s.outages[domain] = Some(now + self.config.outage);
            s.stats.outages += 1;
            s.stats.unavailable += 1;
            drop(s);
            telemetry::event("fault.unavailable")
                .with("domain", domain)
                .with("outage_started", true)
                .emit();
            return Err(StoreError::Unavailable { domain });
        }
        if self.config.timeout_prob > 0.0 && s.rng.gen_bool(self.config.timeout_prob) {
            s.stats.timeouts += 1;
            drop(s);
            telemetry::event("fault.timeout")
                .with("folder", folder)
                .emit();
            return Err(StoreError::Timeout);
        }
        Ok(())
    }

    /// Rolls whether to tear the current long poll.
    pub fn torn_poll(&self) -> bool {
        let mut s = self.state.lock();
        if !s.enabled || self.config.torn_poll_prob == 0.0 {
            return false;
        }
        let torn = s.rng.gen_bool(self.config.torn_poll_prob);
        if torn {
            s.stats.torn_polls += 1;
            drop(s);
            telemetry::event("fault.torn_poll").emit();
        }
        torn
    }

    /// Rolls whether to reject the current CAS spuriously.
    pub fn cas_storm(&self) -> bool {
        let mut s = self.state.lock();
        if !s.enabled || self.config.cas_storm_prob == 0.0 {
            return false;
        }
        let storm = s.rng.gen_bool(self.config.cas_storm_prob);
        if storm {
            s.stats.cas_conflicts += 1;
            drop(s);
            telemetry::event("fault.cas_storm").emit();
        }
        storm
    }

    /// True while `domain` is inside an outage window. Roll-free: safe to
    /// poll without advancing the schedule.
    pub fn is_down(&self, domain: usize) -> bool {
        let mut s = self.state.lock();
        let Some(slot) = s.outages.get(domain).copied() else {
            return false;
        };
        match slot {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                s.outages[domain] = None;
                false
            }
            None => false,
        }
    }

    /// Starts (or extends) an outage on `domain` for `duration` — the
    /// deterministic handle tests use instead of probability rolls.
    pub fn force_outage(&self, domain: usize, duration: Duration) {
        let mut s = self.state.lock();
        if domain < s.outages.len() {
            s.outages[domain] = Some(Instant::now() + duration);
            s.stats.outages += 1;
        }
    }

    /// Arms a one-shot panic: the request `after_requests` requests from
    /// now panics inside the injector — the "worker crashed mid-pass"
    /// fault the scheduler must contain.
    pub fn arm_panic(&self, after_requests: u64) {
        self.state.lock().panic_after = Some(after_requests);
    }

    /// Stops all injection: disables probability rolls, ends every outage
    /// window and disarms a pending panic. Counters are preserved.
    pub fn heal(&self) {
        let mut s = self.state.lock();
        s.enabled = false;
        s.panic_after = None;
        for slot in s.outages.iter_mut() {
            *slot = None;
        }
    }

    /// What the injector has injected so far.
    pub fn stats(&self) -> FaultStats {
        self.state.lock().stats
    }
}

impl core::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "FaultInjector({} domains)", self.config.domains)
    }
}

/// An [`ObjectStore`] wrapper injecting the faults its [`FaultInjector`]
/// schedules; see the module docs for the failure model.
#[derive(Clone)]
pub struct FaultyStore<S> {
    inner: S,
    faults: Arc<FaultInjector>,
}

impl<S: ObjectStore> FaultyStore<S> {
    /// Wraps `inner` with a fresh injector for `config`.
    pub fn new(inner: S, config: FaultConfig) -> Self {
        Self::with_injector(inner, Arc::new(FaultInjector::new(config)))
    }

    /// Wraps `inner` with a shared injector (one schedule driving several
    /// wrappers).
    pub fn with_injector(inner: S, faults: Arc<FaultInjector>) -> Self {
        Self { inner, faults }
    }

    /// The schedule driver (force outages, arm panics, read stats).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The interception, stated once for the blocking and the queued path:
    /// rolls the schedule for `request` on the calling thread — so a seeded
    /// schedule fires identically, in submission order, whichever way
    /// requests arrive — and returns the injected outcome, or `None` to
    /// let the request through. Injection happens **before** the request
    /// reaches the inner store (no partial effect; retrying or
    /// resubmitting is always safe).
    fn inject(&self, request: &Request) -> Option<Result<Response, StoreError>> {
        // injection decisions join the submitter's causal chain even when
        // driven from a thread that never opened the scope
        let _rid = telemetry::adopt_request_id(request.rid);
        // a store-wide read carries the empty folder: charged to the
        // default ("" -> shard 0) domain
        if let Err(e) = self.faults.check(&request.folder) {
            return Some(Err(e));
        }
        // the true current version (0 if absent) is what a spurious
        // conflict must report for the caller's re-read-and-retry path to
        // behave exactly as it would after losing a real race
        let current = |item: &str| self.inner.get(&request.folder, item).map_or(0, |(_, v)| v);
        match &request.op {
            RequestOp::PutIfVersion { .. } if self.faults.cas_storm() => {
                let current = current(&request.item);
                Some(Err(StoreError::Conflict(VersionConflict { current })))
            }
            // an unconditional batch (every admin publish) cannot lose a
            // race, so it never rolls the storm
            RequestOp::PutMany(items)
                if items.iter().any(BatchWrite::is_conditional) && self.faults.cas_storm() =>
            {
                let lost = items
                    .iter()
                    .find(|w| w.is_conditional())
                    .expect("checked above");
                let current = current(&lost.item);
                Some(Err(StoreError::BatchConflict(vec![(
                    lost.item.clone(),
                    current,
                )])))
            }
            // A torn poll is not an error — it is the fault-free "nothing
            // changed" shape with the cursor preserved. Only
            // outages/timeouts surface as `StoreError`.
            RequestOp::LongPoll { since, .. } if self.faults.torn_poll() => {
                Some(Ok(Response::Poll(PollResult::torn(*since))))
            }
            _ => None,
        }
    }
}

impl<S: ObjectStore> ObjectStore for FaultyStore<S> {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        match self.inject(&request) {
            Some(outcome) => outcome,
            None => self.inner.call(request),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    /// An injected fault returns an already-completed ticket; anything
    /// else is queued on the inner store's own lanes.
    fn submit(&self, request: Request) -> StoreTicket {
        match self.inject(&request) {
            Some(outcome) => completed_ticket(outcome),
            None => self.inner.submit(request),
        }
    }
}

impl<S> core::fmt::Debug for FaultyStore<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "FaultyStore({:?})", self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CloudStore;
    use bytes::Bytes;

    #[test]
    fn quiet_schedule_is_transparent() {
        let store = FaultyStore::new(CloudStore::new(), FaultConfig::default());
        let v = store.try_put("g", "a", Bytes::from_static(b"x")).unwrap();
        assert_eq!(store.try_get("g", "a").unwrap().unwrap().1, v);
        assert_eq!(store.try_list("g").unwrap(), vec!["a".to_string()]);
        assert_eq!(store.injector().stats().timeouts, 0);
    }

    #[test]
    fn forced_outage_refuses_then_recovers() {
        let store = FaultyStore::new(CloudStore::new(), FaultConfig::default());
        let domain = store.injector().domain_of("g");
        store
            .injector()
            .force_outage(domain, Duration::from_secs(60));
        assert!(store.injector().is_down(domain));
        assert_eq!(
            store.try_get("g", "a").unwrap_err(),
            StoreError::Unavailable { domain }
        );
        // the infallible poll rides the outage out as an early timeout
        let poll = store.long_poll("g", 7, Duration::from_millis(5));
        assert_eq!(poll.version, 7);
        assert!(poll.timed_out && poll.changed.is_empty());
        store.injector().heal();
        assert!(!store.injector().is_down(domain));
        assert!(store.try_get("g", "a").unwrap().is_none());
    }

    #[test]
    fn cas_storm_reports_the_true_version() {
        let store = FaultyStore::new(
            CloudStore::new(),
            FaultConfig {
                cas_storm_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        let v = store.put("g", "a", Bytes::from_static(b"x"));
        let err = store
            .try_put_if_version("g", "a", Bytes::from_static(b"y"), v)
            .unwrap_err();
        assert_eq!(err, StoreError::Conflict(VersionConflict { current: v }));
        // the CAS was not executed: the payload is unchanged
        assert_eq!(&store.get("g", "a").unwrap().0[..], b"x");
        assert!(store.injector().stats().cas_conflicts >= 1);
    }

    #[test]
    fn cas_storm_rejects_a_conditional_batch_naming_one_item() {
        let store = FaultyStore::new(
            CloudStore::new(),
            FaultConfig {
                cas_storm_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        let va = store.put("g", "a", Bytes::from_static(b"x"));
        let vb = store.put("g", "b", Bytes::from_static(b"y"));
        let batch = vec![
            BatchWrite::put("c", Bytes::from_static(b"z")),
            BatchWrite::put_if_version("b", Bytes::from_static(b"y1"), vb),
            BatchWrite::put_if_version("a", Bytes::from_static(b"x1"), va),
        ];
        let err = store.try_write_many("g", batch).unwrap_err();
        // the first conditional item, at its true version, though every
        // expectation held: the batch was never executed
        assert_eq!(err, StoreError::BatchConflict(vec![("b".to_string(), vb)]));
        assert!(store.get("g", "c").is_none());
        assert_eq!(store.injector().stats().cas_conflicts, 1);
        // unconditional batches — every admin publish — never roll it
        store.put_many("g", vec![("c".to_string(), Bytes::from_static(b"z"))]);
        assert_eq!(store.injector().stats().cas_conflicts, 1);
    }

    #[test]
    fn torn_poll_preserves_the_cursor() {
        let store = FaultyStore::new(
            CloudStore::new(),
            FaultConfig {
                torn_poll_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        store.put("g", "a", Bytes::from_static(b"x"));
        let since = 0;
        let poll = store
            .try_long_poll("g", since, Duration::from_secs(5))
            .unwrap();
        assert_eq!(poll.version, since);
        assert!(poll.timed_out && poll.changed.is_empty());
        // post-heal, the preserved cursor still surfaces the change
        store.injector().heal();
        let poll = store.long_poll("g", since, Duration::from_secs(5));
        assert_eq!(poll.changed, vec!["a".to_string()]);
    }

    #[test]
    fn armed_panic_fires_once() {
        let store = FaultyStore::new(CloudStore::new(), FaultConfig::default());
        store.injector().arm_panic(1);
        assert!(store.try_get("g", "a").is_ok()); // request 0: countdown
        let injector = Arc::clone(store.injector());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.try_get("g", "a").ok();
        }));
        assert!(caught.is_err());
        assert_eq!(injector.stats().panics, 1);
        // one-shot: the next request sails through
        assert!(store.try_get("g", "a").is_ok());
    }

    #[test]
    fn identical_seeds_replay_identical_schedules() {
        // wall-clock-free schedule (no outage windows), so the outcome
        // sequence is a pure function of (seed, request sequence)
        let run = |seed: u64| {
            let config = FaultConfig {
                seed,
                timeout_prob: 0.2,
                ..FaultConfig::default()
            };
            let store = FaultyStore::new(CloudStore::new(), config);
            let mut outcomes = Vec::new();
            for i in 0..200 {
                let folder = format!("g{}", i % 5);
                outcomes.push(store.try_put(&folder, "a", Bytes::new()).is_ok());
            }
            (outcomes, store.injector().stats().timeouts)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }
}
