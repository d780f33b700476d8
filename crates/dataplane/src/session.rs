//! The reader/writer session: an epoch-aware key cache over the control
//! plane, plus the CAS-guarded object read/write path.

use crate::envelope::SealedObject;
use crate::error::DataError;
use crate::metrics::{DataMetrics, DataMetricsSnapshot};
use acs::Client;
use cloud_store::{stable_hash64, BatchWrite, Bytes, ObjectStore, StoreError, StoreHandle};
use ibbe::{PublicKey, UserSecretKey};
use ibbe_sgx_core::{KeyHistory, KeyRing};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Cloud folder holding an unsharded group's data objects (distinct from
/// the group's metadata folder so data traffic never wakes control-plane
/// long-pollers and vice versa). Equal to [`data_shard_folder`] with one
/// shard.
pub fn data_folder(group: &str) -> String {
    format!("{group}/data")
}

/// Cloud folder holding data shard `shard` of `of` for `group`. With
/// `of == 1` this is the classic single [`data_folder`]; with more, each
/// shard is its own cloud folder — and therefore, on a
/// [`cloud_store::ShardedStore`], its own version clock, long-poll wait
/// queue and latency domain, which is what lets a
/// [`crate::SweepScheduler`] sweep every shard concurrently.
///
/// # Panics
/// Panics if `shard >= of` or `of == 0`.
pub fn data_shard_folder(group: &str, shard: usize, of: usize) -> String {
    assert!(of >= 1, "at least one data shard is required");
    assert!(shard < of, "shard index out of range");
    if of == 1 {
        data_folder(group)
    } else {
        format!("{group}/data-{shard:02}")
    }
}

/// Bounded retry-with-backoff for transient store faults (outages,
/// timeouts — [`DataError::is_transient`]). Non-transient failures —
/// CAS conflicts, revocation, tampering — are never retried; they need
/// state repair or must fail closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`0` is treated as `1`).
    pub attempts: u32,
    /// Sleep before the first retry, doubling on each further one.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts with 2/4/8 ms backoffs: rides out request-level
    /// faults, gives up inside a real outage window (whose clearing is
    /// the *caller's* schedule — a re-queued lease, the next sweep round).
    fn default() -> Self {
        Self {
            attempts: 4,
            backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> Self {
        Self {
            attempts: 1,
            backoff: Duration::ZERO,
        }
    }

    /// Runs `op`, retrying transient failures within the budget.
    ///
    /// # Errors
    /// The first non-transient error, or the last transient one once the
    /// attempt budget is spent.
    pub fn run<T>(&self, mut op: impl FnMut() -> Result<T, DataError>) -> Result<T, DataError> {
        let attempts = self.attempts.max(1);
        let mut backoff = self.backoff;
        for attempt in 1..=attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < attempts => {
                    telemetry::event("retry.attempt")
                        .with("attempt", attempt)
                        .with("error", e.to_string())
                        .emit();
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                        backoff *= 2;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("the final attempt either returned or erred")
    }
}

/// A group member's data-plane session.
///
/// Wraps the control-plane [`Client`] (partition watch + `gk` derivation)
/// with an **epoch-indexed key ring**: the current `gk` plus every retired
/// epoch key unlocked from the published history. The ring is the cache the
/// long-poll notifications invalidate — any change to the group's metadata
/// folder (observed via a zero-timeout poll before each operation, or a
/// blocking [`ClientSession::watch`]) triggers a rebuild.
///
/// A session whose member was revoked keeps its last ring (that is the
/// attacker model of the lazy window: retired keys the victim already held)
/// but can never extend it — deriving the rotated `gk` fails, so every
/// object sealed at a newer epoch answers [`DataError::UnknownEpoch`].
pub struct ClientSession {
    /// The wrapped control-plane client also owns the store handle and the
    /// group name; this type deliberately keeps no copies of either.
    control: Client,
    /// The group's data folders (one per data shard); every object lives in
    /// exactly one, chosen by a stable hash of its name.
    folders: Vec<String>,
    ring: Option<KeyRing>,
    /// object name → store version last observed (the CAS expectation).
    versions: HashMap<String, u64>,
    /// The store's routing epoch last observed (see
    /// [`cloud_store::ObjectStore::routing_epoch`]); a bump means folders
    /// may have been live-migrated, re-stamping versions.
    routing_epoch_seen: u64,
    /// Objects whose tracked version predates a routing-epoch bump: their
    /// CAS expectation may name a pre-migration version, so the next write
    /// re-reads the current one instead of burning a guaranteed conflict.
    stale_routes: HashSet<String>,
    metrics: Arc<DataMetrics>,
    rng: StdRng,
    /// Transient-store-fault retry budget applied to every cloud round-trip.
    retry: RetryPolicy,
}

impl ClientSession {
    /// Creates a session for `identity` over `group`.
    pub fn new(
        identity: impl Into<String>,
        usk: UserSecretKey,
        pk: PublicKey,
        store: impl Into<StoreHandle>,
        group: impl Into<String>,
    ) -> Self {
        let seed = rand::thread_rng().next_u64();
        Self::with_seed(identity, usk, pk, store, group, seed)
    }

    /// Deterministic variant (tests and reproducible benchmarks): `seed`
    /// drives the DEK/nonce generator.
    pub fn with_seed(
        identity: impl Into<String>,
        usk: UserSecretKey,
        pk: PublicKey,
        store: impl Into<StoreHandle>,
        group: impl Into<String>,
        seed: u64,
    ) -> Self {
        let group = group.into();
        let control = Client::new(identity, usk, pk, store, group.clone());
        let routing_epoch_seen = control.store().routing_epoch();
        Self {
            folders: vec![data_folder(&group)],
            control,
            ring: None,
            versions: HashMap::new(),
            routing_epoch_seen,
            stale_routes: HashSet::new(),
            metrics: Arc::new(DataMetrics::default()),
            rng: StdRng::seed_from_u64(seed),
            retry: RetryPolicy::default(),
        }
    }

    /// Overrides the transient-fault [`RetryPolicy`] (default: 4 attempts
    /// with doubling backoff; [`RetryPolicy::none`] surfaces every fault).
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The session's transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Spreads this session's data namespace over `shards` data folders
    /// (objects routed by stable name hash). Every session and sweeper of a
    /// group must agree on the shard count; configure it at construction,
    /// before any I/O.
    ///
    /// # Panics
    /// Panics if `shards` is zero or the session has already tracked
    /// object versions.
    #[must_use]
    pub fn with_data_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "at least one data shard is required");
        assert!(
            self.versions.is_empty(),
            "configure data sharding before any object I/O"
        );
        self.folders = (0..shards)
            .map(|s| data_shard_folder(self.control.group(), s, shards))
            .collect();
        self
    }

    /// Number of data folders this session spreads objects over.
    pub fn data_shards(&self) -> usize {
        self.folders.len()
    }

    /// The identity this session acts as.
    pub fn identity(&self) -> &str {
        self.control.identity()
    }

    /// The group this session reads and writes.
    pub fn group(&self) -> &str {
        self.control.group()
    }

    /// Snapshot of this session's counters.
    pub fn metrics(&self) -> DataMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The current key epoch per this session's ring, if one was derived.
    pub fn current_epoch(&self) -> Option<u64> {
        self.ring.as_ref().map(KeyRing::current_epoch)
    }

    /// Number of epochs the session can currently unwrap.
    pub fn ring_len(&self) -> usize {
        self.ring.as_ref().map(KeyRing::len).unwrap_or(0)
    }

    /// Forces a full control-plane sync and ring rebuild. Returns the
    /// current epoch.
    ///
    /// # Errors
    /// Control-plane failures (e.g. [`acs::AcsError::NotAMember`] after
    /// revocation) or a history that fails to authenticate. The previous
    /// ring, if any, is left in place on failure.
    pub fn refresh(&mut self) -> Result<u64, DataError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("session.refresh")
            .with("group", self.group())
            .enter();
        let gk = self.control_call(Client::sync)?;
        let epoch = self.rebuild_ring(gk)?;
        span.record("epoch", epoch);
        Ok(epoch)
    }

    /// Runs `op` on the control-plane client under the retry policy,
    /// counting the IBBE decrypts it ran.
    fn control_call<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, acs::AcsError>,
    ) -> Result<T, DataError> {
        let before = self.control.derivations();
        let retry = self.retry;
        let result = retry.run(|| op(&mut self.control).map_err(DataError::from));
        self.metrics
            .record_key_derivations(self.control.derivations() - before);
        result
    }

    /// Shares `other`'s key derivations (see
    /// [`Client::share_derivations_with`]): a rotation both sessions
    /// observe is decrypted once between them.
    ///
    /// # Panics
    /// Panics unless both sessions act as the same identity with the same
    /// `usk` and public key, in the same group.
    pub fn share_derivations_with(&mut self, other: &ClientSession) {
        self.control.share_derivations_with(&other.control);
    }

    /// Rebuilds the ring from a freshly derived `gk` plus the epoch
    /// history the sync read in the same snapshot as its partition. A
    /// history that disagrees with `gk` can then only be tampering, and
    /// fails closed.
    fn rebuild_ring(&mut self, gk: ibbe_sgx_core::GroupKey) -> Result<u64, DataError> {
        let epoch = self
            .control
            .current_epoch()
            .expect("sync populates the partition cache");
        let history = self
            .control
            .cached_history()
            .map(|bytes| {
                KeyHistory::from_bytes(bytes).ok_or(DataError::WireFormat("epoch history object"))
            })
            .transpose()?;
        let ring = KeyRing::assemble(gk, epoch, history.as_ref(), self.control.group())?;
        self.ring = Some(ring);
        self.metrics.record_key_refresh();
        Ok(epoch)
    }

    /// True if the control plane's observed epoch differs from the ring's —
    /// the only condition under which a rebuild can change anything (`gk`
    /// and the history rotate if and only if the epoch advances; structural
    /// changes like adds or re-partitions preserve all three).
    fn ring_is_stale(&self) -> bool {
        match (&self.ring, self.control.current_epoch()) {
            (Some(ring), Some(epoch)) => ring.current_epoch() != epoch,
            _ => true,
        }
    }

    /// Non-blocking invalidation check before an operation: a zero-timeout
    /// long poll on the group's **metadata** folder. The ring is rebuilt
    /// only when the observed epoch moved; a failing control sync (revoked
    /// identity) keeps the stale ring — by design, see the type-level docs.
    /// Also the sweeper's cheap between-pass freshness check.
    pub(crate) fn maybe_refresh(&mut self) -> Result<(), DataError> {
        self.observe_routing();
        if self.ring.is_none() {
            self.refresh()?;
            return Ok(());
        }
        match self.watch(Duration::ZERO) {
            // a revoked identity keeps its stale ring by design; every
            // other control-plane failure (wire corruption, tampering)
            // must fail closed, not silently continue on old keys
            Ok(_) | Err(DataError::Acs(acs::AcsError::NotAMember(_))) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Notices store routing-epoch bumps (an online shard resize): every
    /// tracked CAS expectation minted before the bump is marked
    /// route-stale, to be re-read lazily before its next conditional
    /// write — migration re-stamps item versions, so the old expectation
    /// would lose its CAS unconditionally. Reads are unaffected (routing
    /// is the store's job); this only heals the session's version cache.
    pub(crate) fn observe_routing(&mut self) {
        let epoch = self.control.store().routing_epoch();
        if epoch != self.routing_epoch_seen {
            self.routing_epoch_seen = epoch;
            if !self.versions.is_empty() {
                telemetry::event("session.reroute")
                    .with("routing_epoch", epoch)
                    .with("tracked", self.versions.len())
                    .emit();
                self.stale_routes.extend(self.versions.keys().cloned());
            }
        }
    }

    /// Re-reads `object`'s current store version after a routing-epoch
    /// bump, replacing (or dropping) the tracked CAS expectation.
    ///
    /// # Errors
    /// Transport failures from the version read.
    fn refresh_route(&mut self, object: &str) -> Result<(), DataError> {
        let folder = self.folder_of(object).to_string();
        let retry = self.retry;
        let fetched = retry.run(|| Ok(self.control.store().try_get(&folder, object)?))?;
        match fetched {
            Some((_, version)) => self.versions.insert(object.to_string(), version),
            None => self.versions.remove(object),
        };
        Ok(())
    }

    /// Blocks on the group's metadata long poll until it changes (or
    /// `timeout`), rebuilding the ring if the change moved the epoch.
    /// Returns `true` if the ring was rebuilt — the push-style cache
    /// invalidation path.
    ///
    /// # Errors
    /// Same contract as [`ClientSession::refresh`].
    pub fn watch(&mut self, timeout: Duration) -> Result<bool, DataError> {
        if self.ring.is_none() {
            self.refresh()?;
        }
        match self.control_call(|control| control.wait_for_update(timeout))? {
            Some(gk) if self.ring_is_stale() => {
                self.rebuild_ring(gk)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Lists the group's object names across all data folders (sorted, so
    /// the result is independent of the shard layout).
    ///
    /// # Errors
    /// Transport failures that outlast the session's [`RetryPolicy`].
    pub fn list_objects(&self) -> Result<Vec<String>, DataError> {
        let mut objects = Vec::new();
        for folder in &self.folders {
            let listed = self
                .retry
                .run(|| Ok(self.control.store().try_list(folder)?))?;
            objects.extend(listed);
        }
        objects.sort();
        Ok(objects)
    }

    /// Fetches and parses one object without decrypting it, recording its
    /// store version as the session's CAS expectation.
    ///
    /// # Errors
    /// [`DataError::NotFound`] / [`DataError::WireFormat`].
    pub fn fetch(&mut self, object: &str) -> Result<(SealedObject, u64), DataError> {
        let _rid = telemetry::request_scope();
        let _span = telemetry::span("session.fetch")
            .with("object", object)
            .enter();
        let folder = self.folder_of(object).to_string();
        let retry = self.retry;
        let fetched = retry.run(|| Ok(self.control.store().try_get(&folder, object)?))?;
        let Some((bytes, version)) = fetched else {
            // deleted under us: the stale CAS expectation goes with it
            self.versions.remove(object);
            self.stale_routes.remove(object);
            return Err(DataError::NotFound(object.to_string()));
        };
        let sealed = SealedObject::from_bytes(&bytes)?;
        self.versions.insert(object.to_string(), version);
        // a freshly observed version is current-route by definition
        self.stale_routes.remove(object);
        Ok((sealed, version))
    }

    /// Deletes `object` from the store, dropping its tracked CAS version.
    /// Returns whether the store held it.
    ///
    /// # Errors
    /// Transport failures that outlast the session's [`RetryPolicy`].
    pub fn delete(&mut self, object: &str) -> Result<bool, DataError> {
        let folder = self.folder_of(object).to_string();
        self.versions.remove(object);
        self.stale_routes.remove(object);
        self.retry
            .run(|| Ok(self.control.store().try_delete(&folder, object)?))
    }

    /// Garbage-collects the CAS `versions` map: drops entries for objects
    /// no longer present in the store, so long-lived sessions replaying
    /// churny traces (objects written, deleted elsewhere, never touched
    /// again) do not leak memory. Returns the number of entries dropped.
    ///
    /// # Errors
    /// Transport failures from the listing (nothing is pruned then).
    pub fn gc_versions(&mut self) -> Result<usize, DataError> {
        let live: HashSet<String> = self.list_objects()?.into_iter().collect();
        Ok(self.prune_versions(&live, |_| true))
    }

    /// GC restricted to objects for which `in_scope` holds, against a
    /// caller-supplied live set (the sweeper's scan already holds one, so
    /// it prunes for free, without re-listing).
    pub(crate) fn prune_versions(
        &mut self,
        live: &HashSet<String>,
        in_scope: impl Fn(&str) -> bool,
    ) -> usize {
        let before = self.versions.len();
        self.versions
            .retain(|name, _| live.contains(name) || !in_scope(name));
        let Self {
            versions,
            stale_routes,
            ..
        } = self;
        stale_routes.retain(|name| versions.contains_key(name));
        before - versions.len()
    }

    /// Number of objects the session currently tracks a CAS version for.
    pub fn tracked_versions(&self) -> usize {
        self.versions.len()
    }

    /// Writes `plaintext` as `object`, envelope-encrypted at the current
    /// epoch, conditioned on the version this session last observed (`0` =
    /// create). A write after a revocation therefore re-wraps the object to
    /// the new epoch as a side effect — the lazy path's "migrate on next
    /// write".
    ///
    /// # Errors
    /// [`DataError::Conflict`] if a concurrent writer moved the object:
    /// call [`ClientSession::fetch`] (or [`ClientSession::read`]) to adopt
    /// the new version, merge, and retry.
    pub fn write(&mut self, object: &str, plaintext: &[u8]) -> Result<u64, DataError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("session.write")
            .with("object", object)
            .enter();
        self.maybe_refresh()?;
        if self.stale_routes.remove(object) {
            // a shard resize re-stamped versions; re-read rather than
            // burn a guaranteed CAS conflict on the stale expectation
            self.refresh_route(object)?;
        }
        let ring = self.ring.as_ref().ok_or(DataError::NoKeys)?;
        let sealed = SealedObject::seal(ring, object, plaintext, &mut self.rng);
        let expected = self.versions.get(object).copied().unwrap_or(0);
        let folder = self.folder_of(object).to_string();
        let bytes = sealed.to_bytes();
        let retry = self.retry;
        match retry.run(|| {
            self.control
                .store()
                .try_put_if_version(&folder, object, bytes.clone(), expected)
                .map_err(DataError::from)
        }) {
            Ok(version) => {
                self.versions.insert(object.to_string(), version);
                self.metrics.record_write();
                span.record("conflict", false);
                Ok(version)
            }
            Err(DataError::Conflict(conflict)) => {
                self.metrics.record_write_conflict();
                span.record("conflict", true);
                Err(DataError::Conflict(conflict))
            }
            Err(e) => Err(e),
        }
    }

    /// Reads and decrypts `object`. If the object names an epoch newer than
    /// the ring (a rotation this session has not observed), the ring is
    /// refreshed once before giving up.
    ///
    /// # Errors
    /// [`DataError::NotFound`], [`DataError::UnknownEpoch`] (revoked or
    /// insufficient history), [`DataError::AuthFailed`] on tampering.
    pub fn read(&mut self, object: &str) -> Result<Vec<u8>, DataError> {
        self.maybe_refresh()?;
        let (sealed, _) = self.fetch(object)?;
        self.open_sealed(object, &sealed)
    }

    /// Decrypts a fetched object with the read path's refresh-once
    /// semantics: an epoch newer than the ring triggers one refresh
    /// attempt (a revoked identity keeps its stale ring and fails the
    /// epoch lookup). Shared by [`ClientSession::read`] and the pipelined
    /// session's completion path, so both decrypt identically.
    pub(crate) fn open_sealed(
        &mut self,
        object: &str,
        sealed: &SealedObject,
    ) -> Result<Vec<u8>, DataError> {
        if self.ring.is_none()
            || self
                .ring
                .as_ref()
                .is_some_and(|r| r.key_for(sealed.epoch).is_none())
        {
            // one refresh attempt; a revoked identity keeps its stale ring
            // and will fail the epoch lookup below
            let _ = self.refresh();
        }
        let ring = self.ring.as_ref().ok_or(DataError::NoKeys)?;
        let plaintext = sealed.open(ring, object)?;
        self.metrics
            .record_read(sealed.epoch < ring.current_epoch());
        Ok(plaintext)
    }

    /// Re-encrypts one stale object's stored bytes to the current epoch —
    /// the sweeper's per-object work, under one `session.migrate` span.
    /// The write-back is the caller's batch
    /// ([`ClientSession::write_migrated`]).
    pub(crate) fn reencrypt(&mut self, object: &str, stored: &[u8]) -> Result<Bytes, DataError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("session.migrate")
            .with("object", object)
            .enter();
        let sealed = SealedObject::from_bytes(stored)?;
        span.record("from_epoch", sealed.epoch);
        let ring = self.ring.as_ref().ok_or(DataError::NoKeys)?;
        let fresh = sealed.reencrypt(ring, object, &mut self.rng)?;
        Ok(fresh.to_bytes().into())
    }

    /// Writes re-encrypted objects of one data folder back as one
    /// conditional multi-write, each item conditioned on the version the
    /// sweep read it at. Returns the items that lost their race to a concurrent
    /// writer, with their current versions — empty when the batch landed;
    /// a batch with losers wrote nothing.
    ///
    /// # Errors
    /// Transport failures that outlast the session's [`RetryPolicy`].
    pub(crate) fn write_migrated(
        &mut self,
        folder: &str,
        items: Vec<BatchWrite>,
    ) -> Result<Vec<(String, u64)>, DataError> {
        let retry = self.retry;
        let store = self.control.store();
        match retry.run(|| Ok(store.try_write_many(folder, items.clone())?)) {
            Ok(version) => {
                self.metrics.record_migrations(items.len());
                for item in items {
                    self.versions.insert(item.item, version);
                }
                Ok(Vec::new())
            }
            Err(DataError::Store(StoreError::BatchConflict(lost))) => {
                self.metrics.record_migration_conflicts(lost.len());
                Ok(lost)
            }
            Err(e) => Err(e),
        }
    }

    pub(crate) fn store(&self) -> &StoreHandle {
        self.control.store()
    }

    // --- pipelined-session plumbing (same crate only) ---------------------

    /// Seals `plaintext` for `object` under the current ring — the
    /// pipelined session's submission-time seal, so writes queued across
    /// a rotation are sealed under the ring in force when they actually
    /// go out.
    pub(crate) fn seal_object(
        &mut self,
        object: &str,
        plaintext: &[u8],
    ) -> Result<SealedObject, DataError> {
        let ring = self.ring.as_ref().ok_or(DataError::NoKeys)?;
        Ok(SealedObject::seal(ring, object, plaintext, &mut self.rng))
    }

    /// The CAS expectation for `object` (`0` = create), as
    /// [`ClientSession::write`] would stamp it.
    pub(crate) fn expected_version(&self, object: &str) -> u64 {
        self.versions.get(object).copied().unwrap_or(0)
    }

    /// Records a store version observed on a completion (the pipelined
    /// counterpart of the insert [`ClientSession::write`]/
    /// [`ClientSession::fetch`] perform inline).
    pub(crate) fn note_version(&mut self, object: &str, version: u64) {
        self.versions.insert(object.to_string(), version);
        self.stale_routes.remove(object);
    }

    /// Drops the CAS expectation for an object observed deleted.
    pub(crate) fn forget_version(&mut self, object: &str) {
        self.versions.remove(object);
        self.stale_routes.remove(object);
    }

    /// The shared counters, for recording completions processed outside
    /// this type.
    pub(crate) fn metrics_ref(&self) -> &DataMetrics {
        &self.metrics
    }

    /// The data folder holding `object` (stable name-hash routing).
    pub fn folder_of(&self, object: &str) -> &str {
        let idx = (stable_hash64(object) % self.folders.len() as u64) as usize;
        &self.folders[idx]
    }

    /// The data folders, in shard order.
    pub(crate) fn data_folders(&self) -> &[String] {
        &self.folders
    }
}

impl core::fmt::Debug for ClientSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ClientSession({} on {}, epoch {:?}, {} epochs held)",
            self.identity(),
            self.group(),
            self.current_epoch(),
            self.ring_len()
        )
    }
}
