//! The [`ObjectStore`] trait: the storage surface every layer above the
//! cloud talks to, and [`StoreHandle`], the cheap-to-clone dynamic handle
//! consumers hold.
//!
//! Capturing the store behind a trait is what lets a deployment swap the
//! single-clock [`CloudStore`](crate::CloudStore) for a
//! [`ShardedStore`](crate::ShardedStore) (N independent shards, folders
//! routed by hash) without any consumer — admin, client, data-plane session
//! or sweeper — knowing which one it is running on.
//!
//! The **required** surface is one method: [`ObjectStore::call`] serves a
//! [`Request`], blocking, on the caller's thread (plus the
//! [`ObjectStore::metrics`] read). Everything else is provided over it:
//! [`ObjectStore::submit`] is the same `call` completed inline or queued
//! on worker lanes, the fallible `try_*` verbs build a request and unwrap
//! the response, and the infallible verbs add the one ride-out loop. A
//! wrapper — [`FaultyStore`](crate::FaultyStore), an adversarial or
//! recording test store, a future virtual clock — therefore states its
//! interception once, and both the blocking and the queued path run
//! through it.

use crate::fault::StoreError;
use crate::metrics::MetricsSnapshot;
use crate::store::{PollResult, VersionConflict};
use crate::submit::{
    completed_ticket, BatchWrite, Request, RequestOp, Response, Snapshot, StoreTicket,
};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long [`ride_out`] pauses between retries while riding
/// out a transient fault. Outage windows are wall-clock bounded and
/// per-request faults re-roll each attempt, so the loop terminates quickly
/// under any sane schedule.
pub(crate) const RIDE_OUT_PAUSE: Duration = Duration::from_millis(1);

/// Serves `request` against `store`, retrying transient errors every
/// [`RIDE_OUT_PAUSE`] until it passes — the one ride-out loop behind every
/// infallible verb. On a fault-injecting store this blocks the caller for
/// the outage window; on a reliable store the first attempt succeeds. A
/// long poll rides out only within its own deadline: an outage that
/// outlasts it surfaces as a torn poll — an early timeout with
/// `version: since` — so the caller's cursor stands still and a change
/// masked by the fault is picked up by the next (post-recovery) poll.
///
/// A lost CAS is a real outcome, not a transient, and surfaces immediately.
/// No infallible verb sends a conditional batch, so a batch conflict never
/// reaches this loop.
fn ride_out<S: ObjectStore + ?Sized>(
    store: &S,
    mut request: Request,
) -> Result<Response, VersionConflict> {
    let deadline = match request.op {
        RequestOp::LongPoll { timeout, .. } => Some(Instant::now() + timeout),
        _ => None,
    };
    loop {
        match store.call(request.clone()) {
            Ok(response) => return Ok(response),
            Err(StoreError::Conflict(conflict)) => return Err(conflict),
            Err(e) if e.is_transient() => {}
            Err(e) => unreachable!("an infallible verb met {e}"),
        }
        if let (Some(deadline), RequestOp::LongPoll { since, timeout }) =
            (deadline, &mut request.op)
        {
            *timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                return Ok(Response::Poll(PollResult::torn(*since)));
            }
        }
        std::thread::sleep(RIDE_OUT_PAUSE);
    }
}

/// [`ride_out`] for anything but a conditional PUT.
fn ride_out_settled<S: ObjectStore + ?Sized>(store: &S, request: Request) -> Response {
    ride_out(store, request).expect("only a conditional PUT can lose a CAS")
}

/// The versioned bi-level key/value surface of a simulated cloud store.
///
/// Versions are scoped **per folder's clock domain**: a cursor obtained for
/// one folder ([`ObjectStore::folder_version`] or a [`PollResult`]) is only
/// meaningful for subsequent polls of that same folder. A single
/// [`CloudStore`](crate::CloudStore) runs one global clock, so every folder
/// shares it; a [`ShardedStore`](crate::ShardedStore) runs one clock per
/// shard, and the folder-hash routing guarantees a folder's cursor is always
/// interpreted by the same shard.
///
/// Implementations provide [`ObjectStore::call`] — the failures a real
/// cloud exhibits surface as [`StoreError`]; reliable in-memory stores
/// simply never return `Err`. The typed verbs are provided sugar over it:
/// fault-aware consumers (sessions, sweepers, the admin's publish paths)
/// use `try_*` and handle the error; the infallible verbs (`put`, `get`, …)
/// retry transient errors until they pass, for call sites that predate
/// the fault model. The verbs taking `impl Into<Bytes>` need a sized
/// receiver; behind a `dyn ObjectStore`, hold a [`StoreHandle`].
pub trait ObjectStore: Send + Sync {
    /// Serves one request, blocking, on the caller's thread — the single
    /// point every operation of this store passes through, and so the
    /// single point a wrapper intercepts.
    ///
    /// # Errors
    /// [`StoreError::Unavailable`] / [`StoreError::Timeout`] on injected
    /// or real transport failures; [`StoreError::Conflict`] when a
    /// conditional PUT loses (carrying the item's actual version).
    fn call(&self, request: Request) -> Result<Response, StoreError>;

    /// Traffic counters (aggregated across shards when sharded).
    fn metrics(&self) -> MetricsSnapshot;

    /// Submits a request for asynchronous completion; the returned
    /// [`StoreTicket`] is polled, waited on, or wired to a waker. The
    /// default serves the request inline on the caller's thread (correct
    /// but unpipelined); [`CloudStore`](crate::CloudStore) overrides it to
    /// queue the `call` onto its worker lanes, and
    /// [`ShardedStore`](crate::ShardedStore) onto the owning shard's
    /// lanes. Errors travel through the ticket, never a panic.
    fn submit(&self, request: Request) -> StoreTicket {
        completed_ticket(self.call(request))
    }

    /// PUT: stores `data` under `folder/item`, waking that folder's
    /// long-pollers. Returns the item's new version.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_put(&self, folder: &str, item: &str, data: impl Into<Bytes>) -> Result<u64, StoreError>
    where
        Self: Sized,
    {
        self.call(Request::put(folder, item, data))
            .map(Response::into_version)
    }

    /// Conditional PUT (compare-and-swap): stores only if the item's
    /// current version equals `expected` (`0` = "must not exist").
    ///
    /// # Errors
    /// [`StoreError::Conflict`] when the CAS loses (carrying the item's
    /// actual version), transport failures as for [`ObjectStore::call`].
    fn try_put_if_version(
        &self,
        folder: &str,
        item: &str,
        data: impl Into<Bytes>,
        expected: u64,
    ) -> Result<u64, StoreError>
    where
        Self: Sized,
    {
        self.call(Request::put_if_version(folder, item, data, expected))
            .map(Response::into_version)
    }

    /// Atomic multi-PUT into one folder: one round-trip, one version bump
    /// shared by all items, one long-poller wake.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_put_many<I, B>(&self, folder: &str, items: I) -> Result<u64, StoreError>
    where
        Self: Sized,
        I: IntoIterator<Item = (String, B)>,
        B: Into<Bytes>,
    {
        self.call(Request::put_many(folder, items))
            .map(Response::into_version)
    }

    /// Atomic multi-write into one folder — stores, deletes and
    /// conditional items ([`BatchWrite`]) — checked and applied
    /// all-or-nothing: one round-trip, and either one version bump shared
    /// by every item and one long-poller wake, or no effect at all.
    ///
    /// # Errors
    /// [`StoreError::BatchConflict`] when a conditional item's expected
    /// version does not hold (nothing was written; every such item is
    /// named with its current version), transport failures as for
    /// [`ObjectStore::call`].
    fn try_write_many(&self, folder: &str, items: Vec<BatchWrite>) -> Result<u64, StoreError> {
        self.call(Request::write_many(folder, items))
            .map(Response::into_version)
    }

    /// GET: fetches `folder/item` with its version.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_get(&self, folder: &str, item: &str) -> Result<Option<(Bytes, u64)>, StoreError> {
        self.call(Request::get(folder, item))
            .map(Response::into_get)
    }

    /// Atomic multi-GET: `items` of `folder`, in request order, and the
    /// folder's clock, read at one instant — one round-trip, and never a
    /// mix of two writes' states.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_get_many(&self, folder: &str, items: Vec<String>) -> Result<Snapshot, StoreError> {
        self.call(Request::get_many(folder, items))
            .map(Response::into_get_many)
    }

    /// DELETE: removes `folder/item`. Returns whether anything was
    /// removed.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_delete(&self, folder: &str, item: &str) -> Result<bool, StoreError> {
        self.call(Request::delete(folder, item))
            .map(Response::into_deleted)
    }

    /// Lists item names in a folder.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_list(&self, folder: &str) -> Result<Vec<String>, StoreError> {
        self.call(Request::list(folder)).map(Response::into_names)
    }

    /// Lists all folder names (merged across shards when sharded).
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_list_folders(&self) -> Result<Vec<String>, StoreError> {
        self.call(Request::list_folders()).map(Response::into_names)
    }

    /// Current version of `folder`'s clock domain — the cursor seed for
    /// [`ObjectStore::long_poll`] on that folder.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_folder_version(&self, folder: &str) -> Result<u64, StoreError> {
        self.call(Request::folder_version(folder))
            .map(Response::into_version)
    }

    /// Directory-level long poll: blocks until some item in `folder` has a
    /// version greater than `since` or was deleted after it, or until
    /// `timeout` elapses. A torn
    /// poll is *not* an error: it returns `Ok` with `version == since` and
    /// no changes, so the caller's cursor never skips a notification.
    ///
    /// # Errors
    /// Transport failures, as for [`ObjectStore::call`].
    fn try_long_poll(
        &self,
        folder: &str,
        since: u64,
        timeout: Duration,
    ) -> Result<PollResult, StoreError> {
        self.call(Request::long_poll(folder, since, timeout))
            .map(Response::into_poll)
    }

    /// PUT, riding out transient failures (see [`ObjectStore::try_put`]).
    fn put(&self, folder: &str, item: &str, data: impl Into<Bytes>) -> u64
    where
        Self: Sized,
    {
        ride_out_settled(self, Request::put(folder, item, data)).into_version()
    }

    /// Conditional PUT, riding out transient failures; a lost CAS is a
    /// real outcome, not a transient, and surfaces immediately.
    ///
    /// # Errors
    /// [`VersionConflict`] carrying the item's actual version.
    fn put_if_version(
        &self,
        folder: &str,
        item: &str,
        data: impl Into<Bytes>,
        expected: u64,
    ) -> Result<u64, VersionConflict>
    where
        Self: Sized,
    {
        ride_out(self, Request::put_if_version(folder, item, data, expected))
            .map(Response::into_version)
    }

    /// Atomic multi-PUT, riding out transient failures (see
    /// [`ObjectStore::try_put_many`]).
    fn put_many<I, B>(&self, folder: &str, items: I) -> u64
    where
        Self: Sized,
        I: IntoIterator<Item = (String, B)>,
        B: Into<Bytes>,
    {
        ride_out_settled(self, Request::put_many(folder, items)).into_version()
    }

    /// GET, riding out transient failures (see [`ObjectStore::try_get`]).
    fn get(&self, folder: &str, item: &str) -> Option<(Bytes, u64)> {
        ride_out_settled(self, Request::get(folder, item)).into_get()
    }

    /// DELETE, riding out transient failures (see
    /// [`ObjectStore::try_delete`]).
    fn delete(&self, folder: &str, item: &str) -> bool {
        ride_out_settled(self, Request::delete(folder, item)).into_deleted()
    }

    /// Folder listing, riding out transient failures (see
    /// [`ObjectStore::try_list`]).
    fn list(&self, folder: &str) -> Vec<String> {
        ride_out_settled(self, Request::list(folder)).into_names()
    }

    /// Folder-name listing, riding out transient failures (see
    /// [`ObjectStore::try_list_folders`]).
    fn list_folders(&self) -> Vec<String> {
        ride_out_settled(self, Request::list_folders()).into_names()
    }

    /// Folder-clock read, riding out transient failures (see
    /// [`ObjectStore::try_folder_version`]).
    fn folder_version(&self, folder: &str) -> u64 {
        ride_out_settled(self, Request::folder_version(folder)).into_version()
    }

    /// Long poll, riding out transient failures within the caller's
    /// deadline. An outage that outlasts the deadline surfaces as a torn
    /// poll — an early timeout with `version: since` — so the caller's
    /// cursor stands still and a change masked by the fault is picked up
    /// by the next (post-recovery) poll.
    fn long_poll(&self, folder: &str, since: u64, timeout: Duration) -> PollResult {
        ride_out_settled(self, Request::long_poll(folder, since, timeout)).into_poll()
    }
}

/// A cheap-to-clone, thread-safe handle to any [`ObjectStore`]
/// implementation; what every consumer above the storage layer holds. It
/// is itself a store — the verbs come from the trait — so import
/// [`ObjectStore`] to use them.
///
/// ```
/// use cloud_store::{CloudStore, ObjectStore, ShardedStore, StoreHandle};
/// let single: StoreHandle = CloudStore::new().into();
/// let sharded: StoreHandle = ShardedStore::new(4).into();
/// for store in [single, sharded] {
///     store.put("g", "item", &b"data"[..]);
///     assert_eq!(&store.get("g", "item").unwrap().0[..], b"data");
/// }
/// ```
#[derive(Clone)]
pub struct StoreHandle(Arc<dyn ObjectStore>);

impl StoreHandle {
    /// Wraps any store implementation.
    pub fn new(store: impl ObjectStore + 'static) -> Self {
        Self(Arc::new(store))
    }

    /// Submits a request for asynchronous completion (see
    /// [`ObjectStore::submit`]), callable without the trait in scope.
    /// Forwarded to the wrapped store's own `submit` so its lanes and
    /// fault injection stay in the path.
    pub fn submit(&self, request: Request) -> StoreTicket {
        self.0.submit(request)
    }
}

/// The handle forwards the trait's four overridable methods to the wrapped
/// implementation, so wrapping a handle never bypasses a wrapped store's
/// interception or lanes — and the provided verbs then run against that
/// forwarded `call` for free.
impl ObjectStore for StoreHandle {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        self.0.call(request)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.0.metrics()
    }

    fn submit(&self, request: Request) -> StoreTicket {
        self.0.submit(request)
    }
}

impl core::fmt::Debug for StoreHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "StoreHandle")
    }
}

impl From<crate::CloudStore> for StoreHandle {
    fn from(store: crate::CloudStore) -> Self {
        Self::new(store)
    }
}

impl From<crate::ShardedStore> for StoreHandle {
    fn from(store: crate::ShardedStore) -> Self {
        Self::new(store)
    }
}

impl<S: ObjectStore + 'static> From<crate::FaultyStore<S>> for StoreHandle {
    fn from(store: crate::FaultyStore<S>) -> Self {
        Self::new(store)
    }
}
