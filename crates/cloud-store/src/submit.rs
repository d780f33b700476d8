//! The request vocabulary of the store: every operation the simulated
//! cloud serves is a [`Request`] described as data, answered by a
//! [`Response`], and — when queued rather than served inline — tracked by
//! the [`StoreTicket`] completion handle [`ObjectStore::submit`] returns.
//!
//! The request *is* the interface: [`ObjectStore::call`] serves one
//! request, blocking, on the caller's thread, and is the only
//! request-serving method a store implements. `submit` is "lanes or
//! inline" over that same `call` — the trait's default completes the
//! ticket inline (correct, but unpipelined); stores that model a
//! concurrency limit queue the `call` instead.
//! [`CloudStore`](crate::CloudStore) runs it on a small worker pool of
//! [`SUBMIT_LANES`] lanes, and [`ShardedStore`](crate::ShardedStore)
//! forwards to the owning shard's own `submit`, so N shards give N
//! independent sets of in-flight lanes.
//! [`FaultyStore`](crate::FaultyStore) rolls its schedule before either
//! path forwards (on the submitting thread, in submission order), so
//! fault determinism and the inject-before-effect guarantee are one
//! statement covering both.
//!
//! The blocking call is the primitive, not `submit(..).wait()`: a long
//! poll would otherwise park a submit lane for its whole timeout, and
//! every zero-RTT operation would pay a thread hop.

use crate::fault::StoreError;
#[cfg(doc)]
use crate::object_store::ObjectStore;
use crate::store::PollResult;
use bytes::Bytes;
use std::time::Duration;

/// How many requests one [`CloudStore`](crate::CloudStore) serves
/// concurrently through [`ObjectStore::submit`] — the stand-in for a
/// storage node's connection/queue-depth limit. Blocking callers are not
/// subject to it (each blocking call sleeps its latency on its own
/// thread); submitted requests share these lanes, which is what makes
/// per-shard lanes the scaling unit the `rw_scaling` bench measures.
pub const SUBMIT_LANES: usize = 4;

/// The operation of a [`Request`].
#[derive(Debug, Clone)]
pub enum RequestOp {
    /// Unconditional PUT (see [`ObjectStore::put`]).
    Put(Bytes),
    /// Conditional PUT / compare-and-swap (see
    /// [`ObjectStore::put_if_version`]).
    PutIfVersion {
        /// The sealed payload to store.
        data: Bytes,
        /// The version the item must currently have (`0` = "must not
        /// exist").
        expected: u64,
    },
    /// Atomic multi-write into the request's folder (see
    /// [`ObjectStore::try_write_many`]): every item stores or deletes, all
    /// under one version bump. A [`BatchWrite`] carrying an expected
    /// version makes the whole batch conditional on it — checked and
    /// applied all-or-nothing.
    PutMany(Vec<BatchWrite>),
    /// GET (see [`ObjectStore::get`]).
    Get,
    /// Atomic multi-GET of these items of the request's folder, read
    /// together with the folder's clock (see [`ObjectStore::try_get_many`]).
    GetMany(Vec<String>),
    /// DELETE (see [`ObjectStore::delete`]).
    Delete,
    /// Item names of the request's folder (see [`ObjectStore::list`]).
    List,
    /// All folder names (see [`ObjectStore::list_folders`]).
    ListFolders,
    /// The folder's clock reading (see [`ObjectStore::folder_version`]).
    FolderVersion,
    /// Directory-level long poll (see [`ObjectStore::long_poll`]).
    LongPoll {
        /// The caller's cursor: only newer items are reported.
        since: u64,
        /// How long to block waiting for a change.
        timeout: Duration,
    },
}

/// One item of an atomic multi-write ([`RequestOp::PutMany`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchWrite {
    /// The item name within the request's folder.
    pub item: String,
    /// `Some` stores these bytes, `None` deletes the item.
    pub data: Option<Bytes>,
    /// `Some(v)` makes the item conditional: the batch applies only if
    /// the item's current version is `v` (`0` = "must not exist"); `None`
    /// writes unconditionally.
    pub expected: Option<u64>,
}

impl BatchWrite {
    /// An unconditional store of `data`.
    pub fn put(item: impl Into<String>, data: impl Into<Bytes>) -> Self {
        Self {
            item: item.into(),
            data: Some(data.into()),
            expected: None,
        }
    }

    /// An unconditional delete.
    pub fn delete(item: impl Into<String>) -> Self {
        Self {
            item: item.into(),
            data: None,
            expected: None,
        }
    }

    /// A store of `data` conditioned on the item's current version being
    /// `expected` (`0` = "must not exist").
    pub fn put_if_version(item: impl Into<String>, data: impl Into<Bytes>, expected: u64) -> Self {
        Self {
            expected: Some(expected),
            ..Self::put(item, data)
        }
    }

    /// True when the item carries an expected version.
    pub fn is_conditional(&self) -> bool {
        self.expected.is_some()
    }
}

/// One store operation, described as data so it can be served inline,
/// queued, routed to a shard, intercepted by a wrapper, or executed on a
/// worker lane.
#[derive(Debug, Clone)]
pub struct Request {
    /// The folder (clock domain, shard-routing key) the operation targets;
    /// empty for the store-wide [`RequestOp::ListFolders`].
    pub folder: String,
    /// The item name within the folder; empty for folder-level operations.
    pub item: String,
    /// The operation to perform.
    pub op: RequestOp,
    /// The telemetry request id in scope when the request was built (`0`
    /// if none). Worker lanes adopt it so spans and fault events on the
    /// executing thread join the submitting session's causal chain.
    pub rid: u64,
}

impl Request {
    fn new(folder: impl Into<String>, item: impl Into<String>, op: RequestOp) -> Self {
        Self {
            folder: folder.into(),
            item: item.into(),
            op,
            rid: telemetry::current_request_id(),
        }
    }

    /// An unconditional PUT request.
    pub fn put(folder: impl Into<String>, item: impl Into<String>, data: impl Into<Bytes>) -> Self {
        Self::new(folder, item, RequestOp::Put(data.into()))
    }

    /// A compare-and-swap PUT request.
    pub fn put_if_version(
        folder: impl Into<String>,
        item: impl Into<String>,
        data: impl Into<Bytes>,
        expected: u64,
    ) -> Self {
        let data = data.into();
        Self::new(folder, item, RequestOp::PutIfVersion { data, expected })
    }

    /// An atomic multi-PUT request of unconditional stores.
    pub fn put_many<I, B>(folder: impl Into<String>, items: I) -> Self
    where
        I: IntoIterator<Item = (String, B)>,
        B: Into<Bytes>,
    {
        let items = items
            .into_iter()
            .map(|(name, data)| BatchWrite::put(name, data));
        Self::write_many(folder, items.collect())
    }

    /// An atomic multi-write request: stores, deletes and conditional
    /// items, applied all-or-nothing.
    pub fn write_many(folder: impl Into<String>, items: Vec<BatchWrite>) -> Self {
        Self::new(folder, "", RequestOp::PutMany(items))
    }

    /// A GET request.
    pub fn get(folder: impl Into<String>, item: impl Into<String>) -> Self {
        Self::new(folder, item, RequestOp::Get)
    }

    /// An atomic multi-GET request.
    pub fn get_many(folder: impl Into<String>, items: Vec<String>) -> Self {
        Self::new(folder, "", RequestOp::GetMany(items))
    }

    /// A DELETE request.
    pub fn delete(folder: impl Into<String>, item: impl Into<String>) -> Self {
        Self::new(folder, item, RequestOp::Delete)
    }

    /// A folder-listing request.
    pub fn list(folder: impl Into<String>) -> Self {
        Self::new(folder, "", RequestOp::List)
    }

    /// A folder-name listing request.
    pub fn list_folders() -> Self {
        Self::new("", "", RequestOp::ListFolders)
    }

    /// A folder-clock read request.
    pub fn folder_version(folder: impl Into<String>) -> Self {
        Self::new(folder, "", RequestOp::FolderVersion)
    }

    /// A directory-level long-poll request.
    pub fn long_poll(folder: impl Into<String>, since: u64, timeout: Duration) -> Self {
        Self::new(folder, "", RequestOp::LongPoll { since, timeout })
    }
}

/// What a multi-GET read: each requested item's payload and version
/// (`None` where it does not exist), in request order, and the folder's
/// clock — all at one instant (see [`ObjectStore::try_get_many`]).
pub type Snapshot = (Vec<Option<(Bytes, u64)>>, u64);

/// The successful result of a served [`Request`], one variant per
/// response shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A PUT (unconditional, conditional or batched) landed at this
    /// version.
    Put {
        /// The new version of the item(s).
        version: u64,
    },
    /// A GET's payload and version, `None` if the item does not exist.
    Get(Option<(Bytes, u64)>),
    /// A multi-GET's answers, one per requested item in request order,
    /// and the folder's clock, all read at one instant.
    GetMany {
        /// Each item's payload and version, `None` where it does not exist.
        items: Vec<Option<(Bytes, u64)>>,
        /// The folder's clock reading.
        version: u64,
    },
    /// Whether the DELETE removed anything.
    Delete(bool),
    /// The item names of a folder, or the folder names of the store.
    Names(Vec<String>),
    /// A folder's clock reading.
    Version(u64),
    /// The outcome of a long poll.
    Poll(PollResult),
}

/// The typed verbs' view of a [`Response`]: each unwraps the one shape its
/// request is answered with. A store answering in another shape is broken,
/// which is a bug in that store, not a condition callers can meet.
impl Response {
    fn mismatch(&self, wanted: &str) -> ! {
        panic!("store answered a {wanted} request with {self:?}")
    }

    pub(crate) fn into_version(self) -> u64 {
        match self {
            Self::Put { version } | Self::Version(version) => version,
            other => other.mismatch("version-shaped"),
        }
    }

    pub(crate) fn into_get(self) -> Option<(Bytes, u64)> {
        match self {
            Self::Get(found) => found,
            other => other.mismatch("GET"),
        }
    }

    pub(crate) fn into_get_many(self) -> Snapshot {
        match self {
            Self::GetMany { items, version } => (items, version),
            other => other.mismatch("multi-GET"),
        }
    }

    pub(crate) fn into_deleted(self) -> bool {
        match self {
            Self::Delete(removed) => removed,
            other => other.mismatch("DELETE"),
        }
    }

    pub(crate) fn into_names(self) -> Vec<String> {
        match self {
            Self::Names(names) => names,
            other => other.mismatch("listing"),
        }
    }

    pub(crate) fn into_poll(self) -> PollResult {
        match self {
            Self::Poll(poll) => poll,
            other => other.mismatch("long-poll"),
        }
    }
}

/// The completion handle of a submitted [`Request`]: poll, block, or
/// attach an [`exec::Waker`] to sleep on "any of my tickets completed".
pub type StoreTicket = exec::Ticket<Result<Response, StoreError>>;

/// A ticket that is already complete — what inline default `submit`
/// implementations and submission-time fault injection hand back.
pub fn completed_ticket(result: Result<Response, StoreError>) -> StoreTicket {
    let (completer, ticket) = exec::completion();
    completer.complete(result);
    ticket
}
