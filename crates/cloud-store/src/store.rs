//! The simulated cloud store: a versioned bi-level key/value namespace with
//! Dropbox-style PUT + directory-level long polling (paper §V-A: "long
//! polling works at the directory level, so we index the group metadata as
//! a bi-level hierarchy" — parent folder = group, children = partitions).

use crate::fault::StoreError;
use crate::latency::LatencyModel;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::object_store::ObjectStore;
use crate::submit::{
    BatchWrite, Request, RequestOp, Response, Snapshot, StoreTicket, SUBMIT_LANES,
};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
struct Entry {
    data: Bytes,
    version: u64,
}

#[derive(Default)]
struct State {
    /// group folder → item name → entry
    folders: BTreeMap<String, BTreeMap<String, Entry>>,
    /// monotonically increasing global change counter
    version: u64,
    /// folder → version of its newest deletion, so a long poll learns of
    /// deletions (which leave no entry to report) — kept even once the
    /// folder is emptied and dropped
    removed: BTreeMap<String, u64>,
}

impl State {
    /// Applies `items` to `folder` as of `version` — a store or a delete
    /// each — and drops the folder if it ends up empty. Returns whether
    /// anything was deleted.
    fn apply(
        &mut self,
        folder: &str,
        items: impl IntoIterator<Item = BatchWrite>,
        version: u64,
    ) -> bool {
        let entries = self.folders.entry(folder.to_string()).or_default();
        let mut deleted = false;
        for write in items {
            match write.data {
                Some(data) => {
                    entries.insert(write.item, Entry { data, version });
                }
                None => deleted |= entries.remove(&write.item).is_some(),
            }
        }
        if entries.is_empty() {
            self.folders.remove(folder);
        }
        if deleted {
            self.removed.insert(folder.to_string(), version);
        }
        deleted
    }

    /// The current version of `folder/item`, `0` if it does not exist.
    fn version_of(&self, folder: &str, item: &str) -> u64 {
        self.folders
            .get(folder)
            .and_then(|items| items.get(item))
            .map_or(0, |e| e.version)
    }

    /// Every conditional item of `items` whose expected version is not the
    /// item's current one, with that current version, in request order.
    fn conflicts(&self, folder: &str, items: &[BatchWrite]) -> Vec<(String, u64)> {
        items
            .iter()
            .filter_map(|w| {
                let current = self.version_of(folder, &w.item);
                (w.expected? != current).then(|| (w.item.clone(), current))
            })
            .collect()
    }
}

struct Inner {
    state: Mutex<State>,
    changed: Condvar,
    latency: LatencyModel,
    metrics: Metrics,
    /// Worker lanes serving submitted requests ([`ObjectStore::submit`]),
    /// spawned lazily on the first submission so blocking-only consumers
    /// never pay for threads. Pool size [`SUBMIT_LANES`] models the
    /// store node's concurrency limit.
    lanes: OnceLock<exec::Executor>,
}

/// Result of a long poll: the folder's latest version and the items whose
/// version exceeds the caller's cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollResult {
    /// New cursor to pass to the next poll.
    pub version: u64,
    /// Names of items changed since the supplied cursor. A deletion wakes
    /// the poll without a name: deleted items are reported by absence on
    /// the subsequent GET.
    pub changed: Vec<String>,
    /// True if the poll timed out with no changes.
    pub timed_out: bool,
}

impl PollResult {
    /// A torn poll: an early timeout with no changes and the caller's
    /// cursor unchanged, so no notification is ever skipped.
    pub(crate) fn torn(since: u64) -> Self {
        Self {
            version: since,
            changed: Vec::new(),
            timed_out: true,
        }
    }
}

/// Rejection of a conditional PUT: the stored item's version did not match
/// the caller's expectation (another writer got there first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionConflict {
    /// The item's actual current version (`0` if the item does not exist).
    pub current: u64,
}

impl core::fmt::Display for VersionConflict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "version conflict (current version {})", self.current)
    }
}

impl std::error::Error for VersionConflict {}

/// A handle to the simulated cloud store; cheap to clone and share across
/// admin/client threads (it models independent HTTP connections).
#[derive(Clone)]
pub struct CloudStore {
    inner: Arc<Inner>,
}

impl CloudStore {
    /// An in-memory store without artificial latency.
    pub fn new() -> Self {
        Self::with_latency(LatencyModel::none())
    }

    /// An in-memory store applying `latency` to every request.
    pub fn with_latency(latency: LatencyModel) -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                changed: Condvar::new(),
                latency,
                metrics: Metrics::default(),
                lanes: OnceLock::new(),
            }),
        }
    }

    /// Sleeps the latency of one request carrying `items` items.
    fn simulate_latency(&self, items: usize) {
        let latency = &self.inner.latency;
        if !latency.is_zero() {
            std::thread::sleep(latency.sample_batch(&mut rand::thread_rng(), items));
        }
    }

    /// PUT: stores `data` under `folder/item`, waking long-pollers.
    /// Returns the new global version.
    pub fn put(&self, folder: &str, item: &str, data: impl Into<Bytes>) -> u64 {
        let data = data.into();
        let _span = telemetry::span("store.put")
            .with("folder", folder)
            .with("bytes", data.len())
            .enter();
        self.simulate_latency(1);
        self.inner.metrics.record_put(data.len());
        let st = self.inner.state.lock();
        self.commit(st, folder, [BatchWrite::put(item, data)])
    }

    /// Conditional PUT (compare-and-swap): stores `data` under `folder/item`
    /// only if the item's current version equals `expected` (`0` meaning
    /// "the item must not exist yet"). This is the primitive that makes
    /// concurrent writers safe: each writer round-trips the version it last
    /// saw and loses cleanly instead of clobbering a newer object.
    ///
    /// A successful write counts as a `cas_puts` request; a rejection counts
    /// as a `cas_conflicts` instead and charges no upload bytes (the body is
    /// dropped at the precondition check, like an HTTP 412), so attempt
    /// totals are the sum of the two counters.
    ///
    /// # Errors
    /// [`VersionConflict`] carrying the item's actual version.
    pub fn put_if_version(
        &self,
        folder: &str,
        item: &str,
        data: impl Into<Bytes>,
        expected: u64,
    ) -> Result<u64, VersionConflict> {
        let span = telemetry::span("store.cas")
            .with("folder", folder)
            .with("expected", expected)
            .enter();
        self.simulate_latency(1);
        let data = data.into();
        let st = self.inner.state.lock();
        let current = st.version_of(folder, item);
        if current != expected {
            drop(st);
            self.inner.metrics.record_cas_conflict();
            span.record("conflict", true);
            return Err(VersionConflict { current });
        }
        span.record("conflict", false);
        self.inner.metrics.record_cas_put(data.len());
        Ok(self.commit(st, folder, [BatchWrite::put(item, data)]))
    }

    /// Atomic multi-PUT: stores every `(item, data)` pair under `folder` in
    /// one round-trip — a single latency charge (one round trip plus the
    /// model's marginal per-item cost), a **single version bump** shared by
    /// all items, and a single long-poller wake. Counted as one batched PUT
    /// in the metrics ([`MetricsSnapshot::puts_batched`]) so it does not
    /// inflate per-item PUT counts. The request form
    /// ([`RequestOp::PutMany`]) carries deletes and conditional items too.
    ///
    /// Returns the new global version (the current version if `items` is
    /// empty — an empty publish is a no-op that contacts nothing).
    pub fn put_many<I, B>(&self, folder: &str, items: I) -> u64
    where
        I: IntoIterator<Item = (String, B)>,
        B: Into<Bytes>,
    {
        let items = items
            .into_iter()
            .map(|(name, data)| BatchWrite::put(name, data));
        self.write_many(folder, items.collect())
            .expect("an unconditional batch cannot conflict")
    }

    /// [`CloudStore::put_many`] with deletes and conditional items, checked
    /// and applied **all-or-nothing** under the one lock acquisition: when
    /// every conditional item's expected version holds, the whole batch
    /// lands under one version bump and one wake, booked as one
    /// `puts_batched`. Otherwise nothing is written, no version moves and
    /// no poller wakes; the rejection is booked like a lost CAS — one
    /// `cas_conflicts` and a `store.cas` span, no upload bytes — and names
    /// every conflicting item. A folder the deletes leave empty is
    /// dropped, as by [`CloudStore::delete`].
    ///
    /// # Errors
    /// [`StoreError::BatchConflict`] naming each conditional item whose
    /// expectation failed, with its current version.
    fn write_many(&self, folder: &str, items: Vec<BatchWrite>) -> Result<u64, StoreError> {
        if items.is_empty() {
            return Ok(self.version());
        }
        let span = telemetry::span("store.put_many")
            .with("folder", folder)
            .with("items", items.len())
            .enter();
        self.simulate_latency(items.len());
        let total_bytes: usize = items.iter().flat_map(|w| &w.data).map(Bytes::len).sum();
        let st = self.inner.state.lock();
        let lost = st.conflicts(folder, &items);
        if !lost.is_empty() {
            drop(st);
            self.inner.metrics.record_cas_conflict();
            span.rename("store.cas");
            span.record("conflict", true);
            return Err(StoreError::BatchConflict(lost));
        }
        self.inner.metrics.record_put_many(items.len(), total_bytes);
        Ok(self.commit(st, folder, items))
    }

    /// Applies `items` — stores and deletes — to `folder` under one
    /// version bump, releases the lock and wakes the pollers. Returns
    /// the new version.
    fn commit(
        &self,
        mut st: MutexGuard<'_, State>,
        folder: &str,
        items: impl IntoIterator<Item = BatchWrite>,
    ) -> u64 {
        st.version += 1;
        let version = st.version;
        st.apply(folder, items, version);
        drop(st);
        self.inner.changed.notify_all();
        version
    }

    /// GET: fetches `folder/item` with its version.
    pub fn get(&self, folder: &str, item: &str) -> Option<(Bytes, u64)> {
        let span = telemetry::span("store.get").with("folder", folder).enter();
        let (mut found, _) = self.read(&span, folder, &[item]);
        found.pop().flatten()
    }

    /// Atomic multi-GET: `items` of `folder` and the folder's clock, read
    /// under one lock acquisition in one round-trip (latency as for
    /// [`CloudStore::put_many`]).
    fn get_many(&self, folder: &str, items: &[String]) -> Snapshot {
        let span = telemetry::span("store.get_many")
            .with("folder", folder)
            .with("items", items.len())
            .enter();
        self.read(&span, folder, items)
    }

    /// Serves a GET or multi-GET: `items` of `folder` and the clock, read
    /// under one lock acquisition. Counted as one GET, with the bytes of
    /// every item found, when at least one item is found.
    fn read(
        &self,
        span: &telemetry::SpanGuard,
        folder: &str,
        items: &[impl AsRef<str>],
    ) -> Snapshot {
        self.simulate_latency(items.len().max(1));
        let st = self.inner.state.lock();
        let folder_items = st.folders.get(folder);
        let entry = |item: &str| folder_items?.get(item).map(|e| (e.data.clone(), e.version));
        let found: Vec<_> = items.iter().map(|item| entry(item.as_ref())).collect();
        let version = st.version;
        drop(st);
        let hit = found.iter().any(Option::is_some);
        if hit {
            let bytes = found.iter().flatten().map(|(data, _)| data.len());
            self.inner.metrics.record_get(bytes.sum());
        }
        span.record("hit", hit);
        (found, version)
    }

    /// DELETE: removes `folder/item`, waking long-pollers. Deleting the last
    /// item removes the folder.
    pub fn delete(&self, folder: &str, item: &str) -> bool {
        let _span = telemetry::span("store.delete")
            .with("folder", folder)
            .enter();
        self.simulate_latency(1);
        self.inner.metrics.record_delete();
        let mut st = self.inner.state.lock();
        let version = st.version + 1;
        let removed = st.apply(folder, [BatchWrite::delete(item)], version);
        if removed {
            st.version = version;
        }
        drop(st);
        if removed {
            self.inner.changed.notify_all();
        }
        removed
    }

    /// Lists item names in a folder.
    pub fn list(&self, folder: &str) -> Vec<String> {
        self.simulate_latency(1);
        let st = self.inner.state.lock();
        st.folders
            .get(folder)
            .map(|items| items.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Lists all folder names.
    pub fn list_folders(&self) -> Vec<String> {
        self.simulate_latency(1);
        self.inner.state.lock().folders.keys().cloned().collect()
    }

    /// Current global version (poll cursor seed).
    pub fn version(&self) -> u64 {
        self.inner.state.lock().version
    }

    /// Directory-level long poll (Dropbox `longpoll_delta` analogue): blocks
    /// until some item in `folder` has a version greater than `since` or was
    /// deleted after it, or until `timeout` elapses.
    pub fn long_poll(&self, folder: &str, since: u64, timeout: Duration) -> PollResult {
        let span = telemetry::span("store.poll")
            .with("folder", folder)
            .with("since", since)
            .enter();
        self.inner.metrics.record_poll();
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            let changed: Vec<String> = st
                .folders
                .get(folder)
                .map(|items| {
                    items
                        .iter()
                        .filter(|(_, e)| e.version > since)
                        .map(|(k, _)| k.clone())
                        .collect()
                })
                .unwrap_or_default();
            let removed = st.removed.get(folder).is_some_and(|&v| v > since);
            if !changed.is_empty() || removed {
                self.inner.metrics.record_poll_wakeup();
                span.record("timed_out", false);
                return PollResult {
                    version: st.version,
                    changed,
                    timed_out: false,
                };
            }
            let now = Instant::now();
            if now >= deadline {
                span.record("timed_out", true);
                return PollResult {
                    version: st.version,
                    changed: vec![],
                    timed_out: true,
                };
            }
            let wait = deadline - now;
            if self.inner.changed.wait_for(&mut st, wait).timed_out() {
                span.record("timed_out", true);
                return PollResult {
                    version: st.version,
                    changed: vec![],
                    timed_out: true,
                };
            }
        }
    }

    /// Traffic counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }
}

impl ObjectStore for CloudStore {
    /// Dispatches to the inherent verb; the in-memory store is reliable,
    /// so the only `Err` is a lost CAS, single or batched.
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        let Request {
            folder, item, op, ..
        } = request;
        Ok(match op {
            RequestOp::Put(data) => Response::Put {
                version: self.put(&folder, &item, data),
            },
            RequestOp::PutIfVersion { data, expected } => Response::Put {
                version: self.put_if_version(&folder, &item, data, expected)?,
            },
            RequestOp::PutMany(items) => Response::Put {
                version: self.write_many(&folder, items)?,
            },
            RequestOp::Get => Response::Get(self.get(&folder, &item)),
            RequestOp::GetMany(items) => {
                let (items, version) = self.get_many(&folder, &items);
                Response::GetMany { items, version }
            }
            RequestOp::Delete => Response::Delete(self.delete(&folder, &item)),
            RequestOp::List => Response::Names(self.list(&folder)),
            RequestOp::ListFolders => Response::Names(self.list_folders()),
            // one global clock: every folder shares its domain
            RequestOp::FolderVersion => Response::Version(self.version()),
            RequestOp::LongPoll { since, timeout } => {
                Response::Poll(self.long_poll(&folder, since, timeout))
            }
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        CloudStore::metrics(self)
    }

    /// Queues the `call` onto this store's [`SUBMIT_LANES`] worker
    /// lanes: up to that many submitted requests are served (and charged
    /// their latency) concurrently, while further submissions wait in
    /// FIFO order — the queue-depth model the pipelined client rides.
    fn submit(&self, request: Request) -> StoreTicket {
        let store = self.clone();
        let (completer, ticket) = exec::completion();
        let enqueued = Instant::now();
        self.inner
            .lanes
            .get_or_init(|| exec::Executor::new(SUBMIT_LANES))
            .spawn(move || {
                // join the submitting session's causal chain, and split
                // queue wait (lane contention) from service time (the
                // nested store.* span inside the call)
                let _rid = telemetry::adopt_request_id(request.rid);
                let result = {
                    let _lane = telemetry::span("store.lane")
                        .with("queue_us", enqueued.elapsed().as_micros() as u64)
                        .enter();
                    store.call(request)
                };
                // spans close before the ticket is marked ready, so a
                // waiter that observes completion also observes the spans
                completer.complete(result);
            });
        ticket
    }
}

impl Default for CloudStore {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for CloudStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.inner.state.lock();
        write!(
            f,
            "CloudStore({} folders, version {})",
            st.folders.len(),
            st.version
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_and_versions() {
        let s = CloudStore::new();
        let v1 = s.put("g", "p0", &b"alpha"[..]);
        let v2 = s.put("g", "p1", &b"beta"[..]);
        assert!(v2 > v1);
        let (data, v) = s.get("g", "p0").unwrap();
        assert_eq!(&data[..], b"alpha");
        assert_eq!(v, v1);
        assert!(s.get("g", "missing").is_none());
        assert!(s.get("nope", "p0").is_none());
    }

    #[test]
    fn overwrite_bumps_version() {
        let s = CloudStore::new();
        let v1 = s.put("g", "p0", &b"a"[..]);
        let v2 = s.put("g", "p0", &b"b"[..]);
        assert!(v2 > v1);
        assert_eq!(&s.get("g", "p0").unwrap().0[..], b"b");
    }

    #[test]
    fn list_and_delete() {
        let s = CloudStore::new();
        s.put("g", "p0", &b"a"[..]);
        s.put("g", "p1", &b"b"[..]);
        assert_eq!(s.list("g"), vec!["p0".to_string(), "p1".to_string()]);
        assert!(s.delete("g", "p0"));
        assert!(!s.delete("g", "p0"));
        assert_eq!(s.list("g"), vec!["p1".to_string()]);
        assert!(s.delete("g", "p1"));
        assert!(s.list_folders().is_empty());
    }

    #[test]
    fn long_poll_sees_existing_changes() {
        let s = CloudStore::new();
        s.put("g", "p0", &b"a"[..]);
        let r = s.long_poll("g", 0, Duration::from_millis(10));
        assert!(!r.timed_out);
        assert_eq!(r.changed, vec!["p0".to_string()]);
        // polling from the returned cursor times out (nothing new)
        let r2 = s.long_poll("g", r.version, Duration::from_millis(10));
        assert!(r2.timed_out);
        assert!(r2.changed.is_empty());
    }

    #[test]
    fn long_poll_wakes_on_concurrent_put() {
        let s = CloudStore::new();
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.long_poll("g", 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        s.put("g", "p7", &b"x"[..]);
        let r = handle.join().unwrap();
        assert!(!r.timed_out);
        assert_eq!(r.changed, vec!["p7".to_string()]);
    }

    #[test]
    fn long_poll_scoped_to_folder() {
        let s = CloudStore::new();
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.long_poll("g1", 0, Duration::from_millis(200)));
        std::thread::sleep(Duration::from_millis(30));
        s.put("g2", "p0", &b"x"[..]); // different folder: must not satisfy poller
        let r = handle.join().unwrap();
        assert!(r.timed_out);
    }

    #[test]
    fn metrics_track_traffic() {
        let s = CloudStore::new();
        s.put("g", "p0", &b"12345"[..]);
        s.get("g", "p0");
        s.long_poll("g", 0, Duration::from_millis(1));
        let m = s.metrics();
        assert_eq!(m.puts, 1);
        assert_eq!(m.bytes_up, 5);
        assert_eq!(m.gets, 1);
        assert_eq!(m.bytes_down, 5);
        assert_eq!(m.polls, 1);
    }

    #[test]
    fn put_many_is_one_version_bump_and_one_batched_put() {
        let s = CloudStore::new();
        let v0 = s.put("g", "p0", &b"old"[..]);
        let v = s.put_many(
            "g",
            vec![
                ("p0".to_string(), &b"a"[..]),
                ("p1".to_string(), &b"b"[..]),
                ("p2".to_string(), &b"cc"[..]),
            ],
        );
        assert_eq!(v, v0 + 1, "a batch bumps the global version exactly once");
        for item in ["p0", "p1", "p2"] {
            assert_eq!(s.get("g", item).unwrap().1, v, "all items share a version");
        }
        assert_eq!(&s.get("g", "p0").unwrap().0[..], b"a");
        let m = s.metrics();
        assert_eq!(m.puts, 1, "only the initial single PUT");
        assert_eq!(m.puts_batched, 1);
        assert_eq!(m.batched_items, 3);
        assert_eq!(m.bytes_up, 3 + 4);
    }

    #[test]
    fn put_many_empty_is_a_noop() {
        let s = CloudStore::new();
        let v0 = s.put("g", "p0", &b"x"[..]);
        let v = s.put_many("g", Vec::<(String, Bytes)>::new());
        assert_eq!(v, v0);
        assert_eq!(s.metrics().puts_batched, 0);
    }

    #[test]
    fn put_many_wakes_long_pollers_once_with_all_items() {
        let s = CloudStore::new();
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.long_poll("g", 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        s.put_many(
            "g",
            vec![("p0".to_string(), &b"a"[..]), ("p1".to_string(), &b"b"[..])],
        );
        let r = handle.join().unwrap();
        assert!(!r.timed_out);
        assert_eq!(r.changed, vec!["p0".to_string(), "p1".to_string()]);
        let m = s.metrics();
        assert_eq!(m.poll_wakeups, 1);
        assert_eq!(m.polls, 1);
    }

    #[test]
    fn a_deletes_only_batch_is_one_bump_wakes_pollers_and_drops_the_emptied_folder() {
        let s = CloudStore::new();
        s.put_many(
            "g",
            vec![("p0".to_string(), &b"a"[..]), ("p1".to_string(), &b"b"[..])],
        );
        s.put("h", "x", &b"c"[..]);
        let v0 = s.version();
        let s2 = s.clone();
        let poller = std::thread::spawn(move || s2.long_poll("g", v0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        let deletes = vec![BatchWrite::delete("p0"), BatchWrite::delete("p1")];
        let v = s.write_many("g", deletes).unwrap();
        assert_eq!(v, v0 + 1, "one version bump for the whole batch");
        assert_eq!(s.version(), v);
        let woken = poller.join().unwrap();
        assert!(!woken.timed_out, "a deletion wakes the folder's pollers");
        assert_eq!(woken.version, v);
        assert!(
            woken.changed.is_empty(),
            "deleted items are reported by absence"
        );
        // a poll from before the deletion returns at once; one from after
        // it waits
        assert!(!s.long_poll("g", v0, Duration::ZERO).timed_out);
        assert!(s.long_poll("g", v, Duration::ZERO).timed_out);
        assert_eq!(s.list_folders(), vec!["h".to_string()], "g is dropped");
        assert!(s.get("g", "p0").is_none());
        let m = s.metrics();
        assert_eq!((m.puts_batched, m.batched_items, m.deletes), (2, 4, 0));
    }

    #[test]
    fn get_many_reads_items_and_clock_as_one_get() {
        let s = CloudStore::new();
        let v1 = s.put("g", "a", &b"12"[..]);
        let v2 = s.put("g", "b", &b"345"[..]);
        s.put("h", "c", &b"6"[..]);
        let names = |items: &[&str]| items.iter().map(|i| i.to_string()).collect::<Vec<_>>();
        let (found, clock) = s.get_many("g", &names(&["b", "missing", "a"]));
        let found: Vec<_> = found
            .into_iter()
            .map(|f| f.map(|(d, v)| (d.to_vec(), v)))
            .collect();
        assert_eq!(
            found,
            vec![
                Some((b"345".to_vec(), v2)),
                None,
                Some((b"12".to_vec(), v1))
            ]
        );
        assert_eq!(clock, s.version(), "the folder clock, read with the items");
        // nothing found is not counted, like a GET miss
        assert_eq!(s.get_many("nowhere", &names(&["a"])).0, vec![None]);
        let m = s.metrics();
        assert_eq!((m.gets, m.bytes_down), (1, 5));
    }

    #[test]
    fn a_conditional_batch_lands_whole_under_one_bump_and_one_wake() {
        let s = CloudStore::new();
        let va = s.put("g", "a", &b"old"[..]);
        let v0 = s.version();
        let s2 = s.clone();
        let poller = std::thread::spawn(move || s2.long_poll("g", v0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        let v = s
            .write_many(
                "g",
                vec![
                    BatchWrite::put_if_version("a", &b"new"[..], va),
                    BatchWrite::put_if_version("b", &b"bee"[..], 0),
                    BatchWrite::put("c", &b"sea!"[..]),
                ],
            )
            .unwrap();
        assert_eq!(v, v0 + 1, "one version bump for the whole batch");
        for (item, data) in [("a", &b"new"[..]), ("b", b"bee"), ("c", b"sea!")] {
            assert_eq!(s.get("g", item).unwrap(), (Bytes::from(data), v));
        }
        let woken = poller.join().unwrap();
        assert_eq!(woken.changed, vec!["a", "b", "c"]);
        let m = s.metrics();
        // mixed or not, an applied batch is one batched PUT
        assert_eq!((m.puts_batched, m.batched_items, m.cas_puts), (1, 3, 0));
        assert_eq!(
            (m.cas_conflicts, m.bytes_up, m.poll_wakeups),
            (0, 3 + 3 + 3 + 4, 1)
        );
    }

    #[test]
    fn a_rejected_conditional_batch_writes_nothing_and_names_every_loser() {
        let s = CloudStore::new();
        let va = s.put("g", "a", &b"a0"[..]);
        let vb = s.put("g", "b", &b"b0"[..]);
        let vd = s.put("g", "d", &b"d0"[..]);
        let before = (s.version(), s.metrics());
        let s2 = s.clone();
        let poller =
            std::thread::spawn(move || s2.long_poll("g", before.0, Duration::from_millis(150)));
        std::thread::sleep(Duration::from_millis(30));
        let err = s
            .write_many(
                "g",
                vec![
                    BatchWrite::put_if_version("a", &b"a1"[..], va), // holds
                    BatchWrite::put_if_version("b", &b"b1"[..], 0),  // b exists
                    BatchWrite::put("c", &b"c1"[..]),                // unconditional
                    BatchWrite::put_if_version("ghost", &b"g"[..], 9), // absent
                    BatchWrite::delete("d"),
                    BatchWrite {
                        expected: Some(va),
                        ..BatchWrite::delete("d") // d is at vd
                    },
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::BatchConflict(vec![
                ("b".to_string(), vb),
                ("ghost".to_string(), 0),
                ("d".to_string(), vd)
            ]),
            "every loser, in request order, at its current version"
        );
        // nothing written: not the holding item, not the unconditional
        // store, not the delete
        assert_eq!(s.get("g", "a").unwrap(), (Bytes::from_static(b"a0"), va));
        assert!(s.get("g", "c").is_none());
        assert!(s.get("g", "d").is_some());
        assert_eq!(s.version(), before.0, "no version bump");
        assert!(poller.join().unwrap().timed_out, "no wake");
        let m = s.metrics();
        let delta = |f: fn(&MetricsSnapshot) -> u64| f(&m) - f(&before.1);
        assert_eq!(delta(|m| m.cas_conflicts), 1, "one rejected request");
        assert_eq!(delta(|m| m.puts_batched) + delta(|m| m.batched_items), 0);
        assert_eq!(delta(|m| m.bytes_up) + delta(|m| m.poll_wakeups), 0);
        // the same batch re-conditioned on what the rejection reported
        // lands whole, the conditional delete included
        let v = s
            .write_many(
                "g",
                vec![
                    BatchWrite::put_if_version("b", &b"b1"[..], vb),
                    BatchWrite::put("c", &b"c1"[..]),
                    BatchWrite {
                        expected: Some(vd),
                        ..BatchWrite::delete("d")
                    },
                ],
            )
            .unwrap();
        assert_eq!(s.get("g", "b").unwrap().1, v);
        assert!(s.get("g", "d").is_none());
    }

    #[test]
    fn poll_timeouts_are_not_wakeups() {
        let s = CloudStore::new();
        s.long_poll("g", 0, Duration::from_millis(5));
        let m = s.metrics();
        assert_eq!(m.polls, 1);
        assert_eq!(m.poll_wakeups, 0);
    }

    #[test]
    fn cas_put_succeeds_on_expected_version() {
        let s = CloudStore::new();
        // creation: expected 0 = "must not exist"
        let v1 = s.put_if_version("g", "obj", &b"one"[..], 0).unwrap();
        let (data, got) = s.get("g", "obj").unwrap();
        assert_eq!(&data[..], b"one");
        assert_eq!(got, v1);
        // update conditioned on the version just observed
        let v2 = s.put_if_version("g", "obj", &b"two"[..], v1).unwrap();
        assert!(v2 > v1);
        assert_eq!(&s.get("g", "obj").unwrap().0[..], b"two");
        let m = s.metrics();
        assert_eq!(m.cas_puts, 2);
        assert_eq!(m.cas_conflicts, 0);
        assert_eq!(m.puts, 0, "CAS PUTs are counted separately");
        assert_eq!(m.bytes_up, 6);
    }

    #[test]
    fn cas_put_conflicts_report_current_version_and_leave_data_untouched() {
        let s = CloudStore::new();
        let v1 = s.put("g", "obj", &b"base"[..]);

        // stale expectation loses: another writer already moved the version
        let err = s
            .put_if_version("g", "obj", &b"stale"[..], v1 - 1)
            .unwrap_err();
        assert_eq!(err, VersionConflict { current: v1 });
        assert_eq!(&s.get("g", "obj").unwrap().0[..], b"base");

        // create-if-absent loses against an existing item ...
        let err = s.put_if_version("g", "obj", &b"new"[..], 0).unwrap_err();
        assert_eq!(err.current, v1);
        // ... and an update expectation loses against a missing item
        let err = s.put_if_version("g", "ghost", &b"x"[..], 7).unwrap_err();
        assert_eq!(err, VersionConflict { current: 0 });

        let m = s.metrics();
        assert_eq!(m.cas_puts, 0);
        assert_eq!(m.cas_conflicts, 3);
        assert_eq!(m.bytes_up, 4, "rejected bodies charge no upload bytes");

        // losing CAS → re-read → retry with the fresh version wins
        let (_, current) = s.get("g", "obj").unwrap();
        assert!(s
            .put_if_version("g", "obj", &b"merged"[..], current)
            .is_ok());
        assert_eq!(&s.get("g", "obj").unwrap().0[..], b"merged");
    }

    #[test]
    fn cas_put_wakes_long_pollers() {
        let s = CloudStore::new();
        let s2 = s.clone();
        let handle = std::thread::spawn(move || s2.long_poll("g", 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        s.put_if_version("g", "obj", &b"x"[..], 0).unwrap();
        let r = handle.join().unwrap();
        assert!(!r.timed_out);
        assert_eq!(r.changed, vec!["obj".to_string()]);
    }

    #[test]
    fn concurrent_cas_writers_exactly_one_wins() {
        let s = CloudStore::new();
        let v0 = s.put("g", "obj", &b"seed"[..]);
        let contenders: Vec<_> = (0..4)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    s.put_if_version("g", "obj", format!("writer-{i}"), v0)
                        .is_ok()
                })
            })
            .collect();
        let wins = contenders
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|won| *won)
            .count();
        assert_eq!(wins, 1, "exactly one conditional writer may succeed");
        let m = s.metrics();
        assert_eq!(m.cas_puts, 1);
        assert_eq!(m.cas_conflicts, 3);
    }

    #[test]
    fn latency_model_slows_requests() {
        let s =
            CloudStore::with_latency(LatencyModel::new(Duration::from_millis(5), Duration::ZERO));
        let t0 = Instant::now();
        s.put("g", "p", &b"x"[..]);
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
