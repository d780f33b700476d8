//! [`ShardedStore`]: N independent [`CloudStore`] shards behind one
//! [`ObjectStore`] surface, resizable online.
//!
//! Folders are routed to shards by rendezvous (HRW) hashing over an
//! epoch-versioned [`RoutingTable`], so a folder's entire contents — and
//! therefore every folder-scoped guarantee the upper layers rely on
//! (atomic `put_many` publishes, the CAS clock domain, the long-poll wait
//! queue) — live on exactly one shard. Each shard keeps its **own version
//! clock, its own condvar wait queue and its own latency model**, so
//! traffic against one folder never serializes behind, or spuriously
//! wakes, traffic against folders on other shards.
//!
//! Cross-shard views are merged: [`ObjectStore::list_folders`] unions the
//! shards, [`ObjectStore::metrics`] sums their counters, and
//! [`ShardedStore::watch`] multiplexes every shard's change stream behind
//! one [`WatchCursor`] (a per-slot cursor vector plus a shared wakeup
//! signal), which is what a store-wide observer blocks on.
//!
//! # Online resize and the live-migration protocol
//!
//! [`ShardedStore::resize`] changes the shard count at runtime and
//! migrates **only** the folders whose HRW owner changed (see
//! [`RoutingTable`] for why that is the minimal set). Per folder:
//!
//! 1. **Install** (routing write lock, once per resize): the new table is
//!    swapped in, relocating folders are marked *moving* — routed, reads
//!    and writes alike, to their **old** owner — and retired shards are
//!    parked on a *retiring* list so they stay reachable while draining.
//! 2. **Copy** (no lock): the destination's version clock is jumped past
//!    the source's, then the folder is snapshotted with per-item version
//!    watermarks and bulk-copied via one `put_many`. Writers keep landing
//!    on the source; readers keep reading it — zero unavailability.
//! 3. **Cutover** (routing write lock, per folder): every delegated
//!    blocking operation holds the routing read lock for its full
//!    duration, and submitted requests re-resolve their owner under that
//!    lock *on the worker lane* — so acquiring the write lock is a CAS
//!    fence: no write can be in flight against the source unseen. The
//!    clock is jumped again, a delta re-scan against the watermarks
//!    re-copies what changed (and propagates deletes), the folder leaves
//!    *moving*, and the epoch bumps. New traffic now reaches the new
//!    owner.
//! 4. **Purge**: the source's copy is dropped and, once every moved
//!    folder is cut over, drained retiring shards are released.
//!
//! Imported items are deliberately **re-stamped** at fresh destination
//! versions (rather than carrying their source versions): combined with
//! the two clock jumps this makes every post-migration version compare
//! greater than any cursor minted in the source's clock domain, so a
//! stale cursor degrades to *bounded over-notification* (a migrated
//! folder's items may be re-reported once) — never to a lost
//! notification. CAS version continuity across a cutover is likewise
//! sacrificed; sessions heal by re-reading the current version, exactly
//! as they already do for any CAS conflict.

use crate::fault::{FaultInjector, StoreError};
use crate::latency::LatencyModel;
use crate::metrics::{ImbalanceReport, MetricsSnapshot};
use crate::object_store::ObjectStore;
use crate::routing::RoutingTable;
use crate::store::{CloudStore, PollResult};
use crate::submit::{Request, RequestOp, Response, StoreTicket};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stable 64-bit FNV-1a hash used for shard routing (folders → store
/// shards here, objects → data folders in the data plane). Deliberately
/// not a cryptographic hash: routing only needs determinism and spread,
/// and it must never change across versions or processes.
pub fn stable_hash64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A monotone wakeup signal shared by every shard of one [`ShardedStore`]:
/// any mutation on any shard bumps it, which is what lets a merged
/// [`ShardedStore::watch`] block instead of spin. Routing changes bump it
/// too, so watchers and sessions notice a resize without polling.
#[derive(Default)]
pub(crate) struct ChangeSignal {
    seq: Mutex<u64>,
    changed: Condvar,
}

impl ChangeSignal {
    pub(crate) fn bump(&self) {
        *self.seq.lock() += 1;
        self.changed.notify_all();
    }

    fn current(&self) -> u64 {
        *self.seq.lock()
    }

    /// Blocks until the sequence number exceeds `seen` or `deadline`
    /// passes; returns the sequence observed on wake.
    fn wait_past(&self, seen: u64, deadline: Instant) -> u64 {
        let mut seq = self.seq.lock();
        while *seq <= seen {
            let now = Instant::now();
            if now >= deadline || self.changed.wait_for(&mut seq, deadline - now).timed_out() {
                break;
            }
        }
        *seq
    }
}

/// Cursor for a merged cross-shard [`ShardedStore::watch`]: one version
/// cursor per routing slot (each in its shard's clock domain), keyed by
/// stable slot id so it survives resizes, plus the routing epoch it was
/// minted against and the last observed wakeup-signal sequence. On an
/// epoch change the cursor reconciles itself: surviving slots keep their
/// position, slots that are gone are dropped, and new slots start at 0
/// (exact for a freshly spawned shard; for a migration destination it
/// means the moved folder's items are re-reported once).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchCursor {
    seq: u64,
    epoch: u64,
    /// `(slot id, shard version)` pairs, live slots then retiring slots,
    /// in routing order.
    entries: Vec<(u64, u64)>,
}

/// Outcome of one [`ShardedStore::resize`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeReport {
    /// Shard count before the resize.
    pub from: usize,
    /// Shard count after the resize.
    pub to: usize,
    /// Folders whose owner changed and were live-migrated.
    pub relocated: usize,
    /// Routing epoch after the resize completed.
    pub epoch: u64,
}

/// The mutable routing state of a [`ShardedStore`], behind one `RwLock`.
/// Every delegated blocking operation holds the read lock for its full
/// duration; a migration cutover takes the write lock — that exclusion
/// is the protocol's CAS fence (see the module docs).
struct Routing {
    table: RoutingTable,
    /// Live shards, parallel to `table.slots()`.
    stores: Vec<CloudStore>,
    /// Retired-but-draining shards: still serving their *moving* folders
    /// until each is cut over, then dropped.
    retiring: Vec<(u64, CloudStore)>,
    /// Folders mid-migration → the slot id of their **old** owner, which
    /// keeps serving reads and writes until the cutover.
    moving: HashMap<String, u64>,
}

impl Routing {
    /// The shard a request against `folder` must reach *right now*:
    /// the old owner while the folder is moving, the HRW owner otherwise.
    fn store_for(&self, folder: &str) -> &CloudStore {
        if let Some(&old_slot) = self.moving.get(folder) {
            return self
                .store_by_slot(old_slot)
                .expect("moving folder's old owner is live or retiring");
        }
        &self.stores[self.table.owner_index(folder)]
    }

    fn store_by_slot(&self, slot: u64) -> Option<&CloudStore> {
        if let Some(i) = self.table.slots().iter().position(|&s| s == slot) {
            return Some(&self.stores[i]);
        }
        self.retiring
            .iter()
            .find(|(s, _)| *s == slot)
            .map(|(_, store)| store)
    }

    /// Every reachable shard — live slots in slot-index order, then
    /// retiring slots — with its stable slot id.
    fn all_slots(&self) -> impl Iterator<Item = (u64, &CloudStore)> {
        self.table
            .slots()
            .iter()
            .copied()
            .zip(self.stores.iter())
            .chain(self.retiring.iter().map(|(s, store)| (*s, store)))
    }
}

/// N independent [`CloudStore`] shards behind HRW routing, resizable
/// online via [`ShardedStore::resize`]; see the module docs for the
/// isolation, merge, and live-migration semantics.
#[derive(Clone)]
pub struct ShardedStore {
    routing: Arc<RwLock<Routing>>,
    signal: Arc<ChangeSignal>,
    /// Serializes whole `resize` operations (each spans multiple routing
    /// lock acquisitions).
    resize_lock: Arc<Mutex<()>>,
    /// Latency model cloned into shards spawned by a grow.
    latency: LatencyModel,
    /// When present, [`ShardedStore::watch`] consults the injector and
    /// skips shards inside an outage window instead of scanning them.
    faults: Option<Arc<FaultInjector>>,
}

impl ShardedStore {
    /// `shards` in-memory shards without artificial latency.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_latency(shards, LatencyModel::none())
    }

    /// `shards` shards, each applying its own independent copy of
    /// `latency` (requests to different shards overlap their delays, which
    /// is the point of sharding). Shards added later by
    /// [`ShardedStore::resize`] get the same model.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_latency(shards: usize, latency: LatencyModel) -> Self {
        let table = RoutingTable::new(shards);
        let signal = Arc::new(ChangeSignal::default());
        let stores = (0..shards)
            .map(|_| CloudStore::with_signal(latency, Arc::clone(&signal)))
            .collect();
        Self {
            routing: Arc::new(RwLock::new(Routing {
                table,
                stores,
                retiring: Vec::new(),
                moving: HashMap::new(),
            })),
            signal,
            resize_lock: Arc::new(Mutex::new(())),
            latency,
            faults: None,
        }
    }

    /// Attaches a [`FaultInjector`] whose outage domains map 1:1 onto
    /// this store's shard indices (domain *i* down ⇒ shard *i*
    /// unreachable): [`ShardedStore::watch`] then **skips** a dead
    /// shard's change scan while leaving its cursor untouched, so
    /// everything written on that shard during the outage is reported the
    /// moment it recovers.
    ///
    /// This only affects the merged watch. To fault individual folder
    /// requests, additionally wrap the store in a
    /// [`FaultyStore`](crate::FaultyStore) sharing the same injector.
    #[must_use]
    pub fn with_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Number of live shards.
    pub fn shard_count(&self) -> usize {
        self.routing.read().stores.len()
    }

    /// Handles to the live shards, in slot-index order (per-shard metrics
    /// and diagnostics). Snapshot semantics: a concurrent resize does not
    /// retroactively change the returned vector.
    pub fn shards(&self) -> Vec<CloudStore> {
        self.routing.read().stores.to_vec()
    }

    /// Index (into [`ShardedStore::shards`]) of the shard owning
    /// `folder` under the current routing table. While a folder is
    /// mid-migration its *requests* still reach the old owner; this
    /// reports the HRW owner the cutover is moving it to.
    pub fn shard_index(&self, folder: &str) -> usize {
        self.routing.read().table.owner_index(folder)
    }

    /// The shard currently serving `folder` (the old owner while the
    /// folder is mid-migration).
    pub fn shard_for(&self, folder: &str) -> CloudStore {
        self.routing.read().store_for(folder).clone()
    }

    /// A snapshot of the current routing table.
    pub fn routing_table(&self) -> RoutingTable {
        self.routing.read().table.clone()
    }

    /// Every reachable shard, live then retiring — a snapshot, so merged
    /// reads never hold the routing lock across simulated requests.
    fn all_shards(&self) -> Vec<CloudStore> {
        let r = self.routing.read();
        r.all_slots().map(|(_, s)| s.clone()).collect()
    }

    /// The long poll must NOT hold the routing lock while blocking (a long
    /// timeout would stall every cutover), so it resolves the owner
    /// under a short read lock and polls unlocked. While a migration
    /// is in flight anywhere, it polls in short slices and re-resolves
    /// each slice, bounding how long a poller can keep watching an
    /// owner its folder has been cut away from. A poll already asleep
    /// when a resize *starts* rides out at most its own timeout — the
    /// next poll re-resolves, and the destination's jumped clock
    /// guarantees the stale cursor still reports every later write.
    fn sliced_poll(&self, folder: &str, since: u64, timeout: Duration) -> PollResult {
        const MIGRATION_SLICE: Duration = Duration::from_millis(25);
        let deadline = Instant::now() + timeout;
        loop {
            let (store, migration_active) = {
                let r = self.routing.read();
                (r.store_for(folder).clone(), !r.moving.is_empty())
            };
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !migration_active {
                return store.long_poll(folder, since, remaining);
            }
            let result = store.long_poll(folder, since, remaining.min(MIGRATION_SLICE));
            if !result.timed_out || Instant::now() >= deadline {
                return result;
            }
        }
    }

    /// Resizes to `n` shards and **synchronously** live-migrates every
    /// folder whose HRW owner changed; returns once the new routing is
    /// fully in effect and retired shards are drained and released.
    /// Concurrent traffic keeps flowing throughout — see the module docs
    /// for the per-folder copy/cutover protocol. Concurrent `resize`
    /// calls serialize against each other.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn resize(&self, n: usize) -> ResizeReport {
        assert!(n >= 1, "at least one shard is required");
        let _serialize = self.resize_lock.lock();
        let span = telemetry::span("route.resize").with("to", n).enter();
        // Phase 1: install the new table; mark movers; park retired shards.
        let (moves, from) = {
            let mut r = self.routing.write();
            let from = r.table.len();
            if from == n {
                return ResizeReport {
                    from,
                    to: n,
                    relocated: 0,
                    epoch: r.table.epoch(),
                };
            }
            let new_table = r.table.resized(n);
            let mut stores = Vec::with_capacity(n);
            for &slot in new_table.slots() {
                match r.table.slots().iter().position(|&s| s == slot) {
                    Some(i) => stores.push(r.stores[i].clone()),
                    None => stores.push(CloudStore::with_signal(
                        self.latency,
                        Arc::clone(&self.signal),
                    )),
                }
            }
            let mut moves: Vec<(String, u64)> = Vec::new();
            for (i, &slot) in r.table.slots().iter().enumerate() {
                for folder in r.stores[i].folder_names() {
                    if new_table.owner_slot(&folder) != slot {
                        moves.push((folder, slot));
                    }
                }
            }
            let retired: Vec<(u64, CloudStore)> = r
                .table
                .slots()
                .iter()
                .enumerate()
                .filter(|(_, slot)| !new_table.slots().contains(slot))
                .map(|(i, &slot)| (slot, r.stores[i].clone()))
                .collect();
            r.retiring.extend(retired);
            for (folder, old_slot) in &moves {
                r.moving.insert(folder.clone(), *old_slot);
            }
            r.table = new_table;
            r.stores = stores;
            (moves, from)
        };
        // Watchers and sessions notice the epoch bump without polling.
        self.signal.bump();
        // Phase 2: migrate each relocated folder (copy + CAS-fenced
        // cutover); traffic to unrelated folders never blocks.
        for (folder, old_slot) in &moves {
            self.migrate_folder(folder, *old_slot);
        }
        // Phase 3: release drained retired shards.
        let epoch = {
            let mut r = self.routing.write();
            debug_assert!(
                r.retiring.iter().all(|(_, s)| s.folder_count() == 0),
                "retiring shards must be drained before release"
            );
            r.retiring.clear();
            r.table.advance_epoch();
            r.table.epoch()
        };
        self.signal.bump();
        span.record("relocated", moves.len());
        ResizeReport {
            from,
            to: n,
            relocated: moves.len(),
            epoch,
        }
    }

    /// Live-migrates one folder from its old owner to its current HRW
    /// owner: lock-free bulk copy, then a CAS-fenced cutover under the
    /// routing write lock. See the module docs for the protocol and the
    /// re-stamping argument.
    fn migrate_folder(&self, folder: &str, old_slot: u64) {
        let (src, dest, new_slot) = {
            let r = self.routing.read();
            let src = r
                .store_by_slot(old_slot)
                .expect("old owner still reachable")
                .clone();
            let i = r.table.owner_index(folder);
            (src, r.stores[i].clone(), r.table.slots()[i])
        };
        let span = telemetry::span("route.migrate")
            .with("folder", folder)
            .with("from_slot", old_slot)
            .with("to_slot", new_slot)
            .enter();
        // Copy phase (no routing lock): writers still land on src.
        dest.advance_clock_past(src.version());
        let snapshot = src.export_folder(folder);
        let watermarks: HashMap<String, u64> = snapshot
            .iter()
            .map(|(name, _, version)| (name.clone(), *version))
            .collect();
        dest.put_many(
            folder,
            snapshot
                .into_iter()
                .map(|(name, data, _)| (name, data))
                .collect::<Vec<_>>(),
        );
        span.record("copied", watermarks.len());
        // Cutover: the write lock drains every in-flight delegated op
        // (each holds the read lock for its full duration), so the delta
        // scan below observes every write that ever reached src.
        {
            let cut = telemetry::span("route.cutover")
                .with("folder", folder)
                .enter();
            let mut r = self.routing.write();
            dest.advance_clock_past(src.version());
            let current = src.export_folder(folder);
            let delta: Vec<(String, Bytes)> = current
                .iter()
                .filter(|(name, _, version)| watermarks.get(name) != Some(version))
                .map(|(name, data, _)| (name.clone(), data.clone()))
                .collect();
            cut.record("changed", delta.len());
            dest.put_many(folder, delta);
            let gone: Vec<&String> = watermarks
                .keys()
                .filter(|name| !current.iter().any(|(n, _, _)| n == *name))
                .collect();
            cut.record("removed", gone.len());
            for item in gone {
                dest.delete(folder, item);
            }
            r.moving.remove(folder);
            r.table.advance_epoch();
        }
        self.signal.bump();
        // Source cleanup happens outside the lock: the folder is already
        // routed to dest, so nothing can observe the purge mid-flight.
        src.purge_folder(folder);
    }

    /// Per-shard traffic counters, keyed by stable slot id, in slot-index
    /// order — the breakdown behind [`ShardedStore::imbalance`].
    pub fn per_shard_metrics(&self) -> Vec<(u64, MetricsSnapshot)> {
        let r = self.routing.read();
        r.table
            .slots()
            .iter()
            .zip(r.stores.iter())
            .map(|(&slot, store)| (slot, store.metrics()))
            .collect()
    }

    /// Max/mean load imbalance across the live shards, over resident
    /// folder counts and served request counts.
    pub fn imbalance(&self) -> ImbalanceReport {
        let r = self.routing.read();
        let mut report = ImbalanceReport {
            shards: r.stores.len() as u64,
            ..ImbalanceReport::default()
        };
        for store in r.stores.iter() {
            let folders = store.folder_count() as u64;
            let ops = store.metrics().requests();
            report.total_folders += folders;
            report.total_ops += ops;
            report.max_folders = report.max_folders.max(folders);
            report.max_ops = report.max_ops.max(ops);
        }
        report
    }

    /// A fresh merged cursor positioned at "now" (a subsequent
    /// [`ShardedStore::watch`] reports only changes made after this call).
    pub fn cursor(&self) -> WatchCursor {
        let r = self.routing.read();
        WatchCursor {
            seq: self.signal.current(),
            epoch: r.table.epoch(),
            entries: r
                .all_slots()
                .map(|(slot, store)| (slot, store.version()))
                .collect(),
        }
    }

    /// Merged cross-shard watch: blocks until an item on **any** shard is
    /// written past the cursor (or `timeout` elapses), returns the changed
    /// `(folder, item)` pairs and advances the cursor. Unlike
    /// [`ObjectStore::long_poll`] this is store-wide — the shape a global
    /// observer (an auditor tailing every group, a dashboard) blocks on.
    ///
    /// Like the folder-level long poll, only *present* items are reported:
    /// a DELETE advances the clocks but surfaces nothing here — deleted
    /// items are observed by absence on a subsequent `list`/`get`, exactly
    /// as [`PollResult`] documents for the single store.
    ///
    /// Across a [`ShardedStore::resize`] the cursor reconciles itself to
    /// the new slot list (see [`WatchCursor`]); retiring shards keep
    /// being scanned until they drain, so nothing written during a
    /// migration is missed — at worst a migrated folder's items are
    /// re-reported once from their new shard.
    ///
    /// With an attached [`FaultInjector`] (see
    /// [`ShardedStore::with_injector`]), shards inside an outage window
    /// are skipped without touching their cursor entry: the watch keeps
    /// reporting the live shards, and the dead shard's backlog surfaces
    /// in full once its window ends.
    pub fn watch(&self, cursor: &mut WatchCursor, timeout: Duration) -> Vec<(String, String)> {
        // Re-scan cadence while a shard is down: its backlog writes
        // bumped the signal *before* the outage was observed, so only
        // polling — not the signal — can notice the recovery.
        const OUTAGE_RESCAN: Duration = Duration::from_millis(5);
        let deadline = Instant::now() + timeout;
        loop {
            let seen = self.signal.current();
            let mut changed = Vec::new();
            let mut skipped_down_shard = false;
            {
                let r = self.routing.read();
                if cursor.epoch != r.table.epoch() {
                    let old: HashMap<u64, u64> = cursor.entries.drain(..).collect();
                    cursor.entries = r
                        .all_slots()
                        .map(|(slot, _)| (slot, old.get(&slot).copied().unwrap_or(0)))
                        .collect();
                    cursor.epoch = r.table.epoch();
                }
                let live = r.stores.len();
                for (i, (slot, store)) in r.all_slots().enumerate() {
                    // Outage domains cover live shard indices; retiring
                    // shards are always scanned (they are draining, not
                    // faulted out).
                    if i < live && self.faults.as_deref().is_some_and(|f| f.is_down(i)) {
                        // cursor entry untouched: resumes where it left off
                        skipped_down_shard = true;
                        continue;
                    }
                    let entry = cursor
                        .entries
                        .iter_mut()
                        .find(|(s, _)| *s == slot)
                        .expect("cursor reconciled to the current slot list");
                    let (version, items) = store.changes_since(entry.1);
                    entry.1 = version;
                    changed.extend(items);
                }
            }
            if !changed.is_empty() {
                cursor.seq = seen;
                changed.sort();
                // an item mid-migration may be visible on both its old
                // and new shard for a moment — report it once
                changed.dedup();
                return changed;
            }
            let wait_until = if skipped_down_shard {
                deadline.min(Instant::now() + OUTAGE_RESCAN)
            } else {
                deadline
            };
            cursor.seq = self.signal.wait_past(seen, wait_until);
            if cursor.seq <= seen && Instant::now() >= deadline {
                return Vec::new(); // timed out quiet
            }
        }
    }
}

impl ObjectStore for ShardedStore {
    /// Routes the request to its folder's current shard. Each shard is a
    /// reliable in-memory CloudStore; fault injection wraps whole stores
    /// from the outside (FaultyStore), never individual shards from here.
    ///
    /// A folder-scoped request holds the routing read lock for its full
    /// duration, so a migration cutover (which needs the write lock)
    /// cannot slip underneath it — the per-operation half of the CAS
    /// fence, and the only route resolution of the blocking and the lane
    /// path alike.
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        match request.op {
            RequestOp::ListFolders => {
                let mut folders: Vec<String> = self
                    .all_shards()
                    .iter()
                    .flat_map(CloudStore::list_folders)
                    .collect();
                folders.sort();
                // a folder mid-migration is resident on two shards for a moment
                folders.dedup();
                Ok(Response::Names(folders))
            }
            RequestOp::LongPoll { since, timeout } => Ok(Response::Poll(self.sliced_poll(
                &request.folder,
                since,
                timeout,
            ))),
            _ => {
                let r = self.routing.read();
                r.store_for(&request.folder).call(request)
            }
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.all_shards()
            .iter()
            .map(CloudStore::metrics)
            .fold(MetricsSnapshot::default(), |acc, m| acc.merge(&m))
    }

    fn routing_epoch(&self) -> u64 {
        self.routing.read().table.epoch()
    }

    /// Queues the `call` onto the owning shard's worker lanes: N shards
    /// give N independent sets of in-flight lanes, which is what makes
    /// submitted throughput scale with the shard count. Because the lane
    /// runs this store's own `call`, the owner is **re-resolved** under
    /// the routing read lock when the request actually executes, so a
    /// request queued before a cutover can never land on the retired
    /// owner unseen — the submission-path half of the CAS fence.
    fn submit(&self, request: Request) -> StoreTicket {
        let this = self.clone();
        let lanes = self.shard_for(&request.folder);
        lanes.run_on_lanes(request.rid, move || this.call(request))
    }
}

impl core::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let r = self.routing.read();
        write!(
            f,
            "ShardedStore({} shards, epoch {})",
            r.stores.len(),
            r.table.epoch()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_deterministic_and_spreads() {
        assert_eq!(stable_hash64("group-1"), stable_hash64("group-1"));
        assert_ne!(stable_hash64("group-1"), stable_hash64("group-2"));
        // FNV-1a of the empty string is the offset basis
        assert_eq!(stable_hash64(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn folder_ops_route_to_the_owning_shard() {
        let s = ShardedStore::new(4);
        s.put("g", "item", Bytes::from_static(b"x"));
        let owner = s.shard_index("g");
        for (i, shard) in s.shards().iter().enumerate() {
            let present = shard.get("g", "item").is_some();
            assert_eq!(present, i == owner, "shard {i}");
        }
        assert_eq!(s.list("g"), vec!["item".to_string()]);
        assert!(s.delete("g", "item"));
        assert!(s.list_folders().is_empty());
    }

    #[test]
    fn watch_merges_changes_across_shards() {
        let s = ShardedStore::new(3);
        let mut cursor = s.cursor();
        s.put("a", "1", Bytes::from_static(b"x"));
        s.put("b", "2", Bytes::from_static(b"y"));
        let mut changed = s.watch(&mut cursor, Duration::from_millis(50));
        changed.sort();
        assert_eq!(
            changed,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string())
            ]
        );
        // cursor advanced: a quiet watch times out empty
        assert!(s.watch(&mut cursor, Duration::from_millis(5)).is_empty());
    }

    #[test]
    fn watch_skips_a_dead_shard_and_resumes_its_cursor() {
        use crate::fault::{FaultConfig, FaultInjector};
        let injector = Arc::new(FaultInjector::new(FaultConfig {
            domains: 3,
            ..FaultConfig::default()
        }));
        let s = ShardedStore::new(3).with_injector(Arc::clone(&injector));
        let mut cursor = s.cursor();
        let down = s.shard_index("a");
        let other = ["b", "c", "d", "e", "f"]
            .into_iter()
            .find(|f| s.shard_index(f) != down)
            .expect("a folder on a different shard");
        injector.force_outage(down, Duration::from_secs(60));
        s.put("a", "1", Bytes::from_static(b"x")); // lands on the dead shard
        s.put(other, "2", Bytes::from_static(b"y"));
        // the live shard's change is reported; the dead shard is skipped
        let changed = s.watch(&mut cursor, Duration::from_millis(200));
        assert_eq!(changed, vec![(other.to_string(), "2".to_string())]);
        // recovery: the skipped cursor replays the dead shard's backlog
        injector.heal();
        let changed = s.watch(&mut cursor, Duration::from_millis(500));
        assert_eq!(changed, vec![("a".to_string(), "1".to_string())]);
    }

    #[test]
    fn watch_wakes_on_concurrent_put_to_any_shard() {
        let s = ShardedStore::new(4);
        let s2 = s.clone();
        let handle = std::thread::spawn(move || {
            let mut c = s2.cursor();
            s2.watch(&mut c, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        s.put("late-folder", "item", Bytes::from_static(b"z"));
        let changed = handle.join().unwrap();
        assert_eq!(
            changed,
            vec![("late-folder".to_string(), "item".to_string())]
        );
    }

    #[test]
    fn resize_relocates_and_preserves_contents() {
        let s = ShardedStore::new(2);
        for i in 0..40 {
            s.put(&format!("f-{i}"), "item", Bytes::from(format!("v{i}")));
        }
        let before_epoch = s.routing_epoch();
        let report = s.resize(5);
        assert_eq!(report.from, 2);
        assert_eq!(report.to, 5);
        assert!(report.relocated > 0, "some folders must move on a grow");
        assert!(report.epoch > before_epoch);
        assert_eq!(s.shard_count(), 5);
        for i in 0..40 {
            let (data, _) = s.get(&format!("f-{i}"), "item").expect("folder survives");
            assert_eq!(data, Bytes::from(format!("v{i}")));
        }
        // every folder is resident on exactly its owner
        for i in 0..40 {
            let folder = format!("f-{i}");
            let owner = s.shard_index(&folder);
            for (j, shard) in s.shards().iter().enumerate() {
                assert_eq!(shard.get(&folder, "item").is_some(), j == owner);
            }
        }
    }

    #[test]
    fn shrink_drains_retired_shards() {
        let s = ShardedStore::new(4);
        for i in 0..30 {
            s.put(&format!("f-{i}"), "x", Bytes::from_static(b"d"));
        }
        let report = s.resize(2);
        assert_eq!(s.shard_count(), 2);
        assert!(report.relocated > 0);
        let mut all = s.list_folders();
        all.sort();
        assert_eq!(all.len(), 30);
        // resize back up: routing still serves everything
        s.resize(4);
        for i in 0..30 {
            assert!(s.get(&format!("f-{i}"), "x").is_some());
        }
    }

    #[test]
    fn resize_to_same_count_is_a_noop() {
        let s = ShardedStore::new(3);
        s.put("g", "i", Bytes::from_static(b"x"));
        let epoch = s.routing_epoch();
        let report = s.resize(3);
        assert_eq!(report.relocated, 0);
        assert_eq!(report.epoch, epoch);
    }

    #[test]
    fn watch_cursor_survives_a_resize() {
        let s = ShardedStore::new(2);
        s.put("seed", "i", Bytes::from_static(b"x"));
        let mut cursor = s.cursor();
        s.resize(4);
        s.put("fresh", "j", Bytes::from_static(b"y"));
        // the fresh write is reported; the migrated seed folder may be
        // re-reported once (over-notification, never loss)
        let changed = s.watch(&mut cursor, Duration::from_millis(200));
        assert!(
            changed.contains(&("fresh".to_string(), "j".to_string())),
            "changed: {changed:?}"
        );
    }
}
