//! [`ShardedStore`]: a fixed number of independent [`CloudStore`] shards
//! behind one [`ObjectStore`] surface.
//!
//! The shard count is set at construction and never changes. Folders are
//! routed to shards by rendezvous (highest-random-weight) hashing over the
//! shard indices, so a folder's entire contents — and therefore every
//! folder-scoped guarantee the upper layers rely on (atomic `put_many`
//! publishes, the CAS clock domain, the long-poll wait queue) — live on
//! exactly one shard. Each shard keeps its **own version clock, its own
//! condvar wait queue, its own latency model and its own submit lanes**,
//! so traffic against one folder never serializes behind, or spuriously
//! wakes, traffic against folders on other shards.
//!
//! Routing is a pure function of the folder name and the shard count, so
//! any two stores with the same count place every folder identically.
//! Store-wide reads are merged: [`ObjectStore::list_folders`] unions the
//! shards and [`ObjectStore::metrics`] sums their counters.

use crate::fault::StoreError;
use crate::latency::LatencyModel;
use crate::metrics::MetricsSnapshot;
use crate::object_store::ObjectStore;
use crate::store::CloudStore;
use crate::submit::{completed_ticket, Request, RequestOp, Response, StoreTicket};

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

/// SplitMix64 finalizer: decorrelates the shard-index/folder-hash
/// combination so rendezvous weights behave like independent uniform draws
/// per (shard, folder) pair.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Index of the shard owning `folder` among `shards`: the index with the
/// highest rendezvous weight, the lowest index winning a tie.
fn owner(folder: &str, shards: usize) -> usize {
    let h = stable_hash64(folder);
    let weight = |shard: usize| mix64((shard as u64).wrapping_mul(0xff51_afd7_ed55_8ccd) ^ h);
    let (best, _) = (1..shards).fold((0, weight(0)), |(best, best_w), shard| {
        let w = weight(shard);
        if w > best_w {
            (shard, w)
        } else {
            (best, best_w)
        }
    });
    best
}

/// A fixed number of independent [`CloudStore`] shards behind rendezvous
/// routing; see the module docs for the isolation and merge semantics.
#[derive(Clone)]
pub struct ShardedStore {
    shards: Vec<CloudStore>,
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
    /// is the point of sharding).
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_latency(shards: usize, latency: LatencyModel) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        Self {
            shards: (0..shards)
                .map(|_| CloudStore::with_latency(latency))
                .collect(),
        }
    }

    /// The shards, in index order (per-shard metrics and diagnostics).
    pub fn shards(&self) -> &[CloudStore] {
        &self.shards
    }

    /// Index (into [`ShardedStore::shards`]) of the shard owning `folder`.
    pub fn shard_index(&self, folder: &str) -> usize {
        owner(folder, self.shards.len())
    }

    fn shard(&self, folder: &str) -> &CloudStore {
        &self.shards[self.shard_index(folder)]
    }
}

impl ObjectStore for ShardedStore {
    /// Routes the request to its folder's shard; a folder listing is
    /// merged across every shard. Each shard is a reliable in-memory
    /// CloudStore; fault injection wraps whole stores from the outside
    /// (FaultyStore), never individual shards from here.
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        match request.op {
            RequestOp::ListFolders => {
                let mut folders: Vec<String> = self
                    .shards
                    .iter()
                    .flat_map(CloudStore::list_folders)
                    .collect();
                folders.sort();
                Ok(Response::Names(folders))
            }
            _ => self.shard(&request.folder).call(request),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.shards
            .iter()
            .map(CloudStore::metrics)
            .fold(MetricsSnapshot::default(), |acc, m| acc.merge(&m))
    }

    /// Queues the request onto the owning shard's worker lanes: N shards
    /// give N independent sets of in-flight lanes, which is what makes
    /// submitted throughput scale with the shard count. A store-wide
    /// folder listing is served inline.
    fn submit(&self, request: Request) -> StoreTicket {
        match request.op {
            RequestOp::ListFolders => completed_ticket(self.call(request)),
            _ => self.shard(&request.folder).submit(request),
        }
    }
}

impl core::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ShardedStore({} shards)", self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

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
}
