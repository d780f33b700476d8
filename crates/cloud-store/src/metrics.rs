//! Request/byte accounting for the simulated cloud store.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for store traffic (what the paper's storage/traffic arguments
/// are about: HE pushes megabytes per membership change, IBBE-SGX pushes a
/// few hundred bytes per partition).
#[derive(Debug, Default)]
pub struct Metrics {
    puts: AtomicU64,
    puts_batched: AtomicU64,
    batched_items: AtomicU64,
    cas_puts: AtomicU64,
    cas_conflicts: AtomicU64,
    gets: AtomicU64,
    deletes: AtomicU64,
    polls: AtomicU64,
    poll_wakeups: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

/// A point-in-time snapshot of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Number of single-item PUT requests. Batched publishes are counted
    /// separately in [`MetricsSnapshot::puts_batched`] so a multi-item
    /// publish does not inflate per-item PUT counts.
    pub puts: u64,
    /// Number of applied multi-write round-trips (each is one request
    /// regardless of how many items it carries, and whether or not any of
    /// them was conditional). A conditional batch the store rejects is not
    /// counted here but in [`MetricsSnapshot::cas_conflicts`].
    pub puts_batched: u64,
    /// Total items carried by applied multi-write round-trips.
    pub batched_items: u64,
    /// Successful conditional (compare-and-swap) PUT requests.
    pub cas_puts: u64,
    /// Conditional PUTs rejected with a version conflict (counted instead
    /// of, not in addition to, [`MetricsSnapshot::cas_puts`]), plus
    /// conditional multi-writes rejected whole: one per rejected batch,
    /// however many of its items conflicted, with no upload bytes.
    pub cas_conflicts: u64,
    /// Number of GET requests.
    pub gets: u64,
    /// Number of DELETE requests.
    pub deletes: u64,
    /// Number of long-poll requests served.
    pub polls: u64,
    /// Long polls answered with changes (i.e. woken rather than timed out);
    /// counted distinctly from the request count in
    /// [`MetricsSnapshot::polls`].
    pub poll_wakeups: u64,
    /// Bytes uploaded (PUT payloads, single and batched; a rejected
    /// conditional write uploads nothing).
    pub bytes_up: u64,
    /// Bytes downloaded (GET payloads).
    pub bytes_down: u64,
}

impl MetricsSnapshot {
    /// Total requests served, across every request kind (batched PUTs
    /// count as one request each, like the round-trips they model; CAS
    /// conflicts count — the store did serve the rejected request).
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.puts
            + self.puts_batched
            + self.cas_puts
            + self.cas_conflicts
            + self.gets
            + self.deletes
            + self.polls
    }

    /// Field-wise sum of two snapshots — how a sharded store aggregates its
    /// per-shard counters into one cross-shard view.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            puts: self.puts + other.puts,
            puts_batched: self.puts_batched + other.puts_batched,
            batched_items: self.batched_items + other.batched_items,
            cas_puts: self.cas_puts + other.cas_puts,
            cas_conflicts: self.cas_conflicts + other.cas_conflicts,
            gets: self.gets + other.gets,
            deletes: self.deletes + other.deletes,
            polls: self.polls + other.polls,
            poll_wakeups: self.poll_wakeups + other.poll_wakeups,
            bytes_up: self.bytes_up + other.bytes_up,
            bytes_down: self.bytes_down + other.bytes_down,
        }
    }
}

impl Metrics {
    pub(crate) fn record_put(&self, bytes: usize) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_up.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_put_many(&self, items: usize, bytes: usize) {
        self.puts_batched.fetch_add(1, Ordering::Relaxed);
        self.batched_items
            .fetch_add(items as u64, Ordering::Relaxed);
        self.bytes_up.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_cas_put(&self, bytes: usize) {
        self.cas_puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_up.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_cas_conflict(&self) {
        self.cas_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_get(&self, bytes: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.bytes_down.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_delete(&self) {
        self.deletes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_poll(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_poll_wakeup(&self) {
        self.poll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            puts_batched: self.puts_batched.load(Ordering::Relaxed),
            batched_items: self.batched_items.load(Ordering::Relaxed),
            cas_puts: self.cas_puts.load(Ordering::Relaxed),
            cas_conflicts: self.cas_conflicts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.record_put(100);
        m.record_put(50);
        m.record_get(30);
        m.record_delete();
        m.record_poll();
        let s = m.snapshot();
        assert_eq!(s.puts, 2);
        assert_eq!(s.bytes_up, 150);
        assert_eq!(s.gets, 1);
        assert_eq!(s.bytes_down, 30);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.polls, 1);
        assert_eq!(s.puts_batched, 0);
        assert_eq!(s.poll_wakeups, 0);
    }

    #[test]
    fn batched_puts_and_wakeups_counted_distinctly() {
        let m = Metrics::default();
        m.record_put(10);
        m.record_put_many(3, 300);
        m.record_poll();
        m.record_poll_wakeup();
        m.record_poll();
        let s = m.snapshot();
        // a 3-item batch is ONE round-trip, not three PUTs
        assert_eq!(s.puts, 1);
        assert_eq!(s.puts_batched, 1);
        assert_eq!(s.batched_items, 3);
        assert_eq!(s.bytes_up, 310);
        assert_eq!(s.polls, 2);
        assert_eq!(s.poll_wakeups, 1);
    }
}
