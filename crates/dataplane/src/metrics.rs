//! Data-plane counters: the numbers the lazy-vs-eager argument is made of.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters shared by a session and any sweeper driving it.
#[derive(Debug, Default)]
pub struct DataMetrics {
    writes: AtomicU64,
    reads: AtomicU64,
    old_epoch_reads: AtomicU64,
    migrations: AtomicU64,
    write_conflicts: AtomicU64,
    migration_conflicts: AtomicU64,
    key_refreshes: AtomicU64,
    key_derivations: AtomicU64,
    coalesced_writes: AtomicU64,
}

/// A point-in-time snapshot of [`DataMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DataMetricsSnapshot {
    /// Successful application writes (each seals at the current epoch, so
    /// every write is also an implicit lazy re-encryption of its object).
    pub writes: u64,
    /// Successful reads.
    pub reads: u64,
    /// Reads served from an epoch older than the ring's current one — the
    /// lazy window in action (zero under the eager policy once a sweep
    /// completes).
    pub old_epoch_reads: u64,
    /// Objects the sweeper re-encrypted to the current epoch. The lazy
    /// acceptance criterion is that a revoking batch itself contributes
    /// **zero** here and to `writes`.
    pub migrations: u64,
    /// Application writes that lost the CAS race.
    pub write_conflicts: u64,
    /// Sweeper migrations that lost the CAS race to a concurrent writer
    /// (benign: the winner sealed at the current epoch anyway).
    pub migration_conflicts: u64,
    /// Times the session rebuilt its epoch key ring from the cloud.
    pub key_refreshes: u64,
    /// IBBE decrypts the session ran to derive a group key. A sync that
    /// reused a derivation shared with another session of the same
    /// identity (see [`crate::ClientSession::share_derivations_with`])
    /// refreshes the ring without one.
    pub key_derivations: u64,
    /// Writes a [`crate::PipelinedSession`] merged into a queued write to
    /// the same object before submission (last-write-wins) — requests the
    /// pipeline saved versus a serial session. Always zero for serial
    /// sessions and at `max_inflight == 1`.
    pub coalesced_writes: u64,
}

impl DataMetricsSnapshot {
    /// Field-wise sum of two snapshots — how a [`crate::SweepScheduler`]
    /// merges its unit sessions' counters into one view.
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        Self {
            writes: self.writes + other.writes,
            reads: self.reads + other.reads,
            old_epoch_reads: self.old_epoch_reads + other.old_epoch_reads,
            migrations: self.migrations + other.migrations,
            write_conflicts: self.write_conflicts + other.write_conflicts,
            migration_conflicts: self.migration_conflicts + other.migration_conflicts,
            key_refreshes: self.key_refreshes + other.key_refreshes,
            key_derivations: self.key_derivations + other.key_derivations,
            coalesced_writes: self.coalesced_writes + other.coalesced_writes,
        }
    }
}

impl telemetry::Counters for DataMetricsSnapshot {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("writes", self.writes),
            ("reads", self.reads),
            ("old_epoch_reads", self.old_epoch_reads),
            ("migrations", self.migrations),
            ("write_conflicts", self.write_conflicts),
            ("migration_conflicts", self.migration_conflicts),
            ("key_refreshes", self.key_refreshes),
            ("key_derivations", self.key_derivations),
            ("coalesced_writes", self.coalesced_writes),
        ]
    }
}

/// Fleet-level counters with per-group attribution: the aggregate across
/// every group a [`crate::SweepScheduler`] serves, plus each group's own
/// slice — so fleet benches and tests can assert who did what without
/// parsing logs.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Field-wise sum over every group's sweep sessions.
    pub total: DataMetricsSnapshot,
    /// Per-group breakdown, keyed by group label in task-registration
    /// order. Each entry sums only that group's unit sessions, so it
    /// covers exactly the work the scheduler drove for that group.
    pub by_group: Vec<(String, DataMetricsSnapshot)>,
}

impl FleetMetrics {
    /// The snapshot attributed to `group`, if registered.
    pub fn group(&self, group: &str) -> Option<&DataMetricsSnapshot> {
        self.by_group
            .iter()
            .find(|(g, _)| g == group)
            .map(|(_, m)| m)
    }
}

impl telemetry::Counters for FleetMetrics {
    /// The fleet-wide aggregate — per-group slices stay on
    /// [`FleetMetrics::by_group`].
    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.total.counters()
    }
}

impl DataMetrics {
    pub(crate) fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_read(&self, old_epoch: bool) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if old_epoch {
            self.old_epoch_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_migrations(&self, objects: usize) {
        self.migrations.fetch_add(objects as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_write_conflict(&self) {
        self.write_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_migration_conflicts(&self, objects: usize) {
        self.migration_conflicts
            .fetch_add(objects as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_key_refresh(&self) {
        self.key_refreshes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_key_derivations(&self, derivations: u64) {
        self.key_derivations
            .fetch_add(derivations, Ordering::Relaxed);
    }

    pub(crate) fn record_coalesced_write(&self) {
        self.coalesced_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> DataMetricsSnapshot {
        DataMetricsSnapshot {
            writes: self.writes.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            old_epoch_reads: self.old_epoch_reads.load(Ordering::Relaxed),
            migrations: self.migrations.load(Ordering::Relaxed),
            write_conflicts: self.write_conflicts.load(Ordering::Relaxed),
            migration_conflicts: self.migration_conflicts.load(Ordering::Relaxed),
            key_refreshes: self.key_refreshes.load(Ordering::Relaxed),
            key_derivations: self.key_derivations.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_independently() {
        let m = DataMetrics::default();
        m.record_write();
        m.record_read(false);
        m.record_read(true);
        m.record_migrations(1);
        m.record_write_conflict();
        m.record_migration_conflicts(1);
        m.record_key_refresh();
        m.record_key_derivations(1);
        m.record_coalesced_write();
        let s = m.snapshot();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 2);
        assert_eq!(s.old_epoch_reads, 1);
        assert_eq!(s.migrations, 1);
        assert_eq!(s.write_conflicts, 1);
        assert_eq!(s.migration_conflicts, 1);
        assert_eq!(s.key_refreshes, 1);
        assert_eq!(s.key_derivations, 1);
        assert_eq!(s.coalesced_writes, 1);
    }
}
