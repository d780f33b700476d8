//! Revocation coordination: where the control plane's key rotation meets
//! the data plane's re-encryption cost, under a configurable policy.
//!
//! Both policies are the same two calls on the one sweep driver
//! ([`SweepScheduler`]): a rotation **arms** the group's task (O(1), no
//! store traffic), and a sweep is [`SweepScheduler::converge_all`]. They
//! differ only in *when* the second call happens — `Lazy` leaves it to the
//! caller (a background `watch` loop, a timer, the next maintenance
//! window), `Eager` makes it before the revocation returns, and fails
//! closed if it does not converge.

use crate::error::DataError;
use crate::scheduler::SweepScheduler;
use crate::sweeper::SweepReport;
use acs::Admin;
use ibbe_sgx_core::{BatchOutcome, MembershipBatch};

/// When stored objects are moved to a freshly rotated epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReencryptionPolicy {
    /// Revocation touches **zero** stored objects (O(1) in the store size):
    /// each object migrates on its next write, and a background sweeper
    /// bounds the stale window by a deadline. The revoked member may retain
    /// read access to *pre-revocation* data until migration — never to
    /// anything written after.
    Lazy,
    /// Revocation synchronously re-encrypts every stored object (O(n)):
    /// the revoked member loses all access the moment the revocation
    /// returns `Ok`, at the price of a revocation latency proportional to
    /// the group's data footprint. A sweep that could not converge makes
    /// the revocation return [`DataError::SweepUnconverged`] instead.
    Eager,
}

/// Outcome of a coordinated revocation.
#[derive(Clone, Debug)]
pub struct RevocationOutcome {
    /// The control-plane batch outcome (membership deltas, epoch).
    pub batch: BatchOutcome,
    /// The synchronous sweep's report — `Some` only under
    /// [`ReencryptionPolicy::Eager`] when the batch actually rotated.
    pub sweep: Option<SweepReport>,
}

/// Applies membership batches through an [`Admin`] and enacts the
/// re-encryption policy on the [`SweepScheduler`] the group's
/// [`crate::SweepTask`] is registered with.
pub struct RevocationCoordinator<'a> {
    admin: &'a Admin,
    policy: ReencryptionPolicy,
    compact_history: bool,
}

impl<'a> RevocationCoordinator<'a> {
    /// Couples an admin with a policy.
    pub fn new(admin: &'a Admin, policy: ReencryptionPolicy) -> Self {
        Self {
            admin,
            policy,
            compact_history: false,
        }
    }

    /// Enables epoch-history compaction after converged sweeps: whenever a
    /// sweep driven (or observed) by this coordinator converges, retired
    /// keys below the sweep's floor epoch are pruned from the published
    /// `_epochs` object.
    ///
    /// Only hand [`RevocationCoordinator::compact_after`] a report that
    /// covers the group's **full** namespace — a
    /// [`crate::GroupSweepReport::report`] does (a task has one unit per
    /// data folder); a hand-stepped partial unit's report only vouches for
    /// its own folders, and pruning from it would orphan objects elsewhere.
    #[must_use]
    pub fn with_history_compaction(mut self) -> Self {
        self.compact_history = true;
        self
    }

    /// The active policy.
    pub fn policy(&self) -> ReencryptionPolicy {
        self.policy
    }

    /// Applies `batch` to `group` and, if it rotated the key, arms the
    /// group's task on `fleet`. Under the lazy policy that is all: the
    /// revocation performs **zero** store requests beyond the control-plane
    /// publish — run [`SweepScheduler::converge_all`] afterwards (directly,
    /// or from a [`SweepScheduler::watch`] loop) and hand the group's
    /// report to [`RevocationCoordinator::compact_after`] to bound the
    /// epoch history. Under the eager policy the fleet is converged (every
    /// armed task on it, this group included) and the history compacted
    /// before returning.
    ///
    /// # Errors
    /// Control-plane failures from the batch; fatal sweep failures and
    /// [`DataError::SweepUnconverged`] (eager only — the batch is applied,
    /// nothing is compacted, and the task stays armed for a retry).
    ///
    /// # Panics
    /// Panics if `group` has no task registered on `fleet`.
    pub fn revoke(
        &self,
        group: &str,
        batch: &MembershipBatch,
        fleet: &mut SweepScheduler,
    ) -> Result<RevocationOutcome, DataError> {
        let task = fleet
            .task_of(group)
            .expect("the group's sweep task is registered with the fleet");
        let outcome = self.admin.apply_batch(group, batch)?;
        let mut sweep = None;
        if outcome.gk_rotated {
            fleet.arm(task);
            if self.policy == ReencryptionPolicy::Eager {
                let run = fleet.converge_all()?;
                let own = run.group(group).expect("an armed task is reported");
                if let Some(e) = &own.error {
                    return Err(e.clone());
                }
                let report = own.report;
                if !report.converged {
                    fleet.arm(task);
                    return Err(DataError::SweepUnconverged(report));
                }
                self.compact_after(group, &report)?;
                sweep = Some(report);
            }
        }
        Ok(RevocationOutcome {
            batch: outcome,
            sweep,
        })
    }

    /// Prunes the group's epoch-key history below a converged sweep's floor
    /// epoch (no-op unless compaction is enabled, the report converged, and
    /// it scanned something). The lazy policy's companion call after its
    /// own [`SweepScheduler::converge_all`].
    ///
    /// # Errors
    /// Control-plane failures from the compaction publish.
    pub fn compact_after(&self, group: &str, report: &SweepReport) -> Result<usize, DataError> {
        if !self.compact_history || !report.converged {
            return Ok(0);
        }
        let Some(floor) = report.min_live_epoch else {
            return Ok(0);
        };
        Ok(self.admin.compact_history(group, floor)?)
    }
}

impl core::fmt::Debug for RevocationCoordinator<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "RevocationCoordinator({:?})", self.policy)
    }
}
