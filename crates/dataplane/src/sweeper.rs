//! The re-encryption sweep's unit of work: closes the lazy window.
//!
//! After a revocation rotates the group key, objects sealed at retired
//! epochs remain readable to the revoked member *if* they kept their old
//! keys. The lazy policy accepts that window in exchange for an O(1)
//! revocation and bounds it with a sweep: a privileged member session (the
//! sweeper holds an ordinary USK — SGX is not involved on this side) scans
//! a data folder, re-encrypts every stale object to the current epoch, and
//! is expected to converge within a configured deadline. The eager policy
//! is the degenerate case: the same sweep, synchronously at revocation
//! time.
//!
//! A [`SweepPass`] is the unit of work: it is opened on a session — which
//! syncs the key ring if the epoch moved, and lends the pass a snapshot of
//! the ring, its store handle, retry policy and counters — lists folders
//! once, and migrates the listed objects in bounded [`SweepPass::step`]
//! increments that never touch the session again. The one driver that
//! composes those steps is [`crate::SweepScheduler`]: a
//! [`crate::SweepTask`] keeps one session per identity and one cursor,
//! with its own pass, per data folder, so the fleet's workers step many
//! folders' passes at once while each identity syncs once per rotation. A [`Sweeper`] is one
//! session's whole namespace as a pass (tests and the repo benchmark
//! compose `begin_pass`/`step`/`finish` by hand where they want an oracle
//! that is independent of the dispatcher).
//!
//! The sweep is chunked, not per object. A pass lists each folder once.
//! Each step then reads its chunk — the next objects of one folder, at
//! most its budget — in **one `GetMany`**, re-encrypts the stale ones one
//! by one, and writes them back as **one conditional multi-write**, each
//! item conditioned on the version just read. So a lease costs two round
//! trips whatever its size, holds only its own chunk's bytes, and
//! conditions its writes on versions one round trip old; the sweep keeps
//! no CAS expectations of its own. The sweeper never tramples a concurrent
//! application write, and losing that race is nearly free: the store
//! rejects the whole batch and names every loser, the sweeper re-reads
//! just those objects' headers, and it resubmits the rest. The winning
//! write normally sealed at the current epoch anyway.

use crate::envelope::SealedObject;
use crate::error::DataError;
use crate::metrics::{DataMetrics, DataMetricsSnapshot};
use crate::session::{folder_of, ClientSession, RetryPolicy};
use cloud_store::{BatchWrite, Bytes, ObjectStore, StoreError, StoreHandle};
use ibbe_sgx_core::KeyRing;
use rand::rngs::StdRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A group's sweep parameters — a tenant property, set per
/// [`crate::SweepTask`].
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// How long after a rotation the lazy policy tolerates stale objects:
    /// a backlog converging later than this after its arming shows up as
    /// [`crate::GroupSweepReport::overshoot`]. The deadline prioritizes
    /// and reports; it never abandons work.
    pub deadline: Duration,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
        }
    }
}

/// Outcome of one sweep pass (or an aggregated run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Objects listed.
    pub scanned: usize,
    /// Objects read below the current epoch.
    pub stale: usize,
    /// Objects successfully re-encrypted to the current epoch.
    pub migrated: usize,
    /// Migrations lost to concurrent writers (benign; see module docs).
    pub conflicts: usize,
    /// True when no stale object remained unhandled at the end.
    pub converged: bool,
    /// The lowest epoch any object the pass read still sits at after it
    /// (`None` if it read nothing). When a **full-namespace** sweep
    /// converges, no retired key below this epoch can ever be needed again
    /// — the safe `keep_from` bound for
    /// [`acs::Admin::compact_history`].
    pub min_live_epoch: Option<u64>,
    /// Wall clock consumed.
    pub elapsed: Duration,
}

impl SweepReport {
    /// The `keep_from` bound for [`acs::Admin::compact_history`] that this
    /// report vouches for: its floor epoch, but only when it converged and
    /// read something. Only a **full-namespace** report may be used — a
    /// [`crate::GroupSweepReport::report`] or a [`Sweeper`]'s; a single
    /// [`SweepPass`]'s report covers its own folders only, and pruning
    /// from it would orphan objects elsewhere.
    pub fn compaction_floor(&self) -> Option<u64> {
        self.min_live_epoch.filter(|_| self.converged)
    }

    /// Folds another report's counter sums and epoch-floor min into this
    /// one, leaving `converged` and `elapsed` to the caller: a multi-pass
    /// folder's final pass is its verdict, and only the driver knows the
    /// wall clock of the merged run (see [`crate::SweepScheduler`]).
    pub(crate) fn absorb_counters(&mut self, other: &SweepReport) {
        self.scanned += other.scanned;
        self.stale += other.stale;
        self.migrated += other.migrated;
        self.conflicts += other.conflicts;
        self.min_live_epoch = merge_floor(self.min_live_epoch, other.min_live_epoch);
    }
}

/// Min of two optional epoch floors.
fn merge_floor(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A privileged member session that sweeps its whole data namespace.
pub struct Sweeper {
    session: ClientSession,
    config: SweepConfig,
}

impl Sweeper {
    /// Wraps a session (a group member provisioned for the sweeper role)
    /// with sweep parameters `config`.
    pub fn new(session: ClientSession, config: SweepConfig) -> Self {
        Self { session, config }
    }

    /// The sweep parameters this sweeper was built with.
    pub fn config(&self) -> SweepConfig {
        self.config
    }

    /// Counters of the underlying session (`migrations`,
    /// `migration_conflicts`, …).
    pub fn metrics(&self) -> DataMetricsSnapshot {
        self.session.metrics()
    }

    /// The underlying session (diagnostics; e.g. current epoch).
    pub fn session(&self) -> &ClientSession {
        &self.session
    }

    /// Refreshes the key ring if the epoch moved, then lists every data
    /// folder **once** and returns a resumable migration pass over the
    /// listed objects: one `List` per folder beyond the freshness check.
    ///
    /// # Errors
    /// Control-plane failures from the freshness check; transient store
    /// faults (the listing surfaces them instead of blocking on a dead
    /// store — the fleet scheduler contains and retries them).
    pub fn begin_pass(&mut self) -> Result<SweepPass, DataError> {
        let mut pass = SweepPass::open(&mut self.session)?;
        for folder in self.session.data_folders() {
            pass.list(folder)?;
        }
        Ok(pass)
    }
}

/// A resumable migration pass over one listing: the schedulable work unit
/// of the sweep machinery.
///
/// Produced by [`Sweeper::begin_pass`] (or, per data folder, by the fleet
/// [`crate::SweepScheduler`]); consumed by bounded [`SweepPass::step`]
/// calls until drained — each one `GetMany` of its chunk and one
/// conditional multi-write of the chunk's stale objects — then folded
/// into a [`SweepReport`] by [`SweepPass::finish`]. A pass carries the
/// ring snapshot, store handle, retry policy and counters it was opened
/// with, so its steps run without the session that opened it.
pub struct SweepPass {
    /// Listed objects not yet settled, folder by folder.
    work: VecDeque<String>,
    scanned: usize,
    tally: Tally,
    from: Snapshot,
}

/// What a pass's steps work from, taken from the session that opened it.
struct Snapshot {
    /// The group's data folders, in shard order (routes each object).
    folders: Vec<String>,
    /// The session's ring when the pass began; its current epoch is the
    /// pass's target.
    ring: KeyRing,
    store: StoreHandle,
    retry: RetryPolicy,
    /// The opening session's counters.
    metrics: Arc<DataMetrics>,
}

/// What a pass's steps have settled so far.
#[derive(Debug, Default)]
struct Tally {
    stale: usize,
    migrated: usize,
    conflicts: usize,
    /// Conflicted objects whose winning write is itself below the current
    /// epoch (a writer that raced the rotation's publish): the pass has
    /// NOT converged and another pass must pick them up.
    still_stale: usize,
    /// Lowest epoch of every object read: up-to-date ones, migrated ones
    /// (at the current epoch) and conflicted ones (their winner's epoch).
    floor: Option<u64>,
}

impl SweepPass {
    /// Opens an empty pass on `session`: refreshes its key ring if the
    /// epoch moved, then snapshots the ring, store handle, retry policy
    /// and counters the pass's steps work from.
    ///
    /// # Errors
    /// Control-plane failures from the freshness check.
    pub(crate) fn open(session: &mut ClientSession) -> Result<Self, DataError> {
        session.maybe_refresh()?;
        Ok(Self {
            work: VecDeque::new(),
            scanned: 0,
            tally: Tally::default(),
            from: Snapshot {
                folders: session.data_folders().to_vec(),
                ring: session.ring().ok_or(DataError::NoKeys)?.clone(),
                store: session.store().clone(),
                retry: session.retry_policy(),
                metrics: Arc::clone(session.metrics_ref()),
            },
        })
    }

    /// Lists `folder` once (riding through outage windows with backoff
    /// before giving the lease up as lost) and queues its objects.
    ///
    /// # Errors
    /// Transient store faults that outlast the retry policy.
    pub(crate) fn list(&mut self, folder: &str) -> Result<(), DataError> {
        let from = &self.from;
        let listed = from.retry.run(|| Ok(from.store.try_list(folder)?))?;
        self.scanned += listed.len();
        self.work.extend(listed);
        Ok(())
    }

    /// Listed objects not yet settled by [`SweepPass::step`].
    pub fn remaining(&self) -> usize {
        self.work.len()
    }

    /// True when every listed object has been settled — found up to date,
    /// migrated, or conflicted away; [`SweepPass::finish`] will then report
    /// convergence unless a conflicted object turned out to still be
    /// stale.
    pub fn is_drained(&self) -> bool {
        self.work.is_empty()
    }

    /// Settles up to `budget` (at least 1) listed objects, drawing fresh
    /// DEKs and nonces from `sweeper`'s session, one folder's run at a
    /// time: reads them in one `GetMany`, re-encrypts each stale one (one
    /// `session.migrate` span per object), and writes those back as one
    /// conditional multi-write, each item conditioned on the version just
    /// read. Returns the number of listed objects consumed.
    ///
    /// A batch that loses a race is rejected whole and names its losers;
    /// those count as conflicts, not failures. A conflict normally means
    /// the winning writer already re-sealed the object at the current
    /// epoch, but a writer whose ring raced the rotation's publish can win
    /// with a *stale*-epoch seal. So the losers' headers are re-read in one
    /// `GetMany` and their real epochs folded into the floor (and into
    /// `still_stale`, which keeps the report unconverged); claiming the
    /// current epoch blindly would let a converged report authorize a
    /// history compaction that orphans such an object forever. The rest of
    /// the batch is then resubmitted.
    ///
    /// # Errors
    /// Non-conflict failures. Every object not yet settled stays at the
    /// front of the work-list (on a panic, the whole chunk does), so the
    /// pass can be re-stepped (retrying them) or [`SweepPass::finish`]ed
    /// (counting them — and everything behind them — as unhandled).
    pub fn step(&mut self, sweeper: &mut Sweeper, budget: usize) -> Result<usize, DataError> {
        self.advance(sweeper.session.rng(), budget)
    }

    /// [`SweepPass::step`] drawing DEKs and nonces from `rng`: the fleet
    /// scheduler's folder cursors hold their own generators.
    pub(crate) fn advance(&mut self, rng: &mut StdRng, budget: usize) -> Result<usize, DataError> {
        let n = budget.max(1).min(self.work.len());
        let mut settled = vec![false; n];
        let chunk = &self.work.make_contiguous()[..n];
        let mut result = Ok(());
        let mut start = 0;
        while start < n && result.is_ok() {
            // the listing is folder by folder, so each folder is one run
            let folder = folder_of(&self.from.folders, &chunk[start]);
            let end = (start..n)
                .find(|&i| folder_of(&self.from.folders, &chunk[i]) != folder)
                .unwrap_or(n);
            result = self.from.migrate_run(
                rng,
                folder,
                &chunk[start..end],
                &mut settled[start..end],
                &mut self.tally,
            );
            start = end;
        }
        // settled objects leave the work-list; the rest keep their places
        // at its front
        let chunk: Vec<String> = self.work.drain(..n).collect();
        for (name, done) in chunk.into_iter().zip(settled).rev() {
            if !done {
                self.work.push_front(name);
            }
        }
        result.map(|()| n)
    }

    /// Closes the pass into a [`SweepReport`]: any listed object never
    /// settled counts against convergence. Such an object was never read,
    /// so its epoch is missing from the floor — which an unconverged
    /// report never authorizes compaction with. `elapsed` is left zero —
    /// only the driver knows the true wall clock around its steps.
    pub fn finish(self) -> SweepReport {
        let t = self.tally;
        SweepReport {
            scanned: self.scanned,
            stale: t.stale,
            migrated: t.migrated,
            conflicts: t.conflicts,
            // conflicted objects usually were re-sealed by their winning
            // writer at the current epoch (verified against their actual
            // headers); only never-settled and verified-still-stale ones
            // are genuinely unhandled
            converged: self.work.is_empty() && t.still_stale == 0,
            min_live_epoch: t.floor,
            elapsed: Duration::ZERO,
        }
    }
}

impl Snapshot {
    /// Settles one folder's run of listed objects, marking each one read up
    /// to date, vanished, migrated or conflicted away. Counters are folded
    /// as each request's outcome arrives, so a failure partway keeps what
    /// was settled (the fleet scheduler salvages it).
    fn migrate_run(
        &self,
        rng: &mut StdRng,
        folder: &str,
        names: &[String],
        settled: &mut [bool],
        tally: &mut Tally,
    ) -> Result<(), DataError> {
        let current = self.ring.current_epoch();
        let (found, _) = self
            .retry
            .run(|| Ok(self.store.try_get_many(folder, names.to_vec())?))?;
        // (index into `names`, stored bytes, version read)
        let mut stale: Vec<(usize, Bytes, u64)> = Vec::new();
        for (i, fetched) in found.into_iter().enumerate() {
            // an object deleted since the listing needs nothing
            if let Some((bytes, version)) = fetched {
                let epoch = peek_epoch(&bytes)?;
                if epoch < current {
                    stale.push((i, bytes, version));
                    continue;
                }
                tally.floor = merge_floor(tally.floor, Some(epoch));
            }
            settled[i] = true;
        }
        let fresh = stale
            .iter()
            .map(|(i, bytes, _)| self.reencrypt(rng, &names[*i], bytes))
            .collect::<Result<Vec<Bytes>, _>>()?;
        let mut pending: Vec<usize> = (0..stale.len()).collect();
        while !pending.is_empty() {
            let writes = pending
                .iter()
                .map(|&k| {
                    let (i, _, version) = &stale[k];
                    BatchWrite::put_if_version(&names[*i], fresh[k].clone(), *version)
                })
                .collect();
            let lost = self.write_back(folder, writes)?;
            if lost.is_empty() {
                tally.stale += pending.len();
                tally.migrated += pending.len();
                tally.floor = merge_floor(tally.floor, Some(current));
                pending.iter().for_each(|&k| settled[stale[k].0] = true);
                break;
            }
            let losers: Vec<String> = lost.iter().map(|(name, _)| name.clone()).collect();
            let (found, _) = self
                .retry
                .run(|| Ok(self.store.try_get_many(folder, losers.clone())?))?;
            tally.stale += lost.len();
            tally.conflicts += lost.len();
            // a vanished object was deleted by the winner: handled
            for (bytes, _) in found.into_iter().flatten() {
                let epoch = peek_epoch(&bytes)?;
                tally.floor = merge_floor(tally.floor, Some(epoch));
                if epoch < current {
                    tally.still_stale += 1;
                }
            }
            let before = pending.len();
            pending.retain(|&k| {
                let i = stale[k].0;
                let loser = losers.contains(&names[i]);
                settled[i] |= loser;
                !loser
            });
            if pending.len() == before {
                // a rejection naming none of the batch's items breaks the
                // store's contract: resubmitting would never end
                return Err(StoreError::BatchConflict(lost).into());
            }
        }
        Ok(())
    }

    /// Re-encrypts one stale object's stored bytes to the ring's current
    /// epoch, under one `session.migrate` span.
    fn reencrypt(&self, rng: &mut StdRng, object: &str, stored: &[u8]) -> Result<Bytes, DataError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("session.migrate")
            .with("object", object)
            .enter();
        let sealed = SealedObject::from_bytes(stored)?;
        span.record("from_epoch", sealed.epoch);
        let fresh = sealed.reencrypt(&self.ring, object, rng)?;
        Ok(fresh.to_bytes().into())
    }

    /// Writes re-encrypted objects of one data folder back as one
    /// conditional multi-write, each item conditioned on the version the
    /// sweep read it at. Returns the items that lost their race to a
    /// concurrent writer, with their current versions — empty when the
    /// batch landed; a batch with losers wrote nothing.
    ///
    /// # Errors
    /// Transport failures that outlast the retry policy.
    fn write_back(
        &self,
        folder: &str,
        items: Vec<BatchWrite>,
    ) -> Result<Vec<(String, u64)>, DataError> {
        match self
            .retry
            .run(|| Ok(self.store.try_write_many(folder, items.clone())?))
        {
            Ok(_) => {
                self.metrics.record_migrations(items.len());
                Ok(Vec::new())
            }
            Err(DataError::Store(StoreError::BatchConflict(lost))) => {
                self.metrics.record_migration_conflicts(lost.len());
                Ok(lost)
            }
            Err(e) => Err(e),
        }
    }
}

/// The epoch of a stored data object, from its 9-byte header.
fn peek_epoch(bytes: &[u8]) -> Result<u64, DataError> {
    SealedObject::peek_epoch(bytes).ok_or(DataError::WireFormat("data object header"))
}

impl core::fmt::Debug for Sweeper {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Sweeper({:?}, deadline {:?})",
            self.session, self.config.deadline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(converged: bool, min_live_epoch: Option<u64>) -> SweepReport {
        SweepReport {
            converged,
            min_live_epoch,
            ..SweepReport::default()
        }
    }

    #[test]
    fn only_a_converged_report_with_a_floor_allows_compaction() {
        assert_eq!(report(false, Some(3)).compaction_floor(), None);
        assert_eq!(report(true, None).compaction_floor(), None);
        assert_eq!(report(true, Some(3)).compaction_floor(), Some(3));
    }
}
