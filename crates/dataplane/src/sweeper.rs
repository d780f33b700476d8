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
//! A [`Sweeper`] is the *schedulable unit*, not a driver: it owns one
//! session and one **shard assignment** ([`Sweeper::with_assignment`]:
//! unit `w` of `n` sweeps only the data folders whose index satisfies
//! `idx % n == w`; [`Sweeper::new`] owns the whole namespace).
//! [`Sweeper::begin_pass`] scans the assigned folders once and returns a
//! resumable [`SweepPass`], which migrates the stale work-list in bounded
//! [`SweepPass::step`] increments. The one driver that composes those
//! steps is [`crate::SweepScheduler`]: a [`crate::SweepTask`] holds one
//! unit per data folder, and the fleet's workers lease steps of many
//! groups' passes. (Tests and the repo benchmark compose
//! `begin_pass`/`step`/`finish` by hand where they want an oracle that is
//! independent of the dispatcher.)
//!
//! Migrations are CAS writes conditioned on the scanned version, so the
//! sweeper never tramples a concurrent application write — and losing that
//! race is free, because the winning write sealed at the current epoch
//! anyway.

use crate::envelope::SealedObject;
use crate::error::DataError;
use crate::metrics::DataMetricsSnapshot;
use crate::session::ClientSession;
use cloud_store::{stable_hash64, ObjectStore};
use std::collections::HashSet;
use std::time::Duration;

/// A group's sweep parameters — a tenant property, set per
/// [`crate::SweepTask`] beside its weight and lease-rate cap.
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
    /// Objects examined.
    pub scanned: usize,
    /// Objects found below the current epoch.
    pub stale: usize,
    /// Objects successfully re-encrypted to the current epoch.
    pub migrated: usize,
    /// Migrations lost to concurrent writers (benign; see module docs).
    pub conflicts: usize,
    /// True when no stale object remained unhandled at the end.
    pub converged: bool,
    /// The lowest epoch any scanned object still sits at after this pass
    /// (`None` if nothing was scanned). When a **full-namespace** sweep
    /// converges, no retired key below this epoch can ever be needed again
    /// — the safe `keep_from` bound for
    /// [`acs::Admin::compact_history`].
    pub min_live_epoch: Option<u64>,
    /// Wall clock consumed.
    pub elapsed: Duration,
}

impl SweepReport {
    /// Folds another worker's report into this one (counter sums,
    /// convergence AND, epoch-floor min); elapsed is left to the caller,
    /// which knows the actual wall-clock of the merged run.
    pub(crate) fn absorb(&mut self, other: &SweepReport) {
        self.absorb_counters(other);
        self.converged = self.converged && other.converged;
    }

    /// Counter sums and epoch-floor min only, leaving `converged` alone —
    /// for accumulators whose convergence is not an AND over the parts
    /// (a multi-pass folder's final pass is the verdict, see
    /// [`crate::SweepScheduler`]).
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

/// One schedulable sweep unit: a privileged member session plus the shard
/// assignment it sweeps.
pub struct Sweeper {
    session: ClientSession,
    config: SweepConfig,
    /// This worker's index within the assignment.
    worker: usize,
    /// Total workers the namespace is divided among.
    of: usize,
}

impl Sweeper {
    /// Wraps a session (a group member provisioned for the sweeper role)
    /// with sweep parameters `config`, owning the whole namespace.
    pub fn new(session: ClientSession, config: SweepConfig) -> Self {
        Self::with_assignment(session, config, 0, 1)
    }

    /// Unit `worker` of `of`: sweeps only the data folders with index
    /// `idx % of == worker`.
    ///
    /// # Panics
    /// Panics if `of` is zero or `worker >= of`.
    pub fn with_assignment(
        session: ClientSession,
        config: SweepConfig,
        worker: usize,
        of: usize,
    ) -> Self {
        assert!(of >= 1, "at least one worker is required");
        assert!(worker < of, "worker index out of range");
        Self {
            session,
            config,
            worker,
            of,
        }
    }

    /// The sweep parameters this unit was built with.
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

    /// Scans the assigned folders **once** and returns a resumable
    /// migration pass over the stale work-list — the work-unit primitive
    /// [`crate::SweepScheduler`] leases in [`SweepPass::step`] increments.
    /// Refreshes the key ring first if the epoch moved.
    ///
    /// # Errors
    /// Control-plane failures from the freshness check; transient store
    /// faults (the scan GETs surface them instead of blocking on a dead
    /// store — the fleet scheduler contains and retries them);
    /// storage wire-format corruption found by the scan.
    pub fn begin_pass(&mut self) -> Result<SweepPass, DataError> {
        let scan = self.scan()?;
        let stale = scan.work.len();
        let mut floor = scan.fresh_floor;
        if stale > 0 {
            // migrated items end at the current epoch; conflicted ones are
            // re-verified against their actual headers in migrate()
            floor = merge_floor(floor, Some(scan.current));
        }
        Ok(SweepPass {
            work: scan.work.into(),
            current: scan.current,
            scanned: scan.scanned,
            stale,
            migrated: 0,
            conflicts: 0,
            still_stale: 0,
            floor,
        })
    }

    /// Blocks on the metadata long poll without sweeping; `true` when the
    /// ring was rebuilt. The scheduler's watch pass probes a changed group
    /// with this.
    pub(crate) fn poll(&mut self, timeout: Duration) -> Result<bool, DataError> {
        self.session.watch(timeout)
    }

    /// Forces a control-plane sync and ring rebuild now, so the next sweep
    /// pass starts migrating immediately instead of paying the key
    /// derivation first ([`crate::SweepScheduler::refresh`] primes every
    /// registered unit with this).
    ///
    /// # Errors
    /// Same contract as [`ClientSession::refresh`].
    pub fn refresh(&mut self) -> Result<(), DataError> {
        self.session.refresh().map(|_| ())
    }

    /// One pass over the assigned folders: freshness check (cheap
    /// zero-timeout poll, full rebuild only when the epoch moved), then one
    /// GET per object, peeking the 9-byte header to collect the stale
    /// work-list. Doubles as the versions-map GC: tracked versions of
    /// in-scope objects that vanished from the store are pruned against the
    /// live set the scan just built.
    fn scan(&mut self) -> Result<Scan, DataError> {
        self.session.maybe_refresh()?;
        let current = self.session.current_epoch().ok_or(DataError::NoKeys)?;
        // ride through outage windows with backoff before giving the lease
        // up as lost — a scan makes one request per object, so unretried
        // faults would fail whole leases far too eagerly
        let retry = self.session.retry_policy();
        let mut scanned = 0usize;
        let mut work = Vec::new();
        let mut fresh_floor = None;
        let mut live = HashSet::new();
        for folder in self.assigned_folders() {
            for object in retry.run(|| Ok(self.session.store().try_list(&folder)?))? {
                scanned += 1;
                let fetched =
                    retry.run(|| Ok(self.session.store().try_get(&folder, &object)?))?;
                let Some((bytes, version)) = fetched else {
                    continue; // deleted between list and get
                };
                match SealedObject::peek_epoch(&bytes) {
                    Some(epoch) if epoch < current => {
                        live.insert(object.clone());
                        work.push(StaleObject {
                            name: object,
                            bytes: bytes.to_vec(),
                            version,
                            epoch,
                        });
                    }
                    Some(epoch) => {
                        fresh_floor = merge_floor(fresh_floor, Some(epoch));
                        live.insert(object);
                    }
                    None => return Err(DataError::WireFormat("data object header")),
                }
            }
        }
        let (shards, worker, of) = (self.session.data_shards() as u64, self.worker, self.of);
        self.session.prune_versions(&live, |name| {
            (stable_hash64(name) % shards) as usize % of == worker
        });
        Ok(Scan {
            scanned,
            work,
            fresh_floor,
            current,
        })
    }

    /// The data folders this worker owns, in shard order.
    fn assigned_folders(&self) -> Vec<String> {
        self.session
            .data_folders()
            .iter()
            .enumerate()
            .filter(|(idx, _)| idx % self.of == self.worker)
            .map(|(_, f)| f.clone())
            .collect()
    }

    /// Migrates one work item, folding the outcome into `pass`; CAS
    /// conflicts are counted, not fatal. Re-using the scanned bytes is
    /// safe: a successful CAS proves the object's version (and therefore
    /// its bytes) did not change since the scan.
    ///
    /// A conflict normally means the winning writer already re-sealed the
    /// object at the current epoch — but a writer whose ring raced the
    /// rotation's publish can win with a *stale*-epoch seal, so each
    /// conflicted object's actual header is re-fetched and its real epoch
    /// folded into the pass's floor. Claiming the current epoch blindly
    /// would let a converged report authorize a history compaction that
    /// orphans that object forever.
    fn migrate_one(
        &mut self,
        item: &StaleObject,
        current: u64,
        pass: &mut MigratePass,
    ) -> Result<(), DataError> {
        let sealed = SealedObject::from_bytes(&item.bytes)?;
        match self.session.migrate(&item.name, &sealed, item.version) {
            Ok(()) => pass.migrated += 1,
            Err(DataError::Conflict(_)) => {
                pass.conflicts += 1;
                let folder = self.session.folder_of(&item.name).to_string();
                let retry = self.session.retry_policy();
                let refetched =
                    retry.run(|| Ok(self.session.store().try_get(&folder, &item.name)?))?;
                if let Some((bytes, _)) = refetched {
                    let epoch = SealedObject::peek_epoch(&bytes)
                        .ok_or(DataError::WireFormat("data object header"))?;
                    pass.conflict_floor = merge_floor(pass.conflict_floor, Some(epoch));
                    if epoch < current {
                        pass.still_stale += 1;
                    }
                }
                // a vanished object was deleted by the winner: handled
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

/// A resumable migration pass over one scan's stale work-list: the
/// schedulable work unit of the sweep machinery.
///
/// Produced by [`Sweeper::begin_pass`] (which pays the scan — one GET per
/// in-scope object — exactly once); consumed by bounded
/// [`SweepPass::step`] calls until drained, then folded into a
/// [`SweepReport`] by [`SweepPass::finish`]. The fleet
/// [`crate::SweepScheduler`] interleaves steps of many groups' passes
/// across its shared workers, which is why the pass owns its work-list
/// instead of borrowing the sweeper.
#[derive(Debug)]
pub struct SweepPass {
    work: std::collections::VecDeque<StaleObject>,
    /// The ring's current epoch at scan time.
    current: u64,
    scanned: usize,
    stale: usize,
    migrated: usize,
    conflicts: usize,
    still_stale: usize,
    floor: Option<u64>,
}

impl SweepPass {
    /// Stale objects not yet handed to [`SweepPass::step`].
    pub fn remaining(&self) -> usize {
        self.work.len()
    }

    /// True when the whole work-list has been migrated (or conflicted
    /// away); [`SweepPass::finish`] will then report convergence unless a
    /// conflicted object turned out to still be stale.
    pub fn is_drained(&self) -> bool {
        self.work.is_empty()
    }

    /// Migrates up to `budget` (at least 1) stale objects through
    /// `sweeper`'s session; CAS conflicts are counted, not fatal. Returns
    /// the number of work items consumed.
    ///
    /// # Errors
    /// Non-CAS migration failures. The failed item goes back to the front
    /// of the work-list, so the pass can be re-stepped (retrying it) or
    /// [`SweepPass::finish`]ed (counting it — and everything behind it —
    /// as unhandled: unconverged, epochs kept in the floor).
    pub fn step(&mut self, sweeper: &mut Sweeper, budget: usize) -> Result<usize, DataError> {
        let mut consumed = 0;
        for _ in 0..budget.max(1) {
            let Some(item) = self.work.pop_front() else {
                break;
            };
            // fold item by item, not once per chunk: a worker that fails —
            // or panics — partway through a step must not lose the counters
            // of the items it already handled (the fleet scheduler salvages
            // this pass's counters when it re-queues the unit)
            let mut outcome = MigratePass::default();
            let result = sweeper.migrate_one(&item, self.current, &mut outcome);
            self.migrated += outcome.migrated;
            self.conflicts += outcome.conflicts;
            self.still_stale += outcome.still_stale;
            self.floor = merge_floor(self.floor, outcome.conflict_floor);
            if let Err(e) = result {
                self.work.push_front(item);
                return Err(e);
            }
            consumed += 1;
        }
        Ok(consumed)
    }

    /// Closes the pass into a [`SweepReport`]: any work items never
    /// stepped count against convergence and fold their epochs into the
    /// floor. `elapsed` is left zero — only the driver knows the true wall
    /// clock around its steps.
    pub fn finish(self) -> SweepReport {
        let unhandled = self.work.len();
        let mut floor = self.floor;
        for skipped in &self.work {
            floor = merge_floor(floor, Some(skipped.epoch));
        }
        SweepReport {
            scanned: self.scanned,
            stale: self.stale,
            migrated: self.migrated,
            conflicts: self.conflicts,
            // conflicted objects usually were re-sealed by their winning
            // writer at the current epoch (verified against their actual
            // headers); only never-stepped and verified-still-stale ones
            // are genuinely unhandled
            converged: unhandled == 0 && self.still_stale == 0,
            min_live_epoch: floor,
            elapsed: Duration::ZERO,
        }
    }
}

/// Result of one migration pass over a chunk of stale objects.
#[derive(Default)]
struct MigratePass {
    migrated: usize,
    conflicts: usize,
    /// Lowest epoch observed on conflicted objects' re-fetched headers.
    conflict_floor: Option<u64>,
    /// Conflicted objects whose winning write is itself below the current
    /// epoch (a writer that raced the rotation's publish): the sweep has
    /// NOT converged and another pass must pick them up.
    still_stale: usize,
}

/// Result of one scan pass.
struct Scan {
    scanned: usize,
    work: Vec<StaleObject>,
    /// Lowest epoch among the up-to-date objects seen.
    fresh_floor: Option<u64>,
    /// The ring's current epoch at scan time.
    current: u64,
}

/// One stale object captured by a scan: name, raw stored bytes, the
/// version the migration CAS is conditioned on, and the epoch it sits at.
#[derive(Debug)]
struct StaleObject {
    name: String,
    bytes: Vec<u8>,
    version: u64,
    epoch: u64,
}

impl core::fmt::Debug for Sweeper {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Sweeper({:?}, unit {}/{}, deadline {:?})",
            self.session, self.worker, self.of, self.config.deadline
        )
    }
}
