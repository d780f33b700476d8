//! The background re-encryption sweeper: closes the lazy window.
//!
//! After a revocation rotates the group key, objects sealed at retired
//! epochs remain readable to the revoked member *if* they kept their old
//! keys. The lazy policy accepts that window in exchange for an O(1)
//! revocation and bounds it with this sweeper: a privileged member session
//! (the sweeper holds an ordinary USK — SGX is not involved on this side)
//! scans the data folder, re-encrypts every stale object to the current
//! epoch, and is expected to converge within a configured deadline. The
//! eager policy is the degenerate case: one unbounded sweep, synchronously
//! at revocation time.
//!
//! A sweeper can own the whole namespace (the default) or one **shard
//! assignment** of it ([`Sweeper::with_assignment`]): worker `w` of `n`
//! sweeps only the data folders whose index satisfies `idx % n == w`. A
//! [`crate::SweepPool`] builds one worker per shard and drives them
//! concurrently, which is what makes lazy-window convergence scale with the
//! store's shard count.
//!
//! Internally every driving surface decomposes into the same work-unit
//! primitive: [`Sweeper::begin_pass`] scans the assigned folders once and
//! returns a resumable [`SweepPass`], which migrates the stale work-list in
//! bounded [`SweepPass::step`] increments. [`Sweeper::tick`],
//! [`Sweeper::run_until_converged`] and [`Sweeper::sweep_now`] are thin
//! compositions of one pass; the multi-group [`crate::SweepScheduler`]
//! leases the very same steps across many groups' passes from a shared
//! worker fleet.
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
use std::time::{Duration, Instant};

/// Sweeper pacing parameters.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// How long after a rotation the lazy policy tolerates stale objects;
    /// [`Sweeper::run_until_converged`] keeps ticking until convergence or
    /// this much wall-clock has elapsed.
    pub deadline: Duration,
    /// Maximum objects migrated per [`Sweeper::tick`] (bounds the burst a
    /// background sweeper injects into the store between application
    /// operations).
    pub max_per_tick: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            max_per_tick: 8,
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

/// The common driving surface of a single [`Sweeper`] and a
/// [`crate::SweepPool`]; what [`crate::RevocationCoordinator`] and replay
/// backends are generic over.
pub trait SweepDriver {
    /// One unbounded synchronous sweep (the eager policy's revocation-time
    /// work).
    ///
    /// # Errors
    /// Control-plane failures; non-CAS migration failures.
    fn sweep_now(&mut self) -> Result<SweepReport, DataError>;

    /// Sweeps until no stale object remains or the configured deadline
    /// elapses (the lazy policy's convergence driver).
    ///
    /// # Errors
    /// Same contract as [`SweepDriver::sweep_now`].
    fn run_until_converged(&mut self) -> Result<SweepReport, DataError>;

    /// Blocks on the group's metadata long poll (up to `timeout`); on a
    /// change, converges and reports. `None` on a quiet poll.
    ///
    /// # Errors
    /// Same contract as [`SweepDriver::sweep_now`].
    fn watch(&mut self, timeout: Duration) -> Result<Option<SweepReport>, DataError>;

    /// Merged counters of the underlying session(s).
    fn metrics(&self) -> DataMetricsSnapshot;
}

/// The re-encryption sweeper; owns a privileged member session and an
/// optional shard assignment.
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
    /// with pacing `config`, owning the whole namespace.
    pub fn new(session: ClientSession, config: SweepConfig) -> Self {
        Self::with_assignment(session, config, 0, 1)
    }

    /// A pool worker: sweeps only the data folders with index
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

    /// The sweeper's pacing parameters.
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

    /// One bounded sweep pass: refresh keys if the epoch moved, scan the
    /// assigned data folders, migrate up to `max_per_tick` stale objects.
    ///
    /// # Errors
    /// Control-plane failures from the refresh; per-object migration
    /// failures other than CAS conflicts (which are counted, not fatal).
    pub fn tick(&mut self) -> Result<SweepReport, DataError> {
        let t0 = Instant::now();
        let mut pass = self.begin_pass()?;
        if self.config.max_per_tick > 0 {
            pass.step(self, self.config.max_per_tick)?;
        }
        let mut report = pass.finish();
        report.elapsed = t0.elapsed();
        Ok(report)
    }

    /// Scans the assigned folders **once** and returns a resumable
    /// migration pass over the stale work-list — the work-unit primitive
    /// every driver composes ([`Sweeper::tick`], [`Sweeper::sweep_now`],
    /// [`Sweeper::run_until_converged`], and the fleet-wide
    /// [`crate::SweepScheduler`], which leases [`SweepPass::step`]
    /// increments of many groups' passes to a shared worker pool).
    ///
    /// # Errors
    /// Control-plane failures from the freshness check; transient store
    /// faults (the scan GETs surface them instead of blocking on a dead
    /// store — the pool and fleet scheduler contain and retry them);
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

    /// Sweeps until no stale object remains or the configured deadline
    /// elapses. The lazy policy's convergence driver: call it (or
    /// [`Sweeper::watch`]) after a revocation. The folders are scanned
    /// **once** (one GET per object); the stale work-list is then migrated
    /// in `max_per_tick` increments, checking the deadline between
    /// increments — CAS conditions guarantee any object a concurrent
    /// writer moved in the meantime is skipped, not trampled.
    ///
    /// # Errors
    /// Same contract as [`Sweeper::tick`].
    pub fn run_until_converged(&mut self) -> Result<SweepReport, DataError> {
        self.drain(Some(self.config.deadline))
    }

    /// One unbounded synchronous sweep — the **eager** policy's revocation-
    /// time work: no deadline, runs until the work-list is drained.
    ///
    /// # Errors
    /// Same contract as [`Sweeper::tick`].
    pub fn sweep_now(&mut self) -> Result<SweepReport, DataError> {
        self.drain(None)
    }

    /// Blocks on the group's metadata long poll (up to `timeout`); on a
    /// change — e.g. a revocation rotating the key — runs
    /// [`Sweeper::run_until_converged`]. Returns `None` on a quiet poll.
    /// This is the shape a dedicated background sweeper thread loops on.
    ///
    /// # Errors
    /// Same contract as [`Sweeper::run_until_converged`].
    pub fn watch(&mut self, timeout: Duration) -> Result<Option<SweepReport>, DataError> {
        if self.session.watch(timeout)? {
            return self.run_until_converged().map(Some);
        }
        Ok(None)
    }

    /// Blocks on the metadata long poll without sweeping; `true` when the
    /// ring was rebuilt. The pool's wake primitive: one worker polls, every
    /// worker then converges in parallel.
    pub(crate) fn poll(&mut self, timeout: Duration) -> Result<bool, DataError> {
        self.session.watch(timeout)
    }

    /// Forces a control-plane sync and ring rebuild now, so the next sweep
    /// pass starts migrating immediately instead of paying the key
    /// derivation first. Arm a sweeper (or a whole [`crate::SweepPool`])
    /// with this right after a rotation.
    ///
    /// # Errors
    /// Same contract as [`ClientSession::refresh`].
    pub fn refresh(&mut self) -> Result<(), DataError> {
        self.session.refresh().map(|_| ())
    }

    /// Scan once, then migrate the whole work-list (bounded by `deadline`
    /// if given, checked every `max_per_tick` objects).
    fn drain(&mut self, deadline: Option<Duration>) -> Result<SweepReport, DataError> {
        let t0 = Instant::now();
        let mut pass = self.begin_pass()?;
        let chunk = self.config.max_per_tick.max(1);
        while !pass.is_drained() {
            pass.step(self, chunk)?;
            if let Some(limit) = deadline {
                if t0.elapsed() >= limit && !pass.is_drained() {
                    break;
                }
            }
        }
        let mut report = pass.finish();
        report.elapsed = t0.elapsed();
        Ok(report)
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

impl SweepDriver for Sweeper {
    fn sweep_now(&mut self) -> Result<SweepReport, DataError> {
        Sweeper::sweep_now(self)
    }

    fn run_until_converged(&mut self) -> Result<SweepReport, DataError> {
        Sweeper::run_until_converged(self)
    }

    fn watch(&mut self, timeout: Duration) -> Result<Option<SweepReport>, DataError> {
        Sweeper::watch(self, timeout)
    }

    fn metrics(&self) -> DataMetricsSnapshot {
        Sweeper::metrics(self)
    }
}

/// A resumable migration pass over one scan's stale work-list: the
/// schedulable work unit of the sweep machinery.
///
/// Produced by [`Sweeper::begin_pass`] (which pays the scan — one GET per
/// in-scope object — exactly once); consumed by bounded
/// [`SweepPass::step`] calls until drained, then folded into a
/// [`SweepReport`] by [`SweepPass::finish`]. Single-group drivers step a
/// pass to completion back-to-back; the fleet [`crate::SweepScheduler`]
/// interleaves steps of many groups' passes across a shared worker pool,
/// which is why the pass owns its work-list instead of borrowing the
/// sweeper.
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
    /// floor (exactly like a deadline-cut [`Sweeper::run_until_converged`]
    /// does). `elapsed` is left zero — only the driver knows the true wall
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
            "Sweeper({:?}, worker {}/{}, deadline {:?}, ≤{} per tick)",
            self.session, self.worker, self.of, self.config.deadline, self.config.max_per_tick
        )
    }
}
