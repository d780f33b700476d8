//! [`SweepScheduler`]: the one sweep driver — every re-encryption sweep,
//! from one group's eager revocation to a provider's whole tenant fleet,
//! is a run of this scheduler.
//!
//! A fixed fleet of `W` workers ([`FleetConfig::workers`]) serves every
//! registered group's [`SweepTask`], so "W workers, G groups" is an
//! explicit configuration instead of an emergent thread count. A single
//! group is simply the `G = 1` case: register its task, [`arm`] it after a
//! rotation, and [`converge_all`]; with `W` = the data-shard count that is
//! one worker per shard, and with `W = 1` the fleet issues exactly the
//! request sequence of a hand-composed `begin_pass` / `step` / `finish`
//! loop. The worker body below is the only place in the workspace's
//! sources that calls [`SweepPass::step`].
//!
//! [`arm`]: SweepScheduler::arm
//! [`converge_all`]: SweepScheduler::converge_all
//!
//! * **Work units.** Each task contributes one unit ([`crate::Sweeper`])
//!   per data folder; a unit's lease runs one [`crate::SweepPass`] step —
//!   list the folder once (first lease of a pass), then settle up to
//!   [`FleetConfig::lease`] listed objects: one `GetMany` to read them, one
//!   conditional `PutMany` to write the stale ones back. Units never
//!   contend: the folder assignment is a partition, so no two units ever
//!   write the same object, and each unit's session holds its own key ring
//!   and CAS-version map.
//! * **Staleness priority.** Arming a task stamps it with a monotone
//!   sequence number; ready units are leased oldest stamp first (the group
//!   furthest behind its lazy-window deadline runs first), FIFO within a
//!   stamp. A task keeps its stamp until its whole backlog converges, so a
//!   fresher rotation can never leapfrog an older one.
//! * **One deadline, never abandoning.** [`SweepConfig::deadline`] is a
//!   per-task lazy-window target: a backlog that converges later shows up
//!   as [`GroupSweepReport::overshoot`]. It prioritizes and reports; work
//!   is only ever given up at the [`FleetConfig::max_passes`] /
//!   [`FleetConfig::max_retries`] safety caps, and then the group's report
//!   says `converged: false`.
//! * **Re-arming.** [`SweepScheduler::watch`] blocks on the groups'
//!   metadata folders with at most `W` poll threads (cheap folder-version
//!   cursors, no object traffic), probes changed groups for an epoch move,
//!   and arms exactly those — idle groups cost nothing. A background
//!   sweeper thread is `watch` then `converge_all` in a loop.
//! * **Ring priming.** [`SweepScheduler::refresh`] derives every unit's
//!   key ring concurrently, so a caller that wants the convergence window
//!   to measure store I/O rather than IBBE decrypts pays the derivation up
//!   front.
//! * **Elastic fleet.** With [`FleetConfig::min_workers`] and
//!   [`FleetConfig::max_workers`] set, a run starts at the floor and scales
//!   the active worker set with the ready-queue depth: a backlog deeper
//!   than the active set wakes a parked worker (`fleet.scale_up`), an idle
//!   active worker parks itself again (`fleet.scale_down`), and the
//!   high-water mark lands in [`FleetReport::peak_workers`].
//! * **Tenant QoS.** [`SweepTask::with_weight`] buys a group a larger
//!   share of the fleet: when any armed task is weighted, leases are
//!   granted weighted-fair (smallest per-group virtual time first, charged
//!   `consumed / weight` per lease) instead of strictly stalest-first.
//!   [`SweepTask::with_lease_rate_cap`] bounds a noisy group's grant rate
//!   outright; its deferred units never block other groups' grants.
//! * **Fault containment.** A lease that panics or hits a transient store
//!   fault costs that lease, not the run: the unit is re-queued under its
//!   original stamp ([`LeaseRecord::failure`] carries the cause,
//!   [`FleetReport::warnings`] the summary).
//!
//! [`SweepScheduler::converge_all`] drives the fleet to quiescence on `W`
//! scoped threads and reports per-group attribution: a labelled
//! [`GroupSweepReport`] per served backlog (completion order, lease
//! counts, deadline overshoot, and the full-namespace `min_live_epoch`
//! that history compaction keys off) plus the grant-by-grant
//! [`LeaseRecord`] log the fairness tests assert against.

use crate::error::{panic_note, DataError};
use crate::metrics::{DataMetricsSnapshot, FleetMetrics};
use crate::session::ClientSession;
use crate::sweeper::{SweepConfig, SweepPass, SweepReport, Sweeper};
use cloud_store::{ObjectStore, StoreHandle};
use parking_lot::{Condvar, Mutex};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Shape of the shared sweep fleet.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Worker threads shared by every registered group (`W`). The
    /// scheduler never runs more than this many concurrent leases, no
    /// matter how many groups are registered.
    pub workers: usize,
    /// Objects settled per lease: the increment in which a unit's pass is
    /// stepped before the worker goes back to the queue, bounding how long
    /// a large group can hold a worker away from a staler one. A lease
    /// reads its objects in one `GetMany` and writes the stale ones back in
    /// one conditional `PutMany`, so this is also the sweep's batch size.
    pub lease: usize,
    /// Safety cap on re-scans of one folder within a single backlog (a
    /// writer with a frozen pre-rotation ring can keep re-sealing objects
    /// at a retired epoch, forcing re-passes). When hit, the unit retires
    /// unconverged and the group's report says so.
    pub max_passes: usize,
    /// Safety cap on re-queues of one unit after leases lost to worker
    /// panics or transient store faults. When hit, the unit retires
    /// unconverged (with its failures in the lease log) instead of cycling
    /// through a store that never recovers.
    pub max_retries: usize,
    /// Autoscaling floor: the active worker set a fleet run starts with
    /// and never shrinks below. `0` inherits [`FleetConfig::workers`],
    /// which (with `max_workers` also `0`) disables autoscaling entirely —
    /// the fleet is a fixed `W` workers, exactly the pre-elastic shape.
    pub min_workers: usize,
    /// Autoscaling ceiling: the most workers a run may activate when the
    /// ready queue outruns the active set. `0` inherits
    /// [`FleetConfig::workers`]; a ceiling below the (effective) floor is
    /// raised to it.
    pub max_workers: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            lease: 8,
            max_passes: 32,
            max_retries: 8,
            min_workers: 0,
            max_workers: 0,
        }
    }
}

impl FleetConfig {
    /// Effective `(floor, ceiling)` of the active worker set: zeros
    /// inherit `workers`, and the ceiling is never below the floor.
    fn worker_bounds(&self) -> (usize, usize) {
        let floor = if self.min_workers == 0 {
            self.workers
        } else {
            self.min_workers
        };
        let ceiling = if self.max_workers == 0 {
            self.workers
        } else {
            self.max_workers
        };
        (floor, ceiling.max(floor))
    }
}

/// One group's registration with the fleet: a per-data-folder set of
/// sweeper sessions, labelled by the group they serve.
pub struct SweepTask {
    units: Vec<Sweeper>,
    /// Weighted-fair share of the fleet (default 1).
    weight: u32,
    /// Minimum gap between two lease grants to this task, when rate-capped.
    lease_gap: Option<Duration>,
}

impl SweepTask {
    /// Builds a task from one privileged session per data folder (session
    /// `i` of `n` sweeps folder `i`), with `config` as the group's sweep
    /// parameters. The sessions must share a group and agree on the
    /// data-shard count — typically they are clones-by-construction of the
    /// same sweeper identity.
    ///
    /// # Panics
    /// Panics if `sessions` is empty, disagrees on group or shard count,
    /// or its length differs from the sessions' data-shard count.
    pub fn new(sessions: Vec<ClientSession>, config: SweepConfig) -> Self {
        assert!(
            !sessions.is_empty(),
            "at least one unit session is required"
        );
        let group = sessions[0].group().to_string();
        let shards = sessions[0].data_shards();
        assert_eq!(
            sessions.len(),
            shards,
            "one session per data folder is required"
        );
        for s in &sessions {
            assert_eq!(s.group(), group, "task sessions must share a group");
            assert_eq!(
                s.data_shards(),
                shards,
                "task sessions must agree on the data-shard count"
            );
        }
        let units = sessions
            .into_iter()
            .enumerate()
            .map(|(i, session)| Sweeper::with_assignment(session, config, i, shards))
            .collect();
        Self {
            units,
            weight: 1,
            lease_gap: None,
        }
    }

    /// Gives this task `weight` shares of the fleet. The default weight is
    /// 1; as long as *every* armed task keeps it, leases are granted in
    /// strict staleness order (the classic contract). The moment any armed
    /// task carries a different weight, the run grants weighted-fair
    /// instead: each group accrues virtual time at `consumed / weight` per
    /// lease and the smallest virtual time is served first, so a group
    /// with twice the weight converges through twice the backlog in the
    /// same contended window.
    ///
    /// # Panics
    /// Panics if `weight` is zero.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        assert!(weight >= 1, "a task weight must be positive");
        self.weight = weight;
        self
    }

    /// Caps this task's lease grant rate at `max_per_sec`. A capped
    /// group's ready units are *deferred*, not blocking: workers skip past
    /// them to other groups' units and come back when the gap since the
    /// group's last grant has passed. This is the blunt instrument for a
    /// tenant whose churn would otherwise monopolize the fleet even under
    /// weighted fairness.
    ///
    /// # Panics
    /// Panics if `max_per_sec` is zero.
    #[must_use]
    pub fn with_lease_rate_cap(mut self, max_per_sec: u32) -> Self {
        assert!(max_per_sec >= 1, "a lease rate cap must be positive");
        self.lease_gap = Some(Duration::from_secs(1) / max_per_sec);
        self
    }

    /// The group this task sweeps.
    pub fn group(&self) -> &str {
        self.units[0].session().group()
    }
}

/// Identifier of a registered task (dense, assigned by registration
/// order).
pub type TaskId = usize;

/// One lease grant, as the dispatcher saw it — the raw material of the
/// fairness assertions.
#[derive(Clone, Debug)]
pub struct LeaseRecord {
    /// Group the leased unit belongs to.
    pub group: String,
    /// The group's staleness stamp at grant time (lower = armed earlier =
    /// more behind).
    pub stamp: u64,
    /// The stamp of the unit at the head of the ready queue *after* this
    /// grant — `None` when the queue drained. In an unweighted run the
    /// queue orders by stamp, so priority says
    /// `stamp <= remaining_min_stamp` on every record: no lease ever went
    /// to a fresher group while a staler one had a unit ready. In a
    /// weighted run virtual time orders the queue and the stamp invariant
    /// deliberately does not hold.
    pub remaining_min_stamp: Option<u64>,
    /// Listed objects this lease's step settled from the unit's work-list
    /// (zero for the lease of an empty folder, or for a lease that aborted
    /// on an error).
    pub consumed: usize,
    /// Why this lease failed, when it did: the worker panicked or hit a
    /// transient store fault, and the unit was re-queued (or retired at
    /// the [`FleetConfig::max_retries`] cap) under the same stamp.
    pub failure: Option<String>,
}

/// One group's converged backlog, attributed by label — what
/// "who did what" looks like without parsing logs.
#[derive(Clone, Debug)]
pub struct GroupSweepReport {
    /// The group swept.
    pub group: String,
    /// Staleness stamp the backlog was served under.
    pub stamp: u64,
    /// Merged sweep counters over every unit and pass of this backlog
    /// (`converged` is the final per-unit state, not an AND over
    /// intermediate passes; `elapsed` is this group's convergence wall
    /// clock measured from the fleet run's start).
    pub report: SweepReport,
    /// Leases this backlog consumed.
    pub leases: u64,
    /// Leases lost to worker panics or transient store faults and
    /// re-queued (see [`LeaseRecord::failure`] for the cause of each).
    pub retries: u64,
    /// How far past `armed_at + deadline` the backlog converged
    /// (zero when the deadline was met).
    pub overshoot: Duration,
}

/// Outcome of one [`SweepScheduler::converge_all`] fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Per-group reports **in completion order**: `groups[0]` finished its
    /// backlog first. Staleness priority makes the most-behind group
    /// finish before the freshest one whenever the fleet is meaningfully
    /// oversubscribed.
    pub groups: Vec<GroupSweepReport>,
    /// Fleet-level aggregate: counters summed, `converged` AND-ed,
    /// `elapsed` the true wall clock of the run. `min_live_epoch` is
    /// `None` — epoch floors are per-group quantities (each group runs its
    /// own epoch counter); take them from [`FleetReport::groups`].
    pub total: SweepReport,
    /// Every lease grant, in grant order.
    pub leases: Vec<LeaseRecord>,
    /// Total leases lost to worker panics or transient store faults and
    /// re-queued, across every group.
    pub retries: u64,
    /// Worker threads the run had available (the autoscaling ceiling).
    pub workers: usize,
    /// High-water mark of the *active* worker set: how many workers the
    /// autoscaler actually engaged at once. Equals `workers` when
    /// autoscaling is disabled (no floor/ceiling configured).
    pub peak_workers: usize,
}

impl FleetReport {
    /// Completion order as group names.
    pub fn completion_order(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.group.as_str()).collect()
    }

    /// The report for `group`, if it completed a backlog in this run.
    pub fn group(&self, group: &str) -> Option<&GroupSweepReport> {
        self.groups.iter().find(|g| g.group == group)
    }

    /// The worst per-group deadline overshoot of the run.
    pub fn worst_overshoot(&self) -> Duration {
        self.groups
            .iter()
            .map(|g| g.overshoot)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Human-readable anomalies of the run, in a stable order: one warning
    /// per failed lease (worker panic or transient store fault, in grant
    /// order), then one per group that retired unconverged (in completion
    /// order). An empty iterator means a clean run.
    pub fn warnings(&self) -> impl Iterator<Item = String> + '_ {
        let lost_leases = self.leases.iter().filter_map(|l| {
            l.failure.as_ref().map(|cause| {
                format!(
                    "lease for group `{}` (stamp {}) lost: {cause}",
                    l.group, l.stamp
                )
            })
        });
        let stuck_groups = self.groups.iter().filter(|g| !g.report.converged).map(|g| {
            format!(
                "group `{}` retired unconverged after {} leases ({} retried)",
                g.group, g.leases, g.retries
            )
        });
        lost_leases.chain(stuck_groups)
    }
}

/// A registered task plus its scheduling state.
struct TaskEntry {
    group: String,
    /// `None` while a unit is checked out into a fleet run.
    units: Vec<Option<Sweeper>>,
    /// Arm stamp of the oldest unserved rotation; `None` when idle.
    stamp: Option<u64>,
    /// When that oldest rotation was observed (deadline accounting).
    armed_at: Option<Instant>,
    /// Metadata-folder version cursor for the cheap watch pass.
    cursor: u64,
    /// Weighted-fair share ([`SweepTask::with_weight`]).
    weight: u32,
    /// Minimum gap between lease grants ([`SweepTask::with_lease_rate_cap`]).
    lease_gap: Option<Duration>,
    /// Lazy-window target ([`SweepConfig::deadline`]).
    deadline: Duration,
}

/// Units are checked out of their task only inside `converge_all`.
const PARKED: &str = "units are parked between fleet runs";

/// The sweep scheduler; see the module docs.
pub struct SweepScheduler {
    config: FleetConfig,
    tasks: Vec<TaskEntry>,
    /// Monotone arm-stamp source.
    clock: u64,
}

impl SweepScheduler {
    /// An empty scheduler with the given fleet shape.
    ///
    /// # Panics
    /// Panics if `config.workers` or `config.lease` is zero.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.workers >= 1, "at least one fleet worker is required");
        assert!(config.lease >= 1, "the lease increment must be positive");
        Self {
            config,
            tasks: Vec::new(),
            clock: 0,
        }
    }

    /// The fleet shape.
    pub fn config(&self) -> FleetConfig {
        self.config
    }

    /// Registers a group's task and returns its id. The group's current
    /// metadata version becomes the watch baseline: rotations published
    /// *before* registration are not auto-detected — [`SweepScheduler::arm`]
    /// such a group explicitly.
    pub fn register(&mut self, task: SweepTask) -> TaskId {
        let group = task.group().to_string();
        // a store fault here must not block registration: baseline 0 at
        // worst makes the first watch pass probe the group spuriously
        let cursor = task.units[0]
            .session()
            .store()
            .try_folder_version(&group)
            .unwrap_or(0);
        self.tasks.push(TaskEntry {
            group,
            deadline: task.units[0].config().deadline,
            units: task.units.into_iter().map(Some).collect(),
            stamp: None,
            armed_at: None,
            cursor,
            weight: task.weight,
            lease_gap: task.lease_gap,
        });
        self.tasks.len() - 1
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Registered group names, in registration (task-id) order.
    pub fn groups(&self) -> Vec<&str> {
        self.tasks.iter().map(|t| t.group.as_str()).collect()
    }

    /// The task registered for `group`, if any.
    pub fn task_of(&self, group: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.group == group)
    }

    /// Whether `task` currently has an unserved backlog.
    pub fn is_armed(&self, task: TaskId) -> bool {
        self.tasks[task].stamp.is_some()
    }

    /// Marks `task` stale now: its units join the next fleet run. A task
    /// armed while already pending keeps its original (older) stamp and
    /// deadline — staleness is measured from the oldest unserved rotation.
    /// Pure bookkeeping: arming issues no store request, which is what
    /// keeps a lazy revocation O(1).
    pub fn arm(&mut self, task: TaskId) {
        let entry = &mut self.tasks[task];
        if entry.stamp.is_none() {
            entry.stamp = Some(self.clock);
            entry.armed_at = Some(Instant::now());
            telemetry::event("fleet.arm")
                .with("group", entry.group.as_str())
                .with("stamp", self.clock)
                .emit();
            self.clock += 1;
        }
    }

    /// Arms every registered task (a fleet-wide rotation wave).
    pub fn arm_all(&mut self) {
        for task in 0..self.tasks.len() {
            self.arm(task);
        }
    }

    /// Primes every registered unit's key ring now (control-plane sync and
    /// ring rebuild, on up to [`FleetConfig::workers`] threads), so the next
    /// [`SweepScheduler::converge_all`] starts migrating immediately. Call
    /// it after a rotation to take the key derivation out of the
    /// convergence window.
    ///
    /// # Errors
    /// The first unit's refresh failure (in registration order); a
    /// panicking refresh surfaces as [`DataError::WorkerPanic`].
    pub fn refresh(&mut self) -> Result<(), DataError> {
        let mut units: Vec<&mut Sweeper> = self
            .tasks
            .iter_mut()
            .flat_map(|t| t.units.iter_mut().map(|u| u.as_mut().expect(PARKED)))
            .collect();
        let share = units.len().div_ceil(self.config.workers).max(1);
        let results: Vec<std::thread::Result<Result<(), DataError>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = units
                    .chunks_mut(share)
                    .map(|mine| scope.spawn(move || mine.iter_mut().try_for_each(|u| u.refresh())))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
        for result in results {
            result.map_err(|payload| DataError::WorkerPanic(panic_note(&*payload)))??;
        }
        Ok(())
    }

    /// Watches every registered group's metadata folder for up to
    /// `timeout` and arms the tasks whose key epoch moved, returning how
    /// many were (newly) armed. Detection is two-staged so idle groups
    /// cost nothing: a folder-version compare first (no object traffic at
    /// all), then a zero-timeout control-plane probe only for folders that
    /// actually changed (structural changes like pure adds update the
    /// cursor without arming). The blocking wait uses at most
    /// [`FleetConfig::workers`] poll threads regardless of the group
    /// count.
    ///
    /// # Errors
    /// Control-plane failures from a changed group's probe.
    pub fn watch(&mut self, timeout: Duration) -> Result<usize, DataError> {
        let deadline = Instant::now() + timeout;
        loop {
            let armed = self.check_and_arm()?;
            if armed > 0 {
                return Ok(armed);
            }
            let now = Instant::now();
            if now >= deadline || self.tasks.is_empty() {
                return Ok(0);
            }
            self.wait_any(deadline);
        }
    }

    /// One cheap detection pass: folder-version compares plus epoch probes
    /// for the folders that moved. Arms and counts the stale tasks.
    fn check_and_arm(&mut self) -> Result<usize, DataError> {
        let mut armed = 0;
        for task in 0..self.tasks.len() {
            let entry = &mut self.tasks[task];
            let was_idle = entry.stamp.is_none();
            let watcher = entry.units[0].as_mut().expect(PARKED);
            // a faulted version probe skips the group for this pass only:
            // the cursor is untouched, so the change stays detectable
            let Ok(version) = watcher.session().store().try_folder_version(&entry.group) else {
                continue;
            };
            if version == entry.cursor {
                continue;
            }
            // the probe also re-arms the watcher's key ring for free; a
            // rotation observed by an already-armed task merges into the
            // existing backlog under its (older) stamp. The cursor commits
            // only after the probe succeeds — a transient probe failure
            // must leave the change detectable by the retry.
            let epoch_moved = watcher.poll(Duration::ZERO)?;
            self.tasks[task].cursor = version;
            if epoch_moved && was_idle {
                self.arm(task);
                armed += 1;
            }
        }
        Ok(armed)
    }

    /// Blocks until any registered group's metadata folder moves past its
    /// cursor or `deadline` passes, using at most `workers` threads. Every
    /// thread polls its share of the folders in short slices — a change on
    /// a thread's own folder wakes it instantly, a change elsewhere is
    /// noticed at the next slice boundary (the scoped join waits for every
    /// thread, so nobody may sleep through a sibling's hit) — bounding
    /// detection latency by `slice × ceil(groups / workers)`.
    fn wait_any(&self, deadline: Instant) {
        const SLICE: Duration = Duration::from_millis(20);
        let watches: Vec<(StoreHandle, &str, u64)> = self
            .tasks
            .iter()
            .map(|t| {
                let unit = t.units[0].as_ref().expect(PARKED);
                (unit.session().store().clone(), t.group.as_str(), t.cursor)
            })
            .collect();
        let threads = self.config.workers.min(watches.len()).max(1);
        let hit = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let mine: Vec<&(StoreHandle, &str, u64)> =
                    watches.iter().skip(t).step_by(threads).collect();
                let hit = &hit;
                scope.spawn(move || {
                    while !hit.load(Ordering::Relaxed) {
                        for (store, folder, cursor) in &mine {
                            let budget = deadline.saturating_duration_since(Instant::now());
                            if budget.is_zero() {
                                return;
                            }
                            let poll = store.long_poll(folder, *cursor, SLICE.min(budget));
                            if !poll.timed_out {
                                hit.store(true, Ordering::Relaxed);
                                return;
                            }
                            if hit.load(Ordering::Relaxed) {
                                return;
                            }
                        }
                    }
                });
            }
        });
    }

    /// Fleet-wide counters plus the per-group breakdown (each group's
    /// entry sums its own unit sessions, so the attribution covers exactly
    /// the work this scheduler drove).
    pub fn metrics(&self) -> FleetMetrics {
        let by_group: Vec<(String, DataMetricsSnapshot)> = self
            .tasks
            .iter()
            .map(|t| {
                let merged = t
                    .units
                    .iter()
                    .map(|u| u.as_ref().expect(PARKED).metrics())
                    .fold(DataMetricsSnapshot::default(), |acc, m| acc.merge(&m));
                (t.group.clone(), merged)
            })
            .collect();
        let total = by_group
            .iter()
            .fold(DataMetricsSnapshot::default(), |acc, (_, m)| acc.merge(m));
        FleetMetrics { total, by_group }
    }

    /// Drives every armed task's backlog to convergence on `W` shared
    /// worker threads and returns the attributed fleet report. Armed tasks
    /// are disarmed on completion (even an unconverged completion — see
    /// [`FleetConfig::max_passes`] — so a stuck group surfaces in its
    /// report instead of wedging the fleet); idle tasks are untouched. An
    /// empty armed set returns an empty report immediately.
    ///
    /// # Errors
    /// The first *fatal* worker error aborts the run (remaining leases
    /// are dropped, sweepers are returned to their tasks, armings are
    /// kept so the run can be retried). Transient store faults and worker
    /// panics are not fatal: the lost lease's unit is re-queued under the
    /// same stamp — see [`FleetConfig::max_retries`] and
    /// [`LeaseRecord::failure`].
    pub fn converge_all(&mut self) -> Result<FleetReport, DataError> {
        let t0 = Instant::now();
        let lease = self.config.lease;
        let max_passes = self.config.max_passes.max(1);
        let max_retries = self.config.max_retries;
        let (floor, ceiling) = self.config.worker_bounds();

        // check armed tasks' units out into the dispatch state
        let mut parked: Vec<Option<ActiveUnit>> = Vec::new();
        let mut runs: Vec<TaskRun> = Vec::new();
        let mut ready: BinaryHeap<Ready> = BinaryHeap::new();
        let mut seq = 0u64;
        for (task, entry) in self.tasks.iter_mut().enumerate() {
            let Some(stamp) = entry.stamp else { continue };
            let run = runs.len();
            for (folder, slot) in entry.units.iter_mut().enumerate() {
                let sweeper = slot.take().expect("unit already checked out");
                // every run's virtual time starts at zero, so the initial
                // key is 0 in both ordering modes
                ready.push(Ready {
                    key: 0,
                    stamp,
                    seq,
                    slot: parked.len(),
                });
                seq += 1;
                parked.push(Some(ActiveUnit {
                    task,
                    run,
                    folder,
                    sweeper,
                    pass: None,
                    passes: 0,
                    retries: 0,
                }));
            }
            runs.push(TaskRun {
                task,
                group: entry.group.clone(),
                stamp,
                armed_at: entry.armed_at.expect("armed tasks carry a timestamp"),
                deadline: entry.deadline,
                outstanding: entry.units.len(),
                all_converged: true,
                report: SweepReport::default(),
                leases: 0,
                retries: 0,
                completed_at: None,
                weight: entry.weight.max(1),
                vtime: 0,
                lease_gap: entry.lease_gap,
                next_allowed: None,
            });
        }
        if runs.is_empty() {
            // an idle fleet is a quiescent one: same semantics as the
            // non-empty path, whose AND over zero groups is true
            return Ok(FleetReport {
                workers: ceiling,
                total: SweepReport {
                    converged: true,
                    ..SweepReport::default()
                },
                ..FleetReport::default()
            });
        }

        // strict staleness order is the contract as long as every armed
        // task keeps the default weight; any weighted task flips the whole
        // run to weighted-fair ordering
        let weighted = runs.iter().any(|r| r.weight != 1);
        let state = Mutex::new(Dispatch {
            ready,
            parked,
            runs,
            seq,
            in_flight: 0,
            completions: Vec::new(),
            log: Vec::new(),
            error: None,
            weighted,
            target_workers: floor,
            peak_workers: floor,
        });
        let ready_for_work = Condvar::new();

        std::thread::scope(|scope| {
            for id in 0..ceiling {
                let state = &state;
                let cvar = &ready_for_work;
                let params = WorkerParams {
                    id,
                    floor,
                    ceiling,
                    lease,
                    max_passes,
                    max_retries,
                };
                scope.spawn(move || worker_loop(state, cvar, params));
            }
        });

        let dispatch = state.into_inner();
        // return every sweeper to its task slot
        for unit in dispatch.parked.into_iter().flatten() {
            self.tasks[unit.task].units[unit.folder] = Some(unit.sweeper);
        }
        if let Some(e) = dispatch.error {
            return Err(e);
        }

        let mut report = FleetReport {
            total: SweepReport {
                converged: true,
                ..SweepReport::default()
            },
            leases: dispatch.log,
            workers: ceiling,
            peak_workers: dispatch.peak_workers,
            ..FleetReport::default()
        };
        for run_idx in dispatch.completions {
            let run = &dispatch.runs[run_idx];
            let completed_at = run.completed_at.expect("completions are timestamped");
            let mut group_report = run.report;
            group_report.converged = run.all_converged;
            group_report.elapsed = completed_at.duration_since(t0);
            report.total.absorb(&group_report);
            report.retries += run.retries;
            report.groups.push(GroupSweepReport {
                group: run.group.clone(),
                stamp: run.stamp,
                report: group_report,
                leases: run.leases,
                retries: run.retries,
                overshoot: completed_at
                    .duration_since(run.armed_at)
                    .saturating_sub(run.deadline),
            });
            // a served backlog disarms its task
            let entry = &mut self.tasks[run.task];
            entry.stamp = None;
            entry.armed_at = None;
        }
        report.total.min_live_epoch = None;
        report.total.elapsed = t0.elapsed();
        for warning in report.warnings() {
            telemetry::event("fleet.warning")
                .with("detail", warning)
                .emit();
        }
        Ok(report)
    }
}

impl core::fmt::Debug for SweepScheduler {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "SweepScheduler({} workers, {} groups, {} armed)",
            self.config.workers,
            self.tasks.len(),
            self.tasks.iter().filter(|t| t.stamp.is_some()).count()
        )
    }
}

/// A unit checked out into a fleet run.
struct ActiveUnit {
    task: TaskId,
    run: usize,
    folder: usize,
    sweeper: Sweeper,
    pass: Option<SweepPass>,
    passes: usize,
    /// Leases this unit lost to panics or transient faults (capped by
    /// [`FleetConfig::max_retries`]).
    retries: usize,
}

/// Per-armed-task bookkeeping during a fleet run.
struct TaskRun {
    task: TaskId,
    group: String,
    stamp: u64,
    armed_at: Instant,
    /// The task's lazy-window target (overshoot accounting).
    deadline: Duration,
    /// Units not yet retired (converged or pass-capped).
    outstanding: usize,
    all_converged: bool,
    report: SweepReport,
    leases: u64,
    retries: u64,
    completed_at: Option<Instant>,
    /// Weighted-fair share of the fleet.
    weight: u32,
    /// Virtual time consumed: `sum(max(consumed, 1)) * VTIME_SCALE / weight`
    /// over this run's completed leases. Orders the ready queue when the
    /// run is weighted.
    vtime: u64,
    /// Minimum gap between two lease grants, when rate-capped.
    lease_gap: Option<Duration>,
    /// Earliest instant the next lease may be granted (rate cap).
    next_allowed: Option<Instant>,
}

/// Fixed-point scale of one work unit of virtual time, so integer
/// division by the weight keeps sub-unit resolution.
const VTIME_SCALE: u64 = 65_536;

/// A ready unit in the priority queue. `key` is the primary order: always
/// 0 in an unweighted run — where the old `(stamp, seq)` staleness order
/// decides, bit-identically to the pre-QoS scheduler — and the owning
/// group's virtual time at push time in a weighted run, so the group
/// furthest below its fair share is served first.
#[derive(PartialEq, Eq)]
struct Ready {
    key: u64,
    stamp: u64,
    seq: u64,
    slot: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the smallest
        // (key, stamp, seq) is popped first
        (other.key, other.stamp, other.seq).cmp(&(self.key, self.stamp, self.seq))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The shared dispatch state of one fleet run.
struct Dispatch {
    ready: BinaryHeap<Ready>,
    parked: Vec<Option<ActiveUnit>>,
    runs: Vec<TaskRun>,
    seq: u64,
    in_flight: usize,
    /// Run indices in completion order.
    completions: Vec<usize>,
    log: Vec<LeaseRecord>,
    error: Option<DataError>,
    /// Whether any armed run carries a non-default weight (flips the
    /// ready-queue order from staleness to virtual time).
    weighted: bool,
    /// Workers currently allowed to lease: ids below this are active, ids
    /// at or above it park on the condvar until a scale-up.
    target_workers: usize,
    /// High-water mark of `target_workers` over the run.
    peak_workers: usize,
}

impl Dispatch {
    /// Parks `unit` back in its slot and re-queues it under the stamp it
    /// was granted at — the backlog's age is a property of the rotation,
    /// not of how many leases it took or lost. The key follows the current
    /// ordering mode (the group's virtual time in a weighted run).
    fn requeue(&mut self, granted: &Ready, unit: ActiveUnit) {
        let key = if self.weighted {
            self.runs[unit.run].vtime
        } else {
            0
        };
        self.parked[granted.slot] = Some(unit);
        self.ready.push(Ready {
            key,
            stamp: granted.stamp,
            seq: self.seq,
            slot: granted.slot,
        });
        self.seq += 1;
    }

    /// Retires `unit` from the run (its folder converged, or it hit a
    /// safety cap and did not); the last unit out completes its group.
    fn retire(&mut self, granted: &Ready, unit: ActiveUnit, converged: bool) {
        let run = &mut self.runs[unit.run];
        telemetry::event("fleet.retire")
            .with("group", run.group.as_str())
            .with("stamp", granted.stamp)
            .with("folder", unit.folder)
            .with("converged", converged)
            .emit();
        run.all_converged &= converged;
        run.outstanding -= 1;
        if run.outstanding == 0 {
            run.completed_at = Some(Instant::now());
            self.completions.push(unit.run);
        }
        self.parked[granted.slot] = Some(unit);
    }
}

/// Per-worker parameters of one fleet run.
#[derive(Clone, Copy)]
struct WorkerParams {
    /// This worker's dense id; ids at or above the dispatch target park.
    id: usize,
    /// Autoscaling floor (the target never drops below it).
    floor: usize,
    /// Autoscaling ceiling (the target never rises above it).
    ceiling: usize,
    lease: usize,
    max_passes: usize,
    max_retries: usize,
}

/// What the ready queue had for a worker asking for a lease.
enum Grant {
    /// A grantable unit (already popped).
    Unit(Ready),
    /// Nothing queued at all.
    Empty,
    /// Everything queued belongs to rate-capped groups still inside their
    /// lease gap; retry at this instant.
    Deferred(Instant),
}

/// Pops the best *grantable* ready unit: rate-capped groups still inside
/// their lease gap are skipped (popped into a stash and pushed back), so
/// a capped tenant defers only itself, never the grants behind it.
fn next_grant(guard: &mut Dispatch, now: Instant) -> Grant {
    let mut stash = Vec::new();
    let mut granted = None;
    let mut earliest: Option<Instant> = None;
    while let Some(r) = guard.ready.pop() {
        let run = guard.parked[r.slot]
            .as_ref()
            .expect("a ready unit is parked")
            .run;
        match guard.runs[run].next_allowed {
            Some(at) if at > now => {
                earliest = Some(earliest.map_or(at, |e| e.min(at)));
                stash.push(r);
            }
            _ => {
                granted = Some(r);
                break;
            }
        }
    }
    guard.ready.extend(stash);
    match (granted, earliest) {
        (Some(r), _) => Grant::Unit(r),
        (None, Some(at)) => Grant::Deferred(at),
        (None, None) => Grant::Empty,
    }
}

/// One fleet worker: lease the best ready unit (stalest stamp, or lowest
/// virtual time in a weighted run), run one pass step outside the lock,
/// fold the outcome back in, repeat until the run quiesces (or errors).
///
/// Workers whose id is at or above the dispatch target park on the
/// condvar; the target follows the ready-queue depth between the
/// configured floor and ceiling (`fleet.scale_up` / `fleet.scale_down`).
///
/// A step that panics or fails transiently does not abort the run: the
/// unit's partial counters are salvaged, its in-progress pass is dropped
/// (the next lease re-scans, rediscovering any half-migrated leftovers),
/// and it is re-queued under the same staleness stamp — up to
/// `max_retries` lost leases, after which it retires unconverged.
fn worker_loop(state: &Mutex<Dispatch>, cvar: &Condvar, p: WorkerParams) {
    let WorkerParams {
        id,
        floor,
        ceiling,
        lease,
        max_passes,
        max_retries,
    } = p;
    let mut guard = state.lock();
    loop {
        let granted = loop {
            // run over (or aborted): everyone exits, parked or not
            if guard.error.is_some() || (guard.ready.is_empty() && guard.in_flight == 0) {
                cvar.notify_all();
                return;
            }
            // parked beyond the current target: sleep until a scale-up
            // (or the run's end) wakes us
            if id >= guard.target_workers {
                cvar.wait(&mut guard);
                continue;
            }
            if guard.ready.is_empty() {
                // idle active worker; the topmost one hands its slot back
                // (never below the floor), the rest wait for re-queues
                if id >= floor && id + 1 == guard.target_workers {
                    guard.target_workers -= 1;
                    let _rid = telemetry::request_scope();
                    telemetry::event("fleet.scale_down")
                        .with("target", guard.target_workers)
                        .with("in_flight", guard.in_flight)
                        .emit();
                    continue;
                }
                cvar.wait(&mut guard);
                continue;
            }
            // backlog outruns the active set: raise the target and wake a
            // parked worker before taking our own lease
            if guard.ready.len() > guard.target_workers && guard.target_workers < ceiling {
                guard.target_workers += 1;
                guard.peak_workers = guard.peak_workers.max(guard.target_workers);
                let _rid = telemetry::request_scope();
                telemetry::event("fleet.scale_up")
                    .with("target", guard.target_workers)
                    .with("ready", guard.ready.len())
                    .emit();
                cvar.notify_all();
            }
            match next_grant(&mut guard, Instant::now()) {
                Grant::Unit(r) => break r,
                Grant::Empty => cvar.wait(&mut guard),
                Grant::Deferred(at) => {
                    // every queued unit is rate-deferred: sleep out the
                    // shortest gap (a re-queue elsewhere still wakes us)
                    let timeout = at.saturating_duration_since(Instant::now());
                    cvar.wait_for(&mut guard, timeout);
                }
            }
        };
        // stamp the group's rate gap at grant time, so the cap bounds the
        // grant rate no matter how fast leases complete
        let granted_run = guard.parked[granted.slot]
            .as_ref()
            .expect("a ready unit is parked")
            .run;
        if let Some(gap) = guard.runs[granted_run].lease_gap {
            guard.runs[granted_run].next_allowed = Some(Instant::now() + gap);
        }
        let remaining_min_stamp = guard.ready.peek().map(|r| r.stamp);
        let mut unit = guard.parked[granted.slot]
            .take()
            .expect("a ready unit is parked");
        guard.in_flight += 1;
        // the grant is logged at grant time, so the log really is in grant
        // order even with concurrent workers; `consumed` is backfilled
        // after the step
        let log_idx = guard.log.len();
        let record = LeaseRecord {
            group: guard.runs[unit.run].group.clone(),
            stamp: granted.stamp,
            remaining_min_stamp,
            consumed: 0,
            failure: None,
        };
        let group_name = record.group.clone();
        guard.log.push(record);
        guard.runs[unit.run].leases += 1;
        drop(guard);

        // the lease itself: list on the first step of a pass, then one
        // bounded migration increment — all outside the lock, and inside
        // a panic guard so an unwinding worker costs one lease, not the
        // whole fleet. Each lease is its own causal request: the span's
        // request id threads through every store request the step issues.
        let _rid = telemetry::request_scope();
        let lease_span = telemetry::span("fleet.lease")
            .with("group", group_name.as_str())
            .with("stamp", granted.stamp)
            .with("folder", unit.folder)
            .enter();
        let outcome: Result<usize, DataError> =
            match catch_unwind(AssertUnwindSafe(|| -> Result<usize, DataError> {
                if unit.pass.is_none() {
                    unit.pass = Some(unit.sweeper.begin_pass()?);
                    unit.passes += 1;
                }
                let pass = unit.pass.as_mut().expect("pass just ensured");
                if pass.is_drained() {
                    return Ok(0);
                }
                pass.step(&mut unit.sweeper, lease)
            })) {
                Ok(result) => result,
                Err(payload) => Err(DataError::WorkerPanic(panic_note(&*payload))),
            };
        match &outcome {
            Ok(consumed) => lease_span.record("consumed", *consumed),
            Err(e) => lease_span.record("failure", e.to_string()),
        }
        drop(lease_span);

        guard = state.lock();
        guard.in_flight -= 1;
        // charge the lease to the group's virtual time: a scan-only or
        // failed lease still consumed a worker slot, so it costs at least
        // one unit — scaled down by the group's weight
        {
            let run = &mut guard.runs[unit.run];
            let consumed_units = match &outcome {
                Ok(consumed) => *consumed as u64,
                Err(_) => 0,
            };
            run.vtime += consumed_units.max(1) * VTIME_SCALE / u64::from(run.weight);
        }
        match outcome {
            Err(e) if e.is_transient() => {
                // the lease is lost, the unit is not: salvage whatever the
                // partial pass already migrated (`SweepPass::step` folds
                // each batch as the store answers it), then
                // force a re-scan so anything dropped mid-migration is
                // rediscovered — it is still stale, so the scan finds it
                let run = unit.run;
                if let Some(partial) = unit.pass.take() {
                    guard.runs[run].report.absorb_counters(&partial.finish());
                }
                guard.log[log_idx].failure = Some(e.to_string());
                guard.runs[run].retries += 1;
                unit.retries += 1;
                if unit.retries > max_retries {
                    // a store that never recovers must not wedge the run:
                    // retire the unit unconverged, like a pass-capped one
                    guard.retire(&granted, unit, false);
                } else {
                    telemetry::event("fleet.requeue")
                        .with("group", group_name.as_str())
                        .with("stamp", granted.stamp)
                        .with("folder", unit.folder)
                        .with("retries", unit.retries)
                        .emit();
                    guard.requeue(&granted, unit);
                }
            }
            Err(e) => {
                unit.pass = None;
                guard.log[log_idx].failure = Some(e.to_string());
                guard.parked[granted.slot] = Some(unit);
                if guard.error.is_none() {
                    guard.error = Some(e);
                }
            }
            Ok(consumed) => {
                guard.log[log_idx].consumed = consumed;
                let pass = unit.pass.take().expect("pass survives a successful lease");
                if pass.is_drained() {
                    let pass_report = pass.finish();
                    guard.runs[unit.run].report.absorb_counters(&pass_report);
                    if pass_report.converged || unit.passes >= max_passes {
                        guard.retire(&granted, unit, pass_report.converged);
                    } else {
                        // conflicted-still-stale leftovers: re-scan on the
                        // next lease (the backlog is not served until the
                        // folder really converges)
                        guard.requeue(&granted, unit);
                    }
                } else {
                    unit.pass = Some(pass);
                    guard.requeue(&granted, unit);
                }
            }
        }
        cvar.notify_all();
    }
}
