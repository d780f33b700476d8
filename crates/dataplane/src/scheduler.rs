//! [`SweepScheduler`]: the one sweep driver — every re-encryption sweep,
//! from one group's eager revocation to a provider's whole tenant fleet,
//! is a run of this scheduler.
//!
//! A fixed fleet of `W` workers ([`FleetConfig::workers`]) serves every
//! registered group's [`SweepTask`], so "W workers, G groups" is an
//! explicit configuration instead of an emergent thread count: every run
//! spawns exactly `W` threads. A single group is simply the `G = 1` case:
//! register its task, [`arm`] it after a rotation, and [`converge_all`];
//! with `W` = the data-shard count that is one worker per shard, and with
//! `W = 1` the fleet issues exactly the request sequence of a hand-composed
//! `begin_pass` / `step` / `finish` loop. The worker body below is the only
//! place in the workspace's sources that steps a [`crate::SweepPass`].
//!
//! [`arm`]: SweepScheduler::arm
//! [`converge_all`]: SweepScheduler::converge_all
//!
//! * **Work units.** A task keeps one control session per identity and one
//!   cursor per data folder. A unit's lease begins a pass over its folder
//!   when it has none — the identity's control session syncs if the epoch
//!   moved and lends the pass a ring snapshot, then the folder is listed
//!   once — and otherwise settles up to [`FleetConfig::lease`] listed
//!   objects: one `GetMany` to read them, one conditional `PutMany` to
//!   write the stale ones back, without the control session's lock. Units
//!   never contend: the folder assignment is a partition, so no two units
//!   ever write the same object, and each cursor draws DEKs and nonces from
//!   its own generator. A rotation costs the task one IBBE decrypt and one
//!   ring rebuild per identity, not one per folder.
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
//! * **Ring priming.** [`SweepScheduler::refresh`] syncs every control
//!   session now, so a caller that wants the convergence window to measure
//!   store I/O rather than IBBE decrypts pays the derivation up front.
//! * **Fault containment.** A lease that panics or hits a transient store
//!   fault costs that lease, not the run: the unit is re-queued under its
//!   original stamp ([`LeaseRecord::failure`] carries the cause,
//!   [`FleetReport::warnings`] the summary). A fatal error (a revoked
//!   sweeper identity, a tampered partition) ends its own group's run
//!   only: the other groups' leases carry on, and the failed group's
//!   report carries the error ([`GroupSweepReport::error`]).
//!
//! [`SweepScheduler::converge_all`] drives the fleet to quiescence on `W`
//! scoped threads and reports per-group attribution: a labelled
//! [`GroupSweepReport`] per served backlog (completion order, lease
//! counts, deadline overshoot, and the full-namespace `min_live_epoch`
//! that history compaction keys off) plus the grant-by-grant
//! [`LeaseRecord`] log the priority tests assert against.

use crate::error::{panic_note, DataError};
use crate::metrics::{DataMetricsSnapshot, FleetMetrics};
use crate::session::ClientSession;
use crate::sweeper::{SweepConfig, SweepPass, SweepReport};
use cloud_store::{ObjectStore, StoreHandle};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use std::cmp::Reverse;
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
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            lease: 8,
            max_passes: 32,
            max_retries: 8,
        }
    }
}

/// One group's registration with the fleet: one control session per
/// identity and one cursor per data folder, labelled by the group they
/// serve.
pub struct SweepTask {
    /// The first session of each identity: the one that syncs and rebuilds
    /// the key ring for every folder of that identity.
    controls: Vec<ClientSession>,
    cursors: Vec<Cursor>,
    config: SweepConfig,
}

/// One data folder's sweep state.
struct Cursor {
    folder: String,
    /// The folder's identity, as an index into the task's control sessions.
    control: usize,
    /// DEK and nonce generator, taken from the folder's own session so
    /// every folder keeps its own stream.
    rng: StdRng,
    /// The fleet run's pass over the folder, between leases: its
    /// work-list, tally and epoch floor.
    pass: Option<SweepPass>,
    /// Passes begun this run (capped by [`FleetConfig::max_passes`]).
    passes: usize,
    /// Leases lost this run to panics or transient faults (capped by
    /// [`FleetConfig::max_retries`]).
    retries: usize,
}

impl SweepTask {
    /// Builds a task from one privileged session per data folder (session
    /// `i` of `n` sweeps folder `i`), with `config` as the group's sweep
    /// parameters. The sessions must share a group and agree on the
    /// data-shard count. The first session of each identity becomes that
    /// identity's control session; every session lends its folder's cursor
    /// its DEK and nonce generator. So a rotation costs the task one
    /// decrypt and one ring rebuild per identity.
    ///
    /// # Panics
    /// Panics if `sessions` is empty, disagrees on group or shard count, or
    /// its length differs from the sessions' data-shard count.
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
        let mut controls: Vec<ClientSession> = Vec::new();
        let mut cursors = Vec::with_capacity(shards);
        for (i, mut session) in sessions.into_iter().enumerate() {
            let folder = session.data_folders()[i].clone();
            // a control session only syncs: its generator is never drawn
            // from again once its folder's cursor holds a copy
            let rng = session.rng().clone();
            let identity = session.identity();
            let control = match controls.iter().position(|c| c.identity() == identity) {
                Some(c) => c,
                None => {
                    controls.push(session);
                    controls.len() - 1
                }
            };
            cursors.push(Cursor {
                folder,
                control,
                rng,
                pass: None,
                passes: 0,
                retries: 0,
            });
        }
        Self {
            controls,
            cursors,
            config,
        }
    }

    /// The group this task sweeps.
    pub fn group(&self) -> &str {
        self.controls[0].group()
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
    /// grant — `None` when the queue drained. The queue orders by stamp,
    /// so priority says `stamp <= remaining_min_stamp` on every record: no
    /// lease ever went to a fresher group while a staler one had a unit
    /// ready.
    pub remaining_min_stamp: Option<u64>,
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
    /// The fatal error that ended this group's run, if one did. The
    /// group's leases were dropped at the failure (its counters cover the
    /// work done until then, and `report.converged` is false) and the task
    /// stays armed for the next run.
    pub error: Option<DataError>,
}

/// Outcome of one [`SweepScheduler::converge_all`] fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Per-group reports **in completion order**: `groups[0]` finished its
    /// backlog (or failed) first. Staleness priority makes the most-behind
    /// group finish before the freshest one whenever the fleet is
    /// meaningfully oversubscribed.
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
}

impl FleetReport {
    /// Completion order as group names.
    pub fn completion_order(&self) -> Vec<&str> {
        self.groups.iter().map(|g| g.group.as_str()).collect()
    }

    /// The report for `group`, if it was armed for this run.
    pub fn group(&self, group: &str) -> Option<&GroupSweepReport> {
        self.groups.iter().find(|g| g.group == group)
    }

    /// Human-readable anomalies of the run, in a stable order: one warning
    /// per failed lease (worker panic or transient store fault, in grant
    /// order), then one per group that failed or retired unconverged (in
    /// completion order). An empty iterator means a clean run.
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
            let (group, leases) = (&g.group, g.leases);
            match &g.error {
                Some(e) => format!("group `{group}` failed after {leases} leases: {e}"),
                None => format!(
                    "group `{group}` retired unconverged after {leases} leases ({} retried)",
                    g.retries
                ),
            }
        });
        lost_leases.chain(stuck_groups)
    }
}

/// A registered task plus its scheduling state.
struct TaskEntry {
    group: String,
    /// Locked by a fleet run's workers only to begin a pass.
    controls: Vec<Mutex<ClientSession>>,
    /// Locked by the worker that holds the folder's lease.
    cursors: Vec<Mutex<Cursor>>,
    /// Arm stamp of the oldest unserved rotation; `None` when idle.
    stamp: Option<u64>,
    /// When that oldest rotation was observed (deadline accounting).
    armed_at: Option<Instant>,
    /// Metadata-folder version last seen by the cheap watch pass.
    seen: u64,
    /// Lazy-window target ([`SweepConfig::deadline`]).
    deadline: Duration,
}

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

    /// Registers a group's task and returns its id. The group's current
    /// metadata version becomes the watch baseline: rotations published
    /// *before* registration are not auto-detected — [`SweepScheduler::arm`]
    /// such a group explicitly.
    pub fn register(&mut self, task: SweepTask) -> TaskId {
        let group = task.group().to_string();
        // a store fault here must not block registration: baseline 0 at
        // worst makes the first watch pass probe the group spuriously
        let seen = task.controls[0]
            .store()
            .try_folder_version(&group)
            .unwrap_or(0);
        self.tasks.push(TaskEntry {
            group,
            controls: task.controls.into_iter().map(Mutex::new).collect(),
            cursors: task.cursors.into_iter().map(Mutex::new).collect(),
            stamp: None,
            armed_at: None,
            seen,
            deadline: task.config.deadline,
        });
        self.tasks.len() - 1
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

    /// Primes every registered task's key rings now (one control-plane
    /// sync and ring rebuild per identity), so the next
    /// [`SweepScheduler::converge_all`] starts migrating immediately. Call
    /// it after a rotation to take the key derivation out of the
    /// convergence window. The identities sync one after another: each
    /// decrypt already fans out over the host's cores.
    ///
    /// # Errors
    /// The first control session's refresh failure, in registration order.
    pub fn refresh(&mut self) -> Result<(), DataError> {
        for control in self.tasks.iter_mut().flat_map(|t| &mut t.controls) {
            control.get_mut().refresh()?;
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
    /// A changed group whose probe fails is skipped for the pass (one
    /// `fleet.task_failed` event names it and the error) and stays
    /// detectable by the next pass; the other groups are still armed.
    ///
    /// # Errors
    /// The first failed probe of a pass that armed nothing.
    pub fn watch(&mut self, timeout: Duration) -> Result<usize, DataError> {
        let deadline = Instant::now() + timeout;
        loop {
            let (armed, failed) = self.check_and_arm();
            if armed > 0 {
                return Ok(armed);
            }
            if let Some(e) = failed {
                return Err(e);
            }
            let now = Instant::now();
            if now >= deadline || self.tasks.is_empty() {
                return Ok(0);
            }
            self.wait_any(deadline);
        }
    }

    /// One cheap detection pass: folder-version compares plus epoch probes
    /// for the folders that moved. Arms and counts the stale tasks, and
    /// returns the first failed probe alongside.
    fn check_and_arm(&mut self) -> (usize, Option<DataError>) {
        let mut armed = 0;
        let mut failed = None;
        for task in 0..self.tasks.len() {
            let entry = &mut self.tasks[task];
            let was_idle = entry.stamp.is_none();
            let watcher = entry.controls[0].get_mut();
            // a faulted version probe skips the group for this pass only:
            // the seen version is untouched, so the change stays detectable
            let Ok(version) = watcher.store().try_folder_version(&entry.group) else {
                continue;
            };
            if version == entry.seen {
                continue;
            }
            // the probe also re-arms the watcher's key ring for free; a
            // rotation observed by an already-armed task merges into the
            // existing backlog under its (older) stamp. The seen version
            // commits only after the probe succeeds — a transient probe
            // failure must leave the change detectable by the retry.
            let epoch_moved = match watcher.watch(Duration::ZERO) {
                Ok(moved) => moved,
                Err(e) => {
                    task_failed(&entry.group, &e);
                    failed.get_or_insert(e);
                    continue;
                }
            };
            self.tasks[task].seen = version;
            if epoch_moved && was_idle {
                self.arm(task);
                armed += 1;
            }
        }
        (armed, failed)
    }

    /// Blocks until any registered group's metadata folder moves past its
    /// seen version or `deadline` passes, using at most `workers` threads. Every
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
                (
                    t.controls[0].lock().store().clone(),
                    t.group.as_str(),
                    t.seen,
                )
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
    /// entry sums its own control sessions, so the attribution covers
    /// exactly the work this scheduler drove).
    pub fn metrics(&self) -> FleetMetrics {
        let by_group: Vec<(String, DataMetricsSnapshot)> = self
            .tasks
            .iter()
            .map(|t| {
                let merged = t
                    .controls
                    .iter()
                    .map(|c| c.lock().metrics())
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
    /// Transient store faults and worker panics are not fatal: the lost
    /// lease's unit is re-queued under the same stamp — see
    /// [`FleetConfig::max_retries`] and [`LeaseRecord::failure`]. A
    /// *fatal* worker error ends only its own task's run: that task's
    /// remaining leases are dropped, its arming is kept (the next run
    /// starts each of its folders from a fresh pass), and the group's
    /// report carries the error ([`GroupSweepReport::error`]) while every
    /// other task's run carries on. Each failure a returned report carries
    /// is also named by one `fleet.task_failed` event (group and error).
    ///
    /// # Errors
    /// The first fatal error, when every armed task's run failed. Then no
    /// report is returned, and each later failure is named only by its
    /// event.
    pub fn converge_all(&mut self) -> Result<FleetReport, DataError> {
        let t0 = Instant::now();

        // queue every armed task's folders, each from a fresh pass
        let mut runs: Vec<TaskRun> = Vec::new();
        let mut ready: BinaryHeap<Reverse<Ready>> = BinaryHeap::new();
        for (task, entry) in self.tasks.iter_mut().enumerate() {
            let Some(stamp) = entry.stamp else { continue };
            for (index, cursor) in entry.cursors.iter_mut().enumerate() {
                let cursor = cursor.get_mut();
                (cursor.pass, cursor.passes, cursor.retries) = (None, 0, 0);
                ready.push(Reverse(Ready {
                    stamp,
                    seq: ready.len() as u64,
                    run: runs.len(),
                    index,
                }));
            }
            runs.push(TaskRun {
                task,
                group: entry.group.clone(),
                stamp,
                armed_at: entry.armed_at.expect("armed tasks carry a timestamp"),
                deadline: entry.deadline,
                outstanding: entry.cursors.len(),
                all_converged: true,
                report: SweepReport::default(),
                leases: 0,
                retries: 0,
                completed_at: None,
                error: None,
            });
        }
        if runs.is_empty() {
            // an idle fleet is a quiescent one: same semantics as the
            // non-empty path, whose AND over zero groups is true
            return Ok(FleetReport {
                total: SweepReport {
                    converged: true,
                    ..SweepReport::default()
                },
                ..FleetReport::default()
            });
        }

        let state = Mutex::new(Dispatch {
            seq: ready.len() as u64,
            ready,
            runs,
            in_flight: 0,
            completions: Vec::new(),
            log: Vec::new(),
        });
        let ready_for_work = Condvar::new();
        let (tasks, config) = (&self.tasks, self.config);
        std::thread::scope(|scope| {
            for _ in 0..config.workers {
                scope.spawn(|| worker_loop(tasks, &state, &ready_for_work, config));
            }
        });

        let dispatch = state.into_inner();
        let mut failed = dispatch
            .completions
            .iter()
            .map(|&run| &dispatch.runs[run])
            .filter_map(|run| Some((run.group.as_str(), run.error.as_ref()?)));
        if dispatch.runs.iter().all(|run| run.error.is_some()) {
            // no report to carry the failures: the first is returned, the
            // others are named by events
            let (_, first) = failed.next().expect("an armed run completes");
            failed.for_each(|(group, e)| task_failed(group, e));
            return Err(first.clone());
        }
        failed.for_each(|(group, e)| task_failed(group, e));

        let mut report = FleetReport {
            total: SweepReport {
                converged: true,
                ..SweepReport::default()
            },
            leases: dispatch.log,
            ..FleetReport::default()
        };
        for run_idx in dispatch.completions {
            let run = &dispatch.runs[run_idx];
            let completed_at = run.completed_at.expect("completions are timestamped");
            let mut group_report = run.report;
            group_report.converged = run.all_converged && run.error.is_none();
            group_report.elapsed = completed_at.duration_since(t0);
            report.total.absorb_counters(&group_report);
            report.total.converged &= group_report.converged;
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
                error: run.error.clone(),
            });
            // a served backlog disarms its task; a failed one stays armed
            if run.error.is_none() {
                let entry = &mut self.tasks[run.task];
                entry.stamp = None;
                entry.armed_at = None;
            }
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

/// Names one group's failure in a `fleet.task_failed` event.
fn task_failed(group: &str, error: &DataError) {
    telemetry::event("fleet.task_failed")
        .with("group", group)
        .with("error", error.to_string())
        .emit();
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
    /// The fatal error that ended this run; its remaining units are
    /// dropped as they come up.
    error: Option<DataError>,
}

/// A ready folder in the priority queue, which pops the smallest
/// `(stamp, seq)` first: stalest stamp first, FIFO within a stamp (`seq` is
/// unique, so the fields after it never decide).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ready {
    stamp: u64,
    seq: u64,
    /// The folder's task run, and its cursor's index in the task.
    run: usize,
    index: usize,
}

/// The shared dispatch state of one fleet run.
struct Dispatch {
    ready: BinaryHeap<Reverse<Ready>>,
    runs: Vec<TaskRun>,
    seq: u64,
    in_flight: usize,
    /// Run indices in completion order (a failed run completes at its
    /// failure).
    completions: Vec<usize>,
    log: Vec<LeaseRecord>,
}

impl Dispatch {
    /// Re-queues a granted folder under the stamp it was granted at — the
    /// backlog's age is a property of the rotation, not of how many leases
    /// it took or lost.
    fn requeue(&mut self, granted: &Ready) {
        self.ready.push(Reverse(Ready {
            seq: self.seq,
            ..*granted
        }));
        self.seq += 1;
    }

    /// Retires a granted folder from the run (it converged, or it hit a
    /// safety cap and did not); the last folder out completes its group.
    fn retire(&mut self, granted: &Ready, converged: bool) {
        let run = &mut self.runs[granted.run];
        telemetry::event("fleet.retire")
            .with("group", run.group.as_str())
            .with("stamp", granted.stamp)
            .with("folder", granted.index)
            .with("converged", converged)
            .emit();
        run.all_converged &= converged;
        run.outstanding -= 1;
        if run.outstanding == 0 {
            run.completed_at = Some(Instant::now());
            self.completions.push(granted.run);
        }
    }

    /// Ends a granted folder's run on a fatal error: the run completes now,
    /// failed, and its other folders are dropped as they come up.
    fn fail(&mut self, granted: &Ready, error: DataError) {
        let run = &mut self.runs[granted.run];
        run.error = Some(error);
        run.completed_at = Some(Instant::now());
        self.completions.push(granted.run);
    }
}

/// One fleet worker: lease the stalest ready unit, run one lease outside
/// the dispatch lock, fold the outcome back in, repeat until the run
/// quiesces. A unit of a failed task is dropped instead of leased.
///
/// A lease that panics or fails transiently does not abort the run: the
/// unit's partial counters are salvaged, its in-progress pass is dropped
/// (the next lease re-scans, rediscovering any half-migrated leftovers),
/// and it is re-queued under the same staleness stamp — up to
/// `max_retries` lost leases, after which it retires unconverged.
fn worker_loop(tasks: &[TaskEntry], state: &Mutex<Dispatch>, cvar: &Condvar, config: FleetConfig) {
    let max_passes = config.max_passes.max(1);
    let mut guard = state.lock();
    loop {
        let granted = loop {
            // run over: everyone exits
            if guard.ready.is_empty() && guard.in_flight == 0 {
                cvar.notify_all();
                return;
            }
            match guard.ready.pop() {
                Some(Reverse(r)) if guard.runs[r.run].error.is_none() => break r,
                Some(_) => {}
                None => cvar.wait(&mut guard),
            }
        };
        let remaining_min_stamp = guard.ready.peek().map(|Reverse(r)| r.stamp);
        guard.in_flight += 1;
        // the grant is logged at grant time, so the log really is in grant
        // order even with concurrent workers; `failure` is backfilled
        // after the step
        let log_idx = guard.log.len();
        let record = LeaseRecord {
            group: guard.runs[granted.run].group.clone(),
            stamp: granted.stamp,
            remaining_min_stamp,
            failure: None,
        };
        let group_name = record.group.clone();
        guard.log.push(record);
        let entry = &tasks[guard.runs[granted.run].task];
        guard.runs[granted.run].leases += 1;
        drop(guard);
        // one worker holds a folder's lease at a time (the next lease of a
        // re-queued folder waits here for the last one to fold back); a
        // cursor lock is only ever taken without the dispatch lock held
        let mut cursor = entry.cursors[granted.index].lock();
        let cursor = &mut *cursor;

        // the lease itself: list on the first step of a pass, then one
        // bounded migration increment — all outside the lock, and inside
        // a panic guard so an unwinding worker costs one lease, not the
        // whole fleet. Each lease is its own causal request: the span's
        // request id threads through every store request the step issues.
        let _rid = telemetry::request_scope();
        let lease_span = telemetry::span("fleet.lease")
            .with("group", group_name.as_str())
            .with("stamp", granted.stamp)
            .with("folder", granted.index)
            .enter();
        let outcome: Result<usize, DataError> =
            match catch_unwind(AssertUnwindSafe(|| -> Result<usize, DataError> {
                if cursor.pass.is_none() {
                    let control = &entry.controls[cursor.control];
                    let mut pass = SweepPass::open(&mut control.lock())?;
                    pass.list(&cursor.folder)?;
                    cursor.pass = Some(pass);
                    cursor.passes += 1;
                }
                let pass = cursor.pass.as_mut().expect("pass just ensured");
                if pass.is_drained() {
                    return Ok(0);
                }
                pass.advance(&mut cursor.rng, config.lease)
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
        let run_failed = guard.runs[granted.run].error.is_some();
        match outcome {
            Err(e) if e.is_transient() && !run_failed => {
                // the lease is lost, the unit is not: salvage whatever the
                // partial pass already migrated (`SweepPass::step` folds
                // each batch as the store answers it), then
                // force a re-scan so anything dropped mid-migration is
                // rediscovered — it is still stale, so the scan finds it
                let run = granted.run;
                if let Some(partial) = cursor.pass.take() {
                    guard.runs[run].report.absorb_counters(&partial.finish());
                }
                guard.log[log_idx].failure = Some(e.to_string());
                guard.runs[run].retries += 1;
                cursor.retries += 1;
                if cursor.retries > config.max_retries {
                    // a store that never recovers must not wedge the run:
                    // retire the folder unconverged, like a pass-capped one
                    guard.retire(&granted, false);
                } else {
                    telemetry::event("fleet.requeue")
                        .with("group", group_name.as_str())
                        .with("stamp", granted.stamp)
                        .with("folder", granted.index)
                        .with("retries", cursor.retries)
                        .emit();
                    guard.requeue(&granted);
                }
            }
            Ok(_) if !run_failed => {
                let pass = cursor
                    .pass
                    .take()
                    .expect("pass survives a successful lease");
                if pass.is_drained() {
                    let pass_report = pass.finish();
                    guard.runs[granted.run].report.absorb_counters(&pass_report);
                    if pass_report.converged || cursor.passes >= max_passes {
                        guard.retire(&granted, pass_report.converged);
                    } else {
                        // conflicted-still-stale leftovers: re-scan on the
                        // next lease (the backlog is not served until the
                        // folder really converges)
                        guard.requeue(&granted);
                    }
                } else {
                    cursor.pass = Some(pass);
                    guard.requeue(&granted);
                }
            }
            // a fatal error, or any lease of a task that failed while it
            // ran: keep what the pass migrated and drop the unit
            outcome => {
                if let Some(partial) = cursor.pass.take() {
                    guard.runs[granted.run]
                        .report
                        .absorb_counters(&partial.finish());
                }
                if let Err(e) = outcome {
                    guard.log[log_idx].failure = Some(e.to_string());
                    if !run_failed {
                        guard.fail(&granted, e);
                    }
                }
            }
        }
        cvar.notify_all();
    }
}
