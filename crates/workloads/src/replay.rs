//! Trace replay with timing capture (drives Figs. 8a, 9 and 10).
//!
//! One generic, event-shaped driver ([`replay_events`]) serves every trace
//! family: membership traces ([`TraceOp`]), read/write data-plane traces
//! ([`crate::rw::RwOp`]) and anything a downstream crate defines — an event
//! type opts in by implementing [`ReplayOp`] (a kind label for latency
//! bucketing) and a system under test by implementing [`EventBackend`].
//! The original membership-only [`replay`] entry point is a thin wrapper
//! that re-buckets the generic report into the historical
//! [`ReplayReport`] shape, so existing figures are untouched.

use crate::trace::{Trace, TraceOp};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An event type the generic replay driver can time: it only needs to name
/// the latency bucket each event belongs to.
pub trait ReplayOp {
    /// Stable label of the event's latency series (e.g. `"add"`, `"read"`).
    fn kind(&self) -> &'static str;
}

impl ReplayOp for TraceOp {
    fn kind(&self) -> &'static str {
        match self {
            TraceOp::Add { .. } => "add",
            TraceOp::Remove { .. } => "remove",
        }
    }
}

/// A system under test for the generic driver: applies one event of type
/// `E` and optionally samples a client decryption.
pub trait EventBackend<E> {
    /// Applies one event.
    fn apply(&mut self, event: &E);
    /// Measures one client decryption of the current state; `None` if the
    /// backend cannot (e.g. the group is empty).
    fn sample_decrypt(&mut self) -> Option<Duration> {
        None
    }
}

/// Timing report of one generic event replay: per-kind latency series in
/// event order, plus decrypt samples.
#[derive(Clone, Debug, Default)]
pub struct EventReplayReport {
    /// Wall-clock total across all events.
    pub total: Duration,
    /// Latency series per event kind, in replay order.
    pub by_kind: BTreeMap<&'static str, Vec<Duration>>,
    /// Sampled client decryption latencies.
    pub decrypt_samples: Vec<Duration>,
}

impl EventReplayReport {
    /// The latency series recorded for `kind` (empty if none occurred).
    pub fn series(&self, kind: &str) -> &[Duration] {
        self.by_kind.get(kind).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Removes and returns the series for `kind` (empty if none occurred).
    fn take(&mut self, kind: &str) -> Vec<Duration> {
        self.by_kind.remove(kind).unwrap_or_default()
    }
}

/// Replays `events` against `backend`, timing each one into its kind's
/// series; every `decrypt_every`-th event additionally samples a client
/// decryption. This is the single driver shared by membership and
/// read/write traces.
pub fn replay_events<E: ReplayOp, B: EventBackend<E>>(
    events: &[E],
    backend: &mut B,
    decrypt_every: Option<usize>,
) -> EventReplayReport {
    let mut report = EventReplayReport::default();
    for (i, event) in events.iter().enumerate() {
        let t0 = Instant::now();
        backend.apply(event);
        let dt = t0.elapsed();
        report.by_kind.entry(event.kind()).or_default().push(dt);
        report.total += dt;
        if let Some(every) = decrypt_every {
            if every > 0 && (i + 1) % every == 0 {
                if let Some(d) = backend.sample_decrypt() {
                    report.decrypt_samples.push(d);
                }
            }
        }
    }
    report
}

/// What the membership replay engine drives: any group access control
/// system that can add and remove members, and optionally measure one
/// client decryption. Every `ReplayBackend` is automatically an
/// [`EventBackend`] over [`TraceOp`] for the generic driver.
pub trait ReplayBackend {
    /// Applies an add-user operation.
    fn add_user(&mut self, user: &str);
    /// Applies a remove-user operation.
    fn remove_user(&mut self, user: &str);
    /// Measures one client decryption of the current state; `None` if the
    /// backend cannot (e.g. the group is empty).
    fn sample_decrypt(&mut self) -> Option<Duration> {
        None
    }
}

impl<B: ReplayBackend> EventBackend<TraceOp> for B {
    fn apply(&mut self, event: &TraceOp) {
        match event {
            TraceOp::Add { user } => self.add_user(user),
            TraceOp::Remove { user } => self.remove_user(user),
        }
    }

    fn sample_decrypt(&mut self) -> Option<Duration> {
        ReplayBackend::sample_decrypt(self)
    }
}

/// Timing report of one replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Wall-clock total across all operations (the paper's "total
    /// administrator replay time").
    pub total: Duration,
    /// Individual add-operation latencies (Fig. 8a CDF input).
    pub add_latencies: Vec<Duration>,
    /// Individual remove-operation latencies.
    pub remove_latencies: Vec<Duration>,
    /// Sampled client decryption latencies (Fig. 9 right axis).
    pub decrypt_samples: Vec<Duration>,
}

impl ReplayReport {
    /// Mean of a latency series (zero for empty input).
    pub fn mean(series: &[Duration]) -> Duration {
        if series.is_empty() {
            return Duration::ZERO;
        }
        let sum: Duration = series.iter().sum();
        sum / series.len() as u32
    }
}

/// What the *batched* replay engine drives: a backend that can additionally
/// apply a whole burst of operations atomically (e.g. through
/// `Engine::apply_batch`). The default implementation falls back to
/// sequential application, so any [`ReplayBackend`] can opt in.
pub trait BatchReplayBackend: ReplayBackend {
    /// Applies a whole batch of operations atomically.
    fn apply_batch(&mut self, ops: &[TraceOp]) {
        for op in ops {
            match op {
                TraceOp::Add { user } => self.add_user(user),
                TraceOp::Remove { user } => self.remove_user(user),
            }
        }
    }
}

/// Timing report of one batched replay.
#[derive(Clone, Debug, Default)]
pub struct BatchReplayReport {
    /// Wall-clock total across all batches.
    pub total: Duration,
    /// Individual batch-commit latencies.
    pub batch_latencies: Vec<Duration>,
    /// Sampled client decryption latencies.
    pub decrypt_samples: Vec<Duration>,
}

/// Replays `batches` against `backend` one atomic batch at a time, timing
/// each commit; every `decrypt_every`-th batch additionally samples a client
/// decryption.
pub fn replay_batched<B: BatchReplayBackend>(
    batches: &[Vec<TraceOp>],
    backend: &mut B,
    decrypt_every: Option<usize>,
) -> BatchReplayReport {
    let mut report = BatchReplayReport::default();
    for (i, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        backend.apply_batch(batch);
        let dt = t0.elapsed();
        report.batch_latencies.push(dt);
        report.total += dt;
        if let Some(every) = decrypt_every {
            if every > 0 && (i + 1) % every == 0 {
                if let Some(d) = backend.sample_decrypt() {
                    report.decrypt_samples.push(d);
                }
            }
        }
    }
    report
}

/// Replays `trace` against `backend`, timing each operation; every
/// `decrypt_every`-th operation additionally samples a client decryption.
/// A membership-shaped wrapper around [`replay_events`].
pub fn replay<B: ReplayBackend>(
    trace: &Trace,
    backend: &mut B,
    decrypt_every: Option<usize>,
) -> ReplayReport {
    let mut events = replay_events(&trace.ops, backend, decrypt_every);
    ReplayReport {
        total: events.total,
        add_latencies: events.take("add"),
        remove_latencies: events.take("remove"),
        decrypt_samples: events.decrypt_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A backend that tracks membership and burns deterministic time.
    #[derive(Default)]
    struct FakeBackend {
        members: HashSet<String>,
        decrypts: usize,
        batches: usize,
    }

    impl ReplayBackend for FakeBackend {
        fn add_user(&mut self, user: &str) {
            assert!(self.members.insert(user.to_string()));
        }
        fn remove_user(&mut self, user: &str) {
            assert!(self.members.remove(user));
        }
        fn sample_decrypt(&mut self) -> Option<Duration> {
            self.decrypts += 1;
            Some(Duration::from_micros(10))
        }
    }

    fn trace() -> Trace {
        Trace {
            name: "t".into(),
            ops: vec![
                TraceOp::Add { user: "a".into() },
                TraceOp::Add { user: "b".into() },
                TraceOp::Remove { user: "a".into() },
                TraceOp::Add { user: "c".into() },
            ],
        }
    }

    #[test]
    fn replay_counts_and_samples() {
        let mut backend = FakeBackend::default();
        let report = replay(&trace(), &mut backend, Some(2));
        assert_eq!(report.add_latencies.len(), 3);
        assert_eq!(report.remove_latencies.len(), 1);
        assert_eq!(backend.decrypts, 2); // ops 2 and 4
        assert_eq!(report.decrypt_samples.len(), 2);
        assert_eq!(backend.members.len(), 2);
    }

    #[test]
    fn no_decrypt_sampling_when_disabled() {
        let mut backend = FakeBackend::default();
        let report = replay(&trace(), &mut backend, None);
        assert!(report.decrypt_samples.is_empty());
        assert_eq!(backend.decrypts, 0);
    }

    impl BatchReplayBackend for FakeBackend {
        fn apply_batch(&mut self, ops: &[TraceOp]) {
            self.batches += 1;
            for op in ops {
                match op {
                    TraceOp::Add { user } => self.add_user(user),
                    TraceOp::Remove { user } => self.remove_user(user),
                }
            }
        }
    }

    /// Opts into batched replay with the default sequential fallback only.
    struct FallbackBackend(FakeBackend);

    impl ReplayBackend for FallbackBackend {
        fn add_user(&mut self, user: &str) {
            self.0.add_user(user);
        }
        fn remove_user(&mut self, user: &str) {
            self.0.remove_user(user);
        }
    }

    impl BatchReplayBackend for FallbackBackend {}

    #[test]
    fn replay_batched_commits_batch_at_a_time() {
        let mut backend = FakeBackend::default();
        let batches = vec![
            vec![
                TraceOp::Add { user: "a".into() },
                TraceOp::Add { user: "b".into() },
            ],
            vec![TraceOp::Remove { user: "a".into() }],
            vec![TraceOp::Add { user: "c".into() }],
        ];
        let report = replay_batched(&batches, &mut backend, Some(2));
        assert_eq!(backend.batches, 3);
        assert_eq!(report.batch_latencies.len(), 3);
        assert_eq!(report.decrypt_samples.len(), 1); // after batch 2 only
        assert_eq!(backend.members.len(), 2);
    }

    #[test]
    fn default_apply_batch_falls_back_to_sequential() {
        let mut backend = FallbackBackend(FakeBackend::default());
        let batches = vec![vec![
            TraceOp::Add { user: "a".into() },
            TraceOp::Remove { user: "a".into() },
        ]];
        let report = replay_batched(&batches, &mut backend, None);
        assert_eq!(report.batch_latencies.len(), 1);
        assert!(backend.0.members.is_empty());
    }

    /// A non-membership event family driving the same generic driver —
    /// the reason the backend trait was factored.
    enum IoEvent {
        Read,
        Write,
    }

    impl ReplayOp for IoEvent {
        fn kind(&self) -> &'static str {
            match self {
                IoEvent::Read => "read",
                IoEvent::Write => "write",
            }
        }
    }

    #[derive(Default)]
    struct IoBackend {
        reads: usize,
        writes: usize,
    }

    impl EventBackend<IoEvent> for IoBackend {
        fn apply(&mut self, event: &IoEvent) {
            match event {
                IoEvent::Read => self.reads += 1,
                IoEvent::Write => self.writes += 1,
            }
        }
        fn sample_decrypt(&mut self) -> Option<Duration> {
            Some(Duration::from_micros(1))
        }
    }

    #[test]
    fn generic_driver_buckets_latencies_by_event_kind() {
        let events = vec![
            IoEvent::Write,
            IoEvent::Read,
            IoEvent::Read,
            IoEvent::Write,
            IoEvent::Read,
        ];
        let mut backend = IoBackend::default();
        let report = replay_events(&events, &mut backend, Some(2));
        assert_eq!(backend.reads, 3);
        assert_eq!(backend.writes, 2);
        assert_eq!(report.series("read").len(), 3);
        assert_eq!(report.series("write").len(), 2);
        assert_eq!(report.series("churn").len(), 0);
        assert_eq!(report.decrypt_samples.len(), 2); // events 2 and 4
    }

    #[test]
    fn membership_wrapper_produces_identical_buckets_to_generic_driver() {
        let t = trace();
        let mut a = FakeBackend::default();
        let wrapped = replay(&t, &mut a, None);
        let mut b = FakeBackend::default();
        let generic = replay_events(&t.ops, &mut b, None);
        assert_eq!(wrapped.add_latencies.len(), generic.series("add").len());
        assert_eq!(
            wrapped.remove_latencies.len(),
            generic.series("remove").len()
        );
        assert_eq!(a.members, b.members);
    }

    #[test]
    fn mean_of_a_latency_series() {
        let series: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(
            ReplayReport::mean(&series),
            Duration::from_micros(50) + Duration::from_nanos(500)
        );
        assert_eq!(ReplayReport::mean(&[]), Duration::ZERO);
    }
}
