//! The pluggable sink behind [`crate::install`]: [`Noop`] (the disabled
//! default), [`Collector`] (in-memory, for tests/benches/consistency
//! gates) and [`Tee`] (fan-out). The Chrome-trace writer lives in
//! [`crate::chrome`].

use crate::{ClosedSpan, Event};
use std::sync::Mutex;

/// Receives every closed span and emitted event while installed.
///
/// Implementations must be panic-free: spans are delivered from `Drop`
/// during unwinding, where a panic aborts the process.
pub trait Subscriber: Send + Sync {
    /// A span closed (children are delivered before their parents).
    fn on_span(&self, span: &ClosedSpan);
    /// An event fired.
    fn on_event(&self, event: &Event);
}

/// The do-nothing subscriber — the explicit stand-in for telemetry's
/// disabled default. Instrumentation sites never reach a subscriber at
/// all while nothing is installed (the disabled check is one relaxed
/// atomic load); installing `Noop` keeps the sites live but discards
/// everything, which is what the overhead smoke tests measure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Subscriber for Noop {
    fn on_span(&self, _span: &ClosedSpan) {}
    fn on_event(&self, _event: &Event) {}
}

/// An in-memory subscriber: keeps every span and event, in delivery
/// order, for tests and bench consistency gates to reconcile against
/// metrics counters.
#[derive(Debug, Default)]
pub struct Collector {
    spans: Mutex<Vec<ClosedSpan>>,
    events: Mutex<Vec<Event>>,
}

impl Collector {
    /// A fresh, empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every span closed so far, in close order.
    #[must_use]
    pub fn spans(&self) -> Vec<ClosedSpan> {
        crate::lock(&self.spans).clone()
    }

    /// Every event fired so far, in emit order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        crate::lock(&self.events).clone()
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn span_count(&self, name: &str) -> u64 {
        crate::lock(&self.spans)
            .iter()
            .filter(|s| s.name == name)
            .count() as u64
    }

    /// Number of events named `name`.
    #[must_use]
    pub fn event_count(&self, name: &str) -> u64 {
        crate::lock(&self.events)
            .iter()
            .filter(|e| e.name == name)
            .count() as u64
    }

    /// Drops everything collected so far.
    pub fn clear(&self) {
        crate::lock(&self.spans).clear();
        crate::lock(&self.events).clear();
    }
}

impl Subscriber for Collector {
    fn on_span(&self, span: &ClosedSpan) {
        crate::lock(&self.spans).push(span.clone());
    }

    fn on_event(&self, event: &Event) {
        crate::lock(&self.events).push(event.clone());
    }
}

/// Fans every span and event out to several subscribers — how a bench
/// records a Chrome trace and reconciles a [`Collector`] in the same run.
pub struct Tee(Vec<std::sync::Arc<dyn Subscriber>>);

impl Tee {
    /// A tee over `subscribers`, notified in order.
    #[must_use]
    pub fn new(subscribers: Vec<std::sync::Arc<dyn Subscriber>>) -> Self {
        Self(subscribers)
    }
}

impl Subscriber for Tee {
    fn on_span(&self, span: &ClosedSpan) {
        for s in &self.0 {
            s.on_span(span);
        }
    }

    fn on_event(&self, event: &Event) {
        for s in &self.0 {
            s.on_event(event);
        }
    }
}
