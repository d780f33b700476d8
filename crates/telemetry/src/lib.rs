//! # telemetry — spans, events and request ids for the IBBE-SGX stack
//!
//! The offline, std-only observability layer every runtime crate sits on
//! (in the spirit of the `tracing` crate, but with no dependencies at
//! all). Three primitives:
//!
//! * **Spans** — a named, monotonic start/stop interval with key/value
//!   fields, opened with [`span`] and closed by dropping the returned
//!   [`SpanGuard`]. Spans nest through a thread-local stack and the RAII
//!   guard closes them during unwinding too, so a `catch_unwind` in a
//!   fleet worker can never unbalance the stack.
//! * **Events** — point-in-time records ([`event`]) attached to whatever
//!   span is open on the emitting thread.
//! * **Request ids** — a process-unique id ([`request_scope`]) carried in
//!   a thread-local so every span and event opened underneath records the
//!   same id; [`adopt_request_id`] re-enters the scope on another thread
//!   (a store submit lane), which is what makes one request traceable
//!   admin → store lane → fault event → session retry → sweep lease.
//!
//! Everything funnels through one installed [`Subscriber`]
//! ([`Collector`] for tests/benches, [`JsonWriter`] for Chrome-trace
//! files, [`Tee`] to fan out); [`stats`] holds the nearest-rank
//! percentiles the benches report.
//!
//! **Disabled is free.** With no subscriber installed (the [`Noop`]
//! default state) every instrumentation site costs one relaxed atomic
//! load — no allocation, no thread-local touch, no lock.
//!
//! ```
//! use std::sync::Arc;
//! let collector = Arc::new(telemetry::Collector::new());
//! let _session = telemetry::install(collector.clone());
//! {
//!     let _rid = telemetry::request_scope();
//!     let _span = telemetry::span("store.put").with("folder", "g").enter();
//!     telemetry::event("fault.timeout").emit();
//! }
//! assert_eq!(collector.span_count("store.put"), 1);
//! assert_eq!(collector.event_count("fault.timeout"), 1);
//! // the event happened under the same request id as the span
//! assert_eq!(collector.spans()[0].rid, collector.events()[0].rid);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod stats;
pub mod subscriber;

pub use chrome::JsonWriter;
pub use subscriber::{Collector, Noop, Subscriber, Tee};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Locks one of this crate's collections, recovering the guard when a
/// panicking holder poisoned it: a subscriber that panics must not wedge
/// telemetry for everyone else, and every update under these locks is a
/// single push, insert or clear, so the data is valid at every step.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A field value attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned counter-ish values (counts, epochs, versions, ids).
    U64(u64),
    /// Signed values.
    I64(i64),
    /// Ratios and rates.
    F64(f64),
    /// Flags.
    Bool(bool),
    /// Labels (group names, folders, error renderings).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    /// The value as a `u64`, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }
}

/// A `(key, value)` pair on a span or event.
pub type Field = (&'static str, Value);

/// A finished span, delivered to the installed [`Subscriber`] when its
/// guard drops.
#[derive(Clone, Debug)]
pub struct ClosedSpan {
    /// The span's name.
    pub name: &'static str,
    /// Fields attached at open time ([`SpanBuilder::with`]) or later
    /// ([`SpanGuard::record`]).
    pub fields: Vec<Field>,
    /// Open timestamp in microseconds since the process telemetry epoch.
    pub start_us: u64,
    /// Monotonic open→close duration.
    pub duration: Duration,
    /// Telemetry thread id of the opening (and closing) thread.
    pub tid: u64,
    /// Request id in scope when the span opened (`0` if none).
    pub rid: u64,
    /// Nesting depth at open time (`0` = top-level).
    pub depth: usize,
    /// Process-wide open order — with the subscriber's delivery order
    /// (close order) this totally orders spans for nesting checks.
    pub open_seq: u64,
}

impl ClosedSpan {
    /// The value of field `key`, if attached.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A point-in-time record, delivered to the installed [`Subscriber`] at
/// [`EventBuilder::emit`].
#[derive(Clone, Debug)]
pub struct Event {
    /// The event's name.
    pub name: &'static str,
    /// Fields attached via [`EventBuilder::with`].
    pub fields: Vec<Field>,
    /// Timestamp in microseconds since the process telemetry epoch.
    pub ts_us: u64,
    /// Telemetry thread id of the emitting thread.
    pub tid: u64,
    /// Request id in scope when the event fired (`0` if none).
    pub rid: u64,
}

impl Event {
    /// The value of field `key`, if attached.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

// ---------------------------------------------------------------------------
// process-wide state

static ENABLED: AtomicBool = AtomicBool::new(false);
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
static NEXT_RID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process telemetry epoch (the first call).
#[must_use]
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static RID: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// True while a subscriber is installed — the one relaxed atomic load
/// every instrumentation site pays when telemetry is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `subscriber` process-wide and enables telemetry until the
/// returned guard drops. One subscriber at a time: installing replaces
/// any previous one (use [`Tee`] to fan out). Dropping the guard
/// disables telemetry and uninstalls.
pub fn install(subscriber: Arc<dyn Subscriber>) -> InstallGuard {
    *SUBSCRIBER.write().expect("telemetry subscriber lock") = Some(subscriber);
    ENABLED.store(true, Ordering::SeqCst);
    InstallGuard(())
}

/// Keeps the installed subscriber live; see [`install`].
#[must_use = "dropping the guard uninstalls the subscriber"]
pub struct InstallGuard(());

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *SUBSCRIBER.write().expect("telemetry subscriber lock") = None;
    }
}

fn dispatch_span(span: &ClosedSpan) {
    let subscriber = SUBSCRIBER
        .read()
        .expect("telemetry subscriber lock")
        .clone();
    if let Some(subscriber) = subscriber {
        subscriber.on_span(span);
    }
}

fn dispatch_event(event: &Event) {
    let subscriber = SUBSCRIBER
        .read()
        .expect("telemetry subscriber lock")
        .clone();
    if let Some(subscriber) = subscriber {
        subscriber.on_event(event);
    }
}

// ---------------------------------------------------------------------------
// request ids

/// The request id in scope on this thread (`0` if none).
#[must_use]
pub fn current_request_id() -> u64 {
    RID.with(Cell::get)
}

/// Opens a request-id scope on this thread: inherits the id already in
/// scope, or mints a fresh process-unique one. Every span and event until
/// the guard drops records this id. Free (and id `0`) while telemetry is
/// disabled.
pub fn request_scope() -> RequestScope {
    if !enabled() {
        return RequestScope {
            prev: 0,
            active: false,
        };
    }
    RID.with(|r| {
        let prev = r.get();
        if prev == 0 {
            r.set(NEXT_RID.fetch_add(1, Ordering::Relaxed));
        }
        RequestScope { prev, active: true }
    })
}

/// Re-enters an existing request-id scope — how a store lane thread joins
/// the causal chain of the session that submitted the request. A zero
/// `rid` (or disabled telemetry) yields an inert guard.
pub fn adopt_request_id(rid: u64) -> RequestScope {
    if !enabled() || rid == 0 {
        return RequestScope {
            prev: 0,
            active: false,
        };
    }
    RID.with(|r| {
        let prev = r.get();
        r.set(rid);
        RequestScope { prev, active: true }
    })
}

/// RAII guard of a request-id scope; restores the previous id on drop.
#[must_use = "dropping the guard ends the request-id scope"]
pub struct RequestScope {
    prev: u64,
    active: bool,
}

impl RequestScope {
    /// The id this scope put in place (`0` for an inert guard).
    #[must_use]
    pub fn id(&self) -> u64 {
        if self.active {
            current_request_id()
        } else {
            0
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if self.active {
            RID.with(|r| r.set(self.prev));
        }
    }
}

// ---------------------------------------------------------------------------
// spans

struct OpenSpan {
    token: u64,
    name: &'static str,
    fields: Vec<Field>,
    start: Instant,
    start_us: u64,
    rid: u64,
    open_seq: u64,
}

/// Builds a span; see [`span`].
#[must_use = "a span builder does nothing until enter()"]
pub struct SpanBuilder {
    name: &'static str,
    fields: Vec<Field>,
    live: bool,
}

/// Starts building a span named `name`. While telemetry is disabled this
/// is one relaxed atomic load and the builder is inert.
pub fn span(name: &'static str) -> SpanBuilder {
    SpanBuilder {
        name,
        fields: Vec::new(),
        live: enabled(),
    }
}

impl SpanBuilder {
    /// Attaches a field. The value conversion only runs when telemetry is
    /// enabled.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.live {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Opens the span on this thread's stack; the returned guard closes
    /// it on drop (including during a panic unwind).
    pub fn enter(self) -> SpanGuard {
        if !self.live {
            return SpanGuard { token: 0 };
        }
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let open = OpenSpan {
            token,
            name: self.name,
            fields: self.fields,
            start: Instant::now(),
            start_us: now_us(),
            rid: current_request_id(),
            open_seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
        };
        STACK.with(|s| s.borrow_mut().push(open));
        SpanGuard { token }
    }
}

/// RAII guard of an open span. Dropping closes the span — and any child
/// spans still open above it, so a leaked child guard cannot strand
/// entries on the stack.
#[must_use = "dropping the guard closes the span"]
pub struct SpanGuard {
    token: u64,
}

impl SpanGuard {
    /// Attaches a field to the still-open span — for values only known
    /// after the work ran (an outcome epoch, a retry count).
    pub fn record(&self, key: &'static str, value: impl Into<Value>) {
        self.with_open(|open| open.fields.push((key, value.into())));
    }

    /// Renames the still-open span — for work whose kind is only known
    /// after it ran (a conditional batch the store rejects is booked as a
    /// failed compare-and-swap, not as a write).
    pub fn rename(&self, name: &'static str) {
        self.with_open(|open| open.name = name);
    }

    fn with_open(&self, f: impl FnOnce(&mut OpenSpan)) {
        if self.token == 0 {
            return;
        }
        STACK.with(|s| {
            if let Some(open) = s
                .borrow_mut()
                .iter_mut()
                .rev()
                .find(|open| open.token == self.token)
            {
                f(open);
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.token == 0 {
            return;
        }
        let (base_depth, closed) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.iter().rposition(|open| open.token == self.token) {
                Some(i) => (i, stack.split_off(i)),
                None => (0, Vec::new()), // already closed by an outer guard
            }
        });
        let tid = tid();
        // innermost first, so close order mirrors a well-nested unwind
        for (offset, open) in closed.into_iter().enumerate().rev() {
            let span = ClosedSpan {
                name: open.name,
                fields: open.fields,
                start_us: open.start_us,
                duration: open.start.elapsed(),
                tid,
                rid: open.rid,
                depth: base_depth + offset,
                open_seq: open.open_seq,
            };
            dispatch_span(&span);
        }
    }
}

/// The number of spans currently open on this thread — a diagnostic for
/// balance tests (always back to its pre-scope value after a
/// `catch_unwind`).
#[must_use]
pub fn stack_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

// ---------------------------------------------------------------------------
// events

/// Builds an event; see [`event`].
#[must_use = "an event builder does nothing until emit()"]
pub struct EventBuilder {
    name: &'static str,
    fields: Vec<Field>,
    live: bool,
}

/// Starts building an event named `name`. While telemetry is disabled
/// this is one relaxed atomic load and the builder is inert.
pub fn event(name: &'static str) -> EventBuilder {
    EventBuilder {
        name,
        fields: Vec::new(),
        live: enabled(),
    }
}

impl EventBuilder {
    /// Attaches a field. The value conversion only runs when telemetry is
    /// enabled.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.live {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Delivers the event to the installed subscriber.
    pub fn emit(self) {
        if !self.live {
            return;
        }
        let record = Event {
            name: self.name,
            fields: self.fields,
            ts_us: now_us(),
            tid: tid(),
            rid: current_request_id(),
        };
        dispatch_event(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Telemetry state is process-global; tests that install a subscriber
    // serialize on this lock so cargo's parallel test threads cannot
    // observe each other's spans.
    pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn disabled_spans_and_events_cost_nothing_and_record_nothing() {
        let _serial = test_lock();
        let collector = Arc::new(Collector::new());
        {
            let depth_before = stack_depth();
            let _span = span("noop.span").with("k", 1u64).enter();
            assert_eq!(
                stack_depth(),
                depth_before,
                "disabled span stays off the stack"
            );
            event("noop.event").emit();
        }
        // only now install: nothing from the disabled window shows up
        let _session = install(collector.clone());
        assert_eq!(collector.spans().len(), 0);
        assert_eq!(collector.events().len(), 0);
    }

    #[test]
    fn spans_nest_and_carry_fields_and_rids() {
        let _serial = test_lock();
        let collector = Arc::new(Collector::new());
        let _session = install(collector.clone());
        let outer_rid;
        {
            let scope = request_scope();
            outer_rid = scope.id();
            assert_ne!(outer_rid, 0);
            let outer = span("outer").with("group", "g1").enter();
            {
                let _inner = span("inner").enter();
                event("tick").with("n", 7u64).emit();
            }
            outer.record("epoch", 3u64);
        }
        assert_eq!(current_request_id(), 0, "scope restored");
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        // inner closes first
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].field("group").and_then(Value::as_str), Some("g1"));
        assert_eq!(spans[1].field("epoch").and_then(Value::as_u64), Some(3));
        assert!(spans.iter().all(|s| s.rid == outer_rid));
        let events = collector.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].rid, outer_rid);
    }

    #[test]
    fn adopt_request_id_joins_an_existing_chain() {
        let _serial = test_lock();
        let collector = Arc::new(Collector::new());
        let _session = install(collector.clone());
        let scope = request_scope();
        let rid = scope.id();
        let handle = std::thread::spawn(move || {
            let _joined = adopt_request_id(rid);
            let _span = span("lane").enter();
        });
        handle.join().unwrap();
        let spans = collector.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].rid, rid);
    }

    #[test]
    fn dropping_an_outer_guard_closes_leaked_children() {
        let _serial = test_lock();
        let collector = Arc::new(Collector::new());
        let _session = install(collector.clone());
        {
            let outer = span("outer").enter();
            let inner = span("inner").enter();
            // drop out of order: outer first closes inner too ...
            drop(outer);
            assert_eq!(stack_depth(), 0);
            // ... and inner's own drop is then a no-op
            drop(inner);
        }
        let spans = collector.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
    }
}
