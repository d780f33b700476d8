//! Integration tests of the span machinery's hard cases: panic-safety
//! under `catch_unwind` (the fleet-worker scenario) and the cost of the
//! disabled fast path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{span, stack_depth, Collector};

/// Telemetry state is process-global; tests that install a subscriber
/// serialize on this lock so cargo's parallel test threads cannot observe
/// each other's spans.
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn panicking_under_catch_unwind_leaves_the_stack_balanced() {
    let _serial = test_lock();
    let collector = Arc::new(Collector::new());
    let _session = telemetry::install(collector.clone());

    // the fleet-worker shape: a lease span open, work panics underneath,
    // catch_unwind contains it — exactly what vendor/exec's Executor does
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _lease = span("fleet.lease").with("group", "g0").enter();
        let _step = span("fleet.step").enter();
        panic!("injected store panic");
    }));
    assert!(result.is_err());
    assert_eq!(stack_depth(), 0, "unwinding closed every open span");

    // both spans were delivered despite the panic, innermost first
    let spans = collector.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].name, "fleet.step");
    assert_eq!(spans[1].name, "fleet.lease");

    // and the thread is still usable for well-nested spans afterwards
    collector.clear();
    {
        let _next = span("fleet.lease").enter();
    }
    assert_eq!(collector.span_count("fleet.lease"), 1);
    assert_eq!(stack_depth(), 0);
}

#[test]
fn repeated_panics_never_accumulate_stack_entries() {
    let _serial = test_lock();
    let collector = Arc::new(Collector::new());
    let _session = telemetry::install(collector.clone());
    for i in 0..64u64 {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _outer = span("outer").with("round", i).enter();
            let _inner = span("inner").enter();
            if i % 2 == 0 {
                panic!("boom");
            }
        }));
        assert_eq!(result.is_err(), i % 2 == 0);
        assert_eq!(stack_depth(), 0, "round {i} left the stack unbalanced");
    }
    assert_eq!(collector.span_count("outer"), 64);
    assert_eq!(collector.span_count("inner"), 64);
}

#[test]
fn disabled_instrumentation_is_cheap() {
    let _serial = test_lock();
    assert!(!telemetry::enabled());
    // A generous smoke bound: 1M disabled span sites (builder + enter +
    // drop) must finish in well under a second even on a loaded CI box.
    // The real claim — no allocation, no subscriber, no stack touch — is
    // asserted structurally by the zero-depth check.
    let start = Instant::now();
    for i in 0..1_000_000u64 {
        let guard = span("store.put").with("bytes", i).enter();
        drop(guard);
    }
    assert_eq!(stack_depth(), 0);
    assert!(
        start.elapsed().as_secs() < 5,
        "1M disabled span sites took {:?}",
        start.elapsed()
    );
}

#[test]
fn a_renamed_span_closes_under_its_new_name_with_its_fields() {
    let _serial = test_lock();
    let collector = Arc::new(Collector::new());
    let _session = telemetry::install(collector.clone());
    {
        let outer = span("store.put_many").with("items", 3u64).enter();
        let _inner = span("inner").enter();
        outer.rename("store.cas");
        outer.record("conflict", true);
    }
    assert_eq!(collector.span_count("store.put_many"), 0);
    let spans = collector.spans();
    let renamed = spans.iter().find(|s| s.name == "store.cas").unwrap();
    assert_eq!(renamed.field("items").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(
        renamed.field("conflict").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(collector.span_count("inner"), 1);
}
