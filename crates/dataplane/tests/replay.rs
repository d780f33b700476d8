//! End-to-end replay of the read/write workload through the shared generic
//! event driver — membership traces and data-plane traces now drive one
//! code path (`workloads::replay_events`).

use dataplane::SweepConfig;
use std::time::Duration;
use support::replay::{Revocation, RwSystemBackend};
use workloads::{generate_read_write, replay_events, RwOp, RwTraceConfig};

mod support;

fn config() -> RwTraceConfig {
    RwTraceConfig {
        objects: 6,
        events: 40,
        write_ratio: 0.5,
        churn_every: 20,
        churn_ops: 3,
        churn_revocation_ratio: 0.67,
        seed: 0xf00d,
    }
}

#[test]
fn rw_trace_replays_through_the_generic_driver_lazy() {
    let trace = generate_read_write(&config());
    let mut backend = RwSystemBackend::new(
        4,
        "g",
        &trace,
        Revocation::Lazy,
        SweepConfig {
            deadline: Duration::from_secs(5),
        },
        64,
        42,
    );
    let report = replay_events(&trace.events, &mut backend, Some(10));
    assert_eq!(backend.failure(), None, "replay applied the whole trace");

    let writes = trace
        .events
        .iter()
        .filter(|e| matches!(e, RwOp::Write { .. }))
        .count();
    let reads = trace
        .events
        .iter()
        .filter(|e| matches!(e, RwOp::Read { .. }))
        .count();
    assert_eq!(report.series("write").len(), writes);
    assert_eq!(report.series("read").len(), reads);
    assert_eq!(report.series("churn").len(), trace.churn_count());
    assert_eq!(backend.session_metrics().reads as usize, reads);
    assert!(backend.session_metrics().writes as usize >= writes);
    // lazy: churn events performed no data-plane work in-line
    assert_eq!(backend.sweeper_metrics().migrations, 0);

    // the churn events armed the fleet; it converges the leftovers after
    // the fact
    assert!(backend.sweeper_mut().is_armed(0));
    let sweep = backend.sweeper_mut().converge_all().unwrap().groups[0].report;
    assert!(sweep.converged);
}

#[test]
fn rw_trace_replays_through_the_generic_driver_eager() {
    let trace = generate_read_write(&config());
    let mut backend = RwSystemBackend::new(
        4,
        "g",
        &trace,
        Revocation::Eager,
        SweepConfig::default(),
        64,
        43,
    );
    replay_events(&trace.events, &mut backend, None);
    assert_eq!(backend.failure(), None, "replay applied the whole trace");
    // eager: every churn with a revocation swept in-line, so nothing can be
    // stale now
    assert!(backend.sweeper_metrics().migrations > 0);
    backend.sweeper_mut().arm(0);
    let sweep = backend.sweeper_mut().converge_all().unwrap().groups[0].report;
    assert!(sweep.converged);
    assert_eq!(sweep.migrated, 0, "eager left nothing stale behind");
}
