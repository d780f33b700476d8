//! [`PipelinedSession`] suite: observational equivalence with the serial
//! session.
//!
//! * window = 1 degenerates to exactly serial semantics — the same data
//!   requests, in the same order, verified through a recording store;
//! * queued writes coalesce last-write-wins and reads see them in
//!   program order;
//! * a lost CAS on a coalesced write retries with the surviving payload;
//! * an epoch rotation observed mid-window drains it, queued writes seal
//!   under the new ring, and revoked members stay locked out of them;
//! * the window genuinely overlaps store latency;
//! * serial and pipelined replays of the same random trace observe
//!   byte-identical plaintexts at every read (proptest).

use acs::FleetFixture;
use cloud_store::{CloudStore, LatencyModel, StoreHandle};
use dataplane::fixtures::{fleet_session, fleet_session_on};
use dataplane::PipelinedSession;
use ibbe_sgx_core::{MembershipBatch, PartitionSize};
use proptest::prelude::*;
use std::time::{Duration, Instant};
use support::replay::{RwSystemBackend, RwSystemConfig};
use support::RecordingStore;
use workloads::rw::object_name;
use workloads::{generate_read_write, replay_events, RwTraceConfig};

mod support;

const WRITER: &str = "writer";
const GROUP: &str = "g0";

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|c| (c / 8).max(4))
        .unwrap_or(4)
}

/// One group of two plain members plus the writer service identity.
fn fixture_over(store: impl Into<StoreHandle>, seed: u64) -> FleetFixture {
    FleetFixture::new(
        store,
        PartitionSize::new(2).unwrap(),
        &[(GROUP.to_string(), vec!["u0".into(), "u1".into()])],
        &[WRITER.to_string()],
        seed,
    )
    .unwrap()
}

/// The mixed op sequence both deployments replay in the window=1 test:
/// rewrites, read-after-write, interleaved objects.
fn mixed_ops() -> Vec<(&'static str, &'static str)> {
    vec![
        ("w", "obj-a"),
        ("w", "obj-b"),
        ("r", "obj-a"),
        ("w", "obj-a"),
        ("w", "obj-c"),
        ("r", "obj-c"),
        ("r", "obj-b"),
        ("w", "obj-b"),
        ("r", "obj-a"),
    ]
}

#[test]
fn window_one_replays_the_serial_request_trace_exactly() {
    let run = |pipelined: bool| {
        let base = CloudStore::new();
        let fixture = fixture_over(base.clone(), 7);
        let recorder = RecordingStore::new(base);
        let session = fleet_session_on(
            &fixture,
            StoreHandle::new(recorder.clone()),
            WRITER,
            GROUP,
            1,
            0x11,
        );
        let mut reads = Vec::new();
        if pipelined {
            let mut p = PipelinedSession::new(session, 1);
            for (i, (op, object)) in mixed_ops().iter().enumerate() {
                match *op {
                    "w" => p.write(object, format!("payload-{i}").as_bytes()).unwrap(),
                    _ => reads.push(p.read(object).unwrap()),
                }
            }
            p.flush().unwrap();
        } else {
            let mut s = session;
            for (i, (op, object)) in mixed_ops().iter().enumerate() {
                match *op {
                    "w" => {
                        s.write(object, format!("payload-{i}").as_bytes()).unwrap();
                    }
                    _ => reads.push(s.read(object).unwrap()),
                }
            }
        }
        (recorder.data_ops(), reads)
    };

    let (serial_ops, serial_reads) = run(false);
    let (pipelined_ops, pipelined_reads) = run(true);
    assert_eq!(
        serial_reads, pipelined_reads,
        "observed plaintexts diverged"
    );
    assert_eq!(
        serial_ops, pipelined_ops,
        "window=1 must issue exactly the serial request trace"
    );
}

#[test]
fn queued_writes_coalesce_and_reads_see_them_in_program_order() {
    let latency = LatencyModel::new(Duration::from_millis(25), Duration::ZERO);
    let fixture = fixture_over(CloudStore::with_latency(latency), 3);
    let session = fleet_session(&fixture, WRITER, GROUP, 1, 0x22);
    let mut p = PipelinedSession::new(session, 2);

    p.write("obj-a", b"a1").unwrap();
    p.write("obj-b", b"b1").unwrap(); // window full: both in flight
    p.write("obj-c", b"c1").unwrap(); // queued behind the window
    p.write("obj-c", b"c2").unwrap(); // coalesced, last write wins
    assert!(p.queued_writes() >= 1, "obj-c should still be queued");
    assert_eq!(
        p.read("obj-c").unwrap(),
        b"c2",
        "a read of a queued write returns its payload in program order"
    );
    p.flush().unwrap();

    let m = p.metrics();
    assert_eq!(m.coalesced_writes, 1);
    assert_eq!(m.writes, 3, "obj-c went out once despite two write() calls");
    assert_eq!(p.session_mut().read("obj-c").unwrap(), b"c2");
}

#[test]
fn a_conflicted_coalesced_write_retries_with_the_surviving_payload() {
    let latency = LatencyModel::new(Duration::from_millis(25), Duration::ZERO);
    let fixture = fixture_over(CloudStore::with_latency(latency), 5);

    // an external writer creates obj-y first, so the pipelined session's
    // CAS expectation (0 = "must not exist") is doomed to conflict
    let mut external = fleet_session(&fixture, "u0", GROUP, 1, 0x33);
    external.write("obj-y", b"external").unwrap();

    let session = fleet_session(&fixture, WRITER, GROUP, 1, 0x44);
    let mut p = PipelinedSession::new(session, 2);
    p.write("obj-a", b"a1").unwrap();
    p.write("obj-b", b"b1").unwrap(); // window full
    p.write("obj-y", b"y1").unwrap(); // queued
    p.write("obj-y", b"y2").unwrap(); // coalesced: y2 is the survivor
    p.flush().unwrap();

    let m = p.metrics();
    assert_eq!(m.coalesced_writes, 1);
    assert!(
        m.write_conflicts >= 1,
        "the stale expectation must have lost its CAS"
    );
    assert_eq!(
        p.session_mut().read("obj-y").unwrap(),
        b"y2",
        "the retry carried the surviving (coalesced) payload"
    );
}

#[test]
fn a_rotation_observed_mid_window_reseals_queued_writes_under_the_new_epoch() {
    let latency = LatencyModel::new(Duration::from_millis(25), Duration::ZERO);
    let fixture = fixture_over(CloudStore::with_latency(latency), 9);

    // the soon-revoked member opens its session (and ring) pre-rotation
    let mut revoked = fleet_session(&fixture, "u1", GROUP, 1, 0x55);
    revoked.refresh().unwrap();

    let session = fleet_session(&fixture, WRITER, GROUP, 1, 0x66);
    let mut p = PipelinedSession::new(session, 2);
    p.write("obj-0", b"old-0").unwrap();
    p.write("obj-1", b"old-1").unwrap(); // window full, both sealed pre-rotation
    p.write("obj-2", b"new-2").unwrap(); // queued, not yet sealed

    let mut batch = MembershipBatch::new();
    batch.remove("u1".to_string());
    let outcome = fixture.admin().apply_batch(GROUP, &batch).unwrap();
    assert!(outcome.gk_rotated);

    // the next enqueue observes the rotation, drains the window, and
    // everything still queued seals under the new ring at submission
    p.write("obj-3", b"new-3").unwrap();
    p.flush().unwrap();

    let writer = p.session_mut();
    for (object, payload) in [
        ("obj-0", &b"old-0"[..]),
        ("obj-1", b"old-1"),
        ("obj-2", b"new-2"),
        ("obj-3", b"new-3"),
    ] {
        assert_eq!(writer.read(object).unwrap(), payload);
    }

    // lazy window: pre-rotation objects stay readable on the stale ring…
    assert_eq!(revoked.read("obj-0").unwrap(), b"old-0");
    // …but the queued write sealed post-rotation locks the revoked member
    // out, even though it was enqueued before the revocation
    assert!(revoked.read("obj-2").is_err());
    assert!(revoked.read("obj-3").is_err());
}

#[test]
fn the_window_overlaps_store_latency() {
    let rtt = Duration::from_millis(20);
    let fixture = fixture_over(
        CloudStore::with_latency(LatencyModel::new(rtt, Duration::ZERO)),
        1,
    );
    let session = fleet_session(&fixture, WRITER, GROUP, 1, 0x77);
    let mut p = PipelinedSession::new(session, 4);

    // prime the ring outside the timed region
    p.write("obj-prime", b"prime").unwrap();
    p.flush().unwrap();

    let t0 = Instant::now();
    for i in 0..8 {
        p.write(&format!("obj-{i}"), b"x").unwrap();
    }
    p.flush().unwrap();
    let elapsed = t0.elapsed();
    // serial floor: 8 sequential CAS round trips = 160ms; four lanes
    // should land the batch in roughly two waves
    assert!(
        elapsed < rtt * 6,
        "8 writes at 20ms RTT took {elapsed:?} — the window is not overlapping"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(), ..ProptestConfig::default() })]

    /// The satellite acceptance property: a pipelined replay of **any**
    /// trace observes byte-identical plaintexts to the serial replay —
    /// mid-trace (the running read digest) and post-trace (direct reads
    /// of every object).
    #[test]
    fn pipelined_replay_is_byte_identical_to_serial(
        seed in any::<u64>(),
        objects in 2usize..6,
        events in 15usize..40,
        write_ratio_pct in 30u32..80,
        churn_every in 10usize..25,
    ) {
        let trace = generate_read_write(&RwTraceConfig {
            objects,
            events,
            write_ratio: f64::from(write_ratio_pct) / 100.0,
            churn_every,
            churn_ops: 2,
            churn_revocation_ratio: 0.67,
            seed,
        });
        let run = |pipelined: bool| {
            let config = RwSystemConfig {
                partition_size: 2,
                pipelined,
                ..RwSystemConfig::default()
            };
            let mut backend = RwSystemBackend::with_store(CloudStore::new(), "g", &trace, config);
            replay_events(&trace.events, &mut backend, None);
            backend
        };
        let mut serial = run(false);
        let mut pipelined = run(true);
        prop_assert!(serial.failure().is_none(), "serial: {:?}", serial.failure());
        prop_assert!(pipelined.failure().is_none(), "pipelined: {:?}", pipelined.failure());
        // equal digests: mid-trace reads observed identical bytes
        prop_assert_eq!(serial.read_digest(), pipelined.read_digest());
        for i in 0..objects {
            let object = object_name(i);
            match (serial.session_mut().read(&object), pipelined.session_mut().read(&object)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(
                    false,
                    "post-replay read of {} diverged: serial ok={} pipelined ok={}",
                    object, a.is_ok(), b.is_ok()
                ),
            }
        }
        // every trace write is accounted for: completed as a request, or
        // merged into one (never dropped)
        let (sm, pm) = (serial.session_metrics(), pipelined.session_metrics());
        prop_assert_eq!(sm.writes, pm.writes + pm.coalesced_writes);
    }
}
