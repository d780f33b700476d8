//! The completion-based submission surface across all three store
//! shapes: inline default, CloudStore worker lanes, ShardedStore
//! per-shard routing, and FaultyStore submission-time injection.

use cloud_store::{
    BatchWrite, CloudStore, FaultConfig, FaultInjector, FaultyStore, LatencyModel, ObjectStore,
    Request, Response, ShardedStore, StoreError, StoreHandle, SUBMIT_LANES,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn put_version(response: Response) -> u64 {
    match response {
        Response::Put { version } => version,
        other => panic!("expected Put response, got {other:?}"),
    }
}

#[test]
fn submitted_requests_roundtrip_like_blocking_calls() {
    let store = CloudStore::new();
    let v1 = put_version(
        store
            .submit(Request::put("g", "a", &b"one"[..]))
            .wait()
            .unwrap(),
    );
    let v2 = put_version(
        store
            .submit(Request::put_if_version("g", "a", &b"two"[..], v1))
            .wait()
            .unwrap(),
    );
    assert!(v2 > v1);

    match store.submit(Request::get("g", "a")).wait().unwrap() {
        Response::Get(Some((data, version))) => {
            assert_eq!(&data[..], b"two");
            assert_eq!(version, v2);
        }
        other => panic!("expected Get response, got {other:?}"),
    }

    match store.submit(Request::delete("g", "a")).wait().unwrap() {
        Response::Delete(true) => {}
        other => panic!("expected Delete(true), got {other:?}"),
    }
    assert!(store.get("g", "a").is_none());
}

#[test]
fn a_lost_cas_surfaces_as_a_conflict_through_the_ticket() {
    let store = CloudStore::new();
    let current = store.put("g", "a", &b"seed"[..]);
    let err = store
        .submit(Request::put_if_version(
            "g",
            "a",
            &b"stale"[..],
            current + 7,
        ))
        .wait()
        .unwrap_err();
    match err {
        StoreError::Conflict(conflict) => assert_eq!(conflict.current, current),
        other => panic!("expected Conflict, got {other:?}"),
    }
}

/// A conditional batch submitted to the lanes — single store, owning
/// shard, or through a storming fault injector — answers exactly as the
/// blocking call would: a version when it lands, the named losers when
/// it does not.
#[test]
fn conditional_batches_ride_the_submit_lanes() {
    let batch = |va: u64| {
        Request::write_many(
            "g",
            vec![
                BatchWrite::put_if_version("a", &b"a1"[..], va),
                BatchWrite::put("b", &b"b1"[..]),
            ],
        )
    };
    let stores: [StoreHandle; 2] = [CloudStore::new().into(), ShardedStore::new(3).into()];
    for store in stores {
        let va = store.put("g", "a", &b"a0"[..]);
        let lost = store.submit(batch(va + 1)).wait().unwrap_err();
        assert_eq!(lost, StoreError::BatchConflict(vec![("a".to_string(), va)]));
        assert!(store.get("g", "b").is_none());
        let v = put_version(store.submit(batch(va)).wait().unwrap());
        assert_eq!(store.get("g", "b").unwrap().1, v);
        let m = store.metrics();
        assert_eq!((m.puts_batched, m.cas_conflicts), (1, 1));
    }
    // a storm rejects a conditional batch before it reaches the lanes,
    // naming its first conditional item at its true version; an
    // unconditional batch never rolls the storm
    let storming = FaultyStore::new(
        CloudStore::new(),
        FaultConfig {
            cas_storm_prob: 1.0,
            ..FaultConfig::default()
        },
    );
    let va = storming.put("g", "a", &b"a0"[..]);
    let lost = storming.submit(batch(va)).wait().unwrap_err();
    assert_eq!(lost, StoreError::BatchConflict(vec![("a".to_string(), va)]));
    assert!(
        storming.get("g", "b").is_none(),
        "the batch was not executed"
    );
    let publish = Request::put_many("g", vec![("b".to_string(), &b"b2"[..])]);
    assert!(storming.submit(publish).wait().is_ok());
    assert_eq!(storming.injector().stats().cas_conflicts, 1);
}

#[test]
fn submissions_overlap_latency_up_to_the_lane_count() {
    let latency = Duration::from_millis(20);
    let store = CloudStore::with_latency(LatencyModel::new(latency, Duration::ZERO));
    let start = Instant::now();
    let tickets: Vec<_> = (0..SUBMIT_LANES)
        .map(|i| store.submit(Request::put("g", format!("item-{i}"), &b"x"[..])))
        .collect();
    for ticket in tickets {
        let _ = ticket.wait().unwrap();
    }
    let wall = start.elapsed();
    // SUBMIT_LANES concurrent requests cost ~1 RTT, not SUBMIT_LANES RTTs
    assert!(
        wall < latency * (SUBMIT_LANES as u32 - 1),
        "lanes did not overlap: {wall:?} for {SUBMIT_LANES} requests at {latency:?} each"
    );
}

#[test]
fn sharded_submissions_land_on_the_owning_shard() {
    let store = ShardedStore::new(4);
    for i in 0..16 {
        let folder = format!("folder-{i}");
        let _ = store
            .submit(Request::put(folder.clone(), "obj", &b"x"[..]))
            .wait()
            .unwrap();
        let index = store.shard_index(&folder);
        for (s, shard) in store.shards().iter().enumerate() {
            assert_eq!(
                shard.get(&folder, "obj").is_some(),
                s == index,
                "submission for {folder} must land only on shard {index}"
            );
        }
    }
}

#[test]
fn faulty_store_injects_at_submission_time() {
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 9,
        domains: 1,
        ..FaultConfig::default()
    }));
    let store = FaultyStore::with_injector(CloudStore::new(), Arc::clone(&injector));

    // a down store fails the ticket without the request reaching the inner
    // store (inject-before-effect: resubmission is always safe)
    injector.force_outage(0, Duration::from_millis(40));
    let err = store
        .submit(Request::put("g", "a", &b"x"[..]))
        .wait()
        .unwrap_err();
    assert!(matches!(err, StoreError::Unavailable { .. }));
    assert!(store.inner().get("g", "a").is_none(), "no partial effect");

    injector.heal();
    let _ = store
        .submit(Request::put("g", "a", &b"x"[..]))
        .wait()
        .unwrap();
    assert!(store.inner().get("g", "a").is_some());
}

#[test]
fn store_handle_forwards_submissions_to_the_wrapped_store() {
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 9,
        domains: 1,
        ..FaultConfig::default()
    }));
    let handle: StoreHandle =
        FaultyStore::with_injector(CloudStore::new(), Arc::clone(&injector)).into();
    injector.force_outage(0, Duration::from_millis(40));
    // if StoreHandle used the trait default instead of self.0.submit, the
    // request would execute inline against the handle's own `call` and the
    // injection would still fire — but a *clean inner* default would
    // bypass it; assert the wrapper's schedule is honoured end to end
    let err = handle
        .submit(Request::put("g", "a", &b"x"[..]))
        .wait()
        .unwrap_err();
    assert!(matches!(err, StoreError::Unavailable { .. }));
    injector.heal();
    let _ = handle
        .submit(Request::put("g", "a", &b"x"[..]))
        .wait()
        .unwrap();
    assert_eq!(&handle.get("g", "a").unwrap().0[..], b"x");
}
