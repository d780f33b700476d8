//! Integration tests of the public `cloud_store` API: versioned put/get
//! round-trips, long polling across threads, latency injection, and traffic
//! metrics — exercised the way the ACS admin/client pair uses it.

use std::time::{Duration, Instant};

use cloud_store::{Bytes, CloudStore, LatencyModel, ObjectStore, ShardedStore, StoreHandle};

#[test]
fn put_get_version_roundtrip_across_folders() {
    let store = CloudStore::new();
    let v1 = store.put("group-a", "p000000", b"partition-0".to_vec());
    let v2 = store.put("group-a", "p000001", b"partition-1".to_vec());
    let v3 = store.put("group-b", "p000000", b"other-group".to_vec());
    assert!(v1 < v2 && v2 < v3, "global version must be monotonic");

    let (data, v) = store.get("group-a", "p000000").unwrap();
    assert_eq!(&data[..], b"partition-0");
    assert_eq!(v, v1);

    // overwrite bumps the version but keeps old readers' data isolated
    let held = store.get("group-a", "p000001").unwrap();
    let v4 = store.put("group-a", "p000001", b"partition-1-v2".to_vec());
    assert!(v4 > v3);
    assert_eq!(&held.0[..], b"partition-1", "snapshot must be immutable");
    assert_eq!(
        &store.get("group-a", "p000001").unwrap().0[..],
        b"partition-1-v2"
    );

    assert_eq!(store.version(), v4);
    assert_eq!(store.list("group-a"), vec!["p000000", "p000001"]);
    assert_eq!(store.list_folders(), vec!["group-a", "group-b"]);
}

#[test]
fn delete_clears_items_then_folders() {
    let store = CloudStore::new();
    store.put("g", "x", b"1".to_vec());
    store.put("g", "y", b"2".to_vec());
    assert!(store.delete("g", "x"));
    assert!(!store.delete("g", "x"), "double delete must report absence");
    assert_eq!(store.list("g"), vec!["y"]);
    assert!(store.delete("g", "y"));
    assert!(store.list_folders().is_empty(), "empty folder must vanish");
}

#[test]
fn long_poll_cursor_protocol() {
    let store = CloudStore::new();
    let v0 = store.put("g", "p", b"a".to_vec());

    // a poll from cursor 0 sees the existing change immediately
    let r = store.long_poll("g", 0, Duration::from_millis(50));
    assert!(!r.timed_out);
    assert_eq!(r.changed, vec!["p".to_string()]);
    assert_eq!(r.version, v0);

    // from the returned cursor, nothing new: timeout
    let r2 = store.long_poll("g", r.version, Duration::from_millis(20));
    assert!(r2.timed_out);
    assert!(r2.changed.is_empty());

    // a concurrent PUT wakes a blocked poller scoped to that folder
    let poller = {
        let store = store.clone();
        let since = r.version;
        std::thread::spawn(move || store.long_poll("g", since, Duration::from_secs(5)))
    };
    std::thread::sleep(Duration::from_millis(20));
    store.put("other", "q", b"noise".to_vec()); // different folder: no wake-up
    store.put("g", "p", b"b".to_vec());
    let r3 = poller.join().unwrap();
    assert!(!r3.timed_out);
    assert_eq!(r3.changed, vec!["p".to_string()]);
}

#[test]
fn metrics_count_each_operation_kind() {
    let store = CloudStore::new();
    store.put("g", "p", vec![1u8; 100]);
    store.put("g", "q", vec![2u8; 50]);
    store.get("g", "p");
    store.get("g", "missing"); // miss: not recorded (no payload served)
    store.delete("g", "q");
    store.long_poll("g", 0, Duration::from_millis(1));
    let m = store.metrics();
    assert_eq!(m.puts, 2);
    assert_eq!(m.bytes_up, 150);
    assert_eq!(m.gets, 1, "only GETs that serve a payload are counted");
    assert_eq!(m.bytes_down, 100);
    assert_eq!(m.deletes, 1);
    assert_eq!(m.polls, 1);
}

#[test]
fn latency_model_delays_every_request() {
    let store = CloudStore::with_latency(LatencyModel::new(
        Duration::from_millis(4),
        Duration::from_millis(2),
    ));
    let t0 = Instant::now();
    store.put("g", "p", b"x".to_vec());
    store.get("g", "p");
    assert!(
        t0.elapsed() >= Duration::from_millis(8),
        "two requests at ≥4ms each"
    );
}

#[test]
fn store_handles_are_one_shared_namespace() {
    let a = CloudStore::new();
    let b = a.clone();
    a.put("g", "p", b"via-a".to_vec());
    let (data, _) = b.get("g", "p").unwrap();
    assert_eq!(&data[..], b"via-a");
    b.delete("g", "p");
    assert!(a.get("g", "p").is_none());
}

/// A multi-GET racing multi-item PUTs into the same folder sees each batch
/// whole or not at all: every item it returns carries one version and one
/// batch's payload, on the single store and on a sharded one.
#[test]
fn a_multi_get_never_mixes_two_batches() {
    for store in [
        StoreHandle::from(CloudStore::new()),
        StoreHandle::from(ShardedStore::new(4)),
    ] {
        let items: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
        let batch = |round: u32| {
            let payload = round.to_be_bytes().to_vec();
            items
                .iter()
                .map(move |name| (name.clone(), payload.clone()))
        };
        store.put_many("g", batch(0));
        let writer = {
            let store = store.clone();
            let batches: Vec<Vec<_>> = (1..=2_000).map(|r| batch(r).collect()).collect();
            std::thread::spawn(move || {
                for items in batches {
                    store.put_many("g", items);
                }
            })
        };
        let mut reads = 0;
        while !writer.is_finished() || reads < 100 {
            let (found, clock) = store.try_get_many("g", items.clone()).unwrap();
            let found: Vec<(Bytes, u64)> = found.into_iter().map(Option::unwrap).collect();
            let (payload, version) = &found[0];
            assert!(
                found.iter().all(|(p, v)| p == payload && v == version),
                "a torn multi-GET: {found:?}"
            );
            assert!(*version <= clock, "the clock is read with the items");
            reads += 1;
        }
        writer.join().unwrap();
    }
}
