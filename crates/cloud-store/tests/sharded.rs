//! Property and integration tests of the sharded store's routing
//! contract: routing is a pure function of the folder name, the placement
//! of every benchmark workload's folders is pinned, per-shard long-poll
//! wait queues never leak wakeups across shards, folder-scoped semantics
//! survive sharding unchanged, and the cross-shard views (metrics,
//! folders) aggregate correctly.

use bytes::Bytes;
use cloud_store::{BatchWrite, CloudStore, ObjectStore, ShardedStore, StoreError, StoreHandle};
use proptest::prelude::*;
use std::time::Duration;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(32)
}

/// Folder name for pool index `i`, alternating between the bi-level shapes
/// the upper layers actually use (metadata folder, data folder, data
/// shard).
fn folder_name(i: u8) -> String {
    match i % 3 {
        0 => format!("group-{i:02}"),
        1 => format!("group-{i:02}/data"),
        _ => format!("group-{:02}/data-{:02}", i, i % 4),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Routing is deterministic: two independently built stores with the
    /// same shard count agree on every folder's owner, and an item written
    /// through the sharded surface is found on exactly that shard.
    #[test]
    fn routing_is_deterministic_and_consistent(
        folder_idx in 0u8..=24,
        item_idx in 0u8..=9,
        shards in 1usize..=8,
    ) {
        let folder = folder_name(folder_idx);
        let item = format!("item-{item_idx}");
        let a = ShardedStore::new(shards);
        let b = ShardedStore::new(shards);
        prop_assert_eq!(a.shard_index(&folder), b.shard_index(&folder));

        a.put(&folder, &item, Bytes::from_static(b"payload"));
        let owner = a.shard_index(&folder);
        for (i, shard) in a.shards().iter().enumerate() {
            // the item must live on the owning shard only
            prop_assert_eq!(shard.get(&folder, &item).is_some(), i == owner);
        }
        // folder-level views route to the same shard
        prop_assert_eq!(a.list(&folder), vec![item.clone()]);
        prop_assert_eq!(a.folder_version(&folder), a.shards()[owner].version());
    }

    /// A long-poller on one folder is never woken by traffic to other
    /// folders — neither on other shards (wait-queue isolation) nor on its
    /// own (folder scoping).
    #[test]
    fn long_poll_wakeups_never_cross_shards(
        base in 0u8..=99,
        others in 2usize..=5,
        shards in 2usize..=8,
    ) {
        let store = ShardedStore::new(shards);
        let watched = format!("watched-{base:02}");
        let cursor = store.folder_version(&watched);

        // traffic to every other folder, wherever it happens to live
        for i in 0..others {
            store.put(
                &format!("foreign-{base:02}-{i}"),
                "item",
                Bytes::from_static(b"x"),
            );
        }
        let quiet = store.long_poll(&watched, cursor, Duration::from_millis(20));
        prop_assert!(quiet.timed_out, "foreign traffic woke {}", watched);

        // while the watched folder's own traffic still wakes it
        let own = store.put(&watched, "mine", Bytes::from_static(b"y"));
        let woken = store.long_poll(&watched, cursor, Duration::from_millis(20));
        prop_assert!(!woken.timed_out);
        prop_assert_eq!(woken.changed, vec!["mine".to_string()]);
        prop_assert!(woken.version >= own);
    }

    /// The same operation sequence against a single store and a sharded
    /// store yields identical per-folder contents, and the sharded
    /// aggregate metrics equal the single store's.
    #[test]
    fn sharded_store_is_observationally_equal_to_single(
        ops in proptest::collection::vec(
            (0u8..=12, 0u8..=3, any::<u8>(), any::<bool>()),
            1..24,
        ),
        shards in 2usize..=5,
    ) {
        let single: StoreHandle = CloudStore::new().into();
        let sharded: StoreHandle = ShardedStore::new(shards).into();
        for (folder_idx, item_idx, byte, delete) in &ops {
            let folder = folder_name(*folder_idx);
            let item = format!("item-{item_idx}");
            for store in [&single, &sharded] {
                if *delete {
                    store.delete(&folder, &item);
                } else {
                    store.put(&folder, &item, vec![*byte; 4]);
                }
            }
        }
        prop_assert_eq!(single.list_folders(), sharded.list_folders());
        for folder in single.list_folders() {
            prop_assert_eq!(single.list(&folder), sharded.list(&folder));
            for item in single.list(&folder) {
                prop_assert_eq!(
                    single.get(&folder, &item).unwrap().0,
                    sharded.get(&folder, &item).unwrap().0
                );
            }
        }
        let (m1, mn) = (single.metrics(), sharded.metrics());
        prop_assert_eq!(m1.puts, mn.puts);
        prop_assert_eq!(m1.deletes, mn.deletes);
        prop_assert_eq!(m1.bytes_up, mn.bytes_up);
    }
}

/// CAS clock domains are per shard: conditional writes round-trip versions
/// of the owning shard and behave exactly like the single store's.
#[test]
fn cas_semantics_hold_per_shard() {
    let store = ShardedStore::new(4);
    let v1 = store
        .put_if_version("g/data", "obj", Bytes::from_static(b"one"), 0)
        .unwrap();
    let err = store
        .put_if_version("g/data", "obj", Bytes::from_static(b"stale"), v1 + 7)
        .unwrap_err();
    assert_eq!(err.current, v1);
    let v2 = store
        .put_if_version("g/data", "obj", Bytes::from_static(b"two"), v1)
        .unwrap();
    assert!(v2 > v1);
    let m = store.metrics();
    assert_eq!((m.cas_puts, m.cas_conflicts), (2, 1));
}

/// A conditional multi-write keeps the single store's all-or-nothing
/// contract on its folder's shard, and its booking aggregates like any
/// other counter.
#[test]
fn conditional_batches_hold_per_shard() {
    let store = ShardedStore::new(4);
    let v1 = store.put("g/data", "a", Bytes::from_static(b"one"));
    let lost = store
        .try_write_many(
            "g/data",
            vec![
                BatchWrite::put_if_version("a", Bytes::from_static(b"x"), v1 + 7),
                BatchWrite::put_if_version("b", Bytes::from_static(b"y"), 0),
            ],
        )
        .unwrap_err();
    assert_eq!(lost, StoreError::BatchConflict(vec![("a".to_string(), v1)]));
    assert!(store.get("g/data", "b").is_none(), "the holding item waits");
    let v2 = store
        .try_write_many(
            "g/data",
            vec![
                BatchWrite::put_if_version("a", Bytes::from_static(b"x"), v1),
                BatchWrite::put_if_version("b", Bytes::from_static(b"y"), 0),
            ],
        )
        .unwrap();
    assert_eq!(store.get("g/data", "b").unwrap().1, v2);
    let owner = &store.shards()[store.shard_index("g/data")];
    let m = store.metrics();
    assert_eq!(
        (m.puts_batched, m.batched_items, m.cas_conflicts),
        (1, 2, 1)
    );
    assert_eq!(owner.metrics().cas_conflicts, 1, "booked on the owner");
}

/// Aggregated metrics are the field-wise sum of the per-shard snapshots.
#[test]
fn metrics_aggregate_across_shards() {
    let store = ShardedStore::new(3);
    for i in 0..9 {
        store.put(&format!("f{i}"), "item", Bytes::from(vec![0u8; 10]));
    }
    store.get("f0", "item");
    let merged = store.metrics();
    assert_eq!(merged.puts, 9);
    assert_eq!(merged.bytes_up, 90);
    assert_eq!(merged.gets, 1);
    let sum: u64 = store.shards().iter().map(|s| s.metrics().puts).sum();
    assert_eq!(sum, 9);
    assert!(
        store.shards().iter().all(|s| s.metrics().puts < 9),
        "nine distinct folders should spread over three shards"
    );
}

/// Placement is pinned: the shard of each folder the benchmark workloads
/// use (`rw`, `m` and `rs` with their data folders) at 4 shards, and of a
/// few folders at 1 and 8, so a routing change cannot silently move
/// per-shard traffic. At 4 shards the 16 `rw` data folders split 8/3/3/2.
#[test]
fn placement_is_pinned_for_the_workload_folders() {
    let four = ShardedStore::new(4);
    for (folder, shard) in [("rw", 3), ("m", 1), ("rs", 3), ("rw/data", 3), ("", 1)] {
        assert_eq!(four.shard_index(folder), shard, "{folder:?}");
    }
    let rw_data = [3, 2, 2, 0, 2, 2, 3, 1, 2, 0, 0, 3, 2, 2, 1, 2];
    for (i, &shard) in rw_data.iter().enumerate() {
        let folder = format!("rw/data-{i:02}");
        assert_eq!(four.shard_index(&folder), shard, "{folder}");
    }
    let rs_data = [0, 2, 3, 2, 0, 2, 0, 3];
    for (i, &shard) in rs_data.iter().enumerate() {
        let folder = format!("rs/data-{i:02}");
        assert_eq!(four.shard_index(&folder), shard, "{folder}");
    }

    let one = ShardedStore::new(1);
    for folder in ["rw", "m", "rs", "rw/data-00", ""] {
        assert_eq!(one.shard_index(folder), 0, "{folder:?}");
    }
    let eight = ShardedStore::new(8);
    let pins = [
        ("rw", 5),
        ("m", 5),
        ("rs", 3),
        ("g", 6),
        ("group-1", 5),
        ("rw/data-04", 7),
        ("rw/data-09", 0),
        ("rs/data-03", 2),
        ("", 4),
    ];
    for (folder, shard) in pins {
        assert_eq!(eight.shard_index(folder), shard, "{folder:?}");
    }
}
