//! Property and integration tests of the sharded store's routing
//! contract: routing is a pure function of the folder name, per-shard
//! long-poll wait queues never leak wakeups across shards, folder-scoped
//! semantics survive sharding unchanged, and the cross-shard views
//! (metrics, folders, merged watch) aggregate correctly.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// HRW stability: resizing N→N+1 relocates roughly 1/(N+1) of the
    /// folders and *nothing else* — every folder that moves lands on the
    /// newly added shard, every folder that stays keeps byte-identical
    /// contents, and routing after the resize is deterministic across
    /// independently built processes.
    #[test]
    fn resize_relocates_a_minimal_deterministic_fraction(
        shards in 1usize..=7,
        folders in 24usize..=64,
        seed in any::<u8>(),
    ) {
        let store = ShardedStore::new(shards);
        let names: Vec<String> = (0..folders)
            .map(|i| format!("tenant-{seed:02x}/folder-{i:03}"))
            .collect();
        for (i, name) in names.iter().enumerate() {
            store.put(name, "obj", Bytes::from(format!("payload-{i}")));
        }
        let owners_before: Vec<usize> =
            names.iter().map(|n| store.shard_index(n)).collect();

        let report = store.resize(shards + 1);
        prop_assert_eq!(report.from, shards);
        prop_assert_eq!(report.to, shards + 1);

        // determinism across processes: a fresh store with the same
        // history routes identically
        let twin = ShardedStore::new(shards);
        twin.resize(shards + 1);
        let mut moved = 0usize;
        for (name, &before) in names.iter().zip(&owners_before) {
            let after = store.shard_index(name);
            prop_assert_eq!(after, twin.shard_index(name));
            if after != before {
                moved += 1;
                // relocated folders move only TO the new shard
                prop_assert_eq!(after, shards);
            }
        }
        prop_assert_eq!(report.relocated, moved);
        // expected fraction 1/(N+1); allow generous sampling noise but
        // reject wholesale reshuffles (modulo routing moves ~N/(N+1))
        let expected = folders as f64 / (shards + 1) as f64;
        prop_assert!(
            (moved as f64) <= 3.0 * expected + 3.0,
            "moved {} of {} folders across {}→{} shards",
            moved, folders, shards, shards + 1
        );
        // zero lost or corrupted objects, moved or not
        for (i, name) in names.iter().enumerate() {
            let (data, _) = store.get(name, "obj").expect("folder survived");
            prop_assert_eq!(data, Bytes::from(format!("payload-{i}")));
        }
    }
}

/// Live migration under concurrent traffic: writers and readers keep
/// running across a 2→5 resize with zero read unavailability; afterwards
/// every object holds its last-written payload on its new owner.
#[test]
fn resize_under_concurrent_traffic_loses_nothing() {
    let store = ShardedStore::new(2);
    let folders: Vec<String> = (0..24).map(|i| format!("live-{i:02}")).collect();
    for f in &folders {
        store.put(f, "obj", Bytes::from_static(b"r0"));
    }
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..3usize {
        let store = store.clone();
        let folders = folders.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                rounds += 1;
                for (i, f) in folders.iter().enumerate() {
                    if i % 3 == w {
                        store.put(f, "obj", Bytes::from(format!("w{w}-r{rounds}")));
                        // reads must never go unavailable mid-migration
                        assert!(store.get(f, "obj").is_some(), "read unavailability");
                    }
                }
            }
            rounds
        }));
    }
    std::thread::sleep(Duration::from_millis(10));
    let report = store.resize(5);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let rounds: Vec<u64> = writers.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(rounds.iter().all(|&r| r > 0));
    assert!(report.relocated > 0, "a 2→5 grow must move something");
    assert_eq!(store.shard_count(), 5);
    // every folder is resident on exactly its (new) owner, holding the
    // last payload its writer put there
    for (i, f) in folders.iter().enumerate() {
        let w = i % 3;
        let expect = Bytes::from(format!("w{w}-r{}", rounds[w]));
        let owner = store.shard_index(f);
        for (j, shard) in store.shards().iter().enumerate() {
            let got = shard.get(f, "obj");
            if j == owner {
                assert_eq!(got.expect("present on owner").0, expect, "folder {f}");
            } else {
                assert!(got.is_none(), "stray copy of {f} on shard {j}");
            }
        }
    }
}

/// A multi-GET during a live 2→5 resize is served whole by the folder's
/// owner of the moment, under the routing read lock: it never reads a
/// folder half-migrated, so every item is present and from one batch,
/// and once the resize is done its clock is the owning shard's.
#[test]
fn multi_get_during_a_live_resize_reads_one_owner_whole() {
    let store = ShardedStore::new(2);
    let folders: Vec<String> = (0..24).map(|i| format!("live-{i:02}")).collect();
    let items: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
    let batch = |round: u64| {
        let payload = Bytes::from(round.to_be_bytes().to_vec());
        items
            .iter()
            .map(move |item| (item.clone(), payload.clone()))
    };
    for f in &folders {
        store.put_many(f, batch(0));
    }
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    // two clients each publish a batch into a folder and read it back
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let (store, folders, items) = (store.clone(), folders.clone(), items.clone());
            let batches: Vec<Vec<_>> = (1..=64).map(|round| batch(round).collect()).collect();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || reads == 0 {
                    let f = &folders[(reads as usize * 7 + c) % folders.len()];
                    store.put_many(f, batches[reads as usize % batches.len()].clone());
                    let (found, _) = store.try_get_many(f, items.clone()).unwrap();
                    let found: Vec<_> =
                        found.into_iter().map(|got| got.expect("present")).collect();
                    assert!(found.iter().all(|got| got == &found[0]), "torn: {found:?}");
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    let report = store.resize(5);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for client in clients {
        assert!(client.join().unwrap() > 0);
    }
    assert!(report.relocated > 0, "a 2→5 grow must move something");
    for f in &folders {
        let owner = &store.shards()[store.shard_index(f)];
        let (_, clock) = store.try_get_many(f, items.clone()).unwrap();
        assert_eq!(clock, owner.version(), "{f}: the owner's clock");
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

/// Conditional batches racing a live resize: two clients each read a
/// folder's three items in one snapshot and write all three back as one
/// conditional batch carrying the snapshot's counter plus one. Across the
/// copy and the cutover every batch lands whole or not at all, and no
/// applied batch is lost on the retired owner: each folder's counter ends
/// equal to the number of batches the store acknowledged for it, on all
/// three items, at one version.
#[test]
fn conditional_batches_across_a_live_resize_are_all_or_nothing() {
    let store = ShardedStore::new(2);
    let folders: Vec<String> = (0..16).map(|i| format!("cas-{i:02}")).collect();
    let items: Vec<String> = ["a", "b", "c"].map(String::from).to_vec();
    let counter = |n: u64| Bytes::from(n.to_be_bytes().to_vec());
    for f in &folders {
        store.put_many(f, items.iter().map(|i| (i.clone(), counter(0))));
    }
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|c| {
            let (store, folders, items) = (store.clone(), folders.clone(), items.clone());
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut applied = vec![0u64; folders.len()];
                let mut round = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || round < 64 {
                    let idx = (round * 5 + c) % folders.len();
                    round += 1;
                    let (found, _) = store.try_get_many(&folders[idx], items.clone()).unwrap();
                    let found: Vec<(Bytes, u64)> =
                        found.into_iter().map(|got| got.expect("present")).collect();
                    assert!(found.iter().all(|(d, _)| *d == found[0].0), "torn");
                    let n = u64::from_be_bytes(found[0].0[..].try_into().unwrap());
                    let writes = items
                        .iter()
                        .zip(&found)
                        .map(|(item, (_, v))| BatchWrite::put_if_version(item, counter(n + 1), *v))
                        .collect();
                    match store.try_write_many(&folders[idx], writes) {
                        Ok(_) => applied[idx] += 1,
                        Err(StoreError::BatchConflict(lost)) => assert!(!lost.is_empty()),
                        Err(e) => panic!("a reliable store failed: {e}"),
                    }
                }
                applied
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    let report = store.resize(5);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut applied = vec![0u64; folders.len()];
    for client in clients {
        for (total, mine) in applied.iter_mut().zip(client.join().unwrap()) {
            *total += mine;
        }
    }
    assert!(report.relocated > 0, "a 2→5 grow must move something");
    assert!(applied.iter().sum::<u64>() > 0);
    for (f, &acked) in folders.iter().zip(&applied) {
        let (found, _) = store.try_get_many(f, items.clone()).unwrap();
        let found: Vec<(Bytes, u64)> = found.into_iter().map(Option::unwrap).collect();
        assert!(
            found.iter().all(|got| *got == found[0]),
            "{f}: one batch's state"
        );
        assert_eq!(
            found[0].0,
            counter(acked),
            "{f}: every acknowledged batch counted once"
        );
    }
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

/// The merged watch cursor sees an atomic `put_many` on one shard as one
/// batch of changes, interleaved with changes on other shards.
#[test]
fn merged_watch_spans_put_many_and_singles() {
    let store = ShardedStore::new(4);
    let mut cursor = store.cursor();
    store.put_many(
        "grp",
        vec![
            ("p0".to_string(), Bytes::from_static(b"a")),
            ("p1".to_string(), Bytes::from_static(b"b")),
        ],
    );
    store.put("other", "x", Bytes::from_static(b"c"));
    let changed = store.watch(&mut cursor, Duration::from_millis(100));
    assert_eq!(
        changed,
        vec![
            ("grp".to_string(), "p0".to_string()),
            ("grp".to_string(), "p1".to_string()),
            ("other".to_string(), "x".to_string()),
        ]
    );
    assert!(store
        .watch(&mut cursor, Duration::from_millis(5))
        .is_empty());
}
