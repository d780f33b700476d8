//! One conformance suite for the store surface: the request is the
//! interface, so every way of reaching a store — the typed `try_*` verbs,
//! the infallible ride-out verbs, [`ObjectStore::call`] and
//! [`ObjectStore::submit`] — must be the same store.
//!
//! * one scripted sequence covering all ten operations runs against every
//!   store shape (single, 1 and 4 shards) under every wrapper (bare, a
//!   quiet [`FaultyStore`], a [`StoreHandle`] over each), driven each way,
//!   and yields identical responses and identical metrics deltas;
//! * blocking calls are served on the caller's thread and never on a
//!   submit lane, while a submission does hop (observed through the
//!   `store.*` spans' thread ids — no sleeps);
//! * a seeded fault schedule fires at the same positions with the same
//!   [`FaultStats`] whichever way the requests arrive.

use cloud_store::{
    BatchWrite, Bytes, CloudStore, FaultConfig, FaultStats, FaultyStore, MetricsSnapshot,
    ObjectStore, Request, RequestOp, Response, ShardedStore, StoreError, StoreHandle,
};
use std::sync::Arc;
use std::time::Duration;

type Outcome = Result<Response, StoreError>;

/// The ways of handing a store a request.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// The fallible typed verbs.
    TryVerbs,
    /// The infallible typed verbs (one attempt on a store that never
    /// fails transiently; a lost CAS is folded back into the error).
    RideOutVerbs,
    /// The blocking primitive.
    Call,
    /// The queued path, waited on.
    Submit,
}

const BLOCKING: [Drive; 3] = [Drive::TryVerbs, Drive::RideOutVerbs, Drive::Call];
const ALL: [Drive; 4] = [
    Drive::TryVerbs,
    Drive::RideOutVerbs,
    Drive::Call,
    Drive::Submit,
];

/// Serves `request` on `store` the given way. The typed arms are the
/// suite's own statement of which verb answers which request, in which
/// response shape.
fn drive<S: ObjectStore>(store: &S, how: Drive, request: Request) -> Outcome {
    let try_verbs = match how {
        Drive::Call => return store.call(request),
        Drive::Submit => return store.submit(request).wait(),
        Drive::TryVerbs => true,
        Drive::RideOutVerbs => false,
    };
    let Request {
        folder: f,
        item: i,
        op,
        ..
    } = request;
    let put = |version| Response::Put { version };
    let many = |(items, version)| Response::GetMany { items, version };
    match (op, try_verbs) {
        // `put_many` writes only unconditional stores: a batch carrying
        // deletes or expectations is `try_write_many`'s, and has no
        // ride-out verb
        (RequestOp::PutMany(items), true) if !only_stores(&items) => {
            store.try_write_many(&f, items).map(put)
        }
        (RequestOp::PutMany(items), false) if !only_stores(&items) => {
            store.call(Request::write_many(f, items))
        }
        (RequestOp::Put(data), true) => store.try_put(&f, &i, data).map(put),
        (RequestOp::Put(data), false) => Ok(put(store.put(&f, &i, data))),
        (RequestOp::PutIfVersion { data, expected }, true) => {
            store.try_put_if_version(&f, &i, data, expected).map(put)
        }
        (RequestOp::PutIfVersion { data, expected }, false) => store
            .put_if_version(&f, &i, data, expected)
            .map(put)
            .map_err(StoreError::Conflict),
        (RequestOp::PutMany(items), true) => store.try_put_many(&f, stores(items)).map(put),
        (RequestOp::PutMany(items), false) => Ok(put(store.put_many(&f, stores(items)))),
        (RequestOp::GetMany(items), _) => store.try_get_many(&f, items).map(many),
        (RequestOp::Get, true) => store.try_get(&f, &i).map(Response::Get),
        (RequestOp::Get, false) => Ok(Response::Get(store.get(&f, &i))),
        (RequestOp::Delete, true) => store.try_delete(&f, &i).map(Response::Delete),
        (RequestOp::Delete, false) => Ok(Response::Delete(store.delete(&f, &i))),
        (RequestOp::List, true) => store.try_list(&f).map(Response::Names),
        (RequestOp::List, false) => Ok(Response::Names(store.list(&f))),
        (RequestOp::ListFolders, true) => store.try_list_folders().map(Response::Names),
        (RequestOp::ListFolders, false) => Ok(Response::Names(store.list_folders())),
        (RequestOp::FolderVersion, true) => store.try_folder_version(&f).map(Response::Version),
        (RequestOp::FolderVersion, false) => Ok(Response::Version(store.folder_version(&f))),
        (RequestOp::LongPoll { since, timeout }, true) => {
            store.try_long_poll(&f, since, timeout).map(Response::Poll)
        }
        (RequestOp::LongPoll { since, timeout }, false) => {
            Ok(Response::Poll(store.long_poll(&f, since, timeout)))
        }
    }
}

/// True when every item of a batch is an unconditional store.
fn only_stores(items: &[BatchWrite]) -> bool {
    items
        .iter()
        .all(|w| w.data.is_some() && !w.is_conditional())
}

/// A batch's stores, unwrapped for the typed verbs.
fn stores(items: Vec<BatchWrite>) -> Vec<(String, Bytes)> {
    let unwrap = |w: BatchWrite| (w.item, w.data.expect("no deletes"));
    items.into_iter().map(unwrap).collect()
}

/// The version an outcome carries, if it is version-shaped.
fn version_of(outcome: &Outcome) -> Option<u64> {
    match outcome {
        Ok(Response::Put { version } | Response::Version(version)) => Some(*version),
        _ => None,
    }
}

/// All ten operations against a fresh store, later requests built from
/// earlier answers (CAS expectations, poll cursors). Returns every outcome
/// in order plus the store's counters — on a fresh store, the delta the
/// script caused.
fn run_script<S: ObjectStore>(store: &S, how: Drive) -> (Vec<Outcome>, MetricsSnapshot) {
    let mut log: Vec<Outcome> = Vec::new();
    let mut step = |request: Request| {
        log.push(drive(store, how, request));
        version_of(log.last().expect("just pushed"))
    };
    let v1 = step(Request::put("g", "a", &b"one"[..])).expect("a PUT version");
    let v2 = step(Request::put_if_version("g", "a", &b"two"[..], v1)).expect("a CAS version");
    // a stale expectation loses and reports the true version
    step(Request::put_if_version("g", "a", &b"stale"[..], v1));
    step(Request::put_if_version("g", "fresh", &b"new"[..], 0));
    let items = vec![
        ("b".to_string(), &b"bee"[..]),
        ("c".to_string(), &b"sea"[..]),
    ];
    step(Request::put_many("g", items));
    step(Request::put_many("g", Vec::<(String, Vec<u8>)>::new()));
    // one batch storing and deleting, read back in one snapshot
    step(Request::write_many(
        "g",
        vec![BatchWrite::put("d", &b"dee"[..]), BatchWrite::delete("c")],
    ));
    let names = |items: &[&str]| items.iter().map(|i| i.to_string()).collect();
    step(Request::get_many("g", names(&["a", "c", "d", "missing"])));
    step(Request::get_many("nowhere", names(&["a"])));
    step(Request::get("g", "a"));
    step(Request::get("g", "missing"));
    step(Request::get("nowhere", "a"));
    step(Request::list("g"));
    step(Request::list("nowhere"));
    // more folders, so a sharded store answers from several shards
    for folder in ["h", "i", "j", "k"] {
        step(Request::put(folder, "x", folder.as_bytes().to_vec()));
    }
    step(Request::list_folders());
    // a deletes-only batch that empties its folder drops it
    step(Request::write_many("k", vec![BatchWrite::delete("x")]));
    step(Request::list_folders());
    // a conditional batch mixing expectations with an unconditional
    // store lands whole; a stale one is rejected whole, naming its losers
    step(Request::write_many(
        "g",
        vec![
            BatchWrite::put_if_version("a", &b"three"[..], v2),
            BatchWrite::put_if_version("e", &b"eee"[..], 0),
            BatchWrite::put("h", &b"aitch"[..]),
        ],
    ));
    step(Request::write_many(
        "g",
        vec![
            BatchWrite::put_if_version("a", &b"lost"[..], v2),
            BatchWrite::put("f", &b"never"[..]),
            BatchWrite::put_if_version("e", &b"lost"[..], 0),
        ],
    ));
    let cursor = step(Request::folder_version("g")).expect("a clock reading");
    step(Request::long_poll("g", 0, Duration::ZERO));
    step(Request::long_poll("g", v2, Duration::ZERO));
    step(Request::long_poll("g", cursor, Duration::ZERO));
    step(Request::delete("g", "b"));
    step(Request::delete("g", "b"));
    step(Request::list("g"));
    (log, store.metrics())
}

/// Runs the script every way against fresh stores of one shape under every
/// wrapper; all of it must equal the bare store driven through `call`.
fn conforms<S: ObjectStore + 'static>(shape: &str, fresh: impl Fn() -> S) {
    let reference = run_script(&fresh(), Drive::Call);
    let (outcomes, metrics) = &reference;
    assert!(
        matches!(outcomes[2], Err(StoreError::Conflict(c)) if Some(c.current) == version_of(&outcomes[1])),
        "{shape}: the stale CAS must lose against the true version"
    );
    assert_eq!(metrics.cas_conflicts, 2, "{shape}");
    // 5 PUTs, 2 CAS wins + 1 loss, 4 applied batches + 1 rejected, 1 GET
    // and 1 multi-GET hit, 2 DELETEs, 3 polls; listings, misses and the
    // empty batch are not counted
    assert_eq!(metrics.requests(), 20, "{shape}");
    let rejected = outcomes
        .iter()
        .position(|o| matches!(o, Err(StoreError::BatchConflict(_))))
        .expect("the stale batch is rejected");
    let applied = version_of(&outcomes[rejected - 1]).expect("the conditional batch landed");
    assert_eq!(
        outcomes[rejected],
        Err(StoreError::BatchConflict(vec![
            ("a".to_string(), applied),
            ("e".to_string(), applied)
        ])),
        "{shape}: the stale batch names both losers at their current versions"
    );
    assert!(
        matches!(&outcomes[7], Ok(Response::GetMany { items, .. })
            if items[0].is_some() && items[1].is_none() && items[3].is_none()),
        "{shape}: the multi-GET sees the batch's store and delete"
    );
    for how in ALL {
        let quiet = || FaultyStore::new(fresh(), FaultConfig::default());
        assert_eq!(run_script(&fresh(), how), reference, "{shape} bare {how:?}");
        assert_eq!(
            run_script(&quiet(), how),
            reference,
            "{shape} faulty {how:?}"
        );
        assert_eq!(
            run_script(&StoreHandle::new(fresh()), how),
            reference,
            "{shape} handle {how:?}"
        );
        assert_eq!(
            run_script(&StoreHandle::from(quiet()), how),
            reference,
            "{shape} handle-over-faulty {how:?}"
        );
    }
}

#[test]
fn every_way_of_calling_every_store_is_the_same_store() {
    conforms("single", CloudStore::new);
    conforms("1 shard", || ShardedStore::new(1));
    conforms("4 shards", || ShardedStore::new(4));
}

/// The single-object and poll operations (the ones that open a `store.*`
/// span) against one folder; returns the telemetry thread ids that served
/// them and how many of them ran on a submit lane.
fn serving_threads<S: ObjectStore>(
    store: &S,
    how: Drive,
    collector: &telemetry::Collector,
) -> (Vec<u64>, usize) {
    let scope = telemetry::request_scope();
    let v = version_of(&drive(store, how, Request::put("probe", "a", &b"x"[..])))
        .expect("a PUT version");
    for request in [
        Request::put_if_version("probe", "a", &b"y"[..], v),
        Request::put_many("probe", vec![("b".to_string(), &b"z"[..])]),
        Request::get("probe", "a"),
        Request::get_many("probe", vec!["a".to_string(), "b".to_string()]),
        Request::long_poll("probe", 0, Duration::ZERO),
        Request::delete("probe", "a"),
    ] {
        drive(store, how, request).expect("a reliable store");
    }
    // spans close before a ticket completes, so everything is collected
    let mine: Vec<_> = collector
        .spans()
        .into_iter()
        .filter(|s| s.rid == scope.id())
        .collect();
    let served = mine
        .iter()
        .filter(|s| s.name.starts_with("store.") && s.name != "store.lane")
        .map(|s| s.tid)
        .collect();
    let lanes = mine.iter().filter(|s| s.name == "store.lane").count();
    (served, lanes)
}

#[test]
fn blocking_calls_stay_on_the_callers_thread_and_submissions_hop() {
    let collector = Arc::new(telemetry::Collector::new());
    let _installed = telemetry::install(collector.clone());
    let here = {
        let _scope = telemetry::request_scope();
        let rid = telemetry::current_request_id();
        drop(telemetry::span("probe.caller").enter());
        let spans = collector.spans();
        let marker = spans.iter().find(|s| s.rid == rid).expect("marker span");
        marker.tid
    };
    let check = |shape: &str, store: &dyn Fn() -> StoreHandle| {
        for how in BLOCKING {
            let (served, lanes) = serving_threads(&store(), how, &collector);
            assert_eq!(served, vec![here; 7], "{shape} {how:?}: served elsewhere");
            assert_eq!(lanes, 0, "{shape} {how:?}: a blocking call used a lane");
        }
        let (served, lanes) = serving_threads(&store(), Drive::Submit, &collector);
        assert_eq!(served.len(), 7, "{shape} submit");
        assert!(
            served.iter().all(|tid| *tid != here),
            "{shape}: submissions must be served on a lane, not the caller"
        );
        assert_eq!(lanes, 7, "{shape}: one lane span per submission");
    };
    check("single", &|| CloudStore::new().into());
    check("4 shards", &|| ShardedStore::new(4).into());
    check("faulty over 4 shards", &|| {
        FaultyStore::new(ShardedStore::new(4), FaultConfig::default()).into()
    });
}

/// A fixed request sequence (position `i` never depends on an earlier
/// answer) under a wall-clock-free schedule: timeouts, CAS storms, torn
/// polls, and outages whose window outlasts the test.
fn faulted_run(seed: u64, how: Drive) -> (Vec<Outcome>, FaultStats, MetricsSnapshot) {
    let config = FaultConfig {
        seed,
        domains: 3,
        timeout_prob: 0.15,
        outage_prob: 0.01,
        outage: Duration::from_secs(3600),
        torn_poll_prob: 0.3,
        cas_storm_prob: 0.3,
    };
    let store = FaultyStore::new(ShardedStore::new(3), config);
    let outcomes = (0..300u64)
        .map(|i| {
            let folder = format!("f{}", i % 5);
            let request = match i % 7 {
                0 => Request::put(folder, "a", i.to_le_bytes().to_vec()),
                1 => Request::put_if_version(folder, "b", &b"cas"[..], 0),
                2 => Request::get(folder, "a"),
                3 => Request::long_poll(folder, 0, Duration::ZERO),
                4 => Request::list(folder),
                5 => Request::write_many(
                    folder,
                    vec![
                        BatchWrite::put_if_version("c", &b"cas"[..], 0),
                        BatchWrite::put("d", &b"d"[..]),
                    ],
                ),
                _ => Request::delete(folder, "b"),
            };
            drive(&store, how, request)
        })
        .collect();
    (outcomes, store.injector().stats(), store.metrics())
}

#[test]
fn a_seeded_schedule_fires_identically_through_call_and_submit() {
    let reference = faulted_run(42, Drive::Call);
    let (outcomes, stats, _) = &reference;
    assert_eq!(stats.requests, 300);
    assert!(stats.timeouts > 0 && stats.torn_polls > 0 && stats.cas_conflicts > 0);
    assert!(stats.outages > 0 && stats.unavailable > 0);
    assert!(outcomes.iter().any(Result::is_ok));
    // inject-before-effect: the inner store served exactly the requests
    // the schedule let through, so the whole run — failing positions,
    // answers, stats, inner metrics — is a function of (seed, script)
    assert_eq!(faulted_run(42, Drive::Submit), reference);
    assert_eq!(faulted_run(42, Drive::TryVerbs), reference);
    assert_ne!(faulted_run(43, Drive::Call).0, reference.0);
}
