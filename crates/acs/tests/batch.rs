//! Integration tests of the batched admin pipeline: the acceptance
//! criterion (|P| re-keys + one `put_many` round-trip per batch vs k × |P|
//! on the sequential path), client-visible parity with the sequential
//! schedule, several groups in flight on one admin, and coalesced
//! op-logging.

use acs::verilog::log_entry_item;
use acs::{Admin, AdminSigner, Auditor, Client, LogEntry, LogOp};
use cloud_store::{
    CloudStore, MetricsSnapshot, ObjectStore, Request, RequestOp, Response, StoreError, StoreHandle,
};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionSize};
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user-{i}")).collect()
}

/// Two admins over the same deterministic engine seed: same enclave
/// identity, same IBBE master secret — so user keys are interchangeable and
/// the batched vs sequential schedules are directly comparable.
fn seeded_admin(seed: u64, partition: usize, store: CloudStore) -> Admin {
    let mut seed_bytes = [0u8; 32];
    seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
    let engine =
        GroupEngine::bootstrap_seeded(PartitionSize::new(partition).unwrap(), seed_bytes).unwrap();
    Admin::new(engine, store)
}

/// The PR's acceptance criterion: a batch of k removes over a group with
/// |P| surviving partitions performs exactly |P| partition re-keys and
/// exactly one `put_many` store round-trip, where the sequential path pays
/// k × |P| re-keys (plus the k hosts' own refreshes) and k round-trips
/// (each operation one `put_many` of every partition, the sealed gk, and
/// the epoch history).
#[test]
fn k_removes_cost_one_rekey_sweep_and_one_round_trip() {
    let k = 3;
    let store_batch = CloudStore::new();
    let store_seq = CloudStore::new();
    let mut admin_batch = seeded_admin(11, 2, store_batch.clone());
    let mut admin_seq = seeded_admin(11, 2, store_seq.clone());
    admin_batch.set_auto_repartition(false);
    admin_seq.set_auto_repartition(false);

    // 8 members at partition size 2 → |P| = 4; one victim in each of three
    // different partitions, so all four partitions survive.
    admin_batch.create_group("g", names(8)).unwrap();
    admin_seq.create_group("g", names(8)).unwrap();
    let victims = ["user-0", "user-2", "user-4"];

    let base_batch = store_batch.metrics();
    let base_seq = store_seq.metrics();

    // batched path
    let mut batch = admin_batch.begin_batch("g");
    for v in victims {
        batch = batch.remove(v);
    }
    let outcome = batch.commit().unwrap();
    assert!(outcome.gk_rotated);
    assert_eq!(
        outcome.partitions_rekeyed, 4,
        "exactly |P| re-keys for the whole batch"
    );
    let m = store_batch.metrics();
    assert_eq!(
        m.puts_batched - base_batch.puts_batched,
        1,
        "exactly one put_many round-trip publishes the batch"
    );
    assert_eq!(m.puts - base_batch.puts, 0, "no stray single PUTs");
    assert_eq!(
        m.batched_items - base_batch.batched_items,
        6,
        "4 partitions + the sealed gk + the epoch history in the round-trip"
    );

    // sequential path: one full publish per operation
    let mut seq_rekeys = 0;
    for v in victims {
        let out = admin_seq.remove_user("g", v).unwrap();
        // + 1: the host partition's own refresh is not in the counter
        seq_rekeys += out.rekeyed_partitions + 1;
    }
    let m = store_seq.metrics();
    assert_eq!(seq_rekeys, k * 4, "sequential pays k × |P| re-keys");
    assert_eq!(
        m.puts_batched - base_seq.puts_batched,
        k as u64,
        "sequential pays k put_many round-trips, one per operation"
    );
    assert_eq!(
        m.batched_items - base_seq.batched_items,
        (k * (4 + 2)) as u64,
        "each carrying |P| + 2 objects (partitions + sealed gk + epoch history)"
    );
    assert_eq!(m.puts - base_seq.puts, 0);

    // and both schedules end in the same membership
    assert_eq!(
        admin_batch.metadata("g").unwrap().member_count(),
        admin_seq.metadata("g").unwrap().member_count()
    );
}

#[test]
fn client_sync_derives_identical_state_after_batch_as_after_op_sequence() {
    let store_batch = CloudStore::new();
    let store_seq = CloudStore::new();
    let admin_batch = seeded_admin(22, 3, store_batch.clone());
    let admin_seq = seeded_admin(22, 3, store_seq.clone());

    admin_batch.create_group("g", names(7)).unwrap();
    admin_seq.create_group("g", names(7)).unwrap();

    // mixed schedule: two joins, two revocations, one churn (leave + rejoin)
    let ops: &[(&str, bool)] = &[
        ("newbie-0", false),
        ("user-1", true),
        ("newbie-1", false),
        ("user-4", true),
        ("user-5", true),
        ("user-5", false),
    ];
    let mut batch = admin_batch.begin_batch("g");
    for &(user, is_remove) in ops {
        batch = if is_remove {
            batch.remove(user)
        } else {
            batch.add(user)
        };
    }
    batch.commit().unwrap();
    for &(user, is_remove) in ops {
        if is_remove {
            admin_seq.remove_user("g", user).unwrap();
        } else {
            admin_seq.add_user("g", user).unwrap();
        }
    }

    let meta_batch = admin_batch.metadata("g").unwrap();
    let meta_seq = admin_seq.metadata("g").unwrap();
    let members: BTreeSet<String> = meta_batch.members().map(String::from).collect();
    assert_eq!(
        members,
        meta_seq
            .members()
            .map(String::from)
            .collect::<BTreeSet<_>>()
    );

    // every surviving member syncs against the cloud on both deployments
    // and all derive one consistent gk per deployment
    for (admin, store, label) in [
        (&admin_batch, &store_batch, "batched"),
        (&admin_seq, &store_seq, "sequential"),
    ] {
        let mut gks = Vec::new();
        for member in &members {
            let usk = admin.engine().extract_user_key(member).unwrap();
            let mut client = Client::new(
                member.clone(),
                usk,
                admin.engine().public_key().clone(),
                store.clone(),
                "g",
            );
            gks.push(
                client
                    .sync()
                    .unwrap_or_else(|e| panic!("{label}: surviving {member} failed to sync: {e}")),
            );
        }
        assert!(
            gks.windows(2).all(|w| w[0] == w[1]),
            "{label}: all surviving clients must agree on gk"
        );
    }

    // revoked members fail to sync on both deployments
    for victim in ["user-1", "user-4"] {
        for (admin, store) in [(&admin_batch, &store_batch), (&admin_seq, &store_seq)] {
            let usk = admin.engine().extract_user_key(victim).unwrap();
            let mut client = Client::new(
                victim,
                usk,
                admin.engine().public_key().clone(),
                store.clone(),
                "g",
            );
            assert!(client.sync().is_err(), "revoked {victim} must not sync");
        }
    }
}

#[test]
fn client_long_poll_sees_one_coalesced_update_per_batch() {
    let mut r = rng(3);
    let store = CloudStore::new();
    let admin = Admin::new(
        GroupEngine::bootstrap(PartitionSize::new(2).unwrap(), &mut r).unwrap(),
        store.clone(),
    );
    admin.create_group("g", names(4)).unwrap();
    let usk = admin.engine().extract_user_key("user-1").unwrap();
    let mut client = Client::new(
        "user-1",
        usk,
        admin.engine().public_key().clone(),
        store.clone(),
        "g",
    );
    let gk1 = client.sync().unwrap();
    let base = store.metrics().puts_batched;

    let admin_thread = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(30));
        admin
            .begin_batch("g")
            .remove("user-0")
            .remove("user-3")
            .add("late")
            .commit()
            .unwrap();
        admin
    });
    let gk2 = client
        .wait_for_update(std::time::Duration::from_secs(5))
        .unwrap()
        .expect("one coalesced update must wake the poller");
    assert_ne!(gk1, gk2, "a revoking batch rotates gk for survivors");
    let _ = admin_thread.join().unwrap();
    assert_eq!(store.metrics().puts_batched - base, 1);
}

/// Once armed, a store that holds group `a`'s publish (its `put_many`)
/// until group `b`'s has arrived, failing it with [`StoreError::Timeout`]
/// after 2 s; every other request passes straight through.
#[derive(Clone)]
struct RendezvousStore {
    inner: CloudStore,
    armed: Arc<AtomicBool>,
    arrived: Arc<(Mutex<BTreeSet<String>>, Condvar)>,
}

impl RendezvousStore {
    const WAIT: Duration = Duration::from_secs(2);

    fn new(inner: CloudStore) -> Self {
        Self {
            inner,
            armed: Arc::default(),
            arrived: Arc::default(),
        }
    }

    /// Blocks until `group`'s publish has reached the store (bounded).
    fn wait_for(&self, group: &str) -> bool {
        let (arrived, cv) = &*self.arrived;
        let seen = arrived.lock().unwrap();
        let (seen, _) = cv
            .wait_timeout_while(seen, Self::WAIT, |s| !s.contains(group))
            .unwrap();
        seen.contains(group)
    }
}

impl ObjectStore for RendezvousStore {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        if matches!(request.op, RequestOp::PutMany(_)) && self.armed.load(Ordering::SeqCst) {
            let (arrived, cv) = &*self.arrived;
            arrived.lock().unwrap().insert(request.folder.clone());
            cv.notify_all();
            if request.folder == "a" && !self.wait_for("b") {
                return Err(StoreError::Timeout);
            }
        }
        self.inner.call(request)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// One admin keeps two groups' publishes in flight at once: group `a`'s
/// publish is held at the store until group `b`'s arrives, which only
/// happens if `b`'s batch is not queued behind `a`'s round-trip. Waiting,
/// not computing, so one core suffices.
#[test]
fn one_admin_overlaps_two_groups_publishes() {
    let store = RendezvousStore::new(CloudStore::new());
    let admin = Admin::new(
        GroupEngine::bootstrap(PartitionSize::new(2).unwrap(), &mut rng(4)).unwrap(),
        StoreHandle::new(store.clone()),
    );
    for g in ["a", "b"] {
        admin.create_group(g, names(4)).unwrap();
    }
    // a create is a publish too: hold only the batches
    store.armed.store(true, Ordering::SeqCst);
    let mut batch = MembershipBatch::new();
    batch.remove("user-0");
    std::thread::scope(|s| {
        let a = s.spawn(|| admin.apply_batch("a", &batch));
        assert!(store.wait_for("a"), "a's publish never reached the store");
        let b = s.spawn(|| admin.apply_batch("b", &batch));
        assert!(b.join().unwrap().is_ok());
        let a = a.join().unwrap();
        assert!(a.is_ok(), "a's publish must not wait out b's batch: {a:?}");
    });
}

/// Six groups' revoking batches applied from scoped threads on one admin:
/// each lands as if applied alone, and — one master secret — one user key
/// per identity, extracted once, decrypts in every group it belongs to.
#[test]
fn one_admin_applies_many_groups_batches_under_one_master_secret() {
    let store = CloudStore::new();
    let admin = Admin::new(
        GroupEngine::bootstrap(PartitionSize::new(2).unwrap(), &mut rng(4)).unwrap(),
        store.clone(),
    );
    let groups: Vec<String> = (0..6).map(|i| format!("team-{i}")).collect();
    for g in &groups {
        let members = vec![format!("{g}-a"), format!("{g}-b"), "roamer".to_string()];
        admin.create_group(g, members).unwrap();
    }
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .iter()
            .map(|g| {
                let admin = &admin;
                s.spawn(move || {
                    admin
                        .begin_batch(g)
                        .remove(format!("{g}-a"))
                        .add(format!("{g}-new"))
                        .commit()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect()
    });

    let pk = admin.engine().public_key().clone();
    let roamer = admin.engine().extract_user_key("roamer").unwrap();
    for (g, outcome) in groups.iter().zip(&outcomes) {
        assert!(outcome.gk_rotated);
        assert_eq!(outcome.removed, vec![format!("{g}-a")]);
        let meta = admin.metadata(g).unwrap();
        assert_eq!(meta.member_count(), 3);
        assert!(!meta.contains(&format!("{g}-a")));
        let member = format!("{g}-new");
        let usk = admin.engine().extract_user_key(&member).unwrap();
        let gk = Client::new(member, usk, pk.clone(), store.clone(), g.clone())
            .sync()
            .unwrap();
        let mut roaming = Client::new("roamer", roamer, pk.clone(), store.clone(), g.clone());
        assert_eq!(roaming.sync().unwrap(), gk, "{g}: the one roamer key");
    }
}

#[test]
fn rekey_group_publishes_rotation_atomically() {
    let store = CloudStore::new();
    let admin = seeded_admin(33, 2, store.clone());
    admin.create_group("g", names(4)).unwrap(); // 2 partitions
    let usk = admin.engine().extract_user_key("user-1").unwrap();
    let mut client = Client::new(
        "user-1",
        usk,
        admin.engine().public_key().clone(),
        store.clone(),
        "g",
    );
    let gk1 = client.sync().unwrap();
    assert_eq!(client.current_epoch(), Some(1));

    let base = store.metrics();
    admin.rekey_group("g").unwrap();
    let m = store.metrics();
    // one atomic put_many carrying partitions + sealed gk + epoch history —
    // a rotation must never be observable half-published
    assert_eq!(m.puts_batched - base.puts_batched, 1);
    assert_eq!(m.batched_items - base.batched_items, 4);
    assert_eq!(m.puts - base.puts, 0);

    let gk2 = client.sync().unwrap();
    assert_ne!(gk1, gk2, "re-key rotates the group key");
    assert_eq!(client.current_epoch(), Some(2), "re-key advances the epoch");
}

#[test]
fn admin_journals_one_coalesced_entry_per_batch() {
    let mut r = rng(5);
    let signer = AdminSigner::new("ops-admin", &mut r);
    let verifying = signer.verifying_key();
    let admin = Admin::new(
        GroupEngine::bootstrap(PartitionSize::new(3).unwrap(), &mut r).unwrap(),
        CloudStore::new(),
    )
    .with_signer(signer);

    admin.create_group("g", names(4)).unwrap();
    admin
        .begin_batch("g")
        .remove("user-0")
        .remove("user-2")
        .add("new-0")
        .commit()
        .unwrap();
    // a batch that coalesces to nothing is not journaled
    admin
        .begin_batch("g")
        .add("ghost")
        .remove("ghost")
        .commit()
        .unwrap();

    // read the log the way anyone outside the admin must: off the store
    let mut auditor = Auditor::new();
    auditor.register_admin("ops-admin", verifying);
    let report = auditor.audit_group(admin.store(), "g").unwrap();
    assert_eq!(report.head.size, 2, "Create + one coalesced Batch entry");
    assert_eq!(Some(report.head), admin.log_head("g"));
    let (bytes, _) = admin.store().get("g", &log_entry_item(1)).unwrap();
    match LogEntry::from_bytes(&bytes).unwrap().op {
        LogOp::Batch {
            adds,
            removes,
            epoch,
        } => {
            assert_eq!(adds, vec!["new-0".to_string()]);
            assert_eq!(
                removes.into_iter().collect::<BTreeSet<_>>(),
                BTreeSet::from(["user-0".to_string(), "user-2".to_string()])
            );
            assert_eq!(epoch, 2, "the revoking batch advanced epoch 1 → 2");
        }
        other => panic!("expected a Batch entry, got {other:?}"),
    }

    // the replayed log agrees with the live metadata
    let live: BTreeSet<String> = admin
        .metadata("g")
        .unwrap()
        .members()
        .map(String::from)
        .collect();
    assert_eq!(report.membership.into_iter().collect::<BTreeSet<_>>(), live);
}
