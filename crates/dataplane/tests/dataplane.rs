//! Integration tests of the envelope-encrypted data plane: the acceptance
//! criterion (a revoking batch performs zero object re-writes in lazy mode
//! and the sweeper converges every stale object within the configured
//! deadline; eager pays O(n) synchronously), CAS writer safety, long-poll
//! cache invalidation, revoked-reader lockout, and refreshes that read one
//! snapshot.

use acs::Admin;
use cloud_store::{
    Bytes, CloudStore, MetricsSnapshot, ObjectStore, Request, RequestOp, Response, StoreError,
    StoreHandle,
};
use dataplane::{ClientSession, DataError, FleetConfig, SweepConfig, SweepScheduler, SweepTask};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionMetadata, PartitionSize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn seeded_admin(seed: u64, partition: usize, store: CloudStore) -> Admin {
    let mut seed_bytes = [0u8; 32];
    seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
    let engine =
        GroupEngine::bootstrap_seeded(PartitionSize::new(partition).unwrap(), seed_bytes).unwrap();
    Admin::new(engine, store)
}

fn session(
    admin: &Admin,
    store: &CloudStore,
    group: &str,
    identity: &str,
    seed: u64,
) -> ClientSession {
    ClientSession::with_seed(
        identity,
        admin.engine().extract_user_key(identity).unwrap(),
        admin.engine().public_key().clone(),
        store.clone(),
        group,
        seed,
    )
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("u{i}")).collect()
}

/// Builds a deployment with `objects` stored objects written by `writer`
/// and a one-worker sweep fleet whose only task (id 0) is the group's.
fn deployment(seed: u64, objects: usize) -> (Admin, CloudStore, ClientSession, SweepScheduler) {
    let store = CloudStore::new();
    let admin = seeded_admin(seed, 3, store.clone());
    let mut members = names(6);
    members.push("writer".into());
    members.push("sweeper".into());
    admin.create_group("g", members).unwrap();
    let mut writer = session(&admin, &store, "g", "writer", 100 + seed);
    for i in 0..objects {
        writer
            .write(&format!("obj-{i:03}"), format!("payload {i}").as_bytes())
            .unwrap();
    }
    let mut fleet = SweepScheduler::new(FleetConfig {
        workers: 1,
        lease: 4,
        ..FleetConfig::default()
    });
    fleet.register(SweepTask::new(
        vec![session(&admin, &store, "g", "sweeper", 200 + seed)],
        SweepConfig {
            deadline: Duration::from_secs(5),
        },
    ));
    (admin, store, writer, fleet)
}

/// THE acceptance criterion: lazy revocation is O(1) in the number of
/// stored objects — zero object re-writes at revocation time — and the
/// sweeper then converges every stale object to the current epoch within
/// the configured deadline.
#[test]
fn lazy_revocation_rewrites_nothing_and_sweeper_converges_within_deadline() {
    let n = 12;
    let (admin, store, mut writer, mut fleet) = deployment(1, n);
    let before = store.metrics();

    // a lazy revocation: the admin's re-key, then arm the group's task
    let mut batch = MembershipBatch::new();
    batch.remove("u0").remove("u3");
    let outcome = admin.apply_batch("g", &batch).unwrap();
    assert!(outcome.gk_rotated);
    assert_eq!(outcome.epoch, 2);
    fleet.arm(0);

    // zero object re-writes at revocation time: no CAS traffic beyond the
    // initial writes, no sweeper migrations
    let after = store.metrics();
    assert_eq!(
        after.cas_puts - before.cas_puts,
        0,
        "a lazy revoking batch must not touch stored objects"
    );
    assert_eq!(fleet.metrics().total.migrations, 0);
    assert_eq!(writer.metrics().writes as usize, n);

    // every object is still at epoch 1 (stale)
    for i in 0..n {
        let (sealed, _) = writer.fetch(&format!("obj-{i:03}")).unwrap();
        assert_eq!(sealed.epoch, 1);
    }

    // the fleet converges all n objects within the task's deadline, in
    // lease-sized increments
    let run = fleet.converge_all().unwrap();
    let report = run.groups[0].report;
    assert!(report.converged, "sweep must converge: {report:?}");
    assert_eq!(
        run.groups[0].overshoot,
        Duration::ZERO,
        "convergence blew the deadline: {report:?}"
    );
    assert_eq!(report.migrated, n);
    assert_eq!(fleet.metrics().total.migrations as usize, n);
    for i in 0..n {
        let (sealed, _) = writer.fetch(&format!("obj-{i:03}")).unwrap();
        assert_eq!(sealed.epoch, 2, "every object migrated to the new epoch");
    }

    // survivors read everything after migration
    let mut reader = session(&admin, &store, "g", "u1", 9);
    assert_eq!(reader.read("obj-000").unwrap(), b"payload 0");
}

/// An eager revocation pays the O(n) sweep synchronously: the re-key,
/// arm, and one `converge_all` before returning leave nothing stale.
#[test]
fn eager_revocation_sweeps_everything_synchronously() {
    let n = 9;
    let (admin, store, mut writer, mut fleet) = deployment(2, n);
    let mut batch = MembershipBatch::new();
    batch.remove("u2");
    assert!(admin.apply_batch("g", &batch).unwrap().gk_rotated);
    fleet.arm(0);
    let run = fleet.converge_all().unwrap();
    let own = run.group("g").expect("an armed task is reported");
    assert!(own.error.is_none() && own.report.converged, "{own:?}");
    assert_eq!(
        own.report.migrated, n,
        "eager cost is O(n) at revocation time"
    );
    for i in 0..n {
        let (sealed, _) = writer.fetch(&format!("obj-{i:03}")).unwrap();
        assert_eq!(sealed.epoch, 2);
    }
    let _ = store;
}

/// Pure-add batches rotate nothing, so neither sequence touches the data
/// plane: the lazy one arms nothing, and the eager one's `converge_all`
/// finds no armed task.
#[test]
fn additive_batches_trigger_no_sweep_under_either_policy() {
    let (admin, _store, mut writer, mut fleet) = deployment(3, 4);
    let mut batch = MembershipBatch::new();
    batch.add("newcomer");
    let outcome = admin.apply_batch("g", &batch).unwrap();
    assert!(!outcome.gk_rotated, "an additive batch arms nothing");
    assert!(!fleet.is_armed(0));
    let run = fleet.converge_all().unwrap();
    assert!(run.groups.is_empty() && run.total.migrated == 0);
    let (sealed, _) = writer.fetch("obj-000").unwrap();
    assert_eq!(sealed.epoch, 1);
}

/// A write after a rotation lands at the new epoch (the lazy "migrate on
/// next write" path), while untouched objects stay stale until swept.
#[test]
fn writes_after_rotation_reseal_at_the_new_epoch() {
    let (admin, _store, mut writer, mut fleet) = deployment(4, 3);
    let mut batch = MembershipBatch::new();
    batch.remove("u5");
    admin.apply_batch("g", &batch).unwrap();
    fleet.arm(0);

    writer.write("obj-000", b"rewritten").unwrap();
    let (hot, _) = writer.fetch("obj-000").unwrap();
    assert_eq!(hot.epoch, 2, "next write migrates the object");
    let (cold, _) = writer.fetch("obj-001").unwrap();
    assert_eq!(cold.epoch, 1, "cold objects await the sweeper");

    // the migrated-on-write object is skipped by the sweep; the cold ones
    // are picked up
    let report = fleet.converge_all().unwrap().groups[0].report;
    assert!(report.converged);
    assert_eq!(report.migrated, 2);
    assert_eq!(writer.metrics().old_epoch_reads, 0);
    // reading the cold object before... (it is now migrated) — read both
    assert_eq!(writer.read("obj-000").unwrap(), b"rewritten");
    assert_eq!(writer.read("obj-001").unwrap(), b"payload 1");
}

/// The revoked-member lockout ladder: new-epoch objects are unreadable
/// immediately; old-epoch objects remain exposed only until the sweeper
/// migrates them.
#[test]
fn revoked_member_lockout_is_immediate_for_new_data_and_post_sweep_for_old() {
    let (admin, store, mut writer, mut fleet) = deployment(5, 5);
    // the victim syncs a session (and thus a key ring) while still a member
    let mut victim = session(&admin, &store, "g", "u4", 77);
    assert_eq!(victim.read("obj-000").unwrap(), b"payload 0");

    let mut batch = MembershipBatch::new();
    batch.remove("u4");
    admin.apply_batch("g", &batch).unwrap();
    fleet.arm(0);

    // the lazy window: pre-revocation objects are still readable with the
    // victim's cached epoch-1 key
    assert_eq!(victim.read("obj-001").unwrap(), b"payload 1");
    assert_eq!(
        victim.metrics().old_epoch_reads,
        0,
        "ring is frozen at epoch 1"
    );

    // anything written at the new epoch is opaque to the victim, now and
    // forever
    writer.write("fresh", b"post-revocation secret").unwrap();
    assert_eq!(victim.read("fresh"), Err(DataError::UnknownEpoch(2)));

    // the sweeper closes the window: every old object moves to epoch 2
    let report = fleet.converge_all().unwrap().groups[0].report;
    assert!(report.converged);
    for i in 0..5 {
        assert_eq!(
            victim.read(&format!("obj-{i:03}")),
            Err(DataError::UnknownEpoch(2)),
            "migrated object must lock the revoked member out"
        );
    }
    // while a surviving member still reads everything
    let mut survivor = session(&admin, &store, "g", "u1", 78);
    assert_eq!(survivor.read("obj-004").unwrap(), b"payload 4");
    assert_eq!(survivor.read("fresh").unwrap(), b"post-revocation secret");
}

/// Concurrent writers: CAS makes the race safe — one wins, the loser gets
/// `Conflict`, re-reads, and retries cleanly.
#[test]
fn concurrent_writers_are_serialized_by_cas() {
    let store = CloudStore::new();
    let admin = seeded_admin(6, 3, store.clone());
    admin
        .create_group("g", vec!["a".into(), "b".into(), "c".into()])
        .unwrap();
    let mut wa = session(&admin, &store, "g", "a", 1);
    let mut wb = session(&admin, &store, "g", "b", 2);

    wa.write("doc", b"version 1").unwrap();
    // both sessions observe version 1
    wb.read("doc").unwrap();
    wa.write("doc", b"a's version 2").unwrap();
    // b's expectation is stale now
    let err = wb.write("doc", b"b's version 2").unwrap_err();
    assert!(matches!(err, DataError::Conflict(_)), "got {err:?}");
    assert_eq!(wb.metrics().write_conflicts, 1);
    // re-read → adopt the new version → retry succeeds
    assert_eq!(wb.read("doc").unwrap(), b"a's version 2");
    wb.write("doc", b"b's version 3").unwrap();
    assert_eq!(wa.read("doc").unwrap(), b"b's version 3");
    let m = store.metrics();
    assert_eq!(m.cas_conflicts, 1);
    assert_eq!(m.cas_puts, 3, "three successful writes, one rejection");
}

/// The sweeper's CAS loses gracefully to a concurrent writer: the winner
/// already sealed at the current epoch, so convergence still holds.
#[test]
fn sweeper_yields_to_concurrent_writers() {
    let (admin, _store, mut writer, mut fleet) = deployment(7, 2);
    let mut batch = MembershipBatch::new();
    batch.remove("u1");
    admin.apply_batch("g", &batch).unwrap();
    fleet.arm(0);

    // a writer migrates obj-000 (by rewriting it) between the revocation
    // and the sweep
    writer.write("obj-000", b"rewritten concurrently").unwrap();
    let report = fleet.converge_all().unwrap().groups[0].report;
    assert!(report.converged);
    assert_eq!(
        report.migrated, 1,
        "only the cold object needed the sweeper"
    );
    assert_eq!(writer.read("obj-000").unwrap(), b"rewritten concurrently");
}

/// Long-poll cache invalidation: a blocked `watch` wakes on the revocation
/// and rebuilds the ring at the new epoch.
#[test]
fn long_poll_invalidation_rebuilds_the_ring() {
    let (admin, store, _writer, mut fleet) = deployment(8, 2);
    let mut reader = session(&admin, &store, "g", "u2", 11);
    reader.refresh().unwrap();
    assert_eq!(reader.current_epoch(), Some(1));

    let admin_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        let mut batch = MembershipBatch::new();
        batch.remove("u0");
        admin.apply_batch("g", &batch).unwrap();
        fleet.arm(0);
        admin
    });
    let refreshed = reader.watch(Duration::from_secs(5)).unwrap();
    assert!(refreshed, "the rotation must wake the watcher");
    assert_eq!(reader.current_epoch(), Some(2));
    assert_eq!(
        reader.ring_len(),
        2,
        "new ring holds epoch 2 plus retired epoch 1"
    );
    let _ = admin_thread.join().unwrap();
}

/// A background sweeper thread driven purely by `watch` converges the
/// store after a revocation it was not told about.
#[test]
fn watch_driven_sweeper_converges_in_background() {
    let (admin, store, mut writer, mut fleet) = deployment(9, 6);
    // registration pinned the watch cursor before the revocation, so the
    // wake is guaranteed regardless of thread scheduling; an idle sweep
    // finds nothing to do
    fleet.arm(0);
    let idle = fleet.converge_all().unwrap().groups[0].report;
    assert!(idle.converged && idle.stale == 0, "nothing stale yet");
    let handle = std::thread::spawn(move || {
        // one long-poll cycle: wake on the rotation, then converge
        let armed = fleet.watch(Duration::from_secs(5)).unwrap();
        (armed == 1).then(|| fleet.converge_all().unwrap().groups[0].report)
    });
    std::thread::sleep(Duration::from_millis(30));
    // a lazy revocation is pure control plane: the watch loop arms the
    // task itself, so the batch is all the admin does
    let mut batch = MembershipBatch::new();
    batch.remove("u3");
    admin.apply_batch("g", &batch).unwrap();
    let report = handle.join().unwrap().expect("watch saw the rotation");
    assert!(report.converged);
    assert_eq!(report.migrated, 6);
    for i in 0..6 {
        let (sealed, _) = writer.fetch(&format!("obj-{i:03}")).unwrap();
        assert_eq!(sealed.epoch, 2);
    }
    let _ = store;
}

/// Tampered objects fail closed.
#[test]
fn tampered_object_fails_closed() {
    let (_admin, store, mut writer, _fleet) = deployment(10, 1);
    let folder = dataplane::data_folder("g");
    let (bytes, _) = store.get(&folder, "obj-000").unwrap();
    let mut forged = bytes.to_vec();
    let n = forged.len();
    forged[n - 1] ^= 0x01;
    store.put(&folder, "obj-000", forged);
    assert_eq!(writer.read("obj-000"), Err(DataError::AuthFailed));
    // object under a different name: AAD binding rejects a rename
    store.put(&folder, "renamed", bytes);
    assert_eq!(writer.read("renamed"), Err(DataError::AuthFailed));
}

/// A forked op-log fails the data plane closed: the session's freshness
/// check surfaces the verification evidence instead of silently reading
/// (or writing) under state derived from a rewritten history. Only
/// `NotAMember` is ridden out by `maybe_refresh`; evidence is not.
#[test]
fn forked_oplog_fails_the_session_closed() {
    use acs::{AdminSigner, ForkingStore, Tamper};
    use rand::SeedableRng;

    let store = CloudStore::new();
    let mut r = rand::rngs::StdRng::seed_from_u64(11);
    let signer = AdminSigner::new("admin-1", &mut r);
    let admin = seeded_admin(11, 3, store.clone()).with_signer(signer);
    admin.create_group("g", names(4)).unwrap();

    // the reader watches the group through an (initially honest) view the
    // adversary controls; the admin writes to the real store
    let forked = ForkingStore::new(store.clone());
    let mut reader = ClientSession::with_seed(
        "u0",
        admin.engine().extract_user_key("u0").unwrap(),
        admin.engine().public_key().clone(),
        forked.clone(),
        "g",
        311,
    );
    let mut writer = session(&admin, &store, "g", "u1", 312);
    writer.write("obj", b"payload").unwrap();
    assert_eq!(reader.read("obj").unwrap(), b"payload");

    // the group moves on; the view rewrites the history the reader pinned
    admin.add_user("g", "u9").unwrap();
    forked
        .tamper("g", Tamper::RewriteEntry { index: 0 })
        .unwrap();

    let err = reader.read("obj").unwrap_err();
    assert!(
        matches!(&err, DataError::Acs(acs::AcsError::Verify(_))),
        "expected fail-closed verification evidence, got {err:?}"
    );
    assert!(
        !err.is_transient(),
        "evidence must not be retried away like an outage"
    );

    // the attack ends: the honest history checks out and reads resume
    forked.heal("g");
    assert_eq!(reader.read("obj").unwrap(), b"payload");
}

/// A one-shot action and the request count it runs before.
type Hook = (usize, Box<dyn FnOnce() + Send>);

/// A store that runs a one-shot hook just before the `k`-th request it
/// serves after arming, and records the epoch of every partition listing
/// `reader` that its answers carry.
#[derive(Clone)]
struct HookedStore {
    inner: CloudStore,
    reader: String,
    served: Arc<AtomicUsize>,
    hook: Arc<Mutex<Option<Hook>>>,
    read_epochs: Arc<Mutex<Vec<u64>>>,
}

impl HookedStore {
    fn new(inner: CloudStore, reader: &str) -> Self {
        Self {
            inner,
            reader: reader.to_string(),
            served: Arc::default(),
            hook: Arc::default(),
            read_epochs: Arc::default(),
        }
    }

    fn served(&self) -> usize {
        self.served.load(Ordering::SeqCst)
    }

    fn before_request(&self, k: usize, hook: impl FnOnce() + Send + 'static) {
        *self.hook.lock().unwrap() = Some((self.served() + k, Box::new(hook)));
    }

    fn record(&self, item: &str, found: &Option<(Bytes, u64)>) {
        let Some((bytes, _)) = found.as_ref().filter(|_| !item.starts_with('_')) else {
            return;
        };
        if let Some(p) = PartitionMetadata::from_bytes(bytes) {
            if p.members.contains(&self.reader) {
                self.read_epochs.lock().unwrap().push(p.epoch);
            }
        }
    }
}

impl ObjectStore for HookedStore {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        let n = self.served.fetch_add(1, Ordering::SeqCst) + 1;
        let mut hook = self.hook.lock().unwrap();
        if hook.as_ref().is_some_and(|(at, _)| *at == n) {
            let (_, run) = hook.take().expect("checked");
            drop(hook);
            run();
        } else {
            drop(hook);
        }
        let response = self.inner.call(request.clone())?;
        match (&request.op, &response) {
            (RequestOp::Get, Response::Get(found)) => self.record(&request.item, found),
            (RequestOp::GetMany(items), Response::GetMany { items: found, .. }) => {
                for (item, found) in items.iter().zip(found) {
                    self.record(item, found);
                }
            }
            _ => {}
        }
        Ok(response)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// A refresh reads one snapshot: a rotation published between any two of
/// its requests never makes it re-sync, and the ring it builds is at the
/// epoch of the partition it read — cold (no cached partition) and warm.
#[test]
fn a_rotation_between_any_two_requests_of_a_refresh_is_never_torn() {
    let setup = |warm: bool| {
        let store = CloudStore::new();
        let admin = Arc::new(seeded_admin(13, 3, store.clone()));
        let mut members = names(6);
        members.push("reader".into());
        admin.create_group("g", members).unwrap();
        let hooked = HookedStore::new(store, "reader");
        let mut reader = ClientSession::with_seed(
            "reader",
            admin.engine().extract_user_key("reader").unwrap(),
            admin.engine().public_key().clone(),
            StoreHandle::new(hooked.clone()),
            "g",
            13,
        );
        if warm {
            reader.refresh().unwrap();
        }
        (admin, hooked, reader)
    };
    for warm in [false, true] {
        let (_admin, hooked, mut reader) = setup(warm);
        let before = hooked.served();
        reader.refresh().unwrap();
        let one_sync = hooked.served() - before;
        for k in 1..=one_sync {
            let (admin, hooked, mut reader) = setup(warm);
            hooked.before_request(k, move || admin.rekey_group("g").unwrap());
            let before = hooked.served();
            let epoch = reader
                .refresh()
                .unwrap_or_else(|e| panic!("warm {warm}, rotation before request {k}: {e:?}"));
            let read = hooked.read_epochs.lock().unwrap().last().copied();
            assert_eq!(
                Some(epoch),
                read,
                "warm {warm}, rotation before request {k}: ring vs partition read"
            );
            assert_eq!(
                hooked.served() - before,
                one_sync,
                "warm {warm}, rotation before request {k}: one sync's requests"
            );
        }
    }
}
