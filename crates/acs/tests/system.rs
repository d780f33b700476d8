//! End-to-end system tests: trust establishment, provisioning, cloud
//! propagation of membership changes, client long polling, and the
//! honest-but-curious observability properties of §II.

use acs::{bootstrap_admin, provisioning, AcsError, Client, HeAdmin};
use cloud_store::{
    CloudStore, FaultConfig, FaultyStore, MetricsSnapshot, ObjectStore, Request, RequestOp,
    Response, StoreError, StoreHandle,
};
use ibbe_sgx_core::{PartitionMetadata, PartitionSize};
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user-{i}")).collect()
}

#[test]
fn full_lifecycle_with_attested_provisioning() {
    let mut r = rng(1);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(3).unwrap(), store.clone(), &mut r).unwrap();

    // Fig. 3 flow
    let (trust, cert) = provisioning::establish_trust(admin.engine(), &mut r).unwrap();
    let ca = trust.auditor.ca_verifying_key();
    let usk_alice =
        provisioning::provision_user(admin.engine(), &cert, &ca, "alice", &mut r).unwrap();

    // group with alice + 4 others
    let mut members = names(4);
    members.push("alice".into());
    admin.create_group("proj", members).unwrap();

    let mut alice = Client::new(
        "alice",
        usk_alice,
        admin.engine().public_key().clone(),
        store.clone(),
        "proj",
    );
    let gk1 = alice.sync().unwrap();

    // all members agree on gk
    let usk_u0 =
        provisioning::provision_user(admin.engine(), &cert, &ca, "user-0", &mut r).unwrap();
    let mut u0 = Client::new(
        "user-0",
        usk_u0,
        admin.engine().public_key().clone(),
        store.clone(),
        "proj",
    );
    assert_eq!(u0.sync().unwrap(), gk1);

    // revocation propagates: alice is removed, user-0 sees a NEW key
    admin.remove_user("proj", "alice").unwrap();
    let gk2 = u0.sync().unwrap();
    assert_ne!(gk1, gk2);
    assert_eq!(
        alice.sync().unwrap_err(),
        AcsError::NotAMember("alice".into())
    );
}

/// Re-creating a live group must not roll its epoch back: that would
/// leave the first incarnation's partitions on the store for members the
/// new roster lacks. The admin refuses the name; the roster is changed by
/// membership operations, after which a dropped member is out.
#[test]
fn recreating_a_live_group_is_refused() {
    let mut r = rng(9);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
    let old: Vec<String> = (0..4).map(|i| format!("old-{i}")).collect();
    let new = vec!["new-0".to_string(), "new-1".to_string()];
    admin.create_group("g", old.clone()).unwrap();
    admin.remove_user("g", "old-0").unwrap();
    assert_eq!(admin.metadata("g").unwrap().epoch, 2);

    assert_eq!(
        admin.create_group("g", new.clone()),
        Err(AcsError::GroupExists("g".into()))
    );
    assert_eq!(admin.metadata("g").unwrap().epoch, 2, "no epoch rollback");
    let client = |id: &str| {
        let usk = admin.engine().extract_user_key(id).unwrap();
        let pk = admin.engine().public_key().clone();
        Client::new(id, usk, pk, store.clone(), "g")
    };
    assert_eq!(
        client("old-0").sync().unwrap_err(),
        AcsError::NotAMember("old-0".into())
    );

    let mut batch = admin.begin_batch("g");
    for id in &old[1..] {
        batch = batch.remove(id.clone());
    }
    for id in &new {
        batch = batch.add(id.clone());
    }
    batch.commit().unwrap();
    assert_eq!(
        client("old-3").sync().unwrap_err(),
        AcsError::NotAMember("old-3".into())
    );
    client("new-0").sync().unwrap();
}

/// Two concurrent creates of one name: exactly one wins.
#[test]
fn concurrent_creates_of_one_name_admit_one() {
    let mut r = rng(10);
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), CloudStore::new(), &mut r).unwrap();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| admin.create_group("g", names(3))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 1);
    assert!(results.contains(&Err(AcsError::GroupExists("g".into()))));
}

/// A create that fails at the store releases the name: the group is
/// created again once the store recovers.
#[test]
fn create_failed_at_the_store_can_be_retried() {
    let mut r = rng(11);
    let faulty = FaultyStore::new(CloudStore::new(), FaultConfig::default());
    let injector = faulty.injector().clone();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), faulty, &mut r).unwrap();
    injector.force_outage(0, Duration::from_secs(60));
    let err = admin.create_group("g", names(3)).unwrap_err();
    assert!(err.is_transient(), "{err:?}");
    assert_eq!(
        admin.member_count("g"),
        Err(AcsError::UnknownGroup("g".into()))
    );
    injector.heal();
    admin.create_group("g", names(3)).unwrap();
    assert_eq!(admin.member_count("g"), Ok(3));
}

#[test]
fn client_long_poll_sees_membership_change() {
    let mut r = rng(2);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
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

    // background admin revokes someone from ANOTHER partition; all wrapped
    // keys rotate, so the client must observe a new gk.
    let store2 = store.clone();
    let handle = std::thread::spawn(move || {
        // the client below is already polling when this PUT lands
        std::thread::sleep(Duration::from_millis(50));
        let _ = store2; // (admin uses its own handle)
    });
    let admin_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        admin.remove_user("g", "user-3").unwrap();
        admin
    });
    let update = client.wait_for_update(Duration::from_secs(5)).unwrap();
    let gk2 = update.expect("long poll must not time out");
    assert_ne!(gk1, gk2);
    handle.join().unwrap();
    let _ = admin_thread.join().unwrap();
}

#[test]
fn add_user_does_not_rotate_gk_for_existing_members() {
    let mut r = rng(3);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
    admin.create_group("g", names(2)).unwrap();

    let usk = admin.engine().extract_user_key("user-0").unwrap();
    let mut c = Client::new(
        "user-0",
        usk,
        admin.engine().public_key().clone(),
        store.clone(),
        "g",
    );
    let gk1 = c.sync().unwrap();
    admin.add_user("g", "newbie").unwrap(); // lands in a new partition
    let gk2 = c.sync().unwrap();
    assert_eq!(gk1, gk2, "adds must not rotate the group key");

    // and the newcomer derives the same key
    let usk_new = admin.engine().extract_user_key("newbie").unwrap();
    let mut cn = Client::new(
        "newbie",
        usk_new,
        admin.engine().public_key().clone(),
        store,
        "g",
    );
    assert_eq!(cn.sync().unwrap(), gk1);
}

#[test]
fn cloud_stores_only_public_material() {
    // What the honest-but-curious cloud sees must not contain gk: check that
    // no stored object embeds the group key bytes.
    let mut r = rng(4);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
    admin.create_group("g", names(4)).unwrap();

    let usk = admin.engine().extract_user_key("user-0").unwrap();
    let mut c = Client::new(
        "user-0",
        usk,
        admin.engine().public_key().clone(),
        store.clone(),
        "g",
    );
    let gk = c.sync().unwrap();
    for item in store.list("g") {
        let (bytes, _) = store.get("g", &item).unwrap();
        assert!(
            !bytes
                .windows(gk.as_bytes().len())
                .any(|w| w == gk.as_bytes()),
            "cloud object {item} leaks gk"
        );
    }
}

#[test]
fn rogue_enclave_cannot_get_certified() {
    let mut r = rng(5);
    let store = CloudStore::new();
    let genuine = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
    let (trust, _cert) = provisioning::establish_trust(genuine.engine(), &mut r).unwrap();

    // A second engine with a *different* (unexpected) enclave identity
    // cannot be audited by this deployment's auditor: simulate by quoting a
    // wrong measurement.
    let quote = trust.platform.quote(
        sgx_sim::Measurement::of(b"definitely-not-the-reviewed-enclave"),
        sgx_sim::report_data_for_key(&genuine.engine().channel_public_key().to_bytes()),
    );
    let res = trust
        .auditor
        .audit(&trust.ias, &quote, &genuine.engine().channel_public_key());
    assert_eq!(res.unwrap_err(), sgx_sim::SgxError::MeasurementMismatch);
}

#[test]
fn he_system_parity() {
    // The HE comparison system must provide the same functional behaviour
    // (create/add/remove/decrypt via cloud) with linear metadata.
    let mut r = rng(6);
    let store = CloudStore::new();
    let mut admin = HeAdmin::new(store.clone());
    let members = names(4);
    let keys: Vec<he::PkiKeyPair> = members
        .iter()
        .map(|m| {
            let kp = he::PkiKeyPair::generate(&mut r);
            admin.register_user(m, &kp);
            kp
        })
        .collect();
    admin.create_group("g", &members);

    let meta = admin.fetch_metadata("g").unwrap();
    let gk1 = admin
        .manager()
        .decrypt(&members[0], &keys[0], &meta)
        .unwrap();

    admin.remove_user("g", &members[1]).unwrap();
    let meta2 = admin.fetch_metadata("g").unwrap();
    assert!(admin
        .manager()
        .decrypt(&members[1], &keys[1], &meta2)
        .is_none());
    let gk2 = admin
        .manager()
        .decrypt(&members[0], &keys[0], &meta2)
        .unwrap();
    assert_ne!(gk1, gk2);

    // linear metadata growth on the cloud
    assert!(admin.metadata_size("g").unwrap() > 3 * he::pki::ENVELOPE_OVERHEAD);
}

#[test]
fn metadata_traffic_is_constant_per_partition_for_ibbe() {
    // Storage-side check of the paper's footprint claim: pushing a
    // 9-member group at partition size 3 costs 3 partition objects whose
    // combined size is independent of how many members each holds beyond
    // the identity strings.
    let mut r = rng(7);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(3).unwrap(), store.clone(), &mut r).unwrap();
    admin.create_group("g", names(9)).unwrap();
    let meta = admin.metadata("g").unwrap();
    assert_eq!(meta.partition_count(), 3);
    // crypto payload: exactly partitions × (ciphertext + wrapped key)
    let per = meta.partitions[0].crypto_size_bytes();
    assert_eq!(meta.crypto_size_bytes(), 3 * per);
}

/// A store that fails one write request (PUT, multi-write or DELETE) —
/// the `n`-th after [`FailingWrites::fail_write`] — with a timeout, before
/// it takes effect; reads and every other write pass through.
#[derive(Clone, Default)]
struct FailingWrites {
    inner: CloudStore,
    /// Writes left until the failing one; `0` = disarmed.
    countdown: Arc<AtomicUsize>,
}

impl FailingWrites {
    fn fail_write(&self, n: usize) {
        self.countdown.store(n, Ordering::SeqCst);
    }

    /// The epochs of the partition objects the store holds for `group`.
    fn partition_epochs(&self, group: &str) -> Vec<u64> {
        let items = self.inner.list(group);
        let partitions = items.iter().filter(|item| !item.starts_with('_'));
        partitions
            .map(|item| {
                let (bytes, _) = self.inner.get(group, item).expect("listed");
                PartitionMetadata::from_bytes(&bytes)
                    .expect("a partition")
                    .epoch
            })
            .collect()
    }
}

impl ObjectStore for FailingWrites {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        let write = matches!(
            request.op,
            RequestOp::Put(_) | RequestOp::PutMany(_) | RequestOp::Delete
        );
        let count = |n: usize| n.checked_sub(1);
        if write
            && self
                .countdown
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, count)
                == Ok(1)
        {
            return Err(StoreError::Timeout);
        }
        self.inner.call(request)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// A create that fails at any of its writes releases the name and leaves
/// nothing behind: once the group is created again with another roster, a
/// member of the failed roster only is not a member.
#[test]
fn a_create_failed_midway_leaves_no_member_of_its_roster_behind() {
    let mut failed = 0;
    for n in 1..=8 {
        let store = FailingWrites::default();
        let admin = bootstrap_admin(
            PartitionSize::new(2).unwrap(),
            StoreHandle::new(store.clone()),
            &mut rng(12),
        )
        .unwrap();
        let old = (0..10).map(|i| format!("old-{i}")).collect();
        store.fail_write(n);
        let Err(err) = admin.create_group("g", old) else {
            continue;
        };
        failed += 1;
        assert_eq!(err, AcsError::Store(StoreError::Timeout), "write {n}");
        admin
            .create_group("g", vec!["new-0".to_string(), "new-1".to_string()])
            .unwrap();
        let client = |id: &str| {
            let usk = admin.engine().extract_user_key(id).unwrap();
            let pk = admin.engine().public_key().clone();
            Client::new(id, usk, pk, StoreHandle::new(store.clone()), "g")
        };
        assert_eq!(
            client("old-7").sync(),
            Err(AcsError::NotAMember("old-7".into())),
            "create failed at write {n}"
        );
        client("new-0").sync().unwrap();
    }
    assert!(failed > 0, "some write of the create must have failed");
}

/// A remove that fails at any of its writes leaves the store at one epoch:
/// never some partitions re-keyed and the others not.
#[test]
fn a_remove_failed_midway_leaves_one_epoch_in_the_store() {
    let mut failed = 0;
    for n in 1..=8 {
        let store = FailingWrites::default();
        let mut admin = bootstrap_admin(
            PartitionSize::new(2).unwrap(),
            StoreHandle::new(store.clone()),
            &mut rng(13),
        )
        .unwrap();
        admin.set_auto_repartition(false);
        admin.create_group("g", names(8)).unwrap();
        store.fail_write(n);
        let result = admin.remove_user("g", "user-0");
        failed += usize::from(result.is_err());
        let epochs = store.partition_epochs("g");
        assert_eq!(epochs.len(), 4);
        assert!(
            epochs.iter().all(|&e| e == epochs[0]),
            "remove failed at write {n} ({result:?}): partition epochs {epochs:?}"
        );
    }
    assert!(failed > 0, "some write of the remove must have failed");
}

/// Serves every partition object a multi-GET returns with its last byte
/// (inside the wrapped `gk`'s tag) flipped, passing all else through.
struct TamperedPartitions {
    inner: StoreHandle,
}

impl ObjectStore for TamperedPartitions {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        let RequestOp::GetMany(names) = &request.op else {
            return self.inner.call(request);
        };
        let names = names.clone();
        let Response::GetMany { items, version } = self.inner.call(request)? else {
            unreachable!("a multi-GET answers with items");
        };
        let items = names.iter().zip(items).map(|(name, got)| match got {
            Some((bytes, v)) if !name.starts_with('_') => {
                let mut bytes = bytes.to_vec();
                *bytes.last_mut().expect("a partition object is not empty") ^= 1;
                Some((bytes.into(), v))
            }
            other => other,
        });
        Ok(Response::GetMany {
            items: items.collect(),
            version,
        })
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

/// Clients of one identity that share their derivations decrypt each
/// partition they both read once between them; a lone client of the same
/// identity decrypts on its own, and a sharing client whose view serves a
/// tampered partition fails as a lone client on that view does, without
/// adopting the key its sibling derived.
#[test]
fn shared_derivations_decrypt_once_and_only_for_an_equal_partition() {
    let mut r = rng(9);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
    admin.create_group("g", names(4)).unwrap();
    let client = |store: StoreHandle| {
        let usk = admin.engine().extract_user_key("user-1").unwrap();
        Client::new(
            "user-1",
            usk,
            admin.engine().public_key().clone(),
            store,
            "g",
        )
    };
    let honest = StoreHandle::from(store.clone());
    let (mut a, mut b, mut lone) = (
        client(honest.clone()),
        client(honest.clone()),
        client(honest),
    );
    b.share_derivations_with(&a);

    let gk = a.sync().unwrap();
    assert_eq!(b.sync().unwrap(), gk);
    assert_eq!((a.derivations(), b.derivations()), (1, 0));

    // a rotation is decrypted by whichever sharing client syncs first
    admin.remove_user("g", "user-3").unwrap();
    let rotated = b.sync().unwrap();
    assert_ne!(rotated, gk);
    assert_eq!(a.sync().unwrap(), rotated);
    assert_eq!((a.derivations(), b.derivations()), (1, 1));
    assert_eq!(lone.sync().unwrap(), rotated);
    assert_eq!(lone.derivations(), 1, "an unshared client decrypts itself");

    let tampered = || {
        StoreHandle::new(TamperedPartitions {
            inner: store.clone().into(),
        })
    };
    let expected = client(tampered()).sync().unwrap_err().to_string();
    let mut forged = client(tampered());
    forged.share_derivations_with(&a);
    let got = forged.sync().unwrap_err();
    assert!(matches!(got, AcsError::Core(_)), "{got}");
    assert_eq!(got.to_string(), expected);
    assert_eq!(forged.group_key(), None);
    // the failed decrypt left the shared derivation in place
    assert_eq!(a.sync().unwrap(), rotated);
    assert_eq!(a.derivations() + b.derivations(), 2);
}

#[test]
#[should_panic(expected = "only clients of one identity, key and group may share derivations")]
fn clients_of_two_identities_cannot_share_derivations() {
    let mut r = rng(10);
    let store = CloudStore::new();
    let admin = bootstrap_admin(PartitionSize::new(2).unwrap(), store.clone(), &mut r).unwrap();
    let client = |identity: &str| {
        let usk = admin.engine().extract_user_key(identity).unwrap();
        Client::new(
            identity,
            usk,
            admin.engine().public_key().clone(),
            store.clone(),
            "g",
        )
    };
    client("user-0").share_derivations_with(&client("user-1"));
}
