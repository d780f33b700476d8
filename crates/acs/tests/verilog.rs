//! Adversarial store suite for the verifiable op-log: a [`ForkingStore`]
//! serves forked / rewritten / truncated / resequenced / equivocating
//! views of a group folder, and every tamper schedule must be detected —
//! by the client's consistency check, or (for forged-but-genuine
//! extensions and for histories no verifier has pinned) by an [`Auditor`]
//! folding the entry check — *before* anyone acts on forged metadata.

use acs::verilog::{fetch_head, fetch_transition};
use acs::{
    bootstrap_admin, AcsError, Admin, AdminSigner, Auditor, Client, ForkingStore, GroupLog, LogOp,
    SignedTransition, Tamper,
};
use cloud_store::{CloudStore, FaultConfig, FaultyStore, StoreHandle};
use ibbe_sgx_core::PartitionSize;
use oplog::VerifyError;
use proptest::prelude::*;
use rand::SeedableRng;
use std::time::Duration;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(8)
}

/// A journaling admin over `store`, plus the verification key an auditor
/// would register for it.
fn signed_admin(store: impl Into<StoreHandle>, seed: u64) -> (Admin, sgx_sim::bls::VerifyingKey) {
    let mut r = rng(seed);
    let signer = AdminSigner::new("admin-1", &mut r);
    let vk = signer.verifying_key();
    let admin = bootstrap_admin(PartitionSize::new(3).unwrap(), store, &mut r)
        .unwrap()
        .with_signer(signer);
    (admin, vk)
}

/// A client for `identity` (key extracted directly from the engine — the
/// Fig. 3 provisioning flow is exercised in `tests/system.rs`).
fn client_for(admin: &Admin, store: impl Into<StoreHandle>, identity: &str, group: &str) -> Client {
    Client::new(
        identity,
        admin.engine().extract_user_key(identity).unwrap(),
        admin.engine().public_key().clone(),
        store,
        group,
    )
}

fn members(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user-{i}")).collect()
}

// ---------------------------------------------------------------- honest path

#[test]
fn published_log_verifies_across_the_group_lifecycle() {
    let store = CloudStore::new();
    let (admin, vk) = signed_admin(store.clone(), 1);
    admin.create_group("g", members(3)).unwrap();

    let mut alice = client_for(&admin, store.clone(), "user-0", "g");
    alice.sync().unwrap();
    assert_eq!(alice.log_head().unwrap().size, 1, "create journals entry 0");

    admin.add_user("g", "dave").unwrap();
    admin
        .begin_batch("g")
        .add("erin")
        .remove("user-1")
        .commit()
        .unwrap();
    admin.rekey_group("g").unwrap();

    alice.sync().unwrap();
    let head = alice.log_head().unwrap();
    assert_eq!(head.size, 4, "add + batch + rekey journal one entry each");
    assert_eq!(admin.log_head("g"), Some(head), "client and admin agree");
    assert_eq!(
        admin.metadata("g").unwrap().log_head,
        Some(head),
        "the metadata object is stamped with the head it was published with"
    );

    // a third party holding only the verification key replays everything
    let mut auditor = Auditor::new();
    auditor.register_admin("admin-1", vk);
    let handle = StoreHandle::from(store);
    let report = auditor.audit_group(&handle, "g").unwrap();
    assert_eq!(report.head, head);
    let mut replayed = report.membership;
    replayed.sort();
    let mut live: Vec<String> = admin
        .metadata("g")
        .unwrap()
        .members()
        .map(str::to_string)
        .collect();
    live.sort();
    assert_eq!(replayed, live, "log replay reproduces live membership");
    assert_eq!(auditor.observed_head("g"), Some(head));
}

// ------------------------------------------------------------------- rewrites

#[test]
fn rewritten_history_is_detected_before_clients_act() {
    let store = CloudStore::new();
    let forked = ForkingStore::new(store.clone());
    let (admin, _) = signed_admin(store, 2); // admin writes to the honest store
    admin.create_group("g", members(3)).unwrap();

    let mut alice = client_for(&admin, forked.clone(), "user-0", "g");
    let mut bob = client_for(&admin, forked.clone(), "user-1", "g");
    let gk1 = alice.sync().unwrap();
    bob.sync().unwrap();
    assert_eq!(bob.log_head().unwrap().size, 1);

    admin.add_user("g", "dave").unwrap();
    assert_eq!(alice.sync().unwrap(), gk1, "an add rotates nothing");
    assert_eq!(alice.log_head().unwrap().size, 2);

    // the store rewrites entry 0 and republishes a self-consistent branch
    forked
        .tamper("g", Tamper::RewriteEntry { index: 0 })
        .unwrap();

    // alice pinned the honest size-2 head: same size, different root
    let err = alice.sync().unwrap_err();
    assert!(
        matches!(err, AcsError::Verify(VerifyError::Forked { size: 2 })),
        "got {err:?}"
    );
    assert_eq!(
        alice.group_key().copied(),
        Some(gk1),
        "nothing was derived from the forged view"
    );
    assert_eq!(alice.log_head().unwrap().size, 2, "the pin did not move");

    // bob pinned the honest size-1 head: the forged size-2 head fails the
    // consistency path (it does not extend bob's history)
    let err = bob.sync().unwrap_err();
    assert!(
        matches!(
            err,
            AcsError::Verify(VerifyError::NotAnExtension | VerifyError::RootMismatch)
        ),
        "got {err:?}"
    );

    // the long-poll path flags the fork too: the forged head is among the
    // changed items, so the head check runs even though no partition moved
    let err = alice
        .wait_for_update(Duration::from_millis(50))
        .unwrap_err();
    assert!(matches!(err, AcsError::Verify(_)), "got {err:?}");

    // healing the view ends the attack; the honest history checks out again
    forked.heal("g");
    assert_eq!(alice.sync().unwrap(), gk1);
}

// ----------------------------------------------------------------- truncation

#[test]
fn truncated_history_is_detected() {
    let store = CloudStore::new();
    let forked = ForkingStore::new(store.clone());
    let (admin, _) = signed_admin(store, 3);
    admin.create_group("g", members(3)).unwrap();
    admin.add_user("g", "dave").unwrap();

    let mut alice = client_for(&admin, forked.clone(), "user-0", "g");
    let gk = alice.sync().unwrap();
    assert_eq!(alice.log_head().unwrap().size, 2);

    // serve the log as if the add never happened
    forked.tamper("g", Tamper::Truncate { drop: 1 }).unwrap();
    let err = alice.sync().unwrap_err();
    assert!(
        matches!(
            err,
            AcsError::Verify(VerifyError::Truncated {
                prior: 2,
                current: 1
            })
        ),
        "got {err:?}"
    );
    assert_eq!(alice.group_key().copied(), Some(gk));

    // a frozen world never notifies: polling times out, state is untouched
    assert_eq!(
        alice.wait_for_update(Duration::from_millis(10)).unwrap(),
        None
    );
}

#[test]
fn relayed_prior_does_not_excuse_a_rollback_below_the_pin() {
    let store = CloudStore::new();
    let forked = ForkingStore::new(store.clone());
    let (admin, _) = signed_admin(store, 8);
    admin.create_group("g", members(3)).unwrap();
    let mut alice = client_for(&admin, forked.clone(), "user-0", "g");
    alice.sync().unwrap();
    let relayed = alice.log_head().unwrap(); // size 1, e.g. saved by a peer
    admin.add_user("g", "dave").unwrap();
    admin.add_user("g", "erin").unwrap();
    alice.sync().unwrap();
    let pinned = alice.log_head().unwrap();
    assert_eq!(pinned.size, 3);

    // the store rolls the log back to two entries: still a true extension
    // of the size-1 head a peer relays, but behind what alice has verified
    forked.tamper("g", Tamper::Truncate { drop: 1 }).unwrap();
    let err = alice.verify_extends(&relayed).unwrap_err();
    assert!(
        matches!(
            err,
            AcsError::Verify(VerifyError::Truncated {
                prior: 3,
                current: 2
            })
        ),
        "got {err:?}"
    );
    assert_eq!(alice.log_head(), Some(pinned), "the pin did not move");

    // a same-size fork of the pin is named as one, whatever the relay says
    forked
        .tamper("g", Tamper::RewriteEntry { index: 2 })
        .unwrap();
    let err = alice.verify_extends(&relayed).unwrap_err();
    assert!(
        matches!(err, AcsError::Verify(VerifyError::Forked { size: 3 })),
        "got {err:?}"
    );

    // honest view: the relayed head and the pin both check out
    forked.heal("g");
    assert_eq!(alice.verify_extends(&relayed).unwrap(), pinned);
}

// ------------------------------------------------------------- dropped entries

/// The audit gap the single log closes: a store serves a *fresh* auditor
/// the group's validly signed entries with a revocation cut out — dense
/// object names, recomputed tree, matching head. Nothing is structurally
/// wrong; only the place each surviving entry was signed for gives it away.
#[test]
fn dropped_revocation_is_caught_by_a_fresh_auditor() {
    let store = CloudStore::new();
    let forked = ForkingStore::new(store.clone());
    let (admin, vk) = signed_admin(store, 9);
    admin.create_group("g", members(3)).unwrap();
    admin.add_user("g", "dave").unwrap();
    admin.remove_user("g", "user-1").unwrap();
    admin.add_user("g", "erin").unwrap();

    let handle = StoreHandle::from(forked.clone());
    let fresh_auditor = || {
        let mut a = Auditor::new();
        a.register_admin("admin-1", vk);
        a
    };
    let honest = fresh_auditor().audit_group(&handle, "g").unwrap();
    assert!(!honest.membership.contains(&"user-1".to_string()));

    forked.tamper("g", Tamper::DropEntry { index: 2 }).unwrap();
    assert_eq!(fetch_head(&handle, "g").unwrap().unwrap().size, 3);
    let err = fresh_auditor().audit_group(&handle, "g").unwrap_err();
    assert!(
        matches!(
            err,
            AcsError::Verify(VerifyError::OutOfPlace {
                position: 2,
                binding: "index"
            })
        ),
        "user-1 must not come back: {err:?}"
    );

    // the fraud-proof unit applies the same check: entry 3 presented as the
    // append that took the log from 2 to 3 entries is structurally sound …
    let t = fetch_transition(&handle, "g", 2).unwrap();
    assert_eq!(t.proof.verify(), Ok(()));
    assert_eq!(t.entry.index, 3);
    assert_eq!(
        t.verify(fresh_auditor().keys(), "g"),
        Err(VerifyError::OutOfPlace {
            position: 2,
            binding: "index"
        })
    );
    // … as is entry 1 presented at its own index over a rewritten prefix
    forked
        .tamper("g", Tamper::RewriteEntry { index: 0 })
        .unwrap();
    let t = fetch_transition(&handle, "g", 1).unwrap();
    assert_eq!(t.proof.verify(), Ok(()));
    assert_eq!(
        t.verify(fresh_auditor().keys(), "g"),
        Err(VerifyError::OutOfPlace {
            position: 1,
            binding: "pre-root"
        })
    );
    // … or in another group's log
    forked.heal("g");
    let t = fetch_transition(&handle, "g", 1).unwrap();
    assert_eq!(t.verify(fresh_auditor().keys(), "g"), Ok(()));
    assert_eq!(
        t.verify(fresh_auditor().keys(), "h"),
        Err(VerifyError::OutOfPlace {
            position: 1,
            binding: "group"
        })
    );
}

// --------------------------------------------------------------- equivocation

#[test]
fn equivocating_views_are_caught_by_auditor_cross_observation() {
    let store = CloudStore::new();
    let view_b = ForkingStore::new(store.clone());
    let (admin, _) = signed_admin(store.clone(), 4);
    admin.create_group("g", members(3)).unwrap();

    // bob's view freezes at the 1-entry history, then the group moves on
    view_b.tamper("g", Tamper::Rollback).unwrap();
    admin.add_user("g", "dave").unwrap();

    let mut alice = client_for(&admin, store, "user-0", "g");
    let mut bob = client_for(&admin, view_b.clone(), "user-1", "g");
    alice.sync().unwrap();
    bob.sync().unwrap();
    assert_eq!(alice.log_head().unwrap().size, 2);
    assert_eq!(
        bob.log_head().unwrap().size,
        1,
        "a frozen self-consistent past is undetectable by a lone client"
    );
    bob.sync().unwrap(); // … and stays plausible forever

    // until the two views meet at an auditor
    let auditor = Auditor::new(); // observe() needs no keys
    auditor.observe("g", alice.log_head().unwrap()).unwrap();
    let err = auditor.observe("g", bob.log_head().unwrap()).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::Truncated {
                prior: 2,
                current: 1
            }
        ),
        "got {err:?}"
    );

    // same-size divergence: a third view rewrites history, and a fresh
    // client TOFU-pins the forged branch (it is internally consistent) —
    // cross-observation still catches it
    let view_c = view_b.split_view();
    view_c
        .tamper("g", Tamper::RewriteEntry { index: 0 })
        .unwrap();
    let mut carol = client_for(&admin, view_c, "user-2", "g");
    carol.sync().unwrap();
    let err = auditor.observe("g", carol.log_head().unwrap()).unwrap_err();
    assert!(
        matches!(err, VerifyError::Forked { size: 2 }),
        "got {err:?}"
    );
}

// -------------------------------------------------------------- forged append

#[test]
fn forged_extension_passes_client_checks_but_fails_audit() {
    let store = CloudStore::new();
    let forked = ForkingStore::new(store.clone());
    let (admin, vk) = signed_admin(store, 5);
    admin.create_group("g", members(3)).unwrap();

    let mut alice = client_for(&admin, forked.clone(), "user-0", "g");
    let gk = alice.sync().unwrap();

    // garbage entry: a genuine extension, so the consistency proof passes …
    forked
        .tamper(
            "g",
            Tamper::ForgeAppend {
                entry: vec![0xde; 40],
            },
        )
        .unwrap();
    assert_eq!(alice.sync().unwrap(), gk);
    assert_eq!(
        alice.log_head().unwrap().size,
        2,
        "consistency alone cannot reject a true extension of the log"
    );

    // … which is exactly the auditor's job
    let mut auditor = Auditor::new();
    auditor.register_admin("admin-1", vk);
    let handle = StoreHandle::from(forked.clone());
    let err = auditor.audit_group(&handle, "g").unwrap_err();
    assert!(
        matches!(err, AcsError::Verify(VerifyError::Malformed(_))),
        "got {err:?}"
    );

    // a well-formed entry signed by an unregistered admin is named
    forked.heal("g");
    let mut r = rng(50);
    let rogue = AdminSigner::new("rogue", &mut r);
    let backdoor = LogOp::Add {
        user: "mallory".into(),
    };
    let entry = GroupLog::default().append(&rogue, "g", backdoor).to_bytes();
    forked.tamper("g", Tamper::ForgeAppend { entry }).unwrap();
    let err = auditor.audit_group(&handle, "g").unwrap_err();
    assert!(
        matches!(&err, AcsError::Verify(VerifyError::UnknownAdmin(a)) if a == "rogue"),
        "got {err:?}"
    );
}

// --------------------------------------------------------------- fraud proofs

#[test]
fn fraud_proof_units_replay_the_whole_log() {
    let store = CloudStore::new();
    let (admin, vk) = signed_admin(store.clone(), 6);
    admin.create_group("g", members(4)).unwrap();
    admin.add_user("g", "dave").unwrap();
    admin.remove_user("g", "user-1").unwrap();
    admin.rekey_group("g").unwrap();

    let handle = StoreHandle::from(store);
    let auditor = {
        let mut a = Auditor::new();
        a.register_admin("admin-1", vk);
        a
    };

    let head = fetch_head(&handle, "g").unwrap().unwrap();
    assert_eq!(head.size, 4);
    let mut verified = None;
    for i in 0..head.size {
        let t = fetch_transition(&handle, "g", i).unwrap();
        // compact: O(log n) hashes, not the log itself
        assert!(t.proof.consistency.len() as u64 <= 2 * 64);
        // wire round-trip preserves the evidence
        let rt = SignedTransition::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(rt.proof, t.proof);
        assert_eq!(rt.entry.to_bytes(), t.entry.to_bytes());
        verified = Some(auditor.verify_transition("g", &t).unwrap());
    }
    assert_eq!(verified, admin.log_head("g"), "the chain ends at the head");
    assert_eq!(auditor.observed_head("g"), admin.log_head("g"));

    // flipping any byte of a unit must not yield a verifying forgery
    let t = fetch_transition(&handle, "g", 2).unwrap();
    let wire = t.to_bytes();
    for at in 0..wire.len() {
        let mut mangled = wire.clone();
        mangled[at] ^= 0x01;
        if let Ok(m) = SignedTransition::from_bytes(&mangled) {
            assert!(
                m.verify(auditor.keys(), "g").is_err(),
                "byte {at} flip produced a verifying transition"
            );
        }
    }
}

// --------------------------------------------------- outage is not tampering

#[test]
fn store_outage_is_not_mistaken_for_tampering() {
    let store = CloudStore::new();
    let faulty = FaultyStore::new(store.clone(), FaultConfig::default());
    let injector = faulty.injector().clone();
    let (admin, _) = signed_admin(store, 7);
    admin.create_group("g", members(3)).unwrap();

    let mut alice = client_for(&admin, faulty, "user-0", "g");
    let gk = alice.sync().unwrap();
    admin.add_user("g", "dave").unwrap();

    injector.force_outage(0, Duration::from_millis(40));
    let err = alice.sync().unwrap_err();
    assert!(
        matches!(err, AcsError::Store(_)) && err.is_transient(),
        "an outage must surface as a transient store fault, got {err:?}"
    );

    std::thread::sleep(Duration::from_millis(45));
    assert_eq!(alice.sync().unwrap(), gk, "retry after the outage succeeds");
    assert_eq!(alice.log_head().unwrap().size, 2);
}

// ------------------------------------------------------------ property suite

/// Applies `n_ops` honest mutations to group `g` (never touching the
/// creation-time members), two bits of `ops_seed` choosing each one, and
/// calls `after_each` once the mutation is published.
fn honest_schedule(admin: &Admin, n_ops: usize, ops_seed: u64, mut after_each: impl FnMut()) {
    let mut added: Vec<String> = Vec::new();
    for i in 0..n_ops {
        match (ops_seed >> (2 * i)) & 0b11 {
            0 => {
                let name = format!("add-{i}");
                admin.add_user("g", &name).unwrap();
                added.push(name);
            }
            1 => match added.pop() {
                Some(name) => {
                    admin.remove_user("g", &name).unwrap();
                }
                None => admin.rekey_group("g").unwrap(),
            },
            2 => admin.rekey_group("g").unwrap(),
            _ => {
                admin
                    .begin_batch("g")
                    .add(format!("batch-{i}-a"))
                    .add(format!("batch-{i}-b"))
                    .commit()
                    .unwrap();
                added.push(format!("batch-{i}-a"));
                added.push(format!("batch-{i}-b"));
            }
        }
        after_each();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Any schedule of honest mutations followed by any tamper is caught
    /// before the watching client acts on forged metadata: rewrites and
    /// truncations fail the client's consistency check outright; forged
    /// appends leave the client's key untouched and fail the audit.
    #[test]
    fn any_tamper_schedule_is_detected(
        seed in 1u64..1_000,
        n_ops in 0usize..4,
        ops_seed in any::<u64>(),
        pick in any::<u64>(),
        kind in 0u8..3,
    ) {
        let store = CloudStore::new();
        let forked = ForkingStore::new(store.clone());
        let (admin, vk) = signed_admin(store, seed);
        admin.create_group("g", members(3)).unwrap();

        let mut watcher = client_for(&admin, forked.clone(), "user-0", "g");
        watcher.sync().unwrap();

        honest_schedule(&admin, n_ops, ops_seed, || {
            watcher.sync().unwrap();
        });
        let size = 1 + n_ops as u64;
        prop_assert_eq!(watcher.log_head().unwrap().size, size);
        let gk = watcher.group_key().copied().unwrap();
        let pinned = watcher.log_head().unwrap();

        match kind {
            0 => {
                forked
                    .tamper("g", Tamper::RewriteEntry { index: pick % size })
                    .unwrap();
                let err = watcher.sync().unwrap_err();
                prop_assert!(
                    matches!(err, AcsError::Verify(_)),
                    "rewrite undetected: {:?}", err
                );
            }
            1 => {
                forked
                    .tamper("g", Tamper::Truncate { drop: 1 + pick % size })
                    .unwrap();
                let err = watcher.sync().unwrap_err();
                prop_assert!(
                    matches!(err, AcsError::Verify(VerifyError::Truncated { .. })),
                    "truncation undetected: {:?}", err
                );
            }
            _ => {
                let garbage = pick.to_be_bytes().to_vec();
                forked
                    .tamper("g", Tamper::ForgeAppend { entry: garbage })
                    .unwrap();
                // a genuine extension: the client tolerates it (and keeps
                // its key) — the signature check is the auditor's
                watcher.sync().unwrap();
                let mut auditor = Auditor::new();
                auditor.register_admin("admin-1", vk);
                let handle = StoreHandle::from(forked.clone());
                let err = auditor.audit_group(&handle, "g").unwrap_err();
                prop_assert!(
                    matches!(err, AcsError::Verify(_)),
                    "forged append passed audit: {:?}", err
                );
            }
        }
        // in every case: no key was derived from forged state
        prop_assert_eq!(watcher.group_key().copied(), Some(gk));
        // and the pin never regressed
        prop_assert!(watcher.log_head().unwrap().size >= pinned.size);
    }

    /// Any single drop, swap or duplication of a group's published entries
    /// — object names kept dense, tree and head recomputed, so nothing is
    /// structurally off — is rejected by an auditor with no prior head to
    /// compare against: some validly signed entry ends up at a position it
    /// was not signed for.
    #[test]
    fn any_single_resequencing_fails_a_fresh_audit(
        seed in 1u64..1_000,
        n_ops in 1usize..4,
        ops_seed in any::<u64>(),
        pick in any::<u64>(),
        kind in 0u8..3,
    ) {
        let store = CloudStore::new();
        let forked = ForkingStore::new(store.clone());
        let (admin, vk) = signed_admin(store, seed);
        admin.create_group("g", members(3)).unwrap();
        honest_schedule(&admin, n_ops, ops_seed, || {});

        let size = 1 + n_ops as u64;
        let (a, b) = (pick % size, (pick >> 32) % size);
        let mut order: Vec<u64> = (0..size).collect();
        match kind {
            // drop — but not the last entry: a dropped suffix is the one
            // thing a fresh verifier cannot see (the documented limit)
            0 => {
                order.remove((a % (size - 1)) as usize);
            }
            1 => {
                let b = if a == b { (a + 1) % size } else { b };
                order.swap(a as usize, b as usize);
            }
            _ => order.insert(b as usize, a),
        }
        forked.tamper("g", Tamper::Resequence { order: order.clone() }).unwrap();

        let mut auditor = Auditor::new();
        auditor.register_admin("admin-1", vk);
        let handle = StoreHandle::from(forked);
        let err = auditor.audit_group(&handle, "g").unwrap_err();
        prop_assert!(
            matches!(err, AcsError::Verify(VerifyError::OutOfPlace { .. })),
            "served order {:?} passed or failed for the wrong reason: {:?}", order, err
        );
    }
}
