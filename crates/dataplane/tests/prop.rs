//! Property test of the data-plane revocation guarantees: for random
//! groups, object sets and victims, after a revocation
//!
//! 1. the revoked member can decrypt **no object written at the new
//!    epoch**, ever;
//! 2. under the lazy policy the pre-revocation objects stay readable to
//!    them only until the sweeper migrates them — afterwards they are
//!    locked out of everything;
//! 3. surviving members read every object at every stage;
//! 4. the revoking batch itself performs zero object re-writes (the O(1)
//!    lazy revocation invariant).
//!
//! Case count: a light default (each case runs a full enclave + store
//! stack), scaled up by `PROPTEST_CASES` like the batch parity suite.

use acs::Admin;
use cloud_store::CloudStore;
use dataplane::{ClientSession, DataError, FleetConfig, SweepConfig, SweepScheduler, SweepTask};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionSize};
use proptest::prelude::*;
use std::time::Duration;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|c| (c / 8).max(4))
        .unwrap_or(6)
}

fn session(admin: &Admin, store: &CloudStore, identity: &str, seed: u64) -> ClientSession {
    ClientSession::with_seed(
        identity,
        admin.engine().extract_user_key(identity).unwrap(),
        admin.engine().public_key().clone(),
        store.clone(),
        "g",
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn revocation_locks_out_new_epoch_now_and_old_epochs_after_sweep(
        seed: u64,
        members in 3usize..=6,
        objects in 1usize..=6,
        victim_sel: u8,
        partition in 2usize..=3,
    ) {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
        let engine = GroupEngine::bootstrap_seeded(
            PartitionSize::new(partition).unwrap(), seed_bytes).unwrap();
        let store = CloudStore::new();
        let admin = Admin::new(engine, store.clone());
        let mut names: Vec<String> = (0..members).map(|i| format!("m{i}")).collect();
        names.push("writer".into());
        names.push("sweeper".into());
        admin.create_group("g", names).unwrap();

        let mut writer = session(&admin, &store, "writer", seed ^ 1);
        for i in 0..objects {
            writer.write(&format!("o{i}"), format!("old-{i}").as_bytes()).unwrap();
        }

        // the victim opens a session (and derives the epoch-1 ring) while
        // still a member
        let victim_name = format!("m{}", victim_sel as usize % members);
        let mut victim = session(&admin, &store, &victim_name, seed ^ 2);
        prop_assert_eq!(victim.read("o0").unwrap(), b"old-0".to_vec());

        // lazy revocation: zero object re-writes at revocation time
        let cas_before = store.metrics().cas_puts;
        let mut fleet = SweepScheduler::new(FleetConfig {
            workers: 1,
            lease: 2,
            ..FleetConfig::default()
        });
        fleet.register(SweepTask::new(
            vec![session(&admin, &store, "sweeper", seed ^ 3)],
            SweepConfig { deadline: Duration::from_secs(5) },
        ));
        let mut batch = MembershipBatch::new();
        batch.remove(victim_name.clone());
        let outcome = admin.apply_batch("g", &batch).unwrap();
        prop_assert!(outcome.gk_rotated);
        fleet.arm(0);
        let new_epoch = outcome.epoch;
        // lazy revocation must not rewrite stored objects
        prop_assert_eq!(store.metrics().cas_puts, cas_before);

        // (1) anything written at the new epoch is opaque to the victim
        writer.write("fresh", b"new-epoch secret").unwrap();
        prop_assert_eq!(
            victim.read("fresh"),
            Err(DataError::UnknownEpoch(new_epoch))
        );

        // (2a) the lazy window: pre-revocation objects still open with the
        // victim's frozen ring
        for i in 0..objects {
            prop_assert_eq!(
                victim.read(&format!("o{i}")).unwrap(),
                format!("old-{i}").into_bytes()
            );
        }

        // the sweep converges within the task's deadline
        let run = fleet.converge_all().unwrap();
        let report = run.groups[0].report;
        prop_assert!(report.converged, "sweep did not converge: {:?}", report);
        prop_assert_eq!(run.groups[0].overshoot, Duration::ZERO);
        prop_assert_eq!(report.migrated, objects);

        // (2b) ... and now the victim is locked out of everything
        for i in 0..objects {
            // a migrated object must reject the revoked member
            prop_assert_eq!(
                victim.read(&format!("o{i}")),
                Err(DataError::UnknownEpoch(new_epoch))
            );
        }

        // (3) a surviving member reads everything, old and new
        let survivor_name = (0..members)
            .map(|i| format!("m{i}"))
            .find(|m| m != &victim_name)
            .expect("members ≥ 3 guarantees a survivor");
        let mut survivor = session(&admin, &store, &survivor_name, seed ^ 4);
        for i in 0..objects {
            prop_assert_eq!(
                survivor.read(&format!("o{i}")).unwrap(),
                format!("old-{i}").into_bytes()
            );
        }
        prop_assert_eq!(survivor.read("fresh").unwrap(), b"new-epoch secret".to_vec());
    }
}
