//! Extensions from the paper's future-work section (§VIII), working
//! together: a **certified multi-admin operation log** (two administrators
//! signing into one group log, each Schnorr-signed entry bound to its index
//! and to the Merkle root of the log before it; published to the cloud and
//! audited from there by a party holding only verification keys) and
//! **workload-adaptive partition sizing**.
//!
//! ```sh
//! cargo run --release --example governed_admins
//! ```

use ibbe_sgx::acs::{AcsError, AdminSigner, Auditor, GroupLog, LogOp};
use ibbe_sgx::cloud::{CloudStore, ObjectStore, StoreHandle};
use ibbe_sgx::core::{AdaptivePolicy, GroupEngine, PartitionSize};
use ibbe_sgx::oplog::VerifyError;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::thread_rng();

    // Capacity fixed at bootstrap; the *live* fill adapts below it.
    let capacity = PartitionSize::new(64)?;
    let engine = GroupEngine::bootstrap(capacity, &mut rng)?;
    let mut policy = AdaptivePolicy::new(4, capacity.get())?;

    // Two administrators share duties; every operation lands in the
    // group's one certified log. Auditors pin their verification keys.
    let admin_a = AdminSigner::new("admin-a", &mut rng);
    let admin_b = AdminSigner::new("admin-b", &mut rng);
    let mut auditor = Auditor::new();
    auditor.register_admin("admin-a", admin_a.verifying_key());
    auditor.register_admin("admin-b", admin_b.verifying_key());
    let mut log = GroupLog::default();

    // admin-a creates the group.
    let members: Vec<String> = (0..48).map(|i| format!("emp-{i:03}")).collect();
    let mut meta =
        engine.create_group_with_fill("hr-records", members.clone(), policy.recommended(48))?;
    log.append(
        &admin_a,
        "hr-records",
        LogOp::Create {
            members: members.clone(),
        },
    );
    println!(
        "created with fill {} → {} partitions",
        policy.recommended(48).get(),
        meta.partition_count()
    );

    // admin-b handles a revocation-heavy quarter (layoffs): the policy
    // learns that re-keying dominates and recommends bigger partitions.
    for victim in members.iter().take(20) {
        engine.remove_user(&mut meta, victim)?;
        log.append(
            &admin_b,
            "hr-records",
            LogOp::Remove {
                user: victim.clone(),
            },
        );
        policy.record_remove();
    }
    let fill = policy.recommended(meta.member_count());
    println!(
        "after layoffs: policy recommends fill {} for {} members",
        fill.get(),
        meta.member_count()
    );
    if meta.needs_repartitioning(capacity.get()) || fill.get() != capacity.get() {
        meta = engine.repartition_with_fill(&meta, fill)?;
        log.append(&admin_a, "hr-records", LogOp::Rekey);
        println!(
            "re-partitioned into {} partition(s)",
            meta.partition_count()
        );
    }

    // Read-heavy steady state: decryptions dominate, the policy swings back
    // toward small partitions (cheap client decrypt).
    for _ in 0..200 {
        policy.record_decrypt();
    }
    println!(
        "read-heavy regime: policy now recommends fill {}",
        policy.recommended(meta.member_count()).get()
    );

    // The log goes to the untrusted cloud (an `acs::Admin` publishes these
    // same objects with every mutation, alongside the group metadata)…
    let store = StoreHandle::from(CloudStore::new());
    store.try_put_many("hr-records", log.unpublished())?;
    log.mark_published();

    // …where any auditor can verify the complete operation history…
    let report = auditor.audit_group(&store, "hr-records")?;
    assert_eq!(Some(report.head), log.head());
    println!(
        "operation log verified: {} entries, 2 admins",
        report.head.size
    );

    // …and cross-check it against the live cryptographic state.
    let mut from_log = report.membership;
    let mut live: Vec<String> = meta.members().map(String::from).collect();
    from_log.sort();
    live.sort();
    assert_eq!(from_log, live);
    println!("log-derived membership matches live group metadata");

    // Tampering attempts fail loudly.
    let rogue = AdminSigner::new("rogue", &mut rng);
    log.append(
        &rogue,
        "hr-records",
        LogOp::Add {
            user: "backdoor".into(),
        },
    );
    store.try_put_many("hr-records", log.unpublished())?;
    let rejected = auditor.audit_group(&store, "hr-records");
    assert!(matches!(
        rejected,
        Err(AcsError::Verify(VerifyError::UnknownAdmin(name))) if name == "rogue"
    ));
    println!("rogue admin entry rejected by auditors");

    Ok(())
}
