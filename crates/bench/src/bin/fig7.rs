//! Figure 7 — membership-operation costs and storage footprint.
//!
//! (a) IBBE-SGX vs HE(-PKI, zero-knowledge deployment): create group,
//!     remove user, and metadata footprint across group sizes.
//! (b) IBBE-SGX alone across partition sizes.
//!
//! Paper shape: IBBE-SGX create/remove ≈1.2 orders of magnitude faster than
//! HE; footprint up to 6 orders smaller (constant per partition vs linear
//! per member); remove ≈ half the cost of create; smaller partitions cost
//! only slightly more storage.
//!
//! "Remove ≈ half of create" does not hold here. A quick run on a 2-core
//! x86-64 VM read remove/create as 1.5–1.6, 0.8–1.1 and 0.8 at 64, 256 and
//! 1 024 members in 7a, and 0.7–1.1 across 7b's partition sizes. Both end in
//! the same per-partition re-key, and a removal re-keys its host partition
//! twice: `ibbe::remove_user_with_msk` rebuilds `(bk, C1, C2)`, which the
//! engine's re-key of every partition then replaces. The binary prints the
//! ratios it measured.

use cloud_store::CloudStore;
use he::{HeGroupManager, HePki, PkiKeyPair};
use ibbe_sgx_bench::{bench_rng, fmt_bytes, fmt_duration, names, print_table, time, BenchArgs};
use ibbe_sgx_core::{GroupEngine, PartitionSize};

fn main() {
    let args = BenchArgs::parse();
    let (group_sizes, partition): (&[usize], usize) = if args.full {
        (&[1_000, 10_000, 100_000], 1_000)
    } else {
        (&[64, 256, 1024], 64)
    };

    // ---- 7a: IBBE-SGX vs HE across group sizes --------------------------
    let mut rng = bench_rng(7);
    let engine = GroupEngine::bootstrap(PartitionSize::new(partition).unwrap(), &mut rng)
        .expect("bootstrap");
    warm_up(&engine);
    let _ = CloudStore::new();

    let (mut rows, mut ratios) = (Vec::new(), Vec::new());
    for &n in group_sizes {
        let members = names(n);

        let (meta, t_create) = time(|| {
            engine
                .create_group(&format!("g{n}"), members.clone())
                .unwrap()
        });
        let mut meta_rm = meta.clone();
        let victim = members[n / 2].clone();
        let (_, t_remove) = time(|| engine.remove_user(&mut meta_rm, &victim).unwrap());
        let footprint = meta.crypto_size_bytes();
        ratios.push(format!(
            "{:.2}",
            t_remove.as_secs_f64() / t_create.as_secs_f64()
        ));

        // HE-PKI with the same member set
        let mut pki = HeGroupManager::new(HePki);
        for m in &members {
            let kp = PkiKeyPair::generate(&mut rng);
            pki.register_user(m, kp.public_key());
        }
        let ((_, he_meta), t_he_create) = time(|| pki.create_group(&members, &mut rng));
        let mut he_meta_rm = he_meta.clone();
        let (_, t_he_remove) = time(|| pki.remove_user(&mut he_meta_rm, &victim, &mut rng));

        rows.push(vec![
            n.to_string(),
            fmt_duration(t_create),
            fmt_duration(t_he_create),
            fmt_duration(t_remove),
            fmt_duration(t_he_remove),
            fmt_bytes(footprint),
            fmt_bytes(he_meta.size_bytes()),
            format!("{:.0}x", he_meta.size_bytes() as f64 / footprint as f64),
        ]);
    }
    print_table(
        &format!("Fig. 7a — IBBE-SGX vs HE (partition {partition})"),
        &[
            "group",
            "create SGX",
            "create HE",
            "remove SGX",
            "remove HE",
            "foot SGX",
            "foot HE",
            "HE/SGX",
        ],
        &rows,
    );

    // ---- 7b: partition-size sweep at fixed group size -------------------
    let (partitions, group): (&[usize], usize) = if args.full {
        (&[1_000, 2_000, 3_000, 4_000], 100_000)
    } else {
        (&[32, 64, 128, 256], 1024)
    };
    let members = names(group);
    let mut rows = Vec::new();
    for &p in partitions {
        let engine =
            GroupEngine::bootstrap(PartitionSize::new(p).unwrap(), &mut rng).expect("bootstrap");
        warm_up(&engine);
        let (meta, t_create) = time(|| engine.create_group("g", members.clone()).unwrap());
        let mut meta_rm = meta.clone();
        let victim = members[group / 2].clone();
        let (_, t_remove) = time(|| engine.remove_user(&mut meta_rm, &victim).unwrap());
        rows.push(vec![
            p.to_string(),
            meta.partition_count().to_string(),
            fmt_duration(t_create),
            fmt_duration(t_remove),
            fmt_bytes(meta.crypto_size_bytes()),
        ]);
    }
    print_table(
        &format!("Fig. 7b — IBBE-SGX partition sweep (group {group})"),
        &["partition", "|P|", "create", "remove", "footprint"],
        &rows,
    );
    println!(
        "\nshape check: remove ≈ half of create (7a measured remove/create: {}); \
         footprint ∝ partition count.",
        ratios.join(", ")
    );
}

/// Creates a throwaway one-member group, so that the engine key's fixed-base
/// tables, built by its first encryption, are a one-off kept out of the
/// timing, as HE-PKI's generator table is built by its registrations.
fn warm_up(engine: &GroupEngine) {
    engine
        .create_group("warm-up", names(1))
        .expect("warm-up group");
}
