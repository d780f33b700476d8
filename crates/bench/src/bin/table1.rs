//! Table I — empirical validation of the complexity table: every operation
//! is timed at size `n` and `2n` and the measured scaling exponent
//! `log2(t(2n)/t(n))` is reported next to the paper's asymptotic claim.
//!
//! Notes on reading the exponents:
//! * "create (MSK)" is linear in `|S|` (exponent ≈ 1) vs "create (public)"
//!   whose `O(n²)` scalar expansion only dominates at very large `n` — the
//!   isolated "poly expansion" row shows the pure quadratic term.
//! * constant-time operations show exponents ≈ 0.
//! * decrypt is `O(|p|²)` asymptotically, but at these sizes its
//!   `(|p|−1)`-term `G2` multi-scalar multiplication still weighs as much as
//!   the quadratic expansion: `--full` (|p| = 512 → 1 024) measured an
//!   exponent of 1.08 on a 2-core x86-64 VM (1.04–1.22 with the Straus MSM
//!   that preceded the bucket one), not 2.

use ibbe::poly::expand_from_roots;
use ibbe_pairing::Scalar;
use ibbe_sgx_bench::{bench_rng, fmt_duration, names, print_table, time, BenchArgs};
use ibbe_sgx_core::{client_decrypt_from_partition, GroupEngine, PartitionSize};
use std::time::Duration;

fn exponent(t1: Duration, t2: Duration) -> String {
    if t1.is_zero() {
        return "-".into();
    }
    format!("{:.2}", (t2.as_secs_f64() / t1.as_secs_f64()).log2())
}

fn main() {
    let args = BenchArgs::parse();
    let n = if args.full { 1_024 } else { 128 };
    let mut rng = bench_rng(1);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |op: &str, paper: &str, t1: Duration, t2: Duration| {
        rows.push(vec![
            op.to_string(),
            paper.to_string(),
            fmt_duration(t1),
            fmt_duration(t2),
            exponent(t1, t2),
        ]);
    };

    // System setup: O(|p|)
    let (e1, t1) =
        time(|| GroupEngine::bootstrap(PartitionSize::new(n).unwrap(), &mut rng).unwrap());
    let (e2, t2) =
        time(|| GroupEngine::bootstrap(PartitionSize::new(2 * n).unwrap(), &mut rng).unwrap());
    push("system setup", "O(|p|)", t1, t2);

    // Extract: O(1)
    let reps = 32;
    let (_, t1) = time(|| {
        for i in 0..reps {
            e1.extract_user_key(&format!("u{i}")).unwrap();
        }
    });
    let (_, t2) = time(|| {
        for i in 0..reps {
            e2.extract_user_key(&format!("u{i}")).unwrap();
        }
    });
    push("extract user key", "O(1)", t1 / reps, t2 / reps);

    // Create group: |P| × O(|p|) — scale group size at fixed partition
    let engine = GroupEngine::bootstrap(PartitionSize::new(n / 4).unwrap(), &mut rng).unwrap();
    let (m1, t1) = time(|| engine.create_group("g1", names(n)).unwrap());
    let (m2, t2) = time(|| engine.create_group("g2", names(2 * n)).unwrap());
    push("create group", "|P|×O(|p|)", t1, t2);

    // Add user: O(1)
    let mut m1c = m1.clone();
    let mut m2c = m2.clone();
    let (_, t1) = time(|| engine.add_user(&mut m1c, "add-probe").unwrap());
    let (_, t2) = time(|| engine.add_user(&mut m2c, "add-probe").unwrap());
    push("add user", "O(1)", t1, t2);

    // Remove user: |P| × O(1) — doubles with the partition count
    let mut m1c = m1.clone();
    let mut m2c = m2.clone();
    let (_, t1) = time(|| engine.remove_user(&mut m1c, "user-0000001").unwrap());
    let (_, t2) = time(|| engine.remove_user(&mut m2c, "user-0000001").unwrap());
    push("remove user", "|P|×O(1)", t1, t2);

    // Decrypt: O(|p|²) — scale the partition size
    let p1 = n / 2;
    {
        let (label, p) = ("decrypt", p1);
        let ea = GroupEngine::bootstrap(PartitionSize::new(p).unwrap(), &mut rng).unwrap();
        let eb = GroupEngine::bootstrap(PartitionSize::new(2 * p).unwrap(), &mut rng).unwrap();
        let members_a = names(p);
        let members_b = names(2 * p);
        let ma = ea.create_group("g", members_a.clone()).unwrap();
        let mb = eb.create_group("g", members_b.clone()).unwrap();
        let ua = ea.extract_user_key(&members_a[0]).unwrap();
        let ub = eb.extract_user_key(&members_b[0]).unwrap();
        let (ra, t1) = time(|| {
            client_decrypt_from_partition(
                ea.public_key(),
                &ua,
                &members_a[0],
                "g",
                &ma.partitions[0],
            )
        });
        let (rb, t2) = time(|| {
            client_decrypt_from_partition(
                eb.public_key(),
                &ub,
                &members_b[0],
                "g",
                &mb.partitions[0],
            )
        });
        ra.unwrap();
        rb.unwrap();
        push(label, "O(|p|²)", t1, t2);
    }

    // Isolated quadratic term: the receiver-polynomial expansion
    let roots1: Vec<Scalar> = (0..8 * n as u64).map(Scalar::from_u64).collect();
    let roots2: Vec<Scalar> = (0..16 * n as u64).map(Scalar::from_u64).collect();
    let (_, t1) = time(|| expand_from_roots(&roots1));
    let (_, t2) = time(|| expand_from_roots(&roots2));
    push("  └ poly expansion (isolated)", "O(n²)", t1, t2);

    // IBBE public encrypt (the baseline's O(n²) path) vs MSK encrypt
    let (msk, pk) = ibbe::setup(2 * n, &mut rng);
    let members1 = names(n);
    let members2 = names(2 * n);
    let (_, t1) = time(|| ibbe::encrypt_public(&pk, &members1, &mut rng).unwrap());
    let (_, t2) = time(|| ibbe::encrypt_public(&pk, &members2, &mut rng).unwrap());
    push("IBBE encrypt (public)", "O(n²)", t1, t2);
    let (_, t1) = time(|| ibbe::encrypt_with_msk(&msk, &pk, &members1, &mut rng).unwrap());
    let (_, t2) = time(|| ibbe::encrypt_with_msk(&msk, &pk, &members2, &mut rng).unwrap());
    push("IBBE encrypt (MSK/SGX)", "O(n)", t1, t2);

    print_table(
        &format!("Table I — measured scaling (n = {n}, doubling)"),
        &["operation", "paper", "t(n)", "t(2n)", "measured exp"],
        &rows,
    );
    println!("\nexp ≈ 0 → constant; ≈ 1 → linear; ≈ 2 → quadratic.");
}
