//! Figure 2 — performance of HE-PKI, HE-IBE and raw IBBE **without** zero
//! knowledge (no SGX): (a) group-creation latency, (b) group metadata
//! expansion, across group sizes.
//!
//! Paper shape to reproduce: IBBE metadata is constant (~hundreds of bytes)
//! while HE grows linearly into the MB range; IBBE creation is orders of
//! magnitude slower than HE-PKI (quadratic polynomial expansion + per-user
//! `G2` exponentiations vs one ECIES envelope per user).

use he::{ibe_setup, HeGroupManager, HeIbe, HePki, PkiKeyPair};
use ibbe_sgx_bench::{bench_rng, fmt_bytes, fmt_duration, names, print_table, time, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let sizes: &[usize] = if args.full {
        &[1_000, 4_000, 16_000]
    } else {
        &[16, 64, 256, 1024]
    };
    let mut rng = bench_rng(2);

    let mut rows = Vec::new();
    for &n in sizes {
        let members = names(n);

        // HE-PKI: register users, envelope gk to each
        let mut pki = HeGroupManager::new(HePki);
        for m in &members {
            let kp = PkiKeyPair::generate(&mut rng);
            pki.register_user(m, kp.public_key());
        }
        let ((_, pki_meta), t_pki) = time(|| pki.create_group(&members, &mut rng));

        // HE-IBE: Boneh–Franklin envelope per member (one pairing each)
        let (_, params) = ibe_setup(&mut rng);
        let mut ibe = HeGroupManager::new(HeIbe::new(params));
        for m in &members {
            ibe.register_user(m, ());
        }
        let ((_, ibe_meta), t_ibe) = time(|| ibe.create_group(&members, &mut rng));

        // raw IBBE (public-key path, the paper's Eq. 4 quadratic expansion)
        let (_, pk) = ibbe::setup(n, &mut rng);
        // the key's first encryption builds its fixed-base tables: a one-off
        // kept out of the timing, as HE-PKI's generator table is built by
        // the registrations above
        ibbe::encrypt_public(&pk, &members[..1], &mut rng).expect("warm-up");
        let ((), t_ibbe) = {
            let (res, t) = time(|| ibbe::encrypt_public(&pk, &members, &mut rng));
            res.expect("encrypt");
            ((), t)
        };
        let ibbe_meta_bytes = ibbe::CIPHERTEXT_BYTES;

        rows.push(vec![
            n.to_string(),
            fmt_duration(t_pki),
            fmt_duration(t_ibe),
            fmt_duration(t_ibbe),
            fmt_bytes(pki_meta.size_bytes()),
            fmt_bytes(ibe_meta.size_bytes()),
            fmt_bytes(ibbe_meta_bytes),
        ]);
    }

    print_table(
        "Fig. 2a — group creation latency (no SGX)",
        &["group", "HE-PKI", "HE-IBE", "IBBE"],
        &rows.iter().map(|r| r[..4].to_vec()).collect::<Vec<_>>(),
    );
    print_table(
        "Fig. 2b — group metadata expansion",
        &["group", "HE-PKI", "HE-IBE", "IBBE"],
        &rows
            .iter()
            .map(|r| vec![r[0].clone(), r[4].clone(), r[5].clone(), r[6].clone()])
            .collect::<Vec<_>>(),
    );
    println!(
        "\nshape check: IBBE metadata constant at {} per group; HE linear.",
        fmt_bytes(ibbe::CIPHERTEXT_BYTES)
    );
}
