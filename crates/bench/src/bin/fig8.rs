//! Figure 8 — (a) CDF of add-user latency (IBBE-SGX vs HE; the IBBE-SGX
//! curve has two regimes: joining an open partition vs creating a new one),
//! and (b) client decrypt latency per partition size (quadratic in the
//! partition, constant for HE).

use ibbe_sgx_bench::{
    bench_rng, fmt_duration, names, print_table, time, BenchArgs, HeBackend, IbbeBackend,
};
use ibbe_sgx_core::{client_decrypt_from_partition, GroupEngine, PartitionSize};
use telemetry::stats::percentiles;
use workloads::ReplayBackend;

fn main() {
    let args = BenchArgs::parse();

    // ---- 8a: add-user latency CDF ---------------------------------------
    let (initial_n, partition, adds) = if args.full {
        (10_000, 1_000, 500)
    } else {
        (96, 16, 64)
    };
    let initial = names(initial_n);
    let mut ibbe = IbbeBackend::new(partition, "g", &initial, 8);
    let mut he = HeBackend::new("g", &initial, 8);

    let mut ibbe_lat = Vec::new();
    let mut he_lat = Vec::new();
    for i in 0..adds {
        let user = format!("joiner-{i:05}");
        let (_, t) = time(|| ibbe.add_user(&user));
        ibbe_lat.push(t);
        let (_, t) = time(|| he.add_user(&user));
        he_lat.push(t);
    }

    let ps = [10.0, 25.0, 50.0, 75.0, 80.0, 90.0, 99.0, 100.0];
    let ibbe_ps = percentiles(&mut ibbe_lat, &ps);
    let he_ps = percentiles(&mut he_lat, &ps);
    let rows: Vec<Vec<String>> = ps
        .iter()
        .zip(ibbe_ps.iter().zip(&he_ps))
        .map(|(p, (ibbe, he))| vec![format!("p{p:02.0}"), fmt_duration(*ibbe), fmt_duration(*he)])
        .collect();
    print_table(
        &format!("Fig. 8a — add-user latency CDF ({adds} adds, partition {partition})"),
        &["quantile", "IBBE-SGX", "HE"],
        &rows,
    );

    // ---- 8b: decrypt latency per partition size -------------------------
    let partitions: &[usize] = if args.full {
        &[1_000, 2_000, 3_000, 4_000]
    } else {
        &[16, 32, 64, 128, 256]
    };
    let mut rng = bench_rng(88);
    let mut rows = Vec::new();
    for &p in partitions {
        let engine =
            GroupEngine::bootstrap(PartitionSize::new(p).unwrap(), &mut rng).expect("bootstrap");
        // one full partition
        let members = names(p);
        let meta = engine.create_group("g", members.clone()).unwrap();
        let member = &members[p / 2];
        let usk = engine.extract_user_key(member).unwrap();
        let decrypt = || {
            client_decrypt_from_partition(
                engine.public_key(),
                &usk,
                member,
                "g",
                &meta.partitions[0],
            )
            .expect("decrypt")
        };
        // the first call after bootstrap runs on cold caches: discard it,
        // report the median of the next five
        decrypt();
        let mut samples: Vec<_> = (0..5).map(|_| time(decrypt).1).collect();
        samples.sort();
        rows.push(vec![p.to_string(), fmt_duration(samples[2])]);
    }
    print_table(
        "Fig. 8b — client decrypt latency per partition size (median of 5 warm calls)",
        &["partition", "decrypt"],
        &rows,
    );
    println!("\nshape check: HE add ≈ 2x faster than IBBE-SGX add; decrypt superlinear in partition size.");
}
