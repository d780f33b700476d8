//! Criterion microbenchmarks of the primitives underlying every figure:
//! pairing-curve operations (the PBC-replacement substrate), symmetric
//! crypto, and the IBBE scheme operations in both paths (the §IV-B
//! complexity-cut ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ibbe_pairing::{pairing, pairing_product, Fp, G1Projective, G2Affine, G2Projective, Scalar};
use ibbe_sgx_bench::{bench_rng, names};
use ibbe_sgx_core::{client_decrypt_from_partition, GroupEngine, PartitionSize};
use symcrypto::gcm::AesGcm;
use symcrypto::sha256::sha256;

fn bench_pairing_substrate(c: &mut Criterion) {
    let mut rng = bench_rng(100);
    let s = Scalar::random_nonzero(&mut rng);
    let g1 = G1Projective::generator().mul_scalar(&s).to_affine();
    let g2 = G2Projective::generator().mul_scalar(&s).to_affine();

    let mut group = c.benchmark_group("pairing_substrate");
    group.sample_size(20);
    group.bench_function("fr_mul", |b| {
        let x = Scalar::random_nonzero(&mut rng);
        let y = Scalar::random_nonzero(&mut rng);
        b.iter(|| std::hint::black_box(x * y))
    });
    // the repo benchmark's `bigint.fp_inv_us`: under every `to_affine`
    group.bench_function("fp_inv", |b| {
        let x = Fp::random(&mut rng);
        b.iter(|| std::hint::black_box(x).invert())
    });
    // `pairing.g1_mul_us`, `g2_mul_us` and (below) `gt_pow_us`
    group.bench_function("g1_exp", |b| {
        b.iter(|| G1Projective::generator().mul_scalar(&s))
    });
    group.bench_function("g2_exp", |b| {
        b.iter(|| G2Projective::generator().mul_scalar(&s))
    });
    group.bench_function("pairing", |b| b.iter(|| pairing(&g1, &g2)));
    group.bench_function("pairing_product_2", |b| {
        let pairs = [(g1, g2), (-g1, G2Affine::generator())];
        b.iter(|| pairing_product(&pairs))
    });
    group.bench_function("g2_msm_128", |b| {
        let points: Vec<G2Affine> = (0..128)
            .map(|_| G2Projective::random(&mut rng).to_affine())
            .collect();
        let scalars: Vec<Scalar> = (0..128).map(|_| Scalar::random(&mut rng)).collect();
        b.iter(|| G2Projective::msm(&points, &scalars))
    });
    group.bench_function("gt_exp", |b| {
        let e = pairing(&g1, &g2);
        b.iter(|| e.pow(&s))
    });
    group.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetric");
    // the same four GCM points as the repo benchmark's `symcrypto.*` probes:
    // a 4 KiB object each way, a sweep-sized object, and the two per-object
    // fixed costs (table + key-schedule set-up, a 32-byte DEK wrap)
    let key = [7u8; 32];
    let gcm = AesGcm::new(&key);
    let data = vec![0xabu8; 4096];
    let sealed = gcm.seal(&[0u8; 12], b"", &data);
    group.bench_function("sha256_4k", |b| b.iter(|| sha256(&data)));
    group.bench_function("aes256gcm_seal_4k", |b| {
        b.iter(|| gcm.seal(&[0u8; 12], b"", &data))
    });
    group.bench_function("aes256gcm_open_4k", |b| {
        b.iter(|| gcm.open(&[0u8; 12], b"", &sealed))
    });
    group.bench_function("aes256gcm_seal_512b", |b| {
        b.iter(|| gcm.seal(&[0u8; 12], b"", &data[..512]))
    });
    group.bench_function("aes256gcm_new", |b| {
        b.iter(|| AesGcm::new(std::hint::black_box(&key)))
    });
    group.bench_function("aes256gcm_wrap_32b", |b| {
        b.iter(|| gcm.seal(&[0u8; 12], b"", &key))
    });
    group.finish();
}

fn bench_ibbe_paths(c: &mut Criterion) {
    // The paper's central ablation: MSK (enclave) encryption is linear,
    // public encryption quadratic — same ciphertext, hugely different cost.
    let mut rng = bench_rng(101);
    let (msk, pk) = ibbe::setup(128, &mut rng);
    let mut group = c.benchmark_group("ibbe_encrypt");
    group.sample_size(10);
    for n in [16usize, 64, 128] {
        let members = names(n);
        group.bench_with_input(BenchmarkId::new("msk_path", n), &members, |b, m| {
            b.iter(|| ibbe::encrypt_with_msk(&msk, &pk, m, &mut rng).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("public_path", n), &members, |b, m| {
            b.iter(|| ibbe::encrypt_public(&pk, m, &mut rng).unwrap())
        });
    }
    group.finish();

    // O(1) membership updates from C3 (Eqs. 6–7) vs full re-encryption.
    let members = names(64);
    let (_, ct) = ibbe::encrypt_with_msk(&msk, &pk, &members, &mut rng).unwrap();
    let mut group = c.benchmark_group("ibbe_updates");
    group.sample_size(10);
    group.bench_function("add_user_msk_o1", |b| {
        b.iter(|| ibbe::add_user_with_msk(&msk, &ct, "newcomer"))
    });
    group.bench_function("remove_user_msk_o1", |b| {
        b.iter(|| ibbe::remove_user_with_msk(&msk, &pk, &ct, &members[3], &mut rng))
    });
    group.bench_function("rekey_from_c3_o1", |b| {
        b.iter(|| ibbe::rekey(&pk, &ct, &mut rng))
    });
    group.bench_function("remove_via_full_reencrypt(ablation)", |b| {
        let rest: Vec<String> = members[1..].to_vec();
        b.iter(|| ibbe::encrypt_public(&pk, &rest, &mut rng).unwrap())
    });
    group.finish();
}

fn bench_engine_ops(c: &mut Criterion) {
    let mut rng = bench_rng(102);
    let engine = GroupEngine::bootstrap(PartitionSize::new(32).unwrap(), &mut rng).unwrap();
    let members = names(128);
    let meta = engine.create_group("g", members.clone()).unwrap();
    let usk = engine.extract_user_key(&members[0]).unwrap();

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.bench_function("create_group_128m_p32", |b| {
        b.iter(|| engine.create_group("g", members.clone()).unwrap())
    });
    group.bench_function("add_user", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let mut m = meta.clone();
            i += 1;
            engine.add_user(&mut m, &format!("probe-{i}")).unwrap()
        })
    });
    group.bench_function("remove_user", |b| {
        b.iter(|| {
            let mut m = meta.clone();
            engine.remove_user(&mut m, &members[1]).unwrap()
        })
    });
    group.bench_function("client_decrypt_p32", |b| {
        b.iter(|| {
            client_decrypt_from_partition(
                engine.public_key(),
                &usk,
                &members[0],
                "g",
                &meta.partitions[0],
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pairing_substrate,
    bench_symmetric,
    bench_ibbe_paths,
    bench_engine_ops
);
criterion_main!(benches);
