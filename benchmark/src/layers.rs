//! Per-layer probes: direct timed calls into each crate's public functions.
//!
//! Every probe batches calls so one timed group is at least
//! [`GROUP_MIN_S`], takes the median group, and is calibrated by its own
//! bracket of reference-kernel bursts (see [`crate::calibrate`]). A
//! workload's traced run probes the layers that workload enters
//! (`Workload::probes`), on inputs of its shape; the other layers read 0
//! there. These numbers describe a layer, the span-derived ones in
//! [`crate::trace`] describe how the workload used it.

use crate::calibrate::Bracket;
use crate::stats::median;
use crate::workloads::Config;
use ibbe_sgx::acs::{Admin, AdminSigner, Auditor};
use ibbe_sgx::cloud::{CloudStore, Request};
use ibbe_sgx::core::{
    client_decrypt_from_partition, client_decrypt_group_key, GroupEngine, KeyRing, PartitionSize,
};
use ibbe_sgx::dataplane::{ClientSession, SealedObject, SweepConfig, Sweeper};
use ibbe_sgx::oplog::{
    consistency_proof, root_at, verify_consistency, LogCommitment, MerkleLog, TransitionProof,
};
use ibbe_sgx::pairing::{
    final_exponentiation, hash_to_scalar, miller_loop, pairing, Fp, G1Projective, G2Projective,
    Scalar,
};
use ibbe_sgx::sgx::bls::SigningKey;
use ibbe_sgx::sgx::EnclaveBuilder;
use ibbe_sgx::symcrypto::gcm::AesGcm;
use ibbe_sgx::symcrypto::sha256::sha256;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shortest timed group of calls.
const GROUP_MIN_S: f64 = 200e-6;
/// Timed groups per probe.
const GROUPS: usize = 11;
/// Members of the IBBE probes' partition (the membership workload's size).
const PARTITION: usize = 128;

/// Calibrated seconds per call of `f`: the median of [`GROUPS`] groups,
/// each batched to at least [`GROUP_MIN_S`]. Slow calls (≥ 20 ms) run five
/// groups of one.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let batch = (GROUP_MIN_S / once).ceil().max(1.0) as usize;
    let groups = if once >= 0.02 { 5 } else { GROUPS };
    let mut bracket = Bracket::open(true);
    let mut samples = Vec::with_capacity(groups);
    for _ in 0..groups {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples) * bracket.close()
}

/// Consumes a result the optimiser must not discard.
fn sink<T>(value: T) {
    let _ = black_box(value);
}

/// Name → value (in the unit `BENCHMARK.json` gives the metric).
pub type Values = Vec<(&'static str, f64)>;

const NS: f64 = 1e9;
const US: f64 = 1e6;
const MS: f64 = 1e3;

fn members(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("p{i:04}")).collect()
}

/// A fresh generator for a probe's inputs.
fn probe_rng(cfg: &Config) -> StdRng {
    StdRng::seed_from_u64(cfg.derive("probes"))
}

/// Everything the control plane is made of: `bigint`, `pairing`, `ibbe`,
/// `sgx_sim`, `core`, `oplog` at a log of `log_len` entries, and the
/// auditor.
pub fn control_plane(cfg: &Config, log_len: u64, out: &mut Values) {
    let rng = &mut probe_rng(cfg);
    bigint_and_pairing(rng, out);
    ibbe(rng, out);
    sgx_sim(rng, out);
    core(cfg, out);
    oplog(log_len, out);
    acs_audit(cfg, out);
}

fn bigint_and_pairing(rng: &mut StdRng, out: &mut Values) {
    let (a, b) = (Fp::random(rng), Fp::random(rng));
    let mut acc = a;
    out.push((
        "bigint.fp_mul_ns",
        per_call(|| acc = black_box(acc * b)) * NS,
    ));
    let (s, t) = (Scalar::random_nonzero(rng), Scalar::random_nonzero(rng));
    let mut sacc = s;
    out.push((
        "bigint.fr_mul_ns",
        per_call(|| sacc = black_box(sacc * t)) * NS,
    ));
    out.push((
        "bigint.fp_inv_us",
        per_call(|| sink(black_box(a).invert())) * US,
    ));

    let g1 = G1Projective::generator().mul_scalar(&s);
    let g2 = G2Projective::generator().mul_scalar(&t);
    let (p, q) = (g1.to_affine(), g2.to_affine());
    out.push((
        "pairing.pairing_ms",
        per_call(|| sink(pairing(&p, &q))) * MS,
    ));
    out.push((
        "pairing.miller_loop_ms",
        per_call(|| sink(miller_loop(&p, &q))) * MS,
    ));
    let f = miller_loop(&p, &q);
    out.push((
        "pairing.final_exp_ms",
        per_call(|| sink(final_exponentiation(&f))) * MS,
    ));
    out.push((
        "pairing.g1_mul_us",
        per_call(|| sink(g1.mul_scalar(&t))) * US,
    ));
    out.push((
        "pairing.g2_mul_us",
        per_call(|| sink(g2.mul_scalar(&s))) * US,
    ));
    let gt = pairing(&p, &q);
    out.push(("pairing.gt_pow_us", per_call(|| sink(gt.pow(&s))) * US));
    out.push((
        "pairing.hash_to_scalar_us",
        per_call(|| sink(hash_to_scalar(b"bench", b"u00042"))) * US,
    ));
}

fn ibbe(rng: &mut StdRng, out: &mut Values) {
    use ibbe_sgx::ibbe::{
        add_user_with_msk, decrypt, encrypt_with_msk, extract, rekey, remove_user_with_msk, setup,
    };
    let (msk, pk) = setup(PARTITION, rng);
    let set = members(PARTITION);
    let (_, ct) = encrypt_with_msk(&msk, &pk, &set, rng).expect("encrypt");
    out.push((
        "ibbe.encrypt_msk_ms",
        per_call(|| {
            sink(encrypt_with_msk(
                &msk,
                &pk,
                &set,
                &mut StdRng::seed_from_u64(1),
            ))
        }) * MS,
    ));
    let usk = extract(&msk, &set[5]);
    out.push((
        "ibbe.decrypt_ms",
        per_call(|| sink(decrypt(&pk, &usk, &set[5], &set, &ct))) * MS,
    ));
    out.push((
        "ibbe.rekey_ms",
        per_call(|| sink(rekey(&pk, &ct, &mut StdRng::seed_from_u64(2)))) * MS,
    ));
    let smaller = &set[..PARTITION - 1];
    let (_, ct_smaller) = encrypt_with_msk(&msk, &pk, smaller, rng).expect("encrypt");
    out.push((
        "ibbe.add_user_msk_us",
        per_call(|| sink(add_user_with_msk(&msk, &ct_smaller, &set[PARTITION - 1]))) * US,
    ));
    out.push((
        "ibbe.remove_user_msk_ms",
        per_call(|| {
            sink(remove_user_with_msk(
                &msk,
                &pk,
                &ct,
                &set[7],
                &mut StdRng::seed_from_u64(3),
            ));
        }) * MS,
    ));
    out.push((
        "ibbe.extract_us",
        per_call(|| sink(extract(&msk, &set[9]))) * US,
    ));
}

fn sgx_sim(rng: &mut StdRng, out: &mut Values) {
    let enclave = EnclaveBuilder::new(b"bench-probe")
        .deterministic_seed([5u8; 32])
        .build_with(|_| 0u64);
    out.push((
        "sgx_sim.ecall_ns",
        per_call(|| enclave.ecall(|state, _| *state += 1)) * NS,
    ));
    let secret = [7u8; 32];
    out.push((
        "sgx_sim.seal_us",
        per_call(|| sink(enclave.ecall(|_, ctx| ctx.seal(&secret, b"group")))) * US,
    ));
    let blob = enclave.ecall(|_, ctx| ctx.seal(&secret, b"group"));
    out.push((
        "sgx_sim.unseal_us",
        per_call(|| sink(enclave.ecall(|_, ctx| ctx.unseal(&blob, b"group")))) * US,
    ));
    let key = SigningKey::generate(rng);
    let msg = [0x5au8; 96];
    out.push((
        "sgx_sim.bls_sign_ms",
        per_call(|| sink(key.sign(&msg))) * MS,
    ));
    let (vk, sig) = (key.verifying_key(), key.sign(&msg));
    out.push((
        "sgx_sim.bls_verify_ms",
        per_call(|| sink(vk.verify(&msg, &sig))) * MS,
    ));
}

fn core(cfg: &Config, out: &mut Values) {
    let engine = GroupEngine::bootstrap_seeded(
        PartitionSize::new(PARTITION).expect("valid size"),
        cfg.engine_seed(),
    )
    .expect("engine boots");
    let set = members(PARTITION);
    out.push((
        "core.create_group_ms",
        per_call(|| sink(engine.create_group("probe", set.clone()))) * MS,
    ));
    out.push((
        "core.extract_user_key_us",
        per_call(|| sink(engine.extract_user_key(&set[3]))) * US,
    ));
    let mut meta = engine.create_group("probe", set.clone()).expect("group");
    let usk = engine.extract_user_key(&set[3]).expect("user key");
    let pk = engine.public_key().clone();
    out.push((
        "core.client_decrypt_ms",
        per_call(|| {
            sink(client_decrypt_from_partition(
                &pk,
                &usk,
                &set[3],
                "probe",
                &meta.partitions[0],
            ));
        }) * MS,
    ));
    // key-ring assembly over a history of 1 and of 16 retired keys
    for (name, rotations) in [
        ("core.keyring_assemble_1_us", 1usize),
        ("core.keyring_assemble_16_us", 15),
    ] {
        for _ in 0..rotations {
            engine.rekey_group(&mut meta).expect("re-key");
        }
        let gk = client_decrypt_group_key(&pk, &usk, &set[3], &meta).expect("member decrypts");
        let value = per_call(|| {
            sink(KeyRing::assemble(
                gk,
                meta.epoch,
                Some(&meta.key_history),
                "probe",
            ));
        });
        out.push((name, value * US));
    }
}

fn oplog(log_len: u64, out: &mut Values) {
    let log_len = log_len.max(2);
    let entry = [0x42u8; 120];
    let mut log = MerkleLog::new();
    for _ in 0..log_len {
        log.append(&entry);
    }
    let mut scratch = log.clone();
    out.push((
        "oplog.append_us",
        per_call(|| sink(scratch.append(&entry))) * US,
    ));
    let old = LogCommitment {
        size: log_len / 2,
        root: root_at(&log, log_len / 2).expect("old root"),
    };
    let new = log.commitment();
    let proof = consistency_proof(&log, old.size, new.size).expect("proof");
    out.push((
        "oplog.verify_consistency_us",
        per_call(|| sink(verify_consistency(&old, &new, &proof))) * US,
    ));
    let transition = TransitionProof::build(&log, log_len - 1).expect("transition");
    out.push((
        "oplog.transition_verify_us",
        per_call(|| sink(transition.verify())) * US,
    ));
    out.push((
        "oplog.consistency_proof_bytes",
        proof.to_bytes().len() as f64,
    ));
}

fn acs_audit(cfg: &Config, out: &mut Values) {
    const ENTRIES: usize = 8;
    let store = CloudStore::new();
    let engine = GroupEngine::bootstrap_seeded(
        PartitionSize::new(4).expect("valid size"),
        cfg.engine_seed(),
    )
    .expect("engine boots");
    let signer = AdminSigner::new(
        "probe-admin",
        &mut StdRng::seed_from_u64(cfg.derive("probe-signer")),
    );
    let key = signer.verifying_key();
    let admin = Admin::new(engine, store.clone()).with_signer(signer);
    admin.create_group("audit", members(4)).expect("group");
    for i in 1..ENTRIES {
        admin.add_user("audit", &format!("late-{i}")).expect("add");
    }
    let mut auditor = Auditor::new();
    auditor.register_admin("probe-admin", key);
    let handle = admin.store().clone();
    let secs = per_call(|| sink(Auditor::audit_group(&auditor, &handle, "audit")));
    out.push(("acs.audit_ms_per_entry", secs * MS / ENTRIES as f64));
}

/// The ciphers and the envelope over them, at 4 KiB and 512 B.
pub fn symcrypto_and_envelope(cfg: &Config, out: &mut Values) {
    let rng = &mut probe_rng(cfg);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let nonce = [9u8; 12];
    let aad = b"obj-00001\0\0\0\0\0\0\0\x01";
    let mut plain_4k = vec![0u8; 4096];
    rng.fill_bytes(&mut plain_4k);
    let plain_512 = &plain_4k[..512];
    let gcm = AesGcm::new(&key);
    let sealed_4k = gcm.seal(&nonce, aad, &plain_4k);
    // seconds per call; the four that make up an envelope seal are kept
    let seal_4k = per_call(|| sink(gcm.seal(&nonce, aad, &plain_4k)));
    let new = per_call(|| sink(AesGcm::new(black_box(&key))));
    let wrap = per_call(|| sink(gcm.seal(&nonce, aad, &key)));
    let sha_64 = per_call(|| sink(sha256(&plain_4k[..64])));
    out.extend([
        ("symcrypto.gcm_seal_4k_us", seal_4k * US),
        (
            "symcrypto.gcm_open_4k_us",
            per_call(|| sink(gcm.open(&nonce, aad, &sealed_4k))) * US,
        ),
        (
            "symcrypto.gcm_seal_512b_us",
            per_call(|| sink(gcm.seal(&nonce, aad, plain_512))) * US,
        ),
        ("symcrypto.gcm_new_ns", new * NS),
        ("symcrypto.gcm_wrap_32b_us", wrap * US),
        (
            "symcrypto.sha256_4k_us",
            per_call(|| sink(sha256(&plain_4k))) * US,
        ),
        ("symcrypto.sha256_64b_ns", sha_64 * NS),
    ]);

    // the envelope over the same payloads, on a one-epoch and a two-epoch ring
    let engine =
        GroupEngine::bootstrap_seeded(PartitionSize::new(4).expect("valid size"), [6u8; 32])
            .expect("engine");
    let set = members(4);
    let mut meta = engine.create_group("env", set.clone()).expect("group");
    let usk = engine.extract_user_key(&set[0]).expect("user key");
    let ring_of = |meta: &ibbe_sgx::core::GroupMetadata| {
        ibbe_sgx::core::client_decrypt_key_ring(engine.public_key(), &usk, &set[0], meta)
            .expect("ring")
    };
    let ring = ring_of(&meta);
    let mut nonces = StdRng::seed_from_u64(77);
    let envelope_seal_4k = per_call(|| {
        sink(SealedObject::seal(
            &ring,
            "obj-00001",
            &plain_4k,
            &mut nonces,
        ))
    });
    out.push(("dataplane.envelope_seal_4k_us", envelope_seal_4k * US));
    let object = SealedObject::seal(&ring, "obj-00001", &plain_4k, &mut nonces);
    out.push((
        "dataplane.envelope_open_4k_us",
        per_call(|| sink(object.open(&ring, "obj-00001"))) * US,
    ));
    let bytes = object.to_bytes();
    out.push((
        "dataplane.to_bytes_4k_ns",
        per_call(|| sink(object.to_bytes())) * NS,
    ));
    out.push((
        "dataplane.from_bytes_4k_ns",
        per_call(|| sink(SealedObject::from_bytes(&bytes))) * NS,
    ));
    // the envelope's own share of a 4 KiB seal: what is left after its
    // symcrypto parts (KEK hash, two key schedules, DEK wrap, payload seal)
    let parts = sha_64 + 2.0 * new + wrap + seal_4k;
    out.push((
        "dataplane.envelope_self_us",
        (envelope_seal_4k - parts) * US,
    ));

    let old_small = SealedObject::seal(&ring, "obj-00002", plain_512, &mut nonces);
    engine.rekey_group(&mut meta).expect("re-key");
    let ring2 = ring_of(&meta);
    out.push((
        "dataplane.envelope_reencrypt_512b_us",
        per_call(|| sink(old_small.reencrypt(&ring2, "obj-00002", &mut nonces))) * US,
    ));
}

pub fn cloud_store(out: &mut Values) {
    let store = CloudStore::new();
    let body = vec![0xabu8; 4193];
    store.put("f", "o", body.clone());
    out.push((
        "cloud_store.get_4k_ns",
        per_call(|| sink(store.get("f", "o"))) * NS,
    ));
    let mut version = store.get("f", "o").expect("stored").1;
    let payload = ibbe_sgx::cloud::Bytes::from(body);
    out.push((
        "cloud_store.cas_4k_ns",
        per_call(|| {
            version = store
                .put_if_version("f", "o", payload.clone(), version)
                .expect("uncontended")
        }) * NS,
    ));
    out.push((
        "cloud_store.poll_zero_ns",
        per_call(|| {
            let since = store.version();
            sink(store.long_poll("f", since, Duration::ZERO));
        }) * NS,
    ));
    let items: Vec<(String, Vec<u8>)> = (0..33)
        .map(|i| (format!("p{i:06}"), vec![0x11u8; 900]))
        .collect();
    out.push((
        "cloud_store.put_many_us",
        per_call(|| sink(store.put_many("meta", items.clone()))) * US,
    ));
    for i in 0..2500 {
        store.put("wide", &format!("obj-{i:05}"), vec![0u8; 64]);
    }
    out.push((
        "cloud_store.list_2500_us",
        per_call(|| sink(store.list("wide"))) * US,
    ));
    let handle = ibbe_sgx::cloud::StoreHandle::from(store.clone());
    out.push((
        "cloud_store.submit_wait_us",
        per_call(|| sink(handle.submit(Request::get("f", "o")).wait())) * US,
    ));
}

pub fn exec(out: &mut Values) {
    // completion() → completed on another thread → wait
    let (tx, rx) = mpsc::channel::<::exec::Completer<u64>>();
    let completer_thread = std::thread::spawn(move || {
        for completer in rx {
            completer.complete(1);
        }
    });
    out.push((
        "exec.ticket_roundtrip_us",
        per_call(|| {
            let (completer, ticket) = ::exec::completion::<u64>();
            tx.send(completer).expect("completer thread is alive");
            black_box(ticket.wait());
        }) * US,
    ));
    drop(tx);
    completer_thread
        .join()
        .expect("completer thread exits cleanly");

    let pool = ::exec::Executor::new(1);
    out.push((
        "exec.executor_spawn_us",
        per_call(|| {
            let (completer, ticket) = ::exec::completion::<u64>();
            pool.spawn(move || completer.complete(1));
            black_box(ticket.wait());
        }) * US,
    ));

    // a sleeper in wait_past, woken by a bump from another thread
    let waker = Arc::new(::exec::Waker::new());
    let (tx, rx) = mpsc::channel::<()>();
    let bumper = {
        let waker = Arc::clone(&waker);
        std::thread::spawn(move || {
            for () in rx {
                waker.bump();
            }
        })
    };
    out.push((
        "exec.waker_wake_us",
        per_call(|| {
            let seen = waker.current();
            tx.send(()).expect("bumper thread is alive");
            black_box(waker.wait_past(seen, Duration::from_secs(1)));
        }) * US,
    ));
    drop(tx);
    bumper.join().expect("bumper thread exits cleanly");
}

pub fn sweeper(cfg: &Config, out: &mut Values) {
    const OBJECTS: usize = 2500;
    let store = CloudStore::new();
    let engine = GroupEngine::bootstrap_seeded(
        PartitionSize::new(4).expect("valid size"),
        cfg.engine_seed(),
    )
    .expect("engine boots");
    let admin = Admin::new(engine, store.clone());
    admin.create_group("sw", members(4)).expect("group");
    let session = |seed: u64| {
        ClientSession::with_seed(
            "p0000",
            admin.engine().extract_user_key("p0000").expect("user key"),
            admin.engine().public_key().clone(),
            store.clone(),
            "sw",
            seed,
        )
    };
    let mut writer = session(1);
    let payload = vec![0x33u8; 512];
    for i in 0..OBJECTS {
        writer
            .write(&format!("obj-{i:05}"), &payload)
            .expect("pre-write");
    }
    let mut sweeper = Sweeper::new(session(2), SweepConfig::default());
    // nothing is stale yet: a pass is one scan (list + one GET per object)
    out.push((
        "dataplane.sweeper_scan_ms",
        per_call(|| sink(sweeper.begin_pass().expect("scan"))) * MS,
    ));
    // one rotation makes everything stale; step through the whole list
    admin.rekey_group("sw").expect("rotation");
    let mut pass = sweeper.begin_pass().expect("scan");
    let mut bracket = Bracket::open(true);
    let t = Instant::now();
    let mut migrated = 0;
    while !pass.is_drained() {
        migrated += pass.step(&mut sweeper, 32).expect("step");
    }
    let secs = t.elapsed().as_secs_f64() * bracket.close();
    out.push((
        "dataplane.sweeper_step_us_per_object",
        secs * US / migrated.max(1) as f64,
    ));
}

/// What one span site costs while no subscriber is installed: every
/// workload pays it at each layer boundary.
pub fn telemetry_disabled(out: &mut Values) {
    assert!(
        !ibbe_sgx::telemetry::enabled(),
        "measured with telemetry off"
    );
    out.push((
        "telemetry.disabled_site_ns",
        per_call(|| {
            sink(
                ibbe_sgx::telemetry::span("bench.probe")
                    .with("k", 1u64)
                    .enter(),
            )
        }) * NS,
    ));
}
