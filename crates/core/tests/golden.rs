//! Golden bytes: everything a seeded engine publishes, pinned by SHA-256.
//!
//! The digests were taken before the `pairing` kernels were replaced
//! (Straus MSM, wNAF scalar multiplication, projective multi-Miller loop,
//! `x`-chain final exponentiation). They move only if a group element, the
//! RNG draw order or the wire format moves — which no arithmetic
//! optimisation is allowed to do.

use ibbe_sgx_core::{client_decrypt_group_key, GroupEngine, GroupMetadata, PartitionSize};
use symcrypto::sha256::{sha256, Sha256};

const GOLDEN: [(&str, &str); 6] = [
    (
        "create_group",
        "f83e8e3ef2267964cd1ef866feb65512c1d7341abb1b830e4ed4f99eda392779",
    ),
    (
        "add_user",
        "60d4c752a19d15b2bc070d2d7303e4c7dc564617b63159f98e66c178b800d976",
    ),
    (
        "remove_user",
        "e6de1f1c2619b42c2811c7ea121cc27490e3a9ab495d2c867e3883c005bd512d",
    ),
    (
        "rekey_group",
        "ab6a0c5ea4562a3bb33f9ecf8d4bd29a28f4600e7ad0746cf8c689496d9d290f",
    ),
    (
        "user secret key",
        "2f5d632c59c64355dd0494aa9c170957318ab6481ae48abf40ed200076d55433",
    ),
    (
        "derived group key",
        "32fc6d2e85ab0daf58abe3a337b3f325a9c33ca1ba5ca1e5029547ae8f593d44",
    ),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn digest(bytes: &[u8]) -> String {
    hex(&sha256(bytes))
}

/// SHA-256 over every partition's published bytes, length-framed.
fn published(meta: &GroupMetadata) -> String {
    let mut h = Sha256::new();
    for p in &meta.partitions {
        let bytes = p.to_bytes();
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(&bytes);
    }
    hex(&h.finalize())
}

#[test]
fn seeded_engine_publishes_the_pinned_bytes() {
    let engine = GroupEngine::bootstrap_seeded(PartitionSize::new(64).unwrap(), [7u8; 32]).unwrap();
    let members: Vec<String> = (0..300).map(|i| format!("member-{i:03}")).collect();
    let mut got = Vec::new();

    let mut meta = engine.create_group("golden", members).unwrap();
    assert_eq!(meta.partition_count(), 5);
    got.push(("create_group", published(&meta)));

    engine.add_user(&mut meta, "late-joiner").unwrap();
    got.push(("add_user", published(&meta)));

    engine.remove_user(&mut meta, "member-100").unwrap();
    got.push(("remove_user", published(&meta)));

    engine.rekey_group(&mut meta).unwrap();
    got.push(("rekey_group", published(&meta)));

    // member-299 sits in the last partition, which "late-joiner" filled up
    let usk = engine.extract_user_key("member-299").unwrap();
    got.push(("user secret key", digest(&usk.to_bytes())));
    let gk = client_decrypt_group_key(engine.public_key(), &usk, "member-299", &meta).unwrap();
    got.push(("derived group key", digest(gk.as_bytes())));

    let got: Vec<(&str, &str)> = got.iter().map(|(k, v)| (*k, v.as_str())).collect();
    assert_eq!(got, GOLDEN);
}
