//! Property-based tests: AEAD roundtrips under arbitrary inputs, CTR
//! involution, SHA-256 incremental consistency, HKDF determinism — and the
//! table kernels against the byte-wise / bit-serial oracles in `reference`
//! (round trips alone would pass a GHASH that is wrong the same way on both
//! sides).

mod reference;

use proptest::prelude::*;
use symcrypto::aes::{ctr_xor, Aes};
use symcrypto::gcm::AesGcm;
use symcrypto::hmac::{hkdf, hmac_sha256};
use symcrypto::sha256::{sha256, Sha256};

/// Payload lengths on both sides of the two-block fold boundary and of the
/// partial tail, crossed with AAD lengths that end on, before and past a
/// block; each side computes ciphertext and tag independently.
#[test]
fn seal_matches_the_oracle_across_the_pair_and_tail_boundaries() {
    let key: Vec<u8> = (0..32).map(|i| 0xc3 ^ (i * 7)).collect();
    let nonce = *b"\x01\x02\x03\x04nonce678";
    let bytes: Vec<u8> = (0..4097u32).map(|i| (i * 31 + (i >> 8)) as u8).collect();
    for key in [&key[..], &key[..16]] {
        let gcm = AesGcm::new(key);
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 47, 48, 4096, 4097] {
            for aad_len in [0, 1, 16, 17, 40] {
                let (aad, pt) = (&bytes[100..100 + aad_len], &bytes[..len]);
                assert_eq!(
                    gcm.seal(&nonce, aad, pt),
                    reference::seal(key, &nonce, aad, pt),
                    "key {} B, payload {len} B, aad {aad_len} B",
                    key.len()
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn block_matches_the_bytewise_oracle(
        key in any::<[u8; 32]>(),
        block in any::<[u8; 16]>(),
    ) {
        for key in [&key[..], &key[..16]] {
            prop_assert_eq!(
                Aes::new(key).encrypt_block_copy(&block),
                reference::Aes::new(key).encrypt_block(&block)
            );
        }
    }

    #[test]
    fn seal_matches_the_oracle_arbitrary(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        prop_assert_eq!(
            AesGcm::new(&key).seal(&nonce, &aad, &pt),
            reference::seal(&key, &nonce, &aad, &pt)
        );
    }

    #[test]
    fn gcm_roundtrip_arbitrary(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        pt in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &pt);
        prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn gcm_any_single_bit_flip_fails(
        key in any::<[u8; 32]>(),
        pt in proptest::collection::vec(any::<u8>(), 1..64),
        flip_bit in 0usize..64,
    ) {
        let gcm = AesGcm::new(&key);
        let nonce = [0u8; 12];
        let mut sealed = gcm.seal(&nonce, b"", &pt);
        let bit = flip_bit % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(gcm.open(&nonce, b"", &sealed).is_err());
    }

    #[test]
    fn ctr_is_an_involution(
        key in any::<[u8; 32]>(),
        iv in any::<[u8; 16]>(),
        mut data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aes = Aes::new(&key);
        let orig = data.clone();
        ctr_xor(&aes, &iv, &mut data);
        ctr_xor(&aes, &iv, &mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(
        k1 in proptest::collection::vec(any::<u8>(), 1..48),
        k2 in proptest::collection::vec(any::<u8>(), 1..48),
        msg in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        if k1 != k2 {
            prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }
    }

    #[test]
    fn hkdf_is_deterministic_and_info_separated(
        ikm in proptest::collection::vec(any::<u8>(), 1..64),
        info1 in proptest::collection::vec(any::<u8>(), 0..32),
        info2 in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut a = [0u8; 42];
        let mut b = [0u8; 42];
        hkdf(b"salt", &ikm, &info1, &mut a);
        hkdf(b"salt", &ikm, &info1, &mut b);
        prop_assert_eq!(a, b);
        if info1 != info2 {
            let mut c = [0u8; 42];
            hkdf(b"salt", &ikm, &info2, &mut c);
            prop_assert_ne!(a, c);
        }
    }
}
