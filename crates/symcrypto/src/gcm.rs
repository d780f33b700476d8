//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! GHASH multiplies by the hash subkey `H` through per-key tables instead of
//! bit by bit. A field element is a `u128` in GCM's reflected order (the
//! coefficient of `x⁰` is the most significant bit), so `·x` is a right
//! shift plus a conditional XOR of `R = 0xe1 ∥ 0¹²⁰`. Per key two 16-entry
//! tables hold `n·H` for a nibble `n` in the top and in the second nibble of
//! a block; one key-independent 256-entry table holds what the low byte of
//! an accumulator reduces to when it is shifted out by `·x⁸`. A multiply is
//! then 16 byte steps of Horner's rule from the least significant byte, and
//! the payload is folded two blocks at a time, `y ← (y ⊕ x₀)·H² ⊕ x₁·H`,
//! as two chains with no dependency between them. The tables are 512 B per
//! power of `H`, cheap enough to build for a key that seals one 32-byte DEK.
//!
//! The table indices are secret (accumulator and ciphertext nibbles), as the
//! bit-serial multiply's branches on the bits of `H` were: like [`crate::aes`]
//! this simulates hardware GCM and is not side-channel hardened.

use crate::aes::{ctr_xor, Aes, BLOCK_LEN};
use crate::hmac::ct_eq;

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Nonce (IV) length in bytes; only the standard 96-bit IV is supported.
pub const NONCE_LEN: usize = 12;

/// Error returned when decryption fails authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GCM authentication failed")
    }
}

impl std::error::Error for AuthError {}

/// `v·x` in GF(2¹²⁸), GCM bit order (reduction polynomial `0xe1 ∥ 0¹²⁰`).
const fn mulx(v: u128) -> u128 {
    (v >> 1) ^ ((v & 1) * (0xe1 << 120))
}

/// `out[r]` is the top 16 bits of `r·x^steps` for `r` in the lowest `steps`
/// bits of an element: what those bits fold back to when `·x^steps` shifts
/// them out (the rest of the product is zero for `steps ≤ 8`).
const fn reduce_table<const N: usize>(steps: usize) -> [u16; N] {
    let mut out = [0u16; N];
    let mut r = 0;
    while r < N {
        let mut v = r as u128;
        let mut i = 0;
        while i < steps {
            v = mulx(v);
            i += 1;
        }
        out[r] = (v >> 112) as u16;
        r += 1;
    }
    out
}

static REDUCE4: [u16; 16] = reduce_table(4);
static REDUCE8: [u16; 256] = reduce_table(8);

/// Multiplication tables for one power of the hash subkey.
#[derive(Clone)]
struct GhashKey {
    /// `t[n] = n·H`, `n` read as the top nibble of a block.
    t: [u128; 16],
    /// `ta[n] = t[n]·x⁴`: `n` read as the second nibble.
    ta: [u128; 16],
}

impl GhashKey {
    fn new(h: u128) -> Self {
        let mut t = [0u128; 16];
        t[8] = h;
        t[4] = mulx(t[8]);
        t[2] = mulx(t[4]);
        t[1] = mulx(t[2]);
        for bit in [2, 4, 8] {
            for low in 1..bit {
                t[bit | low] = t[bit] ^ t[low];
            }
        }
        let ta = t.map(|v| (v >> 4) ^ (u128::from(REDUCE4[(v & 0xf) as usize]) << 112));
        Self { t, ta }
    }

    /// One Horner step: `z·x⁸ ⊕ b·H`, `b` read as the top byte of a block.
    #[inline(always)]
    fn step(&self, z: u128, b: u8) -> u128 {
        (z >> 8)
            ^ (u128::from(REDUCE8[(z & 0xff) as usize]) << 112)
            ^ self.ta[(b & 0xf) as usize]
            ^ self.t[(b >> 4) as usize]
    }

    /// `x·H`.
    fn mul(&self, x: u128) -> u128 {
        x.to_le_bytes().iter().fold(0, |z, &b| self.step(z, b))
    }
}

impl core::fmt::Debug for GhashKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GhashKey(redacted)")
    }
}

fn block_to_u128(b: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..b.len()].copy_from_slice(b);
    u128::from_be_bytes(buf)
}

/// An AES-GCM key (any AES key size accepted by [`Aes::new`]).
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    h: GhashKey,
    h2: GhashKey,
}

impl AesGcm {
    /// Creates a GCM instance from raw key bytes (16 or 32).
    pub fn new(key: &[u8]) -> Self {
        let aes = Aes::new(key);
        let hash_subkey = u128::from_be_bytes(aes.encrypt_block_copy(&[0u8; 16]));
        let h = GhashKey::new(hash_subkey);
        let h2 = GhashKey::new(h.mul(hash_subkey));
        Self { aes, h, h2 }
    }

    /// The counter block `nonce ‖ counter`: `J0` at 1, the first payload
    /// block at 2.
    fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..NONCE_LEN].copy_from_slice(nonce);
        block[NONCE_LEN..].copy_from_slice(&counter.to_be_bytes());
        block
    }

    /// Folds `data`, zero-padded to whole blocks, into the GHASH state `y`.
    fn absorb(&self, mut y: u128, data: &[u8]) -> u128 {
        let mut pairs = data.chunks_exact(2 * BLOCK_LEN);
        for pair in &mut pairs {
            let x0 = y ^ block_to_u128(&pair[..BLOCK_LEN]);
            let x1 = block_to_u128(&pair[BLOCK_LEN..]);
            // (x0·H ⊕ x1)·H = x0·H² ⊕ x1·H, the two products stepped together
            let (mut z0, mut z1) = (0, 0);
            for (&b0, &b1) in x0.to_le_bytes().iter().zip(&x1.to_le_bytes()) {
                z0 = self.h2.step(z0, b0);
                z1 = self.h.step(z1, b1);
            }
            y = z0 ^ z1;
        }
        for block in pairs.remainder().chunks(BLOCK_LEN) {
            y = self.h.mul(y ^ block_to_u128(block));
        }
        y
    }

    /// `GHASH_H(aad, ct) ⊕ E_K(J0)`.
    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let y = self.absorb(self.absorb(0, aad), ct);
        let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        let s = self.h.mul(y ^ lens);
        let ek_j0 = self.aes.encrypt_block_copy(&Self::counter_block(nonce, 1));
        (s ^ u128::from_be_bytes(ek_j0)).to_be_bytes()
    }

    /// Encrypts `plaintext` with associated data `aad`, returning
    /// `ciphertext ‖ tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        ctr_xor(&self.aes, &Self::counter_block(nonce, 2), &mut out);
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts `ciphertext ‖ tag`.
    ///
    /// # Errors
    /// Returns [`AuthError`] if the input is too short or the tag does not
    /// verify; no plaintext is released in that case.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(AuthError);
        }
        let (ct, tag) = ciphertext_and_tag.split_at(ciphertext_and_tag.len() - TAG_LEN);
        if !ct_eq(&self.tag(nonce, aad, ct), tag) {
            return Err(AuthError);
        }
        let mut pt = ct.to_vec();
        ctr_xor(&self.aes, &Self::counter_block(nonce, 2), &mut pt);
        Ok(pt)
    }
}

impl core::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AesGcm({:?}, hash subkey redacted)", self.aes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gf_mul;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn nist_aes128_gcm_empty() {
        // NIST GCM test case 1
        let gcm = AesGcm::new(&[0u8; 16]);
        // Tag = E_K(J0); value cross-checked against `openssl enc -aes-128-ecb`.
        let out = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex(&out), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_aes128_gcm_one_block() {
        // NIST GCM test case 2
        let gcm = AesGcm::new(&[0u8; 16]);
        let out = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(
            hex(&out),
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"
        );
    }

    #[test]
    fn nist_aes256_gcm_empty() {
        // NIST GCM test case 13
        let gcm = AesGcm::new(&[0u8; 32]);
        let out = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex(&out), "530f8afbc74536b9a963b4f1c4cb738b");
    }

    #[test]
    fn nist_aes256_gcm_one_block() {
        // NIST GCM test case 14
        let gcm = AesGcm::new(&[0u8; 32]);
        let out = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(
            hex(&out),
            "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"
        );
    }

    #[test]
    fn roundtrip_with_aad() {
        let gcm = AesGcm::new(&[42u8; 32]);
        let nonce = [1u8; 12];
        let sealed = gcm.seal(&nonce, b"header", b"the group key");
        let opened = gcm.open(&nonce, b"header", &sealed).unwrap();
        assert_eq!(opened, b"the group key");
    }

    #[test]
    fn tamper_detection() {
        let gcm = AesGcm::new(&[42u8; 32]);
        let nonce = [1u8; 12];
        let mut sealed = gcm.seal(&nonce, b"aad", b"secret");
        // flip a ciphertext bit
        sealed[0] ^= 1;
        assert_eq!(gcm.open(&nonce, b"aad", &sealed), Err(AuthError));
        sealed[0] ^= 1;
        // wrong AAD
        assert_eq!(gcm.open(&nonce, b"aax", &sealed), Err(AuthError));
        // truncated input
        assert_eq!(gcm.open(&nonce, b"aad", &sealed[..10]), Err(AuthError));
        // wrong nonce
        assert_eq!(gcm.open(&[2u8; 12], b"aad", &sealed), Err(AuthError));
        // original still opens
        assert!(gcm.open(&nonce, b"aad", &sealed).is_ok());
    }

    #[test]
    fn gf_mul_is_commutative_and_distributive() {
        let a = 0x0123456789abcdef0123456789abcdefu128;
        let b = 0xfedcba9876543210fedcba9876543210u128;
        let c = 0xaaaaaaaaaaaaaaaa5555555555555555u128;
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
        assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
        assert_eq!(gf_mul(a, 0), 0);
    }

    proptest! {
        #[test]
        fn table_multiply_matches_bit_serial(x in any::<u128>(), h in any::<u128>()) {
            let key = GhashKey::new(h);
            for x in [x, 0, u128::MAX, 1, 1 << 127] {
                prop_assert_eq!(key.mul(x), gf_mul(x, h));
            }
            for h in [0, u128::MAX] {
                prop_assert_eq!(GhashKey::new(h).mul(x), gf_mul(x, h));
            }
        }
    }

    /// McGrew–Viega GCM spec test cases 3/4 (AES-128) and 15/16 (AES-256):
    /// four blocks, and 60 bytes under 20 bytes of AAD.
    #[test]
    fn gcm_spec_cases_with_aad_and_several_blocks() {
        let key = unhex("feffe9928665731c6d6a8f9467308308");
        let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let pt = unhex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let ct128 = "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                     21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985";
        let ct256 = "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
                     8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";
        let no_aad = &b""[..];
        // (test case, key = `key` × n, payload bytes, AAD, ciphertext, tag)
        let cases = [
            (3, 1, 64, no_aad, ct128, "4d5c2af327cd64a62cf35abd2ba6fab4"),
            (
                4,
                1,
                60,
                &aad[..],
                ct128,
                "5bc94fbc3221a5db94fae95ae7121a47",
            ),
            (15, 2, 64, no_aad, ct256, "b094dac5d93471bdec1a502270e3cc6c"),
            (
                16,
                2,
                60,
                &aad[..],
                ct256,
                "76fc6ece0f4e1768cddf8853bb2d551b",
            ),
        ];
        for (case, key_repeats, len, aad, ct, tag) in cases {
            let gcm = AesGcm::new(&key.repeat(key_repeats));
            let sealed = gcm.seal(&nonce, aad, &pt[..len]);
            let expected = format!("{}{tag}", &ct[..2 * len]);
            assert_eq!(hex(&sealed), expected, "test case {case}");
            assert_eq!(gcm.open(&nonce, aad, &sealed).unwrap(), &pt[..len]);
        }
    }

    #[test]
    fn debug_output_is_independent_of_the_key() {
        let (a, b) = (AesGcm::new(&[0u8; 32]), AesGcm::new(&[0xa5u8; 32]));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{:?}", a.h), format!("{:?}", b.h));
    }

    #[test]
    fn multiblock_and_unaligned_lengths() {
        let gcm = AesGcm::new(&unhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ));
        for len in [1usize, 15, 16, 17, 31, 32, 100] {
            let pt: Vec<u8> = (0..len as u8).collect();
            let nonce = [3u8; 12];
            let sealed = gcm.seal(&nonce, b"x", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(gcm.open(&nonce, b"x", &sealed).unwrap(), pt, "len={len}");
        }
    }
}
