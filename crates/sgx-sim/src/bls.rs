//! Schnorr signatures over secp256k1, used for all authenticity in the SGX
//! simulation: platform quoting keys, the attestation service's report key,
//! the Auditor/CA certificate key, and the administrators' op-log entries.
//!
//! The module's name is historical (it held BLS signatures, whose one
//! advantage, aggregation, nothing here uses). Real SGX attestation (DCAP)
//! signs quotes with ECDSA over a prime-order curve, so a discrete-log
//! signature over one is the closer simulation as well as the cheaper one.
//!
//! Schnorr with 128-bit challenges (Schnorr, J. Cryptology 1991; Neven,
//! Smart and Warinschi, J. Math. Cryptology 2009). The secret is
//! `x ∈ [1, n)`, the key `P = x·G` (33 bytes, compressed):
//!
//! * **sign** — `k` is derived from `x` and the message (RFC 6979's idea:
//!   64 bytes of HMAC-SHA256 keyed by `x`, reduced mod `n`), `R = k·G`,
//!   `c = SHA-256(domain ‖ R ‖ P ‖ m)[..16]`, `s = k + c·x mod n`; the
//!   signature is `c ‖ s` (48 bytes);
//! * **verify** — `R' = s·G − c·P` (one fixed-base multiplication from
//!   [`generator_table`], one 128-bit variable-base one) must not be the
//!   identity and must hash back to `c`.
//!
//! The identity is never a key: with `P = ∞`, `R' = s·G` for any `s` and
//! anyone could sign. Like every kernel in the workspace the arithmetic is
//! variable-time.

use ibbe_pairing::k256::generator_table;
use ibbe_pairing::{K256Affine, K256Projective, ScalarK};
use symcrypto::hmac::HmacSha256;
use symcrypto::{ct_eq, Sha256};

const DOMAIN: &[u8] = b"sgx-sim-schnorr-v1";
const NONCE_DOMAIN: &[u8] = b"sgx-sim-schnorr-nonce-v1";

/// Challenge length in bytes (128-bit challenges).
const CHALLENGE_BYTES: usize = 16;

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SigningKey {
    sk: ScalarK,
    pk: VerifyingKey,
}

/// A Schnorr verification key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey(K256Affine);

/// A Schnorr signature `c ‖ s`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature {
    c: [u8; CHALLENGE_BYTES],
    s: ScalarK,
}

/// `c = SHA-256(domain ‖ R ‖ P ‖ m)`, truncated to 128 bits.
fn challenge(r: &K256Affine, pk: &K256Affine, msg: &[u8]) -> [u8; CHALLENGE_BYTES] {
    let mut h = Sha256::new();
    h.update(DOMAIN);
    h.update(&r.to_bytes());
    h.update(&pk.to_bytes());
    h.update(msg);
    let mut c = [0u8; CHALLENGE_BYTES];
    c.copy_from_slice(&h.finalize()[..CHALLENGE_BYTES]);
    c
}

/// The challenge as a scalar (128 bits, always below `n`).
fn challenge_scalar(c: &[u8; CHALLENGE_BYTES]) -> ScalarK {
    ScalarK::from_bytes_reduced(c)
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::from_scalar(ScalarK::random_nonzero(rng))
    }

    fn from_scalar(sk: ScalarK) -> Self {
        let pk = generator_table().mul_digits(&[sk.to_uint()]).to_affine();
        Self {
            sk,
            pk: VerifyingKey(pk),
        }
    }

    /// The corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.pk
    }

    /// The nonce: two HMAC-SHA256 blocks keyed by `x` over the message,
    /// reduced mod `n`; a zero draw (probability ≈ 2⁻²⁵⁶) moves to the
    /// next pair of blocks.
    fn nonce(&self, msg: &[u8]) -> ScalarK {
        let mut keyed = HmacSha256::new(&self.sk.to_bytes());
        keyed.update(NONCE_DOMAIN);
        let block = |counter: u32| {
            let mut mac = keyed.clone();
            mac.update(&counter.to_be_bytes());
            mac.update(msg);
            mac.finalize()
        };
        (0u32..)
            .map(|attempt| {
                let mut wide = [0u8; 64];
                wide[..32].copy_from_slice(&block(2 * attempt));
                wide[32..].copy_from_slice(&block(2 * attempt + 1));
                ScalarK::from_bytes_reduced(&wide)
            })
            .find(|k| !k.is_zero())
            .expect("a non-zero nonce")
    }

    /// Signs a message. Deterministic: the same key and message always
    /// give the same signature.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let k = self.nonce(msg);
        let r = generator_table().mul_digits(&[k.to_uint()]).to_affine();
        let c = challenge(&r, &self.pk.0, msg);
        let s = k + challenge_scalar(&c) * self.sk;
        Signature { c, s }
    }
}

impl VerifyingKey {
    /// `R' = s·G − c·P`, the commitment a signature claims.
    fn commitment(&self, sig: &Signature) -> K256Projective {
        let sg = generator_table().mul_digits(&[sig.s.to_uint()]);
        let cp = K256Projective::from(self.0).mul_scalar_k(&challenge_scalar(&sig.c));
        sg - cp
    }

    /// Verifies a signature; true iff valid. An identity key or an
    /// identity commitment never verifies.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if self.0.is_identity() {
            return false;
        }
        let r = self.commitment(sig);
        if r.is_identity() {
            return false;
        }
        ct_eq(&challenge(&r.to_affine(), &self.0, msg), &sig.c)
    }

    /// Serialized form (33 bytes, compressed secp256k1 point).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses a serialized key, rejecting off-curve points, a
    /// non-canonical coordinate (`x ≥ p`) and the identity.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        K256Affine::from_bytes(bytes)
            .filter(|p| !p.is_identity())
            .map(Self)
    }
}

impl Signature {
    /// Serialized form (48 bytes: the 16-byte challenge, then `s` as 32
    /// big-endian bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        [self.c.as_slice(), &self.s.to_bytes()].concat()
    }

    /// Parses exactly 48 bytes, rejecting a non-canonical `s ≥ n`.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (c, s) = bytes.split_first_chunk::<CHALLENGE_BYTES>()?;
        Some(Self {
            c: *c,
            s: ScalarK::from_bytes(s.try_into().ok()?)?,
        })
    }
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SigningKey(pk={:?}, sk=<redacted>)", self.pk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibbe_pairing::k256::{FpK, N_ORDER, P_MODULUS};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"report data");
        assert!(key.verifying_key().verify(b"report data", &sig));
    }

    /// Pinned against an independent big-integer implementation of the
    /// same construction (nonce, challenge and encoding as documented).
    #[test]
    fn known_answer() {
        let key = SigningKey::from_scalar(ScalarK::from_u64(0x5eed_cafe));
        assert_eq!(
            hex(&key.verifying_key().to_bytes()),
            "023391cb97903e07ade76161fc209269637f0c953559771e27ec2ae65f08924cb6"
        );
        let sig = key.sign(b"ibbe-sgx known answer");
        assert_eq!(
            hex(&sig.to_bytes()),
            "b229d1798db65f72604d96a02dabb7c0\
             47fa8af7ab65df4974687e294d9b8b6d4247c940be0bdd49c9ecdc85a71ca44a"
        );
        assert!(key.verifying_key().verify(b"ibbe-sgx known answer", &sig));
    }

    #[test]
    fn signing_is_deterministic_and_every_message_gets_its_own_nonce() {
        let key = SigningKey::generate(&mut rng());
        let vk = key.verifying_key();
        assert_eq!(key.sign(b"m").to_bytes(), key.sign(b"m").to_bytes());
        let commitments: Vec<_> = (0..32u32)
            .map(|i| {
                let msg = i.to_be_bytes();
                let sig = key.sign(&msg);
                assert!(vk.verify(&msg, &sig));
                vk.commitment(&sig).to_affine()
            })
            .collect();
        for (i, a) in commitments.iter().enumerate() {
            for b in &commitments[i + 1..] {
                assert_ne!(a, b, "two messages shared an R");
            }
        }
    }

    #[test]
    fn verify_rejects_wrong_message_and_key() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let other = SigningKey::generate(&mut rng);
        let sig = key.sign(b"m1");
        assert!(!key.verifying_key().verify(b"m2", &sig));
        assert!(!other.verifying_key().verify(b"m1", &sig));
    }

    #[test]
    fn serialization_roundtrips() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"x");
        let vk_bytes = key.verifying_key().to_bytes();
        assert_eq!(vk_bytes.len(), 33);
        assert_eq!(sig.to_bytes().len(), 48);
        let vk2 = VerifyingKey::from_bytes(&vk_bytes).unwrap();
        let sig2 = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(sig2, sig);
        assert!(vk2.verify(b"x", &sig2));
    }

    #[test]
    fn non_canonical_and_mis_sized_signatures_are_rejected() {
        let key = SigningKey::generate(&mut rng());
        let wire = key.sign(b"m").to_bytes();
        assert!(Signature::from_bytes(&wire[..47]).is_none());
        assert!(Signature::from_bytes(&[wire.as_slice(), &[0]].concat()).is_none());
        // s = n and s = 2²⁵⁶ − 1 are out of range
        let mut at_n = wire.clone();
        N_ORDER.write_be_bytes(&mut at_n[16..]);
        assert!(Signature::from_bytes(&at_n).is_none());
        let mut all_ones = wire.clone();
        all_ones[16..].fill(0xff);
        assert!(Signature::from_bytes(&all_ones).is_none());
        // the largest canonical s, n − 1, parses
        let mut top = wire;
        top[16..].copy_from_slice(&(-ScalarK::ONE).to_bytes());
        assert!(Signature::from_bytes(&top).is_some());
    }

    #[test]
    fn malformed_keys_are_rejected() {
        // x = p is not a canonical coordinate
        let mut at_p = vec![2u8; 33];
        P_MODULUS.write_be_bytes(&mut at_p[1..]);
        assert!(VerifyingKey::from_bytes(&at_p).is_none());
        // x = 5 has no y on the curve: 5³ + 7 = 132 is a non-residue mod p
        let mut off_curve = vec![2u8; 33];
        off_curve[1..].copy_from_slice(&FpK::from_u64(5).to_bytes());
        assert!(VerifyingKey::from_bytes(&off_curve).is_none());
        // the wrong lengths
        let good = SigningKey::generate(&mut rng()).verifying_key().to_bytes();
        assert!(VerifyingKey::from_bytes(&good[..32]).is_none());
        assert!(VerifyingKey::from_bytes(&[good.as_slice(), &[0]].concat()).is_none());
    }

    #[test]
    fn an_identity_commitment_never_verifies() {
        // s = c·x makes R' = s·G − c·P the identity; with c the hash of the
        // identity's encoding the signature would pass the hash check
        let key = SigningKey::generate(&mut rng());
        let msg = b"identity commitment";
        let c = challenge(&K256Affine::identity(), &key.pk.0, msg);
        let forged = Signature {
            c,
            s: challenge_scalar(&c) * key.sk,
        };
        assert!(key.pk.commitment(&forged).is_identity());
        assert!(!key.verifying_key().verify(msg, &forged));
    }

    #[test]
    fn the_identity_is_neither_a_key_nor_a_signature() {
        // with P = ∞, R' = s·G for any s: pick s, then c = H(s·G ‖ ∞ ‖ m)
        assert!(VerifyingKey::from_bytes(&[0; 33]).is_none());
        let zero_key = VerifyingKey(K256Affine::identity());
        let msg = b"any message";
        let s = ScalarK::from_u64(7);
        let r = generator_table().mul_digits(&[s.to_uint()]).to_affine();
        let forged = Signature {
            c: challenge(&r, &zero_key.0, msg),
            s,
        };
        assert!(!zero_key.verify(msg, &forged));
        // the all-zero signature (c = 0, s = 0) has R' = ∞ under any key
        let zero_sig = Signature::from_bytes(&[0; 48]).unwrap();
        let key = SigningKey::generate(&mut rng());
        assert!(!key.verifying_key().verify(msg, &zero_sig));
        assert!(!zero_key.verify(msg, &zero_sig));
        assert!(!zero_key.verify(msg, &key.sign(msg)));
    }

    #[test]
    fn garbage_deserialization_fails() {
        assert!(VerifyingKey::from_bytes(&[0xee; 33]).is_none());
        assert!(Signature::from_bytes(&[0xff; 48]).is_none());
        assert!(Signature::from_bytes(&[0xee; 49]).is_none());
    }
}
