//! BLS signatures over BLS12-381, used for all authenticity in the SGX
//! simulation: platform quoting keys, the attestation service's report key,
//! and the Auditor/CA certificate key.
//!
//! Secret keys are scalars, public keys live in `G2`, signatures in `G1`:
//! `σ = H(m)^x`, verified by `e(σ, −g₂)·e(H(m), pk) = 1` — one pairing
//! product. The identity is neither a key nor a signature: `e(∞, ·) = 1`,
//! so an identity pair would verify every message.

use ibbe_pairing::{hash_to_g1, pairing_product, G1Affine, G2Affine, G2Projective, Scalar};

const DOMAIN: &[u8] = b"sgx-sim-bls-v1";

/// A BLS signing key.
#[derive(Clone)]
pub struct SigningKey {
    sk: Scalar,
    pk: VerifyingKey,
}

/// A BLS verification key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey(pub(crate) G2Affine);

/// A BLS signature.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub(crate) G1Affine);

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        let sk = Scalar::random_nonzero(rng);
        let pk = VerifyingKey(G2Projective::generator().mul_scalar(&sk).to_affine());
        Self { sk, pk }
    }

    /// The corresponding verification key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.pk
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let h = hash_to_g1(DOMAIN, msg);
        Signature(h.mul_scalar(&self.sk))
    }
}

impl VerifyingKey {
    /// Verifies a signature; true iff valid. An identity key or signature
    /// never verifies.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if self.0.is_identity() || sig.0.is_identity() {
            return false;
        }
        let h = hash_to_g1(DOMAIN, msg);
        pairing_product(&[(sig.0, -G2Affine::generator()), (h, self.0)]).is_identity()
    }

    /// Serialized form (97 bytes, compressed `G2`).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses a serialized key, validating group membership and rejecting
    /// the identity.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        G2Affine::from_bytes(bytes)
            .filter(|p| !p.is_identity())
            .map(Self)
    }
}

impl Signature {
    /// Serialized form (49 bytes, compressed `G1`).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses a serialized signature, validating group membership.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        G1Affine::from_bytes(bytes).map(Self)
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
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = rng();
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"report data");
        assert!(key.verifying_key().verify(b"report data", &sig));
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
        let vk2 = VerifyingKey::from_bytes(&key.verifying_key().to_bytes()).unwrap();
        let sig2 = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(vk2.verify(b"x", &sig2));
    }

    #[test]
    fn the_identity_is_neither_a_key_nor_a_signature() {
        // e(∞, g₂) = e(H(m), ∞) = 1: the all-zero pair used to verify anything
        assert!(VerifyingKey::from_bytes(&[0; 97]).is_none());
        let zero_key = VerifyingKey(G2Affine::identity());
        let zero_sig = Signature(G1Affine::identity());
        assert!(!zero_key.verify(b"any message", &zero_sig));
        let key = SigningKey::generate(&mut rng());
        assert!(!key.verifying_key().verify(b"any message", &zero_sig));
        assert!(!zero_key.verify(b"any message", &key.sign(b"any message")));
    }

    #[test]
    fn garbage_deserialization_fails() {
        assert!(VerifyingKey::from_bytes(&[0xee; 97]).is_none());
        assert!(Signature::from_bytes(&[0xee; 49]).is_none());
    }
}
