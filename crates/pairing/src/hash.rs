//! Hashing identities into the scalar field and into `G1`.
//!
//! * [`hash_to_scalar`] is the paper's `H : {0,1}* → Z_p*` used by IBBE to
//!   map user identities to exponents.
//! * [`hash_to_g1`] maps identities to `G1` points (needed by the
//!   Boneh–Franklin HE-IBE baseline). It uses SHA-256-based try-and-increment
//!   followed by cofactor clearing with the effective cofactor
//!   `h_eff = 1 − x` (RFC 9380 §8.8.1), derived and checked against the
//!   `#E(Fp)/r` cofactor at start-up.

use crate::fp::Fp;
use crate::fr::Scalar;
use crate::g1::{G1Affine, G1Projective};
use crate::pairing::g1_h_eff;
use symcrypto::sha256::Sha256;

fn domain_hash(domain: &[u8], msg: &[u8], counter: u32) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&(domain.len() as u64).to_be_bytes());
    h.update(domain);
    h.update(&counter.to_be_bytes());
    h.update(msg);
    h.finalize()
}

/// Hashes an arbitrary message to a **non-zero** scalar, with domain
/// separation.
///
/// Two SHA-256 blocks (64 bytes) are reduced modulo `r`, giving negligible
/// bias; the zero output (probability ≈ 2⁻²⁵⁵) is handled by re-hashing with
/// an incremented counter so the function is total.
///
/// ```
/// use ibbe_pairing::hash_to_scalar;
/// let a = hash_to_scalar(b"ibbe-v1", b"alice@example.org");
/// let b = hash_to_scalar(b"ibbe-v1", b"bob@example.org");
/// assert_ne!(a, b);
/// ```
pub fn hash_to_scalar(domain: &[u8], msg: &[u8]) -> Scalar {
    let mut counter = 0u32;
    loop {
        let d0 = domain_hash(domain, msg, counter);
        let d1 = domain_hash(domain, msg, counter.wrapping_add(0x8000_0000));
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d0);
        wide[32..].copy_from_slice(&d1);
        let s = Scalar::from_bytes_reduced(&wide);
        if !s.is_zero() {
            return s;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Hashes an arbitrary message to a `G1` subgroup element (never the
/// identity), with domain separation.
///
/// Try-and-increment: derive candidate x-coordinates from the hash until one
/// lies on the curve, then clear the cofactor. Constant-time behaviour is
/// **not** a goal here — identities are public in the paper's model (§II).
pub fn hash_to_g1(domain: &[u8], msg: &[u8]) -> G1Affine {
    let mut counter = 0u32;
    loop {
        let d0 = domain_hash(domain, msg, counter);
        let d1 = domain_hash(domain, msg, counter | 0x4000_0000);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d0);
        wide[32..].copy_from_slice(&d1);
        let x = Fp::from_bytes_reduced(&wide);
        let y2 = x.square() * x + Fp::from_u64(4);
        if let Some(mut y) = y2.sqrt() {
            // pick the sign deterministically from the hash
            if (d0[0] & 1 == 1) != y.is_lexicographically_largest() {
                y = -y;
            }
            let p: G1Projective = G1Affine::from_xy_unchecked(x, y).into();
            let cleared = p.mul_uint(&g1_h_eff());
            if !cleared.is_identity() {
                return cleared.to_affine();
            }
        }
        counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_hash_is_deterministic_and_domain_separated() {
        let a = hash_to_scalar(b"d1", b"alice");
        assert_eq!(a, hash_to_scalar(b"d1", b"alice"));
        assert_ne!(a, hash_to_scalar(b"d2", b"alice"));
        assert_ne!(a, hash_to_scalar(b"d1", b"bob"));
        // length-prefixed domain: ("ab","c") != ("a","bc")
        assert_ne!(hash_to_scalar(b"ab", b"c"), hash_to_scalar(b"a", b"bc"));
    }

    #[test]
    fn scalar_hash_nonzero() {
        for i in 0..50u32 {
            assert!(!hash_to_scalar(b"t", &i.to_be_bytes()).is_zero());
        }
    }

    #[test]
    fn g1_hash_lands_in_subgroup() {
        for name in ["alice", "bob", "carol"] {
            let p = hash_to_g1(b"ibe", name.as_bytes());
            assert!(p.is_on_curve(), "{name}");
            assert!(p.is_in_subgroup(), "{name}");
            assert!(!p.is_identity(), "{name}");
        }
    }

    #[test]
    fn g1_hash_is_deterministic_and_injective_on_samples() {
        let a = hash_to_g1(b"ibe", b"alice");
        assert_eq!(a, hash_to_g1(b"ibe", b"alice"));
        assert_ne!(a, hash_to_g1(b"ibe", b"bob"));
        assert_ne!(a, hash_to_g1(b"other", b"alice"));
    }
}
