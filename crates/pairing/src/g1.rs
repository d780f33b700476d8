//! The group `G1 = E(Fp)[r]` with `E: y² = x³ + 4`.
//!
//! `E` has `j = 0`, so `φ(x, y) = (βx, y)` for a primitive cube root of
//! unity `β` is an endomorphism with `φ² + φ + 1 = 0`. On `G1` it is `[λ]`
//! for `λ = −x²`, and `G1` is exactly where it is: `φ(P) = [λ]P` forces
//! `[λ² + λ + 1]P = [r]P = ∞`. Scalar multiplication and the subgroup test
//! both run on `−φ = [x²]` (see [`crate::curve`]).

use crate::curve::{Affine, Curve, Projective};
use crate::fp::Fp;
use crate::fr::Scalar;
use crate::pairing::{g1_times_x_squared, x_digits, BLS_X_ABS, X_SQUARED};
use ibbe_bigint::Uint;

/// Marker type for the `G1` curve parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G1Params;

/// x-coordinate of the standard `G1` generator.
const GEN_X: Uint<6> = Uint::new([
    0xfb3a_f00a_db22_c6bb,
    0x6c55_e83f_f97a_1aef,
    0xa14e_3a3f_171b_ac58,
    0xc368_8c4f_9774_b905,
    0x2695_638c_4fa9_ac0f,
    0x17f1_d3a7_3197_d794,
]);

/// y-coordinate of the standard `G1` generator.
const GEN_Y: Uint<6> = Uint::new([
    0x0caa_2329_46c5_e7e1,
    0xd03c_c744_a288_8ae4,
    0x00db_18cb_2c04_b3ed,
    0xfcf5_e095_d5d0_0af6,
    0xa09e_30ed_741d_8ae4,
    0x08b3_f481_e3aa_a0f1,
]);

impl Curve for G1Params {
    type Base = Fp;

    fn b() -> Fp {
        Fp::from_u64(4)
    }

    fn generator_xy() -> (Fp, Fp) {
        (
            Fp::from_uint(&GEN_X).expect("generator x is canonical"),
            Fp::from_uint(&GEN_Y).expect("generator y is canonical"),
        )
    }

    fn name() -> &'static str {
        "G1"
    }

    fn is_in_prime_subgroup(p: &G1Projective) -> bool {
        G1Projective::from(g1_times_x_squared(&p.to_affine())) == p.mul_uint(&X_SQUARED)
    }

    /// `[k]P = [k₀]P + [k₁](−φ)(P)` for `k = k₀ + k₁·x²`: the base-`|x|`
    /// digits in pairs, each below `x² < 2¹²⁸`.
    fn split(k: &Scalar) -> Vec<Uint<4>> {
        let [d0, d1, d2, d3] = x_digits(k);
        [(d0, d1), (d2, d3)]
            .into_iter()
            .map(|(lo, hi)| {
                let v = u128::from(hi) * u128::from(BLS_X_ABS) + u128::from(lo);
                Uint::new([v as u64, (v >> 64) as u64, 0, 0])
            })
            .collect()
    }

    fn eta(p: &G1Affine) -> G1Affine {
        g1_times_x_squared(p)
    }

    const DIGIT_BITS: usize = 128;
}

/// `−φ: (x, y) ↦ (βx, −y)` for a cube root of unity `beta`.
pub(crate) fn neg_phi(p: &G1Affine, beta: Fp) -> G1Affine {
    p.map_xy(|x, y| (x * beta, -y))
}

/// An affine `G1` point. Compressed encoding is 49 bytes.
pub type G1Affine = Affine<G1Params>;

/// A Jacobian-projective `G1` point.
pub type G1Projective = Projective<G1Params>;

/// Compressed `G1` encoding length in bytes (flag byte + x-coordinate).
pub const G1_COMPRESSED_BYTES: usize = 49;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fr::Scalar;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn generator_is_on_curve_and_in_subgroup() {
        let g = G1Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_in_subgroup());
    }

    #[test]
    fn order_annihilates_generator() {
        let g = G1Projective::generator();
        assert!(g.mul_uint(&crate::fr::MODULUS).is_identity());
    }

    #[test]
    fn group_laws() {
        let mut rng = rng();
        let p = G1Projective::random(&mut rng);
        let q = G1Projective::random(&mut rng);
        let r = G1Projective::random(&mut rng);
        assert_eq!(p + q, q + p);
        assert_eq!((p + q) + r, p + (q + r));
        assert_eq!(p + G1Projective::identity(), p);
        assert_eq!(p - p, G1Projective::identity());
        assert_eq!(p.double(), p + p);
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = rng();
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let g = G1Projective::generator();
        assert_eq!(g.mul_scalar(&a) + g.mul_scalar(&b), g.mul_scalar(&(a + b)));
        assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&(a * b)));
    }

    #[test]
    fn affine_roundtrip() {
        let mut rng = rng();
        let p = G1Projective::random(&mut rng);
        let a = p.to_affine();
        assert!(a.is_on_curve());
        let back: G1Projective = a.into();
        assert_eq!(back, p);
    }

    #[test]
    fn compressed_serialization_roundtrip() {
        let mut rng = rng();
        for _ in 0..5 {
            let p = G1Projective::random(&mut rng).to_affine();
            let bytes = p.to_bytes();
            assert_eq!(bytes.len(), G1_COMPRESSED_BYTES);
            assert_eq!(G1Affine::from_bytes(&bytes).unwrap(), p);
        }
        // identity
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_bytes(&id.to_bytes()).unwrap(), id);
    }

    #[test]
    fn serialization_rejects_garbage() {
        assert!(G1Affine::from_bytes(&[0xffu8; G1_COMPRESSED_BYTES]).is_none());
        assert!(G1Affine::from_bytes(&[0u8; 5]).is_none());
        // flag byte 1 is invalid
        let mut b = G1Affine::generator().to_bytes();
        b[0] = 1;
        assert!(G1Affine::from_bytes(&b).is_none());
    }

    #[test]
    fn negation() {
        let mut rng = rng();
        let p = G1Projective::random(&mut rng);
        assert!((p + (-p)).is_identity());
        let a = p.to_affine();
        assert!((-a).is_on_curve());
    }
}
