//! The group `G2 = E'(Fp2)[r]` with the sextic twist `E': y² = x³ + 4(u+1)`.
//!
//! Carrying the `p`-power Frobenius of `E(Fp12)` through the twist gives the
//! endomorphism `ψ(x, y) = (x̄·γ⁻², ȳ·γ⁻³)` of `E'`, `γ = ξ^((p−1)/6)`. It
//! satisfies `ψ² − [t]ψ + [p] = 0` with `t = x + 1`, and is `[p] = [x]` on
//! `G2`. Conversely `ψ(P) = [x]P` gives `[x² − tx + p]P = [p − x]P =
//! [h₁·r]P = ∞` for the `G1` cofactor `h₁`, which is coprime to the `G2`
//! cofactor — so `P` has order `r` (Scott, eprint 2021/1130). Scalar
//! multiplication and the subgroup test both run on `−ψ = [|x|]` (see
//! [`crate::curve`]).

use crate::curve::{Affine, Curve, Projective};
use crate::fp::Fp;
use crate::fp2::Fp2;
use crate::fr::Scalar;
use crate::pairing::{g2_times_x_abs, x_digits, BLS_X_ABS};
use ibbe_bigint::Uint;

/// Marker type for the `G2` curve parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G2Params;

const GEN_X_C0: Uint<6> = Uint::new([
    0xd480_56c8_c121_bdb8,
    0x0bac_0326_a805_bbef,
    0xb451_0b64_7ae3_d177,
    0xc6e4_7ad4_fa40_3b02,
    0x2608_0527_2dc5_1051,
    0x024a_a2b2_f08f_0a91,
]);
const GEN_X_C1: Uint<6> = Uint::new([
    0xe5ac_7d05_5d04_2b7e,
    0x334c_f112_1394_5d57,
    0xb5da_61bb_dc7f_5049,
    0x596b_d0d0_9920_b61a,
    0x7dac_d3a0_8827_4f65,
    0x13e0_2b60_5271_9f60,
]);
const GEN_Y_C0: Uint<6> = Uint::new([
    0xe193_5486_08b8_2801,
    0x923a_c9cc_3bac_a289,
    0x6d42_9a69_5160_d12c,
    0xadfd_9baa_8cbd_d3a7,
    0x8cc9_cdc6_da2e_351a,
    0x0ce5_d527_727d_6e11,
]);
const GEN_Y_C1: Uint<6> = Uint::new([
    0xaaa9_075f_f05f_79be,
    0x3f37_0d27_5cec_1da1,
    0x2674_92ab_572e_99ab,
    0xcb3e_287e_85a7_63af,
    0x32ac_d2b0_2bc2_8b99,
    0x0606_c4a0_2ea7_34cc,
]);

fn fp(u: &Uint<6>) -> Fp {
    Fp::from_uint(u).expect("generator coordinate is canonical")
}

impl Curve for G2Params {
    type Base = Fp2;

    fn b() -> Fp2 {
        // 4(u + 1)
        Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
    }

    fn generator_xy() -> (Fp2, Fp2) {
        (
            Fp2::new(fp(&GEN_X_C0), fp(&GEN_X_C1)),
            Fp2::new(fp(&GEN_Y_C0), fp(&GEN_Y_C1)),
        )
    }

    fn name() -> &'static str {
        "G2"
    }

    fn is_in_prime_subgroup(p: &G2Projective) -> bool {
        G2Projective::from(g2_times_x_abs(&p.to_affine()))
            == p.mul_uint(&Uint::<1>::from_u64(BLS_X_ABS))
    }

    /// `[k]P = Σ [dᵢ](−ψ)ⁱ(P)` over the four base-`|x|` digits of `k`, each
    /// below `2⁶⁴`.
    fn split(k: &Scalar) -> Vec<Uint<4>> {
        x_digits(k).iter().map(|&d| Uint::from_u64(d)).collect()
    }

    fn eta(p: &G2Affine) -> G2Affine {
        g2_times_x_abs(p)
    }

    const DIGIT_BITS: usize = 64;
}

/// `−ψ: (x, y) ↦ (x̄·cₓ, −ȳ·c_y)` for the coefficients `(cₓ, c_y)`.
pub(crate) fn neg_psi(p: &G2Affine, (cx, cy): &(Fp2, Fp2)) -> G2Affine {
    p.map_xy(|x, y| (x.conjugate() * *cx, -(y.conjugate() * *cy)))
}

/// An affine `G2` point. Compressed encoding is 97 bytes.
pub type G2Affine = Affine<G2Params>;

/// A Jacobian-projective `G2` point.
pub type G2Projective = Projective<G2Params>;

/// Compressed `G2` encoding length in bytes (flag byte + x-coordinate).
pub const G2_COMPRESSED_BYTES: usize = 97;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fr::Scalar;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(23)
    }

    #[test]
    fn generator_is_on_curve_and_in_subgroup() {
        let g = G2Affine::generator();
        assert!(g.is_on_curve());
        assert!(g.is_in_subgroup());
    }

    #[test]
    fn group_laws() {
        let mut rng = rng();
        let p = G2Projective::random(&mut rng);
        let q = G2Projective::random(&mut rng);
        assert_eq!(p + q, q + p);
        assert_eq!(p.double(), p + p);
        assert_eq!(p - p, G2Projective::identity());
    }

    #[test]
    fn scalar_mul_composes() {
        let mut rng = rng();
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let g = G2Projective::generator();
        assert_eq!(g.mul_scalar(&a).mul_scalar(&b), g.mul_scalar(&(a * b)));
    }

    #[test]
    fn compressed_serialization_roundtrip() {
        let mut rng = rng();
        let p = G2Projective::random(&mut rng).to_affine();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), G2_COMPRESSED_BYTES);
        assert_eq!(G2Affine::from_bytes(&bytes).unwrap(), p);
        let id = G2Affine::identity();
        assert_eq!(G2Affine::from_bytes(&id.to_bytes()).unwrap(), id);
    }

    #[test]
    fn serialization_rejects_wrong_subgroup() {
        // A point on the twist with the right x but outside the r-subgroup
        // cannot be produced by from_bytes; emulate by checking a torsion
        // point: take x = 0 and see whether decoding either fails or yields
        // a subgroup point.
        let mut candidate = vec![2u8];
        candidate.extend_from_slice(&[0u8; 96]);
        if let Some(p) = G2Affine::from_bytes(&candidate) {
            assert!(p.is_in_subgroup());
        }
    }
}
