//! secp256k1 — a fast non-pairing curve for the HE-PKI baseline.
//!
//! The paper's HE-PKI baseline uses conventional ECC (via OpenSSL), which is
//! markedly faster than pairing-curve arithmetic; benchmarking HE-PKI on
//! BLS12-381 `G1` would inflate the baseline's cost and flatter IBBE. This
//! module instantiates the workspace's generic short-Weierstrass machinery
//! over secp256k1 (`y² = x³ + 7`, 4-limb field, cofactor 1), roughly halving
//! the per-envelope cost and restoring the paper's cost ratio between the
//! baseline's primitive and the pairing-based schemes.

use crate::curve::{Affine, Curve, CurveField, Projective};
use crate::field::prime_field;
use crate::fixed::FixedBase;
use ibbe_bigint::Uint;
use std::sync::OnceLock;

/// The secp256k1 base-field modulus `p = 2²⁵⁶ - 2³² - 977`.
pub const P_MODULUS: Uint<4> = Uint::new([
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
]);

/// The secp256k1 group order `n`.
pub const N_ORDER: Uint<4> = Uint::new([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

prime_field!(
    /// An element of the secp256k1 base field.
    FpK,
    4,
    P_MODULUS,
    32
);

prime_field!(
    /// A secp256k1 scalar (integer modulo the group order `n`).
    ScalarK,
    4,
    N_ORDER,
    32
);

impl FpK {
    /// Square root for `p ≡ 3 (mod 4)`: `a^((p+1)/4)`, verified by squaring.
    pub fn sqrt(&self) -> Option<Self> {
        let mut e = P_MODULUS.shr1().shr1();
        let (e1, _) = e.add_carry(&Uint::ONE);
        e = e1;
        let cand = self.pow(&e);
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }

    /// Lexicographic sign for point compression.
    pub fn is_lexicographically_largest(&self) -> bool {
        let half = {
            let (m1, _) = P_MODULUS.sub_borrow(&Uint::ONE);
            m1.shr1()
        };
        self.to_uint() > half
    }
}

impl ScalarK {
    /// Uniformly random non-zero scalar.
    pub fn random_nonzero<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        loop {
            let s = Self::random(rng);
            if !s.is_zero() {
                return s;
            }
        }
    }
}

impl CurveField for FpK {
    fn zero() -> Self {
        Self::ZERO
    }
    fn one() -> Self {
        Self::ONE
    }
    fn is_zero(&self) -> bool {
        Self::is_zero(self)
    }
    fn square(&self) -> Self {
        Self::square(self)
    }
    fn double(&self) -> Self {
        Self::double(self)
    }
    fn invert(&self) -> Option<Self> {
        Self::invert(self)
    }
    fn sqrt(&self) -> Option<Self> {
        Self::sqrt(self)
    }
    fn is_lexicographically_largest(&self) -> bool {
        Self::is_lexicographically_largest(self)
    }
    fn encoded_len() -> usize {
        Self::BYTES
    }
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        let arr: &[u8; 32] = bytes.try_into().ok()?;
        Self::from_bytes(arr)
    }
}

/// Marker type for secp256k1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct K256Params;

const GEN_X: Uint<4> = Uint::new([
    0x59f2_815b_16f8_1798,
    0x029b_fcdb_2dce_28d9,
    0x55a0_6295_ce87_0b07,
    0x79be_667e_f9dc_bbac,
]);
const GEN_Y: Uint<4> = Uint::new([
    0x9c47_d08f_fb10_d4b8,
    0xfd17_b448_a685_5419,
    0x5da4_fbfc_0e11_08a8,
    0x483a_da77_26a3_c465,
]);

impl Curve for K256Params {
    type Base = FpK;

    fn b() -> FpK {
        FpK::from_u64(7)
    }

    fn generator_xy() -> (FpK, FpK) {
        (
            FpK::from_uint(&GEN_X).expect("generator x canonical"),
            FpK::from_uint(&GEN_Y).expect("generator y canonical"),
        )
    }

    fn name() -> &'static str {
        "K256"
    }

    fn is_in_prime_subgroup(_p: &Projective<Self>) -> bool {
        // cofactor 1: every on-curve point is in the prime-order group
        true
    }
}

/// An affine secp256k1 point (compressed encoding: 33 bytes).
pub type K256Affine = Affine<K256Params>;

/// A Jacobian-projective secp256k1 point.
pub type K256Projective = Projective<K256Params>;

/// Compressed encoding length in bytes.
pub const K256_COMPRESSED_BYTES: usize = 33;

impl K256Projective {
    /// Scalar multiplication by a secp256k1 scalar.
    pub fn mul_scalar_k(&self, s: &ScalarK) -> Self {
        self.mul_uint(&s.to_uint())
    }

    /// Uniformly random group element with its discrete log, from the
    /// generator's fixed-base table ([`generator_table`]).
    pub fn random_keypair<R: rand::RngCore + ?Sized>(rng: &mut R) -> (ScalarK, Self) {
        let s = ScalarK::random_nonzero(rng);
        (s, generator_table().mul_digits(&[s.to_uint()]))
    }
}

/// The generator's fixed-base table, built on first use and kept for the
/// life of the process, as libsecp256k1 and OpenSSL keep theirs: every key
/// pair, and so every HE-PKI envelope's ephemeral key, multiplies the
/// generator. One 256-bit digit, 43 windows of 32 points (99 KB).
pub fn generator_table() -> &'static FixedBase<K256Affine> {
    static TABLE: OnceLock<FixedBase<K256Affine>> = OnceLock::new();
    TABLE.get_or_init(|| FixedBase::<K256Affine>::new(&K256Affine::generator()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(256)
    }

    #[test]
    fn parameters_are_consistent() {
        assert_eq!(P_MODULUS.bits(), 256);
        assert_eq!(N_ORDER.bits(), 256);
        let g = K256Affine::generator();
        assert!(g.is_on_curve(), "generator satisfies y² = x³ + 7");
        // the group order annihilates the generator (validates N_ORDER)
        assert!(K256Projective::generator().mul_uint(&N_ORDER).is_identity());
    }

    #[test]
    fn group_laws_and_scalar_homomorphism() {
        let mut r = rng();
        let (a, pa) = K256Projective::random_keypair(&mut r);
        let (b, pb) = K256Projective::random_keypair(&mut r);
        assert_eq!(pa + pb, pb + pa);
        assert_eq!(pa.double(), pa + pa);
        let lhs = K256Projective::generator().mul_scalar_k(&(a + b));
        assert_eq!(lhs, pa + pb);
    }

    #[test]
    fn ecdh_agreement() {
        let mut r = rng();
        let (a, pa) = K256Projective::random_keypair(&mut r);
        let (b, pb) = K256Projective::random_keypair(&mut r);
        assert_eq!(pb.mul_scalar_k(&a), pa.mul_scalar_k(&b));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut r = rng();
        let (_, p) = K256Projective::random_keypair(&mut r);
        let a = p.to_affine();
        let bytes = a.to_bytes();
        assert_eq!(bytes.len(), K256_COMPRESSED_BYTES);
        assert_eq!(K256Affine::from_bytes(&bytes).unwrap(), a);
        assert!(K256Affine::from_bytes(&[0xffu8; 33]).is_none());
    }

    #[test]
    fn scalar_field_inverse() {
        let mut r = rng();
        let s = ScalarK::random_nonzero(&mut r);
        assert_eq!(s * s.invert().unwrap(), ScalarK::ONE);
    }

    #[test]
    fn base_field_sqrt() {
        let mut r = rng();
        let a = FpK::random(&mut r);
        let sq = a.square();
        let root = sq.sqrt().unwrap();
        assert!(root == a || root == -a);
    }
}
