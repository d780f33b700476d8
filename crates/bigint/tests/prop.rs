//! Property-based tests for `ibbe-bigint` against `u128` reference
//! arithmetic and algebraic laws.

use ibbe_bigint::{MontParams, Uint};
use proptest::prelude::*;

const P1_M: u64 = 0xffffffffffffffc5; // 2^64 - 59, prime
const P1: MontParams<1> = MontParams::new(Uint::new([P1_M]));

// 2^128 - 159, prime
const P2: MontParams<2> = MontParams::new(Uint::new([0xffffffffffffff61, u64::MAX]));

// The moduli `ibbe_pairing` instantiates: BLS12-381 `r` and `p`, and the
// secp256k1 base field and group order (both full-width: no spare top bit).
const FR: MontParams<4> = MontParams::new(Uint::new([
    0xffff_ffff_0000_0001,
    0x53bd_a402_fffe_5bfe,
    0x3339_d808_09a1_d805,
    0x73ed_a753_299d_7d48,
]));
const FP: MontParams<6> = MontParams::new(Uint::new([
    0xb9fe_ffff_ffff_aaab,
    0x1eab_fffe_b153_ffff,
    0x6730_d2a0_f6b0_f624,
    0x6477_4b84_f385_12bf,
    0x4b1b_a7b6_434b_acd7,
    0x1a01_11ea_397f_e69a,
]));
const K256_P: MontParams<4> = MontParams::new(Uint::new([
    0xffff_fffe_ffff_fc2f,
    u64::MAX,
    u64::MAX,
    u64::MAX,
]));
const K256_N: MontParams<4> = MontParams::new(Uint::new([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    u64::MAX,
]));

fn u1(v: u64) -> Uint<1> {
    Uint::from_u64(v)
}

/// `inverse` against the Fermat power it displaced, on the residue of
/// `limbs` with its top `zeroed` limbs cleared, and on `1` and `m − 1`.
fn assert_inverse_matches_fermat<const N: usize>(
    m: &MontParams<N>,
    mut limbs: [u64; N],
    zeroed: usize,
) {
    for l in limbs.iter_mut().rev().take(zeroed % N) {
        *l = 0;
    }
    let (m_minus_1, _) = m.modulus().sub_borrow(&Uint::ONE);
    let (m_minus_2, _) = m_minus_1.sub_borrow(&Uint::ONE);
    let residue = m.reduce_wide(&Uint::new(limbs), &Uint::ZERO);
    for plain in [residue, Uint::ONE, m_minus_1] {
        let a = m.to_mont(&plain);
        if a.is_zero() {
            assert_eq!(m.inverse(&a), None);
            continue;
        }
        let inv = m.inverse(&a).expect("non-zero");
        assert_eq!(inv, m.pow(&a, &m_minus_2), "a = {plain:?}");
        assert_eq!(m.mul(&a, &inv), m.one());
    }
}

prop_compose! {
    fn arb_mod_p1()(v in 0..P1_M) -> u64 { v }
}

proptest! {
    #[test]
    fn mul_matches_u128(a in arb_mod_p1(), b in arb_mod_p1()) {
        let am = P1.to_mont(&u1(a));
        let bm = P1.to_mont(&u1(b));
        let got = P1.from_mont(&P1.mul(&am, &bm));
        let want = ((a as u128 * b as u128) % P1_M as u128) as u64;
        prop_assert_eq!(got, u1(want));
    }

    #[test]
    fn add_matches_u128(a in arb_mod_p1(), b in arb_mod_p1()) {
        let got = P1.add(&u1(a), &u1(b));
        let want = ((a as u128 + b as u128) % P1_M as u128) as u64;
        prop_assert_eq!(got, u1(want));
    }

    #[test]
    fn sub_then_add_roundtrip(a in arb_mod_p1(), b in arb_mod_p1()) {
        let d = P1.sub(&u1(a), &u1(b));
        prop_assert_eq!(P1.add(&d, &u1(b)), u1(a));
    }

    #[test]
    fn mul_is_commutative_2limb(a0: u64, a1: u64, b0: u64, b1: u64) {
        let a = P2.to_mont(&P2.reduce_wide(&Uint::new([a0, a1]), &Uint::ZERO));
        let b = P2.to_mont(&P2.reduce_wide(&Uint::new([b0, b1]), &Uint::ZERO));
        prop_assert_eq!(P2.mul(&a, &b), P2.mul(&b, &a));
    }

    #[test]
    fn mul_distributes_over_add_2limb(a0: u64, a1: u64, b0: u64, b1: u64, c0: u64, c1: u64) {
        let red = |x0, x1| P2.to_mont(&P2.reduce_wide(&Uint::new([x0, x1]), &Uint::ZERO));
        let (a, b, c) = (red(a0, a1), red(b0, b1), red(c0, c1));
        let lhs = P2.mul(&a, &P2.add(&b, &c));
        let rhs = P2.add(&P2.mul(&a, &b), &P2.mul(&a, &c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn inverse_is_inverse_2limb(a0: u64, a1: u64) {
        let a = P2.to_mont(&P2.reduce_wide(&Uint::new([a0, a1]), &Uint::ZERO));
        if !a.is_zero() {
            let ai = P2.inverse(&a).unwrap();
            prop_assert_eq!(P2.from_mont(&P2.mul(&a, &ai)), Uint::<2>::ONE);
        }
    }

    #[test]
    fn inverse_matches_fermat_on_every_modulus_in_use(
        l: [u64; 6],
        zeroed in 0usize..6,
    ) {
        assert_inverse_matches_fermat(&P1, [l[0]], 0);
        assert_inverse_matches_fermat(&P2, [l[0], l[1]], zeroed);
        assert_inverse_matches_fermat(&FR, [l[0], l[1], l[2], l[3]], zeroed);
        assert_inverse_matches_fermat(&K256_P, [l[0], l[1], l[2], l[3]], zeroed);
        assert_inverse_matches_fermat(&K256_N, [l[0], l[1], l[2], l[3]], zeroed);
        assert_inverse_matches_fermat(&FP, l, zeroed);
    }

    #[test]
    fn pow_adds_exponents(a in arb_mod_p1(), e1 in 0u64..1000, e2 in 0u64..1000) {
        let am = P1.to_mont(&u1(a));
        let lhs = P1.pow(&am, &Uint::<1>::from_u64(e1 + e2));
        let rhs = P1.mul(&P1.pow(&am, &u1(e1)), &P1.pow(&am, &u1(e2)));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn be_bytes_roundtrip_2limb(a0: u64, a1: u64) {
        let a = Uint::<2>::new([a0, a1]);
        let mut buf = [0u8; 16];
        a.write_be_bytes(&mut buf);
        prop_assert_eq!(Uint::<2>::from_be_bytes(&buf), a);
    }

    #[test]
    fn mul_wide_matches_u128(a: u64, b: u64) {
        let (lo, hi) = Uint::<1>::new([a]).mul_wide(&Uint::new([b]));
        let want = a as u128 * b as u128;
        prop_assert_eq!(lo.limbs()[0], want as u64);
        prop_assert_eq!(hi.limbs()[0], (want >> 64) as u64);
    }

    #[test]
    fn reduce_be_bytes_matches_mod(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // reference: fold bytes into u128 mod P1_M
        let mut acc: u128 = 0;
        for &b in &bytes {
            acc = ((acc << 8) | b as u128) % P1_M as u128;
        }
        prop_assert_eq!(P1.reduce_be_bytes(&bytes), u1(acc as u64));
    }
}
