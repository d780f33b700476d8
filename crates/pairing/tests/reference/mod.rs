//! Reference oracles for the differential tests in `tests/prop.rs`: the
//! kernels the optimised ones replaced, kept exactly as they ran — MSB-first
//! double-and-add over all 255 bits of a scalar, a sum of independent scalar
//! multiplications, subgroup membership by annihilation with `r`, the affine
//! Miller loop with one inversion per step and a dense line, the hard part
//! of the final exponentiation as one plain power, square-and-multiply in
//! the cyclotomic subgroup. Slow on purpose; each is the textbook form. The
//! one exception is the Straus MSM the bucket method replaced, kept as a
//! second, faster MSM oracle.

use ibbe_bigint::Uint;
use ibbe_pairing::fp6::Fp6;
use ibbe_pairing::pairing::BLS_X_ABS;
use ibbe_pairing::{fp, fr};
use ibbe_pairing::{Affine, Curve, Fp12, Fp2, G1Affine, G2Affine, Projective, Scalar};

/// Scalar multiplication: double-and-add, MSB first.
pub fn mul_uint<C: Curve, const E: usize>(p: &Projective<C>, k: &Uint<E>) -> Projective<C> {
    let mut acc = Projective::identity();
    for i in (0..k.bits()).rev() {
        acc = acc.double();
        if k.bit(i) {
            acc = acc + *p;
        }
    }
    acc
}

/// Subgroup membership of an on-curve point by definition: `[r]P = ∞`.
pub fn is_in_subgroup<C: Curve>(p: &Projective<C>) -> bool {
    p.mul_uint(&fr::MODULUS).is_identity()
}

/// `Σ scalars[i]·points[i]`, one independent multiplication per term.
pub fn sum_of_products<C: Curve>(points: &[Affine<C>], scalars: &[Scalar]) -> Projective<C> {
    let mut acc = Projective::identity();
    for (p, s) in points.iter().zip(scalars) {
        acc = acc + mul_uint(&Projective::from(*p), &s.to_uint());
    }
    acc
}

/// The multi-scalar multiplication the bucket method replaced: Straus over
/// the width-4 wNAF strings of the full 255-bit scalars, one shared doubling
/// chain, a table `P, 3P, 5P, 7P` per term, the live terms split into one
/// run per core of at least 16 terms each. The kernel normalised all tables
/// with one inversion so that every addition was mixed; here each entry is
/// normalised on its own, which gives the same points.
pub fn straus_msm<C: Curve>(points: &[Affine<C>], scalars: &[Scalar]) -> Projective<C> {
    let terms: Vec<_> = points
        .iter()
        .zip(scalars)
        .filter(|(p, s)| !p.is_identity() && !s.is_zero())
        .collect();
    let runs = exec::map_chunks(&terms, 16, |terms| {
        let tables: Vec<[Affine<C>; 4]> = terms
            .iter()
            .map(|(p, _)| {
                let (p, twice) = (Projective::from(**p), Projective::from(**p).double());
                let (p3, p5) = (p + twice, p + twice + twice);
                [p, p3, p5, p5 + twice].map(|q| q.to_affine())
            })
            .collect();
        let digits: Vec<_> = terms.iter().map(|(_, s)| wnaf4(&s.to_uint())).collect();
        let len = digits.iter().map(Vec::len).max().unwrap_or(0);
        let mut acc = Projective::identity();
        for i in (0..len).rev() {
            acc = acc.double();
            for (table, digits) in tables.iter().zip(&digits) {
                let d = digits.get(i).copied().unwrap_or(0);
                if d != 0 {
                    let entry = table[d.unsigned_abs() as usize / 2];
                    acc = acc.add_mixed(&if d > 0 { entry } else { -entry });
                }
            }
        }
        acc
    });
    runs.into_iter().fold(Projective::identity(), |a, b| a + b)
}

/// The width-4 non-adjacent form of `k`, least-significant digit first.
fn wnaf4<const E: usize>(k: &Uint<E>) -> Vec<i8> {
    let mut digits = Vec::new();
    let (mut carry, mut i) = (0u32, 0);
    while i < k.bits() || carry != 0 {
        if (u32::from(k.bit(i)) + carry) & 1 == 0 {
            carry &= u32::from(k.bit(i));
            digits.push(0);
            i += 1;
            continue;
        }
        let window = (0..4).fold(carry, |v, j| v + (u32::from(k.bit(i + j)) << j));
        carry = u32::from(window >= 8);
        digits.push((window as i32 - 16 * carry as i32) as i8);
        digits.extend_from_slice(&[0; 3]);
        i += 4;
    }
    digits
}

/// Exponentiation of a unitary element: cyclotomic squarings, one
/// multiplication per set bit.
pub fn cyclotomic_pow<const E: usize>(f: &Fp12, exp: &Uint<E>) -> Fp12 {
    let mut acc = Fp12::ONE;
    for i in (0..exp.bits()).rev() {
        acc = acc.cyclotomic_square();
        if exp.bit(i) {
            acc *= *f;
        }
    }
    acc
}

/// The line of slope `lambda` through `(tx, ty)` on the twist, at `p`, as a
/// dense `Fp12` element with coefficients at `w⁰`, `w³` and `w⁵`.
fn line(p: &G1Affine, tx: Fp2, ty: Fp2, lambda: Fp2) -> Fp12 {
    let w0 = Fp2::new(p.y, p.y); // ξ·y_P = (u+1)·y_P
    let w3 = lambda * tx - ty;
    let w5 = -(lambda.mul_by_fp(p.x));
    Fp12::new(
        Fp6::new(w0, Fp2::ZERO, Fp2::ZERO),
        Fp6::new(Fp2::ZERO, w3, w5),
    )
}

/// The Miller loop with the `G2` accumulator in affine coordinates.
pub fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    if p.is_identity() || q.is_identity() {
        return Fp12::ONE;
    }
    let mut f = Fp12::ONE;
    let (mut tx, mut ty) = (q.x, q.y);
    let nbits = 64 - BLS_X_ABS.leading_zeros() as usize;
    for i in (0..nbits - 1).rev() {
        f = f.square();
        let x2 = tx.square();
        let lambda = (x2.double() + x2) * ty.double().invert().expect("2y ≠ 0");
        f *= line(p, tx, ty, lambda);
        let x3 = lambda.square() - tx.double();
        ty = lambda * (tx - x3) - ty;
        tx = x3;

        if (BLS_X_ABS >> i) & 1 == 1 {
            let lambda = (ty - q.y) * (tx - q.x).invert().expect("T ≠ ±Q");
            f *= line(p, tx, ty, lambda);
            let x3 = lambda.square() - tx - q.x;
            ty = lambda * (tx - x3) - ty;
            tx = x3;
        }
    }
    f.conjugate()
}

/// `p²` as an integer.
fn p_squared() -> Uint<12> {
    let (lo, hi) = fp::MODULUS.mul_wide(&fp::MODULUS);
    Uint::from_parts(&lo, &hi)
}

/// The hard-part exponent `(p⁴ − p² + 1)/r`.
pub fn hard_exponent() -> Uint<24> {
    let p2 = p_squared();
    let (lo4, hi4) = p2.mul_wide(&p2);
    let p4: Uint<24> = Uint::from_parts(&lo4, &hi4);
    let (t, _) = p4.sub_borrow(&p2.widen::<24>());
    let (num, _) = t.add_carry(&Uint::ONE);
    let (hard, rem) = num.div_rem(&fr::MODULUS.widen::<24>());
    assert!(rem.is_zero());
    hard
}

/// The final exponentiation by plain powers only: `f^(p⁶−1)` by
/// conjugation and inversion, `^(p²+1)` and the hard part by
/// square-and-multiply (no Frobenius coefficients, no addition chain).
pub fn final_exponentiation(f: &Fp12) -> Fp12 {
    let t = f.conjugate() * f.invert().expect("nonzero");
    let t = t.pow(&p_squared()) * t;
    cyclotomic_pow(&t, &hard_exponent())
}

/// `e(P, Q)` from the two oracles above.
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fp12 {
    final_exponentiation(&miller_loop(p, q))
}
