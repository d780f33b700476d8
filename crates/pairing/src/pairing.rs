//! The optimal ate pairing `e : G1 × G2 → GT` for BLS12-381, as a
//! *product* of pairings under one final exponentiation.
//!
//! **Miller loop.** [`multi_miller_loop`] runs over the bits of `|x|` for
//! the BLS parameter `x = -0xd201_0000_0001_0000` once, for any number of
//! `(P, Q)` pairs: one `Fp12` squaring per bit is shared by all pairs, each
//! pair's `G2` accumulator is kept in homogeneous projective coordinates
//! (so a doubling or addition step needs no field inversion), and each line
//! is folded into `f` with the sparse [`Fp12::mul_by_014`]. Lines are taken
//! up to factors in proper subfields of `Fp12` and powers of `w`, all of
//! which the final exponentiation kills — so [`miller_loop`] values are
//! meaningful only through [`final_exponentiation`].
//!
//! **Final exponentiation.** The easy part is a conjugation, an inversion
//! and a Frobenius²; the hard part `(p⁴ − p² + 1)/r` is written in base `p`,
//! `λ₀ + λ₁p + λ₂p² + λ₃p³`, where every `λᵢ` is a short polynomial in `x`,
//! and evaluated with five 64-bit cyclotomic powers plus Frobenius maps
//! instead of one 1 269-bit power. The decomposition is exact (no spare
//! factor 3), so `GT` elements — and every key derived from them — are the
//! same as under the plain power.
//!
//! All derived constants (Frobenius coefficients, the `λᵢ`, cofactors, the
//! coefficients of the `G1`/`G2` endomorphisms that scalar multiplication
//! splits along) are **computed at first use from `p`, `r` and `x` alone**,
//! with divisibility and consistency assertions, rather than hard-coded. A
//! wrong constant therefore fails loudly instead of producing a subtly
//! non-bilinear map. The base-`|x|` split of a scalar that all three groups
//! share (`x_digits`) lives here next to `x`.
//! The displaced kernels (affine Miller loop, plain-power hard part) live on
//! as oracles in `tests/reference`.

use crate::fp::{self, Fp};
use crate::fp12::Fp12;
use crate::fp2::Fp2;
use crate::fr::{self, Scalar};
use crate::g1::{self, G1Affine, G1Projective};
use crate::g2::{self, G2Affine, G2Projective};
use crate::gt::Gt;
use crate::wnaf::wnaf;
use ibbe_bigint::Uint;
use std::sync::OnceLock;

/// `|x|` for the BLS parameter `x = -0xd201_0000_0001_0000`.
pub const BLS_X_ABS: u64 = 0xd201_0000_0001_0000;

/// `x²`, the eigenvalue of `−φ` on `G1`.
pub(crate) const X_SQUARED: Uint<2> = {
    let sq = (BLS_X_ABS as u128) * (BLS_X_ABS as u128);
    Uint::new([sq as u64, (sq >> 64) as u64])
};

/// The base-`|x|` digits of `k`, least significant first: `k = Σ dᵢ·|x|ⁱ`
/// with every `dᵢ < |x|`. Four suffice because `k < r = x⁴ − x² + 1`.
pub(crate) fn x_digits(k: &Scalar) -> [u64; 4] {
    let mut quotient = k.to_uint().limbs();
    let mut digits = [0; 4];
    for digit in &mut digits {
        // schoolbook short division, top limb first
        let mut rem = 0u128;
        for limb in quotient.iter_mut().rev() {
            let cur = (rem << 64) | u128::from(*limb);
            *limb = (cur / u128::from(BLS_X_ABS)) as u64;
            rem = cur % u128::from(BLS_X_ABS);
        }
        *digit = rem as u64;
    }
    debug_assert_eq!(quotient, [0; 4], "a scalar is below |x|⁴");
    digits
}

/// The wNAF strings of the four base-`|x|` digits of `k` — what `GT`, where
/// `|x|` is an eigenvalue, splits an exponent into.
pub(crate) fn x_wnaf(k: &Scalar) -> [Vec<i8>; 4] {
    x_digits(k).map(|d| wnaf(&Uint::<1>::from_u64(d)))
}

/// Derived pairing constants, computed once.
struct Consts {
    /// `γ¹..γ⁵` for `γ = ξ^((p−1)/6)` — the Frobenius coefficients of
    /// `w¹..w⁵`.
    frobenius: [Fp2; 5],
    /// `|x − 1|/3 = (|x| + 1)/3`, the odd one out among the hard part's
    /// exponents.
    x_minus_1_over_3: Uint<1>,
    /// `G1` cofactor `(p + |x|) / r = #E(Fp) / r`.
    g1_cofactor: Uint<6>,
    /// The effective cofactor `h_eff = 1 − x = 1 + |x|` (RFC 9380 §8.8.1).
    g1_h_eff: Uint<1>,
    /// The cube root of unity `β` for which `(x, y) ↦ (βx, −y)` is `[x²]`
    /// on `G1`.
    beta: Fp,
    /// `(γ⁻², γ⁻³)`, the coefficients of `ψ` on the twist.
    psi: (Fp2, Fp2),
}

fn consts() -> &'static Consts {
    static CONSTS: OnceLock<Consts> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let p = fp::MODULUS;
        let r = fr::MODULUS;

        // γ = ξ^((p−1)/6): (γ·w)⁶ must be ξ^p, the conjugate of ξ.
        let (pm1, borrow) = p.sub_borrow(&Uint::ONE);
        assert_eq!(borrow, 0);
        let (e6, rem6) = pm1.div_rem(&Uint::from_u64(6));
        assert!(rem6.is_zero(), "p - 1 must be divisible by 6");
        let xi = Fp2::xi();
        let gamma = xi.pow(&e6);
        assert_eq!(gamma.pow(&Uint::<1>::from_u64(6)) * xi, xi.conjugate());
        let mut frobenius = [gamma; 5];
        for i in 1..5 {
            frobenius[i] = frobenius[i - 1] * gamma;
        }

        // Hard exponent h = (p⁴ - p² + 1)/r …
        let (lo, hi) = p.mul_wide(&p);
        let p2: Uint<12> = Uint::from_parts(&lo, &hi);
        let (lo4, hi4) = p2.mul_wide(&p2);
        let p4: Uint<24> = Uint::from_parts(&lo4, &hi4);
        let (t, borrow) = p4.sub_borrow(&p2.widen::<24>());
        assert_eq!(borrow, 0);
        let (num, carry) = t.add_carry(&Uint::ONE);
        assert_eq!(carry, 0);
        let (hard_exp, rem) = num.div_rem(&r.widen::<24>());
        assert!(rem.is_zero(), "r must divide p⁴ - p² + 1 (Φ₁₂(p))");

        // … equals λ₀ + λ₁p + λ₂p² + λ₃p³ with λ₃ = (x−1)²/3, λ₂ = x·λ₃,
        // λ₁ = λ₃·(x²−1), λ₀ = x·λ₁ + 1 — the chain `hard_part` walks.
        // With x = −|x| the signs alternate; Horner keeps every step positive.
        assert_eq!((BLS_X_ABS + 1) % 3, 0, "x ≡ 1 (mod 3)");
        let third = (BLS_X_ABS + 1) / 3;
        let wide = Uint::<24>::from_u64;
        let mul = |a: &Uint<24>, b: &Uint<24>| {
            let (lo, hi) = a.mul_wide(b);
            assert!(hi.is_zero());
            lo
        };
        let sub = |a: &Uint<24>, b: &Uint<24>| {
            let (d, borrow) = a.sub_borrow(b);
            assert_eq!(borrow, 0);
            d
        };
        let (p, x) = (p.widen::<24>(), wide(BLS_X_ABS));
        let l3 = mul(&mul(&wide(third), &wide(third)), &wide(3));
        let l1 = mul(&l3, &sub(&mul(&x, &x), &Uint::ONE));
        let acc = sub(&mul(&l3, &p), &mul(&x, &l3));
        let (acc, carry) = mul(&acc, &p).add_carry(&l1);
        assert_eq!(carry, 0);
        let acc = sub(&mul(&acc, &p), &sub(&mul(&x, &l1), &Uint::ONE));
        assert_eq!(acc, hard_exp, "the x-chain must spell (p⁴ - p² + 1)/r");

        // #E(Fp) = p + 1 - t with trace t = x + 1, so #E = p - x = p + |x|.
        let (order, carry) = fp::MODULUS.add_carry(&Uint::from_u64(BLS_X_ABS));
        assert_eq!(carry, 0);
        let (g1_cofactor, rem) = order.div_rem(&r.widen::<6>());
        assert!(rem.is_zero(), "r must divide #E(Fp)");

        // h = (x − 1)²/3, and the part of E(Fp) outside G1 has exponent
        // x − 1, so [1 − x] — 64 bits of weight 6 against h's 126 — clears
        // the cofactor as [h] does (Wahby–Boneh, TCHES 2019).
        let g1_h_eff = Uint::<1>::from_u64(BLS_X_ABS + 1);
        let (lo, hi) = g1_h_eff.mul_wide(&g1_h_eff);
        let h_eff_sq: Uint<2> = Uint::from_parts(&lo, &hi);
        let (three_h, hi) = g1_cofactor.mul_wide(&Uint::<6>::from_u64(3));
        assert!(hi.is_zero());
        assert_eq!(h_eff_sq.widen::<6>(), three_h, "(1 − x)² must be 3h");
        let off_g1 = (1u64..)
            .find_map(|x| {
                let x = Fp::from_u64(x);
                let y = (x.square() * x + Fp::from_u64(4)).sqrt()?;
                Some(G1Projective::from(G1Affine::from_xy_unchecked(x, y)))
            })
            .expect("E(Fp) has points");
        assert!(!off_g1.mul_uint(&r).is_identity(), "a point outside G1");
        let cleared = off_g1.mul_uint(&g1_h_eff);
        assert!(
            !cleared.is_identity() && cleared.mul_uint(&r).is_identity(),
            "[h_eff] lands in G1"
        );

        // r = x⁴ − x² + 1: what makes λ = −x² a root of λ² + λ + 1 mod r,
        // and four base-|x| digits enough for a scalar.
        let (lo, hi) = X_SQUARED.mul_wide(&X_SQUARED);
        let x4: Uint<4> = Uint::from_parts(&lo, &hi);
        let (lambda_sq_plus_lambda, borrow) = x4.sub_borrow(&X_SQUARED.widen::<4>());
        assert_eq!(borrow, 0);
        assert_eq!(lambda_sq_plus_lambda.add_carry(&Uint::ONE), (r, 0));

        // β: the primitive cube root of unity — there are two, β and β² —
        // whose φ(x, y) = (βx, y) is [λ] on G1; then −φ is [x²].
        let (e3, rem3) = pm1.div_rem(&Uint::from_u64(3));
        assert!(rem3.is_zero(), "p - 1 must be divisible by 3");
        let root = (2u64..)
            .map(|g| Fp::from_u64(g).pow(&e3))
            .find(|b| *b != Fp::ONE)
            .expect("a cubic non-residue");
        let g1_times_x2 = G1Projective::generator().mul_uint(&X_SQUARED);
        let beta = [root, root.square()]
            .into_iter()
            .find(|b| G1Projective::from(g1::neg_phi(&G1Affine::generator(), *b)) == g1_times_x2)
            .expect("φ(g₁) = [λ]g₁ for one cube root of unity");

        // ψ = twist ∘ Frobenius ∘ untwist. With the untwist
        // (x', y') ↦ (x'/w², y'/w³) that is (x̄'·w^(2−2p), ȳ'·w^(3−3p)), and
        // w^(p−1) = γ. It is [p] = [x] on G2, so −ψ is [|x|].
        let psi = (
            frobenius[1].invert().expect("γ ≠ 0"),
            frobenius[2].invert().expect("γ ≠ 0"),
        );
        assert_eq!(
            G2Projective::from(g2::neg_psi(&G2Affine::generator(), &psi)),
            G2Projective::generator().mul_uint(&Uint::<1>::from_u64(BLS_X_ABS)),
            "ψ(g₂) = [x]g₂"
        );

        Consts {
            frobenius,
            x_minus_1_over_3: Uint::from_u64(third),
            g1_cofactor,
            g1_h_eff,
            beta,
            psi,
        }
    })
}

/// The `G1` cofactor `#E(Fp)/r`, used by hash-to-`G1` cofactor clearing.
pub fn g1_cofactor() -> Uint<6> {
    consts().g1_cofactor
}

/// The effective `G1` cofactor `h_eff = 1 − x` (RFC 9380 §8.8.1): `[h_eff]P`
/// lies in `G1` for every `P ∈ E(Fp)`. It is not a multiple of the cofactor
/// `h`, so it generally maps a point to another `G1` element than `[h]`
/// does; hash-to-`G1` clears by it.
pub fn g1_h_eff() -> Uint<1> {
    consts().g1_h_eff
}

/// `−φ`, which multiplies a `G1` point by `x²`.
pub(crate) fn g1_times_x_squared(p: &G1Affine) -> G1Affine {
    g1::neg_phi(p, consts().beta)
}

/// `−ψ`, which multiplies a `G2` point by `|x|`.
pub(crate) fn g2_times_x_abs(p: &G2Affine) -> G2Affine {
    g2::neg_psi(p, &consts().psi)
}

/// `p`-power Frobenius on `Fp12`; `f ↦ f^x` on `GT`.
pub(crate) fn frobenius_p(f: &Fp12) -> Fp12 {
    f.frobenius_map(&consts().frobenius)
}

/// `p²`-power Frobenius on `Fp12`.
pub fn frobenius_p2(f: &Fp12) -> Fp12 {
    frobenius_p(&frobenius_p(f))
}

/// A `G2` accumulator of the Miller loop in homogeneous projective
/// coordinates `(X : Y : Z)`, `x = X/Z`, `y = Y/Z`, on the twist
/// `y² = x³ + 4ξ`.
struct Accumulator {
    x: Fp2,
    y: Fp2,
    z: Fp2,
}

/// A line through points of the twist, evaluated at a `G1` point up to the
/// `P`-dependent scaling [`ell`] applies: `c0 + c1·x_P·v + c4·y_P·v·w`.
///
/// With the M-type untwist `(x', y') ↦ (x'/w², y'/w³)` the line of slope
/// `λ` through `(x₁, y₁)` is `y_P − λ·x_P·w⁻¹ + (λx₁ − y₁)·w⁻³`; times `w³`
/// (a sixth root of an `Fp2` element) that is
/// `(λx₁ − y₁) − λ·x_P·w² + y_P·w³`, and the steps below clear `λ`'s
/// denominator as well — all factors the final exponentiation removes.
struct Line {
    c0: Fp2,
    c1: Fp2,
    c4: Fp2,
}

impl Accumulator {
    /// `T ← 2T`, returning the tangent at `T`.
    ///
    /// `λ = 3X²/(2YZ)`; scaled by `2YZ` and reduced with the curve equation
    /// the tangent is `(Y² − 3b'Z²) − 3X²·x_P·w² + 2YZ·y_P·w³`, and
    /// `2T = (2XY(Y² − 9b'Z²) : Y⁴ + 18b'Y²Z² − 27b'²Z⁴ : 8Y³Z)`.
    fn double(&mut self) -> Line {
        let xx = self.x.square();
        let b = self.y.square();
        let yz = self.y * self.z;
        // E = 3b'·Z² with b' = 4ξ
        let c = self.z.square().mul_by_xi().double().double();
        let e = c.double() + c;
        let three_e = e.double() + e;
        let line = Line {
            c0: b - e,
            c1: -(xx.double() + xx),
            c4: yz.double(),
        };
        let e_sq = e.square();
        self.x = (self.x * self.y * (b - three_e)).double();
        // Y⁴ + 18b'Y²Z² − 27b'²Z⁴ = (B + 3E)² − 12E²
        self.y = (b + three_e).square() - (e_sq.double() + e_sq).double().double();
        self.z = (b * yz).double().double().double();
        line
    }

    /// `T ← T + Q` for affine `Q ≠ ±T`, returning the chord through them.
    ///
    /// With `θ = Y − y_Q·Z` and `μ = X − x_Q·Z` the slope is `θ/μ`; scaled
    /// by `μ` the chord is `(θ·x_Q − μ·y_Q) − θ·x_P·w² + μ·y_P·w³`.
    fn add(&mut self, q: &G2Affine) -> Line {
        let theta = self.y - q.y * self.z;
        let mu = self.x - q.x * self.z;
        let line = Line {
            c0: theta * q.x - mu * q.y,
            c1: -theta,
            c4: mu,
        };
        let mu2 = mu.square();
        let mu3 = mu * mu2;
        let g = self.x * mu2;
        // H = μ³ + θ²Z − 2Xμ²
        let h = mu3 + theta.square() * self.z - g.double();
        self.x = mu * h;
        self.y = theta * (g - h) - mu3 * self.y;
        self.z = mu3 * self.z;
        line
    }
}

/// Folds a line, evaluated at `p`, into `f`.
fn ell(f: &Fp12, line: &Line, p: &G1Affine) -> Fp12 {
    f.mul_by_014(&line.c0, &line.c1.mul_by_fp(p.x), &line.c4.mul_by_fp(p.y))
}

/// The Miller loops `∏ f_{|x|,Qᵢ}(Pᵢ)` of all pairs in one pass, conjugated
/// to account for `x < 0`. Pairs with an identity on either side contribute
/// 1. The result still needs [`final_exponentiation`].
pub fn multi_miller_loop(pairs: &[(G1Affine, G2Affine)]) -> Fp12 {
    let mut pairs: Vec<(&G1Affine, &G2Affine, Accumulator)> = pairs
        .iter()
        .filter(|(p, q)| !p.is_identity() && !q.is_identity())
        .map(|(p, q)| {
            let t = Accumulator {
                x: q.x,
                y: q.y,
                z: Fp2::ONE,
            };
            (p, q, t)
        })
        .collect();
    let mut f = Fp12::ONE;
    let nbits = 64 - BLS_X_ABS.leading_zeros() as usize;
    for i in (0..nbits - 1).rev() {
        f = f.square();
        for (p, _, t) in &mut pairs {
            f = ell(&f, &t.double(), p);
        }
        if (BLS_X_ABS >> i) & 1 == 1 {
            // T = mQ with 2 ≤ m < r-1 here, so T ≠ ±Q for Q of order r
            for (p, q, t) in &mut pairs {
                f = ell(&f, &t.add(q), p);
            }
        }
    }
    // x < 0: f_{x,Q} = conj(f_{|x|,Q}) up to factors killed by the final
    // exponentiation.
    f.conjugate()
}

/// The one-pair [`multi_miller_loop`].
pub fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    multi_miller_loop(&[(*p, *q)])
}

/// `t^((p⁴ − p² + 1)/r)` for `t` in the cyclotomic subgroup, as
/// `t^λ₀ · (t^λ₁)^p · (t^λ₂)^(p²) · (t^λ₃)^(p³)` with the `λᵢ` that
/// [`consts`] checks against the plain exponent.
fn hard_part(t: &Fp12) -> Fp12 {
    let x_abs = Uint::<1>::from_u64(BLS_X_ABS);
    // x < 0, and inversion is conjugation on unitary elements
    let pow_x = |f: &Fp12| f.cyclotomic_pow(&x_abs).conjugate();
    // t^((x−1)/3), then λ₃ = ((x−1)/3)·(x−1)
    let a = t.cyclotomic_pow(&consts().x_minus_1_over_3).conjugate();
    let t3 = pow_x(&a) * a.conjugate();
    // λ₂ = x·λ₃, λ₁ = x·λ₂ − λ₃, λ₀ = x·λ₁ + 1
    let t2 = pow_x(&t3);
    let t1 = pow_x(&t2) * t3.conjugate();
    let t0 = pow_x(&t1) * *t;
    t0 * frobenius_p(&t1) * frobenius_p2(&t2) * frobenius_p(&frobenius_p2(&t3))
}

/// The final exponentiation `f^((p¹² - 1)/r)`.
///
/// # Panics
/// If `f` is zero, which no Miller loop over points of order `r` produces.
pub fn final_exponentiation(f: &Fp12) -> Gt {
    // f^(p⁶ - 1)
    let t = f.conjugate() * f.invert().expect("Miller loop output is nonzero");
    // (f^(p⁶-1))^(p² + 1) — in the cyclotomic subgroup from here on
    let t = frobenius_p2(&t) * t;
    Gt(hard_part(&t))
}

/// The product of pairings `∏ e(Pᵢ, Qᵢ)`: one shared Miller loop, one final
/// exponentiation.
pub fn pairing_product(pairs: &[(G1Affine, G2Affine)]) -> Gt {
    final_exponentiation(&multi_miller_loop(pairs))
}

/// The optimal ate pairing `e(P, Q)`.
///
/// ```
/// use ibbe_pairing::{pairing, G1Affine, G2Affine, Scalar};
/// let e = pairing(&G1Affine::generator(), &G2Affine::generator());
/// assert!(!e.is_identity());
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Gt {
    pairing_product(&[(*p, *q)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    #[test]
    fn consts_derive_without_panicking() {
        let _ = consts();
    }

    /// `Σ dᵢ·|x|ⁱ` by Horner, in the integers.
    fn recombine(digits: [u64; 4]) -> Uint<4> {
        digits.iter().rev().fold(Uint::ZERO, |acc, &d| {
            let (lo, hi) = acc.mul_wide(&Uint::from_u64(BLS_X_ABS));
            assert!(hi.is_zero());
            let (sum, carry) = lo.add_carry(&Uint::from_u64(d));
            assert_eq!(carry, 0);
            sum
        })
    }

    #[test]
    fn x_digits_recombine_to_the_scalar() {
        let mut rng = rng();
        let x = Scalar::from_u64(BLS_X_ABS);
        let mut samples = vec![Scalar::ZERO, Scalar::ONE, -Scalar::ONE];
        for power in [x, x * x, x * x * x, Scalar::from_u64(u64::MAX)] {
            samples.extend([power - Scalar::ONE, power, power + Scalar::ONE, -power]);
        }
        samples.extend((0..200).map(|_| Scalar::random(&mut rng)));
        for k in samples {
            let digits = x_digits(&k);
            assert!(digits.iter().all(|d| *d < BLS_X_ABS), "k = {k:?}");
            assert_eq!(recombine(digits), k.to_uint(), "k = {k:?}");
        }
    }

    #[test]
    fn endomorphisms_act_as_their_eigenvalues_on_order_r_elements() {
        let mut rng = rng();
        let (r_minus_x2, borrow) = fr::MODULUS.sub_borrow(&X_SQUARED.widen::<4>());
        assert_eq!(borrow, 0);
        let (r_minus_x, borrow) = fr::MODULUS.sub_borrow(&Uint::from_u64(BLS_X_ABS));
        assert_eq!(borrow, 0);
        for _ in 0..8 {
            // φ(P) = [λ]P with λ = −x² mod r
            let p = G1Projective::random(&mut rng);
            let phi = -g1_times_x_squared(&p.to_affine());
            assert_eq!(G1Projective::from(phi), p.mul_uint(&r_minus_x2));
            // ψ(Q) = [x mod r]Q
            let q = G2Projective::random(&mut rng);
            let psi = -g2_times_x_abs(&q.to_affine());
            assert_eq!(G2Projective::from(psi), q.mul_uint(&r_minus_x));
            // π(f) = f^(x mod r)
            let f = pairing(&p.to_affine(), &q.to_affine());
            assert_eq!(frobenius_p(&f.0), f.0.cyclotomic_pow(&r_minus_x));
        }
        // all three fix the identity
        assert!(g1_times_x_squared(&G1Affine::identity()).is_identity());
        assert!(g2_times_x_abs(&G2Affine::identity()).is_identity());
        assert_eq!(frobenius_p(&Fp12::ONE), Fp12::ONE);
    }

    #[test]
    fn frobenius_p2_is_a_ring_homomorphism() {
        let mut rng = rng();
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        assert_eq!(frobenius_p2(&(a * b)), frobenius_p2(&a) * frobenius_p2(&b));
        assert_eq!(frobenius_p2(&(a + b)), frobenius_p2(&a) + frobenius_p2(&b));
    }

    #[test]
    fn frobenius_p2_matches_plain_pow() {
        let mut rng = rng();
        let a = Fp12::random(&mut rng);
        let p = fp::MODULUS;
        let (lo, hi) = p.mul_wide(&p);
        let p2: Uint<12> = Uint::from_parts(&lo, &hi);
        assert_eq!(frobenius_p2(&a), a.pow(&p2));
    }

    #[test]
    fn pairing_of_generators_is_nontrivial() {
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        assert!(!e.is_identity());
        // order r: e^r == 1
        assert_eq!(e.pow(&Scalar::ZERO), Gt::IDENTITY);
        let er = e.0.pow(&fr::MODULUS);
        assert_eq!(er, Fp12::ONE, "pairing output must have order dividing r");
    }

    #[test]
    fn bilinearity() {
        let mut rng = rng();
        let a = Scalar::random_nonzero(&mut rng);
        let b = Scalar::random_nonzero(&mut rng);
        let g1 = G1Affine::generator();
        let g2 = G2Affine::generator();
        let lhs = pairing(
            &G1Projective::generator().mul_scalar(&a).to_affine(),
            &G2Projective::generator().mul_scalar(&b).to_affine(),
        );
        let rhs = pairing(&g1, &g2).pow(&(a * b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn additivity_in_first_argument() {
        let mut rng = rng();
        let p1 = G1Projective::random(&mut rng);
        let p2 = G1Projective::random(&mut rng);
        let q = G2Projective::random(&mut rng).to_affine();
        let lhs = pairing(&(p1 + p2).to_affine(), &q);
        let rhs = pairing(&p1.to_affine(), &q) * pairing(&p2.to_affine(), &q);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn cyclotomic_square_matches_generic_on_unitary_elements() {
        let mut rng = rng();
        // random Miller-loop outputs pushed through the easy part are
        // unitary; the optimized squaring must agree with the generic one
        for _ in 0..5 {
            let f = Fp12::random(&mut rng);
            if f.is_zero() {
                continue;
            }
            let t = f.conjugate() * f.invert().unwrap();
            let u = frobenius_p2(&t) * t; // cyclotomic subgroup element
            assert_eq!(u.cyclotomic_square(), u.square());
            // and pow agrees for a non-trivial exponent
            let e = Uint::<1>::from_u64(0xdead_beef);
            assert_eq!(u.cyclotomic_pow(&e), u.pow(&e));
        }
    }

    #[test]
    fn gt_pow_consistent_with_fp12_pow() {
        let mut rng = rng();
        let e = pairing(&G1Affine::generator(), &G2Affine::generator());
        let k = Scalar::random_nonzero(&mut rng);
        assert_eq!(*e.pow(&k).as_fp12(), e.as_fp12().pow(&k.to_uint()));
    }

    #[test]
    fn identity_inputs_give_identity() {
        assert!(pairing(&G1Affine::identity(), &G2Affine::generator()).is_identity());
        assert!(pairing(&G1Affine::generator(), &G2Affine::identity()).is_identity());
    }
}
