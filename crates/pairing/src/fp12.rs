//! Quadratic extension `Fp12 = Fp6[w] / (w² - v)` — the pairing target field.

use crate::fp2::Fp2;
use crate::fp6::Fp6;
use crate::wnaf::{wnaf, TABLE};
use core::ops::{Add, Mul, MulAssign, Neg, Sub};
use ibbe_bigint::Uint;

/// An element `c0 + c1·w` of `Fp12`, with `w² = v`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp12 {
    /// Constant coefficient (an `Fp6`).
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

impl Fp12 {
    /// Additive identity.
    pub const ZERO: Self = Self {
        c0: Fp6::ZERO,
        c1: Fp6::ZERO,
    };

    /// Multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp6::ONE,
        c1: Fp6::ZERO,
    };

    /// Constructs `c0 + c1·w`.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// True for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Uniformly random element (for tests).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fp6::random(rng),
            c1: Fp6::random(rng),
        }
    }

    /// `self²`.
    pub fn square(&self) -> Self {
        // (a + bw)² = a² + b²v + 2abw
        let ab = self.c0 * self.c1;
        let c0 = self.c0.square() + self.c1.square().mul_by_v();
        Self {
            c0,
            c1: ab.double(),
        }
    }

    /// Conjugation over `Fp6`: `c0 - c1·w`. Equals the `p⁶`-power Frobenius,
    /// and the inverse on the cyclotomic subgroup (unitary elements).
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// Multiplicative inverse; `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        // 1/(a + bw) = (a - bw) / (a² - b²·v)
        let denom = self.c0.square() - self.c1.square().mul_by_v();
        denom.invert().map(|d| Self {
            c0: self.c0 * d,
            c1: -(self.c1 * d),
        })
    }

    /// Exponentiation by a canonical integer exponent
    /// (square-and-multiply, MSB first).
    pub fn pow<const E: usize>(&self, exp: &Uint<E>) -> Self {
        let mut acc = Self::ONE;
        for i in (0..exp.bits()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc *= *self;
            }
        }
        acc
    }

    /// Granger–Scott squaring, valid **only** for elements of the
    /// cyclotomic subgroup (where `f^(p⁶+1) = f^(p⁶)·f = N(f) = 1`, i.e.
    /// unitary elements — everything after the easy part of the final
    /// exponentiation, hence all of `GT`). Roughly 3× cheaper than
    /// [`Fp12::square`]; equality with the generic squaring on unitary
    /// inputs is asserted by tests and debug assertions.
    pub fn cyclotomic_square(&self) -> Self {
        // Granger–Scott '09 compressed squaring over three Fp4 blocks:
        //   (z0, z1) ~ (c0.c0, c1.c1), (z2, z3) ~ (c1.c0, c0.c2),
        //   (z4, z5) ~ (c0.c1, c1.c2)
        fn fp4_square(a: Fp2, b: Fp2) -> (Fp2, Fp2) {
            let t0 = a.square();
            let t1 = b.square();
            let c0 = t1.mul_by_xi() + t0;
            let c1 = (a + b).square() - t0 - t1;
            (c0, c1)
        }

        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;

        let (t0, t1) = fp4_square(z0, z1);
        let z0 = (t0 - z0).double() + t0;
        let z1 = (t1 + z1).double() + t1;

        let (t0, t1) = fp4_square(z2, z3);
        let (t2, t3) = fp4_square(z4, z5);
        let z4 = (t0 - z4).double() + t0;
        let z5 = (t1 + z5).double() + t1;
        let t0 = t3.mul_by_xi();
        let z2 = (t0 + z2).double() + t0;
        let z3 = (t2 - z3).double() + t2;

        Self {
            c0: Fp6::new(z0, z4, z3),
            c1: Fp6::new(z2, z1, z5),
        }
    }

    /// Exponentiation for **unitary** elements: cyclotomic squarings and a
    /// wNAF digit string (inversion is conjugation there, so negative digits
    /// are free). Callers must guarantee the element lies in the cyclotomic
    /// subgroup (`GT` elements and post-easy-part final-exponentiation
    /// values do). Variable-time in the exponent.
    pub fn cyclotomic_pow<const E: usize>(&self, exp: &Uint<E>) -> Self {
        Self::cyclotomic_multi_pow(&[self.odd_powers()], &[wnaf(exp)])
    }

    /// The odd powers `f, f³, f⁵, …` of a unitary element that a wNAF digit
    /// selects from.
    pub(crate) fn odd_powers(&self) -> [Self; TABLE] {
        debug_assert_eq!(
            self.cyclotomic_square(),
            self.square(),
            "cyclotomic exponentiation requires a unitary element"
        );
        let squared = self.cyclotomic_square();
        let mut table = [*self; TABLE];
        for i in 1..TABLE {
            table[i] = table[i - 1] * squared;
        }
        table
    }

    /// `Π fᵢ^kᵢ` over one shared chain of cyclotomic squarings, for the wNAF
    /// string `digits[i]` of `kᵢ` and the odd powers of the unitary `fᵢ` in
    /// `tables[i]`.
    pub(crate) fn cyclotomic_multi_pow(tables: &[[Self; TABLE]], digits: &[Vec<i8>]) -> Self {
        let len = digits.iter().map(Vec::len).max().unwrap_or(0);
        let mut acc = Self::ONE;
        for i in (0..len).rev() {
            acc = acc.cyclotomic_square();
            for (table, digits) in tables.iter().zip(digits) {
                let d = digits.get(i).copied().unwrap_or(0);
                if d > 0 {
                    acc *= table[d as usize / 2];
                } else if d < 0 {
                    acc *= table[d.unsigned_abs() as usize / 2].conjugate();
                }
            }
        }
        acc
    }

    /// `self · (c0 + c1·v + c4·v·w)` — the product with a Miller-loop line,
    /// which is zero in three of its six `Fp2` coefficients: 13 `Fp2`
    /// multiplications instead of the 18 of a full product.
    pub fn mul_by_014(&self, c0: &Fp2, c1: &Fp2, c4: &Fp2) -> Self {
        let aa = self.c0.mul_by_01(c0, c1);
        let bb = self.c1.mul_by_1(c4);
        let cross = (self.c0 + self.c1).mul_by_01(c0, &(*c1 + *c4));
        Self {
            c0: aa + bb.mul_by_v(),
            c1: cross - aa - bb,
        }
    }

    /// The `p`-power Frobenius, given `γ^1..γ^5` for `γ = ξ^((p−1)/6)`:
    /// `(Σ aᵢ·wⁱ)^p = Σ āᵢ·γⁱ·wⁱ`, because `w^p = w·(w⁶)^((p−1)/6)` and
    /// `w⁶ = ξ`. The coefficients are derived (and checked) in
    /// [`crate::pairing`].
    pub(crate) fn frobenius_map(&self, gamma: &[Fp2; 5]) -> Self {
        Self {
            c0: Fp6::new(
                self.c0.c0.conjugate(),
                self.c0.c1.conjugate() * gamma[1],
                self.c0.c2.conjugate() * gamma[3],
            ),
            c1: Fp6::new(
                self.c1.c0.conjugate() * gamma[0],
                self.c1.c1.conjugate() * gamma[2],
                self.c1.c2.conjugate() * gamma[4],
            ),
        }
    }

    /// The flat `Fp2` coefficient view `(w⁰, w², w⁴, w¹, w³, w⁵)`; helper for
    /// building sparse line elements and serialization.
    pub fn coefficients(&self) -> [Fp2; 6] {
        [
            self.c0.c0, self.c0.c1, self.c0.c2, self.c1.c0, self.c1.c1, self.c1.c2,
        ]
    }

    /// Serializes all twelve `Fp` coefficients (576 bytes), in the order of
    /// [`Fp12::coefficients`]: what symmetric keys are derived from, and how
    /// a public key carries its `GT` element.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(576);
        for c in self.coefficients() {
            out.extend_from_slice(&c.to_bytes());
        }
        out
    }

    /// Parses [`Fp12::to_bytes`]; `None` unless 576 bytes of canonical
    /// coefficients.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 576 {
            return None;
        }
        let mut c = [Fp2::ZERO; 6];
        for (c, chunk) in c.iter_mut().zip(bytes.chunks_exact(96)) {
            *c = Fp2::from_bytes(chunk.try_into().ok()?)?;
        }
        Some(Self::new(
            Fp6::new(c[0], c[1], c[2]),
            Fp6::new(c[3], c[4], c[5]),
        ))
    }
}

impl Add for Fp12 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fp12 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Neg for Fp12 {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl Mul for Fp12 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // (a0 + a1 w)(b0 + b1 w) = a0b0 + a1b1·v + [(a0+a1)(b0+b1) - a0b0 - a1b1]·w
        let aa = self.c0 * rhs.c0;
        let bb = self.c1 * rhs.c1;
        let cross = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self {
            c0: aa + bb.mul_by_v(),
            c1: cross - aa - bb,
        }
    }
}

impl MulAssign for Fp12 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl core::fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp12({:?} + {:?}·w)", self.c0, self.c1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(17)
    }

    fn w() -> Fp12 {
        Fp12::new(Fp6::ZERO, Fp6::ONE)
    }

    #[test]
    fn w_squared_is_v() {
        let v = Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO);
        assert_eq!(w().square(), Fp12::new(v, Fp6::ZERO));
        assert_eq!(w() * w(), Fp12::new(v, Fp6::ZERO));
    }

    #[test]
    fn axioms() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = Fp12::random(&mut rng);
            let b = Fp12::random(&mut rng);
            let c = Fp12::random(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!(a * (b * c), (a * b) * c);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
            assert_eq!(a * Fp12::ONE, a);
        }
    }

    #[test]
    fn inversion() {
        let mut rng = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut rng);
            if !a.is_zero() {
                assert_eq!(a * a.invert().unwrap(), Fp12::ONE);
            }
        }
        assert!(Fp12::ZERO.invert().is_none());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut rng = rng();
        let a = Fp12::random(&mut rng);
        let mut want = Fp12::ONE;
        for _ in 0..9 {
            want *= a;
        }
        assert_eq!(a.pow(&Uint::<1>::from_u64(9)), want);
    }

    #[test]
    fn conjugate_is_involution_and_multiplicative() {
        let mut rng = rng();
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        assert_eq!(a.conjugate().conjugate(), a);
        assert_eq!((a * b).conjugate(), a.conjugate() * b.conjugate());
    }

    #[test]
    fn to_bytes_is_injective_on_samples() {
        let mut rng = rng();
        let a = Fp12::random(&mut rng);
        let b = Fp12::random(&mut rng);
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.to_bytes().len(), 576);
    }
}
