//! Cubic extension `Fp6 = Fp2[v] / (v³ - ξ)` with `ξ = u + 1`.

use crate::fp2::Fp2;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element `c0 + c1·v + c2·v²` of `Fp6`, with `v³ = ξ`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp6 {
    /// Constant coefficient.
    pub c0: Fp2,
    /// Coefficient of `v`.
    pub c1: Fp2,
    /// Coefficient of `v²`.
    pub c2: Fp2,
}

impl Fp6 {
    /// Additive identity.
    pub const ZERO: Self = Self {
        c0: Fp2::ZERO,
        c1: Fp2::ZERO,
        c2: Fp2::ZERO,
    };

    /// Multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp2::ONE,
        c1: Fp2::ZERO,
        c2: Fp2::ZERO,
    };

    /// Constructs `c0 + c1·v + c2·v²`.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Self { c0, c1, c2 }
    }

    /// Embeds an `Fp2` element.
    pub const fn from_fp2(c0: Fp2) -> Self {
        Self {
            c0,
            c1: Fp2::ZERO,
            c2: Fp2::ZERO,
        }
    }

    /// True for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    /// Uniformly random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fp2::random(rng),
            c1: Fp2::random(rng),
            c2: Fp2::random(rng),
        }
    }

    /// Multiplication by `v`: `(c0, c1, c2) ↦ (ξ·c2, c0, c1)`.
    pub fn mul_by_v(&self) -> Self {
        Self {
            c0: self.c2.mul_by_xi(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// `self · c1·v` (a one-coefficient operand): 3 `Fp2` multiplications.
    pub(crate) fn mul_by_1(&self, c1: &Fp2) -> Self {
        Self {
            c0: (self.c2 * *c1).mul_by_xi(),
            c1: self.c0 * *c1,
            c2: self.c1 * *c1,
        }
    }

    /// `self · (c0 + c1·v)` (a two-coefficient operand): 5 `Fp2`
    /// multiplications.
    pub(crate) fn mul_by_01(&self, c0: &Fp2, c1: &Fp2) -> Self {
        let aa = self.c0 * *c0;
        let bb = self.c1 * *c1;
        Self {
            c0: (self.c2 * *c1).mul_by_xi() + aa,
            c1: (*c0 + *c1) * (self.c0 + self.c1) - aa - bb,
            c2: self.c2 * *c0 + bb,
        }
    }

    /// `self²`.
    pub fn square(&self) -> Self {
        *self * *self
    }

    /// `2·self`.
    pub fn double(&self) -> Self {
        Self {
            c0: self.c0.double(),
            c1: self.c1.double(),
            c2: self.c2.double(),
        }
    }

    /// Multiplicative inverse; `None` for zero.
    ///
    /// Standard formula (Beuchat et al.): with
    /// `A = c0² - ξ·c1·c2`, `B = ξ·c2² - c0·c1`, `C = c1² - c0·c2` and
    /// `F = c0·A + ξ·(c2·B + c1·C)`, the inverse is `(A + B·v + C·v²)/F`.
    pub fn invert(&self) -> Option<Self> {
        let a = self.c0.square() - (self.c1 * self.c2).mul_by_xi();
        let b = self.c2.square().mul_by_xi() - self.c0 * self.c1;
        let c = self.c1.square() - self.c0 * self.c2;
        let f = self.c0 * a + (self.c2 * b + self.c1 * c).mul_by_xi();
        f.invert().map(|finv| Self {
            c0: a * finv,
            c1: b * finv,
            c2: c * finv,
        })
    }
}

impl Add for Fp6 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
            c2: self.c2 + rhs.c2,
        }
    }
}

impl Sub for Fp6 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
            c2: self.c2 - rhs.c2,
        }
    }
}

impl Neg for Fp6 {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            c0: -self.c0,
            c1: -self.c1,
            c2: -self.c2,
        }
    }
}

impl Mul for Fp6 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Toom/Karatsuba-style interpolation with v³ = ξ:
        //   out0 = a0b0 + ξ[(a1+a2)(b1+b2) - a1b1 - a2b2]
        //   out1 = (a0+a1)(b0+b1) - a0b0 - a1b1 + ξ·a2b2
        //   out2 = (a0+a2)(b0+b2) - a0b0 - a2b2 + a1b1
        let aa = self.c0 * rhs.c0;
        let bb = self.c1 * rhs.c1;
        let cc = self.c2 * rhs.c2;
        let t1 = (self.c1 + self.c2) * (rhs.c1 + rhs.c2) - bb - cc;
        let t2 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1) - aa - bb;
        let t3 = (self.c0 + self.c2) * (rhs.c0 + rhs.c2) - aa - cc;
        Self {
            c0: aa + t1.mul_by_xi(),
            c1: t2 + cc.mul_by_xi(),
            c2: t3 + bb,
        }
    }
}

impl AddAssign for Fp6 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp6 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp6 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl core::fmt::Debug for Fp6 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp6({:?}, {:?}, {:?})", self.c0, self.c1, self.c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(13)
    }

    fn v() -> Fp6 {
        Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO)
    }

    #[test]
    fn v_cubed_is_xi() {
        let v3 = v() * v() * v();
        assert_eq!(v3, Fp6::from_fp2(Fp2::xi()));
    }

    #[test]
    fn mul_by_v_matches_explicit() {
        let mut rng = rng();
        let a = Fp6::random(&mut rng);
        assert_eq!(a.mul_by_v(), a * v());
    }

    #[test]
    fn axioms() {
        let mut rng = rng();
        for _ in 0..15 {
            let a = Fp6::random(&mut rng);
            let b = Fp6::random(&mut rng);
            let c = Fp6::random(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!(a * (b * c), (a * b) * c);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a * Fp6::ONE, a);
            assert_eq!(a.square(), a * a);
        }
    }

    #[test]
    fn inversion() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = Fp6::random(&mut rng);
            if !a.is_zero() {
                assert_eq!(a * a.invert().unwrap(), Fp6::ONE);
            }
        }
        assert!(Fp6::ZERO.invert().is_none());
    }

    #[test]
    fn embeds_fp2_multiplicatively() {
        let mut rng = rng();
        let a = Fp2::random(&mut rng);
        let b = Fp2::random(&mut rng);
        assert_eq!(Fp6::from_fp2(a) * Fp6::from_fp2(b), Fp6::from_fp2(a * b));
    }
}
