//! Quadratic extension `Fp2 = Fp[u] / (u² + 1)`.

use crate::fp::Fp;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use ibbe_bigint::Uint;

/// An element `c0 + c1·u` of `Fp2`, with `u² = -1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp2 {
    /// Real part.
    pub c0: Fp,
    /// Coefficient of `u`.
    pub c1: Fp,
}

impl Fp2 {
    /// Additive identity.
    pub const ZERO: Self = Self {
        c0: Fp::ZERO,
        c1: Fp::ZERO,
    };

    /// Multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp::ONE,
        c1: Fp::ZERO,
    };

    /// Size of the canonical encoding in bytes (`c1 ‖ c0`, big-endian parts).
    pub const BYTES: usize = 96;

    /// Constructs `c0 + c1·u`.
    pub const fn new(c0: Fp, c1: Fp) -> Self {
        Self { c0, c1 }
    }

    /// The quadratic non-residue `ξ = u + 1` used to build `Fp6`.
    pub fn xi() -> Self {
        Self {
            c0: Fp::ONE,
            c1: Fp::ONE,
        }
    }

    /// True for the additive identity.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Uniformly random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self {
            c0: Fp::random(rng),
            c1: Fp::random(rng),
        }
    }

    /// `self²` (complex squaring).
    pub fn square(&self) -> Self {
        // (a + bu)² = (a+b)(a-b) + 2ab·u
        let a = self.c0;
        let b = self.c1;
        Self {
            c0: (a + b) * (a - b),
            c1: (a * b).double(),
        }
    }

    /// `2·self`.
    pub fn double(&self) -> Self {
        Self {
            c0: self.c0.double(),
            c1: self.c1.double(),
        }
    }

    /// Complex conjugate `c0 - c1·u`; this is also the `p`-power Frobenius.
    pub fn conjugate(&self) -> Self {
        Self {
            c0: self.c0,
            c1: -self.c1,
        }
    }

    /// Field norm `N(a) = c0² + c1² ∈ Fp`.
    pub fn norm(&self) -> Fp {
        self.c0.square() + self.c1.square()
    }

    /// Multiplication by the non-residue `ξ = u + 1`:
    /// `(c0 + c1·u)(1 + u) = (c0 - c1) + (c0 + c1)·u`.
    pub fn mul_by_xi(&self) -> Self {
        Self {
            c0: self.c0 - self.c1,
            c1: self.c0 + self.c1,
        }
    }

    /// Scales by a base-field element.
    pub fn mul_by_fp(&self, s: Fp) -> Self {
        Self {
            c0: self.c0 * s,
            c1: self.c1 * s,
        }
    }

    /// Multiplicative inverse; `None` for zero.
    pub fn invert(&self) -> Option<Self> {
        // 1/(a + bu) = (a - bu) / (a² + b²)
        self.norm().invert().map(|ninv| Self {
            c0: self.c0 * ninv,
            c1: -(self.c1 * ninv),
        })
    }

    /// Exponentiation by a canonical integer exponent.
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

    /// Quadratic-residue test via the norm map:
    /// `a` is a square in `Fp2` iff `N(a)` is a square in `Fp`.
    pub fn is_square(&self) -> bool {
        self.norm().is_square()
    }

    /// Square root, if one exists (verified by squaring).
    ///
    /// Uses the norm trick valid for `p ≡ 3 (mod 4)`: with `n = N(a)` and
    /// `s = sqrt(n)`, a root is `x0 + x1·u` where `x0² = (c0 + s)/2`
    /// (or `(c0 - s)/2`) and `x1 = c1 / (2·x0)`.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(Self::ZERO);
        }
        let s = self.norm().sqrt()?;
        let two_inv = Fp::from_u64(2).invert().expect("2 is invertible");
        let mut delta = (self.c0 + s) * two_inv;
        if !delta.is_square() {
            delta = (self.c0 - s) * two_inv;
        }
        let x0 = delta.sqrt()?;
        let cand = if x0.is_zero() {
            // a = c1·u with c1 ≠ 0; root is x1·u·(1+u)/... fall back: x1² = -c0? —
            // handle via: (x1·u)² = -x1², so need c1 = 0; here c0 = -x1².
            let x1 = (-self.c0).sqrt()?;
            Self {
                c0: Fp::ZERO,
                c1: x1,
            }
        } else {
            let x1 = self.c1 * two_inv * x0.invert().expect("x0 nonzero");
            Self { c0: x0, c1: x1 }
        };
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }

    /// Lexicographic sign for point compression: compares `c1` first, then
    /// `c0`, against their negations.
    pub fn is_lexicographically_largest(&self) -> bool {
        if !self.c1.is_zero() {
            self.c1.is_lexicographically_largest()
        } else {
            self.c0.is_lexicographically_largest()
        }
    }

    /// Canonical encoding `c1 ‖ c0` (96 bytes).
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..48].copy_from_slice(&self.c1.to_bytes());
        out[48..].copy_from_slice(&self.c0.to_bytes());
        out
    }

    /// Parses the canonical encoding.
    pub fn from_bytes(bytes: &[u8; 96]) -> Option<Self> {
        let mut c1b = [0u8; 48];
        let mut c0b = [0u8; 48];
        c1b.copy_from_slice(&bytes[..48]);
        c0b.copy_from_slice(&bytes[48..]);
        Some(Self {
            c0: Fp::from_bytes(&c0b)?,
            c1: Fp::from_bytes(&c1b)?,
        })
    }
}

impl Add for Fp2 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 + rhs.c0,
            c1: self.c1 + rhs.c1,
        }
    }
}

impl Sub for Fp2 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            c0: self.c0 - rhs.c0,
            c1: self.c1 - rhs.c1,
        }
    }
}

impl Neg for Fp2 {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            c0: -self.c0,
            c1: -self.c1,
        }
    }
}

impl Mul for Fp2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba with u² = -1:
        // (a0 + a1 u)(b0 + b1 u) = a0b0 - a1b1 + ((a0+a1)(b0+b1) - a0b0 - a1b1)u
        let aa = self.c0 * rhs.c0;
        let bb = self.c1 * rhs.c1;
        let cross = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self {
            c0: aa - bb,
            c1: cross - aa - bb,
        }
    }
}

impl AddAssign for Fp2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for Fp2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for Fp2 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl core::fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fp2({:?} + {:?}·u)", self.c0, self.c1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::ZERO, Fp::ONE);
        assert_eq!(u.square(), -Fp2::ONE);
        assert_eq!(u * u, -Fp2::ONE);
    }

    #[test]
    fn axioms() {
        let mut rng = rng();
        for _ in 0..30 {
            let a = Fp2::random(&mut rng);
            let b = Fp2::random(&mut rng);
            let c = Fp2::random(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!(a * (b * c), (a * b) * c);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
            assert_eq!(a.double(), a + a);
        }
    }

    #[test]
    fn inversion() {
        let mut rng = rng();
        for _ in 0..20 {
            let a = Fp2::random(&mut rng);
            if !a.is_zero() {
                assert_eq!(a * a.invert().unwrap(), Fp2::ONE);
            }
        }
        assert!(Fp2::ZERO.invert().is_none());
    }

    #[test]
    fn conjugate_norm_consistency() {
        let mut rng = rng();
        let a = Fp2::random(&mut rng);
        let n = a * a.conjugate();
        assert_eq!(n.c1, Fp::ZERO);
        assert_eq!(n.c0, a.norm());
    }

    #[test]
    fn mul_by_xi_matches_explicit() {
        let mut rng = rng();
        let a = Fp2::random(&mut rng);
        assert_eq!(a.mul_by_xi(), a * Fp2::xi());
    }

    #[test]
    fn sqrt_roundtrip() {
        let mut rng = rng();
        for _ in 0..20 {
            let a = Fp2::random(&mut rng);
            let sq = a.square();
            let r = sq.sqrt().expect("squares have roots");
            assert!(r == a || r == -a, "root must be ±a");
        }
        assert_eq!(Fp2::ZERO.sqrt(), Some(Fp2::ZERO));
    }

    #[test]
    fn sqrt_of_non_residue_fails() {
        let mut rng = rng();
        let mut non_residues = 0;
        for _ in 0..40 {
            let a = Fp2::random(&mut rng);
            if !a.is_square() {
                assert!(a.sqrt().is_none());
                non_residues += 1;
            }
        }
        assert!(non_residues > 0, "expected some non-residues in 40 samples");
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut rng = rng();
        let a = Fp2::random(&mut rng);
        let mut want = Fp2::ONE;
        for _ in 0..13 {
            want *= a;
        }
        assert_eq!(a.pow(&Uint::<1>::from_u64(13)), want);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = rng();
        let a = Fp2::random(&mut rng);
        assert_eq!(Fp2::from_bytes(&a.to_bytes()).unwrap(), a);
    }

    #[test]
    fn lexicographic_sign_flips() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = Fp2::random(&mut rng);
            if !a.is_zero() {
                assert_ne!(
                    a.is_lexicographically_largest(),
                    (-a).is_lexicographically_largest()
                );
            }
        }
    }
}
