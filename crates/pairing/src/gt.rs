//! The pairing target group `GT ⊂ Fp12*` (order `r`), written multiplicatively.
//!
//! `GT` gets the same split as the curves (see [`crate::curve`]): the
//! `p`-power Frobenius `π` — five `Fp2` multiplications — is `f ↦ f^p = f^x`
//! on an element of order `r` (`p ≡ x mod r`), and inversion is conjugation,
//! so `η = conj ∘ π` is `f ↦ f^|x|` and `f^k = Π ηⁱ(f)^dᵢ` over the
//! base-`|x|` digits `dᵢ < 2⁶⁴` of `k`. [`Gt::pow`] takes the `ηⁱ` images of
//! one table of odd powers as the tables of the `ηⁱ(f)`, and the four digit
//! strings share a chain of 64 cyclotomic squarings instead of 255. A base
//! that stays fixed across many exponents (IBBE's `v`) takes a
//! [`crate::fixed::FixedBase`] table instead: the same digits, no squaring
//! chain, one multiplication per 6-bit window, and three Frobenius images
//! folded in by Horner's rule. The precondition — order `r` — is the type's
//! invariant; every exponentiation is variable-time in `k` like every other
//! in the crate.

use crate::fp12::Fp12;
use crate::fr::Scalar;
use crate::pairing::{frobenius_p, x_wnaf};
use core::ops::Mul;

/// Serialized `GT` element size in bytes (twelve `Fp` coefficients).
pub const GT_BYTES: usize = 576;

/// An element of `GT`, the image of the pairing after final exponentiation.
///
/// `Gt` values are produced by [`crate::pairing()`] and by group operations on
/// existing elements, and parsed by [`Gt::from_bytes`], which checks the
/// order; there is no public constructor from raw `Fp12`, which preserves
/// the invariant that elements lie in the order-`r` subgroup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gt(pub(crate) Fp12);

impl Gt {
    /// The identity element.
    pub const IDENTITY: Self = Self(Fp12::ONE);

    /// True for the identity.
    pub fn is_identity(&self) -> bool {
        self.0 == Fp12::ONE
    }

    /// Group exponentiation `self^k`, split along the Frobenius (cyclotomic
    /// squarings — all `GT` elements are unitary).
    pub fn pow(&self, k: &Scalar) -> Self {
        let mut tables = [self.0.odd_powers(); 4];
        for i in 1..4 {
            tables[i] = tables[i - 1].map(|f| frobenius_p(&f).conjugate());
        }
        Self(Fp12::cyclotomic_multi_pow(&tables, &x_wnaf(k)))
    }

    /// Inverse; on the cyclotomic subgroup this is conjugation, so it is
    /// cheap and never fails.
    pub fn invert(&self) -> Self {
        Self(self.0.conjugate())
    }

    /// Deterministic, injective serialization ([`GT_BYTES`] bytes). Used to
    /// derive symmetric keys from broadcast keys (`sha256(bk)` in the
    /// paper) and to publish `v` in the IBBE public key.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses [`Gt::to_bytes`], refusing every `Fp12` element outside `GT`.
    /// `Fp12*` is cyclic, so its elements of order dividing `r` are exactly
    /// `GT`: the check is `f^r = 1`, one 255-bit power.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let f = Fp12::from_bytes(bytes)?;
        (f.pow(&crate::fr::MODULUS) == Fp12::ONE).then_some(Self(f))
    }

    /// Access to the underlying field element (read-only).
    pub fn as_fp12(&self) -> &Fp12 {
        &self.0
    }
}

impl Mul for Gt {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self(self.0 * rhs.0)
    }
}

impl Default for Gt {
    fn default() -> Self {
        Self::IDENTITY
    }
}
