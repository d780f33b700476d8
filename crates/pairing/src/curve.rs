//! Generic short-Weierstrass group arithmetic shared by `G1` (over `Fp`),
//! `G2` (over `Fp2`) and the secp256k1 baseline curve.
//!
//! Points are exposed in two shapes: [`Affine`] (for serialization, curve
//! membership checks and pairing inputs) and [`Projective`] (Jacobian
//! coordinates, for arithmetic). Both are generic over a [`Curve`] marker
//! type supplying the base field and curve constants.
//!
//! **Two doubling chains.** [`Projective::mul_uint`] multiplies by any
//! integer (width-4 wNAF over a table of odd multiples, one doubling per
//! bit): cofactor clearing, `r`-multiples, secp256k1. The Straus loop
//! under [`Projective::msm`] interleaves any number of wNAF digit strings
//! over one shared chain, against per-term tables normalised to affine
//! with a single inversion so that every addition is mixed.
//!
//! **Scalars are split, not laddered.** BLS12-381 gives each of its groups
//! an endomorphism that costs a field multiplication or two and acts on the
//! order-`r` subgroup as a power of the curve parameter `x = −|x|`
//! (`r = x⁴ − x² + 1`, so `|x|⁴ > r`):
//!
//! * `G1`: `φ(x, y) = (βx, y)`, `β³ = 1`, is `[λ]` for `λ = −x²`
//!   (`λ² + λ + 1 = r`);
//! * `G2`: `ψ` = untwist, `p`-power Frobenius, twist is `[p] = [x]`
//!   (`p ≡ x mod r`);
//! * `GT`: the `p`-power Frobenius `π` is `f ↦ f^x` likewise (see
//!   [`crate::gt`]).
//!
//! A scalar `k < r` is written `Σ dᵢ·|x|ⁱ`, `dᵢ < |x| < 2⁶⁴`, by short
//! division alone — no lattice, no rounding — and, negation being free,
//! `[k]P = Σ dᵢ·ηⁱ(P)` with `η = −ψ` on `G2` (four 64-bit terms) and, taking
//! the digits in pairs, `η = −φ = [x²]` on `G1` (two 128-bit terms).
//! [`Projective::mul_scalar`] therefore is the Straus loop over **one**
//! table of odd multiples and its images under `η`: 64 (128) doublings
//! instead of 255 at the same number of additions. The same `η` gives the
//! subgroup test: `η(P) = [m]P` for its eigenvalue `m` holds only on the
//! order-`r` points ([`Curve::is_in_prime_subgroup`]).
//!
//! *Precondition:* the endomorphisms are `[m]` on the order-`r` subgroup
//! only, so `mul_scalar` requires its point there — every [`Affine`] parsed
//! by [`Affine::from_bytes`] is, as is everything derived from generators;
//! points elsewhere on the curve (hash-to-curve candidates) take `mul_uint`.
//! *Side channels:* every routine here branches on its scalar's digits and
//! indexes tables by them — variable-time in the scalar, exactly as the
//! double-and-add ladder they all replaced (which survives as the test
//! oracle in `tests/reference`).

use crate::fr::Scalar;
use crate::wnaf::{wnaf, TABLE};
use core::fmt::Debug;
use core::marker::PhantomData;
use core::ops::{Add, Mul, Neg, Sub};

/// Fewest terms a Straus run of [`Projective::msm`] keeps when the sum is
/// split across cores. A run on another thread costs a spawn and a join
/// (≈ 45 µs) plus a doubling chain of its own (255 doublings: ≈ 0.12 ms on
/// `G1`, ≈ 0.33 ms on `G2`), against ≈ 40 µs (`G1`) or ≈ 130 µs (`G2`) for
/// every term it takes over — measured on the 2-core box this was written
/// on, where a 127-term `G2` sum went from 16.5 ms to 8.6 ms. At 16 terms a
/// run repays its overhead four times over on `G1` and five on `G2`, which
/// leaves room for callers that are themselves concurrent.
pub const MSM_MIN_TERMS: usize = 16;

/// Operations the group arithmetic needs from a coordinate field.
///
/// Implemented by [`crate::fp::Fp`] and [`crate::fp2::Fp2`]. This trait is an
/// internal seam of the crate; it is public only because `Affine`/`Projective`
/// expose it in their bounds.
pub trait CurveField:
    Copy
    + PartialEq
    + Eq
    + Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// True for the additive identity.
    fn is_zero(&self) -> bool;
    /// `self²`.
    fn square(&self) -> Self;
    /// `2·self`.
    fn double(&self) -> Self;
    /// Multiplicative inverse; `None` for zero.
    fn invert(&self) -> Option<Self>;
    /// Square root, if one exists.
    fn sqrt(&self) -> Option<Self>;
    /// Sign used to disambiguate `±y` in compressed encodings.
    fn is_lexicographically_largest(&self) -> bool;
    /// Canonical encoding length in bytes.
    fn encoded_len() -> usize;
    /// Canonical encoding appended to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Parses a canonical encoding of length [`CurveField::encoded_len`].
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl CurveField for crate::fp::Fp {
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
        let arr: &[u8; 48] = bytes.try_into().ok()?;
        Self::from_bytes(arr)
    }
}

impl CurveField for crate::fp2::Fp2 {
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
        let arr: &[u8; 96] = bytes.try_into().ok()?;
        Self::from_bytes(arr)
    }
}

/// Marker trait describing one concrete curve `y² = x³ + b`.
pub trait Curve: Copy + PartialEq + Eq + Debug + Send + Sync + 'static {
    /// Coordinate field.
    type Base: CurveField;
    /// The constant `b` of the curve equation.
    fn b() -> Self::Base;
    /// Affine coordinates of the subgroup generator.
    fn generator_xy() -> (Self::Base, Self::Base);
    /// Human-readable group name for `Debug` output.
    fn name() -> &'static str;
    /// True iff the (on-curve) point lies in the prime-order subgroup.
    /// Annihilates with `r` unless the curve knows better: `G1` and `G2`
    /// test their endomorphism's eigenvalue, prime-order curves (cofactor
    /// 1, e.g. secp256k1) return true unconditionally.
    fn is_in_prime_subgroup(p: &Projective<Self>) -> bool {
        p.mul_uint(&crate::fr::MODULUS).is_identity()
    }
    /// `[k]p` for `p` in the order-`r` subgroup. One [`Projective::mul_uint`]
    /// ladder unless the curve has an endomorphism to split `k` along.
    fn mul_scalar(p: &Projective<Self>, k: &Scalar) -> Projective<Self> {
        p.mul_uint(&k.to_uint())
    }
}

/// An affine point (or the point at infinity).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Affine<C: Curve> {
    /// x-coordinate (unspecified when `infinity`).
    pub x: C::Base,
    /// y-coordinate (unspecified when `infinity`).
    pub y: C::Base,
    /// True for the point at infinity.
    pub infinity: bool,
    _curve: PhantomData<C>,
}

/// A point in Jacobian projective coordinates `(X : Y : Z)`,
/// `x = X/Z²`, `y = Y/Z³`; infinity is `Z = 0`.
#[derive(Clone, Copy)]
pub struct Projective<C: Curve> {
    x: C::Base,
    y: C::Base,
    z: C::Base,
    _curve: PhantomData<C>,
}

impl<C: Curve> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
            _curve: PhantomData,
        }
    }

    /// The subgroup generator.
    pub fn generator() -> Self {
        let (x, y) = C::generator_xy();
        Self {
            x,
            y,
            infinity: false,
            _curve: PhantomData,
        }
    }

    /// Constructs a point from coordinates **without** a curve check.
    /// Intended for internal use and tests; untrusted inputs should go
    /// through [`Affine::from_bytes`].
    pub fn from_xy_unchecked(x: C::Base, y: C::Base) -> Self {
        Self {
            x,
            y,
            infinity: false,
            _curve: PhantomData,
        }
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// The image under a coordinate map that fixes the point at infinity —
    /// how the curves state their endomorphisms.
    pub(crate) fn map_xy(&self, f: impl FnOnce(C::Base, C::Base) -> (C::Base, C::Base)) -> Self {
        let (x, y) = f(self.x, self.y);
        Self { x, y, ..*self }
    }

    /// Checks `y² = x³ + b` (the point at infinity counts as on-curve).
    pub fn is_on_curve(&self) -> bool {
        self.infinity || self.y.square() == self.x.square() * self.x + C::b()
    }

    /// Checks that the point lies in the prime-order subgroup.
    pub fn is_in_subgroup(&self) -> bool {
        let p: Projective<C> = (*self).into();
        C::is_in_prime_subgroup(&p)
    }

    /// Compressed encoding: a flag byte (`0` infinity, `2`/`3` sign of y)
    /// followed by the x-coordinate.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + C::Base::encoded_len());
        if self.infinity {
            out.push(0);
            out.resize(1 + C::Base::encoded_len(), 0);
            return out;
        }
        out.push(if self.y.is_lexicographically_largest() {
            3
        } else {
            2
        });
        self.x.encode_into(&mut out);
        out
    }

    /// Parses a compressed encoding, enforcing the curve equation and
    /// (`r`-order) subgroup membership.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 1 + C::Base::encoded_len() {
            return None;
        }
        match bytes[0] {
            0 => {
                if bytes[1..].iter().all(|&b| b == 0) {
                    Some(Self::identity())
                } else {
                    None
                }
            }
            flag @ (2 | 3) => {
                let x = C::Base::decode(&bytes[1..])?;
                let y2 = x.square() * x + C::b();
                let mut y = y2.sqrt()?;
                if y.is_lexicographically_largest() != (flag == 3) {
                    y = -y;
                }
                let p = Self::from_xy_unchecked(x, y);
                if p.is_in_subgroup() {
                    Some(p)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Scalar multiplication (via projective arithmetic); the point must
    /// lie in the order-`r` subgroup, see [`Projective::mul_scalar`].
    pub fn mul_scalar(&self, s: &Scalar) -> Self {
        let p: Projective<C> = (*self).into();
        p.mul_scalar(s).to_affine()
    }
}

impl<C: Curve> Neg for Affine<C> {
    type Output = Self;
    fn neg(self) -> Self {
        if self.infinity {
            self
        } else {
            Self { y: -self.y, ..self }
        }
    }
}

impl<C: Curve> Debug for Affine<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.infinity {
            write!(f, "{}(infinity)", C::name())
        } else {
            write!(f, "{}({:?}, {:?})", C::name(), self.x, self.y)
        }
    }
}

impl<C: Curve> From<Affine<C>> for Projective<C> {
    fn from(a: Affine<C>) -> Self {
        if a.infinity {
            Projective::identity()
        } else {
            Projective {
                x: a.x,
                y: a.y,
                z: C::Base::one(),
                _curve: PhantomData,
            }
        }
    }
}

impl<C: Curve> Projective<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
            _curve: PhantomData,
        }
    }

    /// The subgroup generator.
    pub fn generator() -> Self {
        Affine::<C>::generator().into()
    }

    /// True for the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (Jacobian, `a = 0` formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        // dbl-2009-l: A = X², B = Y², C = B², D = 2((X+B)² − A − C),
        // E = 3A, F = E², X3 = F − 2D, Y3 = E(D − X3) − 8C, Z3 = 2YZ
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let eight_c = c.double().double().double();
        let y3 = e * (d - x3) - eight_c;
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        }
    }

    /// General point addition (Jacobian add-2007-bl).
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * rhs.z * z2z2;
        let s2 = rhs.y * self.z * z1z1;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        }
    }

    /// Mixed addition `self + rhs` with `rhs` affine (Jacobian
    /// madd-2007-bl: 7M + 4S against 11M + 5S for [`Projective::add`]).
    pub fn add_mixed(&self, rhs: &Affine<C>) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return (*rhs).into();
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * self.z * z1z1;
        if u2 == self.x {
            return if s2 == self.y {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
            _curve: PhantomData,
        }
    }

    /// The odd multiples `P, 3P, …` a wNAF digit selects from.
    fn odd_multiples(&self) -> [Self; TABLE] {
        let twice = self.double();
        let mut table = [*self; TABLE];
        for i in 1..TABLE {
            table[i] = table[i - 1] + twice;
        }
        table
    }

    /// Scalar multiplication by a canonical multi-limb integer (wNAF:
    /// one doubling per bit, one addition per non-zero signed digit).
    pub fn mul_uint<const E: usize>(&self, k: &ibbe_bigint::Uint<E>) -> Self {
        let table = self.odd_multiples();
        let mut acc = Self::identity();
        for &d in wnaf(k).iter().rev() {
            acc = acc.double();
            if d > 0 {
                acc = acc + table[d as usize / 2];
            } else if d < 0 {
                acc = acc - table[d.unsigned_abs() as usize / 2];
            }
        }
        acc
    }

    /// Multi-scalar multiplication `Σ scalars[i]·points[i]` (Straus).
    ///
    /// Every point gets its table of odd multiples; all tables are brought
    /// to affine with one inversion, so the shared doubling chain pays a
    /// mixed addition per non-zero digit. By operation count this beats
    /// Pippenger buckets up to a few hundred terms (the partition sizes the
    /// schemes run at) and one `mul_uint` per term by ≈ 5×. Terms with a
    /// zero scalar or an identity point are skipped.
    ///
    /// The live terms are split into one Straus run per core
    /// ([`exec::map_chunks`]) and the partial sums added, as long as every
    /// run keeps [`MSM_MIN_TERMS`] terms.
    ///
    /// # Panics
    /// If the slices differ in length.
    pub fn msm(points: &[Affine<C>], scalars: &[Scalar]) -> Self {
        assert_eq!(points.len(), scalars.len(), "one scalar per point");
        let terms: Vec<_> = points
            .iter()
            .zip(scalars)
            .filter(|(p, s)| !p.infinity && !s.is_zero())
            .collect();
        let partials = exec::map_chunks(&terms, MSM_MIN_TERMS, |terms| {
            let (tables, digits): (Vec<_>, Vec<_>) = terms
                .iter()
                .map(|(p, s)| (Self::from(**p).odd_multiples(), wnaf(&s.to_uint())))
                .unzip();
            Self::straus(&Self::batch_to_affine(tables.as_flattened()), &digits)
        });
        partials.into_iter().fold(Self::identity(), Add::add)
    }

    /// `Σ kᵢ·ηⁱ(self)` for the wNAF strings `digits` of the `kᵢ` and an
    /// endomorphism `eta` (sign included): the Straus loop over the odd
    /// multiples of `self` and their images, which are the odd multiples of
    /// the images.
    pub(crate) fn mul_split(
        &self,
        digits: &[Vec<i8>],
        eta: impl Fn(&Affine<C>) -> Affine<C>,
    ) -> Self {
        let mut tables = Self::batch_to_affine(&self.odd_multiples());
        while tables.len() < TABLE * digits.len() {
            tables.push(eta(&tables[tables.len() - TABLE]));
        }
        Self::straus(&tables, digits)
    }

    /// The interleaved doubling chain: `Σ kᵢ·Pᵢ` for the wNAF string
    /// `digits[i]` of `kᵢ` and the odd multiples of `Pᵢ` in
    /// `tables[i·TABLE..]`.
    fn straus(tables: &[Affine<C>], digits: &[Vec<i8>]) -> Self {
        let len = digits.iter().map(Vec::len).max().unwrap_or(0);
        let mut acc = Self::identity();
        for i in (0..len).rev() {
            acc = acc.double();
            for (table, digits) in tables.chunks_exact(TABLE).zip(digits) {
                let d = digits.get(i).copied().unwrap_or(0);
                if d != 0 {
                    let entry = table[d.unsigned_abs() as usize / 2];
                    acc = acc.add_mixed(&if d > 0 { entry } else { -entry });
                }
            }
        }
        acc
    }

    /// Converts many points to affine with one field inversion
    /// (Montgomery's trick over the non-zero `z`s).
    fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        // prefix[i] = product of the non-zero z's before position i
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = C::Base::one();
        for p in points {
            prefix.push(acc);
            if !p.is_identity() {
                acc = acc * p.z;
            }
        }
        let mut inv = acc.invert().expect("product of non-zero z's");
        let mut out = vec![Affine::identity(); points.len()];
        for ((p, before), slot) in points.iter().zip(prefix).zip(&mut out).rev() {
            if p.is_identity() {
                continue;
            }
            let zinv = inv * before;
            inv = inv * p.z;
            let zinv2 = zinv.square();
            *slot = Affine::from_xy_unchecked(p.x * zinv2, p.y * zinv2 * zinv);
        }
        out
    }

    /// Scalar multiplication by a field scalar, split along the curve's
    /// endomorphism where it has one ([`Curve::mul_scalar`]).
    ///
    /// `self` must lie in the order-`r` subgroup — every [`Affine`] that
    /// [`Affine::from_bytes`] parsed does. Anywhere else on a BLS curve the
    /// result is unspecified; multiply such points with
    /// [`Projective::mul_uint`].
    pub fn mul_scalar(&self, s: &Scalar) -> Self {
        C::mul_scalar(self, s)
    }

    /// Converts to affine coordinates (one field inversion, none when the
    /// point came from an [`Affine`] and `z` is still one).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        if self.z == C::Base::one() {
            return Affine::from_xy_unchecked(self.x, self.y);
        }
        let zinv = self.z.invert().expect("nonzero z");
        let zinv2 = zinv.square();
        Affine::from_xy_unchecked(self.x * zinv2, self.y * zinv2 * zinv)
    }

    /// Uniformly random subgroup element (generator times random scalar).
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self::generator().mul_scalar(&Scalar::random_nonzero(rng))
    }
}

impl<C: Curve> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1, Y1, Z1) == (X2, Y2, Z2) iff X1 Z2² == X2 Z1² and Y1 Z2³ == Y2 Z1³
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}

impl<C: Curve> Eq for Projective<C> {}

impl<C: Curve> Add for Projective<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Projective::add(&self, &rhs)
    }
}

impl<C: Curve> Sub for Projective<C> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Projective::add(&self, &(-rhs))
    }
}

impl<C: Curve> Neg for Projective<C> {
    type Output = Self;
    fn neg(self) -> Self {
        Self { y: -self.y, ..self }
    }
}

impl<C: Curve> Debug for Projective<C> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        Debug::fmt(&self.to_affine(), f)
    }
}

impl<C: Curve> Default for Projective<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: Curve> Default for Affine<C> {
    fn default() -> Self {
        Self::identity()
    }
}
