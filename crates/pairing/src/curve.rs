//! Generic short-Weierstrass group arithmetic shared by `G1` (over `Fp`),
//! `G2` (over `Fp2`) and the secp256k1 baseline curve.
//!
//! Points are exposed in two shapes: [`Affine`] (for serialization, curve
//! membership checks and pairing inputs) and [`Projective`] (Jacobian
//! coordinates, for arithmetic). Both are generic over a [`Curve`] marker
//! type supplying the base field and curve constants.
//!
//! **Two doubling chains and a bucket sum.** [`Projective::mul_uint`]
//! multiplies by any integer (width-4 wNAF over a table of odd multiples,
//! one doubling per bit): cofactor clearing, `r`-multiples, secp256k1. The
//! Straus loop under [`Projective::mul_scalar`] interleaves any number of
//! wNAF digit strings over one shared chain, against tables normalised to
//! affine with a single inversion so that every addition is mixed.
//! [`Projective::msm`] sums many terms by buckets of signed windows, whose
//! points it adds in affine coordinates under shared inversions; a handful
//! of terms still take the Straus loop. A base that stays fixed across many
//! scalars (IBBE's `w`, the secp256k1 generator) needs no chain at all: a
//! [`crate::fixed::FixedBase`] table, built once, turns each signed 6-bit
//! window of the same split digits into one mixed addition.
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
//! instead of 255 at the same number of additions. [`Projective::msm`]
//! buckets the same digits ([`Curve::split`]), so a window covers four
//! (two) times fewer of them, and a fixed-base table covers one digit's
//! [`Curve::DIGIT_BITS`] and reaches the others through `η`, applied once
//! per digit sum. The same `η` gives the
//! subgroup test: `η(P) = [m]P` for its eigenvalue `m` holds only on the
//! order-`r` points ([`Curve::is_in_prime_subgroup`]).
//!
//! *Precondition:* the endomorphisms are `[m]` on the order-`r` subgroup
//! only, so `mul_scalar` requires its point there — every [`Affine`] parsed
//! by [`Affine::from_bytes`] is, as is everything derived from generators;
//! points elsewhere on the curve (hash-to-curve candidates) take `mul_uint`.
//! *Side channels:* every routine here branches on its scalar's digits and
//! indexes tables or buckets by them — variable-time in the scalar, exactly
//! as the double-and-add ladder they all replaced (which survives as the
//! test oracle in `tests/reference`, next to the Straus MSM the buckets
//! replaced).

use crate::fr::Scalar;
use crate::wnaf::{wnaf, TABLE};
use core::fmt::Debug;
use core::marker::PhantomData;
use core::ops::{Add, Mul, Neg, Sub};
use ibbe_bigint::Uint;

/// Fewest split points — live terms times the digits [`Curve::split`] gives
/// each, four on `G2` and two on `G1` — that [`Projective::msm`] sums by
/// buckets. Below it the terms share the split Straus loop of
/// [`Projective::mul_scalar`]: its one doubling chain costs less than the
/// buckets' running sums, one per window. Measured on a 2-core x86-64 VM,
/// pinned to one core: the two cross at 64 points on `G2` (16 terms, 2.5 ms
/// either way) and near 128 on `G1`.
pub const MSM_MIN_POINTS: usize = 64;

/// Fewest terms a Straus run of [`Projective::msm`] keeps when a sum below
/// [`MSM_MIN_POINTS`] is split across cores. A run on another thread costs
/// a spawn and a join (≈ 45 µs) plus a doubling chain of its own (64
/// doublings on `G2`, ≈ 0.1 ms), about one term's worth of additions, so a
/// run of four repays it four times over.
pub const MSM_MIN_TERMS: usize = 4;

/// The bucket width `c` by split-point count, `(fewest points, c)` in
/// ascending order. One bit wider means fewer windows, so fewer affine
/// additions per point, but twice the buckets for each window's running sum
/// to walk. Each row is the width that measured fastest on a 2-core x86-64
/// VM, pinned and unpinned, on `G2` and `G1` alike: at 127 `G2` terms (508
/// points, a decrypt at |p| = 128) `c = 6` or 7 take 5.2 ms on two cores and
/// 9.6–10.0 ms on one; at 2 047 terms `c = 9`–11 are within 5 % of each
/// other.
pub const WIDTHS: [(usize, usize); 6] = [
    (MSM_MIN_POINTS, 5),
    (192, 6),
    (512, 7),
    (1536, 8),
    (4096, 9),
    (6144, 10),
];

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
    /// The digits `dᵢ` of `k` along the curve's endomorphism [`Curve::eta`],
    /// least significant first: `[k]P = Σ [dᵢ]·ηⁱ(P)` for `P` in the
    /// order-`r` subgroup. [`Projective::mul_scalar`] and
    /// [`Projective::msm`] both run on them. A curve without an endomorphism
    /// keeps `k` whole, as one 255-bit digit.
    fn split(k: &Scalar) -> Vec<Uint<4>> {
        vec![k.to_uint()]
    }
    /// The endomorphism `η` (sign included) that [`Curve::split`] takes its
    /// digits along. Called only on the images of a split into two or more
    /// digits, so a curve that keeps `k` whole has none to give.
    fn eta(p: &Affine<Self>) -> Affine<Self> {
        *p
    }
    /// Bits of the widest digit this curve's scalars are taken in: the
    /// span of a [`crate::fixed::FixedBase`] table. A curve that keeps `k`
    /// whole takes any 256-bit integer.
    const DIGIT_BITS: usize = 256;
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

    /// Multi-scalar multiplication `Σ scalars[i]·points[i]`.
    ///
    /// Every live term is split along the curve's endomorphism
    /// ([`Curve::split`]): four 64-bit digits on `P`, `−ψP`, `ψ²P`, `−ψ³P`
    /// on `G2`, two 128-bit ones on `P`, `−φP` on `G1`. The digits are then
    /// summed by the bucket method (Pippenger): each is recoded into signed
    /// `c`-bit windows, every window drops each point into the bucket of its
    /// digit, and a bucket's points are added pairwise in affine coordinates,
    /// one shared field inversion per halving for all of a window's buckets.
    /// A running sum weighs the buckets, and the windows are joined by
    /// Horner's rule, `c` doublings each. `c` grows with the number of split
    /// points ([`WIDTHS`]). Below [`MSM_MIN_POINTS`] split points the
    /// buckets cost more than they save, and the terms share the split
    /// Straus loop of [`Projective::mul_scalar`] instead. Terms with a zero
    /// scalar or an identity point are skipped.
    ///
    /// The windows, or the Straus runs of at least [`MSM_MIN_TERMS`] terms,
    /// are spread over the host's cores ([`exec::map_chunks`]); on one core
    /// they run in turn on the caller, the windows reusing one set of
    /// bucket buffers.
    ///
    /// Like every kernel here it is variable-time in the scalars.
    ///
    /// # Panics
    /// If the slices differ in length.
    pub fn msm(points: &[Affine<C>], scalars: &[Scalar]) -> Self {
        assert_eq!(points.len(), scalars.len(), "one scalar per point");
        let terms: Vec<_> = points
            .iter()
            .zip(scalars)
            .filter(|(p, s)| !p.infinity && !s.is_zero())
            .map(|(p, s)| (*p, C::split(s)))
            .collect();
        let count = terms.iter().map(|(_, split)| split.len()).sum();
        if count < MSM_MIN_POINTS {
            let runs = exec::map_chunks(&terms, MSM_MIN_TERMS, |terms| {
                Self::mul_split(
                    terms
                        .iter()
                        .map(|(p, split)| ((*p).into(), split.as_slice())),
                )
            });
            return runs.into_iter().fold(Self::identity(), Add::add);
        }
        let (mut bases, mut digits) = (Vec::with_capacity(count), Vec::with_capacity(count));
        for (p, split) in terms {
            let mut base = p;
            for (i, d) in split.into_iter().enumerate() {
                if i > 0 {
                    base = C::eta(&base);
                }
                bases.push(base);
                digits.push(d);
            }
        }
        let (_, c) = *WIDTHS
            .iter()
            .rev()
            .find(|(fewest, _)| count >= *fewest)
            .expect("the first row starts at MSM_MIN_POINTS");
        let bits = digits.iter().map(Uint::bits).max().unwrap_or(0);
        let signed = signed_windows(&digits, c, bits / c + 1);
        let rows: Vec<_> = signed.chunks_exact(bases.len()).collect();
        let sums = exec::map_chunks(&rows, 1, |rows| {
            let mut buckets = Buckets::new(bases.len(), c);
            rows.iter()
                .map(|row| buckets.window_sum(&bases, row))
                .collect::<Vec<_>>()
        });
        sums.into_iter()
            .flatten()
            .rev()
            .fold(Self::identity(), |acc, sum| {
                (0..c).fold(acc, |acc, _| acc.double()) + sum
            })
    }

    /// `Σ [kⱼ]Pⱼ` along the split of every `kⱼ` ([`Curve::split`]): the
    /// Straus loop over one table of odd multiples per point, all brought
    /// to affine with one inversion, and the tables' images under
    /// [`Curve::eta`], which are the odd multiples of the images.
    fn mul_split<'a>(terms: impl Iterator<Item = (Self, &'a [Uint<4>])>) -> Self {
        let (mut multiples, mut splits) = (Vec::new(), Vec::new());
        for (p, split) in terms {
            multiples.extend(p.odd_multiples());
            splits.push(split);
        }
        let (mut tables, mut digits) = (Vec::new(), Vec::new());
        let affine = Self::batch_to_affine(&multiples);
        for (odd, split) in affine.chunks_exact(TABLE).zip(splits) {
            let mut table: [Affine<C>; TABLE] = odd.try_into().expect("TABLE entries");
            for (i, d) in split.iter().enumerate() {
                if i > 0 {
                    table = table.map(|p| C::eta(&p));
                }
                tables.extend_from_slice(&table);
                digits.push(wnaf(d));
            }
        }
        Self::straus(&tables, &digits)
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

    /// Converts many points to affine with one field inversion.
    pub(crate) fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        let mut zs: Vec<_> = points
            .iter()
            .map(|p| if p.is_identity() { C::Base::one() } else { p.z })
            .collect();
        batch_invert(&mut zs, &mut Vec::new());
        points
            .iter()
            .zip(zs)
            .map(|(p, zinv)| {
                if p.is_identity() {
                    return Affine::identity();
                }
                let zinv2 = zinv.square();
                Affine::from_xy_unchecked(p.x * zinv2, p.y * zinv2 * zinv)
            })
            .collect()
    }

    /// Scalar multiplication by a field scalar, split along the curve's
    /// endomorphism where it has one ([`Curve::split`]).
    ///
    /// `self` must lie in the order-`r` subgroup — every [`Affine`] that
    /// [`Affine::from_bytes`] parsed does. Anywhere else on a BLS curve the
    /// result is unspecified; multiply such points with
    /// [`Projective::mul_uint`].
    pub fn mul_scalar(&self, s: &Scalar) -> Self {
        Self::mul_split(core::iter::once((*self, C::split(s).as_slice())))
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

/// The signed `c`-bit windows of every digit, window-major: entry
/// `w·digits.len() + t` is window `w` of `digits[t]`, in `(−2^(c−1), 2^(c−1)]`,
/// and `Σ_w entry·2^(c·w)` is the digit again. A window above `2^(c−1)`
/// borrows `2^c` from the next one, so `windows` must leave room for the
/// carry out of the top bit.
pub(crate) fn signed_windows(digits: &[Uint<4>], c: usize, windows: usize) -> Vec<i16> {
    let half = 1 << (c - 1);
    let mut out = vec![0; windows * digits.len()];
    for (t, d) in digits.iter().enumerate() {
        let mut carry = 0;
        for w in 0..windows {
            let bits = (0..c).fold(0, |v, j| v | (i16::from(d.bit(w * c + j)) << j));
            let v = bits + carry;
            (out[w * digits.len() + t], carry) = if v > half { (v - 2 * half, 1) } else { (v, 0) };
        }
        debug_assert_eq!(carry, 0, "the top window holds the carry");
    }
    out
}

/// Scratch for the windows of one bucket run, allocated once and reused:
/// the signed points of bucket `b` at `points[start[b]..start[b] + len[b]]`,
/// and the denominators of one halving with their prefix products.
struct Buckets<C: Curve> {
    points: Vec<Affine<C>>,
    start: Vec<usize>,
    len: Vec<usize>,
    den: Vec<C::Base>,
    prefix: Vec<C::Base>,
}

impl<C: Curve> Buckets<C> {
    /// Room for `points` points in the `2^(c−1)` buckets of width `c`
    /// (bucket 0, the zero digit, stays empty).
    fn new(points: usize, c: usize) -> Self {
        Self {
            points: Vec::with_capacity(points),
            start: vec![0; (1 << (c - 1)) + 1],
            len: vec![0; (1 << (c - 1)) + 1],
            den: Vec::with_capacity(points / 2),
            prefix: Vec::with_capacity(points / 2),
        }
    }

    /// `Σ_b [b]·(sum of bucket b)` for one window: `row[t]` is the signed
    /// digit of `bases[t]`.
    fn window_sum(&mut self, bases: &[Affine<C>], row: &[i16]) -> Projective<C> {
        // counting sort of the signed points into their buckets
        self.len.fill(0);
        for &d in row.iter().filter(|d| **d != 0) {
            self.len[usize::from(d.unsigned_abs())] += 1;
        }
        let mut next = 0;
        for (start, len) in self.start.iter_mut().zip(&mut self.len) {
            (*start, next, *len) = (next, next + *len, 0);
        }
        self.points.clear();
        self.points.resize(next, Affine::identity());
        for (&d, p) in row.iter().zip(bases).filter(|(d, _)| **d != 0) {
            let b = usize::from(d.unsigned_abs());
            self.points[self.start[b] + self.len[b]] = if d > 0 { *p } else { -*p };
            self.len[b] += 1;
        }
        while self.halve() {}
        // Σ_b [b]·B_b as the sum of the running sums B_top + … + B_b
        let (mut running, mut sum) = (Projective::identity(), Projective::identity());
        for b in (1..self.len.len()).rev() {
            if self.len[b] == 1 {
                running = running.add_mixed(&self.points[self.start[b]]);
            }
            sum = sum + running;
        }
        sum
    }

    /// Adds every bucket's points in pairs, in affine coordinates under one
    /// shared inversion, so each bucket keeps half its points (rounded up;
    /// a pair that cancels leaves none). False once no bucket holds a pair.
    fn halve(&mut self) -> bool {
        self.den.clear();
        for (&start, &len) in self.start.iter().zip(&self.len) {
            for pair in self.points[start..start + len / 2 * 2].chunks_exact(2) {
                let (p, q) = (&pair[0], &pair[1]);
                self.den.push(if p.x != q.x {
                    q.x - p.x
                } else if p.y == q.y {
                    p.y.double()
                } else {
                    C::Base::one() // q = −p: no slope to take
                });
            }
        }
        if self.den.is_empty() {
            return false;
        }
        batch_invert(&mut self.den, &mut self.prefix);
        let mut inverses = self.den.iter();
        for (&start, len) in self.start.iter().zip(&mut self.len) {
            let mut kept = 0;
            for i in 0..*len / 2 {
                let (p, q) = (self.points[start + 2 * i], self.points[start + 2 * i + 1]);
                let inv = *inverses.next().expect("one denominator per pair");
                let lambda = if p.x != q.x {
                    (q.y - p.y) * inv
                } else if p.y == q.y {
                    let xx = p.x.square();
                    (xx.double() + xx) * inv
                } else {
                    continue;
                };
                let x = lambda.square() - p.x - q.x;
                let y = lambda * (p.x - x) - p.y;
                self.points[start + kept] = Affine::from_xy_unchecked(x, y);
                kept += 1;
            }
            if *len % 2 == 1 {
                self.points[start + kept] = self.points[start + *len - 1];
                kept += 1;
            }
            *len = kept;
        }
        true
    }
}

/// Replaces every element of `values`, all non-zero, by its inverse with one
/// field inversion (Montgomery's trick); `prefix` is scratch.
fn batch_invert<F: CurveField>(values: &mut [F], prefix: &mut Vec<F>) {
    prefix.clear();
    if values.is_empty() {
        return;
    }
    let mut acc = F::one();
    for v in values.iter() {
        prefix.push(acc);
        acc = acc * *v;
    }
    let mut inv = acc.invert().expect("a product of non-zero elements");
    for (v, before) in values.iter_mut().zip(prefix.iter()).rev() {
        (*v, inv) = (inv * *before, inv * *v);
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
