//! Fixed-base exponentiation: for a base that stays put across many
//! exponents, one table built once replaces every doubling or squaring
//! chain (Brickell, Gordon, McCurley, Wilson, EUROCRYPT 1992; PBC's
//! `element_pp_*`).
//!
//! A digit `d < 2^bits` is recoded into signed `c`-bit windows, `d = Σⱼ
//! eⱼ·2^(jc)` with `eⱼ ∈ (−2^(c−1), 2^(c−1)]` (the recoder of
//! [`Projective::msm`]), and the table holds `t·2^(jc)·B` for every window
//! `j` and `1 ≤ t ≤ 2^(c−1)`. So `[d]B = Σⱼ ±table[j][|eⱼ|]`: one lookup and
//! one group operation per window, and no chain at all.
//!
//! Scalars are split first, as for the variable-base kernels (see
//! [`crate::curve`] and [`crate::gt`]): two 128-bit digits on `G1`, four
//! 64-bit ones on `GT`, one 256-bit digit on secp256k1. One table serves
//! every digit, because `Σ [dᵢ]·ηⁱ(B) = Σ ηⁱ([dᵢ]B)`: each digit is summed
//! against the table of `B`, and the endomorphism `η` is applied once per
//! digit sum, not once per lookup. On a curve the sums are first brought to
//! affine with one shared inversion; on `GT` the Frobenius images fold in
//! by Horner's rule. A negative window negates its entry: `y ↦ −y` on a
//! curve, conjugation on `GT`.
//!
//! *Side channels:* the lookups are indexed by the windows of the exponent,
//! which is secret wherever these tables serve (IBBE's `k`, an ECIES
//! ephemeral key), exactly as the wNAF lookups of
//! [`Projective::mul_scalar`] and [`Gt::pow`] are. Variable-time, like every
//! kernel in the crate.

use crate::curve::{signed_windows, Affine, Curve, Projective};
use crate::fr::Scalar;
use crate::gt::Gt;
use crate::pairing::{frobenius_p, x_digits};
use ibbe_bigint::Uint;

/// Window width `c` of every fixed-base table: `2^(c−1)` entries for each
/// of a digit's `bits / c + 1` windows. Measured on a 2-core x86-64 VM as
/// the time of one exponentiation against the variable-base kernel's in
/// the same run (medians of 200, three runs), and the table's size:
///
/// | `c` | `GT` power | table | `G1` product | table | secp256k1 | table |
/// |---|---|---|---|---|---|---|
/// | 5 | 0.63 | 119 KB | 0.42 | 43 KB | 0.26 | 59 KB |
/// | 6 | 0.56 | 202 KB | 0.40 | 73 KB | 0.25 | 99 KB |
/// | 7 | 0.50 | 368 KB | 0.37 | 126 KB | 0.22 | 170 KB |
/// | 8 | 0.44 | 663 KB | 0.34 | 226 KB | 0.21 | 304 KB |
///
/// Width 6 is the widest whose `GT` and `G1` tables together stay under
/// 300 KB per IBBE public key; each step past it nearly doubles the table
/// and its build (2 ms for `GT` at 6, 11 ms at 8) for a tenth off the power.
pub const FIXED_WIDTH: usize = 6;

/// Entries per window: the multiples `1..=2^(c−1)` of its base.
const HALF: usize = 1 << (FIXED_WIDTH - 1);

/// The multiples of one fixed base `B`: `t·2^(jc)·B` at `j·2^(c−1) + t − 1`,
/// for every window `j` of a digit of the group's width. Affine points on a
/// curve ([`FixedBase::mul_scalar`]), `Fp12` elements on `GT`
/// ([`FixedBase::pow`]).
#[derive(Clone, Debug)]
pub struct FixedBase<T> {
    table: Vec<T>,
}

impl<T: Copy> FixedBase<T> {
    /// The entries of `base` for digits below `2^bits`, in the
    /// representation `add` and `double` work in: per window, the running
    /// sum `B_j, 2B_j, …, 2^(c−1)·B_j`, whose double is the next window's
    /// `B_(j+1) = 2^c·B_j`. The windows leave room for the recoding's
    /// carry out of the top bit.
    fn entries<A: Copy>(
        base: A,
        bits: usize,
        add: impl Fn(&A, &A) -> A,
        double: impl Fn(&A) -> A,
    ) -> Vec<A> {
        let windows = bits / FIXED_WIDTH + 1;
        let mut out = Vec::with_capacity(windows * HALF);
        let mut window_base = base;
        for _ in 0..windows {
            let mut multiple = window_base;
            out.push(multiple);
            for _ in 1..HALF {
                multiple = add(&multiple, &window_base);
                out.push(multiple);
            }
            window_base = double(&multiple);
        }
        out
    }

    /// For each digit, `start` with the signed entry of each of its windows
    /// folded in by `add(acc, entry, negative)`.
    ///
    /// # Panics
    /// If a digit is too wide for the table.
    fn digit_sums<A: Copy>(
        &self,
        digits: &[Uint<4>],
        start: A,
        add: impl Fn(A, &T, bool) -> A,
    ) -> Vec<A> {
        let windows = self.table.len() / HALF;
        assert!(
            digits.iter().all(|d| d.bits() < windows * FIXED_WIDTH),
            "a digit wider than the table"
        );
        let signed = signed_windows(digits, FIXED_WIDTH, windows);
        (0..digits.len())
            .map(|t| {
                (0..windows).fold(start, |acc, j| match signed[j * digits.len() + t] {
                    0 => acc,
                    e => add(
                        acc,
                        &self.table[j * HALF + usize::from(e.unsigned_abs()) - 1],
                        e < 0,
                    ),
                })
            })
            .collect()
    }
}

impl<C: Curve> FixedBase<Affine<C>> {
    /// The table of `base` for digits of up to [`Curve::DIGIT_BITS`] bits,
    /// normalised to affine with one inversion so that every lookup is a
    /// mixed addition.
    pub fn new(base: &Affine<C>) -> Self {
        let entries = Self::entries(
            Projective::from(*base),
            C::DIGIT_BITS,
            Projective::add,
            Projective::double,
        );
        Self {
            table: Projective::batch_to_affine(&entries),
        }
    }

    /// `Σ [dᵢ]·ηⁱ(B)` for raw digits `dᵢ < 2^DIGIT_BITS` along the curve's
    /// endomorphism [`Curve::eta`]; a curve without one takes a single
    /// digit (secp256k1: the whole 256-bit scalar).
    ///
    /// # Panics
    /// If a digit has more than [`Curve::DIGIT_BITS`] bits.
    pub fn mul_digits(&self, digits: &[Uint<4>]) -> Projective<C> {
        let sums = self.digit_sums(digits, Projective::identity(), |acc, entry, negative| {
            acc.add_mixed(&if negative { -*entry } else { *entry })
        });
        let Some((first, rest)) = sums.split_first() else {
            return Projective::identity();
        };
        // η acts on affine points: one inversion for all the other sums
        let images = Projective::batch_to_affine(rest);
        images.iter().enumerate().fold(*first, |acc, (i, sum)| {
            acc.add_mixed(&(0..=i).fold(*sum, |p, _| C::eta(&p)))
        })
    }

    /// `[k]B` along the split of `k` ([`Curve::split`]); the same point as
    /// [`Projective::mul_scalar`], so `B` must lie in the order-`r`
    /// subgroup.
    pub fn mul_scalar(&self, k: &Scalar) -> Projective<C> {
        self.mul_digits(&C::split(k))
    }
}

impl FixedBase<Gt> {
    /// The table of `base` for the four 64-bit base-`|x|` digits of an
    /// exponent (see [`crate::gt`]).
    pub fn new(base: &Gt) -> Self {
        Self {
            table: Self::entries(*base, 64, |a, b| *a * *b, |a| Gt(a.0.cyclotomic_square())),
        }
    }

    /// `B^k`, the same element as [`Gt::pow`]: `Π ηⁱ(sᵢ)` for the table
    /// products `sᵢ = B^dᵢ` of the digits, by Horner's rule with
    /// `η = conj ∘ π`.
    pub fn pow(&self, k: &Scalar) -> Gt {
        let digits = x_digits(k).map(Uint::from_u64);
        let sums = self.digit_sums(&digits, Gt::IDENTITY.0, |acc, entry, negative| {
            acc * if negative {
                entry.0.conjugate()
            } else {
                entry.0
            }
        });
        let mut high_first = sums.into_iter().rev();
        let top = high_first.next().expect("four digits");
        Gt(high_first.fold(top, |acc, sum| frobenius_p(&acc).conjugate() * sum))
    }
}
