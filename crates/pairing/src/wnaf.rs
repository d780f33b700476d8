//! Signed-window recoding shared by the exponentiation kernels that walk a
//! doubling chain: the integer ladder
//! [`crate::curve::Projective::mul_uint`], the endomorphism-split Straus
//! loop of [`crate::curve::Projective::mul_scalar`] (which also sums the
//! few-term MSMs), and their `GT` counterparts
//! [`crate::fp12::Fp12::cyclotomic_pow`] and [`crate::gt::Gt::pow`]. The
//! bucket MSM recodes its digits into windows of its own width instead,
//! every window a bucket index rather than a table entry.
//!
//! All three groups negate for free (`−P` flips `y`, a unitary `Fp12`
//! element inverts by conjugation), so an exponent is rewritten over the
//! digits `{0, ±1, ±3, …, ±(2^(w−1) − 1)}`: one table of the `2^(w−2)` odd
//! multiples replaces a group operation at every set bit by one at roughly
//! every `(w+1)`-th digit. A split scalar is recoded one 64- or 128-bit
//! part at a time; the parts' strings index images of one table under the
//! group's endomorphism, so the table is still built once.

use ibbe_bigint::Uint;

/// Window width `w`. Width 4 keeps tables at four entries; by operation
/// count width 5 saves < 2 % on a 255-bit exponent (8.5 fewer additions,
/// 4 more table entries), as little on a scalar split four ways (8.5 fewer
/// additions again, 4 more entries and 12 more endomorphism images), and
/// loses on a lone 64-bit one.
pub(crate) const WINDOW: usize = 4;

/// Entries in a table of odd multiples `1, 3, …, 2^(w−1) − 1`.
pub(crate) const TABLE: usize = 1 << (WINDOW - 2);

/// The width-[`WINDOW`] non-adjacent form of `k`, least-significant digit
/// first: `k = Σ dᵢ·2ⁱ`, every non-zero `dᵢ` is odd with `|dᵢ| < 2^(w−1)`,
/// and any `w` consecutive digits hold at most one non-zero. Digit `d`
/// selects table entry `|d| / 2`.
pub(crate) fn wnaf<const E: usize>(k: &Uint<E>) -> Vec<i8> {
    let bits = k.bits();
    let mut digits = Vec::with_capacity(bits + 1);
    let mut carry = 0u32;
    let mut i = 0;
    while i < bits || carry != 0 {
        if (u32::from(k.bit(i)) + carry) & 1 == 0 {
            // even remainder: a zero digit; a pending carry (1 + 1) moves up
            carry &= u32::from(k.bit(i));
            digits.push(0);
            i += 1;
            continue;
        }
        // odd remainder: take w bits, centre them around zero
        let window = (0..WINDOW).fold(carry, |v, j| v + (u32::from(k.bit(i + j)) << j));
        let digit = if window >= 1 << (WINDOW - 1) {
            carry = 1;
            window as i32 - (1 << WINDOW)
        } else {
            carry = 0;
            window as i32
        };
        digits.push(digit as i8);
        digits.extend_from_slice(&[0; WINDOW - 1]);
        i += WINDOW;
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    /// `Σ dᵢ·2ⁱ` over 128-bit integers.
    fn value(digits: &[i8]) -> i128 {
        digits
            .iter()
            .rev()
            .fold(0i128, |acc, &d| 2 * acc + i128::from(d))
    }

    #[test]
    fn digits_reconstruct_the_exponent_and_are_sparse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut samples = vec![0u64, 1, 2, 7, 8, 9, 15, 16, u64::MAX, u64::MAX - 1];
        samples.extend((0..200).map(|_| rng.next_u64()));
        for k in samples {
            let digits = wnaf(&Uint::<1>::from_u64(k));
            assert_eq!(value(&digits), i128::from(k), "k = {k:#x}");
            for d in &digits {
                assert!(*d == 0 || (d & 1 == 1 && d.unsigned_abs() < 1 << (WINDOW - 1)));
            }
            for w in digits.windows(WINDOW) {
                assert!(w.iter().filter(|d| **d != 0).count() <= 1, "k = {k:#x}");
            }
        }
    }

    #[test]
    fn a_carry_out_of_the_top_limb_is_kept() {
        // all-ones: the recoding is −1 followed by a 1 one past the width
        let k = Uint::<2>::new([u64::MAX, u64::MAX]);
        let digits = wnaf(&k);
        assert_eq!(digits.len(), 129 + WINDOW - 1);
        assert_eq!(digits[0], -1);
        assert_eq!(digits[128], 1);
        assert_eq!(digits.iter().filter(|d| **d != 0).count(), 2);
    }
}
