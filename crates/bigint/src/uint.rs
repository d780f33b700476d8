//! [`Uint`]: a fixed-width little-endian multiprecision unsigned integer.

use core::cmp::Ordering;
use core::fmt;

/// Add with carry: returns `(sum, carry_out)` for `a + b + carry`.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(diff, borrow_out)` for `a - b - borrow`,
/// where `borrow` is 0 or 1 and `borrow_out` is 0 or 1.
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Multiply-accumulate: returns `(lo, hi)` of `acc + a * b + carry`.
#[inline(always)]
pub const fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// A fixed-width unsigned integer with `N` little-endian 64-bit limbs.
///
/// `Uint` is a plain value type: all operations are free functions or
/// methods returning new values, and nothing here reduces modulo anything —
/// modular arithmetic lives in [`crate::MontParams`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const N: usize>(pub(crate) [u64; N]);

impl<const N: usize> Uint<N> {
    /// The value 0.
    pub const ZERO: Self = Self([0; N]);

    /// The value 1.
    pub const ONE: Self = {
        let mut l = [0u64; N];
        l[0] = 1;
        Self(l)
    };

    /// Constructs a `Uint` from little-endian limbs.
    #[inline]
    pub const fn new(limbs: [u64; N]) -> Self {
        Self(limbs)
    }

    /// Constructs a `Uint` from a single `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        let mut l = [0u64; N];
        l[0] = v;
        Self(l)
    }

    /// Returns the little-endian limb array.
    #[inline]
    pub const fn limbs(&self) -> [u64; N] {
        self.0
    }

    /// True if the value is zero.
    #[inline]
    pub const fn is_zero(&self) -> bool {
        let mut acc = 0u64;
        let mut i = 0;
        while i < N {
            acc |= self.0[i];
            i += 1;
        }
        acc == 0
    }

    /// True if the value is odd.
    #[inline]
    pub const fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Returns bit `i` (0 = least significant). Bits past the width are 0.
    #[inline]
    pub const fn bit(&self, i: usize) -> bool {
        if i >= 64 * N {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (position of the highest set bit + 1;
    /// 0 for the value zero).
    pub const fn bits(&self) -> usize {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Constant-time equality: 1 if equal, 0 otherwise, without
    /// data-dependent branches.
    #[inline]
    pub fn ct_eq(&self, other: &Self) -> u64 {
        let mut acc = 0u64;
        for i in 0..N {
            acc |= self.0[i] ^ other.0[i];
        }
        //

        ((acc | acc.wrapping_neg()) >> 63) ^ 1
    }

    /// `self + rhs`, returning `(sum, carry_out)`.
    #[inline]
    pub const fn add_carry(&self, rhs: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        let mut i = 0;
        while i < N {
            let (s, c) = adc(self.0[i], rhs.0[i], carry);
            out[i] = s;
            carry = c;
            i += 1;
        }
        (Self(out), carry)
    }

    /// `self - rhs`, returning `(difference, borrow_out)`.
    #[inline]
    pub const fn sub_borrow(&self, rhs: &Self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        let mut i = 0;
        while i < N {
            let (d, b) = sbb(self.0[i], rhs.0[i], borrow);
            out[i] = d;
            borrow = b;
            i += 1;
        }
        (Self(out), borrow)
    }

    /// Wrapping doubling: `(2 * self mod 2^(64N), carry_out)`.
    #[inline]
    pub const fn double_carry(&self) -> (Self, u64) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        let mut i = 0;
        while i < N {
            out[i] = (self.0[i] << 1) | carry;
            carry = self.0[i] >> 63;
            i += 1;
        }
        (Self(out), carry)
    }

    /// Logical right shift by one bit.
    #[inline]
    pub const fn shr1(&self) -> Self {
        let mut out = [0u64; N];
        let mut i = 0;
        while i < N {
            out[i] = self.0[i] >> 1;
            if i + 1 < N {
                out[i] |= self.0[i + 1] << 63;
            }
            i += 1;
        }
        Self(out)
    }

    /// Three-way comparison, most-significant limb first.
    pub const fn cmp_uint(&self, other: &Self) -> Ordering {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] < other.0[i] {
                return Ordering::Less;
            }
            if self.0[i] > other.0[i] {
                return Ordering::Greater;
            }
        }
        Ordering::Equal
    }

    /// Schoolbook full multiplication producing `(lo, hi)` (each `N` limbs).
    pub const fn mul_wide(&self, rhs: &Self) -> (Self, Self) {
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        let mut i = 0;
        while i < N {
            let mut carry = 0u64;
            let mut j = 0;
            while j < N {
                let k = i + j;
                if k < N {
                    let (s, c) = mac(lo[k], self.0[i], rhs.0[j], carry);
                    lo[k] = s;
                    carry = c;
                } else {
                    let (s, c) = mac(hi[k - N], self.0[i], rhs.0[j], carry);
                    hi[k - N] = s;
                    carry = c;
                }
                j += 1;
            }
            // propagate the final carry into the high half
            let k = i + N;
            if k < N {
                // unreachable for N >= 1, kept for completeness
            } else {
                let mut idx = k - N;
                let mut c = carry;
                while c != 0 && idx < N {
                    let (s, c2) = adc(hi[idx], c, 0);
                    hi[idx] = s;
                    c = c2;
                    idx += 1;
                }
            }
            i += 1;
        }
        (Self(lo), Self(hi))
    }

    /// Sets bit `i` to 1.
    ///
    /// # Panics
    /// Panics if `i >= 64 * N`.
    #[inline]
    pub fn set_bit(&mut self, i: usize) {
        assert!(i < 64 * N, "bit index out of range");
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Zero-extends into a wider `Uint`.
    ///
    /// # Panics
    /// Panics if `M < N`.
    pub fn widen<const M: usize>(&self) -> Uint<M> {
        assert!(M >= N, "widen target must not be narrower");
        let mut l = [0u64; M];
        l[..N].copy_from_slice(&self.0);
        Uint(l)
    }

    /// Builds a `2N`-equivalent value from `(lo, hi)` halves produced by
    /// [`Uint::mul_wide`].
    ///
    /// # Panics
    /// Panics if `M != 2 * K` where `K` is the width of the halves.
    pub fn from_parts<const K: usize>(lo: &Uint<K>, hi: &Uint<K>) -> Uint<N> {
        assert_eq!(N, 2 * K, "from_parts requires N == 2K");
        let mut l = [0u64; N];
        l[..K].copy_from_slice(&lo.0);
        l[K..].copy_from_slice(&hi.0);
        Uint(l)
    }

    /// Long division: returns `(quotient, remainder)`.
    ///
    /// Shift-subtract over the significant bits of `self`; cost is
    /// `O(bits · N)` which is fine for the one-off parameter derivations this
    /// crate is used for.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        let mut q = Self::ZERO;
        let mut r = Self::ZERO;
        for i in (0..self.bits()).rev() {
            let (mut r2, carry) = r.double_carry();
            if self.bit(i) {
                r2.0[0] |= 1;
            }
            let (sub, borrow) = r2.sub_borrow(divisor);
            if carry != 0 || borrow == 0 {
                r = sub;
                q.set_bit(i);
            } else {
                r = r2;
            }
        }
        (q, r)
    }

    /// Big-endian byte serialization (`8 * N` bytes).
    pub fn to_be_bytes(&self) -> [u8; 64] {
        assert!(8 * N <= 64, "Uint wider than serialization buffer");
        let mut out = [0u8; 64];
        for i in 0..N {
            let be = self.0[N - 1 - i].to_be_bytes();
            out[i * 8..i * 8 + 8].copy_from_slice(&be);
        }
        out
    }

    /// Writes exactly `8 * N` big-endian bytes into `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != 8 * N`.
    pub fn write_be_bytes(&self, out: &mut [u8]) {
        assert_eq!(out.len(), 8 * N, "output buffer must be exactly 8*N bytes");
        for i in 0..N {
            let be = self.0[N - 1 - i].to_be_bytes();
            out[i * 8..i * 8 + 8].copy_from_slice(&be);
        }
    }

    /// Parses `8 * N` big-endian bytes.
    ///
    /// # Panics
    /// Panics if `bytes.len() != 8 * N`.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), 8 * N, "input must be exactly 8*N bytes");
        let mut l = [0u64; N];
        for i in 0..N {
            let mut limb = [0u8; 8];
            limb.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            l[N - 1 - i] = u64::from_be_bytes(limb);
        }
        Self(l)
    }
}

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_uint(other)
    }
}

impl<const N: usize> fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for i in (0..N).rev() {
            write!(f, "{:016x}", self.0[i])?;
        }
        Ok(())
    }
}

impl<const N: usize> fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const N: usize> fmt::LowerHex for Uint<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..N).rev() {
            write!(f, "{:016x}", self.0[i])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U2 = Uint<2>;

    #[test]
    fn adc_sbb_roundtrip() {
        let (s, c) = adc(u64::MAX, 1, 0);
        assert_eq!((s, c), (0, 1));
        let (d, b) = sbb(0, 1, 0);
        assert_eq!((d, b), (u64::MAX, 1));
    }

    #[test]
    fn add_then_sub_is_identity() {
        let a = U2::new([0xdeadbeef, 0x12345678]);
        let b = U2::new([0xffffffffffffffff, 0x1]);
        let (s, c) = a.add_carry(&b);
        assert_eq!(c, 0);
        let (d, bo) = s.sub_borrow(&b);
        assert_eq!(bo, 0);
        assert_eq!(d, a);
    }

    #[test]
    fn sub_underflow_borrows() {
        let (d, b) = U2::ZERO.sub_borrow(&U2::ONE);
        assert_eq!(b, 1);
        assert_eq!(d, U2::new([u64::MAX, u64::MAX]));
    }

    #[test]
    fn mul_wide_small() {
        let a = U2::from_u64(7);
        let b = U2::from_u64(6);
        let (lo, hi) = a.mul_wide(&b);
        assert_eq!(lo, U2::from_u64(42));
        assert!(hi.is_zero());
    }

    #[test]
    fn mul_wide_overflow_into_hi() {
        let a = U2::new([0, 1]); // 2^64
        let b = U2::new([0, 1]); // 2^64
        let (lo, hi) = a.mul_wide(&b); // 2^128
        assert!(lo.is_zero());
        assert_eq!(hi, U2::new([1, 0]));
    }

    #[test]
    fn mul_wide_max() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = U2::new([u64::MAX, u64::MAX]);
        let (lo, hi) = a.mul_wide(&a);
        assert_eq!(lo, U2::new([1, 0]));
        assert_eq!(hi, U2::new([u64::MAX - 1, u64::MAX]));
    }

    #[test]
    fn bits_and_bit() {
        let a = U2::new([0, 0b1000]);
        assert_eq!(a.bits(), 64 + 4);
        assert!(a.bit(67));
        assert!(!a.bit(66));
        assert!(!a.bit(200));
        assert_eq!(U2::ZERO.bits(), 0);
        assert_eq!(U2::ONE.bits(), 1);
    }

    #[test]
    fn shr1_and_double() {
        let a = U2::new([0x3, 0x1]);
        let (d, c) = a.double_carry();
        assert_eq!(c, 0);
        assert_eq!(d, U2::new([0x6, 0x2]));
        assert_eq!(d.shr1(), a);
        // shifting an odd bit across the limb boundary
        let b = U2::new([0, 1]);
        assert_eq!(b.shr1(), U2::new([1 << 63, 0]));
    }

    #[test]
    fn ordering() {
        let a = U2::new([5, 0]);
        let b = U2::new([0, 1]);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let a = U2::new([0x0123456789abcdef, 0xfedcba9876543210]);
        let mut buf = [0u8; 16];
        a.write_be_bytes(&mut buf);
        assert_eq!(buf[0], 0xfe);
        assert_eq!(buf[15], 0xef);
        assert_eq!(U2::from_be_bytes(&buf), a);
    }

    #[test]
    fn ct_eq_matches_eq() {
        let a = U2::new([1, 2]);
        let b = U2::new([1, 3]);
        assert_eq!(a.ct_eq(&a), 1);
        assert_eq!(a.ct_eq(&b), 0);
    }

    #[test]
    fn div_rem_small() {
        let a = U2::from_u64(100);
        let d = U2::from_u64(7);
        let (q, r) = a.div_rem(&d);
        assert_eq!(q, U2::from_u64(14));
        assert_eq!(r, U2::from_u64(2));
        // exact division
        let (q, r) = U2::from_u64(84).div_rem(&d);
        assert_eq!((q, r), (U2::from_u64(12), U2::ZERO));
        // dividend smaller than divisor
        let (q, r) = d.div_rem(&a);
        assert_eq!((q, r), (U2::ZERO, d));
    }

    #[test]
    fn div_rem_cross_limb() {
        // (2^64 + 5) / 3 = 6148914691236517207 r 0 — check against u128.
        let a = U2::new([5, 1]);
        let d = U2::from_u64(3);
        let (q, r) = a.div_rem(&d);
        let aa = (1u128 << 64) + 5;
        assert_eq!(q, U2::new([(aa / 3) as u64, ((aa / 3) >> 64) as u64]));
        assert_eq!(r, U2::from_u64((aa % 3) as u64));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U2::ONE.div_rem(&U2::ZERO);
    }

    #[test]
    fn from_parts_matches_mul_wide() {
        let a = U2::new([u64::MAX, 7]);
        let (lo, hi) = a.mul_wide(&a);
        let wide = Uint::<4>::from_parts(&lo, &hi);
        // check via div_rem: wide / a == a (remainder 0)
        let (q, r) = wide.div_rem(&a.widen::<4>());
        assert_eq!(q, a.widen::<4>());
        assert!(r.is_zero());
    }

    #[test]
    fn set_bit_works() {
        let mut a = U2::ZERO;
        a.set_bit(64);
        assert_eq!(a, U2::new([0, 1]));
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{:?}", U2::ZERO).is_empty());
        assert_eq!(format!("{}", U2::ONE), format!("{:?}", U2::ONE));
    }
}
