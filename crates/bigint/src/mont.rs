//! Montgomery-form modular arithmetic over a fixed odd modulus.
//!
//! [`MontParams`] bundles a modulus with its derived Montgomery constants.
//! All constants are computed by `const fn` from the modulus alone, so field
//! definitions in downstream crates are single-line `const` items and there
//! is no runtime initialization to synchronize.

use crate::uint::{adc, mac, Uint};
use crate::MAX_LIMBS;
use core::cmp::Ordering;

/// Precomputed parameters for Montgomery arithmetic modulo an odd `m`.
///
/// `R = 2^(64N)`. Values in *Montgomery form* are `x·R mod m`; conversions
/// are [`MontParams::to_mont`] / [`MontParams::from_mont`].
///
/// # Example
///
/// ```
/// use ibbe_bigint::{MontParams, Uint};
/// const M: MontParams<1> = MontParams::new(Uint::new([101]));
/// let x = M.to_mont(&Uint::from_u64(77));
/// assert_eq!(M.from_mont(&M.square(&x)), Uint::from_u64(77 * 77 % 101));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontParams<const N: usize> {
    modulus: Uint<N>,
    /// `R mod m`, i.e. the Montgomery form of 1.
    r: Uint<N>,
    /// `R² mod m`, used by [`MontParams::to_mont`].
    r2: Uint<N>,
    /// `-m⁻¹ mod 2⁶⁴`.
    inv: u64,
}

impl<const N: usize> MontParams<N> {
    /// Derives all Montgomery constants for the odd modulus `m`.
    ///
    /// # Panics
    /// Panics (at compile time when used in `const` context) if `m` is even,
    /// zero, or wider than [`MAX_LIMBS`].
    pub const fn new(modulus: Uint<N>) -> Self {
        assert!(N <= MAX_LIMBS, "modulus too wide");
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");

        // inv = -m^{-1} mod 2^64 via Newton iteration on the low limb.
        let m0 = modulus.limbs()[0];
        let mut inv = 1u64;
        let mut i = 0;
        while i < 6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
            i += 1;
        }
        let inv = inv.wrapping_neg();

        // R mod m: start from 1 and double 64*N times, reducing each step.
        let mut r = Uint::<N>::ONE;
        let mut i = 0;
        while i < 64 * N {
            r = Self::double_mod(&r, &modulus);
            i += 1;
        }
        // R² mod m: double another 64*N times.
        let mut r2 = r;
        let mut i = 0;
        while i < 64 * N {
            r2 = Self::double_mod(&r2, &modulus);
            i += 1;
        }

        Self {
            modulus,
            r,
            r2,
            inv,
        }
    }

    const fn double_mod(x: &Uint<N>, m: &Uint<N>) -> Uint<N> {
        let (d, carry) = x.double_carry();
        let (sub, borrow) = d.sub_borrow(m);
        // If doubling overflowed 2^(64N) or d >= m, the reduced value is d - m.
        if carry != 0 || borrow == 0 {
            sub
        } else {
            d
        }
    }

    /// The modulus `m`.
    #[inline]
    pub const fn modulus(&self) -> Uint<N> {
        self.modulus
    }

    /// Montgomery form of 1 (`R mod m`).
    #[inline]
    pub const fn one(&self) -> Uint<N> {
        self.r
    }

    /// `R² mod m`.
    #[inline]
    pub const fn r2(&self) -> Uint<N> {
        self.r2
    }

    /// `-m⁻¹ mod 2⁶⁴`.
    #[inline]
    pub const fn inv(&self) -> u64 {
        self.inv
    }

    /// Converts a canonical integer `x < m` into Montgomery form.
    #[inline]
    pub const fn to_mont(&self, x: &Uint<N>) -> Uint<N> {
        self.mul(x, &self.r2)
    }

    /// Converts from Montgomery form back to a canonical integer.
    #[inline]
    pub const fn from_mont(&self, x: &Uint<N>) -> Uint<N> {
        self.mul(x, &Uint::ONE)
    }

    /// Montgomery multiplication (CIOS): returns `a·b·R⁻¹ mod m`.
    pub const fn mul(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let al = a.limbs();
        let bl = b.limbs();
        let ml = self.modulus.limbs();
        // Scratch has two extra limbs beyond N.
        let mut t = [0u64; MAX_LIMBS + 2];

        let mut i = 0;
        while i < N {
            // t += a[i] * b
            let mut carry = 0u64;
            let mut j = 0;
            while j < N {
                let (s, c) = mac(t[j], al[i], bl[j], carry);
                t[j] = s;
                carry = c;
                j += 1;
            }
            let (s, c) = adc(t[N], carry, 0);
            t[N] = s;
            t[N + 1] = c;

            // u = t[0] * (-m^{-1}) mod 2^64; t += u*m; t >>= 64
            let u = t[0].wrapping_mul(self.inv);
            let (_, mut carry) = mac(t[0], u, ml[0], 0);
            let mut j = 1;
            while j < N {
                let (s, c) = mac(t[j], u, ml[j], carry);
                t[j - 1] = s;
                carry = c;
                j += 1;
            }
            let (s, c) = adc(t[N], carry, 0);
            t[N - 1] = s;
            t[N] = t[N + 1] + c;
            t[N + 1] = 0;
            i += 1;
        }

        // Result is t[0..N] with a possible extra bit in t[N]; subtract m once
        // if needed (CIOS guarantees t < 2m for m < R/4, which holds for all
        // our moduli since they leave at least 2 spare bits... BLS12-381 Fp is
        // 381 bits in 384, so t < 2m indeed).
        let mut res = [0u64; N];
        let mut j = 0;
        while j < N {
            res[j] = t[j];
            j += 1;
        }
        let res = Uint::new(res);
        let (sub, borrow) = res.sub_borrow(&self.modulus);
        if t[N] != 0 || borrow == 0 {
            sub
        } else {
            res
        }
    }

    /// Montgomery squaring.
    #[inline]
    pub const fn square(&self, a: &Uint<N>) -> Uint<N> {
        self.mul(a, a)
    }

    /// Modular addition of two values (Montgomery or canonical — form is
    /// preserved).
    #[inline]
    pub const fn add(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (s, carry) = a.add_carry(b);
        let (sub, borrow) = s.sub_borrow(&self.modulus);
        if carry != 0 || borrow == 0 {
            sub
        } else {
            s
        }
    }

    /// Modular subtraction.
    #[inline]
    pub const fn sub(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        let (d, borrow) = a.sub_borrow(b);
        if borrow != 0 {
            let (fixed, _) = d.add_carry(&self.modulus);
            fixed
        } else {
            d
        }
    }

    /// Modular negation.
    #[inline]
    pub const fn neg(&self, a: &Uint<N>) -> Uint<N> {
        if a.is_zero() {
            *a
        } else {
            let (d, _) = self.modulus.sub_borrow(a);
            d
        }
    }

    /// Modular doubling.
    #[inline]
    pub const fn double(&self, a: &Uint<N>) -> Uint<N> {
        self.add(a, a)
    }

    /// Exponentiation by a canonical (non-Montgomery) exponent, operating on
    /// a Montgomery-form base and returning a Montgomery-form result.
    /// Square-and-multiply, most-significant bit first.
    pub fn pow<const E: usize>(&self, base: &Uint<N>, exp: &Uint<E>) -> Uint<N> {
        let mut acc = self.r; // 1 in Montgomery form
        let nbits = exp.bits();
        for i in (0..nbits).rev() {
            acc = self.square(&acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Modular inverse of a Montgomery-form value; `None` for 0. The value
    /// must be coprime to the modulus — under the prime moduli this crate
    /// serves, every non-zero one is.
    ///
    /// Binary extended Euclid on the plain integers, converting out of and
    /// back into Montgomery form: `u` and `v` stay odd and shrink by
    /// subtraction, and each carries a cofactor with `x₁·a ≡ u`,
    /// `x₂·a ≡ v (mod m)`. The even part of a difference is stripped in one
    /// shift, and its cofactor divided by the same power of two in one
    /// word-sized Montgomery reduction (`halve`) instead of bit by bit.
    /// Branches on the operand, so variable-time in `a`.
    pub fn inverse(&self, a: &Uint<N>) -> Option<Uint<N>> {
        if a.is_zero() {
            return None;
        }
        let (mut u, mut x1) = self.strip_twos(self.from_mont(a), Uint::ONE);
        let (mut v, mut x2) = (self.modulus, Uint::ZERO);
        // gcd(u, v) = 1 throughout, so the two meet at 1
        loop {
            match u.cmp_uint(&v) {
                Ordering::Equal => return Some(self.to_mont(&x1)),
                Ordering::Greater => {
                    (u, x1) = self.strip_twos(u.sub_borrow(&v).0, self.sub(&x1, &x2));
                }
                Ordering::Less => {
                    (v, x2) = self.strip_twos(v.sub_borrow(&u).0, self.sub(&x2, &x1));
                }
            }
        }
    }

    /// `(u / 2^t, x / 2^t mod m)` for the largest `t` with `2^t | u`, `u ≠ 0`.
    fn strip_twos(&self, mut u: Uint<N>, mut x: Uint<N>) -> (Uint<N>, Uint<N>) {
        while !u.is_odd() {
            // a shift count stays below the limb width
            let t = u.0[0].trailing_zeros().min(63);
            u = shr_with_top(&u.0, 0, t);
            x = self.halve(&x, t);
        }
        (u, x)
    }

    /// `x / 2^t mod m` for `x < m`, `0 < t < 64`: adds the multiple `q·m`,
    /// `q < 2^t`, that clears the low `t` bits — a Montgomery reduction by
    /// part of a limb — then shifts. `(x + q·m) / 2^t < m` again.
    fn halve(&self, x: &Uint<N>, t: u32) -> Uint<N> {
        let q = x.0[0].wrapping_mul(self.inv) & ((1 << t) - 1);
        let mut sum = [0u64; N];
        let mut carry = 0;
        for (s, (xl, ml)) in sum.iter_mut().zip(x.0.iter().zip(&self.modulus.0)) {
            (*s, carry) = mac(*xl, q, *ml, carry);
        }
        shr_with_top(&sum, carry, t)
    }

    /// Reduces a double-width value `(lo, hi)` modulo `m`, returning a
    /// canonical integer. Used for deserialization and hash-to-field.
    pub const fn reduce_wide(&self, lo: &Uint<N>, hi: &Uint<N>) -> Uint<N> {
        // x = hi·R + lo  =>  x mod m = mont_mul(hi, R²)·? ... split instead:
        // mont_mul(lo, R²) = lo·R  ... we want plain lo + hi·R mod m:
        //   lo mod m        = mont_mul(lo, R2) then from_mont — or directly:
        // value = hi·R + lo. Note mont_mul(hi, R2) = hi·R mod m.
        let hi_part = self.mul(hi, &self.r2); // hi·R mod m
                                              // lo mod m: lo may exceed m; subtract at most ... use mont roundtrip:
        let lo_mont = self.mul(lo, &self.r2); // lo·R mod m
        let lo_part = self.mul(&lo_mont, &Uint::ONE); // lo mod m
        self.add(&hi_part, &lo_part)
    }

    /// Reduces an arbitrary big-endian byte string modulo `m` (canonical
    /// result). Processes the bytes in `N`-limb chunks most-significant
    /// first: `acc = acc·2^(64N) + chunk (mod m)`.
    pub fn reduce_be_bytes(&self, bytes: &[u8]) -> Uint<N> {
        let chunk_len = 8 * N;
        let mut acc = Uint::<N>::ZERO; // canonical
        let mut idx = 0;
        // Left-pad the first partial chunk.
        let first = bytes.len() % chunk_len;
        if first != 0 {
            let mut buf = vec![0u8; chunk_len];
            buf[chunk_len - first..].copy_from_slice(&bytes[..first]);
            let v = Uint::<N>::from_be_bytes(&buf);
            acc = self.reduce_wide(&v, &Uint::ZERO);
            idx = first;
        }
        while idx < bytes.len() {
            let v = Uint::<N>::from_be_bytes(&bytes[idx..idx + chunk_len]);
            // acc = acc * 2^(64N) + v  (mod m)  ==  reduce_wide(v, acc)
            acc = self.reduce_wide(&v, &acc);
            idx += chunk_len;
        }
        acc
    }
}

/// The low `N` limbs of `(top·2^(64N) + limbs) >> t`, `0 < t < 64`.
fn shr_with_top<const N: usize>(limbs: &[u64; N], top: u64, t: u32) -> Uint<N> {
    let mut out = [0u64; N];
    let mut above = top;
    for (o, l) in out.iter_mut().zip(limbs).rev() {
        *o = (l >> t) | (above << (64 - t));
        above = *l;
    }
    Uint(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // 2^64 - 59, a prime.
    const P1: MontParams<1> = MontParams::new(Uint::new([0xffffffffffffffc5]));
    // A 128-bit prime: 2^127 - 1 is NOT prime... use 2^128 - 159 (prime).
    const P2: MontParams<2> = MontParams::new(Uint::new([0xffffffffffffff61, 0xffffffffffffffff]));

    fn u1(v: u64) -> Uint<1> {
        Uint::from_u64(v)
    }

    #[test]
    fn constants_sane_one_limb() {
        // R mod m for m = 2^64 - 59 is 59.
        assert_eq!(P1.one(), u1(59));
        // inv * m ≡ -1 mod 2^64
        let m0 = P1.modulus().limbs()[0];
        assert_eq!(m0.wrapping_mul(P1.inv()), u64::MAX);
    }

    #[test]
    fn mont_roundtrip() {
        for v in [0u64, 1, 2, 59, 0xdeadbeef, 0xffffffffffffffc4] {
            let x = u1(v);
            assert_eq!(P1.from_mont(&P1.to_mont(&x)), x, "v={v}");
        }
    }

    #[test]
    fn mul_matches_u128_reference() {
        let m = 0xffffffffffffffc5u128;
        let cases = [
            (3u64, 5u64),
            (0xffffffffffffffc4, 0xffffffffffffffc4),
            (0x123456789abcdef0, 0xfedcba9876543210),
        ];
        for (a, b) in cases {
            let am = P1.to_mont(&u1(a));
            let bm = P1.to_mont(&u1(b));
            let got = P1.from_mont(&P1.mul(&am, &bm));
            let want = ((a as u128 * b as u128) % m) as u64;
            assert_eq!(got, u1(want), "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn add_sub_neg() {
        let a = P1.to_mont(&u1(100));
        let b = P1.to_mont(&u1(250));
        let s = P1.add(&a, &b);
        assert_eq!(P1.from_mont(&s), u1(350));
        let d = P1.sub(&a, &b);
        let neg150 = P1.neg(&P1.to_mont(&u1(150)));
        assert_eq!(d, neg150);
        assert_eq!(P1.neg(&Uint::ZERO), Uint::ZERO);
    }

    #[test]
    fn pow_small() {
        let b = P1.to_mont(&u1(3));
        let e = Uint::<1>::from_u64(10);
        assert_eq!(P1.from_mont(&P1.pow(&b, &e)), u1(59049));
        // a^0 = 1
        assert_eq!(P1.pow(&b, &Uint::<1>::ZERO), P1.one());
    }

    #[test]
    fn fermat_inverse() {
        // the Fermat power the Euclidean `inverse` displaced is its oracle
        let (m2, _) = P1.modulus().sub_borrow(&u1(2));
        for v in [1u64, 2, 3, 59, 0xdeadbeef, 1 << 63, 0xffffffffffffffc4] {
            let a = P1.to_mont(&u1(v));
            let ai = P1.inverse(&a).unwrap();
            assert_eq!(P1.from_mont(&P1.mul(&a, &ai)), u1(1), "v={v}");
            assert_eq!(ai, P1.pow(&a, &m2), "v={v}");
        }
        assert!(P1.inverse(&Uint::ZERO).is_none());
    }

    #[test]
    fn two_limb_field_behaves() {
        let a = P2.to_mont(&Uint::new([7, 0]));
        let b = P2.to_mont(&Uint::new([0, 3])); // 3 * 2^64
        let ab = P2.from_mont(&P2.mul(&a, &b));
        assert_eq!(ab, Uint::new([0, 21]));
        // inverse roundtrip
        let ai = P2.inverse(&a).unwrap();
        assert_eq!(P2.from_mont(&P2.mul(&a, &ai)), Uint::<2>::ONE);
    }

    #[test]
    fn reduce_wide_matches_definition() {
        // x = hi*2^64 + lo mod (2^64-59): 2^64 ≡ 59
        let lo = u1(123);
        let hi = u1(456);
        let got = P1.reduce_wide(&lo, &hi);
        let want = 456u128 * 59 + 123;
        assert_eq!(got, u1(want as u64));
    }

    #[test]
    fn reduce_be_bytes_small_and_large() {
        // Value smaller than the modulus: identity.
        assert_eq!(P1.reduce_be_bytes(&[0x2a]), u1(42));
        // 2^64 ≡ 59 (one byte past a limb).
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&[0u8; 8]);
        assert_eq!(P1.reduce_be_bytes(&bytes), u1(59));
        // Empty input reduces to zero.
        assert_eq!(P1.reduce_be_bytes(&[]), Uint::ZERO);
    }

    #[test]
    fn reference_binary_mod_agrees_with_mont_mul() {
        // Cross-check Montgomery multiplication on the 2-limb prime against a
        // slow shift-and-subtract reference over the 4-limb product.
        fn slow_mod(lo: Uint<2>, hi: Uint<2>, m: Uint<2>) -> Uint<2> {
            // operate on a 4-limb value
            let mut v = [lo.limbs()[0], lo.limbs()[1], hi.limbs()[0], hi.limbs()[1]];
            let mbig = [m.limbs()[0], m.limbs()[1], 0, 0];
            // shift m left so its top bit aligns, then conditional-subtract down
            let vbits = {
                let u = Uint::<4>::new(v);
                u.bits()
            };
            let mbits = m.bits();
            if vbits >= mbits {
                for shift in (0..=vbits - mbits).rev() {
                    // t = m << shift
                    let mut t = [0u64; 4];
                    for i in 0..4 {
                        let word = shift / 64;
                        let bits = shift % 64;
                        if i >= word {
                            t[i] = mbig[i - word] << bits;
                            if bits > 0 && i - word > 0 {
                                t[i] |= mbig[i - word - 1] >> (64 - bits);
                            }
                        }
                    }
                    let vt = Uint::<4>::new(v);
                    let tt = Uint::<4>::new(t);
                    let (d, borrow) = vt.sub_borrow(&tt);
                    if borrow == 0 {
                        v = d.limbs();
                    }
                }
            }
            Uint::new([v[0], v[1]])
        }

        let a = Uint::<2>::new([0x0123456789abcdef, 0x0fedcba987654321]);
        let b = Uint::<2>::new([0xaaaaaaaaaaaaaaaa, 0x5555555555555555]);
        let (lo, hi) = a.mul_wide(&b);
        let want = slow_mod(lo, hi, P2.modulus());
        let am = P2.to_mont(&a);
        let bm = P2.to_mont(&b);
        let got = P2.from_mont(&P2.mul(&am, &bm));
        assert_eq!(got, want);
    }
}
