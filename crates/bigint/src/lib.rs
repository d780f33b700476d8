//! # ibbe-bigint — fixed-width multiprecision arithmetic
//!
//! A small, dependency-free multiprecision integer substrate used by the
//! `ibbe-pairing` crate. It plays the role GMP plays under PBC in the
//! original IBBE-SGX implementation: all prime-field arithmetic of the
//! pairing curve bottoms out here.
//!
//! The central type is [`Uint`], a little-endian array of `N` 64-bit limbs,
//! together with [`MontParams`], the precomputed constants for Montgomery
//! multiplication modulo an odd prime.
//!
//! Design constraints:
//!
//! * **No heap allocation** anywhere on the arithmetic hot path.
//! * **`const`-evaluable parameters**: Montgomery constants (`R mod m`,
//!   `R² mod m`, `-m⁻¹ mod 2⁶⁴`) are derived at compile time from the modulus
//!   alone, so curve crates simply write
//!   `const FP: MontParams<6> = MontParams::new(MODULUS);`.
//! * **Branch-poor**: reductions use conditional subtraction; comparisons on
//!   secrets go through [`Uint::ct_eq`]. The exceptions are stated where
//!   they are: [`MontParams::pow`] branches on its exponent and
//!   [`MontParams::inverse`] (binary extended Euclid) on its operand.
//!
//! ## Example
//!
//! ```
//! use ibbe_bigint::{Uint, MontParams};
//!
//! // Arithmetic modulo the 64-bit prime 2^64 - 59 (one limb for brevity).
//! const M: MontParams<1> = MontParams::new(Uint::new([0xffffffffffffffc5]));
//! let a = M.to_mont(&Uint::new([3]));
//! let b = M.to_mont(&Uint::new([5]));
//! let ab = M.mul(&a, &b);
//! assert_eq!(M.from_mont(&ab), Uint::new([15]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mont;
pub mod uint;

pub use mont::MontParams;
pub use uint::Uint;

/// Maximum number of limbs supported by scratch buffers on the Montgomery
/// multiplication path. `Fp` of BLS12-381 needs 6, `Fr` needs 4.
pub const MAX_LIMBS: usize = 8;
