//! # ibbe-pairing — BLS12-381 pairing-based cryptography from scratch
//!
//! This crate is the reproduction's substitute for the PBC library (and its
//! GMP substrate) used by the original IBBE-SGX implementation. It provides:
//!
//! * the base field [`fp::Fp`] and scalar field [`fr::Scalar`],
//! * the tower `Fp2`/`Fp6`/`Fp12`,
//! * the groups [`G1Affine`]/[`G1Projective`] and [`G2Affine`]/[`G2Projective`],
//! * the target group [`Gt`], the optimal ate [`pairing()`] and products of
//!   pairings under one final exponentiation ([`pairing_product`]),
//! * fixed-base tables for a base raised to many exponents ([`FixedBase`]),
//! * hashing of identities to scalars and to `G1` ([`hash`]).
//!
//! The paper's Type-A PBC curve is replaced by BLS12-381; both expose the
//! same abstract interface `e : G1 × G2 → GT`, which is all the IBBE/IBE
//! constructions consume (see DESIGN.md §1 for the substitution argument).
//!
//! ## Example: verifying bilinearity
//!
//! ```
//! use ibbe_pairing::{pairing, G1Projective, G2Projective, Scalar};
//! # let mut rng = rand::thread_rng();
//! let a = Scalar::random_nonzero(&mut rng);
//! let p = G1Projective::generator().mul_scalar(&a).to_affine();
//! let q = G2Projective::generator().to_affine();
//! let lhs = pairing(&p, &q);
//! let rhs = pairing(&G1Projective::generator().to_affine(), &q).pow(&a);
//! assert_eq!(lhs, rhs);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod field;
pub(crate) mod wnaf;

pub mod curve;
pub mod fixed;
pub mod fp;
pub mod fp12;
pub mod fp2;
pub mod fp6;
pub mod fr;
pub mod g1;
pub mod g2;
pub mod gt;
pub mod hash;
pub mod k256;
#[allow(clippy::module_inception)]
pub mod pairing;

pub use curve::{Affine, Curve, CurveField, Projective};
pub use fixed::FixedBase;
pub use fp::Fp;
pub use fp12::Fp12;
pub use fp2::Fp2;
pub use fr::Scalar;
pub use g1::{G1Affine, G1Projective, G1_COMPRESSED_BYTES};
pub use g2::{G2Affine, G2Projective, G2_COMPRESSED_BYTES};
pub use gt::{Gt, GT_BYTES};
pub use hash::{hash_to_g1, hash_to_scalar};
pub use k256::{K256Affine, K256Projective, ScalarK, K256_COMPRESSED_BYTES};
pub use pairing::{final_exponentiation, miller_loop, multi_miller_loop, pairing, pairing_product};
