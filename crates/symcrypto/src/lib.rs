//! # symcrypto — symmetric-cryptography substrate
//!
//! From-scratch implementations of the symmetric primitives the IBBE-SGX
//! system needs, standing in for the OpenSSL port the paper uses inside SGX
//! (Intel SGX-SSL):
//!
//! * [`mod@sha256`] — SHA-256 (FIPS 180-4), used as the paper's `sgx_sha` for
//!   deriving AES keys from broadcast keys;
//! * [`aes`] / [`gcm`] — AES-128/256 and AES-GCM (the paper's `sgx_aes`,
//!   at the 256-bit "maximal security level");
//! * [`hmac`] — HMAC-SHA256, HKDF and constant-time comparison;
//! * [`drbg`] — HMAC-DRBG with a [`rand::RngCore`] adapter for deterministic
//!   in-enclave randomness.
//!
//! Every primitive is validated against FIPS/NIST/RFC test vectors in its
//! module tests.
//!
//! ## Kernel design
//!
//! AES and GHASH are word-oriented table kernels in safe, portable Rust (no
//! `unsafe`, no architecture-specific code or feature detection): AES rounds
//! are four 256×`u32` T-table lookups per column on big-endian `u32` state
//! words, CTR keeps a `u32` word counter and XORs a `u128` per block, and
//! GHASH multiplies through two per-key 16-entry `u128` tables plus one
//! static reduction table, folding two blocks per step over independent
//! chains (see [`aes`] and [`gcm`]). The byte-wise FIPS 197 rounds and the
//! bit-serial GF(2¹²⁸) multiply survive as test oracles
//! (`tests/reference`), which the differential tests compare against.
//!
//! All of these tables are indexed by secret data. So were the 256-byte
//! S-box and the branch-on-key-bit multiply they replace: the crate
//! simulates the hardware AES-GCM of SGX-SSL and is **not** hardened against
//! cache-timing side channels.
//!
//! ```
//! use symcrypto::gcm::AesGcm;
//! let gcm = AesGcm::new(&[0u8; 32]);
//! let sealed = gcm.seal(&[0u8; 12], b"ctx", b"group key");
//! assert_eq!(gcm.open(&[0u8; 12], b"ctx", &sealed).unwrap(), b"group key");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod drbg;
pub mod gcm;
pub mod hmac;
pub mod sha256;

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

pub use aes::Aes;
pub use drbg::HmacDrbg;
pub use gcm::{AesGcm, AuthError, NONCE_LEN, TAG_LEN};
pub use hmac::{ct_eq, hkdf, hmac_sha256};
pub use sha256::{sha256, Sha256};
