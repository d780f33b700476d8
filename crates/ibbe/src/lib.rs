//! # ibbe — identity-based broadcast encryption (Delerablée 2007)
//!
//! The IBBE scheme with constant-size ciphertexts and user keys that
//! IBBE-SGX builds on (paper §III-C, §IV-B and Appendix A), implemented over
//! the from-scratch BLS12-381 pairing in `ibbe-pairing`.
//!
//! Two encryption paths are provided:
//!
//! * [`encrypt_public`] — the traditional scheme usable by anyone holding
//!   the system public key; `O(n²)` because the receiver polynomial must be
//!   expanded against published powers of `γ` (paper Eq. 4);
//! * [`encrypt_with_msk`] — the IBBE-SGX fast path that computes the
//!   exponent directly with the enclave-confined master secret; `O(n)`
//!   (paper Eq. 3).
//!
//! Both produce identical ciphertexts (tested bit-for-bit), plus the
//! auxiliary `C3` element (Eq. 5) that gives `O(1)` [`remove_user_with_msk`]
//! and [`rekey`]. The two steps a caller may want to run on several cores
//! come apart into an [`Ephemeral::draw`] and a pure half
//! ([`encrypt_with_msk_using`], [`rekey_using`]); the rng-taking functions
//! are their composition.
//!
//! ```
//! use ibbe::{setup, extract, encrypt_with_msk, decrypt};
//! # fn main() -> Result<(), ibbe::IbbeError> {
//! let mut rng = rand::thread_rng();
//! let (msk, pk) = setup(16, &mut rng);
//! let members: Vec<String> = ["alice", "bob"].map(String::from).to_vec();
//! let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut rng)?;
//! let alice_key = extract(&msk, "alice");
//! assert_eq!(decrypt(&pk, &alice_key, "alice", &members, &ct)?, bk);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod poly;
pub mod scheme;

pub use error::IbbeError;
pub use scheme::{
    add_user_public, add_user_with_msk, decrypt, encrypt_public, encrypt_with_msk,
    encrypt_with_msk_using, extract, hash_identity, rekey, rekey_using, remove_user_with_msk,
    setup, BroadcastKey, Ciphertext, Ephemeral, MasterSecretKey, PublicKey, Receivers,
    UserSecretKey, CIPHERTEXT_BYTES,
};
