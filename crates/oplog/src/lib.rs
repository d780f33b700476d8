//! Verifiable op-log primitives: an RFC 6962-style Merkle history tree over
//! an append-only log, with the three proof shapes the access-control stack
//! needs to stop trusting the admin/store pair blindly.
//!
//! - [`MerkleLog`] — an incremental accumulator (binary-counter layout: one
//!   row of complete-subtree roots per level). Appending a leaf is O(1)
//!   amortised and reports exactly which tree nodes the append completed, so
//!   a publisher can mirror the node set into a cloud store object-by-object.
//! - [`ConsistencyProof`] — O(log n) evidence that one signed head is an
//!   append-only extension of an earlier one. A client that remembers only
//!   its last [`LogCommitment`] (40 bytes) detects any fork, rewrite or
//!   truncation of the history it has already observed.
//! - [`InclusionProof`] — O(log n) evidence that a given leaf sits at a
//!   given index of a given head.
//! - [`TransitionProof`] — a compact fraud-proof unit: pre-head, appended
//!   leaf, post-head plus the two paths above. An untrusted auditor replays
//!   one state transition without the log, the group, or any admin key.
//!
//! Hashing follows RFC 6962/9162 exactly (`0x00` leaf / `0x01` node domain
//! separation, split at the largest power of two below the range length), so
//! the verification algorithms are the standard iterative ones and any
//! independent implementation of the RFC agrees on every root.
//!
//! This crate is deliberately free of store, enclave and signature types:
//! it hashes byte strings. The `acs` crate layers signed membership
//! operations on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merkle;
mod proof;

pub use merkle::{leaf_hash, node_hash, range_root, root_at, MerkleLog, NodeSource};
pub use proof::{
    consistency_proof, inclusion_proof, verify_consistency, verify_inclusion, ConsistencyProof,
    InclusionProof, TransitionProof,
};

use symcrypto::sha256::sha256;

/// A Merkle tree hash (SHA-256 digest).
pub type Hash = [u8; 32];

/// Root of the empty tree: per RFC 6962, the hash of the empty string.
#[must_use]
pub fn empty_root() -> Hash {
    sha256(b"")
}

/// A signed-log head: the number of entries and the Merkle root over them.
///
/// This is the only state a verifier has to remember between observations —
/// 40 bytes pin the entire history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogCommitment {
    /// Number of leaves (log entries) committed.
    pub size: u64,
    /// RFC 6962 Merkle tree hash over those leaves.
    pub root: Hash,
}

/// Serialized length of a [`LogCommitment`].
pub const COMMITMENT_LEN: usize = 8 + 32;

impl LogCommitment {
    /// The commitment of an empty log.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            size: 0,
            root: empty_root(),
        }
    }

    /// Fixed-size wire form: big-endian size then root.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; COMMITMENT_LEN] {
        let mut out = [0u8; COMMITMENT_LEN];
        out[..8].copy_from_slice(&self.size.to_be_bytes());
        out[8..].copy_from_slice(&self.root);
        out
    }

    /// Parses the wire form; rejects any length other than
    /// [`COMMITMENT_LEN`].
    ///
    /// # Errors
    /// [`VerifyError::Malformed`] on bad length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, VerifyError> {
        if bytes.len() != COMMITMENT_LEN {
            return Err(VerifyError::Malformed("log commitment must be 40 bytes"));
        }
        let mut size = [0u8; 8];
        size.copy_from_slice(&bytes[..8]);
        let mut root = [0u8; 32];
        root.copy_from_slice(&bytes[8..]);
        Ok(Self {
            size: u64::from_be_bytes(size),
            root,
        })
    }
}

/// Why a proof or an observed head failed verification.
///
/// Every variant is a *detection*, not a transport problem: transient store
/// errors are surfaced separately by the caller so that an outage is never
/// mistaken for tampering (or vice versa — a missing proof node fails
/// closed as [`VerifyError::MissingNode`]).
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum VerifyError {
    /// The observed head commits to fewer entries than a head already
    /// verified — history was truncated or rolled back.
    Truncated {
        /// Size of the previously verified head.
        prior: u64,
        /// Smaller size the store now serves.
        current: u64,
    },
    /// Two heads of equal size disagree on the root: a fork/equivocation.
    Forked {
        /// The common size at which the roots diverge.
        size: u64,
    },
    /// The consistency path does not reproduce the previously verified
    /// root — the prefix the verifier already trusted was rewritten.
    NotAnExtension,
    /// A recomputed root disagrees with the published head.
    RootMismatch,
    /// A Merkle node object required by a proof is absent from the store.
    MissingNode {
        /// Tree level of the missing node (0 = leaf row).
        level: u32,
        /// Index of the missing node within its level.
        index: u64,
    },
    /// The published head object disappeared after having been observed.
    HeadVanished,
    /// A proof or serialized object is structurally invalid.
    Malformed(&'static str),
    /// A log entry's signature failed to verify.
    BadSignature {
        /// Per-group index (position in the group's log) of the offending
        /// entry.
        seq: u64,
    },
    /// A validly signed entry is served somewhere other than where its
    /// admin signed it — the trace of a dropped, reordered, replayed or
    /// spliced-in entry.
    OutOfPlace {
        /// Position in the group's log the entry was served at.
        position: u64,
        /// The signed binding that does not hold there: `"group"`,
        /// `"index"` or `"pre-root"`.
        binding: &'static str,
    },
    /// A log entry claims an admin that is not in the trusted key set.
    UnknownAdmin(String),
    /// A transition proof's commitments are internally inconsistent.
    BadTransition(&'static str),
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated { prior, current } => {
                write!(
                    f,
                    "log truncated: verified {prior} entries, store serves {current}"
                )
            }
            Self::Forked { size } => {
                write!(f, "log forked: two size-{size} heads with different roots")
            }
            Self::NotAnExtension => {
                write!(
                    f,
                    "observed head does not extend the previously verified history"
                )
            }
            Self::RootMismatch => write!(f, "recomputed root disagrees with the published head"),
            Self::MissingNode { level, index } => {
                write!(
                    f,
                    "merkle node ({level},{index}) required by the proof is missing"
                )
            }
            Self::HeadVanished => write!(f, "published log head vanished after being observed"),
            Self::Malformed(what) => write!(f, "malformed proof: {what}"),
            Self::BadSignature { seq } => write!(f, "bad signature on log entry {seq}"),
            Self::OutOfPlace { position, binding } => {
                write!(
                    f,
                    "log entry served at {position} was signed for another {binding}"
                )
            }
            Self::UnknownAdmin(name) => write!(f, "log entry signed by unknown admin {name:?}"),
            Self::BadTransition(what) => write!(f, "invalid transition proof: {what}"),
        }
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_root_is_sha256_of_nothing() {
        // RFC 6962: MTH({}) = SHA-256().
        assert_eq!(
            empty_root(),
            [
                0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8, 0x99, 0x6f,
                0xb9, 0x24, 0x27, 0xae, 0x41, 0xe4, 0x64, 0x9b, 0x93, 0x4c, 0xa4, 0x95, 0x99, 0x1b,
                0x78, 0x52, 0xb8, 0x55,
            ]
        );
    }

    #[test]
    fn commitment_roundtrip() {
        let c = LogCommitment {
            size: 7,
            root: [0xab; 32],
        };
        assert_eq!(LogCommitment::from_bytes(&c.to_bytes()).unwrap(), c);
        assert!(LogCommitment::from_bytes(&[0u8; 39]).is_err());
        assert!(LogCommitment::from_bytes(&[0u8; 41]).is_err());
    }
}
