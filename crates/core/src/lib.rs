//! # ibbe-sgx-core — the paper's primary contribution
//!
//! Partitioned identity-based broadcast encryption inside a trusted
//! execution environment (IBBE-SGX, Contiu et al., DSN'18, §IV–V):
//!
//! * [`GroupEngine`] — the admin-side engine. Boots the (simulated) admin
//!   enclave, runs IBBE setup with `MSK` confined inside, and implements
//!   the paper's Algorithms 1–3 plus re-keying and re-partitioning.
//! * [`GroupMetadata`] — the public cloud-storable state: per partition the
//!   member list, the IBBE ciphertext `c_p` and the wrapped group key
//!   `y_p = AES(SHA-256(bk_p), gk)` (Fig. 4).
//! * [`client_decrypt_group_key`] — the user side; plain CPU, no enclave.
//!
//! Complexities (paper Table I) realized here:
//!
//! | operation | cost |
//! |---|---|
//! | bootstrap (system setup) | `O(|p|)` |
//! | extract user key | `O(1)` |
//! | create group | `|P| × O(|p|)` |
//! | add user | `O(1)` |
//! | remove user | `|P| × O(1)` |
//! | client decrypt | `O(|p|²)` |
//!
//! Every add and remove is validated first ([`MembershipBatch::plan`]): one
//! borrowed read of the member lists, each member looked up among the
//! batch's identities, with nothing allocated per member. That read is
//! linear in the group but no part of the cryptography; at 4 096 members it
//! is a few percent of an add.
//!
//! ```
//! use ibbe_sgx_core::{GroupEngine, PartitionSize, client_decrypt_group_key};
//! # fn main() -> Result<(), ibbe_sgx_core::CoreError> {
//! let mut rng = rand::thread_rng();
//! let engine = GroupEngine::bootstrap(PartitionSize::new(4)?, &mut rng)?;
//! let members: Vec<String> = (0..6).map(|i| format!("user-{i}")).collect();
//!
//! // Admin: create a group (2 partitions of ≤ 4) and add/remove members.
//! let mut meta = engine.create_group("project-x", members.clone())?;
//! engine.add_user(&mut meta, "newcomer")?;
//! engine.remove_user(&mut meta, "user-3")?;
//!
//! // User: derive gk with only public metadata + own secret key.
//! let usk = engine.extract_user_key("user-0")?;
//! let gk = client_decrypt_group_key(engine.public_key(), &usk, "user-0", &meta)?;
//! assert_eq!(gk.as_bytes().len(), 32);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod batch;
pub mod client;
pub mod engine;
pub mod error;
pub mod metadata;

pub use adaptive::AdaptivePolicy;
pub use batch::{BatchOp, BatchOutcome, BatchPlan, MembershipBatch, Placement};
pub use client::{
    client_decrypt_from_partition, client_decrypt_group_key, client_decrypt_key_ring, KeyRing,
};
pub use engine::{AddOutcome, GroupEngine, PartitionSize, RemoveOutcome, ENCLAVE_CODE_IDENTITY};
pub use error::CoreError;
pub use metadata::{GroupKey, GroupMetadata, KeyHistory, PartitionMetadata, WrappedGroupKey};
