//! # acs — the end-to-end group access control system
//!
//! Assembles the paper's Fig. 5 architecture from the workspace substrates:
//!
//! * [`Admin`] — IBBE-SGX engine + local cache + cloud publish path (every
//!   mutation one atomic `put_many`), with the
//!   **batched membership pipeline** ([`Admin::begin_batch`] →
//!   [`GroupBatch::commit`]): a burst of adds/removes is coalesced into one
//!   engine batch (one re-key per surviving partition per batch), published
//!   in one `put_many` store round-trip, and journaled as one coalesced
//!   op-log entry. One admin holds one master secret and keeps different
//!   groups in flight at once (one lock per group); every component holds
//!   a [`cloud_store::StoreHandle`], so the same deployment runs unchanged
//!   on a single `CloudStore` or a folder-sharded `ShardedStore`;
//! * [`Client`] — long-polling group member deriving `gk` (no SGX) from
//!   one `GetMany` snapshot of the group folder per sync;
//! * [`provisioning`] — the Fig. 3 trust establishment (quote → IAS →
//!   Auditor/CA certificate → encrypted user-key delivery);
//! * [`HeAdmin`] — the Hybrid-Encryption comparison system at equal
//!   zero-knowledge guarantees (HE inside an enclave);
//! * [`verilog`] — the certified membership-operation log (§VIII future
//!   work), in one module: signed entries ([`LogEntry`], [`AdminSigner`]),
//!   one Merkle-committed log per group ([`GroupLog`]) wired into
//!   [`Admin`] via [`Admin::with_signer`], published with the metadata,
//!   pinned by clients and replayed by an untrusted [`Auditor`].
//!
//! ```
//! use acs::{bootstrap_admin, Client, provisioning};
//! use cloud_store::CloudStore;
//! use ibbe_sgx_core::PartitionSize;
//! # fn main() -> Result<(), acs::AcsError> {
//! let mut rng = rand::thread_rng();
//! let store = CloudStore::new();
//! let admin = bootstrap_admin(PartitionSize::new(4).unwrap(), store.clone(), &mut rng)?;
//!
//! // Fig. 3: attest the enclave, certify its key, provision alice.
//! let (trust, cert) = provisioning::establish_trust(admin.engine(), &mut rng)?;
//! let usk = provisioning::provision_user(
//!     admin.engine(), &cert, &trust.auditor.ca_verifying_key(), "alice", &mut rng)?;
//!
//! // Admin creates a group; alice syncs and derives gk.
//! admin.create_group("demo", vec!["alice".into(), "bob".into()])?;
//! let mut alice = Client::new(
//!     "alice", usk, admin.engine().public_key().clone(), store, "demo");
//! let gk = alice.sync()?;
//! assert_eq!(gk.as_bytes().len(), 32);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod client;
pub mod error;
pub mod fixtures;
pub mod he_system;
pub mod provisioning;
pub mod verilog;

pub use admin::{bootstrap_admin, partition_item, Admin, GroupBatch, EPOCHS_ITEM, SEALED_ITEM};
pub use client::Client;
pub use error::AcsError;
pub use fixtures::{FleetFixture, ForkingStore, Tamper};
pub use he_system::{decode_he_metadata, encode_he_metadata, HeAdmin, HE_ITEM};
pub use provisioning::{establish_trust, provision_user, KeyRequest, TrustContext};
pub use verilog::{AdminSigner, Auditor, GroupLog, LogEntry, LogOp, SignedTransition};
