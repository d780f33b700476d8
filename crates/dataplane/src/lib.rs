//! # dataplane — the envelope-encrypted read/write path over IBBE-SGX
//!
//! The control plane (crates `core` + `acs`) derives, rotates and publishes
//! group keys; this crate is the path those keys exist *for*: storing and
//! fetching data objects on the untrusted cloud.
//!
//! * [`SealedObject`] — envelope encryption: every object gets a random
//!   per-object DEK (AES-256-GCM), wrapped under a KEK derived from the
//!   group key of one specific **epoch**; both layers AAD-bind the object
//!   name and epoch.
//! * [`ClientSession`] — a member's read/write session with an epoch-aware
//!   key ring (current `gk` + retired keys unlocked from the published
//!   history), invalidated by the cloud store's long-poll notifications;
//!   writes are compare-and-swap PUTs, so concurrent writers are safe.
//! * [`SweepScheduler`] — the one re-encryption sweep driver. A group
//!   registers a [`SweepTask`] (one control session per identity and one
//!   cursor per data folder, see [`data_shard_folder`]); a rotation *arms*
//!   it (O(1), no store traffic); `converge_all` leases per-folder
//!   [`SweepPass`] steps to a fixed fleet of W workers in
//!   staleness-priority order until every armed backlog has converged (a
//!   [`Sweeper`] composes the same steps by hand). One group with W = its shard count is a parallel
//!   per-shard sweep (convergence time drops roughly by the shard factor
//!   on a `ShardedStore`); G groups on W workers is fleet-scale lazy
//!   revocation, re-armed from long-poll notifications by `watch`. The
//!   `sweep_scaling` bench binary measures the first, the repo benchmark's
//!   `revoke_sweep` workload the second.
//! * Revocation is two calls on that driver. A lazy one is
//!   [`acs::Admin::apply_batch`], then [`SweepScheduler::arm`] when the
//!   batch rotated the key (O(1) — the stale window is bounded by the next
//!   `converge_all`); an eager one also calls
//!   [`SweepScheduler::converge_all`] at once and fails closed unless the
//!   group's [`GroupSweepReport`] converged. A converged report's
//!   [`SweepReport::compaction_floor`] is the bound to hand
//!   [`acs::Admin::compact_history`].
//!
//! ```
//! use acs::Admin;
//! use cloud_store::CloudStore;
//! use dataplane::ClientSession;
//! use ibbe_sgx_core::{GroupEngine, PartitionSize};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::thread_rng();
//! let store = CloudStore::new();
//! let engine = GroupEngine::bootstrap(PartitionSize::new(4)?, &mut rng)?;
//! let admin = Admin::new(engine, store.clone());
//! admin.create_group("demo", vec!["alice".into(), "bob".into()])?;
//!
//! let usk = admin.engine().extract_user_key("alice")?;
//! let pk = admin.engine().public_key().clone();
//! let mut alice = ClientSession::new("alice", usk, pk, store, "demo");
//! alice.write("notes.txt", b"meet at dawn")?;
//! assert_eq!(alice.read("notes.txt")?, b"meet at dawn");
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod envelope;
pub mod error;
pub mod fixtures;
pub mod metrics;
pub mod pipeline;
pub mod scheduler;
pub mod session;
pub mod sweeper;

pub use envelope::{SealedObject, OBJECT_FORMAT_V1};
pub use error::DataError;
pub use metrics::{DataMetrics, DataMetricsSnapshot, FleetMetrics};
pub use pipeline::{OpClass, OpSample, PipelinedSession, ReadHandle};
pub use scheduler::{
    FleetConfig, FleetReport, GroupSweepReport, LeaseRecord, SweepScheduler, SweepTask, TaskId,
};
pub use session::{data_folder, data_shard_folder, ClientSession, RetryPolicy};
pub use sweeper::{SweepConfig, SweepPass, SweepReport, Sweeper};
