//! # cloud-store — simulated untrusted cloud storage
//!
//! The reproduction's stand-in for Dropbox (paper §V, Fig. 5): a versioned
//! key/value store with a bi-level `group/partition` namespace, PUT/GET,
//! **directory-level long polling** for client change notification, an
//! injectable [`LatencyModel`], and request/byte [`metrics`] used by the
//! storage-footprint experiments.
//!
//! The store is honest-but-curious by construction: it sees exactly what a
//! real cloud would see — member lists, IBBE ciphertexts and wrapped group
//! keys — and the tests in `tests/` assert that none of it reveals `gk`.
//!
//! ```
//! use cloud_store::CloudStore;
//! use std::time::Duration;
//! let store = CloudStore::new();
//! store.put("group-1", "partition-0", &b"metadata"[..]);
//! let poll = store.long_poll("group-1", 0, Duration::from_millis(5));
//! assert_eq!(poll.changed, vec!["partition-0".to_string()]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod latency;
pub mod metrics;
pub mod object_store;
pub mod sharded;
pub mod store;
pub mod submit;

pub use bytes::Bytes;
pub use fault::{FaultConfig, FaultInjector, FaultStats, FaultyStore, StoreError};
pub use latency::LatencyModel;
pub use metrics::{Metrics, MetricsSnapshot};
pub use object_store::{ObjectStore, StoreHandle};
pub use sharded::{stable_hash64, ShardedStore};
pub use store::{CloudStore, PollResult, VersionConflict};
pub use submit::{BatchWrite, Request, RequestOp, Response, Snapshot, StoreTicket, SUBMIT_LANES};
