//! # workloads — membership traces and replay
//!
//! Workload generation and replay for the macrobenchmarks (paper §VI-B):
//!
//! * [`kernel`] — a synthesizer reproducing the published invariants of the
//!   paper's Linux-kernel ACL trace (43,468 ops, ≤ 2,803 concurrent members,
//!   growth-then-churn, heavy-tailed lifetimes) — see DESIGN.md §1 for the
//!   dataset substitution rationale;
//! * [`synthetic`] — the 11-trace revocation-ratio sweep of Fig. 10;
//! * [`batch`] — the batched-churn workload: bursts of operations an admin
//!   coalesces into one batch each, comparable against their own
//!   sequential flattening;
//! * [`rw`] — the read/write data-plane workload: skewed object traffic
//!   interleaved with membership churn (the lazy-vs-eager re-encryption
//!   scenario family);
//! * [`replay_events()`] — the generic timing-capturing driver over any
//!   event type implementing [`ReplayOp`] and backend implementing
//!   [`EventBackend`]; [`replay()`] / [`replay_batched()`] are the
//!   membership-shaped entry points on top of it (IBBE-SGX and HE backends
//!   live in the bench crate, the data-plane backend in `dataplane`'s
//!   test support).
//!
//! ```
//! use workloads::{generate_kernel_trace, KernelTraceConfig};
//! let trace = generate_kernel_trace(&KernelTraceConfig::default().scaled(200));
//! let stats = trace.stats();
//! assert_eq!(stats.ops, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod kernel;
pub mod replay;
pub mod rw;
pub mod synthetic;
pub mod trace;

pub use batch::{generate_batched_churn, BatchedChurnConfig, BatchedChurnTrace};
pub use kernel::{generate_kernel_trace, KernelTraceConfig};
pub use replay::{
    replay, replay_batched, replay_events, BatchReplayBackend, BatchReplayReport, EventBackend,
    EventReplayReport, ReplayBackend, ReplayOp, ReplayReport,
};
pub use rw::{generate_read_write, object_name, RwOp, RwTrace, RwTraceConfig};
pub use synthetic::{
    generate_synthetic_trace, revocation_sweep, SyntheticTrace, SyntheticTraceConfig,
};
pub use trace::{Trace, TraceOp, TraceStats};
