//! Shared test support for the data-plane suites: a request-recording
//! store wrapper, a dispatcher-free sweep oracle, and the full stack as a
//! replay backend for the `workloads` read/write traces ([`replay`]).

#![allow(dead_code)] // each suite uses its own subset

pub mod replay;

use cloud_store::{
    MetricsSnapshot, ObjectStore, Request, RequestOp, Response, StoreError, StoreHandle,
    StoreTicket,
};
use dataplane::{SweepReport, Sweeper};
use std::sync::{Arc, Mutex};

/// An [`ObjectStore`] wrapper logging every single-object request —
/// blocking and submitted alike — as `(kind, folder, item)`, so two
/// deployments' request flows compare directly.
#[derive(Clone)]
pub struct RecordingStore {
    inner: StoreHandle,
    log: Arc<Mutex<Vec<(String, String, String)>>>,
}

impl RecordingStore {
    pub fn new(inner: impl Into<StoreHandle>) -> Self {
        Self {
            inner: inner.into(),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The interception, shared by the blocking and the queued path.
    fn record(&self, request: &Request) {
        let kind = match request.op {
            RequestOp::Get => "get",
            RequestOp::PutIfVersion { .. } => "cas",
            RequestOp::Put(_) => "put",
            RequestOp::Delete => "delete",
            _ => return, // folder-level traffic is not part of the claim
        };
        self.log.lock().unwrap().push((
            kind.to_string(),
            request.folder.clone(),
            request.item.clone(),
        ));
    }

    /// Data-object requests only; metadata traffic (key rings, epoch
    /// history) is not part of the equivalence claim.
    pub fn data_ops(&self) -> Vec<(String, String, String)> {
        self.log
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, _, item)| item.starts_with("obj-"))
            .cloned()
            .collect()
    }
}

impl ObjectStore for RecordingStore {
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        self.record(&request);
        self.inner.call(request)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn submit(&self, request: Request) -> StoreTicket {
        self.record(&request);
        self.inner.submit(request)
    }
}

/// One sweep pass of `unit` composed by hand from the public primitives —
/// scan once, step in `lease`-sized increments until drained, finish — the
/// oracle for what the scheduler's dispatch must reduce to.
pub fn sweep_by_hand(unit: &mut Sweeper, lease: usize) -> SweepReport {
    let mut pass = unit.begin_pass().unwrap();
    while !pass.is_drained() {
        pass.step(unit, lease).unwrap();
    }
    pass.finish()
}
