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

/// An [`ObjectStore`] wrapper logging every object-level request —
/// blocking and submitted alike — as `(kind, folder, item)`, one entry per
/// item of a `GetMany`/`PutMany`, so two deployments' request flows
/// compare directly; it also counts the requests behind those entries.
#[derive(Clone)]
pub struct RecordingStore {
    inner: StoreHandle,
    log: Arc<Mutex<Vec<(String, String, String)>>>,
    data_requests: Arc<Mutex<usize>>,
}

impl RecordingStore {
    pub fn new(inner: impl Into<StoreHandle>) -> Self {
        Self {
            inner: inner.into(),
            log: Arc::new(Mutex::new(Vec::new())),
            data_requests: Arc::default(),
        }
    }

    /// The interception, shared by the blocking and the queued path.
    fn record(&self, request: &Request) {
        let (kind, items): (_, Vec<&String>) = match &request.op {
            RequestOp::Get => ("get", vec![&request.item]),
            RequestOp::PutIfVersion { .. } => ("cas", vec![&request.item]),
            RequestOp::Put(_) => ("put", vec![&request.item]),
            RequestOp::Delete => ("delete", vec![&request.item]),
            RequestOp::GetMany(items) => ("get_many", items.iter().collect()),
            RequestOp::PutMany(items) => ("put_many", items.iter().map(|w| &w.item).collect()),
            _ => return, // folder-level traffic is not part of the claim
        };
        if items.iter().any(|item| is_data(item)) {
            *self.data_requests.lock().unwrap() += 1;
        }
        let mut log = self.log.lock().unwrap();
        for item in items {
            log.push((kind.to_string(), request.folder.clone(), item.clone()));
        }
    }

    /// Data-object entries only; metadata traffic (key rings, epoch
    /// history) is not part of the equivalence claim.
    pub fn data_ops(&self) -> Vec<(String, String, String)> {
        self.log
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, _, item)| is_data(item))
            .cloned()
            .collect()
    }

    /// Requests that carried at least one data object.
    pub fn data_requests(&self) -> usize {
        *self.data_requests.lock().unwrap()
    }
}

fn is_data(item: &str) -> bool {
    item.starts_with("obj-")
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
