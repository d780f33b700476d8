//! Error type for the data plane.

use cloud_store::{StoreError, VersionConflict};
use core::fmt;

/// Errors surfaced by data-plane sessions and sweepers.
///
/// `#[non_exhaustive]`: new failure classes (like the op-log verification
/// evidence that [`acs::AcsError`] grew) may be added without a major
/// bump — match with a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataError {
    /// Propagated control-plane (admin/client) failure.
    Acs(acs::AcsError),
    /// Propagated IBBE-SGX core failure.
    Core(ibbe_sgx_core::CoreError),
    /// A stored object failed to deserialize.
    WireFormat(&'static str),
    /// The object does not exist in the group's data folder.
    NotFound(String),
    /// The object's DEK is wrapped under an epoch this session holds no key
    /// for — either the reader was revoked before the epoch was issued, or
    /// their ring is stale and a refresh failed.
    UnknownEpoch(u64),
    /// GCM authentication failed (tampered object, or a key that matches
    /// the epoch label but not the actual wrap).
    AuthFailed,
    /// A conditional write lost the compare-and-swap race; re-read the
    /// object (refreshing the cached version) before retrying.
    Conflict(VersionConflict),
    /// The session has never derived key material and a refresh failed.
    NoKeys,
    /// A cloud request was refused or lost (outage or timeout); transient
    /// — retry with backoff (see [`crate::RetryPolicy`]).
    Store(StoreError),
    /// A sweep worker thread panicked; its work unit was (or must be)
    /// re-queued. Carries the panic payload rendered as text.
    WorkerPanic(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Acs(e) => write!(f, "control plane: {e}"),
            DataError::Core(e) => write!(f, "core: {e}"),
            DataError::WireFormat(what) => write!(f, "malformed data object: {what}"),
            DataError::NotFound(name) => write!(f, "no such object: {name}"),
            DataError::UnknownEpoch(e) => write!(f, "no key for epoch {e}"),
            DataError::AuthFailed => write!(f, "object failed to authenticate"),
            DataError::Conflict(c) => write!(f, "write lost the race: {c}"),
            DataError::NoKeys => write!(f, "session holds no key material"),
            DataError::Store(e) => write!(f, "store: {e}"),
            DataError::WorkerPanic(note) => write!(f, "sweep worker panicked: {note}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Acs(e) => Some(e),
            DataError::Core(e) => Some(e),
            DataError::Conflict(c) => Some(c),
            DataError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<acs::AcsError> for DataError {
    fn from(e: acs::AcsError) -> Self {
        DataError::Acs(e)
    }
}

impl From<ibbe_sgx_core::CoreError> for DataError {
    fn from(e: ibbe_sgx_core::CoreError) -> Self {
        DataError::Core(e)
    }
}

impl From<VersionConflict> for DataError {
    fn from(e: VersionConflict) -> Self {
        DataError::Conflict(e)
    }
}

impl From<StoreError> for DataError {
    fn from(e: StoreError) -> Self {
        match e {
            // a lost CAS keeps its dedicated re-read-and-retry contract
            StoreError::Conflict(c) => DataError::Conflict(c),
            other => DataError::Store(other),
        }
    }
}

/// Renders a caught panic payload (`std::thread::Result::Err` /
/// `catch_unwind` error) as the human-readable note carried by
/// [`DataError::WorkerPanic`] and the per-unit failure records.
pub(crate) fn panic_note(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl DataError {
    /// True when a bounded retry (after the store recovers) can clear the
    /// failure without any state repair: injected/real outages and
    /// timeouts, wherever in the stack they surfaced, and worker panics
    /// (whose unit is re-queued). CAS conflicts are *not* transient —
    /// the caller must re-read the object first.
    pub fn is_transient(&self) -> bool {
        match self {
            DataError::Store(e) => e.is_transient(),
            DataError::Acs(e) => e.is_transient(),
            DataError::WorkerPanic(_) => true,
            _ => false,
        }
    }
}
