//! Error type for the end-to-end access control system.

use core::fmt;

/// Errors surfaced by the admin/client APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AcsError {
    /// Propagated IBBE-SGX core failure.
    Core(ibbe_sgx_core::CoreError),
    /// Propagated enclave/attestation failure.
    Sgx(sgx_sim::SgxError),
    /// The requested group does not exist (locally or on the cloud).
    UnknownGroup(String),
    /// The admin already holds a group of this name: a live group is
    /// re-keyed or emptied, never re-created.
    GroupExists(String),
    /// A cloud object failed to deserialize.
    WireFormat(&'static str),
    /// The client's identity is not a member of the watched group.
    NotAMember(String),
    /// A cloud request was refused or lost (outage, timeout, lost CAS).
    Store(cloud_store::StoreError),
    /// The published op-log failed verification: the store forked, rewrote
    /// or truncated history a verifier had already pinned. Unlike
    /// [`AcsError::Store`] this is *evidence*, not a transient fault — the
    /// affected state must not be trusted.
    Verify(oplog::VerifyError),
}

impl fmt::Display for AcsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcsError::Core(e) => write!(f, "core: {e}"),
            AcsError::Sgx(e) => write!(f, "sgx: {e}"),
            AcsError::UnknownGroup(g) => write!(f, "unknown group: {g}"),
            AcsError::GroupExists(g) => write!(f, "group already exists: {g}"),
            AcsError::WireFormat(what) => write!(f, "malformed cloud object: {what}"),
            AcsError::NotAMember(id) => write!(f, "not a member: {id}"),
            AcsError::Store(e) => write!(f, "store: {e}"),
            AcsError::Verify(e) => write!(f, "log verification: {e}"),
        }
    }
}

impl std::error::Error for AcsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AcsError::Core(e) => Some(e),
            AcsError::Sgx(e) => Some(e),
            AcsError::Store(e) => Some(e),
            AcsError::Verify(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ibbe_sgx_core::CoreError> for AcsError {
    fn from(e: ibbe_sgx_core::CoreError) -> Self {
        AcsError::Core(e)
    }
}

impl From<sgx_sim::SgxError> for AcsError {
    fn from(e: sgx_sim::SgxError) -> Self {
        AcsError::Sgx(e)
    }
}

impl From<cloud_store::StoreError> for AcsError {
    fn from(e: cloud_store::StoreError) -> Self {
        AcsError::Store(e)
    }
}

impl From<oplog::VerifyError> for AcsError {
    fn from(e: oplog::VerifyError) -> Self {
        AcsError::Verify(e)
    }
}

impl AcsError {
    /// True when the failure is a transient store fault (outage/timeout):
    /// a bounded retry can clear it without any state repair.
    pub fn is_transient(&self) -> bool {
        matches!(self, AcsError::Store(e) if e.is_transient())
    }
}
