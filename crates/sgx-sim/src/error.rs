//! Error type shared across the SGX simulation substrate.

use core::fmt;

/// Errors returned by enclave, sealing and attestation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// A sealed blob failed authentication or was produced by a different
    /// enclave identity.
    UnsealFailed,
    /// A quote signature did not verify against the platform quoting key.
    QuoteInvalid,
    /// The attestation service rejected the quote.
    AttestationRejected(String),
    /// The measurement in an otherwise-valid quote did not match the
    /// expected enclave identity.
    MeasurementMismatch,
    /// A certificate signature did not verify against the CA key.
    CertificateInvalid,
    /// A secure-channel message failed to decrypt or authenticate.
    ChannelFailed,
}

impl fmt::Display for SgxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SgxError::UnsealFailed => write!(f, "sealed blob failed to unseal"),
            SgxError::QuoteInvalid => write!(f, "quote signature invalid"),
            SgxError::AttestationRejected(why) => {
                write!(f, "attestation service rejected quote: {why}")
            }
            SgxError::MeasurementMismatch => {
                write!(f, "enclave measurement does not match expected identity")
            }
            SgxError::CertificateInvalid => write!(f, "certificate signature invalid"),
            SgxError::ChannelFailed => write!(f, "secure channel message failed to open"),
        }
    }
}

impl std::error::Error for SgxError {}
