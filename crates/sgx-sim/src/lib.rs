//! # sgx-sim — a software Intel SGX substrate
//!
//! A simulation of the SGX features IBBE-SGX relies on, faithful to their
//! *security dataflow* rather than to hardware timings (see DESIGN.md §1 for
//! the substitution argument):
//!
//! * [`Enclave`] / [`EnclaveBuilder`] — confined private state reachable
//!   only through ecalls, with an in-enclave DRBG and measurement
//!   (MRENCLAVE);
//! * [`SealedBlob`] — sealed storage bound to the enclave identity;
//! * [`Quote`], [`QuotingKey`], [`IasSim`] — local quoting and the remote
//!   attestation service;
//! * [`Auditor`], [`Certificate`] — the paper's Auditor/CA (Fig. 3) that
//!   attests the admin enclave and certifies its channel key;
//! * [`ChannelKeyPair`], [`ChannelPublicKey`] — the encrypted provisioning
//!   channel users receive their IBBE secret keys through;
//! * [`bls`] — Schnorr signatures over secp256k1 (the module's name is
//!   historical), underpinning quotes, reports, certificates and op-log
//!   entries. Real SGX DCAP signs quotes with ECDSA over a prime-order
//!   curve.
//!
//! ## The full trust-establishment flow (paper Fig. 3)
//!
//! ```
//! use sgx_sim::*;
//! # fn main() -> Result<(), SgxError> {
//! let mut rng = rand::thread_rng();
//! // Platform + Intel-side setup.
//! let platform = QuotingKey::generate(&mut rng);
//! let mut ias = IasSim::new(&mut rng);
//! ias.register_platform(platform.verifying_key());
//!
//! // The enclave generates its channel key pair inside.
//! let enclave = EnclaveBuilder::new(b"ibbe-admin-enclave-v1")
//!     .build_with(|ctx| ChannelKeyPair::generate(ctx.rng()));
//! let enclave_pk = enclave.ecall(|keys, _| keys.public_key());
//!
//! // 1–3: quote, IAS check, certificate issuance by the Auditor/CA.
//! let auditor = Auditor::new(&mut rng, &ias, enclave.measurement());
//! let quote = platform.quote(
//!     enclave.measurement(),
//!     report_data_for_key(&enclave_pk.to_bytes()),
//! );
//! let cert = auditor.audit(&ias, &quote, &enclave_pk)?;
//!
//! // 4: a user pins the CA, verifies the certificate, and can now encrypt
//! // provisioning material to the enclave.
//! cert.verify(&auditor.ca_verifying_key())?;
//! let msg = cert.enclave_key.encrypt(&mut rng, b"hello enclave", b"");
//! let inside = enclave.ecall(move |keys, _| keys.decrypt(&msg, b""));
//! assert_eq!(inside?, b"hello enclave");
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod auditor;
pub mod bls;
pub mod channel;
pub mod enclave;
pub mod error;
pub mod sealing;

pub use attest::{report_data_for_key, AttestationReport, IasSim, Quote, QuotingKey};
pub use auditor::{Auditor, Certificate};
pub use channel::{ChannelKeyPair, ChannelMessage, ChannelPublicKey};
pub use enclave::{Enclave, EnclaveBuilder, EnclaveContext, Measurement};
pub use error::SgxError;
pub use sealing::SealedBlob;
