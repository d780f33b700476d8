//! The simulated enclave runtime.
//!
//! [`Enclave<T>`] hosts private state `T` that is reachable **only** through
//! [`Enclave::ecall`], mirroring the hardware property that enclave memory
//! is inaccessible from outside. The confinement is a type-system property
//! in this simulation: the field is private, no accessor leaks `&T`, and all
//! entry points execute inside the enclave context which also provides
//! in-enclave randomness and sealing.
//!
//! The paper's "zero knowledge" guarantee for administrators maps exactly to
//! this boundary: the admin process only ever observes ecall return values,
//! which the IBBE-SGX enclave code restricts to ciphertexts and sealed blobs.
//!
//! **Threads.** One thread at a time is inside [`Enclave::ecall`] (the
//! state sits behind one lock) and only that thread holds the
//! [`EnclaveContext`]: randomness, sealing and unsealing happen on it and
//! nowhere else. An ecall may still fan *pure* work — a function of values
//! it has already drawn or unsealed — out over as many in-enclave threads as
//! the host has cores, the simulation's stand-in for the enclave's further
//! TCS slots: scoped threads (`exec::map_chunks`) that borrow from the
//! ecall's frame and are joined before it returns, so nothing a worker
//! touches outlives the closure or leaves the boundary except through the
//! ecall's own return value. The lock does not poison: a worker's panic
//! unwinds the ecall and the next one is served.

use crate::sealing::{seal_with_key, unseal_with_key, SealedBlob, SealingKey};
use crate::SgxError;
use parking_lot::Mutex;
use symcrypto::drbg::HmacDrbg;
use symcrypto::sha256::Sha256;

/// An enclave measurement (MRENCLAVE): the SHA-256 digest of the enclave's
/// code identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Computes the measurement of a code identity (name + version + config).
    pub fn of(code_identity: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(b"sgx-sim-measurement-v1");
        h.update(code_identity);
        Self(h.finalize())
    }
}

impl core::fmt::Debug for Measurement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Measurement(")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

/// Execution context passed to enclave entry points; provides the in-enclave
/// services (randomness, sealing, identity).
pub struct EnclaveContext<'a> {
    measurement: Measurement,
    sealing_key: &'a SealingKey,
    drbg: &'a mut HmacDrbg,
}

impl<'a> EnclaveContext<'a> {
    /// This enclave's measurement.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// In-enclave cryptographically secure RNG.
    pub fn rng(&mut self) -> &mut HmacDrbg {
        self.drbg
    }

    /// Seals data so only this enclave identity can recover it
    /// (MRENCLAVE policy).
    pub fn seal(&mut self, plaintext: &[u8], aad: &[u8]) -> SealedBlob {
        seal_with_key(
            self.sealing_key,
            self.measurement,
            plaintext,
            aad,
            self.drbg,
        )
    }

    /// Unseals a blob previously produced by [`EnclaveContext::seal`] for the
    /// same enclave identity.
    ///
    /// # Errors
    /// [`SgxError::UnsealFailed`] if authentication fails or the blob was
    /// sealed by a different measurement.
    pub fn unseal(&self, blob: &SealedBlob, aad: &[u8]) -> Result<Vec<u8>, SgxError> {
        unseal_with_key(self.sealing_key, self.measurement, blob, aad)
    }
}

struct Inner<T> {
    state: T,
    drbg: HmacDrbg,
}

/// A simulated SGX enclave hosting private state `T`.
///
/// ```
/// use sgx_sim::{Enclave, EnclaveBuilder};
/// let enclave: Enclave<u64> = EnclaveBuilder::new(b"counter-enclave-v1")
///     .build_with(|_ctx| 0u64);
/// let value = enclave.ecall(|count, _ctx| { *count += 1; *count });
/// assert_eq!(value, 1);
/// // `enclave.state` is private: the count can only be observed through
/// // whatever the ecall interface chooses to return.
/// ```
pub struct Enclave<T> {
    inner: Mutex<Inner<T>>,
    measurement: Measurement,
    sealing_key: SealingKey,
}

/// Builder for [`Enclave`].
#[derive(Debug)]
pub struct EnclaveBuilder {
    code_identity: Vec<u8>,
    seed: Option<[u8; 32]>,
}

impl EnclaveBuilder {
    /// Starts building an enclave for the given code identity. The identity
    /// determines the measurement, and therefore sealing and attestation.
    pub fn new(code_identity: &[u8]) -> Self {
        Self {
            code_identity: code_identity.to_vec(),
            seed: None,
        }
    }

    /// Seeds the in-enclave DRBG deterministically (tests and reproducible
    /// benchmarks only; by default the DRBG is seeded from the OS).
    pub fn deterministic_seed(mut self, seed: [u8; 32]) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Launches the enclave, running `init` inside it to produce the initial
    /// private state.
    pub fn build_with<T>(self, init: impl FnOnce(&mut EnclaveContext<'_>) -> T) -> Enclave<T> {
        let measurement = Measurement::of(&self.code_identity);
        let seed = self.seed.unwrap_or_else(|| {
            let mut s = [0u8; 32];
            rand::RngCore::fill_bytes(&mut rand::thread_rng(), &mut s);
            s
        });
        let mut seed_material = Vec::with_capacity(64);
        seed_material.extend_from_slice(&seed);
        seed_material.extend_from_slice(&measurement.0);
        let mut drbg = HmacDrbg::new(&seed_material);
        let sealing_key = SealingKey::derive_for_platform(measurement);
        let state = {
            let mut ctx = EnclaveContext {
                measurement,
                sealing_key: &sealing_key,
                drbg: &mut drbg,
            };
            init(&mut ctx)
        };
        Enclave {
            inner: Mutex::new(Inner { state, drbg }),
            measurement,
            sealing_key,
        }
    }
}

impl<T> Enclave<T> {
    /// The enclave's measurement (public).
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Enters the enclave: runs `f` against the private state with access to
    /// in-enclave services, returning whatever the enclave code chooses to
    /// expose.
    pub fn ecall<R>(&self, f: impl FnOnce(&mut T, &mut EnclaveContext<'_>) -> R) -> R {
        let mut inner = self.inner.lock();
        let Inner { state, drbg } = &mut *inner;
        let mut ctx = EnclaveContext {
            measurement: self.measurement,
            sealing_key: &self.sealing_key,
            drbg,
        };
        f(state, &mut ctx)
    }
}

impl<T> core::fmt::Debug for Enclave<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Enclave({:?}, state=<opaque>)", self.measurement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_enclave() -> Enclave<Vec<u8>> {
        EnclaveBuilder::new(b"test-enclave")
            .deterministic_seed([7u8; 32])
            .build_with(|_| b"secret".to_vec())
    }

    #[test]
    fn measurement_is_stable_and_identity_dependent() {
        let a = Measurement::of(b"enclave-a");
        let b = Measurement::of(b"enclave-a");
        let c = Measurement::of(b"enclave-b");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ecall_sees_state_and_context() {
        let e = test_enclave();
        let m = e.measurement();
        let got = e.ecall(|state, ctx| {
            assert_eq!(ctx.measurement(), m);
            state.clone()
        });
        assert_eq!(got, b"secret");
    }

    #[test]
    fn seal_unseal_roundtrip_same_enclave() {
        let e = test_enclave();
        let blob = e.ecall(|_, ctx| ctx.seal(b"gk", b"aad"));
        let pt = e.ecall(|_, ctx| ctx.unseal(&blob, b"aad")).unwrap();
        assert_eq!(pt, b"gk");
    }

    #[test]
    fn unseal_fails_across_enclave_identities() {
        let e1 = test_enclave();
        let e2 = EnclaveBuilder::new(b"other-enclave")
            .deterministic_seed([7u8; 32])
            .build_with(|_| ());
        let blob = e1.ecall(|_, ctx| ctx.seal(b"gk", b""));
        let res = e2.ecall(|_, ctx| ctx.unseal(&blob, b""));
        assert_eq!(res, Err(SgxError::UnsealFailed));
    }

    #[test]
    fn unseal_fails_with_wrong_aad() {
        let e = test_enclave();
        let blob = e.ecall(|_, ctx| ctx.seal(b"gk", b"right"));
        let res = e.ecall(|_, ctx| ctx.unseal(&blob, b"wrong"));
        assert_eq!(res, Err(SgxError::UnsealFailed));
    }

    #[test]
    fn deterministic_seed_gives_deterministic_rng() {
        let mk = || {
            EnclaveBuilder::new(b"det")
                .deterministic_seed([1u8; 32])
                .build_with(|ctx| {
                    let mut b = [0u8; 16];
                    ctx.rng().generate(&mut b);
                    b
                })
        };
        let a = mk().ecall(|s, _| *s);
        let b = mk().ecall(|s, _| *s);
        assert_eq!(a, b);
    }

    #[test]
    fn state_mutation_persists_across_ecalls() {
        let e = EnclaveBuilder::new(b"ctr").build_with(|_| 0u32);
        e.ecall(|c, _| *c += 5);
        e.ecall(|c, _| *c += 1);
        assert_eq!(e.ecall(|c, _| *c), 6);
    }
}
