//! HMAC-DRBG (NIST SP 800-90A) over SHA-256, with a [`rand::RngCore`]
//! adapter so the deterministic generator can drive any rand-based API.
//!
//! Used by the enclave simulator for reproducible in-enclave randomness and
//! by the benchmark harness for seeded workloads.

use crate::hmac::hmac_sha256;

/// Deterministic random bit generator (HMAC-SHA256 construction).
#[derive(Clone)]
pub struct HmacDrbg {
    k: [u8; 32],
    v: [u8; 32],
    reseed_counter: u64,
}

impl HmacDrbg {
    /// Instantiates from seed material (entropy ‖ nonce ‖ personalization).
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = Self {
            k: [0u8; 32],
            v: [1u8; 32],
            reseed_counter: 1,
        };
        drbg.update(Some(seed));
        drbg
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let mut data = Vec::with_capacity(33 + provided.map_or(0, |p| p.len()));
        data.extend_from_slice(&self.v);
        data.push(0x00);
        if let Some(p) = provided {
            data.extend_from_slice(p);
        }
        self.k = hmac_sha256(&self.k, &data);
        self.v = hmac_sha256(&self.k, &self.v);
        if let Some(p) = provided {
            let mut data = Vec::with_capacity(33 + p.len());
            data.extend_from_slice(&self.v);
            data.push(0x01);
            data.extend_from_slice(p);
            self.k = hmac_sha256(&self.k, &data);
            self.v = hmac_sha256(&self.k, &self.v);
        }
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn generate(&mut self, out: &mut [u8]) {
        let mut filled = 0;
        while filled < out.len() {
            self.v = hmac_sha256(&self.k, &self.v);
            let take = (out.len() - filled).min(32);
            out[filled..filled + take].copy_from_slice(&self.v[..take]);
            filled += take;
        }
        self.update(None);
        self.reseed_counter += 1;
    }
}

impl core::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HmacDrbg(reseed_counter={})", self.reseed_counter)
    }
}

impl rand::RngCore for HmacDrbg {
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.generate(&mut b);
        u32::from_le_bytes(b)
    }

    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.generate(&mut b);
        u64::from_le_bytes(b)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.generate(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.generate(dest);
        Ok(())
    }
}

impl rand::CryptoRng for HmacDrbg {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"seed material");
        let mut b = HmacDrbg::new(b"seed material");
        let mut x = [0u8; 64];
        let mut y = [0u8; 64];
        a.generate(&mut x);
        b.generate(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed 1");
        let mut b = HmacDrbg::new(b"seed 2");
        let mut x = [0u8; 32];
        let mut y = [0u8; 32];
        a.generate(&mut x);
        b.generate(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn successive_outputs_differ() {
        let mut a = HmacDrbg::new(b"seed");
        let mut x = [0u8; 32];
        let mut y = [0u8; 32];
        a.generate(&mut x);
        a.generate(&mut y);
        assert_ne!(x, y);
    }

    #[test]
    fn rngcore_adapter_works() {
        let mut a = HmacDrbg::new(b"rng");
        let v1 = a.next_u64();
        let v2 = a.next_u64();
        assert_ne!(v1, v2);
        let mut buf = [0u8; 7];
        a.fill_bytes(&mut buf);
    }

    #[test]
    fn long_generate_spans_blocks() {
        let mut a = HmacDrbg::new(b"long");
        let mut out = [0u8; 100];
        a.generate(&mut out);
        assert!(out.iter().any(|&b| b != 0));
    }
}
