//! The output oracle: seed-derived payloads whose expected bytes can be
//! recomputed at any time, and the attempted/failed tally every workload
//! reports. A wrong plaintext, an unexpected error, or a failed end-state
//! check is a failed op.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// How many failures are kept verbatim for the report.
const NOTES_KEPT: usize = 8;

/// Counts attempted and failed operations.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `what` is only rendered for a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < NOTES_KEPT {
                self.notes.push(what());
            }
        }
    }

    /// Counts an operation that must succeed, passing its value through.
    pub fn expect_ok<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts a read: it must succeed and return generation `gen` of
    /// `object`.
    pub fn check_read<E: std::fmt::Display>(
        &mut self,
        payloads: &Payloads,
        object: u32,
        gen: u32,
        result: Result<Vec<u8>, E>,
    ) {
        match result {
            Ok(bytes) => self.check(payloads.matches(object, gen, &bytes), || {
                format!("read of object {object} did not return generation {gen}")
            }),
            Err(e) => self.check(false, || format!("read of object {object}: {e}")),
        }
    }

    /// The first few failures, for the report.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Slack the payload window slides over.
const POOL_SLACK: usize = 4096;
/// Bytes of `(object, generation)` stamped at the start of every payload.
const HEADER: usize = 8;

/// Seed-derived payloads: generation `gen` of object `object` is a window
/// into one random pool, stamped with `(object, gen)`. Writers and the
/// oracle recompute it instead of keeping copies.
pub struct Payloads {
    pool: Vec<u8>,
    len: usize,
}

impl Payloads {
    /// Payloads of `len` bytes (at least 8) drawn from `seed`.
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len >= HEADER, "a payload carries an 8-byte stamp");
        let mut pool = vec![0u8; len + POOL_SLACK];
        StdRng::seed_from_u64(seed).fill_bytes(&mut pool);
        Self { pool, len }
    }

    fn offset(object: u32, gen: u32) -> usize {
        let mixed = (u64::from(object) << 32 | u64::from(gen)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> 40) as usize % POOL_SLACK
    }

    /// Writes generation `gen` of `object` into `out`.
    pub fn fill(&self, object: u32, gen: u32, out: &mut Vec<u8>) {
        let off = Self::offset(object, gen);
        out.clear();
        out.extend_from_slice(&self.pool[off..off + self.len]);
        out[..4].copy_from_slice(&object.to_le_bytes());
        out[4..HEADER].copy_from_slice(&gen.to_le_bytes());
    }

    /// True if `bytes` is exactly generation `gen` of `object`.
    pub fn matches(&self, object: u32, gen: u32, bytes: &[u8]) -> bool {
        let off = Self::offset(object, gen);
        bytes.len() == self.len
            && bytes[..4] == object.to_le_bytes()
            && bytes[4..HEADER] == gen.to_le_bytes()
            && bytes[HEADER..] == self.pool[off + HEADER..off + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibbe_sgx::acs::Admin;
    use ibbe_sgx::cloud::CloudStore;
    use ibbe_sgx::core::{GroupEngine, PartitionSize};
    use ibbe_sgx::dataplane::{data_folder, ClientSession};

    #[test]
    fn payloads_are_recomputable_and_distinct() {
        let p = Payloads::new(7, 512);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.fill(3, 1, &mut a);
        p.fill(3, 2, &mut b);
        assert_eq!(a.len(), 512);
        assert_ne!(a, b);
        assert!(p.matches(3, 1, &a) && p.matches(3, 2, &b));
        assert!(!p.matches(3, 2, &a) && !p.matches(4, 1, &a));
        assert!(
            !Payloads::new(8, 512).matches(3, 1, &a),
            "another seed, other bytes"
        );
    }

    /// The oracle must fail a run whose payload the store changed between
    /// the write and the read: once by a flipped ciphertext byte (the read
    /// errors), once by a rollback to an older valid object (the read
    /// succeeds with the wrong generation).
    #[test]
    fn a_payload_corrupted_in_the_store_is_a_failed_op() {
        let store = CloudStore::new();
        let engine =
            GroupEngine::bootstrap_seeded(PartitionSize::new(4).unwrap(), [3u8; 32]).unwrap();
        let admin = Admin::new(engine, store.clone());
        admin
            .create_group("g", vec!["alice".into(), "bob".into()])
            .unwrap();
        let usk = admin.engine().extract_user_key("alice").unwrap();
        let pk = admin.engine().public_key().clone();
        let mut alice = ClientSession::with_seed("alice", usk, pk, store.clone(), "g", 1);

        let payloads = Payloads::new(11, 256);
        let mut buf = Vec::new();
        payloads.fill(0, 1, &mut buf);
        alice.write("o", &buf).unwrap();
        let (generation_1, _) = store.get(&data_folder("g"), "o").unwrap();
        payloads.fill(0, 2, &mut buf);
        alice.write("o", &buf).unwrap();

        let mut tally = Tally::default();
        tally.check_read(&payloads, 0, 2, alice.read("o"));
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "an honest store passes"
        );

        let (mut tampered, _) = store
            .get(&data_folder("g"), "o")
            .map(|(b, v)| (b.to_vec(), v))
            .unwrap();
        *tampered.last_mut().unwrap() ^= 1;
        store.put(&data_folder("g"), "o", tampered);
        tally.check_read(&payloads, 0, 2, alice.read("o"));
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 1),
            "a flipped byte fails the op"
        );

        store.put(&data_folder("g"), "o", generation_1);
        tally.check_read(&payloads, 0, 2, alice.read("o"));
        assert_eq!(
            (tally.attempted, tally.failed),
            (3, 2),
            "a rollback fails the op"
        );
        assert_eq!(tally.notes().len(), 2);
    }
}
