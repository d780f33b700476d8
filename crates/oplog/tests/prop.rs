//! Property suite for the accumulator primitives: proofs generate and
//! verify over arbitrary log lengths (including the 0/1-entry edges),
//! serialized proofs round-trip, and flipping any single byte of a proof,
//! commitment or leaf makes verification reject. Proof *size* is O(log n)
//! as a count: a constant number of bytes per doubling of the log, and at
//! most RFC 6962's `⌈log₂ n⌉ + 1` hashes on any consistency path.

use oplog::{
    consistency_proof, inclusion_proof, leaf_hash, root_at, verify_consistency, verify_inclusion,
    ConsistencyProof, InclusionProof, LogCommitment, MerkleLog, TransitionProof,
};
use proptest::prelude::*;
use std::sync::OnceLock;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(32)
}

fn log_of(n: u64, salt: u8) -> MerkleLog {
    let mut log = MerkleLog::new();
    for i in 0..n {
        log.append_leaf(leaf_hash(&[salt, i as u8, (i >> 8) as u8, b'e']));
    }
    log
}

fn head_at(log: &MerkleLog, size: u64) -> LogCommitment {
    LogCommitment {
        size,
        root: root_at(log, size).expect("in-memory tree is complete"),
    }
}

/// log₂ of the longest log the size tests look at.
const MAX_LOG2: u32 = 16;

/// One 2¹⁶-entry log over synthetic leaf hashes, built once: proof shape
/// depends only on tree geometry, not on entry contents, and every shorter
/// log is a prefix of this one.
fn long_log() -> &'static MerkleLog {
    static LOG: OnceLock<MerkleLog> = OnceLock::new();
    LOG.get_or_init(|| {
        let mut log = MerkleLog::new();
        for i in 0..1u64 << MAX_LOG2 {
            log.append_leaf(leaf_hash(&i.to_be_bytes()));
        }
        log
    })
}

/// O(log n) as a count, not a stopwatch: at 2¹⁰, 2¹², 2¹⁴ and 2¹⁶ entries
/// the serialized consistency proof from a mid-log pin (the client's "I
/// was offline for a while" case) and the single-append transition proof
/// (the auditor's fraud-proof unit) verify, grow by one hash — respectively
/// one hash on each of the transition's two paths — per doubling of the
/// log, and stay far under 4 KiB.
#[test]
fn proof_bytes_grow_by_a_constant_per_doubling_of_the_log() {
    let log = long_log();
    let bytes: Vec<(usize, usize)> = (10..=MAX_LOG2)
        .step_by(2)
        .map(|k| {
            let n = 1u64 << k;
            // `n/2 + 1` keeps the proof geometry uniform across sizes (a
            // power-of-two pin collapses the path to a single hash)
            let pin = n / 2 + 1;
            let consistency = consistency_proof(log, pin, n).expect("complete tree");
            // this pin attains RFC 6962's bound (the property below): one
            // hash more would already be one too many
            assert_eq!(consistency.path.len(), k as usize + 1);
            verify_consistency(&head_at(log, pin), &head_at(log, n), &consistency)
                .expect("honest proof verifies");
            let transition = TransitionProof::build(log, n - 1).expect("complete tree");
            transition.verify().expect("honest transition verifies");
            (consistency.to_bytes().len(), transition.to_bytes().len())
        })
        .collect();
    for pair in bytes.windows(2) {
        // consecutive points are two doublings apart
        assert_eq!(pair[1].0 - pair[0].0, 2 * 32, "consistency: {bytes:?}");
        assert_eq!(pair[1].1 - pair[0].1, 2 * 64, "transition: {bytes:?}");
    }
    let (consistency, transition) = bytes[bytes.len() - 1];
    assert!(consistency < 4096 && transition < 4096, "{bytes:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// RFC 6962's bound: whatever prefix a client pinned, the consistency
    /// path to a head of `new` entries carries at most `⌈log₂ new⌉ + 1`
    /// hashes — one sibling per level of the split, plus the pinned
    /// subtree's own root when the pin is not on a subtree boundary.
    #[test]
    fn a_consistency_path_has_at_most_log2_new_plus_one_hashes(a in 1u64..=1 << MAX_LOG2, b in 1u64..=1 << MAX_LOG2) {
        let (old, new) = (a.min(b), a.max(b));
        let log = long_log();
        let proof = consistency_proof(log, old, new).expect("complete tree");
        let ceil_log2 = new.next_power_of_two().trailing_zeros() as usize;
        prop_assert!(
            proof.path.len() <= ceil_log2 + 1,
            "{old} -> {new}: {} hashes, bound {}", proof.path.len(), ceil_log2 + 1
        );
        prop_assert!(verify_consistency(&head_at(log, old), &head_at(log, new), &proof).is_ok());
    }

    /// Every leaf of every tree size (0/1 edges included via `new <= 1`)
    /// has an inclusion proof that verifies, and the proof survives a
    /// serialization round-trip.
    #[test]
    fn inclusion_roundtrips_and_verifies(size in 0u64..300, salt in any::<u8>(), pick in any::<u64>()) {
        let log = log_of(size, salt);
        prop_assert_eq!(inclusion_proof(&log, size, size).is_none(), true);
        if size == 0 {
            prop_assert_eq!(log.commitment(), LogCommitment::empty());
            return Ok(());
        }
        let index = pick % size;
        let proof = inclusion_proof(&log, index, size).expect("complete source");
        let decoded = InclusionProof::from_bytes(&proof.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&decoded, &proof);
        let leaf = log.leaf(index).unwrap();
        prop_assert!(verify_inclusion(&leaf, &proof, &log.root()).is_ok());
    }

    /// Consistency proofs verify for arbitrary old/new size pairs of the
    /// same history — including old == 0, old == new, and sizes 0/1 —
    /// and round-trip through their wire form.
    #[test]
    fn consistency_roundtrips_and_verifies(new in 0u64..300, cut in any::<u64>(), salt in any::<u8>()) {
        let old = if new == 0 { 0 } else { cut % (new + 1) };
        let log = log_of(new, salt);
        let proof = consistency_proof(&log, old, new).expect("complete source");
        let decoded = ConsistencyProof::from_bytes(&proof.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&decoded, &proof);
        prop_assert!(verify_consistency(&head_at(&log, old), &head_at(&log, new), &proof).is_ok());
    }

    /// Flipping any single byte of a serialized consistency proof, of the
    /// old commitment, or of the new commitment makes verification fail —
    /// there is no bit of slack in the encoding.
    #[test]
    fn tampered_consistency_rejects(new in 2u64..200, cut in any::<u64>(), byte in any::<usize>(), bit in 0u8..8, salt in any::<u8>()) {
        let old = 1 + cut % (new - 1); // 0 < old < new: the non-structural path
        let log = log_of(new, salt);
        let proof = consistency_proof(&log, old, new).expect("complete source");
        let old_head = head_at(&log, old);
        let new_head = head_at(&log, new);

        let mut wire = proof.to_bytes();
        let at = byte % wire.len();
        wire[at] ^= 1 << bit;
        match ConsistencyProof::from_bytes(&wire) {
            // A flip in a length field usually breaks framing outright.
            Err(_) => {}
            Ok(mangled) => {
                prop_assert!(
                    verify_consistency(&old_head, &new_head, &mangled).is_err(),
                    "flipped bit {bit} of byte {at} still verifies"
                );
            }
        }

        let mut bad_old = old_head;
        bad_old.root[byte % 32] ^= 1 << bit;
        prop_assert!(verify_consistency(&bad_old, &new_head, &proof).is_err());
        let mut bad_new = new_head;
        bad_new.root[byte % 32] ^= 1 << bit;
        prop_assert!(verify_consistency(&old_head, &bad_new, &proof).is_err());
    }

    /// Same single-byte-flip property for inclusion proofs and the leaf.
    #[test]
    fn tampered_inclusion_rejects(size in 1u64..200, pick in any::<u64>(), byte in any::<usize>(), bit in 0u8..8, salt in any::<u8>()) {
        let log = log_of(size, salt);
        let index = pick % size;
        let proof = inclusion_proof(&log, index, size).expect("complete source");
        let leaf = log.leaf(index).unwrap();
        let root = log.root();

        let mut wire = proof.to_bytes();
        let at = byte % wire.len();
        wire[at] ^= 1 << bit;
        match InclusionProof::from_bytes(&wire) {
            Err(_) => {}
            Ok(mangled) => {
                prop_assert!(
                    verify_inclusion(&leaf, &mangled, &root).is_err(),
                    "flipped bit {bit} of byte {at} still verifies"
                );
            }
        }

        let mut bad_leaf = leaf;
        bad_leaf[byte % 32] ^= 1 << bit;
        prop_assert!(verify_inclusion(&bad_leaf, &proof, &root).is_err());
    }

    /// Transition proofs replay at every size, round-trip, and reject any
    /// single-byte tamper of their wire form.
    #[test]
    fn transitions_replay_and_tampers_reject(pre in 0u64..200, byte in any::<usize>(), bit in 0u8..8, salt in any::<u8>()) {
        let log = log_of(pre + 1, salt);
        let proof = TransitionProof::build(&log, pre).expect("complete source");
        prop_assert!(proof.verify().is_ok());
        let decoded = TransitionProof::from_bytes(&proof.to_bytes()).expect("roundtrip");
        prop_assert_eq!(&decoded, &proof);

        let mut wire = proof.to_bytes();
        let at = byte % wire.len();
        wire[at] ^= 1 << bit;
        match TransitionProof::from_bytes(&wire) {
            Err(_) => {}
            Ok(mangled) => {
                prop_assert!(
                    mangled.verify().is_err(),
                    "flipped bit {bit} of byte {at} still replays"
                );
            }
        }
    }

    /// Cross-history consistency never verifies: two logs that share no
    /// suffix past the fork point are mutually non-extending.
    #[test]
    fn forked_histories_reject(shared in 0u64..60, a_tail in 1u64..40, b_tail in 1u64..40) {
        let mut a = log_of(shared, 1);
        let mut b = log_of(shared, 1);
        for i in 0..a_tail {
            a.append_leaf(leaf_hash(&[b'a', i as u8]));
        }
        for i in 0..b_tail {
            b.append_leaf(leaf_hash(&[b'b', i as u8]));
        }
        // A proof generated from b's tree, claiming b extends a's head.
        let proof = consistency_proof(&b, a.size(), b.size());
        if let Some(proof) = proof {
            // Generation only succeeds when a.size() <= b.size(); the
            // verification must still reject the forged lineage.
            prop_assert!(
                verify_consistency(&a.commitment(), &b.commitment(), &proof).is_err(),
                "fork at {shared} with tails {a_tail}/{b_tail} verified"
            );
        }
    }
}
