//! Parallel equals serial, by bytes.
//!
//! `GroupEngine` draws all of an operation's randomness first and then
//! spreads the per-partition exponentiations over the enclave's threads;
//! `reference::SerialEngine` is the engine as it was before that, one
//! partition at a time on one thread. Booted from the same seed the two must
//! publish identical bytes after every operation — however many threads the
//! host gives the first (run under `taskset -c 0` it is one, and this file
//! passes unchanged).

mod reference;

use ibbe_sgx_core::{
    client_decrypt_group_key, CoreError, GroupEngine, GroupMetadata, MembershipBatch, PartitionSize,
};
use proptest::prelude::*;
use reference::SerialEngine;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

fn engines(partition: usize, seed: u64) -> (GroupEngine, SerialEngine) {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    (
        GroupEngine::bootstrap_seeded(PartitionSize::new(partition).unwrap(), bytes).unwrap(),
        SerialEngine::bootstrap_seeded(partition, bytes),
    )
}

fn names(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
    range.map(|i| format!("{prefix}{i:04}")).collect()
}

/// Everything an engine publishes or persists for a group.
fn published(meta: &GroupMetadata) -> (Vec<Vec<u8>>, &sgx_sim::SealedBlob, Vec<u8>, u64) {
    (
        meta.partitions.iter().map(|p| p.to_bytes()).collect(),
        &meta.sealed_gk,
        meta.key_history.to_bytes(),
        meta.epoch,
    )
}

proptest! {
    #[test]
    fn the_engine_publishes_the_serial_oracles_bytes(
        seed: u64,
        partition in 1usize..=64,
        spread: u64,
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 3..=4),
    ) {
        // 1–600 members, in at most ten partitions so a case stays cheap
        let members = 1 + spread as usize % (10 * partition).min(600);
        let (engine, oracle) = engines(partition, seed);
        let mut ours = engine.create_group("g", names("m", 0..members)).unwrap();
        let mut theirs = oracle.create_group("g", names("m", 0..members)).unwrap();
        prop_assert!(published(&ours) == published(&theirs), "create_group");

        let mut fresh = 0;
        for (kind, salt) in ops {
            let salt = salt as usize;
            let label = match kind {
                // a pure-add batch, large enough to overflow into new partitions
                0 => {
                    let mut batch = MembershipBatch::new();
                    for user in names("a", fresh..fresh + 1 + salt % (partition + 2)) {
                        batch.add(user);
                        fresh += 1;
                    }
                    prop_assert_eq!(
                        engine.apply_batch(&mut ours, &batch).map(|_| ()),
                        oracle.apply_batch(&mut theirs, &batch)
                    );
                    "add batch"
                }
                // a revoking batch whose additions may exceed the freed slots
                1 => {
                    let current: Vec<String> = theirs.members().map(String::from).collect();
                    let victims: BTreeSet<&String> = (0..1 + salt % 3)
                        .map(|i| &current[(salt / 7 + i * 31) % current.len()])
                        .collect();
                    let mut batch = MembershipBatch::new();
                    for victim in victims {
                        batch.remove(victim.clone());
                    }
                    for user in names("a", fresh..fresh + (salt / 1000) % (partition + 2)) {
                        batch.add(user);
                        fresh += 1;
                    }
                    prop_assert_eq!(
                        engine.apply_batch(&mut ours, &batch).map(|_| ()),
                        oracle.apply_batch(&mut theirs, &batch)
                    );
                    "revoking batch"
                }
                2 => {
                    prop_assert_eq!(engine.rekey_group(&mut ours), oracle.rekey_group(&mut theirs));
                    "rekey_group"
                }
                _ => {
                    match (engine.repartition(&ours), oracle.repartition(&theirs)) {
                        (Ok(a), Ok(b)) => (ours, theirs) = (a, b),
                        (a, b) => prop_assert_eq!(a.err(), b.err()),
                    }
                    "repartition"
                }
            };
            prop_assert!(published(&ours) == published(&theirs), "{}", label);
            if theirs.member_count() == 0 {
                return Ok(()); // the batch revoked the last member
            }
        }

        // a member holding the engine's key opens the oracle's metadata
        let member = theirs.members().nth(spread as usize % theirs.member_count()).unwrap().to_string();
        let usk = engine.extract_user_key(&member).unwrap();
        let gk = client_decrypt_group_key(engine.public_key(), &usk, &member, &theirs);
        prop_assert!(gk.is_ok());
        prop_assert_eq!(gk, client_decrypt_group_key(engine.public_key(), &usk, &member, &ours));
    }
}

#[test]
fn a_rejected_set_costs_both_engines_the_same_randomness() {
    let (engine, oracle) = engines(4, 99);
    // the duplicate sits in the third partition: two were drawn for already
    let mut members = names("m", 0..14);
    members[10] = members[9].clone();
    let expected = CoreError::Ibbe(ibbe::IbbeError::DuplicateIdentity(members[9].clone()));
    assert_eq!(
        engine.create_group("g", members.clone()).err(),
        Some(expected.clone())
    );
    assert_eq!(oracle.create_group("g", members).err(), Some(expected));
    let ours = engine.create_group("g", names("m", 0..14)).unwrap();
    let theirs = oracle.create_group("g", names("m", 0..14)).unwrap();
    assert!(published(&ours) == published(&theirs));
}

#[test]
fn every_rotation_opens_one_rekey_span_per_partition_on_the_ops_request_id() {
    let collector = Arc::new(telemetry::Collector::new());
    let _installed = telemetry::install(collector.clone());
    // the helper's thread budget: the chunks it makes of plentiful work
    let threads = exec::map_chunks(&[(); 64], 1, <[()]>::len).len();

    let (engine, _) = engines(4, 5);
    let mut meta = engine.create_group("g", names("m", 0..20)).unwrap();
    assert_eq!(meta.partition_count(), 5);
    type Rotation = fn(&GroupEngine, &mut GroupMetadata);
    let rotations: [Rotation; 2] = [
        |engine, meta| {
            engine.remove_user(meta, "m0007").unwrap();
        },
        |engine, meta| engine.rekey_group(meta).unwrap(),
    ];
    for rotate in rotations {
        let scope = telemetry::request_scope();
        rotate(&engine, &mut meta);
        // other tests of this binary emit spans too, under other ids
        let spans: Vec<_> = collector
            .spans()
            .into_iter()
            .filter(|s| s.name == "enclave.rekey" && s.rid == scope.id())
            .collect();
        let mut partitions: Vec<u64> = spans
            .iter()
            .map(|s| s.field("partition").and_then(|v| v.as_u64()).unwrap())
            .collect();
        partitions.sort_unstable();
        assert_eq!(partitions, [0, 1, 2, 3, 4]);
        for span in &spans {
            assert_eq!(
                span.field("epoch").and_then(|v| v.as_u64()),
                Some(meta.epoch)
            );
            assert!(span.field("members").is_some());
        }
        let tids: HashSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert!(
            tids.len() <= threads,
            "{} tids on {threads} threads",
            tids.len()
        );
    }
}

#[test]
fn a_panicking_worker_unwinds_the_ecall_and_the_enclave_serves_the_next() {
    let enclave = sgx_sim::EnclaveBuilder::new(b"fan-out-panic")
        .deterministic_seed([3u8; 32])
        .build_with(|_| 0u32);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        enclave.ecall(|count, _ctx| {
            *count += 1;
            exec::map_chunks(&[0u32, 1, 2, 3], 1, |chunk| {
                assert!(!chunk.contains(&3), "injected worker panic");
            });
        })
    }));
    assert!(unwound.is_err());
    // the enclave's lock does not poison: state is as the panic left it
    assert_eq!(enclave.ecall(|count, _ctx| *count), 1);
}
