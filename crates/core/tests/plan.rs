//! The batch planner against the scanning oracle.
//!
//! `MembershipBatch::plan` reads the roster once, looking each member up
//! among the batch's own identities. `reference::plan::plan` is the planner
//! it replaced, which copies the whole roster into hash sets. On any roster
//! and any batch the two must agree: the same net additions, the same net
//! removals in the same partition order, the same rotation flag — or the
//! same error at the same operation. Rosters here may name an identity
//! twice, which no engine produces and a planner must still not misread.

#[path = "reference/plan.rs"]
mod oracle;

use ibbe_sgx_core::{
    CoreError, GroupEngine, GroupMetadata, MembershipBatch, PartitionMetadata, PartitionSize,
};
use oracle::Plan;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Identities the rosters draw from; the batches also name two outsiders.
const POOL: u8 = 10;

fn id(i: u8) -> String {
    format!("u{i}")
}

/// A group with the given member lists. Planning reads member lists only,
/// so every partition reuses one real group's ciphertext.
fn roster(partitions: &[Vec<u8>]) -> GroupMetadata {
    static GROUP: OnceLock<GroupMetadata> = OnceLock::new();
    let mut meta = GROUP
        .get_or_init(|| {
            let engine =
                GroupEngine::bootstrap_seeded(PartitionSize::new(2).unwrap(), [7; 32]).unwrap();
            engine.create_group("g", vec![id(0)]).unwrap()
        })
        .clone();
    let template = meta.partitions[0].clone();
    meta.partitions = partitions
        .iter()
        .map(|members| PartitionMetadata {
            members: members.iter().map(|&i| id(i)).collect(),
            ..template.clone()
        })
        .collect();
    meta
}

/// Turns raw draws into ops that mostly follow the sequential schedule — a
/// remove picks a current member, an add an absent identity — so batches
/// run long; one draw in eight is taken verbatim, so repeated adds and
/// absent removes still occur.
fn steer(partitions: &[Vec<u8>], draws: &[(u8, u8)]) -> Vec<(bool, u8)> {
    let mut present: Vec<u8> = partitions.concat();
    present.sort_unstable();
    present.dedup();
    let mut ops = Vec::with_capacity(draws.len());
    for &(kind, sel) in draws {
        let absent: Vec<u8> = (0..POOL + 2).filter(|i| !present.contains(i)).collect();
        let op = match kind % 8 {
            0 => (sel & 1 == 1, sel % (POOL + 2)),
            k if k % 2 == 1 && !present.is_empty() => {
                (REMOVE, present[sel as usize % present.len()])
            }
            _ if !absent.is_empty() => (ADD, absent[sel as usize % absent.len()]),
            _ => (ADD, sel % (POOL + 2)),
        };
        match op {
            (REMOVE, i) => present.retain(|&p| p != i),
            (_, i) if !present.contains(&i) => present.push(i),
            _ => {}
        }
        ops.push(op);
    }
    ops
}

fn batch(ops: &[(bool, u8)]) -> MembershipBatch {
    let mut batch = MembershipBatch::new();
    for &(is_remove, i) in ops {
        if is_remove {
            batch.remove(id(i))
        } else {
            batch.add(id(i))
        };
    }
    batch
}

/// The crate's plan in the oracle's shape.
fn planned(batch: &MembershipBatch, meta: &GroupMetadata) -> Result<Plan, CoreError> {
    batch.plan(meta).map(|plan| Plan {
        net_added: plan.net_added().to_vec(),
        net_removed: plan.net_removed().to_vec(),
        rotate_gk: plan.rotates_gk(),
    })
}

/// Checks the planner against the oracle and returns their common answer.
fn agreed(partitions: &[Vec<u8>], ops: &[(bool, u8)]) -> Result<Plan, CoreError> {
    let (meta, batch) = (roster(partitions), batch(ops));
    let want = oracle::plan(&batch, &meta);
    assert_eq!(
        planned(&batch, &meta),
        want,
        "roster {partitions:?}, ops {ops:?}"
    );
    want
}

fn ids(is: &[u8]) -> Vec<String> {
    is.iter().map(|&i| id(i)).collect()
}

const ADD: bool = false;
const REMOVE: bool = true;

#[test]
fn add_remove_readd_within_one_batch() {
    // an outsider added, removed and added again joins once, no rotation
    let plan = agreed(&[vec![0, 1]], &[(ADD, 5), (REMOVE, 5), (ADD, 5)]).unwrap();
    assert_eq!(
        (plan.net_added, plan.net_removed, plan.rotate_gk),
        (ids(&[5]), vec![], false)
    );
    // a member removed and re-added stays, but the batch still rotates
    let plan = agreed(&[vec![0, 1]], &[(REMOVE, 1), (ADD, 1)]).unwrap();
    assert_eq!(
        (plan.net_added, plan.net_removed, plan.rotate_gk),
        (vec![], vec![], true)
    );
    // … and removed once more, it is a net removal
    let plan = agreed(&[vec![0, 1]], &[(REMOVE, 1), (ADD, 1), (REMOVE, 1)]).unwrap();
    assert_eq!(
        (plan.net_added, plan.net_removed, plan.rotate_gk),
        (vec![], ids(&[1]), true)
    );
}

#[test]
fn repeated_add_is_rejected_at_the_second_add() {
    let err = agreed(&[vec![0]], &[(ADD, 5), (ADD, 6), (ADD, 5)]).unwrap_err();
    assert_eq!(err, CoreError::AlreadyMember(id(5)));
    let err = agreed(&[vec![0]], &[(ADD, 0)]).unwrap_err();
    assert_eq!(err, CoreError::AlreadyMember(id(0)));
}

#[test]
fn removing_an_absent_identity_is_rejected() {
    let err = agreed(&[vec![0, 1]], &[(REMOVE, 0), (REMOVE, 7)]).unwrap_err();
    assert_eq!(err, CoreError::NotAMember(id(7)));
    let err = agreed(&[vec![0, 1]], &[(REMOVE, 0), (REMOVE, 0)]).unwrap_err();
    assert_eq!(err, CoreError::NotAMember(id(0)));
}

#[test]
fn a_roster_naming_an_identity_twice_loses_both_seats() {
    let roster = [vec![3, 1], vec![2], vec![1, 4, 1]];
    let plan = agreed(&roster, &[(REMOVE, 4), (REMOVE, 1)]).unwrap();
    assert_eq!(plan.net_removed, ids(&[1, 1, 4, 1]));
    assert_eq!(
        agreed(&roster, &[(ADD, 1)]),
        Err(CoreError::AlreadyMember(id(1)))
    );
}

#[test]
fn net_removals_come_in_partition_order_not_batch_order() {
    let plan = agreed(
        &[vec![9, 2], vec![0, 5]],
        &[(REMOVE, 0), (REMOVE, 2), (REMOVE, 9)],
    )
    .unwrap();
    assert_eq!(plan.net_removed, ids(&[9, 2, 0]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_matches_the_scanning_oracle(
        partitions in proptest::collection::vec(proptest::collection::vec(0..POOL, 0..=5), 0..=4),
        draws in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..=10),
    ) {
        // `agreed` asserts; a mismatch fails the case with both plans
        let _ = agreed(&partitions, &steer(&partitions, &draws));
    }
}
