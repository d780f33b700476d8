//! The scanning batch planner, kept as the oracle.
//!
//! This is `MembershipBatch::plan` as it stood before it planned from the
//! batch's own identities: it copies the whole roster into two hash sets,
//! replays the batch against them, and scans the roster once more for the
//! net removals. `tests/plan.rs` holds the crate's planner to it, plan for
//! plan and error for error; `SerialEngine` plans with it.

use ibbe_sgx_core::{BatchOp, CoreError, GroupMetadata, MembershipBatch};
use std::collections::HashSet;

/// The coalesced batch: what `BatchPlan`'s accessors report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Plan {
    pub net_added: Vec<String>,
    pub net_removed: Vec<String>,
    pub rotate_gk: bool,
}

pub fn plan(batch: &MembershipBatch, meta: &GroupMetadata) -> Result<Plan, CoreError> {
    let pre: HashSet<&str> = meta.members().collect();
    let mut present: HashSet<String> = meta.members().map(String::from).collect();
    let mut rotate_gk = false;
    for op in batch.ops() {
        match op {
            BatchOp::Add(u) => {
                if !present.insert(u.clone()) {
                    return Err(CoreError::AlreadyMember(u.clone()));
                }
            }
            BatchOp::Remove(u) => {
                if !present.remove(u) {
                    return Err(CoreError::NotAMember(u.clone()));
                }
                if pre.contains(u.as_str()) {
                    rotate_gk = true;
                }
            }
        }
    }
    let mut seen: HashSet<&str> = HashSet::new();
    let mut net_added = Vec::new();
    for op in batch.ops() {
        if let BatchOp::Add(u) = op {
            if present.contains(u) && !pre.contains(u.as_str()) && seen.insert(u) {
                net_added.push(u.clone());
            }
        }
    }
    let net_removed: Vec<String> = meta
        .members()
        .filter(|m| !present.contains(*m))
        .map(String::from)
        .collect();
    Ok(Plan {
        net_added,
        net_removed,
        rotate_gk,
    })
}
