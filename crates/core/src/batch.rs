//! Batched membership pipeline (admin-side cost optimization, paper §VIII).
//!
//! The paper's Algorithm 3 re-keys *every* surviving partition on *every*
//! revocation, so a burst of `k` removals over a group with `|P|` partitions
//! costs `k × |P|` re-keys and as many cloud PUTs. [`MembershipBatch`]
//! coalesces a sequence of add/remove operations into one net per-partition
//! delta that [`crate::GroupEngine::apply_batch`] applies atomically:
//!
//! * **invariant** — a batch containing at least one revocation of an
//!   existing member performs **exactly one IBBE re-key per surviving
//!   partition**, regardless of how many operations the batch holds;
//! * a pure-add batch performs **zero** re-keys (`gk` is unchanged, exactly
//!   like the sequential Algorithm 2 fast path) and packs overflowing users
//!   into full-size new partitions instead of one partition per add;
//! * users added and removed within the same batch never appear in any
//!   published ciphertext — the intermediate states of the sequential
//!   schedule are never materialized.
//!
//! The single-operation [`crate::GroupEngine::add_user`] /
//! [`crate::GroupEngine::remove_user`] entry points are thin wrappers around
//! one-element batches, so every membership mutation funnels through this
//! one code path.

use crate::error::CoreError;
use crate::metadata::GroupMetadata;

/// One queued membership operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BatchOp {
    /// Add an identity to the group.
    Add(String),
    /// Remove an identity from the group.
    Remove(String),
}

impl BatchOp {
    /// The identity the operation targets.
    pub fn identity(&self) -> &str {
        match self {
            BatchOp::Add(u) | BatchOp::Remove(u) => u,
        }
    }
}

/// An ordered sequence of membership operations to be applied atomically.
///
/// The sequence is validated against the *sequential* semantics (adding a
/// present member or removing an absent one is an error at the position the
/// sequential schedule would have rejected it), then coalesced into a net
/// delta: identities both added and removed inside the batch cancel out.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct MembershipBatch {
    ops: Vec<BatchOp>,
}

impl MembershipBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an add operation; returns `self` for chaining.
    pub fn add(&mut self, identity: impl Into<String>) -> &mut Self {
        self.ops.push(BatchOp::Add(identity.into()));
        self
    }

    /// Queues a remove operation; returns `self` for chaining.
    pub fn remove(&mut self, identity: impl Into<String>) -> &mut Self {
        self.ops.push(BatchOp::Remove(identity.into()));
        self
    }

    /// Number of queued operations (before coalescing).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations, in order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Validates the sequence against `meta` and computes the coalesced
    /// plan. Pure (no enclave work): useful for pre-flighting a batch.
    ///
    /// Cost: one borrowed read of every member, each looked up among the
    /// batch's own identities (sorted, so `O(log |batch|)` comparisons),
    /// plus `O(|batch| log |batch|)` work; nothing is allocated per member,
    /// so a one-op batch on a large group costs a scan of `n` string
    /// comparisons, not a copy of the roster.
    ///
    /// # Errors
    /// [`CoreError::AlreadyMember`] / [`CoreError::NotAMember`] at the first
    /// operation the equivalent sequential schedule would have rejected.
    pub fn plan(&self, meta: &GroupMetadata) -> Result<BatchPlan, CoreError> {
        // The batch's identities, sorted and deduplicated, each with what
        // planning knows of it: searched by bisection, so a one-op batch
        // costs one string comparison per member.
        let mut tracked: Vec<(&str, Tracked)> = self
            .ops
            .iter()
            .map(|op| (op.identity(), Tracked::default()))
            .collect();
        tracked.sort_unstable_by_key(|&(id, _)| id);
        tracked.dedup_by_key(|&mut (id, _)| id);
        // Where each tracked identity sits before the batch, as (partition,
        // slot) in (partition, position) order; a roster that lists one
        // identity twice yields both seats, as a scan of the roster would.
        let mut seats: Vec<(usize, usize)> = Vec::new();
        for (p, partition) in meta.partitions.iter().enumerate() {
            for m in &partition.members {
                if let Some(s) = slot(&tracked, m) {
                    let t = &mut tracked[s].1;
                    (t.pre, t.present) = (true, true);
                    seats.push((p, s));
                }
            }
        }
        let mut rotate_gk = false;
        for op in &self.ops {
            let s = slot(&tracked, op.identity()).expect("every op is tracked");
            let t = &mut tracked[s].1;
            match op {
                BatchOp::Add(u) => {
                    if t.present {
                        return Err(CoreError::AlreadyMember(u.clone()));
                    }
                    t.present = true;
                }
                BatchOp::Remove(u) => {
                    if !t.present {
                        return Err(CoreError::NotAMember(u.clone()));
                    }
                    t.present = false;
                    // Revoking a pre-batch member forces a gk rotation even
                    // if the identity is later re-added: the sequential
                    // schedule would have rotated, and callers rely on
                    // "remove ⇒ fresh gk" for forward secrecy.
                    rotate_gk |= t.pre;
                }
            }
        }
        // Net additions in first-add order, net removals in partition order.
        let mut net_added = Vec::new();
        for op in &self.ops {
            if let BatchOp::Add(u) = op {
                let s = slot(&tracked, u).expect("every op is tracked");
                let t = &mut tracked[s].1;
                if t.present && !t.pre && !t.listed {
                    t.listed = true;
                    net_added.push(u.clone());
                }
            }
        }
        let (hosts, net_removed) = seats
            .into_iter()
            .filter(|&(_, s)| !tracked[s].1.present)
            .map(|(p, s)| (p, tracked[s].0.to_string()))
            .unzip();
        Ok(BatchPlan {
            net_added,
            net_removed,
            hosts,
            rotate_gk,
        })
    }
}

/// What planning knows about one identity the batch names.
#[derive(Default)]
struct Tracked {
    /// A member before the batch.
    pre: bool,
    /// A member at the current point of the sequential schedule.
    present: bool,
    /// Already in `net_added`.
    listed: bool,
}

/// Position of `id` in `tracked`, which is sorted by identity.
fn slot(tracked: &[(&str, Tracked)], id: &str) -> Option<usize> {
    tracked.binary_search_by_key(&id, |&(k, _)| k).ok()
}

/// The coalesced, validated form of a [`MembershipBatch`] against one
/// concrete group state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BatchPlan {
    pub(crate) net_added: Vec<String>,
    pub(crate) net_removed: Vec<String>,
    /// Pre-batch partition of each `net_removed` entry (so ascending), the
    /// only partitions a revoking batch strips.
    pub(crate) hosts: Vec<usize>,
    pub(crate) rotate_gk: bool,
}

impl BatchPlan {
    /// Identities that end up members without having been members before the
    /// batch (first-add order).
    pub fn net_added(&self) -> &[String] {
        &self.net_added
    }

    /// Pre-batch members that end up removed (partition order).
    pub fn net_removed(&self) -> &[String] {
        &self.net_removed
    }

    /// True if applying the plan rotates the group key (any revocation of a
    /// pre-batch member, even one later re-added).
    pub fn rotates_gk(&self) -> bool {
        self.rotate_gk
    }

    /// True if applying the plan would leave the metadata untouched.
    pub fn is_noop(&self) -> bool {
        self.net_added.is_empty() && self.net_removed.is_empty() && !self.rotate_gk
    }
}

/// Where one net-added identity landed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    /// The identity placed.
    pub identity: String,
    /// Final index of the partition it joined.
    pub partition: usize,
    /// True if the partition was created by this batch.
    pub created_new_partition: bool,
}

/// Outcome of [`crate::GroupEngine::apply_batch`]: the coalesced effect plus
/// the per-partition work counters the batched pipeline is measured by.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BatchOutcome {
    /// Net-added identities (first-add order).
    pub added: Vec<String>,
    /// Net-removed identities (partition order at batch start).
    pub removed: Vec<String>,
    /// True if the group key was rotated (the batch contained at least one
    /// revocation of a pre-batch member).
    pub gk_rotated: bool,
    /// Key epoch of the group after the batch — advanced by exactly one
    /// from the pre-batch epoch iff `gk_rotated` (op-log entries and bench
    /// counters report epoch movement from this).
    pub epoch: u64,
    /// Partitions re-keyed — when `gk_rotated`, exactly one re-key per
    /// surviving pre-existing partition; zero for pure-add batches.
    pub partitions_rekeyed: usize,
    /// Partitions newly created for overflowing additions.
    pub partitions_created: usize,
    /// Partitions dropped because the batch emptied them.
    pub partitions_dropped: usize,
    /// Final indices of partitions whose cloud objects must be re-published
    /// (sorted ascending; the sealed group key is dirty iff `gk_rotated`).
    pub dirty_partitions: Vec<usize>,
    /// Final placement of every net-added identity.
    pub placements: Vec<Placement>,
}

impl BatchOutcome {
    /// Outcome of a batch that coalesced to nothing (the group stays at its
    /// current key epoch).
    pub(crate) fn noop_at(epoch: u64) -> Self {
        Self {
            epoch,
            ..Self::default()
        }
    }
}
