//! The administrator node (paper Fig. 5, left): the IBBE-SGX engine plus a
//! local metadata cache and the cloud publish path.
//!
//! The admin caches group metadata locally (§IV-C: "partition metadata are
//! only manipulated by administrators, so they can locally cache it and thus
//! bypass the cost of accessing the cloud"), and pushes only the partitions
//! an operation touched.
//!
//! **Every mutation is one store request.** Each operation publishes the
//! objects it changed, the partitions it dropped (as deletes) and, when a
//! signer is configured, its certified log objects in one atomic
//! [`ObjectStore::put_many`] round-trip, so a reader sees a group's state
//! either wholly before or wholly after an operation, and a publish that
//! fails leaves nothing behind. Membership churn should still go through
//! the **batched pipeline**: [`Admin::begin_batch`] collects operations
//! and [`GroupBatch::commit`] applies them as one coalesced
//! [`MembershipBatch`] — one re-key per surviving partition per batch in
//! the engine and one coalesced [`LogOp::Batch`] entry in the log.
//!
//! **Locking.** Each group's metadata and log sit behind a lock of their
//! own, held across the engine call, the log append and the publish, so a
//! group's application, log and publish orders are one order. The map of
//! groups is locked only to look up, insert or remove an entry, never while
//! a group lock is awaited. Different groups' operations therefore overlap,
//! under the one engine and its one master secret.

use crate::error::AcsError;
use crate::verilog::{AdminSigner, GroupLog, LogOp};
use cloud_store::{BatchWrite, ObjectStore, StoreHandle};
use ibbe_sgx_core::{
    AddOutcome, BatchOutcome, GroupEngine, GroupMetadata, MembershipBatch, PartitionSize,
    RemoveOutcome,
};
use oplog::LogCommitment;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Item name for the sealed group key object inside a group folder.
pub const SEALED_ITEM: &str = "_sealed_gk";

/// Item name for the encrypted epoch-key history object inside a group
/// folder (see [`ibbe_sgx_core::KeyHistory`]): republished whenever the
/// group key rotates, skipped by clients resolving their partition, fetched
/// by data-plane sessions to unwrap objects sealed at retired epochs.
pub const EPOCHS_ITEM: &str = "_epochs";

/// Cloud item name of partition `i`.
pub fn partition_item(i: usize) -> String {
    format!("p{i:06}")
}

/// One group's admin-side state: the cached metadata and the group's
/// certified log (empty without a signer; see [`crate::verilog`] for the
/// published layout).
struct Group {
    meta: GroupMetadata,
    log: GroupLog,
}

/// A group's entry in the admin's map: `None` while [`Admin::create_group`]
/// holds the name and has not yet published the group.
type Slot = Arc<Mutex<Option<Group>>>;

/// Every object of `meta`'s published state — partitions, sealed `gk`,
/// key history — plus deletes of the partitions beyond its count that a
/// state of `before` partitions had.
fn whole_state(meta: &GroupMetadata, before: usize) -> Vec<BatchWrite> {
    let partitions = meta.partitions.iter().enumerate();
    partitions
        .map(|(i, p)| BatchWrite::put(partition_item(i), p.to_bytes()))
        .chain([
            BatchWrite::put(SEALED_ITEM, meta.sealed_gk.to_bytes()),
            BatchWrite::put(EPOCHS_ITEM, meta.key_history.to_bytes()),
        ])
        .chain(trailing(meta, before))
        .collect()
}

/// Deletes of the partition items beyond `meta`'s count that a state of
/// `before` partitions had.
fn trailing(meta: &GroupMetadata, before: usize) -> impl Iterator<Item = BatchWrite> {
    (meta.partition_count()..before).map(|i| BatchWrite::delete(partition_item(i)))
}

/// The administrator API.
pub struct Admin {
    engine: GroupEngine,
    store: StoreHandle,
    groups: Mutex<HashMap<String, Slot>>,
    auto_repartition: bool,
    signer: Option<AdminSigner>,
}

impl Admin {
    /// Creates an admin around a booted engine and any
    /// [`cloud_store::ObjectStore`] (a plain `CloudStore`, a
    /// `ShardedStore`, or an existing handle).
    pub fn new(engine: GroupEngine, store: impl Into<StoreHandle>) -> Self {
        Self {
            engine,
            store: store.into(),
            groups: Mutex::default(),
            auto_repartition: true,
            signer: None,
        }
    }

    /// Enables certified op-logging: every mutation is recorded as one
    /// signed entry of its group's log (batches as a single coalesced
    /// [`LogOp::Batch`]).
    pub fn with_signer(mut self, signer: AdminSigner) -> Self {
        self.signer = Some(signer);
        self
    }

    /// Head of `group`'s published Merkle log (`None` without a signer or
    /// before the group's first journaled operation).
    pub fn log_head(&self, group: &str) -> Option<LogCommitment> {
        self.with_group(group, |g| Ok(g.log.head())).ok()?
    }

    /// Runs `f` on `name`'s state under its group lock. The map lock is
    /// released before the group lock is awaited.
    fn with_group<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Group) -> Result<R, AcsError>,
    ) -> Result<R, AcsError> {
        let unknown = || AcsError::UnknownGroup(name.to_string());
        let slot = self.groups.lock().get(name).cloned().ok_or_else(unknown)?;
        let mut group = slot.lock();
        f(group.as_mut().ok_or_else(unknown)?)
    }

    /// Signs `op` into the group's log and stamps the new head into its
    /// metadata; a no-op without a signer. Runs before the publish, so the
    /// log objects ride in the same round-trip as the metadata.
    fn journal(&self, group: &mut Group, op: LogOp) {
        if let Some(signer) = &self.signer {
            let name = &group.meta.name;
            let _span = telemetry::span("oplog.append")
                .with("group", name.as_str())
                .enter();
            group.log.append(signer, name, op);
            group.meta.log_head = group.log.head();
        }
    }

    /// Publishes `items` and the group's unpublished log objects as one
    /// atomic `put_many` — nothing at all when both are empty — then marks
    /// the log published. Returns the number of objects the request
    /// carried. The admin's only store write.
    fn publish(&self, group: &mut Group, mut items: Vec<BatchWrite>) -> Result<usize, AcsError> {
        let log = group.log.unpublished().into_iter();
        items.extend(log.map(|(item, bytes)| BatchWrite::put(item, bytes)));
        let sent = items.len();
        if sent > 0 {
            self.store.try_write_many(&group.meta.name, items)?;
        }
        group.log.mark_published();
        Ok(sent)
    }

    /// Disables the §V-A re-partitioning heuristic (for the Fig. 10
    /// ablation).
    pub fn set_auto_repartition(&mut self, enabled: bool) {
        self.auto_repartition = enabled;
    }

    /// The underlying engine (public key, attestation, provisioning).
    pub fn engine(&self) -> &GroupEngine {
        &self.engine
    }

    /// The cloud store handle.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// Creates a group and publishes all its metadata in one request.
    ///
    /// # Errors
    /// [`AcsError::GroupExists`] if this admin already holds `name` (a
    /// live group is re-keyed or emptied, never re-created); engine
    /// failures ([`AcsError::Core`]); store faults ([`AcsError::Store`]:
    /// the name is then released — re-create the group once the store
    /// recovers).
    pub fn create_group(&self, name: &str, members: Vec<String>) -> Result<(), AcsError> {
        let slot = Slot::default();
        // locked before it is visible, so an operation that finds the name
        // waits for the outcome
        let mut state = slot.lock();
        match self.groups.lock().entry(name.to_string()) {
            Entry::Occupied(_) => return Err(AcsError::GroupExists(name.to_string())),
            Entry::Vacant(v) => {
                v.insert(Arc::clone(&slot));
            }
        }
        match self.build_group(name, members) {
            Ok(group) => {
                *state = Some(group);
                Ok(())
            }
            Err(e) => {
                self.groups.lock().remove(name);
                Err(e)
            }
        }
    }

    /// [`Admin::create_group`]'s work once the name is held.
    fn build_group(&self, name: &str, members: Vec<String>) -> Result<Group, AcsError> {
        // clone the member list only when a log will actually record it
        let log_members = self.signer.as_ref().map(|_| members.clone());
        let mut group = Group {
            meta: self.engine.create_group(name, members)?,
            log: GroupLog::default(),
        };
        if let Some(members) = log_members {
            self.journal(&mut group, LogOp::Create { members });
        }
        let items = whole_state(&group.meta, 0);
        self.publish(&mut group, items)?;
        Ok(group)
    }

    /// Adds a user (Algorithm 2) and pushes the single touched partition.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`], engine failures, or a store fault
    /// while publishing (retry republishes the already-cached state).
    pub fn add_user(&self, group: &str, identity: &str) -> Result<AddOutcome, AcsError> {
        self.with_group(group, |g| {
            let outcome = self.engine.add_user(&mut g.meta, identity)?;
            self.journal(
                g,
                LogOp::Add {
                    user: identity.to_string(),
                },
            );
            // `y` unchanged on the fast path, so nothing else to push; the
            // new sealed gk only changes when gk rotates
            let p = &g.meta.partitions[outcome.partition];
            let items = vec![BatchWrite::put(
                partition_item(outcome.partition),
                p.to_bytes(),
            )];
            self.publish(g, items)?;
            Ok(outcome)
        })
    }

    /// Removes a user (Algorithm 3): publishes every partition (all
    /// wrapped keys changed), the new sealed group key and key history,
    /// and the deletes of partitions a re-partition dropped; applies the
    /// re-partitioning heuristic when enabled.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`], engine failures, or a store fault
    /// while publishing (retry republishes the already-cached state).
    pub fn remove_user(&self, group: &str, identity: &str) -> Result<RemoveOutcome, AcsError> {
        self.with_group(group, |g| {
            let before = g.meta.partition_count();
            let outcome = self.engine.remove_user(&mut g.meta, identity)?;
            if self.auto_repartition
                && g.meta
                    .needs_repartitioning(self.engine.partition_size().get())
            {
                g.meta = self.engine.repartition(&g.meta)?;
            }
            self.journal(
                g,
                LogOp::Remove {
                    user: identity.to_string(),
                },
            );
            let items = whole_state(&g.meta, before);
            self.publish(g, items)?;
            Ok(outcome)
        })
    }

    /// Starts collecting a membership batch for `group`. Operations queued
    /// on the returned [`GroupBatch`] are applied atomically by
    /// [`GroupBatch::commit`] through the batched pipeline.
    pub fn begin_batch(&self, group: &str) -> GroupBatch<'_> {
        GroupBatch {
            admin: self,
            group: group.to_string(),
            batch: MembershipBatch::new(),
        }
    }

    /// Applies a pre-built [`MembershipBatch`] to `group` atomically:
    /// at most one engine re-key per surviving partition, one
    /// [`ObjectStore::put_many`] round-trip for all dirty cloud objects, one
    /// coalesced op-log entry.
    ///
    /// When the §V-A re-partitioning heuristic is enabled and a gk-rotating
    /// batch leaves the group sparse, the group is recreated before
    /// publishing — still within the same single store round-trip.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`] or engine failures; on engine validation
    /// failure neither the cache nor the cloud is modified. A store fault
    /// ([`AcsError::Store`]) surfaces *after* the engine/cache advanced:
    /// nothing was published, and republishing (e.g. via
    /// [`Admin::rekey_group`]) reconciles the cloud with the cache.
    pub fn apply_batch(
        &self,
        group: &str,
        batch: &MembershipBatch,
    ) -> Result<BatchOutcome, AcsError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("admin.apply_batch")
            .with("group", group)
            .enter();
        self.with_group(group, |g| {
            let before = g.meta.partition_count();
            let outcome = self.engine.apply_batch(&mut g.meta, batch)?;
            span.record("epoch", outcome.epoch);
            span.record("rekeyed", outcome.partitions_rekeyed);
            let mut dirty = outcome.dirty_partitions.clone();
            let mut publish_sealed = outcome.gk_rotated;
            if self.auto_repartition
                && outcome.gk_rotated
                && g.meta
                    .needs_repartitioning(self.engine.partition_size().get())
            {
                g.meta = self.engine.repartition(&g.meta)?;
                dirty = (0..g.meta.partition_count()).collect();
                publish_sealed = true;
            }
            if !outcome.added.is_empty() || !outcome.removed.is_empty() || outcome.gk_rotated {
                self.journal(
                    g,
                    LogOp::Batch {
                        adds: outcome.added.clone(),
                        removes: outcome.removed.clone(),
                        epoch: outcome.epoch,
                    },
                );
            }
            // every dirty object in one round-trip; the log entry, tree
            // nodes and signed head ride in the SAME atomic round-trip, so
            // a client can never observe rotated metadata whose log head
            // has not moved with it
            let meta = &g.meta;
            let mut items: Vec<BatchWrite> = dirty
                .iter()
                .map(|&i| BatchWrite::put(partition_item(i), meta.partitions[i].to_bytes()))
                .collect();
            if publish_sealed {
                items.push(BatchWrite::put(SEALED_ITEM, meta.sealed_gk.to_bytes()));
                // a rotation retires a key into the history; publishing it
                // in the SAME round-trip keeps partition epoch and history
                // in one atomic version bump (no torn reads across the
                // rotation)
                items.push(BatchWrite::put(EPOCHS_ITEM, meta.key_history.to_bytes()));
            }
            items.extend(trailing(meta, before));
            let publish = telemetry::span("admin.publish")
                .with("group", group)
                .enter();
            publish.record("items", self.publish(g, items)?);
            Ok(outcome)
        })
    }

    /// Re-keys the group without membership change and publishes
    /// everything in one atomic `put_many`, so clients can never observe
    /// the new partitions with the old epoch history.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`] or engine failures.
    pub fn rekey_group(&self, group: &str) -> Result<(), AcsError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("admin.rekey").with("group", group).enter();
        self.with_group(group, |g| {
            self.engine.rekey_group(&mut g.meta)?;
            span.record("epoch", g.meta.epoch);
            self.journal(g, LogOp::Rekey);
            let items = whole_state(&g.meta, 0);
            let publish = telemetry::span("admin.publish")
                .with("group", group)
                .enter();
            publish.record("items", self.publish(g, items)?);
            Ok(())
        })
    }

    /// Compacts the group's epoch-key history, dropping retired keys for
    /// epochs below `keep_from` and republishing the shrunken `_epochs`
    /// object. Bounds the history's otherwise unbounded 40 B-per-rotation
    /// growth.
    ///
    /// **Only safe when no stored object is still sealed below
    /// `keep_from`** — i.e. after a converged full-namespace sweep; pass
    /// the sweep report's floor epoch. Publishing is skipped entirely when
    /// nothing is pruned, so calling this after every converged sweep is
    /// cheap.
    ///
    /// Returns the number of history entries pruned.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`] or engine failures.
    pub fn compact_history(&self, group: &str, keep_from: u64) -> Result<usize, AcsError> {
        self.with_group(group, |g| {
            let pruned = self.engine.compact_history(&mut g.meta, keep_from)?;
            if pruned > 0 {
                let history = g.meta.key_history.to_bytes();
                self.publish(g, vec![BatchWrite::put(EPOCHS_ITEM, history)])?;
            }
            Ok(pruned)
        })
    }

    /// Current member count of a cached group.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn member_count(&self, group: &str) -> Result<usize, AcsError> {
        self.with_group(group, |g| Ok(g.meta.member_count()))
    }

    /// Snapshot of a cached group's metadata (tests and diagnostics).
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn metadata(&self, group: &str) -> Result<GroupMetadata, AcsError> {
        self.with_group(group, |g| Ok(g.meta.clone()))
    }
}

/// A membership batch being collected against one group; created by
/// [`Admin::begin_batch`], applied atomically by [`GroupBatch::commit`].
pub struct GroupBatch<'a> {
    admin: &'a Admin,
    group: String,
    batch: MembershipBatch,
}

impl GroupBatch<'_> {
    /// Queues an add operation.
    // the builder verb mirrors MembershipBatch::add; no `+` semantics implied
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(mut self, identity: impl Into<String>) -> Self {
        self.batch.add(identity);
        self
    }

    /// Queues a remove operation.
    #[must_use]
    pub fn remove(mut self, identity: impl Into<String>) -> Self {
        self.batch.remove(identity);
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// Commits the collected operations through
    /// [`Admin::apply_batch`].
    ///
    /// # Errors
    /// Same contract as [`Admin::apply_batch`].
    pub fn commit(self) -> Result<BatchOutcome, AcsError> {
        self.admin.apply_batch(&self.group, &self.batch)
    }
}

impl core::fmt::Debug for GroupBatch<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GroupBatch({}, {} ops)", self.group, self.batch.len())
    }
}

impl core::fmt::Debug for Admin {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Admin({:?}, {} cached groups)",
            self.engine,
            self.groups.lock().len()
        )
    }
}

/// Convenience: boots an engine and wraps it in an [`Admin`].
///
/// # Errors
/// Propagates engine bootstrap failures.
pub fn bootstrap_admin<R: rand::RngCore + ?Sized>(
    partition_size: PartitionSize,
    store: impl Into<StoreHandle>,
    rng: &mut R,
) -> Result<Admin, AcsError> {
    Ok(Admin::new(
        GroupEngine::bootstrap(partition_size, rng)?,
        store,
    ))
}
