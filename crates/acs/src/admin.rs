//! The administrator node (paper Fig. 5, left): the IBBE-SGX engine plus a
//! local metadata cache and the cloud PUT path.
//!
//! The admin caches group metadata locally (§IV-C: "partition metadata are
//! only manipulated by administrators, so they can locally cache it and thus
//! bypass the cost of accessing the cloud"), and pushes only the partitions
//! an operation touched.
//!
//! Membership churn should go through the **batched pipeline**:
//! [`Admin::begin_batch`] collects operations and [`GroupBatch::commit`]
//! applies them as one coalesced [`MembershipBatch`] — one re-key per
//! surviving partition per batch in the engine, one [`ObjectStore::put_many`]
//! round-trip publishing every dirty object, and (when a signer is
//! configured) one coalesced [`LogOp::Batch`] entry in the certified op-log.
//! The single-op [`Admin::add_user`] / [`Admin::remove_user`] entry points
//! retain the sequential per-object PUT profile of the paper's original
//! design (they are what the batch pipeline is benchmarked against).

use crate::error::AcsError;
use crate::oplog::{AdminSigner, LogOp};
use crate::verilog::GroupLog;
use cloud_store::{ObjectStore, StoreHandle};
use ibbe_sgx_core::{
    AddOutcome, BatchOutcome, GroupEngine, GroupMetadata, MembershipBatch, PartitionSize,
    RemoveOutcome,
};
use oplog::LogCommitment;
use parking_lot::Mutex;
use std::collections::HashMap;

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

/// Optional certified journaling: every mutation this admin performs is
/// signed into its group's [`GroupLog`], whose objects (entry, completed
/// tree nodes, head) are published to the cloud alongside the metadata the
/// mutation produced — see [`crate::verilog`] for the layout and the
/// verification story.
struct Journal {
    signer: AdminSigner,
    groups: Mutex<HashMap<String, GroupLog>>,
}

/// The administrator API.
pub struct Admin {
    engine: GroupEngine,
    store: StoreHandle,
    cache: Mutex<HashMap<String, GroupMetadata>>,
    auto_repartition: bool,
    journal: Option<Journal>,
}

impl Admin {
    /// Creates an admin around a booted engine and any
    /// [`cloud_store::ObjectStore`] (a plain `CloudStore`, a
    /// `ShardedStore`, or an existing handle).
    pub fn new(engine: GroupEngine, store: impl Into<StoreHandle>) -> Self {
        Self {
            engine,
            store: store.into(),
            cache: Mutex::new(HashMap::new()),
            auto_repartition: true,
            journal: None,
        }
    }

    /// Enables certified op-logging: every mutation is recorded as one
    /// signed entry of its group's log (batches as a single coalesced
    /// [`LogOp::Batch`]).
    pub fn with_signer(mut self, signer: AdminSigner) -> Self {
        self.journal = Some(Journal {
            signer,
            groups: Mutex::default(),
        });
        self
    }

    /// Head of `group`'s published Merkle log (`None` without a signer or
    /// before the group's first journaled operation).
    pub fn log_head(&self, group: &str) -> Option<LogCommitment> {
        self.journal.as_ref()?.groups.lock().get(group)?.head()
    }

    /// Appends a journal entry and queues its publishable objects (entry,
    /// completed tree nodes). Returns the new log head to stamp into the
    /// group metadata, or `None` when no signer is configured.
    ///
    /// Callers invoke this while still holding the cache lock and *before*
    /// the store round-trip, so journal order always matches application
    /// order and the queued objects ride in the same publish as the
    /// metadata (lock order is cache → journal everywhere; nothing
    /// acquires them the other way around).
    fn journal_append(&self, group: &str, op: LogOp) -> Option<LogCommitment> {
        let j = self.journal.as_ref()?;
        let _span = telemetry::span("oplog.append").with("group", group).enter();
        let mut groups = j.groups.lock();
        let log = groups.entry(group.to_string()).or_default();
        log.append(&j.signer, group, op);
        log.head()
    }

    /// The log objects the next publish of `group` must carry
    /// ([`GroupLog::unpublished`]; empty without a signer).
    fn pending_log_items(&self, group: &str) -> Vec<(String, Vec<u8>)> {
        self.journal
            .as_ref()
            .and_then(|j| j.groups.lock().get(group).map(GroupLog::unpublished))
            .unwrap_or_default()
    }

    /// Advances the publish watermark after a successful store round-trip
    /// that carried [`Admin::pending_log_items`].
    fn mark_log_published(&self, group: &str) {
        if let Some(j) = &self.journal {
            if let Some(log) = j.groups.lock().get_mut(group) {
                log.mark_published();
            }
        }
    }

    /// Publishes any queued log objects in one `put_many` (the paths that
    /// do not already fold them into a metadata round-trip).
    fn publish_log(&self, group: &str) -> Result<(), AcsError> {
        let items = self.pending_log_items(group);
        if items.is_empty() {
            return Ok(());
        }
        self.store.try_put_many(group, items)?;
        self.mark_log_published(group);
        Ok(())
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

    /// Creates a group and pushes all partition metadata to the cloud.
    ///
    /// # Errors
    /// Propagates engine failures ([`AcsError::Core`]) and store faults
    /// ([`AcsError::Store`]; the group is then not cached — re-create it
    /// once the store recovers).
    pub fn create_group(&self, name: &str, members: Vec<String>) -> Result<(), AcsError> {
        // clone the member list only when a journal will actually record it
        let log_members = self.journal.as_ref().map(|_| members.clone());
        let mut meta = self.engine.create_group(name, members)?;
        let mut cache = self.cache.lock();
        if let Some(members) = log_members {
            // journal while holding the cache lock so entry order matches
            // application order (see `journal_append`)
            meta.log_head = self.journal_append(name, LogOp::Create { members });
        }
        self.push_all(&meta)?;
        self.publish_log(name)?;
        cache.insert(name.to_string(), meta);
        Ok(())
    }

    /// Adds a user (Algorithm 2) and pushes the single touched partition.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`], engine failures, or a store fault
    /// while publishing (retry republishes the already-cached state).
    pub fn add_user(&self, group: &str, identity: &str) -> Result<AddOutcome, AcsError> {
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        let outcome = self.engine.add_user(meta, identity)?;
        if let Some(head) = self.journal_append(
            group,
            LogOp::Add {
                user: identity.to_string(),
            },
        ) {
            meta.log_head = Some(head);
        }
        let p = &meta.partitions[outcome.partition];
        // `y` unchanged on the fast path, so nothing else to push; the new
        // sealed gk only changes when gk rotates.
        let log_items = self.pending_log_items(group);
        if log_items.is_empty() {
            self.store
                .try_put(group, &partition_item(outcome.partition), p.to_bytes())?;
        } else {
            // one atomic round-trip: the touched partition plus the log
            // entry, tree nodes and new signed head
            let mut items = vec![(partition_item(outcome.partition), p.to_bytes())];
            items.extend(log_items);
            self.store.try_put_many(group, items)?;
            self.mark_log_published(group);
        }
        Ok(outcome)
    }

    /// Removes a user (Algorithm 3): pushes every partition (all wrapped
    /// keys changed) and the new sealed group key; applies the
    /// re-partitioning heuristic when enabled.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`], engine failures, or a store fault
    /// while publishing (retry republishes the already-cached state).
    pub fn remove_user(&self, group: &str, identity: &str) -> Result<RemoveOutcome, AcsError> {
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        let before = meta.partition_count();
        let outcome = self.engine.remove_user(meta, identity)?;
        if self.auto_repartition && meta.needs_repartitioning(self.engine.partition_size().get()) {
            *meta = self.engine.repartition(meta)?;
        }
        if let Some(head) = self.journal_append(
            group,
            LogOp::Remove {
                user: identity.to_string(),
            },
        ) {
            meta.log_head = Some(head);
        }
        self.push_all(meta)?;
        // drop stale trailing items if the partition count shrank
        for i in meta.partition_count()..before {
            self.store.try_delete(group, &partition_item(i))?;
        }
        self.publish_log(group)?;
        Ok(outcome)
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
    /// the publish is then partial, and retrying the publish (e.g. via
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
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        let before = meta.partition_count();
        let outcome = self.engine.apply_batch(meta, batch)?;
        span.record("epoch", outcome.epoch);
        span.record("rekeyed", outcome.partitions_rekeyed);
        let mut dirty = outcome.dirty_partitions.clone();
        let mut publish_sealed = outcome.gk_rotated;
        if self.auto_repartition
            && outcome.gk_rotated
            && meta.needs_repartitioning(self.engine.partition_size().get())
        {
            *meta = self.engine.repartition(meta)?;
            dirty = (0..meta.partition_count()).collect();
            publish_sealed = true;
        }
        if !outcome.added.is_empty() || !outcome.removed.is_empty() || outcome.gk_rotated {
            if let Some(head) = self.journal_append(
                group,
                LogOp::Batch {
                    adds: outcome.added.clone(),
                    removes: outcome.removed.clone(),
                    epoch: outcome.epoch,
                },
            ) {
                meta.log_head = Some(head);
            }
        }
        // publish every dirty object in one round-trip (a 1-item batch is an
        // ordinary PUT — no point charging it as a batched request); the
        // log entry, tree nodes and signed head ride in the SAME atomic
        // round-trip, so a client can never observe rotated metadata whose
        // log head has not moved with it
        let mut items: Vec<(String, Vec<u8>)> = dirty
            .iter()
            .map(|&i| (partition_item(i), meta.partitions[i].to_bytes()))
            .collect();
        if publish_sealed {
            items.push((SEALED_ITEM.to_string(), meta.sealed_gk.to_bytes()));
            // a rotation retires a key into the history; publishing it in
            // the SAME round-trip keeps partition epoch and history in one
            // atomic version bump (no torn reads across the rotation)
            items.push((EPOCHS_ITEM.to_string(), meta.key_history.to_bytes()));
        }
        items.extend(self.pending_log_items(group));
        {
            let _publish = telemetry::span("admin.publish")
                .with("group", group)
                .with("items", items.len())
                .enter();
            if items.len() == 1 {
                let (item, data) = items.pop().expect("len checked");
                self.store.try_put(group, &item, data)?;
            } else if !items.is_empty() {
                self.store.try_put_many(group, items)?;
            }
            self.mark_log_published(group);
            // drop stale trailing items if the partition count shrank
            for i in meta.partition_count()..before {
                self.store.try_delete(group, &partition_item(i))?;
            }
        }
        Ok(outcome)
    }

    /// Re-keys the group without membership change and pushes everything —
    /// in a **single atomic `put_many`** like a revoking batch, so clients
    /// can never observe the new partitions with the old epoch history (a
    /// rotation published item by item would open a torn-read window).
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`] or engine failures.
    pub fn rekey_group(&self, group: &str) -> Result<(), AcsError> {
        let _rid = telemetry::request_scope();
        let span = telemetry::span("admin.rekey").with("group", group).enter();
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        self.engine.rekey_group(meta)?;
        span.record("epoch", meta.epoch);
        if let Some(head) = self.journal_append(group, LogOp::Rekey) {
            meta.log_head = Some(head);
        }
        let items: Vec<(String, Vec<u8>)> = meta
            .partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (partition_item(i), p.to_bytes()))
            .chain([
                (SEALED_ITEM.to_string(), meta.sealed_gk.to_bytes()),
                (EPOCHS_ITEM.to_string(), meta.key_history.to_bytes()),
            ])
            .chain(self.pending_log_items(group))
            .collect();
        {
            let _publish = telemetry::span("admin.publish")
                .with("group", group)
                .with("items", items.len())
                .enter();
            self.store.try_put_many(group, items)?;
            self.mark_log_published(group);
        }
        Ok(())
    }

    /// Compacts the group's epoch-key history, dropping retired keys for
    /// epochs below `keep_from` and republishing the shrunken `_epochs`
    /// object (one PUT; nothing else changed, so no atomic batch is
    /// needed). Bounds the history's otherwise unbounded 40 B-per-rotation
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
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        let pruned = self.engine.compact_history(meta, keep_from)?;
        if pruned > 0 {
            self.store
                .try_put(group, EPOCHS_ITEM, meta.key_history.to_bytes())?;
        }
        Ok(pruned)
    }

    /// Current member count of a cached group.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn member_count(&self, group: &str) -> Result<usize, AcsError> {
        self.cache
            .lock()
            .get(group)
            .map(|m| m.member_count())
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))
    }

    /// Snapshot of a cached group's metadata (tests and diagnostics).
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn metadata(&self, group: &str) -> Result<GroupMetadata, AcsError> {
        self.cache
            .lock()
            .get(group)
            .cloned()
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))
    }

    fn push_all(&self, meta: &GroupMetadata) -> Result<(), AcsError> {
        for (i, p) in meta.partitions.iter().enumerate() {
            self.store
                .try_put(&meta.name, &partition_item(i), p.to_bytes())?;
        }
        self.store
            .try_put(&meta.name, SEALED_ITEM, meta.sealed_gk.to_bytes())?;
        self.store
            .try_put(&meta.name, EPOCHS_ITEM, meta.key_history.to_bytes())?;
        Ok(())
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
            self.cache.lock().len()
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
