//! The client node (paper Fig. 5, right): watches its group's folder with
//! long polling, caches its partition, and re-derives `gk` on changes.
//! No SGX is involved on this side.
//!
//! When the group publishes a verifiable op-log (see [`crate::verilog`]),
//! the client pins the last verified [`LogCommitment`] and demands a
//! consistency proof that every newly observed head extends it — *before*
//! fetching or acting on any metadata. A store that forks, rewrites or
//! truncates the log surfaces as [`AcsError::Verify`], and the client
//! keeps its previous state instead of deriving a key from forged input.

use crate::admin::SEALED_ITEM;
use crate::error::AcsError;
use crate::verilog;
use cloud_store::{ObjectStore, StoreHandle};
use ibbe::{PublicKey, UserSecretKey};
use ibbe_sgx_core::{client_decrypt_from_partition, GroupKey, PartitionMetadata};
use oplog::LogCommitment;
use std::time::Duration;

/// A group member's client state.
pub struct Client {
    identity: String,
    usk: UserSecretKey,
    pk: PublicKey,
    store: StoreHandle,
    group: String,
    /// Long-poll cursor (in the group folder's clock domain).
    cursor: u64,
    /// Cache: which cloud item holds our partition, and its parsed content.
    cached: Option<(String, PartitionMetadata)>,
    /// Last successfully derived group key.
    gk: Option<GroupKey>,
    /// Last verified op-log head (trust-on-first-use pin); `None` until a
    /// head is first observed — groups without journaling never set it.
    log_head: Option<LogCommitment>,
}

impl Client {
    /// Creates a client for `identity` watching `group`.
    pub fn new(
        identity: impl Into<String>,
        usk: UserSecretKey,
        pk: PublicKey,
        store: impl Into<StoreHandle>,
        group: impl Into<String>,
    ) -> Self {
        Self {
            identity: identity.into(),
            usk,
            pk,
            store: store.into(),
            group: group.into(),
            cursor: 0,
            cached: None,
            gk: None,
            log_head: None,
        }
    }

    /// The identity this client acts as.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The last derived group key, if any.
    pub fn group_key(&self) -> Option<&GroupKey> {
        self.gk.as_ref()
    }

    /// Fetches the current state from the cloud and (re)derives `gk`.
    /// Returns the key on success.
    ///
    /// # Errors
    /// * [`AcsError::Verify`] if the published op-log does not extend the
    ///   pinned head (fork/rewrite/truncation — **nothing** is fetched or
    ///   derived in that case);
    /// * [`AcsError::NotAMember`] if no partition lists this identity
    ///   (including after revocation);
    /// * [`AcsError::WireFormat`] on malformed cloud objects;
    /// * [`AcsError::Core`] if decryption fails;
    /// * [`AcsError::Store`] on a transient cloud fault (the cached state
    ///   is untouched — retry when the store recovers).
    pub fn sync(&mut self) -> Result<GroupKey, AcsError> {
        // verify the op-log head first: metadata is only worth reading if
        // the history that produced it checks out
        self.check_log()?;
        self.cursor = self.store.try_folder_version(&self.group)?;
        // fast path: cached partition item still lists us → fetch only it
        if let Some((item, _)) = &self.cached {
            if let Some((bytes, _)) = self.store.try_get(&self.group, item)? {
                if let Some(p) = PartitionMetadata::from_bytes(&bytes) {
                    if p.members.iter().any(|m| m == &self.identity) {
                        let item = item.clone();
                        return self.derive(item, p);
                    }
                }
            }
        }
        // slow path: scan the folder for our partition
        for item in self.store.try_list(&self.group)? {
            if item.starts_with('_') {
                continue; // sealed gk object — useless to clients
            }
            let Some((bytes, _)) = self.store.try_get(&self.group, &item)? else {
                continue;
            };
            let p = PartitionMetadata::from_bytes(&bytes)
                .ok_or(AcsError::WireFormat("partition object"))?;
            if p.members.iter().any(|m| m == &self.identity) {
                return self.derive(item, p);
            }
        }
        self.cached = None;
        self.gk = None;
        Err(AcsError::NotAMember(self.identity.clone()))
    }

    fn derive(&mut self, item: String, p: PartitionMetadata) -> Result<GroupKey, AcsError> {
        let gk =
            client_decrypt_from_partition(&self.pk, &self.usk, &self.identity, &self.group, &p)?;
        self.cached = Some((item, p));
        self.gk = Some(gk);
        Ok(gk)
    }

    /// Blocks on a directory long poll until the group changes (or
    /// `timeout`), then re-syncs. Returns `Ok(None)` on poll timeout.
    ///
    /// # Errors
    /// Same contract as [`Client::sync`].
    pub fn wait_for_update(&mut self, timeout: Duration) -> Result<Option<GroupKey>, AcsError> {
        // A torn poll comes back Ok with `version == self.cursor` and no
        // changes, so the cursor assignment below can never skip past an
        // unobserved notification.
        let poll = self
            .store
            .try_long_poll(&self.group, self.cursor, timeout)?;
        self.cursor = poll.version;
        if poll.timed_out {
            return Ok(None);
        }
        // Re-derive when our cached partition item is among the changes,
        // when the sealed gk moved (every rotation republishes it in the
        // same atomic version bump — and a repartition may have *deleted*
        // our cached item, which a directory poll cannot report, so the
        // cached name alone is not a safe filter), or when we have no
        // cache yet.
        let relevant = match &self.cached {
            Some((item, _)) => poll.changed.iter().any(|c| c == item || c == SEALED_ITEM),
            None => true,
        };
        if relevant {
            self.sync().map(Some)
        } else {
            // someone else's partition changed (e.g. an add elsewhere):
            // adds touch only the placed partition and never the sealed
            // gk, so our bk, y and gk are all unchanged. The log head may
            // still have moved (it rides with every journaled mutation) —
            // verify the extension now rather than at the next sync, so a
            // fork is flagged as soon as it is published.
            if poll.changed.iter().any(|c| c == verilog::LOG_HEAD_ITEM) {
                self.check_log()?;
            }
            Ok(self.gk)
        }
    }

    /// Verifies the currently published log head against the pinned one
    /// and advances the pin. First observation is trust-on-first-use; a
    /// group that publishes no log verifies vacuously.
    fn check_log(&mut self) -> Result<(), AcsError> {
        match &self.log_head {
            Some(prior) => {
                self.log_head = Some(verilog::verify_extends(&self.store, &self.group, prior)?);
            }
            None => {
                self.log_head = verilog::fetch_head(&self.store, &self.group)?;
            }
        }
        Ok(())
    }

    /// Verifies that the published log head extends `prior` (e.g. a head
    /// this client saved before going offline, or one relayed from another
    /// client for cross-view fork detection) *and* this client's own pin,
    /// adopts the verified head as the new pin, and returns it.
    ///
    /// # Errors
    /// [`AcsError::Verify`] on any fork/rewrite/truncation evidence —
    /// against `prior` or against the pin — and [`AcsError::Store`] on
    /// transient store faults; the pin does not move in either case.
    pub fn verify_extends(&mut self, prior: &LogCommitment) -> Result<LogCommitment, AcsError> {
        let head = verilog::verify_extends(&self.store, &self.group, prior)?;
        // (a caller relaying the pin itself has just had it checked)
        if let Some(pinned) = self.log_head.filter(|pinned| pinned != prior) {
            verilog::check_extension(&self.store, &self.group, &pinned, &head)?;
        }
        self.log_head = Some(head);
        Ok(head)
    }

    /// The last verified op-log head, if the group publishes one.
    pub fn log_head(&self) -> Option<LogCommitment> {
        self.log_head
    }

    /// Index item of the currently cached partition (diagnostics).
    pub fn cached_partition_item(&self) -> Option<&str> {
        self.cached.as_ref().map(|(i, _)| i.as_str())
    }

    /// The cached partition metadata from the last successful sync (the
    /// data plane reads the current key epoch from here).
    pub fn cached_partition(&self) -> Option<&PartitionMetadata> {
        self.cached.as_ref().map(|(_, p)| p)
    }

    /// Key epoch of the last successfully synced state, if any.
    pub fn current_epoch(&self) -> Option<u64> {
        self.cached.as_ref().map(|(_, p)| p.epoch)
    }

    /// The store handle this client talks to.
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// The group this client watches.
    pub fn group(&self) -> &str {
        &self.group
    }
}

impl core::fmt::Debug for Client {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Client({} watching {}, cursor {})",
            self.identity, self.group, self.cursor
        )
    }
}
