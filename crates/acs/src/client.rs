//! The client node (paper Fig. 5, right): watches its group's folder with
//! long polling, caches its partition, and re-derives `gk` on changes.
//! No SGX is involved on this side.
//!
//! A sync is at most two store requests. The first is one atomic
//! `GetMany` of the log head, the cached partition and the key history
//! (a client with no usable cache lists the folder and reads every
//! partition instead, in one `GetMany` too); the second fetches the log's
//! consistency path, and only when the head moved. Everything a sync acts
//! on therefore comes from one snapshot of the folder: a reader never sees
//! half of an admin's publish.
//!
//! When the group publishes a verifiable op-log (see [`crate::verilog`]),
//! the client pins the last verified [`LogCommitment`] and demands a
//! consistency proof that every newly observed head extends it — *before*
//! acting on any metadata. A store that forks, rewrites or truncates the
//! log surfaces as [`AcsError::Verify`], and the client keeps its previous
//! state instead of deriving a key from forged input.
//!
//! A sync reuses a derivation instead of decrypting when the partition its
//! own verified snapshot returned equals, in every field, the partition the
//! client's derivation cell last decrypted; clients of one identity, key
//! and group may share that cell ([`Client::share_derivations_with`]), so
//! a rotation they all observe is decrypted once.

use crate::admin::{EPOCHS_ITEM, SEALED_ITEM};
use crate::error::AcsError;
use crate::verilog::{self, LOG_HEAD_ITEM};
use cloud_store::{Bytes, ObjectStore, StoreHandle};
use ibbe::{PublicKey, UserSecretKey};
use ibbe_sgx_core::{client_decrypt_from_partition, GroupKey, PartitionMetadata};
use oplog::LogCommitment;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// The last partition a decrypt ran on, with the key it yielded.
type Derivation = Option<(PartitionMetadata, GroupKey)>;

/// A group member's client state.
pub struct Client {
    identity: String,
    usk: UserSecretKey,
    pk: PublicKey,
    store: StoreHandle,
    group: String,
    /// Long-poll cursor (in the group folder's clock domain).
    cursor: u64,
    /// Cache: which cloud item holds our partition, its parsed content, and
    /// the key history read in the same snapshot.
    cached: Option<(String, PartitionMetadata, Option<Bytes>)>,
    /// Last successfully derived group key.
    gk: Option<GroupKey>,
    /// The derivation cell, possibly shared with other clients of the same
    /// identity, key and group; it only ever holds a successful decrypt.
    derived: Arc<Mutex<Derivation>>,
    /// IBBE decrypts this client ran itself.
    derivations: u64,
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
            derived: Arc::default(),
            derivations: 0,
            log_head: None,
        }
    }

    /// Makes this client share `other`'s derivation cell, so that a
    /// partition either of them has decrypted is not decrypted again by the
    /// other. The decrypt is a function of the public key, the `usk`, the
    /// identity, the group and the partition, and the first four must be
    /// equal here; each client still reads and verifies its own snapshot,
    /// and reuses a key only for a partition equal to the one it came from.
    ///
    /// # Panics
    /// Panics unless both clients act as the same identity with the same
    /// `usk` and public key, in the same group.
    pub fn share_derivations_with(&mut self, other: &Client) {
        assert!(
            self.identity == other.identity
                && self.usk == other.usk
                && self.pk == other.pk
                && self.group == other.group,
            "only clients of one identity, key and group may share derivations"
        );
        self.derived = Arc::clone(&other.derived);
    }

    /// How many IBBE decrypts this client has run; a sync that reused a
    /// derivation does not count.
    pub fn derivations(&self) -> u64 {
        self.derivations
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
    ///   pinned head (fork/rewrite/truncation — **nothing** is acted on or
    ///   derived in that case);
    /// * [`AcsError::NotAMember`] if no partition lists this identity
    ///   (including after revocation);
    /// * [`AcsError::WireFormat`] on malformed cloud objects;
    /// * [`AcsError::Core`] if decryption fails;
    /// * [`AcsError::Store`] on a transient cloud fault (the cached state
    ///   is untouched — retry when the store recovers).
    pub fn sync(&mut self) -> Result<GroupKey, AcsError> {
        // fast path: the cached partition item still lists us
        let cached = self.cached.as_ref().map(|(item, ..)| vec![item.clone()]);
        let fast = cached.map(|item| self.read(item)).transpose()?;
        // slow path: read every partition of the folder
        let snapshot = match fast.filter(|read| read.ours.is_some()) {
            Some(read) => read,
            None => {
                let mut partitions = self.store.try_list(&self.group)?;
                partitions.retain(|item| !item.starts_with('_'));
                self.read(partitions)?
            }
        };
        // verify the op-log head first: the snapshot is only worth acting
        // on if the history that produced it checks out
        self.check_log(verilog::parse_head(snapshot.head)?)?;
        self.cursor = snapshot.version;
        let Some((item, p)) = snapshot.ours else {
            self.cached = None;
            self.gk = None;
            return Err(AcsError::NotAMember(self.identity.clone()));
        };
        let gk = self.derive(&p)?;
        self.cached = Some((item, p, snapshot.history));
        self.gk = Some(gk);
        Ok(gk)
    }

    /// The group key `p` wraps for this member: the derivation cell's if it
    /// was derived from a partition equal to `p`, else a fresh decrypt,
    /// which then fills the cell. The cell stays locked across the decrypt,
    /// so clients sharing it that sync at once still decrypt once.
    fn derive(&mut self, p: &PartitionMetadata) -> Result<GroupKey, AcsError> {
        let mut cell = self.derived.lock();
        if let Some((_, gk)) = cell.as_ref().filter(|(derived, _)| derived == p) {
            return Ok(*gk);
        }
        let gk =
            client_decrypt_from_partition(&self.pk, &self.usk, &self.identity, &self.group, p)?;
        *cell = Some((p.clone(), gk));
        self.derivations += 1;
        Ok(gk)
    }

    /// One atomic read of the group folder: `partitions`, the log head and
    /// the key history, with the folder clock. A malformed partition read
    /// before this member's fails the read.
    fn read(&self, partitions: Vec<String>) -> Result<FolderRead, AcsError> {
        let mut items = vec![LOG_HEAD_ITEM.to_string()];
        items.extend(partitions.iter().cloned());
        items.push(EPOCHS_ITEM.to_string());
        let (mut found, version) = self.store.try_get_many(&self.group, items)?;
        let history = found.pop().flatten().map(|(bytes, _)| bytes);
        let head = found.remove(0);
        // the first partition that lists us; a malformed one before it
        // is an error
        let mut ours = None;
        for (item, got) in partitions.into_iter().zip(found) {
            let Some((bytes, _)) = got else { continue };
            let p = PartitionMetadata::from_bytes(&bytes)
                .ok_or(AcsError::WireFormat("partition object"))?;
            if p.members.contains(&self.identity) {
                ours = Some((item, p));
                break;
            }
        }
        Ok(FolderRead {
            head,
            history,
            version,
            ours,
        })
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
            Some((item, ..)) => poll.changed.iter().any(|c| c == item || c == SEALED_ITEM),
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
            if poll.changed.iter().any(|c| c == LOG_HEAD_ITEM) {
                self.check_log(verilog::fetch_head(&self.store, &self.group)?)?;
            }
            Ok(self.gk)
        }
    }

    /// Verifies `head`, as just read from the group folder, against the
    /// pinned head and advances the pin. First observation is
    /// trust-on-first-use; a group that publishes no log verifies
    /// vacuously.
    fn check_log(&mut self, head: Option<LogCommitment>) -> Result<(), AcsError> {
        self.log_head = match &self.log_head {
            Some(prior) => Some(verilog::check_head(&self.store, &self.group, prior, head)?),
            None => head,
        };
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
            verilog::check_head(&self.store, &self.group, &pinned, Some(head))?;
        }
        self.log_head = Some(head);
        Ok(head)
    }

    /// The last verified op-log head, if the group publishes one.
    pub fn log_head(&self) -> Option<LogCommitment> {
        self.log_head
    }

    /// The cached partition metadata from the last successful sync (the
    /// data plane reads the current key epoch from here).
    pub fn cached_partition(&self) -> Option<&PartitionMetadata> {
        self.cached.as_ref().map(|(_, p, _)| p)
    }

    /// The key history object read in the same snapshot as the cached
    /// partition (the data plane unlocks retired epochs from it); `None`
    /// if the group publishes none or nothing is cached.
    pub fn cached_history(&self) -> Option<&[u8]> {
        self.cached.as_ref()?.2.as_deref()
    }

    /// Key epoch of the last successfully synced state, if any.
    pub fn current_epoch(&self) -> Option<u64> {
        self.cached.as_ref().map(|(_, p, _)| p.epoch)
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

/// What one atomic read of the group folder yielded (see `Client::read`).
struct FolderRead {
    head: Option<(Bytes, u64)>,
    history: Option<Bytes>,
    /// The folder clock at the read.
    version: u64,
    /// The first partition read that lists this member.
    ours: Option<(String, PartitionMetadata)>,
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
