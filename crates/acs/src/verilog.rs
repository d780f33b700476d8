//! The verifiable op-log layer: publishes the certified membership log as
//! Merkle-tree objects on the untrusted store, and gives every party a way
//! to catch the store lying about it.
//!
//! There is one log per group and one check per entry. Each
//! [`crate::LogEntry`]'s signature binds the group, the entry's index in
//! that group's log and the Merkle root of the log before the append;
//! [`crate::LogEntry::verify_at`] checks exactly that and is the only code
//! that looks up an admin key and verifies a signature.
//!
//! * **Admins** ([`crate::Admin::with_signer`]) append each mutation to the
//!   group's [`GroupLog`] and publish the entry, the completed tree nodes
//!   and the new head — in the *same* atomic `put_many` round-trip as the
//!   group metadata the mutation produced.
//! * **Clients** pin the last verified [`LogCommitment`] (40 bytes) and,
//!   before acting on any new state, demand an O(log n) consistency proof
//!   that the published head extends it ([`verify_extends`]). A sync is two
//!   requests: one [`cloud_store::ObjectStore::try_get_many`] snapshot of
//!   the head with the metadata it vouches for, then — only when the head
//!   moved — one more for the consistency path, whose node ids depend only
//!   on the two sizes. Nothing in the snapshot is acted on until the proof
//!   checks out. A store that forks, rewrites, or truncates the history a
//!   client has seen fails the proof — the client refuses the forged
//!   metadata instead of deriving a key from it.
//! * **Auditors** ([`Auditor`]) hold only admin *verification* keys — no
//!   SGX, no group membership, no admin credentials — and fold the entry
//!   check over the full log ([`Auditor::audit_group`]) or apply it to one
//!   compact fraud-proof unit ([`SignedTransition`]): pre-head, appended
//!   entry, post-head and the two Merkle paths.
//!
//! Who detects what:
//!
//! * **The entries' signatures** leave no room, inside the prefix a store
//!   serves, for an inserted, dropped, reordered or replayed entry or one
//!   from an unregistered admin: each would put a validly signed entry at
//!   an index, or over a prefix, it was not signed for.
//! * **Pinned heads and [`Auditor::observe`]** catch forks and rollbacks:
//!   the published `_log_head` is unsigned, so a head is only as good as
//!   its consistency with one a verifier already holds.
//! * **A fresh verifier alone cannot detect suffix truncation.** The first
//!   `k` entries of an honest log are themselves an honest log; only a
//!   remembered (or relayed) larger head exposes the missing tail.
//!
//! Cloud layout inside a group folder (all `_`-prefixed, so partition scans
//! skip them):
//!
//! | item | content |
//! |---|---|
//! | `_log_head` | the 40-byte [`LogCommitment`] (mutable, unsigned) |
//! | `_log_e{i:08}` | serialized signed [`crate::LogEntry`] `i` (immutable) |
//! | `_log_n{l:02}_{i:08}` | 32-byte complete-subtree root `(l,i)`, `l ≥ 1` (immutable) |
//!
//! Leaf hashes are recomputed from the entry objects themselves
//! ([`oplog::leaf_hash`] over the entry bytes), so every proof a verifier
//! fetches is anchored in the very bytes an auditor checks signatures on.
//!
//! The adversarial half — a store wrapper serving tampered views so tests
//! can assert each one is detected — is test support and lives in
//! [`crate::fixtures::ForkingStore`].

use crate::error::AcsError;
use crate::oplog::{AdminSigner, LogEntry, LogOp};
use cloud_store::{Bytes, ObjectStore, StoreHandle};
use oplog::{
    consistency_proof, leaf_hash, verify_consistency, Hash, LogCommitment, MerkleLog, NodeSource,
    TransitionProof, VerifyError,
};
use parking_lot::Mutex;
use sgx_sim::bls::VerifyingKey;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Item name of the published log head inside a group folder.
pub const LOG_HEAD_ITEM: &str = "_log_head";

/// Item name of log entry `index` (0-based, dense, per group).
pub fn log_entry_item(index: u64) -> String {
    format!("_log_e{index:08}")
}

/// Item name of the complete Merkle node `(level, index)`, `level ≥ 1`
/// (level-0 hashes are recomputed from the entry objects).
pub fn log_node_item(level: u32, index: u64) -> String {
    format!("_log_n{level:02}_{index:08}")
}

/// One group's log as its writers hold it: the Merkle accumulator over the
/// entry bytes plus the store objects appended but not yet confirmed
/// published.
///
/// [`GroupLog::append`] is the only way an entry comes into being — it
/// signs at the log's current head and appends in one step — so several
/// signers sharing one `GroupLog` (multi-admin governance) interleave into
/// one verifiable history.
#[derive(Clone, Debug, Default)]
pub struct GroupLog {
    merkle: MerkleLog,
    /// The publish watermark: appending queues objects *before* any store
    /// round-trip, so a failed publish leaves them here and the next
    /// successful one carries them.
    pending: Vec<(String, Vec<u8>)>,
}

impl GroupLog {
    /// Signs `op` as `group`'s next entry — at this log's current size,
    /// over its current root — appends it, and queues the entry and the
    /// tree nodes it completed for publication. Returns the entry.
    pub fn append(&mut self, signer: &AdminSigner, group: &str, op: LogOp) -> LogEntry {
        let entry = signer.sign_at(group, op, &self.merkle.commitment());
        let bytes = entry.to_bytes();
        let leaf = leaf_hash(&bytes);
        self.pending.push((log_entry_item(entry.index), bytes));
        for (level, index, hash) in self.merkle.append_leaf(leaf) {
            // level-0 hashes are recomputed from the entry objects;
            // verifiers only fetch interior nodes
            if level >= 1 {
                self.pending
                    .push((log_node_item(level, index), hash.to_vec()));
            }
        }
        entry
    }

    /// The log's head, `None` before the first append.
    pub fn head(&self) -> Option<LogCommitment> {
        (self.merkle.size() > 0).then(|| self.merkle.commitment())
    }

    /// The objects the next publish must carry: everything above the
    /// watermark plus the current head. Empty when nothing is unpublished
    /// (head included — it is only rewritten when it moves).
    pub fn unpublished(&self) -> Vec<(String, Vec<u8>)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let mut items = self.pending.clone();
        items.push((
            LOG_HEAD_ITEM.to_string(),
            self.merkle.commitment().to_bytes().to_vec(),
        ));
        items
    }

    /// Advances the watermark after a store round-trip that carried
    /// [`GroupLog::unpublished`] succeeded.
    pub fn mark_published(&mut self) {
        self.pending.clear();
    }
}

/// The node ids a proof construction reads, recorded in the order it
/// reads them. They depend only on the tree sizes, never on the hashes, so
/// one dry run over placeholder hashes names every object the real run
/// needs.
#[derive(Default)]
struct Wanted(RefCell<Vec<(u32, u64)>>);

impl NodeSource for Wanted {
    fn node(&self, level: u32, index: u64) -> Option<Hash> {
        self.0.borrow_mut().push((level, index));
        Some([0; 32])
    }
}

/// Fetched log objects by node id: the entry bytes at level 0 (hashed on
/// read), the 32-byte node objects above.
struct Fetched(HashMap<(u32, u64), Bytes>);

impl NodeSource for Fetched {
    fn node(&self, level: u32, index: u64) -> Option<Hash> {
        let bytes = self.0.get(&(level, index))?;
        if level == 0 {
            Some(leaf_hash(bytes))
        } else {
            <[u8; 32]>::try_from(bytes.as_ref()).ok()
        }
    }
}

/// Runs the proof construction `build` over `group`'s published log
/// objects, fetching every object it reads in one `GetMany`. Returns the
/// result and the fetched objects by node id.
///
/// Fails closed: the first node, in the order `build` reads them, that is
/// absent or malformed is reported as [`VerifyError::MissingNode`] — an
/// outage is transient, a hole is evidence. A failed request surfaces as
/// [`AcsError::Store`].
fn with_nodes<T>(
    store: &StoreHandle,
    group: &str,
    build: impl Fn(&dyn NodeSource) -> Option<T>,
) -> Result<(T, Fetched), AcsError> {
    let wanted = Wanted::default();
    build(&wanted);
    let mut ids = wanted.0.into_inner();
    let mut seen = HashSet::new();
    ids.retain(|id| seen.insert(*id));
    let items = ids
        .iter()
        .map(|&(level, index)| match level {
            0 => log_entry_item(index),
            _ => log_node_item(level, index),
        })
        .collect();
    let (found, _) = store.try_get_many(group, items)?;
    let mut fetched = HashMap::new();
    for (&(level, index), got) in ids.iter().zip(found) {
        match got {
            Some((bytes, _)) if level == 0 || bytes.len() == 32 => {
                fetched.insert((level, index), bytes);
            }
            _ => return Err(AcsError::Verify(VerifyError::MissingNode { level, index })),
        }
    }
    let fetched = Fetched(fetched);
    let built = build(&fetched).expect("every node the construction reads was fetched");
    Ok((built, fetched))
}

/// Fetches and parses the published log head of `group`, `None` when the
/// group publishes no log (journaling disabled).
///
/// # Errors
/// [`AcsError::Store`] on a store fault, [`AcsError::Verify`] on a
/// malformed head object.
pub fn fetch_head(store: &StoreHandle, group: &str) -> Result<Option<LogCommitment>, AcsError> {
    parse_head(store.try_get(group, LOG_HEAD_ITEM)?)
}

/// Parses a fetched `_log_head` object (`None`: the group publishes no
/// log).
pub(crate) fn parse_head(fetched: Option<(Bytes, u64)>) -> Result<Option<LogCommitment>, AcsError> {
    match fetched {
        None => Ok(None),
        Some((bytes, _)) => Ok(Some(LogCommitment::from_bytes(&bytes)?)),
    }
}

/// Verifies that the head `group` currently publishes extends `prior`,
/// fetching the O(log n) consistency path from the store. Returns the new
/// (now-trusted) head.
///
/// Fails closed: a vanished head, a smaller head, an equal-size head with
/// a different root, or a path that does not reproduce `prior` all surface
/// as [`AcsError::Verify`]. Store faults surface as [`AcsError::Store`]
/// (transient — nothing was trusted, retry later).
pub fn verify_extends(
    store: &StoreHandle,
    group: &str,
    prior: &LogCommitment,
) -> Result<LogCommitment, AcsError> {
    check_head(store, group, prior, fetch_head(store, group)?)
}

/// [`verify_extends`] over a head already read from `group`'s folder
/// (`None`: no head published): it must equal `prior` or extend it. The
/// consistency path is fetched in one request, and only when the head
/// moved.
pub(crate) fn check_head(
    store: &StoreHandle,
    group: &str,
    prior: &LogCommitment,
    head: Option<LogCommitment>,
) -> Result<LogCommitment, AcsError> {
    let span = telemetry::span("oplog.verify").with("group", group).enter();
    let head = match head {
        Some(head) => head,
        // a store that once served a non-empty head cannot unserve it
        None if prior.size == 0 => return Ok(*prior),
        None => return Err(AcsError::Verify(VerifyError::HeadVanished)),
    };
    span.record("prior", prior.size);
    span.record("head", head.size);
    if head == *prior {
        return Ok(head); // unchanged — nothing to fetch
    }
    if head.size < prior.size {
        return Err(AcsError::Verify(VerifyError::Truncated {
            prior: prior.size,
            current: head.size,
        }));
    }
    if head.size == prior.size {
        // equal size, different root (the equal case returned above)
        return Err(AcsError::Verify(VerifyError::Forked { size: head.size }));
    }
    let (proof, _) = with_nodes(store, group, |src| {
        consistency_proof(src, prior.size, head.size)
    })?;
    verify_consistency(prior, &head, &proof)?;
    Ok(head)
}

/// A compact fraud-proof unit: one signed log entry plus the Merkle
/// evidence that appending exactly that entry took the published log from
/// `proof.pre` to `proof.post`.
///
/// Verification needs no log, no group membership and no secret — only the
/// registered admin verification keys — which is what lets a third-party
/// [`Auditor`] replay membership transitions godwoken-style from O(log n)
/// bytes.
#[derive(Clone, Debug)]
pub struct SignedTransition {
    /// Merkle evidence for the single-entry append.
    pub proof: TransitionProof,
    /// The appended entry (its bytes hash to `proof.leaf`).
    pub entry: LogEntry,
}

impl SignedTransition {
    /// Replays the transition: Merkle structure, leaf/entry binding, and
    /// the entry check ([`LogEntry::verify_at`]) against `proof.pre` — the
    /// entry must have been signed, by an admin in `keys`, as `group`'s
    /// entry number `proof.pre.size` over the root `proof.pre.root`.
    ///
    /// # Errors
    /// The first failed check, as a [`VerifyError`].
    pub fn verify(
        &self,
        keys: &HashMap<String, VerifyingKey>,
        group: &str,
    ) -> Result<(), VerifyError> {
        self.proof.verify()?;
        if self.proof.leaf != leaf_hash(&self.entry.to_bytes()) {
            return Err(VerifyError::BadTransition(
                "proof leaf does not commit to the entry",
            ));
        }
        self.entry.verify_at(keys, group, &self.proof.pre)
    }

    /// Wire form: `proof_len:u32 ‖ proof ‖ entry` (the entry is
    /// tail-delimited).
    pub fn to_bytes(&self) -> Vec<u8> {
        let proof = self.proof.to_bytes();
        let mut out = Vec::with_capacity(4 + proof.len() + 64);
        out.extend_from_slice(&(proof.len() as u32).to_be_bytes());
        out.extend_from_slice(&proof);
        out.extend_from_slice(&self.entry.to_bytes());
        out
    }

    /// Parses the wire form.
    ///
    /// # Errors
    /// [`VerifyError::Malformed`] on framing or entry-decoding failure.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, VerifyError> {
        let plen = u32::from_be_bytes(
            bytes
                .get(..4)
                .ok_or(VerifyError::Malformed("transition too short"))?
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        let proof_bytes = bytes
            .get(4..4 + plen)
            .ok_or(VerifyError::Malformed("transition proof truncated"))?;
        let proof = TransitionProof::from_bytes(proof_bytes)?;
        let entry = LogEntry::from_bytes(&bytes[4 + plen..])
            .ok_or(VerifyError::Malformed("transition entry"))?;
        Ok(Self { proof, entry })
    }
}

/// Builds the [`SignedTransition`] for the append that put entry
/// `pre_size` into `group`'s published log, fetching the O(log n) proof
/// material and the entry in one request.
///
/// # Errors
/// [`AcsError::Store`] on store faults, [`AcsError::Verify`] when required
/// objects are missing or malformed.
pub fn fetch_transition(
    store: &StoreHandle,
    group: &str,
    pre_size: u64,
) -> Result<SignedTransition, AcsError> {
    let (proof, objects) = with_nodes(store, group, |src| TransitionProof::build(src, pre_size))?;
    // the build read the appended entry as its leaf
    let entry = LogEntry::from_bytes(&objects.0[&(0, pre_size)])
        .ok_or(AcsError::Verify(VerifyError::Malformed("log entry")))?;
    Ok(SignedTransition { proof, entry })
}

/// What a full log audit established.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// The head every entry was verified against.
    pub head: LogCommitment,
    /// Membership the verified log implies for the group.
    pub membership: Vec<String>,
}

/// An untrusted third-party log auditor.
///
/// Holds only registered admin *verification* keys — no enclave, no group
/// membership, no ability to read any group key — plus the last head it
/// observed per group (its equivocation memory). Everything it verifies
/// comes off the untrusted store.
#[derive(Debug, Default)]
pub struct Auditor {
    keys: HashMap<String, VerifyingKey>,
    observed: Mutex<HashMap<String, LogCommitment>>,
}

impl Auditor {
    /// An auditor trusting no admins yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an admin's verification key under its log label.
    pub fn register_admin(&mut self, name: impl Into<String>, key: VerifyingKey) {
        self.keys.insert(name.into(), key);
    }

    /// The registered key set (shape consumed by [`SignedTransition::verify`]).
    pub fn keys(&self) -> &HashMap<String, VerifyingKey> {
        &self.keys
    }

    /// Records a head observed for `group` (e.g. relayed by a client) and
    /// cross-checks it against previous observations: a same-size head with
    /// a different root is equivocation, a smaller head is a rollback.
    ///
    /// This is the gossip half of fork detection — a store that shows every
    /// client a *self*-consistent but mutually diverging history is only
    /// caught when their heads meet here.
    ///
    /// # Errors
    /// [`VerifyError::Forked`] or [`VerifyError::Truncated`].
    pub fn observe(&self, group: &str, head: LogCommitment) -> Result<(), VerifyError> {
        let mut observed = self.observed.lock();
        if let Some(prev) = observed.get(group) {
            if head.size == prev.size && head.root != prev.root {
                return Err(VerifyError::Forked { size: head.size });
            }
            if head.size < prev.size {
                return Err(VerifyError::Truncated {
                    prior: prev.size,
                    current: head.size,
                });
            }
        }
        observed.insert(group.to_string(), head);
        Ok(())
    }

    /// Last head observed for `group`, if any.
    pub fn observed_head(&self, group: &str) -> Option<LogCommitment> {
        self.observed.lock().get(group).copied()
    }

    /// Verifies one fraud-proof unit against the registered keys and the
    /// auditor's equivocation memory, then adopts the post-head. Returns
    /// the now-trusted head.
    ///
    /// # Errors
    /// Any [`VerifyError`] the proof, signature, or head bookkeeping
    /// raises.
    pub fn verify_transition(
        &self,
        group: &str,
        transition: &SignedTransition,
    ) -> Result<LogCommitment, VerifyError> {
        let _span = telemetry::span("oplog.audit").with("group", group).enter();
        transition.verify(&self.keys, group)?;
        // the pre-head must agree with whatever we have already seen …
        let observed = self.observed_head(group);
        if let Some(prev) = observed {
            if prev.size == transition.proof.pre.size && prev.root != transition.proof.pre.root {
                return Err(VerifyError::Forked { size: prev.size });
            }
        }
        // … and the post-head goes through the same cross-check as any
        // other observation
        self.observe(group, transition.proof.post)?;
        Ok(transition.proof.post)
    }

    /// Audits `group`'s entire published log: every entry must parse and
    /// pass the entry check ([`LogEntry::verify_at`]) against the head of
    /// the entries before it; the Merkle root over the entry bytes must
    /// equal the published head; the head must pass the equivocation
    /// cross-check. Returns the verified head and the membership the log
    /// implies.
    ///
    /// # Errors
    /// [`AcsError::Store`] on store faults (retry), [`AcsError::Verify`]
    /// on any detection.
    pub fn audit_group(&self, store: &StoreHandle, group: &str) -> Result<AuditReport, AcsError> {
        let span = telemetry::span("oplog.audit").with("group", group).enter();
        let head = fetch_head(store, group)?.ok_or(AcsError::Verify(VerifyError::Malformed(
            "group publishes no log head",
        )))?;
        span.record("entries", head.size);
        let mut merkle = MerkleLog::new();
        let mut membership = Vec::new();
        for i in 0..head.size {
            let (bytes, _) = store
                .try_get(group, &log_entry_item(i))?
                .ok_or(AcsError::Verify(VerifyError::MissingNode {
                    level: 0,
                    index: i,
                }))?;
            let entry = LogEntry::from_bytes(&bytes)
                .ok_or(AcsError::Verify(VerifyError::Malformed("log entry")))?;
            entry.verify_at(&self.keys, group, &merkle.commitment())?;
            merkle.append_leaf(leaf_hash(&bytes));
            entry.op.apply(&mut membership);
        }
        if merkle.root() != head.root {
            return Err(AcsError::Verify(VerifyError::RootMismatch));
        }
        self.observe(group, head).map_err(AcsError::Verify)?;
        Ok(AuditReport { head, membership })
    }
}
