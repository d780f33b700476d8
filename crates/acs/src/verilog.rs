//! The certified membership log — the paper's third future-work item
//! (§VIII): *"in a setup with multiple administrators, one can envision
//! certifying blocks of membership operations logs through blockchain-like
//! technologies."* One public log per group (it holds only identities and
//! operation types, which the paper's model already exposes), published
//! as Merkle-tree objects next to the group metadata on the untrusted
//! store, and the checks that catch the store lying about it.
//!
//! Every membership operation is one Schnorr-signed [`LogEntry`]
//! (`sgx_sim::bls`, over secp256k1) whose signature binds its *place*: the
//! group, its index in that group's log and the Merkle root of the log
//! before the append. [`LogEntry::verify_at`], the one entry check, is the
//! only code that looks up an admin key and verifies a signature.
//!
//! * **Admins** ([`crate::Admin::with_signer`]) append each mutation to the
//!   group's [`GroupLog`] and publish the entry, the completed tree nodes
//!   and the new head — in the *same* atomic `put_many` round-trip as the
//!   group metadata the mutation produced.
//! * **Clients** pin the last verified [`LogCommitment`] (40 bytes) and,
//!   before acting on any new state, demand an O(log n) consistency proof
//!   that the published head extends it ([`verify_extends`]). A sync is
//!   one [`cloud_store::ObjectStore::try_get_many`] of the head with the
//!   metadata it vouches for, then — only when the head moved — one more
//!   for the consistency path, whose node ids depend only on the two
//!   sizes. A store that forks, rewrites, or truncates the history a
//!   client has seen fails the proof, and the client derives no key from
//!   the forged metadata.
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
//! | `_log_e{i:08}` | serialized signed [`LogEntry`] `i` (immutable) |
//! | `_log_n{l:02}_{i:08}` | 32-byte complete-subtree root `(l,i)`, `l ≥ 1` (immutable) |
//!
//! Leaf hashes are recomputed from the entry objects themselves
//! ([`oplog::leaf_hash`] over the entry bytes), so every proof a verifier
//! fetches is anchored in the very bytes an auditor checks signatures on.
//!
//! The adversarial half, a store serving tampered views of this layout, is
//! test support: [`crate::fixtures::ForkingStore`].

use crate::error::AcsError;
use cloud_store::{Bytes, ObjectStore, StoreHandle};
use oplog::{
    consistency_proof, leaf_hash, verify_consistency, Hash, LogCommitment, MerkleLog, NodeSource,
    TransitionProof, VerifyError,
};
use parking_lot::Mutex;
use sgx_sim::bls::{Signature, SigningKey, VerifyingKey};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// A forward cursor over wire bytes, the one reader behind this module's
/// decoders. Every read is bounds-checked and yields `None` past the end;
/// whether trailing bytes are an error is each decoder's rule
/// ([`Reader::end`]).
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.0.split_at_checked(n)?;
        self.0 = tail;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u16(&mut self) -> Option<usize> {
        self.array().map(|b| u16::from_be_bytes(b) as usize)
    }

    fn u32(&mut self) -> Option<usize> {
        self.array().map(|b| u32::from_be_bytes(b) as usize)
    }

    /// A `len:u16 ‖ utf8` string.
    fn string(&mut self) -> Option<String> {
        let len = self.u16()?;
        Reader(self.take(len)?).text()
    }

    /// A `count:u32 ‖ string*` list.
    fn list(&mut self) -> Option<Vec<String>> {
        let count = self.u32()?;
        let mut list = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            list.push(self.string()?);
        }
        Some(list)
    }

    /// Everything not yet read (a tail-delimited field).
    fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.0)
    }

    /// Everything not yet read, as a utf8 string.
    fn text(&mut self) -> Option<String> {
        Some(std::str::from_utf8(self.rest()).ok()?.to_string())
    }

    /// `Some` when every byte has been read.
    fn end(&self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

/// The operation kinds a log records.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogOp {
    /// Group creation with an initial member list.
    Create {
        /// Initial members.
        members: Vec<String>,
    },
    /// Member addition.
    Add {
        /// Added identity.
        user: String,
    },
    /// Member revocation.
    Remove {
        /// Revoked identity.
        user: String,
    },
    /// Whole-group re-key (no membership change).
    Rekey,
    /// One coalesced batch of membership operations (the batched membership
    /// pipeline): the *net* additions and removals the batch applied. A
    /// batch that only refreshed the group key records empty sets.
    Batch {
        /// Net-added identities.
        adds: Vec<String>,
        /// Net-removed identities.
        removes: Vec<String>,
        /// Key epoch of the group after the batch: auditors can count key
        /// rotations (and cross-check the data plane's migration deadlines)
        /// straight from the log.
        epoch: u64,
    },
}

impl LogOp {
    /// Replays this operation onto `members`, the roster the entries
    /// before it imply.
    fn apply(&self, members: &mut Vec<String>) {
        match self {
            LogOp::Create { members: m } => members.clone_from(m),
            LogOp::Add { user } => members.push(user.clone()),
            LogOp::Remove { user } => members.retain(|u| u != user),
            LogOp::Rekey => {}
            LogOp::Batch { adds, removes, .. } => {
                // net sets are disjoint, so order does not matter
                members.extend(adds.iter().cloned());
                members.retain(|u| !removes.contains(u));
            }
        }
    }

    /// Parses the tagged encoding produced by `encode`, consuming the whole
    /// slice.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader(bytes);
        let op = match r.array::<1>()? {
            [0] => LogOp::Create { members: r.list()? },
            [1] => LogOp::Add { user: r.text()? },
            [2] => LogOp::Remove { user: r.text()? },
            [3] => LogOp::Rekey,
            [4] => LogOp::Batch {
                adds: r.list()?,
                removes: r.list()?,
                epoch: u64::from_be_bytes(r.array()?),
            },
            _ => return None,
        };
        r.end()?;
        Some(op)
    }

    fn encode(&self) -> Vec<u8> {
        fn encode_list(out: &mut Vec<u8>, list: &[String]) {
            out.extend_from_slice(&(list.len() as u32).to_be_bytes());
            for m in list {
                out.extend_from_slice(&(m.len() as u16).to_be_bytes());
                out.extend_from_slice(m.as_bytes());
            }
        }
        let mut out = Vec::new();
        match self {
            LogOp::Create { members } => {
                out.push(0);
                encode_list(&mut out, members);
            }
            LogOp::Add { user } => {
                out.push(1);
                out.extend_from_slice(user.as_bytes());
            }
            LogOp::Remove { user } => {
                out.push(2);
                out.extend_from_slice(user.as_bytes());
            }
            LogOp::Rekey => out.push(3),
            LogOp::Batch {
                adds,
                removes,
                epoch,
            } => {
                out.push(4);
                encode_list(&mut out, adds);
                encode_list(&mut out, removes);
                out.extend_from_slice(&epoch.to_be_bytes());
            }
        }
        out
    }
}

/// One signed log entry.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// Position in the group's log (0-based, dense, per group).
    pub index: u64,
    /// Group the operation applies to.
    pub group: String,
    /// The operation.
    pub op: LogOp,
    /// Merkle root of the group's log before this entry was appended (the
    /// empty-tree root for the group's first entry).
    pub pre_root: Hash,
    /// Identity label of the signing administrator.
    pub admin: String,
    signature: Signature,
}

impl LogEntry {
    /// Everything the signature covers, in wire framing:
    /// `index:u64 ‖ group_len:u16 ‖ group ‖ op_len:u32 ‖ op ‖ pre_root:32 ‖
    /// admin_len:u16 ‖ admin`.
    fn signed_bytes(index: u64, group: &str, op: &LogOp, pre_root: &Hash, admin: &str) -> Vec<u8> {
        let op = op.encode();
        let mut out = Vec::with_capacity(160 + op.len());
        out.extend_from_slice(&index.to_be_bytes());
        out.extend_from_slice(&(group.len() as u16).to_be_bytes());
        out.extend_from_slice(group.as_bytes());
        out.extend_from_slice(&(op.len() as u32).to_be_bytes());
        out.extend_from_slice(&op);
        out.extend_from_slice(pre_root);
        out.extend_from_slice(&(admin.len() as u16).to_be_bytes());
        out.extend_from_slice(admin.as_bytes());
        out
    }

    fn signed(&self) -> Vec<u8> {
        Self::signed_bytes(
            self.index,
            &self.group,
            &self.op,
            &self.pre_root,
            &self.admin,
        )
    }

    fn signing_message(signed: &[u8]) -> Vec<u8> {
        [b"ibbe-oplog-sign-v2".as_slice(), signed].concat()
    }

    /// Serializes the entry for cloud publication: the signed fields (see
    /// `signed_bytes`) followed by `sig_len:u16 ‖ signature`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.signed();
        let sig = self.signature.to_bytes();
        out.extend_from_slice(&(sig.len() as u16).to_be_bytes());
        out.extend_from_slice(&sig);
        out
    }

    /// Parses a published entry; rejects truncation, trailing bytes, and
    /// malformed operation encodings. Signature *validity* is a separate
    /// question answered by [`LogEntry::verify_at`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader(bytes);
        let index = u64::from_be_bytes(r.array()?);
        let group = r.string()?;
        let op_len = r.u32()?;
        let op = LogOp::decode(r.take(op_len)?)?;
        let pre_root = r.array()?;
        let admin = r.string()?;
        let sig_len = r.u16()?;
        let signature = Signature::from_bytes(r.take(sig_len)?)?;
        r.end()?;
        Some(Self {
            index,
            group,
            op,
            pre_root,
            admin,
            signature,
        })
    }

    /// The one entry check, shared by every verifier: is this the entry a
    /// registered admin signed as the next one of `group`'s log when that
    /// log stood at `pre`?
    ///
    /// The [module docs](crate::verilog) say what folding this over a served log
    /// does and does not establish.
    ///
    /// # Errors
    /// [`VerifyError::UnknownAdmin`], [`VerifyError::BadSignature`] (with
    /// `pre.size` as the position), or [`VerifyError::OutOfPlace`] naming
    /// the signed binding — group, index, pre-root — that does not hold
    /// here.
    pub fn verify_at(
        &self,
        keys: &HashMap<String, VerifyingKey>,
        group: &str,
        pre: &LogCommitment,
    ) -> Result<(), VerifyError> {
        let key = keys
            .get(&self.admin)
            .ok_or_else(|| VerifyError::UnknownAdmin(self.admin.clone()))?;
        if !key.verify(&Self::signing_message(&self.signed()), &self.signature) {
            return Err(VerifyError::BadSignature { seq: pre.size });
        }
        let out_of_place = |binding| VerifyError::OutOfPlace {
            position: pre.size,
            binding,
        };
        if self.group != group {
            return Err(out_of_place("group"));
        }
        if self.index != pre.size {
            return Err(out_of_place("index"));
        }
        if self.pre_root != pre.root {
            return Err(out_of_place("pre-root"));
        }
        Ok(())
    }
}

/// An administrator's signing identity for the log.
pub struct AdminSigner {
    /// Label recorded in entries.
    pub name: String,
    key: SigningKey,
}

impl AdminSigner {
    /// Creates a signer with a fresh key.
    pub fn new<R: rand::RngCore + ?Sized>(name: &str, rng: &mut R) -> Self {
        Self {
            name: name.to_string(),
            key: SigningKey::generate(rng),
        }
    }

    /// The verification key auditors register.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Signs `op` as the next entry of `group`'s log standing at `pre`.
    /// [`GroupLog::append`] is its one caller, so signed place and actual
    /// place cannot drift apart.
    fn sign_at(&self, group: &str, op: LogOp, pre: &LogCommitment) -> LogEntry {
        let signed = LogEntry::signed_bytes(pre.size, group, &op, &pre.root, &self.name);
        LogEntry {
            index: pre.size,
            group: group.to_string(),
            op,
            pre_root: pre.root,
            admin: self.name.clone(),
            signature: self.key.sign(&LogEntry::signing_message(&signed)),
        }
    }
}

impl core::fmt::Debug for AdminSigner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AdminSigner({})", self.name)
    }
}

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
        self.push(entry.to_bytes());
        entry
    }

    /// Appends one serialized entry and queues its object and the tree
    /// nodes it completed: the one place the published layout is written.
    fn push(&mut self, bytes: Vec<u8>) {
        let leaf = leaf_hash(&bytes);
        self.pending
            .push((log_entry_item(self.merkle.size()), bytes));
        for (level, index, hash) in self.merkle.append_leaf(leaf) {
            // level-0 hashes are recomputed from the entry objects;
            // verifiers only fetch interior nodes
            if level >= 1 {
                self.pending
                    .push((log_node_item(level, index), hash.to_vec()));
            }
        }
    }

    fn head_item(&self) -> (String, Vec<u8>) {
        let head = self.merkle.commitment().to_bytes().to_vec();
        (LOG_HEAD_ITEM.to_string(), head)
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
        items.push(self.head_item());
        items
    }

    /// Advances the watermark after a store round-trip that carried
    /// [`GroupLog::unpublished`] succeeded.
    pub fn mark_published(&mut self) {
        self.pending.clear();
    }
}

/// Rebuilds the complete log object set (entries, interior nodes, head)
/// over the given entry bytes, whatever they say — the forger's toolkit:
/// any entry sequence becomes an internally consistent published branch.
pub(crate) fn rebuild_log(entries: &[Bytes]) -> Vec<(String, Bytes)> {
    let mut log = GroupLog::default();
    for bytes in entries {
        log.push(bytes.to_vec());
    }
    let head = log.head_item();
    let items = log.pending.into_iter().chain([head]);
    items.map(|(name, bytes)| (name, bytes.into())).collect()
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

/// The head-ordering rule every verifier applies to a head against one it
/// already holds: a smaller head is a rollback, a same-size head with
/// another root is a fork. A larger head still needs its consistency
/// proof.
fn check_order(prior: &LogCommitment, head: &LogCommitment) -> Result<(), VerifyError> {
    if head.size < prior.size {
        return Err(VerifyError::Truncated {
            prior: prior.size,
            current: head.size,
        });
    }
    if head.size == prior.size && head.root != prior.root {
        return Err(VerifyError::Forked { size: head.size });
    }
    Ok(())
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
    check_order(prior, &head)?;
    if head == *prior {
        return Ok(head); // unchanged — nothing to fetch
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
        let malformed = VerifyError::Malformed;
        let mut r = Reader(bytes);
        let len = r.u32().ok_or(malformed("transition too short"))?;
        let proof = r.take(len).ok_or(malformed("transition proof truncated"))?;
        let proof = TransitionProof::from_bytes(proof)?;
        let entry = LogEntry::from_bytes(r.rest()).ok_or(malformed("transition entry"))?;
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
            check_order(prev, &head)?;
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
        // the pre-head must not fork whatever we have already seen (an
        // older pre-head is a historical transition, not a rollback) …
        let seen = self.observed_head(group);
        let order = seen.map(|seen| check_order(&seen, &transition.proof.pre));
        if let Some(Err(fork @ VerifyError::Forked { .. })) = order {
            return Err(fork);
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

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_store::{Bytes, CloudStore, StoreHandle};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(71)
    }

    /// Two signers sharing one group log.
    fn setup() -> (GroupLog, AdminSigner, AdminSigner) {
        let mut r = rng();
        let a1 = AdminSigner::new("alice-admin", &mut r);
        let a2 = AdminSigner::new("bob-admin", &mut r);
        (GroupLog::default(), a1, a2)
    }

    /// An auditor with no memory, trusting alice-admin and bob-admin.
    fn fresh_auditor(a1: &AdminSigner, a2: &AdminSigner) -> Auditor {
        let mut auditor = Auditor::new();
        auditor.register_admin(a1.name.clone(), a1.verifying_key());
        auditor.register_admin(a2.name.clone(), a2.verifying_key());
        auditor
    }

    /// A store serving `entries` as group `g`'s log — entry objects, tree
    /// nodes and head all consistent with each other, whatever the entries
    /// themselves say.
    fn serving(entries: &[LogEntry]) -> StoreHandle {
        let bytes: Vec<Bytes> = entries.iter().map(|e| e.to_bytes().into()).collect();
        let store = CloudStore::new();
        store.put_many("g", rebuild_log(&bytes));
        store.into()
    }

    fn audit_err(auditor: &Auditor, entries: &[LogEntry]) -> VerifyError {
        match auditor.audit_group(&serving(entries), "g") {
            Err(crate::AcsError::Verify(e)) => e,
            other => panic!("expected a detection, got {other:?}"),
        }
    }

    #[test]
    fn multi_admin_log_verifies() {
        let (mut log, a1, a2) = setup();
        let create = LogOp::Create {
            members: vec!["u0".into(), "u1".into()],
        };
        log.append(&a1, "g", create);
        log.append(&a2, "g", LogOp::Add { user: "u2".into() });
        log.append(&a1, "g", LogOp::Remove { user: "u0".into() });
        log.append(&a2, "g", LogOp::Rekey);
        // what the writers publish is what the auditor accepts
        let store = CloudStore::new();
        store.put_many("g", log.unpublished());
        let report = fresh_auditor(&a1, &a2)
            .audit_group(&store.into(), "g")
            .unwrap();
        assert_eq!(Some(report.head), log.head());
        assert_eq!(report.membership, vec!["u1".to_string(), "u2".to_string()]);
    }

    #[test]
    fn batch_entry_verifies_and_replays_net_membership() {
        let (mut log, a1, a2) = setup();
        let create = LogOp::Create {
            members: vec!["u0".into(), "u1".into(), "u2".into()],
        };
        let batch = LogOp::Batch {
            adds: vec!["u3".into(), "u4".into()],
            removes: vec!["u0".into(), "u2".into()],
            epoch: 2,
        };
        let mut entries = vec![log.append(&a1, "g", create), log.append(&a2, "g", batch)];
        let auditor = fresh_auditor(&a1, &a2);
        let report = auditor.audit_group(&serving(&entries), "g").unwrap();
        assert_eq!(
            report.membership,
            vec!["u1".to_string(), "u3".to_string(), "u4".to_string()]
        );
        // tampering with the batch contents breaks the signature
        if let LogOp::Batch { adds, .. } = &mut entries[1].op {
            adds.push("mallory".into());
        }
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::BadSignature { seq: 1 }
        );
    }

    #[test]
    fn tampered_entry_detected() {
        let (mut log, a1, a2) = setup();
        let create = LogOp::Create {
            members: vec!["u0".into()],
        };
        let mut entries = vec![
            log.append(&a1, "g", create),
            log.append(&a1, "g", LogOp::Add { user: "u1".into() }),
        ];
        // retroactively change who was added
        entries[1].op = LogOp::Add {
            user: "mallory".into(),
        };
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::BadSignature { seq: 1 }
        );
    }

    #[test]
    fn reordering_detected() {
        let (mut log, a1, a2) = setup();
        let create = LogOp::Create {
            members: vec!["u0".into()],
        };
        let mut entries = vec![
            log.append(&a1, "g", create),
            log.append(&a1, "g", LogOp::Add { user: "u1".into() }),
            log.append(&a1, "g", LogOp::Remove { user: "u1".into() }),
        ];
        entries.swap(1, 2);
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::OutOfPlace {
                position: 1,
                binding: "index"
            }
        );
    }

    #[test]
    fn stale_entry_reinsertion_detected() {
        let (mut log, a1, a2) = setup();
        let mut entries = vec![
            log.append(&a1, "g", LogOp::Create { members: vec![] }),
            log.append(&a1, "g", LogOp::Add { user: "u1".into() }),
        ];
        // replay entry 1 at the tail: it was signed for index 1 …
        entries.push(entries[1].clone());
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::OutOfPlace {
                position: 2,
                binding: "index"
            }
        );
        // … and fixing the index up breaks the signature that binds it
        entries[2].index = 2;
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::BadSignature { seq: 2 }
        );
        // an entry signed at the right index over a different prefix (here:
        // by a second writer whose copy of the log diverged) is out of place
        // too
        let mut diverged = GroupLog::default();
        diverged.append(&a2, "g", LogOp::Create { members: vec![] });
        diverged.append(&a2, "g", LogOp::Rekey);
        entries[2] = diverged.append(&a2, "g", LogOp::Add { user: "u2".into() });
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::OutOfPlace {
                position: 2,
                binding: "pre-root"
            }
        );
    }

    #[test]
    fn unknown_admin_rejected() {
        let (mut log, a1, a2) = setup();
        let rogue = AdminSigner::new("rogue", &mut rng());
        let entries = vec![
            log.append(&a1, "g", LogOp::Create { members: vec![] }),
            log.append(
                &rogue,
                "g",
                LogOp::Add {
                    user: "backdoor".into(),
                },
            ),
        ];
        assert_eq!(
            audit_err(&fresh_auditor(&a1, &a2), &entries),
            VerifyError::UnknownAdmin("rogue".into())
        );
    }

    #[test]
    fn truncation_is_not_detectable_but_extension_is() {
        // the documented limit: a prefix of an honest log is an honest log,
        // so a verifier with no memory accepts a dropped suffix — only a
        // head it already holds (its own, or one relayed to `observe`)
        // exposes the missing tail
        let (mut log, a1, a2) = setup();
        let entries = vec![
            log.append(&a1, "g", LogOp::Create { members: vec![] }),
            log.append(&a1, "g", LogOp::Add { user: "u".into() }),
        ];
        let fresh = fresh_auditor(&a1, &a2);
        let report = fresh.audit_group(&serving(&entries[..1]), "g").unwrap();
        assert!(report.membership.is_empty(), "the add was silently lost");

        let seasoned = fresh_auditor(&a1, &a2);
        seasoned.audit_group(&serving(&entries), "g").unwrap();
        assert_eq!(
            audit_err(&seasoned, &entries[..1]),
            VerifyError::Truncated {
                prior: 2,
                current: 1
            }
        );
    }

    #[test]
    fn wire_roundtrip_preserves_every_op_kind() {
        let (mut log, a1, a2) = setup();
        let keys = fresh_auditor(&a1, &a2).keys().clone();
        let ops = [
            LogOp::Create {
                members: vec!["u0".into(), "u1".into()],
            },
            LogOp::Add { user: "u2".into() },
            LogOp::Remove { user: "u0".into() },
            LogOp::Rekey,
            LogOp::Batch {
                adds: vec!["u3".into()],
                removes: vec![],
                epoch: 3,
            },
        ];
        for (i, op) in ops.into_iter().enumerate() {
            let pre = log.head().unwrap_or(LogCommitment::empty());
            let entry = log.append(if i % 2 == 0 { &a1 } else { &a2 }, "g", op);
            let wire = entry.to_bytes();
            let decoded = LogEntry::from_bytes(&wire).expect("roundtrip");
            assert_eq!(decoded.to_bytes(), wire, "re-encoding is stable");
            assert_eq!(decoded.op, entry.op);
            assert_eq!(decoded.verify_at(&keys, "g", &pre), Ok(()));
            // framing is strict: trailing garbage and truncation both fail
            let mut padded = wire.clone();
            padded.push(0);
            assert!(LogEntry::from_bytes(&padded).is_none());
            assert!(LogEntry::from_bytes(&wire[..wire.len() - 1]).is_none());
        }
    }
}
