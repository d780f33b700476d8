//! Certified membership-operation log — the paper's third future-work item
//! (§VIII): *"in a setup with multiple administrators, one can envision
//! certifying blocks of membership operations logs through blockchain-like
//! technologies."*
//!
//! Every membership operation is one Schnorr-signed [`LogEntry`] in its
//! group's log (`sgx_sim::bls`, over secp256k1). The signature binds the
//! entry's *place*: the group, the entry's index in that group's log, and
//! the Merkle root of the log before the append. [`LogEntry::verify_at`]
//! is the one check every verifier applies; folded over a served prefix
//! it rules out insertion, deletion, reordering and entries from
//! unregistered admins. The log is public (it contains only identities
//! and operation types, which the paper's model already exposes) and is
//! stored on the untrusted cloud next to the group metadata — see
//! [`crate::verilog`] for the published layout and for who detects what.

use oplog::{Hash, LogCommitment, VerifyError};
use sgx_sim::bls::{Signature, SigningKey, VerifyingKey};
use std::collections::HashMap;

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
    pub(crate) fn apply(&self, members: &mut Vec<String>) {
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
        fn decode_list(bytes: &[u8], cur: &mut usize) -> Option<Vec<String>> {
            let count = u32::from_be_bytes(bytes.get(*cur..*cur + 4)?.try_into().ok()?) as usize;
            *cur += 4;
            let mut list = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let len = u16::from_be_bytes(bytes.get(*cur..*cur + 2)?.try_into().ok()?) as usize;
                *cur += 2;
                let s = std::str::from_utf8(bytes.get(*cur..*cur + len)?).ok()?;
                *cur += len;
                list.push(s.to_string());
            }
            Some(list)
        }
        let (&tag, rest) = bytes.split_first()?;
        let op = match tag {
            0 => {
                let mut cur = 0;
                let members = decode_list(rest, &mut cur)?;
                if cur != rest.len() {
                    return None;
                }
                LogOp::Create { members }
            }
            1 => LogOp::Add {
                user: std::str::from_utf8(rest).ok()?.to_string(),
            },
            2 => LogOp::Remove {
                user: std::str::from_utf8(rest).ok()?.to_string(),
            },
            3 => {
                if !rest.is_empty() {
                    return None;
                }
                LogOp::Rekey
            }
            4 => {
                let mut cur = 0;
                let adds = decode_list(rest, &mut cur)?;
                let removes = decode_list(rest, &mut cur)?;
                let epoch = u64::from_be_bytes(rest.get(cur..cur + 8)?.try_into().ok()?);
                cur += 8;
                if cur != rest.len() {
                    return None;
                }
                LogOp::Batch {
                    adds,
                    removes,
                    epoch,
                }
            }
            _ => return None,
        };
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
        let mut cur = 0usize;
        let take = |cur: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*cur..*cur + n)?;
            *cur += n;
            Some(s)
        };
        let index = u64::from_be_bytes(take(&mut cur, 8)?.try_into().ok()?);
        let glen = u16::from_be_bytes(take(&mut cur, 2)?.try_into().ok()?) as usize;
        let group = std::str::from_utf8(take(&mut cur, glen)?).ok()?.to_string();
        let oplen = u32::from_be_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
        let op = LogOp::decode(take(&mut cur, oplen)?)?;
        let pre_root: Hash = take(&mut cur, 32)?.try_into().ok()?;
        let alen = u16::from_be_bytes(take(&mut cur, 2)?.try_into().ok()?) as usize;
        let admin = std::str::from_utf8(take(&mut cur, alen)?).ok()?.to_string();
        let slen = u16::from_be_bytes(take(&mut cur, 2)?.try_into().ok()?) as usize;
        let signature = Signature::from_bytes(take(&mut cur, slen)?)?;
        if cur != bytes.len() {
            return None;
        }
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
    /// [`crate::verilog`] says what folding this over a served log does and
    /// does not establish.
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
    /// Crate-private: [`crate::verilog::GroupLog::append`] is the one
    /// place an entry is created, so signed place and actual place cannot
    /// drift apart.
    pub(crate) fn sign_at(&self, group: &str, op: LogOp, pre: &LogCommitment) -> LogEntry {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::rebuild_log;
    use crate::verilog::{Auditor, GroupLog};
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
