//! Test and benchmark support: the multi-group [`FleetFixture`] and the
//! adversarial [`ForkingStore`].
//!
//! Fleet-scale scenarios (many groups, one engine, one store) keep
//! re-building the same scaffolding: a deterministically seeded
//! [`GroupEngine`], one [`Admin`], G groups each holding its own members
//! plus a set of shared service identities (writers, sweepers), and user
//! keys for whoever needs a session. [`FleetFixture`] packages that so the
//! `dataplane` scheduler and fault suites spell their deployment in one
//! call instead of thirty lines.
//!
//! The fixture stays control-plane only on purpose — data-plane sessions
//! live a crate above; build them from [`FleetFixture::usk`] and
//! [`FleetFixture::public_key`].
//!
//! [`ForkingStore`] is the adversarial half of [`crate::verilog`]: a store
//! wrapper that serves tampered views of the published op-log (rollback,
//! rewrite, truncation, dropped or reordered entries, forged appends,
//! per-client equivocation) so tests can assert each one is detected.

use crate::admin::Admin;
use crate::error::AcsError;
use crate::verilog::rebuild_log;
use cloud_store::{
    Bytes, MetricsSnapshot, ObjectStore, PollResult, Request, RequestOp, Response, StoreError,
    StoreHandle,
};
use ibbe::{PublicKey, UserSecretKey};
use ibbe_sgx_core::{GroupEngine, PartitionSize};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// One admin over many groups, with the service identities every group
/// shares — the standard multi-tenant test/bench scaffold.
pub struct FleetFixture {
    admin: Admin,
    groups: Vec<String>,
    service_identities: Vec<String>,
}

impl FleetFixture {
    /// Boots a seeded engine over `store` and creates one group per
    /// `(name, members)` spec, appending `service_identities` (e.g. a
    /// writer and a sweeper) to every group's roster.
    ///
    /// # Errors
    /// Engine bootstrap or group-creation failures (e.g. a duplicate
    /// group name).
    pub fn new(
        store: impl Into<StoreHandle>,
        partition_size: PartitionSize,
        specs: &[(String, Vec<String>)],
        service_identities: &[String],
        seed: u64,
    ) -> Result<Self, AcsError> {
        let mut seed_bytes = [0u8; 32];
        seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
        let engine = GroupEngine::bootstrap_seeded(partition_size, seed_bytes)?;
        let admin = Admin::new(engine, store);
        let mut groups = Vec::with_capacity(specs.len());
        for (name, members) in specs {
            let mut roster = members.clone();
            roster.extend(service_identities.iter().cloned());
            admin.create_group(name, roster)?;
            groups.push(name.clone());
        }
        Ok(Self {
            admin,
            groups,
            service_identities: service_identities.to_vec(),
        })
    }

    /// The admin governing every group.
    pub fn admin(&self) -> &Admin {
        &self.admin
    }

    /// Group names, in creation order.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }

    /// The service identities appended to every group.
    pub fn service_identities(&self) -> &[String] {
        &self.service_identities
    }

    /// The engine's public key (session construction).
    pub fn public_key(&self) -> PublicKey {
        self.admin.engine().public_key().clone()
    }

    /// Extracts `identity`'s user secret key (session construction; an
    /// identity shared across groups needs only one key).
    ///
    /// # Errors
    /// Enclave key-extraction failures.
    pub fn usk(&self, identity: &str) -> Result<UserSecretKey, AcsError> {
        Ok(self.admin.engine().extract_user_key(identity)?)
    }
}

impl core::fmt::Debug for FleetFixture {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "FleetFixture({} groups, {} service identities)",
            self.groups.len(),
            self.service_identities.len()
        )
    }
}

/// The tampering a [`ForkingStore`] can apply to one folder's view.
#[derive(Clone, Debug)]
pub enum Tamper {
    /// Freeze the folder at its current contents: later honest writes are
    /// accepted but never shown through this view.
    Rollback,
    /// Serve the log as if its last `drop` entries never happened — a
    /// frozen, internally consistent truncated branch (head, nodes and
    /// entry set all agree with each other).
    Truncate {
        /// Number of trailing entries to erase.
        drop: u64,
    },
    /// Serve the log as if entry `index` never happened: the remaining
    /// entries are renumbered densely and nodes and head recomputed over
    /// them, so the branch is structurally a perfectly good log — only the
    /// place each surviving entry was *signed* for gives it away.
    DropEntry {
        /// Index of the entry to erase.
        index: u64,
    },
    /// The general form of the two above: serve exactly the entries at
    /// these indices, in this order (omit one to drop it, repeat one to
    /// duplicate it, permute to reorder), as a frozen, internally
    /// consistent branch.
    Resequence {
        /// Indices into the current log, in serving order.
        order: Vec<u64>,
    },
    /// Flip a byte of entry `index` and republish a *self-consistent*
    /// Merkle branch over the rewritten history: every node object and the
    /// head are recomputed, so nothing is detectable by structure alone.
    RewriteEntry {
        /// Index of the entry to rewrite.
        index: u64,
    },
    /// Append attacker-chosen entry bytes and extend the tree over them —
    /// the one attack consistency proofs *cannot* catch (it is a genuine
    /// extension), left for signature-checking auditors.
    ForgeAppend {
        /// The forged entry bytes.
        entry: Vec<u8>,
    },
}

enum View {
    /// Serve exactly this snapshot; the folder clock is frozen too.
    Frozen {
        version: u64,
        items: HashMap<String, Bytes>,
    },
    /// Serve the live folder with these items replaced/added, advertising
    /// `bump` extra folder versions so watchers take notice.
    Overlay {
        bump: u64,
        items: HashMap<String, Bytes>,
    },
}

/// A malicious store: wraps any inner store and serves per-folder tampered
/// views (see [`Tamper`]) while passing writes through untouched.
///
/// Views are per-instance: [`ForkingStore::split_view`] yields a second
/// front-end over the *same* inner store with independent tampering — the
/// equivocation scenario, where two clients each see a self-consistent but
/// mutually diverging history.
///
/// Plugs in anywhere a store does (same [`ObjectStore`] seam as
/// [`cloud_store::FaultyStore`]): `StoreHandle::from(forking)`.
#[derive(Clone)]
pub struct ForkingStore {
    inner: StoreHandle,
    views: Arc<Mutex<HashMap<String, View>>>,
}

impl ForkingStore {
    /// Wraps `inner`; all folders start honest.
    pub fn new(inner: impl Into<StoreHandle>) -> Self {
        Self {
            inner: inner.into(),
            views: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The wrapped (honest) store.
    pub fn inner(&self) -> &StoreHandle {
        &self.inner
    }

    /// A second front-end over the same inner store with its own tamper
    /// state (for serving different clients diverging views).
    pub fn split_view(&self) -> ForkingStore {
        Self {
            inner: self.inner.clone(),
            views: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Stops tampering with `folder` (the live view shows through again).
    pub fn heal(&self, folder: &str) {
        self.views.lock().remove(folder);
    }

    /// Applies `tamper` to this view of `folder`, building the forged
    /// branch from the folder's current contents.
    ///
    /// # Errors
    /// [`AcsError::Store`] if reading the current contents fails,
    /// [`AcsError::WireFormat`] if the tamper references log entries the
    /// folder does not have.
    pub fn tamper(&self, folder: &str, tamper: Tamper) -> Result<(), AcsError> {
        let view = match tamper {
            Tamper::Rollback => {
                let (version, items) = self.snapshot(folder)?;
                View::Frozen { version, items }
            }
            Tamper::Truncate { drop } => {
                self.resequenced(folder, |len| (0..len.saturating_sub(drop)).collect())?
            }
            Tamper::DropEntry { index } => {
                self.resequenced(folder, |len| (0..len).filter(|&i| i != index).collect())?
            }
            Tamper::Resequence { order } => self.resequenced(folder, |_| order)?,
            Tamper::RewriteEntry { index } => {
                let mut entries = log_entries(&self.snapshot(folder)?.1);
                let forged = entries
                    .get_mut(index as usize)
                    .ok_or(AcsError::WireFormat("tamper index beyond log"))?;
                let mut bytes = forged.to_vec();
                *bytes
                    .last_mut()
                    .ok_or(AcsError::WireFormat("empty log entry"))? ^= 0x01;
                *forged = Bytes::from(bytes);
                View::Overlay {
                    bump: 1,
                    items: rebuild_log(&entries).into_iter().collect(),
                }
            }
            Tamper::ForgeAppend { entry } => {
                let mut entries = log_entries(&self.snapshot(folder)?.1);
                entries.push(Bytes::from(entry));
                View::Overlay {
                    bump: 1,
                    items: rebuild_log(&entries).into_iter().collect(),
                }
            }
        };
        self.views.lock().insert(folder.to_string(), view);
        Ok(())
    }

    /// A frozen view of `folder` whose log is the current entries at the
    /// indices `order` picks (given the log's length), rebuilt into an
    /// internally consistent branch.
    fn resequenced(
        &self,
        folder: &str,
        order: impl FnOnce(u64) -> Vec<u64>,
    ) -> Result<View, AcsError> {
        let (version, mut items) = self.snapshot(folder)?;
        let entries = log_entries(&items);
        let served = order(entries.len() as u64)
            .into_iter()
            .map(|i| entries.get(i as usize).cloned())
            .collect::<Option<Vec<Bytes>>>()
            .ok_or(AcsError::WireFormat("tamper index beyond log"))?;
        items.retain(|name, _| !name.starts_with("_log_"));
        items.extend(rebuild_log(&served));
        Ok(View::Frozen { version, items })
    }

    /// `folder`'s items and clock, read in one snapshot.
    fn snapshot(&self, folder: &str) -> Result<(u64, HashMap<String, Bytes>), AcsError> {
        let names = self.inner.try_list(folder)?;
        let (found, version) = self.inner.try_get_many(folder, names.clone())?;
        let items = names.into_iter().zip(found);
        let items = items.filter_map(|(name, got)| Some((name, got?.0)));
        Ok((version, items.collect()))
    }
}

/// The log entry bytes among a folder's `items`, in index order (the
/// indices are zero-padded: lexicographic order is numeric order).
fn log_entries(items: &HashMap<String, Bytes>) -> Vec<Bytes> {
    let entries = items.iter().filter(|(name, _)| name.starts_with("_log_e"));
    let entries: BTreeMap<_, _> = entries.collect();
    entries.into_values().cloned().collect()
}

/// What a long poll against a tampered folder does, extracted from the
/// view so the poll can block without holding the view lock.
enum PollPlan {
    Frozen(u64),
    Overlay(u64, Vec<String>),
}

impl ForkingStore {
    /// The long poll of a tampered folder. Called with the view lock
    /// released: it blocks.
    fn forged_poll(
        &self,
        folder: &str,
        since: u64,
        timeout: Duration,
        plan: PollPlan,
    ) -> Result<PollResult, StoreError> {
        match plan {
            PollPlan::Frozen(version) => {
                // the frozen world never changes: burn (a slice of) the
                // timeout, then report it
                std::thread::sleep(timeout.min(Duration::from_millis(25)));
                Ok(PollResult {
                    version: version.min(since),
                    changed: Vec::new(),
                    timed_out: true,
                })
            }
            PollPlan::Overlay(bump, names) => {
                let live = self.inner.try_folder_version(folder)?;
                if live + bump > since {
                    // report immediately, presenting the forged items as
                    // freshly changed alongside any real changes
                    let mut poll =
                        self.inner
                            .try_long_poll(folder, since.min(live), Duration::ZERO)?;
                    poll.version = live + bump;
                    poll.timed_out = false;
                    for name in names {
                        if !poll.changed.contains(&name) {
                            poll.changed.push(name);
                        }
                    }
                    poll.changed.sort();
                    Ok(poll)
                } else {
                    let mut poll =
                        self.inner
                            .try_long_poll(folder, since.saturating_sub(bump), timeout)?;
                    poll.version += bump;
                    Ok(poll)
                }
            }
        }
    }
}

impl ObjectStore for ForkingStore {
    /// The tampering, stated once: reads of a tampered folder are answered
    /// from its tampered view; everything else — every write (the adversary
    /// controls what readers *see*, not what the admin stored), every
    /// honest folder, the folder listing — reaches the inner store.
    fn call(&self, request: Request) -> Result<Response, StoreError> {
        let folder = request.folder.as_str();
        let views = self.views.lock();
        let Some(view) = views.get(folder) else {
            drop(views);
            return self.inner.call(request);
        };
        match (&request.op, view) {
            // a GET and a clock read are a one- and a no-item snapshot
            (RequestOp::Get | RequestOp::FolderVersion, _) => {
                drop(views);
                let get = matches!(request.op, RequestOp::Get);
                let items = if get { vec![request.item] } else { Vec::new() };
                let (mut found, version) = self.try_get_many(folder, items)?;
                Ok(if get {
                    Response::Get(found.pop().flatten())
                } else {
                    Response::Version(version)
                })
            }
            (RequestOp::GetMany(names), View::Frozen { version, items }) => Ok(Response::GetMany {
                items: names
                    .iter()
                    .map(|name| items.get(name).map(|b| (b.clone(), *version)))
                    .collect(),
                version: *version,
            }),
            (RequestOp::GetMany(names), View::Overlay { bump, items }) => {
                // one honest snapshot, forged items laid over it
                let (mut found, live) = self.inner.try_get_many(folder, names.clone())?;
                let version = live + bump;
                for (name, slot) in names.iter().zip(&mut found) {
                    if let Some(b) = items.get(name) {
                        *slot = Some((b.clone(), version));
                    }
                }
                Ok(Response::GetMany {
                    items: found,
                    version,
                })
            }
            (RequestOp::List, View::Frozen { items, .. }) => {
                let mut names: Vec<String> = items.keys().cloned().collect();
                names.sort();
                Ok(Response::Names(names))
            }
            (RequestOp::List, View::Overlay { items, .. }) => {
                let mut names = self.inner.try_list(folder)?;
                for name in items.keys() {
                    if !names.contains(name) {
                        names.push(name.clone());
                    }
                }
                names.sort();
                Ok(Response::Names(names))
            }
            (&RequestOp::LongPoll { since, timeout }, view) => {
                let plan = match view {
                    View::Frozen { version, .. } => PollPlan::Frozen(*version),
                    View::Overlay { bump, items } => {
                        PollPlan::Overlay(*bump, items.keys().cloned().collect())
                    }
                };
                drop(views);
                self.forged_poll(folder, since, timeout, plan)
                    .map(Response::Poll)
            }
            _ => {
                drop(views);
                self.inner.call(request)
            }
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }
}

impl core::fmt::Debug for ForkingStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ForkingStore({} tampered folders)",
            self.views.lock().len()
        )
    }
}

impl From<ForkingStore> for StoreHandle {
    fn from(s: ForkingStore) -> Self {
        StoreHandle::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::partition_item;
    use crate::verilog::{log_entry_item, AdminSigner};
    use cloud_store::CloudStore;
    use rand::SeedableRng;

    /// A tampered view answers a multi-GET exactly as it answers one GET
    /// per item, with the clock it reports for the folder; a frozen view
    /// keeps answering what the folder held when it was frozen.
    #[test]
    fn a_tampered_views_multi_get_equals_its_gets() {
        let store = CloudStore::new();
        let engine = GroupEngine::bootstrap_seeded(PartitionSize::new(2).unwrap(), [1; 32]);
        let signer = AdminSigner::new("admin-1", &mut rand::rngs::StdRng::seed_from_u64(1));
        let admin = Admin::new(engine.unwrap(), store.clone()).with_signer(signer);
        for group in ["g", "h"] {
            admin
                .create_group(group, vec!["u0".into(), "u1".into()])
                .unwrap();
        }
        // every item as of the tamper, the partition and entry the write
        // below adds, and one that never exists
        let names = |folder: &str| {
            let mut names = store.list(folder);
            names.extend([partition_item(1), log_entry_item(1), "missing".into()]);
            names
        };
        let names = [names("g"), names("h")];
        let (held, _) = store.try_get_many("g", names[0].clone()).unwrap();
        let forked = ForkingStore::new(store.clone());
        forked.tamper("g", Tamper::Rollback).unwrap();
        forked
            .tamper("h", Tamper::RewriteEntry { index: 0 })
            .unwrap();
        // an honest write — a new partition, a new log entry — the frozen
        // view never shows
        admin.add_user("g", "u2").unwrap();
        for (folder, names) in ["g", "h"].into_iter().zip(&names) {
            let (found, clock) = forked.try_get_many(folder, names.clone()).unwrap();
            let gets: Vec<_> = names
                .iter()
                .map(|n| forked.try_get(folder, n).unwrap())
                .collect();
            assert_eq!(found, gets, "{folder}");
            assert_eq!(
                clock,
                forked.try_folder_version(folder).unwrap(),
                "{folder}"
            );
        }
        let (frozen, clock) = forked.try_get_many("g", names[0].clone()).unwrap();
        let payloads = |got: &[Option<(Bytes, u64)>]| -> Vec<_> {
            got.iter()
                .map(|g| g.as_ref().map(|(b, _)| b.clone()))
                .collect()
        };
        assert_eq!(payloads(&frozen), payloads(&held), "frozen at the tamper");
        assert!(frozen.iter().flatten().all(|(_, v)| *v == clock));
        assert!(clock < store.version(), "the honest folder moved on");
    }
}
