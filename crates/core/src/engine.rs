//! The IBBE-SGX group engine: the administrator-side implementation of the
//! paper's Algorithms 1 (create group), 2 (add user) and 3 (remove user),
//! every sensitive step of which executes inside the simulated enclave.
//!
//! All membership mutation funnels through the batched pipeline
//! ([`GroupEngine::apply_batch`], module [`crate::batch`]); the single-op
//! entry points are one-element-batch wrappers. **Invariant:** a batch
//! containing revocations performs exactly one IBBE re-key per surviving
//! partition per *batch* — never one per operation — so `k` coalesced
//! removals cost `|P|` re-keys instead of the sequential `k × |P|`.
//!
//! The admin process — modelled honest-but-curious — only ever observes
//! [`GroupMetadata`]: IBBE ciphertexts, AES-wrapped group keys and a sealed
//! group key. Neither `gk` nor any partition broadcast key `bk` crosses the
//! enclave boundary, which is the paper's zero-knowledge property.

use crate::batch::{BatchOutcome, BatchPlan, MembershipBatch, Placement};
use crate::error::CoreError;
use crate::metadata::{GroupKey, GroupMetadata, KeyHistory, PartitionMetadata, WrappedGroupKey};
use ibbe::{
    add_user_with_msk, encrypt_with_msk_using, extract, rekey_using, remove_user_with_msk, setup,
    BroadcastKey, Ephemeral, MasterSecretKey, PublicKey, Receivers, UserSecretKey,
};
use sgx_sim::{ChannelKeyPair, Enclave, EnclaveBuilder, EnclaveContext, Measurement};
use std::sync::atomic::{AtomicU64, Ordering};
use symcrypto::gcm::{AesGcm, NONCE_LEN};
use symcrypto::sha256::{sha256, Sha256};

/// A validated partition size (the paper's fixed `|p|`, 1000–4000 in the
/// evaluation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartitionSize(usize);

impl PartitionSize {
    /// Creates a partition size; must be at least 1.
    ///
    /// # Errors
    /// [`CoreError::InvalidPartitionSize`] for 0.
    pub fn new(size: usize) -> Result<Self, CoreError> {
        if size == 0 {
            return Err(CoreError::InvalidPartitionSize(size));
        }
        Ok(Self(size))
    }

    /// The size as a plain integer.
    pub fn get(&self) -> usize {
        self.0
    }
}

/// Outcome of an add-user operation (Algorithm 2 takes one of two paths).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AddOutcome {
    /// Index of the partition the user landed in.
    pub partition: usize,
    /// True if a brand-new partition had to be created (all others full).
    pub created_new_partition: bool,
}

/// Outcome of a remove-user operation (Algorithm 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemoveOutcome {
    /// Index of the partition the user was removed from, if the partition
    /// still exists (removal of its last member deletes it).
    pub shrunk_partition: Option<usize>,
    /// Number of partitions re-keyed (all surviving ones).
    pub rekeyed_partitions: usize,
}

/// Private enclave state: the IBBE master secret and the provisioning
/// channel keys. Only reachable through ecalls.
struct AdminEnclaveState {
    msk: MasterSecretKey,
    channel: ChannelKeyPair,
}

/// The administrator's IBBE-SGX engine.
///
/// See the crate-level example for the full flow.
pub struct GroupEngine {
    enclave: Enclave<AdminEnclaveState>,
    /// The IBBE public key; public by definition (clients need it too).
    pk: PublicKey,
    partition_size: PartitionSize,
    /// Newest key epoch this engine has issued across all of its groups
    /// (monotonically increasing; per-group epochs live in the metadata).
    epoch_clock: AtomicU64,
}

/// Identity string of the admin enclave code; its hash is the measurement
/// auditors compare against (Fig. 3).
pub const ENCLAVE_CODE_IDENTITY: &[u8] = b"ibbe-sgx-admin-enclave-v1";

impl GroupEngine {
    /// Boots the admin enclave and runs IBBE system setup inside it
    /// (paper Fig. 6a: `O(|p|)` — the public key is linear in the
    /// *partition* size, not the group size).
    ///
    /// # Errors
    /// [`CoreError::InvalidPartitionSize`] is impossible here since
    /// `partition_size` is pre-validated; the signature is fallible for
    /// forward compatibility with resource limits.
    pub fn bootstrap<R: rand::RngCore + ?Sized>(
        partition_size: PartitionSize,
        rng: &mut R,
    ) -> Result<Self, CoreError> {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Self::bootstrap_seeded(partition_size, seed)
    }

    /// Deterministic bootstrap (tests and reproducible benchmarks).
    ///
    /// # Errors
    /// Same contract as [`GroupEngine::bootstrap`].
    pub fn bootstrap_seeded(
        partition_size: PartitionSize,
        seed: [u8; 32],
    ) -> Result<Self, CoreError> {
        let mut pk_out: Option<PublicKey> = None;
        let enclave = EnclaveBuilder::new(ENCLAVE_CODE_IDENTITY)
            .deterministic_seed(seed)
            .build_with(|ctx| {
                let (msk, pk) = setup(partition_size.get(), ctx.rng());
                let channel = ChannelKeyPair::generate(ctx.rng());
                pk_out = Some(pk);
                AdminEnclaveState { msk, channel }
            });
        Ok(Self {
            enclave,
            pk: pk_out.expect("setup ran"),
            partition_size,
            epoch_clock: AtomicU64::new(0),
        })
    }

    /// Newest key epoch this engine has issued across all of its groups:
    /// every group creation starts its group at epoch 1 and every `gk`
    /// rotation (revoking batch or explicit re-key) advances the owning
    /// group's epoch by one; this clock tracks the maximum. The per-group
    /// epoch is [`GroupMetadata::epoch`], replicated into every published
    /// [`PartitionMetadata`] for the data plane.
    pub fn current_epoch(&self) -> u64 {
        self.epoch_clock.load(Ordering::Relaxed)
    }

    /// Folds a group's (possibly externally restored) epoch into the
    /// engine's monotone epoch clock.
    fn observe_epoch(&self, epoch: u64) {
        self.epoch_clock.fetch_max(epoch, Ordering::Relaxed);
    }

    /// The system public key (needed by clients for decryption).
    pub fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    /// The configured partition size.
    pub fn partition_size(&self) -> PartitionSize {
        self.partition_size
    }

    /// The enclave measurement, for attestation.
    pub fn measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// The enclave's provisioning-channel public key (certified by the
    /// Auditor in the full system; see the `acs` crate).
    pub fn channel_public_key(&self) -> sgx_sim::ChannelPublicKey {
        self.enclave.ecall(|st, _| st.channel.public_key())
    }

    /// Full in-enclave provisioning step (Fig. 3, step 4): decrypts a
    /// provisioning-request channel message, extracts the
    /// requested user's secret key, and re-encrypts it to the user's own
    /// channel key — the USK plaintext never exists outside the enclave.
    ///
    /// Request wire format (produced by `acs::provisioning`):
    /// `identity_len: u16 BE ‖ identity ‖ user_channel_pk (49 bytes)`.
    ///
    /// # Errors
    /// [`CoreError::Sgx`] if the request fails to decrypt or parse.
    pub fn provision_user_key(
        &self,
        request: &sgx_sim::ChannelMessage,
    ) -> Result<sgx_sim::ChannelMessage, CoreError> {
        self.enclave.ecall(|st, ctx| {
            let plain = st
                .channel
                .decrypt(request, b"ibbe-provisioning-request")
                .map_err(CoreError::Sgx)?;
            if plain.len() < 2 {
                return Err(CoreError::Sgx(sgx_sim::SgxError::ChannelFailed));
            }
            let id_len = u16::from_be_bytes([plain[0], plain[1]]) as usize;
            if plain.len() < 2 + id_len {
                return Err(CoreError::Sgx(sgx_sim::SgxError::ChannelFailed));
            }
            let identity = std::str::from_utf8(&plain[2..2 + id_len])
                .map_err(|_| CoreError::Sgx(sgx_sim::SgxError::ChannelFailed))?
                .to_string();
            let user_pk = sgx_sim::ChannelPublicKey::from_bytes(&plain[2 + id_len..])
                .ok_or(CoreError::Sgx(sgx_sim::SgxError::ChannelFailed))?;
            let usk = extract(&st.msk, &identity);
            Ok(user_pk.encrypt(ctx.rng(), &usk.to_bytes(), identity.as_bytes()))
        })
    }

    /// Extracts a user secret key inside the enclave (paper Fig. 6b;
    /// constant time per user). Distribution to the user must go through
    /// the certified provisioning channel — see `acs::provisioning`.
    pub fn extract_user_key(&self, identity: &str) -> Result<UserSecretKey, CoreError> {
        Ok(self.enclave.ecall(|st, _| extract(&st.msk, identity)))
    }

    /// **Algorithm 1 — Create Group.** Splits `members` into fixed-size
    /// partitions, draws `gk` inside the enclave, and per partition `p`
    /// produces `(c_p, y_p = AES(SHA-256(bk_p), gk))`. Returns cloud-ready
    /// metadata plus the sealed `gk`.
    ///
    /// # Errors
    /// [`CoreError::EmptyGroup`] or IBBE set-validation failures
    /// (duplicates).
    pub fn create_group(
        &self,
        name: &str,
        members: Vec<String>,
    ) -> Result<GroupMetadata, CoreError> {
        self.create_group_with_fill(name, members, self.partition_size)
    }

    /// Algorithm 1 with an explicit target fill size `fill ≤` the public
    /// key's capacity. Used by the adaptive-partitioning extension
    /// ([`crate::adaptive::AdaptivePolicy`], paper §VIII future work): the
    /// PK is provisioned for the *maximum* partition size at bootstrap and
    /// the live fill adapts to the workload below it.
    ///
    /// # Errors
    /// [`CoreError::InvalidPartitionSize`] if `fill` exceeds the capacity,
    /// plus the [`GroupEngine::create_group`] failure modes.
    pub fn create_group_with_fill(
        &self,
        name: &str,
        members: Vec<String>,
        fill: PartitionSize,
    ) -> Result<GroupMetadata, CoreError> {
        if members.is_empty() {
            return Err(CoreError::EmptyGroup);
        }
        if fill.get() > self.partition_size.get() {
            return Err(CoreError::InvalidPartitionSize(fill.get()));
        }
        let m = fill.get();
        let pk = &self.pk;
        let name_owned = name.to_string();
        let meta = self.enclave.ecall(move |st, ctx| {
            // line 2: gk ← RandomKey(), serving key epoch 1
            let gk = random_gk(ctx);
            let epoch = 1u64;
            // lines 3–5: per-partition encrypt + wrap
            let partitions =
                build_partitions(&st.msk, pk, &members, &gk, epoch, m, &name_owned, ctx)?;
            // line 6: seal gk for persistence; the epoch-key history starts
            // empty (no retired keys yet) but is published from day one so
            // the data plane has a uniform unlock path
            let sealed_gk = seal_gk(ctx, &gk, &name_owned);
            let key_history = seal_history(ctx, &[], &gk, &name_owned);
            Ok::<_, CoreError>(GroupMetadata {
                name: name_owned,
                partitions,
                sealed_gk,
                epoch,
                key_history,
                log_head: None,
            })
        })?;
        self.observe_epoch(meta.epoch);
        Ok(meta)
    }

    /// **Algorithm 2 — Add User to Group**, as a one-element batch. If some
    /// partition has room the user joins the first open one — only `c_p`
    /// changes (`O(1)`, the broadcast key is unchanged so `y_p` needs no
    /// update). Otherwise a new partition is created and the unsealed `gk`
    /// wrapped under its fresh broadcast key.
    ///
    /// # Errors
    /// [`CoreError::AlreadyMember`]; [`CoreError::Sgx`] if the sealed group
    /// key fails to unseal.
    pub fn add_user(
        &self,
        meta: &mut GroupMetadata,
        identity: &str,
    ) -> Result<AddOutcome, CoreError> {
        let mut batch = MembershipBatch::new();
        batch.add(identity);
        let outcome = self.apply_batch(meta, &batch)?;
        let placement = outcome
            .placements
            .first()
            .expect("a validated single add always places its user");
        Ok(AddOutcome {
            partition: placement.partition,
            created_new_partition: placement.created_new_partition,
        })
    }

    /// **Algorithm 3 — Remove User from Group**, as a one-element batch.
    /// Draws a fresh `gk`, removes the user from their partition with the
    /// constant-time `C3` update (Eqs. 6–7), re-keys every other partition in
    /// constant time each, and re-wraps the new `gk` everywhere. Cost:
    /// `|P| × O(1)`.
    ///
    /// Empty partitions are dropped. The caller should consult
    /// [`GroupMetadata::needs_repartitioning`] afterwards (§V-A heuristic)
    /// and recreate the group when advised.
    ///
    /// # Errors
    /// [`CoreError::NotAMember`]; [`CoreError::Sgx`] on unseal failure.
    pub fn remove_user(
        &self,
        meta: &mut GroupMetadata,
        identity: &str,
    ) -> Result<RemoveOutcome, CoreError> {
        let Some(idx) = meta.partition_of(identity) else {
            return Err(CoreError::NotAMember(identity.to_string()));
        };
        // With a single remove, only the hosting partition can be dropped,
        // so final indices match pre-batch indices.
        let host_survives = meta.partitions[idx].members.len() > 1;
        let mut batch = MembershipBatch::new();
        batch.remove(identity);
        let outcome = self.apply_batch(meta, &batch)?;
        Ok(RemoveOutcome {
            shrunk_partition: host_survives.then_some(idx),
            // Historical contract: the host's own refresh is not counted.
            rekeyed_partitions: outcome.partitions_rekeyed - usize::from(host_survives),
        })
    }

    /// Applies a whole [`MembershipBatch`] atomically (the batched
    /// membership pipeline; see [`crate::batch`]).
    ///
    /// The batch is validated against sequential semantics, coalesced into a
    /// net per-partition delta, and applied in a single enclave call:
    ///
    /// * a batch containing at least one revocation of a pre-batch member
    ///   rotates `gk` and performs **exactly one IBBE re-key per surviving
    ///   partition** — not one per operation;
    /// * a pure-add batch leaves `gk` and all broadcast keys untouched and
    ///   packs overflowing users into full-size new partitions.
    ///
    /// # Errors
    /// [`CoreError::AlreadyMember`] / [`CoreError::NotAMember`] if the
    /// sequential schedule would have rejected an operation (the metadata is
    /// left untouched); [`CoreError::Sgx`] on unseal failure.
    pub fn apply_batch(
        &self,
        meta: &mut GroupMetadata,
        batch: &MembershipBatch,
    ) -> Result<BatchOutcome, CoreError> {
        let plan = batch.plan(meta)?;
        if plan.is_noop() {
            return Ok(BatchOutcome::noop_at(meta.epoch));
        }
        let _span = telemetry::span("enclave.apply_batch")
            .with("group", meta.name.as_str())
            .with("rotates", plan.rotates_gk())
            .enter();
        if plan.rotates_gk() {
            self.apply_batch_rotating(meta, plan)
        } else {
            self.apply_batch_additive(meta, plan)
        }
    }

    /// Pure-add batch: fills open partitions first-fit with `O(1)`
    /// ciphertext updates, then packs the overflow into new full-size
    /// partitions wrapping the *existing* group key.
    ///
    /// All fallible enclave work (unsealing `gk`, encrypting new
    /// partitions) happens before the first mutation, so a failure leaves
    /// the metadata untouched.
    fn apply_batch_additive(
        &self,
        meta: &mut GroupMetadata,
        plan: BatchPlan,
    ) -> Result<BatchOutcome, CoreError> {
        let m = self.partition_size.get();
        let pk = &self.pk;
        let name = meta.name.clone();
        let sealed = meta.sealed_gk.clone();
        let epoch = meta.epoch;

        // Pure first-fit assignment over current occupancy (partitions only
        // fill up under adds, so a monotone cursor suffices): final
        // partition index per placed user, plus the overflow.
        let (assignments, overflow) = plan_first_fit(
            plan.net_added,
            meta.partitions.iter().map(|p| p.members.len()),
            m,
        );

        let base = meta.partitions.len();
        let partitions = &mut meta.partitions;
        let created = self.enclave.ecall(|st, ctx| -> Result<usize, CoreError> {
            // Phase 1 — fallible, touches nothing.
            let mut new_parts = Vec::new();
            if !overflow.is_empty() {
                let gk = unseal_gk(ctx, &sealed, &name)?;
                new_parts = build_partitions(&st.msk, pk, &overflow, &gk, epoch, m, &name, ctx)?;
            }
            // Phase 2 — infallible: one O(1) ciphertext update per
            // assigned add, then append the packed new partitions.
            for (idx, user) in &assignments {
                let target = &mut partitions[*idx];
                target.ciphertext = add_user_with_msk(&st.msk, &target.ciphertext, user);
                target.members.push(user.clone());
            }
            let created = new_parts.len();
            partitions.extend(new_parts);
            Ok(created)
        })?;

        let placements = to_placements(assignments, overflow, base, m);
        let mut dirty: Vec<usize> = Vec::new();
        for p in &placements {
            if dirty.last() != Some(&p.partition) {
                dirty.push(p.partition);
            }
        }
        Ok(BatchOutcome {
            added: placements.iter().map(|p| p.identity.clone()).collect(),
            removed: Vec::new(),
            gk_rotated: false,
            epoch,
            partitions_rekeyed: 0,
            partitions_created: created,
            partitions_dropped: 0,
            dirty_partitions: dirty,
            placements,
        })
    }

    /// Batch containing revocations: strips all net-removed members with
    /// constant-time `C3` updates, drops emptied partitions, places the net
    /// additions, performs the **one re-key per surviving partition** under
    /// a fresh `gk`, and packs the overflow into new partitions. The one
    /// rotation path: [`GroupEngine::rekey_group`] runs it over an empty
    /// plan.
    ///
    /// The rotation **advances the key epoch by one** and retires the old
    /// `gk` into the encrypted [`KeyHistory`] (re-encrypted under the new
    /// `gk`), so current members can still unwrap data objects sealed at
    /// older epochs while the data plane lazily migrates them.
    ///
    /// The post-strip shape is pre-computed outside the enclave (it only
    /// depends on public member lists), so the in-enclave fallible work (new
    /// partition encryption, old-key unseal, history update) runs before the
    /// first mutation and a failure leaves the metadata untouched.
    fn apply_batch_rotating(
        &self,
        meta: &mut GroupMetadata,
        plan: BatchPlan,
    ) -> Result<BatchOutcome, CoreError> {
        let m = self.partition_size.get();
        let pk = &self.pk;
        let name = meta.name.clone();
        let sealed_old = meta.sealed_gk.clone();
        let old_history = meta.key_history.clone();
        let old_epoch = meta.epoch;
        let new_epoch = old_epoch + 1;
        let BatchPlan {
            net_added,
            net_removed,
            hosts,
            ..
        } = plan;
        // Members each partition loses; only host partitions lose any.
        let mut lost = vec![0usize; meta.partitions.len()];
        for &p in &hosts {
            lost[p] += 1;
        }

        // Post-strip occupancy of the surviving partitions, in final
        // (retained) order, and the first-fit placement over it.
        let survivor_sizes: Vec<usize> = meta
            .partitions
            .iter()
            .zip(&lost)
            .map(|(p, &n)| p.members.len() - n)
            .filter(|&left| left > 0)
            .collect();
        let dropped = meta.partitions.len() - survivor_sizes.len();
        let base = survivor_sizes.len();
        let (assignments, overflow) = plan_first_fit(net_added, survivor_sizes.into_iter(), m);

        type RotationResult = (sgx_sim::SealedBlob, KeyHistory, usize, usize);
        let partitions = &mut meta.partitions;
        let (sealed, history, rekeyed, created) =
            self.enclave
                .ecall(|st, ctx| -> Result<RotationResult, CoreError> {
                    // Phase 1 — fallible, touches nothing: fresh gk, the retired
                    // key appended to the (re-encrypted) epoch history, and the
                    // overflow partitions wrapping the new key.
                    let old_gk = unseal_gk(ctx, &sealed_old, &name)?;
                    let mut retired = unlock_history(&old_history, &old_gk, &name)?;
                    retired.push((old_epoch, old_gk));
                    let gk = random_gk(ctx);
                    let history = seal_history(ctx, &retired, &gk, &name);
                    let new_parts =
                        build_partitions(&st.msk, pk, &overflow, &gk, new_epoch, m, &name, ctx)?;
                    // Phase 2 — infallible. Strip revoked members from their
                    // host partitions with constant-time C3 updates, dropping
                    // emptied partitions. `net_removed` is in partition
                    // order, so each host's goners are the next `n` of it.
                    let mut goners = net_removed.iter();
                    for (mut p, &n) in std::mem::take(partitions).into_iter().zip(&lost) {
                        if n > 0 {
                            let gone: Vec<&String> = goners.by_ref().take(n).collect();
                            p.members.retain(|u| !gone.contains(&u));
                            if p.members.is_empty() {
                                continue; // no receivers left, nothing to maintain
                            }
                            for u in gone {
                                let (_, ct) =
                                    remove_user_with_msk(&st.msk, pk, &p.ciphertext, u, ctx.rng());
                                p.ciphertext = ct;
                            }
                        }
                        partitions.push(p);
                    }
                    // Place net additions (O(1) ciphertext update each).
                    for (idx, user) in &assignments {
                        let target = &mut partitions[*idx];
                        target.ciphertext = add_user_with_msk(&st.msk, &target.ciphertext, user);
                        target.members.push(user.clone());
                    }
                    // The batch invariant: one re-key per surviving partition.
                    rekey_partitions(pk, partitions, &gk, new_epoch, &name, ctx);
                    let rekeyed = partitions.len();
                    let created = new_parts.len();
                    partitions.extend(new_parts);
                    Ok((seal_gk(ctx, &gk, &name), history, rekeyed, created))
                })?;
        meta.sealed_gk = sealed;
        meta.key_history = history;
        meta.epoch = new_epoch;
        self.observe_epoch(new_epoch);

        let placements = to_placements(assignments, overflow, base, m);
        Ok(BatchOutcome {
            added: placements.iter().map(|p| p.identity.clone()).collect(),
            removed: net_removed,
            gk_rotated: true,
            epoch: new_epoch,
            partitions_rekeyed: rekeyed,
            partitions_created: created,
            partitions_dropped: dropped,
            // everything changed: every surviving partition was re-keyed and
            // every created one is new
            dirty_partitions: (0..meta.partitions.len()).collect(),
            placements,
        })
    }

    /// Re-partitioning (§V-A): rebuilds the partition layout from the
    /// current member list (Algorithm 1's chunking), merging sparse
    /// partitions — but **preserving the current `gk`, key epoch and epoch
    /// history**. A structural reshuffle is not a revocation: every member
    /// keeps access, so rotating the key (and invalidating every data
    /// object's epoch) would be pure waste. Fresh broadcast keys are drawn
    /// per rebuilt partition as always.
    ///
    /// # Errors
    /// [`CoreError::EmptyGroup`] if the group has no members left;
    /// [`CoreError::Sgx`] on unseal failure.
    pub fn repartition(&self, meta: &GroupMetadata) -> Result<GroupMetadata, CoreError> {
        self.repartition_with_fill(meta, self.partition_size)
    }

    /// Re-partitioning with an explicit target fill size (adaptive
    /// extension; see [`GroupEngine::create_group_with_fill`]). Preserves
    /// `gk`, epoch and history like [`GroupEngine::repartition`].
    ///
    /// # Errors
    /// Same contract as [`GroupEngine::repartition`], plus
    /// [`CoreError::InvalidPartitionSize`] if `fill` exceeds the public
    /// key's capacity.
    pub fn repartition_with_fill(
        &self,
        meta: &GroupMetadata,
        fill: PartitionSize,
    ) -> Result<GroupMetadata, CoreError> {
        let members: Vec<String> = meta.members().map(String::from).collect();
        if members.is_empty() {
            return Err(CoreError::EmptyGroup);
        }
        if fill.get() > self.partition_size.get() {
            return Err(CoreError::InvalidPartitionSize(fill.get()));
        }
        let m = fill.get();
        let pk = &self.pk;
        let name = meta.name.clone();
        let sealed = meta.sealed_gk.clone();
        let epoch = meta.epoch;
        let partitions = self.enclave.ecall(move |st, ctx| {
            let gk = unseal_gk(ctx, &sealed, &name)?;
            build_partitions(&st.msk, pk, &members, &gk, epoch, m, &name, ctx)
        })?;
        Ok(GroupMetadata {
            name: meta.name.clone(),
            partitions,
            sealed_gk: meta.sealed_gk.clone(),
            epoch,
            key_history: meta.key_history.clone(),
            // repartitioning is not a log-visible mutation; the caller's
            // journal entry (if any) restamps the head after this returns
            log_head: meta.log_head,
        })
    }

    /// Re-keys the whole group without membership change (paper §A-G): a
    /// revoking batch that revokes no one — fresh `gk`, constant-time
    /// re-key per partition, the key epoch advanced and the old `gk`
    /// retired into the history.
    ///
    /// # Errors
    /// [`CoreError::Sgx`] on unseal failure.
    pub fn rekey_group(&self, meta: &mut GroupMetadata) -> Result<(), CoreError> {
        let rotation = BatchPlan {
            net_added: Vec::new(),
            net_removed: Vec::new(),
            hosts: Vec::new(),
            rotate_gk: true,
        };
        self.apply_batch_rotating(meta, rotation).map(drop)
    }

    /// Compacts the epoch-key history: drops every retired key whose epoch
    /// is below `keep_from`, bounding the otherwise unbounded 40 B-per-
    /// rotation growth of the published `_epochs` object.
    ///
    /// Safe exactly when no stored object is still sealed at an epoch below
    /// `keep_from` — i.e. after a **converged** full-namespace sweep, whose
    /// report's floor epoch is the value to pass here. A key dropped too
    /// early would orphan the objects sealed under it, so the caller owns
    /// that proof; this method only performs the pruning.
    ///
    /// Returns the number of entries pruned; `meta` is untouched (and no
    /// re-encryption happens) when nothing is below `keep_from`.
    ///
    /// # Errors
    /// [`CoreError::Sgx`] on unseal failure, [`CoreError::CorruptMetadata`]
    /// if the history fails to authenticate.
    pub fn compact_history(
        &self,
        meta: &mut GroupMetadata,
        keep_from: u64,
    ) -> Result<usize, CoreError> {
        let name = meta.name.clone();
        let sealed = meta.sealed_gk.clone();
        let old_history = meta.key_history.clone();
        let compacted = self.enclave.ecall(move |_, ctx| {
            let gk = unseal_gk(ctx, &sealed, &name)?;
            let retired = unlock_history(&old_history, &gk, &name)?;
            let kept: Vec<(u64, GroupKey)> = retired
                .iter()
                .filter(|(epoch, _)| *epoch >= keep_from)
                .copied()
                .collect();
            let pruned = retired.len() - kept.len();
            if pruned == 0 {
                return Ok::<_, CoreError>(None);
            }
            Ok(Some((seal_history(ctx, &kept, &gk, &name), pruned)))
        })?;
        match compacted {
            Some((history, pruned)) => {
                meta.key_history = history;
                Ok(pruned)
            }
            None => Ok(0),
        }
    }
}

impl core::fmt::Debug for GroupEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "GroupEngine(partition_size={}, {:?})",
            self.partition_size.get(),
            self.enclave.measurement()
        )
    }
}

/// Pure first-fit planner shared by both batch paths: assigns `users` to
/// the partitions whose current `sizes` leave room (capacity `m`), in
/// index order; the rest overflow. Partitions only fill up under adds, so a
/// monotone cursor suffices and assignment indices come out ascending.
fn plan_first_fit(
    users: Vec<String>,
    sizes: impl Iterator<Item = usize>,
    m: usize,
) -> (Vec<(usize, String)>, Vec<String>) {
    let mut free: Vec<usize> = sizes.map(|len| m.saturating_sub(len)).collect();
    let mut assignments = Vec::new();
    let mut overflow = Vec::new();
    let mut cursor = 0usize;
    for user in users {
        while cursor < free.len() && free[cursor] == 0 {
            cursor += 1;
        }
        if cursor == free.len() {
            overflow.push(user);
        } else {
            free[cursor] -= 1;
            assignments.push((cursor, user));
        }
    }
    (assignments, overflow)
}

/// Expands a first-fit plan into [`Placement`]s; overflow users land in the
/// packed partitions appended from index `base` on.
fn to_placements(
    assignments: Vec<(usize, String)>,
    overflow: Vec<String>,
    base: usize,
    m: usize,
) -> Vec<Placement> {
    let mut placements: Vec<Placement> = assignments
        .into_iter()
        .map(|(partition, identity)| Placement {
            identity,
            partition,
            created_new_partition: false,
        })
        .collect();
    for (i, identity) in overflow.into_iter().enumerate() {
        placements.push(Placement {
            identity,
            partition: base + i / m,
            created_new_partition: true,
        });
    }
    placements
}

fn random_gk(ctx: &mut EnclaveContext<'_>) -> GroupKey {
    let mut k = [0u8; 32];
    ctx.rng().generate(&mut k);
    GroupKey(k)
}

/// A wrap nonce from the enclave's DRBG.
fn random_nonce(ctx: &mut EnclaveContext<'_>) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    ctx.rng().generate(&mut nonce);
    nonce
}

/// `AES(SHA-256(bk), gk)` — the paper's `y_p` (Algorithm 1, line 5), as
/// AES-256-GCM so corruption is detected. Pure: the nonce was drawn by the
/// caller ([`random_nonce`]).
fn wrap_gk(
    bk: &BroadcastKey,
    gk: &GroupKey,
    group_name: &str,
    nonce: [u8; NONCE_LEN],
) -> WrappedGroupKey {
    let key = sha256(&bk.to_bytes());
    let ciphertext = AesGcm::new(&key).seal(&nonce, group_name.as_bytes(), &gk.0);
    WrappedGroupKey { nonce, ciphertext }
}

/// Client-side unwrap of `y_p` given the recovered broadcast key.
pub(crate) fn unwrap_gk(
    bk: &BroadcastKey,
    wrapped: &WrappedGroupKey,
    group_name: &str,
) -> Result<GroupKey, CoreError> {
    let key = sha256(&bk.to_bytes());
    let pt = AesGcm::new(&key)
        .open(&wrapped.nonce, group_name.as_bytes(), &wrapped.ciphertext)
        .map_err(|_| CoreError::CorruptMetadata("wrapped group key failed to authenticate"))?;
    let bytes: [u8; 32] = pt
        .try_into()
        .map_err(|_| CoreError::CorruptMetadata("wrapped group key has wrong length"))?;
    Ok(GroupKey(bytes))
}

/// Key protecting the epoch history: derived from the *current* `gk` with
/// domain separation so history ciphertexts can never be confused with
/// other `gk`-keyed material.
fn history_key(gk: &GroupKey) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(&gk.0);
    h.update(b"ibbe-sgx-epoch-history-v1");
    h.finalize()
}

/// Encrypts the retired-epoch list under (a key derived from) `gk`.
/// Plaintext: `(epoch: u64 BE ‖ gk: 32 bytes)*`, AAD: the group name.
fn seal_history(
    ctx: &mut EnclaveContext<'_>,
    retired: &[(u64, GroupKey)],
    gk: &GroupKey,
    group_name: &str,
) -> KeyHistory {
    let mut plain = Vec::with_capacity(retired.len() * 40);
    for (epoch, key) in retired {
        plain.extend_from_slice(&epoch.to_be_bytes());
        plain.extend_from_slice(&key.0);
    }
    let nonce = random_nonce(ctx);
    let ciphertext = AesGcm::new(&history_key(gk)).seal(&nonce, group_name.as_bytes(), &plain);
    KeyHistory { nonce, ciphertext }
}

/// Decrypts and parses an epoch history with the current `gk` (used inside
/// the enclave on rotation and by clients through
/// [`crate::client::KeyRing`]).
pub(crate) fn unlock_history(
    history: &KeyHistory,
    gk: &GroupKey,
    group_name: &str,
) -> Result<Vec<(u64, GroupKey)>, CoreError> {
    let plain = AesGcm::new(&history_key(gk))
        .open(&history.nonce, group_name.as_bytes(), &history.ciphertext)
        .map_err(|_| CoreError::CorruptMetadata("key history failed to authenticate"))?;
    if plain.len() % 40 != 0 {
        return Err(CoreError::CorruptMetadata("key history has wrong length"));
    }
    let mut retired = Vec::with_capacity(plain.len() / 40);
    for rec in plain.chunks_exact(40) {
        let epoch = u64::from_be_bytes(rec[..8].try_into().expect("chunk is 40 bytes"));
        let key: [u8; 32] = rec[8..].try_into().expect("chunk is 40 bytes");
        retired.push((epoch, GroupKey(key)));
    }
    Ok(retired)
}

fn seal_gk(ctx: &mut EnclaveContext<'_>, gk: &GroupKey, group_name: &str) -> sgx_sim::SealedBlob {
    ctx.seal(&gk.0, group_name.as_bytes())
}

fn unseal_gk(
    ctx: &mut EnclaveContext<'_>,
    sealed: &sgx_sim::SealedBlob,
    group_name: &str,
) -> Result<GroupKey, CoreError> {
    let pt = ctx.unseal(sealed, group_name.as_bytes())?;
    let bytes: [u8; 32] = pt
        .try_into()
        .map_err(|_| CoreError::CorruptMetadata("sealed group key has wrong length"))?;
    Ok(GroupKey(bytes))
}

/// Algorithm 1's partition loop, the one place partitions are built (group
/// creation, re-partitioning, a batch's overflow): chunks `members` into
/// partitions of at most `m` wrapping `gk` at `epoch`.
///
/// *Draw, then compute.* Everything random comes off the ecall's DRBG
/// first, sequentially and in the order a one-partition-at-a-time loop
/// would take it — per chunk: validate, `k`, wrap nonce — so the published
/// bytes do not depend on how the work is spread. What is left per
/// partition is a pure function of `(msk, pk, chunk, k, nonce, gk)` and runs
/// on the enclave's threads ([`exec::map_chunks`]); the workers see no
/// [`EnclaveContext`] and what they borrow dies with the ecall.
#[allow(clippy::too_many_arguments)]
fn build_partitions(
    msk: &MasterSecretKey,
    pk: &PublicKey,
    members: &[String],
    gk: &GroupKey,
    epoch: u64,
    m: usize,
    group_name: &str,
    ctx: &mut EnclaveContext<'_>,
) -> Result<Vec<PartitionMetadata>, CoreError> {
    let mut drawn = Vec::with_capacity(members.len().div_ceil(m));
    for chunk in members.chunks(m) {
        let receivers = Receivers::new(pk, chunk)?;
        drawn.push((receivers, Ephemeral::draw(ctx.rng()), random_nonce(ctx)));
    }
    let built = exec::map_chunks(&drawn, 1, |drawn| {
        let partitions = drawn.iter().map(|(receivers, k, nonce)| {
            let (bk, ciphertext) = encrypt_with_msk_using(msk, pk, *receivers, k);
            PartitionMetadata {
                epoch,
                members: receivers.members().to_vec(),
                ciphertext,
                wrapped_gk: wrap_gk(&bk, gk, group_name, *nonce),
            }
        });
        partitions.collect::<Vec<_>>()
    });
    Ok(built.into_iter().flatten().collect())
}

/// Algorithm 3's re-key loop, the one place partitions are re-keyed (a
/// revoking batch, an explicit rotation): a fresh broadcast key per
/// partition from its public `C3`, wrapping `gk` at `epoch`. Draw, then
/// compute, as [`build_partitions`]: per partition `k` then the wrap nonce
/// off the DRBG, the exponentiations spread over the enclave's threads —
/// one `enclave.rekey` span each, on the caller's request id — and the
/// results written back in order once every one of them is in.
fn rekey_partitions(
    pk: &PublicKey,
    partitions: &mut [PartitionMetadata],
    gk: &GroupKey,
    epoch: u64,
    group_name: &str,
    ctx: &mut EnclaveContext<'_>,
) {
    let drawn: Vec<_> = partitions
        .iter()
        .enumerate()
        .map(|(idx, p)| (idx, p, Ephemeral::draw(ctx.rng()), random_nonce(ctx)))
        .collect();
    let rid = telemetry::current_request_id();
    let rekeyed = exec::map_chunks(&drawn, 1, |drawn| {
        let _rid = telemetry::adopt_request_id(rid);
        let rekeyed = drawn.iter().map(|(idx, p, k, nonce)| {
            let _span = telemetry::span("enclave.rekey")
                .with("partition", *idx)
                .with("members", p.members.len())
                .with("epoch", epoch)
                .enter();
            let (bk, ciphertext) = rekey_using(pk, &p.ciphertext, k);
            (ciphertext, wrap_gk(&bk, gk, group_name, *nonce))
        });
        rekeyed.collect::<Vec<_>>()
    });
    for (p, (ciphertext, wrapped_gk)) in partitions.iter_mut().zip(rekeyed.into_iter().flatten()) {
        p.ciphertext = ciphertext;
        p.wrapped_gk = wrapped_gk;
        p.epoch = epoch;
    }
}
