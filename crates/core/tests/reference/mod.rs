//! The one-partition-at-a-time engine, kept as the oracle.
//!
//! This is `ibbe_sgx_core::engine` as it stood before Algorithms 1 and 3
//! drew their randomness up front and spread the exponentiations over the
//! enclave's threads: the same ecalls, the same fallible-then-infallible
//! phases, and the serial loops verbatim — each partition validates, draws
//! `k`, computes, draws the wrap nonce and wraps before the next one
//! starts, all on the thread holding the `EnclaveContext`. Only what a test
//! crate cannot reach is different: `gk` is a bare `[u8; 32]` and the
//! wrapped key and key history are assembled through their public
//! `from_bytes`. Booted from the same seed it must publish the same bytes
//! as `GroupEngine`, operation for operation (`tests/parallel.rs`). It plans
//! each batch with the scanning planner in [`plan`], so the crate's planner
//! is checked by bytes here as well as plan for plan in `tests/plan.rs`.

pub mod plan;

use ibbe::{
    add_user_with_msk, encrypt_with_msk, remove_user_with_msk, setup, BroadcastKey,
    MasterSecretKey, PublicKey,
};
use ibbe_sgx_core::{
    CoreError, GroupMetadata, KeyHistory, MembershipBatch, PartitionMetadata, WrappedGroupKey,
    ENCLAVE_CODE_IDENTITY,
};
use sgx_sim::{ChannelKeyPair, Enclave, EnclaveBuilder, EnclaveContext, SealedBlob};
use std::collections::HashSet;
use symcrypto::gcm::{AesGcm, NONCE_LEN};
use symcrypto::sha256::{sha256, Sha256};

type Gk = [u8; 32];

struct State {
    msk: MasterSecretKey,
    _channel: ChannelKeyPair,
}

pub struct SerialEngine {
    enclave: Enclave<State>,
    pk: PublicKey,
    partition_size: usize,
}

impl SerialEngine {
    pub fn bootstrap_seeded(partition_size: usize, seed: [u8; 32]) -> Self {
        let mut pk_out: Option<PublicKey> = None;
        let enclave = EnclaveBuilder::new(ENCLAVE_CODE_IDENTITY)
            .deterministic_seed(seed)
            .build_with(|ctx| {
                let (msk, pk) = setup(partition_size, ctx.rng());
                let channel = ChannelKeyPair::generate(ctx.rng());
                pk_out = Some(pk);
                State {
                    msk,
                    _channel: channel,
                }
            });
        Self {
            enclave,
            pk: pk_out.expect("setup ran"),
            partition_size,
        }
    }

    pub fn create_group(
        &self,
        name: &str,
        members: Vec<String>,
    ) -> Result<GroupMetadata, CoreError> {
        if members.is_empty() {
            return Err(CoreError::EmptyGroup);
        }
        let m = self.partition_size;
        let pk = self.pk.clone();
        let name_owned = name.to_string();
        self.enclave.ecall(move |st, ctx| {
            let gk = random_gk(ctx);
            let epoch = 1u64;
            let partitions =
                build_partitions(&st.msk, &pk, &members, &gk, epoch, m, &name_owned, ctx)?;
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
        })
    }

    pub fn apply_batch(
        &self,
        meta: &mut GroupMetadata,
        batch: &MembershipBatch,
    ) -> Result<(), CoreError> {
        let plan::Plan {
            net_added,
            net_removed,
            rotate_gk,
        } = plan::plan(batch, meta)?;
        if net_added.is_empty() && net_removed.is_empty() && !rotate_gk {
            return Ok(());
        }
        if rotate_gk {
            self.apply_batch_rotating(meta, net_added, net_removed)
        } else {
            self.apply_batch_additive(meta, net_added)
        }
    }

    fn apply_batch_additive(
        &self,
        meta: &mut GroupMetadata,
        net_added: Vec<String>,
    ) -> Result<(), CoreError> {
        let m = self.partition_size;
        let pk = self.pk.clone();
        let name = meta.name.clone();
        let sealed = meta.sealed_gk.clone();
        let epoch = meta.epoch;
        let (assignments, overflow) = plan_first_fit(
            net_added,
            meta.partitions.iter().map(|p| p.members.len()),
            m,
        );
        let partitions = &mut meta.partitions;
        self.enclave.ecall(|st, ctx| -> Result<(), CoreError> {
            let mut new_parts = Vec::new();
            if !overflow.is_empty() {
                let gk = unseal_gk(ctx, &sealed, &name)?;
                for chunk in overflow.chunks(m) {
                    new_parts.push(make_partition(
                        &st.msk,
                        &pk,
                        chunk.to_vec(),
                        &gk,
                        epoch,
                        &name,
                        ctx,
                    )?);
                }
            }
            for (idx, user) in &assignments {
                let target = &mut partitions[*idx];
                target.ciphertext = add_user_with_msk(&st.msk, &target.ciphertext, user);
                target.members.push(user.clone());
            }
            partitions.extend(new_parts);
            Ok(())
        })
    }

    fn apply_batch_rotating(
        &self,
        meta: &mut GroupMetadata,
        net_added: Vec<String>,
        net_removed: Vec<String>,
    ) -> Result<(), CoreError> {
        let m = self.partition_size;
        let pk = self.pk.clone();
        let name = meta.name.clone();
        let sealed_old = meta.sealed_gk.clone();
        let old_history = meta.key_history.clone();
        let old_epoch = meta.epoch;
        let new_epoch = old_epoch + 1;
        let removed_set: HashSet<&str> = net_removed.iter().map(String::as_str).collect();
        let survivor_sizes: Vec<usize> = meta
            .partitions
            .iter()
            .map(|p| {
                p.members
                    .iter()
                    .filter(|u| !removed_set.contains(u.as_str()))
                    .count()
            })
            .filter(|&left| left > 0)
            .collect();
        let (assignments, overflow) = plan_first_fit(net_added, survivor_sizes.into_iter(), m);

        let partitions = &mut meta.partitions;
        let (sealed, history) =
            self.enclave
                .ecall(|st, ctx| -> Result<(SealedBlob, KeyHistory), CoreError> {
                    let old_gk = unseal_gk(ctx, &sealed_old, &name)?;
                    let mut retired = unlock_history(&old_history, &old_gk, &name)?;
                    retired.push((old_epoch, old_gk));
                    let gk = random_gk(ctx);
                    let history = seal_history(ctx, &retired, &gk, &name);
                    let mut new_parts = Vec::new();
                    for chunk in overflow.chunks(m) {
                        new_parts.push(make_partition(
                            &st.msk,
                            &pk,
                            chunk.to_vec(),
                            &gk,
                            new_epoch,
                            &name,
                            ctx,
                        )?);
                    }
                    for mut p in std::mem::take(partitions) {
                        if p.members.iter().any(|u| removed_set.contains(u.as_str())) {
                            let goners: Vec<String> = p
                                .members
                                .iter()
                                .filter(|u| removed_set.contains(u.as_str()))
                                .cloned()
                                .collect();
                            p.members.retain(|u| !removed_set.contains(u.as_str()));
                            if p.members.is_empty() {
                                continue;
                            }
                            for u in &goners {
                                let (_, ct) =
                                    remove_user_with_msk(&st.msk, &pk, &p.ciphertext, u, ctx.rng());
                                p.ciphertext = ct;
                            }
                        }
                        partitions.push(p);
                    }
                    for (idx, user) in &assignments {
                        let target = &mut partitions[*idx];
                        target.ciphertext = add_user_with_msk(&st.msk, &target.ciphertext, user);
                        target.members.push(user.clone());
                    }
                    for p in partitions.iter_mut() {
                        let (bk, ct) = ibbe::rekey(&pk, &p.ciphertext, ctx.rng());
                        p.ciphertext = ct;
                        p.wrapped_gk = wrap_gk(&bk, &gk, &name, ctx);
                        p.epoch = new_epoch;
                    }
                    partitions.extend(new_parts);
                    Ok((seal_gk(ctx, &gk, &name), history))
                })?;
        meta.sealed_gk = sealed;
        meta.key_history = history;
        meta.epoch = new_epoch;
        Ok(())
    }

    pub fn repartition(&self, meta: &GroupMetadata) -> Result<GroupMetadata, CoreError> {
        let members: Vec<String> = meta.members().map(String::from).collect();
        if members.is_empty() {
            return Err(CoreError::EmptyGroup);
        }
        let m = self.partition_size;
        let pk = self.pk.clone();
        let name = meta.name.clone();
        let sealed = meta.sealed_gk.clone();
        let epoch = meta.epoch;
        let partitions = self.enclave.ecall(move |st, ctx| {
            let gk = unseal_gk(ctx, &sealed, &name)?;
            build_partitions(&st.msk, &pk, &members, &gk, epoch, m, &name, ctx)
        })?;
        Ok(GroupMetadata {
            name: meta.name.clone(),
            partitions,
            sealed_gk: meta.sealed_gk.clone(),
            epoch,
            key_history: meta.key_history.clone(),
            log_head: meta.log_head,
        })
    }

    pub fn rekey_group(&self, meta: &mut GroupMetadata) -> Result<(), CoreError> {
        let pk = self.pk.clone();
        let name = meta.name.clone();
        let sealed_old = meta.sealed_gk.clone();
        let old_history = meta.key_history.clone();
        let old_epoch = meta.epoch;
        let new_epoch = old_epoch + 1;
        let mut partitions = meta.partitions.clone();
        let result = self.enclave.ecall(move |_, ctx| {
            let old_gk = unseal_gk(ctx, &sealed_old, &name)?;
            let mut retired = unlock_history(&old_history, &old_gk, &name)?;
            retired.push((old_epoch, old_gk));
            let gk = random_gk(ctx);
            let history = seal_history(ctx, &retired, &gk, &name);
            for p in partitions.iter_mut() {
                let (bk, ct) = ibbe::rekey(&pk, &p.ciphertext, ctx.rng());
                p.ciphertext = ct;
                p.wrapped_gk = wrap_gk(&bk, &gk, &name, ctx);
                p.epoch = new_epoch;
            }
            Ok::<_, CoreError>((seal_gk(ctx, &gk, &name), history, partitions))
        });
        let (sealed, history, rotated) = result?;
        meta.partitions = rotated;
        meta.sealed_gk = sealed;
        meta.key_history = history;
        meta.epoch = new_epoch;
        Ok(())
    }
}

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

fn random_gk(ctx: &mut EnclaveContext<'_>) -> Gk {
    let mut k = [0u8; 32];
    ctx.rng().generate(&mut k);
    k
}

fn wrap_gk(
    bk: &BroadcastKey,
    gk: &Gk,
    group_name: &str,
    ctx: &mut EnclaveContext<'_>,
) -> WrappedGroupKey {
    let key = sha256(&bk.to_bytes());
    let mut nonce = [0u8; NONCE_LEN];
    ctx.rng().generate(&mut nonce);
    let ciphertext = AesGcm::new(&key).seal(&nonce, group_name.as_bytes(), gk);
    WrappedGroupKey::from_bytes(&[&nonce[..], &ciphertext].concat()).expect("nonce ‖ ciphertext")
}

fn history_key(gk: &Gk) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(gk);
    h.update(b"ibbe-sgx-epoch-history-v1");
    h.finalize()
}

fn seal_history(
    ctx: &mut EnclaveContext<'_>,
    retired: &[(u64, Gk)],
    gk: &Gk,
    group_name: &str,
) -> KeyHistory {
    let mut plain = Vec::with_capacity(retired.len() * 40);
    for (epoch, key) in retired {
        plain.extend_from_slice(&epoch.to_be_bytes());
        plain.extend_from_slice(key);
    }
    let mut nonce = [0u8; NONCE_LEN];
    ctx.rng().generate(&mut nonce);
    let ciphertext = AesGcm::new(&history_key(gk)).seal(&nonce, group_name.as_bytes(), &plain);
    KeyHistory::from_bytes(&[&nonce[..], &ciphertext].concat()).expect("nonce ‖ ciphertext")
}

fn unlock_history(
    history: &KeyHistory,
    gk: &Gk,
    group_name: &str,
) -> Result<Vec<(u64, Gk)>, CoreError> {
    let bytes = history.to_bytes();
    let (nonce, ciphertext) = bytes.split_at(NONCE_LEN);
    let nonce: [u8; NONCE_LEN] = nonce.try_into().expect("split at the nonce length");
    let plain = AesGcm::new(&history_key(gk))
        .open(&nonce, group_name.as_bytes(), ciphertext)
        .map_err(|_| CoreError::CorruptMetadata("key history failed to authenticate"))?;
    if plain.len() % 40 != 0 {
        return Err(CoreError::CorruptMetadata("key history has wrong length"));
    }
    let mut retired = Vec::with_capacity(plain.len() / 40);
    for rec in plain.chunks_exact(40) {
        let epoch = u64::from_be_bytes(rec[..8].try_into().expect("chunk is 40 bytes"));
        let key: [u8; 32] = rec[8..].try_into().expect("chunk is 40 bytes");
        retired.push((epoch, key));
    }
    Ok(retired)
}

fn seal_gk(ctx: &mut EnclaveContext<'_>, gk: &Gk, group_name: &str) -> SealedBlob {
    ctx.seal(gk, group_name.as_bytes())
}

fn unseal_gk(
    ctx: &mut EnclaveContext<'_>,
    sealed: &SealedBlob,
    group_name: &str,
) -> Result<Gk, CoreError> {
    let pt = ctx.unseal(sealed, group_name.as_bytes())?;
    pt.try_into()
        .map_err(|_| CoreError::CorruptMetadata("sealed group key has wrong length"))
}

#[allow(clippy::too_many_arguments)]
fn build_partitions(
    msk: &MasterSecretKey,
    pk: &PublicKey,
    members: &[String],
    gk: &Gk,
    epoch: u64,
    m: usize,
    group_name: &str,
    ctx: &mut EnclaveContext<'_>,
) -> Result<Vec<PartitionMetadata>, CoreError> {
    let mut partitions = Vec::with_capacity(members.len().div_ceil(m));
    for chunk in members.chunks(m) {
        partitions.push(make_partition(
            msk,
            pk,
            chunk.to_vec(),
            gk,
            epoch,
            group_name,
            ctx,
        )?);
    }
    Ok(partitions)
}

fn make_partition(
    msk: &MasterSecretKey,
    pk: &PublicKey,
    members: Vec<String>,
    gk: &Gk,
    epoch: u64,
    group_name: &str,
    ctx: &mut EnclaveContext<'_>,
) -> Result<PartitionMetadata, CoreError> {
    let (bk, ciphertext) = encrypt_with_msk(msk, pk, &members, ctx.rng())?;
    let wrapped_gk = wrap_gk(&bk, gk, group_name, ctx);
    Ok(PartitionMetadata {
        epoch,
        members,
        ciphertext,
        wrapped_gk,
    })
}
