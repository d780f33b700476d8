//! The Hybrid-Encryption comparison system, deployed the way the paper
//! benchmarks it: HE membership operations run **inside an enclave** (so the
//! comparison with IBBE-SGX is at equal zero-knowledge guarantees,
//! §III-B/§VI), and the per-member envelope list is pushed to the cloud.

use crate::error::AcsError;
use cloud_store::{ObjectStore, StoreHandle};
use he::{GroupKey as HeGroupKey, HeGroupManager, HeGroupMetadata, HePki, PkiKeyPair};
use parking_lot::Mutex;
use sgx_sim::{Enclave, EnclaveBuilder};
use std::collections::HashMap;

/// Cloud item name for a group's HE envelope list.
pub const HE_ITEM: &str = "he_envelopes";

/// Enclave-confined state: the plaintext group keys.
type GkVault = HashMap<String, HeGroupKey>;

/// The HE-PKI administrator with zero-knowledge deployment.
pub struct HeAdmin {
    /// Group keys live only in here.
    enclave: Enclave<GkVault>,
    mgr: HeGroupManager<HePki>,
    store: StoreHandle,
    cache: Mutex<HashMap<String, HeGroupMetadata>>,
}

impl HeAdmin {
    /// Boots the HE admin enclave.
    pub fn new(store: impl Into<StoreHandle>) -> Self {
        Self {
            enclave: EnclaveBuilder::new(b"he-admin-enclave-v1").build_with(|_| GkVault::new()),
            mgr: HeGroupManager::new(HePki),
            store: store.into(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a user's public key (PKI certificate intake).
    pub fn register_user(&mut self, identity: &str, key: &PkiKeyPair) {
        self.mgr.register_user(identity, key.public_key());
    }

    /// Creates a group: `gk` is drawn inside the enclave and enveloped to
    /// every member there (`O(n)` public-key ops, `O(n)` metadata).
    pub fn create_group(&self, name: &str, members: &[String]) {
        let meta = self.enclave.ecall(|vault, ctx| {
            let mut k = [0u8; 32];
            ctx.rng().generate(&mut k);
            let gk = HeGroupKey(k);
            let meta = self.mgr.envelope_group(&gk, members, ctx.rng());
            vault.insert(name.to_string(), gk);
            meta
        });
        self.push(name, &meta);
        self.cache.lock().insert(name.to_string(), meta);
    }

    /// Adds a user: one envelope of the current `gk` (`O(1)` compute) but a
    /// full metadata re-upload (the envelope list is one cloud object).
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn add_user(&self, group: &str, identity: &str) -> Result<(), AcsError> {
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        self.enclave.ecall(|vault, ctx| {
            let gk = vault.get(group).copied().expect("group key in vault");
            self.mgr.add_user(meta, identity, &gk, ctx.rng());
        });
        self.push(group, meta);
        Ok(())
    }

    /// Removes a user: fresh `gk` inside the enclave, full re-envelope
    /// (`O(n)`) and full re-upload.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn remove_user(&self, group: &str, identity: &str) -> Result<(), AcsError> {
        let mut cache = self.cache.lock();
        let meta = cache
            .get_mut(group)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        self.enclave.ecall(|vault, ctx| {
            let mut k = [0u8; 32];
            ctx.rng().generate(&mut k);
            let gk = HeGroupKey(k);
            self.mgr
                .remove_user_with_key(meta, identity, &gk, ctx.rng());
            vault.insert(group.to_string(), gk);
        });
        self.push(group, meta);
        Ok(())
    }

    /// Metadata footprint currently stored for `group` (Fig. 7 comparison).
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`].
    pub fn metadata_size(&self, group: &str) -> Result<usize, AcsError> {
        self.cache
            .lock()
            .get(group)
            .map(|m| m.size_bytes())
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))
    }

    /// The group manager (for client-side decryption in tests/benches).
    pub fn manager(&self) -> &HeGroupManager<HePki> {
        &self.mgr
    }

    /// Fetches and parses a group's envelope list from the cloud the way a
    /// client would.
    ///
    /// # Errors
    /// [`AcsError::UnknownGroup`] if the object is missing,
    /// [`AcsError::WireFormat`] if it fails to parse.
    pub fn fetch_metadata(&self, group: &str) -> Result<HeGroupMetadata, AcsError> {
        let (bytes, _) = self
            .store
            .get(group, HE_ITEM)
            .ok_or_else(|| AcsError::UnknownGroup(group.to_string()))?;
        decode_he_metadata(&bytes).ok_or(AcsError::WireFormat("he envelope list"))
    }

    fn push(&self, group: &str, meta: &HeGroupMetadata) {
        self.store.put(group, HE_ITEM, encode_he_metadata(meta));
    }
}

impl core::fmt::Debug for HeAdmin {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "HeAdmin({} cached groups)", self.cache.lock().len())
    }
}

/// Serializes an envelope list: `count:u32 ‖ (id_len:u16 ‖ id ‖ env_len:u32 ‖ env)*`.
pub fn encode_he_metadata(meta: &HeGroupMetadata) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + meta.size_bytes());
    out.extend_from_slice(&(meta.len() as u32).to_be_bytes());
    for (id, env) in meta.iter() {
        out.extend_from_slice(&(id.len() as u16).to_be_bytes());
        out.extend_from_slice(id.as_bytes());
        out.extend_from_slice(&(env.len() as u32).to_be_bytes());
        out.extend_from_slice(env);
    }
    out
}

/// Parses an envelope list serialized by [`encode_he_metadata`].
pub fn decode_he_metadata(bytes: &[u8]) -> Option<HeGroupMetadata> {
    let mut cur = 0usize;
    let take = |cur: &mut usize, n: usize| -> Option<&[u8]> {
        let s = bytes.get(*cur..*cur + n)?;
        *cur += n;
        Some(s)
    };
    let count = u32::from_be_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
    let mut meta = HeGroupMetadata::default();
    for _ in 0..count {
        let id_len = u16::from_be_bytes(take(&mut cur, 2)?.try_into().ok()?) as usize;
        let id = std::str::from_utf8(take(&mut cur, id_len)?)
            .ok()?
            .to_string();
        let env_len = u32::from_be_bytes(take(&mut cur, 4)?.try_into().ok()?) as usize;
        let env = take(&mut cur, env_len)?.to_vec();
        meta.push_envelope(id, env);
    }
    if cur != bytes.len() {
        return None;
    }
    Some(meta)
}
