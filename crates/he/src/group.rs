//! Hybrid-Encryption group access control (the paper's baseline, §III-B):
//! a symmetric group key `gk` is enveloped individually to every member
//! with public-key (HE-PKI) or identity-based (HE-IBE) encryption.
//!
//! Characteristic costs the benchmarks reproduce:
//! * create/remove are `O(n)` public-key operations;
//! * metadata grows **linearly** with the group (vs IBBE's constant size);
//! * add and decrypt are `O(1)`.

use rand::RngCore;
use std::collections::HashMap;

use crate::ibe::{IbeParams, IbeUserKey};
use crate::pki::{PkiKeyPair, PkiPublicKey};

/// The symmetric group key the envelopes protect (the paper's `gk`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct GroupKey(pub [u8; 32]);

impl GroupKey {
    /// Draws a fresh random group key.
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut k = [0u8; 32];
        rng.fill_bytes(&mut k);
        Self(k)
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl core::fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "GroupKey(<redacted>)")
    }
}

/// An envelope scheme: how `gk` is wrapped for one recipient.
pub trait EnvelopeScheme {
    /// Public material needed to address one user (a public key for
    /// HE-PKI; nothing beyond the identity string for HE-IBE).
    type Recipient: Clone;
    /// Secret material a user holds to open envelopes.
    type UserSecret;

    /// Wraps `plaintext` for `identity`.
    fn seal(
        &self,
        identity: &str,
        recipient: &Self::Recipient,
        plaintext: &[u8],
        rng: &mut dyn RngCore,
    ) -> Vec<u8>;

    /// Unwraps an envelope; `None` on failure.
    fn open(&self, identity: &str, secret: &Self::UserSecret, envelope: &[u8]) -> Option<Vec<u8>>;
}

/// HE-PKI: envelopes are ECIES to per-user public keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct HePki;

impl EnvelopeScheme for HePki {
    type Recipient = PkiPublicKey;
    type UserSecret = PkiKeyPair;

    fn seal(
        &self,
        _identity: &str,
        recipient: &PkiPublicKey,
        plaintext: &[u8],
        rng: &mut dyn RngCore,
    ) -> Vec<u8> {
        recipient.seal(plaintext, rng)
    }

    fn open(&self, _identity: &str, secret: &PkiKeyPair, envelope: &[u8]) -> Option<Vec<u8>> {
        secret.open(envelope)
    }
}

/// HE-IBE: envelopes are Boneh–Franklin to identity strings.
#[derive(Clone, Debug)]
pub struct HeIbe {
    params: IbeParams,
}

impl HeIbe {
    /// Builds the scheme from public IBE parameters.
    pub fn new(params: IbeParams) -> Self {
        Self { params }
    }
}

impl EnvelopeScheme for HeIbe {
    type Recipient = ();
    type UserSecret = IbeUserKey;

    fn seal(
        &self,
        identity: &str,
        _recipient: &(),
        plaintext: &[u8],
        rng: &mut dyn RngCore,
    ) -> Vec<u8> {
        self.params.seal(identity, plaintext, rng)
    }

    fn open(&self, identity: &str, secret: &IbeUserKey, envelope: &[u8]) -> Option<Vec<u8>> {
        secret.open(identity, envelope)
    }
}

/// Group metadata: one envelope per member. Its size — the quantity plotted
/// in Fig. 2b / Fig. 7a — is linear in the member count.
#[derive(Clone, Debug, Default)]
pub struct HeGroupMetadata {
    envelopes: Vec<(String, Vec<u8>)>,
}

impl HeGroupMetadata {
    /// Current member identities.
    pub fn members(&self) -> impl Iterator<Item = &str> {
        self.envelopes.iter().map(|(id, _)| id.as_str())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// True when the group has no members.
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// Serialized metadata footprint in bytes (identities + envelopes).
    pub fn size_bytes(&self) -> usize {
        self.envelopes
            .iter()
            .map(|(id, env)| id.len() + env.len())
            .sum()
    }

    /// Iterates over `(identity, envelope)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.envelopes
            .iter()
            .map(|(id, env)| (id.as_str(), env.as_slice()))
    }

    /// Appends a pre-built envelope (used by wire deserialization).
    pub fn push_envelope(&mut self, identity: String, envelope: Vec<u8>) {
        self.envelopes.push((identity, envelope));
    }

    fn envelope_for(&self, identity: &str) -> Option<&[u8]> {
        self.envelopes
            .iter()
            .find(|(id, _)| id == identity)
            .map(|(_, env)| env.as_slice())
    }
}

/// Administrator-side manager for one HE scheme instance: knows how to
/// address every registered user and performs the membership operations.
pub struct HeGroupManager<S: EnvelopeScheme> {
    scheme: S,
    directory: HashMap<String, S::Recipient>,
}

impl<S: EnvelopeScheme> HeGroupManager<S> {
    /// Creates a manager around an envelope scheme.
    pub fn new(scheme: S) -> Self {
        Self {
            scheme,
            directory: HashMap::new(),
        }
    }

    /// Registers a user so groups can address them (PKI certificate
    /// issuance / IBE identity onboarding).
    pub fn register_user(&mut self, identity: &str, recipient: S::Recipient) {
        self.directory.insert(identity.to_string(), recipient);
    }

    fn seal_to(&self, identity: &str, gk: &GroupKey, rng: &mut dyn RngCore) -> (String, Vec<u8>) {
        let recipient = self
            .directory
            .get(identity)
            .unwrap_or_else(|| panic!("identity not registered: {identity}"));
        (
            identity.to_string(),
            self.scheme.seal(identity, recipient, &gk.0, rng),
        )
    }

    /// Creates a group: draws `gk` and envelopes it to every member —
    /// `O(n)` public-key operations, `O(n)` metadata.
    ///
    /// # Panics
    /// Panics if a member is not registered.
    pub fn create_group(
        &self,
        members: &[String],
        rng: &mut dyn RngCore,
    ) -> (GroupKey, HeGroupMetadata) {
        let gk = GroupKey::random(rng);
        (gk, self.envelope_group(&gk, members, rng))
    }

    /// Envelopes a caller-supplied `gk` to every member. This is the
    /// building block the zero-knowledge deployment uses: the `acs` layer
    /// calls it from inside an enclave so the admin never sees `gk`.
    ///
    /// # Panics
    /// Panics if a member is not registered.
    pub fn envelope_group(
        &self,
        gk: &GroupKey,
        members: &[String],
        rng: &mut dyn RngCore,
    ) -> HeGroupMetadata {
        let envelopes = members.iter().map(|m| self.seal_to(m, gk, rng)).collect();
        HeGroupMetadata { envelopes }
    }

    /// Adds a user: one envelope of the **current** `gk` — `O(1)`.
    ///
    /// # Panics
    /// Panics if the identity is not registered.
    pub fn add_user(
        &self,
        meta: &mut HeGroupMetadata,
        identity: &str,
        gk: &GroupKey,
        rng: &mut dyn RngCore,
    ) {
        debug_assert!(
            meta.envelope_for(identity).is_none(),
            "adding an existing member"
        );
        let env = self.seal_to(identity, gk, rng);
        meta.envelopes.push(env);
    }

    /// Removes a user: draws a **new** `gk` and re-envelopes it to every
    /// remaining member — `O(n)`, the cost the paper's Fig. 7a plots.
    pub fn remove_user(
        &self,
        meta: &mut HeGroupMetadata,
        identity: &str,
        rng: &mut dyn RngCore,
    ) -> GroupKey {
        let gk = GroupKey::random(rng);
        self.remove_user_with_key(meta, identity, &gk, rng);
        gk
    }

    /// Removal with a caller-supplied replacement `gk` (enclave-internal
    /// variant; see [`HeGroupManager::envelope_group`]).
    pub fn remove_user_with_key(
        &self,
        meta: &mut HeGroupMetadata,
        identity: &str,
        new_gk: &GroupKey,
        rng: &mut dyn RngCore,
    ) {
        meta.envelopes.retain(|(id, _)| id != identity);
        for slot in &mut meta.envelopes {
            *slot = self.seal_to(&slot.0, new_gk, rng);
        }
    }

    /// User-side decryption: find own envelope, open it — `O(1)`.
    pub fn decrypt(
        &self,
        identity: &str,
        secret: &S::UserSecret,
        meta: &HeGroupMetadata,
    ) -> Option<GroupKey> {
        let env = meta.envelope_for(identity)?;
        let pt = self.scheme.open(identity, secret, env)?;
        let bytes: [u8; 32] = pt.try_into().ok()?;
        Some(GroupKey(bytes))
    }
}

impl<S: EnvelopeScheme + core::fmt::Debug> core::fmt::Debug for HeGroupManager<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "HeGroupManager({:?}, {} registered users)",
            self.scheme,
            self.directory.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ibe::ibe_setup;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(47)
    }

    fn pki_setup(n: usize) -> (HeGroupManager<HePki>, Vec<String>, Vec<PkiKeyPair>) {
        let mut r = rng();
        let mut mgr = HeGroupManager::new(HePki);
        let members: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
        let keys: Vec<PkiKeyPair> = members
            .iter()
            .map(|m| {
                let kp = PkiKeyPair::generate(&mut r);
                mgr.register_user(m, kp.public_key());
                kp
            })
            .collect();
        (mgr, members, keys)
    }

    #[test]
    fn pki_create_and_decrypt() {
        let (mgr, members, keys) = pki_setup(4);
        let mut r = rng();
        let (gk, meta) = mgr.create_group(&members, &mut r);
        assert_eq!(meta.len(), 4);
        for (m, kp) in members.iter().zip(&keys) {
            assert_eq!(mgr.decrypt(m, kp, &meta).unwrap(), gk);
        }
    }

    #[test]
    fn pki_add_keeps_gk() {
        let (mut mgr, members, _keys) = pki_setup(3);
        let mut r = rng();
        let (gk, mut meta) = mgr.create_group(&members, &mut r);
        let newcomer = PkiKeyPair::generate(&mut r);
        mgr.register_user("newbie", newcomer.public_key());
        mgr.add_user(&mut meta, "newbie", &gk, &mut r);
        assert_eq!(meta.len(), 4);
        assert_eq!(mgr.decrypt("newbie", &newcomer, &meta).unwrap(), gk);
    }

    #[test]
    fn pki_remove_rotates_gk_and_excludes_removed() {
        let (mgr, members, keys) = pki_setup(4);
        let mut r = rng();
        let (gk_old, mut meta) = mgr.create_group(&members, &mut r);
        let gk_new = mgr.remove_user(&mut meta, &members[1], &mut r);
        assert_ne!(gk_old, gk_new);
        assert_eq!(meta.len(), 3);
        // removed member has no envelope any more
        assert!(mgr.decrypt(&members[1], &keys[1], &meta).is_none());
        // survivors learn the new key
        assert_eq!(mgr.decrypt(&members[0], &keys[0], &meta).unwrap(), gk_new);
    }

    #[test]
    fn metadata_grows_linearly() {
        let (mgr, members, _) = pki_setup(8);
        let mut r = rng();
        let (_, meta_small) = mgr.create_group(&members[..2], &mut r);
        let (_, meta_large) = mgr.create_group(&members, &mut r);
        assert!(meta_large.size_bytes() > 3 * meta_small.size_bytes());
    }

    #[test]
    fn ibe_end_to_end() {
        let mut r = rng();
        let (ibe_msk, params) = ibe_setup(&mut r);
        let mut mgr = HeGroupManager::new(HeIbe::new(params));
        let members: Vec<String> = (0..3).map(|i| format!("u{i}")).collect();
        for m in &members {
            mgr.register_user(m, ());
        }
        let (gk, mut meta) = mgr.create_group(&members, &mut r);
        let u1_key = ibe_msk.extract(&members[1]);
        assert_eq!(mgr.decrypt(&members[1], &u1_key, &meta).unwrap(), gk);
        // removal rotates
        let gk2 = mgr.remove_user(&mut meta, &members[1], &mut r);
        assert!(mgr.decrypt(&members[1], &u1_key, &meta).is_none());
        let u0_key = ibe_msk.extract(&members[0]);
        assert_eq!(mgr.decrypt(&members[0], &u0_key, &meta).unwrap(), gk2);
    }

    #[test]
    #[should_panic(expected = "identity not registered")]
    fn unregistered_member_panics() {
        let (mgr, _, _) = pki_setup(1);
        let mut r = rng();
        let _ = mgr.create_group(&["ghost".to_string()], &mut r);
    }
}
