//! The Delerablée IBBE scheme, in both its traditional (public-key, `O(n²)`)
//! and IBBE-SGX (`MSK`-based, `O(n)`) variants — paper §IV-B and Appendix A.
//!
//! The two encryption paths produce **identical** ciphertext distributions;
//! the `MSK` path merely computes the exponent `∏(γ + H(u))` directly in
//! `Z_r` instead of expanding a polynomial against published powers of `γ`.
//! This is the entire source of the paper's complexity cut, and it is only
//! safe because `γ` lives inside the enclave.
//!
//! Where the public path (and every decryption) must evaluate a polynomial
//! "in the exponent" against the published `h^(γ^l)`, it does so with one
//! `G2` multi-scalar multiplication (`G2Projective::msm`: a bucket sum over
//! the coefficients' `ψ`-split digits), and decryption's two pairings share
//! a Miller loop and a final exponentiation (`pairing_product`). Those
//! kernels are variable-time in their scalars; the scalars here are
//! polynomial coefficients of public identity hashes.
//!
//! Every encryption, removal and re-key ends in the same three
//! exponentiations by a fresh `k`: `v^k` in `GT`, `w^(−k)` in `G1` and
//! `C3^k` in `G2`. `v` and `w` are fixed for the life of the key, so the
//! [`PublicKey`] builds a fixed-base table for each on first use
//! (`ibbe_pairing::FixedBase`: no squaring or doubling chain, one group
//! operation per 6-bit window of the split exponent); `C3` differs per
//! partition and keeps the variable-base kernel. These lookups are indexed
//! by the secret `k`, as the variable-base kernels' are: variable-time,
//! like the rest of the pairing crate.

use crate::error::IbbeError;
use crate::poly::expand_from_roots;
use ibbe_pairing::{
    hash_to_scalar, pairing, pairing_product, FixedBase, G1Affine, G1Projective, G2Affine,
    G2Projective, Gt, Scalar, GT_BYTES,
};
use std::sync::{Arc, OnceLock};

/// Domain-separation tag for identity hashing (`H : {0,1}* → Z_r*`).
const ID_DOMAIN: &[u8] = b"ibbe-delerablee-identity-v1";

/// Hashes a user identity to `Z_r*` (the paper's `H(u)`).
pub fn hash_identity(id: &str) -> Scalar {
    hash_to_scalar(ID_DOMAIN, id.as_bytes())
}

/// The master secret key `MSK = (g, γ)`. In IBBE-SGX this value exists only
/// inside the admin enclave.
#[derive(Clone)]
pub struct MasterSecretKey {
    pub(crate) g: G1Affine,
    pub(crate) gamma: Scalar,
}

impl core::fmt::Debug for MasterSecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "MasterSecretKey(<redacted>)")
    }
}

/// The system public key
/// `PK = (w, v, h, h^γ, …, h^(γ^m))`, linear in the maximum receiver-set
/// size `m` (paper §III-C: for IBBE-SGX, `m` is the *partition* size).
///
/// The key also carries fixed-base tables of `v` and `w` (275 KB), which
/// every encryption, removal and re-key exponentiates. They are derived
/// from the key, built on the first of those calls, and shared by every
/// clone, whether cloned before or after. A holder that only decrypts never
/// builds them. Equality and the encoding ignore them.
#[derive(Clone)]
pub struct PublicKey {
    pub(crate) w: G1Affine,
    pub(crate) v: Gt,
    pub(crate) h_powers: Vec<G2Affine>,
    tables: Arc<OnceLock<Tables>>,
}

/// The fixed-base tables of a [`PublicKey`]'s two constant bases.
struct Tables {
    v: FixedBase<Gt>,
    w: FixedBase<G1Affine>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        (self.w, self.v, &self.h_powers) == (other.w, other.v, &other.h_powers)
    }
}

impl Eq for PublicKey {}

impl PublicKey {
    fn new(w: G1Affine, v: Gt, h_powers: Vec<G2Affine>) -> Self {
        Self {
            w,
            v,
            h_powers,
            tables: Arc::default(),
        }
    }

    /// The tables of `v` and `w`, built by the first caller.
    fn tables(&self) -> &Tables {
        self.tables.get_or_init(|| Tables {
            v: FixedBase::<Gt>::new(&self.v),
            w: FixedBase::<G1Affine>::new(&self.w),
        })
    }

    /// Maximum receiver-set size supported.
    pub fn max_group_size(&self) -> usize {
        self.h_powers.len() - 1
    }

    /// `h = h^(γ^0)`.
    pub fn h(&self) -> &G2Affine {
        &self.h_powers[0]
    }

    /// Serialized size in bytes (for footprint accounting).
    pub fn size_bytes(&self) -> usize {
        use ibbe_pairing::{G1_COMPRESSED_BYTES, G2_COMPRESSED_BYTES};
        G1_COMPRESSED_BYTES + GT_BYTES + self.h_powers.len() * G2_COMPRESSED_BYTES
    }

    /// Serialized form: `w`, `v`, then `h, h^γ, …, h^(γ^m)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&self.w.to_bytes());
        out.extend_from_slice(&self.v.to_bytes());
        for h in &self.h_powers {
            out.extend_from_slice(&h.to_bytes());
        }
        out
    }

    /// Parses [`PublicKey::to_bytes`], validating every group element. The
    /// key has no tables until it first encrypts or re-keys.
    ///
    /// # Errors
    /// [`IbbeError::InvalidEncoding`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbbeError> {
        use ibbe_pairing::{G1_COMPRESSED_BYTES as L1, G2_COMPRESSED_BYTES as L2};
        let powers = bytes.get(L1 + GT_BYTES..).unwrap_or_default();
        if powers.len() < 2 * L2 || powers.len() % L2 != 0 {
            return Err(IbbeError::InvalidEncoding);
        }
        let w = G1Affine::from_bytes(&bytes[..L1]);
        let v = Gt::from_bytes(&bytes[L1..L1 + GT_BYTES]);
        let h_powers = powers.chunks_exact(L2).map(G2Affine::from_bytes).collect();
        match (w, v, h_powers) {
            (Some(w), Some(v), Some(h_powers)) => Ok(Self::new(w, v, h_powers)),
            _ => Err(IbbeError::InvalidEncoding),
        }
    }
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PublicKey(m={})", self.max_group_size())
    }
}

/// A user secret key `USK_u = g^(1/(γ + H(u)))` — constant size.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct UserSecretKey(pub(crate) G1Affine);

impl UserSecretKey {
    /// Serialized form (compressed `G1`, 49 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Parses a serialized key, validating group membership.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbbeError> {
        G1Affine::from_bytes(bytes)
            .map(Self)
            .ok_or(IbbeError::InvalidEncoding)
    }
}

impl core::fmt::Debug for UserSecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "UserSecretKey(<redacted>)")
    }
}

/// The broadcast key `bk = v^k` — the secret shared with the receiver set
/// (wrapped around the group key by the partitioning layer).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct BroadcastKey(pub(crate) Gt);

impl BroadcastKey {
    /// Key-derivation bytes: the paper computes `sgx_sha(bk)` and feeds it
    /// to AES; this is the `bk` serialization that gets hashed.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }
}

impl core::fmt::Debug for BroadcastKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BroadcastKey(<redacted>)")
    }
}

/// The encryption randomness `k` (`bk = v^k`, `C1 = w^(-k)`, `C2 = C3^k`),
/// drawn apart from its use: a caller that encrypts or re-keys many
/// partitions takes every [`Ephemeral::draw`] from its one RNG in a fixed
/// order and is then free to run the exponentiations — pure functions of
/// their arguments ([`encrypt_with_msk_using`], [`rekey_using`]) — wherever
/// and in whatever order it likes. Whoever holds `k` can derive `bk`, so the
/// type is opaque: no bytes, no serialisation, no copy.
pub struct Ephemeral(Scalar);

impl Ephemeral {
    /// Draws a fresh non-zero `k`.
    pub fn draw<R: rand::RngCore + ?Sized>(rng: &mut R) -> Self {
        Self(Scalar::random_nonzero(rng))
    }
}

impl core::fmt::Debug for Ephemeral {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Ephemeral(<redacted>)")
    }
}

/// The broadcast ciphertext `(C1, C2, C3)`.
///
/// `C1 = w^(-k)`, `C2 = h^(k·∏(γ+H(u)))`, and the auxiliary
/// `C3 = h^(∏(γ+H(u)))` (paper Eq. 5) enabling `O(1)` removal and re-keying.
/// Constant size: 49 + 97 + 97 = 243 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ciphertext {
    pub(crate) c1: G1Affine,
    pub(crate) c2: G2Affine,
    pub(crate) c3: G2Affine,
}

/// Serialized ciphertext size in bytes.
pub const CIPHERTEXT_BYTES: usize =
    ibbe_pairing::G1_COMPRESSED_BYTES + 2 * ibbe_pairing::G2_COMPRESSED_BYTES;

impl Ciphertext {
    /// Serializes to `CIPHERTEXT_BYTES` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CIPHERTEXT_BYTES);
        out.extend_from_slice(&self.c1.to_bytes());
        out.extend_from_slice(&self.c2.to_bytes());
        out.extend_from_slice(&self.c3.to_bytes());
        out
    }

    /// Parses a serialized ciphertext, validating all group elements.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbbeError> {
        use ibbe_pairing::{G1_COMPRESSED_BYTES as L1, G2_COMPRESSED_BYTES as L2};
        if bytes.len() != CIPHERTEXT_BYTES {
            return Err(IbbeError::InvalidEncoding);
        }
        let c1 = G1Affine::from_bytes(&bytes[..L1]).ok_or(IbbeError::InvalidEncoding)?;
        let c2 = G2Affine::from_bytes(&bytes[L1..L1 + L2]).ok_or(IbbeError::InvalidEncoding)?;
        let c3 = G2Affine::from_bytes(&bytes[L1 + L2..]).ok_or(IbbeError::InvalidEncoding)?;
        Ok(Self { c1, c2, c3 })
    }
}

/// A receiver set that passed validation against a public key: not empty,
/// within the key's capacity, no identity twice.
#[derive(Clone, Copy, Debug)]
pub struct Receivers<'a>(&'a [String]);

impl<'a> Receivers<'a> {
    /// Validates `members` as a receiver set under `pk`.
    ///
    /// # Errors
    /// [`IbbeError::EmptyGroup`], [`IbbeError::GroupTooLarge`],
    /// [`IbbeError::DuplicateIdentity`].
    pub fn new(pk: &PublicKey, members: &'a [String]) -> Result<Self, IbbeError> {
        if members.is_empty() {
            return Err(IbbeError::EmptyGroup);
        }
        if members.len() > pk.max_group_size() {
            return Err(IbbeError::GroupTooLarge {
                requested: members.len(),
                max: pk.max_group_size(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        for m in members {
            if !seen.insert(m.as_str()) {
                return Err(IbbeError::DuplicateIdentity(m.clone()));
            }
        }
        Ok(Self(members))
    }

    /// The validated identities, in the caller's order.
    pub fn members(&self) -> &'a [String] {
        self.0
    }

    fn hashes(&self) -> Vec<Scalar> {
        self.0.iter().map(|m| hash_identity(m)).collect()
    }
}

/// System setup (paper §A-A): generates `MSK = (g, γ)` and
/// `PK = (w, v, h, h^γ, …, h^(γ^m))` for maximum receiver-set size `m`.
/// Cost is `O(m)` `G2` exponentiations.
pub fn setup<R: rand::RngCore + ?Sized>(
    max_group_size: usize,
    rng: &mut R,
) -> (MasterSecretKey, PublicKey) {
    assert!(max_group_size >= 1, "maximum group size must be at least 1");
    let g_scalar = Scalar::random_nonzero(rng);
    let g = G1Projective::generator().mul_scalar(&g_scalar).to_affine();
    let h_scalar = Scalar::random_nonzero(rng);
    let h_base = G2Projective::generator().mul_scalar(&h_scalar);
    let gamma = Scalar::random_nonzero(rng);

    let w = G1Projective::from(g).mul_scalar(&gamma).to_affine();
    let v = pairing(&g, &h_base.to_affine());

    let mut h_powers = Vec::with_capacity(max_group_size + 1);
    let mut cur = h_base;
    h_powers.push(cur.to_affine());
    for _ in 0..max_group_size {
        cur = cur.mul_scalar(&gamma);
        h_powers.push(cur.to_affine());
    }

    (MasterSecretKey { g, gamma }, PublicKey::new(w, v, h_powers))
}

/// Extracts a user secret key (paper §A-B): `USK = g^(1/(γ + H(u)))`.
/// Constant cost.
pub fn extract(msk: &MasterSecretKey, identity: &str) -> UserSecretKey {
    let denom = msk.gamma + hash_identity(identity);
    let inv = denom
        .invert()
        .expect("γ + H(u) = 0 has probability ≈ 2⁻²⁵⁵");
    UserSecretKey(G1Projective::from(msk.g).mul_scalar(&inv).to_affine())
}

/// IBBE-SGX encryption (paper §A-C, Eq. 3): using `MSK`, the exponent
/// `∏(γ + H(u))` is computed directly in `Z_r`, making the operation
/// **linear** in the receiver-set size (one `G2` exponentiation overall).
/// The set is validated before `k` is drawn, so a rejected set consumes no
/// randomness; the rest is [`encrypt_with_msk_using`].
///
/// # Errors
/// Set-validation failures ([`IbbeError::EmptyGroup`],
/// [`IbbeError::GroupTooLarge`], [`IbbeError::DuplicateIdentity`]).
pub fn encrypt_with_msk<R: rand::RngCore + ?Sized>(
    msk: &MasterSecretKey,
    pk: &PublicKey,
    members: &[String],
    rng: &mut R,
) -> Result<(BroadcastKey, Ciphertext), IbbeError> {
    let receivers = Receivers::new(pk, members)?;
    let k = Ephemeral::draw(rng);
    Ok(encrypt_with_msk_using(msk, pk, receivers, &k))
}

/// [`encrypt_with_msk`] for a `k` drawn beforehand: a pure function of its
/// arguments.
pub fn encrypt_with_msk_using(
    msk: &MasterSecretKey,
    pk: &PublicKey,
    receivers: Receivers<'_>,
    k: &Ephemeral,
) -> (BroadcastKey, Ciphertext) {
    let identities = receivers.0.iter();
    let exponent: Scalar = identities.map(|m| msk.gamma + hash_identity(m)).product();
    rekey_from_c3(pk, G2Projective::from(*pk.h()).mul_scalar(&exponent), k)
}

/// Traditional IBBE encryption (paper Eq. 4): without `MSK`, the polynomial
/// `∏(x + H(u))` is expanded (`O(n²)` scalar work) and evaluated "in the
/// exponent" against the published `h^(γ^l)` — one `n`-term `G2`
/// multi-scalar multiplication.
///
/// # Errors
/// Same set-validation failures as [`encrypt_with_msk`].
pub fn encrypt_public<R: rand::RngCore + ?Sized>(
    pk: &PublicKey,
    members: &[String],
    rng: &mut R,
) -> Result<(BroadcastKey, Ciphertext), IbbeError> {
    let hashes = Receivers::new(pk, members)?.hashes();
    let k = Ephemeral::draw(rng);
    // h^(Σ c_l·γ^l) from the published powers; variable-time in the
    // coefficients, which derive from public identities only
    let coeffs = expand_from_roots(&hashes);
    let c3 = G2Projective::msm(&pk.h_powers[..coeffs.len()], &coeffs);
    Ok(rekey_from_c3(pk, c3, &k))
}

/// Decryption (paper §A-D): recovers `bk` for member `identity` of the
/// receiver set `members`. `O(n²)` scalar work for the polynomial expansion
/// plus one `(n−1)`-term `G2` multi-scalar multiplication, one `G1`
/// multiplication and a two-pairing product — identical for IBBE and
/// IBBE-SGX, which is why the partitioning mechanism exists. The
/// multi-scalar multiplication is most of the cost at the partition sizes
/// the schemes run at (|p| = 128: about two thirds of a decrypt on two
/// cores, the pairing product most of the rest); the expansion's quadratic
/// term only shows in the thousands.
///
/// # Errors
/// [`IbbeError::NotAMember`] if `identity ∉ members`, plus set-validation
/// failures.
pub fn decrypt(
    pk: &PublicKey,
    usk: &UserSecretKey,
    identity: &str,
    members: &[String],
    ct: &Ciphertext,
) -> Result<BroadcastKey, IbbeError> {
    let mut others = Receivers::new(pk, members)?.hashes();
    let Some(me) = members.iter().position(|m| m == identity) else {
        return Err(IbbeError::NotAMember(identity.to_string()));
    };
    others.remove(me);

    // p_{i,S}(γ) = (1/γ)·(∏_{j≠i}(γ+H_j) − ∏_{j≠i}H_j): with coefficients
    // c_l of ∏_{j≠i}(x+H_j), this is Σ_{l≥1} c_l·γ^(l-1), evaluated in the
    // exponent against h^(γ^0), …, h^(γ^(n-2)). bk is that pairing product
    // raised to d = 1/∏_{j≠i}H_j = 1/c_0; by bilinearity d rides in the
    // arguments instead — the MSM's coefficients and one G1 multiple of
    // USK — so no GT power is taken.
    let mut coeffs = expand_from_roots(&others);
    let d = coeffs[0]
        .invert()
        .expect("identity hashes are non-zero, so the product is non-zero");
    for c in &mut coeffs[1..] {
        *c *= d;
    }
    let h_p = G2Projective::msm(&pk.h_powers[..coeffs.len() - 1], &coeffs[1..]);
    let usk_d = G1Projective::from(usk.0).mul_scalar(&d);

    // e(C1, h^(p·d))·e(USK^d, C2): one Miller loop, one final exponentiation
    let e = pairing_product(&[(ct.c1, h_p.to_affine()), (usk_d.to_affine(), ct.c2)]);
    Ok(BroadcastKey(e))
}

/// Adds a user to an existing ciphertext using `MSK` (paper §A-E):
/// `C2 ← C2^(γ+H(u))`, `C3 ← C3^(γ+H(u))`, constant cost, `bk` unchanged
/// (the joiner may read prior secrets).
pub fn add_user_with_msk(msk: &MasterSecretKey, ct: &Ciphertext, new_identity: &str) -> Ciphertext {
    let e = msk.gamma + hash_identity(new_identity);
    Ciphertext {
        c1: ct.c1,
        c2: G2Projective::from(ct.c2).mul_scalar(&e).to_affine(),
        c3: G2Projective::from(ct.c3).mul_scalar(&e).to_affine(),
    }
}

/// Removes a user using `MSK` (paper §A-F, Eqs. 6–7): `C3` is divided by
/// `(γ+H(u))` in the exponent, a fresh `k` is drawn, and `(bk, C1, C2)` are
/// rebuilt from `C3` — constant cost.
pub fn remove_user_with_msk<R: rand::RngCore + ?Sized>(
    msk: &MasterSecretKey,
    pk: &PublicKey,
    ct: &Ciphertext,
    removed_identity: &str,
    rng: &mut R,
) -> (BroadcastKey, Ciphertext) {
    let e = msk.gamma + hash_identity(removed_identity);
    let e_inv = e.invert().expect("γ + H(u) ≠ 0");
    let c3 = G2Projective::from(ct.c3).mul_scalar(&e_inv);
    rekey_from_c3(pk, c3, &Ephemeral::draw(rng))
}

/// Re-keying (paper §A-G): draws a fresh `k` and rebuilds `(bk, C1, C2)`
/// from `C3` in constant time. Works with the public key only — `C3` is
/// public — so **both** IBBE and IBBE-SGX get `O(1)` re-keys.
pub fn rekey<R: rand::RngCore + ?Sized>(
    pk: &PublicKey,
    ct: &Ciphertext,
    rng: &mut R,
) -> (BroadcastKey, Ciphertext) {
    rekey_using(pk, ct, &Ephemeral::draw(rng))
}

/// [`rekey`] for a `k` drawn beforehand: a pure function of its arguments.
pub fn rekey_using(pk: &PublicKey, ct: &Ciphertext, k: &Ephemeral) -> (BroadcastKey, Ciphertext) {
    rekey_from_c3(pk, G2Projective::from(ct.c3), k)
}

/// `(bk, C1, C2, C3) = (v^k, w^(-k), C3^k, C3)`: where every encryption,
/// removal and re-key ends. `v^k` and `w^(−k)` come from the key's
/// fixed-base tables (built here on the key's first call); `C3^k` is the
/// variable-base split product, since `C3` differs per partition.
fn rekey_from_c3(pk: &PublicKey, c3: G2Projective, k: &Ephemeral) -> (BroadcastKey, Ciphertext) {
    let (k, tables) = (&k.0, pk.tables());
    let bk = BroadcastKey(tables.v.pow(k));
    let c1 = tables.w.mul_scalar(&(-*k)).to_affine();
    let c2 = c3.mul_scalar(k).to_affine();
    (
        bk,
        Ciphertext {
            c1,
            c2,
            c3: c3.to_affine(),
        },
    )
}

/// Traditional-IBBE user addition (paper Table I: `O(1)` for both schemes
/// *in the ciphertext update*; without `MSK` the update
/// `C2^(γ+H(u))` is not computable, so the broadcaster re-keys from `C3`
/// after extending it via the public polynomial relation — which costs
/// `O(n²)` like encryption). Returns the new broadcast key.
///
/// # Errors
/// Set-validation failures for the extended member list.
pub fn add_user_public<R: rand::RngCore + ?Sized>(
    pk: &PublicKey,
    members_with_new_user: &[String],
    rng: &mut R,
) -> Result<(BroadcastKey, Ciphertext), IbbeError> {
    encrypt_public(pk, members_with_new_user, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibbe_pairing::{G1_COMPRESSED_BYTES, G2_COMPRESSED_BYTES};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("user-{i}@example.org")).collect()
    }

    #[test]
    fn msk_encrypt_then_member_decrypts() {
        let mut r = rng(1);
        let (msk, pk) = setup(8, &mut r);
        let members = names(5);
        let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        for m in &members {
            let usk = extract(&msk, m);
            let got = decrypt(&pk, &usk, m, &members, &ct).unwrap();
            assert_eq!(got, bk, "member {m} must recover bk");
        }
    }

    #[test]
    fn public_encrypt_then_member_decrypts() {
        let mut r = rng(2);
        let (msk, pk) = setup(8, &mut r);
        let members = names(4);
        let (bk, ct) = encrypt_public(&pk, &members, &mut r).unwrap();
        let usk = extract(&msk, &members[2]);
        assert_eq!(decrypt(&pk, &usk, &members[2], &members, &ct).unwrap(), bk);
    }

    #[test]
    fn msk_and_public_paths_agree_exactly_with_same_randomness() {
        // Same seed → same k → bit-identical (bk, C1, C2, C3). This
        // cross-validates the polynomial expansion against direct use of γ,
        // and the `n`-term MSM that evaluates it against one scalar
        // multiplication: on both sides of the MSM's switch from the Straus
        // loop to buckets, and at the partition sizes the schemes run at.
        let mut r = rng(3);
        let (msk, pk) = setup(300, &mut r);
        for n in [1, 2, 6, 127, 128, 300] {
            let members = names(n);
            let (bk1, ct1) = encrypt_with_msk(&msk, &pk, &members, &mut rng(77)).unwrap();
            let (bk2, ct2) = encrypt_public(&pk, &members, &mut rng(77)).unwrap();
            assert_eq!(bk1, bk2, "{n} members");
            assert_eq!(ct1, ct2, "{n} members");
        }
    }

    #[test]
    fn non_member_cannot_decrypt() {
        let mut r = rng(4);
        let (msk, pk) = setup(8, &mut r);
        let members = names(3);
        let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        // not in the set at all → API error
        let outsider_key = extract(&msk, "eve@example.org");
        assert_eq!(
            decrypt(&pk, &outsider_key, "eve@example.org", &members, &ct),
            Err(IbbeError::NotAMember("eve@example.org".into()))
        );
        // in the set, but using someone else's key → wrong bk
        let got = decrypt(&pk, &outsider_key, &members[0], &members, &ct).unwrap();
        assert_ne!(got, bk, "wrong key must not recover bk");
    }

    #[test]
    fn add_user_msk_keeps_bk_and_admits_new_member() {
        let mut r = rng(5);
        let (msk, pk) = setup(8, &mut r);
        let mut members = names(3);
        let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        let ct2 = add_user_with_msk(&msk, &ct, "dave@example.org");
        members.push("dave@example.org".into());
        // new member decrypts the same bk
        let usk = extract(&msk, "dave@example.org");
        assert_eq!(
            decrypt(&pk, &usk, "dave@example.org", &members, &ct2).unwrap(),
            bk
        );
        // old member still decrypts
        let usk0 = extract(&msk, &members[0]);
        assert_eq!(
            decrypt(&pk, &usk0, &members[0], &members, &ct2).unwrap(),
            bk
        );
    }

    #[test]
    fn remove_user_msk_rotates_bk_and_excludes_removed() {
        let mut r = rng(6);
        let (msk, pk) = setup(8, &mut r);
        let members = names(4);
        let (bk_old, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        let removed = members[1].clone();
        let (bk_new, ct2) = remove_user_with_msk(&msk, &pk, &ct, &removed, &mut r);
        assert_ne!(bk_old, bk_new);
        let remaining: Vec<String> = members.iter().filter(|m| **m != removed).cloned().collect();
        // remaining members recover the new key
        for m in &remaining {
            let usk = extract(&msk, m);
            assert_eq!(decrypt(&pk, &usk, m, &remaining, &ct2).unwrap(), bk_new);
        }
        // the removed member, even with a valid key and full knowledge of the
        // old member list, cannot recover the new key
        let usk_rm = extract(&msk, &removed);
        let got = decrypt(&pk, &usk_rm, &removed, &members, &ct2).unwrap();
        assert_ne!(got, bk_new);
    }

    #[test]
    fn rekey_is_public_and_rotates_bk() {
        let mut r = rng(7);
        let (msk, pk) = setup(8, &mut r);
        let members = names(3);
        let (bk_old, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        let (bk_new, ct2) = rekey(&pk, &ct, &mut r); // no MSK needed
        assert_ne!(bk_old, bk_new);
        assert_eq!(ct.c3, ct2.c3, "re-keying preserves C3");
        let usk = extract(&msk, &members[0]);
        assert_eq!(
            decrypt(&pk, &usk, &members[0], &members, &ct2).unwrap(),
            bk_new
        );
    }

    #[test]
    fn set_validation_errors() {
        let mut r = rng(8);
        let (msk, pk) = setup(3, &mut r);
        assert_eq!(
            encrypt_with_msk(&msk, &pk, &[], &mut r),
            Err(IbbeError::EmptyGroup)
        );
        assert_eq!(
            encrypt_with_msk(&msk, &pk, &names(4), &mut r),
            Err(IbbeError::GroupTooLarge {
                requested: 4,
                max: 3
            })
        );
        let dup = vec!["a".to_string(), "a".to_string()];
        assert_eq!(
            encrypt_with_msk(&msk, &pk, &dup, &mut r),
            Err(IbbeError::DuplicateIdentity("a".into()))
        );
    }

    #[test]
    fn singleton_group_works() {
        let mut r = rng(9);
        let (msk, pk) = setup(4, &mut r);
        let members = vec!["solo".to_string()];
        let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        let usk = extract(&msk, "solo");
        assert_eq!(decrypt(&pk, &usk, "solo", &members, &ct).unwrap(), bk);
    }

    #[test]
    fn full_capacity_group_works() {
        let mut r = rng(10);
        let (msk, pk) = setup(5, &mut r);
        let members = names(5);
        let (bk, ct) = encrypt_public(&pk, &members, &mut r).unwrap();
        let usk = extract(&msk, &members[4]);
        assert_eq!(decrypt(&pk, &usk, &members[4], &members, &ct).unwrap(), bk);
    }

    #[test]
    fn ciphertext_serialization_roundtrip() {
        let mut r = rng(11);
        let (msk, pk) = setup(4, &mut r);
        let (_, ct) = encrypt_with_msk(&msk, &pk, &names(3), &mut r).unwrap();
        let bytes = ct.to_bytes();
        assert_eq!(bytes.len(), CIPHERTEXT_BYTES);
        assert_eq!(Ciphertext::from_bytes(&bytes).unwrap(), ct);
        assert!(Ciphertext::from_bytes(&bytes[..100]).is_err());
        let mut bad = bytes.clone();
        bad[1] ^= 0xff;
        assert!(Ciphertext::from_bytes(&bad).is_err());
    }

    #[test]
    fn usk_serialization_roundtrip() {
        let mut r = rng(12);
        let (msk, _) = setup(2, &mut r);
        let usk = extract(&msk, "alice");
        assert_eq!(UserSecretKey::from_bytes(&usk.to_bytes()).unwrap(), usk);
        assert!(UserSecretKey::from_bytes(&[0u8; 3]).is_err());
    }

    #[test]
    fn clones_share_one_table() {
        let mut r = rng(14);
        let (msk, pk) = setup(4, &mut r);
        let before = pk.clone();
        assert!(pk.tables.get().is_none(), "setup builds no table");
        encrypt_with_msk(&msk, &pk, &names(2), &mut r).unwrap();
        let after = pk.clone();
        let built = pk.tables.get().expect("the first encryption builds them");
        for clone in [&before, &after] {
            let shared = clone.tables.get().expect("a clone sees the tables");
            assert!(core::ptr::eq(shared, built), "one table for every clone");
        }
    }

    #[test]
    fn a_parsed_key_equals_the_original_and_encrypts_alike() {
        let mut r = rng(15);
        let (msk, pk) = setup(4, &mut r);
        let members = names(3);
        let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut rng(99)).unwrap();
        let bytes = pk.to_bytes();
        assert_eq!(bytes.len(), pk.size_bytes());
        let parsed = PublicKey::from_bytes(&bytes).unwrap();
        assert!(pk.tables.get().is_some() && parsed.tables.get().is_none());
        assert_eq!(parsed, pk, "equality ignores the tables");
        // a table-less key encrypts exactly as one with tables
        let again = encrypt_with_msk(&msk, &parsed, &members, &mut rng(99)).unwrap();
        assert_eq!(again, (bk, ct));
        // a truncated point, or only `h` and so no receiver at all
        let h_only = G1_COMPRESSED_BYTES + GT_BYTES + G2_COMPRESSED_BYTES;
        for cut in [0, bytes.len() - 1, h_only] {
            assert!(PublicKey::from_bytes(&bytes[..cut]).is_err(), "{cut} bytes");
        }
        let mut bad = bytes.clone();
        bad[G1_COMPRESSED_BYTES + 7] ^= 1; // v leaves GT
        assert!(PublicKey::from_bytes(&bad).is_err());
    }

    #[test]
    fn decrypting_never_builds_a_table() {
        let mut r = rng(16);
        let (msk, pk) = setup(4, &mut r);
        let client = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
        let members = names(3);
        let (bk, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        let usk = extract(&msk, &members[1]);
        assert_eq!(
            decrypt(&client, &usk, &members[1], &members, &ct).unwrap(),
            bk
        );
        assert!(client.tables.get().is_none());
    }

    #[test]
    fn removed_then_readded_user_can_decrypt_again() {
        let mut r = rng(13);
        let (msk, pk) = setup(8, &mut r);
        let members = names(3);
        let (_, ct) = encrypt_with_msk(&msk, &pk, &members, &mut r).unwrap();
        let (_, ct2) = remove_user_with_msk(&msk, &pk, &ct, &members[0], &mut r);
        let ct3 = add_user_with_msk(&msk, &ct2, &members[0]);
        let (bk4, ct4) = rekey(&pk, &ct3, &mut r);
        let usk = extract(&msk, &members[0]);
        assert_eq!(
            decrypt(&pk, &usk, &members[0], &members, &ct4).unwrap(),
            bk4
        );
    }
}
