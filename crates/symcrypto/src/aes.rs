//! AES block cipher (FIPS 197), encryption direction.
//!
//! The S-box is derived programmatically from the GF(2⁸) structure instead
//! of being transcribed, and the four 256-entry `u32` T-tables (SubBytes,
//! ShiftRows and MixColumns folded into one lookup per state byte) are
//! derived from it; both are built by `const fn` at compile time. The state
//! is four big-endian `u32` columns, the key schedule a fixed `[u32; 60]`.
//! The implementation is validated against the FIPS 197 appendix vectors
//! and, differentially, against the byte-wise rounds kept as a test oracle.
//! Only the encryption direction is provided — CTR and GCM modes never
//! invert the block cipher.
//!
//! Table lookups are indexed by secret state bytes (as the plain S-box
//! lookups were): this stands in for SGX-SSL's AES-NI in a simulation and
//! is not hardened against cache-timing side channels.

/// Block size in bytes.
pub const BLOCK_LEN: usize = 16;

const fn xtime(x: u8) -> u8 {
    (x << 1) ^ ((x >> 7) * 0x1b)
}

const fn build_sbox() -> [u8; 256] {
    // exp/log tables for GF(2^8) with generator 3 (x+1)
    let mut exp = [0u8; 256];
    let mut log = [0u8; 256];
    let mut x = 1u8;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        log[x as usize] = i as u8;
        x ^= xtime(x);
        i += 1;
    }
    exp[255] = exp[0];
    let mut s = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let b = if i == 0 {
            0
        } else {
            exp[255 - log[i] as usize]
        };
        // affine transform
        s[i] = b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        i += 1;
    }
    s
}

/// `TE[0][x]` is the MixColumns image `(2·s, s, s, 3·s)` of `s = SBOX[x]`
/// in row 0, most significant byte first; `TE[r]` is the same for row `r`,
/// i.e. `TE[0]` rotated right by `r` bytes.
const fn build_te() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let w = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        let mut r = 0;
        while r < 4 {
            te[r][i] = w.rotate_right(8 * r as u32);
            r += 1;
        }
        i += 1;
    }
    te
}

static SBOX: [u8; 256] = build_sbox();
static TE: [[u32; 256]; 4] = build_te();

/// `SubWord` of the key schedule, also the last round's `SubBytes`.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// An AES encryption key schedule.
#[derive(Clone)]
pub struct Aes {
    /// Round-key words; the first `4 * (rounds + 1)` are in use.
    rk: [u32; 60],
    rounds: usize,
}

impl Aes {
    /// Expands a key. `key.len()` must be 16 (AES-128, present for
    /// test-vector coverage) or 32 (AES-256, the paper's "maximal security
    /// level", §V-B).
    ///
    /// # Panics
    /// Panics on any other key length.
    pub fn new(key: &[u8]) -> Self {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8, 14),
            n => panic!("unsupported AES key length {n}"),
        };
        let mut rk = [0u32; 60];
        for (w, k) in rk.iter_mut().zip(key.chunks_exact(4)) {
            *w = u32::from_be_bytes(k.try_into().expect("chunks_exact(4)"));
        }
        let mut rcon = 1u8;
        for i in nk..4 * (rounds + 1) {
            let mut temp = rk[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            rk[i] = rk[i - nk] ^ temp;
        }
        Self { rk, rounds }
    }

    /// Encrypts one block held as four big-endian column words.
    fn encrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        let (first, rest) = self.rk[..4 * (self.rounds + 1)].split_at(4);
        let (middle, last) = rest.split_at(rest.len() - 4);
        let mut s = [0u32; 4];
        for c in 0..4 {
            s[c] = block[c] ^ first[c];
        }
        for rk in middle.chunks_exact(4) {
            let p = s;
            for c in 0..4 {
                // ShiftRows: row r of output column c comes from column c + r
                s[c] = TE[0][(p[c] >> 24) as usize]
                    ^ TE[1][(p[(c + 1) % 4] >> 16) as usize & 0xff]
                    ^ TE[2][(p[(c + 2) % 4] >> 8) as usize & 0xff]
                    ^ TE[3][p[(c + 3) % 4] as usize & 0xff]
                    ^ rk[c];
            }
        }
        // the final round has no MixColumns
        let p = s;
        for c in 0..4 {
            let shifted = (p[c] & 0xff00_0000)
                | (p[(c + 1) % 4] & 0x00ff_0000)
                | (p[(c + 2) % 4] & 0x0000_ff00)
                | (p[(c + 3) % 4] & 0x0000_00ff);
            s[c] = sub_word(shifted) ^ last[c];
        }
        s
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        *block = self.encrypt_block_copy(block);
    }

    /// Encrypts a copy of `block` and returns it.
    pub fn encrypt_block_copy(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        join(self.encrypt_words(words(u128::from_be_bytes(*block)))).to_be_bytes()
    }
}

fn words(v: u128) -> [u32; 4] {
    [
        (v >> 96) as u32,
        (v >> 64) as u32,
        (v >> 32) as u32,
        v as u32,
    ]
}

fn join(w: [u32; 4]) -> u128 {
    w.iter().fold(0, |v, &x| (v << 32) | u128::from(x))
}

impl core::fmt::Debug for Aes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Aes({} rounds, key material redacted)", self.rounds)
    }
}

/// AES-CTR keystream XOR: encrypts or decrypts `data` in place with the
/// 16-byte initial counter block `iv_counter` (incremented big-endian on the
/// low 32 bits, wrapping, GCM-style).
pub fn ctr_xor(aes: &Aes, iv_counter: &[u8; 16], data: &mut [u8]) {
    let mut counter = words(u128::from_be_bytes(*iv_counter));
    let mut keystream = || {
        let ks = join(aes.encrypt_words(counter));
        counter[3] = counter[3].wrapping_add(1);
        ks
    };
    let mut blocks = data.chunks_exact_mut(BLOCK_LEN);
    for block in &mut blocks {
        let x = u128::from_be_bytes((&*block).try_into().expect("chunks_exact_mut(16)"));
        block.copy_from_slice(&(x ^ keystream()).to_be_bytes());
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        for (d, k) in tail.iter_mut().zip(keystream().to_be_bytes()) {
            *d ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn fips197_c1_aes128() {
        let key = unhex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key);
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_c3_aes256() {
        let key = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key);
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    #[should_panic(expected = "unsupported AES key length")]
    fn bad_key_length_panics() {
        let _ = Aes::new(&[0u8; 17]);
    }

    #[test]
    fn ctr_roundtrip_and_partial_block() {
        let aes = Aes::new(&[7u8; 32]);
        let iv = [9u8; 16];
        let mut data = b"attack at dawn -- 19 bytes".to_vec();
        let orig = data.clone();
        ctr_xor(&aes, &iv, &mut data);
        assert_ne!(data, orig);
        ctr_xor(&aes, &iv, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn inc32_wraps() {
        // SP 800-38D's inc32, now the counter word inside `ctr_xor`: from
        // ff ff ff fe, blocks 3 and 4 use counters 0 and 1 with the
        // upper 96 bits untouched (single-block values cross-checked against
        // `openssl enc -aes-256-ecb`, key 00..1f, upper bits 00..0b)
        let key: Vec<u8> = (0..32).collect();
        let aes = Aes::new(&key);
        let mut iv = [0u8; 16];
        for (i, b) in iv.iter_mut().enumerate().take(12) {
            *b = i as u8;
        }
        iv[12..].copy_from_slice(&[0xff, 0xff, 0xff, 0xfe]);
        let mut data = [0u8; 64];
        ctr_xor(&aes, &iv, &mut data);
        let expected = [
            (0xffff_fffeu32, "8b64b32ff7b39052bba97a548cd54f64"),
            (0xffff_ffff, "9d52ea871d37e206b64e902d1d857e44"),
            (0, "bddc4ccab15066ccc1fe6b0cba133eb6"),
            (1, "f4c2db1dc38805a37b92171c5d0a81cc"),
        ];
        for ((counter, hex), got) in expected.into_iter().zip(data.chunks(16)) {
            let mut block = iv;
            block[12..].copy_from_slice(&counter.to_be_bytes());
            assert_eq!(aes.encrypt_block_copy(&block).as_slice(), got);
            assert_eq!(got, unhex(hex), "counter {counter:#x}");
        }
    }
}
