//! Reference oracles for the differential tests: the byte-wise FIPS 197
//! cipher (`SubBytes`/`ShiftRows`/`MixColumns`, S-box derived at run time)
//! and the bit-serial GF(2¹²⁸) multiply the table kernels replaced, plus a
//! GCM `seal` composed from nothing else. Slow on purpose — every line maps
//! to a line of the standards.
//!
//! Compiled into two test targets — `tests/prop.rs` (`mod reference;`) and
//! the crate's unit tests (`#[path]` from `src/lib.rs`) — each of which uses
//! a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

fn sbox() -> [u8; 256] {
    // exp/log tables for GF(2^8) with generator 3 (x+1)
    let mut exp = [0u8; 256];
    let mut log = [0u8; 256];
    let mut x = 1u8;
    for (i, e) in exp.iter_mut().enumerate().take(255) {
        *e = x;
        log[x as usize] = i as u8;
        x ^= xtime(x);
    }
    exp[255] = exp[0];
    let mut s = [0u8; 256];
    for (i, slot) in s.iter_mut().enumerate() {
        let b = if i == 0 {
            0
        } else {
            exp[255 - log[i] as usize]
        };
        // affine transform
        *slot =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
    }
    s
}

/// Byte-wise AES (FIPS 197 §5.1 and §5.2), 16- or 32-byte keys.
pub struct Aes {
    sbox: [u8; 256],
    round_keys: Vec<[u8; 16]>,
}

impl Aes {
    pub fn new(key: &[u8]) -> Self {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8, 14),
            n => panic!("unsupported AES key length {n}"),
        };
        let sbox = sbox();
        let nw = 4 * (rounds + 1);
        let mut w = vec![[0u8; 4]; nw];
        for i in 0..nk {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in nk..nw {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                temp = temp.map(|b| sbox[b as usize]);
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = temp.map(|b| sbox[b as usize]);
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| c.concat().try_into().unwrap())
            .collect();
        Self { sbox, round_keys }
    }

    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rounds = self.round_keys.len() - 1;
        let add_rk = |b: &mut [u8; 16], rk: &[u8; 16]| {
            for i in 0..16 {
                b[i] ^= rk[i];
            }
        };
        let mut block = *block;
        add_rk(&mut block, &self.round_keys[0]);
        for round in 1..=rounds {
            // SubBytes
            block = block.map(|b| self.sbox[b as usize]);
            // ShiftRows (state is column-major: byte (r, c) at 4c + r)
            let prev = block;
            for r in 1..4 {
                for c in 0..4 {
                    block[4 * c + r] = prev[4 * ((c + r) % 4) + r];
                }
            }
            // MixColumns (skipped in the final round)
            if round != rounds {
                for col in block.chunks_exact_mut(4) {
                    let [a, b, c, d] = [col[0], col[1], col[2], col[3]];
                    col[0] = xtime(a) ^ (xtime(b) ^ b) ^ c ^ d;
                    col[1] = a ^ xtime(b) ^ (xtime(c) ^ c) ^ d;
                    col[2] = a ^ b ^ xtime(c) ^ (xtime(d) ^ d);
                    col[3] = (xtime(a) ^ a) ^ b ^ c ^ xtime(d);
                }
            }
            add_rk(&mut block, &self.round_keys[round]);
        }
        block
    }
}

/// GF(2¹²⁸) multiplication with the GCM bit order (right-shift variant,
/// reduction polynomial `R = 0xe1 ∥ 0¹²⁰`), SP 800-38D algorithm 1.
pub fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

fn block_to_u128(b: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..b.len()].copy_from_slice(b);
    u128::from_be_bytes(buf)
}

/// Increments the last 32 bits of a counter block (big-endian, wrapping).
fn inc32(block: &mut [u8; 16]) {
    let v = u32::from_be_bytes([block[12], block[13], block[14], block[15]]);
    block[12..].copy_from_slice(&v.wrapping_add(1).to_be_bytes());
}

/// AES-GCM `ciphertext ‖ tag` with a 96-bit nonce (SP 800-38D algorithm 4),
/// one block and one bit-serial multiply at a time.
pub fn seal(key: &[u8], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let aes = Aes::new(key);
    let h = u128::from_be_bytes(aes.encrypt_block(&[0u8; 16]));
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(nonce);
    j0[15] = 1;

    let mut counter = j0;
    let mut out = plaintext.to_vec();
    for chunk in out.chunks_mut(16) {
        inc32(&mut counter);
        for (d, k) in chunk.iter_mut().zip(aes.encrypt_block(&counter)) {
            *d ^= k;
        }
    }

    let mut y = 0u128;
    for chunk in aad.chunks(16).chain(out.chunks(16)) {
        y = gf_mul(y ^ block_to_u128(chunk), h);
    }
    let lens = ((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8);
    y = gf_mul(y ^ lens, h);

    let tag = y ^ u128::from_be_bytes(aes.encrypt_block(&j0));
    out.extend_from_slice(&tag.to_be_bytes());
    out
}
