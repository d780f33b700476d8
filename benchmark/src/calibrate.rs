//! Speed calibration against a fixed reference kernel.
//!
//! The sandbox vCPU does not run at one speed. It sits in one of two
//! frequency states about 28 % apart for seconds at a time, and for stretches
//! of seconds to minutes its neighbours contend for the core and slow
//! compute-bound code by a further 30–90 %. Identical CPU-bound loops
//! therefore repeat only within ±15–20 % of raw wall clock. The reference
//! kernel below is a fixed amount of integer work that calls no repository
//! code, so a commit cannot change what it costs. Every timed segment is
//! bracketed by two bursts of short kernel slices; a duration is reported as
//!
//! ```text
//! calibrated = raw × REF_NOMINAL_S / median(slices before ∪ slices after)
//! ```
//!
//! i.e. in seconds of this host's fast, undisturbed state.
//!
//! * Short slices and their median (not one long run and its mean) because
//!   a slice that is preempted reads 2–3× too long, while undisturbed slices
//!   agree within 1 %.
//! * Two halves, both register-only and bound by instruction throughput,
//!   because that is what the neighbours slow. The frequency states scale
//!   all code alike, and any kernel corrects them exactly. Contention does
//!   not: while a 4 KiB AES-GCM seal ran 1.9–2.4× slower and a pairing
//!   1.6–2.0×, a dependent walk over an L2-resident table (which waits on
//!   cache latency) ran only 1.1–1.5× slower, eight multiply chains
//!   1.6–2.1× and a bit-serial GF(2¹²⁸) multiply 1.7–2.3×. Over 25 minutes
//!   with a tenth of the time contended, medians of 16 simulated segments
//!   calibrated by walk + chains (this file's first kernel) ranged over
//!   41 % for the seal and 14 % for the pairing; by the chains alone 24 %
//!   and 9 %, by the bit-serial multiply alone 10 % and 21 %, by both
//!   halves together 17 % and 14 %. The chains under-correct the ciphers,
//!   the bit-serial multiply over-corrects the pairing: the errors have
//!   opposite signs.
//!
//! The raw value is always printed beside the calibrated one (prefix
//! `raw.`).

use std::hint::black_box;
use std::time::Instant;

/// Wall clock of one [`reference_kernel`] slice in this host's fast state
/// (the low mode of several thousand slices when the benchmark was
/// written). A constant, so calibrated values from different commits and
/// runs share one unit.
pub const REF_NOMINAL_S: f64 = 0.00200;

/// Independent multiply chains: enough to keep the multiplier busy.
const CHAINS: usize = 8;
/// Rounds of the chains per slice: half of [`REF_NOMINAL_S`].
const CHAIN_ROUNDS: u64 = 340_000;
/// Bit-serial products per slice: the other half of [`REF_NOMINAL_S`].
const PRODUCTS: u64 = 5_900;
/// Slices per burst; a bracket's scale is the median of two bursts.
const BURST: usize = 9;

/// The multiplier-bound half: [`CHAINS`] independent register-only chains
/// of a 64×64→128-bit multiply folded by xor, rotate and add — the
/// instruction mix of the big-integer arithmetic under the pairing.
#[inline(never)]
fn multiply_chains() -> u64 {
    let mut x: [u64; CHAINS] = [
        0x9e37_79b9_7f4a_7c15,
        0x2545_f491_4f6c_dd1d,
        0xd129_0d3b_9c5b_f1a5,
        0xff51_afd7_ed55_8ccd,
        0xc4ce_b9fe_1a85_ec53,
        0x1234_5678_9abc_def1,
        0x0fed_cba9_8765_4321,
        0x5555_aaaa_3333_cccc,
    ];
    for _ in 0..black_box(CHAIN_ROUNDS) {
        for (i, v) in x.iter_mut().enumerate() {
            let wide = u128::from(*v) * 0xd129_0d3b_9c5b_f1a5_u128;
            *v = ((wide as u64) ^ ((wide >> 64) as u64))
                .rotate_left(17 + i as u32)
                .wrapping_add(0x9e37_79b9);
        }
    }
    x.iter().fold(0, |acc, v| acc ^ v)
}

/// One product in GF(2¹²⁸), a bit at a time: 128 rounds of shift, test and
/// conditional xor on 128-bit values.
#[inline(never)]
fn bit_serial_product(x: u128, y: u128) -> u128 {
    const REDUCTION: u128 = 0xe1 << 120;
    let mut product = 0u128;
    let mut v = x;
    for i in 0..128 {
        if (y >> (127 - i)) & 1 == 1 {
            product ^= v;
        }
        let carry = v & 1;
        v >>= 1;
        if carry == 1 {
            v ^= REDUCTION;
        }
    }
    product
}

/// The shift-and-xor half: a chain of [`PRODUCTS`] bit-serial products —
/// the instruction mix of a table-free cipher's inner loops.
fn bit_serial_products() -> u64 {
    let factor = 0x9e37_79b9_7f4a_7c15_d129_0d3b_9c5b_f1a5_u128;
    let mut y = 0x0123_4567_89ab_cdef_0f1e_2d3c_4b5a_6978_u128;
    for i in 0..black_box(PRODUCTS) {
        y = bit_serial_product(y ^ u128::from(i), factor);
    }
    (y as u64) ^ ((y >> 64) as u64)
}

/// One slice of the reference kernel. Returns a value that depends on
/// nothing but the constants here.
fn reference_kernel() -> u64 {
    black_box(multiply_chains() ^ bit_serial_products())
}

/// Seconds one slice of the reference kernel takes right now.
fn time_slice() -> f64 {
    let t = Instant::now();
    black_box(reference_kernel());
    t.elapsed().as_secs_f64()
}

/// One burst of slice timings.
fn burst() -> Vec<f64> {
    (0..BURST).map(|_| time_slice()).collect()
}

/// What one burst costs at nominal speed.
pub const BURST_NOMINAL_S: f64 = BURST as f64 * REF_NOMINAL_S;

/// `raw × REF_NOMINAL_S / reference`, where `reference` is what a slice
/// took around the measurement.
pub fn calibrated(raw: f64, reference: f64) -> f64 {
    raw * REF_NOMINAL_S / reference
}

/// Brackets consecutive segments: the burst that closes one segment opens
/// the next, so `n` segments cost `n + 1` bursts.
pub struct Bracket {
    last: Vec<f64>,
    /// False for sleep-bound workloads, which repeat within ±1 % raw: the
    /// kernel is skipped and every scale is 1.
    enabled: bool,
}

impl Bracket {
    /// Opens the first bracket (runs one burst when `enabled`).
    pub fn open(enabled: bool) -> Self {
        Self {
            last: if enabled { burst() } else { Vec::new() },
            enabled,
        }
    }

    /// Closes the current segment and returns the factor that turns its raw
    /// durations into calibrated ones.
    pub fn close(&mut self) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let after = burst();
        let mut both = std::mem::replace(&mut self.last, after.clone());
        both.extend(after);
        calibrated(1.0, crate::stats::median(&both))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_result_is_fixed_and_work_is_not_optimised_away() {
        assert_eq!(
            reference_kernel(),
            reference_kernel(),
            "the kernel depends on nothing but its constants"
        );
        // a deleted loop would finish in microseconds
        assert!(time_slice() > REF_NOMINAL_S / 20.0);
    }

    #[test]
    fn calibration_is_invariant_under_a_common_slowdown() {
        let fast = calibrated(1.0, 0.0021);
        for k in [0.5, 1.0, 1.37, 3.0] {
            let slow = calibrated(1.0 * k, 0.0021 * k);
            assert!((slow - fast).abs() < 1e-12, "factor {k}");
        }
    }

    #[test]
    fn nominal_speed_leaves_a_duration_unchanged() {
        assert!((calibrated(2.5, REF_NOMINAL_S) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_bracket_reports_raw_time() {
        let mut b = Bracket::open(false);
        assert_eq!(b.close(), 1.0);
    }

    #[test]
    fn an_enabled_bracket_scales_by_a_plausible_factor() {
        let mut b = Bracket::open(true);
        let scale = b.close();
        assert!(scale > 0.05 && scale < 5.0, "scale {scale}");
    }
}
