//! Adaptive partition sizing — the paper's first future-work item (§VIII):
//! *"dynamically adapt the partition sizes based on the undergoing workload.
//! This would optimize the speed of administrator- and user-performed
//! operations."*
//!
//! The trade-off being tuned (paper §IV-C): a small partition makes client
//! decryption cheap (`O(|p|²)`) but multiplies the partitions the admin must
//! re-key per revocation (`|P| × O(1)`); a large partition does the reverse.
//! [`AdaptivePolicy`] observes the live operation mix over a sliding window
//! and recommends the fill size that balances the two measured costs.

use crate::batch::BatchOutcome;
use crate::engine::PartitionSize;
use crate::error::CoreError;

/// Workload-aware partition-size controller.
///
/// The recommendation minimizes a simple cost model over the observed
/// window:
///
/// ```text
/// cost(p) = removes · (members / p) · c_rekey        (admin side)
///         + decrypts · (c_pair + p · c_member)       (client side)
/// ```
///
/// which has the closed-form optimum
/// `p* = sqrt(removes · members · c_rekey / (decrypts · c_member))`, clamped
/// to `[min, max]` where `max` is the public key's capacity fixed at
/// bootstrap. The cost ratio `c_rekey / c_member` is `REKEY_WEIGHT`.
#[derive(Clone, Debug)]
pub struct AdaptivePolicy {
    min: usize,
    max: usize,
    window: usize,
    adds: usize,
    removes: usize,
    decrypts: usize,
}

/// `c_rekey / c_member`: what one more partition adds to a revocation (a
/// `GT`, a `G2` and a `G1` exponentiation and an AES wrap) against the
/// per-member share of a client decrypt — `msm(p)/p` under the multi-scalar
/// multiplication, not one `G2` exponentiation. Both sides now run on every
/// core the host has (the re-keys of a revocation side by side, the decrypt's
/// multi-scalar multiplication split in per-core runs), so both are taken as
/// wall clock per unit, not as the cost of one kernel. Measured on this
/// substrate with the repo benchmark (`membership`, traced, |p| = 128, 33
/// partitions, 2 cores): `core.apply_batch_ms / core.rekey_partitions_per_op`
/// = 12.97 ms / 33 ≈ 0.39 ms (one re-key alone, `core.rekey_partition_ms`, is
/// still 0.63 ms — two run at once) over `ibbe.decrypt_ms / 128` =
/// 9.66 ms / 128 ≈ 0.075 ms — i.e. ≈ 5, where it stood before either side
/// was spread (0.63 over 0.125): both halved.
const REKEY_WEIGHT: f64 = 5.0;

impl AdaptivePolicy {
    /// Creates a policy bounded by `[min, max]` with a default observation
    /// window of 256 operations.
    ///
    /// # Errors
    /// [`CoreError::InvalidPartitionSize`] if `min` is 0 or `min > max`.
    pub fn new(min: usize, max: usize) -> Result<Self, CoreError> {
        if min == 0 || min > max {
            return Err(CoreError::InvalidPartitionSize(min));
        }
        Ok(Self {
            min,
            max,
            window: 256,
            adds: 0,
            removes: 0,
            decrypts: 0,
        })
    }

    /// Overrides the sliding-window length (in operations).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    fn maybe_decay(&mut self) {
        let total = self.adds + self.removes + self.decrypts;
        if total >= self.window {
            // exponential decay keeps the window sliding without a deque
            self.adds /= 2;
            self.removes /= 2;
            self.decrypts /= 2;
        }
    }

    /// Records an observed add operation.
    pub fn record_add(&mut self) {
        self.adds += 1;
        self.maybe_decay();
    }

    /// Records an observed remove operation.
    pub fn record_remove(&mut self) {
        self.removes += 1;
        self.maybe_decay();
    }

    /// Records an observed client decryption (e.g. reported by telemetry or
    /// estimated from group size).
    pub fn record_decrypt(&mut self) {
        self.decrypts += 1;
        self.maybe_decay();
    }

    /// Records a coalesced batch observation ([`BatchOutcome`], the batched
    /// membership pipeline).
    ///
    /// Additions are counted per identity (each still costs one `O(1)`
    /// ciphertext update), but a gk-rotating batch contributes **one**
    /// revocation event no matter how many removals it coalesced: the admin
    /// pays the `|P| × O(1)` re-key sweep once per batch, which is exactly
    /// the cost the `removes` term of the model prices. Feeding raw per-op
    /// removal counts from a batched workload would overstate revocation
    /// pressure by the mean batch size.
    pub fn record_batch(&mut self, outcome: &BatchOutcome) {
        self.adds += outcome.added.len();
        if outcome.gk_rotated {
            self.removes += 1;
        }
        self.maybe_decay();
    }

    /// The partition size minimizing the modelled cost for a group of
    /// `members`, clamped to the policy bounds.
    pub fn recommended(&self, members: usize) -> PartitionSize {
        let members = members.max(1) as f64;
        let removes = self.removes as f64;
        let decrypts = self.decrypts as f64;
        let p = if removes == 0.0 {
            // no revocation pressure: favour the cheapest decryption
            self.min as f64
        } else if decrypts == 0.0 {
            // no decryption pressure: one partition if capacity allows
            self.max as f64
        } else {
            (removes * members * REKEY_WEIGHT / decrypts).sqrt()
        };
        let clamped = (p.round() as usize).clamp(self.min, self.max);
        PartitionSize::new(clamped).expect("bounds validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_validated() {
        assert!(AdaptivePolicy::new(0, 10).is_err());
        assert!(AdaptivePolicy::new(5, 4).is_err());
        assert!(AdaptivePolicy::new(1, 1).is_ok());
    }

    #[test]
    fn no_removals_favours_small_partitions() {
        let mut p = AdaptivePolicy::new(8, 512).unwrap();
        for _ in 0..50 {
            p.record_decrypt();
            p.record_add();
        }
        assert_eq!(p.recommended(1000).get(), 8);
    }

    #[test]
    fn removal_heavy_favours_large_partitions() {
        let mut p = AdaptivePolicy::new(8, 512).unwrap();
        for _ in 0..50 {
            p.record_remove();
        }
        assert_eq!(p.recommended(1000).get(), 512);
    }

    #[test]
    fn balanced_workload_lands_in_between() {
        let mut p = AdaptivePolicy::new(8, 4096).unwrap();
        for _ in 0..40 {
            p.record_remove();
            p.record_decrypt();
        }
        let rec = p.recommended(1000).get();
        // p* = sqrt(1 · 1000 · 5) ≈ 71
        assert!((48..=112).contains(&rec), "got {rec}");
    }

    #[test]
    fn more_revocation_pressure_grows_partitions_monotonically() {
        let mut low = AdaptivePolicy::new(4, 4096).unwrap();
        let mut high = AdaptivePolicy::new(4, 4096).unwrap();
        for i in 0..60 {
            low.record_decrypt();
            high.record_decrypt();
            if i % 6 == 0 {
                low.record_remove();
            } else {
                high.record_remove();
            }
        }
        assert!(high.recommended(2000).get() >= low.recommended(2000).get());
    }

    #[test]
    fn window_decay_forgets_old_behaviour() {
        let mut p = AdaptivePolicy::new(8, 512).unwrap().with_window(32);
        for _ in 0..100 {
            p.record_remove(); // old regime: revocation-heavy
        }
        for _ in 0..200 {
            p.record_decrypt(); // new regime: read-heavy
            p.record_add();
        }
        // new regime dominates: recommendation near the small bound
        assert!(p.recommended(1000).get() <= 64);
    }

    fn batch_outcome(adds: usize, removes: usize) -> BatchOutcome {
        BatchOutcome {
            added: (0..adds).map(|i| format!("a{i}")).collect(),
            removed: (0..removes).map(|i| format!("r{i}")).collect(),
            gk_rotated: removes > 0,
            partitions_rekeyed: if removes > 0 { 4 } else { 0 },
            ..BatchOutcome::default()
        }
    }

    #[test]
    fn batched_removes_count_one_rekey_sweep_per_batch() {
        // 10 sequential removes vs one 10-remove batch: the batch costs the
        // admin a single |P|-sweep, so it must register 10× less revocation
        // pressure.
        let mut sequential = AdaptivePolicy::new(8, 4096).unwrap();
        let mut batched = AdaptivePolicy::new(8, 4096).unwrap();
        for _ in 0..10 {
            sequential.record_remove();
            sequential.record_decrypt();
            batched.record_decrypt();
        }
        batched.record_batch(&batch_outcome(0, 10));
        assert!(
            batched.recommended(2000).get() < sequential.recommended(2000).get(),
            "coalesced removals must exert less per-op revocation pressure"
        );
    }

    #[test]
    fn recommendation_grows_with_batched_remove_share() {
        // Same decrypt pressure, growing share of batches that carry
        // removals: the recommendation must shift toward larger partitions
        // monotonically.
        let recommend_for_share = |remove_batches: usize| {
            let mut p = AdaptivePolicy::new(8, 4096).unwrap();
            for i in 0..20 {
                p.record_decrypt();
                let with_removes = i < remove_batches;
                p.record_batch(&batch_outcome(3, usize::from(with_removes) * 5));
            }
            p.recommended(2000).get()
        };
        let shares: Vec<usize> = [0, 5, 10, 20]
            .iter()
            .map(|&s| recommend_for_share(s))
            .collect();
        assert!(
            shares.windows(2).all(|w| w[0] <= w[1]),
            "recommendation must be monotone in batched-remove share: {shares:?}"
        );
        assert!(
            shares[3] > shares[0],
            "all-remove batches must recommend strictly larger partitions \
             than pure-add batches: {shares:?}"
        );
    }

    #[test]
    fn recommendation_respects_capacity() {
        let p = AdaptivePolicy::new(8, 64).unwrap();
        assert!(p.recommended(1_000_000).get() <= 64);
        assert!(p.recommended(1).get() >= 8);
    }
}
