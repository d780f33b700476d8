//! Injectable network-latency model for the simulated cloud store.
//!
//! The paper deploys on Dropbox and notes that client-perceived decryption
//! cost is dominated by cloud round-trips (§VI-A). The latency model lets
//! macrobenchmarks reproduce that effect; unit tests run with
//! [`LatencyModel::none`].

use std::time::Duration;

/// Latency applied to each store request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    base: Duration,
    jitter: Duration,
    /// Marginal cost of each additional item in a batched request: a
    /// multi-PUT pays one round trip (`base + jitter`) plus `per_item` for
    /// every item beyond the first (serialization/owned-bandwidth cost),
    /// which is what makes batched publishes realistically cheaper than N
    /// independent round trips.
    per_item: Duration,
}

impl LatencyModel {
    /// No artificial latency (unit tests, microbenchmarks).
    pub fn none() -> Self {
        Self {
            base: Duration::ZERO,
            jitter: Duration::ZERO,
            per_item: Duration::ZERO,
        }
    }

    /// Fixed latency plus uniform jitter in `[0, jitter]`.
    pub fn new(base: Duration, jitter: Duration) -> Self {
        Self {
            base,
            jitter,
            per_item: Duration::ZERO,
        }
    }

    /// Sets the marginal per-item cost charged to batched requests.
    pub fn with_per_item(mut self, per_item: Duration) -> Self {
        self.per_item = per_item;
        self
    }

    /// Samples one request's latency.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        if self.jitter.is_zero() {
            return self.base;
        }
        let j = rng.gen_range(0..=self.jitter.as_micros() as u64);
        self.base + Duration::from_micros(j)
    }

    /// Samples the latency of one batched request carrying `items` items:
    /// one round trip plus the marginal per-item cost beyond the first.
    pub fn sample_batch<R: rand::Rng + ?Sized>(&self, rng: &mut R, items: usize) -> Duration {
        if items == 0 {
            return Duration::ZERO;
        }
        self.sample(rng) + self.per_item * (items - 1) as u32
    }

    /// True when the model never sleeps (fast path).
    pub fn is_zero(&self) -> bool {
        self.base.is_zero() && self.jitter.is_zero() && self.per_item.is_zero()
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn none_is_zero() {
        assert!(LatencyModel::none().is_zero());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(LatencyModel::none().sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn samples_within_bounds() {
        let m = LatencyModel::new(Duration::from_millis(10), Duration::from_millis(5));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let d = m.sample(&mut rng);
            assert!(d >= Duration::from_millis(10));
            assert!(d <= Duration::from_millis(15));
        }
    }

    #[test]
    fn batched_requests_pay_one_round_trip_plus_marginal_items() {
        let m = LatencyModel::new(Duration::from_millis(10), Duration::ZERO)
            .with_per_item(Duration::from_millis(2));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(m.sample_batch(&mut rng, 0), Duration::ZERO);
        assert_eq!(m.sample_batch(&mut rng, 1), Duration::from_millis(10));
        // 5 items: one 10ms round trip + 4 × 2ms marginal — far below the
        // 50ms five independent PUTs would cost
        assert_eq!(m.sample_batch(&mut rng, 5), Duration::from_millis(18));
        assert!(!m.is_zero());
    }
}
