//! The process-wide span registry: per-span-name call counts plus
//! nearest-rank latency percentiles.
//!
//! Every closed span is folded in while telemetry is enabled (the
//! dispatcher feeds [`global_registry`] before the subscriber sees the
//! span), so after any instrumented run the registry can answer "how many
//! times did `store.put` run and what was its p99" without the caller
//! having kept the raw spans around.

use crate::stats::percentiles;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Per-name sample cap — past this the count keeps climbing but new
/// samples are dropped, bounding a long run's memory at a distribution
/// estimate over the first `SAMPLE_CAP` calls.
const SAMPLE_CAP: usize = 1 << 16;

#[derive(Default)]
struct Series {
    count: u64,
    samples: Vec<Duration>,
}

/// Aggregates span durations by span name. The process-wide instance is
/// [`global_registry`]; fresh instances serve tests.
#[derive(Default)]
pub struct Registry {
    series: Mutex<HashMap<&'static str, Series>>,
}

/// One row of [`Registry::summary`]: a span name with its call count and
/// requested percentiles.
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// The span name.
    pub name: &'static str,
    /// Total spans closed under this name (including past the sample cap).
    pub count: u64,
    /// One duration per requested percentile, nearest-rank.
    pub percentiles: Vec<Duration>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one closed span into `name`'s series.
    pub fn observe(&self, name: &'static str, sample: Duration) {
        let mut series = crate::lock(&self.series);
        let entry = series.entry(name).or_default();
        entry.count += 1;
        if entry.samples.len() < SAMPLE_CAP {
            entry.samples.push(sample);
        }
    }

    /// Total spans closed under `name` (0 when never seen).
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        crate::lock(&self.series).get(name).map_or(0, |s| s.count)
    }

    /// Nearest-rank percentiles of `name`'s latency samples — all
    /// [`Duration::ZERO`] when the series is empty or unknown.
    #[must_use]
    pub fn percentiles(&self, name: &str, pcts: &[f64]) -> Vec<Duration> {
        let mut samples = crate::lock(&self.series)
            .get(name)
            .map(|s| s.samples.clone())
            .unwrap_or_default();
        percentiles(&mut samples, pcts)
    }

    /// Every series, sorted by name, with the requested percentiles.
    #[must_use]
    pub fn summary(&self, pcts: &[f64]) -> Vec<SpanSummary> {
        let mut rows: Vec<SpanSummary> = crate::lock(&self.series)
            .iter()
            .map(|(name, series)| SpanSummary {
                name,
                count: series.count,
                percentiles: percentiles(&mut series.samples.clone(), pcts),
            })
            .collect();
        rows.sort_by_key(|r| r.name);
        rows
    }

    /// Clears every series — benches call this between phases so a
    /// summary covers exactly one measured window.
    pub fn reset(&self) {
        crate::lock(&self.series).clear();
    }
}

/// The process-wide registry the span dispatcher feeds.
#[must_use]
pub fn global_registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn unknown_and_empty_series_report_zeros() {
        let r = Registry::new();
        assert_eq!(r.count("never"), 0);
        assert_eq!(
            r.percentiles("never", &[0.0, 50.0, 100.0]),
            vec![Duration::ZERO; 3]
        );
        assert!(r.summary(&[50.0]).is_empty());
    }

    #[test]
    fn a_single_sample_is_every_percentile() {
        let r = Registry::new();
        r.observe("one", ms(9));
        assert_eq!(r.count("one"), 1);
        assert_eq!(
            r.percentiles("one", &[0.0, 50.0, 99.0, 100.0]),
            vec![ms(9); 4]
        );
    }

    #[test]
    fn counts_and_percentiles_accumulate_per_name() {
        let r = Registry::new();
        for v in 1..=100 {
            r.observe("a", ms(v));
        }
        r.observe("b", ms(7));
        assert_eq!(r.count("a"), 100);
        assert_eq!(r.percentiles("a", &[50.0, 99.0]), vec![ms(50), ms(99)]);
        let summary = r.summary(&[100.0]);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "a");
        assert_eq!(summary[1].name, "b");
        assert_eq!(summary[1].count, 1);
        r.reset();
        assert_eq!(r.count("a"), 0);
    }
}
