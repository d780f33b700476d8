//! Read/write data-plane workload: object traffic interleaved with
//! membership churn — the scenario family the envelope-encrypted data plane
//! opens (reads, writes and the re-encryption pressure revocations create).
//!
//! Events replay through the same generic driver as membership traces
//! ([`crate::replay_events`]): a backend implements
//! [`crate::EventBackend<RwOp>`] and gets per-kind latency series for free.
//! Object popularity is skewed (square-law, a cheap Zipf stand-in) so hot
//! objects get rewritten — and thus lazily re-encrypted — quickly, while a
//! cold tail lingers on old epochs until a sweeper migrates it, which is
//! precisely the trade-off the repo benchmark's `revoke_sweep` workload
//! measures.

use crate::trace::TraceOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One data-plane event.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RwOp {
    /// Write (create or overwrite) an object with fresh content.
    Write {
        /// Object name inside the group's data folder.
        object: String,
    },
    /// Read an object previously written in this trace.
    Read {
        /// Object name inside the group's data folder.
        object: String,
    },
    /// A burst of membership operations the admin applies as one batch
    /// (revocations inside it rotate the group key and start a lazy
    /// re-encryption window).
    Churn {
        /// The membership operations, internally consistent with
        /// sequential application.
        ops: Vec<TraceOp>,
    },
}

impl crate::replay::ReplayOp for RwOp {
    fn kind(&self) -> &'static str {
        match self {
            RwOp::Write { .. } => "write",
            RwOp::Read { .. } => "read",
            RwOp::Churn { .. } => "churn",
        }
    }
}

/// Parameters for one read/write workload.
#[derive(Clone, Copy, Debug)]
pub struct RwTraceConfig {
    /// Size of the object namespace.
    pub objects: usize,
    /// Number of read/write events (churn bursts are injected on top).
    pub events: usize,
    /// Fraction of events that are writes, in `[0, 1]`.
    pub write_ratio: f64,
    /// Inject one churn burst after every this many read/write events
    /// (`0` = membership never changes).
    pub churn_every: usize,
    /// Operations per churn burst.
    pub churn_ops: usize,
    /// Fraction of each churn burst that is revocations, in `[0, 1]`.
    pub churn_revocation_ratio: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RwTraceConfig {
    fn default() -> Self {
        Self {
            objects: 64,
            events: 400,
            write_ratio: 0.3,
            churn_every: 50,
            churn_ops: 8,
            churn_revocation_ratio: 0.5,
            seed: 0xda7a,
        }
    }
}

/// Output of the generator: the group members that must exist before replay
/// plus the event sequence.
#[derive(Clone, Debug)]
pub struct RwTrace {
    /// Provenance (generator + parameters).
    pub name: String,
    /// Group members to create before the timed section starts (sized so
    /// revocations never exhaust the group).
    pub initial_members: Vec<String>,
    /// The events, in replay order.
    pub events: Vec<RwOp>,
}

impl RwTrace {
    /// Total events, including churn bursts.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of churn bursts in the trace.
    pub fn churn_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RwOp::Churn { .. }))
            .count()
    }
}

/// Generates a read/write workload: `events` object operations with
/// square-law-skewed popularity, reads drawn only from already-written
/// objects (a read before the first write is forced into a write), and one
/// membership churn burst every `churn_every` events.
///
/// # Panics
/// Panics if `write_ratio` or `churn_revocation_ratio` is outside `[0, 1]`,
/// or if `objects` is zero.
pub fn generate_read_write(cfg: &RwTraceConfig) -> RwTrace {
    assert!(
        (0.0..=1.0).contains(&cfg.write_ratio),
        "write ratio must be within [0, 1]"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.churn_revocation_ratio),
        "churn revocation ratio must be within [0, 1]"
    );
    assert!(cfg.objects > 0, "object namespace must not be empty");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // enough members that every churn burst can revoke at full ratio
    let churn_bursts = cfg.events.checked_div(cfg.churn_every).unwrap_or(0);
    let initial = (churn_bursts * cfg.churn_ops).max(4);
    let initial_members: Vec<String> = (0..initial).map(|i| format!("seed-{i:06}")).collect();

    let mut present = initial_members.clone();
    let mut next_uid = 0usize;
    let mut written = vec![false; cfg.objects];
    let mut any_written = false;
    let mut events = Vec::with_capacity(cfg.events + churn_bursts);
    for i in 0..cfg.events {
        // square-law skew: hot objects cluster at low indices
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut idx = ((u * u) * cfg.objects as f64) as usize;
        idx = idx.min(cfg.objects - 1);
        let is_write = rng.gen_range(0.0..1.0) < cfg.write_ratio || !any_written;
        if is_write {
            written[idx] = true;
            any_written = true;
            events.push(RwOp::Write {
                object: object_name(idx),
            });
        } else {
            // reads target written objects only; walk down the skew curve
            // to the nearest one (index 0 is written first in practice)
            let idx = (0..=idx)
                .rev()
                .chain(idx + 1..cfg.objects)
                .find(|&j| written[j])
                .expect("any_written guarantees at least one");
            events.push(RwOp::Read {
                object: object_name(idx),
            });
        }
        if cfg.churn_every > 0 && (i + 1) % cfg.churn_every == 0 {
            let removes = (cfg.churn_ops as f64 * cfg.churn_revocation_ratio).round() as usize;
            let mut ops = Vec::with_capacity(cfg.churn_ops);
            for k in 0..cfg.churn_ops {
                if k < removes && !present.is_empty() {
                    let victim = rng.gen_range(0..present.len());
                    ops.push(TraceOp::Remove {
                        user: present.swap_remove(victim),
                    });
                } else {
                    let user = format!("new-{next_uid:06}");
                    next_uid += 1;
                    present.push(user.clone());
                    ops.push(TraceOp::Add { user });
                }
            }
            events.push(RwOp::Churn { ops });
        }
    }

    RwTrace {
        name: format!(
            "read-write(objects={}, events={}, writes={:.0}%, churn every {} × {} ops, seed={:#x})",
            cfg.objects,
            cfg.events,
            cfg.write_ratio * 100.0,
            cfg.churn_every,
            cfg.churn_ops,
            cfg.seed
        ),
        initial_members,
        events,
    }
}

/// Canonical object name for namespace index `i`.
pub fn object_name(i: usize) -> String {
    format!("obj-{i:05}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn trace_has_requested_shape() {
        let cfg = RwTraceConfig {
            objects: 16,
            events: 100,
            write_ratio: 0.4,
            churn_every: 25,
            churn_ops: 4,
            churn_revocation_ratio: 0.5,
            seed: 1,
        };
        let t = generate_read_write(&cfg);
        assert_eq!(t.churn_count(), 4);
        assert_eq!(t.event_count(), 104);
        // every churn burst has the requested op count and revocation mix
        for e in &t.events {
            if let RwOp::Churn { ops } = e {
                assert_eq!(ops.len(), 4);
                let removes = ops
                    .iter()
                    .filter(|o| matches!(o, TraceOp::Remove { .. }))
                    .count();
                assert_eq!(removes, 2);
            }
        }
    }

    #[test]
    fn reads_only_target_written_objects() {
        let t = generate_read_write(&RwTraceConfig {
            objects: 8,
            events: 200,
            write_ratio: 0.2,
            churn_every: 0,
            ..RwTraceConfig::default()
        });
        assert_eq!(t.churn_count(), 0);
        let mut written: HashSet<&str> = HashSet::new();
        for e in &t.events {
            match e {
                RwOp::Write { object } => {
                    written.insert(object);
                }
                RwOp::Read { object } => {
                    assert!(written.contains(object.as_str()), "read-before-write");
                }
                RwOp::Churn { .. } => unreachable!("churn disabled"),
            }
        }
        assert!(!written.is_empty());
    }

    #[test]
    fn churn_is_sequentially_consistent_with_membership() {
        let t = generate_read_write(&RwTraceConfig::default());
        let mut present: HashSet<String> = t.initial_members.iter().cloned().collect();
        for e in &t.events {
            if let RwOp::Churn { ops } = e {
                for op in ops {
                    match op {
                        TraceOp::Add { user } => assert!(present.insert(user.clone())),
                        TraceOp::Remove { user } => assert!(present.remove(user)),
                    }
                }
            }
        }
        assert!(!present.is_empty());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = RwTraceConfig::default();
        assert_eq!(
            generate_read_write(&cfg).events,
            generate_read_write(&cfg).events
        );
        let other = generate_read_write(&RwTraceConfig {
            seed: cfg.seed + 1,
            ..cfg
        });
        assert_ne!(generate_read_write(&cfg).events, other.events);
    }

    #[test]
    #[should_panic(expected = "write ratio")]
    fn bad_write_ratio_panics() {
        generate_read_write(&RwTraceConfig {
            write_ratio: 1.5,
            ..RwTraceConfig::default()
        });
    }
}
