//! Property test of fleet-sweep fairness: for any fleet shape (group
//! count, skewed object counts, worker count, lease size, shard count) and
//! any interleaving (arm order) of one-revocation waves across the groups,
//! a shared W-worker scheduler must
//!
//! 1. converge every group within its deadline (zero overshoot — no group
//!    starves, even the freshest);
//! 2. never grant a lease to a fresher group while a staler one had a unit
//!    ready (the staleness-priority invariant, checked grant by grant);
//! 3. bound any group's wait: the number of leases granted before a
//!    group's first is at most the total lease budget of strictly staler
//!    groups (work units + stale objects) — the "bounded gap" that makes
//!    starvation structurally impossible;
//! 4. migrate exactly what G dedicated one-group fleets migrate on an
//!    identically seeded deployment, group by group.
//!
//! A second property poisons one task (its sweeper identity revoked from
//! the group): that task's fatal error ends only its own run, and every
//! other group converges with the totals of a fleet that never had the
//! poisoned task.
//!
//! Case count: a light default (each case boots two full fleet stacks),
//! scaled up by `PROPTEST_CASES` like the other data-plane suites.

use acs::AcsError;
use acs::FleetFixture;
use cloud_store::CloudStore;
use dataplane::fixtures::{fleet_session, fleet_sweep_sessions};
use dataplane::{DataError, FleetConfig, SweepConfig, SweepScheduler, SweepTask};
use ibbe_sgx_core::{MembershipBatch, PartitionSize};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const WRITER: &str = "writer";
const SWEEPER: &str = "sweeper";

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|c| (c / 8).max(4))
        .unwrap_or(5)
}

struct Stack {
    fixture: FleetFixture,
}

fn build_stack(sizes: &[usize], shards: usize, seed: u64) -> Stack {
    let specs: Vec<(String, Vec<String>)> = (0..sizes.len())
        .map(|i| {
            (
                format!("g{i}"),
                (0..3).map(|m| format!("g{i}-u{m}")).collect(),
            )
        })
        .collect();
    let fixture = FleetFixture::new(
        CloudStore::new(),
        PartitionSize::new(2).unwrap(),
        &specs,
        &[WRITER.to_string(), SWEEPER.to_string()],
        seed,
    )
    .unwrap();
    for (i, &objects) in sizes.iter().enumerate() {
        let mut writer = fleet_session(&fixture, WRITER, &format!("g{i}"), shards, seed ^ 0xa0);
        for o in 0..objects {
            writer
                .write(&format!("obj-{o:03}"), format!("g{i}/{o}").as_bytes())
                .unwrap();
        }
    }
    // the wave: one revocation per group
    for i in 0..sizes.len() {
        let mut batch = MembershipBatch::new();
        batch.remove(format!("g{i}-u0"));
        let outcome = fixture
            .admin()
            .apply_batch(&format!("g{i}"), &batch)
            .unwrap();
        assert!(outcome.gk_rotated);
    }
    Stack { fixture }
}

/// The group's sweep task, with a lazy-window deadline no case can miss.
fn task(stack: &Stack, group: &str, shards: usize, seed: u64) -> SweepTask {
    SweepTask::new(
        fleet_sweep_sessions(&stack.fixture, SWEEPER, group, shards, seed),
        SweepConfig {
            deadline: Duration::from_secs(120),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn any_interleaving_converges_fairly_and_matches_dedicated_pools(
        seed: u64,
        groups in 2usize..=4,
        workers in 1usize..=3,
        shards in 1usize..=2,
        lease in 1usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee7);
        let sizes: Vec<usize> = (0..groups).map(|_| rng.gen_range(0..=6)).collect();
        // a random arm order: staleness uncorrelated with registration
        let mut arm_order: Vec<usize> = (0..groups).collect();
        for i in (1..groups).rev() {
            let j = rng.gen_range(0..=i);
            arm_order.swap(i, j);
        }

        // dedicated one-group fleets (a worker per shard), group by group,
        // on their own stack
        let ded = build_stack(&sizes, shards, seed);
        let mut dedicated_migrated = vec![0usize; groups];
        for i in 0..groups {
            let mut dedicated = SweepScheduler::new(FleetConfig {
                workers: shards,
                ..FleetConfig::default()
            });
            let id = dedicated.register(task(&ded, &format!("g{i}"), shards, 0xd0));
            dedicated.arm(id);
            let report = dedicated.converge_all().unwrap().groups[0].report;
            prop_assert!(report.converged);
            prop_assert_eq!(report.migrated, sizes[i]);
            dedicated_migrated[i] = report.migrated;
        }

        // the shared fleet on an identically seeded stack
        let stack = build_stack(&sizes, shards, seed);
        let mut scheduler = SweepScheduler::new(FleetConfig {
            workers,
            lease,
            max_passes: 32,
            max_retries: 8,
        });
        for i in 0..groups {
            scheduler.register(task(&stack, &format!("g{i}"), shards, 0x5a));
        }
        let mut stamp_of = vec![0u64; groups];
        for (stamp, &i) in arm_order.iter().enumerate() {
            scheduler.arm(i);
            stamp_of[i] = stamp as u64;
        }
        let report = scheduler.converge_all().unwrap();

        // 1. every group converges, within deadline, nobody starves
        prop_assert!(report.total.converged);
        prop_assert_eq!(report.groups.len(), groups);
        for (i, &expected) in dedicated_migrated.iter().enumerate() {
            let g = report.group(&format!("g{i}")).unwrap();
            prop_assert!(g.report.converged, "g{} converged", i);
            prop_assert_eq!(g.overshoot, Duration::ZERO);
            // 4. same work as the dedicated fleet, group by group
            prop_assert_eq!(g.report.migrated, expected);
        }

        // 2. staleness priority: no grant while a staler unit was ready
        for grant in &report.leases {
            prop_assert!(
                grant.stamp <= grant.remaining_min_stamp.unwrap_or(u64::MAX),
                "lease for {} (stamp {}) granted over a staler ready unit",
                &grant.group, grant.stamp
            );
        }

        // 3. bounded gap: leases granted before group g's first lease are
        // bounded by the total lease budget of strictly staler groups
        for i in 0..groups {
            let name = format!("g{i}");
            let first = report
                .leases
                .iter()
                .position(|l| l.group == name)
                .expect("every armed group gets at least one lease");
            let staler_budget: usize = (0..groups)
                .filter(|&h| stamp_of[h] < stamp_of[i])
                .map(|h| shards + sizes[h])
                .sum();
            prop_assert!(
                first <= staler_budget,
                "g{}'s first lease waited for {} grants, budget of staler groups is {}",
                i, first, staler_budget
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_poisoned_task_ends_only_its_own_run(
        seed: u64,
        groups in 2usize..=4,
        poisoned in 0usize..4,
        workers in 1usize..=3,
        shards in 1usize..=2,
        lease in 1usize..=4,
    ) {
        let poisoned = poisoned % groups;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9015);
        let sizes: Vec<usize> = (0..groups).map(|_| rng.gen_range(0..=6)).collect();
        let config = FleetConfig {
            workers,
            lease,
            max_passes: 32,
            max_retries: 8,
        };

        // the reference: the same fleet without the poisoned task
        let clean = build_stack(&sizes, shards, seed);
        let mut reference = SweepScheduler::new(config);
        for i in (0..groups).filter(|&i| i != poisoned) {
            let id = reference.register(task(&clean, &format!("g{i}"), shards, 0x5a));
            reference.arm(id);
        }
        let expected = reference.converge_all().unwrap();

        // the poisoned fleet: the sweeper is revoked from one group
        let stack = build_stack(&sizes, shards, seed);
        let mut batch = MembershipBatch::new();
        batch.remove(SWEEPER);
        stack
            .fixture
            .admin()
            .apply_batch(&format!("g{poisoned}"), &batch)
            .unwrap();
        let mut scheduler = SweepScheduler::new(config);
        for i in 0..groups {
            scheduler.register(task(&stack, &format!("g{i}"), shards, 0x5a));
        }
        scheduler.arm_all();
        let report = scheduler.converge_all().unwrap();

        prop_assert_eq!(report.groups.len(), groups);
        for i in 0..groups {
            let g = report.group(&format!("g{i}")).unwrap();
            if i == poisoned {
                prop_assert!(
                    matches!(&g.error, Some(DataError::Acs(AcsError::NotAMember(_)))),
                    "g{} error: {:?}", i, g.error
                );
                prop_assert!(!g.report.converged);
                prop_assert!(scheduler.is_armed(i));
            } else {
                let want = expected.group(&format!("g{i}")).unwrap().report;
                prop_assert!(g.error.is_none(), "g{} error: {:?}", i, g.error);
                prop_assert!(g.report.converged, "g{} converged", i);
                prop_assert_eq!(g.report.migrated, want.migrated);
                prop_assert!(!scheduler.is_armed(i));
            }
        }
    }
}
