//! Lazy vs eager re-encryption after revocation — the data plane's
//! headline trade-off.
//!
//! For a sweep of stored-object counts, two identically seeded deployments
//! each revoke one member. The **eager** stack re-encrypts every object
//! synchronously inside the revocation (O(n) objects, O(n) CAS PUTs); the
//! **lazy** stack's revocation touches zero objects (O(1): one control-
//! plane `put_many`, demonstrated by its flat latency and zero data-plane
//! writes), then a background sweeper converges the stale tail within its
//! deadline. The table shows the revocation-time cost growing with n under
//! eager and staying constant under lazy, with the deferred sweep cost
//! accounted separately.
//!
//! Flags: `--full` (paper-scale object counts), `--ops N` (single object
//! count override), `--json PATH` (machine-readable series), `--check`
//! (the eager revoke must be clearly slower than the lazy one at the
//! largest store — the O(1)-revocation sanity gate).

use cloud_store::CloudStore;
use dataplane::{
    ClientSession, FleetConfig, ReencryptionPolicy, RevocationCoordinator, SweepConfig,
    SweepScheduler, SweepTask,
};
use ibbe_sgx_bench::json::{write_results, Json};
use ibbe_sgx_bench::{fmt_duration, print_table, time, BenchArgs};
use ibbe_sgx_core::{GroupEngine, MembershipBatch, PartitionSize};
use std::time::Duration;

struct Stack {
    admin: acs::Admin,
    store: CloudStore,
    writer: ClientSession,
    /// A one-worker fleet serving the group's single data folder.
    fleet: SweepScheduler,
}

/// Builds one deployment with `objects` stored objects of `payload` bytes.
fn deploy(seed: u64, partition: usize, objects: usize, payload: usize) -> Stack {
    let mut seed_bytes = [0u8; 32];
    seed_bytes[..8].copy_from_slice(&seed.to_le_bytes());
    let engine =
        GroupEngine::bootstrap_seeded(PartitionSize::new(partition).unwrap(), seed_bytes).unwrap();
    let store = CloudStore::new();
    let admin = acs::Admin::new(engine, store.clone());
    let members: Vec<String> = (0..2 * partition)
        .map(|i| format!("user-{i:04}"))
        .chain(["writer".to_string(), "sweeper".to_string()])
        .collect();
    admin.create_group("g", members).unwrap();
    let session = |identity: &str, s: u64| {
        ClientSession::with_seed(
            identity,
            admin.engine().extract_user_key(identity).unwrap(),
            admin.engine().public_key().clone(),
            store.clone(),
            "g",
            s,
        )
    };
    let mut writer = session("writer", seed ^ 0xaa);
    let body = vec![0xd5u8; payload];
    for i in 0..objects {
        writer.write(&format!("obj-{i:06}"), &body).unwrap();
    }
    let mut fleet = SweepScheduler::new(FleetConfig {
        workers: 1,
        lease: 64,
        ..FleetConfig::default()
    });
    fleet.register(SweepTask::new(
        vec![session("sweeper", seed ^ 0xbb)],
        SweepConfig {
            deadline: Duration::from_secs(30),
        },
    ));
    Stack {
        admin,
        store,
        writer,
        fleet,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let (counts, partition, payload): (Vec<usize>, usize, usize) = if args.full {
        (vec![100, 400, 1600], 16, 4096)
    } else {
        (vec![8, 32, 128], 4, 256)
    };
    let counts = match args.ops {
        Some(n) => vec![n.max(1)],
        None => counts,
    };

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut last_point = None;
    for &n in &counts {
        // ---- lazy: O(1) revocation, deferred sweep ----
        let mut lazy = deploy(7, partition, n, payload);
        let cas_before = lazy.store.metrics().cas_puts;
        let coordinator = RevocationCoordinator::new(&lazy.admin, ReencryptionPolicy::Lazy);
        let mut batch = MembershipBatch::new();
        batch.remove("user-0000");
        let (outcome, lazy_revoke) =
            time(|| coordinator.revoke("g", &batch, &mut lazy.fleet).unwrap());
        assert!(outcome.batch.gk_rotated && outcome.sweep.is_none());
        let lazy_rewrites = (lazy.store.metrics().cas_puts - cas_before) as usize;
        assert_eq!(lazy_rewrites, 0, "lazy revocation touched a stored object");
        let sweep = lazy.fleet.converge_all().unwrap().groups[0].report;
        assert!(sweep.converged, "sweeper must converge: {sweep:?}");
        assert_eq!(sweep.migrated, n);
        // spot-check: a survivor still reads post-sweep
        lazy.writer.read("obj-000000").unwrap();

        // ---- eager: O(n) synchronous sweep inside the revocation ----
        let mut eager = deploy(7, partition, n, payload);
        let coordinator = RevocationCoordinator::new(&eager.admin, ReencryptionPolicy::Eager);
        let mut batch = MembershipBatch::new();
        batch.remove("user-0000");
        let (outcome, eager_revoke) =
            time(|| coordinator.revoke("g", &batch, &mut eager.fleet).unwrap());
        let eager_sweep = outcome.sweep.expect("eager sweeps in-line");
        assert!(eager_sweep.converged);
        assert_eq!(eager_sweep.migrated, n);

        rows.push(vec![
            format!("{n}"),
            fmt_duration(lazy_revoke),
            format!("{lazy_rewrites}"),
            fmt_duration(sweep.elapsed),
            format!("{}", sweep.migrated),
            fmt_duration(eager_revoke),
            format!("{}", eager_sweep.migrated),
            format!(
                "{:.1}x",
                eager_revoke.as_secs_f64() / lazy_revoke.as_secs_f64().max(1e-9)
            ),
        ]);
        json_rows.push(Json::obj([
            ("table", Json::from("revocation")),
            ("objects", Json::from(n)),
            ("lazy_revoke_ms", Json::ms(lazy_revoke)),
            ("lazy_rewrites", Json::from(lazy_rewrites)),
            ("sweep_ms", Json::ms(sweep.elapsed)),
            ("swept", Json::from(sweep.migrated)),
            ("eager_revoke_ms", Json::ms(eager_revoke)),
            ("eager_rewrites", Json::from(eager_sweep.migrated)),
            (
                "revoke_slowdown",
                Json::from(eager_revoke.as_secs_f64() / lazy_revoke.as_secs_f64().max(1e-9)),
            ),
        ]));
        last_point = Some((n, lazy_revoke, eager_revoke));
    }

    println!(
        "lazy vs eager re-encryption: one revocation over n stored objects \
         (partition size {partition}, {payload}B payloads, identical seeds)"
    );
    print_table(
        "revocation-time cost: lazy O(1) vs eager O(n)",
        &[
            "objects",
            "lazy revoke",
            "lazy rewrites",
            "sweep time",
            "swept",
            "eager revoke",
            "eager rewrites",
            "revoke slowdown",
        ],
        &rows,
    );
    println!(
        "\nlazy revoke time is flat in n (control plane only: one put_many); eager \
         revoke grows with n because every object is re-encrypted before the call \
         returns. The sweep column is the lazy policy's deferred cost, bounded by \
         the sweeper deadline instead of the revocation latency."
    );

    if let Some(path) = &args.json {
        write_results(
            path,
            "lazy_vs_eager",
            [
                ("full", Json::from(args.full)),
                ("partition", Json::from(partition)),
                ("payload", Json::from(payload)),
            ],
            json_rows,
        );
    }

    if args.check {
        // coarse perf sanity: at the largest store the O(1) lazy revoke
        // must beat the O(n) eager revoke clearly (zero lazy rewrites is
        // already hard-asserted above at every point)
        let (n, lazy_revoke, eager_revoke) = last_point.expect("at least one object count ran");
        assert!(
            eager_revoke.as_secs_f64() >= lazy_revoke.as_secs_f64() * 1.5,
            "--check: at {n} objects, eager revoke ({eager_revoke:?}) is not clearly \
             slower than lazy ({lazy_revoke:?}) — the O(1) revocation property regressed"
        );
        println!("--check passed: lazy revoke is O(1) and clearly beats eager at {n} objects");
    }
}
