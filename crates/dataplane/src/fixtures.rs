//! Data-plane session builders over [`acs::FleetFixture`] — the
//! test/bench counterpart of the control-plane fixture.
//!
//! `acs`'s fixture stops at user keys (it cannot know about sessions a
//! crate above it); these helpers finish the job so multi-group suites
//! build their writers, readers and per-shard sweeper sessions in one call
//! each instead of re-spelling the usk/pk/store/shards glue.

use crate::session::ClientSession;
use acs::FleetFixture;
use cloud_store::StoreHandle;

/// A deterministic session for `identity` on one of the fixture's groups,
/// spread over `shards` data folders.
///
/// # Panics
/// Panics if the fixture cannot extract `identity`'s key.
pub fn fleet_session(
    fixture: &FleetFixture,
    identity: &str,
    group: &str,
    shards: usize,
    seed: u64,
) -> ClientSession {
    ClientSession::with_seed(
        identity,
        fixture.usk(identity).expect("fixture extracts the usk"),
        fixture.public_key(),
        fixture.admin().store().clone(),
        group,
        seed,
    )
    .with_data_shards(shards)
}

/// One sweeper session per data folder (the shape [`crate::SweepTask`]
/// takes), deterministically seeded per unit.
///
/// # Panics
/// Panics if the fixture cannot extract `identity`'s key.
pub fn fleet_sweep_sessions(
    fixture: &FleetFixture,
    identity: &str,
    group: &str,
    shards: usize,
    seed: u64,
) -> Vec<ClientSession> {
    (0..shards)
        .map(|w| fleet_session(fixture, identity, group, shards, seed ^ ((w as u64) << 32)))
        .collect()
}

/// [`fleet_session`] over an explicit store handle instead of the
/// fixture's own — the shape fault suites need: keys still come from the
/// fixture, but the session's requests route through (say) a
/// [`cloud_store::FaultyStore`] wrapper while the admin keeps a clean
/// handle.
///
/// # Panics
/// Panics if the fixture cannot extract `identity`'s key.
pub fn fleet_session_on(
    fixture: &FleetFixture,
    store: StoreHandle,
    identity: &str,
    group: &str,
    shards: usize,
    seed: u64,
) -> ClientSession {
    ClientSession::with_seed(
        identity,
        fixture.usk(identity).expect("fixture extracts the usk"),
        fixture.public_key(),
        store,
        group,
        seed,
    )
    .with_data_shards(shards)
}

/// [`fleet_sweep_sessions`] over an explicit store handle — one faultable
/// sweeper session per data folder.
///
/// # Panics
/// Panics if the fixture cannot extract `identity`'s key.
pub fn fleet_sweep_sessions_on(
    fixture: &FleetFixture,
    store: StoreHandle,
    identity: &str,
    group: &str,
    shards: usize,
    seed: u64,
) -> Vec<ClientSession> {
    (0..shards)
        .map(|w| {
            fleet_session_on(
                fixture,
                store.clone(),
                identity,
                group,
                shards,
                seed ^ ((w as u64) << 32),
            )
        })
        .collect()
}
