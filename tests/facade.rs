//! Facade-level contracts: re-exports resolve, and the types users hold
//! across threads are `Send`/`Sync` (C-SEND-SYNC).

use nmcache::archsim::{CacheSim, MissRateTable, TwoLevel};
use nmcache::core::single::SingleCacheStudy;
use nmcache::core::twolevel::TwoLevelStudy;
use nmcache::core::Table;
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheMetrics};
use nmcache::opt::{Candidate, Group};

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn core_types_are_send_sync() {
    assert_send_sync::<TechnologyNode>();
    assert_send_sync::<KnobPoint>();
    assert_send_sync::<KnobGrid>();
    assert_send_sync::<CacheCircuit>();
    assert_send_sync::<CacheMetrics>();
    assert_send_sync::<Candidate>();
    assert_send_sync::<Group>();
    assert_send_sync::<Table>();
    assert_send_sync::<MissRateTable>();
    assert_send_sync::<SingleCacheStudy>();
    assert_send_sync::<TwoLevelStudy>();
}

#[test]
fn simulators_are_send() {
    assert_send::<CacheSim>();
    assert_send::<TwoLevel>();
    assert_send::<nmcache::archsim::DecaySim>();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test spawns raw threads to prove a study is Send + Sync"
)]
fn a_study_can_be_shared_across_threads() {
    let study = std::sync::Arc::new(SingleCacheStudy::paper_16kb().expect("valid"));
    let deadline = study.delay_sweep(4)[2];
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let study = std::sync::Arc::clone(&study);
            std::thread::spawn(move || {
                study
                    .optimize(nmcache::core::groups::Scheme::Split, deadline)
                    .expect("healthy build")
                    .expect("feasible")
                    .leakage
                    .total()
                    .0
            })
        })
        .collect();
    let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Deterministic: every thread sees the same optimum.
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn facade_modules_reexport_the_workspace() {
    // Spot-check that each facade path names the same type as the
    // underlying crate (compile-time identity via function signatures).
    fn takes_device(_: nm_device::KnobPoint) {}
    takes_device(nmcache::device::KnobPoint::nominal());

    fn takes_geometry(_: nm_geometry::CacheConfig) {}
    takes_geometry(nmcache::geometry::CacheConfig::new(16 * 1024, 64, 4).unwrap());
}
