//! Simulator counters of a miss-rate table build. Kept in a test binary
//! of its own: the telemetry registry is process-global, so no other
//! table may be built while this one is counted.

use nm_archsim::missrates::MissRateTable;
use nm_archsim::names::{ARCHSIM_L1_PASSES, ARCHSIM_L2_REPLAYS, ARCHSIM_REFS};
use nm_archsim::workload::SuiteKind;

#[test]
fn table_counters_count_units_not_references() {
    let l1s = [4 * 1024, 16 * 1024];
    let l2s = [128 * 1024, 256 * 1024, 1024 * 1024];
    let suites = [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb];
    let (warmup, measure) = (2_000, 5_000);
    nm_telemetry::enable();
    nm_telemetry::reset();
    MissRateTable::try_build(&l1s, &l2s, &suites, 3, warmup, measure).unwrap();
    let units = (l1s.len() * suites.len()) as u64;
    assert_eq!(
        nm_telemetry::counter_value(ARCHSIM_REFS),
        units * (warmup + measure)
    );
    assert_eq!(nm_telemetry::counter_value(ARCHSIM_L1_PASSES), units);
    assert_eq!(
        nm_telemetry::counter_value(ARCHSIM_L2_REPLAYS),
        units * l2s.len() as u64
    );
    nm_telemetry::disable();
}
