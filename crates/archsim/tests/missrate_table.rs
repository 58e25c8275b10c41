//! The miss-rate table against its per-pair reference: every rate of
//! `MissRateTable::try_build` must equal, bit for bit, the average of
//! `simulate_pair` over the table's suites in suite order.

use nm_archsim::cache::CacheParams;
use nm_archsim::missrates::{simulate_pair, MissRateTable, PairStats};
use nm_archsim::workload::SuiteKind;

/// Averages `simulate_pair` over `suites` in order, one pair at a time.
fn reference(
    l1: u64,
    l2: u64,
    suites: &[SuiteKind],
    seed: u64,
    warmup: u64,
    measure: u64,
) -> PairStats {
    let l1p = CacheParams::new(l1, 64, 4).unwrap();
    let l2p = CacheParams::new(l2, 64, 8).unwrap();
    let mut acc = PairStats {
        l1_miss_rate: 0.0,
        l2_local_miss_rate: 0.0,
        l1_writeback_rate: 0.0,
        write_fraction: 0.0,
        measured: 0,
    };
    for &suite in suites {
        let mut w = suite.build(seed);
        let s = simulate_pair(l1p, l2p, w.as_mut(), warmup, measure);
        acc.l1_miss_rate += s.l1_miss_rate;
        acc.l2_local_miss_rate += s.l2_local_miss_rate;
        acc.l1_writeback_rate += s.l1_writeback_rate;
        acc.write_fraction += s.write_fraction;
        acc.measured += s.measured;
    }
    let n = suites.len().max(1) as f64;
    acc.l1_miss_rate /= n;
    acc.l2_local_miss_rate /= n;
    acc.l1_writeback_rate /= n;
    acc.write_fraction /= n;
    acc
}

fn assert_matches_reference(
    l1s: &[u64],
    l2s: &[u64],
    suites: &[SuiteKind],
    seed: u64,
    warmup: u64,
    measure: u64,
) {
    let table = MissRateTable::try_build(l1s, l2s, suites, seed, warmup, measure).unwrap();
    assert_eq!(table.len(), l1s.len() * l2s.len());
    let names: Vec<&str> = suites.iter().map(|s| s.name()).collect();
    assert_eq!(table.suites(), names.as_slice());
    for &l1 in l1s {
        for &l2 in l2s {
            let got = table.get(l1, l2).unwrap();
            let want = reference(l1, l2, suites, seed, warmup, measure);
            let ctx = format!("L1 {l1} B, L2 {l2} B, {suites:?}, seed {seed}, {warmup}+{measure}");
            assert_eq!(
                got.l1_miss_rate.to_bits(),
                want.l1_miss_rate.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                got.l2_local_miss_rate.to_bits(),
                want.l2_local_miss_rate.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                got.l1_writeback_rate.to_bits(),
                want.l1_writeback_rate.to_bits(),
                "{ctx}"
            );
            assert_eq!(
                got.write_fraction.to_bits(),
                want.write_fraction.to_bits(),
                "{ctx}"
            );
            assert_eq!(got.measured, want.measured, "{ctx}");
        }
    }
}

/// L1 sizes up to and past the smallest L2, so one L1 is at least as
/// large as an L2.
const L1S: [u64; 3] = [4 * 1024, 32 * 1024, 64 * 1024];
const L2S: [u64; 3] = [32 * 1024, 64 * 1024, 512 * 1024];

#[test]
fn every_suite_and_two_seeds_match_the_per_pair_path() {
    for seed in [2005, 301] {
        assert_matches_reference(&L1S, &L2S, &SuiteKind::ALL, seed, 20_000, 40_000);
    }
}

#[test]
fn each_suite_alone_matches_the_per_pair_path() {
    for suite in SuiteKind::ALL {
        assert_matches_reference(&L1S, &L2S, &[suite], 7, 10_000, 20_000);
    }
}

#[test]
fn no_warmup_matches_the_per_pair_path() {
    assert_matches_reference(&L1S, &L2S, &SuiteKind::ALL, 11, 0, 30_000);
}

#[test]
fn no_measurement_matches_the_per_pair_path() {
    assert_matches_reference(&L1S, &L2S, &SuiteKind::ALL, 11, 30_000, 0);
}

#[test]
fn empty_suite_list_matches_the_per_pair_path() {
    assert_matches_reference(&L1S, &L2S, &[], 11, 1_000, 1_000);
    let table = MissRateTable::try_build(&L1S, &L2S, &[], 11, 1_000, 1_000).unwrap();
    assert!(table
        .iter()
        .all(|(_, s)| s.measured == 0 && s.l1_miss_rate.to_bits() == 0));
}
