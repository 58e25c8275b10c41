//! Miss-rate tables over (L1 size × L2 size) combinations — the
//! architectural statistics the paper's Section 5 optimisations consume.

use crate::access::Access;
use crate::cache::{CacheParams, CacheSim, CacheStats, Replacement};
use crate::error::SimError;
use crate::hierarchy::{miss_step, HierarchyStats, Level, MultiLevel, TwoLevel};
use crate::names::{ARCHSIM_L1_PASSES, ARCHSIM_L2_REPLAYS, ARCHSIM_REFS};
use crate::workload::{SuiteKind, Workload};
use nm_sweep::ParallelSweep;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Steady-state statistics for one (L1, L2) size combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairStats {
    /// L1 miss rate over all CPU references.
    pub l1_miss_rate: f64,
    /// Local L2 miss rate over the demand stream.
    pub l2_local_miss_rate: f64,
    /// L1 writebacks per CPU reference.
    pub l1_writeback_rate: f64,
    /// Store fraction of the CPU reference stream.
    pub write_fraction: f64,
    /// References measured (after warm-up).
    pub measured: u64,
}

impl PairStats {
    /// Global miss rate: main-memory accesses per CPU reference.
    pub fn global_miss_rate(&self) -> f64 {
        self.l1_miss_rate * self.l2_local_miss_rate
    }

    /// The rates of a hierarchy's statistics over `measure` references.
    fn from_stats(s: &HierarchyStats, measure: u64) -> Self {
        PairStats {
            l1_miss_rate: s.l1_miss_rate(),
            l2_local_miss_rate: s.l2_local_miss_rate(),
            l1_writeback_rate: if measure == 0 {
                0.0
            } else {
                s.l1_writebacks as f64 / measure as f64
            },
            write_fraction: if s.l1.accesses == 0 {
                0.0
            } else {
                s.l1.writes as f64 / s.l1.accesses as f64
            },
            measured: measure,
        }
    }
}

/// Simulates one (L1, L2) pair against a workload: `warmup` references to
/// populate the hierarchy, then `measure` references of statistics.
pub fn simulate_pair(
    l1: CacheParams,
    l2: CacheParams,
    workload: &mut (dyn Workload + Send),
    warmup: u64,
    measure: u64,
) -> PairStats {
    let mut h = TwoLevel::new(l1, l2, Replacement::Lru);
    for _ in 0..warmup {
        h.access(workload.next_access());
    }
    h.reset_stats();
    for _ in 0..measure {
        h.access(workload.next_access());
    }
    PairStats::from_stats(&h.stats(), measure)
}

/// Block size of every level of a [`MissRateTable`].
const TABLE_BLOCK_BYTES: u64 = 64;

/// One L1 miss of a table unit, packed into a `u64`: the base address
/// of the missed block, with a write flag (bit 1) and a
/// dirty-victim-writeback flag (bit 0) in the block-offset bits.
#[derive(Debug, Clone, Copy)]
struct MissEvent(u64);

impl MissEvent {
    const BLOCK_BASE: u64 = !(TABLE_BLOCK_BYTES - 1);
    const WRITE: u64 = 2;
    const VICTIM_WRITEBACK: u64 = 1;

    fn new(access: Access, victim_writeback: bool) -> Self {
        let mut e = access.addr & Self::BLOCK_BASE;
        if access.is_write() {
            e |= Self::WRITE;
        }
        if victim_writeback {
            e |= Self::VICTIM_WRITEBACK;
        }
        MissEvent(e)
    }

    /// The demand reference, at its block's base address: the same set
    /// and tag as the original address in any level with table blocks.
    fn access(self) -> Access {
        let addr = self.0 & Self::BLOCK_BASE;
        if self.0 & Self::WRITE != 0 {
            Access::write(addr)
        } else {
            Access::read(addr)
        }
    }

    fn victim_writeback(self) -> bool {
        self.0 & Self::VICTIM_WRITEBACK != 0
    }
}

/// The L1 side of one (L1 size, suite) unit of a [`MissRateTable`].
struct L1Pass {
    /// L1 statistics over the measured references.
    stats: CacheStats,
    /// Every L1 miss in reference order, warm-up misses first.
    misses: Vec<MissEvent>,
    /// How many of `misses` fall in the warm-up.
    warmup_misses: usize,
}

impl L1Pass {
    /// Generates `suite`'s stream once and runs it through the L1,
    /// recording the miss stream the next level would see.
    fn run(l1: CacheParams, suite: SuiteKind, seed: u64, warmup: u64, measure: u64) -> Self {
        let mut w = suite.build(seed);
        let mut sim = CacheSim::new(l1, Replacement::Lru);
        let mut misses = Vec::new();
        let mut run = |refs: u64, sim: &mut CacheSim, misses: &mut Vec<MissEvent>| {
            for _ in 0..refs {
                let access = w.next_access();
                let out = sim.access(access);
                if !out.is_hit() {
                    misses.push(MissEvent::new(access, out.victim_writeback()));
                }
            }
        };
        run(warmup, &mut sim, &mut misses);
        let warmup_misses = misses.len();
        sim.reset_stats();
        run(measure, &mut sim, &mut misses);
        L1Pass {
            stats: sim.stats(),
            misses,
            warmup_misses,
        }
    }

    /// Replays the miss stream into a cold `l2`, resetting its
    /// statistics where the warm-up ends, and returns the two-level
    /// statistics a [`TwoLevel`] run of the same references reports.
    fn replay(&self, l2: CacheParams) -> HierarchyStats {
        let mut below = [Level::new(l2, Replacement::Lru)];
        let (warm, measured) = self.misses.split_at(self.warmup_misses);
        for e in warm {
            miss_step(&mut below, e.access(), e.victim_writeback());
        }
        below[0].reset_stats();
        for e in measured {
            miss_step(&mut below, e.access(), e.victim_writeback());
        }
        HierarchyStats {
            l1: self.stats,
            l2: below[0].demand,
            l1_writebacks: self.stats.writebacks,
        }
    }
}

/// Steady-state statistics for one N-level size chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainStats {
    /// Local (per-demand-probe) miss rate of each level, outermost first.
    pub local_miss_rates: Vec<f64>,
    /// Store fraction of the CPU reference stream.
    pub write_fraction: f64,
    /// References measured (after warm-up).
    pub measured: u64,
}

impl ChainStats {
    /// Global miss rate: main-memory accesses per CPU reference.
    pub fn global_miss_rate(&self) -> f64 {
        self.local_miss_rates.iter().product()
    }
}

/// Simulates an N-level size chain against a workload: `warmup`
/// references to populate the hierarchy, then `measure` references of
/// statistics. The returned miss rates are validated (finite, in
/// `[0, 1]`) before they can feed AMAT delay weights.
///
/// # Errors
///
/// [`SimError::EmptyHierarchy`] for a zero-level chain;
/// [`SimError::MissRateOutOfRange`] should a measured rate fall outside
/// `[0, 1]`.
pub fn simulate_chain(
    levels: &[CacheParams],
    workload: &mut (dyn Workload + Send),
    warmup: u64,
    measure: u64,
) -> Result<ChainStats, SimError> {
    let mut h = MultiLevel::new(levels.to_vec(), Replacement::Lru)?;
    for _ in 0..warmup {
        h.access(workload.next_access());
    }
    h.reset_stats();
    for _ in 0..measure {
        h.access(workload.next_access());
    }
    let s = h.stats();
    Ok(ChainStats {
        local_miss_rates: s.try_local_miss_rates()?,
        write_fraction: if s.levels[0].accesses == 0 {
            0.0
        } else {
            s.levels[0].writes as f64 / s.levels[0].accesses as f64
        },
        measured: measure,
    })
}

/// A table of [`PairStats`] keyed by `(l1_bytes, l2_bytes)`, averaged over
/// a suite mix.
///
/// Built once per study and then queried by the optimisers. Construction
/// runs one unit per (L1 size, suite) on the shared bounded executor
/// ([`nm_sweep::ParallelSweep`]): each unit simulates its L1 once and
/// replays the L1's miss stream into every L2 size in turn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissRateTable {
    entries: BTreeMap<(u64, u64), PairStats>,
    suites: Vec<String>,
}

impl MissRateTable {
    /// Simulates every (L1, L2) size combination over every suite in
    /// `suites`, averaging the resulting rates per pair.
    ///
    /// Block size is 64 B; L1 is 4-way, L2 8-way (paper-era defaults).
    ///
    /// Every pair's rates are bit-identical to averaging
    /// [`simulate_pair`] over `suites` in order: the L1 never sees the
    /// L2, and each L2 replay sees exactly the writebacks and demand
    /// probes a [`TwoLevel`] run hands it.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] from validating the size grid, in L1-then-L2
    /// order.
    pub fn try_build(
        l1_sizes: &[u64],
        l2_sizes: &[u64],
        suites: &[SuiteKind],
        seed: u64,
        warmup: u64,
        measure: u64,
    ) -> Result<Self, SimError> {
        // Validate the whole grid up front so an illegal size fails fast
        // with its value, instead of surfacing as a worker-thread panic.
        let l1_params: Vec<CacheParams> = l1_sizes
            .iter()
            .map(|&b| CacheParams::new(b, TABLE_BLOCK_BYTES, 4))
            .collect::<Result<_, _>>()?;
        let l2_params: Vec<CacheParams> = l2_sizes
            .iter()
            .map(|&b| CacheParams::new(b, TABLE_BLOCK_BYTES, 8))
            .collect::<Result<_, _>>()?;
        let units: Vec<(CacheParams, SuiteKind)> = l1_params
            .iter()
            .flat_map(|&l1| suites.iter().map(move |&suite| (l1, suite)))
            .collect();

        // One L2 resident at a time and the miss stream dropped at the
        // end of its unit: a worker holds one L1, one L2 and one buffer.
        let per_unit: Vec<Vec<PairStats>> =
            ParallelSweep::new()
                .labeled("missrate-table")
                .map(&units, |&(l1, suite)| {
                    let pass = L1Pass::run(l1, suite, seed, warmup, measure);
                    nm_telemetry::counter_add(ARCHSIM_REFS, warmup + measure);
                    nm_telemetry::counter_inc(ARCHSIM_L1_PASSES);
                    nm_telemetry::counter_add(ARCHSIM_L2_REPLAYS, l2_params.len() as u64);
                    l2_params
                        .iter()
                        .map(|&l2| PairStats::from_stats(&pass.replay(l2), measure))
                        .collect()
                });

        // Average each pair over the suites in suite order.
        let mut entries = BTreeMap::new();
        for (i, &l1) in l1_sizes.iter().enumerate() {
            for (j, &l2) in l2_sizes.iter().enumerate() {
                let mut acc = PairStats {
                    l1_miss_rate: 0.0,
                    l2_local_miss_rate: 0.0,
                    l1_writeback_rate: 0.0,
                    write_fraction: 0.0,
                    measured: 0,
                };
                for unit in &per_unit[i * suites.len()..(i + 1) * suites.len()] {
                    let s = unit[j];
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
                entries.insert((l1, l2), acc);
            }
        }

        Ok(MissRateTable {
            entries,
            suites: suites.iter().map(|s| s.name().to_owned()).collect(),
        })
    }

    /// Looks up the stats for an exact (L1, L2) byte-size pair.
    pub fn get(&self, l1_bytes: u64, l2_bytes: u64) -> Option<&PairStats> {
        self.entries.get(&(l1_bytes, l2_bytes))
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u64, u64), &PairStats)> {
        self.entries.iter()
    }

    /// Names of the suites averaged into this table.
    pub fn suites(&self) -> &[String] {
        &self.suites
    }

    /// Number of (L1, L2) pairs in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pairs were simulated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SpecLoops;

    #[test]
    fn simulate_pair_reports_rates() {
        let mut w = SpecLoops::default_suite(11);
        let s = simulate_pair(
            CacheParams::new(8 * 1024, 64, 4).unwrap(),
            CacheParams::new(256 * 1024, 64, 8).unwrap(),
            &mut w,
            20_000,
            50_000,
        );
        assert!(s.l1_miss_rate > 0.0 && s.l1_miss_rate < 0.3);
        assert!(s.l2_local_miss_rate >= 0.0 && s.l2_local_miss_rate <= 1.0);
        assert_eq!(s.measured, 50_000);
        assert!((s.global_miss_rate() - s.l1_miss_rate * s.l2_local_miss_rate).abs() < 1e-15);
    }

    #[test]
    fn simulate_chain_matches_pair_for_two_levels() {
        let l1 = CacheParams::new(8 * 1024, 64, 4).unwrap();
        let l2 = CacheParams::new(256 * 1024, 64, 8).unwrap();
        let mut w = SpecLoops::default_suite(11);
        let pair = simulate_pair(l1, l2, &mut w, 20_000, 50_000);
        let mut w = SpecLoops::default_suite(11);
        let chain = simulate_chain(&[l1, l2], &mut w, 20_000, 50_000).unwrap();
        // Same workload seed, same hierarchy: bit-identical rates.
        assert_eq!(
            chain.local_miss_rates[0].to_bits(),
            pair.l1_miss_rate.to_bits()
        );
        assert_eq!(
            chain.local_miss_rates[1].to_bits(),
            pair.l2_local_miss_rate.to_bits()
        );
        assert_eq!(
            chain.write_fraction.to_bits(),
            pair.write_fraction.to_bits()
        );
        assert_eq!(chain.measured, pair.measured);
    }

    #[test]
    fn simulate_chain_three_levels() {
        let mut w = SpecLoops::default_suite(5);
        let s = simulate_chain(
            &[
                CacheParams::new(8 * 1024, 64, 4).unwrap(),
                CacheParams::new(128 * 1024, 64, 8).unwrap(),
                CacheParams::new(2 * 1024 * 1024, 64, 16).unwrap(),
            ],
            &mut w,
            20_000,
            50_000,
        )
        .unwrap();
        assert_eq!(s.local_miss_rates.len(), 3);
        for &m in &s.local_miss_rates {
            assert!((0.0..=1.0).contains(&m));
        }
        let product: f64 = s.local_miss_rates.iter().product();
        assert!((s.global_miss_rate() - product).abs() < 1e-15);
        // Empty chains are typed errors, not panics.
        let mut w = SpecLoops::default_suite(5);
        assert_eq!(
            simulate_chain(&[], &mut w, 0, 0).unwrap_err(),
            SimError::EmptyHierarchy
        );
    }

    #[test]
    fn replay_reports_every_two_level_statistic() {
        // Beyond the rates a table keeps: L2 writes and writebacks too,
        // so the replayed stream carries each miss's kind exactly.
        let mut l2_traffic = CacheStats::default();
        for suite in SuiteKind::ALL {
            for (l1, l2) in [(4 * 1024, 64 * 1024), (64 * 1024, 32 * 1024)] {
                let l1 = CacheParams::new(l1, TABLE_BLOCK_BYTES, 4).unwrap();
                let l2 = CacheParams::new(l2, TABLE_BLOCK_BYTES, 8).unwrap();
                let mut h = TwoLevel::new(l1, l2, Replacement::Lru);
                let mut w = suite.build(5);
                h.run((0..10_000).map(|_| w.next_access()));
                h.reset_stats();
                h.run((0..20_000).map(|_| w.next_access()));
                let replayed = L1Pass::run(l1, suite, 5, 10_000, 20_000).replay(l2);
                assert_eq!(replayed, h.stats(), "{suite:?} {l1} {l2}");
                l2_traffic.writes += replayed.l2.writes;
                l2_traffic.writebacks += replayed.l2.writebacks;
            }
        }
        assert!(l2_traffic.writes > 0 && l2_traffic.writebacks > 0);
    }

    #[test]
    fn table_covers_all_pairs() {
        let t = MissRateTable::try_build(
            &[4 * 1024, 16 * 1024],
            &[128 * 1024, 512 * 1024],
            &[SuiteKind::Spec2000],
            7,
            5_000,
            10_000,
        )
        .expect("legal sizes");
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!(t.get(4 * 1024, 128 * 1024).is_some());
        assert!(t.get(4 * 1024, 999).is_none());
        assert_eq!(t.suites(), ["spec2000-like"]);
    }

    #[test]
    fn l2_miss_rate_falls_with_l2_size() {
        let t = MissRateTable::try_build(
            &[16 * 1024],
            &[128 * 1024, 512 * 1024, 2 * 1024 * 1024],
            &[SuiteKind::TpcC],
            13,
            100_000,
            150_000,
        )
        .expect("legal sizes");
        let m128 = t.get(16 * 1024, 128 * 1024).unwrap().l2_local_miss_rate;
        let m2m = t
            .get(16 * 1024, 2 * 1024 * 1024)
            .unwrap()
            .l2_local_miss_rate;
        assert!(m2m < m128, "2M {m2m} ≥ 128K {m128}");
    }

    #[test]
    fn l1_miss_rate_monotone_in_l1_size() {
        let t = MissRateTable::try_build(
            &[4 * 1024, 64 * 1024],
            &[512 * 1024],
            &[SuiteKind::Spec2000, SuiteKind::SpecWeb],
            17,
            50_000,
            80_000,
        )
        .expect("legal sizes");
        let m4 = t.get(4 * 1024, 512 * 1024).unwrap().l1_miss_rate;
        let m64 = t.get(64 * 1024, 512 * 1024).unwrap().l1_miss_rate;
        assert!(m64 <= m4, "64K {m64} > 4K {m4}");
    }

    #[test]
    fn illegal_sizes_are_named_before_any_simulation() {
        for (l1, l2, named) in [(3000, 256 * 1024, "3000"), (16 * 1024, 100_000, "100000")] {
            let err = MissRateTable::try_build(&[l1], &[l2], &[SuiteKind::Spec2000], 1, 10, 10)
                .expect_err("not a power of two");
            assert!(err.to_string().contains(named), "{err}");
        }
    }

    #[test]
    fn deterministic_tables() {
        let build = || {
            MissRateTable::try_build(
                &[8 * 1024],
                &[256 * 1024],
                &[SuiteKind::SpecWeb],
                3,
                5_000,
                10_000,
            )
            .expect("legal sizes")
        };
        assert_eq!(build(), build());
    }
}
