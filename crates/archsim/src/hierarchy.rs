//! Multi-level cache hierarchies with inclusive filtering.
//!
//! [`MultiLevel`] simulates an arbitrary-depth miss chain: each reference
//! probes level 0, misses fall through to the next level, and misses at
//! the last level go to main memory. Dirty victims are written back into
//! the next level down (and propagate further when the writeback itself
//! evicts a dirty line). [`TwoLevel`] is the classic L1 + L2 shape as a
//! thin wrapper — bit-for-bit the same behaviour and statistics as the
//! dedicated two-level simulator it replaced.

use crate::access::Access;
use crate::cache::{CacheParams, CacheSim, CacheStats, Outcome, Replacement};
use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// Hierarchy-level statistics.
///
/// `l1` covers every CPU reference; `l2` covers the *demand* stream only
/// (L1 misses). L1 dirty-victim writebacks are serviced by L2 but excluded
/// from the demand statistics, since the AMAT model prices demand misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HierarchyStats {
    /// L1 statistics over all references.
    pub l1: CacheStats,
    /// L2 statistics over the demand stream (L1 misses).
    pub l2: CacheStats,
    /// L1 dirty victims written back into L2 (not part of `l2`).
    pub l1_writebacks: u64,
}

impl HierarchyStats {
    /// L1 miss rate over all references.
    pub fn l1_miss_rate(&self) -> f64 {
        self.l1.miss_rate()
    }

    /// Local L2 miss rate (misses per L2 demand probe).
    pub fn l2_local_miss_rate(&self) -> f64 {
        self.l2.miss_rate()
    }

    /// Global L2 miss rate (main-memory accesses per CPU reference).
    pub fn l2_global_miss_rate(&self) -> f64 {
        self.l1_miss_rate() * self.l2_local_miss_rate()
    }
}

/// Per-level statistics of an N-level hierarchy.
///
/// `levels[0]` covers every CPU reference; `levels[i]` for `i > 0` covers
/// level *i*'s *demand* stream only (misses falling through from level
/// *i−1*). Writeback traffic is tallied separately in `writebacks`, so the
/// local miss rates stay demand miss rates — the quantities the AMAT
/// weight chain multiplies.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MultiLevelStats {
    /// Demand-stream statistics per level, outermost (L1) first.
    pub levels: Vec<CacheStats>,
    /// Dirty victims written out of each level into the next (the last
    /// level's victims go to main memory).
    pub writebacks: Vec<u64>,
}

impl MultiLevelStats {
    /// Local (per-demand-probe) miss rate of each level, outermost first,
    /// every rate checked finite and in `[0, 1]` before it can feed delay
    /// weights.
    ///
    /// # Errors
    ///
    /// [`SimError::MissRateOutOfRange`] naming the first offending level.
    pub fn try_local_miss_rates(&self) -> Result<Vec<f64>, SimError> {
        self.levels
            .iter()
            .enumerate()
            .map(|(level, stats)| {
                let value = stats.miss_rate();
                if value.is_finite() && (0.0..=1.0).contains(&value) {
                    Ok(value)
                } else {
                    Err(SimError::MissRateOutOfRange { level, value })
                }
            })
            .collect()
    }

    /// Global miss rate: main-memory accesses per CPU reference (the
    /// product of the local rates).
    pub fn global_miss_rate(&self) -> f64 {
        self.levels.iter().map(CacheStats::miss_rate).product()
    }
}

/// One level of a miss chain: the cache and the traffic it takes from
/// the level above.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    pub(crate) sim: CacheSim,
    /// Statistics over the demand probes from the level above (unused
    /// at the top level, whose demand is every reference).
    pub(crate) demand: CacheStats,
    /// Dirty victims written out of this level into the next.
    pub(crate) victim_writebacks: u64,
}

impl Level {
    pub(crate) fn new(params: CacheParams, policy: Replacement) -> Self {
        Level {
            sim: CacheSim::new(params, policy),
            demand: CacheStats::default(),
            victim_writebacks: 0,
        }
    }

    /// Clears statistics, keeping contents.
    pub(crate) fn reset_stats(&mut self) {
        self.sim.reset_stats();
        self.demand = CacheStats::default();
        self.victim_writebacks = 0;
    }
}

/// Hands one miss of a level to the levels below it (`below`, nearest
/// first, not empty) and returns the outcome of the next level's demand
/// probe. This is the one place the chain's miss semantics live.
///
/// A dirty victim of the missing level is written back first
/// (`writeback`), and propagates one level further each time the
/// writeback itself evicts a dirty line. The cache model keeps tags
/// only, so the victim's address is unknown: the writeback goes to the
/// demand address, on the assumption that lower levels are large
/// enough for this not to disturb the demand stream. Then the next
/// level takes the demand probe.
pub(crate) fn miss_step(below: &mut [Level], access: Access, writeback: bool) -> Outcome {
    if writeback {
        for level in below.iter_mut() {
            if !level
                .sim
                .access(Access::write(access.addr))
                .victim_writeback()
            {
                break;
            }
            level.victim_writebacks += 1;
        }
    }
    let next = &mut below[0];
    let out = next.sim.access(access);
    next.demand.record(access, out);
    out
}

/// An N-level miss-chain cache hierarchy.
///
/// ```
/// use nm_archsim::{MultiLevel, CacheParams, Replacement, Access};
///
/// let mut h = MultiLevel::new(
///     vec![
///         CacheParams::new(16 * 1024, 64, 4)?,
///         CacheParams::new(256 * 1024, 64, 8)?,
///         CacheParams::new(4 * 1024 * 1024, 64, 16)?,
///     ],
///     Replacement::Lru,
/// )?;
/// for i in 0..1000u64 {
///     h.access(Access::read(i * 64));
/// }
/// assert_eq!(h.stats().levels.len(), 3);
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevel {
    levels: Vec<Level>,
}

impl MultiLevel {
    /// Builds a cold hierarchy, outermost (L1) level first, with a shared
    /// replacement policy.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyHierarchy`] when `levels` is empty.
    pub fn new(levels: Vec<CacheParams>, policy: Replacement) -> Result<Self, SimError> {
        if levels.is_empty() {
            return Err(SimError::EmptyHierarchy);
        }
        Ok(MultiLevel {
            levels: levels.into_iter().map(|p| Level::new(p, policy)).collect(),
        })
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Parameters of level `i` (0 = L1).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn params(&self, i: usize) -> CacheParams {
        self.levels[i].sim.params()
    }

    /// Issues one CPU reference through the miss chain.
    ///
    /// Returns `Some(i)` when level `i` hit, `None` when the reference
    /// fell through every level to main memory.
    pub fn access(&mut self, access: Access) -> Option<usize> {
        let mut out = self.levels[0].sim.access(access);
        for i in 0..self.levels.len() {
            if out.is_hit() {
                return Some(i);
            }
            let (level, below) = self.levels[i..].split_at_mut(1);
            if out.victim_writeback() {
                level[0].victim_writebacks += 1;
            }
            if below.is_empty() {
                break;
            }
            out = miss_step(below, access, out.victim_writeback());
        }
        None
    }

    /// Runs a whole access iterator; returns references processed.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, accesses: I) -> u64 {
        let mut n = 0;
        for a in accesses {
            self.access(a);
            n += 1;
        }
        n
    }

    /// Snapshot of the per-level statistics.
    pub fn stats(&self) -> MultiLevelStats {
        MultiLevelStats {
            levels: self
                .levels
                .iter()
                .enumerate()
                .map(|(i, l)| if i == 0 { l.sim.stats() } else { l.demand })
                .collect(),
            writebacks: self.levels.iter().map(|l| l.victim_writebacks).collect(),
        }
    }

    /// Clears statistics after warm-up, keeping contents.
    pub fn reset_stats(&mut self) {
        for level in &mut self.levels {
            level.reset_stats();
        }
    }
}

/// An L1 + L2 hierarchy: the two-level view over [`MultiLevel`].
///
/// ```
/// use nm_archsim::{TwoLevel, CacheParams, Replacement, Access};
///
/// let mut h = TwoLevel::new(
///     CacheParams::new(16 * 1024, 64, 4)?,
///     CacheParams::new(1024 * 1024, 64, 8)?,
///     Replacement::Lru,
/// );
/// for i in 0..1000u64 {
///     h.access(Access::read(i * 64));
/// }
/// assert!(h.stats().l1_miss_rate() > 0.9); // pure cold streaming
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevel {
    inner: MultiLevel,
}

impl TwoLevel {
    /// Builds a cold hierarchy with a shared replacement policy.
    #[expect(
        clippy::expect_used,
        reason = "TwoLevel always hands MultiLevel two levels, so the level list is non-empty"
    )]
    pub fn new(l1: CacheParams, l2: CacheParams, policy: Replacement) -> Self {
        TwoLevel {
            inner: MultiLevel::new(vec![l1, l2], policy).expect("two levels are not zero"),
        }
    }

    /// L1 parameters.
    pub fn l1_params(&self) -> CacheParams {
        self.inner.params(0)
    }

    /// L2 parameters.
    pub fn l2_params(&self) -> CacheParams {
        self.inner.params(1)
    }

    /// Issues one CPU reference through the hierarchy.
    ///
    /// Returns `(l1_hit, l2_hit)`; `l2_hit` is `None` when L1 hit and the
    /// reference never reached L2.
    pub fn access(&mut self, access: Access) -> (bool, Option<bool>) {
        match self.inner.access(access) {
            Some(0) => (true, None),
            Some(_) => (false, Some(true)),
            None => (false, Some(false)),
        }
    }

    /// Runs a whole access iterator; returns references processed.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, accesses: I) -> u64 {
        self.inner.run(accesses)
    }

    /// Snapshot of the hierarchy statistics.
    pub fn stats(&self) -> HierarchyStats {
        let s = self.inner.stats();
        HierarchyStats {
            l1: s.levels[0],
            l2: s.levels[1],
            l1_writebacks: s.writebacks[0],
        }
    }

    /// Clears statistics after warm-up, keeping contents.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(l1: u64, l2: u64) -> TwoLevel {
        TwoLevel::new(
            CacheParams::new(l1, 64, 4).unwrap(),
            CacheParams::new(l2, 64, 8).unwrap(),
            Replacement::Lru,
        )
    }

    #[test]
    fn l1_hit_never_reaches_l2() {
        let mut h = hierarchy(16 * 1024, 256 * 1024);
        h.access(Access::read(0x40));
        let (hit, l2) = h.access(Access::read(0x40));
        assert!(hit);
        assert_eq!(l2, None);
        assert_eq!(h.stats().l2.accesses, 1); // only the initial miss
    }

    #[test]
    fn l2_catches_l1_capacity_misses() {
        let mut h = hierarchy(4 * 1024, 1024 * 1024);
        // 64 KB working set: misses L1, fits L2.
        let blocks = 64 * 1024 / 64;
        for _round in 0..4 {
            for b in 0..blocks {
                h.access(Access::read(b * 64));
            }
        }
        let s = h.stats();
        assert!(s.l1_miss_rate() > 0.5, "l1 mr = {}", s.l1_miss_rate());
        assert!(
            s.l2_local_miss_rate() < 0.35,
            "l2 local mr = {}",
            s.l2_local_miss_rate()
        );
    }

    #[test]
    fn global_rate_is_product_of_locals() {
        let mut h = hierarchy(4 * 1024, 64 * 1024);
        for i in 0..20_000u64 {
            h.access(Access::read((i * 2654435761) % (1 << 21)));
        }
        let s = h.stats();
        let expected = s.l1_miss_rate() * s.l2_local_miss_rate();
        assert!((s.l2_global_miss_rate() - expected).abs() < 1e-12);
    }

    #[test]
    fn bigger_l2_has_lower_local_miss_rate() {
        let run = |l2_size: u64| {
            let mut h = hierarchy(8 * 1024, l2_size);
            for i in 0..200_000u64 {
                // 1 MB working set with strided reuse.
                h.access(Access::read((i.wrapping_mul(0x9e3779b9)) % (1 << 20)));
            }
            h.stats().l2_local_miss_rate()
        };
        let small = run(128 * 1024);
        let big = run(1024 * 1024);
        assert!(big < small, "big {big} ≥ small {small}");
    }

    #[test]
    fn writebacks_counted_separately_from_demand() {
        let mut h = hierarchy(4 * 1024, 256 * 1024);
        // Write a large working set so L1 evicts dirty lines.
        for round in 0..3u64 {
            for b in 0..512u64 {
                h.access(Access::write(b * 64 + round));
            }
        }
        let s = h.stats();
        assert!(s.l1_writebacks > 0);
        // Demand accesses equal L1 misses exactly.
        assert_eq!(s.l2.accesses, s.l1.misses);
    }

    #[test]
    fn reset_stats_keeps_warm_contents() {
        let mut h = hierarchy(16 * 1024, 256 * 1024);
        for b in 0..64u64 {
            h.access(Access::read(b * 64));
        }
        h.reset_stats();
        for b in 0..64u64 {
            h.access(Access::read(b * 64));
        }
        assert!(h.stats().l1_miss_rate() < 0.01);
        assert_eq!(h.stats().l2.accesses, 0);
    }

    fn chain(sizes: &[u64], ways: &[u64]) -> MultiLevel {
        MultiLevel::new(
            sizes
                .iter()
                .zip(ways)
                .map(|(&s, &w)| CacheParams::new(s, 64, w).unwrap())
                .collect(),
            Replacement::Lru,
        )
        .unwrap()
    }

    #[test]
    fn empty_hierarchy_is_a_typed_error() {
        assert_eq!(
            MultiLevel::new(vec![], Replacement::Lru).unwrap_err(),
            SimError::EmptyHierarchy
        );
    }

    #[test]
    fn three_level_chain_filters_monotonically() {
        let mut h = chain(&[4 * 1024, 64 * 1024, 1024 * 1024], &[4, 8, 16]);
        // Uniform random reuse over a 128 KB working set: mostly misses
        // the 4 KB L1, half-fits the 64 KB L2, fits the 1 MB L3.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..200_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.access(Access::read((x >> 33) % (1 << 17)));
        }
        let s = h.stats();
        assert_eq!(s.levels.len(), 3);
        // Demand streams shrink level by level.
        assert!(s.levels[0].accesses > s.levels[1].accesses);
        assert!(s.levels[1].accesses > s.levels[2].accesses);
        // Each level's demand accesses equal the previous level's misses.
        assert_eq!(s.levels[1].accesses, s.levels[0].misses);
        assert_eq!(s.levels[2].accesses, s.levels[1].misses);
        // The big L3 absorbs most of what reaches it.
        let rates = s.try_local_miss_rates().unwrap();
        assert!(rates[2] < rates[0], "L3 {} vs L1 {}", rates[2], rates[0]);
        // Global rate is the product of locals.
        let product: f64 = rates.iter().product();
        assert!((s.global_miss_rate() - product).abs() < 1e-12);
    }

    #[test]
    fn hit_level_is_reported() {
        let mut h = chain(&[4 * 1024, 64 * 1024], &[4, 8]);
        assert_eq!(h.access(Access::read(0x40)), None); // cold: memory
        assert_eq!(h.access(Access::read(0x40)), Some(0)); // L1 hit
                                                           // Evict 0x40 from tiny L1 with conflicting lines, then re-read: L2.
        let stride = 64 * h.params(0).sets();
        for k in 1..=8u64 {
            h.access(Access::read(0x40 + k * stride));
        }
        assert_eq!(h.access(Access::read(0x40)), Some(1));
        assert_eq!(h.depth(), 2);
    }

    #[test]
    fn two_level_wrapper_is_bit_identical_to_multilevel() {
        let l1 = CacheParams::new(4 * 1024, 64, 4).unwrap();
        let l2 = CacheParams::new(64 * 1024, 64, 8).unwrap();
        let mut two = TwoLevel::new(l1, l2, Replacement::Lru);
        let mut multi = MultiLevel::new(vec![l1, l2], Replacement::Lru).unwrap();
        for i in 0..50_000u64 {
            let addr = (i.wrapping_mul(0x9e3779b9)) % (1 << 20);
            let access = if i % 3 == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            let (l1_hit, l2_hit) = two.access(access);
            let level = multi.access(access);
            match level {
                Some(0) => assert!(l1_hit),
                Some(1) => assert_eq!((l1_hit, l2_hit), (false, Some(true))),
                None => assert_eq!((l1_hit, l2_hit), (false, Some(false))),
                Some(_) => unreachable!(),
            }
        }
        let t = two.stats();
        let m = multi.stats();
        assert_eq!(t.l1, m.levels[0]);
        assert_eq!(t.l2, m.levels[1]);
        assert_eq!(t.l1_writebacks, m.writebacks[0]);
    }

    #[test]
    fn miss_rate_validation_accepts_simulated_stats() {
        let mut h = chain(&[4 * 1024, 64 * 1024, 512 * 1024], &[4, 8, 8]);
        for i in 0..10_000u64 {
            h.access(Access::read((i * 2654435761) % (1 << 20)));
        }
        assert!(h.stats().try_local_miss_rates().is_ok());
        // A corrupted stats block (misses > accesses) is rejected.
        let bad = MultiLevelStats {
            levels: vec![CacheStats {
                accesses: 10,
                misses: 20,
                writebacks: 0,
                writes: 0,
            }],
            writebacks: vec![0],
        };
        assert_eq!(
            bad.try_local_miss_rates().unwrap_err(),
            SimError::MissRateOutOfRange {
                level: 0,
                value: 2.0
            }
        );
    }
}
