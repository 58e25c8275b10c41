//! A single set-associative cache with write-back/write-allocate
//! semantics.

use crate::access::Access;
use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (the paper-era default).
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (xorshift over an internal counter — deterministic
    /// for reproducibility).
    Random,
}

/// Architectural cache parameters for simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheParams {
    size_bytes: u64,
    block_bytes: u64,
    ways: u64,
}

impl CacheParams {
    /// Validates and creates simulation parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::NotPowerOfTwo`] for non-power-of-two inputs;
    /// [`SimError::InconsistentShape`] when the shape has no sets.
    pub fn new(size_bytes: u64, block_bytes: u64, ways: u64) -> Result<Self, SimError> {
        for (which, value) in [("size", size_bytes), ("block", block_bytes), ("ways", ways)] {
            if value == 0 || !value.is_power_of_two() {
                return Err(SimError::NotPowerOfTwo { which, value });
            }
        }
        if size_bytes < block_bytes * ways {
            return Err(SimError::InconsistentShape {
                size: size_bytes,
                block: block_bytes,
                ways,
            });
        }
        Ok(CacheParams {
            size_bytes,
            block_bytes,
            ways,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Block size in bytes.
    pub fn block_bytes(self) -> u64 {
        self.block_bytes
    }

    /// Associativity.
    pub fn ways(self) -> u64 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(self) -> u64 {
        self.size_bytes / (self.block_bytes * self.ways)
    }
}

impl fmt::Display for CacheParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB/{}B/{}-way",
            self.size_bytes / 1024,
            self.block_bytes,
            self.ways
        )
    }
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The block was resident.
    Hit,
    /// The block was absent; `victim_writeback` reports whether a dirty
    /// line was evicted to make room.
    Miss {
        /// A dirty victim was written back.
        victim_writeback: bool,
    },
}

impl Outcome {
    /// `true` on a hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Outcome::Hit)
    }

    /// `true` on a miss that evicted a dirty line.
    pub(crate) fn victim_writeback(self) -> bool {
        matches!(
            self,
            Outcome::Miss {
                victim_writeback: true
            }
        )
    }
}

/// Running access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total probes.
    pub accesses: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Store probes.
    pub writes: u64,
}

impl CacheStats {
    /// Miss rate (0 when no accesses yet).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate (complement of the miss rate).
    pub fn hit_rate(&self) -> f64 {
        1.0 - self.miss_rate()
    }

    /// Counts one probe and its outcome.
    pub(crate) fn record(&mut self, access: Access, out: Outcome) {
        self.accesses += 1;
        if access.is_write() {
            self.writes += 1;
        }
        if !out.is_hit() {
            self.misses += 1;
        }
        if out.victim_writeback() {
            self.writebacks += 1;
        }
    }
}

/// The dirty bit of [`Line::stamp`].
const DIRTY: u64 = 1;

/// One cache line in 16 bytes: the tag keeps all 64 bits (a one-set
/// cache of 1-byte blocks tags with the whole address), and the valid
/// and dirty flags live in the stamp.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    /// `tick << 1 | dirty`, where `tick` is the LRU timestamp or FIFO
    /// insertion order. Ticks start at 1, so 0 marks an invalid line;
    /// the valid ticks of one set are distinct, so comparing stamps
    /// orders lines exactly as comparing ticks does. Exact for the
    /// first 2^63 probes after a flush.
    stamp: u64,
}

impl Line {
    fn valid(self) -> bool {
        self.stamp != 0
    }

    fn dirty(self) -> bool {
        self.stamp & DIRTY != 0
    }
}

/// A set-associative, write-back, write-allocate cache simulator.
///
/// Deterministic for a given access sequence and policy (the random policy
/// uses an internal xorshift generator seeded by construction).
///
/// ```
/// use nm_archsim::{Access, CacheParams, CacheSim, Replacement};
///
/// let mut sim = CacheSim::new(CacheParams::new(1024, 64, 2)?, Replacement::Lru);
/// assert!(!sim.access(Access::read(0x40)).is_hit()); // compulsory miss
/// assert!(sim.access(Access::read(0x40)).is_hit());
/// assert_eq!(sim.stats().misses, 1);
/// # Ok::<(), nm_archsim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    params: CacheParams,
    policy: Replacement,
    /// `log2(block_bytes)`.
    block_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    rng_state: u64,
}

impl CacheSim {
    /// Creates an empty (cold) cache.
    pub fn new(params: CacheParams, policy: Replacement) -> Self {
        let total_lines = (params.sets() * params.ways()) as usize;
        CacheSim {
            params,
            policy,
            block_shift: params.block_bytes().trailing_zeros(),
            set_shift: params.sets().trailing_zeros(),
            set_mask: params.sets() - 1,
            lines: vec![Line::default(); total_lines],
            stats: CacheStats::default(),
            tick: 0,
            rng_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// The replacement policy.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase) without flushing
    /// cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Flushes all contents and statistics back to the cold state: the
    /// cache then behaves exactly as a new one, random policy included.
    pub fn flush(&mut self) {
        *self = CacheSim::new(self.params, self.policy);
    }

    /// Shifts and a mask in place of division: [`CacheParams`] makes
    /// the block size and set count powers of two.
    fn set_index_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Probes the cache with one reference, updating state and statistics.
    pub fn access(&mut self, access: Access) -> Outcome {
        let out = self.probe(access);
        self.stats.record(access, out);
        out
    }

    fn probe(&mut self, access: Access) -> Outcome {
        self.tick += 1;
        let (set, tag) = self.set_index_and_tag(access.addr);
        let ways = self.params.ways() as usize;
        let base = set * ways;
        let dirty = u64::from(access.is_write());

        // Hit path.
        for i in base..base + ways {
            let line = &mut self.lines[i];
            if line.valid() && line.tag == tag {
                if self.policy == Replacement::Lru {
                    line.stamp = (self.tick << 1) | (line.stamp & DIRTY);
                }
                line.stamp |= dirty;
                return Outcome::Hit;
            }
        }

        // Miss path: pick a victim.
        let victim = match self.policy {
            Replacement::Lru | Replacement::Fifo => {
                let mut best = base;
                for i in base..base + ways {
                    if !self.lines[i].valid() {
                        best = i;
                        break;
                    }
                    if self.lines[i].stamp < self.lines[best].stamp {
                        best = i;
                    }
                }
                best
            }
            Replacement::Random => {
                // Prefer an invalid way when one exists.
                (base..base + ways)
                    .find(|&i| !self.lines[i].valid())
                    .unwrap_or_else(|| base + (self.next_random() as usize % ways))
            }
        };

        let victim_writeback = self.lines[victim].dirty();
        self.lines[victim] = Line {
            tag,
            stamp: (self.tick << 1) | dirty,
        };
        Outcome::Miss { victim_writeback }
    }

    /// Runs a whole iterator of accesses, returning the number processed.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, accesses: I) -> u64 {
        let mut n = 0;
        for a in accesses {
            self.access(a);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(size: u64, block: u64, ways: u64) -> CacheParams {
        CacheParams::new(size, block, ways).unwrap()
    }

    #[test]
    fn validation() {
        assert!(CacheParams::new(1000, 64, 4).is_err());
        assert!(CacheParams::new(1024, 64, 32).is_err());
        assert!(CacheParams::new(1024, 64, 16).is_ok()); // fully associative
        assert_eq!(params(16 * 1024, 64, 4).sets(), 64);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        assert!(!c.access(Access::read(0x100)).is_hit());
        assert!(c.access(Access::read(0x100)).is_hit());
        assert!(c.access(Access::read(0x13f)).is_hit()); // same block
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set; fill both ways, touch the first, insert a third.
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        let sets = c.params().sets(); // 8 sets
        let stride = 64 * sets; // same set, different tags
        c.access(Access::read(0));
        c.access(Access::read(stride));
        c.access(Access::read(0)); // 0 is now MRU
        c.access(Access::read(2 * stride)); // evicts `stride`
        assert!(c.access(Access::read(0)).is_hit());
        assert!(!c.access(Access::read(stride)).is_hit());
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Fifo);
        let stride = 64 * c.params().sets();
        c.access(Access::read(0));
        c.access(Access::read(stride));
        c.access(Access::read(0)); // does NOT refresh FIFO order
        c.access(Access::read(2 * stride)); // evicts 0 (oldest insertion)
        assert!(!c.access(Access::read(0)).is_hit());
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = CacheSim::new(params(1024, 64, 1), Replacement::Lru);
        let stride = 64 * c.params().sets();
        c.access(Access::write(0));
        let out = c.access(Access::read(stride)); // evicts dirty line 0
        assert_eq!(
            out,
            Outcome::Miss {
                victim_writeback: true
            }
        );
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction produces no writeback.
        let out = c.access(Access::read(2 * stride));
        assert_eq!(
            out,
            Outcome::Miss {
                victim_writeback: false
            }
        );
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = CacheSim::new(params(4096, 64, 4), Replacement::Random);
            for i in 0..10_000u64 {
                c.access(Access::read((i * 2654435761) % (1 << 20)));
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn working_set_that_fits_has_no_capacity_misses() {
        let mut c = CacheSim::new(params(16 * 1024, 64, 4), Replacement::Lru);
        // 8 KB working set scanned repeatedly.
        for _round in 0..10 {
            for block in 0..128u64 {
                c.access(Access::read(block * 64));
            }
        }
        // Only the 128 cold misses.
        assert_eq!(c.stats().misses, 128);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes_with_lru() {
        // Classic LRU pathology: a cyclic scan one block larger than a
        // fully-associative cache misses on every access.
        let mut c = CacheSim::new(params(1024, 64, 16), Replacement::Lru);
        let blocks = 1024 / 64 + 1;
        for _round in 0..5 {
            for b in 0..blocks {
                c.access(Access::read(b * 64));
            }
        }
        let mr = c.stats().miss_rate();
        assert!(mr > 0.9, "miss rate = {mr}");
    }

    #[test]
    fn flush_and_reset_stats() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        c.access(Access::read(0));
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(Access::read(0)).is_hit()); // contents survived
        c.flush();
        assert!(!c.access(Access::read(0)).is_hit()); // cold again
    }

    #[test]
    fn stats_rates() {
        let s = CacheStats {
            accesses: 100,
            misses: 25,
            writebacks: 0,
            writes: 0,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    /// A straightforward model of the cache: divisions for the set
    /// index and tag, and separate valid and dirty flags per line.
    struct ModelCache {
        params: CacheParams,
        policy: Replacement,
        /// `(tag, valid, dirty, stamp)` per line.
        lines: Vec<(u64, bool, bool, u64)>,
        tick: u64,
        rng_state: u64,
    }

    impl ModelCache {
        fn new(params: CacheParams, policy: Replacement) -> Self {
            ModelCache {
                params,
                policy,
                lines: vec![(0, false, false, 0); (params.sets() * params.ways()) as usize],
                tick: 0,
                rng_state: 0x9e37_79b9_7f4a_7c15,
            }
        }

        fn access(&mut self, access: Access) -> Outcome {
            self.tick += 1;
            let block = access.addr / self.params.block_bytes();
            let set = (block % self.params.sets()) as usize;
            let tag = block / self.params.sets();
            let ways = self.params.ways() as usize;
            let set_lines = &mut self.lines[set * ways..(set + 1) * ways];
            if let Some(line) = set_lines.iter_mut().find(|l| l.1 && l.0 == tag) {
                if self.policy == Replacement::Lru {
                    line.3 = self.tick;
                }
                line.2 |= access.is_write();
                return Outcome::Hit;
            }
            let victim = match set_lines.iter().position(|l| !l.1) {
                Some(free) => free,
                None => match self.policy {
                    Replacement::Lru | Replacement::Fifo => {
                        (0..ways).min_by_key(|&i| set_lines[i].3).unwrap()
                    }
                    Replacement::Random => {
                        let mut x = self.rng_state;
                        x ^= x >> 12;
                        x ^= x << 25;
                        x ^= x >> 27;
                        self.rng_state = x;
                        x.wrapping_mul(0x2545_f491_4f6c_dd1d) as usize % ways
                    }
                },
            };
            let victim_writeback = set_lines[victim].1 && set_lines[victim].2;
            set_lines[victim] = (tag, true, access.is_write(), self.tick);
            Outcome::Miss { victim_writeback }
        }
    }

    /// A mixed read/write stream over a few conflicting sets, with
    /// addresses anywhere in the 64-bit space.
    fn mixed_stream(n: u64) -> impl Iterator<Item = Access> {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        (0..n).map(move |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 40) % (16 * 1024)) | ((x & 3) << 62);
            if x >> 63 == 1 {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        })
    }

    #[test]
    fn compact_line_matches_the_model_for_every_policy() {
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            for p in [params(4096, 64, 4), params(1024, 32, 1), params(512, 1, 8)] {
                let mut sim = CacheSim::new(p, policy);
                let mut model = ModelCache::new(p, policy);
                let mut expected = CacheStats::default();
                for (i, a) in mixed_stream(20_000).enumerate() {
                    let out = model.access(a);
                    expected.record(a, out);
                    assert_eq!(sim.access(a), out, "{policy:?} {p} reference {i}: {a}");
                }
                assert_eq!(sim.stats(), expected, "{policy:?} {p}");
                assert!(expected.writebacks > 0 && expected.misses < expected.accesses);
            }
        }
    }

    #[test]
    fn flush_returns_the_compact_cache_to_cold() {
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let p = params(2048, 64, 2);
            let mut sim = CacheSim::new(p, policy);
            sim.run(mixed_stream(5_000));
            sim.flush();
            assert_eq!(sim.stats(), CacheStats::default());
            // A cold cache again: every block misses once, and nothing
            // is dirty to write back, even where it was before.
            let mut cold = CacheSim::new(p, policy);
            for a in mixed_stream(5_000).take(2_000) {
                assert_eq!(sim.access(a), cold.access(a), "{policy:?}: {a}");
            }
            assert_eq!(sim.stats(), cold.stats());
        }
    }

    #[test]
    fn full_width_tags_do_not_collide_with_line_flags() {
        // One set of 1-byte blocks: the tag is the whole address, so
        // bit 63 and tag 0 are both in use.
        let mut c = CacheSim::new(params(2, 1, 2), Replacement::Lru);
        let top = 1u64 << 63;
        assert!(!c.access(Access::write(top)).is_hit());
        assert!(!c.access(Access::read(0)).is_hit());
        assert!(c.access(Access::read(top)).is_hit());
        assert!(c.access(Access::read(0)).is_hit());
        // Neither aliases its neighbours across the top bit.
        assert!(!c.access(Access::read(top | 1)).is_hit()); // evicts dirty `top`
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.access(Access::read(top)).is_hit()); // evicts clean 0
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.access(Access::write(u64::MAX)).is_hit()); // evicts clean `top | 1`
        assert_eq!(
            c.access(Access::read(0)),
            Outcome::Miss {
                victim_writeback: false
            }
        );
        assert_eq!(
            c.access(Access::read(1)),
            Outcome::Miss {
                victim_writeback: true
            }
        );
    }

    #[test]
    fn run_consumes_iterator() {
        let mut c = CacheSim::new(params(1024, 64, 2), Replacement::Lru);
        let n = c.run((0..100u64).map(|i| Access::read(i * 64)));
        assert_eq!(n, 100);
        assert_eq!(c.stats().accesses, 100);
    }
}
