//! Properties of the shared-L1 miss-rate table and of the compact cache
//! lines it runs on.
//!
//! `MissRateTable::try_build` simulates each L1 once per suite and
//! replays the L1's miss stream into every L2. These properties pin
//! that decomposition to the per-pair reference (`simulate_pair`), and
//! pin `CacheSim` to a plain model of a set-associative write-back
//! cache, so a change to either side shows up in the tier-1 suite.

use nmcache::archsim::cache::{CacheParams, CacheSim, Outcome, Replacement};
use nmcache::archsim::missrates::{simulate_pair, MissRateTable, PairStats};
use nmcache::archsim::workload::SuiteKind;
use nmcache::archsim::{Access, TwoLevel};
use proptest::prelude::*;

/// The suites whose bit is set in `mask`, in canonical order.
fn suites_of(mask: u8) -> Vec<SuiteKind> {
    SuiteKind::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &s)| s)
        .collect()
}

/// Averages `simulate_pair` over `suites` in order, one pair at a time,
/// with the table's shapes (64 B blocks, 4-way L1, 8-way L2).
fn per_pair(
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

/// The bit patterns of every field, so `==` means bit-identical.
fn bits(s: &PairStats) -> [u64; 5] {
    [
        s.l1_miss_rate.to_bits(),
        s.l2_local_miss_rate.to_bits(),
        s.l1_writeback_rate.to_bits(),
        s.write_fraction.to_bits(),
        s.measured,
    ]
}

/// A plain model of one write-back, write-allocate cache: each set is a
/// list of `(tag, dirty)` from the next victim to the last filled (or,
/// under LRU, last touched) line. Set and tag come from division, not
/// from the simulator's shifts and mask.
struct Model {
    sets: Vec<Vec<(u64, bool)>>,
    block: u64,
    ways: usize,
    lru: bool,
}

impl Model {
    fn new(params: CacheParams, lru: bool) -> Self {
        Model {
            sets: vec![Vec::new(); params.sets() as usize],
            block: params.block_bytes(),
            ways: params.ways() as usize,
            lru,
        }
    }

    fn access(&mut self, access: Access) -> Outcome {
        let block = access.addr / self.block;
        let n = self.sets.len() as u64;
        let (set, tag) = (&mut self.sets[(block % n) as usize], block / n);
        if let Some(i) = set.iter().position(|&(t, _)| t == tag) {
            let (t, dirty) = set.remove(i);
            let line = (t, dirty || access.is_write());
            if self.lru {
                set.push(line);
            } else {
                set.insert(i, line);
            }
            return Outcome::Hit;
        }
        let victim_writeback = set.len() == self.ways && set.remove(0).1;
        set.push((tag, access.is_write()));
        Outcome::Miss { victim_writeback }
    }
}

/// A mixed read/write reference from an `(address, is_write)` sample.
fn reference((addr, write): (u64, bool)) -> Access {
    if write {
        Access::write(addr)
    } else {
        Access::read(addr)
    }
}

/// Checks a simulator against the model, reference by reference.
fn assert_matches_model(params: CacheParams, policy: Replacement, trace: &[(u64, bool)]) {
    let mut sim = CacheSim::new(params, policy);
    let mut model = Model::new(params, policy == Replacement::Lru);
    for (i, &r) in trace.iter().enumerate() {
        let a = reference(r);
        assert_eq!(
            sim.access(a),
            model.access(a),
            "{params} {policy:?}, reference {i}: {a:?}"
        );
    }
}

/// A legal cache shape with `2^block_log2` B blocks, `2^sets_log2` sets
/// and `2^ways_log2` ways.
fn shape(block_log2: u32, sets_log2: u32, ways_log2: u32) -> CacheParams {
    let (block, ways) = (1u64 << block_log2, 1u64 << ways_log2);
    CacheParams::new((block * ways) << sets_log2, block, ways).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every rate of the shared-L1 table equals, bit for bit, the
    /// per-pair path averaged over the same suites in the same order,
    /// with L1s both smaller and larger than the L2s.
    #[test]
    fn table_is_bit_identical_to_the_per_pair_path(
        l1_log2 in 10u32..16,
        l2_log2 in 12u32..17,
        mask in 0u8..16,
        seed in 0u64..10_000,
        warmup in 0u64..1_500,
        measure in 0u64..2_500,
    ) {
        let (l1, l2) = (1u64 << l1_log2, 1u64 << l2_log2);
        let suites = suites_of(mask);
        let table = MissRateTable::try_build(&[l1], &[l2], &suites, seed, warmup, measure).unwrap();
        let want = per_pair(l1, l2, &suites, seed, warmup, measure);
        prop_assert_eq!(bits(table.get(l1, l2).unwrap()), bits(&want), "{:?}", suites);
    }

    /// An L2's entry does not depend on the other L2s replayed from the
    /// same L1 pass.
    #[test]
    fn l2_entry_is_independent_of_the_other_l2s(
        l2_logs in prop::collection::vec(12u32..18, 1..4),
        mask in 1u8..16,
        seed in 0u64..10_000,
    ) {
        let l1 = 8 * 1024;
        let l2s: Vec<u64> = l2_logs.iter().map(|&k| 1u64 << k).collect();
        let suites = suites_of(mask);
        let shared = MissRateTable::try_build(&[l1], &l2s, &suites, seed, 500, 1_500).unwrap();
        for &l2 in &l2s {
            let alone = MissRateTable::try_build(&[l1], &[l2], &suites, seed, 500, 1_500).unwrap();
            prop_assert_eq!(bits(shared.get(l1, l2).unwrap()), bits(alone.get(l1, l2).unwrap()));
        }
    }

    /// An L1's entries do not depend on the other L1s of the table.
    #[test]
    fn l1_entry_is_independent_of_the_other_l1s(
        l1_logs in prop::collection::vec(10u32..16, 1..4),
        mask in 1u8..16,
        seed in 0u64..10_000,
    ) {
        let l2 = 64 * 1024;
        let l1s: Vec<u64> = l1_logs.iter().map(|&k| 1u64 << k).collect();
        let suites = suites_of(mask);
        let shared = MissRateTable::try_build(&l1s, &[l2], &suites, seed, 500, 1_500).unwrap();
        for &l1 in &l1s {
            let alone = MissRateTable::try_build(&[l1], &[l2], &suites, seed, 500, 1_500).unwrap();
            prop_assert_eq!(bits(shared.get(l1, l2).unwrap()), bits(alone.get(l1, l2).unwrap()));
        }
    }

    /// Table rates are proper fractions, an L1 writes back at most once
    /// per miss, and every pair reports the measured window.
    #[test]
    fn table_rates_are_fractions(
        mask in 1u8..16,
        seed in 0u64..10_000,
        measure in 1u64..2_000,
    ) {
        let suites = suites_of(mask);
        let table =
            MissRateTable::try_build(&[2 * 1024, 16 * 1024], &[32 * 1024, 128 * 1024], &suites, seed, 500, measure)
                .unwrap();
        prop_assert_eq!(table.len(), 4);
        for (pair, s) in table.iter() {
            for r in [s.l1_miss_rate, s.l2_local_miss_rate, s.l1_writeback_rate, s.write_fraction] {
                prop_assert!((0.0..=1.0).contains(&r), "{pair:?}: {s:?}");
            }
            prop_assert!(s.l1_writeback_rate <= s.l1_miss_rate, "{pair:?}: {s:?}");
            prop_assert_eq!(s.measured, measure * suites.len() as u64);
        }
    }

    /// The L1 of a two-level hierarchy behaves exactly as a lone cache
    /// on the same references: its state never depends on the L2, which
    /// is what lets the table share one L1 pass across every L2.
    #[test]
    fn l1_of_a_hierarchy_ignores_its_l2(
        trace in prop::collection::vec((0u64..(1 << 18), prop::bool::ANY), 1..600),
        l2_log2 in 10u32..16,
    ) {
        let l1 = CacheParams::new(2 * 1024, 64, 4).unwrap();
        let l2 = CacheParams::new(1 << l2_log2, 64, 8).unwrap();
        let mut lone = CacheSim::new(l1, Replacement::Lru);
        let mut h = TwoLevel::new(l1, l2, Replacement::Lru);
        for &r in &trace {
            let a = reference(r);
            prop_assert_eq!(lone.access(a).is_hit(), h.access(a).0);
        }
        prop_assert_eq!(lone.stats(), h.stats().l1);
    }

    /// LRU gives the model's outcome, writebacks included, on mixed
    /// read/write streams over many shapes.
    #[test]
    fn lru_matches_the_model(
        trace in prop::collection::vec((0u64..(1 << 12), prop::bool::ANY), 1..500),
        block_log2 in 0u32..7,
        sets_log2 in 0u32..5,
        ways_log2 in 0u32..4,
    ) {
        assert_matches_model(shape(block_log2, sets_log2, ways_log2), Replacement::Lru, &trace);
    }

    /// FIFO gives the model's outcome: hits neither reorder the set nor
    /// lose the dirty flag.
    #[test]
    fn fifo_matches_the_model(
        trace in prop::collection::vec((0u64..(1 << 12), prop::bool::ANY), 1..500),
        block_log2 in 0u32..7,
        sets_log2 in 0u32..5,
        ways_log2 in 0u32..4,
    ) {
        assert_matches_model(shape(block_log2, sets_log2, ways_log2), Replacement::Fifo, &trace);
    }

    /// With 1-byte blocks and one set the tag is the whole address, so
    /// tags with bit 63 set must still neither alias nor read as valid
    /// or dirty flags.
    #[test]
    fn top_bit_tags_keep_their_identity(
        trace in prop::collection::vec((0u64..8, prop::bool::ANY, prop::bool::ANY), 1..300),
        ways_log2 in 0u32..3,
    ) {
        let trace: Vec<(u64, bool)> = trace
            .into_iter()
            .map(|(a, high, w)| (if high { a | (1 << 63) } else { a }, w))
            .collect();
        for policy in [Replacement::Lru, Replacement::Fifo] {
            assert_matches_model(shape(0, 0, ways_log2), policy, &trace);
        }
    }

    /// After `flush` a cache behaves exactly as a new one under every
    /// policy, the random policy's sequence included.
    #[test]
    fn flush_returns_to_cold(
        first in prop::collection::vec((0u64..(1 << 14), prop::bool::ANY), 0..300),
        second in prop::collection::vec((0u64..(1 << 14), prop::bool::ANY), 1..300),
    ) {
        let params = shape(6, 2, 2);
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let mut used = CacheSim::new(params, policy);
            for &r in &first {
                used.access(reference(r));
            }
            used.flush();
            prop_assert_eq!(used.stats(), Default::default());
            let mut fresh = CacheSim::new(params, policy);
            for &r in &second {
                let a = reference(r);
                prop_assert_eq!(used.access(a), fresh.access(a), "{:?}", policy);
            }
        }
    }

    /// The random policy counts every probe, misses at least once per
    /// distinct block, writes back only on misses, and repeats itself.
    #[test]
    fn random_policy_is_sound_and_repeatable(
        trace in prop::collection::vec((0u64..(1 << 13), prop::bool::ANY), 1..500),
    ) {
        let params = shape(6, 2, 2);
        let run = || {
            let mut sim = CacheSim::new(params, Replacement::Random);
            let outcomes: Vec<Outcome> = trace.iter().map(|&r| sim.access(reference(r))).collect();
            (outcomes, sim.stats())
        };
        let (outcomes, s) = run();
        prop_assert_eq!(&run().0, &outcomes);
        prop_assert_eq!(s.accesses, trace.len() as u64);
        prop_assert_eq!(s.writes, trace.iter().filter(|r| r.1).count() as u64);
        prop_assert!(s.writebacks <= s.misses && s.misses <= s.accesses);
        let mut blocks: Vec<u64> = trace.iter().map(|r| r.0 / 64).collect();
        blocks.sort_unstable();
        blocks.dedup();
        prop_assert!(s.misses >= blocks.len() as u64);
    }
}
