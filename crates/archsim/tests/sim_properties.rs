//! Property tests for the cache simulator and trace machinery.

use nm_archsim::cache::{CacheParams, CacheSim, Replacement};
use nm_archsim::decay::DecaySim;
use nm_archsim::hierarchy::TwoLevel;
use nm_archsim::trace::{read_trace, read_trace_binary, write_trace, TraceWorkload};
use nm_archsim::workload::Workload;
use nm_archsim::{Access, AccessKind};
use proptest::prelude::*;

fn arb_access() -> impl Strategy<Value = Access> {
    (0u64..(1 << 24), prop::bool::ANY).prop_map(|(addr, w)| Access {
        addr,
        kind: if w {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The text trace parser never panics on arbitrary input — it either
    /// parses or returns a structured error.
    #[test]
    fn text_parser_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = read_trace(bytes.as_slice());
    }

    /// The binary trace parser never panics on arbitrary input.
    #[test]
    fn binary_parser_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = read_trace_binary(bytes.as_slice());
    }

    /// Valid binary payloads with arbitrary trailing garbage fail cleanly
    /// rather than panicking.
    #[test]
    fn binary_parser_handles_corrupt_tails(
        trace in prop::collection::vec(arb_access(), 1..20),
        tail in prop::collection::vec(any::<u8>(), 1..8),
    ) {
        let mut buf = Vec::new();
        nm_archsim::trace::write_trace_binary(&mut buf, trace.clone()).unwrap();
        buf.extend(&tail);
        // Either the tail happened to parse as records, or a clean error.
        if let Ok(parsed) = read_trace_binary(buf.as_slice()) {
            prop_assert!(parsed.len() >= trace.len());
        }
    }

    /// Trace serialisation round-trips arbitrary access sequences.
    #[test]
    fn trace_roundtrip(trace in prop::collection::vec(arb_access(), 1..200)) {
        let mut buf = Vec::new();
        write_trace(&mut buf, trace.iter().copied()).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Replaying a trace through `TraceWorkload` visits exactly the
    /// recorded accesses, in order, cyclically.
    #[test]
    fn replay_is_faithful(trace in prop::collection::vec(arb_access(), 1..50), rounds in 1usize..4) {
        let mut w = TraceWorkload::try_new(trace.clone()).expect("non-empty trace");
        for _ in 0..rounds {
            for &expected in &trace {
                prop_assert_eq!(w.next_access(), expected);
            }
        }
    }

    /// Every policy gives the same miss count on a single-way cache
    /// (no replacement choice exists).
    #[test]
    fn policies_agree_direct_mapped(trace in prop::collection::vec(arb_access(), 10..300)) {
        let params = CacheParams::new(4 * 1024, 64, 1).unwrap();
        let run = |policy| {
            let mut sim = CacheSim::new(params, policy);
            for &a in &trace {
                sim.access(a);
            }
            sim.stats().misses
        };
        let lru = run(Replacement::Lru);
        prop_assert_eq!(run(Replacement::Fifo), lru);
        prop_assert_eq!(run(Replacement::Random), lru);
    }

    /// Writebacks only happen when there were writes.
    #[test]
    fn no_writebacks_without_writes(addrs in prop::collection::vec(0u64..(1 << 20), 10..300)) {
        let mut sim = CacheSim::new(CacheParams::new(2048, 64, 2).unwrap(), Replacement::Lru);
        for &a in &addrs {
            sim.access(Access::read(a));
        }
        prop_assert_eq!(sim.stats().writebacks, 0);
        prop_assert_eq!(sim.stats().writes, 0);
    }

    /// Hierarchy consistency: L2 demand accesses equal L1 misses, and
    /// the global rate is the product of the locals.
    #[test]
    fn hierarchy_demand_accounting(trace in prop::collection::vec(arb_access(), 50..400)) {
        let mut h = TwoLevel::new(
            CacheParams::new(4 * 1024, 64, 2).unwrap(),
            CacheParams::new(64 * 1024, 64, 4).unwrap(),
            Replacement::Lru,
        );
        for &a in &trace {
            h.access(a);
        }
        let s = h.stats();
        prop_assert_eq!(s.l2.accesses, s.l1.misses);
        prop_assert!(s.l2.misses <= s.l2.accesses);
        let expected = s.l1_miss_rate() * s.l2_local_miss_rate();
        prop_assert!((s.l2_global_miss_rate() - expected).abs() < 1e-12);
    }

    /// With decay disabled, `DecaySim` is reference-equal to the plain
    /// LRU simulator on any trace, and its alive fraction is a proper
    /// fraction for any interval.
    #[test]
    fn decay_sim_consistency(
        trace in prop::collection::vec(arb_access(), 20..300),
        interval_log2 in 2u32..16,
    ) {
        let params = CacheParams::new(4 * 1024, 64, 2).unwrap();
        let mut plain = CacheSim::new(params, Replacement::Lru);
        let mut no_decay = DecaySim::new(params, u64::MAX);
        for &a in &trace {
            plain.access(a);
            no_decay.access(a);
        }
        prop_assert_eq!(plain.stats().misses, no_decay.stats().cache.misses);
        prop_assert_eq!(no_decay.stats().decay_misses, 0);

        let mut decaying = DecaySim::new(params, 1 << interval_log2);
        for &a in &trace {
            decaying.access(a);
        }
        let s = decaying.stats();
        let alive = s.alive_fraction();
        prop_assert!((0.0..=1.0).contains(&alive), "alive = {alive}");
        // Decay can only add misses relative to plain LRU.
        prop_assert!(s.cache.misses >= plain.stats().misses);
        prop_assert!(s.decay_misses <= s.cache.misses);
    }

    /// A cache that holds the whole (block-aligned) footprint of a trace
    /// only takes compulsory misses on a second pass.
    #[test]
    fn warm_cache_has_no_misses_on_refetch(
        blocks in prop::collection::vec(0u64..64, 1..64),
    ) {
        // 64 distinct blocks max, 16 KB fully covers 4 KB of footprint.
        let mut sim = CacheSim::new(CacheParams::new(16 * 1024, 64, 8).unwrap(), Replacement::Lru);
        for &b in &blocks {
            sim.access(Access::read(b * 64));
        }
        sim.reset_stats();
        for &b in &blocks {
            sim.access(Access::read(b * 64));
        }
        prop_assert_eq!(sim.stats().misses, 0);
    }
}
