//! Executor determinism: sweep outputs must be bit-identical no matter
//! how many workers ran them, and the recorded statistics must account
//! for every submitted work item.

use nmcache::archsim::workload::SuiteKind;
use nmcache::archsim::{MissRateTable, PairStats};
use nmcache::core::amat::MainMemory;
use nmcache::core::memsys::{MemorySystemStudy, TupleCounts};
use nmcache::device::{KnobGrid, TechnologyNode};
use nmcache::sweep::{set_global_workers, stats, ParallelSweep};
use std::num::NonZeroUsize;

fn worker_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1, 2, avail];
    counts.dedup();
    counts
}

/// Runs `f` once per worker count and asserts every run equals the first.
fn assert_worker_invariant<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) {
    let mut reference: Option<R> = None;
    for workers in worker_counts() {
        set_global_workers(Some(workers));
        let got = f();
        match &reference {
            None => reference = Some(got),
            Some(expect) => {
                assert_eq!(&got, expect, "output changed with {workers} workers")
            }
        }
    }
    set_global_workers(None);
}

#[test]
fn missrate_table_identical_across_worker_counts() {
    assert_worker_invariant(|| {
        MissRateTable::try_build(
            &[4 * 1024, 16 * 1024],
            &[128 * 1024, 512 * 1024],
            &[SuiteKind::Spec2000, SuiteKind::TpcC],
            2005,
            10_000,
            20_000,
        )
        .expect("legal sizes")
    });
}

#[test]
fn tuple_curves_identical_across_worker_counts() {
    let stats = PairStats {
        l1_miss_rate: 0.05,
        l2_local_miss_rate: 0.25,
        l1_writeback_rate: 0.01,
        write_fraction: 0.3,
        measured: 1,
    };
    let study = MemorySystemStudy::new(
        16 * 1024,
        1024 * 1024,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )
    .expect("valid study");
    let targets = study.amat_sweep(3);
    let tuples = [
        TupleCounts { n_tox: 2, n_vth: 1 },
        TupleCounts { n_tox: 1, n_vth: 2 },
    ];
    assert_worker_invariant(|| {
        let curves = study
            .tuple_curves(&tuples, &targets)
            .expect("healthy build");
        // Compare the raw bits: "bit-identical" is the executor contract.
        curves
            .into_iter()
            .map(|s| {
                (
                    s.label,
                    s.points
                        .into_iter()
                        .map(|(x, y)| (x.to_bits(), y.to_bits()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    });
}

#[test]
fn sweep_stats_items_match_submitted_count() {
    stats::enable();
    stats::drain();
    let items: Vec<u32> = (0..37).collect();
    ParallelSweep::new()
        .with_workers(4)
        .labeled("determinism-count")
        .map(&items, |&x| x + 1);
    let recorded = stats::drain();
    stats::disable();
    let entry = recorded
        .iter()
        .find(|s| s.label == "determinism-count")
        .expect("sweep recorded while stats were enabled");
    assert_eq!(entry.items, items.len());
    assert!(entry.workers >= 1 && entry.workers <= 4);
}
