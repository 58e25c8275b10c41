//! **Table 0** — validation of the synthetic benchmark suites against the
//! architectural assumptions the paper's Section 5 relies on:
//!
//! 1. local L1 miss rates are low and vary little from 4 K to 64 K;
//! 2. local L2 miss rates fall with size and saturate (diminishing
//!    returns).
//!
//! This is the substitution-audit artefact for the traces we could not
//! redistribute (see `DESIGN.md`).

use criterion::{criterion_group, criterion_main, Criterion};
use nm_archsim::workload::SuiteKind;
use nm_archsim::MissRateTable;
use nm_bench::emit_table;
use nm_cache_core::report::cell;
use nm_cache_core::Table;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let l1_sizes = [4 * 1024u64, 16 * 1024, 64 * 1024];
    let l2_sizes = [256 * 1024u64, 1024 * 1024, 4 * 1024 * 1024];

    let mut l1_table = Table::new(
        "Workload validation: L1 miss rate vs L1 size (L2 = 1 MB)",
        &["suite", "4K", "16K", "64K"],
    );
    let mut l2_table = Table::new(
        "Workload validation: local L2 miss rate vs L2 size (L1 = 16 KB)",
        &["suite", "256K", "1M", "4M"],
    );
    for suite in [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb] {
        let t = MissRateTable::try_build(&l1_sizes, &l2_sizes, &[suite], 2005, 300_000, 600_000)
            .expect("legal sizes");
        let mut l1_row = vec![suite.name().to_owned()];
        for &l1 in &l1_sizes {
            l1_row.push(cell(
                t.get(l1, 1024 * 1024).expect("simulated").l1_miss_rate,
                4,
            ));
        }
        l1_table.push_row(l1_row);
        let mut l2_row = vec![suite.name().to_owned()];
        for &l2 in &l2_sizes {
            l2_row.push(cell(
                t.get(16 * 1024, l2).expect("simulated").l2_local_miss_rate,
                4,
            ));
        }
        l2_table.push_row(l2_row);
    }
    emit_table("table0_workload_l1", &l1_table);
    emit_table("table0_workload_l2", &l2_table);

    c.bench_function("table0/one_pair_one_suite", |b| {
        b.iter(|| {
            black_box(MissRateTable::try_build(
                &[16 * 1024],
                &[256 * 1024],
                &[SuiteKind::Spec2000],
                2005,
                20_000,
                40_000,
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
