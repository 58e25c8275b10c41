//! **X4 / Table 10** — extension: split I$/D$ versus unified L1 at iso
//! mean access time, both backed by the same unified L2.
//!
//! Expected shape: the split organisation's extra knob freedom (separate
//! cell-array pairs for the read-only instruction stream and the
//! write-carrying data stream) keeps it at or below the unified L1's
//! leakage at every slack level.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_archsim::workload::SuiteKind;
use nm_bench::emit_table;
use nm_cache_core::splitl1::SplitL1Study;
use nm_device::KnobGrid;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = SplitL1Study::new(
        16 * 1024,
        16 * 1024,
        1024 * 1024,
        SuiteKind::Spec2000,
        600_000,
        KnobGrid::paper(),
    )
    .expect("valid configuration");
    emit_table(
        "table10_split_l1",
        &study.to_table(&[0.08, 0.15, 0.30]).expect("healthy build"),
    );
    let s = study.split_stats();
    println!(
        "[rates] I$ m={:.4}, D$ m={:.4}, unified m1={:.4}",
        s.icache_miss_rate(),
        s.dcache_miss_rate(),
        study.unified_rates().0
    );

    let deadline = study.deadline(0.15);
    c.bench_function("table10/optimize_split_system", |b| {
        b.iter(|| black_box(study.optimize_split(deadline)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
