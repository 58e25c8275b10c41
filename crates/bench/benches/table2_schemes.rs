//! **E2 / Table 2** — minimum leakage of the three `Vth`/`Tox` assignment
//! schemes of Section 4 across a sweep of delay constraints (16 KB cache).
//!
//! Paper shape to reproduce: Scheme III (one pair for everything) is the
//! worst, Scheme I (per-component pairs) the best, and Scheme II (cells vs
//! periphery) lands within a few percent of Scheme I.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::groups::Scheme;
use nm_cache_core::single::SingleCacheStudy;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = SingleCacheStudy::paper_16kb().expect("paper configuration is valid");
    let deadlines: Vec<_> = study.delay_sweep(9).into_iter().skip(1).collect();
    let table = study.scheme_comparison(&deadlines).expect("healthy build");
    emit_table("table2_schemes", &table);

    let mid = deadlines[deadlines.len() / 2];
    c.bench_function("table2/optimize_scheme2_16kb", |b| {
        b.iter(|| black_box(study.optimize(Scheme::Split, mid)))
    });
    c.bench_function("table2/optimize_scheme1_16kb", |b| {
        b.iter(|| black_box(study.optimize(Scheme::PerComponent, mid)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
