//! **E7 / Table 6** — single-knob ablation (Section 4's sensitivity
//! analysis): optimise a 16 KB cache with only one knob free.
//!
//! Paper shape to reproduce: "to achieve minimum overall leakage, it is
//! best to set Tox conservatively at a high value and let Vth be the knob
//! designers can vary to meet a delay constraint" — the Vth-only column at
//! Tox = 14 Å tracks the both-knobs optimum, while the Tox-only column is
//! far worse.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::single::SingleCacheStudy;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = SingleCacheStudy::paper_16kb().expect("paper configuration is valid");
    let deadlines: Vec<_> = study.delay_sweep(9).into_iter().skip(2).collect();
    let table = study.knob_ablation(&deadlines).expect("healthy build");
    emit_table("table6_knob_ablation", &table);

    let subset = &deadlines[2..4];
    c.bench_function("table6/knob_ablation_two_deadlines", |b| {
        b.iter(|| black_box(study.knob_ablation(subset)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
