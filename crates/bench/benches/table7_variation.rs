//! **X1 / Table 7** — extension: the Scheme II optimum under die-to-die
//! process variation (σVth = 20 mV, σTox = 0.25 Å).
//!
//! Expected shape: leakage is lognormal in the `Vth` shift, so the mean
//! across dies sits above nominal and the p95/p99 tails well above; the
//! timing yield of an optimum sitting exactly on its delay constraint is
//! near 50 %, motivating guard-banded deadlines.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::variation::paper_16kb_variation;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let vs = paper_16kb_variation(400, 65).expect("paper configuration is valid");
    let deadlines: Vec<_> = vs.study().delay_sweep(7).into_iter().skip(2).collect();
    emit_table(
        "table7_variation",
        &vs.to_table(&deadlines).expect("healthy build"),
    );

    let one = vec![deadlines[1]];
    c.bench_function("table7/variation_400_samples_one_deadline", |b| {
        b.iter(|| black_box(vs.evaluate(&one)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
