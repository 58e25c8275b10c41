//! **Figure 3 (ours)** — full leakage-delay Pareto fronts of the three
//! assignment schemes on the 16 KB cache: the continuous version of the
//! paper's Section 4 comparison (its text reports spot checks; the fronts
//! show the whole trade-off curve each scheme makes available).
//!
//! Expected shape: the Scheme I and Scheme II fronts hug each other and
//! sit strictly below/left of Scheme III everywhere except the extreme
//! corners (where all schemes collapse to the same uniform assignment).

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_series;
use nm_cache_core::groups::{cache_groups, CostKind, Scheme};
use nm_cache_core::report::Series;
use nm_cache_core::single::SingleCacheStudy;
use nm_opt::merge::try_system_front;
use std::hint::black_box;

fn fronts(study: &SingleCacheStudy) -> Vec<Series> {
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let groups = cache_groups(
                study.circuit(),
                scheme,
                study.grid(),
                1.0,
                CostKind::LeakagePower,
            );
            let front = try_system_front(&groups).expect("non-empty system");
            let mut s = Series::new(format!("scheme {}", scheme.numeral()));
            s.points = front
                .iter()
                .map(|p| (p.delay * 1e12, p.cost * 1e3))
                .collect();
            s
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let study = SingleCacheStudy::paper_16kb().expect("paper configuration is valid");
    let series = fronts(&study);
    for s in &series {
        println!("[front] {}: {} points", s.label, s.points.len());
    }
    emit_series(
        "fig3_pareto_fronts",
        "Pareto fronts of schemes I/II/III (16KB)",
        "access time (ps)",
        "leakage (mW)",
        &series,
    );

    c.bench_function("fig3/three_scheme_fronts_16kb", |b| {
        b.iter(|| black_box(fronts(&study)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
