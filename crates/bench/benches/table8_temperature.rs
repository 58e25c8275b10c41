//! **X2 / Table 8** — extension: temperature sensitivity of the Scheme II
//! optimum (25 / 80 / 110 °C).
//!
//! Expected shape: leakage grows steeply with temperature; re-optimising
//! at each temperature recovers part of the cost; the gate-tunnelling
//! fraction of the optimum rises as the die cools (subthreshold collapses,
//! the Tox-set gate floor remains).

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::thermal::ThermalStudy;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = ThermalStudy::paper_16kb().expect("paper configuration is valid");
    for slack in [0.15, 0.40] {
        emit_table(
            &format!("table8_temperature_slack{:02.0}", slack * 100.0),
            &study.to_table(slack).expect("healthy build"),
        );
    }

    c.bench_function("table8/thermal_three_points", |b| {
        b.iter(|| black_box(study.evaluate(0.25)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
