//! **X3 / Table 9** — extension: process knobs versus cache decay
//! (gated-Vdd), the architectural leakage baseline the paper cites as
//! prior work ([2], [5], [6]).
//!
//! Expected shape: decay helps over a do-nothing performance process, but
//! at 65 nm with gate leakage in play the paper's knob assignment buys far
//! more at iso-delay, and composing both wins slightly over knobs alone.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_archsim::workload::SuiteKind;
use nm_bench::emit_table;
use nm_cache_core::decay::DecayStudy;
use nm_cache_core::single::SingleCacheStudy;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let single = SingleCacheStudy::paper_16kb().expect("paper configuration is valid");
    let study = DecayStudy::new(single, SuiteKind::Spec2000, 400_000);
    let deadlines = study.study().delay_sweep(5);
    for (label, deadline) in [("tight", deadlines[1]), ("mid", deadlines[2])] {
        emit_table(
            &format!("table9_decay_{label}"),
            &study.to_table(deadline).expect("healthy build"),
        );
    }

    c.bench_function("table9/decay_interval_sim_100k", |b| {
        let short = DecayStudy::new(
            SingleCacheStudy::paper_16kb().expect("valid"),
            SuiteKind::Spec2000,
            100_000,
        );
        b.iter(|| black_box(short.simulate_interval(4096)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
