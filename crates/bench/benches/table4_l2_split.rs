//! **E4 / Table 4** — L2 size sweep with split cell-array/periphery pairs
//! (Section 5, second experiment), side by side with the single-pair
//! result.
//!
//! Paper shape to reproduce: with per-cell/periphery pairs, speeding the
//! periphery beats buying miss rate with capacity, so the leakage optimum
//! moves to a *smaller* L2 than under the single-pair assignment, and the
//! cell array always ends up far more conservative than the periphery.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::groups::Scheme;
use nm_cache_core::report::cell;
use nm_cache_core::twolevel::TwoLevelStudy;
use nm_cache_core::Table;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let study = TwoLevelStudy::standard(false).expect("standard sizes are legal");
    let l1 = 16 * 1024;
    let l2_sizes = TwoLevelStudy::standard_l2_sizes();
    // Enough slack that the smaller L2 sizes are feasible at all (their
    // higher miss rates raise the knob-independent memory floor).
    let target = study
        .amat_target(l1, &l2_sizes, 0.15)
        .expect("sizes simulated");

    let uniform = study
        .l2_size_sweep(l1, &l2_sizes, Scheme::Uniform, target)
        .expect("sizes simulated");
    let split = study
        .l2_size_sweep(l1, &l2_sizes, Scheme::Split, target)
        .expect("sizes simulated");

    let mut table = Table::new(
        format!(
            "L2 single pair vs split pairs, AMAT ≤ {:.0} ps",
            target.picos()
        ),
        &[
            "L2 (KB)",
            "uniform leak (mW)",
            "split leak (mW)",
            "split cells",
            "split periphery",
        ],
    );
    for (u, s) in uniform.rows.iter().zip(&split.rows) {
        let knobs = s.knobs.as_ref();
        table.push_row(vec![
            cell(u.size_bytes as f64 / 1024.0, 0),
            u.opt_leakage
                .map_or_else(|| "-".into(), |w| cell(w.milli(), 3)),
            s.opt_leakage
                .map_or_else(|| "-".into(), |w| cell(w.milli(), 3)),
            knobs.map_or_else(
                || "-".into(),
                |k| k[nm_geometry::ComponentId::MemoryArray].to_string(),
            ),
            knobs.map_or_else(
                || "-".into(),
                |k| k[nm_geometry::ComponentId::Decoder].to_string(),
            ),
        ]);
    }
    emit_table("table4_l2_split", &table);
    if let (Some(wu), Some(ws)) = (uniform.winner(), split.winner()) {
        println!(
            "[winner] uniform: {} KB, split: {} KB",
            wu.size_bytes / 1024,
            ws.size_bytes / 1024
        );
    }

    c.bench_function("table4/l2_size_sweep_split", |b| {
        b.iter(|| {
            black_box(
                study
                    .l2_size_sweep(l1, &l2_sizes, Scheme::Split, target)
                    .expect("sizes simulated"),
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
