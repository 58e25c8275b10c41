//! **Table 11** — ablation of the calibration choices behind the model
//! (the knobs `DESIGN.md` singles out): the drawn-length scaling
//! coefficient κ, the gate-tunnelling slope `Bg`, and the near-threshold
//! slowdown λ.
//!
//! For each variant we re-derive the two headline sensitivities of
//! Figure 1 — the delay span of the `Vth` knob versus the `Tox` knob —
//! and re-run the single-knob optimisation to see whether "set `Tox`
//! high, tune `Vth`" still wins. The conclusions should be robust to the
//! calibration within reason; the λ = 0 variant shows which ingredient
//! the `Vth` delay sensitivity rests on.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_bench::emit_table;
use nm_cache_core::report::cell;
use nm_cache_core::single::SingleCacheStudy;
use nm_cache_core::Table;
use nm_device::{KnobGrid, TechnologyNode};
use nm_geometry::CacheConfig;
use std::hint::black_box;

fn spans_and_ablation(tech: &TechnologyNode) -> (f64, f64, Option<(f64, f64)>) {
    let config = CacheConfig::new(16 * 1024, 64, 4).expect("valid");
    let study = SingleCacheStudy::new(config, tech, KnobGrid::paper());
    let curves = study.fixed_knob_curves().expect("legal fixed knobs");
    let span = |label: &str| {
        let c = curves
            .iter()
            .find(|c| c.label == label)
            .expect("curve exists");
        let lo = c.points.first().expect("non-empty").0;
        let hi = c.points.last().expect("non-empty").0;
        hi / lo
    };
    let vth_span = span("Tox=10A"); // Vth sweeps along a fixed-Tox curve
    let tox_span = span("Vth=200mV");

    // Single-knob optima at a mid deadline (parse the ablation table).
    let deadline = study.delay_sweep(5)[2];
    let table = study.knob_ablation(&[deadline]).expect("healthy build");
    let row = table.rows().first().expect("one deadline row");
    let tox_only: Option<f64> = row[1].parse().ok();
    let vth_hi: Option<f64> = row[3].parse().ok();
    let pair = match (vth_hi, tox_only) {
        (Some(v), Some(t)) => Some((v, t)),
        _ => None,
    };
    (vth_span, tox_span, pair)
}

fn bench(c: &mut Criterion) {
    let base = TechnologyNode::bptm65();
    let variants: Vec<(&str, TechnologyNode)> = vec![
        ("default (κ=0.5, Bg=1.2, λ=0.45)", base.clone()),
        ("no length scaling (κ=0)", base.with_length_scaling(0.0)),
        ("full length scaling (κ=1)", base.with_length_scaling(1.0)),
        ("shallow gate slope (Bg=0.6)", base.with_gate_slope(0.6)),
        ("steep gate slope (Bg=2.4)", base.with_gate_slope(2.4)),
        (
            "no near-Vth slowdown (λ=0)",
            base.with_near_vth_slowdown(0.0),
        ),
    ];

    let mut table = Table::new(
        "Calibration ablation: does 'set Tox high, tune Vth' survive?",
        &[
            "variant",
            "Vth delay span",
            "Tox delay span",
            "Vth-only @14A (mW)",
            "Tox-only (mW)",
            "Vth knob wins",
        ],
    );
    for (name, tech) in &variants {
        let (vth_span, tox_span, pair) = spans_and_ablation(tech);
        let (vth_mw, tox_mw, wins) = match pair {
            Some((v, t)) => (cell(v, 3), cell(t, 3), (v <= t * 1.05).to_string()),
            None => ("infeasible".into(), "infeasible".into(), "-".into()),
        };
        table.push_row(vec![
            (*name).to_owned(),
            cell(vth_span, 2),
            cell(tox_span, 2),
            vth_mw,
            tox_mw,
            wins,
        ]);
    }
    emit_table("table11_calibration_ablation", &table);

    c.bench_function("table11/spans_one_variant", |b| {
        b.iter(|| black_box(spans_and_ablation(&base)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
