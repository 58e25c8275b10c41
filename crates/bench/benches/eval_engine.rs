//! Evaluation-engine probe: before/after wall time of the E3 L2-size
//! sweep, pre-refactor direct pipeline vs the memoizing `Evaluator`.
//!
//! "Before" re-runs the seed's inner loop verbatim — rebuild
//! `cache_groups` (a full grid of `analyze_component` calls per
//! component), merge the system front, read the constrained optimum —
//! once per sweep, every sweep. "After" is `TwoLevelStudy::l2_size_sweep`
//! on its warmed evaluator, which serves every candidate from the
//! memoized component surfaces. The measured pair lands in
//! `BENCH_eval.json` at the workspace root — rendered through the
//! `nm_telemetry` report writer, so the artifact shares the run-report
//! schema — and the perf trajectory has a data point.

use criterion::{criterion_group, criterion_main, Criterion};
use nm_cache_core::amat::{memory_floor, MainMemory};
use nm_cache_core::groups::{cache_groups, knobs_from_choice, CostKind, Scheme};
use nm_cache_core::twolevel::{TwoLevelStudy, BLOCK_BYTES, L1_WAYS, L2_WAYS};
use nm_device::units::Seconds;
use nm_device::TechnologyNode;
use nm_geometry::{CacheCircuit, CacheConfig, ComponentKnobs};
use nm_opt::constraint::best_under_deadline;
use nm_opt::merge::try_system_front;
use nm_telemetry::Stopwatch;
use std::hint::black_box;
use std::path::PathBuf;

const SCHEME: Scheme = Scheme::Uniform;
const L1_BYTES: u64 = 16 * 1024;
const SLACK: f64 = 0.10;
const ITERATIONS: u32 = 10;

fn circuit(bytes: u64, ways: u64, tech: &TechnologyNode) -> CacheCircuit {
    CacheCircuit::new(
        CacheConfig::new(bytes, BLOCK_BYTES, ways).expect("standard geometry"),
        tech,
    )
}

/// The seed's E3 inner loop: no caching anywhere, every sweep rebuilds
/// every candidate group from raw `analyze_component` calls.
fn direct_sweep(
    study: &TwoLevelStudy,
    tech: &TechnologyNode,
    l2_sizes: &[u64],
    target: Seconds,
) -> usize {
    let l1 = circuit(L1_BYTES, L1_WAYS, tech);
    let t_l1 = l1.analyze(&ComponentKnobs::default()).access_time();
    // `TwoLevelStudy::standard` wires in the default main memory.
    let memory = MainMemory::default();
    let mut feasible = 0;
    for &l2_bytes in l2_sizes {
        let stats = study.stats(L1_BYTES, l2_bytes).expect("sizes simulated");
        let l2 = circuit(l2_bytes, L2_WAYS, tech);
        let base = t_l1
            + memory_floor(
                stats.l1_miss_rate,
                stats.l2_local_miss_rate,
                memory.access_time,
            );
        let budget = target.0 - base.0;
        if budget <= 0.0 {
            continue;
        }
        let groups = cache_groups(
            &l2,
            SCHEME,
            study.grid(),
            stats.l1_miss_rate,
            CostKind::LeakagePower,
        );
        let front = try_system_front(&groups).expect("non-empty system");
        if let Some(point) = best_under_deadline(&front, budget) {
            black_box(knobs_from_choice(SCHEME, &point.choice));
            feasible += 1;
        }
    }
    feasible
}

/// Per-iteration wall seconds of `iterations` runs of `f`, timed with
/// the telemetry stopwatch. The registry is disabled while measuring;
/// the caller replays these into a histogram afterwards, so the report
/// gets a real latency distribution, not just the mean.
fn iteration_seconds(iterations: u32, mut f: impl FnMut()) -> Vec<f64> {
    (0..iterations)
        .map(|_| {
            let clock = Stopwatch::start();
            f();
            clock.elapsed_seconds()
        })
        .collect()
}

/// Mean of `seconds`, in milliseconds.
fn mean_ms(seconds: &[f64]) -> f64 {
    seconds.iter().sum::<f64>() * 1e3 / seconds.len().max(1) as f64
}

fn bench(c: &mut Criterion) {
    let study = TwoLevelStudy::standard(true).expect("standard sizes are legal");
    let tech = TechnologyNode::bptm65();
    let l2_sizes = TwoLevelStudy::standard_l2_sizes();
    let target = study
        .amat_target(L1_BYTES, &l2_sizes, SLACK)
        .expect("sizes simulated");

    // Cold: the first sweep pays for building the component surfaces.
    let cold_clock = Stopwatch::start();
    let sweep = study
        .l2_size_sweep(L1_BYTES, &l2_sizes, SCHEME, target)
        .expect("sizes simulated");
    let cold_ms = cold_clock.elapsed_seconds() * 1e3;
    black_box(&sweep);

    let before_seconds = iteration_seconds(ITERATIONS, || {
        black_box(direct_sweep(&study, &tech, &l2_sizes, target));
    });
    let after_seconds = iteration_seconds(ITERATIONS, || {
        black_box(
            study
                .l2_size_sweep(L1_BYTES, &l2_sizes, SCHEME, target)
                .expect("sizes simulated"),
        );
    });
    let before_ms = mean_ms(&before_seconds);
    let after_ms = mean_ms(&after_seconds);
    let speedup = before_ms / after_ms;

    // Render the artifact through the shared telemetry report writer so
    // it carries the same schema (and key ordering) as `--metrics` runs.
    // The bench measures its own wall times above, so the registry only
    // holds what we stage into it here.
    nm_telemetry::reset();
    nm_telemetry::enable();
    nm_telemetry::set_note(
        "experiment",
        &format!(
            "E3 L2-size sweep ({} sizes, {} grid points, {})",
            l2_sizes.len(),
            study.grid().points().count(),
            SCHEME
        ),
    );
    nm_telemetry::set_gauge("bench.iterations", f64::from(ITERATIONS));
    nm_telemetry::set_gauge("bench.cold_sweep_ms", cold_ms);
    nm_telemetry::set_gauge("bench.before_direct_ms", before_ms);
    nm_telemetry::set_gauge("bench.after_memoized_ms", after_ms);
    nm_telemetry::set_gauge("bench.speedup", speedup);
    // Replay the raw per-iteration samples as histograms so the report
    // carries p50/p95/p99 alongside the legacy mean gauges.
    for &s in &before_seconds {
        nm_telemetry::observe_seconds("bench.direct_sweep_seconds", s);
    }
    for &s in &after_seconds {
        nm_telemetry::observe_seconds("bench.memoized_sweep_seconds", s);
    }
    let report = nm_telemetry::RunReport::from_snapshot(nm_telemetry::drain());
    nm_telemetry::disable();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json");
    report.write(&path).expect("can write BENCH_eval.json");
    println!("\n{}", report.to_json());
    println!("[artifact] {}", path.display());

    c.bench_function("eval/e3_l2_sweep_memoized", |b| {
        b.iter(|| {
            black_box(
                study
                    .l2_size_sweep(L1_BYTES, &l2_sizes, SCHEME, target)
                    .expect("sizes simulated"),
            )
        })
    });
    c.bench_function("eval/e3_l2_sweep_direct", |b| {
        b.iter(|| black_box(direct_sweep(&study, &tech, &l2_sizes, target)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
