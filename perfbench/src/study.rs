//! `study-sweep`: what `nmcache l2-sweep` and `l1-sweep` compute, in
//! process. One pass builds the full-length standard miss-rate table
//! (L1 4-64 KB x L2 256 KB-8 MB x spec2000/tpcc/specweb, 300k warm-up +
//! 600k measured references, table seed = workload seed), then runs E3
//! (uniform) and E4 (split) L2 sweeps at L1 = 16 KB and the E5 L1 sweep
//! at L2 = 1 MB on the paper grid. The warm pass answers the three
//! sweeps again from the kept table with a fresh evaluator.
//!
//! The simulator does nearly all of this work and the evaluator very
//! little, so simulator changes show here and evaluator changes should
//! not.

use crate::report::{median, Report};
use crate::trace::{SpanId, Tracer};
use crate::{Iteration, Workload, WARM_REPEATS};
use nm_archsim::MissRateTable;
use nm_cache_core::amat::MainMemory;
use nm_cache_core::eval::EvalStats;
use nm_cache_core::groups::Scheme;
use nm_cache_core::twolevel::{SweepOutcome, TwoLevelStudy, STANDARD_SUITES};
use nm_cache_core::StudyError;
use nm_device::units::Seconds;
use nm_device::{KnobGrid, TechnologyNode};
use nm_telemetry::Stopwatch;
use std::path::Path;

const L1_FOCUS: u64 = 16 * 1024;
const L2_FOCUS: u64 = 1024 * 1024;
const SLACK: f64 = 0.15;
const WARMUP: u64 = 300_000;
const MEASURE: u64 = 600_000;
/// The seed the committed golden tables were generated with.
const GOLDEN_SEED: u64 = 2005;

/// E3, E4 and E5 tables of one study, rendered.
#[derive(Debug, Clone, PartialEq)]
struct Tables {
    e3: String,
    e4: String,
    e5: String,
}

/// Per-pass layer figures kept for the traced run.
#[derive(Default)]
struct Layers {
    table_s: f64,
    table_refs: u64,
    stats: EvalStats,
}

pub struct StudySweep {
    seed: u64,
    /// The golden snapshots (seed 2005 only), read from the core crate's
    /// test data at run time so that a deliberate rebaseline updates
    /// one place.
    golden: Option<Tables>,
    first: Option<Tables>,
    layers: Layers,
}

impl StudySweep {
    pub fn new(seed: u64, repo_root: &Path) -> Result<Self, String> {
        let golden = if seed == GOLDEN_SEED {
            let dir = repo_root.join("crates/core/tests/golden");
            let read = |name: &str| {
                std::fs::read_to_string(dir.join(name))
                    .map_err(|e| format!("cannot read golden table {name}: {e}"))
            };
            Some(Tables {
                e3: read("e3_l2_sweep_uniform.txt")?,
                e4: read("e4_l2_sweep_split.txt")?,
                e5: read("e5_l1_sweep.txt")?,
            })
        } else {
            None
        };
        Ok(StudySweep {
            seed,
            golden,
            first: None,
            layers: Layers::default(),
        })
    }
}

fn render(o: &SweepOutcome) -> String {
    o.to_table().to_string()
}

/// Runs E3, E4 (at `l1`, over `l2s`, slack `slack_l2`) and E5 (over
/// `l1s` at 1 MB, target from `e5_target`) against `study`.
fn sweeps(
    study: &TwoLevelStudy,
    l1s: &[u64],
    l2s: &[u64],
    slack_l2: f64,
    e5_target: impl Fn(&TwoLevelStudy) -> Result<Seconds, StudyError>,
    t: &Tracer,
    parent: Option<SpanId>,
) -> Result<(Tables, Vec<f64>), StudyError> {
    let target = {
        let _s = t.span("core.amat_target", parent, 0);
        study.amat_target(L1_FOCUS, l2s, slack_l2)?
    };
    let e3 = {
        let _s = t.span("core.l2_size_sweep.uniform", parent, 0);
        study.l2_size_sweep(L1_FOCUS, l2s, Scheme::Uniform, target)?
    };
    let e4 = {
        let _s = t.span("core.l2_size_sweep.split", parent, 0);
        study.l2_size_sweep(L1_FOCUS, l2s, Scheme::Split, target)?
    };
    let e5 = {
        let _s = t.span("core.l1_size_sweep", parent, 0);
        let target = e5_target(study)?;
        study.l1_size_sweep(l1s, L2_FOCUS, target)?
    };
    let rates = [&e3, &e4, &e5]
        .iter()
        .flat_map(|o| o.rows.iter().flat_map(|r| [r.m1, r.m2]))
        .collect();
    Ok((
        Tables {
            e3: render(&e3),
            e4: render(&e4),
            e5: render(&e5),
        },
        rates,
    ))
}

/// The CLI's `l1-sweep` target: slack over the best L1-fixed AMAT of
/// any L1 size at 1 MB.
fn cli_e5_target(study: &TwoLevelStudy) -> Result<Seconds, StudyError> {
    let mut best = f64::INFINITY;
    for l1 in TwoLevelStudy::standard_l1_sizes() {
        best = best.min(study.min_amat_l1_fixed(l1, L2_FOCUS)?.0);
    }
    Ok(Seconds(best * (1.0 + SLACK)))
}

/// Set-up warm-up: a one-pair, short table and one E3 row on the
/// coarse grid, so that first-touch costs (code pages, allocator,
/// worker start-up) land in set-up rather than in the first pass.
fn warm_up(seed: u64) -> Result<(), String> {
    let table = MissRateTable::try_build(
        &[L1_FOCUS],
        &[L2_FOCUS],
        &STANDARD_SUITES,
        seed,
        20_000,
        40_000,
    )
    .map_err(|e| e.to_string())?;
    let study = TwoLevelStudy::new(
        table,
        TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    );
    let target = study
        .amat_target(L1_FOCUS, &[L2_FOCUS], SLACK)
        .map_err(|e| e.to_string())?;
    study
        .l2_size_sweep(L1_FOCUS, &[L2_FOCUS], Scheme::Uniform, target)
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn in_unit_range(x: f64) -> bool {
    x.is_finite() && (0.0..=1.0).contains(&x)
}

fn check_rates(table: &MissRateTable, rates: &[f64], report: &mut Report) {
    for (&(l1, l2), s) in table.iter() {
        let ok = [
            s.l1_miss_rate,
            s.l2_local_miss_rate,
            s.l1_writeback_rate,
            s.write_fraction,
        ]
        .into_iter()
        .all(in_unit_range);
        report.check(ok, || {
            format!("pair ({l1}, {l2}) has a rate outside [0, 1]: {s:?}")
        });
    }
    let bad = rates.iter().filter(|&&r| !in_unit_range(r)).count() as u64;
    report.tally(rates.len() as u64, bad, || {
        format!("{bad} sweep-row miss rates outside [0, 1]")
    });
}

/// The golden configuration of `crates/core/tests/golden_tables.rs`
/// (3 x 3 table, 400k + 400k references, seed 2005, coarse grid),
/// compared byte for byte with the committed snapshots.
fn golden_check(golden: &Tables, report: &mut Report) -> Result<(), String> {
    let l1s = [8 * 1024, 16 * 1024, 32 * 1024];
    let l2s = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];
    let table =
        MissRateTable::try_build(&l1s, &l2s, &STANDARD_SUITES, GOLDEN_SEED, 400_000, 400_000)
            .map_err(|e| e.to_string())?;
    let study = TwoLevelStudy::new(
        table,
        TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    );
    let e5_target = |s: &TwoLevelStudy| s.amat_target(8 * 1024, &[L2_FOCUS], 0.15);
    let off = Tracer::new(false);
    let (tables, _) =
        sweeps(&study, &l1s, &l2s, 0.06, e5_target, &off, None).map_err(|e| e.to_string())?;
    for (name, got, want) in [
        ("e3", &tables.e3, &golden.e3),
        ("e4", &tables.e4, &golden.e4),
        ("e5", &tables.e5, &golden.e5),
    ] {
        report.check(got == want, || {
            format!("{name} table differs from its golden snapshot")
        });
    }
    Ok(())
}

impl Workload for StudySweep {
    fn iterate(&mut self, t: &Tracer, report: &mut Report) -> Result<Iteration, String> {
        let clock = Stopwatch::start();
        let l1s = TwoLevelStudy::standard_l1_sizes();
        let l2s = TwoLevelStudy::standard_l2_sizes();
        let tech = TechnologyNode::bptm65();
        let grid = KnobGrid::paper();
        let memory = MainMemory::default();
        warm_up(self.seed)?;
        let setup_s = clock.elapsed_seconds();

        let clock = Stopwatch::start();
        let root = t.pass("pass.study", 0);
        let table_clock = Stopwatch::start();
        let table = {
            let _s = t.span("archsim.try_build", root.id(), 0);
            MissRateTable::try_build(&l1s, &l2s, &STANDARD_SUITES, self.seed, WARMUP, MEASURE)
                .map_err(|e| e.to_string())?
        };
        self.layers.table_s = table_clock.elapsed_seconds();
        let study = TwoLevelStudy::new(table, tech, grid, memory);
        let (tables, rates) = sweeps(&study, &l1s, &l2s, SLACK, cli_e5_target, t, root.id())
            .map_err(|e| e.to_string())?;
        let pass_s = clock.elapsed_seconds();
        drop(root);

        // The warm pass keeps the simulated table and answers the three
        // sweeps with a fresh evaluator: what a repeated study costs
        // once its table is available.
        let mut warm = Vec::with_capacity(WARM_REPEATS);
        let mut again = None;
        for _ in 0..WARM_REPEATS {
            let clock = Stopwatch::start();
            let warm_root = t.pass("pass.study_warm", 1);
            let kept = TwoLevelStudy::new(
                study.missrates().clone(),
                TechnologyNode::bptm65(),
                KnobGrid::paper(),
                MainMemory::default(),
            );
            let (tables, _) = sweeps(&kept, &l1s, &l2s, SLACK, cli_e5_target, t, warm_root.id())
                .map_err(|e| e.to_string())?;
            warm.push(clock.elapsed_seconds());
            again = Some(tables);
        }
        let warm_s = median(&warm);

        check_rates(study.missrates(), &rates, report);
        report.check(again.as_ref() == Some(&tables), || {
            "warm sweeps differ from the first answer".into()
        });
        if let Some(first) = &self.first {
            report.check(*first == tables, || {
                "study tables differ between passes of one seed".into()
            });
        } else {
            self.first = Some(tables);
        }
        self.layers.table_refs =
            study.missrates().len() as u64 * STANDARD_SUITES.len() as u64 * (WARMUP + MEASURE);
        self.layers.stats = study.evaluator().stats();
        Ok(Iteration {
            setup_s,
            pass_s,
            warm_s,
        })
    }

    fn finish(&mut self, report: &mut Report) -> Result<(), String> {
        if let Some(golden) = &self.golden {
            golden_check(golden, report)?;
        }
        Ok(())
    }

    fn layer_metrics(&self, _t: &Tracer, report: &mut Report) {
        let l = &self.layers;
        report.put("archsim.table_s", "s", l.table_s, 1, "pass");
        report.put(
            "archsim.table_refs",
            "count",
            l.table_refs as f64,
            1,
            "pass",
        );
        report.put(
            "archsim.table_ns_per_ref",
            "ns",
            l.table_s * 1e9 / l.table_refs.max(1) as f64,
            l.table_refs,
            "pass",
        );
        crate::put_eval_stats(report, &l.stats, "pass");
    }
}
