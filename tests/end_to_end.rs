//! Cross-crate integration tests: the full pipeline from workload
//! simulation through circuit modelling to constrained optimisation,
//! checking the paper's headline findings end to end.

use nmcache::archsim::workload::SuiteKind;
use nmcache::archsim::MissRateTable;
use nmcache::core::amat::MainMemory;
use nmcache::core::groups::{cache_groups, CostKind, Scheme};
use nmcache::core::memsys::{MemorySystemStudy, TupleCounts};
use nmcache::core::single::SingleCacheStudy;
use nmcache::core::twolevel::{TwoLevelStudy, STANDARD_SUITES};
use nmcache::device::units::Seconds;
use nmcache::device::{KnobGrid, TechnologyNode};
use nmcache::opt::anneal::{anneal, AnnealConfig};
use nmcache::opt::constraint::best_under_deadline;
use nmcache::opt::merge::try_system_front;
use std::sync::OnceLock;

fn quick_study() -> &'static TwoLevelStudy {
    static STUDY: OnceLock<TwoLevelStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        let missrates = MissRateTable::try_build(
            &[4 * 1024, 16 * 1024, 64 * 1024],
            &[256 * 1024, 1024 * 1024, 4 * 1024 * 1024],
            &STANDARD_SUITES,
            2005,
            400_000,
            400_000,
        )
        .expect("legal sizes");
        TwoLevelStudy::new(
            missrates,
            TechnologyNode::bptm65(),
            KnobGrid::coarse(),
            MainMemory::default(),
        )
    })
}

#[test]
fn headline_scheme_ranking_on_paper_grid() -> Result<(), Box<dyn std::error::Error>> {
    // E2 on the paper's fine grid (not the coarse test grid).
    let study = SingleCacheStudy::paper_16kb()?;
    let deadlines = study.delay_sweep(6);
    for &deadline in &deadlines[1..] {
        let l1 = study
            .optimize(Scheme::PerComponent, deadline)?
            .expect("feasible")
            .leakage
            .total()
            .0;
        let l2 = study
            .optimize(Scheme::Split, deadline)?
            .expect("feasible")
            .leakage
            .total()
            .0;
        let l3 = study
            .optimize(Scheme::Uniform, deadline)?
            .expect("feasible")
            .leakage
            .total()
            .0;
        assert!(l1 <= l2 + 1e-15 && l2 <= l3 + 1e-15);
        // Scheme II within 10 % of Scheme I on the fine grid.
        assert!(l2 <= l1 * 1.10, "II = {l2:.3e} vs I = {l1:.3e}");
    }
    Ok(())
}

#[test]
fn l1_size_sweep_prefers_small_l1() {
    // E5: with a fixed 1 MB L2 and a mid-slack AMAT target, a small L1
    // (≤ 16 KB) minimises total leakage.
    let study = quick_study();
    let l1_sizes = [4 * 1024, 16 * 1024, 64 * 1024];
    let mut best = f64::INFINITY;
    for &l1 in &l1_sizes {
        best = best.min(
            study
                .min_amat_l1_fixed(l1, 1024 * 1024)
                .expect("simulated")
                .0,
        );
    }
    let target = Seconds(best * 1.12);
    let sweep = study
        .l1_size_sweep(&l1_sizes, 1024 * 1024, target)
        .expect("simulated");
    let winner = sweep.winner().expect("some L1 feasible");
    assert!(
        winner.size_bytes <= 16 * 1024,
        "winner = {} KB\n{}",
        winner.size_bytes / 1024,
        sweep.to_table()
    );
}

#[test]
fn l1_total_leakage_monotone_in_l1_size_when_feasible() {
    // Among feasible rows, total leakage should not *decrease* as the L1
    // grows (bigger L1s only add leakage at near-flat miss rates).
    let study = quick_study();
    let l1_sizes = [4 * 1024, 16 * 1024, 64 * 1024];
    let mut best = f64::INFINITY;
    for &l1 in &l1_sizes {
        best = best.min(
            study
                .min_amat_l1_fixed(l1, 1024 * 1024)
                .expect("simulated")
                .0,
        );
    }
    let target = Seconds(best * 1.20);
    let sweep = study
        .l1_size_sweep(&l1_sizes, 1024 * 1024, target)
        .expect("simulated");
    let feasible: Vec<f64> = sweep
        .rows
        .iter()
        .filter_map(|r| r.total_leakage.map(|w| w.0))
        .collect();
    assert!(feasible.len() >= 2, "{}", sweep.to_table());
    // Tolerance: the 4 KB -> 16 KB step still sees a real miss-rate drop,
    // which lets the L2 relax to leakier (cheaper) knobs and can dip total
    // leakage by several percent before the near-flat regime takes over.
    for w in feasible.windows(2) {
        assert!(
            w[1] >= w[0] * 0.92,
            "leakage fell sharply with bigger L1: {feasible:?}"
        );
    }
}

#[test]
fn annealer_confirms_exact_optimizer_on_real_cache() {
    // Independent cross-check: simulated annealing over the real 16 KB
    // Scheme II groups lands within 5 % of the exact merge solver.
    let study = SingleCacheStudy::paper_16kb().expect("valid");
    let groups = cache_groups(
        study.circuit(),
        Scheme::Split,
        study.grid(),
        1.0,
        CostKind::LeakagePower,
    );
    let front = try_system_front(&groups).expect("non-empty system");
    let deadline = study.delay_sweep(5)[2];
    let exact = best_under_deadline(&front, deadline.0).expect("feasible");
    let approx = anneal(&groups, deadline.0, AnnealConfig::default(), 99);
    assert!(approx.feasible);
    assert!(
        approx.cost >= exact.cost - 1e-12,
        "annealer beat exact solver"
    );
    assert!(
        approx.cost <= exact.cost * 1.05,
        "annealer {:.4e} too far from exact {:.4e}",
        approx.cost,
        exact.cost
    );
}

#[test]
fn figure2_dual_dual_is_near_optimal() -> Result<(), Box<dyn std::error::Error>> {
    // E6 headline: the (2 Tox, 2 Vth) curve is within a few percent of
    // (2 Tox, 3 Vth) — "a process with dual Tox and dual Vth is
    // sufficient to achieve near optimal total energy".
    let study = quick_study();
    let stats = study.stats(16 * 1024, 1024 * 1024)?;
    let memsys = MemorySystemStudy::new(
        16 * 1024,
        1024 * 1024,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )?;
    let targets = memsys.amat_sweep(6);
    let curves = memsys.tuple_curves(
        &[
            TupleCounts { n_tox: 2, n_vth: 2 },
            TupleCounts { n_tox: 2, n_vth: 3 },
        ],
        &targets,
    )?;
    let dual = &curves[0].points;
    let triple = &curves[1].points;
    assert!(dual.len() >= 4);
    // Skip the tightest target, where every restriction is strained and
    // the curves fan out (visible in the paper's Figure 2 as well).
    for (d, t) in dual.iter().zip(triple).skip(1) {
        assert!(t.1 <= d.1 + 1e-9, "more Vths hurt at {} ps", d.0);
        assert!(
            d.1 <= t.1 * 1.15,
            "dual/dual {:.2} pJ not near triple-Vth {:.2} pJ at {} ps",
            d.1,
            t.1,
            d.0
        );
    }
    Ok(())
}

#[test]
fn suite_generators_feed_the_full_pipeline() -> Result<(), Box<dyn std::error::Error>> {
    // Sanity: every suite produces nonzero L1 and L2 demand traffic
    // through the standard hierarchy.
    for suite in SuiteKind::ALL {
        let table =
            MissRateTable::try_build(&[16 * 1024], &[512 * 1024], &[suite], 1, 20_000, 40_000)?;
        let s = table.get(16 * 1024, 512 * 1024).expect("simulated");
        assert!(s.l1_miss_rate > 0.0, "{}: no L1 misses", suite.name());
        assert!(
            (0.0..=1.0).contains(&s.l2_local_miss_rate),
            "{}: bad m2",
            suite.name()
        );
    }
    Ok(())
}

#[test]
fn iso_amat_solutions_respect_the_constraint_everywhere() {
    let study = quick_study();
    let l2_sizes = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];
    for slack in [0.05, 0.10, 0.20] {
        let target = study
            .amat_target(16 * 1024, &l2_sizes, slack)
            .expect("simulated");
        for scheme in [Scheme::Uniform, Scheme::Split] {
            let sweep = study
                .l2_size_sweep(16 * 1024, &l2_sizes, scheme, target)
                .expect("simulated");
            for row in sweep.rows.iter().filter(|r| r.amat.is_some()) {
                assert!(row.amat.expect("filtered").0 <= target.0 + 1e-15);
            }
        }
    }
}
