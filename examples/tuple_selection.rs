//! How many `Vth`s and `Tox`es does a process need? (Figure 2.)
//!
//! ```text
//! cargo run --release --example tuple_selection
//! ```
//!
//! Optimises the total energy of a 16 KB L1 + 1 MB L2 + DRAM memory
//! system at a sweep of AMAT targets, restricted to small (`nTox`,
//! `nVth`) value counts, and prints which concrete values the optimiser
//! picks — the practical answer to "which implants and oxides should my
//! process offer?".

use nmcache::archsim::workload::SuiteKind;
use nmcache::archsim::MissRateTable;
use nmcache::core::amat::MainMemory;
use nmcache::core::memsys::{MemorySystemStudy, TupleCounts};
use nmcache::device::{KnobGrid, TechnologyNode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (l1, l2) = (16 * 1024, 1024 * 1024);
    println!(
        "simulating the suite mix on {}K/{}K ...",
        l1 / 1024,
        l2 / 1024
    );
    let suites = [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb];
    let table = MissRateTable::try_build(&[l1], &[l2], &suites, 2005, 300_000, 600_000)?;
    let stats = *table.get(l1, l2).expect("pair simulated");
    println!(
        "m1 = {:.4}, m2 = {:.4}",
        stats.l1_miss_rate, stats.l2_local_miss_rate
    );

    let study = MemorySystemStudy::new(
        l1,
        l2,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )?;

    let targets = study.amat_sweep(7);
    println!(
        "\nAMAT range: {:.0} .. {:.0} ps (memory floor {:.0} ps)",
        study.min_amat().picos(),
        study.max_amat().picos(),
        study.amat_floor().picos()
    );

    let curves = study.tuple_curves(&TupleCounts::FIGURE2, &targets)?;
    println!("\n{}", study.tuple_table(&TupleCounts::FIGURE2, &targets)?);

    // Who wins where?
    println!("\nper-target winners:");
    for (i, &target) in targets.iter().enumerate() {
        let mut best: Option<(&str, f64)> = None;
        for c in &curves {
            if let Some(&(_, e)) = c.points.get(i) {
                if best.is_none_or(|(_, be)| e < be) {
                    best = Some((&c.label, e));
                }
            }
        }
        if let Some((label, e)) = best {
            println!("  AMAT ≤ {:>6.0} ps: {label} at {e:.1} pJ", target.picos());
        }
    }

    println!("\nper the paper: dual-Tox/dual-Vth is near-optimal, and a single");
    println!("Tox with two Vths beats two Toxes with a single Vth.");
    Ok(())
}
