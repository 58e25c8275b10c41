//! A complete designer flow on one cache: organise → check stability →
//! optimise knobs → stress the optimum.
//!
//! ```text
//! cargo run --release --example design_flow
//! ```
//!
//! 1. explore subarray foldings for a 64 KB cache and pick one,
//! 2. verify the SRAM cell's read stability across the knob window,
//! 3. optimise the `Vth`/`Tox` assignment (Scheme II) at a delay target,
//! 4. stress the optimum with die-to-die variation.

use nmcache::core::groups::Scheme;
use nmcache::core::single::SingleCacheStudy;
use nmcache::core::variation::VariationStudy;
use nmcache::device::snm::{is_stable, read_snm};
use nmcache::device::variation::VariationModel;
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::explore::{best, Objective};
use nmcache::geometry::{CacheCircuit, CacheConfig, ComponentId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechnologyNode::bptm65();
    let config = CacheConfig::new(64 * 1024, 64, 4)?;

    // 1. Organisation: compare the time- and energy-optimal foldings.
    println!("— step 1: subarray organisation —");
    for (label, objective) in [
        ("fastest", Objective::AccessTime),
        ("lowest-energy", Objective::ReadEnergy),
        ("best EDP", Objective::EnergyDelay),
    ] {
        let e = best(config, &tech, objective).expect("config has foldings");
        println!(
            "  {label:<14} {:>4} x {:<4} x {:<3} mats: {}",
            e.org.rows, e.org.cols, e.org.subarrays, e.metrics
        );
    }
    let chosen = best(config, &tech, Objective::EnergyDelay).expect("config has foldings");
    let circuit = CacheCircuit::with_organization(config, &tech, chosen.org);

    // 2. Stability: the cell must stay manufacturable over the knob window
    //    thanks to the Tox-driven scaling rule.
    println!("\n— step 2: cell stability over the knob window —");
    let beta = 0.20 / 0.15; // default cell's pull-down / access ratio
    for tox in [10.0, 12.0, 14.0] {
        let p = KnobPoint::new(
            nmcache::device::units::Volts(0.25),
            nmcache::device::units::Angstroms(tox),
        )?;
        let snm = read_snm(&tech, beta, p, tech.drawn_length(p.tox()));
        println!(
            "  Tox = {tox:>4.1} A: read SNM = {:>5.1} mV ({})",
            snm.0 * 1e3,
            if is_stable(snm) { "stable" } else { "UNSTABLE" }
        );
    }

    // 3. Knob optimisation at 12 % delay slack.
    println!("\n— step 3: Scheme II knob optimisation —");
    let study = SingleCacheStudy::with_circuit(circuit.clone(), KnobGrid::paper());
    let deadline = circuit.fastest_access_time() * 1.12;
    let solution = study
        .optimize(Scheme::Split, deadline)?
        .expect("12% slack is feasible");
    println!(
        "  deadline {:.0} ps -> cells {}, periphery {}",
        deadline.picos(),
        solution.knobs[ComponentId::MemoryArray],
        solution.knobs[ComponentId::Decoder]
    );
    println!("  leakage: {}", solution.leakage);

    // 4. Variation stress.
    println!("\n— step 4: die-to-die variation —");
    let vs = VariationStudy::new(study, VariationModel::typical_65nm(), 300, 7);
    println!("{}", vs.to_table(&[deadline])?);
    println!("guard-band the deadline (or re-optimise at Vth − 2σ) before tapeout.");
    Ok(())
}
