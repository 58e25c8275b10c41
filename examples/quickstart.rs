//! Quickstart: analyse one cache, then optimise its knob assignment.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole public API surface once: build a technology node,
//! describe a cache, analyse it under a uniform (`Vth`, `Tox`) assignment,
//! and then let the Scheme II optimiser find the minimum-leakage
//! assignment under a delay constraint.

use nmcache::core::groups::Scheme;
use nmcache::core::single::SingleCacheStudy;
use nmcache::device::units::{Angstroms, Volts};
use nmcache::device::{KnobGrid, KnobPoint, TechnologyNode};
use nmcache::geometry::{CacheCircuit, CacheConfig, ComponentId, ComponentKnobs, COMPONENT_IDS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The 65 nm technology node the paper studies (BPTM-like).
    let tech = TechnologyNode::bptm65();
    println!(
        "node {}: Vdd = {}, T = {:.1}, swing ≈ {:.1} mV/dec",
        tech.name(),
        tech.vdd(),
        tech.temperature(),
        tech.subthreshold_swing_mv(Angstroms(12.0)),
    );

    // 2. A 16 KB, 4-way, 64 B-line L1 cache.
    let config = CacheConfig::new(16 * 1024, 64, 4)?;
    let circuit = CacheCircuit::new(config, &tech);
    let org = config.organization();
    println!(
        "\n{config}: {} sets, {} subarrays of {}x{} cells, {} tag bits",
        config.sets(),
        org.subarrays,
        org.rows,
        org.cols,
        config.tag_bits()
    );

    // 3. Analyse it at a hand-picked uniform knob point.
    let knobs = KnobPoint::new(Volts(0.30), Angstroms(12.0))?;
    let metrics = circuit.analyze(&ComponentKnobs::uniform(knobs));
    println!("\nuniform {knobs} -> {metrics}");
    for id in COMPONENT_IDS {
        let m = metrics.component(id);
        println!(
            "  {id:<13} {:>7.1} ps  {:>9.4} mW  {:>7.2} pJ/read",
            m.delay.picos(),
            m.leakage.total().milli(),
            m.read_energy.picos()
        );
    }

    // 4. Optimise: minimum leakage at a 10 %-slack delay constraint under
    //    Scheme II (cell array vs periphery — the paper's recommendation).
    let study = SingleCacheStudy::new(config, &tech, KnobGrid::paper());
    let deadline = circuit.fastest_access_time() * 1.10;
    let solution = study
        .optimize(Scheme::Split, deadline)?
        .expect("10% slack is feasible");
    println!(
        "\nScheme II optimum at {:.0} ps deadline:",
        deadline.picos()
    );
    println!(
        "  cells     -> {}",
        solution.knobs[ComponentId::MemoryArray]
    );
    println!("  periphery -> {}", solution.knobs[ComponentId::Decoder]);
    println!(
        "  access {:.0} ps, leakage {}",
        solution.access_time.picos(),
        solution.leakage
    );

    // 5. Compare with the naive all-fast assignment.
    let naive = circuit.analyze(&ComponentKnobs::uniform(KnobPoint::fastest()));
    println!(
        "\nall-fast corner leaks {:.2} mW -> optimised assignment saves {:.1}x",
        naive.leakage().total().milli(),
        naive.leakage().total() / solution.leakage.total()
    );
    Ok(())
}
