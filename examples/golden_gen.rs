//! Regenerates the golden study tables under `crates/core/tests/golden/`.
//!
//! The golden-equivalence tests (`crates/core/tests/golden_tables.rs`)
//! assert that every study routed through the shared evaluation engine
//! renders byte-identical tables to these snapshots. Run this only when a
//! study's *intended* output changes, and review the diff:
//!
//! ```text
//! cargo run --release --example golden_gen
//! ```

use nm_archsim::workload::SuiteKind;
use nm_archsim::{MissRateTable, PairStats};
use nm_cache_core::amat::MainMemory;
use nm_cache_core::groups::Scheme;
use nm_cache_core::memsys::{MemorySystemStudy, TupleCounts};
use nm_cache_core::mixedtech::MixedTechStudy;
use nm_cache_core::single::SingleCacheStudy;
use nm_cache_core::splitl1::SplitL1Study;
use nm_cache_core::twolevel::{TwoLevelStudy, STANDARD_SUITES};
use nm_device::{KnobGrid, TechProfile, TechnologyNode};
use nm_geometry::CacheConfig;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/core/tests/golden")
}

fn write(name: &str, contents: String) {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("can create golden directory");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("can write golden file");
    println!("[golden] {}", path.display());
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // E2 / E7 — single-cache studies on the coarse grid.
    let tech = TechnologyNode::bptm65();
    let single = SingleCacheStudy::new(
        CacheConfig::new(16 * 1024, 64, 4)?,
        &tech,
        KnobGrid::coarse(),
    );
    let deadlines = single.delay_sweep(6);
    write(
        "e2_scheme_comparison.txt",
        single.scheme_comparison(&deadlines[1..])?.to_string(),
    );
    write(
        "e7_knob_ablation.txt",
        single.knob_ablation(&deadlines[2..5])?.to_string(),
    );

    // E3 / E4 / E5 — two-level studies over a small deterministic
    // miss-rate table (the same table the unit tests use).
    let l1_sizes: [u64; 3] = [8 * 1024, 16 * 1024, 32 * 1024];
    let l2_sizes: [u64; 3] = [256 * 1024, 1024 * 1024, 4 * 1024 * 1024];
    let missrates = MissRateTable::try_build(
        &l1_sizes,
        &l2_sizes,
        &STANDARD_SUITES,
        2005,
        400_000,
        400_000,
    )?;
    let two = TwoLevelStudy::new(
        missrates,
        TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    );
    let target = two.amat_target(16 * 1024, &l2_sizes, 0.06)?;
    write(
        "e3_l2_sweep_uniform.txt",
        two.l2_size_sweep(16 * 1024, &l2_sizes, Scheme::Uniform, target)?
            .to_table()
            .to_string(),
    );
    write(
        "e4_l2_sweep_split.txt",
        two.l2_size_sweep(16 * 1024, &l2_sizes, Scheme::Split, target)?
            .to_table()
            .to_string(),
    );
    let l1_target = two.amat_target(8 * 1024, &[1024 * 1024], 0.15)?;
    write(
        "e5_l1_sweep.txt",
        two.l1_size_sweep(&l1_sizes, 1024 * 1024, l1_target)?
            .to_table()
            .to_string(),
    );

    // X4 — split I$/D$ versus unified L1.
    let split = SplitL1Study::new(
        16 * 1024,
        16 * 1024,
        512 * 1024,
        SuiteKind::Spec2000,
        200_000,
        KnobGrid::coarse(),
    )?;
    write(
        "x4_split_l1.txt",
        split.to_table(&[0.10, 0.20])?.to_string(),
    );

    // E6 — Figure 2 tuple curves with pinned miss-rate statistics.
    let stats = PairStats {
        l1_miss_rate: 0.05,
        l2_local_miss_rate: 0.25,
        l1_writeback_rate: 0.01,
        write_fraction: 0.3,
        measured: 1,
    };
    let memsys = MemorySystemStudy::new(
        16 * 1024,
        1024 * 1024,
        stats,
        &TechnologyNode::bptm65(),
        KnobGrid::coarse(),
        MainMemory::default(),
    )?;
    let tuples = [
        TupleCounts { n_tox: 2, n_vth: 2 },
        TupleCounts { n_tox: 2, n_vth: 1 },
        TupleCounts { n_tox: 1, n_vth: 2 },
    ];
    write(
        "e6_tuple_table.txt",
        memsys
            .tuple_table(&tuples, &memsys.amat_sweep(4))?
            .to_string(),
    );

    // E8 — three-level mixed-technology comparison. Matches the CLI's
    // `nmcache e8 --quick` defaults exactly, so CI can diff the two.
    let mixed = MixedTechStudy::standard(true)?;
    write(
        "e8_mixed_tech.txt",
        mixed
            .compare(
                &[
                    TechProfile::sram(),
                    TechProfile::edram(),
                    TechProfile::stt_mram(),
                ],
                0.15,
            )?
            .to_table()
            .to_string(),
    );
    Ok(())
}
