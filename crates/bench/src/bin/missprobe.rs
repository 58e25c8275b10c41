//! Diagnostic: prints the averaged miss-rate table for the standard sizes.
use nm_archsim::workload::SuiteKind;
use nm_archsim::{MissRateTable, SimError};

fn main() -> Result<(), SimError> {
    let l1s = [4 * 1024u64, 16 * 1024, 64 * 1024];
    let l2s = [256 * 1024u64, 1024 * 1024, 4 * 1024 * 1024, 8 * 1024 * 1024];
    for suite in [SuiteKind::Spec2000, SuiteKind::TpcC, SuiteKind::SpecWeb] {
        let t = MissRateTable::try_build(&l1s, &l2s, &[suite], 2005, 300_000, 600_000)?;
        println!("--- {} ---", suite.name());
        for (&(l1, l2), s) in t.iter() {
            println!(
                "L1={:>3}K L2={:>5}K  m1={:.4} m2={:.4}",
                l1 / 1024,
                l2 / 1024,
                s.l1_miss_rate,
                s.l2_local_miss_rate
            );
        }
    }
    Ok(())
}
