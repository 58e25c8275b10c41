//! One deliberate violation of each workspace lint rule (DESIGN.md § Lints).
//!
//! clippy silently ignores a `clippy.toml` path that resolves to nothing,
//! so a typo there, or a std path that moves, would switch a rule off
//! without a word. CI lints this crate with `--features violations` and the
//! library-lint flags, and requires every configured lint to fire here.
//! Without the feature the crate is empty.

#[cfg(feature = "violations")]
pub mod violations {
    use std::cmp::Ordering;
    use std::collections::{HashMap, HashSet};
    use std::thread;
    use std::time::{Instant, SystemTime};

    /// D1: a `partial_cmp` call and an equality against a float literal.
    pub fn d1(a: f64, b: f64) -> (Option<Ordering>, bool) {
        (a.partial_cmp(&b), a == 1.5)
    }

    /// D2: `unwrap`, `expect` and the panicking macros.
    pub fn d2(x: Option<u8>, k: u8) -> u8 {
        match k {
            0 => x.unwrap(),
            1 => x.expect("fixture"),
            2 => panic!("fixture"),
            3 => unreachable!("fixture"),
            4 => todo!(),
            _ => unimplemented!(),
        }
    }

    /// D3: wall clocks.
    pub fn d3() -> (Instant, SystemTime) {
        (Instant::now(), SystemTime::now())
    }

    /// D4: hash-ordered containers.
    pub fn d4() -> (HashMap<u8, u8>, HashSet<u8>) {
        (HashMap::new(), HashSet::new())
    }

    /// D5: every way to start a thread outside the executor.
    pub fn d5() {
        let _ = thread::spawn(|| {}).join();
        let _ = thread::Builder::new().spawn(|| {});
        thread::scope(|s| {
            s.spawn(|| {});
            let _ = thread::Builder::new().spawn_scoped(s, || {});
        });
    }
}
