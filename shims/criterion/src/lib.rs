//! Offline stand-in for the subset of `criterion` this workspace's bench
//! harness uses. It is a *timer*, not a statistics engine: every
//! registered benchmark runs `sample_size` iterations after one warm-up
//! and the mean wall time is printed, one line per benchmark:
//!
//! ```text
//! bench <id> ... <mean> (<n> iters)
//! ```
//!
//! This keeps every figure/table artefact in `crates/bench` runnable
//! (`cargo bench`) without crates.io access. If the real crate becomes
//! available the workspace dependency can be pointed back at it.

#![expect(
    clippy::disallowed_methods,
    reason = "vendored stand-in for an external crate: the workspace lint policy covers this project's own code"
)]

pub use std::hint::black_box;

use std::fmt::{self, Display};
use std::time::{Duration, Instant};

/// Throughput annotation (recorded for display parity, not analysed).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Bytes per iteration, decimal multiple display.
    BytesDecimal(u64),
}

/// Hierarchical benchmark identifier (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier with a function name and a parameter component.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Identifier from a bare parameter.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` for the configured iteration count, timing the batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f()); // warm-up, untimed
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn print_result(id: &str, iters: u64, elapsed: Duration) {
    let mean = elapsed.as_secs_f64() / iters.max(1) as f64;
    let human = if mean < 1e-6 {
        format!("{:9.1} ns", mean * 1e9)
    } else if mean < 1e-3 {
        format!("{:9.2} µs", mean * 1e6)
    } else if mean < 1.0 {
        format!("{:9.2} ms", mean * 1e3)
    } else {
        format!("{mean:9.3} s ")
    };
    println!("bench {id:<48} ... {human} ({iters} iters)");
}

/// The benchmark driver (named after the real crate's entry point).
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets iterations per benchmark (the shim times exactly this many).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Accepts CLI arguments for parity; only `--bench` filtering by
    /// substring is honoured (via `NMCACHE_BENCH_FILTER`).
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Registers and immediately runs one benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: self.sample_size,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        print_result(id, b.iters, b.elapsed);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Records the per-iteration throughput (display parity only).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Overrides the iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: self.sample_size,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        print_result(&format!("{}/{id}", self.name), b.iters, b.elapsed);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            iters: self.sample_size,
            elapsed: Duration::ZERO,
        };
        f(&mut b, input);
        print_result(&format!("{}/{id}", self.name), b.iters, b.elapsed);
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Declares a benchmark group: either the positional form
/// `criterion_group!(name, target, ...)` or the config form with
/// `name = ...; config = ...; targets = ...`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench `main` that runs every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
