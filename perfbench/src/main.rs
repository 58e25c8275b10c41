//! The repository benchmark: workloads driven in process through the
//! crates' public APIs, with end-to-end metrics from timed runs and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! nm-perfbench --workload <study-sweep|campaign-store>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every line but the last is a human-readable report; the last line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads, metrics and baseline.

mod campaign;
mod probes;
mod report;
mod serve;
mod study;
mod trace;

use nm_cache_core::eval::EvalStats;
use nm_telemetry::Stopwatch;
use report::{median, quantile, Report};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// End-to-end metrics, reported by every timed run.
const END_TO_END: [&str; 4] = ["setup_s", "pass_s", "warm_s", "peak_rss_mb"];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [&str; 48] = [
    "archsim.table_s",
    "archsim.table_refs",
    "archsim.table_ns_per_ref",
    "archsim.gen_ns_per_ref",
    "archsim.l1_ns_per_ref",
    "archsim.hier_ns_per_ref",
    "archsim.l1_misses",
    "archsim.l2_misses",
    "archsim.l1_writebacks",
    "eval.cold_p50_ms",
    "eval.warm_p50_us",
    "eval.tuple_p50_ms",
    "eval.adversarial_p50_us",
    "eval.mixed_p50_ms",
    "eval.cold_growth_ratio",
    "eval.surfaces_built",
    "eval.surface_hits",
    "eval.fronts_built",
    "eval.front_hits",
    "eval.fronts_incremental",
    "eval.store_loaded",
    "eval.front_hit_ratio",
    "eval.front_ms.uniform",
    "eval.front_ms.split",
    "eval.front_ms.per-component",
    "eval.front_ns_per_point",
    "geometry.circuit_us",
    "device.surface_build_us",
    "sweep.item_overhead_us",
    "sweep.oversub_ratio",
    "store.bytes",
    "store.open_ms",
    "store.put_us",
    "store.sync_ms",
    "store.get_us",
    "store.puts",
    "store.hits",
    "campaign.cell_p50_ms",
    "campaign.cell_p90_ms",
    "campaign.checkpoints",
    "loadgen.synth_ms",
    "serve.qps",
    "serve.p50_ms",
    "serve.p99_ms",
    "telemetry.overhead_pct",
    "telemetry.overhead_iqr_pct",
    "trace.spans",
    "trace.unattributed_pct",
];

/// Warm passes per iteration; the median is reported as `warm_s`.
pub const WARM_REPEATS: usize = 3;

/// Timed iterations per run, at least; more run while the next one is
/// expected to end within `--seconds`.
const MIN_ITERATIONS: usize = 2;

/// Untraced/traced iteration pairs of a traced run, at least; more run
/// while the next pair is expected to end within `--seconds`.
const MIN_OVERHEAD_PAIRS: usize = 3;

/// Timings of one workload iteration.
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    /// Everything before the first timed operation.
    pub setup_s: f64,
    /// The workload's main pass.
    pub pass_s: f64,
    /// The same pass again, over the state the first one left behind.
    pub warm_s: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// Sets up, runs the pass and the warm pass, and checks outputs.
    fn iterate(&mut self, t: &Tracer, report: &mut Report) -> Result<Iteration, String>;

    /// Output checks made once per run, outside the timed iterations.
    fn finish(&mut self, _report: &mut Report) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer figures of the last iteration; `t` holds the traced
    /// iteration's spans and what the program's registry recorded in
    /// each of its passes.
    fn layer_metrics(&self, t: &Tracer, report: &mut Report);
}

/// SplitMix64: the harness's own seeded choices.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One element of `from` (which must not be empty), uniformly.
    pub fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next_u64() % from.len() as u64) as usize]
    }
}

/// Records what `Evaluator::stats` counted, with the front hit ratio
/// and its base.
pub fn put_eval_stats(report: &mut Report, s: &EvalStats, source: &'static str) {
    for (name, v) in [
        ("eval.surfaces_built", s.surfaces_built),
        ("eval.surface_hits", s.surface_hits),
        ("eval.fronts_built", s.fronts_built),
        ("eval.front_hits", s.front_hits),
        ("eval.fronts_incremental", s.fronts_incremental),
        ("eval.store_loaded", s.store_loaded),
    ] {
        report.put(name, "count", v as f64, 1, source);
    }
    let base = s.front_hits + s.fronts_built;
    let ratio = s.front_hits as f64 / base.max(1) as f64;
    report.put("eval.front_hit_ratio", "ratio", ratio, base as u64, source);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: nm-perfbench --workload <study-sweep|campaign-store> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2005,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Timed run: iterations until `seconds` is spent, medians reported.
fn timed(wl: &mut dyn Workload, seconds: f64, report: &mut Report) -> Result<(), String> {
    let off = Tracer::new(false);
    let clock = Stopwatch::start();
    let mut its: Vec<Iteration> = Vec::new();
    loop {
        let it = wl.iterate(&off, report)?;
        println!(
            "iteration {}: setup {:.6} s, pass {:.6} s, warm {:.6} s",
            its.len() + 1,
            it.setup_s,
            it.pass_s,
            it.warm_s
        );
        if its.is_empty() {
            // Memory after one iteration: later iterations only add the
            // allocator's fragmentation, which varies with their number.
            report.put("peak_rss_mb", "MiB", report::peak_rss_mb(), 1, "process");
        }
        its.push(it);
        let spent = clock.elapsed_seconds();
        let per = spent / its.len() as f64;
        if its.len() >= MIN_ITERATIONS && spent + per > seconds {
            break;
        }
    }
    let n = its.len() as u64;
    let pick = |f: fn(&Iteration) -> f64| median(&its.iter().map(f).collect::<Vec<_>>());
    report.put("setup_s", "s", pick(|i| i.setup_s), n, "pass");
    report.put("pass_s", "s", pick(|i| i.pass_s), n, "pass");
    report.put("warm_s", "s", pick(|i| i.warm_s), n, "pass");
    Ok(())
}

/// Traced run: one discarded warm-up iteration, then pairs of an
/// untraced and a traced iteration (harness spans on, the program's
/// registry recording during each pass) for the tracing overhead, then
/// the layer probes. Layer figures and the attribution come from the
/// last traced iteration.
fn traced(
    wl: &mut dyn Workload,
    args: &Args,
    run_dir: &Path,
    trace_out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    wl.iterate(&Tracer::new(false), report)?;
    let total = |i: &Iteration| i.pass_s + i.warm_s;
    let clock = Stopwatch::start();
    let mut overhead = Vec::new();
    let t = loop {
        let base = wl.iterate(&Tracer::new(false), report)?;
        let t = Tracer::new(true);
        let traced = wl.iterate(&t, report)?;
        overhead.push((total(&traced) / total(&base) - 1.0) * 100.0);
        let spent = clock.elapsed_seconds();
        let per = spent / overhead.len() as f64;
        if overhead.len() >= MIN_OVERHEAD_PAIRS && spent + per > args.seconds {
            break t;
        }
    };
    println!("tracing overhead per pair (%): {overhead:.3?}");

    probes::run(args.seed, run_dir, report)?;
    wl.layer_metrics(&t, report);
    let (mut n, mut sum) = (0, 0.0);
    for (_, snap) in t.all_snapshots() {
        if let Some(h) = snap
            .histograms
            .get(nm_cache_core::names::EVAL_SURFACE_BUILD_SECONDS)
        {
            n += h.count;
            sum += h.sum;
        }
    }
    report.put(
        "device.surface_build_us",
        "us",
        sum * 1e6 / n.max(1) as f64,
        n,
        "pass",
    );
    let pairs = overhead.len() as u64;
    report.put(
        "telemetry.overhead_pct",
        "%",
        median(&overhead),
        pairs,
        "pass",
    );
    report.put(
        "telemetry.overhead_iqr_pct",
        "%",
        quantile(&overhead, 0.75) - quantile(&overhead, 0.25),
        pairs,
        "pass",
    );

    let (spans, unattributed_pct) = attribution(&t);
    report.put("trace.spans", "count", spans as f64, 1, "pass");
    report.put("trace.unattributed_pct", "%", unattributed_pct, 1, "pass");
    t.write_chrome(trace_out)
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    println!("trace: {}", trace_out.display());
    Ok(())
}

/// Prints each pass's wall time split into layer self times, with the
/// unattributed remainder (the pass span's own self time), summed over
/// the passes of one name; returns the span count and the remainder's
/// share of all pass time.
fn attribution(t: &Tracer) -> (u64, f64) {
    let mut passes: BTreeMap<String, (u64, BTreeMap<String, trace::LayerTime>)> = BTreeMap::new();
    for (root, name) in t.roots("pass.") {
        let entry = passes.entry(name).or_default();
        entry.0 += (t.seconds(root) * 1e9) as u64;
        for (layer, lt) in t.layer_times(root) {
            let sum = entry.1.entry(layer).or_default();
            sum.self_ns += lt.self_ns;
            sum.spans += lt.spans;
        }
    }
    let (mut spans, mut wall, mut rest) = (0u64, 0u64, 0u64);
    for (name, (pass_ns, layers)) in &passes {
        println!(
            "== attribution of {name} ({:.6} s): layer self time",
            *pass_ns as f64 / 1e9
        );
        for (layer, lt) in layers {
            let label = if layer == "pass" {
                "(unattributed)"
            } else {
                layer.as_str()
            };
            println!(
                "{:<16} {:>14.3} ms {:>8.2} % {:>8} spans",
                label,
                lt.self_ns as f64 / 1e6,
                lt.self_ns as f64 * 100.0 / (*pass_ns).max(1) as f64,
                lt.spans
            );
            spans += lt.spans;
            if layer == "pass" {
                rest += lt.self_ns;
            }
        }
        wall += pass_ns;
        let snaps: Vec<_> = t.snapshots(name);
        let mut program: Vec<_> = trace::program_self_times(&snaps).into_iter().collect();
        program.sort_by_key(|(_, lt)| std::cmp::Reverse(lt.self_ns));
        if !program.is_empty() {
            println!("   program spans (registry), top self time:");
        }
        for (label, lt) in program.iter().take(6) {
            println!(
                "   {:<28} {:>14.3} ms {:>8.2} % {:>8} spans",
                label,
                lt.self_ns as f64 / 1e6,
                lt.self_ns as f64 * 100.0 / (*pass_ns).max(1) as f64,
                lt.spans
            );
        }
    }
    (spans, rest as f64 * 100.0 / wall.max(1) as f64)
}

fn run(args: &Args, root: &Path, report: &mut Report) -> Result<(), String> {
    let bench_dir = root.join(".bench_run");
    let run_dir = bench_dir.join(format!("{}-{}", args.workload, std::process::id()));
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "study-sweep" => Box::new(study::StudySweep::new(args.seed, root)?),
        "campaign-store" => Box::new(campaign::CampaignStore::new(args.seed, &run_dir)),
        w => return Err(format!("unknown workload {w:?}\n{USAGE}")),
    };
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let result = if args.trace {
        let out = bench_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        traced(wl.as_mut(), args, &run_dir, &out, report)
    } else {
        timed(wl.as_mut(), args.seconds, report)
    };
    let cleanup =
        std::fs::remove_dir_all(&run_dir).map_err(|e| format!("remove {}: {e}", run_dir.display()));
    result?;
    cleanup?;
    wl.finish(report)?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root: PathBuf = manifest
        .parent()
        .map_or_else(|| manifest.to_path_buf(), Path::to_path_buf);
    let mut report = Report::default();
    if let Err(e) = run(&args, &root, &mut report) {
        eprintln!("nm-perfbench: {e}");
        return ExitCode::from(1);
    }
    let mode = if args.trace { "traced" } else { "timed" };
    report.print_table(&format!("{} seed {} ({mode})", args.workload, args.seed));
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.json_line(wanted));
    ExitCode::SUCCESS
}
