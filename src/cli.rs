//! Command-line parsing for the `nmcache` binary.
//!
//! Hand-rolled (no CLI dependency): a subcommand followed by `--flag
//! value` pairs. See [`USAGE`] for the full surface.

use std::fmt;
use std::path::PathBuf;

/// Usage text printed on `--help` or a parse error.
pub const USAGE: &str = "\
nmcache — power-performance trade-offs in nanometer-scale multi-level caches

USAGE: nmcache <COMMAND> [OPTIONS]

COMMANDS:
  list                 List every reproducible experiment
  fig1                 Figure 1: fixed-Vth vs fixed-Tox curves (16 KB)
  fig2                 Figure 2: (Tox, Vth) tuple problem energy curves
  schemes              Section 4: scheme I/II/III comparison
  l2-sweep             Section 5: L2 size sweep at iso-AMAT
  l1-sweep             Section 5: L1 size sweep at iso-AMAT
  ablation             Section 4: single-knob ablation
  fit                  Section 3: Eq.1/Eq.2 surface-fit quality
  explore              Rank subarray foldings of a cache (CACTI-style)
  missrates            Print the simulated miss-rate table
  variation            Extension: leakage under die-to-die variation
  thermal              Extension: temperature sensitivity
  decay                Extension: process knobs vs cache decay (gated-Vdd)
  split-l1             Extension: split I$/D$ vs unified L1
  trace-sim            Replay a trace file through an L1/L2 hierarchy
  e8                   E8: 3-level mixed-technology hierarchy (SRAM/eDRAM/STT-MRAM)
  campaign             Crash-resumable cross-product sweep with checkpoints
  loadgen              Replay a seeded query mix against one evaluator and
                       publish p50/p95/p99 latency per query class
  benchdiff            Compare two telemetry reports and gate on p99 regression

CAMPAIGN OPTIONS (only valid after `campaign`):
  --out <DIR>          Campaign directory: checkpoint + persistent store (required)
  --l1-sizes <KBS>     Comma-separated L1 axis in KB (default 16,32)
  --l2-sizes <KBS>     Comma-separated L2 axis in KB (default 256,1024)
  --schemes <NAMES>    Comma-separated schemes (default uniform,split)
  --techs <NAMES>      Comma-separated L2 technologies (default sram)
  --temps <CELSIUS>    Comma-separated temperatures in C (default 80)
  --slack <FRACTION>   AMAT slack per cell over its fastest corner (default 0.15)
  --quick              Shorter simulations and the coarse knob grid
  --checkpoint-every <N>  Cells between atomic checkpoint rewrites (default 8)
  --max-cells <N>      Compute at most N new cells this run, then stop
                       (the checkpoint still lands; rerun to resume)
  --fresh              Discard an existing checkpoint and restart
  --require-store      Fail (exit 6) if the store cannot open, instead of
                       continuing without persistence
  --csv <PATH>         Also write the result table as CSV
  --threads <N>        Worker threads for parallel sweeps
  --stats              Print per-sweep executor statistics after the run
  --metrics <PATH>     Write a schema-versioned JSON telemetry report
                       (includes the campaign.cell.latency histogram)

LOADGEN OPTIONS (only valid after `loadgen`):
  --seed <N>           Mix seed (default 2005); a fixed seed and thread count
                       replay byte-identical counters and mix composition
  --queries <N>        Queries to synthesize (default 200)
  --rate <QPS>         Open-loop arrival rate; omit for closed-loop replay
  --quick              Coarse knob grid (CI-sized work items)
  --threads <N>        Worker threads for the replay pool
  --out <PATH>         Report path (default BENCH_serve.json)

BENCHDIFF OPTIONS (usage: `benchdiff <BASELINE.json> <CANDIDATE.json>`):
  --max-ratio <R>      Highest allowed candidate/baseline p99 ratio after
                       machine-scale normalization (default 2.0)

OPTIONS:
  --quick              Shorter architectural simulations (tests/smoke)
  --slack <FRACTION>   AMAT slack over the best corner (default 0.15)
  --scheme <NAME>      uniform | split | per-component (default uniform)
  --steps <N>          Sweep steps (default 8)
  --samples <N>        Monte-Carlo samples (default 400)
  --suite <NAME>       Workload suite: spec2000 | tpcc | specweb | pointer-chase
                       (missrates, decay and split-l1 only)
  --csv <PATH>         Also write the result table as CSV
  --trace <PATH>       Trace file for trace-sim
  --l1 <KB>            L1 size in KB (default 16)
  --l2 <KB>            L2 size in KB (default 1024)
  --l1-size <KB>       e8: L1 size in KB (default 16)
  --l2-size <KB>       e8: L2 size in KB (default 256)
  --l3-size <KB>       e8: L3 size in KB (default 4096)
  --l1-tech <NAME>     e8: L1 technology: sram | edram | stt-mram (default sram)
  --l2-tech <NAME>     e8: L2 technology (default sram)
  --l3-tech <NAME>     e8: restrict the swept L3 technology to one candidate
  --threads <N>        Worker threads for parallel sweeps
                       (default: NMCACHE_THREADS or all cores)
  --stats              Print per-sweep executor statistics after the run
  --metrics <PATH>     Write a schema-versioned JSON telemetry report
  --trace-out <PATH>   Write a Chrome/Perfetto trace-event JSON of the run
  --log-level <LEVEL>  Span logging on stderr: off | info | debug (default off)
  -h, --help           Show this help

EXIT CODES:
  0  success
  2  usage error (unknown command/flag, bad value)
  3  study or model error
  4  trace format error (parse failure, corrupt/truncated binary)
  5  I/O error (missing trace file, unwritable CSV path)
  6  persistence error (corrupt or mismatched campaign checkpoint,
     checkpoint write failure, or --require-store with no usable store)
  7  SLO regression (benchdiff: a candidate p99 exceeded --max-ratio x
     the baseline p99 after machine-scale normalization)
";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Figure 1 curves.
    Fig1(Options),
    /// Figure 2 tuple curves.
    Fig2(Options),
    /// Scheme comparison table.
    Schemes(Options),
    /// L2 size sweep.
    L2Sweep(Options),
    /// L1 size sweep.
    L1Sweep(Options),
    /// Single-knob ablation.
    Ablation(Options),
    /// Surface-fit report.
    Fit(Options),
    /// Organisation exploration.
    Explore(Options),
    /// Miss-rate table dump.
    MissRates(Options),
    /// Variation study.
    Variation(Options),
    /// Temperature study.
    Thermal(Options),
    /// Knobs-vs-decay study.
    Decay(Options),
    /// Split I$/D$ study.
    SplitL1(Options),
    /// Trace replay.
    TraceSim(Options),
    /// E8 mixed-technology three-level study.
    E8(Options),
    /// Crash-resumable cross-product campaign.
    Campaign(CampaignOptions),
    /// Deterministic query-mix load generation.
    Loadgen(LoadgenOptions),
    /// Report comparison with the p99 SLO gate.
    Benchdiff(BenchdiffOptions),
    /// Experiment registry listing.
    List,
    /// Help requested.
    Help,
}

/// Options for the `campaign` subcommand (distinct from the study
/// [`Options`]: every axis is a list, and the persistence knobs have no
/// meaning elsewhere).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOptions {
    /// Campaign directory holding the checkpoint and the store
    /// (`--out`, required).
    pub out: PathBuf,
    /// L1 size axis in bytes (`--l1-sizes`, KB on the command line).
    pub l1_sizes: Vec<u64>,
    /// L2 size axis in bytes (`--l2-sizes`, KB on the command line).
    pub l2_sizes: Vec<u64>,
    /// Scheme axis (`--schemes`).
    pub schemes: Vec<SchemeArg>,
    /// L2 technology axis, unresolved names (`--techs`).
    pub techs: Vec<String>,
    /// Temperature axis in °C (`--temps`).
    pub temps_c: Vec<f64>,
    /// AMAT slack fraction per cell (`--slack`).
    pub slack: f64,
    /// Shorter simulations and the coarse knob grid (`--quick`).
    pub quick: bool,
    /// Cells between checkpoint rewrites (`--checkpoint-every`).
    pub checkpoint_every: usize,
    /// New-cell budget for this run (`--max-cells`).
    pub max_cells: Option<usize>,
    /// Discard an existing checkpoint (`--fresh`).
    pub fresh: bool,
    /// Treat an unusable store as fatal (`--require-store`).
    pub require_store: bool,
    /// CSV output path (`--csv`).
    pub csv: Option<PathBuf>,
    /// Worker-thread override for parallel sweeps (`--threads`).
    pub threads: Option<usize>,
    /// Print per-sweep executor statistics after the run (`--stats`).
    pub stats: bool,
    /// Telemetry report output path (`--metrics`).
    pub metrics: Option<PathBuf>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            out: PathBuf::new(),
            l1_sizes: vec![16 * 1024, 32 * 1024],
            l2_sizes: vec![256 * 1024, 1024 * 1024],
            schemes: vec![SchemeArg::Uniform, SchemeArg::Split],
            techs: vec!["sram".to_owned()],
            temps_c: vec![80.0],
            slack: 0.15,
            quick: false,
            checkpoint_every: 8,
            max_cells: None,
            fresh: false,
            require_store: false,
            csv: None,
            threads: None,
            stats: false,
            metrics: None,
        }
    }
}

/// Options for the `loadgen` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenOptions {
    /// Mix seed (`--seed`).
    pub seed: u64,
    /// Queries to synthesize (`--queries`).
    pub queries: usize,
    /// Open-loop arrival rate (`--rate`); `None` = closed loop.
    pub rate_qps: Option<f64>,
    /// Coarse knob grid (`--quick`).
    pub quick: bool,
    /// Worker-thread override for the replay pool (`--threads`).
    pub threads: Option<usize>,
    /// Report output path (`--out`).
    pub out: PathBuf,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            seed: 2005,
            queries: 200,
            rate_qps: None,
            quick: false,
            threads: None,
            out: PathBuf::from("BENCH_serve.json"),
        }
    }
}

/// Options for the `benchdiff` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchdiffOptions {
    /// Baseline report path (first positional).
    pub baseline: PathBuf,
    /// Candidate report path (second positional).
    pub candidate: PathBuf,
    /// Highest allowed normalized p99 ratio (`--max-ratio`).
    pub max_ratio: f64,
}

/// Assignment scheme selector (mirrors `nm_cache_core::groups::Scheme`
/// without importing it here, keeping the parser dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchemeArg {
    /// One pair for the whole cache.
    #[default]
    Uniform,
    /// Cell-array/periphery pairs.
    Split,
    /// Independent per-component pairs.
    PerComponent,
}

/// Common options across subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Shorter simulations.
    pub quick: bool,
    /// AMAT slack fraction.
    pub slack: f64,
    /// Assignment scheme.
    pub scheme: SchemeArg,
    /// Sweep steps.
    pub steps: usize,
    /// Monte-Carlo samples.
    pub samples: usize,
    /// Workload suite name (resolved by the runner; `None` = default).
    pub suite: Option<String>,
    /// CSV output path.
    pub csv: Option<PathBuf>,
    /// Trace file path.
    pub trace: Option<PathBuf>,
    /// L1 size in bytes.
    pub l1_bytes: u64,
    /// L2 size in bytes.
    pub l2_bytes: u64,
    /// e8: per-level size overrides in bytes (L1, L2, L3); `None` keeps
    /// the study's standard shape.
    pub level_sizes: [Option<u64>; 3],
    /// e8: L1/L2 technology names (`None` = SRAM).
    pub upstream_techs: [Option<String>; 2],
    /// e8: restrict the swept L3 technology to this one candidate.
    pub l3_tech: Option<String>,
    /// Worker-thread override for parallel sweeps (`None` = default).
    pub threads: Option<usize>,
    /// Print per-sweep executor statistics after the run.
    pub stats: bool,
    /// Telemetry report output path (`--metrics`).
    pub metrics: Option<PathBuf>,
    /// Chrome trace-event output path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Span-logging verbosity on stderr (`--log-level`).
    pub log_level: LogLevelArg,
}

/// Span-logging verbosity selector (mirrors `nm_telemetry::LogLevel`
/// without importing it here, keeping the parser dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogLevelArg {
    /// No span logging (the default).
    #[default]
    Off,
    /// Top-level spans only.
    Info,
    /// Every span, indented by nesting depth.
    Debug,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            slack: 0.15,
            scheme: SchemeArg::default(),
            steps: 8,
            samples: 400,
            suite: None,
            csv: None,
            trace: None,
            l1_bytes: 16 * 1024,
            l2_bytes: 1024 * 1024,
            level_sizes: [None, None, None],
            upstream_techs: [None, None],
            l3_tech: None,
            threads: None,
            stats: false,
            metrics: None,
            trace_out: None,
            log_level: LogLevelArg::Off,
        }
    }
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first unknown command, unknown
/// flag, or malformed value.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut args = args.into_iter();
    let Some(cmd) = args.next() else {
        return Ok(Command::Help);
    };
    if cmd == "-h" || cmd == "--help" || cmd == "help" {
        return Ok(Command::Help);
    }
    if cmd == "campaign" {
        return parse_campaign(args);
    }
    if cmd == "loadgen" {
        return parse_loadgen(args);
    }
    if cmd == "benchdiff" {
        return parse_benchdiff(args);
    }

    let mut opts = Options::default();
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("flag {flag} needs a value")))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => opts.quick = true,
            "-h" | "--help" => return Ok(Command::Help),
            "--slack" => {
                let v = value(&mut i, "--slack")?;
                opts.slack = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --slack value {v:?}")))?;
                if !(0.0..=10.0).contains(&opts.slack) {
                    return Err(CliError(format!("--slack {v} out of range [0, 10]")));
                }
            }
            "--scheme" => {
                opts.scheme = match value(&mut i, "--scheme")?.as_str() {
                    "uniform" | "iii" | "III" => SchemeArg::Uniform,
                    "split" | "ii" | "II" => SchemeArg::Split,
                    "per-component" | "i" | "I" => SchemeArg::PerComponent,
                    other => return Err(CliError(format!("unknown scheme {other:?}"))),
                };
            }
            "--steps" => {
                let v = value(&mut i, "--steps")?;
                opts.steps = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --steps value {v:?}")))?;
                if opts.steps == 0 {
                    return Err(CliError("--steps must be positive".into()));
                }
            }
            "--samples" => {
                let v = value(&mut i, "--samples")?;
                opts.samples = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --samples value {v:?}")))?;
                if opts.samples == 0 {
                    return Err(CliError("--samples must be positive".into()));
                }
            }
            "--suite" => opts.suite = Some(value(&mut i, "--suite")?),
            "--csv" => opts.csv = Some(PathBuf::from(value(&mut i, "--csv")?)),
            "--trace" => opts.trace = Some(PathBuf::from(value(&mut i, "--trace")?)),
            "--l1" => {
                let v = value(&mut i, "--l1")?;
                let kb: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --l1 value {v:?}")))?;
                opts.l1_bytes = kb * 1024;
            }
            "--l2" => {
                let v = value(&mut i, "--l2")?;
                let kb: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --l2 value {v:?}")))?;
                opts.l2_bytes = kb * 1024;
            }
            "--l1-size" | "--l2-size" | "--l3-size" => {
                let flag = rest[i].clone();
                let idx = match flag.as_str() {
                    "--l1-size" => 0,
                    "--l2-size" => 1,
                    _ => 2,
                };
                let v = value(&mut i, &flag)?;
                let kb: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad {flag} value {v:?}")))?;
                if kb == 0 {
                    return Err(CliError(format!("{flag} must be positive")));
                }
                opts.level_sizes[idx] = Some(kb * 1024);
            }
            "--l1-tech" | "--l2-tech" | "--l3-tech" => {
                let flag = rest[i].clone();
                let v = value(&mut i, &flag)?;
                match flag.as_str() {
                    "--l1-tech" => opts.upstream_techs[0] = Some(v),
                    "--l2-tech" => opts.upstream_techs[1] = Some(v),
                    _ => opts.l3_tech = Some(v),
                }
            }
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --threads value {v:?}")))?;
                if n == 0 {
                    return Err(CliError("--threads must be positive".into()));
                }
                opts.threads = Some(n);
            }
            "--stats" => opts.stats = true,
            "--metrics" => opts.metrics = Some(PathBuf::from(value(&mut i, "--metrics")?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value(&mut i, "--trace-out")?)),
            "--log-level" => {
                opts.log_level = match value(&mut i, "--log-level")?.as_str() {
                    "off" => LogLevelArg::Off,
                    "info" => LogLevelArg::Info,
                    "debug" => LogLevelArg::Debug,
                    other => {
                        return Err(CliError(format!(
                            "unknown log level {other:?} (expected off, info or debug)"
                        )))
                    }
                };
            }
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }

    let suite_given = opts.suite.is_some();
    let command = match cmd.as_str() {
        "list" => Command::List,
        "fig1" => Command::Fig1(opts),
        "fig2" => Command::Fig2(opts),
        "schemes" => Command::Schemes(opts),
        "l2-sweep" => Command::L2Sweep(opts),
        "l1-sweep" => Command::L1Sweep(opts),
        "ablation" => Command::Ablation(opts),
        "fit" => Command::Fit(opts),
        "explore" => Command::Explore(opts),
        "missrates" => Command::MissRates(opts),
        "variation" => Command::Variation(opts),
        "thermal" => Command::Thermal(opts),
        "decay" => Command::Decay(opts),
        "split-l1" => Command::SplitL1(opts),
        "trace-sim" => {
            if opts.trace.is_none() {
                return Err(CliError("trace-sim requires --trace <PATH>".into()));
            }
            Command::TraceSim(opts)
        }
        "e8" => Command::E8(opts),
        other => return Err(CliError(format!("unknown command {other:?}"))),
    };
    // Only these commands read a workload suite; anywhere else the flag
    // would be silently ignored.
    if suite_given
        && !matches!(
            command,
            Command::MissRates(_) | Command::Decay(_) | Command::SplitL1(_)
        )
    {
        return Err(CliError(format!(
            "--suite applies only to missrates, decay and split-l1, not {cmd}"
        )));
    }
    Ok(command)
}

/// Parses a comma-separated list, one parsed element per non-empty
/// entry; an empty or all-comma value is an error (an empty axis is a
/// mistake, not a request for a zero-cell campaign).
fn parse_list<T>(
    flag: &str,
    raw: &str,
    elem: impl FnMut(&str) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    let items: Vec<&str> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(CliError(format!("{flag} {raw:?} names no values")));
    }
    items.into_iter().map(elem).collect()
}

/// Parses the flags of the `campaign` subcommand.
fn parse_campaign<I: Iterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut opts = CampaignOptions::default();
    let mut have_out = false;
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("flag {flag} needs a value")))
    };
    let size_axis = |flag: &str, raw: &str| -> Result<Vec<u64>, CliError> {
        parse_list(flag, raw, |s| {
            let kb: u64 = s
                .parse()
                .map_err(|_| CliError(format!("bad {flag} entry {s:?}")))?;
            if kb == 0 {
                return Err(CliError(format!("{flag} entries must be positive")));
            }
            Ok(kb * 1024)
        })
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--out" => {
                opts.out = PathBuf::from(value(&mut i, "--out")?);
                have_out = true;
            }
            "--l1-sizes" => opts.l1_sizes = size_axis("--l1-sizes", &value(&mut i, "--l1-sizes")?)?,
            "--l2-sizes" => opts.l2_sizes = size_axis("--l2-sizes", &value(&mut i, "--l2-sizes")?)?,
            "--schemes" => {
                let v = value(&mut i, "--schemes")?;
                opts.schemes = parse_list("--schemes", &v, |s| match s {
                    "uniform" | "iii" | "III" => Ok(SchemeArg::Uniform),
                    "split" | "ii" | "II" => Ok(SchemeArg::Split),
                    "per-component" | "i" | "I" => Ok(SchemeArg::PerComponent),
                    other => Err(CliError(format!("unknown scheme {other:?}"))),
                })?;
            }
            "--techs" => {
                let v = value(&mut i, "--techs")?;
                opts.techs = parse_list("--techs", &v, |s| Ok(s.to_owned()))?;
            }
            "--temps" => {
                let v = value(&mut i, "--temps")?;
                opts.temps_c = parse_list("--temps", &v, |s| {
                    let t: f64 = s
                        .parse()
                        .map_err(|_| CliError(format!("bad --temps entry {s:?}")))?;
                    if !t.is_finite() {
                        return Err(CliError(format!("--temps entry {s:?} is not finite")));
                    }
                    Ok(t)
                })?;
            }
            "--slack" => {
                let v = value(&mut i, "--slack")?;
                opts.slack = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --slack value {v:?}")))?;
                if !(0.0..=10.0).contains(&opts.slack) {
                    return Err(CliError(format!("--slack {v} out of range [0, 10]")));
                }
            }
            "--quick" => opts.quick = true,
            "--checkpoint-every" => {
                let v = value(&mut i, "--checkpoint-every")?;
                opts.checkpoint_every = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --checkpoint-every value {v:?}")))?;
                if opts.checkpoint_every == 0 {
                    return Err(CliError("--checkpoint-every must be positive".into()));
                }
            }
            "--max-cells" => {
                let v = value(&mut i, "--max-cells")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --max-cells value {v:?}")))?;
                opts.max_cells = Some(n);
            }
            "--fresh" => opts.fresh = true,
            "--require-store" => opts.require_store = true,
            "--csv" => opts.csv = Some(PathBuf::from(value(&mut i, "--csv")?)),
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --threads value {v:?}")))?;
                if n == 0 {
                    return Err(CliError("--threads must be positive".into()));
                }
                opts.threads = Some(n);
            }
            "--stats" => opts.stats = true,
            "--metrics" => opts.metrics = Some(PathBuf::from(value(&mut i, "--metrics")?)),
            other => return Err(CliError(format!("unknown flag {other:?} for campaign"))),
        }
        i += 1;
    }
    if !have_out {
        return Err(CliError("campaign requires --out <DIR>".into()));
    }
    Ok(Command::Campaign(opts))
}

/// Parses the flags of the `loadgen` subcommand.
fn parse_loadgen<I: Iterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut opts = LoadgenOptions::default();
    let rest: Vec<String> = args.collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("flag {flag} needs a value")))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --seed value {v:?}")))?;
            }
            "--queries" => {
                let v = value(&mut i, "--queries")?;
                opts.queries = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --queries value {v:?}")))?;
                if opts.queries == 0 {
                    return Err(CliError("--queries must be positive".into()));
                }
            }
            "--rate" => {
                let v = value(&mut i, "--rate")?;
                let rate: f64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --rate value {v:?}")))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(CliError(format!("--rate {v} must be a positive rate")));
                }
                opts.rate_qps = Some(rate);
            }
            "--quick" => opts.quick = true,
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --threads value {v:?}")))?;
                if n == 0 {
                    return Err(CliError("--threads must be positive".into()));
                }
                opts.threads = Some(n);
            }
            "--out" => opts.out = PathBuf::from(value(&mut i, "--out")?),
            other => return Err(CliError(format!("unknown flag {other:?} for loadgen"))),
        }
        i += 1;
    }
    Ok(Command::Loadgen(opts))
}

/// Parses the `benchdiff` subcommand: two positional report paths, then
/// flags.
fn parse_benchdiff<I: Iterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let rest: Vec<String> = args.collect();
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut max_ratio = 2.0f64;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("flag {flag} needs a value")))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--max-ratio" => {
                let v = value(&mut i, "--max-ratio")?;
                max_ratio = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --max-ratio value {v:?}")))?;
                if !max_ratio.is_finite() || max_ratio <= 0.0 {
                    return Err(CliError(format!(
                        "--max-ratio {v} must be a positive ratio"
                    )));
                }
            }
            flag if flag.starts_with('-') => {
                return Err(CliError(format!("unknown flag {flag:?} for benchdiff")))
            }
            path => paths.push(PathBuf::from(path)),
        }
        i += 1;
    }
    let [baseline, candidate] = <[PathBuf; 2]>::try_from(paths).map_err(|got| {
        CliError(format!(
            "benchdiff needs exactly two report paths (<BASELINE> <CANDIDATE>), got {}",
            got.len()
        ))
    })?;
    Ok(Command::Benchdiff(BenchdiffOptions {
        baseline,
        candidate,
        max_ratio,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Command, CliError> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn list_parses() {
        assert_eq!(parse_str("list"), Ok(Command::List));
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_str(""), Ok(Command::Help));
        assert_eq!(parse_str("--help"), Ok(Command::Help));
        assert_eq!(parse_str("fig1 --help"), Ok(Command::Help));
    }

    #[test]
    fn subcommands_parse_with_defaults() {
        match parse_str("fig1").unwrap() {
            Command::Fig1(o) => {
                assert!(!o.quick);
                assert_eq!(o.l1_bytes, 16 * 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flags_apply() {
        match parse_str("l2-sweep --scheme split --slack 0.08 --quick --l1 32").unwrap() {
            Command::L2Sweep(o) => {
                assert_eq!(o.scheme, SchemeArg::Split);
                assert!((o.slack - 0.08).abs() < 1e-12);
                assert!(o.quick);
                assert_eq!(o.l1_bytes, 32 * 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scheme_numerals_accepted() {
        match parse_str("schemes --scheme I").unwrap() {
            Command::Schemes(o) => assert_eq!(o.scheme, SchemeArg::PerComponent),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unknowns_and_bad_values() {
        assert!(parse_str("bogus").is_err());
        assert!(parse_str("fig1 --wat").is_err());
        assert!(parse_str("fig1 --slack nope").is_err());
        assert!(parse_str("fig1 --slack").is_err());
        assert!(parse_str("fig1 --steps 0").is_err());
        assert!(parse_str("fig1 --slack 99").is_err());
        assert!(parse_str("l2-sweep --scheme bogus").is_err());
    }

    #[test]
    fn trace_sim_requires_trace() {
        assert!(parse_str("trace-sim").is_err());
        match parse_str("trace-sim --trace t.txt --l2 512").unwrap() {
            Command::TraceSim(o) => {
                assert_eq!(o.trace.unwrap(), PathBuf::from("t.txt"));
                assert_eq!(o.l2_bytes, 512 * 1024);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extension_commands_parse() {
        assert!(matches!(parse_str("decay").unwrap(), Command::Decay(_)));
        assert!(matches!(
            parse_str("split-l1 --l2 512").unwrap(),
            Command::SplitL1(_)
        ));
        match parse_str("decay --suite tpcc").unwrap() {
            Command::Decay(o) => assert_eq!(o.suite.as_deref(), Some("tpcc")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn suite_is_rejected_where_no_study_reads_it() {
        for cmd in ["missrates", "decay", "split-l1"] {
            assert!(parse_str(&format!("{cmd} --suite tpcc")).is_ok(), "{cmd}");
        }
        for cmd in ["list", "fig1", "fig2", "schemes", "l2-sweep", "e8"] {
            let err = parse_str(&format!("{cmd} --suite tpcc")).unwrap_err();
            assert!(err.0.contains("--suite applies only"), "{cmd}: {err}");
        }
    }

    #[test]
    fn threads_and_stats_flags_parse() {
        match parse_str("fig2 --threads 4 --stats").unwrap() {
            Command::Fig2(o) => {
                assert_eq!(o.threads, Some(4));
                assert!(o.stats);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_str("fig2 --threads 0").is_err());
        assert!(parse_str("fig2 --threads many").is_err());
        match parse_str("fig1").unwrap() {
            Command::Fig1(o) => {
                assert_eq!(o.threads, None);
                assert!(!o.stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn telemetry_flags_parse() {
        match parse_str("schemes --metrics m.json --trace-out t.json --log-level debug").unwrap() {
            Command::Schemes(o) => {
                assert_eq!(o.metrics.unwrap(), PathBuf::from("m.json"));
                assert_eq!(o.trace_out.unwrap(), PathBuf::from("t.json"));
                assert_eq!(o.log_level, LogLevelArg::Debug);
            }
            other => panic!("{other:?}"),
        }
        match parse_str("schemes --log-level info").unwrap() {
            Command::Schemes(o) => assert_eq!(o.log_level, LogLevelArg::Info),
            other => panic!("{other:?}"),
        }
        // Defaults: everything off.
        match parse_str("schemes").unwrap() {
            Command::Schemes(o) => {
                assert_eq!(o.metrics, None);
                assert_eq!(o.trace_out, None);
                assert_eq!(o.log_level, LogLevelArg::Off);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_str("schemes --log-level verbose").is_err());
        assert!(parse_str("schemes --metrics").is_err());
        assert!(parse_str("schemes --trace-out").is_err());
    }

    #[test]
    fn e8_parses_with_level_knobs() {
        match parse_str("e8 --quick --l3-tech edram --l2-tech sram --l3-size 8192 --l1-size 32")
            .unwrap()
        {
            Command::E8(o) => {
                assert!(o.quick);
                assert_eq!(o.l3_tech.as_deref(), Some("edram"));
                assert_eq!(o.upstream_techs[0], None);
                assert_eq!(o.upstream_techs[1].as_deref(), Some("sram"));
                assert_eq!(o.level_sizes, [Some(32 * 1024), None, Some(8192 * 1024)]);
            }
            other => panic!("{other:?}"),
        }
        match parse_str("e8").unwrap() {
            Command::E8(o) => {
                assert_eq!(o.level_sizes, [None, None, None]);
                assert_eq!(o.l3_tech, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_str("e8 --l3-size 0").is_err());
        assert!(parse_str("e8 --l3-size lots").is_err());
        assert!(parse_str("e8 --l3-tech").is_err());
    }

    #[test]
    fn campaign_parses_with_defaults_and_requires_out() {
        assert!(parse_str("campaign").is_err());
        match parse_str("campaign --out runs/a").unwrap() {
            Command::Campaign(o) => {
                assert_eq!(o.out, PathBuf::from("runs/a"));
                assert_eq!(o.l1_sizes, vec![16 * 1024, 32 * 1024]);
                assert_eq!(o.l2_sizes, vec![256 * 1024, 1024 * 1024]);
                assert_eq!(o.schemes, vec![SchemeArg::Uniform, SchemeArg::Split]);
                assert_eq!(o.techs, vec!["sram".to_owned()]);
                assert_eq!(o.temps_c, vec![80.0]);
                assert_eq!(o.checkpoint_every, 8);
                assert_eq!(o.max_cells, None);
                assert!(!o.fresh);
                assert!(!o.require_store);
                assert!(!o.quick);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_str("campaign --help"), Ok(Command::Help));
    }

    #[test]
    fn campaign_axes_parse_as_lists() {
        match parse_str(
            "campaign --out d --l1-sizes 8,16 --l2-sizes 512 --schemes uniform,per-component \
             --techs sram,edram --temps 40,80,110 --slack 0.2 --quick \
             --checkpoint-every 2 --max-cells 3 --fresh --require-store --csv t.csv",
        )
        .unwrap()
        {
            Command::Campaign(o) => {
                assert_eq!(o.l1_sizes, vec![8 * 1024, 16 * 1024]);
                assert_eq!(o.l2_sizes, vec![512 * 1024]);
                assert_eq!(o.schemes, vec![SchemeArg::Uniform, SchemeArg::PerComponent]);
                assert_eq!(o.techs, vec!["sram".to_owned(), "edram".to_owned()]);
                assert_eq!(o.temps_c, vec![40.0, 80.0, 110.0]);
                assert!((o.slack - 0.2).abs() < 1e-12);
                assert!(o.quick);
                assert_eq!(o.checkpoint_every, 2);
                assert_eq!(o.max_cells, Some(3));
                assert!(o.fresh);
                assert!(o.require_store);
                assert_eq!(o.csv.unwrap(), PathBuf::from("t.csv"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn campaign_rejects_bad_values() {
        assert!(parse_str("campaign --out d --l1-sizes 0").is_err());
        assert!(parse_str("campaign --out d --l1-sizes lots").is_err());
        assert!(parse_str("campaign --out d --l2-sizes ,").is_err());
        assert!(parse_str("campaign --out d --schemes bogus").is_err());
        assert!(parse_str("campaign --out d --temps warm").is_err());
        assert!(parse_str("campaign --out d --temps nan").is_err());
        assert!(parse_str("campaign --out d --checkpoint-every 0").is_err());
        assert!(parse_str("campaign --out d --slack 99").is_err());
        assert!(parse_str("campaign --out d --steps 4").is_err());
        assert!(parse_str("fig1 --out d").is_err());
    }

    #[test]
    fn campaign_telemetry_flags_parse() {
        match parse_str("campaign --out d --threads 2 --stats --metrics m.json").unwrap() {
            Command::Campaign(o) => {
                assert_eq!(o.threads, Some(2));
                assert!(o.stats);
                assert_eq!(o.metrics.unwrap(), PathBuf::from("m.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse_str("campaign --out d").unwrap() {
            Command::Campaign(o) => {
                assert_eq!(o.threads, None);
                assert!(!o.stats);
                assert_eq!(o.metrics, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_str("campaign --out d --threads 0").is_err());
    }

    #[test]
    fn loadgen_parses_with_defaults_and_flags() {
        match parse_str("loadgen").unwrap() {
            Command::Loadgen(o) => {
                assert_eq!(o.seed, 2005);
                assert_eq!(o.queries, 200);
                assert_eq!(o.rate_qps, None);
                assert!(!o.quick);
                assert_eq!(o.threads, None);
                assert_eq!(o.out, PathBuf::from("BENCH_serve.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse_str(
            "loadgen --seed 7 --queries 32 --rate 120.5 --quick --threads 3 --out s.json",
        )
        .unwrap()
        {
            Command::Loadgen(o) => {
                assert_eq!(o.seed, 7);
                assert_eq!(o.queries, 32);
                assert_eq!(o.rate_qps, Some(120.5));
                assert!(o.quick);
                assert_eq!(o.threads, Some(3));
                assert_eq!(o.out, PathBuf::from("s.json"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_str("loadgen --help"), Ok(Command::Help));
        assert!(parse_str("loadgen --queries 0").is_err());
        assert!(parse_str("loadgen --rate -4").is_err());
        assert!(parse_str("loadgen --rate fast").is_err());
        assert!(parse_str("loadgen --threads 0").is_err());
        assert!(parse_str("loadgen --seed minus-one").is_err());
        assert!(parse_str("loadgen --csv x.csv").is_err());
    }

    #[test]
    fn benchdiff_takes_two_positional_reports() {
        match parse_str("benchdiff base.json cand.json").unwrap() {
            Command::Benchdiff(o) => {
                assert_eq!(o.baseline, PathBuf::from("base.json"));
                assert_eq!(o.candidate, PathBuf::from("cand.json"));
                assert!((o.max_ratio - 2.0).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        match parse_str("benchdiff a.json b.json --max-ratio 1.5").unwrap() {
            Command::Benchdiff(o) => assert!((o.max_ratio - 1.5).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        assert_eq!(parse_str("benchdiff --help"), Ok(Command::Help));
        assert!(parse_str("benchdiff").is_err());
        assert!(parse_str("benchdiff one.json").is_err());
        assert!(parse_str("benchdiff a.json b.json c.json").is_err());
        assert!(parse_str("benchdiff a.json b.json --max-ratio 0").is_err());
        assert!(parse_str("benchdiff a.json b.json --max-ratio huge").is_err());
        assert!(parse_str("benchdiff a.json b.json --wat").is_err());
    }

    #[test]
    fn csv_path_captured() {
        match parse_str("fit --csv out.csv").unwrap() {
            Command::Fit(o) => assert_eq!(o.csv.unwrap(), PathBuf::from("out.csv")),
            other => panic!("{other:?}"),
        }
    }
}
