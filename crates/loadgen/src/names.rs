//! Canonical telemetry names recorded by the load generator. Every
//! constant here is mirrored in the workspace `telemetry_names.txt`
//! manifest; the D6 test (`tests/telemetry_names.rs`) checks the two
//! stay in sync.

/// Counter: total queries replayed this run.
pub const LOADGEN_QUERIES: &str = "loadgen.queries";
/// Counter: queries whose constraint was satisfiable.
pub const LOADGEN_FEASIBLE: &str = "loadgen.feasible";
/// Counter: queries whose constraint was infeasible (a valid outcome —
/// the adversarial class is built to land here).
pub const LOADGEN_INFEASIBLE: &str = "loadgen.infeasible";
/// Counter: queries that failed with an evaluation error.
pub const LOADGEN_ERRORS: &str = "loadgen.errors";
/// Counter: queries in the cold class (never-seen specs).
pub const LOADGEN_CLASS_COLD: &str = "loadgen.class.cold";
/// Counter: queries in the warm class (repeats of the primed spec).
pub const LOADGEN_CLASS_WARM: &str = "loadgen.class.warm";
/// Counter: queries in the tuple-search class (restricted solves).
pub const LOADGEN_CLASS_TUPLE: &str = "loadgen.class.tuple";
/// Counter: queries in the adversarial near-infeasible class.
pub const LOADGEN_CLASS_ADVERSARIAL: &str = "loadgen.class.adversarial";
/// Counter: queries in the mixed-technology three-level class.
pub const LOADGEN_CLASS_MIXED: &str = "loadgen.class.mixed";
/// Histogram: per-query latency in seconds, all classes pooled.
pub const LOADGEN_LATENCY_ALL: &str = "loadgen.latency.all";
/// Histogram: per-query latency in seconds, cold class.
pub const LOADGEN_LATENCY_COLD: &str = "loadgen.latency.cold";
/// Histogram: per-query latency in seconds, warm class.
pub const LOADGEN_LATENCY_WARM: &str = "loadgen.latency.warm";
/// Histogram: per-query latency in seconds, tuple-search class.
pub const LOADGEN_LATENCY_TUPLE: &str = "loadgen.latency.tuple";
/// Histogram: per-query latency in seconds, adversarial class.
pub const LOADGEN_LATENCY_ADVERSARIAL: &str = "loadgen.latency.adversarial";
/// Histogram: per-query latency in seconds, mixed-technology class.
pub const LOADGEN_LATENCY_MIXED: &str = "loadgen.latency.mixed";
/// Gauge: wall-clock seconds for the whole replay.
pub const LOADGEN_WALL_SECONDS: &str = "loadgen.wall_seconds";
/// Gauge: achieved throughput in queries per second.
pub const LOADGEN_THROUGHPUT_QPS: &str = "loadgen.throughput_qps";
/// Gauge: open-loop target arrival rate (0 in closed-loop mode).
pub const LOADGEN_TARGET_QPS: &str = "loadgen.target_qps";
/// Gauge: seconds this machine takes to run a fixed floating-point
/// calibration kernel. `benchdiff` divides candidate by baseline scale
/// so the p99 gate compares workloads, not host speeds.
pub const SLO_MACHINE_SCALE: &str = "slo.machine_scale";
/// Note: the mix seed, echoed for reproduction.
pub const LOADGEN_SEED: &str = "loadgen.seed";
/// Note: replay mode, `closed` or `open@<rate>`.
pub const LOADGEN_MODE: &str = "loadgen.mode";
/// Note: query-mix composition, `cold=N,warm=N,tuple=N,adversarial=N,mixed=N`.
pub const LOADGEN_MIX: &str = "loadgen.mix";
