//! Telemetry names emitted by the architectural simulator.
//!
//! Every fixed metric name this crate records lives here as a `pub
//! const`, and each one must also appear in the workspace-root
//! `telemetry_names.txt` manifest — the D6 test
//! (`tests/telemetry_names.rs`) checks both directions, so a typo'd
//! literal can never silently fork a time series.

/// Span: one text-trace parse.
pub const TRACE_READ: &str = "trace.read";
/// Span: one binary-trace parse.
pub const TRACE_READ_BINARY: &str = "trace.read_binary";
/// Counter: access records parsed from traces.
pub const TRACE_RECORDS: &str = "trace.records";
/// Counter: CPU references simulated through an L1 by miss-rate tables.
pub const ARCHSIM_REFS: &str = "archsim.refs";
/// Counter: L1 passes (one per L1 size and suite) of miss-rate tables.
pub const ARCHSIM_L1_PASSES: &str = "archsim.l1_passes";
/// Counter: L1 miss streams replayed into an L2 by miss-rate tables.
pub const ARCHSIM_L2_REPLAYS: &str = "archsim.l2_replays";
