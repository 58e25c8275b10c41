//! Telemetry names emitted by the sweep executor.
//!
//! Every fixed metric name this crate records lives here as a `pub
//! const`, and each one must also appear in the workspace-root
//! `telemetry_names.txt` manifest — the D6 test
//! (`tests/telemetry_names.rs`) checks both directions, so a typo'd
//! literal can never silently fork a time series. Per-sweep dynamic names
//! (`sweep.<label>`, `sweep.item.<label>`) are derived from user labels
//! and are exempt by design.

/// Counter: total work items submitted across all sweeps.
pub const ITEMS: &str = "sweep.items";
/// Counter: items that exhausted their retry budget.
pub const FAULTS: &str = "sweep.faults";
/// Counter: extra contained attempts beyond each item's first try.
pub const RETRIES: &str = "sweep.retries";
/// Counter: worker threads that died mid-sweep.
pub const POISONED_WORKERS: &str = "sweep.poisoned_workers";
