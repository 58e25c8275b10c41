//! Telemetry names emitted by the device models.
//!
//! Every fixed metric name this crate records lives here as a `pub
//! const`, and each one must also appear in the workspace-root
//! `telemetry_names.txt` manifest — the D6 test
//! (`tests/telemetry_names.rs`) checks both directions, so a typo'd
//! literal can never silently fork a time series. The per-technology
//! counters (`device.tech.<name>`, recorded by `nm-cache-core`) are
//! derived from profile names at runtime and are exempt by design.

/// Span: one Eq. 1 leakage-surface fit.
pub const FIT_LEAKAGE: &str = "device.fit.leakage";
/// Span: one Eq. 2 delay-surface fit.
pub const FIT_DELAY: &str = "device.fit.delay";
/// Counter: fitted-surface evaluations (leakage and delay).
pub const EVALUATE: &str = "device.evaluate";
/// Counter: range-guarded fitted-surface evaluations.
pub const TRY_EVALUATE: &str = "device.try_evaluate";
