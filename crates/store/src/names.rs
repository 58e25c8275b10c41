//! Telemetry names emitted by the persistence layer.
//!
//! Every fixed metric name this crate records lives here as a `pub
//! const`, and each one must also appear in the workspace-root
//! `telemetry_names.txt` manifest — the D6 test
//! (`tests/telemetry_names.rs`) checks both directions, so a typo'd
//! literal can never silently fork a time series.

/// Counter: store opens (fresh or existing segment).
pub const STORE_OPENS: &str = "store.opens";
/// Counter: `get` calls that returned a checksum-verified payload.
pub const STORE_HITS: &str = "store.hits";
/// Counter: `get` calls for keys not in the store.
pub const STORE_MISSES: &str = "store.misses";
/// Counter: records appended.
pub const STORE_PUTS: &str = "store.puts";
/// Counter: `put` calls skipped because the key was already present.
pub const STORE_PUTS_SKIPPED: &str = "store.puts_skipped";
/// Counter: `put` calls that failed with an I/O or disk-full error.
pub const STORE_PUT_ERRORS: &str = "store.put_errors";
/// Counter: records that failed checksum re-verification on read-back.
pub const STORE_CORRUPT_RECORDS: &str = "store.corrupt_records";
/// Counter: valid records recovered by open-time salvage scans.
pub const STORE_SALVAGED_RECORDS: &str = "store.salvaged_records";
/// Counter: records lost to torn-write truncation (best-effort census).
pub const STORE_DROPPED_RECORDS: &str = "store.dropped_records";
/// Counter: bytes removed by torn-write truncation.
pub const STORE_DROPPED_BYTES: &str = "store.dropped_bytes";
/// Counter: atomic whole-file writes completed (temp + fsync + rename).
pub const STORE_ATOMIC_WRITES: &str = "store.atomic_writes";
/// Counter: atomic whole-file writes that failed (any step).
pub const STORE_ATOMIC_WRITE_ERRORS: &str = "store.atomic_write_errors";
