//! Exportable run reports: a schema-versioned JSON metrics document
//! (stable key order, golden-test friendly) and a Chrome
//! `chrome://tracing` / Perfetto compatible trace-event rendering of the
//! recorded span tree.
//!
//! JSON is written by hand — this crate has no dependencies — using
//! Rust's shortest-roundtrip float formatting, so every emitted number
//! parses back to the identical bits.

use crate::registry::{HistogramSummary, Snapshot, SweepRecord};
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Version of the metrics-report JSON schema. Bump when the key set or
/// meaning of an existing key changes.
///
/// v2: histograms gained a `p99` key and `p50`/`p95`/`p99` switched
/// from bucket-upper-bound estimates to log-linear interpolation.
pub const SCHEMA_VERSION: u64 = 2;

/// A metrics run report captured from a registry [`Snapshot`].
///
/// [`to_json`](Self::to_json) renders a stable document: object keys
/// appear in a fixed section order (`schema_version`, `generator`,
/// `notes`, `counters`, `gauges`, `spans`, `histograms`, `sweeps`) and
/// every map is sorted by key, so two runs that record the same names
/// produce reports with byte-identical structure.
#[derive(Debug, Clone)]
pub struct RunReport {
    snapshot: Snapshot,
}

impl RunReport {
    /// Captures a report from a registry snapshot.
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        RunReport { snapshot }
    }

    /// Captures a report from the live registry without draining it.
    pub fn capture() -> Self {
        Self::from_snapshot(crate::snapshot())
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Renders the schema-versioned metrics JSON document.
    pub fn to_json(&self) -> String {
        let s = &self.snapshot;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema_version");
        w.u64(SCHEMA_VERSION);
        w.key("generator");
        w.string("nm-telemetry");
        w.key("notes");
        w.string_map(&s.notes);
        w.key("counters");
        w.u64_map(&s.counters);
        w.key("gauges");
        w.f64_map(&s.gauges);
        w.key("spans");
        span_aggregates(&s.spans, &mut w);
        w.key("histograms");
        histograms(&s.histograms, &mut w);
        w.key("sweeps");
        sweeps(&s.sweeps, &mut w);
        w.end_object();
        w.finish()
    }

    /// Writes the metrics JSON document to `path` (with a trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating or writing the file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// Per-label aggregation of completed spans.
fn span_aggregates(spans: &[SpanRecord], w: &mut JsonWriter) {
    #[derive(Default)]
    struct Agg {
        count: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
    }
    let mut by_label: BTreeMap<&str, Agg> = BTreeMap::new();
    for s in spans {
        let agg = by_label.entry(&s.label).or_default();
        if agg.count == 0 {
            agg.min_ns = s.duration_ns;
        }
        agg.count += 1;
        agg.total_ns += s.duration_ns;
        agg.min_ns = agg.min_ns.min(s.duration_ns);
        agg.max_ns = agg.max_ns.max(s.duration_ns);
    }
    w.begin_object();
    for (label, agg) in by_label {
        w.key(label);
        w.begin_object();
        w.key("count");
        w.u64(agg.count);
        w.key("total_ms");
        w.f64(agg.total_ns as f64 / 1e6);
        w.key("min_ms");
        w.f64(agg.min_ns as f64 / 1e6);
        w.key("max_ms");
        w.f64(agg.max_ns as f64 / 1e6);
        w.key("mean_ms");
        w.f64(agg.total_ns as f64 / 1e6 / agg.count as f64);
        w.end_object();
    }
    w.end_object();
}

fn histograms(map: &BTreeMap<String, HistogramSummary>, w: &mut JsonWriter) {
    w.begin_object();
    for (name, h) in map {
        w.key(name);
        w.begin_object();
        w.key("count");
        w.u64(h.count);
        w.key("sum");
        w.f64(h.sum);
        w.key("min");
        w.f64(if h.count == 0 { 0.0 } else { h.min });
        w.key("max");
        w.f64(if h.count == 0 { 0.0 } else { h.max });
        w.key("mean");
        w.f64(h.mean());
        w.key("p50");
        w.f64(h.quantile(0.5));
        w.key("p95");
        w.f64(h.quantile(0.95));
        w.key("p99");
        w.f64(h.quantile(0.99));
        w.end_object();
    }
    w.end_object();
}

fn sweeps(records: &[SweepRecord], w: &mut JsonWriter) {
    w.begin_array();
    for s in records {
        w.begin_object();
        w.key("label");
        w.string(&s.label);
        w.key("items");
        w.u64(s.items as u64);
        w.key("workers");
        w.u64(s.workers as u64);
        w.key("wall_ms");
        w.f64(s.wall_ns as f64 / 1e6);
        w.key("faults");
        w.u64(s.faults as u64);
        w.key("retries");
        w.u64(s.retries as u64);
        w.key("poisoned_workers");
        w.u64(s.poisoned_workers as u64);
        w.end_object();
    }
    w.end_array();
}

/// Renders the recorded spans as a Chrome trace-event JSON document
/// (`chrome://tracing` / Perfetto "JSON object format"): one complete
/// (`"ph": "X"`) event per span, timestamps and durations in
/// microseconds, one `tid` per recording thread. Events are sorted by
/// start time so the output is deterministic for a given span set.
pub fn chrome_trace_json(snapshot: &Snapshot) -> String {
    let mut spans: Vec<&SpanRecord> = snapshot.spans.iter().collect();
    spans.sort_by_key(|s| (s.start_ns, s.depth, s.thread));
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ms");
    w.key("traceEvents");
    w.begin_array();
    for s in spans {
        w.begin_object();
        w.key("name");
        w.string(&s.label);
        w.key("cat");
        w.string("span");
        w.key("ph");
        w.string("X");
        w.key("ts");
        w.f64(s.start_ns as f64 / 1e3);
        w.key("dur");
        w.f64(s.duration_ns as f64 / 1e3);
        w.key("pid");
        w.u64(1);
        w.key("tid");
        w.u64(s.thread as u64 + 1);
        w.key("args");
        w.begin_object();
        w.key("depth");
        w.u64(s.depth as u64);
        if let Some(parent) = &s.parent {
            w.key("parent");
            w.string(parent);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Writes the Chrome trace-event document for `snapshot` to `path`.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn write_chrome_trace(snapshot: &Snapshot, path: &Path) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(snapshot) + "\n")
}

/// Minimal streaming JSON writer with comma/indent bookkeeping. Keys are
/// emitted in caller order; all callers in this module feed it from
/// `BTreeMap`s or fixed sequences, which is what makes reports stable.
///
/// Public so sibling crates that emit machine-readable artifacts
/// (the bench harness) render them
/// through the same writer and inherit the same float formatting,
/// escaping and stable-layout conventions as the metrics report.
pub struct JsonWriter {
    out: String,
    // One entry per open container: `true` once it has a first element.
    stack: Vec<bool>,
    pending_key: bool,
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter {
            out: String::new(),
            stack: Vec::new(),
            pending_key: false,
        }
    }

    fn comma(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
        }
        self.newline_indent();
    }

    fn newline_indent(&mut self) {
        if !self.stack.is_empty() {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// Opens a `{` object; subsequent `key`/value calls populate it.
    pub fn begin_object(&mut self) {
        self.comma();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        let had_elems = self.stack.pop().unwrap_or(false);
        if had_elems {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens a `[` array.
    pub fn begin_array(&mut self) {
        self.comma();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        let had_elems = self.stack.pop().unwrap_or(false);
        if had_elems {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Emits an object key; the next value call becomes its value.
    pub fn key(&mut self, key: &str) {
        self.comma();
        self.push_escaped(key);
        self.out.push_str(": ");
        self.pending_key = true;
    }

    /// Emits an escaped string value.
    pub fn string(&mut self, value: &str) {
        self.comma();
        self.push_escaped(value);
    }

    /// Emits an unsigned integer value.
    pub fn u64(&mut self, value: u64) {
        self.comma();
        self.out.push_str(&value.to_string());
    }

    /// Emits a float value; non-finite values render as `null`.
    pub fn f64(&mut self, value: f64) {
        self.comma();
        if value.is_finite() {
            let text = format!("{value}");
            self.out.push_str(&text);
            // JSON numbers need a fractional part or exponent to stay
            // floats on the way back in; `{}` drops ".0" on integers.
            if !text.contains('.') && !text.contains('e') && !text.contains('E') {
                self.out.push_str(".0");
            }
        } else {
            // NaN/Inf are not representable in JSON.
            self.out.push_str("null");
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Emits a whole object of string values in map order.
    pub fn string_map(&mut self, map: &BTreeMap<String, String>) {
        self.begin_object();
        for (k, v) in map {
            self.key(k);
            self.string(v);
        }
        self.end_object();
    }

    /// Emits a whole object of integer values in map order.
    pub fn u64_map(&mut self, map: &BTreeMap<String, u64>) {
        self.begin_object();
        for (k, v) in map {
            self.key(k);
            self.u64(*v);
        }
        self.end_object();
    }

    /// Emits a whole object of float values in map order.
    pub fn f64_map(&mut self, map: &BTreeMap<String, f64>) {
        self.begin_object();
        for (k, v) in map {
            self.key(k);
            self.f64(*v);
        }
        self.end_object();
    }

    /// The rendered document.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("b.count".into(), 2);
        snap.counters.insert("a.count".into(), 1);
        snap.gauges.insert("g.speedup".into(), 12.5);
        snap.notes
            .insert("experiment".into(), "demo \"quoted\"".into());
        snap.spans.push(SpanRecord {
            label: "outer".into(),
            parent: None,
            depth: 0,
            thread: 0,
            start_ns: 1_000,
            duration_ns: 5_000_000,
        });
        snap.spans.push(SpanRecord {
            label: "inner".into(),
            parent: Some("outer".into()),
            depth: 1,
            thread: 0,
            start_ns: 2_000,
            duration_ns: 1_000_000,
        });
        snap.sweeps.push(SweepRecord {
            label: "eval-surfaces".into(),
            items: 8,
            workers: 4,
            wall_ns: 3_000_000,
            faults: 0,
            retries: 0,
            poisoned_workers: 0,
        });
        snap
    }

    #[test]
    fn report_has_fixed_section_order_and_sorted_keys() {
        let json = RunReport::from_snapshot(sample_snapshot()).to_json();
        let order = [
            "\"schema_version\"",
            "\"generator\"",
            "\"notes\"",
            "\"counters\"",
            "\"gauges\"",
            "\"spans\"",
            "\"histograms\"",
            "\"sweeps\"",
        ];
        let mut last = 0;
        for section in order {
            let at = json.find(section).unwrap_or_else(|| panic!("{section}"));
            assert!(at > last || last == 0, "section {section} out of order");
            last = at;
        }
        // BTreeMap ordering: a.count before b.count.
        assert!(json.find("a.count").unwrap() < json.find("b.count").unwrap());
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn identical_snapshots_render_identical_reports() {
        let a = RunReport::from_snapshot(sample_snapshot()).to_json();
        let b = RunReport::from_snapshot(sample_snapshot()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn strings_are_escaped() {
        let json = RunReport::from_snapshot(sample_snapshot()).to_json();
        assert!(json.contains(r#""demo \"quoted\"""#), "{json}");
    }

    #[test]
    fn floats_stay_floats_and_non_finite_becomes_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(2.0);
        w.f64(0.1);
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.end_array();
        let out = w.finish();
        assert!(out.contains("2.0"), "{out}");
        assert!(out.contains("0.1"), "{out}");
        assert_eq!(out.matches("null").count(), 2, "{out}");
    }

    #[test]
    fn span_aggregation_counts_min_max() {
        let mut snap = sample_snapshot();
        snap.spans.push(SpanRecord {
            label: "outer".into(),
            parent: None,
            depth: 0,
            thread: 1,
            start_ns: 9_000,
            duration_ns: 7_000_000,
        });
        let json = RunReport::from_snapshot(snap).to_json();
        // Two "outer" spans of 5 ms and 7 ms: count 2, min 5, max 7.
        let outer = json.split("\"outer\"").nth(1).expect("outer section");
        assert!(outer.contains("\"count\": 2"), "{outer}");
        assert!(outer.contains("\"min_ms\": 5.0"), "{outer}");
        assert!(outer.contains("\"max_ms\": 7.0"), "{outer}");
    }

    #[test]
    fn chrome_trace_is_sorted_and_complete() {
        let json = chrome_trace_json(&sample_snapshot());
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        // Events sorted by start time: outer (1 us) before inner (2 us).
        assert!(json.find("\"outer\"").unwrap() < json.find("\"inner\"").unwrap());
        // Microsecond timestamps.
        assert!(json.contains("\"ts\": 1.0"), "{json}");
        assert!(json.contains("\"dur\": 5000.0"), "{json}");
        assert!(json.contains("\"parent\": \"outer\""), "{json}");
    }

    #[test]
    fn empty_snapshot_still_renders_every_section() {
        let json = RunReport::from_snapshot(Snapshot::default()).to_json();
        for section in [
            "notes",
            "counters",
            "gauges",
            "spans",
            "histograms",
            "sweeps",
        ] {
            assert!(json.contains(&format!("\"{section}\"")), "{section}");
        }
        let trace = chrome_trace_json(&Snapshot::default());
        assert!(trace.contains("\"traceEvents\": []"), "{trace}");
    }

    #[test]
    fn write_report_and_trace_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("nm-telemetry-test-report");
        std::fs::create_dir_all(&dir).unwrap();
        let report = RunReport::from_snapshot(sample_snapshot());
        let metrics = dir.join("metrics.json");
        report.write(&metrics).unwrap();
        assert_eq!(
            std::fs::read_to_string(&metrics).unwrap(),
            report.to_json() + "\n"
        );
        let trace = dir.join("trace.json");
        write_chrome_trace(report.snapshot(), &trace).unwrap();
        assert!(std::fs::read_to_string(&trace)
            .unwrap()
            .contains("traceEvents"));
    }
}
