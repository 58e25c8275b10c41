//! Harness-side span recorder.
//!
//! Spans are recorded only in the benchmark's own code, around each
//! call into a layer's public functions; the program itself is not
//! instrumented any further. A span keeps its name, start, end, the
//! span that caused it and a request id, all in memory; the recorder
//! writes them once, at exit, as Chrome trace-event JSON (the format
//! `nmcache --trace-out` writes) and derives each span's self time.
//!
//! The first segment of a span name (`archsim.try_build` -> `archsim`)
//! names the layer the span is charged to. Root spans are named
//! `pass.*`: their self time is the part of the pass no layer span
//! covers, reported as the unattributed remainder.

use nm_telemetry::report::JsonWriter;
use nm_telemetry::{Snapshot, Stopwatch};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Record {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    thread: usize,
}

/// In-memory span store; inert (records nothing) when built disabled.
pub struct Tracer {
    clock: Stopwatch,
    on: bool,
    spans: Mutex<Vec<Record>>,
    /// The program's registry as each pass left it, by pass name.
    passes: Mutex<Vec<(String, Snapshot)>>,
}

/// Open pass: a root span during which the program's own telemetry
/// registry records (traced runs only).
pub struct Pass<'a> {
    span: Span<'a>,
    name: String,
}

impl Pass<'_> {
    /// The id the pass's layer spans pass as their parent.
    pub fn id(&self) -> Option<SpanId> {
        self.span.id
    }
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        let tracer = self.span.tracer;
        if tracer.on {
            let snap = nm_telemetry::drain();
            nm_telemetry::disable();
            tracer
                .passes
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((std::mem::take(&mut self.name), snap));
        }
    }
}

/// Open span; records its end when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
}

impl Span<'_> {
    /// The id children pass as their parent (`None` when tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(SpanId(i)) = self.id {
            let end = self.tracer.now_ns();
            if let Some(r) = self.tracer.lock().get_mut(i) {
                r.end_ns = end;
            }
        }
    }
}

fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// Self time charged to one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Sum of self times of the layer's spans, nanoseconds.
    pub self_ns: u64,
    /// Number of spans charged to the layer.
    pub spans: u64,
}

impl Tracer {
    /// A recorder; `on == false` makes every span a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            clock: Stopwatch::start(),
            on,
            spans: Mutex::new(Vec::new()),
            passes: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Record>> {
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a span named `name` under `parent`, tagged with `request`.
    pub fn span(&self, name: &str, parent: Option<SpanId>, request: u64) -> Span<'_> {
        if !self.on {
            return Span {
                tracer: self,
                id: None,
            };
        }
        let start = self.now_ns();
        let mut spans = self.lock();
        spans.push(Record {
            name: name.to_owned(),
            start_ns: start,
            end_ns: start,
            parent: parent.map(|SpanId(p)| p),
            request,
            thread: thread_index(),
        });
        Span {
            tracer: self,
            id: Some(SpanId(spans.len() - 1)),
        }
    }

    /// Opens the root span of a pass named `name` (`pass.*`) and, when
    /// tracing, turns the program's registry on from empty; closing the
    /// pass keeps what the registry recorded, for reading back by name.
    pub fn pass(&self, name: &str, request: u64) -> Pass<'_> {
        if self.on {
            nm_telemetry::reset();
            nm_telemetry::enable();
        }
        Pass {
            span: self.span(name, None, request),
            name: name.to_owned(),
        }
    }

    /// What the program's registry recorded during each pass named
    /// `name`, in run order.
    pub fn snapshots(&self, name: &str) -> Vec<Snapshot> {
        self.passes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, s)| s.clone())
            .collect()
    }

    /// Every pass's registry contents, in run order.
    pub fn all_snapshots(&self) -> Vec<(String, Snapshot)> {
        self.passes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Top-level spans whose name starts with `prefix`, in start order.
    pub fn roots(&self, prefix: &str) -> Vec<(SpanId, String)> {
        self.lock()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.parent.is_none() && r.name.starts_with(prefix))
            .map(|(i, r)| (SpanId(i), r.name.clone()))
            .collect()
    }

    /// Duration of a finished span in seconds.
    pub fn seconds(&self, SpanId(i): SpanId) -> f64 {
        self.lock()
            .get(i)
            .map_or(0.0, |r| r.end_ns.saturating_sub(r.start_ns) as f64 / 1e9)
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children's intervals cover (children running
    /// in parallel are merged, never counted twice).
    fn self_times(spans: &[Record]) -> Vec<u64> {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for r in spans {
            if let Some(p) = r.parent {
                children.entry(p).or_default().push((r.start_ns, r.end_ns));
            }
        }
        spans
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let dur = r.end_ns.saturating_sub(r.start_ns);
                let Some(kids) = children.get_mut(&i) else {
                    return dur;
                };
                kids.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for &(s, e) in kids.iter() {
                    let (s, e) = (s.max(r.start_ns), e.min(r.end_ns));
                    if e <= s {
                        continue;
                    }
                    cur = match cur {
                        Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                        Some((cs, ce)) => {
                            covered += ce - cs;
                            Some((s, e))
                        }
                        None => Some((s, e)),
                    };
                }
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                dur.saturating_sub(covered)
            })
            .collect()
    }

    /// Self time per layer (first name segment) over the spans that
    /// descend from `root`, `root` itself included under its own layer.
    pub fn layer_times(&self, SpanId(root): SpanId) -> BTreeMap<String, LayerTime> {
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        let spans = self.lock();
        let selfs = Self::self_times(&spans);
        let descends = |mut i: usize| loop {
            if i == root {
                return true;
            }
            match spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        for (i, r) in spans.iter().enumerate() {
            if !descends(i) {
                continue;
            }
            let layer = r.name.split('.').next().unwrap_or("?").to_owned();
            let t = out.entry(layer).or_default();
            t.self_ns += selfs[i];
            t.spans += 1;
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (`"ph": "X"`
    /// events, microsecond timestamps, one `tid` per thread), with the
    /// parent, request id and self time as event arguments.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.lock();
        let selfs = Self::self_times(&spans);
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].start_ns, spans[i].thread, i));
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        for i in order {
            let s = &spans[i];
            w.begin_object();
            w.key("name");
            w.string(&s.name);
            w.key("cat");
            w.string("span");
            w.key("ph");
            w.string("X");
            w.key("ts");
            w.f64(s.start_ns as f64 / 1e3);
            w.key("dur");
            w.f64(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
            w.key("pid");
            w.u64(1);
            w.key("tid");
            w.u64(s.thread as u64 + 1);
            w.key("args");
            w.begin_object();
            if let Some(p) = s.parent {
                w.key("parent");
                w.string(&spans[p].name);
            }
            w.key("request");
            w.u64(s.request);
            w.key("self_us");
            w.f64(selfs[i] as f64 / 1e3);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        std::fs::write(path, w.finish() + "\n")
    }
}

/// Self time per label of the program's own spans in `snaps` (spans
/// the program records in its registry, on whichever thread ran them):
/// each span's duration minus that of its direct children on its
/// thread.
pub fn program_self_times(snaps: &[Snapshot]) -> BTreeMap<String, LayerTime> {
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for snap in snaps {
        let mut spans: Vec<&nm_telemetry::SpanRecord> = snap.spans.iter().collect();
        spans.sort_by_key(|s| (s.thread, s.start_ns, s.depth));
        let mut selfs: Vec<u64> = spans.iter().map(|s| s.duration_ns).collect();
        // Open spans on the current thread: (index, end, depth).
        let mut open: Vec<(usize, u64, usize)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if i > 0 && spans[i - 1].thread != s.thread {
                open.clear();
            }
            while open.last().is_some_and(|&(_, end, _)| end <= s.start_ns) {
                open.pop();
            }
            if let Some(&(p, _, depth)) = open.last() {
                if depth + 1 == s.depth {
                    selfs[p] = selfs[p].saturating_sub(s.duration_ns);
                }
            }
            open.push((i, s.start_ns + s.duration_ns, s.depth));
        }
        for (s, self_ns) in spans.iter().zip(selfs) {
            let t = out.entry(s.label.clone()).or_default();
            t.self_ns += self_ns;
            t.spans += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: u64, end: u64, parent: Option<usize>) -> Record {
        Record {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        let spans = vec![
            rec("pass.x", 0, 100, None),
            rec("eval.a", 10, 40, Some(0)),
            rec("eval.b", 30, 60, Some(0)),
            rec("store.c", 80, 90, Some(0)),
            rec("store.d", 35, 38, Some(1)),
        ];
        let selfs = Tracer::self_times(&spans);
        assert_eq!(selfs, vec![100 - 50 - 10, 27, 30, 10, 3]);
    }

    #[test]
    fn program_self_time_subtracts_direct_children_per_thread() {
        let span = |label: &str, depth, thread, start_ns, duration_ns| nm_telemetry::SpanRecord {
            label: label.into(),
            parent: None,
            depth,
            thread,
            start_ns,
            duration_ns,
        };
        let snap = Snapshot {
            spans: vec![
                span("eval.solve", 0, 0, 0, 100),
                span("eval.front", 1, 0, 10, 60),
                span("eval.ensure_surfaces", 2, 0, 20, 30),
                span("eval.front", 0, 1, 5, 40),
            ],
            ..Snapshot::default()
        };
        let t = program_self_times(&[snap]);
        assert_eq!(t["eval.solve"].self_ns, 40);
        assert_eq!(t["eval.front"].self_ns, 30 + 40);
        assert_eq!(t["eval.front"].spans, 2);
        assert_eq!(t["eval.ensure_surfaces"].self_ns, 30);
    }
}
