//! The span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions.  They are kept in memory and written out as
//! JSON lines when the run ends; the per-layer metrics are computed from
//! them.  A disarmed recorder costs one branch per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span: `[start, end)` in nanoseconds since the recorder
/// started, the span that caused it and the operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sql.plan`.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The operation this span belongs to (0 = set-up).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder shared by every benchmark thread.
pub struct Tracer {
    armed: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    ops: AtomicU64,
}

impl Tracer {
    /// A recorder; `armed = false` records nothing.
    pub fn new(armed: bool) -> Tracer {
        Tracer {
            armed,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ops: AtomicU64::new(0),
        }
    }

    /// A fresh operation id (ids start at 1; 0 is the set-up).
    pub fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether spans are being recorded.
    pub fn armed(&self) -> bool {
        self.armed
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no benchmark thread panics while recording a span")
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.armed {
            return None;
        }
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start,
            end: 0,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now();
            self.lock()[id].end = end;
        }
    }

    /// Record `f` as one span.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, op);
        let result = f();
        self.end(id);
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Per-name aggregates over a span list: every duration and every self
/// time (duration minus the time covered by the span's children).
#[derive(Debug, Default)]
pub struct SpanTable {
    /// Durations in ns, by span name.
    pub durations: BTreeMap<String, Vec<f64>>,
    /// Self times in ns, by span name.
    pub self_times: BTreeMap<String, Vec<f64>>,
}

impl SpanTable {
    /// Aggregate `spans`.
    pub fn new(spans: &[Span]) -> SpanTable {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut table = SpanTable::default();
        for (s, children) in spans.iter().zip(child_ns) {
            table
                .durations
                .entry(s.name.clone())
                .or_default()
                .push(s.nanos() as f64);
            table
                .self_times
                .entry(s.name.clone())
                .or_default()
                .push(s.nanos().saturating_sub(children) as f64);
        }
        table
    }

    /// Median duration of `name` in `unit_ns` units (0 when never seen).
    pub fn median(&self, name: &str, unit_ns: f64) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v) / unit_ns)
    }

    /// Summed duration of `name` in `unit_ns` units (0 when never seen).
    pub fn total(&self, name: &str, unit_ns: f64) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / unit_ns)
    }

    /// Summed self time of `name` in `unit_ns` units.
    pub fn self_total(&self, name: &str, unit_ns: f64) -> f64 {
        self.self_times
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / unit_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root".into(),
                start: 0,
                end: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "a".into(),
                start: 10,
                end: 40,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "b".into(),
                start: 50,
                end: 70,
                parent: Some(0),
                op: 1,
            },
        ];
        let table = SpanTable::new(&spans);
        assert_eq!(table.self_total("root", 1.0), 50.0);
        assert_eq!(table.total("a", 1.0), 30.0);
        assert_eq!(table.median("missing", 1.0), 0.0);
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, 0, || 7), 7);
        assert!(tracer.spans().is_empty());
        let armed = Tracer::new(true);
        let root = armed.begin("root", None, 3);
        armed.span("child", root, 3, || ());
        armed.end(root);
        let spans = armed.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}
