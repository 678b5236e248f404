//! The benchmark's own span recorder for traced runs.
//!
//! Spans are recorded around each call the benchmark makes into a layer:
//! name, start, end, parent and the session they belong to. They stay in
//! memory and are written out when the run ends. With tracing off nothing
//! is recorded, but call sites still get their elapsed time back.

use lt_common::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Session the work belongs to (0 for run-level work).
    pub session: u64,
    /// Layer call, e.g. `http.submit` or `compress.solve`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Recorder; records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a parent span recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f`, records it as span `name`, and returns its result with its
    /// duration in milliseconds.
    pub fn time<T>(
        &self,
        name: &'static str,
        session: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record_with_id(None, name, session, parent, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Records a span measured by the caller; `id` is a reserved id or
    /// `None` for a fresh one.
    pub fn record_with_id(
        &self,
        id: Option<u64>,
        name: &'static str,
        session: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            id: id.unwrap_or_else(|| self.reserve()),
            parent,
            session,
            name,
            start: (start - self.origin).as_secs_f64(),
            end: (end - self.origin).as_secs_f64(),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span recorder poisoned").len()
    }

    /// The recorded spans as a JSON document.
    pub fn to_json(&self) -> Value {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let rows = spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::from(s.id)),
                    (
                        "parent".into(),
                        s.parent.map(Value::from).unwrap_or(Value::Null),
                    ),
                    ("session".into(), Value::from(s.session)),
                    ("name".into(), Value::from(s.name)),
                    ("start_s".into(), Value::from(s.start)),
                    ("end_s".into(), Value::from(s.end)),
                ])
            })
            .collect();
        Value::Array(rows)
    }
}

/// Measured cost of recording one span, in milliseconds.
pub fn span_cost_ms() -> f64 {
    const N: usize = 20_000;
    let probe = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        probe.time("probe", i as u64, None, || ());
    }
    start.elapsed().as_secs_f64() * 1e3 / N as f64
}
