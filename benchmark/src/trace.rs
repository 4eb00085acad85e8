//! In-memory spans recorded around the benchmark's calls into each crate.
//!
//! Tracing is off unless a traced run switches it on; a span then costs
//! two clock reads and one push under a mutex. Spans of one operation
//! share its `op` id, and `parent` names the span that caused them. The
//! spans are written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(origin()).as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    origin();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Records `[start, end]` under `name` when tracing is on.
pub fn record(name: &'static str, parent: &'static str, op: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let span = Span {
        name,
        parent,
        op,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Runs `f`, recording it as a span when tracing is on.
pub fn span<T>(name: &'static str, parent: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(name, parent, op, start, Instant::now());
    out
}

/// Durations (ms) of every recorded span called `name`.
pub fn durations_ms(name: &str) -> Vec<f64> {
    SPANS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// A copy of every recorded span.
pub fn all() -> Vec<Span> {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Writes every span as one JSON object per line.
pub fn write_out(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in all() {
        writeln!(
            f,
            r#"{{"name":"{}","parent":"{}","op":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.parent, s.op, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}
