//! The benchmark's own span recorder. Spans are opened by this crate around
//! its calls into each layer's public functions; where one call hides
//! another layer's work, the program's existing telemetry spans are read
//! back and recorded as that span's children. Nothing is recorded unless
//! tracing is on for the thread, and spans stay in memory until the run
//! writes them out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u32,
}

#[derive(Default)]
struct Tracer {
    on: bool,
    thread: u32,
    request: u64,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on or off for this thread (and, with it, the program's
/// telemetry, which is also per thread).
pub fn set_enabled(on: bool, thread: u32) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = on;
        t.thread = thread;
    });
    qdd_telemetry::set_enabled(on);
    if on {
        qdd_telemetry::reset();
        let _ = qdd_telemetry::drain_events();
    }
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().on)
}

/// Tags the spans opened from now on with an operation (request) id.
pub fn set_request(id: u64) {
    TRACER.with(|t| t.borrow_mut().request = id);
}

pub struct Guard(Option<usize>);

/// Opens a span; it closes when the guard drops.
pub fn span(name: &str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard(None);
        }
        let idx = t.spans.len();
        let rec = SpanRec {
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent: t.stack.last().copied(),
            request: t.request,
            thread: t.thread,
        };
        t.spans.push(rec);
        t.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                t.spans[idx].end_ns = end;
                t.stack.pop();
            });
        }
    }
}

/// Times `f` under a span named `name`.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Records a child of the innermost open span that lasted `dur_ns`, placed
/// at that span's start: how work measured elsewhere (the program's own
/// telemetry, a daemon's reply) enters the tree.
pub fn child(name: &str, dur_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on || dur_ns == 0 {
            return;
        }
        let parent = t.stack.last().copied();
        let start = parent.map_or_else(now_ns, |p| t.spans[p].start_ns);
        let rec = SpanRec {
            name: name.to_string(),
            start_ns: start,
            end_ns: start + dur_ns,
            parent,
            request: t.request,
            thread: t.thread,
        };
        t.spans.push(rec);
    });
}

/// Reads back the program's telemetry spans recorded on this thread since
/// the last call and records, as children of the innermost open span, the
/// outermost program span of each layer named in `layers` (for example
/// `core.apply_gate`, which contains `core.gate_dd` and `core.mat_vec`).
/// Returns the program's per-name span totals (all depths) in nanoseconds.
pub fn absorb_program_spans(layers: &[&str]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    if !enabled() {
        return totals;
    }
    let mut events: Vec<_> = qdd_telemetry::drain_events()
        .into_iter()
        .filter(|e| e.dur_us.is_some())
        .collect();
    // Events are pushed as spans close; order by start, parents first.
    events.sort_by_key(|e| (e.ts_us, e.depth));
    // Open program spans as (depth, counted-layer) pairs.
    let mut open: Vec<(u16, bool)> = Vec::new();
    for e in &events {
        while open.last().is_some_and(|&(d, _)| d >= e.depth) {
            open.pop();
        }
        let dur_ns = e.dur_us.unwrap_or(0) * 1_000;
        *totals.entry(e.name).or_insert(0) += dur_ns;
        let layer = e.name.split('.').next().unwrap_or("");
        let counted = layers.contains(&layer);
        let inside_counted = open.iter().any(|&(_, c)| c);
        if counted && !inside_counted {
            child(e.name, dur_ns);
        }
        open.push((e.depth, counted || inside_counted));
    }
    totals
}

/// Takes this thread's finished spans.
pub fn take() -> Vec<SpanRec> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        std::mem::take(&mut t.spans)
    })
}

/// Moves `src` (one thread's spans) to the end of `dst`, keeping parent
/// links.
pub fn append(dst: &mut Vec<SpanRec>, src: Vec<SpanRec>) {
    let offset = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Self time per layer (the span name up to its first dot): each span's
/// duration minus the part its children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<String, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let layer = s.name.split('.').next().unwrap_or("").to_string();
        *out.entry(layer).or_insert(0) += s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
    }
    out
}

/// Total duration of the spans named `name`.
pub fn total_ns(spans: &[SpanRec], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum()
}

/// The spans as JSON lines: name, start, end, parent, request id, thread.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request, s.thread
        );
    }
    out
}
