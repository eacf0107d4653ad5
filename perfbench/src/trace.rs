//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a layer, start and end times, the span that caused it
//! and the id of the client request it belongs to. Spans nest per thread: a
//! span opened while another is open on the same thread is its child. Spans
//! opened on engine threads (committer, I/O pool, defragmenter, server
//! sessions) have no open parent and are kept as unparented spans of their
//! layer. Spans are kept in memory and written out when the run ends.
//!
//! Recording is off unless [`enable`] was called; a disabled [`span`] costs
//! one atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layers a span can belong to, named after the repository's modules
/// (`client` is the benchmark's own request loop).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Client,
    Serve,
    Core,
    Storage,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Serve => "serve",
            Layer::Core => "core",
            Layer::Storage => "storage",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    /// Open spans on this thread, innermost last: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, Option<u64>)>> = const { RefCell::new(Vec::new()) };
}

/// Start recording spans (clears any kept from an earlier phase).
pub fn enable() {
    epoch();
    SPANS.lock().expect("span store poisoned").clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop recording and hand back every span recorded since [`enable`].
pub fn disable() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct SpanGuard {
    open: Option<Span>,
}

/// Open a span on this thread. Its parent is the innermost open span of
/// this thread, and it inherits that span's request id.
pub fn span(layer: Layer, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.last().copied();
        let request = top.and_then(|(_, r)| r);
        s.push((id, request));
        (top.map(|(p, _)| p), request)
    });
    SpanGuard {
        open: Some(Span {
            id,
            parent,
            request,
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

/// Open the root span of one client request; its id is the request id.
pub fn request(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, Some(id))));
    SpanGuard {
        open: Some(Span {
            id,
            parent: None,
            request: Some(id),
            layer: Layer::Client,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(mut span) = self.open.take() else {
            return;
        };
        span.end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|(open, _)| *open == span.id) {
                s.truncate(pos);
            }
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Per-layer totals of a trace.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    /// Spans of this layer with a parent (or request roots).
    pub spans: u64,
    /// Span time minus the time covered by child spans, for spans that
    /// belong to a request.
    pub self_ns: u64,
    /// Total time of spans recorded on engine threads (no parent).
    pub unparented_ns: u64,
    pub unparented_spans: u64,
}

/// Self time by layer, plus the durations of spans grouped by name.
pub struct Summary {
    pub layers: Vec<(Layer, LayerTime)>,
    pub durations: HashMap<&'static str, Vec<u64>>,
    pub total_spans: usize,
}

impl Summary {
    pub fn layer(&self, layer: Layer) -> LayerTime {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, t)| t.clone())
            .unwrap_or_default()
    }

    /// Median duration of the spans named `name`, in microseconds (0 when
    /// the run made no such call).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .map(|d| crate::stats::percentile_ns(d, 0.50) / 1e3)
            .unwrap_or(0.0)
    }
}

/// Compute self time per layer: a span's duration minus the union of its
/// children's intervals.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut layers: HashMap<Layer, LayerTime> = HashMap::new();
    let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in spans {
        durations.entry(s.name).or_default().push(s.duration_ns());
        let t = layers.entry(s.layer).or_default();
        if s.parent.is_none() && s.request.is_none() {
            t.unparented_spans += 1;
            t.unparented_ns += s.duration_ns();
            continue;
        }
        t.spans += 1;
        let covered = children
            .get_mut(&s.id)
            .map(|c| covered_ns(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    let mut layers: Vec<(Layer, LayerTime)> = layers.into_iter().collect();
    layers.sort_by_key(|(l, _)| *l);
    Summary {
        layers,
        durations,
        total_spans: spans.len(),
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(start), b.min(end));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

/// Write spans as tab-separated lines:
/// `id parent request layer name start_ns end_ns` (`-` for none).
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tlayer\tname\tstart_ns\tend_ns")?;
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            opt(s.parent),
            opt(s.request),
            s.layer.name(),
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        let mut c = vec![(10, 20), (15, 30), (40, 50), (45, 60)];
        assert_eq!(covered_ns(&mut c, 0, 55), 20 + 15);
    }
}
