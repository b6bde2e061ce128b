//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into a SPECTRE layer in a
//! span (layer name, start, end, parent span). Spans stay in memory and
//! are written out once, when the run ends. A layer's self time is the
//! duration of its spans minus the part of each span that its child spans
//! cover, so the self times of all layers plus the uncovered remainder of
//! the root span add up to the run's wall time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of a recorded span; [`ROOT`] is the parent of top-level spans.
pub type SpanId = u64;

/// The implicit parent of spans opened without one.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id so children can name it before it closes.
    pub fn open(&self) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the reserved span `id` as running from `start` to now.
    pub fn close(&self, id: SpanId, parent: SpanId, layer: &'static str, start: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(Instant::now()),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Records a leaf span measured elsewhere (e.g. on another thread).
    pub fn record(&self, parent: SpanId, layer: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: self.open(),
            parent,
            layer,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a leaf span of `layer` under `parent`.
    pub fn span<R>(&self, parent: SpanId, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open();
        let start = Instant::now();
        let out = f();
        self.close(id, parent, layer, start);
        out
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time in seconds per layer over span `root` and its
    /// descendants ([`ROOT`] for every span).
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: BTreeMap<SpanId, Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut stack: Vec<usize> = match spans.iter().position(|s| s.id == root) {
            Some(i) => vec![i],
            None => children.get(&root).cloned().unwrap_or_default(),
        };
        while let Some(i) = stack.pop() {
            let s = &spans[i];
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or_default();
            let intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start_ns, spans[k].end_ns))
                .collect();
            let covered = union_within(&intervals, s.start_ns, s.end_ns);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer).or_default() += own as f64 / 1e9;
            stack.extend_from_slice(kids);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`. Children on
/// other threads may overlap each other; the union counts shared time once.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::union_within;

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(union_within(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_within(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_within(&[], 0, 10), 0);
    }
}
