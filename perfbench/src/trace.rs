//! In-memory spans recorded from the benchmark's own files around the calls
//! into each layer's public functions.
//!
//! A span has a name, a start and an end (ns since the tracer was made),
//! an optional parent span and the id of the request it belongs to. Spans
//! stay in memory while the workload runs and are written out as JSON
//! lines when it ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.
//!
//! Some children are reconstructed from durations the program reports
//! (for example the per-hop wall times in `QueryStats`): they are laid out
//! back to back from their parent's start, which is all self-time
//! arithmetic needs.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. When off, [`record`](Tracer::record) stores nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id (0 when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns,
        });
        id
    }

    /// Record a span running from `start` to now.
    pub fn finish(&self, name: &'static str, parent: Option<u64>, req: u64, start: Instant) -> u64 {
        let end = Instant::now();
        self.record(name, parent, req, self.ns(start), self.ns(end))
    }

    /// Set the interval of a span recorded before its end was known (so
    /// its children could name it as their parent).
    pub fn set_interval(&self, id: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if let Some(s) = spans.iter_mut().rev().find(|s| s.id == id) {
            s.start_ns = start_ns;
            s.end_ns = end_ns;
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
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

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let cover = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
            (s.name, s.dur_ns() - cover)
        })
        .collect()
}

/// Self times grouped by span name, in ns.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, ns) in self_times(spans) {
        out.entry(name).or_default().push(ns as f64);
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(1, None, 10, 25)]), vec![("s", 15)]);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        let t: Vec<u64> = self_times(&spans).into_iter().map(|x| x.1).collect();
        assert_eq!(t, vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two parallel children covering [10, 40) and [20, 60): union 50.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 20, 60),
        ];
        assert_eq!(self_times(&spans)[0].1, 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child reconstructed from a reported duration may overhang.
        let spans = [span(1, None, 0, 100), span(2, Some(1), 80, 130)];
        assert_eq!(self_times(&spans)[0].1, 80);
        let spans = [span(1, None, 0, 100), span(2, Some(1), 0, 150)];
        assert_eq!(self_times(&spans)[0].1, 0);
    }

    #[test]
    fn grandchildren_only_reduce_their_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 60),
            span(3, Some(2), 10, 50),
        ];
        let t: Vec<u64> = self_times(&spans).into_iter().map(|x| x.1).collect();
        assert_eq!(t, vec![40, 20, 40]);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.record("x", None, 0, 0, 1), 0);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let id = t.record("x", None, 7, 3, 9);
        assert_eq!(t.take(), vec![span_named(id, 7)]);
    }

    fn span_named(id: u64, req: u64) -> Span {
        Span {
            id,
            parent: None,
            name: "x",
            req,
            start_ns: 3,
            end_ns: 9,
        }
    }
}
