//! The benchmark's own spans: recorded around the calls it makes into
//! each layer, kept in memory, and folded into per-layer self times when
//! a traced pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: name, start, end, the span that caused it, and the
/// query it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub query: u64,
}

/// Records nested spans for one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    query: u64,
}

/// Per-name totals of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// Span duration minus the part its child spans cover, summed (ns).
    pub self_ns: u64,
    /// Longest single span (ns).
    pub max_ns: u64,
    pub calls: u64,
}

impl Tracer {
    /// Spans opened from now on belong to `query`.
    pub fn set_query(&mut self, query: u64) {
        self.query = query;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            query: self.query,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close span `idx` and any span still open inside it.
    pub fn end(&mut self, idx: usize) {
        let now = Instant::now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == idx {
                break;
            }
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// `(query, duration ns)` of the longest span named `name`.
    pub fn slowest(&self, name: &str) -> Option<(u64, u64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.query, s.end.duration_since(s.start).as_nanos() as u64))
            .max_by_key(|&(_, ns)| ns)
    }

    /// Fold the recorded spans into per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let dur = |s: &Span| s.end.duration_since(s.start).as_nanos() as u64;
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += dur(s).saturating_sub(covered);
            t.max_ns = t.max_ns.max(dur(s));
            t.calls += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_spans_carry_query_and_parent() {
        let mut t = Tracer::default();
        t.set_query(3);
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        assert_eq!(t.spans[child].parent, Some(root));
        let totals = t.totals();
        assert!(totals["child"].self_ns >= 2_000_000);
        assert!(totals["root"].self_ns < totals["child"].self_ns);
        let (query, ns) = t.slowest("root").unwrap();
        assert_eq!((query, ns), (3, totals["root"].max_ns));
    }

    #[test]
    fn ending_a_parent_closes_open_children() {
        let mut t = Tracer::default();
        let root = t.begin("root");
        t.begin("left_open");
        t.end(root);
        let next = t.begin("next");
        assert_eq!(t.spans[next].parent, None);
    }
}
