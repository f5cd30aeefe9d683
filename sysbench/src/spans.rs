//! Spans recorded by the harness around its calls into each layer.
//!
//! The program has no spans of its own yet, so the boundary of a span is
//! always a public function of one layer, called from this package. Spans
//! stay in memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a request's root.
    pub parent: Option<u32>,
    /// Shared by every span of one request.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; closing it twice or out of order is a bug in
/// the harness and panics.
#[derive(Debug)]
#[must_use]
pub struct Open(Option<u32>);

/// Records nested spans. Disabled, it takes no timestamps at all, which
/// is what lets the same driver measure the tracing overhead.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, one per line.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per span name: how many, their summed duration, and their summed self
/// time (duration minus the part covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p as usize] += s.duration_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        // Children run inside their parent one after another, so they
        // cannot cover more than it; saturate rather than trust that.
        t.self_ns += s.duration_ns().saturating_sub(children_ns[s.id as usize]);
    }
    totals
}

/// Durations of every span called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

/// Whether every span's direct children fit inside it: they start no
/// earlier, end no later, and sum to no more than its duration.
pub fn children_fit(spans: &[Span]) -> bool {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return false;
            }
            children_ns[p as usize] += s.duration_ns();
        }
    }
    spans.iter().all(|s| children_ns[s.id as usize] <= s.duration_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, request: 7, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "parse", 5, 15),
            span(2, Some(0), "submit", 20, 90),
            span(3, Some(2), "stage", 60, 80),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["request"], NameTotals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["submit"], NameTotals { count: 1, total_ns: 70, self_ns: 50 });
        assert_eq!(t["stage"].self_ns, 20);
        assert_eq!(
            t.values().map(|n| n.self_ns).sum::<u64>(),
            100,
            "self times partition the root"
        );
        assert!(children_fit(&spans));
        assert_eq!(durations_ns(&spans, "parse"), vec![10.0]);
    }

    #[test]
    fn an_escaping_child_is_caught() {
        let spans = vec![span(0, None, "request", 10, 20), span(1, Some(0), "parse", 15, 25)];
        assert!(!children_fit(&spans));
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.enter("request", 1);
        let child = t.enter("parse", 1);
        t.exit(child);
        t.exit(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(children_fit(t.spans()));
        let mut text = Vec::new();
        t.write_to(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"request\":1,\"name\":\"request\""));

        let mut off = Tracer::new(false);
        let root = off.enter("request", 1);
        off.exit(root);
        assert!(off.spans().is_empty());
    }
}
