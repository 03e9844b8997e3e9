//! Spans recorded around calls into the simulator's layers, kept in
//! memory and written out when the run ends, with the self-time
//! arithmetic the per-layer metrics rest on.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer (module) name, e.g. `core.engine`.
    pub layer: &'static str,
    /// Operation within the layer, e.g. `admit`.
    pub op: &'static str,
    /// Identifier shared by the spans of one request (its index in the
    /// pass); 0 for spans that belong to no single request.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Free-form tag: the hit class of an admission.
    pub tag: &'static str,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log against one epoch.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Recorder {
    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`]. The clock is
    /// read after the span is stored, so a store that grows the log or
    /// touches a fresh page is not billed to the layer.
    pub fn open(
        &mut self,
        layer: &'static str,
        op: &'static str,
        id: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { layer, op, id, parent, start_ns: 0, end_ns: 0, tag: "" });
        let i = self.spans.len() - 1;
        let now = self.now();
        self.spans[i].start_ns = now;
        self.spans[i].end_ns = now;
        i
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn since(
        &mut self,
        layer: &'static str,
        op: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
    ) -> usize {
        let i = self.open(layer, op, id, parent);
        self.spans[i].start_ns = start_ns.min(self.spans[i].end_ns);
        i
    }

    /// Closes span `i` now.
    pub fn close(&mut self, i: usize) {
        self.spans[i].end_ns = self.now().max(self.spans[i].start_ns);
    }

    /// Tags span `i`.
    pub fn tag(&mut self, i: usize, tag: &'static str) {
        self.spans[i].tag = tag;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as CSV, one per line, with each span's self time.
    pub fn to_csv(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut s = String::from("index,layer,op,id,parent,start_ns,end_ns,self_ns,tag\n");
        for (i, (span, own)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{i},{},{},{},{parent},{},{},{own},{}",
                span.layer, span.op, span.id, span.start_ns, span.end_ns, span.tag
            );
        }
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to their parent and
/// overlapping children are counted once, so a self time is never
/// negative and the self times of a tree sum to its root's duration.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans.iter().zip(children.iter_mut()).map(|(s, kids)| s.duration_ns() - covered(kids)).collect()
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { layer: "l", op: "o", id: 0, parent, start_ns, end_ns, tag: "" }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60); grandchild
        // [12,20) inside the first child.
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn children_never_exceed_their_parent() {
        // Overlapping children and one that spills past the parent's end
        // cover [10,120) ∩ [0,100) = 90 ns once, not 150 ns.
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 90, Some(0)),
            span(80, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 10);
        let root_total: u64 = selfs[0] + 90;
        assert_eq!(root_total, spans[0].duration_ns());
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let spans = vec![
            span(0, 1_000, None),
            span(100, 400, Some(0)),
            span(150, 200, Some(1)),
            span(500, 900, Some(0)),
            span(600, 700, Some(3)),
            span(650, 660, Some(4)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn recorder_spans_nest_and_export() {
        let mut r = Recorder::default();
        let root = r.open("core.engine", "pass", 0, None);
        let child = r.open("core.hiergd", "admit", 7, Some(root));
        r.tag(child, "proxy");
        r.close(child);
        r.close(root);
        let spans = r.spans();
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        let csv = r.to_csv();
        assert!(csv.lines().nth(2).unwrap().starts_with("1,core.hiergd,admit,7,0,"));
        assert!(csv.lines().nth(2).unwrap().ends_with(",proxy"));
    }
}
