//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded only in the traced pass; the untraced pass carries a
//! disabled [`Tracer`] whose `enter`/`exit` do nothing, so both passes run
//! the same workload code.  Spans stay in memory and are written out once,
//! when the run ends.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.  Times are nanoseconds since the
/// tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The iteration the span belongs to: spans of one iteration share it.
    pub iteration: u32,
    /// Heap allocations made while the span was open (children included).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    iteration: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host nanoseconds of every `step_round()` call of the traced pass,
    /// timed from outside the engine.
    pub round_ns: Vec<f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            iteration: 0,
            // Room up front, so that recording a span or a round allocates
            // nothing inside the region it measures.
            spans: Vec::with_capacity(if enabled { 1 << 10 } else { 0 }),
            open: Vec::with_capacity(if enabled { 16 } else { 0 }),
            round_ns: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
            allocs: alloc::snapshot().allocs,
        });
        self.open.push(id);
        // Read the clock last, so the tracer's own bookkeeping stays outside.
        self.spans[id].start_ns = self.now_ns();
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = alloc::snapshot().allocs - span.allocs;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    /// Total duration and allocations of every span called `name`, over all
    /// iterations.
    pub fn total(&self, name: &str) -> SpanTotal {
        let mut total = SpanTotal::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            total.count += 1;
            total.duration_ns += span.duration_ns();
            total.allocs += span.allocs;
        }
        total
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"iteration\": {}, \"self_ns\": {own}, \"allocs\": {}}}",
                s.name, s.start_ns, s.end_ns, s.iteration, s.allocs
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    pub count: u64,
    pub duration_ns: u64,
    pub allocs: u64,
}

impl SpanTotal {
    pub fn seconds(&self) -> f64 {
        self.duration_ns as f64 / 1e9
    }
}

/// A span's self time is its duration minus its children's durations (the
/// harness is single-threaded, so the children of one span never overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// For every span called `parent_name`, the share of its duration its
/// direct children leave uncovered; the worst one is returned.  The traced
/// pass checks this against the 5 % the benchmark promises.
pub fn worst_uncovered_share(spans: &[Span], parent_name: &str) -> f64 {
    let own = self_times(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == parent_name && s.duration_ns() > 0)
        .map(|(s, own)| own as f64 / s.duration_ns() as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iteration: 0,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // iteration [0,100) holds build [0,30) and run [30,90); run holds two
        // sibling rounds [30,50) and [50,80).
        let spans = vec![
            span("iteration", 0, 100, None),
            span("build", 0, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("round", 30, 50, Some(2)),
            span("round", 50, 80, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 30, 10, 20, 30]);
        // Only direct children count against a parent: the rounds are not
        // subtracted from the iteration a second time.
        assert!((worst_uncovered_share(&spans, "iteration") - 0.10).abs() < 1e-12);
        assert!((worst_uncovered_share(&spans, "run") - 10.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_links_parents_and_iterations() {
        let mut t = Tracer::new(true);
        t.set_iteration(3);
        let outer = t.enter("outer");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        t.exit(b);
        t.exit(outer);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(t.spans().iter().all(|s| s.iteration == 3));
        let outer = &t.spans()[0];
        assert!(outer.start_ns <= t.spans()[1].start_ns && t.spans()[2].end_ns <= outer.end_ns);
        assert_eq!(t.total("a").count, 1);
        assert!(t.to_json().contains("\"name\": \"b\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x");
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
