//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer —
//! never inside the library — kept in memory, and written out once at the
//! end.  Each span has a name, a start and end (nanoseconds since the
//! recorder was created), the index of the span that caused it, and the
//! request it belongs to.  A layer's **self time** is its span's duration
//! minus the part covered by its direct children; spans nest strictly
//! (one thread, stack discipline), so children never overlap each other.
//!
//! A disabled recorder runs the same closures and records nothing, so the
//! untraced replay executes exactly the traced code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `core.gsum.update_batch`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A tracer that runs span bodies without recording them.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Set the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Run `body` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return body(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = body(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a finished span directly.  Returns its index.
    #[cfg(test)]
    fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in opening order: its duration minus the
    /// durations of its direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Per layer name: (span count, total duration, total self time), ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Durations (ns) of every span named `name`, in opening order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Write the spans as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Totals for one layer name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        // root [0, 100) ⊃ a [10, 40) ⊃ a1 [15, 25); root ⊃ b [50, 90).
        let root = t.record("root", 0, 100, None, 7);
        let a = t.record("a", 10, 40, Some(root), 7);
        t.record("a1", 15, 25, Some(a), 7);
        t.record("b", 50, 90, Some(root), 7);
        assert_eq!(t.self_times_ns(), vec![30, 20, 10, 40]);
        // Self times tile the root exactly.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
        let by = t.by_name();
        assert_eq!(by["a"].self_ns, 20);
        assert_eq!(by["a"].total_ns, 30);
        assert_eq!(by["root"].count, 1);
    }

    #[test]
    fn closure_spans_nest_and_carry_the_request() {
        let mut t = Tracer::new();
        t.set_request(3);
        let v = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(2 + 2)) + t.span("inner", |_| 1)
        });
        assert_eq!(v, 5);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3));
        let self_times = t.self_times_ns();
        assert_eq!(
            self_times.iter().sum::<u64>(),
            spans[0].duration_ns(),
            "self times of a closed tree sum to the root's duration"
        );
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_runs_bodies_without_recording() {
        let mut t = Tracer::disabled();
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }
}
