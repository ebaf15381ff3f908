//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API;
//! nothing inside the simulator is instrumented. Spans stay in memory
//! until the run ends and are then written out in one piece.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_until`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Units of work done inside the span (calls, events, tests, ...).
    pub count: u64,
}

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Default)]
pub struct LayerTotal {
    /// Number of spans.
    pub spans: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
    /// Sum of the spans' work counts.
    pub count: u64,
}

/// Records spans against one monotonic epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder with no spans.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1024),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`, charging it
    /// `count` units of work. Returns its duration in nanoseconds.
    pub fn end(&mut self, idx: usize, count: u64) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.count = count;
        end_ns - span.start_ns
    }

    /// Per-name totals, in first-seen order.
    pub fn totals(&self) -> Vec<(&'static str, LayerTotal)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, LayerTotal)> = Vec::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let pos = match out.iter().position(|(n, _)| *n == s.name) {
                Some(p) => p,
                None => {
                    out.push((s.name, LayerTotal::default()));
                    out.len() - 1
                }
            };
            let t = &mut out[pos].1;
            t.spans += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
            t.count += s.count;
        }
        out
    }

    /// Renders every span and the per-name totals as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.count
            );
        }
        out.push_str("],\"layers\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"spans\":{},\"total_ns\":{},\"self_ns\":{},\"count\":{}}}",
                t.spans, t.total_ns, t.self_ns, t.count
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, 3);
        t.end(outer, 1);
        let totals = t.totals();
        let (_, o) = &totals[0];
        let (_, i) = &totals[1];
        assert_eq!(i.count, 3);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
    }
}
