//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public functions, on one thread. A span's parent is the span
//! open when it started; a request is the top-level span it descends from.
//! Everything stays in memory until [`Tracer::write_jsonl`] at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// The top-level span this one descends from (itself when top-level).
    pub request: usize,
    /// Layer-qualified name, such as `predictor.observe`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time aggregated over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans of the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans, nanoseconds.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` records become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let request = parent.map_or(id, |p| self.spans[p].request);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        value
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).collect()
    }

    /// Mean duration of the spans named `name`, in microseconds (0 when
    /// there are none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let durations = self.durations(name);
        if durations.is_empty() {
            return 0.0;
        }
        durations.iter().sum::<u64>() as f64 / durations.len() as f64 / 1e3
    }

    /// Per-span self time: duration minus the time covered by children.
    /// Children of one span never overlap (one thread records them in
    /// sequence), so the covered time is the sum of their durations.
    pub fn self_ns(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.duration_ns())).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= i128::from(span.duration_ns());
            }
        }
        own
    }

    /// Self time aggregated by span name, sorted by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let row = table.entry(span.name).or_default();
            row.count += 1;
            row.total_ns += span.duration_ns();
            row.self_ns += u64::try_from(own).unwrap_or(0);
        }
        table
    }

    /// Checks the span tree: every span is closed, lies inside its parent,
    /// belongs to its parent's request, does not overlap its siblings, and
    /// has a non-negative self time.
    ///
    /// # Errors
    /// Describes the first violation.
    pub fn check_well_formed(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} spans still open", self.open.len()));
        }
        let mut last_child_end: Vec<Option<u64>> = vec![None; self.spans.len()];
        let mut last_root_end: Option<u64> = None;
        for span in &self.spans {
            if span.end_ns < span.start_ns {
                return Err(format!("span {} ({}) ends before it starts", span.id, span.name));
            }
            let previous_end = match span.parent {
                Some(p) => {
                    let parent = &self.spans[p];
                    if p >= span.id
                        || span.start_ns < parent.start_ns
                        || span.end_ns > parent.end_ns
                    {
                        return Err(format!(
                            "span {} ({}) escapes its parent {p}",
                            span.id, span.name
                        ));
                    }
                    if span.request != parent.request {
                        return Err(format!("span {} changed request", span.id));
                    }
                    last_child_end[p].replace(span.end_ns)
                }
                None => {
                    if span.request != span.id {
                        return Err(format!("top-level span {} has a foreign request", span.id));
                    }
                    last_root_end.replace(span.end_ns)
                }
            };
            if previous_end.is_some_and(|end| end > span.start_ns) {
                return Err(format!("span {} ({}) overlaps its sibling", span.id, span.name));
            }
        }
        match self.self_ns().iter().position(|&own| own < 0) {
            Some(id) => Err(format!("span {id} has negative self time")),
            None => Ok(()),
        }
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.id, span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_form_a_tree_with_self_times() {
        let mut tracer = Tracer::new();
        tracer.span("outer", |t| {
            busy(50);
            t.span("inner", |t| {
                busy(50);
                t.span("leaf", |_| busy(20));
            });
            t.span("inner", |_| busy(30));
        });
        tracer.span("second", |_| busy(10));
        tracer.check_well_formed().unwrap();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].request, 0);
        assert_eq!(spans[4].request, 4);
        let table = tracer.self_times();
        assert_eq!(table["inner"].count, 2);
        let outer = table["outer"];
        assert!(outer.self_ns >= 50_000 && outer.self_ns < outer.total_ns);
        let inner_total: u64 = tracer.durations("inner").iter().sum();
        assert_eq!(outer.total_ns - outer.self_ns, inner_total);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let mut tracer = Tracer::new();
        tracer.span("a", |t| t.span("b", |_| busy(5)));
        tracer.spans[1].end_ns = tracer.spans[0].end_ns + 1;
        assert!(tracer.check_well_formed().is_err());
    }
}
