//! In-memory spans recorded by the benchmark around its calls into
//! each layer's public functions. The program itself carries no
//! tracing: every span here is opened and closed in benchmark code.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `engine.decide`.
    pub name: &'static str,
    /// The request (input index) this span served.
    pub request: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing layer's span for the same request.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A growable span log with a shared epoch.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            request,
            start_ns,
            end_ns,
            parent: None,
        });
        (out, end_ns - start_ns)
    }

    /// Appends an already-timed span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Appends spans timed elsewhere against the same epoch.
    pub fn extend(&mut self, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans);
    }

    /// Recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Links each span to the span of its enclosing layer on the same
    /// request. `parent_of` names the enclosing layer for a layer. The
    /// layers are timed in separate replays of the same inputs, so the
    /// link is by request and layer, not by time containment.
    pub fn link(&mut self, parent_of: impl Fn(&str) -> Option<&'static str>) {
        let mut by_key = std::collections::HashMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            by_key.entry((span.name, span.request)).or_insert(index);
        }
        for span in &mut self.spans {
            span.parent = parent_of(span.name)
                .and_then(|parent| by_key.get(&(parent, span.request)).copied());
        }
    }

    /// Per-request self time of `layer`: its duration minus the
    /// durations of the named child layers on the same request.
    /// Requests missing any of the spans are skipped.
    #[must_use]
    pub fn self_times(&self, layer: &str, children: &[&str]) -> Vec<f64> {
        let mut by_request: std::collections::BTreeMap<u64, (Option<u64>, Vec<Option<u64>>)> =
            std::collections::BTreeMap::new();
        for span in &self.spans {
            let entry = by_request
                .entry(span.request)
                .or_insert_with(|| (None, vec![None; children.len()]));
            if span.name == layer && entry.0.is_none() {
                entry.0 = Some(span.nanos());
            } else if let Some(slot) = children.iter().position(|child| *child == span.name) {
                if entry.1[slot].is_none() {
                    entry.1[slot] = Some(span.nanos());
                }
            }
        }
        by_request
            .values()
            .filter_map(|(own, kids)| {
                let own = (*own)? as f64;
                let kids: Option<Vec<u64>> = kids.iter().copied().collect();
                Some(own - kids?.iter().sum::<u64>() as f64)
            })
            .collect()
    }

    /// Durations of every span named `layer`, in nanoseconds.
    #[must_use]
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == layer)
            .map(|span| span.nanos() as f64)
            .collect()
    }

    /// The spans as JSON lines: `{"id","name","request","start_ns",
    /// "end_ns","parent"}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","request":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                span.name, span.request, span.start_ns, span.end_ns
            );
        }
        out
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, request: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request,
            start_ns,
            end_ns,
            parent: None,
        }
    }

    #[test]
    fn self_time_subtracts_children_per_request_and_links_parents() {
        let mut recorder = Recorder::new();
        recorder.extend([
            span("outer", 0, 0, 100),
            span("inner", 0, 10, 40),
            span("echo", 0, 50, 70),
            span("outer", 1, 200, 260),
            span("inner", 1, 210, 220),
            // Request 2 lacks its `echo` span and is skipped.
            span("outer", 2, 300, 400),
            span("inner", 2, 300, 310),
        ]);
        assert_eq!(recorder.self_times("outer", &["inner", "echo"]), vec![50.0]);
        assert_eq!(
            recorder.self_times("outer", &["inner"]),
            vec![70.0, 50.0, 90.0]
        );
        recorder.link(|name| (name != "outer").then_some("outer"));
        assert_eq!(recorder.spans()[1].parent, Some(0));
        assert_eq!(recorder.spans()[4].parent, Some(3));
        assert_eq!(recorder.spans()[0].parent, None);
        let jsonl = recorder.to_jsonl();
        assert_eq!(jsonl.lines().count(), 7);
        assert!(jsonl
            .lines()
            .nth(1)
            .expect("line")
            .ends_with(r#""parent":0}"#));
    }
}
