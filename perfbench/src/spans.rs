//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the recorder's
//! epoch), the index of the span open when it started, and a `work`
//! count (events or bytes) so that per-unit costs are computed where the
//! work happened. Spans stay in memory and are written out once, when the
//! traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `trace.decode`.
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Units of work done inside the span (events or bytes).
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A stack-structured span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            work: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one), recording `work`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span: a bug in the caller.
    pub fn exit(&mut self, id: usize, work: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the work it did.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> (R, u64)) -> R {
        let id = self.enter(name);
        let (result, work) = f();
        self.exit(id, work);
        result
    }

    /// Nanoseconds since this recorder's epoch.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Appends spans recorded by another process under span `parent`,
    /// shifting their times by `offset_ns` into this recorder's epoch.
    pub fn adopt(&mut self, parent: usize, offset_ns: u64, spans: Vec<Span>) {
        let base = self.spans.len();
        for span in spans {
            self.spans.push(Span {
                start_ns: span.start_ns + offset_ns,
                end_ns: span.end_ns + offset_ns,
                parent: Some(span.parent.map_or(parent, |p| p + base)),
                ..span
            });
        }
    }

    /// Every span, in start order of entry.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and work of every span named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, w), s| (d + s.dur_ns(), w + s.work))
    }

    /// Nanoseconds per unit of work over every span named `name`
    /// (0 when no work was recorded).
    #[must_use]
    pub fn ns_per_work(&self, name: &str) -> f64 {
        let (dur, work) = self.total(name);
        if work == 0 {
            0.0
        } else {
            dur as f64 / work as f64
        }
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"work\": {}}}",
                crate::json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.work
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_adopt_rebases() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.time("inner", || ((), 10));
        t.exit(outer, 0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.total("inner").1, 10);

        let child = vec![
            Span {
                name: "a".into(),
                start_ns: 1,
                end_ns: 5,
                parent: None,
                work: 2,
            },
            Span {
                name: "b".into(),
                start_ns: 2,
                end_ns: 3,
                parent: Some(0),
                work: 1,
            },
        ];
        t.adopt(outer, 100, child);
        assert_eq!(t.spans()[2].parent, Some(outer));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[3].start_ns, 102);
        assert!((t.ns_per_work("a") - 2.0).abs() < 1e-12);
    }
}
