//! The harness's own span recorder.
//!
//! A span is recorded around every call the harness makes into a layer of
//! the verifier: name, start, end, the span that caused it and the pass it
//! belongs to. Spans stay in memory and are written as JSONL when the run
//! ends. A disabled tracer takes no timestamps, so the untraced run that
//! yields the end-to-end numbers pays nothing for it.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// One timed call (or batch of calls) into a layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Index of the span in the trace.
    pub id: u32,
    /// The span during which, and because of which, this one ran.
    pub parent: Option<u32>,
    /// Pass the span belongs to (0 = outside any pass: set-up, calibration).
    pub pass: u32,
    /// `<layer>.<what>`, layer named after the crate/module called.
    pub name: String,
    /// Nanoseconds from the tracer's origin to the start of the call.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the return of the call.
    pub end_ns: u64,
    /// Calls the span covers: calibration spans batch calls that are too
    /// short to time one by one; everything else is 1.
    pub calls: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count taken at a layer boundary during one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    /// Pass the count was taken in.
    pub pass: u32,
    /// `<layer>.<what>`.
    pub name: String,
    /// The count.
    pub value: f64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    counters: Vec<Counter>,
    pass: u32,
}

/// Span recorder shared by the harness thread and the exploration workers.
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A tracer that records.
    #[must_use]
    pub fn on() -> Self {
        Self {
            on: true,
            origin: Instant::now(),
            inner: Mutex::default(),
        }
    }

    /// A tracer that records nothing and never reads the clock.
    #[must_use]
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Spans and counters recorded from now on belong to `pass`.
    pub fn set_pass(&self, pass: u32) {
        self.lock().pass = pass;
    }

    /// Time `f` as one span covering `calls` calls. `f` receives the new
    /// span's id so that calls it makes can name it as their parent.
    pub fn span_of<R>(
        &self,
        name: &str,
        parent: Option<u32>,
        calls: u64,
        f: impl FnOnce(Option<u32>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut g = self.lock();
            let id = u32::try_from(g.spans.len()).expect("fewer than 2^32 spans");
            let pass = g.pass;
            g.spans.push(Span {
                id,
                parent,
                pass,
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                calls,
            });
            id
        };
        let start = self.now_ns();
        let out = f(Some(id));
        let end = self.now_ns();
        let mut g = self.lock();
        let s = &mut g.spans[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Time `f` as one span covering one call.
    pub fn span<R>(&self, name: &str, parent: Option<u32>, f: impl FnOnce(Option<u32>) -> R) -> R {
        self.span_of(name, parent, 1, f)
    }

    /// Record a count for the current pass.
    pub fn count(&self, name: &str, value: f64) {
        if self.on {
            let mut g = self.lock();
            let pass = g.pass;
            g.counters.push(Counter {
                pass,
                name: name.to_owned(),
                value,
            });
        }
    }

    /// The last value recorded for counter `name`.
    #[must_use]
    pub fn last_count(&self, name: &str) -> Option<f64> {
        last_count(&self.lock().counters, name)
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        let g = self.lock();
        Trace {
            spans: g.spans.clone(),
            counters: g.counters.clone(),
        }
    }
}

fn last_count(counters: &[Counter], name: &str) -> Option<f64> {
    counters
        .iter()
        .rev()
        .find(|c| c.name == name)
        .map(|c| c.value)
}

/// A finished recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Spans in the order they started.
    pub spans: Vec<Span>,
    /// Counters in the order they were taken.
    pub counters: Vec<Counter>,
}

impl Trace {
    /// Per-call duration in nanoseconds of every span called `name`.
    #[must_use]
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / s.calls as f64)
            .collect()
    }

    /// Self time of span `id`: its length minus the part of it that its
    /// direct children cover. Children may overlap one another (replays on
    /// two worker threads), so the covered part is the length of the union
    /// of their intervals, clipped to the parent.
    #[must_use]
    pub fn self_ns(&self, id: u32) -> u64 {
        let parent = &self.spans[id as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in kids {
            if end > reach {
                covered += end - start.max(reach);
                reach = end;
            }
        }
        parent.ns() - covered
    }

    /// The last value recorded for counter `name`.
    #[must_use]
    pub fn last_count(&self, name: &str) -> Option<f64> {
        last_count(&self.counters, name)
    }

    /// Write one JSON object per line: spans (`"id"` …) then counters
    /// (`"value"` …).
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = serde_json::to_string(s).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        for c in &self.counters {
            let line = serde_json::to_string(c).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            pass: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let trace = Trace {
            spans: vec![
                span(0, None, 100, 1100),
                // Two workers' replays overlap between 300 and 400.
                span(1, Some(0), 200, 400),
                span(2, Some(0), 300, 600),
                // Nested inside span 2's interval: adds nothing.
                span(3, Some(0), 350, 500),
                // Disjoint child.
                span(4, Some(0), 800, 900),
                // A grandchild is its parent's business, not span 0's.
                span(5, Some(4), 810, 890),
                // Sticks out of the parent: clipped at 1100.
                span(6, Some(0), 1050, 1300),
            ],
            counters: Vec::new(),
        };
        // Covered: [200,600) + [800,900) + [1050,1100) = 400 + 100 + 50.
        assert_eq!(trace.self_ns(0), 1000 - 550);
        assert_eq!(trace.self_ns(4), 100 - 80);
        assert_eq!(trace.self_ns(1), 200);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x.y", None, |id| id), None);
        t.count("x.n", 1.0);
        assert_eq!(t.snapshot(), Trace::default());
    }

    #[test]
    fn spans_nest_carry_their_pass_and_round_trip_as_jsonl() {
        let t = Tracer::on();
        t.set_pass(3);
        let inner = t.span("outer.a", None, |outer| {
            t.span_of("inner.b", outer, 10, |inner| inner)
        });
        t.count("outer.n", 42.0);
        let trace = t.snapshot();
        assert_eq!(inner, Some(1));
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].pass, 3);
        assert!(trace.spans[0].start_ns <= trace.spans[1].start_ns);
        assert!(trace.spans[1].end_ns <= trace.spans[0].end_ns);
        assert_eq!(trace.per_call_ns("inner.b").len(), 1);
        assert_eq!(trace.last_count("outer.n"), Some(42.0));

        let dir = crate::sys::Scratch::new("tracetest").unwrap();
        let path = dir.path().join("t.jsonl");
        trace.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let back: Span = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(back, trace.spans[1]);
        let back: Counter = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(back, trace.counters[0]);
    }
}
