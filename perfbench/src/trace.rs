//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory — name, start, end, parent, and an id shared
//! by every span of one workload run — and written out once at the end as
//! a Chrome trace. A span's layer is its name up to the first `.`
//! (`core.dataset` belongs to `core`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Dotted name; the first component is the layer.
    pub name: String,
    /// Start, µs since the recorder was created.
    pub start_us: f64,
    /// End, µs since the recorder was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }

    fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// An in-memory span recorder for one workload run.
pub struct Recorder {
    run_id: String,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Recorder::end`].
#[must_use]
pub struct Open(usize);

impl Recorder {
    /// A recorder whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Recorder {
        Recorder { run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span.
    pub fn start(&mut self, name: &str) -> Open {
        let rec = SpanRec {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
        };
        self.spans.push(rec);
        self.open.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Closes `span` and returns its duration in seconds. Spans close in
    /// reverse order of opening.
    pub fn end(&mut self, span: Open) -> f64 {
        assert_eq!(self.open.pop(), Some(span.0), "spans must close innermost first");
        let end = self.now_us();
        let rec = &mut self.spans[span.0];
        rec.end_us = end;
        rec.secs()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.start(name);
        let out = f();
        let secs = self.end(span);
        (out, secs)
    }

    /// Total seconds of all closed spans called `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(SpanRec::secs).sum()
    }

    /// Self time per layer: each span's duration minus the time its direct
    /// children cover, summed by layer.
    pub fn self_secs_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_secs) {
            *out.entry(s.layer().to_string()).or_insert(0.0) += (s.secs() - child).max(0.0);
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".into());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":\"{}\"}}}}",
                s.name,
                s.layer(),
                s.start_us,
                s.end_us - s.start_us,
                self.run_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new("t".into());
        let outer = rec.start("core.outer");
        let ((), inner) =
            rec.time("media.inner", || std::thread::sleep(std::time::Duration::from_millis(20)));
        let total = rec.end(outer);
        let by_layer = rec.self_secs_by_layer();
        assert!((by_layer["media"] - inner).abs() < 1e-9);
        assert!((by_layer["core"] - (total - inner)).abs() < 1e-9);
        let trace = rec.chrome_trace();
        assert!(trace.contains("\"parent\":0") && trace.contains("\"run\":\"t\""));
    }
}
