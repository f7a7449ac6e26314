//! In-memory spans and counters recorded around the benchmark's own calls
//! into each layer's public functions.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced run pays only a branch per call site. Spans and counters stay
//! in memory until [`Tracer::write_jsonl`] writes them out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A count taken at a span boundary; `span` is the span open at the time.
#[derive(Debug, Clone)]
pub struct Counter {
    pub name: &'static str,
    pub value: f64,
    pub span: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the tracer's origin (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (a load-generator thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent: self.open.last().copied(),
            });
        }
    }

    /// Records a counter at the innermost open span's boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter {
                name,
                value,
                span: self.open.last().copied(),
            });
        }
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Durations in seconds of the spans named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Sum of every counter named `name`.
    pub fn counter_sum(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part of its
    /// interval its children cover, summed by layer. A span's layer is
    /// its name without the last dot-separated part (`stream.save` →
    /// `stream`, `core.pipeline.cth` → `core.pipeline`).
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            let layer = span.name.rsplit_once('.').map_or(span.name, |(l, _)| l);
            *layers.entry(layer.to_string()).or_default() += own as f64 / 1e9;
        }
        layers
    }

    /// Writes every span and counter as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        for c in &self.counters {
            let span = c.span.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"counter\":\"{}\",\"value\":{},\"span\":{span}}}",
                self.run_id, c.name, c.value
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
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        t.span("bench.outer", |t| {
            t.span("stream.save", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.count("stream.bytes_written", 3.0);
        });
        let layers = t.self_time_by_layer();
        assert!(layers["stream"] >= 0.005);
        assert!(layers["bench"] < layers["stream"]);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.counter_sum("stream.bytes_written"), 3.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        let v = t.span("stream.save", |t| {
            t.count("x", 1.0);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans.is_empty() && t.counters.is_empty());
    }
}
