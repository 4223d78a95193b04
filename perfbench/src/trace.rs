//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! Tracing is off in the end-to-end run: [`Tracer::span`] then runs the
//! closure and records nothing. In the traced run every span keeps its
//! name, start, end and parent in memory; [`Tracer::to_jsonl`] renders
//! them out once the workload has finished. A layer's self time is its
//! spans' duration minus the part covered by their child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `integrals.jk_build`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` at the top level.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder for one single-threaded workload driver.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Seconds since the tracer was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                parent,
                start_s: self.now_s(),
                end_s: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_s = self.now_s();
        out
    }

    /// A copy of every closed span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total duration of the spans called `name` that start at or after
    /// `from_s`.
    pub fn total_s(&self, name: &str, from_s: f64) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.start_s >= from_s)
            .map(Span::duration_s)
            .sum()
    }

    /// Number of spans called `name` that start at or after `from_s`.
    pub fn count(&self, name: &str, from_s: f64) -> usize {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.start_s >= from_s)
            .count()
    }

    /// Self time of the spans called `name` that start at or after
    /// `from_s`: their duration minus their direct children's.
    pub fn self_s(&self, name: &str, from_s: f64) -> f64 {
        let spans = self.spans.borrow();
        let mut total = 0.0;
        for (i, s) in spans.iter().enumerate() {
            if s.name != name || s.start_s < from_s {
                continue;
            }
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::duration_s)
                .sum();
            total += s.duration_s() - children;
        }
        total
    }

    /// Self time summed per layer.
    pub fn layer_self_s(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_time = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_s();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_time) {
            *out.entry(s.layer()).or_insert(0.0) += s.duration_s() - c;
        }
        out
    }

    /// Time covered by top-level spans that start at or after `from_s`.
    pub fn top_level_s(&self, from_s: f64) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.parent.is_none() && s.start_s >= from_s)
            .map(Span::duration_s)
            .sum()
    }

    /// Measured cost of recording one span, from `n` empty spans on a
    /// scratch tracer.
    pub fn span_cost_s(n: usize) -> f64 {
        let scratch = Tracer::new(true);
        let t0 = Instant::now();
        for _ in 0..n {
            scratch.span("bench.calibrate", || std::hint::black_box(0));
        }
        t0.elapsed().as_secs_f64() / n.max(1) as f64
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{:.9},\"end_s\":{:.9}}}\n",
                s.name, s.start_s, s.end_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("scf.step", || {
            t.span("integrals.jk_build", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let step = t.total_s("scf.step", 0.0);
        let jk = t.total_s("integrals.jk_build", 0.0);
        assert!(jk >= 0.02 && step >= jk + 0.01);
        assert!((t.self_s("scf.step", 0.0) - (step - jk)).abs() < 1e-12);
        let layers = t.layer_self_s();
        assert!((layers["scf"] + layers["integrals"] - step).abs() < 1e-12);
        assert_eq!(t.count("scf.step", 0.0), 1);
        assert_eq!(t.count("scf.step", t.now_s()), 0);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("scf.step", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
