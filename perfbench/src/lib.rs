//! The liair benchmark: three workloads driven through the workspace
//! crates' public APIs, every answer checked, the end-to-end metrics
//! printed by an untraced run and the per-layer metrics by a traced run.
//! `run.py` builds this package and runs it; see `README.md`.

pub mod bomd_h2;
pub mod check;
pub mod metrics;
pub mod probes;
pub mod rhf_fragments;
pub mod serve_mix;
pub mod trace;

use check::{Checks, Pin};
use metrics::{peak_rss_mb, Values, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["rhf-fragments", "bomd-h2", "serve-mix"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window (s); at least one solve runs.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the package's own tests.
    pub smoke: bool,
}

/// Pinned energies of the run, replaceable so tests can plant a wrong one.
#[derive(Debug, Clone, Copy)]
pub struct PinSet<'a> {
    pub fragments: &'a [Pin],
    pub serve: &'a [Pin],
}

impl Default for PinSet<'static> {
    fn default() -> Self {
        PinSet {
            fragments: rhf_fragments::PINS,
            serve: serve_mix::PINS,
        }
    }
}

/// What a run produced: the values of its catalogue plus the checks.
pub struct Outcome {
    pub values: Values,
    pub checks: Checks,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans_jsonl: String,
    /// Self time per layer over the traced run's spans.
    pub layer_self_s: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line for this run's catalogue.
    pub fn result_line(&mut self, trace: bool) -> String {
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        metrics::result_line(catalogue, &self.values, &mut self.checks)
    }
}

/// The input seed of solve `i` of a run seeded `seed`. Every solve of a
/// run draws fresh inputs, so a run's median spans several of them.
pub fn solve_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Whether another solve starts in a measured window of `seconds` that
/// opened at `window`: the first always does, a later one only when a
/// solve of the median cost so far (set-up included, `costs`) still ends
/// inside the window.
pub fn another_fits(window: std::time::Instant, seconds: f64, costs: &[f64]) -> bool {
    costs.is_empty() || window.elapsed().as_secs_f64() + metrics::median(costs) <= seconds
}

/// Report incremental-exchange reuse: counts per solve over `solves`
/// solves, and the reused share of all pairs touched.
pub fn set_core_reuse(inc: &liair_core::IncStats, solves: f64, out: &mut Values) {
    let touched = (inc.pairs_reused + inc.pairs_recomputed) as f64;
    out.set("core.pairs_reused", inc.pairs_reused as f64 / solves);
    out.set(
        "core.pairs_recomputed",
        inc.pairs_recomputed as f64 / solves,
    );
    out.set(
        "core.reuse_frac",
        if touched > 0.0 {
            inc.pairs_reused as f64 / touched
        } else {
            0.0
        },
    );
}

/// Report the share of the window's wall time not covered by top-level
/// layer spans, and the estimated cost of recording the spans.
pub fn set_trace_fractions(tr: &Tracer, window_start_s: f64, wall_s: f64, out: &mut Values) {
    let attributed = tr.top_level_s(window_start_s);
    out.set(
        "bench.unattributed_frac",
        (1.0 - attributed / wall_s).max(0.0),
    );
    let n_spans = tr.spans().len() as f64;
    out.set(
        "bench.trace_overhead_frac",
        n_spans * Tracer::span_cost_s(10_000) / wall_s,
    );
}

/// Run one workload. Per-layer metrics the workload does not exercise
/// read 0; the kernel probes run on every traced run.
pub fn run(cfg: &RunConfig, pins: PinSet) -> Outcome {
    let tr = Tracer::new(cfg.trace);
    let mut checks = Checks::default();
    let mut values = Values::default();
    if cfg.trace {
        for &(name, _) in PER_LAYER {
            values.set(name, 0.0);
        }
    }
    match cfg.workload.as_str() {
        "rhf-fragments" => rhf_fragments::run(cfg, pins.fragments, &tr, &mut checks, &mut values),
        "bomd-h2" => bomd_h2::run(cfg, &tr, &mut checks, &mut values),
        "serve-mix" => serve_mix::run(cfg, pins.serve, &tr, &mut checks, &mut values),
        other => panic!("unknown workload '{other}'"),
    }
    if cfg.trace {
        let budget = if cfg.smoke { 0.01 } else { 0.3 };
        probes::kernel_probes(cfg.seed, budget, &mut values);
    }
    values.set("peak_rss_mb", peak_rss_mb());
    values.set("ops_ok_frac", checks.ok_frac());
    Outcome {
        values,
        checks,
        spans_jsonl: tr.to_jsonl(),
        layer_self_s: tr.layer_self_s(),
    }
}
