//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; `tests/smoke.rs` keeps the two in step.

use crate::check::Checks;

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_to_solution_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "frac"),
];

/// Per-layer metrics, printed by the traced run of every workload. A
/// workload reports 0 for a layer metric it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("integrals.jk_build_s.li2o2", "s"),
    ("integrals.jk_build_s.dmso", "s"),
    ("integrals.jk_speedup_2t", "ratio"),
    ("integrals.quartets", "count"),
    ("integrals.jk_setup_s", "s"),
    ("scf.session_new_s", "s"),
    ("scf.iterations.li2o2", "count"),
    ("scf.iterations.dmso", "count"),
    ("scf.step_s", "s"),
    ("xc.functional_energy_s", "s"),
    ("md.fast_force_s", "s"),
    ("md.slow_force_s", "s"),
    ("md.integrate_self_s", "s"),
    ("md.slow_calls", "count"),
    ("md.drift_ha", "Ha"),
    ("core.pairs_reused", "count"),
    ("core.pairs_recomputed", "count"),
    ("core.reuse_frac", "frac"),
    ("core.plan_cache_misses", "count"),
    ("grid.pair_energy_us.24", "us"),
    ("grid.pair_energy_us.16", "us"),
    ("math.rfft3_us.24", "us"),
    ("math.rfft3_us.16", "us"),
    ("math.rfft3_gflops_nominal.24", "GFLOP/s"),
    ("math.rfft3_gflops_nominal.16", "GFLOP/s"),
    ("serve.run_job_s.scf", "s"),
    ("serve.run_job_s.md", "s"),
    ("serve.run_job_s.screening", "s"),
    ("serve.overhead_s", "s"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.resumed_jobs", "count"),
    ("serve.checkpoint_bytes_max", "B"),
    ("serve.turnaround_p50_s", "s"),
    ("serve.turnaround_tail_s", "s"),
    ("runtime.pool_peak_leased", "count"),
    ("runtime.pool_granted", "count"),
    ("bench.time_to_solution_s", "s"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.unattributed_frac", "frac"),
];

/// Named values collected by a run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// CPU time this process has used, its exited threads included, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). With paravirtual steal
/// accounting, time the hypervisor gave to other guests is not in it.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPUTIME: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit
    // `time_t` and `long` on the 64-bit Linux targets this runs on).
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one timed section.
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: std::time::Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(wall, cpu)` seconds since `start`.
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            process_cpu_s() - self.cpu_s,
        )
    }
}

/// Per-solve samples of a run's window; the timings are their medians.
#[derive(Debug, Default)]
pub struct Samples {
    /// CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall and CPU seconds of each solve.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

impl Samples {
    pub fn setup(&mut self, sw: &Stopwatch) {
        self.setup_s.push(sw.read().1);
    }

    pub fn solve(&mut self, sw: &Stopwatch) {
        let (wall, cpu) = sw.read();
        self.wall_s.push(wall);
        self.cpu_s.push(cpu);
    }

    pub fn report(&self, out: &mut Values) {
        // The samples behind each median, sorted, for the log.
        for (name, xs) in [
            ("solve cpu s", &self.cpu_s),
            ("solve wall s", &self.wall_s),
            ("setup cpu s", &self.setup_s),
        ] {
            let mut v = xs.clone();
            v.sort_by(f64::total_cmp);
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
            eprintln!(
                "perfbench: {name}, {} samples: {}",
                v.len(),
                shown.join(" ")
            );
        }
        out.set("cpu_to_solution_s", median(&self.cpu_s));
        out.set("setup_s", median(&self.setup_s));
        out.set("bench.time_to_solution_s", median(&self.wall_s));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `catalogue` metrics taken from `values`. A metric
/// missing from `values`, or one that is not finite, fails the run.
pub fn result_line(catalogue: &[(&str, &str)], values: &Values, checks: &mut Checks) -> String {
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let v = values.get(name).unwrap_or(f64::NAN);
        let v = if v.is_finite() {
            v
        } else {
            checks.op(name, false, || format!("metric not measured ({v})"));
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_cpu_time_counts_busy_work() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        while sw.read().0 < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        // Other tests' threads may add to the process total.
        let (wall, cpu) = sw.read();
        assert!(cpu > 0.0, "no CPU time over {wall} s of busy work");
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        let mut checks = Checks::default();
        let line = result_line(
            &[("setup_s", "s"), ("cpu_to_solution_s", "s")],
            &values,
            &mut checks,
        );
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
