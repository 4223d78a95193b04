//! `bomd-h2`: real r-RESPA Born–Oppenheimer MD of H₂ with
//! `HfxDeltaForces` — the LDA `XcForces` inner force and the
//! grid-exchange SCF with per-slot incremental caches
//! (`IncrementalGridForces`) as the outer force — on a 24³ grid in a
//! 12 Bohr box with `n_inner = 2`. Exchange-engine- and FFT-bound; 24 is
//! not a power of two, so the FFT takes the Bluestein path.

use crate::check::Checks;
use crate::metrics::{Samples, Stopwatch, Values};
use crate::trace::Tracer;
use crate::RunConfig;
use liair_basis::{systems, Cell, Molecule};
use liair_core::{IncSchedule, IncStats};
use liair_math::plan::plan_cache_stats;
use liair_math::Vec3;
use liair_md::{
    HfxDeltaForces, IncrementalGridForces, MdOptions, MdState, MtsOptions, SplitForceProvider,
    Thermostat, XcForces,
};
use liair_xc::Functional;
use std::time::Instant;

/// Grid points per axis (full size) and box edge (Bohr).
const GRID: usize = 24;
const EDGE: f64 = 12.0;
/// Outer steps per trajectory; each is `N_INNER` inner steps.
const N_OUTER: usize = 4;
const N_INNER: usize = 2;
/// Inner timestep (a.u.) and thermalisation temperature (K).
const DT: f64 = 10.0;
const TEMPERATURE: f64 = 300.0;
/// Incremental-cache reuse tolerance of the outer force.
const EPS_INC: f64 = 1e-4;
/// Absolute bound (Ha) on the conserved-energy drift at outer-step
/// boundaries: the acceptance bound of the MTS-BOMD test in `liair-md`
/// (`mts_bomd_h2_runs_and_reuses_cache`), recorded here, not tuned.
pub const DRIFT_BOUND_HA: f64 = 5e-3;

/// The benchmark-side view of the force split: forwards to
/// `HfxDeltaForces` and records a span around each fast and slow call.
struct TracedSplit<'t> {
    inner: HfxDeltaForces,
    tr: &'t Tracer,
}

impl SplitForceProvider for TracedSplit<'_> {
    fn fast_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.tr
            .span("md.fast_force", || self.inner.fast_forces(mol, cell))
    }

    fn slow_correction(
        &self,
        mol: &Molecule,
        cell: Option<&Cell>,
        fast: (f64, &[Vec3]),
    ) -> (f64, Vec<Vec3>) {
        self.tr.span("md.slow_force", || {
            self.inner.slow_correction(mol, cell, fast)
        })
    }

    fn reuse_totals(&self) -> Option<IncStats> {
        self.inner.reuse_totals()
    }
}

/// The stretched H₂ the trajectory starts from (the `bench-mts` start).
fn molecule() -> Molecule {
    let mut h2 = systems::h2();
    h2.atoms[1].pos.x = 1.5;
    h2
}

fn split(tr: &Tracer, smoke: bool) -> TracedSplit<'_> {
    let grid = if smoke { 12 } else { GRID };
    TracedSplit {
        inner: HfxDeltaForces {
            fast: XcForces::new(Functional::Lda),
            full: IncrementalGridForces::new(grid, EDGE, IncSchedule::fixed(EPS_INC, 0)),
        },
        tr,
    }
}

/// Set-up: input generation, the providers' lazy state, the initial
/// fast and slow force evaluation and the seeded thermalisation.
fn setup<'t>(tr: &'t Tracer, seed: u64, smoke: bool) -> (TracedSplit<'t>, MdState, f64) {
    let split = split(tr, smoke);
    let mut state = tr.span("md.new_split", || {
        MdState::new_split(molecule(), None, &split)
    });
    tr.span("md.thermalize", || {
        state.thermalize_seeded(TEMPERATURE, Some(seed))
    });
    let e0 = state.total_energy();
    (split, state, e0)
}

/// One trajectory; returns the largest conserved-energy drift seen.
fn trajectory(
    tr: &Tracer,
    split: &TracedSplit,
    state: &mut MdState,
    e0: f64,
    outer: usize,
    checks: &mut Checks,
) -> Option<f64> {
    let opts = MdOptions {
        dt: DT,
        thermostat: Thermostat::None,
        mts: MtsOptions { n_inner: N_INNER },
    };
    checks
        .guarded("bomd trajectory", || {
            let mut drift = 0.0f64;
            let mut finite = true;
            for _ in 0..outer {
                tr.span("md.step_mts", || state.step_mts(split, &opts));
                let e = state.total_energy();
                finite &= e.is_finite() && state.potential.is_finite();
                drift = drift.max((e - e0).abs());
            }
            (finite, drift)
        })
        .map(|(finite, drift)| {
            checks.op("bomd energies finite", finite, || {
                "non-finite energy".into()
            });
            checks.op("bomd drift", drift <= DRIFT_BOUND_HA, || {
                format!("drift {drift:.3e} Ha exceeds {DRIFT_BOUND_HA:e} Ha")
            });
            drift
        })
}

pub fn run(cfg: &RunConfig, tr: &Tracer, checks: &mut Checks, out: &mut Values) {
    let outer = if cfg.smoke { 1 } else { N_OUTER };
    let plans0 = plan_cache_stats();
    let mut samples = Samples::default();
    let mut drift = 0.0f64;
    let (mut t_fast, mut t_slow, mut t_self, mut slow_calls) = (0.0, 0.0, 0.0, 0usize);
    let mut inc = IncStats::default();
    let window = Instant::now();
    let window_start = tr.now_s();
    let mut costs = Vec::new();
    while crate::another_fits(window, cfg.seconds, &costs) {
        let t_solve = Instant::now();
        // Each trajectory starts from its own seeded thermalisation.
        let seed = crate::solve_seed(cfg.seed, costs.len());
        let sw = Stopwatch::start();
        let (split, mut state, e0) = setup(tr, seed, cfg.smoke);
        samples.setup(&sw);

        let inc0 = split.reuse_totals().unwrap_or_default();
        let spans0 = tr.now_s();
        let sw = Stopwatch::start();
        if let Some(d) = trajectory(tr, &split, &mut state, e0, outer, checks) {
            drift = drift.max(d);
        }
        samples.solve(&sw);
        costs.push(t_solve.elapsed().as_secs_f64());
        if tr.is_on() {
            t_fast += tr.total_s("md.fast_force", spans0);
            t_slow += tr.total_s("md.slow_force", spans0);
            t_self += tr.self_s("md.step_mts", spans0);
            slow_calls += tr.count("md.slow_force", spans0);
            inc.accumulate(&split.reuse_totals().unwrap_or_default().since(&inc0));
        }
    }
    let wall = window.elapsed().as_secs_f64();
    samples.report(out);
    if !tr.is_on() {
        return;
    }
    let n = samples.wall_s.len() as f64;
    out.set("md.fast_force_s", t_fast / n);
    out.set("md.slow_force_s", t_slow / n);
    out.set("md.integrate_self_s", t_self / n);
    out.set("md.slow_calls", slow_calls as f64 / n);
    out.set("md.drift_ha", drift);
    crate::set_core_reuse(&inc, n, out);
    out.set(
        "core.plan_cache_misses",
        plan_cache_stats().since(&plans0).misses as f64,
    );
    crate::set_trace_fractions(tr, window_start, wall, out);
}
