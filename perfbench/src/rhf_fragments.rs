//! `rhf-fragments`: the fragment stage of a solvent-screening reaction
//! member. RHF/STO-3G at the reaction-job options on an isolated
//! fragment, then a post-SCF PBE0 energy on the converged density.
//! The timed solve is the Li₂O₂ fragment, which every reaction member
//! computes; the DMSO fragment (about three times its cost) runs once,
//! after the window, in the traced run. Integrals-bound; never touches
//! the FFT, the Poisson grid, the exchange engine or the service.

use crate::check::{Checks, Pin};
use crate::metrics::{median, Samples, Stopwatch, Values};
use crate::trace::Tracer;
use crate::RunConfig;
use liair_basis::{systems, Basis, Molecule};
use liair_integrals::{schwarz_matrix, JkBuilder};
use liair_scf::{functional_energy, Method, ScfOptions, ScfResult, ScfSession};
use liair_xc::Functional;
use std::time::Instant;

/// The reaction jobs' SCF options (`liair-serve` runner).
pub fn fragment_options() -> ScfOptions {
    ScfOptions {
        energy_tol: 1e-7,
        max_iter: 150,
        ..Default::default()
    }
}

/// Absolute tolerance of the pinned energies: the SCF's own `energy_tol`.
pub const ENERGY_TOL: f64 = 1e-7;

/// Energies pinned from this workload at the commit that defined the
/// benchmark. Smoke runs use H₂ and LiH in the two fragment slots.
pub const PINS: &[Pin] = &[
    Pin {
        name: "rhf.li2o2",
        value: -162.420_515_395_7,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "rhf.dmso",
        value: -545.214_519_381_3,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "pbe0.li2o2",
        value: -163.084_477_347_4,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "pbe0.dmso",
        value: -546.478_308_313_8,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "smoke.rhf.li2o2",
        value: -1.116_714_325_176,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "smoke.rhf.dmso",
        value: -7.861_864_783_842,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "smoke.pbe0.li2o2",
        value: -1.154_316_042_152,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "smoke.pbe0.dmso",
        value: -7.927_000_800_963,
        tol: ENERGY_TOL,
    },
];

/// Standalone JK builds per fragment in the traced run (median taken).
const JK_REPS: usize = 3;

fn fragment(slot: &str, smoke: bool) -> Molecule {
    match (slot, smoke) {
        ("li2o2", false) => systems::li2o2(),
        ("dmso", false) => systems::dmso(),
        ("li2o2", true) => systems::h2(),
        _ => systems::lih(),
    }
}

fn pin_name(kind: &str, slot: &str, smoke: bool) -> String {
    if smoke {
        format!("smoke.{kind}.{slot}")
    } else {
        format!("{kind}.{slot}")
    }
}

/// Canonical shell quartets that pass Schwarz screening at `screen`:
/// the count the integral-direct JK build computes per call.
pub fn schwarz_quartets(basis: &Basis, screen: f64) -> u64 {
    let q = schwarz_matrix(basis);
    let nsh = basis.shells.len();
    let mut n = 0;
    for sa in 0..nsh {
        for sb in 0..=sa {
            for sc in 0..=sa {
                let sd_max = if sc == sa { sb } else { sc };
                for sd in 0..=sd_max {
                    if q[(sa, sb)] * q[(sc, sd)] >= screen {
                        n += 1;
                    }
                }
            }
        }
    }
    n
}

/// A fragment's converged SCF, as the solve left it.
struct Converged {
    iterations: usize,
    result: ScfResult,
}

/// Input generation: the fragment geometry and its basis.
fn inputs(tr: &Tracer, slot: &str, smoke: bool) -> (Molecule, Basis) {
    tr.span("basis.inputs", || {
        let mol = fragment(slot, smoke);
        let basis = Basis::sto3g(&mol);
        (mol, basis)
    })
}

/// Converge the fragment and evaluate PBE0 on it, checking each energy.
fn solve(
    tr: &Tracer,
    slot: &str,
    (mol, basis): &(Molecule, Basis),
    mut session: ScfSession<'_>,
    smoke: bool,
    pins: &[Pin],
    checks: &mut Checks,
) -> Option<Converged> {
    let opts = fragment_options();
    let (iterations, result) = checks.guarded(&format!("rhf.{slot}"), || {
        while tr.span("scf.step", || session.step()) {}
        (session.iterations(), session.into_result())
    })?;
    checks.op(&format!("rhf.{slot} converged"), result.converged, || {
        format!("not converged after {iterations} iterations")
    });
    checks.pinned(pins, &pin_name("rhf", slot, smoke), result.energy);
    let e = checks.guarded(&format!("pbe0.{slot}"), || {
        tr.span("xc.functional_energy", || {
            functional_energy(mol, basis, &result, Functional::Pbe0, &opts)
        })
    });
    if let Some(e) = e {
        checks.pinned(pins, &pin_name("pbe0", slot, smoke), e);
    }
    Some(Converged { iterations, result })
}

/// Set up (inputs and the lazy SCF context) and solve one fragment;
/// `samples` gets its timings.
fn fragment_pass(
    tr: &Tracer,
    slot: &str,
    smoke: bool,
    pins: &[Pin],
    checks: &mut Checks,
    samples: &mut Samples,
) -> (Basis, Option<Converged>) {
    let sw = Stopwatch::start();
    let input = inputs(tr, slot, smoke);
    let session = tr.span("scf.session_new", || {
        ScfSession::new(&input.0, &input.1, &fragment_options(), Method::Rhf)
    });
    samples.setup(&sw);
    let sw = Stopwatch::start();
    let converged = solve(tr, slot, &input, session, smoke, pins, checks);
    samples.solve(&sw);
    (input.1, converged)
}

pub fn run(cfg: &RunConfig, pins: &[Pin], tr: &Tracer, checks: &mut Checks, out: &mut Values) {
    let mut samples = Samples::default();
    let mut last = None;
    let window = Instant::now();
    let window_start = tr.now_s();
    let mut costs = Vec::new();
    while crate::another_fits(window, cfg.seconds, &costs) {
        let t0 = Instant::now();
        last = Some(fragment_pass(
            tr,
            "li2o2",
            cfg.smoke,
            pins,
            checks,
            &mut samples,
        ));
        costs.push(t0.elapsed().as_secs_f64());
    }
    let wall = window.elapsed().as_secs_f64();
    samples.report(out);
    if !tr.is_on() {
        return;
    }

    // Traced run: the layer breakdown of the window's calls, then the
    // DMSO fragment once, and JK builds timed outside the SCF on each
    // fragment's converged density.
    crate::set_trace_fractions(tr, window_start, wall, out);
    let solves = samples.wall_s.len() as f64;
    let step_s = tr.total_s("scf.step", window_start) / solves;
    let functional_s = tr.total_s("xc.functional_energy", window_start) / solves;
    let session_new_s = tr.total_s("scf.session_new", window_start) / solves;
    let dmso = fragment_pass(tr, "dmso", cfg.smoke, pins, checks, &mut Samples::default());
    let opts = fragment_options();
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the thread-count override cannot fail");
    let (mut t1_sum, mut t2_sum, mut jk_setup, mut quartets) = (0.0, 0.0, 0.0, 0);
    let fragments = [("li2o2", last.expect("at least one solve")), ("dmso", dmso)];
    for (slot, (basis, converged)) in &fragments {
        let Some(c) = converged else {
            continue;
        };
        let t0 = Instant::now();
        let jk = JkBuilder::new(basis);
        jk_setup += t0.elapsed().as_secs_f64();
        let density = &c.result.density;
        let t2 = median(
            &(0..JK_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(jk.build(density, opts.schwarz_tol));
                    t0.elapsed().as_secs_f64()
                })
                .collect::<Vec<_>>(),
        );
        let t0 = Instant::now();
        std::hint::black_box(one_thread.install(|| jk.build(density, opts.schwarz_tol)));
        t1_sum += t0.elapsed().as_secs_f64();
        t2_sum += t2;
        quartets += schwarz_quartets(basis, opts.schwarz_tol);
        let (jk_name, iter_name) = match *slot {
            "li2o2" => ("integrals.jk_build_s.li2o2", "scf.iterations.li2o2"),
            _ => ("integrals.jk_build_s.dmso", "scf.iterations.dmso"),
        };
        out.set(jk_name, t2);
        out.set(iter_name, c.iterations as f64);
    }
    out.set("integrals.jk_speedup_2t", t1_sum / t2_sum);
    out.set("integrals.quartets", quartets as f64);
    out.set("integrals.jk_setup_s", jk_setup);
    out.set("scf.session_new_s", session_new_s);
    out.set("scf.step_s", step_s);
    out.set("xc.functional_energy_s", functional_s);
}
