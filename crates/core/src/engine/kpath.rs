//! The K-operator stage of the engine: `K_{μν} = Σ_j (μj|jν)` built as
//! one Poisson solve per `(occupied j, AO ν)` task, on any
//! [`ExecBackend`](super::ExecBackend).
//!
//! The task list is canonical (j-major, ν-ascending, ε-screened), per-task
//! output columns are reassembled in that order on every backend, each
//! orbital's `ΔK_j` accumulates its columns in task order, and `K = Σ_j
//! ΔK_j` sums ascending-j before the final symmetrization — the fixed
//! floating-point sequence that makes the rayon build, the message-passing
//! build, and the incremental build with `eps_inc = 0` bit-identical.

use super::{pipeline, BuildProfile, ExchangeEngine, ExecBackend, PipelineMode};
use crate::balance::assign;
use crate::error::{Error, Result};
use crate::screening::OrbitalInfo;
use liair_basis::Basis;
use liair_grid::{ao_values, orbitals_from_aos, KernelTimings, PoissonWorkspace, RealGrid};
use liair_math::Mat;
use liair_runtime::{run_spmd_cfg, CommConfig};
use rayon::prelude::*;
use std::time::Instant;

/// One orbital's unsymmetrized `ΔK_j` contribution tagged with its slot,
/// plus that orbital's `(evaluated, skipped)` task counts.
pub(crate) type OrbitalContrib = ((usize, Mat), (usize, usize));

/// The geometry-only part of a K build: the AO fields on the grid and the
/// AOs' screening metadata. A fixed geometry determines it, so an SCF
/// builds it once and lends it to the K build of every iteration
/// ([`ExchangeEngine::k_operator_in`],
/// [`crate::IncrementalExchange::exchange_operator_in`]).
pub struct KGeometry<'b> {
    pub(crate) basis: &'b Basis,
    pub(crate) grid: RealGrid,
    /// AO fields on the grid.
    pub(crate) aos: Vec<Vec<f64>>,
    /// Screening metadata of the AOs (read only when `eps > 0`).
    pub(crate) ao_info: Vec<OrbitalInfo>,
}

impl<'b> KGeometry<'b> {
    /// Evaluate every AO of `basis` on `grid`.
    pub fn new(basis: &'b Basis, grid: &RealGrid) -> KGeometry<'b> {
        let ao_info = basis
            .aos
            .iter()
            .map(|ao| {
                let sh = &basis.shells[ao.shell];
                let alpha_min = sh.prims.iter().map(|p| p.exp).fold(f64::INFINITY, f64::min);
                OrbitalInfo {
                    center: sh.center,
                    spread: (1.0 / (2.0 * alpha_min)).sqrt().max(0.3),
                }
            })
            .collect();
        KGeometry {
            basis,
            grid: *grid,
            aos: ao_values(basis, grid),
            ao_info,
        }
    }

    /// Number of AOs.
    pub fn nao(&self) -> usize {
        self.aos.len()
    }
}

/// The per-iteration part of a K build: the occupied orbital fields built
/// from the borrowed AO fields, plus their screening metadata. Shared by
/// the from-scratch and incremental builds.
pub(crate) struct KBuildSetup<'g> {
    pub(crate) geom: &'g KGeometry<'g>,
    pub(crate) nocc: usize,
    /// Localization centers/spreads of the (localized) occupied orbitals;
    /// empty when `eps = 0` (no localization, nothing to screen).
    pub(crate) orb_info: Vec<OrbitalInfo>,
    /// Occupied orbital fields on the grid (localized when `eps > 0`).
    pub(crate) orbitals: Vec<Vec<f64>>,
}

/// Evaluate the orbital fields and screening metadata for a K build.
///
/// Canonical orbitals are delocalized and unscreenable; K is invariant
/// under rotations within the occupied space, so when screening is on we
/// localize first (exactly what the paper's scheme does each step).
pub(crate) fn k_build_setup<'g>(
    geom: &'g KGeometry<'g>,
    c_occ: &Mat,
    nocc: usize,
    eps: f64,
) -> KBuildSetup<'g> {
    assert_eq!(c_occ.nrows(), geom.nao());
    assert!(nocc <= c_occ.ncols());
    let (c_loc, orb_info) = if eps > 0.0 {
        let loc = liair_grid::foster_boys(geom.basis, c_occ, nocc, 60);
        let orbs = loc
            .centers
            .iter()
            .zip(&loc.spreads)
            .map(|(&center, &s)| OrbitalInfo {
                center,
                spread: s.max(0.3),
            })
            .collect();
        (Some(loc.c_loc), orbs)
    } else {
        (None, Vec::new())
    };
    let orbitals = orbitals_from_aos(&geom.aos, c_loc.as_ref().unwrap_or(c_occ), nocc);
    KBuildSetup {
        geom,
        nocc,
        orb_info,
        orbitals,
    }
}

/// Average away the 1e-6-level asymmetry grid quadrature leaves in K.
pub(crate) fn symmetrize(k: &mut Mat) {
    let nao = k.nrows();
    for mu in 0..nao {
        for nu in (mu + 1)..nao {
            let s = 0.5 * (k[(mu, nu)] + k[(nu, mu)]);
            k[(mu, nu)] = s;
            k[(nu, mu)] = s;
        }
    }
}

/// Per-worker scratch of the K task loop: one pair-density buffer and one
/// Poisson workspace, grow-once (only the nao-length output column is
/// allocated per task).
#[derive(Default)]
struct KTaskScratch {
    rho: Vec<f64>,
    ws: PoissonWorkspace,
}

impl KTaskScratch {
    fn ensure(&mut self, n: usize) -> bool {
        if self.rho.len() != n {
            self.rho.resize(n, 0.0);
            true
        } else {
            false
        }
    }
}

/// Output of [`ExchangeEngine::k_operator`].
#[derive(Debug, Clone)]
pub struct KBuildOutcome {
    /// The symmetrized exchange operator `Σ_j (μj|jν)`.
    pub k: Mat,
    /// `(j, ν)` tasks evaluated through a Poisson solve.
    pub evaluated: usize,
    /// Tasks dropped by the ε screen.
    pub skipped: usize,
    /// Per-phase instrumentation of this build.
    pub profile: BuildProfile,
}

impl ExchangeEngine<'_> {
    /// Build the AO-basis exchange operator on the configured backend.
    ///
    /// `c_occ` holds the occupied MO coefficients (`nao × nocc`) in the
    /// same (box-centered) basis the grid discretizes; `eps` drops `(j, ν)`
    /// tasks whose Gaussian-overlap bound falls below it (localizing
    /// first when `eps > 0`). Evaluates the AO fields for this one build;
    /// callers that build K repeatedly at one geometry hold a
    /// [`KGeometry`] and call [`ExchangeEngine::k_operator_in`].
    pub fn k_operator(&self, basis: &Basis, c_occ: &Mat, nocc: usize, eps: f64) -> KBuildOutcome {
        self.try_k_operator(basis, c_occ, nocc, eps)
            .unwrap_or_else(|e| panic!("K-operator build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::k_operator`].
    pub fn try_k_operator(
        &self,
        basis: &Basis,
        c_occ: &Mat,
        nocc: usize,
        eps: f64,
    ) -> Result<KBuildOutcome> {
        let t_ao = Instant::now();
        let geom = KGeometry::new(basis, self.grid);
        let t_geom = t_ao.elapsed().as_secs_f64();
        let mut out = self.try_k_operator_in(&geom, c_occ, nocc, eps)?;
        out.profile.t_ao_eval_s += t_geom;
        Ok(out)
    }

    /// [`ExchangeEngine::k_operator`] over AO fields evaluated once for the
    /// geometry (bit-identical to it).
    pub fn k_operator_in(
        &self,
        geom: &KGeometry,
        c_occ: &Mat,
        nocc: usize,
        eps: f64,
    ) -> KBuildOutcome {
        self.try_k_operator_in(geom, c_occ, nocc, eps)
            .unwrap_or_else(|e| panic!("K-operator build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::k_operator_in`]; rejects a
    /// geometry sampled on a different grid than the engine's.
    pub fn try_k_operator_in(
        &self,
        geom: &KGeometry,
        c_occ: &Mat,
        nocc: usize,
        eps: f64,
    ) -> Result<KBuildOutcome> {
        if geom.grid != *self.grid {
            return Err(Error::InvalidConfig(
                "K geometry was evaluated on a different grid than the engine's".into(),
            ));
        }
        let mut profile = BuildProfile::default();
        let t_ao = Instant::now();
        let setup = k_build_setup(geom, c_occ, nocc, eps);
        profile.t_ao_eval_s += t_ao.elapsed().as_secs_f64();
        let nao = geom.nao();
        let slots: Vec<usize> = (0..nocc).collect();
        let results = self.k_orbital_contribs(&setup, eps, &slots, &mut profile)?;
        let tr = Instant::now();
        let mut k = Mat::zeros(nao, nao);
        let mut evaluated = 0;
        let mut skipped = 0;
        for ((_, dk), (ev, sk)) in &results {
            k.axpy(1.0, dk);
            evaluated += ev;
            skipped += sk;
        }
        symmetrize(&mut k);
        profile.t_reduce_s += tr.elapsed().as_secs_f64();
        profile.bytes_reduced += results.len() * nao * nao * std::mem::size_of::<f64>();
        profile.pairs_computed = evaluated;
        profile.pairs_screened = skipped;
        Ok(KBuildOutcome {
            k,
            evaluated,
            skipped,
            profile,
        })
    }

    /// Run the surviving `(j, ν)` Poisson tasks of the orbitals in `slots`
    /// on the configured backend and return, per requested orbital, its
    /// unsymmetrized contribution `ΔK_j` plus `(evaluated, skipped)` task
    /// counts. `K = Σ_j ΔK_j` over all occupied orbitals. Execute-phase
    /// profile fields are accumulated into `profile`.
    pub(crate) fn k_orbital_contribs(
        &self,
        setup: &KBuildSetup,
        eps: f64,
        slots: &[usize],
        profile: &mut BuildProfile,
    ) -> Result<Vec<OrbitalContrib>> {
        let nao = setup.geom.nao();
        let plan_window = super::profile::PlanCacheWindow::open();
        // For each (j, ν): v_jν = Poisson[φ_j χ_ν]; then
        // K_μν += ∫ χ_μ φ_j v_jν — the pair-task structure of the energy
        // path. The task list is canonical: j-major, ν-ascending. With a
        // finite ε the AOs are binned once and each dirty orbital inspects
        // only AOs within its cutoff radius (the locality-first source of
        // the incremental dirty set); the partner sets — and therefore the
        // canonical order — are exactly the brute filter's.
        let tasks: Vec<(usize, usize)> = if eps <= 0.0 {
            profile.pairs_considered += slots.len() * nao;
            slots
                .iter()
                .flat_map(|&j| (0..nao).map(move |nu| (j, nu)))
                .collect()
        } else if eps > 1.0 {
            // Every bound is ≤ 1: nothing survives, nothing to inspect.
            Vec::new()
        } else {
            let ao_info = &setup.geom.ao_info;
            let bins = crate::screening::CrossBins::new(ao_info, eps)?;
            let mut tasks = Vec::new();
            let mut partners = Vec::new();
            for &j in slots {
                profile.pairs_considered +=
                    bins.partners(&setup.orb_info[j], ao_info, &mut partners);
                tasks.extend(partners.iter().map(|&nu| (j, nu)));
            }
            tasks
        };
        let t0 = Instant::now();
        let cols = self.run_k_tasks(setup, &tasks, profile)?;
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        plan_window.record(profile);
        let mut slot_of = vec![usize::MAX; setup.nocc];
        for (s, &j) in slots.iter().enumerate() {
            slot_of[j] = s;
        }
        let mut out: Vec<((usize, Mat), (usize, usize))> = slots
            .iter()
            .map(|&j| ((j, Mat::zeros(nao, nao)), (0, nao)))
            .collect();
        // Accumulate columns in canonical task order — the fixed sequence
        // shared by every backend and the incremental rebuild.
        for (t, col) in cols.iter().enumerate() {
            let (j, nu) = tasks[t];
            let ((_, dk), (ev, sk)) = &mut out[slot_of[j]];
            for mu in 0..nao {
                dk[(mu, nu)] += col[mu];
            }
            *ev += 1;
            *sk -= 1;
        }
        Ok(out)
    }

    /// Execute the task list on the configured backend, returning the
    /// nao-length output columns in canonical task order.
    fn run_k_tasks(
        &self,
        setup: &KBuildSetup,
        tasks: &[(usize, usize)],
        profile: &mut BuildProfile,
    ) -> Result<Vec<Vec<f64>>> {
        let nao = setup.geom.nao();
        let aos = &setup.geom.aos;
        let npts = self.grid.len();
        let dvol = self.grid.dvol();
        let level = self.simd_choice();
        let solver = self.full_solver();
        let eval = |sc: &mut KTaskScratch, t: usize| -> (Vec<f64>, KernelTimings, usize) {
            let (j, nu) = tasks[t];
            let grew = sc.ensure(npts) as usize;
            let KTaskScratch { rho, ws } = sc;
            for ((r, &a), &b) in rho.iter_mut().zip(&setup.orbitals[j]).zip(&aos[nu]) {
                *r = a * b;
            }
            let v = solver.solve_into_with(level, rho, ws);
            // column ν of ΔK_j gets ⟨χ_μ φ_j | v_jν⟩ for every μ.
            let col: Vec<f64> = (0..nao)
                .map(|mu| {
                    let mut acc = 0.0;
                    for p in 0..npts {
                        acc += aos[mu][p] * setup.orbitals[j][p] * v[p];
                    }
                    acc * dvol
                })
                .collect();
            (col, sc.ws.take_timings(), grew)
        };
        match self.backend() {
            ExecBackend::Serial => {
                let mut sc = KTaskScratch::default();
                let mut cols = Vec::with_capacity(tasks.len());
                for t in 0..tasks.len() {
                    let (col, tim, grew) = eval(&mut sc, t);
                    profile.t_fft_s += tim.fft_s;
                    profile.t_kernel_s += tim.kernel_s;
                    profile.steady_allocs += grew;
                    cols.push(col);
                }
                Ok(cols)
            }
            ExecBackend::Rayon => {
                let results: Vec<(Vec<f64>, KernelTimings, usize)> = (0..tasks.len())
                    .into_par_iter()
                    .map_init(KTaskScratch::default, |sc, t| eval(sc, t))
                    .collect();
                let mut cols = Vec::with_capacity(tasks.len());
                for (col, tim, grew) in results {
                    profile.t_fft_s += tim.fft_s;
                    profile.t_kernel_s += tim.kernel_s;
                    profile.steady_allocs += grew;
                    cols.push(col);
                }
                Ok(cols)
            }
            ExecBackend::Comm { nranks, strategy } => {
                if nranks == 0 {
                    return Err(Error::InvalidConfig("need at least one rank".into()));
                }
                let tuning = self.comm_tuning();
                if tuning.pipeline == PipelineMode::Pipelined {
                    // Pipelined overlap: tasks stream to the root as
                    // `(task id, column)` entries while ranks compute, and
                    // the steal queue rebalances the tail — reassembled in
                    // canonical task order, so identical to staged/serial.
                    let job = pipeline::PipelineJob {
                        nitems: tasks.len(),
                        width: nao,
                        nranks,
                        strategy,
                    };
                    let wrap = |sc: &mut KTaskScratch, t: usize, buf: &mut Vec<f64>| {
                        let (col, tim, grew) = eval(sc, t);
                        buf.extend_from_slice(&col);
                        (tim, grew)
                    };
                    let flat = pipeline::run_pipelined(
                        &job,
                        &KTaskScratch::default,
                        &wrap,
                        &tuning,
                        profile,
                    )?;
                    return Ok(flat.chunks_exact(nao).map(<[f64]>::to_vec).collect());
                }
                let costs = vec![1.0; tasks.len()];
                let assignment = assign(&costs, nranks, strategy);
                let cfg = CommConfig {
                    mode: tuning.collectives,
                    fault: tuning.fault,
                    torus: None,
                };
                let run = run_spmd_cfg(nranks, cfg, |comm| {
                    if comm.stalled() {
                        return Ok(None);
                    }
                    let mine = &assignment.per_rank[comm.rank()];
                    let mut sc = KTaskScratch::default();
                    let mut tim = KernelTimings::default();
                    let mut grew = 0usize;
                    let mut flat = Vec::with_capacity(nao * mine.len() + 3);
                    for &t in mine {
                        let (col, dt, g) = eval(&mut sc, t);
                        flat.extend_from_slice(&col);
                        tim.merge(dt);
                        grew += g;
                    }
                    flat.push(tim.fft_s);
                    flat.push(tim.kernel_s);
                    flat.push(grew as f64);
                    // The single collective of the build, timed at the
                    // root (pure exposed reduce latency).
                    let tg = Instant::now();
                    let parts = comm.gather_partial(0, flat)?;
                    Ok(parts.map(|p| (p, tg.elapsed().as_secs_f64())))
                })
                .map_err(Error::Comm)?;
                if let Some((_, _, _, _, retries)) = run.fault_stats {
                    profile.comm_retries += retries;
                }
                let (parts, t_gather) = run
                    .results
                    .into_iter()
                    .next()
                    .expect("nranks >= 1")
                    .map_err(Error::Comm)?
                    .expect("rank 0 never stalls and is the gather root");
                profile.t_reduce_s += t_gather;
                let mut cols = vec![Vec::new(); tasks.len()];
                let mut reissue_sc: Option<KTaskScratch> = None;
                for (r, part) in parts.iter().enumerate() {
                    let mine = &assignment.per_rank[r];
                    match part {
                        Some(part) => {
                            for (slot, &t) in mine.iter().enumerate() {
                                cols[t] = part[slot * nao..(slot + 1) * nao].to_vec();
                            }
                            let base = nao * mine.len();
                            profile.t_fft_s += part[base];
                            profile.t_kernel_s += part[base + 1];
                            profile.steady_allocs += part[base + 2] as usize;
                            profile.bytes_reduced += part.len() * std::mem::size_of::<f64>();
                        }
                        None => {
                            // Graceful degradation: re-run the stalled
                            // rank's tasks through the identical kernel —
                            // same columns, bit for bit.
                            profile.ranks_stalled += 1;
                            let sc = reissue_sc.get_or_insert_with(KTaskScratch::default);
                            for &t in mine {
                                let (col, tim, grew) = eval(sc, t);
                                profile.t_fft_s += tim.fft_s;
                                profile.t_kernel_s += tim.kernel_s;
                                profile.steady_allocs += grew;
                                profile.chunks_reissued += 1;
                                cols[t] = col;
                            }
                        }
                    }
                }
                Ok(cols)
            }
        }
    }
}
