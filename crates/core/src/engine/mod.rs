//! The staged exchange-build engine every driver routes through.
//!
//! Before this module existed the repo had five executors of the same
//! algorithm — the rayon energy loop (`crate::hfx`), the patched energy
//! loop, the K-operator builder (`crate::operator`), the message-passing
//! twins (`crate::distributed`), and the incremental dirty-set recompute
//! (`crate::incremental`) — each owning its own scratch lifetimes, kernel
//! choice, and reduction order. [`ExchangeEngine`] folds them into one
//! staged pipeline:
//!
//! 1. **pair source** — a screened [`PairList`], an explicit dirty slice
//!    (incremental), or the `(occupied j, AO ν)` K-task list;
//! 2. **execute** — an [`ExecBackend`]: serial, rayon, or message-passing
//!    over `liair-runtime` ranks, all running the *identical* per-chunk
//!    kernel ([`autotune::KernelChoice`] resolved in exactly one place);
//! 3. **accumulate** — per-pair contributions reassembled in canonical
//!    pair-list order and summed sequentially, or per-task K columns
//!    accumulated in canonical task order — so every backend produces the
//!    same floating-point sequence, which is what makes the cross-driver
//!    equivalence suite exact rather than tolerance-based.
//!
//! Every build fills the same [`BuildProfile`]: per-phase wall times (AO
//! eval, FFT, kernel multiply, execute, reduce) and work counters (pairs
//! screened/computed/reused, cache hits, bytes reduced, steady-state
//! allocations). The public entry points in `hfx`, `operator`,
//! `distributed`, and `incremental` are thin configurations of this type.

pub mod autotune;
pub(crate) mod kpath;
pub(crate) mod pipeline;
pub mod profile;

pub use autotune::{kernel_choice_for, KernelChoice, PairPath};
pub use kpath::{KBuildOutcome, KGeometry};
pub use profile::BuildProfile;
// The collective/fault types appear in the builder's public API;
// re-export them so engine users need not depend on the runtime crate.
pub use liair_runtime::{CollectiveMode, FaultPlan};

use crate::balance::{assign, BalanceStrategy};
use crate::error::{Error, Result};
use crate::hfx::HfxResult;
use crate::incremental::IncStats;
use crate::screening::{OrbitalInfo, Pair, PairList};
use liair_grid::patch::{patch_pair_energy_ws_with, PatchScratch};
use liair_grid::{KernelTimings, PoissonSolver, PoissonWorkspace, RealGrid};
use liair_math::simd::{self, SimdLevel};
use liair_runtime::{run_spmd_cfg, CommConfig};
use rayon::prelude::*;
use std::time::Instant;

/// How the execute stage runs its chunk list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// One worker, ascending chunk order — the reference execution and the
    /// strict zero-allocation path ([`ExchangeEngine::energy_into`]).
    Serial,
    /// Rayon work-stealing over chunks (the shared-memory production
    /// path). Results are collected in chunk order, so the reduction is
    /// deterministic regardless of the steal schedule.
    Rayon,
    /// Message-passing over `nranks` virtual ranks of the
    /// `liair-runtime` threaded backend: chunks are assigned up front by
    /// `strategy` (no coordination traffic), each rank evaluates its share
    /// with the node-local kernel, and one gather per build lands every
    /// contribution on the root — the communication-avoiding structure of
    /// the paper.
    Comm {
        /// Virtual rank count.
        nranks: usize,
        /// Static chunk-assignment strategy.
        strategy: BalanceStrategy,
    },
}

/// How the distributed backend's exec/reduce stages are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Synchronous phases: every rank finishes its whole share, then one
    /// gather per build lands everything on the root. Static assignment
    /// only; the collective is pure exposed latency.
    Staged,
    /// Double-buffered comm/compute overlap (the default): workers stream
    /// finished chunks into an in-flight reassembly while computing the
    /// next one, the root ingests between its own chunks, and a
    /// root-owned steal queue rebalances the tail and re-issues a
    /// straggler's chunks as soon as its timeout fires. Bit-identical to
    /// [`PipelineMode::Staged`] by canonical-order reassembly.
    Pipelined,
}

/// How the distributed backend's collectives run: algorithm family,
/// exec/reduce scheduling, plus the (optional) fault plan the region
/// executes under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommTuning {
    /// Collective algorithm family of the build's gather. Hierarchical
    /// (binomial tree) is the default — gathers move data without
    /// arithmetic, so the canonical-order bitwise guarantee is preserved
    /// while the root's in-degree drops from `P − 1` to `⌈log₂ P⌉`.
    pub collectives: CollectiveMode,
    /// Exec/reduce scheduling of the distributed backend (default:
    /// pipelined overlap).
    pub pipeline: PipelineMode,
    /// Deterministic fault plan the region runs under (`None` = clean).
    pub fault: Option<FaultPlan>,
}

impl CommTuning {
    /// The environment-driven default: `LIAIR_COLLECTIVES` (`flat` |
    /// `hier`/`hierarchical`, default hierarchical), `LIAIR_PIPELINE`
    /// (`off`/`staged` | `on`/`pipelined`, default pipelined) and the
    /// `LIAIR_FAULT_SEED` fault matrix knob.
    pub fn from_env() -> Self {
        let collectives = match std::env::var("LIAIR_COLLECTIVES") {
            Ok(v) if v.trim().eq_ignore_ascii_case("flat") => CollectiveMode::Flat,
            _ => CollectiveMode::Hierarchical,
        };
        let pipeline = match std::env::var("LIAIR_PIPELINE") {
            Ok(v) if ["off", "staged", "0"].contains(&v.trim().to_ascii_lowercase().as_str()) => {
                PipelineMode::Staged
            }
            _ => PipelineMode::Pipelined,
        };
        CommTuning {
            collectives,
            pipeline,
            fault: FaultPlan::from_env(),
        }
    }
}

impl Default for CommTuning {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The unified exchange-build driver: borrow a grid and its Poisson
/// solver, pick a backend, and every exchange product — pair energies,
/// patched pair energies, the K operator — comes out of the same staged
/// pipeline with the same [`BuildProfile`] instrumentation.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeEngine<'a> {
    grid: &'a RealGrid,
    /// Full-cell Poisson solver; `None` for a patched-only engine (patches
    /// solve on their own per-shape cached solvers).
    solver: Option<&'a PoissonSolver>,
    backend: ExecBackend,
    choice: Option<KernelChoice>,
    tuning: CommTuning,
}

/// Fluent, validated construction of an [`ExchangeEngine`] — the one
/// place every knob (backend, kernel pinning, pair path, SIMD level,
/// collective family, fault plan) composes. [`EngineBuilder::build`]
/// rejects inconsistent configurations as [`Error::InvalidConfig`]
/// instead of letting them panic mid-build.
#[derive(Debug, Clone, Copy)]
pub struct EngineBuilder<'a> {
    grid: &'a RealGrid,
    solver: Option<&'a PoissonSolver>,
    backend: ExecBackend,
    choice: Option<KernelChoice>,
    path: Option<PairPath>,
    simd: Option<SimdLevel>,
    tuning: CommTuning,
}

impl<'a> EngineBuilder<'a> {
    fn new(grid: &'a RealGrid, solver: Option<&'a PoissonSolver>) -> Self {
        EngineBuilder {
            grid,
            solver,
            backend: ExecBackend::Rayon,
            choice: None,
            path: None,
            simd: None,
            tuning: CommTuning::from_env(),
        }
    }

    /// Run the execute stage on this backend (default: rayon).
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Pin the whole kernel choice (pair path + SIMD level) instead of
    /// autotuning. Overrides [`EngineBuilder::pair_path`] /
    /// [`EngineBuilder::simd`].
    pub fn kernel_choice(mut self, choice: KernelChoice) -> Self {
        self.choice = Some(choice);
        self
    }

    /// Pin only the pair path (single / batched); the SIMD level stays
    /// autotuned unless [`EngineBuilder::simd`] pins it too.
    pub fn pair_path(mut self, path: PairPath) -> Self {
        self.path = Some(path);
        self
    }

    /// Pin only the SIMD level; the pair path stays autotuned unless
    /// [`EngineBuilder::pair_path`] pins it too.
    pub fn simd(mut self, level: SimdLevel) -> Self {
        self.simd = Some(level);
        self
    }

    /// Collective algorithm family of the distributed backend.
    pub fn collectives(mut self, mode: CollectiveMode) -> Self {
        self.tuning.collectives = mode;
        self
    }

    /// Exec/reduce scheduling of the distributed backend: staged
    /// phases or pipelined comm/compute overlap (the default).
    pub fn pipeline(mut self, mode: PipelineMode) -> Self {
        self.tuning.pipeline = mode;
        self
    }

    /// Run the distributed backend under this deterministic fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.tuning.fault = Some(plan);
        self
    }

    /// Run fault-free even when `LIAIR_FAULT_SEED` is set (pinned
    /// baselines).
    pub fn no_faults(mut self) -> Self {
        self.tuning.fault = None;
        self
    }

    /// Validate and produce the engine.
    pub fn build(self) -> Result<ExchangeEngine<'a>> {
        if let ExecBackend::Comm { nranks, .. } = self.backend {
            if nranks == 0 {
                return Err(Error::InvalidConfig(
                    "Comm backend needs at least one rank".into(),
                ));
            }
        }
        if let Some(plan) = self.tuning.fault {
            plan.validate().map_err(Error::Comm)?;
        }
        if self.choice.is_some() && (self.path.is_some() || self.simd.is_some()) {
            return Err(Error::InvalidConfig(
                "kernel_choice() already pins path and SIMD; drop pair_path()/simd()".into(),
            ));
        }
        // A partially-pinned kernel resolves the other half at autotune
        // time; a fully-pinned pair (path, simd) collapses to a choice.
        let choice = match (self.choice, self.path, self.simd) {
            (Some(c), _, _) => Some(c),
            (None, Some(path), Some(simd)) => Some(KernelChoice { path, simd }),
            (None, Some(path), None) => Some(KernelChoice {
                path,
                simd: simd::level(),
            }),
            (None, None, Some(level)) => {
                let path = match (autotune::env_pair_path(), self.solver) {
                    (Some(p), _) => p,
                    (None, Some(solver)) => kernel_choice_for(solver, self.grid).path,
                    // Patched-only engines never consult the pair path.
                    (None, None) => PairPath::Batched,
                };
                Some(KernelChoice { path, simd: level })
            }
            (None, None, None) => None,
        };
        Ok(ExchangeEngine {
            grid: self.grid,
            solver: self.solver,
            backend: self.backend,
            choice,
            tuning: self.tuning,
        })
    }
}

/// What one chunk of work sends back through the execute stage.
struct ChunkOut {
    a: f64,
    b: f64,
    t: KernelTimings,
    grew: usize,
}

/// Per-worker scratch for the pair loop: two pair densities plus the
/// Poisson workspace. Grow-once, reused across all pairs a worker takes.
#[derive(Debug, Default)]
pub(crate) struct HfxScratch {
    rho_a: Vec<f64>,
    rho_b: Vec<f64>,
    ws: PoissonWorkspace,
}

impl HfxScratch {
    /// Size the density buffers for an `n`-point grid; returns whether
    /// they actually grew (a steady-state build reports 0 growth events).
    fn ensure(&mut self, n: usize) -> bool {
        if self.rho_a.len() != n {
            self.rho_a.resize(n, 0.0);
            self.rho_b.resize(n, 0.0);
            true
        } else {
            false
        }
    }
}

/// Caller-owned scratch for [`ExchangeEngine::energy_into`]: the pair
/// scratch plus the contribution vector, so a warm repeat build performs
/// zero heap allocations.
#[derive(Debug, Default)]
pub struct EngineScratch {
    pair: HfxScratch,
    contribs: Vec<f64>,
}

impl EngineScratch {
    /// Empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

fn form_pair_density(level: SimdLevel, out: &mut [f64], phi_i: &[f64], phi_j: &[f64]) {
    simd::mul_into_with(level, out, phi_i, phi_j);
}

/// Evaluate one chunk of ≤ 2 pairs, returning the weighted contribution
/// `−w (ij|ij)` of each slot (second slot 0 for an odd tail). Every
/// backend — serial, rayon, message-passing, incremental dirty-set — runs
/// this identical floating-point path.
fn eval_pair_chunk(
    sc: &mut HfxScratch,
    chunk: &[Pair],
    choice: KernelChoice,
    solver: &PoissonSolver,
    orbitals: &[Vec<f64>],
) -> (f64, f64) {
    let level = choice.simd;
    match chunk {
        [p, q] if choice.path == PairPath::Batched => {
            form_pair_density(
                level,
                &mut sc.rho_a,
                &orbitals[p.i as usize],
                &orbitals[p.j as usize],
            );
            form_pair_density(
                level,
                &mut sc.rho_b,
                &orbitals[q.i as usize],
                &orbitals[q.j as usize],
            );
            let (ea, eb) =
                solver.exchange_pair_energy_batched_with(level, &sc.rho_a, &sc.rho_b, &mut sc.ws);
            (-p.weight * ea, -q.weight * eb)
        }
        _ => {
            let mut out = [0.0, 0.0];
            for (slot, p) in chunk.iter().enumerate() {
                form_pair_density(
                    level,
                    &mut sc.rho_a,
                    &orbitals[p.i as usize],
                    &orbitals[p.j as usize],
                );
                out[slot] =
                    -p.weight * solver.exchange_pair_energy_with(level, &sc.rho_a, &mut sc.ws);
            }
            (out[0], out[1])
        }
    }
}

impl<'a> ExchangeEngine<'a> {
    /// Engine over `grid`/`solver` with the rayon backend (the
    /// shared-memory production default) and the autotuned kernel choice.
    /// Shorthand for `ExchangeEngine::builder(grid, solver).build()`.
    pub fn new(grid: &'a RealGrid, solver: &'a PoissonSolver) -> Self {
        ExchangeEngine {
            grid,
            solver: Some(solver),
            backend: ExecBackend::Rayon,
            choice: None,
            tuning: CommTuning::from_env(),
        }
    }

    /// Engine for the patched energy path only: no full-cell solver is
    /// built or borrowed (each patch shape uses its own cached solver).
    /// Calling a full-cell path on this engine panics (or returns
    /// [`Error::MissingSolver`] on the `try_` paths).
    pub fn for_patches(grid: &'a RealGrid) -> Self {
        ExchangeEngine {
            grid,
            solver: None,
            backend: ExecBackend::Rayon,
            choice: None,
            tuning: CommTuning::from_env(),
        }
    }

    /// Fluent, validated configuration — the front door for every knob
    /// (backend, kernel pinning, collective family, fault plan).
    pub fn builder(grid: &'a RealGrid, solver: &'a PoissonSolver) -> EngineBuilder<'a> {
        EngineBuilder::new(grid, Some(solver))
    }

    /// Builder for a patched-only engine (see
    /// [`ExchangeEngine::for_patches`]).
    pub fn builder_for_patches(grid: &'a RealGrid) -> EngineBuilder<'a> {
        EngineBuilder::new(grid, None)
    }

    /// The backend this engine executes on.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// The collective tuning of the distributed backend.
    pub fn comm_tuning(&self) -> CommTuning {
        self.tuning
    }

    /// The full-cell Poisson solver (panics on a patched-only engine).
    pub(crate) fn full_solver(&self) -> &'a PoissonSolver {
        self.solver
            .expect("this engine path needs a full-cell Poisson solver (use ExchangeEngine::new)")
    }

    /// The full-cell Poisson solver as a typed error on a patched-only
    /// engine.
    fn try_full_solver(&self) -> Result<&'a PoissonSolver> {
        self.solver.ok_or(Error::MissingSolver)
    }

    /// Validate the orbital set against the engine's grid.
    fn validate_orbitals(&self, orbitals: &[Vec<f64>]) -> Result<()> {
        if orbitals.is_empty() {
            return Err(Error::EmptyOrbitals);
        }
        let expected = self.grid.len();
        for (idx, o) in orbitals.iter().enumerate() {
            if o.len() != expected {
                return Err(Error::OrbitalSizeMismatch {
                    expected,
                    got: o.len(),
                    orbital: idx,
                });
            }
        }
        Ok(())
    }

    /// Kernel choice of the full-cell energy path: pinned, or autotuned
    /// per grid shape (cached for the process lifetime).
    fn energy_choice(&self) -> Result<KernelChoice> {
        match self.choice {
            Some(c) => Ok(c),
            None => Ok(kernel_choice_for(self.try_full_solver()?, self.grid)),
        }
    }

    /// SIMD level of the paths that have no batched variant (K tasks,
    /// patched pairs): pinned, or the runtime-detected level.
    pub(crate) fn simd_choice(&self) -> SimdLevel {
        self.choice.map(|c| c.simd).unwrap_or_else(simd::level)
    }

    /// Execute stage: run `npairs.div_ceil(2)` chunks on the configured
    /// backend and return the per-pair contributions *in canonical pair
    /// order*, accumulating kernel timings and scratch-growth counts into
    /// `profile`. Chunks — not pairs — are the distribution unit, because
    /// the batched kernel ties each pair's rounding to its chunk partner;
    /// keeping chunk boundaries at absolute pair-list positions is what
    /// makes every backend bit-identical.
    fn run_chunks<S, I, F>(
        &self,
        npairs: usize,
        init: I,
        eval: F,
        profile: &mut BuildProfile,
    ) -> Result<Vec<f64>>
    where
        S: Send,
        I: Fn() -> S + Send + Sync,
        F: Fn(&mut S, usize) -> ChunkOut + Send + Sync,
    {
        let nchunks = npairs.div_ceil(2);
        let per_chunk: Vec<ChunkOut> = match self.backend {
            ExecBackend::Serial => {
                let mut sc = init();
                (0..nchunks).map(|ci| eval(&mut sc, ci)).collect()
            }
            ExecBackend::Rayon => (0..nchunks)
                .into_par_iter()
                .map_init(&init, |sc, ci| eval(sc, ci))
                .collect(),
            ExecBackend::Comm { nranks, strategy } => {
                return match self.tuning.pipeline {
                    PipelineMode::Staged => {
                        self.run_chunks_comm(npairs, &init, &eval, nranks, strategy, profile)
                    }
                    PipelineMode::Pipelined => {
                        let job = pipeline::PipelineJob {
                            nitems: nchunks,
                            width: 2,
                            nranks,
                            strategy,
                        };
                        let wrap = |sc: &mut S, ci: usize, buf: &mut Vec<f64>| {
                            let c = eval(sc, ci);
                            buf.push(c.a);
                            buf.push(c.b);
                            (c.t, c.grew)
                        };
                        let mut flat =
                            pipeline::run_pipelined(&job, &init, &wrap, &self.tuning, profile)?;
                        // The last chunk's second slot is padding when the
                        // pair count is odd.
                        flat.truncate(npairs);
                        Ok(flat)
                    }
                };
            }
        };
        let mut out = Vec::with_capacity(npairs);
        for (ci, c) in per_chunk.into_iter().enumerate() {
            profile.t_fft_s += c.t.fft_s;
            profile.t_kernel_s += c.t.kernel_s;
            profile.steady_allocs += c.grew;
            out.push(c.a);
            if 2 * ci + 1 < npairs {
                out.push(c.b);
            }
        }
        Ok(out)
    }

    /// The message-passing execute stage: whole chunks are assigned to
    /// ranks up front (unit cost — every chunk is one or two Poisson
    /// solves), each rank walks its share with one grow-once scratch, and
    /// a single gather per build moves `[chunk contributions…, fft_s,
    /// kernel_s, growth]` to the root, which reassembles canonical pair
    /// order from the deterministic assignment.
    ///
    /// The gather runs the engine's [`CommTuning`]: hierarchical
    /// (binomial-tree) by default — pure data movement, so the canonical
    /// reassembly stays bit-identical to the flat algorithm — and
    /// fault-tolerant when a [`FaultPlan`] is active: a rank that stalls
    /// past the retry budget leaves a hole in the partial gather, and the
    /// root re-issues that rank's chunks locally through the *identical*
    /// kernel (same floating-point sequence, so even a degraded build is
    /// bitwise-equal to a clean one). Stall/re-issue/retry counts land in
    /// the [`BuildProfile`].
    fn run_chunks_comm<S, I, F>(
        &self,
        npairs: usize,
        init: &I,
        eval: &F,
        nranks: usize,
        strategy: BalanceStrategy,
        profile: &mut BuildProfile,
    ) -> Result<Vec<f64>>
    where
        S: Send,
        I: Fn() -> S + Send + Sync,
        F: Fn(&mut S, usize) -> ChunkOut + Send + Sync,
    {
        if nranks == 0 {
            return Err(Error::InvalidConfig("need at least one rank".into()));
        }
        let nchunks = npairs.div_ceil(2);
        let costs = vec![1.0; nchunks];
        let assignment = assign(&costs, nranks, strategy);
        let cfg = CommConfig {
            mode: self.tuning.collectives,
            fault: self.tuning.fault,
            torus: None,
        };
        let run = run_spmd_cfg(nranks, cfg, |comm| {
            if comm.stalled() {
                return Ok(None);
            }
            let mine = &assignment.per_rank[comm.rank()];
            let mut sc = init();
            let mut t = KernelTimings::default();
            let mut grew = 0usize;
            let mut flat = Vec::with_capacity(2 * mine.len() + 3);
            for &ci in mine {
                let c = eval(&mut sc, ci);
                flat.push(c.a);
                flat.push(c.b);
                t.merge(c.t);
                grew += c.grew;
            }
            flat.push(t.fft_s);
            flat.push(t.kernel_s);
            flat.push(grew as f64);
            // The single collective of the build, timed at the root: the
            // staged gather is pure exposed reduce latency, the quantity
            // the pipelined backend exists to hide.
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
        let mut out = vec![0.0; npairs];
        let mut reissue_sc: Option<S> = None;
        for (r, part) in parts.iter().enumerate() {
            let mine = &assignment.per_rank[r];
            match part {
                Some(part) => {
                    for (slot, &ci) in mine.iter().enumerate() {
                        out[2 * ci] = part[2 * slot];
                        if 2 * ci + 1 < npairs {
                            out[2 * ci + 1] = part[2 * slot + 1];
                        }
                    }
                    let base = 2 * mine.len();
                    profile.t_fft_s += part[base];
                    profile.t_kernel_s += part[base + 1];
                    profile.steady_allocs += part[base + 2] as usize;
                    profile.bytes_reduced += part.len() * std::mem::size_of::<f64>();
                }
                None => {
                    // Graceful degradation: the rank stalled (or its
                    // subtree was lost); recompute its chunks here with
                    // the same kernel — bit-identical contributions in
                    // the same canonical slots.
                    profile.ranks_stalled += 1;
                    let sc = reissue_sc.get_or_insert_with(init);
                    for &ci in mine {
                        let c = eval(sc, ci);
                        out[2 * ci] = c.a;
                        if 2 * ci + 1 < npairs {
                            out[2 * ci + 1] = c.b;
                        }
                        profile.t_fft_s += c.t.fft_s;
                        profile.t_kernel_s += c.t.kernel_s;
                        profile.steady_allocs += c.grew;
                        profile.chunks_reissued += 1;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Per-pair weighted contributions `−w_ij (ij|ij)` over an explicit
    /// pair slice, in pair order — the recompute stage the incremental
    /// build points at its dirty set. Fills the execute-phase fields of
    /// `profile` (times, growth); the caller owns the counters.
    pub fn pair_contribs(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &[Pair],
        profile: &mut BuildProfile,
    ) -> Vec<f64> {
        self.try_pair_contribs(orbitals, pairs, profile)
            .unwrap_or_else(|e| panic!("exchange pair build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::pair_contribs`]: orbital-shape
    /// and configuration problems, and unrecovered communication
    /// failures, come back as typed [`Error`]s.
    pub fn try_pair_contribs(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &[Pair],
        profile: &mut BuildProfile,
    ) -> Result<Vec<f64>> {
        if !orbitals.is_empty() {
            self.validate_orbitals(orbitals)?;
        }
        let plan_window = profile::PlanCacheWindow::open();
        let choice = self.energy_choice()?;
        let n = self.grid.len();
        let solver = self.try_full_solver()?;
        let t0 = Instant::now();
        let contribs = self.run_chunks(
            pairs.len(),
            HfxScratch::default,
            |sc, ci| {
                let grew = sc.ensure(n) as usize;
                let chunk = &pairs[2 * ci..(2 * ci + 2).min(pairs.len())];
                let (a, b) = eval_pair_chunk(sc, chunk, choice, solver, orbitals);
                ChunkOut {
                    a,
                    b,
                    t: sc.ws.take_timings(),
                    grew,
                }
            },
            profile,
        )?;
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        plan_window.record(profile);
        Ok(contribs)
    }

    /// Full-cell exchange energy over a screened pair list: execute on the
    /// configured backend, then reduce with an ordered sequential sum (the
    /// same floating-point sequence on every backend).
    pub fn energy(&self, orbitals: &[Vec<f64>], pairs: &PairList) -> HfxResult {
        self.try_energy(orbitals, pairs)
            .unwrap_or_else(|e| panic!("exchange build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::energy`].
    pub fn try_energy(&self, orbitals: &[Vec<f64>], pairs: &PairList) -> Result<HfxResult> {
        self.validate_orbitals(orbitals)?;
        let mut profile = BuildProfile::default();
        let contribs = self.try_pair_contribs(orbitals, &pairs.pairs, &mut profile)?;
        Ok(self.finish_energy(contribs, pairs, profile))
    }

    /// Exchange energy over *pair-local patches* instead of full-cell
    /// transforms (the compact-representation path): same staging, with a
    /// per-worker [`PatchScratch`] and per-shape cached patch solvers.
    /// The patch spans the center separation plus three spreads per
    /// orbital plus `margin` Bohr.
    pub fn energy_patched(
        &self,
        orbitals: &[Vec<f64>],
        infos: &[OrbitalInfo],
        pairs: &PairList,
        margin: f64,
    ) -> HfxResult {
        self.try_energy_patched(orbitals, infos, pairs, margin)
            .unwrap_or_else(|e| panic!("patched exchange build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::energy_patched`].
    pub fn try_energy_patched(
        &self,
        orbitals: &[Vec<f64>],
        infos: &[OrbitalInfo],
        pairs: &PairList,
        margin: f64,
    ) -> Result<HfxResult> {
        if orbitals.len() != infos.len() {
            return Err(Error::InvalidConfig(format!(
                "{} orbitals but {} OrbitalInfo records",
                orbitals.len(),
                infos.len()
            )));
        }
        let level = self.simd_choice();
        let h = self.grid.spacing().x;
        let grid = self.grid;
        let plist = &pairs.pairs;
        let mut profile = BuildProfile::default();
        let plan_window = profile::PlanCacheWindow::open();
        let t0 = Instant::now();
        let contribs = self.run_chunks(
            plist.len(),
            PatchScratch::new,
            |scratch, ci| {
                let chunk = &plist[2 * ci..(2 * ci + 2).min(plist.len())];
                let mut out = [0.0, 0.0];
                for (slot, p) in chunk.iter().enumerate() {
                    let (i, j) = (p.i as usize, p.j as usize);
                    let (a, b) = (&infos[i], &infos[j]);
                    let d = a.center.distance(b.center);
                    let midpoint = (a.center + b.center) * 0.5;
                    let phys = d + 3.0 * (a.spread + b.spread) + 2.0 * margin;
                    let extent = ((phys / h).ceil() as usize).max(8);
                    let e_pair = patch_pair_energy_ws_with(
                        level,
                        grid,
                        &orbitals[i],
                        &orbitals[j],
                        midpoint,
                        extent,
                        scratch,
                    );
                    out[slot] = -p.weight * e_pair;
                }
                ChunkOut {
                    a: out[0],
                    b: out[1],
                    t: scratch.take_timings(),
                    grew: 0,
                }
            },
            &mut profile,
        )?;
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        plan_window.record(&mut profile);
        Ok(self.finish_energy(contribs, pairs, profile))
    }

    /// Strict zero-allocation energy build: serial execution into a
    /// caller-owned [`EngineScratch`]. A warm repeat build (same grid,
    /// same pair count) performs no heap allocations at all — the property
    /// the counting-allocator test pins down.
    pub fn energy_into(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &PairList,
        scratch: &mut EngineScratch,
    ) -> HfxResult {
        self.try_energy_into(orbitals, pairs, scratch)
            .unwrap_or_else(|e| panic!("exchange build failed: {e}"))
    }

    /// Fallible twin of [`ExchangeEngine::energy_into`].
    pub fn try_energy_into(
        &self,
        orbitals: &[Vec<f64>],
        pairs: &PairList,
        scratch: &mut EngineScratch,
    ) -> Result<HfxResult> {
        self.validate_orbitals(orbitals)?;
        let choice = self.energy_choice()?;
        let npairs = pairs.len();
        let mut profile = BuildProfile::default();
        // Stats snapshots are plain stack copies — the zero-alloc
        // guarantee of this path is untouched.
        let plan_window = profile::PlanCacheWindow::open();
        let t0 = Instant::now();
        profile.steady_allocs += scratch.pair.ensure(self.grid.len()) as usize;
        profile.steady_allocs += (npairs > scratch.contribs.capacity()) as usize;
        scratch.contribs.clear();
        scratch.contribs.resize(npairs, 0.0);
        let solver = self.try_full_solver()?;
        for ci in 0..npairs.div_ceil(2) {
            let chunk = &pairs.pairs[2 * ci..(2 * ci + 2).min(npairs)];
            let (a, b) = eval_pair_chunk(&mut scratch.pair, chunk, choice, solver, orbitals);
            scratch.contribs[2 * ci] = a;
            if 2 * ci + 1 < npairs {
                scratch.contribs[2 * ci + 1] = b;
            }
        }
        let t = scratch.pair.ws.take_timings();
        profile.t_fft_s += t.fft_s;
        profile.t_kernel_s += t.kernel_s;
        profile.t_exec_s += t0.elapsed().as_secs_f64();
        let tr = Instant::now();
        let energy: f64 = scratch.contribs.iter().sum();
        profile.t_reduce_s += tr.elapsed().as_secs_f64();
        profile.bytes_reduced += npairs * std::mem::size_of::<f64>();
        profile.pairs_computed = npairs;
        profile.pairs_screened = pairs.n_candidates - npairs;
        profile.pairs_considered = pairs.considered;
        plan_window.record(&mut profile);
        Ok(HfxResult {
            energy,
            pairs_evaluated: npairs,
            pairs_screened: pairs.n_candidates - npairs,
            inc: IncStats::default(),
            profile,
        })
    }

    /// Reduce stage of the energy paths: ordered sequential sum of the
    /// canonical contribution vector, plus the profile counters every
    /// build reports.
    fn finish_energy(
        &self,
        contribs: Vec<f64>,
        pairs: &PairList,
        mut profile: BuildProfile,
    ) -> HfxResult {
        let tr = Instant::now();
        let energy: f64 = contribs.iter().sum();
        profile.t_reduce_s += tr.elapsed().as_secs_f64();
        profile.bytes_reduced += contribs.len() * std::mem::size_of::<f64>();
        profile.pairs_computed = pairs.len();
        profile.pairs_screened = pairs.n_candidates - pairs.len();
        profile.pairs_considered = pairs.considered;
        HfxResult {
            energy,
            pairs_evaluated: pairs.len(),
            pairs_screened: pairs.n_candidates - pairs.len(),
            inc: IncStats::default(),
            profile,
        }
    }
}
