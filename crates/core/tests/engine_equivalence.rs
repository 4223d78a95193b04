//! Cross-driver equivalence suite for the staged [`ExchangeEngine`]: every
//! execution backend (serial, rayon, message-passing `Comm` under both
//! collective families and both exec/reduce schedules) must produce
//! **bit-identical** energies and K matrices for every runnable SIMD
//! level, and the incremental driver with `eps_inc = 0` must reproduce
//! the from-scratch build exactly. The energy fixtures come in an even
//! and an odd pair count: full chunks run the packed two-pair kernel, and
//! only an odd list's last pair runs the r2c single, so the odd fixture
//! is what keeps the single kernel under the bitwise guarantee. The
//! distributed backend must additionally hold the guarantee *under
//! injected faults* — dropped, delayed, duplicated messages and stalled
//! ranks — because retransmission and chunk re-issue replay the
//! identical kernel.
//!
//! The SIMD level is pinned through [`EngineBuilder::simd`] /
//! [`IncrementalExchange::force_simd`] rather than `LIAIR_SIMD` (the env
//! override is latched once per process), so one test binary can sweep
//! all levels. CI additionally runs the whole binary under a `LIAIR_SIMD`
//! matrix and a `LIAIR_FAULT_SEED` matrix to exercise the env-driven
//! defaults.

use liair_basis::{systems, Basis, Cell};
use liair_core::screening::{build_pair_list, OrbitalInfo, PairList};
use liair_core::{
    BalanceStrategy, CollectiveMode, ExchangeEngine, ExecBackend, FaultPlan, IncrementalExchange,
    PipelineMode,
};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::simd::available_levels;
use liair_math::Vec3;

/// Smooth synthetic "orbitals": normalized Gaussians at random centers.
fn synthetic_setup(
    norb: usize,
    n: usize,
) -> (
    RealGrid,
    PoissonSolver,
    Vec<Vec<f64>>,
    Vec<OrbitalInfo>,
    PairList,
) {
    let l = 14.0;
    let grid = RealGrid::cubic(Cell::cubic(l), n);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = SplitMix64::new(171);
    let centers: Vec<Vec3> = (0..norb)
        .map(|_| {
            Vec3::new(
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
                rng.range_f64(4.0, 10.0),
            )
        })
        .collect();
    let fields: Vec<Vec<f64>> = centers
        .iter()
        .map(|&c| {
            let alpha: f64 = 1.1;
            let norm = (2.0 * alpha / std::f64::consts::PI).powf(0.75);
            (0..grid.len())
                .map(|i| {
                    let d = grid.cell.min_image(c, grid.point_flat(i));
                    norm * (-alpha * d.norm_sqr()).exp()
                })
                .collect()
        })
        .collect();
    let infos: Vec<OrbitalInfo> = centers
        .iter()
        .map(|&c| OrbitalInfo {
            center: c,
            spread: 0.7,
        })
        .collect();
    let pairs = build_pair_list(&infos, 0.0, Some(&grid.cell));
    (grid, solver, fields, infos, pairs)
}

const MODES: [CollectiveMode; 2] = [CollectiveMode::Flat, CollectiveMode::Hierarchical];
const PIPELINES: [PipelineMode; 2] = [PipelineMode::Staged, PipelineMode::Pipelined];

/// Orbital counts whose unscreened pair lists (`n(n+1)/2` pairs) have an
/// even and an odd length; [`energy_fixtures`] asserts the parity.
const EVEN_ODD_NORB: [usize; 2] = [4, 5];

/// The even- and odd-length energy fixtures on an `n³` grid.
#[allow(clippy::type_complexity)]
fn energy_fixtures(
    n: usize,
) -> Vec<(
    RealGrid,
    PoissonSolver,
    Vec<Vec<f64>>,
    Vec<OrbitalInfo>,
    PairList,
)> {
    EVEN_ODD_NORB
        .iter()
        .zip([0, 1])
        .map(|(&norb, parity)| {
            let fx = synthetic_setup(norb, n);
            assert_eq!(fx.4.len() % 2, parity, "fixture parity drifted");
            fx
        })
        .collect()
}

#[test]
fn energy_bit_identical_across_backends() {
    for (grid, solver, fields, _infos, pairs) in energy_fixtures(20) {
        let npairs = pairs.len();
        for level in available_levels() {
            let base = ExchangeEngine::builder(&grid, &solver)
                .simd(level)
                .no_faults();
            let serial = base
                .backend(ExecBackend::Serial)
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            assert!(serial.energy < 0.0);
            assert!(serial.profile.is_populated());

            let rayon = base
                .backend(ExecBackend::Rayon)
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            assert_eq!(
                serial.energy.to_bits(),
                rayon.energy.to_bits(),
                "{npairs} pairs: serial vs rayon differ at {level:?}: {} vs {}",
                serial.energy,
                rayon.energy
            );

            for nranks in [1, 3, 4] {
                for strategy in [
                    BalanceStrategy::RoundRobin,
                    BalanceStrategy::Block,
                    BalanceStrategy::GreedyLpt,
                ] {
                    for mode in MODES {
                        for pipeline in PIPELINES {
                            let comm = base
                                .backend(ExecBackend::Comm { nranks, strategy })
                                .collectives(mode)
                                .pipeline(pipeline)
                                .build()
                                .unwrap()
                                .energy(&fields, &pairs);
                            assert_eq!(
                                serial.energy.to_bits(),
                                comm.energy.to_bits(),
                                "{npairs} pairs: serial vs comm(nranks={nranks}, {strategy:?}, \
                             {mode:?}, {pipeline:?}) differ at {level:?}: {} vs {}",
                                serial.energy,
                                comm.energy
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn energy_bit_identical_under_injected_faults() {
    // Retransmission (drops/delays/dups) and root-side chunk re-issue
    // (stalls) must not change a single bit of the result: recovered
    // messages carry the same payloads, and re-issued chunks replay the
    // identical kernel.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 16);
    let level = available_levels()[0];
    let clean = ExchangeEngine::builder(&grid, &solver)
        .simd(level)
        .no_faults()
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    for seed in [7u64, 1234] {
        for plan in [FaultPlan::messages_only(seed), FaultPlan::with_stalls(seed)] {
            for mode in MODES {
                let faulty = ExchangeEngine::builder(&grid, &solver)
                    .simd(level)
                    .backend(ExecBackend::Comm {
                        nranks: 4,
                        strategy: BalanceStrategy::GreedyLpt,
                    })
                    .collectives(mode)
                    .fault_plan(plan)
                    .build()
                    .unwrap()
                    .energy(&fields, &pairs);
                assert_eq!(
                    clean.energy.to_bits(),
                    faulty.energy.to_bits(),
                    "seed {seed} {mode:?}: faulty build drifted: {} vs {}",
                    clean.energy,
                    faulty.energy
                );
                // A stalled rank shows up in the profile as re-issued work.
                if faulty.profile.ranks_stalled > 0 {
                    assert!(
                        faulty.profile.chunks_reissued > 0,
                        "stalled ranks must re-issue their chunks"
                    );
                }
            }
        }
    }
}

#[test]
fn pipelined_overlap_bit_identical_under_fault_matrix() {
    // The CI fault matrix seeds (LIAIR_FAULT_SEED = 7, 13, 42), run
    // explicitly against both schedules: the pipelined backend's streamed
    // out-of-order reassembly, steal queue, and mid-build straggler
    // re-issue must leave every bit where the staged gather and the
    // serial reference put it.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 16);
    let nchunks = pairs.len().div_ceil(2);
    let level = available_levels()[0];
    let serial = ExchangeEngine::builder(&grid, &solver)
        .simd(level)
        .no_faults()
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    for seed in [7u64, 13, 42] {
        for mode in [PipelineMode::Staged, PipelineMode::Pipelined] {
            let out = ExchangeEngine::builder(&grid, &solver)
                .simd(level)
                .backend(ExecBackend::Comm {
                    nranks: 4,
                    strategy: BalanceStrategy::GreedyLpt,
                })
                .pipeline(mode)
                .fault_plan(FaultPlan::with_stalls(seed))
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            assert_eq!(
                serial.energy.to_bits(),
                out.energy.to_bits(),
                "seed {seed} {mode:?}: schedule changed the energy: {} vs {}",
                serial.energy,
                out.energy
            );
            if mode == PipelineMode::Pipelined {
                // A straggler's share is re-issued through the steal
                // queue as soon as its timeout fires, so every re-issued
                // chunk is also a stolen one.
                if out.profile.ranks_stalled > 0 {
                    assert!(out.profile.chunks_reissued > 0);
                }
                assert_eq!(
                    out.profile.chunks_stolen,
                    nchunks / 4 + out.profile.chunks_reissued,
                    "seed {seed}: tail + re-issues must each be granted exactly once"
                );
            } else {
                assert_eq!(out.profile.chunks_stolen, 0);
                assert_eq!(out.profile.steal_requests, 0);
            }
        }
    }
}

#[test]
fn pipelined_overlap_matches_staged_for_k_operator() {
    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let comm = ExecBackend::Comm {
        nranks: 3,
        strategy: BalanceStrategy::GreedyLpt,
    };
    let run = |mode| {
        ExchangeEngine::builder(&kgrid, &ksolver)
            .backend(comm)
            .pipeline(mode)
            .no_faults()
            .build()
            .unwrap()
            .k_operator(&basis, &c_occ, nocc, 0.0)
    };
    let staged = run(PipelineMode::Staged);
    let pipelined = run(PipelineMode::Pipelined);
    assert_eq!(staged.evaluated, pipelined.evaluated);
    assert_eq!(staged.skipped, pipelined.skipped);
    assert_eq!(
        pipelined.k.sub(&staged.k).fro_norm(),
        0.0,
        "K columns must reassemble identically under streamed arrival"
    );
}

/// SCF-quality H2 setup for the K-operator paths.
fn h2_setup() -> (Basis, liair_math::Mat, usize, RealGrid, PoissonSolver) {
    let edge = 14.0;
    let mut mol = systems::h2();
    mol.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
    let basis = Basis::sto3g(&mol);
    let scf = liair_scf::rhf(&mol, &basis, &liair_scf::ScfOptions::default());
    let grid = RealGrid::cubic(Cell::cubic(edge), 24);
    let solver = PoissonSolver::isolated(grid);
    (basis, scf.c, scf.nocc, grid, solver)
}

#[test]
fn k_operator_bit_identical_across_backends() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    for simd in available_levels() {
        let base = ExchangeEngine::builder(&grid, &solver)
            .simd(simd)
            .no_faults();
        let serial = base
            .backend(ExecBackend::Serial)
            .build()
            .unwrap()
            .k_operator(&basis, &c_occ, nocc, 0.0);
        assert!(serial.profile.is_populated());
        assert_eq!(serial.evaluated, nocc * basis.nao());

        let rayon = base
            .backend(ExecBackend::Rayon)
            .build()
            .unwrap()
            .k_operator(&basis, &c_occ, nocc, 0.0);
        let d = rayon.k.sub(&serial.k).fro_norm();
        assert_eq!(d, 0.0, "serial vs rayon K differ at level {simd:?}: {d:e}");

        for nranks in [1, 3] {
            for mode in MODES {
                let comm = base
                    .backend(ExecBackend::Comm {
                        nranks,
                        strategy: BalanceStrategy::RoundRobin,
                    })
                    .collectives(mode)
                    .build()
                    .unwrap()
                    .k_operator(&basis, &c_occ, nocc, 0.0);
                let d = comm.k.sub(&serial.k).fro_norm();
                assert_eq!(
                    d, 0.0,
                    "serial vs comm(nranks={nranks}, {mode:?}) K differ at level {simd:?}: {d:e}"
                );
            }
        }
    }
}

#[test]
fn k_operator_bit_identical_under_injected_faults() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    let level = available_levels()[0];
    let clean = ExchangeEngine::builder(&grid, &solver)
        .simd(level)
        .no_faults()
        .backend(ExecBackend::Serial)
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    for plan in [FaultPlan::messages_only(42), FaultPlan::with_stalls(42)] {
        for mode in MODES {
            let faulty = ExchangeEngine::builder(&grid, &solver)
                .simd(level)
                .backend(ExecBackend::Comm {
                    nranks: 3,
                    strategy: BalanceStrategy::RoundRobin,
                })
                .collectives(mode)
                .fault_plan(plan)
                .build()
                .unwrap()
                .k_operator(&basis, &c_occ, nocc, 0.0);
            assert_eq!(
                faulty.k.sub(&clean.k).fro_norm(),
                0.0,
                "{mode:?}: K drifted under faults"
            );
        }
    }
}

#[test]
fn incremental_eps0_energy_bit_identical_per_level() {
    for (grid, solver, fields, infos, pairs) in energy_fixtures(20) {
        for level in available_levels() {
            // The incremental driver executes dirty work on the default
            // Rayon backend, so that is the reference.
            let reference = ExchangeEngine::builder(&grid, &solver)
                .simd(level)
                .build()
                .unwrap()
                .energy(&fields, &pairs);

            let mut inc = IncrementalExchange::new(0.0, 0);
            inc.force_simd(level);
            // Cold build: everything dirty.
            let cold = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
            assert_eq!(
                reference.energy.to_bits(),
                cold.energy.to_bits(),
                "{} pairs: cold incremental differs at {level:?}",
                pairs.len()
            );
            // Rebuild on identical fields: eps_inc = 0 must recompute, not
            // reuse.
            let rebuilt = inc.exchange_energy(&grid, &solver, &fields, &infos, &pairs);
            assert_eq!(rebuilt.inc.pairs_reused, 0);
            assert_eq!(
                reference.energy.to_bits(),
                rebuilt.energy.to_bits(),
                "{} pairs: eps_inc=0 rebuild differs at {level:?}",
                pairs.len()
            );
        }
    }
}

#[test]
fn public_wrappers_match_pinned_default_engine() {
    // The thin public entry points must equal an engine configured the way
    // the wrappers configure it — same default SIMD level, same backend —
    // down to the last bit.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(3, 20);
    let wrapper = liair_core::exchange_energy(&grid, &solver, &fields, &pairs);
    let engine = ExchangeEngine::new(&grid, &solver).energy(&fields, &pairs);
    assert_eq!(wrapper.energy.to_bits(), engine.energy.to_bits());

    let dist = liair_core::distributed::distributed_exchange(
        &grid,
        &solver,
        &fields,
        &pairs,
        3,
        BalanceStrategy::GreedyLpt,
    );
    assert_eq!(wrapper.energy.to_bits(), dist.energy.to_bits());

    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let (k_ref, ev, sk) = liair_core::operator::exchange_operator_grid_screened(
        &basis, &c_occ, nocc, &kgrid, &ksolver, 0.0,
    );
    let out = ExchangeEngine::new(&kgrid, &ksolver).k_operator(&basis, &c_occ, nocc, 0.0);
    assert_eq!(out.evaluated, ev);
    assert_eq!(out.skipped, sk);
    assert_eq!(out.k.sub(&k_ref).fro_norm(), 0.0);

    let k_dist = liair_core::distributed::distributed_exchange_operator(
        &basis, &c_occ, nocc, &kgrid, &ksolver, 3,
    );
    assert_eq!(k_dist.sub(&k_ref).fro_norm(), 0.0);
}

#[test]
fn incremental_eps0_k_bit_identical_per_level() {
    let (basis, c_occ, nocc, grid, solver) = h2_setup();
    for simd in available_levels() {
        let reference = ExchangeEngine::builder(&grid, &solver)
            .simd(simd)
            .build()
            .unwrap()
            .k_operator(&basis, &c_occ, nocc, 0.0);
        let mut inc = IncrementalExchange::new(0.0, 0);
        inc.force_simd(simd);
        let (k_inc, ev, sk, stats) =
            inc.exchange_operator(&basis, &c_occ, nocc, &grid, &solver, 0.0);
        assert_eq!(ev, reference.evaluated);
        assert_eq!(sk, reference.skipped);
        assert_eq!(stats.pairs_reused, 0);
        assert_eq!(
            k_inc.sub(&reference.k).fro_norm(),
            0.0,
            "incremental eps_inc=0 K differs at level {simd:?}"
        );
    }
}

#[test]
fn simd_level_never_changes_physics() {
    // Different SIMD levels are *not* expected to be bitwise equal to each
    // other (different summation orders), but they must agree to numerical
    // round-off — the levels change instruction schedules, not physics.
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(4, 20);
    let energies: Vec<f64> = available_levels()
        .into_iter()
        .map(|level| {
            ExchangeEngine::builder(&grid, &solver)
                .simd(level)
                .build()
                .unwrap()
                .energy(&fields, &pairs)
                .energy
        })
        .collect();
    for (i, e) in energies.iter().enumerate() {
        let rel = (e - energies[0]).abs() / energies[0].abs();
        assert!(
            rel < 1e-12,
            "level #{i} drifted: {e} vs {} ({rel:e})",
            energies[0]
        );
    }
}

#[test]
fn comm_backend_reports_gather_volume() {
    let (grid, solver, fields, _infos, pairs) = synthetic_setup(3, 16);
    let out = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Comm {
            nranks: 2,
            strategy: BalanceStrategy::Block,
        })
        .build()
        .unwrap()
        .energy(&fields, &pairs);
    assert!(out.profile.bytes_reduced > 0);
    assert_eq!(out.profile.pairs_computed, pairs.len());

    let (basis, c_occ, nocc, kgrid, ksolver) = h2_setup();
    let k = ExchangeEngine::builder(&kgrid, &ksolver)
        .backend(ExecBackend::Comm {
            nranks: 2,
            strategy: BalanceStrategy::RoundRobin,
        })
        .build()
        .unwrap()
        .k_operator(&basis, &c_occ, nocc, 0.0);
    assert!(k.profile.bytes_reduced > 0);
    assert!(k.profile.t_ao_eval_s >= 0.0);
}

#[test]
fn builder_rejects_inconsistent_configuration() {
    let (grid, solver, _fields, _infos, _pairs) = synthetic_setup(2, 12);
    // Zero ranks is meaningless.
    let err = ExchangeEngine::builder(&grid, &solver)
        .backend(ExecBackend::Comm {
            nranks: 0,
            strategy: BalanceStrategy::Block,
        })
        .build();
    assert!(err.is_err());
}
