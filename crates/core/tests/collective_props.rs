//! Property tests of the collective runtime's bitwise contract:
//!
//! * the hierarchical (binomial-tree) gather and the flat root gather are
//!   pure data movement, so for **any** SIMD level, rank count, and
//!   workload the two collective families produce bit-identical energies;
//! * **any** seeded fault schedule — drops, delays, duplicates, stalled
//!   ranks — still yields the bit-identical result, run after run:
//!   retransmission recovers payloads verbatim, and chunks re-issued for
//!   lost ranks replay the identical kernel.

use liair_core::screening::{build_pair_list, OrbitalInfo, PairList};
use liair_core::{
    BalanceStrategy, CollectiveMode, ExchangeEngine, ExecBackend, FaultPlan, PipelineMode,
};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::rng::SplitMix64;
use liair_math::simd::{available_levels, SimdLevel};
use liair_math::Vec3;
use proptest::prelude::*;

fn setup(seed: u64, norb: usize) -> (RealGrid, PoissonSolver, Vec<Vec<f64>>, PairList) {
    let l = 12.0;
    let grid = RealGrid::cubic(liair_basis::Cell::cubic(l), 16);
    let solver = PoissonSolver::isolated(grid);
    let mut rng = SplitMix64::new(seed);
    let centers: Vec<Vec3> = (0..norb)
        .map(|_| {
            Vec3::new(
                rng.range_f64(3.0, 9.0),
                rng.range_f64(3.0, 9.0),
                rng.range_f64(3.0, 9.0),
            )
        })
        .collect();
    let fields: Vec<Vec<f64>> = centers
        .iter()
        .map(|&c| {
            (0..grid.len())
                .map(|i| {
                    let d = grid.cell.min_image(c, grid.point_flat(i));
                    (-1.2 * d.norm_sqr()).exp()
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
    (grid, solver, fields, pairs)
}

/// Pick a runnable SIMD level from a free index.
fn level(level_idx: usize) -> SimdLevel {
    let levels = available_levels();
    levels[level_idx % levels.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Flat and hierarchical collectives agree to the last bit with the
    /// serial reference for every SIMD level, rank count, and
    /// workload — the gathers move bits, they never combine them.
    #[test]
    fn flat_and_hierarchical_are_bitwise_equal(
        wseed in 0u64..1000,
        level_idx in 0usize..4,
        nranks in 1usize..6,
    ) {
        let (grid, solver, fields, pairs) = setup(wseed, 3);
        let c = level(level_idx);
        let serial = ExchangeEngine::builder(&grid, &solver)
            .simd(c)
            .no_faults()
            .backend(ExecBackend::Serial)
            .build()
            .unwrap()
            .energy(&fields, &pairs);
        for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
            let comm = ExchangeEngine::builder(&grid, &solver)
                .simd(c)
                .no_faults()
                .backend(ExecBackend::Comm { nranks, strategy: BalanceStrategy::GreedyLpt })
                .collectives(mode)
                .build()
                .unwrap()
                .energy(&fields, &pairs);
            prop_assert_eq!(serial.energy.to_bits(), comm.energy.to_bits());
        }
    }

    /// Any seeded fault schedule yields the bit-identical energy, run
    /// after run. The degradation *counters* may differ between replays
    /// (a delayed retransmission racing the recv timeout can demote a
    /// slow rank to "lost", and a timed-out intermediate tree node loses
    /// its whole subtree) — but every lost rank's chunks are re-issued
    /// through the identical kernel, so the energy never moves.
    #[test]
    fn seeded_fault_schedules_are_bitwise_and_deterministic(
        fseed in 0u64..10_000,
        stall_idx in 0usize..2,
        mode_idx in 0usize..2,
    ) {
        let (grid, solver, fields, pairs) = setup(17, 3);
        let mode = [CollectiveMode::Flat, CollectiveMode::Hierarchical][mode_idx];
        let plan = if stall_idx == 1 {
            FaultPlan::with_stalls(fseed)
        } else {
            FaultPlan::messages_only(fseed)
        };
        let clean = ExchangeEngine::builder(&grid, &solver)
            .no_faults()
            .backend(ExecBackend::Serial)
            .build()
            .unwrap()
            .energy(&fields, &pairs);
        let build = || {
            ExchangeEngine::builder(&grid, &solver)
                .backend(ExecBackend::Comm { nranks: 4, strategy: BalanceStrategy::RoundRobin })
                .collectives(mode)
                .fault_plan(plan)
                .build()
                .unwrap()
                .energy(&fields, &pairs)
        };
        let a = build();
        let b = build();
        prop_assert_eq!(clean.energy.to_bits(), a.energy.to_bits());
        prop_assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        // Re-issue only ever happens in response to a lost rank.
        for out in [&a, &b] {
            if out.profile.ranks_stalled == 0 {
                prop_assert_eq!(out.profile.chunks_reissued, 0);
            }
        }
    }

    /// The pipelined overlap backend is bit-identical to the staged
    /// gather and the serial reference for every workload, rank count,
    /// SIMD level, and (optional) fault seed: dynamic stealing and
    /// out-of-order streamed arrival never change the canonical
    /// reassembly, only who computed each chunk and when it landed.
    #[test]
    fn pipelined_staged_serial_are_bitwise_equal(
        wseed in 0u64..1000,
        fseed in 0u64..10_000,
        faulty in 0usize..2,
        level_idx in 0usize..4,
        nranks in 1usize..6,
        norb in 2usize..5,
    ) {
        let (grid, solver, fields, pairs) = setup(wseed, norb);
        let c = level(level_idx);
        let build = |backend, mode| {
            let mut b = ExchangeEngine::builder(&grid, &solver)
                .simd(c)
                .backend(backend)
                .pipeline(mode)
                .no_faults();
            if faulty == 1 {
                b = b.fault_plan(FaultPlan::with_stalls(fseed));
            }
            b.build().unwrap().energy(&fields, &pairs)
        };
        let comm = ExecBackend::Comm { nranks, strategy: BalanceStrategy::GreedyLpt };
        let serial = build(ExecBackend::Serial, PipelineMode::Staged);
        let staged = build(comm, PipelineMode::Staged);
        let pipelined = build(comm, PipelineMode::Pipelined);
        prop_assert_eq!(serial.energy.to_bits(), staged.energy.to_bits());
        prop_assert_eq!(serial.energy.to_bits(), pipelined.energy.to_bits());
        // The steal queue only ever exists on the pipelined backend.
        prop_assert_eq!(staged.profile.chunks_stolen, 0);
        prop_assert_eq!(staged.profile.steal_requests, 0);
        if nranks == 1 {
            // A single rank has nobody to steal from: all-static schedule.
            prop_assert_eq!(pipelined.profile.chunks_stolen, 0);
        }
    }

    /// For a fixed fault seed the steal protocol is replayable: the stall
    /// set is a pure function of the seed, every queued chunk moves
    /// through exactly one grant, and the root serves the queue itself
    /// only when no live worker remains — so the steal counters (not just
    /// the energy) are identical run after run, even though which *rank*
    /// wins each chunk races.
    #[test]
    fn steal_counters_are_deterministic_for_fixed_seed(
        fseed in 0u64..10_000,
        nranks in 2usize..6,
    ) {
        let (grid, solver, fields, pairs) = setup(23, 4);
        let nchunks = pairs.len().div_ceil(2);
        let ntail = nchunks / 4;
        let build = || {
            ExchangeEngine::builder(&grid, &solver)
                .backend(ExecBackend::Comm { nranks, strategy: BalanceStrategy::Block })
                .pipeline(PipelineMode::Pipelined)
                .fault_plan(FaultPlan::with_stalls(fseed))
                .build()
                .unwrap()
                .energy(&fields, &pairs)
        };
        let a = build();
        let b = build();
        prop_assert_eq!(a.profile.chunks_stolen, b.profile.chunks_stolen);
        prop_assert_eq!(a.profile.steal_requests, b.profile.steal_requests);
        prop_assert_eq!(a.profile.ranks_stalled, b.profile.ranks_stalled);
        prop_assert_eq!(a.profile.chunks_reissued, b.profile.chunks_reissued);
        // Every queue entry — the dynamic tail plus each re-issued chunk —
        // is dispatched exactly once.
        prop_assert_eq!(a.profile.chunks_stolen, ntail + a.profile.chunks_reissued);
        // One grant per stolen chunk plus one final `done` per live
        // worker — unless every worker stalled, where the root serves the
        // whole queue itself and no grant is ever issued.
        if a.profile.ranks_stalled == nranks - 1 {
            prop_assert_eq!(a.profile.steal_requests, 0);
        } else {
            prop_assert_eq!(
                a.profile.steal_requests,
                a.profile.chunks_stolen + (nranks - 1 - a.profile.ranks_stalled)
            );
        }
    }
}
