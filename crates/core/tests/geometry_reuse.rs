//! AO fields evaluated once per geometry: a K build over a borrowed
//! [`KGeometry`] is bit-identical to the wrapper that evaluates the AOs
//! itself, from scratch and incrementally with `eps_inc = 0`, and one
//! geometry can be lent to builds with different orbital coefficients.

use liair_basis::{systems, Basis, Cell};
use liair_core::{ExchangeEngine, IncrementalExchange, KGeometry};
use liair_grid::{PoissonSolver, RealGrid};
use liair_math::Mat;

fn bitwise(a: &Mat, b: &Mat) -> bool {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Water centered in a 14 Bohr box on a 24³ grid (the mixed-radix FFT
/// path), with its converged RHF orbitals and a second, rotated
/// coefficient set standing in for the next SCF iteration.
fn water_setup() -> (Basis, Vec<Mat>, usize, RealGrid, PoissonSolver) {
    let edge = 14.0;
    let mut mol = systems::water();
    mol.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
    let basis = Basis::sto3g(&mol);
    let scf = liair_scf::rhf(&mol, &basis, &liair_scf::ScfOptions::default());
    let mut c2 = scf.c.clone();
    let (a, b) = (scf.nocc - 1, scf.nocc);
    let (cs, sn) = (0.1f64.cos(), 0.1f64.sin());
    for mu in 0..basis.nao() {
        let (x, y) = (scf.c[(mu, a)], scf.c[(mu, b)]);
        c2[(mu, a)] = cs * x - sn * y;
        c2[(mu, b)] = sn * x + cs * y;
    }
    let grid = RealGrid::cubic(Cell::cubic(edge), 24);
    let solver = PoissonSolver::isolated(grid);
    (basis, vec![scf.c, c2], scf.nocc, grid, solver)
}

#[test]
fn borrowed_geometry_k_matches_wrapper_from_scratch() {
    let (basis, coeffs, nocc, grid, solver) = water_setup();
    let engine = ExchangeEngine::new(&grid, &solver);
    let geom = KGeometry::new(&basis, &grid);
    assert_eq!(geom.nao(), basis.nao());
    for eps in [0.0, 1e-4] {
        for c in &coeffs {
            let wrapped = engine.k_operator(&basis, c, nocc, eps);
            let lent = engine.k_operator_in(&geom, c, nocc, eps);
            assert!(bitwise(&wrapped.k, &lent.k), "eps={eps}: K differs");
            assert_eq!(wrapped.evaluated, lent.evaluated);
            assert_eq!(wrapped.skipped, lent.skipped);
        }
    }
}

#[test]
fn borrowed_geometry_k_matches_wrapper_incremental_eps0() {
    let (basis, coeffs, nocc, grid, solver) = water_setup();
    let geom = KGeometry::new(&basis, &grid);
    let engine = ExchangeEngine::new(&grid, &solver);
    for eps in [0.0, 1e-4] {
        let mut via_wrapper = IncrementalExchange::new(0.0, 0);
        let mut via_geom = IncrementalExchange::new(0.0, 0);
        for c in &coeffs {
            let (k_w, ev_w, sk_w, st_w) =
                via_wrapper.exchange_operator(&basis, c, nocc, &grid, &solver, eps);
            let (k_g, ev_g, sk_g, st_g) =
                via_geom.exchange_operator_in(&geom, c, nocc, &solver, eps);
            assert!(bitwise(&k_w, &k_g), "eps={eps}: incremental K differs");
            assert_eq!((ev_w, sk_w), (ev_g, sk_g));
            assert_eq!(st_g.pairs_reused, 0);
            assert_eq!(st_w.pairs_recomputed, st_g.pairs_recomputed);
            // And both equal the from-scratch build.
            let scratch = engine.k_operator_in(&geom, c, nocc, eps);
            assert!(
                bitwise(&scratch.k, &k_g),
                "eps={eps}: incremental vs scratch"
            );
        }
    }
}

#[test]
fn geometry_from_another_grid_is_rejected() {
    let (basis, coeffs, nocc, grid, solver) = water_setup();
    let other = RealGrid::cubic(Cell::cubic(14.0), 16);
    let geom = KGeometry::new(&basis, &other);
    let err = ExchangeEngine::new(&grid, &solver).try_k_operator_in(&geom, &coeffs[0], nocc, 0.0);
    assert!(err.is_err());
}
