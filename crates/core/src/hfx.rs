//! The shared-memory exact-exchange entry points.
//!
//! Computes `E_x = −Σ_{i≤j} w_ij (ij|ij)` over a screened pair list, with
//! one FFT Poisson solve per pair — the node-level kernel of the paper's
//! scheme. Both entry points here are thin configurations of
//! [`crate::engine::ExchangeEngine`] (rayon backend): the engine owns the
//! pair chunking, the fixed pair kernel, the scratch lifetimes, and the
//! [`crate::engine::BuildProfile`] instrumentation, so this module only
//! supplies the molecular pipeline around it and the analytic references
//! it is validated against (the `tab-hfx-validation` experiment re-runs
//! that comparison as a resolution sweep).

use crate::engine::{BuildProfile, ExchangeEngine};
use crate::incremental::IncStats;
use crate::screening::{source_pairs, OrbitalInfo, PairList};
use liair_basis::{Basis, Cell, Molecule};
use liair_grid::{foster_boys, orbitals_on_grid, PoissonSolver, RealGrid};
use liair_math::Mat;
use liair_scf::ScfResult;

/// Outcome of an exchange build.
#[derive(Debug, Clone, PartialEq)]
pub struct HfxResult {
    /// Exchange energy (Hartree, ≤ 0).
    pub energy: f64,
    /// Pairs actually evaluated.
    pub pairs_evaluated: usize,
    /// Pairs dropped by screening.
    pub pairs_screened: usize,
    /// Incremental-build reuse counters (all zero for from-scratch builds).
    pub inc: IncStats,
    /// Per-phase wall times and work counters of this build.
    pub profile: BuildProfile,
}

/// Evaluate the exchange energy of occupied orbital fields over a screened
/// pair list. `orbitals[k]` is φ_k sampled on `grid`.
///
/// Thin wrapper over [`ExchangeEngine::energy`] on the rayon backend:
/// workers walk the pair list two pairs at a time with grow-once scratch
/// (the steady-state loop performs zero heap allocations), and both pair
/// energies of a chunk come out of a single packed-complex FFT (an odd
/// list's last pair runs the r2c single).
pub fn exchange_energy(
    grid: &RealGrid,
    solver: &PoissonSolver,
    orbitals: &[Vec<f64>],
    pairs: &PairList,
) -> HfxResult {
    ExchangeEngine::new(grid, solver).energy(orbitals, pairs)
}

/// End-to-end molecular pipeline: localize the converged occupied
/// orbitals, drop core orbitals narrower than `min_spread` (uniform grids
/// cannot resolve all-electron cores — the paper's CPMD substrate uses
/// pseudopotentials, i.e. valence-only exchange; pass `0.0` to keep all),
/// build the screened pair list, evaluate on a cubic grid of `n³` points
/// in a box padded by `padding` Bohr, and return the exchange energy plus
/// the localized valence coefficients used (for analytic cross-checks).
/// The molecule is centered in the box; the isolated (spherical-cutoff)
/// Coulomb kernel is used.
pub fn grid_exchange_for_molecule(
    mol: &Molecule,
    basis: &Basis,
    scf: &ScfResult,
    n: usize,
    padding: f64,
    eps: f64,
    min_spread: f64,
) -> GridHfxOutcome {
    let (lo, hi) = mol.bounding_box();
    let extent = (hi - lo).x.max((hi - lo).y).max((hi - lo).z);
    let edge = extent + 2.0 * padding;
    let cell = Cell::cubic(edge);
    // Shift copies of the molecule/basis so the molecule sits mid-box.
    let shift = liair_math::Vec3::splat(edge / 2.0) - (lo + hi) * 0.5;
    let mut mol_c = mol.clone();
    mol_c.translate(shift);
    let mut basis_c = basis.clone();
    basis_c.update_centers(&mol_c);

    let loc = foster_boys(&basis_c, &scf.c, scf.nocc, 100);
    let keep: Vec<usize> = (0..scf.nocc)
        .filter(|&k| loc.spreads[k] >= min_spread)
        .collect();
    let n_core_skipped = scf.nocc - keep.len();
    let infos: Vec<OrbitalInfo> = keep
        .iter()
        .map(|&k| OrbitalInfo {
            center: loc.centers[k],
            spread: loc.spreads[k].max(0.3),
        })
        .collect();
    // Locality-first sourcing: with a finite ε the padded box doubles as
    // the screening cell and the list comes from the O(N·partners)
    // cell-list source; ε = 0 keeps the unscreened direct-distance list
    // (no cutoff radius exists to bin by).
    let pairs = source_pairs(&infos, eps, if eps > 0.0 { Some(&cell) } else { None });

    // Coefficient matrix restricted to the kept orbitals.
    let nao = basis_c.nao();
    let mut c_val = Mat::zeros(nao, keep.len());
    for (col, &k) in keep.iter().enumerate() {
        for mu in 0..nao {
            c_val[(mu, col)] = loc.c_loc[(mu, k)];
        }
    }

    let grid = RealGrid::cubic(cell, n);
    let solver = PoissonSolver::isolated(grid);
    let fields = orbitals_on_grid(&basis_c, &c_val, keep.len(), &grid);
    let result = exchange_energy(&grid, &solver, &fields, &pairs);
    GridHfxOutcome {
        result,
        pairs,
        n_core_skipped,
        c_kept: c_val,
        basis_centered: basis_c,
    }
}

/// Output of [`grid_exchange_for_molecule`].
#[derive(Debug, Clone)]
pub struct GridHfxOutcome {
    /// Grid exchange energy over the kept orbitals.
    pub result: HfxResult,
    /// The screened pair list actually evaluated.
    pub pairs: PairList,
    /// Core orbitals excluded by the spread filter.
    pub n_core_skipped: usize,
    /// Localized coefficients of the kept orbitals (box-centered basis).
    pub c_kept: Mat,
    /// The box-centered copy of the basis matching `c_kept`.
    pub basis_centered: Basis,
}

/// Analytic exchange energy `−Σ_{i≤j} w_ij (ij|ij)` over an explicit set of
/// (localized) orbitals, via the dense ERI tensor — the exact reference the
/// grid path is compared against. Small systems only (nao ≤ 96).
pub fn analytic_exchange_orbitals(basis: &Basis, c: &Mat, norb: usize) -> f64 {
    let eri = liair_integrals::eri_tensor(basis);
    let nao = basis.nao();
    assert_eq!(c.nrows(), nao);
    let mut energy = 0.0;
    for i in 0..norb {
        for j in i..norb {
            // (ij|ij) = Σ_{μνλσ} C_μi C_νj C_λi C_σj (μν|λσ)
            // contracted in two steps for O(n²) memory.
            let mut dij = Mat::zeros(nao, nao);
            for mu in 0..nao {
                for nu in 0..nao {
                    dij[(mu, nu)] = c[(mu, i)] * c[(nu, j)];
                }
            }
            let mut val = 0.0;
            for mu in 0..nao {
                for nu in 0..nao {
                    let d1 = dij[(mu, nu)];
                    if d1.abs() < 1e-14 {
                        continue;
                    }
                    for lam in 0..nao {
                        for sig in 0..nao {
                            val += d1 * dij[(lam, sig)] * eri.get(mu, nu, lam, sig);
                        }
                    }
                }
            }
            let w = if i == j { 1.0 } else { 2.0 };
            energy -= w * val;
        }
    }
    energy
}

/// Exchange energy over a screened pair list using *pair-local patches*
/// instead of full-cell transforms — the compact-representation mechanism
/// behind the paper's >10× time-to-solution, executed for real. Thin
/// wrapper over [`ExchangeEngine::energy_patched`] on the rayon backend:
/// each pair is solved on a cubic patch of parent-grid points around the
/// pair midpoint; the patch spans the center separation plus three spreads
/// per orbital plus `margin` Bohr.
pub fn exchange_energy_patched(
    grid: &RealGrid,
    orbitals: &[Vec<f64>],
    infos: &[OrbitalInfo],
    pairs: &PairList,
    margin: f64,
) -> HfxResult {
    // Patch shapes repeat across the list, so each worker reuses one
    // gather/density/Poisson scratch and the per-shape cached solver —
    // no per-pair allocations or kernel-table rebuilds.
    ExchangeEngine::for_patches(grid).energy_patched(orbitals, infos, pairs, margin)
}

/// The analytic exact-exchange energy `−¼ Tr(D·K)` of a converged density
/// — the reference the grid path is validated against.
pub fn analytic_exchange(basis: &Basis, density: &Mat, schwarz_tol: f64) -> f64 {
    let (_, k) = liair_integrals::build_jk(basis, density, schwarz_tol);
    -0.25 * density.trace_product(&k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::screening::build_pair_list;
    use liair_basis::systems;
    use liair_math::approx_eq;
    use liair_scf::{rhf, ScfOptions};

    #[test]
    fn h2_grid_exchange_matches_analytic() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let want = analytic_exchange(&basis, &scf.density, 0.0);
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, 72, 7.0, 0.0, 0.0);
        assert_eq!(out.pairs.len(), 1); // single occupied orbital
        assert!(
            approx_eq(out.result.energy, want, 5e-3),
            "grid {} vs analytic {want}",
            out.result.energy
        );
        assert!(out.result.energy < 0.0);
        assert!(out.result.profile.is_populated(), "profile must be filled");
    }

    #[test]
    fn h2_grid_exchange_converges_with_resolution() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let want = analytic_exchange(&basis, &scf.density, 0.0);
        let mut errs = Vec::new();
        for n in [24, 48, 96] {
            let out = grid_exchange_for_molecule(&mol, &basis, &scf, n, 7.0, 0.0, 0.0);
            errs.push((out.result.energy - want).abs());
        }
        // Error decreases with resolution and the finest grid is accurate.
        assert!(errs[2] < errs[0], "{errs:?}");
        assert!(errs[2] < 2e-3, "{errs:?}");
    }

    #[test]
    fn water_valence_grid_exchange_matches_analytic() {
        // With the O 1s core filtered out (pseudopotential-style), the grid
        // pair-Poisson exchange agrees with the analytic valence-orbital
        // reference.
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let out = grid_exchange_for_molecule(&mol, &basis, &scf, 80, 7.0, 0.0, 0.4);
        assert_eq!(out.n_core_skipped, 1, "expected the O 1s core filtered");
        let want = analytic_exchange_orbitals(&out.basis_centered, &out.c_kept, out.c_kept.ncols());
        assert!(
            approx_eq(out.result.energy, want, 3e-2),
            "grid {} vs analytic valence {want}",
            out.result.energy
        );
    }

    #[test]
    fn analytic_orbital_exchange_consistent_with_density_form() {
        // Over ALL occupied orbitals, −Σ w (ij|ij) must equal −¼Tr(DK);
        // both are basis-set identities (orbital rotations cancel).
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let via_k = analytic_exchange(&basis, &scf.density, 0.0);
        let via_orbitals = analytic_exchange_orbitals(&basis, &scf.c, scf.nocc);
        assert!(
            approx_eq(via_k, via_orbitals, 1e-10),
            "{via_k} vs {via_orbitals}"
        );
    }

    #[test]
    fn screening_error_is_controlled() {
        // Two H2 molecules far apart: cross pairs are negligible; ε = 1e−3
        // screening changes E_x by ≪ the pair bound.
        let mut mol = systems::h2();
        let mut far = systems::h2();
        far.translate(liair_math::Vec3::new(0.0, 12.0, 0.0));
        mol.merge(&far);
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let unscreened = grid_exchange_for_molecule(&mol, &basis, &scf, 64, 6.0, 0.0, 0.0);
        let screened = grid_exchange_for_molecule(&mol, &basis, &scf, 64, 6.0, 1e-3, 0.0);
        assert!(
            screened.pairs.len() < unscreened.pairs.len(),
            "screening dropped nothing"
        );
        assert!(
            (unscreened.result.energy - screened.result.energy).abs() < 1e-4,
            "ΔE = {}",
            (unscreened.result.energy - screened.result.energy).abs()
        );
    }

    #[test]
    fn patched_exchange_matches_full_grid_on_h2_chain() {
        // The compact pair-local representation must reproduce the
        // full-grid exchange while transforming far fewer points.
        use crate::hfx::exchange_energy_patched;
        let mol = {
            let mut all = systems::h2();
            for k in 1..3 {
                let mut m = systems::h2();
                m.translate(liair_math::Vec3::new(0.0, 4.5 * k as f64, 0.0));
                all.merge(&m);
            }
            all
        };
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        // Center in a big box so patches stay interior.
        let edge = 26.0;
        let shift = liair_math::Vec3::splat(edge / 2.0) - mol.centroid();
        let mut mol_c = mol.clone();
        mol_c.translate(shift);
        let mut basis_c = basis.clone();
        basis_c.update_centers(&mol_c);
        let loc = liair_grid::foster_boys(&basis_c, &scf.c, scf.nocc, 60);
        let infos: Vec<OrbitalInfo> = loc
            .centers
            .iter()
            .zip(&loc.spreads)
            .map(|(&c, &s)| OrbitalInfo {
                center: c,
                spread: s.max(0.3),
            })
            .collect();
        let pairs = build_pair_list(&infos, 0.0, None);
        let grid = RealGrid::cubic(Cell::cubic(edge), 64);
        let solver = PoissonSolver::isolated(grid);
        let fields = liair_grid::orbitals_on_grid(&basis_c, &loc.c_loc, scf.nocc, &grid);
        let full = exchange_energy(&grid, &solver, &fields, &pairs);
        let patched = exchange_energy_patched(&grid, &fields, &infos, &pairs, 3.0);
        assert!(
            approx_eq(patched.energy, full.energy, 5e-3),
            "patched {} vs full {}",
            patched.energy,
            full.energy
        );
        assert!(patched.profile.is_populated());
    }

    #[test]
    fn exchange_is_negative_and_pairwise_additive() {
        // E_x from the pair list equals the sum of its parts: splitting the
        // pair list and adding partial energies gives the same total.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let scf = rhf(&mol, &basis, &ScfOptions::default());
        let (lo, hi) = mol.bounding_box();
        let edge = (hi - lo).norm() + 12.0;
        let cell = Cell::cubic(edge);
        let mut mol_c = mol.clone();
        mol_c.translate(liair_math::Vec3::splat(edge / 2.0) - mol.centroid());
        let mut basis_c = basis.clone();
        basis_c.update_centers(&mol_c);
        let grid = RealGrid::cubic(cell, 48);
        let solver = PoissonSolver::isolated(grid);
        let fields = orbitals_on_grid(&basis_c, &scf.c, scf.nocc, &grid);
        let infos = vec![OrbitalInfo {
            center: mol_c.centroid(),
            spread: 1.0,
        }];
        let pairs = build_pair_list(&infos, 0.0, None);
        let full = exchange_energy(&grid, &solver, &fields, &pairs);
        assert!(full.energy < 0.0);
        assert_eq!(full.pairs_evaluated, 1);
    }
}
