//! r-RESPA multiple time stepping: amortize the expensive exact-exchange
//! (HFX) force over several cheap GGA/LDA steps.
//!
//! Hybrid-functional BOMD pays the full HFX price every step even though
//! the *difference* between the hybrid and its exchange-free surrogate
//! varies slowly along the trajectory (Mandal et al., PAPERS.md). The
//! reversible reference-system propagator (r-RESPA, Tuckerman–Berne–
//! Martyna) splits the force accordingly:
//!
//! * **fast** — the surrogate-functional force (`Functional::mts_fast()`
//!   of the target hybrid), evaluated every inner step of size `dt`;
//! * **slow** — the correction `F_full − F_fast`, applied as an impulse
//!   `n_inner · F_slow` folded into the opening and closing half-kicks of
//!   each outer step of size `n_inner · dt`.
//!
//! With `n_inner = 1` the propagator reduces *bitwise* to the plain
//! velocity-Verlet step driving the summed provider ([`CombinedForces`]):
//! the impulse weight is exactly `1.0`, multiplication by `1.0` is exact
//! in IEEE-754, and the closing thermostat application is shared code
//! (`MdState::end_of_step_thermostat`). That identity is property-tested
//! (`tests/mts_equivalence.rs` and the root `tests/properties.rs`).
//!
//! Thermostats act on the outer timestep: Nosé–Hoover half-steps bracket
//! the whole outer step (so its conserved quantity
//! [`MdState::nose_hoover_conserved`] remains the drift diagnostic), and
//! Berendsen rescales once per outer step.
//!
//! The total energy on the MTS trajectory is `E_fast + E_slow` with the
//! slow part re-evaluated only at outer boundaries; between boundaries
//! [`MdState::potential`] carries the fast potential plus the *last*
//! slow correction (the r-RESPA approximation). Judge drift at outer
//! boundaries, where both parts are fresh — [`MdState::run_mts_logged`]
//! records exactly those, along with per-outer-step incremental-exchange
//! reuse counters when the slow path carries the PR 2 cache
//! ([`SplitForceProvider::reuse_totals`]).

use crate::integrator::{ForceProvider, MdOptions, MdState, Thermostat};
use liair_basis::{Cell, Molecule};
use liair_core::IncStats;
use liair_math::Vec3;
use std::time::Instant;

/// Multiple-time-stepping controls (carried on
/// [`MdOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MtsOptions {
    /// Inner (fast-force) steps per outer (slow-correction) step. `1`
    /// recovers plain velocity-Verlet bitwise.
    pub n_inner: usize,
}

impl Default for MtsOptions {
    fn default() -> Self {
        Self { n_inner: 1 }
    }
}

/// A force model split into a cheap fast part and an expensive slow
/// correction, for r-RESPA propagation.
pub trait SplitForceProvider {
    /// The fast (inner-step) part: `(E_fast, F_fast)` at the current
    /// geometry. Must never touch the exchange engine — this is what the
    /// inner loop pays per step.
    fn fast_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>);

    /// The slow correction `(E_slow, F_slow)` at the current geometry,
    /// evaluated once per outer step. `fast` is the *just-computed* fast
    /// result at the same geometry, so delta providers
    /// (`F_full − F_fast`) need not re-evaluate the fast part.
    fn slow_correction(
        &self,
        mol: &Molecule,
        cell: Option<&Cell>,
        fast: (f64, &[Vec3]),
    ) -> (f64, Vec<Vec3>);

    /// Cumulative incremental-exchange reuse counters, when the slow path
    /// warm-starts an incremental cache (`IncrementalGridForces`, or any
    /// other `IncrementalExchange` user). The logged runner differences
    /// consecutive reads into per-outer-step deltas.
    fn reuse_totals(&self) -> Option<IncStats> {
        None
    }
}

/// View a split provider as a plain [`ForceProvider`] summing fast and
/// slow parts — the single-time-step reference the MTS path must match
/// bitwise at `n_inner = 1`.
pub struct CombinedForces<'a, S: SplitForceProvider>(pub &'a S);

impl<S: SplitForceProvider> ForceProvider for CombinedForces<'_, S> {
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        let (e_fast, f_fast) = self.0.fast_forces(mol, cell);
        let (e_slow, f_slow) = self.0.slow_correction(mol, cell, (e_fast, &f_fast));
        let forces = f_fast.iter().zip(&f_slow).map(|(a, b)| *a + *b).collect();
        (e_fast + e_slow, forces)
    }
}

/// Wall-clock split of one outer step.
#[derive(Debug, Clone, Copy, Default)]
pub struct MtsStepTimes {
    /// Total time in `fast_forces` over the `n_inner` inner steps.
    pub t_fast_s: f64,
    /// Time in the single `slow_correction` evaluation.
    pub t_slow_s: f64,
}

/// One outer step of the trajectory log (see
/// [`MdState::run_mts_logged`]).
#[derive(Debug, Clone)]
pub struct MtsOuterRecord {
    /// Inner steps completed after this outer step.
    pub step_count: usize,
    /// Total potential (fast + fresh slow) at the outer boundary.
    pub potential: f64,
    /// The conserved quantity at the outer boundary: total energy for
    /// NVE/Berendsen, the Nosé–Hoover extended energy under NH.
    pub conserved: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Wall-clock split of this outer step.
    pub times: MtsStepTimes,
    /// Incremental-exchange counters attributable to this outer step
    /// (delta of [`SplitForceProvider::reuse_totals`] across the step).
    pub inc: Option<IncStats>,
}

impl MdState {
    /// Initialize at rest from a split provider (the MTS analogue of
    /// [`MdState::new`]): caches fast forces in [`MdState::forces`] and
    /// the slow correction in [`MdState::forces_slow`].
    pub fn new_split<S: SplitForceProvider>(
        mol: Molecule,
        cell: Option<Cell>,
        provider: &S,
    ) -> MdState {
        let mut state = MdState::new(mol, cell, &InitFast(provider));
        let (e_slow, f_slow) = provider.slow_correction(
            &state.mol,
            state.cell.as_ref(),
            (state.potential, &state.forces),
        );
        state.potential += e_slow;
        state.forces_slow = f_slow;
        state.potential_slow = e_slow;
        state
    }

    /// One r-RESPA **outer** step: `opts.mts.n_inner` velocity-Verlet
    /// inner steps of size `opts.dt` under the fast force, with the slow
    /// impulse `n_inner · F_slow` folded into the opening and closing
    /// half-kicks, and the thermostat applied on the outer timestep.
    /// Advances [`MdState::step_count`] by `n_inner`. Returns the
    /// wall-clock split between fast and slow evaluations.
    pub fn step_mts<S: SplitForceProvider>(
        &mut self,
        provider: &S,
        opts: &MdOptions,
    ) -> MtsStepTimes {
        let n = opts.mts.n_inner;
        assert!(n >= 1, "MtsOptions::n_inner must be >= 1");
        let dt = opts.dt;
        let kick = n as f64; // slow impulse weight (1.0 ⇒ bitwise plain VV)
        let dt_outer = kick * dt;
        let mut times = MtsStepTimes::default();
        if let Thermostat::NoseHoover { t_target, tau } = opts.thermostat {
            self.nose_hoover_half(dt_outer, t_target, tau);
        }
        for k in 0..n {
            // Half kick + drift; the outer step's opening kick carries
            // the slow impulse.
            for i in 0..self.mol.natoms() {
                let f = if k == 0 {
                    self.forces[i] + self.forces_slow[i] * kick
                } else {
                    self.forces[i]
                };
                self.velocities[i] += f * (0.5 * dt / self.masses[i]);
                self.mol.atoms[i].pos += self.velocities[i] * dt;
            }
            let t0 = Instant::now();
            let (e_fast, f_fast) = provider.fast_forces(&self.mol, self.cell.as_ref());
            times.t_fast_s += t0.elapsed().as_secs_f64();
            self.forces = f_fast;
            if k == n - 1 {
                // Outer boundary: refresh the slow correction and close
                // with the impulse-carrying half kick.
                let t0 = Instant::now();
                let (e_slow, f_slow) =
                    provider.slow_correction(&self.mol, self.cell.as_ref(), (e_fast, &self.forces));
                times.t_slow_s += t0.elapsed().as_secs_f64();
                self.forces_slow = f_slow;
                self.potential_slow = e_slow;
                self.potential = e_fast + e_slow;
                for i in 0..self.mol.natoms() {
                    self.velocities[i] +=
                        (self.forces[i] + self.forces_slow[i] * kick) * (0.5 * dt / self.masses[i]);
                }
            } else {
                // Interior inner step: fast-only closing kick; the cached
                // slow potential keeps `total_energy` meaningful.
                self.potential = e_fast + self.potential_slow;
                for i in 0..self.mol.natoms() {
                    self.velocities[i] += self.forces[i] * (0.5 * dt / self.masses[i]);
                }
            }
        }
        self.end_of_step_thermostat(dt_outer, opts.thermostat);
        self.step_count += n;
        times
    }

    /// Run `n_outer` outer steps (`n_outer · n_inner` inner steps).
    pub fn run_mts<S: SplitForceProvider>(
        &mut self,
        provider: &S,
        opts: &MdOptions,
        n_outer: usize,
    ) {
        for _ in 0..n_outer {
            self.step_mts(provider, opts);
        }
    }

    /// Run `n_outer` outer steps recording one [`MtsOuterRecord`] per
    /// outer boundary — conserved quantity, wall-clock split, and the
    /// per-outer-step incremental-exchange reuse counters.
    pub fn run_mts_logged<S: SplitForceProvider>(
        &mut self,
        provider: &S,
        opts: &MdOptions,
        n_outer: usize,
    ) -> Vec<MtsOuterRecord> {
        let mut log = Vec::with_capacity(n_outer);
        let mut base = provider.reuse_totals();
        for _ in 0..n_outer {
            let times = self.step_mts(provider, opts);
            let now = provider.reuse_totals();
            let inc = match (&base, &now) {
                (Some(b), Some(n)) => Some(n.since(b)),
                _ => None,
            };
            base = now;
            let conserved = match opts.thermostat {
                Thermostat::NoseHoover { t_target, tau } => {
                    self.nose_hoover_conserved(t_target, tau)
                }
                _ => self.total_energy(),
            };
            log.push(MtsOuterRecord {
                step_count: self.step_count,
                potential: self.potential,
                conserved,
                temperature: self.temperature(),
                times,
                inc,
            });
        }
        log
    }
}

/// Adapter so `MdState::new` can initialize from the fast part alone
/// (the slow correction is grafted on immediately after).
struct InitFast<'a, S: SplitForceProvider>(&'a S);

impl<S: SplitForceProvider> ForceProvider for InitFast<'_, S> {
    fn compute(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
        self.0.fast_forces(mol, cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::ForceField;
    use liair_basis::systems;

    /// A deterministic toy split: the classical force field as the fast
    /// part, a weak quartic tether to each atom's initial position as the
    /// slow correction (smooth, conservative, nonzero).
    pub(crate) struct TetherSplit {
        pub ff: ForceField,
        pub anchors: Vec<Vec3>,
        pub k: f64,
    }

    impl TetherSplit {
        pub fn new(mol: &Molecule, cell: Option<&Cell>, k: f64) -> Self {
            Self {
                ff: ForceField::from_molecule(mol, cell),
                anchors: mol.atoms.iter().map(|a| a.pos).collect(),
                k,
            }
        }
    }

    impl SplitForceProvider for TetherSplit {
        fn fast_forces(&self, mol: &Molecule, cell: Option<&Cell>) -> (f64, Vec<Vec3>) {
            self.ff.energy_forces(mol, cell)
        }

        fn slow_correction(
            &self,
            mol: &Molecule,
            _cell: Option<&Cell>,
            _fast: (f64, &[Vec3]),
        ) -> (f64, Vec<Vec3>) {
            let mut e = 0.0;
            let forces = mol
                .atoms
                .iter()
                .zip(&self.anchors)
                .map(|(a, &r0)| {
                    let d = a.pos - r0;
                    let r2 = d.norm_sqr();
                    e += 0.25 * self.k * r2 * r2;
                    -d * (self.k * r2)
                })
                .collect();
            (e, forces)
        }
    }

    fn bitwise_eq(a: &MdState, b: &MdState) -> bool {
        a.potential.to_bits() == b.potential.to_bits()
            && a.nh_xi.to_bits() == b.nh_xi.to_bits()
            && a.nh_eta.to_bits() == b.nh_eta.to_bits()
            && a.step_count == b.step_count
            && a.mol
                .atoms
                .iter()
                .zip(&b.mol.atoms)
                .all(|(x, y)| (0..3).all(|ax| x.pos[ax].to_bits() == y.pos[ax].to_bits()))
            && a.velocities
                .iter()
                .zip(&b.velocities)
                .all(|(x, y)| (0..3).all(|ax| x[ax].to_bits() == y[ax].to_bits()))
    }

    #[test]
    fn n_inner_1_is_bitwise_plain_velocity_verlet() {
        for thermostat in [
            Thermostat::None,
            Thermostat::Berendsen {
                t_target: 300.0,
                tau: 200.0,
            },
            Thermostat::NoseHoover {
                t_target: 300.0,
                tau: 300.0,
            },
        ] {
            let (mol, cell) = systems::water_box(2, 13);
            let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
            let mut a = MdState::new_split(mol.clone(), Some(cell), &split);
            let mut b = MdState::new(mol, Some(cell), &CombinedForces(&split));
            a.thermalize_seeded(300.0, Some(13));
            b.thermalize_seeded(300.0, Some(13));
            let opts = MdOptions {
                dt: 12.0,
                thermostat,
                mts: MtsOptions { n_inner: 1 },
            };
            for _ in 0..7 {
                a.step_mts(&split, &opts);
                b.step(&CombinedForces(&split), &opts);
                assert!(bitwise_eq(&a, &b), "diverged under {thermostat:?}");
            }
        }
    }

    #[test]
    fn mts_nve_conserves_energy_at_n_inner_4() {
        let (mol, cell) = systems::water_box(2, 21);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let mut state = MdState::new_split(mol, Some(cell), &split);
        state.thermalize_seeded(300.0, Some(21));
        let e0 = state.total_energy();
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            mts: MtsOptions { n_inner: 4 },
        };
        let log = state.run_mts_logged(&split, &opts, 100);
        assert_eq!(state.step_count, 400);
        let drift = log
            .iter()
            .map(|r| (r.conserved - e0).abs())
            .fold(0.0, f64::max);
        assert!(
            drift < 5e-4,
            "MTS NVE drift {drift} Ha over 400 inner steps"
        );
    }

    #[test]
    fn mts_nose_hoover_conserves_extended_energy() {
        let (mol, cell) = systems::water_box(2, 31);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let mut state = MdState::new_split(mol, Some(cell), &split);
        state.thermalize_seeded(250.0, Some(31));
        let (t_target, tau) = (300.0, 400.0);
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::NoseHoover { t_target, tau },
            mts: MtsOptions { n_inner: 2 },
        };
        let h0 = state.nose_hoover_conserved(t_target, tau);
        state.run_mts(&split, &opts, 200);
        let drift = (state.nose_hoover_conserved(t_target, tau) - h0).abs();
        assert!(drift < 5e-3, "NH-MTS conserved-quantity drift {drift}");
    }

    #[test]
    fn logged_runner_reports_outer_boundaries() {
        let (mol, cell) = systems::water_box(2, 5);
        let split = TetherSplit::new(&mol, Some(&cell), 1e-4);
        let mut state = MdState::new_split(mol, Some(cell), &split);
        state.thermalize_seeded(300.0, Some(5));
        let opts = MdOptions {
            dt: 10.0,
            thermostat: Thermostat::None,
            mts: MtsOptions { n_inner: 4 },
        };
        let log = state.run_mts_logged(&split, &opts, 3);
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|r| r.step_count).collect::<Vec<_>>(),
            vec![4, 8, 12]
        );
        // The toy split has no incremental cache.
        assert!(log.iter().all(|r| r.inc.is_none()));
    }
}
