//! Integral-direct Coulomb (J) and exchange (K) matrix builds.
//!
//! `J_{μν} = Σ_{λσ} (μν|λσ) D_{λσ}` and `K_{μν} = Σ_{λσ} (μλ|νσ) D_{λσ}`.
//!
//! The build exploits the full 8-fold permutational symmetry: shell
//! quartets are enumerated canonically (`sa ≥ sb`, `sc ≥ sd`,
//! `pair(sa,sb) ≥ pair(sc,sd)`), Schwarz-screened, computed once, and each
//! canonical AO element adds its whole permutation orbit, weighted by the
//! orbit's size, into half-accumulators that one transpose completes. Work
//! is split into one contiguous run of canonical bra pairs per thread, cut
//! where the estimated cost of the surviving quartets is equal, so the
//! triangular loop's growing tail does not land on one thread. Each run
//! accumulates into its own J/K, reduced in run order — a pure function of
//! the thread count.

use crate::eri::{schwarz_matrix_with, EriEngine, EriScratch};
use liair_basis::shell::ncart;
use liair_basis::Basis;
use liair_math::Mat;
use rayon::prelude::*;

/// Build `(J, K)` for a symmetric AO density matrix. `screen` is the
/// Schwarz threshold below which quartets are skipped; `0.0` disables
/// screening.
pub fn build_jk(basis: &Basis, density: &Mat, screen: f64) -> (Mat, Mat) {
    let engine = EriEngine::new(basis);
    build_jk_with(&engine, density, screen)
}

/// Caches the integral engine, Schwarz bounds and canonical pair costs so
/// repeated Fock builds (every SCF iteration) pay the setup cost once.
pub struct JkBuilder<'a> {
    engine: EriEngine<'a>,
    schwarz: Mat,
    pairs: CanonicalPairs,
}

impl<'a> JkBuilder<'a> {
    /// Prepare for a basis.
    pub fn new(basis: &'a Basis) -> Self {
        let engine = EriEngine::new(basis);
        let schwarz = schwarz_matrix_with(&engine);
        let pairs = CanonicalPairs::new(basis);
        Self {
            engine,
            schwarz,
            pairs,
        }
    }

    /// Build `(J, K)` for a density.
    pub fn build(&self, density: &Mat, screen: f64) -> (Mat, Mat) {
        build_jk_inner(
            &self.engine,
            &self.schwarz,
            &self.pairs,
            density,
            screen,
            None,
        )
    }

    /// As [`Self::build`], additionally weighting the Schwarz bound by the
    /// largest density element a quartet can touch: quartets with
    /// `q_ab·q_cd·max|D|_block < screen` are skipped. For a full density
    /// this matches [`Self::build`] to the screening tolerance; the payoff
    /// is **difference densities** (`ΔD = D_n − D_{n−1}` of consecutive
    /// SCF iterations), which shrink toward convergence and let the
    /// screening drop almost every quartet — the standard incremental
    /// direct-SCF trick.
    pub fn build_density_screened(&self, density: &Mat, screen: f64) -> (Mat, Mat) {
        let dmax = shell_pair_density_max(self.engine.basis(), density);
        build_jk_inner(
            &self.engine,
            &self.schwarz,
            &self.pairs,
            density,
            screen,
            Some(&dmax),
        )
    }
}

/// The canonical shell pairs `sa ≥ sb` in canonical order (the index of
/// `(sa, sb)` is `sa(sa+1)/2 + sb`), with the primitive and component pair
/// counts that estimate a quartet's cost.
struct CanonicalPairs {
    pairs: Vec<(usize, usize)>,
    /// Primitive pairs per canonical pair.
    prims: Vec<f64>,
    /// Component pairs per canonical pair.
    comps: Vec<f64>,
}

impl CanonicalPairs {
    fn new(basis: &Basis) -> Self {
        let nsh = basis.shells.len();
        let pairs: Vec<(usize, usize)> = (0..nsh)
            .flat_map(|sa| (0..=sa).map(move |sb| (sa, sb)))
            .collect();
        let per_pair = |f: &dyn Fn(usize) -> usize| -> Vec<f64> {
            pairs
                .iter()
                .map(|&(sa, sb)| (f(sa) * f(sb)) as f64)
                .collect()
        };
        let prims = per_pair(&|s| basis.shells[s].prims.len());
        let comps = per_pair(&|s| ncart(basis.shells[s].l));
        Self {
            pairs,
            prims,
            comps,
        }
    }

    /// Estimated cost of the quartet `(ab|cd)`: primitive quartets ×
    /// (bra + ket component pairs) for the ERI kernel, plus component
    /// quartets for the scatter. Per primitive quartet the kernel's time is
    /// close to linear in the bra and ket sizes at the angular momenta of
    /// these bases (a `(pp|pp)` quartet costs ≈ 10 `(ss|ss)`, not 81).
    fn cost(&self, ab: usize, cd: usize) -> f64 {
        self.prims[ab] * self.prims[cd] * (self.comps[ab] + self.comps[cd])
            + self.comps[ab] * self.comps[cd]
    }

    /// Split the bra pairs into `nblocks` contiguous runs of about equal
    /// cost, counting only the quartets `keep` passes; returns the run
    /// boundaries (`nblocks + 1` bra-pair indices). The screening
    /// threshold and density are build arguments, so the survivors are
    /// counted per build: one pass over the canonical quartets, without
    /// integrals.
    fn partition(&self, nblocks: usize, keep: impl Fn(usize, usize) -> bool) -> Vec<usize> {
        let npairs = self.pairs.len();
        if nblocks <= 1 {
            return vec![0, npairs];
        }
        let mut prefix = Vec::with_capacity(npairs + 1);
        let mut total = 0.0;
        prefix.push(total);
        for ab in 0..npairs {
            total += (0..=ab)
                .filter(|&cd| keep(ab, cd))
                .map(|cd| self.cost(ab, cd))
                .sum::<f64>();
            prefix.push(total);
        }
        let mut bounds = vec![0];
        for b in 1..nblocks {
            let target = total * b as f64 / nblocks as f64;
            let cut = prefix.partition_point(|&c| c < target).min(npairs);
            bounds.push(cut.max(*bounds.last().expect("bounds start at 0")));
        }
        bounds.push(npairs);
        bounds
    }
}

/// Per-shell-pair `max |D|` over the corresponding AO block.
fn shell_pair_density_max(basis: &Basis, density: &Mat) -> Mat {
    let nsh = basis.shells.len();
    let mut m = Mat::zeros(nsh, nsh);
    for sa in 0..nsh {
        let (oa, na) = (basis.shell_offsets[sa], ncart(basis.shells[sa].l));
        for sb in 0..nsh {
            let (ob, nb) = (basis.shell_offsets[sb], ncart(basis.shells[sb].l));
            let mut mx = 0.0f64;
            for i in oa..oa + na {
                for j in ob..ob + nb {
                    mx = mx.max(density[(i, j)].abs());
                }
            }
            m[(sa, sb)] = mx;
        }
    }
    m
}

/// As [`build_jk`] but reusing a prepared [`EriEngine`].
pub fn build_jk_with(engine: &EriEngine<'_>, density: &Mat, screen: f64) -> (Mat, Mat) {
    let q = schwarz_matrix_with(engine);
    let pairs = CanonicalPairs::new(engine.basis());
    build_jk_inner(engine, &q, &pairs, density, screen, None)
}

fn build_jk_inner(
    engine: &EriEngine<'_>,
    q: &Mat,
    canon: &CanonicalPairs,
    density: &Mat,
    screen: f64,
    dmax: Option<&Mat>,
) -> (Mat, Mat) {
    let basis = engine.basis();
    let n = basis.nao();
    assert_eq!(density.nrows(), n);
    assert_eq!(density.ncols(), n);
    let pairs = &canon.pairs;
    // The screening test of the canonical quartet (bra pair ab, ket pair
    // cd ≤ ab). Density weighting covers every block the quartet reads
    // through J (D_ab, D_cd) or K (the four cross pairings).
    let keep = |ab: usize, cd: usize| {
        let ((sa, sb), (sc, sd)) = (pairs[ab], pairs[cd]);
        let bound = q[(sa, sb)] * q[(sc, sd)];
        let weight = match dmax {
            None => 1.0,
            Some(dm) => dm[(sa, sb)]
                .max(dm[(sc, sd)])
                .max(dm[(sa, sc)])
                .max(dm[(sa, sd)])
                .max(dm[(sb, sc)])
                .max(dm[(sb, sd)]),
        };
        bound * weight >= screen
    };
    let nblocks = rayon::current_num_threads().max(1);
    let bounds = canon.partition(nblocks, keep);

    let (j_half, k_half) = (0..nblocks)
        .into_par_iter()
        .map_init(
            || (EriScratch::default(), Vec::new()),
            |(scratch, block), b| {
                let mut jloc = Mat::zeros(n, n);
                let mut kloc = Mat::zeros(n, n);
                for ab in bounds[b]..bounds[b + 1] {
                    let (sa, sb) = pairs[ab];
                    for cd in 0..=ab {
                        if !keep(ab, cd) {
                            continue;
                        }
                        let (sc, sd) = pairs[cd];
                        engine.shell_quartet_into(sa, sb, sc, sd, scratch, block);
                        scatter_block(basis, density, &mut jloc, &mut kloc, block, sa, sb, sc, sd);
                    }
                }
                (jloc, kloc)
            },
        )
        .reduce(
            || (Mat::zeros(n, n), Mat::zeros(n, n)),
            |(mut ja, mut ka), (jb, kb)| {
                ja.axpy(1.0, &jb);
                ka.axpy(1.0, &kb);
                (ja, ka)
            },
        );
    // Fold in the transposed half of each orbit (see `scatter_block`).
    let j = j_half.add(&j_half.transpose()).scale(2.0);
    let k = k_half.add(&k_half.transpose());
    (j, k)
}

/// Scatter one computed shell-quartet block into the J/K half-accumulators.
///
/// Each canonical AO element `v = (ij|kl)` stands for its whole
/// permutation orbit. Weighted by the orbit's share `v' = v/2` for each of
/// `i = j`, `k = l` and `ij = kl` that holds, its orbit contributes
/// `J'_ij += v'·D_kl`, `J'_kl += v'·D_ij` and
/// `K'_ik += v'·D_jl`, `K'_jl += v'·D_ik`, `K'_il += v'·D_jk`,
/// `K'_jk += v'·D_il`, after which `J = 2(J' + J'ᵀ)` and `K = K' + K'ᵀ` for
/// a symmetric density.
#[allow(clippy::too_many_arguments)]
fn scatter_block(
    basis: &Basis,
    density: &Mat,
    jloc: &mut Mat,
    kloc: &mut Mat,
    block: &[f64],
    sa: usize,
    sb: usize,
    sc: usize,
    sd: usize,
) {
    let (oa, ob, oc, od) = (
        basis.shell_offsets[sa],
        basis.shell_offsets[sb],
        basis.shell_offsets[sc],
        basis.shell_offsets[sd],
    );
    let (na, nb, nc, nd) = (
        ncart(basis.shells[sa].l),
        ncart(basis.shells[sb].l),
        ncart(basis.shells[sc].l),
        ncart(basis.shells[sd].l),
    );
    // Component-level canonical filters apply only where shells coincide —
    // that is exactly where the 8-fold orbit folds back into this block.
    let same_bra = sa == sb;
    let same_ket = sc == sd;
    let same_pairs = (sa, sb) == (sc, sd);
    for ca in 0..na {
        let i = oa + ca;
        for cb in 0..nb {
            let jj = ob + cb;
            if same_bra && cb > ca {
                continue;
            }
            let w_bra = if i == jj { 0.5 } else { 1.0 };
            for cc in 0..nc {
                let kk = oc + cc;
                for cd in 0..nd {
                    let ll = od + cd;
                    if same_ket && cd > cc {
                        continue;
                    }
                    if same_pairs && (cc, cd) > (ca, cb) {
                        continue;
                    }
                    let mut v = w_bra * block[((ca * nb + cb) * nc + cc) * nd + cd];
                    if kk == ll {
                        v *= 0.5;
                    }
                    if (i, jj) == (kk, ll) {
                        v *= 0.5;
                    }
                    jloc[(i, jj)] += v * density[(kk, ll)];
                    jloc[(kk, ll)] += v * density[(i, jj)];
                    kloc[(i, kk)] += v * density[(jj, ll)];
                    kloc[(jj, ll)] += v * density[(i, kk)];
                    kloc[(i, ll)] += v * density[(jj, kk)];
                    kloc[(jj, kk)] += v * density[(i, ll)];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eri::eri_tensor;
    use liair_basis::systems;

    /// Reference J/K from the dense tensor.
    fn jk_reference(basis: &Basis, d: &Mat) -> (Mat, Mat) {
        let eri = eri_tensor(basis);
        let n = basis.nao();
        let mut j = Mat::zeros(n, n);
        let mut k = Mat::zeros(n, n);
        for mu in 0..n {
            for nu in 0..n {
                let mut jv = 0.0;
                let mut kv = 0.0;
                for lam in 0..n {
                    for sig in 0..n {
                        jv += eri.get(mu, nu, lam, sig) * d[(lam, sig)];
                        kv += eri.get(mu, lam, nu, sig) * d[(lam, sig)];
                    }
                }
                j[(mu, nu)] = jv;
                k[(mu, nu)] = kv;
            }
        }
        (j, k)
    }

    fn test_density(n: usize, seed: u64) -> Mat {
        let mut rng = liair_math::rng::SplitMix64::new(seed);
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            for jj in 0..=i {
                let v = rng.next_f64() - 0.5;
                d[(i, jj)] = v;
                d[(jj, i)] = v;
            }
        }
        d
    }

    #[test]
    fn direct_matches_tensor_reference() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 5);
        let (j, k) = build_jk(&basis, &d, 0.0);
        let (jr, kr) = jk_reference(&basis, &d);
        assert!(
            j.sub(&jr).fro_norm() < 1e-10,
            "J err {}",
            j.sub(&jr).fro_norm()
        );
        assert!(
            k.sub(&kr).fro_norm() < 1e-10,
            "K err {}",
            k.sub(&kr).fro_norm()
        );
    }

    #[test]
    fn direct_matches_reference_on_lithium_system() {
        // Li2O2 exercises third-row-free but multi-shell atoms and the
        // canonical-orbit digestion across equal-shell corner cases.
        let mol = systems::li2o2();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 17);
        let (j, k) = build_jk(&basis, &d, 0.0);
        let (jr, kr) = jk_reference(&basis, &d);
        assert!(
            j.sub(&jr).fro_norm() < 1e-9,
            "J err {}",
            j.sub(&jr).fro_norm()
        );
        assert!(
            k.sub(&kr).fro_norm() < 1e-9,
            "K err {}",
            k.sub(&kr).fro_norm()
        );
    }

    #[test]
    fn screening_perturbs_little() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 8);
        let (j0, k0) = build_jk(&basis, &d, 0.0);
        let (j1, k1) = build_jk(&basis, &d, 1e-9);
        assert!(j0.sub(&j1).fro_norm() < 1e-6);
        assert!(k0.sub(&k1).fro_norm() < 1e-6);
    }

    #[test]
    fn density_screened_build_matches_plain_build() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let builder = JkBuilder::new(&basis);
        let d = test_density(basis.nao(), 3);
        let (j0, k0) = builder.build(&d, 1e-11);
        let (j1, k1) = builder.build_density_screened(&d, 1e-11);
        assert!(j0.sub(&j1).fro_norm() < 1e-8);
        assert!(k0.sub(&k1).fro_norm() < 1e-8);
        // A small difference density (the incremental-Fock workload):
        // screened result still matches the unscreened reference to the
        // tolerance, even though the density weighting now drops most
        // quartets.
        let delta = d.scale(1e-7);
        let (jd, kd) = builder.build_density_screened(&delta, 1e-11);
        let (jr, kr) = build_jk(&basis, &delta, 0.0);
        assert!(jd.sub(&jr).fro_norm() < 1e-9, "{}", jd.sub(&jr).fro_norm());
        assert!(kd.sub(&kr).fro_norm() < 1e-9, "{}", kd.sub(&kr).fro_norm());
    }

    #[test]
    fn partition_balances_the_triangular_loop() {
        let mol = systems::li2o2();
        let basis = Basis::sto3g(&mol);
        let canon = CanonicalPairs::new(&basis);
        let npairs = canon.pairs.len();
        let quartet_cost = |ab: usize| -> f64 { (0..=ab).map(|cd| canon.cost(ab, cd)).sum() };
        let total: f64 = (0..npairs).map(quartet_cost).sum();
        for nblocks in [2, 3, 4] {
            let bounds = canon.partition(nblocks, |_, _| true);
            assert_eq!(bounds.len(), nblocks + 1);
            assert_eq!((bounds[0], bounds[nblocks]), (0, npairs));
            // No run exceeds its fair share by more than one bra pair's work.
            let largest_pair = (0..npairs).map(quartet_cost).fold(0.0, f64::max);
            for w in bounds.windows(2) {
                assert!(w[0] <= w[1]);
                let cost: f64 = (w[0]..w[1]).map(quartet_cost).sum();
                assert!(
                    cost <= total / nblocks as f64 + largest_pair,
                    "{nblocks} runs {bounds:?}: run cost {cost} of {total}"
                );
            }
        }
    }

    #[test]
    fn build_is_independent_of_the_thread_count_to_rounding() {
        let mol = systems::li2o2();
        let basis = Basis::sto3g(&mol);
        let builder = JkBuilder::new(&basis);
        let d = test_density(basis.nao(), 23);
        let with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool");
            pool.install(|| builder.build(&d, 1e-10))
        };
        let (j1, k1) = with(1);
        for threads in [2, 3] {
            let (j, k) = with(threads);
            assert!(j.sub(&j1).fro_norm() < 1e-11, "J at {threads} threads");
            assert!(k.sub(&k1).fro_norm() < 1e-11, "K at {threads} threads");
            // The reduction order depends on the thread count only.
            let (j2, k2) = with(threads);
            assert_eq!((j.as_slice(), k.as_slice()), (j2.as_slice(), k2.as_slice()));
        }
    }

    #[test]
    fn j_and_k_symmetric_for_symmetric_density() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let d = test_density(basis.nao(), 2);
        let (j, k) = build_jk(&basis, &d, 0.0);
        assert!(j.asymmetry() < 1e-10);
        assert!(k.asymmetry() < 1e-10);
    }

    #[test]
    fn coulomb_energy_positive_for_psd_density() {
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let n = basis.nao();
        let c = [0.5, 0.5];
        let mut d = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                d[(i, j)] = c[i] * c[j];
            }
        }
        let (j, k) = build_jk(&basis, &d, 0.0);
        assert!(d.trace_product(&j) > 0.0);
        assert!(d.trace_product(&k) > 0.0);
    }
}
