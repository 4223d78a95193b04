//! Two-electron repulsion integrals `(ab|cd)` (chemists' notation) over
//! contracted Cartesian shells, via McMurchie–Davidson in two steps:
//!
//! `W^{cd}_{tuv}(bra prim) = Σ_{ket prims} 2π^{5/2}/(pq√(p+q))
//!                           Σ_{τνφ} (−1)^{τ+ν+φ} E^{cd}_{τνφ} R_{t+τ,u+ν,v+φ}(α, P−Q)`
//! `(ab|cd) = Σ_{bra prims} Σ_{tuv} E^{ab}_{tuv} W^{cd}_{tuv}`
//!
//! with `p`, `q` the bra/ket total exponents and `α = pq/(p+q)`.
//!
//! The engine precomputes, per ordered shell pair, a flat table of
//! `c_a·c_b·E_t E_u E_v` per primitive pair and per *term*: the Hermite
//! functions `(t,u,v)` in each component pair's box `t ≤ a_x+b_x`, … that
//! are nonzero for some primitive pair. Per primitive quartet the engine
//! fills `R_{tuv}` on the triangle `t+u+v ≤ L` (`L` the quartet's total
//! angular momentum, Boys to order `L` only) and adds the ket terms into
//! the intermediate `W[row][cd]`; per bra primitive pair one dot product
//! per (bra, ket) component pair finishes the block. `R` lives in a cube of
//! fixed stride `4·lmax + 1`, so `R_{t+τ,u+ν,v+φ}` is read at the sum of a
//! bra row offset and a ket term offset, both precomputed. A quartet
//! allocates nothing once its [`EriScratch`] has grown. Primitive quartets
//! whose prefactor product is below `PRIM_SCREEN` are skipped.

use crate::hermite::{hermite_aux_tri_into, AuxScratch, ECoefs};
use liair_basis::shell::{cart_components, ncart};
use liair_basis::Basis;
use liair_math::{Mat, Vec3};
use rayon::prelude::*;
use std::f64::consts::PI;

/// Primitive-quartet prefactor threshold below which the quartet is
/// skipped (`exp(−μ_br |AB|²) · exp(−μ_kt |CD|²)` bound).
pub const PRIM_SCREEN: f64 = 1e-16;

/// Precomputed data for one primitive pair of an ordered shell pair.
#[derive(Debug, Clone)]
struct PrimPair {
    /// Total exponent `p = a + b`.
    p: f64,
    /// Gaussian product center.
    big_p: Vec3,
    /// `exp(−μ|AB|²)` prefactor used for primitive screening.
    screen: f64,
}

/// Hermite tables of one ordered shell pair, usable as bra or as ket.
#[derive(Debug, Clone)]
struct ShellPair {
    /// `la + lb`.
    l: usize,
    /// `R`-cube offsets of the Hermite functions the terms use; as bra, one
    /// row of `W` each.
    rows: Vec<u32>,
    /// The terms of component pair `i` (`i = ca·nb + cb`) are
    /// `start[i]..start[i + 1]`.
    start: Vec<u32>,
    /// Per term: its Hermite function, as an index into `rows`.
    row: Vec<u32>,
    /// Per term: `(−1)^{t+u+v}`, applied in the ket role.
    sign: Vec<f64>,
    prims: Vec<PrimPair>,
    /// `c_a·c_b·E_t E_u E_v` flattened `[prim pair][term]`.
    coefs: Vec<f64>,
}

impl ShellPair {
    fn new(basis: &Basis, sa: usize, sb: usize, stride: usize) -> Self {
        let (sha, shb) = (&basis.shells[sa], &basis.shells[sb]);
        let d = sha.center - shb.center;
        let (comps_a, comps_b) = (cart_components(sha.l), cart_components(shb.l));
        let norm_a: Vec<Vec<f64>> = comps_a.iter().map(|&c| sha.normalized_coefs(c)).collect();
        let norm_b: Vec<Vec<f64>> = comps_b.iter().map(|&c| shb.normalized_coefs(c)).collect();
        let mut prims = Vec::with_capacity(sha.prims.len() * shb.prims.len());
        let mut tables = Vec::with_capacity(prims.capacity());
        for pa in &sha.prims {
            for pb in &shb.prims {
                let (a, b) = (pa.exp, pb.exp);
                let p = a + b;
                prims.push(PrimPair {
                    p,
                    big_p: (sha.center * a + shb.center * b) / p,
                    screen: (-(a * b / p) * d.norm_sqr()).exp(),
                });
                tables.push([
                    ECoefs::new(sha.l, shb.l, d.x, a, b),
                    ECoefs::new(sha.l, shb.l, d.y, a, b),
                    ECoefs::new(sha.l, shb.l, d.z, a, b),
                ]);
            }
        }
        let nprim_b = shb.prims.len();
        // Candidate terms: every (component pair, Hermite box point) with its
        // value per primitive pair; the all-zero ones (odd terms of
        // same-center pairs) are dropped.
        let mut start = vec![0u32];
        let mut herm: Vec<(usize, usize, usize)> = Vec::new();
        let mut values: Vec<Vec<f64>> = Vec::new();
        for (ca, &(ax, ay, az)) in comps_a.iter().enumerate() {
            for (cb, &(bx, by, bz)) in comps_b.iter().enumerate() {
                for t in 0..=(ax + bx) {
                    for u in 0..=(ay + by) {
                        for v in 0..=(az + bz) {
                            let vals: Vec<f64> = tables
                                .iter()
                                .enumerate()
                                .map(|(k, [ex, ey, ez])| {
                                    norm_a[ca][k / nprim_b]
                                        * norm_b[cb][k % nprim_b]
                                        * ex.get(ax, bx, t)
                                        * ey.get(ay, by, u)
                                        * ez.get(az, bz, v)
                                })
                                .collect();
                            if vals.iter().any(|&x| x != 0.0) {
                                herm.push((t, u, v));
                                values.push(vals);
                            }
                        }
                    }
                }
                start.push(herm.len() as u32);
            }
        }
        let cube = |(t, u, v): (usize, usize, usize)| ((t * stride + u) * stride + v) as u32;
        let mut rows: Vec<u32> = herm.iter().map(|&h| cube(h)).collect();
        rows.sort_unstable();
        rows.dedup();
        let row = herm
            .iter()
            .map(|&h| rows.binary_search(&cube(h)).expect("row of a term") as u32)
            .collect();
        let sign = herm
            .iter()
            .map(|&(t, u, v)| if (t + u + v) % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let nterms = herm.len();
        let mut coefs = vec![0.0; prims.len() * nterms];
        for (term, vals) in values.iter().enumerate() {
            for (k, &x) in vals.iter().enumerate() {
                coefs[k * nterms + term] = x;
            }
        }
        Self {
            l: sha.l + shb.l,
            rows,
            start,
            row,
            sign,
            prims,
            coefs,
        }
    }
}

/// Reusable per-thread scratch for quartet evaluation.
#[derive(Debug, Default, Clone)]
pub struct EriScratch {
    aux: AuxScratch,
    /// Ket intermediate `W`, flattened `[bra row][ket component pair]`.
    w: Vec<f64>,
}

/// Precomputed engine over a basis.
pub struct EriEngine<'a> {
    basis: &'a Basis,
    /// Stride of the `R` cube: one more than the highest quartet degree.
    stride: usize,
    /// Hermite tables per ordered shell pair `[sa * nsh + sb]`.
    pairs: Vec<ShellPair>,
}

impl<'a> EriEngine<'a> {
    /// Prepare the engine: all shell-pair Hermite tables (O(nsh²·nprim²)
    /// setup amortized over O(nsh⁴) quartets).
    pub fn new(basis: &'a Basis) -> Self {
        let nsh = basis.shells.len();
        let lmax = basis.shells.iter().map(|sh| sh.l).max().unwrap_or(0);
        let stride = 4 * lmax + 1;
        let pairs = (0..nsh * nsh)
            .into_par_iter()
            .map(|idx| ShellPair::new(basis, idx / nsh, idx % nsh, stride))
            .collect();
        Self {
            basis,
            stride,
            pairs,
        }
    }

    /// The underlying basis.
    pub fn basis(&self) -> &Basis {
        self.basis
    }

    /// Compute the component block of the shell quartet `(sa sb | sc sd)`
    /// into `out` (resized to `[a][b][c][d]` row-major).
    pub fn shell_quartet_into(
        &self,
        sa: usize,
        sb: usize,
        sc: usize,
        sd: usize,
        scratch: &mut EriScratch,
        out: &mut Vec<f64>,
    ) {
        let nsh = self.basis.shells.len();
        let bra = &self.pairs[sa * nsh + sb];
        let ket = &self.pairs[sc * nsh + sd];
        let (nab, ncd) = (bra.start.len() - 1, ket.start.len() - 1);
        let (nbt, nkt) = (bra.row.len(), ket.row.len());
        let nrows = bra.rows.len();
        let l = bra.l + ket.l;
        let two_pi_52 = 2.0 * PI.powf(2.5);
        out.clear();
        out.resize(nab * ncd, 0.0);
        let w = &mut scratch.w;

        for (ip, bp) in bra.prims.iter().enumerate() {
            w.clear();
            w.resize(nrows * ncd, 0.0);
            let mut any = false;
            for (iq, kp) in ket.prims.iter().enumerate() {
                if bp.screen * kp.screen < PRIM_SCREEN {
                    continue;
                }
                any = true;
                let (p, q) = (bp.p, kp.p);
                let pref = two_pi_52 / (p * q * (p + q).sqrt());
                hermite_aux_tri_into(
                    l,
                    p * q / (p + q),
                    bp.big_p - kp.big_p,
                    pref,
                    self.stride,
                    &mut scratch.aux,
                );
                let r = &scratch.aux.cur;
                let kc = &ket.coefs[iq * nkt..(iq + 1) * nkt];
                for cd in 0..ncd {
                    for k in ket.start[cd] as usize..ket.start[cd + 1] as usize {
                        let e = ket.sign[k] * kc[k];
                        let rk = &r[ket.rows[ket.row[k] as usize] as usize..];
                        for (wr, &off) in w.chunks_exact_mut(ncd).zip(&bra.rows) {
                            wr[cd] += e * rk[off as usize];
                        }
                    }
                }
            }
            if !any {
                continue;
            }
            let bc = &bra.coefs[ip * nbt..(ip + 1) * nbt];
            for (ab, block) in out.chunks_exact_mut(ncd).enumerate() {
                for k in bra.start[ab] as usize..bra.start[ab + 1] as usize {
                    let e = bc[k];
                    let wr = &w[bra.row[k] as usize * ncd..][..ncd];
                    for (o, &x) in block.iter_mut().zip(wr) {
                        *o += e * x;
                    }
                }
            }
        }
    }

    /// Allocating convenience wrapper around [`Self::shell_quartet_into`].
    pub fn shell_quartet(&self, sa: usize, sb: usize, sc: usize, sd: usize) -> Vec<f64> {
        let mut scratch = EriScratch::default();
        let mut out = Vec::new();
        self.shell_quartet_into(sa, sb, sc, sd, &mut scratch, &mut out);
        out
    }
}

/// One shell quartet through a throwaway engine (tests, small jobs).
pub fn eri_shell_quartet(basis: &Basis, sa: usize, sb: usize, sc: usize, sd: usize) -> Vec<f64> {
    EriEngine::new(basis).shell_quartet(sa, sb, sc, sd)
}

/// Dense `(μν|λσ)` tensor for small systems.
#[derive(Debug, Clone)]
pub struct EriTensor {
    n: usize,
    data: Vec<f64>,
}

impl EriTensor {
    /// AO dimension.
    pub fn nao(&self) -> usize {
        self.n
    }

    /// `(ij|kl)` element.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, l: usize) -> f64 {
        self.data[((i * self.n + j) * self.n + k) * self.n + l]
    }
}

/// Build the full ERI tensor (O(N⁴) memory — guarded to ≤ 96 AOs; larger
/// systems must use the direct Fock build or the grid pair path).
pub fn eri_tensor(basis: &Basis) -> EriTensor {
    let n = basis.nao();
    assert!(n <= 96, "eri_tensor is for small systems (nao = {n} > 96)");
    let engine = EriEngine::new(basis);
    let nsh = basis.shells.len();
    let blocks: Vec<(usize, usize, usize, usize, Vec<f64>)> = (0..nsh * nsh)
        .into_par_iter()
        .flat_map_iter(|ij| {
            let si = ij / nsh;
            let sj = ij % nsh;
            (0..nsh).flat_map(move |sk| (0..nsh).map(move |sl| (si, sj, sk, sl)))
        })
        .map_init(EriScratch::default, |scratch, (si, sj, sk, sl)| {
            let mut block = Vec::new();
            engine.shell_quartet_into(si, sj, sk, sl, scratch, &mut block);
            (si, sj, sk, sl, block)
        })
        .collect();
    let mut data = vec![0.0; n * n * n * n];
    for (si, sj, sk, sl, block) in blocks {
        let (oa, ob, oc, od) = (
            basis.shell_offsets[si],
            basis.shell_offsets[sj],
            basis.shell_offsets[sk],
            basis.shell_offsets[sl],
        );
        let (na, nb, nc, nd) = (
            ncart(basis.shells[si].l),
            ncart(basis.shells[sj].l),
            ncart(basis.shells[sk].l),
            ncart(basis.shells[sl].l),
        );
        for ca in 0..na {
            for cb in 0..nb {
                for cc in 0..nc {
                    for cd in 0..nd {
                        let v = block[((ca * nb + cb) * nc + cc) * nd + cd];
                        let (i, j, k, l) = (oa + ca, ob + cb, oc + cc, od + cd);
                        data[((i * n + j) * n + k) * n + l] = v;
                    }
                }
            }
        }
    }
    EriTensor { n, data }
}

/// Schwarz screening bounds per *shell pair*:
/// `Q_{AB} = max_{μ∈A,ν∈B} √|(μν|μν)|`; `|(ab|cd)| ≤ Q_{AB} Q_{CD}`.
pub fn schwarz_matrix(basis: &Basis) -> Mat {
    let engine = EriEngine::new(basis);
    schwarz_matrix_with(&engine)
}

/// As [`schwarz_matrix`] but reusing a prepared engine.
pub fn schwarz_matrix_with(engine: &EriEngine<'_>) -> Mat {
    let basis = engine.basis();
    let nsh = basis.shells.len();
    let rows: Vec<Vec<f64>> = (0..nsh)
        .into_par_iter()
        .map_init(EriScratch::default, |scratch, sa| {
            let mut block = Vec::new();
            (0..nsh)
                .map(|sb| {
                    engine.shell_quartet_into(sa, sb, sa, sb, scratch, &mut block);
                    let (na, nb) = (ncart(basis.shells[sa].l), ncart(basis.shells[sb].l));
                    let mut best = 0.0f64;
                    for ca in 0..na {
                        for cb in 0..nb {
                            let v = block[((ca * nb + cb) * na + ca) * nb + cb];
                            best = best.max(v.abs());
                        }
                    }
                    best.sqrt()
                })
                .collect()
        })
        .collect();
    let mut m = Mat::zeros(nsh, nsh);
    for (i, row) in rows.into_iter().enumerate() {
        for (j, v) in row.into_iter().enumerate() {
            m[(i, j)] = v;
        }
    }
    m
}

/// Shell-pair distance helper used by distance-based pair screening in the
/// exact-exchange pair list: returns the centers' separation.
pub fn shell_pair_distance(basis: &Basis, sa: usize, sb: usize) -> f64 {
    basis.shells[sa].center.distance(basis.shells[sb].center)
}

/// Estimate of a primitive-pair prefactor `exp(−μ R²_AB)` used in tests.
pub fn gaussian_product_prefactor(a: f64, b: f64, ra: Vec3, rb: Vec3) -> f64 {
    let mu = a * b / (a + b);
    (-mu * (ra - rb).norm_sqr()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hermite::hermite_aux;
    use liair_basis::shell::{Primitive, Shell};
    use liair_basis::systems;
    use liair_math::approx_eq;

    /// The per-component contraction the two-step kernel replaced: every
    /// component quartet sums `E^{ab}_{tuv} (−1)^{τ+ν+φ} E^{cd}_{τνφ}
    /// R_{t+τ,u+ν,v+φ}` over full Hermite boxes, with `R` from the box
    /// recursion. Kept as the reference the kernel is checked against.
    fn reference_quartet(basis: &Basis, sa: usize, sb: usize, sc: usize, sd: usize) -> Vec<f64> {
        let shells = [sa, sb, sc, sd].map(|s| &basis.shells[s]);
        let comps = shells.map(|sh| cart_components(sh.l));
        let coefs: Vec<Vec<Vec<f64>>> = shells
            .iter()
            .zip(&comps)
            .map(|(sh, cs)| cs.iter().map(|&c| sh.normalized_coefs(c)).collect())
            .collect();
        // Per primitive pair: (ia, ib, p, P, [Ex, Ey, Ez]).
        let prim_pairs = |s1: &Shell, s2: &Shell| {
            let d = s1.center - s2.center;
            let mut out = Vec::new();
            for (ia, pa) in s1.prims.iter().enumerate() {
                for (ib, pb) in s2.prims.iter().enumerate() {
                    let (a, b) = (pa.exp, pb.exp);
                    let p = a + b;
                    let e = [d.x, d.y, d.z].map(|x| ECoefs::new(s1.l, s2.l, x, a, b));
                    let screen = (-(a * b / p) * d.norm_sqr()).exp();
                    out.push((ia, ib, p, (s1.center * a + s2.center * b) / p, e, screen));
                }
            }
            out
        };
        let (bras, kets) = (
            prim_pairs(shells[0], shells[1]),
            prim_pairs(shells[2], shells[3]),
        );
        let n = comps.each_ref().map(|c| c.len());
        let tdim = shells.iter().map(|sh| sh.l).sum::<usize>();
        let at = |t: usize, u: usize, v: usize| (t * (tdim + 1) + u) * (tdim + 1) + v;
        let mut out = vec![0.0; n[0] * n[1] * n[2] * n[3]];
        for (ia, ib, p, big_p, eb, sb_) in &bras {
            for (ic, id, q, big_q, ek, sk) in &kets {
                if sb_ * sk < PRIM_SCREEN {
                    continue;
                }
                let aux = hermite_aux(tdim, tdim, tdim, p * q / (p + q), *big_p - *big_q);
                let pref = 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt());
                for (ca, pa) in comps[0].iter().enumerate() {
                    for (cb, pb) in comps[1].iter().enumerate() {
                        for (cc, pc) in comps[2].iter().enumerate() {
                            for (cd, pd) in comps[3].iter().enumerate() {
                                let coef = coefs[0][ca][*ia]
                                    * coefs[1][cb][*ib]
                                    * coefs[2][cc][*ic]
                                    * coefs[3][cd][*id];
                                let mut val = 0.0;
                                for t in 0..=(pa.0 + pb.0) {
                                    for u in 0..=(pa.1 + pb.1) {
                                        for v in 0..=(pa.2 + pb.2) {
                                            let ebra = eb[0].get(pa.0, pb.0, t)
                                                * eb[1].get(pa.1, pb.1, u)
                                                * eb[2].get(pa.2, pb.2, v);
                                            for tau in 0..=(pc.0 + pd.0) {
                                                for nu in 0..=(pc.1 + pd.1) {
                                                    for ph in 0..=(pc.2 + pd.2) {
                                                        let sign = if (tau + nu + ph) % 2 == 0 {
                                                            1.0
                                                        } else {
                                                            -1.0
                                                        };
                                                        val += ebra
                                                            * sign
                                                            * ek[0].get(pc.0, pd.0, tau)
                                                            * ek[1].get(pc.1, pd.1, nu)
                                                            * ek[2].get(pc.2, pd.2, ph)
                                                            * aux[at(t + tau, u + nu, v + ph)];
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                                let idx = ((ca * n[1] + cb) * n[2] + cc) * n[3] + cd;
                                out[idx] += coef * pref * val;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Every shell quartet of `basis` against [`reference_quartet`].
    fn assert_matches_reference(basis: &Basis) {
        let engine = EriEngine::new(basis);
        let nsh = basis.shells.len();
        let mut scratch = EriScratch::default();
        let mut block = Vec::new();
        for sa in 0..nsh {
            for sb in 0..nsh {
                for sc in 0..nsh {
                    for sd in 0..nsh {
                        engine.shell_quartet_into(sa, sb, sc, sd, &mut scratch, &mut block);
                        let want = reference_quartet(basis, sa, sb, sc, sd);
                        assert_eq!(block.len(), want.len());
                        for (i, (g, w)) in block.iter().zip(&want).enumerate() {
                            assert!(
                                (g - w).abs() <= 1e-12,
                                "({sa}{sb}|{sc}{sd})[{i}]: {g} vs {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A d shell on a water-like frame: two hand-built `l = 2` shells (one
    /// contracted, one diffuse primitive) on O and one on an H, so
    /// `(dd|dd)` quartets reach Hermite degree 8 across three centers.
    fn d_shell_basis() -> Basis {
        let mol = systems::water();
        let mut shells = Basis::sto3g(&mol).shells;
        let prim = |exp, coef| Primitive { exp, coef };
        let (o, h) = (mol.atoms[0].pos, mol.atoms[1].pos);
        shells.push(Shell::new(2, 0, o, vec![prim(2.1, 0.35), prim(0.65, 0.75)]));
        shells.push(Shell::new(2, 0, o, vec![prim(0.3, 1.0)]));
        shells.push(Shell::new(2, 1, h, vec![prim(0.9, 1.0)]));
        Basis::from_shells(shells)
    }

    #[test]
    fn kernel_matches_reference_water_sto3g() {
        assert_matches_reference(&Basis::sto3g(&systems::water()));
    }

    #[test]
    fn kernel_matches_reference_li2o2_sto3g() {
        assert_matches_reference(&Basis::sto3g(&systems::li2o2()));
    }

    #[test]
    fn kernel_matches_reference_water_631g() {
        assert_matches_reference(&Basis::b631g(&systems::water()));
    }

    #[test]
    fn kernel_matches_reference_with_d_shells() {
        let basis = d_shell_basis();
        assert!(basis.shells.iter().any(|sh| sh.l == 2));
        assert_matches_reference(&basis);
    }

    #[test]
    fn d_shell_eris_have_eightfold_symmetry() {
        let basis = d_shell_basis();
        let eri = eri_tensor(&basis);
        let n = basis.nao();
        let mut rng = liair_math::rng::SplitMix64::new(11);
        for _ in 0..300 {
            let (i, j, k, l) = (rng.below(n), rng.below(n), rng.below(n), rng.below(n));
            let v = eri.get(i, j, k, l);
            for w in [
                eri.get(j, i, l, k),
                eri.get(k, l, i, j),
                eri.get(l, k, j, i),
            ] {
                assert!(approx_eq(v, w, 1e-10), "({i}{j}|{k}{l}): {v} vs {w}");
            }
        }
    }

    #[test]
    fn h2_sto3g_eri_table() {
        // Szabo & Ostlund (ζ = 1.24, R = 1.4 a₀):
        // (11|11) = 0.7746, (11|22) = 0.5697, (12|12) = 0.2970,
        // (11|12) = 0.4441.
        let mol = systems::h2();
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        assert!(
            approx_eq(eri.get(0, 0, 0, 0), 0.7746, 3e-4),
            "(11|11)={}",
            eri.get(0, 0, 0, 0)
        );
        assert!(
            approx_eq(eri.get(0, 0, 1, 1), 0.5697, 3e-4),
            "(11|22)={}",
            eri.get(0, 0, 1, 1)
        );
        assert!(
            approx_eq(eri.get(0, 1, 0, 1), 0.2970, 3e-4),
            "(12|12)={}",
            eri.get(0, 1, 0, 1)
        );
        assert!(
            approx_eq(eri.get(0, 0, 0, 1), 0.4441, 3e-4),
            "(11|12)={}",
            eri.get(0, 0, 0, 1)
        );
    }

    #[test]
    fn eightfold_permutational_symmetry() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        let n = basis.nao();
        let mut rng = liair_math::rng::SplitMix64::new(3);
        for _ in 0..200 {
            let (i, j, k, l) = (rng.below(n), rng.below(n), rng.below(n), rng.below(n));
            let v = eri.get(i, j, k, l);
            for w in [
                eri.get(j, i, k, l),
                eri.get(i, j, l, k),
                eri.get(j, i, l, k),
                eri.get(k, l, i, j),
                eri.get(l, k, i, j),
                eri.get(k, l, j, i),
                eri.get(l, k, j, i),
            ] {
                assert!(approx_eq(v, w, 1e-9), "({i}{j}|{k}{l}): {v} vs {w}");
            }
        }
    }

    #[test]
    fn diagonal_elements_nonnegative() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        let n = basis.nao();
        for i in 0..n {
            for j in 0..n {
                assert!(eri.get(i, j, i, j) >= -1e-12);
            }
        }
    }

    #[test]
    fn schwarz_bound_holds() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let q = schwarz_matrix(&basis);
        let engine = EriEngine::new(&basis);
        let nsh = basis.shells.len();
        for sa in 0..nsh {
            for sb in 0..nsh {
                for sc in 0..nsh {
                    for sd in 0..nsh {
                        let block = engine.shell_quartet(sa, sb, sc, sd);
                        let max = block.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                        let bound = q[(sa, sb)] * q[(sc, sd)];
                        assert!(max <= bound + 1e-9, "({sa}{sb}|{sc}{sd}): {max} > {bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn distant_pairs_decay() {
        let mut mol = systems::h2();
        mol.atoms[1].pos = liair_math::Vec3::new(10.0, 0.0, 0.0);
        let basis = Basis::sto3g(&mol);
        let eri = eri_tensor(&basis);
        assert!(eri.get(0, 1, 0, 1).abs() < 1e-8);
        // While the classical Coulomb (11|22) only decays like 1/R.
        assert!(approx_eq(eri.get(0, 0, 1, 1), 0.1, 1e-2));
    }

    #[test]
    fn into_matches_allocating_path() {
        let mol = systems::water();
        let basis = Basis::sto3g(&mol);
        let engine = EriEngine::new(&basis);
        let mut scratch = EriScratch::default();
        let mut out = Vec::new();
        for (sa, sb, sc, sd) in [(0, 1, 2, 3), (2, 2, 2, 2), (4, 0, 3, 1)] {
            engine.shell_quartet_into(sa, sb, sc, sd, &mut scratch, &mut out);
            let reference = engine.shell_quartet(sa, sb, sc, sd);
            assert_eq!(out, reference);
        }
    }
}
