//! McMurchie–Davidson building blocks.
//!
//! * [`ECoefs`] — the Hermite expansion coefficients `E_t^{ij}` of the 1-D
//!   Gaussian product `x_A^i x_B^j e^{-a x_A²} e^{-b x_B²}`;
//! * [`hermite_aux`] — the Coulomb auxiliary integrals
//!   `R_{tuv}(p, P−C)` built from the Boys function by the standard
//!   downward-in-`n` recursion, over a full `(t, u, v)` box;
//! * [`hermite_aux_tri_into`] — the same recursion restricted to the
//!   triangle `t + u + v ≤ l` the ERI contraction reads, into reusable
//!   scratch.

use liair_math::special::boys_into;
use liair_math::Vec3;

/// Hermite expansion coefficients for a primitive pair along one axis.
///
/// `get(i, j, t)` returns `E_t^{ij}`; entries with `t > i + j` (or any index
/// out of the constructed range) are zero by construction.
#[derive(Debug, Clone)]
pub struct ECoefs {
    imax: usize,
    jmax: usize,
    /// Flattened `[i][j][t]` with `t` dimension `imax + jmax + 1`.
    data: Vec<f64>,
}

impl ECoefs {
    /// Build the full table for `i ≤ imax`, `j ≤ jmax` given exponents
    /// `a`, `b` and the center separation `qx = Ax − Bx`.
    pub fn new(imax: usize, jmax: usize, qx: f64, a: f64, b: f64) -> Self {
        let p = a + b;
        let mu = a * b / p;
        let xpa = -b * qx / p; // P − A
        let xpb = a * qx / p; // P − B
        let tdim = imax + jmax + 1;
        let mut data = vec![0.0; (imax + 1) * (jmax + 1) * tdim];
        let idx = |i: usize, j: usize, t: usize| (i * (jmax + 1) + j) * tdim + t;
        data[idx(0, 0, 0)] = (-mu * qx * qx).exp();
        // Raise i at j = 0.
        for i in 0..imax {
            for t in 0..=(i + 1) {
                let mut v = xpa * data[idx(i, 0, t)];
                if t > 0 {
                    v += data[idx(i, 0, t - 1)] / (2.0 * p);
                }
                if t < i {
                    v += (t + 1) as f64 * data[idx(i, 0, t + 1)];
                }
                data[idx(i + 1, 0, t)] = v;
            }
        }
        // Raise j for every i.
        for j in 0..jmax {
            for i in 0..=imax {
                for t in 0..=(i + j + 1) {
                    let mut v = xpb * data[idx(i, j, t)];
                    if t > 0 {
                        v += data[idx(i, j, t - 1)] / (2.0 * p);
                    }
                    if t < i + j {
                        v += (t + 1) as f64 * data[idx(i, j, t + 1)];
                    }
                    data[idx(i, j + 1, t)] = v;
                }
            }
        }
        Self { imax, jmax, data }
    }

    /// `E_t^{ij}` (zero outside the stored/valid range).
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if i > self.imax || j > self.jmax || t > i + j {
            return 0.0;
        }
        let tdim = self.imax + self.jmax + 1;
        self.data[(i * (self.jmax + 1) + j) * tdim + t]
    }
}

/// Coulomb auxiliary integrals `R_{tuv} = R^0_{tuv}(p, PC)` for all
/// `t ≤ tmax`, `u ≤ umax`, `v ≤ vmax`, as a flattened
/// `[(tmax+1) × (umax+1) × (vmax+1)]` array indexed `t·(umax+1)(vmax+1) +
/// u·(vmax+1) + v`.
///
/// Recursion (Helgaker–Jørgensen–Olsen §9.9):
/// `R^n_{000} = (−2p)^n F_n(p·|PC|²)`,
/// `R^n_{t+1,u,v} = t·R^{n+1}_{t−1,u,v} + X_PC·R^{n+1}_{t,u,v}` (same per
/// axis), evaluated by carrying full `(t,u,v)` cubes downward in `n`.
pub fn hermite_aux(tmax: usize, umax: usize, vmax: usize, p: f64, pc: Vec3) -> Vec<f64> {
    let nmax = tmax + umax + vmax;
    let mut f = vec![0.0; nmax + 1];
    boys_into(&mut f, p * pc.norm_sqr());
    let dim = (tmax + 1) * (umax + 1) * (vmax + 1);
    let at = |t: usize, u: usize, v: usize| (t * (umax + 1) + u) * (vmax + 1) + v;
    // cur holds R^{n} cube; start at n = nmax where only (0,0,0) is needed,
    // then step n downward filling progressively larger t+u+v shells.
    let mut cur = vec![0.0; dim];
    let mut next = vec![0.0; dim];
    cur[0] = (-2.0 * p).powi(nmax as i32) * f[nmax];
    for n in (0..nmax).rev() {
        // `next` ← R^{n} from `cur` = R^{n+1}.
        for e in next.iter_mut() {
            *e = 0.0;
        }
        next[0] = (-2.0 * p).powi(n as i32) * f[n];
        let shell_max = nmax - n;
        for t in 0..=tmax.min(shell_max) {
            for u in 0..=umax.min(shell_max - t) {
                for v in 0..=vmax.min(shell_max - t - u) {
                    if t + u + v == 0 {
                        continue;
                    }
                    // Reduce along the first nonzero index.
                    next[at(t, u, v)] = if t > 0 {
                        let mut val = pc.x * cur[at(t - 1, u, v)];
                        if t > 1 {
                            val += (t - 1) as f64 * cur[at(t - 2, u, v)];
                        }
                        val
                    } else if u > 0 {
                        let mut val = pc.y * cur[at(t, u - 1, v)];
                        if u > 1 {
                            val += (u - 1) as f64 * cur[at(t, u - 2, v)];
                        }
                        val
                    } else {
                        let mut val = pc.z * cur[at(t, u, v - 1)];
                        if v > 1 {
                            val += (v - 1) as f64 * cur[at(t, u, v - 2)];
                        }
                        val
                    };
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Reusable buffers for [`hermite_aux_tri_into`] — the ERI hot loop calls it
/// once per primitive quartet, so allocation there matters.
#[derive(Debug, Default, Clone)]
pub struct AuxScratch {
    /// Result cube after a call, `R⁰_{tuv}` at `(t·stride + u)·stride + v`.
    pub cur: Vec<f64>,
    next: Vec<f64>,
    boys: Vec<f64>,
}

/// `scale · R⁰_{tuv}(p, PC)` for every `t + u + v ≤ l`, into `scratch.cur`
/// at `(t·stride + u)·stride + v` (`stride > l`). Entries outside the
/// triangle are left unspecified.
///
/// Boys values run to order `l` only, and each level `n` of the downward
/// recursion fills just the triangle `t + u + v ≤ l − n` it feeds. The
/// fixed stride lets a caller address `R_{t+τ,u+ν,v+φ}` as the sum of two
/// precomputed offsets.
pub fn hermite_aux_tri_into(
    l: usize,
    p: f64,
    pc: Vec3,
    scale: f64,
    stride: usize,
    scratch: &mut AuxScratch,
) {
    debug_assert!(l < stride, "stride {stride} too small for degree {l}");
    let dim = stride * stride * stride;
    if scratch.cur.len() < dim {
        scratch.cur.resize(dim, 0.0);
        scratch.next.resize(dim, 0.0);
    }
    scratch.boys.clear();
    scratch.boys.resize(l + 1, 0.0);
    boys_into(&mut scratch.boys, p * pc.norm_sqr());
    // R^n_{000} = scale · (−2p)^n F_n.
    let mut pow = scale;
    for f in scratch.boys.iter_mut() {
        *f *= pow;
        pow *= -2.0 * p;
    }
    let (s1, s2) = (stride, stride * stride);
    let (cur, next) = (&mut scratch.cur, &mut scratch.next);
    cur[0] = scratch.boys[l];
    for n in (0..l).rev() {
        // `next` ← R^n on the triangle of degree ≤ l − n, from `cur` = R^{n+1},
        // reducing along the first nonzero index.
        let m = l - n;
        next[0] = scratch.boys[n];
        next[1] = pc.z * cur[0];
        for v in 2..=m {
            next[v] = pc.z * cur[v - 1] + (v - 1) as f64 * cur[v - 2];
        }
        // The rest one `v` line at a time, reduced along `u` or `t`.
        for u in 1..=m {
            aux_line(next, cur, u * s1, m - u + 1, s1, pc.y, u - 1);
        }
        for t in 1..=m {
            for u in 0..=(m - t) {
                aux_line(next, cur, t * s2 + u * s1, m - t - u + 1, s2, pc.x, t - 1);
            }
        }
        std::mem::swap(cur, next);
    }
}

/// One `v` line of the `R` recursion along an axis with stride `step`:
/// `next[o+i] = x·cur[o+i−step] + k·cur[o+i−2·step]` for `i < len`, the
/// second term only when `k > 0` (the index reduced is at least 2).
#[inline(always)]
fn aux_line(next: &mut [f64], cur: &[f64], o: usize, len: usize, step: usize, x: f64, k: usize) {
    let dst = &mut next[o..o + len];
    let one = &cur[o - step..o - step + len];
    if k == 0 {
        for (d, &a) in dst.iter_mut().zip(one) {
            *d = x * a;
        }
    } else {
        let k = k as f64;
        let two = &cur[o - 2 * step..o - 2 * step + len];
        for ((d, &a), &b) in dst.iter_mut().zip(one).zip(two) {
            *d = x * a + k * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liair_math::approx_eq;
    use liair_math::special::boys;
    use std::f64::consts::PI;

    #[test]
    fn e000_is_gaussian_prefactor() {
        let (a, b, qx) = (0.9, 1.7, 0.8);
        let e = ECoefs::new(0, 0, qx, a, b);
        let mu = a * b / (a + b);
        assert!(approx_eq(e.get(0, 0, 0), (-mu * qx * qx).exp(), 1e-14));
    }

    #[test]
    fn overlap_from_e_coefs_matches_closed_form() {
        // 1-D overlap of two unnormalized s Gaussians:
        // ∫ e^{-a x_A²} e^{-b x_B²} dx = E_0^{00} √(π/p).
        let (a, b, qx) = (0.5, 1.25, 1.3);
        let p = a + b;
        let e = ECoefs::new(0, 0, qx, a, b);
        let got = e.get(0, 0, 0) * (PI / p).sqrt();
        let mu = a * b / p;
        let want = (PI / p).sqrt() * (-mu * qx * qx).exp();
        assert!(approx_eq(got, want, 1e-14));
    }

    #[test]
    fn p_s_overlap_odd_symmetry() {
        // Same-center ⟨p|s⟩ overlap must vanish (odd integrand): E_0^{10}
        // with qx = 0 is zero.
        let e = ECoefs::new(1, 0, 0.0, 0.7, 0.7);
        assert!(e.get(1, 0, 0).abs() < 1e-15);
        // And ⟨p|p⟩ same center: E_0^{11} = 1/(2p).
        let e2 = ECoefs::new(1, 1, 0.0, 0.7, 0.7);
        assert!(approx_eq(e2.get(1, 1, 0), 1.0 / (2.0 * 1.4), 1e-14));
    }

    #[test]
    fn e_coefs_sum_rule() {
        // Σ_t E_t^{ij} · t! δ ... simpler: moments identity
        // x_A = (x−P) + PA ⇒ E_0^{10} = X_PA · E_0^{00}.
        let (a, b, qx) = (0.8, 0.3, -0.6);
        let p = a + b;
        let xpa = -b * qx / p;
        let e = ECoefs::new(1, 0, qx, a, b);
        assert!(approx_eq(e.get(1, 0, 0), xpa * e.get(0, 0, 0), 1e-14));
        assert!(approx_eq(e.get(1, 0, 1), e.get(0, 0, 0) / (2.0 * p), 1e-14));
    }

    #[test]
    fn hermite_aux_s_limit() {
        // R_{000} = F_0(p·R²).
        let p = 1.3;
        let pc = Vec3::new(0.4, -0.2, 0.9);
        let r = hermite_aux(0, 0, 0, p, pc);
        let f = boys(0, p * pc.norm_sqr());
        assert!(approx_eq(r[0], f[0], 1e-14));
    }

    #[test]
    fn hermite_aux_first_derivative() {
        // R_{100}(PC) = ∂/∂PCx R_000 = X_PC · (−2p) F_1.
        let p = 0.9;
        let pc = Vec3::new(0.7, 0.1, -0.3);
        let r = hermite_aux(1, 0, 0, p, pc);
        let f = boys(1, p * pc.norm_sqr());
        let want = pc.x * (-2.0 * p) * f[1];
        // Dims (2,1,1): flat index (t·1 + u)·1 + v collapses to t + u + v.
        let idx = |t: usize, u: usize, v: usize| t + u + v;
        assert!(approx_eq(r[idx(1, 0, 0)], want, 1e-13));
    }

    #[test]
    fn triangular_aux_matches_box_on_the_triangle() {
        let (p, pc, scale) = (0.8, Vec3::new(0.6, -1.1, 0.35), 1.7);
        let mut scratch = AuxScratch::default();
        for l in 0..=8 {
            let stride = l + 2;
            hermite_aux_tri_into(l, p, pc, scale, stride, &mut scratch);
            let full = hermite_aux(l, l, l, p, pc);
            for t in 0..=l {
                for u in 0..=(l - t) {
                    for v in 0..=(l - t - u) {
                        let want = scale * full[(t * (l + 1) + u) * (l + 1) + v];
                        let got = scratch.cur[(t * stride + u) * stride + v];
                        assert!(
                            (got - want).abs() <= 1e-13 * (1.0 + want.abs()),
                            "l={l} ({t},{u},{v}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hermite_aux_finite_difference() {
        // Numerically verify R_{010} = ∂R_000/∂PCy via central differences.
        let p = 1.1;
        let pc = Vec3::new(0.3, 0.5, -0.8);
        let h = 1e-5;
        let r = hermite_aux(0, 1, 0, p, pc);
        let rp = hermite_aux(0, 0, 0, p, pc + Vec3::new(0.0, h, 0.0));
        let rm = hermite_aux(0, 0, 0, p, pc - Vec3::new(0.0, h, 0.0));
        let fd = (rp[0] - rm[0]) / (2.0 * h);
        assert!(approx_eq(r[1], fd, 1e-7), "{} vs {fd}", r[1]);
    }
}
