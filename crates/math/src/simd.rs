//! Runtime-dispatched short-vector SIMD kernels for the exchange hot path.
//!
//! The paper's node-level performance rests on the 4-wide QPX unit; this
//! module is the host-side equivalent: the handful of inner loops that
//! dominate a pair-Poisson exchange build — radix-2 butterfly passes,
//! the pointwise complex×real kernel-table multiply, the half-spectrum
//! weighted `|ρ̂|²` energy contraction, the real pair-density product
//! `φ_i·φ_j`, and axpy/scale accumulation — each available as
//!
//! * an **AVX2+FMA** implementation (`x86_64` only, `std::arch`
//!   intrinsics behind `is_x86_feature_detected!` — no new dependencies),
//! * a **chunked scalar** fallback written so LLVM can auto-vectorize it
//!   (the portable default), and
//! * an **off** path that is bit-identical to the pre-SIMD scalar code
//!   (the debugging / regression baseline).
//!
//! Dispatch is per *call* through [`SimdLevel`]: [`level()`] resolves the
//! process-wide default once (hardware detection + the `LIAIR_SIMD`
//! override), and every primitive has a `*_with` form taking an explicit
//! level, so a caller such as the `liair-core` exchange engine can run a
//! level pinned through its builder and tests can sweep every level in
//! one process.
//!
//! ## Numerical contract
//!
//! Every *elementwise* primitive (butterfly, kernel multiply, pair
//! density, axpy, scale, pack/unpack) performs the same per-element
//! operations in the same rounding order at every level — the AVX2
//! variants deliberately use unfused multiply + add/sub — so their
//! results are **bit-identical** across `off`/`scalar`/`avx2`. Only the
//! energy *contraction* re-associates the sum (four independent
//! accumulator lanes); its terms are non-negative, so the scalar and SIMD
//! results agree to a few ULP (property-tested at ≤ 4 ULP).
//!
//! `LIAIR_SIMD=off|scalar|avx2` forces a level; requesting `avx2` on
//! hardware without it falls back to `scalar` rather than failing, so the
//! same test matrix runs everywhere.

use crate::complex::Complex64;
use std::sync::OnceLock;

/// Which kernel implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// The pre-SIMD scalar loops, bit-identical to the seed code paths.
    Off,
    /// Chunked scalar kernels laid out for LLVM auto-vectorization.
    Scalar,
    /// Explicit AVX2+FMA intrinsics (`x86_64` with runtime detection).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name (the `LIAIR_SIMD` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Off => "off",
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// f64 lanes the level's vector unit processes at once.
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Avx2 => 4,
            _ => 1,
        }
    }
}

/// `true` when the running CPU can execute the AVX2+FMA kernels.
pub fn avx2_available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// The best level the hardware supports (ignores the env override).
pub fn detect() -> SimdLevel {
    if avx2_available() {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

/// Parse a `LIAIR_SIMD` value. Unknown strings are `None` (auto).
pub fn parse_level(raw: &str) -> Option<SimdLevel> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "off" => Some(SimdLevel::Off),
        "scalar" => Some(SimdLevel::Scalar),
        "avx2" => Some(SimdLevel::Avx2),
        _ => None,
    }
}

/// The `LIAIR_SIMD` override, read once per process. A forced `avx2` on
/// hardware without it degrades to `scalar`.
pub fn env_override() -> Option<SimdLevel> {
    static OVERRIDE: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        let forced = std::env::var("LIAIR_SIMD")
            .ok()
            .as_deref()
            .and_then(parse_level)?;
        Some(if forced == SimdLevel::Avx2 && !avx2_available() {
            SimdLevel::Scalar
        } else {
            forced
        })
    })
}

/// The process-wide default level: the `LIAIR_SIMD` override if set,
/// otherwise the best detected level.
pub fn level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| env_override().unwrap_or_else(detect))
}

/// Every level runnable on this machine, in increasing capability order —
/// what the tests and `bench-simd` sweep.
pub fn available_levels() -> Vec<SimdLevel> {
    let mut v = vec![SimdLevel::Off, SimdLevel::Scalar];
    if avx2_available() {
        v.push(SimdLevel::Avx2);
    }
    v
}

/// Resolve a requested level to one that is safe to execute here: `Avx2`
/// without hardware support degrades to `Scalar`. Keeps the `*_with`
/// entry points sound even for a hand-constructed [`SimdLevel::Avx2`].
#[inline]
fn effective(level: SimdLevel) -> SimdLevel {
    if level == SimdLevel::Avx2 && !avx2_available() {
        SimdLevel::Scalar
    } else {
        level
    }
}

// ---------------------------------------------------------------------------
// Pair-density product: out = a ⊙ b
// ---------------------------------------------------------------------------

/// Elementwise real product `out[i] = a[i]·b[i]` — the pair-density
/// formation `ρ_ij = φ_i φ_j`. Bit-identical across levels.
pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    mul_into_with(level(), out, a, b);
}

/// [`mul_into`] at an explicit level.
pub fn mul_into_with(level: SimdLevel, out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::mul_into(out, a, b) },
        SimdLevel::Scalar => {
            // 4-lane chunks: independent lanes LLVM packs into vectors.
            let n4 = out.len() / 4 * 4;
            for ((o, a4), b4) in out[..n4]
                .chunks_exact_mut(4)
                .zip(a[..n4].chunks_exact(4))
                .zip(b[..n4].chunks_exact(4))
            {
                for k in 0..4 {
                    o[k] = a4[k] * b4[k];
                }
            }
            for i in n4..out.len() {
                out[i] = a[i] * b[i];
            }
        }
        _ => {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x * y;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// axpy: y += alpha · x
// ---------------------------------------------------------------------------

/// `y[i] += alpha·x[i]` — the orbital accumulation `φ += C_μk χ_μ`.
/// Unfused multiply-then-add at every level: bit-identical results.
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    axpy_with(level(), y, alpha, x);
}

/// [`axpy`] at an explicit level.
pub fn axpy_with(level: SimdLevel, y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::axpy(y, alpha, x) },
        SimdLevel::Scalar => {
            let n4 = y.len() / 4 * 4;
            for (y4, x4) in y[..n4].chunks_exact_mut(4).zip(x[..n4].chunks_exact(4)) {
                for k in 0..4 {
                    y4[k] += alpha * x4[k];
                }
            }
            for i in n4..y.len() {
                y[i] += alpha * x[i];
            }
        }
        _ => {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi += alpha * xi;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Uniform complex scale: z *= s (the 1/n of an inverse transform)
// ---------------------------------------------------------------------------

/// `z[i] = z[i]·s` for a real scale factor. Bit-identical across levels.
pub fn scale_complex(z: &mut [Complex64], s: f64) {
    scale_complex_with(level(), z, s);
}

/// [`scale_complex`] at an explicit level.
pub fn scale_complex_with(level: SimdLevel, z: &mut [Complex64], s: f64) {
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::scale_complex(z, s) },
        SimdLevel::Scalar => {
            // Two complex per chunk = four independent f64 lanes.
            let n2 = z.len() / 2 * 2;
            for pair in z[..n2].chunks_exact_mut(2) {
                pair[0] = pair[0].scale(s);
                pair[1] = pair[1].scale(s);
            }
            for zi in &mut z[n2..] {
                *zi = zi.scale(s);
            }
        }
        _ => {
            for zi in z.iter_mut() {
                *zi = zi.scale(s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel-table multiply: z[i] *= table[i] (complex × real, pointwise)
// ---------------------------------------------------------------------------

/// Pointwise complex×real product `z[i] = z[i]·table[i]` — the
/// reciprocal-space Coulomb kernel application. Bit-identical across
/// levels.
pub fn scale_by_table(z: &mut [Complex64], table: &[f64]) {
    scale_by_table_with(level(), z, table);
}

/// [`scale_by_table`] at an explicit level.
pub fn scale_by_table_with(level: SimdLevel, z: &mut [Complex64], table: &[f64]) {
    assert_eq!(z.len(), table.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::scale_by_table(z, table) },
        SimdLevel::Scalar => {
            let n2 = z.len() / 2 * 2;
            for (pair, k2) in z[..n2].chunks_exact_mut(2).zip(table[..n2].chunks_exact(2)) {
                pair[0] = pair[0].scale(k2[0]);
                pair[1] = pair[1].scale(k2[1]);
            }
            for i in n2..z.len() {
                z[i] = z[i].scale(table[i]);
            }
        }
        _ => {
            for (zi, &k) in z.iter_mut().zip(table) {
                *zi = zi.scale(k);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Energy contraction: Σ_i wk[i] · |z[i]|²
// ---------------------------------------------------------------------------

/// Weighted half-spectrum energy `Σ_i wk[i]·|z[i]|²` with the Hermitian
/// double-count weights pre-folded into `wk` — the Parseval contraction
/// of the energy-only exchange path.
///
/// `Off` accumulates strictly sequentially (bit-identical to the seed
/// loop); `Scalar` and `Avx2` share a sixteen-lane accumulation order, so
/// they agree with each other to ≤ 4 ULP (FMA fusion is the only
/// difference) and with `Off` to the usual reassociation error of a
/// non-negative sum.
pub fn weighted_energy(z: &[Complex64], wk: &[f64]) -> f64 {
    weighted_energy_with(level(), z, wk)
}

/// [`weighted_energy`] at an explicit level.
pub fn weighted_energy_with(level: SimdLevel, z: &[Complex64], wk: &[f64]) -> f64 {
    assert_eq!(z.len(), wk.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::weighted_energy(z, wk) },
        SimdLevel::Scalar => {
            // Mirror of the AVX2 lane layout: four 4-lane accumulators over
            // eight complex per step, identical reduction tree. Four chains
            // because the FMA/add latency of one chain is what bounds the
            // sequential `Off` loop.
            let n = z.len();
            let mut l = [0.0f64; 16];
            let mut i = 0;
            while i + 8 <= n {
                for v in 0..4 {
                    let c0 = z[i + 2 * v];
                    let c1 = z[i + 2 * v + 1];
                    l[4 * v] += c0.re * c0.re * wk[i + 2 * v];
                    l[4 * v + 1] += c0.im * c0.im * wk[i + 2 * v];
                    l[4 * v + 2] += c1.re * c1.re * wk[i + 2 * v + 1];
                    l[4 * v + 3] += c1.im * c1.im * wk[i + 2 * v + 1];
                }
                i += 8;
            }
            let mut acc = (((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])))
                + (((l[8] + l[9]) + (l[10] + l[11])) + ((l[12] + l[13]) + (l[14] + l[15])));
            while i < n {
                acc += wk[i] * z[i].norm_sqr();
                i += 1;
            }
            acc
        }
        _ => {
            let mut acc = 0.0;
            for (zi, &k) in z.iter().zip(wk) {
                acc += k * zi.norm_sqr();
            }
            acc
        }
    }
}

// ---------------------------------------------------------------------------
// Radix-2 butterfly pass
// ---------------------------------------------------------------------------

/// One radix-2 Cooley–Tukey pass over `data`: for every `len`-long block,
/// `lo' = lo + w·hi`, `hi' = lo − w·hi` with twiddle `w = tw[j·step]`.
/// The AVX2 variant uses unfused complex multiplies, so the transform is
/// bit-identical across levels.
pub fn butterfly_pass(data: &mut [Complex64], tw: &[Complex64], len: usize, step: usize) {
    butterfly_pass_with(level(), data, tw, len, step);
}

/// [`butterfly_pass`] at an explicit level.
pub fn butterfly_pass_with(
    level: SimdLevel,
    data: &mut [Complex64],
    tw: &[Complex64],
    len: usize,
    step: usize,
) {
    debug_assert!(len >= 2 && data.len().is_multiple_of(len));
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if len >= 4 => unsafe { avx2::butterfly_pass(data, tw, len, step) },
        _ => butterfly_pass_scalar(data, tw, len, step),
    }
}

/// The seed butterfly loop, shared by `Off` and `Scalar` (a butterfly has
/// no accumulation to re-associate, so one scalar body serves both).
fn butterfly_pass_scalar(data: &mut [Complex64], tw: &[Complex64], len: usize, step: usize) {
    let half = len / 2;
    for block in data.chunks_exact_mut(len) {
        let (lo, hi) = block.split_at_mut(half);
        for j in 0..half {
            let w = tw[j * step];
            let u = lo[j];
            let v = hi[j] * w;
            lo[j] = u + v;
            hi[j] = u - v;
        }
    }
}

// ---------------------------------------------------------------------------
// r2c pack / unpack
// ---------------------------------------------------------------------------

/// Pack `2n` reals into `n` complex as `z_j = x_{2j} + i·x_{2j+1}` — the
/// even-length r2c front end. A straight interleaved copy under
/// `repr(C)`; bit-identical across levels.
pub fn pack_complex(out: &mut [Complex64], reals: &[f64]) {
    pack_complex_with(level(), out, reals);
}

/// [`pack_complex`] at an explicit level.
pub fn pack_complex_with(level: SimdLevel, out: &mut [Complex64], reals: &[f64]) {
    assert_eq!(reals.len(), 2 * out.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::pack_complex(out, reals) },
        _ => {
            for (zj, r) in out.iter_mut().zip(reals.chunks_exact(2)) {
                *zj = Complex64::new(r[0], r[1]);
            }
        }
    }
}

/// Inverse of [`pack_complex`]: spill `n` complex back to `2n` reals.
pub fn unpack_complex(out: &mut [f64], z: &[Complex64]) {
    unpack_complex_with(level(), out, z);
}

/// [`unpack_complex`] at an explicit level.
pub fn unpack_complex_with(level: SimdLevel, out: &mut [f64], z: &[Complex64]) {
    assert_eq!(out.len(), 2 * z.len());
    match effective(level) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::unpack_complex(out, z) },
        _ => {
            for (r, zj) in out.chunks_exact_mut(2).zip(z) {
                r[0] = zj.re;
                r[1] = zj.im;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels (x86_64, runtime-gated)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Callers guarantee AVX2+FMA via [`super::avx2_available`] before
    //! entering any function here. `Complex64` is `repr(C)`, so complex
    //! slices are interleaved `re, im` f64 sequences and a 256-bit vector
    //! holds two complex numbers.

    use super::Complex64;
    use std::arch::x86_64::*;

    /// `[k0, k1]` (128-bit) → `[k0, k0, k1, k1]` — one real weight per
    /// complex lane pair.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dup_weights(k: __m128d) -> __m256d {
        _mm256_permute4x64_pd(_mm256_castpd128_pd256(k), 0b01_01_00_00)
    }

    /// `(a[0]+a[1]) + (a[2]+a[3])` — the reduction tree the chunked
    /// scalar path mirrors.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum4(v: __m256d) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), v);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
        let n = out.len();
        let n4 = n / 4 * 4;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut i = 0;
        while i < n4 {
            let va = _mm256_loadu_pd(ap.add(i));
            let vb = _mm256_loadu_pd(bp.add(i));
            _mm256_storeu_pd(op.add(i), _mm256_mul_pd(va, vb));
            i += 4;
        }
        for i in n4..n {
            out[i] = a[i] * b[i];
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
        let n = y.len();
        let n4 = n / 4 * 4;
        let va = _mm256_set1_pd(alpha);
        let (yp, xp) = (y.as_mut_ptr(), x.as_ptr());
        let mut i = 0;
        while i < n4 {
            let vx = _mm256_loadu_pd(xp.add(i));
            let vy = _mm256_loadu_pd(yp.add(i));
            // Unfused mul + add: bit-identical to the scalar path.
            _mm256_storeu_pd(yp.add(i), _mm256_add_pd(vy, _mm256_mul_pd(va, vx)));
            i += 4;
        }
        for i in n4..n {
            y[i] += alpha * x[i];
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale_complex(z: &mut [Complex64], s: f64) {
        let n = z.len();
        let n2 = n / 2 * 2;
        let vs = _mm256_set1_pd(s);
        let zp = z.as_mut_ptr() as *mut f64;
        let mut i = 0;
        while i < n2 {
            let v = _mm256_loadu_pd(zp.add(2 * i));
            _mm256_storeu_pd(zp.add(2 * i), _mm256_mul_pd(v, vs));
            i += 2;
        }
        if n2 < n {
            z[n2] = z[n2].scale(s);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn scale_by_table(z: &mut [Complex64], table: &[f64]) {
        let n = z.len();
        let n2 = n / 2 * 2;
        let zp = z.as_mut_ptr() as *mut f64;
        let kp = table.as_ptr();
        let mut i = 0;
        while i < n2 {
            let kd = dup_weights(_mm_loadu_pd(kp.add(i)));
            let v = _mm256_loadu_pd(zp.add(2 * i));
            _mm256_storeu_pd(zp.add(2 * i), _mm256_mul_pd(v, kd));
            i += 2;
        }
        if n2 < n {
            z[n2] = z[n2].scale(table[n2]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn weighted_energy(z: &[Complex64], wk: &[f64]) -> f64 {
        let n = z.len();
        let n8 = n / 8 * 8;
        let zp = z.as_ptr() as *const f64;
        let kp = wk.as_ptr();
        // Four independent accumulator chains: the FMA latency of a single
        // chain is exactly what bounds the sequential `Off` loop, so the
        // chain count — not the lane width — sets the speedup here.
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i < n8 {
            let v0 = _mm256_loadu_pd(zp.add(2 * i));
            let v1 = _mm256_loadu_pd(zp.add(2 * i + 4));
            let v2 = _mm256_loadu_pd(zp.add(2 * i + 8));
            let v3 = _mm256_loadu_pd(zp.add(2 * i + 12));
            let k0 = dup_weights(_mm_loadu_pd(kp.add(i)));
            let k1 = dup_weights(_mm_loadu_pd(kp.add(i + 2)));
            let k2 = dup_weights(_mm_loadu_pd(kp.add(i + 4)));
            let k3 = dup_weights(_mm_loadu_pd(kp.add(i + 6)));
            acc0 = _mm256_fmadd_pd(_mm256_mul_pd(v0, v0), k0, acc0);
            acc1 = _mm256_fmadd_pd(_mm256_mul_pd(v1, v1), k1, acc1);
            acc2 = _mm256_fmadd_pd(_mm256_mul_pd(v2, v2), k2, acc2);
            acc3 = _mm256_fmadd_pd(_mm256_mul_pd(v3, v3), k3, acc3);
            i += 8;
        }
        let mut acc = (hsum4(acc0) + hsum4(acc1)) + (hsum4(acc2) + hsum4(acc3));
        while i < n {
            acc += wk[i] * z[i].norm_sqr();
            i += 1;
        }
        acc
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn butterfly_pass(
        data: &mut [Complex64],
        tw: &[Complex64],
        len: usize,
        step: usize,
    ) {
        let half = len / 2;
        let tp = tw.as_ptr() as *const f64;
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            let lp = lo.as_mut_ptr() as *mut f64;
            let hp = hi.as_mut_ptr() as *mut f64;
            let mut j = 0;
            while j + 2 <= half {
                // w = [w0.re, w0.im, w1.re, w1.im] (twiddles strided by `step`).
                let w = if step == 1 {
                    _mm256_loadu_pd(tp.add(2 * j))
                } else {
                    let w0 = _mm_loadu_pd(tp.add(2 * j * step));
                    let w1 = _mm_loadu_pd(tp.add(2 * (j + 1) * step));
                    _mm256_set_m128d(w1, w0)
                };
                let u = _mm256_loadu_pd(lp.add(2 * j));
                let h = _mm256_loadu_pd(hp.add(2 * j));
                // v = h·w, complex, unfused: p1 ∓ p2 matches the scalar
                // (re·re − im·im, im·re + re·im) roundings exactly.
                let w_re = _mm256_movedup_pd(w);
                let w_im = _mm256_permute_pd(w, 0b1111);
                let h_sw = _mm256_permute_pd(h, 0b0101);
                let p1 = _mm256_mul_pd(h, w_re);
                let p2 = _mm256_mul_pd(h_sw, w_im);
                let v = _mm256_addsub_pd(p1, p2);
                _mm256_storeu_pd(lp.add(2 * j), _mm256_add_pd(u, v));
                _mm256_storeu_pd(hp.add(2 * j), _mm256_sub_pd(u, v));
                j += 2;
            }
            while j < half {
                let w = tw[j * step];
                let u = lo[j];
                let v = hi[j] * w;
                lo[j] = u + v;
                hi[j] = u - v;
                j += 1;
            }
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn pack_complex(out: &mut [Complex64], reals: &[f64]) {
        let n = out.len();
        let n2 = n / 2 * 2;
        let op = out.as_mut_ptr() as *mut f64;
        let rp = reals.as_ptr();
        let mut i = 0;
        while i < n2 {
            _mm256_storeu_pd(op.add(2 * i), _mm256_loadu_pd(rp.add(2 * i)));
            i += 2;
        }
        if n2 < n {
            out[n2] = Complex64::new(reals[2 * n2], reals[2 * n2 + 1]);
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn unpack_complex(out: &mut [f64], z: &[Complex64]) {
        let n = z.len();
        let n2 = n / 2 * 2;
        let op = out.as_mut_ptr();
        let zp = z.as_ptr() as *const f64;
        let mut i = 0;
        while i < n2 {
            _mm256_storeu_pd(op.add(2 * i), _mm256_loadu_pd(zp.add(2 * i)));
            i += 2;
        }
        if n2 < n {
            out[2 * n2] = z[n2].re;
            out[2 * n2 + 1] = z[n2].im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn randf(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    fn randc(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    /// ULP distance between two finite doubles (monotone bit mapping).
    fn ulps(a: f64, b: f64) -> u64 {
        fn key(x: f64) -> u64 {
            let b = x.to_bits();
            if b >> 63 == 1 {
                !b
            } else {
                b | (1 << 63)
            }
        }
        key(a).abs_diff(key(b))
    }

    #[test]
    fn parse_level_vocabulary() {
        assert_eq!(parse_level("off"), Some(SimdLevel::Off));
        assert_eq!(parse_level(" Scalar "), Some(SimdLevel::Scalar));
        assert_eq!(parse_level("AVX2"), Some(SimdLevel::Avx2));
        assert_eq!(parse_level("auto"), None);
        assert_eq!(parse_level(""), None);
    }

    #[test]
    fn detection_is_consistent() {
        let d = detect();
        assert!(d == SimdLevel::Scalar || d == SimdLevel::Avx2);
        assert_eq!(d == SimdLevel::Avx2, avx2_available());
        let avail = available_levels();
        assert!(avail.contains(&SimdLevel::Off) && avail.contains(&SimdLevel::Scalar));
        assert_eq!(avail.contains(&SimdLevel::Avx2), avx2_available());
        // level() resolves to something runnable.
        assert!(avail.contains(&level()));
    }

    #[test]
    fn elementwise_primitives_bit_identical_across_levels() {
        for n in [0usize, 1, 3, 4, 7, 64, 129] {
            let a = randf(n, 1 + n as u64);
            let b = randf(n, 2 + n as u64);
            let z0 = randc(n, 3 + n as u64);
            let table = randf(n, 4 + n as u64);

            let mut want_mul = vec![0.0; n];
            mul_into_with(SimdLevel::Off, &mut want_mul, &a, &b);
            let mut want_axpy = b.clone();
            axpy_with(SimdLevel::Off, &mut want_axpy, 0.73, &a);
            let mut want_scale = z0.clone();
            scale_complex_with(SimdLevel::Off, &mut want_scale, 1.37);
            let mut want_table = z0.clone();
            scale_by_table_with(SimdLevel::Off, &mut want_table, &table);

            for lvl in available_levels() {
                let mut got = vec![0.0; n];
                mul_into_with(lvl, &mut got, &a, &b);
                assert_eq!(got, want_mul, "mul_into {lvl:?} n={n}");

                let mut got = b.clone();
                axpy_with(lvl, &mut got, 0.73, &a);
                assert_eq!(got, want_axpy, "axpy {lvl:?} n={n}");

                let mut got = z0.clone();
                scale_complex_with(lvl, &mut got, 1.37);
                assert_eq!(got, want_scale, "scale_complex {lvl:?} n={n}");

                let mut got = z0.clone();
                scale_by_table_with(lvl, &mut got, &table);
                assert_eq!(got, want_table, "scale_by_table {lvl:?} n={n}");
            }
        }
    }

    #[test]
    fn butterfly_pass_bit_identical_across_levels() {
        // Twiddles for n = 32; sweep every pass geometry (len, step).
        let n = 32;
        let tw: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let data = randc(n, 99);
        let mut len = 2;
        while len <= n {
            let step = n / len;
            let mut want = data.clone();
            butterfly_pass_with(SimdLevel::Off, &mut want, &tw, len, step);
            for lvl in available_levels() {
                let mut got = data.clone();
                butterfly_pass_with(lvl, &mut got, &tw, len, step);
                assert_eq!(got, want, "butterfly {lvl:?} len={len} step={step}");
            }
            len *= 2;
        }
    }

    #[test]
    fn pack_unpack_roundtrip_all_levels() {
        for n in [0usize, 1, 2, 5, 16, 33] {
            let x = randf(2 * n, 7 + n as u64);
            for lvl in available_levels() {
                let mut z = vec![Complex64::ZERO; n];
                pack_complex_with(lvl, &mut z, &x);
                for (j, zj) in z.iter().enumerate() {
                    assert_eq!(zj.re, x[2 * j]);
                    assert_eq!(zj.im, x[2 * j + 1]);
                }
                let mut back = vec![0.0; 2 * n];
                unpack_complex_with(lvl, &mut back, &z);
                assert_eq!(back, x, "{lvl:?} n={n}");
            }
        }
    }

    #[test]
    fn weighted_energy_agreement_bounds() {
        for n in [0usize, 1, 3, 4, 6, 17, 256, 1000] {
            let z = randc(n, 11 + n as u64);
            // Non-negative weights, like the Coulomb kernel table.
            let wk: Vec<f64> = randf(n, 13 + n as u64).iter().map(|v| v.abs()).collect();
            let off = weighted_energy_with(SimdLevel::Off, &z, &wk);
            let scalar = weighted_energy_with(SimdLevel::Scalar, &z, &wk);
            // Scalar and AVX2 share the lane assignment and reduction tree,
            // so they agree to ≤ 4 ULP (FMA fusion is the only difference).
            for lvl in available_levels() {
                if lvl == SimdLevel::Off {
                    continue;
                }
                let got = weighted_energy_with(lvl, &z, &wk);
                assert!(
                    ulps(got, scalar) <= 4,
                    "{lvl:?} n={n}: {got} vs {scalar} ({} ulp)",
                    ulps(got, scalar)
                );
            }
            // Off re-associates differently (sequential sum); for a sum of
            // non-negative terms the drift is bounded by n·eps relatively.
            let tol = 4.0 * n.max(1) as f64 * f64::EPSILON;
            assert!(
                (scalar - off).abs() <= tol * off.abs().max(1.0),
                "n={n}: scalar {scalar} vs off {off}"
            );
        }
    }

    #[test]
    fn avx2_requests_degrade_gracefully() {
        // Passing Avx2 explicitly must be safe even where unsupported:
        // `effective` falls back to the chunked scalar path.
        let a = randf(9, 1);
        let b = randf(9, 2);
        let mut got = vec![0.0; 9];
        mul_into_with(SimdLevel::Avx2, &mut got, &a, &b);
        let mut want = vec![0.0; 9];
        mul_into_with(SimdLevel::Off, &mut want, &a, &b);
        assert_eq!(got, want);
    }
}
