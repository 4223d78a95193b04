//! Planned 1-D FFTs with a process-wide plan cache.
//!
//! The seed implementation rebuilt the twiddle table `e^{±2πik/n}` on every
//! 1-D call — `O(n²)` table traffic per 3-D grid since `fft3` issues one
//! line transform per row. An [`FftPlan`] hoists everything that depends
//! only on the length out of the transform. Each length takes one of three
//! algorithms:
//!
//! * **powers of two** — iterative radix-2 Cooley–Tukey over the cached
//!   bit-reversal permutation and twiddle tables, with the butterfly
//!   passes dispatched through [`crate::simd`];
//! * **7-smooth lengths** (every prime factor ≤ 7: 12, 24, 48, 96, 360, …)
//!   — a mixed-radix Stockham autosort plan. The length is factored into
//!   radix-4/2/3/5 stages (specialised butterflies) plus a generic odd
//!   butterfly for radix 7; each stage reads one buffer and writes the
//!   other, ping-ponging between the caller's data and a grow-only
//!   thread-local buffer (the twiddle-free last stage runs in place when
//!   its input already sits in the caller's data), so no bit reversal and
//!   no copy-back is needed. Every stage's
//!   twiddles `e^{∓2πi·j·p·s/n}` are tabulated in the plan. The path is
//!   scalar and ignores the SIMD level, so it is bit-identical across
//!   levels by construction;
//! * **anything else** (a prime factor > 7) — Bluestein chirp-z over a
//!   power-of-two convolution, with the chirp sequence **and its forward
//!   FFT** cached in the plan (the seed re-FFT'd the chirp on every call —
//!   two of the three `m`-point transforms per call were pure overhead).
//!
//! Plans are cached process-wide in [`plan`] keyed by length, so the first
//! transform of a given size pays the setup and every later one (any
//! thread) reuses it — the serial analogue of FFTW-style planning the
//! BG/Q paper leans on for its node kernel. The cache is **bounded**: a
//! multi-tenant serve process sees many distinct grid sizes over its
//! lifetime, so beyond [`plan_cache_capacity`] entries the least-recently
//! used plan is evicted (in-flight `Arc`s keep evicted plans alive until
//! their last user drops them — eviction only forgets, it never
//! invalidates). [`plan_cache_stats`] exposes hit/miss/eviction counters
//! for regression tests, the engine's `BuildProfile`, and perf triage.
//! A mixed-radix plan is self-contained (one cache entry); a Bluestein
//! plan also caches its power-of-two sub-plan.
//!
//! Steady-state transforms are allocation-free: the Stockham ping-pong
//! buffer and the Bluestein convolution scratch live in grow-only thread
//! locals.

use crate::complex::Complex64;
use crate::simd::{self, SimdLevel};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A planned 1-D transform of fixed length.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kind: Kind,
}

/// The algorithm a plan runs, with its length-dependent tables.
#[derive(Debug)]
enum Kind {
    /// Radix-2 Cooley–Tukey (`n` a power of two, including `n = 1`).
    Pow2 {
        /// `e^{-2πik/n}` for `k < n/2` (forward sign).
        tw_fwd: Vec<Complex64>,
        /// `e^{+2πik/n}` for `k < n/2`.
        tw_inv: Vec<Complex64>,
        /// Bit-reversal permutation (empty for `n = 1`).
        bitrev: Vec<u32>,
    },
    /// Mixed-radix Stockham (every prime factor ≤ 7).
    Mixed(MixedRadix),
    /// Chirp-z for lengths with a prime factor > 7.
    Bluestein(Bluestein),
}

#[derive(Debug)]
struct MixedRadix {
    stages: Vec<Stage>,
    /// Stage twiddles, stage-major then `p`-major: entry `p·(r−1) + j − 1`
    /// of a stage holds `e^{-2πi·j·p·s/n}` (forward sign).
    tw_fwd: Vec<Complex64>,
    /// The conjugate table (inverse sign).
    tw_inv: Vec<Complex64>,
}

/// One Stockham pass: `m·s` radix-`r` butterflies on a sub-length
/// `r·m` at stride `s` (`r·m·s = n`).
#[derive(Debug)]
struct Stage {
    radix: usize,
    m: usize,
    s: usize,
    /// Offset of this stage's `(r−1)·m` twiddles in the plan tables.
    tw: usize,
    /// `e^{+2πik/r}` for `k < r` — the roots of the generic odd butterfly
    /// (empty for the specialised radices).
    roots: Vec<Complex64>,
}

#[derive(Debug)]
struct Bluestein {
    /// Convolution length: next power of two ≥ 2n−1.
    m: usize,
    /// Forward chirp `e^{-iπ j²/n}` (inverse uses the conjugate).
    chirp: Vec<Complex64>,
    /// FFT_m of the wrapped conjugate chirp (forward transforms).
    spec_fwd: Vec<Complex64>,
    /// FFT_m of the wrapped chirp (inverse transforms).
    spec_inv: Vec<Complex64>,
    /// The power-of-two sub-plan driving the cyclic convolution.
    sub: Arc<FftPlan>,
}

thread_local! {
    /// Grow-only Bluestein convolution scratch (per thread, reused across
    /// calls — zero allocations once warmed up).
    static CONV_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
    /// Grow-only Stockham ping-pong buffer of the mixed-radix path.
    static STOCKHAM_SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

/// Stage radices of `n` — fours first, then a leftover two, then threes,
/// fives and sevens — or `None` when `n` has a prime factor > 7.
fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut radices = Vec::new();
    for r in [4, 2, 3, 5, 7] {
        while n.is_multiple_of(r) {
            radices.push(r);
            n /= r;
        }
    }
    (n == 1).then_some(radices)
}

impl FftPlan {
    fn build(n: usize) -> FftPlan {
        assert!(n >= 1, "FFT length must be positive");
        if n.is_power_of_two() {
            let shift = usize::BITS - n.trailing_zeros();
            let bitrev = if n > 1 {
                (0..n).map(|i| (i.reverse_bits() >> shift) as u32).collect()
            } else {
                Vec::new()
            };
            return FftPlan {
                n,
                kind: Kind::Pow2 {
                    tw_fwd: twiddle_table(n, false),
                    tw_inv: twiddle_table(n, true),
                    bitrev,
                },
            };
        }
        if let Some(radices) = factorize(n) {
            return FftPlan {
                n,
                kind: Kind::Mixed(MixedRadix::build(n, &radices)),
            };
        }
        FftPlan::build_bluestein(n)
    }

    /// Bluestein setup. Quadratic phase reduced mod 2n to preserve
    /// precision at large indices.
    fn build_bluestein(n: usize) -> FftPlan {
        let chirp: Vec<Complex64> = (0..n)
            .map(|j| {
                let jsq = (j as u128 * j as u128 % (2 * n as u128)) as f64;
                Complex64::cis(-std::f64::consts::PI * jsq / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let sub = plan(m);
        let mut b_fwd = vec![Complex64::ZERO; m];
        let mut b_inv = vec![Complex64::ZERO; m];
        for j in 0..n {
            b_fwd[j] = chirp[j].conj();
            b_inv[j] = chirp[j];
            if j > 0 {
                b_fwd[m - j] = chirp[j].conj();
                b_inv[m - j] = chirp[j];
            }
        }
        // Chirp spectra are part of the cached plan: build them at the Off
        // level so the plan is identical no matter which level built it
        // (levels are bit-identical anyway; this makes it true by fiat).
        sub.pow2_transform(SimdLevel::Off, &mut b_fwd, false);
        sub.pow2_transform(SimdLevel::Off, &mut b_inv, false);
        FftPlan {
            n,
            kind: Kind::Bluestein(Bluestein {
                m,
                chirp,
                spec_fwd: b_fwd,
                spec_inv: b_inv,
                sub,
            }),
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// In-place forward DFT `X_k = Σ_j x_j e^{-2πijk/n}` (unnormalized).
    pub fn fft(&self, data: &mut [Complex64]) {
        self.fft_with(simd::level(), data);
    }

    /// [`FftPlan::fft`] at an explicit SIMD level.
    pub fn fft_with(&self, level: SimdLevel, data: &mut [Complex64]) {
        self.transform(level, data, false);
    }

    /// In-place inverse DFT with `1/n` normalization.
    pub fn ifft(&self, data: &mut [Complex64]) {
        self.ifft_with(simd::level(), data);
    }

    /// [`FftPlan::ifft`] at an explicit SIMD level.
    pub fn ifft_with(&self, level: SimdLevel, data: &mut [Complex64]) {
        self.transform(level, data, true);
        simd::scale_complex_with(level, data, 1.0 / self.n as f64);
    }

    fn transform(&self, level: SimdLevel, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length does not match plan");
        if self.n <= 1 {
            return;
        }
        match &self.kind {
            Kind::Pow2 { .. } => self.pow2_transform(level, data, inverse),
            Kind::Mixed(mr) => mr.transform(data, inverse),
            Kind::Bluestein(bs) => self.bluestein_transform(bs, level, data, inverse),
        }
    }

    /// Iterative radix-2 Cooley–Tukey using the cached permutation and
    /// twiddles (`n` power of two). The butterfly passes dispatch through
    /// [`simd::butterfly_pass_with`]; every level is bit-identical.
    fn pow2_transform(&self, level: SimdLevel, data: &mut [Complex64], inverse: bool) {
        let n = self.n;
        let Kind::Pow2 {
            tw_fwd,
            tw_inv,
            bitrev,
        } = &self.kind
        else {
            unreachable!("pow2_transform on a non-power-of-two plan");
        };
        debug_assert!(n.is_power_of_two() && data.len() == n);
        for (i, &jr) in bitrev.iter().enumerate() {
            let j = jr as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let tw = if inverse { tw_inv } else { tw_fwd };
        let mut len = 2;
        while len <= n {
            simd::butterfly_pass_with(level, data, tw, len, n / len);
            len *= 2;
        }
    }

    /// Bluestein chirp-z via one cached-spectrum cyclic convolution: only
    /// two `m`-point transforms per call (the seed needed three, plus two
    /// fresh `m`-point buffers; here the single scratch is thread-local).
    fn bluestein_transform(
        &self,
        bs: &Bluestein,
        level: SimdLevel,
        data: &mut [Complex64],
        inverse: bool,
    ) {
        CONV_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < bs.m {
                buf.resize(bs.m, Complex64::ZERO);
            }
            let a = &mut buf[..bs.m];
            for j in 0..self.n {
                let c = if inverse {
                    bs.chirp[j].conj()
                } else {
                    bs.chirp[j]
                };
                a[j] = data[j] * c;
            }
            a[self.n..].fill(Complex64::ZERO);
            bs.sub.pow2_transform(level, a, false);
            let spec = if inverse { &bs.spec_inv } else { &bs.spec_fwd };
            for (x, s) in a.iter_mut().zip(spec) {
                *x *= *s;
            }
            bs.sub.pow2_transform(level, a, true);
            let inv_m = 1.0 / bs.m as f64;
            for k in 0..self.n {
                let c = if inverse {
                    bs.chirp[k].conj()
                } else {
                    bs.chirp[k]
                };
                data[k] = a[k].scale(inv_m) * c;
            }
        });
    }
}

impl MixedRadix {
    fn build(n: usize, radices: &[usize]) -> MixedRadix {
        let mut stages = Vec::new();
        let mut tw_fwd = Vec::new();
        let (mut len, mut s) = (n, 1);
        for &radix in radices {
            let m = len / radix;
            let tw = tw_fwd.len();
            for p in 0..m {
                for j in 1..radix {
                    // j·p·s < r·m·s = n: no reduction needed.
                    let k = j * p * s;
                    tw_fwd.push(Complex64::cis(
                        -2.0 * std::f64::consts::PI * k as f64 / n as f64,
                    ));
                }
            }
            let roots = if radix > 5 {
                (0..radix)
                    .map(|k| Complex64::cis(2.0 * std::f64::consts::PI * k as f64 / radix as f64))
                    .collect()
            } else {
                Vec::new()
            };
            stages.push(Stage {
                radix,
                m,
                s,
                tw,
                roots,
            });
            len = m;
            s *= radix;
        }
        let tw_inv = tw_fwd.iter().map(|w| w.conj()).collect();
        MixedRadix {
            stages,
            tw_fwd,
            tw_inv,
        }
    }

    /// Run every stage but the last out of place, ping-ponging between
    /// `data` and the thread-local buffer. The last stage (`m = 1`, no
    /// twiddles) reads and writes the same `R` positions per butterfly, so
    /// it runs in place when its input already sits in `data`, and
    /// otherwise writes from the buffer into `data`: no copy-back either
    /// way.
    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        let n = data.len();
        let (last, rest) = self.stages.split_last().expect("n > 1 has a stage");
        if rest.is_empty() {
            last.run_in_place(data, inverse);
            return;
        }
        STOCKHAM_SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < n {
                buf.resize(n, Complex64::ZERO);
            }
            let scratch = &mut buf[..n];
            let tw = if inverse { &self.tw_inv } else { &self.tw_fwd };
            for (i, st) in rest.iter().enumerate() {
                let tw = &tw[st.tw..st.tw + (st.radix - 1) * st.m];
                if i % 2 == 0 {
                    st.run(data, scratch, tw, inverse);
                } else {
                    st.run(scratch, data, tw, inverse);
                }
            }
            if rest.len() % 2 == 0 {
                last.run_in_place(data, inverse);
            } else {
                let tw = &tw[last.tw..last.tw + last.radix - 1];
                last.run(scratch, data, tw, inverse);
            }
        });
    }
}

impl Stage {
    /// Out-of-place pass `src → dst` with this stage's twiddles `tw`.
    fn run(&self, src: &[Complex64], dst: &mut [Complex64], tw: &[Complex64], inverse: bool) {
        if inverse {
            self.pass::<true>(src, dst, tw);
        } else {
            self.pass::<false>(src, dst, tw);
        }
    }

    fn pass<const INV: bool>(&self, src: &[Complex64], dst: &mut [Complex64], tw: &[Complex64]) {
        let (m, s) = (self.m, self.s);
        match self.radix {
            2 => stockham_pass::<2>(src, dst, m, s, tw, bf2),
            3 => stockham_pass::<3>(src, dst, m, s, tw, bf3::<INV>),
            4 => stockham_pass::<4>(src, dst, m, s, tw, bf4::<INV>),
            5 => stockham_pass::<5>(src, dst, m, s, tw, bf5::<INV>),
            7 => stockham_pass::<7>(src, dst, m, s, tw, |a| bf_odd::<7, INV>(a, &self.roots)),
            r => unreachable!("no radix-{r} butterfly"),
        }
    }

    /// In-place pass of the last stage (`m = 1`).
    fn run_in_place(&self, data: &mut [Complex64], inverse: bool) {
        if inverse {
            self.pass_in_place::<true>(data);
        } else {
            self.pass_in_place::<false>(data);
        }
    }

    fn pass_in_place<const INV: bool>(&self, data: &mut [Complex64]) {
        debug_assert_eq!(self.m, 1, "only the last stage runs in place");
        let s = self.s;
        match self.radix {
            2 => last_pass_in_place::<2>(data, s, bf2),
            3 => last_pass_in_place::<3>(data, s, bf3::<INV>),
            4 => last_pass_in_place::<4>(data, s, bf4::<INV>),
            5 => last_pass_in_place::<5>(data, s, bf5::<INV>),
            7 => last_pass_in_place::<7>(data, s, |a| bf_odd::<7, INV>(a, &self.roots)),
            r => unreachable!("no radix-{r} butterfly"),
        }
    }
}

/// The last Stockham pass (`m = 1`, all twiddles 1) in place: butterfly
/// `q` reads and writes exactly the positions `q + s·k`.
#[inline(always)]
fn last_pass_in_place<const R: usize>(
    data: &mut [Complex64],
    s: usize,
    butterfly: impl Fn(&mut [Complex64; R]),
) {
    let mut lines = data.chunks_exact_mut(s);
    let mut lines: [&mut [Complex64]; R] =
        std::array::from_fn(|_| lines.next().expect("R chunks of s"));
    for q in 0..s {
        let mut a: [Complex64; R] = std::array::from_fn(|k| lines[k][q]);
        butterfly(&mut a);
        for (line, v) in lines.iter_mut().zip(a) {
            line[q] = v;
        }
    }
}

/// One decimation-in-frequency Stockham pass: for every `p < m`, `q < s`
/// gather `a_k = src[q + s(p + km)]`, butterfly, and write
/// `dst[q + s(rp + j)] = b_j · w^{jps}` (the `p = 0` twiddles are 1 and
/// skipped).
#[inline(always)]
fn stockham_pass<const R: usize>(
    src: &[Complex64],
    dst: &mut [Complex64],
    m: usize,
    s: usize,
    tw: &[Complex64],
    butterfly: impl Fn(&mut [Complex64; R]),
) {
    for p in 0..m {
        let ins: [&[Complex64]; R] = std::array::from_fn(|k| {
            let at = s * (p + k * m);
            &src[at..at + s]
        });
        let mut outs = dst[s * R * p..s * R * (p + 1)].chunks_exact_mut(s);
        let outs: [&mut [Complex64]; R] =
            std::array::from_fn(|_| outs.next().expect("R chunks of s"));
        let w = &tw[p * (R - 1)..(p + 1) * (R - 1)];
        for q in 0..s {
            let mut a: [Complex64; R] = std::array::from_fn(|k| ins[k][q]);
            butterfly(&mut a);
            outs[0][q] = a[0];
            if p == 0 {
                for j in 1..R {
                    outs[j][q] = a[j];
                }
            } else {
                for j in 1..R {
                    outs[j][q] = a[j] * w[j - 1];
                }
            }
        }
    }
}

/// `-i·z` (forward) or `+i·z` (inverse).
#[inline(always)]
fn rot<const INV: bool>(z: Complex64) -> Complex64 {
    if INV {
        Complex64::new(-z.im, z.re)
    } else {
        Complex64::new(z.im, -z.re)
    }
}

#[inline(always)]
fn bf2(a: &mut [Complex64; 2]) {
    let (x, y) = (a[0], a[1]);
    a[0] = x + y;
    a[1] = x - y;
}

#[inline(always)]
fn bf3<const INV: bool>(a: &mut [Complex64; 3]) {
    // sin(2π/3)
    const S3: f64 = 0.866_025_403_784_438_6;
    let t1 = a[1] + a[2];
    let t2 = a[0] - t1.scale(0.5);
    let t3 = rot::<INV>((a[1] - a[2]).scale(S3));
    a[0] += t1;
    a[1] = t2 + t3;
    a[2] = t2 - t3;
}

#[inline(always)]
fn bf4<const INV: bool>(a: &mut [Complex64; 4]) {
    let t0 = a[0] + a[2];
    let t1 = a[0] - a[2];
    let t2 = a[1] + a[3];
    let t3 = rot::<INV>(a[1] - a[3]);
    a[0] = t0 + t2;
    a[1] = t1 + t3;
    a[2] = t0 - t2;
    a[3] = t1 - t3;
}

#[inline(always)]
fn bf5<const INV: bool>(a: &mut [Complex64; 5]) {
    // cos/sin of 2π/5 and 4π/5.
    const C1: f64 = 0.309_016_994_374_947_45;
    const C2: f64 = -0.809_016_994_374_947_5;
    const S1: f64 = 0.951_056_516_295_153_5;
    const S2: f64 = 0.587_785_252_292_473_2;
    let t1 = a[1] + a[4];
    let t2 = a[2] + a[3];
    let t3 = a[1] - a[4];
    let t4 = a[2] - a[3];
    let m1 = a[0] + t1.scale(C1) + t2.scale(C2);
    let m2 = a[0] + t1.scale(C2) + t2.scale(C1);
    let n1 = rot::<INV>(t3.scale(S1) + t4.scale(S2));
    let n2 = rot::<INV>(t3.scale(S2) - t4.scale(S1));
    a[0] += t1 + t2;
    a[1] = m1 + n1;
    a[4] = m1 - n1;
    a[2] = m2 + n2;
    a[3] = m2 - n2;
}

/// Generic odd-radix DFT on a stack array, pairing `a_k` with `a_{R−k}`:
/// `b_j = a_0 + Σ_k cos(2πjk/R)(a_k + a_{R−k}) ∓ i Σ_k sin(2πjk/R)(a_k − a_{R−k})`.
/// `roots[t] = e^{+2πit/R}`.
#[inline(always)]
fn bf_odd<const R: usize, const INV: bool>(a: &mut [Complex64; R], roots: &[Complex64]) {
    let h = R / 2;
    let mut sum = [Complex64::ZERO; R];
    let mut dif = [Complex64::ZERO; R];
    for k in 1..=h {
        sum[k] = a[k] + a[R - k];
        dif[k] = a[k] - a[R - k];
    }
    let a0 = a[0];
    let mut b0 = a0;
    for s in &sum[1..=h] {
        b0 += *s;
    }
    for j in 1..=h {
        let mut re = a0;
        let mut im = Complex64::ZERO;
        for k in 1..=h {
            let w = roots[j * k % R];
            re += sum[k].scale(w.re);
            im += dif[k].scale(w.im);
        }
        let im = rot::<INV>(im);
        a[j] = re + im;
        a[R - j] = re - im;
    }
    a[0] = b0;
}

fn twiddle_table(n: usize, inverse: bool) -> Vec<Complex64> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let step = sign * 2.0 * std::f64::consts::PI / n as f64;
    (0..n / 2)
        .map(|k| Complex64::cis(step * k as f64))
        .collect()
}

/// Default bound on distinct cached lengths. A 3-D transform touches at
/// most three lengths plus their Bluestein sub-lengths, so this comfortably
/// covers dozens of concurrently active grid shapes.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

#[derive(Debug)]
struct PlanEntry {
    plan: Arc<FftPlan>,
    /// Logical clock of the most recent lookup; smallest value = LRU.
    last_use: u64,
}

#[derive(Debug)]
struct PlanCache {
    entries: HashMap<usize, PlanEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache {
            entries: HashMap::new(),
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl PlanCache {
    /// Evict least-recently-used entries until at most `capacity` remain,
    /// never evicting `keep` (the entry the caller is about to hand out).
    fn enforce_bound(&mut self, keep: usize) {
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    self.entries.remove(&k);
                    self.evictions += 1;
                }
                None => break, // capacity 0 with only `keep` present
            }
        }
    }
}

static PLAN_CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();

fn cache() -> &'static Mutex<PlanCache> {
    PLAN_CACHE.get_or_init(Default::default)
}

/// Fetch (or build and cache) the plan for length `n`. Hot callers that
/// transform many same-length lines should fetch once and reuse the `Arc`
/// rather than paying the cache lock per line.
pub fn plan(n: usize) -> Arc<FftPlan> {
    {
        let mut c = cache().lock().unwrap();
        c.tick += 1;
        let tick = c.tick;
        if let Some(e) = c.entries.get_mut(&n) {
            e.last_use = tick;
            let out = Arc::clone(&e.plan);
            c.hits += 1;
            return out;
        }
    }
    // Build outside the lock: Bluestein setup recurses into `plan(m)`.
    let built = Arc::new(FftPlan::build(n));
    let mut c = cache().lock().unwrap();
    c.tick += 1;
    let tick = c.tick;
    // The miss is counted by the insertion, so threads racing to build
    // the same length count one miss between them: the counter is a
    // deterministic count of distinct plans built into the cache. The
    // losers' duplicate builds are dropped and count as hits.
    let PlanCache {
        entries,
        hits,
        misses,
        ..
    } = &mut *c;
    let out = match entries.entry(n) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            *hits += 1;
            e.get_mut().last_use = tick;
            Arc::clone(&e.get().plan)
        }
        std::collections::hash_map::Entry::Vacant(v) => {
            *misses += 1;
            Arc::clone(
                &v.insert(PlanEntry {
                    plan: built,
                    last_use: tick,
                })
                .plan,
            )
        }
    };
    c.enforce_bound(n);
    out
}

/// Bound the number of distinct cached plan lengths (LRU eviction beyond
/// it). Returns the previous capacity. Takes effect immediately: shrinking
/// below the current population evicts at once.
pub fn set_plan_cache_capacity(capacity: usize) -> usize {
    let mut c = cache().lock().unwrap();
    let prev = c.capacity;
    c.capacity = capacity.max(1);
    // `usize::MAX` is never a valid length key, so nothing is pinned.
    c.enforce_bound(usize::MAX);
    prev
}

/// The current bound on distinct cached plan lengths.
pub fn plan_cache_capacity() -> usize {
    cache().lock().unwrap().capacity
}

/// Plan-cache observability counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Plans built into the cache (threads racing on one length count
    /// once).
    pub misses: u64,
    /// Plans dropped by the LRU bound (cumulative).
    pub evictions: u64,
    /// Distinct lengths currently cached.
    pub plans: usize,
    /// Current cache bound.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Counter deltas `self − earlier` (for per-build / per-job windows).
    pub fn since(&self, earlier: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            plans: self.plans,
            capacity: self.capacity,
        }
    }
}

/// Snapshot of the process-wide plan-cache counters.
pub fn plan_cache_stats() -> PlanCacheStats {
    let c = cache().lock().unwrap();
    PlanCacheStats {
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        plans: c.entries.len(),
        capacity: c.capacity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::dft_reference;
    use crate::rng::SplitMix64;

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| Complex64::new(rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect()
    }

    #[test]
    fn planned_transform_matches_reference() {
        for &n in &[2usize, 7, 16, 48, 77, 96, 128] {
            let p = plan(n);
            let x = random_signal(n, n as u64);
            let want = dft_reference(&x, false);
            let mut got = x.clone();
            p.fft(&mut got);
            let err = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-8 * n as f64, "n={n}: err {err}");
            p.ifft(&mut got);
            let rt = got
                .iter()
                .zip(&x)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(rt < 1e-10, "n={n} roundtrip err {rt}");
        }
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn every_smooth_length_matches_reference_and_bluestein() {
        let smooth: Vec<usize> = (2..=512).filter(|&n| factorize(n).is_some()).collect();
        assert!(smooth.contains(&360) && smooth.contains(&49) && !smooth.contains(&22));
        for n in smooth {
            // Built outside the cache: ~150 lengths would overflow its LRU
            // bound and evict plans other tests hold identity checks on.
            let p = FftPlan::build(n);
            let x = random_signal(n, 1000 + n as u64);
            let mut fwd = x.clone();
            p.fft(&mut fwd);
            let err = max_err(&fwd, &dft_reference(&x, false));
            assert!(err < 1e-8 * n as f64, "n={n}: forward err {err}");
            let mut inv = x.clone();
            p.ifft(&mut inv);
            let want: Vec<Complex64> = dft_reference(&x, true)
                .into_iter()
                .map(|z| z.scale(1.0 / n as f64))
                .collect();
            let err = max_err(&inv, &want);
            assert!(err < 1e-8 * n as f64, "n={n}: inverse err {err}");
            // Same length through the chirp-z path: agreement to 1e-12 of
            // the spectrum's scale.
            let bs = FftPlan::build_bluestein(n);
            let mut chirp = x.clone();
            bs.fft(&mut chirp);
            let scale = chirp.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let rel = max_err(&fwd, &chirp) / scale;
            assert!(rel < 1e-12, "n={n}: mixed vs Bluestein forward rel {rel}");
            let mut chirp = x.clone();
            bs.ifft(&mut chirp);
            let scale = chirp.iter().map(|z| z.abs()).fold(0.0, f64::max);
            let rel = max_err(&inv, &chirp) / scale;
            assert!(rel < 1e-12, "n={n}: mixed vs Bluestein inverse rel {rel}");
        }
    }

    #[test]
    fn plan_kind_follows_the_largest_prime_factor() {
        assert!(matches!(plan(64).kind, Kind::Pow2 { .. }));
        for n in [12, 24, 48, 96, 360, 343] {
            assert!(matches!(plan(n).kind, Kind::Mixed(_)), "n={n}");
        }
        for n in [22, 77, 1031] {
            assert!(matches!(plan(n).kind, Kind::Bluestein(_)), "n={n}");
        }
        let Kind::Mixed(mr) = &plan(24).kind else {
            unreachable!()
        };
        let radices: Vec<usize> = mr.stages.iter().map(|s| s.radix).collect();
        assert_eq!(radices, [4, 2, 3]);
    }

    #[test]
    fn generic_odd_butterfly_matches_specialised() {
        fn roots(r: usize) -> Vec<Complex64> {
            (0..r)
                .map(|k| Complex64::cis(2.0 * std::f64::consts::PI * k as f64 / r as f64))
                .collect()
        }
        let x = random_signal(5, 77);
        let mut a3 = [x[0], x[1], x[2]];
        let mut g3 = a3;
        bf3::<false>(&mut a3);
        bf_odd::<3, false>(&mut g3, &roots(3));
        assert!(max_err(&a3, &g3) < 1e-15, "radix 3");
        let mut a5 = [x[0], x[1], x[2], x[3], x[4]];
        let mut g5 = a5;
        bf5::<true>(&mut a5);
        bf_odd::<5, true>(&mut g5, &roots(5));
        assert!(max_err(&a5, &g5) < 1e-15, "radix 5");
    }

    #[test]
    fn repeated_odd_length_transforms_reuse_the_plan() {
        // Regression: the seed rebuilt the Bluestein chirp and re-FFT'd it
        // on every odd-length call. With the cache, every lookup of the
        // same length must return the *same* plan object.
        let first = plan(77);
        for _ in 0..10 {
            let again = plan(77);
            assert!(
                Arc::ptr_eq(&first, &again),
                "plan(77) rebuilt instead of reused"
            );
            let mut x = random_signal(77, 3);
            again.fft(&mut x);
        }
        // And the cache counters move in the right direction: at least ten
        // hits for this length, monotone totals.
        let stats = plan_cache_stats();
        assert!(stats.hits >= 10, "{stats:?}");
        assert!(stats.plans >= 1);
    }

    #[test]
    fn eviction_is_lru_and_counted() {
        // Drive the LRU policy on a local cache instance: the global one is
        // shared with concurrently running tests that assert plan identity,
        // so shrinking its capacity here would race them.
        let mut c = PlanCache {
            capacity: 3,
            ..Default::default()
        };
        for &n in &[8usize, 16, 32] {
            c.tick += 1;
            let tick = c.tick;
            c.entries.insert(
                n,
                PlanEntry {
                    plan: Arc::new(FftPlan::build(n)),
                    last_use: tick,
                },
            );
        }
        // Touch 8 so 16 becomes the LRU, then overflow with 64.
        c.tick += 1;
        let tick = c.tick;
        c.entries.get_mut(&8).unwrap().last_use = tick;
        c.tick += 1;
        let tick = c.tick;
        c.entries.insert(
            64,
            PlanEntry {
                plan: Arc::new(FftPlan::build(64)),
                last_use: tick,
            },
        );
        c.enforce_bound(64);
        assert_eq!(c.entries.len(), 3);
        assert!(!c.entries.contains_key(&16), "LRU entry should be evicted");
        assert!(c.entries.contains_key(&8));
        assert!(c.entries.contains_key(&64));
        assert_eq!(c.evictions, 1);
        // The just-inserted key is never its own victim, even at capacity 0.
        c.capacity = 0;
        c.capacity = c.capacity.max(1);
        c.enforce_bound(64);
        assert!(c.entries.contains_key(&64));
    }

    #[test]
    fn stats_since_windows_the_counters() {
        let a = plan_cache_stats();
        plan(2053);
        plan(2053);
        let b = plan_cache_stats();
        let d = b.since(&a);
        assert!(d.misses >= 1, "{d:?}");
        assert!(d.hits >= 1, "{d:?}");
    }

    #[test]
    fn bluestein_spectrum_is_precomputed_once() {
        // The chirp spectrum lives in the plan: two transforms of the same
        // odd length must not rebuild it (checked via pointer identity of
        // the cached plan and by exactness of repeated results).
        let p = plan(45);
        let x = random_signal(45, 9);
        let mut a = x.clone();
        let mut b = x.clone();
        p.fft(&mut a);
        p.fft(&mut b);
        for (u, v) in a.iter().zip(&b) {
            assert_eq!(u.re, v.re);
            assert_eq!(u.im, v.im);
        }
    }
}
