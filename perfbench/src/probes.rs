//! Kernel probes of the grid and math layers at the two grid sizes the
//! workloads use: 24³ (not a power of two, the Bluestein FFT path) for
//! BOMD and 16³ (radix-2) for the serve screening jobs. The traced run
//! of every workload reports them, so a kernel change that helps one
//! size and hurts the other shows on both.

use crate::metrics::{median, Values};
use liair_basis::Cell;
use liair_grid::{PoissonSolver, PoissonWorkspace, RealGrid};
use liair_math::rfft::rfft3_into;
use liair_math::rng::SplitMix64;
use liair_math::Complex64;
use std::hint::black_box;
use std::time::Instant;

/// Box edge (Bohr) of the probe grids, the BOMD workload's box.
const EDGE: f64 = 12.0;

/// A smooth seeded pair density on `grid`: a Gaussian at a random
/// off-centre point, so the transform sees a realistic spectrum.
fn pair_density(grid: &RealGrid, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let (nx, ny, nz) = grid.dims;
    let h = EDGE / nx as f64;
    let c = [
        EDGE * (0.4 + 0.2 * rng.next_f64()),
        EDGE * (0.4 + 0.2 * rng.next_f64()),
        EDGE * (0.4 + 0.2 * rng.next_f64()),
    ];
    let mut rho = Vec::with_capacity(grid.len());
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let d = [
                    i as f64 * h - c[0],
                    j as f64 * h - c[1],
                    k as f64 * h - c[2],
                ];
                rho.push((-0.8 * (d[0] * d[0] + d[1] * d[1] + d[2] * d[2])).exp());
            }
        }
    }
    rho
}

/// Median wall time (µs) of one call of `f`, over batches run for about
/// `budget_s` seconds after a short warm-up.
fn median_call_us(budget_s: f64, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let per_batch = ((budget_s / 15.0) / once).ceil().max(1.0) as usize;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / per_batch as f64);
    }
    median(&samples)
}

/// Run the probes, writing `grid.pair_energy_us.<n>`, `math.rfft3_us.<n>`
/// and `math.rfft3_gflops_nominal.<n>` for n = 24 and 16.
pub fn kernel_probes(seed: u64, budget_s: f64, out: &mut Values) {
    for (n, pair_key, fft_key, gflops_key) in [
        (
            24,
            "grid.pair_energy_us.24",
            "math.rfft3_us.24",
            "math.rfft3_gflops_nominal.24",
        ),
        (
            16,
            "grid.pair_energy_us.16",
            "math.rfft3_us.16",
            "math.rfft3_gflops_nominal.16",
        ),
    ] {
        let grid = RealGrid::cubic(Cell::cubic(EDGE), n);
        let solver = PoissonSolver::isolated(grid);
        let rho = pair_density(&grid, seed ^ n as u64);
        let mut ws = PoissonWorkspace::new();
        let pair_us = median_call_us(budget_s, || {
            black_box(solver.exchange_pair_energy(black_box(&rho), &mut ws));
        });
        let mut half = vec![Complex64::default(); n * n * (n / 2 + 1)];
        let fft_us = median_call_us(budget_s, || {
            rfft3_into(black_box(&rho), grid.dims, &mut half);
            black_box(&half);
        });
        let points = (n * n * n) as f64;
        // Nominal operation count of a real 3-D transform, 2.5·N·log₂N:
        // computed from the size, not counted.
        let flops = 2.5 * points * points.log2();
        out.set(pair_key, pair_us);
        out.set(fft_key, fft_us);
        out.set(gflops_key, flops / (fft_us * 1e-6) / 1e9);
    }
}
