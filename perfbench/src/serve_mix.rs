//! `serve-mix`: a seeded closed batch of mixed tenants through
//! `Service::run` — small SCFs, classical MTS MD, 16³ screening jobs
//! with repeated keys (so the cross-job cache is warm) and injected
//! preempt/fault disruptions. All jobs are submitted at once.

use crate::check::{Checks, Pin};
use crate::metrics::{median, Samples, Stopwatch, Values};
use crate::trace::Tracer;
use crate::RunConfig;
use liair_basis::Basis;
use liair_core::{ExchangeCachePool, IncStats};
use liair_integrals::JkBuilder;
use liair_math::plan::plan_cache_stats;
use liair_math::rng::SplitMix64;
use liair_runtime::SeedConfig;
use liair_scf::{Method, ScfOptions, ScfSession};
use liair_serve::runner::{run_job, run_reference, Attempt, JobOutput};
use liair_serve::{
    Disruption, JobKind, JobSpec, ScfSystem, Service, ServiceConfig, ServiceReport, TenantQuota,
};
use std::time::Instant;

/// Jobs per batch (full size and smoke size).
const JOBS: usize = 160;
const SMOKE_JOBS: usize = 12;
const TENANTS: [&str; 3] = ["astra", "borel", "curie"];
const SCF_SYSTEMS: [ScfSystem; 4] = [
    ScfSystem::H2,
    ScfSystem::Helium,
    ScfSystem::LiH,
    ScfSystem::Water,
];
/// Screening keys: three systems × two snapshot seeds, so most
/// screening jobs repeat a key an earlier job warmed.
const SCREEN_SYSTEMS: [&str; 3] = ["pc", "dmso", "dme"];
const SCREEN_SEEDS: u64 = 2;

/// Workers and pool ranks: at most the two cores of the reference host.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_workers: 2,
        pool_ranks: 2,
        cache_capacity: 8,
        quota: TenantQuota::default(),
        aging_rate: 1,
    }
}

/// Absolute tolerance of the pinned SCF energies: the service SCF's own
/// `energy_tol` (the `ScfOptions` default).
pub const ENERGY_TOL: f64 = 1e-9;

/// SCF energies pinned at the commit that defined the benchmark. Both
/// Fock-build modes (full and incremental) must land on them.
pub const PINS: &[Pin] = &[
    Pin {
        name: "scf.h2",
        value: -1.116_714_325_176,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "scf.helium",
        value: -2.807_783_956_614,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "scf.lih",
        value: -7.861_864_783_842,
        tol: ENERGY_TOL,
    },
    Pin {
        name: "scf.water",
        value: -74.962_928_255_383,
        tol: ENERGY_TOL,
    },
];

/// The seeded batch. Its composition is fixed by `n` — kinds, systems,
/// MD strides and screening keys cycle over the job index, so every seed
/// asks for the same work, and so are the rank requests. The seed draws
/// the submission order, tenants, priorities, MD seeds and disruption
/// points.
pub fn jobs(seed: u64, n: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let mut specs: Vec<JobSpec> = (0..n)
        .map(|i| {
            let round = i / 3;
            // Every 8th job is preempted and every 8th (offset) faulted,
            // unless it is a single-build screening job.
            let at_step = 2 + rng.below(2);
            let disruption = match (i % 3, i % 8) {
                (0, _) => Disruption::None,
                (_, 1) => Disruption::Preempt { at_step },
                (_, 2) => Disruption::Fault { at_step },
                _ => Disruption::None,
            };
            let kind = match i % 3 {
                0 => JobKind::Screening {
                    system: SCREEN_SYSTEMS[round % SCREEN_SYSTEMS.len()].to_string(),
                    extent: 16,
                    norb: 3,
                    seed: 1 + (round / SCREEN_SYSTEMS.len()) as u64 % SCREEN_SEEDS,
                },
                1 => JobKind::Scf {
                    // H₂ and He converge before a disruption point: a
                    // disrupted SCF job runs LiH.
                    system: if disruption.is_disruptive() {
                        ScfSystem::LiH
                    } else {
                        SCF_SYSTEMS[round % SCF_SYSTEMS.len()]
                    },
                    incremental_fock: round % 2 == 1,
                },
                _ => JobKind::Md {
                    n_waters: 2,
                    n_outer: 5,
                    n_inner: 1 + round % 3,
                    temperature: 300.0,
                },
            };
            JobSpec::builder(kind)
                .tenant(TENANTS[rng.below(TENANTS.len())])
                .priority(rng.below(5) as u32)
                .nranks(1 + (i / 2) % 2)
                .seeds(SeedConfig::default().with_md_seed(100 + rng.below(4) as u64))
                .disruption(disruption)
                .build()
                .expect("generated specs are valid")
        })
        .collect();
    // Fisher–Yates: the seeded submission order.
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i + 1));
    }
    specs
}

fn class_of(spec: &JobSpec) -> &'static str {
    match spec.kind {
        JobKind::Scf { .. } => "scf",
        JobKind::Md { .. } => "md",
        _ => "screening",
    }
}

/// Uninterrupted reference outputs, memoized per job kind and seeds.
#[derive(Default)]
struct References(Vec<(JobKind, SeedConfig, JobOutput)>);

impl References {
    fn get(&mut self, tr: &Tracer, spec: &JobSpec) -> JobOutput {
        if let Some((_, _, out)) = self
            .0
            .iter()
            .find(|(k, s, _)| *k == spec.kind && *s == spec.seeds)
        {
            return out.clone();
        }
        let out = tr.span("serve.run_reference", || run_reference(spec));
        self.0.push((spec.kind.clone(), spec.seeds, out.clone()));
        out
    }
}

/// Check every job of a batch; each submitted job is one operation.
fn check_batch(
    tr: &Tracer,
    jobs: &[JobSpec],
    report: &ServiceReport,
    refs: &mut References,
    pins: &[Pin],
    checks: &mut Checks,
) {
    for (spec, reason) in &report.rejected {
        checks.op(&spec.kind.label(), false, || {
            format!("rejected: {reason:?}")
        });
    }
    let missing = jobs
        .len()
        .saturating_sub(report.completed.len() + report.rejected.len());
    for _ in 0..missing {
        checks.op("batch", false, || {
            "job neither completed nor rejected".into()
        });
    }
    for r in &report.completed {
        let label = r.spec.kind.label();
        let mut ok = r.outcome.final_energy.is_finite() && r.outcome.converged;
        let mut why = String::new();
        if r.disruption.injected && !r.disruption.resumed {
            ok = false;
            why += "disrupted job did not resume; ";
        }
        if let JobKind::Scf { system, .. } = r.spec.kind {
            let name = format!("scf.{}", system.name());
            match crate::check::find_pin(pins, &name) {
                Some(pin) if (r.outcome.final_energy - pin.value).abs() <= pin.tol => {}
                _ => {
                    ok = false;
                    why += &format!("{name} = {:.12} off its pin; ", r.outcome.final_energy);
                }
            }
        }
        // Resumed jobs and every non-SCF job are bit-compared against an
        // uninterrupted, cache-free reference run.
        if r.disruption.resumed || !matches!(r.spec.kind, JobKind::Scf { .. }) {
            let reference = refs.get(tr, &r.spec);
            if reference.final_energy.to_bits() != r.outcome.final_energy.to_bits()
                || !reference.observables.bits_eq(&r.observables)
            {
                ok = false;
                why += "differs bitwise from the uninterrupted reference; ";
            }
        }
        checks.op(&label, ok, || why);
    }
}

/// Set-up: generate the batch, then run one fixed job of each kind,
/// which on the first batch pays every layer's lazy initialisation (FFT plans, grids,
/// bases) the batch would otherwise pay first.
fn setup(tr: &Tracer, seed: u64, n: usize) -> Vec<JobSpec> {
    let jobs = tr.span("serve.generate", || jobs(seed, n));
    let primers = [
        JobSpec::scf(ScfSystem::Water).build(),
        JobSpec::md(2, 5, 2).build(),
        JobSpec::screening(SCREEN_SYSTEMS[0], 16, 3, 1).build(),
    ];
    for spec in primers {
        let spec = spec.expect("primer specs are valid");
        tr.span("serve.run_job", || run_job(&spec, None, 1, None));
    }
    jobs
}

/// Service-level counters a traced run reports, as medians over the
/// batches of its window; `counters` gives them for one batch.
const COUNTERS: [&str; 7] = [
    "serve.cache_hit_rate",
    "serve.resumed_jobs",
    "serve.checkpoint_bytes_max",
    "serve.turnaround_p50_s",
    "serve.turnaround_tail_s",
    "runtime.pool_peak_leased",
    "runtime.pool_granted",
];

fn counters(r: &ServiceReport, tail_q: f64) -> [f64; 7] {
    let checkpoint_max = r
        .completed
        .iter()
        .map(|j| j.disruption.checkpoint_bytes)
        .max()
        .unwrap_or(0);
    [
        r.cache.hit_rate(),
        r.resumed_jobs() as f64,
        checkpoint_max as f64,
        r.latency_quantile(0.5),
        r.latency_quantile(tail_q),
        r.pool.peak_leased as f64,
        r.pool.granted as f64,
    ]
}

/// Run every job serially through `run_job`, attempts and all, with a
/// shared cache pool as the service uses; returns seconds per kind.
fn serial_pass(tr: &Tracer, jobs: &[JobSpec]) -> [(&'static str, f64); 3] {
    let pool = ExchangeCachePool::new(service_config().cache_capacity);
    let mut per_kind = [("scf", 0.0), ("md", 0.0), ("screening", 0.0)];
    for spec in jobs {
        let t0 = Instant::now();
        let mut checkpoint = None;
        loop {
            let attempt = tr.span("serve.run_job", || {
                run_job(spec, checkpoint.as_ref(), spec.nranks.min(2), Some(&pool))
            });
            match attempt {
                Attempt::Done(_) => break,
                Attempt::Preempted(ck) | Attempt::Faulted(ck) => checkpoint = Some(ck),
            }
        }
        let slot = per_kind
            .iter_mut()
            .find(|(k, _)| *k == class_of(spec))
            .expect("every class has a slot");
        slot.1 += t0.elapsed().as_secs_f64();
    }
    per_kind
}

pub fn run(cfg: &RunConfig, pins: &[Pin], tr: &Tracer, checks: &mut Checks, out: &mut Values) {
    let n = if cfg.smoke { SMOKE_JOBS } else { JOBS };
    let scfg = service_config();
    let plans0 = plan_cache_stats();
    let mut samples = Samples::default();
    let mut refs = References::default();
    let tail_q = 1.0 - 10.0 / n as f64;
    // Counters of every batch, and the jobs and reuse of the first one;
    // the reports themselves are dropped, so memory does not grow with
    // the number of batches a run fits.
    let mut per_batch = Vec::new();
    let mut first = None;
    let window = Instant::now();
    let window_start = tr.now_s();
    let mut costs = Vec::new();
    while crate::another_fits(window, cfg.seconds, &costs) {
        let t_solve = Instant::now();
        // Each batch is generated from its own seed.
        let seed = crate::solve_seed(cfg.seed, costs.len());
        let sw = Stopwatch::start();
        let jobs = setup(tr, seed, n);
        samples.setup(&sw);
        let batch = jobs.clone();
        let sw = Stopwatch::start();
        let report = checks.guarded("serve batch", || {
            tr.span("serve.run", || Service::new(scfg.clone()).run(batch))
        });
        samples.solve(&sw);
        let Some(report) = report else {
            break;
        };
        check_batch(tr, &jobs, &report, &mut refs, pins, checks);
        per_batch.push(counters(&report, tail_q));
        if first.is_none() {
            let mut inc = IncStats::default();
            for r in &report.completed {
                inc.accumulate(&r.profile.inc);
            }
            first = Some((jobs, inc));
        }
        costs.push(t_solve.elapsed().as_secs_f64());
    }
    let wall = window.elapsed().as_secs_f64();
    samples.report(out);
    let Some((jobs, inc)) = first.filter(|_| tr.is_on()) else {
        return;
    };
    crate::set_trace_fractions(tr, window_start, wall, out);
    for (i, name) in COUNTERS.into_iter().enumerate() {
        out.set(
            name,
            median(&per_batch.iter().map(|c| c[i]).collect::<Vec<_>>()),
        );
    }
    crate::set_core_reuse(&inc, 1.0, out);
    out.set(
        "core.plan_cache_misses",
        plan_cache_stats().since(&plans0).misses as f64,
    );

    // Per-kind serial run_job time of one batch, and the service's
    // overhead over a perfect split of that work across its workers.
    let per_kind = serial_pass(tr, &jobs);
    let mut serial = 0.0;
    for (kind, t) in per_kind {
        serial += t;
        out.set(
            match kind {
                "scf" => "serve.run_job_s.scf",
                "md" => "serve.run_job_s.md",
                _ => "serve.run_job_s.screening",
            },
            t,
        );
    }
    out.set(
        "serve.overhead_s",
        median(&samples.wall_s) - serial / scfg.max_workers as f64,
    );

    // SCF context set-up the batch's SCF jobs pay inside the service.
    let (mut session_new, mut jk_setup) = (0.0, 0.0);
    for spec in &jobs {
        if let JobKind::Scf {
            system,
            incremental_fock,
        } = spec.kind
        {
            let mol = system.molecule();
            let basis = Basis::sto3g(&mol);
            let opts = ScfOptions {
                incremental_fock,
                ..ScfOptions::default()
            };
            let t0 = Instant::now();
            std::hint::black_box(JkBuilder::new(&basis));
            jk_setup += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            std::hint::black_box(ScfSession::new(&mol, &basis, &opts, Method::Rhf));
            session_new += t0.elapsed().as_secs_f64();
        }
    }
    out.set("scf.session_new_s", session_new);
    out.set("integrals.jk_setup_s", jk_setup);
}
