//! `bench-serve` — soak the multi-tenant batch service (PR 9): hundreds
//! of mixed SCF / MTS-MD / screening jobs from three tenants through
//! admission, aged scheduling, rank-pool leasing, the cross-job exchange
//! cache, and checkpoint/restart, measuring what the acceptance criteria
//! ask for:
//!
//! * throughput and p50/p90/p99 job latency;
//! * cross-job cache hit rate on the repeated-system screening workload
//!   (target > 50%);
//! * preempt/fault resume counts, and the fraction of resumed jobs whose
//!   final energy bitwise matches an uninterrupted reference run
//!   (target ≥ 95%);
//! * aggregate incremental-exchange reuse and FFT plan-cache counters,
//!   surfaced per job through [`BuildProfile`](liair_core::BuildProfile)-carrying `JobOutput`s.
//!
//! Writes `BENCH_serve.json`. `fast` shrinks the batch to a few dozen
//! jobs; the full run drives ≥ 200.

use crate::Table;
use liair_core::IncStats;
use liair_runtime::SeedConfig;
use liair_serve::{
    run_and_verify, Disruption, JobKind, JobReport, JobSpec, ScfSystem, ServiceConfig, TenantQuota,
};

/// The deterministic mixed workload (the soak test's mix, at bench
/// scale): `n` jobs cycling over tenants and kinds, screening jobs
/// drawn from a *small* set of `(system, seed)` keys so repeats hit the
/// cross-job cache, and roughly every 6th job disrupted.
fn mixed_jobs(n: usize) -> Vec<JobSpec> {
    let tenants = ["astra", "borel", "curie"];
    let scf_systems = [
        ScfSystem::H2,
        ScfSystem::Helium,
        ScfSystem::LiH,
        ScfSystem::Water,
    ];
    let screens = [("pc", 3u64), ("dmso", 5), ("dme", 7)];
    (0..n)
        .map(|i| {
            let tenant = tenants[i % tenants.len()];
            let kind = match i % 3 {
                0 => {
                    let (system, seed) = screens[(i / 3) % screens.len()];
                    JobKind::Screening {
                        system: system.to_string(),
                        extent: 16,
                        norb: 3,
                        seed,
                    }
                }
                1 => JobKind::Scf {
                    system: scf_systems[(i / 3) % scf_systems.len()],
                    incremental_fock: i % 6 == 1,
                },
                _ => JobKind::Md {
                    n_waters: 2,
                    n_outer: 5,
                    n_inner: 1 + (i / 3) % 3,
                    temperature: 300.0,
                },
            };
            // Screening jobs are single-build: disruption targets the
            // checkpointable kinds (SCF, MD).
            let disruption = if i % 4 == 1 && i % 3 != 0 {
                if i % 8 == 1 {
                    Disruption::Preempt { at_step: 2 }
                } else {
                    Disruption::Fault { at_step: 3 }
                }
            } else {
                Disruption::None
            };
            // A disruption must fire before the job finishes: H₂/He
            // converge in 2-3 iterations, so disrupted SCF jobs run LiH.
            let kind = match (kind, disruption) {
                (
                    JobKind::Scf {
                        incremental_fock, ..
                    },
                    d,
                ) if d.is_disruptive() => JobKind::Scf {
                    system: ScfSystem::LiH,
                    incremental_fock,
                },
                (kind, _) => kind,
            };
            JobSpec::builder(kind)
                .tenant(tenant)
                .priority((i % 5) as u32)
                .nranks(1 + i % 3)
                .seeds(SeedConfig::default().with_md_seed(100 + (i / 3) as u64 % 4))
                .disruption(disruption)
                .build()
                .expect("bench specs are valid")
        })
        .collect()
}

/// Kind class of a completed job, for the per-class breakdown.
fn class_of(spec: &JobSpec) -> &'static str {
    match spec.kind {
        JobKind::Scf { .. } => "scf",
        JobKind::Md { .. } => "md",
        JobKind::Screening { .. } => "screening",
        JobKind::Reaction { .. } => "reaction",
        JobKind::Solvation { .. } => "solvation",
    }
}

/// Run the soak; `fast` trims the batch to smoke-test scale.
pub fn bench_serve(fast: bool) -> Vec<Table> {
    let n = if fast { 48 } else { 240 };
    let cfg = ServiceConfig {
        max_workers: 4,
        pool_ranks: 8,
        cache_capacity: 8,
        quota: TenantQuota::default(),
        aging_rate: 1,
    };
    let jobs = mixed_jobs(n);
    let n_preempt = jobs
        .iter()
        .filter(|j| matches!(j.disruption, Disruption::Preempt { .. }))
        .count();
    let n_fault = jobs
        .iter()
        .filter(|j| matches!(j.disruption, Disruption::Fault { .. }))
        .count();
    let report = run_and_verify(cfg.clone(), jobs);
    let bit_fraction = report.bit_identical_fraction();

    // --- Per-kind-class breakdown -------------------------------------
    let mut classes = Table::new(
        "bench-serve — per-kind breakdown",
        &[
            "kind",
            "jobs",
            "disrupted",
            "resumed",
            "mean lat [ms]",
            "max ckpt [B]",
            "pairs reused/recomputed",
            "plan hits/misses",
        ],
    );
    for class in ["screening", "scf", "md"] {
        let of_class: Vec<&JobReport> = report
            .completed
            .iter()
            .filter(|r| class_of(&r.spec) == class)
            .collect();
        let disrupted = of_class.iter().filter(|r| r.disruption.injected).count();
        let resumed = of_class.iter().filter(|r| r.disruption.resumed).count();
        let mean_lat = if of_class.is_empty() {
            0.0
        } else {
            of_class.iter().map(|r| r.latency_s).sum::<f64>() / of_class.len() as f64
        };
        let max_ckpt = of_class
            .iter()
            .map(|r| r.disruption.checkpoint_bytes)
            .max()
            .unwrap_or(0);
        let mut inc = IncStats::default();
        let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
        for r in &of_class {
            inc.accumulate(&r.profile.inc);
            plan_hits += r.profile.build.plan_cache_hits;
            plan_misses += r.profile.build.plan_cache_misses;
        }
        classes.row(vec![
            class.into(),
            format!("{}", of_class.len()),
            format!("{disrupted}"),
            format!("{resumed}"),
            format!("{:.1}", mean_lat * 1e3),
            format!("{max_ckpt}"),
            format!("{}/{}", inc.pairs_reused, inc.pairs_recomputed),
            format!("{plan_hits}/{plan_misses}"),
        ]);
    }
    classes.note = format!(
        "{} jobs, {} workers over a {}-rank pool, cache capacity {}",
        n, cfg.max_workers, cfg.pool_ranks, cfg.cache_capacity
    );

    // --- Headline service metrics -------------------------------------
    let disrupted = report.disrupted_jobs();
    let resumed = report.resumed_jobs();
    let resume_fraction = if disrupted > 0 {
        resumed as f64 / disrupted as f64
    } else {
        1.0
    };
    let p50 = report.latency_quantile(0.5);
    let p90 = report.latency_quantile(0.9);
    let p99 = report.latency_quantile(0.99);
    let warm_screens = report
        .completed
        .iter()
        .filter(|r| r.profile.cache_warm)
        .count();
    let mut headline = Table::new("bench-serve — service metrics", &["metric", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("jobs completed", format!("{}", report.completed.len())),
        ("jobs rejected", format!("{}", report.rejected.len())),
        ("elapsed [s]", format!("{:.3}", report.elapsed_s)),
        ("throughput [jobs/s]", format!("{:.1}", report.throughput())),
        (
            "latency p50/p90/p99 [ms]",
            format!("{:.1}/{:.1}/{:.1}", p50 * 1e3, p90 * 1e3, p99 * 1e3),
        ),
        (
            "cache hits/misses (hit rate)",
            format!(
                "{}/{} ({:.0}%)",
                report.cache.hits,
                report.cache.misses,
                report.cache.hit_rate() * 100.0
            ),
        ),
        ("cache evictions", format!("{}", report.cache.evictions)),
        ("warm screening jobs", format!("{warm_screens}")),
        (
            "pool granted/reclaimed (peak)",
            format!(
                "{}/{} ({})",
                report.pool.granted, report.pool.reclaimed, report.pool.peak_leased
            ),
        ),
        (
            "disrupted (preempt/fault)",
            format!("{disrupted} ({n_preempt}/{n_fault})"),
        ),
        (
            "resumed from checkpoint",
            format!("{resumed} ({:.0}%)", resume_fraction * 100.0),
        ),
        (
            "bit-identical resumes",
            format!("{:.0}%", bit_fraction * 100.0),
        ),
    ];
    for (metric, value) in rows {
        headline.row(vec![metric.into(), value]);
    }
    let hit_ok = report.cache.hit_rate() > 0.5;
    let resume_ok = resume_fraction >= 0.95 && bit_fraction >= 0.95;
    headline.note = format!(
        "acceptance: cache hit rate > 50% ({}), >= 95% of disrupted jobs resume bit-identically ({})",
        if hit_ok { "met" } else { "MISSED" },
        if resume_ok { "met" } else { "MISSED" },
    );

    // --- JSON artifact ------------------------------------------------
    let job_rows: Vec<String> = report
        .completed
        .iter()
        .map(|r| {
            format!(
                "    {{\"label\": \"{}\", \"tenant\": \"{}\", \"nranks\": {}, \"priority\": {}, \"attempts\": {}, \"resumed\": {}, \"checkpoint_bytes\": {}, \"latency_ms\": {:.3}, \"final_energy\": {:.17e}}}",
                r.spec.kind.label(),
                r.spec.tenant,
                r.spec.nranks,
                r.spec.priority,
                r.disruption.attempts,
                r.disruption.resumed,
                r.disruption.checkpoint_bytes,
                r.latency_s * 1e3,
                r.outcome.final_energy
            )
        })
        .collect();
    let mut inc = IncStats::default();
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
    for r in &report.completed {
        inc.accumulate(&r.profile.inc);
        plan_hits += r.profile.build.plan_cache_hits;
        plan_misses += r.profile.build.plan_cache_misses;
    }
    let mut json = format!(
        "{{\n  \"experiment\": \"bench-serve\",\n  \"jobs_submitted\": {n},\n  \"completed\": {},\n  \"rejected\": {},\n  \"elapsed_s\": {:.4},\n  \"throughput_jobs_per_s\": {:.2},\n  \"latency_ms\": {{\"p50\": {:.3}, \"p90\": {:.3}, \"p99\": {:.3}}},\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4}}},\n  \"pool\": {{\"granted\": {}, \"reclaimed\": {}, \"peak_leased\": {}}},\n  \"disrupted\": {{\"total\": {disrupted}, \"preempt\": {n_preempt}, \"fault\": {n_fault}, \"resumed\": {resumed}, \"bit_identical_fraction\": {bit_fraction:.4}}},\n  \"reuse\": {{\"pairs_reused\": {}, \"pairs_recomputed\": {}, \"plan_cache_hits\": {plan_hits}, \"plan_cache_misses\": {plan_misses}}},\n  \"jobs\": [\n",
        report.completed.len(),
        report.rejected.len(),
        report.elapsed_s,
        report.throughput(),
        p50 * 1e3,
        p90 * 1e3,
        p99 * 1e3,
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions,
        report.cache.hit_rate(),
        report.pool.granted,
        report.pool.reclaimed,
        report.pool.peak_leased,
        inc.pairs_reused,
        inc.pairs_recomputed,
    );
    json.push_str(&job_rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => headline.note.push_str("; BENCH_serve.json written"),
        Err(e) => headline.note.push_str(&format!("; JSON not written: {e}")),
    }

    vec![classes, headline]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_jobs_cover_kinds_tenants_and_disruptions() {
        let jobs = mixed_jobs(240);
        assert_eq!(jobs.len(), 240);
        let screens = jobs
            .iter()
            .filter(|j| matches!(j.kind, JobKind::Screening { .. }))
            .count();
        let disrupted = jobs.iter().filter(|j| j.disruption.is_disruptive()).count();
        // A third of the batch screens over only 3 distinct keys: the
        // repeated-system workload behind the > 50% hit-rate target.
        assert_eq!(screens, 80);
        assert!(disrupted >= 30, "only {disrupted} disrupted jobs");
        // Disrupted SCF jobs always run LiH (H2/He finish too early).
        for j in &jobs {
            if let (JobKind::Scf { system, .. }, true) = (&j.kind, j.disruption.is_disruptive()) {
                assert_eq!(*system, ScfSystem::LiH);
            }
        }
    }
}
