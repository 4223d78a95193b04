//! The solvent-screening campaign driver — the layer the whole stack
//! was built for.
//!
//! A [`CampaignSpec`] names a grid — solvents × concentrations × seeds ×
//! functionals — and [`run_campaign`] fans it across the batch service
//! as ordinary [`JobSpec`]s: one *reaction* job per (solvent,
//! functional) measuring the interaction energy of the solvent·Li₂O₂
//! contact complex, and one *solvation* job per (solvent, concentration,
//! seed) measuring Li–O structure and bond scissions in an MTS
//! electrolyte-box trajectory. The members inherit everything the serve
//! layer already guarantees — admission, aged scheduling, rank leases,
//! cross-job caches, checkpoint/restart — so a campaign survives
//! preemptions and faults without losing determinism.
//!
//! The result is a ranked stability report ([`CampaignReport`]). Its
//! [`CampaignReport::canonical_json`] rendering is **deterministic by
//! construction**: members appear in expansion order (never completion
//! order), every energy is serialized with its exact bit pattern, and
//! scheduling-dependent fields (latency, attempt counts, cache
//! counters) are excluded. Same spec + seeds ⇒ byte-identical report,
//! across worker counts and under injected disruptions — the property
//! `crates/serve/tests/campaign.rs` pins.

use crate::job::{Disruption, JobKind, JobSpec, SpecError};
use crate::runner::Observables;
use crate::service::{run_and_verify, DisruptionRecord, JobOutcome, JobReport, ServiceConfig};
use liair_basis::systems::Solvent;
use liair_core::CachePoolStats;
use liair_xc::Functional;

/// Score penalty per solvent-internal bond broken in a solvation
/// trajectory (mHa-equivalent). Degradation dominates: one scission
/// outweighs typical binding-energy spreads.
const BROKEN_BOND_PENALTY: f64 = 10.0;
/// Weight of the complex HOMO–LUMO gap (mHa) in the stability score —
/// a small oxidative-stability bonus, never decisive on its own.
const GAP_WEIGHT: f64 = 0.01;

/// A solvent-screening campaign: the grid, the ensemble parameters, and
/// how its jobs are submitted.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Candidate solvents, in report order.
    pub solvents: Vec<Solvent>,
    /// Post-SCF functionals of the reaction ensemble (one reaction job
    /// per solvent × functional). Empty ⇒ no reaction members.
    pub functionals: Vec<Functional>,
    /// Electrolyte concentrations as lattice sides `box_n` (a box holds
    /// `box_n³ − 1` solvent molecules + Li₂O₂). Empty ⇒ no solvation
    /// members.
    pub concentrations: Vec<usize>,
    /// Trajectory seeds of the solvation ensemble (one job per solvent ×
    /// concentration × seed).
    pub seeds: Vec<u64>,
    /// Outer MTS steps per solvation trajectory.
    pub n_outer: usize,
    /// Inner steps per outer step.
    pub n_inner: usize,
    /// Trajectory temperature (K).
    pub temperature: f64,
    /// Tenant the campaign bills to.
    pub tenant: String,
    /// Scheduling priority of every member.
    pub priority: u32,
    /// Injected disruptions, as `(member_index, disruption)` over the
    /// expansion order — the campaign's resilience knob.
    pub disruptions: Vec<(usize, Disruption)>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            solvents: Solvent::all().to_vec(),
            functionals: vec![Functional::Hf, Functional::Pbe0],
            concentrations: vec![2],
            seeds: vec![2014],
            n_outer: 6,
            n_inner: 2,
            temperature: 400.0,
            tenant: "campaign".to_string(),
            priority: 0,
            disruptions: Vec::new(),
        }
    }
}

fn all_distinct<T: PartialEq>(xs: &[T]) -> bool {
    xs.iter()
        .enumerate()
        .all(|(i, x)| !xs[..i].iter().any(|y| y == x))
}

impl CampaignSpec {
    /// Members this grid expands to.
    pub fn n_members(&self) -> usize {
        self.solvents.len()
            * (self.functionals.len() + self.concentrations.len() * self.seeds.len())
    }

    /// Expand the grid into service jobs, in the fixed **expansion
    /// order** every downstream aggregate uses: for each solvent (spec
    /// order), its reaction members (functional order), then its
    /// solvation members (concentration-major, seed-minor).
    ///
    /// Validates the grid: non-empty, duplicate-free axes (a duplicate
    /// member would be indistinguishable in the result set), in-range
    /// disruption indices. Per-member validation is the
    /// [`crate::job::JobBuilder`]'s.
    pub fn expand(&self) -> Result<Vec<JobSpec>, SpecError> {
        if self.solvents.is_empty() {
            return Err(SpecError::ZeroParam("solvents"));
        }
        if self.n_members() == 0 {
            return Err(SpecError::BadParam {
                field: "campaign",
                why: "no members: both functionals and concentrations×seeds are empty",
            });
        }
        for (xs_distinct, field) in [
            (all_distinct(&self.solvents), "solvents"),
            (all_distinct(&self.functionals), "functionals"),
            (all_distinct(&self.concentrations), "concentrations"),
            (all_distinct(&self.seeds), "seeds"),
        ] {
            if !xs_distinct {
                return Err(SpecError::BadParam {
                    field,
                    why: "must be duplicate-free (duplicate members are indistinguishable)",
                });
            }
        }
        let mut jobs = Vec::with_capacity(self.n_members());
        for &solvent in &self.solvents {
            for &functional in &self.functionals {
                jobs.push(
                    JobSpec::reaction(solvent, functional)
                        .tenant(&self.tenant)
                        .priority(self.priority)
                        .build()?,
                );
            }
            for &box_n in &self.concentrations {
                for &seed in &self.seeds {
                    jobs.push(
                        JobSpec::solvation(solvent, box_n, seed)
                            .tenant(&self.tenant)
                            .priority(self.priority)
                            .steps(self.n_outer, self.n_inner)
                            .temperature(self.temperature)
                            .build()?,
                    );
                }
            }
        }
        for &(idx, disruption) in &self.disruptions {
            if idx >= jobs.len() {
                return Err(SpecError::BadParam {
                    field: "disruptions",
                    why: "member index out of range",
                });
            }
            jobs[idx].disruption = disruption;
        }
        Ok(jobs)
    }
}

/// One campaign member's result, in expansion order.
#[derive(Debug, Clone)]
pub struct MemberRecord {
    /// Stable member label ([`JobKind::label`]).
    pub label: String,
    /// Which solvent this member probes.
    pub solvent: Solvent,
    /// Headline numbers (deterministic).
    pub outcome: JobOutcome,
    /// Physical observables (deterministic).
    pub observables: Observables,
    /// Resume accounting and verification stamp (scheduling-dependent;
    /// excluded from the canonical report).
    pub disruption: DisruptionRecord,
    /// Wall time (scheduling-dependent; excluded from the canonical
    /// report).
    pub latency_s: f64,
}

/// Per-solvent aggregate over the campaign ensemble, every mean taken
/// in expansion order (fixed summation order ⇒ bit-stable).
#[derive(Debug, Clone)]
pub struct SolventVerdict {
    /// The candidate.
    pub solvent: Solvent,
    /// Interaction energy per functional, `(functional name, mHa)`, in
    /// spec order.
    pub e_int_by_functional: Vec<(&'static str, f64)>,
    /// Mean interaction energy over the functional ensemble (mHa);
    /// `None` without reaction members.
    pub e_int_mha: Option<f64>,
    /// Complex HOMO–LUMO gap (mHa), from the first reaction member.
    pub gap_complex_mha: Option<f64>,
    /// Isolated-solvent HOMO–LUMO gap (mHa).
    pub gap_solvent_mha: Option<f64>,
    /// Solvent-internal bonds broken, summed over solvation members.
    pub bonds_broken: usize,
    /// Mean Li–O coordination number over solvation members.
    pub li_o_coordination: Option<f64>,
    /// Mean first-peak radius of the Li–O RDF (Bohr).
    pub rdf_peak_r: Option<f64>,
    /// The ranking key: `E_int` in mHa, plus a small HOMO–LUMO-gap
    /// bonus, minus a dominant penalty per bond scission. Higher is more
    /// stable.
    pub stability_score: f64,
}

impl SolventVerdict {
    /// The deterministic stability score: interaction energy in mHa
    /// (weaker binding to the peroxide ⇒ higher, i.e. the solvent
    /// coordinates rather than reacts), plus a small HOMO–LUMO-gap
    /// bonus (oxidative stability), minus a dominant penalty per bond
    /// scission (outright degradation). Higher is more stable.
    fn score(&self) -> f64 {
        let mut s = 0.0;
        if let Some(e) = self.e_int_mha {
            s += e;
        }
        if let Some(g) = self.gap_complex_mha {
            s += GAP_WEIGHT * g;
        }
        s - BROKEN_BOND_PENALTY * self.bonds_broken as f64
    }
}

/// What a campaign produced: the ranked verdicts, the raw members, and
/// batch-level accounting.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-solvent verdicts, most stable first (ties broken by spec
    /// order — deterministic).
    pub ranking: Vec<SolventVerdict>,
    /// Every completed member, in expansion order.
    pub members: Vec<MemberRecord>,
    /// Labels of members that never completed (rejected at admission).
    pub missing: Vec<String>,
    /// Cross-job cache counters (informational, scheduling-dependent).
    pub cache: CachePoolStats,
    /// Batch wall time (informational).
    pub elapsed_s: f64,
    /// Fraction of resumed members that bit-matched their uninterrupted
    /// reference (1.0 when nothing was disrupted).
    pub bit_identical_fraction: f64,
}

impl CampaignReport {
    /// Rank of `solvent` in the stability ranking (0 = most stable).
    pub fn rank_of(&self, solvent: Solvent) -> Option<usize> {
        self.ranking.iter().position(|v| v.solvent == solvent)
    }

    /// The deterministic rendering of the report: members in expansion
    /// order, every float carried as its exact bit pattern (hex of
    /// `f64::to_bits`) next to a human-readable value, and nothing
    /// scheduling-dependent — no wall times, attempt counts, cache or
    /// profile counters. Two campaigns with the same spec and seeds
    /// produce byte-identical strings regardless of worker count or
    /// injected disruptions.
    pub fn canonical_json(&self) -> String {
        fn f(x: f64) -> String {
            format!(
                "{{\"value\":\"{:.17e}\",\"bits\":\"{:#018x}\"}}",
                x,
                x.to_bits()
            )
        }
        fn opt(x: Option<f64>) -> String {
            x.map_or_else(|| "null".to_string(), f)
        }
        let mut out = String::from("{\"ranking\":[");
        for (i, v) in self.ranking.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"solvent\":\"{}\",\"stability_score\":{},\"e_int_mha\":{},\
                 \"e_int_by_functional\":[{}],\"gap_complex_mha\":{},\"gap_solvent_mha\":{},\
                 \"bonds_broken\":{},\"li_o_coordination\":{},\"rdf_peak_r\":{}}}",
                v.solvent.key(),
                f(v.stability_score),
                opt(v.e_int_mha),
                v.e_int_by_functional
                    .iter()
                    .map(|(name, e)| format!("{{\"functional\":\"{name}\",\"mha\":{}}}", f(*e)))
                    .collect::<Vec<_>>()
                    .join(","),
                opt(v.gap_complex_mha),
                opt(v.gap_solvent_mha),
                v.bonds_broken,
                opt(v.li_o_coordination),
                opt(v.rdf_peak_r),
            ));
        }
        out.push_str("],\"members\":[");
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let o = &m.observables;
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"final_energy\":{},\"steps\":{},\"converged\":{},\
                 \"e_int_rhf\":{},\"e_int_functional\":{},\"gap_complex\":{},\"gap_solvent\":{},\
                 \"rdf_li_o_peak_r\":{},\"rdf_li_o_peak_g\":{},\"li_o_coordination\":{},\
                 \"bonds_broken\":{}}}",
                m.label,
                f(m.outcome.final_energy),
                m.outcome.steps,
                m.outcome.converged,
                opt(o.e_int_rhf),
                opt(o.e_int_functional),
                opt(o.gap_complex),
                opt(o.gap_solvent),
                opt(o.rdf_li_o_peak_r),
                opt(o.rdf_li_o_peak_g),
                opt(o.li_o_coordination),
                o.bonds_broken
                    .map_or_else(|| "null".to_string(), |n| n.to_string()),
            ));
        }
        out.push_str("],\"missing\":[");
        out.push_str(
            &self
                .missing
                .iter()
                .map(|l| format!("\"{l}\""))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push_str("]}");
        out
    }
}

/// Run a campaign: expand the grid, drive it through the service (with
/// bit-verification of every resumed member), and aggregate the ranked
/// stability report.
pub fn run_campaign(cfg: ServiceConfig, spec: &CampaignSpec) -> Result<CampaignReport, SpecError> {
    let jobs = spec.expand()?;
    let service_report = run_and_verify(cfg, jobs.clone());

    // Re-associate completions with members by kind equality — the grid
    // is duplicate-free, so the kind identifies the member regardless of
    // completion order.
    let mut members = Vec::new();
    let mut missing = Vec::new();
    for job in &jobs {
        match service_report
            .completed
            .iter()
            .find(|r| r.spec.kind == job.kind)
        {
            Some(r) => members.push(member_record(r)),
            None => missing.push(job.kind.label()),
        }
    }

    let mut ranking: Vec<SolventVerdict> = spec
        .solvents
        .iter()
        .map(|&solvent| verdict_for(solvent, spec, &members))
        .collect();
    // Stable sort + spec-ordered input ⇒ deterministic tie-breaking.
    ranking.sort_by(|a, b| b.stability_score.total_cmp(&a.stability_score));

    Ok(CampaignReport {
        ranking,
        members,
        missing,
        cache: service_report.cache,
        elapsed_s: service_report.elapsed_s,
        bit_identical_fraction: service_report.bit_identical_fraction(),
    })
}

fn member_record(r: &JobReport) -> MemberRecord {
    let solvent = match &r.spec.kind {
        JobKind::Reaction { solvent, .. } | JobKind::Solvation { solvent, .. } => *solvent,
        other => unreachable!("campaigns expand to reaction/solvation jobs only, got {other:?}"),
    };
    MemberRecord {
        label: r.spec.kind.label(),
        solvent,
        outcome: r.outcome.clone(),
        observables: r.observables.clone(),
        disruption: r.disruption.clone(),
        latency_s: r.latency_s,
    }
}

fn verdict_for(solvent: Solvent, spec: &CampaignSpec, members: &[MemberRecord]) -> SolventVerdict {
    let mine: Vec<&MemberRecord> = members.iter().filter(|m| m.solvent == solvent).collect();
    // Reaction aggregates, in functional (= expansion) order.
    let mut e_int_by_functional = Vec::new();
    for &functional in &spec.functionals {
        let label = JobKind::Reaction {
            solvent,
            functional,
        }
        .label();
        if let Some(m) = mine.iter().find(|m| m.label == label) {
            if let Some(e) = m.observables.e_int_functional {
                e_int_by_functional.push((functional.name(), e * 1e3));
            }
        }
    }
    let e_int_mha = if e_int_by_functional.is_empty() {
        None
    } else {
        Some(
            e_int_by_functional.iter().map(|&(_, e)| e).sum::<f64>()
                / e_int_by_functional.len() as f64,
        )
    };
    let first_reaction = mine.iter().find(|m| m.observables.gap_complex.is_some());
    let gap_complex_mha = first_reaction.and_then(|m| m.observables.gap_complex.map(|g| g * 1e3));
    let gap_solvent_mha = first_reaction.and_then(|m| m.observables.gap_solvent.map(|g| g * 1e3));
    // Solvation aggregates, in expansion order.
    let solvation: Vec<&&MemberRecord> = mine
        .iter()
        .filter(|m| m.observables.bonds_broken.is_some())
        .collect();
    let bonds_broken = solvation
        .iter()
        .map(|m| m.observables.bonds_broken.unwrap_or(0))
        .sum();
    let mean = |get: fn(&Observables) -> Option<f64>| -> Option<f64> {
        let vals: Vec<f64> = solvation
            .iter()
            .filter_map(|m| get(&m.observables))
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    let mut v = SolventVerdict {
        solvent,
        e_int_by_functional,
        e_int_mha,
        gap_complex_mha,
        gap_solvent_mha,
        bonds_broken,
        li_o_coordination: mean(|o| o.li_o_coordination),
        rdf_peak_r: mean(|o| o.rdf_li_o_peak_r),
        stability_score: 0.0,
    };
    v.stability_score = v.score();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_order_is_fixed_and_validated() {
        let spec = CampaignSpec {
            solvents: vec![Solvent::PropyleneCarbonate, Solvent::Dme],
            functionals: vec![Functional::Hf],
            concentrations: vec![2],
            seeds: vec![1, 2],
            ..CampaignSpec::default()
        };
        assert_eq!(spec.n_members(), 6);
        let jobs = spec.expand().unwrap();
        let labels: Vec<String> = jobs.iter().map(|j| j.kind.label()).collect();
        assert_eq!(
            labels,
            vec![
                "reaction:pc:HF",
                "solvation:pc:n2#1",
                "solvation:pc:n2#2",
                "reaction:dme:HF",
                "solvation:dme:n2#1",
                "solvation:dme:n2#2",
            ]
        );
        assert!(jobs.iter().all(|j| j.tenant == "campaign"));
    }

    #[test]
    fn bad_grids_are_rejected() {
        let empty = CampaignSpec {
            solvents: vec![],
            ..CampaignSpec::default()
        };
        assert_eq!(
            empty.expand().unwrap_err(),
            SpecError::ZeroParam("solvents")
        );

        let dup = CampaignSpec {
            seeds: vec![3, 3],
            ..CampaignSpec::default()
        };
        assert!(matches!(
            dup.expand().unwrap_err(),
            SpecError::BadParam { field: "seeds", .. }
        ));

        let no_members = CampaignSpec {
            functionals: vec![],
            concentrations: vec![],
            ..CampaignSpec::default()
        };
        assert!(matches!(
            no_members.expand().unwrap_err(),
            SpecError::BadParam {
                field: "campaign",
                ..
            }
        ));

        let bad_disruption = CampaignSpec {
            functionals: vec![],
            disruptions: vec![(99, Disruption::Preempt { at_step: 1 })],
            ..CampaignSpec::default()
        };
        assert!(matches!(
            bad_disruption.expand().unwrap_err(),
            SpecError::BadParam {
                field: "disruptions",
                ..
            }
        ));
    }

    #[test]
    fn disruption_overrides_land_on_the_right_member() {
        let spec = CampaignSpec {
            solvents: vec![Solvent::Dmso],
            functionals: vec![],
            concentrations: vec![2],
            seeds: vec![7, 8],
            disruptions: vec![(1, Disruption::Fault { at_step: 2 })],
            ..CampaignSpec::default()
        };
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(!jobs[0].disruption.is_disruptive());
        assert_eq!(jobs[1].disruption, Disruption::Fault { at_step: 2 });
    }
}
