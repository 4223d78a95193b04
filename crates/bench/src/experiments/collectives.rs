//! `bench-collectives` — flat vs hierarchical collectives, measured on the
//! threaded runtime and priced on the BG/Q model up to the full machine.
//!
//! The engine's exchange build ends in one gather per build. Its cost has
//! two regimes: the bandwidth term `(P−1)·b/BW` every algorithm shares
//! (all contributions land on the root), and the latency term — `(P−1)·α`
//! for the flat root gather vs `⌈log₂P⌉·α` for the binomial tree. At the
//! paper's 6,291,456 threads the flat term alone costs ~0.2 s per build;
//! the hierarchical algorithms keep the collective in the hundreds of
//! microseconds, which is what keeps the modeled build efficiency flat.
//!
//! Two sections:
//!
//! 1. **measured** — the runtime's actual message patterns: `run_spmd_cfg`
//!    executes the same gather under [`CollectiveMode::Flat`] and
//!    [`CollectiveMode::Hierarchical`], the [`TrafficLog`](liair_runtime::TrafficLog) records every
//!    wire message, and `liair-bgq`'s router prices the resulting link
//!    loads — executed pattern, modeled machine;
//! 2. **modeled** — [`liair_bgq::collectives::gather`] over the paper's
//!    scaling series (1 → 96 racks), with the strong-scaling build
//!    efficiency each algorithm family sustains.
//!
//! Writes the machine-readable `BENCH_collectives.json`.

use crate::Table;
use liair_bgq::collectives::{gather, CollectiveAlgo};
use liair_bgq::machine::scaling_series;
use liair_bgq::MachineConfig;
use liair_runtime::{fit_torus, run_spmd_cfg, CollectiveMode, CommConfig};

/// Per-rank gather payload of a typical engine build: a node group's
/// chunk contributions plus the timing trailer (10 doubles).
const PAYLOAD_BYTES: f64 = 80.0;

/// Compute seconds of the one-rack build the strong-scaling efficiency is
/// measured against (the paper's per-MD-step exchange budget).
const T_BUILD_1RACK_S: f64 = 30.0;

/// One modeled scaling point.
struct ModelRow {
    racks: usize,
    threads: usize,
    t_flat: f64,
    t_tree: f64,
    t_torus: f64,
    eff_flat: f64,
    eff_hier: f64,
}

/// Strong-scaling efficiency of a build whose compute shrinks as `1/P`
/// while every build pays one gather: `t_ideal / (t_ideal + t_gather)`.
fn efficiency(t_ideal: f64, t_gather: f64) -> f64 {
    t_ideal / (t_ideal + t_gather)
}

fn model_series() -> Vec<ModelRow> {
    let series = scaling_series();
    let n1 = series[0].nodes() as f64;
    series
        .iter()
        .map(|m| {
            let t_ideal = T_BUILD_1RACK_S * n1 / m.nodes() as f64;
            let t_flat = gather(m, CollectiveAlgo::FlatRoot, PAYLOAD_BYTES);
            let t_tree = gather(m, CollectiveAlgo::BinomialTree, PAYLOAD_BYTES);
            let t_torus = gather(m, CollectiveAlgo::TorusPipelined, PAYLOAD_BYTES);
            ModelRow {
                racks: m.nodes() / 1024,
                threads: m.threads(),
                t_flat,
                t_tree,
                t_torus,
                eff_flat: efficiency(t_ideal, t_flat),
                eff_hier: efficiency(t_ideal, t_tree),
            }
        })
        .collect()
}

/// One measured point: the runtime's real gather traffic under a mode.
struct MeasuredRow {
    nranks: usize,
    mode: CollectiveMode,
    messages: usize,
    mean_hops: f64,
    max_link_bytes: f64,
    modeled_s: f64,
}

fn measure(nranks: usize, mode: CollectiveMode, words: usize) -> MeasuredRow {
    let cfg = CommConfig {
        mode,
        fault: None,
        torus: Some(fit_torus(nranks)),
    };
    let run = run_spmd_cfg(nranks, cfg, move |comm| {
        let payload = vec![comm.rank() as f64 + 0.5; words];
        comm.gather(0, payload).expect("fault-free gather");
    })
    .expect("valid fault-free configuration");
    let log = run.traffic.expect("torus was configured");
    let machine = MachineConfig::bgq_nodes(nranks);
    MeasuredRow {
        nranks,
        mode,
        messages: log.messages(),
        mean_hops: log.mean_hops(),
        max_link_bytes: log.route().max(),
        modeled_s: log.modeled_comm_time(&machine),
    }
}

/// Run the `bench-collectives` experiment.
pub fn bench_collectives(fast: bool) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut json = String::from("{\n  \"experiment\": \"bench-collectives\",\n");
    json.push_str(&format!(
        "  \"payload_bytes_per_rank\": {PAYLOAD_BYTES},\n  \"t_build_1rack_s\": {T_BUILD_1RACK_S},\n"
    ));

    // ── measured: the runtime's wire patterns through the torus router ──
    let rank_counts: &[usize] = if fast { &[8, 16] } else { &[8, 16, 32, 64] };
    let words = 10; // PAYLOAD_BYTES / 8
    let mut tm = Table::new(
        "bench-collectives — measured gather traffic (threaded runtime, routed on the fitted torus)",
        &[
            "ranks",
            "mode",
            "wire msgs",
            "mean hops",
            "max link [B]",
            "modeled [us]",
        ],
    );
    json.push_str("  \"measured\": [\n");
    let mut measured = Vec::new();
    for &n in rank_counts {
        for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
            measured.push(measure(n, mode, words));
        }
    }
    for (i, r) in measured.iter().enumerate() {
        tm.row(vec![
            r.nranks.to_string(),
            r.mode.name().to_string(),
            r.messages.to_string(),
            format!("{:.2}", r.mean_hops),
            format!("{:.0}", r.max_link_bytes),
            format!("{:.2}", r.modeled_s * 1e6),
        ]);
        json.push_str(&format!(
            "    {{\"ranks\": {}, \"mode\": \"{}\", \"messages\": {}, \"mean_hops\": {:.3}, \
             \"max_link_bytes\": {:.1}, \"modeled_s\": {:.3e}}}{}\n",
            r.nranks,
            r.mode.name(),
            r.messages,
            r.mean_hops,
            r.max_link_bytes,
            r.modeled_s,
            if i + 1 < measured.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    tm.note = "every non-root rank sends its contribution exactly once in both modes; \
               the tree spreads the root's in-degree over rounds"
        .into();
    tables.push(tm);

    // ── modeled: the scaling series to 6,291,456 threads ──
    let rows = model_series();
    let mut t = Table::new(
        "bench-collectives — modeled build efficiency, flat vs hierarchical gather (80 B/rank)",
        &[
            "racks",
            "threads",
            "flat gather [s]",
            "tree gather [s]",
            "torus gather [s]",
            "eff flat",
            "eff hier",
            "hier/flat speedup",
        ],
    );
    json.push_str("  \"modeled\": [\n");
    for (i, r) in rows.iter().enumerate() {
        t.row(vec![
            r.racks.to_string(),
            r.threads.to_string(),
            format!("{:.3e}", r.t_flat),
            format!("{:.3e}", r.t_tree),
            format!("{:.3e}", r.t_torus),
            format!("{:.4}", r.eff_flat),
            format!("{:.4}", r.eff_hier),
            format!("{:.1}x", r.t_flat / r.t_tree),
        ]);
        json.push_str(&format!(
            "    {{\"racks\": {}, \"threads\": {}, \"t_flat_s\": {:.6e}, \"t_tree_s\": {:.6e}, \
             \"t_torus_s\": {:.6e}, \"eff_flat\": {:.6}, \"eff_hier\": {:.6}}}{}\n",
            r.racks,
            r.threads,
            r.t_flat,
            r.t_tree,
            r.t_torus,
            r.eff_flat,
            r.eff_hier,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let dominated = rows
        .iter()
        .filter(|r| r.threads >= 1_000_000)
        .all(|r| r.eff_hier > r.eff_flat && r.t_tree < r.t_flat);
    json.push_str(&format!(
        "  \"hierarchical_dominates_at_1m_threads\": {dominated}\n}}\n"
    ));
    let full = rows.last().expect("scaling series is non-empty");
    t.note = format!(
        "full machine ({} threads): flat loses {:.1}% build efficiency to the (P-1)*alpha wall, \
         hierarchical {:.2}%; dominance at >=1M threads: {}",
        full.threads,
        (1.0 - full.eff_flat) * 100.0,
        (1.0 - full.eff_hier) * 100.0,
        dominated
    );
    tables.push(t);

    match std::fs::write("BENCH_collectives.json", &json) {
        Ok(()) => tables
            .last_mut()
            .expect("tables is non-empty")
            .note
            .push_str("; BENCH_collectives.json written"),
        Err(e) => tables
            .last_mut()
            .expect("tables is non-empty")
            .note
            .push_str(&format!("; JSON not written: {e}")),
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchical_strictly_dominates_at_scale() {
        // The acceptance property: at >= 1M threads the hierarchical
        // gather is strictly cheaper and sustains strictly higher build
        // efficiency, and the series reaches the paper's 6,291,456 threads.
        let rows = model_series();
        assert_eq!(rows.last().unwrap().threads, 6_291_456);
        let mut checked = 0;
        for r in rows.iter().filter(|r| r.threads >= 1_000_000) {
            assert!(
                r.t_tree < r.t_flat,
                "{} threads: tree {} !< flat {}",
                r.threads,
                r.t_tree,
                r.t_flat
            );
            assert!(
                r.eff_hier > r.eff_flat,
                "{} threads: eff_hier {} !> eff_flat {}",
                r.threads,
                r.eff_hier,
                r.eff_flat
            );
            checked += 1;
        }
        assert!(checked >= 4, "series must cover the >=1M-thread regime");
        // And the full-machine gap is the (P−1)·α wall: >2 orders.
        let full = rows.last().unwrap();
        assert!(full.t_flat / full.t_tree > 100.0);
    }

    #[test]
    fn measured_modes_send_same_message_count() {
        // Both gathers are one-send-per-non-root; the tree only reshapes
        // *where* the messages go.
        let flat = measure(8, CollectiveMode::Flat, 4);
        let hier = measure(8, CollectiveMode::Hierarchical, 4);
        assert_eq!(flat.messages, 7);
        assert_eq!(hier.messages, 7);
        assert!(flat.modeled_s > 0.0 && hier.modeled_s > 0.0);
    }
}
