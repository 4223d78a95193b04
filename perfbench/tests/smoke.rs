//! Smoke-size runs of every workload: each prints every metric that
//! `BENCHMARK.json` declares, with its unit, and a wrong pinned energy
//! is counted as a failed operation.

use liair_perfbench::check::Pin;
use liair_perfbench::metrics::{END_TO_END, PER_LAYER};
use liair_perfbench::{rhf_fragments, run, serve_mix, PinSet, RunConfig, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.01,
        trace,
        smoke: true,
    }
}

/// The `(name, unit)` pairs of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let ours: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(
            declared(section),
            ours,
            "{section} differs from BENCHMARK.json"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let section = if trace { "per_layer" } else { "end_to_end" };
            let mut outcome = run(&smoke(workload, trace), PinSet::default());
            let line = outcome.result_line(trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload} trace={trace}: {line}"
            );
            assert_eq!(outcome.checks.failed, 0, "{workload}: {line}");
            assert!(outcome.checks.attempted >= 1);
            for (name, unit) in declared(section) {
                let start = line
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
                let entry = &line[start..start + line[start..].find('}').expect("entry closes")];
                assert!(
                    entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}: {entry}"
                );
            }
            assert_eq!(outcome.spans_jsonl.is_empty(), !trace);
        }
    }
}

/// `pins` with the value of the pin called `name` moved by 1 mHa.
fn with_wrong_pin(pins: &[Pin], name: &str) -> Vec<Pin> {
    let mut wrong = pins.to_vec();
    let pin = wrong
        .iter_mut()
        .find(|p| p.name == name)
        .expect("pin exists");
    pin.value += 1e-3;
    wrong
}

#[test]
fn a_wrong_fragment_energy_is_a_failed_operation() {
    let wrong = with_wrong_pin(rhf_fragments::PINS, "smoke.rhf.li2o2");
    let pins = PinSet {
        fragments: &wrong,
        ..PinSet::default()
    };
    let mut outcome = run(&smoke("rhf-fragments", false), pins);
    assert_eq!(outcome.checks.failed, 1);
    let line = outcome.result_line(false);
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(outcome.values.get("ops_ok_frac").expect("reported") < 1.0);
}

#[test]
fn a_wrong_serve_scf_energy_is_a_failed_operation() {
    let wrong = with_wrong_pin(serve_mix::PINS, "scf.lih");
    let pins = PinSet {
        serve: &wrong,
        ..PinSet::default()
    };
    let outcome = run(&smoke("serve-mix", false), pins);
    assert!(outcome.checks.failed >= 1);
    assert!(outcome.checks.failed < outcome.checks.attempted);
}
