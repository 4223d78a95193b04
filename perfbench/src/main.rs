//! Command line: `liair-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]`.
//! Prints a JSON header line, then the result line.

use liair_perfbench::{run, PinSet, RunConfig, WORKLOADS};
use std::process::ExitCode;

/// The host's cumulative CPU times (`/proc/stat`, all CPUs), if readable.
fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: liair-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--commit <id>] [--out-dir <dir>]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let (mut commit, mut out_dir) = ("unknown".to_string(), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                cfg.workload = v.clone();
                WORKLOADS.contains(&v.as_str())
            }
            "--seed" => v.parse().map(|s| cfg.seed = s).is_ok(),
            "--seconds" => v
                .parse::<f64>()
                .map(|s| cfg.seconds = s)
                .is_ok_and(|_| cfg.seconds > 0.0),
            "--trace" => match v.as_str() {
                "0" | "1" => {
                    cfg.trace = v == "1";
                    true
                }
                _ => false,
            },
            "--commit" => {
                commit = v.clone();
                true
            }
            "--out-dir" => {
                out_dir = Some(v.clone());
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value '{v}' for {flag}"));
        }
    }
    if cfg.workload.is_empty() {
        return usage("--workload is required");
    }

    let threads = rayon::current_num_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if cfg.workload == "serve-mix" {
        liair_perfbench::serve_mix::service_config().max_workers
    } else {
        1
    };
    println!(
        "{{\"header\": {{\"commit\": \"{commit}\", \"nproc\": {nproc}, \"simd\": \"{:?}\", \
         \"threads\": {threads}, \"workers\": {workers}, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}}}",
        liair_math::simd::level(),
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );

    let cpu0 = cpu_times();
    let mut outcome = run(&cfg, PinSet::default());
    // CPU time the hypervisor gave to other guests (field 8), as a share
    // of all CPU time during the run: context for the timings.
    if let (Some(a), Some(b)) = (cpu0, cpu_times()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total: u64 = d.iter().sum();
        if let (Some(steal), true) = (d.get(7), total > 0) {
            eprintln!(
                "perfbench: host CPU steal during the run: {:.1}%",
                100.0 * *steal as f64 / total as f64
            );
        }
    }
    if cfg.trace {
        eprintln!("perfbench: self time per layer (s)");
        for (layer, s) in &outcome.layer_self_s {
            eprintln!("  {layer:<10} {s:>10.4}");
        }
        if let Some(dir) = out_dir {
            let path = format!("{dir}/trace-{}-seed{}.jsonl", cfg.workload, cfg.seed);
            let written = std::fs::create_dir_all(&dir)
                .and_then(|_| std::fs::write(&path, &outcome.spans_jsonl));
            if let Err(e) = written {
                eprintln!("perfbench: could not write {path}: {e}");
            }
        }
    }
    println!("{}", outcome.result_line(cfg.trace));
    ExitCode::SUCCESS
}
