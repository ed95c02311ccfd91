//! Paper-shape benchmark for PRIONN: three workloads over the default
//! `PrionnConfig` (64×64 word2vec grid, width-8 2D-CNN, 960 runtime bins,
//! runtime + read + write heads). See README.md beside this file.
//!
//! ```text
//! paperbench --workload <retrain|fleet-closed|burst-retrain|all>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! separate traced run. The exit code is non-zero when an output check
//! fails.

mod burst;
mod common;
mod fleet_closed;
mod layers;
mod retrain;
mod spans;
mod stats;

use std::process::ExitCode;

use common::Report;
use spans::Spans;

const WORKLOADS: [&str; 3] = ["retrain", "fleet-closed", "burst-retrain"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Jiffies per `/proc/stat` cpu field, summed over all CPUs.
fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Share of CPU time the hypervisor stole between two [`cpu_times`]
/// samples (the eighth field), or NaN when unavailable.
fn steal_share(start: &[u64], end: &[u64]) -> f64 {
    let d: Vec<u64> = start
        .iter()
        .zip(end)
        .map(|(a, b)| b.saturating_sub(*a))
        .collect();
    let total: u64 = d.iter().sum();
    match d.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => f64::NAN,
    }
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn run_one(args: &Args) -> ExitCode {
    let load_start = loadavg();
    let cpu_start = cpu_times();
    let spans = args.trace.then(Spans::new);
    let mut report: Report = match args.workload.as_str() {
        "retrain" => retrain::run(args.seed, args.seconds, spans.as_ref()),
        "fleet-closed" => fleet_closed::run(args.seed, args.seconds, spans.as_ref()),
        _ => burst::run(args.seed, args.seconds, spans.as_ref()),
    };
    if let Some(spans) = &spans {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = spans.write_tsv(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let not_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.name))
        .collect();
    for p in not_finite {
        report.problem(p);
    }
    let correct = report.problems.is_empty() && report.attempted > 0;

    let mut meta = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "kernel_tier".into(),
            json_str(prionn_tensor::ops::gemm::kernel_tier().name()),
        ),
        ("git_rev".into(), json_str(&git_revision())),
        ("loadavg_start".into(), json_str(&load_start)),
        ("loadavg_end".into(), json_str(&loadavg())),
        (
            "steal_share".into(),
            json_str(&format!("{:.4}", steal_share(&cpu_start, &cpu_times()))),
        ),
    ];
    for (k, v) in &report.notes {
        meta.push((k.clone(), json_str(v)));
    }
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("meta {{{}}}", meta.join(", "));
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    for m in &report.metrics {
        println!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in its own process, so each reports its own peak
/// memory, and fail if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("run workload");
        ok &= status.success();
    }
    println!("all workloads: {}", if ok { "correct" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
