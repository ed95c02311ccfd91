//! What every workload shares: the seeded trace, the paper-shape model,
//! the online protocol's training windows, output checks, and the
//! report each run prints.

use std::time::Instant;

use prionn_core::{Prionn, PrionnConfig, ResourcePrediction, TrainingBatch};
use prionn_tensor::ops::gemm::kernel_tier;
use prionn_workload::{JobRecord, Trace, TraceConfig, TracePreset};

use crate::stats::median;

/// Jobs in the generated trace: room for several 500 + 100 windows.
const TRACE_JOBS: usize = 1600;
/// The online protocol's training window (paper: 500 completed jobs).
pub const TRAIN_WINDOW: usize = 500;
/// The online protocol's retrain cadence (paper: every 100 submissions).
pub const RETRAIN_EVERY: usize = 100;
/// Scripts that seed word2vec, as the online protocol does.
pub const W2V_CORPUS: usize = 200;
/// Times set-up is repeated in one run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// `rel_acc` of the first window, recorded per GEMM kernel tier and seed
/// (`tier seed value` lines). Retraining is deterministic for a fixed
/// tier, so a run on a recorded seed must reproduce the value exactly.
const RECORDED: &str = include_str!("../recorded_rel_acc.txt");

fn recorded_rel_acc(tier: &str, seed: u64) -> Option<f64> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() == 3 && f[0] == tier && f[1].parse() == Ok(seed))
                .then(|| f[2].parse().ok())
                .flatten()
        })
        .next()
}

/// Check the first window's `rel_acc` against the value recorded for
/// `seed` on this GEMM kernel tier; with none recorded, check that it
/// lies in `[0, 1]`. `what` names the predictions scored.
pub fn check_first_window(report: &mut Report, seed: u64, first: f64, what: &str) {
    let tier = kernel_tier().name();
    report.note("rel_acc_first_window", first);
    match recorded_rel_acc(tier, seed) {
        Some(want) if want != first => {
            report.failed += 1;
            report.problem(format!(
                "{what}: rel_acc {first} differs from the {want} recorded for seed {seed} on {tier}"
            ));
        }
        Some(_) => report.note("rel_acc_check", "matches recorded"),
        None => {
            report.note("rel_acc_check", "no value recorded for this seed and tier");
            if !(0.0..=1.0).contains(&first) {
                report.problem(format!("{what}: rel_acc {first} outside [0, 1]"));
            }
        }
    }
}

/// The non-cancelled jobs of a Cab-like trace generated from `seed`, in
/// submission order.
pub fn trace_jobs(seed: u64) -> Vec<JobRecord> {
    let mut cfg = TraceConfig::preset(TracePreset::CabLike, TRACE_JOBS);
    cfg.seed = seed;
    Trace::generate(&cfg)
        .jobs
        .into_iter()
        .filter(|j| !j.cancelled)
        .collect()
}

/// The paper-shape predictor (`PrionnConfig::default()`), its word2vec
/// table trained on the first scripts of the trace.
pub fn paper_model(jobs: &[JobRecord]) -> Prionn {
    let corpus: Vec<&str> = jobs
        .iter()
        .take(W2V_CORPUS)
        .map(|j| j.script.as_str())
        .collect();
    Prionn::new(PrionnConfig::default(), &corpus).expect("build the paper-shape model")
}

/// The [`TRAIN_WINDOW`] most recently completed jobs at the submission of
/// `jobs[cut]`, oldest first; `None` when fewer have completed.
pub fn training_window(jobs: &[JobRecord], cut: usize) -> Option<TrainingBatch> {
    let now = jobs[cut].submit_time;
    let mut done: Vec<(u64, &JobRecord)> = jobs[..cut]
        .iter()
        .map(|j| (j.submit_time + j.runtime_seconds, j))
        .filter(|&(end, _)| end <= now)
        .collect();
    if done.len() < TRAIN_WINDOW {
        return None;
    }
    done.sort_by_key(|&(end, j)| (end, j.id));
    let window = &done[done.len() - TRAIN_WINDOW..];
    Some(TrainingBatch {
        scripts: window.iter().map(|(_, j)| j.script.clone()).collect(),
        runtime_minutes: window.iter().map(|(_, j)| j.runtime_minutes()).collect(),
        read_bytes: window.iter().map(|(_, j)| j.bytes_read).collect(),
        write_bytes: window.iter().map(|(_, j)| j.bytes_written).collect(),
    })
}

/// The first submission at which a full training window has completed.
pub fn first_cut(jobs: &[JobRecord]) -> usize {
    (TRAIN_WINDOW..jobs.len())
        .find(|&c| training_window(jobs, c).is_some())
        .expect("trace too short for one training window")
}

/// Checks one prediction: every field finite and non-negative, runtime
/// within the 960-minute cap.
pub fn check_prediction(p: &ResourcePrediction) -> Result<(), String> {
    let ok = [p.runtime_minutes, p.read_bytes, p.write_bytes]
        .iter()
        .all(|v| v.is_finite() && *v >= 0.0)
        && p.runtime_minutes <= 960.0;
    if ok {
        Ok(())
    } else {
        Err(format!("implausible prediction {p:?}"))
    }
}

/// Runs `setup` [`SETUP_REPS`] times, tearing down all but the last, and
/// returns the median set-up time with the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for i in 0..SETUP_REPS {
        let t = Instant::now();
        let built = setup();
        times.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPS {
            teardown(built);
        } else {
            last = Some(built);
        }
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One metric of a run.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Output checks that failed; the run is correct only when empty.
    pub problems: Vec<String>,
    /// Measured metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra `key=value` facts for the metadata line.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a failed output check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        // Keep the output readable when a check fails thousands of times.
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// Record a metadata fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}
