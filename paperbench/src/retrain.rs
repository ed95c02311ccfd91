//! `retrain`: the online protocol called directly, with no serving.
//! Retrain on the 500 most recently completed jobs, predict the next 100
//! submissions in one call, score them, and repeat over consecutive
//! windows while they fit in the run.

use std::time::Instant;

use prionn_core::{relative_accuracy, Prionn, ResourcePrediction};
use prionn_telemetry::Telemetry;

use crate::common::{
    check_first_window, check_prediction, first_cut, paper_model, peak_rss_mb, timed_setup,
    trace_jobs, training_window, Report, RETRAIN_EVERY,
};
use crate::fleet_closed;
use crate::layers;
use crate::spans::Spans;
use crate::stats::median;

/// Times the batch-100 predict call is repeated before and again after
/// each retrain. `p50_ms` is the median over both sets: calls about 30 s
/// apart see more of the shared host's phases than back-to-back calls.
const PREDICT_REPS: usize = 8;

/// [`PREDICT_REPS`] timed `Prionn::predict` calls on `scripts`, each
/// call's time pushed onto `times`. Every repeat must return the first
/// call's predictions, one per script.
fn timed_predicts(
    model: &mut Prionn,
    scripts: &[&str],
    spans: Option<&Spans>,
    times: &mut Vec<f64>,
) -> Result<Vec<ResourcePrediction>, String> {
    let mut first: Option<Vec<ResourcePrediction>> = None;
    for _ in 0..PREDICT_REPS {
        let t = Instant::now();
        let p = {
            let _g = spans.map(|s| s.open("core.predict.b100", 0));
            model.predict(scripts).map_err(|e| e.to_string())?
        };
        times.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(p),
            Some(f) if *f != p => return Err("repeated predict calls differ".into()),
            Some(_) => {}
        }
    }
    let p = first.expect("at least one predict call");
    if p.len() != scripts.len() {
        return Err(format!("{} predictions for {} scripts", p.len(), scripts.len()));
    }
    Ok(p)
}

/// Run the workload for about `seconds` (at least one window).
pub fn run(seed: u64, seconds: f64, spans: Option<&Spans>) -> Report {
    let mut report = Report::default();
    let (setup_s, (jobs, mut model)) = timed_setup(
        || {
            let jobs = trace_jobs(seed);
            let model = paper_model(&jobs);
            (jobs, model)
        },
        drop,
    );
    let telemetry = Telemetry::new();
    if spans.is_some() {
        model.set_telemetry(&telemetry);
    }

    let start = Instant::now();
    let mut cut = first_cut(&jobs);
    let mut events = Vec::new();
    let mut predict_s = Vec::new();
    let mut window_acc = Vec::new();
    let mut scored = Vec::new();
    let mut first_batch = None;
    while cut + RETRAIN_EVERY <= jobs.len() {
        // Start another window only if it should end within the run.
        if let Some(last) = events.last() {
            if start.elapsed().as_secs_f64() + last > seconds {
                break;
            }
        }
        let batch = training_window(&jobs, cut).expect("window has completed jobs");
        let scripts: Vec<&str> = batch.scripts.iter().map(String::as_str).collect();
        let next = &jobs[cut..cut + RETRAIN_EVERY];
        let next_scripts: Vec<&str> = next.iter().map(|j| j.script.as_str()).collect();
        report.attempted += next.len() as u64;

        // Before the retrain the model holds the previous window's
        // weights; these calls are timed and checked, not scored.
        let before = timed_predicts(&mut model, &next_scripts, spans, &mut predict_s)
            .and_then(|p| p.iter().try_for_each(check_prediction));
        let t = Instant::now();
        let trained = {
            let _g = spans.map(|s| s.open("core.retrain", 0));
            model.retrain(
                &scripts,
                &batch.runtime_minutes,
                &batch.read_bytes,
                &batch.write_bytes,
            )
        };
        events.push(t.elapsed().as_secs_f64());
        let preds = before.and_then(|()| {
            trained.map_err(|e| e.to_string())?;
            timed_predicts(&mut model, &next_scripts, spans, &mut predict_s)
        });
        let preds = match preds {
            Ok(p) => p,
            Err(e) => {
                report.failed += next.len() as u64;
                report.problem(format!("window at {cut}: {e}"));
                cut += RETRAIN_EVERY;
                continue;
            }
        };
        let mut acc = Vec::with_capacity(next.len());
        for (job, p) in next.iter().zip(&preds) {
            match check_prediction(p) {
                Ok(()) => acc.push(relative_accuracy(job.runtime_minutes(), p.runtime_minutes)),
                Err(e) => {
                    report.failed += 1;
                    report.problem(format!("job {}: {e}", job.id));
                }
            }
        }
        window_acc.push(acc.iter().sum::<f64>() / next.len() as f64);
        scored.extend(acc);
        first_batch.get_or_insert((cut, batch));
        cut += RETRAIN_EVERY;
    }

    report.note("windows", events.len());
    let first = window_acc.first().copied().unwrap_or(f64::NAN);
    check_first_window(&mut report, seed, first, "retrain");

    let ok = report.attempted - report.failed.min(report.attempted);
    match spans {
        None => {
            report.metric("retrain_s", median(&events), "s");
            report.metric(
                "rel_acc",
                scored.iter().sum::<f64>() / scored.len().max(1) as f64,
                "ratio",
            );
            // The "requests" of this workload are its batch-100 predict
            // calls.
            let predicted = (RETRAIN_EVERY * predict_s.len()) as f64;
            report.metric("rps", predicted / predict_s.iter().sum::<f64>(), "1/s");
            report.metric("p50_ms", median(&predict_s) * 1e3, "ms");
            report.metric(
                "ok_frac",
                ok as f64 / report.attempted.max(1) as f64,
                "ratio",
            );
            report.metric("setup_s", setup_s, "s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(spans) => {
            let (cut, batch) = first_batch.expect("at least one window");
            let window: Vec<&str> = batch.scripts.iter().map(String::as_str).collect();
            let held = &jobs[cut..];
            // The serve and fleet layers: a short traced closed loop over
            // the retrained weights.
            fleet_closed::probe_fleet(&model, held, spans, &mut report);
            let held: Vec<&str> = held.iter().map(|j| j.script.as_str()).collect();
            layers::probe_model(&model, &telemetry, &window, &held, spans, &mut report);
        }
    }
    report
}
