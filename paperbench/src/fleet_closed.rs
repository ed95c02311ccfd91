//! `fleet-closed`: the full serving path, router → shard → gateway →
//! replica → heads → reply. A `Router` over two in-process
//! `ShardServer`s on loopback, each fronting a default two-replica
//! `Gateway`. One paper-shape retrain on the first training window is
//! hot-swapped into every gateway; then two closed-loop clients each send
//! one held-out script per request, keyed by the trace's user id, and the
//! served runtime predictions are scored against ground truth.

use std::sync::Arc;
use std::time::Instant;

use prionn_core::{relative_accuracy, Prionn, ResourcePrediction};
use prionn_fleet::ring::hash64;
use prionn_fleet::{Router, RouterConfig, ShardConfig, ShardServer};
use prionn_serve::{Gateway, GatewayConfig};
use prionn_telemetry::Telemetry;
use prionn_workload::JobRecord;

use crate::common::{
    check_first_window, check_prediction, first_cut, paper_model, peak_rss_mb, timed_setup,
    trace_jobs, training_window, Report, RETRAIN_EVERY, W2V_CORPUS,
};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{interquartile_mean, median, tail_quantile};

/// Closed-loop clients: one per core of the reference host.
const CLIENTS: usize = 2;
/// Shards behind the router.
const SHARDS: usize = 2;
/// Every this many requests of client 0 is compared with a direct
/// `Prionn::predict` on the same weights.
const SAMPLE_EVERY: usize = 50;
/// Length of the closed loop that a traced `retrain` run drives to
/// measure the serve and fleet layers.
const PROBE_SECONDS: f64 = 5.0;

struct Fleet {
    gateways: Vec<Arc<Gateway>>,
    /// One registry for both gateways, so the serve histograms cover the
    /// whole fleet.
    telemetry: Telemetry,
    servers: Vec<ShardServer>,
    router: Router,
}

impl Fleet {
    fn boot(model: &Prionn) -> Fleet {
        let mut gateways = Vec::new();
        let telemetry = Telemetry::new();
        let mut servers = Vec::new();
        for _ in 0..SHARDS {
            let cfg = GatewayConfig {
                telemetry: Some(telemetry.clone()),
                ..GatewayConfig::default()
            };
            let replica = model.fork_replica().expect("fork serving weights");
            let gw = Arc::new(Gateway::spawn(replica, cfg).expect("spawn gateway"));
            servers.push(
                ShardServer::spawn(Arc::clone(&gw), ShardConfig::default()).expect("spawn shard"),
            );
            gateways.push(gw);
        }
        let endpoints = servers.iter().map(|s| s.addr().to_string()).collect();
        // One pipelined connection per shard keeps the load at two
        // connections, one per core of the reference host.
        let router = Router::new(RouterConfig {
            conns_per_shard: 1,
            ..RouterConfig::for_endpoints(endpoints)
        });
        Fleet {
            gateways,
            telemetry,
            servers,
            router,
        }
    }

    fn shutdown(self) {
        drop(self.router);
        // Gateways first: they fail queued requests, so shard workers
        // blocked in predict return and the server joins cannot wedge.
        for g in &self.gateways {
            g.shutdown();
        }
        for s in &self.servers {
            s.shutdown();
        }
    }
}

struct ClientLog {
    latencies_ms: Vec<f64>,
    /// When each successful request completed, in seconds from the start.
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    samples: Vec<(usize, ResourcePrediction)>,
    /// Relative accuracy of the first served reply for each held-out job
    /// this client sends, by job index.
    accuracy: Vec<(usize, f64)>,
}

/// One closed-loop client: request `k` sends held-out job
/// `(client + CLIENTS * k) % held.len()` until `deadline`; every reply
/// must carry weight `epoch`.
fn client(
    c: usize,
    router: &Router,
    held: &[JobRecord],
    epoch: u64,
    start: Instant,
    deadline: Instant,
    spans: Option<&Spans>,
) -> ClientLog {
    let mut log = ClientLog {
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        samples: Vec::new(),
        accuracy: Vec::new(),
    };
    let mut k = 0;
    while Instant::now() < deadline {
        let i = (c + CLIENTS * k) % held.len();
        let job = &held[i];
        let t = Instant::now();
        let reply = {
            let _g = spans.map(|s| s.open("fleet.request", 0));
            router.predict(
                hash64(job.user.as_bytes()),
                std::slice::from_ref(&job.script),
            )
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        log.attempted += 1;
        let checked = reply.map_err(|e| e.to_string()).and_then(|r| {
            if r.epoch != epoch || r.predictions.len() != 1 {
                return Err(format!(
                    "epoch {} with {} predictions",
                    r.epoch,
                    r.predictions.len()
                ));
            }
            check_prediction(&r.predictions[0]).map(|()| r.predictions[0])
        });
        match checked {
            Ok(p) => {
                log.latencies_ms.push(ms);
                log.done_s.push(start.elapsed().as_secs_f64());
                if c == 0 && k % SAMPLE_EVERY == 0 {
                    log.samples.push((i, p));
                }
                if c + CLIENTS * k < held.len() {
                    let truth = job.runtime_minutes();
                    log.accuracy.push((i, relative_accuracy(truth, p.runtime_minutes)));
                }
            }
            Err(e) => {
                log.failed += 1;
                if log.problems.len() < 5 {
                    log.problems
                        .push(format!("request for job {}: {e}", job.id));
                }
            }
        }
        k += 1;
    }
    log
}

fn drive(
    router: &Router,
    held: &[JobRecord],
    epoch: u64,
    seconds: f64,
    spans: Option<&Spans>,
) -> Vec<ClientLog> {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(c, router, held, epoch, start, deadline, spans)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Merge the clients' counts and failures into `report`, and compare
/// each sampled reply with a direct `Prionn::predict` on `reference`,
/// which holds the served weights. Returns every successful request's
/// latency in ms.
fn collect(
    logs: &[ClientLog],
    held: &[JobRecord],
    reference: &mut Prionn,
    report: &mut Report,
) -> Vec<f64> {
    let mut latencies = Vec::new();
    for log in logs {
        report.attempted += log.attempted;
        report.failed += log.failed;
        latencies.extend_from_slice(&log.latencies_ms);
        for p in &log.problems {
            report.problem(p.clone());
        }
    }
    let mut checked = 0;
    for (i, served) in logs.iter().flat_map(|l| &l.samples) {
        let direct = reference
            .predict(&[held[*i].script.as_str()])
            .expect("direct predict");
        checked += 1;
        if direct[0] != *served {
            report.failed += 1;
            report.problem(format!(
                "job {}: served {served:?}, direct {:?}",
                held[*i].id, direct[0]
            ));
        }
    }
    report.note("requests", latencies.len());
    report.note("direct_checks", checked);
    latencies
}

/// The serve and fleet layers' metrics after a traced closed loop whose
/// successful requests took `latencies` ms.
fn report_fleet_layers(
    fleet: &Fleet,
    latencies: &[f64],
    script: &str,
    spans: &Spans,
    report: &mut Report,
) {
    // Hop time: what the client waited beyond the gateway's own
    // admission-to-reply time, as means over the whole loop.
    let served = fleet.telemetry.histogram("serve_predict_seconds", "");
    let client_mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    report.metric("fleet.hop_ms", client_mean - served.mean() * 1e3, "ms");
    let gateways: Vec<&Gateway> = fleet.gateways.iter().map(|g| g.as_ref()).collect();
    layers::report_serve(report, &fleet.telemetry, &gateways);
    for _ in 0..100 {
        for shard in 0..SHARDS {
            let _g = spans.open("fleet.ping", 0);
            fleet.router.ping(shard);
        }
    }
    let ping = layers::span_median(&spans.durations_ms(), "fleet.ping");
    report.metric("fleet.ping_us", ping * 1e3, "us");
    layers::probe_codec(script, spans, report);
}

/// The serve and fleet layers for a traced `retrain` run: boot a fleet
/// over `model`'s weights, drive a short traced closed loop over `held`
/// and report those layers' metrics.
pub fn probe_fleet(model: &Prionn, held: &[JobRecord], spans: &Spans, report: &mut Report) {
    let mut reference = model.fork_replica().expect("fork the served weights");
    let fleet = Fleet::boot(model);
    drive(&fleet.router, held, 0, 0.3, None);
    let logs = drive(&fleet.router, held, 0, PROBE_SECONDS, Some(spans));
    let latencies = collect(&logs, held, &mut reference, report);
    report_fleet_layers(&fleet, &latencies, &held[0].script, spans, report);
    fleet.shutdown();
}

/// Run the workload: set-up, one retrain, then `seconds` of closed loop.
pub fn run(seed: u64, seconds: f64, spans: Option<&Spans>) -> Report {
    let mut report = Report::default();
    let (setup_s, (jobs, mut reference, fleet)) = timed_setup(
        || {
            let jobs = trace_jobs(seed);
            let model = paper_model(&jobs);
            let fleet = Fleet::boot(&model);
            // Warm-up: a few requests per client fill every pool on the path.
            drive(&fleet.router, &jobs[W2V_CORPUS..], 0, 0.3, None);
            (jobs, model, fleet)
        },
        |(_, _, fleet)| fleet.shutdown(),
    );

    // The fleet serves trained weights: one paper-shape retrain on the
    // first training window, timed as `retrain_s` and hot-swapped into
    // every gateway. It is the same event as the `retrain` workload's
    // first, so the served predictions reproduce its first window.
    let telemetry = Telemetry::new();
    if spans.is_some() {
        reference.set_telemetry(&telemetry);
    }
    let cut = first_cut(&jobs);
    let batch = training_window(&jobs, cut).expect("window has completed jobs");
    let window: Vec<&str> = batch.scripts.iter().map(String::as_str).collect();
    let t = Instant::now();
    let trained = reference.retrain(
        &window,
        &batch.runtime_minutes,
        &batch.read_bytes,
        &batch.write_bytes,
    );
    let retrain_s = t.elapsed().as_secs_f64();
    if let Err(e) = trained {
        report.attempted += 1;
        report.failed += 1;
        report.problem(format!("retrain: {e}"));
        fleet.shutdown();
        return report;
    }
    let epochs: Vec<u64> = fleet
        .gateways
        .iter()
        .map(|g| g.hot_swap(&reference).expect("publish the retrained weights"))
        .collect();
    let epoch = epochs[0];
    if epochs.iter().any(|&e| e != epoch) {
        report.problem(format!("gateways published different epochs {epochs:?}"));
    }
    let held = &jobs[cut..];
    // Warm-up: every replica picks up the new weights.
    drive(&fleet.router, held, epoch, 0.3, None);

    let logs = drive(&fleet.router, held, epoch, seconds, spans);
    let latencies = collect(&logs, held, &mut reference, &mut report);

    // Completions per whole second of the run; `rps` is the mean of the
    // middle half of them, so a brief stall on the shared host moves it
    // less than a plain mean would.
    let mut per_second = vec![0u32; (seconds.floor() as usize).max(1)];
    for &t in logs.iter().flat_map(|l| &l.done_s) {
        if let Some(n) = per_second.get_mut(t as usize) {
            *n += 1;
        }
    }
    // Score each held-out job's first served reply, in submission order.
    let mut accuracy: Vec<(usize, f64)> = logs.iter().flat_map(|l| l.accuracy.clone()).collect();
    accuracy.sort_by_key(|&(i, _)| i);
    report.note("held_jobs", held.len());
    report.note("scored_jobs", accuracy.len());
    if accuracy.len() < RETRAIN_EVERY || accuracy[RETRAIN_EVERY - 1].0 != RETRAIN_EVERY - 1 {
        report.problem(format!(
            "served only part of the first {RETRAIN_EVERY} held-out jobs"
        ));
    } else {
        let first: f64 = accuracy[..RETRAIN_EVERY].iter().map(|&(_, a)| a).sum();
        check_first_window(&mut report, seed, first / RETRAIN_EVERY as f64, "fleet-closed");
    }
    let rel_acc = accuracy.iter().map(|&(_, a)| a).sum::<f64>() / accuracy.len().max(1) as f64;

    let stat = |f: fn(&prionn_serve::GatewayStats) -> usize| -> usize {
        fleet.gateways.iter().map(|g| f(g.stats())).sum()
    };
    let gw_batches = stat(|s| s.batches_served.load(std::sync::atomic::Ordering::SeqCst));
    let gw_scripts = stat(|s| s.scripts_predicted.load(std::sync::atomic::Ordering::SeqCst));
    report.note(
        "mean_fused_batch",
        gw_scripts as f64 / gw_batches.max(1) as f64,
    );

    let ok = report.attempted - report.failed.min(report.attempted);
    match spans {
        None => {
            let per_second: Vec<f64> = per_second.iter().map(|&n| f64::from(n)).collect();
            report.metric("rps", interquartile_mean(&per_second), "1/s");
            report.metric("p50_ms", median(&latencies), "ms");
            // The tail is printed, not reported as a metric: on the 2-core
            // shared host its spread across runs (IQR over half the
            // median) exceeds any bound the benchmark may set.
            if let Some(p99) = tail_quantile(&latencies, 0.99) {
                report.note("p99_ms", p99);
            }
            report.metric("retrain_s", retrain_s, "s");
            report.metric("rel_acc", rel_acc, "ratio");
            report.metric(
                "ok_frac",
                ok as f64 / report.attempted.max(1) as f64,
                "ratio",
            );
            report.metric("setup_s", setup_s, "s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(spans) => {
            report_fleet_layers(&fleet, &latencies, &held[0].script, spans, &mut report);
            let held: Vec<&str> = held.iter().map(|j| j.script.as_str()).collect();
            layers::probe_model(&reference, &telemetry, &window, &held, spans, &mut report);
        }
    }
    fleet.shutdown();
    report
}
