//! `burst-retrain`: writes beside reads. An open loop over one
//! pipelined PFR1 connection to one shard fronting the default
//! two-replica gateway. Poisson-timed job arrays arrive as back-to-back
//! single-script requests, so the gateway forms the batches itself.
//! Partway through, one paper-shape retrain event is queued with
//! `Gateway::retrain_async`; the run ends only after every replica
//! serves the new weight epoch.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prionn_core::{Prionn, TrainingBatch};
use prionn_fleet::proto;
use prionn_fleet::{ShardConfig, ShardServer};
use prionn_serve::{Gateway, GatewayConfig, Priority};
use prionn_store::wire;
use prionn_telemetry::Telemetry;
use prionn_workload::JobRecord;

use crate::common::{
    check_prediction, first_cut, paper_model, peak_rss_mb, timed_setup, trace_jobs,
    training_window, Report, W2V_CORPUS,
};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{burst_schedule, median, tail_quantile, Burst};

/// Mean job arrays per second. With 8–16 scripts each this offers about
/// 48 scripts/s, well under what two replicas serve while the trainer
/// holds a core.
const BURST_RATE: f64 = 4.0;
const MIN_BURST: usize = 8;
const MAX_BURST: usize = 16;
/// When the retrain event is queued, from the start of the load.
const RETRAIN_AT: Duration = Duration::from_secs(2);
/// Load kept up after every replica serves the new epoch.
const TAIL: Duration = Duration::from_secs(1);
/// A reply later than this after its due time counts as missed.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// The run fails if the new epoch has not reached every replica by then.
const GIVE_UP: Duration = Duration::from_secs(150);
/// Requests that can be in flight on the shard's one connection.
const SHARD_WORKERS: usize = 16;

struct Shard {
    gateway: Arc<Gateway>,
    telemetry: Telemetry,
    server: ShardServer,
    stream: TcpStream,
}

impl Shard {
    fn boot(model: &Prionn, warm_script: &str) -> Shard {
        let telemetry = Telemetry::new();
        let cfg = GatewayConfig {
            telemetry: Some(telemetry.clone()),
            ..GatewayConfig::default()
        };
        let replica = model.fork_replica().expect("fork serving weights");
        let gateway = Arc::new(Gateway::spawn(replica, cfg).expect("spawn gateway"));
        let shard_cfg = ShardConfig {
            workers_per_conn: SHARD_WORKERS,
            ..ShardConfig::default()
        };
        let server = ShardServer::spawn(Arc::clone(&gateway), shard_cfg).expect("spawn shard");
        let stream = TcpStream::connect(server.addr()).expect("connect to shard");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        // Warm-up: two full bursts through the connection.
        let payload = proto::encode_predict(Priority::Normal, 0, &[warm_script.to_string()]);
        let mut r = BufReader::new(stream.try_clone().expect("clone stream"));
        for _ in 0..2 {
            let mut w = BufWriter::new(&stream);
            for id in 0..MAX_BURST as u64 {
                wire::write_frame(&mut w, proto::KIND_PREDICT, id, &payload)
                    .expect("warm-up write");
            }
            w.flush().expect("warm-up flush");
            drop(w);
            for _ in 0..MAX_BURST {
                wire::read_frame(&mut r, wire::MAX_FRAME_PAYLOAD)
                    .expect("warm-up reply")
                    .expect("warm-up reply frame");
            }
        }
        Shard {
            gateway,
            telemetry,
            server,
            stream,
        }
    }

    fn shutdown(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.gateway.shutdown();
        self.server.shutdown();
    }
}

/// One reply as the reader saw it.
struct Reply {
    id: u64,
    epoch: Option<u64>,
    latency_ms: f64,
    error: Option<String>,
}

/// What the writer did.
struct Sent {
    /// Microseconds from load start at which each request was written.
    sent_us: Vec<u64>,
    /// Outstanding requests just before each burst was written.
    backlog: Vec<(Duration, usize)>,
    /// Most requests outstanding right after a burst was written.
    outstanding_max: usize,
    late_ms: Vec<f64>,
}

/// Run the workload for at least `seconds`.
pub fn run(seed: u64, seconds: f64, spans: Option<&Spans>) -> Report {
    let mut report = Report::default();
    let (setup_s, (jobs, reference, shard, batch)) = timed_setup(
        || {
            let jobs = trace_jobs(seed);
            let model = paper_model(&jobs);
            let shard = Shard::boot(&model, &jobs[W2V_CORPUS].script);
            let batch = training_window(&jobs, first_cut(&jobs)).expect("training window");
            (jobs, model, shard, batch)
        },
        |(_, _, shard, _)| shard.shutdown(),
    );
    let held = &jobs[W2V_CORPUS..];
    let horizon = Duration::from_secs_f64(seconds) + GIVE_UP;
    let schedule = burst_schedule(seed, BURST_RATE, MIN_BURST, MAX_BURST, horizon);
    // Request i belongs to burst owner[i]; one held-out job per burst.
    let owner: Vec<usize> = schedule
        .iter()
        .enumerate()
        .flat_map(|(b, burst)| std::iter::repeat_n(b, burst.size))
        .collect();

    let run = drive(
        &shard,
        held,
        &schedule,
        &owner,
        batch,
        seconds,
        spans,
        &mut report,
    );
    let final_epoch = shard.gateway.epoch();
    let Some((sent, replies, t_retrain, t_swapped, t_fresh)) = run else {
        shard.shutdown();
        return report;
    };

    // Output checks: one finite prediction per script, and the expected
    // epoch — 0 or the new one, and the new one for every request written
    // after all replicas had swapped.
    let mut latencies = Vec::new();
    // Per burst: replies that passed, and the slowest of them.
    let mut per_burst = vec![(0usize, 0.0f64); schedule.len()];
    let mut in_limit = 0u64;
    report.attempted = sent.sent_us.len() as u64;
    let mut answered = 0;
    for r in &replies {
        answered += 1;
        let sent_at = sent
            .sent_us
            .get(r.id as usize)
            .map(|&us| Duration::from_micros(us));
        let bad = match (&r.error, r.epoch) {
            _ if sent_at.is_none() => Some("reply to a request never sent".to_string()),
            (Some(e), _) => Some(e.clone()),
            (None, Some(e)) if e != 0 && e != final_epoch => Some(format!("epoch {e}")),
            (None, Some(e)) if sent_at > Some(t_swapped) && e != final_epoch => {
                Some(format!("stale epoch {e} after every replica swapped"))
            }
            _ => None,
        };
        match bad {
            Some(e) => {
                report.failed += 1;
                report.problem(format!("request {}: {e}", r.id));
            }
            None => {
                latencies.push(r.latency_ms);
                let b = &mut per_burst[owner[r.id as usize]];
                b.0 += 1;
                b.1 = b.1.max(r.latency_ms);
                if r.latency_ms <= LATENCY_LIMIT_MS {
                    in_limit += 1;
                }
            }
        }
    }
    let unanswered = report.attempted - answered;
    if unanswered > 0 {
        report.failed += unanswered;
        report.problem(format!("{unanswered} requests never answered"));
    }
    if final_epoch == 0 {
        report.problem("the retrain never published a new epoch");
    }

    // Open-loop validity: the backlog left when a burst is due must not
    // grow from the retrain's start to the end of the load by more than
    // one burst. A growing backlog means the rate sits above capacity
    // and the latencies describe the queue, not the system.
    let at_retrain = sent
        .backlog
        .iter()
        .find(|(at, _)| *at >= t_retrain)
        .map_or(0, |b| b.1);
    let at_end = sent.backlog.last().map_or(0, |b| b.1);
    report.note("requests", report.attempted);
    report.note("backlog_at_retrain", at_retrain);
    report.note("backlog_at_end", at_end);
    report.note("new_epoch", final_epoch);
    let valid = at_end <= at_retrain + MAX_BURST;
    report.note("valid", valid);
    if !valid {
        report.problem(format!(
            "open loop invalid: backlog grew from {at_retrain} to {at_end}; latencies not reported"
        ));
    }

    match spans {
        None if !valid => {}
        None => {
            report.metric("p50_ms", median(&latencies), "ms");
            // The requests of one burst share their fate, so the tail is
            // taken over whole bursts (due time to last reply): p90 has
            // ten or more bursts beyond it, a request-level p99 would rest
            // on one or two. Like fleet-closed's p99 it is printed, not
            // reported: its spread across runs exceeds any allowed bound.
            let completed: Vec<f64> = schedule
                .iter()
                .zip(&per_burst)
                .filter(|(burst, done)| done.0 == burst.size)
                .map(|(_, done)| done.1)
                .collect();
            if let Some(p90) = tail_quantile(&completed, 0.9) {
                report.note("burst_p90_ms", p90);
            }
            report.metric(
                "ok_frac",
                in_limit as f64 / report.attempted.max(1) as f64,
                "ratio",
            );
            report.metric("fresh_s", (t_fresh - t_retrain).as_secs_f64(), "s");
            report.metric("setup_s", setup_s, "s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Some(_) => {
            let t = &shard.telemetry;
            layers::report_serve(&mut report, t, &[shard.gateway.as_ref()]);
            report.metric(
                "serve.retrain_s",
                t.histogram("serve_retrain_seconds", "").mean(),
                "s",
            );
            let late = tail_quantile(&sent.late_ms, 0.99)
                .unwrap_or_else(|| sent.late_ms.iter().copied().fold(0.0, f64::max));
            report.metric("loadgen.late_p99_ms", late, "ms");
            report.metric(
                "loadgen.outstanding_max",
                sent.outstanding_max as f64,
                "count",
            );
            let scripts: Vec<&str> = held[..16].iter().map(|j| j.script.as_str()).collect();
            let overhead = layers::tracing_overhead(&reference, &scripts, 20);
            report.metric("trace.overhead_frac", overhead, "ratio");
        }
    }
    shard.shutdown();
    report
}

type Outcome = (Sent, Vec<Reply>, Duration, Duration, Duration);

/// Drive the open loop and the retrain; `None` (with a problem recorded)
/// when the new epoch never reached every replica.
#[allow(clippy::too_many_arguments)]
fn drive(
    shard: &Shard,
    held: &[JobRecord],
    schedule: &[Burst],
    owner: &[usize],
    batch: TrainingBatch,
    seconds: f64,
    spans: Option<&Spans>,
    report: &mut Report,
) -> Option<Outcome> {
    let sent_count = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_fresh_us = AtomicU64::new(u64::MAX);
    let replicas = GatewayConfig::default().replicas;
    let start = Instant::now();
    let mut writer_stream = BufWriter::new(shard.stream.try_clone().expect("clone stream"));
    let mut reader_stream = BufReader::new(shard.stream.try_clone().expect("clone stream"));

    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut sent = Sent {
                sent_us: Vec::new(),
                backlog: Vec::new(),
                outstanding_max: 0,
                late_ms: Vec::new(),
            };
            let mut id = 0usize;
            for (b, burst) in schedule.iter().enumerate() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(wait) = burst.at.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let outstanding =
                    sent_count.load(Ordering::SeqCst) - received.load(Ordering::SeqCst);
                sent.backlog.push((burst.at, outstanding));
                let payload = proto::encode_predict(
                    Priority::Normal,
                    0,
                    &[held[b % held.len()].script.clone()],
                );
                let _g = spans.map(|s| s.open("loadgen.burst", 0));
                for _ in 0..burst.size {
                    debug_assert_eq!(owner[id], b);
                    let now = start.elapsed();
                    sent.late_ms
                        .push((now.saturating_sub(burst.at)).as_secs_f64() * 1e3);
                    sent.sent_us.push(now.as_micros() as u64);
                    wire::write_frame(&mut writer_stream, proto::KIND_PREDICT, id as u64, &payload)
                        .expect("write request");
                    sent_count.fetch_add(1, Ordering::SeqCst);
                    id += 1;
                }
                writer_stream.flush().expect("flush burst");
                let outstanding =
                    sent_count.load(Ordering::SeqCst) - received.load(Ordering::SeqCst);
                sent.outstanding_max = sent.outstanding_max.max(outstanding);
            }
            sent
        });
        let reader = s.spawn(|| {
            let mut replies = Vec::new();
            while let Ok(Some(f)) = wire::read_frame(&mut reader_stream, wire::MAX_FRAME_PAYLOAD) {
                let now = start.elapsed();
                // A reply to an id never sent means the framing is lost;
                // the requests left unanswered then fail the run.
                let Some(&b) = owner.get(f.id as usize) else {
                    break;
                };
                let due = schedule[b].at;
                let latency_ms = now.saturating_sub(due).as_secs_f64() * 1e3;
                let mut reply = Reply {
                    id: f.id,
                    epoch: None,
                    latency_ms,
                    error: None,
                };
                match f.kind {
                    proto::KIND_PREDICTIONS => match proto::decode_predictions(&f.payload) {
                        Ok((epoch, p)) if p.len() == 1 => {
                            reply.epoch = Some(epoch);
                            reply.error = check_prediction(&p[0]).err();
                            if epoch > 0 {
                                first_fresh_us.fetch_min(now.as_micros() as u64, Ordering::SeqCst);
                            }
                        }
                        Ok((_, p)) => {
                            reply.error = Some(format!("{} predictions for one script", p.len()))
                        }
                        Err(e) => reply.error = Some(e.to_string()),
                    },
                    proto::KIND_ERROR => {
                        reply.error = Some(match proto::decode_error(&f.payload) {
                            Ok((code, msg)) => format!("{}: {msg}", code.label()),
                            Err(e) => e.to_string(),
                        })
                    }
                    k => reply.error = Some(format!("unexpected frame kind {k}")),
                }
                replies.push(reply);
                received.fetch_add(1, Ordering::SeqCst);
            }
            replies
        });

        std::thread::sleep(RETRAIN_AT);
        let t_retrain = start.elapsed();
        shard.gateway.retrain_async(batch);
        let mut t_swapped = None;
        let outcome = loop {
            std::thread::sleep(Duration::from_millis(5));
            let now = start.elapsed();
            if t_swapped.is_none()
                && shard.gateway.stats().swaps_applied.load(Ordering::SeqCst) >= replicas
            {
                t_swapped = Some(now);
            }
            let fresh = first_fresh_us.load(Ordering::SeqCst);
            if let (Some(swapped), true) = (t_swapped, fresh != u64::MAX) {
                if now.as_secs_f64() >= seconds && now >= swapped + TAIL {
                    break Some((t_retrain, swapped, Duration::from_micros(fresh)));
                }
            }
            if now > t_retrain + GIVE_UP {
                break None;
            }
        };
        stop.store(true, Ordering::SeqCst);
        let sent = writer.join().expect("writer thread panicked");
        let drained = Instant::now();
        while received.load(Ordering::SeqCst) < sent_count.load(Ordering::SeqCst)
            && drained.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = shard.stream.shutdown(Shutdown::Both);
        let replies = reader.join().expect("reader thread panicked");
        match outcome {
            Some((t_retrain, swapped, fresh)) => Some((sent, replies, t_retrain, swapped, fresh)),
            None => {
                report.failed += 1;
                report.problem("the new epoch did not reach every replica in time");
                None
            }
        }
    })
}
