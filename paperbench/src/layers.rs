//! Per-layer probes for the traced run. Each one calls a layer's public
//! API from outside, under a span of the benchmark's own span log; the
//! per-layer metrics are the median span durations.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use prionn_core::{Prionn, PrionnConfig, ResourcePrediction};
use prionn_fleet::proto;
use prionn_nn::layer::{Conv2d, Dense, Flatten, MaxPool2d, ReLU};
use prionn_nn::{build_cnn2d, Adam, ArchConfig, Layer};
use prionn_observe::{FlightConfig, FlightRecorder, Tracer};
use prionn_serve::{Gateway, Priority};
use prionn_store::wire;
use prionn_telemetry::Telemetry;
use prionn_tensor::{Scratch, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::common::Report;
use crate::spans::Spans;
use crate::stats::{median, Rng};

/// How far `text.map` plus the `nn.fwd_*` layers of all three heads may
/// be from `core.predict` at the same batch size, as a share of
/// `core.predict`, before the reconciliation line reads OUTSIDE. A
/// completeness check, not a speed gate: it never fails a run.
const RECONCILE_TOLERANCE: f64 = 0.25;

/// Median duration (ms) of the spans named `name`.
pub fn span_median(d: &BTreeMap<String, Vec<f64>>, name: &str) -> f64 {
    d.get(name).map_or(f64::NAN, |v| median(v))
}

/// Report `metric` (unit ms) as the median of the spans named `span`.
pub fn report_span(report: &mut Report, d: &BTreeMap<String, Vec<f64>>, span: &str, metric: &str) {
    report.metric(metric, span_median(d, span), "ms");
}

/// One head's layers, built with `build_cnn2d`'s shapes for the paper
/// config, plus the last dense layer at the IO heads' width.
struct HeadLayers {
    stages: Vec<(Conv2d, ReLU, MaxPool2d)>,
    flatten: Flatten,
    dense: Vec<(Dense, Option<ReLU>)>,
    dense4_io: Dense,
    scratch: Scratch,
}

impl HeadLayers {
    fn paper() -> Self {
        let cfg = PrionnConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(0x1a7e);
        let w = cfg.base_width;
        let (mut h, mut wd) = cfg.grid;
        let chans = [cfg.w2v.dim, w, 2 * w, 2 * w, 4 * w];
        let mut stages = Vec::new();
        for s in 0..4 {
            let conv = Conv2d::new(chans[s], chans[s + 1], h, wd, 3, 1, 1, &mut rng)
                .expect("paper-shape conv");
            stages.push((conv, ReLU::new(), MaxPool2d::new(2).expect("2x2 pool")));
            h /= 2;
            wd /= 2;
        }
        let widths = [4 * w * h * wd, 32 * w, 16 * w, 16 * w, cfg.runtime_bins];
        let dense = (0..4)
            .map(|i| {
                let relu = (i < 3).then(ReLU::new);
                (Dense::new(widths[i], widths[i + 1], &mut rng), relu)
            })
            .collect();
        HeadLayers {
            stages,
            flatten: Flatten::new(),
            dense,
            dense4_io: Dense::new(16 * w, cfg.io_bins, &mut rng),
            scratch: Scratch::new(),
        }
    }

    /// One forward pass under a span named `{set}`, each unit under a
    /// child span named `{set}.{unit}`.
    fn forward(&mut self, x: &Tensor, train: bool, set: &str, spans: &Spans) {
        let pass = spans.open(set, 0);
        let sc = &mut self.scratch;
        let mut cur = x.clone();
        for (k, (conv, relu, pool)) in self.stages.iter_mut().enumerate() {
            let s = k + 1;
            let y = {
                let _g = spans.open(format!("{set}.s{s}_conv"), pass.id());
                conv.forward(&cur, train, sc).expect("conv forward")
            };
            let z = {
                let _g = spans.open(format!("{set}.s{s}_relu_pool"), pass.id());
                let r = relu.forward(&y, train, sc).expect("relu forward");
                let p = pool.forward(&r, train, sc).expect("pool forward");
                sc.recycle_tensor(r);
                p
            };
            sc.recycle_tensor(y);
            sc.recycle_tensor(std::mem::replace(&mut cur, z));
        }
        for (i, (dense, relu)) in self.dense.iter_mut().enumerate() {
            let _g = spans.open(format!("{set}.dense{}", i + 1), pass.id());
            let input = if i == 0 {
                self.flatten.forward(&cur, train, sc).expect("flatten")
            } else {
                cur.clone()
            };
            let mut y = dense.forward(&input, train, sc).expect("dense forward");
            if let Some(relu) = relu {
                let r = relu.forward(&y, train, sc).expect("relu forward");
                sc.recycle_tensor(std::mem::replace(&mut y, r));
            }
            if i == 3 {
                drop(_g);
                let _g = spans.open(format!("{set}.dense4_io"), pass.id());
                let io = self.dense4_io.forward(&input, train, sc).expect("io dense");
                sc.recycle_tensor(io);
            }
            sc.recycle_tensor(std::mem::replace(&mut cur, y));
        }
        sc.recycle_tensor(cur);
    }

    /// One backward pass after a training forward, unit by unit in
    /// reverse, spanned like [`HeadLayers::forward`].
    fn backward(&mut self, batch: usize, set: &str, spans: &Spans, rng: &mut Rng) {
        let pass = spans.open(set, 0);
        let sc = &mut self.scratch;
        let grad = |n: usize, rng: &mut Rng| {
            let v = (0..batch * n)
                .map(|_| (rng.next_f64() as f32 - 0.5) * 1e-2)
                .collect();
            Tensor::from_vec([batch, n], v).expect("gradient tensor")
        };
        {
            let g = grad(PrionnConfig::default().io_bins, rng);
            let _g = spans.open(format!("{set}.dense4_io"), pass.id());
            let dx = self.dense4_io.backward(&g, sc).expect("io dense backward");
            sc.recycle_tensor(dx);
        }
        let mut cur = grad(PrionnConfig::default().runtime_bins, rng);
        for (i, (dense, relu)) in self.dense.iter_mut().enumerate().rev() {
            let _g = spans.open(format!("{set}.dense{}", i + 1), pass.id());
            if let Some(relu) = relu {
                let r = relu.backward(&cur, sc).expect("relu backward");
                sc.recycle_tensor(std::mem::replace(&mut cur, r));
            }
            let mut dx = dense.backward(&cur, sc).expect("dense backward");
            if i == 0 {
                let f = self.flatten.backward(&dx, sc).expect("flatten backward");
                sc.recycle_tensor(std::mem::replace(&mut dx, f));
            }
            sc.recycle_tensor(std::mem::replace(&mut cur, dx));
        }
        for (k, (conv, relu, pool)) in self.stages.iter_mut().enumerate().rev() {
            let s = k + 1;
            {
                let _g = spans.open(format!("{set}.s{s}_relu_pool"), pass.id());
                let p = pool.backward(&cur, sc).expect("pool backward");
                let r = relu.backward(&p, sc).expect("relu backward");
                sc.recycle_tensor(p);
                sc.recycle_tensor(std::mem::replace(&mut cur, r));
            }
            let _g = spans.open(format!("{set}.s{s}_conv"), pass.id());
            let dx = conv.backward(&cur, sc).expect("conv backward");
            sc.recycle_tensor(std::mem::replace(&mut cur, dx));
        }
        sc.recycle_tensor(cur);
    }
}

/// Names of one head's timed units, in forward order.
fn head_units() -> Vec<String> {
    let mut u = Vec::new();
    for s in 1..=4 {
        u.push(format!("s{s}_conv"));
        u.push(format!("s{s}_relu_pool"));
    }
    for d in 1..=4 {
        u.push(format!("dense{d}"));
    }
    u.push("dense4_io".to_string());
    u
}

fn report_units(set: &str, d: &BTreeMap<String, Vec<f64>>, report: &mut Report) {
    for unit in head_units() {
        let name = format!("{set}.{unit}");
        report_span(report, d, &name, &format!("{name}_ms"));
    }
}

/// Every model-level probe, shared by the traced runs of both gated
/// workloads: the GEMM gauges `telemetry` collected during the run's
/// retrain, `text.map` at batch 500 over the training `window`, one
/// head's layers at batch 32 forward and backward, the Adam step, the
/// serving forward at batch 1 and 16 over `held` scripts, the weights
/// checkpoint, and the program's tracing overhead at batch 1.
pub fn probe_model(
    model: &Prionn,
    telemetry: &Telemetry,
    window: &[&str],
    held: &[&str],
    spans: &Spans,
    report: &mut Report,
) {
    let g = |name| telemetry.gauge(name, "").value();
    report.metric("tensor.gemm_gflops", g("prionn_gemm_gflops"), "GFLOP/s");
    report.metric("tensor.pack_share", g("prionn_gemm_pack_share"), "ratio");
    // A replica without per-layer telemetry, so the serving probes time
    // what a serving replica runs.
    let mut plain = model.fork_replica().expect("fork replica");
    for _ in 0..3 {
        let _g = spans.open("text.map.b500", 0);
        std::hint::black_box(plain.map_scripts(window).expect("map scripts"));
    }
    report_span(report, &spans.durations_ms(), "text.map.b500", "text.map_ms.b500");
    let x32 = plain.map_scripts(&window[..32]).expect("map scripts");
    probe_training(&x32, 8, spans, report);
    probe_adam(&x32, 10, spans, report);
    probe_serving(&mut plain, &held[..1], 60, spans, report);
    probe_serving(&mut plain, &held[..16], 20, spans, report);
    probe_store(&plain, 10, spans, report);
    let overhead = tracing_overhead(&plain, &held[..1], 60);
    report.metric("trace.overhead_frac", overhead, "ratio");
}

/// Time every layer of one head at batch 32 (`x32` holds 32 mapped
/// scripts): the training-mode forward as `nn.fwd_b32` and the backward
/// as `nn.bwd_b32`.
pub fn probe_training(x32: &Tensor, reps: usize, spans: &Spans, report: &mut Report) {
    let b = x32.dims()[0];
    let mut head = HeadLayers::paper();
    let mut rng = Rng::new(b as u64);
    let (fwd, bwd) = (format!("nn.fwd_b{b}"), format!("nn.bwd_b{b}"));
    let warm = Spans::new();
    for i in 0..reps + 2 {
        let log = if i < 2 { &warm } else { spans };
        head.forward(x32, true, &fwd, log);
        head.backward(b, &bwd, log, &mut rng);
    }
    let d = spans.durations_ms();
    report_units(&fwd, &d, report);
    report_units(&bwd, &d, report);
}

/// Time `Sequential::step` with Adam on the runtime head at batch 32.
pub fn probe_adam(x32: &Tensor, reps: usize, spans: &Spans, report: &mut Report) {
    let cfg = PrionnConfig::default();
    let mut model = build_cnn2d(&ArchConfig {
        emb_dim: cfg.w2v.dim,
        grid_h: cfg.grid.0,
        grid_w: cfg.grid.1,
        classes: cfg.runtime_bins,
        base_width: cfg.base_width,
        batch_norm: cfg.batch_norm,
        seed: 0xada,
    })
    .expect("paper-shape head");
    let out = model.forward(x32, true).expect("forward");
    let g = Tensor::from_vec(out.dims().to_vec(), vec![1e-3; out.as_slice().len()])
        .expect("gradient tensor");
    model.backward(&g).expect("backward");
    let mut opt = Adam::new(cfg.lr);
    model.step(&mut opt);
    for _ in 0..reps {
        let _g = spans.open("nn.adam_step", 0);
        model.step(&mut opt);
    }
    report_span(
        report,
        &spans.durations_ms(),
        "nn.adam_step",
        "nn.adam_step_ms",
    );
}

/// Time the serving forward at the batch size of `scripts`:
/// `Prionn::map_scripts`, `Prionn::predict` (all three heads) and one
/// head's layers in eval mode as `nn.fwd_b{b}`, interleaved so all three
/// see the same host state; then print the reconciliation.
pub fn probe_serving(
    model: &mut Prionn,
    scripts: &[&str],
    reps: usize,
    spans: &Spans,
    report: &mut Report,
) {
    let b = scripts.len();
    let (map, predict, fwd) = (
        format!("text.map.b{b}"),
        format!("core.predict.b{b}"),
        format!("nn.fwd_b{b}"),
    );
    let x = model.map_scripts(scripts).expect("map scripts");
    let mut head = HeadLayers::paper();
    let warm = Spans::new();
    for i in 0..reps + 2 {
        let log = if i < 2 { &warm } else { spans };
        {
            let _g = log.open(map.as_str(), 0);
            std::hint::black_box(model.map_scripts(scripts).expect("map scripts"));
        }
        {
            let _g = log.open(predict.as_str(), 0);
            std::hint::black_box(model.predict(scripts).expect("predict"));
        }
        head.forward(&x, false, &fwd, log);
    }
    let d = spans.durations_ms();
    report_span(report, &d, &map, &format!("text.map_ms.b{b}"));
    report_span(report, &d, &predict, &format!("core.predict_ms.b{b}"));
    report_units(&fwd, &d, report);
    reconcile(b, &d);
}

/// Check that map plus every head's layers account for `core.predict` at
/// batch `b`, and print the unexplained remainder.
fn reconcile(b: usize, d: &BTreeMap<String, Vec<f64>>) {
    let m = |n: &str| span_median(d, n);
    let set = format!("nn.fwd_b{b}");
    let shared: f64 = head_units()
        .iter()
        .filter(|u| !u.starts_with("dense4"))
        .map(|u| m(&format!("{set}.{u}")))
        .sum();
    let map = m(&format!("text.map.b{b}"));
    let heads = 3.0 * shared + m(&format!("{set}.dense4")) + 2.0 * m(&format!("{set}.dense4_io"));
    let predict = m(&format!("core.predict.b{b}"));
    let rest = predict - map - heads;
    let frac = rest / predict;
    let verdict = if frac.abs() <= RECONCILE_TOLERANCE {
        "within"
    } else {
        "OUTSIDE"
    };
    println!(
        "reconcile b{b}: core.predict {predict:.3} ms = text.map {map:.3} + 3 heads {heads:.3} \
         + unexplained {rest:.3} ms ({:.1}%, {verdict} ±{:.0}%)",
        frac * 100.0,
        RECONCILE_TOLERANCE * 100.0
    );
}

/// Report the gateways' queue wait, fused batch size and sheds from their
/// telemetry registry and stats.
pub fn report_serve(report: &mut Report, t: &Telemetry, gateways: &[&Gateway]) {
    let wait = t.histogram("serve_queue_wait_seconds", "");
    report.metric("serve.queue_wait_ms.p50", wait.quantile(0.5) * 1e3, "ms");
    report.metric("serve.queue_wait_ms.p99", wait.quantile(0.99) * 1e3, "ms");
    let batch = t.histogram("serve_batch_scripts", "").mean();
    report.metric("serve.batch_mean", batch, "count");
    let shed: usize = gateways
        .iter()
        .map(|g| {
            let st = g.stats();
            st.requests_shed_overload.load(Ordering::SeqCst)
                + st.requests_shed_deadline.load(Ordering::SeqCst)
                + st.requests_shed_preburst.load(Ordering::SeqCst)
        })
        .sum();
    report.metric("serve.shed", shed as f64, "count");
}

/// Time a weights-only checkpoint encode and its hot-swap apply.
pub fn probe_store(model: &Prionn, reps: usize, spans: &Spans, report: &mut Report) {
    let mut replica = model.fork_replica().expect("fork replica");
    let mut bytes = 0;
    for _ in 0..reps {
        let ck = {
            let _g = spans.open("store.ckpt_encode", 0);
            model.weights_checkpoint().expect("weights checkpoint")
        };
        {
            let _g = spans.open("store.ckpt_apply", 0);
            replica
                .apply_weights_checkpoint(&ck)
                .expect("apply checkpoint");
        }
        bytes = ck.to_bytes().len();
    }
    let d = spans.durations_ms();
    report_span(report, &d, "store.ckpt_encode", "store.ckpt_encode_ms");
    report_span(report, &d, "store.ckpt_apply", "store.ckpt_apply_ms");
    report.metric("store.ckpt_bytes", bytes as f64, "bytes");
}

/// Time one predict round trip through the fleet's frame codec: request
/// encode/frame/unframe/decode, then the same for a one-prediction reply.
pub fn probe_codec(script: &str, spans: &Spans, report: &mut Report) {
    const PER_SPAN: usize = 200;
    let scripts = [script.to_string()];
    let pred = ResourcePrediction {
        runtime_minutes: 42.0,
        read_bytes: 1e9,
        write_bytes: 2e8,
    };
    for chunk in 0..25 {
        let _g = spans.open("fleet.codec_x200", 0);
        for id in 0..PER_SPAN as u64 {
            let req = wire::encode_frame(
                proto::KIND_PREDICT,
                id,
                &proto::encode_predict(Priority::Normal, 0, &scripts),
            );
            let f = wire::read_frame(&mut &req[..], wire::MAX_FRAME_PAYLOAD)
                .expect("request frame")
                .expect("one frame");
            let (_, _, got) = proto::decode_predict(&f.payload).expect("decode request");
            let rep = wire::encode_frame(
                proto::KIND_PREDICTIONS,
                f.id,
                &proto::encode_predictions(chunk, &[pred]),
            );
            let f = wire::read_frame(&mut &rep[..], wire::MAX_FRAME_PAYLOAD)
                .expect("reply frame")
                .expect("one frame");
            let (_, preds) = proto::decode_predictions(&f.payload).expect("decode reply");
            assert!(
                got.len() == 1 && preds == [pred],
                "codec round trip changed the data"
            );
        }
    }
    let us = span_median(&spans.durations_ms(), "fleet.codec_x200") * 1e3 / PER_SPAN as f64;
    report.metric("fleet.codec_us", us, "us");
}

/// The program's own tracing cost on `Prionn::predict` at the batch size
/// of `scripts`: per-layer telemetry attached and a span context active,
/// against a plain replica, interleaved. Returns traced/plain − 1.
pub fn tracing_overhead(model: &Prionn, scripts: &[&str], reps: usize) -> f64 {
    let mut plain = model.fork_replica().expect("fork replica");
    let mut traced = model.fork_replica().expect("fork replica");
    traced.set_telemetry(&Telemetry::new());
    let recorder = FlightRecorder::new(FlightConfig::default());
    let tracer = Tracer::new(&recorder);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..reps + 2 {
        let t = std::time::Instant::now();
        plain.predict(scripts).expect("predict");
        let plain_s = t.elapsed().as_secs_f64();
        let t = std::time::Instant::now();
        {
            let root = tracer.root("bench.predict");
            let _ctx = prionn_observe::trace::push_current(&tracer, root.ctx());
            traced.predict(scripts).expect("predict");
        }
        let traced_s = t.elapsed().as_secs_f64();
        if i >= 2 {
            a.push(plain_s);
            b.push(traced_s);
        }
    }
    median(&b) / median(&a) - 1.0
}
