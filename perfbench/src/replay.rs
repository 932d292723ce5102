//! The outside-in layer replay.
//!
//! A recorded closed-loop run (`HilConfig::with_trace(true)`) yields the
//! per-cycle sample sequence: time, speed, sector, ISP configuration,
//! ROI and true offset. The replay re-drives that sequence through the
//! public entry point of every frame-path layer — render, sensor, fault
//! injection, ISP, situation identification, perception, controller
//! redesign and step, vehicle physics — timing each call as a span under
//! a per-cycle `cycle` span. The replay closes its own loop (its
//! controller steers its own vehicle), while the knobs and timing of
//! every cycle come from the recording.
//!
//! The loop redesigns through the process-wide design cache, which the
//! timed phase has already filled, so each distinct design point the
//! replay meets is also designed once uncached (`control.design`,
//! outside the `cycle` spans). Each recorded run is also run once
//! without trace recording, which gives the program's tracing overhead.

use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{SpanStats, Tracer};
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource, ORACLE_PREVIEW_M};
use lkas::identify::{BundleBatch, SituationEstimate};
use lkas::knobs::KnobTuning;
use lkas_control::controller::{Controller, Measurement};
use lkas_control::design::{design_controller, design_controller_cached, ControllerConfig};
use lkas_control::model::kmph_to_mps;
use lkas_faults::{apply_bayer_fault, ActuationFault};
use lkas_imaging::image::{RawImage, RgbImage};
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::Sensor;
use lkas_imaging::Scratch;
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_platform::profiles::{
    isp_runtime_ms, CLASSIFIER_RUNTIME_MS, CONTROL_RUNTIME_MS, PERCEPTION_RUNTIME_MS,
};
use lkas_scene::render::SceneRenderer;
use lkas_scene::track::Track;
use lkas_vehicle::sim::{VehicleSim, VehicleState};
use lkas_vehicle::PHYSICS_STEP_S;
use std::time::Instant;

/// One closed-loop run to record and replay.
pub struct Source {
    pub track: Track,
    pub config: HilConfig,
}

/// A recorded run: its result (with the per-cycle trace), the wall
/// time of the closed loop that produced it, and the wall time of the
/// same closed loop without trace recording.
pub struct Recorded {
    pub source: Source,
    pub result: HilResult,
    pub wall_s: f64,
    pub untraced_s: f64,
    /// Set when the untraced run's outputs differ from the recorded one's.
    pub mismatch: Option<String>,
}

/// The outputs trace recording must leave unchanged.
fn outputs(r: &HilResult) -> (u64, bool, u64, u64, u64, Option<u64>) {
    let mae = r.overall_mae().map(f64::to_bits);
    (r.samples, r.crashed, r.time_s.to_bits(), r.reconfigurations, r.perception_failures, mae)
}

/// Runs a source's closed loop without trace recording (a
/// `hil.run.untraced` span), then with it (a `hil.run` span).
pub fn record(tracer: &mut Tracer, source: Source) -> Recorded {
    let plain = HilSimulator::new(source.track.clone(), source.config.clone());
    let start = Instant::now();
    let untraced = tracer.span("hil.run.untraced", None, || plain.run());
    let untraced_s = start.elapsed().as_secs_f64();
    let sim = HilSimulator::new(source.track.clone(), source.config.clone().with_trace(true));
    let start = Instant::now();
    let result = tracer.span("hil.run", None, || sim.run());
    let wall_s = start.elapsed().as_secs_f64();
    let mismatch = (outputs(&untraced) != outputs(&result))
        .then(|| "trace recording changed a closed-loop run's outputs".to_string());
    Recorded { source, result, wall_s, untraced_s, mismatch }
}

/// Replay accumulators across every replayed pass of a workload.
#[derive(Default)]
pub struct Replay {
    tracer: Tracer,
    /// ISP call durations (µs), indexed like [`IspConfig::ALL`].
    isp_by_config: Vec<Samples>,
    invocations: u64,
    windows: u64,
    correct_windows: u64,
    perception_calls: u64,
    perception_failures: u64,
    /// Design points already designed uncached.
    designed: Vec<ControllerConfig>,
    cycles: u64,
    closed_loop_s: f64,
    untraced_s: f64,
    /// The first `cycle` span of every pass: it sizes the reusable
    /// buffers, so its heap operations are left out.
    warmup_cycles: Vec<usize>,
    errors: Vec<String>,
}

/// The `cycle` span's children, in call order.
const LAYERS: [&str; 9] = [
    "scene.render",
    "sensor.capture",
    "faults.bayer",
    "isp.process",
    "classifier.window",
    "control.redesign",
    "perception.process",
    "control.step",
    "vehicle.step",
];

/// Layers whose median and p99 are declared metrics.
const WITH_P99: [&str; 6] = [
    "scene.render",
    "sensor.capture",
    "isp.process",
    "classifier.window",
    "perception.process",
    "cycle",
];
/// Layers whose median alone is a declared metric.
const P50_ONLY: [&str; 2] = ["control.step", "vehicle.step"];

impl Replay {
    pub fn new() -> Self {
        Replay {
            tracer: Tracer::with_capacity(1 << 16),
            isp_by_config: vec![Samples::new(); IspConfig::ALL.len()],
            ..Replay::default()
        }
    }

    /// Replays every recorded cycle of `rec` once.
    pub fn pass(&mut self, rec: &Recorded) {
        if let Some(e) = &rec.mismatch {
            if !self.errors.contains(e) {
                self.errors.push(e.clone());
            }
        }
        let cfg = &rec.source.config;
        let trace = &rec.result.trace;
        let Some(first) = trace.first() else {
            self.errors.push("recorded run has no cycles".to_string());
            return;
        };
        let camera = cfg.camera.clone();
        let renderer = SceneRenderer::new(camera.clone());
        let mut sensor = Sensor::new(cfg.sensor.clone(), cfg.seed);
        let mut isp = IspPipeline::new(first.isp).with_backend(cfg.kernel_backend);
        let mut scratch = Scratch::with_threads(cfg.tile_threads.max(1));
        let new_perception = |roi| {
            Perception::new(PerceptionConfig::new(roi), camera.clone())
                .with_backend(cfg.kernel_backend)
        };
        let mut perception = new_perception(first.roi);
        let mut perception_scratch = PerceptionScratch::new();
        let scheme = cfg.scheme_override.clone().unwrap_or_else(|| cfg.case.invocation_scheme());
        let delay_set = cfg.case.delay_classifier_set();
        let mut estimate =
            cfg.initial_estimate.map(SituationEstimate::with_initial).unwrap_or_default();
        let bundle = match &cfg.source {
            SituationSource::Trained(bundle) => Some(bundle.as_ref()),
            SituationSource::Oracle => None,
        };
        let mut batch = bundle.map(BundleBatch::new);
        let mut vehicle =
            VehicleSim::new(rec.source.track.clone(), VehicleState::centered(first.vx * 3.6));
        let plan = cfg.fault_plan.clone();
        let mut controller: Option<(ControllerConfig, Controller)> = None;
        let mut scene_rgb = RgbImage::new(1, 1);
        let mut raw = RawImage::new(2, 2);
        let mut rgb = RgbImage::new(1, 1);
        let mut last_h_ms = 25.0;
        let t = &mut self.tracer;

        for (k, sample) in trace.iter().enumerate() {
            let frame = k as u64;
            let next = trace.get(k + 1);
            let h_ms = next.map_or(last_h_ms, |n| n.t_ms - sample.t_ms);
            last_h_ms = h_ms;
            let cycle = t.open("cycle");
            if k == 0 {
                self.warmup_cycles.push(cycle);
            }

            let faults = plan.as_ref().map(|p| p.faults_at(frame)).unwrap_or_default();
            if plan.is_some() {
                vehicle.set_actuator_fault(faults.actuation.map(ActuationFault::to_actuator));
            }
            if isp.config() != sample.isp {
                isp.set_config(sample.isp);
            }
            if perception.config().roi != sample.roi {
                perception = new_perception(sample.roi);
            }

            let mut have_frame = !faults.drop_frame;
            if have_frame {
                let (s, d, psi) = vehicle.camera_pose();
                let rendered = t.span("scene.render", Some(cycle), || {
                    renderer.render_into(vehicle.track(), s, d, psi, &mut scene_rgb)
                });
                if rendered.is_ok() {
                    t.span("sensor.capture", Some(cycle), || {
                        sensor.capture_into(&scene_rgb, 1.0, &mut raw)
                    });
                    if let (Some(kind), Some(plan)) = (faults.bayer, &plan) {
                        t.span("faults.bayer", Some(cycle), || {
                            apply_bayer_fault(kind, &mut raw, plan.seed, frame)
                        });
                    }
                    t.span("isp.process", Some(cycle), || {
                        isp.process_into(&raw, &mut scratch, &mut rgb)
                    });
                    let us = t.spans.last().map_or(0.0, |s| s.dur_ns as f64 / 1e3);
                    let i = IspConfig::ALL.iter().position(|&c| c == sample.isp);
                    self.isp_by_config[i.expect("every config is in ALL")].push(us);
                } else {
                    have_frame = false;
                }
            }

            let invoked =
                scheme.classifiers_for_frame_faulted(frame, h_ms, faults.drop_frame, false);
            let truth = vehicle.preview_situation(ORACLE_PREVIEW_M);
            if invoked.count() > 0 && (bundle.is_none() || have_frame) {
                t.span("classifier.window", Some(cycle), || match (bundle, batch.as_mut()) {
                    (Some(bundle), Some(batch)) => {
                        estimate.update_from_frame_with(bundle, batch, &rgb, &camera, invoked)
                    }
                    _ => estimate.update_from_truth(&truth, invoked),
                });
                self.invocations += invoked.count() as u64;
                self.windows += 1;
                self.correct_windows += u64::from(estimate.current() == truth);
            }

            let design_speed = if vehicle.state().vx > kmph_to_mps(40.0) { 50.0 } else { 30.0 };
            let design = ControllerConfig {
                speed_kmph: design_speed,
                ..KnobTuning::new(sample.isp, sample.roi, design_speed).controller_config(delay_set)
            };
            if controller.as_ref().is_none_or(|(c, _)| *c != design) {
                if !self.designed.contains(&design) {
                    self.designed.push(design);
                    // Not a child of `cycle`: the loop itself redesigns
                    // through the cache below.
                    let uncached = t.span("control.design", None, || design_controller(&design));
                    if let Err(e) = uncached {
                        self.errors.push(format!("design failed for {design:?}: {e:?}"));
                        return;
                    }
                }
                let redesign =
                    t.span("control.redesign", Some(cycle), || design_controller_cached(&design));
                match redesign {
                    Ok((mut next_controller, _)) => {
                        if let Some((_, previous)) = &controller {
                            next_controller.adopt_state(previous);
                        }
                        controller = Some((design, next_controller));
                    }
                    Err(e) => {
                        self.errors.push(format!("design failed for {design:?}: {e:?}"));
                        return;
                    }
                }
            }

            let y_l = if have_frame {
                let out = t.span("perception.process", Some(cycle), || {
                    perception.process_into(&rgb, &mut perception_scratch)
                });
                self.perception_calls += 1;
                self.perception_failures += u64::from(out.is_err());
                out.ok().map(|o| o.y_l)
            } else {
                None
            };
            let (_, active) = controller.as_mut().expect("designed above");
            let yaw_rate = vehicle.state().r;
            let u =
                t.span("control.step", Some(cycle), || active.step(&Measurement { y_l, yaw_rate }));
            vehicle.set_target_speed_kmph(next.map_or(sample.vx, |n| n.vx) * 3.6);
            let steps = (h_ms / (PHYSICS_STEP_S * 1000.0)).round().max(1.0) as usize;
            for _ in 0..steps {
                t.span("vehicle.step", Some(cycle), || vehicle.step(u));
            }
            t.close(cycle);
        }
        self.cycles += trace.len() as u64;
        self.closed_loop_s += rec.wall_s;
        self.untraced_s += rec.untraced_s;
    }

    /// Prints every replay figure and records the declared per-layer
    /// metrics.
    pub fn report(&self, report: &mut Report) {
        for e in &self.errors {
            report.fail(format!("replay: {e}"));
        }
        let spans = &self.tracer.spans;
        let warmup = |i: usize| {
            let cycle = if spans[i].name == "cycle" { Some(i) } else { spans[i].parent };
            cycle.is_some_and(|c| self.warmup_cycles.contains(&c))
        };
        let by_name = self.tracer.by_name(|i| !warmup(i));
        let empty = SpanStats::default();
        let get = |name: &str| by_name.get(name).unwrap_or(&empty);
        println!("-- frame-path replay: {} cycles --", self.cycles);

        for name in LAYERS.iter().copied().chain(["cycle"]) {
            let stats = get(name);
            let mut us = stats.us.clone();
            let n = us.len();
            let detail = format!("n={n}");
            let with_p99 = WITH_P99.contains(&name);
            if let Some(p50) = us.median() {
                let key = format!("{name}_us.p50");
                if with_p99 || P50_ONLY.contains(&name) {
                    report.metric(&key, p50, "us", &detail);
                } else {
                    report.line(&key, p50, "us", &detail);
                }
            }
            match (us.tail(0.99), us.tail(0.9)) {
                (Some(p99), _) if with_p99 => {
                    report.metric(&format!("{name}_us.p99"), p99, "us", &detail)
                }
                (Some(p99), _) => report.line(&format!("{name}_us.p99"), p99, "us", &detail),
                (None, Some(p90)) => report.line(&format!("{name}_us.p90"), p90, "us", &detail),
                (None, None) => {}
            }
            if let Some(per_call) = stats.heap_ops_per_call() {
                let key = format!("{name}.heap_ops_per_call");
                let detail = format!("calls={} after warm-up", stats.heap_calls);
                if name == "faults.bayer" || name == "control.redesign" {
                    report.line(&key, per_call, "count", &detail);
                } else {
                    report.metric(&key, per_call, "count", &detail);
                }
            }
        }

        let mut design = get("control.design").us.clone();
        if let Some(p50) = design.median() {
            let detail = format!("n={}: uncached, each distinct design point once", design.len());
            report.metric("control.design_us.p50", p50, "us", &detail);
        }
        report.metric(
            "classifier.invocations",
            self.invocations as f64,
            "count",
            &format!("windows={}", self.windows),
        );
        if self.windows > 0 {
            report.metric(
                "classifier.accuracy",
                self.correct_windows as f64 / self.windows as f64,
                "ratio",
                "estimate equals the previewed ground truth after the window",
            );
        }
        if self.perception_calls > 0 {
            report.metric(
                "perception.fail_ratio",
                self.perception_failures as f64 / self.perception_calls as f64,
                "ratio",
                &format!("failures={} calls={}", self.perception_failures, self.perception_calls),
            );
        }
        let layer_s: f64 = LAYERS.iter().map(|n| get(n).us.sum()).sum::<f64>() / 1e6;
        if self.closed_loop_s > 0.0 {
            report.metric(
                "hil.replay_coverage",
                layer_s / self.closed_loop_s,
                "ratio",
                &format!(
                    "replayed layer time {layer_s:.3} s / closed loop {:.3} s",
                    self.closed_loop_s
                ),
            );
        }
        if self.untraced_s > 0.0 {
            report.metric(
                "hil.trace_overhead",
                self.closed_loop_s / self.untraced_s,
                "ratio",
                &format!(
                    "closed loop with trace recording {:.3} s / without {:.3} s",
                    self.closed_loop_s, self.untraced_s
                ),
            );
        }

        // Host-measured against the platform model (Table II runtimes).
        println!("-- modeled (lkas-platform, Xavier) over host-measured --");
        let mut isp_host_ms = 0.0;
        let mut isp_model_ms = 0.0;
        for (&config, us) in IspConfig::ALL.iter().zip(&self.isp_by_config) {
            let mut us = us.clone();
            let (n, model_ms) = (us.len(), isp_runtime_ms(config));
            isp_host_ms += us.sum() / 1e3;
            isp_model_ms += n as f64 * model_ms;
            if let Some(p50) = us.median() {
                let name = config.name();
                report.line(&format!("isp.{name}_us.p50"), p50, "us", &format!("n={n}"));
                report.line(
                    &format!("platform.isp.{name}.modeled_over_host"),
                    model_ms / (p50 / 1e3),
                    "ratio",
                    &format!("modeled {model_ms} ms"),
                );
            }
        }
        if isp_host_ms > 0.0 {
            report.metric(
                "platform.isp.modeled_over_host",
                isp_model_ms / isp_host_ms,
                "ratio",
                "Σ modeled / Σ host over the replayed configuration mix",
            );
        }
        let ratio = |name: &str, model_ms: f64| {
            let mut us = get(name).us.clone();
            us.median().map(|p50| model_ms / (p50 / 1e3))
        };
        if let Some(r) = ratio("perception.process", PERCEPTION_RUNTIME_MS) {
            report.metric(
                "platform.perception.modeled_over_host",
                r,
                "ratio",
                &format!("modeled {PERCEPTION_RUNTIME_MS} ms"),
            );
        }
        if self.windows > 0 {
            let per_window = self.invocations as f64 / self.windows as f64;
            if let Some(r) = ratio("classifier.window", CLASSIFIER_RUNTIME_MS * per_window) {
                report.metric(
                    "platform.classifier.modeled_over_host",
                    r,
                    "ratio",
                    &format!("modeled {CLASSIFIER_RUNTIME_MS} ms × {per_window:.2} per window"),
                );
            }
        }
        if let Some(r) = ratio("control.step", CONTROL_RUNTIME_MS) {
            report.metric(
                "platform.control.modeled_over_host",
                r,
                "ratio",
                &format!("modeled {CONTROL_RUNTIME_MS} ms"),
            );
        }
    }
}
