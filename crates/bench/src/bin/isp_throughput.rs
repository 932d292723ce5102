//! Frame-path throughput: allocating vs pooled, scalar vs lane kernels.
//!
//! Measures the steady-state cost of each ISP configuration (S0–S8)
//! along two axes — the memory path (one-shot allocating `process`,
//! pooled in-place `process_into`, row-tiled `process_into` on worker
//! threads) and the kernel backend (`scalar` reference, bit-exact
//! `lanes`, fixed-point `lanes-q14`) — plus the perception pipeline
//! (rectify + binarize) per backend. This is the harness behind the
//! README "Steady-state frame path" table and DESIGN.md §10/§17.
//!
//! Flags: `--iters N` (timed iterations per cell, default 40),
//! `--threads N` (tiled-path worker count, default 4), `--help`.
//! Unknown flags and malformed values exit 2 before anything runs or is
//! written.
//!
//! Subcommand: `isp_throughput check --baseline PATH [--max-rel X]`
//! re-measures and fails (exit 1) if any pooled-lanes ISP mean or the
//! pooled perception mean exceeds `X` times its baseline value
//! (default 4.0 — a deliberately generous bound in the gate-telemetry
//! philosophy: the gate exists to catch order-of-magnitude perf
//! regressions, not scheduler noise on a busy CI box).

use lkas_bench::{render_table, write_result};
use lkas_imaging::image::RgbImage;
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct ConfigRow {
    config: String,
    alloc_us: f64,
    scalar_us: f64,
    lanes_us: f64,
    lanes_q14_us: f64,
    tiled_us: f64,
    lanes_speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct PerceptionRow {
    backend: String,
    pooled_us: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    schema: String,
    iters: usize,
    tile_threads: usize,
    isp: Vec<ConfigRow>,
    perception: Vec<PerceptionRow>,
}

/// Mean microseconds per call of `f` over `iters` timed iterations
/// (after 3 warm-up calls that also size any pooled buffers).
fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn measure(iters: usize, tile_threads: usize) -> Report {
    let cam = Camera::default_automotive();
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let frame = SceneRenderer::new(cam.clone()).render(&track, 50.0, 0.0, 0.0);
    let raw = Sensor::new(SensorConfig::default(), 1).capture(&frame, 1.0);

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for cfg in IspConfig::ALL {
        let alloc_us = time_us(iters, || {
            std::hint::black_box(IspPipeline::new(cfg).process(&raw));
        });
        let mut backend_us = [0.0f64; 3];
        for (i, backend) in KernelBackend::ALL.into_iter().enumerate() {
            let isp = IspPipeline::new(cfg).with_backend(backend);
            let mut scratch = Scratch::new();
            let mut out = RgbImage::new(2, 2);
            backend_us[i] = time_us(iters, || {
                isp.process_into(&raw, &mut scratch, &mut out);
                std::hint::black_box(&out);
            });
        }
        let [scalar_us, lanes_us, lanes_q14_us] = backend_us;
        let isp = IspPipeline::new(cfg);
        let mut tiled_scratch = Scratch::with_threads(tile_threads);
        let mut out = RgbImage::new(2, 2);
        let tiled_us = time_us(iters, || {
            isp.process_into(&raw, &mut tiled_scratch, &mut out);
            std::hint::black_box(&out);
        });
        let row = ConfigRow {
            config: cfg.name().to_string(),
            alloc_us,
            scalar_us,
            lanes_us,
            lanes_q14_us,
            tiled_us,
            lanes_speedup: scalar_us / lanes_us,
        };
        table.push(vec![
            row.config.clone(),
            format!("{alloc_us:.0}"),
            format!("{scalar_us:.0}"),
            format!("{lanes_us:.0}"),
            format!("{lanes_q14_us:.0}"),
            format!("{tiled_us:.0}"),
            format!("{:.2}x", row.lanes_speedup),
        ]);
        rows.push(row);
    }

    let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
    let mut perception = Vec::new();
    for backend in KernelBackend::ALL {
        let pr =
            Perception::new(PerceptionConfig::new(Roi::Roi1), cam.clone()).with_backend(backend);
        let mut pscratch = PerceptionScratch::new();
        let pooled_us = time_us(iters, || {
            std::hint::black_box(pr.process_into(&rgb, &mut pscratch).ok());
        });
        perception.push(PerceptionRow { backend: backend.name().to_string(), pooled_us });
    }

    println!(
        "{}",
        render_table(
            &["config", "alloc µs", "scalar µs", "lanes µs", "q14 µs", "tiled µs", "lanes"],
            &table,
        )
    );
    for p in &perception {
        println!("perception[{}]: pooled {:.0} µs", p.backend, p.pooled_us);
    }

    Report {
        schema: "lkas-isp-throughput-v2".to_string(),
        iters,
        tile_threads,
        isp: rows,
        perception,
    }
}

/// `check` subcommand: compare a fresh measurement against a recorded
/// baseline, allowing each tracked mean to grow by at most `max_rel`×.
fn check(report: &Report, baseline_path: &str, max_rel: f64) -> i32 {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline: Report =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad baseline JSON: {e}"));
    let mut failures = 0;
    for base in &baseline.isp {
        let Some(cur) = report.isp.iter().find(|r| r.config == base.config) else {
            eprintln!("[check] FAIL: config {} missing from fresh report", base.config);
            failures += 1;
            continue;
        };
        let bound = base.lanes_us * max_rel;
        if cur.lanes_us > bound {
            eprintln!(
                "[check] FAIL: {} lanes {:.0} µs > {:.0} µs ({}× baseline {:.0} µs)",
                base.config, cur.lanes_us, bound, max_rel, base.lanes_us
            );
            failures += 1;
        } else {
            eprintln!("[check] ok: {} lanes {:.0} µs ≤ {:.0} µs", base.config, cur.lanes_us, bound);
        }
    }
    for base in &baseline.perception {
        let Some(cur) = report.perception.iter().find(|r| r.backend == base.backend) else {
            eprintln!("[check] FAIL: perception backend {} missing", base.backend);
            failures += 1;
            continue;
        };
        let bound = base.pooled_us * max_rel;
        if cur.pooled_us > bound {
            eprintln!(
                "[check] FAIL: perception[{}] {:.0} µs > {:.0} µs",
                base.backend, cur.pooled_us, bound
            );
            failures += 1;
        } else {
            eprintln!(
                "[check] ok: perception[{}] {:.0} µs ≤ {:.0} µs",
                base.backend, cur.pooled_us, bound
            );
        }
    }
    if failures > 0 {
        eprintln!("[check] {failures} bound violation(s) against {baseline_path}");
        1
    } else {
        eprintln!("[check] all means within {max_rel}× of {baseline_path}");
        0
    }
}

const USAGE: &str = "\
Usage: isp_throughput [--iters N] [--threads N]
       isp_throughput check --baseline PATH [--max-rel X] [--iters N] [--threads N]

Measures the ISP configurations S0-S8 per memory path and kernel backend,
plus the perception pipeline per backend, and writes
results/isp_throughput.json. `check` re-measures and exits 1 if a pooled
lanes mean exceeds X times (default 4) its value in the baseline; it
writes nothing.

Options:
  --iters N      timed iterations per cell (default 40)
  --threads N    tiled-path worker count (default 4)
  --baseline P   baseline report to check against (check only)
  --max-rel X    allowed growth factor over the baseline (check only)
  -h, --help     print this help and exit";

/// The parsed command line.
struct Args {
    iters: usize,
    tile_threads: usize,
    /// `Some((baseline, max_rel))` in `check` mode.
    check: Option<(String, f64)>,
}

/// Parses the command line: `Ok(None)` for `--help`, `Err` for anything
/// unknown or malformed.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let check_mode = args.first().is_some_and(|a| a == "check");
    let mut parsed = Args { iters: 40, tile_threads: 4, check: None };
    let (mut baseline, mut max_rel) = (None, 4.0);
    let mut rest = args.iter().skip(usize::from(check_mode));
    while let Some(flag) = rest.next() {
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        let mut value = || rest.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: &String| format!("bad {flag} value `{text}`");
        match flag.as_str() {
            "--iters" => {
                let text = value()?;
                parsed.iters = text.parse().ok().filter(|&n| n > 0).ok_or_else(|| number(text))?;
            }
            "--threads" => {
                let text = value()?;
                parsed.tile_threads =
                    text.parse().ok().filter(|&n| n > 0).ok_or_else(|| number(text))?;
            }
            "--baseline" if check_mode => baseline = Some(value()?.clone()),
            "--max-rel" if check_mode => {
                let text = value()?;
                max_rel =
                    text.parse().ok().filter(|x: &f64| *x > 0.0).ok_or_else(|| number(text))?;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if check_mode {
        let baseline = baseline.ok_or("check requires --baseline PATH")?;
        parsed.check = Some((baseline, max_rel));
    }
    Ok(Some(parsed))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (iters, tile_threads) = (args.iters, args.tile_threads);

    eprintln!("[isp_throughput] {iters} iters/cell, tiled path on {tile_threads} threads");
    let report = measure(iters, tile_threads);

    if let Some((baseline, max_rel)) = args.check {
        std::process::exit(check(&report, &baseline, max_rel));
    }
    write_result("isp_throughput", &report);
}
