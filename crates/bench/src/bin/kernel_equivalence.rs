//! Kernel-equivalence gate: Scalar vs Lanes vs Lanes-Q14, end to end.
//!
//! The CI stage `gate-kernel-equivalence` runs this binary; it exits
//! non-zero on the first class of mismatch. Five claims are checked
//! (DESIGN.md §17):
//!
//! 1. **Exact kernels are bit-identical.** For every ISP configuration
//!    S0–S8 the `lanes` backend's full `process_into` output equals the
//!    scalar path byte for byte, on multiple frames/seeds.
//! 2. **Fixed-point kernels stay in their declared band.** The
//!    `lanes-q14` backend's output stays within `Q14_TOLERANCE` of the
//!    scalar path per channel — the documented epsilon of the Q2.14
//!    demosaic/denoise kernels, not a fitted constant.
//! 3. **Perception lanes are bit-identical.** Rectify + binarize under
//!    the lane backend reproduce the scalar BEV scores, mask bits, and
//!    threshold exactly, for every ROI.
//! 4. **Batched classifier inference ≡ sequential.** On a fixed-seed
//!    window set, stacking the three classifiers into one grouped GEMM
//!    per layer yields the same logits-level decisions as three
//!    independent forward passes.
//! 5. **The banded frame path ≡ the full frame.** Rendering, capturing
//!    and developing only an Oracle HiL run's [`FrameBand`] reproduces
//!    the full-frame chain on every row perception reads, for every ISP
//!    configuration and backend at both camera resolutions: identical
//!    band rows, identical perception outputs for every ROI, and an
//!    identical next full capture (the sensor's noise state).
//!
//! Flags: `--frames N` (frames per cell, default 3).

use lkas::hil::FrameBand;
use lkas::identify::{BundleBatch, ClassifierBundle, SituationEstimate};
use lkas::{Case, HilConfig, SituationSource};
use lkas_bench::{arg_value, load_or_train_bundle};
use lkas_imaging::image::RawImage;
use lkas_imaging::image::RgbImage;
use lkas_imaging::isp::{IspConfig, IspPipeline};
use lkas_imaging::sensor::{Sensor, SensorConfig};
use lkas_imaging::{KernelBackend, Scratch};
use lkas_perception::pipeline::{Perception, PerceptionConfig, PerceptionScratch};
use lkas_perception::roi::Roi;
use lkas_platform::schedule::ClassifierSet;
use lkas_scene::camera::Camera;
use lkas_scene::render::SceneRenderer;
use lkas_scene::situation::TABLE3_SITUATIONS;
use lkas_scene::track::Track;

/// Declared end-to-end per-channel tolerance of the Q2.14 fixed-point
/// backend, in 8-bit output quantization units. The kernel-level band
/// is 2^-10 per stage (rounded Q2.14 shifts; asserted by the imaging
/// crate's `q14_*_stays_in_band` tests and proptests); end to end that
/// error passes through the tone map, whose gamma slope amplifies small
/// shadow values by up to ~8× across the usable range, and then lands
/// in 1/255 output bins — so a pre-quantize error of ~2^-7 can move the
/// output by a few bins. 8 LSBs is the declared band: an order of
/// magnitude above the observed worst case (3 LSBs, S1), two below what
/// an actual kernel bug produces.
const Q14_TOLERANCE: f32 = 8.0 / 255.0;

fn max_abs_diff(a: &RgbImage, b: &RgbImage) -> f32 {
    a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max)
}

/// `true` if rows `rows` (of `row_len` values each) carry the same bits.
fn rows_match(a: &[f32], b: &[f32], row_len: usize, rows: &std::ops::Range<usize>) -> bool {
    let span = rows.start * row_len..rows.end * row_len;
    a[span.clone()].iter().zip(&b[span]).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Claim 5: the banded frame path against the full-frame chain, on
/// `frames` poses per camera. Returns the number of mismatches.
fn check_banded(frames: usize) -> usize {
    let mut failures = 0;
    let track = Track::fig7_track();
    let half_res = Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians());
    for cam in [half_res, Camera::default_automotive()] {
        let (w, h) = (cam.width(), cam.height());
        let config = HilConfig::new(Case::Case4, SituationSource::Oracle).with_camera(cam.clone());
        let band = FrameBand::for_run(&config);
        let renderer = SceneRenderer::new(cam.clone());
        for f in 0..frames {
            let (s, d, psi) = (40.0 + 137.0 * f as f64, 0.1 - 0.07 * f as f64, 0.01);
            let mut full_scene = RgbImage::new(2, 2);
            let mut banded_scene = RgbImage::new(2, 2);
            renderer.render_into(&track, s, d, psi, &mut full_scene).expect("valid camera");
            renderer
                .render_rows_into(&track, s, d, psi, band.capture.clone(), &mut banded_scene)
                .expect("valid camera");
            let mut full_sensor = Sensor::new(SensorConfig::default(), 500 + f as u64);
            let mut banded_sensor = full_sensor.clone();
            let mut full_raw = RawImage::new(2, 2);
            let mut banded_raw = RawImage::new(2, 2);
            full_sensor.capture_into(&full_scene, 1.0, &mut full_raw);
            banded_sensor.capture_rows_into(
                &banded_scene,
                1.0,
                band.capture.clone(),
                &mut banded_raw,
            );
            let what = format!("{w}x{h} frame {f}");
            if !rows_match(full_raw.as_slice(), banded_raw.as_slice(), w, &band.capture) {
                eprintln!("FAIL: {what}: banded render/capture differs inside the band");
                failures += 1;
            }
            if full_sensor.capture(&full_scene, 1.0) != banded_sensor.capture(&full_scene, 1.0) {
                eprintln!("FAIL: {what}: banded capture left a different sensor state");
                failures += 1;
            }
            for backend in KernelBackend::ALL {
                for cfg in IspConfig::ALL {
                    let isp = IspPipeline::new(cfg).with_backend(backend);
                    let mut full = RgbImage::new(2, 2);
                    let mut banded = RgbImage::new(2, 2);
                    isp.process_into(&full_raw, &mut Scratch::new(), &mut full);
                    let rows = band.isp.clone();
                    isp.process_rows_into(&banded_raw, rows, &mut Scratch::new(), &mut banded);
                    if !rows_match(full.as_slice(), banded.as_slice(), w * 3, &band.isp) {
                        eprintln!("FAIL: {what} {cfg} {backend}: banded ISP rows differ");
                        failures += 1;
                    }
                    for roi in Roi::ALL {
                        let pr = Perception::new(PerceptionConfig::new(roi), cam.clone())
                            .with_backend(backend);
                        let mut scratch = PerceptionScratch::new();
                        if pr.process_into(&full, &mut scratch)
                            != pr.process_into(&banded, &mut scratch)
                        {
                            eprintln!("FAIL: {what} {cfg} {backend} {roi}: perception differs");
                            failures += 1;
                        }
                    }
                }
            }
        }
    }
    failures
}

fn main() {
    let frames: usize = arg_value("--frames").and_then(|v| v.parse().ok()).unwrap_or(3);
    let cam = Camera::default_automotive();
    let mut failures = 0usize;

    // --- 1 & 2: ISP backends, S0–S8 × frames ---------------------------
    let mut worst_q14 = 0.0f32;
    for cfg in IspConfig::ALL {
        for f in 0..frames {
            let sit = &TABLE3_SITUATIONS[f % TABLE3_SITUATIONS.len()];
            let track = Track::for_situation(sit, 500.0);
            let frame =
                SceneRenderer::new(cam.clone()).render(&track, 30.0 + 40.0 * f as f64, 0.0, 0.0);
            let raw = Sensor::new(SensorConfig::default(), 100 + f as u64).capture(&frame, 1.0);

            let mut outs: Vec<RgbImage> = Vec::new();
            for backend in KernelBackend::ALL {
                let isp = IspPipeline::new(cfg).with_backend(backend);
                let mut scratch = Scratch::new();
                let mut out = RgbImage::new(2, 2);
                isp.process_into(&raw, &mut scratch, &mut out);
                outs.push(out);
            }
            let [scalar, lanes, q14] = <[RgbImage; 3]>::try_from(outs).unwrap();
            if scalar.as_slice() != lanes.as_slice() {
                eprintln!(
                    "FAIL: {} frame {f}: lanes differs from scalar (max |Δ| = {})",
                    cfg.name(),
                    max_abs_diff(&scalar, &lanes)
                );
                failures += 1;
            }
            let q14_diff = max_abs_diff(&scalar, &q14);
            worst_q14 = worst_q14.max(q14_diff);
            if q14_diff > Q14_TOLERANCE {
                eprintln!(
                    "FAIL: {} frame {f}: lanes-q14 off by {q14_diff} > {Q14_TOLERANCE}",
                    cfg.name()
                );
                failures += 1;
            }
        }
    }
    eprintln!(
        "[1/4] ISP: {} configs × {frames} frames checked (worst q14 |Δ| = {:.1} LSB)",
        IspConfig::ALL.len(),
        worst_q14 * 255.0
    );

    // --- 3: perception backends, every ROI -----------------------------
    let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
    let frame = SceneRenderer::new(cam.clone()).render(&track, 25.0, 0.05, 0.0);
    let raw = Sensor::new(SensorConfig::default(), 9).capture(&frame, 1.0);
    let rgb = IspPipeline::new(IspConfig::S0).process(&raw);
    for roi in Roi::ALL {
        let scalar_pr = Perception::new(PerceptionConfig::new(roi), cam.clone())
            .with_backend(KernelBackend::Scalar);
        let lanes_pr = Perception::new(PerceptionConfig::new(roi), cam.clone())
            .with_backend(KernelBackend::lanes());
        let mut s_scratch = PerceptionScratch::new();
        let mut l_scratch = PerceptionScratch::new();
        // Two passes: the second exercises the warmed tap cache.
        for pass in 0..2 {
            let s = scalar_pr.process_into(&rgb, &mut s_scratch);
            let l = lanes_pr.process_into(&rgb, &mut l_scratch);
            if s != l {
                eprintln!("FAIL: {} pass {pass}: lane perception output differs", roi.name());
                failures += 1;
            }
        }
    }
    eprintln!("[2/4] perception: {} ROIs × 2 passes checked", Roi::ALL.len());

    // --- 4: batched vs sequential classifiers --------------------------
    let bundle: &ClassifierBundle = &load_or_train_bundle();
    let mut batch = BundleBatch::new(bundle);
    let isp = IspPipeline::new(IspConfig::S0);
    let mut windows = 0usize;
    for (i, sit) in TABLE3_SITUATIONS.iter().enumerate() {
        let track = Track::for_situation(sit, 500.0);
        for seed in 0..2u64 {
            let frame = SceneRenderer::new(cam.clone()).render(
                &track,
                20.0 + 15.0 * seed as f64,
                0.02,
                0.0,
            );
            let raw =
                Sensor::new(SensorConfig::default(), 31 * i as u64 + seed).capture(&frame, 1.0);
            let rgb = isp.process(&raw);
            let mut seq = SituationEstimate::new();
            seq.update_from_frame(bundle, &rgb, &cam, ClassifierSet::all());
            let mut batched = SituationEstimate::new();
            batched.update_from_frame_with(bundle, &mut batch, &rgb, &cam, ClassifierSet::all());
            if seq.current() != batched.current() {
                eprintln!(
                    "FAIL: situation {i} seed {seed}: batched {:?} vs sequential {:?}",
                    batched.current(),
                    seq.current()
                );
                failures += 1;
            }
            windows += 1;
        }
    }
    eprintln!("[3/4] classifiers: {windows} full windows checked");

    failures += check_banded(frames);
    eprintln!(
        "[4/4] banded frame path: {} configs × {} backends × 2 cameras × {frames} frames checked",
        IspConfig::ALL.len(),
        KernelBackend::ALL.len()
    );

    if failures > 0 {
        eprintln!("kernel_equivalence: {failures} FAILURE(S)");
        std::process::exit(1);
    }
    eprintln!("kernel_equivalence: all backends equivalent");
}
