//! Camera sensor model: spectral crosstalk, noise, Bayer sampling.
//!
//! The scene renderer in `lkas-scene` produces *scene-referred* linear RGB
//! irradiance. This module turns that irradiance into the RAW Bayer frame
//! an automotive sensor would deliver:
//!
//! 1. scale by the illumination level (exposure is held fixed, as in the
//!    paper's HiL setup where the ISP must cope with night scenes),
//! 2. mix channels through the sensor's spectral-crosstalk matrix (the
//!    inverse of which is the ISP's *color map* CCM),
//! 3. add photon shot noise (variance ∝ signal) and read noise
//!    (constant variance),
//! 4. sample the RGGB mosaic.

use crate::image::{RawImage, RgbImage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Spectral crosstalk matrix of the modeled sensor (rows: sensor R/G/B
/// response; columns: scene R/G/B). Deliberately leaky so that the ISP's
/// color-map stage (which applies the inverse) visibly matters for
/// color contrast — exactly the behaviour the paper exploits for yellow
/// lanes (Table III rows with S3/S4 keep CM; S7/S8 drop it).
pub const CROSSTALK: [[f32; 3]; 3] = [[0.66, 0.26, 0.08], [0.22, 0.62, 0.16], [0.10, 0.30, 0.60]];

/// Configuration of the sensor model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Standard deviation of the signal-independent read noise, in
    /// full-well-normalized units.
    pub read_noise: f32,
    /// Photon-shot-noise coefficient: noise variance contribution is
    /// `shot_noise² · signal`.
    pub shot_noise: f32,
    /// Fixed analog gain applied after exposure (models the camera's
    /// fixed operating point in the HiL setup).
    pub gain: f32,
}

impl Default for SensorConfig {
    fn default() -> Self {
        // Tuned so that daytime SNR is high (~40 dB) while `dark`
        // (illumination 0.15) scenes drop to a regime where denoise and
        // tone map visibly change detection quality.
        SensorConfig { read_noise: 0.012, shot_noise: 0.02, gain: 1.0 }
    }
}

/// A deterministic (seeded) camera sensor.
///
/// The noise stream is index-addressable: the sensor owns the splitmix64
/// counter that the workspace's seeded `StdRng` is, so the draws of any
/// photosite are a pure function of the counter and the photosite's
/// index, and skipping rows is one counter advance. A banded capture
/// ([`Sensor::capture_rows_into`]) therefore leaves the sensor in the
/// same state as a full one.
///
/// # Example
///
/// ```
/// use lkas_imaging::image::RgbImage;
/// use lkas_imaging::sensor::{Sensor, SensorConfig};
///
/// let scene = RgbImage::filled(8, 8, [0.5, 0.5, 0.5]);
/// let mut sensor = Sensor::new(SensorConfig::default(), 7);
/// let raw = sensor.capture(&scene, 1.0);
/// assert_eq!((raw.width(), raw.height()), (8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Sensor {
    config: SensorConfig,
    /// splitmix64 counter: advanced by [`SPLITMIX_GAMMA`] per draw.
    state: u64,
}

/// Increment of the splitmix64 counter per draw.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Uniform draws per photosite (the two Box–Muller inputs).
const DRAWS_PER_PHOTOSITE: u64 = 2;

impl Sensor {
    /// Creates a sensor with the given configuration and RNG seed.
    pub fn new(config: SensorConfig, seed: u64) -> Self {
        Sensor { config, state: seed }
    }

    /// Borrow the sensor configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// Captures a scene-referred linear RGB frame into a RAW Bayer frame
    /// under the given `illumination` scale (1.0 = full daylight).
    ///
    /// Convenience wrapper over [`Sensor::capture_into`] that allocates a
    /// fresh RAW frame per call.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions are odd (Bayer frames need even
    /// dimensions).
    pub fn capture(&mut self, scene: &RgbImage, illumination: f32) -> RawImage {
        let mut raw = RawImage::new(scene.width(), scene.height());
        self.capture_into(scene, illumination, &mut raw);
        raw
    }

    /// Captures a scene-referred linear RGB frame into a caller-owned RAW
    /// Bayer frame (resized as needed) — the allocation-free capture
    /// path; RNG consumption is identical to [`Sensor::capture`].
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions are odd (Bayer frames need even
    /// dimensions).
    pub fn capture_into(&mut self, scene: &RgbImage, illumination: f32, raw: &mut RawImage) {
        self.capture_rows_into(scene, illumination, 0..scene.height(), raw);
    }

    /// Captures only the rows in `rows` (clipped to the frame) into a
    /// caller-owned RAW frame resized to the full scene. The captured
    /// photosites are bit-identical to [`Sensor::capture_into`]'s and
    /// only the corresponding `scene` rows are read; every other RAW row
    /// is unspecified. The noise counter advances past the skipped rows,
    /// so the sensor's state afterwards — and every later capture — is
    /// exactly as after a full capture.
    ///
    /// # Panics
    ///
    /// Panics if the scene dimensions are odd (Bayer frames need even
    /// dimensions).
    pub fn capture_rows_into(
        &mut self,
        scene: &RgbImage,
        illumination: f32,
        rows: Range<usize>,
        raw: &mut RawImage,
    ) {
        let (w, h) = (scene.width(), scene.height());
        raw.reshape(w, h);
        let first = rows.start.min(h);
        let draws_per_row = DRAWS_PER_PHOTOSITE * w as u64;
        let start = self.state;
        let advance = |n_rows: usize| SPLITMIX_GAMMA.wrapping_mul(draws_per_row * n_rows as u64);
        let g = self.config.gain;
        let read_var = self.config.read_noise.powi(2);
        let shot_var = self.config.shot_noise.powi(2);
        let src = scene.as_slice();
        let dst = raw.as_mut_slice();
        self.state = start.wrapping_add(advance(first));
        for y in first..rows.end.min(h) {
            // RGGB: even rows alternate Red/GreenR, odd rows GreenB/Blue.
            let phase = if y % 2 == 0 {
                [CROSSTALK[0], CROSSTALK[1]]
            } else {
                [CROSSTALK[1], CROSSTALK[2]]
            };
            let scene_row = &src[y * w * 3..(y + 1) * w * 3];
            let raw_row = &mut dst[y * w..(y + 1) * w];
            for (x, (out, px)) in raw_row.iter_mut().zip(scene_row.chunks_exact(3)).enumerate() {
                // Illumination scaling happens in the scene-referred
                // domain (light level), then sensor crosstalk.
                let lit = [px[0] * illumination, px[1] * illumination, px[2] * illumination];
                let row = phase[x % 2];
                let signal = (row[0] * lit[0] + row[1] * lit[1] + row[2] * lit[2]) * g;
                let var = read_var + shot_var * signal.max(0.0);
                let noise = self.sample_gaussian() * var.sqrt();
                *out = (signal + noise).clamp(0.0, 1.0);
            }
        }
        self.state = start.wrapping_add(advance(h));
    }

    /// The next raw 64 bits of the noise stream (splitmix64 — the same
    /// stream as the workspace's seeded `StdRng`).
    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform f32 in `[0, 1)` from the top 24 bits of a draw.
    #[inline(always)]
    fn next_unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Standard normal sample via Box–Muller (keeps the crate free of a
    /// distributions dependency). The two uniforms are drawn exactly as
    /// `gen_range(f32::EPSILON..1.0)` and `gen_range(0.0..1.0)` draw them.
    #[inline(always)]
    fn sample_gaussian(&mut self) -> f32 {
        let u1 = f32::EPSILON + self.next_unit() * (1.0 - f32::EPSILON);
        let u2 = 0.0 + self.next_unit() * (1.0 - 0.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

// ---------------------------------------------------------------------
// RAW-domain fault primitives
//
// Deterministic Bayer-frame corruptions applied *between* sensor capture
// and the ISP — the hardware failure modes (defective photosites, readout
// interference, auto-exposure glitches) that the `lkas-faults` campaign
// injects. They live here because they are operations on `RawImage`,
// mirroring the real corruption point in the imaging chain.
// ---------------------------------------------------------------------

/// Saturates a deterministic pseudo-random subset of photosites to
/// full-well ("hot" pixels). `density` is the expected fraction of
/// affected photosites; the affected set is a pure function of `seed`.
pub fn inject_hot_pixels(raw: &mut RawImage, density: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for v in raw.as_mut_slice() {
        if rng.gen_range(0.0f32..1.0) < density {
            *v = 1.0;
        }
    }
}

/// Scales every `period`-th row (offset by `phase`) by `gain` — the
/// horizontal banding of readout interference. `period == 0` is a no-op.
pub fn inject_row_banding(raw: &mut RawImage, period: usize, gain: f32, phase: usize) {
    if period == 0 {
        return;
    }
    let (w, h) = (raw.width(), raw.height());
    for y in 0..h {
        if (y + phase) % period == 0 {
            for x in 0..w {
                let v = raw.get(x, y);
                raw.set(x, y, (v * gain).clamp(0.0, 1.0));
            }
        }
    }
}

/// Scales the whole frame by `gain`, clamping into the sensor's unit
/// range — an auto-exposure glitch. Gains above 1 clip highlights,
/// gains below 1 crush the frame toward the noise floor.
pub fn inject_exposure_glitch(raw: &mut RawImage, gain: f32) {
    for v in raw.as_mut_slice() {
        *v = (*v * gain).clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_scene(v: f32) -> RgbImage {
        RgbImage::filled(64, 64, [v, v, v])
    }

    #[test]
    fn capture_preserves_dimensions() {
        let mut s = Sensor::new(SensorConfig::default(), 1);
        let raw = s.capture(&flat_scene(0.5), 1.0);
        assert_eq!((raw.width(), raw.height()), (64, 64));
    }

    #[test]
    fn deterministic_given_seed() {
        let scene = flat_scene(0.3);
        let a = Sensor::new(SensorConfig::default(), 99).capture(&scene, 1.0);
        let b = Sensor::new(SensorConfig::default(), 99).capture(&scene, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn capture_into_matches_capture() {
        // Same seed, same scene: the out-param path must consume the RNG
        // identically and produce a bit-identical frame, even when the
        // destination buffer arrives with stale contents and the wrong
        // dimensions.
        let scene = flat_scene(0.3);
        let fresh = Sensor::new(SensorConfig::default(), 99).capture(&scene, 1.0);
        let mut reused = RawImage::new(8, 8);
        Sensor::new(SensorConfig::default(), 99).capture_into(&scene, 1.0, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn noise_stream_is_the_vendored_std_rng() {
        // The sensor's own counter must replay `StdRng`'s stream draw
        // for draw: the same Box–Muller inputs, the same bits.
        let mut sensor = Sensor::new(SensorConfig::default(), 0xDEAD_BEEF);
        let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
        for i in 0..20_000 {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let want = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            assert_eq!(sensor.sample_gaussian().to_bits(), want.to_bits(), "draw pair {i}");
        }
    }

    #[test]
    fn banded_capture_matches_full_rows_and_leaves_the_same_state() {
        let mut scene = RgbImage::new(24, 16);
        for (i, v) in scene.as_mut_slice().iter_mut().enumerate() {
            *v = (i % 97) as f32 / 97.0;
        }
        let mut full_sensor = Sensor::new(SensorConfig::default(), 41);
        let full = full_sensor.capture(&scene, 0.7);
        let next_full = full_sensor.capture(&scene, 0.7);
        for rows in [0..16, 5..11, 0..1, 15..16, 8..8, 12..40] {
            let mut sensor = Sensor::new(SensorConfig::default(), 41);
            let mut banded = RawImage::new(2, 2);
            sensor.capture_rows_into(&scene, 0.7, rows.clone(), &mut banded);
            assert_eq!((banded.width(), banded.height()), (24, 16));
            for y in rows.start.min(16)..rows.end.min(16) {
                for x in 0..24 {
                    assert_eq!(banded.get(x, y).to_bits(), full.get(x, y).to_bits(), "{rows:?}");
                }
            }
            assert_eq!(sensor.capture(&scene, 0.7), next_full, "state after {rows:?}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let scene = flat_scene(0.3);
        let a = Sensor::new(SensorConfig::default(), 1).capture(&scene, 1.0);
        let b = Sensor::new(SensorConfig::default(), 2).capture(&scene, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn illumination_scales_signal() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let day = s.capture(&flat_scene(0.5), 1.0);
        let night = s.capture(&flat_scene(0.5), 0.2);
        let day_mean: f32 = day.as_slice().iter().sum::<f32>() / day.as_slice().len() as f32;
        let night_mean: f32 = night.as_slice().iter().sum::<f32>() / night.as_slice().len() as f32;
        assert!((night_mean / day_mean - 0.2).abs() < 1e-3);
    }

    #[test]
    fn snr_degrades_in_low_light() {
        // Relative noise (std/mean) must be higher at low illumination:
        // that is what makes denoise matter at night.
        let cfg = SensorConfig::default();
        let snr = |illum: f32| -> f32 {
            let mut s = Sensor::new(cfg.clone(), 5);
            let raw = s.capture(&flat_scene(0.4), illum);
            // Use only red photosites so the Bayer pattern does not
            // inflate the variance estimate.
            let mut vals = Vec::new();
            for y in (0..64).step_by(2) {
                for x in (0..64).step_by(2) {
                    vals.push(raw.get(x, y));
                }
            }
            let m = vals.iter().sum::<f32>() / vals.len() as f32;
            let var = vals.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / vals.len() as f32;
            m / var.sqrt()
        };
        assert!(snr(1.0) > 2.0 * snr(0.15));
    }

    #[test]
    fn crosstalk_desaturates_colors() {
        // A pure red scene must leak into green/blue photosites.
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let scene = RgbImage::filled(4, 4, [1.0, 0.0, 0.0]);
        let raw = s.capture(&scene, 1.0);
        let red = raw.get(0, 0);
        let green = raw.get(1, 0);
        let blue = raw.get(1, 1);
        assert!(red > green && green > blue);
        assert!(green > 0.1, "crosstalk must leak red into green photosites");
    }

    #[test]
    fn values_clamped_to_unit_range() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.5, shot_noise: 0.5, gain: 2.0 }, 3);
        let raw = s.capture(&flat_scene(1.0), 1.0);
        assert!(raw.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn hot_pixels_saturate_about_density_and_are_deterministic() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let mut a = s.capture(&flat_scene(0.2), 1.0);
        let mut b = a.clone();
        inject_hot_pixels(&mut a, 0.05, 77);
        inject_hot_pixels(&mut b, 0.05, 77);
        assert_eq!(a, b, "same seed ⇒ same hot-pixel set");
        let hot = a.as_slice().iter().filter(|&&v| v == 1.0).count();
        let n = a.as_slice().len();
        let expected = (n as f32 * 0.05) as usize;
        assert!(
            hot > expected / 2 && hot < expected * 2,
            "hot count {hot} should be near {expected}"
        );
        let mut c = s.capture(&flat_scene(0.2), 1.0);
        inject_hot_pixels(&mut c, 0.05, 78);
        assert_ne!(a, c, "different seeds pick different photosites");
    }

    #[test]
    fn row_banding_hits_only_the_period_rows() {
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let clean = s.capture(&flat_scene(0.4), 1.0);
        let mut banded = clean.clone();
        inject_row_banding(&mut banded, 4, 0.2, 1);
        for y in 0..banded.height() {
            for x in 0..banded.width() {
                if (y + 1) % 4 == 0 {
                    assert!(banded.get(x, y) < clean.get(x, y), "row {y} must be darkened");
                } else {
                    assert_eq!(banded.get(x, y), clean.get(x, y), "row {y} must be untouched");
                }
            }
        }
        // Degenerate period is a no-op rather than a divide-by-zero.
        let mut untouched = clean.clone();
        inject_row_banding(&mut untouched, 0, 0.2, 0);
        assert_eq!(untouched, clean);
    }

    #[test]
    fn exposure_glitch_scales_and_clips() {
        let mean = |r: &RawImage| r.as_slice().iter().sum::<f32>() / r.as_slice().len() as f32;
        let mut s = Sensor::new(SensorConfig { read_noise: 0.0, shot_noise: 0.0, gain: 1.0 }, 0);
        let clean = s.capture(&flat_scene(0.4), 1.0);
        let mut over = clean.clone();
        inject_exposure_glitch(&mut over, 4.0);
        assert!(over.as_slice().iter().all(|&v| v <= 1.0), "over-exposure clips at full well");
        assert!(mean(&over) > mean(&clean));
        let mut under = clean.clone();
        inject_exposure_glitch(&mut under, 0.25);
        let ratio = mean(&under) / mean(&clean);
        assert!((ratio - 0.25).abs() < 1e-3, "under-exposure scales linearly (ratio {ratio})");
    }
}
