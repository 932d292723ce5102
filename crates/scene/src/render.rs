//! Scene-referred renderer: road, markings, sky, illumination.
//!
//! Replaces the Webots camera: given a [`Track`] and the vehicle's Frenet
//! pose (arc position `s`, lateral offset `d`, heading error `ψ`), it
//! produces the linear-RGB irradiance frame a front camera would see.
//! Feed the result to [`lkas_imaging::Sensor::capture`] with
//! `illumination = 1.0` — the renderer already applies the scene's
//! ambient level, tint and head-light falloff per pixel, since those vary
//! across the frame.
//!
//! [`lkas_imaging::Sensor::capture`]: lkas_imaging::sensor::Sensor::capture

use crate::camera::Camera;
use crate::situation::{LaneColor, LaneForm, SceneKind};
use crate::track::{LaneSpec, Sector, SectorCursor, Track, DOUBLE_GAP, LANE_WIDTH, MARKING_WIDTH};
use lkas_imaging::image::RgbImage;
use std::ops::Range;

/// Linear-RGB albedos of the rendered materials.
pub mod albedo {
    /// Asphalt road surface.
    pub const ROAD: [f32; 3] = [0.16, 0.16, 0.17];
    /// White lane marking.
    pub const WHITE_MARKING: [f32; 3] = [0.85, 0.85, 0.85];
    /// Yellow lane marking.
    pub const YELLOW_MARKING: [f32; 3] = [0.75, 0.55, 0.08];
    /// Grass / off-road.
    pub const GRASS: [f32; 3] = [0.08, 0.13, 0.06];
    /// Sky (day).
    pub const SKY: [f32; 3] = [0.55, 0.68, 0.85];
}

/// Typed failure of the scene-rendering layer.
///
/// Rendering a frame used to be infallible-or-abort: an invalid camera
/// (possible via deserialized campaign configs, which bypass the
/// [`Camera`] constructor checks) would `panic!` deep inside frame
/// allocation and take a whole campaign worker down with it. The
/// fallible entry points ([`SceneRenderer::render_into`],
/// [`Camera::try_new`]) surface this instead, and the HiL loop reports
/// it through its result counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderError {
    /// The camera model cannot produce a frame: zero-sized, non-positive
    /// or non-finite focal length / mounting height, or pitch at or past
    /// ±90°.
    InvalidCamera(&'static str),
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::InvalidCamera(reason) => write!(f, "invalid camera: {reason}"),
        }
    }
}

impl std::error::Error for RenderError {}

/// Paved shoulder beyond the markings, in meters.
const SHOULDER: f64 = 0.6;

/// Head-light beam length scale (meters of e-folding).
const HEADLIGHT_FALLOFF: f64 = 15.0;

/// Renders camera frames of a track.
///
/// # Example
///
/// ```
/// use lkas_scene::camera::Camera;
/// use lkas_scene::render::SceneRenderer;
/// use lkas_scene::situation::TABLE3_SITUATIONS;
/// use lkas_scene::track::Track;
///
/// let track = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
/// let renderer = SceneRenderer::new(Camera::default_automotive());
/// let frame = renderer.render(&track, 0.0, 0.0, 0.0);
/// assert_eq!((frame.width(), frame.height()), (512, 256));
/// ```
#[derive(Debug, Clone)]
pub struct SceneRenderer {
    camera: Camera,
}

impl SceneRenderer {
    /// Creates a renderer for the given camera.
    pub fn new(camera: Camera) -> Self {
        SceneRenderer { camera }
    }

    /// Borrow the camera model.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Renders the scene-referred irradiance frame seen from Frenet pose
    /// `(s, d, psi)`: arc position `s` (m), lateral offset `d` from the
    /// lane center (m, positive left), heading error `psi` (rad, positive
    /// = nose pointing left of the lane tangent).
    ///
    /// Convenience wrapper over [`SceneRenderer::render_into`] that
    /// allocates a fresh frame per call.
    ///
    /// # Panics
    ///
    /// Panics if the camera is invalid (see [`Camera::validate`]); use
    /// `render_into` for the fallible, allocation-free path.
    pub fn render(&self, track: &Track, s: f64, d: f64, psi: f64) -> RgbImage {
        let mut img = RgbImage::new(self.camera.width().max(1), self.camera.height().max(1));
        match self.render_into(track, s, d, psi, &mut img) {
            Ok(()) => img,
            Err(e) => panic!("{e}"),
        }
    }

    /// Renders the frame into a caller-owned buffer (resized as needed) —
    /// the allocation-free render path, and the fallible one: an invalid
    /// camera (e.g. deserialized with zero dimensions) returns a
    /// [`RenderError`] instead of aborting the worker.
    pub fn render_into(
        &self,
        track: &Track,
        s: f64,
        d: f64,
        psi: f64,
        img: &mut RgbImage,
    ) -> Result<(), RenderError> {
        self.render_rows_into(track, s, d, psi, 0..self.camera.height(), img)
    }

    /// Renders only the image rows in `rows` (clipped to the frame) into
    /// a caller-owned buffer resized to the full frame. The rendered rows
    /// are bit-identical to [`SceneRenderer::render_into`]'s; every other
    /// row is unspecified. This is the demand-driven entry point: a
    /// consumer that reads only part of the frame pays only for that
    /// part.
    ///
    /// Per-row and per-frame invariants are hoisted out of the pixel
    /// loop (ray geometry per row, sky rows as one fill, lighting per
    /// frame, a cached sector lookup); each hoisted value is computed by
    /// the same expression the per-pixel form used, so the output bits
    /// do not change.
    ///
    /// # Errors
    ///
    /// [`RenderError::InvalidCamera`] if the camera is invalid; the
    /// buffer is left untouched.
    pub fn render_rows_into(
        &self,
        track: &Track,
        s: f64,
        d: f64,
        psi: f64,
        rows: Range<usize>,
        img: &mut RgbImage,
    ) -> Result<(), RenderError> {
        self.camera.validate()?;
        let w = self.camera.width();
        let h = self.camera.height();
        img.reshape(w, h);
        let (sin_psi, cos_psi) = psi.sin_cos();
        let light = Lighting::new(track.sector_at(s).scene);
        let sky = light.sky();
        let under_bumper = light.lit(albedo::ROAD, 0.0);
        let mut sectors = SectorCursor::new(track);

        let data = img.as_mut_slice();
        for v in rows.start.min(h)..rows.end.min(h) {
            let row = &mut data[v * w * 3..(v + 1) * w * 3];
            let Some(ground) = self.camera.ground_row(v as f64 + 0.5) else {
                for px in row.chunks_exact_mut(3) {
                    px.copy_from_slice(&sky);
                }
                continue;
            };
            // Rotation of the vehicle-frame ground point into the
            // lane-aligned frame; the forward terms are row constants.
            let xf = ground.x_forward;
            let (xf_cos, xf_sin) = (xf * cos_psi, xf * sin_psi);
            for (u, px) in row.chunks_exact_mut(3).enumerate() {
                let yl = self.camera.ground_lateral(&ground, u as f64 + 0.5);
                let xa = xf_cos - yl * sin_psi;
                let ya = xf_sin + yl * cos_psi;
                let color = if xa <= 0.1 {
                    // Directly under the bumper; treat as road.
                    under_bumper
                } else {
                    let sp = s + xa;
                    let sector = sectors.sector(sp);
                    // Offset from the (curving) lane center: the
                    // centerline bends by ~κ·xa²/2 over the preview
                    // distance.
                    let lateral = d + ya - sector.curvature * xa * xa / 2.0;
                    light.lit(self.surface_albedo(sector, sp, lateral, xa), xa)
                };
                px.copy_from_slice(&color);
            }
        }
        Ok(())
    }

    /// Albedo of the ground of `sector` at arc position `sp`, lateral
    /// offset `lateral` from the lane center, seen from forward distance
    /// `xa` (for anti-aliasing footprint).
    fn surface_albedo(&self, sector: &Sector, sp: f64, lateral: f64, xa: f64) -> [f32; 3] {
        let footprint = self.camera.ground_meters_per_pixel(xa);
        let half_marking = MARKING_WIDTH / 2.0;

        // Base surface.
        let road_half = LANE_WIDTH / 2.0 + SHOULDER;
        let base = if lateral.abs() <= road_half { albedo::ROAD } else { albedo::GRASS };

        // Blend in the nearest marking line by its pixel coverage. A
        // line whose coverage numerator is not positive cannot win, so
        // its dash phase and the division are skipped.
        let mut best_cover = 0.0f64;
        let mut best_color = base;
        for (center, spec) in marking_lines(sector) {
            if center.is_nan() {
                continue;
            }
            let dist = (lateral - center).abs();
            let reach = half_marking + footprint / 2.0 - dist;
            if reach <= 0.0 || !Track::marking_painted_at(spec.form, sp) {
                continue;
            }
            let cover = (reach / footprint).clamp(0.0, 1.0);
            if cover > best_cover {
                best_cover = cover;
                best_color = marking_albedo(spec.color);
            }
        }
        if best_cover <= 0.0 {
            return base;
        }
        let c = best_cover as f32;
        [
            base[0] * (1.0 - c) + best_color[0] * c,
            base[1] * (1.0 - c) + best_color[1] * c,
            base[2] * (1.0 - c) + best_color[2] * c,
        ]
    }
}

/// Candidate marking line centers (lateral offsets from the lane center)
/// of a sector and their specs; NaN centers are absent lines.
fn marking_lines(sector: &Sector) -> [(f64, LaneSpec); 4] {
    let mut lines = [
        (LANE_WIDTH / 2.0, sector.left_lane),
        (f64::NAN, sector.left_lane),
        (-LANE_WIDTH / 2.0, sector.right_lane),
        (f64::NAN, sector.right_lane),
    ];
    let off = (MARKING_WIDTH + DOUBLE_GAP) / 2.0;
    if sector.left_lane.form == LaneForm::DoubleContinuous {
        lines[0].0 = LANE_WIDTH / 2.0 - off;
        lines[1].0 = LANE_WIDTH / 2.0 + off;
    }
    if sector.right_lane.form == LaneForm::DoubleContinuous {
        lines[2].0 = -LANE_WIDTH / 2.0 + off;
        lines[3].0 = -LANE_WIDTH / 2.0 - off;
    }
    lines
}

fn marking_albedo(color: LaneColor) -> [f32; 3] {
    match color {
        LaneColor::White => albedo::WHITE_MARKING,
        LaneColor::Yellow => albedo::YELLOW_MARKING,
    }
}

/// A frame's illumination: the scene's ambient level, head-light gain
/// and tint, read once per frame.
#[derive(Debug, Clone, Copy)]
struct Lighting {
    ambient: f32,
    headlight: f32,
    tint: [f32; 3],
}

impl Lighting {
    fn new(scene: SceneKind) -> Self {
        Lighting {
            ambient: scene.ambient_illumination(),
            headlight: scene.headlight_gain(),
            tint: scene.tint(),
        }
    }

    /// Applies the illumination (ambient + head-lights) and tint to an
    /// albedo at forward distance `xf`. Without head-lights the head
    /// term is exactly +0.0, so its `exp` is skipped.
    fn lit(&self, albedo: [f32; 3], xf: f64) -> [f32; 3] {
        let head = if self.headlight == 0.0 {
            0.0
        } else {
            self.headlight * (-xf / HEADLIGHT_FALLOFF).exp() as f32
        };
        let level = (self.ambient + head).min(1.2);
        let tint = self.tint;
        [albedo[0] * level * tint[0], albedo[1] * level * tint[1], albedo[2] * level * tint[2]]
    }

    /// Sky irradiance.
    fn sky(&self) -> [f32; 3] {
        let level = self.ambient * 0.9;
        let tint = self.tint;
        [
            albedo::SKY[0] * level * tint[0],
            albedo::SKY[1] * level * tint[1],
            albedo::SKY[2] * level * tint[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::situation::{RoadLayout, SituationFeatures, TABLE3_SITUATIONS};

    fn day_straight_track() -> Track {
        Track::for_situation(&TABLE3_SITUATIONS[0], 1000.0)
    }

    fn renderer() -> SceneRenderer {
        SceneRenderer::new(Camera::default_automotive())
    }

    /// The per-pixel renderer as it was before the row hoisting: every
    /// pixel back-projects through [`Camera::ground_from_pixel`], reads
    /// the scene's lighting, takes `exp` for the head-lights, binary
    /// searches the sector twice and tests the dash phase of every line.
    /// The reference the hoisted [`SceneRenderer::render_rows_into`]
    /// must match bit for bit.
    fn render_reference(r: &SceneRenderer, track: &Track, s: f64, d: f64, psi: f64) -> RgbImage {
        let cam = r.camera();
        let (w, h) = (cam.width(), cam.height());
        let mut img = RgbImage::new(w, h);
        let (sin_psi, cos_psi) = psi.sin_cos();
        let scene = track.sector_at(s).scene;
        for v in 0..h {
            for u in 0..w {
                let color = match cam.ground_from_pixel(u as f64 + 0.5, v as f64 + 0.5) {
                    None => reference_sky(scene),
                    Some((xf, yl)) => {
                        let xa = xf * cos_psi - yl * sin_psi;
                        let ya = xf * sin_psi + yl * cos_psi;
                        if xa <= 0.1 {
                            reference_lit(albedo::ROAD, scene, 0.0)
                        } else {
                            let sp = s + xa;
                            let kappa = track.curvature_at(sp);
                            let lateral = d + ya - kappa * xa * xa / 2.0;
                            let albedo = reference_albedo(cam, track, sp, lateral, xa);
                            reference_lit(albedo, scene, xa)
                        }
                    }
                };
                img.set(u, v, color);
            }
        }
        img
    }

    fn reference_albedo(cam: &Camera, track: &Track, sp: f64, lateral: f64, xa: f64) -> [f32; 3] {
        let sector = track.sector_at(sp);
        let footprint = cam.ground_meters_per_pixel(xa);
        let half_marking = MARKING_WIDTH / 2.0;
        let mut lines: [(f64, LaneSpec); 4] = [
            (LANE_WIDTH / 2.0, sector.left_lane),
            (f64::NAN, sector.left_lane),
            (-LANE_WIDTH / 2.0, sector.right_lane),
            (f64::NAN, sector.right_lane),
        ];
        if sector.left_lane.form == LaneForm::DoubleContinuous {
            let off = (MARKING_WIDTH + DOUBLE_GAP) / 2.0;
            lines[0].0 = LANE_WIDTH / 2.0 - off;
            lines[1].0 = LANE_WIDTH / 2.0 + off;
        }
        if sector.right_lane.form == LaneForm::DoubleContinuous {
            let off = (MARKING_WIDTH + DOUBLE_GAP) / 2.0;
            lines[2].0 = -LANE_WIDTH / 2.0 + off;
            lines[3].0 = -LANE_WIDTH / 2.0 - off;
        }
        let road_half = LANE_WIDTH / 2.0 + SHOULDER;
        let base = if lateral.abs() <= road_half { albedo::ROAD } else { albedo::GRASS };
        let mut best_cover = 0.0f64;
        let mut best_color = base;
        for (center, spec) in lines {
            if center.is_nan() {
                continue;
            }
            if !Track::marking_painted_at(spec.form, sp) {
                continue;
            }
            let dist = (lateral - center).abs();
            let cover = ((half_marking + footprint / 2.0 - dist) / footprint).clamp(0.0, 1.0);
            if cover > best_cover {
                best_cover = cover;
                best_color = match spec.color {
                    LaneColor::White => albedo::WHITE_MARKING,
                    LaneColor::Yellow => albedo::YELLOW_MARKING,
                };
            }
        }
        if best_cover <= 0.0 {
            return base;
        }
        let c = best_cover as f32;
        [
            base[0] * (1.0 - c) + best_color[0] * c,
            base[1] * (1.0 - c) + best_color[1] * c,
            base[2] * (1.0 - c) + best_color[2] * c,
        ]
    }

    fn reference_lit(albedo: [f32; 3], scene: SceneKind, xf: f64) -> [f32; 3] {
        let ambient = scene.ambient_illumination();
        let head = scene.headlight_gain() * (-xf / HEADLIGHT_FALLOFF).exp() as f32;
        let level = (ambient + head).min(1.2);
        let tint = scene.tint();
        [albedo[0] * level * tint[0], albedo[1] * level * tint[1], albedo[2] * level * tint[2]]
    }

    fn reference_sky(scene: SceneKind) -> [f32; 3] {
        let level = scene.ambient_illumination() * 0.9;
        let tint = scene.tint();
        [
            albedo::SKY[0] * level * tint[0],
            albedo::SKY[1] * level * tint[1],
            albedo::SKY[2] * level * tint[2],
        ]
    }

    /// The 21 Table III tracks plus the nine-sector Fig. 7 track.
    fn track_by_index(i: usize) -> Track {
        match TABLE3_SITUATIONS.get(i) {
            Some(sit) => Track::for_situation(sit, 600.0),
            None => Track::fig7_track(),
        }
    }

    fn half_res_camera() -> Camera {
        Camera::new(256, 128, 150.0, 1.3, 6.0_f64.to_radians())
    }

    fn assert_same_bits(a: &[f32], b: &[f32]) -> Result<(), String> {
        match a.iter().zip(b).position(|(x, y)| x.to_bits() != y.to_bits()) {
            None if a.len() == b.len() => Ok(()),
            None => Err(format!("lengths {} vs {}", a.len(), b.len())),
            Some(i) => Err(format!("word {i}: {} vs {}", a[i], b[i])),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The hoisted renderer is bit-identical to the per-pixel
        /// reference on random poses over every track and both cameras.
        #[test]
        fn hoisted_render_matches_the_per_pixel_reference(
            track_idx in 0..22usize,
            s in -5.0..1300.0f64,
            d in -1.5..1.5f64,
            psi in -0.2..0.2f64,
        ) {
            let track = track_by_index(track_idx);
            for cam in [half_res_camera(), Camera::default_automotive()] {
                let r = SceneRenderer::new(cam);
                let fast = r.render(&track, s, d, psi);
                let reference = render_reference(&r, &track, s, d, psi);
                if let Err(e) = assert_same_bits(fast.as_slice(), reference.as_slice()) {
                    proptest::prop_assert!(false, "track {track_idx} at ({s}, {d}, {psi}): {e}");
                }
            }
        }
    }

    #[test]
    fn banded_render_matches_full_frame_rows() {
        let r = SceneRenderer::new(half_res_camera());
        let track = Track::fig7_track();
        let full = r.render(&track, 280.0, 0.3, -0.02);
        let row_words = 256 * 3;
        let mut banded = RgbImage::filled(4, 4, [7.0; 3]);
        for rows in [0..128, 52..89, 0..1, 127..128, 90..300, 60..60] {
            r.render_rows_into(&track, 280.0, 0.3, -0.02, rows.clone(), &mut banded).unwrap();
            assert_eq!((banded.width(), banded.height()), (256, 128));
            let lo = rows.start.min(128) * row_words;
            let hi = rows.end.min(128).max(rows.start.min(128)) * row_words;
            assert_same_bits(&banded.as_slice()[lo..hi], &full.as_slice()[lo..hi])
                .unwrap_or_else(|e| panic!("rows {rows:?}: {e}"));
        }
    }

    /// Find the brightest pixel in a row (marking candidates).
    fn row_argmax(img: &RgbImage, v: usize) -> usize {
        let mut best = 0;
        let mut best_val = -1.0f32;
        for u in 0..img.width() {
            let p = img.get(u, v);
            let lum = p[0] + p[1] + p[2];
            if lum > best_val {
                best_val = lum;
                best = u;
            }
        }
        best
    }

    #[test]
    fn markings_appear_on_expected_sides() {
        let r = renderer();
        let img = r.render(&day_straight_track(), 6.0, 0.0, 0.0);
        let cam = r.camera();
        // Project the left/right marking ground positions at 10 m ahead
        // and verify bright pixels there.
        let (ul, vl) = cam.project_ground(10.0, LANE_WIDTH / 2.0).unwrap();
        let (ur, _) = cam.project_ground(10.0, -LANE_WIDTH / 2.0).unwrap();
        assert!(ul < ur, "left marking must be left of right marking in image");
        let row = vl.round() as usize;
        let bright = row_argmax(&img, row);
        // The brightest pixel in that row is one of the markings.
        assert!(
            (bright as f64 - ul).abs() < 4.0 || (bright as f64 - ur).abs() < 4.0,
            "brightest pixel at column {bright}, expected near {ul:.0} or {ur:.0}"
        );
        // The marking pixel must be much brighter than mid-lane road.
        let (um, vm) = cam.project_ground(10.0, 0.0).unwrap();
        let road = img.get(um.round() as usize, vm.round() as usize);
        let mark = img.get(ul.round() as usize, row);
        assert!(mark[1] > 2.0 * road[1], "marking {mark:?} vs road {road:?}");
    }

    #[test]
    fn lateral_offset_shifts_markings() {
        // Moving the vehicle left (d > 0) moves the left marking toward
        // the image center.
        let r = renderer();
        let centered = r.render(&day_straight_track(), 6.0, 0.0, 0.0);
        let offset = r.render(&day_straight_track(), 6.0, 0.8, 0.0);
        let cam = r.camera();
        let (_, v10) = cam.project_ground(10.0, LANE_WIDTH / 2.0).unwrap();
        let row = v10.round() as usize;
        // Track the left marking: brightest pixel in the left half.
        let left_peak = |img: &RgbImage| -> usize {
            let mut best = 0;
            let mut val = -1.0;
            for u in 0..img.width() / 2 {
                let p = img.get(u, row);
                let l = p[0] + p[1] + p[2];
                if l > val {
                    val = l;
                    best = u;
                }
            }
            best
        };
        assert!(
            left_peak(&offset) > left_peak(&centered),
            "moving left must shift the left marking rightward in the image"
        );
    }

    #[test]
    fn yellow_lane_renders_yellow() {
        let sit = SituationFeatures::new(
            LaneColor::Yellow,
            LaneForm::Continuous,
            RoadLayout::Straight,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 500.0);
        let r = renderer();
        let img = r.render(&track, 6.0, 0.0, 0.0);
        let cam = r.camera();
        let (ul, vl) = cam.project_ground(8.0, LANE_WIDTH / 2.0).unwrap();
        let px = img.get(ul.round() as usize, vl.round() as usize);
        assert!(px[0] > 2.0 * px[2], "yellow marking must have R >> B, got {px:?}");
    }

    #[test]
    fn night_is_darker_than_day() {
        let day = Track::for_situation(&TABLE3_SITUATIONS[0], 500.0);
        let night = Track::for_situation(&TABLE3_SITUATIONS[4], 500.0);
        let r = renderer();
        let d = r.render(&day, 6.0, 0.0, 0.0);
        let n = r.render(&night, 6.0, 0.0, 0.0);
        assert!(n.mean() < 0.6 * d.mean());
    }

    #[test]
    fn headlights_light_the_near_field_in_dark() {
        let dark = Track::for_situation(&TABLE3_SITUATIONS[6], 500.0);
        let r = renderer();
        let img = r.render(&dark, 6.0, 0.0, 0.0);
        let cam = r.camera();
        let (un, vn) = cam.project_ground(5.0, 0.0).unwrap();
        let (uf, vf) = cam.project_ground(45.0, 0.0).unwrap();
        let near = img.get(un.round() as usize, vn.round() as usize);
        let far = img.get(uf.round() as usize, vf.round() as usize);
        assert!(near[1] > 1.5 * far[1], "near road {near:?} must outshine far road {far:?}");
    }

    #[test]
    fn dotted_lane_has_gaps() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Dotted,
            RoadLayout::Straight,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 500.0);
        let r = renderer();
        let img = r.render(&track, 0.0, 0.0, 0.0);
        let cam = r.camera();
        // Sample the left marking line every 0.5 m from 5 m to 20 m: some
        // samples painted, some not.
        let mut bright = 0;
        let mut dark = 0;
        let mut x = 5.0;
        while x < 20.0 {
            let (u, v) = cam.project_ground(x, LANE_WIDTH / 2.0).unwrap();
            let px = img.get(u.round() as usize, v.round() as usize);
            if px[1] > 0.4 {
                bright += 1;
            } else {
                dark += 1;
            }
            x += 0.5;
        }
        assert!(bright > 3 && dark > 3, "dashes: {bright} bright, {dark} dark samples");
    }

    #[test]
    fn right_turn_curves_markings_rightward() {
        let sit = SituationFeatures::new(
            LaneColor::White,
            LaneForm::Continuous,
            RoadLayout::RightTurn,
            SceneKind::Day,
        );
        let track = Track::for_situation(&sit, 1000.0);
        let r = renderer();
        let img = r.render(&track, 0.0, 0.0, 0.0);
        let straight = r.render(&day_straight_track(), 6.0, 0.0, 0.0);
        let cam = r.camera();
        // At a far preview distance, the turn's left marking is shifted
        // right (toward smaller lateral offset) vs the straight road.
        let (_, v_far) = cam.project_ground(40.0, LANE_WIDTH / 2.0).unwrap();
        let row = v_far.round() as usize;
        let peak_turn = row_argmax(&img, row);
        let peak_straight = row_argmax(&straight, row);
        assert!(
            peak_turn > peak_straight,
            "right turn must shift far markings right: {peak_turn} vs {peak_straight}"
        );
    }

    #[test]
    fn render_into_matches_render() {
        let r = renderer();
        let track = day_straight_track();
        let fresh = r.render(&track, 6.0, 0.2, 0.01);
        // Reused buffer arrives with the wrong dimensions and stale
        // contents; the output must still be bit-identical.
        let mut reused = RgbImage::filled(8, 8, [9.0, 9.0, 9.0]);
        r.render_into(&track, 6.0, 0.2, 0.01, &mut reused).unwrap();
        assert_eq!(fresh, reused);
    }

    #[test]
    fn render_into_rejects_invalid_deserialized_camera() {
        let json = r#"{"width":0,"height":256,"focal":300.0,"cu":256.0,
                       "cv":128.0,"height_m":1.3,"pitch":0.1}"#;
        let cam: Camera = serde_json::from_str(json).unwrap();
        let r = SceneRenderer::new(cam);
        let mut out = RgbImage::new(1, 1);
        let err = r.render_into(&day_straight_track(), 0.0, 0.0, 0.0, &mut out).unwrap_err();
        assert!(matches!(err, RenderError::InvalidCamera(_)));
        assert!(err.to_string().contains("invalid camera"));
    }

    #[test]
    fn sky_above_horizon() {
        let r = renderer();
        let img = r.render(&day_straight_track(), 0.0, 0.0, 0.0);
        let sky = img.get(256, 10);
        assert!(sky[2] > sky[0], "sky must be blue-ish, got {sky:?}");
    }
}
