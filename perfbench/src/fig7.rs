//! `fig7-trained`: Case 4 with the trained classifier bundle at full
//! resolution (512×256) on one thread.
//!
//! The job drives a window of `Track::fig7_track()`: its last two
//! sectors, the night and the dark straight, each trimmed to
//! [`SECTOR_M`]. The job crosses the night→dark scene transition of
//! Sec. IV-D, and the classifiers' decisions along the way reconfigure
//! the knobs 30–45 times (the ISP among S3, S6 and S8), in a few seconds
//! of host time. Shorter windows that include the Fig. 7 turns
//! leave the lane on some seeds (the turn arrives before the speed knob
//! has slowed the car), which would make the job length depend on the
//! seed. Every job of a run is the same input, so each one re-checks
//! the first one's output.

use crate::replay::{self, Replay, Source};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{pins, Args, Timed};
use lkas::cases::Case;
use lkas::hil::{HilConfig, HilResult, HilSimulator, SituationSource};
use lkas::identify::ClassifierBundle;
use lkas_runtime::Fingerprint;
use lkas_scene::track::{Sector, Track};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The replayed window: indices into the Fig. 7 track's sectors.
pub const SECTORS: std::ops::Range<usize> = 7..9;
/// Length each window sector is trimmed to (m).
pub const SECTOR_M: f64 = 60.0;
/// Times the traced run replays the recorded job (one job has too few
/// cycles for a supported p99 on its own).
const REPLAY_PASSES: usize = 3;

/// The job's track (part of set-up).
pub fn track() -> Track {
    let full = Track::fig7_track();
    Track::new(full.sectors()[SECTORS].iter().map(|s| Sector { length: SECTOR_M, ..*s }).collect())
}

fn config(seed: u64, bundle: &Arc<ClassifierBundle>) -> HilConfig {
    HilConfig::new(Case::Case4, SituationSource::Trained(Arc::clone(bundle))).with_seed(seed)
}

/// The deterministic outputs of one job: every counter and the bits of
/// every per-sector MAE.
fn output_hash(r: &HilResult) -> String {
    let mut f = Fingerprint::new()
        .push_u64(r.samples)
        .push_u64(r.crashed as u64)
        .push_u64(r.crash_sector.map_or(u64::MAX, |s| s as u64))
        .push_u64(r.perception_failures)
        .push_u64(r.reconfigurations)
        .push_u64(r.misidentifications)
        .push_u64(r.frame_drops)
        .push_u64(r.degraded_samples)
        .push_f64(r.time_s);
    for sector in r.qoc.sectors() {
        f = f.push_u64(sector.samples()).push_u64(sector.mae().map_or(u64::MAX, f64::to_bits));
    }
    f.push_u64(r.overall_mae().map_or(u64::MAX, f64::to_bits)).finish()
}

/// The timed phase: identical jobs while the next one still fits (at
/// least two, so the repeat check always runs).
pub fn run(
    args: &Args,
    bundle: &Arc<ClassifierBundle>,
    track: &Track,
    report: &mut Report,
) -> Timed {
    let config = config(args.seed, bundle);
    let mut job_ms = Samples::new();
    let mut hashes = Vec::new();
    let (mut cycles, mut timed_s, mut reconfigurations) = (0u64, 0.0, 0u64);
    loop {
        let sim = HilSimulator::new(track.clone(), config.clone());
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| sim.run()));
        let dt = start.elapsed().as_secs_f64();
        timed_s += dt;
        let ok = result.is_ok();
        report.attempt(match result {
            Ok(r) => {
                job_ms.push(dt * 1e3);
                cycles += r.samples;
                reconfigurations = r.reconfigurations;
                hashes.push(output_hash(&r));
                if r.reconfigurations == 0 {
                    Err("the job crossed no knob reconfiguration".to_string())
                } else {
                    Ok(())
                }
            }
            Err(_) => Err("the fig7 job panicked".to_string()),
        });
        if !ok || (hashes.len() >= 2 && timed_s + dt > args.seconds) {
            break;
        }
    }
    if let Some(first) = hashes.first() {
        for (i, h) in hashes.iter().enumerate().skip(1) {
            report.attempt(if h == first {
                Ok(())
            } else {
                Err(format!("job {i} output hash {h} differs from job 0's {first}"))
            });
        }
        report.attempt(pins::check(pins::FIG7, args.seed, first));
        println!("fig7 output hash {first} over {} job(s)", hashes.len());
    }
    report.line("knob_reconfigurations_per_job", reconfigurations as f64, "count", "");
    Timed { cycles, timed_s, job_ms }
}

/// The traced extras: one recorded job, replayed layer by layer.
pub fn trace(
    args: &Args,
    bundle: &Arc<ClassifierBundle>,
    track: &Track,
    tracer: &mut Tracer,
    replay: &mut Replay,
) {
    let source = Source { track: track.clone(), config: config(args.seed, bundle) };
    let recorded = replay::record(tracer, source);
    for _ in 0..REPLAY_PASSES {
        replay.pass(&recorded);
    }
}
