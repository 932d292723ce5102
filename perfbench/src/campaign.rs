//! `campaign-quick`: the full-length entries of the quick robustness
//! grid through the campaign engine on one executor thread.
//!
//! Nine of the canonical quick grid's 20 entries, the same for every
//! seed: the Case-3 `nominal` and `bayer-storm` fault entries in all
//! three degradation arms (half-res 256×128, Oracle source, ISP S0 every
//! cycle) and the static Case-4 drift entries of all three drift
//! situations. On most seeds each drives its whole track; a seed that
//! makes a plan leave the lane shortens that plan's entries (all arms
//! alike) or a drift entry; while fewer than five of the nine are
//! shortened, the median job is a full-length one. Left out: the
//! frame-drop, random-mix and blind-burst entries, which leave the lane
//! at a seed-dependent cycle far more often, and the three tuned drift
//! entries, ~17 s jobs (a ~12 s `warm_start_store` characterization,
//! then the run). The traced run times the warm start on its own.
//!
//! One executor thread: on a host with two shared cores, two busy
//! executor threads make a run's throughput depend on the other tenants'
//! load and on how a seed's job lengths pack onto the threads. A round
//! of the nine entries takes 25–45 s on such a host, so with a 30 s
//! `--seconds` the timed phase is one whole round.

use crate::replay::{self, Replay, Source};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{pins, Args, Timed};
use lkas::cases::Case;
use lkas::hil::{HilConfig, SituationSource};
use lkas::TABLE3_SITUATIONS;
use lkas_bench::robustness::{
    assemble_report, campaign_camera, campaign_grid, campaign_spec, campaign_track, drift_sensor,
    drift_track, evaluate_job, report_json, warm_start_store, CampaignConfig, CampaignEntry,
    CampaignJob, PolicyArm, DRIFT_SITUATIONS,
};
use lkas_control::design::{design_controller, ControllerConfig};
use lkas_runtime::{run_campaign, Fingerprint, Shard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fault plans whose entries drive the whole campaign track.
const FULL_LENGTH_PLANS: [&str; 2] = ["nominal", "bayer-storm"];
/// Executor threads.
pub const THREADS: usize = 1;

/// One evaluated round: entries in grid order and each job's time.
pub struct Round {
    entries: Vec<(String, CampaignEntry)>,
    job_s: Vec<(String, f64)>,
    wall_s: f64,
}

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig::new(seed).with_quick(true).with_threads(THREADS)
}

/// The benchmarked entries of the canonical quick grid, in grid order:
/// the workload's input (built during set-up).
pub type Grid = Vec<(String, CampaignJob)>;

pub fn grid(seed: u64) -> Grid {
    let full_length = |job: &CampaignJob| match job {
        CampaignJob::Fault { plan, .. } => FULL_LENGTH_PLANS.contains(&plan.name.as_str()),
        CampaignJob::Drift { tuned, .. } => !tuned,
        CampaignJob::BlindBurst { .. } => false,
    };
    campaign_grid(&config(seed)).into_iter().filter(|(_, job)| full_length(job)).collect()
}

fn round(cfg: &CampaignConfig, grid: &Grid) -> Result<Round, String> {
    let track = campaign_track(true);
    let camera = campaign_camera(true);
    let spec = campaign_spec(cfg, Shard::full(), None, false);
    let job_s = Mutex::new(Vec::new());
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_campaign(
            &spec,
            grid.clone(),
            None,
            || (),
            |key, job, _: &mut ()| {
                let t = Instant::now();
                let entry = evaluate_job(cfg, &track, &camera, &job, None);
                let dt = t.elapsed().as_secs_f64();
                job_s.lock().expect("job-time lock").push((key.to_string(), dt));
                entry
            },
            |()| {},
        )
    }))
    .map_err(|_| "a campaign job panicked".to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Round { entries: run.entries, job_s: job_s.into_inner().expect("job-time lock"), wall_s })
}

fn report_hash(cfg: &CampaignConfig, entries: &[(String, CampaignEntry)]) -> String {
    let entries = entries.iter().map(|(_, e)| e.clone()).collect();
    Fingerprint::new().push_str(&report_json(&assemble_report(cfg, entries))).finish()
}

fn short(key: &str) -> &str {
    key.split("|seed=").next().unwrap_or(key)
}

/// The timed phase: whole rounds while the next one still fits in the
/// time budget (at least one).
pub fn run(args: &Args, grid: &Grid, report: &mut Report) -> (Timed, Option<Round>) {
    let cfg = config(args.seed);
    let expected = grid.len();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    loop {
        let outcome = round(&cfg, grid).and_then(|r| {
            if r.entries.len() == expected {
                rounds.push(r);
                Ok(())
            } else {
                Err(format!("round returned {} entries, expected {expected}", r.entries.len()))
            }
        });
        let ok = outcome.is_ok();
        report.attempt(outcome);
        let last = rounds.last().map_or(0.0, |r| r.wall_s);
        if !ok || start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }
    let Some(first) = rounds.first() else {
        return (Timed::default(), None);
    };

    // Correctness: every round's report bytes equal the first round's
    // and, for a pinned seed, the pinned hash.
    let hash = report_hash(&cfg, &first.entries);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        let h = report_hash(&cfg, &r.entries);
        report.attempt(if h == hash {
            Ok(())
        } else {
            Err(format!("round {i} report hash {h} differs from round 0's {hash}"))
        });
    }
    report.attempt(pins::check(pins::CAMPAIGN, args.seed, &hash));
    println!("campaign report hash {hash} over {} round(s)", rounds.len());
    if rounds.len() == 1 {
        // One round cannot repeat itself: re-evaluate its cheapest entry
        // and require identical entry bytes.
        report.attempt(reevaluate_cheapest(&cfg, grid, first));
    }

    let mut job_ms = Samples::new();
    let (mut busy_s, mut wall_s, mut cycles) = (0.0, 0.0, 0u64);
    for r in &rounds {
        r.job_s.iter().for_each(|(_, s)| job_ms.push(s * 1e3));
        busy_s += r.job_s.iter().map(|(_, s)| s).sum::<f64>();
        wall_s += r.wall_s;
        cycles += r.entries.iter().map(|(_, e)| e.samples).sum::<u64>();
    }
    report.line("rounds", rounds.len() as f64, "count", "the quick grid's full-length entries");
    report.line(
        "executor.busy_ratio",
        busy_s / (THREADS as f64 * wall_s),
        "ratio",
        "Σ job time / (threads × wall)",
    );
    for (key, s) in &first.job_s {
        let samples = first.entries.iter().find(|(k, _)| k == key).map_or(0, |(_, e)| e.samples);
        println!("  evaluate_job {:>10.1} ms {samples:>6} cycles  {}", s * 1e3, short(key));
    }
    let timed = Timed { cycles, timed_s: wall_s, job_ms };
    (timed, rounds.into_iter().next())
}

fn reevaluate_cheapest(cfg: &CampaignConfig, grid: &Grid, round: &Round) -> Result<(), String> {
    let key =
        &round.job_s.iter().min_by(|a, b| a.1.total_cmp(&b.1)).ok_or("the round has no jobs")?.0;
    let job = grid.iter().find(|(k, _)| k == key).map(|(_, j)| j);
    let entry = round.entries.iter().find(|(k, _)| k == key).map(|(_, e)| e);
    let (Some(job), Some(entry)) = (job, entry) else {
        return Err(format!("entry `{key}` is missing from the grid"));
    };
    let again = evaluate_job(cfg, &campaign_track(true), &campaign_camera(true), job, None);
    if &again == entry {
        Ok(())
    } else {
        Err(format!("re-evaluating `{}` changed its entry", short(key)))
    }
}

/// The closed loop `evaluate_job` runs for a fault-grid job, rebuilt
/// from the same public parts so that it can be recorded and replayed.
pub fn fault_source(cfg: &CampaignConfig, job: &CampaignJob) -> Option<Source> {
    let CampaignJob::Fault { case, plan, arm } = job else { return None };
    let mut config = HilConfig::new(*case, SituationSource::Oracle)
        .with_seed(cfg.seed)
        .with_camera(campaign_camera(cfg.quick))
        .with_kernel_backend(cfg.kernel_backend)
        .with_error_fit(true);
    if !plan.is_empty() {
        config = config.with_fault_plan(Arc::clone(plan));
    }
    if let Some(d) = arm.degradation() {
        config = config.with_degradation(d);
    }
    Some(Source { track: campaign_track(cfg.quick), config })
}

/// The traced extras: spans the engine's parallel phase cannot separate
/// (a drift warm start, report assembly, certification), then the
/// frame-path replay of the policy-off bayer-storm fault entry and the
/// primary static drift entry.
pub fn trace(
    args: &Args,
    grid: &Grid,
    round: &Round,
    report: &mut Report,
    tracer: &mut Tracer,
    replay: &mut Replay,
) {
    let cfg = config(args.seed);
    for (_, s) in &round.job_s {
        tracer.record("evaluate_job", (s * 1e9) as u64);
    }
    let entries: Vec<CampaignEntry> = round.entries.iter().map(|(_, e)| e.clone()).collect();
    tracer.span("assemble_report", None, || assemble_report(&cfg, entries));

    // The tuned drift entries are not benchmarked; their warm start is
    // timed here for the primary drift situation.
    let camera = campaign_camera(true);
    tracer.span("characterize.warm_start", None, || {
        warm_start_store(cfg.seed, &camera, DRIFT_SITUATIONS[0])
    });
    let mut sources = Vec::new();
    for (key, job) in grid {
        match job {
            CampaignJob::Fault { plan, arm: PolicyArm::Off, .. } if plan.name == "bayer-storm" => {
                sources.extend(fault_source(&cfg, job).map(|source| (key, source)));
            }
            CampaignJob::Drift { situation, tuned: false } if *situation == DRIFT_SITUATIONS[0] => {
                let s = TABLE3_SITUATIONS[*situation];
                let config = HilConfig::new(Case::Case4, SituationSource::Oracle)
                    .with_seed(cfg.seed)
                    .with_camera(camera.clone())
                    .with_sensor(drift_sensor())
                    .with_initial_estimate(s)
                    .with_error_fit(true);
                sources.push((key, Source { track: drift_track(&s, true), config }));
            }
            _ => {}
        }
    }

    let nominal =
        design_controller(&ControllerConfig { speed_kmph: 50.0, h_ms: 25.0, tau_ms: 24.6 })
            .expect("the nominal design point is valid");
    for (key, source) in sources {
        let recorded = replay::record(tracer, source);
        // The reconstructed configuration must be the one the engine ran.
        let entry = round.entries.iter().find(|(k, _)| k == key).map(|(_, e)| e);
        report.attempt(match entry {
            Some(e)
                if e.samples == recorded.result.samples && e.crashed == recorded.result.crashed =>
            {
                Ok(())
            }
            _ => Err(format!("replay source for `{}` does not reproduce its entry", short(key))),
        });
        if let Some(profile) = recorded.result.error_profile() {
            tracer.span("certify", None, || lkas_control::certify(&nominal, &profile));
        }
        replay.pass(&recorded);
    }
}
