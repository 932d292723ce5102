//! The LKAS benchmark: three seeded workloads against the public APIs
//! of `lkas`, `lkas-bench`, `lkas-fleet` and the frame-path crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-quick --seed 1 --seconds 30 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end figures; a
//! traced run (`--trace 1`) repeats the timed phase (its outputs are
//! checked, and its job times and fleet session feed the spans), then
//! records the job-level spans and replays recorded control cycles
//! layer by layer.
//! Every figure is printed on its own line; the last line of standard
//! output is a JSON summary. The exit code is non-zero when any output
//! fails its correctness check. Nothing is written to disk.

mod alloc;
mod campaign;
mod fig7;
mod fleet;
mod pins;
mod replay;
mod report;
mod setup;
mod stats;
mod trace;

use lkas_control::design::design_cache_stats;
use report::{peak_rss_mb, Report, END_TO_END, PER_LAYER};
use stats::Samples;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
usage: lkas-perfbench --workload <NAME> [--seed <N>] [--seconds <N>] [--trace <0|1>]

workloads:
  campaign-quick   full-length quick-grid entries, campaign engine, 1 thread
  fig7-trained     Case 4 on a Fig. 7 window, trained classifiers, full resolution
  fleet-mixed      closed-loop fleet clients: cold grid points and cache hits

options:
  --workload NAME  the workload to run (required)
  --seed N         input seed (default 1)
  --seconds N      length of the timed phase in seconds (default 30)
  --trace 0|1      1 replays recorded cycles layer by layer (default 0)
  -h, --help       print this help
";

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignQuick,
    Fig7Trained,
    FleetMixed,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "campaign-quick" => Ok(Workload::CampaignQuick),
            "fig7-trained" => Ok(Workload::Fig7Trained),
            "fleet-mixed" => Ok(Workload::FleetMixed),
            other => Err(format!("unknown workload `{other}`")),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parses the command line; `Ok(None)` asks for the help text.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30u64, false);
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        if flag == "-h" || flag == "--help" {
            return Ok(None);
        }
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument `{arg}`"));
        }
        let value =
            inline.or_else(|| argv.next()).ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = |what: &str| {
            value.parse::<u64>().map_err(|_| format!("`{flag}` wants {what}, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = number("an unsigned integer")?,
            "--seconds" => seconds = number("a whole number of seconds")?.max(1),
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` wants 0 or 1, got `{value}`")),
                }
            }
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    Ok(Some(Args { workload, seed, seconds: seconds as f64, trace }))
}

/// What a workload's timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Closed-loop control cycles the workload's results report.
    pub cycles: u64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Latency of each job (ms).
    pub job_ms: Samples,
}

/// Set-up is measured this many times per run; the median is reported.
/// The first set-up is the one the timed phase uses; the repeats are
/// torn down again.
const SETUP_REPS: usize = 21;

/// A workload's generated inputs.
enum Inputs {
    Campaign(campaign::Grid),
    Fig7(lkas_scene::track::Track),
    Fleet(fleet::Plan),
}

/// Everything set-up produces.
struct Env {
    inputs: Inputs,
    bundle: std::sync::Arc<lkas::identify::ClassifierBundle>,
    daemon: setup::Daemon,
}

/// One set-up: build the workload's inputs, load the pinned bundle,
/// bind and start the fleet daemon.
fn set_up(args: &Args) -> Result<Env, String> {
    let inputs = match args.workload {
        Workload::CampaignQuick => Inputs::Campaign(campaign::grid(args.seed)),
        Workload::Fig7Trained => Inputs::Fig7(fig7::track()),
        Workload::FleetMixed => Inputs::Fleet(fleet::Plan::new(args.seed)),
    };
    let bundle = setup::load_bundle()?;
    let daemon = setup::Daemon::start()?;
    Ok(Env { inputs, bundle, daemon })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {:?} seed {} seconds {} trace {} ({} host threads)",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::default();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut repeats_s = 0.0;
    let mut env = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let next = match set_up(&args) {
            Ok(next) => next,
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        setup_s.push(start.elapsed().as_secs_f64());
        if env.is_none() {
            env = Some(next);
        } else {
            // Tear the repeat down before the next; it is left out of
            // the time to the first job.
            drop(next);
            repeats_s += start.elapsed().as_secs_f64();
        }
    }
    let mut env = env.expect("set-up ran");
    if args.workload != Workload::FleetMixed {
        report.attempt(env.daemon.stop());
    }
    let first_job_s = process_start.elapsed().as_secs_f64() - repeats_s;
    let designs_before = design_cache_stats();

    let mut tracer = trace::Tracer::default();
    let mut replay = replay::Replay::new();
    let timed = match &mut env.inputs {
        Inputs::Campaign(grid) => {
            let (timed, round) = campaign::run(&args, grid, &mut report);
            if let (true, Some(round)) = (args.trace, round) {
                campaign::trace(&args, grid, &round, &mut report, &mut tracer, &mut replay);
            }
            timed
        }
        Inputs::Fig7(track) => {
            let timed = fig7::run(&args, &env.bundle, track, &mut report);
            if args.trace {
                fig7::trace(&args, &env.bundle, track, &mut tracer, &mut replay);
            }
            timed
        }
        Inputs::Fleet(plan) => {
            let (timed, session) = fleet::run(&args, &env.daemon, plan, &mut report);
            if args.trace {
                fleet::trace(&session, &mut env.daemon, &mut report, &mut tracer, &mut replay);
            }
            timed
        }
    };
    let designs = design_cache_stats();
    report.attempt(env.daemon.stop());

    println!("-- end to end --");
    let setup_median = stats::median_of(&setup_s).unwrap_or(f64::NAN);
    let cycles_per_s = timed.cycles as f64 / timed.timed_s;
    let mut job_ms = timed.job_ms.clone();
    let job_p50 = job_ms.median().unwrap_or(f64::NAN);
    report.line("setup.first_s", setup_s[0], "s", "the set-up the timed phase uses");
    report.line(
        "first_job_s",
        first_job_s,
        "s",
        &format!("process start to the first timed job, less {repeats_s:.3} s of repeated set-ups"),
    );
    report.line("cycles", timed.cycles as f64, "count", &format!("in {:.3} s", timed.timed_s));
    let (hits, misses) =
        (designs.hits - designs_before.hits, designs.misses - designs_before.misses);
    if hits + misses > 0 {
        report.metric(
            "control.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
            "ratio",
            &format!("design cache over the timed phase: hits={hits} misses={misses}"),
        );
    }
    if args.trace {
        println!("-- job-level spans --");
        for (name, stats) in tracer.by_name(|_| false) {
            report.distribution(&format!("span.{name}_ms"), &stats.us.scaled(1e-3), "ms");
        }
        replay.report(&mut report);
    } else {
        report.metric(
            "setup_s",
            setup_median,
            "s",
            &format!("median of {SETUP_REPS} set-ups: inputs, pinned bundle, fleet daemon"),
        );
        report.metric("cycles_per_s", cycles_per_s, "1/s", "Σ samples / timed-phase wall");
        report.metric("job_p50_ms", job_p50, "ms", &format!("n={}", job_ms.len()));
        report.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB", "VmHWM");
    }
    let summary = report.summary(if args.trace { &PER_LAYER } else { &END_TO_END });
    report.line(
        "error_rate",
        report.failed() as f64 / report.attempted.max(1) as f64,
        "ratio",
        &format!("{} failed of {} attempted", report.failed(), report.attempted),
    );
    println!("{summary}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        let a = parse(&["--workload", "fig7-trained", "--seed=9", "--seconds", "3", "--trace=1"])
            .unwrap()
            .unwrap();
        assert_eq!(a, Args { workload: Workload::Fig7Trained, seed: 9, seconds: 3.0, trace: true });
    }

    #[test]
    fn help_and_bad_input_are_distinguished() {
        assert_eq!(parse(&["--help"]), Ok(None));
        assert!(parse(&["--workload", "fleet-mixed", "--bogus"]).unwrap_err().contains("unknown"));
        assert!(parse(&["--workload", "nope"]).unwrap_err().contains("unknown workload"));
        assert!(parse(&["--seed", "1"]).unwrap_err().contains("required"));
        assert!(parse(&["--workload", "fleet-mixed", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "fleet-mixed", "--seed"]).unwrap_err().contains("value"));
    }
}
