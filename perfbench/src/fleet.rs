//! `fleet-mixed`: an in-process `lkas_fleet::serve` daemon with
//! `BenchRunner` and one worker on loopback, driven by closed-loop
//! clients (`lkas_fleet::FleetClient`, `wait = true`, each sends its
//! next request only after the previous result).
//!
//! One client submits the seeded sequence of cold quick-grid fault
//! points back to back — each a distinct campaign seed, so each really
//! runs, streaming about 1100 `CycleDelta` frames. Meanwhile
//! [`HIT_CLIENTS`] more clients resubmit finished specs, which the
//! daemon answers from its results cache. The hit load is a fixed
//! budget, [`HITS_PER_CLIENT`] resubmissions per client, so the work it
//! adds to a run does not depend on how fast the daemon answers hits.
//! A cache hit waits on the daemon's two small writes (`Accepted`, then
//! `Result`), tens of milliseconds on loopback, so a single client
//! could not issue the thousand hits a supported p99 needs within one
//! run.

use crate::campaign;
use crate::replay::{self, Replay};
use crate::report::Report;
use crate::setup::{connect, Daemon};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{pins, Args, Timed};
use lkas_bench::fleet::FleetSpec;
use lkas_bench::robustness::{
    campaign_camera, campaign_grid, campaign_track, evaluate_job, CampaignConfig, CampaignEntry,
};
use lkas_fleet::proto::{encode_response, RequestOp, Response, SubmitRequest};
use lkas_fleet::{Event, FleetClient};
use lkas_runtime::Fingerprint;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Quick-grid indices of the cold fault points, cycled in this order:
/// the nominal and bayer-storm plans in all three degradation arms, all
/// of which drive the whole campaign track.
const COLD_INDICES: [usize; 6] = [1, 6, 2, 7, 0, 8];
/// Connections resubmitting finished specs while the cold jobs run.
const HIT_CLIENTS: usize = 4;
/// Resubmissions each hit client issues, then stops: 1000 cache hits
/// per run, so that p99 has ten samples beyond it.
const HITS_PER_CLIENT: usize = 250;
/// Cold jobs every run issues at least (the pinned hash covers these).
const MIN_COLD: usize = 2;

/// A SplitMix64 step: the benchmark's own seeded generator.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded request sequence.
pub struct Plan {
    rng: u64,
    seed_state: u64,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut state = seed;
        let rng = mix(&mut state);
        Plan { rng, seed_state: state }
    }

    /// The `i`-th cold spec: a fresh campaign seed on a fixed grid index.
    fn cold(&mut self, i: usize) -> FleetSpec {
        let seed = mix(&mut self.seed_state) >> 16;
        FleetSpec::GridPoint {
            cfg: CampaignConfig::new(seed).with_quick(true),
            index: COLD_INDICES[i % COLD_INDICES.len()],
        }
    }
}

/// One submission's client-side view.
struct Answer {
    accepted_s: f64,
    result_s: f64,
    cached: bool,
    payload: String,
    frames: u64,
    bytes: u64,
}

/// Submits `spec` and reads its events up to the terminal one. Frame
/// sizes (re-encoded as the daemon sent them) are summed only when
/// `count_bytes` asks for it, to keep that work out of untraced runs.
fn submit(client: &mut FleetClient, spec: &FleetSpec, count_bytes: bool) -> Result<Answer, String> {
    let size = |event: &Event| encode_response(&Response::new(event.clone())).len() as u64;
    let start = Instant::now();
    let request = SubmitRequest { tenant: None, priority: 0, wait: true, spec: spec.to_value() };
    let first = client.submit(request).map_err(|e| e.to_string())?;
    let accepted_s = start.elapsed().as_secs_f64();
    if !matches!(first, Event::Accepted { .. }) {
        return Err(format!("job answered {first:?}"));
    }
    let (mut frames, mut bytes) = (0u64, if count_bytes { size(&first) } else { 0 });
    let mut error = None;
    let terminal = client
        .wait_terminal(|event| {
            match event {
                Event::CycleDelta { .. } => frames += 1,
                Event::Error(e) => error = Some(format!("job answered {e:?}")),
                _ => {}
            }
            if count_bytes {
                bytes += size(event);
            }
        })
        .map_err(|e| e.to_string())?;
    let result_s = start.elapsed().as_secs_f64();
    if let Some(e) = error {
        return Err(e);
    }
    if count_bytes {
        bytes += size(&terminal);
    }
    let Event::Result { cached, payload, .. } = terminal else {
        return Err(format!("job answered {terminal:?}"));
    };
    let payload =
        serde_json::to_string(&payload).map_err(|e| format!("cannot encode payload: {e:?}"))?;
    Ok(Answer { accepted_s, result_s, cached, payload, frames, bytes })
}

fn entry_of(payload: &str) -> Result<CampaignEntry, String> {
    let value: serde_json::Value =
        serde_json::from_str(payload).map_err(|e| format!("payload is not JSON: {e:?}"))?;
    let serde_json::Value::Object(fields) = value else {
        return Err("payload is not an object".to_string());
    };
    let entry = fields.iter().find(|(k, _)| k == "entry").ok_or("payload lacks `entry`")?;
    serde_json::from_value(&entry.1).map_err(|e| format!("payload entry: {e:?}"))
}

/// What the traced extras reuse from the timed phase.
pub struct Session {
    cold: Vec<(FleetSpec, Answer)>,
    /// `(submit→Accepted, Accepted→Result)` of every cache hit (s).
    hit_spans: Vec<(f64, f64)>,
}

/// Cold specs whose results have arrived, with their payloads.
type Completed = Mutex<Vec<(FleetSpec, String)>>;

/// One hit client's outcome.
#[derive(Default)]
struct Hits {
    ms: Vec<f64>,
    spans: Vec<(f64, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

/// A closed-loop client resubmitting completed cold specs (chosen by
/// its own seeded stream) until it has issued [`HITS_PER_CLIENT`] of
/// them, or until the cold jobs end without any having completed.
fn hit_client(
    addr: std::net::SocketAddr,
    mut rng: u64,
    completed: &Completed,
    cold_done: &AtomicBool,
) -> Hits {
    let mut hits = Hits::default();
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            hits.attempted += 1;
            hits.failures.push(e);
            return hits;
        }
    };
    while hits.attempted < HITS_PER_CLIENT as u64 {
        let past = cold_done.load(Ordering::Acquire);
        let pick = {
            let done = completed.lock().expect("completed-specs lock");
            (!done.is_empty()).then(|| done[(mix(&mut rng) % done.len() as u64) as usize].clone())
        };
        let Some((spec, cold_payload)) = pick else {
            if past {
                return hits;
            }
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        hits.attempted += 1;
        match submit(&mut client, &spec, false) {
            Ok(a) => {
                hits.ms.push(a.result_s * 1e3);
                hits.spans.push((a.accepted_s, a.result_s - a.accepted_s));
                if !a.cached {
                    hits.failures.push("a resubmission was not served from the cache".to_string());
                } else if a.payload != cold_payload {
                    hits.failures
                        .push("a cached payload differs from its cold payload".to_string());
                }
            }
            Err(e) => {
                hits.failures.push(e);
                return hits;
            }
        }
    }
    hits
}

/// The timed phase: this thread runs the cold jobs back to back while
/// [`HIT_CLIENTS`] other connections resubmit finished specs. The phase
/// ends with the last cold result; hit clients still busy then finish
/// their budget outside it.
pub fn run(args: &Args, daemon: &Daemon, plan: &mut Plan, report: &mut Report) -> (Timed, Session) {
    let mut session = Session { cold: Vec::new(), hit_spans: Vec::new() };
    let mut timed = Timed::default();
    let mut client = match connect(daemon.addr) {
        Ok(c) => c,
        Err(e) => {
            report.attempt(Err(e));
            return (timed, session);
        }
    };
    let completed: Completed = Mutex::new(Vec::new());
    let cold_done = AtomicBool::new(false);
    let hit_seeds: Vec<u64> = (0..HIT_CLIENTS).map(|_| mix(&mut plan.rng)).collect();
    let start = Instant::now();
    let hits: Vec<Hits> = std::thread::scope(|scope| {
        let clients: Vec<_> = hit_seeds
            .into_iter()
            .map(|rng| {
                let (completed, cold_done) = (&completed, &cold_done);
                scope.spawn(move || hit_client(daemon.addr, rng, completed, cold_done))
            })
            .collect();
        let mut last_s = 0.0;
        for i in 0.. {
            let elapsed = start.elapsed().as_secs_f64();
            if session.cold.len() >= MIN_COLD && elapsed + last_s > args.seconds {
                break;
            }
            let spec = plan.cold(i);
            let outcome = submit(&mut client, &spec, args.trace).and_then(|a| {
                if a.cached {
                    return Err(format!("cold spec {i} was served from the cache"));
                }
                timed.cycles += entry_of(&a.payload)?.samples;
                timed.job_ms.push(a.result_s * 1e3);
                last_s = a.result_s;
                completed
                    .lock()
                    .expect("completed-specs lock")
                    .push((spec.clone(), a.payload.clone()));
                session.cold.push((spec, a));
                Ok(())
            });
            let ok = outcome.is_ok();
            report.attempt(outcome);
            if !ok {
                break;
            }
        }
        timed.timed_s = start.elapsed().as_secs_f64();
        cold_done.store(true, Ordering::Release);
        clients.into_iter().map(|c| c.join().expect("hit client panicked")).collect()
    });

    let mut hit_ms = Samples::new();
    for h in hits {
        h.ms.iter().for_each(|&v| hit_ms.push(v));
        session.hit_spans.extend(h.spans);
        report.attempted += h.attempted - h.failures.len() as u64;
        for f in h.failures {
            report.attempt(Err(f));
        }
    }

    // Pinned: the first cold payloads of the seeded sequence.
    let hash = session
        .cold
        .iter()
        .take(MIN_COLD)
        .fold(Fingerprint::new(), |f, (_, a)| f.push_str(&a.payload))
        .finish();
    report.attempt(pins::check(pins::FLEET, args.seed, &hash));
    println!(
        "fleet cold-payload hash {hash} ({} cold, {} cached)",
        session.cold.len(),
        hit_ms.len()
    );
    report.distribution("cold_ms", &timed.job_ms, "ms");
    report.distribution("cached_ms", &hit_ms, "ms");
    (timed, session)
}

/// The traced extras: client-side spans of every submission, the
/// daemon's stream and cache counters, the fleet's overhead over a
/// direct `evaluate_job` of the same spec, and the replay of that spec.
pub fn trace(
    session: &Session,
    daemon: &mut Daemon,
    report: &mut Report,
    tracer: &mut Tracer,
    replay: &mut Replay,
) {
    for (_, a) in &session.cold {
        tracer.record("fleet.submit_to_accepted", (a.accepted_s * 1e9) as u64);
        tracer.record("fleet.accepted_to_result", ((a.result_s - a.accepted_s) * 1e9) as u64);
    }
    for &(accepted, rest) in &session.hit_spans {
        tracer.record("fleet.cached.submit_to_accepted", (accepted * 1e9) as u64);
        tracer.record("fleet.cached.accepted_to_result", (rest * 1e9) as u64);
    }
    let n = session.cold.len().max(1) as f64;
    let frames: u64 = session.cold.iter().map(|(_, a)| a.frames).sum();
    let bytes: u64 = session.cold.iter().map(|(_, a)| a.bytes).sum();
    report.line(
        "fleet.frames_per_job",
        frames as f64 / n,
        "count",
        "CycleDelta frames per cold job",
    );
    report.line("fleet.bytes_per_job", bytes as f64 / n, "bytes", "response bytes per cold job");
    match connect(daemon.addr).and_then(status) {
        Ok(status) => {
            let counter =
                |name: &str| status.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
            report.line("fleet.stream_dropped", counter("stream_dropped") as f64, "count", "");
            let (hits, misses) = (counter("fleet_cache_hits"), counter("fleet_cache_misses"));
            report.line(
                "fleet.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
                &format!("hits={hits} misses={misses}"),
            );
        }
        Err(e) => report.attempt(Err(format!("status after the run: {e}"))),
    }
    // The replay below counts heap operations process-wide, so the
    // daemon's threads must be gone first.
    report.attempt(daemon.stop());

    let Some((FleetSpec::GridPoint { cfg, index }, answer)) = session.cold.first() else {
        return;
    };
    let grid = campaign_grid(cfg);
    let job = &grid[*index].1;
    let start = Instant::now();
    let direct = tracer.span("evaluate_job", None, || {
        evaluate_job(cfg, &campaign_track(true), &campaign_camera(true), job, None)
    });
    let direct_s = start.elapsed().as_secs_f64();
    report.line(
        "fleet.overhead_ms",
        (answer.result_s - direct_s) * 1e3,
        "ms",
        "cold fleet latency minus direct evaluate_job of the same spec",
    );
    report.attempt(match entry_of(&answer.payload) {
        Ok(entry) if entry == direct => Ok(()),
        Ok(_) => Err("the fleet entry differs from a direct evaluate_job".to_string()),
        Err(e) => Err(e),
    });
    if let Some(source) = campaign::fault_source(cfg, job) {
        let recorded = replay::record(tracer, source);
        replay.pass(&recorded);
    }
}

fn status(mut client: FleetClient) -> Result<lkas_fleet::StatusInfo, String> {
    client.send(RequestOp::Status).map_err(|e| format!("cannot send status: {e}"))?;
    match client.next_event().map_err(|e| e.to_string())? {
        Event::Status(info) => Ok(info),
        other => Err(format!("unexpected status answer {other:?}")),
    }
}
