//! Result reporting: one human-readable line per figure on standard
//! output, then the machine-readable summary as the last line.

use crate::stats::Samples;

/// Metrics every untraced run reports (`BENCHMARK.json`'s `end_to_end`).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("cycles_per_s", "1/s"), ("job_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Metrics every traced run reports (`BENCHMARK.json`'s `per_layer`).
pub const PER_LAYER: [(&str, &str); 33] = [
    ("scene.render_us.p50", "us"),
    ("scene.render_us.p99", "us"),
    ("sensor.capture_us.p50", "us"),
    ("sensor.capture_us.p99", "us"),
    ("isp.process_us.p50", "us"),
    ("isp.process_us.p99", "us"),
    ("classifier.window_us.p50", "us"),
    ("classifier.window_us.p99", "us"),
    ("classifier.invocations", "count"),
    ("classifier.accuracy", "ratio"),
    ("perception.process_us.p50", "us"),
    ("perception.process_us.p99", "us"),
    ("perception.fail_ratio", "ratio"),
    ("control.design_us.p50", "us"),
    ("control.cache_hit_ratio", "ratio"),
    ("control.step_us.p50", "us"),
    ("vehicle.step_us.p50", "us"),
    ("cycle_us.p50", "us"),
    ("cycle_us.p99", "us"),
    ("hil.replay_coverage", "ratio"),
    ("hil.trace_overhead", "ratio"),
    ("scene.render.heap_ops_per_call", "count"),
    ("sensor.capture.heap_ops_per_call", "count"),
    ("isp.process.heap_ops_per_call", "count"),
    ("classifier.window.heap_ops_per_call", "count"),
    ("perception.process.heap_ops_per_call", "count"),
    ("control.step.heap_ops_per_call", "count"),
    ("vehicle.step.heap_ops_per_call", "count"),
    ("cycle.heap_ops_per_call", "count"),
    ("platform.isp.modeled_over_host", "ratio"),
    ("platform.perception.modeled_over_host", "ratio"),
    ("platform.classifier.modeled_over_host", "ratio"),
    ("platform.control.modeled_over_host", "ratio"),
];

/// The run's figures and its operation accounting.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// Records one attempted operation; `Err` counts it as failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Records a failure found by a check that is not an operation of
    /// its own (it still counts as one attempted operation).
    pub fn fail(&mut self, message: String) {
        eprintln!("FAILED: {message}");
        self.failures.push(message);
    }

    /// A declared metric: printed and carried in the summary line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.line(name, value, unit, detail);
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// A figure printed for the reader only (workload-specific, or a
    /// companion of a declared metric).
    pub fn line(&self, name: &str, value: f64, unit: &str, detail: &str) {
        if detail.is_empty() {
            println!("{name:<44} {value:>14.6} {unit}");
        } else {
            println!("{name:<44} {value:>14.6} {unit}  ({detail})");
        }
    }

    /// Prints the median and the tail percentile of `samples` when it
    /// has enough support, with the sample count.
    pub fn distribution(&self, name: &str, samples: &Samples, unit: &str) {
        let mut s = samples.clone();
        let n = s.len();
        if let Some(p50) = s.median() {
            self.line(&format!("{name}.p50"), p50, unit, &format!("n={n}"));
        }
        for (q, label) in [(0.99, "p99"), (0.9, "p90")] {
            if let Some(v) = s.tail(q) {
                self.line(&format!("{name}.{label}"), v, unit, &format!("n={n}"));
                break;
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The summary line: `correct`, `attempted`, `failed` and the
    /// declared metrics of this mode, in declaration order.
    pub fn summary(&mut self, declared: &[(&str, &str)]) -> String {
        let mut parts = Vec::new();
        for &(name, unit) in declared {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, value, _)) if value.is_finite() => {
                    parts.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
                }
                _ => self.fail(format!("metric `{name}` was not measured")),
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(self.failed()).max(1),
            self.failed(),
            parts.join(", ")
        )
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
