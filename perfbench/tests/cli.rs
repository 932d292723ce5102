//! Command-line hygiene and smoke-length runs of every workload.
//!
//! The smoke runs execute each workload once untraced and once traced
//! at `--seconds 1` (a few minutes in total) from an empty working
//! directory, and check that the summary line carries exactly the
//! metrics `BENCHMARK.json` declares and that nothing was written.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_lkas-perfbench");

fn run(args: &[&str], cwd: &Path) -> Output {
    Command::new(BIN).args(args).current_dir(cwd).output().expect("spawn the benchmark")
}

fn field<'v>(value: &'v Value, name: &str) -> &'v Value {
    match value {
        Value::Object(fields) => {
            &fields.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no `{name}`")).1
        }
        other => panic!("`{name}` looked up in a {}", other.kind()),
    }
}

fn array(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, found a {}", other.kind()),
    }
}

fn string(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, found a {}", other.kind()),
    }
}

/// The benchmark declaration at the repository root.
fn declaration() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    array(field(&declaration(), section))
        .iter()
        .map(|m| (string(field(m, "name")).to_string(), string(field(m, "unit")).to_string()))
        .collect()
}

/// A fresh, empty working directory for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = run(&["--help"], &scratch_dir("help"));
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["campaign-quick", "fig7-trained", "fleet-mixed", "--seed", "--trace"] {
        assert!(text.contains(name), "usage lacks {name}: {text}");
    }
}

#[test]
fn bad_arguments_exit_with_code_two() {
    let dir = scratch_dir("bad-args");
    for args in [
        &["--workload", "fleet-mixed", "--sed", "1"][..],
        &["--workload", "warp"][..],
        &["--seed", "1"][..],
        &["--workload", "fig7-trained", "--trace", "yes"][..],
        &["--workload", "fig7-trained", "--seconds"][..],
    ] {
        let out = run(args, &dir);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn workload_names_match_the_declaration() {
    let names: Vec<String> = array(field(&declaration(), "workloads"))
        .iter()
        .map(|w| string(field(w, "name")).to_string())
        .collect();
    assert_eq!(names, ["campaign-quick", "fig7-trained", "fleet-mixed"]);
}

#[test]
fn smoke_runs_emit_every_declared_metric_and_write_nothing() {
    for workload in ["campaign-quick", "fig7-trained", "fleet-mixed"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let dir = scratch_dir(&format!("smoke-{workload}-{trace}"));
            let out = run(
                &["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace],
                &dir,
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a summary line");
            let summary: Value = serde_json::from_str(last).expect("the summary is JSON");
            assert_eq!(field(&summary, "correct"), &Value::Bool(true));
            assert_eq!(field(&summary, "failed").as_f64(), Some(0.0));
            let metrics = match field(&summary, "metrics") {
                Value::Object(fields) => fields.clone(),
                other => panic!("metrics is a {}", other.kind()),
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), string(field(m, "unit")).to_string()))
                .collect();
            assert_eq!(emitted, declared(section), "{workload} trace {trace}");
            for (name, m) in &metrics {
                let v = field(m, "value").as_f64().expect("numeric value");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
            }
            let written: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
            assert!(written.is_empty(), "{workload} wrote into its working directory");
        }
    }
}
