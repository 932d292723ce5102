//! Command-line edges of `isp_throughput`: `--help` prints usage and
//! exits 0, unknown flags and malformed values exit 2, and none of them
//! runs the bench or writes a result file.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary in a fresh, empty working directory and returns its
/// output plus whatever it left in that directory.
fn run(name: &str, args: &[&str]) -> (Output, Vec<PathBuf>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("isp_throughput_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_isp_throughput"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run isp_throughput");
    let left: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().map(|entry| entry.unwrap().path()).collect();
    (out, left)
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    for (name, args) in
        [("help", &["--help"][..]), ("h", &["-h"]), ("check_help", &["check", "--help"])]
    {
        let (out, left) = run(name, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Usage: isp_throughput"), "{args:?}: {stdout}");
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("iters/cell"), "bench ran");
    }
}

#[test]
fn unknown_flags_and_bad_values_exit_2_and_write_nothing() {
    let cases: [(&str, &[&str]); 6] = [
        ("typo", &["--iter", "3"]),
        ("positional", &["bogus"]),
        ("bad_iters", &["--iters", "many"]),
        ("missing_value", &["--threads"]),
        ("check_without_baseline", &["check", "--iters", "1"]),
        ("check_flag_outside_check", &["--baseline", "BENCH_isp_baseline.json"]),
    ];
    for (name, args) in cases {
        let (out, left) = run(name, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:") && stderr.contains("Usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("iters/cell"), "{args:?}: the bench must not run");
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
}
