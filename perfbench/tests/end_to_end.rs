//! Every workload end to end at a tiny size, untraced and traced, and a
//! wrong expected output failing the command.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use perfbench::report::{END_TO_END, PER_LAYER};

/// The release `redundancy` binary, built once into this test's target
/// directory.
fn daemon() -> &'static Path {
    static DAEMON: OnceLock<PathBuf> = OnceLock::new();
    DAEMON.get_or_init(|| {
        let exe = std::env::current_exe().expect("test executable path");
        // <target>/<profile>/deps/<test binary>
        let target = exe
            .ancestors()
            .nth(3)
            .expect("test binary sits under a target directory");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--quiet", "--bin", "redundancy"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target)
            .status()
            .expect("running cargo");
        assert!(status.success(), "building the daemon failed");
        target.join("release").join("redundancy")
    })
}

fn perfbench(name: &str, args: &[&str]) -> Output {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--daemon")
        .arg(daemon())
        .arg("--work-dir")
        .arg(&work)
        .args(args)
        .output()
        .expect("running perfbench")
}

/// Run `args` and check the contract: exit 0, `correct` true, and every
/// metric of the run's kind named in the final JSON line.
fn assert_runs_clean(name: &str, args: &[&str], traced: bool) {
    let out = perfbench(name, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{name} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let names = if traced { PER_LAYER } else { END_TO_END };
    for (metric, unit) in names {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{name}: {metric} missing from {last}"
        );
        assert!(stdout.contains(&format!("metric {metric} ")), "{metric}");
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    if !traced {
        assert!(stdout.contains("metric req_p99_us "), "the tail is printed");
        assert!(!last.contains("req_p99_us"), "the tail is not gated");
    }
    assert!(stdout.lines().next().unwrap().starts_with("env nproc="));
    assert!(stdout.contains("transport=loopback"));
}

const TINY_SERVE: [&str; 4] = ["--seconds", "0.2", "--seed", "5"];

#[test]
fn serve_rtt_runs_end_to_end() {
    let args = [
        &TINY_SERVE[..],
        &["--workload", "serve-rtt", "--tasks", "300"],
    ]
    .concat();
    assert_runs_clean("rtt", &args, false);
    let traced = [&args[..], &["--trace", "1"]].concat();
    assert_runs_clean("rtt-traced", &traced, true);
}

#[test]
fn serve_pipelined_runs_end_to_end() {
    let args = [
        &TINY_SERVE[..],
        &["--workload", "serve-pipelined", "--tasks", "3000"],
    ]
    .concat();
    assert_runs_clean("pipelined", &args, false);
    let traced = [&args[..], &["--trace", "1"]].concat();
    assert_runs_clean("pipelined-traced", &traced, true);
}

#[test]
fn serve_journal_runs_end_to_end() {
    let args = [
        &TINY_SERVE[..],
        &["--workload", "serve-journal", "--tasks", "2000"],
    ]
    .concat();
    assert_runs_clean("journal", &args, false);
    let traced = [&args[..], &["--trace", "1"]].concat();
    assert_runs_clean("journal-traced", &traced, true);
}

#[test]
fn montecarlo_runs_end_to_end() {
    let args = [
        "--workload",
        "montecarlo",
        "--seconds",
        "0.2",
        "--tasks",
        "500",
        "--campaigns",
        "8",
    ];
    assert_runs_clean("montecarlo", &args, false);
    let traced = [&args[..], &["--trace", "1"]].concat();
    assert_runs_clean("montecarlo-traced", &traced, true);
}

fn assert_tamper_fails(name: &str, args: &[&str], check: &str) {
    let out = perfbench(name, args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!("check {check} FAILED")),
        "{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false"), "{last}");
    assert!(
        !last.contains("\"failed\": 0,"),
        "a failed check counts: {last}"
    );
}

#[test]
fn a_wrong_expected_checksum_fails_the_command() {
    let args = [
        &TINY_SERVE[..],
        &[
            "--tasks",
            "2000",
            "--workload",
            "serve-pipelined",
            "--tamper",
        ],
    ]
    .concat();
    assert_tamper_fails("tamper-pipelined", &args, "daemon-checksum");
    let args = [
        &TINY_SERVE[..],
        &["--tasks", "200", "--workload", "serve-rtt", "--tamper"],
    ]
    .concat();
    assert_tamper_fails("tamper-rtt", &args, "daemon-checksum");
}

#[test]
fn a_wrong_closed_form_fails_montecarlo() {
    let args = [
        "--workload",
        "montecarlo",
        "--seconds",
        "0.2",
        "--tasks",
        "500",
        "--campaigns",
        "8",
        "--tamper",
    ];
    assert_tamper_fails("tamper-montecarlo", &args, "p1-closed-form");
}

#[test]
fn an_unknown_workload_exits_2_without_a_result() {
    let out = perfbench("unknown", &["--workload", "serve-nothing"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
