//! The unified-entry-point contract: `redundancy repro <exhibit>` is
//! byte-for-byte the same surface as the legacy standalone binary and the
//! pinned golden snapshot, at more than one thread count.
//!
//! One test per registry entry (so failures name the drifted exhibit and
//! the suite parallelizes), plus registry/harness consistency checks and
//! process-level coverage of the shared parser's `--trials-scale`
//! validation.

use redundancy_integration::snapshot::{run_exhibit, snapshot_path, EXHIBITS};
use std::path::Path;
use std::process::Command;

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// `redundancy repro <name> --threads <t>` stdout, via the in-process CLI
/// entry point (the same code path `main` runs).
fn cli_repro(name: &str, threads: &str) -> String {
    redundancy_cli::run(&argv(&["repro", name, "--threads", threads]))
        .unwrap_or_else(|e| panic!("`redundancy repro {name}` failed: {e}"))
}

/// The three-way byte equality at thread counts 1 and 4: pinned snapshot,
/// standalone binary at `bin` (honoring `SNAPSHOT_THREADS`), unified CLI.
fn check_unified(name: &str, bin: &Path) {
    let snapshot = std::fs::read_to_string(snapshot_path(name)).unwrap_or_else(|e| {
        panic!(
            "no snapshot for {name} at {}: {e}",
            snapshot_path(name).display()
        )
    });
    let binary = run_exhibit(name, bin);
    assert_eq!(
        binary, snapshot,
        "standalone binary {name} drifted from its snapshot"
    );
    for threads in ["1", "4"] {
        let unified = cli_repro(name, threads);
        assert_eq!(
            unified, snapshot,
            "`redundancy repro {name} --threads {threads}` is not byte-identical \
             to the pinned snapshot"
        );
    }
}

macro_rules! unified_tests {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check_unified(
                stringify!($name),
                Path::new(env!(concat!("CARGO_BIN_EXE_", stringify!($name)))),
            );
        }
    )+};
}

unified_tests!(
    fig1_detection_vs_p,
    fig2_minimizing_table,
    fig3_redundancy_factors,
    fig4_assignment_table,
    sec6_implementation,
    sec7_extension,
    theory_checks,
    appendix_a_collusion,
    empirical_detection,
    ext_survival,
    ext_faults,
    ext_churn,
    ext_serve,
);

/// The registry, the snapshot harness's exhibit list, and the macro above
/// must all name the same 13 exhibits in the same order.
#[test]
fn registry_matches_the_snapshot_harness() {
    let registry: Vec<&str> = redundancy_repro::registry()
        .iter()
        .map(|e| e.name())
        .collect();
    assert_eq!(registry, EXHIBITS.to_vec());
}

/// `--trials-scale 0` is rejected at the process level with exit code 2
/// and an error naming the flag.  The unified subcommand shares this
/// parser; its process-level twin is in the CLI crate's `exit_codes`
/// suite, where cargo builds the `redundancy` binary.
#[test]
fn trials_scale_zero_exits_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_appendix_a_collusion"))
        .args(["--trials-scale", "0"])
        .output()
        .expect("spawning appendix_a_collusion");
    assert_eq!(
        out.status.code(),
        Some(2),
        "should exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trials-scale"),
        "stderr must name the flag: {stderr}"
    );
    assert!(out.stdout.is_empty(), "must not print a report");
}

/// The same validation is reachable in-process, matching the established
/// `bad value` wording.
#[test]
fn trials_scale_zero_in_process_error_names_the_flag() {
    let err =
        redundancy_cli::run(&argv(&["repro", "theory_checks", "--trials-scale", "0"])).unwrap_err();
    assert!(err.contains("--trials-scale"), "{err}");
    assert!(err.contains("bad value"), "{err}");
}

/// Unknown flags are a strict error through the unified subcommand (unlike
/// the lenient legacy binaries), and unknown exhibits point at `--list`.
#[test]
fn unified_rejects_unknown_flags_and_exhibits() {
    let err = redundancy_cli::run(&argv(&["repro", "theory_checks", "--bogus", "1"])).unwrap_err();
    assert!(err.contains("unknown flag `--bogus` for `repro`"), "{err}");
    let err = redundancy_cli::run(&argv(&["repro", "no_such_exhibit"])).unwrap_err();
    assert!(err.contains("repro --list"), "{err}");
    let err = redundancy_cli::run(&argv(&["repro"])).unwrap_err();
    assert!(err.contains("repro --list"), "{err}");
}

/// `--json` emits a valid `repro-report/v1` document whose envelope echoes
/// the context, alongside unchanged stdout.
#[test]
fn json_report_carries_the_envelope() {
    let dir = std::env::temp_dir().join("repro_unified_json_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sec7.json");
    let out = redundancy_cli::run(&argv(&[
        "repro",
        "sec7_extension",
        "--seed",
        "7",
        "--json",
        path.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(
        out,
        std::fs::read_to_string(snapshot_path("sec7_extension")).unwrap(),
        "--json must not change stdout"
    );
    let doc = redundancy_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.field_str("schema").unwrap(), "repro-report/v1");
    assert_eq!(doc.field_str("exhibit").unwrap(), "sec7_extension");
    assert_eq!(doc.field_u64("seed").unwrap(), 7);
    assert!(doc.field("passed").unwrap().as_bool().unwrap());
    assert!(!doc.field_arr("sections").unwrap().is_empty());
    let _ = std::fs::remove_file(&path);
}
