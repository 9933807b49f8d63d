//! Golden-snapshot harness for the repro binaries.
//!
//! Every exhibit binary in `crates/repro` is deterministic for its default
//! seed — including across thread counts, thanks to the chunk-seeded trial
//! runner — so its entire stdout can be pinned byte-for-byte.  The suite
//! in `crates/repro/tests/it_snapshots.rs` runs each binary and compares
//! against the files committed under `tests/snapshots/`.  It lives in the
//! repro crate because cargo builds a package's binaries for that
//! package's own integration tests and passes their paths in as
//! `CARGO_BIN_EXE_<name>`; the helpers here take that path.
//!
//! Workflow:
//!
//! * a mismatch fails the test with a first-difference summary and the
//!   regeneration command;
//! * `UPDATE_SNAPSHOTS=1 cargo test -p redundancy-repro --test
//!   it_snapshots` rewrites the files and reports what changed;
//! * regeneration is refused when `CI` is set (GitHub sets `CI=true`), so
//!   a pipeline can never silently bless drifted output;
//! * `SNAPSHOT_THREADS=<n>` forwards `--threads <n>` to every binary —
//!   the snapshots must not depend on it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every repro exhibit, one binary per table/figure of the paper plus the
/// workspace's own extensions.
pub const EXHIBITS: [&str; 13] = [
    "fig1_detection_vs_p",
    "fig2_minimizing_table",
    "fig3_redundancy_factors",
    "fig4_assignment_table",
    "sec6_implementation",
    "sec7_extension",
    "theory_checks",
    "appendix_a_collusion",
    "empirical_detection",
    "ext_survival",
    "ext_faults",
    "ext_churn",
    "ext_serve",
];

/// Decide whether a mismatch should rewrite the snapshot instead of
/// failing.  Pure so the policy itself is unit-testable: regeneration
/// requires `UPDATE_SNAPSHOTS` to be set to something truthy and is always
/// refused when `CI` is set non-empty (CI must gate, never bless).
pub fn should_update(update_env: Option<&str>, ci_env: Option<&str>) -> bool {
    let wants_update = matches!(update_env, Some(v) if !v.is_empty() && v != "0");
    let in_ci = matches!(ci_env, Some(v) if !v.is_empty());
    wants_update && !in_ci
}

/// One-paragraph description of how `actual` departs from `expected`:
/// the first differing line (1-based) with both versions, and the line
/// count delta if any.
pub fn diff_summary(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    for (i, (e, a)) in exp.iter().zip(&act).enumerate() {
        if e != a {
            out.push_str(&format!(
                "first difference at line {}:\n  snapshot: {e}\n  actual:   {a}\n",
                i + 1
            ));
            break;
        }
    }
    if out.is_empty() && exp.len() != act.len() {
        let longer = if act.len() > exp.len() {
            ("actual", &act)
        } else {
            ("snapshot", &exp)
        };
        out.push_str(&format!(
            "first difference at line {}: {} continues: {}\n",
            exp.len().min(act.len()) + 1,
            longer.0,
            longer.1[exp.len().min(act.len())]
        ));
    }
    if exp.len() != act.len() {
        out.push_str(&format!(
            "line count: snapshot {} vs actual {}\n",
            exp.len(),
            act.len()
        ));
    }
    if out.is_empty() {
        out.push_str("outputs differ only in trailing bytes or line endings\n");
    }
    out
}

/// Path of the `redundancy` CLI binary in the current build profile
/// (`target/<profile>/deps/<test>-<hash>` is two levels below it).  A
/// workspace `cargo test` builds it for the CLI crate's own integration
/// tests; the exhibit binaries are instead reached through
/// `CARGO_BIN_EXE_<name>` in the repro crate's suites.
pub fn cli_binary_path() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable has a path");
    exe.parent()
        .and_then(Path::parent)
        .expect("test executable lives in target/<profile>/deps")
        .join(format!("redundancy{}", std::env::consts::EXE_SUFFIX))
}

/// The committed snapshot file for an exhibit.
pub fn snapshot_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("snapshots")
        .join(format!("{name}.txt"))
}

/// Run the exhibit binary at `bin` (its `CARGO_BIN_EXE_<name>` path) and
/// return its stdout.
///
/// Honors `SNAPSHOT_THREADS` (default 1) by forwarding `--threads`; the
/// repro CLI ignores unknown flags, so this is safe even for the exhibits
/// that are not multi-threaded.
pub fn run_exhibit(name: &str, bin: &Path) -> String {
    let threads = std::env::var("SNAPSHOT_THREADS").unwrap_or_else(|_| "1".into());
    let out = Command::new(bin)
        .args(["--threads", &threads])
        .output()
        .unwrap_or_else(|e| panic!("spawning {name} at {}: {e}", bin.display()));
    assert!(
        out.status.success(),
        "{name} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{name} emitted non-UTF-8: {e}"))
}

/// Compare the exhibit binary at `bin` against its committed snapshot, or
/// regenerate it when the environment allows (see [`should_update`]).
pub fn check_exhibit(name: &str, bin: &Path) {
    check_actual(name, &run_exhibit(name, bin));
}

/// Compare already-captured output against the committed snapshot for
/// `name`, regenerating when the environment allows.
///
/// Split from [`check_exhibit`] so the same gate serves output that does
/// not come from spawning a standalone binary — the unified
/// `redundancy repro` entry point and the `repro --list` index run
/// in-process and are pinned through this path.
pub fn check_actual(name: &str, actual: &str) {
    let path = snapshot_path(name);
    let update = should_update(
        std::env::var("UPDATE_SNAPSHOTS").ok().as_deref(),
        std::env::var("CI").ok().as_deref(),
    );
    let expected = std::fs::read_to_string(&path).ok();
    match (expected, update) {
        (Some(expected), _) if expected == actual => {}
        (expected, true) => {
            std::fs::write(&path, actual)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            match expected {
                Some(old) => eprintln!(
                    "[snapshot] {name}: rewrote {}\n{}",
                    path.display(),
                    diff_summary(&old, actual)
                ),
                None => eprintln!("[snapshot] {name}: created {}", path.display()),
            }
        }
        (Some(expected), false) => {
            panic!(
                "{name} drifted from its golden snapshot {}.\n{}\
If the change is intended, regenerate with:\n  \
UPDATE_SNAPSHOTS=1 cargo test -p redundancy-repro --test it_snapshots\n\
(refused in CI: the snapshots job only gates)",
                path.display(),
                diff_summary(&expected, actual)
            );
        }
        (None, false) => {
            panic!(
                "no snapshot committed at {}; generate one locally with \
UPDATE_SNAPSHOTS=1 cargo test -p redundancy-repro --test it_snapshots",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_policy_requires_flag_and_refuses_ci() {
        assert!(!should_update(None, None));
        assert!(!should_update(Some(""), None));
        assert!(!should_update(Some("0"), None));
        assert!(should_update(Some("1"), None));
        assert!(should_update(Some("1"), Some("")));
        // GitHub Actions sets CI=true: regeneration must be a no-op there.
        assert!(!should_update(Some("1"), Some("true")));
        assert!(!should_update(None, Some("true")));
    }

    #[test]
    fn diff_summary_pinpoints_the_first_change() {
        let s = diff_summary("a\nb\nc\n", "a\nX\nc\n");
        assert!(s.contains("line 2"), "{s}");
        assert!(
            s.contains("snapshot: b") && s.contains("actual:   X"),
            "{s}"
        );
    }

    #[test]
    fn diff_summary_reports_length_changes() {
        let s = diff_summary("a\nb\n", "a\nb\nc\n");
        assert!(s.contains("line 3"), "{s}");
        assert!(s.contains("snapshot 2 vs actual 3"), "{s}");
        let t = diff_summary("a\nb\n", "a\nb");
        assert!(t.contains("trailing"), "{t}");
    }

    #[test]
    fn exhibit_names_are_unique_and_snapshot_paths_distinct() {
        let mut paths: Vec<_> = EXHIBITS.iter().map(|e| snapshot_path(e)).collect();
        paths.sort();
        paths.dedup();
        assert_eq!(paths.len(), EXHIBITS.len());
    }
}
