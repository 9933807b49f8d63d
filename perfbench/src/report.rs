//! Metric names, output checks and the run's printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("assign_per_s", "1/s"),
    ("req_p50_us", "us"),
    ("cpu_us_per_assign", "us/assign"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed as `metric` lines when measured but kept out of the
/// JSON result: the tail latency, whose run-to-run spread exceeds any
/// bound `BENCHMARK.json` may set on a shared host.
pub const UNGATED: &[(&str, &str)] = &[("req_p99_us", "us")];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.  A layer a
/// workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cli.ctx_switches_per_req", "switch/req"),
    ("cli.sys_us_per_req", "us/req"),
    ("cli.user_us_per_req", "us/req"),
    ("io.rtt_self_us", "us"),
    ("protocol.handle_self_ns", "ns"),
    ("protocol.err_frames", "count"),
    ("store.request_work_ns", "ns"),
    ("store.return_result_ns", "ns"),
    ("store.useful_ratio", "ratio"),
    ("store.timeouts", "count"),
    ("store.bytes_per_task", "B/task"),
    ("store.init_ms", "ms"),
    ("journal.append_self_ns", "ns"),
    ("journal.fsync_us", "us"),
    ("journal.fsyncs_per_record", "fsync/record"),
    ("journal.bytes_per_record", "B/record"),
    ("journal.replay_ns_per_record", "ns/record"),
    ("recover_s", "s"),
    ("engine.campaign_us", "us"),
    ("samplers.draw_ns", "ns"),
    ("engine.bin_tally_us", "us"),
    ("parallel.scaling_t2", "ratio"),
    ("plan.build_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// Output checks, counted by name so repeated sessions print one line
/// each.
#[derive(Debug, Default)]
pub struct Checks {
    by_name: BTreeMap<String, (u64, u64, Option<String>)>,
}

impl Checks {
    /// Record one check; the first failure's detail is kept.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let e = self.by_name.entry(name.to_string()).or_default();
        if ok {
            e.0 += 1;
        } else {
            e.1 += 1;
            if e.2.is_none() {
                e.2 = Some(detail());
            }
        }
    }

    /// Number of failed checks.
    pub fn failures(&self) -> u64 {
        self.by_name.values().map(|e| e.1).sum()
    }

    fn render(&self, out: &mut String) {
        for (name, (pass, fail, detail)) in &self.by_name {
            if *fail == 0 {
                let _ = writeln!(out, "check {name} ok ({pass} passed)");
            } else {
                let _ = writeln!(
                    out,
                    "check {name} FAILED ({fail} of {}): {}",
                    pass + fail,
                    detail.as_deref().unwrap_or("")
                );
            }
        }
    }
}

/// One run's outcome: checks, counts and metrics.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every output check made.
    pub checks: Checks,
    /// Operations attempted (requests, or `detection_experiment` calls).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed before the metrics (what was run, cross-checks).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.failures() == 0 && self.failed == 0
    }

    /// The printed report: notes, checks, one `metric` line per metric of
    /// `names` (0 when not measured) and per other metric measured, and
    /// last the JSON result line, which carries exactly `names`.
    pub fn render(&self, names: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        self.checks.render(&mut out);
        let value = |name: &str| {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        };
        let values: Vec<(&str, &str, f64)> = names
            .iter()
            .map(|&(name, unit)| (name, unit, value(name)))
            .collect();
        let extra = self
            .metrics
            .keys()
            .filter(|k| !names.iter().any(|(n, _)| n == *k))
            .filter_map(|k| {
                PER_LAYER
                    .iter()
                    .chain(END_TO_END)
                    .chain(UNGATED)
                    .find(|(n, _)| n == k)
            });
        for (name, unit, v) in values
            .iter()
            .copied()
            .chain(extra.map(|&(n, u)| (n, u, value(n))))
        {
            let _ = writeln!(out, "metric {name} {v} {unit}");
        }
        let metrics: Vec<String> = values
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Parse the `metric <name> <value> <unit>` lines of a report.
pub fn parse_metric_lines(report: &str) -> Vec<(String, f64, String)> {
    report
        .lines()
        .filter_map(|l| {
            let mut w = l.strip_prefix("metric ")?.split_whitespace();
            let name = w.next()?.to_string();
            let value = w.next()?.parse().ok()?;
            Some((name, value, w.next()?.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ends_with_the_json_line_and_round_trips_metric_lines() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.set("assign_per_s", 1234.5);
        r.set("setup_s", 0.012);
        r.checks.check("checksum", true, String::new);
        let text = r.render(END_TO_END);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.012, \"unit\": \"s\"}"));
        let parsed = parse_metric_lines(&text);
        assert_eq!(parsed.len(), END_TO_END.len());
        r.set("fail_frac", 0.0);
        r.set("req_p99_us", 12.5);
        let text = r.render(END_TO_END);
        assert!(text.contains("metric fail_frac 0 ratio\n"), "{text}");
        assert!(text.contains("metric req_p99_us 12.5 us\n"), "{text}");
        let last = text.lines().last().unwrap();
        assert!(!last.contains("fail_frac") && !last.contains("req_p99_us"));
        assert_eq!(parsed[0], ("assign_per_s".into(), 1234.5, "1/s".into()));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = RunResult::default();
        r.checks.check("checksum", true, String::new);
        r.checks.check("checksum", false, || "0x1 != 0x2".into());
        assert!(!r.correct());
        let text = r.render(END_TO_END);
        assert!(text.contains("check checksum FAILED (1 of 2): 0x1 != 0x2"));
        assert!(text
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
