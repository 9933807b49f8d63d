//! `perfbench`: run one workload and print its metrics, or run workloads
//! repeatedly and print each metric's median and quartiles.
//!
//! ```text
//! perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat N] [--tasks N] [--campaigns N]
//!           [--daemon PATH] [--work-dir DIR] [--tamper]
//! ```
//!
//! A single run prints notes, one `check` line per output check, one
//! `metric <name> <value> <unit>` line per metric and, last, the JSON
//! result line; it exits 1 if a check failed and 2 if the run could not
//! be made.  `--workload all` or `--repeat N` runs each workload N times
//! (seeds N, N+1, …) in child processes and prints a summary.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use perfbench::pct::{median, quartiles};
use perfbench::report::{parse_metric_lines, END_TO_END, PER_LAYER};
use perfbench::{environment, run_workload, Ctx, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: String,
    repeat: Option<u32>,
    ctx: Ctx,
    /// The flags to pass on to child runs.
    passthrough: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        repeat: None,
        ctx: Ctx {
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            tasks: None,
            campaigns: None,
            daemon: PathBuf::from("target/release/redundancy"),
            work_dir: PathBuf::from("perfbench/.work"),
            tamper: false,
        },
        passthrough: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tamper" {
            args.ctx.tamper = true;
            args.passthrough.push(flag);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.ctx.seed = value.parse().map_err(|_| bad("a 64-bit integer"))?,
            "--seconds" => {
                args.ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("a positive count"))?,
                );
                continue;
            }
            "--tasks" => {
                args.ctx.tasks = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("a positive task count"))?,
                )
            }
            "--campaigns" => {
                args.ctx.campaigns = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("a positive campaign count"))?,
                )
            }
            "--daemon" => args.ctx.daemon = PathBuf::from(&value),
            "--work-dir" => args.ctx.work_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        if !matches!(flag.as_str(), "--workload" | "--seed") {
            args.passthrough.extend([flag, value]);
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {WORKLOADS:?} or all"
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.ctx.work_dir.display());
        return ExitCode::from(2);
    }
    if args.workload == "all" || args.repeat.is_some() {
        return repeat(&args);
    }
    println!("{}", environment(&args.ctx));
    let steal_before = perfbench::procfs::cpu_steal();
    match run_workload(&args.workload, &args.ctx) {
        Ok(mut result) => {
            let steal =
                perfbench::procfs::steal_share(steal_before, perfbench::procfs::cpu_steal());
            result
                .notes
                .push(format!("cpu steal during the run: {steal:.4} of CPU time"));
            let names = if args.ctx.trace {
                PER_LAYER
            } else {
                END_TO_END
            };
            print!("{}", result.render(names));
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// Run each selected workload `--repeat` times (once for `all` alone) in
/// child processes with seeds `seed, seed+1, …`, and print every metric's
/// median, quartiles and spread (interquartile range over median).
fn repeat(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let runs = args.repeat.unwrap_or(1);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: locating this program: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", environment(&args.ctx));
    let mut failed = false;
    for w in workloads {
        let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seed = args.ctx.seed.wrapping_add(u64::from(i));
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(&args.passthrough)
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: running {w}: {e}");
                    return ExitCode::from(2);
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            for line in text.lines().filter(|l| l.starts_with("check ")) {
                if runs == 1 || line.contains("FAILED") {
                    println!("{w} seed {seed}: {line}");
                }
            }
            if !out.status.success() {
                failed = true;
                eprintln!(
                    "perfbench: {w} seed {seed} failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                );
                continue;
            }
            for (name, v, unit) in parse_metric_lines(&text) {
                values.entry((name, unit)).or_default().push(v);
            }
        }
        println!("workload {w}: {runs} run(s)");
        println!(
            "  {:<28} {:>14} {:>14} {:>14} {:>8}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        for ((name, unit), v) in &values {
            let m = median(v);
            let (q1, q3) = quartiles(v).map_or((m, m), |q| (q[0], q[2]));
            let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
            println!("  {name:<28} {m:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}  {unit}");
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
