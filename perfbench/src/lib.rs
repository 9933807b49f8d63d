//! The repository's end-to-end benchmark.
//!
//! Three workloads spawn the release `redundancy serve` daemon and drive it
//! over the host loopback interface from one generator thread; a fourth
//! runs the Monte-Carlo kernel in process.  Untraced runs print the
//! end-to-end metrics; traced runs print per-layer metrics taken from
//! outside the program: the daemon's `/proc` counters, and spans around
//! calls into the public API of an in-process host that mirrors the
//! daemon.  See `perfbench/README.md`.

pub mod client;
pub mod daemon;
pub mod host;
pub mod montecarlo;
pub mod pct;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;

use report::RunResult;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve-rtt",
    "serve-pipelined",
    "serve-journal",
    "montecarlo",
];

/// The workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_050_926;

/// Everything a run needs besides its workload.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed: the daemon's `--seed`, the abandon hash and the
    /// Monte-Carlo seeds derive from it.
    pub seed: u64,
    /// Seconds of work to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Tasks per session, overriding the workload's size.
    pub tasks: Option<u64>,
    /// Campaigns per Monte-Carlo call, overriding the workload's size.
    pub campaigns: Option<u64>,
    /// The `redundancy` binary.
    pub daemon: PathBuf,
    /// Directory for journals and span dumps.
    pub work_dir: PathBuf,
    /// Corrupt every expected output, to show that the checks bite.
    pub tamper: bool,
}

/// Run the named workload.
pub fn run_workload(name: &str, ctx: &Ctx) -> Result<RunResult, String> {
    if name == "montecarlo" {
        return montecarlo::run(ctx);
    }
    let shape = serve::SHAPES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {WORKLOADS:?}"))?;
    serve::run(shape, ctx)
}

/// The environment line printed with every run.
pub fn environment(ctx: &Ctx) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = procfs::fs_type(&ctx.work_dir).unwrap_or_else(|_| "unknown".into());
    format!(
        "env nproc={nproc} kernel={} journal_fs={fs} transport=loopback",
        procfs::kernel_release()
    )
}
