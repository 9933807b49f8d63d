//! Table-driven argument parsing for the `redundancy` command.
//!
//! The grammar is flat: a subcommand followed by `--flag value` pairs and
//! value-less switches.  Each subcommand has one table of [`Flag`] rows: a
//! flag's name, the check its value must pass, the accepted values, and
//! what an absent flag means.  Parsing, `help <command>` and the exit-2
//! messages all read that table.  Parsing is strict — unknown, repeated
//! and malformed flags are errors, not silently ignored — because a
//! supervisor mistyping `--epsilon` should not deploy an unprotected
//! computation.

use crate::USAGE;
use redundancy_sim::serve::{StreamMode, SyncPolicy};
use redundancy_stats::{SamplerMode, MAX_THREADS};
use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Which scheme a command operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SchemeName {
    /// The paper's Balanced distribution.
    Balanced,
    /// Golle–Stubblebine geometric distribution.
    GolleStubblebine,
    /// Plain 2-fold redundancy.
    Simple,
    /// Extended Balanced with a minimum multiplicity.
    Extended,
}

impl FromStr for SchemeName {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "balanced" | "bal" => Ok(SchemeName::Balanced),
            "golle-stubblebine" | "gs" => Ok(SchemeName::GolleStubblebine),
            "simple" => Ok(SchemeName::Simple),
            "extended" | "extended-balanced" => Ok(SchemeName::Extended),
            _ => Err(()),
        }
    }
}

/// `redundancy plan`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanArgs {
    /// Scheme to realize.
    pub scheme: SchemeName,
    /// Task count.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// §7 minimum multiplicity (extended scheme only).
    pub min_multiplicity: Option<usize>,
    /// Adversary share the guarantee must survive (boosts ε).
    pub proportion: f64,
    /// Optional JSON output path.
    pub json: Option<String>,
}

/// `redundancy analyze`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AnalyzeArgs {
    /// Scheme to analyze.
    pub scheme: SchemeName,
    /// Task count.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// Adversary share for the non-asymptotic columns.
    pub proportion: f64,
}

/// `redundancy advise`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdviseArgs {
    /// Task count.
    pub tasks: u64,
    /// Required detection threshold.
    pub epsilon: f64,
    /// Worst-case adversary share.
    pub adversary: f64,
    /// Precompute budget in tasks.
    pub precompute_budget: u64,
    /// Optional minimum multiplicity requirement.
    pub min_multiplicity: Option<usize>,
}

/// `redundancy simulate`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimulateArgs {
    /// Scheme to simulate.
    pub scheme: SchemeName,
    /// Task count per campaign.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// Adversary assignment share.
    pub proportion: f64,
    /// Number of campaigns.
    pub campaigns: u64,
    /// RNG seed.
    pub seed: u64,
    /// Trials per deterministic chunk of the parallel runner.
    pub chunk_size: u64,
    /// Worker threads for the parallel runner (0 = auto).
    pub threads: usize,
    /// Sampling backend: bit-compat (snapshot-exact) or fast (alias).
    pub sampler: SamplerMode,
}

/// `redundancy solve-sm`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SolveSmArgs {
    /// Task count.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// System dimension m.
    pub dim: usize,
    /// Use the lexicographic min-precompute refinement.
    pub min_precompute: bool,
    /// Optional MPS export path.
    pub mps: Option<String>,
}

/// `redundancy faults`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultsArgs {
    /// Scheme to simulate.
    pub scheme: SchemeName,
    /// Task count per campaign.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// Adversary assignment share.
    pub proportion: f64,
    /// Number of campaigns per sweep row.
    pub campaigns: u64,
    /// RNG seed.
    pub seed: u64,
    /// Largest per-assignment drop rate in the sweep.
    pub drop_rate: f64,
    /// Straggler probability applied to every row.
    pub straggler_rate: f64,
    /// Mean straggler delay, in ticks.
    pub straggler_delay: f64,
    /// Ticks the supervisor waits before re-issuing a copy.
    pub timeout: u64,
    /// Re-issue budget per assignment.
    pub retries: u32,
    /// Sweep rows above zero (the zero-fault baseline is always row 0).
    pub steps: u32,
    /// Trials per deterministic chunk of the parallel runner.
    pub chunk_size: u64,
    /// Thread budget shared by the sweep pool and per-row runners
    /// (0 = auto).
    pub threads: usize,
}

/// `redundancy churn`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChurnArgs {
    /// Scheme to simulate.
    pub scheme: SchemeName,
    /// Task count per campaign.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// Adversary assignment share.
    pub proportion: f64,
    /// Number of campaigns per sweep row.
    pub campaigns: u64,
    /// RNG seed.
    pub seed: u64,
    /// Per-tick worker arrival rate applied to every row.
    pub enter_rate: f64,
    /// Largest per-worker departure rate in the sweep.
    pub leave_rate: f64,
    /// Per-worker failure rate applied to every row.
    pub fail_rate: f64,
    /// Initial worker population.
    pub workers: u64,
    /// Simulation horizon in ticks.
    pub horizon: u64,
    /// Ticks between census checkpoints.
    pub census_interval: u64,
    /// Sweep rows above zero (the zero-churn baseline is always row 0).
    pub steps: u32,
    /// Trials per deterministic chunk of the parallel runner.
    pub chunk_size: u64,
    /// Thread budget shared by the sweep pool and per-row runners
    /// (0 = auto; an explicit 0 is rejected).
    pub threads: usize,
    /// Run the single-trial soak (event-loop stress) instead of the
    /// sweep.
    pub soak: bool,
}

/// `redundancy serve`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServeArgs {
    /// Scheme to serve.
    pub scheme: SchemeName,
    /// Task count of the workload.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// Adversary assignment share.
    pub proportion: f64,
    /// RNG seed for the session.
    pub seed: u64,
    /// Shard count of the assignment store (at most [`MAX_THREADS`]).
    pub shards: usize,
    /// Ticks (requests) before an in-flight copy is re-queued.
    pub timeout: u64,
    /// Re-issue budget per copy before it is abandoned.
    pub retries: u32,
    /// TCP port to listen on (0 = OS-assigned); absent = no TCP.
    pub port: Option<u16>,
    /// Synthetic concurrent clients for the self-driving TCP drain, one
    /// thread each (at most [`MAX_THREADS`]).
    pub clients: usize,
    /// Serve the framed protocol over stdin/stdout instead.
    pub stdio: bool,
    /// RNG-stream discipline: one session stream (the batch-kernel
    /// bit-compat oracle) or one derived stream per shard.
    pub streams: StreamMode,
    /// Write a serve-report/v1 JSON document (per-shard mode only).
    pub json: Option<String>,
    /// Append every state-mutating event to this journal file.
    pub journal: Option<String>,
    /// When the journal appender hands bytes to the OS / fsyncs.
    pub sync: SyncPolicy,
    /// Replay the journal first and resume the session from it.
    pub recover: bool,
}

/// `redundancy journal-inspect`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalInspectArgs {
    /// The journal file to list and integrity-check.
    pub journal: String,
}

/// `redundancy certify`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CertifyArgs {
    /// Task count.
    pub tasks: u64,
    /// Detection threshold.
    pub epsilon: f64,
    /// Certify `S_m` for every m from 2 to this dimension.
    pub max_dim: usize,
}

/// `redundancy bench`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BenchArgs {
    /// Shrink fixture sizes and repetitions for CI smoke runs.
    pub smoke: bool,
    /// RNG seed shared by every randomized fixture.
    pub seed: u64,
    /// Where the BENCH JSON report is written.
    pub out: String,
    /// Optional baseline report to gate regressions against.
    pub baseline: Option<String>,
    /// Cap on the thread counts the scaling fixtures exercise
    /// (0 = the full 1/2/4 ladder).
    pub threads: usize,
    /// Chunk size for the `run_trials` scaling fixtures.
    pub chunk_size: u64,
    /// Override every fixture's repetition count (must be positive).
    pub reps: Option<u64>,
}

/// `redundancy repro`
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReproArgs {
    /// Exhibit to run (a registry name); absent with `--list`/`--all`.
    pub exhibit: Option<String>,
    /// List the exhibit registry instead of running anything.
    pub list: bool,
    /// Run every registry entry.
    pub all: bool,
    /// Where the `repro-report/v1` JSON goes: a file path for a single
    /// exhibit, a directory for `--all`.
    pub json: Option<String>,
    /// Shared exhibit flags (`--seed/--csv/--trials-scale/--threads`),
    /// validated by the registry's own parser.
    pub ctx: redundancy_repro::ExhibitCtx,
}

/// A fully parsed invocation: one variant per subcommand, each carrying
/// that subcommand's arguments.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Command {
    Plan(PlanArgs),
    Analyze(AnalyzeArgs),
    Advise(AdviseArgs),
    Simulate(SimulateArgs),
    SolveSm(SolveSmArgs),
    Faults(FaultsArgs),
    Churn(ChurnArgs),
    Serve(ServeArgs),
    JournalInspect(JournalInspectArgs),
    Certify(CertifyArgs),
    Bench(BenchArgs),
    Repro(ReproArgs),
    /// `redundancy help [command]`
    Help {
        /// Command to describe, if any.
        topic: Option<String>,
    },
}

/// Argument-parsing failures.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag {
        /// The offending flag.
        flag: String,
        /// The subcommand being parsed.
        command: &'static str,
    },
    /// A flag given more than once.
    RepeatedFlag {
        /// The repeated flag.
        flag: &'static str,
        /// The subcommand being parsed.
        command: &'static str,
    },
    /// A token that is neither a flag nor a flag's value.
    StrayArgument {
        /// The offending token.
        arg: String,
        /// The subcommand being parsed.
        command: &'static str,
    },
    /// Flag present but no value followed.
    MissingValue(String),
    /// A required flag was absent.
    MissingFlag {
        /// The absent flag.
        flag: &'static str,
        /// The subcommand being parsed.
        command: &'static str,
    },
    /// Value failed to parse or was out of range.
    BadValue {
        /// The flag.
        flag: String,
        /// The rejected value.
        value: String,
        /// What would have been accepted.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no command given; try `redundancy help`"),
            ArgError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}`; try `redundancy help`")
            }
            ArgError::UnknownFlag { flag, command } => {
                write!(f, "unknown flag `{flag}` for `{command}`")
            }
            ArgError::RepeatedFlag { flag, command } => {
                write!(f, "flag `{flag}` given more than once for `{command}`")
            }
            ArgError::StrayArgument { arg, command } => {
                write!(f, "unexpected argument `{arg}` for `{command}`")
            }
            ArgError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            ArgError::MissingFlag { flag, command } => {
                write!(f, "`{command}` requires `{flag}`")
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for `{flag}` (expected {expected})"),
        }
    }
}

impl std::error::Error for ArgError {}

/// One row of a subcommand's flag table.
#[derive(Debug, Clone, Copy)]
struct Flag {
    /// The flag as typed, `--` included.
    name: &'static str,
    /// Whether a value is accepted; `None` marks a switch, which takes no
    /// value.
    check: Option<fn(&str) -> bool>,
    /// The accepted values, as `help` and the bad-value message print them
    /// (a switch's says what it does).
    expected: &'static str,
    /// What an absent flag means.
    absent: Absent,
}

/// What an absent flag means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Absent {
    /// The subcommand cannot run without it.
    Required,
    /// No value: an optional flag, or a switch left off.
    Unset,
    /// This value, parsed as if it had been typed.
    Default(&'static str),
}

impl Flag {
    /// A flag whose value must pass `check`; unset when absent.
    const fn new(name: &'static str, check: fn(&str) -> bool, expected: &'static str) -> Flag {
        Flag {
            name,
            check: Some(check),
            expected,
            absent: Absent::Unset,
        }
    }

    /// A switch: given or not, with no value.
    const fn switch(name: &'static str, does: &'static str) -> Flag {
        Flag {
            name,
            check: None,
            expected: does,
            absent: Absent::Unset,
        }
    }

    /// This row, taking `value` when the flag is absent.
    const fn or(self, value: &'static str) -> Flag {
        Flag {
            absent: Absent::Default(value),
            ..self
        }
    }

    /// This row, required.
    const fn required(self) -> Flag {
        Flag {
            absent: Absent::Required,
            ..self
        }
    }
}

/// Any value that parses as a `T`.
fn parses<T: FromStr>(s: &str) -> bool {
    s.parse::<T>().is_ok()
}

/// A `T` above zero.
fn positive<T: FromStr + PartialOrd + Default>(s: &str) -> bool {
    s.parse::<T>().is_ok_and(|v| v > T::default())
}

/// A number strictly inside (0, 1).
fn open_unit(s: &str) -> bool {
    s.parse::<f64>().is_ok_and(|v| 0.0 < v && v < 1.0)
}

/// A share of assignments: a number in [0, 1).
fn share(s: &str) -> bool {
    s.parse::<f64>().is_ok_and(|v| (0.0..1.0).contains(&v))
}

/// A probability: a number in [0, 1].
fn probability(s: &str) -> bool {
    s.parse::<f64>().is_ok_and(|v| (0.0..=1.0).contains(&v))
}

/// A count `redundancy` spends one thread or one store shard on before it
/// serves anything (`--clients`, `--shards`): at most [`MAX_THREADS`], the
/// bound `--threads` keeps too.
fn thread_bound(s: &str) -> bool {
    s.parse::<usize>().is_ok_and(|n| n <= MAX_THREADS)
}

/// A store's shard count: at least one, at most [`MAX_THREADS`].
fn shard_count(s: &str) -> bool {
    positive::<usize>(s) && thread_bound(s)
}

// The rows several subcommands share; a table that needs another default
// takes the row with `.or(...)`.
const SCHEME: Flag = Flag::new(
    "--scheme",
    parses::<SchemeName>,
    "balanced | golle-stubblebine | simple | extended",
)
.or("balanced");
const TASKS: Flag = Flag::new("--tasks", positive::<u64>, "a positive integer").required();
const EPSILON: Flag =
    Flag::new("--epsilon", open_unit, "a number strictly inside (0, 1)").required();
const PROPORTION: Flag = Flag::new("--proportion", share, "a number in [0, 1)").or("0");
const SEED: Flag = Flag::new("--seed", parses::<u64>, "a 64-bit integer").or("20050926");
const CAMPAIGNS: Flag = Flag::new("--campaigns", positive::<u64>, "a positive integer").or("20");
const CHUNK_SIZE: Flag = Flag::new("--chunk-size", parses::<u64>, "a positive integer").or("4");
const THREADS: Flag = Flag::new("--threads", parses::<usize>, "a thread count (0 = auto)").or("0");
const TIMEOUT: Flag = Flag::new("--timeout", positive::<u64>, "a positive number of ticks").or("8");
const RETRIES: Flag = Flag::new("--retries", parses::<u32>, "a small integer").or("3");
const STEPS: Flag = Flag::new(
    "--steps",
    positive::<u32>,
    "a positive number of sweep steps",
)
.or("5");
const JSON: Flag = Flag::new("--json", parses::<String>, "a file path");
const JOURNAL: Flag = Flag::new("--journal", parses::<String>, "a file path");
const MIN_MULTIPLICITY: Flag = Flag::new(
    "--min-multiplicity",
    positive::<usize>,
    "a positive integer",
);

#[rustfmt::skip]
const PLAN_FLAGS: &[Flag] = &[
    SCHEME,
    TASKS,
    EPSILON,
    MIN_MULTIPLICITY,
    PROPORTION,
    JSON,
];

#[rustfmt::skip]
const ANALYZE_FLAGS: &[Flag] = &[
    SCHEME,
    TASKS,
    EPSILON,
    PROPORTION,
];

#[rustfmt::skip]
const ADVISE_FLAGS: &[Flag] = &[
    TASKS,
    EPSILON,
    Flag::new("--adversary", share, "a number in [0, 1)").or("0"),
    Flag::new("--precompute-budget", parses::<u64>, "an integer").or("0"),
    MIN_MULTIPLICITY,
];

#[rustfmt::skip]
const SIMULATE_FLAGS: &[Flag] = &[
    SCHEME,
    TASKS,
    EPSILON,
    PROPORTION,
    CAMPAIGNS,
    SEED,
    CHUNK_SIZE,
    THREADS,
    Flag::new("--sampler", parses::<SamplerMode>, "`bit-compat` or `fast`").or("bit-compat"),
];

#[rustfmt::skip]
const SOLVE_SM_FLAGS: &[Flag] = &[
    TASKS,
    EPSILON,
    Flag::new("--dim", parses::<usize>, "an integer ≥ 2").required(),
    Flag::switch("--min-precompute", "apply the lexicographic refinement"),
    Flag::new("--mps", parses::<String>, "a file path"),
];

#[rustfmt::skip]
const FAULTS_FLAGS: &[Flag] = &[
    SCHEME,
    TASKS,
    EPSILON,
    PROPORTION.or("0.1"),
    CAMPAIGNS,
    SEED,
    Flag::new("--drop-rate", probability, "a probability in [0, 1]").or("0.5"),
    Flag::new("--straggler-rate", probability, "a probability in [0, 1]").or("0"),
    Flag::new("--straggler-delay", parses::<f64>, "ticks >= 1").or("4"),
    TIMEOUT,
    RETRIES,
    STEPS,
    CHUNK_SIZE,
    THREADS,
];

#[rustfmt::skip]
const CHURN_FLAGS: &[Flag] = &[
    SCHEME,
    TASKS.or("2000"),
    EPSILON.or("0.5"),
    PROPORTION.or("0.2"),
    CAMPAIGNS.or("8"),
    SEED,
    Flag::new("--enter-rate", probability, "a probability in [0, 1]").or("0.6"),
    Flag::new("--leave-rate", probability, "a probability in [0, 1]").or("0.004"),
    Flag::new("--fail-rate", probability, "a probability in [0, 1]").or("0"),
    Flag::new("--workers", positive::<u64>, "a positive worker count").or("400"),
    Flag::new("--horizon", positive::<u64>, "a positive number of ticks").or("2000"),
    Flag::new("--census-interval", positive::<u64>, "a positive number of ticks").or("500"),
    STEPS.or("4"),
    CHUNK_SIZE,
    // "Use exactly this many": an explicit 0 is refused, and only an
    // absent flag means auto.
    Flag::new("--threads", positive::<usize>, "a positive thread count (omit for auto)"),
    Flag::switch("--soak", "run the single-trial event-loop soak instead of the sweep"),
];

#[rustfmt::skip]
const SERVE_FLAGS: &[Flag] = &[
    SCHEME,
    TASKS.or("2000"),
    EPSILON.or("0.5"),
    PROPORTION.or("0.2"),
    SEED,
    Flag::new("--shards", shard_count, "a shard count in 1..=1024").or("1"),
    TIMEOUT,
    RETRIES,
    Flag::new("--port", parses::<u16>, "a TCP port in 0..=65535"),
    Flag::new("--clients", thread_bound, "a client count in 0..=1024").or("0"),
    Flag::switch("--stdio", "serve the framed protocol over stdin/stdout"),
    Flag::new("--streams", parses::<StreamMode>, "single or per-shard").or("single"),
    JSON,
    JOURNAL,
    Flag::new("--sync", parses::<SyncPolicy>, "always, batch, or off").or("batch"),
    Flag::switch("--recover", "replay --journal first and resume its session"),
];

#[rustfmt::skip]
const JOURNAL_INSPECT_FLAGS: &[Flag] = &[
    JOURNAL.required(),
];

#[rustfmt::skip]
const CERTIFY_FLAGS: &[Flag] = &[
    TASKS.or("100000"),
    EPSILON.or("0.5"),
    Flag::new("--max-dim", parses::<usize>, "an integer ≥ 2").or("10"),
];

#[rustfmt::skip]
const BENCH_FLAGS: &[Flag] = &[
    Flag::switch("--smoke", "shrink the fixtures for CI"),
    SEED,
    Flag::new("--out", parses::<String>, "a file path").or("BENCH_report.json"),
    Flag::new("--baseline", parses::<String>, "a file path"),
    Flag::new("--threads", parses::<usize>, "a thread count (0 = full ladder)").or("0"),
    CHUNK_SIZE,
    Flag::new("--reps", positive::<u64>, "a positive repetition count"),
];

/// A table-driven subcommand.
struct Subcommand {
    name: &'static str,
    /// The flag table.
    flags: &'static [Flag],
    /// The [`Command`] the checked flags make.
    build: fn(&Values<'_>) -> Result<Command, ArgError>,
    /// The prose `help <command>` prints under the flag lines.
    about: &'static str,
}

static SUBCOMMANDS: [Subcommand; 11] = [
    Subcommand {
        name: "plan",
        flags: PLAN_FLAGS,
        build: |v| {
            Ok(Command::Plan(PlanArgs {
                scheme: v.get("--scheme"),
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                min_multiplicity: v.opt("--min-multiplicity"),
                proportion: v.get("--proportion"),
                json: v.opt("--json"),
            }))
        },
        about: "\
Builds a deployable integer plan (floored buckets, tail partition, ringers).
With --proportion, the threshold is boosted so the guarantee holds against an
adversary controlling that share of assignments (Proposition 3).
",
    },
    Subcommand {
        name: "analyze",
        flags: ANALYZE_FLAGS,
        build: |v| {
            Ok(Command::Analyze(AnalyzeArgs {
                scheme: v.get("--scheme"),
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                proportion: v.get("--proportion"),
            }))
        },
        about: "Prints per-tuple-size detection probabilities and cost metrics.\n",
    },
    Subcommand {
        name: "advise",
        flags: ADVISE_FLAGS,
        build: |v| {
            Ok(Command::Advise(AdviseArgs {
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                adversary: v.get("--adversary"),
                precompute_budget: v.get("--precompute-budget"),
                min_multiplicity: v.opt("--min-multiplicity"),
            }))
        },
        about: "Picks the cheapest scheme meeting the requirements and explains why.\n",
    },
    Subcommand {
        name: "simulate",
        flags: SIMULATE_FLAGS,
        build: |v| {
            Ok(Command::Simulate(SimulateArgs {
                scheme: v.get("--scheme"),
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                proportion: v.get("--proportion"),
                campaigns: v.get("--campaigns"),
                seed: v.get("--seed"),
                chunk_size: v.get("--chunk-size"),
                threads: v.get("--threads"),
                sampler: v.get("--sampler"),
            }))
        },
        about: "\
Runs full Monte-Carlo campaigns (assignment, collusion, verification) and
reports empirical detection rates with Wilson 95% intervals.  --chunk-size
sets how many campaigns share one derived RNG seed (must be positive);
--threads pins the worker count (0 = auto).  Results are identical for any
thread count at a fixed chunk size.  --sampler picks the draw backend:
bit-compat (default) replays the snapshot-exact inversion walk; fast swaps
in O(1) Walker alias tables — same distributions and determinism, but a
different RNG stream, so rates match statistically rather than bit for bit.
",
    },
    Subcommand {
        name: "solve-sm",
        flags: SOLVE_SM_FLAGS,
        build: |v| {
            Ok(Command::SolveSm(SolveSmArgs {
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                dim: v.get("--dim"),
                min_precompute: v.on("--min-precompute"),
                mps: v.opt("--mps"),
            }))
        },
        about: "\
Solves the assignment-minimizing LP S_m; --min-precompute applies the
lexicographic refinement; --mps exports the LP in MPS format.
",
    },
    Subcommand {
        name: "faults",
        flags: FAULTS_FLAGS,
        build: |v| {
            Ok(Command::Faults(FaultsArgs {
                scheme: v.get("--scheme"),
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                proportion: v.get("--proportion"),
                campaigns: v.get("--campaigns"),
                seed: v.get("--seed"),
                drop_rate: v.get("--drop-rate"),
                straggler_rate: v.get("--straggler-rate"),
                straggler_delay: v.get("--straggler-delay"),
                timeout: v.get("--timeout"),
                retries: v.get("--retries"),
                steps: v.get("--steps"),
                chunk_size: v.get("--chunk-size"),
                threads: v.get("--threads"),
            }))
        },
        about: "\
Sweeps per-assignment drop rates from 0 to --drop-rate in --steps steps and
reports how empirical detection, delivery rate, and effective multiplicity
degrade — and how much the retry/reassignment budget recovers.  The rows
run concurrently on one worker pool; --threads caps the total budget shared
by the pool and each row's campaigns (0 = auto).  All latency is abstract
ticks; results are deterministic for a fixed seed and identical across
thread counts.
",
    },
    Subcommand {
        name: "churn",
        flags: CHURN_FLAGS,
        build: |v| {
            Ok(Command::Churn(ChurnArgs {
                scheme: v.get("--scheme"),
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                proportion: v.get("--proportion"),
                campaigns: v.get("--campaigns"),
                seed: v.get("--seed"),
                enter_rate: v.get("--enter-rate"),
                leave_rate: v.get("--leave-rate"),
                fail_rate: v.get("--fail-rate"),
                workers: v.get("--workers"),
                horizon: v.get("--horizon"),
                census_interval: v.get("--census-interval"),
                steps: v.get("--steps"),
                chunk_size: v.get("--chunk-size"),
                threads: v.opt("--threads").unwrap_or(0),
                soak: v.on("--soak"),
            }))
        },
        about: "\
Sweeps per-worker departure rates from 0 to --leave-rate in --steps steps under
the discrete-event population engine: workers arrive at --enter-rate per
tick, departures hand their copies to surviving workers, failures destroy
them, and census checkpoints rerun the campaign kernel over the degraded
live multiset.  Row 0 is the fully static pool, which degenerates to the
churn-free kernel bit for bit.  The rows run concurrently on one worker
pool; --threads caps the shared budget (omit for auto; an explicit 0 is
rejected).  Results are deterministic for a fixed seed and identical
across thread counts.

--soak instead runs one long single-trial stress of the event loop at the
canonical soak hazards (0.9 arrivals/tick; per-worker leave and failure
hazards scaled so the population stays near --workers) and prints event
counters plus a determinism checksum: two same-seed runs must print
identical bytes.  It reads only --workers, --horizon, --tasks and --seed.
",
    },
    Subcommand {
        name: "serve",
        flags: SERVE_FLAGS,
        build: |v| {
            // `--recover` replays an existing journal; without one there
            // is nothing to recover from.
            if v.on("--recover") && !v.on("--journal") {
                return Err(ArgError::BadValue {
                    flag: "--recover".into(),
                    value: "set".into(),
                    expected: "a --journal path to recover from",
                });
            }
            Ok(Command::Serve(ServeArgs {
                scheme: v.get("--scheme"),
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                proportion: v.get("--proportion"),
                seed: v.get("--seed"),
                shards: v.get("--shards"),
                timeout: v.get("--timeout"),
                retries: v.get("--retries"),
                port: v.opt("--port"),
                clients: v.get("--clients"),
                stdio: v.on("--stdio"),
                streams: v.get("--streams"),
                json: v.opt("--json"),
                journal: v.opt("--journal"),
                sync: v.get("--sync"),
                recover: v.on("--recover"),
            }))
        },
        about: "\
Runs the live supervisor: a sharded in-memory assignment store that deals
task copies on demand in the batched kernel's exact RNG order, tracks them
in flight with tick-based timeouts (the tick clock advances one per
request), judges returns incrementally, and answers the length-prefixed
protocol (`request-work`, `return-result <task> <copy>`, `stats`,
`shutdown`; see EXPERIMENTS.md for a transcript).

With no transport flag the store is drained in process and the stats dump
is printed along with the oracle verdict.  --stdio speaks the framed
protocol over stdin/stdout (deterministic, scriptable).  --clients C
drains the store through C concurrent TCP clients against a listener on
--port (OS-assigned when omitted) and prints the final stats dump —
byte-identical across runs of the same seed whenever no timeout fires
(pass a large --timeout to guarantee that).  --port alone runs the daemon
until a client sends `shutdown`.  Both TCP modes run on one epoll
readiness loop thread, so they need Linux; --stdio runs anywhere.
--shards sets the store's shard count; --timeout/--retries set the
re-issue policy.

--streams single (default) deals every copy from one session RNG: a
drained session is bit-identical to `run_campaign` on the same seed at
any shard count (the batched-kernel oracle).  --streams per-shard gives
each shard its own derived RNG stream; the drained outcome is then a pure
function of (seed, shard count) — invariant to the client count and
request interleaving — and is checked against a shard-by-shard drain (the
sharded-stream oracle).  Both oracles model a drain no timeout interrupts,
so once a timeout fires the report says they do not apply.  --json PATH
(per-shard only) writes a serve-report/v1 document with session totals
and per-shard stats cells.

--journal PATH appends every state-mutating event (issue, return, tick,
timeout-requeue, shutdown) to a checksummed append-only log; --sync picks
the fsync policy (always per record, batch every 8 KiB — the default —
or off).  After a crash, rerun the same command line with --recover: the
journal's verified prefix is replayed to a bit-identical store (a torn
trailing record is truncated away), surviving in-flight copies are
re-queued, and the session resumes appending — a recovered-then-drained
run prints the same stats and report as an uninterrupted one.  A
journaled run's report ends with the journal replay oracle, which holds
under every schedule: the finished journal must replay to the live
store.  The journal is flushed even when the transport fails.  See
`redundancy help journal-inspect` for offline inspection.
",
    },
    Subcommand {
        name: "journal-inspect",
        flags: JOURNAL_INSPECT_FLAGS,
        build: |v| {
            Ok(Command::JournalInspect(JournalInspectArgs {
                journal: v.get("--journal"),
            }))
        },
        about: "\
Lists a serve journal's records (one line per record, decoded) and prints
an integrity verdict: `intact` when every record's checksum chain
verifies to the last byte, or `TORN` naming the structured error and the
number of unverified trailing bytes when the file ends in a torn write.
A journal whose verified prefix is unusable (bad magic, missing header,
mid-file corruption) is an error.  Inspection is workload-independent;
replay verification against the task set happens in `serve --recover`.
",
    },
    Subcommand {
        name: "certify",
        flags: CERTIFY_FLAGS,
        build: |v| {
            Ok(Command::Certify(CertifyArgs {
                tasks: v.get("--tasks"),
                epsilon: v.get("--epsilon"),
                max_dim: v.get("--max-dim"),
            }))
        },
        about: "\
Re-solves S_m for every m from 2 to --max-dim in exact rational arithmetic and
checks the four optimality conditions (primal and dual feasibility,
complementary slackness, strong duality) in \u{211a}, then cross-checks the
certified optimum against the f64 simplex.  Defaults reproduce the
Figure 2 setting (N = 100,000, eps = 0.5).
",
    },
    Subcommand {
        name: "bench",
        flags: BENCH_FLAGS,
        build: |v| {
            Ok(Command::Bench(BenchArgs {
                smoke: v.on("--smoke"),
                seed: v.get("--seed"),
                out: v.get("--out"),
                baseline: v.opt("--baseline"),
                threads: v.get("--threads"),
                chunk_size: v.get("--chunk-size"),
                reps: v.opt("--reps"),
            }))
        },
        about: "\
Runs the pinned performance fixtures (batched and alias-table campaign
kernels vs the frozen reference loop, cached/walking/alias samplers,
run_trials thread scaling, a parallel sweep, a discrete-event churn soak,
the live-serve protocol loop, an S_m LP sweep, and ablations of the
simplex pivot rule, closed-form vs generic detection, and single-stage vs
lexicographic S_m) and writes a `redundancy-bench/v1` JSON
report (default BENCH_report.json) with per-fixture median wall time,
tasks/sec, assignments/sec, and a determinism checksum, plus top-level
speedup_t2/speedup_t4 parallel-efficiency fields.  --threads caps the
scaling ladder (0 = the full 1/2/4); --chunk-size sets the run_trials
fixtures' chunk size; --reps N overrides every fixture's repetition count
(must be positive — useful for quick one-rep sanity passes).  --smoke
shrinks the fixtures for CI; --baseline compares medians against a
previous report and exits with code 2 if any fixture regressed beyond 2x.
",
    },
];

/// The table-driven subcommand called `name`.
fn subcommand(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// One subcommand's flags, each given value checked against its row.
struct Values<'a> {
    flags: &'static [Flag],
    /// Per row: the value given, else the row's default (`""` for a switch
    /// that is on).
    values: Vec<Option<&'a str>>,
}

impl<'a> Values<'a> {
    /// Walk `argv` against `sub`'s table.
    fn parse(sub: &Subcommand, argv: &'a [String]) -> Result<Self, ArgError> {
        let command = sub.name;
        let mut values = vec![None; sub.flags.len()];
        let mut args = argv.iter();
        while let Some(arg) = args.next() {
            let Some(row) = sub.flags.iter().position(|f| f.name == arg) else {
                return Err(if arg.starts_with("--") {
                    ArgError::UnknownFlag {
                        flag: arg.clone(),
                        command,
                    }
                } else {
                    ArgError::StrayArgument {
                        arg: arg.clone(),
                        command,
                    }
                });
            };
            let flag = &sub.flags[row];
            if values[row].is_some() {
                return Err(ArgError::RepeatedFlag {
                    flag: flag.name,
                    command,
                });
            }
            values[row] = Some(match flag.check {
                None => "",
                Some(accepts) => {
                    let value = args
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
                    if !accepts(value) {
                        return Err(ArgError::BadValue {
                            flag: flag.name.into(),
                            value: value.clone(),
                            expected: flag.expected,
                        });
                    }
                    value
                }
            });
        }
        for (flag, value) in sub.flags.iter().zip(&mut values) {
            if value.is_none() {
                *value = match flag.absent {
                    Absent::Required => {
                        return Err(ArgError::MissingFlag {
                            flag: flag.name,
                            command,
                        })
                    }
                    Absent::Unset => None,
                    Absent::Default(default) => Some(default),
                };
            }
        }
        Ok(Values {
            flags: sub.flags,
            values,
        })
    }

    /// The value of the row called `name`, if it has one.
    fn raw(&self, name: &str) -> Option<&'a str> {
        let row = self.flags.iter().position(|f| f.name == name);
        self.values[row.unwrap_or_else(|| panic!("no `{name}` row"))]
    }

    /// A flag's value, `None` when it is absent and has no default.  Its
    /// row's check passed, so it parses.
    fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.raw(name)?;
        Some(
            raw.parse()
                .unwrap_or_else(|_| panic!("`{name}` row let `{raw}` through")),
        )
    }

    /// A required or defaulted flag's value.
    fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("`{name}` is neither required nor defaulted"))
    }

    /// Whether a switch (or an optional flag) was given.
    fn on(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }
}

/// Parse a full argv (excluding the program name) into a [`Command`].
pub(crate) fn parse_args(argv: &[String]) -> Result<Command, ArgError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(ArgError::NoCommand);
    };
    match command.as_str() {
        "repro" => parse_repro(rest),
        "help" | "--help" | "-h" => Ok(Command::Help {
            topic: rest.first().cloned(),
        }),
        name => {
            let sub = subcommand(name).ok_or_else(|| ArgError::UnknownCommand(name.into()))?;
            (sub.build)(&Values::parse(sub, rest)?)
        }
    }
}

/// `repro` mixes one positional (the exhibit name) with its own switches
/// and the shared exhibit flags, so it walks the argv itself and hands the
/// shared flags to the registry's parser — the same code path the legacy
/// standalone binaries use.
fn parse_repro(rest: &[String]) -> Result<Command, ArgError> {
    let mut exhibit: Option<String> = None;
    let mut list = false;
    let mut all = false;
    let mut json: Option<String> = None;
    let mut shared: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--list" => list = true,
            "--all" => all = true,
            "--json" => {
                let Some(value) = rest.get(i + 1) else {
                    return Err(ArgError::MissingValue("--json".into()));
                };
                json = Some(value.clone());
                i += 1;
            }
            flag if flag.starts_with("--") => {
                shared.push(rest[i].clone());
                if let Some(value) = rest.get(i + 1) {
                    shared.push(value.clone());
                    i += 1;
                }
            }
            name => {
                if exhibit.is_some() {
                    return Err(ArgError::BadValue {
                        flag: "repro".into(),
                        value: name.into(),
                        expected: "a single exhibit name",
                    });
                }
                exhibit = Some(name.to_string());
            }
        }
        i += 1;
    }
    let ctx = redundancy_repro::ExhibitCtx::parse_from(&shared, true).map_err(|e| {
        use redundancy_repro::CtxError;
        match e {
            CtxError::MissingValue(flag) => ArgError::MissingValue(flag),
            CtxError::BadValue {
                flag,
                value,
                expected,
            } => ArgError::BadValue {
                flag: flag.into(),
                value,
                expected,
            },
            CtxError::UnknownFlag(flag) => ArgError::UnknownFlag {
                flag,
                command: "repro",
            },
        }
    })?;
    Ok(Command::Repro(ReproArgs {
        exhibit,
        list,
        all,
        json,
        ctx,
    }))
}

/// `redundancy help [command]`: for a table-driven subcommand, a synopsis
/// and one line per flag (accepted values, default) generated from its
/// table, then its prose; else `repro`'s usage or the overview.
pub(crate) fn help(topic: Option<&str>) -> String {
    if topic == Some("repro") {
        return REPRO_HELP.into();
    }
    let Some(sub) = topic.and_then(subcommand) else {
        return USAGE.into();
    };
    let mut out = format!("redundancy {}", sub.name);
    for flag in sub.flags {
        if flag.absent == Absent::Required {
            let _ = write!(out, " {} <{}>", flag.name, flag.name[2..].to_uppercase());
        }
    }
    if sub.flags.iter().any(|f| f.absent != Absent::Required) {
        out.push_str(" [FLAGS]");
    }
    out.push_str("\n\n");
    let width = sub.flags.iter().map(|f| f.name.len()).max().unwrap_or(0);
    for flag in sub.flags {
        let _ = write!(out, "    {:width$}  {}", flag.name, flag.expected);
        let _ = match flag.absent {
            Absent::Required => writeln!(out, " (required)"),
            Absent::Unset => writeln!(out),
            Absent::Default(value) => writeln!(out, " (default {value})"),
        };
    }
    out.push('\n');
    out + sub.about
}

const REPRO_HELP: &str = "\
redundancy repro <EXHIBIT> [--seed SEED] [--csv PATH] [--trials-scale K]
                 [--threads T] [--json PATH]
redundancy repro --list
redundancy repro --all [--json DIR] [shared flags]

Regenerates the paper's tables and figures from the exhibit registry.  A
single exhibit prints exactly what its legacy standalone binary prints
(byte-identical, pinned by the golden snapshots); --json additionally
writes a `repro-report/v1` JSON document (see docs/REPORTS.md).  --list
prints the registry index; --all runs every exhibit, writing one JSON
document per exhibit when --json names a directory.  --trials-scale
multiplies Monte-Carlo effort (must be positive); --threads caps the
worker budget (0 = auto) and never changes the output bytes.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn plan_full_parse() {
        let cmd = parse_args(&argv(&[
            "plan",
            "--scheme",
            "gs",
            "--tasks",
            "1000",
            "--epsilon",
            "0.5",
            "--json",
            "out.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Plan(PlanArgs {
                scheme: SchemeName::GolleStubblebine,
                tasks: 1000,
                epsilon: 0.5,
                min_multiplicity: None,
                proportion: 0.0,
                json: Some("out.json".into()),
            })
        );
    }

    /// Every default, pinned whole: a subcommand given only its required
    /// flags parses to exactly this value.
    #[test]
    fn default_commands_are_pinned_whole() {
        let required = ["--tasks", "1000", "--epsilon", "0.5"];
        let parse = |command: &str, extra: &[&str]| {
            let mut parts = vec![command];
            if !matches!(command, "churn") {
                parts.extend(required);
            }
            parts.extend(extra);
            parse_args(&argv(&parts)).unwrap()
        };
        assert_eq!(
            parse("plan", &[]),
            Command::Plan(PlanArgs {
                scheme: SchemeName::Balanced,
                tasks: 1000,
                epsilon: 0.5,
                min_multiplicity: None,
                proportion: 0.0,
                json: None,
            })
        );
        assert_eq!(
            parse("analyze", &[]),
            Command::Analyze(AnalyzeArgs {
                scheme: SchemeName::Balanced,
                tasks: 1000,
                epsilon: 0.5,
                proportion: 0.0,
            })
        );
        assert_eq!(
            parse("advise", &[]),
            Command::Advise(AdviseArgs {
                tasks: 1000,
                epsilon: 0.5,
                adversary: 0.0,
                precompute_budget: 0,
                min_multiplicity: None,
            })
        );
        assert_eq!(
            parse("simulate", &[]),
            Command::Simulate(SimulateArgs {
                scheme: SchemeName::Balanced,
                tasks: 1000,
                epsilon: 0.5,
                proportion: 0.0,
                campaigns: 20,
                seed: 20_050_926,
                chunk_size: 4,
                threads: 0,
                sampler: SamplerMode::BitCompat,
            })
        );
        assert_eq!(
            parse("solve-sm", &["--dim", "6"]),
            Command::SolveSm(SolveSmArgs {
                tasks: 1000,
                epsilon: 0.5,
                dim: 6,
                min_precompute: false,
                mps: None,
            })
        );
        assert_eq!(
            parse("faults", &[]),
            Command::Faults(FaultsArgs {
                scheme: SchemeName::Balanced,
                tasks: 1000,
                epsilon: 0.5,
                proportion: 0.1,
                campaigns: 20,
                seed: 20_050_926,
                drop_rate: 0.5,
                straggler_rate: 0.0,
                straggler_delay: 4.0,
                timeout: 8,
                retries: 3,
                steps: 5,
                chunk_size: 4,
                threads: 0,
            })
        );
        assert_eq!(
            parse("churn", &[]),
            Command::Churn(ChurnArgs {
                scheme: SchemeName::Balanced,
                tasks: 2_000,
                epsilon: 0.5,
                proportion: 0.2,
                campaigns: 8,
                seed: 20_050_926,
                enter_rate: 0.6,
                leave_rate: 0.004,
                fail_rate: 0.0,
                workers: 400,
                horizon: 2_000,
                census_interval: 500,
                steps: 4,
                chunk_size: 4,
                threads: 0,
                soak: false,
            })
        );
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse_args(&argv(&["simulate", "--tasks", "10", "--epsilon", "0.5"])).unwrap();
        match cmd {
            Command::Simulate(SimulateArgs {
                scheme,
                campaigns,
                seed,
                proportion,
                ..
            }) => {
                assert_eq!(scheme, SchemeName::Balanced);
                assert_eq!(campaigns, 20);
                assert_eq!(seed, 20_050_926);
                assert_eq!(proportion, 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse_args(&[]), Err(ArgError::NoCommand));
        assert!(matches!(
            parse_args(&argv(&["frobnicate"])),
            Err(ArgError::UnknownCommand(_))
        ));
        assert!(matches!(
            parse_args(&argv(&[
                "plan",
                "--tasks",
                "10",
                "--epsilon",
                "0.5",
                "--bogus",
                "1"
            ])),
            Err(ArgError::UnknownFlag { .. })
        ));
        assert!(matches!(
            parse_args(&argv(&["plan", "--tasks"])),
            Err(ArgError::MissingValue(_))
        ));
        assert!(matches!(
            parse_args(&argv(&["plan", "--epsilon", "0.5"])),
            Err(ArgError::MissingFlag {
                flag: "--tasks",
                ..
            })
        ));
        assert!(matches!(
            parse_args(&argv(&["plan", "--tasks", "ten", "--epsilon", "0.5"])),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&argv(&["plan", "--tasks", "10", "--epsilon", "1.5"])),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!("bal".parse::<SchemeName>().unwrap(), SchemeName::Balanced);
        assert_eq!(
            "golle-stubblebine".parse::<SchemeName>().unwrap(),
            SchemeName::GolleStubblebine
        );
        assert_eq!(
            "extended-balanced".parse::<SchemeName>().unwrap(),
            SchemeName::Extended
        );
        assert!("magic".parse::<SchemeName>().is_err());
    }

    #[test]
    fn solve_sm_boolean_flag() {
        let cmd = parse_args(&argv(&[
            "solve-sm",
            "--tasks",
            "1000",
            "--epsilon",
            "0.5",
            "--dim",
            "6",
            "--min-precompute",
        ]))
        .unwrap();
        match cmd {
            Command::SolveSm(SolveSmArgs {
                min_precompute,
                dim,
                ..
            }) => {
                assert!(min_precompute);
                assert_eq!(dim, 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn faults_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["faults", "--tasks", "1000", "--epsilon", "0.5"])).unwrap();
        match cmd {
            Command::Faults(FaultsArgs {
                drop_rate,
                straggler_rate,
                timeout,
                retries,
                steps,
                proportion,
                ..
            }) => {
                assert_eq!(drop_rate, 0.5);
                assert_eq!(straggler_rate, 0.0);
                assert_eq!(timeout, 8);
                assert_eq!(retries, 3);
                assert_eq!(steps, 5);
                assert_eq!(proportion, 0.1);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&argv(&[
            "faults",
            "--tasks",
            "1000",
            "--epsilon",
            "0.5",
            "--drop-rate",
            "0.8",
            "--straggler-rate",
            "0.3",
            "--timeout",
            "16",
            "--retries",
            "0",
        ]))
        .unwrap();
        match cmd {
            Command::Faults(FaultsArgs {
                drop_rate,
                straggler_rate,
                timeout,
                retries,
                ..
            }) => {
                assert_eq!(drop_rate, 0.8);
                assert_eq!(straggler_rate, 0.3);
                assert_eq!(timeout, 16);
                assert_eq!(retries, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn faults_rejects_invalid_parameters() {
        // Drop rate above 1 is not a probability.
        assert!(matches!(
            parse_args(&argv(&[
                "faults",
                "--tasks",
                "10",
                "--epsilon",
                "0.5",
                "--drop-rate",
                "1.5"
            ])),
            Err(ArgError::BadValue { .. })
        ));
        // A zero timeout would retry forever without waiting.
        assert!(matches!(
            parse_args(&argv(&[
                "faults",
                "--tasks",
                "10",
                "--epsilon",
                "0.5",
                "--timeout",
                "0"
            ])),
            Err(ArgError::BadValue { .. })
        ));
        // Zero sweep steps cannot form a table.
        assert!(matches!(
            parse_args(&argv(&[
                "faults",
                "--tasks",
                "10",
                "--epsilon",
                "0.5",
                "--steps",
                "0"
            ])),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            parse_args(&argv(&[
                "faults",
                "--tasks",
                "10",
                "--epsilon",
                "0.5",
                "--straggler-rate",
                "-0.2"
            ])),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn chunk_size_flag_parses_with_default() {
        let cmd = parse_args(&argv(&["simulate", "--tasks", "10", "--epsilon", "0.5"])).unwrap();
        match cmd {
            Command::Simulate(SimulateArgs {
                chunk_size,
                threads,
                ..
            }) => {
                assert_eq!(chunk_size, 4);
                assert_eq!(threads, 0);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&argv(&[
            "faults",
            "--tasks",
            "10",
            "--epsilon",
            "0.5",
            "--chunk-size",
            "32",
            "--threads",
            "6",
        ]))
        .unwrap();
        match cmd {
            Command::Faults(FaultsArgs {
                chunk_size,
                threads,
                ..
            }) => {
                assert_eq!(chunk_size, 32);
                assert_eq!(threads, 6);
            }
            other => panic!("{other:?}"),
        }
        // Zero parses here; rejection (exit 2) happens at dispatch via
        // `TrialConfig::validate`, which names the flag.
        let cmd = parse_args(&argv(&[
            "simulate",
            "--tasks",
            "10",
            "--epsilon",
            "0.5",
            "--chunk-size",
            "0",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate(SimulateArgs { chunk_size, .. }) => assert_eq!(chunk_size, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn churn_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["churn"])).unwrap();
        match cmd {
            Command::Churn(ChurnArgs {
                scheme,
                tasks,
                epsilon,
                enter_rate,
                leave_rate,
                fail_rate,
                workers,
                horizon,
                census_interval,
                steps,
                threads,
                soak,
                ..
            }) => {
                assert_eq!(scheme, SchemeName::Balanced);
                assert_eq!(tasks, 2_000);
                assert_eq!(epsilon, 0.5);
                assert_eq!(enter_rate, 0.6);
                assert_eq!(leave_rate, 0.004);
                assert_eq!(fail_rate, 0.0);
                assert_eq!(workers, 400);
                assert_eq!(horizon, 2_000);
                assert_eq!(census_interval, 500);
                assert_eq!(steps, 4);
                assert_eq!(threads, 0);
                assert!(!soak);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&argv(&[
            "churn",
            "--soak",
            "--workers",
            "100000",
            "--horizon",
            "5500000",
            "--leave-rate",
            "0.01",
            "--threads",
            "2",
        ]))
        .unwrap();
        match cmd {
            Command::Churn(ChurnArgs {
                workers,
                horizon,
                leave_rate,
                threads,
                soak,
                ..
            }) => {
                assert_eq!(workers, 100_000);
                assert_eq!(horizon, 5_500_000);
                assert_eq!(leave_rate, 0.01);
                assert_eq!(threads, 2);
                assert!(soak);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn churn_rejects_invalid_parameters_naming_the_flag() {
        // A negative rate is not a probability; `collect_flags` consumes
        // the `-1` as the flag's value, so this is a BadValue, not a
        // missing-value error.
        let e = parse_args(&argv(&["churn", "--enter-rate", "-1"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--enter-rate"));
        assert!(e.to_string().contains("--enter-rate"), "{e}");
        // An explicit zero thread count is rejected (omit the flag for
        // auto).
        let e = parse_args(&argv(&["churn", "--threads", "0"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--threads"));
        assert!(e.to_string().contains("--threads"), "{e}");
        for flags in [
            ["--leave-rate", "1.5"],
            ["--fail-rate", "nan"],
            ["--workers", "0"],
            ["--horizon", "0"],
            ["--census-interval", "0"],
            ["--steps", "0"],
        ] {
            let e = parse_args(&argv(&["churn", flags[0], flags[1]])).unwrap_err();
            assert!(e.to_string().contains(flags[0]), "{e}");
        }
    }

    #[test]
    fn serve_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["serve"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs {
                scheme: SchemeName::Balanced,
                tasks: 2_000,
                epsilon: 0.5,
                proportion: 0.2,
                seed: 20_050_926,
                shards: 1,
                timeout: 8,
                retries: 3,
                port: None,
                clients: 0,
                stdio: false,
                streams: StreamMode::Single,
                json: None,
                journal: None,
                sync: SyncPolicy::Batch,
                recover: false,
            })
        );
        let cmd = parse_args(&argv(&[
            "serve",
            "--tasks",
            "500",
            "--shards",
            "4",
            "--timeout",
            "100",
            "--retries",
            "0",
            "--port",
            "0",
            "--clients",
            "8",
            "--streams",
            "per-shard",
            "--json",
            "report.json",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(ServeArgs {
                tasks,
                shards,
                timeout,
                retries,
                port,
                clients,
                stdio,
                streams,
                json,
                ..
            }) => {
                assert_eq!(tasks, 500);
                assert_eq!(shards, 4);
                assert_eq!(timeout, 100);
                assert_eq!(retries, 0);
                assert_eq!(port, Some(0));
                assert_eq!(clients, 8);
                assert!(!stdio);
                assert_eq!(streams, StreamMode::PerShard);
                assert_eq!(json.as_deref(), Some("report.json"));
            }
            other => panic!("{other:?}"),
        }
        // --stdio is a boolean flag, like --soak.
        let cmd = parse_args(&argv(&["serve", "--stdio", "--seed", "7"])).unwrap();
        match cmd {
            Command::Serve(ServeArgs { stdio, seed, .. }) => {
                assert!(stdio);
                assert_eq!(seed, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_journal_flags_parse() {
        let cmd = parse_args(&argv(&[
            "serve",
            "--journal",
            "serve.journal",
            "--sync",
            "always",
            "--recover",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(ServeArgs {
                journal,
                sync,
                recover,
                ..
            }) => {
                assert_eq!(journal.as_deref(), Some("serve.journal"));
                assert_eq!(sync, SyncPolicy::Always);
                assert!(recover);
            }
            other => panic!("{other:?}"),
        }
        // --recover without --journal has nothing to replay.
        let e = parse_args(&argv(&["serve", "--recover"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--recover"));
        assert!(e.to_string().contains("--journal"), "{e}");
        // --sync takes one of the three policies.
        let e = parse_args(&argv(&["serve", "--sync", "fsync"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--sync"));
    }

    #[test]
    fn journal_inspect_requires_the_journal_flag() {
        let cmd = parse_args(&argv(&["journal-inspect", "--journal", "x.journal"])).unwrap();
        assert_eq!(
            cmd,
            Command::JournalInspect(JournalInspectArgs {
                journal: "x.journal".into()
            })
        );
        let e = parse_args(&argv(&["journal-inspect"])).unwrap_err();
        assert!(matches!(
            &e,
            ArgError::MissingFlag {
                flag: "--journal",
                ..
            }
        ));
        assert!(e.to_string().contains("--journal"), "{e}");
        let e = parse_args(&argv(&["journal-inspect", "--verbose", "1"])).unwrap_err();
        assert!(matches!(&e, ArgError::UnknownFlag { .. }));
    }

    #[test]
    fn serve_rejects_invalid_parameters_naming_the_flag() {
        // A store with no shards cannot hold tasks.
        let e = parse_args(&argv(&["serve", "--shards", "0"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--shards"));
        assert!(e.to_string().contains("--shards"), "{e}");
        // Ports live in 0..=65535; 0 is allowed (OS-assigned).
        let e = parse_args(&argv(&["serve", "--port", "70000"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--port"));
        assert!(e.to_string().contains("0..=65535"), "{e}");
        for flags in [
            ["--tasks", "0"],
            ["--timeout", "0"],
            ["--epsilon", "1.5"],
            ["--proportion", "-0.2"],
            ["--port", "seven"],
            ["--streams", "both"],
            ["--io", "threads"],
            ["--clients", "1025"],
            ["--shards", "1025"],
        ] {
            let e = parse_args(&argv(&["serve", flags[0], flags[1]])).unwrap_err();
            assert!(e.to_string().contains(flags[0]), "{e}");
        }
        // One thread per client and one store machine per shard: both stop
        // at the bound `--threads` keeps, which is itself accepted.
        for flag in ["--clients", "--shards"] {
            let e = parse_args(&argv(&["serve", flag, "1025"])).unwrap_err();
            assert!(e.to_string().contains("1024"), "{e}");
            assert!(parse_args(&argv(&["serve", flag, "1024"])).is_ok());
        }
    }

    #[test]
    fn certify_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["certify"])).unwrap();
        assert_eq!(
            cmd,
            Command::Certify(CertifyArgs {
                tasks: 100_000,
                epsilon: 0.5,
                max_dim: 10,
            })
        );
        let cmd = parse_args(&argv(&["certify", "--max-dim", "26", "--tasks", "5000"])).unwrap();
        match cmd {
            Command::Certify(CertifyArgs { tasks, max_dim, .. }) => {
                assert_eq!(tasks, 5000);
                assert_eq!(max_dim, 26);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_args(&argv(&["certify", "--epsilon", "2.0"])),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn bench_defaults_and_flags() {
        assert_eq!(
            parse_args(&argv(&["bench"])).unwrap(),
            Command::Bench(BenchArgs {
                smoke: false,
                seed: 20_050_926,
                out: "BENCH_report.json".into(),
                baseline: None,
                threads: 0,
                chunk_size: 4,
                reps: None,
            })
        );
        let cmd = parse_args(&argv(&[
            "bench",
            "--smoke",
            "--seed",
            "7",
            "--out",
            "r.json",
            "--baseline",
            "BENCH_baseline.json",
            "--threads",
            "2",
            "--chunk-size",
            "8",
            "--reps",
            "3",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Bench(BenchArgs {
                smoke: true,
                seed: 7,
                out: "r.json".into(),
                baseline: Some("BENCH_baseline.json".into()),
                threads: 2,
                chunk_size: 8,
                reps: Some(3),
            })
        );
        assert!(matches!(
            parse_args(&argv(&["bench", "--iterations", "3"])),
            Err(ArgError::UnknownFlag { .. })
        ));
        // --reps 0 is rejected at parse time, naming the flag (exit 2).
        match parse_args(&argv(&["bench", "--reps", "0"])) {
            Err(ArgError::BadValue { flag, .. }) => assert_eq!(flag, "--reps"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sampler_flag_parses_and_rejects_unknown_modes() {
        let cmd = parse_args(&argv(&["simulate", "--tasks", "10", "--epsilon", "0.5"])).unwrap();
        match cmd {
            Command::Simulate(SimulateArgs { sampler, .. }) => {
                assert_eq!(sampler, SamplerMode::BitCompat)
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&argv(&[
            "simulate",
            "--tasks",
            "10",
            "--epsilon",
            "0.5",
            "--sampler",
            "fast",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate(SimulateArgs { sampler, .. }) => {
                assert_eq!(sampler, SamplerMode::Fast)
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&argv(&[
            "simulate",
            "--tasks",
            "10",
            "--epsilon",
            "0.5",
            "--sampler",
            "turbo",
        ])) {
            Err(ArgError::BadValue { flag, .. }) => assert_eq!(flag, "--sampler"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn help_topic() {
        assert_eq!(
            parse_args(&argv(&["help", "plan"])).unwrap(),
            Command::Help {
                topic: Some("plan".into())
            }
        );
        assert_eq!(
            parse_args(&argv(&["--help"])).unwrap(),
            Command::Help { topic: None }
        );
    }

    #[test]
    fn error_messages_read_well() {
        let e = ArgError::MissingFlag {
            flag: "--tasks",
            command: "plan",
        };
        assert!(e.to_string().contains("--tasks"));
        let e2 = ArgError::BadValue {
            flag: "--epsilon".into(),
            value: "2".into(),
            expected: "a number in (0, 1)",
        };
        assert!(e2.to_string().contains("(0, 1)"));
    }

    #[test]
    fn repro_full_parse() {
        let cmd = parse_args(&argv(&[
            "repro",
            "fig2_minimizing_table",
            "--seed",
            "7",
            "--trials-scale",
            "3",
            "--threads",
            "2",
            "--csv",
            "out.csv",
            "--json",
            "report.json",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Repro(ReproArgs {
                exhibit: Some("fig2_minimizing_table".into()),
                list: false,
                all: false,
                json: Some("report.json".into()),
                ctx: redundancy_repro::ExhibitCtx {
                    seed: 7,
                    csv: Some("out.csv".into()),
                    trials_scale: 3,
                    threads: 2,
                },
            })
        );
    }

    #[test]
    fn repro_list_and_all_and_defaults() {
        assert_eq!(
            parse_args(&argv(&["repro", "--list"])).unwrap(),
            Command::Repro(ReproArgs {
                exhibit: None,
                list: true,
                all: false,
                json: None,
                ctx: redundancy_repro::ExhibitCtx::default(),
            })
        );
        let cmd = parse_args(&argv(&["repro", "--all", "--json", "reports"])).unwrap();
        assert_eq!(
            cmd,
            Command::Repro(ReproArgs {
                exhibit: None,
                list: false,
                all: true,
                json: Some("reports".into()),
                ctx: redundancy_repro::ExhibitCtx::default(),
            })
        );
        // The shared seed default is the conference date, same as the
        // legacy binaries.
        match cmd {
            Command::Repro(ReproArgs { ctx, .. }) => assert_eq!(ctx.seed, 20_050_926),
            _ => unreachable!(),
        }
    }

    #[test]
    fn repro_validates_the_shared_flags_strictly() {
        // Zero --trials-scale: rejected with the flag named, matching the
        // --chunk-size / --threads conventions.
        let e = parse_args(&argv(&["repro", "theory_checks", "--trials-scale", "0"])).unwrap_err();
        assert!(matches!(&e, ArgError::BadValue { flag, .. } if flag == "--trials-scale"));
        assert!(e.to_string().contains("--trials-scale"), "{e}");
        // Unknown flags are a strict error through the subcommand.
        assert_eq!(
            parse_args(&argv(&["repro", "--bogus", "1"])).unwrap_err(),
            ArgError::UnknownFlag {
                flag: "--bogus".into(),
                command: "repro",
            }
        );
        // A second positional is rejected rather than silently dropped.
        let e = parse_args(&argv(&["repro", "fig1_detection_vs_p", "extra"])).unwrap_err();
        assert!(matches!(e, ArgError::BadValue { .. }));
        // Flags missing their value are reported.
        assert_eq!(
            parse_args(&argv(&["repro", "--json"])).unwrap_err(),
            ArgError::MissingValue("--json".into())
        );
        assert_eq!(
            parse_args(&argv(&["repro", "--seed"])).unwrap_err(),
            ArgError::MissingValue("--seed".into())
        );
    }

    #[test]
    fn a_repeated_flag_is_an_error_naming_it() {
        let e = parse_args(&argv(&[
            "plan",
            "--tasks",
            "1000",
            "--epsilon",
            "0.5",
            "--tasks",
            "10",
        ]))
        .unwrap_err();
        assert_eq!(
            e,
            ArgError::RepeatedFlag {
                flag: "--tasks",
                command: "plan"
            }
        );
        assert!(e.to_string().contains("`--tasks`"), "{e}");
        let e = parse_args(&argv(&["serve", "--stdio", "--stdio"])).unwrap_err();
        assert!(matches!(
            e,
            ArgError::RepeatedFlag {
                flag: "--stdio",
                ..
            }
        ));
    }

    #[test]
    fn a_stray_token_is_named_with_its_subcommand() {
        let e = parse_args(&argv(&["serve", "--stdio", "true"])).unwrap_err();
        assert_eq!(
            e,
            ArgError::StrayArgument {
                arg: "true".into(),
                command: "serve"
            }
        );
        let message = e.to_string();
        assert!(
            message.contains("`true`") && message.contains("`serve`"),
            "{message}"
        );
        assert!(!message.contains("unknown command"), "{message}");
    }

    /// Values some row's check rejects: not a number, negative, zero, one,
    /// past a range's top, and the non-finite floats.
    const PROBES: [&str; 9] = ["x", "-1", "0", "1", "1.5", "1025", "70000", "nan", "inf"];

    /// A value the row accepts: its default, or a number or a path.
    fn accepted(flag: &Flag) -> &'static str {
        let default = match flag.absent {
            Absent::Default(value) => Some(value),
            _ => None,
        };
        default
            .into_iter()
            .chain(["0.5", "6", "x.out"])
            .find(|v| flag.check.is_some_and(|accepts| accepts(v)))
            .unwrap_or_else(|| panic!("{} accepts none", flag.name))
    }

    /// The tables' contract, row by row: unique names, defaults that pass
    /// their own check, an error naming the flag for every rejected value
    /// and every missing required flag, and a `help` that names every row.
    #[test]
    fn every_table_row_keeps_its_contract() {
        for sub in &SUBCOMMANDS {
            let name = sub.name;
            // The subcommand's required flags, but for `skip`, plus `extra`.
            let parse = |skip: &str, extra: &[&str]| {
                let mut parts = vec![name];
                for flag in sub.flags {
                    if flag.absent == Absent::Required && flag.name != skip {
                        parts.extend([flag.name, accepted(flag)]);
                    }
                }
                parts.extend(extra);
                parse_args(&argv(&parts))
            };
            assert!(parse("", &[]).is_ok(), "{name}: {:?}", parse("", &[]));
            let help = help(Some(name));
            for (i, flag) in sub.flags.iter().enumerate() {
                let flag_name = flag.name;
                assert!(
                    sub.flags[..i].iter().all(|f| f.name != flag_name),
                    "{name}: {flag_name} has two rows"
                );
                assert!(
                    help.contains(&format!("    {flag_name} ")),
                    "{name}: {flag_name}\n{help}"
                );
                match flag.absent {
                    Absent::Required => assert_eq!(
                        parse(flag_name, &[]),
                        Err(ArgError::MissingFlag {
                            flag: flag_name,
                            command: name
                        })
                    ),
                    Absent::Default(value) => assert!(
                        flag.check.is_some_and(|accepts| accepts(value)),
                        "{name}: {flag_name} defaults to `{value}`, which its row rejects"
                    ),
                    Absent::Unset => {}
                }
                let Some(accepts) = flag.check else { continue };
                assert!(
                    parse(flag_name, &[flag_name, accepted(flag)]).is_ok(),
                    "{name}: {flag_name}"
                );
                let rejected: Vec<&str> = PROBES.into_iter().filter(|v| !accepts(v)).collect();
                if rejected.is_empty() {
                    assert_eq!(flag.expected, "a file path", "{name}: {flag_name}");
                }
                for value in rejected {
                    let e = parse(flag_name, &[flag_name, value]).unwrap_err();
                    assert_eq!(
                        e,
                        ArgError::BadValue {
                            flag: flag_name.into(),
                            value: value.into(),
                            expected: flag.expected,
                        }
                    );
                    assert!(e.to_string().contains(flag_name), "{e}");
                }
            }
        }
    }
}
