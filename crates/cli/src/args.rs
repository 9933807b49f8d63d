//! Hand-rolled argument parsing for the `redundancy` command.
//!
//! The grammar is flat: a subcommand followed by `--key value` pairs.
//! Parsing is strict — unknown flags and malformed values are errors, not
//! silently ignored — because a supervisor mistyping `--epsilon` should
//! not deploy an unprotected computation.

use redundancy_sim::serve::{StreamMode, SyncPolicy};
use redundancy_stats::{SamplerMode, MAX_THREADS};
use std::collections::HashMap;
use std::fmt;

/// Which scheme a command operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeName {
    /// The paper's Balanced distribution.
    Balanced,
    /// Golle–Stubblebine geometric distribution.
    GolleStubblebine,
    /// Plain 2-fold redundancy.
    Simple,
    /// Extended Balanced with a minimum multiplicity.
    Extended,
}

impl SchemeName {
    fn parse(s: &str) -> Result<Self, ArgError> {
        match s {
            "balanced" | "bal" => Ok(SchemeName::Balanced),
            "golle-stubblebine" | "gs" => Ok(SchemeName::GolleStubblebine),
            "simple" => Ok(SchemeName::Simple),
            "extended" | "extended-balanced" => Ok(SchemeName::Extended),
            other => Err(ArgError::BadValue {
                flag: "--scheme".into(),
                value: other.into(),
                expected: "balanced | golle-stubblebine | simple | extended",
            }),
        }
    }
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `redundancy plan`
    Plan {
        /// Scheme to realize.
        scheme: SchemeName,
        /// Task count.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// §7 minimum multiplicity (extended scheme only).
        min_multiplicity: Option<usize>,
        /// Adversary share the guarantee must survive (boosts ε).
        proportion: f64,
        /// Optional JSON output path.
        json: Option<String>,
    },
    /// `redundancy analyze`
    Analyze {
        /// Scheme to analyze.
        scheme: SchemeName,
        /// Task count.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// Adversary share for the non-asymptotic columns.
        proportion: f64,
    },
    /// `redundancy advise`
    Advise {
        /// Task count.
        tasks: u64,
        /// Required detection threshold.
        epsilon: f64,
        /// Worst-case adversary share.
        adversary: f64,
        /// Precompute budget in tasks.
        precompute_budget: u64,
        /// Optional minimum multiplicity requirement.
        min_multiplicity: Option<usize>,
    },
    /// `redundancy simulate`
    Simulate {
        /// Scheme to simulate.
        scheme: SchemeName,
        /// Task count per campaign.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// Adversary assignment share.
        proportion: f64,
        /// Number of campaigns.
        campaigns: u64,
        /// RNG seed.
        seed: u64,
        /// Trials per deterministic chunk of the parallel runner.
        chunk_size: u64,
        /// Worker threads for the parallel runner (0 = auto).
        threads: usize,
        /// Sampling backend: bit-compat (snapshot-exact) or fast (alias).
        sampler: SamplerMode,
    },
    /// `redundancy solve-sm`
    SolveSm {
        /// Task count.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// System dimension m.
        dim: usize,
        /// Use the lexicographic min-precompute refinement.
        min_precompute: bool,
        /// Optional MPS export path.
        mps: Option<String>,
    },
    /// `redundancy faults`
    Faults {
        /// Scheme to simulate.
        scheme: SchemeName,
        /// Task count per campaign.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// Adversary assignment share.
        proportion: f64,
        /// Number of campaigns per sweep row.
        campaigns: u64,
        /// RNG seed.
        seed: u64,
        /// Largest per-assignment drop rate in the sweep.
        drop_rate: f64,
        /// Straggler probability applied to every row.
        straggler_rate: f64,
        /// Mean straggler delay, in ticks.
        straggler_delay: f64,
        /// Ticks the supervisor waits before re-issuing a copy.
        timeout: u64,
        /// Re-issue budget per assignment.
        retries: u32,
        /// Sweep rows above zero (the zero-fault baseline is always row 0).
        steps: u32,
        /// Trials per deterministic chunk of the parallel runner.
        chunk_size: u64,
        /// Thread budget shared by the sweep pool and per-row runners
        /// (0 = auto).
        threads: usize,
    },
    /// `redundancy churn`
    Churn {
        /// Scheme to simulate.
        scheme: SchemeName,
        /// Task count per campaign.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// Adversary assignment share.
        proportion: f64,
        /// Number of campaigns per sweep row.
        campaigns: u64,
        /// RNG seed.
        seed: u64,
        /// Per-tick worker arrival rate applied to every row.
        enter_rate: f64,
        /// Largest per-worker departure rate in the sweep.
        leave_rate: f64,
        /// Per-worker failure rate applied to every row.
        fail_rate: f64,
        /// Initial worker population.
        workers: u64,
        /// Simulation horizon in ticks.
        horizon: u64,
        /// Ticks between census checkpoints.
        census_interval: u64,
        /// Sweep rows above zero (the zero-churn baseline is always row 0).
        steps: u32,
        /// Trials per deterministic chunk of the parallel runner.
        chunk_size: u64,
        /// Thread budget shared by the sweep pool and per-row runners
        /// (0 = auto; an explicit 0 is rejected).
        threads: usize,
        /// Run the single-trial soak (event-loop stress) instead of the
        /// sweep.
        soak: bool,
    },
    /// `redundancy serve`
    Serve {
        /// Scheme to serve.
        scheme: SchemeName,
        /// Task count of the workload.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// Adversary assignment share.
        proportion: f64,
        /// RNG seed for the session.
        seed: u64,
        /// Shard count of the assignment store (at most [`MAX_THREADS`]).
        shards: usize,
        /// Ticks (requests) before an in-flight copy is re-queued.
        timeout: u64,
        /// Re-issue budget per copy before it is abandoned.
        retries: u32,
        /// TCP port to listen on (0 = OS-assigned); absent = no TCP.
        port: Option<u16>,
        /// Synthetic concurrent clients for the self-driving TCP drain, one
        /// thread each (at most [`MAX_THREADS`]).
        clients: usize,
        /// Serve the framed protocol over stdin/stdout instead.
        stdio: bool,
        /// RNG-stream discipline: one session stream (the batch-kernel
        /// bit-compat oracle) or one derived stream per shard.
        streams: StreamMode,
        /// Write a serve-report/v1 JSON document (per-shard mode only).
        json: Option<String>,
        /// Append every state-mutating event to this journal file.
        journal: Option<String>,
        /// When the journal appender hands bytes to the OS / fsyncs.
        sync: SyncPolicy,
        /// Replay the journal first and resume the session from it.
        recover: bool,
    },
    /// `redundancy journal-inspect`
    JournalInspect {
        /// The journal file to list and integrity-check.
        journal: String,
    },
    /// `redundancy certify`
    Certify {
        /// Task count.
        tasks: u64,
        /// Detection threshold.
        epsilon: f64,
        /// Certify `S_m` for every m from 2 to this dimension.
        max_dim: usize,
    },
    /// `redundancy bench`
    Bench {
        /// Shrink fixture sizes and repetitions for CI smoke runs.
        smoke: bool,
        /// RNG seed shared by every randomized fixture.
        seed: u64,
        /// Where the BENCH JSON report is written.
        out: String,
        /// Optional baseline report to gate regressions against.
        baseline: Option<String>,
        /// Cap on the thread counts the scaling fixtures exercise
        /// (0 = the full 1/2/4 ladder).
        threads: usize,
        /// Chunk size for the `run_trials` scaling fixtures.
        chunk_size: u64,
        /// Override every fixture's repetition count (must be positive).
        reps: Option<u64>,
    },
    /// `redundancy repro`
    Repro {
        /// Exhibit to run (a registry name); absent with `--list`/`--all`.
        exhibit: Option<String>,
        /// List the exhibit registry instead of running anything.
        list: bool,
        /// Run every registry entry.
        all: bool,
        /// Where the `repro-report/v1` JSON goes: a file path for a single
        /// exhibit, a directory for `--all`.
        json: Option<String>,
        /// Shared exhibit flags (`--seed/--csv/--trials-scale/--threads`),
        /// validated by the registry's own parser.
        ctx: redundancy_repro::ExhibitCtx,
    },
    /// `redundancy help [command]`
    Help {
        /// Command to describe, if any.
        topic: Option<String>,
    },
}

/// Argument-parsing failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
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

/// Collect `--key value` pairs after the subcommand.
fn collect_flags(argv: &[String]) -> Result<HashMap<String, String>, ArgError> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let key = &argv[i];
        if !key.starts_with("--") {
            return Err(ArgError::UnknownCommand(key.clone()));
        }
        // Boolean flags take no value.
        if key == "--min-precompute"
            || key == "--smoke"
            || key == "--soak"
            || key == "--stdio"
            || key == "--recover"
        {
            flags.insert(key.clone(), "true".into());
            i += 1;
            continue;
        }
        let Some(value) = argv.get(i + 1) else {
            return Err(ArgError::MissingValue(key.clone()));
        };
        flags.insert(key.clone(), value.clone());
        i += 2;
    }
    Ok(flags)
}

struct FlagSet<'a> {
    flags: HashMap<String, String>,
    command: &'static str,
    allowed: &'a [&'static str],
}

impl<'a> FlagSet<'a> {
    fn new(
        argv: &[String],
        command: &'static str,
        allowed: &'a [&'static str],
    ) -> Result<Self, ArgError> {
        let flags = collect_flags(argv)?;
        for key in flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::UnknownFlag {
                    flag: key.clone(),
                    command,
                });
            }
        }
        Ok(FlagSet {
            flags,
            command,
            allowed,
        })
    }

    fn required<T: std::str::FromStr>(
        &self,
        flag: &'static str,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        debug_assert!(self.allowed.contains(&flag));
        let raw = self.flags.get(flag).ok_or(ArgError::MissingFlag {
            flag,
            command: self.command,
        })?;
        raw.parse().map_err(|_| ArgError::BadValue {
            flag: flag.into(),
            value: raw.clone(),
            expected,
        })
    }

    fn optional<T: std::str::FromStr>(
        &self,
        flag: &'static str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        match self.flags.get(flag) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| ArgError::BadValue {
                flag: flag.into(),
                value: raw.clone(),
                expected,
            }),
        }
    }

    fn or_default<T: std::str::FromStr>(
        &self,
        flag: &'static str,
        expected: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        Ok(self.optional(flag, expected)?.unwrap_or(default))
    }

    fn scheme(&self, default: SchemeName) -> Result<SchemeName, ArgError> {
        match self.flags.get("--scheme") {
            None => Ok(default),
            Some(raw) => SchemeName::parse(raw),
        }
    }
}

fn check_unit_interval(flag: &'static str, value: f64, open_top: bool) -> Result<f64, ArgError> {
    let ok = if open_top {
        (0.0..1.0).contains(&value)
    } else {
        0.0 < value && value < 1.0
    };
    if ok && value.is_finite() {
        Ok(value)
    } else {
        Err(ArgError::BadValue {
            flag: flag.into(),
            value: value.to_string(),
            expected: "a number strictly inside (0, 1)",
        })
    }
}

/// A fault-injection probability: any value in the closed interval [0, 1].
fn check_rate(flag: &'static str, value: f64) -> Result<f64, ArgError> {
    if (0.0..=1.0).contains(&value) && value.is_finite() {
        Ok(value)
    } else {
        Err(ArgError::BadValue {
            flag: flag.into(),
            value: value.to_string(),
            expected: "a probability in [0, 1]",
        })
    }
}

/// A count that must be at least 1 (timeouts, sweep steps).
fn check_nonzero<T: Into<u64> + Copy>(
    flag: &'static str,
    value: T,
    expected: &'static str,
) -> Result<T, ArgError> {
    if value.into() == 0 {
        Err(ArgError::BadValue {
            flag: flag.into(),
            value: "0".into(),
            expected,
        })
    } else {
        Ok(value)
    }
}

/// A count `redundancy` spends one thread or one store shard on before it
/// serves anything (`--clients`, `--shards`): at most [`MAX_THREADS`], the
/// bound `--threads` keeps too.
fn check_at_most_max_threads(
    flag: &'static str,
    value: u64,
    expected: &'static str,
) -> Result<usize, ArgError> {
    match usize::try_from(value) {
        Ok(n) if n <= MAX_THREADS => Ok(n),
        _ => Err(ArgError::BadValue {
            flag: flag.into(),
            value: value.to_string(),
            expected,
        }),
    }
}

/// Parse a full argv (excluding the program name) into a [`Command`].
pub fn parse_args(argv: &[String]) -> Result<Command, ArgError> {
    let Some(command) = argv.first() else {
        return Err(ArgError::NoCommand);
    };
    let rest = &argv[1..];
    match command.as_str() {
        "plan" => {
            let f = FlagSet::new(
                rest,
                "plan",
                &[
                    "--scheme",
                    "--tasks",
                    "--epsilon",
                    "--min-multiplicity",
                    "--proportion",
                    "--json",
                ],
            )?;
            Ok(Command::Plan {
                scheme: f.scheme(SchemeName::Balanced)?,
                tasks: f.required("--tasks", "a positive integer")?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.required("--epsilon", "a number in (0, 1)")?,
                    false,
                )?,
                min_multiplicity: f.optional("--min-multiplicity", "a positive integer")?,
                proportion: check_unit_interval(
                    "--proportion",
                    f.or_default("--proportion", "a number in [0, 1)", 0.0)?,
                    true,
                )
                .or_else(|e| {
                    if f.flags.contains_key("--proportion") {
                        Err(e)
                    } else {
                        Ok(0.0)
                    }
                })?,
                json: f.optional("--json", "a file path")?,
            })
        }
        "analyze" => {
            let f = FlagSet::new(
                rest,
                "analyze",
                &["--scheme", "--tasks", "--epsilon", "--proportion"],
            )?;
            Ok(Command::Analyze {
                scheme: f.scheme(SchemeName::Balanced)?,
                tasks: f.required("--tasks", "a positive integer")?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.required("--epsilon", "a number in (0, 1)")?,
                    false,
                )?,
                proportion: f.or_default("--proportion", "a number in [0, 1)", 0.0)?,
            })
        }
        "advise" => {
            let f = FlagSet::new(
                rest,
                "advise",
                &[
                    "--tasks",
                    "--epsilon",
                    "--adversary",
                    "--precompute-budget",
                    "--min-multiplicity",
                ],
            )?;
            Ok(Command::Advise {
                tasks: f.required("--tasks", "a positive integer")?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.required("--epsilon", "a number in (0, 1)")?,
                    false,
                )?,
                adversary: f.or_default("--adversary", "a number in [0, 1)", 0.0)?,
                precompute_budget: f.or_default("--precompute-budget", "an integer", 0)?,
                min_multiplicity: f.optional("--min-multiplicity", "a positive integer")?,
            })
        }
        "simulate" => {
            let f = FlagSet::new(
                rest,
                "simulate",
                &[
                    "--scheme",
                    "--tasks",
                    "--epsilon",
                    "--proportion",
                    "--campaigns",
                    "--seed",
                    "--chunk-size",
                    "--threads",
                    "--sampler",
                ],
            )?;
            Ok(Command::Simulate {
                scheme: f.scheme(SchemeName::Balanced)?,
                tasks: f.required("--tasks", "a positive integer")?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.required("--epsilon", "a number in (0, 1)")?,
                    false,
                )?,
                proportion: f.or_default("--proportion", "a number in [0, 1)", 0.0)?,
                campaigns: f.or_default("--campaigns", "a positive integer", 20)?,
                seed: f.or_default("--seed", "a 64-bit integer", 20_050_926)?,
                chunk_size: f.or_default("--chunk-size", "a positive integer", 4)?,
                threads: f.or_default("--threads", "a thread count (0 = auto)", 0)?,
                sampler: f.or_default(
                    "--sampler",
                    "`bit-compat` or `fast`",
                    SamplerMode::default(),
                )?,
            })
        }
        "solve-sm" => {
            let f = FlagSet::new(
                rest,
                "solve-sm",
                &["--tasks", "--epsilon", "--dim", "--min-precompute", "--mps"],
            )?;
            Ok(Command::SolveSm {
                tasks: f.required("--tasks", "a positive integer")?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.required("--epsilon", "a number in (0, 1)")?,
                    false,
                )?,
                dim: f.required("--dim", "an integer ≥ 2")?,
                min_precompute: f.flags.contains_key("--min-precompute"),
                mps: f.optional("--mps", "a file path")?,
            })
        }
        "faults" => {
            let f = FlagSet::new(
                rest,
                "faults",
                &[
                    "--scheme",
                    "--tasks",
                    "--epsilon",
                    "--proportion",
                    "--campaigns",
                    "--seed",
                    "--drop-rate",
                    "--straggler-rate",
                    "--straggler-delay",
                    "--timeout",
                    "--retries",
                    "--steps",
                    "--chunk-size",
                    "--threads",
                ],
            )?;
            Ok(Command::Faults {
                scheme: f.scheme(SchemeName::Balanced)?,
                tasks: f.required("--tasks", "a positive integer")?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.required("--epsilon", "a number in (0, 1)")?,
                    false,
                )?,
                proportion: check_unit_interval(
                    "--proportion",
                    f.or_default("--proportion", "a number in [0, 1)", 0.1)?,
                    true,
                )?,
                campaigns: f.or_default("--campaigns", "a positive integer", 20)?,
                seed: f.or_default("--seed", "a 64-bit integer", 20_050_926)?,
                drop_rate: check_rate(
                    "--drop-rate",
                    f.or_default("--drop-rate", "a probability in [0, 1]", 0.5)?,
                )?,
                straggler_rate: check_rate(
                    "--straggler-rate",
                    f.or_default("--straggler-rate", "a probability in [0, 1]", 0.0)?,
                )?,
                straggler_delay: f.or_default("--straggler-delay", "ticks >= 1", 4.0)?,
                timeout: check_nonzero(
                    "--timeout",
                    f.or_default("--timeout", "a positive number of ticks", 8u64)?,
                    "a positive number of ticks",
                )?,
                retries: f.or_default("--retries", "a small integer", 3)?,
                steps: check_nonzero(
                    "--steps",
                    f.or_default("--steps", "a positive integer", 5u32)?,
                    "a positive number of sweep steps",
                )?,
                chunk_size: f.or_default("--chunk-size", "a positive integer", 4)?,
                threads: f.or_default("--threads", "a thread count (0 = auto)", 0)?,
            })
        }
        "churn" => {
            let f = FlagSet::new(
                rest,
                "churn",
                &[
                    "--scheme",
                    "--tasks",
                    "--epsilon",
                    "--proportion",
                    "--campaigns",
                    "--seed",
                    "--enter-rate",
                    "--leave-rate",
                    "--fail-rate",
                    "--workers",
                    "--horizon",
                    "--census-interval",
                    "--steps",
                    "--chunk-size",
                    "--threads",
                    "--soak",
                ],
            )?;
            // An explicit `--threads 0` is rejected (the flag means "use
            // exactly this many"); omitting it keeps the auto default.
            let threads = match f.optional::<u64>("--threads", "a positive thread count")? {
                None => 0,
                Some(t) => {
                    check_nonzero("--threads", t, "a positive thread count (omit for auto)")?
                        as usize
                }
            };
            Ok(Command::Churn {
                scheme: f.scheme(SchemeName::Balanced)?,
                tasks: check_nonzero(
                    "--tasks",
                    f.or_default("--tasks", "a positive integer", 2_000u64)?,
                    "a positive task count",
                )?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.or_default("--epsilon", "a number in (0, 1)", 0.5)?,
                    false,
                )?,
                proportion: check_unit_interval(
                    "--proportion",
                    f.or_default("--proportion", "a number in [0, 1)", 0.2)?,
                    true,
                )?,
                campaigns: f.or_default("--campaigns", "a positive integer", 8)?,
                seed: f.or_default("--seed", "a 64-bit integer", 20_050_926)?,
                enter_rate: check_rate(
                    "--enter-rate",
                    f.or_default("--enter-rate", "a probability in [0, 1]", 0.6)?,
                )?,
                leave_rate: check_rate(
                    "--leave-rate",
                    f.or_default("--leave-rate", "a probability in [0, 1]", 0.004)?,
                )?,
                fail_rate: check_rate(
                    "--fail-rate",
                    f.or_default("--fail-rate", "a probability in [0, 1]", 0.0)?,
                )?,
                workers: check_nonzero(
                    "--workers",
                    f.or_default("--workers", "a positive integer", 400u64)?,
                    "a positive worker count",
                )?,
                horizon: check_nonzero(
                    "--horizon",
                    f.or_default("--horizon", "a positive number of ticks", 2_000u64)?,
                    "a positive number of ticks",
                )?,
                census_interval: check_nonzero(
                    "--census-interval",
                    f.or_default("--census-interval", "a positive number of ticks", 500u64)?,
                    "a positive number of ticks",
                )?,
                steps: check_nonzero(
                    "--steps",
                    f.or_default("--steps", "a positive integer", 4u32)?,
                    "a positive number of sweep steps",
                )?,
                chunk_size: f.or_default("--chunk-size", "a positive integer", 4)?,
                threads,
                soak: f.flags.contains_key("--soak"),
            })
        }
        "serve" => {
            let f = FlagSet::new(
                rest,
                "serve",
                &[
                    "--scheme",
                    "--tasks",
                    "--epsilon",
                    "--proportion",
                    "--seed",
                    "--shards",
                    "--timeout",
                    "--retries",
                    "--port",
                    "--clients",
                    "--stdio",
                    "--streams",
                    "--json",
                    "--journal",
                    "--sync",
                    "--recover",
                ],
            )?;
            // `--recover` replays an existing journal; without one there is
            // nothing to recover from.
            if f.flags.contains_key("--recover") && !f.flags.contains_key("--journal") {
                return Err(ArgError::BadValue {
                    flag: "--recover".into(),
                    value: "set".into(),
                    expected: "a --journal path to recover from",
                });
            }
            // The port range is checked here (not left to u16 parsing) so
            // `--port 70000` names the flag and the accepted range.
            let port = match f.optional::<u64>("--port", "a TCP port in 0..=65535")? {
                None => None,
                Some(p) if p <= u64::from(u16::MAX) => Some(p as u16),
                Some(p) => {
                    return Err(ArgError::BadValue {
                        flag: "--port".into(),
                        value: p.to_string(),
                        expected: "a TCP port in 0..=65535",
                    })
                }
            };
            Ok(Command::Serve {
                scheme: f.scheme(SchemeName::Balanced)?,
                tasks: check_nonzero(
                    "--tasks",
                    f.or_default("--tasks", "a positive integer", 2_000u64)?,
                    "a positive task count",
                )?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.or_default("--epsilon", "a number in (0, 1)", 0.5)?,
                    false,
                )?,
                proportion: check_unit_interval(
                    "--proportion",
                    f.or_default("--proportion", "a number in [0, 1)", 0.2)?,
                    true,
                )?,
                seed: f.or_default("--seed", "a 64-bit integer", 20_050_926)?,
                shards: check_at_most_max_threads(
                    "--shards",
                    check_nonzero(
                        "--shards",
                        f.or_default("--shards", "a positive shard count", 1u64)?,
                        "a positive shard count",
                    )?,
                    "a shard count in 1..=1024",
                )?,
                timeout: check_nonzero(
                    "--timeout",
                    f.or_default("--timeout", "a positive number of ticks", 8u64)?,
                    "a positive number of ticks",
                )?,
                retries: f.or_default("--retries", "a small integer", 3)?,
                port,
                clients: check_at_most_max_threads(
                    "--clients",
                    f.or_default("--clients", "a client count", 0u64)?,
                    "a client count in 0..=1024",
                )?,
                stdio: f.flags.contains_key("--stdio"),
                streams: f.or_default("--streams", "single or per-shard", StreamMode::Single)?,
                json: f.optional("--json", "a file path")?,
                journal: f.optional("--journal", "a file path")?,
                sync: f.or_default("--sync", "always, batch, or off", SyncPolicy::Batch)?,
                recover: f.flags.contains_key("--recover"),
            })
        }
        "journal-inspect" => {
            let f = FlagSet::new(rest, "journal-inspect", &["--journal"])?;
            Ok(Command::JournalInspect {
                journal: f.required("--journal", "a file path")?,
            })
        }
        "certify" => {
            let f = FlagSet::new(rest, "certify", &["--tasks", "--epsilon", "--max-dim"])?;
            Ok(Command::Certify {
                tasks: f.or_default("--tasks", "a positive integer", 100_000)?,
                epsilon: check_unit_interval(
                    "--epsilon",
                    f.or_default("--epsilon", "a number in (0, 1)", 0.5)?,
                    false,
                )?,
                max_dim: f.or_default("--max-dim", "an integer ≥ 2", 10)?,
            })
        }
        "bench" => {
            let f = FlagSet::new(
                rest,
                "bench",
                &[
                    "--smoke",
                    "--seed",
                    "--out",
                    "--baseline",
                    "--threads",
                    "--chunk-size",
                    "--reps",
                ],
            )?;
            Ok(Command::Bench {
                smoke: f.flags.contains_key("--smoke"),
                seed: f.or_default("--seed", "a 64-bit integer", 20_050_926)?,
                out: f
                    .optional("--out", "a file path")?
                    .unwrap_or_else(|| "BENCH_report.json".into()),
                baseline: f.optional("--baseline", "a file path")?,
                threads: f.or_default("--threads", "a thread count (0 = full ladder)", 0)?,
                chunk_size: f.or_default("--chunk-size", "a positive integer", 4)?,
                reps: f
                    .optional("--reps", "a positive repetition count")?
                    .map(|r| check_nonzero("--reps", r, "a positive repetition count"))
                    .transpose()?,
            })
        }
        "repro" => {
            // `repro` mixes one positional (the exhibit name) with its own
            // booleans and the shared exhibit flags, so it walks the argv
            // itself and hands the shared flags to the registry's parser —
            // the same code path the legacy standalone binaries use.
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
            Ok(Command::Repro {
                exhibit,
                list,
                all,
                json,
                ctx,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help {
            topic: rest.first().cloned(),
        }),
        other => Err(ArgError::UnknownCommand(other.into())),
    }
}

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
            Command::Plan {
                scheme: SchemeName::GolleStubblebine,
                tasks: 1000,
                epsilon: 0.5,
                min_multiplicity: None,
                proportion: 0.0,
                json: Some("out.json".into()),
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse_args(&argv(&["simulate", "--tasks", "10", "--epsilon", "0.5"])).unwrap();
        match cmd {
            Command::Simulate {
                scheme,
                campaigns,
                seed,
                proportion,
                ..
            } => {
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
        assert_eq!(SchemeName::parse("bal").unwrap(), SchemeName::Balanced);
        assert_eq!(
            SchemeName::parse("golle-stubblebine").unwrap(),
            SchemeName::GolleStubblebine
        );
        assert_eq!(
            SchemeName::parse("extended-balanced").unwrap(),
            SchemeName::Extended
        );
        assert!(SchemeName::parse("magic").is_err());
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
            Command::SolveSm {
                min_precompute,
                dim,
                ..
            } => {
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
            Command::Faults {
                drop_rate,
                straggler_rate,
                timeout,
                retries,
                steps,
                proportion,
                ..
            } => {
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
            Command::Faults {
                drop_rate,
                straggler_rate,
                timeout,
                retries,
                ..
            } => {
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
            Command::Simulate {
                chunk_size,
                threads,
                ..
            } => {
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
            Command::Faults {
                chunk_size,
                threads,
                ..
            } => {
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
            Command::Simulate { chunk_size, .. } => assert_eq!(chunk_size, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn churn_defaults_and_overrides() {
        let cmd = parse_args(&argv(&["churn"])).unwrap();
        match cmd {
            Command::Churn {
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
            } => {
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
            Command::Churn {
                workers,
                horizon,
                leave_rate,
                threads,
                soak,
                ..
            } => {
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
            Command::Serve {
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
            }
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
            Command::Serve {
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
            } => {
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
            Command::Serve { stdio, seed, .. } => {
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
            Command::Serve {
                journal,
                sync,
                recover,
                ..
            } => {
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
            Command::JournalInspect {
                journal: "x.journal".into()
            }
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
            Command::Certify {
                tasks: 100_000,
                epsilon: 0.5,
                max_dim: 10,
            }
        );
        let cmd = parse_args(&argv(&["certify", "--max-dim", "26", "--tasks", "5000"])).unwrap();
        match cmd {
            Command::Certify { tasks, max_dim, .. } => {
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
            Command::Bench {
                smoke: false,
                seed: 20_050_926,
                out: "BENCH_report.json".into(),
                baseline: None,
                threads: 0,
                chunk_size: 4,
                reps: None,
            }
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
            Command::Bench {
                smoke: true,
                seed: 7,
                out: "r.json".into(),
                baseline: Some("BENCH_baseline.json".into()),
                threads: 2,
                chunk_size: 8,
                reps: Some(3),
            }
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
            Command::Simulate { sampler, .. } => assert_eq!(sampler, SamplerMode::BitCompat),
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
            Command::Simulate { sampler, .. } => assert_eq!(sampler, SamplerMode::Fast),
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
            Command::Repro {
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
            }
        );
    }

    #[test]
    fn repro_list_and_all_and_defaults() {
        assert_eq!(
            parse_args(&argv(&["repro", "--list"])).unwrap(),
            Command::Repro {
                exhibit: None,
                list: true,
                all: false,
                json: None,
                ctx: redundancy_repro::ExhibitCtx::default(),
            }
        );
        let cmd = parse_args(&argv(&["repro", "--all", "--json", "reports"])).unwrap();
        assert_eq!(
            cmd,
            Command::Repro {
                exhibit: None,
                list: false,
                all: true,
                json: Some("reports".into()),
                ctx: redundancy_repro::ExhibitCtx::default(),
            }
        );
        // The shared seed default is the conference date, same as the
        // legacy binaries.
        match cmd {
            Command::Repro { ctx, .. } => assert_eq!(ctx.seed, 20_050_926),
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
}
