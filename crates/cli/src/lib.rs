#![warn(missing_docs)]

//! # redundancy-cli — the `redundancy` command
//!
//! A supervisor-facing command-line tool over the whole workspace:
//!
//! ```text
//! redundancy plan     --scheme balanced --tasks 1000000 --epsilon 0.75 [--json plan.json]
//! redundancy analyze  --tasks 1000000 --epsilon 0.75 [--proportion 0.1] [--scheme gs]
//! redundancy advise   --tasks 200000 --epsilon 0.5 --adversary 0.1 --precompute-budget 100
//! redundancy simulate --tasks 20000 --epsilon 0.5 --proportion 0.1 --campaigns 30 [--seed 1]
//! redundancy faults   --tasks 10000 --epsilon 0.5 --drop-rate 0.5 --steps 5 [--retries 3]
//! redundancy churn    --tasks 2000 --epsilon 0.5 --leave-rate 0.004 --steps 4 [--soak]
//! redundancy serve    --tasks 2000 --epsilon 0.5 --proportion 0.2 [--stdio | --clients 8]
//! redundancy solve-sm --tasks 100000 --epsilon 0.5 --dim 16 [--mps out.mps] [--min-precompute]
//! redundancy certify  --tasks 100000 --epsilon 0.5 --max-dim 26
//! redundancy bench    --smoke --out BENCH_report.json [--baseline BENCH_baseline.json]
//! redundancy repro    fig2_minimizing_table [--json report.json] | --list | --all
//! ```
//!
//! Every command is a pure function from parsed arguments to a report
//! string (plus optional file side effects), so the whole surface is unit
//! tested without spawning processes.  Each subcommand's flags live in one
//! table (`args.rs`) that parsing, `help <command>` and the exit-2
//! messages all read.

mod args;
mod bench;
mod commands;

/// Entry point shared by `main` and the tests: parse and dispatch.
pub fn run(argv: &[String]) -> Result<String, String> {
    let command = args::parse_args(argv).map_err(|e| e.to_string())?;
    commands::dispatch(&command).map_err(|e| e.to_string())
}

/// The top-level usage text.
const USAGE: &str = "\
redundancy — optimal redundancy strategies for distributed computations
           (Szajda, Lawson, Owen; IEEE CLUSTER 2005)

USAGE:
    redundancy <COMMAND> [OPTIONS]

COMMANDS:
    plan       Build a deployable task-distribution plan
    analyze    Detection probabilities and costs for a scheme
    advise     Pick the cheapest scheme for operational requirements
    simulate   Monte-Carlo campaign simulation with a colluding adversary
    faults     Detection-probability sweep under drops, stragglers, retries
    churn      Detection/redundancy drift under a dynamic worker population
    serve      Live supervisor: serve assignments over the framed protocol
    solve-sm   Solve an assignment-minimizing LP system S_m
    certify    Certify S_m optima with the exact-rational LP oracle
    bench      Pinned performance fixtures with a BENCH JSON report
    repro      Regenerate the paper's tables and figures from the registry
    journal-inspect  List a serve journal's records and verify its integrity
    help       Show this message

Run `redundancy help <COMMAND>` for a command's flags and their defaults.
";
