//! Command implementations: each returns the report it would print.

use crate::args::{
    help, AdviseArgs, AnalyzeArgs, CertifyArgs, ChurnArgs, Command, FaultsArgs, JournalInspectArgs,
    PlanArgs, ReproArgs, SchemeName, ServeArgs, SimulateArgs, SolveSmArgs,
};
use redundancy_core::{
    advise, certify_sweep, AssignmentMinimizing, CoreError, ExtendedBalanced, RealizedPlan,
    Requirements, Scheme,
};
use redundancy_sim::serve::{
    epoll, handle_request, parse_journal, read_frame, replay_groups, workload_fingerprint_groups,
    write_frame, Frame, JournalWriter, JournaledStore, Record, ReplayOptions, SessionHeader, Store,
    SyncPolicy, WorkStore,
};
use redundancy_sim::task::{plan_groups, SpecGroup};
use redundancy_sim::{
    churn_experiment, churn_soak, detection_experiment, drain_equivalence,
    faulty_detection_experiment, run_campaign_groups, serve_connection, serve_readiness_loop,
    AdversaryModel, CampaignConfig, CampaignOutcome, CampaignScratch, CheatStrategy, ChurnModel,
    DrainState, ExperimentConfig, FaultModel, LoopOptions, ServeConfig, ServeStats, StreamMode,
};
use redundancy_stats::table::{fnum, inum, Table};
use redundancy_stats::{
    parallel_sweep, sweep_thread_split, DeterministicRng, SamplerMode, TrialConfig,
};
use std::fmt::Write as _;

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// A domain error from the core library.
    Core(CoreError),
    /// An I/O failure writing an output file.
    Io(String),
    /// A semantic error detected at dispatch time.
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl From<CoreError> for CliError {
    fn from(e: CoreError) -> Self {
        CliError::Core(e)
    }
}

/// Build the plan a (scheme, parameters) combination describes.
fn build_plan(
    scheme: SchemeName,
    tasks: u64,
    epsilon: f64,
    min_multiplicity: Option<usize>,
    proportion: f64,
) -> Result<RealizedPlan, CliError> {
    // Boost ε so the guarantee survives the stated adversary share.
    let effective_eps = if proportion > 0.0 {
        1.0 - (1.0 - epsilon).powf(1.0 / (1.0 - proportion))
    } else {
        epsilon
    };
    if effective_eps >= 1.0 || effective_eps.is_nan() {
        return Err(CliError::Invalid(format!(
            "threshold {epsilon} is unreachable at adversary proportion {proportion}"
        )));
    }
    match scheme {
        SchemeName::Balanced => Ok(RealizedPlan::balanced(tasks, effective_eps)?),
        SchemeName::GolleStubblebine => Ok(RealizedPlan::golle_stubblebine(tasks, effective_eps)?),
        SchemeName::Simple => Ok(RealizedPlan::k_fold(tasks, 2, epsilon)?),
        SchemeName::Extended => {
            let m = min_multiplicity.unwrap_or(2);
            let ext = ExtendedBalanced::new(tasks, effective_eps, m)?;
            RealizedPlan::from_ideal_weights("extended-balanced", tasks, effective_eps, |i| {
                ext.ideal_weight(i)
            })
            .map_err(CliError::Core)
        }
    }
}

/// Dispatch a parsed command.
pub(crate) fn dispatch(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help { topic } => Ok(help(topic.as_deref())),
        Command::Plan(a) => plan(a),
        Command::Analyze(a) => analyze(a),
        Command::Advise(a) => advise_cmd(a),
        Command::Simulate(a) => simulate(a),
        Command::SolveSm(a) => solve_sm(a),
        Command::Faults(a) => faults_sweep(a),
        Command::Churn(a) if a.soak => churn_soak_cmd(a),
        Command::Churn(a) => churn_sweep(a),
        Command::Serve(a) => serve_cmd(a),
        Command::JournalInspect(a) => journal_inspect(a),
        Command::Certify(a) => certify(a),
        Command::Bench(a) => crate::bench::bench(a),
        Command::Repro(a) => repro(a),
    }
}

/// `redundancy repro`: the unified front door to the exhibit registry.
fn repro(a: &ReproArgs) -> Result<String, CliError> {
    use redundancy_json::to_string_pretty;

    let (exhibit, json, ctx) = (a.exhibit.as_deref(), a.json.as_deref(), &a.ctx);
    if a.list {
        return Ok(redundancy_repro::render_index());
    }
    if a.all && exhibit.is_some() {
        return Err(CliError::Invalid(
            "`repro --all` runs every exhibit; drop the exhibit name".into(),
        ));
    }
    if a.all {
        // Batch mode: one status line per exhibit on stdout; with --json,
        // one repro-report/v1 document per exhibit under the directory.
        if let Some(dir) = json {
            std::fs::create_dir_all(dir)
                .map_err(|e| CliError::Io(format!("creating {dir}: {e}")))?;
        }
        let mut out = String::new();
        for entry in redundancy_repro::registry() {
            let report = entry.run(ctx);
            let status = if report.passed { "ok" } else { "FAILED" };
            let _ = writeln!(out, "[{status}] {}", entry.name());
            if let Some(dir) = json {
                let path = format!("{dir}/{}.json", entry.name());
                std::fs::write(&path, to_string_pretty(&report.to_json(ctx)))
                    .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
                let _ = writeln!(out, "  [json written to {path}]");
            }
            if !report.passed {
                return Err(CliError::Invalid(format!(
                    "exhibit `{}` reported failed self-checks:\n{out}",
                    entry.name()
                )));
            }
        }
        let _ = writeln!(
            out,
            "{} exhibits completed.",
            redundancy_repro::registry().len()
        );
        return Ok(out);
    }
    let Some(name) = exhibit else {
        return Err(CliError::Invalid(
            "`repro` needs an exhibit name (or --list / --all); try `redundancy repro --list`"
                .into(),
        ));
    };
    let Some(entry) = redundancy_repro::find(name) else {
        return Err(CliError::Invalid(format!(
            "unknown exhibit `{name}`; try `redundancy repro --list`"
        )));
    };
    let start = std::time::Instant::now();
    let report = entry.run(ctx);
    // Byte-identical to the standalone binary: the registry's shared
    // emitter renders the text and performs the --csv side effect.
    let mut out = redundancy_repro::emit_text(&report, ctx);
    if let Some(path) = json {
        std::fs::write(path, to_string_pretty(&report.to_json(ctx)))
            .map_err(|e| CliError::Io(format!("writing {path}: {e}")))?;
        eprintln!("[json written to {path}]");
    }
    if report.tasks > 0 {
        redundancy_repro::throughput_footer(
            name,
            report.tasks,
            report.assignments,
            start.elapsed(),
        );
    }
    if !report.passed {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "exhibit `{name}` reported failed self-checks (see above)."
        );
    }
    Ok(out)
}

/// Reject CLI-supplied trial-runner parameters that `run_trials` would only
/// catch with a debug assertion, naming the flag so `main` can exit with
/// code 2.
pub(crate) fn check_trial_config(
    campaigns: u64,
    seed: u64,
    chunk_size: u64,
    threads: usize,
) -> Result<(), CliError> {
    TrialConfig {
        trials: campaigns,
        chunk_size,
        threads,
        seed,
        sampler: Default::default(),
    }
    .validate()
    .map_err(|e| CliError::Invalid(format!("--{}: {e}", e.field.replace('_', "-"))))
}

fn plan(a: &PlanArgs) -> Result<String, CliError> {
    let plan = build_plan(
        a.scheme,
        a.tasks,
        a.epsilon,
        a.min_multiplicity,
        a.proportion,
    )?;
    let mut out = String::new();
    let _ = writeln!(out, "plan: {} over {} tasks", plan.scheme(), inum(a.tasks));
    let _ = writeln!(
        out,
        "guarantee: detection >= {} for every tuple size{}",
        a.epsilon,
        if a.proportion > 0.0 {
            format!(
                " up to adversary share {} (threshold boosted to {:.4})",
                a.proportion,
                plan.epsilon()
            )
        } else {
            String::new()
        }
    );
    let mut table = Table::new(&["multiplicity", "tasks", "kind"]);
    table.numeric();
    for p in plan.partitions() {
        table.row(&[
            &p.multiplicity.to_string(),
            &inum(p.tasks),
            &format!("{:?}", p.kind),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "total assignments: {} (factor {:.4}); precomputed tasks: {}",
        inum(plan.total_assignments()),
        plan.redundancy_factor(),
        plan.precomputed_tasks()
    );
    let _ = writeln!(
        out,
        "effective detection at p = 0: {:.4}; at p = 0.1: {:.4}",
        plan.effective_detection(0.0)?,
        plan.effective_detection(0.1)?
    );
    if let Some(path) = &a.json {
        let body = redundancy_json::to_string_pretty(&plan);
        std::fs::write(path, body).map_err(|e| CliError::Io(e.to_string()))?;
        let _ = writeln!(out, "[plan written to {path}]");
    }
    Ok(out)
}

fn analyze(a: &AnalyzeArgs) -> Result<String, CliError> {
    let (epsilon, proportion) = (a.epsilon, a.proportion);
    let plan = build_plan(a.scheme, a.tasks, epsilon, None, 0.0)?;
    let profile = plan.detection_profile();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "analysis: {} at eps = {epsilon}, N = {}",
        plan.scheme(),
        inum(a.tasks)
    );
    let mut table = Table::new(&["k", "P_k (asymptotic)", &format!("P_k at p = {proportion}")]);
    table.numeric();
    let dim = profile.dimension().min(12);
    for k in 1..=dim {
        let asym = profile
            .p_asymptotic(k)
            .map(|v| fnum(v, 4))
            .unwrap_or_else(|| "-".into());
        let nonasym = profile
            .p_nonasymptotic(k, proportion)?
            .map(|v| fnum(v, 4))
            .unwrap_or_else(|| "-".into());
        table.row(&[&k.to_string(), &asym, &nonasym]);
    }
    out.push_str(&table.render());
    let (eff, waste) = redundancy_core::wasted_assignments(&profile)?;
    let _ = writeln!(
        out,
        "effective detection: {:.4} at p = 0, {:.4} at p = {proportion}",
        eff,
        profile.effective_detection(proportion)?
    );
    let _ = writeln!(
        out,
        "cost: {} assignments (factor {:.4}); wasted vs optimal-at-this-protection: {}",
        inum(plan.total_assignments()),
        plan.redundancy_factor(),
        inum(waste.round() as u64)
    );
    Ok(out)
}

fn advise_cmd(a: &AdviseArgs) -> Result<String, CliError> {
    let req = Requirements {
        n_tasks: a.tasks,
        epsilon: a.epsilon,
        max_adversary_proportion: a.adversary,
        precompute_budget: a.precompute_budget,
        min_multiplicity: a.min_multiplicity,
    };
    let advice = advise(&req)?;
    let mut out = String::new();
    let _ = writeln!(out, "recommendation: {:?}", advice.choice);
    let _ = writeln!(out, "  {}", advice.rationale);
    let _ = writeln!(
        out,
        "  cost: {:.0} assignments (factor {:.4}); precompute {:.0} tasks",
        advice.total_assignments, advice.redundancy_factor, advice.precompute
    );
    let _ = writeln!(
        out,
        "  delivers detection {:.4} up to adversary share {}",
        advice.effective_detection, a.adversary
    );
    Ok(out)
}

fn simulate(a: &SimulateArgs) -> Result<String, CliError> {
    check_trial_config(a.campaigns, a.seed, a.chunk_size, a.threads)?;
    let plan = build_plan(a.scheme, a.tasks, a.epsilon, None, 0.0)?;
    let config = ExperimentConfig {
        chunk_size: a.chunk_size,
        threads: a.threads,
        sampler: a.sampler,
        ..ExperimentConfig::new(a.campaigns, a.seed)
    };
    let est = detection_experiment(
        &plan,
        AdversaryModel::AssignmentFraction { p: a.proportion },
        CheatStrategy::AtLeast { min_copies: 1 },
        &config,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated {} campaigns of {} ({} tasks each, adversary share {}, seed {})",
        a.campaigns,
        plan.scheme(),
        inum(a.tasks),
        a.proportion,
        a.seed
    );
    if a.sampler == SamplerMode::Fast {
        // Only the non-default mode announces itself, so bit-compat output
        // stays byte-stable for scripts diffing against old runs.
        let _ = writeln!(
            out,
            "sampler: fast (alias method; same distributions, different RNG stream)"
        );
    }
    let mut table = Table::new(&["k", "attacks", "detected", "rate", "95% CI"]);
    table.numeric();
    let mut any = false;
    for k in 1..est.outcome.cheats_attempted.len() {
        let Some(prop) = est.at_tuple(k) else {
            continue;
        };
        any = true;
        let (lo, hi) = prop.wilson_interval(1.96);
        table.row(&[
            &k.to_string(),
            &prop.trials().to_string(),
            &prop.successes().to_string(),
            &fnum(prop.estimate(), 4),
            &format!("[{}, {}]", fnum(lo, 4), fnum(hi, 4)),
        ]);
    }
    if any {
        out.push_str(&table.render());
    } else {
        let _ = writeln!(out, "(no attacks occurred — adversary share too small)");
    }
    let _ = writeln!(
        out,
        "wrong results accepted: {}; false flags: {}",
        est.outcome.wrong_accepted, est.outcome.false_flags
    );
    Ok(out)
}

fn faults_sweep(a: &FaultsArgs) -> Result<String, CliError> {
    check_trial_config(a.campaigns, a.seed, a.chunk_size, a.threads)?;
    let plan = build_plan(a.scheme, a.tasks, a.epsilon, None, 0.0)?;
    let campaign = CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: a.proportion },
        CheatStrategy::AtLeast { min_copies: 1 },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault sweep: {} over {} tasks, {} campaigns/row, adversary share {}, seed {}",
        plan.scheme(),
        inum(a.tasks),
        a.campaigns,
        a.proportion,
        a.seed
    );
    let _ = writeln!(
        out,
        "timeout {} ticks, {} retries, straggler rate {} (mean delay {})",
        a.timeout, a.retries, a.straggler_rate, a.straggler_delay
    );
    let expect = 1.0 - (1.0 - plan.epsilon()).powf(1.0 - a.proportion);
    let _ = writeln!(
        out,
        "closed-form detection with lossless delivery: {:.4}",
        expect
    );
    let mut table = Table::new(&[
        "drop rate",
        "detection",
        "95% CI",
        "delivered",
        "eff. mult",
        "retries",
        "unresolved",
    ]);
    table.numeric();
    // Validate every row's fault model up front, then run all rows on one
    // sweep pool; each row's experiment takes the leftover thread share.
    // Row seeds are fixed, so the table matches the serial loop exactly.
    let mut rows: Vec<(f64, FaultModel)> = Vec::new();
    for step in 0..=a.steps {
        let rate = a.drop_rate * f64::from(step) / f64::from(a.steps);
        let faults = FaultModel {
            drop_rate: rate,
            straggler_rate: a.straggler_rate,
            straggler_mean_delay: a.straggler_delay,
            timeout: a.timeout,
            max_retries: a.retries,
            ..FaultModel::none()
        };
        faults.validate().map_err(CliError::Invalid)?;
        rows.push((rate, faults));
    }
    let (outer, inner) = sweep_thread_split(a.threads, rows.len());
    let config = ExperimentConfig {
        chunk_size: a.chunk_size,
        ..ExperimentConfig::new(a.campaigns, a.seed)
    }
    .with_threads(inner);
    let estimates = parallel_sweep(outer, &rows, |_i, (_rate, faults)| {
        faulty_detection_experiment(&plan, &campaign, faults, &config)
    });
    for ((rate, _), est) in rows.iter().zip(&estimates) {
        let rate = *rate;
        let overall = est.overall();
        let (lo, hi) = overall.wilson_interval(1.96);
        table.row(&[
            &fnum(rate, 2),
            &fnum(overall.estimate(), 4),
            &format!("[{}, {}]", fnum(lo, 4), fnum(hi, 4)),
            &est.outcome
                .delivery_rate()
                .map(|v| fnum(v, 4))
                .unwrap_or_else(|| "-".into()),
            &est.outcome
                .effective_multiplicity()
                .map(|v| fnum(v, 3))
                .unwrap_or_else(|| "-".into()),
            &est.outcome.retries.to_string(),
            &est.outcome.unresolved_tasks.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "(detection below the closed form means fault pressure ate into the guarantee; \
raise --retries or the timeout to recover it)"
    );
    Ok(out)
}

fn churn_sweep(a: &ChurnArgs) -> Result<String, CliError> {
    check_trial_config(a.campaigns, a.seed, a.chunk_size, a.threads)?;
    let plan = build_plan(a.scheme, a.tasks, a.epsilon, None, 0.0)?;
    let campaign = CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: a.proportion },
        CheatStrategy::AtLeast { min_copies: 1 },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn sweep: {} over {} tasks, {} campaigns/row, adversary share {}, seed {}",
        plan.scheme(),
        inum(a.tasks),
        a.campaigns,
        a.proportion,
        a.seed
    );
    let _ = writeln!(
        out,
        "{} initial workers, horizon {} ticks, census every {} ticks, arrival rate {}, failure rate {}",
        inum(a.workers),
        inum(a.horizon),
        inum(a.census_interval),
        a.enter_rate,
        a.fail_rate
    );
    let expect = 1.0 - (1.0 - plan.epsilon()).powf(1.0 - a.proportion);
    let _ = writeln!(
        out,
        "closed-form detection with a static pool: {:.4}",
        expect
    );
    // Validate every row's churn model up front, then run all rows on one
    // sweep pool; each row's experiment takes the leftover thread share.
    // Row 0 is the fully static pool (all rates zero), so it exercises the
    // zero-churn delegation path and anchors the table at the closed form.
    let mut rows: Vec<(f64, ChurnModel)> = Vec::new();
    for step in 0..=a.steps {
        let rate = a.leave_rate * f64::from(step) / f64::from(a.steps);
        let churn = ChurnModel {
            enter_rate: if step == 0 { 0.0 } else { a.enter_rate },
            leave_rate: rate,
            fail_rate: if step == 0 { 0.0 } else { a.fail_rate },
            initial_workers: a.workers,
            horizon: a.horizon,
            census_interval: a.census_interval,
        };
        churn.validate().map_err(CliError::Invalid)?;
        rows.push((rate, churn));
    }
    let (outer, inner) = sweep_thread_split(a.threads, rows.len());
    let config = ExperimentConfig {
        chunk_size: a.chunk_size,
        ..ExperimentConfig::new(a.campaigns, a.seed)
    }
    .with_threads(inner);
    let estimates = parallel_sweep(outer, &rows, |_i, (_rate, churn)| {
        churn_experiment(&plan, &campaign, churn, &config)
    });
    let mut table = Table::new(&[
        "leave rate",
        "detection",
        "95% CI",
        "realized factor",
        "live workers",
        "reassigned/trial",
        "lost/trial",
    ]);
    table.numeric();
    for ((rate, churn), est) in rows.iter().zip(&estimates) {
        let overall = est.overall();
        let (lo, hi) = overall.wilson_interval(1.96);
        let trials = est.outcome.trials.max(1);
        let factor = est
            .realized_redundancy()
            .unwrap_or_else(|| plan.redundancy_factor());
        let live = est
            .outcome
            .census
            .last()
            .map_or(churn.initial_workers as f64, |s| s.mean_live_workers());
        table.row(&[
            &fnum(*rate, 4),
            &fnum(overall.estimate(), 4),
            &format!("[{}, {}]", fnum(lo, 4), fnum(hi, 4)),
            &fnum(factor, 3),
            &fnum(live, 1),
            &fnum(est.outcome.reassignments as f64 / trials as f64, 1),
            &fnum(est.outcome.lost_copies as f64 / trials as f64, 1),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "(departures reassign their copies — detection holds but the realized factor \
inflates; failures destroy copies and eat into the detection guarantee)"
    );
    Ok(out)
}

/// `redundancy churn --soak`: a single-trial event-loop stress run at the
/// canonical soak hazards, printing the deterministic checksum so two
/// same-seed runs can be compared byte for byte.
fn churn_soak_cmd(a: &ChurnArgs) -> Result<String, CliError> {
    let churn = ChurnModel::soak(a.workers, a.horizon);
    churn.validate().map_err(CliError::Invalid)?;
    let report = churn_soak(&churn, a.tasks, a.seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn soak: {} initial workers, horizon {} ticks, {} tasks, seed {}",
        inum(a.workers),
        inum(a.horizon),
        inum(a.tasks),
        a.seed
    );
    let _ = writeln!(
        out,
        "events: {} (arrivals {}, departures {}, failures {})",
        inum(report.events),
        inum(report.arrivals),
        inum(report.departures),
        inum(report.failures)
    );
    let _ = writeln!(
        out,
        "reassigned copies: {}; lost copies: {}; census checkpoints: {}",
        inum(report.reassignments),
        inum(report.lost_copies),
        report.checkpoints
    );
    let _ = writeln!(out, "checksum: {:#018x}", report.checksum);
    Ok(out)
}

/// A drained serve backend: aggregate stats, the full drained-state
/// snapshot (outcome + final RNG streams) the oracles compare, the
/// [`Store`] itself when the session ran per-shard streams (the JSON
/// report and the sharded-stream oracle both need the store, not just its
/// counters), and the journal's closing summary when one was written.
struct ServeRun {
    stats: ServeStats,
    state: DrainState,
    store: Option<Store>,
    journal: Option<JournalSummary>,
}

/// What a finished journal looked like, for the report tail and the JSON
/// `journal` member.
struct JournalSummary {
    path: String,
    policy: SyncPolicy,
    records: u64,
    bytes: u64,
    synced: u64,
    chain: u64,
}

/// How a session came back from `--recover`: what the replay consumed and
/// what the reset re-queued.
struct Recovery {
    records: u64,
    reverted: u64,
    torn_tail: bool,
}

/// The serve backend every transport drives: the store, owned outright,
/// behind the journaling wrapper (whose writer is `None` when `--journal`
/// is not given).  The journal's record order *is* the call order, which
/// is what makes replay deterministic.  The stdio loop and the epoll
/// readiness loop are one thread that answers one frame at a time, so
/// they own the backend, and a request takes no lock.
struct Backend(JournaledStore<Store>);

impl Backend {
    /// Answer one protocol request, formatting the reply into `reply`.
    /// Returns true when the request was `shutdown`.
    fn handle_into(&mut self, req: &str, reply: &mut String) -> bool {
        handle_request(&mut self.0, req, reply)
    }

    /// Drain the store to completion in process.
    fn drain(&mut self) {
        self.0.drain();
    }

    /// Tear down into the run summary once the transport has returned
    /// `served`: final stats, drained state, the store (per-shard
    /// sessions), and the journal summary.  The journal is flushed on every
    /// path, so a transport that failed never throws its records away; the
    /// transport's error is returned after the flush, naming the journal's
    /// too when both failed.  A journal append or flush failure alone
    /// surfaces as an error as well: the session itself finished, but its
    /// log cannot be trusted.
    fn finish(
        self,
        served: Result<(), String>,
        journal_path: Option<&str>,
    ) -> Result<ServeRun, CliError> {
        let js = self.0;
        let stats = js.stats();
        let state = DrainState::of(&js);
        let flushed = js
            .finish()
            .map_err(|e| format!("journal {}: {e}", journal_path.unwrap_or("<unset>")));
        let (store, writer) = match (served, flushed) {
            (Ok(()), Ok(parts)) => parts,
            (Ok(()), Err(e)) | (Err(e), Ok(_)) => return Err(CliError::Io(e)),
            (Err(e), Err(journal)) => return Err(CliError::Io(format!("{e}; {journal}"))),
        };
        let journal = match (writer, journal_path) {
            (Some(w), Some(path)) => Some(JournalSummary {
                path: path.to_string(),
                policy: w.policy(),
                records: w.records(),
                bytes: w.bytes(),
                synced: w.synced(),
                chain: w.chain(),
            }),
            _ => None,
        };
        Ok(ServeRun {
            stats,
            state,
            store: (store.mode() == StreamMode::PerShard).then_some(store),
            journal,
        })
    }
}

/// `redundancy serve`: the live supervisor.  Four transports share the
/// store: stdio frames (deterministic, scriptable), a TCP daemon, a
/// self-driving TCP drain with synthetic concurrent clients, and the
/// default in-process drain that also checks the matching oracle.  Both
/// TCP transports run on the epoll readiness loop (Linux only), and
/// `--streams per-shard` gives each shard its own RNG stream.
fn serve_cmd(a: &ServeArgs) -> Result<String, CliError> {
    let plan = build_plan(a.scheme, a.tasks, a.epsilon, None, 0.0)?;
    let campaign = CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: a.proportion },
        CheatStrategy::AtLeast { min_copies: 1 },
    );
    let serve = ServeConfig {
        faults: FaultModel {
            timeout: a.timeout,
            max_retries: a.retries,
            ..FaultModel::none()
        },
        ..ServeConfig::new(a.shards)
    };
    if (a.clients > 0 || a.port.is_some()) && !epoll::available() {
        return Err(CliError::Invalid(format!(
            "{} serves TCP on the epoll readiness loop, which this platform ({}) lacks; \
             use --stdio",
            if a.clients > 0 { "--clients" } else { "--port" },
            std::env::consts::OS
        )));
    }
    if a.json.is_some() && a.streams != StreamMode::PerShard {
        return Err(CliError::Invalid(
            "--json requires --streams per-shard (the report's per_shard array \
             comes from the sharded store)"
                .into(),
        ));
    }
    if a.json.is_some() && a.stdio {
        return Err(CliError::Invalid(
            "--json is not available with --stdio (the protocol owns stdout)".into(),
        ));
    }
    // The plan's groups, never its expanded task list: start-up is
    // O(groups), and the store's task limit is checked before anything per
    // task is allocated.
    let groups = plan_groups(&plan);
    let (mut backend, recovery) = make_backend(a, &groups, &campaign, &serve)?;
    let (seed, journal) = (a.seed, a.journal.as_deref());
    if a.stdio {
        // The protocol owns stdout, so the report string stays empty.
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut r = stdin.lock();
        let mut w = stdout.lock();
        let served = serve_connection(&mut r, &mut w, |req, reply| backend.handle_into(req, reply))
            .map(drop)
            .map_err(|e| format!("stdio transport: {e}"));
        // A journal append failure still surfaces, even with no report.
        backend.finish(served, journal)?;
        return Ok(String::new());
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: {} over {} tasks, {} shard(s), adversary share {}, seed {seed}",
        plan.scheme(),
        inum(a.tasks),
        a.shards,
        a.proportion,
    );
    let _ = writeln!(
        out,
        "timeout {} ticks, {} retries per copy",
        a.timeout, a.retries
    );
    if a.streams == StreamMode::PerShard {
        let _ = writeln!(out, "streams per-shard: one derived RNG stream per shard");
    }
    let run = if a.clients > 0 {
        let served = serve_tcp_drive(&mut backend, a.port, a.clients);
        let run = backend.finish(served, journal)?;
        let _ = writeln!(out, "drained by {} concurrent TCP clients", a.clients);
        out.push_str(&run.stats.render());
        if let Some(store) = &run.store {
            append_sharded_oracle_verdict(&mut out, &groups, &campaign, &serve, seed, store);
            if let Some(path) = &a.json {
                write_serve_json(path, &plan, seed, a.clients, store, run.journal.as_ref())?;
            }
        }
        run
    } else if let Some(port) = a.port {
        let served = serve_tcp_daemon(&mut backend, port);
        let run = backend.finish(served, journal)?;
        out.push_str(&run.stats.render());
        if let (Some(path), Some(store)) = (&a.json, &run.store) {
            write_serve_json(path, &plan, seed, 0, store, run.journal.as_ref())?;
        }
        run
    } else {
        // Default: drain in process and check the flavor's oracle.
        backend.drain();
        let run = backend.finish(Ok(()), journal)?;
        out.push_str(&run.stats.render());
        match a.streams {
            StreamMode::Single => {
                // The batched-kernel oracle: the drained session must be
                // bit-identical to the batch kernel on the same seed.
                append_oracle_verdict(&mut out, "batched-kernel", run.stats.timeouts, || {
                    let mut batch_rng = DeterministicRng::new(seed);
                    let mut batch_out = CampaignOutcome::default();
                    let mut scratch = CampaignScratch::new();
                    run_campaign_groups(
                        groups.iter().copied(),
                        &campaign,
                        &mut batch_rng,
                        &mut batch_out,
                        &mut scratch,
                    );
                    drain_equivalence(&DrainState::batch(batch_out, batch_rng), &run.state).is_ok()
                });
            }
            StreamMode::PerShard => {
                // The shard-by-shard oracle (the per-shard determinism
                // contract).
                let store = run.store.as_ref().expect("per-shard run keeps its store");
                append_sharded_oracle_verdict(&mut out, &groups, &campaign, &serve, seed, store);
                if let Some(path) = &a.json {
                    write_serve_json(path, &plan, seed, 0, store, run.journal.as_ref())?;
                }
            }
        }
        run
    };
    append_journal_tail(&mut out, &run, recovery.as_ref(), &groups, &campaign);
    Ok(out)
}

/// Build the serve backend, creating or recovering the journal when
/// `--journal` is given.  Returns the backend plus the recovery notes
/// when `--recover` replayed an existing journal.
fn make_backend(
    a: &ServeArgs,
    groups: &[SpecGroup],
    campaign: &CampaignConfig,
    serve: &ServeConfig,
) -> Result<(Backend, Option<Recovery>), CliError> {
    let (seed, streams) = (a.seed, a.streams);
    if let (Some(path), true) = (&a.journal, a.recover) {
        return recover_backend(groups, campaign, serve, seed, streams, path, a.sync);
    }
    // The store first: a workload it refuses leaves no journal behind.
    let store =
        Store::from_groups(groups, campaign, serve, seed, streams).map_err(CliError::Invalid)?;
    let Some(path) = &a.journal else {
        return Ok((Backend(JournaledStore::new(store, None)), None));
    };
    let file = std::fs::File::create(path)
        .map_err(|e| CliError::Invalid(format!("--journal {path}: {e}")))?;
    let mut writer = JournalWriter::new(file, a.sync);
    writer
        .append(&Record::Header(SessionHeader {
            seed,
            shards: serve.shards as u32,
            mode: streams,
            timeout: serve.faults.timeout,
            max_retries: serve.faults.max_retries,
            fingerprint: workload_fingerprint_groups(groups, campaign),
            total_tasks: groups.iter().map(|g| g.count).sum(),
        }))
        .map_err(|e| CliError::Io(format!("journal {path}: {e}")))?;
    Ok((Backend(JournaledStore::new(store, Some(writer))), None))
}

/// `--recover`: replay the journal (tolerating a torn tail), check its
/// header against the command line, truncate the tail away, and resume
/// both the store and the appender from the verified prefix.
fn recover_backend(
    groups: &[SpecGroup],
    campaign: &CampaignConfig,
    serve: &ServeConfig,
    seed: u64,
    streams: StreamMode,
    path: &str,
    sync: SyncPolicy,
) -> Result<(Backend, Option<Recovery>), CliError> {
    use std::io::Seek as _;
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Invalid(format!("--journal {path}: {e}")))?;
    let replayed = replay_groups(
        &bytes,
        groups,
        campaign,
        ReplayOptions {
            allow_torn_tail: true,
        },
    )
    .map_err(|e| CliError::Invalid(format!("--recover: journal {path}: {e}")))?;
    let h = replayed.header;
    if (h.seed, h.shards, h.mode, h.timeout, h.max_retries)
        != (
            seed,
            serve.shards as u32,
            streams,
            serve.faults.timeout,
            serve.faults.max_retries,
        )
    {
        return Err(CliError::Invalid(format!(
            "--recover: journal {path} was written by a different session \
             (journal: seed {} shards {} streams {} timeout {} retries {}; \
             command line: seed {seed} shards {} streams {streams} timeout {} retries {})",
            h.seed,
            h.shards,
            h.mode,
            h.timeout,
            h.max_retries,
            serve.shards,
            serve.faults.timeout,
            serve.faults.max_retries,
        )));
    }
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| CliError::Invalid(format!("--journal {path}: {e}")))?;
    file.set_len(replayed.valid_len)
        .map_err(|e| CliError::Io(format!("truncating journal {path}: {e}")))?;
    file.seek(std::io::SeekFrom::End(0))
        .map_err(|e| CliError::Io(format!("journal {path}: {e}")))?;
    let writer = JournalWriter::resume(
        file,
        sync,
        replayed.chain,
        replayed.records,
        replayed.valid_len,
    );
    let mut js = JournaledStore::new(replayed.store, Some(writer));
    // The copies issued before the crash died with their clients: revert
    // them to pending (journaled as a reset record) so the resumed drain
    // ends exactly where an uninterrupted one would have.
    let reverted = js.reset_in_flight();
    if let Some(e) = js.error() {
        return Err(CliError::Io(format!("journal {path}: {e}")));
    }
    Ok((
        Backend(js),
        Some(Recovery {
            records: replayed.records,
            reverted,
            torn_tail: replayed.torn_tail,
        }),
    ))
}

/// The journal's closing report lines — present only when `--journal`
/// was given, so journal-free reports stay byte-identical to previous
/// releases, and a recovered report matches an uninterrupted one once
/// the lines starting `journal` are dropped.  The last line is the one
/// oracle that holds under every schedule, timeouts and recoveries
/// included: the finished journal must replay to the live store's state.
fn append_journal_tail(
    out: &mut String,
    run: &ServeRun,
    recovery: Option<&Recovery>,
    groups: &[SpecGroup],
    campaign: &CampaignConfig,
) {
    let Some(j) = &run.journal else { return };
    if let Some(r) = recovery {
        let _ = writeln!(
            out,
            "journal recovered: {} records replayed, {} copies re-queued{}",
            r.records,
            r.reverted,
            if r.torn_tail {
                ", torn tail truncated"
            } else {
                ""
            },
        );
    }
    let _ = writeln!(
        out,
        "journal: {} (sync {}): {} records, {} bytes, {} syncs, chain {:#018x}",
        j.path, j.policy, j.records, j.bytes, j.synced, j.chain
    );
    let replayed = std::fs::read(&j.path)
        .map_err(|e| e.to_string())
        .and_then(|bytes| {
            replay_groups(&bytes, groups, campaign, ReplayOptions::default())
                .map_err(|e| e.to_string())
        })
        .and_then(|r| drain_equivalence(&DrainState::of(&r.store), &run.state));
    let _ = match replayed {
        Ok(()) => writeln!(out, "journal replay oracle: bit-identical"),
        Err(e) => writeln!(out, "journal replay oracle: DIVERGED ({e})"),
    };
}

/// One patient-drain oracle's verdict line.  Such an oracle models no
/// timeout, no lost copy and no recovery, so once a timeout has fired it
/// does not apply and `holds` is not run.
fn append_oracle_verdict(
    out: &mut String,
    name: &str,
    timeouts: u64,
    holds: impl FnOnce() -> bool,
) {
    let _ = if timeouts > 0 {
        writeln!(
            out,
            "{name} oracle: not applicable ({timeouts} timeouts fired)"
        )
    } else if holds() {
        writeln!(out, "{name} oracle: bit-identical")
    } else {
        writeln!(out, "{name} oracle: DIVERGED")
    };
}

/// Re-drain a fresh per-shard [`Store`] shard by shard and compare it to
/// the served store: merged outcome, per-shard final RNG states, and the
/// full stats snapshot must all match bit for bit regardless of how many
/// clients interleaved their requests (while no timeout fires).
fn append_sharded_oracle_verdict(
    out: &mut String,
    groups: &[SpecGroup],
    campaign: &CampaignConfig,
    serve: &ServeConfig,
    seed: u64,
    store: &Store,
) {
    let stats = store.stats();
    append_oracle_verdict(out, "sharded-stream", stats.timeouts, || {
        Store::from_groups(groups, campaign, serve, seed, StreamMode::PerShard).is_ok_and(
            |mut oracle| {
                oracle.drain_shard_by_shard();
                store.merged_outcome() == oracle.merged_outcome()
                    && store.final_rngs() == oracle.final_rngs()
                    && stats == oracle.stats()
            },
        )
    });
}

/// The 16 counters of a [`ServeStats`] snapshot as JSON object members,
/// plus the FNV checksum rendered in hex (the same digits `render()`
/// prints, so shell pipelines can cross-check the two outputs).
fn stats_members(stats: &ServeStats) -> Vec<(&'static str, redundancy_json::Json)> {
    use redundancy_json::{num_u64, Json};
    vec![
        ("total_tasks", num_u64(stats.total_tasks)),
        ("activated_tasks", num_u64(stats.activated_tasks)),
        ("completed_tasks", num_u64(stats.completed_tasks)),
        ("total_copies", num_u64(stats.total_copies)),
        ("issued", num_u64(stats.issued)),
        ("returned", num_u64(stats.returned)),
        ("in_flight", num_u64(stats.in_flight)),
        ("requeued", num_u64(stats.requeued)),
        ("lost", num_u64(stats.lost)),
        ("timeouts", num_u64(stats.timeouts)),
        ("retries", num_u64(stats.retries)),
        ("cheats_attempted", num_u64(stats.cheats_attempted)),
        ("cheats_detected", num_u64(stats.cheats_detected)),
        ("wrong_accepted", num_u64(stats.wrong_accepted)),
        ("false_flags", num_u64(stats.false_flags)),
        ("unresolved_tasks", num_u64(stats.unresolved_tasks)),
        ("checksum", Json::Str(format!("{:#018x}", stats.checksum()))),
    ]
}

/// Write the `serve-report/v1` document for a drained per-shard store:
/// session totals plus one stats cell per shard, so consumers can verify
/// the cells sum to the totals.  A `journal` member is appended only when
/// the session was journaled, so journal-free reports are unchanged and
/// `jq 'del(.journal)'` compares a recovered run to an uninterrupted one.
fn write_serve_json(
    path: &str,
    plan: &RealizedPlan,
    seed: u64,
    clients: usize,
    store: &Store,
    journal: Option<&JournalSummary>,
) -> Result<(), CliError> {
    use redundancy_json::{num_u64, obj, Json};
    let per_shard: Vec<Json> = store
        .per_shard_stats()
        .iter()
        .enumerate()
        .map(|(s, cell)| {
            let mut members = vec![("shard", num_u64(s as u64))];
            members.extend(stats_members(cell));
            obj(members)
        })
        .collect();
    let mut members = vec![
        ("schema", Json::Str("serve-report/v1".into())),
        ("scheme", Json::Str(plan.scheme().to_string())),
        ("seed", num_u64(seed)),
        ("shards", num_u64(store.shard_count() as u64)),
        ("clients", num_u64(clients as u64)),
        ("streams", Json::Str("per-shard".into())),
        (
            "stream_checksum",
            Json::Str(format!("{:#018x}", store.stream_checksum())),
        ),
        ("totals", obj(stats_members(&store.stats()))),
        ("per_shard", Json::Arr(per_shard)),
    ];
    if let Some(j) = journal {
        members.push((
            "journal",
            obj(vec![
                ("path", Json::Str(j.path.clone())),
                ("sync", Json::Str(j.policy.to_string())),
                ("records", num_u64(j.records)),
                ("bytes", num_u64(j.bytes)),
                ("synced", num_u64(j.synced)),
                ("replay_checksum", Json::Str(format!("{:#018x}", j.chain))),
            ]),
        ));
    }
    let doc = obj(members);
    let mut body = redundancy_json::to_string_pretty(&doc);
    body.push('\n');
    std::fs::write(path, body).map_err(|e| CliError::Io(format!("writing {path}: {e}")))
}

/// `redundancy journal-inspect`: list a serve journal's records and
/// report an integrity verdict — `intact`, or `TORN` with the verified
/// prefix listed and the tail's structured error named.  Workload-level
/// checks (fingerprint, replay) need the task set and are done by
/// `serve --recover`; inspection only needs the bytes.
fn journal_inspect(a: &JournalInspectArgs) -> Result<String, CliError> {
    let path = &a.journal;
    let bytes =
        std::fs::read(path).map_err(|e| CliError::Invalid(format!("--journal {path}: {e}")))?;
    let strict_err = parse_journal(&bytes, ReplayOptions::default()).err();
    let parsed = parse_journal(
        &bytes,
        ReplayOptions {
            allow_torn_tail: true,
        },
    )
    .map_err(|e| CliError::Invalid(format!("journal {path}: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "journal {path}: {} bytes", bytes.len());
    for (i, rec) in parsed.records.iter().enumerate() {
        let _ = writeln!(out, "{i:>6}  {rec}");
    }
    let _ = writeln!(
        out,
        "{} records over {} verified bytes, chain {:#018x}",
        parsed.records.len(),
        parsed.valid_len,
        parsed.chain
    );
    match strict_err {
        None => {
            let _ = writeln!(out, "integrity: intact");
        }
        Some(e) => {
            let _ = writeln!(
                out,
                "integrity: TORN ({} trailing bytes unverified: {e})",
                bytes.len() as u64 - parsed.valid_len
            );
        }
    }
    Ok(out)
}

/// Join the synthetic driver threads, naming every client that failed so
/// a wedged or erroring drain exits nonzero with an actionable message
/// instead of a generic one.
fn join_drivers(
    drivers: Vec<(usize, std::thread::JoinHandle<std::io::Result<()>>)>,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for (i, d) in drivers {
        match d.join() {
            Err(_) => failures.push(format!("client {i} panicked")),
            Ok(Err(e)) => failures.push(format!("client {i}: {e}")),
            Ok(Ok(())) => {}
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Self-driving TCP drain: bind (an ephemeral port unless `--port` pins
/// one), spawn `clients` synthetic client threads, and serve exactly that
/// many connections off the backend on the epoll readiness loop.  Errors
/// are messages for [`Backend::finish`].
fn serve_tcp_drive(backend: &mut Backend, port: Option<u16>, clients: usize) -> Result<(), String> {
    use std::net::TcpListener;
    let listener = TcpListener::bind(("127.0.0.1", port.unwrap_or(0)))
        .map_err(|e| format!("binding the TCP listener: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("[serving on {addr}]");
    let opts = LoopOptions {
        expected_clients: Some(clients),
    };
    let drivers = spawn_drivers(addr, clients);
    serve_readiness_loop(listener, opts, |req, reply| backend.handle_into(req, reply))
        .map_err(|e| format!("epoll transport: {e}"))?;
    join_drivers(drivers)
}

/// Spawn the enumerated synthetic client threads for a self-driving drain.
fn spawn_drivers(
    addr: std::net::SocketAddr,
    clients: usize,
) -> Vec<(usize, std::thread::JoinHandle<std::io::Result<()>>)> {
    (0..clients)
        .map(|i| (i, std::thread::spawn(move || drive_client(addr))))
        .collect()
}

/// A synthetic client's closed loop: ask for work, hand each copy straight
/// back, and stop at `drained`.  Every synthetic client takes its steps
/// here: `serve --clients` over TCP and the serve bench fixtures in
/// process.
#[derive(Debug, Default)]
pub(crate) struct Volunteer {
    /// The `return-result` for the copy the last `work` reply dealt.
    ret: String,
    holding: bool,
    drained: bool,
}

impl Volunteer {
    /// The next request to send, or `None` once the store has drained.
    pub(crate) fn request(&self) -> Option<&str> {
        if self.drained {
            None
        } else if self.holding {
            Some(&self.ret)
        } else {
            Some("request-work")
        }
    }

    /// Take the reply to the last [`request`](Self::request).  A return
    /// can race a timeout, so `err not-in-flight` is an expected answer to
    /// one; any other reply a correct store never sends is an error.
    pub(crate) fn reply(&mut self, reply: &str) -> Result<(), String> {
        if std::mem::take(&mut self.holding) {
            if reply.starts_with("ok") || reply.starts_with("err not-in-flight ") {
                return Ok(());
            }
            return Err(format!("unexpected reply to {}: {reply}", self.ret));
        }
        match reply {
            "drained" => self.drained = true,
            "idle" => {}
            _ => {
                let mut parts = reply.split_whitespace();
                let (Some("work"), Some(task), Some(copy)) = (
                    parts.next(),
                    parts.next().and_then(|t| t.parse::<u64>().ok()),
                    parts.next().and_then(|c| c.parse::<u32>().ok()),
                ) else {
                    return Err(format!("unexpected reply to request-work: {reply}"));
                };
                self.ret.clear();
                let _ = write!(self.ret, "return-result {task} {copy}");
                self.holding = true;
            }
        }
        Ok(())
    }
}

/// One synthetic TCP client: a [`Volunteer`] until the store reports
/// `drained`, then hang up (a clean EOF).
fn drive_client(addr: std::net::SocketAddr) -> std::io::Result<()> {
    use std::io::Write as _;
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut r = stream.try_clone()?;
    let mut w = stream;
    let mut volunteer = Volunteer::default();
    while let Some(req) = volunteer.request() {
        write_frame(&mut w, req)?;
        w.flush()?;
        let Frame::Message(bytes) = read_frame(&mut r)? else {
            return Ok(());
        };
        let reply = String::from_utf8_lossy(&bytes);
        volunteer
            .reply(&reply)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if reply == "idle" {
            std::thread::yield_now();
        }
    }
    Ok(())
}

/// Daemon mode: listen on a pinned port until a client sends `shutdown`.
fn serve_tcp_daemon(backend: &mut Backend, port: u16) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding the TCP listener: {e}"))?;
    serve_daemon_on(listener, backend)
}

/// The daemon's serve loop, split from the bind so tests can listen on an
/// OS-assigned port.  `shutdown` from any client stops the loop: it stops
/// accepting and drains its remaining connections itself, so no throwaway
/// self-connection is needed to unblock an `accept`.  Errors are messages
/// for [`Backend::finish`].
fn serve_daemon_on(listener: std::net::TcpListener, backend: &mut Backend) -> Result<(), String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("[serving on {addr}; send `shutdown` to stop]");
    let opts = LoopOptions {
        expected_clients: None,
    };
    serve_readiness_loop(listener, opts, |req, reply| backend.handle_into(req, reply))
        .map_err(|e| format!("epoll transport: {e}"))
}

fn solve_sm(a: &SolveSmArgs) -> Result<String, CliError> {
    let (tasks, epsilon, dim) = (a.tasks, a.epsilon, a.dim);
    let sol = if a.min_precompute {
        AssignmentMinimizing::solve_min_precompute(tasks, epsilon, dim)?
    } else {
        AssignmentMinimizing::solve(tasks, epsilon, dim)?
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "S_{dim} at N = {}, eps = {epsilon}{}",
        inum(tasks),
        if a.min_precompute {
            " (min-precompute refinement)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "objective: {:.1} assignments (factor {:.4}); precompute: {:.1} tasks; {} pivots",
        sol.objective(),
        sol.objective() / tasks as f64,
        sol.precompute_required(),
        sol.pivots()
    );
    let mut table = Table::new(&["multiplicity", "tasks"]);
    table.numeric();
    for (i, w) in sol.distribution().iter() {
        table.row(&[&i.to_string(), &fnum(w, 2)]);
    }
    out.push_str(&table.render());
    if let Some(path) = &a.mps {
        // Rebuild the LP for export (the solver does not retain it).
        let mut lp = redundancy_lp::Problem::new(redundancy_lp::Sense::Minimize);
        let vars: Vec<_> = (1..=dim)
            .map(|i| lp.add_variable(format!("x{i}")))
            .collect();
        for (i, v) in vars.iter().enumerate() {
            lp.set_objective(*v, (i + 1) as f64);
        }
        let cover: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&cover, redundancy_lp::Relation::Ge, tasks as f64);
        for k in 1..dim {
            let mut terms = vec![(vars[k - 1], -epsilon)];
            for i in (k + 1)..=dim {
                terms.push((
                    vars[i - 1],
                    (1.0 - epsilon) * redundancy_stats::special::binomial(i as u64, k as u64),
                ));
            }
            lp.add_constraint(&terms, redundancy_lp::Relation::Ge, 0.0);
        }
        let doc = redundancy_lp::write_mps(&lp, &format!("S{dim}"));
        std::fs::write(path, doc).map_err(|e| CliError::Io(e.to_string()))?;
        let _ = writeln!(out, "[LP exported to {path}]");
    }
    Ok(out)
}

fn certify(a: &CertifyArgs) -> Result<String, CliError> {
    let (tasks, epsilon, max_dim) = (a.tasks, a.epsilon, a.max_dim);
    if max_dim < 2 {
        return Err(CliError::Invalid(format!(
            "--max-dim: S_m needs at least two multiplicities, got {max_dim}"
        )));
    }
    let certs = certify_sweep(tasks, epsilon, 2..=max_dim)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exact-rational certification of S_m, m = 2..={max_dim}, at N = {}, eps = {epsilon}",
        inum(tasks)
    );
    let mut table = Table::new(&[
        "m",
        "exact objective",
        "f64 objective",
        "rel. gap",
        "pivots",
    ]);
    table.numeric();
    for c in &certs {
        table.row(&[
            &c.dimension.to_string(),
            &format!("{}", c.objective),
            &fnum(c.f64_objective, 4),
            &format!("{:.2e}", c.relative_gap),
            &c.exact_pivots.to_string(),
        ]);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "every row passed the four-condition optimality certificate \
(primal + dual feasibility, complementary slackness, strong duality) in exact arithmetic"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run(parts: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        dispatch(&parse_args(&argv).unwrap())
    }

    #[test]
    fn plan_balanced_reports_guarantee() {
        let out = run(&["plan", "--tasks", "10000", "--epsilon", "0.75"]).unwrap();
        assert!(out.contains("balanced"));
        assert!(out.contains("Tail") || out.contains("tail"));
        assert!(out.contains("effective detection"));
    }

    #[test]
    fn plan_with_proportion_boosts() {
        let out = run(&[
            "plan",
            "--tasks",
            "10000",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
        ])
        .unwrap();
        assert!(out.contains("boosted"), "{out}");
    }

    #[test]
    fn plan_json_round_trips() {
        let path = std::env::temp_dir().join("cli_plan_test.json");
        let p = path.to_string_lossy().into_owned();
        let out = run(&["plan", "--tasks", "5000", "--epsilon", "0.5", "--json", &p]).unwrap();
        assert!(out.contains("written"));
        let body = std::fs::read_to_string(&path).unwrap();
        let plan: RealizedPlan = redundancy_json::from_str(&body).unwrap();
        assert_eq!(plan.n_tasks(), 5000);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_all_schemes() {
        for scheme in ["balanced", "gs", "simple", "extended"] {
            let out = run(&[
                "analyze",
                "--scheme",
                scheme,
                "--tasks",
                "10000",
                "--epsilon",
                "0.5",
                "--proportion",
                "0.1",
            ])
            .unwrap();
            assert!(out.contains("effective detection"), "{scheme}: {out}");
        }
    }

    #[test]
    fn advise_prefers_balanced_under_adversary() {
        let out = run(&[
            "advise",
            "--tasks",
            "100000",
            "--epsilon",
            "0.5",
            "--adversary",
            "0.1",
        ])
        .unwrap();
        assert!(out.contains("Balanced"), "{out}");
    }

    #[test]
    fn simulate_reports_rates() {
        let out = run(&[
            "simulate",
            "--tasks",
            "2000",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.1",
            "--campaigns",
            "3",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("95% CI"), "{out}");
        assert!(out.contains("wrong results accepted"));
    }

    #[test]
    fn simulate_zero_adversary_notes_no_attacks() {
        let out = run(&[
            "simulate",
            "--tasks",
            "500",
            "--epsilon",
            "0.5",
            "--campaigns",
            "1",
        ])
        .unwrap();
        assert!(out.contains("no attacks"), "{out}");
    }

    #[test]
    fn solve_sm_and_mps_export() {
        let path = std::env::temp_dir().join("cli_sm_test.mps");
        let p = path.to_string_lossy().into_owned();
        let out = run(&[
            "solve-sm",
            "--tasks",
            "100000",
            "--epsilon",
            "0.5",
            "--dim",
            "5",
            "--mps",
            &p,
        ])
        .unwrap();
        assert!(out.contains("602"), "S_5 precompute anchor missing: {out}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("ENDATA"));
        // Round trip: the exported LP re-solves to the same objective.
        let reparsed = redundancy_lp::parse_mps(&doc).unwrap();
        let re_obj = reparsed.solve().unwrap().objective;
        assert!((re_obj - 138_554.2).abs() < 1.0, "{re_obj}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn solve_sm_min_precompute_flag() {
        let base = run(&[
            "solve-sm",
            "--tasks",
            "100000",
            "--epsilon",
            "0.5",
            "--dim",
            "6",
        ])
        .unwrap();
        let refined = run(&[
            "solve-sm",
            "--tasks",
            "100000",
            "--epsilon",
            "0.5",
            "--dim",
            "6",
            "--min-precompute",
        ])
        .unwrap();
        assert!(base.contains("1923"), "{base}");
        assert!(refined.contains("refinement"), "{refined}");
    }

    #[test]
    fn faults_sweep_reports_degradation() {
        let out = run(&[
            "faults",
            "--tasks",
            "2000",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.15",
            "--campaigns",
            "4",
            "--seed",
            "11",
            "--drop-rate",
            "0.6",
            "--steps",
            "2",
            "--retries",
            "0",
        ])
        .unwrap();
        assert!(out.contains("fault sweep"), "{out}");
        assert!(out.contains("closed-form detection"), "{out}");
        assert!(out.contains("drop rate"), "{out}");
        // The zero-fault row delivers everything.
        assert!(out.contains("1.0000"), "{out}");
    }

    #[test]
    fn faults_sweep_is_deterministic() {
        let argv = [
            "faults",
            "--tasks",
            "1000",
            "--epsilon",
            "0.5",
            "--campaigns",
            "3",
            "--seed",
            "5",
            "--steps",
            "2",
        ];
        assert_eq!(run(&argv).unwrap(), run(&argv).unwrap());
    }

    #[test]
    fn churn_sweep_reports_drift() {
        let out = run(&[
            "churn",
            "--tasks",
            "800",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.15",
            "--campaigns",
            "3",
            "--seed",
            "11",
            "--workers",
            "120",
            "--horizon",
            "600",
            "--census-interval",
            "200",
            "--steps",
            "2",
        ])
        .unwrap();
        assert!(out.contains("churn sweep"), "{out}");
        assert!(out.contains("closed-form detection"), "{out}");
        assert!(out.contains("leave rate"), "{out}");
        assert!(out.contains("realized factor"), "{out}");
    }

    #[test]
    fn churn_sweep_is_deterministic_and_thread_invariant() {
        let base = [
            "churn",
            "--tasks",
            "500",
            "--epsilon",
            "0.5",
            "--campaigns",
            "2",
            "--seed",
            "5",
            "--workers",
            "80",
            "--horizon",
            "400",
            "--census-interval",
            "200",
            "--steps",
            "2",
        ];
        let first = run(&base).unwrap();
        assert_eq!(first, run(&base).unwrap());
        let mut pinned: Vec<&str> = base.to_vec();
        pinned.extend_from_slice(&["--threads", "1"]);
        let mut wide: Vec<&str> = base.to_vec();
        wide.extend_from_slice(&["--threads", "4"]);
        assert_eq!(run(&pinned).unwrap(), run(&wide).unwrap());
    }

    #[test]
    fn churn_soak_prints_matching_checksums_for_equal_seeds() {
        let argv = [
            "churn",
            "--soak",
            "--workers",
            "300",
            "--horizon",
            "4000",
            "--tasks",
            "200",
            "--seed",
            "9",
        ];
        let a = run(&argv).unwrap();
        let b = run(&argv).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("checksum: 0x"), "{a}");
        assert!(a.contains("events:"), "{a}");
        let mut other: Vec<&str> = argv.to_vec();
        let last = other.len() - 1;
        other[last] = "10";
        assert_ne!(run(&other).unwrap(), a, "seed must change the checksum");
    }

    /// Pull one counter out of a stats dump embedded in a report.
    fn stat(out: &str, key: &str) -> u64 {
        out.lines()
            .find_map(|l| l.strip_prefix(&format!("{key} ")))
            .unwrap_or_else(|| panic!("no `{key}` line in {out}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn serve_default_drain_reports_the_oracle_verdict() {
        let argv = [
            "serve",
            "--tasks",
            "600",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--seed",
            "9",
            "--shards",
            "2",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("serve: balanced over 600 tasks"), "{out}");
        assert_eq!(stat(&out, "tasks-completed"), stat(&out, "tasks-total"));
        assert_eq!(stat(&out, "in-flight"), 0);
        assert!(
            out.contains("batched-kernel oracle: bit-identical"),
            "{out}"
        );
        assert!(out.contains("checksum 0x"), "{out}");
        // Deterministic: same seed, same bytes; shard count changes nothing.
        assert_eq!(out, run(&argv).unwrap());
        let mut resharded = argv;
        resharded[10] = "4";
        let a: Vec<&str> = out.lines().filter(|l| !l.contains("shard")).collect();
        let b_out = run(&resharded).unwrap();
        let b: Vec<&str> = b_out.lines().filter(|l| !l.contains("shard")).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn serve_concurrent_tcp_clients_drain_to_the_same_stats() {
        // A timeout that can never fire makes the concurrent drain's final
        // stats interleaving-invariant, hence byte-identical across runs.
        let argv = [
            "serve",
            "--tasks",
            "400",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--seed",
            "9",
            "--clients",
            "4",
            "--timeout",
            "1000000000",
        ];
        let a = run(&argv).unwrap();
        assert!(a.contains("drained by 4 concurrent TCP clients"), "{a}");
        assert_eq!(stat(&a, "tasks-completed"), stat(&a, "tasks-total"));
        assert_eq!(stat(&a, "in-flight"), 0);
        assert_eq!(stat(&a, "timeouts"), 0);
        assert_eq!(a, run(&argv).unwrap());
    }

    #[test]
    fn serve_daemon_serves_a_scripted_tcp_client_until_shutdown() {
        use redundancy_sim::serve::{decode_frames, script_frames};
        for streams in [StreamMode::Single, StreamMode::PerShard] {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let client = std::thread::spawn(move || {
                use std::io::{Read as _, Write as _};
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream
                    .write_all(&script_frames(&[
                        "request-work",
                        "stats",
                        "bogus-verb",
                        "shutdown",
                    ]))
                    .unwrap();
                let mut bytes = Vec::new();
                stream.read_to_end(&mut bytes).unwrap();
                decode_frames(&bytes)
            });
            let plan = build_plan(SchemeName::Balanced, 200, 0.5, None, 0.0).unwrap();
            let groups = plan_groups(&plan);
            let campaign = CampaignConfig::new(
                AdversaryModel::AssignmentFraction { p: 0.2 },
                CheatStrategy::AtLeast { min_copies: 1 },
            );
            let argv = ["serve", "--seed", "7", "--streams", &streams.to_string()];
            let Command::Serve(args) = parse_args(&argv.map(String::from)).unwrap() else {
                unreachable!()
            };
            let (mut backend, _) =
                make_backend(&args, &groups, &campaign, &ServeConfig::new(2)).unwrap();
            let served = serve_daemon_on(listener, &mut backend);
            let run = backend.finish(served, None).unwrap();
            let tag = format!("{streams:?}");
            let replies = client.join().unwrap();
            assert_eq!(replies.len(), 4, "{tag}: {replies:?}");
            assert!(replies[0].starts_with("work "), "{tag}: {replies:?}");
            assert!(replies[1].contains("tasks-total 201"), "{tag}: {replies:?}");
            assert_eq!(replies[2], "err unknown-verb bogus-verb", "{tag}");
            assert_eq!(replies[3], "bye", "{tag}");
            assert_eq!(run.stats.issued, 1, "{tag}");
            assert_eq!(run.stats.in_flight, 1, "{tag}");
            assert_eq!(
                run.store.is_some(),
                streams == StreamMode::PerShard,
                "{tag}"
            );
        }
    }

    #[test]
    fn serve_per_shard_default_drain_reports_the_sharded_oracle() {
        let argv = [
            "serve",
            "--tasks",
            "600",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--seed",
            "9",
            "--shards",
            "2",
            "--streams",
            "per-shard",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("streams per-shard"), "{out}");
        assert!(
            out.contains("sharded-stream oracle: bit-identical"),
            "{out}"
        );
        assert_eq!(stat(&out, "tasks-completed"), stat(&out, "tasks-total"));
        assert_eq!(stat(&out, "in-flight"), 0);
        // Deterministic: same configuration, same bytes.
        assert_eq!(out, run(&argv).unwrap());
    }

    #[test]
    fn serve_per_shard_tcp_drive_is_invariant_to_clients_and_io() {
        // With per-shard streams and a timeout that can never fire, the
        // drained report is a pure function of (seed, shard count): the
        // client count, and whether the store is drained over TCP or in
        // process, must not change a byte of it beyond the `drained by N`
        // line.
        let base = |clients: Option<&'static str>| {
            let mut argv = vec![
                "serve",
                "--tasks",
                "300",
                "--epsilon",
                "0.5",
                "--proportion",
                "0.2",
                "--seed",
                "9",
                "--shards",
                "2",
                "--streams",
                "per-shard",
                "--timeout",
                "1000000000",
            ];
            if let Some(clients) = clients {
                argv.extend(["--clients", clients]);
            }
            argv
        };
        let strip = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| !l.starts_with("drained by "))
                .map(str::to_owned)
                .collect()
        };
        let two = run(&base(Some("2"))).unwrap();
        let eight = run(&base(Some("8"))).unwrap();
        assert!(
            two.contains("sharded-stream oracle: bit-identical"),
            "{two}"
        );
        assert_eq!(strip(&two), strip(&eight));
        // Byte-identical across reruns of the same ladder point.
        assert_eq!(eight, run(&base(Some("8"))).unwrap());
        let in_process = run(&base(None)).unwrap();
        assert_eq!(strip(&eight), strip(&in_process));
        assert_ne!(eight, in_process, "the TCP report names its clients");
    }

    #[test]
    fn serve_json_report_sums_per_shard_cells() {
        let path = std::env::temp_dir().join(format!("serve_report_{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();
        let argv = [
            "serve",
            "--tasks",
            "300",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--seed",
            "9",
            "--shards",
            "4",
            "--streams",
            "per-shard",
            "--timeout",
            "1000000000",
            "--clients",
            "4",
            "--json",
            &path_str,
        ];
        run(&argv).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = redundancy_json::parse(&body).unwrap();
        assert_eq!(doc.field_str("schema").unwrap(), "serve-report/v1");
        assert_eq!(doc.field_u64("shards").unwrap(), 4);
        assert_eq!(doc.field_u64("clients").unwrap(), 4);
        assert_eq!(doc.field_str("streams").unwrap(), "per-shard");
        assert!(doc.field_str("stream_checksum").unwrap().starts_with("0x"));
        let totals = doc.field("totals").unwrap();
        let cells = doc.field_arr("per_shard").unwrap();
        assert_eq!(cells.len(), 4);
        for key in ["issued", "returned", "total_copies", "completed_tasks"] {
            let sum: u64 = cells.iter().map(|c| c.field_u64(key).unwrap()).sum();
            assert_eq!(totals.field_u64(key).unwrap(), sum, "{key}");
        }
        assert_eq!(
            totals.field_u64("issued").unwrap(),
            totals.field_u64("total_copies").unwrap(),
            "a full drain with an unreachable timeout issues every copy once"
        );
        for (s, cell) in cells.iter().enumerate() {
            assert_eq!(cell.field_u64("shard").unwrap(), s as u64);
            assert!(cell.field_str("checksum").unwrap().starts_with("0x"));
        }
    }

    #[test]
    fn serve_journal_roundtrip_inspect_and_recover() {
        let path = std::env::temp_dir().join(format!("serve_journal_{}.log", std::process::id()));
        let path_str = path.to_str().unwrap().to_owned();
        let base = [
            "serve",
            "--tasks",
            "400",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--seed",
            "11",
            "--shards",
            "2",
            "--timeout",
            "6",
            "--journal",
            &path_str,
        ];
        let journaled = run(&base).unwrap();
        assert!(
            journaled.contains("batched-kernel oracle: bit-identical"),
            "{journaled}"
        );
        assert!(
            journaled.lines().any(|l| l.starts_with("journal: ")),
            "{journaled}"
        );
        // The journal lines are a pure suffix: everything above them is
        // byte-identical to the journal-free report.
        let plain = run(&base[..base.len() - 2]).unwrap();
        let stripped: String = journaled
            .lines()
            .filter(|l| !l.starts_with("journal"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain);
        // The completed journal inspects as intact, records decoded.
        let inspect = run(&["journal-inspect", "--journal", &path_str]).unwrap();
        assert!(inspect.contains("integrity: intact"), "{inspect}");
        assert!(inspect.contains("header seed=11"), "{inspect}");
        assert!(inspect.contains("tick drained"), "{inspect}");
        // --recover replays it to the drained store: re-draining changes
        // nothing and the stats block matches the original run.
        let mut rec_argv: Vec<&str> = base.to_vec();
        rec_argv.push("--recover");
        let recovered = run(&rec_argv).unwrap();
        assert!(
            recovered
                .lines()
                .any(|l| l.starts_with("journal recovered: ")),
            "{recovered}"
        );
        let sans_journal = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|l| !l.starts_with("journal"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(sans_journal(&recovered), sans_journal(&journaled));
        // Recovering under a different configuration is a named error.
        let mut wrong: Vec<&str> = rec_argv.clone();
        wrong[12] = "9"; // the --timeout value
        let err = run(&wrong).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("different session")),
            "{err:?}"
        );
        // A torn tail is detected and named by the inspector.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let inspect = run(&["journal-inspect", "--journal", &path_str]).unwrap();
        assert!(inspect.contains("integrity: TORN"), "{inspect}");
        // ...and --recover truncates it away and still drains to the
        // same stats.
        let retorn = run(&rec_argv).unwrap();
        assert!(retorn.contains("torn tail truncated"), "{retorn}");
        assert_eq!(sans_journal(&retorn), sans_journal(&journaled));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_journal_per_shard_report_carries_the_journal_member() {
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("serve_journal_ps_{}.log", std::process::id()));
        let report = dir.join(format!("serve_journal_ps_{}.json", std::process::id()));
        let (journal_str, report_str) = (
            journal.to_str().unwrap().to_owned(),
            report.to_str().unwrap().to_owned(),
        );
        let out = run(&[
            "serve",
            "--tasks",
            "300",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--seed",
            "9",
            "--shards",
            "2",
            "--streams",
            "per-shard",
            "--journal",
            &journal_str,
            "--sync",
            "off",
            "--json",
            &report_str,
        ])
        .unwrap();
        assert!(
            out.contains("sharded-stream oracle: bit-identical"),
            "{out}"
        );
        assert!(out.contains("(sync off)"), "{out}");
        let body = std::fs::read_to_string(&report).unwrap();
        let doc = redundancy_json::parse(&body).unwrap();
        let j = doc.field("journal").unwrap();
        assert_eq!(j.field_str("path").unwrap(), journal_str);
        assert_eq!(j.field_str("sync").unwrap(), "off");
        assert_eq!(j.field_u64("synced").unwrap(), 0);
        assert!(j.field_u64("records").unwrap() > 0);
        assert!(j.field_str("replay_checksum").unwrap().starts_with("0x"));
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(&report).ok();
    }

    #[test]
    fn serve_json_requires_per_shard_streams() {
        let err = run(&["serve", "--tasks", "100", "--json", "x.json"]).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("--json")),
            "{err:?}"
        );
        let err = run(&[
            "serve",
            "--tasks",
            "100",
            "--streams",
            "per-shard",
            "--stdio",
            "--json",
            "x.json",
        ])
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("--stdio")),
            "{err:?}"
        );
    }

    #[test]
    fn certify_reports_exact_objectives() {
        let out = run(&[
            "certify",
            "--tasks",
            "100000",
            "--epsilon",
            "0.5",
            "--max-dim",
            "3",
        ])
        .unwrap();
        // S₂ at ε = ½ has the exact optimum 4N/3 = 400000/3.
        assert!(out.contains("400000/3"), "{out}");
        assert!(out.contains("optimality certificate"), "{out}");
    }

    #[test]
    fn certify_rejects_tiny_dimension() {
        let err = run(&["certify", "--max-dim", "1"]).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("--max-dim")),
            "{err:?}"
        );
    }

    #[test]
    fn zero_chunk_size_is_invalid_and_names_the_flag() {
        for argv in [
            vec![
                "simulate",
                "--tasks",
                "100",
                "--epsilon",
                "0.5",
                "--chunk-size",
                "0",
            ],
            vec![
                "faults",
                "--tasks",
                "100",
                "--epsilon",
                "0.5",
                "--chunk-size",
                "0",
            ],
        ] {
            let err = run(&argv).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid(m) if m.contains("--chunk-size")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn absurd_thread_count_is_invalid_and_names_the_flag() {
        for argv in [
            vec![
                "simulate",
                "--tasks",
                "100",
                "--epsilon",
                "0.5",
                "--threads",
                "99999",
            ],
            vec!["bench", "--smoke", "--threads", "99999"],
        ] {
            let err = run(&argv).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid(m) if m.contains("--threads")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn faults_sweep_thread_budget_does_not_change_the_table() {
        let base = [
            "faults",
            "--tasks",
            "1000",
            "--epsilon",
            "0.5",
            "--campaigns",
            "3",
            "--seed",
            "5",
            "--steps",
            "2",
        ];
        let mut pinned: Vec<&str> = base.to_vec();
        pinned.extend_from_slice(&["--threads", "1"]);
        let mut wide: Vec<&str> = base.to_vec();
        wide.extend_from_slice(&["--threads", "8"]);
        assert_eq!(run(&pinned).unwrap(), run(&wide).unwrap());
    }

    #[test]
    fn custom_chunk_size_changes_chunking_not_semantics() {
        let base = [
            "simulate",
            "--tasks",
            "500",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.1",
            "--campaigns",
            "4",
            "--seed",
            "7",
        ];
        let mut with_chunk: Vec<&str> = base.to_vec();
        with_chunk.extend_from_slice(&["--chunk-size", "1"]);
        // Both runs succeed; chunking changes seed granularity, so the
        // empirical numbers may differ, but the report shape is identical.
        let a = run(&base).unwrap();
        let b = run(&with_chunk).unwrap();
        assert!(a.contains("95% CI") && b.contains("95% CI"));
    }

    #[test]
    fn help_text_everywhere() {
        for topic in [
            None,
            Some("plan"),
            Some("analyze"),
            Some("advise"),
            Some("simulate"),
            Some("faults"),
            Some("churn"),
            Some("serve"),
            Some("solve-sm"),
            Some("certify"),
            Some("bench"),
            Some("repro"),
            Some("journal-inspect"),
            Some("unknown"),
        ] {
            let out = help(topic);
            assert!(out.contains("redundancy"), "{topic:?}");
        }
    }

    #[test]
    fn repro_list_names_every_registry_entry() {
        let out = run(&["repro", "--list"]).unwrap();
        for exhibit in redundancy_repro::registry() {
            assert!(out.contains(exhibit.name()), "{} missing", exhibit.name());
        }
    }

    #[test]
    fn repro_rejects_contradictory_and_unknown_requests() {
        let err = run(&["repro", "theory_checks", "--all"]).unwrap_err();
        assert!(err.to_string().contains("--all"), "{err}");
        let err = run(&["repro", "no_such_exhibit"]).unwrap_err();
        assert!(err.to_string().contains("unknown exhibit"), "{err}");
        let err = run(&["repro"]).unwrap_err();
        assert!(err.to_string().contains("repro --list"), "{err}");
    }

    #[test]
    fn repro_exhibit_output_matches_the_registry_emitter() {
        // fig4 is deterministic and cheap: no Monte Carlo, no LP sweep.
        let out = run(&["repro", "fig4_assignment_table"]).unwrap();
        let entry = redundancy_repro::find("fig4_assignment_table").unwrap();
        let ctx = redundancy_repro::ExhibitCtx::default();
        assert_eq!(out, entry.run(&ctx).render_text());
        assert!(out.starts_with("=== Figure 4 ===\n"));
    }

    #[test]
    fn unreachable_boost_is_an_error() {
        let argv: Vec<String> = [
            "plan",
            "--tasks",
            "100",
            "--epsilon",
            "0.9999999999999999",
            "--proportion",
            "0.99",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // ε parses inside (0,1) but boosting pushes it to 1.
        let parsed = parse_args(&argv);
        if let Ok(cmd) = parsed {
            assert!(dispatch(&cmd).is_err());
        }
    }
}
