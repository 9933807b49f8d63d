//! The `montecarlo` workload: `detection_experiment`, the function
//! `redundancy simulate` wraps, run in process at 2 threads with the
//! default bit-compat sampler over a 10,000-task Balanced plan.
//!
//! A request is one `detection_experiment` call over a fixed batch of
//! campaigns; the run calls it with successive seeds until `--seconds`
//! have passed.  The traced run replays the call's trial closure through
//! the public `run_trials` with a span around each campaign.

use std::time::{Duration, Instant};

use redundancy_core::{PartitionKind, RealizedPlan};
use redundancy_sim::task::expand_plan;
use redundancy_sim::{
    detection_experiment, grouped_specs, run_campaign_with_scratch, CampaignAccumulator,
    CampaignOutcome, DetectionEstimate, ExperimentConfig,
};
use redundancy_stats::{run_trials, BinomialCache, DeterministicRng, SamplerMode, TrialConfig};

use crate::pct::{median, percentile, Latency};
use crate::procfs::{process_cpu_ns, ProcSample};
use crate::report::RunResult;
use crate::serve::{self, campaign, Inputs, ADVERSARY_SHARE, EPSILON};
use crate::trace::{self, Name};
use crate::Ctx;

/// Tasks in the plan.
pub const TASKS: u64 = 10_000;
/// Campaigns per `detection_experiment` call (one request): 32 chunks of
/// 4, so both threads get equal work, in about 10 ms.
pub const BATCH: u64 = 128;
/// Worker threads.
const THREADS: usize = 2;
/// Rounds of a traced run; each times the call at 2 threads, its traced
/// replica, and the call at 1 thread.
const TRACE_ROUNDS: usize = 5;
/// A traced round's calls are this many batches long.
const TRACE_CALLS: u64 = 16;
/// Draw passes over the plan timed for `samplers.draw_ns`.
const DRAW_PASSES: usize = 50;

fn config(campaigns: u64, seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        threads,
        ..ExperimentConfig::new(campaigns, seed)
    }
}

fn experiment(plan: &RealizedPlan, config: &ExperimentConfig) -> DetectionEstimate {
    let c = campaign();
    detection_experiment(plan, c.adversary, c.strategy, config)
}

/// The ideal closed-form detection probability of a single held copy,
/// `1 − (1 − ε)^(1 − p)`.
pub fn closed_form_p1() -> f64 {
    1.0 - (1.0 - EPSILON).powf(1.0 - ADVERSARY_SHARE)
}

/// The same probability on the integral plan actually simulated.  An
/// adversary holding one copy of an `m`-copy task (probability
/// `m p (1−p)^(m−1)` per task) is caught when another copy disagrees
/// (`m ≥ 2`) or the answer is known in advance.  Rounding the ideal
/// weights to whole tasks moves this off the ideal closed form by about
/// 1e-4 at 10,000 tasks, several standard errors of a 10-second run.
pub fn realized_p1(plan: &RealizedPlan) -> f64 {
    let p = ADVERSARY_SHARE;
    let (mut caught, mut held) = (0.0, 0.0);
    for part in plan.partitions() {
        let m = part.multiplicity as f64;
        let w = part.tasks as f64 * m * p * (1.0 - p).powf(m - 1.0);
        held += w;
        let precomputed = matches!(part.kind, PartitionKind::Ringer | PartitionKind::Verified);
        if part.multiplicity >= 2 || precomputed {
            caught += w;
        }
    }
    caught / held
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let tasks = ctx.tasks.unwrap_or(TASKS);
    let batch = ctx.campaigns.unwrap_or(BATCH);
    let mut r = RunResult::default();
    r.notes.push(format!(
        "workload montecarlo: detection_experiment over {tasks} tasks, {batch} campaigns \
         per call, {THREADS} threads, bit-compat sampler"
    ));
    let plan = RealizedPlan::balanced(tasks, EPSILON).map_err(|e| e.to_string())?;
    if ctx.trace {
        traced(ctx, &plan, tasks, batch, &mut r)?;
        return Ok(r);
    }

    let budget = Duration::from_secs_f64(ctx.seconds);
    let started = Instant::now();
    // Wall and CPU time inside the calls only: the set-up samples taken
    // between calls are `setup_s`, not kernel time.
    let (mut wall, mut cpu_ns) = (Duration::ZERO, 0u64);
    let mut total = CampaignOutcome::default();
    let mut first: Option<CampaignOutcome> = None;
    let mut lat_ns: Vec<u32> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    while lat_ns.is_empty() || started.elapsed() < budget {
        // One set-up sample per call, so the median spans the whole run
        // rather than one moment of the host's state.
        let built = Instant::now();
        let fresh = RealizedPlan::balanced(tasks, EPSILON).map_err(|e| e.to_string())?;
        std::hint::black_box(expand_plan(&fresh));
        setup.push(built.elapsed().as_secs_f64());
        let seed = ctx.seed.wrapping_add(lat_ns.len() as u64);
        let cpu0 = process_cpu_ns()?;
        let call = Instant::now();
        let est = experiment(&plan, &config(batch, seed, THREADS));
        let took = call.elapsed();
        cpu_ns += process_cpu_ns()?.saturating_sub(cpu0);
        wall += took;
        lat_ns.push(took.as_nanos().min(u32::MAX as u128) as u32);
        total.merge(&est.outcome);
        first.get_or_insert(est.outcome);
    }
    let wall = wall.as_secs_f64();
    let calls = lat_ns.len() as u64;
    r.attempted = calls;

    check_p1(&mut r, &plan, &total, ctx.tamper);
    let single = experiment(&plan, &config(batch, ctx.seed, 1)).outcome;
    r.checks
        .check("thread-invariance", first.as_ref() == Some(&single), || {
            "the first call's outcome differs at 1 and 2 threads".into()
        });
    if r.checks.failures() > 0 {
        r.failed = r.attempted;
    }

    let latency = Latency::of(&mut lat_ns);
    r.set("assign_per_s", total.assignments as f64 / wall);
    r.set("req_p50_us", latency.p50);
    r.set("req_p99_us", latency.p99);
    r.set(
        "cpu_us_per_assign",
        cpu_ns as f64 / 1000.0 / total.assignments.max(1) as f64,
    );
    r.set("setup_s", median(&setup));
    r.set(
        "peak_rss_mb",
        ProcSample::read("self")?.hwm_kb as f64 * 1024.0 / 1e6,
    );
    r.notes.push(format!(
        "{calls} calls, {} campaigns, {} assignments in {wall:.3} s of calls",
        total.campaigns, total.assignments
    ));
    if let Some((q, us)) = latency.tail {
        r.notes.push(format!(
            "latency: {calls} calls; p{q} (highest with >= 10 samples beyond) = {us} us"
        ));
    }
    r.set("fail_frac", r.failed as f64 / r.attempted as f64);
    Ok(r)
}

/// P̂₁ must lie within 4 standard errors of the closed form on the
/// realized plan; the ideal closed form is printed beside it.
fn check_p1(r: &mut RunResult, plan: &RealizedPlan, outcome: &CampaignOutcome, tamper: bool) {
    let est = DetectionEstimate {
        outcome: outcome.clone(),
    };
    let ideal = closed_form_p1();
    let expected = realized_p1(plan) + if tamper { 0.25 } else { 0.0 };
    let (ok, detail) = match est.at_tuple(1) {
        Some(p) => {
            let n = p.trials() as f64;
            let se = (expected * (1.0 - expected) / n).sqrt();
            let z = (p.estimate() - expected).abs() / se;
            (
                z <= 4.0,
                format!(
                    "P1 {:.6} vs closed form {expected:.6} on the realized plan \
                     ({ideal:.6} ideal) over {} attacks: {z:.2} SE",
                    p.estimate(),
                    p.trials()
                ),
            )
        }
        None => (false, "no single-copy attacks were simulated".into()),
    };
    r.notes.push(detail.clone());
    r.checks.check("p1-closed-form", ok, || detail);
}

/// The traced run: spans inside the trial closure, sampler draws through
/// `BinomialCache`, and the 1- and 2-thread runner times.
fn traced(
    ctx: &Ctx,
    plan: &RealizedPlan,
    tasks: u64,
    batch: u64,
    r: &mut RunResult,
) -> Result<(), String> {
    let inputs = Inputs::new(tasks)?;
    let campaigns = batch * TRACE_CALLS;
    let cfg = config(campaigns, ctx.seed, THREADS);
    let single_cfg = config(campaigns, ctx.seed, 1);
    // Wall times of the untraced call at 2 threads, the traced replica,
    // and the untraced call at 1 thread, alternated round by round.
    let mut walls = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut reference: Option<CampaignOutcome> = None;
    let timed = |f: &dyn Fn() -> CampaignOutcome| {
        let started = Instant::now();
        let outcome = f();
        (outcome, started.elapsed().as_secs_f64())
    };
    for _ in 0..TRACE_ROUNDS {
        let (untraced, t2) = timed(&|| experiment(plan, &cfg).outcome);
        trace::set_enabled(true);
        let (replica, traced) = timed(&|| traced_experiment(&inputs, &cfg));
        trace::set_enabled(false);
        spans.append(&mut trace::take());
        let (single, t1) = timed(&|| experiment(plan, &single_cfg).outcome);
        walls.0.push(t2);
        walls.1.push(traced);
        walls.2.push(t1);
        r.checks.check("traced-replica", replica == untraced, || {
            "the traced trial closure drifted from detection_experiment".into()
        });
        r.checks.check("thread-invariance", single == untraced, || {
            "the outcome differs at 1 and 2 threads".into()
        });
        reference = Some(untraced);
    }
    let outcome = reference.expect("at least one round");
    check_p1(r, plan, &outcome, ctx.tamper);
    let untraced = median(&walls.0);
    r.set("parallel.scaling_t2", median(&walls.2) / untraced);
    r.set(
        "trace.overhead_frac",
        (median(&walls.1) - untraced) / untraced,
    );
    r.attempted = (TRACE_ROUNDS * 3) as u64;
    if r.checks.failures() > 0 {
        r.failed = r.attempted;
    }

    let mut campaign_ns: Vec<u32> = spans
        .iter()
        .filter(|s| s.name == Name::Campaign)
        .map(|s| s.duration().min(u64::from(u32::MAX)) as u32)
        .collect();
    let campaign_us = percentile(&mut campaign_ns, 50.0).unwrap_or(0) as f64 / 1000.0;
    let draw_ns = draw_ns(&inputs, ctx.seed);
    r.set("engine.campaign_us", campaign_us);
    r.set("samplers.draw_ns", draw_ns);
    // Derived, not measured: a campaign draws one holdings value per task.
    r.set(
        "engine.bin_tally_us",
        campaign_us - inputs.specs.len() as f64 * draw_ns / 1000.0,
    );
    r.set("plan.build_ms", serve::plan_build_ms(tasks)?);
    r.notes.push(format!(
        "engine.bin_tally_us is derived: campaign_us - {} draws x draw_ns",
        inputs.specs.len()
    ));
    Ok(())
}

/// `detection_experiment`'s trial closure through the public `run_trials`,
/// with a span around each campaign.
fn traced_experiment(inputs: &Inputs, cfg: &ExperimentConfig) -> CampaignOutcome {
    let trial_cfg = TrialConfig {
        trials: cfg.campaigns,
        chunk_size: cfg.chunk_size,
        threads: cfg.threads,
        seed: cfg.seed,
        sampler: cfg.sampler,
    };
    let acc: CampaignAccumulator = run_trials(
        &trial_cfg,
        |rng, _i, acc: &mut CampaignAccumulator| {
            acc.scratch.set_sampler_mode(trial_cfg.sampler);
            let _s = trace::span(Name::Campaign);
            run_campaign_with_scratch(
                &inputs.specs,
                &inputs.campaign,
                rng,
                &mut acc.outcome,
                &mut acc.scratch,
            )
        },
        |a, b| a.merge(b),
    );
    acc.outcome
}

/// Nanoseconds per holdings draw: the plan's (multiplicity, p) draws made
/// through `BinomialCache`'s public API, one per task, as a campaign
/// makes them.
fn draw_ns(inputs: &Inputs, seed: u64) -> f64 {
    let mut cache = BinomialCache::default();
    let groups: Vec<(usize, u64)> = grouped_specs(&inputs.specs)
        .map(|g| {
            let id = cache.prepare_mode(
                u64::from(g.multiplicity),
                ADVERSARY_SHARE,
                SamplerMode::BitCompat,
            );
            (id, g.count)
        })
        .collect();
    let mut rng = DeterministicRng::new(seed);
    let mut sink = 0u64;
    let started = Instant::now();
    for _ in 0..DRAW_PASSES {
        for &(id, count) in &groups {
            let sampler = cache.prepared(id);
            for _ in 0..count {
                sink = sink.wrapping_add(sampler.sample(&mut rng));
            }
        }
    }
    let elapsed = started.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    elapsed / (DRAW_PASSES as f64 * inputs.specs.len() as f64)
}
