//! The `redundancy bench` subcommand: pinned performance fixtures with a
//! machine-readable report and a regression gate.
//!
//! Unlike the criterion benches (which explore), this command *pins*: a
//! fixed set of fixtures — the batched campaign kernel against its frozen
//! reference, the cached samplers against the per-draw walks, `run_trials`
//! thread scaling, the churn soak, the live-serve protocol loop, and an LP
//! sweep — each run `reps` times with the median wall time reported.  The result is written as `redundancy-bench/v1`
//! JSON so CI can archive it and compare runs; `--baseline` fails the
//! command (exit 2) when any fixture's median regresses beyond 2x.
//!
//! Every fixture returns a checksum folded from its outputs, both to keep
//! the optimizer honest and to make silent semantic drift visible when two
//! reports disagree on anything but time.

use crate::commands::{CliError, Volunteer};
use redundancy_core::{AssignmentMinimizing, RealizedPlan};
use redundancy_json::{num_u64, obj, Json};
use redundancy_sim::engine::reference;
use redundancy_sim::outcome::CampaignOutcome;
use redundancy_sim::serve::{handle_request, Store, StreamMode, WorkStore};
use redundancy_sim::task::{expand_plan, grouped_specs, plan_groups, SpecGroup};
use redundancy_sim::{
    run_campaign_groups, AdversaryModel, CampaignAccumulator, CampaignConfig, CampaignScratch,
    CheatStrategy, FaultModel, ServeConfig, ServeStats,
};
use redundancy_stats::table::{fnum, inum, Table};
use redundancy_stats::{
    parallel_sweep, run_trials, sample_binomial, BinomialCache, DeterministicRng, SamplerMode,
    TrialConfig,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Regression gate: a fixture fails when its median exceeds this multiple
/// of the baseline median.  Generous on purpose — CI machines are noisy,
/// and the gate is for order-of-magnitude regressions, not jitter.
const GATE_FACTOR: f64 = 2.0;

/// One measured fixture in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable fixture name (the regression gate joins on it).
    pub name: String,
    /// Repetitions measured.
    pub reps: u64,
    /// Median wall time of one repetition, in nanoseconds.
    pub median_ns: u64,
    /// Tasks (or draws / solves) processed per second at the median.
    pub tasks_per_sec: f64,
    /// Assignments processed per second at the median (0 where the
    /// fixture has no assignment notion).
    pub assignments_per_sec: f64,
    /// Wrapping fold of the fixture's outputs — equal across runs on the
    /// same seed, so reports also double as a determinism check.
    pub checksum: u64,
    /// Per-(shards, clients) ladder points for fixtures that sweep a
    /// concurrency grid (empty for every other fixture).
    pub clients_ladder: Vec<LadderPoint>,
}

/// One (shards, clients) point of a concurrency-ladder fixture.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderPoint {
    /// Store shard count at this point.
    pub shards: u64,
    /// Logical clients at this point, taking turns on one thread.
    pub clients: u64,
    /// Median wall time of one drain, in nanoseconds.
    pub median_ns: u64,
    /// Issued assignments per second at the median.
    pub assignments_per_sec: f64,
    /// Drained-state fingerprint — identical at every client count of a
    /// shard row (the per-shard-stream determinism contract), and across
    /// `--threads` caps.
    pub checksum: u64,
}

/// Fixture sizes for one mode.
struct Sizes {
    campaign_tasks: u64,
    campaign_reps: u64,
    sampler_draws: u64,
    sampler_reps: u64,
    trials_tasks: u64,
    trials_campaigns: u64,
    trials_reps: u64,
    sweep_points: usize,
    sweep_campaigns: u64,
    sweep_reps: u64,
    lp_max_dim: usize,
    lp_reps: u64,
    churn_workers: u64,
    churn_horizon: u64,
    churn_tasks: u64,
    churn_reps: u64,
    serve_tasks: u64,
    serve_reps: u64,
}

impl Sizes {
    fn for_mode(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                campaign_tasks: 2_000,
                campaign_reps: 11,
                sampler_draws: 20_000,
                sampler_reps: 11,
                trials_tasks: 500,
                trials_campaigns: 16,
                trials_reps: 5,
                sweep_points: 8,
                sweep_campaigns: 4,
                sweep_reps: 5,
                lp_max_dim: 8,
                lp_reps: 5,
                churn_workers: 2_000,
                churn_horizon: 40_000,
                churn_tasks: 200,
                churn_reps: 3,
                serve_tasks: 2_000,
                serve_reps: 5,
            }
        } else {
            Sizes {
                campaign_tasks: 10_000,
                campaign_reps: 51,
                sampler_draws: 200_000,
                sampler_reps: 21,
                trials_tasks: 2_000,
                trials_campaigns: 64,
                trials_reps: 11,
                sweep_points: 16,
                sweep_campaigns: 8,
                sweep_reps: 7,
                lp_max_dim: 16,
                lp_reps: 11,
                // The headline churn demonstration: a 100k-node population
                // stepping through ≥10M discrete events per repetition.
                churn_workers: 100_000,
                churn_horizon: 5_600_000,
                churn_tasks: 500,
                churn_reps: 3,
                serve_tasks: 20_000,
                serve_reps: 5,
            }
        }
    }

    /// Force every fixture to `reps` repetitions (the `--reps` override);
    /// sizes are untouched, so medians stay comparable to un-overridden
    /// runs of the same mode — they are just noisier.
    fn override_reps(&mut self, reps: u64) {
        self.campaign_reps = reps;
        self.sampler_reps = reps;
        self.trials_reps = reps;
        self.sweep_reps = reps;
        self.lp_reps = reps;
        self.churn_reps = reps;
        self.serve_reps = reps;
    }
}

/// Run `f` `reps` times; return the median wall time and the folded
/// checksum of its outputs.
fn measure<F: FnMut() -> u64>(reps: u64, mut f: F) -> (u64, u64) {
    let mut times = Vec::with_capacity(reps as usize);
    let mut checksum = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        times.push(start.elapsed().as_nanos() as u64);
        checksum = checksum.wrapping_add(out);
    }
    times.sort_unstable();
    (times[times.len() / 2], checksum)
}

fn record(
    name: &str,
    reps: u64,
    tasks_per_iter: u64,
    assignments_per_iter: u64,
    measured: (u64, u64),
) -> BenchRecord {
    let (median_ns, checksum) = measured;
    let per_sec = |elems: u64| {
        if median_ns == 0 {
            0.0
        } else {
            elems as f64 * 1e9 / median_ns as f64
        }
    };
    BenchRecord {
        name: name.into(),
        reps,
        median_ns,
        tasks_per_sec: per_sec(tasks_per_iter),
        assignments_per_sec: per_sec(assignments_per_iter),
        checksum,
        clients_ladder: Vec::new(),
    }
}

/// The Fig. 1 empirical-detection setting: 10% assignment-fraction
/// adversary cheating on everything.
fn fig1_config() -> CampaignConfig {
    CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: 0.1 },
        CheatStrategy::Always,
    )
}

/// The thread ladder the scaling fixtures exercise, capped by `--threads`
/// (0 keeps the full ladder; 1 remains so the speedup baseline exists).
fn thread_ladder(cap: usize) -> Vec<usize> {
    [1usize, 2, 4]
        .into_iter()
        .filter(|&t| cap == 0 || t <= cap)
        .collect()
}

/// Run every fixture and collect the report rows.
fn run_fixtures(
    smoke: bool,
    seed: u64,
    threads_cap: usize,
    chunk_size: u64,
    reps_override: Option<u64>,
) -> Result<Vec<BenchRecord>, CliError> {
    let mut sizes = Sizes::for_mode(smoke);
    if let Some(reps) = reps_override {
        sizes.override_reps(reps);
    }
    let cfg = fig1_config();
    let mut records = Vec::new();

    // Campaign kernel: the batched engine and its frozen per-task
    // reference over the same plan — the pair the ≥2x claim rests on.  The
    // batched fixtures group the plan once, as the experiment drivers do.
    let plan = RealizedPlan::balanced(sizes.campaign_tasks, 0.6).map_err(CliError::Core)?;
    let tasks = expand_plan(&plan);
    let groups: Vec<SpecGroup> = grouped_specs(&tasks).collect();
    let assignments = plan.total_assignments();
    {
        let mut rng = DeterministicRng::new(seed);
        let mut scratch = CampaignScratch::new();
        records.push(record(
            "campaign_batched",
            sizes.campaign_reps,
            sizes.campaign_tasks,
            assignments,
            measure(sizes.campaign_reps, || {
                let mut out = CampaignOutcome::default();
                run_campaign_groups(
                    groups.iter().copied(),
                    &cfg,
                    &mut rng,
                    &mut out,
                    &mut scratch,
                );
                out.total_detected()
            }),
        ));
    }
    // The same campaigns drawn through the fast-mode alias tables with the
    // SoA tally: not RNG-stream-compatible with campaign_batched, but its
    // checksum is the fast path's pinned determinism fingerprint — CI
    // asserts it is identical across runs and thread counts.
    {
        let mut rng = DeterministicRng::new(seed);
        let mut scratch = CampaignScratch::new().with_sampler_mode(SamplerMode::Fast);
        records.push(record(
            "campaign_fast",
            sizes.campaign_reps,
            sizes.campaign_tasks,
            assignments,
            measure(sizes.campaign_reps, || {
                let mut out = CampaignOutcome::default();
                run_campaign_groups(
                    groups.iter().copied(),
                    &cfg,
                    &mut rng,
                    &mut out,
                    &mut scratch,
                );
                out.total_detected()
            }),
        ));
    }
    {
        let mut rng = DeterministicRng::new(seed);
        records.push(record(
            "campaign_reference",
            sizes.campaign_reps,
            sizes.campaign_tasks,
            assignments,
            measure(sizes.campaign_reps, || {
                let mut out = CampaignOutcome::default();
                reference::run_campaign(&tasks, &cfg, &mut rng, &mut out);
                out.total_detected()
            }),
        ));
    }

    // Sampler microbenches: the cached inversion table against the
    // per-draw CDF walk on the hot (n, p) of the Fig. 1 plan head.
    {
        let mut rng = DeterministicRng::new(seed);
        let mut cache = BinomialCache::default();
        let id = cache.prepare(12, 0.1);
        records.push(record(
            "sampler_binomial_cached",
            sizes.sampler_reps,
            sizes.sampler_draws,
            0,
            measure(sizes.sampler_reps, || {
                let mut acc = 0u64;
                for _ in 0..sizes.sampler_draws {
                    acc = acc.wrapping_add(cache.sample_prepared(id, &mut rng));
                }
                acc
            }),
        ));
    }
    {
        let mut rng = DeterministicRng::new(seed);
        records.push(record(
            "sampler_binomial_walk",
            sizes.sampler_reps,
            sizes.sampler_draws,
            0,
            measure(sizes.sampler_reps, || {
                let mut acc = 0u64;
                for _ in 0..sizes.sampler_draws {
                    acc = acc.wrapping_add(sample_binomial(&mut rng, 12, 0.1));
                }
                acc
            }),
        ));
    }
    // The O(1) alias table on the same (n, p), drawn through the hoisted
    // handle exactly like the fast campaign kernel's inner loop.
    {
        let mut rng = DeterministicRng::new(seed);
        let mut cache = BinomialCache::default();
        let id = cache.prepare_mode(12, 0.1, SamplerMode::Fast);
        let table = cache
            .prepared(id)
            .as_alias()
            .expect("(12, 0.1) fits an alias table");
        records.push(record(
            "sampler_alias",
            sizes.sampler_reps,
            sizes.sampler_draws,
            0,
            measure(sizes.sampler_reps, || {
                let mut acc = 0u64;
                for _ in 0..sizes.sampler_draws {
                    acc = acc.wrapping_add(table.sample(&mut rng));
                }
                acc
            }),
        ));
    }

    // Monte-Carlo driver scaling: identical work at 1, 2, and 4 threads
    // (the outcome is thread-count invariant, so the checksums agree).
    let trials_plan = RealizedPlan::balanced(sizes.trials_tasks, 0.6).map_err(CliError::Core)?;
    let trials_groups = plan_groups(&trials_plan);
    let trials_assignments = trials_plan.total_assignments() * sizes.trials_campaigns;
    for threads in thread_ladder(threads_cap) {
        let trial_cfg = TrialConfig {
            trials: sizes.trials_campaigns,
            chunk_size,
            threads,
            seed,
            sampler: Default::default(),
        };
        records.push(record(
            &format!("run_trials_t{threads}"),
            sizes.trials_reps,
            sizes.trials_tasks * sizes.trials_campaigns,
            trials_assignments,
            measure(sizes.trials_reps, || {
                let acc: CampaignAccumulator = run_trials(
                    &trial_cfg,
                    |rng, _i, acc: &mut CampaignAccumulator| {
                        run_campaign_groups(
                            trials_groups.iter().copied(),
                            &cfg,
                            rng,
                            &mut acc.outcome,
                            &mut acc.scratch,
                        )
                    },
                    |a, b| a.merge(b),
                );
                acc.outcome.total_detected()
            }),
        ));
    }

    // Sweep driver: the same grid of independent experiments evaluated on
    // a 1-wide and a 4-wide pool (the exhibits' outer-grid pattern).  Each
    // grid point runs its campaigns single-threaded, so the checksums of
    // the two fixtures are identical by construction.
    {
        let grid: Vec<u64> = (0..sizes.sweep_points as u64).collect();
        let sweep_tasks = sizes.trials_tasks * sizes.sweep_campaigns * sizes.sweep_points as u64;
        let sweep_assignments =
            trials_plan.total_assignments() * sizes.sweep_campaigns * sizes.sweep_points as u64;
        for width in thread_ladder(threads_cap) {
            if width != 1 && width != 4 {
                continue;
            }
            let name = if width == 1 {
                "sweep_serial"
            } else {
                "sweep_parallel"
            };
            records.push(record(
                name,
                sizes.sweep_reps,
                sweep_tasks,
                sweep_assignments,
                measure(sizes.sweep_reps, || {
                    let outs = parallel_sweep(width, &grid, |idx, _point| {
                        let trial_cfg = TrialConfig {
                            trials: sizes.sweep_campaigns,
                            chunk_size,
                            threads: 1,
                            seed: seed.wrapping_add(idx as u64),
                            sampler: Default::default(),
                        };
                        let acc: CampaignAccumulator = run_trials(
                            &trial_cfg,
                            |rng, _i, acc: &mut CampaignAccumulator| {
                                run_campaign_groups(
                                    trials_groups.iter().copied(),
                                    &cfg,
                                    rng,
                                    &mut acc.outcome,
                                    &mut acc.scratch,
                                )
                            },
                            |a, b| a.merge(b),
                        );
                        acc.outcome.total_detected()
                    });
                    outs.into_iter().fold(0u64, u64::wrapping_add)
                }),
            ));
        }
    }

    // Churn engine: one long discrete-event soak per repetition (full mode
    // is the 100k-node / 10M-event demonstration).  A pre-run learns the
    // event count so the throughput column reports events per second; the
    // checksum folds every outcome counter, so two same-seed reports
    // double as the soak determinism check.
    {
        let churn = redundancy_sim::ChurnModel::soak(sizes.churn_workers, sizes.churn_horizon);
        let probe = redundancy_sim::churn_soak(&churn, sizes.churn_tasks, seed);
        records.push(record(
            "churn_step",
            sizes.churn_reps,
            probe.events,
            probe.reassignments,
            measure(sizes.churn_reps, || {
                let report = redundancy_sim::churn_soak(&churn, sizes.churn_tasks, seed);
                debug_assert_eq!(report, probe);
                report.checksum
            }),
        ));
    }

    // Live supervisor: drain a serve session through the full framed
    // request→return protocol loop (`handle_request` parses every request
    // and formats every reply, exactly like `redundancy serve`).  The
    // throughput column is sustained assignments per second; a probe run
    // pins the drained stats so every measured repetition is checked
    // bit-identical in debug builds.
    {
        let serve_plan = RealizedPlan::balanced(sizes.serve_tasks, 0.6).map_err(CliError::Core)?;
        let serve_tasks = expand_plan(&serve_plan);
        let single = || {
            Store::new(
                &serve_tasks,
                &cfg,
                &ServeConfig::new(2),
                seed,
                StreamMode::Single,
            )
            .expect("pinned serve fixture is valid")
        };
        let drain = || -> ServeStats {
            let mut store = single();
            drain_with_volunteers(&mut store, 1);
            store.stats()
        };
        let probe = drain();
        records.push(record(
            "serve_throughput",
            sizes.serve_reps,
            probe.total_tasks,
            probe.issued,
            measure(sizes.serve_reps, || {
                let stats = drain();
                debug_assert_eq!(stats, probe);
                stats.checksum()
            }),
        ));

        // The same framed drain with every state change appended to an
        // on-disk journal (`--sync off`, so the fixture measures record
        // encoding and buffered writes, not fsync).  The top-level
        // `journal_overhead` field divides this median by the bare loop
        // above; the acceptance bar keeps it at or under 2x.
        let journal_path =
            std::env::temp_dir().join(format!("bench_serve_journal_{}.bin", std::process::id()));
        let drain_journaled = || -> ServeStats {
            use redundancy_sim::serve::{
                workload_fingerprint, JournalWriter, JournaledStore, Record, SessionHeader,
            };
            let file = std::fs::File::create(&journal_path).expect("temp journal path is writable");
            let mut writer = JournalWriter::new(file, redundancy_sim::serve::SyncPolicy::Off);
            writer
                .append(&Record::Header(SessionHeader {
                    seed,
                    shards: 2,
                    mode: StreamMode::Single,
                    timeout: FaultModel::none().timeout,
                    max_retries: FaultModel::none().max_retries,
                    fingerprint: workload_fingerprint(&serve_tasks, &cfg),
                    total_tasks: serve_tasks.len() as u64,
                }))
                .expect("journal header append");
            let mut session = JournaledStore::new(single(), Some(writer));
            drain_with_volunteers(&mut session, 1);
            let stats = session.stats();
            session.finish().expect("temp journal append cannot fail");
            stats
        };
        let journaled_probe = drain_journaled();
        debug_assert_eq!(
            journaled_probe, probe,
            "journaling must not change the drain"
        );
        records.push(record(
            "serve_journal",
            sizes.serve_reps,
            journaled_probe.total_tasks,
            journaled_probe.issued,
            measure(sizes.serve_reps, || {
                let stats = drain_journaled();
                debug_assert_eq!(stats, journaled_probe);
                stats.checksum()
            }),
        ));
        std::fs::remove_file(&journal_path).ok();
    }

    // Per-shard supervisor: K logical clients take turns, one request
    // each, against a per-shard store through the same framed
    // request→return text, one ladder point per (shards, clients) pair.
    // At a fixed shard count the drained state is a pure function of the
    // seed, so every point of a shard row must report the same checksum —
    // the ladder doubles as the per-shard determinism check.  It
    // deliberately ignores the --threads cap: t1 and t4 reports must agree
    // on every checksum.
    {
        let serve_plan = RealizedPlan::balanced(sizes.serve_tasks, 0.6).map_err(CliError::Core)?;
        let serve_tasks = expand_plan(&serve_plan);
        let drain_per_shard = |shards: usize, clients: usize| -> (ServeStats, u64) {
            let patient = ServeConfig {
                faults: FaultModel {
                    timeout: 1 << 40,
                    ..FaultModel::none()
                },
                ..ServeConfig::new(shards)
            };
            let mut store = Store::new(&serve_tasks, &cfg, &patient, seed, StreamMode::PerShard)
                .expect("pinned serve fixture is valid");
            drain_with_volunteers(&mut store, clients);
            let stats = store.stats();
            let fingerprint = stats
                .checksum()
                .rotate_left(17)
                .wrapping_add(store.stream_checksum());
            (stats, fingerprint)
        };
        let mut ladder = Vec::new();
        let mut fixture_checksum = 0u64;
        let mut top_stats: Option<ServeStats> = None;
        for &shards in &[1usize, 2, 4] {
            for &clients in &[1usize, 2, 8] {
                let (probe_stats, probe_sum) = drain_per_shard(shards, clients);
                let (median_ns, _) = measure(sizes.serve_reps, || {
                    let (stats, sum) = drain_per_shard(shards, clients);
                    debug_assert_eq!(stats, probe_stats);
                    debug_assert_eq!(sum, probe_sum);
                    sum
                });
                let assignments_per_sec = if median_ns == 0 {
                    0.0
                } else {
                    probe_stats.issued as f64 * 1e9 / median_ns as f64
                };
                fixture_checksum = fixture_checksum.rotate_left(7).wrapping_add(probe_sum);
                ladder.push(LadderPoint {
                    shards: shards as u64,
                    clients: clients as u64,
                    median_ns,
                    assignments_per_sec,
                    checksum: probe_sum,
                });
                top_stats = Some(probe_stats);
            }
        }
        // The headline row times the largest point (4 shards, 8 clients);
        // its checksum folds every ladder point so any drift anywhere in
        // the grid changes the fixture fingerprint.
        let top = ladder.last().expect("ladder is non-empty");
        let stats = top_stats.expect("ladder is non-empty");
        let mut rec = record(
            "serve_concurrent",
            sizes.serve_reps,
            stats.total_tasks,
            stats.issued,
            (top.median_ns, fixture_checksum),
        );
        rec.clients_ladder = ladder;
        records.push(rec);
    }

    // LP sweep: solve every S_m up to the mode's dimension cap.
    {
        let max_dim = sizes.lp_max_dim;
        records.push(record(
            "lp_sweep",
            sizes.lp_reps,
            (max_dim - 1) as u64,
            0,
            measure(sizes.lp_reps, || {
                let mut acc = 0u64;
                for dim in 2..=max_dim {
                    let sol = AssignmentMinimizing::solve(100_000, 0.5, dim)
                        .expect("pinned S_m fixture solves");
                    acc = acc.wrapping_add(sol.objective().to_bits());
                }
                acc
            }),
        ));
    }

    Ok(records)
}

/// Drain `store` through the framed protocol text with `clients`
/// [`Volunteer`]s taking turns, one request each, on this thread.
fn drain_with_volunteers<S: WorkStore>(store: &mut S, clients: usize) {
    let mut volunteers: Vec<Volunteer> = (0..clients).map(|_| Volunteer::default()).collect();
    let mut reply = String::new();
    let mut active = true;
    while active {
        active = false;
        for volunteer in &mut volunteers {
            let Some(request) = volunteer.request() else {
                continue;
            };
            handle_request(store, request, &mut reply);
            volunteer
                .reply(&reply)
                .expect("a patient drain only sees work, idle, ok and drained");
            active = true;
        }
    }
}

/// Parallel efficiency of the `run_trials_t{n}` fixture against the
/// single-thread baseline (>1 means the extra threads helped).  `None`
/// when either side is missing (capped ladder) or has a zero median.
fn speedup(records: &[BenchRecord], threads: usize) -> Option<f64> {
    let median = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .filter(|&ns| ns > 0)
    };
    let t1 = median("run_trials_t1")?;
    let tn = median(&format!("run_trials_t{threads}"))?;
    Some(t1 as f64 / tn as f64)
}

/// Journal write overhead: the journaled serve drain's median over the
/// bare protocol loop's (1.0 = free).  The acceptance bar for the serve
/// journal keeps this at or under 2x with `--sync off`.
fn journal_overhead(records: &[BenchRecord]) -> Option<f64> {
    let median = |name: &str| {
        records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .filter(|&ns| ns > 0)
    };
    Some(median("serve_journal")? as f64 / median("serve_throughput")? as f64)
}

fn report_json(smoke: bool, seed: u64, records: &[BenchRecord]) -> Json {
    let mut fields = vec![
        ("schema", Json::Str("redundancy-bench/v1".into())),
        ("smoke", Json::Bool(smoke)),
        ("seed", num_u64(seed)),
    ];
    if let Some(s2) = speedup(records, 2) {
        fields.push(("speedup_t2", Json::Num(s2)));
    }
    if let Some(s4) = speedup(records, 4) {
        fields.push(("speedup_t4", Json::Num(s4)));
    }
    if let Some(j) = journal_overhead(records) {
        fields.push(("journal_overhead", Json::Num(j)));
    }
    fields.push((
        "benches",
        Json::Arr(
            records
                .iter()
                .map(|r| {
                    let mut members = vec![
                        ("name", Json::Str(r.name.clone())),
                        ("reps", num_u64(r.reps)),
                        ("median_ns", num_u64(r.median_ns)),
                        ("tasks_per_sec", Json::Num(r.tasks_per_sec)),
                        ("assignments_per_sec", Json::Num(r.assignments_per_sec)),
                        // Hex string: JSON numbers are f64 and cannot
                        // hold a full u64 exactly.
                        ("checksum", Json::Str(format!("{:016x}", r.checksum))),
                    ];
                    if !r.clients_ladder.is_empty() {
                        members.push((
                            "clients_ladder",
                            Json::Arr(
                                r.clients_ladder
                                    .iter()
                                    .map(|p| {
                                        obj(vec![
                                            ("shards", num_u64(p.shards)),
                                            ("clients", num_u64(p.clients)),
                                            ("median_ns", num_u64(p.median_ns)),
                                            (
                                                "assignments_per_sec",
                                                Json::Num(p.assignments_per_sec),
                                            ),
                                            ("checksum", Json::Str(format!("{:016x}", p.checksum))),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                    obj(members)
                })
                .collect(),
        ),
    ));
    obj(fields)
}

/// Compare a fresh report against a baseline document, returning the list
/// of fixtures whose median regressed beyond [`GATE_FACTOR`].
///
/// Fixtures present on only one side are ignored (benches may be added or
/// retired), but a smoke report can only be gated against a smoke
/// baseline — the sizes differ, so cross-mode medians are meaningless.
fn regressions(
    records: &[BenchRecord],
    smoke: bool,
    baseline: &Json,
) -> Result<Vec<String>, CliError> {
    let schema = baseline
        .field_str("schema")
        .map_err(|e| CliError::Invalid(format!("baseline: {e}")))?;
    if schema != "redundancy-bench/v1" {
        return Err(CliError::Invalid(format!(
            "baseline: unsupported schema `{schema}`"
        )));
    }
    let base_smoke = baseline
        .field("smoke")
        .ok()
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if base_smoke != smoke {
        return Err(CliError::Invalid(format!(
            "baseline was recorded in {} mode but this run is {} mode; \
             regenerate the baseline with matching flags",
            if base_smoke { "smoke" } else { "full" },
            if smoke { "smoke" } else { "full" },
        )));
    }
    let benches = baseline
        .field_arr("benches")
        .map_err(|e| CliError::Invalid(format!("baseline: {e}")))?;
    let mut failures = Vec::new();
    for entry in benches {
        let name = entry
            .field_str("name")
            .map_err(|e| CliError::Invalid(format!("baseline: {e}")))?;
        let base_ns = entry
            .field_u64("median_ns")
            .map_err(|e| CliError::Invalid(format!("baseline: {e}")))?;
        let Some(fresh) = records.iter().find(|r| r.name == name) else {
            continue;
        };
        if base_ns > 0 && fresh.median_ns as f64 > GATE_FACTOR * base_ns as f64 {
            failures.push(format!(
                "{name}: {} ns/iter vs baseline {} ns/iter ({:.2}x > {GATE_FACTOR}x)",
                inum(fresh.median_ns),
                inum(base_ns),
                fresh.median_ns as f64 / base_ns as f64
            ));
        }
    }
    Ok(failures)
}

/// Run the benchmark suite, write the JSON report, and gate against the
/// baseline if one was given.
pub fn bench(
    smoke: bool,
    seed: u64,
    out: &str,
    baseline: Option<&str>,
    threads: usize,
    chunk_size: u64,
    reps: Option<u64>,
) -> Result<String, CliError> {
    let records = run_fixtures(smoke, seed, threads, chunk_size, reps)?;
    let body = redundancy_json::to_string_pretty(&report_json(smoke, seed, &records));
    std::fs::write(out, &body).map_err(|e| CliError::Io(e.to_string()))?;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "bench: {} mode, seed {seed}",
        if smoke { "smoke" } else { "full" }
    );
    let mut table = Table::new(&["fixture", "reps", "median ns/iter", "tasks/s", "assign/s"]);
    table.numeric();
    for r in &records {
        table.row(&[
            &r.name,
            &r.reps.to_string(),
            &inum(r.median_ns),
            &fnum(r.tasks_per_sec / 1e6, 1),
            &fnum(r.assignments_per_sec / 1e6, 1),
        ]);
    }
    text.push_str(&table.render());
    let _ = writeln!(text, "(throughput columns are in millions per second)");
    if let (Some(s2), Some(s4)) = (speedup(&records, 2), speedup(&records, 4)) {
        let _ = writeln!(
            text,
            "thread scaling: speedup_t2 {} / speedup_t4 {} vs 1 thread",
            fnum(s2, 2),
            fnum(s4, 2)
        );
    }
    if let Some(j) = journal_overhead(&records) {
        let _ = writeln!(
            text,
            "journal overhead: {}x the bare serve loop (sync off)",
            fnum(j, 2)
        );
    }
    let _ = writeln!(text, "[report written to {out}]");

    if let Some(path) = baseline {
        let doc = std::fs::read_to_string(path).map_err(|e| CliError::Io(e.to_string()))?;
        let parsed = redundancy_json::parse(&doc)
            .map_err(|e| CliError::Invalid(format!("baseline `{path}`: {e}")))?;
        let failures = regressions(&records, smoke, &parsed)?;
        if failures.is_empty() {
            let _ = writeln!(
                text,
                "baseline gate: ok (no fixture beyond {GATE_FACTOR}x of {path})"
            );
        } else {
            return Err(CliError::Invalid(format!(
                "benchmark regression vs {path}:\n  {}",
                failures.join("\n  ")
            )));
        }
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_records() -> Vec<BenchRecord> {
        vec![BenchRecord {
            name: "campaign_batched".into(),
            reps: 3,
            median_ns: 1_000,
            tasks_per_sec: 1e6,
            assignments_per_sec: 2e6,
            checksum: 42,
            clients_ladder: Vec::new(),
        }]
    }

    #[test]
    fn report_schema_fields() {
        let json = report_json(true, 7, &tiny_records());
        assert_eq!(json.field_str("schema").unwrap(), "redundancy-bench/v1");
        assert_eq!(json.field("smoke").unwrap().as_bool(), Some(true));
        assert_eq!(json.field_u64("seed").unwrap(), 7);
        let benches = json.field_arr("benches").unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].field_str("name").unwrap(), "campaign_batched");
        assert_eq!(benches[0].field_u64("median_ns").unwrap(), 1_000);
        // The document round-trips through the parser.
        let text = redundancy_json::to_string_pretty(&json);
        assert_eq!(redundancy_json::parse(&text).unwrap(), json);
    }

    #[test]
    fn gate_passes_within_factor_and_fails_beyond() {
        let records = tiny_records();
        let fine = report_json(
            true,
            7,
            &[BenchRecord {
                median_ns: 600,
                ..records[0].clone()
            }],
        );
        assert!(regressions(&records, true, &fine).unwrap().is_empty());
        let regressed = report_json(
            true,
            7,
            &[BenchRecord {
                median_ns: 400,
                ..records[0].clone()
            }],
        );
        let failures = regressions(&records, true, &regressed).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("campaign_batched"), "{failures:?}");
    }

    #[test]
    fn gate_ignores_unmatched_fixtures() {
        let baseline = report_json(
            true,
            7,
            &[BenchRecord {
                name: "retired_fixture".into(),
                reps: 3,
                median_ns: 1,
                tasks_per_sec: 0.0,
                assignments_per_sec: 0.0,
                checksum: 0,
                clients_ladder: Vec::new(),
            }],
        );
        assert!(regressions(&tiny_records(), true, &baseline)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn gate_refuses_mode_mismatch_and_bad_schema() {
        let records = tiny_records();
        let full_baseline = report_json(false, 7, &records);
        let err = regressions(&records, true, &full_baseline).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("smoke")),
            "{err:?}"
        );
        let bad = obj(vec![("schema", Json::Str("other/v9".into()))]);
        assert!(regressions(&records, true, &bad).is_err());
    }

    #[test]
    fn measure_reports_median_and_checksum() {
        let mut calls = 0u64;
        let (median, checksum) = measure(5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5);
        assert_eq!(checksum, 1 + 2 + 3 + 4 + 5);
        // Median of five timings exists even if the clock is coarse.
        let _ = median;
    }

    #[test]
    fn smoke_bench_writes_valid_report() {
        let path = std::env::temp_dir().join("cli_bench_smoke_test.json");
        let p = path.to_string_lossy().into_owned();
        let text = bench(true, 7, &p, None, 0, 4, None).unwrap();
        assert!(text.contains("campaign_batched"), "{text}");
        assert!(text.contains("report written"), "{text}");
        assert!(text.contains("thread scaling: speedup_t2"), "{text}");
        let doc = std::fs::read_to_string(&path).unwrap();
        let json = redundancy_json::parse(&doc).unwrap();
        assert_eq!(json.field_str("schema").unwrap(), "redundancy-bench/v1");
        assert!(json.field_f64("speedup_t2").unwrap() > 0.0);
        assert!(json.field_f64("speedup_t4").unwrap() > 0.0);
        let benches = json.field_arr("benches").unwrap();
        let names: Vec<&str> = benches
            .iter()
            .map(|b| b.field_str("name").unwrap())
            .collect();
        for expected in [
            "campaign_batched",
            "campaign_fast",
            "campaign_reference",
            "sampler_binomial_cached",
            "sampler_binomial_walk",
            "sampler_alias",
            "run_trials_t1",
            "run_trials_t2",
            "run_trials_t4",
            "sweep_serial",
            "sweep_parallel",
            "churn_step",
            "serve_throughput",
            "serve_journal",
            "serve_concurrent",
            "lp_sweep",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(json.field_f64("journal_overhead").unwrap() > 0.0);
        // The concurrency ladder covers the full (shards, clients) grid,
        // and every client count of a shard row reports the same drained
        // fingerprint — the per-shard-stream determinism contract.
        let ladder = benches
            .iter()
            .find(|b| b.field_str("name").unwrap() == "serve_concurrent")
            .unwrap()
            .field_arr("clients_ladder")
            .unwrap();
        assert_eq!(ladder.len(), 9);
        for shards in [1u64, 2, 4] {
            let sums: Vec<&str> = ladder
                .iter()
                .filter(|p| p.field_u64("shards").unwrap() == shards)
                .map(|p| p.field_str("checksum").unwrap())
                .collect();
            assert_eq!(sums.len(), 3, "shards {shards}");
            assert!(
                sums.windows(2).all(|w| w[0] == w[1]),
                "shard row {shards} checksums differ: {sums:?}"
            );
        }
        // The sweep fixtures run identical work at different pool widths,
        // so their checksums must agree — same for the scaling ladder.
        let sum_of = |wanted: &str| {
            benches
                .iter()
                .find(|b| b.field_str("name").unwrap() == wanted)
                .map(|b| b.field_str("checksum").unwrap().to_owned())
                .unwrap()
        };
        assert_eq!(sum_of("sweep_serial"), sum_of("sweep_parallel"));
        assert_eq!(sum_of("run_trials_t1"), sum_of("run_trials_t4"));
        for b in benches {
            assert!(b.field_u64("median_ns").unwrap() > 0, "{b:?}");
            assert!(b.field_f64("tasks_per_sec").unwrap() > 0.0, "{b:?}");
            let _ = b.field_f64("assignments_per_sec").unwrap();
            assert_eq!(b.field_str("checksum").unwrap().len(), 16, "{b:?}");
        }
        // Gating a report against itself always passes.
        let text2 = bench(true, 7, &p, Some(&p), 0, 4, None).unwrap();
        assert!(text2.contains("baseline gate: ok"), "{text2}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn thread_cap_trims_the_ladder_and_the_speedup_fields() {
        assert_eq!(thread_ladder(0), vec![1, 2, 4]);
        assert_eq!(thread_ladder(2), vec![1, 2]);
        assert_eq!(thread_ladder(1), vec![1]);
        let records = run_fixtures(true, 7, 1, 4, None).unwrap();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"run_trials_t1"), "{names:?}");
        assert!(!names.contains(&"run_trials_t2"), "{names:?}");
        assert!(!names.contains(&"sweep_parallel"), "{names:?}");
        assert!(speedup(&records, 2).is_none());
        let json = report_json(true, 7, &records);
        assert!(json.field("speedup_t2").is_err());
    }

    #[test]
    fn bench_checksums_are_deterministic_for_a_seed() {
        let a = run_fixtures(true, 11, 0, 4, None).unwrap();
        let b = run_fixtures(true, 11, 0, 4, None).unwrap();
        let sums = |rs: &[BenchRecord]| {
            rs.iter()
                .map(|r| (r.name.clone(), r.checksum))
                .collect::<Vec<_>>()
        };
        assert_eq!(sums(&a), sums(&b));
    }

    #[test]
    fn reps_override_applies_to_every_fixture() {
        let records = run_fixtures(true, 7, 1, 4, Some(1)).unwrap();
        for r in &records {
            assert_eq!(r.reps, 1, "{} kept its default reps", r.name);
        }
    }
}
