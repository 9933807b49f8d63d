//! Monte-Carlo experiment driver: empirical `P̂_{k,p}` with confidence
//! intervals, multi-threaded and exactly reproducible.

use crate::adversary::{AdversaryModel, CheatStrategy};
use crate::engine::{
    run_campaign_groups, run_campaign_groups_with_faults, run_campaign_with_scratch,
    CampaignAccumulator, CampaignConfig,
};
use crate::faults::FaultModel;
use crate::outcome::CampaignOutcome;
use crate::task::{expand_plan, grouped_specs, SpecGroup, TaskSpec};
use redundancy_core::RealizedPlan;
use redundancy_stats::parallel::{run_trials, TrialConfig};
use redundancy_stats::{Proportion, SamplerMode};

/// Monte-Carlo parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Number of independent campaigns.
    pub campaigns: u64,
    /// Root seed.
    pub seed: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Campaigns per deterministic chunk (seed granularity); must be
    /// positive.  Campaigns are heavyweight trials, so the default of
    /// [`TrialConfig::CAMPAIGN_CHUNK_SIZE`] (4) is far below
    /// [`TrialConfig::new`]'s [`TrialConfig::DEFAULT_CHUNK_SIZE`] (256).
    pub chunk_size: u64,
    /// Which sampler strategy campaigns draw holdings with.  The default,
    /// [`SamplerMode::BitCompat`], reproduces the golden snapshots byte
    /// for byte; [`SamplerMode::Fast`] opts into the O(1) alias draws
    /// (same laws, different RNG stream, own determinism checksums).
    pub sampler: SamplerMode,
}

impl ExperimentConfig {
    /// `campaigns` campaigns from `seed`, auto threads, chunks of
    /// [`TrialConfig::CAMPAIGN_CHUNK_SIZE`].
    pub fn new(campaigns: u64, seed: u64) -> Self {
        ExperimentConfig {
            campaigns,
            seed,
            threads: 0,
            chunk_size: TrialConfig::CAMPAIGN_CHUNK_SIZE,
            sampler: SamplerMode::default(),
        }
    }

    /// The same experiment pinned to `threads` worker threads.
    ///
    /// Sweep drivers running grid points concurrently via
    /// `redundancy_stats::parallel_sweep` use this (typically with the
    /// inner share from `sweep_thread_split`) so the per-point experiments
    /// don't oversubscribe the machine.  Chunking and seeds are untouched,
    /// so the outcome is bit-identical at any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The same experiment drawing in `sampler` mode.
    pub fn with_sampler(mut self, sampler: SamplerMode) -> Self {
        self.sampler = sampler;
        self
    }
}

/// Empirical detection estimates from a batch of campaigns.
#[derive(Debug, Clone)]
pub struct DetectionEstimate {
    /// Raw aggregated outcome.
    pub outcome: CampaignOutcome,
}

impl DetectionEstimate {
    /// Estimated `P̂_{k,p}` as a [`Proportion`] (None if `k` never attacked).
    pub fn at_tuple(&self, k: usize) -> Option<Proportion> {
        let attempted = *self.outcome.cheats_attempted.get(k)?;
        if attempted == 0 {
            return None;
        }
        let mut p = Proportion::new();
        p.push_batch(self.outcome.cheats_detected[k], attempted);
        Some(p)
    }

    /// Overall detection proportion across every attacked tuple size.
    pub fn overall(&self) -> Proportion {
        let mut p = Proportion::new();
        p.push_batch(
            self.outcome.total_detected(),
            self.outcome.total_attempted(),
        );
        p
    }

    /// True if the closed-form probability `expected` lies inside the
    /// Wilson 99% interval of the `k`-tuple estimate (vacuously true when
    /// `k` was never attacked).
    pub fn consistent_with(&self, k: usize, expected: f64) -> bool {
        match self.at_tuple(k) {
            Some(p) => p.consistent_with(expected, 2.576),
            None => true,
        }
    }
}

/// Run `config.campaigns` campaigns of `plan` under the given adversary and
/// strategy, in parallel, and aggregate detections.
pub fn detection_experiment(
    plan: &RealizedPlan,
    adversary: AdversaryModel,
    strategy: CheatStrategy,
    config: &ExperimentConfig,
) -> DetectionEstimate {
    let campaign = CampaignConfig::new(adversary, strategy);
    detection_experiment_with(plan, &campaign, config)
}

/// As [`detection_experiment`] but with full campaign configuration
/// (honest fault rate, verification policy).
pub fn detection_experiment_with(
    plan: &RealizedPlan,
    campaign: &CampaignConfig,
    config: &ExperimentConfig,
) -> DetectionEstimate {
    campaign.validate().expect("invalid campaign configuration");
    // Grouped once per call and shared by every worker's campaigns.
    let groups: Vec<SpecGroup> = grouped_specs(&expand_plan(plan)).collect();
    let trial_cfg = TrialConfig {
        trials: config.campaigns,
        chunk_size: config.chunk_size,
        threads: config.threads,
        seed: config.seed,
        sampler: config.sampler,
    };
    // The accumulator carries each worker's scratch (results buffer +
    // sampler caches) alongside its partial outcome.  `run_trials` keeps
    // one accumulator alive per worker for the whole run, so steady-state
    // campaigns allocate nothing and CDF tables are built once per worker
    // (enforced by `caches_build_once_per_worker_not_per_chunk` in
    // redundancy-stats).
    let acc: CampaignAccumulator = run_trials(
        &trial_cfg,
        |rng, _i, acc: &mut CampaignAccumulator| {
            acc.scratch.set_sampler_mode(trial_cfg.sampler);
            run_campaign_groups(
                groups.iter().copied(),
                campaign,
                rng,
                &mut acc.outcome,
                &mut acc.scratch,
            )
        },
        |a, b| a.merge(b),
    );
    DetectionEstimate {
        outcome: acc.outcome,
    }
}

/// As [`detection_experiment_with`] but under a [`FaultModel`]: every
/// assignment passes through the drop/straggler/retry pipeline before the
/// supervisor compares whatever actually returned.
///
/// With an inactive model this reduces exactly to
/// [`detection_experiment_with`] — same chunking, same seeds, same draws —
/// so a zero-fault sweep reproduces the baseline tables bit for bit.
pub fn faulty_detection_experiment(
    plan: &RealizedPlan,
    campaign: &CampaignConfig,
    faults: &FaultModel,
    config: &ExperimentConfig,
) -> DetectionEstimate {
    campaign.validate().expect("invalid campaign configuration");
    faults.validate().expect("invalid fault model");
    let groups: Vec<SpecGroup> = grouped_specs(&expand_plan(plan)).collect();
    let trial_cfg = TrialConfig {
        trials: config.campaigns,
        chunk_size: config.chunk_size,
        threads: config.threads,
        seed: config.seed,
        sampler: config.sampler,
    };
    let acc: CampaignAccumulator = run_trials(
        &trial_cfg,
        |rng, _i, acc: &mut CampaignAccumulator| {
            acc.scratch.set_sampler_mode(trial_cfg.sampler);
            run_campaign_groups_with_faults(
                groups.iter().copied(),
                campaign,
                faults,
                rng,
                &mut acc.outcome,
                &mut acc.scratch,
            )
        },
        |a, b| a.merge(b),
    );
    DetectionEstimate {
        outcome: acc.outcome,
    }
}

/// Estimate detection rates for a *huge* plan by sampling tasks instead of
/// enumerating all of them.
///
/// A supervisor planning a 10⁸-task computation does not need to simulate
/// every task to know its detection profile: per-task outcomes are i.i.d.
/// across tasks of the same partition, so sampling `samples` tasks with
/// probabilities proportional to partition sizes (a Walker alias table)
/// yields the same estimator at a fraction of the cost.  The estimates are
/// unbiased for `P̂_{k,p}`; only totals (tasks/assignments) are scaled.
pub fn sampled_detection_experiment(
    plan: &RealizedPlan,
    campaign: &CampaignConfig,
    samples: u64,
    config: &ExperimentConfig,
) -> DetectionEstimate {
    use redundancy_stats::samplers::AliasTable;
    campaign.validate().expect("invalid campaign configuration");
    // One representative TaskSpec per partition + its weight.
    let mut reps: Vec<TaskSpec> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for (next_id, p) in plan.partitions().iter().enumerate() {
        reps.push(TaskSpec {
            id: crate::task::TaskId(next_id as u64),
            multiplicity: p.multiplicity as u32,
            precomputed: matches!(
                p.kind,
                redundancy_core::PartitionKind::Ringer | redundancy_core::PartitionKind::Verified
            ),
        });
        weights.push(p.tasks as f64);
    }
    let table = AliasTable::new(&weights).expect("plan has tasks");
    let trial_cfg = TrialConfig {
        trials: config.campaigns,
        chunk_size: config.chunk_size,
        threads: config.threads,
        seed: config.seed,
        sampler: config.sampler,
    };
    // Per-worker accumulator: campaign scratch plus a reusable buffer for
    // the sampled task multiset, so trials allocate nothing steady-state.
    #[derive(Default)]
    struct SampledAccumulator {
        acc: CampaignAccumulator,
        sampled: Vec<TaskSpec>,
    }
    let acc: SampledAccumulator = run_trials(
        &trial_cfg,
        |rng, _i, s: &mut SampledAccumulator| {
            // Draw `samples` tasks ∝ partition sizes and run one campaign
            // over the sampled multiset.
            s.acc.scratch.set_sampler_mode(trial_cfg.sampler);
            s.sampled.clear();
            s.sampled
                .extend((0..samples).map(|_| reps[table.sample(rng)]));
            run_campaign_with_scratch(
                &s.sampled,
                campaign,
                rng,
                &mut s.acc.outcome,
                &mut s.acc.scratch,
            );
        },
        |a, b| a.acc.merge(b.acc),
    );
    DetectionEstimate {
        outcome: acc.acc.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_empirical_matches_proposition3() {
        // P̂_{k,p} for k = 1, 2 must bracket 1 − (1−ε)^{1−p}.
        let eps = 0.5;
        let p = 0.15;
        let plan = RealizedPlan::balanced(20_000, eps).unwrap();
        let est = detection_experiment(
            &plan,
            AdversaryModel::AssignmentFraction { p },
            CheatStrategy::AtLeast { min_copies: 1 },
            &ExperimentConfig::new(40, 12345),
        );
        let expect = 1.0 - (1.0 - eps).powf(1.0 - p);
        for k in 1..=3usize {
            assert!(
                est.consistent_with(k, expect),
                "k={k}: {:?} vs {expect}",
                est.at_tuple(k).map(|p| p.estimate())
            );
        }
        assert!(est.outcome.campaigns == 40);
    }

    #[test]
    fn determinism_across_thread_counts() {
        let plan = RealizedPlan::balanced(2_000, 0.5).unwrap();
        let run = |threads| {
            let cfg = ExperimentConfig {
                campaigns: 12,
                seed: 7,
                threads,
                chunk_size: 4,
                sampler: SamplerMode::default(),
            };
            detection_experiment(
                &plan,
                AdversaryModel::AssignmentFraction { p: 0.2 },
                CheatStrategy::Always,
                &cfg,
            )
            .outcome
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.cheats_attempted, b.cheats_attempted);
        assert_eq!(a.cheats_detected, b.cheats_detected);
        assert_eq!(a.wrong_accepted, b.wrong_accepted);
    }

    #[test]
    fn grouping_once_equals_grouping_per_campaign() {
        // `detection_experiment` groups the plan once per call; a
        // `run_trials` loop over `run_campaign_with_scratch` regroups the
        // expanded tasks on every campaign.  Both must land on the same
        // outcome, at either thread count.
        for (eps, adversary) in [
            (0.5, AdversaryModel::AssignmentFraction { p: 0.2 }),
            (0.9, AdversaryModel::AssignmentFraction { p: 0.7 }),
            (
                0.75,
                AdversaryModel::SybilAccounts {
                    total: 5_000,
                    adversary: 900,
                },
            ),
        ] {
            let plan = RealizedPlan::balanced(3_000, eps).unwrap();
            let tasks = expand_plan(&plan);
            let campaign = CampaignConfig::new(adversary, CheatStrategy::Always);
            for threads in [1, 2] {
                let cfg = ExperimentConfig::new(10, 77).with_threads(threads);
                let once = detection_experiment_with(&plan, &campaign, &cfg).outcome;
                let trial_cfg = TrialConfig {
                    trials: cfg.campaigns,
                    chunk_size: cfg.chunk_size,
                    threads,
                    seed: cfg.seed,
                    sampler: cfg.sampler,
                };
                let per_campaign: CampaignAccumulator = run_trials(
                    &trial_cfg,
                    |rng, _i, acc: &mut CampaignAccumulator| {
                        run_campaign_with_scratch(
                            &tasks,
                            &campaign,
                            rng,
                            &mut acc.outcome,
                            &mut acc.scratch,
                        )
                    },
                    |a, b| a.merge(b),
                );
                assert_eq!(once, per_campaign.outcome, "ε = {eps}, {threads} threads");
            }
        }
    }

    #[test]
    fn simple_redundancy_fails_empirically() {
        let plan = RealizedPlan::k_fold(5_000, 2, 0.5).unwrap();
        let est = detection_experiment(
            &plan,
            AdversaryModel::AssignmentFraction { p: 0.3 },
            CheatStrategy::ExactTuples { k: 2 },
            &ExperimentConfig::new(10, 99),
        );
        let pair = est.at_tuple(2).unwrap();
        assert_eq!(pair.estimate(), 0.0, "pair collusion is never caught");
        assert!(est.outcome.wrong_accepted > 0);
    }

    #[test]
    fn sampled_estimator_matches_full_enumeration() {
        // A 10⁷-task plan is far too big to enumerate per campaign; the
        // sampled estimator must still land on Proposition 3.
        let eps = 0.5;
        let p = 0.1;
        let plan = RealizedPlan::balanced(10_000_000, eps).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p },
            CheatStrategy::AtLeast { min_copies: 1 },
        );
        let est =
            sampled_detection_experiment(&plan, &campaign, 20_000, &ExperimentConfig::new(30, 555));
        let expect = 1.0 - (1.0 - eps).powf(1.0 - p);
        assert!(
            est.consistent_with(1, expect),
            "{:?} vs {expect}",
            est.at_tuple(1).map(|q| q.estimate())
        );
        assert!(est.outcome.total_attempted() > 10_000);
    }

    #[test]
    fn sampled_estimator_is_deterministic() {
        let plan = RealizedPlan::balanced(1_000_000, 0.75).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        let run = || {
            sampled_detection_experiment(&plan, &campaign, 2_000, &ExperimentConfig::new(5, 9))
                .outcome
        };
        let a = run();
        let b = run();
        assert_eq!(a.cheats_attempted, b.cheats_attempted);
        assert_eq!(a.cheats_detected, b.cheats_detected);
    }

    #[test]
    fn zero_fault_experiment_matches_baseline_bitwise() {
        let plan = RealizedPlan::balanced(3_000, 0.5).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        let cfg = ExperimentConfig::new(8, 2024);
        let base = detection_experiment_with(&plan, &campaign, &cfg);
        let faulty = faulty_detection_experiment(&plan, &campaign, &FaultModel::none(), &cfg);
        assert_eq!(base.outcome, faulty.outcome);
    }

    #[test]
    fn faulty_experiment_is_thread_count_invariant() {
        let plan = RealizedPlan::balanced(2_000, 0.5).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        let faults = FaultModel {
            straggler_rate: 0.2,
            straggler_mean_delay: 10.0,
            corrupt_rate: 0.01,
            ..FaultModel::with_drop_rate(0.15)
        };
        let run = |threads| {
            let cfg = ExperimentConfig {
                campaigns: 12,
                seed: 7,
                threads,
                chunk_size: 4,
                sampler: SamplerMode::default(),
            };
            faulty_detection_experiment(&plan, &campaign, &faults, &cfg).outcome
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn drops_degrade_detection_until_retries_recover_it() {
        // Proposition 3 assumes every copy returns.  Heavy unretried loss
        // shrinks the tuples actually compared, so detection must fall
        // below the closed form; a healthy retry budget must pull it back.
        let eps = 0.5;
        let p = 0.15;
        let plan = RealizedPlan::balanced(10_000, eps).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p },
            CheatStrategy::AtLeast { min_copies: 1 },
        );
        let cfg = ExperimentConfig::new(20, 616);
        let no_retry = FaultModel {
            max_retries: 0,
            ..FaultModel::with_drop_rate(0.5)
        };
        let with_retry = FaultModel {
            max_retries: 6,
            ..FaultModel::with_drop_rate(0.5)
        };
        let expect = 1.0 - (1.0 - eps).powf(1.0 - p);
        let degraded = faulty_detection_experiment(&plan, &campaign, &no_retry, &cfg);
        let recovered = faulty_detection_experiment(&plan, &campaign, &with_retry, &cfg);
        let d = degraded.overall().estimate();
        let r = recovered.overall().estimate();
        assert!(d < expect - 0.05, "lossy detection {d} not below {expect}");
        assert!(r > d + 0.05, "retries failed to recover: {r} vs {d}");
        assert!(degraded.outcome.degraded.total() > 0);
        assert!(
            degraded.outcome.effective_multiplicity() < recovered.outcome.effective_multiplicity()
        );
    }

    #[test]
    fn overall_proportion_aggregates() {
        let plan = RealizedPlan::balanced(5_000, 0.5).unwrap();
        let est = detection_experiment(
            &plan,
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
            &ExperimentConfig::new(5, 3),
        );
        let overall = est.overall();
        assert!(overall.trials() > 0);
        // Proposition 3 at p = 0.2: every tuple size detects at ≈ 0.4257.
        let expect = 1.0 - 0.5f64.powf(0.8);
        assert!(
            (overall.estimate() - expect).abs() < 0.05,
            "{}",
            overall.estimate()
        );
    }
}
