//! Adversary survival analysis: how long until a determined cheater is
//! caught?
//!
//! The paper's first caveat (Section 1): *"a determined adversary will
//! succeed in disrupting the system if she makes a sufficient number of
//! attempts... It is highly likely, however, that in making these attempts
//! she will be detected, alerting the supervisor"*.  This module makes
//! that argument quantitative.
//!
//! Each cheat attempt is detected independently with probability
//! `P_eff = min_k P_{k,p}` (the scheme's effective detection), so the
//! number of *successful* cheats before first detection is geometric:
//!
//! * `P(caught within a attempts) = 1 − (1−P_eff)^a`;
//! * `E[successes before detection] = (1−P_eff)/P_eff`;
//! * the supervisor can bound the expected damage of any adversary by
//!   tuning ε.
//!
//! [`survival_experiment`] validates the geometric law on the full
//! campaign engine: the adversary cheats task after task (on the holdings
//! her strategy selects) until the supervisor's comparison or a ringer
//! catches her, at which point her accounts are banned (the "reactive
//! measure").

use crate::adversary::AdversaryModel;
use crate::engine::CampaignConfig;
use crate::outcome::CampaignOutcome;
use crate::task::{expand_plan, TaskSpec};
use redundancy_core::RealizedPlan;
use redundancy_stats::parallel::{run_trials, TrialConfig};
use redundancy_stats::samplers::{sample_binomial, sample_hypergeometric};
use redundancy_stats::DeterministicRng;

/// Closed-form expected number of undetected cheats before first detection
/// when each attempt is caught with probability `p_eff`.
///
/// ```
/// use redundancy_sim::survival::expected_free_cheats;
/// // At ε = 0.75 a cheater gets only a third of a free cheat on average.
/// assert!((expected_free_cheats(0.75) - 1.0 / 3.0).abs() < 1e-12);
/// assert!(expected_free_cheats(0.0).is_infinite()); // simple redundancy
/// ```
pub fn expected_free_cheats(p_eff: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_eff),
        "detection probability {p_eff} outside [0,1]"
    );
    if p_eff == 0.0 {
        f64::INFINITY
    } else {
        (1.0 - p_eff) / p_eff
    }
}

/// Closed-form probability the adversary is caught within `attempts`
/// cheat attempts.
pub fn p_caught_within(p_eff: f64, attempts: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p_eff));
    1.0 - (1.0 - p_eff).powi(attempts.min(i32::MAX as u64) as i32)
}

/// Moments of a per-career count, kept as exact integer sums: merging is
/// integer addition, so the result is the same bits whichever worker ran
/// which chunk of careers and in whatever order the partials fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountMoments {
    n: u64,
    sum: u128,
    sum_sq: u128,
}

impl CountMoments {
    /// Add one observation.
    pub fn push(&mut self, x: u64) {
        self.n += 1;
        self.sum += u128::from(x);
        self.sum_sq += u128::from(x) * u128::from(x);
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &CountMoments) {
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty tally).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.  The
    /// numerator `n·Σx² − (Σx)²` is exact.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = u128::from(self.n);
        let spread = n * self.sum_sq - self.sum * self.sum;
        spread as f64 / (n * (n - 1)) as f64
    }

    /// Standard error of the mean.
    pub fn standard_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }
}

/// Aggregated survival statistics from simulated careers.
#[derive(Debug, Clone, Default)]
pub struct SurvivalOutcome {
    /// Undetected cheats completed before the first detection, per career
    /// (careers that were never caught contribute their full cheat count
    /// and are tallied in `never_caught`).
    pub free_cheats: CountMoments,
    /// Careers in which the adversary exhausted the campaign uncaught.
    pub never_caught: u64,
    /// Total simulated careers.
    pub careers: u64,
}

impl SurvivalOutcome {
    /// Merge another outcome.  Every field is an integer sum, so the
    /// merge is exactly commutative and associative.
    pub fn merge(&mut self, other: &SurvivalOutcome) {
        self.free_cheats.merge(&other.free_cheats);
        self.never_caught += other.never_caught;
        self.careers += other.careers;
    }
}

/// Simulate one adversary "career": she works through the campaign's tasks
/// in random order, cheating per her strategy, until first detection (ban)
/// or campaign end.  Returns (successful cheats before detection, caught?).
pub fn career(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    rng: &mut DeterministicRng,
) -> (u64, bool) {
    let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
    rng.shuffle(&mut order);
    let mut free = 0u64;
    for idx in order {
        let task = &tasks[idx as usize];
        let mult = task.multiplicity as u64;
        let held = match config.adversary {
            AdversaryModel::AssignmentFraction { p } => sample_binomial(rng, mult, p),
            AdversaryModel::SybilAccounts { total, adversary } => {
                sample_hypergeometric(rng, total as u64, adversary as u64, mult.min(total as u64))
            }
        } as u32;
        if !config.strategy.cheats_on(held) {
            continue;
        }
        // Detected iff some copy is honest or the task is precomputed.
        let detected = task.precomputed || u64::from(held) < mult;
        if detected {
            return (free, true);
        }
        free += 1;
    }
    (free, false)
}

/// Monte-Carlo survival experiment over `careers` independent adversary
/// careers, with auto-detected thread count.
pub fn survival_experiment(
    plan: &RealizedPlan,
    config: &CampaignConfig,
    careers: u64,
    seed: u64,
) -> SurvivalOutcome {
    survival_experiment_with(plan, config, careers, seed, 0)
}

/// As [`survival_experiment`] but pinned to `threads` worker threads
/// (0 = auto).  Sweep drivers evaluating several scenarios concurrently
/// pass each scenario its share of the thread budget.  Careers are chunked
/// and seeded identically at every thread count.
pub fn survival_experiment_with(
    plan: &RealizedPlan,
    config: &CampaignConfig,
    careers: u64,
    seed: u64,
    threads: usize,
) -> SurvivalOutcome {
    config.validate().expect("invalid campaign configuration");
    let tasks = expand_plan(plan);
    let trial_cfg = TrialConfig {
        trials: careers,
        chunk_size: TrialConfig::CAMPAIGN_CHUNK_SIZE,
        threads,
        seed,
        sampler: Default::default(),
    };
    run_trials(
        &trial_cfg,
        |rng, _i, acc: &mut SurvivalOutcome| {
            let (free, caught) = career(&tasks, config, rng);
            acc.free_cheats.push(free);
            if !caught {
                acc.never_caught += 1;
            }
            acc.careers += 1;
        },
        |a, b| a.merge(&b),
    )
}

/// Convenience: the effective per-attempt detection probability a plan
/// offers against an `AtLeast {1}` cheater at proportion `p` — the
/// geometric parameter of the career law.
pub fn effective_attempt_detection(plan: &RealizedPlan, p: f64) -> f64 {
    plan.effective_detection(p)
        .expect("valid adversary proportion")
}

/// Bookkeeping helper: outcome of continuing to cheat across `rounds`
/// successive campaigns with per-campaign outcome `per_campaign`.
pub fn compound_detection(per_campaign: &CampaignOutcome, rounds: u32) -> f64 {
    match per_campaign.overall_detection_rate() {
        Some(rate) => 1.0 - (1.0 - rate).powi(rounds as i32),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::CheatStrategy;
    use crate::supervisor::VerificationPolicy;

    fn plan() -> RealizedPlan {
        RealizedPlan::balanced(20_000, 0.5).unwrap()
    }

    fn config(p: f64) -> CampaignConfig {
        CampaignConfig {
            adversary: AdversaryModel::AssignmentFraction { p },
            strategy: CheatStrategy::AtLeast { min_copies: 1 },
            honest_error_rate: 0.0,
            policy: VerificationPolicy::Unanimous,
        }
    }

    #[test]
    fn closed_forms() {
        assert_eq!(expected_free_cheats(0.5), 1.0);
        assert_eq!(expected_free_cheats(1.0), 0.0);
        assert_eq!(expected_free_cheats(0.0), f64::INFINITY);
        assert!((p_caught_within(0.5, 3) - 0.875).abs() < 1e-12);
        assert_eq!(p_caught_within(0.5, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn closed_form_validates() {
        expected_free_cheats(1.5);
    }

    #[test]
    fn careers_match_geometric_law() {
        // With per-attempt detection P_eff, mean free cheats = (1-P)/P.
        let plan = plan();
        let p = 0.1;
        let cfg = config(p);
        let out = survival_experiment(&plan, &cfg, 1_500, 99);
        assert_eq!(out.careers, 1_500);
        let p_eff = 1.0 - 0.5f64.powf(1.0 - p); // Proposition 3
        let expect = expected_free_cheats(p_eff);
        let mean = out.free_cheats.mean();
        let se = out.free_cheats.standard_error();
        assert!(
            (mean - expect).abs() < 4.0 * se + 0.05,
            "mean {mean} vs geometric {expect} (se {se})"
        );
        // At N = 20,000 with thousands of attackable tasks, careers that
        // never get caught are vanishingly rare.
        assert!(out.never_caught <= 2, "{}", out.never_caught);
    }

    #[test]
    fn higher_epsilon_means_shorter_careers() {
        let weak = survival_experiment(
            &RealizedPlan::balanced(10_000, 0.25).unwrap(),
            &config(0.05),
            400,
            7,
        );
        let strong = survival_experiment(
            &RealizedPlan::balanced(10_000, 0.9).unwrap(),
            &config(0.05),
            400,
            7,
        );
        assert!(
            strong.free_cheats.mean() < weak.free_cheats.mean(),
            "strong {} vs weak {}",
            strong.free_cheats.mean(),
            weak.free_cheats.mean()
        );
    }

    #[test]
    fn simple_redundancy_careers_never_end() {
        // Pair collusion is invisible: the adversary finishes the campaign
        // uncaught every time.
        let plan = RealizedPlan::k_fold(2_000, 2, 0.5).unwrap();
        let cfg = CampaignConfig {
            strategy: CheatStrategy::ExactTuples { k: 2 },
            ..config(0.2)
        };
        let out = survival_experiment(&plan, &cfg, 100, 3);
        assert_eq!(out.never_caught, 100);
        assert!(out.free_cheats.mean() > 10.0);
    }

    #[test]
    fn determinism() {
        let plan = plan();
        let a = survival_experiment(&plan, &config(0.1), 200, 5);
        let b = survival_experiment(&plan, &config(0.1), 200, 5);
        assert_eq!(a.free_cheats.mean(), b.free_cheats.mean());
        assert_eq!(a.never_caught, b.never_caught);
        // The same careers at any thread count, whichever worker claims
        // which chunk: the tallies are exact.
        for threads in [1, 2, 4] {
            let c = survival_experiment_with(&plan, &config(0.1), 200, 5, threads);
            assert_eq!(c.free_cheats, a.free_cheats, "{threads} threads");
            assert_eq!(c.never_caught, a.never_caught);
        }
    }

    #[test]
    fn count_moments_are_exact_and_merge_in_any_order() {
        let xs = [3u64, 0, 7, 7, 1, 12, 4];
        let mut all = CountMoments::default();
        xs.iter().for_each(|&x| all.push(x));
        let (mut a, mut b) = (CountMoments::default(), CountMoments::default());
        xs[..3].iter().for_each(|&x| a.push(x));
        xs[3..].iter().for_each(|&x| b.push(x));
        let mut ab = a;
        ab.merge(&b);
        b.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(b, all);
        assert_eq!(all.count(), 7);
        assert_eq!(all.mean(), 34.0 / 7.0);
        // Σx² = 268: variance (7·268 − 34²) / (7·6) = 720 / 42.
        assert_eq!(all.sample_variance(), 720.0 / 42.0);
        assert_eq!(CountMoments::default().mean(), 0.0);
    }

    #[test]
    fn compound_detection_accumulates() {
        let mut o = CampaignOutcome::default();
        o.record_cheat(1, true);
        o.record_cheat(1, false);
        // 0.5 per campaign → 0.875 across three campaigns.
        assert!((compound_detection(&o, 3) - 0.875).abs() < 1e-12);
        assert_eq!(compound_detection(&CampaignOutcome::default(), 5), 0.0);
    }

    #[test]
    fn effective_attempt_detection_matches_plan() {
        let plan = plan();
        let direct = plan.effective_detection(0.1).unwrap();
        assert_eq!(effective_attempt_detection(&plan, 0.1), direct);
    }
}
