//! The single-stream assignment store behind `redundancy serve`, and the
//! types every serve store shares.
//!
//! The store turns the batch campaign kernel inside out: instead of one
//! loop that draws, materializes, and judges every task, tasks are
//! *activated on demand* as clients call [`AssignmentStore::request_work`],
//! copies are tracked in flight with tick-based timeouts (reusing the
//! [`FaultModel`] retry policy), and a task is judged the moment its last
//! copy returns or is abandoned.  The Balanced/S_m multiplicity mix is
//! maintained incrementally: the activation cursor walks the plan's spec
//! groups ([`plan_groups`](crate::task::plan_groups)) in task-id order,
//! so the multiset of multiplicities handed out is — at every moment — a
//! prefix of the exact mix the batch kernel would deal.
//!
//! # Bit-identity with the batch kernel
//!
//! Activation consumes the session RNG in *exactly* the order
//! [`run_campaign_with_scratch`](crate::engine::run_campaign_with_scratch)
//! does: one holdings draw per task through a bit-compat sampler plan,
//! then (only when `honest_error_rate > 0`) the honest copies' fault
//! draws.  Returns and judging consume no randomness, and every
//! [`CampaignOutcome`] counter is a commutative sum, so a *drained*
//! session — every copy returned, no timeouts — produces an outcome and a
//! final RNG state bit-identical to the batch kernel on the same tasks,
//! config, and seed, regardless of the interleaving of client requests.
//! The `ext_serve` exhibit and the serve proptests pin this end to end.
//!
//! # Storage
//!
//! The store is one shard state machine (`serve::shard`, the one the
//! per-shard store runs per shard) over the whole workload: dispatch
//! order (and therefore RNG order) is one activation cursor, and task
//! state lives in that machine's live window, which holds the tasks from
//! the oldest unjudged one to the cursor and retires judged tasks off its
//! front.  A task's activation rank is its index in the workload, so a
//! return finds its task by subtracting the retired count; a return to a
//! retired task is answered from the task's spec group.  Memory therefore
//! follows the tasks in flight, not the tasks served.  The configured
//! shard count is kept for the journal header and the reports; it cannot
//! perturb outcomes.

use std::sync::Arc;

use super::shard::{Owner, ShardStore, Workload};
use crate::engine::CampaignConfig;
use crate::experiment::{DetectionEstimate, ExperimentConfig};
use crate::faults::FaultModel;
use crate::outcome::CampaignOutcome;
use crate::task::{expand_plan, grouped_specs, SpecGroup, TaskId, TaskSpec};
use redundancy_core::RealizedPlan;
use redundancy_stats::parallel::{run_trials, TrialConfig};
use redundancy_stats::DeterministicRng;

/// Configuration of the live store beyond the campaign itself.
///
/// Only the *retry* half of the [`FaultModel`] applies here — `timeout`
/// and `max_retries` govern in-flight copies — because in a live session
/// the delivery hazards (drops, stragglers, corruption) are the clients'
/// behavior, not the store's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of shards (must be ≥ 1).  The per-shard-stream store spreads
    /// task state and RNG streams over them; the single-stream store only
    /// records the count.
    pub shards: usize,
    /// Retry policy for in-flight copies: a copy outstanding for more than
    /// `faults.timeout` ticks (one tick per `request-work`) is re-queued,
    /// up to `faults.max_retries` times, then abandoned.
    pub faults: FaultModel,
}

impl ServeConfig {
    /// `shards` shards with the default (fault-free) retry policy.
    pub fn new(shards: usize) -> Self {
        ServeConfig {
            shards,
            faults: FaultModel::none(),
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        self.faults.validate()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new(1)
    }
}

/// One unit of work handed to a client: one copy of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The task this copy belongs to.
    pub task: TaskId,
    /// Copy index within the task, `0..multiplicity`.
    pub copy: u32,
    /// The task's total multiplicity (how many copies exist).
    pub multiplicity: u32,
}

/// The store's answer to a work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// A copy to work on.
    Work(Assignment),
    /// Nothing to hand out *right now* — every remaining copy is in
    /// flight.  Poll again (polling advances the tick clock, which is what
    /// eventually expires overdue copies).
    Idle,
    /// The workload is complete: every task has been judged.
    Drained,
}

/// Acknowledgement of an accepted `return-result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReturnAck {
    /// True if this return completed the task (its verdict is now folded
    /// into the live outcome).
    pub task_complete: bool,
}

/// A rejected `return-result`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The task id is outside this session's workload.
    UnknownTask(TaskId),
    /// The copy index is not below the task's multiplicity.
    CopyOutOfRange {
        /// The offending task.
        task: TaskId,
        /// The copy index the client sent.
        copy: u32,
        /// The task's actual multiplicity.
        multiplicity: u32,
    },
    /// The copy is not currently in flight: never issued, already
    /// returned, or timed out and re-queued (a stale return).
    NotInFlight {
        /// The offending task.
        task: TaskId,
        /// The copy index the client sent.
        copy: u32,
    },
}

impl ServeError {
    /// Stable machine-readable error code (the protocol's second token).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownTask(_) => "unknown-task",
            ServeError::CopyOutOfRange { .. } => "copy-out-of-range",
            ServeError::NotInFlight { .. } => "not-in-flight",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTask(t) => write!(f, "task {} is not in this workload", t.0),
            ServeError::CopyOutOfRange {
                task,
                copy,
                multiplicity,
            } => write!(
                f,
                "copy {copy} of task {} out of range (multiplicity {multiplicity})",
                task.0
            ),
            ServeError::NotInFlight { task, copy } => {
                write!(f, "copy {copy} of task {} is not in flight", task.0)
            }
        }
    }
}

/// A deterministic snapshot of the live session, queryable at any moment.
///
/// All fields are exact counters (`Eq`, like the churn soak's report);
/// the derived rates are methods so the struct itself stays bit-comparable
/// between identical-seed runs — the CI concurrency soak `cmp`s two
/// rendered snapshots byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Tasks in the workload.
    pub total_tasks: u64,
    /// Tasks whose holdings have been drawn (dealt at least one copy).
    pub activated_tasks: u64,
    /// Tasks judged (all copies returned or abandoned).
    pub completed_tasks: u64,
    /// Copies in the full workload (sum of multiplicities).
    pub total_copies: u64,
    /// Work issues, re-issues included.
    pub issued: u64,
    /// Copies returned and accepted.
    pub returned: u64,
    /// Copies currently in flight.
    pub in_flight: u64,
    /// Copies waiting in the re-queue after a timeout.
    pub requeued: u64,
    /// Copies abandoned after exhausting their retry budget.
    pub lost: u64,
    /// Timeout expiries (each re-queues or abandons a copy).
    pub timeouts: u64,
    /// Re-issues granted after a timeout.
    pub retries: u64,
    /// Attacked tasks judged so far.
    pub cheats_attempted: u64,
    /// Of those, flagged by the supervisor.
    pub cheats_detected: u64,
    /// Wrong results accepted (recorded) by the supervisor.
    pub wrong_accepted: u64,
    /// Honest tasks flagged anyway.
    pub false_flags: u64,
    /// Tasks abandoned with no copy returned at all.
    pub unresolved_tasks: u64,
}

impl ServeStats {
    /// The live mix's achieved detection probability `P̂_k` (None before
    /// any attacked task has been judged).
    pub fn detection_rate(&self) -> Option<f64> {
        if self.cheats_attempted == 0 {
            None
        } else {
            Some(self.cheats_detected as f64 / self.cheats_attempted as f64)
        }
    }

    /// Realized redundancy factor: issues (re-issues included) per
    /// completed task (None before any task completed).
    pub fn realized_factor(&self) -> Option<f64> {
        if self.completed_tasks == 0 {
            None
        } else {
            Some(self.issued as f64 / self.completed_tasks as f64)
        }
    }

    /// FNV-1a fold over every counter: one number that differs whenever
    /// any tally differs (same idiom as the churn soak checksum).
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        fold(self.total_tasks);
        fold(self.activated_tasks);
        fold(self.completed_tasks);
        fold(self.total_copies);
        fold(self.issued);
        fold(self.returned);
        fold(self.in_flight);
        fold(self.requeued);
        fold(self.lost);
        fold(self.timeouts);
        fold(self.retries);
        fold(self.cheats_attempted);
        fold(self.cheats_detected);
        fold(self.wrong_accepted);
        fold(self.false_flags);
        fold(self.unresolved_tasks);
        h
    }

    /// The deterministic key-value dump served for the `stats` verb (and
    /// `cmp`ed between identical-seed soak runs in CI).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "tasks-total {}", self.total_tasks);
        let _ = writeln!(s, "tasks-activated {}", self.activated_tasks);
        let _ = writeln!(s, "tasks-completed {}", self.completed_tasks);
        let _ = writeln!(s, "copies-total {}", self.total_copies);
        let _ = writeln!(s, "issued {}", self.issued);
        let _ = writeln!(s, "returned {}", self.returned);
        let _ = writeln!(s, "in-flight {}", self.in_flight);
        let _ = writeln!(s, "requeued {}", self.requeued);
        let _ = writeln!(s, "lost {}", self.lost);
        let _ = writeln!(s, "timeouts {}", self.timeouts);
        let _ = writeln!(s, "retries {}", self.retries);
        let _ = writeln!(s, "cheats-attempted {}", self.cheats_attempted);
        let _ = writeln!(s, "cheats-detected {}", self.cheats_detected);
        let _ = writeln!(s, "wrong-accepted {}", self.wrong_accepted);
        let _ = writeln!(s, "false-flags {}", self.false_flags);
        let _ = writeln!(s, "unresolved-tasks {}", self.unresolved_tasks);
        let _ = match self.detection_rate() {
            Some(d) => writeln!(s, "detection {d:.4}"),
            None => writeln!(s, "detection -"),
        };
        let _ = match self.realized_factor() {
            Some(r) => writeln!(s, "realized-factor {r:.4}"),
            None => writeln!(s, "realized-factor -"),
        };
        let _ = writeln!(s, "checksum {:#018x}", self.checksum());
        s
    }
}

/// The live single-stream assignment store: one `ShardStore` over the
/// whole workload, drawing from the caller's session RNG.  See the module
/// docs for the activation/judging contract.
#[derive(Debug)]
pub struct AssignmentStore {
    shards: usize,
    store: ShardStore,
}

impl AssignmentStore {
    /// Build a store over `tasks` (contiguous ids, as [`expand_plan`]
    /// produces) for one campaign: groups them and calls
    /// [`from_groups`](Self::from_groups).
    pub fn new(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        serve: &ServeConfig,
    ) -> Result<Self, String> {
        Self::from_groups(&grouped_specs(tasks).collect::<Vec<_>>(), config, serve)
    }

    /// Build a store over the spec groups `groups` (contiguous ids, as
    /// [`plan_groups`](crate::task::plan_groups) produces) for one
    /// campaign, in O(groups).
    pub fn from_groups(
        groups: &[SpecGroup],
        config: &CampaignConfig,
        serve: &ServeConfig,
    ) -> Result<Self, String> {
        config.validate()?;
        serve.validate()?;
        let workload = Arc::new(Workload::new(groups, config)?);
        Ok(AssignmentStore {
            shards: serve.shards,
            store: ShardStore::new(workload, serve, Owner::All, 1),
        })
    }

    /// The configured shard count.  The single-stream store keeps its
    /// task state in one window, so the count cannot perturb outcomes; it
    /// is kept for the journal header and the reports.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// True once every task has been judged.
    pub fn is_drained(&self) -> bool {
        self.store.is_drained()
    }

    /// Hand out the next copy of work.
    ///
    /// Advances the tick clock by one, expires overdue in-flight copies
    /// (re-queueing or abandoning them per the retry policy), then serves
    /// re-queued copies first and freshly activated tasks after.
    pub fn request_work(&mut self, rng: &mut DeterministicRng) -> Issue {
        self.store.request_work(rng)
    }

    /// Accept the return of one in-flight copy; judges the task when it
    /// was the last outstanding copy.
    pub fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        self.store.return_result(task, copy)
    }

    /// The live session snapshot.
    pub fn stats(&self) -> ServeStats {
        self.store.stats()
    }

    /// The session's outcome — bit-identical to the batch kernel's once
    /// the session is drained.
    pub fn merged_outcome(&self) -> CampaignOutcome {
        self.store.outcome().clone()
    }

    /// Running `(timeouts, lost)` totals — the deltas the journal layer
    /// logs around `request_work` to make timeout expiries replayable.
    pub fn expiry_counters(&self) -> (u64, u64) {
        self.store.expiry_counters()
    }

    /// Revert every in-flight copy to pending and re-queue it under its
    /// current attempt number, returning how many copies were reverted.
    ///
    /// No timeout or retry is charged: the copies didn't expire, their
    /// clients died with a crashed session.  Both `issued` and the
    /// in-flight count are rolled back so re-issuing the re-queued copies
    /// lands the drained session in exactly the counters an uninterrupted
    /// drain reaches (conservation: `issued = returned + timeouts +
    /// in-flight` holds before and after).
    pub fn reset_in_flight(&mut self) -> u64 {
        self.store.reset_in_flight()
    }

    /// Records in the in-flight queue, stale ones included.  Stays within
    /// twice the copies in flight plus a small constant, whatever the
    /// timeout.
    pub fn inflight_records(&self) -> usize {
        self.store.inflight_records()
    }

    /// Exhaustively re-derive every counter from the per-copy states and
    /// panic on any mismatch — conservation of multiplicity.  Used by the
    /// serve proptests after arbitrary interleavings; cheap enough to call
    /// inside test loops, never called on the hot path.
    pub fn check_invariants(&self) {
        self.store.check_invariants();
    }
}

/// Drain one session to completion, returning each copy as soon as it is
/// issued — the canonical single-client session the `ext_serve` oracle
/// compares against the batch kernel.  The merged outcome is folded into
/// `outcome`; the final [`ServeStats`] snapshot is returned.
pub fn drain_session(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    serve: &ServeConfig,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
) -> ServeStats {
    let mut store = AssignmentStore::new(tasks, config, serve).expect("invalid serve session");
    loop {
        match store.request_work(rng) {
            Issue::Work(a) => {
                store
                    .return_result(a.task, a.copy)
                    .expect("drain returned an issued copy");
            }
            Issue::Idle => unreachable!("immediate returns leave nothing in flight"),
            Issue::Drained => break,
        }
    }
    outcome.merge(&store.merged_outcome());
    store.stats()
}

/// Monte-Carlo wrapper: run `config.campaigns` independent drained serve
/// sessions of `plan` under the chunked trial driver — same seeds, same
/// chunking as
/// [`detection_experiment_with`](crate::experiment::detection_experiment_with),
/// so the aggregate outcome must match it bit for bit at any shard or
/// thread count.
pub fn serve_experiment(
    plan: &RealizedPlan,
    campaign: &CampaignConfig,
    serve: &ServeConfig,
    config: &ExperimentConfig,
) -> DetectionEstimate {
    campaign.validate().expect("invalid campaign configuration");
    serve.validate().expect("invalid serve configuration");
    let tasks: Vec<TaskSpec> = expand_plan(plan);
    let trial_cfg = TrialConfig {
        trials: config.campaigns,
        chunk_size: config.chunk_size,
        threads: config.threads,
        seed: config.seed,
        // The store draws bit-compat regardless; the serve oracle promises
        // bit-identity with the batch kernel.
        sampler: Default::default(),
    };
    #[derive(Default)]
    struct ServeAccumulator {
        outcome: CampaignOutcome,
    }
    let acc: ServeAccumulator = run_trials(
        &trial_cfg,
        |rng, _i, acc: &mut ServeAccumulator| {
            drain_session(&tasks, campaign, serve, rng, &mut acc.outcome);
        },
        |a, b| a.outcome.merge(&b.outcome),
    );
    DetectionEstimate {
        outcome: acc.outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_drain_equivalent, DrainState};
    use super::*;
    use crate::adversary::{AdversaryModel, CheatStrategy};
    use crate::engine::{run_campaign_with_scratch, CampaignScratch};
    use crate::experiment::detection_experiment_with;
    use crate::supervisor::VerificationPolicy;

    fn campaign() -> CampaignConfig {
        CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        )
    }

    fn specs(n: u64) -> Vec<TaskSpec> {
        expand_plan(&RealizedPlan::balanced(n, 0.5).unwrap())
    }

    #[test]
    fn drained_session_is_bit_identical_to_batch_kernel() {
        let tasks = specs(1_500);
        let mut configs = vec![campaign()];
        // Error path (per-task materialization) and Majority judging too.
        let mut errorful = campaign();
        errorful.honest_error_rate = 0.02;
        errorful.policy = VerificationPolicy::Majority;
        configs.push(errorful);
        // The hypergeometric holdings plan, for a Sybil adversary.
        configs.push(CampaignConfig::new(
            AdversaryModel::SybilAccounts {
                total: 40,
                adversary: 9,
            },
            CheatStrategy::AtLeast { min_copies: 1 },
        ));
        for cfg in configs {
            for shards in [1usize, 2, 4] {
                let mut batch_rng = DeterministicRng::new(99);
                let mut serve_rng = batch_rng.clone();
                let mut batch_out = CampaignOutcome::default();
                let mut serve_out = CampaignOutcome::default();
                let mut scratch = CampaignScratch::new();
                run_campaign_with_scratch(
                    &tasks,
                    &cfg,
                    &mut batch_rng,
                    &mut batch_out,
                    &mut scratch,
                );
                drain_session(
                    &tasks,
                    &cfg,
                    &ServeConfig::new(shards),
                    &mut serve_rng,
                    &mut serve_out,
                );
                assert_drain_equivalent(
                    &DrainState::batch(batch_out, batch_rng),
                    &DrainState::batch(serve_out, serve_rng),
                );
            }
        }
    }

    #[test]
    fn serve_experiment_matches_detection_experiment_bitwise() {
        let plan = RealizedPlan::balanced(800, 0.5).unwrap();
        let cfg = ExperimentConfig::new(8, 20_050_926);
        let baseline = detection_experiment_with(&plan, &campaign(), &cfg);
        for shards in [1usize, 3] {
            let est = serve_experiment(&plan, &campaign(), &ServeConfig::new(shards), &cfg);
            assert_eq!(est.outcome, baseline.outcome, "diverged at {shards} shards");
        }
    }

    #[test]
    fn out_of_order_returns_reach_the_same_outcome() {
        let tasks = specs(300);
        let mut batch_rng = DeterministicRng::new(7);
        let mut serve_rng = batch_rng.clone();
        let mut batch_out = CampaignOutcome::default();
        let mut scratch = CampaignScratch::new();
        run_campaign_with_scratch(
            &tasks,
            &campaign(),
            &mut batch_rng,
            &mut batch_out,
            &mut scratch,
        );

        // Buffer up to 64 assignments, then return them LIFO — a wildly
        // different interleaving than the sequential drain.
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 1_000_000,
                ..FaultModel::none()
            },
            ..ServeConfig::new(2)
        };
        let mut store = AssignmentStore::new(&tasks, &campaign(), &serve).unwrap();
        let mut held: Vec<Assignment> = Vec::new();
        loop {
            match store.request_work(&mut serve_rng) {
                Issue::Work(a) => {
                    held.push(a);
                    if held.len() == 64 {
                        while let Some(a) = held.pop() {
                            store.return_result(a.task, a.copy).unwrap();
                        }
                    }
                }
                Issue::Idle => {
                    let a = held.pop().expect("idle with nothing held");
                    store.return_result(a.task, a.copy).unwrap();
                }
                Issue::Drained => break,
            }
        }
        while let Some(a) = held.pop() {
            store.return_result(a.task, a.copy).unwrap();
        }
        // Late returns can leave tasks unjudged only if copies are still
        // out; here everything was returned.
        assert!(store.is_drained());
        store.check_invariants();
        assert_drain_equivalent(
            &DrainState::batch(batch_out, batch_rng),
            &DrainState::batch(store.merged_outcome(), serve_rng),
        );
    }

    #[test]
    fn reset_in_flight_requeues_and_recovered_drain_matches_uninterrupted() {
        let tasks = specs(400);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 1_000_000,
                ..FaultModel::none()
            },
            ..ServeConfig::new(3)
        };
        // Reference: one uninterrupted drain.
        let mut ref_rng = DeterministicRng::new(23);
        let mut ref_out = CampaignOutcome::default();
        let ref_stats = drain_session(&tasks, &campaign(), &serve, &mut ref_rng, &mut ref_out);

        // Crash scenario: issue a prefix, return a third of it, then lose
        // the clients — reset and drain the rest.
        let mut rng = DeterministicRng::new(23);
        let mut store = AssignmentStore::new(&tasks, &campaign(), &serve).unwrap();
        let mut outstanding = Vec::new();
        for i in 0..300 {
            let Issue::Work(a) = store.request_work(&mut rng) else {
                panic!("store drained too early");
            };
            if i % 3 == 0 {
                store.return_result(a.task, a.copy).unwrap();
            } else {
                outstanding.push(a);
            }
        }
        let before = store.stats();
        let reverted = store.reset_in_flight();
        assert_eq!(reverted, outstanding.len() as u64);
        store.check_invariants();
        let after = store.stats();
        assert_eq!(after.in_flight, 0);
        assert_eq!(after.requeued, before.requeued + reverted);
        assert_eq!(after.issued, before.issued - reverted);
        // Stale returns of reverted copies are rejected, not double-counted.
        let a = outstanding[0];
        assert_eq!(
            store.return_result(a.task, a.copy),
            Err(ServeError::NotInFlight {
                task: a.task,
                copy: a.copy
            })
        );
        // Finish the drain; the endpoint must match the uninterrupted run.
        loop {
            match store.request_work(&mut rng) {
                Issue::Work(a) => {
                    store.return_result(a.task, a.copy).unwrap();
                }
                Issue::Idle => unreachable!("immediate returns leave nothing in flight"),
                Issue::Drained => break,
            }
        }
        store.check_invariants();
        let mut recovered = DrainState::batch(store.merged_outcome(), rng);
        recovered.stats = Some(store.stats());
        let mut reference = DrainState::batch(ref_out, ref_rng);
        reference.stats = Some(ref_stats);
        assert_drain_equivalent(&reference, &recovered);
    }

    #[test]
    fn returns_are_validated() {
        let tasks = specs(100);
        let mut rng = DeterministicRng::new(1);
        let mut store = AssignmentStore::new(&tasks, &campaign(), &ServeConfig::new(2)).unwrap();
        // Nothing issued yet: everything is rejected.
        assert_eq!(
            store.return_result(TaskId(0), 0),
            Err(ServeError::NotInFlight {
                task: TaskId(0),
                copy: 0
            })
        );
        assert_eq!(
            store.return_result(TaskId(999_999), 0),
            Err(ServeError::UnknownTask(TaskId(999_999)))
        );
        let Issue::Work(a) = store.request_work(&mut rng) else {
            panic!("fresh store must have work");
        };
        assert_eq!(
            store.return_result(a.task, a.multiplicity),
            Err(ServeError::CopyOutOfRange {
                task: a.task,
                copy: a.multiplicity,
                multiplicity: a.multiplicity
            })
        );
        assert!(store.return_result(a.task, a.copy).is_ok());
        // Double return is stale.
        assert_eq!(
            store.return_result(a.task, a.copy),
            Err(ServeError::NotInFlight {
                task: a.task,
                copy: a.copy
            })
        );
        store.check_invariants();
    }

    #[test]
    fn timeouts_requeue_then_abandon_and_conserve_copies() {
        let tasks = specs(60);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 2,
                max_retries: 1,
                ..FaultModel::none()
            },
            ..ServeConfig::new(3)
        };
        let mut rng = DeterministicRng::new(5);
        let mut store = AssignmentStore::new(&tasks, &campaign(), &serve).unwrap();
        // Never return anything: every copy must time out, retry once, and
        // eventually be abandoned; the store still drains (all tasks judged
        // as unresolved) with every copy accounted for.
        let mut guard = 0u64;
        loop {
            match store.request_work(&mut rng) {
                Issue::Drained => break,
                _ => {
                    guard += 1;
                    assert!(guard < 1_000_000, "drain did not terminate");
                }
            }
        }
        store.check_invariants();
        let stats = store.stats();
        assert_eq!(stats.completed_tasks, stats.total_tasks);
        assert_eq!(stats.lost, stats.total_copies);
        assert_eq!(stats.returned, 0);
        assert_eq!(stats.unresolved_tasks, stats.total_tasks);
        // Each copy: first issue + exactly one retry.
        assert_eq!(stats.issued, 2 * stats.total_copies);
        assert_eq!(stats.retries, stats.total_copies);
        assert_eq!(stats.timeouts, 2 * stats.total_copies);
        let out = store.merged_outcome();
        assert_eq!(out.unresolved_tasks, stats.total_tasks);
        assert_eq!(out.lost_assignments, stats.total_copies);
    }

    #[test]
    fn late_return_after_loss_is_stale() {
        let tasks = specs(50);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 1,
                max_retries: 0,
                ..FaultModel::none()
            },
            ..ServeConfig::new(1)
        };
        let mut rng = DeterministicRng::new(9);
        let mut store = AssignmentStore::new(&tasks, &campaign(), &serve).unwrap();
        let Issue::Work(first) = store.request_work(&mut rng) else {
            panic!("fresh store must have work");
        };
        // The next request pushes the clock to the deadline; with no retry
        // budget the copy is abandoned, so its late return is stale.
        let _ = store.request_work(&mut rng);
        assert_eq!(
            store.return_result(first.task, first.copy),
            Err(ServeError::NotInFlight {
                task: first.task,
                copy: first.copy
            })
        );
        assert_eq!(store.stats().lost, 1);
        store.check_invariants();
    }

    #[test]
    fn partial_loss_judges_degraded_tuples() {
        // Lose exactly the adversary-free copies of nothing in particular:
        // drop every third issued copy and let it be abandoned; judged
        // tuples shrink, degraded histogram fills, outcome stays conserved.
        let tasks = specs(200);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 3,
                max_retries: 0,
                ..FaultModel::none()
            },
            ..ServeConfig::new(2)
        };
        let mut rng = DeterministicRng::new(17);
        let mut store = AssignmentStore::new(&tasks, &campaign(), &serve).unwrap();
        let mut dropped = 0u64;
        let mut n = 0u64;
        let mut guard = 0u64;
        loop {
            match store.request_work(&mut rng) {
                Issue::Work(a) => {
                    n += 1;
                    if n.is_multiple_of(3) {
                        dropped += 1;
                    } else {
                        store.return_result(a.task, a.copy).unwrap();
                    }
                }
                Issue::Idle => {}
                Issue::Drained => break,
            }
            guard += 1;
            assert!(guard < 1_000_000, "drain did not terminate");
        }
        store.check_invariants();
        let stats = store.stats();
        assert_eq!(stats.completed_tasks, stats.total_tasks);
        assert_eq!(stats.lost, dropped);
        assert_eq!(stats.returned + stats.lost, stats.total_copies);
        let out = store.merged_outcome();
        assert_eq!(out.lost_assignments, dropped);
        // One degraded record per task that lost at least one copy.
        assert!(out.degraded.total() > 0);
    }

    #[test]
    fn stats_render_is_deterministic_and_checksummed() {
        let tasks = specs(400);
        let mut rng = DeterministicRng::new(3);
        let mut out = CampaignOutcome::default();
        let a = drain_session(
            &tasks,
            &campaign(),
            &ServeConfig::new(2),
            &mut rng,
            &mut out,
        );
        let mut rng2 = DeterministicRng::new(3);
        let mut out2 = CampaignOutcome::default();
        let b = drain_session(
            &tasks,
            &campaign(),
            &ServeConfig::new(2),
            &mut rng2,
            &mut out2,
        );
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("checksum 0x"));
        // A drained clean session realizes exactly the planned factor.
        let planned = a.total_copies as f64 / a.total_tasks as f64;
        assert!((a.realized_factor().unwrap() - planned).abs() < 1e-12);
        assert_eq!(a.detection_rate(), out.overall_detection_rate());
    }

    #[test]
    fn empty_workload_drains_immediately() {
        let mut rng = DeterministicRng::new(1);
        let mut store = AssignmentStore::new(&[], &campaign(), &ServeConfig::new(4)).unwrap();
        assert!(store.is_drained());
        assert_eq!(store.request_work(&mut rng), Issue::Drained);
        assert_eq!(store.merged_outcome().campaigns, 1);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let tasks = specs(10);
        assert!(AssignmentStore::new(&tasks, &campaign(), &ServeConfig::new(0)).is_err());
        let bad_faults = ServeConfig {
            faults: FaultModel {
                timeout: 0,
                ..FaultModel::none()
            },
            ..ServeConfig::new(1)
        };
        assert!(AssignmentStore::new(&tasks, &campaign(), &bad_faults).is_err());
        // Discontiguous ids are refused up front.
        let gap = [
            TaskSpec {
                id: TaskId(0),
                multiplicity: 2,
                precomputed: false,
            },
            TaskSpec {
                id: TaskId(5),
                multiplicity: 2,
                precomputed: false,
            },
        ];
        assert!(AssignmentStore::new(&gap, &campaign(), &ServeConfig::new(1)).is_err());
    }
}
