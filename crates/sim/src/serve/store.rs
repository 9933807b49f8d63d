//! The serve store behind `redundancy serve`, and the types every serve
//! transport shares.
//!
//! [`Store`] turns the batch campaign kernel inside out: instead of one
//! loop that draws, materializes, and judges every task, tasks are
//! *activated on demand* as clients request work, copies are tracked in
//! flight with tick-based timeouts (reusing the [`FaultModel`] retry
//! policy), and a task is judged the moment its last copy returns or is
//! abandoned.  The Balanced/S_m multiplicity mix is maintained
//! incrementally: the activation cursor walks the plan's spec groups
//! ([`plan_groups`](crate::task::plan_groups)) in task-id order, so the
//! multiset of multiplicities handed out is — at every moment — a prefix of
//! the exact mix the batch kernel would deal.
//!
//! # One store, two stream modes
//!
//! A store is a list of shard machines (`serve::shard`), each drawing from
//! its own RNG stream, plus a round-robin router.  `request_work` scans the
//! machines from the router, one step further on each request, and takes
//! the first copy one hands out; a return goes to the machine that owns its
//! task.  [`StreamMode`] picks the machines:
//!
//! * **Single stream**: one machine over every task, on
//!   `DeterministicRng::new(seed)`.  Dispatch order, and so RNG order, is
//!   one activation cursor, which makes a drained session bit-identical to
//!   the batch kernel (below).  The configured shard count is kept for the
//!   journal header and the reports; it cannot perturb outcomes.
//! * **Per-shard streams**: task ids are partitioned over the shards by an
//!   FNV-1a id hash, and shard `s` draws every activation from
//!   `DeterministicRng::new(SeedSequence::new(seed).derive(s))`, activating
//!   its own ids in id order.  A shard's activation sequence is therefore a
//!   pure function of `(seed, shard count, s)`: no request schedule can
//!   perturb it, because no other shard touches its stream.  With a
//!   timeout no client trips, a drained store's merged outcome, per-shard
//!   final RNG states and rendered stats are byte-identical across any
//!   client count and request schedule at a fixed shard count.  The
//!   matching oracle is [`Store::drain_shard_by_shard`]: draining shard 0
//!   to completion, then shard 1, and so on must land in the same state as
//!   any interleaved drain.
//!
//! Every method that changes the store takes `&mut self`.  The daemon's io
//! loops are one thread that answers one request at a time, so they own
//! their store outright and no request takes a lock.  A caller that shares
//! a store across threads puts it behind one lock:
//! [`ConcurrentStore`](super::ConcurrentStore).
//!
//! # Bit-identity with the batch kernel
//!
//! Activation consumes the session RNG in *exactly* the order
//! [`run_campaign_with_scratch`](crate::engine::run_campaign_with_scratch)
//! does: one holdings draw per task through a bit-compat sampler plan,
//! then (only when `honest_error_rate > 0`) the honest copies' fault
//! draws.  Returns and judging consume no randomness, and every
//! [`CampaignOutcome`] counter is a commutative sum, so a *drained*
//! single-stream session — every copy returned, no timeouts — produces an
//! outcome and a final RNG state bit-identical to the batch kernel on the
//! same tasks, config, and seed, regardless of the interleaving of client
//! requests.  The `ext_serve` exhibit and the serve proptests pin this end
//! to end.
//!
//! # Storage
//!
//! Each machine keeps only a live window of its tasks, from the oldest
//! unjudged one to its activation cursor, and retires judged tasks off the
//! window's front; a return to a retired task is answered from the task's
//! spec group.  Memory therefore follows the tasks in flight, not the
//! tasks served.  The store is built from the plan's spec groups in
//! O(groups + shards) and hashes no id up front: a shard hashes an id when
//! its activation walk reaches it, and counts the tasks it owns only when
//! asked for its own stats cell.

use std::sync::Arc;

use super::concurrent::StreamMode;
use super::shard::{shard_of, Owner, ShardStore, Workload};
use super::WorkStore;
use crate::engine::CampaignConfig;
use crate::experiment::{DetectionEstimate, ExperimentConfig};
use crate::faults::FaultModel;
use crate::outcome::CampaignOutcome;
use crate::task::{expand_plan, grouped_specs, SpecGroup, TaskId, TaskSpec};
use redundancy_core::RealizedPlan;
use redundancy_stats::parallel::{run_trials, TrialConfig};
use redundancy_stats::{DeterministicRng, SeedSequence};

/// Configuration of the live store beyond the campaign itself.
///
/// Only the *retry* half of the [`FaultModel`] applies here — `timeout`
/// and `max_retries` govern in-flight copies — because in a live session
/// the delivery hazards (drops, stragglers, corruption) are the clients'
/// behavior, not the store's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Number of shards (must be ≥ 1).  A per-shard-stream store spreads
    /// task state and RNG streams over them; a single-stream store only
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

/// The serve store: shard machines, each on its own RNG stream, and the
/// round-robin router that picks the machine a request is dealt from.
/// See the module docs for the two stream modes and their determinism
/// contracts.
#[derive(Debug)]
pub struct Store {
    machines: Vec<ShardStore>,
    /// The machine the next `request_work` scan starts from; always below
    /// `machines.len()`.
    router: usize,
    workload: Arc<Workload>,
    mode: StreamMode,
    /// The configured shard count.
    shards: usize,
}

impl Store {
    /// Build a store over `tasks` (contiguous ids, as [`expand_plan`]
    /// produces): groups them and calls [`from_groups`](Self::from_groups).
    pub fn new(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
        mode: StreamMode,
    ) -> Result<Self, String> {
        Self::from_groups(
            &grouped_specs(tasks).collect::<Vec<_>>(),
            config,
            serve,
            seed,
            mode,
        )
    }

    /// Build a store over the spec groups `groups` (contiguous ids, as
    /// [`plan_groups`](crate::task::plan_groups) produces) for one
    /// campaign, with the streams `mode` seeds from `seed`.  The work is
    /// O(groups + shards); the store's task limit is checked before
    /// anything per task is allocated.
    pub fn from_groups(
        groups: &[SpecGroup],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
        mode: StreamMode,
    ) -> Result<Self, String> {
        let streams = match mode {
            StreamMode::Single => vec![DeterministicRng::new(seed)],
            StreamMode::PerShard => {
                let seq = SeedSequence::new(seed);
                (0..serve.shards as u64)
                    .map(|s| DeterministicRng::new(seq.derive(s)))
                    .collect()
            }
        };
        Self::on_streams(groups, config, serve, mode, streams)
    }

    /// Build a store whose machine `s` draws from `streams[s]`: one
    /// machine over every task in single-stream mode, one per hash shard
    /// otherwise.
    fn on_streams(
        groups: &[SpecGroup],
        config: &CampaignConfig,
        serve: &ServeConfig,
        mode: StreamMode,
        streams: Vec<DeterministicRng>,
    ) -> Result<Self, String> {
        config.validate()?;
        serve.validate()?;
        let workload = Arc::new(Workload::new(groups, config)?);
        let of = streams.len();
        let machines = streams
            .into_iter()
            .enumerate()
            .map(|(index, rng)| {
                let owner = match mode {
                    StreamMode::Single => Owner::All,
                    StreamMode::PerShard => Owner::Shard { index, of },
                };
                // The session is one campaign; the counter lives on
                // machine 0 and surfaces through the merged outcome.
                let campaigns = u64::from(index == 0);
                ShardStore::new(Arc::clone(&workload), serve, owner, campaigns, rng)
            })
            .collect();
        Ok(Store {
            machines,
            router: 0,
            workload,
            mode,
            shards: serve.shards,
        })
    }

    /// Which stream mode this store runs under.
    pub fn mode(&self) -> StreamMode {
        self.mode
    }

    /// The configured shard count: the number of machines and RNG streams
    /// in per-shard mode, kept for the journal header and the reports in
    /// single-stream mode.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Each machine's own stats cell, scoped to the tasks it owns: one
    /// cell per shard in per-shard mode, the whole session in single-stream
    /// mode.  The first call counts each hash shard's ownership totals
    /// (see the module docs); later calls reuse them.
    pub fn per_shard_stats(&self) -> Vec<ServeStats> {
        self.machines.iter().map(ShardStore::stats).collect()
    }

    /// FNV-1a fold over every stream's RNG position (probed by drawing
    /// from a clone): one number that differs whenever any stream does.
    pub fn stream_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (s, rng) in self.final_rngs().iter_mut().enumerate() {
            fold(s as u64);
            fold(rng.next_raw());
            fold(rng.next_raw());
        }
        h
    }

    /// Records in every machine's in-flight queue, stale ones included.
    /// Stays within twice the copies in flight plus a small constant per
    /// machine, whatever the timeout.
    pub fn inflight_records(&self) -> usize {
        self.machines.iter().map(ShardStore::inflight_records).sum()
    }

    /// The per-shard oracle: drain machine 0 to completion, then machine
    /// 1, and so on, returning every copy as soon as it is issued — no
    /// interleaving across shards at all.  Any drained per-shard store on
    /// the same (tasks, config, serve, seed) must agree with this one on
    /// merged outcome, per-shard final RNGs, and stats.
    pub fn drain_shard_by_shard(&mut self) {
        for machine in &mut self.machines {
            loop {
                match machine.request_work() {
                    Issue::Work(a) => {
                        machine
                            .return_result(a.task, a.copy)
                            .expect("drain returned an issued copy");
                    }
                    Issue::Idle => unreachable!("immediate returns leave nothing in flight"),
                    Issue::Drained => break,
                }
            }
        }
    }

    /// Exhaustively re-derive every counter from the per-copy states and
    /// panic on any mismatch — conservation of multiplicity, per machine
    /// and across machines.  Used by the serve proptests after arbitrary
    /// interleavings; cheap enough to call inside test loops, never called
    /// on the hot path.
    pub fn check_invariants(&self) {
        let (mut owned, mut copies) = (0u64, 0u64);
        for machine in &self.machines {
            machine.check_invariants();
            let cell = machine.stats();
            owned += cell.total_tasks;
            copies += cell.total_copies;
        }
        assert_eq!(
            owned,
            self.workload.total_tasks(),
            "shard ownership does not tile"
        );
        assert_eq!(
            copies,
            self.workload.total_copies(),
            "shard copies do not tile"
        );
    }
}

impl WorkStore for Store {
    /// Advances the tick clock of the machines the scan reaches, expires
    /// their overdue in-flight copies (re-queueing or abandoning them per
    /// the retry policy), then serves re-queued copies first and freshly
    /// activated tasks after.  `Drained` is only answered when *every*
    /// machine reported drained in this scan, and drained-ness is monotone
    /// (a judged task never un-judges).
    fn request_work(&mut self) -> Issue {
        let n = self.machines.len();
        let start = self.router;
        self.router = if start + 1 == n { 0 } else { start + 1 };
        let mut any_idle = false;
        for s in (start..n).chain(0..start) {
            match self.machines[s].request_work() {
                Issue::Work(a) => return Issue::Work(a),
                Issue::Idle => any_idle = true,
                Issue::Drained => {}
            }
        }
        if any_idle {
            Issue::Idle
        } else {
            Issue::Drained
        }
    }

    /// Routes the return to the machine that owns the task, which judges
    /// the task when it was the last outstanding copy.
    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        let n = self.machines.len();
        let s = if n == 1 { 0 } else { shard_of(task.0, n) };
        self.machines[s].return_result(task, copy)
    }

    /// The workload's totals plus the field-wise sum of the machines'
    /// counters.  The machines' ownership totals tile the workload, so
    /// this equals summing the per-shard cells, without counting them.
    fn stats(&self) -> ServeStats {
        let mut total = ServeStats {
            total_tasks: self.workload.total_tasks(),
            total_copies: self.workload.total_copies(),
            ..ServeStats::default()
        };
        for machine in &self.machines {
            let cell = machine.counters();
            total.activated_tasks += cell.activated_tasks;
            total.completed_tasks += cell.completed_tasks;
            total.issued += cell.issued;
            total.returned += cell.returned;
            total.in_flight += cell.in_flight;
            total.requeued += cell.requeued;
            total.lost += cell.lost;
            total.timeouts += cell.timeouts;
            total.retries += cell.retries;
            total.cheats_attempted += cell.cheats_attempted;
            total.cheats_detected += cell.cheats_detected;
            total.wrong_accepted += cell.wrong_accepted;
            total.false_flags += cell.false_flags;
            total.unresolved_tasks += cell.unresolved_tasks;
        }
        total
    }

    /// The machines' partial outcomes folded together — bit-identical to
    /// the batch kernel's once a single-stream session is drained.
    fn merged_outcome(&self) -> CampaignOutcome {
        let (first, rest) = self
            .machines
            .split_first()
            .expect("a store has at least one machine");
        let mut out = first.outcome().clone();
        for machine in rest {
            out.merge(machine.outcome());
        }
        out
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        self.machines.iter().map(|m| m.rng().clone()).collect()
    }

    fn is_drained(&self) -> bool {
        self.machines.iter().all(ShardStore::is_drained)
    }

    /// A plain sum over the machines.
    fn expiry_counters(&self) -> (u64, u64) {
        self.machines.iter().fold((0, 0), |(t, l), m| {
            let (timeouts, lost) = m.expiry_counters();
            (t + timeouts, l + lost)
        })
    }

    /// Machine 0 first, then machine 1, and so on.  No timeout or retry
    /// is charged: the copies didn't expire, their clients died with a
    /// crashed session.  Both `issued` and the in-flight count are rolled
    /// back so re-issuing the re-queued copies lands the drained session
    /// in exactly the counters an uninterrupted drain reaches
    /// (conservation: `issued = returned + timeouts + in-flight` holds
    /// before and after).
    fn reset_in_flight(&mut self) -> u64 {
        self.machines
            .iter_mut()
            .map(ShardStore::reset_in_flight)
            .sum()
    }
}

/// Drain one session to completion, returning each copy as soon as it is
/// issued — the canonical single-client session the `ext_serve` oracle
/// compares against the batch kernel.  The store draws from (a copy of)
/// `rng`, whose final state is handed back; the merged outcome is folded
/// into `outcome`; the final [`ServeStats`] snapshot is returned.
pub fn drain_session(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    serve: &ServeConfig,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
) -> ServeStats {
    let mut store = Store::on_streams(
        &grouped_specs(tasks).collect::<Vec<_>>(),
        config,
        serve,
        StreamMode::Single,
        vec![rng.clone()],
    )
    .expect("invalid serve session");
    store.drain();
    outcome.merge(&store.merged_outcome());
    *rng = store.machines[0].rng().clone();
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

    const MODES: [StreamMode; 2] = [StreamMode::Single, StreamMode::PerShard];

    fn campaign() -> CampaignConfig {
        CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        )
    }

    fn specs(n: u64) -> Vec<TaskSpec> {
        expand_plan(&RealizedPlan::balanced(n, 0.5).unwrap())
    }

    /// A timeout no drain can trip.
    fn patient(shards: usize) -> ServeConfig {
        ServeConfig {
            faults: FaultModel {
                timeout: 1_000_000_000,
                ..FaultModel::none()
            },
            ..ServeConfig::new(shards)
        }
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
        let mut store = Store::new(&tasks, &campaign(), &serve, 7, StreamMode::Single).unwrap();
        let mut held: Vec<Assignment> = Vec::new();
        loop {
            match store.request_work() {
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
            &DrainState::of(&store),
        );
    }

    #[test]
    fn reset_in_flight_requeues_and_recovered_drain_matches_uninterrupted() {
        let tasks = specs(400);
        for (mode, shards) in [
            (StreamMode::Single, 3),
            (StreamMode::PerShard, 1),
            (StreamMode::PerShard, 3),
        ] {
            let serve = patient(shards);
            // Reference: one uninterrupted drain.
            let mut reference = Store::new(&tasks, &campaign(), &serve, 23, mode).unwrap();
            reference.drain();

            // Crash scenario: issue a prefix, return a third of it, then
            // lose the clients — reset and drain the rest.
            let mut store = Store::new(&tasks, &campaign(), &serve, 23, mode).unwrap();
            let mut outstanding = Vec::new();
            for i in 0..300 {
                let Issue::Work(a) = store.request_work() else {
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
            assert_eq!(reverted, outstanding.len() as u64, "{mode}");
            store.check_invariants();
            let after = store.stats();
            assert_eq!(after.in_flight, 0);
            assert_eq!(after.requeued, before.requeued + reverted);
            assert_eq!(after.issued, before.issued - reverted);
            // Stale returns of reverted copies are rejected, not
            // double-counted.
            let a = outstanding[0];
            assert_eq!(
                store.return_result(a.task, a.copy),
                Err(ServeError::NotInFlight {
                    task: a.task,
                    copy: a.copy
                })
            );
            // Finish the drain; the endpoint must match the uninterrupted
            // run.
            store.drain();
            store.check_invariants();
            assert_drain_equivalent(&DrainState::of(&reference), &DrainState::of(&store));
        }
    }

    #[test]
    fn returns_are_validated() {
        let tasks = specs(100);
        for mode in MODES {
            let mut store = Store::new(&tasks, &campaign(), &patient(2), 1, mode).unwrap();
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
            let Issue::Work(a) = store.request_work() else {
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
        for mode in MODES {
            let mut store = Store::new(&tasks, &campaign(), &serve, 5, mode).unwrap();
            // Never return anything: every copy must time out, retry once,
            // and eventually be abandoned; the store still drains (all
            // tasks judged as unresolved) with every copy accounted for.
            let mut guard = 0u64;
            loop {
                match store.request_work() {
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
            assert_eq!(store.expiry_counters(), (stats.timeouts, stats.lost));
            let out = store.merged_outcome();
            assert_eq!(out.unresolved_tasks, stats.total_tasks);
            assert_eq!(out.lost_assignments, stats.total_copies);
        }
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
        let mut store = Store::new(&tasks, &campaign(), &serve, 9, StreamMode::Single).unwrap();
        let Issue::Work(first) = store.request_work() else {
            panic!("fresh store must have work");
        };
        // The next request pushes the clock to the deadline; with no retry
        // budget the copy is abandoned, so its late return is stale.
        let _ = store.request_work();
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
        let mut store = Store::new(&tasks, &campaign(), &serve, 17, StreamMode::Single).unwrap();
        let mut dropped = 0u64;
        let mut n = 0u64;
        let mut guard = 0u64;
        loop {
            match store.request_work() {
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
        for mode in MODES {
            let mut store = Store::new(&[], &campaign(), &ServeConfig::new(4), 1, mode).unwrap();
            assert!(store.is_drained());
            assert_eq!(store.request_work(), Issue::Drained);
            assert_eq!(store.merged_outcome().campaigns, 1);
            assert_eq!(store.stats().total_tasks, 0);
        }
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let tasks = specs(10);
        let bad_faults = ServeConfig {
            faults: FaultModel {
                timeout: 0,
                ..FaultModel::none()
            },
            ..ServeConfig::new(1)
        };
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
        for mode in MODES {
            let store = |tasks: &[TaskSpec], serve: &ServeConfig| {
                Store::new(tasks, &campaign(), serve, 1, mode)
            };
            assert!(store(&tasks, &ServeConfig::new(0)).is_err());
            assert!(store(&tasks, &bad_faults).is_err());
            assert!(store(&gap, &ServeConfig::new(1)).is_err());
        }
    }
}
