//! The one shard state machine both serve stores run on, over a flat task
//! arena.
//!
//! A [`ShardStore`] owns a slice of the workload — every task for the
//! single-stream [`AssignmentStore`](super::AssignmentStore), the ids one
//! hash shard owns for the [`ConcurrentStore`](super::ConcurrentStore) —
//! and activates it lazily, in id order, as clients request work.  It
//! issues copies, tracks them in flight under tick-based timeouts (the
//! [`FaultModel`](crate::faults::FaultModel) retry policy), and judges a
//! task the moment its last copy returns or is abandoned.
//!
//! # Construction is O(groups)
//!
//! The [`Workload`] is built from the plan's spec groups
//! ([`plan_groups`](crate::task::plan_groups)), never from an expanded task
//! list, and a shard allocates nothing per task until it activates one.  A
//! hash shard's ownership totals (its stats cell's `total_tasks` and
//! `total_copies`, and with them `is_drained`) are counted the first time
//! they are asked for and cached: the walked prefix is already in the
//! arena, so only the ids the activation walk has not reached are hashed,
//! and a shard whose walk is done counts nothing at all.
//!
//! # Bit-identity with the batch kernel
//!
//! Activation consumes the RNG in exactly the order
//! [`run_campaign_with_scratch`](crate::engine::run_campaign_with_scratch)
//! does: one holdings draw per task through a bit-compat sampler plan,
//! then (only when `honest_error_rate > 0`) the honest copies' fault
//! draws.  Returns and judging consume no randomness, and every
//! [`CampaignOutcome`] counter is a commutative sum.
//!
//! # Layout
//!
//! Activated tasks live in flat vectors that only grow by `push`, so an
//! activation allocates nothing of its own:
//!
//! * `tasks` — one [`TaskSlot`] per activated task, indexed by its
//!   activation rank.  The store routes a return by looking that rank up
//!   (the single-stream store's rank is the task's index), never by
//!   searching.
//! * `copies` — one [`CopyState`] byte per copy, each task's copies
//!   contiguous from its `first_copy`.
//! * `values` — the value each copy returns, kept only when honest hosts
//!   err.  Otherwise a copy's value is a pure function of the task id and
//!   its `(held, cheats)` draw and is recomputed when the task is judged.
//!
//! The in-flight queue holds one record per issued copy in deadline order.
//! A return leaves its record stale; stale records are popped off the
//! front as soon as they reach it, and the queue is compacted whenever
//! stale records outnumber the copies in flight, so it never holds more
//! than twice the in-flight copies (plus [`INFLIGHT_SLACK`]).

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use super::store::{Assignment, Issue, ReturnAck, ServeConfig, ServeError, ServeStats};
use crate::adversary::AdversaryModel;
use crate::engine::{judge_task, CampaignConfig};
use crate::outcome::CampaignOutcome;
use crate::supervisor::Supervisor;
use crate::task::{
    colluded_wrong_result, correct_result, faulty_result, ResultValue, SpecGroup, TaskId, TaskSpec,
};
use redundancy_stats::{BinomialCache, DeterministicRng, HypergeometricCache};

/// Stale in-flight records tolerated beyond twice the live ones before
/// the queue is compacted.
pub(crate) const INFLIGHT_SLACK: usize = 64;

/// The shard that owns task `id` among `shards`: FNV-1a over the id's
/// little-endian bytes, modulo the shard count (a mask when the count is a
/// power of two, which spares a division per task).
pub(crate) fn shard_of(id: u64, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let n = shards as u64;
    (if n.is_power_of_two() {
        h & (n - 1)
    } else {
        h % n
    }) as usize
}

/// Which tasks of the workload a shard owns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Owner {
    /// Every task (the single-stream store).
    All,
    /// The ids [`shard_of`] maps to `index` among `of` shards.
    Shard {
        /// This shard's index.
        index: usize,
        /// The shard count.
        of: usize,
    },
}

impl Owner {
    fn owns(self, id: u64) -> bool {
        match self {
            Owner::All => true,
            Owner::Shard { index, of } => shard_of(id, of) == index,
        }
    }
}

/// Which prepared plan draws a spec group's holdings.
#[derive(Debug, Clone, Copy)]
enum HoldingsPlan {
    Binomial(usize),
    Hypergeometric(usize),
}

/// One spec group with its holdings plan resolved once.
#[derive(Debug, Clone, Copy)]
struct GroupPlan {
    group: SpecGroup,
    /// One past the group's last workload index.
    end: u64,
    plan: HoldingsPlan,
}

/// The immutable description of one store's workload, shared by all of
/// its shards: the spec groups in id order with their sampler plans, and
/// the campaign they run.
#[derive(Debug)]
pub(crate) struct Workload {
    config: CampaignConfig,
    supervisor: Supervisor,
    groups: Vec<GroupPlan>,
    binomial: BinomialCache,
    hypergeometric: HypergeometricCache,
    base_id: u64,
    total_tasks: u64,
    total_copies: u64,
}

impl Workload {
    /// Check `groups` (contiguous ids, as
    /// [`plan_groups`](crate::task::plan_groups) produces) against the
    /// store's limits and prepare each group's holdings plan, in O(groups).
    pub(crate) fn new(groups: &[SpecGroup], config: &CampaignConfig) -> Result<Self, String> {
        let mut binomial = BinomialCache::default();
        let mut hypergeometric = HypergeometricCache::default();
        let mut plans = Vec::with_capacity(groups.len());
        let base_id = groups.first().map_or(0, |g| g.first_id.0);
        let mut expected = base_id;
        let mut total_copies = 0u64;
        for &group in groups {
            if group.multiplicity == 0 {
                return Err(format!("task {} has multiplicity 0", group.first_id.0));
            }
            if group.first_id.0 != expected {
                return Err(format!(
                    "task ids must be contiguous: expected {expected}, found {}",
                    group.first_id.0
                ));
            }
            expected += group.count;
            total_copies += group.count * u64::from(group.multiplicity);
            // The same parameter sets `engine::prepare_holdings` resolves
            // in bit-compat mode: the live store promises bit-identity
            // with the batch kernel.
            let mult = u64::from(group.multiplicity);
            let plan = match config.adversary {
                AdversaryModel::AssignmentFraction { p } => {
                    HoldingsPlan::Binomial(binomial.prepare(mult, p))
                }
                AdversaryModel::SybilAccounts { total, adversary } => HoldingsPlan::Hypergeometric(
                    hypergeometric.prepare(total as u64, adversary as u64, mult.min(total as u64)),
                ),
            };
            plans.push(GroupPlan {
                group,
                end: expected - base_id,
                plan,
            });
        }
        let total_tasks = expected - base_id;
        if total_tasks > u64::from(u32::MAX) {
            return Err(format!(
                "{total_tasks} tasks exceed the store's limit of {}",
                u32::MAX
            ));
        }
        Ok(Workload {
            config: *config,
            supervisor: Supervisor::new(config.policy),
            groups: plans,
            binomial,
            hypergeometric,
            base_id,
            total_tasks,
            total_copies,
        })
    }

    /// Tasks in the workload.
    pub(crate) fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    /// Copies in the workload (sum of multiplicities).
    pub(crate) fn total_copies(&self) -> u64 {
        self.total_copies
    }

    /// The workload index of `task`, or `None` if it is not in the
    /// workload.
    pub(crate) fn index_of(&self, task: TaskId) -> Option<usize> {
        task.0
            .checked_sub(self.base_id)
            .filter(|&i| i < self.total_tasks)
            .map(|i| i as usize)
    }
}

/// State of one copy of one activated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum CopyState {
    /// Not currently issued: never dealt, or re-queued.
    Pending,
    /// Handed to a client; its in-flight record carries the attempt.
    InFlight,
    /// Returned and accepted.
    Returned,
    /// Abandoned after exhausting the retry budget.
    Lost,
}

/// One activated task.
#[derive(Debug, Clone, Copy)]
struct TaskSlot {
    id: u64,
    /// Index of copy 0 in the shard's `copies` (and `values`) arena.
    first_copy: u64,
    mult: u32,
    held: u32,
    /// Copies neither returned nor abandoned; the task is judged when
    /// this reaches zero.
    open: u32,
    cheats: bool,
    precomputed: bool,
}

/// An in-flight record awaiting return or expiry.  Deadlines are
/// nondecreasing in issue order (the timeout is constant), so the front of
/// the queue always expires first.
#[derive(Debug, Clone, Copy)]
struct InFlightRec {
    slot: u32,
    copy: u32,
    attempt: u32,
    deadline: u64,
}

/// One shard's live state.  See the module docs.
#[derive(Debug)]
pub(crate) struct ShardStore {
    workload: Arc<Workload>,
    timeout: u64,
    max_retries: u32,
    errorful: bool,
    owner: Owner,
    /// `(tasks, copies)` a hash shard owns, counted on first use (see
    /// the module docs).
    owned: OnceLock<(u64, u64)>,
    /// The activation walk: the next workload index to consider, and the
    /// group it falls in.
    cursor: u64,
    group: usize,
    /// The task being dealt: (slot, next copy).
    active: Option<(u32, u32)>,
    tasks: Vec<TaskSlot>,
    copies: Vec<CopyState>,
    values: Vec<ResultValue>,
    /// The timeout free-list: (slot, copy, attempt).
    requeue: VecDeque<(u32, u32, u32)>,
    inflight: VecDeque<InFlightRec>,
    now: u64,
    issued: u64,
    returned: u64,
    in_flight: u64,
    lost: u64,
    completed: u64,
    outcome: CampaignOutcome,
    /// Judging scratch: the returned copies' values.
    results: Vec<ResultValue>,
}

impl ShardStore {
    /// A shard over the tasks `owner` owns.  Its outcome starts at
    /// `campaigns` campaigns: a store counts its one campaign on exactly
    /// one shard.
    pub(crate) fn new(
        workload: Arc<Workload>,
        serve: &ServeConfig,
        owner: Owner,
        campaigns: u64,
    ) -> Self {
        ShardStore {
            timeout: serve.faults.timeout,
            max_retries: serve.faults.max_retries,
            errorful: workload.config.honest_error_rate > 0.0,
            workload,
            owner,
            owned: OnceLock::new(),
            cursor: 0,
            group: 0,
            active: None,
            tasks: Vec::new(),
            copies: Vec::new(),
            values: Vec::new(),
            requeue: VecDeque::new(),
            inflight: VecDeque::new(),
            now: 0,
            issued: 0,
            returned: 0,
            in_flight: 0,
            lost: 0,
            completed: 0,
            outcome: CampaignOutcome {
                campaigns,
                ..CampaignOutcome::default()
            },
            results: Vec::new(),
        }
    }

    /// True once every task this shard owns has been judged.
    pub(crate) fn is_drained(&self) -> bool {
        self.completed == self.owned().0
    }

    /// `(tasks, copies)` this shard owns: the workload's totals for the
    /// single-stream store, counted once and cached for a hash shard.
    fn owned(&self) -> (u64, u64) {
        let w = &*self.workload;
        match self.owner {
            Owner::All => (w.total_tasks, w.total_copies),
            Owner::Shard { .. } => *self.owned.get_or_init(|| {
                // The walk has activated exactly the owned ids below the
                // cursor; hash only the ids it has not reached.
                let mut owned = (self.tasks.len() as u64, self.copies.len() as u64);
                for g in &w.groups {
                    let start = (g.end - g.group.count).max(self.cursor);
                    for index in start..g.end {
                        if self.owner.owns(w.base_id + index) {
                            owned.0 += 1;
                            owned.1 += u64::from(g.group.multiplicity);
                        }
                    }
                }
                owned
            }),
        }
    }

    /// The workload this shard walks.
    pub(crate) fn workload(&self) -> &Workload {
        &self.workload
    }

    /// This shard's partial outcome.
    pub(crate) fn outcome(&self) -> &CampaignOutcome {
        &self.outcome
    }

    /// Running `(timeouts, lost)` totals.
    pub(crate) fn expiry_counters(&self) -> (u64, u64) {
        (self.outcome.timeouts, self.lost)
    }

    /// How many tasks this shard has activated.
    pub(crate) fn activated(&self) -> usize {
        self.tasks.len()
    }

    /// The id of the task activated `rank`-th.
    pub(crate) fn activated_id(&self, rank: usize) -> u64 {
        self.tasks[rank].id
    }

    /// Records in the in-flight queue, stale ones included.
    pub(crate) fn inflight_records(&self) -> usize {
        self.inflight.len()
    }

    /// Hand out the next copy of work: advance the tick clock, expire
    /// overdue copies, then serve re-queued copies first and freshly
    /// activated tasks after.
    pub(crate) fn request_work(&mut self, rng: &mut DeterministicRng) -> Issue {
        self.now += 1;
        self.expire_overdue();
        if let Some((slot, copy, attempt)) = self.requeue.pop_front() {
            return Issue::Work(self.issue(slot, copy, attempt));
        }
        if self.active.is_none() {
            self.activate_next(rng);
        }
        if let Some((slot, copy)) = self.active {
            let mult = self.tasks[slot as usize].mult;
            self.active = (copy + 1 < mult).then_some((slot, copy + 1));
            return Issue::Work(self.issue(slot, copy, 0));
        }
        if self.in_flight > 0 {
            Issue::Idle
        } else {
            debug_assert!(self.is_drained(), "no work, none in flight, not drained");
            Issue::Drained
        }
    }

    /// Accept the return of copy `copy` of `task`, whose activation rank
    /// in this shard is `slot`; judges the task when it was the last
    /// outstanding copy.
    pub(crate) fn return_result(
        &mut self,
        slot: usize,
        task: TaskId,
        copy: u32,
    ) -> Result<ReturnAck, ServeError> {
        let Some(t) = self.tasks.get_mut(slot) else {
            // Owned here but never activated: nothing issued yet.
            return Err(ServeError::NotInFlight { task, copy });
        };
        debug_assert_eq!(t.id, task.0, "return routed to the wrong slot");
        if copy >= t.mult {
            return Err(ServeError::CopyOutOfRange {
                task,
                copy,
                multiplicity: t.mult,
            });
        }
        let state = &mut self.copies[(t.first_copy + u64::from(copy)) as usize];
        if *state != CopyState::InFlight {
            return Err(ServeError::NotInFlight { task, copy });
        }
        *state = CopyState::Returned;
        t.open -= 1;
        let complete = t.open == 0;
        self.returned += 1;
        self.in_flight -= 1;
        if complete {
            self.judge(slot);
        }
        self.trim_inflight();
        Ok(ReturnAck {
            task_complete: complete,
        })
    }

    /// This shard's stats cell, scoped to the slice of the workload it
    /// owns.
    pub(crate) fn stats(&self) -> ServeStats {
        let (total_tasks, total_copies) = self.owned();
        ServeStats {
            total_tasks,
            total_copies,
            ..self.counters()
        }
    }

    /// This shard's stats cell without its ownership totals (left at
    /// zero), which cost nothing to read.
    pub(crate) fn counters(&self) -> ServeStats {
        ServeStats {
            total_tasks: 0,
            activated_tasks: self.tasks.len() as u64,
            completed_tasks: self.completed,
            total_copies: 0,
            issued: self.issued,
            returned: self.returned,
            in_flight: self.in_flight,
            requeued: self.requeue.len() as u64,
            lost: self.lost,
            timeouts: self.outcome.timeouts,
            retries: self.outcome.retries,
            cheats_attempted: self.outcome.total_attempted(),
            cheats_detected: self.outcome.total_detected(),
            wrong_accepted: self.outcome.wrong_accepted,
            false_flags: self.outcome.false_flags,
            unresolved_tasks: self.outcome.unresolved_tasks,
        }
    }

    /// Revert every in-flight copy to pending and re-queue it under its
    /// current attempt number, returning how many copies were reverted.
    /// No timeout or retry is charged, and both `issued` and the in-flight
    /// count roll back, so `issued = returned + timeouts + in-flight`
    /// holds before and after.
    pub(crate) fn reset_in_flight(&mut self) -> u64 {
        let mut reverted = 0u64;
        while let Some(rec) = self.inflight.pop_front() {
            let ix = self.copy_index(rec.slot, rec.copy);
            if self.copies[ix] != CopyState::InFlight {
                continue;
            }
            self.copies[ix] = CopyState::Pending;
            self.requeue.push_back((rec.slot, rec.copy, rec.attempt));
            reverted += 1;
        }
        self.in_flight -= reverted;
        self.issued -= reverted;
        reverted
    }

    fn copy_index(&self, slot: u32, copy: u32) -> usize {
        (self.tasks[slot as usize].first_copy + u64::from(copy)) as usize
    }

    /// Draw holdings and materialize the next owned task, making it the
    /// active dispatch target.  Returns false when every owned task is
    /// activated.
    fn activate_next(&mut self, rng: &mut DeterministicRng) -> bool {
        let rank = self.tasks.len();
        let w = &*self.workload;
        let index = loop {
            if self.cursor >= w.total_tasks {
                return false;
            }
            self.cursor += 1;
            if self.owner.owns(w.base_id + self.cursor - 1) {
                break self.cursor - 1;
            }
        };
        while index >= w.groups[self.group].end {
            self.group += 1;
        }
        let GroupPlan { group, plan, .. } = w.groups[self.group];
        let id = TaskId(w.base_id + index);
        let held = match plan {
            HoldingsPlan::Binomial(p) => w.binomial.sample_prepared(p, rng),
            HoldingsPlan::Hypergeometric(p) => w.hypergeometric.sample_prepared(p, rng),
        } as u32;
        let cheats = w.config.strategy.cheats_on(held);
        let mult = group.multiplicity;
        if self.errorful {
            // The batch kernel's order: adversary copies first, then each
            // honest copy's fault draw.
            let wrong = colluded_wrong_result(id);
            let right = correct_result(id);
            let adversary = if cheats { wrong } else { right };
            self.values
                .extend(std::iter::repeat_n(adversary, held as usize));
            for j in u64::from(held)..u64::from(mult) {
                let faulty = rng.bernoulli(w.config.honest_error_rate);
                self.values.push(if faulty {
                    faulty_result(id, j ^ rng.next_raw())
                } else {
                    right
                });
            }
        }
        self.outcome.tasks += 1;
        self.outcome.assignments += u64::from(mult);
        self.outcome.holdings.record(held as usize);
        self.tasks.push(TaskSlot {
            id: id.0,
            first_copy: self.copies.len() as u64,
            mult,
            held,
            open: mult,
            cheats,
            precomputed: group.precomputed,
        });
        self.copies
            .resize(self.copies.len() + mult as usize, CopyState::Pending);
        self.active = Some((rank as u32, 0));
        true
    }

    /// Mark one copy in flight and register its deadline.
    fn issue(&mut self, slot: u32, copy: u32, attempt: u32) -> Assignment {
        let t = self.tasks[slot as usize];
        let state = &mut self.copies[(t.first_copy + u64::from(copy)) as usize];
        debug_assert_eq!(*state, CopyState::Pending);
        *state = CopyState::InFlight;
        self.inflight.push_back(InFlightRec {
            slot,
            copy,
            attempt,
            deadline: self.now.saturating_add(self.timeout),
        });
        self.issued += 1;
        self.in_flight += 1;
        Assignment {
            task: TaskId(t.id),
            copy,
            multiplicity: t.mult,
        }
    }

    /// Expire overdue in-flight copies: re-queue within the retry budget,
    /// abandon beyond it.  Stale records are skipped.
    fn expire_overdue(&mut self) {
        while let Some(rec) = self.inflight.front().copied() {
            if rec.deadline > self.now {
                break;
            }
            self.inflight.pop_front();
            let ix = self.copy_index(rec.slot, rec.copy);
            if self.copies[ix] != CopyState::InFlight {
                continue;
            }
            self.in_flight -= 1;
            self.outcome.timeouts += 1;
            if rec.attempt >= self.max_retries {
                self.copies[ix] = CopyState::Lost;
                self.lost += 1;
                self.outcome.lost_assignments += 1;
                let t = &mut self.tasks[rec.slot as usize];
                t.open -= 1;
                if t.open == 0 {
                    self.judge(rec.slot as usize);
                }
            } else {
                self.outcome.retries += 1;
                self.copies[ix] = CopyState::Pending;
                self.requeue
                    .push_back((rec.slot, rec.copy, rec.attempt + 1));
            }
        }
    }

    /// Drop in-flight records whose copy has returned: off the front as
    /// they reach it, and by compaction once stale records outnumber the
    /// live ones by more than the slack (a long-held copy at the front
    /// would otherwise pin every record behind it).  Order is kept, so
    /// expiry is unaffected.
    fn trim_inflight(&mut self) {
        let (tasks, copies) = (&self.tasks, &self.copies);
        let live = |r: &InFlightRec| {
            copies[(tasks[r.slot as usize].first_copy + u64::from(r.copy)) as usize]
                == CopyState::InFlight
        };
        while self.inflight.front().is_some_and(|r| !live(r)) {
            self.inflight.pop_front();
        }
        if self.inflight.len() > 2 * self.in_flight as usize + INFLIGHT_SLACK {
            self.inflight.retain(live);
        }
    }

    /// Judge a task whose copies have all returned or been abandoned,
    /// folding the verdict into this shard's outcome — the same tail as
    /// the batch kernels.
    fn judge(&mut self, slot: usize) {
        self.completed += 1;
        let t = self.tasks[slot];
        let id = TaskId(t.id);
        let right = correct_result(id);
        let wrong = colluded_wrong_result(id);
        let first = t.first_copy as usize;
        self.results.clear();
        for j in 0..t.mult as usize {
            if self.copies[first + j] != CopyState::Returned {
                continue;
            }
            self.results.push(if self.errorful {
                self.values[first + j]
            } else if t.cheats && (j as u32) < t.held {
                wrong
            } else {
                right
            });
        }
        let mult = u64::from(t.mult);
        let returned = self.results.len() as u64;
        if returned < mult {
            self.outcome.degraded.record((mult - returned) as usize);
        }
        if returned == 0 {
            self.outcome.unresolved_tasks += 1;
        } else {
            let spec = TaskSpec {
                id,
                multiplicity: t.mult,
                precomputed: t.precomputed,
            };
            judge_task(
                &self.workload.supervisor,
                &spec,
                &self.results,
                t.held,
                t.cheats,
                wrong,
                &mut self.outcome,
            );
        }
    }

    /// Exhaustively re-derive every counter from the per-copy states and
    /// panic on any mismatch — conservation of multiplicity.  Never on
    /// the hot path.
    pub(crate) fn check_invariants(&self) {
        let w = &*self.workload;
        let mut in_flight = 0u64;
        let mut returned = 0u64;
        let mut lost = 0u64;
        let mut completed = 0u64;
        let mut next_copy = 0u64;
        // The activated tasks are exactly the owned ids the walk passed,
        // in id order.
        let mut walked = (0..self.cursor)
            .map(|i| w.base_id + i)
            .filter(|&id| self.owner.owns(id));
        for (rank, t) in self.tasks.iter().enumerate() {
            assert_eq!(
                Some(t.id),
                walked.next(),
                "slot {rank} holds the wrong task"
            );
            assert_eq!(t.first_copy, next_copy, "copy arena not contiguous");
            next_copy += u64::from(t.mult);
            let mut counts = [0u32; 4];
            for c in &self.copies[t.first_copy as usize..next_copy as usize] {
                counts[*c as usize] += 1;
            }
            assert_eq!(
                t.open,
                counts[CopyState::Pending as usize] + counts[CopyState::InFlight as usize],
                "open copies of task {} drifted",
                t.id
            );
            in_flight += u64::from(counts[CopyState::InFlight as usize]);
            returned += u64::from(counts[CopyState::Returned as usize]);
            lost += u64::from(counts[CopyState::Lost as usize]);
            completed += u64::from(t.open == 0);
        }
        assert_eq!(walked.next(), None, "an owned task was skipped");
        assert_eq!(next_copy, self.copies.len() as u64, "copy arena overruns");
        let values = if self.errorful { self.copies.len() } else { 0 };
        assert_eq!(self.values.len(), values, "value arena drifted");
        assert_eq!(in_flight, self.in_flight, "in-flight count drifted");
        assert_eq!(returned, self.returned, "returned count drifted");
        assert_eq!(lost, self.lost, "lost count drifted");
        assert_eq!(completed, self.completed, "completion count drifted");
        // Every re-queued copy is Pending, and no copy is queued twice.
        let mut seen = std::collections::HashSet::new();
        for &(slot, copy, _) in &self.requeue {
            assert!(seen.insert((slot, copy)), "copy re-queued twice");
            assert_eq!(
                self.copies[self.copy_index(slot, copy)],
                CopyState::Pending,
                "re-queued copy not pending"
            );
        }
        // Every copy in flight has exactly one record, and stale records
        // stay within the compaction bound.
        let mut live = std::collections::HashSet::new();
        for r in &self.inflight {
            if self.copies[self.copy_index(r.slot, r.copy)] == CopyState::InFlight {
                assert!(live.insert((r.slot, r.copy)), "copy in flight twice");
            }
        }
        assert_eq!(
            live.len() as u64,
            self.in_flight,
            "in-flight copy untracked"
        );
        assert!(
            self.inflight.len() <= 2 * self.in_flight as usize + INFLIGHT_SLACK,
            "in-flight queue holds {} records for {} copies",
            self.inflight.len(),
            self.in_flight
        );
        // Every issue is accounted for: it returned, timed out, or is
        // still in flight.
        assert_eq!(
            self.issued,
            self.returned + self.outcome.timeouts + self.in_flight,
            "issues leaked"
        );
    }
}
