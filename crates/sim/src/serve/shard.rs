//! The shard state machine the serve [`Store`](super::Store) runs, over a
//! window of the tasks in flight.
//!
//! A [`ShardStore`] owns a slice of the workload — every task in
//! single-stream mode, the ids one hash shard owns in per-shard mode — and
//! its own RNG stream, and activates its slice lazily, in id order, as
//! clients request work.  It issues copies, tracks them in flight under
//! tick-based timeouts (the [`FaultModel`](crate::faults::FaultModel)
//! retry policy), and judges a task the moment its last copy returns or is
//! abandoned.
//!
//! # Construction is O(groups)
//!
//! The [`Workload`] is built from the plan's spec groups
//! ([`plan_groups`](crate::task::plan_groups)), never from an expanded task
//! list, and a shard allocates nothing per task until it activates one.  A
//! hash shard's ownership totals (its stats cell's `total_tasks` and
//! `total_copies`, and with them `is_drained`) are counted the first time
//! they are asked for and cached: the walked prefix is already counted
//! (retired plus live tasks), so only the ids the activation walk has not
//! reached are hashed, and a shard whose walk is done counts nothing at
//! all.
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
//! A shard holds only a *live window*: the activated tasks from the oldest
//! unjudged one up to the activation cursor.  Once judged, a task's verdict
//! is folded into the outcome and nothing else about it is needed, so
//! after every judgement the judged tasks at the window's front retire,
//! together with their copies.  Memory then follows the tasks in flight,
//! not the number of tasks served.  The window is three rings that grow at
//! the back and retire at the front, so an activation allocates nothing of
//! its own once their capacity covers the tasks in flight:
//!
//! * `tasks` — one [`TaskSlot`] per live task, in activation order; the
//!   first one's activation rank is `retired`.
//! * `copies` — one [`CopyState`] byte per live copy, each task's copies
//!   contiguous from its `first_copy` (an arena index; the ring starts at
//!   `retired_copies`).
//! * `values` — the value each copy returns, kept only when honest hosts
//!   err.  Otherwise a copy's value is a pure function of the task id and
//!   its `(held, cheats)` draw and is recomputed when the task is judged.
//!
//! A return is routed by task id.  An id past the activation cursor was
//! never issued.  Otherwise the single-stream store's rank is the task's
//! index, and a hash shard searches its window by id (ids rise with rank),
//! galloping out from the front, where returns mostly land.  An id below
//! the window belongs to a retired task: every copy of it returned or was
//! abandoned, so the reply needs only the task's multiplicity, which its
//! spec group gives.
//!
//! The in-flight queue holds one record per issued copy in deadline order,
//! naming its task by activation rank; a rank below `retired` is a stale
//! record (a task with a copy in flight or re-queued is open, so it never
//! retires).  A return leaves its record stale; stale records are popped
//! off the front as soon as they reach it, and the queue is compacted
//! whenever stale records outnumber the copies in flight, so it never
//! holds more than twice the in-flight copies (plus [`INFLIGHT_SLACK`]).
//! A copy held past every other keeps its task, and so the window, pinned
//! until it returns or times out.

use std::cell::OnceCell;
use std::collections::VecDeque;
use std::sync::Arc;

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
    fn index_of(&self, task: TaskId) -> Option<u64> {
        task.0
            .checked_sub(self.base_id)
            .filter(|&i| i < self.total_tasks)
    }

    /// The multiplicity of the task at workload index `index`.
    fn multiplicity(&self, index: u64) -> u32 {
        self.groups[self.groups.partition_point(|g| g.end <= index)]
            .group
            .multiplicity
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
    /// Arena index of copy 0 in the shard's `copies` (and `values`).
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
    /// The task's activation rank.
    rank: u32,
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
    owned: OnceCell<(u64, u64)>,
    /// The stream every activation draws from.
    rng: DeterministicRng,
    /// The activation walk: the next workload index to consider, and the
    /// group it falls in.
    cursor: u64,
    group: usize,
    /// The task being dealt: (rank, next copy).
    active: Option<(u32, u32)>,
    /// The live window (see the module docs).
    tasks: VecDeque<TaskSlot>,
    copies: VecDeque<CopyState>,
    values: VecDeque<ResultValue>,
    /// Tasks retired off the window's front: the first live task's rank.
    retired: u64,
    /// Their copies: the arena index of the first live copy.
    retired_copies: u64,
    /// Of those, the copies abandoned rather than returned.
    retired_lost: u64,
    /// The timeout free-list: (rank, copy, attempt).
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
    /// A shard over the tasks `owner` owns, drawing from `rng`.  Its
    /// outcome starts at `campaigns` campaigns: a store counts its one
    /// campaign on exactly one shard.
    pub(crate) fn new(
        workload: Arc<Workload>,
        serve: &ServeConfig,
        owner: Owner,
        campaigns: u64,
        rng: DeterministicRng,
    ) -> Self {
        ShardStore {
            timeout: serve.faults.timeout,
            max_retries: serve.faults.max_retries,
            errorful: workload.config.honest_error_rate > 0.0,
            workload,
            owner,
            owned: OnceCell::new(),
            rng,
            cursor: 0,
            group: 0,
            active: None,
            tasks: VecDeque::new(),
            copies: VecDeque::new(),
            values: VecDeque::new(),
            retired: 0,
            retired_copies: 0,
            retired_lost: 0,
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
                let mut owned = self.activated();
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

    /// `(tasks, copies)` this shard has activated: the retired ones plus
    /// the window.
    fn activated(&self) -> (u64, u64) {
        (
            self.retired + self.tasks.len() as u64,
            self.retired_copies + self.copies.len() as u64,
        )
    }

    /// This shard's partial outcome.
    pub(crate) fn outcome(&self) -> &CampaignOutcome {
        &self.outcome
    }

    /// This shard's RNG stream, as far as it has been drawn.
    pub(crate) fn rng(&self) -> &DeterministicRng {
        &self.rng
    }

    /// Running `(timeouts, lost)` totals.
    pub(crate) fn expiry_counters(&self) -> (u64, u64) {
        (self.outcome.timeouts, self.lost)
    }

    /// Records in the in-flight queue, stale ones included.
    pub(crate) fn inflight_records(&self) -> usize {
        self.inflight.len()
    }

    /// Hand out the next copy of work: advance the tick clock, expire
    /// overdue copies, then serve re-queued copies first and freshly
    /// activated tasks after.
    pub(crate) fn request_work(&mut self) -> Issue {
        self.now += 1;
        self.expire_overdue();
        if let Some((rank, copy, attempt)) = self.requeue.pop_front() {
            return Issue::Work(self.issue(rank, copy, attempt));
        }
        if self.active.is_none() {
            self.activate_next();
        }
        if let Some((rank, copy)) = self.active {
            let mult = self.tasks[self.slot(rank)].mult;
            self.active = (copy + 1 < mult).then_some((rank, copy + 1));
            return Issue::Work(self.issue(rank, copy, 0));
        }
        if self.in_flight > 0 {
            Issue::Idle
        } else {
            debug_assert!(self.is_drained(), "no work, none in flight, not drained");
            Issue::Drained
        }
    }

    /// Accept the return of copy `copy` of `task`, which this shard owns
    /// if it is in the workload; judges the task when it was the last
    /// outstanding copy.  See the module docs for how the task is found.
    pub(crate) fn return_result(
        &mut self,
        task: TaskId,
        copy: u32,
    ) -> Result<ReturnAck, ServeError> {
        let w = &*self.workload;
        let index = w.index_of(task).ok_or(ServeError::UnknownTask(task))?;
        if index >= self.cursor {
            // Never activated: nothing issued yet.
            return Err(ServeError::NotInFlight { task, copy });
        }
        debug_assert!(self.owner.owns(task.0), "return routed to the wrong shard");
        let live = match self.owner {
            Owner::All => index.checked_sub(self.retired).map(|slot| slot as usize),
            Owner::Shard { .. } => self.search(task.0),
        };
        let Some(slot) = live else {
            // Retired: every copy returned or was abandoned.
            let multiplicity = w.multiplicity(index);
            return Err(if copy >= multiplicity {
                ServeError::CopyOutOfRange {
                    task,
                    copy,
                    multiplicity,
                }
            } else {
                ServeError::NotInFlight { task, copy }
            });
        };
        let t = &mut self.tasks[slot];
        if copy >= t.mult {
            return Err(ServeError::CopyOutOfRange {
                task,
                copy,
                multiplicity: t.mult,
            });
        }
        let state =
            &mut self.copies[(t.first_copy - self.retired_copies + u64::from(copy)) as usize];
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
            activated_tasks: self.activated().0,
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
            let Some(ix) = self.live_copy(rec.rank, rec.copy) else {
                continue;
            };
            if self.copies[ix] != CopyState::InFlight {
                continue;
            }
            self.copies[ix] = CopyState::Pending;
            self.requeue.push_back((rec.rank, rec.copy, rec.attempt));
            reverted += 1;
        }
        self.in_flight -= reverted;
        self.issued -= reverted;
        reverted
    }

    /// The window position of live task `id` in a hash shard, whose
    /// window holds its ids in rising order.  Returns mostly reach the
    /// oldest tasks, so the search gallops out from the window's front,
    /// then bisects: O(log d) probes for the task d places in.
    fn search(&self, id: u64) -> Option<usize> {
        let tasks = &self.tasks;
        let (mut lo, mut hi) = (0, 1);
        while hi < tasks.len() && tasks[hi].id <= id {
            lo = hi;
            hi = 2 * hi + 1;
        }
        let mut hi = hi.min(tasks.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if tasks[mid].id < id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < tasks.len() && tasks[lo].id == id).then_some(lo)
    }

    /// The window position of the live task activated `rank`-th.
    fn slot(&self, rank: u32) -> usize {
        (u64::from(rank) - self.retired) as usize
    }

    /// The ring position of copy `copy` of the task activated `rank`-th,
    /// or `None` once that task has retired.
    fn live_copy(&self, rank: u32, copy: u32) -> Option<usize> {
        let slot = u64::from(rank).checked_sub(self.retired)?;
        let first = self.tasks[slot as usize].first_copy - self.retired_copies;
        Some((first + u64::from(copy)) as usize)
    }

    /// Draw holdings and materialize the next owned task, making it the
    /// active dispatch target.  Returns false when every owned task is
    /// activated.
    fn activate_next(&mut self) -> bool {
        let (rank, first_copy) = self.activated();
        let w = &*self.workload;
        let rng = &mut self.rng;
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
                self.values.push_back(if faulty {
                    faulty_result(id, j ^ rng.next_raw())
                } else {
                    right
                });
            }
        }
        self.outcome.tasks += 1;
        self.outcome.assignments += u64::from(mult);
        self.outcome.holdings.record(held as usize);
        self.tasks.push_back(TaskSlot {
            id: id.0,
            first_copy,
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

    /// Mark one copy of a live task in flight and register its deadline.
    fn issue(&mut self, rank: u32, copy: u32, attempt: u32) -> Assignment {
        let t = self.tasks[self.slot(rank)];
        let state =
            &mut self.copies[(t.first_copy - self.retired_copies + u64::from(copy)) as usize];
        debug_assert_eq!(*state, CopyState::Pending);
        *state = CopyState::InFlight;
        self.inflight.push_back(InFlightRec {
            rank,
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
            let Some(ix) = self.live_copy(rec.rank, rec.copy) else {
                continue;
            };
            if self.copies[ix] != CopyState::InFlight {
                continue;
            }
            self.in_flight -= 1;
            self.outcome.timeouts += 1;
            if rec.attempt >= self.max_retries {
                self.copies[ix] = CopyState::Lost;
                self.lost += 1;
                self.outcome.lost_assignments += 1;
                let slot = self.slot(rec.rank);
                let t = &mut self.tasks[slot];
                t.open -= 1;
                if t.open == 0 {
                    self.judge(slot);
                }
            } else {
                self.outcome.retries += 1;
                self.copies[ix] = CopyState::Pending;
                self.requeue
                    .push_back((rec.rank, rec.copy, rec.attempt + 1));
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
        let (retired, retired_copies) = (self.retired, self.retired_copies);
        let live = |r: &InFlightRec| {
            u64::from(r.rank).checked_sub(retired).is_some_and(|slot| {
                let first = tasks[slot as usize].first_copy - retired_copies;
                copies[(first + u64::from(r.copy)) as usize] == CopyState::InFlight
            })
        };
        while self.inflight.front().is_some_and(|r| !live(r)) {
            self.inflight.pop_front();
        }
        if self.inflight.len() > 2 * self.in_flight as usize + INFLIGHT_SLACK {
            self.inflight.retain(live);
        }
    }

    /// Judge the task at window position `slot`, whose copies have all
    /// returned or been abandoned, folding the verdict into this shard's
    /// outcome — the same tail as the batch kernels — then retire the
    /// judged tasks at the window's front.
    fn judge(&mut self, slot: usize) {
        self.completed += 1;
        let t = self.tasks[slot];
        let id = TaskId(t.id);
        let right = correct_result(id);
        let wrong = colluded_wrong_result(id);
        let first = (t.first_copy - self.retired_copies) as usize;
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
        while let Some(&TaskSlot { open: 0, mult, .. }) = self.tasks.front() {
            let mult = mult as usize;
            self.tasks.pop_front();
            self.retired += 1;
            self.retired_copies += mult as u64;
            for _ in 0..mult {
                if self.copies.pop_front() == Some(CopyState::Lost) {
                    self.retired_lost += 1;
                }
            }
            if self.errorful {
                self.values.drain(..mult);
            }
        }
    }

    /// Exhaustively re-derive every counter from the per-copy states and
    /// panic on any mismatch — conservation of multiplicity.  Never on
    /// the hot path.
    pub(crate) fn check_invariants(&self) {
        let w = &*self.workload;
        let mut in_flight = 0u64;
        // Retired copies were each returned or abandoned, and every
        // retired task was judged.
        assert!(
            self.retired_lost <= self.retired_copies,
            "retired copies drifted"
        );
        let mut returned = self.retired_copies - self.retired_lost;
        let mut lost = self.retired_lost;
        let mut completed = self.retired;
        // The activated tasks are exactly the owned ids the walk passed,
        // in id order: the retired ones, then the window.
        let mut walked = (0..self.cursor).filter(|&i| self.owner.owns(w.base_id + i));
        let mut retired = (0u64, 0u64);
        for index in walked.by_ref().take(self.retired as usize) {
            retired.0 += 1;
            retired.1 += u64::from(w.multiplicity(index));
        }
        assert_eq!(
            retired,
            (self.retired, self.retired_copies),
            "retired tasks drifted"
        );
        assert!(
            self.tasks.front().is_none_or(|t| t.open > 0),
            "a judged task was not retired"
        );
        let mut next_copy = self.retired_copies;
        for (slot, t) in self.tasks.iter().enumerate() {
            assert_eq!(
                Some(t.id),
                walked.next().map(|i| w.base_id + i),
                "slot {slot} holds the wrong task"
            );
            assert_eq!(t.first_copy, next_copy, "copy arena not contiguous");
            next_copy += u64::from(t.mult);
            let mut counts = [0u32; 4];
            let first = (t.first_copy - self.retired_copies) as usize;
            for c in self.copies.range(first..first + t.mult as usize) {
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
        assert_eq!(next_copy, self.activated().1, "copy arena overruns");
        let values = if self.errorful { self.copies.len() } else { 0 };
        assert_eq!(self.values.len(), values, "value arena drifted");
        assert_eq!(in_flight, self.in_flight, "in-flight count drifted");
        assert_eq!(returned, self.returned, "returned count drifted");
        assert_eq!(lost, self.lost, "lost count drifted");
        assert_eq!(completed, self.completed, "completion count drifted");
        // Every re-queued copy is Pending (so its task is live), and no
        // copy is queued twice.
        let mut seen = std::collections::HashSet::new();
        for &(rank, copy, _) in &self.requeue {
            assert!(seen.insert((rank, copy)), "copy re-queued twice");
            let ix = self.live_copy(rank, copy).expect("re-queued copy retired");
            assert_eq!(
                self.copies[ix],
                CopyState::Pending,
                "re-queued copy not pending"
            );
        }
        // Every copy in flight has exactly one record, and stale records
        // stay within the compaction bound.
        let mut live = std::collections::HashSet::new();
        for r in &self.inflight {
            let ix = self.live_copy(r.rank, r.copy);
            if ix.is_some_and(|ix| self.copies[ix] == CopyState::InFlight) {
                assert!(live.insert((r.rank, r.copy)), "copy in flight twice");
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
