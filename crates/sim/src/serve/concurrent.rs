//! The concurrent serve store: per-shard locks and per-shard RNG streams.
//!
//! [`AssignmentStore`](super::AssignmentStore) centralizes dispatch (and
//! therefore RNG order) in one activation cursor, which is what makes a
//! drained session bit-identical to the batch kernel — but it also means
//! every client serializes on one lock.  [`ConcurrentStore`] trades the
//! batch-kernel identity for genuine concurrency while keeping an equally
//! strong determinism contract:
//!
//! * **Per-shard locking.**  Task ids are partitioned over `shards` by an
//!   FNV-1a id hash, computed once when the store is built.  Each shard is
//!   the same shard state machine the single-stream store runs (`serve::
//!   shard`), behind its own [`Mutex`]: its free-list (timeout re-queue),
//!   tick clock, flat task arena, partial [`CampaignOutcome`], and
//!   counters.  [`request_work`](ConcurrentStore::request_work) routes via
//!   a round-robin cursor and touches one shard's lock at a time, and
//!   [`return_result`](ConcurrentStore::return_result) locks exactly the
//!   owning shard and indexes the task's slot directly.  [`ServeStats`] is
//!   aggregated from the per-shard cells on demand.
//!
//! * **Per-shard RNG streams.**  Shard `s` draws every activation from
//!   `DeterministicRng::new(SeedSequence::new(seed).derive(s))` and
//!   activates *its own* ids in id order.  A shard's activation sequence is therefore a pure
//!   function of `(seed, shard count, s)` — no client interleaving can
//!   perturb it, because no other shard ever touches its stream.  With a
//!   timeout no client trips, a *drained* store's merged outcome, final
//!   per-shard RNG states, and rendered stats are byte-identical across
//!   any number of clients (1/2/4/8/...) and any request schedule at a
//!   fixed shard count.
//!
//! The matching oracle is
//! [`drain_shard_by_shard`](ConcurrentStore::drain_shard_by_shard):
//! draining shard 0 to completion, then shard 1, and so on exercises no
//! concurrency at all, yet must land in the same final state as any
//! interleaved or multi-threaded drain.  The serve proptests and the
//! `serve_concurrent` bench pin this.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use super::protocol::handle_request;
use super::shard::{shard_of, Owner, ShardStore, Workload};
use super::store::{Issue, ReturnAck, ServeConfig, ServeError, ServeStats};
use super::WorkStore;
use crate::engine::CampaignConfig;
use crate::outcome::CampaignOutcome;
use crate::task::{TaskId, TaskSpec};
use redundancy_stats::{DeterministicRng, SeedSequence};

/// Which RNG-stream discipline a serve session runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamMode {
    /// One session RNG, centralized dispatch: bit-identical to the batch
    /// kernel (the `ext_serve` oracle), but clients serialize on one lock.
    #[default]
    Single,
    /// One derived RNG stream per shard, per-shard locks: bit-identical
    /// across client counts and interleavings at a fixed shard count.
    PerShard,
}

impl std::str::FromStr for StreamMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "single" => Ok(StreamMode::Single),
            "per-shard" => Ok(StreamMode::PerShard),
            other => Err(format!(
                "unknown stream mode '{other}' (expected single or per-shard)"
            )),
        }
    }
}

impl std::fmt::Display for StreamMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StreamMode::Single => "single",
            StreamMode::PerShard => "per-shard",
        })
    }
}

/// One shard's lock-protected state: the shard machine and its own RNG
/// stream, `SeedSequence::derive(shard)`.
#[derive(Debug)]
struct Locked {
    store: ShardStore,
    rng: DeterministicRng,
}

/// One shard of the concurrent store: its locked state, plus its expiry
/// counters mirrored outside the lock so the journal layer can read them
/// on every tick without locking every shard.  The mirrors are statistics
/// that publish no other data, so `Relaxed` suffices: the journal reads
/// them on the thread that just issued, under its own session lock.
#[derive(Debug)]
struct Shard {
    locked: Mutex<Locked>,
    timeouts: AtomicU64,
    lost: AtomicU64,
}

/// The per-shard-locked, per-shard-stream serve store.  Every method takes
/// `&self`: requests route to a shard and lock only that shard, so clients
/// on different shards proceed in parallel.  See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct ConcurrentStore {
    shards: Vec<Shard>,
    /// Each task's slot in its owning shard's arena plus one, written when
    /// the shard activates it (0: not yet activated).  An entry is only
    /// written and read while its owning shard's mutex is held, and that
    /// mutex orders the accesses, so they are `Relaxed`.  The table is
    /// allocated zeroed, so its pages cost nothing until tasks activate.
    slots: Box<[AtomicU32]>,
    /// Round-robin routing cursor for `request_work`.
    router: AtomicUsize,
    workload: Arc<Workload>,
    seed: u64,
}

impl ConcurrentStore {
    /// Build a store over `tasks` (contiguous ids, as
    /// [`expand_plan`](crate::task::expand_plan) produces), with shard
    /// `s`'s stream seeded from `SeedSequence::new(seed).derive(s)`.
    pub fn new(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
    ) -> Result<Self, String> {
        config.validate()?;
        serve.validate()?;
        let workload = Arc::new(Workload::new(tasks, config)?);
        let mut owned = vec![(0u64, 0u64); serve.shards];
        for g in workload.groups() {
            for id in g.first_id.0..g.first_id.0 + g.count {
                let cell = &mut owned[shard_of(id, serve.shards)];
                cell.0 += 1;
                cell.1 += u64::from(g.multiplicity);
            }
        }
        let total = workload.total_tasks() as usize;
        // SAFETY: an all-zero bit pattern is a valid `AtomicU32` (it has
        // the in-memory representation of `u32`).
        let slots = unsafe { Box::<[AtomicU32]>::new_zeroed_slice(total).assume_init() };
        let seq = SeedSequence::new(seed);
        let shards = owned
            .into_iter()
            .enumerate()
            .map(|(s, owned)| {
                // The session is one campaign; the counter lives on shard
                // 0 and surfaces through the merged outcome.
                let campaigns = u64::from(s == 0);
                let owner = Owner::Shard {
                    index: s,
                    of: serve.shards,
                };
                Shard {
                    locked: Mutex::new(Locked {
                        store: ShardStore::new(
                            Arc::clone(&workload),
                            serve,
                            owner,
                            owned,
                            campaigns,
                        ),
                        rng: DeterministicRng::new(seq.derive(s as u64)),
                    }),
                    timeouts: AtomicU64::new(0),
                    lost: AtomicU64::new(0),
                }
            })
            .collect();
        Ok(ConcurrentStore {
            shards,
            slots,
            router: AtomicUsize::new(0),
            workload,
            seed,
        })
    }

    fn lock(&self, s: usize) -> MutexGuard<'_, Locked> {
        self.shards[s].locked.lock().expect("shard lock poisoned")
    }

    /// Number of hash shards (= number of RNG streams and locks).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The seed the per-shard streams were derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Copies in the full workload (sum of multiplicities).
    pub fn total_copies(&self) -> u64 {
        self.workload.total_copies()
    }

    /// True once every task on every shard has been judged.
    pub fn is_drained(&self) -> bool {
        (0..self.shards.len()).all(|s| self.lock(s).store.is_drained())
    }

    /// Issue from shard `s`, recording a newly activated task's slot and
    /// publishing the shard's expiry counters before the lock is
    /// released.
    fn request_from(&self, s: usize) -> Issue {
        let shard = &self.shards[s];
        let mut g = shard.locked.lock().expect("shard lock poisoned");
        let Locked { store, rng } = &mut *g;
        let rank = store.activated();
        let issue = store.request_work(rng);
        if store.activated() > rank {
            let index = self
                .workload
                .index_of(TaskId(store.activated_id(rank)))
                .expect("activated task is in the workload");
            self.slots[index].store(rank as u32 + 1, Ordering::Relaxed);
        }
        let (timeouts, lost) = store.expiry_counters();
        shard.timeouts.store(timeouts, Ordering::Relaxed);
        shard.lost.store(lost, Ordering::Relaxed);
        issue
    }

    /// Hand out the next copy of work, scanning shards round-robin from
    /// the routing cursor and touching one shard lock at a time.
    ///
    /// `Drained` is only answered when *every* shard reported drained in
    /// this scan — and drained-ness is monotone (a judged task never
    /// un-judges), so the answer cannot be a stale race: any shard with
    /// live work forces `Work` or `Idle`.
    pub fn request_work(&self) -> Issue {
        let n = self.shards.len();
        let start = self.router.fetch_add(1, Ordering::Relaxed) % n;
        let mut any_idle = false;
        for k in 0..n {
            match self.request_from((start + k) % n) {
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

    /// Accept the return of one in-flight copy, locking only the owning
    /// shard.
    pub fn return_result(&self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        let index = self
            .workload
            .index_of(task)
            .ok_or(ServeError::UnknownTask(task))?;
        let mut g = self.lock(shard_of(task.0, self.shards.len()));
        match self.slots[index].load(Ordering::Relaxed) {
            // Owned by this shard but never activated: nothing issued yet.
            0 => Err(ServeError::NotInFlight { task, copy }),
            slot => g.store.return_result(slot as usize - 1, task, copy),
        }
    }

    /// The live session snapshot: the field-wise sum of the per-shard
    /// stats cells (each shard is locked once, in order).
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for cell in self.per_shard_stats() {
            total.total_tasks += cell.total_tasks;
            total.activated_tasks += cell.activated_tasks;
            total.completed_tasks += cell.completed_tasks;
            total.total_copies += cell.total_copies;
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

    /// Each shard's own stats cell, scoped to the slice it owns.
    pub fn per_shard_stats(&self) -> Vec<ServeStats> {
        (0..self.shards.len())
            .map(|s| self.lock(s).store.stats())
            .collect()
    }

    /// Fold the shards' partial outcomes into one [`CampaignOutcome`].
    pub fn merged_outcome(&self) -> CampaignOutcome {
        let mut out = CampaignOutcome::default();
        for s in 0..self.shards.len() {
            out.merge(self.lock(s).store.outcome());
        }
        out
    }

    /// A clone of each shard's current RNG state — the per-shard half of
    /// the determinism contract (drained stores must agree on these).
    pub fn final_rngs(&self) -> Vec<DeterministicRng> {
        (0..self.shards.len())
            .map(|s| self.lock(s).rng.clone())
            .collect()
    }

    /// FNV-1a fold over every shard's RNG position (probed by drawing
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

    /// Running `(timeouts, lost)` totals summed over the shards.  Reads
    /// the counters each shard publishes as it issues, so no shard lock
    /// is taken.
    pub fn expiry_counters(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(t, l), s| {
            (
                t + s.timeouts.load(Ordering::Relaxed),
                l + s.lost.load(Ordering::Relaxed),
            )
        })
    }

    /// Revert every shard's in-flight copies to pending (shard 0 first,
    /// then shard 1, ...), returning the total reverted.  See
    /// [`AssignmentStore::reset_in_flight`](super::AssignmentStore::reset_in_flight)
    /// for the recovery contract.
    pub fn reset_in_flight(&self) -> u64 {
        (0..self.shards.len())
            .map(|s| self.lock(s).store.reset_in_flight())
            .sum()
    }

    /// Records in every shard's in-flight queue, stale ones included.
    /// Stays within twice the copies in flight plus a small constant per
    /// shard, whatever the timeout.
    pub fn inflight_records(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.lock(s).store.inflight_records())
            .sum()
    }

    /// Handle one protocol request against this store, formatting the
    /// reply into caller-owned scratch (each connection brings its own
    /// buffer, so concurrent sessions never contend on reply storage).
    /// Returns true on `shutdown`.
    pub fn handle_into(&self, request: &str, reply: &mut String) -> bool {
        let mut src = self;
        handle_request(&mut src, request, reply)
    }

    /// Drain the store to completion with immediate returns through the
    /// round-robin router — the single-client interleaved drain.
    pub fn drain(&self) {
        loop {
            match self.request_work() {
                Issue::Work(a) => {
                    self.return_result(a.task, a.copy)
                        .expect("drain returned an issued copy");
                }
                Issue::Idle => unreachable!("immediate returns leave nothing in flight"),
                Issue::Drained => break,
            }
        }
    }

    /// The sharded-stream oracle: drain shard 0 to completion, then shard
    /// 1, and so on — no interleaving across shards at all.  Any drained
    /// store on the same (tasks, config, serve, seed) must agree with
    /// this one on merged outcome, per-shard final RNGs, and stats.
    pub fn drain_shard_by_shard(&self) {
        for s in 0..self.shards.len() {
            loop {
                match self.request_from(s) {
                    Issue::Work(a) => {
                        self.return_result(a.task, a.copy)
                            .expect("drain returned an issued copy");
                    }
                    Issue::Idle => unreachable!("immediate returns leave nothing in flight"),
                    Issue::Drained => break,
                }
            }
        }
    }

    /// Exhaustively re-derive every counter from the per-copy states and
    /// panic on any mismatch — conservation of multiplicity, per shard
    /// and across shards.  Proptest support; never on the hot path.
    pub fn check_invariants(&self) {
        let mut owned = 0u64;
        let mut copies = 0u64;
        let mut expiry = (0, 0);
        for s in 0..self.shards.len() {
            let g = self.lock(s);
            g.store.check_invariants();
            for rank in 0..g.store.activated() {
                let id = g.store.activated_id(rank);
                let index = self
                    .workload
                    .index_of(TaskId(id))
                    .expect("task in workload");
                assert_eq!(
                    self.slots[index].load(Ordering::Relaxed) as usize,
                    rank + 1,
                    "task {id} routes to the wrong slot"
                );
            }
            let cell = g.store.stats();
            owned += cell.total_tasks;
            copies += cell.total_copies;
            expiry.0 += cell.timeouts;
            expiry.1 += cell.lost;
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
        assert_eq!(
            self.expiry_counters(),
            expiry,
            "expiry counters unpublished"
        );
    }
}

impl WorkStore for &ConcurrentStore {
    fn request_work(&mut self) -> Issue {
        ConcurrentStore::request_work(self)
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        ConcurrentStore::return_result(self, task, copy)
    }

    fn stats(&self) -> ServeStats {
        ConcurrentStore::stats(self)
    }

    fn merged_outcome(&self) -> CampaignOutcome {
        ConcurrentStore::merged_outcome(self)
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        ConcurrentStore::final_rngs(self)
    }

    fn is_drained(&self) -> bool {
        ConcurrentStore::is_drained(self)
    }

    fn expiry_counters(&self) -> (u64, u64) {
        ConcurrentStore::expiry_counters(self)
    }

    fn reset_in_flight(&mut self) -> u64 {
        ConcurrentStore::reset_in_flight(self)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{assert_drain_equivalent, DrainState};
    use super::*;
    use crate::adversary::{AdversaryModel, CheatStrategy};
    use crate::faults::FaultModel;
    use crate::task::expand_plan;
    use redundancy_core::RealizedPlan;

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
    fn interleaved_drain_matches_the_shard_by_shard_oracle() {
        let tasks = specs(800);
        for shards in [1usize, 2, 4] {
            let oracle = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 42).unwrap();
            oracle.drain_shard_by_shard();
            let live = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 42).unwrap();
            live.drain();
            live.check_invariants();
            assert!(live.is_drained());
            assert_drain_equivalent(&DrainState::of(&&live), &DrainState::of(&&oracle));
            assert_eq!(live.per_shard_stats(), oracle.per_shard_stats());
            assert_eq!(live.stream_checksum(), oracle.stream_checksum());
        }
    }

    #[test]
    fn threaded_drain_matches_the_oracle_at_every_client_count() {
        let tasks = specs(600);
        for shards in [1usize, 4] {
            let oracle = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 7).unwrap();
            oracle.drain_shard_by_shard();
            for clients in [1usize, 2, 8] {
                let live = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 7).unwrap();
                std::thread::scope(|scope| {
                    for _ in 0..clients {
                        scope.spawn(|| loop {
                            match live.request_work() {
                                Issue::Work(a) => {
                                    live.return_result(a.task, a.copy)
                                        .expect("issued copy must return");
                                }
                                Issue::Idle => std::thread::yield_now(),
                                Issue::Drained => break,
                            }
                        });
                    }
                });
                live.check_invariants();
                assert!(live.is_drained(), "{clients} clients left work behind");
                assert_drain_equivalent(&DrainState::of(&&live), &DrainState::of(&&oracle));
                assert_eq!(live.stats().render(), oracle.stats().render());
            }
        }
    }

    #[test]
    fn per_shard_stats_cells_sum_to_the_session_snapshot() {
        let tasks = specs(500);
        let store = ConcurrentStore::new(&tasks, &campaign(), &patient(3), 9).unwrap();
        // Mid-session: issue a prefix without returning everything.
        for i in 0..257 {
            let Issue::Work(a) = store.request_work() else {
                panic!("store drained too early");
            };
            if i % 3 != 0 {
                store.return_result(a.task, a.copy).unwrap();
            }
        }
        let cells = store.per_shard_stats();
        let total = store.stats();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells.iter().map(|c| c.issued).sum::<u64>(), total.issued);
        assert_eq!(
            cells.iter().map(|c| c.returned).sum::<u64>(),
            total.returned
        );
        assert_eq!(
            cells.iter().map(|c| c.in_flight).sum::<u64>(),
            total.in_flight
        );
        assert_eq!(
            cells.iter().map(|c| c.total_tasks).sum::<u64>(),
            total.total_tasks
        );
        assert_eq!(total.total_tasks, tasks.len() as u64);
        store.check_invariants();
    }

    #[test]
    fn returns_are_validated_per_shard() {
        let tasks = specs(100);
        let store = ConcurrentStore::new(&tasks, &campaign(), &patient(2), 1).unwrap();
        assert_eq!(
            store.return_result(TaskId(999_999), 0),
            Err(ServeError::UnknownTask(TaskId(999_999)))
        );
        assert_eq!(
            store.return_result(TaskId(0), 0),
            Err(ServeError::NotInFlight {
                task: TaskId(0),
                copy: 0
            })
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
        assert_eq!(
            store.return_result(a.task, a.copy),
            Err(ServeError::NotInFlight {
                task: a.task,
                copy: a.copy
            })
        );
    }

    #[test]
    fn timeouts_conserve_every_copy_per_shard() {
        let tasks = specs(60);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 2,
                max_retries: 1,
                ..FaultModel::none()
            },
            ..ServeConfig::new(3)
        };
        let store = ConcurrentStore::new(&tasks, &campaign(), &serve, 5).unwrap();
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
        assert_eq!(stats.issued, 2 * stats.total_copies);
        assert_eq!(stats.retries, stats.total_copies);
        assert_eq!(stats.timeouts, 2 * stats.total_copies);
    }

    #[test]
    fn protocol_replies_match_the_single_stream_formatter() {
        // The same request script through handle_into and through a
        // ServeSession must produce the same reply *shapes* (the payloads
        // differ: different streams hand out different holdings) — and
        // err/bad-request text must be byte-identical.
        let tasks = specs(4);
        let store = ConcurrentStore::new(&tasks, &campaign(), &patient(2), 3).unwrap();
        let mut reply = String::new();
        assert!(!store.handle_into("request-work", &mut reply));
        assert!(reply.starts_with("work "));
        assert!(!store.handle_into("return-result one two", &mut reply));
        assert_eq!(reply, "err bad-request return-result expects <task> <copy>");
        assert!(!store.handle_into("return-result 999999 0", &mut reply));
        assert_eq!(
            reply,
            "err unknown-task task 999999 is not in this workload"
        );
        assert!(!store.handle_into("frobnicate", &mut reply));
        assert_eq!(reply, "err unknown-verb frobnicate");
        assert!(!store.handle_into("stats", &mut reply));
        assert!(reply.contains("issued 1"));
        assert!(reply.contains("checksum 0x"));
        assert!(store.handle_into("shutdown", &mut reply));
        assert_eq!(reply, "bye");
    }

    #[test]
    fn reset_in_flight_recovers_to_the_uninterrupted_endpoint() {
        let tasks = specs(500);
        for shards in [1usize, 3] {
            let oracle = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 31).unwrap();
            oracle.drain();
            // Crash scenario: issue a prefix, return a third, lose the rest.
            let store = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 31).unwrap();
            for i in 0..257 {
                let Issue::Work(a) = store.request_work() else {
                    panic!("store drained too early");
                };
                if i % 3 == 0 {
                    store.return_result(a.task, a.copy).unwrap();
                }
            }
            let before = store.stats();
            let reverted = store.reset_in_flight();
            assert_eq!(reverted, before.in_flight);
            store.check_invariants();
            assert_eq!(store.stats().in_flight, 0);
            store.drain();
            store.check_invariants();
            assert_drain_equivalent(&DrainState::of(&&store), &DrainState::of(&&oracle));
        }
    }

    #[test]
    fn stream_mode_parses_and_renders() {
        assert_eq!("single".parse::<StreamMode>().unwrap(), StreamMode::Single);
        assert_eq!(
            "per-shard".parse::<StreamMode>().unwrap(),
            StreamMode::PerShard
        );
        assert!("both".parse::<StreamMode>().is_err());
        assert_eq!(StreamMode::PerShard.to_string(), "per-shard");
        assert_eq!(StreamMode::default(), StreamMode::Single);
    }

    #[test]
    fn empty_workload_drains_immediately() {
        let store = ConcurrentStore::new(&[], &campaign(), &patient(4), 1).unwrap();
        assert!(store.is_drained());
        assert_eq!(store.request_work(), Issue::Drained);
        assert_eq!(store.merged_outcome().campaigns, 1);
        assert_eq!(store.stats().total_tasks, 0);
    }

    #[test]
    fn shard_streams_are_independent_of_the_shard_count_of_other_work() {
        // At different shard counts the streams legitimately differ; at
        // the *same* shard count with a different seed they must differ
        // too (the derive actually feeds the streams).
        let tasks = specs(200);
        let a = ConcurrentStore::new(&tasks, &campaign(), &patient(2), 1).unwrap();
        let b = ConcurrentStore::new(&tasks, &campaign(), &patient(2), 2).unwrap();
        a.drain();
        b.drain();
        assert_ne!(a.stream_checksum(), b.stream_checksum());
        assert_ne!(a.final_rngs(), b.final_rngs());
    }
}
