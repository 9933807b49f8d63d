//! [`StreamMode`], and [`ConcurrentStore`]: a per-shard [`Store`] behind
//! one lock.
//!
//! The determinism contract of per-shard streams, and its shard-by-shard
//! oracle, belong to the store (see [`store`](super::store)).  This module
//! only shares a store across threads: every request through
//! `&ConcurrentStore` (its [`WorkStore`] handle) or
//! [`handle_into`](ConcurrentStore::handle_into) takes the one lock once.
//! The daemon's io loops own their store and take no lock; the benchmark
//! host, whose io loop runs on a thread of its own, and its oracle compile
//! against this name.

use std::sync::{Mutex, MutexGuard};

use super::protocol::handle_request;
use super::store::{Issue, ReturnAck, ServeConfig, ServeError, ServeStats, Store};
use super::WorkStore;
use crate::engine::CampaignConfig;
use crate::outcome::CampaignOutcome;
use crate::task::{SpecGroup, TaskId, TaskSpec};
use redundancy_stats::DeterministicRng;

/// Which RNG-stream discipline a serve session runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamMode {
    /// One session RNG, centralized dispatch: bit-identical to the batch
    /// kernel (the `ext_serve` oracle).
    #[default]
    Single,
    /// One derived RNG stream per shard: bit-identical across client
    /// counts and interleavings at a fixed shard count.
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

/// A per-shard-stream [`Store`] behind one lock, for callers that share a
/// store across threads.
#[derive(Debug)]
pub struct ConcurrentStore(Mutex<Store>);

impl ConcurrentStore {
    /// A per-shard store over `tasks`; see [`Store::new`].
    pub fn new(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
    ) -> Result<Self, String> {
        Store::new(tasks, config, serve, seed, StreamMode::PerShard).map(Self::wrap)
    }

    /// A per-shard store over the spec groups `groups`; see
    /// [`Store::from_groups`].
    pub fn from_groups(
        groups: &[SpecGroup],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
    ) -> Result<Self, String> {
        Store::from_groups(groups, config, serve, seed, StreamMode::PerShard).map(Self::wrap)
    }

    fn wrap(store: Store) -> Self {
        ConcurrentStore(Mutex::new(store))
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.0.lock().expect("store lock poisoned")
    }

    /// The live session snapshot.
    pub fn stats(&self) -> ServeStats {
        self.lock().stats()
    }

    /// The per-shard oracle; see [`Store::drain_shard_by_shard`].
    pub fn drain_shard_by_shard(&self) {
        self.lock().drain_shard_by_shard();
    }

    /// Handle one protocol request under the lock, formatting the reply
    /// into caller-owned scratch (each connection brings its own buffer).
    /// Returns true on `shutdown`.
    pub fn handle_into(&self, request: &str, reply: &mut String) -> bool {
        handle_request(&mut *self.lock(), request, reply)
    }
}

/// A shared reference is the mutable handle: every call takes the lock,
/// so threads can serve one store together.
impl WorkStore for &ConcurrentStore {
    fn request_work(&mut self) -> Issue {
        self.lock().request_work()
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        self.lock().return_result(task, copy)
    }

    fn stats(&self) -> ServeStats {
        self.lock().stats()
    }

    fn merged_outcome(&self) -> CampaignOutcome {
        self.lock().merged_outcome()
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        self.lock().final_rngs()
    }

    fn is_drained(&self) -> bool {
        self.lock().is_drained()
    }

    fn expiry_counters(&self) -> (u64, u64) {
        self.lock().expiry_counters()
    }

    fn reset_in_flight(&mut self) -> u64 {
        self.lock().reset_in_flight()
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

    /// A per-shard store over `tasks`, owned.
    fn per_shard(tasks: &[TaskSpec], serve: &ServeConfig, seed: u64) -> Store {
        Store::new(tasks, &campaign(), serve, seed, StreamMode::PerShard).unwrap()
    }

    #[test]
    fn interleaved_drain_matches_the_shard_by_shard_oracle() {
        let tasks = specs(800);
        for shards in [1usize, 2, 4] {
            let mut oracle = per_shard(&tasks, &patient(shards), 42);
            oracle.drain_shard_by_shard();
            let mut live = per_shard(&tasks, &patient(shards), 42);
            live.drain();
            live.check_invariants();
            assert!(live.is_drained());
            assert_drain_equivalent(&DrainState::of(&live), &DrainState::of(&oracle));
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
                        scope.spawn(|| {
                            let mut store = &live;
                            loop {
                                match store.request_work() {
                                    Issue::Work(a) => {
                                        store
                                            .return_result(a.task, a.copy)
                                            .expect("issued copy must return");
                                    }
                                    Issue::Idle => std::thread::yield_now(),
                                    Issue::Drained => break,
                                }
                            }
                        });
                    }
                });
                assert!((&live).is_drained(), "{clients} clients left work behind");
                assert_drain_equivalent(&DrainState::of(&&live), &DrainState::of(&&oracle));
                assert_eq!(live.stats().render(), oracle.stats().render());
                live.0.into_inner().unwrap().check_invariants();
            }
        }
    }

    #[test]
    fn exclusive_access_routes_draws_and_publishes_like_the_locks() {
        // Timeouts trip and copies are lost, so the expiry counters move;
        // every third copy is held, so shards go idle as well as drained.
        let tasks = specs(300);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout: 40,
                max_retries: 1,
                ..FaultModel::none()
            },
            ..ServeConfig::new(3)
        };
        let shared = ConcurrentStore::new(&tasks, &campaign(), &serve, 17).unwrap();
        let mut locked = &shared;
        let mut owned = per_shard(&tasks, &serve, 17);
        for i in 0..5_000u64 {
            let issue = locked.request_work();
            assert_eq!(owned.request_work(), issue, "request {i}");
            assert_eq!(owned.expiry_counters(), locked.expiry_counters());
            if let Issue::Work(a) = issue {
                if i % 3 != 0 {
                    let ack = locked.return_result(a.task, a.copy);
                    assert_eq!(owned.return_result(a.task, a.copy), ack);
                }
            }
        }
        assert_eq!(
            owned.return_result(TaskId(0), 1),
            locked.return_result(TaskId(0), 1)
        );
        assert!(owned.expiry_counters().0 > 0, "no timeout tripped");
        assert!(owned.is_drained(), "the schedule must drain the store");
        assert_eq!(locked.is_drained(), owned.is_drained());
        owned.check_invariants();
        assert_drain_equivalent(&DrainState::of(&owned), &DrainState::of(&locked));
    }

    #[test]
    fn per_shard_stats_cells_sum_to_the_session_snapshot() {
        let tasks = specs(500);
        let mut store = per_shard(&tasks, &patient(3), 9);
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
        let shared = ConcurrentStore::new(&tasks, &campaign(), &patient(2), 1).unwrap();
        let mut store = &shared;
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
        shared.lock().check_invariants();
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
        let shared = ConcurrentStore::new(&tasks, &campaign(), &serve, 5).unwrap();
        let mut store = &shared;
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
        shared.lock().check_invariants();
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
        // single-stream store must produce the same reply *shapes* (the
        // payloads differ: different streams hand out different holdings)
        // — and err/bad-request text must be byte-identical.
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
            let mut uninterrupted = &oracle;
            uninterrupted.drain();
            // Crash scenario: issue a prefix, return a third, lose the rest.
            let shared = ConcurrentStore::new(&tasks, &campaign(), &patient(shards), 31).unwrap();
            let mut store = &shared;
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
            shared.lock().check_invariants();
            assert_eq!(store.stats().in_flight, 0);
            store.drain();
            shared.lock().check_invariants();
            assert_drain_equivalent(&DrainState::of(&store), &DrainState::of(&uninterrupted));
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
        let shared = ConcurrentStore::new(&[], &campaign(), &patient(4), 1).unwrap();
        let mut store = &shared;
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
        let mut a = per_shard(&tasks, &patient(2), 1);
        let mut b = per_shard(&tasks, &patient(2), 2);
        a.drain();
        b.drain();
        assert_ne!(a.stream_checksum(), b.stream_checksum());
        assert_ne!(a.final_rngs(), b.final_rngs());
    }
}
