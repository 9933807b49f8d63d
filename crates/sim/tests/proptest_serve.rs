//! Property-based tests for the live serve store (proptest).
//!
//! The headline property — this PR's correctness spine — is that a
//! *drained* serve session is bit-identical to the batched campaign
//! kernel: same outcome counters AND same final RNG state, for random
//! campaign shapes, at 1, 2, and 4 shards, under arbitrary client
//! interleavings.  Alongside it: timeouts and re-queues never lose or
//! duplicate a task copy (conservation of multiplicity).

use proptest::collection::vec;
use proptest::prelude::*;
use redundancy_core::RealizedPlan;
use redundancy_sim::experiment::detection_experiment_with;
use redundancy_sim::serve::{
    Assignment, Issue, ReturnAck, ServeConfig, ServeError, Store, StreamMode, WorkStore,
};
use redundancy_sim::{
    drain_session, run_campaign_with_scratch, serve_experiment, AdversaryModel, CampaignConfig,
    CampaignOutcome, CampaignScratch, CheatStrategy, ExperimentConfig, FaultModel, TaskId,
};
use redundancy_stats::DeterministicRng;
use std::collections::HashMap;

/// Decode drawn scalars into an arbitrary-but-valid campaign shape.
fn campaign_shape(
    tasks: u64,
    eps_pct: u32,
    p_pct: u32,
    strategy_ix: u32,
    majority: bool,
    err_pct: u32,
) -> (RealizedPlan, CampaignConfig) {
    let plan = RealizedPlan::balanced(tasks, f64::from(eps_pct) / 100.0).unwrap();
    let strategy = match strategy_ix % 4 {
        0 => CheatStrategy::Never,
        1 => CheatStrategy::Always,
        2 => CheatStrategy::ExactTuples { k: 1 },
        _ => CheatStrategy::AtLeast { min_copies: 1 },
    };
    let mut config = CampaignConfig::new(
        AdversaryModel::AssignmentFraction {
            p: f64::from(p_pct) / 100.0,
        },
        strategy,
    );
    if majority {
        config.policy = redundancy_sim::supervisor::VerificationPolicy::Majority;
    }
    config.honest_error_rate = f64::from(err_pct) / 100.0;
    (plan, config)
}

/// A serve config whose timeout can never fire within a test run.
fn patient(shards: usize) -> ServeConfig {
    ServeConfig {
        faults: FaultModel {
            timeout: 1_u64 << 40,
            ..FaultModel::none()
        },
        ..ServeConfig::new(shards)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A drained session equals `run_campaign_with_scratch` bit for bit —
    /// identical outcome counters and identical final RNG state — at 1, 2,
    /// and 4 shards, across back-to-back campaigns sharing one RNG stream.
    #[test]
    fn drained_session_is_bit_identical_at_1_2_4_shards(
        tasks in 100u64..2_000,
        eps_pct in 5u32..95,
        p_pct in 0u32..60,
        strategy_ix in 0u32..4,
        majority_ix in 0u32..2,
        err_pct in 0u32..5,
        seed in 0u64..100_000,
    ) {
        let (plan, config) =
            campaign_shape(tasks, eps_pct, p_pct, strategy_ix, majority_ix == 1, err_pct);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let mut base_rng = DeterministicRng::new(seed);
        let mut base_out = CampaignOutcome::default();
        let mut scratch = CampaignScratch::new();
        for _ in 0..2 {
            run_campaign_with_scratch(&specs, &config, &mut base_rng, &mut base_out, &mut scratch);
        }
        for shards in [1usize, 2, 4] {
            let mut serve_rng = DeterministicRng::new(seed);
            let mut serve_out = CampaignOutcome::default();
            for _ in 0..2 {
                drain_session(
                    &specs,
                    &config,
                    &ServeConfig::new(shards),
                    &mut serve_rng,
                    &mut serve_out,
                );
            }
            prop_assert_eq!(&base_out, &serve_out, "outcome diverged at {} shards", shards);
            prop_assert_eq!(&base_rng, &serve_rng, "RNG diverged at {} shards", shards);
        }
    }

    /// The same equivalence holds through the threaded Monte-Carlo driver:
    /// `serve_experiment` equals `detection_experiment_with` bitwise at
    /// every thread count, and the thread count itself changes nothing.
    #[test]
    fn serve_experiment_matches_baseline_at_1_2_4_threads(
        tasks in 100u64..1_200,
        eps_pct in 5u32..95,
        p_pct in 0u32..60,
        strategy_ix in 0u32..4,
        campaigns in 1u64..10,
        seed in 0u64..100_000,
    ) {
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, strategy_ix, false, 0);
        for threads in [1usize, 2, 4] {
            let cfg = ExperimentConfig {
                campaigns,
                seed,
                threads,
                chunk_size: 2,
                sampler: Default::default(),
            };
            let base = detection_experiment_with(&plan, &config, &cfg);
            let served = serve_experiment(&plan, &config, &ServeConfig::new(2), &cfg);
            prop_assert_eq!(&base.outcome, &served.outcome, "threads = {}", threads);
        }
    }

    /// Interleaving invariance: any client-request permutation that
    /// respects per-task ordering (copies return only after they are
    /// issued) reaches the same final store state as the sequential drain —
    /// same merged outcome, same stats snapshot, same RNG.
    #[test]
    fn any_return_interleaving_reaches_the_same_final_state(
        tasks in 50u64..600,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        strategy_ix in 0u32..4,
        seed in 0u64..100_000,
        decisions in vec(0u32..1_000_000, 64usize),
    ) {
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, strategy_ix, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);

        // Reference: the sequential drain.
        let mut seq_rng = DeterministicRng::new(seed);
        let mut seq_out = CampaignOutcome::default();
        let seq_stats = drain_session(&specs, &config, &patient(3), &mut seq_rng, &mut seq_out);

        // Shuffled: buffer assignments and return them in an arbitrary
        // drawn order, interleaved with further requests.
        let mut store =
            Store::new(&specs, &config, &patient(3), seed, StreamMode::Single).unwrap();
        let mut held: Vec<Assignment> = Vec::new();
        let mut step = 0usize;
        loop {
            let d = decisions[step % decisions.len()] as usize;
            step += 1;
            // Mostly request; sometimes return a random held assignment.
            let return_now = !held.is_empty() && (d.is_multiple_of(3) || held.len() > 200);
            if return_now {
                let a = held.swap_remove(d % held.len());
                store.return_result(a.task, a.copy).unwrap();
                continue;
            }
            match store.request_work() {
                Issue::Work(a) => held.push(a),
                Issue::Idle => {
                    let a = held.swap_remove(d % held.len());
                    store.return_result(a.task, a.copy).unwrap();
                }
                Issue::Drained => break,
            }
        }
        store.check_invariants();
        prop_assert!(store.is_drained());
        prop_assert_eq!(&store.merged_outcome(), &seq_out);
        prop_assert_eq!(store.stats(), seq_stats);
        prop_assert_eq!(store.final_rngs(), vec![seq_rng]);
    }

    /// Conservation of multiplicity: with an aggressive timeout and clients
    /// that drop a drawn subset of assignments on the floor, every copy is
    /// still accounted for — re-queued or abandoned, never lost track of,
    /// never duplicated — and the store always drains.
    #[test]
    fn timeouts_and_requeues_conserve_every_copy(
        tasks in 20u64..300,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        timeout in 1u64..6,
        max_retries in 0u32..4,
        seed in 0u64..100_000,
        drops in vec(0u32..2, 64usize),
    ) {
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, 1, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout,
                max_retries,
                ..FaultModel::none()
            },
            ..ServeConfig::new(3)
        };
        let mut store = Store::new(&specs, &config, &serve, seed, StreamMode::Single).unwrap();
        let mut dispatched = 0u64;
        let mut returned = 0u64;
        let mut guard = 0u64;
        loop {
            match store.request_work() {
                Issue::Work(a) => {
                    if drops[(dispatched % drops.len() as u64) as usize] == 1 {
                        // Dropped on the floor: only a timeout can recover it.
                    } else {
                        store.return_result(a.task, a.copy).unwrap();
                        returned += 1;
                    }
                    dispatched += 1;
                }
                Issue::Idle => {}
                Issue::Drained => break,
            }
            guard += 1;
            prop_assert!(guard < 5_000_000, "drain did not terminate");
            if guard.is_multiple_of(512) {
                store.check_invariants();
            }
        }
        store.check_invariants();
        let stats = store.stats();
        prop_assert_eq!(stats.completed_tasks, stats.total_tasks);
        prop_assert_eq!(stats.returned + stats.lost, stats.total_copies);
        prop_assert_eq!(stats.returned, returned);
        prop_assert_eq!(stats.issued, stats.total_copies + stats.retries);
        prop_assert_eq!(stats.timeouts, stats.retries + stats.lost);
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert_eq!(stats.requeued, 0);
        let out = store.merged_outcome();
        prop_assert_eq!(out.tasks, stats.total_tasks);
        prop_assert_eq!(out.lost_assignments, stats.lost);
    }

    /// Per-shard streams: any request/return interleaving against a
    /// per-shard [`Store`] reaches the same drained state as the
    /// shard-by-shard oracle drain — same merged outcome, same per-shard
    /// final RNG states, same stats — at 1, 2, and 4 shards.  This is the
    /// determinism contract that makes concurrent clients safe: the
    /// drained session is a pure function of (seed, shard count).
    #[test]
    fn per_shard_drain_is_invariant_to_request_interleaving(
        tasks in 50u64..600,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        strategy_ix in 0u32..4,
        seed in 0u64..100_000,
        decisions in vec(0u32..1_000_000, 64usize),
    ) {
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, strategy_ix, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);
        for shards in [1usize, 2, 4] {
            // Reference: a fresh store drained one whole shard at a time.
            let per_shard =
                || Store::new(&specs, &config, &patient(shards), seed, StreamMode::PerShard);
            let mut oracle = per_shard().unwrap();
            oracle.drain_shard_by_shard();

            // Shuffled: buffer assignments and return them in an arbitrary
            // drawn order, interleaved with further requests.
            let mut store = per_shard().unwrap();
            let mut held: Vec<Assignment> = Vec::new();
            let mut step = 0usize;
            loop {
                let d = decisions[step % decisions.len()] as usize;
                step += 1;
                let return_now = !held.is_empty() && (d.is_multiple_of(3) || held.len() > 200);
                if return_now {
                    let a = held.swap_remove(d % held.len());
                    store.return_result(a.task, a.copy).unwrap();
                    continue;
                }
                match store.request_work() {
                    Issue::Work(a) => held.push(a),
                    Issue::Idle => {
                        let a = held.swap_remove(d % held.len());
                        store.return_result(a.task, a.copy).unwrap();
                    }
                    Issue::Drained => break,
                }
            }
            store.check_invariants();
            prop_assert!(store.is_drained());
            prop_assert_eq!(&store.merged_outcome(), &oracle.merged_outcome(),
                "outcome diverged at {} shards", shards);
            prop_assert_eq!(&store.final_rngs(), &oracle.final_rngs(),
                "per-shard RNG diverged at {} shards", shards);
            prop_assert_eq!(store.stats(), oracle.stats());
            prop_assert_eq!(store.per_shard_stats(), oracle.per_shard_stats());
        }
    }

    /// Under a timeout no drain reaches, copies that return leave stale
    /// records in the in-flight queue.  A client holding a few early
    /// copies for the whole session would pin every later record behind
    /// them unless stale records are dropped, so the queue would hold
    /// every copy ever issued.  It must instead stay within twice the
    /// copies in flight (plus a constant per shard), with the invariants
    /// holding throughout and the drained stores matching their oracles.
    #[test]
    fn inflight_queue_stays_bounded_by_the_copies_in_flight(
        tasks in 200u64..1_500,
        seed in 0u64..100_000,
        pinned in 1usize..8,
        window in 1usize..64,
        decisions in vec(0u32..1_000_000, 64usize),
    ) {
        let (plan, config) = campaign_shape(tasks, 50, 20, 3, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let bound = |in_flight: u64, shards: usize| 2 * in_flight as usize + 64 * shards;

        let store_of = |mode| Store::new(&specs, &config, &patient(2), seed, mode);
        let mut oracle = store_of(StreamMode::PerShard).unwrap();
        oracle.drain_shard_by_shard();
        let mut store = store_of(StreamMode::PerShard).unwrap();
        let mut single = store_of(StreamMode::Single).unwrap();
        let (mut held, mut single_held) = (Vec::new(), Vec::new());
        let (mut pins, mut single_pins) = (Vec::new(), Vec::new());
        let (mut sharded_done, mut single_done) = (false, false);
        let mut step = 0usize;
        while !(sharded_done && single_done) {
            let d = decisions[step % decisions.len()] as usize;
            step += 1;
            // The first `pinned` copies stay out until nothing else can be
            // issued (`idle`); the rest are returned in a drawn order once
            // more than `window` are out.
            if !sharded_done {
                match store.request_work() {
                    Issue::Work(a) if pins.len() < pinned => pins.push(a),
                    Issue::Work(a) => held.push(a),
                    Issue::Idle => {
                        for a in held.drain(..).chain(pins.drain(..)) {
                            store.return_result(a.task, a.copy).unwrap();
                        }
                    }
                    Issue::Drained => sharded_done = true,
                }
                while held.len() > window {
                    let a = held.swap_remove(d % held.len());
                    store.return_result(a.task, a.copy).unwrap();
                }
            }
            if !single_done {
                match single.request_work() {
                    Issue::Work(a) if single_pins.len() < pinned => single_pins.push(a),
                    Issue::Work(a) => single_held.push(a),
                    Issue::Idle => {
                        for a in single_held.drain(..).chain(single_pins.drain(..)) {
                            single.return_result(a.task, a.copy).unwrap();
                        }
                    }
                    Issue::Drained => single_done = true,
                }
                while single_held.len() > window {
                    let a = single_held.swap_remove(d % single_held.len());
                    single.return_result(a.task, a.copy).unwrap();
                }
            }
            prop_assert!(store.inflight_records() <= bound(store.stats().in_flight, 2),
                "{} records for {} copies in flight", store.inflight_records(),
                store.stats().in_flight);
            prop_assert!(single.inflight_records() <= bound(single.stats().in_flight, 1),
                "{} records for {} copies in flight", single.inflight_records(),
                single.stats().in_flight);
            if step.is_multiple_of(97) {
                store.check_invariants();
                single.check_invariants();
            }
        }
        store.check_invariants();
        single.check_invariants();
        prop_assert_eq!(&store.merged_outcome(), &oracle.merged_outcome());
        prop_assert_eq!(&store.final_rngs(), &oracle.final_rngs());
        prop_assert_eq!(store.stats(), oracle.stats());
        let mut batch_rng = DeterministicRng::new(seed);
        let mut batch_out = CampaignOutcome::default();
        let mut scratch = CampaignScratch::new();
        run_campaign_with_scratch(&specs, &config, &mut batch_rng, &mut batch_out, &mut scratch);
        prop_assert_eq!(&single.merged_outcome(), &batch_out);
        prop_assert_eq!(single.final_rngs(), vec![batch_rng]);
    }

    /// Conservation of multiplicity per shard: the sharded store under an
    /// aggressive timeout and floor-dropped assignments still accounts for
    /// every copy, shard-locally and in aggregate — the per-shard stats
    /// cells obey the same identities as the session totals and sum to
    /// them exactly.
    #[test]
    fn per_shard_timeouts_conserve_every_copy(
        tasks in 20u64..300,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        timeout in 1u64..6,
        max_retries in 0u32..4,
        seed in 0u64..100_000,
        drops in vec(0u32..2, 64usize),
    ) {
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, 1, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let serve = ServeConfig {
            faults: FaultModel {
                timeout,
                max_retries,
                ..FaultModel::none()
            },
            ..ServeConfig::new(3)
        };
        let mut store = Store::new(&specs, &config, &serve, seed, StreamMode::PerShard).unwrap();
        let mut dispatched = 0u64;
        let mut returned = 0u64;
        let mut guard = 0u64;
        loop {
            match store.request_work() {
                Issue::Work(a) => {
                    if drops[(dispatched % drops.len() as u64) as usize] == 1 {
                        // Dropped on the floor: only a timeout can recover it.
                    } else {
                        store.return_result(a.task, a.copy).unwrap();
                        returned += 1;
                    }
                    dispatched += 1;
                }
                Issue::Idle => {}
                Issue::Drained => break,
            }
            guard += 1;
            prop_assert!(guard < 5_000_000, "drain did not terminate");
            if guard.is_multiple_of(512) {
                store.check_invariants();
            }
        }
        store.check_invariants();
        let stats = store.stats();
        prop_assert_eq!(stats.completed_tasks, stats.total_tasks);
        prop_assert_eq!(stats.returned + stats.lost, stats.total_copies);
        prop_assert_eq!(stats.returned, returned);
        prop_assert_eq!(stats.issued, stats.total_copies + stats.retries);
        prop_assert_eq!(stats.timeouts, stats.retries + stats.lost);
        prop_assert_eq!(stats.in_flight, 0);
        prop_assert_eq!(stats.requeued, 0);
        let cells = store.per_shard_stats();
        for cell in &cells {
            prop_assert_eq!(cell.completed_tasks, cell.total_tasks);
            prop_assert_eq!(cell.returned + cell.lost, cell.total_copies);
            prop_assert_eq!(cell.issued, cell.total_copies + cell.retries);
            prop_assert_eq!(cell.timeouts, cell.retries + cell.lost);
            prop_assert_eq!(cell.in_flight, 0);
        }
        prop_assert_eq!(cells.iter().map(|c| c.issued).sum::<u64>(), stats.issued);
        prop_assert_eq!(cells.iter().map(|c| c.lost).sum::<u64>(), stats.lost);
        prop_assert_eq!(cells.iter().map(|c| c.total_copies).sum::<u64>(), stats.total_copies);
    }

    /// Crash/corruption safety of the serve journal: record a full
    /// journaled session, then flip one drawn bit or truncate at one
    /// drawn offset.  Strict replay must return a structured error —
    /// never panic, never silently diverge — except for a truncation at
    /// an exact record boundary, which *is* a valid journal and must
    /// replay to a store that recovers and drains cleanly.
    #[test]
    fn corrupted_journals_replay_to_structured_errors_never_panics(
        tasks in 20u64..200,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        timeout in 2u64..8,
        seed in 0u64..100_000,
        mode_ix in 0u32..2,
        cut_sel in 0u32..1_000_000,
        flip_sel in 0u32..1_000_000,
        flip_bit in 0u32..8,
    ) {
        use redundancy_sim::serve::{
            replay_with, workload_fingerprint, JournalWriter, JournaledStore, Record,
            ReplayOptions, SessionHeader, SharedBuf, SyncPolicy,
        };
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, 1, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let mode = if mode_ix == 0 { StreamMode::Single } else { StreamMode::PerShard };
        let serve = ServeConfig {
            faults: FaultModel { timeout, ..FaultModel::none() },
            ..ServeConfig::new(2)
        };

        // Record the session: withhold every third copy so timeouts,
        // re-queues, and lost copies all land in the journal.
        let buf = SharedBuf::new();
        let mut writer = JournalWriter::new(buf.clone(), SyncPolicy::Always);
        writer.append(&Record::Header(SessionHeader {
            seed,
            shards: 2,
            mode,
            timeout: serve.faults.timeout,
            max_retries: serve.faults.max_retries,
            fingerprint: workload_fingerprint(&specs, &config),
            total_tasks: specs.len() as u64,
        })).unwrap();
        let store = Store::new(&specs, &config, &serve, seed, mode).unwrap();
        let mut live = JournaledStore::new(store, Some(writer));
        let mut held: Vec<(redundancy_sim::TaskId, u32)> = Vec::new();
        let mut guard = 0u64;
        loop {
            match live.request_work() {
                Issue::Work(a) if a.task.0.is_multiple_of(3) => held.push((a.task, a.copy)),
                Issue::Work(a) => { let _ = live.return_result(a.task, a.copy); }
                Issue::Idle => {
                    if let Some((task, copy)) = held.pop() {
                        let _ = live.return_result(task, copy);
                    }
                }
                Issue::Drained => break,
            }
            guard += 1;
            prop_assert!(guard < 2_000_000, "journaled drain did not terminate");
        }
        live.finish().unwrap();
        let bytes = buf.snapshot();

        // Frame walk: every valid truncation point (after each record).
        let mut ends = Vec::new();
        let mut off = 0usize;
        while off + 4 <= bytes.len() {
            let len = u32::from_be_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += 4 + len + 8;
            ends.push(off);
        }
        prop_assert_eq!(*ends.last().unwrap(), bytes.len());

        // Truncation at a drawn offset: a record boundary is a valid
        // journal that recovers and drains; anything else is a
        // structured error.
        let cut = cut_sel as usize % (bytes.len() + 1);
        let opts = ReplayOptions::default();
        match replay_with(&bytes[..cut], &specs, &config, opts) {
            Ok(replayed) => {
                prop_assert!(ends.contains(&cut), "mid-record cut {} replayed", cut);
                let mut recovered = replayed.store;
                recovered.reset_in_flight();
                recovered.drain();
                let stats = recovered.stats();
                prop_assert_eq!(stats.completed_tasks, stats.total_tasks);
                prop_assert_eq!(stats.in_flight, 0);
            }
            Err(e) => {
                prop_assert!(!ends.contains(&cut), "boundary cut {} errored: {}", cut, e);
                // Structured: the error renders and names a position.
                prop_assert!(!format!("{}", e).is_empty());
            }
        }

        // A single flipped bit anywhere is always detected.
        let pos = flip_sel as usize % bytes.len();
        let mut flipped = bytes.clone();
        flipped[pos] ^= 1u8 << flip_bit;
        let verdict = replay_with(&flipped, &specs, &config, opts);
        prop_assert!(verdict.is_err(), "flipped bit {} at {} went undetected", flip_bit, pos);
    }
}

/// A deterministic client schedule drawn from `decisions`: mostly request
/// work, sometimes return (or withhold) a held copy.  It is a pure
/// function of the decisions and the store's replies, so two stores that
/// behave identically see identical calls.
#[derive(Default)]
struct Schedule {
    held: Vec<Assignment>,
    step: usize,
}

impl Schedule {
    /// Run up to `steps` calls against `store`; true once it drained.
    fn run<S: redundancy_sim::WorkStore>(
        &mut self,
        store: &mut S,
        decisions: &[u32],
        steps: usize,
    ) -> bool {
        for _ in 0..steps {
            let d = decisions[self.step % decisions.len()] as usize;
            self.step += 1;
            if !self.held.is_empty() && (d.is_multiple_of(3) || self.held.len() > 64) {
                // Every fifth held copy is never returned: it times out.
                let a = self.held.swap_remove(d % self.held.len());
                if !d.is_multiple_of(5) {
                    let _ = store.return_result(a.task, a.copy);
                }
                continue;
            }
            match store.request_work() {
                Issue::Work(a) => self.held.push(a),
                Issue::Idle => {}
                Issue::Drained => return true,
            }
        }
        false
    }
}

/// Each shard's `(tasks, copies)` by brute force: the documented FNV-1a
/// hash of every id's little-endian bytes, modulo the shard count.
fn brute_force_ownership(specs: &[redundancy_sim::TaskSpec], shards: usize) -> Vec<(u64, u64)> {
    let mut cells = vec![(0u64, 0u64); shards];
    for s in specs {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.id.0.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let cell = &mut cells[(h % shards as u64) as usize];
        cell.0 += 1;
        cell.1 += u64::from(s.multiplicity);
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A store built from the plan's groups is the store the `&[TaskSpec]`
    /// wrapper builds: under one random request/return schedule (with
    /// timeouts firing) the rendered stats, merged outcomes, final RNGs
    /// and journals are byte-identical, in both stream modes at 1, 2, 3
    /// and 4 shards.  The lazily counted per-shard ownership cells match a
    /// brute-force count whether first read on a fresh store, mid-drain
    /// or drained.
    #[test]
    fn stores_built_from_groups_are_the_same_stores(
        tasks in 20u64..400,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        strategy_ix in 0u32..4,
        timeout in 3u64..40,
        seed in 0u64..100_000,
        mid_steps in 1usize..600,
        decisions in vec(0u32..1_000_000, 64usize),
    ) {
        use redundancy_sim::serve::{
            workload_fingerprint, workload_fingerprint_groups, JournalWriter, JournaledStore,
            Record, SessionHeader, SharedBuf, SyncPolicy,
        };
        use redundancy_sim::task::plan_groups;
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, strategy_ix, false, 0);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let groups = plan_groups(&plan);
        for mode in [StreamMode::Single, StreamMode::PerShard] {
            for shards in 1usize..=4 {
                let serve = ServeConfig {
                    faults: FaultModel { timeout, ..FaultModel::none() },
                    ..ServeConfig::new(shards)
                };
                let journaled = |store: Store, fingerprint: u64, total_tasks: u64| {
                    let buf = SharedBuf::new();
                    let mut writer = JournalWriter::new(buf.clone(), SyncPolicy::Off);
                    writer.append(&Record::Header(SessionHeader {
                        seed,
                        shards: shards as u32,
                        mode,
                        timeout,
                        max_retries: serve.faults.max_retries,
                        fingerprint,
                        total_tasks,
                    })).unwrap();
                    (JournaledStore::new(store, Some(writer)), buf)
                };
                let from_groups = || {
                    journaled(
                        Store::from_groups(&groups, &config, &serve, seed, mode).unwrap(),
                        workload_fingerprint_groups(&groups, &config),
                        groups.iter().map(|g| g.count).sum(),
                    )
                };
                // `fresh` and `late` come from groups, `wrapped` through
                // the `&[TaskSpec]` wrapper; each reads its per-shard cells
                // first at a different moment.
                let (mut fresh, fresh_buf) = from_groups();
                let (mut late, late_buf) = from_groups();
                let (mut wrapped, wrapped_buf) = journaled(
                    Store::new(&specs, &config, &serve, seed, mode).unwrap(),
                    workload_fingerprint(&specs, &config),
                    specs.len() as u64,
                );
                let owned = brute_force_ownership(&specs, shards);
                let cells = |store: &JournaledStore<Store>| -> Vec<(u64, u64)> {
                    store
                        .store()
                        .per_shard_stats()
                        .iter()
                        .map(|s| (s.total_tasks, s.total_copies))
                        .collect()
                };
                if mode == StreamMode::PerShard {
                    prop_assert_eq!(cells(&fresh), owned.clone(), "fresh");
                }
                let mut schedules: [Schedule; 3] = Default::default();
                let mut drained = [false; 3];
                for (i, store) in [&mut fresh, &mut wrapped, &mut late].into_iter().enumerate() {
                    drained[i] = schedules[i].run(store, &decisions, mid_steps);
                }
                prop_assert!(drained[0] == drained[1] && drained[1] == drained[2]);
                if mode == StreamMode::PerShard {
                    prop_assert_eq!(cells(&wrapped), owned.clone(), "mid-drain");
                }
                for (i, store) in [&mut fresh, &mut wrapped, &mut late].into_iter().enumerate() {
                    let mut guard = 0;
                    while !drained[i] {
                        drained[i] = schedules[i].run(store, &decisions, 1_000);
                        guard += 1;
                        prop_assert!(guard < 2_000, "drain did not terminate");
                    }
                }
                if mode == StreamMode::PerShard {
                    prop_assert_eq!(cells(&late), owned.clone(), "drained");
                    prop_assert_eq!(cells(&fresh), owned.clone());
                    prop_assert_eq!(cells(&wrapped), owned.clone());
                }
                let render = |s: &JournaledStore<Store>| s.stats().render();
                prop_assert_eq!(render(&fresh), render(&wrapped));
                prop_assert_eq!(render(&late), render(&wrapped));
                prop_assert_eq!(fresh.merged_outcome(), wrapped.merged_outcome());
                prop_assert_eq!(late.merged_outcome(), wrapped.merged_outcome());
                prop_assert_eq!(fresh.final_rngs(), wrapped.final_rngs());
                prop_assert_eq!(late.final_rngs(), wrapped.final_rngs());
                for store in [fresh, wrapped, late] {
                    store.finish().unwrap();
                }
                let journal = wrapped_buf.snapshot();
                prop_assert!(journal.len() > 100, "journal not written");
                prop_assert!(fresh_buf.snapshot() == journal, "{:?} x{}", mode, shards);
                prop_assert!(late_buf.snapshot() == journal, "{:?} x{}", mode, shards);
            }
        }
    }
}

/// What a client knows from the replies it has seen, under a timeout that
/// never fires: which copies it holds, and each issued task's multiplicity
/// and returned copies.
#[derive(Default)]
struct ReturnModel {
    /// Held copies, oldest issue first.
    held: Vec<Assignment>,
    /// Per task issued: (multiplicity, copies returned).
    tasks: HashMap<u64, (u32, u32)>,
    /// Copies returned, in return order.
    returned: Vec<(TaskId, u32)>,
}

impl ReturnModel {
    fn issued(&mut self, a: Assignment) {
        self.tasks.entry(a.task.0).or_insert((a.multiplicity, 0));
        self.held.push(a);
    }

    /// The reply the store owes a return of `copy` of `task`.
    fn expect(&self, task: TaskId, copy: u32, total: u64) -> Result<ReturnAck, ServeError> {
        if task.0 >= total {
            return Err(ServeError::UnknownTask(task));
        }
        if self.held.iter().any(|a| a.task == task && a.copy == copy) {
            let (mult, returned) = self.tasks[&task.0];
            return Ok(ReturnAck {
                task_complete: returned + 1 == mult,
            });
        }
        match self.tasks.get(&task.0) {
            Some(&(multiplicity, _)) if copy >= multiplicity => Err(ServeError::CopyOutOfRange {
                task,
                copy,
                multiplicity,
            }),
            _ => Err(ServeError::NotInFlight { task, copy }),
        }
    }

    /// The `(activated, completed)` task counts the store owes: a task
    /// activates with its first issue and completes on its last return.
    fn tasks_seen(&self) -> (u64, u64) {
        let completed = self.tasks.values().filter(|&&(m, r)| r == m).count();
        (self.tasks.len() as u64, completed as u64)
    }

    /// Send one return, check the reply against the model, and record
    /// an accepted return.
    fn send(
        &mut self,
        store: &mut Store,
        task: TaskId,
        copy: u32,
        total: u64,
    ) -> Result<(), String> {
        let want = self.expect(task, copy, total);
        let got = store.return_result(task, copy);
        if got != want {
            return Err(format!(
                "return {} {copy}: got {got:?}, want {want:?}",
                task.0
            ));
        }
        if got.is_ok() {
            let ix = self
                .held
                .iter()
                .position(|a| a.task == task && a.copy == copy)
                .expect("an accepted copy was held");
            self.held.remove(ix);
            self.tasks.get_mut(&task.0).expect("issued task").1 += 1;
            self.returned.push((task, copy));
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Returns answer what the client's own model of the session says,
    /// whether the task is live, judged but still in the window, retired
    /// off it, or never issued: `ok complete` exactly on the last open
    /// copy, `copy-out-of-range` with the multiplicity the `work` reply
    /// showed, `not-in-flight` for a copy already returned or any copy of
    /// a task never issued (no range check), and `unknown-task` past the
    /// workload.  Random schedules hold a few early copies for a drawn
    /// stretch, return the rest in a drawn order, resend returned copies,
    /// send copies equal to the multiplicity and `u32::MAX`, and send ids
    /// never issued and past the workload; both stream modes, 1 to 4
    /// shards, with and without honest errors, invariants checked as they
    /// go.
    #[test]
    fn returns_answer_as_the_client_model_says(
        tasks in 20u64..300,
        eps_pct in 10u32..90,
        p_pct in 0u32..50,
        strategy_ix in 0u32..4,
        err_pct in 0u32..2,
        seed in 0u64..100_000,
        pinned in 0usize..8,
        release_at in 0usize..3_000,
        decisions in vec(0u32..1_000_000, 64usize),
    ) {
        let (plan, config) = campaign_shape(tasks, eps_pct, p_pct, strategy_ix, false, err_pct * 3);
        let specs = redundancy_sim::task::expand_plan(&plan);
        let total = specs.len() as u64;
        let subjects = (0..=4).map(|shards| match shards {
            0 => Store::new(&specs, &config, &patient(1), seed, StreamMode::Single).unwrap(),
            _ => Store::new(&specs, &config, &patient(shards), seed, StreamMode::PerShard)
                .unwrap(),
        });
        for (shards, mut store) in subjects.enumerate() {
            let mut model = ReturnModel::default();
            let mut drained = false;
            for step in 0..3_000usize {
                let d = decisions[step % decisions.len()].wrapping_mul(step as u32 + 1) >> 4;
                // The first `pinned` copies issued stay held until `release_at`.
                let free = if step < release_at { pinned.min(model.held.len()) } else { 0 };
                let (task, copy) = match d % 16 {
                    0..=6 if !drained => match store.request_work() {
                        Issue::Work(a) => {
                            model.issued(a);
                            continue;
                        }
                        Issue::Idle => {
                            let a = model.held[0];
                            (a.task, a.copy)
                        }
                        Issue::Drained => {
                            drained = true;
                            continue;
                        }
                    },
                    _ if model.held.len() > free && d % 16 < 10 => {
                        let a = model.held[free + d as usize % (model.held.len() - free)];
                        (a.task, a.copy)
                    }
                    10 | 11 if !model.returned.is_empty() => {
                        model.returned[d as usize % model.returned.len()]
                    }
                    12 | 13 if !model.tasks.is_empty() => {
                        let a = model.held.first().map_or_else(
                            || model.returned[d as usize % model.returned.len()].0,
                            |a| a.task,
                        );
                        let mult = model.tasks[&a.0].0;
                        (a, if d % 16 == 12 { mult } else { u32::MAX })
                    }
                    14 => (TaskId(u64::from(d) % total), d % 5),
                    15 => (TaskId(if d % 2 == 0 { u64::MAX } else { total + u64::from(d % 3) }), 0),
                    _ => continue,
                };
                if let Err(e) = model.send(&mut store, task, copy, total) {
                    prop_assert!(false, "{} shards (0: single stream), step {}: {}",
                        shards, step, e);
                }
                if step % 50 == 0 {
                    store.check_invariants();
                    let stats = store.stats();
                    prop_assert_eq!((stats.activated_tasks, stats.completed_tasks),
                        model.tasks_seen());
                }
            }
            // Return everything still held, oldest first, then drain.
            while let Some(a) = model.held.first().copied() {
                if let Err(e) = model.send(&mut store, a.task, a.copy, total) {
                    prop_assert!(false, "{} shards, final returns: {}", shards, e);
                }
            }
            loop {
                match store.request_work() {
                    Issue::Work(a) => {
                        model.issued(a);
                        if let Err(e) = model.send(&mut store, a.task, a.copy, total) {
                            prop_assert!(false, "{} shards, drain: {}", shards, e);
                        }
                    }
                    Issue::Idle => prop_assert!(false, "idle with nothing held"),
                    Issue::Drained => break,
                }
            }
            store.check_invariants();
            prop_assert_eq!(model.tasks_seen(), (total, total));
            let stats = store.stats();
            prop_assert_eq!((stats.activated_tasks, stats.completed_tasks), (total, total));
            for (task, copy) in model.returned.iter().step_by(7) {
                let want = model.expect(*task, *copy, total);
                prop_assert_eq!(store.return_result(*task, *copy), want);
            }
        }
    }
}
