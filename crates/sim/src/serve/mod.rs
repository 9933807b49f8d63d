//! The live supervisor: `redundancy serve`'s sharded assignment store and
//! its length-prefixed wire protocol.
//!
//! Everything else in this crate runs the paper's redundancy scheme as a
//! *batch*: expand the plan, loop the kernel, read the tallies.  This
//! module runs it as a *system* — a long-lived supervisor that hands out
//! task copies on demand, tracks them in flight with tick-based timeouts,
//! judges returns incrementally, and answers a tiny request/response
//! protocol ([`protocol`]) over any byte stream.
//!
//! Two store flavors implement the same [`WorkStore`] surface, trading
//! different determinism contracts for different concurrency:
//!
//! * [`store`] — the **single-stream** [`AssignmentStore`]: one session
//!   RNG, centralized dispatch.  A drained session reproduces the batch
//!   kernel **bit for bit** — same
//!   [`CampaignOutcome`], same final RNG state —
//!   under any client interleaving.  This is the
//!   bit-compat oracle the `ext_serve` snapshots pin; clients serialize
//!   on one lock.
//! * [`concurrent`] — the **per-shard-stream** [`ConcurrentStore`]: each
//!   shard owns its own lock, free-list, task arena, stats cell, and a
//!   `SeedSequence::derive(shard)` RNG stream, so clients on different
//!   shards proceed in parallel.  A drained store's merged outcome,
//!   per-shard final RNGs, and stats are byte-identical across any
//!   client count and request schedule at a fixed shard count; the
//!   matching oracle drains shard-by-shard.
//!
//! Both run the same shard state machine over a flat task arena: one
//! machine over the whole workload, or one per shard.
//!
//! [`epoll`] supplies the Linux readiness-loop transport both TCP serve
//! modes run on (with the threaded loop kept as the portable fallback),
//! and [`journal`] layers an append-only, checksummed event log over any
//! [`WorkStore`] so a crashed session can be [`replay`]ed back to a
//! bit-identical store.

pub mod concurrent;
pub mod epoll;
pub mod journal;
pub mod protocol;
mod shard;
pub mod store;

pub use concurrent::{ConcurrentStore, StreamMode};
pub use epoll::{serve_readiness_loop, LoopOptions};
pub use journal::{
    parse_journal, replay, replay_with, workload_fingerprint, JournalError, JournalSink,
    JournalWriter, JournaledStore, ParsedJournal, Record, ReplayOptions, Replayed, SessionHeader,
    SharedBuf, SyncPolicy,
};
pub use protocol::{
    decode_frames, handle_request, read_frame, read_frame_into, script_frames, serve_connection,
    write_frame, Frame, FrameKind, Reply, ServeSession, SessionEnd, MAX_FRAME,
};
pub use store::{
    drain_session, serve_experiment, Assignment, AssignmentStore, Issue, ReturnAck, ServeConfig,
    ServeError, ServeStats,
};

use crate::engine::CampaignConfig;
use crate::outcome::CampaignOutcome;
use crate::task::{TaskId, TaskSpec};
use redundancy_stats::DeterministicRng;

/// Everything a serve transport or driver needs from a live store: the
/// protocol verbs (issue/return/stats), the drained-state surface the
/// determinism oracles compare (outcome, final RNG streams, stats), and
/// the recovery hooks the journal layer wraps.
///
/// Both store flavors implement it — [`ServeSession`] (single stream,
/// `&mut self` behind one lock) and [`&ConcurrentStore`](ConcurrentStore)
/// (per-shard locks, so the *shared reference* is the mutable handle) —
/// as do the [`StoreEnum`] dispatcher and the journaling decorator
/// [`JournaledStore`], so [`handle_request`] and the CLI's serve driver
/// are written once, generically.
pub trait WorkStore {
    /// Hand out the next copy of work (advancing the tick clock, which
    /// expires overdue in-flight copies).
    fn request_work(&mut self) -> Issue;

    /// Accept the return of one in-flight copy.
    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError>;

    /// The live session snapshot.
    fn stats(&self) -> ServeStats;

    /// Fold the partial outcomes into one [`CampaignOutcome`].
    fn merged_outcome(&self) -> CampaignOutcome;

    /// A clone of every RNG stream's current state: one element for the
    /// single-stream store, one per shard for the concurrent store.  The
    /// drained-state oracles (and journal replay) compare these exactly.
    fn final_rngs(&self) -> Vec<DeterministicRng>;

    /// True once every task has been judged.
    fn is_drained(&self) -> bool;

    /// Running `(timeouts, lost)` totals.  The journal layer snapshots
    /// these around [`request_work`](Self::request_work) so timeout
    /// expiries — the one state change a tick makes besides the issue
    /// itself — land in the log as explicit deltas.
    fn expiry_counters(&self) -> (u64, u64);

    /// Revert every in-flight copy to pending and re-queue it under its
    /// current attempt number (no timeout or retry is charged), returning
    /// how many copies were reverted.  Recovery calls this after a crash:
    /// the issued copies died with their clients, and re-queueing them
    /// as-is lets a recovered drain end in exactly the state an
    /// uninterrupted drain would have reached.
    fn reset_in_flight(&mut self) -> u64;

    /// Hook invoked by [`handle_request`] when a client sends `shutdown`
    /// (the journal layer logs and flushes here).  Default: no-op.
    fn note_shutdown(&mut self) {}

    /// Drain to completion, returning every copy as soon as it is issued.
    fn drain(&mut self) {
        loop {
            match self.request_work() {
                Issue::Work(a) => {
                    self.return_result(a.task, a.copy)
                        .expect("drain returned an issued copy");
                }
                Issue::Idle => continue,
                Issue::Drained => break,
            }
        }
    }
}

/// A store of either flavor behind one concrete type, so drivers that
/// choose the flavor at runtime (the CLI, journal [`replay`]) don't need
/// trait objects over [`WorkStore`]'s non-object-safe surface.
// One store exists per session and it is never moved on the hot path,
// so the size gap between the inline `ServeSession` and the
// mutex-backed `ConcurrentStore` costs nothing worth a Box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum StoreEnum {
    /// The single-stream [`ServeSession`] (store + session RNG).
    Single(ServeSession),
    /// The per-shard-stream [`ConcurrentStore`].
    PerShard(ConcurrentStore),
}

impl StoreEnum {
    /// Build the store flavor `mode` selects over `tasks`.
    pub fn new(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
        mode: StreamMode,
    ) -> Result<Self, String> {
        Ok(match mode {
            StreamMode::Single => StoreEnum::Single(ServeSession::new(tasks, config, serve, seed)?),
            StreamMode::PerShard => {
                StoreEnum::PerShard(ConcurrentStore::new(tasks, config, serve, seed)?)
            }
        })
    }

    /// Which stream mode this store runs under.
    pub fn mode(&self) -> StreamMode {
        match self {
            StoreEnum::Single(_) => StreamMode::Single,
            StoreEnum::PerShard(_) => StreamMode::PerShard,
        }
    }

    /// The concurrent store, if this is the per-shard flavor.
    pub fn as_concurrent(&self) -> Option<&ConcurrentStore> {
        match self {
            StoreEnum::Single(_) => None,
            StoreEnum::PerShard(c) => Some(c),
        }
    }

    /// Unwrap into the concurrent store, if this is the per-shard flavor.
    pub fn into_concurrent(self) -> Option<ConcurrentStore> {
        match self {
            StoreEnum::Single(_) => None,
            StoreEnum::PerShard(c) => Some(c),
        }
    }
}

impl WorkStore for StoreEnum {
    fn request_work(&mut self) -> Issue {
        match self {
            StoreEnum::Single(s) => WorkStore::request_work(s),
            StoreEnum::PerShard(c) => c.request_work(),
        }
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        match self {
            StoreEnum::Single(s) => WorkStore::return_result(s, task, copy),
            StoreEnum::PerShard(c) => c.return_result(task, copy),
        }
    }

    fn stats(&self) -> ServeStats {
        match self {
            StoreEnum::Single(s) => s.store.stats(),
            StoreEnum::PerShard(c) => c.stats(),
        }
    }

    fn merged_outcome(&self) -> CampaignOutcome {
        match self {
            StoreEnum::Single(s) => s.store.merged_outcome(),
            StoreEnum::PerShard(c) => c.merged_outcome(),
        }
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        match self {
            StoreEnum::Single(s) => vec![s.rng.clone()],
            StoreEnum::PerShard(c) => c.final_rngs(),
        }
    }

    fn is_drained(&self) -> bool {
        match self {
            StoreEnum::Single(s) => s.store.is_drained(),
            StoreEnum::PerShard(c) => c.is_drained(),
        }
    }

    fn expiry_counters(&self) -> (u64, u64) {
        match self {
            StoreEnum::Single(s) => s.store.expiry_counters(),
            StoreEnum::PerShard(c) => c.expiry_counters(),
        }
    }

    fn reset_in_flight(&mut self) -> u64 {
        match self {
            StoreEnum::Single(s) => s.store.reset_in_flight(),
            StoreEnum::PerShard(c) => c.reset_in_flight(),
        }
    }
}

/// The comparable endpoint of a drained (or replayed) store: outcome,
/// final RNG streams, and — when the source tracks them — live stats.
///
/// Every serve determinism oracle compares two of these: batch kernel vs
/// drained session (no stats on the batch side), interleaved drain vs
/// shard-by-shard drain, original session vs journal replay.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainState {
    /// The merged campaign outcome.
    pub outcome: CampaignOutcome,
    /// Every RNG stream's final state (one per shard, or just the session
    /// stream).
    pub rngs: Vec<DeterministicRng>,
    /// The final stats snapshot; `None` for sources (the batch kernel)
    /// that have no serve-side counters to compare.
    pub stats: Option<ServeStats>,
}

impl DrainState {
    /// Snapshot a live store's comparable state.
    pub fn of<S: WorkStore>(store: &S) -> Self {
        DrainState {
            outcome: store.merged_outcome(),
            rngs: store.final_rngs(),
            stats: Some(store.stats()),
        }
    }

    /// The batch kernel's endpoint: an outcome and one RNG, no stats.
    pub fn batch(outcome: CampaignOutcome, rng: DeterministicRng) -> Self {
        DrainState {
            outcome,
            rngs: vec![rng],
            stats: None,
        }
    }
}

/// Compare two drained states field by field, naming the first divergence.
/// Stats are compared only when both sides carry them.
pub fn drain_equivalence(a: &DrainState, b: &DrainState) -> Result<(), String> {
    if a.outcome != b.outcome {
        return Err("merged outcome diverged".into());
    }
    if a.rngs != b.rngs {
        if a.rngs.len() != b.rngs.len() {
            return Err(format!(
                "stream count diverged: {} vs {}",
                a.rngs.len(),
                b.rngs.len()
            ));
        }
        let s = a
            .rngs
            .iter()
            .zip(&b.rngs)
            .position(|(x, y)| x != y)
            .unwrap_or(0);
        return Err(format!("final RNG state of stream {s} diverged"));
    }
    if let (Some(x), Some(y)) = (&a.stats, &b.stats) {
        if let Some(field) = first_stats_divergence(x, y) {
            return Err(format!("stats field `{field}` diverged"));
        }
    }
    Ok(())
}

/// Panic unless two drained states are equivalent per
/// [`drain_equivalence`] — the assertion every serve oracle shares.
#[track_caller]
pub fn assert_drain_equivalent(a: &DrainState, b: &DrainState) {
    if let Err(e) = drain_equivalence(a, b) {
        panic!("drained stores are not equivalent: {e}");
    }
}

/// The name of the first [`ServeStats`] counter that differs.
fn first_stats_divergence(a: &ServeStats, b: &ServeStats) -> Option<&'static str> {
    let pairs = [
        ("total_tasks", a.total_tasks, b.total_tasks),
        ("activated_tasks", a.activated_tasks, b.activated_tasks),
        ("completed_tasks", a.completed_tasks, b.completed_tasks),
        ("total_copies", a.total_copies, b.total_copies),
        ("issued", a.issued, b.issued),
        ("returned", a.returned, b.returned),
        ("in_flight", a.in_flight, b.in_flight),
        ("requeued", a.requeued, b.requeued),
        ("lost", a.lost, b.lost),
        ("timeouts", a.timeouts, b.timeouts),
        ("retries", a.retries, b.retries),
        ("cheats_attempted", a.cheats_attempted, b.cheats_attempted),
        ("cheats_detected", a.cheats_detected, b.cheats_detected),
        ("wrong_accepted", a.wrong_accepted, b.wrong_accepted),
        ("false_flags", a.false_flags, b.false_flags),
        ("unresolved_tasks", a.unresolved_tasks, b.unresolved_tasks),
    ];
    pairs
        .iter()
        .find(|(_, x, y)| x != y)
        .map(|(name, _, _)| *name)
}
