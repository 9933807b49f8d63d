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
//! One store type, [`Store`] ([`store`]), serves in two stream modes
//! ([`StreamMode`]), trading different determinism contracts:
//!
//! * **single stream** — one shard machine over the whole workload on one
//!   session RNG.  A drained session reproduces the batch kernel **bit for
//!   bit** — same [`CampaignOutcome`], same final RNG state — under any
//!   client interleaving.  This is the bit-compat oracle the `ext_serve`
//!   snapshots pin.
//! * **per-shard streams** — one machine per hash shard, each with its own
//!   task window, stats cell, and `SeedSequence::derive(shard)` RNG
//!   stream.  A drained store's merged outcome, per-shard final RNGs, and
//!   stats are byte-identical across any client count and request
//!   schedule at a fixed shard count; the matching oracle drains
//!   shard-by-shard.
//!
//! The store is built from a plan's spec groups
//! ([`plan_groups`](crate::task::plan_groups)) through
//! [`Store::from_groups`], [`workload_fingerprint_groups`] and
//! [`replay_groups`], which is how `redundancy serve` builds it in every
//! mode: start-up does O(groups) work and holds O(groups) memory before
//! the first request, and the store's `u32` task limit is checked before
//! anything per task is allocated.  Task state appears only as tasks
//! activate.  The `&[TaskSpec]` entry points ([`Store::new`],
//! [`workload_fingerprint`], [`replay_with`]) group their input once and
//! call the groups path.
//!
//! One thread owns the store: every method that changes it takes `&mut
//! self`.  [`epoll`] supplies the Linux readiness loop both TCP serve
//! modes run on, one thread answering one request at a time, and the
//! stdio transport ([`serve_connection`]) is one thread too, so neither
//! takes a lock.  [`journal`] layers an append-only, checksummed event log
//! over any [`WorkStore`] so a crashed session can be [`replay`]ed back to
//! a bit-identical store.
//!
//! Three older names remain as thin wrappers, because the end-to-end
//! benchmark's host and oracle compile against them: [`StoreEnum`] (an
//! alias of [`Store`]), [`ServeSession`] (a single-stream store with a
//! reply buffer) and [`ConcurrentStore`] (a per-shard store behind one
//! lock, for a store shared across threads).

pub mod concurrent;
pub mod epoll;
pub mod journal;
pub mod protocol;
mod shard;
pub mod store;

pub use concurrent::{ConcurrentStore, StreamMode};
pub use epoll::{serve_readiness_loop, LoopOptions};
pub use journal::{
    parse_journal, replay, replay_groups, replay_with, workload_fingerprint,
    workload_fingerprint_groups, JournalError, JournalSink, JournalWriter, JournaledStore,
    ParsedJournal, Record, ReplayOptions, Replayed, SessionHeader, SharedBuf, SyncPolicy,
};
pub use protocol::{
    decode_frames, handle_request, read_frame, read_frame_into, script_frames, serve_connection,
    write_frame, Frame, FrameKind, Reply, ServeSession, SessionEnd, MAX_FRAME,
};
pub use store::{
    drain_session, serve_experiment, Assignment, Issue, ReturnAck, ServeConfig, ServeError,
    ServeStats, Store,
};

use crate::outcome::CampaignOutcome;
use crate::task::TaskId;
use redundancy_stats::DeterministicRng;

/// Everything a serve transport or driver needs from a live store: the
/// protocol verbs (issue/return/stats), the drained-state surface the
/// determinism oracles compare (outcome, final RNG streams, stats), and
/// the recovery hooks the journal layer wraps.
///
/// [`Store`] implements it, as do the journaling decorator
/// [`JournaledStore`], the [`ServeSession`] wrapper and
/// [`&ConcurrentStore`](ConcurrentStore) (one lock, so the *shared
/// reference* is the mutable handle), so [`handle_request`] and the CLI's
/// serve driver are written once, generically.
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

    /// A clone of every RNG stream's current state: one element for a
    /// single-stream store, one per shard for a per-shard store.  The
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

/// The store's former name, kept for the benchmark's host.
pub type StoreEnum = Store;

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
