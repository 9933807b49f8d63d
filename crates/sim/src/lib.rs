#![warn(missing_docs)]

//! # redundancy-sim — a volunteer distributed-computing platform simulator
//!
//! The paper evaluates its distribution schemes analytically; this crate is
//! the synthetic platform that *exercises* them end-to-end and confirms
//! every closed form empirically.  It models exactly the world of the
//! paper's Section 2:
//!
//! * a **supervisor** creates tasks according to a deployable
//!   [`RealizedPlan`](redundancy_core::RealizedPlan) (multiplicities, tail
//!   partition, ringers), hands assignments to participants, collects
//!   results, and compares copies (flagging any disagreement; ringer and
//!   verified tasks are checked against precomputed answers);
//! * a pool of **participants** executes assignments; honest ones return
//!   the correct result (optionally with a non-malicious error rate — the
//!   fault model of the platforms the paper cites);
//! * a **global colluding adversary** controls a share of the platform —
//!   either a fixed proportion of assignments, or a set of Sybil accounts
//!   in a participant pool — sees how many copies of each task she holds,
//!   and cheats according to a pluggable [`CheatStrategy`]: identical wrong
//!   results on every copy of the attacked task;
//! * the supervisor's verdicts are tallied per tuple size, yielding
//!   empirical detection probabilities `P̂_{k,p}` with Wilson intervals,
//!   directly comparable to the paper's `P_{k,p}` formulas.
//!
//! [`engine::run_campaign`] materializes participants, result values, and
//! the full compare-based verification path (what a real deployment does);
//! the Monte-Carlo driver in [`experiment`] runs it under deterministic
//! seeds with multi-threaded chunking.  [`two_phase`] additionally
//! implements Appendix A's two-phase simple-redundancy protocol and its
//! `p²N` collusion bound.
//!
//! The [`faults`] / [`retry`] modules extend the platform beyond the
//! paper's reliable-delivery assumption: assignments can drop, straggle
//! past a timeout, or return corrupted, and the supervisor re-issues
//! failures with capped exponential backoff.  All latency is abstract
//! ticks and every draw is rate-gated, so a zero-fault model reproduces
//! the baseline engine bit for bit.
//!
//! The [`churn`] / [`events`] modules lift the remaining static-pool
//! assumption: a discrete-event worker population (deterministic
//! `(tick, seq)`-ordered queue) where hosts enter, leave, and fail
//! mid-task, copies are reassigned when their holder departs, and census
//! checkpoints run the batched kernel over the degraded multiset to track
//! achieved `P_k` and realized redundancy over time.  A zero-churn model
//! likewise degenerates to the batched kernel bit for bit.
//!
//! The [`serve`] module finally runs the scheme *online*: a long-lived
//! supervisor with a sharded in-memory assignment store deals copies on
//! demand in the batch kernel's exact RNG order, tracks them in flight
//! with tick-based timeouts, judges returns incrementally, and speaks a
//! length-prefixed request/response protocol over any byte stream.  A
//! drained serve session reproduces the batched kernel bit for bit.

pub mod adversary;
pub mod churn;
pub mod engine;
pub mod events;
pub mod experiment;
pub mod faults;
pub mod outcome;
pub mod participant;
pub mod retry;
pub mod rounds;
pub mod serve;
pub mod supervisor;
pub mod survival;
pub mod task;
pub mod two_phase;

pub use adversary::{AdversaryModel, CheatStrategy};
pub use churn::{
    churn_experiment, churn_soak, run_campaign_with_churn_scratch, CensusSample, ChurnEstimate,
    ChurnModel, ChurnOutcome, SoakReport,
};
pub use engine::{
    run_campaign, run_campaign_groups, run_campaign_groups_with_faults, run_campaign_with_faults,
    run_campaign_with_faults_scratch, run_campaign_with_scratch, CampaignAccumulator,
    CampaignConfig, CampaignScratch,
};
pub use events::EventQueue;
pub use experiment::{
    detection_experiment, faulty_detection_experiment, sampled_detection_experiment,
    DetectionEstimate, ExperimentConfig,
};
pub use faults::FaultModel;
pub use outcome::CampaignOutcome;
pub use participant::ParticipantPool;
pub use retry::{backoff_ticks, deliver_assignment, Delivery};
pub use rounds::{
    run_platform, run_platform_with_faults, PlatformConfig, PlatformHistory, RoundReport,
};
pub use serve::{
    assert_drain_equivalent, drain_equivalence, drain_session, parse_journal, replay,
    replay_groups, replay_with, serve_connection, serve_experiment, serve_readiness_loop,
    workload_fingerprint, workload_fingerprint_groups, AssignmentStore, ConcurrentStore,
    DrainState, JournalError, JournalSink, JournalWriter, JournaledStore, LoopOptions,
    ParsedJournal, Record, ReplayOptions, Replayed, ServeConfig, ServeSession, ServeStats,
    SessionHeader, SharedBuf, StoreEnum, StreamMode, SyncPolicy, WorkStore,
};
pub use supervisor::Supervisor;
pub use survival::{survival_experiment, survival_experiment_with, SurvivalOutcome};
pub use task::{
    correct_result, grouped_specs, plan_groups, ResultValue, SpecGroup, TaskId, TaskSpec,
};
pub use two_phase::{two_phase_trial, TwoPhaseConfig, TwoPhaseOutcome};
