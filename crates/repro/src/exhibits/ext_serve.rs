//! Extension exhibit: the live supervisor vs the batched kernel.
//!
//! Everything the paper measures is a *batch* computation: draw the whole
//! campaign, tally, report.  The `serve` subsystem runs the same scheme as
//! a long-lived supervisor — a sharded assignment store deals copies on
//! demand, tracks them in flight, and judges returns incrementally — so
//! the natural question is whether serving changes the statistics.
//!
//! It must not, and this exhibit's `passed` flag asserts exactly that: a
//! *drained* serve session (every copy requested and returned) is
//! **bit-identical** to `run_campaign` on the same seed — same outcome
//! counters, across the full Monte-Carlo driver — at 1, 2, and 4 store
//! shards.  Sharding, dispatch order, and incremental judging are pure
//! bookkeeping; the Balanced multiplicity mix (hence `P_k = ε`) is
//! preserved draw for draw.
//!
//! The report also prints a scripted wire-protocol session (the exact
//! frames a client exchanges with `redundancy serve --stdio`) so the
//! transcript in EXPERIMENTS.md can never drift from the code.

use crate::{Exhibit, ExhibitCtx, Report};
use redundancy_core::RealizedPlan;
use redundancy_json::num_u64;
use redundancy_sim::experiment::{detection_experiment_with, DetectionEstimate};
use redundancy_sim::serve::{
    decode_frames, handle_request, script_frames, serve_connection, ServeConfig, SessionEnd, Store,
    StreamMode, WorkStore,
};
use redundancy_sim::task::expand_plan;
use redundancy_sim::{
    serve_experiment, AdversaryModel, CampaignConfig, CheatStrategy, ExperimentConfig,
};
use redundancy_stats::table::{fnum, Table};
use redundancy_stats::{parallel_sweep, sweep_thread_split};

pub struct ExtServe;

/// Realized redundancy factor of an estimate (issued assignments per task).
fn realized_factor(est: &DetectionEstimate) -> f64 {
    if est.outcome.tasks == 0 {
        0.0
    } else {
        est.outcome.assignments as f64 / est.outcome.tasks as f64
    }
}

impl Exhibit for ExtServe {
    fn name(&self) -> &'static str {
        "ext_serve"
    }

    fn summary(&self) -> &'static str {
        "drained live-serve sessions are bit-identical to the batched kernel"
    }

    fn paper_ref(&self) -> &'static str {
        "(ours)"
    }

    fn run(&self, ctx: &ExhibitCtx) -> Report {
        let mut report = Report::new(
            self.name(),
            "Extension: live serving",
            "The live supervisor (`redundancy serve`): a sharded assignment store\n\
             deals task copies on demand in the batched kernel's RNG order, tracks\n\
             them in flight, and judges returns incrementally.  Draining a session\n\
             must reproduce the batched kernel bit for bit at every shard count.\n\
             N = 4,000 tasks, eps = 0.5, p = 0.2.",
        );

        let n = 4_000u64;
        let eps = 0.5;
        let p = 0.2;
        let campaigns = 8 * ctx.trials_scale;
        let plan = RealizedPlan::balanced(n, eps).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p },
            CheatStrategy::AtLeast { min_copies: 1 },
        );

        // The oracle: the batched-kernel experiment, then the same seeds
        // drained through the serve store at 1, 2, and 4 shards.
        let shard_counts = [1usize, 2, 4];
        let (outer, inner) = sweep_thread_split(ctx.threads, shard_counts.len());
        let config = ExperimentConfig::new(campaigns, ctx.seed).with_threads(inner);
        let baseline = detection_experiment_with(&plan, &campaign, &config);
        let results: Vec<DetectionEstimate> =
            parallel_sweep(outer, &shard_counts, |_i, &shards| {
                serve_experiment(&plan, &campaign, &ServeConfig::new(shards), &config)
            });
        let all_identical = results.iter().all(|est| est.outcome == baseline.outcome);
        report.passed = all_identical;

        let closed_form = 1.0 - (1.0 - eps).powf(1.0 - p);
        report.text(format!(
            "Closed-form detection: {}.  Every drained serve session matches the\n\
             batched kernel bitwise: {}.",
            fnum(closed_form, 4),
            if all_identical { "yes" } else { "NO" }
        ));
        report.blank();

        report.text("--- shard sweep (same seeds, store resharded) ---");
        let mut table = Table::new(&[
            "shards",
            "detection",
            "realized factor",
            "wrong accepted",
            "bit-identical",
        ]);
        table.numeric();
        let mut csv_rows = Vec::new();
        let mut totals = (0u64, 0u64);
        for (&shards, est) in shard_counts.iter().zip(&results) {
            totals.0 += est.outcome.tasks;
            totals.1 += est.outcome.assignments;
            let identical = est.outcome == baseline.outcome;
            table.row(&[
                &shards.to_string(),
                &fnum(est.overall().estimate(), 4),
                &fnum(realized_factor(est), 3),
                &est.outcome.wrong_accepted.to_string(),
                if identical { "yes" } else { "NO" },
            ]);
            csv_rows.push(vec![
                shards.to_string(),
                fnum(est.overall().estimate(), 6),
                fnum(realized_factor(est), 6),
                est.outcome.wrong_accepted.to_string(),
                u64::from(identical).to_string(),
            ]);
        }
        report.table(table);
        report.blank();

        // A scripted wire session over a tiny fixed workload: the exact
        // frames `redundancy serve --stdio` exchanges, pinned by the golden
        // snapshot so documentation can never drift from the protocol.
        report.text("--- scripted protocol session (3 tasks x 2 copies) ---");
        let tiny = expand_plan(&RealizedPlan::k_fold(3, 2, eps).unwrap());
        let mut session = Store::new(
            &tiny,
            &campaign,
            &ServeConfig::new(2),
            ctx.seed,
            StreamMode::Single,
        )
        .expect("tiny workload is valid");
        let script = [
            "request-work",
            "return-result 0 0",
            "request-work",
            "return-result 0 1",
            "request-work",
            "request-work",
            "return-result 1 1",
            "return-result 1 0",
            "request-work",
            "return-result 2 0",
            "request-work",
            "return-result 2 1",
            "request-work",
            "shutdown",
        ];
        let mut input: &[u8] = &script_frames(&script)[..];
        let mut output = Vec::new();
        let end = serve_connection(&mut input, &mut output, |req, reply| {
            handle_request(&mut session, req, reply)
        })
        .expect("in-memory transport cannot fail");
        let replies = decode_frames(&output);
        let mut transcript = Table::new(&["client sends", "supervisor replies"]);
        for (req, reply) in script.iter().zip(&replies) {
            transcript.row(&[req, reply.as_str()]);
        }
        report.table(transcript);
        let session_ok = session.is_drained() && end == SessionEnd::Shutdown;
        // The per-shard-stream store carries its own determinism contract:
        // an interleaved drain must match a shard-by-shard drain bitwise —
        // merged outcome, per-shard final RNG states, stats.  Folded into
        // `passed` with no printed output so the golden snapshot bytes
        // stay fixed.
        let sharded_ok = {
            let specs = expand_plan(&plan);
            let per_shard = || {
                Store::new(
                    &specs,
                    &campaign,
                    &ServeConfig::new(2),
                    ctx.seed,
                    StreamMode::PerShard,
                )
                .expect("balanced workload is valid")
            };
            let mut served = per_shard();
            served.drain();
            let mut oracle = per_shard();
            oracle.drain_shard_by_shard();
            served.merged_outcome() == oracle.merged_outcome()
                && served.final_rngs() == oracle.final_rngs()
                && served.stats() == oracle.stats()
        };
        // The crash-recovery contract, also folded into `passed` with no
        // printed output: journal a partially drained session, tear the
        // log mid-append as a crash would, replay the verified prefix,
        // finish the drain, and require bitwise equality with a session
        // that never crashed.
        let recovery_ok = {
            use redundancy_sim::serve::{
                drain_equivalence, replay_with, workload_fingerprint, DrainState, Issue,
                JournalWriter, JournaledStore, Record, ReplayOptions, SessionHeader, SharedBuf,
                SyncPolicy,
            };
            // The same withholding drive on both sides: hold every third
            // copy in flight so the crash leaves real recovery work
            // (timeouts fire on the default 8-tick clock).
            fn partial_drive<S: WorkStore>(store: &mut S) {
                let mut held = Vec::new();
                for step in 0..240usize {
                    match store.request_work() {
                        Issue::Work(a) if step % 3 == 0 => held.push((a.task, a.copy)),
                        Issue::Work(a) => {
                            let _ = store.return_result(a.task, a.copy);
                        }
                        Issue::Idle | Issue::Drained => {
                            if let Some((task, copy)) = held.pop() {
                                let _ = store.return_result(task, copy);
                            }
                        }
                    }
                }
            }
            let specs = expand_plan(&plan);
            let serve = ServeConfig::new(2);
            let fresh_store = || {
                Store::new(&specs, &campaign, &serve, ctx.seed, StreamMode::Single)
                    .expect("balanced workload is valid")
            };
            let buf = SharedBuf::new();
            let mut writer = JournalWriter::new(buf.clone(), SyncPolicy::Always);
            writer
                .append(&Record::Header(SessionHeader {
                    seed: ctx.seed,
                    shards: 2,
                    mode: StreamMode::Single,
                    timeout: serve.faults.timeout,
                    max_retries: serve.faults.max_retries,
                    fingerprint: workload_fingerprint(&specs, &campaign),
                    total_tasks: specs.len() as u64,
                }))
                .expect("in-memory journal cannot fail");
            let mut live = JournaledStore::new(fresh_store(), Some(writer));
            partial_drive(&mut live);
            let (_crashed, _) = live.finish().expect("in-memory journal cannot fail");
            // The crash: the log ends in a half-written record.
            let mut torn = buf.snapshot();
            torn.extend_from_slice(&[0x13, 0x37, 0x00]);
            let opts = ReplayOptions {
                allow_torn_tail: true,
            };
            let replayed = replay_with(&torn, &specs, &campaign, opts)
                .expect("the verified prefix must replay");
            let mut recovered = replayed.store;
            let reverted = recovered.reset_in_flight();
            recovered.drain();
            // The session that never crashed, resumed the same way.
            let mut oracle = fresh_store();
            partial_drive(&mut oracle);
            let oracle_reverted = oracle.reset_in_flight();
            oracle.drain();
            replayed.torn_tail
                && reverted == oracle_reverted
                && drain_equivalence(&DrainState::of(&recovered), &DrainState::of(&oracle)).is_ok()
        };
        report.passed = all_identical && session_ok && sharded_ok && recovery_ok;
        report.text(format!(
            "Session end: {end:?}; store drained: {}.",
            if session_ok { "yes" } else { "NO" }
        ));
        report.blank();
        report.text(
            "Shape: the serve store activates tasks lazily in task-id order and\n\
             consumes the RNG exactly as the batched kernel does, so the drawn\n\
             multiplicity multiset — and with it P_k = eps — is preserved no matter\n\
             how requests interleave or how the store is sharded.  Timeouts re-queue\n\
             copies rather than redraw them, so the mix survives faults too.",
        );
        report.fact("campaigns_per_point", num_u64(campaigns));
        report.fact("shard_counts", num_u64(shard_counts.len() as u64));
        report.fact("protocol_frames", num_u64(script.len() as u64));
        report.set_csv(
            "shards,detection,realized_factor,wrong_accepted,bit_identical",
            csv_rows,
        );
        report.counters(totals.0, totals.1);
        report
    }
}
