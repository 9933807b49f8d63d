//! The three serve workloads: a real `redundancy serve` daemon driven over
//! loopback by the closed-loop generator, plus the traced in-process host.
//!
//! A run is a sequence of sessions until `--seconds` of drain time have
//! been measured.  A session spawns a fresh daemon over the workload's
//! tasks, probes it with `stats` (spawn → first reply is `setup_s`),
//! drains it with the generator, checks the final `stats` checksum against
//! an in-process oracle, reads the daemon's `/proc` counters and shuts it
//! down.  Every session of a run uses the run's seed, so they all share
//! one oracle.

use std::path::{Path, PathBuf};
use std::time::Instant;

use redundancy_core::RealizedPlan;
use redundancy_sim::serve::{
    handle_request, parse_journal, replay_with, ConcurrentStore, ReplayOptions, ServeConfig,
    ServeSession, WorkStore,
};
use redundancy_sim::task::expand_plan;
use redundancy_sim::{AdversaryModel, CampaignConfig, CheatStrategy, FaultModel, TaskSpec};

use crate::client::{drive, Conn, Drive, Request, Tally, Volunteer};
use crate::daemon::{parse_journal_line, stats_checksum, stats_field, Daemon};
use crate::pct::{median, percentile, trimmed_mean, Latency, TRIM};
use crate::procfs::{self, ProcSample, USER_HZ};
use crate::report::{Checks, RunResult};
use crate::trace::{self, Name, Span};
use crate::{host, Ctx};

/// The plan's detection threshold (the `serve` default).
pub const EPSILON: f64 = 0.5;
/// The adversary's share of assignments (the `serve` default).
pub const ADVERSARY_SHARE: f64 = 0.2;

/// One serve workload's traffic and daemon flags.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The workload name.
    pub name: &'static str,
    /// Client connections.
    pub conns: usize,
    /// Requests in flight per connection.
    pub depth: usize,
    /// `--shards`.
    pub shards: usize,
    /// `--streams per-shard` (else the single-stream store).
    pub per_shard: bool,
    /// `--timeout`, in ticks.
    pub timeout: u64,
    /// `--retries`.
    pub retries: u32,
    /// `--journal PATH --sync off`.
    pub journal: bool,
    /// The volunteer abandons 1 in this many copies once (0: none).
    pub abandon_one_in: u64,
    /// Tasks per session.
    pub tasks: u64,
}

/// A timeout no drain reaches.
const NEVER: u64 = 1_000_000_000;

/// The serve workloads.
pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "serve-rtt",
        conns: 1,
        depth: 1,
        shards: 1,
        per_shard: false,
        timeout: 8,
        retries: 3,
        journal: false,
        abandon_one_in: 50,
        tasks: 10_000,
    },
    Shape {
        name: "serve-pipelined",
        conns: 2,
        depth: 32,
        shards: 2,
        per_shard: true,
        timeout: NEVER,
        retries: 3,
        journal: false,
        abandon_one_in: 0,
        tasks: 200_000,
    },
    Shape {
        name: "serve-journal",
        conns: 2,
        depth: 32,
        shards: 2,
        per_shard: true,
        timeout: NEVER,
        retries: 3,
        journal: true,
        abandon_one_in: 0,
        tasks: 100_000,
    },
];

/// Largest drain the traced host serves, bounding the spans kept in memory.
const HOST_TASKS_CAP: u64 = 50_000;
/// Untraced and traced host sessions each, alternated.
const HOST_ROUNDS: usize = 3;
/// A run measures at least this many sessions.
const MIN_SESSIONS: usize = 3;
/// Plan builds timed for `plan.build_ms`.
const PLAN_REPS: usize = 9;

impl Shape {
    /// The store's retry policy, as `serve` builds it from the flags.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            faults: FaultModel {
                timeout: self.timeout,
                max_retries: self.retries,
                ..FaultModel::none()
            },
            ..ServeConfig::new(self.shards)
        }
    }

    fn daemon_args(
        &self,
        tasks: u64,
        seed: u64,
        journal: Option<&Path>,
        recover: bool,
    ) -> Vec<String> {
        let mut args: Vec<String> = [
            "--tasks",
            &tasks.to_string(),
            "--seed",
            &seed.to_string(),
            "--shards",
            &self.shards.to_string(),
            "--timeout",
            &self.timeout.to_string(),
            "--retries",
            &self.retries.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.per_shard {
            args.extend(["--streams".into(), "per-shard".into()]);
        }
        if let Some(path) = journal {
            args.extend([
                "--journal".into(),
                path.display().to_string(),
                "--sync".into(),
                "off".into(),
            ]);
        }
        if recover {
            args.push("--recover".into());
        }
        args
    }
}

/// The workload's tasks and adversary, built as `serve` builds them.
pub struct Inputs {
    /// The expanded Balanced plan.
    pub specs: Vec<TaskSpec>,
    /// The adversary every campaign runs against.
    pub campaign: CampaignConfig,
}

impl Inputs {
    /// The Balanced plan over `tasks` tasks at ε = 0.5, expanded.
    pub fn new(tasks: u64) -> Result<Inputs, String> {
        let plan = {
            let _s = trace::span(Name::PlanBuild);
            let plan = RealizedPlan::balanced(tasks, EPSILON).map_err(|e| e.to_string())?;
            expand_plan(&plan)
        };
        Ok(Inputs {
            specs: plan,
            campaign: campaign(),
        })
    }
}

/// The adversary of every workload: it holds a 0.2 share of assignments
/// and cheats whenever it holds a copy.
pub fn campaign() -> CampaignConfig {
    CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: ADVERSARY_SHARE },
        CheatStrategy::AtLeast { min_copies: 1 },
    )
}

/// The checksum a correct daemon's final `stats` reply carries.
///
/// Per-shard stores drain to a state that depends only on the seed and
/// shard count, so the oracle is `drain_shard_by_shard`.  The single-stream
/// workload has one connection with one request in flight, so its request
/// order is fixed: the oracle replays the same volunteer through
/// `handle_request` on a fresh single-stream store.
pub fn expected_checksum(shape: &Shape, inputs: &Inputs, seed: u64) -> Result<u64, String> {
    let serve = shape.serve_config();
    if shape.per_shard {
        let oracle = ConcurrentStore::new(&inputs.specs, &inputs.campaign, &serve, seed)?;
        oracle.drain_shard_by_shard();
        return Ok(oracle.stats().checksum());
    }
    assert_eq!(
        shape.conns * shape.depth,
        1,
        "a replay oracle needs one slot"
    );
    let mut session = ServeSession::new(&inputs.specs, &inputs.campaign, &serve, seed)?;
    let mut volunteer = Volunteer::new(seed, shape.abandon_one_in);
    let mut tally = Tally::default();
    let mut reply = String::new();
    let mut request = Request::Work;
    loop {
        handle_request(&mut session, &request.text(), &mut reply);
        match volunteer.next(request, &reply, &mut tally) {
            Some(next) => request = next,
            None => break,
        }
    }
    Ok(session.stats().checksum())
}

/// What one daemon session measured.
struct Session {
    setup_s: f64,
    /// The drive, its latency samples already summarized in `latency`.
    drive: Drive,
    latency: Latency,
    /// The share of CPU time the hypervisor stole during the drive.
    steal: f64,
    /// Daemon counter growth over the drain.
    during: ProcSample,
    hwm_kb: u64,
    timeouts: u64,
    /// `(records, bytes, syncs)` of the journal line.
    journal: Option<(u64, u64, u64)>,
    recover_s: Option<f64>,
}

/// Run one daemon session; protocol failures are returned, output
/// mismatches are recorded in `checks`.
fn daemon_session(
    shape: &Shape,
    ctx: &Ctx,
    tasks: u64,
    expected: u64,
    journal: Option<&Path>,
    checks: &mut Checks,
) -> Result<Session, String> {
    let io = |e: std::io::Error| format!("{}: {e}", shape.name);
    let args = shape.daemon_args(tasks, ctx.seed, journal, false);
    let spawned = Instant::now();
    let daemon = Daemon::spawn(&ctx.daemon, &args)?;
    let mut conns = vec![Conn::connect(daemon.addr).map_err(io)?];
    let probe = conns[0].call("stats").map_err(io)?;
    let setup_s = spawned.elapsed().as_secs_f64();
    checks.check(
        "fresh-store",
        stats_field(&probe, "issued") == Some("0"),
        || format!("first stats reply: {probe}"),
    );
    for _ in 1..shape.conns {
        conns.push(Conn::connect(daemon.addr).map_err(io)?);
    }
    let before = daemon.sample()?;
    let steal_before = procfs::cpu_steal();
    let mut volunteer = Volunteer::new(ctx.seed, shape.abandon_one_in);
    let mut drive = drive(&mut conns, shape.depth, &mut volunteer);
    let steal = procfs::steal_share(steal_before, procfs::cpu_steal());
    let after = daemon.sample()?;
    let latency = Latency::of(&mut drive.latencies_ns);
    drive.latencies_ns = Vec::new();
    let stats = conns[0].call("stats").map_err(io)?;
    let got = stats_checksum(&stats);
    checks.check("daemon-checksum", got == Some(expected), || {
        format!("stats checksum {got:#x?}, oracle {expected:#018x}")
    });
    let hwm_kb = daemon.sample()?.hwm_kb;
    let bye = conns[0].call("shutdown").map_err(io)?;
    checks.check("shutdown", bye == "bye", || {
        format!("shutdown answered {bye:?}")
    });
    drop(conns);
    let report = daemon.finish()?;
    let timeouts = stats_field(&stats, "timeouts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let mut session = Session {
        setup_s,
        drive,
        latency,
        steal,
        during: after.since(&before),
        hwm_kb,
        timeouts,
        journal: None,
        recover_s: None,
    };
    if let Some(path) = journal {
        session.journal = parse_journal_line(&report);
        checks.check("journal-report", session.journal.is_some(), || {
            format!("no journal line in the daemon report: {report}")
        });
        session.recover_s = Some(recover(shape, ctx, tasks, path, expected, checks)?);
    }
    Ok(session)
}

/// Check the finished journal is intact, then time a `--recover` daemon
/// from spawn to its first reply and check it reports the same state.
fn recover(
    shape: &Shape,
    ctx: &Ctx,
    tasks: u64,
    path: &Path,
    expected: u64,
    checks: &mut Checks,
) -> Result<f64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let parsed = parse_journal(&bytes, ReplayOptions::default());
    checks.check(
        "journal-intact",
        parsed.as_ref().is_ok_and(|p| !p.torn_tail),
        || format!("parse_journal: {:?}", parsed.as_ref().map(|p| p.torn_tail)),
    );
    let io = |e: std::io::Error| format!("{} recovery: {e}", shape.name);
    let args = shape.daemon_args(tasks, ctx.seed, Some(path), true);
    let spawned = Instant::now();
    let daemon = Daemon::spawn(&ctx.daemon, &args)?;
    let mut conn = Conn::connect(daemon.addr).map_err(io)?;
    let stats = conn.call("stats").map_err(io)?;
    let recover_s = spawned.elapsed().as_secs_f64();
    let got = stats_checksum(&stats);
    checks.check("recovered-checksum", got == Some(expected), || {
        format!("recovered stats checksum {got:#x?}, oracle {expected:#018x}")
    });
    conn.call("shutdown").map_err(io)?;
    drop(conn);
    daemon.finish()?;
    std::fs::remove_file(path).map_err(|e| format!("removing {}: {e}", path.display()))?;
    Ok(recover_s)
}

/// Sessions until `budget` seconds of drain have been measured.
fn daemon_sessions(
    shape: &Shape,
    ctx: &Ctx,
    tasks: u64,
    expected: u64,
    budget: f64,
    checks: &mut Checks,
) -> Result<Vec<Session>, String> {
    let journal = shape.journal.then(|| {
        ctx.work_dir
            .join(format!("{}-{}.journal", shape.name, std::process::id()))
    });
    let mut sessions: Vec<Session> = Vec::new();
    let mut drained = 0.0;
    while sessions.len() < MIN_SESSIONS || drained < budget {
        let s = daemon_session(shape, ctx, tasks, expected, journal.as_deref(), checks)?;
        drained += s.drive.elapsed.as_secs_f64();
        sessions.push(s);
    }
    Ok(sessions)
}

/// Refuse to journal to a filesystem kept in memory, so the journal's
/// writes take the path they take in a deployment.
fn check_journal_fs(ctx: &Ctx) -> Result<(), String> {
    let fs = procfs::fs_type(&ctx.work_dir)?;
    if procfs::is_memory_fs(&fs) {
        return Err(format!(
            "{} is on {fs}; serve-journal needs a disk-backed filesystem",
            ctx.work_dir.display()
        ));
    }
    Ok(())
}

/// Run a serve workload: untraced, it reports the end-to-end metrics;
/// traced, the per-layer ones.
pub fn run(shape: &Shape, ctx: &Ctx) -> Result<RunResult, String> {
    if shape.journal {
        check_journal_fs(ctx)?;
    }
    let tasks = ctx.tasks.unwrap_or(shape.tasks);
    let inputs = Inputs::new(tasks)?;
    let expected = expected_checksum(shape, &inputs, ctx.seed)? ^ u64::from(ctx.tamper);
    let mut r = RunResult::default();
    // The daemons spawned from this thread, and the traced host's io loop,
    // inherit the daemon's CPUs; the generator takes its own CPU for each
    // drive.
    let (generator_cpus, daemon_cpus) = procfs::split_cpus();
    daemon_cpus
        .apply()
        .map_err(|e| format!("placing the daemon: {e}"))?;
    r.notes.push(format!(
        "generator on cpu {:?}, daemon on cpus {:?}",
        generator_cpus.cpus(),
        daemon_cpus.cpus()
    ));
    r.notes.push(format!(
        "workload {}: {} connection(s) x {} in flight, {} shard(s){}, timeout {}, \
         {} tasks per session, closed loop over loopback",
        shape.name,
        shape.conns,
        shape.depth,
        shape.shards,
        if shape.journal {
            ", journal --sync off"
        } else {
            ""
        },
        shape.timeout,
        tasks
    ));
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let sessions = daemon_sessions(shape, ctx, tasks, expected, budget, &mut r.checks)?;
    let mut tally = Tally::default();
    for s in &sessions {
        tally.accumulate(&s.drive.tally);
    }
    r.attempted = tally.requests;
    r.notes.push(format!(
        "{} sessions: {} results acknowledged, {} copies abandoned, {} idle replies",
        sessions.len(),
        tally.ok,
        tally.abandoned,
        tally.idle
    ));
    r.set(
        "fail_frac",
        tally.failed() as f64 / tally.requests.max(1) as f64,
    );
    let recover: Vec<f64> = sessions.iter().filter_map(|s| s.recover_s).collect();
    if !recover.is_empty() {
        r.set("recover_s", median(&recover));
    }
    if ctx.trace {
        daemon_layers(shape, ctx, tasks, &sessions, &tally, &mut r)?;
        host_layers(shape, ctx, tasks, &mut r)?;
    } else {
        end_to_end(&sessions, &mut r);
    }
    r.failed = tally.failed() + r.checks.failures();
    Ok(r)
}

/// The half of the sessions, rounded up, that the hypervisor disturbed
/// least: those with the lowest steal share during their drive.  While
/// the host holds either vCPU the closed loop stops, so a session's rate
/// falls by about twice the steal share, and steal came and went within
/// a minute.  The program cannot cause steal, so leaving the disturbed
/// sessions out hides no change to it.
fn least_stolen(sessions: &[Session]) -> Vec<&Session> {
    let mut kept: Vec<&Session> = sessions.iter().collect();
    kept.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    kept.truncate(sessions.len().div_ceil(2));
    kept
}

/// One session figure over `sessions`: the mean after dropping the
/// highest and lowest fifth, which ignores a session that met a stall the
/// steal share does not show.
fn per_session(sessions: &[&Session], f: impl Fn(&Session) -> f64) -> f64 {
    trimmed_mean(&sessions.iter().map(|s| f(s)).collect::<Vec<_>>(), TRIM)
}

/// The end-to-end metrics: the drive's figures over the least disturbed
/// half of the sessions, set-up and peak RSS over all of them.
fn end_to_end(sessions: &[Session], r: &mut RunResult) {
    let kept = least_stolen(sessions);
    let all: Vec<&Session> = sessions.iter().collect();
    r.notes.push(format!(
        "drive figures over the {} of {} sessions with the least steal \
         (mean steal {:.4}; {:.4} over all sessions)",
        kept.len(),
        sessions.len(),
        kept.iter().map(|s| s.steal).sum::<f64>() / kept.len() as f64,
        all.iter().map(|s| s.steal).sum::<f64>() / all.len() as f64,
    ));
    r.set("assign_per_s", per_session(&kept, assign_rate));
    r.set("req_p50_us", per_session(&kept, |s| s.latency.p50));
    r.set("req_p99_us", per_session(&kept, |s| s.latency.p99));
    r.set(
        "cpu_us_per_assign",
        per_session(&kept, |s| {
            s.during.cpu_us() / s.drive.tally.ok.max(1) as f64
        }),
    );
    r.set(
        "setup_s",
        median(&sessions.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
    );
    r.set(
        "peak_rss_mb",
        per_session(&all, |s| s.hwm_kb as f64 * 1024.0 / 1e6),
    );
    let tails: Vec<(f64, f64)> = kept.iter().filter_map(|s| s.latency.tail).collect();
    if let Some(&(q, _)) = tails.first() {
        r.notes.push(format!(
            "latency: p{q} (the highest with >= 10 samples beyond in every session), \
             trimmed mean over sessions = {} us",
            trimmed_mean(&tails.iter().map(|t| t.1).collect::<Vec<_>>(), TRIM)
        ));
    }
}

/// Results acknowledged per second of a session's drain.
fn assign_rate(s: &Session) -> f64 {
    s.drive.tally.ok as f64 / s.drive.elapsed.as_secs_f64()
}

/// Per-layer figures taken outside the daemon: its `/proc` counters over
/// the untraced sessions, the replies it sent and its journal line.
fn daemon_layers(
    shape: &Shape,
    ctx: &Ctx,
    tasks: u64,
    sessions: &[Session],
    tally: &Tally,
    r: &mut RunResult,
) -> Result<(), String> {
    let mut during = ProcSample::default();
    for s in sessions {
        during.accumulate(&s.during);
    }
    let requests = tally.requests.max(1) as f64;
    let tick_us = 1e6 / USER_HZ as f64;
    r.set(
        "cli.ctx_switches_per_req",
        (during.voluntary + during.nonvoluntary) as f64 / requests,
    );
    r.set(
        "cli.sys_us_per_req",
        during.stime as f64 * tick_us / requests,
    );
    r.set(
        "cli.user_us_per_req",
        during.utime as f64 * tick_us / requests,
    );
    r.set("protocol.err_frames", tally.err as f64);
    r.set(
        "store.useful_ratio",
        tally.work as f64 / tally.work_requests.max(1) as f64,
    );
    r.set(
        "store.timeouts",
        sessions.last().map_or(0, |s| s.timeouts) as f64,
    );
    let (records, bytes, syncs) = sessions
        .iter()
        .filter_map(|s| s.journal)
        .fold((0, 0, 0), |a, j| (a.0 + j.0, a.1 + j.1, a.2 + j.2));
    if records > 0 {
        r.set("journal.fsyncs_per_record", syncs as f64 / records as f64);
        r.set("journal.bytes_per_record", bytes as f64 / records as f64);
    }
    let hwm_kb = per_session(&sessions.iter().collect::<Vec<_>>(), |s| s.hwm_kb as f64);
    let baseline_kb = one_task_hwm(shape, ctx)? as f64;
    r.set(
        "store.bytes_per_task",
        (hwm_kb - baseline_kb) * 1024.0 / tasks as f64,
    );
    r.notes.push(format!(
        "daemon assign_per_s {:.1}",
        per_session(&least_stolen(sessions), assign_rate)
    ));
    Ok(())
}

/// Per-layer figures from spans: untraced and traced sessions of the
/// in-process host, alternated.
fn host_layers(shape: &Shape, ctx: &Ctx, tasks: u64, r: &mut RunResult) -> Result<(), String> {
    let host_tasks = tasks.min(HOST_TASKS_CAP);
    let inputs = Inputs::new(host_tasks)?;
    let expected = expected_checksum(shape, &inputs, ctx.seed)? ^ u64::from(ctx.tamper);
    let journal = shape.journal.then(|| {
        ctx.work_dir.join(format!(
            "{}-{}-host.journal",
            shape.name,
            std::process::id()
        ))
    });
    let mut walls = (Vec::new(), Vec::new());
    let mut host_rate = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut io_self_ns: Vec<u32> = Vec::new();
    let mut replay_ns_per_record = Vec::new();
    for _ in 0..HOST_ROUNDS {
        for traced in [false, true] {
            trace::set_enabled(traced);
            let h = host::session(shape, &inputs, ctx.seed, journal.as_deref());
            trace::set_enabled(false);
            let h = h?;
            let got = stats_checksum(&h.stats);
            r.checks.check("host-checksum", got == Some(expected), || {
                format!("host stats checksum {got:#x?}, oracle {expected:#018x}")
            });
            r.checks
                .check("host-drive", h.drive.tally.failed() == 0, || {
                    format!("host drive failures: {:?}", h.drive.tally)
                });
            let wall = h.drive.elapsed.as_secs_f64();
            if !traced {
                walls.0.push(wall);
                host_rate.push(h.drive.tally.ok as f64 / wall);
                continue;
            }
            walls.1.push(wall);
            if let Some(path) = &journal {
                replay_ns_per_record.push(timed_replay(path, &inputs, &mut r.checks)?);
            }
            let mut session_spans = trace::take();
            io_self_ns.extend(io_self(shape, &h.drive, &session_spans));
            spans.append(&mut session_spans);
        }
    }
    if let Some(path) = &journal {
        let _ = std::fs::remove_file(path);
    }
    r.notes.push(format!(
        "host mirror: assign_per_s {:.1} in process (a check that the mirror has not drifted)",
        median(&host_rate)
    ));
    layer_spans(r, &spans);
    r.set(
        "io.rtt_self_us",
        percentile(&mut io_self_ns, 50.0).unwrap_or(0) as f64 / 1000.0,
    );
    if !replay_ns_per_record.is_empty() {
        r.set(
            "journal.replay_ns_per_record",
            median(&replay_ns_per_record),
        );
    }
    r.set("plan.build_ms", plan_build_ms(tasks)?);
    let untraced = median(&walls.0);
    r.set(
        "trace.overhead_frac",
        (median(&walls.1) - untraced) / untraced,
    );
    write_spans(ctx, shape.name, &spans, r);
    Ok(())
}

/// Median span of building the workload's plan and expanding it into
/// tasks, in milliseconds.  Takes every span recorded so far.
pub fn plan_build_ms(tasks: u64) -> Result<f64, String> {
    trace::take();
    trace::set_enabled(true);
    let built = (0..PLAN_REPS).try_for_each(|_| Inputs::new(tasks).map(drop));
    trace::set_enabled(false);
    built?;
    let ms: Vec<f64> = trace::take()
        .iter()
        .filter(|s| s.name == Name::PlanBuild)
        .map(|s| s.duration() as f64 / 1e6)
        .collect();
    Ok(median(&ms))
}

/// Peak RSS of a daemon over a single task: the fixed cost that
/// `store.bytes_per_task` subtracts.
fn one_task_hwm(shape: &Shape, ctx: &Ctx) -> Result<u64, String> {
    let daemon = Daemon::spawn(&ctx.daemon, &shape.daemon_args(1, ctx.seed, None, false))?;
    let mut conn = Conn::connect(daemon.addr).map_err(|e| e.to_string())?;
    conn.call("stats").map_err(|e| e.to_string())?;
    let hwm = daemon.sample()?.hwm_kb;
    conn.call("shutdown").map_err(|e| e.to_string())?;
    drop(conn);
    daemon.finish()?;
    Ok(hwm)
}

/// Replay the host's finished journal inside a span; nanoseconds per
/// record.
fn timed_replay(path: &Path, inputs: &Inputs, checks: &mut Checks) -> Result<f64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let started = Instant::now();
    let replayed = {
        let _s = trace::span(Name::JournalReplay);
        replay_with(
            &bytes,
            &inputs.specs,
            &inputs.campaign,
            ReplayOptions::default(),
        )
    };
    let ns = started.elapsed().as_nanos() as f64;
    checks.check("host-replay", replayed.is_ok(), || {
        format!("replay_with: {:?}", replayed.as_ref().err())
    });
    Ok(ns / replayed.map_or(1, |r| r.records.max(1)) as f64)
}

/// Client round trip minus the handler's span: the time a request spends
/// in the io loop, the socket and the kernel.  With one request in flight
/// the k-th round trip is the k-th handler call after the set-up probe;
/// otherwise requests cannot be paired and the medians are subtracted.
fn io_self(shape: &Shape, drive: &Drive, spans: &[Span]) -> Vec<u32> {
    let mut handles: Vec<&Span> = spans.iter().filter(|s| s.name == Name::Handle).collect();
    handles.sort_by_key(|s| s.start);
    if shape.conns * shape.depth == 1 {
        return drive
            .latencies_ns
            .iter()
            .zip(handles.iter().skip(1))
            .map(|(&rtt, h)| (u64::from(rtt).saturating_sub(h.duration())) as u32)
            .collect();
    }
    let mut rtt = drive.latencies_ns.clone();
    let mut dur: Vec<u32> = handles.iter().map(|h| h.duration() as u32).collect();
    match (percentile(&mut rtt, 50.0), percentile(&mut dur, 50.0)) {
        (Some(a), Some(b)) => vec![a.saturating_sub(b)],
        _ => Vec::new(),
    }
}

/// The per-layer span medians of a traced host.
fn layer_spans(r: &mut RunResult, spans: &[Span]) {
    let self_ns = trace::self_times(spans);
    let p50 = |pick: &dyn Fn(&Span) -> bool, self_time: bool| -> f64 {
        let mut v: Vec<u32> = spans
            .iter()
            .filter(|s| pick(s))
            .map(|s| if self_time { self_ns[&s.id] } else { s.duration() } as u32)
            .collect();
        percentile(&mut v, 50.0).unwrap_or(0) as f64
    };
    r.set(
        "protocol.handle_self_ns",
        p50(&|s| s.name == Name::Handle, true),
    );
    r.set(
        "store.request_work_ns",
        p50(&|s| s.name == Name::StoreRequestWork, false),
    );
    r.set(
        "store.return_result_ns",
        p50(&|s| s.name == Name::StoreReturnResult, false),
    );
    r.set(
        "store.init_ms",
        p50(&|s| s.name == Name::StoreInit, false) / 1e6,
    );
    let journal_call =
        |s: &Span| matches!(s.name, Name::JournalRequestWork | Name::JournalReturnResult);
    if spans.iter().any(journal_call) {
        r.set("journal.append_self_ns", p50(&journal_call, true));
        r.set(
            "journal.fsync_us",
            p50(&|s| s.name == Name::JournalSync, false) / 1000.0,
        );
    }
}

/// Keep the spans of a traced run on disk beside the journals.
fn write_spans(ctx: &Ctx, name: &str, spans: &[Span], r: &mut RunResult) {
    let path: PathBuf = ctx.work_dir.join(format!("{name}.spans.tsv"));
    match trace::write_tsv(spans, &path) {
        Ok(()) => r.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => r.notes.push(format!("spans not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(steal: f64, rate: u64) -> Session {
        Session {
            setup_s: 0.0,
            drive: Drive {
                tally: Tally {
                    ok: rate,
                    ..Tally::default()
                },
                latencies_ns: Vec::new(),
                elapsed: std::time::Duration::from_secs(1),
            },
            latency: Latency::of(&mut [1000]),
            steal,
            during: ProcSample::default(),
            hwm_kb: 0,
            timeouts: 0,
            journal: None,
            recover_s: None,
        }
    }

    #[test]
    fn drive_figures_come_from_the_least_stolen_half() {
        let sessions: Vec<Session> = [(0.3, 1), (0.0, 10), (0.1, 30), (0.2, 2), (0.05, 20)]
            .into_iter()
            .map(|(steal, rate)| session(steal, rate))
            .collect();
        let kept = least_stolen(&sessions);
        let steals: Vec<f64> = kept.iter().map(|s| s.steal).collect();
        assert_eq!(steals, vec![0.0, 0.05, 0.1]);
        assert_eq!(per_session(&kept, assign_rate), 20.0);
        assert_eq!(least_stolen(&sessions[..1]).len(), 1);
    }
}
