//! Process-level checks of `redundancy serve --stdio`: memory that grows
//! neither with the task count at start-up nor with the tasks served, and
//! journal bytes pinned across releases.

use std::io::Write;
use std::process::{Command, Stdio};

/// One length-prefixed request frame.
fn frame(request: &str) -> Vec<u8> {
    let mut bytes = (request.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(request.as_bytes());
    bytes
}

/// Read one length-prefixed reply frame.
#[cfg(target_os = "linux")]
fn read_reply(r: &mut impl std::io::Read) -> String {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).unwrap();
    let mut reply = vec![0u8; u32::from_be_bytes(len) as usize];
    r.read_exact(&mut reply).unwrap();
    String::from_utf8(reply).unwrap()
}

/// A running process's peak resident set, in kB.
#[cfg(target_os = "linux")]
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in {status}"))
}

/// An unknown verb as long as a frame allows is echoed only as far as
/// keeps the reply a legal frame: the daemon answers it with a
/// `MAX_FRAME`-byte `err`, and the session goes on.
#[cfg(target_os = "linux")]
#[test]
fn a_frame_long_unknown_verb_earns_a_legal_err_frame() {
    const MAX_FRAME: usize = 4096;
    let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(["serve", "--stdio", "--tasks", "10"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let verb = "x".repeat(MAX_FRAME);
    for request in [verb.as_str(), "request-work", "shutdown"] {
        stdin.write_all(&frame(request)).unwrap();
    }
    drop(stdin);
    let err = read_reply(&mut stdout);
    assert_eq!(err.len(), MAX_FRAME);
    assert_eq!(
        err.strip_prefix("err unknown-verb "),
        Some(&verb[..MAX_FRAME - "err unknown-verb ".len()])
    );
    assert!(read_reply(&mut stdout).starts_with("work "));
    assert_eq!(read_reply(&mut stdout), "bye");
    assert!(child.wait().unwrap().success());
}

/// A serve daemon builds its stores from the plan's spec groups, so the
/// memory it holds before the first request does not grow with the task
/// count: 20M tasks fit in well under a byte per task.
#[cfg(target_os = "linux")]
#[test]
fn twenty_million_task_stdio_daemon_answers_stats_in_bounded_memory() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args([
            "serve",
            "--stdio",
            "--tasks",
            "20000000",
            "--shards",
            "2",
            "--streams",
            "per-shard",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = child.stdout.take().unwrap();
    stdin.write_all(&frame("stats")).unwrap();
    stdin.flush().unwrap();
    let stats = read_reply(&mut stdout);
    assert!(stats.contains("tasks-total 20000001\n"), "{stats}");
    // The daemon is still alive (it has not seen `shutdown`), so its
    // status file is there to read.
    let hwm_kb = vm_hwm_kb(child.id());
    stdin.write_all(&frame("shutdown")).unwrap();
    drop(stdin);
    assert_eq!(read_reply(&mut stdout), "bye");
    assert!(child.wait().unwrap().success());
    assert!(
        hwm_kb < 32 * 1024,
        "peak RSS {hwm_kb} kB before the first request over 20M tasks"
    );
}

/// Drive a `--stdio` daemon over `tasks` tasks to the end, pipelined:
/// request copies 64 at a time, keep the 64 newest held and return the
/// oldest first.  Returns the daemon's peak RSS in kB, read before
/// `shutdown`.
#[cfg(target_os = "linux")]
fn drained_peak_rss_kb(tasks: &str, mode: &[&str]) -> u64 {
    use std::collections::VecDeque;
    use std::io::{BufReader, BufWriter};
    const HELD: usize = 64;
    let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args([
            "serve",
            "--stdio",
            "--tasks",
            tasks,
            "--timeout",
            "1000000000",
        ])
        .args(mode)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    let mut stdin = BufWriter::new(child.stdin.take().unwrap());
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut held: VecDeque<String> = VecDeque::new();
    let mut drained = false;
    while !drained {
        for _ in 0..HELD {
            stdin.write_all(&frame("request-work")).unwrap();
        }
        stdin.flush().unwrap();
        let mut idle = false;
        for _ in 0..HELD {
            let reply = read_reply(&mut stdout);
            if let Some(work) = reply.strip_prefix("work ") {
                let (task, rest) = work.split_once(' ').unwrap();
                let copy = rest.split(' ').next().unwrap();
                held.push_back(format!("return-result {task} {copy}"));
            } else {
                idle |= reply == "idle";
                drained |= reply == "drained";
            }
        }
        // Everything left is held once the daemon goes idle.
        let keep = if idle { 0 } else { HELD };
        let returns = held.len().saturating_sub(keep);
        for request in held.drain(..returns) {
            stdin.write_all(&frame(&request)).unwrap();
        }
        stdin.flush().unwrap();
        for _ in 0..returns {
            let ack = read_reply(&mut stdout);
            assert!(ack.starts_with("ok"), "{ack}");
        }
    }
    assert!(held.is_empty());
    stdin.write_all(&frame("stats")).unwrap();
    stdin.flush().unwrap();
    let stats = read_reply(&mut stdout);
    let count = |key: &str| {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key} in {stats}"))
            .to_string()
    };
    assert_eq!(count("tasks-completed "), count("tasks-total "), "{stats}");
    let hwm_kb = vm_hwm_kb(child.id());
    stdin.write_all(&frame("shutdown")).unwrap();
    drop(stdin);
    assert_eq!(read_reply(&mut stdout), "bye");
    assert!(child.wait().unwrap().success());
    hwm_kb
}

/// A shard keeps only the tasks in flight, so a daemon that has served
/// 100,000 tasks holds no more than one that has served one task, in
/// either stream mode.
#[cfg(target_os = "linux")]
#[test]
fn a_drained_history_costs_no_memory() {
    for mode in [&["--shards", "2", "--streams", "per-shard"][..], &[][..]] {
        let small = drained_peak_rss_kb("1", mode);
        let large = drained_peak_rss_kb("100000", mode);
        assert!(
            large < small + 1024,
            "{mode:?}: 100,000 tasks peaked at {large} kB, one task at {small} kB"
        );
    }
}

/// A scratch journal path unique to this test process.
fn journal_path(name: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("serve_stdio_{name}_{}.journal", std::process::id()));
    path.to_str().unwrap().to_string()
}

/// Run `redundancy <args>` to completion.
fn redundancy(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(args)
        .output()
        .expect("running redundancy")
}

/// Pipe `request-work`, `request-work`, `shutdown` into a journaled stdio
/// session over 20 tasks and return what `journal-inspect` prints.
fn scripted_journal(name: &str, mode: &[&str]) -> (String, String) {
    let path = journal_path(name);
    let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(["serve", "--stdio", "--tasks", "20", "--journal", &path])
        .args(["--sync", "always"])
        .args(mode)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawning the daemon");
    let mut stdin = child.stdin.take().unwrap();
    for request in ["request-work", "request-work", "shutdown"] {
        stdin.write_all(&frame(request)).unwrap();
    }
    drop(stdin);
    assert!(child.wait().unwrap().success());
    let out = redundancy(&["journal-inspect", "--journal", &path]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    (path, String::from_utf8(out.stdout).unwrap())
}

/// The journal bytes of a scripted session, header fingerprint and chain
/// included, are pinned: a release that changes them cannot recover the
/// journals earlier releases wrote.
#[test]
fn scripted_stdio_journals_are_pinned() {
    let (path, per_shard) =
        scripted_journal("per_shard", &["--shards", "2", "--streams", "per-shard"]);
    assert_eq!(
        per_shard,
        format!(
            "journal {path}: 125 bytes\n\
             \x20    0  header seed=20050926 shards=2 mode=per-shard timeout=8 retries=3 \
             tasks=21 fingerprint=0x4f404cba653dbfd6\n\
             \x20    1  issue task=1 copy=0\n\
             \x20    2  issue task=0 copy=0\n\
             \x20    3  shutdown\n\
             4 records over 125 verified bytes, chain 0xb946af661de0bb9d\n\
             integrity: intact\n"
        )
    );
    let (path, single) = scripted_journal("single", &[]);
    assert_eq!(
        single,
        format!(
            "journal {path}: 125 bytes\n\
             \x20    0  header seed=20050926 shards=1 mode=single timeout=8 retries=3 \
             tasks=21 fingerprint=0x4f404cba653dbfd6\n\
             \x20    1  issue task=0 copy=0\n\
             \x20    2  issue task=1 copy=0\n\
             \x20    3  shutdown\n\
             4 records over 125 verified bytes, chain 0x47814418c9bc18f8\n\
             integrity: intact\n"
        )
    );
}

/// A journaled `--stdio` session takes 40 `request-work` frames and
/// returns nothing, so timeouts fire; `--recover` then drains the rest in
/// process.  Neither patient-drain oracle models a timeout, so both say
/// they do not apply instead of reporting a divergence, and the finished
/// journal replays to the live store.
#[test]
fn oracles_after_timeouts_say_not_applicable_and_the_journal_replays() {
    for (mode, oracle) in [
        (
            &[][..],
            "batched-kernel oracle: not applicable (37 timeouts fired)",
        ),
        (
            &["--streams", "per-shard"][..],
            "sharded-stream oracle: not applicable (34 timeouts fired)",
        ),
    ] {
        let path = journal_path(&format!("timeouts_{}", mode.len()));
        let mut session = vec!["serve", "--tasks", "20", "--seed", "7", "--shards", "2"];
        session.extend_from_slice(&["--timeout", "3", "--retries", "1", "--journal", &path]);
        session.extend_from_slice(&["--sync", "always"]);
        session.extend_from_slice(mode);
        let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
            .args(&session)
            .arg("--stdio")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawning the daemon");
        let mut stdin = child.stdin.take().unwrap();
        stdin.write_all(&frame("request-work").repeat(40)).unwrap();
        drop(stdin);
        assert!(child.wait().unwrap().success(), "{mode:?}");
        session.push("--recover");
        let out = redundancy(&session);
        let _ = std::fs::remove_file(&path);
        let report = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(0), "{mode:?}: {report}");
        assert!(report.contains(oracle), "{mode:?}: {report}");
        assert!(
            report.ends_with("journal replay oracle: bit-identical\n"),
            "{mode:?}: {report}"
        );
        assert!(!report.contains("DIVERGED"), "{mode:?}: {report}");
    }
}

/// A transport error still flushes the journal: a `--sync off` session
/// whose client hung up before reading exits 2 naming the broken pipe,
/// and leaves an intact journal that `--recover` drains.
#[test]
fn a_broken_stdout_keeps_the_journal() {
    let path = journal_path("broken_pipe");
    let session = [
        "serve",
        "--tasks",
        "200",
        "--seed",
        "7",
        "--journal",
        &path,
        "--sync",
        "off",
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(session)
        .arg("--stdio")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    // The daemon may exit before it has read them all.
    let _ = stdin.write_all(&frame("request-work").repeat(3));
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("stdio transport: Broken pipe"), "{stderr}");
    let inspect = redundancy(&["journal-inspect", "--journal", &path]);
    assert_eq!(inspect.status.code(), Some(0), "{inspect:?}");
    let listing = String::from_utf8(inspect.stdout).unwrap();
    assert!(listing.contains("integrity: intact"), "{listing}");
    assert!(listing.contains("  0  header seed=7 "), "{listing}");
    assert!(listing.contains("  1  issue task=0 copy=0"), "{listing}");
    let mut recover = session.to_vec();
    recover.push("--recover");
    let out = redundancy(&recover);
    let _ = std::fs::remove_file(&path);
    let report = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{report}");
    let count = |key: &str| report.lines().find_map(|l| l.strip_prefix(key));
    assert!(count("tasks-completed ").is_some(), "{report}");
    assert_eq!(count("tasks-completed "), count("tasks-total "), "{report}");
    assert!(report.contains("journal recovered: "), "{report}");
    assert!(
        report.ends_with("journal replay oracle: bit-identical\n"),
        "{report}"
    );
}

/// A crash between a `timeout-requeue` record and its tick record: the
/// first `--recover` cuts the dangling record away with the torn tail, so
/// the journal it resumes recovers a second time and inspects as intact.
#[test]
fn a_journal_cut_after_a_timeout_requeue_recovers_twice() {
    let path = journal_path("requeue_cut");
    let session = [
        "serve",
        "--tasks",
        "200",
        "--seed",
        "7",
        "--shards",
        "3",
        "--timeout",
        "3",
        "--retries",
        "1",
        "--journal",
        &path,
        "--sync",
        "always",
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(session)
        .arg("--stdio")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawning the daemon");
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(&frame("request-work").repeat(60)).unwrap();
    drop(stdin);
    assert!(child.wait().unwrap().success());
    // Cut the journal right after its first timeout-requeue (tag 6).
    let bytes = std::fs::read(&path).unwrap();
    let (mut end, mut index) = (0, 0);
    loop {
        let len = u32::from_be_bytes(bytes[end..end + 4].try_into().unwrap()) as usize;
        let tag = bytes[end + 4];
        end += 4 + len + 8;
        if tag == 6 {
            break;
        }
        index += 1;
    }
    assert_eq!(index, 4, "the first timeout-requeue moved");
    std::fs::write(&path, &bytes[..end]).unwrap();
    let mut recover = session.to_vec();
    recover.push("--recover");
    for pass in ["first", "second"] {
        let out = redundancy(&recover);
        let report = String::from_utf8(out.stdout).unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(0), "{pass}: {report}{stderr}");
        assert!(
            report.ends_with("journal replay oracle: bit-identical\n"),
            "{pass}: {report}"
        );
        if pass == "first" {
            assert!(report.contains("torn tail truncated"), "{report}");
        }
    }
    let inspect = redundancy(&["journal-inspect", "--journal", &path]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(inspect.status.code(), Some(0), "{inspect:?}");
    let listing = String::from_utf8(inspect.stdout).unwrap();
    assert!(listing.ends_with("integrity: intact\n"), "{listing}");
}
