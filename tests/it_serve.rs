//! Protocol-level integration: `redundancy serve` end to end.
//!
//! The serve transport is generic over `Read`/`Write`, so one scripted
//! byte fixture drives every assertion here: the in-memory transport pins
//! the framed exchange byte for byte, and a spawned
//! `redundancy serve --stdio` process must emit exactly the same response
//! bytes for the same input bytes — the wire protocol is the same code
//! path either way.  Malformed input (truncated prefixes, oversized
//! payloads, unknown verbs) must answer structured `err` frames and exit
//! cleanly, never hang or panic.

use redundancy_core::RealizedPlan;
use redundancy_integration::snapshot::cli_binary_path;
use redundancy_sim::serve::{
    decode_frames, script_frames, ServeConfig, ServeSession, SessionEnd, MAX_FRAME,
};
use redundancy_sim::task::expand_plan;
use redundancy_sim::{serve_connection, AdversaryModel, CampaignConfig, CheatStrategy};
use std::io::Write as _;
use std::process::{Command, Stdio};

/// The scripted drain of the 3-task x 2-copy `simple` workload, with the
/// reply every frame earns.  The multiplicities are fixed by the scheme
/// and dispatch is task-id ordered, so the exchange is seed-independent
/// and can be pinned as a constant.
const SCRIPT: [(&str, &str); 14] = [
    ("request-work", "work 0 0 2"),
    ("return-result 0 0", "ok"),
    ("request-work", "work 0 1 2"),
    ("return-result 0 1", "ok complete"),
    ("request-work", "work 1 0 2"),
    ("return-result 1 0", "ok"),
    ("request-work", "work 1 1 2"),
    ("return-result 1 1", "ok complete"),
    ("request-work", "work 2 0 2"),
    ("return-result 2 0", "ok"),
    ("request-work", "work 2 1 2"),
    ("return-result 2 1", "ok complete"),
    ("request-work", "drained"),
    ("shutdown", "bye"),
];

fn requests() -> Vec<&'static str> {
    SCRIPT.iter().map(|(req, _)| *req).collect()
}

fn replies() -> Vec<&'static str> {
    SCRIPT.iter().map(|(_, reply)| *reply).collect()
}

/// The session `redundancy serve --scheme simple --tasks 3 --epsilon 0.5
/// --proportion 0.2 --shards 2` builds (every other flag at its default).
fn oracle_session() -> ServeSession {
    let tasks = expand_plan(&RealizedPlan::k_fold(3, 2, 0.5).unwrap());
    let campaign = CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: 0.2 },
        CheatStrategy::AtLeast { min_copies: 1 },
    );
    ServeSession::new(&tasks, &campaign, &ServeConfig::new(2), 20_050_926).unwrap()
}

/// Spawn `redundancy serve --stdio` on the oracle workload, feed it the
/// raw `input` bytes, and return its stdout bytes (asserting a clean
/// exit — malformed input must never crash or hang the process).
fn run_stdio(input: &[u8]) -> Vec<u8> {
    let path = cli_binary_path();
    assert!(path.exists(), "{} not built", path.display());
    let mut child = Command::new(&path)
        .args([
            "serve",
            "--stdio",
            "--scheme",
            "simple",
            "--tasks",
            "3",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--shards",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning redundancy serve");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(input)
        .expect("writing the script");
    let out = child.wait_with_output().expect("collecting serve output");
    assert!(
        out.status.success(),
        "serve exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn in_memory_scripted_fixture_is_byte_exact() {
    let mut session = oracle_session();
    let mut input: &[u8] = &script_frames(&requests())[..];
    let mut output = Vec::new();
    let end = serve_connection(&mut input, &mut output, |req| session.handle(req)).unwrap();
    assert_eq!(end, SessionEnd::Shutdown);
    assert_eq!(decode_frames(&output), replies());
    // Not just the payloads: the response byte stream is exactly the
    // replies re-framed by the same encoder.
    assert_eq!(output, script_frames(&replies()));
    assert!(session.store.is_drained());
}

#[test]
fn stdio_process_is_byte_identical_to_the_in_memory_transport() {
    let stdout = run_stdio(&script_frames(&requests()));
    assert_eq!(
        stdout,
        script_frames(&replies()),
        "process replies decoded: {:?}",
        decode_frames(&stdout)
    );
}

#[test]
fn stdio_truncated_prefix_answers_a_structured_err_and_exits() {
    // Two bytes of a four-byte length prefix, then EOF.
    let stdout = run_stdio(&[0x00, 0x01]);
    assert_eq!(stdout, script_frames(&["err truncated-frame"]));
}

#[test]
fn stdio_truncated_payload_answers_a_structured_err_and_exits() {
    // A prefix promising five bytes, delivering two.
    let stdout = run_stdio(&[0x00, 0x00, 0x00, 0x05, b'h', b'i']);
    assert_eq!(stdout, script_frames(&["err truncated-frame"]));
}

#[test]
fn stdio_oversize_payload_answers_a_structured_err_and_exits() {
    let len = (MAX_FRAME as u32) + 1;
    let stdout = run_stdio(&len.to_be_bytes());
    let expected = format!("err oversize-frame {len} exceeds {MAX_FRAME}");
    assert_eq!(stdout, script_frames(&[expected.as_str()]));
}

#[test]
fn stdio_unknown_verb_answers_err_and_the_session_continues() {
    let stdout = run_stdio(&script_frames(&["frobnicate 7", "shutdown"]));
    assert_eq!(
        stdout,
        script_frames(&["err unknown-verb frobnicate", "bye"])
    );
}

#[test]
fn stdio_clean_eof_ends_the_session_silently_after_serving() {
    // No shutdown frame: the client hangs up after one request.  The
    // process must answer the request, then exit cleanly on EOF.
    let stdout = run_stdio(&script_frames(&["request-work"]));
    assert_eq!(stdout, script_frames(&["work 0 0 2"]));
}

#[test]
fn stdio_per_shard_streams_serve_the_same_protocol() {
    // The per-shard store speaks the identical verb set through the same
    // formatter; on this tiny workload the dispatch order happens to
    // match the single-stream script too (shard-owned ids are walked in
    // id order and the driver returns each copy before asking again).
    let path = cli_binary_path();
    assert!(path.exists(), "{} not built", path.display());
    let mut child = Command::new(&path)
        .args([
            "serve",
            "--stdio",
            "--scheme",
            "simple",
            "--tasks",
            "3",
            "--epsilon",
            "0.5",
            "--proportion",
            "0.2",
            "--shards",
            "1",
            "--streams",
            "per-shard",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning redundancy serve");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(&script_frames(&requests()))
        .expect("writing the script");
    let out = child.wait_with_output().expect("collecting serve output");
    assert!(out.status.success(), "serve exited with {}", out.status);
    assert_eq!(decode_frames(&out.stdout), replies());
}

/// `shutdown` must terminate a `--port` daemon process cleanly — no
/// throwaway self-connection, no orphaned accept loop, a zero exit — on
/// both io loops and both stream modes.
#[test]
fn port_daemon_shuts_down_cleanly_on_the_shutdown_verb() {
    use redundancy_sim::serve::{read_frame, write_frame, Frame};
    use std::io::{BufRead as _, BufReader, Read as _};
    let mut combos = vec![("threads", "single"), ("threads", "per-shard")];
    if cfg!(target_os = "linux") {
        combos.push(("epoll", "single"));
        combos.push(("epoll", "per-shard"));
    }
    for (io, streams) in combos {
        let path = cli_binary_path();
        assert!(path.exists(), "{} not built", path.display());
        let mut child = Command::new(&path)
            .args([
                "serve",
                "--scheme",
                "simple",
                "--tasks",
                "3",
                "--epsilon",
                "0.5",
                "--proportion",
                "0.2",
                "--seed",
                "7",
                "--port",
                "0",
                "--io",
                io,
                "--streams",
                streams,
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning the daemon");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut banner = String::new();
        stderr.read_line(&mut banner).expect("reading the banner");
        let addr = banner
            .strip_prefix("[serving on ")
            .and_then(|rest| rest.split(';').next())
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_owned();
        let mut stream = std::net::TcpStream::connect(&addr)
            .unwrap_or_else(|e| panic!("connecting to {addr}: {e}"));
        write_frame(&mut stream, "request-work").unwrap();
        let Frame::Message(reply) = read_frame(&mut stream).unwrap() else {
            panic!("{io}/{streams}: no reply to request-work");
        };
        assert!(reply.starts_with(b"work "), "{io}/{streams}: {reply:?}");
        write_frame(&mut stream, "shutdown").unwrap();
        let Frame::Message(reply) = read_frame(&mut stream).unwrap() else {
            panic!("{io}/{streams}: no reply to shutdown");
        };
        assert_eq!(reply, b"bye", "{io}/{streams}");
        drop(stream);
        // Watchdog: the daemon must exit on its own, promptly and cleanly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("polling the daemon") {
                break status;
            }
            if std::time::Instant::now() >= deadline {
                let _ = child.kill();
                panic!("{io}/{streams}: daemon still running 30s after shutdown");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(
            status.success(),
            "{io}/{streams}: daemon exited with {status}"
        );
        let mut out = String::new();
        child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut out)
            .unwrap();
        assert!(out.contains("issued 1\n"), "{io}/{streams}: {out}");
        assert!(out.contains("in-flight 1\n"), "{io}/{streams}: {out}");
    }
}

/// The crash-recovery contract, end to end at the process level: a
/// journaled `--port` daemon is SIGKILLed mid-session, `--recover`
/// replays the journal and finishes the drain, and the final report is
/// byte-identical (journal lines aside) to a run that never crashed.
#[test]
fn killed_journaled_daemon_recovers_to_the_uninterrupted_report() {
    use redundancy_sim::serve::{read_frame, write_frame, Frame};
    use std::io::{BufRead as _, BufReader};
    let path = cli_binary_path();
    assert!(path.exists(), "{} not built", path.display());
    let journal =
        std::env::temp_dir().join(format!("it_serve_crash_{}.journal", std::process::id()));
    let journal_str = journal.to_str().unwrap().to_owned();
    let base = [
        "serve",
        "--tasks",
        "500",
        "--epsilon",
        "0.5",
        "--proportion",
        "0.2",
        "--seed",
        "11",
        "--shards",
        "2",
        "--timeout",
        "1000000000",
    ];

    // The reference: the same workload drained with no journal at all.
    let plain = Command::new(&path)
        .args(base)
        .output()
        .expect("running the uninterrupted drain");
    assert!(plain.status.success(), "{}", plain.status);

    // The victim: a journaled daemon, killed mid-session with copies in
    // flight.  --sync always means every reply the client saw is backed
    // by a durable journal record.
    let mut child = Command::new(&path)
        .args(base)
        .args(["--port", "0", "--journal", &journal_str, "--sync", "always"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("reading the banner");
    let addr = banner
        .strip_prefix("[serving on ")
        .and_then(|rest| rest.split(';').next())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connecting to the daemon");
    let mut held = Vec::new();
    for i in 0..12 {
        write_frame(&mut stream, "request-work").unwrap();
        let Frame::Message(reply) = read_frame(&mut stream).unwrap() else {
            panic!("no reply to request-work");
        };
        let text = String::from_utf8(reply).unwrap();
        let rest = text.strip_prefix("work ").expect("a fresh store has work");
        let mut parts = rest.split_whitespace();
        let (task, copy) = (parts.next().unwrap(), parts.next().unwrap());
        if i % 2 == 0 {
            held.push((task.to_owned(), copy.to_owned()));
        } else {
            write_frame(&mut stream, &format!("return-result {task} {copy}")).unwrap();
            let Frame::Message(ack) = read_frame(&mut stream).unwrap() else {
                panic!("no reply to return-result");
            };
            assert!(ack.starts_with(b"ok"), "{ack:?}");
        }
    }
    child.kill().expect("killing the daemon");
    child.wait().expect("reaping the daemon");

    // Recovery: same command line plus --recover, drained in process.
    let recovered = Command::new(&path)
        .args(base)
        .args(["--journal", &journal_str, "--sync", "always", "--recover"])
        .output()
        .expect("running the recovery");
    assert!(
        recovered.status.success(),
        "recovery exited with {}: {}",
        recovered.status,
        String::from_utf8_lossy(&recovered.stderr)
    );
    let recovered_out = String::from_utf8(recovered.stdout).unwrap();
    assert!(
        recovered_out
            .lines()
            .any(|l| l.starts_with("journal recovered: ")),
        "{recovered_out}"
    );
    assert!(
        recovered_out.contains("batched-kernel oracle: bit-identical"),
        "{recovered_out}"
    );
    // Journal lines aside, the recovered report is byte-identical to the
    // run that never crashed — including the stats block and checksum.
    let sans_journal: String = recovered_out
        .lines()
        .filter(|l| !l.starts_with("journal"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(sans_journal, String::from_utf8(plain.stdout).unwrap());

    // The finished journal passes offline inspection as intact.
    let inspect = Command::new(&path)
        .args(["journal-inspect", "--journal", &journal_str])
        .output()
        .expect("running journal-inspect");
    assert!(inspect.status.success(), "{}", inspect.status);
    let inspect_out = String::from_utf8(inspect.stdout).unwrap();
    assert!(inspect_out.contains("integrity: intact"), "{inspect_out}");
    assert!(inspect_out.contains("header seed=11"), "{inspect_out}");
    assert!(inspect_out.contains("reset reverted="), "{inspect_out}");
    std::fs::remove_file(&journal).ok();
}
