//! Process-level checks of the `redundancy serve --port` daemon: a client
//! that pipelines requests without reading its replies cannot grow the
//! daemon's memory.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// One length-prefixed request frame.
fn frame(request: &str) -> Vec<u8> {
    let mut bytes = (request.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(request.as_bytes());
    bytes
}

/// Read one length-prefixed reply frame.
fn read_reply(r: &mut impl Read) -> String {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).unwrap();
    let mut reply = vec![0u8; u32::from_be_bytes(len) as usize];
    r.read_exact(&mut reply).unwrap();
    String::from_utf8(reply).unwrap()
}

/// A daemon that is killed if the test fails before it shuts down: in
/// `--port` mode it would otherwise wait for a `shutdown` verb forever.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The process's peak resident set, in kB.
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in {status}"))
}

/// The process's CPU time so far (`utime` + `stime`), in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap();
    // The fields after the parenthesized command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// 200,000 `stats` requests sent without reading a reply: the daemon stops
/// answering and reading once 64 KiB of replies wait, so the requests pile
/// up in the socket buffers, not in the daemon.  Every reply still arrives,
/// in order, once the client reads.
#[test]
fn a_client_that_never_reads_cannot_grow_the_daemon() {
    const FRAMES: usize = 200_000;
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_redundancy"))
            .args(["serve", "--port", "0", "--tasks", "200"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning the daemon"),
    );
    let pid = daemon.0.id();
    let mut stderr = BufReader::new(daemon.0.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("[serving on ")
        .and_then(|rest| rest.split(';').next())
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    // A stalled daemon fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let before = vm_hwm_kb(pid);
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        writer.write_all(&frame("stats").repeat(FRAMES)).unwrap();
    });
    // Once the first reply is there the daemon is at work; it is idle
    // when its CPU time stands still across consecutive polls.
    stream.peek(&mut [0u8; 1]).unwrap();
    let (mut ticks, mut still) = (cpu_ticks(pid), 0);
    while still < 3 {
        std::thread::sleep(Duration::from_millis(200));
        let now = cpu_ticks(pid);
        still = if now == ticks { still + 1 } else { 0 };
        ticks = now;
    }
    let grown = vm_hwm_kb(pid).saturating_sub(before);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let first = read_reply(&mut reader);
    assert!(first.starts_with("tasks-total 201\n"), "{first}");
    for i in 1..FRAMES {
        let reply = read_reply(&mut reader);
        assert!(reply == first, "reply {i} differs: {reply}");
    }
    sender.join().unwrap();
    let mut stream = stream;
    stream.write_all(&frame("shutdown")).unwrap();
    assert_eq!(read_reply(&mut reader), "bye");
    assert!(daemon.0.wait().unwrap().success());
    assert!(
        grown < 8 * 1024,
        "peak RSS grew by {grown} kB while the client did not read"
    );
}

/// Eight TCP clients against a two-tick timeout: timeouts fire in every
/// schedule, so the patient-drain oracle must say it does not apply
/// rather than report a divergence.
#[test]
fn a_tcp_drain_with_timeouts_never_reports_a_divergence() {
    let out = Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args([
            "serve",
            "--tasks",
            "2000",
            "--clients",
            "8",
            "--shards",
            "2",
        ])
        .args(["--streams", "per-shard", "--timeout", "2", "--retries", "1"])
        .args(["--seed", "5"])
        .output()
        .expect("running the drain");
    let report = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{report}");
    assert!(!report.contains("DIVERGED"), "{report}");
    let verdict = report
        .lines()
        .find_map(|l| l.strip_prefix("sharded-stream oracle: "))
        .unwrap_or_else(|| panic!("no oracle verdict in {report}"));
    assert!(
        verdict.starts_with("not applicable (") || verdict == "bit-identical",
        "{verdict}"
    );
}
