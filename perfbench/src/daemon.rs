//! Spawning and stopping the release `redundancy serve` daemon.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use crate::procfs::ProcSample;

/// How long a daemon may take to exit after `shutdown`.
const EXIT_GRACE: Duration = Duration::from_secs(60);

/// A running daemon listening on an OS-assigned loopback port.
pub struct Daemon {
    child: Option<Child>,
    /// The daemon's process id.
    pub pid: u32,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Kept open so the daemon never writes to a closed pipe.
    stderr: BufReader<ChildStderr>,
}

impl Daemon {
    /// Start `bin serve --port 0 <args>` and wait for its listening line.
    /// The daemon inherits the calling thread's CPUs.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "`serve {}` exited before listening: {}",
                    args.join(" "),
                    seen.trim()
                ));
            }
            // "[serving on 127.0.0.1:PORT; send `shutdown` to stop]"
            if let Some(rest) = line.strip_prefix("[serving on ") {
                let addr = rest
                    .split(';')
                    .next()
                    .and_then(|a| a.parse().ok())
                    .ok_or_else(|| format!("unparsable listening line: {line}"))?;
                return Ok(Daemon {
                    pid: child.id(),
                    child: Some(child),
                    addr,
                    stderr,
                });
            }
            seen.push_str(&line);
        }
    }

    /// The daemon's counters now.
    pub fn sample(&self) -> Result<ProcSample, String> {
        ProcSample::read(&self.pid.to_string())
    }

    /// Wait for the daemon to exit (after a client sent `shutdown`) and
    /// return its standard output; a failed or hung exit is an error.
    pub fn finish(mut self) -> Result<String, String> {
        let mut child = self.child.take().expect("a daemon finishes once");
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the daemon did not exit after shutdown".into());
                }
            }
        };
        let mut stdout = String::new();
        if let Some(mut out) = child.stdout.take() {
            let _ = out.read_to_string(&mut stdout);
        }
        let mut stderr = String::new();
        let _ = self.stderr.read_to_string(&mut stderr);
        if !status.success() {
            return Err(format!(
                "the daemon exited with {status}: {}",
                stderr.trim()
            ));
        }
        Ok(stdout)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `(records, bytes, syncs)` from the daemon's closing journal line,
/// "journal: PATH (sync always): R records, B bytes, S syncs, chain 0x…".
pub fn parse_journal_line(report: &str) -> Option<(u64, u64, u64)> {
    let line = report.lines().rev().find(|l| l.starts_with("journal: "))?;
    let counts = line.split("): ").nth(1)?;
    let mut nums = counts
        .split(", ")
        .filter_map(|part| part.split_whitespace().next()?.parse::<u64>().ok());
    Some((nums.next()?, nums.next()?, nums.next()?))
}

/// The value of `key` in a `stats` reply (lines of "key value").
pub fn stats_field<'a>(stats: &'a str, key: &str) -> Option<&'a str> {
    stats.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then_some(v.trim())
    })
}

/// The checksum of a `stats` reply.
pub fn stats_checksum(stats: &str) -> Option<u64> {
    let hex = stats_field(stats, "checksum")?.strip_prefix("0x")?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_line_counts() {
        let report = "issued 5\njournal: perfbench/.work/a.journal (sync always): \
            7412 records, 151190 bytes, 7413 syncs, chain 0x00000000deadbeef\n";
        assert_eq!(parse_journal_line(report), Some((7412, 151_190, 7413)));
        assert_eq!(parse_journal_line("issued 5\n"), None);
    }

    #[test]
    fn stats_reply_fields() {
        let stats = "tasks-total 10\ntimeouts 3\nchecksum 0x00000000000000ff\n";
        assert_eq!(stats_field(stats, "timeouts"), Some("3"));
        assert_eq!(stats_checksum(stats), Some(255));
        assert_eq!(stats_checksum("timeouts 3\n"), None);
    }
}
