//! Process-level contract of the `redundancy` binary: exit code 0 with the
//! report on stdout for valid invocations, exit code 2 with an `error:`
//! line on stderr for invalid ones.

use std::process::Command;

fn redundancy(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_redundancy"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn valid_faults_sweep_exits_zero() {
    let out = redundancy(&[
        "faults",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--campaigns",
        "1",
        "--steps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fault sweep"), "{stdout}");
    assert!(out.stderr.is_empty());
}

#[test]
fn drop_rate_above_one_exits_two() {
    let out = redundancy(&[
        "faults",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--drop-rate",
        "1.5",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("--drop-rate"), "{stderr}");
}

#[test]
fn zero_timeout_exits_two() {
    let out = redundancy(&[
        "faults",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--timeout",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--timeout"), "{stderr}");
}

#[test]
fn zero_chunk_size_exits_two_naming_the_flag() {
    let out = redundancy(&[
        "simulate",
        "--tasks",
        "200",
        "--epsilon",
        "0.5",
        "--chunk-size",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("--chunk-size"), "{stderr}");
}

/// `simulate --proportion` outside [0, 1) is refused by its flag's check,
/// naming the flag, before any campaign is configured (it used to panic in
/// the campaign set-up and exit 101).
#[test]
fn simulate_proportion_outside_its_range_exits_two_naming_the_flag() {
    for value in ["1.5", "-0.2", "1", "nan", "inf"] {
        let out = redundancy(&[
            "simulate",
            "--tasks",
            "100",
            "--epsilon",
            "0.5",
            "--campaigns",
            "2",
            "--proportion",
            value,
        ]);
        assert_eq!(out.status.code(), Some(2), "{value}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error:"), "{value}: {stderr}");
        assert!(stderr.contains("--proportion"), "{value}: {stderr}");
        assert!(out.stdout.is_empty(), "{value}: must not print a report");
    }
}

/// Zero campaigns would report on nothing (`simulate` blamed the adversary
/// share, `faults` printed detection 0 on every row), so each command that
/// takes `--campaigns` refuses 0 in its flag's check.
#[test]
fn zero_campaigns_exit_two_naming_the_flag() {
    for command in ["simulate", "faults", "churn"] {
        let out = redundancy(&[
            command,
            "--tasks",
            "100",
            "--epsilon",
            "0.5",
            "--campaigns",
            "0",
        ]);
        assert_eq!(out.status.code(), Some(2), "{command}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("bad value `0` for `--campaigns` (expected a positive integer)"),
            "{command}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{command}: must not print a report");
    }
}

/// `--min-multiplicity 0` means the same in both commands that take it: a
/// bad value.  To ask for no minimum, the flag is omitted.
#[test]
fn zero_min_multiplicity_exits_two_in_advise_and_plan() {
    for command in [
        &["advise", "--tasks", "100", "--epsilon", "0.5"][..],
        &[
            "plan",
            "--tasks",
            "100",
            "--epsilon",
            "0.5",
            "--scheme",
            "extended",
        ][..],
    ] {
        let mut args = command.to_vec();
        args.extend(["--min-multiplicity", "0"]);
        let out = redundancy(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains(
                    "bad value `0` for `--min-multiplicity` (expected a positive integer)"
                ),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: must not print a report");
    }
}

#[test]
fn unknown_command_exits_two() {
    let out = redundancy(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn repro_trials_scale_zero_exits_two_naming_the_flag() {
    let out = redundancy(&["repro", "appendix_a_collusion", "--trials-scale", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--trials-scale"), "{stderr}");
    assert!(out.stdout.is_empty(), "must not print a report");
}

/// A workload beyond the store's `u32` task limit is refused with a
/// structured error before anything per task is allocated and before a
/// port is bound, in every transport.
#[test]
fn serve_beyond_the_task_limit_exits_two_without_serving() {
    for transport in [&["--port", "0"][..], &["--stdio"][..]] {
        let mut args = vec!["serve", "--tasks", "5000000000"];
        args.extend_from_slice(transport);
        let out = redundancy(&args);
        assert_eq!(out.status.code(), Some(2), "{transport:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("tasks exceed the store's limit of 4294967295"),
            "{transport:?}: {stderr}"
        );
        assert!(!stderr.contains("serving on"), "{transport:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{transport:?}: must not print");
    }
}

/// `--clients` starts one thread per client and `--shards` builds one store
/// machine per shard before the first request, so both stop at the bound
/// `--threads` keeps: past it the command fails in argument parsing,
/// naming the flag and the bound, before any thread or shard exists.
#[test]
fn serve_client_and_shard_counts_past_the_thread_bound_exit_two() {
    for args in [
        &["serve", "--clients", "1025"][..],
        &["serve", "--shards", "1025", "--streams", "per-shard"][..],
    ] {
        let out = redundancy(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.starts_with("error: ") && stderr.contains(args[1]) && stderr.contains("1024"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("serving on"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: must not print");
    }
}

/// Send one framed request and read the framed reply.
#[cfg(target_os = "linux")]
fn call(stream: &mut std::net::TcpStream, request: &str) -> String {
    use std::io::{Read, Write};
    stream
        .write_all(&(request.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut reply = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut reply).unwrap();
    String::from_utf8(reply).unwrap()
}

/// A daemon that runs out of descriptors stops accepting instead of
/// dying, keeps serving the connections it has, and accepts again once
/// connections close.
#[cfg(target_os = "linux")]
#[test]
fn daemon_survives_running_out_of_descriptors() {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::time::Duration;
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n 16 && exec '{}' serve --port 0 --tasks 2000 --streams per-shard --shards 2",
            env!("CARGO_BIN_EXE_redundancy")
        ))
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning the daemon");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    stderr.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("[serving on ")
        .and_then(|rest| rest.split(';').next())
        .unwrap_or_else(|| panic!("unexpected banner: {line}"))
        .to_string();
    let timeout = Some(Duration::from_secs(30));
    let connect = || {
        let s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(timeout).unwrap();
        s
    };
    let mut first = connect();
    assert!(call(&mut first, "request-work").starts_with("work "));
    // Sixteen descriptors leave the daemon about eleven connections; the
    // kernel completes the rest of these handshakes in the backlog.
    let extra: Vec<TcpStream> = (0..40).map(|_| connect()).collect();
    std::thread::sleep(Duration::from_millis(300));
    assert!(call(&mut first, "stats").contains("issued 1\n"));
    drop(extra);
    let mut late = connect();
    assert!(call(&mut late, "stats").contains("issued 1\n"));
    assert_eq!(call(&mut first, "shutdown"), "bye");
    drop((first, late));
    let status = child.wait().unwrap();
    assert!(status.success(), "daemon exited with {status}");
}
