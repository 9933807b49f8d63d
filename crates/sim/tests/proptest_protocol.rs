//! Differential tests of the serve request codec and of the stdio shell.
//!
//! `handle_request` tokenizes and formats at the byte level, and answers
//! the canonical spellings of `request-work` and `return-result` before
//! tokenizing at all.  The reference below is the `split_whitespace` +
//! `str::parse` + `write!` implementation it replaced, kept here as the
//! grammar's executable definition.  Both answer the same request lines
//! against twin stores — an owned single-stream store against its
//! [`ServeSession`] twin, and an owned per-shard store against its
//! [`ConcurrentStore`] twin behind `&` (the lock) — and must agree on every
//! reply byte, every shutdown flag and every stats snapshot along the way.
//!
//! `serve_connection`, the stdio shell over the sans-io connection core,
//! must write the same bytes however its input and output are split:
//! short reads, short writes and `Interrupted` at random points change no
//! byte, and it never reads again while a request it read waits
//! unanswered.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::TestRng;
use redundancy_core::RealizedPlan;
use redundancy_sim::serve::{
    decode_frames, handle_request, script_frames, serve_connection, Issue, ServeConfig,
    ServeSession, SessionEnd, Store, StreamMode, WorkStore, MAX_FRAME,
};
use redundancy_sim::task::expand_plan;
use redundancy_sim::{AdversaryModel, CampaignConfig, CheatStrategy, ConcurrentStore, TaskId};
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::rc::Rc;

/// The request handler as it was before the byte-level codec, with one
/// change since: an unknown verb is echoed only as far as keeps the reply
/// within `MAX_FRAME`, cut at a char boundary.
fn reference_handle_request<S: WorkStore>(src: &mut S, request: &str, reply: &mut String) -> bool {
    use std::fmt::Write as _;
    reply.clear();
    let mut shutdown = false;
    let mut parts = request.split_whitespace();
    match parts.next() {
        Some("request-work") => match src.request_work() {
            Issue::Work(a) => {
                let _ = write!(reply, "work {} {} {}", a.task.0, a.copy, a.multiplicity);
            }
            Issue::Idle => reply.push_str("idle"),
            Issue::Drained => reply.push_str("drained"),
        },
        Some("return-result") => {
            if let (Some(task), Some(copy), None) = (
                parts.next().and_then(|t| t.parse::<u64>().ok()),
                parts.next().and_then(|c| c.parse::<u32>().ok()),
                parts.next(),
            ) {
                match src.return_result(TaskId(task), copy) {
                    Ok(ack) if ack.task_complete => reply.push_str("ok complete"),
                    Ok(_) => reply.push_str("ok"),
                    Err(e) => {
                        let _ = write!(reply, "err {} {e}", e.code());
                    }
                }
            } else {
                reply.push_str("err bad-request return-result expects <task> <copy>");
            }
        }
        Some("stats") => reply.push_str(&src.stats().render()),
        Some("shutdown") => {
            src.note_shutdown();
            reply.push_str("bye");
            shutdown = true;
        }
        Some(verb) => {
            let _ = write!(reply, "err unknown-verb {verb}");
            while reply.len() > MAX_FRAME {
                reply.pop();
            }
        }
        None => reply.push_str("err unknown-verb"),
    }
    shutdown
}

const VERBS: &[&str] = &[
    "request-work",
    "request-work",
    "return-result",
    "return-result",
    "return-result",
    "stats",
    "shutdown",
    "Request-Work",
    "request-work\u{e9}",
    "st\u{e4}ts",
    "\u{4f5c}\u{696d}",
    "return_result",
    "",
];

const SEPARATORS: &[&str] = &[
    " ", " ", " ", "\t", "  ", "\n", "\r", "\x0b", "\x0c", "\u{a0}", "\u{3000}", "\u{2028}",
    "\u{85}", "\x1c", "\x1f", " \t ",
];

const NUMBERS: &[&str] = &[
    "+",
    "++3",
    "-0",
    "-1",
    "00",
    "007",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1e3",
    "0x1",
    "\u{ff11}",
    "3\u{a0}",
    "",
];

/// Turn drawn indices into one request line: a verb, then a few argument
/// words, glued by drawn separators, with optional leading and trailing
/// whitespace.
fn request_line(draw: &[u32]) -> String {
    let pick = |i: usize, list: &[&'static str]| list[draw[i] as usize % list.len()];
    let mut line = String::new();
    if draw[0].is_multiple_of(3) {
        line.push_str(pick(1, SEPARATORS));
    }
    line.push_str(pick(2, VERBS));
    let words = draw[3] % 4;
    for w in 0..words as usize {
        line.push_str(pick(4 + 2 * w, SEPARATORS));
        let n = draw[5 + 2 * w];
        // Mostly small ids and copies that hit issued work, sometimes a
        // plus sign, sometimes a hostile literal.
        match n % 8 {
            0 => line.push_str(pick(5 + 2 * w, NUMBERS)),
            1 => line.push_str(&format!("+{}", n / 8 % 40)),
            2 => line.push_str(&format!("000{}", n / 8 % 40)),
            _ => line.push_str(&(n / 8 % 40).to_string()),
        }
    }
    if draw[12].is_multiple_of(4) {
        line.push_str(pick(13, SEPARATORS));
    }
    line
}

fn campaign() -> CampaignConfig {
    CampaignConfig::new(
        AdversaryModel::AssignmentFraction { p: 0.2 },
        CheatStrategy::AtLeast { min_copies: 1 },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every drawn request line gets the same reply and shutdown flag from
    /// the codec as from the reference, on both store flavors, with the
    /// twin stores still equal after every request.
    #[test]
    fn codec_matches_the_reference_on_both_stores(
        tasks in 4u64..60,
        seed in 0u64..1_000_000,
        draws in vec(0u32..1_000_000, 14 * 48),
    ) {
        let specs = expand_plan(&RealizedPlan::balanced(tasks, 0.5).unwrap());
        let serve = ServeConfig::new(2);
        let mut single =
            Store::new(&specs, &campaign(), &serve, seed, StreamMode::Single).unwrap();
        let mut single_ref = ServeSession::new(&specs, &campaign(), &serve, seed).unwrap();
        let mut sharded =
            Store::new(&specs, &campaign(), &serve, seed, StreamMode::PerShard).unwrap();
        let sharded_ref = ConcurrentStore::new(&specs, &campaign(), &serve, seed).unwrap();
        let (mut got, mut want) = (String::new(), String::new());
        for draw in draws.chunks(14) {
            let line = request_line(draw);
            let bye = handle_request(&mut single, &line, &mut got);
            let bye_ref = reference_handle_request(&mut single_ref, &line, &mut want);
            prop_assert_eq!(&got, &want, "single-stream reply to {:?}", line);
            prop_assert_eq!(bye, bye_ref);
            let bye = handle_request(&mut sharded, &line, &mut got);
            let bye_ref = reference_handle_request(&mut &sharded_ref, &line, &mut want);
            prop_assert_eq!(&got, &want, "per-shard reply to {:?}", line);
            prop_assert_eq!(bye, bye_ref);
            prop_assert_eq!(single.stats(), single_ref.stats());
            prop_assert_eq!(sharded.stats(), sharded_ref.stats());
        }
        single.check_invariants();
        sharded.check_invariants();
    }
}

/// The grammar's corner cases, one by one, against the reference.
#[test]
fn codec_matches_the_reference_on_pinned_corner_cases() {
    let specs = expand_plan(&RealizedPlan::balanced(8, 0.5).unwrap());
    let serve = ServeConfig::new(1);
    let mut s = ServeSession::new(&specs, &campaign(), &serve, 3).unwrap();
    let mut r = ServeSession::new(&specs, &campaign(), &serve, 3).unwrap();
    let (mut got, mut want) = (String::new(), String::new());
    for line in [
        "",
        " ",
        "\t\n",
        "request-work",
        "  request-work  ",
        "\u{3000}request-work\u{a0}",
        "request-work extra words",
        "return-result 0 0",
        "return-result +0 +0",
        "return-result 00 0000",
        "return-result\t1\t0",
        "return-result 0 4294967296",
        "return-result 18446744073709551616 0",
        "return-result 18446744073709551615 0",
        "return-result -0 0",
        "return-result + 0",
        "return-result 0",
        "return-result 0 0 0",
        "return-result 0\u{a0}0",
        "return-result 0\x1c0",
        "stats now",
        "r\u{e9}sum\u{e9}",
        "shutdown please",
    ] {
        let bye = handle_request(&mut s, line, &mut got);
        let bye_ref = reference_handle_request(&mut r, line, &mut want);
        assert_eq!(got, want, "reply to {line:?}");
        assert_eq!(bye, bye_ref, "shutdown flag for {line:?}");
    }
}

/// Both sides of the fast path's boundary, on both store flavors, after
/// a few copies are out: canonical spellings it takes, and near misses it
/// must hand to the tokenizer, which answers them as the reference does.
#[test]
fn the_fast_path_boundary_matches_the_reference() {
    let specs = expand_plan(&RealizedPlan::balanced(8, 0.5).unwrap());
    let serve = ServeConfig::new(2);
    let mut single = Store::new(&specs, &campaign(), &serve, 3, StreamMode::Single).unwrap();
    let mut single_ref = ServeSession::new(&specs, &campaign(), &serve, 3).unwrap();
    let mut sharded = Store::new(&specs, &campaign(), &serve, 3, StreamMode::PerShard).unwrap();
    let sharded_ref = ConcurrentStore::new(&specs, &campaign(), &serve, 3).unwrap();
    let taken = [
        "request-work",
        "return-result 0 0",
        "return-result 007 01",
        "return-result 18446744073709551615 4294967295",
    ];
    let declined = [
        "return-result 18446744073709551616 0",
        "return-result 1 4294967296",
        "return-result +1 +0",
        "return-result 1  2",
        "return-result 1 2 ",
        "return-result 1\t2",
        "return-result 1 2 3",
        "return-result -0 0",
        "return-result 1",
        "return-result ",
        "return-result 1 ",
        "return-result  1",
        "request-work ",
        " request-work",
        "request-work\n",
        "request-workx",
        "request-work x",
    ];
    let warm_up = ["request-work"; 6];
    let (mut got, mut want) = (String::new(), String::new());
    for line in warm_up.iter().chain(&taken).chain(&declined).chain(&taken) {
        let bye = handle_request(&mut single, line, &mut got);
        let bye_ref = reference_handle_request(&mut single_ref, line, &mut want);
        assert_eq!(got, want, "single-stream reply to {line:?}");
        assert_eq!(bye, bye_ref, "shutdown flag for {line:?}");
        let bye = handle_request(&mut sharded, line, &mut got);
        let bye_ref = reference_handle_request(&mut &sharded_ref, line, &mut want);
        assert_eq!(got, want, "per-shard reply to {line:?}");
        assert_eq!(bye, bye_ref, "shutdown flag for {line:?}");
    }
    assert_eq!(single.stats(), single_ref.stats());
    assert_eq!(sharded.stats(), sharded_ref.stats());
}

/// Draw a stdio script: request lines as [`request_line`] spells them,
/// runs of `stats` whose replies pass the 64 KiB output cap, invalid
/// UTF-8 and a frame-long unknown verb; then a clean end, a frame cut
/// anywhere (inside its prefix included), an oversize prefix, or
/// `shutdown` with more requests behind it.
fn stdio_script(draws: &[u32]) -> Vec<u8> {
    let (lines, tail) = draws.split_at(draws.len() - 2);
    let mut bytes = Vec::new();
    for draw in lines.chunks(14) {
        match draw[0] % 16 {
            0 => bytes.extend(script_frames(&["stats"]).repeat(1 + draw[1] as usize % 300)),
            1 => bytes.extend_from_slice(&[0, 0, 0, 3, 0xC3, 0x28, 0xFF]),
            2 => bytes.extend(script_frames(&[&"y".repeat(MAX_FRAME)])),
            _ => bytes.extend(script_frames(&[&request_line(draw)])),
        }
    }
    match tail[0] % 4 {
        0 => {}
        1 => {
            let frame = script_frames(&["stats"]);
            bytes.extend_from_slice(&frame[..1 + tail[1] as usize % (frame.len() - 1)]);
        }
        2 => bytes.extend_from_slice(&[0x7F, 0xFF, 0xFF, 0xFF]),
        _ => bytes.extend(script_frames(&["shutdown", "request-work"])),
    }
    bytes
}

/// The complete frames at the front of a growing byte stream, counted
/// incrementally.
#[derive(Default)]
struct FrameCount {
    at: usize,
    frames: usize,
}

impl FrameCount {
    fn count(&mut self, bytes: &[u8]) -> usize {
        while let Some(prefix) = bytes.get(self.at..self.at + 4) {
            let len = u32::from_be_bytes(prefix.try_into().unwrap()) as usize;
            if len > MAX_FRAME || bytes.len() < self.at + 4 + len {
                break;
            }
            self.at += 4 + len;
            self.frames += 1;
        }
        self.frames
    }
}

/// What the shell wrote, and how much of it it had flushed.
#[derive(Default)]
struct Sink {
    bytes: Vec<u8>,
    flushed: usize,
}

/// The shell's input.  With an RNG, reads are short at random points
/// (single bytes included) and some return `Interrupted`; without one,
/// each read takes all the input that fits.  Before it hands out more
/// bytes it checks that every complete request it handed out has been
/// answered and flushed: a client that waits for its replies would stall
/// otherwise.
struct ScriptReader {
    script: Vec<u8>,
    at: usize,
    rng: Option<TestRng>,
    sink: Rc<RefCell<Sink>>,
    requests: FrameCount,
    replies: FrameCount,
}

impl Read for ScriptReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let sink = self.sink.borrow();
        assert_eq!(
            self.replies.count(&sink.bytes[..sink.flushed]),
            self.requests.count(&self.script[..self.at]),
            "read again while a request waits unanswered or unflushed"
        );
        let most = buf.len().min(self.script.len() - self.at) as u64;
        let n = match &mut self.rng {
            None => most,
            Some(rng) => match rng.below(5) {
                0 => return Err(io::ErrorKind::Interrupted.into()),
                _ if most == 0 => 0,
                1 => 1,
                2 => 1 + rng.below(most.min(8)),
                3 => 1 + rng.below(most),
                _ => most,
            },
        } as usize;
        buf[..n].copy_from_slice(&self.script[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// The shell's output.  With an RNG, writes take random short counts and
/// some return `Interrupted`; without one, each write takes everything.
struct SinkWriter {
    sink: Rc<RefCell<Sink>>,
    rng: Option<TestRng>,
}

impl Write for SinkWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = match &mut self.rng {
            None => buf.len(),
            Some(rng) => match rng.below(5) {
                0 => return Err(io::ErrorKind::Interrupted.into()),
                _ if buf.is_empty() => 0,
                _ => 1 + rng.below(buf.len() as u64) as usize,
            },
        };
        self.sink.borrow_mut().bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut sink = self.sink.borrow_mut();
        sink.flushed = sink.bytes.len();
        Ok(())
    }
}

/// Serve `script` over stdio's shell, splitting its reads and writes with
/// `rng` when given.  Returns the bytes written, how the session ended and
/// the store's final stats.
fn serve_stdio(
    script: &[u8],
    mut store: Store,
    rng: Option<TestRng>,
) -> (Vec<u8>, SessionEnd, redundancy_sim::ServeStats) {
    let sink = Rc::new(RefCell::new(Sink::default()));
    let mut reader = ScriptReader {
        script: script.to_vec(),
        at: 0,
        rng: rng.clone(),
        sink: Rc::clone(&sink),
        requests: FrameCount::default(),
        replies: FrameCount::default(),
    };
    let mut writer = SinkWriter {
        sink: Rc::clone(&sink),
        rng: rng.map(|mut r| TestRng::new(r.next_u64())),
    };
    let end = serve_connection(&mut reader, &mut writer, |req, reply| {
        handle_request(&mut store, req, reply)
    })
    .unwrap();
    let bytes = std::mem::take(&mut sink.borrow_mut().bytes);
    (bytes, end, store.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Short reads, short writes and `Interrupted` at random points earn
    /// the bytes, the end and the store state the whole stream earns.
    #[test]
    fn stdio_bytes_survive_short_reads_and_writes(
        tasks in 4u64..40,
        seed in 0u64..1_000_000,
        per_shard in 0u32..2,
        draws in vec(0u32..1_000_000, 14 * 24 + 2),
    ) {
        let script = stdio_script(&draws);
        let specs = expand_plan(&RealizedPlan::balanced(tasks, 0.5).unwrap());
        let mode = if per_shard == 1 { StreamMode::PerShard } else { StreamMode::Single };
        let store = || Store::new(&specs, &campaign(), &ServeConfig::new(2), seed, mode).unwrap();
        let whole = serve_stdio(&script, store(), None);
        let split = serve_stdio(&script, store(), Some(TestRng::new(seed)));
        prop_assert_eq!(split.1, whole.1);
        prop_assert!(split.0 == whole.0, "the split run wrote other bytes");
        prop_assert_eq!(split.2, whole.2);
    }
}

/// One read that holds more requests than the output cap lets the core
/// answer at once: the shell writes, answers the rest and flushes before
/// it reads again.
#[test]
fn stdio_answers_every_buffered_frame_before_reading_again() {
    let specs = expand_plan(&RealizedPlan::balanced(8, 0.5).unwrap());
    let store = Store::new(
        &specs,
        &campaign(),
        &ServeConfig::new(1),
        3,
        StreamMode::Single,
    )
    .unwrap();
    let script = script_frames(&["stats"]).repeat(400);
    let (bytes, end, _) = serve_stdio(&script, store, None);
    assert_eq!(end, SessionEnd::Eof);
    assert_eq!(decode_frames(&bytes).len(), 400);
}
