//! The hand-rolled wire protocol of `redundancy serve`.
//!
//! Frames are a 4-byte big-endian length prefix followed by a UTF-8 text
//! payload of at most [`MAX_FRAME`] bytes.  Requests are single lines —
//!
//! | request                     | response                               |
//! |-----------------------------|----------------------------------------|
//! | `request-work`              | `work <task> <copy> <mult>` \| `idle` \| `drained` |
//! | `return-result <task> <copy>` | `ok` \| `ok complete`                |
//! | `stats`                     | the deterministic key-value dump       |
//! | `shutdown`                  | `bye` (and the session ends)           |
//!
//! — and every failure is a structured `err <code> <detail>` frame, never
//! a hang or a panic: an unknown verb or bad arguments answer `err` and
//! the session continues; a truncated or oversized frame answers `err`
//! and the session ends (the stream cannot be resynchronized).  A clean
//! EOF before a length prefix ends the session silently.
//!
//! # Request grammar
//!
//! A request is a sequence of words separated by whitespace, where
//! whitespace is every character [`char::is_whitespace`] accepts: the
//! ASCII space, `\t`, `\n`, `\x0B`, `\x0C` and `\r`, and the Unicode
//! `White_Space` characters beyond ASCII such as U+00A0 and U+3000.
//! Leading, trailing and repeated whitespace is ignored, so a request
//! splits exactly as [`str::split_whitespace`] splits it.
//!
//! * The first word is the verb, matched case-sensitively.  An empty
//!   request answers `err unknown-verb`; any other verb answers
//!   `err unknown-verb <verb>`, echoing the verb cut at a char boundary
//!   where the reply would pass [`MAX_FRAME`].
//! * `request-work`, `stats` and `shutdown` ignore any further words.
//! * `return-result` takes exactly two more words, `<task>` (a `u64`) and
//!   `<copy>` (a `u32`), parsed by `str::parse`: an optional `+`
//!   followed by one or more ASCII digits, leading zeros allowed.  A
//!   missing or extra word, a `-` sign, any other character, or a value
//!   that overflows its type answers
//!   `err bad-request return-result expects <task> <copy>`.
//!
//! The canonical spellings of the two hot verbs — exactly `request-work`,
//! and `return-result`, one space, ASCII digits, one space, ASCII digits —
//! are answered straight off the bytes, before any tokenizing.  That is a
//! shortcut, not a second grammar: it accepts only lines the rules above
//! accept, parses them to the same values, and hands every other spelling
//! (an extra space, a tab, a `+`, an overflow, another verb, non-ASCII) to
//! the tokenizer.
//!
//! Replies are built by [`handle_request`], the one place every transport
//! formats them: a `work` reply is three decimal integers without leading
//! zeros.
//!
//! The transport is generic over [`Read`]/[`Write`], so the same loop
//! serves stdio (deterministic, byte-fixture-testable) and in-memory
//! buffers (the integration tests).  TCP connections run on the epoll
//! readiness loop, which takes the same request handler.

use std::io::{self, Read, Write};

use super::concurrent::StreamMode;
use super::store::{Assignment, Issue, ReturnAck, ServeConfig, ServeError, ServeStats, Store};
use super::WorkStore;
use crate::engine::CampaignConfig;
use crate::outcome::CampaignOutcome;
use crate::task::{SpecGroup, TaskId, TaskSpec};
use redundancy_stats::DeterministicRng;

/// Maximum frame payload, in bytes.  Requests are one short line and the
/// largest response is the stats dump, so anything bigger is a corrupt or
/// hostile stream.
pub const MAX_FRAME: usize = 4096;

/// A decoded incoming frame (or the reason there isn't one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete payload.
    Message(Vec<u8>),
    /// Clean end of stream before any prefix byte.
    Eof,
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// The prefix declared a payload larger than [`MAX_FRAME`].
    Oversize(u32),
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME, "oversized outgoing frame");
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)
}

/// Read up to `buf.len()` bytes, stopping early only at EOF; returns how
/// many bytes were read.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// What [`read_frame_into`] found, with the payload left in the caller's
/// buffer instead of a fresh allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A complete payload now fills the buffer.
    Message,
    /// Clean end of stream before any prefix byte.
    Eof,
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// The prefix declared a payload larger than [`MAX_FRAME`].
    Oversize(u32),
}

/// Read one frame into `payload` (cleared first), reusing its capacity
/// across calls — the transport loop's steady state allocates nothing.
/// Never blocks past the bytes the prefix promised and never reads the
/// payload of an oversized frame.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> io::Result<FrameKind> {
    payload.clear();
    let mut prefix = [0u8; 4];
    match read_up_to(r, &mut prefix)? {
        0 => return Ok(FrameKind::Eof),
        4 => {}
        _ => return Ok(FrameKind::Truncated),
    }
    let len = u32::from_be_bytes(prefix);
    if len as usize > MAX_FRAME {
        return Ok(FrameKind::Oversize(len));
    }
    payload.resize(len as usize, 0);
    if read_up_to(r, payload)? < payload.len() {
        return Ok(FrameKind::Truncated);
    }
    Ok(FrameKind::Message)
}

/// Read one frame into a fresh buffer (allocating wrapper over
/// [`read_frame_into`] for callers outside the hot loop).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut payload = Vec::new();
    Ok(match read_frame_into(r, &mut payload)? {
        FrameKind::Message => Frame::Message(payload),
        FrameKind::Eof => Frame::Eof,
        FrameKind::Truncated => Frame::Truncated,
        FrameKind::Oversize(len) => Frame::Oversize(len),
    })
}

/// One request's outcome: the response text plus whether the session ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Response payload to frame back to the client.
    pub text: String,
    /// True after `shutdown`: the transport loop should stop.
    pub shutdown: bool,
}

/// How a transport loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// The client sent `shutdown`.
    Shutdown,
    /// The stream closed cleanly between frames.
    Eof,
    /// A malformed frame (truncated or oversized) ended the session after
    /// a structured `err` response.
    Malformed,
}

/// Parse one request line and format the response into `reply` (cleared
/// first); returns true when the session should end (`shutdown`).  Any
/// [`WorkStore`] — a [`Store`] in either stream mode, a journaling wrapper
/// over one, or a shared `&ConcurrentStore` — can sit behind it, and this
/// is the *only* place request text is parsed and reply text is
/// formatted, so the stream modes and the transports cannot drift
/// byte-wise.  The grammar is in the module docs; the reply
/// bytes for every verb are pinned by the protocol tests and the golden
/// snapshots.
pub fn handle_request<S: WorkStore>(src: &mut S, request: &str, reply: &mut String) -> bool {
    reply.clear();
    // The canonical spellings of the two hot verbs, straight off the
    // bytes; every other spelling is tokenized below.
    let bytes = request.as_bytes();
    if bytes == b"request-work" {
        push_issue(reply, src.request_work());
        return false;
    }
    if let Some((task, copy)) = bytes
        .strip_prefix(b"return-result ")
        .and_then(canonical_return)
    {
        push_ack(reply, src.return_result(TaskId(task), copy));
        return false;
    }
    if request.is_ascii() {
        dispatch(src, AsciiWords(request), reply)
    } else {
        // Unicode whitespace can only occur in a non-ASCII line.
        dispatch(src, request.split_whitespace(), reply)
    }
}

/// Answer one tokenized request.
fn dispatch<'a, S: WorkStore>(
    src: &mut S,
    mut words: impl Iterator<Item = &'a str>,
    reply: &mut String,
) -> bool {
    match words.next() {
        Some("request-work") => push_issue(reply, src.request_work()),
        Some("return-result") => {
            let task = words.next().and_then(|t| t.parse::<u64>().ok());
            let copy = words.next().and_then(|c| c.parse::<u32>().ok());
            match (task, copy, words.next()) {
                (Some(task), Some(copy), None) => {
                    push_ack(reply, src.return_result(TaskId(task), copy))
                }
                _ => reply.push_str("err bad-request return-result expects <task> <copy>"),
            }
        }
        Some("stats") => reply.push_str(&src.stats().render()),
        Some("shutdown") => {
            src.note_shutdown();
            reply.push_str("bye");
            return true;
        }
        Some(verb) => {
            reply.push_str(UNKNOWN_VERB);
            // Echo as much of the verb as keeps the reply a legal frame.
            reply.push_str(&verb[..verb.floor_char_boundary(MAX_FRAME - UNKNOWN_VERB.len())]);
        }
        None => reply.push_str("err unknown-verb"),
    }
    false
}

/// The head of the reply to an unknown verb, which echoes the verb after
/// it.
const UNKNOWN_VERB: &str = "err unknown-verb ";

/// The `<task> <copy>` of a canonically spelled `return-result`: ASCII
/// digits, one space, ASCII digits, and nothing else, with the task
/// fitting `u64` and the copy `u32`.  `None` hands every other spelling to
/// the tokenizer, which decides it.
fn canonical_return(args: &[u8]) -> Option<(u64, u32)> {
    let space = args.iter().position(|&b| b == b' ')?;
    let task = parse_digits(&args[..space])?;
    let copy = u32::try_from(parse_digits(&args[space + 1..])?).ok()?;
    Some((task, copy))
}

/// A non-empty run of ASCII digits as a `u64`; `None` for an empty run,
/// any other byte, or a value past `u64::MAX`.
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// Format the reply to a `request-work`.
fn push_issue(reply: &mut String, issue: Issue) {
    match issue {
        Issue::Work(a) => push_work(reply, a),
        Issue::Idle => reply.push_str("idle"),
        Issue::Drained => reply.push_str("drained"),
    }
}

/// Format the reply to a well-formed `return-result`.
fn push_ack(reply: &mut String, ack: Result<ReturnAck, ServeError>) {
    use std::fmt::Write as _;
    match ack {
        Ok(ack) if ack.task_complete => reply.push_str("ok complete"),
        Ok(_) => reply.push_str("ok"),
        Err(e) => {
            let _ = write!(reply, "err {} {e}", e.code());
        }
    }
}

/// The words of an ASCII line, split on the ASCII characters
/// [`char::is_whitespace`] accepts — exactly what `split_whitespace`
/// yields for such a line, without decoding chars.
struct AsciiWords<'a>(&'a str);

impl<'a> Iterator for AsciiWords<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let is_space = |b: &u8| matches!(b, b' ' | b'\t'..=b'\r');
        let bytes = self.0.as_bytes();
        let start = bytes.iter().position(|b| !is_space(b))?;
        let end = bytes[start..]
            .iter()
            .position(is_space)
            .map_or(bytes.len(), |n| start + n);
        let word = &self.0[start..end];
        self.0 = &self.0[end..];
        Some(word)
    }
}

/// `"00"` through `"99"`, two bytes each.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Append `work <task> <copy> <mult>`.  The line is built right to left
/// in one stack buffer, so it is validated and copied once.
fn push_work(reply: &mut String, a: Assignment) {
    // "work " plus a `u64` and two `u32`s, space-separated.
    const LEN: usize = 5 + 20 + 1 + 10 + 1 + 10;
    let mut buf = [0u8; LEN];
    let mut at = digits_before(&mut buf, LEN, u64::from(a.multiplicity));
    at -= 1;
    buf[at] = b' ';
    at = digits_before(&mut buf, at, u64::from(a.copy));
    at -= 1;
    buf[at] = b' ';
    at = digits_before(&mut buf, at, a.task.0);
    at -= 5;
    buf[at..at + 5].copy_from_slice(b"work ");
    reply.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII"));
}

/// Write `n` in decimal, without leading zeros, into the bytes of `buf`
/// just before `end`, two digits per division; returns where it starts.
fn digits_before(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = 2 * n as usize;
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    end
}

/// A single-stream [`Store`] plus a reusable reply buffer, answering
/// requests as protocol text.  It remains as a name the benchmark's oracle
/// compiles against; the transports answer through [`handle_request`].
#[derive(Debug)]
pub struct ServeSession {
    store: Store,
    /// Reply scratch reused by [`handle_buffered`](Self::handle_buffered):
    /// after warm-up the per-request path allocates nothing.
    reply_buf: String,
}

impl ServeSession {
    /// A fresh single-stream session over `tasks`; see [`Store::new`].
    pub fn new(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
    ) -> Result<Self, String> {
        Store::new(tasks, config, serve, seed, StreamMode::Single).map(Self::wrap)
    }

    /// A fresh single-stream session over the spec groups `groups`; see
    /// [`Store::from_groups`].
    pub fn from_groups(
        groups: &[SpecGroup],
        config: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
    ) -> Result<Self, String> {
        Store::from_groups(groups, config, serve, seed, StreamMode::Single).map(Self::wrap)
    }

    fn wrap(store: Store) -> Self {
        ServeSession {
            store,
            reply_buf: String::new(),
        }
    }

    /// Handle one request line, producing an owned response (allocating
    /// wrapper over [`handle_buffered`](Self::handle_buffered) for callers
    /// that need to hold the reply past the next request).
    pub fn handle(&mut self, request: &str) -> Reply {
        let (text, shutdown) = self.handle_buffered(request);
        Reply {
            text: text.to_owned(),
            shutdown,
        }
    }

    /// Handle one request line into the session's reusable reply buffer,
    /// returning the response text and whether the session should end.
    /// The borrow ends at the next call, so hot loops pay zero
    /// allocations per request.
    pub fn handle_buffered(&mut self, request: &str) -> (&str, bool) {
        let shutdown = handle_request(&mut self.store, request, &mut self.reply_buf);
        (&self.reply_buf, shutdown)
    }
}

impl WorkStore for ServeSession {
    fn request_work(&mut self) -> Issue {
        self.store.request_work()
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        self.store.return_result(task, copy)
    }

    fn stats(&self) -> ServeStats {
        self.store.stats()
    }

    fn merged_outcome(&self) -> CampaignOutcome {
        self.store.merged_outcome()
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        self.store.final_rngs()
    }

    fn is_drained(&self) -> bool {
        self.store.is_drained()
    }

    fn expiry_counters(&self) -> (u64, u64) {
        self.store.expiry_counters()
    }

    fn reset_in_flight(&mut self) -> u64 {
        self.store.reset_in_flight()
    }
}

/// Run the framed request/response loop over any byte stream, delegating
/// each decoded request to `handle`, which formats its reply into the
/// provided scratch and returns true on `shutdown` — the same handler the
/// epoll readiness loop takes.  Responses are flushed per frame so
/// interactive transports never stall.
pub fn serve_connection<R: Read, W: Write>(
    r: &mut R,
    w: &mut W,
    mut handle: impl FnMut(&str, &mut String) -> bool,
) -> io::Result<SessionEnd> {
    // One decode buffer and one reply buffer for the whole connection:
    // after the largest frame has been seen, the loop stops allocating.
    let mut payload = Vec::new();
    let mut reply = String::new();
    loop {
        match read_frame_into(r, &mut payload)? {
            FrameKind::Eof => return Ok(SessionEnd::Eof),
            FrameKind::Truncated => {
                write_frame(w, "err truncated-frame")?;
                w.flush()?;
                return Ok(SessionEnd::Malformed);
            }
            FrameKind::Oversize(len) => {
                write_frame(w, &format!("err oversize-frame {len} exceeds {MAX_FRAME}"))?;
                w.flush()?;
                return Ok(SessionEnd::Malformed);
            }
            FrameKind::Message => {
                let Ok(text) = std::str::from_utf8(&payload) else {
                    write_frame(w, "err invalid-utf8")?;
                    w.flush()?;
                    continue;
                };
                let shutdown = handle(text, &mut reply);
                write_frame(w, &reply)?;
                w.flush()?;
                if shutdown {
                    return Ok(SessionEnd::Shutdown);
                }
            }
        }
    }
}

/// Encode a scripted client session as raw frame bytes — the integration
/// tests and the CI stdio smoke build their byte fixtures with this.
pub fn script_frames(requests: &[&str]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for req in requests {
        write_frame(&mut bytes, req).expect("writing to a Vec cannot fail");
    }
    bytes
}

/// Decode a response stream into its frame payloads (lossy UTF-8), for
/// asserting scripted sessions byte-for-byte.
pub fn decode_frames(mut bytes: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    loop {
        match read_frame(&mut bytes).expect("reading from a slice cannot fail") {
            Frame::Message(payload) => out.push(String::from_utf8_lossy(&payload).into_owned()),
            Frame::Eof => return out,
            Frame::Truncated => {
                out.push("<truncated>".into());
                return out;
            }
            Frame::Oversize(len) => {
                out.push(format!("<oversize {len}>"));
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryModel, CheatStrategy};
    use crate::task::expand_plan;
    use redundancy_core::RealizedPlan;

    fn session(n: u64, mult: usize, seed: u64) -> ServeSession {
        let tasks = expand_plan(&RealizedPlan::k_fold(n, mult, 0.5).unwrap());
        let config = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        ServeSession::new(&tasks, &config, &ServeConfig::new(2), seed).unwrap()
    }

    #[test]
    fn frame_round_trip() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, "request-work").unwrap();
        write_frame(&mut bytes, "").unwrap();
        let mut r: &[u8] = &bytes;
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame::Message(b"request-work".to_vec())
        );
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Message(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Eof);
    }

    #[test]
    fn read_frame_into_reuses_the_buffer_and_matches_read_frame() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, "a longer first frame").unwrap();
        write_frame(&mut bytes, "short").unwrap();
        write_frame(&mut bytes, "").unwrap();
        let mut r: &[u8] = &bytes;
        let mut buf = Vec::new();
        assert_eq!(
            read_frame_into(&mut r, &mut buf).unwrap(),
            FrameKind::Message
        );
        assert_eq!(buf, b"a longer first frame");
        let cap = buf.capacity();
        assert_eq!(
            read_frame_into(&mut r, &mut buf).unwrap(),
            FrameKind::Message
        );
        assert_eq!(buf, b"short");
        assert_eq!(buf.capacity(), cap, "shorter frame must not reallocate");
        assert_eq!(
            read_frame_into(&mut r, &mut buf).unwrap(),
            FrameKind::Message
        );
        assert!(buf.is_empty());
        assert_eq!(read_frame_into(&mut r, &mut buf).unwrap(), FrameKind::Eof);
        // The malformed classifications agree with the allocating reader.
        let mut t: &[u8] = &[0x00, 0x00];
        assert_eq!(
            read_frame_into(&mut t, &mut buf).unwrap(),
            FrameKind::Truncated
        );
        let mut o: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(
            read_frame_into(&mut o, &mut buf).unwrap(),
            FrameKind::Oversize(u32::MAX)
        );
    }

    #[test]
    fn handle_buffered_matches_handle_across_a_session() {
        let mut buffered = session(2, 2, 5);
        let mut owned = session(2, 2, 5);
        for req in [
            "request-work",
            "stats",
            "return-result 0 0",
            "return-result 0 0",
            "bogus verb",
            "request-work",
            "shutdown",
        ] {
            let want = owned.handle(req);
            let (text, shutdown) = buffered.handle_buffered(req);
            assert_eq!(text, want.text, "request {req}");
            assert_eq!(shutdown, want.shutdown, "request {req}");
        }
    }

    #[test]
    fn malformed_frames_are_classified() {
        // Truncated prefix.
        let mut r: &[u8] = &[0x00, 0x00];
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Truncated);
        // Truncated payload.
        let mut r: &[u8] = &[0x00, 0x00, 0x00, 0x05, b'h', b'i'];
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Truncated);
        // Oversize prefix: payload is never read.
        let mut r: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Oversize(u32::MAX));
    }

    #[test]
    fn scripted_session_drains_a_tiny_workload() {
        // 2 tasks x 2 copies: the dispatch order is fixed, so the whole
        // exchange is scriptable.
        let mut s = session(2, 2, 1);
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
            "shutdown",
        ];
        let mut input: &[u8] = &script_frames(&script)[..];
        let mut output = Vec::new();
        let end = serve_connection(&mut input, &mut output, |req, reply| {
            handle_request(&mut s, req, reply)
        })
        .unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        let replies = decode_frames(&output);
        assert_eq!(
            replies,
            vec![
                "work 0 0 2",
                "ok",
                "work 0 1 2",
                "ok complete",
                "work 1 0 2",
                "work 1 1 2",
                "ok",
                "ok complete",
                "drained",
                "bye",
            ]
        );
        assert!(s.is_drained());
    }

    #[test]
    fn unknown_verbs_and_bad_arguments_answer_err_and_continue() {
        let mut s = session(1, 2, 1);
        assert_eq!(
            s.handle("frobnicate now").text,
            "err unknown-verb frobnicate"
        );
        assert_eq!(s.handle("").text, "err unknown-verb");
        assert_eq!(
            s.handle("return-result one two").text,
            "err bad-request return-result expects <task> <copy>"
        );
        assert_eq!(
            s.handle("return-result 0").text,
            "err bad-request return-result expects <task> <copy>"
        );
        assert_eq!(
            s.handle("return-result 0 0 0").text,
            "err bad-request return-result expects <task> <copy>"
        );
        // The session is still alive and serves work.
        assert!(s.handle("request-work").text.starts_with("work "));
        assert_eq!(
            s.handle("return-result 99 0").text,
            "err unknown-task task 99 is not in this workload"
        );
    }

    #[test]
    fn long_unknown_verbs_are_cut_to_a_legal_frame() {
        let mut s = session(1, 2, 1);
        for unit in ["x", "\u{e9}", "\u{4f5c}", "\u{1f600}"] {
            for len in MAX_FRAME - UNKNOWN_VERB.len()..=MAX_FRAME {
                // `len` bytes: as many copies of `unit` as fit, then ASCII.
                let mut verb = unit.repeat(len / unit.len());
                verb.push_str(&"x".repeat(len - verb.len()));
                let reply = s.handle(&verb).text;
                assert!(reply.len() <= MAX_FRAME, "{}-byte reply", reply.len());
                let echo = reply.strip_prefix(UNKNOWN_VERB).unwrap();
                assert!(verb.starts_with(echo), "{unit:?} x {len}");
                // The longest prefix that fits: the next char would not.
                if let Some(next) = verb[echo.len()..].chars().next() {
                    assert!(
                        reply.len() + next.len_utf8() > MAX_FRAME,
                        "{unit:?} x {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn work_replies_match_display() {
        let mut values = vec![u64::from(u32::MAX), u64::MAX];
        for p in 0..20 {
            let t = 10u64.pow(p);
            values.extend([t - 1, t, t + 1]);
        }
        let small = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        let mut out = String::from("stale");
        for &n in &values {
            for (copy, multiplicity) in [(0, 1), (small(n), small(n / 7)), (small(n / 3), u32::MAX)]
            {
                let a = Assignment {
                    task: TaskId(n),
                    copy,
                    multiplicity,
                };
                out.clear();
                push_work(&mut out, a);
                assert_eq!(out, format!("work {n} {copy} {multiplicity}"));
            }
        }
    }

    #[test]
    fn truncated_and_oversize_frames_end_the_session_with_err() {
        let mut s = session(1, 2, 1);
        let mut input: &[u8] = &[0x00, 0x01];
        let mut output = Vec::new();
        let end = serve_connection(&mut input, &mut output, |req, reply| {
            handle_request(&mut s, req, reply)
        })
        .unwrap();
        assert_eq!(end, SessionEnd::Malformed);
        assert_eq!(decode_frames(&output), vec!["err truncated-frame"]);

        let mut input: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
        let mut output = Vec::new();
        let end = serve_connection(&mut input, &mut output, |req, reply| {
            handle_request(&mut s, req, reply)
        })
        .unwrap();
        assert_eq!(end, SessionEnd::Malformed);
        assert_eq!(
            decode_frames(&output),
            vec![format!(
                "err oversize-frame {} exceeds {MAX_FRAME}",
                u32::MAX
            )]
        );
    }

    #[test]
    fn invalid_utf8_answers_err_and_continues() {
        let mut s = session(1, 2, 1);
        let mut input = Vec::new();
        input.extend_from_slice(&3u32.to_be_bytes());
        input.extend_from_slice(&[0xFF, 0xFE, 0xFD]);
        write_frame(&mut input, "shutdown").unwrap();
        let mut r: &[u8] = &input;
        let mut output = Vec::new();
        let end = serve_connection(&mut r, &mut output, |req, reply| {
            handle_request(&mut s, req, reply)
        })
        .unwrap();
        assert_eq!(end, SessionEnd::Shutdown);
        assert_eq!(decode_frames(&output), vec!["err invalid-utf8", "bye"]);
    }

    #[test]
    fn stats_verb_serves_the_live_snapshot() {
        let mut s = session(3, 2, 7);
        let before = s.handle("stats").text;
        assert!(before.contains("tasks-total 3"));
        assert!(before.contains("issued 0"));
        let _ = s.handle("request-work");
        let after = s.handle("stats").text;
        assert!(after.contains("issued 1"));
        assert!(after.contains("in-flight 1"));
        assert_eq!(after, s.stats().render());
    }

    #[test]
    fn eof_between_frames_is_a_clean_end() {
        let mut s = session(1, 2, 1);
        let mut input: &[u8] = &script_frames(&["request-work"])[..];
        let mut output = Vec::new();
        let end = serve_connection(&mut input, &mut output, |req, reply| {
            handle_request(&mut s, req, reply)
        })
        .unwrap();
        assert_eq!(end, SessionEnd::Eof);
        assert_eq!(decode_frames(&output).len(), 1);
    }
}
