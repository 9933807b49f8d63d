//! The sans-io connection core every serve transport runs on.
//!
//! [`Conn`] is one connection as a state machine over bytes, and it makes
//! no system call.  A transport hands it the bytes it received
//! ([`read_space`](Conn::read_space), [`received`](Conn::received)) and the
//! end of its input ([`end_of_input`](Conn::end_of_input)).  The core
//! answers every complete frame through the request handler
//! ([`answer`](Conn::answer)), hands out the reply bytes to write
//! ([`output`](Conn::output)) and takes the count written
//! ([`wrote`](Conn::wrote)).  Two thin shells make the system calls:
//! [`serve_connection`](super::serve_connection) over a blocking
//! reader and writer (stdio), and the epoll readiness loop
//! ([`epoll`](super::epoll)) over nonblocking sockets.
//!
//! So every framing decision is made here, once, for both transports:
//!
//! * where a frame ends ([`frame_boundary`]);
//! * a prefix declaring more than [`MAX_FRAME`] bytes answers
//!   `err oversize-frame` and closes;
//! * input that ends inside a frame answers `err truncated-frame` and
//!   closes, and input that ends between frames closes silently;
//! * a payload that is not UTF-8 answers `err invalid-utf8`, and the
//!   session goes on;
//! * `shutdown` answers `bye` and closes; what follows it is ignored;
//! * once [`OUTBUF_CAP`] reply bytes wait unwritten, nothing more is
//!   answered until the transport writes some.  A client that sends
//!   without reading then fills its own buffers, not the server's: a
//!   connection holds at most [`INBUF_LEN`] bytes of requests and
//!   `OUTBUF_CAP` bytes plus one reply of output.

use super::protocol::{frame_boundary, write_frame, Boundary, SessionEnd, MAX_FRAME};

/// A connection's read buffer holds two maximal frames, so once the
/// complete frames are answered and the unanswered tail (less than one
/// frame) has moved to the front, a whole frame more fits.
const INBUF_LEN: usize = 2 * (4 + MAX_FRAME);

/// Unwritten reply bytes at which a connection stops being answered.
const OUTBUF_CAP: usize = 64 * 1024;

/// One connection's framing state.  See the module docs.
#[derive(Debug)]
pub(crate) struct Conn {
    /// Received bytes; `inbuf[start..end]` are not yet answered.
    inbuf: Box<[u8]>,
    start: usize,
    end: usize,
    /// Framed replies not yet written.
    outbuf: Vec<u8>,
    /// The handler's reply scratch, reused for every frame.
    reply: String,
    /// The input has ended.
    eof: bool,
    /// Set once the session is closing: nothing more is answered, and the
    /// session is over once its output is written.
    ending: Option<SessionEnd>,
}

impl Conn {
    /// A connection that has received nothing.
    pub(crate) fn new() -> Conn {
        Conn {
            inbuf: vec![0; INBUF_LEN].into_boxed_slice(),
            start: 0,
            end: 0,
            outbuf: Vec::new(),
            reply: String::new(),
            eof: false,
            ending: None,
        }
    }

    /// The free space to receive into, after the unanswered tail moves to
    /// the front.  Whenever [`accepts_input`](Self::accepts_input) holds
    /// after [`answer`](Self::answer), it fits a whole frame.
    pub(crate) fn read_space(&mut self) -> &mut [u8] {
        self.inbuf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        &mut self.inbuf[self.end..]
    }

    /// Take `n` bytes received into the front of the last
    /// [`read_space`](Self::read_space).
    pub(crate) fn received(&mut self, n: usize) {
        self.end += n;
    }

    /// Take the end of the input: the session closes once the frames
    /// before it are answered.
    pub(crate) fn end_of_input(&mut self) {
        self.eof = true;
    }

    /// Answer the complete frames received, in order, while
    /// [`accepts_input`](Self::accepts_input) holds.  `handle` formats each
    /// request's reply into the scratch it is given and returns true on
    /// `shutdown`; so does this call, when it answered one.
    pub(crate) fn answer(&mut self, handle: &mut impl FnMut(&str, &mut String) -> bool) -> bool {
        let mut shutdown = false;
        while self.accepts_input() {
            let pending = &self.inbuf[self.start..self.end];
            let payload = match frame_boundary(pending) {
                Boundary::Frame(payload) => payload,
                Boundary::Incomplete(_) => {
                    if self.eof && pending.is_empty() {
                        self.ending = Some(SessionEnd::Eof);
                    } else if self.eof {
                        self.close_malformed("err truncated-frame");
                    }
                    break;
                }
                Boundary::Oversize(len) => {
                    self.close_malformed(&format!("err oversize-frame {len} exceeds {MAX_FRAME}"));
                    break;
                }
            };
            self.start += payload.end;
            let reply = match std::str::from_utf8(&pending[payload]) {
                Err(_) => "err invalid-utf8",
                Ok(text) => {
                    if handle(text, &mut self.reply) {
                        shutdown = true;
                        self.ending = Some(SessionEnd::Shutdown);
                    }
                    self.reply.as_str()
                }
            };
            write_frame(&mut self.outbuf, reply).expect("writing to a Vec cannot fail");
        }
        shutdown
    }

    /// Answer a malformed frame with `reply` and close.
    fn close_malformed(&mut self, reply: &str) {
        write_frame(&mut self.outbuf, reply).expect("writing to a Vec cannot fail");
        self.ending = Some(SessionEnd::Malformed);
    }

    /// The reply bytes waiting to be written.
    pub(crate) fn output(&self) -> &[u8] {
        &self.outbuf
    }

    /// Take `n` bytes written from the front of [`output`](Self::output).
    pub(crate) fn wrote(&mut self, n: usize) {
        self.outbuf.drain(..n);
    }

    /// True while frames are answered and input is wanted: the session is
    /// not closing, and fewer than [`OUTBUF_CAP`] reply bytes wait.
    #[inline]
    pub(crate) fn accepts_input(&self) -> bool {
        self.ending.is_none() && self.outbuf.len() < OUTBUF_CAP
    }

    /// True once the session has closed and its last reply is written.
    pub(crate) fn is_finished(&self) -> bool {
        self.ending.is_some() && self.outbuf.is_empty()
    }

    /// How the session ended.
    ///
    /// # Panics
    ///
    /// If the session is not closing yet.
    pub(crate) fn end(&self) -> SessionEnd {
        self.ending
            .expect("a session has ended only once it is closing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryModel, CheatStrategy};
    use crate::engine::CampaignConfig;
    use crate::serve::concurrent::StreamMode;
    use crate::serve::protocol::{decode_frames, handle_request, script_frames};
    use crate::serve::store::{ServeConfig, Store};
    use crate::serve::WorkStore;
    use crate::task::plan_groups;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::TestRng;
    use redundancy_core::RealizedPlan;

    fn store(tasks: u64, seed: u64, mode: StreamMode) -> Store {
        let plan = RealizedPlan::balanced(tasks, 0.5).unwrap();
        let campaign = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::AtLeast { min_copies: 1 },
        );
        Store::from_groups(
            &plan_groups(&plan),
            &campaign,
            &ServeConfig::new(2),
            seed,
            mode,
        )
        .unwrap()
    }

    /// How a drawn script ends.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ending {
        Clean,
        Truncated,
        Oversize,
        Shutdown,
    }

    /// Draw a script: frames that exercise every framing rule (canonical
    /// and respelled verbs, returns of issued and unknown copies, runs of
    /// `stats` whose replies pass the output cap, invalid UTF-8, empty and
    /// frame-long payloads), then one of the four endings.  Returns the
    /// bytes, the number of frames before the ending, and the ending.
    fn script(draws: &[u32]) -> (Vec<u8>, usize, Ending) {
        let mut d = draws.iter().copied();
        let mut next = move || d.next().unwrap_or(0);
        let mut bytes = Vec::new();
        let mut frames = 0;
        for _ in 0..next() % 24 {
            let pick = next();
            let line = match pick % 9 {
                0 => "request-work".to_string(),
                1 => " request-work\t".to_string(),
                2 => format!("return-result {} {}", next() % 12, next() % 3),
                3 => format!("return-result  +{} 0{}", next() % 12, next() % 3),
                4 => "return-result 99999 0".to_string(),
                5 => {
                    let run = 1 + next() as usize % 300;
                    bytes.extend(script_frames(&["stats"]).repeat(run));
                    frames += run;
                    continue;
                }
                6 => {
                    bytes.extend_from_slice(&[0, 0, 0, 2, 0xFF, 0xFE]);
                    frames += 1;
                    continue;
                }
                7 => "x".repeat(MAX_FRAME),
                _ => String::new(),
            };
            bytes.extend(script_frames(&[&line]));
            frames += 1;
        }
        let ending = match next() % 4 {
            0 => Ending::Clean,
            1 => {
                // Cut the next frame anywhere before its end, inside its
                // prefix included.
                let frame = script_frames(&["request-work"]);
                bytes.extend_from_slice(&frame[..1 + next() as usize % (frame.len() - 1)]);
                Ending::Truncated
            }
            2 => {
                let len = MAX_FRAME as u32 + 1 + next() % 1000;
                bytes.extend_from_slice(&len.to_be_bytes());
                bytes.extend_from_slice(b"never read");
                Ending::Oversize
            }
            _ => {
                bytes.extend(script_frames(&["shutdown", "request-work", "stats"]));
                Ending::Shutdown
            }
        };
        (bytes, frames, ending)
    }

    /// Serve `input` through one core over `store`.  Without `rng`, each
    /// read takes all the input that fits and each write all the output;
    /// with it, reads are split at random points (single bytes included)
    /// and writes take random short counts.  Returns the bytes written,
    /// how the session ended and the store's stats checksum.
    fn serve(
        input: &[u8],
        mut store: Store,
        mut rng: Option<TestRng>,
    ) -> (Vec<u8>, SessionEnd, u64) {
        let mut handle = |req: &str, reply: &mut String| handle_request(&mut store, req, reply);
        let mut conn = Conn::new();
        let (mut rest, mut written) = (input, Vec::new());
        loop {
            conn.answer(&mut handle);
            let capped = !conn.accepts_input();
            if !capped {
                // Every complete frame is answered: a whole frame fits.
                assert!(conn.read_space().len() >= 4 + MAX_FRAME);
            }
            let waiting = conn.output().len() as u64;
            let n = match &mut rng {
                None => waiting,
                Some(rng) => match rng.below(4) {
                    0 => 0,
                    1 => waiting.min(1),
                    2 => rng.below(waiting + 1),
                    _ => waiting,
                },
            };
            // A core that stopped answering waits on a write.
            let n = if capped { n.max(waiting.min(1)) } else { n } as usize;
            written.extend_from_slice(&conn.output()[..n]);
            conn.wrote(n);
            if conn.is_finished() {
                break;
            }
            if capped {
                continue;
            }
            if rest.is_empty() {
                conn.end_of_input();
                continue;
            }
            let space = conn.read_space();
            let most = space.len().min(rest.len()) as u64;
            let n = match &mut rng {
                None => most,
                Some(rng) => match rng.below(4) {
                    0 => 1,
                    1 => 1 + rng.below(most.min(8)),
                    2 => 1 + rng.below(most),
                    _ => most,
                },
            } as usize;
            space[..n].copy_from_slice(&rest[..n]);
            conn.received(n);
            rest = &rest[n..];
        }
        (written, conn.end(), store.stats().checksum())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Split into random reads and random short writes, a script earns
        /// the bytes, the end and the store state it earns fed whole; and
        /// both end as the script does.
        #[test]
        fn random_splits_change_no_byte(
            draws in vec(0u32..1_000_000, 80),
            seed in 0u64..1_000_000,
            per_shard in 0u32..2,
        ) {
            let (input, frames, ending) = script(&draws);
            let mode = if per_shard == 1 { StreamMode::PerShard } else { StreamMode::Single };
            let whole = serve(&input, store(20, seed, mode), None);
            let split = serve(&input, store(20, seed, mode), Some(TestRng::new(seed)));
            prop_assert_eq!(&split, &whole);
            let (output, end, _) = whole;
            let replies = decode_frames(&output);
            let last = replies.last().map(String::as_str);
            match ending {
                Ending::Clean => {
                    prop_assert_eq!(end, SessionEnd::Eof);
                    prop_assert_eq!(replies.len(), frames);
                }
                Ending::Truncated => {
                    prop_assert_eq!(end, SessionEnd::Malformed);
                    prop_assert_eq!(last, Some("err truncated-frame"));
                }
                Ending::Oversize => {
                    prop_assert_eq!(end, SessionEnd::Malformed);
                    prop_assert!(last.is_some_and(|r| r.starts_with("err oversize-frame ")));
                }
                Ending::Shutdown => {
                    prop_assert_eq!(end, SessionEnd::Shutdown);
                    prop_assert_eq!(last, Some("bye"));
                }
            }
            if ending != Ending::Clean {
                prop_assert_eq!(replies.len(), frames + 1);
            }
        }
    }

    #[test]
    fn replies_past_the_cap_wait_for_a_write() {
        let input = script_frames(&["stats"]).repeat(400);
        let mut s = store(20, 1, StreamMode::Single);
        let mut conn = Conn::new();
        let space = conn.read_space();
        space[..input.len()].copy_from_slice(&input);
        conn.received(input.len());
        let mut handle = |req: &str, reply: &mut String| handle_request(&mut s, req, reply);
        conn.answer(&mut handle);
        // Answering stopped at the first reply past the cap.
        assert!(!conn.accepts_input());
        let stopped = conn.output().len();
        assert!((OUTBUF_CAP..OUTBUF_CAP + 4 + MAX_FRAME).contains(&stopped));
        conn.answer(&mut handle);
        assert_eq!(conn.output().len(), stopped, "answered past the cap");
        conn.wrote(stopped);
        assert!(conn.accepts_input());
        conn.answer(&mut handle);
        conn.end_of_input();
        conn.answer(&mut handle);
        let n = conn.output().len();
        conn.wrote(n);
        assert!(conn.is_finished());
        assert_eq!(conn.end(), SessionEnd::Eof);
        assert_eq!(
            stopped + n,
            400 * script_frames(&[&s.stats().render()]).len()
        );
    }
}
