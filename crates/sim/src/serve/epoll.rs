//! A dependency-free epoll readiness loop for the TCP serve transports.
//!
//! The threaded transports spend one OS thread per connection and park it
//! in blocking reads; under the 8-client contention soak that is eight
//! threads ping-ponging on socket wakeups.  This module replaces them
//! with a single-threaded nonblocking accept + readiness loop over the
//! raw `epoll_create1` / `epoll_ctl` / `epoll_wait` syscalls — declared
//! here directly against libc's ABI, so the workspace stays free of
//! external crates.  Everything is `#[cfg(target_os = "linux")]`-gated;
//! other platforms keep the threaded fallback
//! ([`available`] reports which world we are in).
//!
//! Per connection the loop owns a read buffer (frames are parsed greedily
//! out of it, zero-copy) and a write buffer (replies are queued and
//! flushed as the socket drains, with `EPOLLOUT` interest registered only
//! while bytes are pending).  Each readiness report costs one `read`,
//! straight into the read buffer: a read that returns less than it was
//! offered means the socket is drained, and level-triggered epoll reports
//! whatever arrives after it.  Once 64 KiB of replies wait unflushed, the
//! loop stops answering and reading that connection (`EPOLLIN` is
//! disarmed) until the client reads, so a client that never reads fills
//! its own socket buffers, not the daemon's memory.  Connections are
//! indexed by descriptor, not hashed.
//!
//! The loop is one thread and answers one frame at a time, so its handler
//! is an `FnMut` that owns the store: the CLI's daemon answers through
//! exclusive (`&mut`) access, and no request takes a lock or an atomic
//! read-modify-write.  Malformed input earns the same
//! structured `err` frames as
//! [`serve_connection`](super::serve_connection): a truncated frame or an
//! oversized prefix answers `err` and closes after the flush; invalid
//! UTF-8 answers `err` and the session continues.
//!
//! A failed `accept` never ends the loop unless the listener itself is
//! broken.  A connection that failed before it was accepted (for example
//! `ECONNABORTED`) is skipped.  When descriptors or memory run out
//! (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`), the listener leaves the
//! interest set until a connection closes or 100 ms pass, so the loop
//! neither spins nor stops serving the connections it has.
//!
//! Two run modes, chosen by [`LoopOptions::expected_clients`]:
//!
//! * `Some(n)` — **drive mode** (`--clients n`): accept exactly `n`
//!   connections, stop listening, and return once all of them have
//!   closed.
//! * `None` — **daemon mode** (`--port`): accept until some client sends
//!   the `shutdown` verb, then stop listening and return once the
//!   remaining connections drain.  No throwaway self-connection is needed
//!   to wake the acceptor: the listener is just dropped from the interest
//!   set.

#[cfg(not(target_os = "linux"))]
use std::io;
#[cfg(not(target_os = "linux"))]
use std::net::TcpListener;

/// How the readiness loop decides it is done.  See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoopOptions {
    /// `Some(n)`: accept exactly `n` connections and return when all have
    /// closed (drive mode).  `None`: run until a `shutdown` verb, then
    /// drain (daemon mode).
    pub expected_clients: Option<usize>,
}

/// True when this build carries the epoll loop (Linux targets).
pub const fn available() -> bool {
    cfg!(target_os = "linux")
}

/// Run the readiness loop on `listener`, dispatching every complete
/// request frame to `handle` (which formats its reply into the provided
/// scratch and returns true on `shutdown`).  See the module docs for the
/// run modes; this is the non-Linux stub.
#[cfg(not(target_os = "linux"))]
pub fn serve_readiness_loop(
    _listener: TcpListener,
    _opts: LoopOptions,
    _handle: impl FnMut(&str, &mut String) -> bool,
) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the epoll readiness loop is only available on linux",
    ))
}

#[cfg(target_os = "linux")]
pub use linux::serve_readiness_loop;

#[cfg(target_os = "linux")]
mod linux {
    use super::LoopOptions;
    use crate::serve::protocol::{write_frame, MAX_FRAME};
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, RawFd};
    use std::time::{Duration, Instant};

    // The kernel ABI, declared directly: x86-64 packs epoll_event to
    // match the 32-bit layout, other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    // errno values (the asm-generic numbering x86-64 and aarch64 share).
    const EPERM: i32 = 1;
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    const ENOSPC: i32 = 28;
    const ENONET: i32 = 64;
    const EPROTO: i32 = 71;
    const ENOPROTOOPT: i32 = 92;
    const EOPNOTSUPP: i32 = 95;
    const ENETDOWN: i32 = 100;
    const ENETUNREACH: i32 = 101;
    const ECONNABORTED: i32 = 103;
    const ENOBUFS: i32 = 105;
    const EHOSTDOWN: i32 = 112;
    const EHOSTUNREACH: i32 = 113;

    /// How long a loop that stopped accepting for want of descriptors
    /// waits for a connection to close before it tries again anyway.
    const ACCEPT_RETRY: Duration = Duration::from_millis(100);

    /// A connection's read buffer holds at least two maximal frames, so
    /// after the unparsed tail (always less than one frame) is moved to
    /// the front there is room for a whole frame more.
    const INBUF_LEN: usize = 2 * (4 + MAX_FRAME);

    /// Unflushed reply bytes at which a connection stops being answered
    /// and read.  A client that pipelines requests without reading its
    /// replies then fills its own socket buffers instead of the daemon's
    /// memory: a connection holds at most `INBUF_LEN` bytes of requests
    /// and `OUTBUF_CAP` bytes plus one reply of output.
    const OUTBUF_CAP: usize = 64 * 1024;

    /// RAII wrapper over one epoll instance.
    struct Epoll {
        fd: RawFd,
    }

    impl Epoll {
        fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: fd as u64,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn add(&self, fd: RawFd, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, events)
        }

        fn modify(&self, fd: RawFd, events: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, events)
        }

        fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0)
        }

        /// Block until at least one fd is ready or `timeout_ms` passes
        /// (-1: no timeout); retries EINTR.
        fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            loop {
                // SAFETY: the buffer is valid for `len` entries for the
                // duration of the call.
                let rc = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: we own the fd.
            unsafe { close(self.fd) };
        }
    }

    /// True for errors that mean the process or system ran out of
    /// descriptors or memory, rather than that one connection failed.
    fn exhausted(e: &io::Error) -> bool {
        matches!(
            e.raw_os_error(),
            Some(EMFILE | ENFILE | ENOBUFS | ENOMEM | ENOSPC)
        )
    }

    /// True for the errors Linux's accept() reports on behalf of the
    /// pending connection itself (accept(2) lists them): that connection
    /// is gone, the listener is fine.
    fn connection_failed(e: &io::Error) -> bool {
        matches!(
            e.raw_os_error(),
            Some(
                ECONNABORTED
                    | EPROTO
                    | EPERM
                    | ENETDOWN
                    | ENOPROTOOPT
                    | EHOSTDOWN
                    | ENONET
                    | EHOSTUNREACH
                    | EOPNOTSUPP
                    | ENETUNREACH
            )
        )
    }

    /// One connection's state: the socket plus its session-owned frame
    /// buffers.  `inbuf[start..end]` holds received bytes not yet parsed;
    /// `outbuf` holds replies awaiting flush.
    struct Conn {
        stream: TcpStream,
        inbuf: Box<[u8]>,
        start: usize,
        end: usize,
        outbuf: Vec<u8>,
        /// Stop reading; close once the write buffer drains (set after a
        /// malformed frame, a `shutdown` reply, or EOF).
        closing: bool,
        /// The interest mask currently registered with epoll.
        interest: u32,
    }

    impl Conn {
        fn new(stream: TcpStream) -> Conn {
            Conn {
                stream,
                inbuf: vec![0; INBUF_LEN].into_boxed_slice(),
                start: 0,
                end: 0,
                outbuf: Vec::new(),
                closing: false,
                interest: EPOLLIN | EPOLLRDHUP,
            }
        }

        /// Move the unparsed tail to the front, then read once into the
        /// free space; returns what the read returned and how much space
        /// it was offered.
        fn read_once(&mut self) -> io::Result<(usize, usize)> {
            self.inbuf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            let space = self.inbuf.len() - self.end;
            loop {
                match self.stream.read(&mut self.inbuf[self.end..]) {
                    Ok(n) => {
                        self.end += n;
                        return Ok((n, space));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        /// True while the connection is answered and read: it is not
        /// closing, and its unflushed output is under [`OUTBUF_CAP`].
        fn accepts_input(&self) -> bool {
            !self.closing && self.outbuf.len() < OUTBUF_CAP
        }

        /// Answer the complete frames in the read buffer through `handle`
        /// while the connection accepts input; returns true if one of them
        /// was `shutdown`.
        fn answer_frames(
            &mut self,
            reply: &mut String,
            handle: &mut impl FnMut(&str, &mut String) -> bool,
        ) -> bool {
            let mut shutdown = false;
            while self.accepts_input() {
                let pending = &self.inbuf[self.start..self.end];
                let Some(prefix) = pending.first_chunk::<4>() else {
                    break;
                };
                let len = u32::from_be_bytes(*prefix);
                if len as usize > MAX_FRAME {
                    self.queue_reply(&format!("err oversize-frame {len} exceeds {MAX_FRAME}"));
                    self.closing = true;
                    self.start = self.end;
                    break;
                }
                let Some(payload) = pending.get(4..4 + len as usize) else {
                    break;
                };
                self.start += 4 + len as usize;
                match std::str::from_utf8(payload) {
                    Err(_) => self.queue_reply("err invalid-utf8"),
                    Ok(text) => {
                        if handle(text, reply) {
                            shutdown = true;
                            self.closing = true;
                        }
                        write_frame(&mut self.outbuf, reply).expect("writing to a Vec cannot fail");
                    }
                }
            }
            shutdown
        }

        fn queue_reply(&mut self, payload: &str) {
            write_frame(&mut self.outbuf, payload).expect("writing to a Vec cannot fail");
        }

        /// Write queued bytes until the socket would block or the buffer
        /// drains, then drop the bytes written.  An I/O error here
        /// abandons the connection.
        fn flush(&mut self) -> io::Result<()> {
            let mut written = 0;
            while written < self.outbuf.len() {
                match self.stream.write(&self.outbuf[written..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        ))
                    }
                    Ok(n) => written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            self.outbuf.drain(..written);
            Ok(())
        }

        fn has_pending_output(&self) -> bool {
            !self.outbuf.is_empty()
        }
    }

    /// An `epoll_wait` timeout covering `left`: whole milliseconds,
    /// rounded up, so the last fraction of a pause is slept, not spun
    /// through with zero timeouts.
    pub(super) fn wait_ms(left: Duration) -> i32 {
        i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
    }

    /// The listener's place in the loop.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Accepting {
        /// Registered with epoll; new connections are accepted.
        Open,
        /// Out of descriptors since the given instant: unregistered until
        /// a connection closes or [`ACCEPT_RETRY`] passes.
        Paused(Instant),
        /// Done accepting for good (drive-mode quota met, or shutdown).
        Closed,
    }

    /// Run the readiness loop on `listener`.  See the module docs for the
    /// run modes and the error-frame semantics.
    pub fn serve_readiness_loop(
        listener: TcpListener,
        opts: LoopOptions,
        mut handle: impl FnMut(&str, &mut String) -> bool,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let ep = Epoll::new()?;
        let lfd = listener.as_raw_fd();
        ep.add(lfd, EPOLLIN)?;
        // Connections indexed by fd: descriptors are small and dense.
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut open = 0usize;
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 64];
        let mut reply = String::new();
        let mut accepted = 0usize;
        let mut accepting = Accepting::Open;
        let mut shutting_down = false;
        loop {
            let done = match opts.expected_clients {
                Some(n) => accepted >= n && open == 0,
                None => shutting_down && open == 0,
            };
            if done {
                return Ok(());
            }
            let timeout = match accepting {
                Accepting::Paused(since) => wait_ms(ACCEPT_RETRY.saturating_sub(since.elapsed())),
                _ => -1,
            };
            let ready = ep.wait(&mut events, timeout)?;
            if let Accepting::Paused(since) = accepting {
                if since.elapsed() >= ACCEPT_RETRY {
                    ep.add(lfd, EPOLLIN)?;
                    accepting = Accepting::Open;
                }
            }
            let mut closed_any = false;
            for ev in &events[..ready] {
                // Copy out of the (possibly packed) event before use.
                let mask = ev.events;
                let fd = ev.data as RawFd;
                if fd == lfd {
                    while accepting == Accepting::Open {
                        let stream = match listener.accept() {
                            Ok((stream, _)) => stream,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(e) if exhausted(&e) => {
                                ep.delete(lfd)?;
                                accepting = Accepting::Paused(Instant::now());
                                break;
                            }
                            Err(e) if connection_failed(&e) => continue,
                            Err(e) => return Err(e),
                        };
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let cfd = stream.as_raw_fd();
                        let conn = Conn::new(stream);
                        if let Err(e) = ep.add(cfd, conn.interest) {
                            if exhausted(&e) {
                                ep.delete(lfd)?;
                                accepting = Accepting::Paused(Instant::now());
                            }
                            continue;
                        }
                        let slot = cfd as usize;
                        if conns.len() <= slot {
                            conns.resize_with(slot + 1, || None);
                        }
                        conns[slot] = Some(conn);
                        open += 1;
                        accepted += 1;
                        if opts.expected_clients == Some(accepted) {
                            accepting = Accepting::Closed;
                            ep.delete(lfd)?;
                        }
                    }
                    continue;
                }
                let Some(conn) = conns.get_mut(fd as usize).and_then(Option::as_mut) else {
                    continue;
                };
                let mut abandon = false;
                // Answer the buffered frames, flush, then read: once per
                // readiness report, again only while reads fill the buffer
                // (a short read means the socket is drained, and
                // level-triggered epoll reports whatever arrives after
                // it).  Frames left buffered when the output reached the
                // cap are answered as soon as a flush makes room, before
                // anything more is read: epoll will not report bytes
                // already read.
                let mut readable = mask & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                loop {
                    if conn.answer_frames(&mut reply, &mut handle)
                        && opts.expected_clients.is_none()
                    {
                        shutting_down = true;
                        if accepting == Accepting::Open {
                            ep.delete(lfd)?;
                        }
                        accepting = Accepting::Closed;
                    }
                    let capped = !conn.closing && !conn.accepts_input();
                    if conn.flush().is_err() {
                        abandon = true;
                        break;
                    }
                    if !conn.accepts_input() {
                        break;
                    }
                    if capped {
                        continue;
                    }
                    if !readable {
                        break;
                    }
                    match conn.read_once() {
                        Ok((0, _)) => {
                            if conn.start < conn.end {
                                // The stream ended mid-prefix or
                                // mid-payload.
                                conn.queue_reply("err truncated-frame");
                            }
                            conn.closing = true;
                        }
                        Ok((n, space)) => readable = n == space,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            abandon = true;
                            break;
                        }
                    }
                }
                let finished = conn.closing && !conn.has_pending_output();
                if !abandon && !finished {
                    let mut want = 0u32;
                    if conn.accepts_input() {
                        want |= EPOLLIN | EPOLLRDHUP;
                    }
                    if conn.has_pending_output() {
                        want |= EPOLLOUT;
                    }
                    if want == conn.interest {
                        continue;
                    }
                    conn.interest = want;
                    if ep.modify(fd, want).is_ok() {
                        continue;
                    }
                    // A connection epoll cannot track is abandoned.
                }
                // Dropping the stream closes the fd, which also removes
                // it from the epoll interest set.
                conns[fd as usize] = None;
                open -= 1;
                closed_any = true;
            }
            if closed_any && matches!(accepting, Accepting::Paused(_)) {
                ep.add(lfd, EPOLLIN)?;
                accepting = Accepting::Open;
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::adversary::{AdversaryModel, CheatStrategy};
    use crate::engine::CampaignConfig;
    use crate::serve::concurrent::ConcurrentStore;
    use crate::serve::protocol::{decode_frames, script_frames, ServeSession, MAX_FRAME};
    use crate::serve::store::ServeConfig;
    use crate::task::expand_plan;
    use redundancy_core::RealizedPlan;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    fn campaign() -> CampaignConfig {
        CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        )
    }

    fn session(n: u64, mult: usize, seed: u64) -> ServeSession {
        let tasks = expand_plan(&RealizedPlan::k_fold(n, mult, 0.5).unwrap());
        ServeSession::new(&tasks, &campaign(), &ServeConfig::new(2), seed).unwrap()
    }

    /// Run a scripted client against a readiness loop in drive mode and
    /// return the decoded reply frames.
    fn scripted_exchange(script: &[&str], mut session: ServeSession) -> Vec<String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bytes = script_frames(script);
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&bytes).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap();
            out
        });
        serve_readiness_loop(
            listener,
            LoopOptions {
                expected_clients: Some(1),
            },
            |req, reply| {
                let (text, shutdown) = session.handle_buffered(req);
                reply.clear();
                reply.push_str(text);
                shutdown
            },
        )
        .unwrap();
        decode_frames(&client.join().unwrap())
    }

    #[test]
    fn accept_pauses_round_their_wait_up_to_whole_milliseconds() {
        use std::time::Duration;
        for (left, ms) in [
            (Duration::ZERO, 0),
            (Duration::from_micros(1), 1),
            (Duration::from_micros(999), 1),
            (Duration::from_millis(1), 1),
            (Duration::from_micros(1_001), 2),
            (Duration::from_millis(100), 100),
        ] {
            assert_eq!(linux::wait_ms(left), ms, "{left:?}");
        }
    }

    #[test]
    fn drive_mode_serves_the_pinned_script() {
        // Same script and session as the protocol test — the epoll
        // transport must produce the same reply bytes as serve_connection.
        let replies = scripted_exchange(
            &[
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
            ],
            session(2, 2, 1),
        );
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
    }

    #[test]
    fn malformed_frames_answer_err_and_close() {
        for (bytes, want) in [
            (vec![0x00u8, 0x01], "err truncated-frame".to_string()),
            (
                vec![0xFFu8, 0xFF, 0xFF, 0xFF],
                format!("err oversize-frame {} exceeds {MAX_FRAME}", u32::MAX),
            ),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let client = std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&bytes).unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut out = Vec::new();
                stream.read_to_end(&mut out).unwrap();
                out
            });
            let mut s = session(1, 2, 1);
            serve_readiness_loop(
                listener,
                LoopOptions {
                    expected_clients: Some(1),
                },
                |req, reply| {
                    let (text, shutdown) = s.handle_buffered(req);
                    reply.clear();
                    reply.push_str(text);
                    shutdown
                },
            )
            .unwrap();
            assert_eq!(decode_frames(&client.join().unwrap()), vec![want]);
        }
    }

    #[test]
    fn invalid_utf8_answers_err_and_continues() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&3u32.to_be_bytes());
            bytes.extend_from_slice(&[0xFF, 0xFE, 0xFD]);
            bytes.extend_from_slice(&script_frames(&["shutdown"]));
            stream.write_all(&bytes).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap();
            out
        });
        let mut s = session(1, 2, 1);
        serve_readiness_loop(
            listener,
            LoopOptions {
                expected_clients: Some(1),
            },
            |req, reply| {
                let (text, shutdown) = s.handle_buffered(req);
                reply.clear();
                reply.push_str(text);
                shutdown
            },
        )
        .unwrap();
        assert_eq!(
            decode_frames(&client.join().unwrap()),
            vec!["err invalid-utf8", "bye"]
        );
    }

    #[test]
    fn daemon_mode_exits_on_shutdown_without_a_fake_client() {
        // No expected client count: the loop must return purely because
        // the shutdown verb stopped the acceptor and the last connection
        // drained — the old threaded daemon needed a throwaway
        // self-connection for this.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(&script_frames(&["request-work", "shutdown"]))
                .unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).unwrap();
            out
        });
        let mut s = session(2, 2, 3);
        serve_readiness_loop(listener, LoopOptions::default(), |req, reply| {
            let (text, shutdown) = s.handle_buffered(req);
            reply.clear();
            reply.push_str(text);
            shutdown
        })
        .unwrap();
        let replies = decode_frames(&client.join().unwrap());
        assert_eq!(replies.len(), 2);
        assert!(replies[0].starts_with("work "));
        assert_eq!(replies[1], "bye");
    }

    #[test]
    fn concurrent_clients_drain_a_per_shard_store_to_the_oracle_state() {
        let tasks = expand_plan(&RealizedPlan::balanced(400, 0.5).unwrap());
        let patient = ServeConfig {
            faults: crate::faults::FaultModel {
                timeout: 1_000_000_000,
                ..crate::faults::FaultModel::none()
            },
            ..ServeConfig::new(4)
        };
        let oracle = ConcurrentStore::new(&tasks, &campaign(), &patient, 11).unwrap();
        oracle.drain_shard_by_shard();

        let store = ConcurrentStore::new(&tasks, &campaign(), &patient, 11).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    loop {
                        crate::serve::protocol::write_frame(&mut stream, "request-work").unwrap();
                        let reply = match crate::serve::protocol::read_frame(&mut stream).unwrap() {
                            crate::serve::protocol::Frame::Message(m) => {
                                String::from_utf8(m).unwrap()
                            }
                            other => panic!("unexpected frame {other:?}"),
                        };
                        if reply == "drained" {
                            break;
                        }
                        if reply == "idle" {
                            continue;
                        }
                        let mut parts = reply.split_whitespace();
                        assert_eq!(parts.next(), Some("work"));
                        let task: u64 = parts.next().unwrap().parse().unwrap();
                        let copy: u32 = parts.next().unwrap().parse().unwrap();
                        crate::serve::protocol::write_frame(
                            &mut stream,
                            &format!("return-result {task} {copy}"),
                        )
                        .unwrap();
                        match crate::serve::protocol::read_frame(&mut stream).unwrap() {
                            crate::serve::protocol::Frame::Message(m) => {
                                let ack = String::from_utf8(m).unwrap();
                                assert!(ack.starts_with("ok"), "unexpected ack {ack}");
                            }
                            other => panic!("unexpected frame {other:?}"),
                        }
                    }
                })
            })
            .collect();
        serve_readiness_loop(
            listener,
            LoopOptions {
                expected_clients: Some(4),
            },
            |req, reply| store.handle_into(req, reply),
        )
        .unwrap();
        for c in clients {
            c.join().unwrap();
        }
        assert!(store.is_drained());
        store.check_invariants();
        assert_eq!(store.merged_outcome(), oracle.merged_outcome());
        assert_eq!(store.final_rngs(), oracle.final_rngs());
        assert_eq!(store.stats().render(), oracle.stats().render());
    }
}
