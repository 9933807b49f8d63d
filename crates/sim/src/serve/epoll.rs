//! A dependency-free epoll readiness loop for the TCP serve transports.
//!
//! Both TCP modes of `redundancy serve` run on one single-threaded
//! nonblocking accept + readiness loop over the raw `epoll_create1` /
//! `epoll_ctl` / `epoll_wait` syscalls — declared here directly against
//! libc's ABI, so the workspace stays free of external crates.  Everything
//! is `#[cfg(target_os = "linux")]`-gated, and there is no threaded
//! fallback: off Linux [`serve_readiness_loop`] returns an `Unsupported`
//! error, and [`available`] lets a caller refuse TCP serving up front.
//!
//! Each connection is a socket plus one sans-io connection core
//! (`serve::conn`), which frames and answers its bytes exactly as it does for
//! [`serve_connection`](super::serve_connection): malformed input, the
//! output cap and every reply are decided there.  This loop only makes the
//! system calls.  Per readiness report it answers the buffered frames,
//! `send`s until the output drains or would block, and makes one `recv`
//! into the core's free space.  A read shorter than the space offered means
//! the socket is drained, and level-triggered epoll reports whatever
//! arrives after it.  Once the core stops answering because 64 KiB of
//! replies wait unsent, `EPOLLIN` is disarmed until the client reads, and
//! the frames left buffered are answered as soon as a send makes room,
//! before anything more is read.  `EPOLLOUT` is armed only while bytes are
//! pending, and `epoll_ctl` runs only when the interest changes.
//! Connections are indexed by descriptor, not hashed.
//!
//! The loop is one thread and answers one frame at a time, so its handler
//! is an `FnMut` that owns the store: the CLI's daemon answers through
//! exclusive (`&mut`) access, and no request takes a lock.
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
    use crate::serve::conn::Conn;
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

    /// One TCP connection: the socket, its sans-io core, and the interest
    /// mask registered with epoll.
    struct Peer {
        stream: TcpStream,
        conn: Conn,
        interest: u32,
    }

    impl Peer {
        /// Receive once into the core's free space; returns true when the
        /// read filled it (a shorter read means the socket is drained).
        fn receive(&mut self) -> io::Result<bool> {
            let space = self.conn.read_space();
            let offered = space.len();
            let n = loop {
                match self.stream.read(space) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            if n == 0 {
                self.conn.end_of_input();
            } else {
                self.conn.received(n);
            }
            Ok(n == offered)
        }

        /// Send the core's output until it drains or the socket would
        /// block.  An I/O error here abandons the connection.
        fn flush(&mut self) -> io::Result<()> {
            loop {
                let out = self.conn.output();
                if out.is_empty() {
                    return Ok(());
                }
                match self.stream.write(out) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => self.conn.wrote(n),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
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
        let mut peers: Vec<Option<Peer>> = Vec::new();
        let mut open = 0usize;
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 64];
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
                        let peer = Peer {
                            stream,
                            conn: Conn::new(),
                            interest: EPOLLIN | EPOLLRDHUP,
                        };
                        if let Err(e) = ep.add(cfd, peer.interest) {
                            if exhausted(&e) {
                                ep.delete(lfd)?;
                                accepting = Accepting::Paused(Instant::now());
                            }
                            continue;
                        }
                        let slot = cfd as usize;
                        if peers.len() <= slot {
                            peers.resize_with(slot + 1, || None);
                        }
                        peers[slot] = Some(peer);
                        open += 1;
                        accepted += 1;
                        if opts.expected_clients == Some(accepted) {
                            accepting = Accepting::Closed;
                            ep.delete(lfd)?;
                        }
                    }
                    continue;
                }
                let Some(peer) = peers.get_mut(fd as usize).and_then(Option::as_mut) else {
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
                    if peer.conn.answer(&mut handle) && opts.expected_clients.is_none() {
                        shutting_down = true;
                        if accepting == Accepting::Open {
                            ep.delete(lfd)?;
                        }
                        accepting = Accepting::Closed;
                    }
                    let capped = !peer.conn.accepts_input();
                    if peer.flush().is_err() {
                        abandon = true;
                        break;
                    }
                    if !peer.conn.accepts_input() {
                        break;
                    }
                    if capped {
                        continue;
                    }
                    if !readable {
                        break;
                    }
                    match peer.receive() {
                        Ok(filled) => readable = filled,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            abandon = true;
                            break;
                        }
                    }
                }
                if !abandon && !peer.conn.is_finished() {
                    let mut want = 0u32;
                    if peer.conn.accepts_input() {
                        want |= EPOLLIN | EPOLLRDHUP;
                    }
                    if !peer.conn.output().is_empty() {
                        want |= EPOLLOUT;
                    }
                    if want == peer.interest {
                        continue;
                    }
                    peer.interest = want;
                    if ep.modify(fd, want).is_ok() {
                        continue;
                    }
                    // A connection epoll cannot track is abandoned.
                }
                // Dropping the stream closes the fd, which also removes
                // it from the epoll interest set.
                peers[fd as usize] = None;
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
    use crate::serve::concurrent::StreamMode;
    use crate::serve::protocol::{decode_frames, handle_request, script_frames, MAX_FRAME};
    use crate::serve::store::{ServeConfig, Store};
    use crate::serve::WorkStore;
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

    fn session(n: u64, mult: usize, seed: u64) -> Store {
        let tasks = expand_plan(&RealizedPlan::k_fold(n, mult, 0.5).unwrap());
        Store::new(
            &tasks,
            &campaign(),
            &ServeConfig::new(2),
            seed,
            StreamMode::Single,
        )
        .unwrap()
    }

    /// Run a scripted client against a readiness loop in drive mode and
    /// return the decoded reply frames.
    fn scripted_exchange(script: &[&str], mut session: Store) -> Vec<String> {
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
            |req, reply| handle_request(&mut session, req, reply),
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
                |req, reply| handle_request(&mut s, req, reply),
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
            |req, reply| handle_request(&mut s, req, reply),
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
            handle_request(&mut s, req, reply)
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
        let per_shard = || Store::new(&tasks, &campaign(), &patient, 11, StreamMode::PerShard);
        let mut oracle = per_shard().unwrap();
        oracle.drain_shard_by_shard();

        let mut store = per_shard().unwrap();
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
            |req, reply| handle_request(&mut store, req, reply),
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
