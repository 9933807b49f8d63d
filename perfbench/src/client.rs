//! The load generator: one thread drives every connection of a closed
//! loop over the host loopback interface.
//!
//! Each connection carries `depth` request slots.  A slot is one waiting
//! volunteer: it sends its next request only after the reply to its
//! previous one, so the daemon's speed sets the load.  Latency is timed
//! from the `write` that carried a request to the `read` that completed
//! its reply.  The volunteer's choices live in [`Volunteer`], a pure
//! function of the replies, so an in-process oracle can replay them.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::procfs::split_cpus;

/// A stalled daemon fails the run instead of hanging it.
const STALL: Duration = Duration::from_secs(30);

/// A request a slot can have in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `request-work`.
    Work,
    /// `return-result <task> <copy>`.
    Return {
        /// The task id.
        task: u64,
        /// The copy index.
        copy: u32,
    },
}

impl Request {
    /// The request line.
    pub fn text(&self) -> String {
        match self {
            Request::Work => "request-work".into(),
            Request::Return { task, copy } => format!("return-result {task} {copy}"),
        }
    }
}

/// Append one length-prefixed frame to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &str) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
}

/// Counts of what a drive sent and received.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests written.
    pub requests: u64,
    /// `request-work` requests written.
    pub work_requests: u64,
    /// `work` replies (copies issued to this client).
    pub work: u64,
    /// `idle` replies.
    pub idle: u64,
    /// `ok` replies: results acknowledged.
    pub ok: u64,
    /// `err` replies.
    pub err: u64,
    /// Replies that fit no verb of the protocol.
    pub malformed: u64,
    /// Copies the volunteer kept without returning.
    pub abandoned: u64,
    /// Requests written that never got a reply.
    pub unanswered: u64,
    /// Connections that failed with an I/O error.
    pub io_errors: u64,
}

impl Tally {
    /// Add `other`'s counts into `self`.
    pub fn accumulate(&mut self, o: &Tally) {
        self.requests += o.requests;
        self.work_requests += o.work_requests;
        self.work += o.work;
        self.idle += o.idle;
        self.ok += o.ok;
        self.err += o.err;
        self.malformed += o.malformed;
        self.abandoned += o.abandoned;
        self.unanswered += o.unanswered;
        self.io_errors += o.io_errors;
    }

    /// Requests that failed: `err` or malformed replies, unanswered
    /// requests and I/O errors.
    pub fn failed(&self) -> u64 {
        self.err + self.malformed + self.unanswered + self.io_errors
    }
}

/// A volunteer's decision function.  It returns each copy it is issued,
/// except that it abandons a seeded 1-in-`abandon_one_in` share of copies
/// the first time each is issued (0 abandons nothing); an abandoned copy
/// times out in the store and is returned when issued again.
#[derive(Debug, Clone)]
pub struct Volunteer {
    seed: u64,
    abandon_one_in: u64,
    abandoned: HashSet<(u64, u32)>,
}

impl Volunteer {
    /// A volunteer seeded with the workload seed.
    pub fn new(seed: u64, abandon_one_in: u64) -> Self {
        Volunteer {
            seed,
            abandon_one_in,
            abandoned: HashSet::new(),
        }
    }

    fn abandons(&mut self, task: u64, copy: u32) -> bool {
        self.abandon_one_in > 0
            && mix(self.seed ^ mix(task ^ (u64::from(copy) << 48)))
                .is_multiple_of(self.abandon_one_in)
            && self.abandoned.insert((task, copy))
    }

    /// What a slot sends after `reply` answered `prev`; `None` ends the
    /// slot (the store is drained, or the daemon answered `err` to
    /// `request-work`).
    pub fn next(&mut self, prev: Request, reply: &str, tally: &mut Tally) -> Option<Request> {
        let mut words = reply.split_whitespace();
        match (prev, words.next()) {
            (Request::Work, Some("work")) => {
                let task = words.next().and_then(|w| w.parse().ok());
                let copy = words.next().and_then(|w| w.parse().ok());
                let (Some(task), Some(copy)) = (task, copy) else {
                    tally.malformed += 1;
                    return None;
                };
                tally.work += 1;
                if self.abandons(task, copy) {
                    tally.abandoned += 1;
                    Some(Request::Work)
                } else {
                    Some(Request::Return { task, copy })
                }
            }
            (Request::Work, Some("idle")) => {
                tally.idle += 1;
                Some(Request::Work)
            }
            (Request::Work, Some("drained")) => None,
            (Request::Return { .. }, Some("ok")) => {
                tally.ok += 1;
                Some(Request::Work)
            }
            (Request::Work, Some("err")) => {
                tally.err += 1;
                None
            }
            (Request::Return { .. }, Some("err")) => {
                tally.err += 1;
                Some(Request::Work)
            }
            _ => {
                tally.malformed += 1;
                None
            }
        }
    }
}

/// SplitMix64's finalizer: a fixed, seedable hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// Wait until one of `fds` is ready or `timeout` passes; returns how many
/// are ready (0 on timeout).
fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` structs laid out as the kernel's `struct pollfd`,
        // and `nfds` is its length.
        let n = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                timeout.as_millis().min(i32::MAX as u128) as i32,
            )
        };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// One client connection: a nonblocking socket with its buffers and the
/// requests it has in flight, oldest first (replies come back in order).
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    inflight: VecDeque<(Request, u64)>,
    /// In-flight requests at the back whose carrying write has not
    /// happened yet.
    unstamped: usize,
}

impl Conn {
    /// Connect to `addr` with Nagle off (requests are tiny).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            inbuf: Vec::with_capacity(64 * 1024),
            outbuf: Vec::with_capacity(4096),
            inflight: VecDeque::new(),
            unstamped: 0,
        })
    }

    fn queue(&mut self, req: Request, tally: &mut Tally) {
        push_frame(&mut self.outbuf, &req.text());
        self.inflight.push_back((req, 0));
        self.unstamped += 1;
        tally.requests += 1;
        if req == Request::Work {
            tally.work_requests += 1;
        }
    }

    /// Write what the socket takes now, stamping the requests the write
    /// carries with its start time.
    fn write_some(&mut self, clock: &Instant) -> io::Result<()> {
        while !self.outbuf.is_empty() {
            let t = clock.elapsed().as_nanos() as u64;
            match self.stream.write(&self.outbuf) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    for slot in self.inflight.iter_mut().rev().take(self.unstamped) {
                        slot.1 = t;
                    }
                    self.unstamped = 0;
                    self.outbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One `read` into the input buffer; `Ok(false)` at end of stream.
    /// A full chunk leaves the rest for the next readiness report.
    fn read_some(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One synchronous round trip outside the timed loop (set-up probes,
    /// `stats`, `shutdown`).
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        let clock = Instant::now();
        push_frame(&mut self.outbuf, request);
        loop {
            self.write_some(&clock)?;
            if let Some(range) = frame_at(&self.inbuf, 0) {
                let text = String::from_utf8_lossy(&self.inbuf[range.clone()]).into_owned();
                self.inbuf.drain(..range.end);
                return Ok(text);
            }
            let mut fds = [PollFd {
                fd: self.stream.as_raw_fd(),
                events: POLLIN | if self.outbuf.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            }];
            if poll_fds(&mut fds, STALL)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no reply to `{request}`"),
                ));
            }
            if !self.read_some()? && frame_at(&self.inbuf, 0).is_none() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("connection closed before the reply to `{request}`"),
                ));
            }
        }
    }
}

/// The payload range of the complete frame starting at `at`, if any.
fn frame_at(buf: &[u8], at: usize) -> Option<std::ops::Range<usize>> {
    let prefix: [u8; 4] = buf.get(at..at + 4)?.try_into().ok()?;
    let end = at + 4 + u32::from_be_bytes(prefix) as usize;
    (buf.len() >= end).then_some(at + 4..end)
}

/// What one closed-loop drive measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// What was sent and received.
    pub tally: Tally,
    /// Every request's round trip in nanoseconds, in reply order.
    pub latencies_ns: Vec<u32>,
    /// Wall time from the first write to the last reply.
    pub elapsed: Duration,
}

/// Run the closed loop on `conns`, `depth` slots each, until every slot's
/// `request-work` is answered `drained`.  An I/O error or a stall fails
/// the drive; the requests then in flight count as unanswered.  The
/// generator has a CPU of its own for the drive (`procfs::split_cpus`).
pub fn drive(conns: &mut [Conn], depth: usize, volunteer: &mut Volunteer) -> Drive {
    let (generator, daemon) = split_cpus();
    let pinned = generator.apply();
    let clock = Instant::now();
    let mut out = Drive {
        latencies_ns: Vec::with_capacity(1 << 16),
        ..Drive::default()
    };
    let mut live = 0usize;
    for c in conns.iter_mut() {
        for _ in 0..depth {
            c.queue(Request::Work, &mut out.tally);
            live += 1;
        }
    }
    let result = pinned.and_then(|()| drive_loop(conns, volunteer, &clock, &mut live, &mut out));
    out.elapsed = clock.elapsed();
    // Hand the thread back the daemon's CPUs, which the daemons it
    // spawns next inherit.
    if result.and(daemon.apply()).is_err() {
        out.tally.io_errors += 1;
    }
    out.tally.unanswered += conns.iter().map(|c| c.inflight.len() as u64).sum::<u64>();
    out
}

fn drive_loop(
    conns: &mut [Conn],
    volunteer: &mut Volunteer,
    clock: &Instant,
    live: &mut usize,
    out: &mut Drive,
) -> io::Result<()> {
    for c in conns.iter_mut() {
        c.write_some(clock)?;
    }
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    while *live > 0 {
        fds.clear();
        fds.extend(conns.iter().map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.outbuf.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        }));
        // Spin rather than sleep: a sleeping generator's CPU halts, and each
        // reply then wakes it through the hypervisor, at a cost that
        // follows the host's load.
        let waiting = Instant::now();
        while poll_fds(&mut fds, Duration::ZERO)? == 0 {
            if waiting.elapsed() > STALL {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "daemon stalled"));
            }
        }
        for (i, c) in conns.iter_mut().enumerate() {
            if fds[i].revents == 0 {
                continue;
            }
            let open = c.read_some()?;
            let now = clock.elapsed().as_nanos() as u64;
            let mut at = 0;
            while let Some(range) = frame_at(&c.inbuf, at) {
                at = range.end;
                let Some((req, sent)) = c.inflight.pop_front() else {
                    out.tally.malformed += 1;
                    continue;
                };
                out.latencies_ns
                    .push(now.saturating_sub(sent).min(u64::from(u32::MAX)) as u32);
                let reply = std::str::from_utf8(&c.inbuf[range]).unwrap_or("");
                match volunteer.next(req, reply, &mut out.tally) {
                    Some(next) => c.queue(next, &mut out.tally),
                    None => *live -= 1,
                }
            }
            c.inbuf.drain(..at);
            c.write_some(clock)?;
            if !open && *live > 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "the daemon closed a connection mid-drive",
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volunteer_returns_work_and_stops_at_drained() {
        let mut v = Volunteer::new(7, 0);
        let mut t = Tally::default();
        assert_eq!(
            v.next(Request::Work, "work 12 1 3", &mut t),
            Some(Request::Return { task: 12, copy: 1 })
        );
        let ret = Request::Return { task: 12, copy: 1 };
        assert_eq!(v.next(ret, "ok complete", &mut t), Some(Request::Work));
        assert_eq!(v.next(Request::Work, "idle", &mut t), Some(Request::Work));
        assert_eq!(v.next(Request::Work, "drained", &mut t), None);
        assert_eq!((t.work, t.ok, t.idle, t.failed()), (1, 1, 1, 0));
        assert_eq!(v.next(ret, "err unknown-copy", &mut t), Some(Request::Work));
        assert_eq!(v.next(Request::Work, "bye", &mut t), None);
        assert_eq!(t.failed(), 2);
    }

    #[test]
    fn abandonment_is_seeded_and_happens_once_per_copy() {
        let run = |seed| {
            let mut v = Volunteer::new(seed, 50);
            let mut t = Tally::default();
            let abandoned: Vec<u64> = (0..5000u64)
                .filter(|&task| {
                    v.next(Request::Work, &format!("work {task} 0 2"), &mut t)
                        == Some(Request::Work)
                })
                .collect();
            (v, abandoned)
        };
        let (mut v, a) = run(1);
        assert_eq!(a, run(1).1, "same seed, same copies");
        assert_ne!(a, run(2).1, "the seed picks the copies");
        assert!((60..140).contains(&a.len()), "about 1 in 50: {}", a.len());
        let mut t = Tally::default();
        let again = v.next(Request::Work, &format!("work {} 0 2", a[0]), &mut t);
        assert_eq!(
            again,
            Some(Request::Return {
                task: a[0],
                copy: 0
            })
        );
    }

    #[test]
    fn frames_parse_only_when_complete() {
        let mut buf = Vec::new();
        push_frame(&mut buf, "ok");
        push_frame(&mut buf, "work 1 0 2");
        assert_eq!(frame_at(&buf, 0), Some(4..6));
        assert_eq!(frame_at(&buf, 6), Some(10..20));
        assert_eq!(frame_at(&buf[..19], 6), None);
        assert_eq!(frame_at(&buf, 20), None);
    }
}
