//! Append-only journal and bit-identical replay for the serve stores.
//!
//! The live supervisor is the sole bookkeeper of which client holds which
//! task copy; this module makes that ledger durable.  A
//! [`JournaledStore`] wraps any [`WorkStore`] and appends one record per
//! state-mutating event — a session header, every issue, every accepted
//! return, idle/drained ticks, timeout-expiry deltas, in-flight resets,
//! and shutdown — through a [`JournalWriter`] with a configurable fsync
//! policy ([`SyncPolicy`]).
//!
//! # Record framing
//!
//! Every record is `[u32 BE payload length][payload][u64 LE chain]`.  The
//! payload is a tag byte followed by little-endian fields; the trailing
//! chain value is an FNV-1a fold over the *previous* chain value and the
//! payload bytes, so each record checksums both its own bytes and its
//! position in the stream — a reordered, corrupted, or torn record breaks
//! the chain at exactly that index.
//!
//! # Replay
//!
//! Because a drained store is a pure function of `(seed, shards, stream
//! mode)` and every inter-call decision the store makes is deterministic
//! (see THEORY.md on the derived-streams law), the journal does not need
//! to snapshot any state: [`replay`] rebuilds a fresh store from the
//! header and re-executes the logged calls, *verifying* at each step that
//! the store reproduces what the journal recorded (issue identities,
//! expiry deltas, reset counts).  The result is byte-identical to the
//! original store — same outcome, same final RNG streams, same stats —
//! or a structured [`JournalError`] naming the first diverging record;
//! never a panic, never silent divergence.  Torn tails (a crash mid-
//! append) are detected by the chain checksum and, under
//! [`ReplayOptions::allow_torn_tail`], truncated away so recovery resumes
//! from the last durable record.

use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use super::concurrent::StreamMode;
use super::store::{Issue, ReturnAck, ServeConfig, ServeError, ServeStats, Store};
use super::WorkStore;
use crate::engine::CampaignConfig;
use crate::faults::FaultModel;
use crate::outcome::CampaignOutcome;
use crate::task::{grouped_specs, SpecGroup, TaskId, TaskSpec};
use redundancy_stats::DeterministicRng;

/// Magic bytes opening every journal's header record.
pub const MAGIC: [u8; 4] = *b"RJRN";

/// Journal format version written by this build.
pub const VERSION: u32 = 1;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Buffered appends flush to the sink once the staging buffer holds this
/// many bytes (under `batch` additionally fsyncing).
const FLUSH_THRESHOLD: usize = 8 * 1024;

/// Fold `prev` and `payload` into the next running chain value (FNV-1a).
fn chain_next(prev: u64, payload: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    let mut fold = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    for b in prev.to_le_bytes() {
        fold(b);
    }
    for &b in payload {
        fold(b);
    }
    h
}

/// FNV-1a over the workload shape (grouped task specs) and the campaign
/// configuration — stamped into the session header so a journal cannot be
/// replayed against a different workload without a structured
/// [`JournalError::WorkloadMismatch`].  Groups `tasks` and calls
/// [`workload_fingerprint_groups`].
pub fn workload_fingerprint(tasks: &[TaskSpec], campaign: &CampaignConfig) -> u64 {
    workload_fingerprint_groups(&grouped_specs(tasks).collect::<Vec<_>>(), campaign)
}

/// [`workload_fingerprint`] over the workload's maximal spec groups (as
/// [`plan_groups`](crate::task::plan_groups) and
/// [`grouped_specs`] produce them), in O(groups).
pub fn workload_fingerprint_groups(groups: &[SpecGroup], campaign: &CampaignConfig) -> u64 {
    let mut h = FNV_BASIS;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for g in groups {
        fold(g.first_id.0);
        fold(g.count);
        fold(u64::from(g.multiplicity));
        fold(u64::from(g.precomputed));
    }
    for b in format!("{campaign:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The journal's opening record: everything [`replay`] needs to rebuild
/// the store the session started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionHeader {
    /// The session seed the RNG stream(s) derive from.
    pub seed: u64,
    /// Hash shard count.
    pub shards: u32,
    /// Which store flavor the session ran ([`StreamMode`]).
    pub mode: StreamMode,
    /// In-flight timeout, in ticks.
    pub timeout: u64,
    /// Maximum re-issues per copy.
    pub max_retries: u32,
    /// [`workload_fingerprint`] of the tasks and campaign served.
    pub fingerprint: u64,
    /// Tasks in the workload (redundant with the fingerprint; kept for
    /// `journal-inspect` without the workload at hand).
    pub total_tasks: u64,
}

/// One journaled event.  Tag bytes are part of the on-disk format and
/// must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// Tag 1: the session header (always record 0).
    Header(SessionHeader),
    /// Tag 2: `request-work` issued this copy.
    Issue {
        /// Issued task id.
        task: u64,
        /// Issued copy index.
        copy: u32,
    },
    /// Tag 3: `request-work` answered `idle`.
    TickIdle,
    /// Tag 4: `request-work` answered `drained`.
    TickDrained,
    /// Tag 5: this copy was returned and accepted.
    Return {
        /// Returned task id.
        task: u64,
        /// Returned copy index.
        copy: u32,
    },
    /// Tag 6: the tick that follows expired overdue copies, growing the
    /// `(timeouts, lost)` totals by these deltas.  Always immediately
    /// followed by the tick's own record (`Issue`/`TickIdle`/
    /// `TickDrained`) unless a crash intervened.
    TimeoutRequeue {
        /// Timeout expiries this tick charged.
        timeouts: u64,
        /// Copies this tick abandoned (retry budget exhausted).
        lost: u64,
    },
    /// Tag 7: a client sent `shutdown` (the writer flushes here).
    Shutdown,
    /// Tag 8: recovery reverted this many in-flight copies to pending
    /// (see [`WorkStore::reset_in_flight`]).
    Reset {
        /// Copies reverted.
        reverted: u64,
    },
}

impl Record {
    /// Append this record's payload bytes (tag + fields) to `buf`.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Header(h) => {
                buf.push(1);
                buf.extend_from_slice(&MAGIC);
                buf.extend_from_slice(&VERSION.to_le_bytes());
                buf.extend_from_slice(&h.seed.to_le_bytes());
                buf.extend_from_slice(&h.shards.to_le_bytes());
                buf.push(match h.mode {
                    StreamMode::Single => 0,
                    StreamMode::PerShard => 1,
                });
                buf.extend_from_slice(&h.timeout.to_le_bytes());
                buf.extend_from_slice(&h.max_retries.to_le_bytes());
                buf.extend_from_slice(&h.fingerprint.to_le_bytes());
                buf.extend_from_slice(&h.total_tasks.to_le_bytes());
            }
            Record::Issue { task, copy } => {
                buf.push(2);
                buf.extend_from_slice(&task.to_le_bytes());
                buf.extend_from_slice(&copy.to_le_bytes());
            }
            Record::TickIdle => buf.push(3),
            Record::TickDrained => buf.push(4),
            Record::Return { task, copy } => {
                buf.push(5);
                buf.extend_from_slice(&task.to_le_bytes());
                buf.extend_from_slice(&copy.to_le_bytes());
            }
            Record::TimeoutRequeue { timeouts, lost } => {
                buf.push(6);
                buf.extend_from_slice(&timeouts.to_le_bytes());
                buf.extend_from_slice(&lost.to_le_bytes());
            }
            Record::Shutdown => buf.push(7),
            Record::Reset { reverted } => {
                buf.push(8);
                buf.extend_from_slice(&reverted.to_le_bytes());
            }
        }
    }

    /// Decode one payload (everything between the length prefix and the
    /// chain value).  `index` is only for error attribution.
    fn decode(payload: &[u8], index: u64) -> Result<Record, JournalError> {
        let mut c = Cursor {
            bytes: payload,
            pos: 0,
            index,
        };
        let tag = c.u8()?;
        let rec = match tag {
            1 => {
                let mut magic = [0u8; 4];
                for b in &mut magic {
                    *b = c.u8()?;
                }
                if magic != MAGIC {
                    return Err(JournalError::BadMagic);
                }
                let version = c.u32()?;
                if version != VERSION {
                    return Err(JournalError::BadVersion(version));
                }
                let seed = c.u64()?;
                let shards = c.u32()?;
                let mode = match c.u8()? {
                    0 => StreamMode::Single,
                    1 => StreamMode::PerShard,
                    m => {
                        return Err(JournalError::BadRecord {
                            index,
                            detail: format!("unknown stream mode byte {m}"),
                        })
                    }
                };
                let timeout = c.u64()?;
                let max_retries = c.u32()?;
                let fingerprint = c.u64()?;
                let total_tasks = c.u64()?;
                Record::Header(SessionHeader {
                    seed,
                    shards,
                    mode,
                    timeout,
                    max_retries,
                    fingerprint,
                    total_tasks,
                })
            }
            2 => Record::Issue {
                task: c.u64()?,
                copy: c.u32()?,
            },
            3 => Record::TickIdle,
            4 => Record::TickDrained,
            5 => Record::Return {
                task: c.u64()?,
                copy: c.u32()?,
            },
            6 => Record::TimeoutRequeue {
                timeouts: c.u64()?,
                lost: c.u64()?,
            },
            7 => Record::Shutdown,
            8 => Record::Reset { reverted: c.u64()? },
            tag => return Err(JournalError::UnknownTag { index, tag }),
        };
        c.done()?;
        Ok(rec)
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Record::Header(h) => write!(
                f,
                "header seed={} shards={} mode={} timeout={} retries={} tasks={} fingerprint={:#018x}",
                h.seed, h.shards, h.mode, h.timeout, h.max_retries, h.total_tasks, h.fingerprint
            ),
            Record::Issue { task, copy } => write!(f, "issue task={task} copy={copy}"),
            Record::TickIdle => f.write_str("tick idle"),
            Record::TickDrained => f.write_str("tick drained"),
            Record::Return { task, copy } => write!(f, "return task={task} copy={copy}"),
            Record::TimeoutRequeue { timeouts, lost } => {
                write!(f, "timeout-requeue timeouts=+{timeouts} lost=+{lost}")
            }
            Record::Shutdown => f.write_str("shutdown"),
            Record::Reset { reverted } => write!(f, "reset reverted={reverted}"),
        }
    }
}

/// Bounds-checked little-endian reader over one record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    index: u64,
}

impl Cursor<'_> {
    fn short(&self) -> JournalError {
        JournalError::BadRecord {
            index: self.index,
            detail: "payload shorter than its tag requires".into(),
        }
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.short())?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        let end = self.pos + 4;
        let s = self.bytes.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let end = self.pos + 8;
        let s = self.bytes.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    fn done(&self) -> Result<(), JournalError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(JournalError::BadRecord {
                index: self.index,
                detail: format!("payload has {} trailing bytes", self.bytes.len() - self.pos),
            })
        }
    }
}

/// Everything that can go wrong reading, verifying, or replaying a
/// journal.  Every variant is a structured report — corrupt input never
/// panics and never yields a silently diverged store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O error from the sink or source.
    Io(String),
    /// The header record does not open with the journal magic bytes.
    BadMagic,
    /// The header declares a format version this build cannot read.
    BadVersion(u32),
    /// The journal is empty or does not begin with a header record.
    MissingHeader,
    /// The stream ends mid-record (torn write or external truncation).
    TruncatedRecord {
        /// Index of the incomplete record.
        index: u64,
        /// Byte offset where the incomplete record starts.
        offset: u64,
    },
    /// A record's chain checksum does not match its bytes and position.
    ChecksumMismatch {
        /// Index of the corrupt record.
        index: u64,
        /// Byte offset where the corrupt record starts.
        offset: u64,
    },
    /// A record carries a tag this build does not know.
    UnknownTag {
        /// Index of the offending record.
        index: u64,
        /// The unknown tag byte.
        tag: u8,
    },
    /// A record's payload is structurally invalid for its tag.
    BadRecord {
        /// Index of the offending record.
        index: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// The journal was written for a different workload or campaign.
    WorkloadMismatch {
        /// Fingerprint the journal's header carries.
        expected: u64,
        /// Fingerprint of the workload offered for replay.
        found: u64,
    },
    /// Replay executed a record and the store did not reproduce it.
    Diverged {
        /// Index of the first diverging record.
        index: u64,
        /// What diverged.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadMagic => f.write_str("journal header lacks the RJRN magic"),
            JournalError::BadVersion(v) => {
                write!(f, "journal format version {v} is not supported (want {VERSION})")
            }
            JournalError::MissingHeader => {
                f.write_str("journal is empty or does not begin with a header record")
            }
            JournalError::TruncatedRecord { index, offset } => {
                write!(f, "record {index} at byte {offset} is truncated mid-record")
            }
            JournalError::ChecksumMismatch { index, offset } => {
                write!(f, "record {index} at byte {offset} fails its chain checksum")
            }
            JournalError::UnknownTag { index, tag } => {
                write!(f, "record {index} carries unknown tag {tag}")
            }
            JournalError::BadRecord { index, detail } => {
                write!(f, "record {index} is malformed: {detail}")
            }
            JournalError::WorkloadMismatch { expected, found } => write!(
                f,
                "journal was recorded over a different workload (header fingerprint {expected:#018x}, offered workload {found:#018x})"
            ),
            JournalError::Diverged { index, detail } => {
                write!(f, "replay diverged at record {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// When the buffered appender hands bytes to the operating system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush and fsync after every record: maximum durability, one
    /// syscall pair per event.
    Always,
    /// Flush and fsync when the staging buffer fills (and at flush
    /// points): bounded loss window, amortized cost.
    #[default]
    Batch,
    /// Flush when the buffer fills but never fsync: the OS decides when
    /// bytes reach disk.  Cheapest; survives process crashes but not
    /// host crashes.
    Off,
}

impl std::str::FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "batch" => Ok(SyncPolicy::Batch),
            "off" => Ok(SyncPolicy::Off),
            other => Err(format!(
                "unknown sync policy '{other}' (expected always, batch, or off)"
            )),
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
            SyncPolicy::Off => "off",
        })
    }
}

/// Where journal bytes go: any writer, plus an optional durability
/// barrier (`sync`).  Files fsync; in-memory sinks treat `sync` as a
/// no-op.
pub trait JournalSink: Write {
    /// Force written bytes to durable storage (fsync for files).
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for std::fs::File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl JournalSink for Vec<u8> {}

/// A cloneable, shared in-memory sink: the crash-recovery oracles write
/// through one handle and snapshot the accumulated bytes through another,
/// truncating at arbitrary offsets without any filesystem involvement.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A fresh, empty shared buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// A copy of the bytes written so far.
    pub fn snapshot(&self) -> Vec<u8> {
        self.0.lock().expect("journal buffer poisoned").clone()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("journal buffer poisoned").len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("journal buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for SharedBuf {}

/// The buffered appender: frames, chains, and stages records, flushing
/// and fsyncing per its [`SyncPolicy`].
pub struct JournalWriter {
    sink: Box<dyn JournalSink + Send>,
    /// Staged framed bytes not yet handed to the sink.
    buf: Vec<u8>,
    /// Payload encoding scratch, reused across appends.
    scratch: Vec<u8>,
    policy: SyncPolicy,
    chain: u64,
    records: u64,
    bytes: u64,
    synced: u64,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter")
            .field("policy", &self.policy)
            .field("records", &self.records)
            .field("bytes", &self.bytes)
            .field("synced", &self.synced)
            .field("chain", &self.chain)
            .finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// A writer over a fresh sink, chain seeded at the FNV basis.
    pub fn new<K: JournalSink + Send + 'static>(sink: K, policy: SyncPolicy) -> Self {
        JournalWriter {
            sink: Box::new(sink),
            buf: Vec::with_capacity(FLUSH_THRESHOLD + 128),
            scratch: Vec::with_capacity(64),
            policy,
            chain: FNV_BASIS,
            records: 0,
            bytes: 0,
            synced: 0,
        }
    }

    /// Resume appending to a journal whose valid prefix holds `records`
    /// records over `bytes` bytes ending with chain value `chain` — the
    /// `--recover` path, after the torn tail (if any) was truncated away.
    pub fn resume<K: JournalSink + Send + 'static>(
        sink: K,
        policy: SyncPolicy,
        chain: u64,
        records: u64,
        bytes: u64,
    ) -> Self {
        let mut w = JournalWriter::new(sink, policy);
        w.chain = chain;
        w.records = records;
        w.bytes = bytes;
        w
    }

    /// Append one record, flushing/fsyncing per the sync policy.
    pub fn append(&mut self, rec: &Record) -> io::Result<()> {
        let mut payload = std::mem::take(&mut self.scratch);
        payload.clear();
        rec.encode_into(&mut payload);
        self.chain = chain_next(self.chain, &payload);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(&payload);
        self.buf.extend_from_slice(&self.chain.to_le_bytes());
        self.bytes += 4 + payload.len() as u64 + 8;
        self.records += 1;
        self.scratch = payload;
        match self.policy {
            SyncPolicy::Always => {
                self.flush_staged()?;
                self.sink.sync()?;
                self.synced += 1;
            }
            SyncPolicy::Batch => {
                if self.buf.len() >= FLUSH_THRESHOLD {
                    self.flush_staged()?;
                    self.sink.sync()?;
                    self.synced += 1;
                }
            }
            SyncPolicy::Off => {
                if self.buf.len() >= FLUSH_THRESHOLD {
                    self.flush_staged()?;
                }
            }
        }
        Ok(())
    }

    /// Hand staged bytes to the sink (no durability barrier).
    fn flush_staged(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        self.sink.flush()
    }

    /// Flush staged bytes and, unless the policy is `off`, fsync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.flush_staged()?;
        if self.policy != SyncPolicy::Off {
            self.sink.sync()?;
            self.synced += 1;
        }
        Ok(())
    }

    /// Records appended so far (including any the writer resumed past).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Framed bytes appended so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Fsync barriers issued so far.
    pub fn synced(&self) -> u64 {
        self.synced
    }

    /// The running chain value after the last appended record.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// The writer's sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }
}

/// A journaling decorator over any [`WorkStore`]: every state-mutating
/// call is appended to the journal before the caller sees its result.
/// Append failures are latched into an error slot (checked via
/// [`error`](Self::error) / [`finish`](Self::finish)) rather than
/// disturbing the serve path — the store stays correct, the journal
/// stops being trustworthy, and the driver reports it at session end.
#[derive(Debug)]
pub struct JournaledStore<S: WorkStore> {
    store: S,
    writer: Option<JournalWriter>,
    error: Option<JournalError>,
}

impl<S: WorkStore> JournaledStore<S> {
    /// Wrap `store`; with `writer: None` this is a zero-cost pass-through
    /// (the journal-disabled serve path).
    pub fn new(store: S, writer: Option<JournalWriter>) -> Self {
        JournaledStore {
            store,
            writer,
            error: None,
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The writer, if journaling is enabled.
    pub fn writer(&self) -> Option<&JournalWriter> {
        self.writer.as_ref()
    }

    /// The first append error, if any occurred.
    pub fn error(&self) -> Option<&JournalError> {
        self.error.as_ref()
    }

    fn append(&mut self, rec: &Record) {
        if self.error.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if let Err(e) = w.append(rec) {
                self.error = Some(JournalError::Io(e.to_string()));
            }
        }
    }

    /// Flush the journal and unwrap: the store and writer on success, the
    /// first journal error otherwise.
    pub fn finish(self) -> Result<(S, Option<JournalWriter>), JournalError> {
        let JournaledStore {
            store,
            mut writer,
            mut error,
        } = self;
        if error.is_none() {
            if let Some(w) = &mut writer {
                if let Err(e) = w.flush() {
                    error = Some(JournalError::Io(e.to_string()));
                }
            }
        }
        match error {
            Some(e) => Err(e),
            None => Ok((store, writer)),
        }
    }
}

impl<S: WorkStore> WorkStore for JournaledStore<S> {
    fn request_work(&mut self) -> Issue {
        if self.writer.is_none() {
            // Nothing is logged, so the expiry snapshots are not needed.
            return self.store.request_work();
        }
        let before = self.store.expiry_counters();
        let issue = self.store.request_work();
        let after = self.store.expiry_counters();
        if after != before {
            self.append(&Record::TimeoutRequeue {
                timeouts: after.0 - before.0,
                lost: after.1 - before.1,
            });
        }
        match issue {
            Issue::Work(a) => self.append(&Record::Issue {
                task: a.task.0,
                copy: a.copy,
            }),
            Issue::Idle => self.append(&Record::TickIdle),
            Issue::Drained => self.append(&Record::TickDrained),
        }
        issue
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        let r = self.store.return_result(task, copy);
        if r.is_ok() {
            self.append(&Record::Return { task: task.0, copy });
        }
        r
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
        let reverted = self.store.reset_in_flight();
        self.append(&Record::Reset { reverted });
        reverted
    }

    fn note_shutdown(&mut self) {
        self.store.note_shutdown();
        self.append(&Record::Shutdown);
        if self.error.is_none() {
            if let Some(w) = &mut self.writer {
                if let Err(e) = w.flush() {
                    self.error = Some(JournalError::Io(e.to_string()));
                }
            }
        }
    }
}

/// How [`parse_journal`] / [`replay_with`] treat an invalid tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayOptions {
    /// Tolerate a torn tail: stop at the last fully verified record
    /// instead of reporting the truncation/corruption as an error.  This
    /// is the `--recover` semantic (a crash mid-append is expected); the
    /// strict default is the integrity-checking semantic.  Replay also
    /// counts a trailing `timeout-requeue` whose tick record never landed
    /// as torn, so the prefix it returns is one a recovery can append to.
    pub allow_torn_tail: bool,
}

/// A structurally verified journal: every record parsed, framed, and
/// chain-checked.
#[derive(Debug, Clone)]
pub struct ParsedJournal {
    /// The session header (always `records[0]`).
    pub header: SessionHeader,
    /// Every verified record, header included.
    pub records: Vec<Record>,
    /// Bytes covered by the verified records; anything past this is a
    /// torn tail.
    pub valid_len: u64,
    /// The chain value after the last verified record.
    pub chain: u64,
    /// True when a torn tail was tolerated (bytes past `valid_len`).
    pub torn_tail: bool,
}

/// Parse and chain-verify a journal byte stream.  Under
/// [`ReplayOptions::allow_torn_tail`] an invalid tail truncates the
/// parse; otherwise it is an error.  Structural errors *behind* a valid
/// checksum (unknown tag, short payload) are always errors — they mean a
/// format problem, not a torn write.
pub fn parse_journal(bytes: &[u8], opts: ReplayOptions) -> Result<ParsedJournal, JournalError> {
    let mut pos = 0usize;
    let mut chain = FNV_BASIS;
    let mut records: Vec<Record> = Vec::new();
    let mut torn: Option<JournalError> = None;
    while pos < bytes.len() {
        let index = records.len() as u64;
        let Some(prefix) = bytes.get(pos..pos + 4) else {
            torn = Some(JournalError::TruncatedRecord {
                index,
                offset: pos as u64,
            });
            break;
        };
        let len = u32::from_be_bytes(prefix.try_into().expect("4-byte slice")) as usize;
        let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
            torn = Some(JournalError::TruncatedRecord {
                index,
                offset: pos as u64,
            });
            break;
        };
        let Some(chain_bytes) = bytes.get(pos + 4 + len..pos + 4 + len + 8) else {
            torn = Some(JournalError::TruncatedRecord {
                index,
                offset: pos as u64,
            });
            break;
        };
        let next = chain_next(chain, payload);
        if u64::from_le_bytes(chain_bytes.try_into().expect("8-byte slice")) != next {
            torn = Some(JournalError::ChecksumMismatch {
                index,
                offset: pos as u64,
            });
            break;
        }
        let rec = Record::decode(payload, index)?;
        match (&rec, records.is_empty()) {
            (Record::Header(_), true) => {}
            (Record::Header(_), false) => {
                return Err(JournalError::BadRecord {
                    index,
                    detail: "duplicate header record".into(),
                })
            }
            (_, true) => return Err(JournalError::MissingHeader),
            (_, false) => {}
        }
        chain = next;
        records.push(rec);
        pos += 4 + len + 8;
    }
    let Some(Record::Header(header)) = records.first().copied() else {
        // Nothing durable at all: empty file, or a torn header record.
        return Err(torn.unwrap_or(JournalError::MissingHeader));
    };
    let torn_tail = match torn {
        Some(e) if !opts.allow_torn_tail => return Err(e),
        Some(_) => true,
        None => false,
    };
    Ok(ParsedJournal {
        header,
        records,
        valid_len: pos as u64,
        chain,
        torn_tail,
    })
}

/// A journal replayed back into a live store.
#[derive(Debug)]
pub struct Replayed {
    /// The reconstructed store — bit-identical (outcome, RNG streams,
    /// stats) to the store that wrote the verified prefix.
    pub store: Store,
    /// The session header the store was rebuilt from.
    pub header: SessionHeader,
    /// Verified records replayed (header included).
    pub records: u64,
    /// Bytes covered by the verified records.
    pub valid_len: u64,
    /// The chain value after the last verified record — the session's
    /// replay checksum.
    pub chain: u64,
    /// True when a torn tail (or, under
    /// [`ReplayOptions::allow_torn_tail`], a dangling `timeout-requeue`)
    /// lies past `valid_len`.
    pub torn_tail: bool,
}

/// Strictly replay a journal against the workload it was recorded over:
/// any truncation, corruption, or divergence is a structured error.
pub fn replay(
    bytes: &[u8],
    tasks: &[TaskSpec],
    campaign: &CampaignConfig,
) -> Result<Replayed, JournalError> {
    replay_with(bytes, tasks, campaign, ReplayOptions::default())
}

/// [`replay`] with explicit tail handling (see [`ReplayOptions`]).
/// Groups `tasks` and calls [`replay_groups`].
pub fn replay_with(
    bytes: &[u8],
    tasks: &[TaskSpec],
    campaign: &CampaignConfig,
    opts: ReplayOptions,
) -> Result<Replayed, JournalError> {
    replay_groups(
        bytes,
        &grouped_specs(tasks).collect::<Vec<_>>(),
        campaign,
        opts,
    )
}

/// [`replay_with`] against the workload's maximal spec groups (as
/// [`plan_groups`](crate::task::plan_groups) produces them): the store
/// is rebuilt in O(groups).
pub fn replay_groups(
    bytes: &[u8],
    groups: &[SpecGroup],
    campaign: &CampaignConfig,
    opts: ReplayOptions,
) -> Result<Replayed, JournalError> {
    let parsed = parse_journal(bytes, opts)?;
    let header = parsed.header;
    let found = workload_fingerprint_groups(groups, campaign);
    if found != header.fingerprint {
        return Err(JournalError::WorkloadMismatch {
            expected: header.fingerprint,
            found,
        });
    }
    let serve = ServeConfig {
        shards: header.shards as usize,
        faults: FaultModel {
            timeout: header.timeout,
            max_retries: header.max_retries,
            ..FaultModel::none()
        },
    };
    let mut store = Store::from_groups(groups, campaign, &serve, header.seed, header.mode)
        .map_err(|detail| JournalError::BadRecord { index: 0, detail })?;
    // The `(timeouts, lost)` deltas the next tick must reproduce.
    let mut pending: Option<(u64, u64)> = None;
    for (i, rec) in parsed.records.iter().enumerate().skip(1) {
        let index = i as u64;
        match *rec {
            Record::Header(_) => unreachable!("parse_journal rejects duplicate headers"),
            Record::TimeoutRequeue { timeouts, lost } => {
                if pending.is_some() {
                    return Err(JournalError::BadRecord {
                        index,
                        detail: "consecutive timeout-requeue records".into(),
                    });
                }
                pending = Some((timeouts, lost));
            }
            Record::Issue { task, copy } => match verified_tick(&mut store, &mut pending, index)? {
                Issue::Work(a) if a.task.0 == task && a.copy == copy => {}
                other => {
                    return Err(JournalError::Diverged {
                        index,
                        detail: format!(
                            "journal issued task {task} copy {copy}, replay produced {other:?}"
                        ),
                    })
                }
            },
            Record::TickIdle => match verified_tick(&mut store, &mut pending, index)? {
                Issue::Idle => {}
                other => {
                    return Err(JournalError::Diverged {
                        index,
                        detail: format!("journal recorded idle, replay produced {other:?}"),
                    })
                }
            },
            Record::TickDrained => match verified_tick(&mut store, &mut pending, index)? {
                Issue::Drained => {}
                other => {
                    return Err(JournalError::Diverged {
                        index,
                        detail: format!("journal recorded drained, replay produced {other:?}"),
                    })
                }
            },
            Record::Return { task, copy } => {
                expect_no_pending(&pending, index)?;
                if let Err(e) = store.return_result(TaskId(task), copy) {
                    return Err(JournalError::Diverged {
                        index,
                        detail: format!("return of task {task} copy {copy} rejected: {e}"),
                    });
                }
            }
            Record::Reset { reverted } => {
                expect_no_pending(&pending, index)?;
                let n = store.reset_in_flight();
                if n != reverted {
                    return Err(JournalError::Diverged {
                        index,
                        detail: format!("reset reverted {n} copies, journal recorded {reverted}"),
                    });
                }
            }
            Record::Shutdown => expect_no_pending(&pending, index)?,
        }
    }
    // A dangling trailing timeout-requeue means the crash landed between
    // it and its tick record; the store is at the call boundary before it.
    let mut replayed = Replayed {
        store,
        header,
        records: parsed.records.len() as u64,
        valid_len: parsed.valid_len,
        chain: parsed.chain,
        torn_tail: parsed.torn_tail,
    };
    if pending.is_some() && opts.allow_torn_tail {
        // A recovery resumes appending where the prefix ends, so the
        // prefix ends at that boundary too: left in place, the record would
        // be followed by the resumed session's records instead of a tick,
        // and the journal could not be replayed again.  The chain value
        // there is the 8 chain bytes that end where the record starts.
        let mut payload = Vec::new();
        parsed.records[parsed.records.len() - 1].encode_into(&mut payload);
        let start = parsed.valid_len as usize - (4 + payload.len() + 8);
        replayed.records -= 1;
        replayed.valid_len = start as u64;
        replayed.chain = u64::from_le_bytes(bytes[start - 8..start].try_into().expect("8 bytes"));
        replayed.torn_tail = true;
    }
    Ok(replayed)
}

/// Execute one tick and verify its expiry deltas against the pending
/// timeout-requeue record (or no change, if none was logged).
fn verified_tick(
    store: &mut Store,
    pending: &mut Option<(u64, u64)>,
    index: u64,
) -> Result<Issue, JournalError> {
    let before = store.expiry_counters();
    let got = store.request_work();
    let after = store.expiry_counters();
    let delta = (after.0 - before.0, after.1 - before.1);
    let expected = pending.take().unwrap_or((0, 0));
    if delta != expected {
        return Err(JournalError::Diverged {
            index,
            detail: format!(
                "tick expired (timeouts +{}, lost +{}) but journal recorded (timeouts +{}, lost +{})",
                delta.0, delta.1, expected.0, expected.1
            ),
        });
    }
    Ok(got)
}

/// A timeout-requeue record must be followed by its tick, nothing else.
fn expect_no_pending(pending: &Option<(u64, u64)>, index: u64) -> Result<(), JournalError> {
    if pending.is_some() {
        return Err(JournalError::BadRecord {
            index,
            detail: "timeout-requeue not followed by a tick record".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::store::Assignment;
    use super::super::{assert_drain_equivalent, DrainState};
    use super::*;
    use crate::adversary::{AdversaryModel, CheatStrategy};
    use crate::task::expand_plan;
    use redundancy_core::RealizedPlan;

    fn campaign() -> CampaignConfig {
        CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        )
    }

    fn specs(n: u64) -> Vec<TaskSpec> {
        expand_plan(&RealizedPlan::balanced(n, 0.5).unwrap())
    }

    fn serve_config(shards: usize, timeout: u64) -> ServeConfig {
        ServeConfig {
            faults: FaultModel {
                timeout,
                max_retries: 2,
                ..FaultModel::none()
            },
            ..ServeConfig::new(shards)
        }
    }

    fn header_for(
        tasks: &[TaskSpec],
        cfg: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
        mode: StreamMode,
    ) -> SessionHeader {
        SessionHeader {
            seed,
            shards: serve.shards as u32,
            mode,
            timeout: serve.faults.timeout,
            max_retries: serve.faults.max_retries,
            fingerprint: workload_fingerprint(tasks, cfg),
            total_tasks: tasks.len() as u64,
        }
    }

    /// Byte offset of the end of each framed record.
    fn record_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let len =
                u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("length prefix")) as usize;
            pos += 4 + len + 8;
            ends.push(pos);
        }
        assert_eq!(*ends.last().expect("nonempty journal"), bytes.len());
        ends
    }

    /// The journaled state at record count `r`: the last call-boundary
    /// snapshot whose record count does not exceed `r`.  (A prefix ending
    /// on a dangling timeout-requeue record replays to the boundary
    /// *before* the tick that wrote it.)
    fn expected_state(snaps: &[(u64, DrainState)], r: u64) -> &DrainState {
        &snaps
            .iter()
            .rev()
            .find(|(records, _)| *records <= r)
            .expect("snapshot at or before record count")
            .1
    }

    /// Journal a full session under a withholding client schedule (so
    /// idles, timeout expiries, retries, and lost copies all hit the log),
    /// snapshotting the drained-comparable state after every store call.
    fn journal_session(
        tasks: &[TaskSpec],
        cfg: &CampaignConfig,
        serve: &ServeConfig,
        seed: u64,
        mode: StreamMode,
    ) -> (Vec<u8>, Vec<(u64, DrainState)>) {
        let buf = SharedBuf::new();
        let mut writer = JournalWriter::new(buf.clone(), SyncPolicy::Always);
        writer
            .append(&Record::Header(header_for(tasks, cfg, serve, seed, mode)))
            .unwrap();
        let store = Store::new(tasks, cfg, serve, seed, mode).unwrap();
        let mut js = JournaledStore::new(store, Some(writer));
        let mut snaps = vec![(1u64, DrainState::of(&js))];
        let mut held: Vec<Assignment> = Vec::new();
        let mut issued = 0u64;
        loop {
            let issue = js.request_work();
            snaps.push((js.writer().unwrap().records(), DrainState::of(&js)));
            match issue {
                Issue::Work(a) => {
                    issued += 1;
                    if issued.is_multiple_of(3) {
                        js.return_result(a.task, a.copy).unwrap();
                        snaps.push((js.writer().unwrap().records(), DrainState::of(&js)));
                    } else {
                        held.push(a);
                    }
                    // Trickle held copies back out of order; some have
                    // already timed out and are rejected (not journaled).
                    if issued.is_multiple_of(7) && !held.is_empty() {
                        let a = held.remove(0);
                        let _ = js.return_result(a.task, a.copy);
                        snaps.push((js.writer().unwrap().records(), DrainState::of(&js)));
                    }
                }
                Issue::Idle => {
                    // Only withheld copies remain: flush them all.
                    for a in held.drain(..) {
                        let _ = js.return_result(a.task, a.copy);
                        snaps.push((js.writer().unwrap().records(), DrainState::of(&js)));
                    }
                }
                Issue::Drained => break,
            }
        }
        js.note_shutdown();
        snaps.push((js.writer().unwrap().records(), DrainState::of(&js)));
        assert!(
            js.error().is_none(),
            "journal append failed: {:?}",
            js.error()
        );
        let (_store, writer) = js.finish().unwrap();
        let writer = writer.unwrap();
        let bytes = buf.snapshot();
        assert_eq!(writer.bytes(), bytes.len() as u64);
        assert_eq!(writer.records(), snaps.last().unwrap().0);
        (bytes, snaps)
    }

    /// The crash-recovery oracle: truncate the journal at *every* record
    /// boundary and verify strict replay reconstructs exactly the state
    /// the session had when that record was durable; truncate *mid*-record
    /// and verify strict replay reports the torn write while tolerant
    /// replay recovers the preceding boundary.
    fn crash_oracle(mode: StreamMode, shards: usize, seed: u64) {
        let tasks = specs(60);
        let cfg = campaign();
        let serve = serve_config(shards, 4);
        let (bytes, snaps) = journal_session(&tasks, &cfg, &serve, seed, mode);
        let ends = record_ends(&bytes);
        // The withholding schedule must actually exercise the expiry path.
        let final_state = &snaps.last().unwrap().1;
        assert!(
            final_state.stats.unwrap().timeouts > 0,
            "schedule produced no timeouts; the oracle is not covering requeues"
        );
        for r in 1..=ends.len() {
            let prefix = &bytes[..ends[r - 1]];
            let rep = replay(prefix, &tasks, &cfg)
                .unwrap_or_else(|e| panic!("strict replay of {r}-record prefix failed: {e}"));
            assert_eq!(rep.records, r as u64);
            assert_eq!(rep.valid_len, prefix.len() as u64);
            assert!(!rep.torn_tail);
            assert_eq!(rep.header.seed, seed);
            assert_drain_equivalent(
                &DrainState::of(&rep.store),
                expected_state(&snaps, r as u64),
            );
        }
        // Full-journal replay chain matches the writer's running chain.
        let full = replay(&bytes, &tasks, &cfg).unwrap();
        assert_eq!(
            full.chain,
            {
                let mut chain = FNV_BASIS;
                let mut pos = 0usize;
                while pos < bytes.len() {
                    let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                    chain = chain_next(chain, &bytes[pos + 4..pos + 4 + len]);
                    pos += 4 + len + 8;
                }
                chain
            },
            "replay chain does not match a direct re-fold of the stream"
        );
        let records = parse_journal(&bytes, ReplayOptions::default())
            .unwrap()
            .records;
        for r in 2..=ends.len() {
            let torn = &bytes[..ends[r - 1] - 3];
            match replay(torn, &tasks, &cfg) {
                Err(JournalError::TruncatedRecord { index, .. }) => {
                    assert_eq!(index, (r - 1) as u64)
                }
                other => panic!("mid-record truncation at record {r} gave {other:?}"),
            }
            let rep = replay_with(
                torn,
                &tasks,
                &cfg,
                ReplayOptions {
                    allow_torn_tail: true,
                },
            )
            .unwrap_or_else(|e| panic!("tolerant replay of torn record {r} failed: {e}"));
            // A torn tick record leaves its timeout-requeue dangling, and
            // the recoverable prefix ends before that record too.
            let kept = if matches!(records[r - 2], Record::TimeoutRequeue { .. }) {
                r - 2
            } else {
                r - 1
            };
            assert!(rep.torn_tail);
            assert_eq!(rep.records, kept as u64);
            assert_eq!(rep.valid_len, ends[kept - 1] as u64);
            assert_drain_equivalent(
                &DrainState::of(&rep.store),
                expected_state(&snaps, (r - 1) as u64),
            );
        }
    }

    #[test]
    fn replay_matches_every_record_boundary_single_stream() {
        crash_oracle(StreamMode::Single, 3, 20_050_926);
    }

    #[test]
    fn replay_matches_every_record_boundary_per_shard() {
        crash_oracle(StreamMode::PerShard, 2, 7);
    }

    /// A crash between a timeout-requeue and its tick record: recovery
    /// cuts the dangling record away, so the resumed journal (a reset, then
    /// the rest of the drain) replays strictly and recovers again.
    #[test]
    fn a_journal_cut_after_a_timeout_requeue_recovers_twice() {
        let tolerant = ReplayOptions {
            allow_torn_tail: true,
        };
        for mode in [StreamMode::Single, StreamMode::PerShard] {
            let tasks = specs(60);
            let cfg = campaign();
            let serve = serve_config(3, 4);
            let (bytes, snaps) = journal_session(&tasks, &cfg, &serve, 7, mode);
            let ends = record_ends(&bytes);
            let records = parse_journal(&bytes, ReplayOptions::default())
                .unwrap()
                .records;
            let mut cuts = 0;
            for (i, rec) in records.iter().enumerate() {
                if !matches!(rec, Record::TimeoutRequeue { .. }) {
                    continue;
                }
                cuts += 1;
                let rep = replay_with(&bytes[..ends[i]], &tasks, &cfg, tolerant).unwrap();
                assert!(rep.torn_tail, "{mode:?}: record {i}");
                assert_eq!(rep.records, i as u64);
                assert_eq!(rep.valid_len, ends[i - 1] as u64);
                let before = replay(&bytes[..ends[i - 1]], &tasks, &cfg).unwrap();
                assert_eq!(rep.chain, before.chain);
                assert_drain_equivalent(
                    &DrainState::of(&rep.store),
                    expected_state(&snaps, i as u64),
                );
                // Resume as `serve --recover` does: keep the prefix, reset
                // the copies in flight, and drain.
                let buf = SharedBuf::new();
                buf.clone().write_all(&bytes[..ends[i - 1]]).unwrap();
                let writer = JournalWriter::resume(
                    buf.clone(),
                    SyncPolicy::Always,
                    rep.chain,
                    rep.records,
                    rep.valid_len,
                );
                let mut js = JournaledStore::new(rep.store, Some(writer));
                js.reset_in_flight();
                js.drain();
                js.note_shutdown();
                assert!(js.error().is_none());
                let state = DrainState::of(&js);
                drop(js.finish().unwrap());
                let resumed = buf.snapshot();
                let again = replay(&resumed, &tasks, &cfg)
                    .unwrap_or_else(|e| panic!("{mode:?}: resumed at record {i}: {e}"));
                assert_drain_equivalent(&DrainState::of(&again.store), &state);
                assert!(
                    !replay_with(&resumed, &tasks, &cfg, tolerant)
                        .unwrap()
                        .torn_tail
                );
            }
            assert!(cuts > 0, "{mode:?}: the session fired no timeouts");
        }
    }

    #[test]
    fn reset_record_replays_a_recovered_session() {
        for mode in [StreamMode::Single, StreamMode::PerShard] {
            let tasks = specs(200);
            let cfg = campaign();
            let serve = serve_config(3, 1_000_000);
            let buf = SharedBuf::new();
            let mut writer = JournalWriter::new(buf.clone(), SyncPolicy::Always);
            writer
                .append(&Record::Header(header_for(&tasks, &cfg, &serve, 7, mode)))
                .unwrap();
            let store = Store::new(&tasks, &cfg, &serve, 7, mode).unwrap();
            let mut js = JournaledStore::new(store, Some(writer));
            let mut held = 0u64;
            for i in 0..60 {
                let Issue::Work(a) = js.request_work() else {
                    panic!("drained too early");
                };
                if i % 2 == 0 {
                    js.return_result(a.task, a.copy).unwrap();
                } else {
                    held += 1;
                }
            }
            // Crash: the clients holding copies are gone.
            assert_eq!(js.reset_in_flight(), held);
            js.drain();
            js.note_shutdown();
            assert!(js.is_drained());
            assert!(js.error().is_none());
            let state = DrainState::of(&js);
            let replayed = replay(&buf.snapshot(), &tasks, &cfg).unwrap();
            assert_drain_equivalent(&DrainState::of(&replayed.store), &state);
            // And the recovered endpoint is the uninterrupted endpoint.
            let mut oracle = Store::new(&tasks, &cfg, &serve, 7, mode).unwrap();
            oracle.drain();
            assert_drain_equivalent(&DrainState::of(&oracle), &state);
        }
    }

    #[test]
    fn every_byte_flip_is_a_structured_error_or_detected_corruption() {
        let tasks = specs(12);
        let cfg = campaign();
        let serve = serve_config(2, 4);
        let (bytes, _) = journal_session(&tasks, &cfg, &serve, 3, StreamMode::Single);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x20;
            // Must never panic, and a flipped byte can never replay clean
            // (the chain covers every payload byte and the length prefix
            // misframes the chain itself).
            let err = replay(&corrupt, &tasks, &cfg)
                .err()
                .unwrap_or_else(|| panic!("byte flip at {pos} replayed without error"));
            let _ = err.to_string();
        }
        let ends = record_ends(&bytes);
        for cut in 0..bytes.len() {
            let err = match replay(&bytes[..cut], &tasks, &cfg) {
                Err(e) => e,
                Ok(_) => {
                    // Only a cut at an exact record boundary is a valid
                    // journal in its own right.
                    assert!(
                        ends.contains(&cut),
                        "non-boundary cut at {cut} replayed clean"
                    );
                    continue;
                }
            };
            let _ = err.to_string();
        }
    }

    #[test]
    fn sync_policies_stage_identical_bytes() {
        let tasks = specs(40);
        let cfg = campaign();
        let serve = serve_config(2, 1_000_000);
        let mut streams = Vec::new();
        for policy in [SyncPolicy::Always, SyncPolicy::Batch, SyncPolicy::Off] {
            let buf = SharedBuf::new();
            let mut writer = JournalWriter::new(buf.clone(), policy);
            writer
                .append(&Record::Header(header_for(
                    &tasks,
                    &cfg,
                    &serve,
                    5,
                    StreamMode::Single,
                )))
                .unwrap();
            let store = Store::new(&tasks, &cfg, &serve, 5, StreamMode::Single).unwrap();
            let mut js = JournaledStore::new(store, Some(writer));
            js.drain();
            js.note_shutdown();
            let (_store, writer) = js.finish().unwrap();
            let mut writer = writer.unwrap();
            writer.flush().unwrap();
            if policy == SyncPolicy::Always {
                assert!(writer.synced() >= writer.records());
            }
            streams.push(buf.snapshot());
        }
        assert_eq!(streams[0], streams[1], "batch staging changed the bytes");
        assert_eq!(streams[0], streams[2], "no-sync staging changed the bytes");
        let rep = replay(&streams[0], &tasks, &cfg).unwrap();
        assert!(rep.store.is_drained());
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        for (s, p) in [
            ("always", SyncPolicy::Always),
            ("batch", SyncPolicy::Batch),
            ("off", SyncPolicy::Off),
        ] {
            assert_eq!(s.parse::<SyncPolicy>().unwrap(), p);
            assert_eq!(p.to_string(), s);
        }
        assert!("fsync".parse::<SyncPolicy>().is_err());
    }

    #[test]
    fn wrong_workload_is_a_fingerprint_mismatch() {
        let tasks = specs(30);
        let cfg = campaign();
        let serve = serve_config(2, 1_000_000);
        let (bytes, _) = journal_session(&tasks, &cfg, &serve, 11, StreamMode::Single);
        let other = specs(31);
        match replay(&bytes, &other, &cfg) {
            Err(JournalError::WorkloadMismatch { expected, found }) => {
                assert_ne!(expected, found)
            }
            other => panic!("wrong workload gave {other:?}"),
        }
        let mut other_cfg = campaign();
        other_cfg.honest_error_rate = 0.25;
        assert!(matches!(
            replay(&bytes, &tasks, &other_cfg),
            Err(JournalError::WorkloadMismatch { .. })
        ));
    }

    #[test]
    fn structural_errors_are_structured() {
        // Empty stream.
        assert_eq!(
            parse_journal(&[], ReplayOptions::default()).unwrap_err(),
            JournalError::MissingHeader
        );
        // A chain-valid first record that is not a header.
        let buf = SharedBuf::new();
        let mut w = JournalWriter::new(buf.clone(), SyncPolicy::Always);
        w.append(&Record::TickIdle).unwrap();
        assert_eq!(
            parse_journal(&buf.snapshot(), ReplayOptions::default()).unwrap_err(),
            JournalError::MissingHeader
        );
        // Wrong magic under a valid chain: hand-frame the payload.
        let mut payload = vec![1u8];
        payload.extend_from_slice(b"XXXX");
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&[0u8; 33]);
        let mut framed = Vec::new();
        framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&chain_next(FNV_BASIS, &payload).to_le_bytes());
        assert_eq!(
            parse_journal(&framed, ReplayOptions::default()).unwrap_err(),
            JournalError::BadMagic
        );
        // Unknown tag under a valid chain.
        let payload = vec![99u8];
        let mut framed = Vec::new();
        framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&chain_next(FNV_BASIS, &payload).to_le_bytes());
        assert_eq!(
            parse_journal(&framed, ReplayOptions::default()).unwrap_err(),
            JournalError::UnknownTag { index: 0, tag: 99 }
        );
    }

    #[test]
    fn records_round_trip_through_encode_and_display() {
        let header = SessionHeader {
            seed: 42,
            shards: 3,
            mode: StreamMode::PerShard,
            timeout: 8,
            max_retries: 2,
            fingerprint: 0xdead_beef,
            total_tasks: 10,
        };
        let all = [
            Record::Header(header),
            Record::Issue { task: 7, copy: 1 },
            Record::TickIdle,
            Record::TickDrained,
            Record::Return { task: 7, copy: 1 },
            Record::TimeoutRequeue {
                timeouts: 2,
                lost: 1,
            },
            Record::Shutdown,
            Record::Reset { reverted: 5 },
        ];
        let buf = SharedBuf::new();
        let mut w = JournalWriter::new(buf.clone(), SyncPolicy::Always);
        for rec in &all {
            w.append(rec).unwrap();
        }
        let parsed = parse_journal(&buf.snapshot(), ReplayOptions::default()).unwrap();
        assert_eq!(parsed.records, all.to_vec());
        assert_eq!(parsed.header, header);
        assert!(!parsed.torn_tail);
        for rec in &all {
            assert!(!rec.to_string().is_empty());
        }
        assert!(all[0].to_string().contains("mode=per-shard"));
    }
}
