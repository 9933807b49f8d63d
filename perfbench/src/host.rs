//! The traced in-process host: `redundancy serve`'s daemon stack rebuilt
//! from the program's public API, with spans around each layer's calls.
//!
//! It mirrors the CLI's private serve backend: the single-stream store and
//! every journaled store sit behind one `Mutex<JournaledStore<…>>`, the
//! unjournaled per-shard store is used bare, and the io loop is the public
//! `serve_readiness_loop` in daemon mode.  [`Spanned`] wraps a store in a
//! spanning `WorkStore` impl and [`SpanSink`] wraps the journal file in a
//! spanning `JournalSink` impl.

use std::fs::File;
use std::io::{self, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Mutex;

use redundancy_sim::serve::{
    handle_request, serve_readiness_loop, workload_fingerprint, ConcurrentStore, Issue,
    JournalSink, JournalWriter, JournaledStore, LoopOptions, Record, ReturnAck, ServeError,
    ServeStats, SessionHeader, StoreEnum, StreamMode, SyncPolicy, WorkStore,
};
use redundancy_sim::{CampaignOutcome, TaskId};
use redundancy_stats::DeterministicRng;

use crate::client::{drive, Conn, Drive, Volunteer};
use crate::serve::{Inputs, Shape};
use crate::trace::{self, Name};

/// A store whose issue and return calls are spans.
pub struct Spanned<S> {
    inner: S,
    work: Name,
    ret: Name,
}

impl<S> Spanned<S> {
    /// Span `inner` as the store layer.
    pub fn store(inner: S) -> Self {
        Spanned {
            inner,
            work: Name::StoreRequestWork,
            ret: Name::StoreReturnResult,
        }
    }

    /// Span `inner` as the journal layer.
    pub fn journal(inner: S) -> Self {
        Spanned {
            inner,
            work: Name::JournalRequestWork,
            ret: Name::JournalReturnResult,
        }
    }
}

impl<S: WorkStore> WorkStore for Spanned<S> {
    fn request_work(&mut self) -> Issue {
        let _s = trace::span(self.work);
        self.inner.request_work()
    }

    fn return_result(&mut self, task: TaskId, copy: u32) -> Result<ReturnAck, ServeError> {
        let _s = trace::span(self.ret);
        self.inner.return_result(task, copy)
    }

    fn stats(&self) -> ServeStats {
        self.inner.stats()
    }

    fn merged_outcome(&self) -> CampaignOutcome {
        self.inner.merged_outcome()
    }

    fn final_rngs(&self) -> Vec<DeterministicRng> {
        self.inner.final_rngs()
    }

    fn is_drained(&self) -> bool {
        self.inner.is_drained()
    }

    fn expiry_counters(&self) -> (u64, u64) {
        self.inner.expiry_counters()
    }

    fn reset_in_flight(&mut self) -> u64 {
        self.inner.reset_in_flight()
    }

    fn note_shutdown(&mut self) {
        self.inner.note_shutdown()
    }
}

/// A journal sink whose writes, flushes and fsyncs are spans.
pub struct SpanSink<K>(pub K);

impl<K: Write> Write for SpanSink<K> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let _s = trace::span(Name::JournalWrite);
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        let _s = trace::span(Name::JournalFlush);
        self.0.flush()
    }
}

impl<K: JournalSink> JournalSink for SpanSink<K> {
    fn sync(&mut self) -> io::Result<()> {
        let _s = trace::span(Name::JournalSync);
        self.0.sync()
    }
}

type Locked = Mutex<JournaledStore<Spanned<StoreEnum>>>;
type Journaled = Mutex<Spanned<JournaledStore<Spanned<StoreEnum>>>>;

/// The serve backend, as the CLI assembles it for each workload shape.
enum Backend {
    /// Single-stream store, unjournaled, behind the session lock.
    Locked(Locked),
    /// Any store behind a journal, behind the session lock.
    Journaled(Journaled),
    /// The per-shard store on its own shard locks.
    Concurrent(ConcurrentStore),
}

impl Backend {
    fn build(
        shape: &Shape,
        inputs: &Inputs,
        seed: u64,
        journal: Option<&Path>,
    ) -> io::Result<Self> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
        let mode = if shape.per_shard {
            StreamMode::PerShard
        } else {
            StreamMode::Single
        };
        let serve = shape.serve_config();
        if let Some(path) = journal {
            let mut writer = JournalWriter::new(SpanSink(File::create(path)?), SyncPolicy::Off);
            writer.append(&Record::Header(SessionHeader {
                seed,
                shards: serve.shards as u32,
                mode,
                timeout: serve.faults.timeout,
                max_retries: serve.faults.max_retries,
                fingerprint: workload_fingerprint(&inputs.specs, &inputs.campaign),
                total_tasks: inputs.specs.len() as u64,
            }))?;
            let store = StoreEnum::new(&inputs.specs, &inputs.campaign, &serve, seed, mode)
                .map_err(invalid)?;
            let js = JournaledStore::new(Spanned::store(store), Some(writer));
            return Ok(Backend::Journaled(Mutex::new(Spanned::journal(js))));
        }
        Ok(match mode {
            StreamMode::Single => {
                let store = StoreEnum::new(&inputs.specs, &inputs.campaign, &serve, seed, mode)
                    .map_err(invalid)?;
                Backend::Locked(Mutex::new(JournaledStore::new(Spanned::store(store), None)))
            }
            StreamMode::PerShard => Backend::Concurrent(
                ConcurrentStore::new(&inputs.specs, &inputs.campaign, &serve, seed)
                    .map_err(invalid)?,
            ),
        })
    }

    fn handle(&self, request: &str, reply: &mut String) -> bool {
        let _s = trace::request_span(Name::Handle);
        match self {
            Backend::Locked(m) => {
                handle_request(&mut *m.lock().expect("host store poisoned"), request, reply)
            }
            Backend::Journaled(m) => {
                handle_request(&mut *m.lock().expect("host store poisoned"), request, reply)
            }
            Backend::Concurrent(c) => handle_request(&mut Spanned::store(c), request, reply),
        }
    }

    /// Flush the journal, if any, and report a failed append.
    fn finish(self) -> Result<(), String> {
        if let Backend::Journaled(m) = self {
            let js = m.into_inner().map_err(|_| "host store poisoned")?.inner;
            js.finish().map_err(|e| format!("host journal: {e}"))?;
        }
        Ok(())
    }
}

/// What one host session measured.
pub struct HostSession {
    /// The closed-loop drive.
    pub drive: Drive,
    /// The `stats` reply after the drain.
    pub stats: String,
}

/// Serve one drain of `shape` from the in-process host: build the
/// backend, run the readiness loop on a second thread, drive it with the
/// same generator as the daemon workloads, then `stats` and `shutdown`.
/// The loop's thread inherits the calling thread's CPUs.
pub fn session(
    shape: &Shape,
    inputs: &Inputs,
    seed: u64,
    journal: Option<&Path>,
) -> Result<HostSession, String> {
    let backend = {
        let _s = trace::span(Name::StoreInit);
        Backend::build(shape, inputs, seed, journal).map_err(|e| format!("host store: {e}"))?
    };
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("host bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let opts = LoopOptions {
        expected_clients: None,
    };
    let outcome = std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_readiness_loop(listener, opts, |req, reply| backend.handle(req, reply))
        });
        let client = (|| -> Result<HostSession, String> {
            let mut conns = (0..shape.conns)
                .map(|_| Conn::connect(addr))
                .collect::<io::Result<Vec<_>>>()
                .map_err(|e| format!("host connect: {e}"))?;
            let io = |e: io::Error| format!("host: {e}");
            conns[0].call("stats").map_err(io)?;
            let mut volunteer = Volunteer::new(seed, shape.abandon_one_in);
            let drive = drive(&mut conns, shape.depth, &mut volunteer);
            let stats = conns[0].call("stats").map_err(io)?;
            Ok(HostSession { drive, stats })
        })();
        // Stop the loop on every path, or the scope would never end.
        let bye = Conn::connect(addr).and_then(|mut c| c.call("shutdown"));
        let served = server.join().expect("host io loop panicked");
        let session = client?;
        if !bye.as_ref().is_ok_and(|b| b == "bye") {
            return Err(format!("host shutdown: {bye:?}"));
        }
        served.map_err(|e| format!("host io loop: {e}"))?;
        Ok(session)
    });
    backend.finish()?;
    outcome
}
