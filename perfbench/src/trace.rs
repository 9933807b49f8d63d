//! Spans recorded around calls into the program's public functions.
//!
//! A span is (name, start, end, parent, request id).  Spans are kept in
//! memory while a traced run executes and written out when it ends.  A
//! span's parent is the innermost span still open on the same thread when
//! it started, so nested wrapper calls form a tree without the program's
//! help.  Recording is off unless [`set_enabled`] turned it on, so the
//! untraced runs pay one relaxed atomic load per span site.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a span was taken.  Names are `layer.call`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Name {
    /// The io loop's call of the request handler (`handle_request`).
    Handle,
    /// `WorkStore::request_work` on the store itself.
    StoreRequestWork,
    /// `WorkStore::return_result` on the store itself.
    StoreReturnResult,
    /// A store constructor.
    StoreInit,
    /// `WorkStore::request_work` on the journaling wrapper.
    JournalRequestWork,
    /// `WorkStore::return_result` on the journaling wrapper.
    JournalReturnResult,
    /// `Write::write` on the journal sink.
    JournalWrite,
    /// `Write::flush` on the journal sink.
    JournalFlush,
    /// `JournalSink::sync` (fsync) on the journal sink.
    JournalSync,
    /// `replay_with` over a finished journal.
    JournalReplay,
    /// `run_campaign_with_scratch` inside the trial closure.
    Campaign,
    /// `RealizedPlan::balanced` followed by `expand_plan`.
    PlanBuild,
}

impl Name {
    /// The span's printed name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Handle => "protocol.handle_request",
            Name::StoreRequestWork => "store.request_work",
            Name::StoreReturnResult => "store.return_result",
            Name::StoreInit => "store.init",
            Name::JournalRequestWork => "journal.request_work",
            Name::JournalReturnResult => "journal.return_result",
            Name::JournalWrite => "journal.write",
            Name::JournalFlush => "journal.flush",
            Name::JournalSync => "journal.sync",
            Name::JournalReplay => "journal.replay",
            Name::Campaign => "engine.campaign",
            Name::PlanBuild => "plan.build",
        }
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished span.  Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, in opening order.
    pub id: u32,
    /// The enclosing span's id, or [`NO_PARENT`].
    pub parent: u32,
    /// What was called.
    pub name: Name,
    /// The request this span served (0 outside request handling).
    pub request: u32,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Wall-clock length in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static NEXT_REQUEST: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// The request the current thread is serving.
    static REQUEST: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take every span recorded so far, in closing order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span log poisoned"))
}

/// An open span; it is recorded when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    open: Option<(u32, u32, Name, u64, u32)>,
}

/// Open a span named `name` on this thread.  Inert while recording is off.
pub fn span(name: Name) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied().unwrap_or(NO_PARENT);
        o.push(id);
        parent
    });
    let request = REQUEST.with(Cell::get);
    Guard {
        open: Some((id, parent, name, now_ns(), request)),
    }
}

/// Open a span that starts a new request: it and every span nested in it
/// carry a fresh request id.
pub fn request_span(name: Name) -> Guard {
    if enabled() {
        REQUEST.with(|r| r.set(NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)));
    }
    span(name)
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start, request)) = self.open.take() else {
            return;
        };
        let end = now_ns();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        if parent == NO_PARENT {
            REQUEST.with(|r| r.set(0));
        }
        // Drop must not panic: a poisoned log only loses this span.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id,
                parent,
                name,
                request,
                start,
                end,
            });
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_within(c, s.start, s.end));
            (s.id, s.duration().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Write spans as tab-separated lines (`id parent name request start end`).
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            s.id,
            s.name.as_str(),
            s.request,
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: Name::Handle,
            request: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0: [0, 100] has children 1: [10, 40] and 2: [50, 90];
        // 1 has child 3: [20, 30], which must not be charged to 0 twice.
        let spans = [
            fixed(3, 1, 20, 30),
            fixed(1, 0, 10, 40),
            fixed(2, 0, 50, 90),
            fixed(0, NO_PARENT, 0, 100),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 30 - 40);
        assert_eq!(st[&1], 30 - 10);
        assert_eq!(st[&2], 40);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            fixed(1, 0, 10, 50),
            fixed(2, 0, 30, 70),
            fixed(3, 0, 90, 130),
            fixed(0, NO_PARENT, 0, 100),
        ];
        // Children cover [10, 70] and [90, 100]: 70 of the 100.
        assert_eq!(self_times(&spans)[&0], 30);
    }

    #[test]
    fn guards_nest_into_a_tree_with_request_ids() {
        set_enabled(true);
        {
            let _outer = request_span(Name::Handle);
            let _inner = span(Name::StoreRequestWork);
        }
        set_enabled(false);
        let spans = take();
        let outer = spans.iter().find(|s| s.name == Name::Handle).unwrap();
        let inner = spans
            .iter()
            .find(|s| s.name == Name::StoreRequestWork)
            .unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, NO_PARENT);
        assert_ne!(outer.request, 0);
        assert_eq!(inner.request, outer.request);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let _off = span(Name::Handle);
        drop(_off);
        assert!(take().is_empty(), "disabled spans are not recorded");
    }
}
