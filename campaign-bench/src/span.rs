//! In-memory span recorder for the traced mode.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public function: name, optional tag (the Fig. 7 benchmark of a solve),
//! job id, thread, start, end and parent. Spans stay in memory until the
//! run ends ([`take`]), so recording costs one clock read at each end plus
//! one short lock. With recording off, [`span`] reads no clock at all, so
//! untraced runs share the traced code path at no cost.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static JOB: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn sink() -> &'static Mutex<Vec<Span>> {
    static SINK: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: u64,
    /// The span open on this thread (or adopted from the spawning thread)
    /// when this one opened.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `solver` or `smtlib.parse`.
    pub name: &'static str,
    /// Free-form qualifier; solver spans carry their Fig. 7 benchmark.
    pub tag: &'static str,
    /// The job (fused test or finding) the span worked for.
    pub job: u64,
    /// Recording thread, numbered in first-use order.
    pub thread: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Inclusive duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// Runs `f` with recording on, and returns its result with the spans
/// recorded meanwhile. Only one phase records at a time.
pub fn recording<R>(f: impl FnOnce() -> R) -> (R, Vec<Span>) {
    set_enabled(true);
    let out = f();
    set_enabled(false);
    (out, take())
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<Open>,
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    tag: &'static str,
    start: Instant,
}

/// Opens a span named `name`.
pub fn span(name: &'static str) -> Guard {
    tagged(name, "")
}

/// Opens a span named `name` with a tag.
pub fn tagged(name: &'static str, tag: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard { open: Some(Open { id, parent, name, tag, start: Instant::now() }) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&open.id) {
                s.pop();
            }
        });
        let base = epoch();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            tag: open.tag,
            job: JOB.with(Cell::get),
            thread: THREAD.with(|t| *t),
            start_ns: open.start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
        };
        // A poisoned sink only means another recording thread panicked;
        // the spans already in it are still whole.
        sink().lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// The innermost open span on this thread, to hand to worker threads.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Runs `f` on this thread as if `parent` were open here and `job` were
/// the current job, so spans opened on a worker thread link back to the
/// span that spawned the work.
pub fn within<R>(parent: Option<u64>, job: u64, f: impl FnOnce() -> R) -> R {
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let depth = s.len();
        s.extend(parent);
        depth
    });
    let previous = JOB.with(|j| j.replace(job));
    let out = f();
    JOB.with(|j| j.set(previous));
    STACK.with(|s| s.borrow_mut().truncate(depth));
    out
}

/// Removes and returns every span recorded so far, in opening order.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *sink().lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval that child spans cover. Children of one parent may run on
/// several threads at once, so covered time is the union of their
/// intervals, not their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{parent},"name":"{}","tag":"{}","job":{},"thread":{},"start_ns":{},"end_ns":{}}}"#,
            s.id, s.name, s.tag, s.job, s.thread, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", tag: "", job: 0, thread: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        // Two overlapping children (parallel workers) cover [10, 40) of
        // the parent's [0, 100); a grandchild does not count against the
        // root.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(2), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![70, 18, 20, 2]);
    }
}
