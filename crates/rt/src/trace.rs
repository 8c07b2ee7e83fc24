//! Span-based structured tracing over [`crate::metrics`], replacing the
//! `tracing` crate for the campaign and solver stages.
//!
//! A [`Span`] (usually created via the [`span!`](crate::span) macro) is an
//! RAII guard: on drop it records its duration into the histogram
//! `span.<name>` and — when capture is on — buffers a [`TraceEvent`] that
//! the campaign driver later drains with [`take_events`] and writes as one
//! JSON line per event ([`emit_events`]).
//!
//! ## Replay-safe timing policy
//!
//! The campaign's bit-reproducibility guarantee (same `--seed` ⇒
//! byte-identical report, across thread counts) forbids wall-clock
//! timestamps anywhere near report bytes. The default [`TimeMode::Ticks`]
//! therefore runs a *virtual clock*: a thread-local counter that advances
//! only when instrumented code calls [`now`] or declares progress via
//! [`work`]. Span durations are then deterministic functions of the work
//! performed — identical across runs, machines, and thread counts. Real
//! wall-clock spans (microseconds) are an explicit opt-in via
//! [`TimeMode::Wall`] (`--wallclock` on the CLI) and only belong in output
//! that is never byte-compared. Events deliberately carry durations but
//! not start timestamps: absolute tick values depend on which pool thread
//! ran which job, durations do not.
//!
//! [`Stopwatch`] is the one sanctioned wall-clock escape hatch, for
//! stderr-only output like the campaign heartbeat.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::{Json, ToJson};
use crate::metrics;

/// Clock source for spans; see the module docs for the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeMode {
    /// Deterministic virtual clock (default): [`now`] and [`work`] advance
    /// a thread-local tick counter.
    Ticks,
    /// Microseconds of real wall clock since process start. Breaks replay;
    /// opt-in only.
    Wall,
}

static MODE: AtomicU8 = AtomicU8::new(0);
static CAPTURE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static EVENTS: std::cell::RefCell<Vec<TraceEvent>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Names of the spans currently open on this thread, outermost first.
    /// RAII guarantees proper nesting, so a span's ancestry at drop time is
    /// exactly this stack — which is how events learn their tree path.
    static STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Selects the clock source for all subsequent spans (process-wide).
pub fn set_time_mode(mode: TimeMode) {
    MODE.store(matches!(mode, TimeMode::Wall) as u8, Ordering::SeqCst);
}

/// The current clock source.
pub fn time_mode() -> TimeMode {
    if MODE.load(Ordering::Relaxed) == 0 {
        TimeMode::Ticks
    } else {
        TimeMode::Wall
    }
}

/// Unit label matching [`time_mode`]: `"ticks"` or `"us"`.
pub fn unit() -> &'static str {
    match time_mode() {
        TimeMode::Ticks => "ticks",
        TimeMode::Wall => "us",
    }
}

/// Current time in the active clock. In tick mode each call also advances
/// the thread-local counter by one, so consecutive reads never tie.
pub fn now() -> u64 {
    match time_mode() {
        TimeMode::Ticks => TICKS.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        }),
        TimeMode::Wall => process_start().elapsed().as_micros() as u64,
    }
}

/// Declares `amount` units of work, advancing the virtual clock so that
/// enclosing spans measure it. A no-op in wall mode (real time already
/// passed). Instrumented hot loops call this with their iteration or
/// conflict counts.
pub fn work(amount: u64) {
    if time_mode() == TimeMode::Ticks {
        TICKS.with(|t| t.set(t.get().wrapping_add(amount)));
    }
}

/// Turns event capture on or off. Off (the default), spans still feed
/// histograms but allocate no events.
pub fn set_capture(enabled: bool) {
    CAPTURE.store(enabled, Ordering::SeqCst);
}

/// Whether spans currently buffer [`TraceEvent`]s.
pub fn capture_enabled() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

/// One completed span: name, tree path, duration in the active clock's
/// unit, and any `key = value` fields attached at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name as given to [`span!`](crate::span).
    pub name: String,
    /// `/`-joined names of the span's ancestors plus itself (e.g.
    /// `"solve/strings.search"`), recording where in the span tree the
    /// event fired. Always ends in `name`.
    pub path: String,
    /// Duration in [`unit`] units.
    pub dur: u64,
    /// Call-site fields, stringified, in declaration order.
    pub fields: Vec<(String, String)>,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("span".to_owned(), Json::Str(self.name.clone())),
            ("path".to_owned(), Json::Str(self.path.clone())),
            ("dur".to_owned(), Json::Int(self.dur as i64)),
            ("unit".to_owned(), Json::Str(unit().to_owned())),
        ];
        for (k, v) in &self.fields {
            members.push((k.clone(), Json::Str(v.clone())));
        }
        Json::Obj(members)
    }
}

impl crate::json::FromJson for TraceEvent {
    fn from_json(json: &Json) -> Result<TraceEvent, crate::json::JsonError> {
        let err = |message: String| crate::json::JsonError { pos: 0, message };
        let members = json.as_obj().ok_or_else(|| err("trace event: want an object".to_owned()))?;
        let mut event =
            TraceEvent { name: String::new(), path: String::new(), dur: 0, fields: Vec::new() };
        let mut have = (false, false, false);
        for (key, value) in members {
            match key.as_str() {
                "span" => {
                    event.name = value
                        .as_str()
                        .ok_or_else(|| err("trace event: `span` wants a string".to_owned()))?
                        .to_owned();
                    have.0 = true;
                }
                "path" => {
                    event.path = value
                        .as_str()
                        .ok_or_else(|| err("trace event: `path` wants a string".to_owned()))?
                        .to_owned();
                    have.1 = true;
                }
                "dur" => {
                    let dur = value.as_i64().filter(|d| *d >= 0).ok_or_else(|| {
                        err("trace event: `dur` wants a non-negative int".to_owned())
                    })?;
                    event.dur = dur as u64;
                    have.2 = true;
                }
                // The clock label is re-derived from the active mode on
                // every serialization, not round-tripped.
                "unit" => {}
                _ => {
                    let text = value
                        .as_str()
                        .ok_or_else(|| err(format!("trace event: field `{key}` wants a string")))?;
                    event.fields.push((key.clone(), text.to_owned()));
                }
            }
        }
        if have != (true, true, true) {
            return Err(err("trace event: missing span/path/dur".to_owned()));
        }
        Ok(event)
    }
}

/// RAII span guard; create via [`span!`](crate::span). On drop, records
/// `span.<name>` into the metrics registry and, when capture is on,
/// buffers a [`TraceEvent`] on this thread.
pub struct Span {
    name: &'static str,
    start: u64,
    fields: Vec<(String, String)>,
}

impl Span {
    /// Opens a span with no fields.
    pub fn enter(name: &'static str) -> Span {
        STACK.with(|s| s.borrow_mut().push(name));
        Span { name, start: now(), fields: Vec::new() }
    }

    /// Opens a span carrying call-site fields (only worth paying for when
    /// [`capture_enabled`] — the macro checks).
    pub fn enter_with(name: &'static str, fields: Vec<(String, String)>) -> Span {
        STACK.with(|s| s.borrow_mut().push(name));
        Span { name, start: now(), fields }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = now().saturating_sub(self.start);
        metrics::histogram_record(&format!("span.{}", self.name), dur);
        if capture_enabled() {
            // The stack still includes this span, so its contents *are*
            // the event's path (ancestors, outermost first, then self).
            let path = STACK.with(|s| s.borrow().join("/"));
            let event = TraceEvent {
                name: self.name.to_owned(),
                path,
                dur,
                fields: std::mem::take(&mut self.fields),
            };
            EVENTS.with(|e| e.borrow_mut().push(event));
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // RAII spans nest, so this is the top; pop defensively anyway.
            if let Some(at) = stack.iter().rposition(|n| *n == self.name) {
                stack.remove(at);
            }
        });
    }
}

/// Opens a [`Span`] guard; timing stops when the guard drops.
///
/// ```
/// let _span = yinyang_rt::span!("solve");
/// let _span = yinyang_rt::span!("fuse", seed = 42, oracle = "sat");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::trace::capture_enabled() {
            $crate::trace::Span::enter_with(
                $name,
                vec![$((stringify!($key).to_owned(), $value.to_string())),+],
            )
        } else {
            $crate::trace::Span::enter($name)
        }
    };
}

/// Drains this thread's buffered events, oldest first. The campaign
/// worker calls this at the end of each job so the driver can merge
/// per-job event lists in input order (deterministic regardless of which
/// thread ran which job).
pub fn take_events() -> Vec<TraceEvent> {
    EVENTS.with(|e| std::mem::take(&mut *e.borrow_mut()))
}

fn writer() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static WRITER: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    WRITER.get_or_init(|| Mutex::new(None))
}

/// Installs (or, with `None`, removes) the JSON-lines sink used by
/// [`emit_events`]. The CLI points this at the `--trace <file>` target.
pub fn set_writer(sink: Option<Box<dyn Write + Send>>) {
    *writer().lock().expect("trace writer lock") = sink;
}

/// Writes each event as one compact JSON line to the installed sink, in
/// the order given. Silently does nothing without a sink.
pub fn emit_events(events: &[TraceEvent]) {
    let mut guard = writer().lock().expect("trace writer lock");
    if let Some(sink) = guard.as_mut() {
        for event in events {
            let _ = writeln!(sink, "{}", event.to_json().compact());
        }
        let _ = sink.flush();
    }
}

/// A real wall-clock stopwatch for stderr-only output (heartbeats,
/// throughput experiments). Never use it for anything that lands in a
/// report: see the module docs on replay safety.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Seconds elapsed since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_spans_measure_declared_work() {
        set_time_mode(TimeMode::Ticks);
        let t0 = local_span_dur(|| work(10));
        // enter's now() consumes one tick, the closing now() reads after
        // +10, so dur = 10 + 1 (the start tick itself).
        assert_eq!(t0, 11);
        let t1 = local_span_dur(|| {});
        assert_eq!(t1, 1);
    }

    fn local_span_dur(body: impl FnOnce()) -> u64 {
        let start = now();
        body();
        now().saturating_sub(start)
    }

    #[test]
    fn capture_buffers_and_drains_events() {
        set_time_mode(TimeMode::Ticks);
        set_capture(true);
        {
            let _s = crate::span!("test.capture", idx = 3);
        }
        let events = take_events();
        set_capture(false);
        let ours: Vec<_> = events.iter().filter(|e| e.name == "test.capture").collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].fields, vec![("idx".to_owned(), "3".to_owned())]);
        assert!(take_events().iter().all(|e| e.name != "test.capture"));
    }

    #[test]
    fn events_render_as_single_json_lines() {
        set_time_mode(TimeMode::Ticks);
        let event = TraceEvent {
            name: "solve".into(),
            path: "solve".into(),
            dur: 42,
            fields: vec![("oracle".into(), "sat".into())],
        };
        let line = event.to_json().compact();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("span").and_then(Json::as_str), Some("solve"));
        assert_eq!(parsed.get("path").and_then(Json::as_str), Some("solve"));
        assert_eq!(parsed.get("dur").and_then(Json::as_i64), Some(42));
        assert_eq!(parsed.get("unit").and_then(Json::as_str), Some("ticks"));
        assert_eq!(parsed.get("oracle").and_then(Json::as_str), Some("sat"));
    }

    #[test]
    fn nested_spans_record_their_tree_path() {
        set_time_mode(TimeMode::Ticks);
        set_capture(true);
        {
            let _outer = crate::span!("test.outer");
            {
                let _inner = crate::span!("test.inner");
                work(3);
            }
        }
        let events = take_events();
        set_capture(false);
        let inner = events.iter().find(|e| e.name == "test.inner").expect("inner event");
        assert_eq!(inner.path, "test.outer/test.inner");
        let outer = events.iter().find(|e| e.name == "test.outer").expect("outer event");
        assert_eq!(outer.path, "test.outer");
        // Children drop (and buffer) before their parents.
        let inner_at = events.iter().position(|e| e.name == "test.inner").unwrap();
        let outer_at = events.iter().position(|e| e.name == "test.outer").unwrap();
        assert!(inner_at < outer_at);
    }

    #[test]
    fn span_durations_feed_metrics_histograms() {
        set_time_mode(TimeMode::Ticks);
        let before = metrics::local_snapshot();
        {
            let _s = crate::span!("test.hist.feed");
            work(7);
        }
        let d = metrics::local_snapshot().delta(&before);
        let h = &d.histograms["span.test.hist.feed"];
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 8); // 7 declared + the start tick
    }
}
