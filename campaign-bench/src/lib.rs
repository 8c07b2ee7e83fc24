//! Campaign benchmark: the Fig. 8 campaign, the reference self-check and
//! bundle reduction, measured end to end and, in a separate traced run,
//! layer by layer. See `README.md` for the workloads and metrics.
//!
//! The benchmark drives the workspace only through public entry points,
//! and checks every output against properties of the method (the fault
//! model, the construction oracle, Proposition 1), never against stored
//! output.

#![warn(missing_docs)]

pub mod fig8;
pub mod layers;
pub mod reduce;
pub mod selfcheck;
pub mod span;
pub mod supervisor;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The workloads, by the name the command line takes.
pub const WORKLOADS: [&str; 3] = ["fig8", "selfcheck", "reduce"];

/// How many times a run repeats a fixed set-up; `setup_s` is their median.
/// A set-up of a few tenths of a second varies by a fifth between runs on a
/// shared host, so one run takes many.
pub const SETUP_REPEATS: usize = 15;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_owned(), value, unit }
    }
}

/// What one run of a workload reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Check violations; the run is correct when this is empty.
    pub violations: Vec<String>,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.violations.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(out, r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#, m.name, m.unit);
        }
        out.push_str("}}");
        out
    }
}

/// Ends a traced run that passes its deadline with work in flight. It gets
/// the run's result from the units done so far, or an error when the
/// run's set-up had not ended, and ends the process.
///
/// A fused test can run for minutes when its solve escapes the solver's
/// budgets, and a solve cannot be interrupted, so only the owner of the
/// process can end such a run: the command's `main` provides this.
/// Untraced runs of the command need none: they measure in a worker
/// process ([`supervisor`]).
pub type CutOff = fn(Result<Outcome, String>) -> !;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measured work in an untraced run.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Campaign threads for `fig8` and the `reduce` set-up.
    pub threads: usize,
    /// `fig8` unit size (iterations, rounds) instead of the measured one,
    /// for profiling other campaign sizes by hand.
    pub fig8_size: Option<(usize, usize)>,
    /// How a traced run ends at its deadline; without one (library
    /// callers) there is no deadline and every unit runs to its end.
    pub cut_off: Option<CutOff>,
    /// Run as a worker of [`supervisor::supervise`] from this unit on.
    pub worker_from: Option<u64>,
}

impl Args {
    /// An untraced run of `workload` on `seed` at the defaults: 10 s,
    /// available parallelism, measured size, no deadline.
    pub fn new(workload: &str, seed: u64) -> Args {
        Args {
            workload: workload.to_owned(),
            seed,
            seconds: 10.0,
            trace: false,
            threads: nproc(),
            fig8_size: None,
            cut_off: None,
            worker_from: None,
        }
    }
}

/// Runs one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "fig8" => fig8::run(args, &fig8::Params::of(args)),
        "selfcheck" => selfcheck::run(args, &selfcheck::Params::FULL),
        "reduce" => reduce::run(args, &reduce::Params::full(args.threads)),
        other => Err(format!("unknown workload `{other}` (expected one of {WORKLOADS:?})")),
    }
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// SplitMix64's finalizer, the campaign's scheme for turning a seed and
/// an index into an independent stream seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Seed of a run's `unit`-th unit of work: the run's seed itself for the
/// first, fresh streams after it.
pub fn unit_seed(seed: u64, unit: u64) -> u64 {
    if unit == 0 {
        seed
    } else {
        mix64(seed ^ unit.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values` by rank (the interquartile mean):
/// a quarter of the values, rounded down, is dropped at either end.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Runs `setup` [`SETUP_REPEATS`] times — once in a worker that takes
/// over from a stopped one, whose set-up is not measured — and returns the
/// last result and the median CPU time of one repetition.
pub fn timed_setup<T>(args: &Args, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if args.worker_from.is_some_and(|k| k > 0) { 1 } else { SETUP_REPEATS };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..repeats {
        let watch = Stopwatch::start();
        last = Some(setup());
        times.push(watch.read().1);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Wall-clock limit of a run's set-up.
pub const SETUP_LIMIT: Duration = Duration::from_secs(60);

/// Wall-clock limit of a run's measured phase, counted from the end of its
/// set-up. An untraced run measures `seconds` of units, with checks
/// between them (half as long again) and 10 s for a unit in flight; a
/// traced run does fixed work, allowed two and a half times `seconds`.
pub fn measure_limit(args: &Args) -> Duration {
    let s = args.seconds;
    Duration::from_secs_f64(if args.trace { 2.5 * s } else { 1.5 * s + 10.0 })
}

/// What a traced run has done so far, shared with its watchdog.
struct Progress<T> {
    /// Whether set-up has ended.
    set_up: bool,
    /// Finished units; taken by whoever reports the run.
    units: Option<Vec<T>>,
    /// When the watchdog cuts the run off.
    deadline: Instant,
}

/// A traced run's work reports its progress here.
struct Sink<T> {
    shared: Arc<(Mutex<Progress<T>>, Condvar)>,
    measure_limit: Duration,
}

impl<T> Sink<T> {
    fn lock(&self) -> MutexGuard<'_, Progress<T>> {
        self.shared.0.lock().expect("no holder panics while holding the lock")
    }

    /// Ends the set-up and starts the units: their deadline is
    /// [`measure_limit`] from now.
    fn setup_done(&self) {
        let mut p = self.lock();
        p.set_up = true;
        p.deadline = Instant::now() + self.measure_limit;
        self.shared.1.notify_all();
    }

    /// Adds a finished unit.
    fn emit(&self, unit: T) {
        if let Some(units) = self.lock().units.as_mut() {
            units.push(unit);
        }
    }
}

/// Runs a traced run's `work` — set-up, then units — on this thread, and
/// reports it as `finish(units, finished)`.
///
/// With a cut-off (the command), one watchdog thread covers the whole
/// run: set-up must end within [`SETUP_LIMIT`] and the units within
/// [`measure_limit`] after it. At the deadline the watchdog takes the
/// units done so far and hands `finish(units, false)` to the cut-off,
/// which reports the run and ends the process; the unit in flight counts
/// as not done. A run whose set-up has not ended by then has nothing to
/// report, and the cut-off gets an error. Without a cut-off, `work` runs
/// to its end. The work itself stays on the calling thread: the solver
/// runs measurably slower on a spawned thread, whose allocations go to a
/// separate malloc arena.
fn run_until<T: Send + 'static>(
    args: &Args,
    work: impl FnOnce(&Sink<T>) -> Result<(), String>,
    finish: impl FnOnce(Vec<T>, bool) -> Outcome + Send + 'static,
) -> Result<Outcome, String> {
    let progress =
        Progress { set_up: false, units: Some(Vec::new()), deadline: Instant::now() + SETUP_LIMIT };
    let sink = Sink {
        shared: Arc::new((Mutex::new(progress), Condvar::new())),
        measure_limit: measure_limit(args),
    };
    let finish = Arc::new(Mutex::new(Some(finish)));
    let watchdog = args.cut_off.map(|cut_off| {
        let (shared, finish) = (Arc::clone(&sink.shared), Arc::clone(&finish));
        std::thread::spawn(move || {
            let (lock, wake) = &*shared;
            let mut p = lock.lock().expect("no holder panics while holding the lock");
            loop {
                if p.units.is_none() {
                    return; // The work ended and reports the run.
                }
                let left = p.deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                p = wake.wait_timeout(p, left).expect("no holder panics while holding the lock").0;
            }
            let units = p.units.take().unwrap_or_default();
            let set_up = p.set_up;
            drop(p);
            if !set_up {
                cut_off(Err(format!("set-up did not end within {} s", SETUP_LIMIT.as_secs())));
            }
            eprintln!("deadline passed with work in flight; it is counted as not done");
            let finish = finish.lock().expect("finish is taken whole").take();
            cut_off(Ok(finish.expect("finish runs once")(units, false)))
        })
    });
    let worked = work(&sink);
    let units = sink.lock().units.take();
    let Some(units) = units else {
        // The watchdog is reporting the run and ends the process.
        loop {
            std::thread::park();
        }
    };
    sink.shared.1.notify_all();
    if let Some(Err(panic)) = watchdog.map(std::thread::JoinHandle::join) {
        std::panic::resume_unwind(panic);
    }
    worked?;
    let finish = finish.lock().expect("finish is taken whole").take();
    Ok(finish.expect("finish runs once")(units, true))
}

/// Prints a run's check violations to stderr and its result line to
/// stdout.
pub fn report(outcome: &Outcome) {
    for v in &outcome.violations {
        eprintln!("check failed: {v}");
    }
    println!("{}", outcome.json_line());
}

/// Units per measured second that every untraced run completes at least,
/// however long they take (up to [`measure_limit`]), so that a run hit
/// by slow solves still has enough units for a steady mean.
pub const MIN_UNITS_PER_SECOND: f64 = 1.5;

/// Units an untraced run of `seconds` completes at least.
pub fn min_units(seconds: f64) -> u64 {
    (MIN_UNITS_PER_SECOND * seconds).ceil().max(1.0) as u64
}

/// An untraced run: `setup` once, which returns the units' shared state
/// and the set-up time, then `unit(state, k)` for k = 0, 1, ... until the
/// measured seconds of the units add up to `--seconds` and at least
/// [`min_units`] ran. Reports the units through [`end_to_end`]. Every
/// unit is whole, so a run attempts the same operations per unit whatever
/// its length. The command runs the units in a worker process
/// ([`supervisor`]); called in-process, as the smoke tests do, every unit
/// runs to its end.
pub fn measured_run<S>(
    args: &Args,
    setup: impl FnOnce() -> Result<(S, f64), String>,
    mut unit: impl FnMut(&S, u64) -> Done,
) -> Result<Outcome, String> {
    if let Some(first) = args.worker_from {
        return supervisor::serve(args, first, setup, unit);
    }
    let (state, setup_s) = setup()?;
    let (mut done, mut spent) = (Vec::new(), 0.0);
    while spent < args.seconds || (done.len() as u64) < min_units(args.seconds) {
        let d = unit(&state, done.len() as u64);
        spent += d.secs;
        done.push(d);
    }
    Ok(end_to_end(setup_s, done, true))
}

/// One measured unit of work.
#[derive(Debug, Clone, Default)]
pub struct Done {
    /// Operations the unit completed.
    pub ops: u64,
    /// Of those, operations with a decided, checked outcome.
    pub decided: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured wall seconds (checks excluded).
    pub secs: f64,
    /// CPU seconds of the process, all threads, over the same stretch.
    pub cpu: f64,
    /// Check violations.
    pub violations: Vec<String>,
    /// The unit passed [`supervisor::UNIT_CAP`] and was stopped.
    pub cut_off: bool,
}

/// The end-to-end metrics of an untraced run from its units:
/// `ops_per_cpu_s` is the interquartile mean over units of operations per
/// CPU second, with a unit stopped at the unit cap or cut off by the
/// deadline counted as rate 0; `decided_per_cpu_s` scales it by the run's
/// share of decided operations.
///
/// The rates are per CPU second, not per wall second, because on a shared
/// host the wall time of the same work drifts for minutes at a time: the
/// host lends the guest's CPUs to others (steal) and the campaign's
/// threads then wait longer at each round's barrier. Unit rates spread
/// widely, since a unit's time follows its slowest solves; the mean of
/// their middle half varies less from run to run than their median.
pub fn end_to_end(setup_s: f64, done: Vec<Done>, finished: bool) -> Outcome {
    let mut out = Outcome::default();
    let rate = |ops: u64, secs: f64| if secs > 0.0 { ops as f64 / secs } else { 0.0 };
    let mut rates: Vec<f64> = done.iter().map(|d| rate(d.ops, d.cpu)).collect();
    let mut wall_rates: Vec<f64> = done.iter().map(|d| rate(d.ops, d.secs)).collect();
    if !finished {
        rates.push(0.0);
        wall_rates.push(0.0);
    }
    let ops_per_cpu_s = interquartile_mean(&rates);
    let decided: u64 = done.iter().map(|d| d.decided).sum();
    let unit_secs: Vec<f64> = done.iter().map(|d| d.secs).collect();
    eprintln!(
        "{} units, {} stopped at the unit cap{}: unit seconds median {:.4}, max {:.3}; \
         interquartile mean of unit rates {:.2} per CPU second, {:.2} per wall second; \
         CPU / wall of the units not stopped {:.2}",
        done.len(),
        done.iter().filter(|d| d.cut_off).count(),
        if finished { "" } else { ", and one cut off by the deadline" },
        median(&unit_secs),
        unit_secs.iter().copied().fold(0.0, f64::max),
        ops_per_cpu_s,
        interquartile_mean(&wall_rates),
        done.iter().map(|d| d.cpu).sum::<f64>()
            / done.iter().filter(|d| !d.cut_off).map(|d| d.secs).sum::<f64>(),
    );
    for d in done {
        out.attempted += d.ops;
        out.failed += d.failed;
        out.violations.extend(d.violations);
    }
    out.metrics = vec![
        Metric::new("ops_per_cpu_s", ops_per_cpu_s, "ops/cpu-s"),
        Metric::new(
            "decided_per_cpu_s",
            ops_per_cpu_s * decided as f64 / out.attempted.max(1) as f64,
            "ops/cpu-s",
        ),
        Metric::new("setup_s", setup_s, "s"),
    ];
    out
}

/// `struct timespec` of the C library on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux's clock of the CPU time of the calling process, all its threads
/// included, ended ones too.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) the process has used, all threads
/// included, to the nanosecond. Time the host lends to other guests
/// (steal) and time spent waiting are not in it.
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, writable `Timespec` of the C layout.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return 0.0;
    }
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// Wall and CPU time of a stretch of work.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch { wall: Instant::now(), cpu: cpu_seconds() }
    }

    /// Wall seconds and CPU seconds since the start.
    pub fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// Where runs write their scratch files and traces: `out/` beside this
/// package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The scratch directory of the process `pid`, under [`out_dir`].
pub fn scratch_dir_of(pid: u32) -> PathBuf {
    out_dir().join(format!("scratch-{pid}"))
}

/// This process's scratch directory.
pub fn scratch_dir() -> PathBuf {
    scratch_dir_of(std::process::id())
}

/// A traced run: `setup` once (not timed), then `units` units of
/// `unit(state, k)`, each the program's call and the same work repeated
/// from the benchmark's code without and with spans. Writes the spans to
/// `out/trace-<workload>-<seed>.jsonl`, prints a per-span summary and the
/// tracing overhead to stderr, and reports the per-layer metrics. A unit
/// still running at the deadline is left out.
pub fn traced_run<S>(
    args: &Args,
    units: u64,
    setup: impl FnOnce() -> Result<S, String>,
    mut unit: impl FnMut(&S, u64) -> layers::Traced,
) -> Result<Outcome, String> {
    let (workload, seed) = (args.workload.clone(), args.seed);
    run_until(
        args,
        |sink| {
            let state = setup()?;
            sink.setup_done();
            for k in 0..units {
                sink.emit(unit(&state, k));
            }
            Ok(())
        },
        move |parts, finished| {
            let done = parts.len();
            let mut total = layers::Traced::default();
            for part in parts {
                total.add(part);
            }
            eprintln!(
                "{workload} seed {seed}: {done} of {units} traced units{}; program {:.3} s; \
                 repetition untraced {:.3} s, traced {:.3} s (tracing overhead {:+.1}%); \
                 program CPU {:.2} s, idle {:.2} s",
                if finished { "" } else { " (the rest passed the time limit)" },
                total.program_s,
                total.untraced_s,
                total.traced_s,
                100.0 * (total.traced_s / total.untraced_s - 1.0),
                total.cpu_s,
                total.idle_s,
            );
            let path = out_dir().join(format!("trace-{workload}-{seed}.jsonl"));
            if let Err(e) = span::write_jsonl(&path, &total.spans) {
                eprintln!("campaign-bench: could not write {}: {e}", path.display());
            }
            eprint!("{}", layers::describe(&total.spans, total.traced_s));
            eprintln!("spans written to {}", path.display());
            let metrics = layers::per_layer_metrics(&total);
            Outcome {
                attempted: total.attempted,
                failed: total.failed,
                violations: total.violations,
                metrics,
            }
        },
    )
}

/// Order-preserving parallel map over `threads` scoped workers: each
/// worker takes the next unclaimed index, so a straggler holds up only
/// its own thread until the batch ends.
pub fn parallel_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                *results[i].lock().expect("each slot is written once") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("no worker panicked").expect("every item ran"))
        .collect()
}
