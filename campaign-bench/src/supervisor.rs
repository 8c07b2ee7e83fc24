//! Untraced runs of the command: the units run in a worker process, which
//! the command stops when a unit passes [`UNIT_CAP`].
//!
//! A fused test can run for seconds to minutes when its solve escapes the
//! solver's budgets, and a solve cannot be interrupted inside a process.
//! Run in the measuring process, one such solve holds up a whole run. So
//! the command starts a worker — its own executable with `--worker <k>` —
//! that sets up, prints its set-up time, then runs units `k`, `k + 1`, ...
//! and prints one line per unit. When no line comes within the cap, the
//! command stops the worker, counts the unit as rate 0, and starts a new
//! worker at the next unit. Every unit keeps its seed whichever worker
//! runs it, so a run's inputs still follow from `--seed` alone.

use crate::{end_to_end, measure_limit, min_units, Args, Done, Outcome, SETUP_LIMIT};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use yinyang_rt::json::Json;

/// How long a unit, its checks included, may take before its worker is
/// stopped: about three times a typical `fig8` unit with its checks. A
/// stopped unit counts as rate 0 and the cap towards the measured time,
/// so a lower cap leaves more of a run's time to the other units. It
/// stops up to a fifth of a `fig8` run's units, which all lie far below
/// the middle half of the unit rates that the metrics average.
pub const UNIT_CAP: Duration = Duration::from_secs(2);

/// A worker process and the lines it prints.
struct Worker {
    child: Child,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

enum Next {
    Line(String),
    Timeout,
    Closed,
}

impl Worker {
    fn spawn(exe: &Path, args: &Args, first: u64) -> Result<Worker, String> {
        let mut command = Command::new(exe);
        command
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .args(["--threads", &args.threads.to_string(), "--worker", &first.to_string()]);
        if let Some((iterations, rounds)) = args.fig8_size {
            command.args(["--iterations", &iterations.to_string()]);
            command.args(["--rounds", &rounds.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start a worker from {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Worker { child, lines, reader: Some(reader) })
    }

    fn next(&self, timeout: Duration) -> Next {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => Next::Line(line),
            Err(RecvTimeoutError::Timeout) => Next::Timeout,
            Err(RecvTimeoutError::Disconnected) => Next::Closed,
        }
    }

    /// Waits for the worker's set-up line and returns its set-up time.
    fn setup_s(&self, limit: Duration) -> Result<f64, String> {
        match self.next(limit) {
            Next::Line(line) => Json::parse(&line)
                .ok()
                .and_then(|j| j.get("setup_s").and_then(Json::as_f64))
                .ok_or_else(|| format!("worker printed {line:?} instead of its set-up time")),
            Next::Timeout => Err(format!("set-up did not end within {} s", limit.as_secs())),
            Next::Closed => Err("the worker ended during set-up".into()),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let _ = std::fs::remove_dir_all(crate::scratch_dir_of(self.child.id()));
    }
}

/// Runs an untraced run of `args` in workers started from `exe`; the
/// units go on until their measured seconds add up to `--seconds` and at
/// least [`min_units`] ran, or until [`measure_limit`] after set-up. A
/// stopped unit counts the cap towards the measured seconds.
pub fn supervise(args: &Args, exe: &Path) -> Result<Outcome, String> {
    let mut worker = Worker::spawn(exe, args, 0)?;
    let setup_s = worker.setup_s(SETUP_LIMIT)?;
    let deadline = Instant::now() + measure_limit(args);
    let (mut done, mut spent, mut k, mut finished) = (Vec::new(), 0.0, 0u64, true);
    while spent < args.seconds || k < min_units(args.seconds) {
        let left = deadline.saturating_duration_since(Instant::now());
        match worker.next(UNIT_CAP.min(left)) {
            Next::Line(line) => {
                let d = parse_done(&line, k)?;
                spent += d.secs;
                done.push(d);
                k += 1;
            }
            Next::Timeout if left <= UNIT_CAP => {
                finished = false;
                break;
            }
            Next::Timeout => {
                eprintln!("unit {k} passed {} s; it counts as rate 0", UNIT_CAP.as_secs());
                done.push(Done { secs: UNIT_CAP.as_secs_f64(), cut_off: true, ..Done::default() });
                spent += UNIT_CAP.as_secs_f64();
                k += 1;
                drop(worker);
                worker = Worker::spawn(exe, args, k)?;
                // The new worker's set-up is not measured; a run whose
                // deadline passes during it has no unit in flight.
                match worker.next(deadline.saturating_duration_since(Instant::now())) {
                    Next::Line(_) => {}
                    Next::Timeout => break,
                    Next::Closed => return Err(format!("the worker for unit {k} ended in set-up")),
                }
            }
            Next::Closed => return Err(format!("the worker ended at unit {k}")),
        }
    }
    drop(worker);
    Ok(end_to_end(setup_s, done, finished))
}

/// The worker side: `setup`, then units `first`, `first + 1`, ..., each
/// reported as one line on standard output, until the command stops the
/// process, standard output closes, or the run's limits have passed.
pub fn serve<S>(
    args: &Args,
    first: u64,
    setup: impl FnOnce() -> Result<(S, f64), String>,
    mut unit: impl FnMut(&S, u64) -> Done,
) -> Result<Outcome, String> {
    let end = Instant::now() + SETUP_LIMIT + measure_limit(args);
    let (state, setup_s) = setup()?;
    let mut out = std::io::stdout().lock();
    let mut say = |json: Json| writeln!(out, "{}", json.compact()).and_then(|()| out.flush());
    if say(Json::obj([("setup_s", Json::Float(setup_s))])).is_err() {
        return Ok(Outcome::default());
    }
    for k in first.. {
        if Instant::now() > end {
            break;
        }
        let d = unit(&state, k);
        let line = Json::obj([
            ("unit", Json::Int(k as i64)),
            ("ops", Json::Int(d.ops as i64)),
            ("decided", Json::Int(d.decided as i64)),
            ("failed", Json::Int(d.failed as i64)),
            ("secs", Json::Float(d.secs)),
            ("cpu", Json::Float(d.cpu)),
            ("violations", Json::Arr(d.violations.into_iter().map(Json::Str).collect())),
        ]);
        if say(line).is_err() {
            break;
        }
    }
    Ok(Outcome::default())
}

fn parse_done(line: &str, k: u64) -> Result<Done, String> {
    let bad = || format!("worker printed {line:?} for unit {k}");
    let json = Json::parse(line).map_err(|_| bad())?;
    let int = |key: &str| json.get(key).and_then(Json::as_i64).map(|v| v as u64).ok_or_else(bad);
    if int("unit")? != k {
        return Err(bad());
    }
    let violations = json.get("violations").and_then(Json::as_arr).ok_or_else(bad)?;
    Ok(Done {
        ops: int("ops")?,
        decided: int("decided")?,
        failed: int("failed")?,
        secs: json.get("secs").and_then(Json::as_f64).ok_or_else(bad)?,
        cpu: json.get("cpu").and_then(Json::as_f64).ok_or_else(bad)?,
        violations: violations.iter().filter_map(|v| v.as_str().map(str::to_owned)).collect(),
        cut_off: false,
    })
}
