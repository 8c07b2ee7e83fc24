//! Calls into the layers, each under its span, and the per-layer counts
//! read from their public return values.

use crate::span;
use crate::Metric;
use std::panic::{catch_unwind, AssertUnwindSafe};
use yinyang_core::{run_catching, SolverAnswer};
use yinyang_faults::{BugClass, FaultySolver};
use yinyang_smtlib::{parse_script, ParseError, Script};
use yinyang_solver::{SatResult, SmtSolver, SolveOutput};

/// Deterministic per-layer counts. For a given seed every field repeats
/// exactly, at any thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// `generate_row` calls.
    pub seedgen_calls: u64,
    /// `Fuser::fuse` calls.
    pub fuse_calls: u64,
    /// `Fuser::fuse` calls that found no fusible pair.
    pub fuse_failures: u64,
    /// Trigger matches plus injected-bug actions performed.
    pub faults_calls: u64,
    /// Trigger matches that fired an injected bug.
    pub faults_fired: u64,
    /// `SmtSolver::solve_script` calls.
    pub solver_calls: u64,
    /// Solves answered `sat` or `unsat`.
    pub solver_decided: u64,
    /// Lazy-loop iterations over all solves.
    pub solver_iterations: u64,
    /// `unknown` answers by reason: iteration limit, SAT budget, theory
    /// gave up, incomplete universal instantiation, other.
    pub unknown: [u64; 5],
    /// CDCL decisions.
    pub sat_decisions: u64,
    /// CDCL unit propagations.
    pub sat_propagations: u64,
    /// CDCL conflicts.
    pub sat_conflicts: u64,
    /// Simplex pivots.
    pub simplex_pivots: u64,
    /// String search nodes.
    pub string_nodes: u64,
    /// Solves that panicked.
    pub solver_panics: u64,
    /// Coverage probe hits.
    pub probe_hits: u64,
    /// `parse_script` calls.
    pub parse_calls: u64,
    /// SMT-LIB prints (`Script` to text).
    pub print_calls: u64,
    /// `reduce_with_stats` calls.
    pub reduce_calls: u64,
    /// Candidates the reducer handed to its predicate.
    pub reduce_candidates: u64,
    /// Assert nodes before reduction, summed.
    pub reduce_nodes_before: u64,
    /// Assert nodes after reduction, summed.
    pub reduce_nodes_after: u64,
    /// Reductions whose predicate cross-checked the reference solver.
    pub reduce_oracle_checked: u64,
}

/// The names `unknown` reasons are reported under, in [`Counts::unknown`]
/// order.
pub const UNKNOWN_REASONS: [&str; 5] =
    ["iteration_limit", "sat_budget", "theory_gave_up", "forall_incomplete", "other"];

fn reason_index(reason: Option<&str>) -> usize {
    match reason {
        Some("iteration limit") => 0,
        Some("sat budget exhausted") => 1,
        Some("theory checker gave up on a branch") => 2,
        Some("universal instantiation is incomplete for sat") => 3,
        _ => 4,
    }
}

impl Counts {
    /// Adds every field of `other`.
    pub fn add(&mut self, o: &Counts) {
        self.seedgen_calls += o.seedgen_calls;
        self.fuse_calls += o.fuse_calls;
        self.fuse_failures += o.fuse_failures;
        self.faults_calls += o.faults_calls;
        self.faults_fired += o.faults_fired;
        self.solver_calls += o.solver_calls;
        self.solver_decided += o.solver_decided;
        self.solver_iterations += o.solver_iterations;
        for (a, b) in self.unknown.iter_mut().zip(o.unknown) {
            *a += b;
        }
        self.sat_decisions += o.sat_decisions;
        self.sat_propagations += o.sat_propagations;
        self.sat_conflicts += o.sat_conflicts;
        self.simplex_pivots += o.simplex_pivots;
        self.string_nodes += o.string_nodes;
        self.solver_panics += o.solver_panics;
        self.probe_hits += o.probe_hits;
        self.parse_calls += o.parse_calls;
        self.print_calls += o.print_calls;
        self.reduce_calls += o.reduce_calls;
        self.reduce_candidates += o.reduce_candidates;
        self.reduce_nodes_before += o.reduce_nodes_before;
        self.reduce_nodes_after += o.reduce_nodes_after;
        self.reduce_oracle_checked += o.reduce_oracle_checked;
    }

    fn record_solve(&mut self, out: &SolveOutput) {
        self.solver_calls += 1;
        self.solver_iterations += out.iterations as u64;
        match out.result {
            SatResult::Sat | SatResult::Unsat => self.solver_decided += 1,
            SatResult::Unknown => self.unknown[reason_index(out.reason.as_deref())] += 1,
        }
        self.sat_decisions += out.stats.decisions;
        self.sat_propagations += out.stats.propagations;
        self.sat_conflicts += out.stats.conflicts;
        self.simplex_pivots += out.stats.simplex_pivots;
        self.string_nodes += out.stats.string_search_nodes;
    }
}

/// Solves `script` with the reference solver under a `solver` span tagged
/// with its Fig. 7 benchmark. A panic comes back as `Err` with its
/// message.
pub fn solve(
    solver: &SmtSolver,
    script: &Script,
    benchmark: &'static str,
    counts: &mut Counts,
) -> Result<SolveOutput, String> {
    let result = {
        let _span = span::tagged("solver", benchmark);
        catch_unwind(AssertUnwindSafe(|| solver.solve_script(script)))
    };
    match result {
        Ok(out) => {
            counts.record_solve(&out);
            Ok(out)
        }
        Err(payload) => {
            counts.solver_calls += 1;
            counts.solver_panics += 1;
            Err(payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned()))
        }
    }
}

/// A persona's answer, split at the layer boundary the persona itself
/// has: the trigger match (`faults`), then either the injected action
/// (`faults`) or the reference solver (`solver`). Equals
/// `run_catching(persona, script)` when `base` has the persona's limits.
pub fn persona_answer(
    persona: &FaultySolver,
    base: &SmtSolver,
    script: &Script,
    benchmark: &'static str,
    counts: &mut Counts,
) -> (SolverAnswer, Option<(u32, BugClass)>) {
    let fired = {
        let _span = span::span("faults");
        counts.faults_calls += 1;
        persona.triggered_bug(script).map(|b| (b.id, b.class))
    };
    if fired.is_some() {
        counts.faults_fired += 1;
        let _span = span::span("faults");
        counts.faults_calls += 1;
        return (run_catching(persona, script), fired);
    }
    let answer = match solve(base, script, benchmark, counts) {
        Ok(out) => match out.result {
            SatResult::Sat => SolverAnswer::Sat,
            SatResult::Unsat => SolverAnswer::Unsat,
            SatResult::Unknown => SolverAnswer::Unknown,
        },
        Err(message) => SolverAnswer::Crash(message),
    };
    (answer, None)
}

/// `parse_script` under an `smtlib.parse` span.
pub fn parse(text: &str, counts: &mut Counts) -> Result<Script, ParseError> {
    let _span = span::span("smtlib.parse");
    counts.parse_calls += 1;
    parse_script(text)
}

/// SMT-LIB printing under an `smtlib.print` span.
pub fn print(script: &Script, counts: &mut Counts) -> String {
    let _span = span::span("smtlib.print");
    counts.print_calls += 1;
    script.to_string()
}

/// Total hits over every coverage probe, for bracketing a phase.
pub fn probe_hits() -> u64 {
    let snap = yinyang_coverage::snapshot();
    yinyang_coverage::ProbeKind::ALL.iter().map(|&k| snap.count_of_kind(k)).sum()
}

/// The value at quantile `q` of sorted `values` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of the usual percentiles with at least ten samples beyond
/// it; the median when there are too few samples for any tail.
pub fn tail_quantile(n: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9].into_iter().find(|q| (n as f64) * (1.0 - q) >= 10.0).unwrap_or(0.5)
}

/// One unit of a traced run: the program's call, and the same work
/// repeated from the benchmark's code, once with recording off and once on.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Deterministic counts of the traced repetition.
    pub counts: Counts,
    /// Spans of the traced repetition.
    pub spans: Vec<span::Span>,
    /// Process CPU seconds over the program's call.
    pub cpu_s: f64,
    /// Threads times wall seconds minus CPU seconds over the same call.
    pub idle_s: f64,
    /// Wall seconds of the program's call.
    pub program_s: f64,
    /// Wall seconds of the repetition with recording off.
    pub untraced_s: f64,
    /// Wall seconds of the repetition with recording on.
    pub traced_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Check violations.
    pub violations: Vec<String>,
}

impl Traced {
    /// Adds a later unit.
    pub fn add(&mut self, o: Traced) {
        self.counts.add(&o.counts);
        self.spans.extend(o.spans);
        self.cpu_s += o.cpu_s;
        self.idle_s += o.idle_s;
        self.program_s += o.program_s;
        self.untraced_s += o.untraced_s;
        self.traced_s += o.traced_s;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.violations.extend(o.violations);
    }
}

/// Every per-layer metric, computed from the counts and the spans.
pub fn per_layer_metrics(traced: &Traced) -> Vec<Metric> {
    let c = &traced.counts;
    let spans = &traced.spans;
    let selfs = span::self_times(spans);
    let busy = |name: &str| -> f64 {
        spans.iter().zip(&selfs).filter(|(s, _)| s.name == name).map(|(_, &t)| t).sum::<u64>()
            as f64
            / 1e9
    };
    let mut solves: Vec<u64> =
        spans.iter().filter(|s| s.name == "solver").map(span::Span::dur_ns).collect();
    solves.sort_unstable();
    let ms = |ns: u64| ns as f64 / 1e6;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = vec![
        Metric::new("campaign.cpu_s", traced.cpu_s, "s"),
        Metric::new("campaign.idle_s", traced.idle_s, "s"),
        Metric::new("rt.metrics.busy_s", busy("rt.metrics"), "s"),
        Metric::new("seedgen.calls", c.seedgen_calls as f64, "count"),
        Metric::new("seedgen.busy_s", busy("seedgen"), "s"),
        Metric::new("core.fuse.calls", c.fuse_calls as f64, "count"),
        Metric::new("core.fuse.busy_s", busy("core.fuse"), "s"),
        Metric::new("core.fuse.failures", c.fuse_failures as f64, "count"),
        Metric::new("faults.calls", c.faults_calls as f64, "count"),
        Metric::new("faults.busy_s", busy("faults"), "s"),
        Metric::new("faults.fired", c.faults_fired as f64, "count"),
        Metric::new("solver.calls", c.solver_calls as f64, "count"),
        Metric::new("solver.busy_s", busy("solver"), "s"),
    ];
    for row in yinyang_seedgen::profile::fig7_profile() {
        let ns: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "solver" && s.tag == row.name)
            .map(|(_, &t)| t)
            .sum();
        m.push(Metric::new(&format!("solver.busy_s.{}", row.name), ns as f64 / 1e9, "s"));
    }
    m.extend([
        Metric::new("solver.p50_ms", ms(quantile(&solves, 0.5)), "ms"),
        Metric::new("solver.tail_ms", ms(quantile(&solves, tail_quantile(solves.len()))), "ms"),
        Metric::new("solver.max_ms", ms(solves.last().copied().unwrap_or(0)), "ms"),
        Metric::new("solver.decided_ratio", ratio(c.solver_decided, c.solver_calls), "ratio"),
        Metric::new("solver.iterations", c.solver_iterations as f64, "count"),
    ]);
    for (name, &n) in UNKNOWN_REASONS.iter().zip(&c.unknown) {
        m.push(Metric::new(&format!("solver.unknown.{name}"), n as f64, "count"));
    }
    m.extend([
        Metric::new("solver.sat.decisions", c.sat_decisions as f64, "count"),
        Metric::new("solver.sat.propagations", c.sat_propagations as f64, "count"),
        Metric::new("solver.sat.conflicts", c.sat_conflicts as f64, "count"),
        Metric::new("solver.simplex.pivots", c.simplex_pivots as f64, "count"),
        Metric::new("solver.strings.search_nodes", c.string_nodes as f64, "count"),
        Metric::new("coverage.probe_hits", c.probe_hits as f64, "count"),
        Metric::new("smtlib.parse.calls", c.parse_calls as f64, "count"),
        Metric::new("smtlib.parse.busy_s", busy("smtlib.parse"), "s"),
        Metric::new("smtlib.print.calls", c.print_calls as f64, "count"),
        Metric::new("smtlib.print.busy_s", busy("smtlib.print"), "s"),
        Metric::new("reduce.calls", c.reduce_calls as f64, "count"),
        Metric::new("reduce.busy_s", busy("reduce"), "s"),
        Metric::new("reduce.candidates", c.reduce_candidates as f64, "count"),
        Metric::new(
            "reduce.shrink_ratio",
            ratio(c.reduce_nodes_after, c.reduce_nodes_before),
            "ratio",
        ),
        Metric::new(
            "reduce.oracle_checked_ratio",
            ratio(c.reduce_oracle_checked, c.reduce_calls),
            "ratio",
        ),
    ]);
    m
}

/// A human-readable summary of the traced run for standard error: busy
/// time per span name, the solve-time tail, and the slowest solves'
/// share of all solve time.
pub fn describe(spans: &[span::Span], wall_s: f64) -> String {
    use std::fmt::Write as _;
    let selfs = span::self_times(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, &t) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{:<18} {:>9} {:>11} {:>8}", "span", "calls", "self_s", "share");
    let total: u64 = by_name.values().map(|v| v.1).sum();
    for (name, (calls, ns)) in &by_name {
        let _ = writeln!(
            out,
            "{name:<18} {calls:>9} {:>11.4} {:>7.1}%",
            *ns as f64 / 1e9,
            100.0 * *ns as f64 / total.max(1) as f64
        );
    }
    let mut solves: Vec<u64> =
        spans.iter().filter(|s| s.name == "solver").map(span::Span::dur_ns).collect();
    solves.sort_unstable();
    let solve_total: u64 = solves.iter().sum();
    let slow = solves.len().div_ceil(100);
    let slow_ns: u64 = solves.iter().rev().take(slow).sum();
    let _ = writeln!(
        out,
        "solves: {} (tail percentile p{}), slowest 1% ({slow}) hold {:.1}% of solve time; \
         traced wall {wall_s:.3} s",
        solves.len(),
        tail_quantile(solves.len()) * 100.0,
        100.0 * slow_ns as f64 / solve_total.max(1) as f64,
    );
    out
}
