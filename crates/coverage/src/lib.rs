//! Probe-point coverage instrumentation — the workspace's Gcov substitute.
//!
//! The paper's RQ3 measures line/function/branch coverage of the solvers
//! under different input sets with Gcov. Our solver is instrumented with
//! *probe points* instead: macros that count a hit on an
//! [`yinyang_rt::metrics`] counter named after the probe's [`ProbeKind`]
//! (mirroring Gcov's three metrics) and site.
//!
//! * [`probe_fn!`] at function entry → function coverage
//!   (`coverage.function.<site>`);
//! * [`probe_branch!`] around a condition → branch coverage; the two arms
//!   are distinct sites (`coverage.branch.<site>/t` and `/f`);
//! * [`probe_line!`] at interesting statements → line coverage
//!   (`coverage.line.<site>`).
//!
//! A hit is an ordinary counter increment in the recording thread's
//! metrics shard, so it rides along in every per-job
//! [`local_snapshot`](yinyang_rt::metrics::local_snapshot) delta and
//! merges in job order like the rest of a campaign's telemetry. A
//! [`CoverageSnapshot`] is a view over a metrics snapshot's probe
//! counters; percentages are taken against a universe the caller chooses
//! (Figs. 11 and 12 use the union of their own cells).
//!
//! # Examples
//!
//! ```
//! use yinyang_coverage::{measure, probe_fn, ProbeKind};
//!
//! fn solve_something() {
//!     probe_fn!("example::solve_something");
//! }
//! let hits = measure(solve_something);
//! assert_eq!(hits.hits_of_kind(ProbeKind::Function), 1);
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use yinyang_rt::{metrics, MetricsSnapshot};

/// The three Gcov-style metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProbeKind {
    /// Statement/line probes.
    Line,
    /// Function-entry probes.
    Function,
    /// Branch-arm probes (taken / not-taken are separate sites).
    Branch,
}

impl ProbeKind {
    /// All kinds, in display order.
    pub const ALL: [ProbeKind; 3] = [ProbeKind::Line, ProbeKind::Function, ProbeKind::Branch];

    /// The counter-name prefix of this kind's probes (the probe macros
    /// spell the same prefixes, since `concat!` takes only literals).
    fn prefix(self) -> &'static str {
        match self {
            ProbeKind::Line => "coverage.line.",
            ProbeKind::Function => "coverage.function.",
            ProbeKind::Branch => "coverage.branch.",
        }
    }

    /// The plural reports use: `lines`, `functions`, `branches`.
    pub fn plural(self) -> &'static str {
        match self {
            ProbeKind::Line => "lines",
            ProbeKind::Function => "functions",
            ProbeKind::Branch => "branches",
        }
    }

    /// The kind of probe a metrics counter counts, if it is a probe.
    pub fn of_counter(name: &str) -> Option<ProbeKind> {
        ProbeKind::ALL.into_iter().find(|kind| name.starts_with(kind.prefix()))
    }
}

/// The probe counters of a metrics snapshot: hit count per site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSnapshot {
    /// Hits keyed by probe counter name.
    hits: BTreeMap<String, u64>,
}

impl CoverageSnapshot {
    /// The probe counters of `snap`. Bracket work with two
    /// [`local_snapshot`](yinyang_rt::metrics::local_snapshot)s and pass
    /// their delta to measure exactly that work's coverage.
    pub fn from_metrics(snap: &MetricsSnapshot) -> CoverageSnapshot {
        let hits = snap
            .counters
            .iter()
            .filter(|(name, _)| ProbeKind::of_counter(name).is_some())
            .map(|(name, count)| (name.clone(), *count))
            .collect();
        CoverageSnapshot { hits }
    }

    fn of_kind(&self, kind: ProbeKind) -> impl Iterator<Item = (&String, &u64)> {
        self.hits.iter().filter(move |(name, _)| name.starts_with(kind.prefix()))
    }

    /// Sites hit, by kind.
    pub fn hits_of_kind(&self, kind: ProbeKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Total hit count (including repeats) for all sites of a kind.
    pub fn count_of_kind(&self, kind: ProbeKind) -> u64 {
        self.of_kind(kind).map(|(_, count)| count).sum()
    }

    /// The distinct sites hit, by probe counter name.
    pub fn sites(&self) -> impl Iterator<Item = &str> {
        self.hits.keys().map(String::as_str)
    }

    /// Number of distinct sites hit.
    pub fn len(&self) -> usize {
        self.hits.len()
    }

    /// True when nothing has been hit.
    pub fn is_empty(&self) -> bool {
        self.hits.is_empty()
    }

    /// Percentage of `universe` sites of `kind` that this snapshot hits.
    /// Returns 0 when the universe has no sites of the kind.
    pub fn percent_of(&self, universe: &BTreeSet<&str>, kind: ProbeKind) -> f64 {
        let total = universe.iter().filter(|site| site.starts_with(kind.prefix())).count();
        if total == 0 {
            return 0.0;
        }
        let hit = self.of_kind(kind).filter(|(site, _)| universe.contains(site.as_str())).count();
        100.0 * hit as f64 / total as f64
    }
}

/// The whole process's probe hits so far: every thread's metrics shard
/// plus the threads that have exited.
pub fn snapshot() -> CoverageSnapshot {
    CoverageSnapshot::from_metrics(&metrics::snapshot())
}

/// The probe hits of `work` alone: the calling thread's hits between two
/// [`metrics::local_snapshot`]s, so whatever other threads run at the
/// same time does not count.
pub fn measure(work: impl FnOnce()) -> CoverageSnapshot {
    let before = metrics::local_snapshot();
    work();
    CoverageSnapshot::from_metrics(&metrics::local_snapshot().delta(&before))
}

/// Counts one hit of a probe counter. Called through the probe macros,
/// which build the name at compile time.
#[doc(hidden)]
pub fn hit(counter: &'static str) {
    metrics::counter_add(counter, 1);
}

/// Records a function-entry probe.
#[macro_export]
macro_rules! probe_fn {
    ($name:literal) => {
        $crate::hit(concat!("coverage.function.", $name))
    };
}

/// Records a line/statement probe.
#[macro_export]
macro_rules! probe_line {
    ($name:literal) => {
        $crate::hit(concat!("coverage.line.", $name))
    };
}

/// Records a branch probe for the boolean `$cond`, returning `$cond` so the
/// macro wraps conditions transparently:
/// `if probe_branch!("simplex::bounded", x > 0) { ... }`.
#[macro_export]
macro_rules! probe_branch {
    ($name:literal, $cond:expr) => {{
        let cond: bool = $cond;
        $crate::hit(if cond {
            concat!("coverage.branch.", $name, "/t")
        } else {
            concat!("coverage.branch.", $name, "/f")
        });
        cond
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_count_sites_and_hits_by_kind() {
        let snap = measure(|| {
            probe_fn!("t::f1");
            probe_fn!("t::f1");
            probe_line!("t::l1");
        });
        assert_eq!(snap.hits_of_kind(ProbeKind::Function), 1);
        assert_eq!(snap.count_of_kind(ProbeKind::Function), 2);
        assert_eq!(snap.hits_of_kind(ProbeKind::Line), 1);
        assert_eq!(snap.hits_of_kind(ProbeKind::Branch), 0);
        assert_eq!(
            snap.sites().collect::<Vec<_>>(),
            ["coverage.function.t::f1", "coverage.line.t::l1"]
        );
    }

    #[test]
    fn branch_macro_returns_condition() {
        let x = 5;
        let snap = measure(|| {
            assert!(probe_branch!("t::br", x > 3));
            assert!(!probe_branch!("t::br", x > 10));
        });
        // Two arms = two distinct branch sites.
        assert_eq!(snap.hits_of_kind(ProbeKind::Branch), 2);
        assert_eq!(
            snap.sites().collect::<Vec<_>>(),
            ["coverage.branch.t::br/f", "coverage.branch.t::br/t"]
        );
    }

    #[test]
    fn other_counters_are_not_probes() {
        let snap = measure(|| {
            metrics::counter_add("solver.sat.decisions", 3);
            probe_line!("t::o1");
        });
        assert_eq!(snap.len(), 1);
        assert_eq!(ProbeKind::of_counter("coverage.lines.sites"), None);
        assert_eq!(ProbeKind::of_counter("coverage.branch.x/t"), Some(ProbeKind::Branch));
    }

    #[test]
    fn percent_against_universe() {
        let both = measure(|| {
            probe_line!("t::p1");
            probe_line!("t::p2");
        });
        let one = measure(|| probe_line!("t::p1"));
        let universe: BTreeSet<&str> = both.sites().chain(one.sites()).collect();
        assert_eq!(both.percent_of(&universe, ProbeKind::Line), 100.0);
        assert_eq!(one.percent_of(&universe, ProbeKind::Line), 50.0);
        assert_eq!(one.percent_of(&universe, ProbeKind::Branch), 0.0);
    }

    #[test]
    fn brackets_are_per_thread_and_snapshot_is_process_wide() {
        let local = measure(|| std::thread::spawn(|| probe_line!("t::elsewhere")).join().unwrap());
        assert!(local.is_empty(), "another thread's hit landed in this thread's bracket");
        assert!(snapshot().sites().any(|site| site == "coverage.line.t::elsewhere"));
    }
}
