//! The campaign's report-facing telemetry: a condensed, serializable view
//! of a [`MetricsSnapshot`].
//!
//! Raw snapshots carry full 32-bucket histograms; reports only need the
//! six-number summaries. [`Telemetry::from_snapshot`] splits the
//! histograms into *stages* (the `span.*` family recorded by
//! [`yinyang_rt::span!`] around seedgen/fusion/solve/oracle/triage) and
//! everything else, carries counters — including the solver's own
//! statistics (`solver.sat.*`, `solver.simplex.pivots`,
//! `solver.strings.*`) — through unchanged, and folds the per-site
//! `coverage.*` probe counters into per-kind site and hit totals.
//!
//! Because campaign snapshots are assembled from per-job deltas merged in
//! job order, a `Telemetry` embedded in a report is byte-identical across
//! replays of the same seed, sequential or sharded.

use std::collections::BTreeMap;
use yinyang_coverage::{CoverageSnapshot, ProbeKind};
use yinyang_rt::impl_json_struct;
use yinyang_rt::{HistogramSummary, MetricsSnapshot};

/// Cumulative coverage at the end of one campaign round — a point on the
/// paper's Fig. 9/10-style trajectory. `*_sites` counts distinct probe
/// sites reached since the campaign started; `*_hits` sums their hit
/// counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageRound {
    /// Persona the campaign ran against.
    pub solver: String,
    /// Campaign round (0-based).
    pub round: usize,
    /// Distinct line probes reached so far.
    pub lines_sites: usize,
    /// Distinct function probes reached so far.
    pub functions_sites: usize,
    /// Distinct branch-arm probes reached so far.
    pub branches_sites: usize,
    /// Total line-probe hits so far.
    pub lines_hits: u64,
    /// Total function-probe hits so far.
    pub functions_hits: u64,
    /// Total branch-arm hits so far.
    pub branches_hits: u64,
}

impl CoverageRound {
    /// The trajectory point of `solver`'s campaign after `round`, whose
    /// probe hits since the campaign started are `cumulative`.
    pub fn new(solver: &str, round: usize, cumulative: &CoverageSnapshot) -> CoverageRound {
        CoverageRound {
            solver: solver.to_owned(),
            round,
            lines_sites: cumulative.hits_of_kind(ProbeKind::Line),
            functions_sites: cumulative.hits_of_kind(ProbeKind::Function),
            branches_sites: cumulative.hits_of_kind(ProbeKind::Branch),
            lines_hits: cumulative.count_of_kind(ProbeKind::Line),
            functions_hits: cumulative.count_of_kind(ProbeKind::Function),
            branches_hits: cumulative.count_of_kind(ProbeKind::Branch),
        }
    }
}

impl_json_struct!(CoverageRound {
    solver,
    round,
    lines_sites,
    functions_sites,
    branches_sites,
    lines_hits,
    functions_hits,
    branches_hits,
});

/// The `telemetry` section of campaign reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Monotonic event counts (fusion attempts, solver statistics, bug
    /// triggers, ...), without the per-site coverage probes.
    pub counters: BTreeMap<String, u64>,
    /// Coverage totals over the probe counters: distinct sites and hits
    /// per kind (`coverage.lines.sites`, `coverage.lines.hits`, ...).
    pub gauges: BTreeMap<String, u64>,
    /// Per-stage duration summaries, keyed by span name (`seedgen`,
    /// `fusion`, `solve`, `oracle`, `triage`), in [`yinyang_rt::trace::unit`]
    /// units.
    pub stages: BTreeMap<String, HistogramSummary>,
    /// Summaries of non-span histograms (e.g. `solver.strings.search_vars`).
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// Per-round cumulative coverage trajectory of each campaign (empty
    /// for regression replays).
    pub coverage_rounds: Vec<CoverageRound>,
}

impl_json_struct!(Telemetry { counters, gauges, stages, histograms, coverage_rounds });

impl Telemetry {
    /// Condenses a snapshot into report form.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Telemetry {
        let mut t = Telemetry::default();
        for (name, count) in &snap.counters {
            if ProbeKind::of_counter(name).is_none() {
                t.counters.insert(name.clone(), *count);
            }
        }
        let coverage = CoverageSnapshot::from_metrics(snap);
        for kind in ProbeKind::ALL {
            let kind_name = kind.plural();
            t.gauges
                .insert(format!("coverage.{kind_name}.sites"), coverage.hits_of_kind(kind) as u64);
            t.gauges.insert(format!("coverage.{kind_name}.hits"), coverage.count_of_kind(kind));
        }
        for (name, h) in &snap.histograms {
            match name.strip_prefix("span.") {
                Some(stage) => t.stages.insert(stage.to_owned(), h.summary()),
                None => t.histograms.insert(name.clone(), h.summary()),
            };
        }
        t
    }

    /// Stage summary lookup, defaulting to an empty summary.
    pub fn stage(&self, name: &str) -> HistogramSummary {
        self.stages.get(name).cloned().unwrap_or_default()
    }

    /// Counter lookup defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        *self.counters.get(name).unwrap_or(&0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yinyang_rt::json::{FromJson, Json, ToJson};
    use yinyang_rt::Histogram;

    fn snapshot_with(spans: &[(&str, u64)], counters: &[(&str, u64)]) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, v) in spans {
            let mut h = Histogram::new();
            h.record(*v);
            snap.histograms.insert((*name).to_owned(), h);
        }
        for (name, v) in counters {
            snap.counters.insert((*name).to_owned(), *v);
        }
        snap
    }

    #[test]
    fn spans_become_stages_and_the_rest_stays() {
        let snap = snapshot_with(
            &[("span.solve", 9), ("solver.strings.search_vars", 4)],
            &[("solver.sat.conflicts", 17)],
        );
        let t = Telemetry::from_snapshot(&snap);
        assert_eq!(t.stage("solve").count, 1);
        assert_eq!(t.stages.len(), 1);
        assert_eq!(t.histograms["solver.strings.search_vars"].count, 1);
        assert_eq!(t.counter("solver.sat.conflicts"), 17);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn probe_counters_fold_into_coverage_totals() {
        let snap = snapshot_with(
            &[],
            &[
                ("coverage.line.a", 2),
                ("coverage.line.b", 3),
                ("coverage.branch.c/t", 4),
                ("coverage.branch.c/f", 1),
                ("fusion.attempts", 5),
            ],
        );
        let t = Telemetry::from_snapshot(&snap);
        assert_eq!(t.counters.keys().collect::<Vec<_>>(), ["fusion.attempts"]);
        assert_eq!(t.gauges["coverage.lines.sites"], 2);
        assert_eq!(t.gauges["coverage.lines.hits"], 5);
        assert_eq!(t.gauges["coverage.branches.sites"], 2);
        assert_eq!(t.gauges["coverage.branches.hits"], 5);
        assert_eq!(t.gauges["coverage.functions.sites"], 0);
        assert_eq!(t.gauges.len(), 6);
    }

    #[test]
    fn telemetry_roundtrips_through_json() {
        let snap = snapshot_with(&[("span.fusion", 2)], &[("fusion.attempts", 3)]);
        let t = Telemetry::from_snapshot(&snap);
        let json = t.to_json().compact();
        let back = Telemetry::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, t);
    }
}
