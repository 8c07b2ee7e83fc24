//! Probe-point coverage instrumentation — the workspace's Gcov substitute.
//!
//! The paper's RQ3 measures line/function/branch coverage of the solvers
//! under different input sets with Gcov. Our solver is instrumented with
//! *probe points* instead: macros that record a hit in a global map, tagged
//! with a [`ProbeKind`] mirroring Gcov's three metrics.
//!
//! * [`probe_fn!`] at function entry → function coverage;
//! * [`probe_branch!`] around a condition → branch coverage (both arms are
//!   distinct probes);
//! * [`probe_line!`] at interesting statements → line coverage.
//!
//! Coverage percentages are computed against the *registry* of all probes
//! that fired in any run of the process (a union denominator), which is
//! exactly the relative comparison Fig. 11 and Fig. 12 make.
//!
//! # Examples
//!
//! ```
//! use yinyang_coverage::{probe_fn, snapshot, reset, CoverageSnapshot};
//!
//! reset();
//! fn solve_something() {
//!     probe_fn!("example::solve_something");
//! }
//! solve_something();
//! let snap = snapshot();
//! assert_eq!(snap.hits_of_kind(yinyang_coverage::ProbeKind::Function), 1);
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::sync::OnceLock;

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
}

/// A probe site: a static name plus kind. Branch probes append `/t` or `/f`.
pub type SiteKey = (&'static str, ProbeKind, bool);

#[derive(Default)]
struct State {
    /// Sites hit since the last [`reset`], with hit counts.
    hits: BTreeMap<SiteKey, u64>,
    /// Every site ever observed in this process — the denominator universe.
    universe: BTreeSet<SiteKey>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

/// Records a hit. Usually called through the probe macros.
pub fn record(name: &'static str, kind: ProbeKind, arm: bool) {
    let mut s = state().lock().expect("coverage state poisoned");
    let key = (name, kind, arm);
    *s.hits.entry(key).or_insert(0) += 1;
    s.universe.insert(key);
}

/// Clears per-run hits (the universe of known sites is retained).
pub fn reset() {
    state().lock().expect("coverage state poisoned").hits.clear();
}

/// An immutable snapshot of coverage state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSnapshot {
    hits: BTreeMap<SiteKey, u64>,
}

impl CoverageSnapshot {
    /// Sites hit, by kind.
    pub fn hits_of_kind(&self, kind: ProbeKind) -> usize {
        self.hits.keys().filter(|(_, k, _)| *k == kind).count()
    }

    /// Total hit count (including repeats) for all sites of a kind.
    pub fn count_of_kind(&self, kind: ProbeKind) -> u64 {
        self.hits.iter().filter(|((_, k, _), _)| *k == kind).map(|(_, c)| c).sum()
    }

    /// The set of distinct sites hit.
    pub fn sites(&self) -> BTreeSet<SiteKey> {
        self.hits.keys().copied().collect()
    }

    /// The hits recorded in `self` but not in the earlier snapshot
    /// `earlier` (per-site saturating subtraction; sites whose count
    /// reaches zero are dropped). Because hit counts only grow between
    /// two snapshots of the same process, `start.union(&d) == end` holds
    /// for `d = end.delta(&start)` — campaigns use this to carve their
    /// own coverage out of the process-global state: each point of a
    /// campaign's per-round coverage trajectory counts the sites and hits
    /// of `snapshot().delta(&start)`.
    pub fn delta(&self, earlier: &CoverageSnapshot) -> CoverageSnapshot {
        let mut hits = BTreeMap::new();
        for (site, count) in &self.hits {
            let d = count.saturating_sub(*earlier.hits.get(site).unwrap_or(&0));
            if d > 0 {
                hits.insert(*site, d);
            }
        }
        CoverageSnapshot { hits }
    }

    /// Union of the sites in two snapshots.
    pub fn union(&self, other: &CoverageSnapshot) -> CoverageSnapshot {
        let mut hits = self.hits.clone();
        for (k, v) in &other.hits {
            *hits.entry(*k).or_insert(0) += v;
        }
        CoverageSnapshot { hits }
    }

    /// Whether this snapshot covers every site `other` covers.
    pub fn covers(&self, other: &CoverageSnapshot) -> bool {
        other.hits.keys().all(|k| self.hits.contains_key(k))
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
    pub fn percent_of(&self, universe: &BTreeSet<SiteKey>, kind: ProbeKind) -> f64 {
        let total = universe.iter().filter(|(_, k, _)| *k == kind).count();
        if total == 0 {
            return 0.0;
        }
        let hit = self
            .hits
            .keys()
            .filter(|site @ (_, k, _)| *k == kind && universe.contains(*site))
            .count();
        100.0 * hit as f64 / total as f64
    }
}

impl yinyang_rt::json::ToJson for CoverageSnapshot {
    fn to_json(&self) -> yinyang_rt::json::Json {
        use yinyang_rt::json::Json;
        Json::obj(ProbeKind::ALL.map(|kind| {
            let detail = Json::obj([
                ("sites", Json::Int(self.hits_of_kind(kind) as i64)),
                ("hits", Json::Int(self.count_of_kind(kind) as i64)),
            ]);
            let name = match kind {
                ProbeKind::Line => "lines",
                ProbeKind::Function => "functions",
                ProbeKind::Branch => "branches",
            };
            (name, detail)
        }))
    }
}

/// Publishes a snapshot's per-kind site and hit counts as metrics gauges
/// (`coverage.<kind>.sites` / `coverage.<kind>.hits`), making coverage just
/// another metrics export alongside solver statistics.
pub fn export_metrics(snap: &CoverageSnapshot) {
    for kind in ProbeKind::ALL {
        let name = match kind {
            ProbeKind::Line => "lines",
            ProbeKind::Function => "functions",
            ProbeKind::Branch => "branches",
        };
        yinyang_rt::metrics::gauge_set(
            &format!("coverage.{name}.sites"),
            snap.hits_of_kind(kind) as i64,
        );
        yinyang_rt::metrics::gauge_set(
            &format!("coverage.{name}.hits"),
            snap.count_of_kind(kind) as i64,
        );
    }
}

/// Takes a snapshot of hits since the last [`reset`].
pub fn snapshot() -> CoverageSnapshot {
    let s = state().lock().expect("coverage state poisoned");
    CoverageSnapshot { hits: s.hits.clone() }
}

/// Every probe site the process has ever observed (the Fig. 11 denominator).
pub fn universe() -> BTreeSet<SiteKey> {
    state().lock().expect("coverage state poisoned").universe.clone()
}

/// Records a function-entry probe.
#[macro_export]
macro_rules! probe_fn {
    ($name:expr) => {
        $crate::record($name, $crate::ProbeKind::Function, true)
    };
}

/// Records a line/statement probe.
#[macro_export]
macro_rules! probe_line {
    ($name:expr) => {
        $crate::record($name, $crate::ProbeKind::Line, true)
    };
}

/// Records a branch probe for the boolean `$cond`, returning `$cond` so the
/// macro wraps conditions transparently:
/// `if probe_branch!("simplex::bounded", x > 0) { ... }`.
#[macro_export]
macro_rules! probe_branch {
    ($name:expr, $cond:expr) => {{
        let cond: bool = $cond;
        $crate::record($name, $crate::ProbeKind::Branch, cond);
        cond
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Coverage state is global; serialize tests touching it.
    fn lock_tests() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn record_and_snapshot() {
        let _g = lock_tests();
        reset();
        record("t::f1", ProbeKind::Function, true);
        record("t::f1", ProbeKind::Function, true);
        record("t::l1", ProbeKind::Line, true);
        let snap = snapshot();
        assert_eq!(snap.hits_of_kind(ProbeKind::Function), 1);
        assert_eq!(snap.count_of_kind(ProbeKind::Function), 2);
        assert_eq!(snap.hits_of_kind(ProbeKind::Line), 1);
        assert_eq!(snap.hits_of_kind(ProbeKind::Branch), 0);
    }

    #[test]
    fn branch_macro_returns_condition() {
        let _g = lock_tests();
        reset();
        let x = 5;
        let taken = probe_branch!("t::br", x > 3);
        assert!(taken);
        let not_taken = probe_branch!("t::br", x > 10);
        assert!(!not_taken);
        let snap = snapshot();
        // Two arms = two distinct branch sites.
        assert_eq!(snap.hits_of_kind(ProbeKind::Branch), 2);
    }

    #[test]
    fn reset_preserves_universe() {
        let _g = lock_tests();
        reset();
        record("t::u1", ProbeKind::Line, true);
        reset();
        assert!(
            snapshot().is_empty()
                || !snapshot().sites().contains(&("t::u1", ProbeKind::Line, true))
        );
        assert!(universe().contains(&("t::u1", ProbeKind::Line, true)));
    }

    #[test]
    fn percent_against_universe() {
        let _g = lock_tests();
        reset();
        record("t::p1", ProbeKind::Line, true);
        record("t::p2", ProbeKind::Line, true);
        let both = snapshot();
        reset();
        record("t::p1", ProbeKind::Line, true);
        let one = snapshot();
        let mut uni = BTreeSet::new();
        uni.insert(("t::p1", ProbeKind::Line, true));
        uni.insert(("t::p2", ProbeKind::Line, true));
        assert_eq!(both.percent_of(&uni, ProbeKind::Line), 100.0);
        assert_eq!(one.percent_of(&uni, ProbeKind::Line), 50.0);
        assert_eq!(one.percent_of(&uni, ProbeKind::Branch), 0.0);
    }

    #[test]
    fn delta_subtracts_hit_counts_and_drops_dead_sites() {
        let _g = lock_tests();
        reset();
        record("t::d1", ProbeKind::Line, true);
        record("t::d1", ProbeKind::Line, true);
        let start = snapshot();
        record("t::d1", ProbeKind::Line, true);
        record("t::d2", ProbeKind::Function, true);
        let end = snapshot();
        let d = end.delta(&start);
        assert_eq!(d.count_of_kind(ProbeKind::Line), 1);
        assert_eq!(d.hits_of_kind(ProbeKind::Function), 1);
        assert_eq!(start.union(&d), end, "delta inverts union");
        assert!(end.delta(&end).is_empty());
    }

    #[test]
    fn union_and_covers() {
        let _g = lock_tests();
        reset();
        record("t::a", ProbeKind::Line, true);
        let a = snapshot();
        reset();
        record("t::b", ProbeKind::Line, true);
        let b = snapshot();
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
        assert!(u.covers(&a) && u.covers(&b));
        assert!(!a.covers(&b));
    }
}
