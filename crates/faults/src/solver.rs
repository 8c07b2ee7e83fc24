//! Fault-injected solver personas implementing
//! [`SolverUnderTest`].

use crate::registry::{bugs_of, Action, BugStatus, InjectedBug, SolverId};
use std::collections::BTreeSet;
use yinyang_core::{SolverAnswer, SolverUnderTest};
use yinyang_smtlib::{Logic, Script};
use yinyang_solver::{SatResult, SmtSolver, SolverConfig};

/// A solver persona at a specific release, wrapping the reference
/// [`SmtSolver`] with the release's injected bugs.
///
/// # Examples
///
/// ```
/// use yinyang_faults::{FaultySolver, SolverId};
/// use yinyang_core::SolverUnderTest;
///
/// let trunk = FaultySolver::trunk(SolverId::Zirkon);
/// assert_eq!(trunk.name(), "zirkon-trunk");
/// let script = yinyang_smtlib::parse_script(
///     "(declare-fun x () Int) (assert (> x 0)) (check-sat)",
/// )?;
/// // No trigger fires: the answer comes from the reference solver.
/// assert_eq!(trunk.check_sat(&script), yinyang_core::SolverAnswer::Sat);
/// # Ok::<(), yinyang_smtlib::ParseError>(())
/// ```
pub struct FaultySolver {
    id: SolverId,
    release: String,
    bugs: Vec<InjectedBug>,
    /// Bug ids deactivated by the campaign's fix simulation.
    fixed: BTreeSet<u32>,
    base: SmtSolver,
}

impl FaultySolver {
    /// The persona's trunk (all registry bugs active).
    pub fn trunk(id: SolverId) -> Self {
        FaultySolver::at_release(id, "trunk")
    }

    /// The persona at a specific release: only bugs shipped in that release
    /// are active (report-only entries only live in trunk).
    pub fn at_release(id: SolverId, release: &str) -> Self {
        let bugs = bugs_of(id)
            .into_iter()
            .filter(|b| b.in_release(release))
            .filter(|b| release == "trunk" || matches!(b.status, BugStatus::Confirmed { .. }))
            .collect();
        FaultySolver {
            id,
            release: release.to_owned(),
            bugs,
            fixed: BTreeSet::new(),
            base: SmtSolver::with_config(SolverConfig::default()),
        }
    }

    /// The bug-free reference persona (for coverage baselines and the
    /// no-false-positive guarantee).
    pub fn reference(id: SolverId) -> Self {
        FaultySolver {
            id,
            release: "reference".to_owned(),
            bugs: Vec::new(),
            fixed: BTreeSet::new(),
            base: SmtSolver::with_config(SolverConfig::default()),
        }
    }

    /// Replaces the underlying reference solver's limits (campaigns use
    /// tighter budgets for throughput).
    pub fn set_base_config(&mut self, config: SolverConfig) {
        self.base = SmtSolver::with_config(config);
    }

    /// The persona id.
    pub fn id(&self) -> SolverId {
        self.id
    }

    /// The release string.
    pub fn release(&self) -> &str {
        &self.release
    }

    /// Currently active (unfixed) bugs.
    pub fn active_bugs(&self) -> Vec<&InjectedBug> {
        self.bugs.iter().filter(|b| !self.fixed.contains(&b.id)).collect()
    }

    /// Simulates the developers fixing a bug: deactivates it for subsequent
    /// queries (only meaningful for `Confirmed { fixed: true }` bugs, but
    /// the campaign enforces that policy).
    pub fn apply_fix(&mut self, bug_id: u32) {
        self.fixed.insert(bug_id);
    }

    /// The first active bug whose trigger fires on the script, if any —
    /// this is also the bug whose action [`check_sat`](Self::check_sat)
    /// will perform.
    pub fn triggered_bug(&self, script: &Script) -> Option<&InjectedBug> {
        let logic = script.logic().and_then(|l| l.parse::<Logic>().ok());
        self.bugs
            .iter()
            .filter(|b| !self.fixed.contains(&b.id))
            .find(|b| Some(b.logic) == logic && b.trigger.matches(script))
    }
}

impl SolverUnderTest for FaultySolver {
    fn name(&self) -> String {
        format!("{}-{}", self.id.name(), self.release)
    }

    fn check_sat(&self, script: &Script) -> SolverAnswer {
        if let Some(bug) = self.triggered_bug(script) {
            yinyang_rt::metrics::counter_add("faults.bug_triggered", 1);
            yinyang_rt::metrics::counter_add(&format!("faults.bug.{}", bug.id), 1);
            match &bug.action {
                Action::ForceSat => return SolverAnswer::Sat,
                Action::ForceUnsat => return SolverAnswer::Unsat,
                Action::Panic(msg) => panic!("{}", msg),
                Action::ReportUnknown => return SolverAnswer::Unknown,
            }
        }
        match self.base.solve_script(script).result {
            SatResult::Sat => SolverAnswer::Sat,
            SatResult::Unsat => SolverAnswer::Unsat,
            SatResult::Unknown => SolverAnswer::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yinyang_smtlib::parse_script;

    fn fig13a_like() -> Script {
        parse_script(
            r#"(set-logic QF_S)
               (declare-fun a () String) (declare-fun b () String) (declare-fun c () String)
               (assert (and (str.in_re c (re.* (str.to_re "aa")))
                            (= 0 (str.to_int (str.replace a b (str.at a (str.len a)))))))
               (assert (= a (str.++ b c)))
               (check-sat)"#,
        )
        .unwrap()
    }

    #[test]
    fn trunk_zirkon_misreports_fig13a_shape() {
        let z = FaultySolver::trunk(SolverId::Zirkon);
        let bug = z.triggered_bug(&fig13a_like()).expect("a string bug fires");
        assert_eq!(bug.logic, Logic::QfS);
        // The action must be applied.
        let answer = z.check_sat(&fig13a_like());
        match bug.action {
            Action::ForceSat => assert_eq!(answer, SolverAnswer::Sat),
            Action::ForceUnsat => assert_eq!(answer, SolverAnswer::Unsat),
            _ => {}
        }
    }

    #[test]
    fn reference_persona_has_no_bugs() {
        let r = FaultySolver::reference(SolverId::Zirkon);
        assert!(r.triggered_bug(&fig13a_like()).is_none());
        assert!(r.active_bugs().is_empty());
    }

    #[test]
    fn logic_gating() {
        // The same term shapes under a different logic do not fire.
        let mut text = fig13a_like().to_string();
        text = text.replace("(set-logic QF_S)", "(set-logic QF_SLIA)");
        let script = parse_script(&text).unwrap();
        let z = FaultySolver::trunk(SolverId::Zirkon);
        let bug = z.triggered_bug(&script);
        assert!(bug.is_none() || bug.unwrap().logic == Logic::QfSlia);
    }

    #[test]
    fn fixes_deactivate_bugs() {
        let mut z = FaultySolver::trunk(SolverId::Zirkon);
        let before = z.triggered_bug(&fig13a_like()).expect("fires").id;
        z.apply_fix(before);
        let after = z.triggered_bug(&fig13a_like()).map(|b| b.id);
        assert_ne!(after, Some(before), "fixed bug no longer fires");
    }

    #[test]
    fn old_releases_have_fewer_bugs() {
        let trunk = FaultySolver::trunk(SolverId::Corvus);
        let old = FaultySolver::at_release(SolverId::Corvus, "1.5");
        assert!(old.active_bugs().len() < trunk.active_bugs().len());
    }

    #[test]
    fn clean_formulas_fall_through_to_reference() {
        let z = FaultySolver::trunk(SolverId::Zirkon);
        let s = parse_script(
            "(set-logic QF_LIA) (declare-fun x () Int)
             (assert (> x 3)) (assert (< x 3)) (check-sat)",
        )
        .unwrap();
        assert_eq!(z.check_sat(&s), SolverAnswer::Unsat);
    }

    #[test]
    fn crash_bugs_panic() {
        let z = FaultySolver::trunk(SolverId::Zirkon);
        let s = parse_script(
            "(set-logic NRA) (declare-fun a () Real)
             (assert (exists ((h Real)) (<= 0.0 (/ a h))))
             (check-sat)",
        )
        .unwrap();
        let answer = yinyang_core::run_catching(&z, &s);
        assert!(matches!(answer, SolverAnswer::Crash(msg) if msg.contains("is_numeral")));
    }
}
