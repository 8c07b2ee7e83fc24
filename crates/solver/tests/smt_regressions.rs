//! Regression tests for defects found (and fixed) while bringing the
//! solver up against the paper's workloads. Each test pins the exact
//! behavior that used to be wrong.

use yinyang_solver::{SatResult, SmtSolver, SolverConfig, TheoryBudget};

fn solve(src: &str) -> SatResult {
    SmtSolver::new().solve_str(src).expect("parse").result
}

/// Weak blocking clauses once made this Proposition-2 instance (the
/// Fig. 4/5 seeds fused additively) exhaust 40 lazy-loop iterations and
/// return `unknown`; unsat-core minimization decides it in ≤3.
#[test]
fn unsat_fusion_with_additive_inversion_is_refuted() {
    let out = SmtSolver::new()
        .solve_str(
            "(set-logic QF_LRA)
             (declare-fun x_p1 () Real)
             (declare-fun v_p2 () Real) (declare-fun w_p2 () Real)
             (declare-fun y_p2 () Real) (declare-fun z () Real)
             (assert (or
               (not (= (+ (+ 1.0 x_p1) 6.0) (+ 7.0 (- z v_p2))))
               (and (< y_p2 (- z x_p1)) (>= w_p2 v_p2)
                    (< (/ w_p2 v_p2) 0) (> y_p2 0))))
             (assert (= z (+ x_p1 v_p2)))
             (assert (= x_p1 (- z v_p2)))
             (assert (= v_p2 (- z x_p1)))
             (check-sat)",
        )
        .expect("parse");
    assert_eq!(out.result, SatResult::Unsat);
    assert!(out.iterations <= 10, "took {} blocking iterations", out.iterations);
}

/// `str.indexof` with a needle longer than the haystack used to slice out
/// of bounds in the evaluator.
#[test]
fn indexof_needle_longer_than_haystack() {
    assert_eq!(
        solve(
            r#"(declare-fun x () Int)
               (assert (= x (str.indexof "ab" "abcdef" 0)))
               (assert (= x (- 1))) (check-sat)"#
        ),
        SatResult::Sat
    );
}

/// Parser/printer asymmetry for negative non-decimal rationals
/// (`(- (/ 4.0 3.0))`) used to break AST round-trips.
#[test]
fn negative_rational_constant_roundtrip() {
    let src = "(declare-fun x () Real) (assert (= x (- (/ 4.0 3.0)))) (check-sat)";
    let s1 = yinyang_smtlib::parse_script(src).unwrap();
    let s2 = yinyang_smtlib::parse_script(&s1.to_string()).unwrap();
    assert_eq!(s1, s2);
    assert_eq!(solve(src), SatResult::Sat);
}

/// The bounded string search used to charge budget only for non-pruned
/// DFS nodes, letting pruned candidates evaluate literals without limit
/// (~60 s on 8-variable fused QF_SLIA formulas). Any such formula must now
/// return within the budget — enforced here with a wall-clock guard.
#[test]
fn many_string_vars_stay_within_budget() {
    let src = r#"(set-logic QF_SLIA)
        (declare-fun a () String) (declare-fun b () String)
        (declare-fun c () String) (declare-fun d () String)
        (declare-fun e () String) (declare-fun f () String)
        (declare-fun g () String) (declare-fun h () String)
        (assert (= (str.++ a b) (str.++ c d)))
        (assert (not (str.contains (str.++ e f) (str.++ g h))))
        (assert (>= (str.indexof (str.replace a b c) d 0) (- 1)))
        (assert (= (str.len (str.++ e g)) (+ (str.len a) 2)))
        (check-sat)"#;
    let solver = SmtSolver::with_config(SolverConfig {
        theory: TheoryBudget { search_candidates: 50, interval_rounds: 4, bb_nodes: 80 },
        max_iterations: 8,
        ..SolverConfig::default()
    });
    let start = std::time::Instant::now();
    let _ = solver.solve_str(src).expect("parse");
    assert!(
        start.elapsed().as_secs() < 20,
        "string search escaped its budget: {:?}",
        start.elapsed()
    );
}

/// `(- 1)` parsed as a literal must equal the constructed negative literal
/// (Term::neg folds constants like the parser does).
#[test]
fn unary_minus_literal_identity() {
    use yinyang_smtlib::{parse_term, Term};
    assert_eq!(parse_term("(- 1)").unwrap(), Term::int(-1));
    assert_eq!(Term::neg(Term::int(1)), Term::int(-1));
    assert_eq!(parse_term("(- 1.5)").unwrap(), Term::real_frac(-3, 2));
}

/// GCD preprocessing: `2x + 2y = 5` has no integer solutions, and
/// branch-and-bound alone cannot prove it on unbounded variables.
#[test]
fn gcd_test_refutes_parity_equation() {
    assert_eq!(
        solve(
            "(declare-fun x () Int) (declare-fun y () Int)
             (assert (= (+ (* 2 x) (* 2 y)) 5)) (check-sat)"
        ),
        SatResult::Unsat
    );
}

/// Congruence substitution must not rewrite inside the defining equality
/// itself (that would erase the constraint).
#[test]
fn congruence_keeps_definitions() {
    // z = x·y and a use of x·y: both constraints must survive.
    assert_eq!(
        solve(
            "(declare-fun x () Int) (declare-fun y () Int) (declare-fun z () Int)
             (assert (= z (* x y)))
             (assert (> (* x y) 5))
             (assert (< z 3)) (check-sat)"
        ),
        SatResult::Unsat
    );
}

/// Interval strictness through multiplication: the 0·∞ corner must stay
/// strict when the zero endpoint is strict (paper φ4's refutation).
#[test]
fn strict_zero_interval_corner() {
    assert_eq!(
        solve(
            "(declare-fun a () Real) (declare-fun b () Real)
             (assert (> a 0)) (assert (> b 0))
             (assert (< (* a b) 0)) (check-sat)"
        ),
        SatResult::Unsat
    );
}

/// Interval products once made a corner open whenever either endpoint was
/// open, even when the other factor was an attained 0: `0.0 / v0` with
/// `v0 > 2` became the empty interval `(0, 0)`, refuting a satisfiable
/// script (`v0 = 5/2` satisfies it).
#[test]
fn attained_zero_divided_by_open_interval_is_zero() {
    assert_eq!(
        solve(
            "(declare-fun v0 () Real)
             (assert (> v0 2.0))
             (assert (= (/ 0.0 v0) 0.0)) (check-sat)"
        ),
        SatResult::Sat
    );
}

/// Scripts at the parser's nesting limit solve on the default stack of a
/// spawned thread, as campaign workers run them.
#[test]
fn scripts_at_the_nesting_limit_solve_on_a_spawned_thread() {
    let n = yinyang_smtlib::MAX_NESTING;
    let nots = format!(
        "(declare-fun x () Bool)(assert {}x{})(check-sat)",
        "(not ".repeat(n),
        ")".repeat(n)
    );
    let sums = format!(
        "(declare-fun x () Int)(assert (= {}x{} 0))(check-sat)",
        "(+ 1 ".repeat(n - 1),
        ")".repeat(n - 1)
    );
    let results = std::thread::spawn(move || [solve(&nots), solve(&sums)])
        .join()
        .expect("no stack overflow at the nesting limit");
    assert_eq!(results, [SatResult::Sat, SatResult::Sat]);
}
