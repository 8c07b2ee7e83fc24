//! Smoke sizes of every workload: the output checks pass, every printed
//! metric is declared in `BENCHMARK.json`, and the deterministic counts
//! repeat exactly between two runs of one seed.

use std::sync::Mutex;
use yinyang_campaign_bench::{fig8, reduce, selfcheck, Args, Outcome};
use yinyang_rt::json::Json;

/// Coverage probes and the span recorder are process-wide, so the tests
/// take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = json.get(key) else { panic!("BENCHMARK.json lacks {key}") };
    metrics
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_declared(outcome: &Outcome, key: &str) {
    let printed: Vec<(String, String)> =
        outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect();
    assert_eq!(printed, declared(key), "printed {key} metrics differ from BENCHMARK.json");
}

/// A run of one unit (or the traced units) with no deadline: every unit
/// runs to its end, however long its solves take.
fn args(workload: &str, trace: bool) -> Args {
    Args { seconds: 0.0, trace, threads: 2, ..Args::new(workload, 7) }
}

/// Everything a finding and its job record say, metrics and trace events
/// aside.
fn describe(found: &[reduce::Finding]) -> Vec<String> {
    found
        .iter()
        .map(|(f, fx)| {
            let job = (fx.round, fx.job_index, fx.rng_seed, &fx.fixed);
            format!("{f:?} from job (round, index, stream, fixed) {job:?}")
        })
        .collect()
}

fn assert_clean(outcome: &Outcome) {
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
}

#[test]
fn fig8_checks_pass_and_counts_repeat() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = fig8::Params::smoke();
    let first = fig8::traced_unit(&p, 7);
    assert!(first.violations.is_empty(), "{:#?}", first.violations);
    assert!(first.counts.solver_calls > 0 && first.counts.faults_fired > 0);
    let second = fig8::traced_unit(&p, 7);
    assert_eq!(first.counts, second.counts);
    assert_eq!(first.attempted, second.attempted);

    let untraced = fig8::run(&args("fig8", false), &p).expect("fig8 runs");
    assert_clean(&untraced);
    assert_declared(&untraced, "end_to_end");
    let traced = fig8::run(&args("fig8", true), &p).expect("fig8 runs");
    assert_clean(&traced);
    assert_declared(&traced, "per_layer");
}

#[test]
fn selfcheck_checks_pass_and_counts_repeat() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = selfcheck::Params::SMOKE;
    let reference = selfcheck::Reference::default();
    let first = selfcheck::traced_round(&reference, &p, 7);
    assert!(first.violations.is_empty(), "{:#?}", first.violations);
    assert!(first.counts.solver_calls > 0 && first.counts.seedgen_calls > 0);
    let second = selfcheck::traced_round(&reference, &p, 7);
    assert_eq!(first.counts, second.counts);

    let untraced = selfcheck::run(&args("selfcheck", false), &p).expect("selfcheck runs");
    assert_clean(&untraced);
    assert_declared(&untraced, "end_to_end");
    let traced = selfcheck::run(&args("selfcheck", true), &p).expect("selfcheck runs");
    assert_clean(&traced);
    assert_declared(&traced, "per_layer");
}

#[test]
fn reduce_checks_pass_and_counts_repeat() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = reduce::Params::smoke();
    let (found, _) = reduce::setup(&p, 7);
    assert!(!found.is_empty(), "the smoke campaign finds something to reduce");
    assert_eq!(
        describe(&found),
        describe(&reduce::campaign_findings(&p, 7)),
        "the set-up finds what the campaign reports"
    );
    let dir =
        yinyang_campaign_bench::out_dir().join(format!("smoke-reduce-{}", std::process::id()));
    let first = reduce::traced_unit(&p, &found, 0, &dir);
    assert!(first.violations.is_empty(), "{:#?}", first.violations);
    assert!(first.counts.reduce_calls > 0 && first.counts.reduce_candidates > 0);
    let second = reduce::traced_unit(&p, &found, 0, &dir);
    assert_eq!(first.counts, second.counts);

    let untraced = reduce::run(&args("reduce", false), &p).expect("reduce runs");
    assert_clean(&untraced);
    assert_declared(&untraced, "end_to_end");
    let traced = reduce::run(&args("reduce", true), &p).expect("reduce runs");
    assert_clean(&traced);
    assert_declared(&traced, "per_layer");
}

#[test]
fn checks_reject_outputs_that_break_the_method() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A finding that names a bug other than the one its script fires.
    let p = fig8::Params::smoke();
    let mut run = yinyang_campaign::experiments::fig8_campaign_full(&p.config(7));
    let finding = run
        .result
        .zirkon
        .findings
        .iter_mut()
        .chain(run.result.corvus.findings.iter_mut())
        .next()
        .expect("the smoke campaign has a finding");
    finding.bug_id = finding.bug_id.map(|id| id + 1000);
    let mut violations = Vec::new();
    fig8::check(&run, &p, &mut violations);
    assert!(!violations.is_empty(), "a wrong bug id must be caught");

    // A reference answer that contradicts the construction oracle.
    let reference = selfcheck::Reference::default();
    let mut tests =
        selfcheck::round(&reference, &selfcheck::Params::SMOKE, 7, &mut Default::default());
    let test = tests.first_mut().expect("a smoke round has tests");
    test.answer = match test.fused.oracle {
        yinyang_core::Oracle::Sat => yinyang_core::SolverAnswer::Unsat,
        yinyang_core::Oracle::Unsat => yinyang_core::SolverAnswer::Sat,
    };
    let mut violations = Vec::new();
    selfcheck::check(&tests, &mut violations);
    assert!(!violations.is_empty(), "a wrong verdict must be caught");

    // A bundle that regress does not classify still-broken, and one whose
    // reduced script no longer fires the bug.
    let p = reduce::Params::smoke();
    let (found, _) = reduce::setup(&p, 7);
    let picks = p.picks(0, found.len());
    let dir =
        yinyang_campaign_bench::out_dir().join(format!("smoke-tamper-{}", std::process::id()));
    let mut written = reduce::unit(&found, &picks, &dir).expect("bundles are written");
    let mut violations = Vec::new();
    reduce::check(&found, &picks, &written, &mut violations);
    assert!(violations.is_empty(), "{violations:#?}");
    let status = std::mem::replace(&mut written.statuses[0], "fixed".into());
    reduce::check(&found, &picks, &written, &mut violations);
    assert!(!violations.is_empty(), "a bundle regress calls fixed must be caught");
    written.statuses[0] = status;
    violations.clear();
    let bundle = reduce::bundle_dir(&written.roots[0]).expect("one bundle per root");
    std::fs::write(bundle.join("reduced.smt2"), "(set-logic ALL)\n(check-sat)\n")
        .expect("reduced.smt2 is writable");
    reduce::check(&found, &picks, &written, &mut violations);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!violations.is_empty(), "a reduced script that loses the bug must be caught");
}

#[test]
fn only_division_by_a_variable_is_left_out() {
    let script = |assert: &str| {
        let text = format!(
            "(set-logic QF_NRA)(declare-fun v0 () Real)(assert (> v0 2.0)){assert}(check-sat)"
        );
        yinyang_smtlib::parse_script(&text).expect("the script parses")
    };
    assert!(fig8::divides_by_variable(&script("(assert (= (/ 0.0 v0) 0.0))")));
    assert!(fig8::divides_by_variable(&script("(assert (= (/ 1.0 2.0 (- v0 1.0)) 0.5))")));
    assert!(!fig8::divides_by_variable(&script("(assert (= (/ v0 3.0) 1.0))")));
    assert!(!fig8::divides_by_variable(&script("(assert (= (/ v0 (* 0.0 3.0)) 1.0))")));
    assert!(!fig8::divides_by_variable(&script("")));
}

#[test]
fn the_command_measures_in_a_worker_and_prints_one_result() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let command = |workload: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
            .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"])
            .output()
            .expect("the command starts")
    };
    let out = command("reduce");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_i64).is_some_and(|n| n > 0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("no metrics in {stdout}") };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.get("unit").and_then(Json::as_str).unwrap_or("").into()))
        .collect();
    assert_eq!(printed, declared("end_to_end"));

    let unknown = command("nosuch");
    assert!(!unknown.status.success() && unknown.stdout.is_empty());
}
