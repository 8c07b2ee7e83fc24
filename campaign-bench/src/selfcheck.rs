//! `selfcheck`: the bug-free reference persona on fused tests from all nine
//! Fig. 7 benchmarks, on one thread, without the campaign executor. An
//! operation is one fused test; it fails when the solver panics. Its
//! outputs have an independent oracle: fusion's construction (Props. 1
//! and 2).
//!
//! A unit is one round: fresh Fig. 7 seed pools from the round's seed, as
//! the campaign generates them each round, then one fused test from every
//! (benchmark, oracle) pool, each on its own RNG stream. Set-up is a
//! warm-up round on a fixed seed.

use crate::fig8::{divides_by_variable, reference};
use crate::layers::{self, Counts, Traced};
use crate::{span, Args, Done, Outcome};
use std::time::Instant;
use yinyang_campaign::config::fast_solver_config;
use yinyang_core::oracle::{model_satisfies_fused, proposition1_model};
use yinyang_core::{Fused, Fuser, Oracle, SolverAnswer};
use yinyang_faults::{FaultySolver, SolverId};
use yinyang_rt::{Rng, StdRng};
use yinyang_seedgen::profile::{fig7_profile, generate_row};
use yinyang_seedgen::Seed;
use yinyang_smtlib::{Model, Symbol};
use yinyang_solver::SmtSolver;

/// Seed of the warm-up round that makes up `selfcheck`'s set-up; fixed,
/// so set-up time does not vary with the workload seed.
const WARMUP_SEED: u64 = 1;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Fig. 7 scale (`1:scale` of the paper's seed counts) of the pools.
    pub scale: usize,
    /// Rounds in a traced run; untraced runs go on for `--seconds`.
    pub traced_rounds: usize,
}

impl Params {
    /// The measured size.
    pub const FULL: Params = Params { scale: 400, traced_rounds: 40 };
    /// The size the benchmark's own tests run.
    pub const SMOKE: Params = Params { scale: 1600, traced_rounds: 2 };
}

/// One (benchmark, oracle) seed pool.
pub struct Pool {
    /// Fig. 7 benchmark name.
    pub benchmark: &'static str,
    /// Satisfiability of every seed in the pool.
    pub oracle: Oracle,
    /// The seeds.
    pub seeds: Vec<Seed>,
}

/// Generates the Fig. 7 seed pools for `seed`.
pub fn pools(p: &Params, seed: u64, counts: &mut Counts) -> Vec<Pool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pools = Vec::new();
    for row in fig7_profile() {
        let seeds = {
            let _span = span::span("seedgen");
            counts.seedgen_calls += 1;
            generate_row(&mut rng, &row, p.scale)
        };
        for oracle in [Oracle::Sat, Oracle::Unsat] {
            let subset: Vec<Seed> = seeds.iter().filter(|s| s.oracle == oracle).cloned().collect();
            if !subset.is_empty() {
                pools.push(Pool { benchmark: row.name, oracle, seeds: subset });
            }
        }
    }
    pools
}

/// One fused test and the reference's answer.
pub struct Test {
    /// The fused script with its construction oracle and triplets.
    pub fused: Fused,
    /// Fig. 7 benchmark of the seeds.
    pub benchmark: &'static str,
    /// Witness models of the two seeds (sat seeds only).
    pub models: (Option<Model>, Option<Model>),
    /// The reference persona's answer.
    pub answer: SolverAnswer,
    /// Whether an injected bug fired on the reference (it has none).
    pub fired: bool,
}

/// The reference persona and the solver it wraps.
pub struct Reference {
    persona: FaultySolver,
    base: SmtSolver,
    fuser: Fuser,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            persona: reference(SolverId::Zirkon),
            base: SmtSolver::with_config(fast_solver_config()),
            fuser: Fuser::new(),
        }
    }
}

/// One round on `seed`: fresh pools, then one fused test from every pool,
/// each drawn on its own RNG stream. Fusion failures produce no test.
pub fn round(r: &Reference, p: &Params, seed: u64, counts: &mut Counts) -> Vec<Test> {
    let pools = pools(p, seed, counts);
    let mut tests = Vec::new();
    for (i, pool) in pools.iter().enumerate() {
        let stream = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(crate::mix64(stream));
        let s1 = &pool.seeds[rng.random_range(0..pool.seeds.len())];
        let s2 = &pool.seeds[rng.random_range(0..pool.seeds.len())];
        let fused = {
            let _span = span::span("core.fuse");
            counts.fuse_calls += 1;
            r.fuser.fuse(&mut rng, pool.oracle, &s1.script, &s2.script)
        };
        let Ok(fused) = fused else {
            counts.fuse_failures += 1;
            continue;
        };
        let (answer, fired) =
            layers::persona_answer(&r.persona, &r.base, &fused.script, pool.benchmark, counts);
        tests.push(Test {
            fused,
            benchmark: pool.benchmark,
            models: (s1.model.clone(), s2.model.clone()),
            answer,
            fired: fired.is_some(),
        });
    }
    tests
}

/// What the checks of some tests found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Fused tests, those left out aside.
    pub tests: u64,
    /// Tests answered `sat` or `unsat`.
    pub decided: u64,
    /// Tests whose solve panicked.
    pub panics: u64,
}

fn renamed(model: &Model, suffix: &str) -> Model {
    let mut out = Model::new();
    for (var, value) in model.iter() {
        out.set(Symbol::new(format!("{var}{suffix}")), value.clone());
    }
    out
}

/// Checks every answer against the construction oracle, and for sat tests
/// with division-free fusion functions and quantifier-free assertions,
/// that the Proposition 1 model built from the seeds' witnesses satisfies
/// the fused script. Division rows are exempt: they rely on SMT-LIB's
/// free division by zero. A wrong answer on a script that divides by a
/// variable is the solver's fault that `fig8` leaves out too
/// ([`divides_by_variable`]); it is left out of the tests.
pub fn check(tests: &[Test], violations: &mut Vec<String>) -> Totals {
    let mut t = Totals { tests: tests.len() as u64, ..Totals::default() };
    for test in tests {
        let oracle = test.fused.oracle;
        let at = format!("{} {oracle} test", test.benchmark);
        if test.fired {
            violations.push(format!("{at}: an injected bug fired on the reference"));
        }
        match &test.answer {
            SolverAnswer::Crash(_) => t.panics += 1,
            SolverAnswer::Unknown => {}
            answer
                if answer.as_str() != oracle.to_string()
                    && divides_by_variable(&test.fused.script) =>
            {
                eprintln!(
                    "{at}: left out: the reference answers {} on a script that divides by a \
                     variable",
                    answer.as_str()
                );
                t.tests -= 1;
                continue;
            }
            answer => {
                t.decided += 1;
                if answer.as_str() != oracle.to_string() {
                    violations.push(format!(
                        "{at}: reference answered {}\n{}",
                        answer.as_str(),
                        test.fused.script
                    ));
                }
            }
        }
        let (Some(m1), Some(m2)) = &test.models else { continue };
        let division_free = test.fused.triplets.iter().all(|tr| !tr.function.has_division());
        let quantifier_free = test.fused.script.asserts().iter().all(|a| !a.has_quantifier());
        if oracle != Oracle::Sat || !division_free || !quantifier_free {
            continue;
        }
        let holds = proposition1_model(&test.fused, &renamed(m1, "_p1"), &renamed(m2, "_p2"))
            .and_then(|m| model_satisfies_fused(&test.fused, &m));
        if !matches!(holds, Ok(true)) {
            violations.push(format!(
                "{at}: Proposition 1 model fails ({holds:?})\n{}",
                test.fused.script
            ));
        }
    }
    t
}

/// One traced unit of `selfcheck`: the round without spans, then again
/// with spans; both must count the same.
pub fn traced_round(reference: &Reference, p: &Params, seed: u64) -> Traced {
    let mut untraced = Counts::default();
    let hits0 = layers::probe_hits();
    let cpu0 = crate::cpu_seconds();
    let start = Instant::now();
    round(reference, p, seed, &mut untraced);
    let program_s = start.elapsed().as_secs_f64();
    let cpu_s = crate::cpu_seconds() - cpu0;
    untraced.probe_hits = layers::probe_hits() - hits0;
    let mut t = Traced {
        cpu_s,
        idle_s: program_s - cpu_s,
        program_s,
        untraced_s: program_s,
        ..Traced::default()
    };
    let ((tests, probe_hits, traced_s), spans) = span::recording(|| {
        let hits0 = layers::probe_hits();
        let start = Instant::now();
        let tests = round(reference, p, seed, &mut t.counts);
        (tests, layers::probe_hits() - hits0, start.elapsed().as_secs_f64())
    });
    t.counts.probe_hits = probe_hits;
    t.traced_s = traced_s;
    t.spans = spans;
    if untraced != t.counts {
        t.violations.push("the rounds without and with spans count differently".into());
    }
    let totals = check(&tests, &mut t.violations);
    t.attempted = totals.tests;
    t.failed = totals.panics;
    t
}

/// Runs the workload.
pub fn run(args: &Args, p: &Params) -> Result<Outcome, String> {
    let (reference, seed) = (Reference::default(), args.seed);
    if args.trace {
        return crate::traced_run(
            args,
            p.traced_rounds as u64,
            || Ok(()),
            |_, k| traced_round(&reference, p, crate::unit_seed(seed, k)),
        );
    }
    crate::measured_run(
        args,
        || {
            let warmup = || round(&reference, p, WARMUP_SEED, &mut Counts::default());
            Ok(crate::timed_setup(args, warmup))
        },
        |_, k| {
            let watch = crate::Stopwatch::start();
            let tests = round(&reference, p, crate::unit_seed(seed, k), &mut Counts::default());
            let (secs, cpu) = watch.read();
            let mut violations = Vec::new();
            let t = check(&tests, &mut violations);
            Done {
                ops: t.tests,
                decided: t.decided,
                failed: t.panics,
                secs,
                cpu,
                violations,
                cut_off: false,
            }
        },
    )
}
