//! `fig8`: the Fig. 8 campaign through `fig8_campaign_full`: both trunk
//! personas, all nine Fig. 7 benchmarks, three fix-and-retest rounds as
//! the documented campaign runs them, `nproc` threads, but one fused test
//! per pool per round instead of 20, so that a run holds many small
//! campaigns. An operation is one fused test. A job whose seed pair has no
//! fusible variable pair makes no test; such jobs show as
//! `core.fuse.failures` in the traced run.
//!
//! The campaign offers no hook inside a round, so the traced run repeats
//! the same rounds from this file — pools, per-job RNG streams, the
//! executor at the same thread count, fix-and-retest — with a span around
//! each layer call, and checks that it drew the same tests as the program.

use crate::layers::{self, Counts, Traced};
use crate::{span, Args, Done, Outcome};
use std::collections::BTreeSet;
use std::time::Instant;
use yinyang_campaign::config::fast_solver_config;
use yinyang_campaign::experiments::{fig8_campaign_full, Fig8Run};
use yinyang_campaign::{Behavior, CampaignConfig, CampaignOutcome, FindingForensics, RawFinding};
use yinyang_core::{run_catching, Fuser, Oracle, SolverAnswer, SolverUnderTest};
use yinyang_faults::{bugs_of, Action, BugClass, BugStatus, FaultySolver, SolverId};
use yinyang_rt::{metrics, MetricsSnapshot, Rng, StdRng};
use yinyang_seedgen::profile::{fig7_profile, generate_row, scaled};
use yinyang_seedgen::Seed;
use yinyang_smtlib::{parse_script, Op, Script, TermKind};
use yinyang_solver::SmtSolver;

/// Seed of the warm-up campaign that makes up `fig8`'s set-up. It is
/// fixed, so set-up time does not vary with the workload seed.
const WARMUP_SEED: u64 = 1;

/// Campaign size of one unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Fig. 7 scale (`1:scale` of the paper's seed counts).
    pub scale: usize,
    /// Fused tests per (benchmark, oracle) pool per round.
    pub iterations: usize,
    /// Fix-and-retest rounds.
    pub rounds: usize,
    /// Campaign threads.
    pub threads: usize,
}

impl Params {
    /// The measured size.
    pub fn full(threads: usize) -> Params {
        Params { scale: 400, iterations: 1, rounds: 3, threads }
    }

    /// The measured size, or the size `--iterations` and `--rounds` set.
    pub fn of(args: &Args) -> Params {
        let p = Params::full(args.threads);
        match args.fig8_size {
            Some((iterations, rounds)) => Params { iterations, rounds, ..p },
            None => p,
        }
    }

    /// The size the benchmark's own tests run.
    pub fn smoke() -> Params {
        Params { scale: 1600, iterations: 1, rounds: 2, threads: 2 }
    }

    /// The campaign configuration of one unit.
    pub fn config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            scale: self.scale,
            iterations: self.iterations,
            rounds: self.rounds,
            rng_seed: seed,
            threads: self.threads,
            ..Default::default()
        }
    }

    /// Jobs per persona: one per (pool, iteration, round), where a pool is
    /// a Fig. 7 row's sat or unsat seeds at this scale.
    pub fn jobs_per_persona(&self) -> usize {
        let pools: usize = fig7_profile()
            .iter()
            .map(|r| {
                usize::from(scaled(r.sat, self.scale) > 0)
                    + usize::from(scaled(r.unsat, self.scale) > 0)
            })
            .sum();
        pools * self.iterations * self.rounds
    }
}

/// Deterministic totals of one campaign, both personas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    /// Fused tests run, those left out aside.
    pub tests: u64,
    /// Of those, tests the persona answered `sat` or `unsat`.
    pub decided: u64,
    /// Tests left out: findings whose wrong `sat` or `unsat` the bug-free
    /// reference repeats on a script that divides by a variable (see
    /// [`divides_by_variable`]). Such a test fails on some seeds only, by
    /// a fault of the solver rather than of the campaign, so it is neither
    /// counted nor failed.
    pub left_out: u64,
}

/// Whether `script` divides by a term with a variable in it. The solver's
/// interval bounds can be wrong on such scripts: `Interval::mul` makes a
/// corner product open whenever either endpoint is open, so `0 × (0, 1/2)`
/// comes out as the empty `(0, 0)` and the solver answers
/// `(> v0 2.0) (= (/ 0.0 v0) 0.0)` unsat. Seeds of that shape come up on
/// some workload seeds only, and the solver under every persona, the
/// bug-free reference too, can answer the tests fused from them wrongly.
pub fn divides_by_variable(script: &Script) -> bool {
    script.asserts().iter().any(|a| {
        a.any_subterm(&mut |t| match t.kind() {
            TermKind::App(Op::RealDiv, args) => {
                args.iter().skip(1).any(|d| !d.free_vars().is_empty())
            }
            _ => false,
        })
    })
}

fn personas(run: &Fig8Run) -> [(SolverId, &CampaignOutcome, &[FindingForensics]); 2] {
    [
        (SolverId::Zirkon, &run.result.zirkon, &run.zirkon_forensics),
        (SolverId::Corvus, &run.result.corvus, &run.corvus_forensics),
    ]
}

/// The persona as a finding's job saw it: trunk, campaign limits, and the
/// round's fix-and-retest state.
pub fn rebuild(id: SolverId, fixed: &[u32]) -> FaultySolver {
    let mut solver = FaultySolver::trunk(id);
    solver.set_base_config(fast_solver_config());
    for &bug in fixed {
        solver.apply_fix(bug);
    }
    solver
}

/// The bug-free reference persona with campaign limits.
pub fn reference(id: SolverId) -> FaultySolver {
    let mut solver = FaultySolver::reference(id);
    solver.set_base_config(fast_solver_config());
    solver
}

/// Checks a campaign's output against the fault model and the reference:
/// every job ran; every finding names an injected bug of its persona whose
/// trigger fires on the re-parsed script under that round's fix state and
/// whose action is the finding's behaviour; and the bug-free reference
/// never gives the finding's wrong answer or crashes on that script. A
/// finding whose wrong answer the reference repeats on a script that
/// divides by a variable is left out ([`Totals::left_out`]).
pub fn check(run: &Fig8Run, p: &Params, violations: &mut Vec<String>) -> Totals {
    let mut t = Totals::default();
    for (id, outcome, forensics) in personas(run) {
        let s = &outcome.stats;
        t.tests += s.tests as u64;
        let crashes = outcome
            .findings
            .iter()
            .filter(|f| matches!(f.behavior, Behavior::Crash { .. }))
            .count();
        t.decided += (s.tests - s.unknowns - crashes) as u64;
        if s.tests + s.fusion_failures != p.jobs_per_persona() {
            violations.push(format!(
                "{}: {} tests + {} fusion failures, expected {} jobs",
                id.name(),
                s.tests,
                s.fusion_failures,
                p.jobs_per_persona()
            ));
        }
        if forensics.len() != outcome.findings.len() {
            violations.push(format!("{}: forensics and findings differ in length", id.name()));
        }
        let bugs = bugs_of(id);
        let reference = reference(id);
        for (f, fx) in outcome.findings.iter().zip(forensics) {
            let at = format!("{} round {} job {}", f.solver, fx.round, fx.job_index);
            let Ok(script) = parse_script(&f.script) else {
                violations.push(format!("{at}: finding script does not re-parse"));
                continue;
            };
            let answer = run_catching(&reference, &script);
            let wrong = match &f.behavior {
                Behavior::Incorrect { got, .. } => answer.as_str() == got,
                _ => false,
            };
            if wrong && divides_by_variable(&script) {
                eprintln!(
                    "{at}: left out: the bug-free reference also answers {} on a script that \
                     divides by a variable",
                    answer.as_str()
                );
                t.left_out += 1;
                continue;
            }
            if wrong || matches!(answer, SolverAnswer::Crash(_)) {
                violations.push(format!("{at}: the reference also answers {}", answer.as_str()));
            }
            let Some(bug) = f.bug_id.and_then(|b| bugs.iter().find(|x| x.id == b)) else {
                violations.push(format!("{at}: finding names no injected bug of its persona"));
                continue;
            };
            let fired = rebuild(id, &fx.fixed).triggered_bug(&script).map(|b| b.id);
            if fired != Some(bug.id) {
                violations.push(format!("{at}: bug {} does not fire (fired {fired:?})", bug.id));
            }
            let action_matches = match (&bug.action, &f.behavior) {
                (Action::ForceSat, Behavior::Incorrect { got, expected }) => {
                    got == "sat" && expected == "unsat"
                }
                (Action::ForceUnsat, Behavior::Incorrect { got, expected }) => {
                    got == "unsat" && expected == "sat"
                }
                (Action::Panic(_), Behavior::Crash { .. }) => true,
                (Action::ReportUnknown, Behavior::SpuriousUnknown) => true,
                _ => false,
            };
            if !action_matches {
                violations.push(format!(
                    "{at}: behaviour {:?} is not bug {}'s action",
                    f.behavior, bug.id
                ));
            }
        }
    }
    t.tests -= t.left_out;
    t.decided -= t.left_out;
    t
}

/// Runs the workload.
pub fn run(args: &Args, p: &Params) -> Result<Outcome, String> {
    let seed = args.seed;
    if args.trace {
        let units = TRACED_TESTS.div_ceil(2 * p.jobs_per_persona()).max(1) as u64;
        return crate::traced_run(
            args,
            units,
            || Ok(()),
            |_, k| traced_unit(p, crate::unit_seed(seed, k)),
        );
    }
    let warmup = Params { iterations: 1, rounds: 1, ..*p }.config(WARMUP_SEED);
    crate::measured_run(
        args,
        || Ok(crate::timed_setup(args, || fig8_campaign_full(&warmup))),
        |_, k| {
            let config = p.config(crate::unit_seed(seed, k));
            let watch = crate::Stopwatch::start();
            let run = fig8_campaign_full(&config);
            let (secs, cpu) = watch.read();
            let mut violations = Vec::new();
            let t = check(&run, p, &mut violations);
            Done { ops: t.tests, decided: t.decided, secs, cpu, violations, ..Done::default() }
        },
    )
}

/// Campaign jobs (fused tests and fusion failures) a traced run covers at
/// least, in whole units.
pub const TRACED_TESTS: usize = 800;

/// One traced unit of `fig8`: the program call (for its outputs, CPU and
/// idle time), then the same rounds repeated from this file, without and
/// then with spans; both repetitions must draw the program's tests.
pub fn traced_unit(p: &Params, seed: u64) -> Traced {
    let config = p.config(seed);
    let cpu0 = crate::cpu_seconds();
    let start = Instant::now();
    let run = fig8_campaign_full(&config);
    let program_s = start.elapsed().as_secs_f64();
    let cpu_s = crate::cpu_seconds() - cpu0;
    let mut t = Traced {
        cpu_s,
        idle_s: p.threads as f64 * program_s - cpu_s,
        program_s,
        ..Traced::default()
    };
    t.attempted = check(&run, p, &mut t.violations).tests;
    let mut untraced = Counts::default();
    let hits0 = layers::probe_hits();
    let start = Instant::now();
    let plain = replica(&config, Answer::All, &mut untraced);
    t.untraced_s = start.elapsed().as_secs_f64();
    untraced.probe_hits = layers::probe_hits() - hits0;
    let ((personas_run, probe_hits, traced_s), spans) = span::recording(|| {
        let hits0 = layers::probe_hits();
        let start = Instant::now();
        let personas_run = replica(&config, Answer::All, &mut t.counts);
        (personas_run, layers::probe_hits() - hits0, start.elapsed().as_secs_f64())
    });
    t.counts.probe_hits = probe_hits;
    t.traced_s = traced_s;
    t.spans = spans;
    for repetition in [&plain, &personas_run] {
        for ((id, outcome, _), replica) in personas(&run).into_iter().zip(repetition) {
            compare(id, outcome, replica, &mut t.violations);
        }
    }
    if untraced != t.counts {
        t.violations.push("the repetitions without and with spans count differently".into());
    }
    t
}

/// One persona's campaign as the traced repetition saw it.
#[derive(Debug, Clone, Default)]
pub struct PersonaRun {
    /// Fused tests run.
    pub tests: usize,
    /// `unknown` answers.
    pub unknowns: usize,
    /// Fusion failures.
    pub fusion_failures: usize,
    /// Findings, in job order.
    pub findings: Vec<RawFinding>,
    /// The job record of each finding, as the campaign keeps it (without
    /// trace events).
    pub forensics: Vec<FindingForensics>,
}

/// Which jobs a repetition answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Every job, as the campaign does.
    All,
    /// Only the jobs on which an injected bug fires. Every finding comes
    /// from such a job — the solver under a persona is bug-free, and a
    /// spurious unknown needs a fired bug — and a persona whose bug fires
    /// answers without solving. So this yields the campaign's findings
    /// without its solves, none of which can run for minutes.
    Firing,
}

fn compare(
    id: SolverId,
    report: &CampaignOutcome,
    replica: &PersonaRun,
    violations: &mut Vec<String>,
) {
    let s = &report.stats;
    let same_findings = report.findings.len() == replica.findings.len()
        && report.findings.iter().zip(&replica.findings).all(|(a, b)| {
            (&a.solver, a.bug_id, &a.behavior, &a.logic, &a.benchmark, a.round)
                == (&b.solver, b.bug_id, &b.behavior, &b.logic, &b.benchmark, b.round)
                && (&a.script, &a.seeds, &a.oracle) == (&b.script, &b.seeds, &b.oracle)
        });
    if (s.tests, s.unknowns, s.fusion_failures)
        != (replica.tests, replica.unknowns, replica.fusion_failures)
        || !same_findings
    {
        violations.push(format!(
            "{}: traced repetition drew other tests than the campaign: \
             report {} tests / {} unknowns / {} findings, repetition {} / {} / {}",
            id.name(),
            s.tests,
            s.unknowns,
            report.findings.len(),
            replica.tests,
            replica.unknowns,
            replica.findings.len()
        ));
    }
}

struct Pool {
    benchmark: &'static str,
    oracle: Oracle,
    seeds: Vec<Seed>,
}

struct JobOut {
    tests: usize,
    unknowns: usize,
    fusion_failures: usize,
    finding: Option<RawFinding>,
    counts: Counts,
    metrics: MetricsSnapshot,
}

/// The campaign's rounds for both personas, repeated with a span around
/// each layer call: the same pools, per-job RNG streams and
/// fix-and-retest, on the same number of threads.
pub fn replica(config: &CampaignConfig, answer: Answer, counts: &mut Counts) -> Vec<PersonaRun> {
    let fuser = Fuser::new();
    let mut telemetry = MetricsSnapshot::default();
    let mut out = Vec::new();
    for (persona_index, id) in [SolverId::Zirkon, SolverId::Corvus].into_iter().enumerate() {
        let mut run = PersonaRun::default();
        let mut fixed: BTreeSet<u32> = BTreeSet::new();
        for round in 0..config.rounds {
            let _round = span::span("campaign.round");
            let round_seed = config.rng_seed ^ (round as u64).wrapping_mul(0x9E37_79B9);
            let mut rng = StdRng::seed_from_u64(round_seed);
            let mut pools = Vec::new();
            for row in fig7_profile() {
                let seeds = {
                    let _span = span::span("seedgen");
                    counts.seedgen_calls += 1;
                    generate_row(&mut rng, &row, config.scale)
                };
                for oracle in [Oracle::Sat, Oracle::Unsat] {
                    let subset: Vec<Seed> =
                        seeds.iter().filter(|s| s.oracle == oracle).cloned().collect();
                    if !subset.is_empty() {
                        pools.push(Pool { benchmark: row.name, oracle, seeds: subset });
                    }
                }
            }
            let jobs: Vec<(usize, u64)> = (0..pools.len() * config.iterations)
                .map(|index| {
                    let stream =
                        round_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (index / config.iterations, crate::mix64(stream))
                })
                .collect();
            let parent = span::current();
            let fixed_now: Vec<u32> = fixed.iter().copied().collect();
            let job_base = ((persona_index * config.rounds + round) as u64) << 32;
            let results = crate::parallel_map(config.threads, &jobs, |index, &(pool, seed)| {
                span::within(parent, job_base + index as u64, || {
                    job(id, round, &fixed_now, &fuser, &pools[pool], seed, answer)
                })
            });
            let mut round_findings = Vec::new();
            for (job_index, r) in results.into_iter().enumerate() {
                counts.add(&r.counts);
                {
                    let _span = span::span("rt.metrics");
                    telemetry.merge(&r.metrics);
                }
                run.tests += r.tests;
                run.unknowns += r.unknowns;
                run.fusion_failures += r.fusion_failures;
                if r.finding.is_some() {
                    run.forensics.push(FindingForensics {
                        round,
                        job_index,
                        rng_seed: jobs[job_index].1,
                        fixed: fixed_now.clone(),
                        metrics: r.metrics,
                        events: Vec::new(),
                    });
                }
                round_findings.extend(r.finding);
            }
            {
                let _span = span::span("campaign.triage");
                for f in &round_findings {
                    let Some(bug_id) = f.bug_id else { continue };
                    let confirmed_fixed = yinyang_faults::registry().into_iter().any(|b| {
                        b.id == bug_id && matches!(b.status, BugStatus::Confirmed { fixed: true })
                    });
                    if confirmed_fixed {
                        fixed.insert(bug_id);
                    }
                }
            }
            run.findings.extend(round_findings);
        }
        out.push(run);
    }
    out
}

/// One fused test: draw the pair, fuse, answer with the persona (unless
/// `answer` skips the job), compare with the construction oracle —
/// bracketed by the per-job metrics snapshots the campaign takes.
fn job(
    id: SolverId,
    round: usize,
    fixed: &[u32],
    fuser: &Fuser,
    pool: &Pool,
    seed: u64,
    answer: Answer,
) -> JobOut {
    let _job = span::span("campaign.job");
    let before = {
        let _span = span::span("rt.metrics");
        metrics::local_snapshot()
    };
    let mut counts = Counts::default();
    let mut out = JobOut {
        tests: 0,
        unknowns: 0,
        fusion_failures: 0,
        finding: None,
        counts: Counts::default(),
        metrics: MetricsSnapshot::default(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let s1 = rng.random_range(0..pool.seeds.len());
    let s2 = rng.random_range(0..pool.seeds.len());
    let fused = {
        let _span = span::span("core.fuse");
        counts.fuse_calls += 1;
        fuser.fuse(&mut rng, pool.oracle, &pool.seeds[s1].script, &pool.seeds[s2].script)
    };
    let persona = {
        let _span = span::span("faults");
        rebuild(id, fixed)
    };
    match fused {
        Err(_) => {
            counts.fuse_failures += 1;
            out.fusion_failures = 1;
        }
        Ok(fused) if answer == Answer::Firing && persona.triggered_bug(&fused.script).is_none() => {
            out.tests = 1;
        }
        Ok(fused) => {
            out.tests = 1;
            let base = SmtSolver::with_config(fast_solver_config());
            let (answer, fired) =
                layers::persona_answer(&persona, &base, &fused.script, pool.benchmark, &mut counts);
            let behavior = match &answer {
                SolverAnswer::Crash(message) => Some(Behavior::Crash { message: message.clone() }),
                SolverAnswer::Unknown => {
                    out.unknowns = 1;
                    matches!(fired, Some((_, BugClass::Performance | BugClass::Unknown)))
                        .then_some(Behavior::SpuriousUnknown)
                }
                SolverAnswer::Sat | SolverAnswer::Unsat => {
                    (answer.as_str() != pool.oracle.to_string()).then(|| Behavior::Incorrect {
                        got: answer.as_str().to_owned(),
                        expected: pool.oracle.to_string(),
                    })
                }
            };
            if let Some(behavior) = behavior {
                out.finding = Some(RawFinding {
                    solver: persona.name(),
                    bug_id: fired.map(|(bug, _)| bug),
                    behavior,
                    logic: fused.script.logic().unwrap_or("ALL").to_owned(),
                    benchmark: pool.benchmark.to_owned(),
                    round,
                    script: layers::print(&fused.script, &mut counts),
                    seeds: (
                        layers::print(&pool.seeds[s1].script, &mut counts),
                        layers::print(&pool.seeds[s2].script, &mut counts),
                    ),
                    oracle: pool.oracle.to_string(),
                });
            }
        }
    }
    out.metrics = {
        let _span = span::span("rt.metrics");
        metrics::local_snapshot().delta(&before)
    };
    out.counts = counts;
    out
}
