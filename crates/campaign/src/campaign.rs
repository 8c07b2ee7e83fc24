//! The fuzzing campaign: Algorithm 1 in rounds against a fault-injected
//! persona, with the paper's fix-and-retest methodology.
//!
//! Every round fuses random seed pairs from the Fig. 7 benchmark pools,
//! runs the persona, and records discrepancies. Between rounds, confirmed
//! bugs with landed fixes are deactivated ("Once the developers have fixed
//! a bug, we validate the fixed version ... then started a new testing
//! round"), so later rounds surface the bugs that were shadowed before.
//!
//! ## Sharding and determinism
//!
//! A round is a flat list of *test jobs*, one per fused test, each seeded
//! from the round seed and its job index. Jobs run through
//! [`yinyang_rt::pool::parallel_map`], which returns results in input
//! order no matter which worker executed them, so `threads: 1` and
//! `threads: N` produce byte-identical outcomes — findings, counters, and
//! telemetry alike. Telemetry never reads the process-global metrics
//! registry mid-round: each job brackets itself with
//! [`yinyang_rt::metrics::local_snapshot`] and returns its private delta,
//! and the driver merges the deltas in job order.

use crate::config::{fast_solver_config, Behavior, CampaignConfig, CampaignOutcome, RawFinding};
use crate::telemetry::CoverageRound;
use std::collections::BTreeSet;
use yinyang_core::{concat_fuzz, run_catching, Fuser, Oracle, SolverAnswer};
use yinyang_coverage::ProbeKind;
use yinyang_faults::{BugClass, BugStatus, FaultySolver, SolverId};
use yinyang_rt::trace::{self, TraceEvent};
use yinyang_rt::{metrics, MetricsSnapshot, Rng, StdRng, Stopwatch};
use yinyang_seedgen::profile::{fig7_profile, generate_row};
use yinyang_seedgen::Seed;

/// Everything forensics needs to reproduce one finding outside the
/// campaign: where the job ran, which bugs were deactivated at the time,
/// and the job's private telemetry. Indices align 1:1 with
/// [`CampaignOutcome::findings`].
#[derive(Debug, Clone, Default)]
pub struct FindingForensics {
    /// Campaign round the finding's job ran in.
    pub round: usize,
    /// Flat job index within that round.
    pub job_index: usize,
    /// The job's decorrelated RNG stream seed.
    pub rng_seed: u64,
    /// Bug ids deactivated (fix-and-retest) when the job ran.
    pub fixed: Vec<u32>,
    /// The job's private metrics delta — exactly what it contributed to
    /// the campaign telemetry.
    pub metrics: MetricsSnapshot,
    /// The job's trace-event slice (empty unless capture was on).
    pub events: Vec<TraceEvent>,
}

/// A campaign's full output: findings, merged telemetry, per-finding
/// forensics, and (when enabled) the per-round coverage trajectory.
#[derive(Debug, Clone, Default)]
pub struct CampaignRun {
    /// Findings and summary counters.
    pub outcome: CampaignOutcome,
    /// Merged per-job metric deltas: every counter and span histogram the
    /// rounds produced, identical across thread counts.
    pub metrics: MetricsSnapshot,
    /// One record per finding, in the same order.
    pub forensics: Vec<FindingForensics>,
    /// Cumulative coverage after each round (empty unless
    /// [`CampaignConfig::coverage_trajectory`] is set).
    pub coverage_rounds: Vec<CoverageRound>,
}

/// Runs a full multi-round campaign against one persona's trunk.
pub fn run_campaign(config: &CampaignConfig, solver_id: SolverId) -> CampaignOutcome {
    run_campaign_full(config, solver_id).outcome
}

/// [`run_campaign`] plus the campaign's merged metrics delta (seed
/// generation, fusion, solving, oracle checks, triage, and the solver's
/// own statistics), assembled from per-job deltas so the totals are
/// identical across thread counts.
pub fn run_campaign_with_metrics(
    config: &CampaignConfig,
    solver_id: SolverId,
) -> (CampaignOutcome, MetricsSnapshot) {
    let run = run_campaign_full(config, solver_id);
    (run.outcome, run.metrics)
}

/// The full campaign driver: [`run_campaign_with_metrics`] plus
/// per-finding [`FindingForensics`] and the optional per-round coverage
/// trajectory. Everything in the returned [`CampaignRun`] is a pure
/// function of the config (modulo process-global coverage when other
/// campaigns share the process — see
/// [`CampaignConfig::coverage_trajectory`]).
pub fn run_campaign_full(config: &CampaignConfig, solver_id: SolverId) -> CampaignRun {
    let mut run = CampaignRun::default();
    let mut fixed: BTreeSet<u32> = BTreeSet::new();
    let watch = Stopwatch::start();
    let coverage_start =
        if config.coverage_trajectory { Some(yinyang_coverage::snapshot()) } else { None };
    for round in 0..config.rounds {
        let mut round_out = run_round(config, solver_id, round, &fixed);
        // Fix-and-retest: deactivate fixed confirmed bugs for later rounds.
        let before = metrics::local_snapshot();
        {
            let _span = yinyang_rt::span!("triage", round = round);
            for f in &round_out.outcome.findings {
                if let Some(id) = f.bug_id {
                    let bug = yinyang_faults::registry()
                        .into_iter()
                        .find(|b| b.id == id)
                        .expect("triaged ids come from the registry");
                    if matches!(bug.status, BugStatus::Confirmed { fixed: true }) {
                        fixed.insert(id);
                    }
                }
            }
        }
        round_out.events.extend(trace::take_events());
        round_out.metrics.merge(&metrics::local_snapshot().delta(&before));
        trace::emit_events(&round_out.events);
        if let Some(start) = &coverage_start {
            let cumulative = yinyang_coverage::snapshot().delta(start);
            run.coverage_rounds.push(CoverageRound {
                solver: solver_id.name().to_owned(),
                round,
                lines_sites: cumulative.hits_of_kind(ProbeKind::Line),
                functions_sites: cumulative.hits_of_kind(ProbeKind::Function),
                branches_sites: cumulative.hits_of_kind(ProbeKind::Branch),
                lines_hits: cumulative.count_of_kind(ProbeKind::Line),
                functions_hits: cumulative.count_of_kind(ProbeKind::Function),
                branches_hits: cumulative.count_of_kind(ProbeKind::Branch),
            });
        }
        run.outcome.findings.extend(round_out.outcome.findings);
        run.forensics.extend(round_out.forensics);
        run.outcome.stats.tests += round_out.outcome.stats.tests;
        run.outcome.stats.unknowns += round_out.outcome.stats.unknowns;
        run.outcome.stats.fusion_failures += round_out.outcome.stats.fusion_failures;
        run.metrics.merge(&round_out.metrics);
        publish_progress(solver_id, config, round, &run.outcome);
        if config.heartbeat {
            heartbeat(solver_id, config, round, &run.outcome, &run.metrics, &watch);
        }
    }
    run
}

/// Publishes this persona's cumulative progress to the shared
/// [`yinyang_rt::serve::progress`] state behind the `--status-addr`
/// server's `/status` endpoint. Write-only and off the determinism path:
/// nothing byte-compared ever reads it back, and the counts themselves
/// (taken at the round merge) are already scheduling-independent.
fn publish_progress(
    solver_id: SolverId,
    config: &CampaignConfig,
    round: usize,
    outcome: &CampaignOutcome,
) {
    let progress = yinyang_rt::serve::progress();
    let mut findings: std::collections::BTreeMap<String, u64> = Default::default();
    for f in &outcome.findings {
        *findings.entry(crate::triage::behavior_kind(&f.behavior).to_owned()).or_insert(0) += 1;
    }
    progress.update_persona(
        solver_id.name(),
        yinyang_rt::serve::PersonaProgress {
            round: round + 1,
            rounds: config.rounds,
            tests: outcome.stats.tests as u64,
            unknowns: outcome.stats.unknowns as u64,
            findings,
        },
    );
}

/// One periodic stderr progress line. Wall clock is fine here: stderr is
/// never byte-compared, and the [`Stopwatch`] keeps real time out of the
/// replay-safe tick clock.
fn heartbeat(
    solver_id: SolverId,
    config: &CampaignConfig,
    round: usize,
    outcome: &CampaignOutcome,
    telemetry: &MetricsSnapshot,
    watch: &Stopwatch,
) {
    let rate = outcome.stats.tests as f64 / watch.elapsed_secs().max(1e-9);
    let (mut incorrect, mut crashes, mut spurious) = (0usize, 0usize, 0usize);
    for f in &outcome.findings {
        match f.behavior {
            Behavior::Incorrect { .. } => incorrect += 1,
            Behavior::Crash { .. } => crashes += 1,
            Behavior::SpuriousUnknown => spurious += 1,
        }
    }
    let solve = telemetry.histograms.get("span.solve").map(|h| h.summary()).unwrap_or_default();
    eprintln!(
        "[yinyang {}] round {}/{}: {} tests ({rate:.1}/s), findings {} \
         (incorrect {incorrect}, crash {crashes}, spurious-unknown {spurious}), \
         solve p50/p95/p99 {}/{}/{} {}",
        solver_id.name(),
        round + 1,
        config.rounds,
        outcome.stats.tests,
        outcome.findings.len(),
        solve.p50,
        solve.p95,
        solve.p99,
        trace::unit(),
    );
}

/// One (benchmark, oracle) seed pool of a round.
struct RoundPool {
    benchmark: &'static str,
    oracle: Oracle,
    seeds: Vec<Seed>,
}

/// A unit of work: one fused test drawn from one pool, with its own RNG
/// stream so the result is independent of scheduling.
struct TestJob {
    pool: usize,
    rng_seed: u64,
}

/// Everything one job reports back to the driver.
struct JobResult {
    tests: usize,
    unknowns: usize,
    fusion_failures: usize,
    finding: Option<RawFinding>,
    events: Vec<TraceEvent>,
    metrics: MetricsSnapshot,
}

/// SplitMix64's finalizer: decorrelates consecutive job indices into
/// independent-looking RNG seeds (shared with the regression replayer,
/// whose per-bundle streams follow the same scheme).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One round's output: findings and counters, the merged telemetry and
/// trace events, and one forensics record per finding.
struct RoundOutput {
    outcome: CampaignOutcome,
    metrics: MetricsSnapshot,
    events: Vec<TraceEvent>,
    forensics: Vec<FindingForensics>,
}

/// One round over all Fig. 7 benchmarks: seed pools are generated on the
/// driver, then every fused test runs as an independent job whose RNG
/// stream depends only on its flat index, never on which worker runs it.
fn run_round(
    config: &CampaignConfig,
    solver_id: SolverId,
    round: usize,
    fixed: &BTreeSet<u32>,
) -> RoundOutput {
    let round_seed = config.rng_seed ^ (round as u64).wrapping_mul(0x9E37_79B9);
    let driver_before = metrics::local_snapshot();
    let pools = {
        let _span = yinyang_rt::span!("seedgen", round = round);
        let mut rng = StdRng::seed_from_u64(round_seed);
        let mut pools = Vec::new();
        for row in fig7_profile() {
            let seeds = generate_row(&mut rng, &row, config.scale);
            trace::work(seeds.len() as u64);
            for oracle in [Oracle::Sat, Oracle::Unsat] {
                let subset: Vec<Seed> =
                    seeds.iter().filter(|s| s.oracle == oracle).cloned().collect();
                if !subset.is_empty() {
                    pools.push(RoundPool { benchmark: row.name, oracle, seeds: subset });
                }
            }
        }
        pools
    };
    let mut events = trace::take_events();
    let mut round_metrics = metrics::local_snapshot().delta(&driver_before);

    let jobs: Vec<TestJob> = (0..pools.len() * config.iterations)
        .map(|index| TestJob {
            pool: index / config.iterations,
            rng_seed: mix64(round_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        })
        .collect();
    let rng_seeds: Vec<u64> = jobs.iter().map(|j| j.rng_seed).collect();
    let fuser = Fuser::new();
    let progress = yinyang_rt::serve::progress();
    progress.add_jobs(jobs.len() as u64);
    let results = yinyang_rt::pool::parallel_map(config.threads, jobs, |job| {
        let result = run_test(solver_id, round, fixed, &fuser, &pools, job);
        // One relaxed atomic bump for the live `/status` job counter —
        // no locks, metrics, or spans, so the job's telemetry bracket
        // and the report bytes are untouched.
        progress.job_done();
        result
    });

    let mut outcome = CampaignOutcome::default();
    let mut forensics = Vec::new();
    // `parallel_map` preserves input order, so `job_index` here is the
    // flat index the job's `rng_seed` was derived from.
    for (job_index, r) in results.into_iter().enumerate() {
        outcome.stats.tests += r.tests;
        outcome.stats.unknowns += r.unknowns;
        outcome.stats.fusion_failures += r.fusion_failures;
        if r.finding.is_some() {
            forensics.push(FindingForensics {
                round,
                job_index,
                rng_seed: rng_seeds[job_index],
                fixed: fixed.iter().copied().collect(),
                metrics: r.metrics.clone(),
                events: r.events.clone(),
            });
        }
        outcome.findings.extend(r.finding);
        events.extend(r.events);
        round_metrics.merge(&r.metrics);
    }
    RoundOutput { outcome, metrics: round_metrics, events, forensics }
}

/// One fused test: pick a pair, fuse, solve, check against the oracle.
/// The job brackets itself with thread-local metric snapshots and drains
/// its own trace events, so its telemetry contribution is identical no
/// matter which pool thread runs it. The persona is built even when the
/// pair is not fusible: its coverage probes are part of the trajectory.
fn run_test(
    solver_id: SolverId,
    round: usize,
    fixed: &BTreeSet<u32>,
    fuser: &Fuser,
    pools: &[RoundPool],
    job: TestJob,
) -> JobResult {
    let before = metrics::local_snapshot();
    let pool = &pools[job.pool];
    let mut rng = StdRng::seed_from_u64(job.rng_seed);
    let s1 = rng.random_range(0..pool.seeds.len());
    let s2 = rng.random_range(0..pool.seeds.len());
    let fused = {
        let _span = yinyang_rt::span!("fusion", benchmark = pool.benchmark, oracle = pool.oracle);
        fuser.fuse(&mut rng, pool.oracle, &pool.seeds[s1].script, &pool.seeds[s2].script)
    };
    let mut solver = FaultySolver::trunk(solver_id);
    solver.set_base_config(fast_solver_config());
    for &id in fixed {
        solver.apply_fix(id);
    }
    let mut result = JobResult {
        tests: 0,
        unknowns: 0,
        fusion_failures: 0,
        finding: None,
        events: Vec::new(),
        metrics: MetricsSnapshot::default(),
    };
    match fused {
        Err(_) => result.fusion_failures = 1,
        Ok(fused) => {
            result.tests = 1;
            let answer = {
                let _span = yinyang_rt::span!("solve", benchmark = pool.benchmark);
                run_catching(&solver, &fused.script)
            };
            let behavior = {
                let _span = yinyang_rt::span!("oracle");
                classify(&solver, &fused.script, pool.oracle, &answer, &mut result)
            };
            if let Some(behavior) = behavior {
                let bug_id = solver.triggered_bug(&fused.script).map(|b| b.id);
                result.finding = Some(RawFinding {
                    solver: yinyang_core::SolverUnderTest::name(&solver),
                    bug_id,
                    behavior,
                    logic: fused.script.logic().unwrap_or("ALL").to_owned(),
                    benchmark: pool.benchmark.to_owned(),
                    round,
                    script: fused.script.to_string(),
                    seeds: (pool.seeds[s1].script.to_string(), pool.seeds[s2].script.to_string()),
                    oracle: pool.oracle.to_string(),
                });
            }
        }
    }
    result.events = trace::take_events();
    result.metrics = metrics::local_snapshot().delta(&before);
    result
}

/// Compares the solver's answer to the construction oracle, mirroring the
/// paper's bug classes.
fn classify(
    solver: &FaultySolver,
    script: &yinyang_smtlib::Script,
    oracle: Oracle,
    answer: &SolverAnswer,
    result: &mut JobResult,
) -> Option<Behavior> {
    match answer {
        SolverAnswer::Crash(msg) => Some(Behavior::Crash { message: msg.clone() }),
        SolverAnswer::Unknown => {
            result.unknowns += 1;
            // Performance/unknown-class bugs: spurious unknowns with an
            // identifiable trigger.
            match solver.triggered_bug(script) {
                Some(b) if matches!(b.class, BugClass::Performance | BugClass::Unknown) => {
                    Some(Behavior::SpuriousUnknown)
                }
                _ => None,
            }
        }
        SolverAnswer::Sat | SolverAnswer::Unsat => {
            let agrees = matches!(
                (oracle, answer),
                (Oracle::Sat, SolverAnswer::Sat) | (Oracle::Unsat, SolverAnswer::Unsat)
            );
            if agrees {
                None
            } else {
                Some(Behavior::Incorrect {
                    got: answer.as_str().to_owned(),
                    expected: oracle.to_string(),
                })
            }
        }
    }
}

/// Runs the ConcatFuzz ablation over the same pools (RQ4's comparison arm):
/// returns findings produced by plain concatenation.
pub fn run_concatfuzz_round(config: &CampaignConfig, solver_id: SolverId) -> CampaignOutcome {
    let mut rng = StdRng::seed_from_u64(config.rng_seed ^ 0xC0CAF);
    let mut solver = FaultySolver::trunk(solver_id);
    solver.set_base_config(fast_solver_config());
    let mut outcome = CampaignOutcome::default();
    for row in fig7_profile() {
        let seeds = generate_row(&mut rng, &row, config.scale);
        let sat_pool: Vec<&Seed> = seeds.iter().filter(|s| s.oracle == Oracle::Sat).collect();
        let unsat_pool: Vec<&Seed> = seeds.iter().filter(|s| s.oracle == Oracle::Unsat).collect();
        for (oracle, pool) in [(Oracle::Sat, &sat_pool), (Oracle::Unsat, &unsat_pool)] {
            if pool.is_empty() {
                continue;
            }
            for _ in 0..config.iterations {
                let s1 = pool[rng.random_range(0..pool.len())];
                let s2 = pool[rng.random_range(0..pool.len())];
                let script = concat_fuzz(oracle, &s1.script, &s2.script);
                outcome.stats.tests += 1;
                let answer = run_catching(&solver, &script);
                let wrong = match (&answer, oracle) {
                    (SolverAnswer::Crash(_), _) => true,
                    (SolverAnswer::Sat, Oracle::Unsat) => true,
                    (SolverAnswer::Unsat, Oracle::Sat) => true,
                    _ => false,
                };
                if wrong {
                    let bug_id = solver.triggered_bug(&script).map(|b| b.id);
                    outcome.findings.push(RawFinding {
                        solver: yinyang_core::SolverUnderTest::name(&solver),
                        bug_id,
                        behavior: match answer {
                            SolverAnswer::Crash(message) => Behavior::Crash { message },
                            a => Behavior::Incorrect {
                                got: a.as_str().to_owned(),
                                expected: oracle.to_string(),
                            },
                        },
                        logic: script.logic().unwrap_or("ALL").to_owned(),
                        benchmark: row.name.to_owned(),
                        round: 0,
                        script: script.to_string(),
                        seeds: (s1.script.to_string(), s2.script.to_string()),
                        oracle: oracle.to_string(),
                    });
                }
            }
        }
    }
    outcome
}
