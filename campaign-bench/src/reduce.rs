//! `reduce`: the findings of a faulty-persona campaign, each minimised
//! into its own reproduction bundle with `write_bundles`, then replayed
//! against trunk with `run_regress`. Every finding is minimised, not only
//! one per fingerprint, so a unit holds enough reductions to be steady.
//! An operation is one finding; it fails when its bundle does not
//! reproduce. Set-up is the campaign that produces the findings.

use crate::fig8::{rebuild, reference, replica, Answer};
use crate::layers::{self, Counts, Traced};
use crate::{span, Args, Done, Outcome};
use std::path::{Path, PathBuf};
use std::time::Instant;
use yinyang_campaign::config::fast_solver_config;
use yinyang_campaign::experiments::fig8_campaign_full;
use yinyang_campaign::{
    run_regress, write_bundles, Behavior, FindingForensics, RawFinding, RegressConfig,
};
use yinyang_core::{run_catching, SolverAnswer};
use yinyang_faults::{FaultySolver, SolverId};
use yinyang_reduce::reduce_with_stats;
use yinyang_rt::json::Json;
use yinyang_seedgen::profile::fig7_profile;
use yinyang_smtlib::{parse_script, Script};
use yinyang_solver::SmtSolver;

/// Sizes of the set-up campaigns, of one unit and of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// One set-up campaign; its findings are minimised.
    pub campaign: crate::fig8::Params,
    /// Set-up campaigns, each on its own unit seed.
    pub campaigns: usize,
    /// Findings minimised and replayed per unit.
    pub chunk: usize,
    /// Findings a traced run minimises.
    pub traced_findings: usize,
}

impl Params {
    /// The measured size. Single-round campaigns yield the most findings
    /// per second of set-up, since no bug is fixed yet; many small
    /// campaigns over large pools keep the findings of one run diverse.
    pub fn full(threads: usize) -> Params {
        Params {
            campaign: crate::fig8::Params { scale: 100, iterations: 2, rounds: 1, threads },
            campaigns: 60,
            chunk: 10,
            traced_findings: 150,
        }
    }

    /// The size the benchmark's own tests run.
    pub fn smoke() -> Params {
        Params {
            campaign: crate::fig8::Params::smoke(),
            campaigns: 1,
            chunk: 2,
            traced_findings: 3,
        }
    }

    /// The findings unit `k` minimises: the next `chunk` in set-up order,
    /// wrapping around.
    pub fn picks(&self, k: u64, available: usize) -> Vec<usize> {
        (0..self.chunk).map(|j| (k as usize * self.chunk + j) % available).collect()
    }
}

/// A finding with the job record that reproduces it.
pub type Finding = (RawFinding, FindingForensics);

/// The findings of one set-up campaign, in report order: the campaign's
/// jobs repeated from the benchmark's code, answering only the jobs on
/// which a bug fires ([`Answer::Firing`]). The smoke tests check that
/// these are the findings `fig8_campaign_full` reports.
pub fn findings(p: &Params, seed: u64) -> Vec<Finding> {
    let runs = replica(&p.campaign.config(seed), Answer::Firing, &mut Counts::default());
    runs.into_iter().flat_map(|run| run.findings.into_iter().zip(run.forensics)).collect()
}

/// The findings `fig8_campaign_full` reports for one set-up campaign, in
/// report order.
pub fn campaign_findings(p: &Params, seed: u64) -> Vec<Finding> {
    let run = fig8_campaign_full(&p.campaign.config(seed));
    let zirkon = run.result.zirkon.findings.into_iter().zip(run.zirkon_forensics);
    zirkon.chain(run.result.corvus.findings.into_iter().zip(run.corvus_forensics)).collect()
}

/// Runs the set-up campaigns, each on its own unit seed; returns their
/// findings in order and the median CPU time of one campaign.
pub fn setup(p: &Params, seed: u64) -> (Vec<Finding>, f64) {
    let mut found = Vec::new();
    let mut times = Vec::new();
    for k in 0..p.campaigns as u64 {
        let watch = crate::Stopwatch::start();
        found.extend(findings(p, crate::unit_seed(seed, k)));
        times.push(watch.read().1);
    }
    (found, crate::median(&times))
}

/// [`setup`], failing when the campaigns found nothing to reduce.
fn nonempty_setup(p: &Params, seed: u64) -> Result<(Vec<Finding>, f64), String> {
    let (found, setup_s) = setup(p, seed);
    if found.is_empty() {
        return Err(format!("the set-up campaigns at seed {seed} found nothing to reduce"));
    }
    eprintln!("set-up: {} findings from {} campaigns", found.len(), p.campaigns);
    Ok((found, setup_s))
}

/// What one unit wrote and how long the program took.
pub struct Written {
    /// One bundle root per pick, in pick order.
    pub roots: Vec<PathBuf>,
    /// `BundleSummary::reproduced` per pick.
    pub reproduced: Vec<bool>,
    /// Status per regress entry, in root order.
    pub statuses: Vec<String>,
    /// Wall seconds of minimisation and replay.
    pub secs: f64,
    /// CPU seconds of the process over the same stretch.
    pub cpu: f64,
}

/// Minimises each picked finding into its own bundle under `dir`, then
/// replays all of them against trunk.
pub fn unit(found: &[Finding], picks: &[usize], dir: &Path) -> Result<Written, String> {
    let _ = std::fs::remove_dir_all(dir);
    let watch = crate::Stopwatch::start();
    let mut roots = Vec::new();
    let mut reproduced = Vec::new();
    for (j, &i) in picks.iter().enumerate() {
        let root = dir.join(format!("{j:03}"));
        let (f, fx) = &found[i];
        let summaries = write_bundles(&root, std::slice::from_ref(f), std::slice::from_ref(fx))
            .map_err(|e| format!("write_bundles {}: {e}", root.display()))?;
        reproduced.push(summaries.first().is_some_and(|s| s.reproduced));
        roots.push(root);
    }
    let report =
        run_regress(&roots, &RegressConfig { release: "trunk".into(), ..Default::default() })?;
    let (secs, cpu) = watch.read();
    let statuses = report.entries.into_iter().map(|e| e.status).collect();
    Ok(Written { roots, reproduced, statuses, secs, cpu })
}

fn nodes(script: &Script) -> usize {
    script.asserts().iter().map(|a| a.size()).sum()
}

fn persona_of(f: &RawFinding) -> Result<SolverId, String> {
    SolverId::from_name(&f.solver).ok_or_else(|| format!("unknown persona {}", f.solver))
}

/// Checks one unit's bundles: each reduced script re-parses and has no
/// more nodes than its fused script; replaying it re-triggers the same
/// bug with the same behaviour class; `run_regress` classifies it
/// still-broken; and on every bundle whose minimisation cross-checked the
/// reference, the reference contradicts the persona's wrong answer.
/// Returns how many bundles did not reproduce (failed operations).
pub fn check(found: &[Finding], picks: &[usize], w: &Written, violations: &mut Vec<String>) -> u64 {
    if w.statuses.len() != picks.len() {
        violations.push(format!(
            "regress reported {} bundles of {}",
            w.statuses.len(),
            picks.len()
        ));
    }
    let mut failed = 0;
    for (j, &i) in picks.iter().enumerate() {
        if !w.reproduced[j] {
            failed += 1;
            continue;
        }
        let (f, fx) = &found[i];
        let at = format!("finding {i} ({} round {} job {})", f.solver, fx.round, fx.job_index);
        if let Err(e) = check_bundle(&w.roots[j], f, fx) {
            violations.push(format!("{at}: {e}"));
        }
        if w.statuses.get(j).map(String::as_str) != Some("still-broken") {
            violations
                .push(format!("{at}: regress says {:?}, not still-broken", w.statuses.get(j)));
        }
    }
    failed
}

/// The single bundle directory under `root`.
pub fn bundle_dir(root: &Path) -> Result<PathBuf, String> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root)
        .map_err(|e| format!("{}: {e}", root.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    match dirs.len() {
        1 => Ok(dirs.remove(0)),
        n => Err(format!("{} holds {n} bundles", root.display())),
    }
}

fn read(dir: &Path, file: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(file)).map_err(|e| format!("{file}: {e}"))
}

fn check_bundle(root: &Path, f: &RawFinding, fx: &FindingForensics) -> Result<(), String> {
    let dir = bundle_dir(root)?;
    let fused = parse_script(&read(&dir, "fused.smt2")?).map_err(|e| format!("fused.smt2: {e}"))?;
    let reduced =
        parse_script(&read(&dir, "reduced.smt2")?).map_err(|e| format!("reduced.smt2: {e}"))?;
    if nodes(&reduced) > nodes(&fused) {
        return Err(format!("reduced has {} nodes, fused {}", nodes(&reduced), nodes(&fused)));
    }
    let id = persona_of(f)?;
    let persona = rebuild(id, &fx.fixed);
    let fired = persona.triggered_bug(&reduced).map(|b| b.id);
    if f.bug_id.is_some() && fired != f.bug_id {
        return Err(format!("reduced fires {fired:?}, the finding named {:?}", f.bug_id));
    }
    let answer = run_catching(&persona, &reduced);
    let same_class = match &f.behavior {
        Behavior::Crash { .. } => matches!(answer, SolverAnswer::Crash(_)),
        Behavior::SpuriousUnknown => answer == SolverAnswer::Unknown,
        Behavior::Incorrect { got, .. } => answer.as_str() == got,
    };
    if !same_class {
        return Err(format!(
            "reduced replays {}, the finding was {:?}",
            answer.as_str(),
            f.behavior
        ));
    }
    let verdict =
        Json::parse(&read(&dir, "verdict.json")?).map_err(|e| format!("verdict.json: {e}"))?;
    let oracle_checked = verdict.get("oracle_checked").and_then(Json::as_bool);
    if let (Some(true), Behavior::Incorrect { got, .. }) = (oracle_checked, &f.behavior) {
        let truth = run_catching(&reference(id), &reduced);
        let contradicts = matches!(
            (got.as_str(), &truth),
            ("sat", SolverAnswer::Unsat) | ("unsat", SolverAnswer::Sat)
        );
        if !contradicts {
            return Err(format!("reference answers {} on an oracle-checked {got}", truth.as_str()));
        }
    }
    Ok(())
}

/// One traced unit of `reduce`: the unit's findings minimised into
/// bundles and replayed by the program, then minimised again from this
/// file, without and then with spans; both must reduce each finding to
/// its bundle's script.
pub fn traced_unit(p: &Params, found: &[Finding], k: u64, dir: &Path) -> Traced {
    let picks = p.picks(k, found.len());
    let mut t = Traced::default();
    let written = match unit(found, &picks, dir) {
        Ok(written) => written,
        Err(e) => {
            t.violations.push(e);
            return t;
        }
    };
    t.cpu_s = written.cpu;
    t.program_s = written.secs;
    t.idle_s = written.secs - t.cpu_s;
    t.attempted = picks.len() as u64;
    t.failed = check(found, &picks, &written, &mut t.violations);
    let minimize_all = |counts: &mut Counts| -> Vec<Option<String>> {
        picks.iter().map(|&i| minimize(&found[i].0, &found[i].1, counts)).collect()
    };
    let mut untraced = Counts::default();
    let hits0 = layers::probe_hits();
    let start = Instant::now();
    let plain = minimize_all(&mut untraced);
    t.untraced_s = start.elapsed().as_secs_f64();
    untraced.probe_hits = layers::probe_hits() - hits0;
    let ((reduced, probe_hits, traced_s), spans) = span::recording(|| {
        let hits0 = layers::probe_hits();
        let start = Instant::now();
        let reduced = minimize_all(&mut t.counts);
        (reduced, layers::probe_hits() - hits0, start.elapsed().as_secs_f64())
    });
    t.counts.probe_hits = probe_hits;
    t.traced_s = traced_s;
    t.spans = spans;
    if untraced != t.counts {
        t.violations.push("the minimisations without and with spans count differently".into());
    }
    for (j, (plain, reduced)) in plain.iter().zip(&reduced).enumerate() {
        let on_disk = bundle_dir(&written.roots[j]).and_then(|d| read(&d, "reduced.smt2"));
        let on_disk = on_disk.as_ref().ok();
        if plain.as_ref() != on_disk || reduced.as_ref() != on_disk {
            t.violations.push(format!(
                "finding {}: repeated minimisation differs from the bundle",
                picks[j]
            ));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    t
}

/// Runs the workload.
pub fn run(args: &Args, p: &Params) -> Result<Outcome, String> {
    let seed = args.seed;
    let dir = crate::scratch_dir();
    let outcome = if args.trace {
        let units = p.traced_findings.div_ceil(p.chunk) as u64;
        crate::traced_run(
            args,
            units,
            || nonempty_setup(p, seed).map(|(found, _)| found),
            |found, k| traced_unit(p, found, k, &dir),
        )
    } else {
        crate::measured_run(
            args,
            || nonempty_setup(p, seed),
            |found, k| {
                let picks = p.picks(k, found.len());
                let watch = crate::Stopwatch::start();
                let mut d = Done { ops: picks.len() as u64, ..Done::default() };
                match unit(found, &picks, &dir) {
                    Ok(written) => {
                        (d.secs, d.cpu) = (written.secs, written.cpu);
                        d.failed = check(found, &picks, &written, &mut d.violations);
                        d.decided =
                            written.statuses.iter().filter(|s| *s == "still-broken").count() as u64;
                    }
                    Err(e) => {
                        (d.secs, d.cpu) = watch.read();
                        d.failed = d.ops;
                        d.violations.push(e);
                    }
                }
                d
            },
        )
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The bundle writer's minimisation, repeated from this file with spans:
/// the persona rebuilt with the finding's fix state, the reference
/// cross-check while the reference decides the fused script, and
/// candidates judged by their print→parse round trip. Returns the reduced
/// script's text.
pub fn minimize(f: &RawFinding, fx: &FindingForensics, counts: &mut Counts) -> Option<String> {
    let id = SolverId::from_name(&f.solver)?;
    let benchmark =
        fig7_profile().into_iter().find(|r| r.name == f.benchmark).map_or("", |r| r.name);
    let fused = layers::parse(&f.script, counts).ok()?;
    let persona = {
        let _span = span::span("faults");
        rebuild(id, &fx.fixed)
    };
    let base = SmtSolver::with_config(fast_solver_config());
    let mut checker = None;
    if matches!(f.behavior, Behavior::Incorrect { .. }) {
        let truth = reference(id);
        let (answer, _) = layers::persona_answer(&truth, &base, &fused, benchmark, counts);
        if matches!(answer, SolverAnswer::Sat | SolverAnswer::Unsat) {
            checker = Some(truth);
        }
    }
    let mut inner = Counts::default();
    let mut interesting = |candidate: &Script| {
        let text = layers::print(candidate, &mut inner);
        match layers::parse(&text, &mut inner) {
            Ok(c) => {
                still_interesting(&c, &persona, checker.as_ref(), &base, f, benchmark, &mut inner)
            }
            Err(_) => false,
        }
    };
    if !interesting(&fused) {
        counts.add(&inner);
        return Some(layers::print(&fused, counts));
    }
    let (reduced, stats) = {
        let _span = span::span("reduce");
        reduce_with_stats(&fused, &mut interesting)
    };
    counts.add(&inner);
    counts.reduce_calls += 1;
    counts.reduce_candidates += stats.candidates as u64;
    counts.reduce_nodes_before += stats.nodes_before as u64;
    counts.reduce_nodes_after += stats.nodes_after as u64;
    counts.reduce_oracle_checked += u64::from(checker.is_some());
    Some(layers::print(&reduced, counts))
}

fn still_interesting(
    candidate: &Script,
    persona: &FaultySolver,
    checker: Option<&FaultySolver>,
    base: &SmtSolver,
    f: &RawFinding,
    benchmark: &'static str,
    counts: &mut Counts,
) -> bool {
    if let Some(id) = f.bug_id {
        let fired = {
            let _span = span::span("faults");
            counts.faults_calls += 1;
            persona.triggered_bug(candidate).map(|b| b.id)
        };
        if fired != Some(id) {
            return false;
        }
    }
    let (answer, _) = layers::persona_answer(persona, base, candidate, benchmark, counts);
    match &f.behavior {
        Behavior::Crash { .. } => matches!(answer, SolverAnswer::Crash(_)),
        Behavior::SpuriousUnknown => answer == SolverAnswer::Unknown,
        Behavior::Incorrect { got, .. } => {
            answer.as_str() == got
                && checker.is_none_or(|r| {
                    match layers::persona_answer(r, base, candidate, benchmark, counts).0 {
                        SolverAnswer::Sat => got == "unsat",
                        SolverAnswer::Unsat => got == "sat",
                        _ => false,
                    }
                })
        }
    }
}
