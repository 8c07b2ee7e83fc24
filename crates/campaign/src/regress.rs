//! Bundle-driven regression replay: re-solve a previous campaign's
//! reproduction bundles against an arbitrary solver build and report, per
//! fingerprint, whether the finding is still there.
//!
//! This is the loop STORM-style fuzzers close around their findings:
//! every bundle written by `--bundle-dir` is a self-contained test case,
//! so confirming a new build needs no re-fuzzing — load the bundles,
//! rebuild each finding's solver configuration from its `verdict.json`,
//! and re-solve the fused and reduced scripts under the target build
//! (selected by registry release via [`RegressConfig::release`];
//! `"reference"` selects the bug-free persona).
//!
//! Per bundle, the verdict is one of:
//!
//! * `still-broken` — fused *and* reduced both still exhibit the recorded
//!   behavior class (wrong answer vs the construction oracle, crash, or
//!   spurious `unknown`);
//! * `fixed` — neither does;
//! * `flaky` — fused and reduced disagree (the reduction no longer tracks
//!   the bug on this build);
//! * `stale` — the bundle no longer loads: files missing, scripts or
//!   verdict unparseable, unknown persona, or a release the persona never
//!   shipped.
//!
//! Classification is *behavioral* (blackbox): a finding counts as
//! still-broken when the build still misbehaves the same way, whether or
//! not the original injected bug is the cause — exactly what an external
//! harness replaying SMT files against a real solver binary could observe.
//! One consequence: unknown-class findings can read `still-broken` even on
//! a build without the bug, because an *honest* `unknown` (budget
//! incompleteness) is indistinguishable from a spurious one in a blackbox
//! replay. Incorrect-answer and crash findings carry no such ambiguity
//! for `still-broken`, but a second nuance applies on *fixed* builds:
//! when the bundle records `oracle_checked: false`, the reduction ran in
//! lax mode (the reference could not decide the fused input), so the
//! reduced script preserves the buggy answer but not ground truth — it
//! may be genuinely satisfiable. A fixed build then honestly answers
//! `sat` against the recorded `unsat` oracle and the bundle reads
//! `flaky` rather than `fixed`, which is the right conservative call:
//! the reduction really does no longer track anything on that build.
//!
//! ## Cross-campaign dedup
//!
//! Replaying N campaigns' bundle directories rediscovers the same
//! minimized test case under different trigger fingerprints (unmapped
//! findings hash the *fused* script; different campaigns fuse different
//! ancestors). Dedup therefore keys on the [`canonical_hash`] of the
//! *reduced* script — plus everything that shapes the verdict (persona,
//! recorded fix state, behavior class, oracle, triaged bug) so two
//! bundles that would classify differently are never merged — and solves
//! each unique key once. Duplicates inherit the representative's verdict
//! and name it in `duplicate_of`.
//!
//! ## Determinism
//!
//! Replays run on the [`yinyang_rt::pool`] thread pool as a flat job
//! list, one job per unique key, each with its own decorrelated RNG
//! stream seed and private metrics bracket; the driver merges deltas in
//! job order. Reports are therefore byte-identical across `--threads`
//! counts and repeated runs, and the `regress.*` counters and
//! `span.regress.*` histograms in the embedded telemetry are too.

use crate::campaign::mix64;
use crate::config::{fast_solver_config, Behavior};
use crate::telemetry::Telemetry;
use crate::triage::{behavior_kind, canonical_hash};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use yinyang_core::{run_catching, SolverAnswer};
use yinyang_faults::{releases_of, FaultySolver, SolverId};
use yinyang_rt::json::{FromJson, Json};
use yinyang_rt::{impl_json_struct, metrics, StdRng};
use yinyang_smtlib::{parse_script, Script};

/// Knobs of a regression replay.
#[derive(Debug, Clone)]
pub struct RegressConfig {
    /// Target solver build: a registry release name (`"trunk"`, Zirkon's
    /// `"4.8.5"`, Corvus's `"1.5"`, ...) or `"reference"` for the
    /// bug-free persona. Bundles whose persona never shipped the release
    /// classify as `stale`.
    pub release: String,
    /// Worker threads; replay-safe at any count.
    pub threads: usize,
    /// Base seed for the per-bundle RNG streams recorded in the report.
    pub rng_seed: u64,
}

impl Default for RegressConfig {
    fn default() -> Self {
        RegressConfig { release: "trunk".to_owned(), threads: 1, rng_seed: 0xD1CE }
    }
}

/// How one bundle fared, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleStatus {
    /// Fused and reduced both still exhibit the recorded behavior.
    StillBroken,
    /// Neither script exhibits it on the target build.
    Fixed,
    /// Fused and reduced disagree.
    Flaky,
    /// The bundle could not be loaded or replayed.
    Stale,
}

impl BundleStatus {
    /// The report tag.
    pub fn as_str(self) -> &'static str {
        match self {
            BundleStatus::StillBroken => "still-broken",
            BundleStatus::Fixed => "fixed",
            BundleStatus::Flaky => "flaky",
            BundleStatus::Stale => "stale",
        }
    }
}

/// One bundle's row of the regression report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegressEntry {
    /// The bundle's fingerprint (its directory name).
    pub fingerprint: String,
    /// The bundle directory as given (campaign root joined with the
    /// fingerprint), so multi-campaign reports stay unambiguous.
    pub dir: String,
    /// `still-broken` / `fixed` / `flaky` / `stale`.
    pub status: String,
    /// Stale reason; empty for replayed bundles.
    pub detail: String,
    /// Persona-release actually replayed (e.g. `zirkon-4.8.5`); empty for
    /// stale bundles.
    pub solver: String,
    /// Recorded behavior class (`incorrect` / `crash` / `unknown`).
    pub behavior: String,
    /// Construction oracle of the fused formula (`sat` / `unsat`).
    pub oracle: String,
    /// The target build's answer on the fused script.
    pub fused_answer: String,
    /// The target build's answer on the reduced script.
    pub reduced_answer: String,
    /// Registry bug that fired on the reduced replay, if any.
    pub triggered_bug: Option<u32>,
    /// Canonical hash of the reduced script (hex); empty when stale.
    pub script_hash: String,
    /// `dir` of the representative this bundle deduplicated into; empty
    /// for representatives and stale bundles.
    pub duplicate_of: String,
    /// The bundle's decorrelated RNG stream seed (same splitting scheme
    /// as campaign jobs); 0 for stale bundles.
    pub replay_seed: u64,
}

impl_json_struct!(RegressEntry {
    fingerprint,
    dir,
    status,
    detail,
    solver,
    behavior,
    oracle,
    fused_answer,
    reduced_answer,
    triggered_bug,
    script_hash,
    duplicate_of,
    replay_seed,
});

/// Totals over all entries (duplicates count toward their inherited
/// status).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegressSummary {
    /// Bundles examined.
    pub total: usize,
    /// Bundles still exhibiting their recorded behavior.
    pub still_broken: usize,
    /// Bundles no longer exhibiting it.
    pub fixed: usize,
    /// Bundles whose fused and reduced scripts disagree.
    pub flaky: usize,
    /// Bundles that no longer load.
    pub stale: usize,
    /// Unique (deduplicated) test cases actually re-solved.
    pub unique_replays: usize,
    /// Loaded bundles collapsed into another bundle's replay.
    pub duplicates_merged: usize,
}

impl_json_struct!(RegressSummary {
    total,
    still_broken,
    fixed,
    flaky,
    stale,
    unique_replays,
    duplicates_merged,
});

/// The full regression report.
#[derive(Debug, Clone, Default)]
pub struct RegressReport {
    /// The target build the bundles were replayed against.
    pub release: String,
    /// One row per bundle: campaign roots in argument order, fingerprints
    /// sorted within each root.
    pub entries: Vec<RegressEntry>,
    /// Status totals and dedup accounting.
    pub summary: RegressSummary,
    /// Merged per-job metrics (`regress.*` counters, `span.regress.*`
    /// stages, solver statistics), identical across thread counts.
    pub telemetry: Telemetry,
}

impl_json_struct!(RegressReport { release, entries, summary, telemetry });

/// What `verdict.json` contributes to the replay: the finding's solver
/// configuration and expected behavior.
struct BundleVerdict {
    solver: String,
    bug_id: Option<u32>,
    behavior: Behavior,
    oracle: String,
    fixed: Vec<u32>,
}

fn parse_verdict(text: &str) -> Result<BundleVerdict, String> {
    let json = Json::parse(text).map_err(|e| format!("verdict.json: {e}"))?;
    let str_field = |name: &str| -> Result<String, String> {
        json.get(name)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("verdict.json: missing `{name}`"))
    };
    let behavior = Behavior::from_json(json.get("behavior").unwrap_or(&Json::Null))
        .map_err(|e| format!("verdict.json behavior: {}", e.message))?;
    let bug_id = Option::<u32>::from_json(json.get("bug_id").unwrap_or(&Json::Null))
        .map_err(|e| format!("verdict.json bug_id: {}", e.message))?;
    let fixed = Vec::<u32>::from_json(json.get("fixed_bugs").unwrap_or(&Json::Arr(Vec::new())))
        .map_err(|e| format!("verdict.json fixed_bugs: {}", e.message))?;
    Ok(BundleVerdict {
        solver: str_field("solver")?,
        bug_id,
        behavior,
        oracle: str_field("oracle")?,
        fixed,
    })
}

/// A bundle that loaded and parsed end to end, ready to replay.
struct LoadedBundle {
    fingerprint: String,
    dir: String,
    fused: Script,
    reduced: Script,
    reduced_hash: u64,
    solver_id: SolverId,
    verdict: BundleVerdict,
}

/// A bundle directory either loads fully or records why it is stale.
enum BundleRecord {
    Ok(Box<LoadedBundle>),
    Stale { fingerprint: String, dir: String, reason: String },
}

fn load_bundle(fingerprint: &str, dir: &Path) -> Result<LoadedBundle, String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
    };
    let parse = |name: &str, text: &str| -> Result<Script, String> {
        parse_script(text).map_err(|e| format!("{name} does not parse: {e}"))
    };
    let fused = parse("fused.smt2", &read("fused.smt2")?)?;
    let reduced_text = read("reduced.smt2")?;
    let reduced = parse("reduced.smt2", &reduced_text)?;
    let reduced_hash = canonical_hash(&reduced_text)
        .ok_or_else(|| "reduced.smt2 has no canonical form".to_owned())?;
    let verdict = parse_verdict(&read("verdict.json")?)?;
    let solver_id = SolverId::from_name(&verdict.solver)
        .ok_or_else(|| format!("unknown solver `{}`", verdict.solver))?;
    Ok(LoadedBundle {
        fingerprint: fingerprint.to_owned(),
        dir: dir.display().to_string(),
        fused,
        reduced,
        reduced_hash,
        solver_id,
        verdict,
    })
}

/// Loads every bundle under every campaign root: roots in argument order,
/// fingerprint subdirectories sorted within each root.
fn load_roots(roots: &[PathBuf]) -> Result<Vec<BundleRecord>, String> {
    let mut records = Vec::new();
    for root in roots {
        let _span = yinyang_rt::span!("regress.load");
        let listing = std::fs::read_dir(root)
            .map_err(|e| format!("cannot read bundle directory {}: {e}", root.display()))?;
        let mut subdirs: Vec<PathBuf> =
            listing.filter_map(|e| e.ok().map(|e| e.path())).filter(|p| p.is_dir()).collect();
        subdirs.sort();
        for dir in subdirs {
            let fingerprint =
                dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            metrics::counter_add("regress.bundles", 1);
            records.push(match load_bundle(&fingerprint, &dir) {
                Ok(bundle) => BundleRecord::Ok(Box::new(bundle)),
                Err(reason) => {
                    metrics::counter_add("regress.stale", 1);
                    BundleRecord::Stale { fingerprint, dir: dir.display().to_string(), reason }
                }
            });
        }
    }
    Ok(records)
}

/// The dedup identity: the canonical reduced-script hash plus everything
/// that shapes the verdict, so two bundles whose replays could classify
/// differently never share a job.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ReplayKey {
    reduced_hash: u64,
    solver: SolverId2,
    release_fixed: Vec<u32>,
    behavior: String,
    oracle: String,
    bug_id: Option<u32>,
}

/// `SolverId` lacks `Ord`; key on the name instead.
type SolverId2 = &'static str;

fn replay_key(b: &LoadedBundle) -> ReplayKey {
    ReplayKey {
        reduced_hash: b.reduced_hash,
        solver: b.solver_id.name(),
        release_fixed: b.verdict.fixed.clone(),
        behavior: behavior_kind(&b.verdict.behavior).to_owned(),
        oracle: b.verdict.oracle.clone(),
        bug_id: b.verdict.bug_id,
    }
}

/// Does `answer` still exhibit the recorded behavior class? For
/// `Incorrect` findings the build must contradict the construction
/// oracle with a definite answer; crashes and spurious unknowns match on
/// kind.
fn exhibits(answer: &SolverAnswer, behavior: &Behavior, oracle: &str) -> bool {
    match behavior {
        Behavior::Crash { .. } => matches!(answer, SolverAnswer::Crash(_)),
        Behavior::SpuriousUnknown => matches!(answer, SolverAnswer::Unknown),
        Behavior::Incorrect { .. } => {
            matches!(answer, SolverAnswer::Sat | SolverAnswer::Unsat) && answer.as_str() != oracle
        }
    }
}

/// Rebuilds the finding's solver configuration on the target build:
/// persona at `release` (or the bug-free reference), campaign solver
/// limits, and the fix-and-retest state recorded in the verdict.
fn rebuild_on_release(bundle: &LoadedBundle, release: &str) -> Result<FaultySolver, String> {
    let id = bundle.solver_id;
    if release != "reference" && !releases_of(id).iter().any(|r| *r == release) {
        return Err(format!(
            "release `{release}` unknown for {} (known: reference, {})",
            id.name(),
            releases_of(id).join(", ")
        ));
    }
    let mut solver = if release == "reference" {
        FaultySolver::reference(id)
    } else {
        FaultySolver::at_release(id, release)
    };
    solver.set_base_config(fast_solver_config());
    for &bug in &bundle.verdict.fixed {
        solver.apply_fix(bug);
    }
    Ok(solver)
}

/// One replay job's result, reported back to the driver.
struct ReplayResult {
    status: BundleStatus,
    detail: String,
    solver: String,
    fused_answer: String,
    reduced_answer: String,
    triggered_bug: Option<u32>,
    metrics: yinyang_rt::MetricsSnapshot,
}

fn answer_str(answer: &SolverAnswer) -> String {
    match answer {
        SolverAnswer::Crash(m) => format!("crash: {m}"),
        a => a.as_str().to_owned(),
    }
}

/// Replays one unique test case against the target build: rebuilds the
/// finding's solver configuration, runs both scripts on it and classifies
/// the bundle, all inside one private metrics bracket.
fn replay_one(bundle: &LoadedBundle, release: &str, rng_seed: u64) -> ReplayResult {
    let before = metrics::local_snapshot();
    // The stream is decorrelated per bundle so future randomized replay
    // modes (input shaking, budget jitter) stay scheduling-independent;
    // today's deterministic solver only draws the recorded seed.
    let _rng = StdRng::seed_from_u64(rng_seed);
    let mut result = match rebuild_on_release(bundle, release) {
        Ok(solver) => {
            let _span = yinyang_rt::span!("regress.solve", fingerprint = bundle.fingerprint);
            let fused_answer = run_catching(&solver, &bundle.fused);
            let reduced_answer = run_catching(&solver, &bundle.reduced);
            let (fused_broken, reduced_broken) = (
                exhibits(&fused_answer, &bundle.verdict.behavior, &bundle.verdict.oracle),
                exhibits(&reduced_answer, &bundle.verdict.behavior, &bundle.verdict.oracle),
            );
            let status = match (fused_broken, reduced_broken) {
                (true, true) => BundleStatus::StillBroken,
                (false, false) => BundleStatus::Fixed,
                _ => BundleStatus::Flaky,
            };
            ReplayResult {
                status,
                detail: String::new(),
                solver: yinyang_core::SolverUnderTest::name(&solver),
                fused_answer: answer_str(&fused_answer),
                reduced_answer: answer_str(&reduced_answer),
                triggered_bug: solver.triggered_bug(&bundle.reduced).map(|b| b.id),
                metrics: Default::default(),
            }
        }
        Err(reason) => ReplayResult {
            status: BundleStatus::Stale,
            detail: reason,
            solver: String::new(),
            fused_answer: String::new(),
            reduced_answer: String::new(),
            triggered_bug: None,
            metrics: Default::default(),
        },
    };
    metrics::counter_add(&format!("regress.{}", result.status.as_str()), 1);
    result.metrics = metrics::local_snapshot().delta(&before);
    result
}

/// A regression replay's full output: the byte-stable report plus the
/// raw merged metrics snapshot behind its condensed telemetry (what
/// `--metrics-out` dumps, mirroring the fuzz campaign).
#[derive(Debug, Clone, Default)]
pub struct RegressRun {
    /// The deterministic report (entries, summary, telemetry).
    pub report: RegressReport,
    /// The merged per-job metrics the telemetry was condensed from
    /// (`regress.*` counters, `span.regress.*` histograms, solver
    /// statistics), identical across thread counts.
    pub metrics: yinyang_rt::MetricsSnapshot,
}

/// Loads every bundle under `roots`, deduplicates identical reduced test
/// cases across all of them, replays each unique case against
/// [`RegressConfig::release`] on the thread pool, and assembles the
/// deterministic report.
pub fn run_regress(roots: &[PathBuf], config: &RegressConfig) -> Result<RegressReport, String> {
    run_regress_full(roots, config).map(|run| run.report)
}

/// The full replay driver behind [`run_regress`]: also surfaces the raw
/// merged [`yinyang_rt::MetricsSnapshot`] so the CLI can export replay
/// telemetry (`--metrics-out`) the same way `fuzz` does.
pub fn run_regress_full(roots: &[PathBuf], config: &RegressConfig) -> Result<RegressRun, String> {
    let driver_before = metrics::local_snapshot();
    let records = load_roots(roots)?;

    // Dedup: first loaded occurrence (entry order) becomes the key's
    // representative and the only copy solved.
    let mut job_of_key: BTreeMap<ReplayKey, usize> = BTreeMap::new();
    let mut jobs: Vec<usize> = Vec::new(); // representative record index per job
    let mut job_of_record: Vec<Option<usize>> = Vec::with_capacity(records.len());
    for (i, record) in records.iter().enumerate() {
        job_of_record.push(match record {
            BundleRecord::Stale { .. } => None,
            BundleRecord::Ok(bundle) => {
                Some(*job_of_key.entry(replay_key(bundle)).or_insert_with(|| {
                    jobs.push(i);
                    jobs.len() - 1
                }))
            }
        });
    }

    let seeds: Vec<u64> = (0..jobs.len())
        .map(|j| mix64(config.rng_seed ^ (j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    // The driver's own delta is taken *before* dispatch: with `threads: 1`
    // the jobs run inline on this thread, and snapshotting afterwards
    // would double-count their (already self-bracketed) metrics.
    let mut merged = metrics::local_snapshot().delta(&driver_before);
    let job_inputs: Vec<(usize, u64)> = jobs.iter().copied().zip(seeds.iter().copied()).collect();
    let progress = yinyang_rt::serve::progress();
    progress.add_jobs(job_inputs.len() as u64);
    let results = yinyang_rt::pool::parallel_map(config.threads, job_inputs, |(rec, seed)| {
        let BundleRecord::Ok(bundle) = &records[rec] else {
            unreachable!("jobs are loaded bundles")
        };
        let result = replay_one(bundle, &config.release, seed);
        // Live `/status` job counter only — a relaxed atomic bump that
        // leaves the job's telemetry bracket and report bytes untouched.
        progress.job_done();
        result
    });
    for r in &results {
        merged.merge(&r.metrics);
    }

    let mut report = RegressReport {
        release: config.release.clone(),
        entries: Vec::with_capacity(records.len()),
        summary: RegressSummary {
            total: records.len(),
            unique_replays: jobs.len(),
            ..RegressSummary::default()
        },
        telemetry: Telemetry::from_snapshot(&merged),
    };
    for (i, record) in records.iter().enumerate() {
        let entry = match record {
            BundleRecord::Stale { fingerprint, dir, reason } => RegressEntry {
                fingerprint: fingerprint.clone(),
                dir: dir.clone(),
                status: BundleStatus::Stale.as_str().to_owned(),
                detail: reason.clone(),
                ..RegressEntry::default()
            },
            BundleRecord::Ok(bundle) => {
                let job = job_of_record[i].expect("loaded bundles have a job");
                let result = &results[job];
                let representative = jobs[job];
                let duplicate_of = if representative == i {
                    String::new()
                } else {
                    match &records[representative] {
                        BundleRecord::Ok(rep) => rep.dir.clone(),
                        BundleRecord::Stale { .. } => unreachable!("representatives are loaded"),
                    }
                };
                if representative != i {
                    report.summary.duplicates_merged += 1;
                }
                RegressEntry {
                    fingerprint: bundle.fingerprint.clone(),
                    dir: bundle.dir.clone(),
                    status: result.status.as_str().to_owned(),
                    detail: result.detail.clone(),
                    solver: result.solver.clone(),
                    behavior: behavior_kind(&bundle.verdict.behavior).to_owned(),
                    oracle: bundle.verdict.oracle.clone(),
                    fused_answer: result.fused_answer.clone(),
                    reduced_answer: result.reduced_answer.clone(),
                    triggered_bug: result.triggered_bug,
                    script_hash: format!("{:016x}", bundle.reduced_hash),
                    duplicate_of,
                    replay_seed: seeds[job],
                }
            }
        };
        match entry.status.as_str() {
            "still-broken" => report.summary.still_broken += 1,
            "fixed" => report.summary.fixed += 1,
            "flaky" => report.summary.flaky += 1,
            _ => report.summary.stale += 1,
        }
        report.entries.push(entry);
    }
    publish_progress(&report);
    Ok(RegressRun { report, metrics: merged })
}

/// Publishes the replay totals to the shared `/status` state under a
/// `regress` pseudo-persona (rounds map to the single replay pass).
/// Write-only, never read back by anything byte-compared.
fn publish_progress(report: &RegressReport) {
    let mut findings = std::collections::BTreeMap::new();
    for (class, count) in [
        ("still-broken", report.summary.still_broken),
        ("fixed", report.summary.fixed),
        ("flaky", report.summary.flaky),
        ("stale", report.summary.stale),
    ] {
        if count > 0 {
            findings.insert(class.to_owned(), count as u64);
        }
    }
    yinyang_rt::serve::progress().update_persona(
        "regress",
        yinyang_rt::serve::PersonaProgress {
            round: 1,
            rounds: 1,
            tests: report.summary.unique_replays as u64,
            unknowns: 0,
            findings,
        },
    );
}

/// Renders the report as a markdown table plus a one-line summary.
pub fn render_markdown(report: &RegressReport) -> String {
    let mut out = format!("# Regression replay against `{}`\n\n", report.release);
    out.push_str("| bundle | status | fused | reduced | note |\n|---|---|---|---|---|\n");
    for e in &report.entries {
        let note = if !e.detail.is_empty() {
            e.detail.clone()
        } else if !e.duplicate_of.is_empty() {
            format!("duplicate of {}", e.duplicate_of)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            e.dir, e.status, e.fused_answer, e.reduced_answer, note
        ));
    }
    out.push('\n');
    out.push_str(&render_summary(&report.summary));
    out
}

/// The one-line tally that ends [`render_markdown`]'s report; `regress
/// --quiet` prints only this line.
pub fn render_summary(s: &RegressSummary) -> String {
    format!(
        "{} bundles: {} still-broken, {} fixed, {} flaky, {} stale \
         ({} unique replays, {} duplicates merged).\n",
        s.total, s.still_broken, s.fixed, s.flaky, s.stale, s.unique_replays, s.duplicates_merged
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RawFinding;
    use yinyang_rt::json::ToJson;

    fn write_min_bundle(dir: &Path, behavior: &Behavior, oracle: &str, reduced: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("fused.smt2"), reduced).unwrap();
        std::fs::write(dir.join("reduced.smt2"), reduced).unwrap();
        let verdict = Json::obj([
            ("fingerprint", Json::Str(dir.file_name().unwrap().to_string_lossy().into_owned())),
            ("solver", Json::Str("zirkon-trunk".into())),
            ("bug_id", Json::Null),
            ("behavior", behavior.to_json()),
            ("oracle", Json::Str(oracle.into())),
            ("fixed_bugs", Json::Arr(vec![])),
        ]);
        std::fs::write(dir.join("verdict.json"), verdict.pretty()).unwrap();
    }

    fn finding_like(behavior: Behavior, oracle: &str, script: &str) -> RawFinding {
        RawFinding {
            solver: "zirkon-trunk".into(),
            bug_id: None,
            behavior,
            logic: "QF_LIA".into(),
            benchmark: "QF_LIA".into(),
            round: 0,
            script: script.into(),
            seeds: (String::new(), String::new()),
            oracle: oracle.into(),
        }
    }

    #[test]
    fn exhibits_matches_behavior_classes() {
        let incorrect = Behavior::Incorrect { got: "sat".into(), expected: "unsat".into() };
        assert!(exhibits(&SolverAnswer::Sat, &incorrect, "unsat"));
        assert!(!exhibits(&SolverAnswer::Unsat, &incorrect, "unsat"), "agreeing answer is fixed");
        assert!(
            !exhibits(&SolverAnswer::Unknown, &incorrect, "unsat"),
            "unknown is not a mismatch"
        );
        let crash = Behavior::Crash { message: "boom".into() };
        assert!(exhibits(&SolverAnswer::Crash("other".into()), &crash, "sat"));
        assert!(!exhibits(&SolverAnswer::Sat, &crash, "sat"));
        assert!(exhibits(&SolverAnswer::Unknown, &Behavior::SpuriousUnknown, "sat"));
        assert!(!exhibits(&SolverAnswer::Sat, &Behavior::SpuriousUnknown, "sat"));
    }

    #[test]
    fn dedup_never_merges_different_behavior_classes() {
        // Differential guard for the dedup key: two bundles sharing one
        // reduced script byte-for-byte, but recorded under different
        // behavior classes, must replay as separate jobs — merging them
        // would let a crash verdict inherit an incorrect-answer replay.
        let root = std::env::temp_dir().join(format!("yy-regress-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let script = "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n";
        write_min_bundle(
            &root.join("zirkon-a-incorrect-QF_LIA"),
            &Behavior::Incorrect { got: "unsat".into(), expected: "sat".into() },
            "sat",
            script,
        );
        write_min_bundle(
            &root.join("zirkon-b-crash-QF_LIA"),
            &Behavior::Crash { message: "boom".into() },
            "sat",
            script,
        );
        let report = run_regress(&[root.clone()], &RegressConfig::default()).unwrap();
        assert_eq!(report.summary.total, 2);
        assert_eq!(report.summary.unique_replays, 2, "behavior classes must not merge");
        assert_eq!(report.summary.duplicates_merged, 0);
        let hashes: Vec<&str> = report.entries.iter().map(|e| e.script_hash.as_str()).collect();
        assert_eq!(hashes[0], hashes[1], "same reduced script, same canonical hash");
        // Clean build answers `sat`: the incorrect-unsat verdict is fixed,
        // the crash verdict is fixed too — but each via its own replay.
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn identical_bundles_across_roots_dedup_to_one_replay() {
        let base = std::env::temp_dir().join(format!("yy-regress-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let script = "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n";
        let behavior = Behavior::Incorrect { got: "unsat".into(), expected: "sat".into() };
        write_min_bundle(
            &base.join("a").join("zirkon-x1-incorrect-QF_LIA"),
            &behavior,
            "sat",
            script,
        );
        // The same reduced script reformatted: canonical dedup must still
        // collapse it even though the bytes (and fingerprint) differ.
        let reformatted =
            "; rediscovered\n(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (>  x 0))\n(check-sat)\n";
        write_min_bundle(
            &base.join("b").join("zirkon-x2-incorrect-QF_LIA"),
            &behavior,
            "sat",
            reformatted,
        );
        let report =
            run_regress(&[base.join("a"), base.join("b")], &RegressConfig::default()).unwrap();
        assert_eq!(report.summary.total, 2);
        assert_eq!(report.summary.unique_replays, 1, "canonical hash collapses the rediscovery");
        assert_eq!(report.summary.duplicates_merged, 1);
        assert_eq!(report.entries[0].duplicate_of, "");
        assert_eq!(report.entries[1].duplicate_of, report.entries[0].dir);
        assert_eq!(report.entries[0].status, report.entries[1].status);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn broken_bundles_classify_stale_with_a_reason() {
        let root = std::env::temp_dir().join(format!("yy-regress-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // Missing files entirely.
        std::fs::create_dir_all(root.join("empty-bundle")).unwrap();
        // Unparseable reduced script.
        let garbled = root.join("garbled-bundle");
        write_min_bundle(
            &garbled,
            &Behavior::SpuriousUnknown,
            "sat",
            "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n",
        );
        std::fs::write(garbled.join("reduced.smt2"), "(corrupted").unwrap();
        // Unknown persona.
        let alien = root.join("alien-bundle");
        write_min_bundle(
            &alien,
            &Behavior::SpuriousUnknown,
            "sat",
            "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n",
        );
        let verdict = std::fs::read_to_string(alien.join("verdict.json"))
            .unwrap()
            .replace("zirkon-trunk", "z3-trunk");
        std::fs::write(alien.join("verdict.json"), verdict).unwrap();
        let report = run_regress(&[root.clone()], &RegressConfig::default()).unwrap();
        assert_eq!(report.summary.stale, 3);
        assert_eq!(report.summary.unique_replays, 0);
        for e in &report.entries {
            assert_eq!(e.status, "stale");
            assert!(!e.detail.is_empty(), "stale entries must say why");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_release_is_stale_and_reference_fixes_everything() {
        let root = std::env::temp_dir().join(format!("yy-regress-release-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        // A spurious-unknown bundle whose script the clean solver decides:
        // on `reference` it answers sat, so the finding reads `fixed`.
        write_min_bundle(
            &root.join("zirkon-x9-unknown-QF_LIA"),
            &Behavior::SpuriousUnknown,
            "sat",
            "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n",
        );
        let reference = RegressConfig { release: "reference".into(), ..RegressConfig::default() };
        let report = run_regress(&[root.clone()], &reference).unwrap();
        assert_eq!(report.summary.fixed, 1, "{:?}", report.entries);
        assert_eq!(report.entries[0].solver, "zirkon-reference");

        let bogus = RegressConfig { release: "99.9".into(), ..RegressConfig::default() };
        let report = run_regress(&[root.clone()], &bogus).unwrap();
        assert_eq!(report.summary.stale, 1);
        assert!(report.entries[0].detail.contains("release `99.9` unknown"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_is_an_error() {
        let missing = std::env::temp_dir().join("yy-regress-no-such-dir");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(run_regress(&[missing], &RegressConfig::default()).is_err());
    }

    #[test]
    fn report_replays_byte_identically_across_thread_counts() {
        // The module-level determinism contract, at the library level (the
        // CLI and golden-corpus tests pin it end to end): same inputs,
        // same bytes, one vs four workers — entries and telemetry alike.
        let root = std::env::temp_dir().join(format!("yy-regress-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for i in 0..5 {
            write_min_bundle(
                &root.join(format!("zirkon-x{i}-incorrect-QF_LIA")),
                &Behavior::Incorrect { got: "unsat".into(), expected: "sat".into() },
                "sat",
                &format!(
                    "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x {i}))\n(check-sat)\n"
                ),
            );
        }
        let seq = RegressConfig { threads: 1, ..RegressConfig::default() };
        let par = RegressConfig { threads: 4, ..RegressConfig::default() };
        let a = run_regress(&[root.clone()], &seq).unwrap().to_json().pretty();
        let b = run_regress(&[root.clone()], &par).unwrap().to_json().pretty();
        assert_eq!(a, b, "thread count leaked into the regress report");
        let again = run_regress(&[root.clone()], &seq).unwrap().to_json().pretty();
        assert_eq!(a, again, "repeated runs must be byte-identical");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn markdown_report_lists_every_bundle_and_totals() {
        let root = std::env::temp_dir().join(format!("yy-regress-md-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        write_min_bundle(
            &root.join("zirkon-x1-incorrect-QF_LIA"),
            &Behavior::Incorrect { got: "unsat".into(), expected: "sat".into() },
            "sat",
            "(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 0))\n(check-sat)\n",
        );
        let report = run_regress(&[root.clone()], &RegressConfig::default()).unwrap();
        let md = render_markdown(&report);
        assert!(md.contains("Regression replay against `trunk`"), "{md}");
        assert!(md.contains("zirkon-x1-incorrect-QF_LIA"), "{md}");
        assert!(md.contains("1 bundles:"), "{md}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn verdict_parsing_reads_real_verdicts() {
        // A verdict as forensics writes it (superset of what regress
        // needs) parses into the replay configuration.
        let f = finding_like(
            Behavior::Incorrect { got: "sat".into(), expected: "unsat".into() },
            "unsat",
            "(check-sat)",
        );
        let json = Json::obj([
            ("fingerprint", Json::Str("zirkon-b001-incorrect-NRA".into())),
            ("solver", f.solver.to_json()),
            ("bug_id", Json::Int(1)),
            ("behavior", f.behavior.to_json()),
            ("oracle", f.oracle.to_json()),
            ("round", Json::Int(2)),
            ("fixed_bugs", Json::Arr(vec![Json::Int(3), Json::Int(9)])),
        ]);
        let v = parse_verdict(&json.pretty()).unwrap();
        assert_eq!(v.solver, "zirkon-trunk");
        assert_eq!(v.bug_id, Some(1));
        assert_eq!(v.fixed, vec![3, 9]);
        assert_eq!(v.oracle, "unsat");
        assert!(parse_verdict("{}").is_err(), "empty verdicts are rejected");
        assert!(parse_verdict("not json").is_err());
    }
}
