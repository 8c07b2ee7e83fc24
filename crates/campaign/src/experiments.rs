//! The per-figure experiment harness: one function per table/figure of the
//! paper's evaluation section, each returning a rendered text table (and
//! serializable data) with the same rows the paper reports.

use crate::campaign::{run_campaign_full, run_concatfuzz_round, FindingForensics};
use crate::config::{fast_solver_config, CampaignConfig, CampaignOutcome};
use crate::telemetry::Telemetry;
use crate::triage::{representatives, soundness_representatives, triage, Triage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use yinyang_core::{concat_fuzz, run_catching, Fuser, Oracle, SolverAnswer};
use yinyang_coverage::{reset, snapshot, universe, CoverageSnapshot, ProbeKind};
use yinyang_faults::{history, registry, releases_of, BugClass, BugStatus, FaultySolver, SolverId};
use yinyang_rt::impl_json_struct;
use yinyang_rt::{MetricsSnapshot, Rng, StdRng};
use yinyang_seedgen::profile::{fig7_profile, generate_row, scaled};
use yinyang_seedgen::Seed;
use yinyang_smtlib::parse_script;
use yinyang_solver::SmtSolver;

/// Fig. 7: the seed benchmark inventory (paper scale and campaign scale).
pub fn fig7(scale: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 7 — seed formula counts (paper scale, campaign 1:{scale})");
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} | {:>8} {:>8}",
        "Benchmark", "#UNSAT", "#SAT", "Total", "gen-UNS", "gen-SAT"
    );
    let mut tu = 0;
    let mut ts = 0;
    for row in fig7_profile() {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8} {:>8} | {:>8} {:>8}",
            row.name,
            row.unsat,
            row.sat,
            row.total(),
            scaled(row.unsat, scale),
            scaled(row.sat, scale),
        );
        tu += row.unsat;
        ts += row.sat;
    }
    let _ = writeln!(out, "{:<12} {:>8} {:>8} {:>8}", "Total", tu, ts, tu + ts);
    out
}

/// Fig. 8 campaign result: triage plus raw outcomes, reused by Fig. 9/10
/// and RQ4.
#[derive(Debug, Clone, Default)]
pub struct Fig8Result {
    /// Findings of the Zirkon campaign.
    pub zirkon: CampaignOutcome,
    /// Findings of the Corvus campaign.
    pub corvus: CampaignOutcome,
    /// Combined triage.
    pub triage: Triage,
    /// Per-stage timing, solver statistics, and campaign counters of both
    /// runs, merged. Replay-safe: byte-identical for the same seed.
    pub telemetry: Telemetry,
}

impl_json_struct!(Fig8Result { zirkon, corvus, triage, telemetry });

/// [`Fig8Result`] plus the raw material forensics works from: the merged
/// full-resolution metrics snapshot and per-finding job forensics, in the
/// same order as each campaign's findings.
#[derive(Debug, Clone, Default)]
pub struct Fig8Run {
    /// The report-facing result (what `fuzz` serializes).
    pub result: Fig8Result,
    /// The un-condensed merged metrics of both campaigns plus triage.
    pub metrics: MetricsSnapshot,
    /// Per-finding forensics of the Zirkon campaign.
    pub zirkon_forensics: Vec<FindingForensics>,
    /// Per-finding forensics of the Corvus campaign.
    pub corvus_forensics: Vec<FindingForensics>,
}

/// Runs the full bug-finding campaign against both personas (RQ1).
pub fn fig8_campaign(config: &CampaignConfig) -> Fig8Result {
    fig8_campaign_full(config).result
}

/// [`fig8_campaign`] keeping the forensic raw material: per-finding job
/// telemetry (for reproduction bundles) and the full metrics snapshot
/// (for `--metrics-out`). Coverage trajectories land in
/// `telemetry.coverage_rounds` when the config asks for them.
pub fn fig8_campaign_full(config: &CampaignConfig) -> Fig8Run {
    let zirkon = run_campaign_full(config, SolverId::Zirkon);
    let corvus = run_campaign_full(config, SolverId::Corvus);
    let mut all = zirkon.outcome.findings.clone();
    all.extend(corvus.outcome.findings.clone());
    let before = yinyang_rt::metrics::local_snapshot();
    let triage = {
        let _span = yinyang_rt::span!("triage", findings = all.len());
        triage(&all)
    };
    yinyang_rt::trace::emit_events(&yinyang_rt::trace::take_events());
    let mut merged = zirkon.metrics;
    merged.merge(&corvus.metrics);
    merged.merge(&yinyang_rt::metrics::local_snapshot().delta(&before));
    let mut telemetry = Telemetry::from_snapshot(&merged);
    telemetry.coverage_rounds = zirkon.coverage_rounds;
    telemetry.coverage_rounds.extend(corvus.coverage_rounds);
    Fig8Run {
        result: Fig8Result { zirkon: zirkon.outcome, corvus: corvus.outcome, triage, telemetry },
        metrics: merged,
        zirkon_forensics: zirkon.forensics,
        corvus_forensics: corvus.forensics,
    }
}

/// Renders Fig. 8a/8b/8c from a campaign result, with the paper's values
/// alongside.
pub fn render_fig8(result: &Fig8Result) -> String {
    let t = &result.triage;
    let empty = crate::triage::StatusCounts::default();
    let z = t.status.get("zirkon").unwrap_or(&empty);
    let c = t.status.get("corvus").unwrap_or(&empty);
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 8a — bug status (measured | paper Z3/CVC4: 44/13 reported, 37/8 confirmed, 35/6 fixed)");
    let _ = writeln!(out, "{:<12} {:>8} {:>8} {:>8}", "Status", "zirkon", "corvus", "Total");
    for (name, zv, cv) in [
        ("Reported", z.reported, c.reported),
        ("Confirmed", z.confirmed, c.confirmed),
        ("Fixed", z.fixed, c.fixed),
        ("Duplicate", z.duplicate, c.duplicate),
        ("Won't fix", z.wont_fix, c.wont_fix),
    ] {
        let _ = writeln!(out, "{name:<12} {zv:>8} {cv:>8} {:>8}", zv + cv);
    }
    let _ = writeln!(out, "\nFig. 8b — confirmed bug types (paper Z3: 24/11/1/1, CVC4: 5/1/2/0)");
    let _ = writeln!(out, "{:<12} {:>8} {:>8} {:>8}", "Type", "zirkon", "corvus", "Total");
    for class in ["Soundness", "Crash", "Performance", "Unknown"] {
        let zv = t.classes.get("zirkon").and_then(|m| m.get(class)).copied().unwrap_or(0);
        let cv = t.classes.get("corvus").and_then(|m| m.get(class)).copied().unwrap_or(0);
        let _ = writeln!(out, "{class:<12} {zv:>8} {cv:>8} {:>8}", zv + cv);
    }
    let _ = writeln!(out, "\nFig. 8c — confirmed bug logics (paper Z3: NIA 2, NRA 15, QF_NRA 2, QF_S 15, QF_SLIA 3; CVC4: NIA 1, NRA 1, QF_NIA 1, QF_S 4, QF_SLIA 1)");
    let _ = writeln!(out, "{:<12} {:>8} {:>8} {:>8}", "Logic", "zirkon", "corvus", "Total");
    let mut logics: Vec<&str> = Vec::new();
    for m in t.logics.values() {
        for l in m.keys() {
            if !logics.contains(&l.as_str()) {
                logics.push(l);
            }
        }
    }
    logics.sort_unstable();
    for logic in logics {
        let zv = t.logics.get("zirkon").and_then(|m| m.get(logic)).copied().unwrap_or(0);
        let cv = t.logics.get("corvus").and_then(|m| m.get(logic)).copied().unwrap_or(0);
        let _ = writeln!(out, "{logic:<12} {zv:>8} {cv:>8} {:>8}", zv + cv);
    }
    let _ = writeln!(
        out,
        "\ntests: zirkon {} (unknown {}), corvus {} (unknown {})",
        result.zirkon.stats.tests,
        result.zirkon.stats.unknowns,
        result.corvus.stats.tests,
        result.corvus.stats.unknowns
    );
    let solve = result.telemetry.stage("solve");
    let _ = writeln!(
        out,
        "telemetry: solve p50/p95 {}/{} {}, sat decisions {}, conflicts {}, \
         simplex pivots {}, string search nodes {}",
        solve.p50,
        solve.p95,
        yinyang_rt::trace::unit(),
        result.telemetry.counter("solver.sat.decisions"),
        result.telemetry.counter("solver.sat.conflicts"),
        result.telemetry.counter("solver.simplex.pivots"),
        result.telemetry.counter("solver.strings.search_nodes"),
    );
    out
}

/// Fig. 9 + RQ2: the historical tracker survey with our found fractions.
pub fn fig9(result: &Fig8Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 9 — historical soundness bugs per year (tracker survey)");
    let _ = writeln!(out, "zirkon (Z3-like), 2015–2019:");
    for (year, n) in history::zirkon_soundness_by_year() {
        let _ = writeln!(out, "  {year}: {n:>3} {}", "#".repeat(n));
    }
    let _ = writeln!(out, "corvus (CVC4-like), 2010–2019:");
    for (year, n) in history::corvus_soundness_by_year() {
        let _ = writeln!(out, "  {year}: {n:>3} {}", "#".repeat(n));
    }
    let z_total: usize = history::zirkon_soundness_by_year().iter().map(|(_, n)| n).sum();
    let c_total: usize = history::corvus_soundness_by_year().iter().map(|(_, n)| n).sum();
    let z_found = soundness_representatives(&result.zirkon.findings, SolverId::Zirkon).len();
    let c_found = soundness_representatives(&result.corvus.findings, SolverId::Corvus).len();
    let _ = writeln!(
        out,
        "RQ2: found {z_found}/{z_total} ({:.0}%) zirkon soundness bugs (paper: 24/146 = 16%)",
        100.0 * z_found as f64 / z_total as f64
    );
    let _ = writeln!(
        out,
        "RQ2: found {c_found}/{c_total} ({:.0}%) corvus soundness bugs (paper: 5/42 = 11%)",
        100.0 * c_found as f64 / c_total as f64
    );
    out
}

/// Fig. 10: re-run the found soundness-bug test cases against each release.
pub fn fig10(result: &Fig8Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 10 — found soundness bugs affecting release versions");
    for (solver_id, findings, paper) in [
        (
            SolverId::Zirkon,
            &result.zirkon.findings,
            "paper Z3: 4.5.0:8 4.6.0:5 4.7.1:5 4.8.1:5 4.8.3:5 4.8.4:8 4.8.5:10 trunk:24",
        ),
        (SolverId::Corvus, &result.corvus.findings, "paper CVC4: 1.5:2 1.6:1 1.7:2 trunk:5"),
    ] {
        let reps = soundness_representatives(findings, solver_id);
        let _ = writeln!(out, "{} ({paper})", solver_id.name());
        for release in releases_of(solver_id) {
            let mut affected = 0usize;
            for (_, f) in &reps {
                let Ok(script) = parse_script(&f.script) else { continue };
                let mut solver = FaultySolver::at_release(solver_id, release);
                solver.set_base_config(fast_solver_config());
                let answer = run_catching(&solver, &script);
                let wrong = match (&answer, f.oracle.as_str()) {
                    (SolverAnswer::Sat, "unsat") | (SolverAnswer::Unsat, "sat") => true,
                    _ => false,
                };
                if wrong {
                    affected += 1;
                }
            }
            let _ = writeln!(out, "  {release:<8} {affected:>3} {}", "#".repeat(affected));
        }
    }
    out
}

/// A coverage measurement of one arm of RQ3/RQ4.
#[derive(Debug, Clone, Default)]
pub struct CoverageArm {
    /// Snapshot per (benchmark, oracle) cell.
    pub cells: BTreeMap<(String, &'static str), CoverageSnapshot>,
}

/// Runs RQ3's coverage experiment: for every Fig. 7 benchmark and oracle,
/// the coverage of the seeds alone (`Benchmark`), seeds + concatenation
/// (`ConcatFuzz`), and seeds + fusion (`YinYang`).
pub fn coverage_experiment(
    scale: usize,
    fuzz_tests: usize,
    rng_seed: u64,
) -> (CoverageArm, CoverageArm, CoverageArm) {
    let solver = SmtSolver::with_config(fast_solver_config());
    let fuser = Fuser::new();
    let mut benchmark_arm = CoverageArm::default();
    let mut concat_arm = CoverageArm::default();
    let mut yinyang_arm = CoverageArm::default();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for row in fig7_profile() {
        let seeds = generate_row(&mut rng, &row, scale);
        for oracle in [Oracle::Sat, Oracle::Unsat] {
            let pool: Vec<&Seed> = seeds.iter().filter(|s| s.oracle == oracle).collect();
            if pool.is_empty() {
                continue;
            }
            let key = (row.name.to_owned(), if oracle == Oracle::Sat { "SAT" } else { "UNSAT" });
            // Arm 1: seeds only.
            reset();
            for s in &pool {
                let _ = solver.solve_script(&s.script);
            }
            benchmark_arm.cells.insert(key.clone(), snapshot());
            // Arm 2: seeds + ConcatFuzz tests.
            reset();
            for s in &pool {
                let _ = solver.solve_script(&s.script);
            }
            for _ in 0..fuzz_tests {
                let s1 = pool[rng.random_range(0..pool.len())];
                let s2 = pool[rng.random_range(0..pool.len())];
                let script = concat_fuzz(oracle, &s1.script, &s2.script);
                let _ = solver.solve_script(&script);
            }
            concat_arm.cells.insert(key.clone(), snapshot());
            // Arm 3: seeds + YinYang fused tests.
            reset();
            for s in &pool {
                let _ = solver.solve_script(&s.script);
            }
            for _ in 0..fuzz_tests {
                let s1 = pool[rng.random_range(0..pool.len())];
                let s2 = pool[rng.random_range(0..pool.len())];
                if let Ok(fused) = fuser.fuse(&mut rng, oracle, &s1.script, &s2.script) {
                    let _ = solver.solve_script(&fused.script);
                }
            }
            yinyang_arm.cells.insert(key, snapshot());
        }
    }
    (benchmark_arm, concat_arm, yinyang_arm)
}

/// Fig. 11: the full coverage table (Benchmark vs YinYang per benchmark,
/// oracle, and metric).
pub fn fig11(scale: usize, fuzz_tests: usize, rng_seed: u64) -> String {
    let (bench, _, yy) = coverage_experiment(scale, fuzz_tests, rng_seed);
    let uni = universe();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 11 — coverage (%), Benchmark vs YinYang (higher of each pair marked *)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<6} {:>7} {:>7} {:>7}   {:>7} {:>7} {:>7}",
        "Benchmark", "oracle", "l-B", "f-B", "b-B", "l-YY", "f-YY", "b-YY"
    );
    for (key, b) in &bench.cells {
        let y = &yy.cells[key];
        let vals: Vec<(f64, f64)> = ProbeKind::ALL
            .iter()
            .map(|&k| (b.percent_of(&uni, k), y.percent_of(&uni, k)))
            .collect();
        let mark = |a: f64, b: f64| if b >= a { "*" } else { " " };
        let _ = writeln!(
            out,
            "{:<12} {:<6} {:>7.1} {:>7.1} {:>7.1}   {:>6.1}{} {:>6.1}{} {:>6.1}{}",
            key.0,
            key.1,
            vals[0].0,
            vals[1].0,
            vals[2].0,
            vals[0].1,
            mark(vals[0].0, vals[0].1),
            vals[1].1,
            mark(vals[1].0, vals[1].1),
            vals[2].1,
            mark(vals[2].0, vals[2].1),
        );
    }
    out
}

/// Fig. 12: Benchmark vs ConcatFuzz vs YinYang coverage averaged over all
/// benchmarks (RQ4's coverage comparison).
pub fn fig12(scale: usize, fuzz_tests: usize, rng_seed: u64) -> String {
    let (bench, concat, yy) = coverage_experiment(scale, fuzz_tests, rng_seed);
    let uni = universe();
    let avg = |arm: &CoverageArm, kind: ProbeKind| -> f64 {
        if arm.cells.is_empty() {
            return 0.0;
        }
        arm.cells.values().map(|s| s.percent_of(&uni, kind)).sum::<f64>() / arm.cells.len() as f64
    };
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 12 — average coverage (%) over all logics");
    let _ =
        writeln!(out, "{:<12} {:>9} {:>10} {:>9}", "Metric", "Benchmark", "ConcatFuzz", "YinYang");
    for (label, kind) in [
        ("lines", ProbeKind::Line),
        ("functions", ProbeKind::Function),
        ("branches", ProbeKind::Branch),
    ] {
        let _ = writeln!(
            out,
            "{:<12} {:>9.1} {:>10.1} {:>9.1}",
            label,
            avg(&bench, kind),
            avg(&concat, kind),
            avg(&yy, kind)
        );
    }
    let _ = writeln!(out, "(expected shape: Benchmark <= ConcatFuzz <= YinYang)");
    out
}

/// RQ4: does plain concatenation retrigger the bugs YinYang found?
pub fn rq4(result: &Fig8Result, config: &CampaignConfig) -> String {
    let mut all = result.zirkon.findings.clone();
    all.extend(result.corvus.findings.clone());
    let reps = representatives(&all);
    let pool: Vec<_> = reps.into_iter().take(50).collect();
    let mut retriggered = 0usize;
    for (bug_id, f) in &pool {
        let (Ok(s1), Ok(s2)) = (parse_script(&f.seeds.0), parse_script(&f.seeds.1)) else {
            continue;
        };
        let oracle = if f.oracle == "sat" { Oracle::Sat } else { Oracle::Unsat };
        let script = concat_fuzz(oracle, &s1, &s2);
        let Some(solver_id) = crate::config::solver_of(f) else { continue };
        let mut solver = FaultySolver::trunk(solver_id);
        solver.set_base_config(fast_solver_config());
        let same_bug = solver.triggered_bug(&script).map(|b| b.id) == Some(*bug_id);
        if same_bug {
            let answer = run_catching(&solver, &script);
            let wrong = matches!(
                (&answer, oracle),
                (SolverAnswer::Crash(_), _)
                    | (SolverAnswer::Sat, Oracle::Unsat)
                    | (SolverAnswer::Unsat, Oracle::Sat)
            ) || matches!(answer, SolverAnswer::Unknown if matches!(
                solver.triggered_bug(&script).map(|b| b.class),
                Some(BugClass::Performance | BugClass::Unknown)
            ));
            if wrong {
                retriggered += 1;
            }
        }
    }
    // Also report ConcatFuzz's own fresh findings for context.
    let concat_out = run_concatfuzz_round(config, SolverId::Zirkon);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "RQ4 — ConcatFuzz retriggers {retriggered}/{} YinYang bugs (paper: 5/50)",
        pool.len()
    );
    let _ = writeln!(
        out,
        "ConcatFuzz standalone round: {} findings in {} tests",
        concat_out.findings.len(),
        concat_out.stats.tests
    );
    out
}

/// Throughput measurement (Section 4.2 reports 41.5 tests/second
/// single-threaded for the Python implementation).
pub fn throughput(seconds: f64) -> String {
    let mut rng = StdRng::seed_from_u64(1);
    let gen = yinyang_seedgen::SeedGenerator::new(yinyang_smtlib::Logic::QfNra);
    let seeds: Vec<Seed> = (0..20).map(|_| gen.generate_sat(&mut rng)).collect();
    let fuser = Fuser::new();
    let watch = yinyang_rt::Stopwatch::start();
    let mut count = 0usize;
    while watch.elapsed_secs() < seconds {
        let s1 = &seeds[rng.random_range(0..seeds.len())];
        let s2 = &seeds[rng.random_range(0..seeds.len())];
        if fuser.fuse(&mut rng, Oracle::Sat, &s1.script, &s2.script).is_ok() {
            count += 1;
        }
    }
    let rate = count as f64 / watch.elapsed_secs();
    format!(
        "Throughput — {rate:.1} fused tests/second generated single-threaded \
         (paper's Python tool: 41.5/s incl. solving)\n"
    )
}

/// Sanity experiment: the reference (bug-free) solver never contradicts the
/// oracle — YinYang has no false positives by construction.
pub fn false_positive_check(tests: usize, rng_seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut solver = FaultySolver::reference(SolverId::Zirkon);
    solver.set_base_config(fast_solver_config());
    let fuser = Fuser::new();
    let mut checked = 0usize;
    let mut unknowns = 0usize;
    for row in fig7_profile() {
        let seeds = generate_row(&mut rng, &row, 800);
        for oracle in [Oracle::Sat, Oracle::Unsat] {
            let pool: Vec<&Seed> = seeds.iter().filter(|s| s.oracle == oracle).collect();
            if pool.is_empty() {
                continue;
            }
            for _ in 0..tests {
                let s1 = pool[rng.random_range(0..pool.len())];
                let s2 = pool[rng.random_range(0..pool.len())];
                let Ok(fused) = fuser.fuse(&mut rng, oracle, &s1.script, &s2.script) else {
                    continue;
                };
                checked += 1;
                match run_catching(&solver, &fused.script) {
                    SolverAnswer::Crash(m) => {
                        return format!(
                            "FALSE POSITIVE: reference solver crashed: {m}\n{}",
                            fused.script
                        )
                    }
                    SolverAnswer::Unknown => unknowns += 1,
                    SolverAnswer::Sat if oracle == Oracle::Unsat => {
                        return format!(
                            "FALSE POSITIVE: sat on unsat-by-construction\n{}",
                            fused.script
                        )
                    }
                    SolverAnswer::Unsat if oracle == Oracle::Sat => {
                        return format!(
                            "FALSE POSITIVE: unsat on sat-by-construction\n{}",
                            fused.script
                        )
                    }
                    _ => {}
                }
            }
        }
    }
    format!(
        "No false positives on the reference solver: {checked} fused tests, {unknowns} unknown ({} decided)\n",
        checked - unknowns
    )
}

/// Bug counts of the registry, for documentation.
pub fn registry_summary() -> String {
    let mut counts: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for b in registry() {
        if matches!(b.status, BugStatus::Confirmed { .. }) {
            *counts.entry((b.solver.name(), b.class.name())).or_default() += 1;
        }
    }
    let mut out = String::from("Injected bug registry (confirmed):\n");
    for ((solver, class), n) in counts {
        let _ = writeln!(out, "  {solver:<8} {class:<12} {n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_renders_all_rows() {
        let t = fig7(100);
        for name in
            ["LIA", "LRA", "NRA", "QF_LIA", "QF_LRA", "QF_NRA", "QF_SLIA", "QF_S", "StringFuzz"]
        {
            assert!(t.contains(name), "{name} missing from Fig. 7 table");
        }
        assert!(t.contains("75097"), "paper total missing");
    }

    #[test]
    fn registry_summary_counts_45_confirmed() {
        let s = registry_summary();
        assert!(s.contains("zirkon"));
        assert!(s.contains("corvus"));
        // 24 + 11 + 1 + 1 + 5 + 1 + 2 = 45 across the lines.
        let total: usize =
            s.lines().filter_map(|l| l.split_whitespace().last()?.parse::<usize>().ok()).sum();
        assert_eq!(total, 45);
    }

    #[test]
    fn throughput_reports_a_rate() {
        let t = throughput(0.2);
        assert!(t.contains("tests/second"), "{t}");
    }

    #[test]
    fn false_positive_check_small_run_is_clean() {
        let report = false_positive_check(2, 99);
        assert!(report.starts_with("No false positives"), "{report}");
    }

    #[test]
    fn render_fig8_handles_empty_campaign() {
        let empty = Fig8Result {
            zirkon: CampaignOutcome::default(),
            corvus: CampaignOutcome::default(),
            triage: crate::triage::Triage::default(),
            telemetry: Telemetry::default(),
        };
        let t = render_fig8(&empty);
        assert!(t.contains("Reported"));
        assert!(t.contains("Soundness"));
    }
}
