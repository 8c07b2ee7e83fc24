//! Deterministic replay: the campaign's reproducibility guarantee.
//!
//! The paper's methodology depends on re-running a campaign from its seed
//! to re-derive every finding. Here that is a hard invariant: two
//! invocations with the same `--seed` must produce *byte-identical* triage
//! JSON — same findings, same order, same formatting — both single- and
//! multi-threaded. The same holds for `--trace` output: span durations use
//! the deterministic tick clock, and the driver merges per-job event lists
//! in job order, so traces replay byte-for-byte too.

use std::process::Command;
use yinyang_campaign::config::CampaignConfig;
use yinyang_campaign::experiments::{fig11, fig8_campaign, render_fig8};
use yinyang_campaign::run_campaign_full;
use yinyang_faults::SolverId;
use yinyang_rt::json::ToJson;
use yinyang_rt::{props, Rng, StdRng};

fn run_cli(args: &[&str]) -> Vec<u8> {
    let out =
        Command::new(env!("CARGO_BIN_EXE_yinyang")).args(args).output().expect("spawn yinyang");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

#[test]
fn seeded_cli_runs_are_byte_identical() {
    let args = ["fuzz", "--iterations", "2", "--rounds", "1", "--seed", "41", "--json"];
    let first = run_cli(&args);
    let second = run_cli(&args);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same --seed must replay to identical bytes");
}

#[test]
fn different_seeds_change_the_rng_stream() {
    // Guards against a seed that is parsed but ignored: full campaign
    // outcomes (not just triage counters) must differ across seeds, at
    // least in their raw findings' scripts. Compare the full fuzz output.
    let a = run_cli(&["fuzz", "--iterations", "3", "--rounds", "1", "--seed", "1", "--json"]);
    let b = run_cli(&["fuzz", "--iterations", "3", "--rounds", "1", "--seed", "2", "--json"]);
    assert_ne!(a, b, "--seed has no effect on the campaign");
}

#[test]
fn library_campaigns_replay_byte_identically() {
    let config = CampaignConfig {
        scale: 400,
        iterations: 2,
        rounds: 2,
        rng_seed: 0xABCD,
        ..CampaignConfig::default()
    };
    let first = fig8_campaign(&config).to_json().pretty();
    let second = fig8_campaign(&config).to_json().pretty();
    assert_eq!(first, second);
}

#[test]
fn parallel_campaigns_replay_byte_identically() {
    // The thread pool returns job results in input order, so the merged
    // findings list — and therefore the serialized campaign — must be
    // deterministic even multi-threaded.
    let config = CampaignConfig {
        scale: 400,
        iterations: 4,
        rounds: 1,
        rng_seed: 0x5EED,
        threads: 3,
        ..CampaignConfig::default()
    };
    let first = fig8_campaign(&config).to_json().pretty();
    let second = fig8_campaign(&config).to_json().pretty();
    assert_eq!(first, second);
}

/// Coverage is per job: a campaign's trajectory counts only its own probe
/// hits, so two campaigns running at once in one process each report the
/// trajectory they report alone.
#[test]
fn concurrent_campaigns_report_the_coverage_trajectories_they_report_alone() {
    let config =
        |seed| CampaignConfig { iterations: 2, rounds: 2, rng_seed: seed, ..Default::default() };
    let (a, b) = (config(3), config(4));
    let alone_a = run_campaign_full(&a, SolverId::Zirkon).coverage_rounds;
    let alone_b = run_campaign_full(&b, SolverId::Corvus).coverage_rounds;
    assert_eq!(alone_a.len(), 2, "one trajectory point per round");
    assert!(alone_a[1].lines_hits > alone_a[0].lines_hits, "{alone_a:?}");
    let (together_a, together_b) = std::thread::scope(|s| {
        let a = s.spawn(|| run_campaign_full(&a, SolverId::Zirkon).coverage_rounds);
        let b = s.spawn(|| run_campaign_full(&b, SolverId::Corvus).coverage_rounds);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(together_a, alone_a);
    assert_eq!(together_b, alone_b);
}

/// Fig. 11's denominator is the union of its own cells, so a campaign
/// that ran earlier in the process does not change the table.
#[test]
fn fig11_does_not_depend_on_what_ran_before_it() {
    let before = fig11(1600, 2, 5);
    fig8_campaign(&CampaignConfig { iterations: 2, rounds: 1, rng_seed: 5, ..Default::default() });
    assert_eq!(fig11(1600, 2, 5), before);
}

/// The JSON report and the rendered Fig. 8 markdown of one campaign.
fn campaign_reports(seed: u64, threads: usize) -> (String, String) {
    let config =
        CampaignConfig { iterations: 3, rounds: 2, rng_seed: seed, threads, ..Default::default() };
    let result = fig8_campaign(&config);
    (result.to_json().pretty(), render_fig8(&result))
}

props! {
    cases: 3;

    fn sequential_and_sharded_campaigns_are_identical(seed in |r: &mut StdRng| r.random_range(0u64..1 << 20)) {
        // Stronger than run-to-run replay: the thread *count* must not
        // leak into the report either. A round is a flat job list with
        // per-job RNG streams, and telemetry merges per-job metric deltas
        // in job order, so 1, 2 and 4 threads — including every counter
        // total and span histogram — serialize to the same bytes.
        let (json_ref, md_ref) = campaign_reports(seed, 1);
        for threads in [2usize, 4] {
            let (json, md) = campaign_reports(seed, threads);
            assert_eq!(json, json_ref, "JSON report differs at {threads} threads (seed {seed})");
            assert_eq!(md, md_ref, "markdown report differs at {threads} threads (seed {seed})");
        }
    }
}

#[test]
fn trace_files_replay_byte_identically_across_thread_counts() {
    // `--trace` output is part of the replay contract: tick-clock span
    // durations and input-order event merging make the JSON-lines file a
    // pure function of the seed, for any --threads value. Two rounds, so
    // the bytes also cross a fix-and-retest barrier: round 1 runs with
    // the bugs that round 0's findings fixed.
    let dir = std::env::temp_dir().join("yinyang-replay-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let traces: Vec<std::path::PathBuf> =
        (0..3).map(|i| dir.join(format!("run{i}.jsonl"))).collect();
    let outputs: Vec<Vec<u8>> = traces
        .iter()
        .zip(["1", "1", "3"])
        .map(|(path, threads)| {
            run_cli(&[
                "fuzz",
                "--iterations",
                "2",
                "--rounds",
                "2",
                "--seed",
                "11",
                "--threads",
                threads,
                "--json",
                "--trace",
                path.to_str().unwrap(),
            ])
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "same --seed must replay to identical stdout");
    assert_eq!(outputs[0], outputs[2], "thread count must not change stdout");
    let files: Vec<Vec<u8>> = traces.iter().map(|p| std::fs::read(p).unwrap()).collect();
    assert!(!files[0].is_empty(), "--trace produced no events");
    assert_eq!(files[0], files[1], "same --seed must replay to an identical trace");
    assert_eq!(files[0], files[2], "thread count must not change the trace");
    // Spot-check the format: every line is one JSON object with span + dur.
    let text = String::from_utf8(files[0].clone()).unwrap();
    for line in text.lines().take(5) {
        let v = yinyang_rt::json::Json::parse(line).expect("trace line parses");
        assert!(v.get("span").is_some() && v.get("dur").is_some(), "bad event: {line}");
        assert_eq!(v.get("unit").and_then(yinyang_rt::json::Json::as_str), Some("ticks"));
    }
}

/// Recursively lists `dir` as (relative path, file bytes), sorted.
fn dir_contents(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &std::path::Path, dir: &std::path::Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn bundles_and_profiles_replay_byte_identically_across_thread_counts() {
    // Forensics inherit the replay contract: reproduction bundles (which
    // embed per-job metrics and trace slices) and span profiles folded
    // from the trace must be pure functions of the seed, for any
    // --threads value.
    let root = std::env::temp_dir().join("yinyang-replay-bundles");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let mut profiles = Vec::new();
    for (label, threads) in [("seq", "1"), ("par", "4")] {
        let bundles = root.join(label);
        let trace = root.join(format!("{label}.jsonl"));
        run_cli(&[
            "fuzz",
            "--iterations",
            "2",
            "--rounds",
            "1",
            "--seed",
            "7",
            "--threads",
            threads,
            "--quiet",
            "--trace",
            trace.to_str().unwrap(),
            "--bundle-dir",
            bundles.to_str().unwrap(),
        ]);
        profiles.push(run_cli(&["profile", trace.to_str().unwrap(), "--json"]));
    }
    assert_eq!(profiles[0], profiles[1], "thread count changed the span profile");
    let seq = dir_contents(&root.join("seq"));
    let par = dir_contents(&root.join("par"));
    assert!(!seq.is_empty(), "campaign produced no bundles");
    let names = |v: &[(String, Vec<u8>)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&seq), names(&par), "bundle trees differ in file sets");
    for ((name, a), (_, b)) in seq.iter().zip(&par) {
        assert_eq!(a, b, "bundle file {name} differs between thread counts");
    }
    // The acceptance bar: at least one bundle's reduced script is strictly
    // smaller than its fused script.
    let shrunk = seq.iter().filter(|(n, _)| n.ends_with("reduced.smt2")).any(|(n, reduced)| {
        let fused = seq
            .iter()
            .find(|(f, _)| *f == n.replace("reduced.smt2", "fused.smt2"))
            .map(|(_, bytes)| bytes.len())
            .unwrap_or(0);
        reduced.len() < fused
    });
    assert!(shrunk, "no bundle's reduced script is smaller than its fused script");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fuzz_json_report_carries_telemetry() {
    let out = run_cli(&["fuzz", "--iterations", "2", "--rounds", "1", "--seed", "7", "--json"]);
    let text = String::from_utf8(out).unwrap();
    let v = yinyang_rt::json::Json::parse(text.trim()).expect("valid fuzz JSON");
    let triage = v.get("triage").expect("report has a triage section");
    assert!(triage.get("status").is_some(), "triage lacks the Fig. 8a status table");
    let telemetry = v.get("telemetry").expect("report has a telemetry section");
    let stages = telemetry.get("stages").expect("telemetry has stages");
    for stage in ["seedgen", "fusion", "solve", "triage"] {
        let s = stages.get(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(
            s.get("p50").is_some() && s.get("p95").is_some() && s.get("p99").is_some(),
            "stage {stage} lacks p50/p95/p99"
        );
    }
    let counters = telemetry.get("counters").expect("telemetry has counters");
    assert!(counters.get("solver.sat.decisions").is_some(), "missing solver statistics");
    // Every campaign records its per-round coverage trajectory (one entry
    // per persona per round).
    let rounds = telemetry
        .get("coverage_rounds")
        .and_then(yinyang_rt::json::Json::as_arr)
        .expect("telemetry has coverage_rounds");
    assert_eq!(rounds.len(), 2, "one trajectory point per persona per round");
    for r in rounds {
        assert!(r.get("lines_sites").is_some() && r.get("solver").is_some(), "bad round: {r:?}");
    }
}
