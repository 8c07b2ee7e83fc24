//! Golden-corpus gate for `yinyang regress`: a committed mini bundle set
//! (two campaign directories plus one deliberately corrupted bundle)
//! must replay into exactly the committed report, byte for byte, at any
//! thread count.
//!
//! The fixture corpus under `tests/fixtures/bundles/` was produced by
//! `yinyang fuzz --iterations 2 --rounds 1 --seed 7 --bundle-dir` run
//! twice (campaign-a and campaign-b share the seed, so campaign-b's
//! `zirkon-b001-incorrect-NRA` is a byte-identical rediscovery that must
//! dedup into campaign-a's), and `expected_report.json` by
//! `yinyang regress tests/fixtures/bundles/campaign-a
//! tests/fixtures/bundles/campaign-b --json`. Regenerate it the same way
//! after an intentional report-format change.

use std::path::PathBuf;
use yinyang_campaign::{run_regress, RegressConfig};
use yinyang_rt::json::ToJson;

// Relative on purpose: the report embeds bundle paths exactly as given,
// and cargo runs integration tests from the package root, so these match
// the CLI invocation that produced the committed expectation.
fn fixture_roots() -> Vec<PathBuf> {
    vec![
        PathBuf::from("tests/fixtures/bundles/campaign-a"),
        PathBuf::from("tests/fixtures/bundles/campaign-b"),
    ]
}

fn replay(threads: usize) -> String {
    let config = RegressConfig { threads, ..RegressConfig::default() };
    let report = run_regress(&fixture_roots(), &config).expect("fixture corpus must load");
    // The CLI prints the pretty JSON through `println!`.
    format!("{}\n", report.to_json().pretty())
}

#[test]
fn regress_report_matches_committed_golden_file() {
    let expected = std::fs::read_to_string("tests/fixtures/bundles/expected_report.json")
        .expect("committed expected_report.json");
    let actual = replay(1);
    assert_eq!(
        actual, expected,
        "regress report drifted from the golden fixture; if the change is \
         intentional, regenerate expected_report.json (see module docs)"
    );
}

#[test]
fn regress_report_is_byte_identical_across_thread_counts() {
    assert_eq!(replay(1), replay(4), "thread count leaked into the regress report");
}

#[test]
fn golden_corpus_exercises_dedup_and_staleness() {
    // Guard the fixture's own coverage: if someone regenerates the corpus
    // and loses the duplicate or the corrupt bundle, the golden test
    // would silently stop testing those paths.
    let report = run_regress(&fixture_roots(), &RegressConfig::default()).unwrap();
    assert!(report.summary.duplicates_merged >= 1, "corpus must contain a cross-campaign dup");
    assert!(report.summary.stale >= 1, "corpus must contain a stale bundle");
    assert!(report.summary.still_broken >= 3, "corpus must contain live findings");
    assert_eq!(report.summary.total, report.entries.len());
}
