//! End-to-end tests of the `yinyang` binary: the CLI surface the paper's
//! tool exposes (testing campaigns, solving, fusing).

use std::process::Command;

fn yinyang() -> Command {
    Command::new(env!("CARGO_BIN_EXE_yinyang"))
}

#[test]
fn exp_fig7_prints_inventory() {
    let out = yinyang().args(["exp", "fig7"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("QF_SLIA"));
    assert!(text.contains("75097"));
}

#[test]
fn solve_reads_a_script() {
    let dir = std::env::temp_dir().join("yinyang-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sat.smt2");
    std::fs::write(&path, "(declare-fun x () Int) (assert (> x 41)) (assert (< x 43)) (check-sat)")
        .unwrap();
    let out = yinyang().args(["solve", path.to_str().unwrap()]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("sat"), "{text}");
    assert!(text.contains("(define-fun x () Int 42)"), "{text}");
}

#[test]
fn solve_rejects_garbage() {
    let dir = std::env::temp_dir().join("yinyang-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.smt2");
    std::fs::write(&path, "(this is not smtlib").unwrap();
    let out = yinyang().args(["solve", path.to_str().unwrap()]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn fuse_produces_a_parseable_script() {
    let dir = std::env::temp_dir().join("yinyang-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.smt2");
    let b = dir.join("b.smt2");
    std::fs::write(&a, "(set-logic QF_LIA) (declare-fun x () Int) (assert (> x 0))").unwrap();
    std::fs::write(&b, "(set-logic QF_LIA) (declare-fun y () Int) (assert (< y 0))").unwrap();
    let out = yinyang()
        .args(["fuse", "sat", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("; oracle: sat"));
    let body: String = text.lines().filter(|l| !l.starts_with(';')).collect::<Vec<_>>().join("\n");
    yinyang_smtlib::parse_script(&body).expect("fused output parses");
}

#[test]
fn unknown_subcommand_fails() {
    let out = yinyang().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn help_lists_every_subcommand_and_flag() {
    let out = yinyang().args(["help"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in [
        "exp",
        "fuzz",
        "regress",
        "profile",
        "experiments-md",
        "solve",
        "fuse",
        "trace-check",
        "export",
        "fetch",
        "help",
    ] {
        assert!(text.contains(cmd), "help is missing the `{cmd}` command");
    }
    for flag in [
        "--scale",
        "--iterations",
        "--rounds",
        "--seed",
        "--threads",
        "--json",
        "--release",
        "--trace",
        "--bundle-dir",
        "--metrics-out",
        "--bench-report",
        "--check",
        "--verbose",
        "--quiet",
        "--wallclock",
        "--status-addr",
        "--chrome-trace",
        "--flamegraph",
        "--lanes",
    ] {
        assert!(text.contains(flag), "help is missing the `{flag}` option");
    }
    // `-h` and `--help` print the same reference, also after a command.
    for args in [&["-h"][..], &["--help"], &["fuzz", "--help"], &["exp", "fig8", "-h"]] {
        let out = yinyang().args(args).output().expect("spawn");
        assert!(out.status.success(), "{args:?}");
        assert_eq!(out.stdout, text.as_bytes(), "{args:?} does not print the reference");
    }
}

/// A misspelled or removed flag, and a number that does not parse, stop
/// the command before any work: exit 1 (not a panic's 101), nothing on
/// stdout, and one stderr line naming the argument.
#[test]
fn fuzz_rejects_unknown_flags_and_malformed_numbers() {
    for args in [&["--bogus"][..], &["--cache"], &["--no-pipeline"], &["--seed", "abc"]] {
        let out = yinyang().arg("fuzz").args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "fuzz {args:?}");
        assert!(out.stdout.is_empty(), "fuzz {args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "fuzz {args:?}: {stderr}");
        for arg in args {
            assert!(stderr.contains(arg), "fuzz {args:?} does not name `{arg}`: {stderr}");
        }
    }
}

/// An option the command does not read (including the removed fleet
/// options), an argument beyond those the command takes, a single-dash
/// option, `--scale 0` and an oracle other than `sat`/`unsat` are refused
/// the same way: exit 1, nothing on stdout, one stderr line naming the
/// argument.
#[test]
fn arguments_the_command_does_not_take_are_refused() {
    let cases: &[(&[&str], &str)] = &[
        (&["fuzz", "--shards", "2"], "--shards"),
        (&["fuzz", "--shard", "0/2"], "--shard"),
        (&["fuzz", "--partial-dir", "parts"], "--partial-dir"),
        (&["fuzz", "--partial-out", "parts"], "--partial-out"),
        (&["fuzz", "--capture-events"], "--capture-events"),
        (&["fuzz", "--lanes", "3"], "--lanes"),
        (&["solve", "f.smt2", "--seed", "4"], "--seed"),
        (&["export", "t.jsonl", "--json"], "--json"),
        (&["fuzz", "stray"], "stray"),
        (&["solve", "f.smt2", "g.smt2"], "g.smt2"),
        (&["fuzz", "-x"], "-x"),
        (&["fuzz", "--scale", "0"], "--scale"),
        (&["exp", "fig7", "--scale", "0"], "--scale"),
        (&["fuse", "sot", "a.smt2", "b.smt2"], "sot"),
        (&["fleet", "--shards", "2"], "fleet"),
    ];
    for (args, named) in cases {
        let out = yinyang().args(*args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} does not name `{named}`: {stderr}");
    }
}

#[test]
fn profile_folds_a_trace_into_a_span_tree() {
    let dir = std::env::temp_dir().join("yinyang-cli-profile");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let out = yinyang()
        .args(["fuzz", "--iterations", "1", "--rounds", "1", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text_out = yinyang().args(["profile", trace.to_str().unwrap()]).output().expect("spawn");
    assert!(text_out.status.success(), "{}", String::from_utf8_lossy(&text_out.stderr));
    let text = String::from_utf8_lossy(&text_out.stdout);
    assert!(text.contains("span tree"), "{text}");
    assert!(text.contains("p99"), "profile table lacks a p99 column: {text}");
    assert!(text.contains("solve"), "profile lacks the solve span: {text}");
    let json_out =
        yinyang().args(["profile", trace.to_str().unwrap(), "--json"]).output().expect("spawn");
    assert!(json_out.status.success());
    let v = yinyang_rt::json::Json::parse(String::from_utf8_lossy(&json_out.stdout).trim())
        .expect("profile --json parses");
    assert!(v.get("spans").is_some() && v.get("total").is_some(), "profile JSON shape");
    // Garbage is rejected.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "not json\n").unwrap();
    let rejected = yinyang().args(["profile", bad.to_str().unwrap()]).output().expect("spawn");
    assert!(!rejected.status.success(), "profile accepted a malformed trace");
}

#[test]
fn fuzz_writes_metrics_out_json() {
    let dir = std::env::temp_dir().join("yinyang-cli-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let out = yinyang()
        .args([
            "fuzz",
            "--iterations",
            "1",
            "--rounds",
            "1",
            "--quiet",
            "--metrics-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("--metrics-out file exists");
    let v = yinyang_rt::json::Json::parse(text.trim()).expect("metrics JSON parses");
    assert!(v.get("counters").is_some(), "metrics lack counters");
    assert!(v.get("histograms").is_some(), "metrics lack histograms");
}

#[test]
fn experiments_md_check_rejects_stale_and_accepts_fresh_docs() {
    let dir = std::env::temp_dir().join("yinyang-cli-expmd");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = dir.join("EXP.md");
    std::fs::write(
        &doc,
        "# doc\n\n<!-- BEGIN GENERATED: campaign -->\nstale\n<!-- END GENERATED: campaign -->\n",
    )
    .unwrap();
    let stale =
        yinyang().args(["experiments-md", doc.to_str().unwrap(), "--check"]).output().unwrap();
    assert!(!stale.status.success(), "--check passed a stale doc");
    let regen = yinyang().args(["experiments-md", doc.to_str().unwrap()]).output().unwrap();
    assert!(regen.status.success(), "{}", String::from_utf8_lossy(&regen.stderr));
    let fresh =
        yinyang().args(["experiments-md", doc.to_str().unwrap(), "--check"]).output().unwrap();
    assert!(fresh.status.success(), "{}", String::from_utf8_lossy(&fresh.stderr));
    let text = std::fs::read_to_string(&doc).unwrap();
    assert!(text.contains("Coverage trajectory"), "{text}");
    assert!(!text.contains("stale"));
    // A doc without markers is an error, not silent success.
    let plain = dir.join("plain.md");
    std::fs::write(&plain, "no markers\n").unwrap();
    let missing = yinyang().args(["experiments-md", plain.to_str().unwrap()]).output().unwrap();
    assert!(!missing.status.success());
}

#[test]
fn verbose_fuzz_heartbeats_on_stderr_and_quiet_silences_it() {
    let loud = yinyang()
        .args(["fuzz", "--iterations", "1", "--rounds", "2", "--seed", "5", "--verbose"])
        .output()
        .expect("spawn");
    assert!(loud.status.success());
    let err = String::from_utf8_lossy(&loud.stderr);
    assert!(err.contains("round 1/2") && err.contains("round 2/2"), "no heartbeat: {err}");
    assert!(err.contains("solve p50/p95"), "heartbeat lacks solve quantiles: {err}");
    let quiet = yinyang()
        .args(["fuzz", "--iterations", "1", "--rounds", "2", "--seed", "5", "--quiet"])
        .output()
        .expect("spawn");
    assert!(quiet.status.success());
    assert!(quiet.stderr.is_empty(), "--quiet still wrote to stderr");
}

#[test]
fn trace_check_accepts_real_traces_and_rejects_garbage() {
    let dir = std::env::temp_dir().join("yinyang-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("smoke.jsonl");
    let out = yinyang()
        .args(["fuzz", "--iterations", "1", "--rounds", "1", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let check = yinyang().args(["trace-check", trace.to_str().unwrap()]).output().expect("spawn");
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stderr));
    let text = String::from_utf8_lossy(&check.stdout);
    assert!(text.contains("events OK"), "{text}");
    assert!(text.contains("span stack OK"), "no span-stack invariants line: {text}");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"span\":\"x\",\"dur\":1}\nnot json at all\n").unwrap();
    let check = yinyang().args(["trace-check", bad.to_str().unwrap()]).output().expect("spawn");
    assert!(!check.status.success(), "trace-check accepted a malformed file");
}

#[test]
fn trace_check_reports_first_violating_line_of_span_stack_invariants() {
    let dir = std::env::temp_dir().join("yinyang-cli-invariants");
    std::fs::create_dir_all(&dir).unwrap();

    // A child closes but its enclosing span never does: unbalanced.
    let orphan = dir.join("orphan.jsonl");
    std::fs::write(
        &orphan,
        "{\"span\":\"leaf\",\"path\":\"outer/leaf\",\"dur\":1,\"unit\":\"ticks\"}\n",
    )
    .unwrap();
    let out = yinyang().args(["trace-check", orphan.to_str().unwrap()]).output().expect("spawn");
    assert!(!out.status.success(), "trace-check accepted an unbalanced span stack");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 1"), "error lacks the violating line: {err}");
    assert!(err.contains("unbalanced"), "{err}");

    // Children outlast their parent: durations not monotonically nested.
    let inverted = dir.join("inverted.jsonl");
    std::fs::write(
        &inverted,
        concat!(
            "{\"span\":\"kid\",\"path\":\"top/kid\",\"dur\":9,\"unit\":\"ticks\"}\n",
            "{\"span\":\"top\",\"path\":\"top\",\"dur\":2,\"unit\":\"ticks\"}\n",
        ),
    )
    .unwrap();
    let out = yinyang().args(["trace-check", inverted.to_str().unwrap()]).output().expect("spawn");
    assert!(!out.status.success(), "trace-check accepted non-monotone durations");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "error lacks the violating line: {err}");
    assert!(err.contains("not properly nested"), "{err}");
}

#[test]
fn regress_replays_bundles_and_honors_release_selection() {
    let dir = std::env::temp_dir().join(format!("yinyang-cli-regress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bundles = dir.join("bundles");
    let out = yinyang()
        .args([
            "fuzz",
            "--iterations",
            "2",
            "--rounds",
            "1",
            "--seed",
            "7",
            "--quiet",
            "--bundle-dir",
            bundles.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Same build (trunk): everything replays still-broken.
    let trunk =
        yinyang().args(["regress", bundles.to_str().unwrap(), "--json"]).output().expect("spawn");
    assert!(trunk.status.success(), "{}", String::from_utf8_lossy(&trunk.stderr));
    let report = yinyang_rt::json::Json::parse(String::from_utf8_lossy(&trunk.stdout).trim())
        .expect("regress --json parses");
    let summary = report.get("summary").expect("summary");
    let count = |k: &str| summary.get(k).and_then(|v| v.as_i64()).unwrap();
    assert!(count("total") >= 1);
    assert_eq!(count("still_broken"), count("total"), "own bundles must stay broken on trunk");
    assert_eq!(count("stale"), 0);

    // The bug-free reference build never reproduces an incorrect-answer
    // or crash finding. (Unknown-class findings can legitimately stay
    // `still-broken`: classification is behavioral, and the reference may
    // honestly answer `unknown` within campaign budgets —
    // indistinguishable from a spurious one in a blackbox replay.)
    let reference = yinyang()
        .args(["regress", bundles.to_str().unwrap(), "--release", "reference", "--json"])
        .output()
        .expect("spawn");
    assert!(reference.status.success(), "{}", String::from_utf8_lossy(&reference.stderr));
    let report = yinyang_rt::json::Json::parse(String::from_utf8_lossy(&reference.stdout).trim())
        .expect("regress --json parses");
    let entries = match report.get("entries") {
        Some(yinyang_rt::json::Json::Arr(entries)) => entries,
        other => panic!("entries must be an array, got {other:?}"),
    };
    assert!(!entries.is_empty());
    for entry in entries {
        let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).unwrap().to_owned();
        if field("behavior") == "incorrect" || field("behavior") == "crash" {
            assert_ne!(
                field("status"),
                "still-broken",
                "reference build reproduced {}: {entry:?}",
                field("fingerprint")
            );
        }
    }

    // Default (non-JSON) output is the markdown report.
    let md = yinyang().args(["regress", bundles.to_str().unwrap()]).output().expect("spawn");
    assert!(md.status.success());
    let text = String::from_utf8_lossy(&md.stdout);
    assert!(text.contains("| bundle | status |"), "{text}");
    assert!(text.contains("still-broken"), "{text}");

    // No bundle directory is a usage error.
    let none = yinyang().args(["regress"]).output().expect("spawn");
    assert!(!none.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exp_fp_reports_no_false_positives() {
    let out = yinyang().args(["exp", "fp", "--seed", "3"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("No false positives"), "{text}");
}

#[test]
fn exp_fig8_json_is_valid() {
    let out = yinyang()
        .args(["exp", "fig8", "--iterations", "2", "--rounds", "1", "--json"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let v = yinyang_rt::json::Json::parse(text.trim()).expect("valid JSON triage");
    assert!(v.get("status").is_some());
}

#[test]
fn export_writes_chrome_trace_and_flamegraph() {
    let dir = std::env::temp_dir().join("yinyang-cli-export");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.jsonl");
    let out = yinyang()
        .args(["fuzz", "--iterations", "1", "--rounds", "1", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());

    let chrome = dir.join("chrome_trace.json");
    let folded = dir.join("run.folded");
    let out = yinyang()
        .args([
            "export",
            trace.to_str().unwrap(),
            "--chrome-trace",
            chrome.to_str().unwrap(),
            "--flamegraph",
            folded.to_str().unwrap(),
            "--lanes",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let doc = yinyang_rt::json::Json::parse(std::fs::read_to_string(&chrome).unwrap().trim())
        .expect("chrome trace is valid JSON");
    let events = match doc.get("traceEvents") {
        Some(yinyang_rt::json::Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(events.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M")));
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(|p| p.as_str()) == Some("X")
            && e.get("name").and_then(|n| n.as_str()) == Some("solve")
    }));

    let stacks = std::fs::read_to_string(&folded).unwrap();
    assert!(!stacks.is_empty());
    for line in stacks.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("collapsed-stack format");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("weight is an integer");
    }
    assert!(stacks.lines().any(|l| l.starts_with("solve")), "{stacks}");

    // Exporters are pure functions of the trace: rerunning rewrites
    // identical bytes.
    let chrome2 = dir.join("chrome_trace2.json");
    let folded2 = dir.join("run2.folded");
    let rerun = yinyang()
        .args([
            "export",
            trace.to_str().unwrap(),
            "--chrome-trace",
            chrome2.to_str().unwrap(),
            "--flamegraph",
            folded2.to_str().unwrap(),
            "--lanes",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(rerun.status.success());
    assert_eq!(std::fs::read(&chrome).unwrap(), std::fs::read(&chrome2).unwrap());
    assert_eq!(std::fs::read(&folded).unwrap(), std::fs::read(&folded2).unwrap());

    // No output flag is a usage error, not a silent no-op.
    let noop = yinyang().args(["export", trace.to_str().unwrap()]).output().expect("spawn");
    assert!(!noop.status.success(), "export without outputs must fail");
}

#[test]
fn status_server_leaves_report_and_trace_byte_identical() {
    let dir = std::env::temp_dir().join("yinyang-cli-status-ident");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |threads: &str, server: bool| {
        let trace = dir.join(format!("t{threads}-{server}.jsonl"));
        let mut cmd = yinyang();
        cmd.args([
            "fuzz",
            "--iterations",
            "2",
            "--rounds",
            "1",
            "--seed",
            "7",
            "--threads",
            threads,
            "--trace",
            trace.to_str().unwrap(),
        ]);
        if server {
            cmd.args(["--status-addr", "127.0.0.1:0"]);
        }
        let out = cmd.output().expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        if server {
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("status server listening on http://127.0.0.1:"), "{err}");
        }
        (out.stdout, std::fs::read(&trace).unwrap())
    };
    for threads in ["1", "4"] {
        let (stdout_off, trace_off) = run(threads, false);
        let (stdout_on, trace_on) = run(threads, true);
        assert_eq!(
            stdout_off, stdout_on,
            "--status-addr changed the report at --threads {threads}"
        );
        assert_eq!(trace_off, trace_on, "--status-addr changed the trace at --threads {threads}");
    }
}

#[test]
fn fetch_serves_metrics_status_and_healthz_from_a_live_campaign() {
    use std::io::BufRead;
    let mut child = yinyang()
        .args([
            "fuzz",
            "--iterations",
            "2",
            "--rounds",
            "1",
            "--seed",
            "7",
            "--quiet",
            "--status-addr",
            "127.0.0.1:0",
        ])
        .env("YINYANG_STATUS_HOLD_MS", "30000")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn");
    // The bind announcement is the first stderr line; parse the port out
    // of it the same way ci.sh does.
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    std::io::BufReader::new(stderr).read_line(&mut line).expect("read announce line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in announce line: {line}"))
        .to_owned();

    let fetch = |path: &str| {
        let out = yinyang().args(["fetch", &addr, path]).output().expect("spawn fetch");
        assert!(
            out.status.success(),
            "fetch {path} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(fetch("/healthz"), "ok\n");
    let metrics = fetch("/metrics");
    assert!(metrics.contains("# TYPE"), "{metrics}");
    let status = yinyang_rt::json::Json::parse(fetch("/status").trim()).expect("status JSON");
    assert_eq!(status.get("phase").and_then(|v| v.as_str()), Some("fuzz"));
    assert!(status.get("jobs").is_some());

    // Regression: an HTTP status >= 400 must exit non-zero with a clear
    // stderr message naming the target, and must NOT print the error body
    // to stdout as if it were a successful scrape.
    let missing = yinyang().args(["fetch", &addr, "/nope"]).output().expect("spawn fetch");
    assert!(!missing.status.success(), "fetch of a 404 path must exit non-zero");
    assert!(
        missing.stdout.is_empty(),
        "fetch must keep an HTTP error body off stdout: {}",
        String::from_utf8_lossy(&missing.stdout)
    );
    let err = String::from_utf8_lossy(&missing.stderr);
    assert!(err.contains("HTTP 404"), "stderr must name the HTTP status: {err}");
    assert!(err.contains("/nope"), "stderr must name the failing path: {err}");

    child.kill().ok();
    child.wait().ok();
}

#[test]
fn regress_writes_metrics_out_json() {
    let dir = std::env::temp_dir().join(format!("yinyang-cli-regmet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bundles = dir.join("bundles");
    let out = yinyang()
        .args([
            "fuzz",
            "--iterations",
            "2",
            "--rounds",
            "1",
            "--seed",
            "7",
            "--quiet",
            "--bundle-dir",
            bundles.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let path = dir.join("metrics.json");
    let out = yinyang()
        .args([
            "regress",
            bundles.to_str().unwrap(),
            "--quiet",
            "--metrics-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --quiet leaves only the summary line of the markdown report.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.contains("still-broken"), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("--metrics-out file exists");
    let v = yinyang_rt::json::Json::parse(text.trim()).expect("metrics JSON parses");
    assert!(v.get("counters").is_some(), "metrics lack counters");
    assert!(v.get("histograms").is_some(), "metrics lack histograms");
    let _ = std::fs::remove_dir_all(&dir);
}
