//! End-to-end tests of `yinyang fleet`: the multi-process sharded
//! campaign must merge back to the exact bytes of a single-process run,
//! and the supervisor's federated observability endpoints must track the
//! workers — including degrading `/healthz` when one dies.

use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn yinyang() -> Command {
    Command::new(env!("CARGO_BIN_EXE_yinyang"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("yinyang-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Golden pin: the merged fleet report and trace are byte-identical to a
/// single-process `fuzz` of the same seed, at one shard and at two. Two
/// rounds, so the fix-and-retest barrier (round 1 depends on the merged
/// round-0 findings) is actually exercised across processes.
#[test]
fn fleet_report_and_trace_match_single_process_bytes() {
    let dir = temp_dir("golden");
    let campaign = |extra: &[&str], tag: &str| -> (Vec<u8>, Vec<u8>) {
        let trace = dir.join(format!("{tag}.jsonl"));
        let mut args = vec![
            "--iterations",
            "2",
            "--rounds",
            "2",
            "--seed",
            "11",
            "--json",
            "--quiet",
            "--trace",
        ];
        args.push(trace.to_str().unwrap());
        let out = yinyang().args(extra).args(&args).output().expect("spawn");
        assert!(out.status.success(), "{tag} failed:\n{}", String::from_utf8_lossy(&out.stderr));
        (out.stdout, std::fs::read(&trace).expect("trace file"))
    };
    let parts1 = dir.join("parts1");
    let parts2 = dir.join("parts2");
    let (seq_report, seq_trace) = campaign(&["fuzz", "--threads", "2"], "seq");
    let (one_report, one_trace) =
        campaign(&["fleet", "--shards", "1", "--partial-dir", parts1.to_str().unwrap()], "one");
    let (two_report, two_trace) =
        campaign(&["fleet", "--shards", "2", "--partial-dir", parts2.to_str().unwrap()], "two");
    assert!(
        seq_report == one_report && seq_report == two_report,
        "fleet report bytes diverged from the single-process run"
    );
    assert!(
        seq_trace == one_trace && seq_trace == two_trace,
        "fleet trace bytes diverged from the single-process run"
    );
    assert!(!seq_trace.is_empty(), "the pinned campaign should emit trace events");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supervisor serves a federated view of its workers and `/healthz`
/// names the shard when one dies; the run then fails, also naming it.
#[test]
fn fleet_status_federates_workers_and_degrades_on_a_dead_shard() {
    let dir = temp_dir("degraded");
    let mut child = yinyang()
        .args([
            "fleet",
            "--shards",
            "2",
            "--iterations",
            "2",
            "--rounds",
            "1",
            "--seed",
            "7",
            "--quiet",
            "--status-addr",
            "127.0.0.1:0",
            "--partial-dir",
            dir.join("parts").to_str().unwrap(),
        ])
        // Stall the workers before their campaign so the kill below lands
        // mid-run deterministically.
        .env("YINYANG_FLEET_STALL_MS", "4000")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleet");

    // The supervisor announces worker pids and its own federated server on
    // stderr (interleaved with forwarded worker lines); collect both, then
    // keep draining on a thread so the child never blocks on a full pipe.
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = std::io::BufReader::new(stderr);
    let (mut addr, mut shard1_pid) = (None::<String>, None::<String>);
    let mut line = String::new();
    while addr.is_none() || shard1_pid.is_none() {
        line.clear();
        assert!(reader.read_line(&mut line).expect("read stderr") > 0, "stderr closed early");
        if line.contains("fleet status server listening on http://") {
            addr = line
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .map(|a| a.trim_end_matches('/').to_owned());
        } else if let Some(rest) = line.strip_prefix("[yinyang] fleet: shard 1 is pid ") {
            shard1_pid = Some(rest.trim().to_owned());
        }
    }
    let (addr, shard1_pid) = (addr.unwrap(), shard1_pid.unwrap());
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            rest.push_str(&line);
            line.clear();
        }
        rest
    });

    let fetch = |path: &str| {
        let out = yinyang().args(["fetch", &addr, path]).output().expect("spawn fetch");
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    // Healthy fleet: both workers up, federated endpoints live.
    let (ok, body) = fetch("/healthz");
    assert!(ok && body == "ok\n", "healthz while healthy: {body}");
    let (ok, status) = fetch("/status");
    assert!(ok, "fetch /status failed");
    let json = yinyang_rt::json::Json::parse(status.trim()).expect("status JSON");
    assert_eq!(json.get("phase").and_then(|v| v.as_str()), Some("fleet"));
    let workers = json.get("workers").and_then(|w| w.as_arr()).expect("workers array");
    assert_eq!(workers.len(), 2);
    // The per-shard series appear once the supervisor's first scrape of
    // each worker lands; poll for them.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (ok, metrics) = fetch("/metrics");
        assert!(ok, "fetch /metrics failed");
        if metrics.contains("yinyang_shard_up{shard=\"0\"} 1")
            && metrics.contains("yinyang_shard_up{shard=\"1\"} 1")
        {
            break;
        }
        assert!(Instant::now() < deadline, "per-shard series never appeared:\n{metrics}");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Kill shard 1 mid-run: /healthz must degrade, naming it.
    let killed = Command::new("kill").args(["-9", &shard1_pid]).status().expect("kill");
    assert!(killed.success(), "kill -9 {shard1_pid} failed");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (ok, _) = fetch("/healthz");
        if !ok {
            // fetch exits nonzero on the 503; confirm the body names the
            // shard via the raw HTTP client.
            let (code, body) =
                yinyang_rt::serve::http_get(&addr, "/healthz").expect("healthz after kill");
            assert_eq!(code, 503, "{body}");
            assert!(body.contains("degraded: shard 1"), "{body}");
            break;
        }
        assert!(Instant::now() < deadline, "healthz never degraded after killing shard 1");
        std::thread::sleep(Duration::from_millis(100));
    }

    // The dead shard can't deliver its partial: the supervisor fails the
    // run and names the shard on stderr.
    let status = child.wait().expect("wait fleet");
    assert!(!status.success(), "fleet should fail when a shard dies");
    let rest = drain.join().expect("drain thread");
    assert!(rest.contains("shard 1"), "supervisor stderr does not name the dead shard:\n{rest}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fleet refuses the modes whose semantics cannot span processes.
#[test]
fn fleet_rejects_wallclock_and_zero_shards() {
    let out = yinyang().args(["fleet", "--shards", "2", "--wallclock"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--wallclock"));
    let out = yinyang().args(["fleet", "--shards", "0"]).output().expect("spawn");
    assert!(!out.status.success());
}
