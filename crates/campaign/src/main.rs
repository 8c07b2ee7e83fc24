//! The `yinyang` command-line tool.
//!
//! Run `yinyang help` for the full command and option reference.

use std::process::ExitCode;
use yinyang_campaign::config::CampaignConfig;
use yinyang_campaign::experiments;
use yinyang_core::{Fuser, Oracle};
use yinyang_rt::json::ToJson;
use yinyang_rt::trace;
use yinyang_solver::SmtSolver;

const USAGE: &str = "\
yinyang — semantic-fusion SMT solver fuzzer (PLDI 2020 reproduction)

usage: yinyang <command> [options]

commands:
  exp <which>                     regenerate an evaluation figure; <which> is one of
                                  fig7 fig8 fig9 fig10 fig11 fig12 rq4 throughput fp all
  fuzz                            run the bug-finding campaign, print findings
  fleet                           run the fuzz campaign sharded over --shards
                                  worker processes; the merged report (and
                                  --trace file) is byte-identical to a
                                  single-process fuzz with the same seed, and
                                  --status-addr serves a federated view of
                                  every worker's /metrics + /status
  regress <bundle-dir>...         replay fuzz --bundle-dir reproduction bundles
                                  against a solver build (--release) and classify
                                  each as still-broken / fixed / flaky / stale;
                                  identical reduced test cases dedup across dirs
  profile <file.jsonl>            fold a --trace file into a span-tree profile
                                  (inclusive/exclusive time, calls, p50/p95/p99)
  export <file.jsonl>             convert a --trace file for standard viewers:
                                  --chrome-trace writes Chrome Trace Event JSON
                                  (Perfetto, chrome://tracing), --flamegraph
                                  writes collapsed stacks weighted by exclusive
                                  ticks (inferno / flamegraph.pl)
  fetch <host:port> <path>        plain-TcpStream HTTP GET against a --status-addr
                                  server (no curl needed); prints the body
  experiments-md [file]           regenerate EXPERIMENTS.md's generated blocks
                                  from a pinned demo campaign [default EXPERIMENTS.md]
  solve <file.smt2>               run the reference solver on a script
  fuse <sat|unsat> <a> <b>        fuse two seed files, print the fused test
  trace-check <file.jsonl>        validate a --trace output file: JSON lines plus
                                  the span-stack invariants the exporters rely on
                                  (balanced begin/end, monotone nested durations)
  help                            print this reference

options:
  --scale N        Fig. 7 seed inventory scale, 1:N            [default 400]
  --iterations N   fused tests per (benchmark, oracle) round   [default 30]
  --rounds N       fix-and-retest rounds                       [default 3]
  --seed N         RNG seed; same seed replays byte-identically [default 53710]
  --threads N      worker threads (replay-safe at any count);
                   0 = auto-detect from the machine's available
                   parallelism                                  [default 1]
  --json           print reports as JSON (fuzz embeds a telemetry section;
                   profile prints the span tree as JSON)
  --release NAME   (regress) target build: a registry release such as trunk,
                   4.8.5 (zirkon) or 1.5 (corvus), or `reference` for the
                   bug-free solver                              [default trunk]
  --trace FILE     write one JSON line per span (seedgen/fusion/solve/...) to FILE
  --bundle-dir DIR write a reproduction bundle per deduplicated fuzz finding:
                   seeds, fused + ddmin-reduced scripts, verdict/bug/metrics
                   JSON, and the finding job's trace slice
  --metrics-out FILE
                   (fuzz, regress) dump the run's final merged metrics
                   snapshot as JSON
  --status-addr HOST:PORT
                   (fuzz, regress) serve live read-only observability over
                   HTTP while the run is in flight: /metrics (Prometheus
                   text exposition), /status (JSON progress), /healthz;
                   reports and --trace files stay byte-identical with the
                   server on or off (use :0 for an ephemeral port)
  --chrome-trace FILE
                   (export) write Chrome Trace Event JSON
  --flamegraph FILE
                   (export) write collapsed flamegraph stacks
  --lanes N        (export) virtual worker lanes for --chrome-trace; root
                   spans are scheduled greedily across them [default 1]
  --shards N       (fleet) worker process count                [default 2]
  --partial-dir DIR
                   (fleet) exchange directory for worker partial reports
                   and fix-and-retest barrier files [default under temp]
  --shard I/N      (fuzz, internal) run as fleet shard I of N: execute only
                   the jobs whose global index i satisfies i % N == I and
                   write per-round partials instead of a report
  --partial-out DIR
                   (fuzz, internal) where a --shard worker writes partials
  --capture-events (fuzz, internal) buffer trace events into partials so
                   the fleet supervisor can write the merged --trace file
  --bench-report FILE
                   (experiments-md) also regenerate the bench block from an
                   rt::bench report.json — machine-dependent, never CI-diffed
  --check          (experiments-md) verify the file is up to date instead of
                   rewriting it; exits non-zero when stale
  --verbose        per-round campaign heartbeat on stderr
  --quiet          suppress heartbeat and per-finding listings
  --wallclock      time spans in real microseconds instead of deterministic
                   ticks (breaks --seed replay of traced durations)

An unknown --option or a malformed number is an error: the command prints
one line naming it on stderr and exits non-zero before doing any work.
";

fn main() -> ExitCode {
    // Crash bugs in the solvers under test panic by design and are caught
    // by the harness; keep the default hook from spamming stderr. Set
    // YINYANG_PANIC_TRACE=1 to restore backtraces while debugging.
    if std::env::var_os("YINYANG_PANIC_TRACE").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = CampaignConfig::default();
    let mut opts = CliOpts::default();
    let mut verbose = false;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => match parse_num(&args, &mut i) {
                Some(n) => config.scale = n,
                None => return ExitCode::FAILURE,
            },
            "--iterations" => match parse_num(&args, &mut i) {
                Some(n) => config.iterations = n,
                None => return ExitCode::FAILURE,
            },
            "--rounds" => match parse_num(&args, &mut i) {
                Some(n) => config.rounds = n,
                None => return ExitCode::FAILURE,
            },
            "--seed" => match parse_num(&args, &mut i) {
                Some(n) => config.rng_seed = n as u64,
                None => return ExitCode::FAILURE,
            },
            "--threads" => match parse_num(&args, &mut i) {
                Some(n) => config.threads = n,
                None => return ExitCode::FAILURE,
            },
            "--json" => opts.json = true,
            "--verbose" => verbose = true,
            "--quiet" => opts.quiet = true,
            "--check" => opts.check = true,
            "--wallclock" => trace::set_time_mode(yinyang_rt::TimeMode::Wall),
            "--trace" => match parse_path(&args, &mut i) {
                Some(path) => opts.trace_path = Some(path),
                None => return ExitCode::FAILURE,
            },
            "--bundle-dir" => match parse_path(&args, &mut i) {
                Some(path) => opts.bundle_dir = Some(path),
                None => return ExitCode::FAILURE,
            },
            "--metrics-out" => match parse_path(&args, &mut i) {
                Some(path) => opts.metrics_out = Some(path),
                None => return ExitCode::FAILURE,
            },
            "--bench-report" => match parse_path(&args, &mut i) {
                Some(path) => opts.bench_report = Some(path),
                None => return ExitCode::FAILURE,
            },
            "--release" => match parse_path(&args, &mut i) {
                Some(name) => opts.release = Some(name),
                None => return ExitCode::FAILURE,
            },
            "--status-addr" => match parse_path(&args, &mut i) {
                Some(addr) => opts.status_addr = Some(addr),
                None => return ExitCode::FAILURE,
            },
            "--chrome-trace" => match parse_path(&args, &mut i) {
                Some(path) => opts.chrome_trace = Some(path),
                None => return ExitCode::FAILURE,
            },
            "--flamegraph" => match parse_path(&args, &mut i) {
                Some(path) => opts.flamegraph = Some(path),
                None => return ExitCode::FAILURE,
            },
            "--lanes" => match parse_num(&args, &mut i) {
                Some(n) => opts.lanes = n,
                None => return ExitCode::FAILURE,
            },
            "--shards" => match parse_num(&args, &mut i) {
                Some(n) => opts.shards = n,
                None => return ExitCode::FAILURE,
            },
            "--partial-dir" => match parse_path(&args, &mut i) {
                Some(dir) => opts.partial_dir = Some(dir),
                None => return ExitCode::FAILURE,
            },
            "--shard" => match parse_path(&args, &mut i) {
                Some(spec) => opts.shard = Some(spec),
                None => return ExitCode::FAILURE,
            },
            "--partial-out" => match parse_path(&args, &mut i) {
                Some(dir) => opts.partial_out = Some(dir),
                None => return ExitCode::FAILURE,
            },
            "--capture-events" => opts.capture_events = true,
            other if other.starts_with("--") && other != "--help" => {
                eprintln!("unknown option `{other}`; run `yinyang help` for the list");
                return ExitCode::FAILURE;
            }
            other => positional.push(other.to_owned()),
        }
        i += 1;
    }
    if config.threads == 0 {
        // `--threads 0`: size the pool to the machine. The count feeds
        // nothing byte-compared — reports are identical at any width.
        config.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    config.heartbeat = verbose && !opts.quiet;
    if let Some(path) = &opts.trace_path {
        match std::fs::File::create(path) {
            Ok(file) => {
                trace::set_writer(Some(Box::new(std::io::BufWriter::new(file))));
                trace::set_capture(true);
            }
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let code = dispatch(&positional, &config, &opts);
    // Flush and close the trace sink before exiting.
    trace::set_writer(None);
    code
}

/// Flags that don't shape the campaign itself.
struct CliOpts {
    json: bool,
    quiet: bool,
    check: bool,
    trace_path: Option<String>,
    bundle_dir: Option<String>,
    metrics_out: Option<String>,
    bench_report: Option<String>,
    release: Option<String>,
    status_addr: Option<String>,
    chrome_trace: Option<String>,
    flamegraph: Option<String>,
    lanes: usize,
    shards: usize,
    partial_dir: Option<String>,
    shard: Option<String>,
    partial_out: Option<String>,
    capture_events: bool,
}

impl Default for CliOpts {
    fn default() -> Self {
        CliOpts {
            json: false,
            quiet: false,
            check: false,
            trace_path: None,
            bundle_dir: None,
            metrics_out: None,
            bench_report: None,
            release: None,
            status_addr: None,
            chrome_trace: None,
            flamegraph: None,
            lanes: 1,
            shards: 2,
            partial_dir: None,
            shard: None,
            partial_out: None,
            capture_events: false,
        }
    }
}

fn dispatch(positional: &[String], config: &CampaignConfig, opts: &CliOpts) -> ExitCode {
    let json = opts.json;
    match positional.first().map(String::as_str) {
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("exp") => run_exp(positional.get(1).map(String::as_str), config, json),
        Some("fuzz") => run_fuzz(config, opts),
        Some("fleet") => run_fleet_cmd(config, opts),
        Some("regress") => run_regress_cmd(&positional[1..], config, opts),
        Some("profile") => {
            let Some(path) = positional.get(1) else {
                eprintln!("usage: yinyang profile <file.jsonl>");
                return ExitCode::FAILURE;
            };
            run_profile(path, json)
        }
        Some("export") => {
            let Some(path) = positional.get(1) else {
                eprintln!(
                    "usage: yinyang export <file.jsonl> [--chrome-trace FILE] \
                     [--flamegraph FILE] [--lanes N]"
                );
                return ExitCode::FAILURE;
            };
            run_export(path, opts)
        }
        Some("fetch") => {
            let (Some(addr), Some(path)) = (positional.get(1), positional.get(2)) else {
                eprintln!("usage: yinyang fetch <host:port> <path>");
                return ExitCode::FAILURE;
            };
            // Bounded connect retry: a just-announced server may not be
            // accepting yet, and CI polls this command in a tight loop.
            match yinyang_rt::serve::http_get_retry(
                addr,
                path,
                10,
                std::time::Duration::from_millis(50),
            ) {
                Ok((200, body)) => {
                    print!("{body}");
                    ExitCode::SUCCESS
                }
                Ok((code, body)) => {
                    // An HTTP error status is a failed scrape: keep the
                    // body off stdout so pipelines can't mistake an error
                    // page for metrics, and exit non-zero.
                    eprintln!("fetch http://{addr}{path}: HTTP {code}");
                    eprint!("{body}");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("fetch failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("experiments-md") => {
            let path = positional.get(1).map(String::as_str).unwrap_or("EXPERIMENTS.md");
            run_experiments_md(path, opts)
        }
        Some("solve") => {
            let Some(path) = positional.get(1) else {
                eprintln!("usage: yinyang solve <file.smt2>");
                return ExitCode::FAILURE;
            };
            let Ok(text) = std::fs::read_to_string(path) else {
                eprintln!("cannot read {path}");
                return ExitCode::FAILURE;
            };
            match SmtSolver::new().solve_str(&text) {
                Ok(out) => {
                    println!("{}", out.result);
                    if let Some(m) = out.model {
                        println!("{}", m.to_smtlib());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("parse error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fuse") => {
            let (Some(oracle), Some(a), Some(b)) =
                (positional.get(1), positional.get(2), positional.get(3))
            else {
                eprintln!("usage: yinyang fuse <sat|unsat> <a.smt2> <b.smt2>");
                return ExitCode::FAILURE;
            };
            let oracle = if oracle == "sat" { Oracle::Sat } else { Oracle::Unsat };
            let read = |p: &str| std::fs::read_to_string(p).ok();
            let (Some(ta), Some(tb)) = (read(a), read(b)) else {
                eprintln!("cannot read input files");
                return ExitCode::FAILURE;
            };
            let (Ok(sa), Ok(sb)) =
                (yinyang_smtlib::parse_script(&ta), yinyang_smtlib::parse_script(&tb))
            else {
                eprintln!("parse error in seed files");
                return ExitCode::FAILURE;
            };
            let mut rng = yinyang_rt::StdRng::seed_from_u64(config.rng_seed);
            match Fuser::new().fuse(&mut rng, oracle, &sa, &sb) {
                Ok(fused) => {
                    println!("; oracle: {}", fused.oracle);
                    print!("{}", fused.script);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("fusion failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("trace-check") => {
            let Some(path) = positional.get(1) else {
                eprintln!("usage: yinyang trace-check <file.jsonl>");
                return ExitCode::FAILURE;
            };
            trace_check(path)
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a `--trace` output file: every line must parse as one JSON
/// object carrying at least `span` and `dur`, and the stream must obey
/// the span-stack invariants the exporters depend on — balanced
/// begin/end (every child event gets its enclosing parent event) and
/// monotone nested durations (children fit inside their parent). Prints
/// a per-span census; the first violation fails with its line number.
fn trace_check(path: &str) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    match yinyang_rt::export::check(&text) {
        Ok(report) => {
            println!("{path}: {} events OK", report.events);
            for (name, (count, total)) in &report.census {
                println!("  {name:<12} {count:>7} events {total:>10} total dur");
            }
            println!(
                "  span stack OK: balanced, nested durations monotone \
                 ({} roots, max depth {}, unit {})",
                report.roots, report.max_depth, report.unit
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `export` command: convert a `--trace` JSONL file to Chrome Trace
/// Event JSON and/or collapsed flamegraph stacks. Pure functions of the
/// trace text — rerunning on the same file rewrites identical bytes.
fn run_export(path: &str, opts: &CliOpts) -> ExitCode {
    if opts.chrome_trace.is_none() && opts.flamegraph.is_none() {
        eprintln!("export: nothing to do; pass --chrome-trace FILE and/or --flamegraph FILE");
        return ExitCode::FAILURE;
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    let report = match yinyang_rt::export::check(&text) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(out) = &opts.chrome_trace {
        let rendered = match yinyang_rt::export::chrome_trace(&text, opts.lanes) {
            Ok(rendered) => rendered,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(out, rendered) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "{out}: chrome trace, {} events on {} lane(s) ({})",
            report.events,
            opts.lanes.max(1),
            report.unit
        );
    }
    if let Some(out) = &opts.flamegraph {
        let folded = match yinyang_rt::export::flamegraph(&text) {
            Ok(folded) => folded,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let frames = folded.lines().count();
        if let Err(e) = std::fs::write(out, folded) {
            eprintln!("cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{out}: folded flamegraph, {frames} frame(s) ({})", report.unit);
    }
    ExitCode::SUCCESS
}

/// Starts the `--status-addr` server (when requested) and announces the
/// bound address on stderr — the CI smoke gate parses this line to learn
/// ephemeral ports. Returns `Err` only on a bind failure.
fn start_status_server(
    opts: &CliOpts,
    phase: &str,
) -> Result<Option<yinyang_rt::StatusServer>, ExitCode> {
    let Some(addr) = &opts.status_addr else {
        return Ok(None);
    };
    yinyang_rt::serve::progress().begin(phase);
    match yinyang_rt::StatusServer::start(addr) {
        Ok(server) => {
            eprintln!(
                "[yinyang] status server listening on http://{} (/metrics /status /healthz)",
                server.local_addr()
            );
            Ok(Some(server))
        }
        Err(e) => {
            eprintln!("cannot bind status server on {addr}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Shuts the status server down after the run. `YINYANG_STATUS_HOLD_MS`
/// keeps it up that much longer first — the report is already printed
/// (stdout is line-buffered), so CI can probe the endpoints of a
/// finished run without racing the campaign.
fn finish_status_server(server: Option<yinyang_rt::StatusServer>) {
    let Some(server) = server else {
        return;
    };
    if let Some(ms) =
        std::env::var("YINYANG_STATUS_HOLD_MS").ok().and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    server.shutdown();
}

/// The `fuzz` command: full campaign with coverage trajectory (the CLI
/// process owns the global coverage state, so trajectories are sound
/// here), plus the forensic outputs behind `--bundle-dir` /
/// `--metrics-out`.
fn run_fuzz(config: &CampaignConfig, opts: &CliOpts) -> ExitCode {
    if opts.shard.is_some() {
        return run_fuzz_worker(config, opts);
    }
    let server = match start_status_server(opts, "fuzz") {
        Ok(server) => server,
        Err(code) => return code,
    };
    let mut config = config.clone();
    config.coverage_trajectory = true;
    let run = experiments::fig8_campaign_full(&config);
    // Coverage gauges live outside the replay-safe per-job deltas
    // (coverage state is process-global); attach them here, at the
    // report boundary. Totals are scheduling-independent.
    yinyang_coverage::export_metrics(&yinyang_coverage::snapshot());
    match emit_fuzz_run(run, opts) {
        Ok(()) => {
            finish_status_server(server);
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

/// The report tail shared by `fuzz` and `fleet`: telemetry gauges from
/// the (already exported) global registry, `--metrics-out`, bundles, and
/// the stdout report. Everything here is a pure function of the
/// [`experiments::Fig8Run`], which is why the fleet supervisor's output
/// is byte-identical to a single-process run's.
fn emit_fuzz_run(run: experiments::Fig8Run, opts: &CliOpts) -> Result<(), ExitCode> {
    let mut result = run.result;
    result.telemetry.gauges.extend(yinyang_rt::metrics::snapshot().gauges);
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, run.metrics.to_json().pretty() + "\n") {
            eprintln!("cannot write metrics to {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    let mut bundles = Vec::new();
    if let Some(dir) = &opts.bundle_dir {
        let mut findings = result.zirkon.findings.clone();
        findings.extend(result.corvus.findings.clone());
        let mut forensics = run.zirkon_forensics;
        forensics.extend(run.corvus_forensics);
        match yinyang_campaign::write_bundles(std::path::Path::new(dir), &findings, &forensics) {
            Ok(s) => bundles = s,
            Err(e) => {
                eprintln!("cannot write bundles to {dir}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if opts.json {
        println!("{}", result.to_json().pretty());
    } else {
        println!("{}", experiments::render_fig8(&result));
        if !opts.quiet {
            for f in result.zirkon.findings.iter().chain(&result.corvus.findings) {
                println!(
                    "[{}] bug {:?} on {} ({}): {:?}",
                    f.solver, f.bug_id, f.benchmark, f.logic, f.behavior
                );
            }
        }
    }
    if !opts.quiet {
        if let Some(dir) = &opts.bundle_dir {
            for b in &bundles {
                println!(
                    "bundle {dir}/{}: fused {} B -> reduced {} B{}",
                    b.fingerprint,
                    b.fused_bytes,
                    b.reduced_bytes,
                    if b.reproduced { "" } else { " (oracle not rebuilt; kept fused)" },
                );
            }
        }
    }
    Ok(())
}

/// A fleet worker (`fuzz --shard I/N --partial-out DIR`): runs the shard's
/// share of the campaign, writes per-round partials, and prints no report
/// — the supervisor owns stdout. The worker still serves its own
/// `--status-addr`, which is what the supervisor federates.
fn run_fuzz_worker(config: &CampaignConfig, opts: &CliOpts) -> ExitCode {
    let spec = opts.shard.as_deref().expect("run_fuzz_worker is gated on --shard");
    let (shard, shards) = match parse_shard_spec(spec) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(dir) = &opts.partial_out else {
        eprintln!("--shard needs --partial-out DIR to exchange partial reports");
        return ExitCode::FAILURE;
    };
    if opts.capture_events {
        // The supervisor wants a merged --trace file; buffer this shard's
        // span events into the partials (there is no local writer, so
        // nothing is emitted here).
        trace::set_capture(true);
    }
    let server = match start_status_server(opts, "fuzz") {
        Ok(server) => server,
        Err(code) => return code,
    };
    // Test hook: stall before the campaign so a harness can kill this
    // worker mid-run deterministically (degraded-health coverage).
    if let Some(ms) =
        std::env::var("YINYANG_FLEET_STALL_MS").ok().and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    let worker = yinyang_campaign::ShardWorker::new(shard, shards, dir.clone(), config.rng_seed);
    match experiments::fig8_campaign_full_exec(
        config,
        &yinyang_campaign::Execution::Worker(&worker),
    ) {
        Ok(_) => {
            finish_status_server(server);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleet worker {shard}/{shards}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `fleet` command: spawn `--shards` worker processes, run the
/// supervisor merge loop over their partials, and serve the federated
/// observability endpoints. The merged report and `--trace` file are
/// byte-identical to a single-process `fuzz` with the same seed.
fn run_fleet_cmd(config: &CampaignConfig, opts: &CliOpts) -> ExitCode {
    if opts.shards == 0 {
        eprintln!("--shards must be at least 1");
        return ExitCode::FAILURE;
    }
    if trace::time_mode() == yinyang_rt::TimeMode::Wall {
        eprintln!(
            "fleet does not support --wallclock: wall-clock durations are not comparable \
                   across processes, so the merged report would not replay"
        );
        return ExitCode::FAILURE;
    }
    let fleet_opts = yinyang_campaign::FleetOptions {
        shards: opts.shards,
        partial_dir: opts.partial_dir.clone(),
        capture_events: opts.trace_path.is_some(),
        status_addr: opts.status_addr.clone(),
    };
    let mut fleet = match yinyang_campaign::Fleet::launch(config, &fleet_opts) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let collector = fleet.collector();
    let mut config = config.clone();
    config.coverage_trajectory = true;
    let outcome = experiments::fig8_campaign_full_exec(
        &config,
        &yinyang_campaign::Execution::Supervisor(&collector),
    );
    let code = match outcome {
        Ok(run) => {
            // The single-process run exports its own process-global
            // coverage here; the supervisor's equivalent is its own
            // probes (seedgen, triage) plus every worker's job deltas.
            let mut coverage =
                yinyang_coverage::CoverageMap::from_snapshot(&yinyang_coverage::snapshot());
            coverage.merge(&collector.worker_coverage());
            coverage.export_metrics();
            match emit_fuzz_run(run, opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(code) => code,
            }
        }
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::FAILURE
        }
    };
    // Keep the federated endpoints probeable through the hold window even
    // on failure — a degraded /healthz is exactly what a harness wants to
    // observe after killing a shard.
    finish_status_server(fleet.take_server());
    fleet.shutdown();
    code
}

/// Parses a `--shard I/N` spec.
fn parse_shard_spec(spec: &str) -> Result<(usize, usize), String> {
    let parsed = spec.split_once('/').and_then(|(i, n)| {
        let shard: usize = i.parse().ok()?;
        let shards: usize = n.parse().ok()?;
        (shards >= 1 && shard < shards).then_some((shard, shards))
    });
    parsed.ok_or_else(|| format!("--shard expects I/N with I < N (e.g. 0/2), got {spec}"))
}

/// The `regress` command: replay reproduction bundles from one or more
/// campaign `--bundle-dir` outputs against a target solver build.
fn run_regress_cmd(dirs: &[String], config: &CampaignConfig, opts: &CliOpts) -> ExitCode {
    if dirs.is_empty() {
        eprintln!("usage: yinyang regress <bundle-dir>... [--release NAME] [--json]");
        return ExitCode::FAILURE;
    }
    let server = match start_status_server(opts, "regress") {
        Ok(server) => server,
        Err(code) => return code,
    };
    let roots: Vec<std::path::PathBuf> = dirs.iter().map(std::path::PathBuf::from).collect();
    let regress_config = yinyang_campaign::RegressConfig {
        release: opts.release.clone().unwrap_or_else(|| "trunk".to_owned()),
        threads: config.threads,
        rng_seed: config.rng_seed,
    };
    match yinyang_campaign::run_regress_full(&roots, &regress_config) {
        Ok(run) => {
            if let Some(path) = &opts.metrics_out {
                if let Err(e) = std::fs::write(path, run.metrics.to_json().pretty() + "\n") {
                    eprintln!("cannot write metrics to {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if opts.json {
                println!("{}", run.report.to_json().pretty());
            } else {
                print!("{}", yinyang_campaign::render_markdown(&run.report));
            }
            finish_status_server(server);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("regress failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `profile` command: fold a `--trace` JSONL file into a span tree.
fn run_profile(path: &str, json: bool) -> ExitCode {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    match yinyang_rt::Profile::from_jsonl(&text) {
        Ok(profile) => {
            if json {
                println!("{}", profile.to_json().pretty());
            } else {
                print!("{}", profile.render_text());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `experiments-md` command: regenerate the generated blocks of
/// EXPERIMENTS.md. The campaign block reruns the pinned demo campaign
/// (deterministic); the bench block only changes under `--bench-report`.
fn run_experiments_md(path: &str, opts: &CliOpts) -> ExitCode {
    let Ok(doc) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    let result = experiments::fig8_campaign(&yinyang_campaign::experiments_md::pinned_config());
    let block = yinyang_campaign::experiments_md::campaign_block(&result);
    let mut patched = match yinyang_campaign::experiments_md::patch_block(&doc, "campaign", &block)
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(report_path) = &opts.bench_report {
        let Ok(report_text) = std::fs::read_to_string(report_path) else {
            eprintln!("cannot read {report_path}");
            return ExitCode::FAILURE;
        };
        let bench = yinyang_rt::json::Json::parse(&report_text)
            .map_err(|e| e.to_string())
            .and_then(|j| yinyang_campaign::experiments_md::bench_block(&j));
        match bench {
            Ok(block) => {
                match yinyang_campaign::experiments_md::patch_block(&patched, "bench", &block) {
                    Ok(p) => patched = p,
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("{report_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.check {
        if patched == doc {
            println!("{path}: generated blocks up to date");
            ExitCode::SUCCESS
        } else {
            eprintln!("{path}: generated blocks are stale; rerun `yinyang experiments-md`");
            ExitCode::FAILURE
        }
    } else if patched == doc {
        println!("{path}: already up to date");
        ExitCode::SUCCESS
    } else if let Err(e) = std::fs::write(path, &patched) {
        eprintln!("cannot write {path}: {e}");
        ExitCode::FAILURE
    } else {
        println!("{path}: regenerated");
        ExitCode::SUCCESS
    }
}

/// Consumes the argument after a path-taking flag.
fn parse_path(args: &[String], i: &mut usize) -> Option<String> {
    let flag = args[*i].clone();
    *i += 1;
    match args.get(*i) {
        Some(path) => Some(path.clone()),
        None => {
            eprintln!("{flag} needs a file path");
            None
        }
    }
}

/// Consumes the number after a numeric flag. A missing or malformed
/// value prints one line naming the flag and gives `None`.
fn parse_num(args: &[String], i: &mut usize) -> Option<usize> {
    let flag = &args[*i];
    *i += 1;
    let value = args.get(*i);
    let parsed = value.and_then(|s| s.parse().ok());
    if parsed.is_none() {
        match value {
            Some(value) => eprintln!("{flag} expects a number, got `{value}`"),
            None => eprintln!("{flag} needs a number"),
        }
    }
    parsed
}

fn run_exp(which: Option<&str>, config: &CampaignConfig, json: bool) -> ExitCode {
    let coverage_tests = config.iterations;
    match which {
        Some("fig7") => print!("{}", experiments::fig7(config.scale)),
        Some("fig8") => {
            let r = experiments::fig8_campaign(config);
            if json {
                println!("{}", r.triage.to_json().pretty());
            } else {
                print!("{}", experiments::render_fig8(&r));
            }
        }
        Some("fig9") => {
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::fig9(&r));
        }
        Some("fig10") => {
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::fig10(&r));
        }
        Some("fig11") => {
            print!("{}", experiments::fig11(config.scale, coverage_tests, config.rng_seed))
        }
        Some("fig12") => {
            print!("{}", experiments::fig12(config.scale, coverage_tests, config.rng_seed))
        }
        Some("rq4") => {
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::rq4(&r, config));
        }
        Some("throughput") => print!("{}", experiments::throughput(2.0)),
        Some("fp") => print!("{}", experiments::false_positive_check(10, config.rng_seed)),
        Some("all") | None => {
            print!("{}", experiments::fig7(config.scale));
            println!();
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::render_fig8(&r));
            println!();
            print!("{}", experiments::fig9(&r));
            println!();
            print!("{}", experiments::fig10(&r));
            println!();
            print!("{}", experiments::fig11(config.scale, coverage_tests, config.rng_seed));
            println!();
            print!("{}", experiments::fig12(config.scale, coverage_tests, config.rng_seed));
            println!();
            print!("{}", experiments::rq4(&r, config));
            println!();
            print!("{}", experiments::throughput(2.0));
            println!();
            print!("{}", experiments::false_positive_check(6, config.rng_seed));
        }
        Some(other) => {
            eprintln!("unknown experiment: {other}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
