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

usage: yinyang <command> [arguments] [options]

commands:
  exp <which>                     regenerate an evaluation figure; <which> is one of
                                  fig7 fig8 fig9 fig10 fig11 fig12 rq4 throughput fp all
  fuzz                            run the bug-finding campaign, print findings
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
  help                            print this reference (also -h, --help)

options (read only by the commands in parentheses):
  --scale N        (exp, fuzz) Fig. 7 seed inventory scale, 1:N,
                   N >= 1                                      [default 400]
  --iterations N   (exp, fuzz) fused tests per (benchmark, oracle)
                   round                                        [default 30]
  --rounds N       (exp, fuzz) fix-and-retest rounds            [default 3]
  --seed N         (exp, fuzz, regress, fuse) RNG seed; same seed
                   replays byte-identically                  [default 53710]
  --threads N      (exp, fuzz, regress) worker threads (replay-safe at
                   any count); 0 = auto-detect from the machine's
                   available parallelism                        [default 1]
  --json           (exp, fuzz, regress, profile) print reports as JSON
                   (fuzz embeds a telemetry section; profile prints the
                   span tree as JSON)
  --release NAME   (regress) target build: a registry release such as trunk,
                   4.8.5 (zirkon) or 1.5 (corvus), or `reference` for the
                   bug-free solver                              [default trunk]
  --trace FILE     (exp, fuzz, regress) write one JSON line per span
                   (seedgen/fusion/solve/...) to FILE
  --bundle-dir DIR (fuzz) write a reproduction bundle per deduplicated
                   finding: seeds, fused + ddmin-reduced scripts,
                   verdict/bug/metrics JSON, and the finding job's trace slice
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
  --bench-report FILE
                   (experiments-md) also regenerate the bench block from an
                   rt::bench report.json — machine-dependent, never CI-diffed
  --check          (experiments-md) verify the file is up to date instead of
                   rewriting it; exits non-zero when stale
  --verbose        (exp, fuzz) per-round campaign heartbeat on stderr
  --quiet          (exp, fuzz, regress) suppress the heartbeat and the
                   per-finding listings (regress prints only its summary)
  --wallclock      (exp, fuzz, regress) time spans in real microseconds
                   instead of deterministic ticks (breaks --seed replay of
                   traced durations)

An unknown command or option, an option the command does not read, an
argument beyond those the command takes, a malformed number and
--scale 0 are errors: the command prints one line naming the argument
on stderr and exits 1 before doing any work.
";

fn main() -> ExitCode {
    // Crash bugs in the solvers under test panic by design and are caught
    // by the harness; keep the default hook from spamming stderr. Set
    // YINYANG_PANIC_TRACE=1 to restore backtraces while debugging.
    if std::env::var_os("YINYANG_PANIC_TRACE").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let Cli { command, positional, mut config, opts } = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if config.threads == 0 {
        // `--threads 0`: size the pool to the machine. The count feeds
        // nothing byte-compared — reports are identical at any width.
        config.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    // `--verbose` turns the heartbeat on and `--quiet` wins over it.
    config.heartbeat &= !opts.quiet;
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
    let code = dispatch(&command, &positional, &config, &opts);
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
        }
    }
}

/// A parsed command line: the command, its positional arguments, and
/// the options it was given.
struct Cli {
    command: String,
    positional: Vec<String>,
    config: CampaignConfig,
    opts: CliOpts,
}

/// Every command with the most positional arguments it takes.
const COMMANDS: &[(&str, usize)] = &[
    ("help", 0),
    ("exp", 1),
    ("fuzz", 0),
    ("regress", usize::MAX),
    ("profile", 1),
    ("export", 1),
    ("fetch", 2),
    ("experiments-md", 1),
    ("solve", 1),
    ("fuse", 3),
    ("trace-check", 1),
];

/// How an option takes its value and where the value goes.
enum Setter {
    /// A switch without a value.
    Switch(fn(&mut CampaignConfig, &mut CliOpts)),
    /// A non-negative number.
    Num(fn(&mut CampaignConfig, &mut CliOpts, usize)),
    /// A path, address or name.
    Text(fn(&mut CampaignConfig, &mut CliOpts, String)),
}

/// Every option with the commands that read it (as `dispatch` routes
/// them) and where its value goes. Any other command refuses the option.
const FLAGS: &[(&str, &[&str], Setter)] = &[
    ("--scale", &["exp", "fuzz"], Setter::Num(|c, _, n| c.scale = n)),
    ("--iterations", &["exp", "fuzz"], Setter::Num(|c, _, n| c.iterations = n)),
    ("--rounds", &["exp", "fuzz"], Setter::Num(|c, _, n| c.rounds = n)),
    ("--seed", &["exp", "fuzz", "regress", "fuse"], Setter::Num(|c, _, n| c.rng_seed = n as u64)),
    ("--threads", &["exp", "fuzz", "regress"], Setter::Num(|c, _, n| c.threads = n)),
    ("--json", &["exp", "fuzz", "regress", "profile"], Setter::Switch(|_, o| o.json = true)),
    ("--verbose", &["exp", "fuzz"], Setter::Switch(|c, _| c.heartbeat = true)),
    ("--quiet", &["exp", "fuzz", "regress"], Setter::Switch(|_, o| o.quiet = true)),
    (
        "--wallclock",
        &["exp", "fuzz", "regress"],
        Setter::Switch(|_, _| trace::set_time_mode(yinyang_rt::TimeMode::Wall)),
    ),
    ("--trace", &["exp", "fuzz", "regress"], Setter::Text(|_, o, v| o.trace_path = Some(v))),
    ("--bundle-dir", &["fuzz"], Setter::Text(|_, o, v| o.bundle_dir = Some(v))),
    ("--metrics-out", &["fuzz", "regress"], Setter::Text(|_, o, v| o.metrics_out = Some(v))),
    ("--status-addr", &["fuzz", "regress"], Setter::Text(|_, o, v| o.status_addr = Some(v))),
    ("--release", &["regress"], Setter::Text(|_, o, v| o.release = Some(v))),
    ("--chrome-trace", &["export"], Setter::Text(|_, o, v| o.chrome_trace = Some(v))),
    ("--flamegraph", &["export"], Setter::Text(|_, o, v| o.flamegraph = Some(v))),
    ("--lanes", &["export"], Setter::Num(|_, o, n| o.lanes = n)),
    ("--bench-report", &["experiments-md"], Setter::Text(|_, o, v| o.bench_report = Some(v))),
    ("--check", &["experiments-md"], Setter::Switch(|_, o| o.check = true)),
];

/// A command-line argument the command does not take.
enum ArgError {
    UnknownCommand(String),
    UnknownOption(String),
    NotRead { command: String, option: String },
    Surplus { command: String, arg: String },
    MissingValue(String),
    NotANumber { option: String, value: String },
    ZeroScale,
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::UnknownCommand(c) if c.starts_with('-') => {
                write!(f, "the command comes before `{c}`: yinyang <command> [arguments] [options]")
            }
            ArgError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}`; run `yinyang help` for the list")
            }
            ArgError::UnknownOption(o) => {
                write!(f, "unknown option `{o}`; run `yinyang help` for the list")
            }
            ArgError::NotRead { command, option } => {
                write!(f, "`{command}` does not read `{option}`; run `yinyang help` for the list")
            }
            ArgError::Surplus { command, arg } => {
                write!(f, "`{command}` takes no further argument, got `{arg}`")
            }
            ArgError::MissingValue(o) => write!(f, "{o} needs a value"),
            ArgError::NotANumber { option, value } => {
                write!(f, "{option} expects a number, got `{value}`")
            }
            ArgError::ZeroScale => write!(f, "--scale must be at least 1, got `0`"),
        }
    }
}

/// Parses `yinyang <command> [arguments] [options]` against [`COMMANDS`]
/// and [`FLAGS`]. `Ok(None)` asks for the usage text (`help`, `-h`,
/// `--help`). No command runs before every argument has been checked.
fn parse_args(args: &[String]) -> Result<Option<Cli>, ArgError> {
    let command = args[0].as_str();
    if matches!(command, "-h" | "--help") {
        return Ok(None);
    }
    let Some(&(_, max_positional)) = COMMANDS.iter().find(|(name, _)| *name == command) else {
        return Err(ArgError::UnknownCommand(command.to_owned()));
    };
    let mut config = CampaignConfig::default();
    let mut opts = CliOpts::default();
    let mut positional = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(None);
        }
        if !arg.starts_with('-') || arg == "-" {
            if positional.len() == max_positional {
                return Err(ArgError::Surplus { command: command.to_owned(), arg: arg.clone() });
            }
            positional.push(arg.clone());
            continue;
        }
        let Some((_, readers, setter)) = FLAGS.iter().find(|(name, ..)| name == arg) else {
            return Err(ArgError::UnknownOption(arg.clone()));
        };
        if !readers.contains(&command) {
            return Err(ArgError::NotRead { command: command.to_owned(), option: arg.clone() });
        }
        match setter {
            Setter::Switch(set) => set(&mut config, &mut opts),
            Setter::Num(set) => {
                let value = rest.next().ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
                let n = value.parse().map_err(|_| ArgError::NotANumber {
                    option: arg.clone(),
                    value: value.clone(),
                })?;
                set(&mut config, &mut opts, n);
            }
            Setter::Text(set) => {
                let value = rest.next().ok_or_else(|| ArgError::MissingValue(arg.clone()))?;
                set(&mut config, &mut opts, value.clone());
            }
        }
    }
    if config.scale == 0 {
        // The seed inventory divides by the scale.
        return Err(ArgError::ZeroScale);
    }
    if command == "help" {
        return Ok(None);
    }
    Ok(Some(Cli { command: command.to_owned(), positional, config, opts }))
}

fn dispatch(command: &str, args: &[String], config: &CampaignConfig, opts: &CliOpts) -> ExitCode {
    let json = opts.json;
    match command {
        "exp" => run_exp(args.first().map(String::as_str), config, json),
        "fuzz" => run_fuzz(config, opts),
        "regress" => run_regress_cmd(args, config, opts),
        "profile" => {
            let Some(path) = args.first() else {
                eprintln!("usage: yinyang profile <file.jsonl>");
                return ExitCode::FAILURE;
            };
            run_profile(path, json)
        }
        "export" => {
            let Some(path) = args.first() else {
                eprintln!(
                    "usage: yinyang export <file.jsonl> [--chrome-trace FILE] \
                     [--flamegraph FILE] [--lanes N]"
                );
                return ExitCode::FAILURE;
            };
            run_export(path, opts)
        }
        "fetch" => {
            let [addr, path] = args else {
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
        "experiments-md" => {
            let path = args.first().map(String::as_str).unwrap_or("EXPERIMENTS.md");
            run_experiments_md(path, opts)
        }
        "solve" => {
            let Some(path) = args.first() else {
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
        "fuse" => {
            let [oracle, a, b] = args else {
                eprintln!("usage: yinyang fuse <sat|unsat> <a.smt2> <b.smt2>");
                return ExitCode::FAILURE;
            };
            let oracle = match oracle.as_str() {
                "sat" => Oracle::Sat,
                "unsat" => Oracle::Unsat,
                other => {
                    eprintln!("fuse: the oracle is `sat` or `unsat`, got `{other}`");
                    return ExitCode::FAILURE;
                }
            };
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
        "trace-check" => {
            let Some(path) = args.first() else {
                eprintln!("usage: yinyang trace-check <file.jsonl>");
                return ExitCode::FAILURE;
            };
            trace_check(path)
        }
        _ => unreachable!("parse_args admits only the commands in COMMANDS"),
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
    let mut result = run.result;
    result.telemetry.gauges.extend(yinyang_rt::metrics::snapshot().gauges);
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, run.metrics.to_json().pretty() + "\n") {
            eprintln!("cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
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
                return ExitCode::FAILURE;
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
    finish_status_server(server);
    ExitCode::SUCCESS
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
            } else if opts.quiet {
                print!("{}", yinyang_campaign::render_summary(&run.report.summary));
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
