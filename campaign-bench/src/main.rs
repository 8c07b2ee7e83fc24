//! `campaign-bench --workload <fig8|selfcheck|reduce> --seed <n>
//! --seconds <s> --trace <0|1> [--threads <n>] [--iterations <n> --rounds <n>]`
//!
//! Prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics in an untraced run and the per-layer metrics in a traced one.
//! Diagnostics go to standard error. `--iterations` and `--rounds` set the
//! size of a `fig8` unit, for profiling other campaign sizes by hand.
//!
//! An untraced run measures its units in a worker process that it starts
//! and stops itself (`--worker <unit>`; see `supervisor.rs`).

use yinyang_campaign_bench::supervisor::supervise;
use yinyang_campaign_bench::{report, run, Args, Outcome, WORKLOADS};

fn parse_args() -> Result<Args, String> {
    let mut args = Args::new("", 0);
    let (mut seen_seed, mut iterations, mut rounds) = (false, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = number(&value)?;
                seen_seed = true;
            }
            "--seconds" => args.seconds = number(&value)? as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--threads" => args.threads = number(&value)?.clamp(1, 64) as usize,
            "--iterations" => iterations = Some(number(&value)?.clamp(1, 1000) as usize),
            "--rounds" => rounds = Some(number(&value)?.clamp(1, 100) as usize),
            "--worker" => args.worker_from = Some(number(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || !seen_seed {
        return Err("--workload and --seed are required".into());
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        let w = &args.workload;
        return Err(format!("unknown workload `{w}` (expected one of {WORKLOADS:?})"));
    }
    match (iterations, rounds) {
        (None, None) => {}
        (Some(i), Some(r)) => args.fig8_size = Some((i, r)),
        _ => return Err("--iterations and --rounds go together".into()),
    }
    Ok(args)
}

/// Reports a run cut off at its deadline and ends the process, which also
/// ends the solve still in flight. A run whose set-up had not ended has no
/// result and fails.
fn cut_off(result: Result<Outcome, String>) -> ! {
    match result {
        Ok(outcome) => {
            report(&outcome);
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            std::process::exit(1)
        }
    }
}

fn fail(e: &str) -> ! {
    eprintln!("campaign-bench: {e}");
    std::process::exit(2)
}

fn main() {
    // Injected crash bugs are panics caught by the harness; keep their
    // messages off standard error.
    std::panic::set_hook(Box::new(|_| {}));
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let outcome = if args.worker_from.is_some() || args.trace {
        run(&Args { cut_off: Some(cut_off), ..args.clone() })
    } else {
        std::env::current_exe()
            .map_err(|e| format!("own executable: {e}"))
            .and_then(|exe| supervise(&args, &exe))
    };
    match outcome {
        // A worker has said everything on its unit lines.
        Ok(_) if args.worker_from.is_some() => {}
        Ok(outcome) => report(&outcome),
        Err(e) => fail(&e),
    }
}
