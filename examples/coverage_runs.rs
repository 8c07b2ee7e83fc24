//! Coverage instrumentation demo (RQ3 in miniature): solve a seed set, then
//! fused tests, and show the probe-coverage difference that Fig. 11
//! tabulates.
//!
//! ```sh
//! cargo run --release --example coverage_runs
//! ```

use std::collections::BTreeSet;
use yinyang::coverage::{measure, ProbeKind};
use yinyang::fusion::Fuser;
use yinyang::seedgen::{generate_pool, SeedGenerator};
use yinyang::smtlib::Logic;
use yinyang::solver::SmtSolver;

fn main() {
    let mut rng = yinyang_rt::StdRng::seed_from_u64(3);
    let generator = SeedGenerator::new(Logic::QfNra);
    let seeds = generate_pool(&mut rng, &generator, 10, 10);
    let solver = SmtSolver::new();
    let fuser = Fuser::new();
    let solve_seeds = || {
        for s in &seeds {
            let _ = solver.solve_script(&s.script);
        }
    };

    // Each arm counts only its own probe hits (two thread-local metrics
    // snapshots around it). Arm 1: benchmark seeds only.
    let bench = measure(solve_seeds);

    // Arm 2: seeds plus fused tests (the YinYang arm).
    let yinyang = measure(|| {
        solve_seeds();
        for _ in 0..40 {
            let i = yinyang_rt::Rng::random_range(&mut rng, 0..seeds.len());
            let j = yinyang_rt::Rng::random_range(&mut rng, 0..seeds.len());
            if seeds[i].oracle != seeds[j].oracle {
                continue;
            }
            if let Ok(fused) =
                fuser.fuse(&mut rng, seeds[i].oracle, &seeds[i].script, &seeds[j].script)
            {
                let _ = solver.solve_script(&fused.script);
            }
        }
    });

    let universe: BTreeSet<&str> = bench.sites().chain(yinyang.sites()).collect();
    println!("QF_NRA coverage (percent of the probe sites either arm reached):");
    println!("{:<10} {:>10} {:>10}", "metric", "Benchmark", "YinYang");
    for kind in ProbeKind::ALL {
        println!(
            "{:<10} {:>9.1}% {:>9.1}%",
            kind.plural(),
            bench.percent_of(&universe, kind),
            yinyang.percent_of(&universe, kind)
        );
    }
    assert!(
        yinyang.len() >= bench.len(),
        "fused tests must not lose coverage over the seed baseline"
    );
    println!(
        "distinct probe sites: benchmark {}, yinyang {} (paper: YinYang consistently higher)",
        bench.len(),
        yinyang.len()
    );
}
