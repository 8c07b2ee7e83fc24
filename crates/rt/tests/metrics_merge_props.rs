//! Property: the partition merge law for metrics snapshots.
//!
//! A campaign round is a flat job list, and each job returns its private
//! metrics delta. Split the jobs into parts by `index % parts`, merge
//! each part's deltas in job order, then merge the part snapshots in part
//! order: the result must equal the snapshot built by merging every job
//! delta in global job order — every counter, every gauge, and every
//! histogram bucket. So the merged telemetry does not depend on how the
//! jobs are partitioned, which is what lets a driver merge jobs in any
//! grouping, such as the rounds in flight of a round-barrier executor.
//! Counters and histogram buckets are additive (order-free); gauges are
//! last-write-wins and therefore only merge-order-safe when applied
//! identically on both sides, which is how the campaign uses them (set
//! once at the report boundary, never inside job deltas).

use yinyang_rt::{props, MetricsSnapshot, Rng, StdRng};

const COUNTERS: &[&str] = &["tests.total", "solver.sat.decisions", "solver.simplex.pivots"];
const HISTOGRAMS: &[&str] = &["span.solve", "span.fusion", "span.oracle"];

/// One job's private metrics delta, as `run_test` would return it.
fn random_job_delta(rng: &mut StdRng) -> MetricsSnapshot {
    let mut delta = MetricsSnapshot::default();
    for name in COUNTERS {
        if rng.random_range(0u32..4) > 0 {
            delta.counters.insert((*name).to_owned(), rng.random_range(0u64..1000));
        }
    }
    for name in HISTOGRAMS {
        if rng.random_range(0u32..4) > 0 {
            let h = delta.histograms.entry((*name).to_owned()).or_default();
            for _ in 0..rng.random_range(1usize..8) {
                // Spread samples across many base-2 buckets, including the
                // zero bucket and values past the 2^30 saturation point.
                let magnitude = rng.random_range(1u32..34);
                h.record(rng.random_range(0u64..1 << magnitude));
            }
        }
    }
    delta
}

/// Gauges are applied at the report boundary, identically on both sides;
/// they must survive the merge unchanged.
fn apply_report_gauges(snapshot: &mut MetricsSnapshot) {
    snapshot.gauges.insert("coverage.lines.sites".to_owned(), 123);
    snapshot.gauges.insert("coverage.branches.hits".to_owned(), -7);
}

fn merge_law_holds(seed: u64, jobs: usize, parts: usize) {
    let deltas: Vec<MetricsSnapshot> = {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..jobs).map(|_| random_job_delta(&mut rng)).collect()
    };

    // Every job delta merged in global job order.
    let mut sequential = MetricsSnapshot::default();
    for delta in &deltas {
        sequential.merge(delta);
    }
    apply_report_gauges(&mut sequential);

    // Partitioned: part k holds the jobs with index % parts == k and
    // merges them in job order; the part snapshots then merge in part
    // order.
    let mut partitioned = MetricsSnapshot::default();
    for part in 0..parts {
        let mut local = MetricsSnapshot::default();
        for (index, delta) in deltas.iter().enumerate() {
            if index % parts == part {
                local.merge(delta);
            }
        }
        partitioned.merge(&local);
    }
    apply_report_gauges(&mut partitioned);

    // Structural equality covers counters, gauges, and histogram
    // count/sum; compare raw per-bucket counts explicitly as well so a
    // bucket-level regression cannot hide behind matching totals.
    assert_eq!(sequential, partitioned, "seed {seed}, {jobs} jobs over {parts} parts");
    assert_eq!(
        sequential.histograms.keys().collect::<Vec<_>>(),
        partitioned.histograms.keys().collect::<Vec<_>>()
    );
    for (name, h) in &sequential.histograms {
        assert_eq!(
            h.bucket_counts(),
            partitioned.histograms[name].bucket_counts(),
            "histogram {name} buckets diverged (seed {seed}, {parts} parts)"
        );
    }
}

props! {
    cases: 32;

    fn shard_merge_in_shard_order_equals_sequential_merge(
        seed in |r: &mut StdRng| r.random_range(0u64..1 << 32),
        jobs in |r: &mut StdRng| r.random_range(1usize..48),
        parts in |r: &mut StdRng| r.random_range(1usize..7)
    ) {
        merge_law_holds(seed, jobs, parts);
    }

    fn single_part_partition_is_the_identity(
        seed in |r: &mut StdRng| r.random_range(0u64..1 << 32),
        jobs in |r: &mut StdRng| r.random_range(1usize..32)
    ) {
        merge_law_holds(seed, jobs, 1);
    }
}
