//! Process-wide metrics registry: counters and fixed-bucket histograms
//! with thread-local aggregation, replacing `metrics`/`prometheus` style
//! crates for campaign and solver telemetry.
//!
//! Design mirrors how [`crate::pool`] shards work across threads: every
//! thread that records a metric gets its own *shard* (a small mutex-guarded
//! map that only that thread writes on the hot path), and [`snapshot`]
//! merges all shards non-destructively. Recording therefore never contends
//! on a global lock — the shard mutex is uncontended except while a
//! snapshot is being taken — which is as close to lock-free as the
//! zero-dependency constraint allows.
//!
//! Determinism rules (these are what make byte-identical campaign replay
//! possible, see DESIGN.md):
//!
//! * Counters and histogram buckets are commutative: any interleaving of
//!   the same multiset of `record`/`add` calls yields the same snapshot.
//! * Histogram `min`/`max`/quantiles are derived from bucket bounds, never
//!   from raw values, so merging or subtracting snapshots taken on
//!   different threads cannot change them.
//!
//! There are no gauges: a last-write-wins value would not survive a merge
//! of per-job deltas in job order. Instantaneous figures (such as the
//! coverage site totals in campaign reports) are derived from counters.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{FromJson, Json, JsonError, ToJson};

fn json_err(message: &str) -> JsonError {
    JsonError { pos: 0, message: message.to_owned() }
}

/// Number of exponential (base-2) histogram buckets.
pub const BUCKETS: usize = 32;

/// Largest value a histogram can resolve; larger samples saturate into the
/// last bucket (their exact value still contributes to `sum`).
pub const HISTOGRAM_CAP: u64 = (1 << 31) - 1;

/// A fixed-bucket exponential histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i` (for `i >= 1`) holds values
/// in `[2^(i-1), 2^i - 1]`, clamped so everything at or above `2^30`
/// lands in the final bucket. All derived statistics (`min`, `max`,
/// `quantile`) report *bucket bounds*, not raw samples, which keeps them
/// stable under merge/delta regardless of thread interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of histogram bucket `index`: `0` for bucket 0,
/// `2^i - 1` for bucket `i >= 1`. Public so exposition formats (the
/// Prometheus renderer in [`crate::serve`]) can label cumulative buckets
/// with the exact bounds [`Histogram::record`] used.
pub fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        (1u64 << index) - 1
    }
}

fn bucket_lower(index: usize) -> u64 {
    match index {
        0 => 0,
        1 => 1,
        i => 1u64 << (i - 1),
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value.min(HISTOGRAM_CAP))] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket sample counts, index-aligned with [`bucket_upper`].
    /// Exposition formats fold these into cumulative series; the counts
    /// here are per-bucket (non-cumulative).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Lower bound of the first occupied bucket (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets.iter().position(|&c| c > 0).map_or(0, bucket_lower)
    }

    /// Upper bound of the last occupied bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets.iter().rposition(|&c| c > 0).map_or(0, bucket_upper)
    }

    /// The `pct`-th percentile as a bucket upper bound (`pct` in 0..=100).
    ///
    /// Integer rank arithmetic: the sample at rank `(count - 1) * pct / 100`
    /// (0-based, in sorted order) determines the bucket.
    pub fn quantile(&self, pct: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count - 1) as u128 * pct.min(100) as u128 / 100;
        let mut seen: u128 = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u128;
            if c > 0 && seen > target {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The samples recorded in `self` but not in the earlier snapshot
    /// `earlier` (bucket-wise saturating subtraction).
    pub fn delta(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (i, (b, e)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            out.buckets[i] = b.saturating_sub(*e);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// The condensed seven-number summary used in reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(50),
            p95: self.quantile(95),
            p99: self.quantile(99),
        }
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("buckets", Json::Arr(self.buckets.iter().map(|b| b.to_json()).collect())),
        ])
    }
}

impl FromJson for Histogram {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let mut h = Histogram::new();
        h.count = u64::from_json(json.get("count").unwrap_or(&Json::Null))?;
        h.sum = u64::from_json(json.get("sum").unwrap_or(&Json::Null))?;
        let buckets = json
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| json_err("expected buckets"))?;
        if buckets.len() != BUCKETS {
            return Err(json_err("expected 32 buckets"));
        }
        for (i, b) in buckets.iter().enumerate() {
            h.buckets[i] = u64::from_json(b)?;
        }
        Ok(h)
    }
}

/// Seven-number summary of a [`Histogram`], the shape embedded in campaign
/// telemetry reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Lower bound of the first occupied bucket.
    pub min: u64,
    /// Upper bound of the last occupied bucket.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 95th percentile (bucket upper bound).
    pub p95: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

crate::impl_json_struct!(HistogramSummary { count, sum, min, max, p50, p95, p99 });

/// A point-in-time copy of metric state: mergeable, subtractable, and
/// serializable. Produced by [`snapshot`] (whole process) and
/// [`local_snapshot`] (calling thread only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Sample distributions.
    pub histograms: BTreeMap<String, Histogram>,
}

crate::impl_json_struct!(MetricsSnapshot { counters, histograms });

impl MetricsSnapshot {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters and histograms add.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// What happened between the earlier snapshot and `self`: counters and
    /// histograms subtract. Entries that end up empty are dropped, so a
    /// no-op interval yields an empty snapshot.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (k, v) in &self.counters {
            let d = v.saturating_sub(*earlier.counters.get(k).unwrap_or(&0));
            if d > 0 {
                out.counters.insert(k.clone(), d);
            }
        }
        for (k, h) in &self.histograms {
            let d = match earlier.histograms.get(k) {
                Some(e) => h.delta(e),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.histograms.insert(k.clone(), d);
            }
        }
        out
    }

    /// Counter lookup defaulting to 0.
    pub fn counter(&self, name: &str) -> u64 {
        *self.counters.get(name).unwrap_or(&0)
    }
}

/// One thread's cumulative metrics.
type Shard = Arc<Mutex<MetricsSnapshot>>;

#[derive(Default)]
struct Global {
    shards: Vec<Shard>,
    /// Accumulated data from threads that have exited (their shards are
    /// drained here so the process-wide totals survive thread churn).
    retired: MetricsSnapshot,
}

fn global() -> &'static Mutex<Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Global::default()))
}

/// Owns this thread's shard registration; on thread exit the shard is
/// drained into the global `retired` accumulator and unregistered.
struct ShardGuard {
    shard: Shard,
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let mut g = global().lock().expect("metrics global lock");
        let data = self.shard.lock().expect("metrics shard lock");
        g.retired.merge(&data);
        drop(data);
        g.shards.retain(|s| !Arc::ptr_eq(s, &self.shard));
    }
}

thread_local! {
    static SHARD: ShardGuard = {
        let shard: Shard = Arc::new(Mutex::new(MetricsSnapshot::default()));
        global().lock().expect("metrics global lock").shards.push(Arc::clone(&shard));
        ShardGuard { shard }
    };
}

fn with_shard<R>(f: impl FnOnce(&mut MetricsSnapshot) -> R) -> R {
    SHARD.with(|guard| f(&mut guard.shard.lock().expect("metrics shard lock")))
}

/// Adds `delta` to the named counter (this thread's shard).
pub fn counter_add(name: &str, delta: u64) {
    with_shard(|s| match s.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            s.counters.insert(name.to_owned(), delta);
        }
    });
}

/// Records one histogram sample (this thread's shard).
pub fn histogram_record(name: &str, value: u64) {
    with_shard(|s| match s.histograms.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            s.histograms.insert(name.to_owned(), h);
        }
    });
}

/// This thread's cumulative value for the named counter. Pairs of reads
/// around a call give an exact per-call delta because no other thread
/// writes this shard.
pub fn local_counter(name: &str) -> u64 {
    with_shard(|s| *s.counters.get(name).unwrap_or(&0))
}

/// Snapshot of this thread's shard only. Deltas of two local snapshots
/// bracket exactly the work the thread did in between.
pub fn local_snapshot() -> MetricsSnapshot {
    with_shard(|s| s.clone())
}

/// Process-wide snapshot: all live shards plus retired-thread totals,
/// merged non-destructively (recording continues unaffected).
pub fn snapshot() -> MetricsSnapshot {
    let g = global().lock().expect("metrics global lock");
    let mut out = g.retired.clone();
    for shard in &g.shards {
        out.merge(&shard.lock().expect("metrics shard lock"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_base_two() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024);
        // 0 -> bucket 0; 1 -> bucket 1; {2,3} -> bucket 2; {4,7} -> bucket 3;
        // 8 -> bucket 4; 1023 -> bucket 10; 1024 -> bucket 11.
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), bucket_upper(11));
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(3); // bucket 2, upper bound 3
        }
        for _ in 0..49 {
            h.record(100); // bucket 7, upper bound 127
        }
        h.record(5000); // bucket 13, upper bound 8191
        assert_eq!(h.quantile(0), 3);
        assert_eq!(h.quantile(50), 3);
        assert_eq!(h.quantile(95), 127);
        assert_eq!(h.quantile(100), 8191);
        assert_eq!(h.summary().p50, 3);
        assert_eq!(h.summary().p95, 127);
        assert_eq!(h.summary().p99, 127);
    }

    #[test]
    fn p99_bucket_interpolation_is_rank_based() {
        // Quantiles use 0-based integer rank arithmetic over bucket
        // counts: the sample at rank (count - 1) * pct / 100 selects the
        // bucket, and the reported value is that bucket's upper bound.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 4, upper bound 15
        }
        h.record(1000); // bucket 10, upper bound 1023
                        // count = 100: p99 rank = 99 * 99 / 100 = 98 → still the fast
                        // bucket; the single outlier only surfaces at p100.
        assert_eq!(h.quantile(99), 15);
        assert_eq!(h.quantile(100), 1023);
        // One more outlier tips rank 99 (101 samples → rank = 100*99/100
        // = 99) into the 99th sorted position — the first outlier.
        h.record(1000);
        assert_eq!(h.quantile(99), 1023);
        let s = h.summary();
        assert_eq!((s.p50, s.p95, s.p99), (15, 15, 1023));
    }

    #[test]
    fn merge_and_delta_are_inverse_on_buckets() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [2u64, 20] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.delta(&a), b);
        assert_eq!(merged.delta(&b), a);
    }

    #[test]
    fn histogram_json_roundtrip() {
        let mut h = Histogram::new();
        for v in [0u64, 5, 77, 1 << 20] {
            h.record(v);
        }
        let back = Histogram::from_json(&Json::parse(&h.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn snapshot_delta_drops_empty_entries() {
        let mut before = MetricsSnapshot::default();
        before.counters.insert("a".into(), 3);
        let mut after = before.clone();
        *after.counters.get_mut("a").unwrap() += 2;
        after.counters.insert("b".into(), 1);
        let d = after.delta(&before);
        assert_eq!(d.counter("a"), 2);
        assert_eq!(d.counter("b"), 1);
        assert_eq!(after.delta(&after), MetricsSnapshot::default());
    }

    #[test]
    fn counters_merge_across_pool_threads() {
        // Each worker records into its own shard; the process snapshot must
        // see the exact total no matter how the queue distributed the jobs.
        let tag = "test.pool.merge";
        let before = snapshot().counter(tag);
        let per_item = 7u64;
        let items: Vec<u64> = (0..40).collect();
        crate::pool::parallel_map(4, items, |_| counter_add(tag, per_item));
        let after = snapshot().counter(tag);
        assert_eq!(after - before, 40 * per_item);
    }

    #[test]
    fn local_snapshot_brackets_thread_work() {
        let t0 = local_snapshot();
        counter_add("test.local.counter", 5);
        histogram_record("test.local.hist", 9);
        let d = local_snapshot().delta(&t0);
        assert_eq!(d.counter("test.local.counter"), 5);
        assert_eq!(d.histograms["test.local.hist"].count(), 1);
    }
}
