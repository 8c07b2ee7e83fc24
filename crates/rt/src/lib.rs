//! **yinyang-rt** — the zero-dependency runtime substrate of the workspace.
//!
//! The container this project builds in has no access to crates.io, so
//! everything the fuzzing loop needs from the usual ecosystem crates is
//! reimplemented here, minimally and deterministically:
//!
//! | Module | Replaces | Role |
//! |---|---|---|
//! | [`rng`] | `rand` | SplitMix64 seeding + xoshiro256** streams |
//! | [`prop`] | `proptest` | property harness with greedy shrinking |
//! | [`json`] | `serde`/`serde_json` | hand-rolled JSON writer/reader |
//! | [`pool`] | `crossbeam` | `std::thread` + `mpsc` fork/join pool, the campaign and regress executor |
//! | [`metrics`] | `prometheus`-alikes | sharded counters/histograms |
//! | [`trace`] | `tracing` | replay-safe spans + JSON-lines events |
//! | [`profile`] | `pprof`-style viewers | span-tree profiles from trace files |
//! | [`serve`] | `hyper` + exporters | HTTP status server with Prometheus exposition |
//! | [`export`] | `inferno`/trace viewers | Chrome-trace and flamegraph converters |
//!
//! Determinism is a design requirement, not an accident: the campaign's
//! bit-reproducibility guarantee (same `--seed` ⇒ byte-identical triage
//! report) rests on [`rng`] being a fixed algorithm and [`json`] printing
//! maps in a stable order.

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod prop;
pub mod rng;
pub mod serve;
pub mod trace;

pub use metrics::{Histogram, HistogramSummary, MetricsSnapshot};
pub use profile::{Profile, ProfileNode};
pub use rng::{Rng, SplitMix64, StdRng};
pub use serve::StatusServer;
pub use trace::{Stopwatch, TimeMode, TraceEvent};
