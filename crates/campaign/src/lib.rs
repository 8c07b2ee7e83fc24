//! Campaign orchestration and the experiment harness that regenerates
//! every table and figure of the paper's evaluation (Section 4).
//!
//! * [`campaign`] — Algorithm 1 in fix-and-retest rounds against the
//!   fault-injected personas, with the paper's multi-threaded mode;
//! * [`telemetry`] — the report-facing condensation of the run's
//!   [`yinyang_rt::metrics`] snapshot (per-stage timing, solver
//!   statistics);
//! * [`triage`](mod@triage) — findings → Fig. 8a/8b/8c tables;
//! * [`regress`] — replays `--bundle-dir` reproduction bundles against an
//!   arbitrary persona release and classifies each finding as
//!   still-broken / fixed / flaky / stale, deduplicating identical
//!   reduced test cases across campaigns;
//! * [`experiments`] — one entry point per figure: [`experiments::fig7`]
//!   through [`experiments::fig12`], [`experiments::rq4`],
//!   [`experiments::throughput`], and the
//!   [`experiments::false_positive_check`] soundness guarantee.
//!
//! The `yinyang` binary in this crate exposes all of it on the command
//! line (`yinyang exp all`).

#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub mod experiments;
pub mod experiments_md;
pub mod forensics;
pub mod regress;
pub mod telemetry;
pub mod triage;

pub use campaign::{
    run_campaign, run_campaign_full, run_campaign_with_metrics, run_concatfuzz_round, CampaignRun,
    FindingForensics,
};
pub use config::{Behavior, CampaignConfig, CampaignOutcome, RawFinding};
pub use forensics::{write_bundles, BundleSummary};
pub use regress::{
    render_markdown, render_summary, run_regress, run_regress_full, BundleStatus, RegressConfig,
    RegressEntry, RegressReport, RegressRun, RegressSummary,
};
pub use telemetry::{CoverageRound, Telemetry};
pub use triage::{fingerprint, triage, Triage};
