//! Self-profiling: folds a JSON-lines trace file (the `--trace` output of
//! a campaign) into a span-tree profile.
//!
//! Every [`crate::trace::TraceEvent`] carries its tree `path` (ancestor
//! span names joined with `/`), so a flat event stream reconstructs the
//! call tree exactly. The trace is read and validated by the exporters'
//! reader ([`export::parse_events`], [`export::build_forest`]), and the
//! span forest folds into one [`ProfileNode`] per distinct path, holding
//! call counts, inclusive tick totals (the span's own duration sums),
//! exclusive totals (inclusive minus direct children), and a
//! [`Histogram`] of the per-call durations for p50/p95/p99.
//!
//! The fold is a pure function of the event list: nodes live in
//! [`BTreeMap`]s and the renderers iterate them in path order, so a
//! byte-identical trace file always produces byte-identical text and JSON
//! profiles — the same replay contract the trace itself obeys.

use std::collections::BTreeMap;

use crate::export::{self, SpanTree};
use crate::json::{Json, ToJson};
use crate::metrics::Histogram;

/// One node of the span tree: all events that fired at the same path.
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    /// Number of events (span completions) at this path.
    pub calls: u64,
    /// Sum of event durations — time inside this span including children.
    pub inclusive: u64,
    /// Inclusive minus the direct children's inclusive totals.
    pub exclusive: u64,
    /// Distribution of per-call durations (bucket-bound quantiles).
    pub durations: Histogram,
    /// Child nodes keyed by span name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// Folds one span and, recursively, its children into this node.
    fn add(&mut self, tree: &SpanTree) {
        self.calls += 1;
        self.inclusive += tree.event.dur;
        self.durations.record(tree.event.dur);
        for child in &tree.children {
            self.children.entry(child.event.name.clone()).or_default().add(child);
        }
    }

    fn finalize(&mut self) {
        let children_inclusive: u64 = self.children.values().map(|c| c.inclusive).sum();
        self.exclusive = self.inclusive.saturating_sub(children_inclusive);
        for child in self.children.values_mut() {
            child.finalize();
        }
    }

    fn to_json_with_name(&self, name: &str) -> Json {
        let summary = self.durations.summary();
        let mut members = vec![
            ("span".to_owned(), Json::Str(name.to_owned())),
            ("calls".to_owned(), Json::Int(self.calls as i64)),
            ("inclusive".to_owned(), Json::Int(self.inclusive as i64)),
            ("exclusive".to_owned(), Json::Int(self.exclusive as i64)),
            ("p50".to_owned(), Json::Int(summary.p50 as i64)),
            ("p95".to_owned(), Json::Int(summary.p95 as i64)),
            ("p99".to_owned(), Json::Int(summary.p99 as i64)),
        ];
        if !self.children.is_empty() {
            members.push((
                "children".to_owned(),
                Json::Arr(self.children.iter().map(|(n, c)| c.to_json_with_name(n)).collect()),
            ));
        }
        Json::Obj(members)
    }
}

/// A folded span-tree profile of one trace file.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Top-level spans (no recorded ancestor), keyed by name.
    pub roots: BTreeMap<String, ProfileNode>,
    /// Total events folded in.
    pub events: u64,
    /// The duration unit the events declared (`"ticks"` or `"us"`).
    pub unit: String,
}

impl Profile {
    /// Folds a JSON-lines trace (one event object per line, as written by
    /// [`crate::trace::emit_events`]) into a profile. The trace must pass
    /// the exporters' checks ([`export::parse_events`] and
    /// [`export::build_forest`]); the first violation is an error naming
    /// its line. Events without a `path` member (traces from older builds)
    /// profile flat under their `span` name.
    pub fn from_jsonl(text: &str) -> Result<Profile, String> {
        let events = export::parse_events(text)?;
        let mut profile = Profile {
            roots: BTreeMap::new(),
            events: events.len() as u64,
            unit: events.first().map_or_else(|| "ticks".to_owned(), |e| e.unit.clone()),
        };
        for tree in export::build_forest(events)? {
            profile.roots.entry(tree.event.name.clone()).or_default().add(&tree);
        }
        for root in profile.roots.values_mut() {
            root.finalize();
        }
        Ok(profile)
    }

    /// Total inclusive time across root spans.
    pub fn total(&self) -> u64 {
        self.roots.values().map(|r| r.inclusive).sum()
    }

    /// Renders the profile as an indented text table, one row per node.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "span tree — {} events, {} {} total inclusive",
            self.events,
            self.total(),
            self.unit
        );
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12} {:>8} {:>8} {:>8}",
            "span", "calls", "incl", "excl", "p50", "p95", "p99"
        );
        fn walk(out: &mut String, name: &str, node: &ProfileNode, depth: usize) {
            use std::fmt::Write as _;
            let summary = node.durations.summary();
            let label = format!("{}{}", "  ".repeat(depth), name);
            let _ = writeln!(
                out,
                "{label:<40} {:>8} {:>12} {:>12} {:>8} {:>8} {:>8}",
                node.calls, node.inclusive, node.exclusive, summary.p50, summary.p95, summary.p99
            );
            for (child_name, child) in &node.children {
                walk(out, child_name, child, depth + 1);
            }
        }
        for (name, node) in &self.roots {
            walk(&mut out, name, node, 1);
        }
        out
    }
}

impl ToJson for Profile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::Int(self.events as i64)),
            ("unit", Json::Str(self.unit.clone())),
            ("total", Json::Int(self.total() as i64)),
            ("spans", Json::Arr(self.roots.iter().map(|(n, r)| r.to_json_with_name(n)).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(span: &str, path: &str, dur: u64) -> String {
        format!(r#"{{"span":"{span}","path":"{path}","dur":{dur},"unit":"ticks"}}"#)
    }

    fn sample_trace() -> String {
        [
            line("solve", "solve", 100),
            line("strings.search", "solve/strings.search", 30),
            line("strings.search", "solve/strings.search", 10),
            line("solve", "solve", 60),
            line("fusion", "fusion", 7),
        ]
        .join("\n")
    }

    #[test]
    fn inclusive_and_exclusive_fold_the_tree() {
        let p = Profile::from_jsonl(&sample_trace()).unwrap();
        assert_eq!(p.events, 5);
        assert_eq!(p.unit, "ticks");
        let solve = &p.roots["solve"];
        assert_eq!(solve.calls, 2);
        assert_eq!(solve.inclusive, 160);
        let search = &solve.children["strings.search"];
        assert_eq!(search.calls, 2);
        assert_eq!(search.inclusive, 40);
        assert_eq!(search.exclusive, 40, "leaf exclusive == inclusive");
        assert_eq!(solve.exclusive, 120, "parent excludes child time");
        assert_eq!(p.roots["fusion"].inclusive, 7);
        assert_eq!(p.total(), 167);
    }

    #[test]
    fn quantiles_come_from_bucket_bounds() {
        let p = Profile::from_jsonl(&sample_trace()).unwrap();
        let s = p.roots["solve"].durations.summary();
        // 60 → bucket upper 63; 100 → bucket upper 127. With two samples
        // the 0-based rank (count-1)*pct/100 stays 0 through p99.
        assert_eq!(s.p50, 63);
        assert_eq!(s.p99, 63);
        assert_eq!(s.max, 127);
    }

    #[test]
    fn renderers_are_deterministic_and_ordered() {
        let p = Profile::from_jsonl(&sample_trace()).unwrap();
        let text = p.render_text();
        let fusion_at = text.find("fusion").unwrap();
        let solve_at = text.find("solve").unwrap();
        assert!(fusion_at < solve_at, "roots render in name order:\n{text}");
        assert!(text.contains("p99"));
        let json = p.to_json().pretty();
        assert_eq!(json, Profile::from_jsonl(&sample_trace()).unwrap().to_json().pretty());
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("events").and_then(Json::as_i64), Some(5));
        let spans = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("span").and_then(Json::as_str), Some("fusion"));
        let solve = &spans[1];
        let children = solve.get("children").and_then(Json::as_arr).unwrap();
        assert_eq!(children[0].get("span").and_then(Json::as_str), Some("strings.search"));
        assert_eq!(children[0].get("exclusive").and_then(Json::as_i64), Some(40));
    }

    #[test]
    fn pathless_events_profile_flat() {
        let text = r#"{"span":"legacy","dur":5,"unit":"us"}"#;
        let p = Profile::from_jsonl(text).unwrap();
        assert_eq!(p.unit, "us");
        assert_eq!(p.roots["legacy"].calls, 1);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let text = "{\"span\":\"ok\",\"dur\":1}\nnot json\n";
        let err = Profile::from_jsonl(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let missing = Profile::from_jsonl("{\"dur\":1}").unwrap_err();
        assert!(missing.contains("span"), "{missing}");
    }

    #[test]
    fn traces_the_exporters_refuse_are_refused() {
        // Ticks and then microseconds: the durations cannot be summed.
        let mixed =
            [line("a", "a", 1), r#"{"span":"b","path":"b","dur":2,"unit":"us"}"#.into()].join("\n");
        let err = Profile::from_jsonl(&mixed).unwrap_err();
        assert!(err.contains("line 2") && err.contains("one clock"), "{err}");
        // A child whose `solve` parent never closes.
        let orphan = [line("fusion", "fusion", 7), line("inner", "solve/inner", 3)].join("\n");
        let err = Profile::from_jsonl(&orphan).unwrap_err();
        assert!(err.contains("line 2") && err.contains("unbalanced"), "{err}");
        // A path that does not end in its span name.
        let err = Profile::from_jsonl(&line("solve", "solve/other", 1)).unwrap_err();
        assert!(err.contains("does not end in its span name"), "{err}");
    }
}
