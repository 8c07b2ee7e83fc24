//! Trace exporters: convert the span-stack JSONL trace format (the
//! `--trace` output, one [`crate::trace::TraceEvent`] object per line)
//! into the two formats the wider profiling ecosystem already speaks —
//! Chrome Trace Event JSON ([`chrome_trace`], loadable in Perfetto and
//! `chrome://tracing`) and collapsed-stack flamegraph lines
//! ([`flamegraph`], inferno/`flamegraph.pl`-compatible) — plus the
//! structural validation both converters rest on ([`check`]).
//!
//! ## Reconstructing the forest
//!
//! Spans buffer their event when they *close*, so a trace file is a
//! post-order walk of the span forest: children precede their parents,
//! and each event's `path` names its ancestor chain. [`build_forest`]
//! inverts that walk: completed subtrees wait in a pending map keyed by
//! their parent's path, and each closing event claims everything pending
//! under its own path as its children (in completion order).
//!
//! ## Synthetic timelines
//!
//! Events deliberately carry durations but no start timestamps: absolute
//! tick values depend on which pool thread ran which job, durations do
//! not (see [`crate::trace`]). The Chrome exporter therefore
//! *synthesizes* a deterministic timeline: root spans are laid end to
//! end in stream order across a fixed number of virtual lanes (greedy
//! earliest-available lane), and children are packed back to back inside
//! their parent's window. Under the tick clock a parent's duration
//! always covers the sum of its children's durations — every child tick
//! elapsed inside the parent's bracket — which [`check`] verifies, so
//! packed children never overflow their parent's slice. The result is a
//! faithful deterministic *re-scheduling* of the trace for
//! visualization: byte-identical for a given trace file, no matter how
//! many worker threads originally produced it.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::profile::Profile;

/// One parsed trace line, with its 1-based source line for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportEvent {
    /// Span name (the `span` member).
    pub name: String,
    /// `/`-joined ancestor chain ending in `name`; defaults to `name`
    /// for pathless events from older traces.
    pub path: String,
    /// Duration in `unit` units.
    pub dur: u64,
    /// Duration unit declared by the line (`"ticks"` or `"us"`).
    pub unit: String,
    /// Call-site fields in declaration order (everything besides
    /// `span`/`path`/`dur`/`unit`).
    pub fields: Vec<(String, String)>,
    /// 1-based line number in the source file.
    pub line: usize,
}

/// One reconstructed span with its children in completion order.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The span's closing event.
    pub event: ExportEvent,
    /// Direct children, in the order they completed.
    pub children: Vec<SpanTree>,
}

/// Parses a JSONL trace into events. Empty lines are skipped; a
/// malformed line, a missing `span`/`dur` member, a `path` that does not
/// end in the span's own name, or a unit change mid-file is an error
/// naming the offending line.
pub fn parse_events(text: &str) -> Result<Vec<ExportEvent>, String> {
    let mut events = Vec::new();
    let mut unit_seen: Option<(String, usize)> = None;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("line {lineno}: not JSON: {e}"))?;
        let name = json
            .get("span")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing span member"))?
            .to_owned();
        let dur = json
            .get("dur")
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("line {lineno}: missing dur member"))? as u64;
        let path = json.get("path").and_then(Json::as_str).unwrap_or(name.as_str()).to_owned();
        if path.rsplit('/').next() != Some(name.as_str()) {
            return Err(format!(
                "line {lineno}: path `{path}` does not end in its span name `{name}`"
            ));
        }
        let unit = json.get("unit").and_then(Json::as_str).unwrap_or("ticks").to_owned();
        match &unit_seen {
            None => unit_seen = Some((unit.clone(), lineno)),
            Some((first, first_line)) if *first != unit => {
                return Err(format!(
                    "line {lineno}: unit `{unit}` differs from `{first}` on line \
                     {first_line} — a trace must use one clock"
                ));
            }
            Some(_) => {}
        }
        let mut fields = Vec::new();
        for (key, value) in json.as_obj().unwrap_or(&[]) {
            if matches!(key.as_str(), "span" | "path" | "dur" | "unit") {
                continue;
            }
            let rendered = match value {
                Json::Str(s) => s.clone(),
                other => other.compact(),
            };
            fields.push((key.clone(), rendered));
        }
        events.push(ExportEvent { name, path, dur, unit, fields, line: lineno });
    }
    Ok(events)
}

/// Rebuilds the span forest from a post-order event stream, enforcing
/// the two invariants the exporters rest on:
///
/// * **balanced** — every non-root event is eventually claimed by an
///   enclosing parent event later in the stream;
/// * **monotone nesting** — a parent's duration covers the sum of its
///   direct children's durations (guaranteed by the tick clock, since
///   every child tick elapsed inside the parent's bracket).
///
/// Violations are errors naming the first offending line.
pub fn build_forest(events: Vec<ExportEvent>) -> Result<Vec<SpanTree>, String> {
    let mut pending: BTreeMap<String, Vec<SpanTree>> = BTreeMap::new();
    let mut forest = Vec::new();
    for event in events {
        let children = pending.remove(&event.path).unwrap_or_default();
        let child_sum: u64 = children.iter().map(|c| c.event.dur).sum();
        if child_sum > event.dur {
            return Err(format!(
                "line {}: children of `{}` sum to {} but the span lasted only {} — \
                 span durations are not properly nested",
                event.line, event.name, child_sum, event.dur
            ));
        }
        let tree = SpanTree { children, event };
        match tree.event.path.rfind('/') {
            None => forest.push(tree),
            Some(cut) => {
                let parent = tree.event.path[..cut].to_owned();
                pending.entry(parent).or_default().push(tree);
            }
        }
    }
    if let Some(orphan) = pending.values().flatten().min_by_key(|t| t.event.line) {
        let path = &orphan.event.path;
        let parent = &path[..path.rfind('/').unwrap_or(0)];
        return Err(format!(
            "line {}: span `{}` (path `{}`) closed but its enclosing `{}` span never \
             did — span stack is unbalanced",
            orphan.event.line, orphan.event.name, path, parent
        ));
    }
    Ok(forest)
}

/// What [`check`] learned about a structurally valid trace.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Total events in the file.
    pub events: u64,
    /// Top-level spans after forest reconstruction.
    pub roots: u64,
    /// Deepest nesting level (1 = roots only; 0 for an empty trace).
    pub max_depth: usize,
    /// The single duration unit the file declared (`"ticks"` unless the
    /// trace was recorded under `--wallclock`).
    pub unit: String,
    /// Per-span-name `(count, total duration)` census.
    pub census: BTreeMap<String, (u64, u64)>,
}

/// Validates a trace file end to end: every line parses, paths end in
/// their span names, the unit is consistent, and the span stack is
/// balanced with monotone nested durations (see [`build_forest`]). The
/// first violation is an error naming its line.
pub fn check(text: &str) -> Result<TraceReport, String> {
    let events = parse_events(text)?;
    let mut report = TraceReport { unit: "ticks".to_owned(), ..TraceReport::default() };
    for event in &events {
        report.events += 1;
        report.unit = event.unit.clone();
        let entry = report.census.entry(event.name.clone()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += event.dur;
    }
    let forest = build_forest(events)?;
    report.roots = forest.len() as u64;
    fn depth(tree: &SpanTree) -> usize {
        1 + tree.children.iter().map(depth).max().unwrap_or(0)
    }
    report.max_depth = forest.iter().map(depth).max().unwrap_or(0);
    Ok(report)
}

/// Converts a JSONL trace into Chrome Trace Event Format, ready for
/// Perfetto or `chrome://tracing`. `lanes` is the number of virtual
/// worker lanes root spans are greedily scheduled across (1 keeps the
/// whole trace on a single timeline); each span becomes one complete
/// (`"ph":"X"`) event whose `ts`/`dur` are the trace's own units
/// presented as microseconds. Deterministic: the same trace text always
/// yields the same bytes.
pub fn chrome_trace(text: &str, lanes: usize) -> Result<String, String> {
    let events = parse_events(text)?;
    let total = events.len();
    let unit = events.first().map(|e| e.unit.clone()).unwrap_or_else(|| "ticks".to_owned());
    let forest = build_forest(events)?;
    let lanes = lanes.max(1);
    let mut trace_events: Vec<Json> = Vec::with_capacity(total + lanes + 1);
    trace_events.push(Json::obj([
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("name", Json::Str("process_name".into())),
        ("args", Json::obj([("name", Json::Str("yinyang trace".into()))])),
    ]));
    for lane in 0..lanes {
        trace_events.push(Json::obj([
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(lane as i64 + 1)),
            ("name", Json::Str("thread_name".into())),
            ("args", Json::obj([("name", Json::Str(format!("lane {}", lane + 1)))])),
        ]));
    }
    fn emit(tree: &SpanTree, ts: u64, tid: i64, out: &mut Vec<Json>) {
        let mut args = vec![("path".to_owned(), Json::Str(tree.event.path.clone()))];
        for (k, v) in &tree.event.fields {
            args.push((k.clone(), Json::Str(v.clone())));
        }
        out.push(Json::obj([
            ("name", Json::Str(tree.event.name.clone())),
            ("cat", Json::Str("span".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Int(ts as i64)),
            ("dur", Json::Int(tree.event.dur as i64)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid)),
            ("args", Json::Obj(args)),
        ]));
        let mut at = ts;
        for child in &tree.children {
            emit(child, at, tid, out);
            at += child.event.dur;
        }
    }
    // Greedy earliest-available-lane scheduling of root spans, in stream
    // order; ties break toward the lowest lane index, so layout is a
    // pure function of the trace text.
    let mut lane_end = vec![0u64; lanes];
    for tree in &forest {
        let lane = (0..lanes).min_by_key(|&i| (lane_end[i], i)).expect("lanes >= 1");
        emit(tree, lane_end[lane], lane as i64 + 1, &mut trace_events);
        lane_end[lane] += tree.event.dur;
    }
    let doc = Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            Json::obj([
                ("events", Json::Int(total as i64)),
                ("unit", Json::Str(unit)),
                ("lanes", Json::Int(lanes as i64)),
            ]),
        ),
        ("traceEvents", Json::Arr(trace_events)),
    ]);
    Ok(doc.pretty() + "\n")
}

/// Converts a JSONL trace into collapsed-stack flamegraph lines
/// (`root;child;leaf weight`), weighted by *exclusive* time — the
/// span-tree fold [`crate::profile`] already computes. Frames with zero
/// exclusive time are omitted (their time is fully attributed to
/// descendants). Output is sorted by stack (the profile's BTreeMap
/// order), so identical traces produce identical bytes.
pub fn flamegraph(text: &str) -> Result<String, String> {
    let profile = Profile::from_jsonl(text)?;
    let mut out = String::new();
    fn walk(out: &mut String, prefix: &str, name: &str, node: &crate::profile::ProfileNode) {
        use std::fmt::Write as _;
        let frame = if prefix.is_empty() { name.to_owned() } else { format!("{prefix};{name}") };
        if node.exclusive > 0 {
            let _ = writeln!(out, "{frame} {}", node.exclusive);
        }
        for (child_name, child) in &node.children {
            walk(out, &frame, child_name, child);
        }
    }
    for (name, node) in &profile.roots {
        walk(&mut out, "", name, node);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(span: &str, path: &str, dur: u64) -> String {
        format!(r#"{{"span":"{span}","path":"{path}","dur":{dur},"unit":"ticks"}}"#)
    }

    fn sample_trace() -> String {
        [
            line("fusion", "fusion", 7),
            line("strings.search", "solve/strings.search", 30),
            line("strings.search", "solve/strings.search", 10),
            line("solve", "solve", 100),
            line("oracle", "oracle", 3),
            line("strings.search", "solve/strings.search", 5),
            line("solve", "solve", 60),
        ]
        .join("\n")
            + "\n"
    }

    #[test]
    fn forest_claims_children_per_parent_instance() {
        let events = parse_events(&sample_trace()).unwrap();
        let forest = build_forest(events).unwrap();
        let names: Vec<&str> = forest.iter().map(|t| t.event.name.as_str()).collect();
        assert_eq!(names, ["fusion", "solve", "oracle", "solve"]);
        assert_eq!(forest[1].children.len(), 2, "first solve claims the two earlier searches");
        assert_eq!(forest[3].children.len(), 1, "second solve claims only its own child");
    }

    #[test]
    fn check_reports_census_and_shape() {
        let report = check(&sample_trace()).unwrap();
        assert_eq!(report.events, 7);
        assert_eq!(report.roots, 4);
        assert_eq!(report.max_depth, 2);
        assert_eq!(report.unit, "ticks");
        assert_eq!(report.census["solve"], (2, 160));
        assert_eq!(report.census["strings.search"], (3, 45));
    }

    #[test]
    fn unbalanced_stream_names_the_orphan_line() {
        // A child whose parent never closes: the exporters' balanced
        // begin/end invariant, violated.
        let text = [line("fusion", "fusion", 7), line("inner", "solve/inner", 3)].join("\n");
        let err = check(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unbalanced"), "{err}");
        assert!(chrome_trace(&text, 1).is_err());
        assert!(flamegraph(&text).is_err());
    }

    #[test]
    fn overrunning_children_name_the_parent_line() {
        // Children summing past their parent cannot come from the tick
        // clock; the monotone-nesting invariant rejects the stream.
        let text = [
            line("inner", "solve/inner", 80),
            line("inner", "solve/inner", 30),
            line("solve", "solve", 100),
        ]
        .join("\n");
        let err = check(&text).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("110"), "{err}");
        assert!(err.contains("100"), "{err}");
    }

    #[test]
    fn mixed_units_are_rejected() {
        let text = [line("a", "a", 1), r#"{"span":"b","path":"b","dur":2,"unit":"us"}"#.to_owned()]
            .join("\n");
        let err = check(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("one clock"), "{err}");
    }

    #[test]
    fn path_must_end_in_span_name() {
        let text = r#"{"span":"solve","path":"solve/other","dur":1,"unit":"ticks"}"#;
        let err = check(text).unwrap_err();
        assert!(err.contains("does not end in its span name"), "{err}");
    }

    #[test]
    fn chrome_trace_packs_children_inside_parents() {
        let out = chrome_trace(&sample_trace(), 1).unwrap();
        let doc = Json::parse(&out).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // 1 process metadata + 1 lane metadata + 7 spans.
        assert_eq!(events.len(), 9);
        let spans: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 7);
        // On one lane, roots are laid end to end in stream order:
        // fusion [0,7), solve#1 [7,107), oracle [107,110), solve#2 [110,170).
        let ts = |j: &Json| j.get("ts").and_then(Json::as_i64).unwrap();
        let dur = |j: &Json| j.get("dur").and_then(Json::as_i64).unwrap();
        let by_name = |n: &str| -> Vec<&&Json> {
            spans.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some(n)).collect()
        };
        let solves = by_name("solve");
        assert_eq!((ts(solves[0]), dur(solves[0])), (7, 100));
        assert_eq!((ts(solves[1]), dur(solves[1])), (110, 60));
        // Children of solve#1 pack from its start: [7,37) and [37,47).
        let searches = by_name("strings.search");
        assert_eq!((ts(searches[0]), dur(searches[0])), (7, 30));
        assert_eq!((ts(searches[1]), dur(searches[1])), (37, 10));
        // Every child fits inside its parent's window.
        assert!(ts(searches[1]) + dur(searches[1]) <= ts(solves[0]) + dur(solves[0]));
    }

    #[test]
    fn chrome_trace_spreads_roots_across_lanes() {
        let out = chrome_trace(&sample_trace(), 2).unwrap();
        let doc = Json::parse(&out).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let tids: std::collections::BTreeSet<i64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| e.get("tid").and_then(Json::as_i64).unwrap())
            .collect();
        assert_eq!(tids, [1i64, 2].into_iter().collect());
        // Greedy earliest-lane: fusion(7)→lane1, solve(100)→lane2,
        // oracle(3)→lane1 (ends at 10), solve(60)→lane1.
        let lane1_total: i64 = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("tid").and_then(Json::as_i64) == Some(1)
                    && e.get("args").and_then(|a| a.get("path")).and_then(Json::as_str)
                        != Some("solve/strings.search")
            })
            .map(|e| e.get("dur").and_then(Json::as_i64).unwrap())
            .sum();
        assert_eq!(lane1_total, 7 + 3 + 60);
    }

    #[test]
    fn chrome_trace_carries_fields_as_args() {
        let text = r#"{"span":"solve","path":"solve","dur":9,"unit":"ticks","benchmark":"QF_S"}"#;
        let out = chrome_trace(text, 1).unwrap();
        let doc = Json::parse(&out).unwrap();
        let span = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap()
            .clone();
        let args = span.get("args").unwrap();
        assert_eq!(args.get("benchmark").and_then(Json::as_str), Some("QF_S"));
        assert_eq!(args.get("path").and_then(Json::as_str), Some("solve"));
    }

    #[test]
    fn flamegraph_weights_frames_by_exclusive_time() {
        let folded = flamegraph(&sample_trace()).unwrap();
        let lines: Vec<&str> = folded.lines().collect();
        // Profile folds both solves into one node: inclusive 160,
        // children 45 ⇒ exclusive 115.
        assert!(lines.contains(&"solve 115"), "{folded}");
        assert!(lines.contains(&"solve;strings.search 45"), "{folded}");
        assert!(lines.contains(&"fusion 7"), "{folded}");
        assert!(lines.contains(&"oracle 3"), "{folded}");
        // BTreeMap order: fusion before oracle before solve.
        assert!(folded.find("fusion").unwrap() < folded.find("oracle").unwrap());
    }

    #[test]
    fn exporters_are_deterministic_across_reruns() {
        let text = sample_trace();
        assert_eq!(chrome_trace(&text, 4).unwrap(), chrome_trace(&text, 4).unwrap());
        assert_eq!(flamegraph(&text).unwrap(), flamegraph(&text).unwrap());
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let report = check("").unwrap();
        assert_eq!(report.events, 0);
        assert_eq!(report.max_depth, 0);
        assert_eq!(flamegraph("").unwrap(), "");
        let doc = Json::parse(&chrome_trace("", 1).unwrap()).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
