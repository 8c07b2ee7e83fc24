//! Live observability: a minimal HTTP/1.1 status server over
//! [`std::net::TcpListener`], the Prometheus text renderer it serves,
//! and the process-global [`CampaignProgress`] state the campaign driver
//! feeds at job-merge points.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text exposition rendered live from
//!   [`crate::metrics::snapshot`]: counters and gauges as-is, every
//!   32-bucket histogram as a cumulative `_bucket{le="..."}` series
//!   (base-2 bounds from [`crate::metrics::bucket_upper`], last bucket
//!   `+Inf`) plus `_sum` and `_count`.
//! * `GET /status` — JSON campaign progress: phase, jobs done/total,
//!   wall-clock throughput, and per-persona round/tests/findings
//!   breakdown.
//! * `GET /healthz` — liveness probe, `ok`.
//!
//! ## Off the determinism path
//!
//! The server is strictly read-only: it renders snapshots of state the
//! campaign already maintains and records nothing back — no counters, no
//! spans, no RNG draws. Reports, `--trace` files, and stdout are
//! byte-identical with and without a server attached, at any thread
//! count. The flip side: what the server *serves* is allowed to be
//! wall-clock-dependent (throughput), because none of it is ever
//! byte-compared. See DESIGN §8.
//!
//! The accept loop is bounded by construction — one request at a time,
//! handled inline on the server's own thread with read/write timeouts
//! and hard caps on request-line and header sizes — which is all a
//! low-frequency scrape endpoint needs and keeps the surface auditable.
//! Hostile input gets a 4xx (414 for an oversized request line, 431 for
//! runaway headers, 400 for a blank request line) or a clean drop (a
//! client that connects and closes without writing); none of it wedges
//! the accept loop. [`StatusServer::shutdown`] (or drop) stops it
//! promptly: the accept loop re-checks a stop flag after every
//! connection, and shutdown wakes it with a loopback connection.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{self, bucket_upper, Histogram, MetricsSnapshot, BUCKETS};

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// The version stamped into the `yinyang_build_info` gauge.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Maps a metric name onto the Prometheus charset: every character
/// outside `[a-zA-Z0-9_:]` becomes `_` (so `span.solve` → `span_solve`),
/// and a leading digit is prefixed with `_`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for c in name.chars() {
        let c = if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' };
        if out.is_empty() && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Writes the `# HELP` / `# TYPE` metadata pair for one metric.
fn write_meta(out: &mut String, name: &str, kind: &str, help: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes the fixed exposition header: the `yinyang_up` liveness marker
/// (so scrapes of a freshly started process are non-empty) and the
/// constant `yinyang_build_info` version gauge.
fn write_header(out: &mut String) {
    use std::fmt::Write as _;
    write_meta(out, "yinyang_up", "gauge", "1 while the process is up and serving.");
    let _ = writeln!(out, "yinyang_up 1");
    write_meta(
        out,
        "yinyang_build_info",
        "gauge",
        "Constant 1; the version label identifies the build.",
    );
    let _ = writeln!(out, "yinyang_build_info{{version=\"{BUILD_VERSION}\"}} 1");
}

/// Writes one histogram as a cumulative `_bucket{le="..."}` series plus
/// `_sum`/`_count`.
fn write_histogram_series(out: &mut String, name: &str, h: &Histogram) {
    use std::fmt::Write as _;
    let mut cumulative = 0u64;
    for (i, count) in h.bucket_counts().iter().enumerate() {
        cumulative += count;
        let le = if i == BUCKETS - 1 { "+Inf".to_owned() } else { bucket_upper(i).to_string() };
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Renders a [`MetricsSnapshot`] in the Prometheus text exposition
/// format (version 0.0.4): counters and gauges one sample each,
/// histograms as a cumulative `_bucket{le="..."}` series over the fixed
/// base-2 bounds plus `_sum`/`_count`, every metric preceded by
/// `# HELP`/`# TYPE` metadata. Iteration order is the snapshot's own
/// (sorted), so equal snapshots render identical bytes.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    write_header(&mut out);
    for (name, value) in &snapshot.counters {
        let prom = sanitize_metric_name(name);
        write_meta(&mut out, &prom, "counter", &format!("Registry counter `{name}`."));
        let _ = writeln!(out, "{prom} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let prom = sanitize_metric_name(name);
        write_meta(&mut out, &prom, "gauge", &format!("Registry gauge `{name}`."));
        let _ = writeln!(out, "{prom} {value}");
    }
    for (name, histogram) in &snapshot.histograms {
        let prom = sanitize_metric_name(name);
        write_meta(&mut out, &prom, "histogram", &format!("Registry histogram `{name}`."));
        write_histogram_series(&mut out, &prom, histogram);
    }
    out
}

// ---------------------------------------------------------------------------
// Campaign progress
// ---------------------------------------------------------------------------

/// One persona's progress, as of the last round merge.
#[derive(Debug, Clone, Default)]
pub struct PersonaProgress {
    /// Rounds fully merged so far.
    pub round: usize,
    /// Configured round count.
    pub rounds: usize,
    /// Tests executed (cumulative).
    pub tests: u64,
    /// `unknown` answers observed (cumulative).
    pub unknowns: u64,
    /// Findings so far, keyed by behavior class.
    pub findings: BTreeMap<String, u64>,
}

#[derive(Default)]
struct ProgressInner {
    phase: String,
    started: Option<Instant>,
    personas: BTreeMap<String, PersonaProgress>,
}

/// Shared campaign progress, written by the driver at job-merge points
/// and read (only) by the status server's `/status` endpoint. Lives as a
/// process global — mirroring the metrics registry — so the driver needs
/// no plumbing through `CampaignConfig` and the updates cost one atomic
/// increment per job plus one mutex write per round.
#[derive(Default)]
pub struct CampaignProgress {
    jobs_done: AtomicU64,
    jobs_total: AtomicU64,
    inner: Mutex<ProgressInner>,
}

/// The process-wide [`CampaignProgress`] instance.
pub fn progress() -> &'static CampaignProgress {
    static PROGRESS: OnceLock<CampaignProgress> = OnceLock::new();
    PROGRESS.get_or_init(CampaignProgress::default)
}

impl CampaignProgress {
    /// Resets all state and stamps the start time; the CLI calls this
    /// once per command (`"fuzz"` / `"regress"`).
    pub fn begin(&self, phase: &str) {
        self.jobs_done.store(0, Ordering::SeqCst);
        self.jobs_total.store(0, Ordering::SeqCst);
        let mut inner = self.inner.lock().expect("progress lock");
        *inner = ProgressInner {
            phase: phase.to_owned(),
            started: Some(Instant::now()),
            ..ProgressInner::default()
        };
    }

    /// Announces `n` newly dispatched jobs (the driver calls this per
    /// round, before the pool runs).
    pub fn add_jobs(&self, n: u64) {
        self.jobs_total.fetch_add(n, Ordering::Relaxed);
    }

    /// Marks one job finished. Called from pool workers; a single relaxed
    /// atomic increment, deliberately free of locks, metrics, and spans.
    pub fn job_done(&self) {
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Current `(done, total)` job counts.
    pub fn jobs(&self) -> (u64, u64) {
        (self.jobs_done.load(Ordering::Relaxed), self.jobs_total.load(Ordering::Relaxed))
    }

    /// Replaces one persona's progress (the driver calls this at each
    /// round merge, where the counts are already scheduling-independent).
    pub fn update_persona(&self, name: &str, persona: PersonaProgress) {
        self.inner.lock().expect("progress lock").personas.insert(name.to_owned(), persona);
    }

    /// Renders the `/status` document. Wall-clock throughput is fine
    /// here: `/status` is never byte-compared.
    pub fn status_json(&self) -> Json {
        let (done, total) = self.jobs();
        let inner = self.inner.lock().expect("progress lock");
        let elapsed = inner.started.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
        let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
        let round3 = |x: f64| Json::Float((x * 1000.0).round() / 1000.0);
        let personas = inner
            .personas
            .iter()
            .map(|(name, p)| {
                (
                    name.clone(),
                    Json::obj([
                        ("round", Json::Int(p.round as i64)),
                        ("rounds", Json::Int(p.rounds as i64)),
                        ("tests", Json::Int(p.tests as i64)),
                        ("unknowns", Json::Int(p.unknowns as i64)),
                        (
                            "findings",
                            Json::Obj(
                                p.findings
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect();
        Json::obj([
            ("phase", Json::Str(inner.phase.clone())),
            ("elapsed_secs", round3(elapsed)),
            (
                "jobs",
                Json::obj([("done", Json::Int(done as i64)), ("total", Json::Int(total as i64))]),
            ),
            ("tests_per_sec", round3(rate)),
            ("personas", Json::Obj(personas)),
        ])
    }
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest request line accepted before the server answers 414.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest single header line accepted before the server answers 431.
const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most header lines accepted before the server answers 431.
const MAX_HEADERS: usize = 128;

/// Handle to a running status server. Dropping it (or calling
/// [`StatusServer::shutdown`]) stops the accept loop and joins the
/// server thread.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving the built-in campaign endpoints on a dedicated
    /// thread.
    pub fn start(addr: &str) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle =
            std::thread::Builder::new().name("yinyang-status".to_owned()).spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = handle_client(stream);
                    }
                }
            })?;
        Ok(StatusServer { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves the port when started on `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads one CRLF/LF-terminated line of at most `limit` bytes, without
/// the terminator. `Ok(None)` means the line ran past the limit (the
/// rest of the line is discarded, bounded, so the 4xx response isn't
/// reset away by unread input at close); `Ok(Some(""))` covers both a
/// blank line and a clean EOF (the caller distinguishes by position:
/// EOF before any request bytes is a client that connected and closed,
/// which gets a silent drop).
fn read_line_limited(reader: &mut impl BufRead, limit: usize) -> std::io::Result<Option<String>> {
    const OVERFLOW_DRAIN: usize = 1 << 20;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte)? {
            0 => break,
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > limit {
                    let mut drained = 0usize;
                    while drained < OVERFLOW_DRAIN {
                        match reader.read(&mut byte) {
                            Ok(0) | Err(_) => break,
                            Ok(_) if byte[0] == b'\n' => break,
                            Ok(_) => drained += 1,
                        }
                    }
                    return Ok(None);
                }
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

/// Consumes buffered request lines up to the blank separator (bounded),
/// so an error response written right before close isn't clobbered by a
/// TCP reset over unread input.
fn drain_request(reader: &mut impl BufRead) {
    for _ in 0..MAX_HEADERS {
        match read_line_limited(reader, MAX_HEADER_LINE) {
            Ok(Some(line)) if !line.is_empty() => {}
            _ => break,
        }
    }
}

fn handle_client(stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let request_line = match read_line_limited(&mut reader, MAX_REQUEST_LINE)? {
        None => {
            drain_request(&mut reader);
            return write_response(
                reader.into_inner(),
                "414 URI Too Long",
                "text/plain; charset=utf-8",
                "request line too long\n",
            );
        }
        Some(line) => line,
    };
    if request_line.is_empty() {
        // Connected and closed (or sent a bare newline) without a
        // request: nothing to answer, drop cleanly.
        return Ok(());
    }
    let mut headers_done = false;
    for _ in 0..MAX_HEADERS {
        match read_line_limited(&mut reader, MAX_HEADER_LINE)? {
            None => break,
            Some(header) if header.is_empty() => {
                headers_done = true;
                break;
            }
            Some(_) => {}
        }
    }
    if !headers_done {
        drain_request(&mut reader);
        return write_response(
            reader.into_inner(),
            "431 Request Header Fields Too Large",
            "text/plain; charset=utf-8",
            "too many or too large headers\n",
        );
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method.is_empty() {
        return write_response(
            reader.into_inner(),
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "malformed request line\n",
        );
    }
    let (status, content_type, body) = respond(method, target);
    write_response(reader.into_inner(), status, content_type, &body)
}

fn write_response(
    mut stream: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn respond(method: &str, target: &str) -> (&'static str, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    if method != "GET" {
        return ("405 Method Not Allowed", TEXT, "only GET is supported\n".to_owned());
    }
    match target {
        "/healthz" => ("200 OK", TEXT, "ok\n".to_owned()),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_prometheus(&metrics::snapshot()),
        ),
        "/status" => {
            ("200 OK", "application/json; charset=utf-8", progress().status_json().pretty() + "\n")
        }
        _ => ("404 Not Found", TEXT, "not found; try /metrics /status /healthz\n".to_owned()),
    }
}

/// A plain-`TcpStream` HTTP/1.1 GET (the `yinyang fetch` subcommand and
/// the CI smoke gate use this instead of curl), returning the status code
/// and body. Makes up to `attempts` connects, sleeping `backoff` between
/// them, and retries *only* connection-refused (the port isn't listening
/// yet — the one transient failure a just-spawned server produces). Any
/// other error, and any failure after a connect succeeds, is returned
/// immediately.
pub fn http_get_retry(
    addr: &str,
    path: &str,
    attempts: u32,
    backoff: Duration,
) -> Result<(u16, String), String> {
    let attempts = attempts.max(1);
    let mut last = String::new();
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return http_get_on(stream, addr, path),
            Err(e) => {
                last = format!("cannot connect to {addr}: {e}");
                if e.kind() != std::io::ErrorKind::ConnectionRefused || attempt + 1 == attempts {
                    return Err(last);
                }
                std::thread::sleep(backoff);
            }
        }
    }
    Err(last)
}

fn http_get_on(mut stream: TcpStream, addr: &str, path: &str) -> Result<(u16, String), String> {
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("cannot read response from {addr}: {e}"))?;
    let status_line = response.lines().next().unwrap_or("");
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("malformed status line from {addr}: `{status_line}`"))?;
    let body = match response.find("\r\n\r\n") {
        Some(at) => response[at + 4..].to_owned(),
        None => String::new(),
    };
    Ok((code, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn metric_names_sanitize_onto_the_prometheus_charset() {
        assert_eq!(sanitize_metric_name("span.solve"), "span_solve");
        assert_eq!(sanitize_metric_name("span.regress.solve"), "span_regress_solve");
        assert_eq!(sanitize_metric_name("already_fine:total"), "already_fine:total");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
    }

    #[test]
    fn counters_and_gauges_render_with_type_lines() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("fusion.attempts".into(), 42);
        snap.gauges.insert("coverage.lines".into(), -3);
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE fusion_attempts counter\nfusion_attempts 42\n"), "{text}");
        assert!(text.contains("# TYPE coverage_lines gauge\ncoverage_lines -3\n"), "{text}");
    }

    #[test]
    fn every_type_line_is_preceded_by_a_help_line() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("fusion.attempts".into(), 42);
        snap.gauges.insert("coverage.lines".into(), -3);
        snap.histograms.insert("span.solve".into(), Histogram::new());
        let text = render_prometheus(&snap);
        let lines: Vec<&str> = text.lines().collect();
        let mut type_lines = 0;
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                type_lines += 1;
                let name = rest.split_whitespace().next().unwrap();
                assert!(i > 0, "{line}");
                assert!(
                    lines[i - 1].starts_with(&format!("# HELP {name} ")),
                    "TYPE without preceding HELP: {line} (before: {})",
                    lines[i - 1]
                );
            }
        }
        // up + build_info + the three registry metrics.
        assert_eq!(type_lines, 5, "{text}");
        // The HELP text keeps the original dotted name visible.
        assert!(text.contains("# HELP span_solve Registry histogram `span.solve`."), "{text}");
    }

    #[test]
    fn build_info_carries_the_crate_version() {
        let text = render_prometheus(&MetricsSnapshot::default());
        assert!(text.contains("# TYPE yinyang_build_info gauge\n"), "{text}");
        assert!(
            text.contains(&format!(
                "yinyang_build_info{{version=\"{}\"}} 1\n",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 5000] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::default();
        snap.histograms.insert("span.solve".into(), h);
        let text = render_prometheus(&snap);
        assert!(text.contains("# TYPE span_solve histogram"), "{text}");
        // Parse the bucket series back and verify the contract: counts
        // never decrease, and the +Inf bucket equals _count.
        let mut last = 0u64;
        let mut buckets = 0usize;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("span_solve_bucket{le=\"") {
                let (le, count) = rest.split_once("\"} ").unwrap();
                let count: u64 = count.parse().unwrap();
                assert!(count >= last, "bucket series must be cumulative: {line}");
                last = count;
                buckets += 1;
                if le == "+Inf" {
                    inf = Some(count);
                }
            }
        }
        assert_eq!(buckets, BUCKETS, "all 32 buckets render");
        assert_eq!(inf, Some(6), "+Inf bucket holds every sample");
        // Spot-check a bound: values {0} ≤ 0, {0,1} ≤ 1, {0,1,2,3} ≤ 3.
        assert!(text.contains("span_solve_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("span_solve_bucket{le=\"1\"} 2\n"), "{text}");
        assert!(text.contains("span_solve_bucket{le=\"3\"} 4\n"), "{text}");
    }

    #[test]
    fn sum_and_count_match_the_histogram_summary() {
        let mut h = Histogram::new();
        for v in [7u64, 19, 300, 4444] {
            h.record(v);
        }
        let summary = h.summary();
        let mut snap = MetricsSnapshot::default();
        snap.histograms.insert("span.solve".into(), h);
        let text = render_prometheus(&snap);
        assert!(text.contains(&format!("span_solve_sum {}\n", summary.sum)), "{text}");
        assert!(text.contains(&format!("span_solve_count {}\n", summary.count)), "{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("b".into(), 2);
        snap.counters.insert("a".into(), 1);
        let text = render_prometheus(&snap);
        assert_eq!(text, render_prometheus(&snap.clone()));
        assert!(text.find("# TYPE a counter").unwrap() < text.find("# TYPE b counter").unwrap());
    }

    #[test]
    fn progress_tracks_jobs_and_personas() {
        let p = CampaignProgress::default();
        p.begin("fuzz");
        p.add_jobs(10);
        for _ in 0..4 {
            p.job_done();
        }
        assert_eq!(p.jobs(), (4, 10));
        let mut persona = PersonaProgress { round: 1, rounds: 3, tests: 9, ..Default::default() };
        persona.findings.insert("crash".into(), 2);
        p.update_persona("zirkon", persona);
        let status = p.status_json();
        assert_eq!(status.get("phase").and_then(Json::as_str), Some("fuzz"));
        let jobs = status.get("jobs").unwrap();
        assert_eq!(jobs.get("done").and_then(Json::as_i64), Some(4));
        assert_eq!(jobs.get("total").and_then(Json::as_i64), Some(10));
        let zirkon = status.get("personas").and_then(|p| p.get("zirkon")).unwrap();
        assert_eq!(zirkon.get("tests").and_then(Json::as_i64), Some(9));
        assert_eq!(
            zirkon.get("findings").and_then(|f| f.get("crash")).and_then(Json::as_i64),
            Some(2)
        );
        // begin() resets everything.
        p.begin("regress");
        assert_eq!(p.jobs(), (0, 0));
        assert!(p
            .status_json()
            .get("personas")
            .and_then(Json::as_obj)
            .map(|o| o.is_empty())
            .unwrap_or(false));
    }

    #[test]
    fn server_serves_all_endpoints_and_shuts_down() {
        metrics::counter_add("test.serve.counter", 5);
        metrics::histogram_record("test.serve.hist", 17);
        let server = StatusServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();

        let (code, body) = http_get_retry(&addr, "/healthz", 1, Duration::ZERO).unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));

        let (code, body) = http_get_retry(&addr, "/metrics", 1, Duration::ZERO).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("test_serve_counter 5"), "{body}");
        assert!(body.contains("# TYPE test_serve_hist histogram"), "{body}");
        assert!(body.contains("test_serve_hist_bucket{le=\"+Inf\"}"), "{body}");

        let (code, body) = http_get_retry(&addr, "/status", 1, Duration::ZERO).unwrap();
        assert_eq!(code, 200);
        let status = Json::parse(&body).expect("status is JSON");
        assert!(status.get("jobs").is_some(), "{body}");

        let (code, _) = http_get_retry(&addr, "/nope", 1, Duration::ZERO).unwrap();
        assert_eq!(code, 404);

        server.shutdown();
        // The port is closed once shutdown returns; a fresh server can
        // bind an ephemeral port again immediately.
        let again = StatusServer::start("127.0.0.1:0").expect("rebind");
        again.shutdown();
    }

    /// Sends raw bytes and returns the status line (empty on EOF).
    fn raw_request(addr: &str, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        stream.write_all(bytes).expect("write");
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response.lines().next().unwrap_or("").to_owned()
    }

    #[test]
    fn hostile_requests_get_4xx_without_wedging_the_accept_loop() {
        let server = StatusServer::start("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().to_string();

        // Bad method.
        assert_eq!(
            raw_request(&addr, b"POST /metrics HTTP/1.1\r\n\r\n"),
            "HTTP/1.1 405 Method Not Allowed"
        );
        // Oversized request line.
        let mut huge = vec![b'A'; MAX_REQUEST_LINE + 100];
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(raw_request(&addr, &huge), "HTTP/1.1 414 URI Too Long");
        // Runaway headers.
        let mut many = b"GET /healthz HTTP/1.1\r\n".to_vec();
        for _ in 0..(MAX_HEADERS + 10) {
            many.extend_from_slice(b"X-Spam: 1\r\n");
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(raw_request(&addr, &many), "HTTP/1.1 431 Request Header Fields Too Large");
        // Blank request line (bare CRLF) is a 400-free clean drop...
        assert_eq!(raw_request(&addr, b"\r\n"), "");
        // ...while whitespace garbage without a method still errors.
        assert_eq!(raw_request(&addr, b"GET\r\n\r\n"), "HTTP/1.1 404 Not Found");
        // Connect-and-close without writing a byte: clean drop.
        drop(TcpStream::connect(&addr).expect("connect"));

        // After all of the above, the accept loop still answers.
        let (code, body) = http_get_retry(&addr, "/healthz", 1, Duration::ZERO).unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        server.shutdown();
    }

    #[test]
    fn http_get_retry_rides_out_connection_refused() {
        // Grab an ephemeral port, release it, and bind it back after a
        // delay: the first connects are refused, the retry succeeds.
        let probe = TcpListener::bind("127.0.0.1:0").expect("probe bind");
        let addr = probe.local_addr().unwrap().to_string();
        drop(probe);
        // Single attempt fails fast while nothing listens.
        assert!(http_get_retry(&addr, "/healthz", 1, Duration::ZERO).is_err());
        let bind_addr = addr.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            StatusServer::start(&bind_addr).expect("delayed bind")
        });
        let (code, body) =
            http_get_retry(&addr, "/healthz", 40, Duration::from_millis(50)).expect("retry");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        server.join().expect("join").shutdown();
    }
}
