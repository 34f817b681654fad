//! The service traffic driver: replays a scenario's traffic program
//! against a live `msccl serve` daemon over HTTP
//! (`msccl scenario drive`).
//!
//! The driver reuses the scenario's **exact seeded draw stream**
//! ([`crate::runner::draw_rep`]): the same algorithm mix, sizes,
//! tenants and input seeds the sim/runtime engines would run land on
//! the daemon as `GET /collective` requests, with the runtime engine's
//! chunk-sizing rule applied verbatim. That makes a drive report
//! directly comparable to a local `scenario run` of the same file —
//! and makes the CI smoke job's overload burst reproducible.
//!
//! The drive is **closed-loop**: `connections` client threads each hold
//! one keep-alive connection and issue the next pending op as soon as
//! the previous reply lands. Arrival gaps in the scenario are ignored —
//! the point of driving a daemon is to find its admission-control
//! response under pressure, so the driver applies as much of it as the
//! connection pool allows. Shed responses (HTTP 429/503) are first-class
//! outcomes, counted per tenant, never errors.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use msccl_metrics::json_escape;
use mscclang::{compile, CompileOptions};

use crate::format::{Scenario, ScenarioError};
use crate::runner::{draw_rep, MAX_CHUNK_ELEMS};

/// Knobs for [`drive_scenario`] that come from the command line.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Daemon address, `host:port` (no scheme).
    pub addr: String,
    /// Concurrent keep-alive client connections.
    pub connections: usize,
    /// Per-request deadline forwarded to the daemon, milliseconds
    /// (`None` leaves the daemon's default in force).
    pub deadline_ms: Option<u64>,
}

impl Default for DriveConfig {
    fn default() -> Self {
        Self {
            addr: String::from("127.0.0.1:8080"),
            connections: 4,
            deadline_ms: None,
        }
    }
}

/// Per-tenant outcome counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantDrive {
    /// Requests sent on behalf of this tenant.
    pub sent: usize,
    /// HTTP 200 replies.
    pub ok: usize,
    /// HTTP 429/503 structured sheds.
    pub shed: usize,
    /// Everything else (4xx/5xx, transport errors).
    pub failed: usize,
}

/// The aggregated result of one drive.
#[derive(Debug, Clone)]
pub struct DriveReport {
    /// Scenario name.
    pub name: String,
    /// Daemon address driven.
    pub addr: String,
    /// Requests issued (= scenario reps × ops).
    pub sent: usize,
    /// HTTP 200 replies.
    pub ok: usize,
    /// HTTP 429/503 structured sheds.
    pub shed: usize,
    /// Non-shed failures (other statuses, transport errors).
    pub failed: usize,
    /// 200 replies whose body reported a compile-cache hit.
    pub cache_hits: usize,
    /// Latency percentiles over *accepted* (200) requests, µs.
    pub p50_us: f64,
    /// See [`DriveReport::p50_us`].
    pub p99_us: f64,
    /// Mean accepted latency, µs.
    pub mean_us: f64,
    /// Wall-clock span of the whole drive, µs.
    pub wall_us: f64,
    /// Per-tenant outcomes, sorted by tenant name.
    pub tenants: Vec<(String, TenantDrive)>,
}

impl DriveReport {
    /// Human-readable rendering.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "drive {} -> {}: {} sent, {} ok, {} shed, {} failed in {:.1} ms",
            self.name,
            self.addr,
            self.sent,
            self.ok,
            self.shed,
            self.failed,
            self.wall_us / 1000.0
        );
        let _ = writeln!(
            out,
            "  accepted latency: p50 {:.1} us, p99 {:.1} us, mean {:.1} us; cache hits {}/{}",
            self.p50_us, self.p99_us, self.mean_us, self.cache_hits, self.ok
        );
        for (name, t) in &self.tenants {
            let _ = writeln!(
                out,
                "  tenant {:<12} sent {:>5}  ok {:>5}  shed {:>5}  failed {:>3}",
                name, t.sent, t.ok, t.shed, t.failed
            );
        }
        out
    }

    /// JSON rendering (`msccl-drive-v1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"msccl-drive-v1\",");
        let _ = writeln!(out, "  \"scenario\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(out, "  \"addr\": \"{}\",", json_escape(&self.addr));
        let _ = writeln!(out, "  \"sent\": {},", self.sent);
        let _ = writeln!(out, "  \"ok\": {},", self.ok);
        let _ = writeln!(out, "  \"shed\": {},", self.shed);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(out, "  \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(out, "  \"p50_us\": {:.3},", self.p50_us);
        let _ = writeln!(out, "  \"p99_us\": {:.3},", self.p99_us);
        let _ = writeln!(out, "  \"mean_us\": {:.3},", self.mean_us);
        let _ = writeln!(out, "  \"wall_us\": {:.3},", self.wall_us);
        out.push_str("  \"tenants\": {\n");
        for (i, (name, t)) in self.tenants.iter().enumerate() {
            let _ = write!(
                out,
                "    \"{}\": {{\"sent\": {}, \"ok\": {}, \"shed\": {}, \"failed\": {}}}",
                json_escape(name),
                t.sent,
                t.ok,
                t.shed,
                t.failed
            );
            out.push_str(if i + 1 < self.tenants.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// One planned request: the query string and its tenant label.
struct DriveOp {
    query: String,
    tenant: String,
}

/// The outcome of one request, as classified from the HTTP status.
enum Outcome {
    Ok { cache_hit: bool, us: f64 },
    Shed,
    Failed,
}

fn invalid(m: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(m.into())
}

/// Plans the full request schedule for `sc`: every repetition's op
/// draws, in stream order, rendered as `/collective` query strings.
///
/// Compiles each collective locally only to learn its input chunk
/// count, which fixes `elems` exactly as the runtime engine would
/// (`size / (in_chunks × 4)`, clamped to the engine's cap).
fn plan_ops(sc: &Scenario, cfg: &DriveConfig) -> Result<Vec<DriveOp>, ScenarioError> {
    let machine = msccl_topology::parse_machine(&sc.machine).map_err(invalid)?;
    let spec = AlgoSpec {
        ranks: Some(machine.num_ranks()),
        nodes: machine.num_nodes(),
        gpus: machine.gpus_per_node(),
        channels: sc.traffic.channels,
        chunks: sc.traffic.chunks,
        root: 0,
    };
    let mut in_chunks = Vec::with_capacity(sc.traffic.collectives.len());
    for name in &sc.traffic.collectives {
        let program =
            build_by_name(name, &spec).map_err(|e| invalid(format!("collective '{name}': {e}")))?;
        let ir = compile(&program, &CompileOptions::default())
            .map_err(|e| invalid(format!("collective '{name}': {e}")))?;
        in_chunks.push(ir.collective.in_chunks());
    }
    let mut ops = Vec::with_capacity(sc.repetitions * sc.traffic.ops);
    for rep in 0..sc.repetitions {
        let draw = draw_rep(sc, rep);
        for op in &draw.ops {
            let name = &sc.traffic.collectives[op.coll];
            let size = sc.traffic.sizes[op.size];
            let elems = (size as usize / (in_chunks[op.coll] * 4)).clamp(1, MAX_CHUNK_ELEMS);
            let tenant = if sc.traffic.tenants.is_empty() {
                String::from("default")
            } else {
                sc.traffic.tenants[(op.tenant_roll % sc.traffic.tenants.len() as u64) as usize]
                    .clone()
            };
            let mut query = format!(
                "algorithm={name}&ranks={}&nodes={}&gpus={}&channels={}&elems={elems}\
                 &tenant={tenant}&seed={}",
                machine.num_ranks(),
                machine.num_nodes(),
                machine.gpus_per_node(),
                sc.traffic.channels,
                op.input_seed,
            );
            if let Some(chunks) = sc.traffic.chunks {
                let _ = write!(query, "&chunks={chunks}");
            }
            if let Some(ms) = cfg.deadline_ms {
                let _ = write!(query, "&deadline-ms={ms}");
            }
            ops.push(DriveOp { query, tenant });
        }
    }
    Ok(ops)
}

/// Issues one request on `conn`, reconnecting once if the keep-alive
/// connection was closed under us. Returns the classified outcome.
fn issue(conn: &mut Option<TcpStream>, addr: &str, query: &str) -> Outcome {
    for attempt in 0..2 {
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(Duration::from_secs(120)));
                    *conn = Some(s);
                }
                Err(_) => return Outcome::Failed,
            }
        }
        let stream = conn.as_mut().expect("just connected");
        let started = Instant::now();
        let req = format!(
            "GET /collective?{query} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n\r\n"
        );
        if stream.write_all(req.as_bytes()).is_err() {
            *conn = None;
            if attempt == 0 {
                continue;
            }
            return Outcome::Failed;
        }
        match read_response(stream) {
            Ok((status, body)) => {
                let us = started.elapsed().as_secs_f64() * 1e6;
                return match status {
                    200 => Outcome::Ok {
                        cache_hit: body.contains("\"cache\": \"hit\""),
                        us,
                    },
                    429 | 503 => Outcome::Shed,
                    _ => Outcome::Failed,
                };
            }
            Err(_) => {
                // A clean close between requests is legal keep-alive
                // behaviour; retry once on a fresh connection.
                *conn = None;
                if attempt == 0 {
                    continue;
                }
                return Outcome::Failed;
            }
        }
    }
    Outcome::Failed
}

/// Reads one HTTP/1.1 response: status line, headers (honouring
/// `Content-Length`), body.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u32, String)> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status: u32 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status: {line}"),
            )
        })?;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some(v) = trimmed
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse().ok())
        {
            content_length = v;
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Drives `sc`'s traffic program against the daemon at `cfg.addr` and
/// aggregates the outcomes.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] when the scenario's machine or
/// collectives fail local validation, and [`ScenarioError::Engine`]
/// when the daemon is unreachable before the first request. Per-request
/// failures after that are counted, not raised — a drive's job is to
/// measure the daemon's behaviour, including its failures.
pub fn drive_scenario(sc: &Scenario, cfg: &DriveConfig) -> Result<DriveReport, ScenarioError> {
    let ops = plan_ops(sc, cfg)?;
    // Fail fast (and with a clear message) when nothing is listening.
    TcpStream::connect(&cfg.addr)
        .map_err(|e| ScenarioError::Engine(format!("cannot connect to {}: {e}", cfg.addr)))?;
    let next = AtomicUsize::new(0);
    let latencies = Mutex::new(Vec::new());
    let tallies: Mutex<BTreeMap<String, TenantDrive>> = Mutex::new(BTreeMap::new());
    let counts = Mutex::new((0usize, 0usize, 0usize, 0usize)); // ok, shed, failed, cache_hits
    let threads = cfg.connections.clamp(1, 64);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut conn: Option<TcpStream> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(op) = ops.get(i) else { break };
                    let outcome = issue(&mut conn, &cfg.addr, &op.query);
                    let mut tl = tallies.lock().expect("tally lock");
                    let t = tl.entry(op.tenant.clone()).or_default();
                    t.sent += 1;
                    let mut c = counts.lock().expect("count lock");
                    match outcome {
                        Outcome::Ok { cache_hit, us } => {
                            t.ok += 1;
                            c.0 += 1;
                            if cache_hit {
                                c.3 += 1;
                            }
                            latencies.lock().expect("latency lock").push(us);
                        }
                        Outcome::Shed => {
                            t.shed += 1;
                            c.1 += 1;
                        }
                        Outcome::Failed => {
                            t.failed += 1;
                            c.2 += 1;
                        }
                    }
                }
            });
        }
    });
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let mut lats = latencies.into_inner().expect("latency lock");
    lats.sort_by(f64::total_cmp);
    let (ok, shed, failed, cache_hits) = counts.into_inner().expect("count lock");
    let mean_us = if lats.is_empty() {
        0.0
    } else {
        lats.iter().sum::<f64>() / lats.len() as f64
    };
    Ok(DriveReport {
        name: sc.name.clone(),
        addr: cfg.addr.clone(),
        sent: ops.len(),
        ok,
        shed,
        failed,
        cache_hits,
        p50_us: pct(&lats, 50.0),
        p99_us: pct(&lats, 99.0),
        mean_us,
        wall_us,
        tenants: tallies
            .into_inner()
            .expect("tally lock")
            .into_iter()
            .collect(),
    })
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn scenario(reps: usize, ops: usize) -> Scenario {
        let text = format!(
            "[scenario]\nname = \"drive-test\"\nmachine = \"custom:1x4\"\n\
             repetitions = {reps}\nseed = 7\nengine = \"runtime\"\n\n\
             [traffic]\ncollectives = [\"ring-allreduce\"]\nsizes = [4096]\n\
             tenants = [\"a\", \"b\"]\nops = {ops}\n"
        );
        Scenario::parse(&text).expect("test scenario parses")
    }

    /// A tiny canned server: answers every request with `status`, then
    /// keeps the connection open for keep-alive reuse.
    fn canned_server(
        status: &'static str,
        body: &'static str,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let h = std::thread::spawn(move || {
            for stream in listener.incoming().take(4) {
                let Ok(stream) = stream else { break };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut stream = stream;
                    loop {
                        // Read one request (headers only; drives send no body).
                        loop {
                            let mut line = String::new();
                            match reader.read_line(&mut line) {
                                Ok(0) | Err(_) => return,
                                Ok(_) => {}
                            }
                            if line.trim_end().is_empty() {
                                break;
                            }
                        }
                        let resp = format!(
                            "HTTP/1.1 {status}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                            body.len()
                        );
                        if stream.write_all(resp.as_bytes()).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, h)
    }

    #[test]
    fn plan_covers_reps_times_ops_with_seeded_tenants() {
        let sc = scenario(3, 5);
        let ops = plan_ops(&sc, &DriveConfig::default()).expect("plan");
        assert_eq!(ops.len(), 15);
        assert!(ops
            .iter()
            .all(|o| o.query.contains("algorithm=ring-allreduce")));
        assert!(ops.iter().all(|o| o.tenant == "a" || o.tenant == "b"));
        // elems follows the runtime rule: 4096 bytes / (4 chunks * 4B) = 256.
        assert!(ops.iter().all(|o| o.query.contains("&elems=256&")));
        // The stream is seeded: planning twice gives identical queries.
        let again = plan_ops(&sc, &DriveConfig::default()).expect("plan");
        assert!(ops.iter().zip(&again).all(|(x, y)| x.query == y.query));
    }

    #[test]
    fn deadline_flag_is_forwarded() {
        let sc = scenario(1, 1);
        let cfg = DriveConfig {
            deadline_ms: Some(1500),
            ..DriveConfig::default()
        };
        let ops = plan_ops(&sc, &cfg).expect("plan");
        assert!(ops[0].query.contains("&deadline-ms=1500"));
    }

    #[test]
    fn ok_responses_are_counted_with_cache_hits() {
        let (addr, h) = canned_server("200 OK", "{\"status\": \"ok\", \"cache\": \"hit\"}");
        let sc = scenario(2, 3);
        let cfg = DriveConfig {
            addr,
            connections: 2,
            deadline_ms: None,
        };
        let report = drive_scenario(&sc, &cfg).expect("drive");
        assert_eq!(
            (report.sent, report.ok, report.shed, report.failed),
            (6, 6, 0, 0)
        );
        assert_eq!(report.cache_hits, 6);
        assert!(report.p99_us >= report.p50_us);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"msccl-drive-v1\""));
        assert!(json.contains("\"ok\": 6"));
        drop(report);
        drop(h); // server thread exits when its listener handles drain
    }

    #[test]
    fn shed_responses_are_sheds_not_failures() {
        let (addr, _h) = canned_server(
            "429 Too Many Requests",
            "{\"status\": \"shed\", \"reason\": \"rate_limited\"}",
        );
        let sc = scenario(1, 4);
        let cfg = DriveConfig {
            addr,
            connections: 1,
            deadline_ms: None,
        };
        let report = drive_scenario(&sc, &cfg).expect("drive");
        assert_eq!((report.ok, report.shed, report.failed), (0, 4, 0));
        let text = report.to_text();
        assert!(text.contains("4 shed"), "text: {text}");
    }

    #[test]
    fn unreachable_daemon_is_an_engine_error() {
        let sc = scenario(1, 1);
        let cfg = DriveConfig {
            // A port from the TEST-NET-3 doc range: nothing listens here.
            addr: String::from("127.0.0.1:1"),
            connections: 1,
            deadline_ms: None,
        };
        match drive_scenario(&sc, &cfg) {
            Err(ScenarioError::Engine(m)) => assert!(m.contains("cannot connect")),
            other => panic!("expected engine error, got {other:?}"),
        }
    }
}
