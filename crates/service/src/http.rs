//! A hand-rolled HTTP/1.1 front end over `std::net` — the container
//! has no crates.io access, so there is no hyper/axum to lean on, and
//! the daemon's needs are small: five endpoints, keep-alive, bounded
//! concurrency.
//!
//! Shape: one accept thread pushes connections into a bounded handoff
//! queue; a fixed pool of connection handlers serves them, one
//! connection at a time, keep-alive until the peer closes or the
//! server stops. Handler count bounds concurrent requests — that bound
//! is itself an admission gate, and when the handoff queue overflows
//! the accept thread answers `503` directly rather than letting
//! connections queue invisibly in the kernel.
//!
//! Reads run under a short timeout so idle keep-alive connections
//! notice a stopping server within a fraction of a second; partial
//! lines survive timeouts because `read_line` retains already-read
//! bytes in its buffer across the retry.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use msccl_algos::AlgoSpec;
use msccl_topology::Protocol;

use crate::core::{
    json_escape, CollectiveRequest, Reply, ServiceConfig, ServiceCore, ServiceStats, ShedReason,
};

/// Read poll interval: how stale a stopping flag check may go.
const READ_POLL: Duration = Duration::from_millis(200);

/// Largest request head (request line + headers) we accept, bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest request body we accept (bodies are read and discarded —
/// every parameter travels in the query string).
const MAX_BODY_BYTES: usize = 64 * 1024;

struct ConnQueue {
    queue: Mutex<Vec<TcpStream>>,
    cv: Condvar,
    bound: usize,
}

/// A running daemon: the listener, its handler pool, and the core.
pub struct ServiceHandle {
    addr: SocketAddr,
    core: Arc<ServiceCore>,
    stopping: Arc<AtomicBool>,
    listener: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
}

/// Starts the daemon described by `cfg`: binds, builds the
/// [`ServiceCore`] and spawns the HTTP pool, whose threads run the
/// requests they read.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission).
pub fn start(cfg: ServiceConfig) -> std::io::Result<ServiceHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let http_workers = cfg.http_workers.max(1);
    let core = ServiceCore::new(cfg);
    let stopping = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnQueue {
        queue: Mutex::new(Vec::new()),
        cv: Condvar::new(),
        bound: http_workers * 4,
    });

    let mut handlers = Vec::with_capacity(http_workers);
    for i in 0..http_workers {
        let core = Arc::clone(&core);
        let conns = Arc::clone(&conns);
        let stopping = Arc::clone(&stopping);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("msccl-http-{i}"))
                .spawn(move || handler_loop(&core, &conns, &stopping))
                .expect("spawn http handler"),
        );
    }
    let accept_thread = {
        let conns = Arc::clone(&conns);
        let stopping = Arc::clone(&stopping);
        std::thread::Builder::new()
            .name("msccl-accept".into())
            .spawn(move || accept_loop(&listener, &conns, &stopping))
            .expect("spawn acceptor")
    };
    Ok(ServiceHandle {
        addr,
        core,
        stopping,
        listener: Some(accept_thread),
        handlers,
    })
}

impl ServiceHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission/execution core behind this server.
    #[must_use]
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// The drain contract, end to end: stop admitting (new
    /// `/collective` requests shed with reason `draining` while
    /// `/healthz`, `/stats` and `/metrics` keep answering), let every
    /// admitted request deliver its reply, then stop the HTTP pool and
    /// return the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.core.drain();
        self.core.wait_drained();
        let stats = self.core.stats();
        self.stop_http();
        stats
    }

    fn stop_http(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, conns: &ConnQueue, stopping: &AtomicBool) {
    for stream in listener.incoming() {
        if stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let mut q = conns.queue.lock().expect("conn queue poisoned");
        if q.len() >= conns.bound {
            // Overflow backpressure: answer on the accept thread (with
            // a short write budget) instead of queueing invisibly.
            drop(q);
            let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
            let mut s = stream;
            let _ = write_response(
                &mut s,
                503,
                "Service Unavailable",
                &[("Retry-After", "1")],
                "{\"status\": \"shed\", \"reason\": \"connection_backlog\"}",
                false,
            );
            continue;
        }
        q.push(stream);
        drop(q);
        conns.cv.notify_one();
    }
}

fn handler_loop(core: &Arc<ServiceCore>, conns: &ConnQueue, stopping: &AtomicBool) {
    loop {
        let stream = {
            let mut q = conns.queue.lock().expect("conn queue poisoned");
            loop {
                if let Some(s) = q.pop() {
                    break Some(s);
                }
                if stopping.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = conns
                    .cv
                    .wait_timeout(q, READ_POLL)
                    .expect("conn queue poisoned");
                q = guard;
            }
        };
        let Some(stream) = stream else { return };
        serve_connection(core, stream, stopping);
    }
}

struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    keep_alive: bool,
}

fn serve_connection(core: &Arc<ServiceCore>, stream: TcpStream, stopping: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, stopping) {
            Ok(Some(req)) => {
                let keep = req.keep_alive && !stopping.load(Ordering::SeqCst);
                let ok = respond(core, &mut writer, &req, keep);
                if !(keep && ok) {
                    return;
                }
            }
            Ok(None) => return,
            Err(msg) => {
                let body = format!(
                    "{{\"status\": \"bad_request\", \"error\": \"{}\"}}",
                    json_escape(&msg)
                );
                let _ = write_response(&mut writer, 400, "Bad Request", &[], &body, false);
                return;
            }
        }
    }
}

/// Reads one line, retrying on read timeouts (partial bytes accumulate
/// in `buf` across retries). `Ok(None)` = clean EOF or server stop.
fn read_line_tolerant(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    stopping: &AtomicBool,
) -> Result<Option<()>, String> {
    loop {
        match reader.read_line(buf) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(())),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stopping.load(Ordering::SeqCst) && buf.is_empty() {
                    return Ok(None);
                }
                if buf.len() > MAX_HEAD_BYTES {
                    return Err("request head too large".into());
                }
            }
            Err(e) => {
                // A reset mid-request is a closed connection, not a
                // protocol error.
                let _ = e;
                return Ok(None);
            }
        }
    }
}

fn read_request(
    reader: &mut BufReader<TcpStream>,
    stopping: &AtomicBool,
) -> Result<Option<Request>, String> {
    let mut line = String::new();
    if read_line_tolerant(reader, &mut line, stopping)?.is_none() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| "request line has no target".to_string())?
        .to_string();
    let version = parts.next().unwrap_or("HTTP/1.0");
    let mut keep_alive = version.ends_with("1.1");
    let mut content_length: usize = 0;
    let mut head_bytes = line.len();
    loop {
        let mut header = String::new();
        if read_line_tolerant(reader, &mut header, stopping)?.is_none() {
            return Ok(None);
        }
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err("request head too large".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(format!("malformed header line '{header}'"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length '{value}'"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err("request body too large".into());
                }
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    // Drain the body (parameters travel in the query string) so
    // keep-alive framing stays intact.
    let mut remaining = content_length;
    let mut sink = [0u8; 1024];
    while remaining > 0 {
        let want = remaining.min(sink.len());
        match reader.read(&mut sink[..want]) {
            Ok(0) => return Ok(None),
            Ok(n) => remaining -= n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return Ok(None),
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        keep_alive,
    }))
}

/// Decodes `%xx` escapes and `+` in a query component.
fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect()
}

fn query_get<'a>(req: &'a Request, key: &str) -> Option<&'a str> {
    req.query
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn parse_usize(req: &Request, key: &str) -> Result<Option<usize>, String> {
    match query_get(req, key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("parameter '{key}' must be a non-negative integer, got '{v}'")),
    }
}

fn parse_u64(req: &Request, key: &str) -> Result<Option<u64>, String> {
    match query_get(req, key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("parameter '{key}' must be a non-negative integer, got '{v}'")),
    }
}

/// Builds a [`CollectiveRequest`] from `/collective` query parameters.
fn parse_collective(req: &Request) -> Result<CollectiveRequest, String> {
    let algorithm = query_get(req, "algorithm")
        .or_else(|| query_get(req, "algo"))
        .ok_or_else(|| "missing required parameter 'algorithm'".to_string())?
        .to_string();
    let mut spec = AlgoSpec {
        ranks: parse_usize(req, "ranks")?,
        ..AlgoSpec::default()
    };
    if let Some(n) = parse_usize(req, "nodes")? {
        spec.nodes = n;
    }
    if let Some(g) = parse_usize(req, "gpus")? {
        spec.gpus = g;
    }
    if let Some(c) = parse_usize(req, "channels")? {
        spec.channels = c.max(1);
    }
    spec.chunks = parse_usize(req, "chunks")?;
    if let Some(r) = parse_usize(req, "root")? {
        spec.root = r;
    }
    let chunk_elems = parse_usize(req, "elems")?.unwrap_or(64);
    let protocol = match query_get(req, "protocol") {
        None => Protocol::Simple,
        Some(p) => Protocol::parse(p)
            .ok_or_else(|| format!("unknown protocol '{p}' (simple, ll, ll128)"))?,
    };
    let deadline = parse_u64(req, "deadline-ms")?
        .or(parse_u64(req, "deadline_ms")?)
        .map(Duration::from_millis);
    if deadline.is_some_and(|d| d.is_zero()) {
        return Err("deadline-ms must be positive".into());
    }
    Ok(CollectiveRequest {
        algorithm,
        spec,
        chunk_elems,
        tenant: query_get(req, "tenant").unwrap_or("default").to_string(),
        protocol,
        deadline,
        seed: parse_u64(req, "seed")?.unwrap_or(1),
    })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    // Head and body leave in one write: with TCP_NODELAY on, two writes
    // would be two segments.
    let mut out = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        if body.starts_with('{') {
            "application/json"
        } else {
            "text/plain; version=0.0.4"
        },
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        out.push_str(&format!("{k}: {v}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())
}

/// Routes one request and writes its response; false = tear the
/// connection down.
fn respond(core: &Arc<ServiceCore>, writer: &mut TcpStream, req: &Request, keep: bool) -> bool {
    let (code, extra, body): (u16, Vec<(String, String)>, String) =
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                let draining = core.stats().draining;
                (
                    200,
                    Vec::new(),
                    format!("{{\"status\": \"ok\", \"draining\": {draining}}}"),
                )
            }
            ("GET", "/metrics") => (200, Vec::new(), core.registry().snapshot().to_prometheus()),
            ("GET", "/stats") => (200, Vec::new(), core.stats().to_json()),
            ("POST", "/shutdown") => {
                core.request_shutdown();
                (200, Vec::new(), "{\"shutting_down\": true}".into())
            }
            ("GET" | "POST", "/collective") => match parse_collective(req) {
                Err(msg) => (
                    400,
                    Vec::new(),
                    format!(
                        "{{\"status\": \"bad_request\", \"error\": \"{}\"}}",
                        json_escape(&msg)
                    ),
                ),
                Ok(creq) => render_reply(&core.call(creq)),
            },
            ("GET" | "POST", _) => (404, Vec::new(), "{\"status\": \"not_found\"}".into()),
            _ => (
                405,
                Vec::new(),
                "{\"status\": \"method_not_allowed\"}".into(),
            ),
        };
    let extra: Vec<(&str, &str)> = extra
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    write_response(writer, code, status_text(code), &extra, &body, keep).is_ok()
}

/// Maps a core [`Reply`] to status code, headers and JSON body.
fn render_reply(reply: &Reply) -> (u16, Vec<(String, String)>, String) {
    match reply {
        Reply::Ok(ok) => (
            200,
            Vec::new(),
            format!(
                "{{\"status\": \"ok\", \"tenant\": \"{}\", \"cache\": \"{}\", \
                 \"checksum\": \"{:016x}\", \"attempts\": {}, \"used_fallback\": {}, \
                 \"queue_us\": {}, \"exec_us\": {}}}",
                json_escape(&ok.tenant),
                if ok.cache_hit { "hit" } else { "miss" },
                ok.checksum,
                ok.attempts,
                ok.used_fallback,
                ok.queue_us,
                ok.exec_us
            ),
        ),
        Reply::Shed(shed) => {
            let code = if shed.reason == ShedReason::Draining {
                503
            } else {
                429
            };
            let mut extra = Vec::new();
            if shed.retry_after_ms > 0 {
                extra.push((
                    "Retry-After".to_string(),
                    shed.retry_after_ms.div_ceil(1000).max(1).to_string(),
                ));
            }
            (
                code,
                extra,
                format!(
                    "{{\"status\": \"shed\", \"reason\": \"{}\", \"tenant\": \"{}\", \
                     \"retry_after_ms\": {}}}",
                    shed.reason.as_str(),
                    json_escape(&shed.tenant),
                    shed.retry_after_ms
                ),
            )
        }
        Reply::Failed(fail) => (
            if fail.deadline { 504 } else { 500 },
            Vec::new(),
            format!(
                "{{\"status\": \"error\", \"tenant\": \"{}\", \"deadline\": {}, \
                 \"transient\": {}, \"blackbox\": {}, \"error\": \"{}\"}}",
                json_escape(&fail.tenant),
                fail.deadline,
                fail.transient,
                fail.blackbox
                    .as_ref()
                    .map_or("null".to_string(), |p| format!("\"{}\"", json_escape(p))),
                json_escape(&fail.error)
            ),
        ),
        Reply::BadRequest(msg) => (
            400,
            Vec::new(),
            format!(
                "{{\"status\": \"bad_request\", \"error\": \"{}\"}}",
                json_escape(msg)
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_decodes_and_splits() {
        let q = parse_query("a=1&b=two%20words&c&d=x%2By");
        assert_eq!(q[0], ("a".into(), "1".into()));
        assert_eq!(q[1], ("b".into(), "two words".into()));
        assert_eq!(q[2], ("c".into(), String::new()));
        assert_eq!(q[3], ("d".into(), "x+y".into()));
    }

    #[test]
    fn url_decode_tolerates_truncated_escapes() {
        assert_eq!(url_decode("abc%2"), "abc%2");
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("a+b"), "a b");
    }

    fn mk_request(target: &str) -> Request {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), Vec::new()),
        };
        Request {
            method: "GET".into(),
            path,
            query,
            keep_alive: true,
        }
    }

    #[test]
    fn collective_params_build_a_request() {
        let req = mk_request(
            "/collective?algorithm=ring-allreduce&ranks=8&elems=256&tenant=t1\
             &protocol=ll&deadline-ms=500&seed=9&channels=2",
        );
        let c = parse_collective(&req).unwrap();
        assert_eq!(c.algorithm, "ring-allreduce");
        assert_eq!(c.spec.ranks, Some(8));
        assert_eq!(c.spec.channels, 2);
        assert_eq!(c.chunk_elems, 256);
        assert_eq!(c.tenant, "t1");
        assert_eq!(c.protocol, Protocol::Ll);
        assert_eq!(c.deadline, Some(Duration::from_millis(500)));
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn collective_params_reject_garbage() {
        assert!(parse_collective(&mk_request("/collective")).is_err());
        assert!(parse_collective(&mk_request("/collective?algorithm=r&ranks=x")).is_err());
        assert!(parse_collective(&mk_request("/collective?algorithm=r&protocol=quantum")).is_err());
        assert!(parse_collective(&mk_request("/collective?algorithm=r&deadline-ms=0")).is_err());
    }
}
