//! End-to-end tests for the collective-as-a-service daemon: real HTTP
//! over loopback against a real [`msccl_service::start`] instance.
//!
//! These are the acceptance tests the service PR pins:
//!
//! * the wire contract — `/healthz`, `/stats`, `/metrics`,
//!   `/collective` and `/shutdown` round-trip over a plain TCP client
//!   (no shared in-process shortcuts on the request path);
//! * **cache**: the second identical request is a hit and returns the
//!   same output checksum;
//! * **determinism**: N concurrent same-tenant requests return outputs
//!   bit-exact with a serial execution of the same request — shared
//!   arenas and worker scheduling must not leak into results;
//! * **quotas**: an exhausted token bucket sheds with HTTP 429, a
//!   `Retry-After` hint and visible `/stats` counters — never a
//!   dropped connection;
//! * **drain**: after `POST /shutdown`, already-admitted requests all
//!   complete (nothing is dropped) while new ones get structured 503s;
//! * **deadlines**: a request whose deadline cannot be met fails fast
//!   with 504 instead of holding an execution slot;
//! * **thread shape**: requests run on their callers' threads — no
//!   executor thread, no resident runtime thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use msccl_service::{start, CollectiveRequest, Reply, ServiceConfig, TenantSpec};

/// One HTTP request over a fresh connection; returns
/// `(status, retry_after_header, body)`.
fn http(addr: std::net::SocketAddr, method: &str, path: &str) -> (u32, Option<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes()).expect("send request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u32 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {line}"));
    let mut retry_after = None;
    let mut content_length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let lower = trimmed.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("retry-after:") {
            retry_after = Some(v.trim().to_owned());
        }
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, retry_after, String::from_utf8(body).expect("utf8"))
}

/// Pulls `"field": "value"` or `"field": value` out of a flat JSON body.
fn json_field(body: &str, field: &str) -> String {
    let needle = format!("\"{field}\": ");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no field {field} in {body}"));
    let rest = &body[at + needle.len()..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.chars()
        .take_while(|c| !matches!(c, '"' | ',' | '}' | '\n'))
        .collect()
}

#[test]
fn endpoints_roundtrip_over_real_http() {
    let handle = start(ServiceConfig {
        exec_workers: 1,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();

    let (status, _, body) = http(addr, "GET", "/healthz");
    assert_eq!(status, 200, "healthz body: {body}");
    assert!(body.contains("\"status\": \"ok\""), "body: {body}");
    assert!(body.contains("\"draining\": false"), "body: {body}");

    let (status, _, body) = http(
        addr,
        "GET",
        "/collective?algorithm=ring-allreduce&ranks=4&elems=64&tenant=smoke&seed=7",
    );
    assert_eq!(status, 200, "collective body: {body}");
    assert_eq!(json_field(&body, "status"), "ok");
    assert_eq!(json_field(&body, "tenant"), "smoke");

    let (status, _, stats) = http(addr, "GET", "/stats");
    assert_eq!(status, 200);
    assert_eq!(json_field(&stats, "served"), "1");
    assert!(stats.contains("\"smoke\""), "stats: {stats}");

    let (status, _, metrics) = http(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    for name in [
        "msccl_service_admitted_total",
        "msccl_service_served_total",
        "msccl_service_latency_us",
    ] {
        assert!(metrics.contains(name), "missing {name} in:\n{metrics}");
    }

    let (status, _, _) = http(addr, "GET", "/no-such-endpoint");
    assert_eq!(status, 404);
    let (status, _, _) = http(addr, "DELETE", "/collective");
    assert_eq!(status, 405);
    let (status, _, body) = http(addr, "GET", "/collective?algorithm=warp-drive&ranks=4");
    assert_eq!(status, 400, "body: {body}");

    let stats = handle.shutdown();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.failed, 0);
}

/// A tenant name is outside input that becomes a Prometheus label value:
/// a URL-encoded line feed in it must not start a forged sample line.
#[test]
fn a_tenant_name_cannot_inject_a_metric() {
    let handle = start(ServiceConfig {
        exec_workers: 1,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();
    let (status, _, body) = http(
        addr,
        "GET",
        "/collective?algorithm=ring-allreduce&ranks=4&elems=64&tenant=x%0Afake_metric%201&seed=7",
    );
    assert_eq!(status, 200, "collective body: {body}");
    let (status, _, metrics) = http(addr, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("tenant=\"x\\nfake_metric 1\""),
        "{metrics}"
    );
    assert!(
        !metrics.lines().any(|l| l.starts_with("fake_metric")),
        "{metrics}"
    );
    handle.shutdown();
}

#[test]
fn repeated_request_hits_the_compile_cache_with_identical_checksum() {
    let handle = start(ServiceConfig {
        exec_workers: 1,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();
    let path = "/collective?algorithm=ring-allreduce&ranks=4&elems=128&tenant=t&seed=11";

    let (status, _, first) = http(addr, "GET", path);
    assert_eq!(status, 200, "body: {first}");
    assert_eq!(json_field(&first, "cache"), "miss");
    let (status, _, second) = http(addr, "GET", path);
    assert_eq!(status, 200, "body: {second}");
    assert_eq!(json_field(&second, "cache"), "hit");
    assert_eq!(
        json_field(&first, "checksum"),
        json_field(&second, "checksum"),
        "same request, same seed must give bit-identical outputs"
    );
    // The seed picks the input data, not the program: another seed still
    // reuses the compiled IR.
    let (status, _, reseeded) = http(addr, "GET", &path.replace("seed=11", "seed=12"));
    assert_eq!(status, 200, "body: {reseeded}");
    assert_eq!(json_field(&reseeded, "cache"), "hit");

    let stats = handle.shutdown();
    assert_eq!(stats.cache.hits, 2);
    assert_eq!(stats.cache.misses, 1);
}

/// N concurrent same-tenant requests must return outputs bit-exact with
/// the serial execution of the very same request: worker count, arena
/// reuse and dequeue order must never show up in the numerics.
#[test]
fn concurrent_same_tenant_requests_are_bit_exact_with_serial() {
    const CONCURRENT: usize = 8;
    let req = || CollectiveRequest {
        algorithm: "ring-allreduce".into(),
        chunk_elems: 256,
        tenant: "det".into(),
        seed: 42,
        ..CollectiveRequest::default()
    };

    // Serial oracle: a single-worker daemon, one call.
    let serial = start(ServiceConfig {
        exec_workers: 1,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let Reply::Ok(ok) = serial.core().call(req()) else {
        panic!("serial call failed");
    };
    let expected = ok.checksum;
    serial.shutdown();

    // Concurrent: several workers, deep queue, generous quota.
    let handle = start(ServiceConfig {
        exec_workers: 4,
        queue_depth: CONCURRENT + 2,
        default_burst: CONCURRENT as f64 + 2.0,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let core = handle.core();
    let checksums: Vec<u64> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CONCURRENT)
            .map(|_| {
                scope.spawn(|| match core.call(req()) {
                    Reply::Ok(ok) => ok.checksum,
                    other => panic!("concurrent call failed: {other:?}"),
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("join")).collect()
    });
    for (i, c) in checksums.iter().enumerate() {
        assert_eq!(
            *c, expected,
            "request {i}: concurrent checksum {c:#018x} != serial {expected:#018x}"
        );
    }
    let stats = handle.shutdown();
    assert_eq!(stats.served, CONCURRENT as u64);
    assert_eq!(stats.failed, 0);
}

#[test]
fn exhausted_quota_sheds_with_retry_after_and_counters() {
    let handle = start(ServiceConfig {
        exec_workers: 1,
        // One token, glacial refill: the second request must shed.
        tenants: vec![TenantSpec {
            name: "meter".into(),
            rate: 0.0001,
            burst: 1.0,
            weight: 1,
        }],
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();
    let path = "/collective?algorithm=ring-allreduce&ranks=4&elems=64&tenant=meter&seed=1";

    let (status, _, body) = http(addr, "GET", path);
    assert_eq!(status, 200, "first request spends the token: {body}");
    let mut sheds: u64 = 0;
    for _ in 0..3 {
        let (status, retry_after, body) = http(addr, "GET", path);
        assert_eq!(status, 429, "body: {body}");
        assert_eq!(json_field(&body, "status"), "shed");
        assert_eq!(json_field(&body, "reason"), "rate_limited");
        let hint: u64 = retry_after
            .expect("429 carries Retry-After")
            .parse()
            .expect("Retry-After is seconds");
        assert!(hint >= 1);
        sheds += 1;
    }

    let (_, _, stats) = http(addr, "GET", "/stats");
    assert_eq!(json_field(&stats, "shed"), sheds.to_string());
    let (_, _, metrics) = http(addr, "GET", "/metrics");
    assert!(
        metrics.contains("msccl_service_shed_total"),
        "metrics:\n{metrics}"
    );
    assert!(
        metrics.contains("reason=\"rate_limited\""),
        "metrics:\n{metrics}"
    );

    let stats = handle.shutdown();
    assert_eq!(stats.shed, sheds);
    assert_eq!(stats.served, 1);
}

/// The drain contract: everything admitted before `POST /shutdown`
/// completes (nothing dropped), everything after gets a structured 503.
#[test]
fn shutdown_drains_inflight_and_rejects_new_requests() {
    const INFLIGHT: usize = 4;
    let handle = start(ServiceConfig {
        exec_workers: 1, // single worker => admitted requests queue up
        queue_depth: INFLIGHT + 2,
        default_burst: INFLIGHT as f64 + 2.0,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();
    let core = handle.core();

    // Detached callers reporting over a channel, not scoped threads: a
    // stranded request must fail the test with its index, not hang it.
    let (tx, rx) = std::sync::mpsc::channel();
    let mut callers = Vec::new();
    for i in 0..INFLIGHT {
        let (core, tx) = (std::sync::Arc::clone(core), tx.clone());
        callers.push(std::thread::spawn(move || {
            let reply = core.call(CollectiveRequest {
                algorithm: "ring-allreduce".into(),
                chunk_elems: 4096,
                tenant: "drainee".into(),
                seed: 5,
                ..CollectiveRequest::default()
            });
            let _ = tx.send((i, reply));
        }));
    }
    drop(tx);
    // Admission is synchronous inside `call`, but give the calls a
    // moment to be enqueued before pulling the plug.
    while core.stats().queued + core.stats().inflight < INFLIGHT && core.stats().served == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _, body) = http(addr, "POST", "/shutdown");
    assert_eq!(status, 200, "body: {body}");
    assert!(body.contains("\"shutting_down\": true"), "body: {body}");

    // New work after the drain began: structured 503, not a drop.
    let (status, _, body) = http(
        addr,
        "GET",
        "/collective?algorithm=ring-allreduce&ranks=4&elems=64&tenant=late&seed=1",
    );
    assert_eq!(status, 503, "body: {body}");
    assert_eq!(json_field(&body, "reason"), "draining");

    let mut pending: Vec<usize> = (0..INFLIGHT).collect();
    while !pending.is_empty() {
        let (i, r) = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("admitted requests {pending:?} never replied"));
        pending.retain(|&p| p != i);
        assert!(
            matches!(r, Reply::Ok(_)),
            "admitted request {i} was dropped by the drain: {r:?}"
        );
    }
    for caller in callers {
        caller.join().expect("caller thread");
    }
    let stats = handle.shutdown();
    assert_eq!(
        stats.served, INFLIGHT as u64,
        "every admitted request completes"
    );
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn hopeless_deadline_fails_fast_with_504() {
    let handle = start(ServiceConfig {
        exec_workers: 1,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();
    // 64Ki elements across 8 ranks cannot finish in 1ms; the deadline
    // (queue wait included) must cut it off with a 504.
    let (status, _, body) = http(
        addr,
        "GET",
        "/collective?algorithm=ring-allreduce&ranks=8&elems=65536&tenant=rush&seed=3&deadline-ms=1",
    );
    assert_eq!(status, 504, "body: {body}");
    assert_eq!(json_field(&body, "deadline"), "true");

    let stats = handle.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.served, 0);
}

/// Threads of this process whose name starts with `prefix`.
#[cfg(target_os = "linux")]
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with(prefix))
        })
        .count()
}

/// Requests run on their callers' threads: the daemon starts no
/// executor thread, each request uses one runtime thread (so no arena
/// holds a resident one), and no more requests execute at once than
/// there are slots.
#[cfg(target_os = "linux")]
#[test]
fn requests_run_on_their_callers_threads_within_the_slot_bound() {
    const SLOTS: usize = 2;
    let handle = start(ServiceConfig {
        exec_workers: SLOTS,
        queue_depth: 8,
        default_burst: 100.0,
        ..ServiceConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();
    let core = handle.core();
    std::thread::scope(|scope| {
        for c in 0..5 {
            scope.spawn(move || {
                for i in 0..10 {
                    let path = format!(
                        "/collective?algorithm=ring-allreduce&ranks=4&elems=256&tenant=shape&seed={}",
                        c * 100 + i
                    );
                    let (status, _, body) = http(addr, "GET", &path);
                    assert_eq!(status, 200, "body: {body}");
                    let inflight = core.stats().inflight;
                    assert!(inflight <= SLOTS, "{inflight} requests in {SLOTS} slots");
                }
            });
        }
    });
    assert_eq!(threads_named("msccl-exec"), 0, "executor threads");
    assert_eq!(threads_named("msccl-worker"), 0, "resident runtime threads");
    let stats = handle.shutdown();
    assert_eq!(stats.served, 50);
    assert_eq!(stats.failed, 0);
}
