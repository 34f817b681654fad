//! `serve-hot` and `serve-churn`: the daemon behind `msccl serve`, driven
//! over loopback HTTP by a closed-loop generator.
//!
//! Both start `msccl_service::start` with two executor workers and
//! quotas wide open (nothing may shed), and keep one keep-alive
//! connection per client thread. They differ only in the key mix:
//!
//! * hot — one key, so after the priming request every lookup hits the
//!   IR cache and the compiler does nothing;
//! * churn — a seeded Zipf(1.0) draw over 15 algorithms × 3 rank counts
//!   × 4 sizes = 180 keys against the default 64-entry cache, so the
//!   same service code pays compile-on-miss and LRU eviction.
//!
//! The popularity order of the 180 keys is fixed (a constant
//! permutation, so big and small shapes are spread over the ranks); the
//! seed drives the draws and the input data, never which key is hot.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use msccl_runtime::reference;
use msccl_service::{
    output_checksum, start, CollectiveRequest, Reply, ServiceConfig, ServiceCore, ServiceHandle,
};
use mscclang::rng::{mix, Splitmix64};
use mscclang::{compile, CompileOptions, ReduceOp};

use super::{median_us_of_3, ratio, Limit, Round, Verdict, Workload};
use crate::host::Host;
use crate::json;
use crate::metrics::LayerValues;
use crate::stats::{median, percentile, sorted};
use crate::trace::{now_ns, Layer, Span};
use crate::zipf::Zipf;

/// Which key mix the generator draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Churn,
}

/// Requests one client sends between looks at the clock.
const BATCH: usize = 25;

/// One cache key: what the daemon compiles once and serves many times.
#[derive(Debug, Clone)]
struct Key {
    algorithm: &'static str,
    ranks: usize,
    elems: usize,
}

impl Key {
    fn spec(&self) -> AlgoSpec {
        AlgoSpec {
            ranks: Some(self.ranks),
            nodes: 2,
            gpus: self.ranks / 2,
            ..AlgoSpec::default()
        }
    }

    fn target(&self, seed: u64) -> String {
        format!(
            "/collective?algorithm={}&ranks={}&nodes=2&gpus={}&elems={}&seed={seed}",
            self.algorithm,
            self.ranks,
            self.ranks / 2,
            self.elems
        )
    }

    fn request(&self, seed: u64) -> CollectiveRequest {
        CollectiveRequest {
            algorithm: self.algorithm.into(),
            spec: self.spec(),
            chunk_elems: self.elems,
            seed,
            ..CollectiveRequest::default()
        }
    }
}

fn keys(mix: Mix) -> Vec<Key> {
    match mix {
        Mix::Hot => vec![Key {
            algorithm: "ring-allreduce",
            ranks: 4,
            elems: 256,
        }],
        Mix::Churn => {
            let mut all = Vec::new();
            for &algorithm in msccl_algos::registry::NAMES {
                for ranks in [4, 8, 16] {
                    for elems in [1 << 6, 1 << 8, 1 << 10, 1 << 12] {
                        all.push(Key {
                            algorithm,
                            ranks,
                            elems,
                        });
                    }
                }
            }
            // 77 is coprime to 180: a fixed permutation.
            let n = all.len();
            (0..n).map(|i| all[(i * 77 + 13) % n].clone()).collect()
        }
    }
}

/// What the generator kept of one served request.
#[derive(Debug, Clone, Copy, Default)]
struct Obs {
    key: u16,
    seed: u16,
    hit: bool,
    traced: bool,
    attempts: u32,
    checksum: u64,
    start_ns: u64,
    end_ns: u64,
    queue_us: u64,
    exec_us: u64,
}

impl Obs {
    fn lat_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            addr,
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// One GET; returns the status code, the body left in `self.body`.
    fn get(&mut self, target: &str) -> std::io::Result<u16> {
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        // One write, one segment: the daemon sets TCP_NODELAY and so do we.
        let request = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = 0usize;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("content-length"))?;
                }
            }
        }
        if length > 1 << 20 {
            return Err(bad("reply body over 1 MiB"));
        }
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    fn body_json(&self) -> Option<json::Value> {
        json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

/// One closed-loop client: its connection and its draw stream.
struct Client {
    conn: Conn,
    rng: Splitmix64,
}

/// How a request reaches the daemon.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// Over the loopback socket — what the timed rounds measure.
    Http,
    /// `ServiceCore::call` in this process — the probe whose difference
    /// from HTTP is what the socket and the HTTP parser cost.
    InProcess,
}

/// Cumulative counters from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: f64,
    misses: f64,
    evictions: f64,
    shed: f64,
    failed: f64,
}

/// Median cost, µs, of the public functions the daemon calls where no
/// outside clock can see them, measured on one key's shape.
#[derive(Debug, Clone, Copy, Default)]
struct Shadow {
    compile_us: f64,
    input_gen_us: f64,
    verify_us: f64,
    checksum_us: f64,
}

pub struct Serve {
    mix: Mix,
    keys: Vec<Key>,
    /// Input seeds a request may carry, by index.
    seeds: Vec<u64>,
    zipf: Zipf,
    handle: Option<ServiceHandle>,
    clients: Vec<Client>,
    obs: Vec<Obs>,
    at_setup: Counters,
    shadow: BTreeMap<u16, Shadow>,
}

impl Serve {
    pub fn setup(mix_kind: Mix, seed: u64, host: &Host) -> Result<Self, String> {
        let keys = keys(mix_kind);
        let per_key = match mix_kind {
            Mix::Hot => 64,
            Mix::Churn => 4,
        };
        let seeds = (0..per_key)
            .map(|j| seed.wrapping_mul(1000).wrapping_add(j))
            .collect();
        let n_clients = host.clients(2);
        let handle = start(ServiceConfig {
            exec_workers: 2,
            queue_depth: 4 * n_clients,
            default_rate: 1e9,
            default_burst: 1e9,
            ..ServiceConfig::default()
        })
        .map_err(|e| format!("daemon did not start: {e}"))?;
        let mut clients = Vec::new();
        for c in 0..n_clients {
            clients.push(Client {
                conn: Conn::open(handle.addr()).map_err(|e| format!("connect: {e}"))?,
                rng: Splitmix64::new(mix(seed) ^ c as u64),
            });
        }
        let mut me = Self {
            mix: mix_kind,
            zipf: Zipf::new(keys.len(), 1.0),
            keys,
            seeds,
            handle: Some(handle),
            clients,
            obs: Vec::new(),
            at_setup: Counters::default(),
            shadow: BTreeMap::new(),
        };
        // Warm-up, discarded: primes the IR cache (to LRU steady state on
        // churn), the two executor arenas and the connections.
        let warm_batches = match mix_kind {
            Mix::Hot => 16,
            Mix::Churn => 12,
        };
        let (warm, _) = me.drive(Limit::Batches(warm_batches), false, Via::Http);
        if warm.failed > 0 {
            return Err(format!("{} warm-up requests failed", warm.failed));
        }
        me.at_setup = me.counters()?;
        Ok(me)
    }

    fn core(&self) -> &std::sync::Arc<ServiceCore> {
        self.handle
            .as_ref()
            .expect("daemon runs until teardown")
            .core()
    }

    fn counters(&mut self) -> Result<Counters, String> {
        let conn = &mut self.clients[0].conn;
        let status = conn.get("/stats").map_err(|e| format!("/stats: {e}"))?;
        let doc = conn
            .body_json()
            .filter(|_| status == 200)
            .ok_or("/stats: not a 200 with a JSON body")?;
        let num = |path: &str| doc.at(path).and_then(json::Value::as_f64).unwrap_or(0.0);
        Ok(Counters {
            hits: num("cache/hits"),
            misses: num("cache/misses"),
            evictions: num("cache/evictions"),
            shed: num("shed"),
            failed: num("failed"),
        })
    }

    /// Every client sends whole batches until `limit` is reached; returns
    /// the round and what was kept of every served request.
    fn drive(&mut self, limit: Limit, traced: bool, via: Via) -> (Round, Vec<Obs>) {
        let core = std::sync::Arc::clone(self.core());
        let (keys, seeds, zipf, hot) = (&self.keys, &self.seeds, &self.zipf, self.mix == Mix::Hot);
        let started = Instant::now();
        let per_client: Vec<(Vec<Obs>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let core = &core;
                    scope.spawn(move || {
                        let (mut obs, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                        let mut batches = 0;
                        while limit.more(started, batches) {
                            batches += 1;
                            for _ in 0..BATCH {
                                let key = if hot { 0 } else { zipf.draw(&mut client.rng) };
                                let seed = client.rng.below(seeds.len() as u64) as usize;
                                attempted += 1;
                                let start_ns = now_ns();
                                let reply = match via {
                                    Via::Http => http_call(client, &keys[key], seeds[seed]),
                                    Via::InProcess => {
                                        in_process_call(core, &keys[key], seeds[seed])
                                    }
                                };
                                let end_ns = now_ns();
                                match reply {
                                    Some(r) => obs.push(Obs {
                                        key: key as u16,
                                        seed: seed as u16,
                                        traced,
                                        start_ns,
                                        end_ns,
                                        ..r
                                    }),
                                    None => failed += 1,
                                }
                            }
                        }
                        (obs, attempted, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut round = Round {
            traced,
            elapsed_s: started.elapsed().as_secs_f64(),
            ..Round::default()
        };
        let mut served = Vec::new();
        for (obs, attempted, failed) in per_client {
            round.ops += attempted;
            round.failed += failed;
            round.lat_us.extend(obs.iter().map(Obs::lat_us));
            served.extend(obs);
        }
        (round, served)
    }

    /// Measures, for every key the rounds touched, the functions the
    /// daemon runs out of an outside clock's sight.
    fn measure_shadows(&mut self) {
        let touched: std::collections::BTreeSet<u16> = self.obs.iter().map(|o| o.key).collect();
        for k in touched {
            let key = &self.keys[k as usize];
            let spec = key.spec();
            let build = || {
                let program = build_by_name(key.algorithm, &spec).expect("key builds");
                let ir = compile(&program, &CompileOptions::default()).expect("key compiles");
                (program, ir)
            };
            let compile_us = median_us_of_3(build);
            let (_, ir) = build();
            let seed = self.seeds[0];
            let input_gen_us = median_us_of_3(|| reference::random_inputs(&ir, key.elems, seed));
            let inputs = reference::random_inputs(&ir, key.elems, seed);
            let outputs =
                msccl_runtime::execute(&ir, &inputs, key.elems, &Default::default()).expect("runs");
            let verify_us = median_us_of_3(|| {
                reference::check_outputs(
                    &ir.collective,
                    &inputs,
                    &outputs,
                    key.elems,
                    ReduceOp::Sum,
                )
            });
            let checksum_us = median_us_of_3(|| output_checksum(&outputs));
            self.shadow.insert(
                k,
                Shadow {
                    compile_us,
                    input_gen_us,
                    verify_us,
                    checksum_us,
                },
            );
        }
    }
}

/// The fields of an `ok` reply the generator keeps; `None` for anything
/// that is not a served request.
fn http_call(client: &mut Client, key: &Key, seed: u64) -> Option<Obs> {
    let status = match client.conn.get(&key.target(seed)) {
        Ok(status) => status,
        Err(_) => {
            // A broken connection fails this request only.
            if let Ok(conn) = Conn::open(client.conn.addr) {
                client.conn = conn;
            }
            return None;
        }
    };
    let doc = client.conn.body_json().filter(|_| status == 200)?;
    let num = |k: &str| doc.get(k).and_then(json::Value::as_f64);
    Some(Obs {
        hit: doc.get("cache")?.as_str()? == "hit",
        attempts: num("attempts")? as u32,
        checksum: u64::from_str_radix(doc.get("checksum")?.as_str()?, 16).ok()?,
        queue_us: num("queue_us")? as u64,
        exec_us: num("exec_us")? as u64,
        ..Obs::default()
    })
}

fn in_process_call(core: &ServiceCore, key: &Key, seed: u64) -> Option<Obs> {
    match core.call(key.request(seed)) {
        Reply::Ok(ok) => Some(Obs {
            hit: ok.cache_hit,
            attempts: ok.attempts as u32,
            checksum: ok.checksum,
            queue_us: ok.queue_us,
            exec_us: ok.exec_us,
            ..Obs::default()
        }),
        _ => None,
    }
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    percentile(&sorted(values.collect()), 50.0)
}

impl Workload for Serve {
    fn round(&mut self, budget: Duration, traced: bool) -> Round {
        let (round, served) = self.drive(Limit::Time(budget), traced, Via::Http);
        self.obs.extend(served);
        round
    }

    /// Every served reply's checksum must equal the checksum of the
    /// replay oracle's outputs for that key and seed: the oracle replays
    /// the traced program's copy and reduce operations on the same
    /// inputs, sharing nothing with the compiler's instruction stream or
    /// the runtime.
    fn check(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let mut shapes = BTreeMap::new();
        let mut expected: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        for o in &self.obs {
            let key = &self.keys[o.key as usize];
            let want = *expected.entry((o.key, o.seed)).or_insert_with(|| {
                // Compiled only for its shape: rank count, chunk count
                // and the refinement the replay must scale chunks by.
                let (program, ir) = shapes.entry(o.key).or_insert_with(|| {
                    let program = build_by_name(key.algorithm, &key.spec()).expect("key builds");
                    let ir = compile(&program, &CompileOptions::default().with_verify(false))
                        .expect("key compiles");
                    (program, ir)
                });
                let inputs = reference::random_inputs(ir, key.elems, self.seeds[o.seed as usize]);
                output_checksum(&reference::replay_program(
                    program,
                    &inputs,
                    key.elems * ir.refinement,
                    ReduceOp::Sum,
                ))
            });
            verdict.expect(o.checksum == want, || {
                format!(
                    "{} ranks={} elems={} seed={}: checksum {:016x}, oracle {want:016x}",
                    key.algorithm, key.ranks, key.elems, self.seeds[o.seed as usize], o.checksum
                )
            });
        }
        verdict
    }

    fn probe(&mut self, rounds: &[Round], m: &mut LayerValues) {
        let now = self.counters().unwrap_or(self.at_setup);

        m.insert(
            "service.req_per_s",
            median(&rounds.iter().map(Round::ops_per_s).collect::<Vec<_>>()),
        );
        let lats = sorted(self.obs.iter().map(Obs::lat_us).collect());
        m.insert("service.latency_p99_us", percentile(&lats, 99.0));
        m.insert("service.latency_samples", lats.len() as f64);
        let latency = percentile(&lats, 50.0);
        let queue = p50(self.obs.iter().map(|o| o.queue_us as f64));
        let exec = p50(self.obs.iter().map(|o| o.exec_us as f64));
        m.insert("service.queue_us", queue);
        m.insert("service.exec_us", exec);
        m.insert(
            "service.front_us",
            p50(self
                .obs
                .iter()
                .map(|o| o.lat_us() - (o.queue_us + o.exec_us) as f64)),
        );
        m.insert(
            "service.hit_p50_us",
            p50(self.obs.iter().filter(|o| o.hit).map(Obs::lat_us)),
        );
        m.insert(
            "service.miss_p50_us",
            p50(self.obs.iter().filter(|o| !o.hit).map(Obs::lat_us)),
        );
        m.insert(
            "service.attempts_per_req",
            ratio(
                self.obs.iter().map(|o| f64::from(o.attempts)).sum(),
                self.obs.len() as f64,
            ),
        );
        let lookups = (now.hits - self.at_setup.hits) + (now.misses - self.at_setup.misses);
        m.insert(
            "service.cache_hit_rate",
            ratio(now.hits - self.at_setup.hits, lookups),
        );
        m.insert(
            "service.cache_evictions",
            now.evictions - self.at_setup.evictions,
        );
        m.insert("service.shed", now.shed - self.at_setup.shed);
        m.insert("service.failed", now.failed - self.at_setup.failed);

        // The same draws through `ServiceCore::call`, same daemon, same
        // client threads: what is left of the latency without the socket.
        let (in_process, inner) = self.drive(
            Limit::Time(Duration::from_millis(400)),
            false,
            Via::InProcess,
        );
        let http = latency - in_process.p50_us();
        let inner_rest = in_process.p50_us()
            - p50(inner.iter().map(|o| o.queue_us as f64))
            - p50(inner.iter().map(|o| o.exec_us as f64));
        m.insert("service.http_us", http);
        // The budget's gate: socket + front remainder + queue + execute,
        // each estimated on its own, must add up to what clients saw.
        m.insert(
            "service.budget_gap_share",
            ratio((http + inner_rest + queue + exec - latency).abs(), latency),
        );

        self.measure_shadows();
        let shadow = |o: &Obs| self.shadow[&o.key];
        let checksum = p50(self.obs.iter().map(|o| shadow(o).checksum_us));
        let input_gen = p50(self.obs.iter().map(|o| shadow(o).input_gen_us));
        m.insert("service.checksum_us", checksum);
        m.insert("runtime.input_gen_us", input_gen);
        m.insert(
            "runtime.verify_us",
            p50(self.obs.iter().map(|o| shadow(o).verify_us)),
        );
        m.insert(
            "core.miss_compile_us",
            p50(self
                .obs
                .iter()
                .filter(|o| !o.hit)
                .map(|o| shadow(o).compile_us)),
        );
        // Admission, cache lookup, channel hand-offs, reply rendering:
        // the part of the front no public function accounts for.
        m.insert("service.front_rest_us", inner_rest - checksum - input_gen);
    }

    /// One request's spans, laid out backwards from the reply in the
    /// order the daemon works: compile (misses only) → queue → input
    /// generation → execute → checksum → reply. What the request span
    /// keeps as self time is HTTP, admission and the hand-offs between
    /// threads.
    fn take_spans(&mut self) -> Vec<Span> {
        let mut spans = Vec::new();
        for (op_id, o) in self.obs.iter().filter(|o| o.traced).enumerate() {
            let root = spans.len();
            spans.push(Span {
                name: "service.http_request",
                layer: Layer::Service,
                op_id: op_id as u64,
                parent: None,
                start_ns: o.start_ns,
                end_ns: o.end_ns,
            });
            let shadow = self.shadow.get(&o.key).copied().unwrap_or_default();
            let us = |v: f64| (v * 1e3) as u64;
            let mut pieces = vec![
                (
                    "shadow:service.output_checksum",
                    Layer::Service,
                    us(shadow.checksum_us),
                ),
                (
                    "reply:runtime.execute_with_recovery",
                    Layer::Runtime,
                    o.exec_us * 1000,
                ),
                (
                    "shadow:runtime.random_inputs",
                    Layer::Runtime,
                    us(shadow.input_gen_us),
                ),
                ("reply:service.queue", Layer::Service, o.queue_us * 1000),
            ];
            if !o.hit {
                pieces.push(("shadow:core.compile", Layer::Core, us(shadow.compile_us)));
            }
            let mut end_ns = o.end_ns;
            for (name, layer, dur_ns) in pieces {
                let start_ns = end_ns.saturating_sub(dur_ns).max(o.start_ns);
                spans.push(Span {
                    name,
                    layer,
                    op_id: op_id as u64,
                    parent: Some(root),
                    start_ns,
                    end_ns,
                });
                end_ns = start_ns;
            }
        }
        spans
    }

    fn teardown(mut self: Box<Self>) {
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            let _ = handle.shutdown();
        }
    }
}
