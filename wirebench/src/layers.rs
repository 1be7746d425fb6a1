//! The traced run (`--trace 1`): the same workload and seed as the measured
//! run, with every layer timed from outside through its public functions.
//!
//! Three sources feed the per-layer metrics:
//!
//! * **spans** — a [`RecordingTransport`] behind the public `Transport`
//!   trait records one span per envelope exchange under one span per query;
//! * **replay** — sampled captured request envelopes are run again through
//!   an in-process single-peer `Federation::transport()`, which is the code
//!   a daemon runs per request, so `exchange − replayed service` is what
//!   the wire, the frames and the server's threads cost;
//! * **direct calls** — parser, decomposer, codecs, XML parser/serializer,
//!   index build and frame I/O are called on the workload's own texts,
//!   envelopes and documents.
//!
//! All per-query times are sums over the exchanges of one query, so they
//! add up: `wall = coordinator_self + exchange`, `exchange = wire +
//! service`, `service = decode_request + compile + eval + encode_response`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xqd::xml::project::{build_projected, compute_projection, ProjectionInput};
use xqd::xml::{parse_document, serialize_document, Store};
use xqd::xrpc::message::keyset_stats;
use xqd::xrpc::wire::eval_rel_paths;
use xqd::xrpc::{
    decode_doc_request, decode_doc_response, decode_request, decode_response, encode_doc_request,
    encode_doc_response, encode_request, encode_response, read_frame, write_frame, MAX_FRAME_LEN,
};
use xqd::{
    compile_query, decompose_with, eval_query, parse_query, DecomposeOptions, ExecOptions,
    Federation, Item, NetworkModel, ReplicaCatalog, TcpTransport, Transport, XrpcError,
};

use crate::fleet::{self, Fleet};
use crate::json::{obj, Value};
use crate::measure::{
    closed_loop, drain_clean, window_series, Outcome, Plan, Prepared, Stage, Tally,
};
use crate::stats::{best_fifth, interval_union, median};
use crate::workload::{Workload, PEERS};

/// Every per-layer metric, in print order, with its unit.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("xquery.parser.parse_us", "us"),
    ("core.decompose.decompose_us", "us"),
    ("xquery.compile.compile_us", "us"),
    ("xrpc.tcp.exchange_us", "us"),
    ("xrpc.tcp.exchanges_per_query", "count"),
    ("xrpc.message.encode_request_us", "us"),
    ("xrpc.message.request_bytes", "B"),
    ("xrpc.message.response_bytes", "B"),
    ("xrpc.message.keyset_keys_per_query", "count"),
    ("xrpc.tcp.connect_us", "us"),
    ("xrpc.tcp.overlap_ratio", "ratio"),
    ("xrpc.exec.service_us", "us"),
    ("xrpc.message.decode_request_us", "us"),
    ("xrpc.message.encode_response_us", "us"),
    ("xquery.eval.eval_us", "us"),
    ("xml.project.project_us", "us"),
    ("xrpc.tcp.wire_us", "us"),
    ("xrpc.transport.frame_small_us", "us"),
    ("xrpc.transport.frame_mb_s", "MB/s"),
    ("xrpc.message.decode_response_us", "us"),
    ("xml.parser.parse_mb_s", "MB/s"),
    ("xml.serialize.serialize_mb_s", "MB/s"),
    ("xml.index.build_ms", "ms"),
    ("xrpc.tcp.coordinator_self_us", "us"),
    ("xquery.eval.coordinator_eval_us", "us"),
    ("xrpc.tcp.coordinator_cpu_ms_per_query", "ms"),
    ("xrpc.server.cpu_ms_per_query", "ms"),
    ("xrpc.server.ctx_switches_per_query", "count"),
    ("xrpc.server.rss_mb", "MB"),
    ("xrpc.server.rss_growth_kb_per_request", "kB"),
    ("xrpc.server.ready_ms", "ms"),
    ("xrpc.server.served", "count"),
    ("xrpc.server.shed", "count"),
    ("xrpc.tcp.remote_calls_per_query", "count"),
    ("xrpc.tcp.doc_fetches_per_query", "count"),
    ("xrpc.tcp.retries_per_query", "count"),
    ("xrpc.tcp.failovers_per_query", "count"),
    ("bench.p90_ms", "ms"),
    ("bench.query_wall_us", "us"),
    ("bench.attributed_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.fail_share", "ratio"),
];

/// Queries whose spans are written to the span file.
const SPAN_FILE_QUERIES: usize = 5000;

/// One query of one client with the exchanges it caused, in order.
struct QueryTrace {
    id: u64,
    start: f64,
    end: f64,
    exchanges: Vec<ExchangeSpan>,
}

struct ExchangeSpan {
    peer: &'static str,
    start: f64,
    end: f64,
    request_bytes: u64,
    response_bytes: u64,
    keys: u64,
}

struct Captured {
    /// Which of this client's queries the exchange belonged to.
    query: usize,
    peer: &'static str,
    request: String,
    reply: String,
}

/// Wraps [`TcpTransport`] behind the public `Transport` trait and records
/// one span per exchange. One per client, whose queries come one after
/// the other: an exchange belongs to the query in flight.
pub struct RecordingTransport {
    client: usize,
    inner: TcpTransport,
    origin: Instant,
    in_flight: Mutex<Vec<ExchangeSpan>>,
    queries: Mutex<Vec<QueryTrace>>,
    captured: Mutex<Vec<Captured>>,
    /// Envelopes are kept while fewer queries than this have completed.
    capture_queries: usize,
}

impl RecordingTransport {
    fn new(
        client: usize,
        inner: TcpTransport,
        origin: Instant,
        capture_queries: usize,
    ) -> RecordingTransport {
        RecordingTransport {
            client,
            inner,
            origin,
            in_flight: Mutex::new(Vec::new()),
            queries: Mutex::new(Vec::new()),
            captured: Mutex::new(Vec::new()),
            capture_queries,
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` as query `id` under a query span.
    fn query<R>(&self, id: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        let exchanges = std::mem::take(&mut *self.in_flight.lock().expect("span log"));
        self.queries.lock().expect("span log").push(QueryTrace {
            id,
            start,
            end,
            exchanges,
        });
        out
    }
}

impl Transport for RecordingTransport {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        let start = self.now();
        let reply = self.inner.exchange(peer, request, budget);
        let end = self.now();
        if let Ok(reply) = &reply {
            let peer = PEERS.iter().copied().find(|p| *p == peer).unwrap_or("?");
            // document payloads carry no key sets; do not scan megabytes
            let keys = keyset_stats(request).0
                + if reply.starts_with("<env><doc") {
                    0
                } else {
                    keyset_stats(reply).0
                };
            self.in_flight.lock().expect("span log").push(ExchangeSpan {
                peer,
                start,
                end,
                request_bytes: request.len() as u64,
                response_bytes: reply.len() as u64,
                keys,
            });
            let query = self.queries.lock().expect("span log").len();
            if query < self.capture_queries {
                self.captured.lock().expect("capture log").push(Captured {
                    query,
                    peer,
                    request: request.to_string(),
                    reply: reply.clone(),
                });
            }
        }
        reply
    }
}

/// Median microseconds of `f` over at least `min_reps` runs and about
/// `budget` of wall clock.
fn time_us<R>(budget: Duration, min_reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || (started.elapsed() < budget && times.len() < 2000) {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// The peers replayed in process: each is the single-peer federation a
/// daemon is, reached through the same `Transport` seam without a socket.
pub struct ReplayPeers {
    feds: Vec<(&'static str, Federation)>,
}

impl ReplayPeers {
    pub fn new(prep: &Prepared) -> Result<ReplayPeers, String> {
        let mut feds = Vec::new();
        for peer in PEERS {
            let mut fed = Federation::new(NetworkModel::lan());
            fed.add_peer(peer);
            for d in prep.inputs.docs.iter().filter(|d| d.peer == peer) {
                fed.load_document(peer, d.name, &d.xml)
                    .map_err(|e| format!("replay peer cannot load {}: {e}", d.uri()))?;
            }
            feds.push((peer, fed));
        }
        Ok(ReplayPeers { feds })
    }

    /// Median service time of a captured request, and whether the reply
    /// matches the one the daemon gave.
    fn service_us(&self, c: &Captured, micro: Duration) -> (f64, bool) {
        let mut same = true;
        let us = time_us(micro, 5, || {
            let reply = self.exchange(c.peer, &c.request, Duration::from_secs(5));
            same &= reply.as_deref().ok() == Some(c.reply.as_str());
        });
        (us, same)
    }
}

impl Transport for ReplayPeers {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        match self.feds.iter().find(|(p, _)| *p == peer) {
            Some((_, fed)) => fed.transport().exchange(peer, request, budget),
            None => Err(XrpcError::UnknownPeer {
                peer: peer.to_string(),
            }),
        }
    }
}

/// The parts of one captured exchange, each timed on its own.
#[derive(Default)]
struct ExchangeParts {
    service: f64,
    encode_request: f64,
    decode_request: f64,
    compile: f64,
    encode_response: f64,
    project: f64,
    decode_response: f64,
}

fn exchange_parts(
    c: &Captured,
    replay: &ReplayPeers,
    micro: Duration,
    replies_match: &mut bool,
) -> ExchangeParts {
    let (service, same) = replay.service_us(c, micro);
    *replies_match &= same;
    let mut parts = ExchangeParts {
        service,
        ..ExchangeParts::default()
    };
    if let Some(uri) = decode_doc_request(&c.request) {
        // data shipping: the request names a document, the reply carries it
        parts.encode_request = time_us(micro, 5, || encode_doc_request(&uri));
        parts.decode_request = time_us(micro, 5, || decode_doc_request(&c.request));
        if let Some(xml) = decode_doc_response(&c.reply) {
            parts.encode_response = time_us(micro, 3, || encode_doc_response(&uri, &xml));
            parts.decode_response = time_us(micro, 3, || {
                let xml = decode_doc_response(&c.reply).expect("doc reply");
                parse_document(&mut Store::new(), &xml, Some(&uri)).map(|_| ())
            });
        }
        return parts;
    }
    parts.decode_request = time_us(micro, 5, || {
        decode_request(&mut Store::new(), &c.request).map(|_| ())
    });
    parts.decode_response = time_us(micro, 5, || {
        decode_response(&mut Store::new(), &c.reply).map(|_| ())
    });
    let mut store = Store::new();
    let (Ok(request), Ok(results)) = (
        decode_request(&mut store, &c.request),
        decode_response(&mut store, &c.reply),
    ) else {
        return parts;
    };
    // what a peer does with the shipped body on every request
    parts.compile = time_us(micro, 5, || {
        parse_query(&request.query).map(|m| compile_query(&m, true, &request.static_ctx))
    });
    // re-encoding what was decoded: the shipped fragments stand in for the
    // sender's source document, so work scales with what was kept
    parts.encode_request = time_us(micro, 5, || {
        let spec = request.result_spec.as_ref();
        encode_request(
            &store,
            request.semantics,
            &request.static_ctx,
            &request.query,
            &request.calls,
            None,
            spec,
        )
        .map(|_| ())
    });
    parts.encode_response = time_us(micro, 5, || {
        encode_response(
            &store,
            request.semantics,
            &results,
            request.result_spec.as_ref(),
        )
        .map(|_| ())
    });
    if let Some(spec) = &request.result_spec {
        parts.project = time_us(micro, 5, || {
            let mut used: BTreeMap<xqd::xml::DocId, Vec<u32>> = BTreeMap::new();
            let mut returned: BTreeMap<xqd::xml::DocId, Vec<u32>> = BTreeMap::new();
            for seq in &results {
                let nodes: Vec<_> = seq
                    .iter()
                    .filter_map(|i| match i {
                        Item::Node(n) => Some(*n),
                        Item::Atom(_) => None,
                    })
                    .collect();
                for n in nodes
                    .iter()
                    .copied()
                    .chain(eval_rel_paths(&store, &nodes, &spec.used))
                {
                    used.entry(n.doc).or_default().push(n.idx);
                }
                for n in eval_rel_paths(&store, &nodes, &spec.returned) {
                    returned.entry(n.doc).or_default().push(n.idx);
                }
            }
            let docs: Vec<_> = used.keys().chain(returned.keys()).copied().collect();
            for d in docs {
                let input = ProjectionInput::new(
                    used.remove(&d).unwrap_or_default(),
                    returned.remove(&d).unwrap_or_default(),
                );
                if input.is_empty() {
                    continue;
                }
                let doc = store.doc(d);
                let projection = compute_projection(doc, &input);
                black_box(build_projected(doc, &store.names, &projection, None));
            }
        });
    }
    parts
}

/// Round trip of one `payload`-byte frame over a loopback socket against
/// an echoing thread, median microseconds.
fn frame_round_trip_us(payload: usize, micro: Duration) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("frame echo bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let echo = std::thread::spawn(move || {
        let Ok((mut s, _)) = listener.accept() else {
            return;
        };
        let _ = s.set_nodelay(true);
        while let Ok(Some(frame)) = read_frame(&mut s, MAX_FRAME_LEN) {
            if write_frame(&mut s, &frame).is_err() {
                return;
            }
        }
    });
    let mut s = TcpStream::connect(addr).map_err(|e| format!("frame echo connect: {e}"))?;
    let _ = s.set_nodelay(true);
    let body = "x".repeat(payload);
    let mut ok = true;
    let us = time_us(micro, 20, || {
        ok &= write_frame(&mut s, &body).is_ok();
        ok &= matches!(read_frame(&mut s, MAX_FRAME_LEN), Ok(Some(f)) if f.len() == payload);
    });
    drop(s);
    echo.join()
        .map_err(|_| "frame echo thread panicked".to_string())?;
    if ok {
        Ok(us)
    } else {
        Err("frame echo lost a frame".to_string())
    }
}

/// First exchange on a fresh transport minus a pooled exchange right after
/// it: connection set-up as the coordinator sees it (the daemon's accept
/// loop polls every 10 ms).
fn connect_us(fleet: &Fleet, sample: &Captured) -> f64 {
    let mut first = Vec::new();
    let mut pooled = Vec::new();
    for _ in 0..8 {
        let transport = fleet.transport();
        for times in [&mut first, &mut pooled] {
            let t = Instant::now();
            let _ =
                black_box(transport.exchange(sample.peer, &sample.request, Duration::from_secs(5)));
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    (median(&first) - median(&pooled)).max(0.0)
}

fn write_spans(
    path: &str,
    workload: &str,
    recorders: &[Arc<RecordingTransport>],
) -> Result<usize, String> {
    use std::fmt::Write as _;
    let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"us\", \"spans\": [\n");
    let mut written = 0usize;
    let mut next_id = 0u64;
    for rec in recorders {
        let client = rec.client;
        let queries = rec.queries.lock().expect("span log");
        for q in queries.iter().take(SPAN_FILE_QUERIES) {
            let query_span = next_id;
            next_id += 1;
            let _ = writeln!(
                out,
                "{}{{\"id\": {query_span}, \"query\": {}, \"client\": {client}, \"name\": \"query\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": null}}",
                if written == 0 { "" } else { "," },
                q.id,
                q.start * 1e6,
                q.end * 1e6
            );
            written += 1;
            for e in &q.exchanges {
                let _ = writeln!(
                    out,
                    ",{{\"id\": {next_id}, \"query\": {}, \"client\": {client}, \"name\": \"xrpc.tcp.exchange\", \"peer\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {query_span}}}",
                    q.id,
                    e.peer,
                    e.start * 1e6,
                    e.end * 1e6
                );
                next_id += 1;
                written += 1;
            }
        }
    }
    out.push_str("]}\n");
    std::fs::create_dir_all("wirebench/out").map_err(|e| format!("creating wirebench/out: {e}"))?;
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
    Ok(written)
}

/// The traced run of one workload and seed.
pub fn run(workload: &'static Workload, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    // two loops (untraced reference, then traced) of a third of the
    // measuring time each: the traced run is the shorter one
    let half = Plan {
        cold_starts: plan.cold_starts.min(3),
        warmup: plan.warmup.min(1.0),
        windows: (plan.windows / 3).max(1),
        ..*plan
    };
    let micro = plan.micro;
    let prep = Prepared::new(workload, seed)?;
    let stage = Stage::new(&prep, seed)?;
    let (fleet, setup, ready) = stage.cold_starts(&half)?;
    let mut tally = Tally {
        attempted: setup.len() as u64 + 1,
        ..Tally::default()
    };
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- untraced reference, for the tracing overhead ---------------------
    let reference = closed_loop(&prep, &fleet, &half, |_| {
        let mut fed = fleet.coordinator();
        move |_, text: &str| fed.run(text, workload.strategy)
    });
    tally.add(&reference.tally);
    let reference_series = window_series(&reference, &half);
    let reference_p50 = best_fifth(&reference_series.p50_ms, false);
    // the tail did not repeat within the widest bound as an end-to-end
    // metric (it swung by a quarter between seeds on `bulk_ship`), so it
    // is reported here, unbounded: median window p90 of the untraced loop
    m.insert("bench.p90_ms", median(&reference_series.p90_ms));

    // ---- traced loop -------------------------------------------------------
    let origin = Instant::now();
    let recorders: Mutex<Vec<Arc<RecordingTransport>>> = Mutex::new(Vec::new());
    let daemons = fleet.pids();
    let switches_before: f64 = daemons.iter().map(|p| fleet::ctx_switches(*p)).sum();
    let rss_before: f64 = daemons.iter().map(|p| fleet::rss_mb(*p)).sum();
    let traced = closed_loop(&prep, &fleet, &half, |client| {
        let rec = Arc::new(RecordingTransport::new(
            client,
            fleet.transport(),
            origin,
            plan.captured_queries,
        ));
        recorders.lock().expect("recorders").push(Arc::clone(&rec));
        let mut fed = fleet::coordinator_over(Arc::<RecordingTransport>::clone(&rec));
        move |id, text: &str| rec.query(id, || fed.run(text, workload.strategy))
    });
    let switches_after: f64 = daemons.iter().map(|p| fleet::ctx_switches(*p)).sum();
    tally.add(&traced.tally);
    let recorders = recorders.into_inner().expect("recorders");
    let series = window_series(&traced, &half);
    let traced_p50 = best_fifth(&series.p50_ms, false);
    let loop_queries = traced.tally.attempted.max(1) as f64;

    m.insert(
        "xrpc.tcp.coordinator_cpu_ms_per_query",
        median(&series.driver_cpu_ms_per_query),
    );
    m.insert(
        "xrpc.server.cpu_ms_per_query",
        median(&series.daemon_cpu_ms_per_query),
    );
    m.insert(
        "xrpc.server.ctx_switches_per_query",
        (switches_after - switches_before) / loop_queries,
    );
    let rss_after: f64 = daemons.iter().map(|p| fleet::rss_mb(*p)).sum();
    let requests: usize = recorders
        .iter()
        .map(|r| {
            let queries = r.queries.lock().expect("span log");
            queries.iter().map(|q| q.exchanges.len()).sum::<usize>()
        })
        .sum();
    m.insert("xrpc.server.rss_mb", rss_after);
    // a daemon keeps every envelope it decodes in its store: this is that
    m.insert(
        "xrpc.server.rss_growth_kb_per_request",
        (rss_after - rss_before) * 1024.0 / requests.max(1) as f64,
    );
    m.insert("xrpc.server.ready_ms", median(&ready));
    m.insert(
        "xrpc.tcp.remote_calls_per_query",
        traced.tally.remote_calls as f64 / loop_queries,
    );
    m.insert(
        "xrpc.tcp.doc_fetches_per_query",
        traced.tally.doc_fetches as f64 / loop_queries,
    );
    m.insert(
        "xrpc.tcp.retries_per_query",
        traced.tally.retries as f64 / loop_queries,
    );
    m.insert(
        "xrpc.tcp.failovers_per_query",
        traced.tally.failovers as f64 / loop_queries,
    );
    m.insert(
        "bench.trace_overhead_pct",
        (traced_p50 / reference_p50 - 1.0) * 100.0,
    );

    // ---- per-query sums from the spans -------------------------------------
    // spans of warm-up queries are kept in the span file but not counted
    let opened = traced.opened.duration_since(origin).as_secs_f64();
    let (mut wall, mut exchange, mut own, mut count, mut req_b, mut resp_b, mut keys) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut busy, mut covered) = (0.0, 0.0);
    for rec in &recorders {
        for q in rec
            .queries
            .lock()
            .expect("span log")
            .iter()
            .filter(|q| q.start >= opened)
        {
            let spans = &q.exchanges;
            let intervals: Vec<(f64, f64)> = spans.iter().map(|e| (e.start, e.end)).collect();
            let sum: f64 = intervals.iter().map(|(s, e)| e - s).sum();
            let union = interval_union(&intervals);
            busy += sum;
            covered += union;
            wall.push((q.end - q.start) * 1e6);
            exchange.push(sum * 1e6);
            own.push((q.end - q.start - union) * 1e6);
            count.push(spans.len() as f64);
            req_b.push(spans.iter().map(|e| e.request_bytes as f64).sum());
            resp_b.push(spans.iter().map(|e| e.response_bytes as f64).sum());
            keys.push(spans.iter().map(|e| e.keys as f64).sum());
        }
    }
    if wall.is_empty() {
        return Err(format!(
            "{}: the traced loop recorded no query",
            workload.name
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let wall_us = median(&wall);
    m.insert("bench.query_wall_us", wall_us);
    m.insert("xrpc.tcp.exchange_us", median(&exchange));
    m.insert("xrpc.tcp.coordinator_self_us", median(&own));
    m.insert("xrpc.tcp.exchanges_per_query", mean(&count));
    m.insert("xrpc.message.request_bytes", mean(&req_b));
    m.insert("xrpc.message.response_bytes", mean(&resp_b));
    m.insert("xrpc.message.keyset_keys_per_query", mean(&keys));
    m.insert(
        "xrpc.tcp.overlap_ratio",
        if covered > 0.0 { busy / covered } else { 1.0 },
    );

    // ---- connection set-up, then the daemons are done -----------------------
    let captured: Vec<Captured> =
        std::mem::take(&mut *recorders[0].captured.lock().expect("capture log"));
    let sample = captured
        .first()
        .ok_or("the traced loop captured no envelope")?;
    m.insert("xrpc.tcp.connect_us", connect_us(&fleet, sample));
    let drained = drain_clean(fleet)?;
    m.insert("xrpc.server.served", drained.served as f64);
    m.insert("xrpc.server.shed", drained.shed as f64);
    // the in-process timings below keep the guard: same conditions as the loops

    // ---- replay of the captured envelopes -----------------------------------
    let replay = ReplayPeers::new(&prep)?;
    let mut replies_match = true;
    let mut per_query: BTreeMap<usize, ExchangeParts> = BTreeMap::new();
    for c in &captured {
        let parts = exchange_parts(c, &replay, micro, &mut replies_match);
        let sum = per_query.entry(c.query).or_default();
        sum.service += parts.service;
        sum.encode_request += parts.encode_request;
        sum.decode_request += parts.decode_request;
        sum.compile += parts.compile;
        sum.encode_response += parts.encode_response;
        sum.project += parts.project;
        sum.decode_response += parts.decode_response;
    }
    let over_queries =
        |pick: fn(&ExchangeParts) -> f64| median(&per_query.values().map(pick).collect::<Vec<_>>());
    let service = over_queries(|p| p.service);
    let (decode_request, compile, encode_response) = (
        over_queries(|p| p.decode_request),
        over_queries(|p| p.compile),
        over_queries(|p| p.encode_response),
    );
    let decode_response_us = over_queries(|p| p.decode_response);
    let encode_request_us = over_queries(|p| p.encode_request);
    m.insert("xrpc.message.encode_request_us", encode_request_us);
    m.insert("xrpc.exec.service_us", service);
    m.insert("xrpc.message.decode_request_us", decode_request);
    m.insert("xquery.compile.compile_us", compile);
    m.insert("xrpc.message.encode_response_us", encode_response);
    m.insert("xml.project.project_us", over_queries(|p| p.project));
    m.insert(
        "xquery.eval.eval_us",
        (service - decode_request - compile - encode_response).max(0.0),
    );
    m.insert("xrpc.message.decode_response_us", decode_response_us);
    m.insert("xrpc.tcp.wire_us", (median(&exchange) - service).max(0.0));

    // ---- coordinator front end, on the workload's query texts ---------------
    let dopts = DecomposeOptions {
        semijoin: ExecOptions::default().semijoin,
        ..DecomposeOptions::default()
    };
    let catalog = ReplicaCatalog::new();
    let pool = &prep.inputs.pool;
    let per_text = (micro * 2 / pool.len() as u32).max(Duration::from_millis(1));
    let parse_us = median(
        &pool
            .iter()
            .map(|q| time_us(per_text, 3, || parse_query(q).map(|_| ())))
            .collect::<Vec<_>>(),
    );
    let decompose_us = median(
        &pool
            .iter()
            .map(|q| {
                let module = parse_query(q).map_err(|e| format!("parse error: {e}"))?;
                Ok(time_us(per_text, 3, || {
                    decompose_with(&module, workload.strategy, dopts)
                        .map(|mut plan| plan.resolve_replicas(&catalog, 0))
                }))
            })
            .collect::<Result<Vec<_>, String>>()?,
    );
    m.insert("xquery.parser.parse_us", parse_us);
    m.insert("core.decompose.decompose_us", decompose_us);

    // ---- coordinator back end, on the workload's documents ------------------
    let doc_bytes: usize = prep.inputs.docs.iter().map(|d| d.xml.len()).sum();
    let parse_doc_us = time_us(micro * 2, 3, || {
        let mut store = Store::new();
        for d in &prep.inputs.docs {
            let _ = black_box(parse_document(&mut store, &d.xml, Some(&d.uri())));
        }
    });
    m.insert("xml.parser.parse_mb_s", doc_bytes as f64 / parse_doc_us);
    let mut shredded = Store::new();
    let ids: Vec<_> = prep
        .inputs
        .docs
        .iter()
        .map(|d| {
            parse_document(&mut shredded, &d.xml, Some(&d.uri()))
                .map_err(|e| format!("{}: {e}", d.uri()))
        })
        .collect::<Result<_, _>>()?;
    let serialize_us = time_us(micro * 2, 3, || {
        for id in &ids {
            black_box(serialize_document(shredded.doc(*id), &shredded.names));
        }
    });
    m.insert(
        "xml.serialize.serialize_mb_s",
        doc_bytes as f64 / serialize_us,
    );
    // the index is cached on the document, so every build needs a fresh copy
    let mut builds = Vec::new();
    for _ in 0..5 {
        let mut fresh = shredded.clone();
        let t = Instant::now();
        for id in &ids {
            fresh.ensure_name_index(*id);
        }
        builds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.insert("xml.index.build_ms", median(&builds));
    // with the documents local (which is what data shipping makes them) the
    // coordinator evaluates the whole query itself
    let coordinator_eval_us = if traced.tally.doc_fetches > 0 {
        let module = parse_query(&pool[0]).map_err(|e| format!("parse error: {e}"))?;
        // a fresh store per query, as the coordinator has; cloning it is not
        // part of the evaluation
        let mut times = Vec::new();
        for _ in 0..5 {
            let mut fresh = shredded.clone();
            let t = Instant::now();
            let _ = black_box(eval_query(&mut fresh, &module));
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        median(&times)
    } else {
        0.0
    };
    m.insert("xquery.eval.coordinator_eval_us", coordinator_eval_us);

    // ---- frames over loopback ----------------------------------------------
    m.insert(
        "xrpc.transport.frame_small_us",
        frame_round_trip_us(512, micro)?,
    );
    let mb = 1 << 20;
    m.insert(
        "xrpc.transport.frame_mb_s",
        2.0 * mb as f64 / frame_round_trip_us(mb, micro)?,
    );

    // ---- how much of a query's wall time the layers above account for ------
    let attributed = parse_us
        + decompose_us
        + encode_request_us
        + median(&exchange)
        + decode_response_us
        + coordinator_eval_us;
    m.insert("bench.attributed_share", attributed / wall_us);
    m.insert(
        "bench.fail_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    // ends the placement's spinners, which would count as orphans
    drop(stage);
    let orphans = fleet::orphans();
    let span_file = format!("wirebench/out/trace-{}.json", workload.name);
    let spans = write_spans(&span_file, workload.name, &recorders)?;

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = *m
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (*name, value, *unit)
        })
        .collect();
    let detail = obj(vec![
        ("workload", Value::Str(workload.name.to_string())),
        ("seed", Value::Num(seed as f64)),
        ("traced_queries", Value::Num(wall.len() as f64)),
        ("captured_exchanges", Value::Num(captured.len() as f64)),
        ("replayed_replies_match", Value::Bool(replies_match)),
        ("reference_p50_ms", Value::Num(reference_p50)),
        ("traced_p50_ms", Value::Num(traced_p50)),
        ("span_file", Value::Str(span_file)),
        ("spans_written", Value::Num(spans as f64)),
        ("orphans", Value::Num(orphans as f64)),
    ]);
    let correct = tally.failed == 0
        && tally.retries == 0
        && tally.failovers == 0
        && orphans == 0
        && replies_match;
    Ok(Outcome {
        correct,
        tally,
        metrics,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::byte_prefix;
    use crate::workload::by_name;

    /// `wire_bytes_per_query` without a socket: the byte-count prefix over
    /// the in-process peers moves exactly the envelopes a daemon would see.
    fn wire_bytes(workload: &str, seed: u64) -> f64 {
        let prep = Prepared::new(by_name(workload).unwrap(), seed).unwrap();
        let mut tally = Tally::default();
        let bytes = byte_prefix(&prep, ReplayPeers::new(&prep).unwrap(), &mut tally);
        assert_eq!(
            tally.failed, 0,
            "{workload}: every prefix query must match the oracle"
        );
        assert_eq!(tally.attempted as usize, prep.workload.byte_prefix);
        bytes
    }

    #[test]
    fn same_seed_same_wire_bytes() {
        for workload in ["point_lookup", "xmark_semijoin", "bulk_ship"] {
            let (a, b) = (wire_bytes(workload, 5), wire_bytes(workload, 5));
            assert!(a > 0.0);
            assert_eq!(
                a, b,
                "{workload}: wire bytes must repeat exactly for a seed"
            );
        }
    }
}
