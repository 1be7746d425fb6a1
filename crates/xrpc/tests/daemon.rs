//! Daemon-mode robustness: real TCP sockets under the [`Transport`] seam.
//!
//! Everything here runs multi-threaded but single-process — live
//! [`PeerServer`] daemons on ephemeral localhost ports, driven by
//! [`Federation::over`] or by a raw framed socket. The multi-*process*
//! version of the same discipline (kill -9 included) lives in
//! `examples/crash_harness.rs`.
//!
//! Invariants under test:
//!
//! * the same query over TCP returns **bit-identical** canonical results
//!   to the simulated federation, across all three strategies — cold, and
//!   again warm from the socket coordinator's plan cache, whose plans a
//!   newly registered replica leaves valid (hosts are picked per call);
//! * malformed-but-well-framed payloads get a typed fault and the
//!   connection **stays usable** — including a query body nested far past
//!   the parser's depth bound; frame-level desync (mid-frame EOF,
//!   oversized declared length) gets a typed fault and then a close;
//! * admission beyond `max_inflight` sheds with `xrpc:overloaded`
//!   carrying an honest `retry-after-ms`;
//! * drain cancels in-flight work with `xrpc:timeout` inside the drain
//!   deadline, refuses new connections with a typed fault meanwhile, and
//!   always reaches a bounded clean exit;
//! * the accept loop blocks instead of polling: a fresh connection is
//!   served at once, and drain wakes the blocked loop;
//! * a dead (or drained) peer yields a typed error — or, with a replica
//!   registered, the identical result via failover;
//! * scatter rounds fan out over the sockets with nothing observable
//!   moved: results and per-peer request bytes are identical with
//!   `parallel_scatter` on and off, a failing slot is reported in call
//!   order, two slots for one peer share its one connection in call order;
//! * a pooled connection the daemon closed at its idle timeout costs one
//!   transparent reconnect — no retry, no mark against the peer's health;
//! * a run over sockets is a full [`Federation`] run: the metric registry
//!   counts the bytes and exchanges that really crossed the wire (for
//!   function shipping the bytes the simulated run bills, for data shipping
//!   those plus one fixed envelope per fetch), and a trace has the simulated
//!   trace's shape on a measured clock.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xqd_core::Strategy;
use xqd_xrpc::{
    decode_doc_response, decode_fault, encode_doc_request, encode_doc_response, encode_request,
    read_frame,
    write_frame, BreakerState, ExecOptions, Federation, NetworkModel, PeerServer, RetryPolicy,
    ServerConfig, TcpTransport, Transport, WireSemantics, XrpcError,
    MAX_FRAME_LEN,
};

const PEOPLE: &str = r#"<people><person id="p1"><age>31</age></person><person id="p2"><age>55</age></person><person id="p3"><age>24</age></person></people>"#;
const ORDERS: &str = r#"<orders><order buyer="p1"><total>10</total></order><order buyer="p2"><total>70</total></order><order buyer="p3"><total>5</total></order><order buyer="p1"><total>3</total></order></orders>"#;

/// A federated value join across both peers — the workload the crash
/// harness also runs.
const JOIN_QUERY: &str = r#"
    let $y := doc("xrpc://P1/people.xml")//person[age < 40]
    return for $o in doc("xrpc://P2/orders.xml")//order
           return if ($o/@buyer = $y/@id) then $o/total else ()
"#;

fn daemon(name: &str, config: ServerConfig) -> PeerServer {
    let mut s = PeerServer::bind(name, "127.0.0.1:0", config).expect("bind ephemeral port");
    match name {
        "P1" => s.load_document("people.xml", PEOPLE).unwrap(),
        "P2" => s.load_document("orders.xml", ORDERS).unwrap(),
        _ => {}
    }
    s.start();
    s
}

fn socket_fed(servers: &[&PeerServer]) -> Federation {
    let transport = TcpTransport::new();
    for s in servers {
        transport.register(s.name(), &s.addr().to_string());
    }
    Federation::over(Arc::new(transport))
}

/// Sends one framed payload and reads one framed reply on a fresh
/// connection.
fn raw_exchange(stream: &mut TcpStream, payload: &str) -> Option<String> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(stream, payload).ok()?;
    read_frame(stream, MAX_FRAME_LEN).ok().flatten()
}

// ---------------------------------------------------------------------------
// equivalence across the seam
// ---------------------------------------------------------------------------

#[test]
fn tcp_results_are_bit_identical_to_simulated() {
    let mut sim = Federation::new(NetworkModel::lan());
    sim.load_document("P1", "people.xml", PEOPLE).unwrap();
    sim.load_document("P2", "orders.xml", ORDERS).unwrap();

    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let mut fed = socket_fed(&[&p1, &p2]);

    for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
        let expected = sim.run(JOIN_QUERY, strategy).expect("simulated run");
        let got = fed.run(JOIN_QUERY, strategy).expect("tcp run");
        assert_eq!(
            got.result, expected.result,
            "TCP and simulated results diverge under {strategy:?}"
        );
        assert!(!got.result.is_empty(), "join produced no rows");
        assert!(
            got.metrics.remote_calls + got.metrics.doc_fetches > 0,
            "query never crossed the wire under {strategy:?}"
        );
    }
    for mut s in [p1, p2] {
        assert!(s.drain().clean, "idle daemon must drain cleanly");
    }
}

/// The socket coordinator runs compiled plans out of the shared front end:
/// a semi-join and a two-peer scatter each return the simulated answer
/// cold, the same answer warm (second run = plan-cache hit), and a replica
/// registered between runs needs no re-plan — the cached plan fails over
/// to it once the primary is gone, because hosts are picked per call.
#[test]
fn tcp_runs_cached_compiled_plans_and_reroutes_them_to_new_replicas() {
    let scatter = r#"(count(doc("xrpc://P1/people.xml")//person),
                      count(doc("xrpc://P2/orders.xml")//order))"#;
    let mut sim = Federation::new(NetworkModel::lan());
    sim.load_document("P1", "people.xml", PEOPLE).unwrap();
    sim.load_document("P2", "orders.xml", ORDERS).unwrap();

    let mut p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let mut p3 = PeerServer::bind("P3", "127.0.0.1:0", ServerConfig::default()).unwrap();
    p3.load_replica("xrpc://P1/people.xml", PEOPLE).unwrap();
    p3.start();
    let mut fed = socket_fed(&[&p1, &p2, &p3]);
    fed.set_retry_policy(fast_retry());

    for query in [JOIN_QUERY, scatter] {
        let expected = sim.run(query, Strategy::ByProjection).expect("simulated run");
        let cold = fed.run(query, Strategy::ByProjection).expect("cold tcp run");
        let warm = fed.run(query, Strategy::ByProjection).expect("warm tcp run");
        assert_eq!(cold.result, expected.result, "cold run diverged on {query}");
        assert_eq!(warm.result, expected.result, "warm run diverged on {query}");
        assert_eq!(cold.metrics.remote_calls, expected.metrics.remote_calls, "{query}");
        assert_eq!(warm.metrics.remote_calls, cold.metrics.remote_calls, "{query}");
    }
    assert_eq!(fed.plan_cache_len(), 2, "each warm run must have hit the cold run's plan");
    let semijoin = sim.run(JOIN_QUERY, Strategy::ByProjection).unwrap();
    assert_eq!(semijoin.metrics.semijoins, 1, "fixture must exercise the semi-join rewrite");

    // the cached join plan predates P3; the ladder reaches it all the same
    fed.register_replica("xrpc://P1/people.xml", "P3");
    assert!(p1.drain().clean);
    let rerouted = fed.run(JOIN_QUERY, Strategy::ByProjection).expect("failover run");
    assert_eq!(rerouted.result, semijoin.result);
    assert_eq!(fed.plan_cache_len(), 2, "a new replica must not cost a re-plan");
    assert!(rerouted.metrics.replica_failovers > 0, "the replica rung was never used");
}

#[test]
fn doc_request_over_raw_socket_ships_the_document() {
    let p1 = daemon("P1", ServerConfig::default());
    let mut stream = TcpStream::connect(p1.addr()).unwrap();
    let reply = raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
        .expect("doc reply frame");
    let xml = decode_doc_response(&reply).expect("doc envelope");
    assert!(xml.contains("person"), "shipped document lost content: {xml}");
}

/// A daemon serves a fetched document from the text it serialized on the
/// first fetch: repeat requests, on one connection or a fresh one, get the
/// same frame, byte for byte the envelope of the document serialized anew.
#[test]
fn repeated_doc_requests_return_the_same_frame() {
    let p1 = daemon("P1", ServerConfig::default());
    let uri = "xrpc://P1/people.xml";
    let mut store = xqd_xml::Store::new();
    let doc = xqd_xml::parse_document(&mut store, PEOPLE, Some(uri)).unwrap();
    let want = encode_doc_response(uri, &xqd_xml::serialize_document(store.doc(doc), &store.names));
    let request = encode_doc_request(uri);
    let mut stream = TcpStream::connect(p1.addr()).unwrap();
    let first = raw_exchange(&mut stream, &request).expect("first doc reply frame");
    let second = raw_exchange(&mut stream, &request).expect("second doc reply frame");
    let mut fresh = TcpStream::connect(p1.addr()).unwrap();
    let third = raw_exchange(&mut fresh, &request).expect("doc reply frame on a new connection");
    assert_eq!(first, want);
    assert_eq!(second, want);
    assert_eq!(third, want);
}

/// The accept loop blocks in `accept`: a new connection is served the
/// moment it arrives, not at the loop's next poll. Twenty requests, each
/// on a connection of its own, take a few milliseconds in all; a loop
/// polling every 10 ms would hold them over 180 ms.
#[test]
fn fresh_connections_are_accepted_without_a_poll() {
    let p1 = daemon("P1", ServerConfig::default());
    let request = encode_doc_request("xrpc://P1/people.xml");
    let t0 = Instant::now();
    for _ in 0..20 {
        let mut stream = TcpStream::connect(p1.addr()).unwrap();
        let reply = raw_exchange(&mut stream, &request).expect("doc reply frame");
        assert!(decode_doc_response(&reply).is_some(), "{reply}");
    }
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(100), "20 fresh connections took {took:?}");
}

// ---------------------------------------------------------------------------
// malformed and desynced frames
// ---------------------------------------------------------------------------

#[test]
fn malformed_payload_gets_typed_fault_and_connection_survives() {
    let p1 = daemon("P1", ServerConfig::default());
    let mut stream = TcpStream::connect(p1.addr()).unwrap();

    // well-framed garbage: typed fault, connection stays open
    let reply = raw_exchange(&mut stream, "this is not an envelope").expect("fault frame");
    let fault = decode_fault(&reply).expect("typed fault for malformed payload");
    assert_eq!(fault.code(), "xrpc:transport-corrupt", "{fault:?}");

    // the same connection still serves a valid request afterwards
    let reply = raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
        .expect("connection must survive a malformed payload");
    assert!(decode_doc_response(&reply).is_some(), "second request failed: {reply}");
}

/// A 200 kB query of 100 000 nested parentheses used to overflow the worker
/// thread's stack in the parser and abort the whole daemon; it must be an
/// ordinary typed fault, and the connection must serve the next request.
#[test]
fn hostile_deep_query_gets_typed_fault_and_daemon_keeps_serving() {
    let p1 = daemon("P1", ServerConfig::default());
    let mut stream = TcpStream::connect(p1.addr()).unwrap();

    let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
    let request = encode_request(
        &xqd_xml::Store::new(),
        WireSemantics::Value,
        &Default::default(),
        &deep,
        &[Vec::new()],
        None,
        None,
    )
    .unwrap();
    let reply = raw_exchange(&mut stream, &request).expect("fault frame");
    let fault = decode_fault(&reply).expect("typed fault for the hostile body");
    assert!(fault.to_string().contains("nested deeper"), "{fault}");

    let reply = raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
        .expect("daemon must survive the hostile body");
    assert!(decode_doc_response(&reply).is_some(), "next request failed: {reply}");
}

/// A 140 kB frame of 20 000 nested elements used to overflow the worker
/// thread's stack in the XML parser and abort the whole daemon; it must be
/// a typed fault, and the connection must serve the next request.
#[test]
fn hostile_deep_envelope_gets_typed_fault_and_daemon_keeps_serving() {
    let p1 = daemon("P1", ServerConfig::default());
    let mut stream = TcpStream::connect(p1.addr()).unwrap();

    let deep = format!("{}{}", "<a>".repeat(20_000), "</a>".repeat(20_000));
    let request = format!(
        "<env><request semantics=\"value\"><query>1</query><call><param name=\"x\">\
         <sequence>{deep}</sequence></param></call></request></env>"
    );
    let reply = raw_exchange(&mut stream, &request).expect("fault frame");
    let fault = decode_fault(&reply).expect("typed fault for the hostile envelope");
    assert_eq!(fault.code(), "xrpc:transport-corrupt", "{fault}");
    assert!(fault.to_string().contains("nested deeper"), "{fault}");

    let reply = raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
        .expect("daemon must survive the hostile envelope");
    assert!(decode_doc_response(&reply).is_some(), "next request failed: {reply}");
}

#[test]
fn mid_frame_eof_gets_typed_fault_then_close() {
    let p1 = daemon("P1", ServerConfig::default());
    let mut stream = TcpStream::connect(p1.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // declare 100 payload bytes, deliver 10, then half-close: the server
    // must answer with a typed fault before closing its side
    {
        use std::io::Write as _;
        stream.write_all(&100u32.to_be_bytes()).unwrap();
        stream.write_all(b"0123456789").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
    }
    let reply = read_frame(&mut stream, MAX_FRAME_LEN)
        .expect("fault frame expected")
        .expect("fault frame expected");
    let fault = decode_fault(&reply).expect("typed fault for mid-frame EOF");
    assert_eq!(fault.code(), "xrpc:transport-corrupt", "{fault:?}");
    // and then the close
    assert!(read_frame(&mut stream, MAX_FRAME_LEN).unwrap().is_none());
}

#[test]
fn oversized_declared_length_gets_typed_fault_then_close() {
    let p1 = daemon("P1", ServerConfig::default());
    let mut stream = TcpStream::connect(p1.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    {
        use std::io::Write as _;
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        stream.flush().unwrap();
    }
    let reply = read_frame(&mut stream, MAX_FRAME_LEN)
        .expect("fault frame expected")
        .expect("fault frame expected");
    let fault = decode_fault(&reply).expect("typed fault for oversized length");
    assert_eq!(fault.code(), "xrpc:transport-corrupt", "{fault:?}");
    assert!(read_frame(&mut stream, MAX_FRAME_LEN).unwrap().is_none());
}

/// A budget covers the whole reply, not each `recv` of it: a peer that
/// declares 64 bytes and sends one every 40 ms (each inside a 150 ms
/// per-read timeout, 2.5 s in all) is a typed timeout at the budget.
#[test]
fn trickled_reply_is_a_typed_timeout_inside_the_exchange_budget() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let trickler = std::thread::spawn(move || {
        use std::io::Write as _;
        let (mut conn, _) = listener.accept().unwrap();
        read_frame(&mut conn, MAX_FRAME_LEN).unwrap().expect("the request frame");
        conn.write_all(&64u32.to_be_bytes()).unwrap();
        for _ in 0..64 {
            std::thread::sleep(Duration::from_millis(40));
            if conn.write_all(b"x").is_err() {
                return; // the client gave up and closed: what it should do
            }
        }
    });
    let transport = TcpTransport::new();
    transport.register("T", &addr.to_string());
    let budget = Duration::from_millis(150);
    let t0 = Instant::now();
    let outcome = transport.exchange("T", "<env><request/></env>", budget);
    let took = t0.elapsed();
    let err = outcome.expect_err("a reply trickling past the budget is no success");
    assert_eq!(err.code(), "xrpc:timeout", "{err}");
    assert!(took < 2 * budget, "a {budget:?} budget held the caller {took:?}");
    trickler.join().unwrap();
}

/// The daemon's side of the same rule (slow-loris): a client that started
/// a frame must finish it within `read_timeout`, however it paces its
/// bytes; it gets a typed timeout fault, then the close, and the daemon
/// serves the next connection.
#[test]
fn trickled_request_gets_a_typed_timeout_then_close() {
    let read_timeout = Duration::from_millis(150);
    let p1 = daemon("P1", ServerConfig { read_timeout, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(p1.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let t0 = Instant::now();
    let trickler = std::thread::spawn(move || {
        use std::io::Write as _;
        writer.write_all(&64u32.to_be_bytes()).unwrap();
        for _ in 0..64 {
            std::thread::sleep(Duration::from_millis(40));
            if writer.write_all(b"x").is_err() {
                return; // the daemon closed on us
            }
        }
    });
    let reply = read_frame(&mut stream, MAX_FRAME_LEN)
        .expect("fault frame expected")
        .expect("fault frame expected");
    let took = t0.elapsed();
    let fault = decode_fault(&reply).expect("typed fault for a trickled frame");
    assert_eq!(fault.code(), "xrpc:timeout", "{fault:?}");
    assert!(took < 2 * read_timeout, "a {read_timeout:?} read deadline held {took:?}");
    assert!(matches!(read_frame(&mut stream, MAX_FRAME_LEN), Ok(None) | Err(_)), "then the close");
    trickler.join().unwrap();

    let mut next = TcpStream::connect(p1.addr()).unwrap();
    let reply = raw_exchange(&mut next, &encode_doc_request("xrpc://P1/people.xml"))
        .expect("the daemon serves the next connection");
    assert!(decode_doc_response(&reply).is_some(), "{reply}");
}

// ---------------------------------------------------------------------------
// admission: bounded in-flight with honest hints
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_with_typed_fault_and_retry_after() {
    let config = ServerConfig {
        max_inflight: 1,
        request_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let p1 = daemon("P1", config);
    // hold the peer's evaluation slot so the admitted request stays in
    // flight for as long as we need it to
    let slot = p1.pause_peer().expect("peer slot");

    let addr = p1.addr();
    let blocked = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
    });
    // deterministic wait: the request is genuinely in flight
    let t0 = Instant::now();
    while p1.inflight() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "request never became in-flight");
        std::thread::yield_now();
    }

    // second request: over the in-flight bound, shed with an honest hint
    let mut stream = TcpStream::connect(addr).unwrap();
    let reply = raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
        .expect("overload fault frame");
    let fault = decode_fault(&reply).expect("typed overload fault");
    match fault {
        XrpcError::Overloaded { retry_after_ms } => {
            assert!(retry_after_ms >= 1, "hint must be honest, got {retry_after_ms}ms");
        }
        other => panic!("expected xrpc:overloaded, got {other:?}"),
    }
    assert_eq!(p1.shed(), 1);

    // release the slot: the blocked request completes normally
    p1.resume_peer(slot);
    let reply = blocked.join().unwrap().expect("blocked request must complete");
    assert!(decode_doc_response(&reply).is_some(), "blocked request failed: {reply}");
}

// ---------------------------------------------------------------------------
// graceful drain
// ---------------------------------------------------------------------------

#[test]
fn drain_cancels_inflight_with_timeout_and_refuses_new_connections() {
    let config = ServerConfig {
        request_deadline: Duration::from_secs(30),
        drain_deadline: Duration::from_millis(600),
        ..ServerConfig::default()
    };
    let mut p1 = daemon("P1", config);
    // a request that can never finish: the evaluation slot is held
    let _slot = p1.pause_peer().expect("peer slot");
    let addr = p1.addr();
    let inflight = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
    });
    let t0 = Instant::now();
    while p1.inflight() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "request never became in-flight");
        std::thread::yield_now();
    }

    // while the drain waits out its deadline, fresh connections must be
    // refused with a typed fault; the prober retries until it sees one
    let saw_refusal = Arc::new(AtomicBool::new(false));
    let prober = {
        let saw_refusal = Arc::clone(&saw_refusal);
        std::thread::spawn(move || {
            let give_up = Instant::now() + Duration::from_secs(5);
            while Instant::now() < give_up {
                let Ok(mut stream) = TcpStream::connect(addr) else { return };
                let Some(reply) =
                    raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml"))
                else {
                    return; // listener gone: drain already finished
                };
                if let Some(fault) = decode_fault(&reply) {
                    if fault.code() == "xrpc:cancelled" {
                        saw_refusal.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    let report = p1.drain();
    // the in-flight request was cancelled *with a typed fault* inside the
    // drain deadline — not left hanging, not force-killed
    let reply = inflight.join().unwrap().expect("cancelled request still gets a reply");
    let fault = decode_fault(&reply).expect("typed cancellation fault");
    assert_eq!(fault.code(), "xrpc:timeout", "{fault:?}");
    assert_eq!(report.cancelled_inflight, 0, "request wound down by itself");
    assert!(report.clean, "drain must be clean: {report:?}");
    assert!(
        report.elapsed < Duration::from_secs(3),
        "drain must be bounded, took {:?}",
        report.elapsed
    );
    prober.join().unwrap();
    assert!(
        saw_refusal.load(Ordering::SeqCst),
        "no connection observed the typed draining refusal"
    );
}

#[test]
fn idle_drain_is_clean_and_immediate() {
    let mut p1 = daemon("P1", ServerConfig::default());
    // serve one request so the daemon has done real work
    let mut stream = TcpStream::connect(p1.addr()).unwrap();
    let reply = raw_exchange(&mut stream, &encode_doc_request("xrpc://P1/people.xml")).unwrap();
    assert!(decode_doc_response(&reply).is_some());
    drop(stream);
    let report = p1.drain();
    assert!(report.clean, "{report:?}");
    assert_eq!(report.served, 1);
    assert!(report.elapsed < Duration::from_secs(3), "idle drain took {:?}", report.elapsed);
}

/// Drain wakes an accept loop that is blocked with nothing to accept —
/// also when the daemon listens on every interface, where the wake
/// connection goes to loopback — and the port is free again right after.
#[test]
fn drain_wakes_a_blocked_accept() {
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let mut server = PeerServer::bind("P1", bind, ServerConfig::default()).unwrap();
        server.start();
        let addr = server.addr();
        let report = server.drain();
        assert!(report.clean, "{bind}: {report:?}");
        assert!(report.elapsed < Duration::from_secs(1), "{bind}: drain took {:?}", report.elapsed);
        std::net::TcpListener::bind(addr)
            .unwrap_or_else(|e| panic!("{bind}: port {} still held after drain: {e}", addr.port()));
    }
}

// ---------------------------------------------------------------------------
// dead peers: typed error, or the identical result via a replica
// ---------------------------------------------------------------------------

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        deadline: Duration::from_millis(500),
    }
}

#[test]
fn dead_peer_yields_typed_error_not_hang() {
    let p1 = daemon("P1", ServerConfig::default());
    // P2 is registered at an address nobody listens on
    let transport = Arc::new(TcpTransport::new());
    let mut fed = Federation::over(Arc::<TcpTransport>::clone(&transport));
    transport.register("P1", &p1.addr().to_string());
    transport.register("P2", "127.0.0.1:1"); // reserved port: refused
    fed.set_retry_policy(fast_retry());
    let t0 = Instant::now();
    let err = fed.run(JOIN_QUERY, Strategy::ByFragment).expect_err("dead peer must error");
    assert!(err.code.is_some(), "error must be typed: {err:?}");
    assert!(t0.elapsed() < Duration::from_secs(5), "bounded by deadline, took {:?}", t0.elapsed());
}

#[test]
fn drained_primary_fails_over_to_replica_with_identical_result() {
    let mut sim = Federation::new(NetworkModel::lan());
    sim.load_document("P1", "people.xml", PEOPLE).unwrap();
    sim.load_document("P2", "orders.xml", ORDERS).unwrap();
    let expected = sim.run(JOIN_QUERY, Strategy::ByProjection).unwrap();

    let mut p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    // P3 serves a bit-identical replica of P1's document
    let mut p3 = PeerServer::bind("P3", "127.0.0.1:0", ServerConfig::default()).unwrap();
    p3.load_replica("xrpc://P1/people.xml", PEOPLE).unwrap();
    p3.start();

    let mut fed = socket_fed(&[&p1, &p2, &p3]);
    fed.register_replica("xrpc://P1/people.xml", "P3");
    fed.set_retry_policy(fast_retry());

    // healthy run first: identical to simulated
    let healthy = fed.run(JOIN_QUERY, Strategy::ByProjection).expect("healthy run");
    assert_eq!(healthy.result, expected.result);

    // drain the primary mid-federation; the ladder must reach the replica
    assert!(p1.drain().clean);
    let failed_over = fed.run(JOIN_QUERY, Strategy::ByProjection).expect("failover run");
    assert_eq!(
        failed_over.result, expected.result,
        "failover result must be bit-identical to the healthy one"
    );
    assert!(failed_over.metrics.replica_failovers > 0, "the replica rung was never used");
}

// ---------------------------------------------------------------------------
// scatter rounds over real sockets
// ---------------------------------------------------------------------------

/// The three plan shapes that carry a scatter round: a `scaleout`-style
/// sequence of per-peer aggregates, a let-chain, and a binary operator's
/// two operands.
const SCATTER_SHAPES: [&str; 3] = [
    r#"(count(for $p in doc("xrpc://P1/people.xml")/child::people/child::person
              return if ($p/descendant::age < 40) then $p else ()),
        count(for $o in doc("xrpc://P2/orders.xml")/child::orders/child::order
              return if ($o/descendant::total < 40) then $o else ()))"#,
    r#"let $a := count(doc("xrpc://P1/people.xml")//person)
       let $b := sum(doc("xrpc://P2/orders.xml")//total)
       return $a + $b"#,
    r#"count(doc("xrpc://P1/people.xml")//person) + count(doc("xrpc://P2/orders.xml")//order)"#,
];

/// A round with two slots for P1 around one for P2.
const SAME_PEER_TWICE: &str = r#"(count(doc("xrpc://P1/people.xml")//person),
                                  count(doc("xrpc://P2/orders.xml")//order),
                                  sum(doc("xrpc://P1/people.xml")//age))"#;

/// A daemon counts a request served just *after* its reply is written, so
/// the client can be ahead of the counter: wait for it, bounded.
fn assert_served(server: &PeerServer, expected: u64) {
    let t0 = Instant::now();
    while server.served() < expected {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "{} served {} of {expected} requests",
            server.name(),
            server.served()
        );
        std::thread::yield_now();
    }
    assert_eq!(server.served(), expected, "{} served too many requests", server.name());
}

fn sim_fed() -> Federation {
    let mut sim = Federation::new(NetworkModel::lan());
    sim.load_document("P1", "people.xml", PEOPLE).unwrap();
    sim.load_document("P2", "orders.xml", ORDERS).unwrap();
    sim
}

/// [`TcpTransport`] with every request logged under its destination, in
/// the order that destination was sent them.
struct RecordingTransport {
    inner: TcpTransport,
    sent: Mutex<BTreeMap<String, Vec<String>>>,
    /// Request plus reply bytes over all exchanges.
    bytes: AtomicU64,
}

impl Transport for RecordingTransport {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        self.sent.lock().unwrap().entry(peer.to_string()).or_default().push(request.to_string());
        let reply = self.inner.exchange(peer, request, budget)?;
        self.bytes.fetch_add((request.len() + reply.len()) as u64, Ordering::SeqCst);
        Ok(reply)
    }
}

fn recording_transport(servers: &[&PeerServer]) -> Arc<RecordingTransport> {
    let inner = TcpTransport::new();
    for s in servers {
        inner.register(s.name(), &s.addr().to_string());
    }
    Arc::new(RecordingTransport { inner, sent: Mutex::new(BTreeMap::new()), bytes: AtomicU64::new(0) })
}

fn recording_fed(
    servers: &[&PeerServer],
    parallel_scatter: bool,
) -> (Federation, Arc<RecordingTransport>) {
    let transport = recording_transport(servers);
    let mut fed = Federation::over(Arc::<RecordingTransport>::clone(&transport));
    fed.set_exec_options(ExecOptions {
        parallel_scatter,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        ..ExecOptions::default()
    });
    (fed, transport)
}

#[test]
fn tcp_scatter_matches_simulated_and_sends_the_same_bytes_either_way() {
    let mut sim = sim_fed();
    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let (mut par, par_sent) = recording_fed(&[&p1, &p2], true);
    let (mut seq, seq_sent) = recording_fed(&[&p1, &p2], false);

    for query in SCATTER_SHAPES {
        for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
            let expected = sim.run(query, strategy).expect("simulated run");
            assert_eq!(expected.plan.scatter_rounds, vec![2], "fixture lost its round: {query}");
            let fanned = par.run(query, strategy).expect("parallel tcp run");
            let looped = seq.run(query, strategy).expect("sequential tcp run");
            assert_eq!(fanned.result, expected.result, "{strategy:?} {query}");
            assert_eq!(looped.result, expected.result, "{strategy:?} {query}");
            assert_eq!(fanned.metrics.remote_calls, expected.metrics.remote_calls, "{query}");
            assert_eq!(looped.metrics.remote_calls, fanned.metrics.remote_calls, "{query}");
            assert_eq!((fanned.metrics.retries, fanned.metrics.replica_failovers), (0, 0));
        }
    }
    let par_sent = par_sent.sent.lock().unwrap();
    assert_eq!(par_sent.keys().collect::<Vec<_>>(), ["P1", "P2"]);
    assert_eq!(*par_sent, *seq_sent.sent.lock().unwrap(), "fan-out moved request bytes");
}

#[test]
fn scatter_slot_for_a_dead_peer_is_the_first_typed_error_in_call_order() {
    let p1 = daemon("P1", ServerConfig::default());
    let transport = Arc::new(TcpTransport::new());
    let mut fed = Federation::over(Arc::<TcpTransport>::clone(&transport));
    transport.register("P1", &p1.addr().to_string());
    // two dead destinations either side of the live one: reserved ports
    transport.register("P2", "127.0.0.1:1");
    transport.register("P9", "127.0.0.1:2");
    fed.set_retry_policy(fast_retry());
    let query = r#"(count(doc("xrpc://P2/orders.xml")//order),
                    count(doc("xrpc://P1/people.xml")//person),
                    count(doc("xrpc://P9/orders.xml")//order))"#;
    let t0 = Instant::now();
    let err = fed.run(query, Strategy::ByValue).expect_err("dead peers must error");
    assert!(t0.elapsed() < Duration::from_secs(5), "bounded by deadline, took {:?}", t0.elapsed());
    assert!(err.code.is_some(), "error must be typed: {err:?}");
    assert!(err.message.contains("P2"), "slot 0 failed first in call order: {err:?}");
    assert!(!err.message.contains("P9"), "a later slot's error won: {err:?}");
    // every slot was sent, and the surviving peer is none the worse for it
    assert_served(&p1, 1);
    assert_eq!(fed.breaker_state("P1"), BreakerState::Closed);
    let alive = fed
        .run(r#"count(doc("xrpc://P1/people.xml")//person)"#, Strategy::ByValue)
        .expect("surviving peer must still answer");
    assert_eq!(alive.result, vec!["atom:3"]);
}

#[test]
fn scatter_slot_fails_over_to_its_replica_and_leaves_the_other_slot_alone() {
    let expected = sim_fed().run(SCATTER_SHAPES[0], Strategy::ByProjection).unwrap();
    let mut p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let mut p3 = PeerServer::bind("P3", "127.0.0.1:0", ServerConfig::default()).unwrap();
    p3.load_replica("xrpc://P1/people.xml", PEOPLE).unwrap();
    p3.start();
    let mut fed = socket_fed(&[&p1, &p2, &p3]);
    fed.register_replica("xrpc://P1/people.xml", "P3");
    fed.set_retry_policy(fast_retry());

    let healthy = fed.run(SCATTER_SHAPES[0], Strategy::ByProjection).expect("healthy run");
    assert_eq!(healthy.result, expected.result);
    assert_eq!(healthy.metrics.replica_failovers, 0);

    assert!(p1.drain().clean);
    assert_served(&p2, 1);
    let failed_over = fed.run(SCATTER_SHAPES[0], Strategy::ByProjection).expect("failover run");
    assert_eq!(failed_over.result, expected.result);
    assert_eq!(failed_over.metrics.replica_failovers, 1, "exactly P1's slot walks one rung");
    assert_served(&p2, 2); // P2's slot was sent exactly once more
    assert_eq!(fed.breaker_state("P2"), BreakerState::Closed);
}

#[test]
fn scatter_slots_for_one_peer_share_its_connection_in_call_order() {
    let expected = sim_fed().run(SAME_PEER_TWICE, Strategy::ByValue).unwrap();
    assert_eq!(expected.plan.scatter_rounds, vec![3]);
    // a second concurrent connection to P1 would be refused outright
    let p1 = daemon("P1", ServerConfig { max_connections: 1, ..ServerConfig::default() });
    let p2 = daemon("P2", ServerConfig::default());
    let (mut fed, sent) = recording_fed(&[&p1, &p2], true);
    let got = fed.run(SAME_PEER_TWICE, Strategy::ByValue).expect("tcp run");
    assert_eq!(got.result, expected.result);
    assert_served(&p1, 2);
    let sent = sent.sent.lock().unwrap();
    let to_p1 = &sent["P1"];
    assert_eq!(to_p1.len(), 2);
    assert!(to_p1[0].contains("person") && to_p1[1].contains("age"), "out of call order: {to_p1:?}");
}

// ---------------------------------------------------------------------------
// pooled connections and the daemon's idle timeout
// ---------------------------------------------------------------------------

#[test]
fn idle_closed_pooled_connection_is_not_charged_to_the_peer() {
    let config = ServerConfig { idle_timeout: Duration::from_millis(50), ..ServerConfig::default() };
    let p1 = daemon("P1", config);
    let mut fed = socket_fed(&[&p1]);
    let query = r#"count(doc("xrpc://P1/people.xml")//person)"#;
    let first = fed.run(query, Strategy::ByValue).expect("first run");
    // the daemon closes the pooled connection at its idle timeout
    std::thread::sleep(Duration::from_millis(200));
    let second = fed.run(query, Strategy::ByValue).expect("run after the idle close");
    assert_eq!(second.result, first.result);
    assert_eq!(second.metrics.retries, 0, "a stale pooled connection must not cost a retry");
    assert_eq!(fed.breaker_state("P1"), BreakerState::Closed);
}

// ---------------------------------------------------------------------------
// TCP x chaos: a flaky wire under the socket coordinator
// ---------------------------------------------------------------------------

/// What the flaky wire does to one exchange.
#[derive(Clone, Copy, PartialEq)]
enum Flake {
    Pass,
    /// No reply at all: a retryable typed `Err`.
    Lost,
    /// The server's shed: an `Overloaded` fault envelope with a hint.
    Shed,
    /// A captured worker panic: another replica can route around it.
    Panic,
    /// An evaluation fault: every replica would reproduce it.
    Dynamic,
}

#[derive(Default)]
struct Injected {
    retryable: u64,
    panics: u64,
    dynamics: u64,
    /// Consecutive retryable flakes per peer, capped below `max_attempts`
    /// so the script never exhausts a rung: every one of them is retried.
    streak: BTreeMap<String, u32>,
}

/// [`TcpTransport`] behind a seeded script: per exchange to a `flaky`
/// peer, pass through, or lose the exchange, or answer with a fault
/// envelope the daemon never sent.
struct FlakyTransport {
    inner: TcpTransport,
    flaky: Vec<&'static str>,
    /// Share of a flaky peer's exchanges that draw from `menu`.
    rate: f64,
    menu: Vec<Flake>,
    rng: Mutex<xqd_prng::Rng>,
    injected: Mutex<Injected>,
}

const FLAKY_ATTEMPTS: u32 = 4;

impl Transport for FlakyTransport {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        let flake = {
            let mut rng = self.rng.lock().unwrap();
            let mut injected = self.injected.lock().unwrap();
            let mut flake = if self.flaky.contains(&peer) && rng.gen_bool(self.rate) {
                rng.choose(&self.menu)
            } else {
                Flake::Pass
            };
            let streak = injected.streak.entry(peer.to_string()).or_default();
            if matches!(flake, Flake::Lost | Flake::Shed) && *streak + 1 >= FLAKY_ATTEMPTS {
                flake = Flake::Pass;
            }
            *streak = if matches!(flake, Flake::Lost | Flake::Shed) { *streak + 1 } else { 0 };
            match flake {
                Flake::Pass => {}
                Flake::Lost | Flake::Shed => injected.retryable += 1,
                Flake::Panic => injected.panics += 1,
                Flake::Dynamic => injected.dynamics += 1,
            }
            flake
        };
        let remote = |code: &str| XrpcError::RemoteFault {
            peer: peer.to_string(),
            code: code.to_string(),
            message: "scripted".to_string(),
        };
        match flake {
            Flake::Pass => self.inner.exchange(peer, request, budget),
            Flake::Lost => Err(XrpcError::TransportCorrupt {
                peer: peer.to_string(),
                detail: "scripted loss".to_string(),
            }),
            Flake::Shed => Ok(xqd_xrpc::encode_fault(&XrpcError::Overloaded { retry_after_ms: 3 })),
            Flake::Panic => Ok(xqd_xrpc::encode_fault(&remote("xrpc:panic"))),
            Flake::Dynamic => Ok(xqd_xrpc::encode_fault(&remote("err:dynamic"))),
        }
    }
}

fn flaky_transport(
    servers: &[&PeerServer],
    flaky: &[&'static str],
    rate: f64,
    menu: &[Flake],
    seed: u64,
) -> Arc<FlakyTransport> {
    let inner = TcpTransport::new();
    for s in servers {
        inner.register(s.name(), &s.addr().to_string());
    }
    Arc::new(FlakyTransport {
        inner,
        flaky: flaky.to_vec(),
        rate,
        menu: menu.to_vec(),
        rng: Mutex::new(xqd_prng::Rng::seed_from_u64(seed)),
        injected: Mutex::new(Injected::default()),
    })
}

fn flaky_options(seed: u64) -> ExecOptions {
    ExecOptions {
        retry: RetryPolicy {
            max_attempts: FLAKY_ATTEMPTS,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            deadline: Duration::from_secs(5),
        },
        // breakers off: what the ladder does is then a function of the
        // script alone, so the counters can be checked exactly
        breaker: xqd_xrpc::BreakerPolicy { threshold: 0, ..Default::default() },
        replica_seed: seed,
        ..ExecOptions::default()
    }
}

fn flaky_fed(
    servers: &[&PeerServer],
    flaky: &[&'static str],
    rate: f64,
    menu: &[Flake],
    seed: u64,
) -> (Federation, Arc<FlakyTransport>) {
    let transport = flaky_transport(servers, flaky, rate, menu, seed);
    let mut fed = Federation::over(Arc::<FlakyTransport>::clone(&transport));
    fed.set_exec_options(flaky_options(seed));
    (fed, transport)
}

const FLAKY_SEEDS: u64 = 24;
const FLAKY_STRATEGIES: [Strategy; 3] =
    [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection];

/// Every seed x strategy x {scatter, non-scatter} run over a wire that
/// loses exchanges, sheds, panics and faults is bit-identical to
/// `Federation::run` or a typed error — the error exactly when the script
/// injected something no retry can cure — and `retries` counts exactly the
/// script's retryable flakes.
#[test]
fn flaky_wire_runs_are_identical_or_typed_errors_and_count_what_was_injected() {
    let mut sim = sim_fed();
    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let menu = [Flake::Lost, Flake::Shed, Flake::Panic, Flake::Dynamic];
    let (mut identical, mut typed, mut retried) = (0, 0, 0);
    for seed in 0..FLAKY_SEEDS {
        for strategy in FLAKY_STRATEGIES {
            for query in [SCATTER_SHAPES[0], JOIN_QUERY] {
                let expected = sim.run(query, strategy).expect("simulated run").result;
                let (mut fed, wire) = flaky_fed(&[&p1, &p2], &["P1", "P2"], 0.45, &menu, seed);
                let t0 = Instant::now();
                let outcome = fed.run(query, strategy);
                assert!(t0.elapsed() < Duration::from_secs(10), "seed {seed}: {:?}", t0.elapsed());
                let injected = wire.injected.lock().unwrap();
                let incurable = injected.panics + injected.dynamics;
                match outcome {
                    Ok(got) => {
                        assert_eq!(got.result, expected, "seed {seed} {strategy:?}");
                        assert_eq!(incurable, 0, "seed {seed}: a fault reply was swallowed");
                        let m = &got.metrics;
                        assert_eq!(m.retries, injected.retryable, "seed {seed} {strategy:?}");
                        assert_eq!(
                            m.replica_failovers, 0,
                            "seed {seed}: no replica to fail over to"
                        );
                        identical += 1;
                        retried += m.retries;
                    }
                    Err(e) => {
                        let code = e.code.as_deref().expect("typed error");
                        assert!(incurable > 0, "seed {seed} {strategy:?}: {e:?} out of retryables");
                        assert!(matches!(code, "xrpc:panic" | "err:dynamic"), "seed {seed}: {e:?}");
                        typed += 1;
                    }
                }
            }
        }
    }
    // the matrix reaches both sides of the dichotomy and the retry loop
    assert!(identical > 20 && typed > 20 && retried > 20, "{identical} / {typed} / {retried}");
}

/// With a replica registered and only the primary flaky, nothing the wire
/// does fails a run: lost and shed exchanges are retried, a panicking
/// primary is failed over — one failover per scripted panic.
#[test]
fn flaky_primary_with_a_replica_never_fails_a_run() {
    let mut sim = sim_fed();
    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let mut p3 = PeerServer::bind("P3", "127.0.0.1:0", ServerConfig::default()).unwrap();
    p3.load_replica("xrpc://P1/people.xml", PEOPLE).unwrap();
    p3.start();
    let menu = [Flake::Lost, Flake::Shed, Flake::Panic];
    let (mut retried, mut failed_over) = (0, 0);
    for seed in 0..FLAKY_SEEDS {
        for strategy in FLAKY_STRATEGIES {
            for query in [SCATTER_SHAPES[0], JOIN_QUERY] {
                let expected = sim.run(query, strategy).expect("simulated run").result;
                let (mut fed, wire) = flaky_fed(&[&p1, &p2, &p3], &["P1"], 0.75, &menu, seed);
                fed.register_replica("xrpc://P1/people.xml", "P3");
                let got = fed
                    .run(query, strategy)
                    .unwrap_or_else(|e| panic!("seed {seed} {strategy:?}: {e:?}"));
                assert_eq!(got.result, expected, "seed {seed} {strategy:?}");
                let injected = wire.injected.lock().unwrap();
                let m = &got.metrics;
                assert_eq!(m.retries, injected.retryable, "seed {seed} {strategy:?}");
                assert_eq!(m.replica_failovers, injected.panics, "seed {seed} {strategy:?}");
                retried += m.retries;
                failed_over += m.replica_failovers;
            }
        }
    }
    // the replica seed varies with the run seed, so the primary leads the
    // ladder in some runs and never gets dialed in others
    assert!(retried > 10 && failed_over > 10, "{retried} retries / {failed_over} failovers");
}

// ---------------------------------------------------------------------------
// one coordinator: the registry and the trace of a run over sockets
// ---------------------------------------------------------------------------

/// The registry over sockets is the wire, not an estimate: `message_bytes`
/// is what the recorder saw cross, which for function shipping is also what
/// the simulated run of the same query bills (same envelopes); a document
/// fetch is one transfer, an RPC exchange two; a repeated text is a
/// plan-cache hit.
#[test]
fn the_registry_over_sockets_counts_what_crossed_the_wire() {
    let mut sim = sim_fed();
    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    // function shipping under each wire semantics (by value the join ships
    // its documents instead, so it stands in only for the other two)
    for (query, strategy) in [
        (SCATTER_SHAPES[0], Strategy::ByValue),
        (SCATTER_SHAPES[0], Strategy::ByFragment),
        (JOIN_QUERY, Strategy::ByFragment),
        (JOIN_QUERY, Strategy::ByProjection),
    ] {
        let wire = recording_transport(&[&p1, &p2]);
        let mut fed = Federation::over(Arc::<RecordingTransport>::clone(&wire));
        let m = fed.run(query, strategy).expect("tcp run").metrics;
        let exchanges = wire.sent.lock().unwrap().values().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(m.message_bytes, wire.bytes.load(Ordering::SeqCst), "{strategy:?}");
        assert_eq!((m.document_bytes, m.doc_fetches), (0, 0), "{strategy:?}");
        assert_eq!(m.transfers, 2 * exchanges, "{strategy:?}");
        let simulated = sim.run(query, strategy).expect("simulated run").metrics;
        assert_eq!(m.message_bytes, simulated.message_bytes, "{strategy:?}");
        // transfers, remote calls, scatter rounds
        assert_eq!(m.counters()[2..5], simulated.counters()[2..5], "{strategy:?}");
        assert_eq!(m.join_keys_shipped, simulated.join_keys_shipped, "{strategy:?}");
        assert_eq!((m.plan_cache_hits, m.plan_cache_misses), (0, 1));
        let again = fed.run(query, strategy).expect("warm tcp run").metrics;
        assert_eq!((again.plan_cache_hits, again.plans_compiled), (1, 0), "{strategy:?}");
        assert_eq!(again.message_bytes, m.message_bytes, "{strategy:?}");
    }

    let wire = recording_transport(&[&p1, &p2]);
    let mut fed = Federation::over(Arc::<RecordingTransport>::clone(&wire));
    let shipped = fed.run(JOIN_QUERY, Strategy::DataShipping).expect("data shipping over tcp");
    let m = shipped.metrics;
    let simulated = sim.run(JOIN_QUERY, Strategy::DataShipping).expect("simulated data shipping");
    assert_eq!(shipped.result, simulated.result);
    assert_eq!(m.message_bytes + m.document_bytes, wire.bytes.load(Ordering::SeqCst));
    assert_eq!((m.transfers, m.doc_fetches, m.remote_calls), (2, 2, 0));
    // Fig. 7's byte count does not depend on the carrier: the wire moves the
    // documents the simulation bills, each inside one fixed-size envelope
    // (neither URI needs escaping)
    let envelopes: usize = ["xrpc://P1/people.xml", "xrpc://P2/orders.xml"]
        .iter()
        .map(|uri| "<env><doc uri=\"\"></doc></env>".len() + uri.len())
        .sum();
    assert_eq!(m.document_bytes - simulated.metrics.document_bytes, envelopes as u64);
}

/// What the flaky wire injected is what the registry reports — the facade's
/// `retries` / `failovers` fields are these counters.
#[test]
fn the_registry_over_a_flaky_wire_counts_what_was_injected() {
    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let mut p3 = PeerServer::bind("P3", "127.0.0.1:0", ServerConfig::default()).unwrap();
    p3.load_replica("xrpc://P1/people.xml", PEOPLE).unwrap();
    p3.start();
    let menu = [Flake::Lost, Flake::Shed, Flake::Panic];
    let (mut retried, mut failed_over) = (0, 0);
    for seed in 0..FLAKY_SEEDS {
        let wire = flaky_transport(&[&p1, &p2, &p3], &["P1"], 0.75, &menu, seed);
        let mut fed = Federation::over(Arc::<FlakyTransport>::clone(&wire));
        fed.set_exec_options(flaky_options(seed));
        fed.register_replica("xrpc://P1/people.xml", "P3");
        let m = fed.run(JOIN_QUERY, Strategy::ByFragment).expect("a replica stands").metrics;
        let injected = wire.injected.lock().unwrap();
        assert_eq!(m.named().get("retries"), Some(injected.retryable), "seed {seed}");
        assert_eq!(m.named().get("replica_failovers"), Some(injected.panics), "seed {seed}");
        assert_eq!((m.fallbacks, m.hedges, m.breaker_trips), (0, 0, 0), "seed {seed}");
        retried += m.retries;
        failed_over += m.replica_failovers;
    }
    assert!(retried > 0 && failed_over > 0, "{retried} retries / {failed_over} failovers");
}

/// A trace with every clock reading zeroed: names, nesting and arguments.
fn shape(trace: &xqd_xrpc::Trace) -> Vec<xqd_xrpc::Span> {
    let unclocked = |s: &xqd_xrpc::Span| xqd_xrpc::Span { start_ns: 0, dur_ns: 0, ..s.clone() };
    trace.spans.iter().map(unclocked).collect()
}

/// A trace over sockets has the simulated trace's shape — same spans, same
/// nesting, same arguments — on a measured clock.
#[test]
fn a_trace_over_sockets_has_the_simulated_traces_shape() {
    let traced = ExecOptions { trace: true, ..ExecOptions::default() };
    let mut sim = sim_fed();
    sim.set_exec_options(traced);
    let p1 = daemon("P1", ServerConfig::default());
    let p2 = daemon("P2", ServerConfig::default());
    let tcp = || {
        let transport = Arc::new(TcpTransport::new());
        transport.register("P1", &p1.addr().to_string());
        transport.register("P2", &p2.addr().to_string());
        Federation::over(transport)
    };

    assert!(tcp().run(SCATTER_SHAPES[0], Strategy::ByValue).unwrap().trace.is_none(), "not asked for");
    let mut fed = tcp();
    fed.set_exec_options(traced);
    let trace = fed.run(SCATTER_SHAPES[0], Strategy::ByValue).unwrap().trace.expect("asked for");
    let simulated = sim.run(SCATTER_SHAPES[0], Strategy::ByValue).unwrap().trace.unwrap();
    assert_eq!(shape(&trace), shape(&simulated));
    assert_eq!(trace.trace_id, simulated.trace_id);
    let rounds: Vec<_> = trace.named("scatter.round").collect();
    assert_eq!(rounds.len(), 1);
    let ladders: Vec<_> = trace.children_of(rounds[0].id).collect();
    assert_eq!(ladders.iter().map(|l| l.name).collect::<Vec<_>>(), ["rpc.ladder"; 2]);
    for ladder in ladders {
        let rungs: Vec<_> = trace.children_of(ladder.id).collect();
        assert_eq!(rungs.iter().map(|r| r.name).collect::<Vec<_>>(), ["rpc.rung"]);
        let attempts: Vec<_> = trace.children_of(rungs[0].id).collect();
        assert_eq!(attempts.iter().map(|a| a.name).collect::<Vec<_>>(), ["rpc.attempt"]);
        assert!(attempts[0].args.contains(&("outcome", "ok".to_string())));
        assert!(attempts[0].dur_ns > 0 && attempts[0].dur_ns <= rounds[0].dur_ns, "measured");
    }

    let shipped = fed.run(JOIN_QUERY, Strategy::DataShipping).unwrap().trace.unwrap();
    let simulated = sim.run(JOIN_QUERY, Strategy::DataShipping).unwrap().trace.unwrap();
    assert_eq!(shape(&shipped), shape(&simulated));
    let fetch = shipped.named("doc.fetch").next().expect("a data-shipping run fetches");
    let rung = shipped.children_of(fetch.id).next().expect("doc.rung");
    let attempt = shipped.children_of(rung.id).next().expect("doc.attempt");
    assert_eq!((fetch.parent, rung.name, attempt.name), (xqd_xrpc::ROOT_SPAN, "doc.rung", "doc.attempt"));

    // every replay the retry loop decided is one backoff span
    let mut retried = 0;
    for seed in 0..8 {
        let wire = flaky_transport(&[&p1, &p2], &["P1", "P2"], 0.5, &[Flake::Lost, Flake::Shed], seed);
        let mut fed = Federation::over(wire);
        fed.set_exec_options(ExecOptions { trace: true, ..flaky_options(seed) });
        let out = fed.run(JOIN_QUERY, Strategy::ByProjection).expect("retryable flakes only");
        let backoffs = out.trace.unwrap().named("rpc.backoff").count() as u64;
        assert_eq!(backoffs, out.metrics.retries, "seed {seed}");
        retried += backoffs;
    }
    assert!(retried > 0, "no seed injected a retry");
}
