//! Real sockets under the [`Transport`] seam.
//!
//! [`TcpTransport`] dials peer daemons over localhost (or any reachable
//! address) and speaks the length-prefixed envelope framing of
//! [`crate::transport`]; [`SocketFederation`] is the coordinator that
//! drives a **multi-process** federation through it — the same front end
//! ([`crate::frontend`]: plan cache, decomposition, compiled plan IR), the
//! same failover ladder and retry loop ([`crate::ladder`], driven through
//! the wall-clock attempt of [`crate::transport`]), the same health
//! scoreboard as the simulated [`crate::exec::Federation`], so the same
//! query returns bit-identical canonical results whichever side of the
//! seam executes it.
//!
//! Differences from the simulated side are deliberate and small:
//!
//! * time is **wall clock** — retry backoff really sleeps, deadlines
//!   really expire (an exchange budget covers the whole reply, not each
//!   read of it), and the scoreboard advances by observed elapsed time;
//! * the ladder is walked without hedging and without span builders;
//! * there is no graceful-degradation rung: a coordinator that cannot
//!   reach any replica has no local copy to fall back on, so the ladder
//!   ends in a typed error instead (the crash harness asserts exactly
//!   this "typed error or identical result" dichotomy);
//! * connections are pooled per peer and rebuilt transparently — a stale
//!   pooled connection (server restarted, drained, killed, or closed at
//!   the daemon's idle timeout) costs one reconnect-and-resend whether the
//!   send or the read discovers it, and a refused connection surfaces as a
//!   retryable [`XrpcError::PeerBusy`] feeding the breaker like any other
//!   failure.
//!
//! # Scatter on real sockets
//!
//! A scatter round fans out through the same `scatter::fan_out` as the
//! simulated coordinator's — slots grouped by destination, one scoped
//! worker per distinct destination, rows back in slot order — under the
//! same switch ([`ExecOptions::parallel_scatter`]; off, or fewer than two
//! slots, is the sequential loop). Every request is encoded up front in
//! call order against the coordinator store, each worker drives its slots
//! through the failover ladder over its peer's one pooled
//! connection, and replies are shredded into the store strictly in call
//! order, so results and wire bytes are those of the sequential loop. What
//! differs from the simulated round follows from the wall clock: health
//! observations reach the scoreboard as each ladder finishes rather than
//! in slot order at the gather; there is no degrade rung; and because all
//! slots are sent before any reply is looked at, a failing slot does not
//! stop later ones from being sent — the round's error is the first
//! failing slot's, in call order.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xqd_core::replicas::ReplicaCatalog;
use xqd_core::Strategy;
use xqd_xml::Store;
use xqd_xquery::eval::{DocResolver, Evaluator, RemoteHandler, ScatterCall, StaticContext};
use xqd_xquery::value::{EvalError, EvalResult, Sequence};
use xqd_xquery::ast::ExecProjection;

use crate::exec::{canonical_item, ExecOptions};
use crate::frontend::{FrontEnd, Session};
use crate::health::{BreakerPolicy, Scoreboard};
use crate::ladder::{admitted_candidates, walk, Call, RetryPolicy};
use crate::message::{
    decode_doc_response, decode_response, encode_doc_request, encode_request, WireSemantics,
};
use crate::net::XrpcError;
use crate::scatter::{fan_out, group_by_peer};
use crate::transport::{
    read_payload, read_prefix, write_frame, DeadlineReader, FrameError, Transport, WireAttempt,
    MAX_FRAME_LEN,
};

/// How long a fresh connection attempt may take before it counts as a
/// failed attempt (distinct from the per-exchange budget: connecting to a
/// dead localhost port fails in microseconds, but a blackholed address
/// must not eat the whole deadline).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Retry hint attached to a refused connection: the daemon is restarting
/// or its accept queue is momentarily full — both clear quickly.
const RECONNECT_HINT: Duration = Duration::from_millis(25);

/// A client-side TCP transport: one pooled connection per peer, framed
/// envelope exchanges with per-attempt deadlines.
pub struct TcpTransport {
    addrs: Mutex<BTreeMap<String, String>>,
    pool: Mutex<HashMap<String, TcpStream>>,
    max_frame_len: usize,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport::new()
    }
}

impl TcpTransport {
    pub fn new() -> Self {
        TcpTransport {
            addrs: Mutex::new(BTreeMap::new()),
            pool: Mutex::new(HashMap::new()),
            max_frame_len: MAX_FRAME_LEN,
        }
    }

    /// Registers (or replaces) the address `peer` answers on.
    pub fn register(&self, peer: &str, addr: &str) {
        self.addrs.lock().unwrap().insert(peer.to_string(), addr.to_string());
        // a re-registered peer may have moved: drop any pooled connection
        self.pool.lock().unwrap().remove(peer);
    }

    /// The registered address of `peer`, if any.
    pub fn address_of(&self, peer: &str) -> Option<String> {
        self.addrs.lock().unwrap().get(peer).cloned()
    }

    fn connect(&self, peer: &str) -> Result<TcpStream, XrpcError> {
        let Some(addr) = self.address_of(peer) else {
            return Err(XrpcError::UnknownPeer { peer: peer.to_string() });
        };
        let mut last: Option<std::io::Error> = None;
        let resolved = addr.to_socket_addrs().map_err(|e| XrpcError::TransportCorrupt {
            peer: peer.to_string(),
            detail: format!("unresolvable address {addr}: {e}"),
        })?;
        for sa in resolved {
            match TcpStream::connect_timeout(&sa, CONNECT_TIMEOUT) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    return Ok(s);
                }
                Err(e) => last = Some(e),
            }
        }
        // refused/unreachable is retryable: the daemon may be restarting,
        // and the breaker decides when to stop believing that
        Err(XrpcError::PeerBusy {
            peer: peer.to_string(),
            detail: match last {
                Some(e) => format!("connect {addr}: {e}"),
                None => format!("address {addr} resolved to nothing"),
            },
            retry_after: RECONNECT_HINT,
        })
    }

    fn pooled(&self, peer: &str) -> Option<TcpStream> {
        self.pool.lock().unwrap().remove(peer)
    }

    /// One request frame out and one reply frame back on `stream`, inside
    /// what is left of `budget`. A healthy exchange returns the connection
    /// to the pool.
    fn round_trip(
        &self,
        peer: &str,
        mut stream: TcpStream,
        request: &str,
        started: Instant,
        budget: Duration,
    ) -> Result<String, RoundTripError> {
        let timeout = || RoundTripError::Typed(XrpcError::Timeout {
            peer: peer.to_string(),
            deadline: budget,
        });
        let remaining = budget.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return Err(timeout());
        }
        let _ = stream.set_write_timeout(Some(remaining));
        write_frame(&mut stream, request).map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => timeout(),
            _ => RoundTripError::Dead(format!("send failed: {e}")),
        })?;
        // the reply — prefix and payload, however many reads they take —
        // gets what is left of the budget once, not once per read
        let mut reader = DeadlineReader::new(&stream, started + budget);
        let declared = match read_prefix(&mut reader) {
            Ok(Some(declared)) => declared,
            Ok(None) => {
                return Err(RoundTripError::Dead(
                    "connection closed before a reply frame".to_string(),
                ))
            }
            Err(FrameError::Io { detail, timed_out: false }) => {
                return Err(RoundTripError::Dead(detail))
            }
            Err(fe) => return Err(RoundTripError::Typed(fe.into_xrpc(peer, budget))),
        };
        let reply = read_payload(&mut reader, declared, self.max_frame_len)
            .map_err(|fe| RoundTripError::Typed(fe.into_xrpc(peer, budget)))?;
        self.pool.lock().unwrap().insert(peer.to_string(), stream);
        Ok(reply)
    }
}

/// Why [`TcpTransport::round_trip`] produced no reply.
enum RoundTripError {
    /// The connection was dead before a reply began: the send failed, or
    /// the peer closed or reset it before the reply's length prefix.
    Dead(String),
    Typed(XrpcError),
}

impl Transport for TcpTransport {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        let started = Instant::now();
        // A pooled connection may have died since its last exchange — the
        // peer drained, restarted, or closed it at its idle timeout. The
        // send then fails, or succeeds into a dead socket and the read sees
        // the close. Requests are read-only, so either way costs one
        // transparent reconnect-and-resend instead of a retry charged to a
        // healthy peer; a fresh connection dying is a real error.
        let mut stale = None;
        if let Some(stream) = self.pooled(peer) {
            match self.round_trip(peer, stream, request, started, budget) {
                Ok(reply) => return Ok(reply),
                Err(RoundTripError::Typed(e)) => return Err(e),
                Err(RoundTripError::Dead(detail)) => stale = Some(detail),
            }
        }
        let stream = self.connect(peer)?;
        self.round_trip(peer, stream, request, started, budget).map_err(|e| match e {
            RoundTripError::Typed(e) => e,
            RoundTripError::Dead(detail) => XrpcError::TransportCorrupt {
                peer: peer.to_string(),
                detail: match stale {
                    Some(first) => format!("{detail} (on a fresh connection, after: {first})"),
                    None => detail,
                },
            },
        })
    }
}

/// Per-run outcome of a socket-mode query: canonical result items (the
/// same serialization [`crate::exec::Federation`] produces, enabling
/// byte-level diffs across the seam) plus availability counters.
#[derive(Debug)]
pub struct SocketRunOutcome {
    pub result: Vec<String>,
    pub remote_calls: u64,
    /// Whole documents data-shipped from a serving host.
    pub doc_fetches: u64,
    pub failovers: u64,
    pub retries: u64,
}

struct SockCore {
    transport: Arc<dyn Transport>,
    catalog: Mutex<ReplicaCatalog>,
    /// Plan cache; its topology generation is bumped per registered replica.
    frontend: FrontEnd,
    options: Mutex<ExecOptions>,
    static_ctx: Mutex<StaticContext>,
    wire: Mutex<WireSemantics>,
    /// Wall-clock health scoreboard: persists across runs so a killed peer
    /// stays distrusted (and its breaker open) from one query to the next.
    board: Mutex<Scoreboard>,
    /// Instant of the board's last advance — observations advance it by
    /// genuinely elapsed time.
    board_clock: Mutex<Instant>,
    remote_calls: AtomicU64,
    doc_fetches: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    /// Jitter stream seed, bumped per ladder so same-peer retries across a
    /// run do not share backoff phases.
    lanes: AtomicU64,
}

impl SockCore {
    /// The failover ladder ([`crate::ladder::walk`]) over every host able
    /// to stand in for `primary`, admitted against the wall-clock board:
    /// no hedging, no spans, and no degradation rung — the socket
    /// coordinator holds no local copy to fall back on, so an exhausted
    /// ladder is a typed error. Its observations land on the board once it
    /// is done, after the board's clock caught up with the wall clock.
    fn call_ladder(
        &self,
        primary: &str,
        hosts: Vec<String>,
        request: &str,
        retry: &RetryPolicy,
        seed: u64,
    ) -> Result<String, XrpcError> {
        let (candidates, rejected) = {
            let board = self.board.lock().unwrap();
            admitted_candidates(&board, seed, hosts)
        };
        let call = Call {
            policy: *retry,
            lane: self.lanes.fetch_add(1, Ordering::Relaxed),
            hedge: None,
            spans: None,
        };
        let mut attempt = WireAttempt { transport: &*self.transport, request, seed };
        let ladder = walk(&mut attempt, &call, primary, candidates, rejected);
        {
            let mut board = self.board.lock().unwrap();
            let mut last = self.board_clock.lock().unwrap();
            let now = Instant::now();
            board.advance(now.duration_since(*last));
            *last = now;
            for obs in &ladder.observations {
                board.observe(obs);
            }
        }
        self.retries.fetch_add(ladder.retries, Ordering::Relaxed);
        self.failovers.fetch_add(ladder.failovers, Ordering::Relaxed);
        ladder.outcome
    }
}

/// The resolver/handler link of the socket coordinator: remote calls go
/// through the ladder over the wire; `doc()` of a foreign URI data-ships
/// the document from any host serving it.
struct SockLink {
    core: Arc<SockCore>,
}

impl DocResolver for SockLink {
    fn resolve(&mut self, store: &mut Store, uri: &str) -> EvalResult<xqd_xml::DocId> {
        if let Some(d) = store.doc_by_uri(uri) {
            return Ok(d);
        }
        if xqd_core::uris::split_xrpc_uri(uri).is_none() {
            return Err(EvalError::new(format!("document not found: {uri}")));
        }
        let (retry, seed) = {
            let o = self.core.options.lock().unwrap();
            (o.retry, o.replica_seed)
        };
        let hosts = self.core.catalog.lock().unwrap().hosts_for(uri);
        let request = encode_doc_request(uri);
        let reply = self
            .core
            .call_ladder(uri, hosts, &request, &retry, seed)
            .map_err(EvalError::from)?;
        let xml = decode_doc_response(&reply).ok_or_else(|| {
            EvalError::from(XrpcError::TransportCorrupt {
                peer: uri.to_string(),
                detail: format!("doc reply for {uri} is not a doc envelope"),
            })
        })?;
        self.core.doc_fetches.fetch_add(1, Ordering::Relaxed);
        xqd_xml::parse_document(store, &xml, Some(uri))
            .map_err(|e| EvalError::new(format!("shipped document {uri} failed to parse: {e}")))
    }
}

impl SockLink {
    fn encode(
        &self,
        local: &Store,
        static_ctx: &StaticContext,
        calls: &[Vec<(String, Sequence)>],
        body: &xqd_xquery::Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<String> {
        let wire = *self.core.wire.lock().unwrap();
        let request = encode_request(
            local,
            wire,
            static_ctx,
            &body.to_string(),
            calls,
            projection.map(|p| p.params.as_slice()),
            projection.map(|p| &p.result),
        )?;
        self.core.remote_calls.fetch_add(calls.len() as u64, Ordering::Relaxed);
        Ok(request)
    }

    /// One request through the failover ladder over every host serving `peer`.
    fn deliver(&self, peer: &str, request: &str) -> Result<String, XrpcError> {
        let (retry, seed) = {
            let o = self.core.options.lock().unwrap();
            (o.retry, o.replica_seed)
        };
        let hosts = self.core.catalog.lock().unwrap().hosts_serving_peer(peer);
        self.core.call_ladder(peer, hosts, request, &retry, seed)
    }

    fn decode(local: &mut Store, response: &str, calls: usize) -> EvalResult<Vec<Sequence>> {
        let sequences = decode_response(local, response)?;
        if sequences.len() != calls {
            return Err(EvalError::new(format!(
                "response carries {} sequences for {calls} calls",
                sequences.len()
            )));
        }
        Ok(sequences)
    }
}

impl RemoteHandler for SockLink {
    fn execute(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        params: &[(String, Sequence)],
        body: &xqd_xquery::Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<Sequence> {
        let one_call = vec![params.to_vec()];
        let mut results = self.execute_bulk(local, static_ctx, peer, &one_call, body, projection)?;
        Ok(results.pop().unwrap_or_default())
    }

    fn execute_bulk(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        calls: &[Vec<(String, Sequence)>],
        body: &xqd_xquery::Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<Vec<Sequence>> {
        let request = self.encode(local, static_ctx, calls, body, projection)?;
        let response = self.deliver(peer, &request).map_err(EvalError::from)?;
        SockLink::decode(local, &response, calls.len())
    }

    fn execute_scatter(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        calls: &[ScatterCall<'_>],
    ) -> EvalResult<Vec<Sequence>> {
        let parallel = self.core.options.lock().unwrap().parallel_scatter;
        if !parallel || calls.len() < 2 {
            return calls
                .iter()
                .map(|c| self.execute(local, static_ctx, &c.peer, &c.params, c.body, c.projection))
                .collect();
        }
        // Parameters were pre-bound by the evaluator and replies only ever
        // *add* documents to the coordinator store, so encoding every
        // request up front yields the bytes sequential execution would send.
        let requests = calls
            .iter()
            .map(|c| {
                self.encode(local, static_ctx, std::slice::from_ref(&c.params), c.body, c.projection)
            })
            .collect::<EvalResult<Vec<String>>>()?;
        let peers: Vec<&str> = calls.iter().map(|c| c.peer.as_str()).collect();
        let replies =
            fan_out(&group_by_peer(&peers), |i| self.deliver(peers[i], &requests[i]), Err);
        // every slot was sent; replies are shredded into the local store
        // strictly in call order, and the first failing slot is the error
        let mut results = Vec::with_capacity(calls.len());
        for reply in replies {
            let response = reply.map_err(EvalError::from)?;
            let mut sequences = SockLink::decode(local, &response, 1)?;
            results.push(sequences.pop().unwrap_or_default());
        }
        Ok(results)
    }
}

/// The socket-mode coordinator: the same decomposition front end and
/// failover discipline as the simulated [`crate::exec::Federation`],
/// executing against live peer daemons through any [`Transport`].
pub struct SocketFederation {
    core: Arc<SockCore>,
}

impl SocketFederation {
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        let options = ExecOptions::default();
        SocketFederation {
            core: Arc::new(SockCore {
                transport,
                catalog: Mutex::new(ReplicaCatalog::new()),
                frontend: FrontEnd::default(),
                options: Mutex::new(options),
                static_ctx: Mutex::new(StaticContext::default()),
                wire: Mutex::new(WireSemantics::Value),
                board: Mutex::new(Scoreboard::new(options.breaker)),
                board_clock: Mutex::new(Instant::now()),
                remote_calls: AtomicU64::new(0),
                doc_fetches: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                lanes: AtomicU64::new(0),
            }),
        }
    }

    /// A federation dialing daemons over TCP; the returned transport
    /// handle registers peer addresses.
    pub fn over_tcp() -> (Self, Arc<TcpTransport>) {
        let transport = Arc::new(TcpTransport::new());
        (SocketFederation::new(Arc::<TcpTransport>::clone(&transport)), transport)
    }

    /// Records that `host` serves a bit-identical copy of `canonical_uri`
    /// (replica placement — identical meaning to the simulated catalog).
    pub fn register_replica(&mut self, canonical_uri: &str, host: &str) {
        self.core.catalog.lock().unwrap().register(canonical_uri, host);
        self.core.frontend.topology_changed();
    }

    /// Records the transport address of `peer` in the catalog (the address
    /// book the `--connect` flag populates; the TCP transport keeps its
    /// own dial map, registered separately).
    pub fn set_peer_address(&mut self, peer: &str, addr: &str) {
        self.core.catalog.lock().unwrap().set_address(peer, addr);
    }

    pub fn set_exec_options(&mut self, options: ExecOptions) {
        *self.core.options.lock().unwrap() = options;
        let mut board = self.core.board.lock().unwrap();
        board.reset(options.breaker);
    }

    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.core.options.lock().unwrap().retry = retry;
    }

    pub fn set_static_context(&mut self, ctx: StaticContext) {
        *self.core.static_ctx.lock().unwrap() = ctx;
    }

    /// Number of prepared queries currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.core.frontend.len()
    }

    /// Breaker state of `peer` on the persistent wall-clock scoreboard.
    pub fn breaker_state(&self, peer: &str) -> crate::health::BreakerState {
        self.core.board.lock().unwrap().state(peer)
    }

    /// Resets the health scoreboard (keeps catalog and options).
    pub fn reset_health(&mut self) {
        let policy: BreakerPolicy = self.core.options.lock().unwrap().breaker;
        self.core.board.lock().unwrap().reset(policy);
        *self.core.board_clock.lock().unwrap() = Instant::now();
    }

    /// Prepares `query` through the shared front end (a repeated text is a
    /// plan-cache hit: no parse, no decomposition, no lowering) and executes
    /// the plan under `strategy` against the live federation. Canonical
    /// result items are directly comparable with
    /// [`crate::exec::Federation::run`] output — the equivalence the daemon
    /// tests and the crash harness assert byte for byte.
    pub fn run(&mut self, query: &str, strategy: Strategy) -> EvalResult<SocketRunOutcome> {
        let options = *self.core.options.lock().unwrap();
        let static_ctx = self.core.static_ctx.lock().unwrap().clone();
        let session = Session {
            strategy,
            decompose: xqd_core::DecomposeOptions::default(),
            exec: options,
            static_ctx: &static_ctx,
        };
        let prepared = self.core.frontend.prepare(
            query,
            &session,
            &self.core.catalog,
            &mut |_| {},
        )?;
        *self.core.wire.lock().unwrap() = WireSemantics::of(strategy);
        self.core.remote_calls.store(0, Ordering::Relaxed);
        self.core.doc_fetches.store(0, Ordering::Relaxed);
        self.core.failovers.store(0, Ordering::Relaxed);
        self.core.retries.store(0, Ordering::Relaxed);
        let mut local = Store::new();
        let mut link = SockLink { core: Arc::clone(&self.core) };
        let mut handler = SockLink { core: Arc::clone(&self.core) };
        let mut ev = Evaluator::new(&mut local, &[], &mut link)
            .with_remote(&mut handler)
            .with_static_context(static_ctx)
            .with_indexes(options.use_indexes);
        let result = prepared.plan.eval(&mut ev)?;
        drop(ev);
        let canonical = result.iter().map(|i| canonical_item(&local, i)).collect();
        Ok(SocketRunOutcome {
            result: canonical,
            remote_calls: self.core.remote_calls.load(Ordering::Relaxed),
            doc_fetches: self.core.doc_fetches.load(Ordering::Relaxed),
            failovers: self.core.failovers.load(Ordering::Relaxed),
            retries: self.core.retries.load(Ordering::Relaxed),
        })
    }
}
