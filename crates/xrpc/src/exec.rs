//! The coordinator and the simulated peers: the
//! [`xqd_xquery::RemoteHandler`] / [`xqd_xquery::DocResolver`]
//! implementations wiring the decomposed query to the message codecs.
//!
//! There is one coordinator, [`Federation`], and it runs over either of two
//! **carriers**. [`Federation::new`] simulates the federation in process:
//! it owns one [`Peer`] per `xrpc://host/…` host and a [`NetworkModel`]
//! whose clock it bills. [`Federation::over`] drives live peer daemons
//! through a [`Transport`] on the wall clock. `run()` is the same code on
//! both: a fresh coordinator store (the query originator), the query
//! prepared through the shared front end ([`crate::frontend`]: decomposed
//! under the chosen [`Strategy`], lowered to plan IR, cached), the plan
//! executed. A remote `execute at` serializes a real request message and
//! hands it to the failover ladder; `fn:doc("xrpc://…")` on the coordinator
//! performs data shipping through the same ladder, and the coordinator
//! shreds and caches the document. What an *attempt* is made of is the
//! carrier's: simulated, the message is "transferred" under the
//! [`NetworkModel`], shredded into the target peer's store, compiled and
//! executed there with the *same* plan engine, and the response shipped
//! back the same way; on the wire, it is one envelope exchange with a
//! daemon that does all of that in its own process. The carrier is
//! consulted where an attempt is built, where the health board's clock
//! moves and where a ladder's last resort is decided (see `Carrier`) — the
//! link, the scatter round, the accounting, the trace and the run itself
//! cannot tell which one is underneath.
//!
//! # Parallel scatter-gather
//!
//! The federation core is thread-safe: peers live in slots behind a
//! `Mutex`+`Condvar` (a peer is *taken* for the duration of a call, and
//! waiting replaces the old hard "busy" failure), and metrics accumulate
//! into atomics. When a plan reaches a scatter point — independent
//! `execute at` calls aimed at distinct peers — [`FedLink::execute_scatter`]
//! encodes every request up front (byte-identical to sequential execution),
//! fans the ladders out across one scoped thread per peer
//! ([`crate::scatter`]), and gathers/decodes responses in deterministic
//! call order. Serialized network cost stays the exact per-transfer sum;
//! the overlapped cost of a round is the slowest peer's chain (see
//! [`Metrics::network_overlapped`]).
//!
//! # Failure semantics
//!
//! Every remote interaction — Bulk RPC, scatter rounds, document fetches —
//! is one logical call carried by the failover ladder and retry loop of
//! [`crate::ladder`]; this module supplies the three attempts it drives
//! (`RpcAttempt` and `DocAttempt` on the simulated carrier, `WireAttempt`
//! on the wire). When a [`crate::FaultPlan`] is installed, each simulated
//! attempt may be mangled (truncation/corruption), delayed, dropped or hung
//! per the deterministic schedule; failures surface as typed
//! [`XrpcError`]s, and calls whose ladder is exhausted degrade gracefully
//! to data shipping (fetch the documents, evaluate the body locally,
//! round-trip the results through the same wire codec) when the body is
//! eligible and the carrier has that rung — over the wire an exhausted
//! ladder is the typed error. Remote evaluation failures and captured
//! worker panics travel back as wire-encoded fault responses, so the error
//! path exercises the same codecs as the data path.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xqd_core::Strategy;
use xqd_xml::{NodeId, NodeKind, Store};
use xqd_xquery::ast::{Atomic, ExecProjection};
use xqd_xquery::eval::{DocResolver, Evaluator, RemoteHandler, ScatterCall, StaticContext};
use xqd_xquery::value::{EvalError, EvalResult, Item, Sequence};
use xqd_xquery::{parse_query, Expr, QueryModule};

use crate::frontend::{FrontEnd, FrontEndEvent, PreparedQuery, Session};

use xqd_core::replicas::ReplicaCatalog;

use crate::health::{seeded_fraction, BreakerPolicy, BreakerState, Observation, Scoreboard};
use crate::ladder::{
    admitted_candidates, fault_seq, walk, Attempt, AttemptId, Attempted, Call, LadderOutcome,
    Spans, BUSY_SWITCH_WAIT, DOC_SPANS, RPC_SPANS,
};
pub use crate::ladder::RetryPolicy;
use crate::message::{
    decode_doc_request, decode_doc_response, decode_request, decode_response, encode_doc_request,
    encode_doc_response, encode_fault, encode_request, encode_response, payload_kind,
    reply_or_fault, WireSemantics,
};
use crate::net::{as_ns, Fault, FaultPlan, Metrics, MetricsSink, NetworkModel, XrpcError};
use crate::scatter::{fan_out, group_by_peer};
use crate::trace::{SpanBuilder, Trace, Tracer, ROOT_SPAN};
use crate::transport::Transport;

/// One simulated peer: a named document store.
#[derive(Debug)]
pub struct Peer {
    pub name: String,
    pub store: Store,
}

impl Peer {
    pub fn new(name: &str) -> Self {
        Peer { name: name.to_string(), store: Store::new() }
    }

    /// Loads a document from XML text under `doc_name`. The document is
    /// registered under its canonical `xrpc://<peer>/<doc_name>` URI so
    /// `fn:base-uri` / `fn:document-uri` agree between peer-local access and
    /// data-shipped copies at the coordinator.
    pub fn load_document(&mut self, doc_name: &str, xml: &str) -> Result<(), EvalError> {
        let uri = format!("xrpc://{}/{}", self.name, doc_name);
        xqd_xml::parse_document(&mut self.store, xml, Some(&uri))
            .map_err(|e| EvalError::new(format!("loading {doc_name}: {e}")))?;
        Ok(())
    }

    /// The one document server — data shipping on either carrier and
    /// replication all ask here: the document `uri` names, looked up under
    /// that URI and then under the plain name it may have been loaded as,
    /// serialized; a typed `xrpc:document-not-found` fault otherwise.
    pub fn serialize_document(&self, uri: &str) -> Result<String, XrpcError> {
        let name = xqd_core::uris::split_xrpc_uri(uri).map_or(uri, |(_, name)| name);
        let doc = self
            .store
            .doc_by_uri(uri)
            .or_else(|| self.store.doc_by_uri(name))
            .ok_or_else(|| XrpcError::RemoteFault {
                peer: self.name.clone(),
                code: "xrpc:document-not-found".to_string(),
                message: format!("document not found on {}: {name}", self.name),
            })?;
        Ok(xqd_xml::serialize_document(self.store.doc(doc), &self.store.names))
    }
}

/// Execution-mode switches (see [`Federation::set_exec_options`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Fan independent calls to distinct peers out across scoped threads.
    /// Off = the same calls run in a sequential loop (identical results and
    /// byte counts; `network_overlapped` then equals `network`).
    pub parallel_scatter: bool,
    /// Answer eligible axis steps from per-document name indexes (staircase
    /// join) on every evaluator in the federation — coordinator and peers.
    /// Off = arena scans; results and message bytes are bit-identical either
    /// way, which the equivalence suite asserts.
    pub use_indexes: bool,
    /// Retry/backoff/deadline policy applied to every remote call and
    /// document fetch.
    pub retry: RetryPolicy,
    /// Deterministic fault schedule; `None` (the default) injects nothing
    /// and leaves the transport byte-for-byte identical to the fault-free
    /// model.
    pub fault: Option<FaultPlan>,
    /// Hedged requests: after this base delay (jittered deterministically
    /// per call to 50–100%), a slot whose preferred replica has not
    /// answered dispatches a secondary attempt to the next healthy replica
    /// and the first valid response wins. `None` (the default) never
    /// hedges.
    pub hedge: Option<Duration>,
    /// Circuit-breaker tuning for the peer health scoreboard.
    pub breaker: BreakerPolicy,
    /// Seed of the rendezvous replica-selection policy (see
    /// [`xqd_core::replicas::rendezvous_order`]).
    pub replica_seed: u64,
    /// Capacity of the coordinator-side LRU plan cache. `0` disables
    /// caching entirely: every run pays the full front end again.
    pub plan_cache_size: usize,
    /// Join-aware decomposition: detect cross-peer equi-joins and ship the
    /// producer side's **distinct join keys** (front-coded on the wire)
    /// instead of its full node sequence, so the join predicate evaluates
    /// remotely against a compact key filter. Results are bit-identical
    /// either way — general comparison is existential, so deduplicated
    /// sorted keys decide it exactly like the raw sequence — which the
    /// join-equivalence suite asserts. Part of the plan-cache key.
    pub semijoin: bool,
    /// Collect a deterministic span trace of the run on the simulated
    /// clock (see [`crate::trace`]). Off (the default) allocates nothing
    /// on the hot path; the returned [`RunOutcome::trace`] is then `None`.
    pub trace: bool,
    /// Collect a per-operator execution profile of the coordinator's
    /// compiled plan (execution counts, items produced, simulated-time
    /// attribution — the `explain --analyze` payload). Off by default.
    pub profile: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel_scatter: true,
            use_indexes: true,
            retry: RetryPolicy::default(),
            fault: None,
            hedge: None,
            breaker: BreakerPolicy::default(),
            replica_seed: 0,
            plan_cache_size: 64,
            semijoin: true,
            trace: false,
            profile: false,
        }
    }
}

/// What carries a federation's messages and which clock it keeps — the one
/// thing that differs between a simulated run and a run against live
/// daemons. It is consulted where an attempt is built
/// ([`call_with_failover`], which also decides hedging, and
/// [`FedLink::resolve`]), where the health board's clock moves
/// ([`Federation::begin_run`], [`FedCore::advance_board`]) and where a
/// ladder's last resort is decided ([`FedCore::degrades`]) — nowhere else.
enum Carrier {
    /// The in-process peers of [`FedCore::peers`] behind the
    /// [`NetworkModel`], on the simulated clock.
    Simulated,
    /// Live daemons behind a [`Transport`], on the wall clock.
    Wire {
        transport: Arc<dyn Transport>,
        /// Instant of the board's last advance. On this carrier the board
        /// outlives the run and moves by genuinely elapsed time, so a killed
        /// peer stays distrusted (its breaker open) from one query to the
        /// next and is probed again once its cooldown has really passed.
        board_clock: Mutex<Instant>,
    },
}

struct FedCore {
    carrier: Carrier,
    /// Peer slots, each `None` while an executing call holds its peer (see
    /// [`FedCore::take_peer`]). A federation over a [`Transport`] has none —
    /// its peers are the daemons.
    peers: Mutex<HashMap<String, Option<Peer>>>,
    /// Signalled whenever a peer is returned to its slot.
    peers_returned: Condvar,
    /// Link model the simulated attempts bill; the wire measures instead.
    model: NetworkModel,
    metrics: MetricsSink,
    wire: Mutex<WireSemantics>,
    options: Mutex<ExecOptions>,
    /// Lane allocator for fault-schedule and backoff-jitter streams (reset
    /// per run): each logical ladder — one Bulk RPC, one scatter slot, one
    /// document fetch — draws its ordinals from its own lane, so the
    /// schedule stays replayable under any thread interleaving even when
    /// two slots fail over to the same replica concurrently.
    lanes: AtomicU64,
    /// Peer health scoreboard: EWMA latency and circuit breakers on the
    /// carrier's clock. Mutated only from coordinator call sites —
    /// sequentially between calls, or at the scatter gather in slot order —
    /// so on the simulated clock its evolution is a pure function of the
    /// run's fault seed.
    board: Mutex<Scoreboard>,
    /// Replicated document placement (see [`ReplicaCatalog`]).
    catalog: Mutex<ReplicaCatalog>,
    /// Coordinator-side plan cache and the topology generation stamped
    /// into its keys (see [`crate::frontend`]).
    frontend: FrontEnd,
    /// Static context applied to coordinator evaluation and compiled into
    /// cached plans; part of the plan-cache key.
    static_ctx: Mutex<StaticContext>,
    /// The active run's span collector, installed by `begin_run` when
    /// [`ExecOptions::trace`] is set and *taken* by `finish_run` — so spans
    /// from stray `prepare()` calls between runs can never leak into the
    /// next run's trace.
    tracer: Mutex<Option<Arc<Tracer>>>,
    /// The finished trace of the most recent traced run — kept here so a
    /// run that ends in a typed error (no [`RunOutcome`]) still surfaces
    /// its trace via [`Federation::take_trace`].
    last_trace: Mutex<Option<Trace>>,
}

impl FedCore {
    fn wire(&self) -> WireSemantics {
        *self.wire.lock().unwrap()
    }

    fn options(&self) -> ExecOptions {
        *self.options.lock().unwrap()
    }

    /// The active run's tracer, if tracing is on.
    fn tracer(&self) -> Option<Arc<Tracer>> {
        self.tracer.lock().unwrap().clone()
    }

    /// Allocates the fault-schedule lane for one ladder. Lanes are handed
    /// out in coordinator program order (scatter rounds reserve a
    /// contiguous block per slot before spawning), which keeps the mapping
    /// deterministic.
    fn next_lane(&self) -> u64 {
        self.lanes.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves `n` consecutive lanes (scatter: slot `i` uses `base + i`).
    fn reserve_lanes(&self, n: u64) -> u64 {
        self.lanes.fetch_add(n, Ordering::Relaxed)
    }

    /// An immutable copy of the health scoreboard for admission decisions
    /// inside a ladder or scatter round — workers never lock the live one.
    fn board_snapshot(&self) -> Scoreboard {
        self.board.lock().unwrap().clone()
    }

    /// Moves the board's clock past a ladder (or round) that occupied
    /// `window`: by `window` on the simulated clock, by what has really
    /// elapsed since the last reading on the wall clock.
    fn advance_board(&self, board: &mut Scoreboard, window: Duration) {
        match &self.carrier {
            Carrier::Simulated => board.advance(window),
            Carrier::Wire { board_clock, .. } => {
                let mut last = board_clock.lock().unwrap();
                let now = Instant::now();
                board.advance(now.duration_since(*last));
                *last = now;
            }
        }
    }

    /// Whether a call whose ladder is exhausted may degrade to data
    /// shipping ([`fallback_local`]), and with it whether a document fetch
    /// — the fetch backing that rung — forces an attempt past open
    /// breakers. Off on the wire: against live daemons the contract is
    /// "the identical result or a typed error, with the retries and
    /// failovers the wire really cost", and a degraded answer would blur
    /// both halves of it.
    fn degrades(&self) -> bool {
        matches!(self.carrier, Carrier::Simulated)
    }

    /// Applies a ladder's (or a whole round's) health observations to the
    /// shared scoreboard after advancing its clock past the `window` the
    /// ladder occupied; breaker trips are counted as they land.
    fn apply_observations<'a>(
        &self,
        window: Duration,
        observations: impl IntoIterator<Item = &'a Observation>,
    ) {
        let mut board = self.board.lock().unwrap();
        self.advance_board(&mut board, window);
        for obs in observations {
            if board.observe(obs) {
                self.metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Bills one ladder outside a scatter round, where transfers never
    /// overlap: its chains to the serialized and the overlapped clock, and
    /// its counters.
    fn charge_ladder(&self, ladder: &LadderOutcome) {
        let sink = &self.metrics;
        sink.network.fetch_add(as_ns(ladder.serialized), Ordering::Relaxed);
        sink.network_overlapped.fetch_add(as_ns(ladder.window), Ordering::Relaxed);
        self.charge_ladder_counters(ladder);
    }

    /// Bills a ladder's counters (retries, hedges, probes, failovers).
    fn charge_ladder_counters(&self, ladder: &LadderOutcome) {
        let sink = &self.metrics;
        sink.retries.fetch_add(ladder.retries, Ordering::Relaxed);
        sink.hedges.fetch_add(ladder.hedges, Ordering::Relaxed);
        sink.hedge_wins.fetch_add(ladder.hedge_wins, Ordering::Relaxed);
        sink.breaker_probes.fetch_add(ladder.probes, Ordering::Relaxed);
        sink.replica_failovers.fetch_add(ladder.failovers, Ordering::Relaxed);
    }

    /// An honest resubmission hint for a busy peer: its observed EWMA
    /// service latency when the scoreboard has one (roughly when the
    /// current holder should be done), else the ladder's busy-switch wait.
    fn busy_retry_hint(&self, name: &str) -> Duration {
        self.board
            .lock()
            .unwrap()
            .ewma(name)
            .filter(|d| !d.is_zero())
            .unwrap_or(BUSY_SWITCH_WAIT)
    }

    /// Takes `name`'s peer out of its slot, waiting up to `wait` — which
    /// every caller bounds by its *remaining* deadline budget — while
    /// another call holds it. The one rejection is a wait that expired: a
    /// typed [`XrpcError::PeerBusy`] with an honest retry-after hint. How
    /// many callers may wait is bounded above the slot — by a daemon's
    /// in-flight gate ([`crate::ServerConfig::max_inflight`]), or by the
    /// scatter workers of a simulated run. An unknown peer fails
    /// immediately — and is distinguished from a busy one, so callers can
    /// retry the latter but not the former.
    fn take_peer(&self, name: &str, wait: Duration) -> Result<Peer, XrpcError> {
        let deadline = Instant::now() + wait;
        let mut peers = self.peers.lock().unwrap();
        loop {
            let Some(slot) = peers.get_mut(name) else {
                return Err(XrpcError::UnknownPeer { peer: name.to_string() });
            };
            if let Some(p) = slot.take() {
                return Ok(p);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                drop(peers);
                return Err(XrpcError::PeerBusy {
                    peer: name.to_string(),
                    detail: format!("slot still held after {wait:?}"),
                    retry_after: self.busy_retry_hint(name),
                });
            }
            peers = self.peers_returned.wait_timeout(peers, remaining).unwrap().0;
        }
    }

    fn put_peer(&self, peer: Peer) {
        self.peers.lock().unwrap().insert(peer.name.clone(), Some(peer));
        self.peers_returned.notify_all();
    }
}

/// The coordinator, plus — on the simulated carrier — the federation of
/// peers it queries.
pub struct Federation {
    core: Arc<FedCore>,
}

/// Outcome of one distributed run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The result sequence, canonically serialized item by item (attributes
    /// sorted, comments dropped) — directly comparable across strategies.
    pub result: Vec<String>,
    pub metrics: Metrics,
    /// The decomposition that was executed (for explain output), shared
    /// with the plan cache's entry.
    pub plan: Arc<xqd_core::Decomposition>,
    /// The run's span trace when [`ExecOptions::trace`] was set.
    pub trace: Option<Trace>,
    /// Per-operator execution profile when [`ExecOptions::profile`] was set
    /// (pair it with [`RunOutcome::compiled`] for `explain --analyze`
    /// output).
    pub profile: Option<xqd_xquery::OpProfile>,
    /// The prepared query that executed (always `Some`); its plan is what
    /// the profile indexes into.
    pub compiled: Option<Arc<PreparedQuery>>,
}

impl Federation {
    /// A simulated federation: peers are loaded into this process
    /// ([`Self::load_document`]) and messages cross the `model`'s link.
    pub fn new(model: NetworkModel) -> Self {
        Federation::carried_by(Carrier::Simulated, model)
    }

    /// A coordinator for live peer daemons reached through `transport`
    /// (e.g. [`crate::TcpTransport`]): the same front end, ladder, scatter
    /// round, accounting and tracing as a simulated run, on the wall clock.
    /// Canonical results are directly comparable with a simulated run's —
    /// the equivalence the daemon tests and the crash harness assert byte
    /// for byte. Replica placement comes from [`Self::register_replica`].
    pub fn over(transport: Arc<dyn Transport>) -> Self {
        let wire = Carrier::Wire { transport, board_clock: Mutex::new(Instant::now()) };
        Federation::carried_by(wire, NetworkModel::lan())
    }

    fn carried_by(carrier: Carrier, model: NetworkModel) -> Self {
        Federation {
            core: Arc::new(FedCore {
                carrier,
                peers: Mutex::new(HashMap::new()),
                peers_returned: Condvar::new(),
                model,
                metrics: MetricsSink::default(),
                wire: Mutex::new(WireSemantics::Value),
                options: Mutex::new(ExecOptions::default()),
                lanes: AtomicU64::new(0),
                board: Mutex::new(Scoreboard::new(BreakerPolicy::default())),
                catalog: Mutex::new(ReplicaCatalog::new()),
                frontend: FrontEnd::default(),
                static_ctx: Mutex::new(StaticContext::default()),
                tracer: Mutex::new(None),
                last_trace: Mutex::new(None),
            }),
        }
    }

    /// Sets the static context applied to coordinator evaluation in
    /// subsequent runs. Part of the plan-cache key: runs under distinct
    /// contexts never share a plan (constants fold under the context the
    /// plan was compiled for).
    pub fn set_static_context(&mut self, ctx: StaticContext) {
        *self.core.static_ctx.lock().unwrap() = ctx;
    }

    /// Number of prepared queries currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.core.frontend.len()
    }

    /// Drops every cached plan (the cold-cache bench mode).
    pub fn clear_plan_cache(&mut self) {
        self.core.frontend.clear();
    }

    /// Switches execution modes (scatter parallelism, indexes, …) for
    /// subsequent runs, and re-arms the health board with the new breaker
    /// policy (what a wire federation's board, which no run resets, would
    /// otherwise never learn).
    pub fn set_exec_options(&mut self, options: ExecOptions) {
        *self.core.options.lock().unwrap() = options;
        self.reset_health();
    }

    /// Installs (or clears) the deterministic fault plan for subsequent
    /// runs.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.core.options.lock().unwrap().fault = plan;
    }

    /// Replaces the retry/backoff/deadline policy for subsequent runs.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.core.options.lock().unwrap().retry = retry;
    }

    /// Installs (or clears) the hedged-request delay for subsequent runs.
    pub fn set_hedge(&mut self, hedge: Option<Duration>) {
        self.core.options.lock().unwrap().hedge = hedge;
    }

    /// Replaces the circuit-breaker policy for subsequent runs
    /// (`threshold: 0` disables breakers entirely).
    pub fn set_breaker_policy(&mut self, breaker: BreakerPolicy) {
        self.core.options.lock().unwrap().breaker = breaker;
        self.reset_health();
    }

    /// Forgets every peer's health (EWMA, failure counts, open breakers)
    /// under the current breaker policy.
    pub fn reset_health(&mut self) {
        let policy = self.core.options().breaker;
        self.core.board.lock().unwrap().reset(policy);
    }

    /// Seeds the rendezvous replica-selection order for subsequent runs.
    pub fn set_replica_seed(&mut self, seed: u64) {
        self.core.options.lock().unwrap().replica_seed = seed;
    }

    /// The replica catalog as currently registered.
    pub fn replica_catalog(&self) -> ReplicaCatalog {
        self.core.catalog.lock().unwrap().clone()
    }

    /// Records that `host` serves a bit-identical copy of `canonical_uri`
    /// without this federation holding the copy — placement for a
    /// federation over a [`Transport`], whose documents live in the
    /// daemons ([`Self::replicate_document`] covers the simulated case).
    pub fn register_replica(&mut self, canonical_uri: &str, host: &str) {
        self.core.catalog.lock().unwrap().register(canonical_uri, host);
        self.core.frontend.topology_changed();
    }

    /// Records the transport address of `peer` in the catalog (the address
    /// book `--connect` populates; a TCP transport keeps its own dial map).
    pub fn set_peer_address(&mut self, peer: &str, addr: &str) {
        self.core.catalog.lock().unwrap().set_address(peer, addr);
    }

    /// Breaker state of `peer` on the scoreboard left by the last run.
    pub fn breaker_state(&self, peer: &str) -> BreakerState {
        self.core.board.lock().unwrap().state(peer)
    }

    /// The health scoreboard left behind by the last run (EWMA latency,
    /// breaker states, final simulated clock).
    pub fn scoreboard(&self) -> Scoreboard {
        self.core.board.lock().unwrap().clone()
    }

    /// Replicates document `doc_name` of `primary` onto `replica` (added if
    /// absent). The copy is parsed from the primary's serialized form and
    /// registered under the primary's **canonical** `xrpc://` URI — it is
    /// still *the* primary's document, merely served from another host — and
    /// the placement is recorded in the replica catalog so the failover
    /// ladder and the decomposer's destination resolution can elect the new
    /// host. Replicating an already-replicated document is idempotent.
    pub fn replicate_document(
        &mut self,
        primary: &str,
        doc_name: &str,
        replica: &str,
    ) -> Result<(), EvalError> {
        let canonical = format!("xrpc://{primary}/{doc_name}");
        let xml = self
            .core
            .peers
            .lock()
            .unwrap()
            .get(primary)
            .and_then(Option::as_ref)
            .ok_or_else(|| EvalError::new(format!("unknown or busy peer: {primary}")))?
            .serialize_document(&canonical)?;
        self.load_replica_copy(replica, &canonical, &xml)
    }

    /// Replicates every canonically-registered document of `primary` onto
    /// `replica`, making it a full stand-in for shipped call bodies (the
    /// ladder only routes a *call* to hosts serving all of the primary's
    /// documents — see [`ReplicaCatalog::hosts_serving_peer`]).
    pub fn replicate_peer(&mut self, primary: &str, replica: &str) -> Result<(), EvalError> {
        let names: Vec<String> = {
            let peers = self.core.peers.lock().unwrap();
            let p = peers
                .get(primary)
                .and_then(Option::as_ref)
                .ok_or_else(|| EvalError::new(format!("unknown or busy peer: {primary}")))?;
            let prefix = format!("xrpc://{primary}/");
            p.store
                .docs()
                .filter_map(|(_, doc)| Some(doc.uri.as_ref()?.strip_prefix(&prefix)?.to_string()))
                .collect()
        };
        if names.is_empty() {
            return Err(EvalError::new(format!(
                "peer {primary} has no canonical documents to replicate"
            )));
        }
        for name in names {
            self.replicate_document(primary, &name, replica)?;
        }
        Ok(())
    }

    pub fn exec_options(&self) -> ExecOptions {
        self.core.options()
    }

    /// Adds an empty peer.
    pub fn add_peer(&mut self, name: &str) {
        self.core.peers.lock().unwrap().insert(name.to_string(), Some(Peer::new(name)));
        self.core.frontend.topology_changed();
    }

    /// Loads `xml` as document `doc_name` on `peer` (added if absent).
    pub fn load_document(&mut self, peer: &str, doc_name: &str, xml: &str) -> Result<(), EvalError> {
        let mut peers = self.core.peers.lock().unwrap();
        peers
            .entry(peer.to_string())
            .or_insert_with(|| Some(Peer::new(peer)))
            .as_mut()
            .ok_or_else(|| EvalError::new(format!("peer {peer} is busy")))?
            .load_document(doc_name, xml)?;
        drop(peers);
        self.core.frontend.topology_changed();
        Ok(())
    }

    /// Loads `xml` on `peer` under an explicit foreign **canonical** URI —
    /// a replica copy of another primary's document, whether it arrives from
    /// outside the federation (a daemon's CLI-provided file) or from a live
    /// primary ([`Federation::replicate_document`]). The placement is
    /// recorded in the catalog so plain-name and failover resolution can
    /// elect this host.
    pub fn load_replica_copy(
        &mut self,
        peer: &str,
        canonical_uri: &str,
        xml: &str,
    ) -> Result<(), EvalError> {
        let mut peers = self.core.peers.lock().unwrap();
        let p = peers
            .entry(peer.to_string())
            .or_insert_with(|| Some(Peer::new(peer)))
            .as_mut()
            .ok_or_else(|| EvalError::new(format!("peer {peer} is busy")))?;
        if p.store.doc_by_uri(canonical_uri).is_none() {
            xqd_xml::parse_document(&mut p.store, xml, Some(canonical_uri))
                .map_err(|e| EvalError::new(format!("replicating {canonical_uri}: {e}")))?;
        }
        drop(peers);
        self.core.catalog.lock().unwrap().register(canonical_uri, peer);
        self.core.frontend.topology_changed();
        Ok(())
    }

    /// Takes `name`'s peer out of its slot without waiting (`None` if
    /// absent or already held). Test scaffolding: a held slot is
    /// indistinguishable from a long-running evaluation, which is exactly
    /// what drain/overload tests need to stage deterministically.
    #[doc(hidden)]
    pub fn checkout_peer(&self, name: &str) -> Option<Peer> {
        self.core.take_peer(name, Duration::ZERO).ok()
    }

    /// Returns a peer checked out with [`Federation::checkout_peer`].
    #[doc(hidden)]
    pub fn checkin_peer(&self, peer: Peer) {
        self.core.put_peer(peer);
    }

    /// Parses, decomposes and executes `query` under `strategy`.
    pub fn run(&mut self, query: &str, strategy: Strategy) -> EvalResult<RunOutcome> {
        self.run_with(query, strategy, xqd_core::DecomposeOptions::default())
    }

    /// Like [`Self::run`] with explicit decomposition pipeline options
    /// (used by the ablation benches). Every run: reset per-run state
    /// (before the front end, so cache events land inside the run's metric
    /// snapshot), prepare, execute.
    pub fn run_with(
        &mut self,
        query: &str,
        strategy: Strategy,
        decompose: xqd_core::DecomposeOptions,
    ) -> EvalResult<RunOutcome> {
        let exec = self.begin_run(strategy);
        let static_ctx = self.core.static_ctx.lock().unwrap().clone();
        let session = Session { strategy, decompose, exec, static_ctx: &static_ctx };
        let prepared = self.front_end(query, &session)?;
        self.finish_run(prepared, &exec, static_ctx)
    }

    /// Runs (or, on a warm cache, skips) the front end for `query` — parse,
    /// decompose, replica resolution, lowering to plan IR — and returns the
    /// prepared entry. This is the per-run preamble [`Self::run`] executes;
    /// exposed so benches can measure the front-end rate on its own. Cache
    /// events count into the metric sink and are swept up by the next run's
    /// reset.
    pub fn prepare(&mut self, query: &str, strategy: Strategy) -> EvalResult<Arc<PreparedQuery>> {
        let session = Session {
            strategy,
            decompose: xqd_core::DecomposeOptions::default(),
            exec: self.core.options(),
            static_ctx: &self.core.static_ctx.lock().unwrap().clone(),
        };
        self.front_end(query, &session)
    }

    /// The shared front end ([`crate::frontend`]), with its milestones
    /// counted into the metric sink and marked in the run's trace as
    /// zero-duration events: parsing, decomposition and lowering are
    /// coordinator CPU, which the simulated clock does not bill.
    fn front_end(&self, query: &str, session: &Session<'_>) -> EvalResult<Arc<PreparedQuery>> {
        let sink = &self.core.metrics;
        let tracer = self.core.tracer();
        let mut observe = |event: FrontEndEvent| {
            let (counter, name, args) = match event {
                FrontEndEvent::CacheHit => {
                    (Some(&sink.plan_cache_hits), "frontend.cache-hit", Vec::new())
                }
                FrontEndEvent::CacheMiss => {
                    (Some(&sink.plan_cache_misses), "frontend.cache-miss", Vec::new())
                }
                FrontEndEvent::Parsed { chars } => {
                    (None, "frontend.parse", vec![("chars", chars.to_string())])
                }
                FrontEndEvent::Compiled { remote_calls, semijoins } => (
                    Some(&sink.plans_compiled),
                    "frontend.compile",
                    vec![
                        ("remote_calls", remote_calls.to_string()),
                        ("semijoins", semijoins.to_string()),
                    ],
                ),
            };
            if let Some(counter) = counter {
                counter.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(tracer) = &tracer {
                tracer.event(ROOT_SPAN, name, "frontend", args);
            }
        };
        self.core.frontend.prepare(query, session, &self.core.catalog, &mut observe)
    }

    /// Per-run state reset.
    fn begin_run(&mut self, strategy: Strategy) -> ExecOptions {
        let exec_options = self.core.options();
        self.core.metrics.reset();
        self.core.lanes.store(0, Ordering::Relaxed);
        {
            // the simulated board is per-run state; the wire's persists and
            // only catches up with the time that passed since the last run
            let mut board = self.core.board.lock().unwrap();
            if let Carrier::Simulated = self.core.carrier {
                board.reset(exec_options.breaker);
            }
            self.core.advance_board(&mut board, Duration::ZERO);
        }
        *self.core.tracer.lock().unwrap() = exec_options.trace.then(|| {
            // the trace id is a pure function of the run's seeds, drawn
            // through the workspace PRNG — replaying a chaos schedule
            // reproduces it bit for bit
            let fault_seed = exec_options.fault.map(|p| p.seed).unwrap_or(0);
            let mut rng = xqd_prng::Rng::seed_from_u64(
                fault_seed ^ exec_options.replica_seed.rotate_left(32),
            );
            let tracer = Tracer::new(rng.next_u64(), "query", "query");
            tracer.root_arg("strategy", format!("{strategy:?}"));
            Arc::new(tracer)
        });
        *self.core.wire.lock().unwrap() = WireSemantics::of(strategy);
        exec_options
    }

    /// The back end shared by every entry point: fresh coordinator store,
    /// execute the plan, canonicalize, snapshot.
    fn finish_run(
        &mut self,
        prepared: Arc<PreparedQuery>,
        exec_options: &ExecOptions,
        static_ctx: StaticContext,
    ) -> EvalResult<RunOutcome> {
        let started = Instant::now();
        // per-op profiling reads the tracer's simulated clock when tracing
        // is on (one shared timeline); a fresh zero cell otherwise
        let hook = exec_options.profile.then(|| xqd_xquery::ProfileHook {
            data: std::rc::Rc::new(std::cell::RefCell::new(xqd_xquery::OpProfile::new(
                prepared.plan.ops.len(),
            ))),
            clock: self.core.tracer().map(|t| t.clock_handle()).unwrap_or_default(),
        });
        // fresh coordinator store per run
        let mut local = Store::new();
        let mut link = FedLink { core: Arc::clone(&self.core), peer: String::new() };
        let mut handler = FedLink { core: Arc::clone(&self.core), peer: String::new() };
        let mut ev = Evaluator::new(&mut local, &[], &mut link)
            .with_remote(&mut handler)
            .with_static_context(static_ctx)
            .with_indexes(exec_options.use_indexes);
        if let Some(h) = &hook {
            ev = ev.with_profile(h.clone());
        }
        let evaluated = prepared.plan.eval(&mut ev);
        drop(ev);
        // the tracer is *taken* even on error, so spans from one run (or
        // from stray `prepare()` calls in between) never leak into the next
        let trace = self.core.tracer.lock().unwrap().take().map(|t| {
            if let Err(e) = &evaluated {
                t.root_arg("error", e.message.clone());
            }
            t.finish()
        });
        *self.core.last_trace.lock().unwrap() = trace.clone();
        let result = evaluated?;
        let profile = hook.map(|h| h.data.borrow().clone());
        let plan = Arc::clone(&prepared.decomposition);
        self.core
            .metrics
            .semijoins
            .fetch_add(plan.semijoins.len() as u64, Ordering::Relaxed);
        let total = started.elapsed();
        let canonical = result.iter().map(|i| canonical_item(&local, i)).collect();
        let mut metrics = self.core.metrics.snapshot();
        metrics.total = total;
        Ok(RunOutcome { result: canonical, metrics, plan, trace, profile, compiled: Some(prepared) })
    }

    /// Metrics of the last run (also returned in [`RunOutcome`]); `total`
    /// is only carried by the [`RunOutcome`].
    pub fn metrics(&self) -> Metrics {
        self.core.metrics.snapshot()
    }

    /// Takes the finished trace of the most recent traced run. This is how
    /// the trace of a run that ended in a typed error is recovered (a
    /// successful run returns it in [`RunOutcome::trace`] too); a second
    /// call returns `None`.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.core.last_trace.lock().unwrap().take()
    }

    /// An envelope-level [`Transport`] view of this federation's peers: one
    /// exchange takes a peer's slot, runs the real decode → evaluate →
    /// encode path, and returns the reply envelope. The daemon harness uses
    /// this as the in-process oracle the TCP transport is diffed against —
    /// same codecs, same fault semantics, zero sockets.
    pub fn transport(&self) -> SimTransport {
        SimTransport { core: Arc::clone(&self.core) }
    }

    /// Total serialized size in bytes of every document stored on peers —
    /// the Figure 7 x-axis.
    pub fn total_document_bytes(&self) -> u64 {
        let peers = self.core.peers.lock().unwrap();
        let mut total = 0u64;
        for peer in peers.values().flatten() {
            for (_, doc) in peer.store.docs() {
                if doc.uri.is_some() {
                    total += xqd_xml::serialize_document(doc, &peer.store.names).len() as u64;
                }
            }
        }
        total
    }
}

/// The simulated federation seen through the [`Transport`] seam: every
/// exchange is one envelope round-trip against a real peer slot, using the
/// same codecs and the same slot discipline (a wait bounded by `budget`,
/// then a typed `PeerBusy`) as the in-process execution paths. No fault
/// plan applies here — the chaos oracle stays attached to the simulated
/// *run* paths — so a reply either round-trips faithfully or fails for a
/// real reason (unknown peer, slot contention within `budget`).
pub struct SimTransport {
    core: Arc<FedCore>,
}

impl Transport for SimTransport {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        let mut p = self.core.take_peer(peer, budget)?;
        let outcome = match decode_doc_request(request) {
            // a doc-request envelope serves the data-shipping path
            Some(uri) => Ok(match p.serialize_document(&uri) {
                Ok(xml) => encode_doc_response(&uri, &xml),
                Err(not_found) => encode_fault(&not_found),
            }),
            None => run_remote(peer, request, false, &mut |req| {
                process_request(&self.core, peer, &mut p.store, req)
            }),
        };
        self.core.put_peer(p);
        outcome
    }
}

/// The resolver/handler link of one executing peer (empty name =
/// coordinator).
struct FedLink {
    core: Arc<FedCore>,
    peer: String,
}

impl DocResolver for FedLink {
    fn resolve(&mut self, store: &mut Store, uri: &str) -> EvalResult<xqd_xml::DocId> {
        if let Some(d) = store.doc_by_uri(uri) {
            return Ok(d);
        }
        if let Some((host, name)) = xqd_core::uris::split_xrpc_uri(uri) {
            if host == self.peer {
                // our own document, referenced through its xrpc URI (the
                // canonical registration; plain names accepted as fallback)
                return store
                    .doc_by_uri(uri)
                    .or_else(|| store.doc_by_uri(name))
                    .ok_or_else(|| EvalError::new(format!("document not found on {host}: {name}")));
            }
            // data shipping: fetch the whole document — itself subject to
            // the fault plan and retry policy (fetches are pure reads, so
            // replaying one is always safe). Every host serving the URI is
            // a candidate; the ladder walks them healthiest-first.
            let options = self.core.options();
            let board = self.core.board_snapshot();
            let hosts = self.core.catalog.lock().unwrap().hosts_for(uri);
            let (mut candidates, rejected) =
                admitted_candidates(&board, options.replica_seed, hosts);
            if candidates.is_empty() && self.core.degrades() {
                // fetches back the degradation path — the last resort. With
                // every breaker open, force one attempt on the primary
                // rather than failing the whole query without trying.
                candidates.push((host.to_string(), false));
            }
            let call = Call {
                policy: options.retry,
                lane: self.core.next_lane(),
                hedge: None,
                spans: options.trace.then_some(Spans { names: &DOC_SPANS, board: &board }),
            };
            let (mut simulated, mut wire, request);
            let fetch: &mut dyn Attempt = match &self.core.carrier {
                Carrier::Simulated => {
                    simulated = DocAttempt { wire: SimWire::new(&self.core, &options), uri, name };
                    &mut simulated
                }
                Carrier::Wire { transport, .. } => {
                    request = encode_doc_request(uri);
                    wire = WireAttempt::new(&self.core, &**transport, &request, Some(uri), &options);
                    &mut wire
                }
            };
            let mut ladder = walk(fetch, &call, host, candidates, rejected);
            self.core.charge_ladder(&ladder);
            if self.peer.is_empty() {
                self.core.apply_observations(ladder.window, &ladder.observations);
                if let Some(tracer) = self.core.tracer() {
                    let root = SpanBuilder::new("doc.fetch", "doc").arg("uri", uri);
                    tracer.submit(tracer.clock_ns(), ROOT_SPAN, ladder.span(root));
                    tracer.advance(ladder.window);
                }
            }
            let sink = &self.core.metrics;
            let xml = ladder.outcome.map_err(EvalError::from)?;
            sink.doc_fetches.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let d = xqd_xml::parse_document(store, &xml, Some(uri))
                .map_err(|e| EvalError::new(format!("shredding {uri}: {e}")))?;
            sink.shred.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
            return Ok(d);
        }
        // a plain name on a peer refers to that peer's own document (the
        // paper's remote functions use local names, e.g. doc("depts.xml"))
        if !self.peer.is_empty() && !uri.contains("://") {
            let canonical = format!("xrpc://{}/{}", self.peer, uri);
            if let Some(d) = store.doc_by_uri(&canonical) {
                return Ok(d);
            }
            // a replica evaluating a shipped body: its copy is registered
            // under the *primary's* canonical URI, which the catalog knows
            let replicated = self.core.catalog.lock().unwrap().canonical_on(&self.peer, uri);
            if let Some(canonical) = replicated {
                if let Some(d) = store.doc_by_uri(&canonical) {
                    return Ok(d);
                }
            }
        }
        Err(EvalError::new(format!("document not found: {uri}")))
    }
}

/// What the two simulated attempts share: the core whose sink and link
/// model they bill, and the run's fault schedule.
struct SimWire<'a> {
    core: &'a FedCore,
    plan: Option<FaultPlan>,
    deadline: Duration,
    trace: bool,
}

impl<'a> SimWire<'a> {
    fn new(core: &'a FedCore, options: &ExecOptions) -> Self {
        SimWire { core, plan: options.fault, deadline: options.retry.deadline, trace: options.trace }
    }

    /// The fault scheduled for attempt `id` at `peer`, counted when one
    /// fires. Ordinals are drawn from the ladder's `(lane, rung)` stream,
    /// never from shared state.
    fn fault(&self, peer: &str, id: AttemptId) -> Option<Fault> {
        let fault = self.plan?.decide(peer, fault_seq(id));
        if fault.is_some() {
            self.core.metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// The plan behind a fault that fired.
    fn scheduled(&self) -> &FaultPlan {
        self.plan.as_ref().expect("a fault fired, so a plan is installed")
    }

    fn mangle_position(&self, peer: &str, id: AttemptId, len: usize) -> usize {
        self.scheduled().mangle_position(peer, fault_seq(id), len)
    }

    fn jitter(&self, peer: &str, id: AttemptId) -> f64 {
        self.plan.map_or(0.0, |p| p.jitter(peer, fault_seq(id)))
    }

    fn peer_down(peer: &str) -> XrpcError {
        XrpcError::PeerBusy {
            peer: peer.to_string(),
            detail: "peer down (injected fault)".to_string(),
            retry_after: BUSY_SWITCH_WAIT,
        }
    }

    /// The caller's clock ran until it gave up at the deadline (simulated —
    /// no real wait).
    fn timeout(&self, peer: &str) -> XrpcError {
        XrpcError::Timeout { peer: peer.to_string(), deadline: self.deadline }
    }
}

/// The simulated document-fetch [`Attempt`]: one data-shipping fetch of
/// `uri` from a serving host under the fault plan. The whole-document
/// payload *is* the message here, so truncation or corruption of either
/// direction mangles it. Waiting is free — the retry loop already charged
/// the backoff to the chain.
struct DocAttempt<'a> {
    wire: SimWire<'a>,
    uri: &'a str,
    name: &'a str,
}

impl Attempt for DocAttempt<'_> {
    fn attempt(
        &mut self,
        fhost: &str,
        id: AttemptId,
        budget: Duration,
        slot_wait: Duration,
    ) -> Attempted {
        let DocAttempt { wire, uri, name } = self;
        let core = wire.core;
        let sink = &core.metrics;
        let fault = wire.fault(fhost, id);
        let (spent, result) = 'attempt: {
            match fault {
                Some(Fault::PeerDown) => {
                    break 'attempt (core.model.latency, Err(SimWire::peer_down(fhost)));
                }
                Some(Fault::Hang) => break 'attempt (budget, Err(wire.timeout(fhost))),
                Some(Fault::RemotePanic) => {
                    let crashed = XrpcError::RemoteFault {
                        peer: fhost.to_string(),
                        code: "xrpc:panic".to_string(),
                        message: format!("peer {fhost} crashed while serializing {name}"),
                    };
                    break 'attempt (Duration::ZERO, Err(crashed));
                }
                _ => {}
            }
            // the slot wait is bounded by the ladder's per-rung wait AND the
            // remaining deadline budget — a chain that already ate most of
            // the deadline must not block the full wait on a busy slot
            let peer_obj = match core.take_peer(fhost, slot_wait.min(budget)) {
                Ok(p) => p,
                Err(e) => break 'attempt (Duration::ZERO, Err(e)),
            };
            let t0 = Instant::now();
            let found = peer_obj.serialize_document(uri);
            sink.serialize.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
            core.put_peer(peer_obj);
            let xml = match found {
                Ok(x) => x,
                Err(e) => break 'attempt (Duration::ZERO, Err(e)),
            };
            let mut spent = match fault {
                Some(Fault::Latency) => wire.scheduled().extra_latency,
                _ => Duration::ZERO,
            };
            // a mangled payload moves the bytes that made it across
            let (arrived, mangled) = match fault {
                Some(Fault::TruncateRequest | Fault::TruncateResponse) => {
                    let cut = char_floor(&xml, wire.mangle_position(fhost, id, xml.len()));
                    (cut, Some(format!("document payload truncated at byte {cut}")))
                }
                Some(Fault::CorruptRequest | Fault::CorruptResponse) => {
                    let pos = wire.mangle_position(fhost, id, xml.len());
                    (xml.len(), Some(format!("document payload byte {pos} is not valid UTF-8")))
                }
                _ => (xml.len(), None),
            };
            sink.document_bytes.fetch_add(arrived as u64, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            spent += core.model.transfer_time(arrived as u64);
            if let Some(detail) = mangled {
                let corrupt = XrpcError::TransportCorrupt { peer: fhost.to_string(), detail };
                break 'attempt (spent, Err(corrupt));
            }
            if spent > budget {
                break 'attempt (budget, Err(wire.timeout(fhost)));
            }
            (spent, Ok(xml))
        };
        let ok_arg = match &result {
            Ok(xml) if wire.trace => Some(("bytes", xml.len().to_string())),
            _ => None,
        };
        Attempted { spent, result, fault, ok_arg }
    }

    fn jitter(&self, host: &str, id: AttemptId) -> f64 {
        self.wire.jitter(host, id)
    }

    fn pause(&mut self, _: Duration) {}
}

/// Compiles a shipped body and evaluates it once per decoded call against
/// `store`, as `peer` (the coordinator is the empty name). The one place a
/// shipped body becomes a plan — on the peer that was asked and on the
/// coordinator standing in for it. Every call runs the shared plan with run
/// state of its own.
///
/// Peers compile per request — the request is the unit of determinism under
/// concurrent scatter/hedged delivery, so these compiles are kept off the
/// plan counters and out of the coordinator's cache.
fn eval_shipped(
    core: &Arc<FedCore>,
    peer: &str,
    store: &mut Store,
    module: &QueryModule,
    static_ctx: &StaticContext,
    calls: &[Vec<(String, Sequence)>],
) -> EvalResult<Vec<Sequence>> {
    let plan = xqd_xquery::compile_module(
        &module.functions,
        &module.body,
        core.options().use_indexes,
        static_ctx,
    );
    let mut results = Vec::with_capacity(calls.len());
    for params in calls {
        let mut resolver = FedLink { core: Arc::clone(core), peer: peer.to_string() };
        let mut nested = FedLink { core: Arc::clone(core), peer: peer.to_string() };
        // the plan carries its own compiled functions
        let mut ev = Evaluator::new(store, &[], &mut resolver)
            .with_remote(&mut nested)
            .with_static_context(static_ctx.clone())
            .with_indexes(plan.use_indexes);
        for (name, value) in params {
            ev.bind(name, value.clone());
        }
        results.push(plan.eval(&mut ev)?);
    }
    Ok(results)
}

/// Remote-side handling of one request message against `store` (the target
/// peer's store): decode, evaluate every carried call, encode the response.
/// Shared by the sequential, re-entrant and scatter paths so their
/// observable behavior cannot drift apart.
///
/// The request envelope, shipped fragments and constructed results are
/// shredded into `store` only for the duration of the request: once the
/// reply is encoded (or the request failed) they are dropped again, so a
/// long-lived peer's store does not grow with requests served. Marks nest
/// LIFO, which covers the re-entrant same-peer call. A request whose body
/// data-shipped a document keeps everything: the fetched copy is the
/// peer's document cache, and later requests must find it.
fn process_request(
    core: &Arc<FedCore>,
    peer: &str,
    store: &mut Store,
    request: &str,
) -> EvalResult<String> {
    let mark = store.doc_count();
    let response = process_request_in(core, peer, store, request);
    if store.docs().skip(mark).all(|(_, doc)| doc.uri.is_none()) {
        store.truncate_docs(mark);
    }
    response
}

fn process_request_in(
    core: &Arc<FedCore>,
    peer: &str,
    store: &mut Store,
    request: &str,
) -> EvalResult<String> {
    let t0 = Instant::now();
    let decoded = decode_request(store, request)?;
    core.metrics.shred.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);

    let module = parse_query(&decoded.query)
        .map_err(|e| EvalError::new(format!("remote parse error: {e}")))?;

    let t_exec = Instant::now();
    let results = eval_shipped(core, peer, store, &module, &decoded.static_ctx, &decoded.calls)?;
    core.metrics
        .remote_exec
        .fetch_add(as_ns(t_exec.elapsed()), Ordering::Relaxed);

    let t_ser = Instant::now();
    let response = encode_response(
        store,
        decoded.semantics,
        &results,
        decoded.result_spec.as_ref(),
    )?;
    core.metrics
        .serialize
        .fetch_add(as_ns(t_ser.elapsed()), Ordering::Relaxed);
    Ok(response)
}

/// Largest index `<= pos` that is a char boundary of `s`, so truncation
/// always yields valid UTF-8 (the mangled message still fails to *decode*:
/// any cut strictly before the end loses the closing `>` of the envelope).
fn char_floor(s: &str, pos: usize) -> usize {
    let mut p = pos.min(s.len());
    while p > 0 && !s.is_char_boundary(p) {
        p -= 1;
    }
    p
}

/// Human-readable form of a captured panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Runs the remote side of one delivery with panic capture. Remote
/// evaluation failures and panics become wire-encoded fault responses (they
/// travel back through the real codec); caller-side slot failures
/// (unknown/busy peer) stay local and typed — no message ever crossed the
/// wire for them.
fn run_remote(
    peer: &str,
    request: &str,
    inject_panic: bool,
    process: &mut dyn FnMut(&str) -> EvalResult<String>,
) -> Result<String, XrpcError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected fault: remote worker panic on peer {peer}");
        }
        process(request)
    }));
    match outcome {
        Ok(Ok(response)) => Ok(response),
        Ok(Err(e)) => match XrpcError::from_eval(peer, &e) {
            slot @ (XrpcError::UnknownPeer { .. } | XrpcError::PeerBusy { .. }) => Err(slot),
            remote => Ok(encode_fault(&remote)),
        },
        Err(payload) => Ok(encode_fault(&XrpcError::RemoteFault {
            peer: peer.to_string(),
            code: "xrpc:panic".to_string(),
            message: panic_message(payload.as_ref()),
        })),
    }
}

/// The simulated RPC [`Attempt`]: one delivery of `request` across the
/// simulated wire under the installed fault plan — messages are mangled,
/// dropped or stalled per the deterministic schedule, and bytes and
/// transfers are accounted for every attempt (failed attempts moved real
/// bytes too). The remote side runs through the caller's `process`
/// (`host, request, slot wait`), which is what lets a re-entrant same-peer
/// call evaluate on the store already on the caller's stack. Waiting is
/// free — the retry loop already charged the backoff to the chain.
struct RpcAttempt<'a> {
    wire: SimWire<'a>,
    request: &'a str,
    process: &'a mut dyn FnMut(&str, &str, Duration) -> EvalResult<String>,
}

impl Attempt for RpcAttempt<'_> {
    fn attempt(
        &mut self,
        peer: &str,
        id: AttemptId,
        budget: Duration,
        slot_wait: Duration,
    ) -> Attempted {
        let RpcAttempt { wire, request, process } = self;
        let sink = &wire.core.metrics;
        let model = wire.core.model;
        let fault = wire.fault(peer, id);
        let (spent, result) = 'attempt: {
            // ---- request leg (possibly mangled or lost in flight) ----
            let delivered = match fault {
                Some(Fault::TruncateRequest) => {
                    &request[..char_floor(request, wire.mangle_position(peer, id, request.len()))]
                }
                _ => *request,
            };
            sink.message_bytes.fetch_add(delivered.len() as u64, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            sink.charge_keysets(delivered);
            let mut spent = model.transfer_time(delivered.len() as u64);
            match fault {
                Some(Fault::PeerDown) => break 'attempt (spent, Err(SimWire::peer_down(peer))),
                Some(Fault::Hang) => break 'attempt (budget, Err(wire.timeout(peer))),
                Some(Fault::Latency) => spent += wire.scheduled().extra_latency,
                _ => {}
            }

            // ---- remote side ----
            // A corrupted request is not even valid UTF-8: the peer's XRPC
            // layer rejects it outright with a transport fault. Truncated
            // requests go through the real decode path and fail there.
            let remote_outcome = match fault {
                Some(Fault::CorruptRequest) => {
                    let pos = wire.mangle_position(peer, id, request.len());
                    Ok(encode_fault(&XrpcError::TransportCorrupt {
                        peer: peer.to_string(),
                        detail: format!("request byte {pos} is not valid UTF-8"),
                    }))
                }
                _ => {
                    // the slot wait is the rung's switch policy bounded by
                    // what the request leg left of the budget: no path may
                    // out-wait its own deadline
                    let wait = slot_wait.min(budget.saturating_sub(spent));
                    run_remote(
                        peer,
                        delivered,
                        matches!(fault, Some(Fault::RemotePanic)),
                        &mut |req| process(peer, req, wait),
                    )
                }
            };
            let response = match remote_outcome {
                Ok(r) => r,
                Err(e) => break 'attempt (spent, Err(e)),
            };

            // ---- response leg (possibly mangled in flight) ----
            let (arrived, mangled) = match fault {
                Some(Fault::TruncateResponse) => {
                    let cut =
                        char_floor(&response, wire.mangle_position(peer, id, response.len()));
                    (&response[..cut], Some(format!("response truncated at byte {cut}")))
                }
                Some(Fault::CorruptResponse) => {
                    let pos = wire.mangle_position(peer, id, response.len());
                    (&response[..], Some(format!("response byte {pos} is not valid UTF-8")))
                }
                _ => (&response[..], None),
            };
            sink.message_bytes.fetch_add(arrived.len() as u64, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            sink.charge_keysets(arrived);
            spent += model.transfer_time(arrived.len() as u64);
            if let Some(detail) = mangled {
                let corrupt = XrpcError::TransportCorrupt { peer: peer.to_string(), detail };
                break 'attempt (spent, Err(corrupt));
            }
            if spent > budget {
                break 'attempt (budget, Err(wire.timeout(peer)));
            }
            (spent, reply_or_fault(response))
        };
        let ok_arg = match &result {
            Ok(r) if wire.trace => Some(("payload", payload_kind(r).to_string())),
            _ => None,
        };
        Attempted { spent, result, fault, ok_arg }
    }

    fn jitter(&self, host: &str, id: AttemptId) -> f64 {
        self.wire.jitter(host, id)
    }

    fn pause(&mut self, _: Duration) {}
}

/// The wire carrier's [`Attempt`], for calls and document fetches alike:
/// one envelope exchange through the [`Transport`], timed with [`Instant`];
/// a fault envelope is decoded into the typed error it carries, and waiting
/// is a genuine `thread::sleep`. Envelopes are billed as they cross — the
/// request when it leaves, the reply (a fault included) when it lands —
/// which is where the simulated attempts bill theirs, so a failed attempt's
/// bytes count here too. The daemon does its own slot queuing, so
/// `slot_wait` has no meaning on this side of the wire.
struct WireAttempt<'a> {
    core: &'a FedCore,
    transport: &'a dyn Transport,
    request: &'a str,
    /// `Some(uri)` for a document fetch: `request` is then a doc-request
    /// envelope, and the doc envelope that answers it is opened here, so
    /// the link is handed document XML by either carrier.
    doc: Option<&'a str>,
    /// Jitter seed: backoff phases are a pure function of
    /// `(seed, lane, rung, host, failures)`, so same-peer retries across a
    /// run do not share them.
    seed: u64,
    trace: bool,
}

impl<'a> WireAttempt<'a> {
    fn new(
        core: &'a FedCore,
        transport: &'a dyn Transport,
        request: &'a str,
        doc: Option<&'a str>,
        options: &ExecOptions,
    ) -> Self {
        let (seed, trace) = (options.replica_seed, options.trace);
        WireAttempt { core, transport, request, doc, seed, trace }
    }
}

impl Attempt for WireAttempt<'_> {
    fn attempt(&mut self, host: &str, _: AttemptId, budget: Duration, _: Duration) -> Attempted {
        let sink = &self.core.metrics;
        // a call is two transfers of message bytes; a fetch is one — the
        // document coming back — behind a request that is a message
        sink.message_bytes.fetch_add(self.request.len() as u64, Ordering::Relaxed);
        let reply_bytes = match self.doc {
            None => {
                sink.transfers.fetch_add(1, Ordering::Relaxed);
                sink.charge_keysets(self.request);
                &sink.message_bytes
            }
            Some(_) => &sink.document_bytes,
        };
        let started = Instant::now();
        let reply = self.transport.exchange(host, self.request, budget);
        let spent = started.elapsed();
        let result = reply.and_then(|reply| {
            reply_bytes.fetch_add(reply.len() as u64, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            let reply = reply_or_fault(reply)?;
            let Some(uri) = self.doc else {
                sink.charge_keysets(&reply);
                return Ok(reply);
            };
            decode_doc_response(&reply).ok_or_else(|| XrpcError::TransportCorrupt {
                peer: host.to_string(),
                detail: format!("reply for {uri} is not a doc envelope"),
            })
        });
        let ok_arg = match &result {
            Ok(reply) if self.trace => Some(match self.doc {
                None => ("payload", payload_kind(reply).to_string()),
                Some(_) => ("bytes", reply.len().to_string()),
            }),
            _ => None,
        };
        Attempted { spent, result, fault: None, ok_arg }
    }

    fn jitter(&self, host: &str, id: AttemptId) -> f64 {
        let stream = self.seed ^ id.lane.rotate_left(17) ^ u64::from(id.rung);
        seeded_fraction(stream, host, u64::from(id.failed) + 1)
    }

    fn pause(&mut self, wait: Duration) {
        std::thread::sleep(wait);
    }
}

/// One logical call through the failover ladder ([`crate::ladder::walk`])
/// over every catalog host able to stand in for `primary`, admitted against
/// the `board` snapshot, carried by the attempt the carrier supplies: the
/// simulated delivery through the caller's `process`, or an exchange on
/// the wire. Degradation on a degradable final error is the caller's move.
fn call_with_failover(
    core: &FedCore,
    board: &Scoreboard,
    primary: &str,
    lane: u64,
    request: &str,
    process: &mut dyn FnMut(&str, &str, Duration) -> EvalResult<String>,
) -> LadderOutcome {
    let options = core.options();
    let hosts = core.catalog.lock().unwrap().hosts_serving_peer(primary);
    let (candidates, rejected) = admitted_candidates(board, options.replica_seed, hosts);
    let (mut simulated, mut wire);
    let (attempt, hedge): (&mut dyn Attempt, _) = match &core.carrier {
        Carrier::Simulated => {
            simulated = RpcAttempt { wire: SimWire::new(core, &options), request, process };
            (&mut simulated, options.hedge.map(|base| (base, options.replica_seed)))
        }
        // `walk` models a hedge: it dials the pair one after the other and
        // computes which reply would have landed first. That is exact on a
        // simulated clock and strictly slower than not hedging on a real
        // one, so the wall clock never hedges.
        Carrier::Wire { transport, .. } => {
            wire = WireAttempt::new(core, &**transport, request, None, &options);
            (&mut wire, None)
        }
    };
    let call = Call {
        policy: options.retry,
        lane,
        hedge,
        spans: options.trace.then_some(Spans { names: &RPC_SPANS, board }),
    };
    walk(attempt, &call, primary, candidates, rejected)
}

/// Rewrites a call body for coordinator-side evaluation: every literal
/// plain-name `fn:doc` argument becomes the canonical `xrpc://<peer>/<name>`
/// URI so the coordinator's resolver data-ships it. Returns `None` when
/// the body is ineligible for degradation — nested `execute at`, computed
/// document URIs, or URIs on foreign schemes.
fn degrade_module(body: &Expr, peer: &str) -> Option<QueryModule> {
    fn rewrite(e: &Expr, peer: &str, ok: &mut bool) -> Expr {
        match e {
            Expr::Execute { .. } => {
                *ok = false;
                e.clone()
            }
            Expr::FunCall { name, args } if name == "doc" || name == "fn:doc" => {
                match args.as_slice() {
                    [Expr::Literal(a)] => {
                        let uri = a.to_lexical();
                        if uri.starts_with("xrpc://") {
                            e.clone()
                        } else if !uri.contains("://") {
                            Expr::FunCall {
                                name: name.clone(),
                                args: vec![Expr::Literal(Atomic::Str(format!(
                                    "xrpc://{peer}/{uri}"
                                )))],
                            }
                        } else {
                            *ok = false;
                            e.clone()
                        }
                    }
                    _ => {
                        *ok = false;
                        e.clone()
                    }
                }
            }
            other => {
                xqd_xquery::ast::map_children_infallible(other, &mut |c| {
                    rewrite(c, peer, ok)
                })
            }
        }
    }
    let mut ok = true;
    let body = rewrite(body, peer, &mut ok);
    ok.then_some(QueryModule { functions: Vec::new(), body })
}

/// Graceful degradation: when a peer cannot *answer* (down, corrupt link,
/// deadline exhausted), fetch the documents the body needs (data shipping —
/// itself fault-injected and retried), evaluate the body locally, then
/// round-trip the results through the same wire codec a remote answer
/// would have used. The loopback round-trip is what makes the fallback
/// semantics-preserving bit-for-bit: by-value copies still lose ancestry,
/// fragments still gain it, projections still prune — exactly as if the
/// peer had answered.
///
/// Returns `Ok(None)` when the body is ineligible (see [`degrade_module`]);
/// the caller then surfaces the typed transport error instead.
#[allow(clippy::too_many_arguments)]
fn fallback_local(
    core: &Arc<FedCore>,
    local: &mut Store,
    static_ctx: &StaticContext,
    peer: &str,
    body: &Expr,
    calls: &[Vec<(String, Sequence)>],
    projection: Option<&ExecProjection>,
    wire: WireSemantics,
) -> EvalResult<Option<Vec<Sequence>>> {
    let Some(module) = degrade_module(body, peer) else { return Ok(None) };
    // evaluated as the coordinator (empty peer name), so the rewritten
    // `xrpc://` document URIs data-ship through the resolver
    let results = eval_shipped(core, "", local, &module, static_ctx, calls).map_err(|e| {
        if e.code.is_some() {
            e
        } else {
            // keep the "typed error or correct answer" invariant: a
            // dynamic error during degraded evaluation is the same
            // fault the peer would have reported
            EvalError::from(XrpcError::RemoteFault {
                peer: peer.to_string(),
                code: "err:dynamic".to_string(),
                message: e.message,
            })
        }
    })?;
    let response = encode_response(local, wire, &results, projection.map(|p| &p.result))?;
    let decoded = decode_response(local, &response)?;
    core.metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
    Ok(Some(decoded))
}

impl FedLink {
    /// Caller side of a request: serialize `calls` against the local store.
    fn encode(
        &self,
        local: &Store,
        static_ctx: &StaticContext,
        calls: &[Vec<(String, Sequence)>],
        body: &xqd_xquery::Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<String> {
        let t0 = Instant::now();
        let request = encode_request(
            local,
            self.core.wire(),
            static_ctx,
            &body.to_string(),
            calls,
            projection.map(|p| p.params.as_slice()),
            projection.map(|p| &p.result),
        )?;
        let sink = &self.core.metrics;
        sink.serialize.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
        sink.remote_calls.fetch_add(calls.len() as u64, Ordering::Relaxed);
        Ok(request)
    }

    /// Caller side of a ladder's outcome: shred the reply into the local
    /// store, or — when the peer could not *answer*, the body is eligible
    /// and the carrier has the rung — degrade to data shipping
    /// ([`fallback_local`]); anything else is the typed error.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        calls: &[Vec<(String, Sequence)>],
        body: &xqd_xquery::Expr,
        projection: Option<&ExecProjection>,
        outcome: Result<String, XrpcError>,
    ) -> EvalResult<Vec<Sequence>> {
        let response = match outcome {
            Ok(r) => r,
            Err(e) => {
                if e.degradable() && self.core.degrades() {
                    if let Some(sequences) = fallback_local(
                        &self.core,
                        local,
                        static_ctx,
                        peer,
                        body,
                        calls,
                        projection,
                        self.core.wire(),
                    )? {
                        if let Some(tracer) = self.core.tracer().filter(|_| self.peer.is_empty()) {
                            tracer.event(
                                ROOT_SPAN,
                                "rpc.degrade",
                                "rpc",
                                vec![("peer", peer.to_string()), ("error", e.code().to_string())],
                            );
                        }
                        return Ok(sequences);
                    }
                }
                return Err(e.into());
            }
        };
        let t0 = Instant::now();
        let sequences = decode_response(local, &response)?;
        self.core.metrics.shred.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
        if sequences.len() != calls.len() {
            return Err(EvalError::new(format!(
                "response carries {} sequences for {} calls",
                sequences.len(),
                calls.len()
            )));
        }
        Ok(sequences)
    }
}

impl RemoteHandler for FedLink {
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
        let mut results =
            self.execute_bulk(local, static_ctx, peer, &one_call, body, projection)?;
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

        // ---- deliver through the failover ladder over the replica set ----
        let core = Arc::clone(&self.core);
        let own = self.peer.clone();
        let board = self.core.board_snapshot();
        let lane = self.core.next_lane();
        let mut process = |host: &str, req: &str, wait: Duration| -> EvalResult<String> {
            if host == own {
                // re-entrant call: the caller *is* this peer, so its store
                // is on our stack — evaluate directly instead of taking the
                // (empty) slot. The message still crossed the loopback wire.
                process_request(&core, host, local, req)
            } else {
                let mut remote = core.take_peer(host, wait).map_err(EvalError::from)?;
                let outcome = process_request(&core, host, &mut remote.store, req);
                // put the peer back regardless of the outcome
                core.put_peer(remote);
                outcome
            }
        };
        let mut ladder = call_with_failover(&self.core, &board, peer, lane, &request, &mut process);
        self.core.charge_ladder(&ladder);
        if self.peer.is_empty() {
            self.core.apply_observations(ladder.window, &ladder.observations);
            // submit the ladder's span tree and advance the trace clock by
            // exactly the wall clock the scoreboard just advanced by
            if let Some(tracer) = self.core.tracer() {
                let root = SpanBuilder::new("rpc.ladder", "rpc").arg("peer", peer);
                let tree = ladder.span(root).arg("calls", calls.len().to_string());
                tracer.submit(tracer.clock_ns(), ROOT_SPAN, tree);
                tracer.advance(ladder.window);
            }
        }
        self.settle(local, static_ctx, peer, calls, body, projection, ladder.outcome)
    }

    fn execute_scatter(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        calls: &[ScatterCall<'_>],
    ) -> EvalResult<Vec<Sequence>> {
        let options = self.core.options();
        // parallelism disabled, nothing to overlap, or a round targeting
        // our own peer re-entrantly: fall back to the sequential per-call
        // loop (identical results, bytes and serialized network; no overlap
        // credit)
        if !options.parallel_scatter
            || calls.len() < 2
            || calls.iter().any(|c| c.peer == self.peer)
        {
            return calls
                .iter()
                .map(|c| self.execute(local, static_ctx, &c.peer, &c.params, c.body, c.projection))
                .collect();
        }

        // ---- scatter: encode every request up front, in call order ----
        // Parameters were pre-bound by the evaluator and responses only ever
        // *add* documents to the coordinator store, so these encodings are
        // byte-identical to the ones sequential execution would produce.
        let requests = calls
            .iter()
            .map(|c| {
                self.encode(local, static_ctx, std::slice::from_ref(&c.params), c.body, c.projection)
            })
            .collect::<EvalResult<Vec<String>>>()?;

        // ---- fan out: one scoped thread per distinct destination ----
        // Each worker drives its calls through the same failover ladder as
        // sequential execution, over a shared scoreboard snapshot. Fault
        // ordinals come from per-slot lanes reserved before the spawn, so
        // the schedule is independent of thread interleaving even when two
        // slots fail over to the same replica; health observations are
        // collected per slot and applied at the gather, in slot order.
        let peers: Vec<&str> = calls.iter().map(|c| c.peer.as_str()).collect();
        let groups = group_by_peer(&peers);
        let board = self.core.board_snapshot();
        let lane_base = self.core.reserve_lanes(calls.len() as u64);
        let core = &self.core;
        let mut rows: Vec<LadderOutcome> = fan_out(
            &groups,
            |i| {
                let mut process = |host: &str, req: &str, wait: Duration| -> EvalResult<String> {
                    let mut remote = core.take_peer(host, wait).map_err(EvalError::from)?;
                    let outcome = process_request(core, host, &mut remote.store, req);
                    core.put_peer(remote);
                    outcome
                };
                call_with_failover(
                    core,
                    &board,
                    peers[i],
                    lane_base + i as u64,
                    &requests[i],
                    &mut process,
                )
            },
            LadderOutcome::failed,
        );

        // ---- account the round ----
        // serialized network: the exact sum over every attempt chain
        // (transfer legs, stalls, backoff waits — hedged losers included);
        // overlapped: the slowest destination's wall clock dominates the
        // round
        let sink = &self.core.metrics;
        let mut serialized_sum = Duration::ZERO;
        let mut slowest_chain = Duration::ZERO;
        for (_, idxs) in &groups {
            let serialized: Duration = idxs.iter().map(|&i| rows[i].serialized).sum();
            let window: Duration = idxs.iter().map(|&i| rows[i].window).sum();
            serialized_sum += serialized;
            slowest_chain = slowest_chain.max(window);
        }
        sink.network.fetch_add(as_ns(serialized_sum), Ordering::Relaxed);
        sink.network_overlapped
            .fetch_add(as_ns(slowest_chain), Ordering::Relaxed);
        sink.scatter_rounds.fetch_add(1, Ordering::Relaxed);
        for row in &rows {
            self.core.charge_ladder_counters(row);
        }
        if self.peer.is_empty() {
            // one clock advance for the whole round, then every slot's
            // observations in slot order — deterministic by construction
            self.core.apply_observations(
                slowest_chain,
                rows.iter().flat_map(|r| &r.observations),
            );
            // slot ladders all anchor at the round start (they genuinely
            // overlap); ids are assigned in slot order at this gather
            if let Some(tracer) = self.core.tracer() {
                let anchor = tracer.clock_ns();
                let mut round = SpanBuilder::new("scatter.round", "rpc")
                    .lasting(slowest_chain)
                    .arg("slots", rows.len().to_string());
                for (i, row) in rows.iter_mut().enumerate() {
                    let root = SpanBuilder::new("rpc.ladder", "rpc").arg("peer", peers[i]);
                    round.push_child(row.span(root).arg("slot", i.to_string()));
                }
                tracer.submit(anchor, ROOT_SPAN, round);
                tracer.advance(slowest_chain);
            }
        }

        // ---- gather: decode or degrade per slot, in call order ----
        let mut results = Vec::with_capacity(calls.len());
        for (row, c) in rows.into_iter().zip(calls) {
            let one_call = std::slice::from_ref(&c.params);
            let mut sequences =
                self.settle(local, static_ctx, &c.peer, one_call, c.body, c.projection, row.outcome)?;
            results.push(sequences.pop().unwrap_or_default());
        }
        Ok(results)
    }
}

/// Canonical serialization of one item: stable across stores, attribute
/// order insensitive, comment/PI free — string equality on canonical items
/// coincides with `fn:deep-equal` for comment-free data.
pub fn canonical_item(store: &Store, item: &Item) -> String {
    match item {
        Item::Atom(a) => format!("atom:{}", a.to_lexical()),
        Item::Node(n) => {
            let mut out = String::new();
            canonical_node(store, *n, &mut out);
            out
        }
    }
}

fn canonical_node(store: &Store, n: NodeId, out: &mut String) {
    let doc = store.doc(n.doc);
    match doc.kind(n.idx) {
        NodeKind::Document => {
            out.push_str("doc()[");
            for c in doc.children(n.idx) {
                canonical_node(store, NodeId::new(n.doc, c), out);
            }
            out.push(']');
        }
        NodeKind::Element => {
            out.push('<');
            out.push_str(store.names.resolve(doc.name(n.idx)));
            let mut attrs: Vec<(String, String)> = doc
                .attributes(n.idx)
                .map(|a| {
                    (
                        store.names.resolve(doc.name(a)).to_string(),
                        doc.value(a).unwrap_or("").to_string(),
                    )
                })
                .collect();
            attrs.sort();
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(&k);
                out.push_str("=\"");
                xqd_xml::serialize::escape_attr(&v, out);
                out.push('"');
            }
            out.push('>');
            for c in doc.children(n.idx) {
                canonical_node(store, NodeId::new(n.doc, c), out);
            }
            out.push_str("</");
            out.push_str(store.names.resolve(doc.name(n.idx)));
            out.push('>');
        }
        NodeKind::Attribute => {
            out.push_str("attr:");
            out.push_str(store.names.resolve(doc.name(n.idx)));
            out.push('=');
            out.push_str(doc.value(n.idx).unwrap_or(""));
        }
        NodeKind::Text => {
            xqd_xml::serialize::escape_text(doc.value(n.idx).unwrap_or(""), out)
        }
        NodeKind::Comment | NodeKind::Pi => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn federation() -> Federation {
        let mut f = Federation::new(NetworkModel::lan());
        f.load_document("p", "d.xml", "<a><b/></a>").unwrap();
        f
    }

    /// Request envelopes, shipped fragments and constructed results live in
    /// the peer's store only while their request is being served — under
    /// every wire semantics, for constructor bodies, and on the error path.
    #[test]
    fn served_requests_leave_the_peer_store_as_they_found_it() {
        let f = federation();
        let doc_count = || f.core.peers.lock().unwrap()["p"].as_ref().unwrap().store.doc_count();
        let before = doc_count();
        let mut caller = Store::new();
        let shipped = xqd_xml::parse_document(&mut caller, "<x><y/><y/></x>", None).unwrap();
        let node = Sequence::unit(Item::Node(NodeId::new(shipped, 1)));
        let calls = vec![vec![("n".to_string(), node)]];
        let bodies = [
            "count($n//y) + count(doc(\"d.xml\")//b)",
            "element out { $n/y, doc(\"d.xml\")//b }",
            "$n/y[1 div 0]",
        ];
        let transport = f.transport();
        for wire in [WireSemantics::Value, WireSemantics::Fragment, WireSemantics::Projection] {
            for body in bodies {
                let request =
                    encode_request(&caller, wire, &StaticContext::default(), body, &calls, None, None)
                        .unwrap();
                for _ in 0..200 {
                    let reply = transport.exchange("p", &request, Duration::from_secs(5)).unwrap();
                    assert_eq!(payload_kind(&reply) == "fault", body.contains("div 0"), "{body}: {reply}");
                }
                assert_eq!(doc_count(), before, "{wire:?}: store grew serving {body}");
            }
        }
    }

    #[test]
    fn take_peer_wait_is_bounded_by_the_caller_budget() {
        let f = federation();
        let held = f.core.take_peer("p", Duration::from_millis(5)).unwrap();
        let budget = Duration::from_millis(20);
        let t = Instant::now();
        let err = f.core.take_peer("p", budget).unwrap_err();
        let waited = t.elapsed();
        assert_eq!(err.code(), "xrpc:peer-busy");
        assert!(
            err.retry_after().unwrap() > Duration::ZERO,
            "busy rejection must carry a retry hint: {err}"
        );
        assert!(waited >= budget, "returned before the budget elapsed: {waited:?}");
        assert!(
            waited < Duration::from_secs(5),
            "wait was not bounded by the caller's budget: {waited:?}"
        );
        f.core.put_peer(held);
    }

    /// A held slot's callers wait out their own budgets and nothing else:
    /// the daemon's in-flight gate is the one bound on how many there are.
    #[test]
    fn every_waiter_on_a_held_slot_is_served_in_turn() {
        let f = federation();
        let held = f.core.take_peer("p", Duration::from_millis(5)).unwrap();
        let waiters: Vec<_> = (0..40)
            .map(|_| {
                let core = Arc::clone(&f.core);
                std::thread::spawn(move || {
                    let peer = core.take_peer("p", Duration::from_secs(30))?;
                    let served = Instant::now();
                    core.put_peer(peer);
                    Ok::<_, XrpcError>(served)
                })
            })
            .collect();
        // the assertions hold under any interleaving; the pause lets the
        // waiters pile up on the condvar, which a per-slot bound would reject
        std::thread::sleep(Duration::from_millis(200));
        let returned = Instant::now();
        f.core.put_peer(held);
        for waiter in waiters {
            let served = waiter.join().unwrap();
            let served = served.unwrap_or_else(|e| panic!("a waiter was rejected: {e}"));
            assert!(served >= returned, "a waiter was served while the slot was held");
        }
        assert!(f.core.take_peer("p", Duration::ZERO).is_ok(), "the slot was not returned");
    }

    // ---- the wire carrier, proven without a socket ----

    const COUNT_Q: &str = "count(doc(\"xrpc://p/d.xml\")//b)";

    /// An in-process federation serving `p`'s document on `p` and `r`,
    /// behind a transport that fails every exchange with the host named in
    /// `down` and logs which hosts were dialed.
    struct ScriptedTransport {
        peers: SimTransport,
        down: Mutex<&'static str>,
        dialed: Mutex<Vec<String>>,
    }

    impl Transport for ScriptedTransport {
        fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
            self.dialed.lock().unwrap().push(peer.to_string());
            if peer == *self.down.lock().unwrap() {
                let detail = "scripted loss".to_string();
                return Err(XrpcError::TransportCorrupt { peer: peer.to_string(), detail });
            }
            self.peers.exchange(peer, request, budget)
        }
    }

    /// A wire federation over [`ScriptedTransport`] whose ladders dial `p`
    /// first, with `p` down; two failed attempts trip `p`'s breaker.
    fn scripted(cooldown: Duration) -> (Federation, Arc<ScriptedTransport>) {
        let mut served = federation();
        served.replicate_peer("p", "r").unwrap();
        let transport = Arc::new(ScriptedTransport {
            peers: served.transport(),
            down: Mutex::new("p"),
            dialed: Mutex::new(Vec::new()),
        });
        let mut fed = Federation::over(Arc::<ScriptedTransport>::clone(&transport));
        fed.register_replica("xrpc://p/d.xml", "r");
        let hosts = vec!["p".to_string(), "r".to_string()];
        let replica_seed = (0..64)
            .find(|&seed| xqd_core::replicas::rendezvous_order(seed, &hosts)[0] == "p")
            .expect("some seed prefers p");
        fed.set_exec_options(ExecOptions {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            breaker: BreakerPolicy { threshold: 2, cooldown },
            replica_seed,
            ..ExecOptions::default()
        });
        (fed, transport)
    }

    fn dialed(transport: &ScriptedTransport) -> Vec<String> {
        std::mem::take(&mut *transport.dialed.lock().unwrap())
    }

    /// On the wall clock the board outlives the run: a breaker tripped in
    /// one run rejects its peer in the next, and admits a probe only once
    /// the cooldown has really passed.
    #[test]
    fn a_wire_breaker_stays_open_across_runs_until_its_cooldown_really_passes() {
        // long enough that two back-to-back in-process runs fit inside it
        // even on a loaded host
        let cooldown = Duration::from_millis(200);
        let (mut fed, transport) = scripted(cooldown);
        let tripped = fed.run(COUNT_Q, Strategy::ByValue).expect("the replica answers");
        assert_eq!(tripped.result, vec!["atom:1"]);
        assert_eq!(dialed(&transport), ["p", "p", "r"]);
        let m = tripped.metrics;
        assert_eq!((m.retries, m.replica_failovers, m.breaker_trips), (1, 1, 1));
        assert_eq!(fed.breaker_state("p"), BreakerState::Open);

        // the next run starts with the breaker still open: p is not dialed
        let rejected = fed.run(COUNT_Q, Strategy::ByValue).expect("the replica answers");
        assert_eq!(dialed(&transport), ["r"], "an open breaker was dialed");
        assert_eq!((rejected.metrics.replica_failovers, rejected.metrics.breaker_probes), (0, 0));
        assert_eq!(fed.breaker_state("p"), BreakerState::Open);

        // real time, not runs, half-opens it: with the healthy replica gone
        // the ladder reaches p again, as a probe, and the answer closes it
        std::thread::sleep(cooldown + Duration::from_millis(20));
        *transport.down.lock().unwrap() = "r";
        let probed = fed.run(COUNT_Q, Strategy::ByValue).expect("the probe answers");
        assert_eq!(probed.result, vec!["atom:1"]);
        assert_eq!(dialed(&transport), ["r", "r", "p"]);
        assert_eq!((probed.metrics.breaker_probes, probed.metrics.replica_failovers), (1, 1));
        assert_eq!(fed.breaker_state("p"), BreakerState::Closed);
    }

    /// No run resets a wire federation's board, so setting options or the
    /// breaker policy is what re-arms it.
    #[test]
    fn setting_a_breaker_policy_re_arms_the_persistent_wire_board() {
        let (mut fed, transport) = scripted(Duration::from_secs(60));
        fed.run(COUNT_Q, Strategy::ByValue).expect("the replica answers");
        assert_eq!(fed.breaker_state("p"), BreakerState::Open);
        let lenient = BreakerPolicy { threshold: 9, cooldown: Duration::from_secs(60) };
        fed.set_breaker_policy(lenient);
        assert_eq!(fed.breaker_state("p"), BreakerState::Closed);
        assert_eq!(fed.scoreboard().policy(), lenient);
        dialed(&transport);
        fed.run(COUNT_Q, Strategy::ByValue).expect("the replica answers");
        assert_eq!(dialed(&transport), ["p", "p", "r"], "p is trusted again under the new policy");
        assert_eq!(fed.breaker_state("p"), BreakerState::Closed, "2 failures < threshold 9");
        fed.set_exec_options(ExecOptions { breaker: BreakerPolicy::default(), ..fed.exec_options() });
        assert_eq!(fed.scoreboard().policy(), BreakerPolicy::default());
    }

    /// Over the wire an exhausted ladder is the typed error: the call is
    /// not degraded to data shipping (on the simulated carrier this very
    /// error would be), and a document fetch is not forced past an open
    /// breaker.
    #[test]
    fn the_wire_carrier_has_no_degrade_rung() {
        let (replicated, transport) = scripted(Duration::from_secs(60));
        let mut fed = Federation::over(Arc::<ScriptedTransport>::clone(&transport));
        fed.set_exec_options(replicated.exec_options());
        let err = fed.run(COUNT_Q, Strategy::ByValue).expect_err("p is down and has no replica");
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"));
        assert_eq!(dialed(&transport), ["p", "p"], "no document was fetched to degrade with");
        assert_eq!(fed.metrics().fallbacks, 0);
        assert_eq!(fed.breaker_state("p"), BreakerState::Open);
        let err = fed.run(COUNT_Q, Strategy::DataShipping).expect_err("p's breaker is open");
        assert_eq!(err.code.as_deref(), Some("xrpc:breaker-open"));
        assert!(dialed(&transport).is_empty(), "an open breaker was dialed");
    }

    /// Replies with an `Overloaded` fault envelope (carrying a
    /// `retry-after-ms` hint) a fixed number of times, then succeeds.
    struct HintingTransport {
        shed_remaining: Mutex<u32>,
        hint_ms: u64,
    }

    impl Transport for HintingTransport {
        fn exchange(&self, _peer: &str, _req: &str, _budget: Duration) -> Result<String, XrpcError> {
            let mut left = self.shed_remaining.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Ok(encode_fault(&XrpcError::Overloaded { retry_after_ms: self.hint_ms }));
            }
            Ok("<env><response/></env>".to_string())
        }
    }

    /// The wire attempt decodes a fault envelope into its typed error,
    /// really sleeps the wait the loop hands it, and bills every envelope
    /// that crossed — the shed reply included.
    #[test]
    fn the_wire_attempt_waits_out_a_server_hint_on_the_wall_clock() {
        // base backoff of 1ms would retry almost immediately; the server's
        // 80ms hint must dominate the wait
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            deadline: Duration::from_secs(5),
        };
        let transport = Arc::new(HintingTransport { shed_remaining: Mutex::new(1), hint_ms: 80 });
        let shed_len = encode_fault(&XrpcError::Overloaded { retry_after_ms: 80 }).len();
        let fed = Federation::over(Arc::<HintingTransport>::clone(&transport));
        let request = "<env><request/></env>";
        let options = ExecOptions { replica_seed: 7, ..ExecOptions::default() };
        let mut attempt = WireAttempt::new(&fed.core, &*transport, request, None, &options);
        let call = Call { policy, lane: 0, hedge: None, spans: None };
        let t0 = Instant::now();
        let out = walk(&mut attempt, &call, "p", vec![("p".to_string(), false)], None);
        let elapsed = t0.elapsed();
        assert!(out.outcome.is_ok(), "{:?}", out.outcome);
        assert_eq!((out.retries, out.observations[0].failed_attempts), (1, 1));
        assert!(
            elapsed >= Duration::from_millis(80),
            "retried before the hinted wait: {elapsed:?}"
        );
        assert!(out.window >= Duration::from_millis(80) && out.window <= elapsed);
        let m = fed.metrics();
        let crossed = 2 * request.len() + shed_len + "<env><response/></env>".len();
        assert_eq!((m.message_bytes, m.transfers), (crossed as u64, 4));
    }
}
