//! The distributed execution fabric: simulated peers plus the
//! [`xqd_xquery::RemoteHandler`] / [`xqd_xquery::DocResolver`]
//! implementations wiring the decomposed query to the message codecs.
//!
//! A [`Federation`] owns one [`Peer`] per `xrpc://host/…` host; `run()`
//! spins up a fresh coordinator store (the query originator), prepares the
//! query through the shared front end ([`crate::frontend`]: decomposed under
//! the chosen [`Strategy`], lowered to plan IR, cached) and executes the
//! plan. Remote `execute at` calls serialize a real request message,
//! "transfer" it under the [`NetworkModel`], shred it into the target
//! peer's store, compile and execute the body there with the *same* plan
//! engine, and ship the response back the same way. `fn:doc("xrpc://…")`
//! on the coordinator performs data shipping: the remote peer serializes
//! the whole document, bytes are accounted, and the coordinator shreds and
//! caches it.
//!
//! # Parallel scatter-gather
//!
//! The federation core is thread-safe: peers live in slots behind a
//! `Mutex`+`Condvar` (a peer is *taken* for the duration of a call, and
//! waiting replaces the old hard "busy" failure), and metrics accumulate
//! into atomics. When a plan reaches a scatter point — independent
//! `execute at` calls aimed at distinct peers — [`FedLink::execute_scatter`]
//! encodes every request up front (byte-identical to sequential execution),
//! fans the decode→evaluate→respond pipeline out across one scoped thread
//! per peer, and gathers/decodes responses in deterministic call order.
//! Serialized network cost stays the exact per-transfer sum; the overlapped
//! cost of a round is the slowest peer's chain (see
//! [`Metrics::network_overlapped`]).
//!
//! Within one Bulk RPC the remote side can also split the decoded call list
//! across workers over cloned snapshots of the post-shred store
//! ([`ExecOptions::bulk_workers`]); snapshots share the base store's
//! document ranks, so results gathered from workers are valid node ids in
//! the base store as long as the body attaches no new documents — which a
//! syntactic safety gate guarantees before the split.
//!
//! # Failure semantics
//!
//! Every remote interaction — Bulk RPC, scatter rounds, document fetches —
//! flows through a fault-injecting transport under a [`RetryPolicy`]. When
//! a [`crate::FaultPlan`] is installed, each attempt may be mangled
//! (truncation/corruption), delayed, dropped or hung per the deterministic
//! schedule; failures surface as typed [`XrpcError`]s, retryable ones are
//! replayed with exponential backoff and deterministic jitter, and calls
//! whose retries exhaust degrade gracefully to data shipping (fetch the
//! documents, evaluate the body locally, round-trip the results through
//! the same wire codec) when the body is eligible. Remote evaluation
//! failures and captured worker panics travel back as wire-encoded fault
//! responses, so the error path exercises the same codecs as the data
//! path.

use std::borrow::Cow;
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

use crate::frontend::{FrontEnd, FrontEndEvent, PreparedQuery, Session, Source};

use xqd_core::replicas::{mix_score, ReplicaCatalog};

use crate::health::{
    seeded_fraction, Admission, BreakerPolicy, BreakerState, Observation, Scoreboard,
};
use crate::message::{
    decode_doc_request, decode_fault, decode_request, decode_response, encode_doc_response,
    encode_fault, encode_request, encode_response, WireSemantics,
};
use crate::net::{Fault, FaultPlan, Metrics, NetworkModel, XrpcError};
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
}

/// Execution-mode switches (see [`Federation::set_exec_options`]).
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Fan independent calls to distinct peers out across scoped threads.
    /// Off = the same calls run in a sequential loop (identical results and
    /// byte counts; `network_overlapped` then equals `network`).
    pub parallel_scatter: bool,
    /// Workers splitting the call list of one Bulk RPC on the remote side.
    /// `1` (default) keeps remote evaluation single-threaded.
    pub bulk_workers: usize,
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
    /// Bound on the number of callers allowed to wait on one peer slot's
    /// condvar at a time. A caller arriving at a busy slot whose wait queue
    /// is already full is rejected immediately with a typed
    /// [`XrpcError::PeerBusy`] carrying a retry-after hint (backpressure)
    /// instead of piling up behind the condvar. `0` disables the bound.
    pub peer_queue_depth: usize,
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
            bulk_workers: 1,
            use_indexes: true,
            retry: RetryPolicy::default(),
            fault: None,
            hedge: None,
            breaker: BreakerPolicy::default(),
            replica_seed: 0,
            plan_cache_size: 64,
            semijoin: true,
            peer_queue_depth: 32,
            trace: false,
            profile: false,
        }
    }
}

/// Retry policy for remote calls and document fetches. XRPC calls are pure
/// and side-effect free (the paper's function-shipping model), so replaying
/// a lost or mangled call is always safe.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per logical call (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; retry `n` waits `base * 2^(n-1)`,
    /// capped at [`RetryPolicy::max_backoff`] and jittered to 50–100%.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Per-call budget. Bounds each attempt's simulated chain (transfer
    /// legs plus stalls), the condvar wait for a busy peer slot, and the
    /// total attempts-plus-backoff budget.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff before the attempt following `failed` failures (`failed >=
    /// 1`), with the deterministic jitter fraction in `[0, 1)` scaling the
    /// exponential wait to 50–100%.
    pub fn backoff(&self, failed: u32, jitter: f64) -> Duration {
        let shift = failed.saturating_sub(1).min(20);
        let exp = self.base_backoff.saturating_mul(1u32 << shift);
        exp.min(self.max_backoff).mul_f64(0.5 + 0.5 * jitter.clamp(0.0, 1.0))
    }

    /// Like [`RetryPolicy::backoff`], but honoring a server-supplied
    /// `retry-after-ms` hint (`PeerBusy` / `BreakerOpen` / `Overloaded`
    /// carry one). The server's estimate of when capacity frees up is
    /// never *under*cut — retrying sooner is exactly the hammering the
    /// hint exists to prevent — but it is capped by the caller's whole
    /// deadline budget: a hint the budget cannot afford waits the budget
    /// out, no longer.
    pub fn backoff_with_hint(&self, failed: u32, jitter: f64, hint: Option<Duration>) -> Duration {
        let exp = self.backoff(failed, jitter);
        match hint {
            Some(h) => exp.max(h).min(self.deadline),
            None => exp,
        }
    }
}

/// Metric accumulators shared across worker threads. Durations are
/// nanosecond counters; [`MetricsSink::snapshot`] converts back.
#[derive(Default)]
struct MetricsSink {
    message_bytes: AtomicU64,
    document_bytes: AtomicU64,
    transfers: AtomicU64,
    remote_calls: AtomicU64,
    scatter_rounds: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
    fallbacks: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_probes: AtomicU64,
    replica_failovers: AtomicU64,
    plans_compiled: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    semijoins: AtomicU64,
    join_keys_shipped: AtomicU64,
    join_bytes_saved: AtomicU64,
    shred_ns: AtomicU64,
    serialize_ns: AtomicU64,
    remote_exec_ns: AtomicU64,
    network_ns: AtomicU64,
    network_overlapped_ns: AtomicU64,
}

fn as_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl MetricsSink {
    fn reset(&self) {
        for cell in [
            &self.message_bytes,
            &self.document_bytes,
            &self.transfers,
            &self.remote_calls,
            &self.scatter_rounds,
            &self.retries,
            &self.faults_injected,
            &self.fallbacks,
            &self.hedges,
            &self.hedge_wins,
            &self.breaker_trips,
            &self.breaker_probes,
            &self.replica_failovers,
            &self.plans_compiled,
            &self.plan_cache_hits,
            &self.plan_cache_misses,
            &self.semijoins,
            &self.join_keys_shipped,
            &self.join_bytes_saved,
            &self.shred_ns,
            &self.serialize_ns,
            &self.remote_exec_ns,
            &self.network_ns,
            &self.network_overlapped_ns,
        ] {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Metrics {
        Metrics {
            message_bytes: self.message_bytes.load(Ordering::Relaxed),
            document_bytes: self.document_bytes.load(Ordering::Relaxed),
            transfers: self.transfers.load(Ordering::Relaxed),
            remote_calls: self.remote_calls.load(Ordering::Relaxed),
            scatter_rounds: self.scatter_rounds.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            hedge_wins: self.hedge_wins.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            replica_failovers: self.replica_failovers.load(Ordering::Relaxed),
            plans_compiled: self.plans_compiled.load(Ordering::Relaxed),
            plan_cache_hits: self.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_cache_misses.load(Ordering::Relaxed),
            semijoins: self.semijoins.load(Ordering::Relaxed),
            join_keys_shipped: self.join_keys_shipped.load(Ordering::Relaxed),
            join_bytes_saved: self.join_bytes_saved.load(Ordering::Relaxed),
            // scheduler-level counters: filled in by the workload engine's
            // deterministic accounting, never by per-call code paths (whose
            // wait events depend on thread interleaving and would break the
            // chaos suite's counter replay contract)
            queued: 0,
            shed: 0,
            deadline_cancelled: 0,
            peak_queue_depth: 0,
            shred: Duration::from_nanos(self.shred_ns.load(Ordering::Relaxed)),
            serialize: Duration::from_nanos(self.serialize_ns.load(Ordering::Relaxed)),
            remote_exec: Duration::from_nanos(self.remote_exec_ns.load(Ordering::Relaxed)),
            network: Duration::from_nanos(self.network_ns.load(Ordering::Relaxed)),
            network_overlapped: Duration::from_nanos(
                self.network_overlapped_ns.load(Ordering::Relaxed),
            ),
            total: Duration::ZERO,
        }
    }

    /// Bills one call's simulated chain (transfer legs, injected stalls,
    /// backoff waits) equally to the serialized and overlapped clocks —
    /// used outside scatter rounds, where transfers never overlap.
    fn charge_chain(&self, chain: Duration) {
        let ns = as_ns(chain);
        self.network_ns.fetch_add(ns, Ordering::Relaxed);
        self.network_overlapped_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Accounts the `<keyset>` payloads of one wire leg, mirroring the
    /// adjacent `message_bytes` charge: every (re)transmission recounts.
    fn charge_keysets(&self, message: &str) {
        if message.contains("<keyset ") {
            let (keys, saved) = crate::message::keyset_stats(message);
            self.join_keys_shipped.fetch_add(keys, Ordering::Relaxed);
            self.join_bytes_saved.fetch_add(saved, Ordering::Relaxed);
        }
    }
}

/// One peer's slot plus its bounded wait queue. The peer is `None` while
/// taken by an executing call; `waiters` counts the callers currently
/// blocked on the condvar for this slot, so arrivals beyond
/// [`ExecOptions::peer_queue_depth`] can be rejected with backpressure
/// instead of queuing without bound.
struct PeerSlot {
    peer: Option<Peer>,
    waiters: u32,
}

impl PeerSlot {
    fn ready(peer: Peer) -> Self {
        PeerSlot { peer: Some(peer), waiters: 0 }
    }
}

struct FedCore {
    /// Peer slots: see [`PeerSlot`].
    peers: Mutex<HashMap<String, PeerSlot>>,
    /// Signalled whenever a peer is returned to its slot.
    peers_returned: Condvar,
    model: NetworkModel,
    metrics: MetricsSink,
    wire: Mutex<WireSemantics>,
    options: Mutex<ExecOptions>,
    /// Lane allocator for fault-schedule streams (reset per run): each
    /// logical ladder — one Bulk RPC, one scatter slot, one document fetch —
    /// draws its ordinals from its own lane, so the schedule stays
    /// replayable under any thread interleaving even when two slots fail
    /// over to the same replica concurrently.
    lanes: AtomicU64,
    /// Peer health scoreboard: EWMA latency and circuit breakers on the
    /// simulated clock. Mutated only from coordinator call sites —
    /// sequentially between calls, or at the scatter gather in slot order —
    /// so its evolution is a pure function of the run's fault seed.
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

/// Fault-schedule ordinal of one attempt: the ladder's lane, the rung
/// within the ladder, and the attempt within the rung, packed so no two
/// attempts of a run ever share a `(peer, ordinal)` stream.
fn fault_seq(lane: u64, rung: u32, attempt: u32) -> u64 {
    (lane << 16) | (u64::from(rung & 0xff) << 8) | u64::from(attempt.min(255))
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

    /// Applies a ladder's (or a whole round's) health observations to the
    /// shared scoreboard after advancing the simulated clock by the wall
    /// clock the ladder occupied; breaker trips are counted as they land.
    fn apply_observations<'a>(
        &self,
        elapsed: Duration,
        observations: impl IntoIterator<Item = &'a Observation>,
    ) {
        let mut board = self.board.lock().unwrap();
        board.advance(elapsed);
        for obs in observations {
            if board.observe(obs) {
                self.metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Bills a ladder's availability counters (hedges, probes, failovers).
    fn charge_ladder_counters(&self, ladder: &LadderOutcome) {
        let sink = &self.metrics;
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
    /// another call holds it. The per-slot wait queue is bounded by
    /// [`ExecOptions::peer_queue_depth`]: a caller arriving beyond the
    /// bound is rejected immediately (backpressure) instead of piling up
    /// behind the condvar. Both rejection paths return a typed
    /// [`XrpcError::PeerBusy`] with an honest retry-after hint. An unknown
    /// peer fails immediately — and is distinguished from a busy one, so
    /// callers can retry the latter but not the former.
    fn take_peer(&self, name: &str, wait: Duration) -> Result<Peer, XrpcError> {
        let max_waiters = self.options().peer_queue_depth;
        let mut peers = self.peers.lock().unwrap();
        {
            let Some(slot) = peers.get_mut(name) else {
                return Err(XrpcError::UnknownPeer { peer: name.to_string() });
            };
            if let Some(p) = slot.peer.take() {
                return Ok(p);
            }
            if max_waiters > 0 && slot.waiters as usize >= max_waiters {
                let waiting = slot.waiters;
                drop(peers);
                return Err(XrpcError::PeerBusy {
                    peer: name.to_string(),
                    detail: format!(
                        "wait queue full ({waiting} callers already queued on the slot)"
                    ),
                    retry_after: self.busy_retry_hint(name),
                });
            }
            slot.waiters += 1;
        }
        let deadline = Instant::now() + wait;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                if let Some(slot) = peers.get_mut(name) {
                    slot.waiters -= 1;
                }
                drop(peers);
                return Err(XrpcError::PeerBusy {
                    peer: name.to_string(),
                    detail: format!("slot still held after {wait:?}"),
                    retry_after: self.busy_retry_hint(name),
                });
            }
            let (guard, _timeout) = self.peers_returned.wait_timeout(peers, remaining).unwrap();
            peers = guard;
            match peers.get_mut(name) {
                None => return Err(XrpcError::UnknownPeer { peer: name.to_string() }),
                Some(slot) => {
                    if let Some(p) = slot.peer.take() {
                        slot.waiters -= 1;
                        return Ok(p);
                    }
                }
            }
        }
    }

    fn put_peer(&self, peer: Peer) {
        let mut peers = self.peers.lock().unwrap();
        // preserve the slot's waiter count — only the peer comes back
        let slot = peers
            .entry(peer.name.clone())
            .or_insert_with(|| PeerSlot { peer: None, waiters: 0 });
        slot.peer = Some(peer);
        drop(peers);
        self.peers_returned.notify_all();
    }
}

/// A federation of peers plus the coordinator.
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
    /// The decomposition that was executed (for explain output).
    pub plan: xqd_core::Decomposition,
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
    pub fn new(model: NetworkModel) -> Self {
        Federation {
            core: Arc::new(FedCore {
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

    /// Switches execution modes (scatter parallelism, bulk workers) for
    /// subsequent runs.
    pub fn set_exec_options(&mut self, options: ExecOptions) {
        *self.core.options.lock().unwrap() = options;
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
    }

    /// Seeds the rendezvous replica-selection order for subsequent runs.
    pub fn set_replica_seed(&mut self, seed: u64) {
        self.core.options.lock().unwrap().replica_seed = seed;
    }

    /// The replica catalog as currently registered.
    pub fn replica_catalog(&self) -> ReplicaCatalog {
        self.core.catalog.lock().unwrap().clone()
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
        let mut peers = self.core.peers.lock().unwrap();
        let xml = {
            let p = peers
                .get(primary)
                .and_then(|slot| slot.peer.as_ref())
                .ok_or_else(|| EvalError::new(format!("unknown or busy peer: {primary}")))?;
            let d = p
                .store
                .doc_by_uri(&canonical)
                .or_else(|| p.store.doc_by_uri(doc_name))
                .ok_or_else(|| {
                    EvalError::new(format!("document not found on {primary}: {doc_name}"))
                })?;
            xqd_xml::serialize_document(p.store.doc(d), &p.store.names)
        };
        let entry = peers
            .entry(replica.to_string())
            .or_insert_with(|| PeerSlot::ready(Peer::new(replica)));
        let rp = entry
            .peer
            .as_mut()
            .ok_or_else(|| EvalError::new(format!("peer {replica} is busy")))?;
        if rp.store.doc_by_uri(&canonical).is_none() {
            xqd_xml::parse_document(&mut rp.store, &xml, Some(&canonical))
                .map_err(|e| EvalError::new(format!("replicating {canonical}: {e}")))?;
        }
        drop(peers);
        self.core.catalog.lock().unwrap().register(&canonical, replica);
        self.core.frontend.topology_changed();
        Ok(())
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
                .and_then(|slot| slot.peer.as_ref())
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
        self.core
            .peers
            .lock()
            .unwrap()
            .insert(name.to_string(), PeerSlot::ready(Peer::new(name)));
        self.core.frontend.topology_changed();
    }

    /// Loads `xml` as document `doc_name` on `peer` (added if absent).
    pub fn load_document(&mut self, peer: &str, doc_name: &str, xml: &str) -> Result<(), EvalError> {
        let mut peers = self.core.peers.lock().unwrap();
        let entry = peers
            .entry(peer.to_string())
            .or_insert_with(|| PeerSlot::ready(Peer::new(peer)));
        entry
            .peer
            .as_mut()
            .ok_or_else(|| EvalError::new(format!("peer {peer} is busy")))?
            .load_document(doc_name, xml)?;
        drop(peers);
        self.core.frontend.topology_changed();
        Ok(())
    }

    /// Loads `xml` on `peer` under an explicit foreign **canonical** URI —
    /// a replica copy of another primary's document, arriving from outside
    /// the federation (a daemon's CLI-provided file rather than a live
    /// primary; [`Federation::replicate_document`] covers the in-process
    /// case). The placement is recorded in the catalog so plain-name and
    /// failover resolution can elect this host.
    pub fn load_replica_copy(
        &mut self,
        peer: &str,
        canonical_uri: &str,
        xml: &str,
    ) -> Result<(), EvalError> {
        let mut peers = self.core.peers.lock().unwrap();
        let entry = peers
            .entry(peer.to_string())
            .or_insert_with(|| PeerSlot::ready(Peer::new(peer)));
        let p = entry
            .peer
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
    /// (used by the ablation benches).
    pub fn run_with(
        &mut self,
        query: &str,
        strategy: Strategy,
        options: xqd_core::DecomposeOptions,
    ) -> EvalResult<RunOutcome> {
        self.run_source(Source::Text(query), strategy, options)
    }

    /// Like [`Self::run`] for an already-parsed module.
    pub fn run_module(&mut self, module: &QueryModule, strategy: Strategy) -> EvalResult<RunOutcome> {
        self.run_module_with(module, strategy, xqd_core::DecomposeOptions::default())
    }

    /// Full-control entry point: parsed module + pipeline options.
    pub fn run_module_with(
        &mut self,
        module: &QueryModule,
        strategy: Strategy,
        options: xqd_core::DecomposeOptions,
    ) -> EvalResult<RunOutcome> {
        self.run_source(Source::Module(module), strategy, options)
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
        self.front_end(Source::Text(query), &session)
    }

    /// Every run: reset per-run state (before the front end, so cache
    /// events land inside the run's metric snapshot), prepare, execute.
    fn run_source(
        &mut self,
        source: Source<'_>,
        strategy: Strategy,
        decompose: xqd_core::DecomposeOptions,
    ) -> EvalResult<RunOutcome> {
        let exec = self.begin_run(strategy);
        let static_ctx = self.core.static_ctx.lock().unwrap().clone();
        let session = Session { strategy, decompose, exec, static_ctx: &static_ctx };
        let prepared = self.front_end(source, &session)?;
        self.finish_run(prepared, &exec, &static_ctx)
    }

    /// The shared front end ([`crate::frontend`]), with its milestones
    /// counted into the metric sink and marked in the run's trace as
    /// zero-duration events: parsing, decomposition and lowering are
    /// coordinator CPU, which the simulated clock does not bill.
    fn front_end(&self, source: Source<'_>, session: &Session<'_>) -> EvalResult<Arc<PreparedQuery>> {
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
        self.core.frontend.prepare(source, session, &self.core.catalog, &mut observe)
    }

    /// Per-run state reset.
    fn begin_run(&mut self, strategy: Strategy) -> ExecOptions {
        let exec_options = self.core.options();
        self.core.metrics.reset();
        self.core.lanes.store(0, Ordering::Relaxed);
        self.core.board.lock().unwrap().reset(exec_options.breaker);
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
        static_ctx: &StaticContext,
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
            .with_static_context(static_ctx.clone())
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
        let plan = prepared.decomposition.clone();
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
        for peer in peers.values().filter_map(|slot| slot.peer.as_ref()) {
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
/// same codecs and the same slot discipline (bounded wait queue, typed
/// `PeerBusy`) as the in-process execution paths. No fault plan applies
/// here — the chaos oracle stays attached to the simulated *run* paths —
/// so a reply either round-trips faithfully or fails for a real reason
/// (unknown peer, slot contention within `budget`).
pub struct SimTransport {
    core: Arc<FedCore>,
}

impl Transport for SimTransport {
    fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
        // Doc-request envelopes serve the data-shipping path: look the
        // document up under its canonical URI, falling back to the plain
        // name it was loaded under.
        if let Some(uri) = decode_doc_request(request) {
            let p = self.core.take_peer(peer, budget)?;
            let found = p.store.doc_by_uri(&uri).or_else(|| {
                xqd_core::uris::split_xrpc_uri(&uri)
                    .and_then(|(_, name)| p.store.doc_by_uri(name))
            });
            let reply = match found {
                Some(id) => encode_doc_response(
                    &uri,
                    &xqd_xml::serialize_document(p.store.doc(id), &p.store.names),
                ),
                None => encode_fault(&XrpcError::RemoteFault {
                    peer: peer.to_string(),
                    code: "xrpc:document-not-found".to_string(),
                    message: format!("document not found on {peer}: {uri}"),
                }),
            };
            self.core.put_peer(p);
            return Ok(reply);
        }
        let mut p = self.core.take_peer(peer, budget)?;
        let outcome = run_remote(peer, request, false, &mut |req| {
            process_request(&self.core, peer, &mut p.store, req)
        });
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
            let retry = options.retry;
            let sink = &self.core.metrics;
            let board = self.core.board_snapshot();
            let lane = self.core.next_lane();
            let hosts = self.core.catalog.lock().unwrap().hosts_for(uri);
            let (mut candidates, _) =
                admitted_candidates(&board, options.replica_seed, hosts);
            if candidates.is_empty() {
                // fetches back the degradation path — the last resort. With
                // every breaker open, force one attempt on the primary
                // rather than failing the whole query without trying.
                candidates.push((host.to_string(), false));
            }
            let trace_on = options.trace;
            let mut rungs: Vec<SpanBuilder> = Vec::new();
            let mut observations: Vec<Observation> = Vec::new();
            let mut total_chain = Duration::ZERO;
            let mut fetched: Option<Result<String, XrpcError>> = None;
            for (rung, (fhost, probe)) in candidates.iter().enumerate() {
                if *probe {
                    sink.breaker_probes.fetch_add(1, Ordering::Relaxed);
                }
                if rung > 0 {
                    sink.replica_failovers.fetch_add(1, Ordering::Relaxed);
                }
                let has_alternative =
                    candidates[rung + 1..].iter().any(|(_, p)| !*p);
                let wait = if has_alternative {
                    retry.deadline.min(BUSY_SWITCH_WAIT)
                } else {
                    retry.deadline
                };
                let w0 = total_chain;
                let (chain, failed_attempts, result, spans) =
                    fetch_document(&self.core, fhost, uri, name, lane, rung as u32, wait);
                total_chain += chain;
                if trace_on {
                    let mut sb = SpanBuilder::new("doc.rung", "doc")
                        .at(w0)
                        .lasting(chain)
                        .arg("peer", fhost.as_str())
                        .arg("rung", rung.to_string())
                        .arg("kind", if *probe { "probe" } else { "primary" })
                        .arg("breaker", board.state(fhost).name());
                    for a in spans {
                        sb.push_child(a);
                    }
                    rungs.push(sb);
                }
                observations.push(Observation {
                    peer: fhost.clone(),
                    ok: result.is_ok(),
                    failed_attempts,
                    chain,
                    probe: *probe,
                });
                match result {
                    Ok(xml) => {
                        fetched = Some(Ok(xml));
                        break;
                    }
                    Err(e) => {
                        let terminal = !e.failover_eligible();
                        fetched = Some(Err(e));
                        if terminal {
                            break;
                        }
                    }
                }
            }
            let fetched = fetched.expect("at least one fetch candidate");
            sink.charge_chain(total_chain);
            if self.peer.is_empty() {
                self.core.apply_observations(total_chain, &observations);
                if let Some(tracer) = self.core.tracer() {
                    let anchor = tracer.clock_ns();
                    let mut sb = SpanBuilder::new("doc.fetch", "doc")
                        .lasting(total_chain)
                        .arg("uri", uri)
                        .arg(
                            "outcome",
                            match &fetched {
                                Ok(_) => "ok".to_string(),
                                Err(e) => e.code().to_string(),
                            },
                        );
                    for r in rungs {
                        sb.push_child(r);
                    }
                    tracer.submit(anchor, ROOT_SPAN, sb);
                    tracer.advance(total_chain);
                }
            }
            let xml = fetched.map_err(EvalError::from)?;
            let t0 = Instant::now();
            let d = xqd_xml::parse_document(store, &xml, Some(uri))
                .map_err(|e| EvalError::new(format!("shredding {uri}: {e}")))?;
            sink.shred_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
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

/// One data-shipping fetch of `uri` from `fhost` under the fault plan and
/// retry policy. The whole-document payload *is* the message here, so
/// truncation or corruption of either direction mangles it. Returns the
/// simulated chain consumed, the number of failed attempts (for the health
/// scoreboard), and the document text or the typed error that ended the
/// fetch.
fn fetch_document(
    core: &FedCore,
    fhost: &str,
    uri: &str,
    name: &str,
    lane: u64,
    rung: u32,
    wait: Duration,
) -> (Duration, u32, Result<String, XrpcError>, Vec<SpanBuilder>) {
    let options = core.options();
    let retry = options.retry;
    let plan = options.fault;
    let sink = &core.metrics;
    let model = core.model;
    let trace_on = options.trace;
    let mut attempts: Vec<SpanBuilder> = Vec::new();
    let mut chain = Duration::ZERO;
    let mut failed = 0u32;
    loop {
        let attempt_start = chain;
        let seq = plan.map(|_| fault_seq(lane, rung, failed));
        let fault = match (plan, seq) {
            (Some(p), Some(s)) => p.decide(fhost, s),
            _ => None,
        };
        if fault.is_some() {
            sink.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        let budget = retry.deadline.saturating_sub(chain);
        let attempt: Result<String, XrpcError> = 'attempt: {
            match fault {
                Some(Fault::PeerDown) => {
                    chain += model.latency;
                    break 'attempt Err(XrpcError::PeerBusy {
                        peer: fhost.to_string(),
                        detail: "peer down (injected fault)".to_string(),
                        retry_after: BUSY_SWITCH_WAIT,
                    });
                }
                Some(Fault::Hang) => {
                    chain += budget;
                    break 'attempt Err(XrpcError::Timeout {
                        peer: fhost.to_string(),
                        deadline: retry.deadline,
                    });
                }
                Some(Fault::RemotePanic) => {
                    break 'attempt Err(XrpcError::RemoteFault {
                        peer: fhost.to_string(),
                        code: "xrpc:panic".to_string(),
                        message: format!("peer {fhost} crashed while serializing {name}"),
                    });
                }
                _ => {}
            }
            // the slot wait is bounded by the ladder's per-rung wait AND the
            // remaining deadline budget — a chain that already ate most of
            // the deadline must not block the full wait on a busy slot
            let peer_obj = match core.take_peer(fhost, wait.min(budget)) {
                Ok(p) => p,
                Err(e) => break 'attempt Err(e),
            };
            let t0 = Instant::now();
            let result = peer_obj
                .store
                .doc_by_uri(uri)
                .or_else(|| peer_obj.store.doc_by_uri(name))
                .map(|d| {
                    xqd_xml::serialize_document(peer_obj.store.doc(d), &peer_obj.store.names)
                })
                .ok_or_else(|| XrpcError::RemoteFault {
                    peer: fhost.to_string(),
                    code: "xrpc:document-not-found".to_string(),
                    message: format!("document not found on {fhost}: {name}"),
                });
            sink.serialize_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
            core.put_peer(peer_obj);
            let xml = match result {
                Ok(x) => x,
                Err(e) => break 'attempt Err(e),
            };
            let mut spent = Duration::ZERO;
            if let (Some(Fault::Latency), Some(p)) = (fault, plan.as_ref()) {
                spent += p.extra_latency;
            }
            match fault {
                Some(Fault::TruncateRequest | Fault::TruncateResponse) => {
                    let plan = plan.as_ref().unwrap();
                    let cut =
                        char_floor(&xml, plan.mangle_position(fhost, seq.unwrap(), xml.len()));
                    sink.document_bytes.fetch_add(cut as u64, Ordering::Relaxed);
                    sink.transfers.fetch_add(1, Ordering::Relaxed);
                    chain += spent + model.transfer_time(cut as u64);
                    break 'attempt Err(XrpcError::TransportCorrupt {
                        peer: fhost.to_string(),
                        detail: format!("document payload truncated at byte {cut}"),
                    });
                }
                Some(Fault::CorruptRequest | Fault::CorruptResponse) => {
                    let plan = plan.as_ref().unwrap();
                    let pos = plan.mangle_position(fhost, seq.unwrap(), xml.len());
                    sink.document_bytes.fetch_add(xml.len() as u64, Ordering::Relaxed);
                    sink.transfers.fetch_add(1, Ordering::Relaxed);
                    chain += spent + model.transfer_time(xml.len() as u64);
                    break 'attempt Err(XrpcError::TransportCorrupt {
                        peer: fhost.to_string(),
                        detail: format!("document payload byte {pos} is not valid UTF-8"),
                    });
                }
                _ => {}
            }
            let bytes = xml.len() as u64;
            sink.document_bytes.fetch_add(bytes, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            spent += model.transfer_time(bytes);
            if spent > budget {
                chain += budget;
                break 'attempt Err(XrpcError::Timeout {
                    peer: fhost.to_string(),
                    deadline: retry.deadline,
                });
            }
            chain += spent;
            Ok(xml)
        };
        if trace_on {
            let mut sb = SpanBuilder::new("doc.attempt", "doc")
                .at(attempt_start)
                .lasting(chain.saturating_sub(attempt_start))
                .arg("peer", fhost)
                .arg("attempt", failed.to_string());
            if let Some(f) = fault {
                sb = sb.arg("fault", f.name());
            }
            sb = match &attempt {
                Ok(xml) => sb.arg("outcome", "ok").arg("bytes", xml.len().to_string()),
                Err(e) => sb.arg("outcome", e.code()),
            };
            attempts.push(sb);
        }
        match attempt {
            Ok(xml) => return (chain, failed, Ok(xml), attempts),
            Err(e) => {
                if !e.retryable() || failed + 1 >= retry.max_attempts {
                    return (chain, failed + 1, Err(e), attempts);
                }
                failed += 1;
                sink.retries.fetch_add(1, Ordering::Relaxed);
                let jitter = match (plan, seq) {
                    (Some(p), Some(s)) => p.jitter(fhost, s),
                    _ => 0.0,
                };
                let wait = retry.backoff_with_hint(failed, jitter, e.retry_after());
                if trace_on {
                    attempts.push(
                        SpanBuilder::new("doc.backoff", "doc")
                            .at(chain)
                            .lasting(wait)
                            .arg("peer", fhost),
                    );
                }
                chain += wait;
                if chain >= retry.deadline {
                    return (
                        chain,
                        failed,
                        Err(XrpcError::Cancelled {
                            peer: fhost.to_string(),
                            reason: format!(
                                "fetch retry budget exhausted after {failed} failed attempt(s)"
                            ),
                        }),
                        attempts,
                    );
                }
            }
        }
    }
}

/// Evaluates one decoded call against `store` (binding its parameters) and
/// returns the raw result sequence.
fn eval_one_call(
    core: &Arc<FedCore>,
    peer: &str,
    store: &mut Store,
    plan: &xqd_xquery::Plan,
    static_ctx: &StaticContext,
    params: &[(String, Sequence)],
) -> EvalResult<Sequence> {
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
    plan.eval(&mut ev)
}

/// Syntactic gate for splitting a Bulk RPC call list across store
/// snapshots: the body (and every function it may call) must not attach
/// documents to the store — no constructors, no nested `execute at`, and
/// every `fn:doc` argument is a literal resolving on this peer.
fn body_snapshot_safe(module: &QueryModule, peer: &str) -> bool {
    fn expr_safe(e: &Expr, peer: &str) -> bool {
        match e {
            Expr::Execute { .. } => false,
            Expr::Construct(_) => false,
            Expr::FunCall { name, args } if name == "doc" || name == "fn:doc" => {
                match args.as_slice() {
                    [Expr::Literal(a)] => {
                        let uri = a.to_lexical();
                        !uri.contains("://")
                            || uri.strip_prefix("xrpc://").is_some_and(|rest| {
                                rest.split_once('/').is_some_and(|(host, _)| host == peer)
                            })
                    }
                    _ => false,
                }
            }
            other => {
                let mut safe = true;
                xqd_xquery::normalize::map_children_infallible(other, &mut |c| {
                    if safe && !expr_safe(c, peer) {
                        safe = false;
                    }
                    c.clone()
                });
                safe
            }
        }
    }
    expr_safe(&module.body, peer) && module.functions.iter().all(|f| expr_safe(&f.body, peer))
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
    core.metrics.shred_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);

    let module = parse_query(&decoded.query)
        .map_err(|e| EvalError::new(format!("remote parse error: {e}")))?;

    let options = core.options();
    // Peers compile per request — the request is the unit of determinism
    // under concurrent scatter/hedged delivery, so peer-side compiles are
    // kept off the plan counters and out of the coordinator's cache.
    let plan = xqd_xquery::compile_module(
        &module.functions,
        &module.body,
        options.use_indexes,
        &decoded.static_ctx,
    );
    let t_exec = Instant::now();
    let results = if options.bulk_workers > 1
        && decoded.calls.len() > 1
        && body_snapshot_safe(&module, peer)
    {
        eval_calls_parallel(core, peer, store, &plan, &decoded.static_ctx, &decoded.calls, options.bulk_workers)?
    } else {
        let mut results = Vec::with_capacity(decoded.calls.len());
        for params in &decoded.calls {
            results.push(eval_one_call(core, peer, store, &plan, &decoded.static_ctx, params)?);
        }
        results
    };
    core.metrics
        .remote_exec_ns
        .fetch_add(as_ns(t_exec.elapsed()), Ordering::Relaxed);

    let t_ser = Instant::now();
    let response = encode_response(
        store,
        decoded.semantics,
        &results,
        decoded.result_spec.as_ref(),
    )?;
    core.metrics
        .serialize_ns
        .fetch_add(as_ns(t_ser.elapsed()), Ordering::Relaxed);
    Ok(response)
}

/// Splits the call list of one Bulk RPC into contiguous chunks evaluated on
/// cloned store snapshots by scoped worker threads. Snapshots preserve the
/// base store's document ranks, so gathered node ids stay valid in the base
/// store — guarded both syntactically ([`body_snapshot_safe`]) and at
/// runtime (a worker whose snapshot grew is discarded and its chunk re-run
/// sequentially against the base store).
fn eval_calls_parallel(
    core: &Arc<FedCore>,
    peer: &str,
    store: &mut Store,
    plan: &xqd_xquery::Plan,
    static_ctx: &StaticContext,
    calls: &[Vec<(String, Sequence)>],
    workers: usize,
) -> EvalResult<Vec<Sequence>> {
    let n = calls.len();
    let workers = workers.min(n);
    let chunk_len = n.div_ceil(workers);
    let base_docs = store.docs().count();

    let mut chunk_results: Vec<(std::ops::Range<usize>, bool, Vec<EvalResult<Sequence>>)> =
        Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let range = (w * chunk_len)..(((w + 1) * chunk_len).min(n));
            if range.is_empty() {
                continue;
            }
            let mut snapshot = store.clone();
            let core = Arc::clone(core);
            let r = range.clone();
            handles.push((
                range,
                s.spawn(move || {
                    let out: Vec<EvalResult<Sequence>> = r
                        .map(|ci| {
                            eval_one_call(&core, peer, &mut snapshot, plan, static_ctx, &calls[ci])
                        })
                        .collect();
                    let clean = snapshot.docs().count() == base_docs;
                    (clean, out)
                }),
            ));
        }
        for (range, handle) in handles {
            match handle.join() {
                Ok((clean, out)) => chunk_results.push((range, clean, out)),
                Err(payload) => {
                    // a poisoned bulk worker fails its calls with a typed
                    // remote fault instead of killing the peer; marked
                    // clean so the panicking chunk is NOT re-run against
                    // the base store on this thread
                    let err = EvalError::from(XrpcError::RemoteFault {
                        peer: peer.to_string(),
                        code: "xrpc:panic".to_string(),
                        message: format!(
                            "bulk worker panicked: {}",
                            panic_message(payload.as_ref())
                        ),
                    });
                    let out = range.clone().map(|_| Err(err.clone())).collect();
                    chunk_results.push((range, true, out));
                }
            }
        }
    });

    let mut results: Vec<Sequence> = Vec::with_capacity(n);
    for (range, clean, out) in chunk_results {
        if clean {
            for r in out {
                results.push(r?);
            }
        } else {
            // the snapshot diverged (body attached documents despite the
            // gate): discard and recompute this chunk against the base store
            for ci in range {
                results.push(eval_one_call(core, peer, store, plan, static_ctx, &calls[ci])?);
            }
        }
    }
    Ok(results)
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

/// Drives one logical RPC across the simulated wire under the installed
/// fault plan and retry policy: mangles/drops/stalls messages per the
/// deterministic schedule, replays retryable failures with exponential
/// backoff and deterministic jitter, and accounts bytes and transfers for
/// every attempt (failed attempts moved real bytes too).
///
/// Returns the total simulated chain consumed by the call — transfer legs,
/// injected stalls and backoff waits — plus the number of failed attempts
/// (for the health scoreboard) and the response or the typed error that
/// ended it. The caller bills the chain to the serialized / overlapped
/// clocks as appropriate for its execution mode. Fault ordinals are drawn
/// from the caller's `(lane, rung)` stream, never from shared state.
fn transport_call(
    core: &FedCore,
    peer: &str,
    lane: u64,
    rung: u32,
    request: &str,
    process: &mut dyn FnMut(&str, Duration) -> EvalResult<String>,
) -> (Duration, u32, Result<String, XrpcError>, Vec<SpanBuilder>) {
    let options = core.options();
    let retry = options.retry;
    let plan = options.fault;
    let sink = &core.metrics;
    let model = core.model;
    let trace_on = options.trace;
    // span builders with rung-relative offsets; empty (no allocation
    // beyond the Vec header) when tracing is off
    let mut attempts: Vec<SpanBuilder> = Vec::new();
    let mut chain = Duration::ZERO;
    let mut failed = 0u32;
    loop {
        let attempt_start = chain;
        let seq = plan.map(|_| fault_seq(lane, rung, failed));
        let fault = match (plan, seq) {
            (Some(p), Some(s)) => p.decide(peer, s),
            _ => None,
        };
        if fault.is_some() {
            sink.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        let budget = retry.deadline.saturating_sub(chain);

        let outcome: Result<String, XrpcError> = 'attempt: {
            let mut spent = Duration::ZERO;
            // ---- request leg (possibly mangled or lost in flight) ----
            let delivered: Cow<'_, str> = match fault {
                Some(Fault::TruncateRequest) => {
                    let plan = plan.as_ref().unwrap();
                    let cut = char_floor(
                        request,
                        plan.mangle_position(peer, seq.unwrap(), request.len()),
                    );
                    Cow::Borrowed(&request[..cut])
                }
                _ => Cow::Borrowed(request),
            };
            sink.message_bytes.fetch_add(delivered.len() as u64, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            sink.charge_keysets(&delivered);
            spent += model.transfer_time(delivered.len() as u64);
            match fault {
                Some(Fault::PeerDown) => {
                    chain += spent;
                    break 'attempt Err(XrpcError::PeerBusy {
                        peer: peer.to_string(),
                        detail: "peer down (injected fault)".to_string(),
                        retry_after: BUSY_SWITCH_WAIT,
                    });
                }
                Some(Fault::Hang) => {
                    // the caller's clock runs until it gives up at the
                    // deadline (simulated — no real wait)
                    chain += budget;
                    break 'attempt Err(XrpcError::Timeout {
                        peer: peer.to_string(),
                        deadline: retry.deadline,
                    });
                }
                Some(Fault::Latency) => spent += plan.as_ref().unwrap().extra_latency,
                _ => {}
            }

            // ---- remote side ----
            // A corrupted request is not even valid UTF-8: the peer's XRPC
            // layer rejects it outright with a transport fault. Truncated
            // requests go through the real decode path and fail there.
            let remote_outcome = match fault {
                Some(Fault::CorruptRequest) => {
                    let plan = plan.as_ref().unwrap();
                    let pos = plan.mangle_position(peer, seq.unwrap(), request.len());
                    Ok(encode_fault(&XrpcError::TransportCorrupt {
                        peer: peer.to_string(),
                        detail: format!("request byte {pos} is not valid UTF-8"),
                    }))
                }
                _ => {
                    // whatever the request leg consumed comes out of the
                    // budget the remote side (and its slot wait) may spend
                    let attempt_budget = budget.saturating_sub(spent);
                    let mut bounded = |req: &str| process(req, attempt_budget);
                    run_remote(
                        peer,
                        &delivered,
                        matches!(fault, Some(Fault::RemotePanic)),
                        &mut bounded,
                    )
                }
            };
            let response = match remote_outcome {
                Ok(r) => r,
                Err(e) => {
                    chain += spent;
                    break 'attempt Err(e);
                }
            };

            // ---- response leg (possibly mangled in flight) ----
            match fault {
                Some(Fault::TruncateResponse) => {
                    let plan = plan.as_ref().unwrap();
                    let cut = char_floor(
                        &response,
                        plan.mangle_position(peer, seq.unwrap(), response.len()),
                    );
                    sink.message_bytes.fetch_add(cut as u64, Ordering::Relaxed);
                    sink.transfers.fetch_add(1, Ordering::Relaxed);
                    sink.charge_keysets(&response[..cut]);
                    chain += spent + model.transfer_time(cut as u64);
                    break 'attempt Err(XrpcError::TransportCorrupt {
                        peer: peer.to_string(),
                        detail: format!("response truncated at byte {cut}"),
                    });
                }
                Some(Fault::CorruptResponse) => {
                    let plan = plan.as_ref().unwrap();
                    let pos = plan.mangle_position(peer, seq.unwrap(), response.len());
                    sink.message_bytes.fetch_add(response.len() as u64, Ordering::Relaxed);
                    sink.transfers.fetch_add(1, Ordering::Relaxed);
                    sink.charge_keysets(&response);
                    chain += spent + model.transfer_time(response.len() as u64);
                    break 'attempt Err(XrpcError::TransportCorrupt {
                        peer: peer.to_string(),
                        detail: format!("response byte {pos} is not valid UTF-8"),
                    });
                }
                _ => {}
            }
            sink.message_bytes.fetch_add(response.len() as u64, Ordering::Relaxed);
            sink.transfers.fetch_add(1, Ordering::Relaxed);
            sink.charge_keysets(&response);
            spent += model.transfer_time(response.len() as u64);

            if spent > budget {
                chain += budget;
                break 'attempt Err(XrpcError::Timeout {
                    peer: peer.to_string(),
                    deadline: retry.deadline,
                });
            }
            chain += spent;

            // a wire-encoded fault response decodes back into its typed
            // error (normal responses have an env/response child, never
            // env/fault, so this cannot misfire on result data)
            if response.contains("<fault ") {
                if let Some(e) = decode_fault(&response) {
                    break 'attempt Err(e);
                }
            }
            Ok(response)
        };

        if trace_on {
            let mut sb = SpanBuilder::new("rpc.attempt", "rpc")
                .at(attempt_start)
                .lasting(chain.saturating_sub(attempt_start))
                .arg("peer", peer)
                .arg("attempt", failed.to_string());
            if let Some(f) = fault {
                sb = sb.arg("fault", f.name());
            }
            sb = match &outcome {
                Ok(r) => sb.arg("outcome", "ok").arg("payload", crate::message::payload_kind(r)),
                Err(e) => sb.arg("outcome", e.code()),
            };
            attempts.push(sb);
        }

        match outcome {
            Ok(response) => return (chain, failed, Ok(response), attempts),
            Err(e) => {
                if !e.retryable() || failed + 1 >= retry.max_attempts {
                    return (chain, failed + 1, Err(e), attempts);
                }
                failed += 1;
                sink.retries.fetch_add(1, Ordering::Relaxed);
                let jitter = match (plan, seq) {
                    (Some(p), Some(s)) => p.jitter(peer, s),
                    _ => 0.0,
                };
                let wait = retry.backoff_with_hint(failed, jitter, e.retry_after());
                if trace_on {
                    attempts.push(
                        SpanBuilder::new("rpc.backoff", "rpc")
                            .at(chain)
                            .lasting(wait)
                            .arg("peer", peer),
                    );
                }
                chain += wait;
                if chain >= retry.deadline {
                    return (
                        chain,
                        failed,
                        Err(XrpcError::Cancelled {
                            peer: peer.to_string(),
                            reason: format!(
                                "retry budget exhausted after {failed} failed attempt(s)"
                            ),
                        }),
                        attempts,
                    );
                }
            }
        }
    }
}

/// Condvar wait for a busy peer slot when the ladder still has an
/// alternative healthy replica to try: prefer switching hosts over
/// blocking on the slot.
const BUSY_SWITCH_WAIT: Duration = Duration::from_millis(250);

/// Ranks a candidate host set for one ladder: healthiest tier first
/// (closed breakers before half-open probes), rendezvous score under the
/// replica seed breaking ties within a tier, names as the final tie-break.
/// Hosts behind an open breaker are dropped from the admitted list; the
/// first of them is reported so an all-rejected ladder can fail fast with
/// a typed [`XrpcError::BreakerOpen`].
/// `(host, probe)` pairs a ladder may dial, in preference order.
pub(crate) type Candidates = Vec<(String, bool)>;
/// The first open-breaker host and its remaining cooldown, if any.
pub(crate) type RejectedHost = Option<(String, Duration)>;

pub(crate) fn admitted_candidates(
    board: &Scoreboard,
    seed: u64,
    mut hosts: Vec<String>,
) -> (Candidates, RejectedHost) {
    hosts.sort_by(|a, b| {
        board
            .health_rank(a)
            .cmp(&board.health_rank(b))
            .then_with(|| mix_score(seed, b, 0).cmp(&mix_score(seed, a, 0)))
            .then_with(|| a.cmp(b))
    });
    hosts.dedup();
    let mut admitted = Vec::with_capacity(hosts.len());
    let mut rejected = None;
    for host in hosts {
        match board.admission(&host) {
            Admission::Allow { probe } => admitted.push((host, probe)),
            Admission::Reject { retry_after } => {
                if rejected.is_none() {
                    rejected = Some((host, retry_after));
                }
            }
        }
    }
    (admitted, rejected)
}

/// What one failover ladder did: its accounting, health observations and
/// final outcome. Observations are applied to the live scoreboard by the
/// *caller* (sequentially, or at the scatter gather in slot order) so the
/// board's evolution never depends on thread interleaving.
struct LadderOutcome {
    /// Sum of every attempt chain — the serialized network bill (a hedge's
    /// losing attempt really moved bytes, so it bills here too).
    serialized: Duration,
    /// Wall clock the ladder occupied: per rung the attempt chain, except a
    /// hedged pair which ends when the winning response lands — the loser
    /// is cancelled and costs no further wall clock.
    window: Duration,
    observations: Vec<Observation>,
    hedges: u64,
    hedge_wins: u64,
    probes: u64,
    failovers: u64,
    outcome: Result<String, XrpcError>,
    /// The ladder's span tree (rung and attempt children with
    /// ladder-relative offsets), built on whichever thread ran the ladder
    /// and submitted by the coordinator at its gather point. `None` when
    /// tracing is off.
    trace: Option<SpanBuilder>,
}

impl LadderOutcome {
    /// A ladder that never dispatched (fast-fail or a poisoned worker).
    fn failed(err: XrpcError) -> Self {
        LadderOutcome {
            serialized: Duration::ZERO,
            window: Duration::ZERO,
            observations: Vec::new(),
            hedges: 0,
            hedge_wins: 0,
            probes: 0,
            failovers: 0,
            outcome: Err(err),
            trace: None,
        }
    }
}

/// The unified failover ladder of one logical call: same-peer retries (in
/// [`transport_call`]) → next replica → hedged secondary → caller-side
/// degradation (the caller's move, on a degradable final error).
///
/// Candidates are every catalog host able to stand in for `primary`,
/// healthiest first; hosts behind an open breaker are skipped entirely, a
/// half-open host is admitted as a single probe. Each rung gets a fresh
/// deadline budget (a hung primary must not starve the replica's chance to
/// answer). The ladder stops early on errors that would reproduce anywhere
/// — evaluation faults are deterministic, so no replica can do better —
/// and otherwise walks on while [`XrpcError::failover_eligible`] holds.
///
/// When hedging is enabled and the preferred host has not answered within
/// the (deterministically jittered) hedge delay, the next healthy
/// candidate is dispatched as a secondary attempt and the first valid
/// response wins; both attempts bill the serialized clock, the window only
/// runs to the winner.
fn call_with_failover(
    core: &FedCore,
    board: &Scoreboard,
    primary: &str,
    lane: u64,
    request: &str,
    process: &mut dyn FnMut(&str, &str, Duration) -> EvalResult<String>,
) -> LadderOutcome {
    let mut rungs = Vec::new();
    let mut out = ladder_rungs(core, board, primary, lane, request, process, &mut rungs);
    if core.options().trace {
        let mut sb = SpanBuilder::new("rpc.ladder", "rpc")
            .lasting(out.window)
            .arg("peer", primary)
            .arg(
                "outcome",
                match &out.outcome {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.code().to_string(),
                },
            );
        for r in rungs {
            sb.push_child(r);
        }
        out.trace = Some(sb);
    }
    out
}

/// The rung walk of [`call_with_failover`]; `rungs` collects one
/// ladder-relative span per dialed rung when tracing is on.
fn ladder_rungs(
    core: &FedCore,
    board: &Scoreboard,
    primary: &str,
    lane: u64,
    request: &str,
    process: &mut dyn FnMut(&str, &str, Duration) -> EvalResult<String>,
    rungs: &mut Vec<SpanBuilder>,
) -> LadderOutcome {
    let options = core.options();
    let trace_on = options.trace;
    let deadline = options.retry.deadline;
    let seed = options.replica_seed;
    let hosts = core.catalog.lock().unwrap().hosts_serving_peer(primary);
    let (candidates, rejected) = admitted_candidates(board, seed, hosts);
    if candidates.is_empty() {
        // every breaker open: fail fast — a tripped peer is never re-dialed
        let (host, retry_after) =
            rejected.unwrap_or_else(|| (primary.to_string(), Duration::ZERO));
        return LadderOutcome::failed(XrpcError::BreakerOpen { peer: host, retry_after });
    }
    let mut out = LadderOutcome::failed(XrpcError::UnknownPeer { peer: primary.to_string() });
    let mut rung: u32 = 0;
    let mut i = 0;
    while i < candidates.len() {
        let (host, probe) = &candidates[i];
        if *probe {
            out.probes += 1;
        }
        if rung > 0 {
            out.failovers += 1;
        }
        let has_alternative = candidates[i + 1..].iter().any(|(_, p)| !*p);
        let wait = if has_alternative { deadline.min(BUSY_SWITCH_WAIT) } else { deadline };
        // hedge armed on the preferred (non-probe) rung only, when the very
        // next candidate is healthy
        let hedge = if rung == 0 && !probe {
            options.hedge.and_then(|base| match candidates.get(i + 1) {
                Some((h2, false)) => {
                    let delay = base.mul_f64(0.5 + 0.5 * seeded_fraction(seed, host, lane));
                    Some((h2.clone(), delay))
                }
                _ => None,
            })
        } else {
            None
        };

        // the slot wait passed down is the rung's switch policy bounded by
        // the attempt's remaining deadline budget (satellite of the
        // unbounded busy-wait fix: no path may out-wait its own deadline)
        let w0 = out.window;
        let rung_idx = rung;
        let mut rung_process =
            |req: &str, remaining: Duration| process(host, req, wait.min(remaining));
        let (chain_p, failed_p, res_p, spans_p) =
            transport_call(core, host, lane, rung, request, &mut rung_process);
        rung += 1;
        if trace_on {
            let mut sb = SpanBuilder::new("rpc.rung", "rpc")
                .at(w0)
                .lasting(chain_p)
                .arg("peer", host.as_str())
                .arg("rung", rung_idx.to_string())
                .arg("kind", if *probe { "probe" } else { "primary" })
                .arg("breaker", board.state(host).name());
            for a in spans_p {
                sb.push_child(a);
            }
            rungs.push(sb);
        }
        out.observations.push(Observation {
            peer: host.clone(),
            ok: res_p.is_ok(),
            failed_attempts: failed_p,
            chain: chain_p,
            probe: *probe,
        });

        // the hedge timer fired before the preferred host answered
        let hedge = hedge.filter(|(_, delay)| chain_p > *delay);
        if let Some((host2, delay)) = hedge {
            out.hedges += 1;
            let wait2 = deadline.min(BUSY_SWITCH_WAIT);
            let mut hedge_process =
                |req: &str, remaining: Duration| process(&host2, req, wait2.min(remaining));
            let (chain_h, failed_h, res_h, spans_h) =
                transport_call(core, &host2, lane, rung, request, &mut hedge_process);
            rung += 1;
            if trace_on {
                let mut sb = SpanBuilder::new("rpc.rung", "rpc")
                    .at(w0 + delay)
                    .lasting(chain_h)
                    .arg("peer", host2.as_str())
                    .arg("rung", rung_idx.saturating_add(1).to_string())
                    .arg("kind", "hedge")
                    .arg("breaker", board.state(&host2).name());
                for a in spans_h {
                    sb.push_child(a);
                }
                rungs.push(sb);
            }
            out.observations.push(Observation {
                peer: host2.clone(),
                ok: res_h.is_ok(),
                failed_attempts: failed_h,
                chain: chain_h,
                probe: false,
            });
            let t_p = chain_p;
            let t_h = delay + chain_h;
            out.serialized += chain_p + chain_h;
            match (res_p, res_h) {
                (Ok(rp), Ok(rh)) => {
                    // responses are bit-identical (content-based codecs);
                    // the strictly earlier one wins, primary on a tie
                    if t_h < t_p {
                        out.hedge_wins += 1;
                        out.window += t_h;
                        out.outcome = Ok(rh);
                    } else {
                        out.window += t_p;
                        out.outcome = Ok(rp);
                    }
                    return out;
                }
                (Ok(rp), Err(_)) => {
                    out.window += t_p;
                    out.outcome = Ok(rp);
                    return out;
                }
                (Err(_), Ok(rh)) => {
                    out.hedge_wins += 1;
                    out.window += t_h;
                    out.outcome = Ok(rh);
                    return out;
                }
                (Err(ep), Err(eh)) => {
                    out.window += t_p.max(t_h);
                    if !ep.failover_eligible() {
                        out.outcome = Err(ep);
                        return out;
                    }
                    if !eh.failover_eligible() {
                        out.outcome = Err(eh);
                        return out;
                    }
                    // both the preferred host and the hedge target failed:
                    // resume the ladder past the pair
                    out.outcome = Err(eh);
                    i += 2;
                    continue;
                }
            }
        }

        out.serialized += chain_p;
        out.window += chain_p;
        match res_p {
            Ok(r) => {
                out.outcome = Ok(r);
                return out;
            }
            Err(e) => {
                let terminal = !e.failover_eligible();
                out.outcome = Err(e);
                if terminal {
                    return out;
                }
                i += 1;
            }
        }
    }
    out
}

/// Rewrites a call body for coordinator-side evaluation: every literal
/// plain-name `fn:doc` argument becomes the canonical `xrpc://<peer>/<name>`
/// URI so the coordinator's resolver data-ships it. Returns `None` when
/// the body is ineligible for degradation — nested `execute at`, computed
/// document URIs, or URIs on foreign schemes.
fn degrade_module(module: &QueryModule, peer: &str) -> Option<QueryModule> {
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
                xqd_xquery::normalize::map_children_infallible(other, &mut |c| {
                    rewrite(c, peer, ok)
                })
            }
        }
    }
    let mut ok = true;
    let body = rewrite(&module.body, peer, &mut ok);
    let functions = module
        .functions
        .iter()
        .map(|f| {
            let mut nf = f.clone();
            nf.body = rewrite(&f.body, peer, &mut ok);
            nf
        })
        .collect();
    if ok {
        Some(QueryModule { functions, body })
    } else {
        None
    }
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
    body_src: &str,
    calls: &[Vec<(String, Sequence)>],
    projection: Option<&ExecProjection>,
    wire: WireSemantics,
) -> EvalResult<Option<Vec<Sequence>>> {
    let Ok(module) = parse_query(body_src) else { return Ok(None) };
    let Some(module) = degrade_module(&module, peer) else { return Ok(None) };
    let plan = xqd_xquery::compile_module(
        &module.functions,
        &module.body,
        core.options().use_indexes,
        static_ctx,
    );
    let mut results = Vec::with_capacity(calls.len());
    for params in calls {
        // evaluated as the coordinator (empty peer name), so the rewritten
        // `xrpc://` document URIs data-ship through the resolver
        let seq = eval_one_call(core, "", local, &plan, static_ctx, params).map_err(|e| {
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
        results.push(seq);
    }
    let response = encode_response(local, wire, &results, projection.map(|p| &p.result))?;
    let decoded = decode_response(local, &response)?;
    core.metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
    Ok(Some(decoded))
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
        let wire = self.core.wire();
        // ---- encode request (caller side) ----
        let t0 = Instant::now();
        let body_src = body.to_string();
        let request = encode_request(
            local,
            wire,
            static_ctx,
            &body_src,
            calls,
            projection.map(|p| p.params.as_slice()),
            projection.map(|p| &p.result),
        )?;
        let sink = &self.core.metrics;
        sink.serialize_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
        sink.remote_calls.fetch_add(calls.len() as u64, Ordering::Relaxed);

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
        let sink = &self.core.metrics;
        sink.network_ns.fetch_add(as_ns(ladder.serialized), Ordering::Relaxed);
        sink.network_overlapped_ns.fetch_add(as_ns(ladder.window), Ordering::Relaxed);
        self.core.charge_ladder_counters(&ladder);
        if self.peer.is_empty() {
            self.core.apply_observations(ladder.window, &ladder.observations);
            // submit the ladder's span tree and advance the trace clock by
            // exactly the wall clock the scoreboard just advanced by
            if let Some(tracer) = self.core.tracer() {
                if let Some(tb) = ladder.trace.take() {
                    let anchor = tracer.clock_ns();
                    tracer.submit(anchor, ROOT_SPAN, tb.arg("calls", calls.len().to_string()));
                    tracer.advance(ladder.window);
                }
            }
        }

        let response = match ladder.outcome {
            Ok(r) => r,
            Err(e) => {
                if e.degradable() {
                    if let Some(sequences) = fallback_local(
                        &self.core,
                        local,
                        static_ctx,
                        peer,
                        &body_src,
                        calls,
                        projection,
                        wire,
                    )? {
                        if self.peer.is_empty() {
                            if let Some(tracer) = self.core.tracer() {
                                tracer.event(
                                    ROOT_SPAN,
                                    "rpc.degrade",
                                    "rpc",
                                    vec![
                                        ("peer", peer.to_string()),
                                        ("error", e.code().to_string()),
                                    ],
                                );
                            }
                        }
                        return Ok(sequences);
                    }
                }
                return Err(e.into());
            }
        };

        // ---- decode response (caller side) ----
        let sink = &self.core.metrics;
        let t0 = Instant::now();
        let sequences = decode_response(local, &response)?;
        sink.shred_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
        if sequences.len() != calls.len() {
            return Err(EvalError::new(format!(
                "response carries {} sequences for {} calls",
                sequences.len(),
                calls.len()
            )));
        }
        Ok(sequences)
    }

    fn execute_scatter(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        calls: &[ScatterCall<'_>],
    ) -> EvalResult<Vec<Sequence>> {
        let options = self.core.options();
        // a round targeting our own peer re-entrantly, or parallelism
        // disabled: fall back to the sequential per-call loop (identical
        // results, bytes and serialized network; no overlap credit)
        if !options.parallel_scatter || calls.iter().any(|c| c.peer == self.peer) {
            return calls
                .iter()
                .map(|c| self.execute(local, static_ctx, &c.peer, &c.params, c.body, c.projection))
                .collect();
        }

        let wire = self.core.wire();
        let sink = &self.core.metrics;

        // ---- scatter: encode every request up front, in call order ----
        // Parameters were pre-bound by the evaluator and responses only ever
        // *add* documents to the coordinator store, so these encodings are
        // byte-identical to the ones sequential execution would produce.
        let mut requests = Vec::with_capacity(calls.len());
        for c in calls {
            let t0 = Instant::now();
            let body_src = c.body.to_string();
            let one_call = vec![c.params.clone()];
            let request = encode_request(
                local,
                wire,
                static_ctx,
                &body_src,
                &one_call,
                c.projection.map(|p| p.params.as_slice()),
                c.projection.map(|p| &p.result),
            )?;
            sink.serialize_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
            sink.remote_calls.fetch_add(1, Ordering::Relaxed);
            requests.push(request);
        }

        // ---- fan out: one scoped thread per distinct destination ----
        // Each worker drives its calls through the same failover ladder as
        // sequential execution, over a shared scoreboard snapshot. Fault
        // ordinals come from per-slot lanes reserved before the spawn, so
        // the schedule is independent of thread interleaving even when two
        // slots fail over to the same replica; health observations are
        // collected per slot and applied at the gather, in slot order.
        // Grouping, spawn and join are shared with the socket coordinator.
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
        let mut serialized_sum = Duration::ZERO;
        let mut slowest_chain = Duration::ZERO;
        for (_, idxs) in &groups {
            let serialized: Duration = idxs.iter().map(|&i| rows[i].serialized).sum();
            let window: Duration = idxs.iter().map(|&i| rows[i].window).sum();
            serialized_sum += serialized;
            slowest_chain = slowest_chain.max(window);
        }
        sink.network_ns.fetch_add(as_ns(serialized_sum), Ordering::Relaxed);
        sink.network_overlapped_ns
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
                    if let Some(tb) = row.trace.take() {
                        round.push_child(tb.arg("slot", i.to_string()));
                    }
                }
                tracer.submit(anchor, ROOT_SPAN, round);
                tracer.advance(slowest_chain);
            }
        }

        // ---- gather: decode or degrade per slot, in call order ----
        let mut results = Vec::with_capacity(calls.len());
        for (row, c) in rows.into_iter().zip(calls) {
            match row.outcome {
                Ok(response) => {
                    let t0 = Instant::now();
                    let mut sequences = decode_response(local, &response)?;
                    sink.shred_ns.fetch_add(as_ns(t0.elapsed()), Ordering::Relaxed);
                    if sequences.len() != 1 {
                        return Err(EvalError::new(format!(
                            "scatter response for peer {} carries {} sequences for 1 call",
                            c.peer,
                            sequences.len()
                        )));
                    }
                    results.push(sequences.pop().unwrap());
                }
                Err(e) => {
                    if e.degradable() {
                        let body_src = c.body.to_string();
                        let one_call = vec![c.params.clone()];
                        if let Some(mut sequences) = fallback_local(
                            &self.core,
                            local,
                            static_ctx,
                            &c.peer,
                            &body_src,
                            &one_call,
                            c.projection,
                            wire,
                        )? {
                            if let Some(tracer) = self.core.tracer() {
                                tracer.event(
                                    ROOT_SPAN,
                                    "rpc.degrade",
                                    "rpc",
                                    vec![
                                        ("peer", c.peer.to_string()),
                                        ("error", e.code().to_string()),
                                    ],
                                );
                            }
                            results.push(sequences.pop().unwrap_or_default());
                            continue;
                        }
                    }
                    return Err(e.into());
                }
            }
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

    #[test]
    fn backoff_hint_is_never_undercut_and_never_exceeds_the_deadline() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: Duration::from_millis(200),
        };
        // no hint: plain exponential backoff, bit for bit
        for failed in 1..5 {
            assert_eq!(
                policy.backoff_with_hint(failed, 0.5, None),
                policy.backoff(failed, 0.5)
            );
        }
        // a hint above the exponential wait wins: the server's estimate
        // of when capacity frees is never undercut
        let hint = Duration::from_millis(120);
        assert_eq!(policy.backoff_with_hint(1, 0.0, Some(hint)), hint);
        // a hint below the exponential wait changes nothing
        let tiny = Duration::from_millis(1);
        assert_eq!(
            policy.backoff_with_hint(4, 1.0, Some(tiny)),
            policy.backoff(4, 1.0)
        );
        // a hint the deadline budget cannot afford is capped by it
        let huge = Duration::from_secs(60);
        assert_eq!(policy.backoff_with_hint(1, 0.0, Some(huge)), policy.deadline);
    }

    /// Request envelopes, shipped fragments and constructed results live in
    /// the peer's store only while their request is being served — under
    /// every wire semantics, for constructor bodies, and on the error path.
    #[test]
    fn served_requests_leave_the_peer_store_as_they_found_it() {
        let f = federation();
        let doc_count = || f.core.peers.lock().unwrap()["p"].peer.as_ref().unwrap().store.doc_count();
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
                    assert_eq!(reply.contains("<fault "), body.contains("div 0"), "{body}: {reply}");
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

    #[test]
    fn full_wait_queue_is_rejected_immediately_with_backpressure() {
        let f = federation();
        let mut options = f.exec_options();
        options.peer_queue_depth = 1;
        *f.core.options.lock().unwrap() = options;
        let held = f.core.take_peer("p", Duration::from_millis(5)).unwrap();
        // fill the single waiter seat from another thread
        let core = Arc::clone(&f.core);
        let waiter =
            std::thread::spawn(move || core.take_peer("p", Duration::from_millis(300)));
        while f.core.peers.lock().unwrap()["p"].waiters == 0 {
            std::thread::yield_now();
        }
        // the next caller must bounce instantly instead of queueing
        let t = Instant::now();
        let err = f.core.take_peer("p", Duration::from_secs(30)).unwrap_err();
        assert!(t.elapsed() < Duration::from_millis(250), "rejection was not immediate");
        assert_eq!(err.code(), "xrpc:peer-busy");
        assert!(format!("{err}").contains("wait queue full"), "{err}");
        assert!(err.retry_after().unwrap() > Duration::ZERO);
        // returning the peer hands it to the queued waiter
        f.core.put_peer(held);
        let woken = waiter.join().unwrap().expect("queued waiter should get the slot");
        f.core.put_peer(woken);
    }

    #[test]
    fn depth_zero_disables_the_waiter_bound() {
        let f = federation();
        let mut options = f.exec_options();
        options.peer_queue_depth = 0;
        *f.core.options.lock().unwrap() = options;
        let held = f.core.take_peer("p", Duration::from_millis(5)).unwrap();
        // with the bound off, an extra caller queues (and times out) rather
        // than being rejected up front
        let err = f.core.take_peer("p", Duration::from_millis(10)).unwrap_err();
        assert!(format!("{err}").contains("slot still held"), "{err}");
        f.core.put_peer(held);
    }
}
