//! Simulated network, fault injection, typed failure semantics and
//! execution metrics.
//!
//! The paper's testbed was three machines on 1 Gb/s Ethernet. We replace
//! the wire with a cost model — `latency + bytes / bandwidth` per message —
//! while keeping everything else real: messages are actually serialized to
//! XML bytes and re-parsed on the other side, so the byte counts driving
//! Figures 7 and 10 are exact, and the CPU portions of the Figure 8
//! breakdown (shred / exec / (de)serialize) are measured wall-clock times.
//!
//! Beyond the paper's cooperative-LAN assumption this module adds the
//! federation's **failure model**:
//!
//! * [`XrpcError`] — the typed taxonomy every RPC-path failure collapses
//!   into. Faults are encoded on the wire as XRPC fault responses (SOAP-
//!   fault style) and round-trip through the real message codecs.
//! * [`FaultPlan`] — deterministic, seeded fault injection driven by the
//!   in-tree `xqd-prng`. A fault decision is a pure function of
//!   `(seed, peer, per-peer attempt ordinal)`, so a schedule replays
//!   identically regardless of thread interleaving — the property the
//!   chaos suite builds on.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use xqd_prng::{unit_f64, Rng};
use xqd_xquery::value::EvalError;

// ---------------------------------------------------------------------------
// typed failure taxonomy
// ---------------------------------------------------------------------------

/// Typed XRPC-path failure. Every error the distributed executor can
/// surface is one of these; stringly failures only exist *inside* remote
/// evaluation, where they are wrapped into [`XrpcError::RemoteFault`] and
/// shipped back as a wire-encoded fault response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XrpcError {
    /// The target peer is not part of the federation. Not retryable: no
    /// amount of waiting makes an unconfigured peer appear.
    UnknownPeer { peer: String },
    /// The peer exists but could not be engaged (slot held past the
    /// deadline, or the fault plan declared it down). Retryable after
    /// `retry_after` — an honest hint derived from the peer's observed
    /// service time where one is known.
    PeerBusy { peer: String, detail: String, retry_after: Duration },
    /// The call did not complete within its per-call deadline (hang, or
    /// injected latency pushing the chain past the budget).
    Timeout { peer: String, deadline: Duration },
    /// A message was truncated or corrupted in flight and could not be
    /// decoded. Retryable: replays are safe because remote calls are pure.
    TransportCorrupt { peer: String, detail: String },
    /// The remote side evaluated the call and failed; `code` carries the
    /// remote error code (or `xrpc:panic` for a captured worker panic).
    /// Not retryable: remote evaluation is deterministic.
    RemoteFault { peer: String, code: String, message: String },
    /// The call was abandoned before another attempt could start (its
    /// retry/backoff budget was exhausted by earlier attempts).
    Cancelled { peer: String, reason: String },
    /// The peer's circuit breaker is open: recent consecutive failures
    /// tripped it and the cooldown has not elapsed on the simulated clock.
    /// Not retryable on the *same* peer (that is the breaker's whole
    /// point), but failover-eligible — another replica may answer — and
    /// degradable as a last resort.
    BreakerOpen { peer: String, retry_after: Duration },
    /// The coordinator's admission controller shed this query: the bounded
    /// run queue was full when it arrived. Nothing was dispatched, so the
    /// caller may safely resubmit after `retry_after_ms` (an honest
    /// estimate of when queue space frees up). Not retryable *immediately*
    /// — hammering an overloaded coordinator is the failure mode admission
    /// control exists to prevent — and not degradable: no work was lost.
    Overloaded { retry_after_ms: u64 },
}

impl XrpcError {
    /// The wire/`EvalError` code of this error. [`XrpcError::RemoteFault`]
    /// propagates the remote code verbatim.
    pub fn code(&self) -> String {
        match self {
            XrpcError::UnknownPeer { .. } => "xrpc:unknown-peer".into(),
            XrpcError::PeerBusy { .. } => "xrpc:peer-busy".into(),
            XrpcError::Timeout { .. } => "xrpc:timeout".into(),
            XrpcError::TransportCorrupt { .. } => "xrpc:transport-corrupt".into(),
            XrpcError::RemoteFault { code, .. } => code.clone(),
            XrpcError::Cancelled { .. } => "xrpc:cancelled".into(),
            XrpcError::BreakerOpen { .. } => "xrpc:breaker-open".into(),
            XrpcError::Overloaded { .. } => "xrpc:overloaded".into(),
        }
    }

    /// The peer the failure is attributed to.
    pub fn peer(&self) -> &str {
        match self {
            XrpcError::UnknownPeer { peer }
            | XrpcError::PeerBusy { peer, .. }
            | XrpcError::Timeout { peer, .. }
            | XrpcError::TransportCorrupt { peer, .. }
            | XrpcError::RemoteFault { peer, .. }
            | XrpcError::Cancelled { peer, .. }
            | XrpcError::BreakerOpen { peer, .. } => peer,
            // an admission shed happens before any peer is chosen
            XrpcError::Overloaded { .. } => "",
        }
    }

    /// The server-suggested resubmission delay, for errors that carry one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            XrpcError::PeerBusy { retry_after, .. }
            | XrpcError::BreakerOpen { retry_after, .. } => Some(*retry_after),
            XrpcError::Overloaded { retry_after_ms } => {
                Some(Duration::from_millis(*retry_after_ms))
            }
            _ => None,
        }
    }

    /// True if another attempt of the same call may succeed: the failure
    /// was in transport, not in evaluation.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            XrpcError::PeerBusy { .. }
                | XrpcError::Timeout { .. }
                | XrpcError::TransportCorrupt { .. }
        )
    }

    /// True if graceful degradation (data shipping + local evaluation) is a
    /// sound response: the peer could not *answer*, as opposed to having
    /// answered with an evaluation error that local evaluation would
    /// reproduce.
    pub fn degradable(&self) -> bool {
        self.retryable()
            || matches!(self, XrpcError::Cancelled { .. } | XrpcError::BreakerOpen { .. })
    }

    /// True if the failover ladder may try *another replica* after this
    /// failure. Wider than [`XrpcError::retryable`]: a tripped breaker or
    /// an exhausted budget forbids hammering the same peer but says nothing
    /// about its replicas, and a captured worker panic (`xrpc:panic`) is an
    /// infrastructure failure another copy of the data can route around.
    /// Genuine evaluation faults stay ineligible — every replica holds a
    /// bit-identical copy and would reproduce them.
    pub fn failover_eligible(&self) -> bool {
        match self {
            XrpcError::RemoteFault { code, .. } => code == "xrpc:panic",
            XrpcError::UnknownPeer { .. } => false,
            // the shed happened before a peer was picked; there is no
            // replica to route around an overloaded coordinator
            XrpcError::Overloaded { .. } => false,
            _ => true,
        }
    }

    /// Reconstructs the typed error from a wire code plus human-readable
    /// message (the inverse of encoding a fault response). Unknown codes
    /// become [`XrpcError::RemoteFault`] carrying the code verbatim.
    pub fn from_code(code: &str, peer: &str, message: &str) -> XrpcError {
        let peer = peer.to_string();
        match code {
            "xrpc:unknown-peer" => XrpcError::UnknownPeer { peer },
            "xrpc:peer-busy" => XrpcError::PeerBusy {
                peer,
                detail: message.to_string(),
                retry_after: Duration::ZERO,
            },
            "xrpc:timeout" => XrpcError::Timeout { peer, deadline: Duration::ZERO },
            "xrpc:transport-corrupt" => {
                XrpcError::TransportCorrupt { peer, detail: message.to_string() }
            }
            "xrpc:cancelled" => XrpcError::Cancelled { peer, reason: message.to_string() },
            "xrpc:breaker-open" => {
                XrpcError::BreakerOpen { peer, retry_after: Duration::ZERO }
            }
            "xrpc:overloaded" => XrpcError::Overloaded { retry_after_ms: 0 },
            other => XrpcError::RemoteFault {
                peer,
                code: other.to_string(),
                message: message.to_string(),
            },
        }
    }

    /// Lifts a caller-side [`EvalError`] back into the taxonomy using its
    /// code tag; untagged errors are remote evaluation faults.
    pub fn from_eval(peer: &str, e: &EvalError) -> XrpcError {
        match &e.code {
            Some(code) => XrpcError::from_code(code, peer, &e.message),
            None => XrpcError::RemoteFault {
                peer: peer.to_string(),
                code: "err:dynamic".to_string(),
                message: e.message.clone(),
            },
        }
    }
}

impl fmt::Display for XrpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrpcError::UnknownPeer { peer } => write!(f, "unknown peer {peer}"),
            XrpcError::PeerBusy { peer, detail, retry_after } => {
                write!(f, "peer {peer} unavailable: {detail} (retry after {retry_after:?})")
            }
            XrpcError::Timeout { peer, deadline } => {
                write!(f, "call to peer {peer} timed out after {deadline:?}")
            }
            XrpcError::TransportCorrupt { peer, detail } => {
                write!(f, "corrupt transport to/from peer {peer}: {detail}")
            }
            XrpcError::RemoteFault { peer, code, message } => {
                write!(f, "remote fault on peer {peer} ({code}): {message}")
            }
            XrpcError::Cancelled { peer, reason } => {
                write!(f, "call to peer {peer} cancelled: {reason}")
            }
            XrpcError::BreakerOpen { peer, retry_after } => {
                write!(f, "circuit breaker open for peer {peer} (retry after {retry_after:?})")
            }
            XrpcError::Overloaded { retry_after_ms } => {
                write!(f, "coordinator overloaded: run queue full, retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for XrpcError {}

impl From<XrpcError> for EvalError {
    fn from(e: XrpcError) -> EvalError {
        EvalError::with_code(e.code(), e.to_string())
    }
}

// ---------------------------------------------------------------------------
// deterministic fault injection
// ---------------------------------------------------------------------------

/// One injected per-call fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The peer does not react at all; the request is lost.
    PeerDown,
    /// The request arrives truncated at a random point.
    TruncateRequest,
    /// One request byte is overwritten with an invalid UTF-8 byte.
    CorruptRequest,
    /// The response arrives truncated at a random point.
    TruncateResponse,
    /// One response byte is overwritten with an invalid UTF-8 byte.
    CorruptResponse,
    /// The link stalls for [`FaultPlan::extra_latency`] on top of the
    /// modeled transfer time.
    Latency,
    /// The call hangs past its deadline; the caller gives up at the
    /// deadline (simulated — no real wait).
    Hang,
    /// The remote worker panics mid-call (captured and converted into
    /// [`XrpcError::RemoteFault`] with code `xrpc:panic`).
    RemotePanic,
}

impl Fault {
    /// Stable kebab-case name, used as a trace-span annotation.
    pub fn name(self) -> &'static str {
        match self {
            Fault::PeerDown => "peer-down",
            Fault::TruncateRequest => "truncate-request",
            Fault::CorruptRequest => "corrupt-request",
            Fault::TruncateResponse => "truncate-response",
            Fault::CorruptResponse => "corrupt-response",
            Fault::Latency => "latency",
            Fault::Hang => "hang",
            Fault::RemotePanic => "remote-panic",
        }
    }

    const ALL: [Fault; 8] = [
        Fault::PeerDown,
        Fault::TruncateRequest,
        Fault::CorruptRequest,
        Fault::TruncateResponse,
        Fault::CorruptResponse,
        Fault::Latency,
        Fault::Hang,
        Fault::RemotePanic,
    ];
}

/// Seeded, fully deterministic fault schedule.
///
/// Each per-peer call attempt consumes one ordinal from that peer's
/// counter; the fault decision (and any jitter / mangling positions) for
/// ordinal `n` is drawn from a fresh `xqd-prng` stream seeded by
/// `mix(seed, hash(peer), n)`. Because per-peer attempt order is
/// deterministic in both the sequential and scatter executors, the same
/// `(seed, plan)` replays the same schedule — including under thread
/// interleaving — which is what makes the chaos suite's metrics
/// reproducible bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub seed: u64,
    /// Per-attempt probability of each fault kind, in [`Fault::ALL`] order
    /// implied by the individual fields below.
    pub p_peer_down: f64,
    pub p_truncate_request: f64,
    pub p_corrupt_request: f64,
    pub p_truncate_response: f64,
    pub p_corrupt_response: f64,
    pub p_latency: f64,
    pub p_hang: f64,
    pub p_panic: f64,
    /// Stall added by [`Fault::Latency`].
    pub extra_latency: Duration,
    /// When set, the plan only injects faults into the peer whose name
    /// hashes to this value (see [`FaultPlan::with_target`]); every other
    /// peer sees a fault-free schedule. Lets the chaos suite kill or flap a
    /// *specific* primary while its replicas stay healthy.
    pub target: Option<u64>,
}

impl FaultPlan {
    /// A plan injecting no faults (useful as a base for struct update).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            p_peer_down: 0.0,
            p_truncate_request: 0.0,
            p_corrupt_request: 0.0,
            p_truncate_response: 0.0,
            p_corrupt_response: 0.0,
            p_latency: 0.0,
            p_hang: 0.0,
            p_panic: 0.0,
            extra_latency: Duration::from_millis(50),
            target: None,
        }
    }

    /// A plan where every fault kind is equally likely and `total_rate` is
    /// the per-attempt probability that *some* fault fires.
    pub fn uniform(seed: u64, total_rate: f64) -> Self {
        let p = (total_rate / Fault::ALL.len() as f64).clamp(0.0, 1.0);
        FaultPlan {
            p_peer_down: p,
            p_truncate_request: p,
            p_corrupt_request: p,
            p_truncate_response: p,
            p_corrupt_response: p,
            p_latency: p,
            p_hang: p,
            p_panic: p,
            ..FaultPlan::none(seed)
        }
    }

    fn probs(&self) -> [f64; 8] {
        [
            self.p_peer_down,
            self.p_truncate_request,
            self.p_corrupt_request,
            self.p_truncate_response,
            self.p_corrupt_response,
            self.p_latency,
            self.p_hang,
            self.p_panic,
        ]
    }

    /// FNV-1a hash of a peer name — the key used by [`FaultPlan::target`].
    pub fn peer_hash(peer: &str) -> u64 {
        xqd_prng::fnv1a(peer.as_bytes())
    }

    /// Restricts this plan to a single peer: faults are injected only into
    /// calls against `peer`; everything else runs fault-free.
    pub fn with_target(self, peer: &str) -> Self {
        FaultPlan { target: Some(FaultPlan::peer_hash(peer)), ..self }
    }

    /// Does this plan inject into `peer` at all?
    pub fn targeting(&self, peer: &str) -> bool {
        match self.target {
            None => true,
            Some(h) => h == FaultPlan::peer_hash(peer),
        }
    }

    /// The per-attempt PRNG stream for `(peer, seq)`.
    fn stream(&self, peer: &str, seq: u64) -> Rng {
        // FNV-1a over the peer name, then SplitMix-style mixing with the
        // seed and ordinal so nearby (seed, seq) pairs decorrelate.
        let h = FaultPlan::peer_hash(peer);
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h)
            .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        Rng::seed_from_u64(mixed)
    }

    /// The fault (if any) injected into attempt `seq` against `peer`.
    pub fn decide(&self, peer: &str, seq: u64) -> Option<Fault> {
        if !self.targeting(peer) {
            return None;
        }
        let mut rng = self.stream(peer, seq);
        let draw = unit_f64(rng.next_u64());
        let mut acc = 0.0;
        for (fault, p) in Fault::ALL.iter().zip(self.probs()) {
            acc += p;
            if draw < acc {
                return Some(*fault);
            }
        }
        None
    }

    /// Deterministic jitter fraction in `[0, 1)` for the backoff following
    /// attempt `seq` against `peer`.
    pub fn jitter(&self, peer: &str, seq: u64) -> f64 {
        let mut rng = self.stream(peer, seq);
        rng.next_u64(); // skip the fault draw
        unit_f64(rng.next_u64())
    }

    /// Deterministic mangling position in `[0, len)` for truncation or
    /// corruption of a `len`-byte message on attempt `seq`.
    pub fn mangle_position(&self, peer: &str, seq: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let mut rng = self.stream(peer, seq);
        rng.next_u64(); // skip the fault draw
        rng.next_u64(); // skip the jitter draw
        rng.gen_range_usize(0..len)
    }
}

/// Link cost model.
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    pub bandwidth_bytes_per_sec: f64,
    pub latency: Duration,
}

impl NetworkModel {
    /// 1 Gb/s, 0.1 ms — the paper's LAN.
    pub fn lan() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: 1e9 / 8.0,
            latency: Duration::from_micros(100),
        }
    }

    /// 10 Mb/s, 20 ms — the WAN environment the paper argues favours the
    /// enhanced semantics even more.
    pub fn wan() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: 10e6 / 8.0,
            latency: Duration::from_millis(20),
        }
    }

    /// Simulated time for one transfer of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }
}

/// How one row of the contract group accumulates in [`Metrics::add`].
macro_rules! merge {
    (sum, $into:expr, $from:expr) => {
        $into += $from
    };
    // a high-water mark accumulates by max, not by sum
    (max, $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
}

/// The one table of per-run accounting: a row is a public field of
/// [`Metrics`] and an atomic cell of [`MetricsSink`], and from the rows come
/// [`Metrics::add`], [`Metrics::counters`], [`METRIC_NAMES`] and the typed
/// accessors of [`MetricsSnapshot`] — a new counter is one new row.
///
/// - `contract`: the deterministic counters, in replay-contract order
///   (appending is fine; reordering or renaming breaks the contract and is
///   pinned by `metric_names_pin_the_replay_contract` below). A `sum` row
///   accumulates by addition, a `max` row is a high-water mark.
/// - `counters`: counters kept out of the contract array.
/// - `durations`: measured or simulated times, never part of the contract;
///   the sink holds them as nanosecond counters.
macro_rules! metrics_table {
    (
        contract { $( $(#[$cdoc:meta])* $merge:ident $c:ident, )* }
        counters { $( $(#[$pdoc:meta])* $p:ident, )* }
        durations { $( $(#[$ddoc:meta])* $d:ident, )* }
    ) => {
        /// Per-run accounting, matching the Figure 8 breakdown categories.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Metrics {
            $( $(#[$cdoc])* pub $c: u64, )*
            $( $(#[$pdoc])* pub $p: u64, )*
            $( $(#[$ddoc])* pub $d: Duration, )*
        }

        impl Metrics {
            pub fn add(&mut self, other: &Metrics) {
                $( merge!($merge, self.$c, other.$c); )*
                $( self.$p += other.$p; )*
                $( self.$d += other.$d; )*
            }

            /// The counter-valued fields (everything deterministic under a
            /// fixed seed and fault plan — measured durations are excluded).
            /// The retry determinism suite compares these across repeated
            /// runs.
            pub fn counters(&self) -> [u64; METRIC_NAMES.len()] {
                [ $( self.$c, )* ]
            }
        }

        /// Stable names of the [`Metrics::counters`] array, index-aligned:
        /// the name at position `i` describes `counters()[i]`.
        pub const METRIC_NAMES: [&str; [ $( stringify!($c), )* ].len()] =
            [ $( stringify!($c), )* ];

        /// Position of each contract row in [`Metrics::counters`].
        #[allow(non_camel_case_types)]
        enum Slot { $( $c, )* }

        impl MetricsSnapshot {
            $(
                #[doc = concat!("The `", stringify!($c), "` counter.")]
                pub fn $c(&self) -> u64 {
                    self.counters[Slot::$c as usize]
                }
            )*
        }

        /// Metric accumulators shared across worker threads, one cell per
        /// table row; durations are nanosecond counters ([`as_ns`]), which
        /// [`MetricsSink::snapshot`] converts back. The scheduler rows
        /// (`queued` … `peak_queue_depth`) and `total` stay zero here: they
        /// are filled in by the workload engine's deterministic accounting
        /// and by the run itself, never by per-call code paths (whose wait
        /// events depend on thread interleaving and would break the chaos
        /// suite's counter replay contract).
        #[derive(Default)]
        pub(crate) struct MetricsSink {
            $( pub(crate) $c: AtomicU64, )*
            $( pub(crate) $p: AtomicU64, )*
            $( pub(crate) $d: AtomicU64, )*
        }

        impl MetricsSink {
            pub(crate) fn reset(&self) {
                for cell in [ $( &self.$c, )* $( &self.$p, )* $( &self.$d, )* ] {
                    cell.store(0, Ordering::Relaxed);
                }
            }

            pub(crate) fn snapshot(&self) -> Metrics {
                Metrics {
                    $( $c: self.$c.load(Ordering::Relaxed), )*
                    $( $p: self.$p.load(Ordering::Relaxed), )*
                    $( $d: Duration::from_nanos(self.$d.load(Ordering::Relaxed)), )*
                }
            }
        }
    };
}

metrics_table! {
    contract {
        /// Bytes of XRPC request/response messages.
        sum message_bytes,
        /// Bytes of whole documents fetched (data shipping).
        sum document_bytes,
        /// Network round trips (messages + document fetches).
        sum transfers,
        /// Remote function invocations carried (Bulk RPC counts every call).
        sum remote_calls,
        /// Scatter-gather rounds executed (calls to distinct peers fanned out
        /// concurrently count as one round).
        sum scatter_rounds,
        /// Call attempts replayed after a retryable transport failure.
        sum retries,
        /// Faults the [`FaultPlan`] injected into this run.
        sum faults_injected,
        /// Calls answered by graceful degradation (document fetched, body
        /// evaluated locally) after retries were exhausted.
        sum fallbacks,
        /// Hedged secondary attempts dispatched to an alternate replica.
        sum hedges,
        /// Hedged attempts whose response arrived before the primary's.
        sum hedge_wins,
        /// Circuit-breaker transitions into `Open` (threshold reached, or a
        /// half-open probe failed).
        sum breaker_trips,
        /// Half-open probe calls admitted through a cooled-down breaker.
        sum breaker_probes,
        /// Ladder rungs dispatched to a replica after the preferred peer
        /// failed or was rejected by its breaker.
        sum replica_failovers,
        /// Queries lowered to a fresh plan IR this run (coordinator-side
        /// cache misses and compile-on-the-fly runs; peer-side compiles are
        /// excluded to keep the counter deterministic under concurrency).
        sum plans_compiled,
        /// Coordinator plan-cache hits.
        sum plan_cache_hits,
        /// Coordinator plan-cache misses.
        sum plan_cache_misses,
        /// Semi-join edges the decomposer routed this run: producer calls whose
        /// results were reduced to deduplicated, sorted join keys before
        /// crossing the wire.
        sum semijoins,
        /// Join-key atoms shipped inside compact `<keyset>` payloads (wire
        /// level: retried attempts recount, like `message_bytes`).
        sum join_keys_shipped,
        /// Bytes the compact keyset encoding saved versus spelling the same
        /// atoms out as individual `<atom>` items.
        sum join_bytes_saved,
        /// Queries that had to wait in the scheduler's bounded run queue
        /// before a worker slot freed (admitted-then-queued; queries dispatched
        /// on arrival do not count).
        sum queued,
        /// Queries rejected by admission control with a typed
        /// [`XrpcError::Overloaded`] because the bounded run queue was full.
        sum shed,
        /// Queued queries cancelled with a typed timeout because their
        /// deadline could no longer be met, *before* they consumed a worker
        /// slot.
        sum deadline_cancelled,
        /// High-water mark of the scheduler's run-queue depth (all tenants
        /// combined). Accumulates by `max`, not by sum.
        max peak_queue_depth,
    }
    counters {
        /// Whole documents data-shipped to the coordinator. A plain field, not
        /// one of [`Metrics::counters`]: the replay-contract array stays as it
        /// is.
        doc_fetches,
    }
    durations {
        /// Time parsing/shredding received XML (messages and fetched docs).
        shred,
        /// Time serializing messages and documents.
        serialize,
        /// Time evaluating shipped bodies on remote peers.
        remote_exec,
        /// Simulated wire time, **serialized**: the sum over every transfer, as
        /// if messages crossed the wire one at a time. Exact regardless of
        /// execution mode — byte counts and per-transfer costs are identical
        /// between sequential and scatter-gather execution.
        network,
        /// Simulated wire time under **overlapping transfers**: within one
        /// scatter round the wall clock advances by the *slowest* peer's
        /// request→execute→response chain, not the sum over peers. Outside
        /// scatter rounds this accrues identically to `network`, so for a fully
        /// sequential run `network_overlapped == network`.
        network_overlapped,
        /// End-to-end wall-clock time of the run.
        total,
    }
}

/// Whole nanoseconds of `d`, saturating — how durations are kept in atomic
/// cells, on the health board and in spans.
pub(crate) fn as_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

impl MetricsSink {
    /// Accounts the `<keyset>` payloads of one wire leg, mirroring the
    /// adjacent `message_bytes` charge: every (re)transmission recounts.
    pub(crate) fn charge_keysets(&self, message: &str) {
        if message.contains("<keyset ") {
            let (keys, saved) = crate::message::keyset_stats(message);
            self.join_keys_shipped.fetch_add(keys, Ordering::Relaxed);
            self.join_bytes_saved.fetch_add(saved, Ordering::Relaxed);
        }
    }
}

impl Metrics {
    /// Total bytes moved over the simulated wire.
    pub fn transferred_bytes(&self) -> u64 {
        self.message_bytes + self.document_bytes
    }

    /// The Figure 8 "local exec" residual: everything not attributed to a
    /// specific category.
    pub fn local_exec(&self) -> Duration {
        self.total
            .saturating_sub(self.shred)
            .saturating_sub(self.serialize)
            .saturating_sub(self.remote_exec)
            .saturating_sub(self.network)
    }

    /// Simulated end-to-end time with transfers paid one after another:
    /// measured CPU plus the serialized network bill.
    pub fn wall_clock_serialized(&self) -> Duration {
        self.total + self.network
    }

    /// Simulated end-to-end time when concurrent peers overlap their
    /// transfers and remote work: measured CPU plus the overlapped bill.
    pub fn wall_clock_overlapped(&self) -> Duration {
        self.total + self.network_overlapped
    }

    /// The same counters as a named snapshot — the readable view over the
    /// replay-contract array.
    pub fn named(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_counters(self.counters())
    }
}

/// A named view over the deterministic counter array: every counter is
/// reachable by a stable string name (`get`, `iter`) or a typed accessor,
/// so call sites never index `counters()[N]` by magic number. The raw
/// array stays the replay-contract wire format — this type is a reading
/// aid, not a new format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: [u64; METRIC_NAMES.len()],
}

impl MetricsSnapshot {
    pub fn from_counters(counters: [u64; METRIC_NAMES.len()]) -> MetricsSnapshot {
        MetricsSnapshot { counters }
    }

    /// The underlying replay-contract array, unchanged.
    pub fn counters(&self) -> [u64; METRIC_NAMES.len()] {
        self.counters
    }

    /// Looks a counter up by its [`METRIC_NAMES`] name.
    pub fn get(&self, name: &str) -> Option<u64> {
        METRIC_NAMES.iter().position(|&n| n == name).map(|i| self.counters[i])
    }

    /// `(name, value)` pairs in contract order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        METRIC_NAMES.iter().copied().zip(self.counters.iter().copied())
    }

    /// The plan-compilation trio `[plans_compiled, plan_cache_hits,
    /// plan_cache_misses]`.
    pub fn plan_cache(&self) -> [u64; 3] {
        [self.plans_compiled(), self.plan_cache_hits(), self.plan_cache_misses()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_bytes() {
        let m = NetworkModel::lan();
        let t1 = m.transfer_time(1_000_000);
        let t2 = m.transfer_time(2_000_000);
        assert!(t2 > t1);
        // 1 MB at 125 MB/s = 8 ms + latency
        assert!((t1.as_secs_f64() - 0.0081).abs() < 0.0005, "{t1:?}");
    }

    /// The seeded streams behind replica selection, hedge jitter and fault
    /// injection, pinned to exact values: every replay contract built on
    /// them (traces, metrics, workload schedules) moves if one of these does.
    #[test]
    fn seeded_streams_are_pinned() {
        use crate::health::seeded_fraction;
        use xqd_core::replicas::mix_score;
        let inputs = [(0, "", 0), (7, "a", 3), (42, "peer1", 9), (u64::MAX, "replica-b", 1 << 40)];
        let scores: Vec<u64> = inputs.iter().map(|&(s, n, t)| mix_score(s, n, t)).collect();
        assert_eq!(
            scores,
            [
                17665956581633026203,
                17190147588532467282,
                13854165639774852697,
                13180694593978149995
            ]
        );
        let fractions: Vec<u64> =
            inputs.iter().map(|&(s, n, t)| seeded_fraction(s, n, t).to_bits()).collect();
        assert_eq!(
            fractions,
            [4606801174907401917, 4606568846297489534, 4604939948861572730, 4604611105577492309]
        );
        let plan = FaultPlan::uniform(7, 0.6);
        let decided: Vec<&str> =
            (0..16).map(|seq| plan.decide("p", seq).map_or("-", Fault::name)).collect();
        assert_eq!(
            decided.join(" "),
            "peer-down - remote-panic peer-down truncate-response truncate-response \
             corrupt-response peer-down truncate-response peer-down truncate-request - - \
             corrupt-response truncate-response peer-down"
        );
        let jitter: Vec<u64> = (0..4).map(|seq| plan.jitter("peer2", seq).to_bits()).collect();
        assert_eq!(
            jitter,
            [4605752570145219306, 4601071504195015786, 4580011355843127936, 4601096859239126360]
        );
        let mangled: Vec<usize> = (0..6).map(|seq| plan.mangle_position("p", seq, 1000)).collect();
        assert_eq!(mangled, [501, 845, 442, 203, 266, 921]);
        let hashes: Vec<u64> =
            ["", "p", "peer2", "replica-b"].iter().map(|p| FaultPlan::peer_hash(p)).collect();
        assert_eq!(
            hashes,
            [14695981039346656037, 12638205892253321583, 14775630349765712129, 16572760467382043156]
        );
    }

    #[test]
    fn wan_is_slower_than_lan() {
        let bytes = 100_000;
        assert!(NetworkModel::wan().transfer_time(bytes) > NetworkModel::lan().transfer_time(bytes));
    }

    #[test]
    fn local_exec_is_residual() {
        let m = Metrics {
            total: Duration::from_millis(100),
            shred: Duration::from_millis(10),
            serialize: Duration::from_millis(20),
            remote_exec: Duration::from_millis(30),
            network: Duration::from_millis(15),
            ..Default::default()
        };
        assert_eq!(m.local_exec(), Duration::from_millis(25));
        // never negative
        let m2 = Metrics { total: Duration::from_millis(1), shred: Duration::from_millis(10), ..Default::default() };
        assert_eq!(m2.local_exec(), Duration::ZERO);
    }

    #[test]
    fn metrics_accumulate() {
        let mut a = Metrics { message_bytes: 10, transfers: 1, ..Default::default() };
        let b = Metrics { message_bytes: 5, document_bytes: 7, transfers: 2, ..Default::default() };
        a.add(&b);
        assert_eq!(a.message_bytes, 15);
        assert_eq!(a.transferred_bytes(), 22);
        assert_eq!(a.transfers, 3);
    }

    #[test]
    fn overlapped_wall_clock_never_exceeds_serialized() {
        let m = Metrics {
            total: Duration::from_millis(10),
            network: Duration::from_millis(80),
            network_overlapped: Duration::from_millis(25),
            ..Default::default()
        };
        assert_eq!(m.wall_clock_serialized(), Duration::from_millis(90));
        assert_eq!(m.wall_clock_overlapped(), Duration::from_millis(35));
        assert!(m.wall_clock_overlapped() <= m.wall_clock_serialized());
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let plan = FaultPlan::uniform(42, 0.5);
        for seq in 0..200 {
            assert_eq!(plan.decide("p1", seq), plan.decide("p1", seq));
            assert_eq!(plan.jitter("p1", seq), plan.jitter("p1", seq));
            assert_eq!(
                plan.mangle_position("p1", seq, 1000),
                plan.mangle_position("p1", seq, 1000)
            );
        }
        // different peers and seeds see different schedules
        let other_seed = FaultPlan::uniform(43, 0.5);
        let diverges = (0..200).any(|seq| {
            plan.decide("p1", seq) != plan.decide("p2", seq)
                || plan.decide("p1", seq) != other_seed.decide("p1", seq)
        });
        assert!(diverges, "schedules must depend on peer and seed");
    }

    #[test]
    fn fault_rate_is_roughly_honored() {
        let plan = FaultPlan::uniform(7, 0.25);
        let fired = (0..10_000).filter(|&s| plan.decide("p", s).is_some()).count();
        assert!((1_800..3_200).contains(&fired), "fired={fired}");
        let none = FaultPlan::none(7);
        assert!((0..10_000).all(|s| none.decide("p", s).is_none()));
    }

    #[test]
    fn xrpc_error_code_roundtrip() {
        let cases = [
            XrpcError::UnknownPeer { peer: "a".into() },
            XrpcError::PeerBusy {
                peer: "a".into(),
                detail: "slot held".into(),
                retry_after: Duration::ZERO,
            },
            XrpcError::TransportCorrupt { peer: "a".into(), detail: "bad utf-8".into() },
            XrpcError::RemoteFault {
                peer: "a".into(),
                code: "err:FOAR0001".into(),
                message: "division by zero".into(),
            },
            XrpcError::Cancelled { peer: "a".into(), reason: "budget spent".into() },
        ];
        for e in cases {
            let back = XrpcError::from_code(&e.code(), e.peer(), match &e {
                XrpcError::PeerBusy { detail, .. }
                | XrpcError::TransportCorrupt { detail, .. } => detail,
                XrpcError::RemoteFault { message, .. } => message,
                XrpcError::Cancelled { reason, .. } => reason,
                _ => "",
            });
            assert_eq!(back, e);
        }
        // Timeout round-trips its variant (the deadline value is not wired)
        let t = XrpcError::Timeout { peer: "a".into(), deadline: Duration::from_secs(1) };
        assert!(matches!(
            XrpcError::from_code(&t.code(), "a", ""),
            XrpcError::Timeout { .. }
        ));
    }

    #[test]
    fn retryability_classes() {
        let busy = XrpcError::PeerBusy {
            peer: "a".into(),
            detail: String::new(),
            retry_after: Duration::ZERO,
        };
        let timeout = XrpcError::Timeout { peer: "a".into(), deadline: Duration::ZERO };
        let corrupt = XrpcError::TransportCorrupt { peer: "a".into(), detail: String::new() };
        let unknown = XrpcError::UnknownPeer { peer: "a".into() };
        let remote = XrpcError::RemoteFault {
            peer: "a".into(),
            code: "err:x".into(),
            message: String::new(),
        };
        let cancelled = XrpcError::Cancelled { peer: "a".into(), reason: String::new() };
        let breaker =
            XrpcError::BreakerOpen { peer: "a".into(), retry_after: Duration::from_millis(250) };
        let panic = XrpcError::RemoteFault {
            peer: "a".into(),
            code: "xrpc:panic".into(),
            message: String::new(),
        };
        for e in [&busy, &timeout, &corrupt] {
            assert!(e.retryable() && e.degradable(), "{e}");
        }
        for e in [&unknown, &remote] {
            assert!(!e.retryable() && !e.degradable(), "{e}");
        }
        assert!(!cancelled.retryable() && cancelled.degradable());
        // a tripped breaker must never re-admit the same peer, but may
        // route to a replica or degrade
        assert!(!breaker.retryable() && breaker.degradable() && breaker.failover_eligible());
        // failover eligibility: transport-class failures and infrastructure
        // panics can be served by another replica; evaluation faults and
        // unknown peers cannot
        for e in [&busy, &timeout, &corrupt, &cancelled] {
            assert!(e.failover_eligible(), "{e}");
        }
        assert!(panic.failover_eligible() && !panic.degradable());
        assert!(!remote.failover_eligible());
        assert!(!unknown.failover_eligible());
    }

    #[test]
    fn breaker_open_code_roundtrip() {
        let e = XrpcError::BreakerOpen { peer: "a".into(), retry_after: Duration::ZERO };
        assert_eq!(e.code(), "xrpc:breaker-open");
        assert!(matches!(
            XrpcError::from_code(&e.code(), "a", ""),
            XrpcError::BreakerOpen { .. }
        ));
    }

    #[test]
    fn targeted_plans_only_fault_their_peer() {
        let plan = FaultPlan::uniform(11, 0.9).with_target("primary");
        assert!(plan.targeting("primary"));
        assert!(!plan.targeting("replica"));
        assert!((0..500).all(|s| plan.decide("replica", s).is_none()));
        assert!((0..500).any(|s| plan.decide("primary", s).is_some()));
        // targeted decisions match the untargeted plan's for the same peer
        let untargeted = FaultPlan::uniform(11, 0.9);
        assert!((0..500).all(|s| plan.decide("primary", s) == untargeted.decide("primary", s)));
    }

    #[test]
    fn eval_error_conversion_carries_code() {
        let e: EvalError =
            XrpcError::Timeout { peer: "p9".into(), deadline: Duration::from_millis(5) }.into();
        assert!(e.has_code("xrpc:timeout"));
        assert!(e.message.contains("p9"), "{e}");
        let back = XrpcError::from_eval("p9", &e);
        assert!(matches!(back, XrpcError::Timeout { .. }));
        // untagged errors become remote faults
        let plain = EvalError::new("division by zero");
        let rf = XrpcError::from_eval("p1", &plain);
        assert!(matches!(&rf, XrpcError::RemoteFault { message, .. } if message.contains("division")));
    }

    #[test]
    fn metrics_counters_include_robustness_fields() {
        let mut a = Metrics { retries: 1, faults_injected: 2, fallbacks: 3, ..Default::default() };
        let b = Metrics { retries: 10, faults_injected: 20, fallbacks: 30, ..Default::default() };
        a.add(&b);
        assert_eq!(a.retries, 11);
        assert_eq!(a.faults_injected, 22);
        assert_eq!(a.fallbacks, 33);
        let s = a.named();
        assert_eq!([s.retries(), s.faults_injected(), s.fallbacks()], [11, 22, 33]);
    }

    #[test]
    fn metrics_counters_include_availability_fields() {
        let mut a = Metrics {
            hedges: 1,
            hedge_wins: 2,
            breaker_trips: 3,
            breaker_probes: 4,
            replica_failovers: 5,
            ..Default::default()
        };
        let b = Metrics {
            hedges: 10,
            hedge_wins: 20,
            breaker_trips: 30,
            breaker_probes: 40,
            replica_failovers: 50,
            ..Default::default()
        };
        a.add(&b);
        let s = a.named();
        assert_eq!(
            [s.hedges(), s.hedge_wins(), s.breaker_trips(), s.breaker_probes(), s.replica_failovers()],
            [11, 22, 33, 44, 55]
        );
    }

    #[test]
    fn metrics_counters_include_plan_fields() {
        let mut a = Metrics {
            plans_compiled: 1,
            plan_cache_hits: 2,
            plan_cache_misses: 3,
            ..Default::default()
        };
        let b = Metrics {
            plans_compiled: 10,
            plan_cache_hits: 20,
            plan_cache_misses: 30,
            ..Default::default()
        };
        a.add(&b);
        let s = a.named();
        assert_eq!([s.plans_compiled(), s.plan_cache_hits(), s.plan_cache_misses()], [11, 22, 33]);
    }

    #[test]
    fn metrics_counters_include_join_fields() {
        let mut a = Metrics {
            semijoins: 1,
            join_keys_shipped: 2,
            join_bytes_saved: 3,
            ..Default::default()
        };
        let b = Metrics {
            semijoins: 10,
            join_keys_shipped: 20,
            join_bytes_saved: 30,
            ..Default::default()
        };
        a.add(&b);
        let s = a.named();
        assert_eq!([s.semijoins(), s.join_keys_shipped(), s.join_bytes_saved()], [11, 22, 33]);
    }

    #[test]
    fn metrics_counters_include_scheduler_fields() {
        let mut a = Metrics {
            queued: 1,
            shed: 2,
            deadline_cancelled: 3,
            peak_queue_depth: 9,
            ..Default::default()
        };
        let b = Metrics {
            queued: 10,
            shed: 20,
            deadline_cancelled: 30,
            peak_queue_depth: 4,
            ..Default::default()
        };
        a.add(&b);
        // additive counters sum; the queue-depth high-water mark takes max
        let s = a.named();
        assert_eq!(
            [s.queued(), s.shed(), s.deadline_cancelled(), s.peak_queue_depth()],
            [11, 22, 33, 9]
        );
        let c = Metrics { peak_queue_depth: 40, ..Default::default() };
        a.add(&c);
        assert_eq!(a.peak_queue_depth, 40);
    }

    #[test]
    fn metric_names_pin_the_replay_contract() {
        // The name table is index-aligned with counters(): this test pins
        // both the order and the accessor wiring, so the replay contract
        // cannot silently shift when a counter is added or moved.
        assert_eq!(
            METRIC_NAMES,
            [
                "message_bytes",
                "document_bytes",
                "transfers",
                "remote_calls",
                "scatter_rounds",
                "retries",
                "faults_injected",
                "fallbacks",
                "hedges",
                "hedge_wins",
                "breaker_trips",
                "breaker_probes",
                "replica_failovers",
                "plans_compiled",
                "plan_cache_hits",
                "plan_cache_misses",
                "semijoins",
                "join_keys_shipped",
                "join_bytes_saved",
                "queued",
                "shed",
                "deadline_cancelled",
                "peak_queue_depth",
            ]
        );
        // distinct sentinel per slot: get(name) must hit exactly its index
        let mut counters = [0u64; 23];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = 1000 + i as u64;
        }
        let s = MetricsSnapshot::from_counters(counters);
        assert_eq!(s.counters(), counters);
        for (i, name) in METRIC_NAMES.iter().enumerate() {
            assert_eq!(s.get(name), Some(counters[i]), "{name} drifted from index {i}");
        }
        assert_eq!(s.get("no_such_metric"), None);
        // typed accessors agree with the name table
        assert_eq!(s.message_bytes(), s.get("message_bytes").unwrap());
        assert_eq!(s.scatter_rounds(), s.get("scatter_rounds").unwrap());
        assert_eq!(s.peak_queue_depth(), s.get("peak_queue_depth").unwrap());
        let collected: Vec<(&str, u64)> = s.iter().collect();
        assert_eq!(collected.len(), 23);
        assert_eq!(collected[0], ("message_bytes", 1000));
        assert_eq!(collected[22], ("peak_queue_depth", 1022));
    }

    #[test]
    fn overloaded_classification_and_roundtrip() {
        let e = XrpcError::Overloaded { retry_after_ms: 125 };
        assert_eq!(e.code(), "xrpc:overloaded");
        assert_eq!(e.peer(), "");
        assert_eq!(e.retry_after(), Some(Duration::from_millis(125)));
        // a shed must not trigger retries, failover, or degradation — the
        // whole point is that the caller backs off and resubmits later
        assert!(!e.retryable() && !e.degradable() && !e.failover_eligible());
        assert!(matches!(
            XrpcError::from_code(&e.code(), "", ""),
            XrpcError::Overloaded { .. }
        ));
        let ev: EvalError = e.into();
        assert!(ev.has_code("xrpc:overloaded"));
        assert!(ev.message.contains("retry after 125ms"), "{ev}");
    }

    #[test]
    fn retry_after_hints_are_exposed() {
        let busy = XrpcError::PeerBusy {
            peer: "a".into(),
            detail: "queue full".into(),
            retry_after: Duration::from_millis(40),
        };
        assert_eq!(busy.retry_after(), Some(Duration::from_millis(40)));
        let timeout = XrpcError::Timeout { peer: "a".into(), deadline: Duration::ZERO };
        assert_eq!(timeout.retry_after(), None);
    }
}
