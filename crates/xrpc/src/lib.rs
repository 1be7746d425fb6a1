//! # xqd-xrpc — XRPC messages, simulated peers and the distributed executor
//!
//! Implements the network-facing half of *"Efficient Distribution of
//! Full-Fledged XQuery"* (ICDE 2009):
//!
//! * [`message`] — the pass-by-value / pass-by-fragment / pass-by-projection
//!   request and response codecs (Figures 1, 4, 5), serialized to real XML
//!   bytes and shredded back;
//! * [`wire`] — `fragid`/`nodeid` addressing, fragment deduplication and
//!   relative projection-path evaluation;
//! * [`net`] — the link cost model replacing the paper's 1 Gb/s testbed,
//!   the Figure-8 metric categories, the typed [`XrpcError`] failure
//!   taxonomy and the deterministic [`FaultPlan`] fault schedule;
//! * [`health`] — the peer health scoreboard: EWMA latency, circuit
//!   breakers on the clock its owner advances, and seeded selection
//!   helpers behind the replica failover ladder;
//! * `frontend` — the query front end: text or module → cache key → LRU
//!   plan cache → parse · decompose · replica resolution · lowering to
//!   plan IR ([`PreparedQuery`]);
//! * `ladder` — how a logical call survives failure, once: the one retry
//!   loop ([`RetryPolicy`]: backoff, server hints, deadline) and the one
//!   failover walk over admitted replicas (busy-switch wait, hedging), both
//!   driven through the `Attempt` seam — one attempt at one host, timed on
//!   its own clock — that the coordinator's two carriers fill in;
//! * [`exec`] — the one coordinator, [`Federation`], over either carrier:
//!   simulated peers in this process ([`Federation::new`]) or live daemons
//!   behind a [`Transport`] ([`Federation::over`]); the `RemoteHandler` /
//!   `DocResolver` implementations (including Bulk RPC and data-shipping
//!   document fetches), the three attempts the ladder drives (two
//!   fault-injecting simulated ones, one on the wire), graceful
//!   degradation, and canonical result serialization;
//! * `scatter` — the carrier-independent core of a scatter round (group
//!   slots by destination, one scoped worker per destination, typed
//!   `xrpc:panic` rows, slot-order gather);
//! * [`sched`] — the coordinator-side concurrency layer: admission
//!   control with bounded per-tenant run queues, weighted fair queuing,
//!   deadline propagation, and the deterministic multi-tenant
//!   [`WorkloadEngine`] that drives saturation benchmarks on the
//!   simulated clock;
//! * [`trace`] — distributed tracing on the run's clock (simulated:
//!   deterministic; wire: measured): per-query span trees (front end, failover rungs, RPC
//!   attempts, scatter rounds, peer evaluations, queue residency),
//!   exact-percentile latency histograms, and JSON / Chrome
//!   `trace_event` export that replays byte-identically from a seed;
//! * [`transport`] — the [`Transport`] seam over the envelope protocol
//!   (one exchange = one reply envelope), the length-prefixed socket
//!   framing with typed corruption errors and whole-read deadlines;
//! * [`tcp`] — the real-socket side: [`TcpTransport`] (pooled
//!   connections, per-attempt deadlines), plus [`SocketFederation`], a
//!   compatibility face over [`Federation::over`];
//! * [`server`] — the `xqd serve` daemon: [`PeerServer`] listening for
//!   length-prefixed envelopes with read/write/idle deadlines, bounded
//!   in-flight admission with honest `retry-after-ms`, typed faults for
//!   malformed frames, and graceful drain.
//!
//! ```no_run
//! use xqd_xrpc::{Federation, NetworkModel};
//! use xqd_core::Strategy;
//!
//! let mut fed = Federation::new(NetworkModel::lan());
//! fed.load_document("A", "d.xml", "<people><p/></people>").unwrap();
//! let out = fed.run("count(doc(\"xrpc://A/d.xml\")//p)", Strategy::ByFragment).unwrap();
//! assert_eq!(out.result, vec!["atom:1"]);
//! ```

pub mod exec;
mod frontend;
pub mod health;
mod ladder;
pub mod message;
pub mod net;
mod scatter;
pub mod sched;
pub mod server;
pub mod tcp;
pub mod trace;
pub mod transport;
pub mod wire;

pub use exec::{
    canonical_item, ExecOptions, Federation, Peer, RetryPolicy, RunOutcome, SimTransport,
};
pub use frontend::PreparedQuery;
pub use health::{Admission, BreakerPolicy, BreakerState, Scoreboard};
pub use message::{
    decode_doc_request, decode_doc_response, decode_fault, decode_request, decode_response,
    encode_doc_request, encode_doc_response, encode_fault, encode_request, encode_response,
    WireSemantics,
};
pub use net::{Fault, FaultPlan, Metrics, MetricsSnapshot, NetworkModel, XrpcError, METRIC_NAMES};
pub use sched::{
    OutcomeKind, QueryOutcome, TenantReport, TenantSpec, WorkloadConfig, WorkloadEngine,
    WorkloadReport,
};
pub use server::{DrainReport, PeerServer, ServerConfig};
pub use tcp::{SocketFederation, TcpTransport};
pub use trace::{Histogram, Span, SpanBuilder, Trace, Tracer, ROOT_SPAN};
pub use transport::{read_frame, write_frame, FrameError, Transport, MAX_FRAME_LEN};
