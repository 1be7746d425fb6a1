//! Real sockets under the [`Transport`] seam.
//!
//! [`TcpTransport`] dials peer daemons over localhost (or any reachable
//! address) and speaks the length-prefixed envelope framing of
//! [`crate::transport`]. The coordinator that drives a **multi-process**
//! federation through it is [`Federation::over`] — the one coordinator, on
//! its wire carrier (see [`crate::exec`]) — so the same query returns
//! bit-identical canonical results whichever side of the seam executes it.
//!
//! What the transport itself guarantees: an exchange budget covers the
//! whole reply, not each read of it; connections are pooled per peer and
//! rebuilt transparently — a stale pooled connection (server restarted,
//! drained, killed, or closed at the daemon's idle timeout) costs one
//! reconnect-and-resend whether the send or the read discovers it, and a
//! refused connection surfaces as a retryable [`XrpcError::PeerBusy`]
//! feeding the breaker like any other failure.
//!
//! [`SocketFederation`] is a compatibility face over [`Federation::over`]
//! for callers written against the former socket coordinator (the
//! `wirebench` driver); it holds no logic and goes once they are
//! re-pointed.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xqd_core::Strategy;
use xqd_xquery::eval::StaticContext;
use xqd_xquery::value::EvalResult;

use crate::exec::{ExecOptions, Federation};
use crate::health::BreakerState;
use crate::ladder::RetryPolicy;
use crate::net::XrpcError;
use crate::transport::{
    read_payload, read_prefix, write_frame, DeadlineReader, FrameError, Transport, MAX_FRAME_LEN,
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

/// What [`SocketFederation::run`] returns: the canonical result items and
/// four counters of the run's [`crate::exec::RunOutcome`].
#[derive(Debug)]
pub struct SocketRunOutcome {
    pub result: Vec<String>,
    pub remote_calls: u64,
    /// Whole documents data-shipped from a serving host.
    pub doc_fetches: u64,
    pub failovers: u64,
    pub retries: u64,
}

/// [`Federation::over`] under its former name and method set — every method
/// delegates.
pub struct SocketFederation(Federation);

impl SocketFederation {
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        SocketFederation(Federation::over(transport))
    }

    /// A federation dialing daemons over TCP; the returned transport
    /// handle registers peer addresses.
    pub fn over_tcp() -> (Self, Arc<TcpTransport>) {
        let transport = Arc::new(TcpTransport::new());
        (SocketFederation::new(Arc::<TcpTransport>::clone(&transport)), transport)
    }

    pub fn register_replica(&mut self, canonical_uri: &str, host: &str) {
        self.0.register_replica(canonical_uri, host);
    }

    pub fn set_peer_address(&mut self, peer: &str, addr: &str) {
        self.0.set_peer_address(peer, addr);
    }

    pub fn set_exec_options(&mut self, options: ExecOptions) {
        self.0.set_exec_options(options);
    }

    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.0.set_retry_policy(retry);
    }

    pub fn set_static_context(&mut self, ctx: StaticContext) {
        self.0.set_static_context(ctx);
    }

    pub fn plan_cache_len(&self) -> usize {
        self.0.plan_cache_len()
    }

    pub fn breaker_state(&self, peer: &str) -> BreakerState {
        self.0.breaker_state(peer)
    }

    pub fn reset_health(&mut self) {
        self.0.reset_health();
    }

    pub fn run(&mut self, query: &str, strategy: Strategy) -> EvalResult<SocketRunOutcome> {
        let out = self.0.run(query, strategy)?;
        Ok(SocketRunOutcome {
            result: out.result,
            remote_calls: out.metrics.remote_calls,
            doc_fetches: out.metrics.doc_fetches,
            failovers: out.metrics.replica_failovers,
            retries: out.metrics.retries,
        })
    }
}
