//! The `xqd serve` peer daemon: a thread-per-connection TCP server
//! speaking length-prefixed XRPC envelopes.
//!
//! One daemon hosts one peer's document store (plus any replica copies it
//! serves) behind the same decode → evaluate → encode path the simulated
//! federation runs — the server's execution engine *is* a single-peer
//! [`Federation`] seen through its [`Transport`](crate::transport::Transport)
//! view, so wire semantics
//! cannot drift between the two worlds.
//!
//! Robustness discipline, per connection and per request:
//!
//! * **deadlines everywhere** — an idle timeout between frames (quiet
//!   close), a read deadline mid-frame and a write deadline on replies
//!   (typed fault, then close: the stream is desynced), and a per-request
//!   deadline on the wait for the peer slot (typed `xrpc:timeout` fault).
//!   There is no evaluation deadline: once a request holds the slot, its
//!   evaluation runs to completion (ROADMAP item 3);
//! * **bounded in-flight work** — [`ServerConfig::max_inflight`] is the one
//!   bound on the daemon's queue: admitted requests wait for the peer slot
//!   within their own deadlines, requests beyond it are shed immediately
//!   with a typed `xrpc:overloaded` fault carrying an honest
//!   `retry-after-ms` derived from the observed service-time EWMA (the
//!   admission-control discipline, now over a real wire), and connections
//!   beyond [`ServerConfig::max_connections`] are refused the same way;
//! * **malformed input never kills a connection it can still use** — a
//!   well-framed but undecodable payload is answered with a typed fault
//!   envelope and the connection stays open; only frame-level desync
//!   (truncated prefix, oversized length, mid-frame EOF) closes it, and
//!   even then a typed fault is written first when the stream allows;
//! * **graceful drain** — [`PeerServer::drain`] stops accepting (new
//!   connections get a typed fault), lets in-flight requests finish or
//!   cancels them with `xrpc:timeout` within the drain deadline, then
//!   force-closes every connection and joins its threads, bounded — the
//!   daemon can always exit.
//!
//! The accept loop blocks in `accept()`, so a new connection is served the
//! moment it arrives. Drain wakes it with a connection of its own to the
//! listener's port (loopback for an unspecified bind address); the loop
//! checks the stop flag before anything else on every connection it takes.
//! Only a failing `accept` (e.g. `EMFILE`) sleeps, briefly, so the loop
//! cannot spin on an error.

use std::io::{BufRead as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xqd_xquery::value::EvalError;

use crate::exec::{ExecOptions, Federation, Peer, SimTransport};
use crate::message::{encode_fault, Reply};
use crate::net::{NetworkModel, XrpcError};
use crate::transport::{
    frame_reader, read_payload, read_prefix, write_frame, write_frame_parts, FrameError,
    MAX_FRAME_LEN,
};

/// Deadlines and bounds of one peer daemon.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections accepted; arrivals beyond it are refused
    /// with a typed `xrpc:overloaded` fault.
    pub max_connections: usize,
    /// Concurrent requests admitted across all connections, and with it the
    /// one bound on the daemon's queue: admitted requests wait their turn
    /// for the peer slot (each within its own deadline), arrivals beyond
    /// the bound are shed immediately with `xrpc:overloaded` plus an honest
    /// `retry-after-ms`.
    pub max_inflight: usize,
    /// Mid-frame read deadline: a peer that started a frame must finish
    /// sending it within this window.
    pub read_timeout: Duration,
    /// Reply write deadline.
    pub write_timeout: Duration,
    /// Between-frames deadline: a connection with no traffic for this long
    /// is quietly closed.
    pub idle_timeout: Duration,
    /// How long a request may wait for the peer slot; on expiry the client
    /// gets a typed `xrpc:timeout` fault. It bounds only the wait: an
    /// evaluation that has started runs to completion (ROADMAP item 3).
    pub request_deadline: Duration,
    /// How long [`PeerServer::drain`] waits for in-flight requests before
    /// cancelling them.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_inflight: 32,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            request_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What a drain accomplished.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Requests answered over the server's lifetime.
    pub served: u64,
    /// Requests shed at admission (overload faults).
    pub shed: u64,
    /// Requests still evaluating when the drain deadline expired (their
    /// connections were force-closed).
    pub cancelled_inflight: usize,
    /// Wall clock the drain took.
    pub elapsed: Duration,
    /// True when every request and connection wound down inside the
    /// deadline and the accept loop stopped — the clean-exit criterion the
    /// crash harness asserts.
    pub clean: bool,
}

/// Granularity at which a slot-waiting request re-checks the drain flag
/// and its own deadline; bounds how stale a drain can find an in-flight
/// request's budget.
const SLOT_POLL: Duration = Duration::from_millis(25);

/// How long the accept loop backs off after `accept` itself fails (e.g.
/// out of descriptors) — the one sleep on the accept path.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on drain's wake connection to its own listener.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Default `retry-after-ms` when no service time has been observed yet.
const COLD_RETRY_HINT_MS: u64 = 25;

struct Shared {
    name: String,
    transport: SimTransport,
    config: ServerConfig,
    draining: AtomicBool,
    stopped: AtomicBool,
    drain_until: Mutex<Option<Instant>>,
    inflight: Mutex<usize>,
    inflight_done: Condvar,
    conn_count: Mutex<usize>,
    conn_done: Condvar,
    /// Clones of every live connection keyed by a connection id, for
    /// force-shutdown at drain; a connection removes its clone on exit so
    /// descriptors do not accumulate.
    conns: Mutex<std::collections::HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    /// EWMA of observed request service time, nanoseconds — the honest
    /// basis for `retry-after-ms` hints.
    service_ewma_ns: AtomicU64,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn drain_remaining(&self) -> Option<Duration> {
        self.drain_until
            .lock()
            .unwrap()
            .map(|until| until.saturating_duration_since(Instant::now()))
    }

    fn retry_hint_ms(&self) -> u64 {
        let ns = self.service_ewma_ns.load(Ordering::Relaxed);
        if ns == 0 {
            COLD_RETRY_HINT_MS
        } else {
            (ns / 1_000_000).max(1)
        }
    }

    fn note_service(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let old = self.service_ewma_ns.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { old / 8 * 7 + sample / 8 };
        self.service_ewma_ns.store(new, Ordering::Relaxed);
    }

    /// Evaluates one admitted request with drain- and deadline-awareness:
    /// the exchange budget is chunked so a request stuck waiting for the
    /// peer slot notices a drain (or its own deadline) within
    /// [`SLOT_POLL`], and expiry produces a typed `xrpc:timeout` fault.
    fn execute(&self, request: &str) -> Reply {
        let started = Instant::now();
        loop {
            let deadline_left = self.config.request_deadline.saturating_sub(started.elapsed());
            let (budget, deadline) = match self.drain_remaining() {
                Some(d) => (d.min(deadline_left), self.config.drain_deadline),
                None => (deadline_left, self.config.request_deadline),
            };
            if budget.is_zero() {
                let timeout = XrpcError::Timeout { peer: self.name.clone(), deadline };
                return Reply::Envelope(encode_fault(&timeout));
            }
            match self.transport.serve(&self.name, request, budget.min(SLOT_POLL)) {
                Ok(reply) => {
                    self.note_service(started.elapsed());
                    return reply;
                }
                // the slot stayed held by another request for the whole
                // chunk: re-check drain and deadline, then wait again
                Err(XrpcError::PeerBusy { .. }) => continue,
                Err(e) => return Reply::Envelope(encode_fault(&e)),
            }
        }
    }

    /// The bounded in-flight admission gate. `false` = shed (the caller
    /// answers with an overload fault and does not hold the gate).
    fn admit(&self) -> bool {
        let mut n = self.inflight.lock().unwrap();
        if *n >= self.config.max_inflight {
            return false;
        }
        *n += 1;
        true
    }

    /// Releases the gate taken by [`Shared::admit`], waking a drain
    /// waiting for idle.
    fn release_inflight(&self) {
        let mut n = self.inflight.lock().unwrap();
        *n -= 1;
        drop(n);
        self.inflight_done.notify_all();
    }
}

/// Writes a fault envelope and closes the stream — the refusal path for
/// drain and connection-overload. Best-effort: the peer may already be
/// gone.
fn refuse(mut stream: TcpStream, config: &ServerConfig, fault: &XrpcError) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = write_frame(&mut stream, &encode_fault(fault));
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// One connection's frame loop. Returns when the connection ends, for any
/// reason; cleanup (counters, registry) happens in the caller wrapper. The
/// connection reads through one buffer for its whole life.
fn serve_conn(shared: &Shared, stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut writer = stream;
    // every frame below sets the deadline its reads run under
    let mut reader = frame_reader(stream, Instant::now());
    loop {
        // between frames: the idle deadline, until the next frame's first
        // byte arrives (it may already be buffered)
        reader.get_mut().within(shared.config.idle_timeout);
        match reader.fill_buf() {
            Ok([]) => return, // clean close by the client
            Ok(_) => {}
            Err(_) => return, // idle: quiet close; or a reset
        }
        // mid-frame: the sender must finish within the read deadline —
        // the whole frame, not each read of it
        reader.get_mut().by(Instant::now() + shared.config.read_timeout);
        let Ok(Some(declared)) = read_prefix(&mut reader) else {
            return; // the length prefix itself was cut or stalled
        };
        let payload = match read_payload(&mut reader, declared, MAX_FRAME_LEN) {
            Ok(p) => p,
            Err(e) => {
                // frame-level desync: answer with a typed fault (the write
                // side is still ordered), then close — resyncing a byte
                // stream after a half-frame is guesswork
                let fault = match e {
                    FrameError::Io { timed_out: true, .. } => XrpcError::Timeout {
                        peer: shared.name.clone(),
                        deadline: shared.config.read_timeout,
                    },
                    other => other.into_xrpc(&shared.name, shared.config.read_timeout),
                };
                let _ = write_frame(&mut writer, &encode_fault(&fault));
                return;
            }
        };
        // well-framed payload: even a malformed envelope gets a typed
        // fault reply (from the evaluator) and the connection lives on.
        // The in-flight gate is held until the reply is *written*, so a
        // drain waiting for idle cannot force-close the socket between a
        // cancellation and its fault reply reaching the wire.
        let admitted = shared.admit();
        let reply = if admitted {
            shared.execute(&payload)
        } else {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            let shed = XrpcError::Overloaded { retry_after_ms: shared.retry_hint_ms() };
            Reply::Envelope(encode_fault(&shed))
        };
        let wrote = write_frame_parts(&mut writer, reply.parts()).is_ok();
        if admitted {
            shared.served.fetch_add(1, Ordering::Relaxed);
            shared.release_inflight();
        }
        if !wrote {
            return; // client gone or write deadline hit
        }
        if shared.draining() {
            return; // finish the in-flight frame, then close
        }
    }
}

/// A live peer daemon: a single-peer [`Federation`] behind a TCP listener.
pub struct PeerServer {
    fed: Federation,
    name: String,
    addr: SocketAddr,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl PeerServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) for peer
    /// `name`. The daemon is not serving until [`PeerServer::start`].
    pub fn bind(name: &str, addr: &str, config: ServerConfig) -> std::io::Result<PeerServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut fed = Federation::new(NetworkModel::lan());
        fed.add_peer(name);
        let transport = fed.transport();
        Ok(PeerServer {
            fed,
            name: name.to_string(),
            addr,
            listener: Some(listener),
            shared: Arc::new(Shared {
                name: name.to_string(),
                transport,
                config,
                draining: AtomicBool::new(false),
                stopped: AtomicBool::new(false),
                drain_until: Mutex::new(None),
                inflight: Mutex::new(0),
                inflight_done: Condvar::new(),
                conn_count: Mutex::new(0),
                conn_done: Condvar::new(),
                conns: Mutex::new(std::collections::HashMap::new()),
                next_conn_id: AtomicU64::new(0),
                served: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                service_ewma_ns: AtomicU64::new(0),
            }),
            accept: None,
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Loads `xml` as this peer's own document `doc_name` (registered
    /// under the canonical `xrpc://<name>/<doc_name>` URI, as everywhere).
    pub fn load_document(&mut self, doc_name: &str, xml: &str) -> Result<(), EvalError> {
        let name = self.name.clone();
        self.fed.load_document(&name, doc_name, xml)
    }

    /// Loads `xml` as a replica copy this daemon serves of another
    /// primary's document (`canonical_uri` = `xrpc://<primary>/<doc>`).
    pub fn load_replica(&mut self, canonical_uri: &str, xml: &str) -> Result<(), EvalError> {
        let name = self.name.clone();
        self.fed.load_replica_copy(&name, canonical_uri, xml)
    }

    /// Execution options for the peer's evaluator (indexes, plan cache,
    /// semi-joins).
    pub fn set_exec_options(&mut self, options: ExecOptions) {
        self.fed.set_exec_options(options);
    }

    /// Starts the accept loop. Idempotent: a second call is a no-op.
    pub fn start(&mut self) {
        if self.accept.is_some() {
            return;
        }
        let Some(listener) = self.listener.take() else { return };
        let shared = Arc::clone(&self.shared);
        self.accept = Some(std::thread::spawn(move || accept_loop(&listener, &shared)));
    }

    /// Requests answered so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Requests shed at admission so far.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::Relaxed)
    }

    /// Requests currently evaluating. Tests use this to wait until staged
    /// work is genuinely in flight instead of sleeping.
    #[doc(hidden)]
    pub fn inflight(&self) -> usize {
        *self.shared.inflight.lock().unwrap()
    }

    /// Takes the peer's evaluation slot out of service (every request then
    /// waits as if a long evaluation held it). Drain/overload tests use
    /// this to stage in-flight work deterministically.
    #[doc(hidden)]
    pub fn pause_peer(&self) -> Option<Peer> {
        self.fed.checkout_peer(&self.name)
    }

    /// Returns the slot taken by [`PeerServer::pause_peer`].
    #[doc(hidden)]
    pub fn resume_peer(&self, peer: Peer) {
        self.fed.checkin_peer(peer);
    }

    /// Graceful shutdown: stop accepting (refusing new connections with a
    /// typed fault meanwhile), wait for in-flight requests to finish or
    /// cancel at the drain deadline (`xrpc:timeout` faults), force-close
    /// every connection, wake the accept loop with a connection to its own
    /// port and join it. Bounded: always returns, with
    /// [`DrainReport::clean`] telling whether the wind-down beat its
    /// deadlines.
    pub fn drain(&mut self) -> DrainReport {
        let t0 = Instant::now();
        self.shared.draining.store(true, Ordering::SeqCst);
        *self.shared.drain_until.lock().unwrap() =
            Some(Instant::now() + self.shared.config.drain_deadline);
        // in-flight requests self-cancel within SLOT_POLL of the drain
        // deadline; allow that plus slack before declaring them stuck
        let grace = self.shared.config.drain_deadline + SLOT_POLL * 4;
        let hard = Instant::now() + grace;
        let mut inflight = self.shared.inflight.lock().unwrap();
        while *inflight > 0 {
            let left = hard.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self.shared.inflight_done.wait_timeout(inflight, left).unwrap();
            inflight = guard;
        }
        let cancelled_inflight = *inflight;
        drop(inflight);
        // force-close every connection: idle readers wake with an error,
        // stuck evaluations lose their reply path (client sees a typed
        // transport error)
        for (_, c) in self.shared.conns.lock().unwrap().drain() {
            let _ = c.shutdown(Shutdown::Both);
        }
        // stop the accept loop: it is blocked in `accept`, so hand it a
        // connection to return with. If that cannot be made, leave the
        // thread behind rather than wait on it — never a hang.
        self.shared.stopped.store(true, Ordering::SeqCst);
        let woken = match self.accept.take() {
            Some(h) => {
                let woken =
                    TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_CONNECT_TIMEOUT).is_ok();
                if woken {
                    let _ = h.join();
                }
                woken
            }
            None => true,
        };
        // bounded wait for connection threads to observe the shutdown
        let conn_deadline = Instant::now() + Duration::from_secs(2);
        let mut conns = self.shared.conn_count.lock().unwrap();
        while *conns > 0 {
            let left = conn_deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _) = self.shared.conn_done.wait_timeout(conns, left).unwrap();
            conns = guard;
        }
        let lingering = *conns;
        drop(conns);
        DrainReport {
            served: self.served(),
            shed: self.shed(),
            cancelled_inflight,
            elapsed: t0.elapsed(),
            clean: woken && cancelled_inflight == 0 && lingering == 0,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            // drain's wake connection, or a client arriving after it: done
            Ok(_) if shared.stopped.load(Ordering::SeqCst) => return,
            Ok((stream, _)) => {
                if shared.draining() {
                    refuse(
                        stream,
                        &shared.config,
                        &XrpcError::Cancelled {
                            peer: shared.name.clone(),
                            reason: "server draining: not accepting new connections".to_string(),
                        },
                    );
                    continue;
                }
                let at_capacity = {
                    let conns = shared.conn_count.lock().unwrap();
                    *conns >= shared.config.max_connections
                };
                if at_capacity {
                    refuse(
                        stream,
                        &shared.config,
                        &XrpcError::Overloaded { retry_after_ms: shared.retry_hint_ms() },
                    );
                    continue;
                }
                spawn_conn(shared, stream);
            }
            Err(_) if shared.stopped.load(Ordering::SeqCst) => return,
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// Where drain connects to wake its own blocked accept loop: the bound
/// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) {
    *shared.conn_count.lock().unwrap() += 1;
    let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        shared.conns.lock().unwrap().insert(id, clone);
    }
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        serve_conn(&shared, &stream);
        let _ = stream.shutdown(Shutdown::Both);
        shared.conns.lock().unwrap().remove(&id);
        let mut conns = shared.conn_count.lock().unwrap();
        *conns -= 1;
        drop(conns);
        shared.conn_done.notify_all();
    });
}
