//! Peer health scoreboard: EWMA latency, consecutive-failure counts and a
//! per-peer **circuit breaker**, all driven by the clock the federation
//! hands it — the *simulated* clock in a simulated federation, so that
//! trips and probes replay bit-identically from a seed under any thread
//! interleaving.
//!
//! The scoreboard never reads a clock itself. Its notion of "now" advances
//! only when its owner says so — on a simulated federation when the
//! executor charges simulated network chains (the same quantities billed
//! to [`crate::Metrics::network_overlapped`]), on a federation over real
//! sockets by the wall-clock time its owner measured — and its
//! state mutates only at deterministic points: immediately after a call on
//! the sequential path, and in slot order at the gather barrier of a
//! scatter round. Worker threads only ever consult an immutable *snapshot*
//! taken at round start, so admission decisions are a pure function of
//! `(snapshot, peer)`.
//!
//! Breaker state machine (per peer):
//!
//! ```text
//!            >= threshold consecutive failures
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                           │ simulated clock
//!     │ probe succeeds                            │ reaches cooldown
//!     │                                           ▼
//!     └──────────────────────────────────────  HalfOpen
//!                    probe fails: back to Open (fresh cooldown)
//! ```
//!
//! `HalfOpen` is *derived*, not stored: an `Open` entry whose cooldown has
//! elapsed on the simulated clock admits exactly one class of calls —
//! probes — and the next observation either closes the breaker or re-opens
//! it with a fresh cooldown. Storing only `Closed`/`Open{until}` keeps the
//! admission check a pure read, which is what lets scatter workers share a
//! snapshot without locks or ordering sensitivity.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::net::as_ns;

/// Public three-valued breaker state (the derived view; see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Calls are rejected outright with [`crate::XrpcError::BreakerOpen`].
    Open,
    /// The cooldown elapsed: one probe call is admitted to test the peer.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, used verbatim as a trace-span annotation.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Breaker tuning knobs (CLI: `--breaker-threshold`,
/// `--breaker-cooldown-ms`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failed attempts that trip the breaker. `0` disables the
    /// breaker entirely (every admission succeeds, nothing ever trips).
    pub threshold: u32,
    /// Simulated time an open breaker rejects calls before admitting a
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy { threshold: 4, cooldown: Duration::from_millis(500) }
    }
}

/// Verdict of a (pure) admission check against the scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Dispatch the call; `probe` marks a half-open trial.
    Allow { probe: bool },
    /// The breaker is open: fail fast, try another replica instead.
    /// `retry_after` is the simulated time until a probe would be admitted.
    Reject { retry_after: Duration },
}

/// Internal stored state — `HalfOpen` is derived at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stored {
    Closed,
    Open { until_ns: u64 },
}

/// Health record of one peer.
#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    /// EWMA of observed call chains, integer arithmetic (3/10 weight on the
    /// newest observation) so replays are exact.
    ewma_ns: u64,
    observed: bool,
    consecutive_failures: u32,
    state: Stored,
}

impl PeerHealth {
    fn fresh() -> Self {
        PeerHealth {
            ewma_ns: 0,
            observed: false,
            consecutive_failures: 0,
            state: Stored::Closed,
        }
    }
}

/// One health observation: the outcome of a ladder rung (one peer's share
/// of a logical call — every same-peer retry included).
#[derive(Debug, Clone)]
pub struct Observation {
    pub peer: String,
    /// Did the rung end with a decoded response?
    pub ok: bool,
    /// Attempts within the rung that ended in a failure (feeds the
    /// consecutive-failure count; a success resets it regardless).
    pub failed_attempts: u32,
    /// Simulated chain the rung consumed (feeds the latency EWMA).
    pub chain: Duration,
    /// Was this rung a half-open probe?
    pub probe: bool,
}

/// The federation's availability scoreboard. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    policy: BreakerPolicy,
    now_ns: u64,
    peers: BTreeMap<String, PeerHealth>,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new(BreakerPolicy::default())
    }
}

impl Scoreboard {
    pub fn new(policy: BreakerPolicy) -> Self {
        Scoreboard { policy, now_ns: 0, peers: BTreeMap::new() }
    }

    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Current simulated time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns)
    }

    /// Advances the simulated clock — called wherever the executor bills
    /// overlapped network time (per sequential call, per scatter round).
    pub fn advance(&mut self, elapsed: Duration) {
        self.now_ns = self.now_ns.saturating_add(as_ns(elapsed));
    }

    /// Drops all peer state and rewinds the clock (per-run reset).
    pub fn reset(&mut self, policy: BreakerPolicy) {
        self.policy = policy;
        self.now_ns = 0;
        self.peers.clear();
    }

    /// The derived three-valued breaker state of `peer`.
    pub fn state(&self, peer: &str) -> BreakerState {
        match self.peers.get(peer).map(|p| p.state) {
            None | Some(Stored::Closed) => BreakerState::Closed,
            Some(Stored::Open { until_ns }) => {
                if self.now_ns >= until_ns {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        }
    }

    /// Observed latency EWMA of `peer`, if any call completed against it.
    pub fn ewma(&self, peer: &str) -> Option<Duration> {
        self.peers
            .get(peer)
            .filter(|p| p.observed)
            .map(|p| Duration::from_nanos(p.ewma_ns))
    }

    /// Pure admission check — safe to evaluate against a shared snapshot
    /// from any thread; never mutates.
    pub fn admission(&self, peer: &str) -> Admission {
        if self.policy.threshold == 0 {
            return Admission::Allow { probe: false };
        }
        match self.state(peer) {
            BreakerState::Closed => Admission::Allow { probe: false },
            BreakerState::HalfOpen => Admission::Allow { probe: true },
            BreakerState::Open => {
                let until = match self.peers.get(peer).map(|p| p.state) {
                    Some(Stored::Open { until_ns }) => until_ns,
                    _ => self.now_ns,
                };
                Admission::Reject {
                    retry_after: Duration::from_nanos(until.saturating_sub(self.now_ns)),
                }
            }
        }
    }

    /// Sort key for replica selection: healthy peers first (Closed <
    /// HalfOpen < Open), seeded rendezvous score breaking ties elsewhere.
    pub fn health_rank(&self, peer: &str) -> u8 {
        match self.state(peer) {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }

    /// Applies one observation. Returns `true` when this observation
    /// *tripped* the breaker (any transition into `Open` — threshold
    /// reached, or a failed half-open probe).
    pub fn observe(&mut self, obs: &Observation) -> bool {
        let entry = self.peers.entry(obs.peer.clone()).or_insert_with(PeerHealth::fresh);
        let chain_ns = as_ns(obs.chain);
        if entry.observed {
            entry.ewma_ns = (entry.ewma_ns / 10) * 7 + entry.ewma_ns % 10 * 7 / 10
                + (chain_ns / 10) * 3
                + chain_ns % 10 * 3 / 10;
        } else {
            entry.ewma_ns = chain_ns;
            entry.observed = true;
        }
        if self.policy.threshold == 0 {
            return false;
        }
        if obs.ok {
            entry.consecutive_failures = 0;
            entry.state = Stored::Closed;
            return false;
        }
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(obs.failed_attempts.max(1));
        let was_open = matches!(entry.state, Stored::Open { .. });
        let trip = if obs.probe {
            // a failed probe re-opens with a fresh cooldown
            true
        } else {
            !was_open && entry.consecutive_failures >= self.policy.threshold
        };
        if trip {
            entry.state = Stored::Open { until_ns: self.now_ns.saturating_add(as_ns(self.policy.cooldown)) };
        }
        trip
    }
}

// ---------------------------------------------------------------------------
// seeded selection helpers
// ---------------------------------------------------------------------------

/// FNV-1a over a name, SplitMix-style mixed with `seed` and `salt` —
/// the same construction [`crate::FaultPlan`] uses for its per-attempt
/// streams. Used for rendezvous-style replica selection and hedge-delay
/// jitter, so both are pure functions of `(seed, name, salt)`.
pub fn mix_score(seed: u64, name: &str, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(h)
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic jitter fraction in `[0, 1)` for `(seed, name, salt)`.
pub fn seeded_fraction(seed: u64, name: &str, salt: u64) -> f64 {
    (mix_score(seed, name, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_deterministic_and_spread() {
        assert_eq!(mix_score(7, "a", 3), mix_score(7, "a", 3));
        assert_ne!(mix_score(7, "a", 3), mix_score(7, "b", 3));
        assert_ne!(mix_score(7, "a", 3), mix_score(8, "a", 3));
        assert_ne!(mix_score(7, "a", 3), mix_score(7, "a", 4));
        let f = seeded_fraction(42, "peer", 9);
        assert!((0.0..1.0).contains(&f));
        assert_eq!(f, seeded_fraction(42, "peer", 9));
    }

    #[test]
    fn ewma_tracks_observations() {
        let mut b = Scoreboard::new(BreakerPolicy::default());
        assert!(b.ewma("p").is_none());
        b.observe(&Observation {
            peer: "p".into(),
            ok: true,
            failed_attempts: 0,
            chain: Duration::from_millis(100),
            probe: false,
        });
        assert_eq!(b.ewma("p"), Some(Duration::from_millis(100)));
        b.observe(&Observation {
            peer: "p".into(),
            ok: true,
            failed_attempts: 0,
            chain: Duration::from_millis(200),
            probe: false,
        });
        // 0.7 * 100ms + 0.3 * 200ms = 130ms
        assert_eq!(b.ewma("p"), Some(Duration::from_millis(130)));
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b = Scoreboard::new(BreakerPolicy { threshold: 0, cooldown: Duration::from_secs(1) });
        for _ in 0..100 {
            let tripped = b.observe(&Observation {
                peer: "p".into(),
                ok: false,
                failed_attempts: 3,
                chain: Duration::from_millis(1),
                probe: false,
            });
            assert!(!tripped);
        }
        assert_eq!(b.state("p"), BreakerState::Closed);
        assert_eq!(b.admission("p"), Admission::Allow { probe: false });
    }
}
