//! How a logical call survives failure — the one place that knows.
//!
//! A logical call (one Bulk RPC, one scatter slot, one document fetch) is
//! carried by a **ladder**: [`walk`] dials every admitted host able to
//! answer it, healthiest first, and on each rung [`retry`] replays the
//! attempt under the [`RetryPolicy`] — exponential backoff with jitter,
//! server `retry-after` hints honored, one deadline per rung. The
//! coordinator runs exactly this code on both of its carriers; what differs
//! between a simulated federation and real sockets sits behind the
//! [`Attempt`] seam: **one attempt at one host, which reports how long it
//! took on its own clock and knows how to wait**. The loop needs nothing
//! else from a clock, so there is no separate clock abstraction: the
//! simulated attempts return modeled transfer chains and wait for free (the
//! loop already charged the wait), the wire attempt measures an
//! [`std::time::Instant`] and sleeps.
//!
//! The rules, each stated once:
//!
//! * a failed attempt is replayed while it is [`XrpcError::retryable`] or
//!   the server's own shed (`Overloaded`, which carries an honest hint) and
//!   the rung has attempts left;
//! * the wait before a replay never undercuts a server hint
//!   ([`RetryPolicy::backoff_with_hint`]); it is charged to the rung's
//!   chain first, and a wait that would cross the rung's deadline ends the
//!   rung with `Cancelled` *before* anything sleeps;
//! * every rung starts with a full deadline — a hung primary must not
//!   starve the replica's chance to answer;
//! * the walk moves to the next host only on
//!   [`XrpcError::failover_eligible`] errors: evaluation faults are
//!   deterministic, every replica would reproduce them;
//! * a ladder whose candidates were all rejected by their breakers fails
//!   fast with `BreakerOpen` — a caller with a last resort (the document
//!   fetch backing the degrade rung) pushes it onto the list itself;
//! * health observations are *returned*, never applied: the caller owns the
//!   scoreboard and decides when (sequentially, at a scatter gather in slot
//!   order, or on the wall clock) they land.

use std::time::Duration;

use xqd_core::replicas::mix_score;

use crate::health::{seeded_fraction, Admission, Observation, Scoreboard};
use crate::net::{Fault, XrpcError};
use crate::trace::SpanBuilder;

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
    /// Per-call budget. Bounds each attempt's chain (transfer legs plus
    /// stalls), the wait for a busy peer slot, and the total
    /// attempts-plus-backoff budget of one rung.
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

/// Wait for a busy peer slot when the ladder still has an alternative
/// healthy replica to try: prefer switching hosts over blocking on the slot.
pub(crate) const BUSY_SWITCH_WAIT: Duration = Duration::from_millis(250);

/// Which attempt this is: the ladder's lane, the rung within the ladder,
/// and the failures so far within the rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttemptId {
    pub lane: u64,
    pub rung: u32,
    pub failed: u32,
}

/// Fault-schedule ordinal of one attempt, packed so no two attempts of a
/// run ever share a `(peer, ordinal)` stream.
pub(crate) fn fault_seq(id: AttemptId) -> u64 {
    (id.lane << 16) | (u64::from(id.rung & 0xff) << 8) | u64::from(id.failed.min(255))
}

/// What one attempt did.
pub(crate) struct Attempted {
    /// Time the attempt took on the attempt's own clock.
    pub spent: Duration,
    /// The reply envelope, or the typed error — a fault envelope already
    /// decoded into the error it carries.
    pub result: Result<String, XrpcError>,
    /// The injected fault behind the outcome, for the attempt's span.
    pub fault: Option<Fault>,
    /// One extra annotation for a successful attempt's span (only worth
    /// computing when tracing is on).
    pub ok_arg: Option<(&'static str, String)>,
}

/// The seam between the ladder and whatever carries a call: one attempt at
/// one host.
pub(crate) trait Attempt {
    /// Tries `host` once, spending at most `budget`; `slot_wait` bounds how
    /// long the attempt may queue for a busy host before giving up on it.
    fn attempt(
        &mut self,
        host: &str,
        id: AttemptId,
        budget: Duration,
        slot_wait: Duration,
    ) -> Attempted;

    /// Jitter fraction in `[0, 1)` for the backoff after attempt `id` failed.
    fn jitter(&self, host: &str, id: AttemptId) -> f64;

    /// Lets `wait` pass on the attempt's clock before the next attempt.
    fn pause(&mut self, wait: Duration);
}

/// Span names of one kind of ladder.
pub(crate) struct SpanNames {
    pub cat: &'static str,
    pub rung: &'static str,
    pub attempt: &'static str,
    pub backoff: &'static str,
}

pub(crate) const RPC_SPANS: SpanNames =
    SpanNames { cat: "rpc", rung: "rpc.rung", attempt: "rpc.attempt", backoff: "rpc.backoff" };
pub(crate) const DOC_SPANS: SpanNames =
    SpanNames { cat: "doc", rung: "doc.rung", attempt: "doc.attempt", backoff: "doc.backoff" };

/// Tracing of one ladder: the names its spans go by and the scoreboard
/// snapshot their breaker annotation is read from.
pub(crate) struct Spans<'a> {
    pub names: &'static SpanNames,
    pub board: &'a Scoreboard,
}

/// The per-ladder parameters of [`walk`].
pub(crate) struct Call<'a> {
    pub policy: RetryPolicy,
    /// The ladder's lane: the stream its attempt ids are drawn from.
    pub lane: u64,
    /// Hedged requests: base delay and the seed jittering it per call to
    /// 50–100%. `None` never hedges.
    pub hedge: Option<(Duration, u64)>,
    /// `None` builds no span.
    pub spans: Option<Spans<'a>>,
}

/// `(host, probe)` pairs a ladder may dial, in preference order.
pub(crate) type Candidates = Vec<(String, bool)>;
/// The first open-breaker host and its remaining cooldown, if any.
pub(crate) type RejectedHost = Option<(String, Duration)>;

/// Ranks a candidate host set for one ladder: healthiest tier first
/// (closed breakers before half-open probes), rendezvous score under the
/// replica seed breaking ties within a tier, names as the final tie-break.
/// Hosts behind an open breaker are dropped from the admitted list; the
/// first of them is reported so an all-rejected ladder can fail fast with
/// a typed [`XrpcError::BreakerOpen`].
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
/// *caller* (sequentially, at the scatter gather in slot order, or on the
/// wall clock) so the board's evolution never depends on the ladder.
pub(crate) struct LadderOutcome {
    /// Sum of every attempt chain — the serialized network bill (a hedge's
    /// losing attempt really moved bytes, so it bills here too).
    pub serialized: Duration,
    /// Time the ladder occupied: per rung the attempt chain, except a
    /// hedged pair which ends when the winning response lands — the loser
    /// is cancelled and costs no further time.
    pub window: Duration,
    pub observations: Vec<Observation>,
    /// Replays decided by the retry loop, over all rungs.
    pub retries: u64,
    pub hedges: u64,
    pub hedge_wins: u64,
    pub probes: u64,
    pub failovers: u64,
    pub outcome: Result<String, XrpcError>,
    /// One span per dialed rung (attempt and backoff children inside) with
    /// ladder-relative offsets, built on whichever thread ran the ladder.
    /// Empty when tracing is off.
    pub rungs: Vec<SpanBuilder>,
}

impl LadderOutcome {
    /// A ladder that never dispatched (fast-fail or a poisoned worker).
    pub(crate) fn failed(err: XrpcError) -> Self {
        LadderOutcome {
            serialized: Duration::ZERO,
            window: Duration::ZERO,
            observations: Vec::new(),
            retries: 0,
            hedges: 0,
            hedge_wins: 0,
            probes: 0,
            failovers: 0,
            outcome: Err(err),
            rungs: Vec::new(),
        }
    }

    /// Completes `root` into the ladder's span tree — duration, outcome,
    /// the rung spans as children — for the caller to submit at its gather
    /// point.
    pub(crate) fn span(&mut self, root: SpanBuilder) -> SpanBuilder {
        let outcome = match &self.outcome {
            Ok(_) => "ok".to_string(),
            Err(e) => e.code().to_string(),
        };
        let mut sb = root.lasting(self.window).arg("outcome", outcome);
        for rung in self.rungs.drain(..) {
            sb.push_child(rung);
        }
        sb
    }
}

/// What [`retry`] did on one rung.
struct Rung {
    /// Attempts plus backoff waits, on the attempt's clock.
    chain: Duration,
    /// Attempts that ended in a failure (for the health scoreboard).
    failed: u32,
    retries: u64,
    result: Result<String, XrpcError>,
    spans: Vec<SpanBuilder>,
}

/// The retry loop: one logical call against one host.
fn retry(
    attempt: &mut dyn Attempt,
    call: &Call<'_>,
    host: &str,
    rung: u32,
    slot_wait: Duration,
) -> Rung {
    let policy = &call.policy;
    let names = call.spans.as_ref().map(|s| s.names);
    let mut spans = Vec::new();
    let mut chain = Duration::ZERO;
    let mut failed = 0u32;
    let mut retries = 0u64;
    loop {
        let id = AttemptId { lane: call.lane, rung, failed };
        let budget = policy.deadline.saturating_sub(chain);
        let Attempted { spent, result, fault, ok_arg } =
            attempt.attempt(host, id, budget, slot_wait);
        if let Some(names) = names {
            let mut sb = SpanBuilder::new(names.attempt, names.cat)
                .at(chain)
                .lasting(spent)
                .arg("peer", host)
                .arg("attempt", failed.to_string());
            if let Some(f) = fault {
                sb = sb.arg("fault", f.name());
            }
            sb = match &result {
                Ok(_) => sb.arg("outcome", "ok"),
                Err(e) => sb.arg("outcome", e.code()),
            };
            if let Some((key, value)) = ok_arg {
                sb = sb.arg(key, value);
            }
            spans.push(sb);
        }
        chain += spent;
        let e = match result {
            Ok(reply) => return Rung { chain, failed, retries, result: Ok(reply), spans },
            Err(e) => e,
        };
        // `Overloaded` reaches this loop only as a server's shed, carrying
        // an honest `retry-after-ms`: wait the hint out and try again.
        let worth_retrying = e.retryable() || matches!(e, XrpcError::Overloaded { .. });
        if !worth_retrying || failed + 1 >= policy.max_attempts {
            return Rung { chain, failed: failed + 1, retries, result: Err(e), spans };
        }
        failed += 1;
        retries += 1;
        let wait = policy.backoff_with_hint(failed, attempt.jitter(host, id), e.retry_after());
        if let Some(names) = names {
            spans.push(
                SpanBuilder::new(names.backoff, names.cat).at(chain).lasting(wait).arg("peer", host),
            );
        }
        chain += wait;
        if chain >= policy.deadline {
            // still `Cancelled` (retryability and failover read the
            // variant), but naming the failure the deadline cut short
            let cancelled = XrpcError::Cancelled {
                peer: host.to_string(),
                reason: format!(
                    "deadline {:?} spent after {failed} failed attempt(s); last: {e}",
                    policy.deadline
                ),
            };
            return Rung { chain, failed, retries, result: Err(cancelled), spans };
        }
        attempt.pause(wait);
    }
}

/// Runs one rung — [`retry`] against `host` — and books it on `out`: its
/// span, its retries and its health observation.
#[allow(clippy::too_many_arguments)]
fn dial(
    attempt: &mut dyn Attempt,
    call: &Call<'_>,
    out: &mut LadderOutcome,
    host: &str,
    rung: u32,
    slot_wait: Duration,
    at: Duration,
    kind: &'static str,
) -> (Duration, Result<String, XrpcError>) {
    let done = retry(attempt, call, host, rung, slot_wait);
    if let Some(spans) = &call.spans {
        let mut sb = SpanBuilder::new(spans.names.rung, spans.names.cat)
            .at(at)
            .lasting(done.chain)
            .arg("peer", host)
            .arg("rung", rung.to_string())
            .arg("kind", kind)
            .arg("breaker", spans.board.state(host).name());
        for child in done.spans {
            sb.push_child(child);
        }
        out.rungs.push(sb);
    }
    out.retries += done.retries;
    out.observations.push(Observation {
        peer: host.to_string(),
        ok: done.result.is_ok(),
        failed_attempts: done.failed,
        chain: done.chain,
        probe: kind == "probe",
    });
    (done.chain, done.result)
}

/// The failover ladder of one logical call: same-host retries ([`retry`])
/// → next replica → hedged secondary. What follows an exhausted ladder
/// (degradation, a typed error) is the caller's move.
///
/// `candidates` come from [`admitted_candidates`]: every host able to stand
/// in for `primary`, healthiest first, hosts behind an open breaker already
/// dropped (`rejected` names the first of them), a half-open host admitted
/// as a single probe. A busy host is waited on for the whole deadline only
/// when no healthy alternative remains.
///
/// When hedging is on and the preferred host has not answered within the
/// (deterministically jittered) hedge delay, the next healthy candidate is
/// dispatched as a secondary attempt and the first valid response wins;
/// both attempts bill `serialized`, `window` only runs to the winner.
pub(crate) fn walk(
    attempt: &mut dyn Attempt,
    call: &Call<'_>,
    primary: &str,
    candidates: Candidates,
    rejected: RejectedHost,
) -> LadderOutcome {
    if candidates.is_empty() {
        // every breaker open: fail fast — a tripped peer is never re-dialed
        let (host, retry_after) =
            rejected.unwrap_or_else(|| (primary.to_string(), Duration::ZERO));
        return LadderOutcome::failed(XrpcError::BreakerOpen { peer: host, retry_after });
    }
    let deadline = call.policy.deadline;
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
        let hedge = match (call.hedge, candidates.get(i + 1)) {
            (Some((base, seed)), Some((host2, false))) if rung == 0 && !probe => {
                let delay = base.mul_f64(0.5 + 0.5 * seeded_fraction(seed, host, call.lane));
                Some((host2, delay))
            }
            _ => None,
        };

        let w0 = out.window;
        let kind = if *probe { "probe" } else { "primary" };
        let (chain_p, res_p) = dial(attempt, call, &mut out, host, rung, wait, w0, kind);
        rung += 1;

        // the hedge timer fired before the preferred host answered
        if let Some((host2, delay)) = hedge.filter(|(_, delay)| chain_p > *delay) {
            out.hedges += 1;
            let wait2 = deadline.min(BUSY_SWITCH_WAIT);
            let (chain_h, res_h) =
                dial(attempt, call, &mut out, host2, rung, wait2, w0 + delay, "hedge");
            rung += 1;
            let t_p = chain_p;
            let t_h = delay + chain_h;
            out.serialized += chain_p + chain_h;
            match (res_p, res_h) {
                // responses are bit-identical (content-based codecs); the
                // strictly earlier one wins, primary on a tie
                (Ok(_), Ok(rh)) if t_h < t_p => {
                    out.hedge_wins += 1;
                    out.window += t_h;
                    out.outcome = Ok(rh);
                    return out;
                }
                (Ok(rp), _) => {
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
                    let terminal = !eh.failover_eligible();
                    out.outcome = Err(eh);
                    if terminal {
                        return out;
                    }
                    // both the preferred host and the hedge target failed:
                    // resume the ladder past the pair
                    i += 2;
                    continue;
                }
            }
        }

        out.serialized += chain_p;
        out.window += chain_p;
        match res_p {
            Ok(reply) => {
                out.outcome = Ok(reply);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::BreakerPolicy;
    use std::collections::{HashMap, VecDeque};

    const MS: Duration = Duration::from_millis(1);

    /// One scripted attempt: `(spent, result)`.
    type Reply = (Duration, Result<String, XrpcError>);

    /// A scripted [`Attempt`]: per host a queue of replies; every dial and
    /// every pause is recorded, nothing sleeps.
    #[derive(Default)]
    struct Script {
        replies: HashMap<&'static str, VecDeque<Reply>>,
        dialed: Vec<(String, AttemptId, Duration, Duration)>,
        pauses: Vec<Duration>,
    }

    impl Script {
        fn host(
            mut self,
            host: &'static str,
            replies: impl IntoIterator<Item = Reply>,
        ) -> Self {
            self.replies.insert(host, replies.into_iter().collect());
            self
        }

        fn hosts_dialed(&self) -> Vec<&str> {
            self.dialed.iter().map(|(h, ..)| h.as_str()).collect()
        }
    }

    impl Attempt for Script {
        fn attempt(&mut self, host: &str, id: AttemptId, budget: Duration, wait: Duration) -> Attempted {
            self.dialed.push((host.to_string(), id, budget, wait));
            let (spent, result) = self
                .replies
                .get_mut(host)
                .and_then(VecDeque::pop_front)
                .unwrap_or_else(|| panic!("script for {host} ran dry"));
            Attempted { spent, result, fault: None, ok_arg: None }
        }

        fn jitter(&self, _: &str, _: AttemptId) -> f64 {
            0.0
        }

        fn pause(&mut self, wait: Duration) {
            self.pauses.push(wait);
        }
    }

    fn ok(body: &str) -> Result<String, XrpcError> {
        Ok(body.to_string())
    }

    fn timeout(peer: &str) -> Result<String, XrpcError> {
        Err(XrpcError::Timeout { peer: peer.to_string(), deadline: Duration::ZERO })
    }

    fn dynamic(peer: &str) -> Result<String, XrpcError> {
        Err(XrpcError::RemoteFault {
            peer: peer.to_string(),
            code: "err:dynamic".to_string(),
            message: "division by zero".to_string(),
        })
    }

    fn policy(max_attempts: u32, deadline: Duration) -> RetryPolicy {
        RetryPolicy { max_attempts, base_backoff: 10 * MS, max_backoff: 40 * MS, deadline }
    }

    fn call(policy: RetryPolicy) -> Call<'static> {
        Call { policy, lane: 3, hedge: None, spans: None }
    }

    fn healthy(hosts: &[&str]) -> Candidates {
        hosts.iter().map(|h| (h.to_string(), false)).collect()
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

    /// Closed breakers before half-open probes; an open breaker is not
    /// dialed at all; and the walk dials in exactly that order.
    #[test]
    fn rungs_are_dialed_healthiest_first() {
        let mut board =
            Scoreboard::new(BreakerPolicy { threshold: 1, cooldown: Duration::from_millis(500) });
        let failure = |peer: &str| Observation {
            peer: peer.to_string(),
            ok: false,
            failed_attempts: 1,
            chain: MS,
            probe: false,
        };
        board.observe(&failure("a"));
        board.advance(Duration::from_millis(600)); // a: half-open
        board.observe(&failure("c")); // c: open, 500 ms to go
        let hosts = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let (candidates, rejected) = admitted_candidates(&board, 0, hosts);
        assert_eq!(candidates, vec![("b".to_string(), false), ("a".to_string(), true)]);
        assert_eq!(rejected, Some(("c".to_string(), Duration::from_millis(500))));

        let mut script =
            Script::default().host("b", [(MS, timeout("b"))]).host("a", [(MS, ok("from a"))]);
        let out = walk(&mut script, &call(policy(1, 100 * MS)), "a", candidates, rejected);
        assert_eq!(script.hosts_dialed(), ["b", "a"]);
        assert_eq!(out.outcome.unwrap(), "from a");
        assert_eq!((out.failovers, out.probes, out.retries), (1, 1, 0));
        let seen: Vec<_> =
            out.observations.iter().map(|o| (o.peer.as_str(), o.ok, o.probe)).collect();
        assert_eq!(seen, [("b", false, false), ("a", true, true)]);
    }

    #[test]
    fn each_rung_starts_with_a_full_deadline_and_its_own_attempt_ids() {
        let deadline = 100 * MS;
        let mut script = Script::default()
            .host("a", [(90 * MS, timeout("a"))])
            .host("b", [(5 * MS, ok("late but fine"))]);
        let out = walk(&mut script, &call(policy(1, deadline)), "a", healthy(&["a", "b"]), None);
        assert!(out.outcome.is_ok());
        let budgets: Vec<_> = script.dialed.iter().map(|(_, id, budget, _)| (*id, *budget)).collect();
        assert_eq!(
            budgets,
            [
                (AttemptId { lane: 3, rung: 0, failed: 0 }, deadline),
                (AttemptId { lane: 3, rung: 1, failed: 0 }, deadline),
            ]
        );
        assert_eq!(out.serialized, 95 * MS);
        assert_eq!(out.window, 95 * MS);
    }

    /// A busy host is waited on for the whole deadline only when no healthy
    /// alternative is left to switch to.
    #[test]
    fn slot_wait_is_short_while_a_healthy_alternative_remains() {
        let deadline = Duration::from_secs(10);
        let mut script = Script::default()
            .host("a", [(MS, timeout("a"))])
            .host("b", [(MS, timeout("b"))])
            .host("c", [(MS, ok("c"))]);
        let candidates =
            vec![("a".to_string(), false), ("b".to_string(), false), ("c".to_string(), true)];
        walk(&mut script, &call(policy(1, deadline)), "a", candidates, None);
        let waits: Vec<_> = script.dialed.iter().map(|(.., wait)| *wait).collect();
        // after b only a probe remains, which is no healthy alternative
        assert_eq!(waits, [BUSY_SWITCH_WAIT, deadline, deadline]);
    }

    #[test]
    fn an_ineligible_error_stops_the_walk_and_an_eligible_one_moves_on() {
        let mut script = Script::default()
            .host("a", [(MS, timeout("a"))])
            .host("b", [(MS, dynamic("b"))])
            .host("c", [(MS, ok("never asked"))]);
        let out =
            walk(&mut script, &call(policy(1, 100 * MS)), "a", healthy(&["a", "b", "c"]), None);
        assert_eq!(script.hosts_dialed(), ["a", "b"], "every replica would reproduce err:dynamic");
        assert_eq!(out.outcome.unwrap_err().code(), "err:dynamic");
        assert_eq!(out.failovers, 1);
    }

    #[test]
    fn max_attempts_bounds_the_attempts_of_each_rung() {
        let mut script = Script::default()
            .host("a", (0..3).map(|_| (MS, timeout("a"))))
            .host("b", (0..3).map(|_| (MS, timeout("b"))));
        let out =
            walk(&mut script, &call(policy(3, Duration::from_secs(1))), "a", healthy(&["a", "b"]), None);
        assert_eq!(script.hosts_dialed(), ["a", "a", "a", "b", "b", "b"]);
        assert_eq!(out.outcome.unwrap_err().code(), "xrpc:timeout");
        assert_eq!(out.retries, 4);
        assert!(out.observations.iter().all(|o| o.failed_attempts == 3 && !o.ok));
        // exponential backoff at jitter 0: half of 10 ms, then half of 20 ms
        assert_eq!(script.pauses, [5 * MS, 10 * MS, 5 * MS, 10 * MS]);
    }

    #[test]
    fn overloaded_is_retried_and_an_evaluation_fault_is_not() {
        let shed = || Err(XrpcError::Overloaded { retry_after_ms: 80 });
        let mut script = Script::default().host("a", [(MS, shed()), (MS, ok("admitted"))]);
        let out = walk(&mut script, &call(policy(3, Duration::from_secs(1))), "a", healthy(&["a"]), None);
        assert_eq!(out.outcome.unwrap(), "admitted");
        assert_eq!(out.retries, 1);
        // base backoff is 10 ms: the server's 80 ms hint is not undercut
        assert_eq!(script.pauses, [80 * MS]);
        assert_eq!(out.window, 82 * MS);

        let mut script = Script::default().host("a", [(MS, dynamic("a")), (MS, ok("unreachable"))]);
        let out = walk(&mut script, &call(policy(3, Duration::from_secs(1))), "a", healthy(&["a"]), None);
        assert_eq!(out.outcome.unwrap_err().code(), "err:dynamic");
        assert_eq!((script.dialed.len(), out.retries), (1, 0));
        assert!(script.pauses.is_empty());
    }

    /// A hint the deadline cannot afford is capped to the deadline, and the
    /// wait that would cross the deadline cancels the rung before anything
    /// pauses; the walk then moves on with a fresh deadline.
    #[test]
    fn a_wait_that_would_cross_the_deadline_cancels_without_pausing() {
        let deadline = 200 * MS;
        let shed = || Err(XrpcError::Overloaded { retry_after_ms: 60_000 });
        let mut script = Script::default().host("a", [(MS, shed())]);
        let out = walk(&mut script, &call(policy(3, deadline)), "a", healthy(&["a"]), None);
        let err = out.outcome.unwrap_err();
        assert_eq!(err.code(), "xrpc:cancelled");
        assert!(script.pauses.is_empty(), "slept {:?} for a retry that never ran", script.pauses);
        assert_eq!(script.dialed.len(), 1);
        // the capped wait is charged to the chain all the same
        assert_eq!(out.window, MS + deadline);
        assert_eq!((out.retries, out.observations[0].failed_attempts), (1, 1));

        // an ordinary backoff crossing the deadline: same rule, and
        // `Cancelled` lets the next replica try
        let mut script = Script::default()
            .host("a", [(96 * MS, timeout("a"))])
            .host("b", [(MS, ok("b"))]);
        let out = walk(&mut script, &call(policy(3, 100 * MS)), "a", healthy(&["a", "b"]), None);
        assert_eq!(out.outcome.unwrap(), "b");
        assert!(script.pauses.is_empty());
        assert_eq!(script.hosts_dialed(), ["a", "b"]);
    }

    /// The cancellation a deadline forces between retries names the
    /// deadline and the failure that used it up, not a bare count.
    #[test]
    fn a_deadline_spent_between_retries_names_the_last_failure() {
        let deadline = 300 * MS;
        let late = || (150 * MS, Err(XrpcError::Timeout { peer: "p".into(), deadline: 150 * MS }));
        let mut script = Script::default().host("p", [late(), late()]);
        let out = walk(&mut script, &call(policy(3, deadline)), "p", healthy(&["p"]), None);
        // 150 + 5 (backoff) + 150 + 10 (backoff) crosses 300 ms
        assert_eq!(script.pauses, [5 * MS]);
        let err = out.outcome.unwrap_err();
        assert_eq!(err.code(), "xrpc:cancelled");
        let message = err.to_string();
        assert!(message.contains("deadline 300ms spent after 2 failed attempt(s)"), "{message}");
        assert!(message.contains("last: call to peer p timed out after 150ms"), "{message}");
    }

    #[test]
    fn the_strictly_earlier_hedged_reply_wins_and_both_are_billed() {
        // hedge delay at this (seed, host, lane): somewhere in 5..10 ms
        let hedged = |policy| Call { hedge: Some((10 * MS, 7)), ..call(policy) };
        let delay = (10 * MS).mul_f64(0.5 + 0.5 * seeded_fraction(7, "a", 3));
        let p = policy(1, Duration::from_secs(1));

        // the hedge lands first
        let mut script =
            Script::default().host("a", [(50 * MS, ok("slow"))]).host("b", [(MS, ok("fast"))]);
        let out = walk(&mut script, &hedged(p), "a", healthy(&["a", "b"]), None);
        assert_eq!(out.outcome.unwrap(), "fast");
        assert_eq!((out.hedges, out.hedge_wins, out.failovers), (1, 1, 0));
        assert_eq!(out.serialized, 51 * MS);
        assert_eq!(out.window, delay + MS);
        assert_eq!(out.observations.len(), 2);

        // a tie goes to the primary
        let mut script = Script::default()
            .host("a", [(50 * MS, ok("primary"))])
            .host("b", [(50 * MS - delay, ok("hedge"))]);
        let out = walk(&mut script, &hedged(p), "a", healthy(&["a", "b"]), None);
        assert_eq!(out.outcome.unwrap(), "primary");
        assert_eq!((out.hedges, out.hedge_wins), (1, 0));
        assert_eq!(out.window, 50 * MS);
        assert_eq!(out.serialized, 100 * MS - delay);

        // a primary answering inside the delay never arms the hedge
        let mut script = Script::default().host("a", [(delay, ok("quick"))]);
        let out = walk(&mut script, &hedged(p), "a", healthy(&["a", "b"]), None);
        assert_eq!(out.outcome.unwrap(), "quick");
        assert_eq!(out.hedges, 0);
        assert_eq!(script.hosts_dialed(), ["a"]);

        // both fail: the walk resumes past the pair
        let mut script = Script::default()
            .host("a", [(50 * MS, timeout("a"))])
            .host("b", [(60 * MS, timeout("b"))])
            .host("c", [(MS, ok("third"))]);
        let out = walk(&mut script, &hedged(p), "a", healthy(&["a", "b", "c"]), None);
        assert_eq!(out.outcome.unwrap(), "third");
        assert_eq!(script.hosts_dialed(), ["a", "b", "c"]);
        assert_eq!(out.window, delay + 60 * MS + MS);
        assert_eq!(out.serialized, 111 * MS);
        let rungs: Vec<_> = script.dialed.iter().map(|(_, id, ..)| id.rung).collect();
        assert_eq!(rungs, [0, 1, 2]);
    }

    #[test]
    fn an_all_rejected_ladder_is_breaker_open_with_the_first_cooldown() {
        let mut script = Script::default();
        let rejected = Some(("b".to_string(), 300 * MS));
        let out = walk(&mut script, &call(policy(3, 100 * MS)), "a", Vec::new(), rejected);
        match out.outcome.unwrap_err() {
            XrpcError::BreakerOpen { peer, retry_after } => {
                assert_eq!((peer.as_str(), retry_after), ("b", 300 * MS));
            }
            other => panic!("expected BreakerOpen, got {other}"),
        }
        assert!(script.dialed.is_empty() && out.observations.is_empty());
        // nothing known about any host: still a typed breaker error
        let out = walk(&mut script, &call(policy(3, 100 * MS)), "a", Vec::new(), None);
        assert_eq!(out.outcome.unwrap_err().code(), "xrpc:breaker-open");
    }

    #[test]
    fn spans_are_built_only_when_asked_for() {
        let board = Scoreboard::default();
        let replies = || [(2 * MS, timeout("a")), (3 * MS, ok("done"))];
        let mut script = Script::default().host("a", replies());
        let p = policy(3, Duration::from_secs(1));
        let mut out = walk(&mut script, &call(p), "a", healthy(&["a"]), None);
        assert!(out.rungs.is_empty());
        assert!(out.span(SpanBuilder::new("rpc.ladder", "rpc")).children.is_empty());

        let traced = Call { spans: Some(Spans { names: &DOC_SPANS, board: &board }), ..call(p) };
        let mut script = Script::default().host("a", replies());
        let mut out = walk(&mut script, &traced, "a", healthy(&["a"]), None);
        let tree = out.span(SpanBuilder::new("doc.fetch", "doc").arg("uri", "u"));
        assert_eq!(tree.dur_ns, 10_000_000);
        assert_eq!(tree.args, [("uri", "u".to_string()), ("outcome", "ok".to_string())]);
        let rung = &tree.children[0];
        assert_eq!((rung.name, rung.cat), ("doc.rung", "doc"));
        assert!(rung.args.contains(&("breaker", "closed".to_string())));
        let shape: Vec<_> =
            rung.children.iter().map(|c| (c.name, c.rel_start_ns, c.dur_ns)).collect();
        assert_eq!(
            shape,
            [
                ("doc.attempt", 0, 2_000_000),
                ("doc.backoff", 2_000_000, 5_000_000),
                ("doc.attempt", 7_000_000, 3_000_000),
            ]
        );
    }
}
