//! End-to-end typed failure semantics: injected faults surface as typed
//! [`XrpcError`]s (carried on `EvalError::code`), retryable failures are
//! replayed, exhausted calls degrade gracefully to data shipping, and
//! remote panics are captured without poisoning the federation.

use std::time::Duration;

use xqd_core::Strategy;
use xqd_xrpc::{ExecOptions, FaultPlan, Federation, NetworkModel, RetryPolicy};

fn fed() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("p", "d.xml", "<a><b><c/></b><b><c/></b></a>").unwrap();
    f
}

/// A plan downing the peer with probability `rate` per attempt — the only
/// fault kind, so every injected fault is retryable.
fn down_plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan { p_peer_down: rate, ..FaultPlan::none(seed) }
}

/// Finds a seed whose schedule faults the first `faulted` attempts against
/// `peer` and leaves the next `clean` attempts clean.
fn seed_with_run(peer: &str, rate: f64, faulted: u64, clean: u64) -> u64 {
    (0..100_000u64)
        .find(|&seed| {
            let plan = down_plan(seed, rate);
            (0..faulted).all(|s| plan.decide(peer, s).is_some())
                && (faulted..faulted + clean).all(|s| plan.decide(peer, s).is_none())
        })
        .expect("no seed matches the requested fault run")
}

#[test]
fn unknown_peer_is_typed_and_fails_fast() {
    let mut f = fed();
    let err = f.run("execute at {\"nowhere\"} params () { 1 }", Strategy::ByValue).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:unknown-peer"));
    assert!(err.message.contains("nowhere"));
    // no amount of retrying makes an unconfigured peer appear
    assert_eq!(f.metrics().retries, 0);
}

#[test]
fn peer_down_surfaces_as_peer_busy_when_not_degradable() {
    let mut f = fed();
    f.set_fault_plan(Some(down_plan(7, 1.0)));
    // nested `execute at` makes the body ineligible for degradation
    let q = "execute at {\"p\"} params () { execute at {\"p\"} params () { 1 } }";
    let err = f.run(q, Strategy::ByValue).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:peer-busy"));
    assert!(f.metrics().retries > 0, "retryable failures are replayed first");
}

#[test]
fn remote_eval_fault_travels_as_wire_fault_under_every_semantics() {
    for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
        let mut f = fed();
        let err = f.run("execute at {\"p\"} params () { 1 div 0 }", strategy).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("err:dynamic"), "{strategy:?}");
        assert!(err.message.contains("division"), "{strategy:?}: {}", err.message);
        // evaluation faults are deterministic: retrying would be futile
        assert_eq!(f.metrics().retries, 0, "{strategy:?}");
    }
}

#[test]
fn injected_panic_is_captured_and_the_peer_survives() {
    let mut f = fed();
    f.set_fault_plan(Some(FaultPlan { p_panic: 1.0, ..FaultPlan::none(3) }));
    f.set_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    let q = "execute at {\"p\"} params () { count(doc(\"d.xml\")//c) }";
    let err = f.run(q, Strategy::ByValue).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:panic"));
    assert!(err.message.contains("injected fault"), "{}", err.message);
    // the peer slot was returned despite the panic: the same federation
    // answers normally once the plan is lifted
    f.set_fault_plan(None);
    let out = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(out.result, vec!["atom:2"]);
}

#[test]
fn transient_faults_are_retried_to_success() {
    // schedule: first attempt downed, second clean
    let seed = seed_with_run("p", 0.5, 1, 4);
    let mut f = fed();
    f.set_fault_plan(Some(down_plan(seed, 0.5)));
    let q = "execute at {\"p\"} params () { count(doc(\"d.xml\")//c) }";
    let out = f.run(q, Strategy::ByFragment).unwrap();
    assert_eq!(out.result, vec!["atom:2"]);
    assert_eq!(out.metrics.retries, 1, "exactly one replay");
    assert_eq!(out.metrics.faults_injected, 1);
    assert_eq!(out.metrics.fallbacks, 0, "no degradation needed");
}

#[test]
fn exhausted_retries_degrade_to_data_shipping_bit_for_bit() {
    // The strategies disagree on this query *by design* (the shipped copy
    // loses its parent under by-value/by-fragment, keeps it under
    // by-projection) — the fallback must reproduce each strategy's own
    // answer, which the loopback wire round-trip guarantees.
    let q = "let $b := execute at {\"p\"} params () { doc(\"d.xml\")/a/b[1] } \
             return count($b/parent::a)";
    for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
        let baseline = fed().run(q, strategy).unwrap();
        // schedule: all 3 RPC attempts downed (ladder lane 0 → ordinals
        // 0..3), then a clean window for the fallback's document fetch,
        // which draws from its own lane (1 << 16 ..)
        let seed = (0..100_000u64)
            .find(|&seed| {
                let plan = down_plan(seed, 0.9);
                (0..3).all(|s| plan.decide("p", s).is_some())
                    && (0..4).all(|s| plan.decide("p", (1 << 16) | s).is_none())
            })
            .expect("no seed matches the requested fault run");
        let mut f = fed();
        f.set_fault_plan(Some(down_plan(seed, 0.9)));
        let out = f.run(q, strategy).unwrap();
        assert_eq!(out.result, baseline.result, "{strategy:?}");
        assert_eq!(out.metrics.fallbacks, 1, "{strategy:?}");
        assert_eq!(out.metrics.retries, 2, "{strategy:?}: two replays before giving up");
        assert!(
            out.metrics.document_bytes > 0,
            "{strategy:?}: the fallback data-ships the document"
        );
    }
}

#[test]
fn hang_exhausts_the_deadline_into_a_typed_timeout() {
    let mut f = fed();
    f.set_fault_plan(Some(FaultPlan { p_hang: 1.0, ..FaultPlan::none(11) }));
    f.set_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    let q = "execute at {\"p\"} params () { execute at {\"p\"} params () { 1 } }";
    let err = f.run(q, Strategy::ByValue).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:timeout"));
}

#[test]
fn retry_budget_exhaustion_is_a_typed_cancellation() {
    let mut f = fed();
    f.set_fault_plan(Some(down_plan(5, 1.0)));
    // backoff larger than the whole deadline: the first retry is abandoned
    f.set_retry_policy(RetryPolicy {
        max_attempts: 5,
        base_backoff: Duration::from_secs(2),
        max_backoff: Duration::from_secs(2),
        deadline: Duration::from_secs(1),
    });
    let q = "execute at {\"p\"} params () { execute at {\"p\"} params () { 1 } }";
    let err = f.run(q, Strategy::ByValue).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:cancelled"));
}

#[test]
fn corrupt_and_truncated_messages_are_typed_transport_faults() {
    for plan in [
        FaultPlan { p_corrupt_request: 1.0, ..FaultPlan::none(2) },
        FaultPlan { p_truncate_request: 1.0, ..FaultPlan::none(2) },
        FaultPlan { p_corrupt_response: 1.0, ..FaultPlan::none(2) },
        FaultPlan { p_truncate_response: 1.0, ..FaultPlan::none(2) },
    ] {
        let mut f = fed();
        f.set_fault_plan(Some(plan));
        f.set_retry_policy(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
        let q = "execute at {\"p\"} params () { execute at {\"p\"} params () { 1 } }";
        let err = f.run(q, Strategy::ByValue).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"));
    }
}

#[test]
fn document_fetch_failures_are_typed_too() {
    let mut f = fed();
    let err = f
        .run("count(doc(\"xrpc://p/missing.xml\")//c)", Strategy::DataShipping)
        .unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:document-not-found"));
    assert!(err.message.contains("missing.xml"));
}

#[test]
fn scatter_degrades_failed_slots_individually() {
    let q = "(execute at {\"a\"} params () { count(doc(\"da.xml\")//x) }) + \
             (execute at {\"b\"} params () { count(doc(\"db.xml\")//x) })";
    let setup = || {
        let mut f = Federation::new(NetworkModel::lan());
        f.load_document("a", "da.xml", "<r><x/><x/></r>").unwrap();
        f.load_document("b", "db.xml", "<r><x/></r>").unwrap();
        f.set_exec_options(ExecOptions { parallel_scatter: true, ..ExecOptions::default() });
        f
    };
    let baseline = setup().run(q, Strategy::ByValue).unwrap();
    assert_eq!(baseline.result, vec!["atom:3"]);
    // schedule: peer "b" (scatter slot 1 → lane 1) down for 3 RPC attempts
    // then clean for its fallback fetch (which allocates lane 2); peer "a"
    // (slot 0 → lane 0) clean throughout
    let rate = 0.7;
    let seed = (0..200_000u64)
        .find(|&seed| {
            let plan = down_plan(seed, rate);
            (0..3u64).all(|s| plan.decide("b", (1 << 16) | s).is_some())
                && (0..4u64).all(|s| plan.decide("b", (2 << 16) | s).is_none())
                && (0..4u64).all(|s| plan.decide("a", s).is_none())
        })
        .expect("no seed downs b but not a");
    let mut f = setup();
    f.set_fault_plan(Some(down_plan(seed, rate)));
    let out = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(out.result, baseline.result);
    assert_eq!(out.metrics.fallbacks, 1, "only the failed slot degrades");
}
