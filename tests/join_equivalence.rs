//! Join-equivalence suite — the semi-join rewrite's headline invariant:
//!
//! > Join-aware decomposition changes only the wire, never the answer:
//! > with the rewrite on or off, every strategy returns exactly what the
//! > tree-walk reference evaluator returns for the undecomposed join over
//! > one local store, and the key harvest rides the same failover ladder
//! > as every other remote call.
//!
//! Plus the plan-cache contract: the effective semi-join toggle is part of
//! the cache key, so flipping it never replays the wrong plan.

use std::time::Duration;

use xqd::xml::Store;
use xqd::xrpc::canonical_item;
use xqd::{
    eval_query, parse_query, rendezvous_order, ExecOptions, FaultPlan, Federation, NetworkModel,
    Strategy,
};

/// Twelve students on peer A and exams with duplicated ids on peer B —
/// Q2's "many exams per student" key distribution, where `distinct-keys`
/// actually collapses the shipped set. Ten distinct ids keep the harvest
/// reply above the front-coded `<keyset>` run threshold.
const DOC_A: &str = "<people>\
    <person><name>n01</name><id>s01</id></person>\
    <person><name>n02</name><id>s02</id></person>\
    <person><name>n03</name><id>s03</id></person>\
    <person><name>n04</name><id>s04</id></person>\
    <person><name>n05</name><id>s05</id></person>\
    <person><name>n06</name><id>s06</id></person>\
    <person><name>n07</name><id>s07</id></person>\
    <person><name>n08</name><id>s08</id></person>\
    <person><name>n09</name><id>s09</id></person>\
    <person><name>n10</name><id>s10</id></person>\
    <person><name>n11</name><id>s11</id></person>\
    <person><name>n12</name><id>s12</id></person>\
    </people>";
const DOC_B: &str = "<enroll>\
    <exam id=\"s01\"><grade>7</grade></exam>\
    <exam id=\"s01\"><grade>8</grade></exam>\
    <exam id=\"s02\"><grade>6</grade></exam>\
    <exam id=\"s03\"><grade>9</grade></exam>\
    <exam id=\"s03\"><grade>6</grade></exam>\
    <exam id=\"s04\"><grade>8</grade></exam>\
    <exam id=\"s05\"><grade>5</grade></exam>\
    <exam id=\"s05\"><grade>2</grade></exam>\
    <exam id=\"s06\"><grade>3</grade></exam>\
    <exam id=\"s07\"><grade>4</grade></exam>\
    <exam id=\"s08\"><grade>9</grade></exam>\
    <exam id=\"s09\"><grade>1</grade></exam>\
    <exam id=\"zz\"><grade>1</grade></exam>\
    </enroll>";

/// Q2 of Table III over the fixture peers — the cross-peer value join the
/// rewrite targets. `$t` binds the exam fragment from peer B; every use on
/// peer A touches only the `@id` key column existentially, so join-aware
/// decomposition harvests `distinct-keys` from B instead of the fragment.
const JOIN_QUERY: &str = r#"(let $t := (let $x := doc("xrpc://B/course42.xml")/child::enroll/child::exam
            return for $e in $x return
                if ($e/child::grade > 0) then $e else ())
 return for $p in (let $s := doc("xrpc://A/students.xml")
                   return $s/descendant::person)
        return if ($p/child::id = $t/attribute::id)
               then $p/child::name else ())"#;

fn federation() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("A", "students.xml", DOC_A).unwrap();
    f.load_document("B", "course42.xml", DOC_B).unwrap();
    f
}

/// The reference answer: the tree-walker on the join as written, over one
/// store holding both documents under their `xrpc://` URIs.
fn local_reference() -> Vec<String> {
    let mut store = Store::new();
    xqd::xml::parse_document(&mut store, DOC_A, Some("xrpc://A/students.xml")).unwrap();
    xqd::xml::parse_document(&mut store, DOC_B, Some("xrpc://B/course42.xml")).unwrap();
    let module = parse_query(JOIN_QUERY).unwrap();
    let result = eval_query(&mut store, &module).unwrap();
    result.iter().map(|i| canonical_item(&store, i)).collect()
}

/// See `chaos_property.rs`: silences the intentional worker panics.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

/// The core contract, all four strategies × indexes on/off × rewrite
/// on/off: the answer is the local reference's, and only an on-run of a
/// decomposing strategy counts a semi-join.
#[test]
fn semijoin_changes_bytes_never_results() {
    let expected = local_reference();
    assert!(!expected.is_empty(), "fixture join must produce rows");
    for strategy in Strategy::ALL {
        for use_indexes in [true, false] {
            for semijoin in [true, false] {
                let mut f = federation();
                f.set_exec_options(ExecOptions { semijoin, use_indexes, ..ExecOptions::default() });
                let out = f.run(JOIN_QUERY, strategy).unwrap();
                assert_eq!(
                    out.result, expected,
                    "{strategy:?} indexes={use_indexes} semijoin={semijoin}: wrong join answer"
                );
                if !semijoin {
                    assert_eq!(out.metrics.semijoins, 0, "{strategy:?}: off-run counted semi-joins");
                }
            }
        }
    }
}

/// The decomposed strategies actually ship fewer message bytes with the
/// rewrite on, and the executor's join counters fire.
#[test]
fn semijoin_saves_bytes_and_counts_itself() {
    for strategy in [Strategy::ByFragment, Strategy::ByProjection] {
        let mut off = federation();
        off.set_exec_options(ExecOptions { semijoin: false, ..ExecOptions::default() });
        let off_out = off.run(JOIN_QUERY, strategy).unwrap();
        let on_out = federation().run(JOIN_QUERY, strategy).unwrap();
        assert!(
            on_out.metrics.message_bytes < off_out.metrics.message_bytes,
            "{strategy:?}: semi-join must shrink messages: {} vs {}",
            on_out.metrics.message_bytes,
            off_out.metrics.message_bytes
        );
        assert_eq!(on_out.metrics.semijoins, 1, "{strategy:?}");
        assert!(on_out.metrics.join_keys_shipped > 0, "{strategy:?}: no keyset on the wire");
        assert!(on_out.metrics.join_bytes_saved > 0, "{strategy:?}");
        // front-coding may fire on the off-run's code-motioned key column
        // too — only the `semijoins` counter belongs to the rewrite
        assert_eq!(off_out.metrics.semijoins, 0, "{strategy:?}");
    }
}

/// A dozen seeded fault schedules per strategy with the semi-join on:
/// every schedule ends in the local reference's answer or a typed error.
#[test]
fn semijoin_equivalence_holds_under_chaos() {
    quiet_injected_panics();
    let expected = local_reference();
    for seed in 0..12u64 {
        for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
            let mut f = federation();
            f.set_fault_plan(Some(FaultPlan::uniform(seed, 0.3)));
            match f.run(JOIN_QUERY, strategy) {
                Ok(out) => assert_eq!(out.result, expected, "seed {seed} {strategy:?}"),
                Err(e) => assert!(
                    e.code.is_some(),
                    "seed {seed} {strategy:?}: untyped error {:?}",
                    e.message
                ),
            }
        }
    }
}

/// The key harvest is an ordinary remote call: when the producer's primary
/// replica is killed, the failover ladder redials the stand-in and the
/// join still returns the fault-free answer.
#[test]
fn key_harvest_survives_producer_peer_down() {
    quiet_injected_panics();
    let baseline = federation().run(JOIN_QUERY, Strategy::ByFragment).unwrap();
    assert_eq!(baseline.metrics.semijoins, 1, "fixture must exercise the rewrite");

    let seed = 7u64;
    let mut f = federation();
    f.replicate_peer("A", "A2").unwrap();
    f.replicate_peer("B", "B2").unwrap();
    f.set_replica_seed(seed);
    // kill the host the ladder dials first for the harvest call (peer B
    // is the producer side — its Execute was rewritten to distinct-keys)
    let hosts = f.replica_catalog().hosts_serving_peer("B");
    let primary = rendezvous_order(seed, &hosts)[0].clone();
    f.set_hedge(Some(Duration::from_millis(4)));
    f.set_fault_plan(Some(FaultPlan::uniform(seed, 0.9).with_target(&primary)));

    let out = f.run(JOIN_QUERY, Strategy::ByFragment).unwrap();
    assert_eq!(out.result, baseline.result, "failover changed the join answer");
    assert_eq!(out.metrics.semijoins, 1, "degraded run must keep the semi-join plan");
    assert!(
        out.metrics.replica_failovers + out.metrics.hedges > 0,
        "schedule never hit the primary: {:?}",
        out.metrics
    );
}

/// Flipping the semi-join toggle is a different plan-cache key: on → off
/// misses (never replays the semi-join plan), and back on hits the
/// original entry.
#[test]
fn plan_cache_keys_on_the_semijoin_toggle() {
    let mut f = federation();
    let on = f.run(JOIN_QUERY, Strategy::ByFragment).unwrap();
    assert_eq!(on.metrics.plan_cache_misses, 1);
    assert_eq!(on.metrics.semijoins, 1);

    f.set_exec_options(ExecOptions { semijoin: false, ..ExecOptions::default() });
    let off = f.run(JOIN_QUERY, Strategy::ByFragment).unwrap();
    assert_eq!(off.metrics.plan_cache_misses, 1, "toggle flip must not hit the old plan");
    assert_eq!(off.metrics.semijoins, 0, "cached semi-join plan leaked into an off run");
    assert_eq!(off.result, on.result);

    f.set_exec_options(ExecOptions::default());
    let back = f.run(JOIN_QUERY, Strategy::ByFragment).unwrap();
    assert_eq!(back.metrics.plan_cache_hits, 1, "original semi-join plan should be reused");
    assert_eq!(back.metrics.semijoins, 1);
}
