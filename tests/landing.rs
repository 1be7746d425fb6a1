//! How a finished ladder lands, pinned across changes.
//!
//! Every remote interaction of the coordinator is a failover ladder, and
//! when a ladder (or a whole scatter round) finishes it is billed to the
//! metrics, observed by the health board and traced. The chaos suite proves
//! that two runs of the same code agree; this suite pins what they agree
//! *on*, so a refactor of the landing code that moves one counter, one
//! nanosecond of the simulated clock or one byte of the trace fails here.
//!
//! Each case runs on the simulated carrier with tracing on and a fixed
//! fault seed, and pins `Metrics::counters()`, the serialized and
//! overlapped network durations, and an FNV-1a digest of
//! `Trace::to_json()`. The cases take every landing kind: a lone call, a
//! `for`-loop Bulk RPC, a two-peer scatter round (parallel and
//! sequential), a data-shipping document fetch, and a call whose ladder is
//! exhausted and degrades to data shipping. The constants are what the
//! code produces; a change that moves one says why.

use xqd::{ExecOptions, FaultPlan, Federation, Metrics, NetworkModel, Strategy};

const D: &str = "<a><b><c>one</c></b><b><c>two</c></b></a>";
const E: &str = "<e><c>x</c><c>y</c><c>z</c></e>";

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

struct Case {
    name: &'static str,
    query: &'static str,
    strategy: Strategy,
    parallel_scatter: bool,
    fault: (u64, f64),
    /// What proves the case takes its landing kind: a counter, named, and
    /// its least value.
    kind: (&'static str, fn(&Metrics) -> u64, u64),
    result: &'static str,
    counters: &'static [u64],
    network_ns: u128,
    overlapped_ns: u128,
    trace_digest: u64,
}

const ROUND: &str = r#"count(doc("xrpc://p/d.xml")//c) + count(doc("xrpc://q/e.xml")//c)"#;

const CASES: &[Case] = &[
    Case {
        name: "lone call",
        query: r#"execute at {"p"} params () { count(doc("d.xml")//c) }"#,
        strategy: Strategy::ByValue,
        parallel_scatter: true,
        fault: (7, 0.3),
        kind: ("remote_calls", |m| m.remote_calls, 1),
        result: "atom:2",
        counters: &[679, 0, 3, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        network_ns: 250_305_432,
        overlapped_ns: 250_305_432,
        trace_digest: 13_021_842_815_719_050_325,
    },
    Case {
        name: "bulk rpc",
        query: r#"for $x in (1, 2, 3)
                  return execute at {"p"} params ($n := $x) { $n + count(doc("d.xml")//c) }"#,
        strategy: Strategy::ByValue,
        parallel_scatter: true,
        fault: (7, 0.3),
        kind: ("remote_calls", |m| m.remote_calls, 3),
        result: "atom:3 atom:4 atom:5",
        counters: &[1339, 0, 3, 3, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        network_ns: 250_310_712,
        overlapped_ns: 250_310_712,
        trace_digest: 11_541_064_187_437_438_408,
    },
    Case {
        name: "scatter round",
        query: ROUND,
        strategy: Strategy::ByProjection,
        parallel_scatter: true,
        fault: (3, 0.3),
        kind: ("scatter_rounds", |m| m.scatter_rounds, 1),
        result: "atom:5",
        counters: &[1580, 0, 6, 2, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        network_ns: 8_565_081,
        overlapped_ns: 8_360_769,
        trace_digest: 8_768_781_625_577_946_982,
    },
    Case {
        name: "sequential round, one slot degraded",
        query: ROUND,
        strategy: Strategy::ByProjection,
        parallel_scatter: false,
        fault: (7, 0.3),
        kind: ("fallbacks", |m| m.fallbacks, 1),
        result: "atom:5",
        counters: &[1353, 31, 5, 2, 0, 2, 2, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        network_ns: 10_257_839_559,
        overlapped_ns: 10_257_839_559,
        trace_digest: 12_948_990_537_823_632_705,
    },
    Case {
        name: "document fetch",
        query: ROUND,
        strategy: Strategy::DataShipping,
        parallel_scatter: true,
        fault: (3, 0.3),
        kind: ("doc_fetches", |m| m.doc_fetches, 2),
        result: "atom:5",
        counters: &[0, 101, 3, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        network_ns: 8_253_249,
        overlapped_ns: 8_253_249,
        trace_digest: 6_574_452_989_352_740_485,
    },
    Case {
        name: "scatter round, one slot degraded",
        query: ROUND,
        strategy: Strategy::ByProjection,
        parallel_scatter: true,
        fault: (7, 0.3),
        kind: ("fallbacks", |m| m.fallbacks, 1),
        result: "atom:5",
        counters: &[1353, 31, 5, 2, 1, 2, 2, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        network_ns: 10_257_839_559,
        overlapped_ns: 10_007_531_991,
        trace_digest: 4_365_291_969_835_453_982,
    },
];

#[test]
fn every_landing_kind_is_pinned() {
    quiet_injected_panics();
    let mut failures = Vec::new();
    for case in CASES {
        let mut fed = Federation::new(NetworkModel::lan());
        fed.load_document("p", "d.xml", D).unwrap();
        fed.load_document("q", "e.xml", E).unwrap();
        let options = fed.exec_options();
        fed.set_exec_options(ExecOptions {
            trace: true,
            parallel_scatter: case.parallel_scatter,
            ..options
        });
        fed.set_fault_plan(Some(FaultPlan::uniform(case.fault.0, case.fault.1)));
        let out =
            fed.run(case.query, case.strategy).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let result: Vec<String> = out.result.iter().map(|i| i.to_string()).collect();
        let m = &out.metrics;
        let trace = out.trace.as_ref().expect("a traced run keeps its trace");
        let (counter, read, least) = case.kind;
        assert!(
            read(m) >= least,
            "{}: {counter} < {least}: the case no longer takes its landing kind",
            case.name
        );
        let got = (
            result.join(" "),
            m.counters().to_vec(),
            m.network.as_nanos(),
            m.network_overlapped.as_nanos(),
            xqd_prng::fnv1a(trace.to_json().as_bytes()),
        );
        let want = (
            case.result.to_string(),
            case.counters.to_vec(),
            case.network_ns,
            case.overlapped_ns,
            case.trace_digest,
        );
        if got != want {
            failures.push(format!("{}: got {got:?}, want {want:?}", case.name));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
