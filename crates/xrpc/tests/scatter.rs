//! Parallel scatter-gather executor tests.
//!
//! The contract under test: fanning independent `execute at` calls out
//! across scoped threads changes **when** messages cross the simulated wire
//! (overlapped instead of one-after-another) but changes *nothing
//! observable* — canonical results, message bytes, transfer and call counts
//! are bit-identical to the sequential loop, under every wire semantics.
//!
//! The socket coordinator fans out through the same routine; that its
//! exchanges really are in flight together is shown at the end of this
//! file with a rendezvous transport instead of a stopwatch (identity over
//! real TCP is `daemon.rs`'s job).

use xqd_core::Strategy;
use xqd_xrpc::{ExecOptions, Federation, NetworkModel, METRIC_NAMES};

/// Three peers, each holding a differently-sized slice of the same shape.
fn fed3(model: NetworkModel) -> Federation {
    let mut f = Federation::new(model);
    for (peer, n) in [("p1", 3usize), ("p2", 5), ("p3", 2)] {
        let mut xml = String::from("<site>");
        for i in 0..n {
            xml.push_str(&format!(
                "<item id=\"{peer}-{i}\"><v>{}</v></item>",
                (i * 7 + peer.len()) % 23
            ));
        }
        xml.push_str("</site>");
        f.load_document(peer, "d.xml", &xml).unwrap();
    }
    f
}

/// A query that decomposes into one scatter round of three independent
/// calls (one per peer).
const SCATTER_Q: &str = r#"(count(doc("xrpc://p1/d.xml")//item),
                            sum(doc("xrpc://p2/d.xml")//v),
                            count(doc("xrpc://p3/d.xml")//item))"#;

fn seq_opts() -> ExecOptions {
    ExecOptions { parallel_scatter: false, ..ExecOptions::default() }
}

#[test]
fn plan_reports_the_scatter_round() {
    let mut f = fed3(NetworkModel::lan());
    let out = f.run(SCATTER_Q, Strategy::ByValue).unwrap();
    assert_eq!(out.plan.scatter_rounds, vec![3]);
}

/// One query per shape a round takes: a sequence's items, a let-chain, and
/// the two operands of `+`, of a general comparison and of `union`.
const ROUND_SHAPES: [&str; 5] = [
    SCATTER_Q,
    r#"let $a := count(doc("xrpc://p1/d.xml")//item)
       let $b := sum(doc("xrpc://p2/d.xml")//v)
       return $a + $b"#,
    r#"count(doc("xrpc://p1/d.xml")//item) + sum(doc("xrpc://p3/d.xml")//v)"#,
    r#"count(doc("xrpc://p2/d.xml")//item) = count(doc("xrpc://p3/d.xml")//item)"#,
    // by-value ships no node-set operand by itself: the calls are written out
    r#"(execute at { "p1" } params () { doc("xrpc://p1/d.xml")//item })
       union (execute at { "p2" } params () { doc("xrpc://p2/d.xml")//item })"#,
];

#[test]
fn parallel_matches_sequential_everything_observable() {
    let rounds = METRIC_NAMES.iter().position(|&n| n == "scatter_rounds").unwrap();
    for query in ROUND_SHAPES {
        for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
            let mut par = fed3(NetworkModel::lan());
            let par_out = par.run(query, strategy).unwrap();
            assert_eq!(par_out.plan.scatter_rounds.len(), 1, "fixture lost its round: {query}");

            let mut seq = fed3(NetworkModel::lan());
            seq.set_exec_options(seq_opts());
            let seq_out = seq.run(query, strategy).unwrap();

            assert_eq!(par_out.result, seq_out.result, "{strategy:?} results diverge: {query}");
            assert_eq!(
                par_out.metrics.message_bytes, seq_out.metrics.message_bytes,
                "{strategy:?} message bytes diverge: {query}"
            );
            assert_eq!(par_out.metrics.transfers, seq_out.metrics.transfers, "{query}");
            assert_eq!(par_out.metrics.remote_calls, seq_out.metrics.remote_calls, "{query}");
            // the scatter round is only counted when it actually fans out
            assert_eq!(par_out.metrics.scatter_rounds, 1, "{strategy:?} {query}");
            assert_eq!(seq_out.metrics.scatter_rounds, 0, "{strategy:?} {query}");
            let (mut par_counters, seq_counters) =
                (par_out.metrics.counters(), seq_out.metrics.counters());
            par_counters[rounds] = 0;
            assert_eq!(par_counters, seq_counters, "{strategy:?} counters diverge: {query}");
            // sequential execution never overlaps
            assert_eq!(seq_out.metrics.network_overlapped, seq_out.metrics.network);
        }
    }
}

#[test]
fn overlapped_network_is_cheaper_under_wan() {
    let mut f = fed3(NetworkModel::wan());
    let out = f.run(SCATTER_Q, Strategy::ByValue).unwrap();
    let m = out.metrics;
    // 3 request/response pairs serialized vs the slowest single chain:
    // overlap must save at least one full round trip of latency
    assert!(
        m.network_overlapped + NetworkModel::wan().transfer_time(0) * 2 <= m.network,
        "no overlap benefit: {:?} vs {:?}",
        m.network_overlapped,
        m.network
    );
    assert!(m.wall_clock_overlapped() < m.wall_clock_serialized());
}

#[test]
fn let_chain_scatters_too() {
    // independent let-bound calls to distinct peers form a scatter round
    // even without the sequence shape
    let q = r#"let $a := count(doc("xrpc://p1/d.xml")//item)
               let $b := count(doc("xrpc://p2/d.xml")//item)
               return $a + $b"#;
    let mut f = fed3(NetworkModel::lan());
    let out = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(out.plan.scatter_rounds, vec![2]);
    assert_eq!(out.metrics.scatter_rounds, 1);
    assert_eq!(out.result, vec!["atom:8"]);

    let mut seq = fed3(NetworkModel::lan());
    seq.set_exec_options(seq_opts());
    let seq_out = seq.run(q, Strategy::ByValue).unwrap();
    assert_eq!(seq_out.result, out.result);
    assert_eq!(seq_out.metrics.message_bytes, out.metrics.message_bytes);
}

#[test]
fn dependent_let_chain_stays_sequential() {
    // $b references $a, so the calls are *not* independent — no scatter
    let q = r#"let $a := count(doc("xrpc://p1/d.xml")//item)
               let $b := execute at {"p2"} params ($n := $a)
                         { count(doc("xrpc://p2/d.xml")//item) + $n }
               return $b"#;
    let mut f = fed3(NetworkModel::lan());
    let out = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(out.metrics.scatter_rounds, 0);
    assert_eq!(out.result, vec!["atom:8"]);
}

#[test]
fn reentrant_same_peer_nested_call() {
    // p1's shipped body calls back into p1 itself: the executor must not
    // deadlock on the (already taken) peer slot, and the loopback message
    // still pays its wire bytes
    let mut f = fed3(NetworkModel::lan());
    let q = r#"execute at {"p1"} params () {
                 count(doc("d.xml")//item) +
                 (execute at {"p1"} params () { sum(doc("d.xml")//item/v) })
               }"#;
    let out = f.run(q, Strategy::ByValue).unwrap();
    // 3 items; v values for p1 (len 2): (0*7+2)%23=2, (7+2)%23=9, (14+2)%23=16 → 27
    assert_eq!(out.result, vec!["atom:30"]);
    assert_eq!(out.metrics.remote_calls, 2);
    assert_eq!(out.metrics.transfers, 4, "outer + nested request/response pairs");
    assert!(out.metrics.message_bytes > 0);
}

#[test]
fn scatter_round_including_own_peer_falls_back_to_sequential() {
    // a round where one target is the executing peer itself cannot take its
    // own slot — the executor must detect this and run the loop inline
    let mut f = fed3(NetworkModel::lan());
    let q = r#"execute at {"p3"} params () {
                 (execute at {"p1"} params () { count(doc("xrpc://p1/d.xml")//item) },
                  execute at {"p3"} params () { count(doc("d.xml")//item) })
               }"#;
    let out = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(out.result, vec!["atom:3", "atom:2"]);
}

#[test]
fn calls_of_one_bulk_rpc_keep_their_own_probe_tables() {
    // a Bulk RPC whose body is a value join against a key column that
    // depends on the call's parameter: every call runs the shared plan with
    // run state of its own, so each call counts against its own keys —
    // 8, 9, … 13 matches, not the first call's
    let mut xml = String::from("<site>");
    for i in 0..20 {
        xml.push_str(&format!("<item id=\"k{i}\"><v>{i}</v></item>"));
    }
    xml.push_str("</site>");
    let q = r#"for $n in (8, 9, 10, 11, 12, 13)
               return execute at { "p2" } params ($n := $n) {
                   let $keys := subsequence(doc("d.xml")//item, 1, $n)
                   return count(for $i in doc("d.xml")//item
                                return if ($i/v = $keys/v) then $i else ())
               }"#;
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("p1", "d.xml", "<site/>").unwrap();
    f.load_document("p2", "d.xml", &xml).unwrap();
    let out = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(
        out.result,
        vec!["atom:8", "atom:9", "atom:10", "atom:11", "atom:12", "atom:13"]
    );
    assert_eq!(out.metrics.transfers, 2, "one Bulk RPC carries the six calls");
}

#[test]
fn unknown_peer_in_scatter_round_is_an_error() {
    let q = r#"(count(doc("xrpc://p1/d.xml")//item),
                count(doc("xrpc://nowhere/d.xml")//item))"#;
    let mut f = fed3(NetworkModel::lan());
    let err = f.run(q, Strategy::ByValue).unwrap_err();
    assert!(err.to_string().contains("nowhere"), "{err}");
}

// ---------------------------------------------------------------------------
// the socket coordinator: overlap proven without a stopwatch
// ---------------------------------------------------------------------------

mod rendezvous {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::Duration;

    use xqd_core::Strategy;
    use xqd_xrpc::{
        ExecOptions, Federation, NetworkModel, RetryPolicy, SimTransport, SocketFederation,
        Transport, XrpcError,
    };

    const PEERS: [(&str, &str); 2] =
        [("p1", "<site><item/><item/><item/></site>"), ("p2", "<site><item/><item/></site>")];
    const TWO_PEER_Q: &str = r#"(count(doc("xrpc://p1/d.xml")//item),
                                 count(doc("xrpc://p2/d.xml")//item))"#;

    /// In-process single-peer federations behind one [`Transport`] whose
    /// every exchange first waits until a second exchange has arrived too —
    /// a two-party rendezvous that can time out (`std::sync::Barrier`
    /// cannot). An exchange that finds no partner within its budget is a
    /// typed timeout.
    struct RendezvousTransport {
        peers: BTreeMap<String, SimTransport>,
        arrived: Mutex<usize>,
        partner: Condvar,
    }

    impl RendezvousTransport {
        fn new() -> Self {
            let peers = PEERS
                .iter()
                .map(|(peer, xml)| {
                    let mut f = Federation::new(NetworkModel::lan());
                    f.load_document(peer, "d.xml", xml).unwrap();
                    (peer.to_string(), f.transport())
                })
                .collect();
            RendezvousTransport { peers, arrived: Mutex::new(0), partner: Condvar::new() }
        }
    }

    impl Transport for RendezvousTransport {
        fn exchange(&self, peer: &str, request: &str, budget: Duration) -> Result<String, XrpcError> {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.partner.notify_all();
            let (arrived, wait) =
                self.partner.wait_timeout_while(arrived, budget, |n| *n < 2).unwrap();
            if wait.timed_out() {
                return Err(XrpcError::Timeout { peer: peer.to_string(), deadline: budget });
            }
            drop(arrived);
            self.peers[peer].exchange(peer, request, budget)
        }
    }

    fn run(parallel_scatter: bool, deadline: Duration) -> Result<Vec<String>, String> {
        let mut fed = SocketFederation::new(Arc::new(RendezvousTransport::new()));
        fed.set_exec_options(ExecOptions {
            parallel_scatter,
            retry: RetryPolicy { max_attempts: 1, deadline, ..RetryPolicy::default() },
            ..ExecOptions::default()
        });
        match fed.run(TWO_PEER_Q, Strategy::ByValue) {
            Ok(out) => Ok(out.result),
            Err(e) => Err(e.code.clone().unwrap_or_else(|| format!("untyped: {e}"))),
        }
    }

    /// The round completes only if both exchanges are in flight together.
    #[test]
    fn socket_scatter_round_has_both_exchanges_in_flight_together() {
        let mut sim = Federation::new(NetworkModel::lan());
        for (peer, xml) in PEERS {
            sim.load_document(peer, "d.xml", xml).unwrap();
        }
        let expected = sim.run(TWO_PEER_Q, Strategy::ByValue).unwrap();
        assert_eq!(expected.plan.scatter_rounds, vec![2]);
        assert_eq!(run(true, Duration::from_secs(60)), Ok(expected.result));
    }

    /// With the toggle off the same transport starves: the first exchange
    /// never meets a partner, and the query fails typed instead of hanging.
    #[test]
    fn sequential_socket_scatter_never_meets_its_partner() {
        assert_eq!(run(false, Duration::from_millis(300)), Err("xrpc:timeout".to_string()));
    }
}
