//! Plan-equivalence suite — Section I's invariant, asserted against the
//! scan-only reference walker:
//!
//! > For every strategy, with indexes on or off, running `Q` through the
//! > federation — decomposed, lowered to the flat plan IR ([`xqd::Plan`]),
//! > executed by coordinator and peers over the wire codecs — is
//! > **deep-equal** to the tree-walk reference evaluator on the
//! > *undecomposed* `Q` over one local store holding every document.
//!
//! The two engines share the operator bodies of `xqd_xquery::eval`
//! (arithmetic, comparisons, node sets, constructors, `order by`,
//! predicates, function calls, the axis scan), so a bug in one of those is
//! invisible here; `eval_conformance.rs` pins their results instead. What
//! the reference does on its own is everything this suite exercises:
//! decomposition, the wire codecs, index use and `//n` fusion, constant
//! folding, memo probes, and the scatter / bulk calls.
//!
//! Plus the coordinator's LRU plan cache contract: hit/miss counters are
//! exact, eviction follows recency, a plan is never shared across
//! distinct static contexts, and placement changes do not evict it.

use xqd::xml::Store;
use xqd::xquery::reference_eval;
use xqd::xrpc::canonical_item;
use xqd::{
    parse_query, ExecOptions, Federation, NetworkModel, StaticContext, Strategy,
};

const DOC_A: &str = "<people>\
    <person><name>Ann</name><age>31</age><tutor>Bo</tutor></person>\
    <person><name>Bo</name><age>19</age><tutor>Ann</tutor></person>\
    <person><name>Cy</name><age>25</age><tutor>Ann</tutor></person>\
    </people>";
const DOC_B: &str = "<enrolls>\
    <exam id=\"Ann\"><grade>7</grade></exam>\
    <exam id=\"Cy\"><grade>9</grade></exam>\
    <exam id=\"Zed\"><grade>4</grade></exam>\
    </enrolls>";
/// Mixed content: text between element siblings, which by-projection must
/// not merge into one text node when it drops the element between them.
const DOC_D: &str = "<a>x<b/>y<c/></a>";

/// Fixture queries spanning the compiled surface: plain remote paths,
/// filters with folded constants, cross-peer joins, scatter over two
/// peers, node-set operators, reverse axes, aggregation, and the text
/// nodes of mixed content.
const QUERIES: &[&str] = &[
    "count(doc(\"xrpc://peer1/a.xml\")//person)",
    "doc(\"xrpc://peer1/a.xml\")//person[age < 10 + 20]/name",
    "for $p in doc(\"xrpc://peer1/a.xml\")//person \
     where $p/tutor = doc(\"xrpc://peer1/a.xml\")//person/name \
     return $p/name/text()",
    "for $e in doc(\"xrpc://peer2/b.xml\")//exam \
     where $e/@id = doc(\"xrpc://peer1/a.xml\")//person/name \
     return $e/grade",
    "count(doc(\"xrpc://peer1/a.xml\")//person) + \
     count(doc(\"xrpc://peer2/b.xml\")//exam)",
    "count(doc(\"xrpc://peer1/a.xml\")//name union doc(\"xrpc://peer1/a.xml\")//tutor)",
    "count((doc(\"xrpc://peer1/a.xml\")//age)/parent::person)",
    "sum(for $g in doc(\"xrpc://peer2/b.xml\")//grade return $g)",
    "let $d := doc(\"xrpc://peer1/d.xml\") return ($d/a/text())[1]",
    "let $t := doc(\"xrpc://peer1/d.xml\")/a/text() return (count($t), $t)",
    "count(doc(\"xrpc://peer1/a.xml\")//person[age < 1e400])",
];

fn federation() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document("peer1", "a.xml", DOC_A).unwrap();
    f.load_document("peer2", "b.xml", DOC_B).unwrap();
    f.load_document("peer1", "d.xml", DOC_D).unwrap();
    f
}

/// The reference answer: the tree-walker on the query as written, over one
/// store holding both documents under their `xrpc://` URIs.
fn local_reference(query: &str) -> Vec<String> {
    let mut store = Store::new();
    xqd::xml::parse_document(&mut store, DOC_A, Some("xrpc://peer1/a.xml")).unwrap();
    xqd::xml::parse_document(&mut store, DOC_B, Some("xrpc://peer2/b.xml")).unwrap();
    xqd::xml::parse_document(&mut store, DOC_D, Some("xrpc://peer1/d.xml")).unwrap();
    let module = parse_query(query).unwrap();
    let result = reference_eval(&mut store, &module).unwrap();
    result.iter().map(|i| canonical_item(&store, i)).collect()
}

/// All four strategies × indexes on/off against the local reference. A
/// fresh federation misses its plan cache once and lowers once.
#[test]
fn distributed_execution_matches_the_local_reference() {
    for query in QUERIES {
        let expected = local_reference(query);
        for strategy in Strategy::ALL {
            for use_indexes in [true, false] {
                let mut f = federation();
                f.set_exec_options(ExecOptions { use_indexes, ..ExecOptions::default() });
                let out = f.run(query, strategy).unwrap();
                assert_eq!(
                    out.result, expected,
                    "{strategy:?} indexes={use_indexes}: diverged from local evaluation on {query}"
                );
                assert_eq!(
                    out.metrics.named().plan_cache(),
                    [1, 0, 1],
                    "{strategy:?}: fresh run miscounted its front end on {query}"
                );
            }
        }
    }
}

/// Queries nested right up to the parser's depth bound go through every
/// recursive pass — normalizer, decomposer, compiler, wire printer, both
/// evaluators — on this 2 MiB test thread (the stack a daemon worker has)
/// and still match the local reference. This pins the bound from below:
/// raising it past what an unoptimized build can recurse through fails here.
#[test]
fn nesting_at_the_parser_bound_survives_every_pass() {
    let names = "doc(\"xrpc://peer1/a.xml\")//name";
    let n = 58;
    let shapes = [
        format!("{}{names}{}", "(".repeat(n), ")".repeat(n)),
        format!("{}{names}", "for $x in 1 return ".repeat(n)),
        format!("{}return {names}", "let $x := 1 ".repeat(n)),
        format!("count({}{names}{})", "element e { ".repeat(n), " }".repeat(n)),
        format!("({names}){}", "[1]".repeat(n)),
        format!("1{}", format!(" + count({names})").repeat(n)),
    ];
    for query in &shapes {
        let expected = local_reference(query);
        for strategy in Strategy::ALL {
            let out = federation().run(query, strategy).unwrap();
            assert_eq!(out.result, expected, "{strategy:?} diverged on {query:.60}");
        }
    }
}

/// Exact hit/miss accounting: a fresh federation misses then hits, and the
/// second run skips the front end entirely (`plans_compiled == 0`).
#[test]
fn plan_cache_counts_hits_and_misses_exactly() {
    let mut f = federation();
    let q = QUERIES[0];

    let first = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(first.metrics.plan_cache_misses, 1);
    assert_eq!(first.metrics.plan_cache_hits, 0);
    assert_eq!(first.metrics.plans_compiled, 1);
    assert_eq!(f.plan_cache_len(), 1);

    let second = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(second.metrics.plan_cache_hits, 1);
    assert_eq!(second.metrics.plan_cache_misses, 0);
    assert_eq!(second.metrics.plans_compiled, 0);
    assert_eq!(second.result, first.result);

    // a different strategy is a different key, not a stale hit
    let other = f.run(q, Strategy::ByFragment).unwrap();
    assert_eq!(other.metrics.plan_cache_misses, 1);
    assert_eq!(f.plan_cache_len(), 2);

    f.clear_plan_cache();
    assert_eq!(f.plan_cache_len(), 0);
    let again = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(again.metrics.plan_cache_misses, 1);
}

/// LRU eviction follows recency: with capacity 3, touching Q1 before
/// inserting Q4 evicts Q2 (the least recently used), not Q1.
#[test]
fn plan_cache_evicts_least_recently_used() {
    let mut f = federation();
    f.set_exec_options(ExecOptions { plan_cache_size: 3, ..ExecOptions::default() });
    let [q1, q2, q3, q4] = [QUERIES[0], QUERIES[1], QUERIES[5], QUERIES[7]];

    for q in [q1, q2, q3] {
        assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    }
    assert_eq!(f.plan_cache_len(), 3);

    // touch Q1 so Q2 becomes the least recently used entry
    assert_eq!(f.run(q1, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);

    // inserting Q4 at capacity evicts exactly one entry
    assert_eq!(f.run(q4, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    assert_eq!(f.plan_cache_len(), 3);

    // Q2 was the victim...
    assert_eq!(f.run(q2, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    // ...and the touched Q1 survived both evictions
    assert_eq!(f.run(q1, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);
}

/// Distinct static contexts never share a plan: the fingerprint is part of
/// the cache key, so changing `base_uri` misses and changing it back hits
/// the original entry again.
#[test]
fn plan_cache_keys_on_static_context() {
    let mut f = federation();
    let q = QUERIES[0];

    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);

    f.set_static_context(StaticContext {
        base_uri: "xrpc://coordinator/".to_string(),
        ..StaticContext::default()
    });
    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);
    assert_eq!(f.plan_cache_len(), 2);

    f.set_static_context(StaticContext::default());
    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_hits, 1);
}

/// Placement is not an input of a plan: loading a document after a run
/// leaves the cached plan valid, so the next run hits the cache and still
/// returns the local reference (hosts are picked per call, not per plan).
#[test]
fn plan_cache_survives_a_document_load() {
    let mut f = federation();
    let q = QUERIES[0];

    assert_eq!(f.run(q, Strategy::ByValue).unwrap().metrics.plan_cache_misses, 1);

    f.load_document("peer3", "c.xml", "<c/>").unwrap();
    let after = f.run(q, Strategy::ByValue).unwrap();
    assert_eq!(after.metrics.plan_cache_hits, 1);
    assert_eq!(after.metrics.plan_cache_misses, 0);
    assert_eq!(after.result, local_reference(q));
}

/// Capacity zero disables the cache outright — every run is a miss and the
/// cache stays empty — but execution still compiles and runs the plan.
#[test]
fn zero_capacity_disables_caching() {
    let mut f = federation();
    f.set_exec_options(ExecOptions { plan_cache_size: 0, ..ExecOptions::default() });
    let q = QUERIES[0];

    let baseline = local_reference(q);
    for _ in 0..3 {
        let out = f.run(q, Strategy::ByValue).unwrap();
        assert_eq!(out.metrics.plan_cache_misses, 1);
        assert_eq!(out.metrics.plan_cache_hits, 0);
        assert_eq!(out.metrics.plans_compiled, 1);
        assert_eq!(out.result, baseline);
    }
    assert_eq!(f.plan_cache_len(), 0);
}
