//! The indexed path-step engine must be a pure optimization: with
//! `ExecOptions::use_indexes` toggled, every query must produce bit-identical
//! results *and* bit-identical wire traffic under all strategies, and the
//! compiled plan, indexes on and off, must agree with the scan-only
//! reference walker on every axis/name combination over random documents.
//! Randomized with the in-tree deterministic PRNG.

use xqd::xquery::{
    compile_query, parse_query, reference_eval, Evaluator, LocalResolver, StaticContext,
};
use xqd::{ExecOptions, Federation, NetworkModel, Strategy};
use xqd_prng::Rng;

// -- random documents (same shape as the strategy-equivalence suite) --------

fn render_node(rng: &mut Rng, depth: u32, out: &mut String) {
    let leaf = depth >= 3 || rng.gen_bool(0.4);
    let name = if leaf {
        rng.choose(&["item", "entry", "ref", "note"])
    } else {
        rng.choose(&["group", "section", "bundle"])
    };
    out.push('<');
    out.push_str(name);
    if rng.gen_bool(0.5) {
        out.push_str(&format!(" id=\"k{}\"", rng.gen_range(0..6)));
    }
    out.push('>');
    if rng.gen_bool(0.5) {
        out.push_str(&format!("<v>{}</v>", rng.gen_range(0..50)));
    }
    if !leaf {
        for _ in 0..rng.gen_range(0..3) {
            render_node(rng, depth + 1, out);
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

fn arb_doc(rng: &mut Rng) -> String {
    let mut s = String::from("<root>");
    render_node(rng, 0, &mut s);
    s.push_str("</root>");
    s
}

/// A narrow, deeply nested document: every level repeats the same two
/// element names, so descendant steps from nested contexts overlap heavily.
fn deep_doc(levels: usize) -> String {
    let mut s = String::new();
    for i in 0..levels {
        let name = if i % 2 == 0 { "group" } else { "item" };
        s.push_str(&format!("<{name} id=\"k{}\">", i % 6));
    }
    s.push_str("<v>7</v>");
    for i in (0..levels).rev() {
        let name = if i % 2 == 0 { "group" } else { "item" };
        s.push_str(&format!("</{name}>"));
    }
    format!("<root>{s}</root>")
}

/// A flat, very wide document: many same-named siblings under one parent.
fn wide_doc(fanout: usize) -> String {
    let mut s = String::from("<root><group>");
    for i in 0..fanout {
        s.push_str(&format!("<item id=\"k{}\"><v>{}</v></item>", i % 6, i % 50));
    }
    s.push_str("</group></root>");
    s
}

// -- local evaluation: every axis × every name ------------------------------

/// Every XPath axis the parser accepts, stepped from every node of the
/// document, for every name in the alphabet (plus a name the document never
/// uses and one the store never interned), through the plan compiled with
/// indexes on (staircase steps, `//n` fused) and off, against the
/// reference walker's scan.
#[test]
fn every_axis_name_combination_matches_scan() {
    const AXES: &[&str] = &[
        "child",
        "descendant",
        "descendant-or-self",
        "attribute",
        "self",
        "parent",
        "ancestor",
        "ancestor-or-self",
        "following",
        "following-sibling",
        "preceding",
        "preceding-sibling",
    ];
    const NAMES: &[&str] = &["item", "entry", "group", "section", "v", "id", "absent"];

    for case in 0..24u64 {
        let mut rng = Rng::seed_from_u64(0x4944_5845 ^ case.wrapping_mul(0x9E37_79B9));
        let xml = arb_doc(&mut rng);
        let mut store = xqd::xml::Store::new();
        xqd::xml::parse_document(&mut store, &xml, Some("t.xml")).unwrap();

        for axis in AXES {
            for name in NAMES {
                let query = format!(
                    "doc(\"t.xml\")/descendant-or-self::node()/{axis}::{name}"
                );
                let module = parse_query(&query).unwrap();
                let scan = reference_eval(&mut store, &module).unwrap();
                for use_indexes in [true, false] {
                    let plan = compile_query(&module, use_indexes, &StaticContext::default());
                    let mut resolver = LocalResolver;
                    let mut ev = Evaluator::new(&mut store, &module.functions, &mut resolver);
                    let compiled = plan.eval(&mut ev).unwrap();
                    assert_eq!(
                        scan, compiled,
                        "{axis}::{name} diverged (indexes={use_indexes}, case {case})\ndoc={xml}"
                    );
                }
            }
        }
    }
}

// -- federated execution: results AND wire bytes identical ------------------

fn run_with_indexes(
    query: &str,
    doc_a: &str,
    doc_b: &str,
    strategy: Strategy,
    use_indexes: bool,
) -> (Vec<String>, u64) {
    let mut fed = Federation::new(NetworkModel::lan());
    fed.set_exec_options(ExecOptions { use_indexes, ..ExecOptions::default() });
    fed.load_document("peer1", "a.xml", doc_a).unwrap();
    fed.load_document("peer2", "b.xml", doc_b).unwrap();
    let out = fed.run(query, strategy).unwrap();
    (out.result, out.metrics.message_bytes)
}

/// All three wire semantics (plus the data-shipping baseline): toggling the
/// index engine must leave both the canonical result and the total message
/// bytes bit-identical.
#[test]
fn wire_semantics_unchanged_by_indexes() {
    let a = "doc(\"xrpc://peer1/a.xml\")";
    let b = "doc(\"xrpc://peer2/b.xml\")";
    let queries = [
        format!("count({a}//item)"),
        format!("{a}//item/@id"),
        format!("{a}/root/*/v"),
        format!("for $x in {a}//* where $x/v < 25 return name($x)"),
        format!(
            "let $t := (for $x in {a}//* return if ($x/v < 30) then $x else ()) \
             return for $e in {b}//item \
             return if ($e/@id = $t/@id) then $e/v else ()"
        ),
        format!("count(({a}//v)/parent::item)"),
        format!("element out {{ {a}//item/@id }}"),
    ];

    for case in 0..12u64 {
        let mut rng = Rng::seed_from_u64(0x5749_5245 ^ case.wrapping_mul(0x9E37_79B9));
        let doc_a = arb_doc(&mut rng);
        let doc_b = arb_doc(&mut rng);
        let query = &queries[case as usize % queries.len()];
        for strategy in Strategy::ALL {
            let scan = run_with_indexes(query, &doc_a, &doc_b, strategy, false);
            let indexed = run_with_indexes(query, &doc_a, &doc_b, strategy, true);
            assert_eq!(
                scan.0, indexed.0,
                "{strategy:?} result diverged on {query} (case {case})"
            );
            assert_eq!(
                scan.1, indexed.1,
                "{strategy:?} message bytes diverged on {query} (case {case})"
            );
        }
    }
}

/// Runtime projection on deep and wide documents: the projected wire bytes
/// (and results) must not change when the peer evaluates the projection
/// paths through the index engine.
#[test]
fn runtime_projection_unchanged_on_deep_and_wide_docs() {
    let a = "doc(\"xrpc://peer1/a.xml\")";
    let b = "doc(\"xrpc://peer2/b.xml\")";
    let queries = [
        format!("count(({a}//v)/parent::item)"),
        format!("for $g in {a}//group return count($g/descendant::item)"),
        format!(
            "for $e in {b}//item return if ($e/@id = {a}//item/@id) \
             then $e/@id else ()"
        ),
    ];
    for (doc_a, doc_b) in [
        (deep_doc(60), wide_doc(40)),
        (wide_doc(120), deep_doc(30)),
    ] {
        for query in &queries {
            for strategy in [Strategy::ByProjection, Strategy::ByFragment, Strategy::ByValue] {
                let scan = run_with_indexes(query, &doc_a, &doc_b, strategy, false);
                let indexed = run_with_indexes(query, &doc_a, &doc_b, strategy, true);
                assert_eq!(scan.0, indexed.0, "{strategy:?} result diverged on {query}");
                assert_eq!(scan.1, indexed.1, "{strategy:?} bytes diverged on {query}");
            }
        }
    }
}
