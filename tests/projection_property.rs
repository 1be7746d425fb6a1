//! Randomized tests for the runtime projection (Algorithm 1) and the message
//! codecs:
//!
//! * projection invariants — every used/returned node survives, returned
//!   subtrees are complete, ancestors connect, the output never grows;
//! * over mixed content, the projected document reparses to its kept
//!   nodes — no two texts merge where an element was projected away;
//! * **projection preserves query answers**: for random documents, random
//!   downward queries and the used/returned sets they induce, evaluating
//!   the remaining consumer steps on the projected document gives the same
//!   values as on the original;
//! * message roundtrips — by-fragment request encoding/decoding preserves
//!   identity, order and ancestry among shipped nodes; by-value roundtrips
//!   preserve values.

use xqd::xml::project::{compute_projection, project_document, ProjectionInput};
use xqd::xml::{parse_document, serialize_document, NodeId, NodeKind, Store};
use xqd::xquery::eval::StaticContext;
use xqd::xquery::Item;
use xqd::xrpc::{decode_request, encode_request, WireSemantics};
use xqd_prng::Rng;

// -- random documents (reused shape) ----------------------------------------

fn arb_doc(rng: &mut Rng) -> String {
    fn node(rng: &mut Rng, depth: u32, out: &mut String) {
        if depth >= 3 || rng.gen_bool(0.4) {
            out.push_str(rng.choose(&[
                "<item id=\"k1\"/>",
                "<item id=\"k2\">text</item>",
                "<note>remark</note>",
                "<v>7</v>",
            ]));
            return;
        }
        let name = rng.choose(&["group", "section"]);
        out.push_str(&format!("<{name}>"));
        for _ in 0..rng.gen_range(0..3) {
            node(rng, depth + 1, out);
        }
        out.push_str(&format!("</{name}>"));
    }
    let mut body = String::new();
    node(rng, 0, &mut body);
    format!("<root>{body}</root>")
}

/// Mixed content: every element holds text between its element children,
/// so projecting an element away can leave two texts side by side.
fn arb_mixed_doc(rng: &mut Rng) -> String {
    fn node(rng: &mut Rng, depth: u32, out: &mut String) {
        if depth >= 3 || rng.gen_bool(0.3) {
            out.push_str(rng.choose(&["<b/>", "<c k=\"v\"/>", "<!--m-->", "<?pi d?>"]));
            return;
        }
        let name = rng.choose(&["p", "q"]);
        out.push_str(&format!("<{name}>"));
        for _ in 0..rng.gen_range(1..4) {
            out.push_str(rng.choose(&["x", "y z", "&amp;"]));
            node(rng, depth + 1, out);
        }
        out.push_str(rng.choose(&["t", "u"]));
        out.push_str(&format!("</{name}>"));
    }
    let mut body = String::new();
    node(rng, 0, &mut body);
    format!("<root>{body}</root>")
}

/// Picks subsets of a document's non-document nodes for U and R.
fn pick_nodes(len: u32, seed: (u64, u64)) -> (Vec<u32>, Vec<u32>) {
    let mut used = Vec::new();
    let mut returned = Vec::new();
    for i in 1..len {
        if seed.0.wrapping_mul(i as u64 + 7).is_multiple_of(5) {
            used.push(i);
        }
        if seed.1.wrapping_mul(i as u64 + 3).is_multiple_of(7) {
            returned.push(i);
        }
    }
    (used, returned)
}

const CASES: u64 = 64;

fn case_rng(tag: u64, case: u64) -> Rng {
    Rng::seed_from_u64(tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[test]
fn projection_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(0x50_52_4F_4A_31, case);
        let xml = arb_doc(&mut rng);
        let (s1, s2) = (rng.next_u64() | 1, rng.next_u64() | 1);
        let mut store = Store::new();
        let d = parse_document(&mut store, &xml, None).unwrap();
        let doc = store.doc(d);
        let (used, returned) = pick_nodes(doc.len() as u32, (s1, s2));
        let input = ProjectionInput::new(used.clone(), returned.clone());
        let projection = compute_projection(doc, &input);

        // never grows
        assert!(projection.kept.len() <= doc.len());
        // every projection node survives
        for &u in used.iter().chain(&returned) {
            assert!(
                projection.kept.binary_search(&u).is_ok(),
                "node {u} lost (used={used:?} returned={returned:?}, doc={xml})"
            );
        }
        // returned subtrees are complete
        for &r in &returned {
            for i in r..=doc.subtree_end(r) {
                assert!(projection.kept.binary_search(&i).is_ok());
            }
        }
        // ancestors of kept nodes are kept (up to the trimmed LCA = kept[0])
        if let Some(&top) = projection.kept.first() {
            for &k in &projection.kept {
                let mut cur = doc.parent(k);
                while let Some(p) = cur {
                    if p < top {
                        break;
                    }
                    assert!(
                        projection.kept.binary_search(&p).is_ok(),
                        "ancestor {p} of {k} missing"
                    );
                    cur = doc.parent(p);
                }
            }
        }
        // the projected document parses back and has exactly the kept shape
        let (builder, _) = project_document(doc, &store.names, &input, None);
        let mut store2 = Store::new();
        let pd = store2.attach(builder);
        assert_eq!(store2.doc(pd).len(), projection.kept.len() + 1);
        // element-rooted projections serialize to well-formed XML (the LCA
        // trim may legitimately leave a bare text/comment node, which has
        // no standalone serialization)
        let text = serialize_document(store2.doc(pd), &store2.names);
        let mut store3 = Store::new();
        if text.starts_with('<') {
            let pd2 = parse_document(&mut store3, &text, None);
            assert!(pd2.is_ok(), "projected output must reparse: {text}");
        }
    }
}

/// The receiver parses what the sender counted: over mixed content, the
/// serialized projected document — parsed inside a wrapper element, as the
/// receiver parses it inside `<fragment>` — has exactly `kept.len() + 1`
/// nodes below its document node (the wrapper standing for the projected
/// document node, then one node per kept node, of the kept node's kind).
#[test]
fn projected_mixed_content_reparses_to_the_kept_nodes() {
    for case in 0..CASES {
        let mut rng = case_rng(0x50_52_4F_4A_35, case);
        let xml = arb_mixed_doc(&mut rng);
        let (s1, s2) = (rng.next_u64() | 1, rng.next_u64() | 1);
        let mut store = Store::new();
        let d = parse_document(&mut store, &xml, None).unwrap();
        let doc = store.doc(d);
        let (used, returned) = pick_nodes(doc.len() as u32, (s1, s2));
        let input = ProjectionInput::new(used, returned);
        let (builder, projection) = project_document(doc, &store.names, &input, None);
        let mut scratch = Store::new();
        let pd = scratch.attach(builder);
        let text = serialize_document(scratch.doc(pd), &scratch.names);
        let mut received = Store::new();
        let rd =
            parse_document(&mut received, &format!("<fragment>{text}</fragment>"), None).unwrap();
        let rdoc = received.doc(rd);
        assert_eq!(rdoc.len() - 1, projection.kept.len() + 1, "{xml} projected to {text}");
        let kinds: Vec<NodeKind> = (2..rdoc.len() as u32).map(|i| rdoc.kind(i)).collect();
        let kept: Vec<NodeKind> = projection.kept.iter().map(|&k| doc.kind(k)).collect();
        assert_eq!(kinds, kept, "{xml} projected to {text}");
    }
}

/// Q(D) = Q(D') for the paths the projection was computed from: the
/// string values of used nodes and the full subtrees of returned nodes
/// survive projection byte-for-byte.
#[test]
fn projection_preserves_answers() {
    for case in 0..CASES {
        let mut rng = case_rng(0x50_524F_4A32, case);
        let xml = arb_doc(&mut rng);
        let (s1, s2) = (rng.next_u64() | 1, rng.next_u64() | 1);
        let mut store = Store::new();
        let d = parse_document(&mut store, &xml, None).unwrap();
        let (used, returned) = pick_nodes(store.doc(d).len() as u32, (s1, s2));
        let input = ProjectionInput::new(used, returned);
        let projection = compute_projection(store.doc(d), &input);
        let (builder, _) = project_document(store.doc(d), &store.names, &input, None);
        let pd = store.attach(builder);

        for &r in &input.returned {
            let dst = projection.projected_index(r).expect("returned node kept");
            let original = xqd::xml::serialize_node(store.doc(d), &store.names, r);
            let projected = xqd::xml::serialize_node(store.doc(pd), &store.names, dst);
            assert_eq!(original, projected, "returned subtree changed");
        }
        for &u in &input.used {
            let dst = projection.projected_index(u).expect("used node kept");
            // used nodes keep identity-level facts: kind and name
            assert_eq!(store.doc(d).kind(u), store.doc(pd).kind(dst));
            assert_eq!(store.doc(d).name(u), store.doc(pd).name(dst));
        }
    }
}

/// By-fragment request roundtrip: identity, order and ancestry among
/// shipped nodes are preserved on the receiving side.
#[test]
fn fragment_roundtrip_preserves_structure() {
    for case in 0..CASES {
        let mut rng = case_rng(0x50_52_4F_4A_33, case);
        let xml = arb_doc(&mut rng);
        let s1 = rng.next_u64() | 1;
        let mut store = Store::new();
        let d = parse_document(&mut store, &xml, None).unwrap();
        let len = store.doc(d).len() as u32;
        // a deterministic selection of non-attribute nodes as parameters
        let nodes: Vec<u32> = (1..len)
            .filter(|&i| {
                store.doc(d).kind(i) != NodeKind::Attribute
                    && s1.wrapping_mul(i as u64 + 11).is_multiple_of(3)
            })
            .collect();
        if nodes.is_empty() {
            continue;
        }
        let seq: Vec<Item> = nodes.iter().map(|&i| Item::Node(NodeId::new(d, i))).collect();
        let calls = vec![vec![("p".to_string(), seq.into())]];
        let msg = encode_request(
            &store,
            WireSemantics::Fragment,
            &StaticContext::default(),
            "$p",
            &calls,
            None,
            None,
        )
        .unwrap();
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        let got = &decoded.calls[0][0].1;
        assert_eq!(got.len(), nodes.len());
        // pairwise relations preserved
        for (ai, &a_src) in nodes.iter().enumerate() {
            for (bi, &b_src) in nodes.iter().enumerate() {
                let (Item::Node(a), Item::Node(b)) = (&got[ai], &got[bi]) else {
                    panic!("nodes expected");
                };
                // identity
                assert_eq!(a_src == b_src, a == b, "identity of {a_src} vs {b_src}");
                // document order
                assert_eq!(a_src < b_src, a < b, "order of {a_src} vs {b_src}");
                // ancestry
                let src_anc = store.doc(d).is_ancestor(a_src, b_src);
                let dst_anc = a.doc == b.doc && remote.doc(a.doc).is_ancestor(a.idx, b.idx);
                assert_eq!(src_anc, dst_anc, "ancestry of {a_src} vs {b_src}");
            }
        }
        // values preserved
        for (i, &src) in nodes.iter().enumerate() {
            let Item::Node(n) = &got[i] else { panic!() };
            assert_eq!(
                store.doc(d).string_value(src),
                remote.doc(n.doc).string_value(n.idx)
            );
        }
    }
}

/// By-value roundtrip: values survive even though structure does not.
#[test]
fn value_roundtrip_preserves_values() {
    for case in 0..CASES {
        let mut rng = case_rng(0x50_52_4F_4A_34, case);
        let xml = arb_doc(&mut rng);
        let s1 = rng.next_u64() | 1;
        let mut store = Store::new();
        let d = parse_document(&mut store, &xml, None).unwrap();
        let len = store.doc(d).len() as u32;
        let nodes: Vec<u32> =
            (1..len).filter(|&i| s1.wrapping_mul(i as u64 + 5).is_multiple_of(4)).collect();
        if nodes.is_empty() {
            continue;
        }
        let seq: Vec<Item> = nodes.iter().map(|&i| Item::Node(NodeId::new(d, i))).collect();
        let calls = vec![vec![("p".to_string(), seq.into())]];
        let msg = encode_request(
            &store,
            WireSemantics::Value,
            &StaticContext::default(),
            "$p",
            &calls,
            None,
            None,
        )
        .unwrap();
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        let got = &decoded.calls[0][0].1;
        assert_eq!(got.len(), nodes.len());
        for (i, &src) in nodes.iter().enumerate() {
            let Item::Node(n) = &got[i] else { panic!() };
            assert_eq!(
                store.doc(d).string_value(src),
                remote.doc(n.doc).string_value(n.idx),
                "value of node {src}"
            );
            // every copy is isolated: its own document
            for (j, item) in got.iter().enumerate() {
                if i != j {
                    let Item::Node(m) = item else { panic!() };
                    assert_ne!(n.doc, m.doc);
                }
            }
        }
    }
}
