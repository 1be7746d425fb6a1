//! Randomized tests for the XML substrate: parse ∘ serialize identity, store
//! invariants, and axis algebra. Cases are generated with the in-tree
//! deterministic PRNG — every run explores the same documents, and a failure
//! message names the case seed so it can be replayed in isolation.

use xqd_prng::Rng;
use xqd_xml::axes::{axis_nodes, Axis};
use xqd_xml::{parse_document, serialize_document, NodeKind, Store};

/// Random well-formed XML: element names from a small alphabet, attributes,
/// text with characters that exercise escaping, and the markup the shredder
/// copies in runs — CDATA beside text and references, decimal and hex
/// character references, references at either end of a run and next to
/// non-ASCII text, `'`-quoted attributes holding `"`, and PIs.
fn arb_xml(rng: &mut Rng) -> String {
    fn node(rng: &mut Rng, depth: u32, out: &mut String) {
        // leaves get likelier as we descend, bottoming out at depth 4
        if depth >= 4 || rng.gen_bool(0.3 + 0.15 * depth as f64) {
            match rng.gen_range(0..3) {
                0 => {
                    let t = rng.choose(&[
                        "plain",
                        "a < b",
                        "x & y",
                        "quote\"quote",
                        "tick'tick",
                        "ünïcode 中文",
                        "  spaces  ",
                    ]);
                    xqd_xml::serialize::escape_text(t, out);
                }
                // raw markup: written as is, not escaped
                1 => out.push_str(rng.choose(&[
                    "<![CDATA[cd<at>a]]>",
                    "<![CDATA[]]>",
                    "pre<![CDATA[&]]>post",
                    "&lt;<![CDATA[x]]>&gt;",
                    "&#65;&#x42;&#X43;",
                    "&amp;start",
                    "end&apos;",
                    "ü&amp;中",
                    "&#x4E2D;é&quot;",
                    "<?pi do it?>",
                    "<?go?>",
                ])),
                _ => out.push_str(rng.choose(&[
                    "<x/>",
                    "<y k=\"v\"/>",
                    "<z a=\"1\" b=\"2\"/>",
                    "<!--c-->",
                ])),
            }
            return;
        }
        let name = rng.choose(&["a", "b", "c", "d"]);
        let attr = if rng.gen_bool(0.4) {
            format!(
                " {}",
                rng.choose(&["k=\"1\"", "k=\"a&amp;b\"", "k='say \"hi\"'", "k='&#x41;&apos;ü'", "k=''"])
            )
        } else {
            String::new()
        };
        let children = rng.gen_range(0..4);
        if children == 0 {
            out.push_str(&format!("<{name}{attr}/>"));
        } else {
            out.push_str(&format!("<{name}{attr}>"));
            for _ in 0..children {
                node(rng, depth + 1, out);
            }
            out.push_str(&format!("</{name}>"));
        }
    }
    let mut body = String::new();
    node(rng, 0, &mut body);
    format!("<doc>{body}</doc>")
}

const CASES: u64 = 128;
const BASE_SEED: u64 = 0x584D_4C00; // "XML"

fn for_each_case(mut check: impl FnMut(&str)) {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(BASE_SEED ^ case.wrapping_mul(0x9E37_79B9));
        let xml = arb_xml(&mut rng);
        check(&xml);
    }
}

/// serialize ∘ parse reaches a fixpoint after one round (the first
/// round canonicalizes quote styles and entity forms).
#[test]
fn serialize_parse_fixpoint() {
    for_each_case(|xml| {
        let mut s1 = Store::new();
        let d1 = parse_document(&mut s1, xml, None).unwrap();
        let once = serialize_document(s1.doc(d1), &s1.names);
        let mut s2 = Store::new();
        let d2 = parse_document(&mut s2, &once, None).unwrap();
        let twice = serialize_document(s2.doc(d2), &s2.names);
        assert_eq!(once, twice, "not a fixpoint for {xml}");
        // and the two stores agree structurally
        assert_eq!(s1.doc(d1).len(), s2.doc(d2).len());
        assert_eq!(s1.doc(d1).string_value(0), s2.doc(d2).string_value(0));
    });
}

/// Preorder/subtree invariants of the arena store.
#[test]
fn store_invariants() {
    for_each_case(|xml| {
        let mut s = Store::new();
        let d = parse_document(&mut s, xml, None).unwrap();
        let doc = s.doc(d);
        let n = doc.len() as u32;
        assert_eq!(doc.subtree_end(0), n - 1, "document spans everything");
        for i in 0..n {
            let end = doc.subtree_end(i);
            assert!(end >= i && end < n);
            // parent brackets the child range
            if let Some(p) = doc.parent(i) {
                assert!(p < i);
                assert!(doc.subtree_end(p) >= end);
                assert!(doc.is_ancestor(p, i));
            }
            // children partition the subtree (minus the attribute block)
            if doc.kind(i) == NodeKind::Element {
                let mut covered: u32 = 0;
                for a in doc.attributes(i) {
                    assert_eq!(doc.parent(a), Some(i));
                    covered += 1;
                }
                for c in doc.children(i) {
                    assert_eq!(doc.parent(c), Some(i));
                    covered += doc.subtree_end(c) - c + 1;
                }
                assert_eq!(covered, end - i, "subtree of {i} fully covered in {xml}");
            }
        }
    });
}

/// Axis algebra: parent inverts child; following/preceding partition
/// the document around each node's ancestors and subtree.
#[test]
fn axis_algebra() {
    for_each_case(|xml| {
        let mut s = Store::new();
        let d = parse_document(&mut s, xml, None).unwrap();
        let doc = s.doc(d);
        for i in 0..doc.len() as u32 {
            if doc.kind(i) == NodeKind::Attribute {
                continue;
            }
            // child∘parent identity
            let mut kids = Vec::new();
            axis_nodes(doc, i, Axis::Child, &mut kids);
            for c in kids {
                let mut parent = Vec::new();
                axis_nodes(doc, c, Axis::Parent, &mut parent);
                assert_eq!(parent, vec![i]);
            }
            // ancestors ∪ self ∪ descendants ∪ preceding ∪ following =
            // all non-attribute nodes
            let mut all = Vec::new();
            for axis in [
                Axis::AncestorOrSelf,
                Axis::Descendant,
                Axis::Preceding,
                Axis::Following,
            ] {
                axis_nodes(doc, i, axis, &mut all);
            }
            all.sort_unstable();
            let expected: Vec<u32> = (0..doc.len() as u32)
                .filter(|&x| doc.kind(x) != NodeKind::Attribute)
                .collect();
            assert_eq!(all, expected, "partition around node {i} in {xml}");
        }
    });
}

type Shredded<'a> = Vec<(NodeKind, &'a str, Option<&'a str>)>;

/// The exact preorder `(kind, name, value)` list tricky inputs shred to. The
/// table was written against the character-at-a-time kernel, so the
/// run-copying one is held to its answers: runs split by CDATA and
/// references merge into one text node, an empty CDATA adds none, PIs keep
/// a trimmed body, an `xml` PI (any case) is dropped, `Some("")` is kept.
#[test]
fn node_sequence_is_pinned() {
    use NodeKind::{Attribute as At, Comment as Co, Document as Do, Element as El, Pi, Text as Tx};
    let table: &[(&str, Shredded<'static>)] = &[
        (
            "<a>x&amp;<![CDATA[y]]>z<!--c-->w</a>",
            vec![(Do, "", None), (El, "a", None), (Tx, "", Some("x&yz")), (Co, "", Some("c")), (Tx, "", Some("w"))],
        ),
        ("<a>&lt;</a>", vec![(Do, "", None), (El, "a", None), (Tx, "", Some("<"))]),
        ("<a>&#65;b&#x42;&#X43;</a>", vec![(Do, "", None), (El, "a", None), (Tx, "", Some("AbBC"))]),
        ("<a><![CDATA[]]></a>", vec![(Do, "", None), (El, "a", None)]),
        ("<a><![CDATA[x]]><![CDATA[y]]>&gt;</a>", vec![(Do, "", None), (El, "a", None), (Tx, "", Some("xy>"))]),
        (
            "<a k='say \"hi\"' j=\"it's\" e=\"\"/>",
            vec![
                (Do, "", None),
                (El, "a", None),
                (At, "k", Some("say \"hi\"")),
                (At, "j", Some("it's")),
                (At, "e", Some("")),
            ],
        ),
        (
            "<a><?pi   body  ?><?empty?><?xml-stylesheet x?><?XML y?></a>",
            vec![
                (Do, "", None),
                (El, "a", None),
                (Pi, "pi", Some("body")),
                (Pi, "empty", Some("")),
                (Pi, "xml-stylesheet", Some("x")),
            ],
        ),
        (
            "<?xml version=\"1.0\"?><!--pre--><a/><?post x?>",
            vec![(Do, "", None), (Co, "", Some("pre")), (El, "a", None), (Pi, "post", Some("x"))],
        ),
        ("<a>ü&amp;中&#x4E2D;é</a>", vec![(Do, "", None), (El, "a", None), (Tx, "", Some("ü&中中é"))]),
        (
            "<a> <b/> </a>",
            vec![(Do, "", None), (El, "a", None), (Tx, "", Some(" ")), (El, "b", None), (Tx, "", Some(" "))],
        ),
        (
            "<!DOCTYPE a [<!ELEMENT a ANY>]><a>]]&gt;a>b</a>",
            vec![(Do, "", None), (El, "a", None), (Tx, "", Some("]]>a>b"))],
        ),
        (
            "<a\n  x = '&#x10FFFF;'\t><p:b xmlns:p=\"urn:x\">t</p:b></a >",
            vec![
                (Do, "", None),
                (El, "a", None),
                (At, "x", Some("\u{10FFFF}")),
                (El, "p:b", None),
                (At, "xmlns:p", Some("urn:x")),
                (Tx, "", Some("t")),
            ],
        ),
        (
            "<a k='&amp;&lt;x&gt;'><!----></a>",
            vec![(Do, "", None), (El, "a", None), (At, "k", Some("&<x>")), (Co, "", Some(""))],
        ),
    ];
    for (xml, want) in table {
        let mut s = Store::new();
        let d = parse_document(&mut s, xml, None).unwrap();
        let doc = s.doc(d);
        let got: Shredded<'_> =
            (0..doc.len() as u32).map(|i| (doc.kind(i), s.names.resolve(doc.name(i)), doc.value(i))).collect();
        assert_eq!(&got, want, "{xml:?}");
    }
}

/// Malformed inputs and the exact error each is rejected with, written
/// against the character-at-a-time kernel: the run-copying one may not
/// accept anything it rejected, nor move an offset or reword a message.
#[test]
fn parse_errors_are_pinned() {
    let table: &[(&str, usize, &str)] = &[
        // references
        ("<a>x&amp</a>", 4, "unterminated entity reference"),
        ("<a k=\"&lt\"/>", 6, "unterminated entity reference"),
        ("<a>&nbsp;</a>", 3, "unknown entity &nbsp;"),
        ("<a>ü&bogus;</a>", 5, "unknown entity &bogus;"),
        ("<a>&#xZZ;</a>", 3, "bad character reference &#xZZ;"),
        ("<a>&#12a;</a>", 3, "bad character reference &#12a;"),
        ("<a>&#xD800;</a>", 3, "bad character reference &#xD800;"),
        ("<a>&#;</a>", 3, "bad character reference &#;"),
        ("<a k='&#1114112;'/>", 6, "bad character reference &#1114112;"),
        // tags
        ("<a><b></a></b>", 9, "mismatched close tag </a>, open <b>"),
        ("<a k=\"1\"", 8, "unterminated start tag"),
        ("<a", 2, "unterminated start tag"),
        ("<a>", 3, "unterminated element <a>"),
        ("<a>text", 7, "unterminated element <a>"),
        ("<a k \"v\"/>", 5, "expected \"=\""),
        ("<a/ >", 2, "expected \"/>\""),
        ("<a></a x>", 7, "expected \">\""),
        // sections
        ("<a><!-- x</a>", 7, "unterminated section, expected \"-->\""),
        ("<a><![CDATA[x</a>", 12, "unterminated section, expected \"]]>\""),
        ("<a><?pi x</a>", 8, "unterminated section, expected \"?>\""),
        ("<?xml version=\"1.0\"", 5, "unterminated section, expected \"?>\""),
        ("<!DOCTYPE a", 11, "unterminated DOCTYPE"),
        ("<a k=\"v/>", 6, "unterminated section, expected \"\\\"\""),
        // document shape
        ("<a/>x", 4, "trailing content after root element"),
        ("<a/><b/>", 4, "trailing content after root element"),
        ("", 0, "expected root element"),
        ("text", 0, "expected root element"),
        ("<!--c-->", 8, "expected root element"),
        // names and attribute values
        ("<1a/>", 1, "expected name"),
        ("<a 1=\"x\"/>", 3, "expected name"),
        ("<a k=v/>", 5, "expected quoted attribute value"),
    ];
    for &(xml, offset, message) in table {
        let mut s = Store::new();
        let err = parse_document(&mut s, xml, None).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (offset, message), "{xml:?}");
        assert_eq!(s.doc_count(), 0, "a rejected document is not attached");
    }
}
