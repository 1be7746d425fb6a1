//! XML serializer.
//!
//! Produces compact (no indentation) XML so serialize ∘ parse is the
//! identity on our data model — the property the XRPC message roundtrip and
//! the property tests rely on. Byte counts from this serializer are the
//! bandwidth numbers reported in the Figure 7 / Figure 10 reproductions.

use crate::name::NameTable;
use crate::store::{Document, NodeKind};

/// Escapes text content (`&`, `<`, `>`).
pub fn escape_text(s: &str, out: &mut String) {
    escape(s, out, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        _ => None,
    });
}

/// Escapes attribute values (also `"`).
pub fn escape_attr(s: &str, out: &mut String) {
    escape(s, out, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    });
}

/// Copies `s` to `out` with every byte `entity` names replaced: the runs
/// between two such bytes are copied whole. The special bytes are ASCII,
/// so every cut falls on a character boundary.
fn escape(s: &str, out: &mut String, entity: impl Fn(u8) -> Option<&'static str>) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b) {
            out.push_str(&s[run..i]);
            out.push_str(e);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Serializes the subtree rooted at `idx` into `out`.
///
/// Serializing the document node serializes its children in order; an
/// attribute node on its own serializes as `name="value"` (used only in
/// diagnostics — attributes inside elements are emitted by their element).
pub fn serialize_node_into(doc: &Document, names: &NameTable, idx: u32, out: &mut String) {
    match doc.kind(idx) {
        NodeKind::Document => {
            for c in doc.children(idx) {
                serialize_node_into(doc, names, c, out);
            }
        }
        NodeKind::Element => {
            let name = names.resolve(doc.name(idx));
            out.push('<');
            out.push_str(name);
            for a in doc.attributes(idx) {
                out.push(' ');
                out.push_str(names.resolve(doc.name(a)));
                out.push_str("=\"");
                escape_attr(doc.value(a).unwrap_or(""), out);
                out.push('"');
            }
            if doc.first_child(idx).is_none() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in doc.children(idx) {
                    serialize_node_into(doc, names, c, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
        NodeKind::Attribute => {
            out.push_str(names.resolve(doc.name(idx)));
            out.push_str("=\"");
            escape_attr(doc.value(idx).unwrap_or(""), out);
            out.push('"');
        }
        NodeKind::Text => escape_text(doc.value(idx).unwrap_or(""), out),
        NodeKind::Comment => {
            out.push_str("<!--");
            out.push_str(doc.value(idx).unwrap_or(""));
            out.push_str("-->");
        }
        NodeKind::Pi => {
            out.push_str("<?");
            out.push_str(names.resolve(doc.name(idx)));
            let v = doc.value(idx).unwrap_or("");
            if !v.is_empty() {
                out.push(' ');
                out.push_str(v);
            }
            out.push_str("?>");
        }
    }
}

/// Serializes the subtree rooted at `idx` to a fresh string.
pub fn serialize_node(doc: &Document, names: &NameTable, idx: u32) -> String {
    let mut out = String::new();
    serialize_node_into(doc, names, idx, &mut out);
    out
}

/// Serializes a whole document (no XML declaration, compact form).
pub fn serialize_document(doc: &Document, names: &NameTable) -> String {
    serialize_node(doc, names, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::store::{build_into, Store};

    #[test]
    fn roundtrip_simple() {
        let mut s = Store::new();
        let input = "<a x=\"1\"><b>hi</b><c/>tail</a>";
        let d = parse_document(&mut s, input, None).unwrap();
        assert_eq!(serialize_document(s.doc(d), &s.names), input);
    }

    #[test]
    fn escaping() {
        let mut s = Store::new();
        let d = build_into(&mut s, None, |b| {
            b.start_element("a");
            b.attribute("q", "say \"<hi>\" & bye");
            b.text("1 < 2 & 3 > 2");
            b.end_element();
        });
        let out = serialize_document(s.doc(d), &s.names);
        assert_eq!(
            out,
            "<a q=\"say &quot;&lt;hi&gt;&quot; &amp; bye\">1 &lt; 2 &amp; 3 &gt; 2</a>"
        );
        // and it parses back to the same value
        let mut s2 = Store::new();
        let d2 = parse_document(&mut s2, &out, None).unwrap();
        assert_eq!(s2.doc(d2).string_value(0), "1 < 2 & 3 > 2");
    }

    #[test]
    fn empty_element_self_closes() {
        let mut s = Store::new();
        let d = build_into(&mut s, None, |b| {
            b.start_element("a");
            b.start_element("b");
            b.attribute("k", "v");
            b.end_element();
            b.end_element();
        });
        assert_eq!(serialize_document(s.doc(d), &s.names), "<a><b k=\"v\"/></a>");
    }

    #[test]
    fn comment_and_pi() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><!--note--><?app run?></a>", None).unwrap();
        assert_eq!(serialize_document(s.doc(d), &s.names), "<a><!--note--><?app run?></a>");
    }

    #[test]
    fn subtree_serialization() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><b i=\"1\"><c/></b></a>", None).unwrap();
        // node 2 is <b>
        assert_eq!(serialize_node(s.doc(d), &s.names, 2), "<b i=\"1\"><c/></b>");
    }
}
