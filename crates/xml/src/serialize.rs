//! XML serializer, and the one preorder walk over a node set that both
//! serializing and copying ([`DocBuilder::copy_subtree`]) are calls of.
//!
//! Produces compact (no indentation) XML so serialize ∘ parse is the
//! identity on our data model — the property the XRPC message roundtrip and
//! the property tests rely on. Byte counts from this serializer are the
//! bandwidth numbers reported in the Figure 7 / Figure 10 reproductions.

use crate::name::NameTable;
use crate::store::{DocBuilder, Document, NodeKind};

/// Escapes text content (`&`, `<`, `>`).
pub fn escape_text(s: &str, out: &mut String) {
    escape(s, out, false);
}

/// Escapes attribute values (also `"`).
pub fn escape_attr(s: &str, out: &mut String) {
    escape(s, out, true);
}

/// Copies `s` to `out` with `&`, `<`, `>` (and `"` when `quote`) replaced
/// by their entities: the runs between two such bytes are copied whole.
/// The special bytes are ASCII, so every cut falls on a character boundary.
fn escape(s: &str, out: &mut String, quote: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// What [`write_nodes`] drives: a [`DocBuilder`] copying the nodes, or an
/// [`XmlWriter`] serializing them.
pub(crate) trait NodeSink {
    /// Opens an element, or writes a node of any other non-document kind.
    fn node(&mut self, kind: NodeKind, name: &str, value: &str);
    fn end_element(&mut self, name: &str);
}

/// The one preorder walk over a node set: `nodes` in document order, each
/// written under its nearest ancestor in the set (an open-element stack),
/// the document node transparent. A whole subtree is the range
/// `root..=subtree_end`; Algorithm 1's kept set is another such set.
pub(crate) fn write_nodes(
    doc: &Document,
    names: &NameTable,
    nodes: impl IntoIterator<Item = u32>,
    sink: &mut impl NodeSink,
) {
    let mut open: Vec<u32> = Vec::new();
    for k in nodes {
        while let Some(&top) = open.last() {
            if doc.is_ancestor(top, k) {
                break;
            }
            sink.end_element(names.resolve(doc.name(top)));
            open.pop();
        }
        let kind = doc.kind(k);
        if kind != NodeKind::Document {
            sink.node(kind, names.resolve(doc.name(k)), doc.value(k).unwrap_or(""));
        }
        if kind == NodeKind::Element {
            open.push(k);
        }
    }
    while let Some(top) = open.pop() {
        sink.end_element(names.resolve(doc.name(top)));
    }
}

impl NodeSink for DocBuilder {
    fn node(&mut self, kind: NodeKind, name: &str, value: &str) {
        match kind {
            NodeKind::Element => _ = self.start_element(name),
            NodeKind::Attribute => _ = self.attribute(name, value),
            NodeKind::Text => _ = self.text(value),
            NodeKind::Comment => _ = self.comment(value),
            NodeKind::Pi => _ = self.pi(name, value),
            NodeKind::Document => {}
        }
    }

    fn end_element(&mut self, _name: &str) {
        DocBuilder::end_element(self);
    }
}

/// Compact XML text: a start tag stays open for attributes until content
/// follows, and an element that gets none is written `<a/>`. An attribute
/// outside any element is written `name="value"`.
struct XmlWriter<'a> {
    out: &'a mut String,
    tag_open: bool,
}

impl NodeSink for XmlWriter<'_> {
    fn node(&mut self, kind: NodeKind, name: &str, value: &str) {
        let out = &mut *self.out;
        if kind == NodeKind::Attribute {
            if self.tag_open {
                out.push(' ');
            }
            out.push_str(name);
            out.push_str("=\"");
            escape_attr(value, out);
            out.push('"');
            return;
        }
        if std::mem::take(&mut self.tag_open) {
            out.push('>');
        }
        match kind {
            NodeKind::Element => {
                out.push('<');
                out.push_str(name);
                self.tag_open = true;
            }
            NodeKind::Text => escape_text(value, out),
            NodeKind::Comment => {
                out.push_str("<!--");
                out.push_str(value);
                out.push_str("-->");
            }
            NodeKind::Pi => {
                out.push_str("<?");
                out.push_str(name);
                if !value.is_empty() {
                    out.push(' ');
                    out.push_str(value);
                }
                out.push_str("?>");
            }
            NodeKind::Attribute | NodeKind::Document => {}
        }
    }

    fn end_element(&mut self, name: &str) {
        if std::mem::take(&mut self.tag_open) {
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
    }
}

/// Serializes `nodes` of `doc` (in document order) into `out`, each under
/// its nearest ancestor in the set — for Algorithm 1's kept set, the
/// projected document's text.
pub fn serialize_nodes_into(
    doc: &Document,
    names: &NameTable,
    nodes: impl IntoIterator<Item = u32>,
    out: &mut String,
) {
    write_nodes(doc, names, nodes, &mut XmlWriter { out, tag_open: false });
}

/// Serializes the subtree rooted at `idx` into `out`.
///
/// Serializing the document node serializes its children in order; an
/// attribute node on its own serializes as `name="value"` (used only in
/// diagnostics — attributes inside elements are emitted by their element).
pub fn serialize_node_into(doc: &Document, names: &NameTable, idx: u32, out: &mut String) {
    serialize_nodes_into(doc, names, idx..=doc.subtree_end(idx), out);
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
