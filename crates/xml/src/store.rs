//! Arena document store.
//!
//! Nodes are stored in **preorder**: a node's arena index is its preorder
//! rank, and every node records the rank of its last descendant
//! (`subtree_end`). This is the pre/size encoding used by MonetDB/XQuery's
//! relational XML storage, and it gives the O(1) structural primitives that
//! both the XQuery evaluator and the runtime projection Algorithm 1 assume:
//!
//! * document order  = integer comparison of preorder ranks,
//! * `a` is ancestor of `d`  ⇔  `a.idx < d.idx && d.idx <= a.subtree_end`,
//! * "skip the subtree of `cur`"  =  jump to `cur.subtree_end + 1`.
//!
//! Attribute nodes are stored contiguously right after their owner element
//! (matching the XDM document-order rule "attributes follow their element and
//! precede its children"); the child/descendant axes skip them.
//!
//! Node values live in one text arena per document: a record holds the
//! `start..end` byte span of its value, so shredding a document allocates
//! two growing buffers, not one box per text or attribute node, and
//! releasing it frees those two.

use std::collections::HashMap;

use crate::index::NameIndex;
use crate::name::{NameId, NameTable};
use crate::serialize::write_nodes;

/// Identifier of a document within a [`Store`].
///
/// Document ids are assigned in load order; document order *across*
/// documents follows `DocId` order (stable and implementation-defined, as
/// XQuery permits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// Global node identity: document plus preorder rank.
///
/// Equality of `NodeId`s *is* XQuery node identity (the `is` operator);
/// the derived ordering *is* document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    pub doc: DocId,
    pub idx: u32,
}

impl NodeId {
    pub fn new(doc: DocId, idx: u32) -> Self {
        NodeId { doc, idx }
    }
}

/// The seven XDM node kinds we model (namespace nodes are out of scope,
/// as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Document,
    Element,
    Attribute,
    Text,
    Comment,
    Pi,
}

const NO_PARENT: u32 = u32::MAX;

/// One arena slot: 24 bytes, no heap payload.
#[derive(Debug, Clone)]
pub(crate) struct NodeRecord {
    pub kind: NodeKind,
    pub name: NameId,
    pub parent: u32,
    /// Preorder rank of the last node in this node's subtree (inclusive).
    /// Leaves (and attributes) have `subtree_end == own index`.
    pub subtree_end: u32,
    /// Byte span in the document's text arena of the value of a
    /// text/comment/PI node or an attribute; empty for the rest.
    pub start: u32,
    pub end: u32,
}

/// Converts a text arena offset to a span bound.
fn span_bound(offset: usize) -> u32 {
    u32::try_from(offset).expect("a document's text arena exceeds 4 GiB")
}

/// Extra per-node metadata attached by XRPC when a fragment is shredded from
/// a message: the paper's "Class 2" context properties (Problem 5), carried
/// as `xrpc:base-uri` / `xrpc:document-uri` attributes on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeMeta {
    pub base_uri: Option<String>,
    pub document_uri: Option<String>,
}

/// A single XML document (or constructed / shipped fragment).
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<NodeRecord>,
    /// Every node value, back to back; records index it by span.
    text: String,
    /// `fn:document-uri` of the document; `None` for constructed fragments.
    pub uri: Option<String>,
    /// Static base URI; defaults to `uri`.
    pub base_uri: Option<String>,
    /// Map from ID attribute value to the *element* owning the attribute.
    pub(crate) id_map: HashMap<Box<str>, u32>,
    /// XRPC shipped-node metadata overrides, keyed by node index.
    pub meta: HashMap<u32, NodeMeta>,
    /// Lazily built name index (see [`crate::index`]); `None` until the
    /// first indexed axis step touches this document.
    pub(crate) name_index: Option<NameIndex>,
}

impl Document {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn kind(&self, idx: u32) -> NodeKind {
        self.nodes[idx as usize].kind
    }

    pub fn name(&self, idx: u32) -> NameId {
        self.nodes[idx as usize].name
    }

    /// The value of a text/comment/PI/attribute node; `None` for element
    /// and document nodes.
    pub fn value(&self, idx: u32) -> Option<&str> {
        let rec = &self.nodes[idx as usize];
        match rec.kind {
            NodeKind::Document | NodeKind::Element => None,
            _ => Some(self.span(rec)),
        }
    }

    fn span(&self, rec: &NodeRecord) -> &str {
        &self.text[rec.start as usize..rec.end as usize]
    }

    pub fn parent(&self, idx: u32) -> Option<u32> {
        let p = self.nodes[idx as usize].parent;
        (p != NO_PARENT).then_some(p)
    }

    pub fn subtree_end(&self, idx: u32) -> u32 {
        self.nodes[idx as usize].subtree_end
    }

    /// O(1) ancestor test: is `anc` a proper ancestor of `desc`?
    pub fn is_ancestor(&self, anc: u32, desc: u32) -> bool {
        anc < desc && desc <= self.subtree_end(anc)
    }

    /// Iterates the attributes of `idx` (empty for non-elements): the
    /// attribute block right after it.
    pub fn attributes(&self, idx: u32) -> impl Iterator<Item = u32> + '_ {
        (idx + 1..self.nodes.len() as u32).take_while(move |&a| {
            let rec = &self.nodes[a as usize];
            rec.parent == idx && rec.kind == NodeKind::Attribute
        })
    }

    /// First non-attribute child.
    pub fn first_child(&self, idx: u32) -> Option<u32> {
        let mut c = idx + 1;
        let end = self.subtree_end(idx);
        while c <= end {
            let rec = &self.nodes[c as usize];
            if rec.kind == NodeKind::Attribute {
                c = rec.subtree_end + 1;
            } else {
                return Some(c);
            }
        }
        None
    }

    /// Next sibling on the child axis (skips nothing: attributes are never
    /// siblings of children because their parent is the element itself).
    pub fn next_sibling(&self, idx: u32) -> Option<u32> {
        let rec = &self.nodes[idx as usize];
        if rec.kind == NodeKind::Attribute || rec.parent == NO_PARENT {
            return None;
        }
        let next = rec.subtree_end + 1;
        if (next as usize) < self.nodes.len() && self.nodes[next as usize].parent == rec.parent {
            Some(next)
        } else {
            None
        }
    }

    /// Previous sibling on the child axis. O(children) via forward scan.
    pub fn prev_sibling(&self, idx: u32) -> Option<u32> {
        let parent = self.parent(idx)?;
        if self.kind(idx) == NodeKind::Attribute {
            return None;
        }
        let mut prev = None;
        let mut c = self.first_child(parent);
        while let Some(ch) = c {
            if ch == idx {
                return prev;
            }
            prev = Some(ch);
            c = self.next_sibling(ch);
        }
        None
    }

    /// Iterates the non-attribute children of `idx`.
    pub fn children(&self, idx: u32) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.first_child(idx);
        std::iter::from_fn(move || {
            let c = cur?;
            cur = self.next_sibling(c);
            Some(c)
        })
    }

    /// Concatenated text content per the XDM `string-value` rules.
    pub fn string_value(&self, idx: u32) -> String {
        let rec = &self.nodes[idx as usize];
        match rec.kind {
            NodeKind::Text | NodeKind::Comment | NodeKind::Pi | NodeKind::Attribute => {
                self.span(rec).to_string()
            }
            NodeKind::Document | NodeKind::Element => {
                let mut out = String::new();
                let end = rec.subtree_end;
                let mut i = idx + 1;
                while i <= end {
                    let r = &self.nodes[i as usize];
                    if r.kind == NodeKind::Text {
                        out.push_str(self.span(r));
                    }
                    if r.kind == NodeKind::Attribute {
                        // attributes do not contribute to element string value
                        i = r.subtree_end + 1;
                        continue;
                    }
                    i += 1;
                }
                out
            }
        }
    }

    /// [`Document::string_value`] without building it, when it is one span
    /// of the text arena: a text, attribute, comment or PI node, or an
    /// element or document with at most one text descendant (`""` with
    /// none). `None` when the value is the concatenation of two or more.
    pub fn string_value_span(&self, idx: u32) -> Option<&str> {
        let rec = &self.nodes[idx as usize];
        if !matches!(rec.kind, NodeKind::Document | NodeKind::Element) {
            return Some(self.span(rec));
        }
        let mut texts = self.nodes[idx as usize + 1..=rec.subtree_end as usize]
            .iter()
            .filter(|r| r.kind == NodeKind::Text);
        match (texts.next(), texts.next()) {
            (None, _) => Some(""),
            (Some(text), None) => Some(self.span(text)),
            (Some(_), Some(_)) => None,
        }
    }

    /// Element owning an `id="…"` attribute with the given value, if any.
    pub fn element_by_id(&self, id: &str) -> Option<u32> {
        self.id_map.get(id).copied()
    }

    /// All elements owning an ID attribute (unordered).
    pub fn id_map_values(&self) -> Vec<u32> {
        self.id_map.values().copied().collect()
    }

    /// All (element, idref-value) pairs, used by `fn:idref`.
    pub fn idref_attributes<'a>(
        &'a self,
        names: &'a NameTable,
    ) -> impl Iterator<Item = (u32, &'a str)> + 'a {
        let idref = names.get("idref");
        self.nodes.iter().enumerate().filter_map(move |(i, rec)| {
            if rec.kind == NodeKind::Attribute && Some(rec.name) == idref {
                Some((i as u32, self.span(rec)))
            } else {
                None
            }
        })
    }

    /// The cached name index, if [`Store::ensure_name_index`] has run.
    pub fn name_index(&self) -> Option<&NameIndex> {
        self.name_index.as_ref()
    }
}

/// The document store of one peer: a shared name table plus the documents.
#[derive(Debug, Clone)]
pub struct Store {
    pub names: NameTable,
    docs: Vec<Document>,
    by_uri: HashMap<String, DocId>,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    pub fn new() -> Self {
        Store { names: NameTable::new(), docs: Vec::new(), by_uri: HashMap::new() }
    }

    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.0 as usize]
    }

    pub fn doc_mut(&mut self, id: DocId) -> &mut Document {
        &mut self.docs[id.0 as usize]
    }

    pub fn doc_by_uri(&self, uri: &str) -> Option<DocId> {
        self.by_uri.get(uri).copied()
    }

    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    pub fn docs(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs.iter().enumerate().map(|(i, d)| (DocId(i as u32), d))
    }

    /// Attaches a finished builder, interning its local names into the
    /// store-wide table. Returns the new document's id.
    pub fn attach(&mut self, builder: DocBuilder) -> DocId {
        let DocBuilder { mut nodes, text, local_names, uri, base_uri, open, .. } = builder;
        assert!(open.len() <= 1, "attach() called with unclosed elements");
        // Remap local name ids to store-wide ids.
        let remap: Vec<NameId> =
            (0..local_names.len()).map(|i| self.names.intern(local_names.resolve(NameId(i as u32)))).collect();
        for rec in &mut nodes {
            rec.name = remap[rec.name.0 as usize];
        }
        // Build the ID map (attributes literally named "id", as the paper's
        // fn:id() treatment scans ID-typed attributes by name).
        let id_name = self.names.get("id");
        let mut id_map = HashMap::new();
        if let Some(id_name) = id_name {
            for rec in &nodes {
                if rec.kind == NodeKind::Attribute && rec.name == id_name {
                    let value = &text[rec.start as usize..rec.end as usize];
                    id_map.entry(value.into()).or_insert(rec.parent);
                }
            }
        }
        let doc = Document {
            nodes,
            text,
            uri: uri.clone(),
            base_uri,
            id_map,
            meta: HashMap::new(),
            name_index: None,
        };
        let id = DocId(self.docs.len() as u32);
        self.docs.push(doc);
        if let Some(u) = uri {
            self.by_uri.insert(u, id);
        }
        id
    }

    /// Drops every document at or above `mark` (a [`Store::doc_count`]
    /// taken earlier) together with its URI registration, invalidating all
    /// their node ids. Request-scoped documents — decoded envelopes,
    /// shipped fragments, constructed results — are released this way once
    /// the reply that needed them is encoded. Interned names stay.
    pub fn truncate_docs(&mut self, mark: usize) {
        self.docs.truncate(mark);
        self.by_uri.retain(|_, id| (id.0 as usize) < mark);
    }

    /// Builds and caches the document's name index if absent. Documents are
    /// immutable after [`Store::attach`], so a built index stays valid for
    /// the document's lifetime.
    pub fn ensure_name_index(&mut self, id: DocId) {
        let i = id.0 as usize;
        if self.docs[i].name_index.is_none() {
            let index = NameIndex::build(&self.docs[i]);
            self.docs[i].name_index = Some(index);
        }
    }

    /// Reference wrapper for ergonomic traversal.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        NodeRef { store: self, id }
    }
}

/// A `(store, node)` pair with convenience accessors.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    pub store: &'a Store,
    pub id: NodeId,
}

impl<'a> NodeRef<'a> {
    pub fn doc(&self) -> &'a Document {
        self.store.doc(self.id.doc)
    }

    pub fn kind(&self) -> NodeKind {
        self.doc().kind(self.id.idx)
    }

    pub fn name(&self) -> &'a str {
        self.store.names.resolve(self.doc().name(self.id.idx))
    }

    pub fn name_id(&self) -> NameId {
        self.doc().name(self.id.idx)
    }

    pub fn parent(&self) -> Option<NodeRef<'a>> {
        self.doc().parent(self.id.idx).map(|p| NodeRef {
            store: self.store,
            id: NodeId::new(self.id.doc, p),
        })
    }

    pub fn string_value(&self) -> String {
        self.doc().string_value(self.id.idx)
    }

    pub fn children(&self) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let store = self.store;
        let doc = self.id.doc;
        self.doc().children(self.id.idx).map(move |c| NodeRef { store, id: NodeId::new(doc, c) })
    }

    pub fn attributes(&self) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let store = self.store;
        let doc = self.id.doc;
        self.doc().attributes(self.id.idx).map(move |c| NodeRef { store, id: NodeId::new(doc, c) })
    }

    /// Value of a named attribute, if present.
    pub fn attribute(&self, name: &str) -> Option<&'a str> {
        self.attribute_node(name).and_then(|a| a.doc().value(a.id.idx))
    }

    /// The named attribute node, if present.
    pub fn attribute_node(&self, name: &str) -> Option<NodeRef<'a>> {
        let name_id = self.store.names.get(name)?;
        self.attributes().find(|a| a.name_id() == name_id)
    }

    /// First child element with the given name.
    pub fn child_element(&self, name: &str) -> Option<NodeRef<'a>> {
        self.child_elements(name).next()
    }

    /// Child elements with the given name, in document order.
    pub fn child_elements(&self, name: &str) -> impl Iterator<Item = NodeRef<'a>> + 'a {
        let name_id = self.store.names.get(name);
        self.children()
            .filter(move |c| c.kind() == NodeKind::Element && Some(c.name_id()) == name_id)
    }
}

/// Incremental preorder document builder.
///
/// Owns its data (including a *local* name interner), so it can be driven
/// while the target [`Store`] is still readable — required when deep-copying
/// subtrees from existing documents (element constructors, message
/// serialization).
#[derive(Debug)]
pub struct DocBuilder {
    nodes: Vec<NodeRecord>,
    /// The document's text arena: each value is appended once, here.
    text: String,
    local_names: NameTable,
    /// Stack of open element indices.
    open: Vec<u32>,
    uri: Option<String>,
    base_uri: Option<String>,
    /// True while attributes may still be added to the innermost element.
    attrs_open: bool,
}

impl DocBuilder {
    /// Starts a document. `uri == None` yields a constructed fragment.
    pub fn new(uri: Option<&str>) -> Self {
        let mut b = DocBuilder {
            nodes: Vec::new(),
            text: String::new(),
            local_names: NameTable::new(),
            open: Vec::new(),
            uri: uri.map(str::to_string),
            base_uri: uri.map(str::to_string),
            attrs_open: false,
        };
        b.nodes.push(NodeRecord {
            kind: NodeKind::Document,
            name: NameId::NONE,
            parent: NO_PARENT,
            subtree_end: 0,
            start: 0,
            end: 0,
        });
        b.open.push(0);
        b
    }

    pub fn set_base_uri(&mut self, base: &str) {
        self.base_uri = Some(base.to_string());
    }

    /// Appends a record under the innermost open node whose value is the
    /// text arena from `from` to its end. Its `subtree_end` is its own
    /// index until [`DocBuilder::end_element`] closes it.
    fn push(&mut self, kind: NodeKind, name: NameId, from: usize) -> u32 {
        let idx = self.nodes.len() as u32;
        let parent = self.parent_idx();
        let (start, end) = (span_bound(from), span_bound(self.text.len()));
        self.nodes.push(NodeRecord { kind, name, parent, subtree_end: idx, start, end });
        idx
    }

    fn parent_idx(&self) -> u32 {
        *self.open.last().expect("builder has no open node")
    }

    /// The text arena, for the parser to decode a value into in place; the
    /// tail it writes becomes a node through [`DocBuilder::text_since`] or
    /// [`DocBuilder::attribute_since`].
    pub(crate) fn text_arena(&mut self) -> &mut String {
        &mut self.text
    }

    /// Opens an element.
    pub fn start_element(&mut self, name: &str) -> u32 {
        let name = self.local_names.intern(name);
        let idx = self.push(NodeKind::Element, name, self.text.len());
        self.open.push(idx);
        self.attrs_open = true;
        idx
    }

    /// Adds an attribute to the innermost open element. Must precede any
    /// child content, preserving the preorder attribute-block invariant.
    pub fn attribute(&mut self, name: &str, value: &str) -> u32 {
        let from = self.text.len();
        self.text.push_str(value);
        self.attribute_since(name, from);
        self.nodes.len() as u32 - 1
    }

    /// [`DocBuilder::attribute`] whose value is the text arena from `from`;
    /// returns the interned name, for the parser's uniqueness check.
    pub(crate) fn attribute_since(&mut self, name: &str, from: usize) -> NameId {
        assert!(
            self.attrs_open,
            "attribute() must be called before child content of the element"
        );
        let name = self.local_names.intern(name);
        self.push(NodeKind::Attribute, name, from);
        name
    }

    /// Appends a text node (empty strings are dropped, per XDM).
    pub fn text(&mut self, value: &str) -> Option<u32> {
        let from = self.text.len();
        self.text.push_str(value);
        self.text_since(from)
    }

    /// [`DocBuilder::text`] whose value is the text arena from `from`.
    pub(crate) fn text_since(&mut self, from: usize) -> Option<u32> {
        if self.text.len() == from {
            return None;
        }
        self.attrs_open = false;
        Some(self.push(NodeKind::Text, NameId::NONE, from))
    }

    pub fn comment(&mut self, value: &str) -> u32 {
        self.leaf(NodeKind::Comment, NameId::NONE, value)
    }

    pub fn pi(&mut self, target: &str, value: &str) -> u32 {
        let name = self.local_names.intern(target);
        self.leaf(NodeKind::Pi, name, value)
    }

    fn leaf(&mut self, kind: NodeKind, name: NameId, value: &str) -> u32 {
        self.attrs_open = false;
        let from = self.text.len();
        self.text.push_str(value);
        self.push(kind, name, from)
    }

    /// Closes the innermost element, fixing its `subtree_end`.
    pub fn end_element(&mut self) {
        let idx = self.open.pop().expect("end_element without start_element");
        assert_ne!(idx, 0, "cannot close the document node");
        let end = (self.nodes.len() - 1) as u32;
        self.nodes[idx as usize].subtree_end = end;
        self.attrs_open = false;
    }

    /// Deep-copies the subtree rooted at `src_idx` of `src` (resolving names
    /// through `src_names`) as new content of the innermost open element.
    ///
    /// Copying a document node copies its children instead (XQuery content
    /// semantics). Attribute nodes are copied as attributes of the current
    /// element.
    pub fn copy_subtree(&mut self, src: &Document, src_names: &NameTable, src_idx: u32) {
        write_nodes(src, src_names, src_idx..=src.subtree_end(src_idx), self);
    }

    /// Finalizes the document-node `subtree_end`. Called by [`Store::attach`].
    pub fn finish(mut self) -> DocBuilder {
        assert_eq!(self.open.len(), 1, "unclosed elements at finish()");
        let end = (self.nodes.len() - 1) as u32;
        self.nodes[0].subtree_end = end;
        self
    }

    /// Number of nodes built so far (including the document node).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

/// Convenience: build + attach in one call for tests and small fixtures.
pub fn build_into(store: &mut Store, uri: Option<&str>, f: impl FnOnce(&mut DocBuilder)) -> DocId {
    let mut b = DocBuilder::new(uri);
    f(&mut b);
    store.attach(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(store: &mut Store) -> DocId {
        // <a><b id="1"><c/>t</b><d/></a>
        build_into(store, Some("sample.xml"), |b| {
            b.start_element("a");
            b.start_element("b");
            b.attribute("id", "1");
            b.start_element("c");
            b.end_element();
            b.text("t");
            b.end_element();
            b.start_element("d");
            b.end_element();
            b.end_element();
        })
    }

    #[test]
    fn preorder_layout_and_subtree_end() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let doc = store.doc(d);
        // 0=doc 1=a 2=b 3=@id 4=c 5=text 6=d
        assert_eq!(doc.len(), 7);
        assert_eq!(doc.kind(0), NodeKind::Document);
        assert_eq!(doc.kind(1), NodeKind::Element);
        assert_eq!(doc.kind(3), NodeKind::Attribute);
        assert_eq!(doc.subtree_end(0), 6);
        assert_eq!(doc.subtree_end(1), 6);
        assert_eq!(doc.subtree_end(2), 5);
        assert_eq!(doc.subtree_end(4), 4);
        assert_eq!(doc.subtree_end(6), 6);
    }

    #[test]
    fn ancestor_test_is_o1() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let doc = store.doc(d);
        assert!(doc.is_ancestor(1, 4));
        assert!(doc.is_ancestor(2, 5));
        assert!(!doc.is_ancestor(4, 2));
        assert!(!doc.is_ancestor(2, 6));
        assert!(!doc.is_ancestor(2, 2), "not a *proper* ancestor of itself");
    }

    #[test]
    fn child_axis_skips_attributes() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let doc = store.doc(d);
        let kids: Vec<u32> = doc.children(2).collect();
        assert_eq!(kids, vec![4, 5]); // c element and text, not @id
        let attrs: Vec<u32> = doc.attributes(2).collect();
        assert_eq!(attrs, vec![3]);
    }

    #[test]
    fn siblings() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let doc = store.doc(d);
        assert_eq!(doc.next_sibling(2), Some(6));
        assert_eq!(doc.next_sibling(6), None);
        assert_eq!(doc.prev_sibling(6), Some(2));
        assert_eq!(doc.prev_sibling(2), None);
        assert_eq!(doc.next_sibling(4), Some(5));
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let doc = store.doc(d);
        assert_eq!(doc.string_value(1), "t");
        assert_eq!(doc.string_value(2), "t");
        assert_eq!(doc.string_value(3), "1");
        assert_eq!(doc.string_value(4), "");
    }

    /// Over every node of every kind: a span is the string value, and there
    /// is no span exactly when two or more text nodes make the value up.
    #[test]
    fn string_value_span_is_the_string_value_or_none() {
        let mut store = Store::new();
        let xml = "<r a=\"x\"><e/><t> 7 </t><m>1<c/>2</m><n><c>3</c></n><k><!--9--></k>\
                   <!--c--><?p v?><o><i><j>d</j></i>e<i/></o>tail</r>";
        let d = crate::parse_document(&mut store, xml, None).unwrap();
        let doc = store.doc(d);
        let mut spans = 0;
        for idx in 0..doc.len() as u32 {
            let texts = match doc.kind(idx) {
                NodeKind::Document | NodeKind::Element => (idx + 1..=doc.subtree_end(idx))
                    .filter(|&i| doc.kind(i) == NodeKind::Text)
                    .count(),
                _ => 0,
            };
            match doc.string_value_span(idx) {
                Some(s) => {
                    assert_eq!(s, doc.string_value(idx), "node {idx}");
                    assert!(texts < 2, "node {idx} has {texts} texts");
                    spans += 1;
                }
                None => assert!(texts >= 2, "node {idx} has {texts} texts"),
            }
        }
        // r, the document, m and o are concatenations; every other node a span
        assert_eq!(doc.len() - spans, 4);
    }

    #[test]
    fn id_map_is_built_on_attach() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let doc = store.doc(d);
        assert_eq!(doc.element_by_id("1"), Some(2));
        assert_eq!(doc.element_by_id("nope"), None);
    }

    #[test]
    fn uri_lookup() {
        let mut store = Store::new();
        let d = sample(&mut store);
        assert_eq!(store.doc_by_uri("sample.xml"), Some(d));
        assert_eq!(store.doc_by_uri("other.xml"), None);
    }

    #[test]
    fn truncate_drops_documents_and_their_uris() {
        let mut store = Store::new();
        let kept = sample(&mut store);
        let mark = store.doc_count();
        let mut b = DocBuilder::new(Some("scratch.xml"));
        b.start_element("tmp");
        b.end_element();
        store.attach(b.finish());
        store.attach(DocBuilder::new(None).finish());
        assert_eq!(store.doc_count(), mark + 2);
        store.truncate_docs(mark);
        assert_eq!(store.doc_count(), mark);
        assert_eq!(store.doc_by_uri("scratch.xml"), None);
        assert_eq!(store.doc_by_uri("sample.xml"), Some(kept));
        // a mark at or past the end is a no-op
        store.truncate_docs(mark + 5);
        assert_eq!(store.doc_count(), mark);
    }

    #[test]
    fn node_ids_order_across_documents() {
        let mut store = Store::new();
        let d1 = sample(&mut store);
        let d2 = sample(&mut store);
        assert!(NodeId::new(d1, 6) < NodeId::new(d2, 0));
    }

    #[test]
    fn copy_subtree_roundtrip() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let mut b = DocBuilder::new(None);
        b.start_element("wrap");
        {
            let doc = store.doc(d);
            b.copy_subtree(doc, &store.names, 2);
        }
        b.end_element();
        let d2 = store.attach(b.finish());
        let copy = store.doc(d2);
        // wrap > b(@id) > c, text
        assert_eq!(copy.len(), 6);
        let b_el = copy.children(1).next().unwrap();
        assert_eq!(store.names.resolve(copy.name(b_el)), "b");
        assert_eq!(copy.string_value(b_el), "t");
        let attr = copy.attributes(b_el).next().unwrap();
        assert_eq!(copy.value(attr), Some("1"));
    }

    #[test]
    fn noderef_attribute_lookup() {
        let mut store = Store::new();
        let d = sample(&mut store);
        let n = store.node(NodeId::new(d, 2));
        assert_eq!(n.attribute("id"), Some("1"));
        assert_eq!(n.attribute("missing"), None);
        assert_eq!(n.name(), "b");
    }

    #[test]
    fn node_record_is_24_bytes() {
        assert!(std::mem::size_of::<NodeRecord>() <= 24);
    }

    #[test]
    fn value_is_none_only_for_element_and_document_nodes() {
        let mut store = Store::new();
        let d = build_into(&mut store, None, |b| {
            b.start_element("a");
            b.attribute("k", "v");
            b.comment("");
            b.pi("p", "");
            b.text("t");
            b.end_element();
        });
        let doc = store.doc(d);
        let values: Vec<Option<&str>> = (0..doc.len() as u32).map(|i| doc.value(i)).collect();
        assert_eq!(values, vec![None, None, Some("v"), Some(""), Some(""), Some("t")]);
        let d = crate::parser::parse_document(&mut store, "<r a=\"\"/>", None).unwrap();
        assert_eq!(store.doc(d).value(2), Some(""), "a=\"\" is an empty value, not none");
    }

    #[test]
    fn copies_keep_their_values_after_the_source_is_truncated() {
        let mut src = Store::new();
        let d = sample(&mut src);
        let cloned = src.doc(d).clone();
        let mut copies = Store::new();
        let mut b = DocBuilder::new(None);
        b.start_element("wrap");
        b.copy_subtree(src.doc(d), &src.names, 2);
        b.end_element();
        let copy = copies.attach(b.finish());
        src.truncate_docs(0);
        // reuse the freed memory before reading the copies back
        sample(&mut src);
        build_into(&mut src, None, |b| {
            b.start_element("x");
            b.text("clobber clobber clobber");
            b.end_element();
        });
        assert_eq!(cloned.value(3), Some("1"));
        assert_eq!(cloned.string_value(0), "t");
        let copy = copies.doc(copy);
        // wrap > b(@id) > c, text
        assert_eq!(copy.value(3), Some("1"));
        assert_eq!(copy.string_value(1), "t");
        assert_eq!(copy.element_by_id("1"), Some(2));
    }

    #[test]
    fn empty_text_is_dropped() {
        let mut store = Store::new();
        let d = build_into(&mut store, None, |b| {
            b.start_element("a");
            b.text("");
            b.end_element();
        });
        assert_eq!(store.doc(d).len(), 2);
    }
}
