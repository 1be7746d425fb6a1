//! Wire-level building blocks of the message codecs:
//!
//! * `fragid`/`nodeid` addressing — the paper addresses a shipped node as
//!   `$msg//fragment[$fragid]/descendant::node()[$nodeid]`, i.e. the
//!   1-based rank among **non-attribute** nodes of the fragment (footnote 2:
//!   `descendant::node()` does not return attributes; attribute references
//!   carry the owner's `nodeid` plus the attribute name). Both ends hold the
//!   same [`Fragment`] table: the sender looks nodes up in it, the receiver
//!   resolves references against it;
//! * fragment roots for pass-by-fragment — deduplicate overlapping
//!   shipped nodes into top-level subtree roots, sorted in document order;
//! * evaluation of relative projection paths (`Urel`/`Rrel`) on
//!   materialized context sequences, including the `root()` / `id()` /
//!   `idref()` markers of the Table V grammar.

use xqd_xml::axes::{axis_nodes, node_test_matches, NodeTest};
use xqd_xml::{DocId, NodeId, NodeKind, Store};
use xqd_xquery::ast::{NameTest, RelPath, RelStep};

/// One `<fragment>` of a message as both ends of the wire address it: the
/// document its nodes live in (the source document on the sender, the
/// shredded fragment on the receiver) and its non-attribute nodes in
/// document order. A node's `nodeid` is its position + 1; `nodeid 0` is
/// the document node.
#[derive(Debug)]
pub(crate) struct Fragment {
    pub(crate) doc: DocId,
    nodes: Vec<u32>,
}

impl Fragment {
    /// The fragment of `nodes` (sorted) of document `doc`, attributes
    /// skipped.
    pub(crate) fn of(store: &Store, doc: DocId, nodes: impl IntoIterator<Item = u32>) -> Fragment {
        let d = store.doc(doc);
        let nodes = nodes.into_iter().filter(|&i| d.kind(i) != NodeKind::Attribute).collect();
        Fragment { doc, nodes }
    }

    /// The fragment of the subtree rooted at `root`. A document root ships
    /// its children: the root itself is `nodeid 0`.
    pub(crate) fn subtree(store: &Store, doc: DocId, root: u32) -> Fragment {
        let d = store.doc(doc);
        let first = if d.kind(root) == NodeKind::Document { root + 1 } else { root };
        Fragment::of(store, doc, first..=d.subtree_end(root))
    }

    /// The `nodeid` of non-attribute node `idx`, if the fragment holds it.
    pub(crate) fn nodeid(&self, idx: u32) -> Option<u32> {
        self.nodes.binary_search(&idx).ok().map(|i| i as u32 + 1)
    }

    /// The node a `nodeid` names — total for any (possibly hostile) value.
    pub(crate) fn node(&self, nodeid: u32) -> Option<u32> {
        match nodeid.checked_sub(1) {
            None => Some(0),
            Some(i) => self.nodes.get(i as usize).copied(),
        }
    }
}

/// Locates a shipped node in `fragments` (sorted by document, then in
/// document order): `(fragid, nodeid)`, both 1-based except the document
/// node, which is `nodeid 0` of the first fragment of its document. An
/// attribute resolves to its owner (the caller adds the attribute name).
pub(crate) fn locate(fragments: &[Fragment], store: &Store, node: NodeId) -> Option<(u32, u32)> {
    let doc = store.doc(node.doc);
    let target = match doc.kind(node.idx) {
        NodeKind::Attribute => doc.parent(node.idx)?,
        _ => node.idx,
    };
    let first = fragments.partition_point(|f| f.doc < node.doc);
    let same_doc = &fragments[first..fragments.partition_point(|f| f.doc <= node.doc)];
    if doc.kind(target) == NodeKind::Document {
        return (!same_doc.is_empty()).then_some((first as u32 + 1, 0));
    }
    // the last fragment of the document that starts at or before `target`
    let i = same_doc.partition_point(|f| f.nodes.first().is_none_or(|&n| n <= target));
    let nodeid = same_doc.get(i.checked_sub(1)?)?.nodeid(target)?;
    Some(((first + i) as u32, nodeid))
}

/// The top-level subtree roots pass-by-fragment ships for a set of nodes,
/// in document order per source document (in `DocId` order): overlapping
/// shipped nodes reuse their ancestor's fragment, which is exactly what
/// preserves identity, order and ancestry (Section V). Attribute nodes are
/// promoted to their owner element (an attribute cannot stand alone in
/// serialized XML; the owner's subtree covers it).
pub(crate) fn fragment_roots(store: &Store, nodes: &[NodeId]) -> Vec<(DocId, u32)> {
    let mut normalized: Vec<NodeId> = nodes
        .iter()
        .map(|n| {
            let doc = store.doc(n.doc);
            if doc.kind(n.idx) == NodeKind::Attribute {
                NodeId::new(n.doc, doc.parent(n.idx).expect("attribute has owner"))
            } else {
                *n
            }
        })
        .collect();
    normalized.sort_unstable();
    normalized.dedup();
    let mut roots: Vec<(DocId, u32)> = Vec::new();
    for n in normalized {
        // sorted input: only the last root can cover `n`
        let covered =
            roots.last().is_some_and(|&(d, r)| d == n.doc && store.doc(d).is_ancestor(r, n.idx));
        if !covered {
            roots.push((n.doc, n.idx));
        }
    }
    roots
}

/// Evaluates a set of relative projection paths on a materialized context
/// sequence, producing the node set (atoms in the context are skipped —
/// paths apply to nodes only).
pub fn eval_rel_paths(
    store: &Store,
    context: &[NodeId],
    paths: &[RelPath],
) -> Vec<NodeId> {
    let mut out = Vec::new();
    for path in paths {
        let mut cur: Vec<NodeId> = context.to_vec();
        for step in &path.0 {
            cur = eval_rel_step(store, &cur, step);
        }
        out.extend(cur);
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn eval_rel_step(store: &Store, context: &[NodeId], step: &RelStep) -> Vec<NodeId> {
    let mut out = Vec::new();
    match step {
        RelStep::Axis { axis, test } => {
            for n in context {
                let doc = store.doc(n.doc);
                let resolved = match test {
                    NameTest::Name(name) => store
                        .names
                        .get(name)
                        .map(NodeTest::Name)
                        .unwrap_or(NodeTest::UnknownName),
                    NameTest::Wildcard => NodeTest::Wildcard,
                    NameTest::AnyKind => NodeTest::AnyKind,
                    NameTest::Text => NodeTest::Text,
                    NameTest::Comment => NodeTest::Comment,
                };
                let mut reached = Vec::new();
                axis_nodes(doc, n.idx, *axis, &mut reached);
                for r in reached {
                    if node_test_matches(doc, r, *axis, &resolved) {
                        out.push(NodeId::new(n.doc, r));
                    }
                }
            }
        }
        RelStep::Root => {
            for n in context {
                out.push(NodeId::new(n.doc, 0));
            }
        }
        RelStep::Id => {
            // conservative (Section VI-A): every element carrying an ID
            // attribute in the context documents
            let mut docs: Vec<DocId> = context.iter().map(|n| n.doc).collect();
            docs.sort_unstable();
            docs.dedup();
            for d in docs {
                let doc = store.doc(d);
                let mut owners: Vec<u32> = doc.id_map_values();
                owners.sort_unstable();
                owners.dedup();
                out.extend(owners.into_iter().map(|i| NodeId::new(d, i)));
            }
        }
        RelStep::Idref => {
            let mut docs: Vec<DocId> = context.iter().map(|n| n.doc).collect();
            docs.sort_unstable();
            docs.dedup();
            for d in docs {
                let doc = store.doc(d);
                for (attr, _) in doc.idref_attributes(&store.names) {
                    out.push(NodeId::new(d, attr));
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Parses a relative path from its message text (`used-path` /
/// `returned-path` content) — the inverse of `RelPath`'s `Display`.
pub fn parse_rel_path(s: &str) -> Option<RelPath> {
    let s = s.trim();
    if s.is_empty() || s == "self::node()" {
        return Some(RelPath(vec![]));
    }
    let mut steps = Vec::new();
    for part in s.split('/') {
        let part = part.trim();
        match part {
            "root()" => steps.push(RelStep::Root),
            "id()" => steps.push(RelStep::Id),
            "idref()" => steps.push(RelStep::Idref),
            _ => {
                let (axis_name, test_text) = part.split_once("::")?;
                let axis = xqd_xml::Axis::from_name(axis_name)?;
                let test = match test_text {
                    "*" => NameTest::Wildcard,
                    "node()" => NameTest::AnyKind,
                    "text()" => NameTest::Text,
                    "comment()" => NameTest::Comment,
                    name => NameTest::Name(name.to_string()),
                };
                steps.push(RelStep::Axis { axis, test });
            }
        }
    }
    Some(RelPath(steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xml::parse_document;

    fn fixture(store: &mut Store) -> DocId {
        // <a><b id="1"><c/>t</b><d><e/></d></a>
        // 0=doc 1=a 2=b 3=@id 4=c 5=text 6=d 7=e
        parse_document(store, "<a><b id=\"1\"><c/>t</b><d><e/></d></a>", Some("f.xml")).unwrap()
    }

    /// The fragments pass-by-fragment ships for `nodes`.
    fn by_fragment(store: &Store, nodes: &[NodeId]) -> (Vec<(DocId, u32)>, Vec<Fragment>) {
        let roots = fragment_roots(store, nodes);
        let table = roots.iter().map(|&(d, r)| Fragment::subtree(store, d, r)).collect();
        (roots, table)
    }

    #[test]
    fn nodeid_skips_attributes() {
        let mut s = Store::new();
        let d = fixture(&mut s);
        // fragment rooted at <b> (idx 2): ranks are b=1, c=2, text=3 (@id skipped)
        let f = Fragment::subtree(&s, d, 2);
        assert_eq!(f.nodeid(2), Some(1));
        assert_eq!(f.nodeid(4), Some(2));
        assert_eq!(f.nodeid(5), Some(3));
        assert_eq!(f.nodeid(3), None, "attribute");
        assert_eq!(f.node(2), Some(4));
        assert_eq!(f.node(9), None);
    }

    #[test]
    fn fragment_plan_dedups_overlap() {
        // mirrors Example 5.1: $bc (inside) and $abc (ancestor) share one
        // fragment
        let mut s = Store::new();
        let d = fixture(&mut s);
        let bc = NodeId::new(d, 2); // <b>
        let abc = NodeId::new(d, 1); // <a>, ancestor of <b>
        let (roots, table) = by_fragment(&s, &[bc, abc]);
        assert_eq!(roots, vec![(d, 1)], "one fragment: the ancestor");
        assert_eq!(locate(&table, &s, abc), Some((1, 1)));
        assert_eq!(locate(&table, &s, bc), Some((1, 2)));
    }

    #[test]
    fn fragment_plan_orders_by_document_order() {
        let mut s = Store::new();
        let d = fixture(&mut s);
        let (roots, table) = by_fragment(&s, &[NodeId::new(d, 6), NodeId::new(d, 2)]);
        assert_eq!(roots, vec![(d, 2), (d, 6)]);
        assert_eq!(locate(&table, &s, NodeId::new(d, 2)), Some((1, 1)));
        assert_eq!(locate(&table, &s, NodeId::new(d, 6)), Some((2, 1)));
        assert_eq!(locate(&table, &s, NodeId::new(d, 7)), Some((2, 2)));
    }

    #[test]
    fn attribute_nodes_promote_owner() {
        let mut s = Store::new();
        let d = fixture(&mut s);
        let attr = NodeId::new(d, 3);
        let (roots, table) = by_fragment(&s, &[attr]);
        assert_eq!(roots, vec![(d, 2)], "owner element shipped");
        assert_eq!(locate(&table, &s, attr), Some((1, 1)), "owner's nodeid");
    }

    #[test]
    fn document_node_fragment_uses_nodeid_zero() {
        let mut s = Store::new();
        let d = fixture(&mut s);
        let (_, table) = by_fragment(&s, &[NodeId::new(d, 0)]);
        assert_eq!(locate(&table, &s, NodeId::new(d, 0)), Some((1, 0)));
        assert_eq!(locate(&table, &s, NodeId::new(d, 1)), Some((1, 1)));
    }

    #[test]
    fn rel_path_roundtrip() {
        for text in [
            "child::a/attribute::id",
            "descendant-or-self::text()",
            "parent::a",
            "root()/child::*",
            "id()/child::name",
            "self::node()",
        ] {
            let p = parse_rel_path(text).unwrap();
            let back = p.to_string();
            assert_eq!(parse_rel_path(&back).unwrap(), p, "{text}");
        }
        assert!(parse_rel_path("bogus").is_none());
    }

    #[test]
    fn rel_path_evaluation() {
        let mut s = Store::new();
        let d = fixture(&mut s);
        let ctx = [NodeId::new(d, 2)];
        let p = parse_rel_path("child::c").unwrap();
        assert_eq!(eval_rel_paths(&s, &ctx, &[p]), vec![NodeId::new(d, 4)]);
        let p = parse_rel_path("parent::a").unwrap();
        assert_eq!(eval_rel_paths(&s, &ctx, &[p]), vec![NodeId::new(d, 1)]);
        let p = parse_rel_path("root()").unwrap();
        assert_eq!(eval_rel_paths(&s, &ctx, &[p]), vec![NodeId::new(d, 0)]);
        let p = parse_rel_path("id()").unwrap();
        assert_eq!(eval_rel_paths(&s, &ctx, &[p]), vec![NodeId::new(d, 2)]);
    }

    #[test]
    fn multiple_paths_union_in_document_order() {
        let mut s = Store::new();
        let d = fixture(&mut s);
        let ctx = [NodeId::new(d, 1)];
        let paths = [
            parse_rel_path("child::d").unwrap(),
            parse_rel_path("child::b").unwrap(),
        ];
        assert_eq!(
            eval_rel_paths(&s, &ctx, &paths),
            vec![NodeId::new(d, 2), NodeId::new(d, 6)]
        );
    }
}
