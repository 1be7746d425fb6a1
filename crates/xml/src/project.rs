//! Runtime XML projection — **Algorithm 1** of the paper.
//!
//! Given the *used* node set `U` and *returned* node set `R` (both
//! materialized at run time by evaluating the relative projection paths on
//! real context sequences), the algorithm extracts the minimal part `D'` of a
//! document `D` such that evaluating the remaining query on `D'` equals
//! evaluating it on `D`:
//!
//! * every used node is kept (alone),
//! * every returned node is kept **with all its descendants**,
//! * all ancestors of kept nodes are kept (so reverse axes keep working),
//! * finally the top-most chain of single-child connector nodes not in
//!   `U ∪ R` is trimmed, leaving the lowest common ancestor as the projected
//!   root (lines 24–27 of Algorithm 1);
//! * one deviation: two kept text siblings with nothing kept between them
//!   keep the source node that separates them, alone — the receiver must
//!   parse the nodes the sender counted, not one merged text.
//!
//! The traversal is the paper's two-cursor merge over the preorder arena:
//! skipping an unrelated subtree is a single `subtree_end + 1` jump.

use std::collections::HashSet;

use crate::name::NameTable;
use crate::serialize::write_nodes;
use crate::store::{DocBuilder, Document, NodeKind};

/// The two node sets driving a projection.
#[derive(Debug, Clone, Default)]
pub struct ProjectionInput {
    /// Used nodes: needed to answer the query but never returned.
    pub used: Vec<u32>,
    /// Returned nodes: kept together with their whole subtrees.
    pub returned: Vec<u32>,
}

impl ProjectionInput {
    pub fn new(mut used: Vec<u32>, mut returned: Vec<u32>) -> Self {
        used.sort_unstable();
        used.dedup();
        returned.sort_unstable();
        returned.dedup();
        ProjectionInput { used, returned }
    }

    pub fn is_empty(&self) -> bool {
        self.used.is_empty() && self.returned.is_empty()
    }
}

/// Size accounting for the precision experiments (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionStats {
    pub kept_nodes: usize,
    pub total_nodes: usize,
}

/// Outcome of a projection: the kept source indices (preorder-sorted, after
/// the LCA trim) and the mapping invariant *kept\[i\] ↦ projected index i+1*
/// (index 0 is the new document node).
#[derive(Debug, Clone)]
pub struct Projection {
    pub kept: Vec<u32>,
    pub stats: ProjectionStats,
}

impl Projection {
    /// Projected index of source node `src`, if kept.
    pub fn projected_index(&self, src: u32) -> Option<u32> {
        self.kept.binary_search(&src).ok().map(|i| i as u32 + 1)
    }

    /// Source index of projected node `dst` (inverse of
    /// [`Self::projected_index`]).
    pub fn source_index(&self, dst: u32) -> Option<u32> {
        if dst == 0 {
            return None;
        }
        self.kept.get(dst as usize - 1).copied()
    }
}

/// Lines 1–23 of Algorithm 1: compute the kept node set.
///
/// `input` node sets must refer to nodes of `doc`; the document node (index
/// 0) may appear and is handled like any returned/used node.
fn keep_set(doc: &Document, input: &ProjectionInput) -> Vec<u32> {
    // projection nodes P ← U ∪ R, sorted on document order (line 1)
    let returned: HashSet<u32> = input.returned.iter().copied().collect();
    let mut p: Vec<u32> = input.used.iter().chain(&input.returned).copied().collect();
    p.sort_unstable();
    p.dedup();
    if p.is_empty() {
        return Vec::new();
    }

    let mut kept: Vec<u32> = Vec::new();
    let len = doc.len() as u32;
    let mut pi = 0usize; // proj ← first node in P (line 2)
    let mut cur = 0u32; // cur ← root node (line 3)
    while pi < p.len() && cur < len {
        let proj = p[pi];
        if doc.is_ancestor(cur, proj) {
            // cur on the path to proj: keep as connector (lines 5–7)
            kept.push(cur);
            cur += 1;
        } else if proj == cur {
            if returned.contains(&proj) {
                // returned node: keep the whole subtree (lines 9–11)
                let end = doc.subtree_end(cur);
                kept.extend(cur..=end);
                cur = end + 1;
                // prune projection nodes covered by this subtree (lines 12–14)
                while pi + 1 < p.len() && p[pi + 1] <= end {
                    pi += 1;
                }
            } else {
                // used node: keep it alone (lines 15–17)
                kept.push(cur);
                cur += 1;
            }
            pi += 1; // proj ← proj.next (line 19)
        } else {
            // proj not under cur: skip the whole subtree (line 21)
            cur = doc.subtree_end(cur) + 1;
        }
    }
    kept
}

/// Lines 24–27 of Algorithm 1: drop the top-most chain of connector nodes
/// that have a single child and are not themselves projection nodes, so the
/// projected root becomes the lowest common ancestor of `U ∪ R`.
///
/// The document node itself (index 0) is always removed from `kept` — the
/// projected output gets a fresh document node.
fn trim_lca(doc: &Document, kept: &mut Vec<u32>, input: &ProjectionInput) {
    let p: HashSet<u32> =
        input.used.iter().chain(&input.returned).copied().collect();
    while let Some(&cur) = kept.first() {
        // the source document node never survives: the projected output's
        // own document node plays its role (references to it use the
        // `nodeid 0` convention), even when it is itself a projection node
        if doc.kind(cur) == NodeKind::Document {
            kept.remove(0);
            continue;
        }
        if p.contains(&cur) {
            return;
        }
        // children of cur *within the kept set*
        let end = doc.subtree_end(cur);
        let mut kept_children = 0usize;
        let mut attr_child = false;
        for &k in kept.iter().skip(1) {
            if k > end {
                break;
            }
            // a kept node whose nearest kept ancestor is cur counts as child
            if nearest_kept_ancestor(doc, kept, k) == Some(cur) {
                kept_children += 1;
                if doc.kind(k) == NodeKind::Attribute {
                    attr_child = true;
                }
                if kept_children > 1 {
                    break;
                }
            }
        }
        // an attribute cannot stand alone: its owner element must survive
        if attr_child || kept_children != 1 {
            return;
        }
        kept.remove(0);
    }
}

fn nearest_kept_ancestor(doc: &Document, kept: &[u32], idx: u32) -> Option<u32> {
    let mut cur = doc.parent(idx);
    while let Some(a) = cur {
        if kept.binary_search(&a).is_ok() {
            return Some(a);
        }
        cur = doc.parent(a);
    }
    None
}

/// Two kept text siblings with nothing kept between them would serialize as
/// one run, which the receiver parses as one text node, so the node
/// separating them in the source is kept too, alone (no attributes, no
/// descendants). A text node has no descendants: that node is the one
/// right after the first text.
fn separate_texts(doc: &Document, kept: &mut Vec<u32>) {
    let separators: Vec<u32> = kept
        .windows(2)
        .filter(|w| {
            doc.kind(w[0]) == NodeKind::Text
                && doc.kind(w[1]) == NodeKind::Text
                && doc.parent(w[0]) == doc.parent(w[1])
                && w[0] + 1 < w[1]
        })
        .map(|w| w[0] + 1)
        .collect();
    if !separators.is_empty() {
        kept.extend(separators);
        kept.sort_unstable();
    }
}

/// Runs Algorithm 1 end-to-end, returning the kept-set description.
pub fn compute_projection(doc: &Document, input: &ProjectionInput) -> Projection {
    let mut kept = keep_set(doc, input);
    trim_lca(doc, &mut kept, input);
    separate_texts(doc, &mut kept);
    let stats = ProjectionStats { kept_nodes: kept.len(), total_nodes: doc.len() };
    Projection { kept, stats }
}

/// Materializes a projection as a new standalone document builder.
///
/// Kept nodes are written in preorder under their nearest kept ancestor, so
/// `kept[i]` becomes projected node `i + 1` — the mapping
/// [`Projection::projected_index`] relies on.
pub fn build_projected(
    doc: &Document,
    names: &NameTable,
    projection: &Projection,
    uri: Option<&str>,
) -> DocBuilder {
    let mut b = DocBuilder::new(uri);
    write_nodes(doc, names, projection.kept.iter().copied(), &mut b);
    b.finish()
}

/// Convenience: project `doc` in one call.
pub fn project_document(
    doc: &Document,
    names: &NameTable,
    input: &ProjectionInput,
    uri: Option<&str>,
) -> (DocBuilder, Projection) {
    let projection = compute_projection(doc, input);
    let builder = build_projected(doc, names, &projection, uri);
    (builder, projection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use crate::serialize::serialize_document;
    use crate::store::{DocId, Store};

    /// The exact 15-node tree of Figure 6(a):
    /// a(b(c(d(e,f)), g(h), i, j, k(l,m)), n(o))
    /// preorder: 0=doc 1=a 2=b 3=c 4=d 5=e 6=f 7=g 8=h 9=i 10=j 11=k 12=l 13=m 14=n 15=o
    fn figure6_doc(store: &mut Store) -> DocId {
        parse_document(
            store,
            "<a><b><c><d><e/><f/></d></c><g><h/></g><i/><j/><k><l/><m/></k></b><n><o/></n></a>",
            Some("fig6.xml"),
        )
        .unwrap()
    }

    #[test]
    fn figure6() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        let doc = s.doc(d);
        // U = {i}, R = {d, k}
        let input = ProjectionInput::new(vec![9], vec![4, 11]);
        let (builder, projection) = project_document(doc, &s.names, &input, None);
        // Kept (after trimming a): b c d e f i k l m
        assert_eq!(projection.kept, vec![2, 3, 4, 5, 6, 9, 11, 12, 13]);
        let d2 = s.attach(builder);
        let out = serialize_document(s.doc(d2), &s.names);
        assert_eq!(out, "<b><c><d><e/><f/></d></c><i/><k><l/><m/></k></b>");
    }

    #[test]
    fn figure6_mapping_roundtrips() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        let input = ProjectionInput::new(vec![9], vec![4, 11]);
        let projection = compute_projection(s.doc(d), &input);
        for (i, &src) in projection.kept.iter().enumerate() {
            assert_eq!(projection.projected_index(src), Some(i as u32 + 1));
            assert_eq!(projection.source_index(i as u32 + 1), Some(src));
        }
        assert_eq!(projection.projected_index(1), None, "a was trimmed");
        assert_eq!(projection.source_index(0), None);
    }

    #[test]
    fn returned_root_keeps_everything_below() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        let doc = s.doc(d);
        let input = ProjectionInput::new(vec![], vec![1]); // R = {a}
        let projection = compute_projection(doc, &input);
        assert_eq!(projection.kept.len(), doc.len() - 1); // all but document node
        let (builder, _) = project_document(doc, &s.names, &input, None);
        let d2 = s.attach(builder);
        assert_eq!(
            serialize_document(s.doc(d2), &s.names),
            serialize_document(s.doc(d), &s.names)
        );
    }

    #[test]
    fn used_node_kept_without_descendants() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        let input = ProjectionInput::new(vec![4], vec![]); // U = {d}
        let projection = compute_projection(s.doc(d), &input);
        // d kept alone (e,f dropped); trim removes a,b,c connectors above d
        assert_eq!(projection.kept, vec![4]);
    }

    #[test]
    fn empty_input_keeps_nothing() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        let projection = compute_projection(s.doc(d), &ProjectionInput::default());
        assert!(projection.kept.is_empty());
    }

    #[test]
    fn two_returned_nodes_keep_common_ancestors() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        // R = {e, o}: LCA is a, which therefore survives the trim
        let input = ProjectionInput::new(vec![], vec![5, 15]);
        let projection = compute_projection(s.doc(d), &input);
        assert_eq!(projection.kept, vec![1, 2, 3, 4, 5, 14, 15]);
    }

    #[test]
    fn attributes_inside_returned_subtree_are_kept() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<r><p id=\"1\"><q k=\"v\"/></p><z/></r>", None).unwrap();
        // 0=doc 1=r 2=p 3=@id 4=q 5=@k 6=z — return p
        let input = ProjectionInput::new(vec![], vec![2]);
        let (builder, _) = project_document(s.doc(d), &s.names, &input, None);
        let d2 = s.attach(builder);
        assert_eq!(
            serialize_document(s.doc(d2), &s.names),
            "<p id=\"1\"><q k=\"v\"/></p>"
        );
    }

    #[test]
    fn ancestor_attributes_are_projected_away() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<r big=\"payload\"><p/><q/></r>", None).unwrap();
        // used = {p (2)} and {q (4)}? indexes: 0=doc 1=r 2=@big 3=p 4=q
        let input = ProjectionInput::new(vec![3, 4], vec![]);
        let (builder, _) = project_document(s.doc(d), &s.names, &input, None);
        let d2 = s.attach(builder);
        assert_eq!(serialize_document(s.doc(d2), &s.names), "<r><p/><q/></r>");
    }

    #[test]
    fn kept_text_siblings_keep_their_separator_alone() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a>x<b k=\"v\"><i/></b>y<c/></a>", None).unwrap();
        // 0=doc 1=a 2="x" 3=b 4=@k 5=i 6="y" 7=c — return both texts
        let input = ProjectionInput::new(vec![], vec![2, 6]);
        let (builder, projection) = project_document(s.doc(d), &s.names, &input, None);
        assert_eq!(projection.kept, vec![1, 2, 3, 6]);
        let d2 = s.attach(builder);
        assert_eq!(serialize_document(s.doc(d2), &s.names), "<a>x<b/>y</a>");
    }

    #[test]
    fn stats_report_precision() {
        let mut s = Store::new();
        let d = figure6_doc(&mut s);
        let input = ProjectionInput::new(vec![9], vec![4, 11]);
        let projection = compute_projection(s.doc(d), &input);
        assert_eq!(projection.stats.kept_nodes, 9);
        assert_eq!(projection.stats.total_nodes, 16);
    }
}
