//! Per-document name indexes and staircase-join axis steps.
//!
//! The arena's pre/size encoding stores nodes in preorder, so "all
//! descendants of `v`" is the contiguous rank interval `(v, subtree_end(v)]`.
//! A **name index** inverts the arena by node name: for every element (and,
//! separately, attribute) name it keeps the sorted list of preorder ranks of
//! nodes carrying that name. A `descendant::n` step then becomes two binary
//! searches per context node instead of a subtree scan — the core idea of the
//! staircase join over pre/post (here pre/size) encodings that MonetDB/XQuery
//! uses, which is the execution model of the paper's Section VII evaluation.
//!
//! Context-node sets arrive sorted in document order (the evaluator sorts
//! between steps). For the `descendant` axes, a context node that lies inside
//! a previously processed context's subtree contributes a sub-interval of an
//! interval already emitted — the staircase "pruning" step skips it, making
//! the output both duplicate-free and sorted without a post-pass. The `child`
//! and `attribute` steps use the same interval lookup but filter by parent
//! rank; nested contexts can interleave there, so callers must not assume
//! sorted output for those (the evaluator re-sorts after every step anyway).
//!
//! Indexes are built lazily by [`crate::store::Store::ensure_name_index`] on
//! first use and cached on the [`Document`]; documents are immutable once
//! attached, so a built index never needs invalidation — newly loaded
//! documents simply start without one.

use std::collections::HashMap;

use crate::name::NameId;
use crate::store::{Document, NodeKind};

/// Inverted name→ranks maps for one document. Rank lists are sorted
/// ascending (they are filled in one preorder pass).
#[derive(Debug, Clone, Default)]
pub struct NameIndex {
    elements: HashMap<NameId, Vec<u32>>,
    attributes: HashMap<NameId, Vec<u32>>,
}

impl NameIndex {
    /// Builds the index with a single preorder pass over the arena.
    pub fn build(doc: &Document) -> NameIndex {
        let mut elements: HashMap<NameId, Vec<u32>> = HashMap::new();
        let mut attributes: HashMap<NameId, Vec<u32>> = HashMap::new();
        for i in 0..doc.len() as u32 {
            match doc.kind(i) {
                NodeKind::Element => elements.entry(doc.name(i)).or_default().push(i),
                NodeKind::Attribute => attributes.entry(doc.name(i)).or_default().push(i),
                _ => {}
            }
        }
        NameIndex { elements, attributes }
    }

    /// Sorted preorder ranks of elements named `name`.
    pub fn elements(&self, name: NameId) -> &[u32] {
        self.elements.get(&name).map_or(&[], Vec::as_slice)
    }

    /// Sorted preorder ranks of attributes named `name`.
    pub fn attributes(&self, name: NameId) -> &[u32] {
        self.attributes.get(&name).map_or(&[], Vec::as_slice)
    }
}

/// Sub-slice of the sorted `list` with ranks in `[lo, hi]`.
fn rank_range(list: &[u32], lo: u32, hi: u32) -> &[u32] {
    let a = list.partition_point(|&x| x < lo);
    let b = list.partition_point(|&x| x <= hi);
    &list[a..b.max(a)]
}

/// Staircase `descendant::n` / `descendant-or-self::n` over the element name
/// list. `ctxs` must be sorted ascending and duplicate-free; output is
/// appended to `out` in document order, duplicate-free.
///
/// Pruning: if `ctx` lies inside the subtree of an earlier context, its whole
/// result interval is covered by the earlier one and is skipped. This is
/// valid only for the descendant axes (child results of nested contexts are
/// not covered), which is why the child step below does not prune.
pub fn descendants_named(
    doc: &Document,
    index: &NameIndex,
    ctxs: &[u32],
    name: NameId,
    or_self: bool,
    out: &mut Vec<u32>,
) {
    let list = index.elements(name);
    if list.is_empty() {
        return;
    }
    // Rank strictly below every real context; doubles as "nothing covered yet".
    let mut covered_end: Option<u32> = None;
    for &ctx in ctxs {
        if covered_end.is_some_and(|end| ctx <= end) {
            continue; // inside a previous context's subtree: already emitted
        }
        let end = doc.subtree_end(ctx);
        let lo = if or_self { ctx } else { ctx + 1 };
        out.extend_from_slice(rank_range(list, lo, end));
        covered_end = Some(end);
    }
}

/// Indexed `child::n`: interval lookup plus a parent-rank filter. Output
/// order is per-context; with nested contexts it may interleave, so the
/// caller is responsible for any final document-order sort.
pub fn children_named(
    doc: &Document,
    index: &NameIndex,
    ctxs: &[u32],
    name: NameId,
    out: &mut Vec<u32>,
) {
    let list = index.elements(name);
    if list.is_empty() {
        return;
    }
    for &ctx in ctxs {
        let end = doc.subtree_end(ctx);
        if end <= ctx {
            continue; // leaf / attribute context: no children
        }
        for &r in rank_range(list, ctx + 1, end) {
            if doc.parent(r) == Some(ctx) {
                out.push(r);
            }
        }
    }
}

/// Indexed `attribute::n` over the attribute name list. Same contract as
/// [`children_named`] regarding output order.
pub fn attributes_named(
    doc: &Document,
    index: &NameIndex,
    ctxs: &[u32],
    name: NameId,
    out: &mut Vec<u32>,
) {
    let list = index.attributes(name);
    if list.is_empty() {
        return;
    }
    for &ctx in ctxs {
        let end = doc.subtree_end(ctx);
        if end <= ctx {
            continue;
        }
        // The interval also contains attributes of *descendant* elements;
        // the parent filter keeps only the context's own attribute block.
        for &r in rank_range(list, ctx + 1, end) {
            if doc.parent(r) == Some(ctx) {
                out.push(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::{axis_nodes, node_test_matches, Axis, NodeTest};
    use crate::store::{build_into, DocId, Store};

    /// <a><b id="1"><c/><b x="2"><c/></b></b><c/></a>
    /// 0=doc 1=a 2=b 3=@id 4=c 5=b 6=@x 7=c 8=c
    fn sample(store: &mut Store) -> DocId {
        build_into(store, Some("ix.xml"), |b| {
            b.start_element("a");
            b.start_element("b");
            b.attribute("id", "1");
            b.start_element("c");
            b.end_element();
            b.start_element("b");
            b.attribute("x", "2");
            b.start_element("c");
            b.end_element();
            b.end_element();
            b.end_element();
            b.start_element("c");
            b.end_element();
            b.end_element();
        })
    }

    fn scan(doc: &Document, ctxs: &[u32], axis: Axis, name: NameId) -> Vec<u32> {
        let mut out = Vec::new();
        for &ctx in ctxs {
            let mut reached = Vec::new();
            axis_nodes(doc, ctx, axis, &mut reached);
            out.extend(
                reached
                    .into_iter()
                    .filter(|&r| node_test_matches(doc, r, axis, &NodeTest::Name(name))),
            );
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn build_lists_are_sorted_per_name() {
        let mut s = Store::new();
        let d = sample(&mut s);
        let ix = NameIndex::build(s.doc(d));
        let b = s.names.get("b").unwrap();
        let c = s.names.get("c").unwrap();
        let id = s.names.get("id").unwrap();
        assert_eq!(ix.elements(b), &[2, 5]);
        assert_eq!(ix.elements(c), &[4, 7, 8]);
        assert_eq!(ix.attributes(id), &[3]);
        assert_eq!(ix.elements(id), &[] as &[u32], "attribute names don't leak into elements");
    }

    #[test]
    fn descendants_match_scan_and_prune_nested_contexts() {
        let mut s = Store::new();
        let d = sample(&mut s);
        let doc = s.doc(d);
        let ix = NameIndex::build(doc);
        let c = s.names.get("c").unwrap();
        // contexts 1 and 2: 2 is inside 1's subtree, so the staircase must
        // prune it — and still produce exactly the scan's dedup'd union.
        let mut out = Vec::new();
        descendants_named(doc, &ix, &[1, 2], c, false, &mut out);
        assert_eq!(out, scan(doc, &[1, 2], Axis::Descendant, c));
        assert_eq!(out, vec![4, 7, 8]);
    }

    #[test]
    fn descendant_or_self_includes_matching_context() {
        let mut s = Store::new();
        let d = sample(&mut s);
        let doc = s.doc(d);
        let ix = NameIndex::build(doc);
        let b = s.names.get("b").unwrap();
        let mut out = Vec::new();
        descendants_named(doc, &ix, &[2], b, true, &mut out);
        assert_eq!(out, scan(doc, &[2], Axis::DescendantOrSelf, b));
        assert_eq!(out, vec![2, 5]);
    }

    #[test]
    fn children_filter_by_parent() {
        let mut s = Store::new();
        let d = sample(&mut s);
        let doc = s.doc(d);
        let ix = NameIndex::build(doc);
        let c = s.names.get("c").unwrap();
        let mut out = Vec::new();
        children_named(doc, &ix, &[2], c, &mut out);
        // only the direct child <c/> (rank 4), not the grandchild at rank 7
        assert_eq!(out, vec![4]);
        assert_eq!(out, scan(doc, &[2], Axis::Child, c));
    }

    #[test]
    fn attributes_exclude_descendant_attribute_blocks() {
        let mut s = Store::new();
        let d = sample(&mut s);
        let doc = s.doc(d);
        let ix = NameIndex::build(doc);
        let x = s.names.get("x").unwrap();
        let mut out = Vec::new();
        attributes_named(doc, &ix, &[2], x, &mut out);
        assert_eq!(out, Vec::<u32>::new(), "@x belongs to the nested b, not ctx 2");
        out.clear();
        attributes_named(doc, &ix, &[5], x, &mut out);
        assert_eq!(out, vec![6]);
    }

    #[test]
    fn leaf_and_attribute_contexts_yield_nothing() {
        let mut s = Store::new();
        let d = sample(&mut s);
        let doc = s.doc(d);
        let ix = NameIndex::build(doc);
        let c = s.names.get("c").unwrap();
        let mut out = Vec::new();
        descendants_named(doc, &ix, &[3, 4], c, false, &mut out);
        assert_eq!(out, Vec::<u32>::new());
        children_named(doc, &ix, &[3, 4], c, &mut out);
        assert_eq!(out, Vec::<u32>::new());
    }

    #[test]
    fn store_caches_index_lazily() {
        let mut s = Store::new();
        let d = sample(&mut s);
        assert!(s.doc(d).name_index().is_none());
        s.ensure_name_index(d);
        assert!(s.doc(d).name_index().is_some());
        let first = s.doc(d).name_index().unwrap() as *const NameIndex;
        s.ensure_name_index(d);
        let second = s.doc(d).name_index().unwrap() as *const NameIndex;
        assert_eq!(first, second, "second ensure must be a no-op");
    }
}
