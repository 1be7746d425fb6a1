//! Let-motion normalization (Section IV, "Normalization").
//!
//! Rewriting operates on parse edges only, so whether a subexpression is
//! written inline or referenced through a `let` changes what gets shipped.
//! To be robust against this syntactic variation, `let`-bindings are moved
//! **down** to just above the lowest common ancestor of all references to
//! their variable — turning Qc2 into Qn2 (Table III) and thereby relating
//! `doc()` calls to their uses through parse edges.
//!
//! Unused bindings are dropped (XQuery is pure, so this is
//! semantics-preserving). Sinking stops when it would capture the binding's
//! free variables under a shadowing binder.

use std::collections::HashSet;

use xqd_xquery::ast::{map_children_infallible, Expr};
use xqd_xquery::normalize::{free_vars, occurs_free};

/// Applies let-motion to the whole expression, bottom-up, repeatedly until
/// a fixpoint (a sunk let may enable sinking an outer one).
pub fn let_motion(e: &Expr) -> Expr {
    let mut cur = e.clone();
    for _ in 0..16 {
        let next = sink_all(&cur);
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

fn sink_all(e: &Expr) -> Expr {
    let rebuilt = map_children_infallible(e, &mut sink_all);
    if let Expr::Let { var, value, ret } = &rebuilt {
        return sink_let(var, value, ret);
    }
    rebuilt
}

/// Sinks one binding into `ret` as deep as possible.
fn sink_let(var: &str, value: &Expr, ret: &Expr) -> Expr {
    if occurs_free(ret, var) {
        sink_into(var, value, ret, &free_vars(value))
    } else {
        ret.clone()
    }
}

/// Places `let $var := value` just above the LCA of all uses within `e`;
/// `fv` holds the free variables of `value`.
fn sink_into(var: &str, value: &Expr, e: &Expr, fv: &HashSet<String>) -> Expr {
    // if exactly one direct child subtree contains all the uses, descend —
    // unless that crossing would capture a free variable of `value`
    let wrap = |e: &Expr| Expr::Let {
        var: var.to_string(),
        value: value.clone().boxed(),
        ret: e.clone().boxed(),
    };

    // a VarRef itself: `let $v := X return $v` collapses to X
    if let Expr::VarRef(v) = e {
        if v == var {
            return value.clone();
        }
    }

    let mut holder = None;
    let mut split = false;
    let mut idx = 0;
    e.for_each_child(&mut |c, binders| {
        if occurs_free(c, var) {
            split |= holder.is_some();
            holder = Some((idx, c, binders));
        }
        idx += 1;
    });
    if split {
        return wrap(e); // uses split across children: stop here
    }
    let Some((idx, child, binders)) = holder else {
        return wrap(e); // uses live in non-child positions (e.g. Execute params)
    };

    // capture check: descending below a binder that binds one of value's
    // free variables (or rebinds $var itself) would change meaning
    if binders.iter().any(|b| b == var || fv.contains(b)) {
        return wrap(e);
    }
    // evaluation-count check: never sink into a per-iteration or remotely
    // evaluated position (for-loop bodies, predicates, order keys, shipped
    // bodies) — the paper's Qn2 keeps `let $t` above the exam loop
    if blocks_descent(e, idx) {
        return wrap(e);
    }

    replace_child(e, idx, &sink_into(var, value, child, fv))
}

/// Positions evaluated more than once (per item/candidate) or on a remote
/// peer: sinking a binding there would change evaluation count or site.
/// `idx` counts children in [`Expr::for_each_child`] order.
fn blocks_descent(e: &Expr, idx: usize) -> bool {
    match e {
        Expr::For { .. } => idx == 1,               // loop body
        Expr::Filter { .. } => idx == 1,            // predicate, per item
        Expr::OrderBy { .. } => idx >= 1,           // keys, per item
        Expr::Execute { .. } => idx == 1,           // shipped body
        Expr::Path { start, .. } => {
            // children: [start?][step predicates…]; predicates run per
            // candidate node
            idx >= usize::from(start.is_some())
        }
        _ => false,
    }
}

/// Rebuilds `e` with child `idx` replaced.
fn replace_child(e: &Expr, idx: usize, new_child: &Expr) -> Expr {
    let mut i = 0usize;
    map_children_infallible(e, &mut |c| {
        let out = if i == idx { new_child.clone() } else { c.clone() };
        i += 1;
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xquery::{normalize, parse_query};

    fn norm(q: &str) -> Expr {
        let m = parse_query(q).unwrap();
        normalize(&m).unwrap()
    }

    #[test]
    fn unused_let_is_dropped() {
        let e = norm("let $x := doc(\"d.xml\") return 42");
        let out = let_motion(&e);
        assert_eq!(out.to_string(), "42");
    }

    #[test]
    fn single_use_collapses() {
        let e = norm("let $x := 1 return $x");
        assert_eq!(let_motion(&e).to_string(), "1");
    }

    #[test]
    fn let_sinks_into_single_use_branch() {
        let e = norm(
            "let $c := doc(\"b.xml\") return \
             for $e in $c/child::x return if ($e = 1) then $e else ()",
        );
        let out = let_motion(&e);
        let s = out.to_string();
        // the let moves into the for's sequence, Qn2-style; since $c is
        // used exactly once it collapses into the path start
        assert!(
            s.starts_with("for $e in doc(\"b.xml\")/child::x"),
            "let should sink and collapse: {s}"
        );
    }

    #[test]
    fn q2_normalizes_toward_qn2() {
        // Qc2 (Table III): all lets at the top
        let e = norm(
            "(let $s := doc(\"xrpc://A/students.xml\")/child::people/child::person
              return let $c := doc(\"xrpc://B/course42.xml\")
              return let $t := (for $x in $s return
                         if ($x/child::tutor = $s/child::name) then $x else ())
              return for $e in $c/child::enroll/child::exam return
                  if ($e/attribute::id = $t/child::id) then $e else ())/child::grade",
        );
        let out = let_motion(&e);
        let s = out.to_string();
        // doc(B) must now be parse-related to its /enroll/exam use (inside
        // the for's sequence), not referenced from afar
        assert!(
            s.contains("for $e in doc(\"xrpc://B/course42.xml\")/child::enroll/child::exam"),
            "Qn2 shape expected: {s}"
        );
        // $s is used twice → the binding stays (inside the $t value)
        assert!(s.contains("let $s :="), "{s}");
    }

    #[test]
    fn multi_use_let_stays_at_lca() {
        let e = norm("let $x := doc(\"d.xml\") return ($x/child::a, $x/child::b)");
        let out = let_motion(&e);
        let s = out.to_string();
        assert!(s.starts_with("let $x :="), "uses split across sequence: {s}");
    }

    #[test]
    fn sinking_respects_shadowing() {
        // $y is free in $x's value; the for rebinds $y, so $x must not sink
        // into the loop body
        let e = norm(
            "let $y := 1 return let $x := ($y + 1) return \
             for $y in (10, 20) return ($y + $x)",
        );
        let out = let_motion(&e);
        let s = out.to_string();
        assert!(
            s.contains("let $x := 1 + 1 return for $y"),
            "x stays outside the shadowing binder (and $y := 1 collapsed into it): {s}"
        );
    }

    #[test]
    fn shadowed_bindings_keep_meaning() {
        // bottom-up collapsing dissolves the shadowing let first; the final
        // expression must still compute (100, 2)
        let e = norm(
            "let $y := 1 return let $x := ($y + 1) return let $y := 100 return ($y, $x)",
        );
        let out = let_motion(&e);
        let mut store = xqd_xml::Store::new();
        let module = xqd_xquery::QueryModule { functions: vec![], body: out };
        let r = xqd_xquery::eval_query(&mut store, &module).unwrap();
        assert_eq!(format!("{r:?}"), "[Atom(Int(100)), Atom(Int(2))]");
    }

    #[test]
    fn execute_param_uses_block_sinking() {
        let e = norm(
            "let $t := doc(\"xrpc://A/a.xml\")//p return \
             execute at { \"B\" } params ($q := $t) { $q/child::id }",
        );
        let out = let_motion(&e);
        assert!(out.to_string().starts_with("let $t :="), "{out}");
    }
}
