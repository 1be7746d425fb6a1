//! Distributed code motion (Section IV, Example 4.3).
//!
//! Subexpressions of a shipped function body that depend **only on shipped
//! parameters** can better be evaluated on the caller side, where the
//! parameter values live natively: instead of shipping full `person` nodes
//! only to extract `$para1/child::id` remotely, the caller extracts the
//! `id`s and ships those. The moved expression becomes an extra parameter;
//! the original parameter is dropped when no longer used.
//!
//! Safety follows the paper: only *d-point-shaped* expressions are moved —
//! here, predicate-free paths of downward axes rooted at a parameter — so
//! pass-by-value copying cannot change their meaning.

use std::collections::HashSet;

use xqd_xquery::ast::{map_children_infallible, Expr, Step, XrpcParam};
use xqd_xquery::normalize::occurs_free;

/// Applies distributed code motion to every `Execute` in the expression.
pub fn distributed_code_motion(e: &Expr) -> Expr {
    let mut counter = 0u32;
    rewrite(e, &mut counter)
}

fn rewrite(e: &Expr, counter: &mut u32) -> Expr {
    let rebuilt = map_children_infallible(e, &mut |c| rewrite(c, counter));
    let Expr::Execute { peer, params, body, projection } = &rebuilt else {
        return rebuilt;
    };
    let param_vars: HashSet<&str> = params.iter().map(|p| p.var.as_str()).collect();

    // find and replace movable candidates in the body
    let mut moved: Vec<Moved> = Vec::new();
    let new_body = extract_candidates(body, &param_vars, &mut moved, counter, false);
    if moved.is_empty() {
        return rebuilt;
    }

    // drop original parameters no longer referenced
    let kept: Vec<XrpcParam> = params
        .iter()
        .filter(|p| occurs_free(&new_body, &p.var))
        .cloned()
        .collect();

    // new parameters + caller-side lets evaluating the moved expressions
    let mut new_params = kept;
    let mut lets: Vec<(String, Expr)> = Vec::new();
    for m in &moved {
        let outer_var = format!("{}v", m.var);
        // candidate references parameter vars; rewrite to their outer names
        let mut outer_expr = m.candidate.clone();
        for p in params {
            outer_expr = xqd_xquery::rename_var(&outer_expr, &p.var, &p.outer);
        }
        // the fcn2new effect (Example 4.3): when the body only atomizes the
        // moved value, ship the extracted atomic values instead of nodes —
        // "extract the string value of id at peer A and only ship the
        // strings"
        if m.atomized_only {
            outer_expr = Expr::FunCall { name: "data".into(), args: vec![outer_expr] };
        }
        new_params.push(XrpcParam { var: m.var.clone(), outer: outer_var.clone() });
        lets.push((outer_var, outer_expr));
    }

    let mut out = Expr::Execute {
        peer: peer.clone(),
        params: new_params,
        body: new_body.boxed(),
        projection: projection.clone(),
    };
    for (var, value) in lets.into_iter().rev() {
        out = Expr::Let { var, value: value.boxed(), ret: out.boxed() };
    }
    out
}

/// One moved subexpression.
struct Moved {
    var: String,
    candidate: Expr,
    /// True while every occurrence sits in an atomizing position
    /// (comparison/arithmetic operand, atomizing built-in argument): the
    /// caller may then ship `data(candidate)` — atoms instead of nodes.
    atomized_only: bool,
}

/// Replaces maximal movable candidates with fresh variable references,
/// collecting them into `moved`. `atomizing` tracks whether the current
/// position consumes only the atomized value.
fn extract_candidates(
    e: &Expr,
    params: &HashSet<&str>,
    moved: &mut Vec<Moved>,
    counter: &mut u32,
    atomizing: bool,
) -> Expr {
    if is_movable(e, params) {
        // reuse a previously moved identical expression
        if let Some(m) = moved.iter_mut().find(|m| m.candidate == *e) {
            m.atomized_only &= atomizing;
            return Expr::VarRef(m.var.clone());
        }
        *counter += 1;
        let var = format!("cm{counter}");
        moved.push(Moved { var: var.clone(), candidate: e.clone(), atomized_only: atomizing });
        return Expr::VarRef(var);
    }
    match e {
        Expr::Comparison { op, lhs, rhs } => Expr::Comparison {
            op: *op,
            lhs: extract_candidates(lhs, params, moved, counter, true).boxed(),
            rhs: extract_candidates(rhs, params, moved, counter, true).boxed(),
        },
        Expr::Arith { op, lhs, rhs } => Expr::Arith {
            op: *op,
            lhs: extract_candidates(lhs, params, moved, counter, true).boxed(),
            rhs: extract_candidates(rhs, params, moved, counter, true).boxed(),
        },
        Expr::FunCall { name, args } if is_atomizing_builtin(name) => Expr::FunCall {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| extract_candidates(a, params, moved, counter, true))
                .collect(),
        },
        _ => map_children_infallible(e, &mut |c| {
            extract_candidates(c, params, moved, counter, false)
        }),
    }
}

fn is_atomizing_builtin(name: &str) -> bool {
    matches!(
        name.strip_prefix("fn:").unwrap_or(name),
        "string"
            | "data"
            | "number"
            | "concat"
            | "string-join"
            | "contains"
            | "starts-with"
            | "string-length"
            | "substring"
            | "upper-case"
            | "lower-case"
            | "normalize-space"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "distinct-values"
    )
}

/// A candidate is a d-point-shaped path ([`is_downward_run`]) whose start
/// is a parameter reference — safe to move under pass-by-value.
fn is_movable(e: &Expr, params: &HashSet<&str>) -> bool {
    match e {
        Expr::Path { start: Some(start), steps } => {
            is_downward_run(steps)
                && matches!(start.as_ref(), Expr::VarRef(v) if params.contains(v.as_str()))
        }
        _ => false,
    }
}

/// The d-point shape: a non-empty, predicate-free run of downward steps.
pub(crate) fn is_downward_run(steps: &[Step]) -> bool {
    !steps.is_empty() && steps.iter().all(|s| s.predicates.is_empty() && s.axis.is_downward())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xquery::parse_expr_str;

    #[test]
    fn example_4_3_id_extraction_moves_to_caller() {
        // fcn2($t): for $e in doc(B)… return if ($e/@id = $para1/child::id)…
        let e = parse_expr_str(
            "let $t := doc(\"xrpc://A/students.xml\")//person return \
             execute at { \"B\" } params ($para1 := $t) { \
               for $e in doc(\"xrpc://B/course42.xml\")/child::enroll/child::exam \
               return if ($e/attribute::id = $para1/child::id) then $e else () }",
        )
        .unwrap();
        let out = distributed_code_motion(&e);
        let s = out.to_string();
        // the candidate becomes a caller-side let over the ORIGINAL binding;
        // being comparison-only, the string values ship (fcn2new's
        // xs:string* parameter)
        assert!(s.contains("let $cm1v := data($t/child::id)"), "{s}");
        // the body now references the new parameter, original param dropped
        assert!(s.contains("params ($cm1 := $cm1v)"), "{s}");
        assert!(!s.contains("$para1/child::id"), "{s}");
    }

    #[test]
    fn original_param_kept_when_still_used() {
        let e = parse_expr_str(
            "let $t := doc(\"xrpc://A/a.xml\")//p return \
             execute at { \"B\" } params ($q := $t) { ($q, $q/child::id) }",
        )
        .unwrap();
        let out = distributed_code_motion(&e);
        let s = out.to_string();
        assert!(s.contains("$q := $t"), "original param still shipped: {s}");
        assert!(s.contains("$cm1 := $cm1v"), "{s}");
    }

    #[test]
    fn identical_candidates_share_one_parameter() {
        let e = parse_expr_str(
            "let $t := doc(\"xrpc://A/a.xml\")//p return \
             execute at { \"B\" } params ($q := $t) \
             { ($q/child::id = 1, $q/child::id = 2) }",
        )
        .unwrap();
        let out = distributed_code_motion(&e);
        let s = out.to_string();
        assert_eq!(s.matches("cm1 :=").count(), 1, "{s}");
        assert!(!s.contains("cm2"), "{s}");
    }

    #[test]
    fn reverse_axis_paths_are_not_moved() {
        let e = parse_expr_str(
            "let $t := doc(\"xrpc://A/a.xml\")//p return \
             execute at { \"B\" } params ($q := $t) { $q/parent::x }",
        )
        .unwrap();
        let out = distributed_code_motion(&e);
        assert!(!out.to_string().contains("cm1"), "{out}");
    }

    #[test]
    fn paths_over_remote_docs_stay_remote() {
        let e = parse_expr_str(
            "execute at { \"B\" } params () { doc(\"xrpc://B/b.xml\")/child::x }",
        )
        .unwrap();
        let out = distributed_code_motion(&e);
        assert_eq!(out, e, "nothing depends on parameters only");
    }

    #[test]
    fn candidates_with_predicates_stay() {
        let e = parse_expr_str(
            "let $t := doc(\"xrpc://A/a.xml\")//p return \
             execute at { \"B\" } params ($q := $t) { $q/child::id[. = 1] }",
        )
        .unwrap();
        let out = distributed_code_motion(&e);
        assert!(!out.to_string().contains("cm1"), "{out}");
    }
}
