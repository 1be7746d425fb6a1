//! Normalization to XCore (Section III / IV preliminaries).
//!
//! Two passes run before any d-graph is built:
//!
//! 1. **Function inlining** — the paper's XCore has no user-defined function
//!    declarations ("our simple XCore rule … allows to express all queries
//!    in a single Expr"); every `FunCall` to a declared function becomes
//!    hygienic `let`-bindings of the arguments plus the renamed body.
//!    Recursive functions are rejected (decomposition never generates them).
//! 2. **Filter lowering** — surface predicates on non-step expressions
//!    (`$s[tutor = $s/name]`) become `for`/`if` as in the paper's Qc2;
//!    positional (numeric-literal) predicates are kept as filters because
//!    XCore keeps paths position()-free.
//!
//! The *let-motion* normalization of Section IV (moving `let`-bindings down
//! to the lowest common ancestor of their uses) lives in
//! `xqd-core::letmotion`, next to the decomposer that motivates it.

use std::collections::HashSet;

use crate::ast::*;
use crate::value::EvalError;

/// Inlines every user-defined function call, producing a single XCore
/// expression. Fails on recursion or unknown arity.
pub fn inline_functions(module: &QueryModule) -> Result<Expr, EvalError> {
    let mut fresh = 0u32;
    let mut stack = Vec::new();
    inline_expr(&module.body, module, &mut fresh, &mut stack)
}

fn inline_expr(
    e: &Expr,
    module: &QueryModule,
    fresh: &mut u32,
    stack: &mut Vec<String>,
) -> Result<Expr, EvalError> {
    // rebuild bottom-up
    let rebuilt = map_children(e, &mut |child| inline_expr(child, module, fresh, stack))?;
    if let Expr::FunCall { name, args } = &rebuilt {
        if let Some(func) = module.function(name) {
            if stack.iter().any(|n| n == name) {
                return Err(EvalError::new(format!(
                    "recursive function {name}() cannot be normalized to XCore"
                )));
            }
            if func.params.len() != args.len() {
                return Err(EvalError::new(format!(
                    "{name}() expects {} arguments, got {}",
                    func.params.len(),
                    args.len()
                )));
            }
            stack.push(name.clone());
            let mut body = inline_expr(&func.body, module, fresh, stack)?;
            stack.pop();
            let mut lets: Vec<(String, Expr)> = Vec::new();
            for ((param, _), arg) in func.params.iter().zip(args) {
                *fresh += 1;
                let fresh_name = format!("{param}_inl{fresh}");
                body = rename_var(&body, param, &fresh_name);
                lets.push((fresh_name, arg.clone()));
            }
            let mut out = body;
            for (var, value) in lets.into_iter().rev() {
                out = Expr::Let { var, value: value.boxed(), ret: out.boxed() };
            }
            return Ok(out);
        }
    }
    Ok(rebuilt)
}

/// Lowers non-positional `Filter` expressions to `for`/`if` (Qc2-style).
pub fn lower_filters(e: &Expr) -> Expr {
    let rebuilt = map_children_infallible(e, &mut lower_filters);
    if let Expr::Filter { input, predicate } = &rebuilt {
        if !is_positional(predicate) {
            let var = fresh_filter_var(predicate);
            let pred = substitute_context(predicate, &var);
            return Expr::For {
                var: var.clone(),
                seq: input.clone(),
                ret: Expr::If {
                    cond: pred.boxed(),
                    then: Expr::VarRef(var).boxed(),
                    els: Expr::Empty.boxed(),
                }
                .boxed(),
            };
        }
    }
    rebuilt
}

/// Full normalization pipeline: inline functions, then lower filters.
pub fn normalize(module: &QueryModule) -> Result<Expr, EvalError> {
    let inlined = inline_functions(module)?;
    Ok(lower_filters(&inlined))
}

fn is_positional(pred: &Expr) -> bool {
    matches!(pred, Expr::Literal(Atomic::Int(_)) | Expr::Literal(Atomic::Dbl(_)))
}

fn fresh_filter_var(pred: &Expr) -> String {
    // derive a stable name from the predicate's pointer-free shape
    let h = xqd_prng::fnv1a(format!("{pred:?}").as_bytes());
    format!("flt_{:x}", h & 0xffff_ffff)
}

/// Replaces free occurrences of the context item with `$var`. Stops at
/// constructs that rebind the context item (nested filters, step
/// predicates, order-by keys).
pub fn substitute_context(e: &Expr, var: &str) -> Expr {
    match e {
        Expr::ContextItem => Expr::VarRef(var.to_string()),
        Expr::Filter { input, predicate } => Expr::Filter {
            input: substitute_context(input, var).boxed(),
            predicate: predicate.clone(), // context rebound inside
        },
        Expr::Path { start, steps } => Expr::Path {
            start: start.as_ref().map(|s| substitute_context(s, var).boxed()),
            steps: steps.clone(), // step predicates rebind context
        },
        Expr::OrderBy { input, specs } => Expr::OrderBy {
            input: substitute_context(input, var).boxed(),
            specs: specs.clone(), // keys rebind context
        },
        other => map_children_infallible(other, &mut |c| substitute_context(c, var)),
    }
}

/// Hygienic variable rename: `$from` → `$to`, stopping at shadowing
/// rebindings of `$from`.
pub fn rename_var(e: &Expr, from: &str, to: &str) -> Expr {
    if matches!(e, Expr::VarRef(v) if v == from) {
        return Expr::VarRef(to.to_string());
    }
    let mut shadowed = Vec::new();
    e.for_each_child(&mut |_, binders| shadowed.push(binders.contains(from)));
    let mut shadowed = shadowed.into_iter();
    let mut out = map_children_infallible(e, &mut |c| {
        if shadowed.next() == Some(true) {
            c.clone()
        } else {
            rename_var(c, from, to)
        }
    });
    // shipped parameters read their outer variables in this scope
    if let Expr::Execute { params, .. } = &mut out {
        for p in params.iter_mut().filter(|p| p.outer == from) {
            p.outer = to.to_string();
        }
    }
    out
}

/// Free variables of an expression (referenced but not bound within).
pub fn free_vars(e: &Expr) -> HashSet<String> {
    let mut out = HashSet::new();
    for_each_free(e, &mut Vec::new(), &mut |v| {
        out.insert(v.to_string());
    });
    out
}

/// Is `$var` free in `e` (referenced, or shipped as a parameter, outside
/// any rebinding of it)?
pub fn occurs_free(e: &Expr, var: &str) -> bool {
    let mut found = false;
    for_each_free(e, &mut Vec::new(), &mut |v| found |= v == var);
    found
}

/// Calls `f` on every free variable occurrence in `e`: a `VarRef`, or an
/// `execute at` parameter's outer variable, not bound by an enclosing
/// binder inside `e` (`bound`).
fn for_each_free<'a>(e: &'a Expr, bound: &mut Vec<&'a str>, f: &mut impl FnMut(&'a str)) {
    let mut visit = |v: &'a str, bound: &[&str]| {
        if !bound.contains(&v) {
            f(v);
        }
    };
    match e {
        Expr::VarRef(v) => visit(v, bound),
        Expr::Execute { params, .. } => params.iter().for_each(|p| visit(&p.outer, bound)),
        _ => {}
    }
    e.for_each_child(&mut |c, binders| {
        let n = bound.len();
        bound.extend(binders.iter());
        for_each_free(c, bound, f);
        bound.truncate(n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn inline_simple_function() {
        let m = parse_query(
            "declare function double($x as xs:integer) as xs:integer { $x + $x }; double(21)",
        )
        .unwrap();
        let e = inline_functions(&m).unwrap();
        match &e {
            Expr::Let { var, value, ret } => {
                assert!(var.starts_with("x_inl"));
                assert_eq!(**value, Expr::int(21));
                assert!(matches!(ret.as_ref(), Expr::Arith { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_is_hygienic() {
        // the call argument references an outer $x; the function's own $x
        // must not capture it
        let m = parse_query(
            "declare function f($x as xs:integer) { $x + 1 }; let $x := 10 return f($x + 1)",
        )
        .unwrap();
        let e = inline_functions(&m).unwrap();
        // shape: let $x := 10 return let $x_inlN := $x + 1 return $x_inlN + 1
        match &e {
            Expr::Let { var, ret, .. } => {
                assert_eq!(var, "x");
                match ret.as_ref() {
                    Expr::Let { var: inner, ret: body, .. } => {
                        assert!(inner.starts_with("x_inl"));
                        match body.as_ref() {
                            Expr::Arith { lhs, .. } => {
                                assert_eq!(**lhs, Expr::VarRef(inner.clone()));
                            }
                            other => panic!("{other:?}"),
                        }
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn recursion_is_rejected() {
        let m = parse_query("declare function f($x as xs:integer) { f($x) }; f(1)").unwrap();
        assert!(inline_functions(&m).is_err());
    }

    #[test]
    fn nested_function_calls_inline() {
        let m = parse_query(
            "declare function g($y as xs:integer) { $y * 2 }; \
             declare function f($x as xs:integer) { g($x) + 1 }; \
             f(5)",
        )
        .unwrap();
        let e = inline_functions(&m).unwrap();
        let mut has_funcall = false;
        e.walk(&mut |x| {
            if matches!(x, Expr::FunCall { name, .. } if name == "f" || name == "g") {
                has_funcall = true;
            }
        });
        assert!(!has_funcall, "all UDF calls must be gone: {e}");
    }

    #[test]
    fn filter_lowering_matches_qc2() {
        let m = parse_query("let $s := doc(\"d.xml\")/people/person return $s[tutor = $s/name]")
            .unwrap();
        let e = normalize(&m).unwrap();
        // the filter becomes for $flt in $s return if (...) then $flt else ()
        let mut found_for_if = false;
        e.walk(&mut |x| {
            if let Expr::For { var, ret, .. } = x {
                if var.starts_with("flt_") {
                    if let Expr::If { then, els, .. } = ret.as_ref() {
                        assert_eq!(**then, Expr::VarRef(var.clone()));
                        assert_eq!(**els, Expr::Empty);
                        found_for_if = true;
                    }
                }
            }
        });
        assert!(found_for_if, "filter not lowered: {e}");
    }

    #[test]
    fn positional_filters_are_kept() {
        let m = parse_query("let $x := (1,2,3) return $x[2]").unwrap();
        let e = normalize(&m).unwrap();
        let mut has_filter = false;
        e.walk(&mut |x| {
            if matches!(x, Expr::Filter { .. }) {
                has_filter = true;
            }
        });
        assert!(has_filter);
    }

    #[test]
    fn free_vars_respect_binders() {
        let m =
            parse_query("for $x in $outer return ($x, $y, let $y := 1 return $y)").unwrap();
        let fv = free_vars(&m.body);
        assert!(fv.contains("outer"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn free_vars_of_execute() {
        let m = parse_query(
            "execute at { $peer } params ($a := $x) { ($a, $b) }",
        )
        .unwrap();
        let fv = free_vars(&m.body);
        assert!(fv.contains("peer"));
        assert!(fv.contains("x"), "shipped outer vars are free");
        assert!(fv.contains("b"), "body vars not bound by params are free");
        assert!(!fv.contains("a"), "params bind inside the body");
    }

    #[test]
    fn rename_respects_shadowing() {
        let m = parse_query("($x, let $x := 1 return $x)").unwrap();
        let renamed = rename_var(&m.body, "x", "z");
        match &renamed {
            Expr::Sequence(es) => {
                assert_eq!(es[0], Expr::VarRef("z".into()));
                match &es[1] {
                    Expr::Let { var, ret, .. } => {
                        assert_eq!(var, "x");
                        assert_eq!(**ret, Expr::VarRef("x".into()));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn substitute_context_stops_at_rebinders() {
        let m = parse_query("(., $s[. = 1])").unwrap();
        let out = substitute_context(&m.body, "v");
        match &out {
            Expr::Sequence(es) => {
                assert_eq!(es[0], Expr::VarRef("v".into()));
                // the nested filter predicate keeps its context item
                match &es[1] {
                    Expr::Filter { predicate, .. } => {
                        let mut has_ctx = false;
                        predicate.walk(&mut |x| {
                            if matches!(x, Expr::ContextItem) {
                                has_ctx = true;
                            }
                        });
                        assert!(has_ctx);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
