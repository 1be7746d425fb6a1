//! The reference semantics: a tree-walker over the AST that the
//! differential suites compare the plan engine ([`crate::compile`]) and the
//! distributed executor against. No production code calls it.
//!
//! It shares the operator bodies of [`crate::eval`] with the plan engine,
//! and stays independent where the two really differ: it answers every
//! axis step by scanning (no name index, no `//n` fusion), folds no
//! constants, keeps no memo tables, batches no remote calls (an `Execute`
//! is an error here) and re-resolves every QName per context node.

use xqd_xml::axes::NodeTest;
use xqd_xml::{NodeId, Store};

use crate::ast::*;
use crate::eval::{arith, matches_seq_type, node_compare, node_set, Evaluator, LocalResolver};
use crate::value::*;

/// Evaluates `module` against `store` with local-only resolution, by
/// walking its AST.
pub fn reference_eval(store: &mut Store, module: &QueryModule) -> EvalResult {
    let mut resolver = LocalResolver;
    let mut ev = Evaluator::new(store, &module.functions, &mut resolver);
    walk(&mut ev, &module.body)
}

/// Evaluates an expression to a sequence.
fn walk(ev: &mut Evaluator<'_>, e: &Expr) -> EvalResult {
    match e {
        Expr::Literal(a) => Ok(Sequence::unit(Item::Atom(a.clone()))),
        Expr::Empty => Ok(Sequence::new()),
        Expr::Sequence(es) => {
            let mut out = Vec::new();
            for e in es {
                out.extend(walk(ev, e)?);
            }
            Ok(out.into())
        }
        Expr::VarRef(v) => ev.lookup(v),
        Expr::ContextItem => Ok(Sequence::unit(ev.context_item()?)),
        Expr::For { var, seq, ret } => {
            let input = walk(ev, seq)?;
            let mut out = Vec::new();
            for item in input.iter() {
                ev.env.push((var.clone(), Sequence::unit(item.clone())));
                let r = walk(ev, ret);
                ev.env.pop();
                out.extend(r?);
            }
            Ok(out.into())
        }
        Expr::Let { var, value, ret } => {
            let v = walk(ev, value)?;
            ev.env.push((var.clone(), v));
            let r = walk(ev, ret);
            ev.env.pop();
            r
        }
        Expr::If { cond, then, els } => {
            let c = walk(ev, cond)?;
            if effective_boolean_value(&c)? {
                walk(ev, then)
            } else {
                walk(ev, els)
            }
        }
        Expr::Typeswitch { input, cases, default_var, default } => {
            let v = walk(ev, input)?;
            let (var, body) = cases
                .iter()
                .find(|case| matches_seq_type(ev.store, &v, &case.seq_type))
                .map_or((default_var, default.as_ref()), |case| (&case.var, &case.body));
            ev.env.push((var.clone(), v));
            let r = walk(ev, body);
            ev.env.pop();
            r
        }
        Expr::Comparison { op, lhs, rhs } => {
            let (l, r) = (walk(ev, lhs)?, walk(ev, rhs)?);
            Ok(Sequence::boolean(general_compare(ev.store, *op, &l, &r)?))
        }
        Expr::NodeComparison { op, lhs, rhs } => {
            let (l, r) = (walk(ev, lhs)?, walk(ev, rhs)?);
            node_compare(*op, &l, &r)
        }
        Expr::NodeSet { op, lhs, rhs } => {
            let (l, r) = (walk(ev, lhs)?, walk(ev, rhs)?);
            node_set(*op, l, r)
        }
        Expr::Arith { op, lhs, rhs } => {
            let (l, r) = (walk(ev, lhs)?, walk(ev, rhs)?);
            arith(ev.store, *op, &l, &r)
        }
        Expr::OrderBy { input, specs } => {
            let items = walk(ev, input)?;
            ev.order_by(items, specs, walk)
        }
        Expr::Construct(c) => ev.construct(c, |ev, e| walk(ev, e)),
        Expr::Path { start, steps } => walk_path(ev, start.as_deref(), steps),
        Expr::Filter { input, predicate } => {
            let input = walk(ev, input)?;
            Ok(ev.apply_predicate(&input, predicate.as_ref(), walk)?.into())
        }
        Expr::FunCall { name, args } => {
            let functions = ev.functions;
            let user = functions
                .iter()
                .find(|f| f.name == *name)
                .map(|f| (f.params.iter().map(|(p, _)| p.as_str()), &f.body));
            ev.call(name, args, user, walk)
        }
        Expr::And(l, r) => {
            let lv = walk(ev, l)?;
            if !effective_boolean_value(&lv)? {
                return Ok(Sequence::boolean(false));
            }
            let rv = walk(ev, r)?;
            Ok(Sequence::boolean(effective_boolean_value(&rv)?))
        }
        Expr::Or(l, r) => {
            let lv = walk(ev, l)?;
            if effective_boolean_value(&lv)? {
                return Ok(Sequence::boolean(true));
            }
            let rv = walk(ev, r)?;
            Ok(Sequence::boolean(effective_boolean_value(&rv)?))
        }
        Expr::Execute { .. } => Err(EvalError::new(
            "execute at: no remote handler configured (local-only evaluator)",
        )),
    }
}

/// A path, every step a scan from each context node.
fn walk_path(ev: &mut Evaluator<'_>, start: Option<&Expr>, steps: &[Step]) -> EvalResult {
    let mut current: Sequence = match start {
        Some(e) => walk(ev, e)?,
        None => {
            // leading "/": root of the context item's document
            match ev.context_item()? {
                Item::Node(n) => Sequence::unit(Item::Node(NodeId::new(n.doc, 0))),
                Item::Atom(_) => {
                    return Err(EvalError::new("leading / requires a node context item"))
                }
            }
        }
    };
    for step in steps {
        let mut result: Vec<Item> = Vec::new();
        for item in current.iter() {
            let Item::Node(node) = *item else {
                return Err(EvalError::new("axis step applied to an atomic value"));
            };
            // re-resolved per context node: a predicate may construct, and
            // so intern, the very name this step tests
            let test = match &step.test {
                NameTest::Name(n) => {
                    ev.store.names.get(n).map(NodeTest::Name).unwrap_or(NodeTest::UnknownName)
                }
                NameTest::Wildcard => NodeTest::Wildcard,
                NameTest::AnyKind => NodeTest::AnyKind,
                NameTest::Text => NodeTest::Text,
                NameTest::Comment => NodeTest::Comment,
            };
            let mut candidates = ev.axis_scan(node, step.axis, &test);
            for pred in &step.predicates {
                candidates = ev.apply_predicate(&candidates, pred, walk)?;
            }
            result.extend(candidates);
        }
        sort_document_order(&mut result)?;
        current = result.into();
    }
    Ok(current)
}
