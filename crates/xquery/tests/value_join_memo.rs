//! Value joins probe, they do not loop — and nobody can tell but the clock.
//!
//! The plan engine keeps a probe table for a comparison operand whose
//! bindings do not change between evaluations. Every case here runs the
//! tree-walker (which keeps the plain nested loop) and the compiled plan
//! over the same document and demands the same result or the same error,
//! then reads the plan run's per-op profile to see when the invariant
//! operand was really evaluated: twice per distinct binding (first sight,
//! then the sight that builds the table), never once per outer item.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use xqd_xml::Store;
use xqd_xquery::compile::PlanTest;
use xqd_xquery::{
    compile_query, eval_query_with_indexes, parse_query, EvalResult, Evaluator, LocalResolver, Op,
    OpProfile, OpRef, Plan, ProfileHook, StaticContext,
};

/// Three key groups of 10 / 12 / 10 items (`o1`: k0–k9, `o2`: k5–k16,
/// `o3`: k20–k29), 25 probe elements k0–k24, and a small XMark-shaped
/// `site` with 12 persons and 60 auctions.
fn doc() -> String {
    let mut xml = String::from("<r>");
    for (id, keys) in [("o1", 0..10), ("o2", 5..17), ("o3", 20..30)] {
        xml.push_str(&format!("<o id=\"{id}\">"));
        for k in keys {
            xml.push_str(&format!("<item k=\"k{k}\"/>"));
        }
        xml.push_str("</o>");
    }
    for k in 0..25 {
        xml.push_str(&format!("<i k=\"k{k}\"/>"));
    }
    xml.push_str("<site><people>");
    for p in 0..12 {
        xml.push_str(&format!("<person id=\"person{p}\"><age>{}</age></person>", 25 + p * 2));
    }
    xml.push_str("</people><open_auctions>");
    for a in 0..60 {
        xml.push_str(&format!(
            "<open_auction><seller person=\"person{}\"/><annotation><author>a{a}</author>\
             </annotation></open_auction>",
            a % 15
        ));
    }
    xml.push_str("</open_auctions></site></r>");
    xml
}

fn store() -> Store {
    let mut s = Store::new();
    xqd_xml::parse_document(&mut s, &doc(), Some("d.xml")).unwrap();
    s
}

struct Ran {
    plan: Plan,
    profile: OpProfile,
    result: EvalResult,
}

/// Runs `src` on both engines, asserts they agree bit for bit (result or
/// error), and returns the plan run with its per-op profile.
fn run(src: &str, use_indexes: bool) -> Ran {
    let module = parse_query(src).unwrap();
    let reference = eval_query_with_indexes(&mut store(), &module, use_indexes);
    let plan = compile_query(&module, use_indexes, &StaticContext::default());
    let hook = ProfileHook {
        data: Rc::new(RefCell::new(OpProfile::new(plan.ops.len()))),
        clock: Arc::new(AtomicU64::new(0)),
    };
    let result = {
        let mut s = store();
        let mut resolver = LocalResolver;
        let mut ev = Evaluator::new(&mut s, &module.functions, &mut resolver)
            .with_indexes(use_indexes)
            .with_profile(hook.clone());
        plan.eval(&mut ev)
    };
    assert_eq!(
        format!("{reference:?}"),
        format!("{result:?}"),
        "engines diverged on {src} (indexes={use_indexes})\n{}",
        plan.dump()
    );
    let profile = hook.data.borrow().clone();
    Ran { plan, profile, result }
}

impl Ran {
    /// `calls` of the one op `pick` selects.
    fn calls(&self, what: &str, pick: impl Fn(&Plan, &Op) -> bool) -> u64 {
        let found: Vec<usize> =
            (0..self.plan.ops.len()).filter(|&i| pick(&self.plan, &self.plan.ops[i])).collect();
        assert_eq!(found.len(), 1, "{what}: expected one op\n{}", self.plan.dump());
        self.profile.calls[found[0]]
    }

    /// `calls` of the path op that starts at `$var` and ends in `last`.
    fn path_calls(&self, var: &str, last: &str) -> u64 {
        self.calls(&format!("path ${var}/…/{last}"), |plan, op| match op {
            Op::Path { start: Some(s), steps } => {
                is_var(plan, *s, var)
                    && matches!(steps.last().map(|st| st.test),
                        Some(PlanTest::Named(n)) if plan.syms[n as usize] == last)
            }
            _ => false,
        })
    }

    /// `calls` of the body of the `for $var`.
    fn body_calls(&self, var: &str) -> u64 {
        let ret = self.plan.ops.iter().find_map(|op| match op {
            Op::For { var: v, ret, .. } if self.plan.syms[*v as usize] == var => Some(*ret),
            _ => None,
        });
        self.profile.calls[ret.expect("the for op") as usize]
    }

    fn var_calls(&self, var: &str) -> u64 {
        (0..self.plan.ops.len() as OpRef)
            .filter(|&i| is_var(&self.plan, i, var))
            .map(|i| self.profile.calls[i as usize])
            .sum()
    }
}

fn is_var(plan: &Plan, op: OpRef, var: &str) -> bool {
    matches!(&plan.ops[op as usize], Op::VarRef(v) if plan.syms[*v as usize] == var)
}

/// (a) The paper's Section VII join: 60 auctions against the ids of the
/// persons under 40.
#[test]
fn paper_join_evaluates_the_key_column_twice() {
    let q = r#"(let $t := (let $s := doc("d.xml")/child::r/child::site/child::people/child::person
                          return for $x in $s return
                              if ($x/descendant::age < 40) then $x else ())
                return for $e in (let $c := doc("d.xml") return $c/descendant::open_auction)
                       return if ($e/child::seller/attribute::person = $t/attribute::id)
                              then $e/child::annotation else ())/child::author"#;
    for idx in [true, false] {
        let ran = run(q, idx);
        // persons 0..7 are under 40; sellers cycle over person0..person14
        assert_eq!(ran.result.as_ref().unwrap().len(), 32);
        assert_eq!(ran.path_calls("t", "id"), 2, "first sight, then the table");
        assert_eq!(ran.body_calls("e"), 60, "the body still runs once per auction");
        assert!(ran.plan.dump().contains(" memo(@"), "explain shows the decision");
    }
}

/// (b) The table is built inside the comparison, never hoisted: a loop that
/// does not iterate and a branch that is not taken evaluate nothing, so an
/// invariant operand that would raise does not.
#[test]
fn an_operand_that_is_not_reached_is_not_evaluated() {
    let empty_loop = run("let $t := (1, 2) return for $e in () return $e = $t/child::a", true);
    assert_eq!(format!("{:?}", empty_loop.result), "Ok([])");
    assert_eq!(empty_loop.path_calls("t", "a"), 0);

    let dead_branch = run(
        "let $t := (1, 2) return for $e in (1, 2, 3) return \
         if ($e > 5) then $e = $t/child::a else \"skipped\"",
        true,
    );
    assert_eq!(dead_branch.result.as_ref().unwrap().len(), 3);
    assert_eq!(dead_branch.path_calls("t", "a"), 0);

    // … and when it is reached, it raises what the reference raises, at the
    // first item (run() compared the messages)
    let reached = run("let $t := (1, 2) return for $e in (1, 2, 3) return $e = $t/child::a", true);
    assert!(reached.result.is_err());
    assert_eq!(reached.path_calls("t", "a"), 1);
}

/// (c) Nested loops: the invariant operand depends on the *outer* loop
/// variable, so each `$o` gets its own table — the counts differ per `$o`.
#[test]
fn nested_loops_rebuild_the_table_per_outer_binding() {
    let q = r#"for $o in doc("d.xml")//o
               return count(for $i in doc("d.xml")//i
                            return if ($i/@k = $o/item/@k) then $i else ())"#;
    for idx in [true, false] {
        let ran = run(q, idx);
        assert_eq!(format!("{:?}", ran.result), "Ok([Atom(Int(10)), Atom(Int(12)), Atom(Int(5))])");
        assert_eq!(ran.path_calls("o", "k"), 6, "twice per $o, not once per $i");
        assert_eq!(ran.body_calls("i"), 75);
    }
}

/// (c, continued) The memo's free variable is the `for` variable being
/// rebound, here around a step predicate. The loop rebinds `$o` in place only
/// when nothing else holds its value, and the memo key holds it, so every
/// item is a new key — `o1` coming back after `o3` gets a table of its own.
#[test]
fn the_rebound_loop_variable_is_a_new_key_per_item() {
    let q = r#"for $o in (doc("d.xml")//o, doc("d.xml")//o[@id = "o1"])
               return count(doc("d.xml")/r/i[@k = $o/item/@k])"#;
    for idx in [true, false] {
        let ran = run(q, idx);
        assert_eq!(
            format!("{:?}", ran.result),
            "Ok([Atom(Int(10)), Atom(Int(12)), Atom(Int(5)), Atom(Int(10))])"
        );
        assert_eq!(ran.path_calls("o", "k"), 8, "twice per $o, not once per candidate");
    }
}

/// (d) A recursive function comparing against its own parameter: the
/// recursive call sits in the middle of the caller's loop and takes over
/// the comparison's table; the caller's next item must see its own `$ks`.
#[test]
fn recursion_never_sees_another_activations_table() {
    let q = r#"declare function f($ks, $n) {
                   for $i in doc("d.xml")//i
                   return (if ($i/@k = $ks/@k) then concat($n, ":", $i/@k) else (),
                           if ($n > 1 and $i/@k = "k7") then f(subsequence($ks, 3), $n - 1) else ())
               };
               f(doc("d.xml")//o[@id = "o2"]/item, 3)"#;
    let ran = run(q, true);
    // depth 3 matches k5..k16 (12), depth 2 k7..k16 (10), depth 1 k9..k16 (8)
    assert_eq!(ran.result.as_ref().unwrap().len(), 12 + 10 + 8);
    assert_eq!(ran.body_calls("i"), 75);
    // each activation: first sight + build, and the two outer ones again
    // after the callee replaced their table
    assert_eq!(ran.path_calls("ks", "k"), 2 + 2 + 2 + 2 + 2);
}

/// (d, continued) The recursive call sits *inside the comparison's other
/// operand*: the caller already holds its table when the callee re-enters
/// the same comparison and re-keys its state. `$ks[1]/@k` is in the
/// caller's keys and not in the callee's, so comparing against the callee's
/// table loses the `k7` row. `skip` 3 leaves every activation >= 8 keys (the
/// callee builds a table of its own); `skip` 7 leaves the callee 6 (it
/// builds none and leaves the state without one).
#[test]
fn recursion_inside_the_other_operand_keeps_the_callers_table() {
    for (skip, depth, sights) in [(3, 3, 2 + 2 + 2 + 2 + 2), (7, 2, 2 + 25 + 2)] {
        let q = format!(
            r#"declare function f($ks, $n) {{
                   for $i in doc("d.xml")//i
                   return if ($ks/@k = (if ($n > 1 and $i/@k = "k7")
                                        then (f(subsequence($ks, {skip}), $n - 1), $ks[1]/@k)
                                        else $i/@k))
                          then concat($n, ":", $i/@k) else ()
               }};
               f(doc("d.xml")//o[@id = "o2"]/item, {depth})"#
        );
        let ran = run(&q, true);
        // k5..k16, the k7 row through the caller's own first key
        let rows: Vec<String> = (5..17).map(|k| format!("Atom(Str(\"{depth}:k{k}\"))")).collect();
        assert_eq!(format!("{:?}", ran.result), format!("Ok([{}])", rows.join(", ")));
        assert_eq!(ran.path_calls("ks", "k"), sights, "skip {skip}");
    }
}

/// (e) Shadowing: the name `$k` means two things in one query.
#[test]
fn shadowed_variable_compares_against_the_visible_binding() {
    let q = r#"for $k in doc("d.xml")//o
               return let $k := $k/item/@k
                      return count(for $i in doc("d.xml")//i
                                   return if ($i/@k = $k) then $i else ())"#;
    let ran = run(q, true);
    assert_eq!(format!("{:?}", ran.result), "Ok([Atom(Int(10)), Atom(Int(12)), Atom(Int(5))])");
}

/// (f) Not only under `for`: a step predicate and a filter evaluate their
/// comparison once per candidate too.
#[test]
fn predicates_and_filters_probe_too() {
    let step = run(
        r#"let $ks := doc("d.xml")//o[@id = "o2"]/item/@k return doc("d.xml")/r/i[@k = $ks]"#,
        true,
    );
    assert_eq!(step.result.as_ref().unwrap().len(), 12);
    // one reference binds nothing; the other is the operand: 2 sights of 25
    assert_eq!(step.var_calls("ks"), 2);

    let filter = run(
        r#"let $ks := doc("d.xml")//o[@id = "o3"]/item/@k return (doc("d.xml")//i)[@k = $ks]"#,
        true,
    );
    assert!(filter.plan.ops.iter().any(|op| matches!(op, Op::Filter { .. })));
    assert_eq!(filter.result.as_ref().unwrap().len(), 5);
    assert_eq!(filter.var_calls("ks"), 2);
}

/// An operand shorter than the cutoff gets no table: it is evaluated every
/// time, exactly as before.
#[test]
fn short_operands_are_left_alone() {
    let q = r#"let $ks := subsequence(doc("d.xml")//o[@id = "o1"]/item, 1, 3)
               return count(doc("d.xml")/r/i[@k = $ks/@k])"#;
    let ran = run(q, true);
    assert_eq!(format!("{:?}", ran.result), "Ok([Atom(Int(3))])");
    assert_eq!(ran.path_calls("ks", "k"), 25);
}

/// A comparison against a constant is not a join: were its other operand
/// invariant the whole comparison would be, and the usual case — a varying
/// operand (`age < 40`) — must not pay for the tracking.
#[test]
fn comparisons_against_a_constant_are_not_tracked() {
    let q = r#"count(for $p in doc("d.xml")//person return if ($p/age < 40) then $p else ())"#;
    let ran = run(q, true);
    assert_eq!(format!("{:?}", ran.result), "Ok([Atom(Int(8))])");
    assert!(ran.plan.memos.is_empty(), "{}", ran.plan.dump());
    assert!(!ran.plan.dump().contains("memo("));
}
