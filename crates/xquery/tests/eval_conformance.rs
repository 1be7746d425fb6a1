//! Evaluator conformance vignettes: one test per language feature, each
//! asserting the exact result of a small query over a small fixture.
//! Includes the paper's Q1 (Table I) evaluated *locally* — the ground truth
//! that the distributed semantics in `xqd-xrpc` must reproduce.

use xqd_xml::{parse_document, serialize_node, NodeKind, Store};
use xqd_xquery::value::string_value;
use xqd_xquery::{eval_query, parse_query, reference_eval, Atomic, EvalResult, Item, QueryModule};

fn fixture() -> Store {
    let mut s = Store::new();
    parse_document(
        &mut s,
        "<people><person id=\"p1\"><name>ann</name><age>30</age></person>\
         <person id=\"p2\"><name>bob</name><age>50</age></person>\
         <person id=\"p3\" idref=\"p1\"><name>cid</name><age>39</age></person></people>",
        Some("people.xml"),
    )
    .unwrap();
    parse_document(
        &mut s,
        "<courses><course id=\"c1\"><enroll ref=\"p1\"/><enroll ref=\"p3\"/></course>\
         <course id=\"c2\"><enroll ref=\"p2\"/></course></courses>",
        Some("courses.xml"),
    )
    .unwrap();
    s
}

/// Runs `m` through the reference walker (on a copy of `store`) and the
/// shipped plan engine (on `store` itself), asserts that the two agree on
/// the result or the error, and returns the plan engine's.
fn eval_both(store: &mut Store, m: &QueryModule) -> EvalResult {
    let reference = reference_eval(&mut store.clone(), m);
    let shipped = eval_query(store, m);
    assert_eq!(format!("{reference:?}"), format!("{shipped:?}"), "engines diverged on {m:?}");
    shipped
}

fn run(store: &mut Store, q: &str) -> Vec<Item> {
    let m = parse_query(q).unwrap_or_else(|e| panic!("parse {q:?}: {e}"));
    eval_both(store, &m).unwrap_or_else(|e| panic!("eval {q:?}: {e}")).into_vec()
}

fn run_strings(store: &mut Store, q: &str) -> Vec<String> {
    let r = run(store, q);
    r.iter().map(|i| string_value(store, i)).collect()
}

fn atoms(seq: &[Item]) -> Vec<Atomic> {
    seq.iter()
        .map(|i| match i {
            Item::Atom(a) => a.clone(),
            Item::Node(_) => panic!("expected atoms, got node"),
        })
        .collect()
}

#[test]
fn path_with_predicate() {
    let mut s = fixture();
    let names = run_strings(&mut s, "doc(\"people.xml\")//person[age < 40]/name");
    assert_eq!(names, vec!["ann", "cid"]);
}

#[test]
fn attribute_axis() {
    let mut s = fixture();
    let ids = run_strings(&mut s, "doc(\"people.xml\")/people/person/@id");
    assert_eq!(ids, vec!["p1", "p2", "p3"]);
}

#[test]
fn descendant_or_self_abbreviation() {
    let mut s = fixture();
    let r = run(&mut s, "count(doc(\"people.xml\")//*)");
    assert_eq!(atoms(&r), vec![Atomic::Int(10)]); // people + 3*(person,name,age)
}

#[test]
fn reverse_axis_parent() {
    let mut s = fixture();
    let r = run_strings(&mut s, "doc(\"people.xml\")//name[. = \"bob\"]/parent::person/@id");
    assert_eq!(r, vec!["p2"]);
}

#[test]
fn sibling_axes() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "doc(\"people.xml\")//person[@id = \"p2\"]/preceding-sibling::person/@id",
    );
    assert_eq!(r, vec!["p1"]);
    let r = run_strings(
        &mut s,
        "doc(\"people.xml\")//person[@id = \"p2\"]/following-sibling::person/@id",
    );
    assert_eq!(r, vec!["p3"]);
}

#[test]
fn path_results_are_document_ordered_and_deduped() {
    let mut s = fixture();
    // both person and people contexts reach the same name nodes
    let r = run(&mut s, "count((doc(\"people.xml\")//person, doc(\"people.xml\")/people)//name)");
    assert_eq!(atoms(&r), vec![Atomic::Int(3)]);
}

#[test]
fn flwor_with_where() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person where $p/age > 35 return $p/name",
    );
    assert_eq!(r, vec!["bob", "cid"]);
}

#[test]
fn let_binding_and_sequences() {
    let mut s = fixture();
    let r = run(&mut s, "let $x := (1, 2) return ($x, 3)");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(2), Atomic::Int(3)]);
}

#[test]
fn general_comparison_existential() {
    let mut s = fixture();
    let r = run(&mut s, "doc(\"people.xml\")//person/age = 30");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "doc(\"people.xml\")//person/age = 31");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
}

#[test]
fn node_identity_is() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "let $a := doc(\"people.xml\")//person[1], $b := doc(\"people.xml\")//name[. = \"ann\"]/.. \
         return $a is $b",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
}

#[test]
fn node_order_comparisons() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "let $a := doc(\"people.xml\")//person[1], $b := doc(\"people.xml\")//person[2] \
         return ($a << $b, $b >> $a, $a >> $b)",
    );
    assert_eq!(
        atoms(&r),
        vec![Atomic::Bool(true), Atomic::Bool(true), Atomic::Bool(false)]
    );
}

#[test]
fn node_comparison_with_empty_operand_is_empty() {
    let mut s = fixture();
    let r = run(&mut s, "doc(\"people.xml\")//nosuch is doc(\"people.xml\")/people");
    assert!(r.is_empty());
}

#[test]
fn set_operations_in_document_order() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "(doc(\"people.xml\")//person[2] union doc(\"people.xml\")//person[1])/@id",
    );
    assert_eq!(r, vec!["p1", "p2"]);
    let r = run(
        &mut s,
        "count(doc(\"people.xml\")//person intersect doc(\"people.xml\")//person[age < 40])",
    );
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
    let r = run_strings(
        &mut s,
        "(doc(\"people.xml\")//person except doc(\"people.xml\")//person[age < 40])/@id",
    );
    assert_eq!(r, vec!["p2"]);
}

#[test]
fn positional_predicates() {
    let mut s = fixture();
    assert_eq!(run_strings(&mut s, "doc(\"people.xml\")//person[2]/name"), vec!["bob"]);
    assert_eq!(run_strings(&mut s, "(doc(\"people.xml\")//person/name)[3]"), vec!["cid"]);
}

#[test]
fn if_then_else() {
    let mut s = fixture();
    let r = run(&mut s, "if (doc(\"people.xml\")//person[age > 100]) then 1 else 2");
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
}

#[test]
fn typeswitch_dispatch() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "typeswitch (doc(\"people.xml\")//person[1]) \
           case $a as attribute() return 1 \
           case $e as element(person) return 2 \
           default $d return 3",
    );
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
    let r = run(
        &mut s,
        "typeswitch (\"hello\") case $s as xs:string return 1 default $d return 2",
    );
    assert_eq!(atoms(&r), vec![Atomic::Int(1)]);
}

#[test]
fn order_by_ascending_descending() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person order by $p/age return $p/name/text()",
    );
    assert_eq!(r, vec!["ann", "cid", "bob"]);
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person order by $p/age descending return $p/name/text()",
    );
    assert_eq!(r, vec!["bob", "cid", "ann"]);
}

#[test]
fn order_by_string_keys() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $p in doc(\"people.xml\")//person order by $p/name descending return $p/@id",
    );
    assert_eq!(r, vec!["p3", "p2", "p1"]);
}

#[test]
fn arithmetic() {
    let mut s = fixture();
    let r = run(&mut s, "(1 + 2 * 3, 7 mod 2, 10 div 4, -(3))");
    assert_eq!(
        atoms(&r),
        vec![Atomic::Int(7), Atomic::Int(1), Atomic::Dbl(2.5), Atomic::Int(-3)]
    );
}

#[test]
fn arithmetic_on_node_values() {
    let mut s = fixture();
    let r = run(&mut s, "sum(doc(\"people.xml\")//age)");
    assert_eq!(atoms(&r), vec![Atomic::Dbl(119.0)]);
}

/// ±∞ is spelled `INF` / `-INF`, the XSD lexical form, so its string casts
/// back to the same double.
#[test]
fn infinity_round_trips_through_its_string() {
    let mut s = fixture();
    assert_eq!(run_strings(&mut s, "string(number(\"1e400\"))"), vec!["INF"]);
    let r = run(&mut s, "number(string(number(\"-1e400\")))");
    assert_eq!(atoms(&r), vec![Atomic::Dbl(f64::NEG_INFINITY)]);
}

/// An `xs:double` cast to a string is written in decimal only for a
/// magnitude in [1e-6, 1e6); any other value takes the exponent form, and
/// negative zero keeps its sign.
#[test]
fn double_string_takes_the_exponent_form_outside_the_decimal_range() {
    let mut s = fixture();
    let q = "string(1e20), string(1e-7), 1e6 div 1, string(-0e0), string(0.5e0), \
             string(999999.5e0), string(-1234567e0), string(0.000001e0)";
    let want = ["1.0E20", "1.0E-7", "1.0E6", "-0", "0.5", "999999.5", "-1.234567E6", "0.000001"];
    assert_eq!(run_strings(&mut s, q), want);
}

#[test]
fn and_or_short_circuit() {
    let mut s = fixture();
    // the right operand would error (unknown function) if evaluated
    let r = run(&mut s, "if (false() and boom()) then 1 else 2");
    assert_eq!(atoms(&r), vec![Atomic::Int(2)]);
    let r = run(&mut s, "if (true() or boom()) then 1 else 2");
    assert_eq!(atoms(&r), vec![Atomic::Int(1)]);
}

#[test]
fn element_constructor_copies_content() {
    let mut s = fixture();
    let r = run(&mut s, "element wrap { doc(\"people.xml\")//person[1]/name }");
    match r.as_slice() {
        [Item::Node(n)] => {
            let txt = serialize_node(s.doc(n.doc), &s.names, n.idx);
            assert_eq!(txt, "<wrap><name>ann</name></wrap>");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn constructed_nodes_have_new_identity() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "let $n := (doc(\"people.xml\")//name)[1] \
         let $c := element w { $n } \
         return $c/child::name is $n",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
}

#[test]
fn attribute_constructor_inside_element() {
    let mut s = fixture();
    let r = run(&mut s, "element e { attribute k { \"v\" }, \"body\" }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(serialize_node(s.doc(n.doc), &s.names, n.idx), "<e k=\"v\">body</e>");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn document_and_text_constructors() {
    let mut s = fixture();
    let r = run(&mut s, "document { element a {()} }");
    match r.as_slice() {
        [Item::Node(n)] => assert_eq!(s.doc(n.doc).kind(n.idx), NodeKind::Document),
        other => panic!("{other:?}"),
    }
    let r = run(&mut s, "text { \"a\", \"b\" }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(s.doc(n.doc).kind(n.idx), NodeKind::Text);
            assert_eq!(s.doc(n.doc).string_value(n.idx), "a b");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn computed_constructor_name() {
    let mut s = fixture();
    let r = run(&mut s, "element { concat(\"pre\", \"fix\") } { () }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(s.node(*n).name(), "prefix");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn adjacent_atoms_join_with_space() {
    let mut s = fixture();
    let r = run(&mut s, "element e { 1, 2, \"x\" }");
    match r.as_slice() {
        [Item::Node(n)] => {
            assert_eq!(s.doc(n.doc).string_value(n.idx), "1 2 x");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn user_defined_functions() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "declare function grownup($p as element(person)) as xs:boolean { $p/age >= 40 }; \
         for $p in doc(\"people.xml\")//person where grownup($p) return $p/@id",
    );
    assert_eq!(r.len(), 1);
    assert_eq!(string_value(&s, &r[0]), "p2");
}

#[test]
fn function_scope_is_isolated() {
    let mut s = fixture();
    let m = parse_query(
        "declare function f() as xs:integer { $leak }; let $leak := 1 return f()",
    )
    .unwrap();
    assert!(eval_both(&mut s, &m).is_err(), "function bodies must not see caller scope");
}

#[test]
fn builtin_id_and_idref() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "id(\"p2\", doc(\"people.xml\"))/name",
    );
    assert_eq!(r, vec!["bob"]);
    let r = run_strings(&mut s, "idref(\"p1\", doc(\"people.xml\"))/../@id");
    assert_eq!(r, vec!["p3"]);
}

#[test]
fn builtin_root() {
    let mut s = fixture();
    let r = run(&mut s, "root((doc(\"people.xml\")//age)[1]) is doc(\"people.xml\")");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
}

#[test]
fn builtin_document_uri_and_base_uri() {
    let mut s = fixture();
    let r = run(&mut s, "document-uri(doc(\"people.xml\"))");
    assert_eq!(atoms(&r), vec![Atomic::Str("people.xml".into())]);
    let r = run(&mut s, "base-uri(doc(\"people.xml\")//person[1])");
    assert_eq!(atoms(&r), vec![Atomic::Str("people.xml".into())]);
    // constructed fragments have no document-uri
    let r = run(&mut s, "document-uri(document { element a {()} })");
    assert!(r.is_empty());
}

#[test]
fn builtin_static_context() {
    let mut s = fixture();
    let r = run(&mut s, "(static-base-uri(), default-collation(), current-dateTime())");
    assert_eq!(r.len(), 3);
}

#[test]
fn builtin_string_functions() {
    let mut s = fixture();
    let r = run(&mut s, "concat(\"a\", \"b\", \"c\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("abc".into())]);
    let r = run(&mut s, "string-join((\"a\", \"b\"), \"-\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("a-b".into())]);
    let r = run(&mut s, "(contains(\"abc\", \"b\"), starts-with(\"abc\", \"b\"))");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true), Atomic::Bool(false)]);
    let r = run(&mut s, "substring(\"hello\", 2, 3)");
    assert_eq!(atoms(&r), vec![Atomic::Str("ell".into())]);
    let r = run(&mut s, "normalize-space(\"  a   b \")");
    assert_eq!(atoms(&r), vec![Atomic::Str("a b".into())]);
}

#[test]
fn builtin_aggregates() {
    let mut s = fixture();
    let r = run(&mut s, "(count((1,2,3)), sum((1,2,3)), avg((1,2,3)), min((3,1,2)), max((3,1,2)))");
    assert_eq!(
        atoms(&r),
        vec![
            Atomic::Int(3),
            Atomic::Int(6),
            Atomic::Dbl(2.0),
            Atomic::Dbl(1.0),
            Atomic::Dbl(3.0)
        ]
    );
}

#[test]
fn builtin_distinct_values() {
    let mut s = fixture();
    let r = run(&mut s, "distinct-values((1, 2, 1, \"a\", \"a\"))");
    assert_eq!(r.len(), 3);
}

#[test]
fn builtin_deep_equal() {
    let mut s = fixture();
    let r = run(
        &mut s,
        "deep-equal(doc(\"people.xml\")//person[1], element person { attribute id {\"p1\"}, \
         element name {\"ann\"}, element age {\"30\"} })",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
}

#[test]
fn builtin_name_functions() {
    let mut s = fixture();
    let r = run(&mut s, "name(doc(\"people.xml\")/people)");
    assert_eq!(atoms(&r), vec![Atomic::Str("people".into())]);
}

#[test]
fn unknown_function_errors() {
    let mut s = fixture();
    let m = parse_query("nosuchfn(1)").unwrap();
    assert!(eval_both(&mut s, &m).is_err());
}

#[test]
fn unbound_variable_errors() {
    let mut s = fixture();
    let m = parse_query("$nope").unwrap();
    assert!(eval_both(&mut s, &m).is_err());
}

#[test]
fn execute_without_handler_errors() {
    let mut s = fixture();
    let m = parse_query("execute at { \"peer1\" } params () { 1 }").unwrap();
    let err = eval_both(&mut s, &m).unwrap_err();
    assert!(err.message.contains("no remote handler"), "{err}");
}

#[test]
fn cross_document_join() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "for $c in doc(\"courses.xml\")//course \
         for $e in $c/enroll \
         for $p in doc(\"people.xml\")//person[@id = $e/@ref] \
         return concat($c/@id, \":\", $p/name)",
    );
    assert_eq!(r, vec!["c1:ann", "c1:cid", "c2:bob"]);
}

/// The paper's Q1 (Table I), executed locally. The result is a single <c/>
/// element: `$first` is always `$abc` (the parent), overlap always holds,
/// and the final //c step deduplicates because both loop results come from
/// the same constructed fragment.
#[test]
fn paper_q1_local_semantics() {
    let mut s = Store::new();
    let q1 = r#"
        declare function makenodes() as node()
        { element a { element b { element c {()} } }/b };
        declare function overlap($l as node(), $r as node()) as xs:boolean
        { not(empty($l//* intersect $r//*)) };
        declare function earlier($l as node(), $r as node()) as node()
        { if ($l << $r) then $l else $r };
        let $bc := makenodes(),
            $abc := $bc/parent::a
        return (for $node in ($bc, $abc)
                let $first := earlier($bc, $abc)
                where overlap($first, $node)
                return $node)//c
    "#;
    let r = run(&mut s, q1);
    assert_eq!(r.len(), 1, "local execution returns exactly one <c/>: {r:?}");
    match &r[0] {
        Item::Node(n) => assert_eq!(s.node(*n).name(), "c"),
        other => panic!("{other:?}"),
    }
}

/// Q1 building blocks: makenodes() result keeps its parent (Problem 1 does
/// NOT occur locally).
#[test]
fn paper_q1_parent_is_reachable_locally() {
    let mut s = Store::new();
    let q = r#"
        declare function makenodes() as node()
        { element a { element b { element c {()} } }/b };
        let $bc := makenodes(), $abc := $bc/parent::a
        return (name($abc), count($abc))
    "#;
    let r = run(&mut s, q);
    assert_eq!(atoms(&r), vec![Atomic::Str("a".into()), Atomic::Int(1)]);
}

#[test]
fn filter_on_variable() {
    let mut s = fixture();
    let r = run_strings(
        &mut s,
        "let $s := doc(\"people.xml\")//person return $s[age < 40]/@id",
    );
    assert_eq!(r, vec!["p1", "p3"]);
}

#[test]
fn empty_sequence_propagation() {
    let mut s = fixture();
    assert!(run(&mut s, "()").is_empty());
    assert!(run(&mut s, "1 + ()").is_empty());
    assert!(run(&mut s, "doc(\"people.xml\")//nosuch/child::x").is_empty());
}

#[test]
fn division_by_zero_errors() {
    let mut s = fixture();
    let m = parse_query("1 div 0").unwrap();
    assert!(eval_both(&mut s, &m).is_err());
}

#[test]
fn quantified_expressions() {
    let mut s = fixture();
    let r = run(&mut s, "some $p in doc(\"people.xml\")//person satisfies $p/age > 45");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "some $p in doc(\"people.xml\")//person satisfies $p/age > 100");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
    let r = run(&mut s, "every $p in doc(\"people.xml\")//person satisfies $p/age >= 30");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "every $p in doc(\"people.xml\")//person satisfies $p/age > 30");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false)]);
    // multiple bindings
    let r = run(
        &mut s,
        "some $p in doc(\"people.xml\")//person, $c in doc(\"courses.xml\")//enroll \
         satisfies $p/@id = $c/@ref",
    );
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    // empty domain: some → false, every → true
    let r = run(&mut s, "(some $x in () satisfies $x, every $x in () satisfies $x)");
    assert_eq!(atoms(&r), vec![Atomic::Bool(false), Atomic::Bool(true)]);
}

#[test]
fn builtin_sequence_functions() {
    let mut s = fixture();
    let r = run(&mut s, "subsequence((1,2,3,4,5), 2, 3)");
    assert_eq!(atoms(&r), vec![Atomic::Int(2), Atomic::Int(3), Atomic::Int(4)]);
    let r = run(&mut s, "subsequence((1,2,3), 2)");
    assert_eq!(atoms(&r), vec![Atomic::Int(2), Atomic::Int(3)]);
    let r = run(&mut s, "insert-before((1,3), 2, (2))");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(2), Atomic::Int(3)]);
    let r = run(&mut s, "remove((1,2,3), 2)");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(3)]);
    let r = run(&mut s, "index-of((10,20,10), 10)");
    assert_eq!(atoms(&r), vec![Atomic::Int(1), Atomic::Int(3)]);
    let r = run(&mut s, "(head((7,8,9)), count(tail((7,8,9))))");
    assert_eq!(atoms(&r), vec![Atomic::Int(7), Atomic::Int(2)]);
    let r = run(&mut s, "reverse((1,2,3))");
    assert_eq!(atoms(&r), vec![Atomic::Int(3), Atomic::Int(2), Atomic::Int(1)]);
}

#[test]
fn builtin_string_functions_extended() {
    let mut s = fixture();
    let r = run(&mut s, "substring-before(\"a-b-c\", \"-\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("a".into())]);
    let r = run(&mut s, "substring-after(\"a-b-c\", \"-\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("b-c".into())]);
    let r = run(&mut s, "ends-with(\"hello\", \"llo\")");
    assert_eq!(atoms(&r), vec![Atomic::Bool(true)]);
    let r = run(&mut s, "translate(\"abcabc\", \"abc\", \"xy\")");
    assert_eq!(atoms(&r), vec![Atomic::Str("xyxy".into())]);
    let r = run(&mut s, "tokenize(\"a,b,,c\", \",\")");
    assert_eq!(
        atoms(&r),
        vec![
            Atomic::Str("a".into()),
            Atomic::Str("b".into()),
            Atomic::Str("c".into())
        ]
    );
    let r = run(&mut s, "(abs(-2.5), floor(2.7), ceiling(2.1), round(2.5))");
    assert_eq!(
        atoms(&r),
        vec![Atomic::Dbl(2.5), Atomic::Dbl(2.0), Atomic::Dbl(3.0), Atomic::Dbl(3.0)]
    );
}

/// `substring` selects the positions p with round(start) <= p <
/// round(start) + round(length), computed in doubles (F&O §7.4.3): a start
/// before the string takes from its first character, a NaN bound selects
/// nothing, and an infinite length has no end.
#[test]
fn substring_positions_follow_the_spec() {
    let mut s = fixture();
    for (q, want) in [
        ("substring(\"abc\", 0)", "abc"),
        ("substring(\"12345\", -1)", "12345"),
        ("substring(\"12345\", number(\"NaN\"), 3)", ""),
        ("substring(\"12345\", 2, number(\"INF\"))", "2345"),
        ("substring(\"12345\", number(\"-INF\"), number(\"INF\"))", ""),
        ("substring(\"12345\", 1.5, 2.6)", "234"),
        ("substring(\"12345\", 0, 3)", "12"),
        ("substring(\"12345\", -2.5, 5)", "12"),
        ("substring(\"grüße\", 3)", "üße"),
    ] {
        assert_eq!(atoms(&run(&mut s, q)), vec![Atomic::Str(want.into())], "{q}");
    }
}

/// `round` rounds a half toward +∞ and keeps the sign of a zero result
/// (F&O §6.4.4).
#[test]
fn round_takes_halves_toward_positive_infinity() {
    let mut s = fixture();
    let r = run(&mut s, "(round(-2.5), round(2.5), round(-2.6), round(0.49999999999999994))");
    assert_eq!(atoms(&r), [-2.0, 3.0, -3.0, 0.0].map(Atomic::Dbl));
    let q = "(string(round(-0.5)), string(round(-0e0)), string(round(-0.2)), string(round(0.5)))";
    assert_eq!(run_strings(&mut s, q), ["-0", "-0", "-0", "1"]);
    assert_eq!(run_strings(&mut s, "string(round(number(\"NaN\")))"), ["NaN"]);
}

/// Unary minus flips the sign and nothing else: a double zero becomes
/// the other zero, an integer stays an integer.
#[test]
fn unary_minus_keeps_the_sign_of_zero() {
    let mut s = fixture();
    let q = "let $z := 0e0 return string(-$z), let $z := -0e0 return string(-$z)";
    assert_eq!(run_strings(&mut s, q), ["-0", "0"]);
    let r = run(&mut s, "let $i := 5 return (-$i, - -$i, -(2 + 3), -2.5e0)");
    assert_eq!(atoms(&r), [Atomic::Int(-5), Atomic::Int(5), Atomic::Int(-5), Atomic::Dbl(-2.5)]);
}

/// F&O §6.2.4 / §6.2.6: an `xs:double` divided by zero is `INF`, `-INF` or
/// `NaN` per IEEE 754, and so is its `mod`; a decimal is modelled as a
/// double (DESIGN.md, Substitutions), so `1.0 div 0` is `INF` too.
#[test]
fn double_division_by_zero_follows_ieee_754() {
    let rows = [
        ("string(1e0 div 0)", "INF"),
        ("string(-1e0 div 0)", "-INF"),
        ("string(0e0 div 0e0)", "NaN"),
        ("string(5 mod 0e0)", "NaN"),
        ("string(1.0 div 0)", "INF"),
    ];
    let mut s = fixture();
    for (q, want) in rows {
        assert_eq!(run_strings(&mut s, q), [want], "{q}");
    }
}

/// F&O §6.2.4 / §6.2.6: an integer `div` or `mod` by zero raises
/// `err:FOAR0001`, named in the message.
#[test]
fn integer_division_by_zero_is_foar0001() {
    let mut s = fixture();
    for q in ["1 div 0", "5 mod 0"] {
        let err = eval_both(&mut s, &parse_query(q).unwrap()).unwrap_err();
        assert!(err.message.contains("err:FOAR0001"), "{q}: {err}");
    }
}

/// XQuery §3.4: an arithmetic operand is atomized and must be numeric, or
/// untyped, which casts to `xs:double`; anything else is `err:XPTY0004`.
/// Unary plus and minus obey the same rule.
#[test]
fn arithmetic_on_a_string_or_boolean_is_xpty0004() {
    let mut s = fixture();
    for q in ["true() + 1", "\"1\" + 1", "+\"a\"", "-\"a\"", "1 * false()"] {
        let err = eval_both(&mut s, &parse_query(q).unwrap()).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("err:XPTY0004"), "{q}: {err}");
    }
    let q = "let $age := doc(\"people.xml\")//person[1]/age \
             return ($age + 1, +$age, -$age, 1 * 2, +2)";
    let r = run(&mut s, q);
    let want = [Atomic::Dbl(31.0), Atomic::Dbl(30.0), Atomic::Dbl(-30.0)];
    assert_eq!(atoms(&r), [&want[..], &[Atomic::Int(2), Atomic::Int(2)]].concat());
}

/// Dynamic errors carry their codes beside today's messages, one row per
/// case: (query, code, message, the section that names the code).
#[test]
fn dynamic_errors_carry_their_codes() {
    let rows = [
        // XQuery 1.0 §3.4: an untyped operand casts to xs:double, and a
        // text outside its lexical space fails the cast (F&O §17.1.1)
        (
            "doc(\"people.xml\")//person[1]/name + 1",
            "err:FORG0001",
            "left operand is not numeric",
            "XQuery 1.0 §3.4, F&O §17.1.1",
        ),
        // XQuery 1.0 §3.4: an atomized operand longer than one item
        (
            "(1, 2) + 1",
            "err:XPTY0004",
            "arithmetic on a multi-item sequence",
            "XQuery 1.0 §3.4",
        ),
        // XQuery 1.0 §2.4.3 / F&O §15.1.1: no effective boolean value
        (
            "if ((1, 2)) then 1 else 0",
            "err:FORG0006",
            "effective boolean value of a multi-atom sequence",
            "XQuery 1.0 §2.4.3, F&O §15.1.1",
        ),
        // F&O §15.4.3: fn:min over values that cannot be compared
        (
            "min((1, \"a\"))",
            "err:FORG0006",
            "min() over non-numeric",
            "F&O §15.4.3",
        ),
    ];
    let mut s = fixture();
    for (q, code, message, section) in rows {
        let err = eval_both(&mut s, &parse_query(q).unwrap()).unwrap_err();
        assert_eq!(err.code.as_deref(), Some(code), "{q} ({section}): {err}");
        assert_eq!(err.message, message, "{q} ({section})");
    }
}

/// `order by` sorts in one total order: empty keys, then NaN, then the
/// numeric keys by value, then the other keys by text. 400 mixed keys in two
/// shuffles of the same document must sort to the same key sequence, in
/// that order, without the sort giving up on an inconsistent comparison.
#[test]
fn order_by_mixed_keys_is_a_total_order() {
    let mut keys: Vec<Option<String>> = Vec::new();
    keys.extend((0..40).map(|_| None));
    keys.extend((0..120).map(|_| Some("NaN".to_string())));
    keys.extend((0..160).map(|i| Some(format!("{}", i * 7 - 500))));
    keys.extend((0..80).map(|i| Some(format!("t{i:03}"))));
    let mut want_asc: Vec<String> = Vec::new();
    want_asc.extend((0..40).map(|_| String::new()));
    want_asc.extend((0..120).map(|_| "NaN".to_string()));
    want_asc.extend((0..160).map(|i| format!("{}", i * 7 - 500)));
    want_asc.extend((0..80).map(|i| format!("t{i:03}")));
    let want_desc: Vec<String> = want_asc.iter().rev().cloned().collect();

    for seed in [1u64, 2] {
        let mut rng = xqd_prng::Rng::seed_from_u64(seed);
        let mut order = keys.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range_usize(0..i + 1));
        }
        let mut xml = String::from("<r>");
        for k in &order {
            match k {
                Some(k) => xml.push_str(&format!("<i k=\"{k}\"/>")),
                None => xml.push_str("<i/>"),
            }
        }
        xml.push_str("</r>");
        let mut s = Store::new();
        parse_document(&mut s, &xml, Some("o.xml")).unwrap();
        for (dir, want) in [("ascending", &want_asc), ("descending", &want_desc)] {
            let q = format!(
                "for $i in doc(\"o.xml\")/r/i order by $i/@k {dir} return string($i/@k)"
            );
            assert_eq!(&run_strings(&mut s, &q), want, "{dir}, shuffle {seed}");
        }
    }
}

/// `+ - * mod` on two integers compute in `i64`, exactly; an overflow is
/// `err:FOAR0002`. `div` and a double operand still compute in `f64`.
#[test]
fn integer_arithmetic_is_exact() {
    let mut s = fixture();
    let exact = [
        ("9007199254740993 + 0", 9007199254740993),
        ("9007199254740993 mod 2", 1),
        ("9007199254740993 - 1", 9007199254740992),
        ("3037000499 * 3037000499", 9223372030926249001),
        ("-7 mod 3", -1),
        ("(-9223372036854775807 - 1) mod -1", 0),
        ("-9223372036854775807 - 1", i64::MIN),
    ];
    for (q, want) in exact {
        assert_eq!(atoms(&run(&mut s, q)), vec![Atomic::Int(want)], "{q}");
    }
    for q in [
        "9223372036854775807 + 1",
        "-9223372036854775807 - 2",
        "4611686018427387904 * 2",
        "for $x in (1, 9223372036854775807) return $x + 1",
    ] {
        let m = parse_query(q).unwrap();
        let err = eval_both(&mut s, &m).unwrap_err();
        assert!(err.has_code("err:FOAR0002"), "{q}: {err}");
    }
    assert_eq!(atoms(&run(&mut s, "7 div 2")), vec![Atomic::Dbl(3.5)]);
    let mixed = run(&mut s, "9007199254740993 + 0.0");
    assert_eq!(atoms(&mixed), vec![Atomic::Dbl(9007199254740992.0)]);
}
