//! Tables III & IV end-to-end: Q2 through normalization (Qc2 → Qn2),
//! by-value decomposition (Qv2), by-fragment decomposition with distributed
//! code motion (Qf2 + fcn2new), and by-projection — all via the public API,
//! each plan executed and checked against local evaluation.

use xqd::{decompose, parse_query, Federation, NetworkModel, Strategy};

const Q2: &str = r#"
(let $s := doc("xrpc://A/students.xml")/people/person,
     $c := doc("xrpc://B/course42.xml"),
     $t := $s[tutor = $s/name]
 for $e in $c/enroll/exam
 where $e/@id = $t/id
 return $e)/grade
"#;

fn fed() -> Federation {
    let mut f = Federation::new(NetworkModel::lan());
    f.load_document(
        "A",
        "students.xml",
        "<people>\
           <person><name>sara</name><tutor>ben</tutor><id>s1</id></person>\
           <person><name>tom</name><tutor>sara</tutor><id>s2</id></person>\
           <person><name>kim</name><tutor>tom</tutor><id>s3</id></person>\
         </people>",
    )
    .unwrap();
    f.load_document(
        "B",
        "course42.xml",
        "<enroll>\
           <exam id=\"s2\"><grade>A</grade></exam>\
           <exam id=\"s3\"><grade>B</grade></exam>\
           <exam id=\"s9\"><grade>F</grade></exam>\
         </enroll>",
    )
    .unwrap();
    f
}

#[test]
fn normalization_produces_qn2() {
    let module = parse_query(Q2).unwrap();
    let plan = decompose(&module, Strategy::ByFragment).unwrap();
    let qn2 = plan.normalized.to_string();
    // lets moved down: doc(B) now parse-related to its /enroll/exam use
    assert!(
        qn2.contains("for $e in doc(\"xrpc://B/course42.xml\")/child::enroll/child::exam"),
        "{qn2}"
    );
    // $t binding kept above the exam loop (evaluated once)
    let t_pos = qn2.find("let $t :=").expect("$t binding");
    let loop_pos = qn2.find("for $e in").expect("exam loop");
    assert!(t_pos < loop_pos, "{qn2}");
}

#[test]
fn qv2_structure_and_execution() {
    let module = parse_query(Q2).unwrap();
    let plan = decompose(&module, Strategy::ByValue).unwrap();
    // fcn1 of Qv2: the bare students path, no loops, no parameters
    let a = plan.calls.iter().find(|c| c.peer == "A").expect("fcn1");
    assert_eq!(a.body, "doc(\"xrpc://A/students.xml\")/child::people/child::person");
    assert!(a.params.is_empty());
    // execution matches local
    let baseline = fed().run(Q2, Strategy::DataShipping).unwrap();
    let out = fed().run(Q2, Strategy::ByValue).unwrap();
    assert_eq!(out.result, baseline.result);
    assert_eq!(baseline.result, vec!["<grade>A</grade>", "<grade>B</grade>"]);
}

#[test]
fn qf2_structure_and_execution() {
    let module = parse_query(Q2).unwrap();
    let plan = decompose(&module, Strategy::ByFragment).unwrap();
    assert_eq!(plan.calls.len(), 2, "{:#?}", plan.calls);
    // fcn1: the tutor-filter loop runs on A
    let a = plan.calls.iter().find(|c| c.peer == "A").expect("fcn1");
    assert!(a.body.contains("for $"), "{}", a.body);
    assert!(a.body.contains("child::tutor"), "{}", a.body);
    // fcn2new (Table IV code motion): only the extracted ids travel to B
    let b = plan.calls.iter().find(|c| c.peer == "B").expect("fcn2");
    assert_eq!(b.params.len(), 1);
    assert!(
        plan.rewritten.to_string().contains(":= data($t/child::id)"),
        "{}",
        plan.rewritten
    );
    // the distributed semijoin executes correctly
    let baseline = fed().run(Q2, Strategy::DataShipping).unwrap();
    let out = fed().run(Q2, Strategy::ByFragment).unwrap();
    assert_eq!(out.result, baseline.result);
    assert_eq!(out.metrics.document_bytes, 0, "no whole documents moved");
}

#[test]
fn by_projection_adds_paths_and_executes() {
    let module = parse_query(Q2).unwrap();
    let plan = decompose(&module, Strategy::ByProjection).unwrap();
    for call in &plan.calls {
        assert!(call.projection.is_some(), "call to {} lacks projection", call.peer);
    }
    let b = plan.calls.iter().find(|c| c.peer == "B").unwrap();
    let proj = b.projection.as_ref().unwrap();
    let returned: Vec<String> = proj.result.returned.iter().map(ToString::to_string).collect();
    assert!(returned.iter().any(|p| p.contains("grade")), "{returned:?}");
    let baseline = fed().run(Q2, Strategy::DataShipping).unwrap();
    let out = fed().run(Q2, Strategy::ByProjection).unwrap();
    assert_eq!(out.result, baseline.result);
}

/// The ablation knobs are visible through the public API and preserve
/// semantics.
#[test]
fn pipeline_options_preserve_semantics() {
    use xqd::core::DecomposeOptions;
    let baseline = fed().run(Q2, Strategy::DataShipping).unwrap();
    for (let_motion, code_motion) in
        [(true, true), (true, false), (false, true), (false, false)]
    {
        let opts = DecomposeOptions { let_motion, code_motion, ..Default::default() };
        let mut f = fed();
        let out = f.run_with(Q2, Strategy::ByFragment, opts).unwrap();
        assert_eq!(
            out.result, baseline.result,
            "let_motion={let_motion} code_motion={code_motion}"
        );
    }
}

/// Let-motion changes the *quality* of the plan (Section IV): with it, the
/// tutor filter runs on A and only extracted ids travel to B (the
/// semijoin); without it, the B-side class root sits above the whole
/// filter, so every `$s` person node is shipped to B as a parameter.
#[test]
fn let_motion_enables_the_semijoin() {
    use xqd::core::DecomposeOptions;
    let module = parse_query(Q2).unwrap();
    let with = xqd::core::decompose_with(
        &module,
        Strategy::ByFragment,
        DecomposeOptions::default(),
    )
    .unwrap();
    let without = xqd::core::decompose_with(
        &module,
        Strategy::ByFragment,
        DecomposeOptions { let_motion: false, ..Default::default() },
    )
    .unwrap();
    let with_b = with.calls.iter().find(|c| c.peer == "B").expect("B call");
    let without_b = without.calls.iter().find(|c| c.peer == "B").expect("B call");
    // normalized plan: the filter stayed on A; B receives no person nodes
    assert!(
        with_b.params.iter().all(|p| p.outer != "s"),
        "{:#?}",
        with_b.params
    );
    // unnormalized plan: the full $s sequence is a parameter of the B call
    assert!(
        without_b.params.iter().any(|p| p.outer == "s"),
        "{:#?}",
        without_b.params
    );
    // and the wire cost shows it
    let bytes = |opts| {
        let mut f = fed();
        f.run_with(Q2, Strategy::ByFragment, opts).unwrap().metrics.message_bytes
    };
    let with_bytes = bytes(DecomposeOptions::default());
    let without_bytes = bytes(DecomposeOptions { let_motion: false, ..Default::default() });
    assert!(
        with_bytes < without_bytes,
        "semijoin must be cheaper: {with_bytes} vs {without_bytes}"
    );
}

/// The queries the suites decompose: Q2, the paper's worked examples, the
/// Section VII benchmark join, the join-equivalence fixture and the scatter
/// and chaos fixtures.
const CORPUS: [&str; 14] = [
    Q2,
    // Section I intro example
    r#"for $e in doc("xrpc://hq/employees.xml")//emp
       where $e/@dept = doc("xrpc://example.org/depts.xml")//dept/@name
       return $e"#,
    // Example 6.1 / Fig. 5
    r#"declare function makenodes() as node()
       { element a { element b { element c {()} } }/b };
       let $bc := execute at {"example.org"} { makenodes() },
           $abc := $bc/parent::a
       return (name($abc), count($abc//c))"#,
    // Table I (Q1)
    r#"declare function makenodes() as node()
       { element a { element b { element c {()} } }/b };
       declare function overlap($l as node(), $r as node()) as xs:boolean
       { not(empty($l//* intersect $r//*)) };
       declare function earlier($l as node(), $r as node()) as node()
       { if ($l << $r) then $l else $r };
       let $bc := makenodes(),
           $abc := $bc/parent::a
       return (name($bc), name($abc), name(earlier($bc, $abc)),
               overlap(earlier($bc, $abc), $bc),
               count((for $node in ($bc, $abc)
                      let $first := earlier($bc, $abc)
                      where overlap($first, $node)
                      return $node)//c))"#,
    // Bulk RPC (Problem 4)
    r#"declare function earlier($l as node(), $r as node()) as node()
       { if ($l << $r) then $l else $r };
       let $bc := element a { element b { element c {()} } }/b,
           $abc := $bc/parent::a
       return count((for $node in ($bc, $abc)
                     return execute at {"p"} { earlier($node, $abc) })//c)"#,
    // Section VII benchmark join
    r#"(let $t := (let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
                  return for $x in $s return
                      if ($x/descendant::age < 40) then $x else ())
       return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
                         return $c/descendant::open_auction)
              return if ($e/child::seller/attribute::person = $t/attribute::id)
                     then $e/child::annotation else ())/child::author"#,
    // join-equivalence fixture
    r#"(let $t := (let $x := doc("xrpc://B/course42.xml")/child::enroll/child::exam
                  return for $e in $x return
                      if ($e/child::grade > 0) then $e else ())
       return for $p in (let $s := doc("xrpc://A/students.xml")
                         return $s/descendant::person)
              return if ($p/child::id = $t/attribute::id)
                     then $p/child::name else ())"#,
    // scatter fixtures
    r#"(count(doc("xrpc://p1/d.xml")//item),
        sum(doc("xrpc://p2/d.xml")//v),
        count(doc("xrpc://p3/d.xml")//item))"#,
    r#"let $a := count(doc("xrpc://p1/d.xml")//item)
       let $b := count(doc("xrpc://p2/d.xml")//item)
       return $a + $b"#,
    r#"let $a := count(doc("xrpc://p1/d.xml")//item)
       let $b := execute at {"p2"} params ($n := $a)
                 { count(doc("xrpc://p2/d.xml")//item) + $n }
       return $b"#,
    r#"execute at {"p3"} params () {
         (execute at {"p1"} params () { count(doc("xrpc://p1/d.xml")//item) },
          execute at {"p3"} params () { count(doc("d.xml")//item) })
       }"#,
    r#"for $n in (8, 9, 10, 11, 12, 13)
       return execute at { "p2" } params ($n := $n) {
           let $keys := subsequence(doc("d.xml")//item, 1, $n)
           return count(for $i in doc("d.xml")//item
                        return if ($i/v = $keys/v) then $i else ())
       }"#,
    // chaos fixtures
    "let $b := execute at {\"p\"} params () { doc(\"d.xml\")/a/b[1] } \
     return (count($b/parent::a), $b//c)",
    "(execute at {\"a\"} params () { count(doc(\"da.xml\")//x) }) + \
     (execute at {\"b\"} params () { count(doc(\"db.xml\")//x) })",
];

/// Everything a decomposition decides, in one string: both trees (with
/// their projections), every call's peer, parameters, shipped body,
/// projection paths and dependencies, the semi-join edges and the scatter
/// rounds.
fn decomposition_facts(d: &xqd::core::Decomposition) -> String {
    let mut out = format!("normalized {:?}\nrewritten {:?}\n", d.normalized, d.rewritten);
    for c in &d.calls {
        let params: Vec<String> = c.params.iter().map(|p| format!("${}:=${}", p.var, p.outer)).collect();
        out.push_str(&format!(
            "call {} {params:?} {}\n  projection {:?}\n  depends_on {:?}\n",
            c.peer, c.body, c.projection, c.depends_on
        ));
    }
    out.push_str(&format!("semijoins {:?}\nscatter_rounds {:?}\n", d.semijoins, d.scatter_rounds));
    out
}

/// Every corpus query under all four strategies with the semi-join rewrite
/// on and off decomposes to exactly the pinned plan: one digest per query.
#[test]
fn decompositions_are_pinned() {
    use xqd::core::{decompose_with, DecomposeOptions};
    let digests: Vec<u64> = CORPUS
        .iter()
        .map(|q| {
            let module = parse_query(q).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for strategy in Strategy::ALL {
                for semijoin in [false, true] {
                    let options = DecomposeOptions { semijoin, ..Default::default() };
                    let facts = match decompose_with(&module, strategy, options) {
                        Ok(d) => decomposition_facts(&d),
                        Err(e) => format!("error {e}"),
                    };
                    for b in facts.bytes() {
                        h ^= u64::from(b);
                        h = h.wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
            h
        })
        .collect();
    assert_eq!(
        digests,
        [
            4929378530664579729,
            7505781041120354357,
            7286181414253776929,
            8903324957439960661,
            7123218443944401309,
            4979152140729805465,
            8304271868882877991,
            16610664519064254925,
            18154807647050805531,
            6061441782508936205,
            17458861181879836525,
            14998008638085745117,
            14276378037910012917,
            10698543464267858997
        ]
    );
}
