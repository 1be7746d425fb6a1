//! Hostile query text: the last unfuzzed parser. Query text reaches
//! `parse_query` from outside the program — the CLI, and every shipped
//! body on a daemon's worker threads — so it must answer *any* input with
//! `Ok` or the ordinary parse error: never a panic, and never a stack
//! overflow (which aborts the process; `catch_unwind` cannot catch it).
//!
//! The first half drives every recursive and every loop-built nesting
//! shape five orders of magnitude past the parser's depth bound; the
//! second half runs seeded `xqd-prng` mutations (truncation, byte flip,
//! splice — the style of `xqd-xrpc`'s `decoder_fuzz.rs`) of the paper's
//! example queries and the `plans` bench texts through
//! `parse_query` → `compile_query`. Everything runs on the default 2 MiB
//! test thread, the same stack a daemon worker has.

use xqd_prng::Rng;
use xqd_xml::Store;
use xqd_xquery::{compile_query, parse_query, reference_eval, StaticContext};

const LEVELS: usize = 100_000;

fn assert_rejected(label: &str, query: &str) {
    let err = parse_query(query).expect_err(label);
    assert!(err.message.contains("nested deeper"), "{label}: unexpected error {err}");
}

#[test]
fn deep_parentheses_are_a_parse_error() {
    assert_rejected("parens", &format!("{}1{}", "(".repeat(LEVELS), ")".repeat(LEVELS)));
    // unbalanced: the bound must trip before the missing `)` is noticed
    assert_rejected("open parens", &"(".repeat(LEVELS));
}

#[test]
fn deep_flwor_is_a_parse_error() {
    assert_rejected("nested for", &format!("{}1", "for $x in 1 return ".repeat(LEVELS)));
    assert_rejected("nested let", &format!("{}1", "let $x := 1 return ".repeat(LEVELS)));
    // one FLWOR with that many clauses desugars to the same nesting
    assert_rejected("for clauses", &format!("{}return 1", "for $x in 1 ".repeat(LEVELS)));
    assert_rejected("nested if", &format!("{}1", "if (1) then 1 else ".repeat(LEVELS)));
    assert_rejected(
        "quantifier bindings",
        &format!("some {} satisfies 1", vec!["$x in 1"; LEVELS].join(", ")),
    );
}

#[test]
fn deep_constructors_are_a_parse_error() {
    assert_rejected(
        "elements",
        &format!("{}1{}", "element a { ".repeat(LEVELS), " }".repeat(LEVELS)),
    );
    assert_rejected(
        "computed names",
        &format!("{}\"a\"{}", "element { ".repeat(LEVELS), " } { }".repeat(LEVELS)),
    );
    assert_rejected("function calls", &format!("{}1{}", "count(".repeat(LEVELS), ")".repeat(LEVELS)));
}

#[test]
fn deep_predicates_and_paths_are_a_parse_error() {
    assert_rejected("nested predicates", &format!("a{}1{}", "[a".repeat(LEVELS), "]".repeat(LEVELS)));
    assert_rejected("stacked step predicates", &format!("a{}", "[1]".repeat(LEVELS)));
    assert_rejected("stacked filters", &format!("$x{}", "[1]".repeat(LEVELS)));
    assert_rejected(
        "paths in filters",
        &format!("{}1{}", "$x/a/b[$y//c[".repeat(LEVELS), "]]".repeat(LEVELS)),
    );
}

#[test]
fn long_operator_chains_are_a_parse_error() {
    // loop-built, so the parser itself would survive them — but the
    // left-deep AST would overflow every recursive pass behind it
    for op in [" + ", " * ", " or ", " and ", " union "] {
        assert_rejected(op, &vec!["1"; LEVELS].join(op));
    }
    assert_rejected("unary minus", &format!("{}1", "-".repeat(LEVELS)));
}

/// The bound is generous for real queries and small enough for the stack:
/// a query nested right up to it parses, compiles and evaluates on this
/// thread, through both engines.
#[test]
fn nesting_at_the_bound_still_runs_end_to_end() {
    let levels = 60;
    let shapes = [
        format!("{}1{}", "(".repeat(levels), ")".repeat(levels)),
        format!("{}1", "for $x in 1 return ".repeat(levels)),
        format!("count({}1{})", "element a { ".repeat(levels), " }".repeat(levels)),
        vec!["1"; levels].join(" + "),
    ];
    for query in shapes {
        let module = parse_query(&query).unwrap_or_else(|e| panic!("{e}: {:.60}", query));
        let reference = reference_eval(&mut Store::new(), &module).expect("reference evaluation");
        let plan = compile_query(&module, true, &StaticContext::default());
        let mut store = Store::new();
        let mut resolver = xqd_xquery::LocalResolver;
        let mut ev = xqd_xquery::Evaluator::new(&mut store, &mut resolver);
        let compiled = plan.eval(&mut ev).expect("compiled evaluation");
        assert_eq!(format!("{compiled:?}"), format!("{reference:?}"), "{:.60}", query);
    }
}

// ---------------------------------------------------------------------------
// seeded mutations of valid texts
// ---------------------------------------------------------------------------

/// Table I's Q1 and Table III's Q2 from the paper, then the `plans` bench
/// workload (`xqd_bench::PLANS_QUERIES`, spelled out because the bench
/// crate sits above this one).
const CORPUS: &[&str] = &[
    r#"declare function makenodes() as node()
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
               return $node)//c"#,
    r#"(let $s := doc("xrpc://A/students.xml")/people/person,
            $c := doc("xrpc://B/course42.xml"),
            $t := $s[tutor = $s/name]
        for $e in $c/enroll/exam
        where $e/@id = $t/id
        return $e)/grade"#,
    r#"count(doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person)"#,
    r#"for $p in doc("xrpc://peer1/xmk.xml")/descendant::person
       return if ($p/descendant::age < 40) then $p/child::name else ()"#,
    r#"(count(doc("xrpc://peer1/xmk.xml")/descendant::person),
        count(doc("xrpc://peer2/xmk.auctions.xml")/descendant::open_auction))"#,
    r#"(let $t := (let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
                   return for $x in $s return
                       if ($x/descendant::age < 40) then $x else ())
        return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
                          return $c/descendant::open_auction)
               return if ($e/child::seller/attribute::person = $t/attribute::id)
                      then $e/child::annotation else ())/child::author"#,
    r#"for $p in doc("xrpc://peer1/xmk.xml")/descendant::person
       return if ($p/descendant::age < (2 * 10 + 20)) then $p/attribute::id else ()"#,
    r#"execute at { "p" } params ($a := $x) { for $y in $a/child::b order by $y return $y }"#,
];

/// Parse and, when that succeeds, compile: either outcome is fine, a panic
/// is the only failure.
fn parse_and_compile(text: &str) {
    if let Ok(module) = parse_query(text) {
        let _ = compile_query(&module, true, &StaticContext::default());
    }
}

/// Largest char boundary `<= pos`, so a cut text is still a `&str`.
fn floor_boundary(s: &str, pos: usize) -> usize {
    let mut p = pos.min(s.len());
    while !s.is_char_boundary(p) {
        p -= 1;
    }
    p
}

#[test]
fn corpus_itself_parses_and_compiles() {
    for text in CORPUS {
        let module = parse_query(text).unwrap_or_else(|e| panic!("{e}: {text}"));
        compile_query(&module, true, &StaticContext::default());
    }
}

#[test]
fn seeded_truncations_never_panic() {
    let mut rng = Rng::seed_from_u64(0x5155_4552_5900);
    for text in CORPUS {
        for _ in 0..150 {
            let cut = floor_boundary(text, rng.gen_range_usize(0..text.len()));
            parse_and_compile(&text[..cut]);
        }
    }
}

#[test]
fn seeded_byte_flips_never_panic() {
    // printable replacements keep the text valid UTF-8 while hitting every
    // token class the lexer knows (delimiters, quotes, sigils, digits)
    const ALPHABET: &[u8] = b"(){}[]$\"'/@.,:=<>|+-*! 09azAZ_&;#";
    let mut rng = Rng::seed_from_u64(0x5155_4552_5901);
    for text in CORPUS {
        for _ in 0..250 {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range_usize(0..bytes.len());
                if bytes[at].is_ascii() {
                    bytes[at] = rng.choose(ALPHABET);
                }
            }
            parse_and_compile(std::str::from_utf8(&bytes).expect("ascii-for-ascii swaps"));
        }
    }
}

#[test]
fn seeded_splices_never_panic() {
    let mut rng = Rng::seed_from_u64(0x5155_4552_5902);
    for _ in 0..600 {
        let a = rng.choose(CORPUS);
        let b = rng.choose(CORPUS);
        let head = floor_boundary(a, rng.gen_range_usize(0..a.len()));
        let from = floor_boundary(b, rng.gen_range_usize(0..b.len()));
        let to = floor_boundary(b, rng.gen_range_usize(from..b.len() + 1));
        let tail = floor_boundary(a, rng.gen_range_usize(head..a.len() + 1));
        parse_and_compile(&format!("{}{}{}", &a[..head], &b[from..to], &a[tail..]));
    }
}
