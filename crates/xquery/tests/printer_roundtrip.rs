//! Printer⇄parser roundtrip property: every expression the generator can
//! produce prints to text that re-parses to a structurally identical
//! expression. This is load-bearing — XRPC ships decomposed function bodies
//! as printed XQuery source. Randomized with the in-tree deterministic PRNG.

use xqd_prng::Rng;
use xqd_xquery::{parse_expr_str, Expr};

/// Random query text built compositionally from parseable pieces.
fn arb_query(rng: &mut Rng, depth: u32) -> String {
    if depth >= 4 || rng.gen_bool(0.35) {
        return rng
            .choose(&[
                "1",
                "2.5",
                "\"str\"",
                "\"qu\"\"ote\"",
                "$v",
                "()",
                "doc(\"d.xml\")",
                "true()",
            ])
            .to_string();
    }
    let d = depth + 1;
    match rng.gen_range(0..11) {
        // paths
        0 => {
            let base = arb_query(rng, d);
            let step = rng.choose(&[
                "/child::a",
                "//b",
                "/parent::c",
                "/@id",
                "/descendant::d",
                "/following-sibling::e",
                "/child::text()",
                "/child::node()",
            ]);
            format!("({base}){step}")
        }
        // binary operators
        1 => {
            let l = arb_query(rng, d);
            let op = rng.choose(&[
                "=", "!=", "<", ">=", "is", "<<", ">>", "union", "intersect", "except", "+",
                "*", "and", "or",
            ]);
            let r = arb_query(rng, d);
            format!("({l}) {op} ({r})")
        }
        // control flow
        2 => {
            let (c, t, e) = (arb_query(rng, d), arb_query(rng, d), arb_query(rng, d));
            format!("if ({c}) then ({t}) else ({e})")
        }
        3 => {
            let (s, r) = (arb_query(rng, d), arb_query(rng, d));
            format!("for $x in ({s}) return ({r})")
        }
        4 => {
            let (v, r) = (arb_query(rng, d), arb_query(rng, d));
            format!("let $y := ({v}) return ({r})")
        }
        // constructors and functions
        5 => format!("element w {{ {} }}", arb_query(rng, d)),
        6 => format!("count({})", arb_query(rng, d)),
        7 => format!("concat(\"p\", string({}))", arb_query(rng, d)),
        // order by and sequences
        8 => {
            let (a, b) = (arb_query(rng, d), arb_query(rng, d));
            if rng.gen_bool(0.5) {
                format!("(({a}), ({b}))")
            } else {
                format!("($v) order by ({a}) descending")
            }
        }
        // execute-at (the shipped-body shape)
        9 => format!(
            "execute at {{ \"p\" }} params ($q := $outer) {{ {} }}",
            arb_query(rng, d)
        ),
        // typeswitch
        _ => {
            let (i, b) = (arb_query(rng, d), arb_query(rng, d));
            format!("typeswitch ({i}) case $n as node() return ({b}) default $d return ()")
        }
    }
}

/// Structural normalization for comparison: drop projections and flatten
/// nested path spines (`(E/a)/b` ≡ `E/a/b` — the printer always emits the
/// flat form).
fn canon(e: &Expr) -> Expr {
    let rebuilt = xqd_xquery::ast::map_children_infallible(e, &mut canon);
    match rebuilt {
        Expr::Execute { peer, params, body, .. } => Expr::Execute {
            peer,
            params,
            body,
            projection: None,
        },
        Expr::Path { start: Some(start), steps } => match *start {
            Expr::Path { start: inner_start, steps: mut inner_steps } => {
                inner_steps.extend(steps);
                Expr::Path { start: inner_start, steps: inner_steps }
            }
            other => Expr::Path { start: Some(other.boxed()), steps },
        },
        other => other,
    }
}

/// FNV-1a, folded over successive byte strings.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What the scope rules of the AST decide for one expression: the variant
/// sequence `walk` visits pre-order, the sorted free variables, and the
/// printed `rename_var(e, name, "z")` for every name the generator binds or
/// references.
fn scope_facts(e: &Expr) -> String {
    let mut out = String::new();
    e.walk(&mut |x| {
        let dbg = format!("{x:?}");
        out.extend(dbg.chars().take_while(|c| c.is_alphanumeric()));
        out.push(' ');
    });
    let mut free: Vec<String> = xqd_xquery::free_vars(e).into_iter().collect();
    free.sort();
    out.push_str(&format!("\nfree {free:?}\n"));
    for name in ["v", "x", "y", "n", "d", "q", "outer"] {
        out.push_str(&format!("{name} -> {}\n", xqd_xquery::rename_var(e, name, "z")));
    }
    out
}

/// `for_each_child` reads the children `map_children` rebuilds, in the
/// same order, at every node of `e`.
fn assert_one_child_order(e: &Expr) {
    e.walk(&mut |x| {
        let mut read: Vec<*const Expr> = Vec::new();
        x.for_each_child(&mut |c, _| read.push(c));
        let mut rebuilt: Vec<*const Expr> = Vec::new();
        xqd_xquery::ast::map_children_infallible(x, &mut |c| {
            rebuilt.push(c);
            c.clone()
        });
        assert_eq!(read, rebuilt, "child order differs at {x}");
    });
}

#[test]
fn print_parse_roundtrip() {
    let mut scope_digest = 0xcbf2_9ce4_8422_2325u64;
    for case in 0..192u64 {
        let mut rng = Rng::seed_from_u64(0x5052_494E_5400 ^ case.wrapping_mul(0x9E37_79B9));
        let q = arb_query(&mut rng, 0);
        // generator composes only parseable pieces; a parse failure is a bug
        let parsed = parse_expr_str(&q)
            .unwrap_or_else(|e| panic!("generated query failed to parse (case {case}): {q}\n{e}"));
        let printed = parsed.to_string();
        let reparsed = parse_expr_str(&printed)
            .unwrap_or_else(|e| panic!("printed form does not reparse: {printed}\n{e}"));
        assert_eq!(
            canon(&reparsed),
            canon(&parsed),
            "roundtrip changed structure (case {case}):\n  input: {q}\n  printed: {printed}"
        );
        // printing is idempotent
        assert_eq!(reparsed.to_string(), printed);
        scope_digest = fnv(scope_digest, scope_facts(&parsed).as_bytes());
        assert_one_child_order(&parsed);
    }
    // walk order, free variables and hygienic renaming are pinned across
    // all 192 cases: a change to the AST's child order or binder scope
    // moves this digest
    assert_eq!(scope_digest, 2399479948400497073);
}
