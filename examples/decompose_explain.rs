//! Walks the paper's Q2 (Table III) through the full decomposition
//! pipeline, printing each stage: surface query → XCore → d-graph →
//! normalized (let-motion) → the decomposed plans Qv2 / Qf2 / Qp2 with code
//! motion and projection paths (Tables III & IV) → the compiled flat plan
//! IR the executor actually runs (op list, per-step indexed/scan choice,
//! folded constants, scatter rounds, call destinations) → the join-aware
//! variant: the detected cross-peer join graph, the chosen key-ship
//! direction, and the rewritten distinct-key harvest call.
//!
//! ```sh
//! cargo run --example decompose_explain
//! ```

use xqd::core::dgraph::build_dgraph;
use xqd::core::letmotion::let_motion;
use xqd::{compile_module, decompose, decompose_with, parse_query, DecomposeOptions, StaticContext, Strategy};

const Q2: &str = r#"
(let $s := doc("xrpc://A/students.xml")/people/person,
     $c := doc("xrpc://B/course42.xml"),
     $t := $s[tutor = $s/name]
 for $e in $c/enroll/exam
 where $e/@id = $t/id
 return $e)/grade
"#;

fn main() {
    println!("=== surface query Q2 (Table III) ==={Q2}");

    let module = parse_query(Q2).expect("Q2 parses");

    let core = xqd::xquery::normalize(&module).expect("normalizes");
    println!("=== XCore equivalent (Qc2) ===\n{core}\n");

    let normalized = let_motion(&core);
    println!("=== after let-motion (Qn2) ===\n{normalized}\n");

    let graph = build_dgraph(&normalized).expect("d-graph builds");
    println!("=== d-graph ({} vertices, Fig. 2 style) ===", graph.len());
    print!("{}", graph.dump());

    for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
        let d = decompose(&module, strategy).expect("decomposes");
        println!("\n=== decomposed under {} ===", strategy.name());
        println!("{}", d.rewritten);
        println!("--- {} remote call(s):", d.calls.len());
        for (i, call) in d.calls.iter().enumerate() {
            println!("  fcn{} at {}:", i + 1, call.peer);
            println!("    params: {:?}", call.params.iter().map(|p| format!("${} := ${}", p.var, p.outer)).collect::<Vec<_>>());
            println!("    body:   {}", call.body);
            if let Some(proj) = &call.projection {
                println!(
                    "    response projection: used={:?} returned={:?}",
                    proj.result.used.iter().map(ToString::to_string).collect::<Vec<_>>(),
                    proj.result.returned.iter().map(ToString::to_string).collect::<Vec<_>>(),
                );
                for (j, ps) in proj.params.iter().enumerate() {
                    println!(
                        "    param {} projection: used={:?} returned={:?}",
                        j,
                        ps.used.iter().map(ToString::to_string).collect::<Vec<_>>(),
                        ps.returned.iter().map(ToString::to_string).collect::<Vec<_>>(),
                    );
                }
            }
        }

        // the flat plan IR the executor lowers the rewritten query to (the
        // coordinator caches this per query text + static context), after
        // its header the decomposition's scatter rounds and each call's
        // canonical peer
        let plan = compile_module(&[], &d.rewritten, true, &StaticContext::default());
        let dump = plan.dump();
        let (header, ops) = dump.split_once('\n').expect("dump has a header line");
        println!("--- compiled plan IR:");
        println!("  {header}");
        if !d.scatter_rounds.is_empty() {
            println!("  scatter rounds: {:?}", d.scatter_rounds);
        }
        // (a replica standing in for the peer is picked per call, at run time)
        for c in &d.calls {
            println!("  route: {}", c.peer);
        }
        for line in ops.lines() {
            println!("  {line}");
        }

        // the executor's default adds join-aware decomposition on top: the
        // cross-peer equi-join is detected, the small side's Execute is
        // rewritten to harvest distinct join keys, and the consumer call
        // evaluates the predicate against the shipped key filter
        let opts = DecomposeOptions { semijoin: true, ..Default::default() };
        let dj = decompose_with(&module, strategy, opts).expect("decomposes");
        println!("--- join graph (join-aware decomposition):");
        if dj.semijoins.is_empty() {
            println!("  no cross-peer value join detected under {}", strategy.name());
        }
        for sj in &dj.semijoins {
            let producer = format!("call {} at {}", sj.producer + 1, sj.producer_peer);
            let consumer = match (&sj.consumer, &sj.consumer_peer) {
                (Some(c), Some(p)) => format!("call {} at {}", c + 1, p),
                _ => "(coordinator)".to_string(),
            };
            println!("  edge: ${} — key column {}", sj.var, sj.key_path);
            println!("    ship direction: {producer} -> {consumer}");
        }
        for (i, call) in dj.calls.iter().enumerate() {
            if !call.depends_on.is_empty() {
                println!(
                    "  call {} at {} depends on call(s) {:?} (two-phase scatter)",
                    i + 1,
                    call.peer,
                    call.depends_on.iter().map(|d| d + 1).collect::<Vec<_>>(),
                );
            }
        }
        if !dj.semijoins.is_empty() {
            println!("  rewritten: {}", dj.rewritten);
        }
    }
}
