//! End-to-end query decomposition.
//!
//! Pipeline (Sections III–VI):
//!
//! 1. normalize to a single XCore expression (function inlining + filter
//!    lowering, `xqd-xquery::normalize`);
//! 2. **let-motion** — move bindings down to the LCA of their uses (Qc2 →
//!    Qn2);
//! 3. build the d-graph, compute `I(G)` under the strategy's insertion
//!    conditions and select the interesting points `I'(G)`;
//! 4. **insert XRPCExpr** vertices with their parameter bindings;
//! 5. **distributed code motion** — parameter-only subexpressions move to
//!    the caller side;
//! 6. for pass-by-projection, run the relative path analysis and attach
//!    [`ExecProjection`]s to every call.
//!
//! Data shipping performs none of this: the query evaluates locally and
//! `fn:doc("xrpc://…")` fetches whole documents (which `xqd-xrpc`'s
//! resolver implements, byte-accounted).

use xqd_xquery::ast::{ExecProjection, Expr, QueryModule, XrpcParam};
use xqd_xquery::EvalError;

use crate::codemotion::distributed_code_motion;
use crate::conditions::{interesting_points, valid_dpoints, Reachability, Semantics};
use crate::dgraph::{build_dgraph, to_expr};
use crate::insertion::insert_xrpc;
use crate::letmotion::let_motion;
use crate::paths::attach_projections;
use crate::semijoin::SemijoinEdge;
use crate::uris::analyze_uris;

/// The four execution strategies of the evaluation (Section VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// No decomposition: remote documents are fetched whole.
    DataShipping,
    ByValue,
    ByFragment,
    ByProjection,
}

impl Strategy {
    pub fn semantics(self) -> Option<Semantics> {
        match self {
            Strategy::DataShipping => None,
            Strategy::ByValue => Some(Semantics::ByValue),
            Strategy::ByFragment => Some(Semantics::ByFragment),
            Strategy::ByProjection => Some(Semantics::ByProjection),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Strategy::DataShipping => "data-shipping",
            Strategy::ByValue => "pass-by-value",
            Strategy::ByFragment => "pass-by-fragment",
            Strategy::ByProjection => "pass-by-projection",
        }
    }

    /// All four, in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::DataShipping,
        Strategy::ByValue,
        Strategy::ByFragment,
        Strategy::ByProjection,
    ];
}

/// Explain-level description of one generated remote call.
#[derive(Debug, Clone)]
pub struct RemoteCall {
    pub peer: String,
    pub params: Vec<XrpcParam>,
    pub body: String,
    pub projection: Option<ExecProjection>,
    /// Hosts able to answer this call, in seeded preference order (empty
    /// until [`Decomposition::resolve_replicas`] runs, or when the catalog
    /// names no stand-in for `peer`). No coordinator path fills or reads
    /// it — the failover ladder picks hosts per call — and it is kept only
    /// because the wirebench driver times `resolve_replicas`.
    pub replicas: Vec<String>,
    /// Indices (into [`Decomposition::calls`]) of the calls whose results
    /// feed this call's inputs — its peer expression or shipped parameter
    /// values. Empty = the call can fire in the first scatter round.
    pub depends_on: Vec<usize>,
}

/// A decomposed query plus its plan description.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The executable rewritten query.
    pub rewritten: Expr,
    /// The normalized (pre-insertion) query, for explain output.
    pub normalized: Expr,
    /// One entry per generated `execute at`.
    pub calls: Vec<RemoteCall>,
    pub strategy: Strategy,
    /// Sizes of the scatter rounds the executor will fan out: each entry is
    /// the number of independent `execute at` calls (to ≥2 distinct peers)
    /// that one round issues concurrently. Empty = fully sequential plan.
    pub scatter_rounds: Vec<usize>,
    /// Cross-peer semi-join edges detected (and rewritten) in this plan:
    /// the producer call now harvests a sorted distinct key column instead
    /// of full nodes. Empty unless [`DecomposeOptions::semijoin`] was on.
    pub semijoins: Vec<SemijoinEdge>,
}

/// Pipeline knobs, primarily for ablation studies; the defaults run the
/// full paper pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DecomposeOptions {
    /// Apply let-motion normalization (Section IV).
    pub let_motion: bool,
    /// Apply distributed code motion (Section IV, Example 4.3).
    pub code_motion: bool,
    /// Apply the join-aware semi-join rewrite ([`crate::semijoin`]): ship
    /// distinct sorted join keys instead of full node sets where the use
    /// analysis proves it sound. Off by default at this layer — the
    /// executor (`xqd-xrpc`) turns it on, so raw `decompose()` output
    /// still matches the paper's plans verbatim.
    pub semijoin: bool,
}

impl Default for DecomposeOptions {
    fn default() -> Self {
        DecomposeOptions { let_motion: true, code_motion: true, semijoin: false }
    }
}

/// Decomposes `module` under `strategy` with the full pipeline.
pub fn decompose(module: &QueryModule, strategy: Strategy) -> Result<Decomposition, EvalError> {
    decompose_with(module, strategy, DecomposeOptions::default())
}

/// Decomposes `module` with explicit pipeline options.
pub fn decompose_with(
    module: &QueryModule,
    strategy: Strategy,
    options: DecomposeOptions,
) -> Result<Decomposition, EvalError> {
    let normalized = xqd_xquery::normalize(module)?;
    let Some(semantics) = strategy.semantics() else {
        return Ok(Decomposition {
            rewritten: normalized.clone(),
            normalized,
            calls: vec![],
            strategy,
            scatter_rounds: vec![],
            semijoins: vec![],
        });
    };

    // Section IV normalization: let-motion
    let moved = if options.let_motion { let_motion(&normalized) } else { normalized };

    // analysis + insertion on the d-graph
    let mut g = build_dgraph(&moved)?;
    let reach = Reachability::compute(&g);
    let uris = analyze_uris(&g);
    let dpoints = valid_dpoints(&g, &reach, &uris, semantics);
    let points = interesting_points(&g, &reach, &uris, &dpoints, semantics);
    for p in &points {
        insert_xrpc(&mut g, p.root, &p.peer);
    }
    let inserted = to_expr(&g);

    // distributed code motion (AST level)
    let mut rewritten =
        if options.code_motion { distributed_code_motion(&inserted) } else { inserted };

    // by-projection: attach relative projection paths
    if semantics == Semantics::ByProjection {
        let mut g2 = build_dgraph(&rewritten)?;
        attach_projections(&mut g2);
        rewritten = to_expr(&g2);
    }

    // join-aware decomposition: producers whose nodes feed only one key
    // column now harvest distinct sorted keys instead
    let rewrites = if options.semijoin {
        let (rw, rewrites) = crate::semijoin::apply(&rewritten);
        rewritten = rw;
        rewrites
    } else {
        vec![]
    };

    let mut calls = collect_calls(&rewritten);
    for (call, deps) in calls.iter_mut().zip(call_dependencies(&rewritten)) {
        call.depends_on = deps;
    }
    let semijoins = resolve_semijoins(&rewritten, rewrites, &calls);
    let scatter_rounds = xqd_xquery::scatter_rounds(&rewritten);
    Ok(Decomposition { rewritten, normalized: moved, calls, strategy, scatter_rounds, semijoins })
}

impl Decomposition {
    /// Resolves every generated call's destination to a **replica set**:
    /// the intersection, over the `doc()` URIs its shipped body opens on
    /// the target peer, of the catalog's host sets — ordered by the seeded
    /// rendezvous policy. Bodies opening no literal URI (parameter-only
    /// calls) fall back to the hosts able to serve the peer entirely.
    ///
    /// Kept only for the wirebench driver, which times it with the
    /// decomposer. The coordinator never calls it: its failover ladder
    /// picks each call's hosts from the live catalog when the call is
    /// made, so no plan carries a route.
    pub fn resolve_replicas(&mut self, catalog: &crate::replicas::ReplicaCatalog, seed: u64) {
        if catalog.is_empty() || self.calls.is_empty() {
            return;
        }
        let calls = &mut self.calls;
        let mut idx = 0usize;
        self.rewritten.walk(&mut |x| {
            if let Expr::Execute { peer, body, .. } = x {
                let peer_name = match peer.as_ref() {
                    Expr::Literal(a) => a.to_lexical(),
                    other => other.to_string(),
                };
                // intersect host sets over the body's literal doc() URIs
                // that live on the canonical destination
                let mut candidates: Option<Vec<String>> = None;
                body.walk(&mut |b| {
                    let Expr::FunCall { name, args } = b else { return };
                    let bare = name.strip_prefix("fn:").unwrap_or(name);
                    let Some(Expr::Literal(a)) = args.first() else { return };
                    if bare != "doc" {
                        return;
                    }
                    let uri = a.to_lexical();
                    match crate::uris::split_xrpc_uri(&uri) {
                        Some((host, _)) if host == peer_name => {}
                        _ => return,
                    }
                    let hosts = catalog.hosts_for(&uri);
                    candidates = Some(match candidates.take() {
                        None => hosts,
                        Some(prev) => {
                            prev.into_iter().filter(|h| hosts.iter().any(|x| x == h)).collect()
                        }
                    });
                });
                let set =
                    candidates.unwrap_or_else(|| catalog.hosts_serving_peer(&peer_name));
                if let Some(call) = calls.get_mut(idx) {
                    call.replicas = crate::replicas::rendezvous_order(seed, &set);
                }
                idx += 1;
            }
        });
    }
}

fn collect_calls(e: &Expr) -> Vec<RemoteCall> {
    let mut out = Vec::new();
    e.walk(&mut |x| {
        if let Expr::Execute { peer, params, body, projection } = x {
            let peer = match peer.as_ref() {
                Expr::Literal(a) => a.to_lexical(),
                other => other.to_string(),
            };
            out.push(RemoteCall {
                peer,
                params: params.clone(),
                body: body.to_string(),
                projection: projection.as_deref().cloned(),
                replicas: Vec::new(),
                depends_on: Vec::new(),
            });
        }
    });
    out
}

/// Computes, for each `execute at` in `e` (pre-order, matching
/// [`collect_calls`]), the set of earlier calls whose results flow into its
/// inputs — the peer expression or a shipped parameter's outer binding.
/// This is the join/data-flow graph of the distributed plan.
fn call_dependencies(e: &Expr) -> Vec<Vec<usize>> {
    use std::collections::HashMap;

    fn union(mut a: Vec<usize>, b: &[usize]) -> Vec<usize> {
        a.extend_from_slice(b);
        a.sort_unstable();
        a.dedup();
        a
    }

    /// Returns the call indices the *value* of `e` depends on; `env` maps
    /// in-scope variables to the call indices their bindings depend on.
    fn visit(
        e: &Expr,
        env: &mut HashMap<String, Vec<usize>>,
        next: &mut usize,
        out: &mut Vec<Vec<usize>>,
    ) -> Vec<usize> {
        match e {
            Expr::VarRef(v) => env.get(v).cloned().unwrap_or_default(),
            Expr::Literal(_) | Expr::Empty | Expr::ContextItem => vec![],
            Expr::Let { var, value, ret } => {
                let vd = visit(value, env, next, out);
                let saved = env.insert(var.clone(), vd);
                let rd = visit(ret, env, next, out);
                restore(env, var, saved);
                rd
            }
            Expr::For { var, seq, ret } => {
                let sd = visit(seq, env, next, out);
                let saved = env.insert(var.clone(), sd.clone());
                let rd = visit(ret, env, next, out);
                restore(env, var, saved);
                union(sd, &rd)
            }
            Expr::Typeswitch { input, cases, default_var, default } => {
                let id = visit(input, env, next, out);
                let mut acc = id.clone();
                for c in cases {
                    let saved = env.insert(c.var.clone(), id.clone());
                    let bd = visit(&c.body, env, next, out);
                    restore(env, &c.var, saved);
                    acc = union(acc, &bd);
                }
                let saved = env.insert(default_var.clone(), id);
                let dd = visit(default, env, next, out);
                restore(env, default_var, saved);
                union(acc, &dd)
            }
            Expr::Execute { peer, params, body, .. } => {
                // index assignment order (self, then peer, then body)
                // matches the `walk` pre-order that collect_calls uses
                let idx = *next;
                *next += 1;
                out.push(vec![]);
                let mut deps = visit(peer, env, next, out);
                let mut body_env: HashMap<String, Vec<usize>> = HashMap::new();
                for p in params {
                    let pd = env.get(&p.outer).cloned().unwrap_or_default();
                    deps = union(deps, &pd);
                    body_env.insert(p.var.clone(), pd);
                }
                visit(body, &mut body_env, next, out);
                out[idx] = deps;
                // downstream consumers of the result transitively depend
                // on this call (and on everything it waited for)
                union(out[idx].clone(), &[idx])
            }
            other => {
                let mut acc = vec![];
                other.for_each_child(&mut |c, _| {
                    let d = visit(c, env, next, out);
                    acc = union(std::mem::take(&mut acc), &d);
                });
                acc
            }
        }
    }

    fn restore(env: &mut HashMap<String, Vec<usize>>, var: &str, saved: Option<Vec<usize>>) {
        match saved {
            Some(v) => {
                env.insert(var.to_string(), v);
            }
            None => {
                env.remove(var);
            }
        }
    }

    let mut out = Vec::new();
    visit(e, &mut HashMap::new(), &mut 0, &mut out);
    out
}

/// Pairs each applied semi-join rewrite with its producer call (the
/// `execute at` bound to the rewrite's variable) and the first downstream
/// call that consumes the harvested keys.
fn resolve_semijoins(
    rewritten: &Expr,
    rewrites: Vec<crate::semijoin::SemijoinRewrite>,
    calls: &[RemoteCall],
) -> Vec<SemijoinEdge> {
    if rewrites.is_empty() {
        return vec![];
    }
    // producer occurrences in walk order: `let $v := execute at …` puts the
    // very next Execute index on record for $v
    let mut occurrences: Vec<(String, usize)> = Vec::new();
    let mut idx = 0usize;
    let mut pending: Option<String> = None;
    rewritten.walk(&mut |x| match x {
        Expr::Let { var, value, .. } if matches!(value.as_ref(), Expr::Execute { .. }) => {
            pending = Some(var.clone());
        }
        Expr::Execute { .. } => {
            if let Some(v) = pending.take() {
                occurrences.push((v, idx));
            }
            idx += 1;
        }
        _ => {}
    });
    let mut edges = Vec::new();
    for rw in rewrites {
        let Some(pos) = occurrences.iter().position(|(v, _)| *v == rw.var) else { continue };
        let (_, producer) = occurrences.remove(pos);
        let consumer = calls
            .iter()
            .enumerate()
            .find(|(i, c)| *i != producer && c.depends_on.contains(&producer))
            .map(|(i, _)| i);
        edges.push(SemijoinEdge {
            var: rw.var,
            key_path: rw.key_path,
            producer,
            producer_peer: calls[producer].peer.clone(),
            consumer,
            consumer_peer: consumer.map(|i| calls[i].peer.clone()),
        });
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xquery::parse_query;

    /// Q2 of Table III with xrpc URIs, as the paper decomposes it.
    fn q2() -> QueryModule {
        parse_query(
            r#"(let $s := doc("xrpc://A/students.xml")/people/person,
                    $c := doc("xrpc://B/course42.xml"),
                    $t := $s[tutor = $s/name]
                for $e in $c/enroll/exam
                where $e/@id = $t/id
                return $e)/grade"#,
        )
        .unwrap()
    }

    #[test]
    fn data_shipping_generates_no_calls() {
        let d = decompose(&q2(), Strategy::DataShipping).unwrap();
        assert!(d.calls.is_empty());
    }

    /// Qv2 (Table IV): by-value ships the bare students path to A —
    /// crucially *without* the tutor filter loop (condition iii). Our
    /// analysis additionally ships the B-side `child::enroll/child::exam`
    /// path, which conditions i–iv as printed permit (child axes, single
    /// call, order preserved); the paper's benchmark query uses
    /// `descendant::` axes, where by-value correctly refuses (see
    /// `benchmark_query_by_value_ships_only_person_side`).
    #[test]
    fn q2_by_value_matches_qv2() {
        let d = decompose(&q2(), Strategy::ByValue).unwrap();
        assert_eq!(d.calls.len(), 2, "{:#?}", d.calls);
        let a = d.calls.iter().find(|c| c.peer == "A").expect("call to A");
        assert!(a.params.is_empty());
        assert_eq!(
            a.body,
            "doc(\"xrpc://A/students.xml\")/child::people/child::person",
            "fcn1 of Qv2"
        );
        let b = d.calls.iter().find(|c| c.peer == "B").expect("call to B");
        assert!(b.params.is_empty());
        for c in &d.calls {
            assert!(
                !c.body.contains("for $"),
                "by-value must not ship any loop: {}",
                c.body
            );
        }
    }

    /// The Section VII benchmark query uses descendant axes; by-value then
    /// decomposes only the person-side path, exactly as the paper reports.
    #[test]
    fn benchmark_query_by_value_ships_only_person_side() {
        let m = parse_query(
            r#"(let $t := (let $s := doc("xrpc://peer1/xmk.xml")
                            /child::site/child::people/child::person
                          return for $x in $s return
                            if ($x/descendant::age < 40) then $x else ())
                return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
                                  return $c/descendant::open_auction)
                return if ($e/child::seller/attribute::person = $t/attribute::id)
                       then $e/child::annotation else ())/child::author"#,
        )
        .unwrap();
        let d = decompose(&m, Strategy::ByValue).unwrap();
        assert_eq!(d.calls.len(), 1, "{:#?}", d.calls);
        assert_eq!(d.calls[0].peer, "peer1");
        assert!(d.calls[0].body.contains("person"), "{}", d.calls[0].body);
        // by-fragment decomposes both sides (the distributed semijoin)
        let d2 = decompose(&m, Strategy::ByFragment).unwrap();
        assert_eq!(d2.calls.len(), 2, "{:#?}", d2.calls);
        assert!(d2.calls.iter().any(|c| c.peer == "peer2"));
    }

    /// Qf2 (Table IV): by-fragment ships the filter to A and the exam loop
    /// to B, with $t as a parameter — the distributed semijoin plan.
    #[test]
    fn q2_by_fragment_matches_qf2() {
        let d = decompose(&q2(), Strategy::ByFragment).unwrap();
        assert_eq!(d.calls.len(), 2, "{:#?}", d.calls);
        let a = d.calls.iter().find(|c| c.peer == "A").expect("call to A");
        let b = d.calls.iter().find(|c| c.peer == "B").expect("call to B");
        // A runs the tutor filter loop (fcn1 of Qf2)
        assert!(a.body.contains("tutor"), "{}", a.body);
        assert!(a.body.contains("for $"), "{}", a.body);
        // B runs the exam loop with a parameter derived from $t (fcn2new of
        // Table IV: code motion already replaced $t with $t/child::id)
        assert_eq!(b.params.len(), 1, "{:#?}", b.params);
        assert!(b.body.contains("for $e"), "{}", b.body);
        assert!(
            d.rewritten.to_string().contains(":= data($t/child::id)"),
            "{}",
            d.rewritten
        );
    }

    /// Code motion applies: the B call ships id values, not person nodes.
    #[test]
    fn q2_by_fragment_applies_code_motion() {
        let d = decompose(&q2(), Strategy::ByFragment).unwrap();
        let s = d.rewritten.to_string();
        assert!(s.contains("$cm1v := data($t/child::id)"), "{s}");
        let b = d.calls.iter().find(|c| c.peer == "B").unwrap();
        assert!(b.params.iter().any(|p| p.var.starts_with("cm")), "{:#?}", b.params);
    }

    /// By-projection attaches projection paths to every call.
    #[test]
    fn q2_by_projection_attaches_paths() {
        let d = decompose(&q2(), Strategy::ByProjection).unwrap();
        assert_eq!(d.calls.len(), 2, "{:#?}", d.calls);
        for c in &d.calls {
            assert!(c.projection.is_some(), "call to {} lacks projection", c.peer);
        }
        // the caller applies /grade to the B result: the B call's response
        // projection must say so
        let b = d.calls.iter().find(|c| c.peer == "B").unwrap();
        let proj = b.projection.as_ref().unwrap();
        let returned: Vec<String> =
            proj.result.returned.iter().map(|p| p.to_string()).collect();
        assert!(
            returned.iter().any(|p| p.contains("grade")),
            "response projection should mention grade: {returned:?}"
        );
    }

    /// A query over purely local documents decomposes to itself.
    #[test]
    fn local_query_unchanged() {
        let m = parse_query("doc(\"local.xml\")//x/child::y").unwrap();
        for s in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
            let d = decompose(&m, s).unwrap();
            assert!(d.calls.is_empty(), "{s:?}");
        }
    }

    /// Replica resolution turns each call's single destination into a
    /// seeded-ordered candidate set.
    #[test]
    fn replica_resolution_orders_candidates() {
        use crate::replicas::{rendezvous_order, ReplicaCatalog};
        let mut cat = ReplicaCatalog::new();
        cat.register("xrpc://A/students.xml", "A2");
        cat.register("xrpc://B/course42.xml", "B2");
        let mut d = decompose(&q2(), Strategy::ByFragment).unwrap();
        assert!(d.calls.iter().all(|c| c.replicas.is_empty()), "unresolved plans carry none");
        d.resolve_replicas(&cat, 7);
        let a = d.calls.iter().find(|c| c.peer == "A").unwrap();
        let hosts: Vec<String> = ["A", "A2"].iter().map(|s| s.to_string()).collect();
        assert_eq!(a.replicas, rendezvous_order(7, &hosts));
        let b = d.calls.iter().find(|c| c.peer == "B").unwrap();
        assert_eq!(b.replicas.len(), 2, "{:?}", b.replicas);
        assert!(b.replicas.contains(&"B".to_string()) && b.replicas.contains(&"B2".to_string()));
        // an empty catalog leaves plans untouched
        let mut d2 = decompose(&q2(), Strategy::ByFragment).unwrap();
        d2.resolve_replicas(&ReplicaCatalog::new(), 7);
        assert!(d2.calls.iter().all(|c| c.replicas.is_empty()));
    }

    /// With the semi-join option on, Q2's A-side producer harvests the
    /// distinct sorted id column and the edge names B as the consumer.
    #[test]
    fn q2_semijoin_detects_and_resolves_the_edge() {
        let options = DecomposeOptions { semijoin: true, ..DecomposeOptions::default() };
        let d = decompose_with(&q2(), Strategy::ByFragment, options).unwrap();
        assert_eq!(d.semijoins.len(), 1, "{:#?}", d.semijoins);
        let e = &d.semijoins[0];
        assert_eq!(e.var, "t");
        assert_eq!(e.key_path, "child::id");
        assert_eq!(d.calls[e.producer].peer, "A");
        assert_eq!(e.producer_peer, "A");
        assert_eq!(e.consumer_peer.as_deref(), Some("B"));
        let consumer = e.consumer.unwrap();
        assert!(d.calls[consumer].depends_on.contains(&e.producer), "{:#?}", d.calls);
        // the producer body now returns the key column, not person nodes
        assert!(
            d.calls[e.producer].body.contains("xqd:distinct-keys"),
            "{}",
            d.calls[e.producer].body
        );
        // the caller-side extraction collapses to the harvested keys
        let s = d.rewritten.to_string();
        assert!(s.contains("$cm1v := $t"), "{s}");
        assert!(!s.contains("data($t/child::id)"), "{s}");
    }

    /// Off by default: raw decompose() output matches the paper's plans.
    #[test]
    fn semijoin_is_off_by_default() {
        let d = decompose(&q2(), Strategy::ByFragment).unwrap();
        assert!(d.semijoins.is_empty());
        assert!(!d.rewritten.to_string().contains("distinct-keys"));
    }

    /// The dependency analysis records the B call's dependence on the A
    /// call (via the shipped parameter) even without the semi-join rewrite.
    #[test]
    fn call_dependencies_follow_shipped_parameters() {
        let d = decompose(&q2(), Strategy::ByFragment).unwrap();
        let a = d.calls.iter().position(|c| c.peer == "A").unwrap();
        let b = d.calls.iter().position(|c| c.peer == "B").unwrap();
        assert!(d.calls[a].depends_on.is_empty(), "{:#?}", d.calls[a].depends_on);
        assert_eq!(d.calls[b].depends_on, vec![a]);
    }

    /// The intro's motivating example: predicate pushed to example.org.
    #[test]
    fn intro_example_pushes_predicate() {
        let m = parse_query(
            "for $e in doc(\"employees.xml\")//emp \
             where $e/@dept = doc(\"xrpc://example.org/depts.xml\")//dept/@name \
             return $e",
        )
        .unwrap();
        let d = decompose(&m, Strategy::ByValue).unwrap();
        assert_eq!(d.calls.len(), 1, "{:#?}", d.calls);
        assert_eq!(d.calls[0].peer, "example.org");
        assert!(d.calls[0].body.contains("dept"), "{}", d.calls[0].body);
    }
}
