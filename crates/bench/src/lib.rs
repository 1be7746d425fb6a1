//! # xqd-bench — the Section VII experiment harness
//!
//! One function per figure of the paper's evaluation, driven by the
//! `experiments` example, and five sweeps — scaleout, paths, plans, joins,
//! throughput — driven by the `bench` example. Each sweep's point type
//! describes itself once (`row()`), each sweep has one `*_verdict` holding
//! the conditions CI gates on, and [`report`] turns both into the committed
//! `BENCH*.json` documents.
//!
//! Sizes are scaled down from the paper's 10–160 MB per document (see
//! DESIGN.md): the reproduction target is the *shape* of each figure — who
//! wins, by what factor, and how the series scale — not 2009 wall-clock
//! numbers.

pub mod report;

use std::time::{Duration, Instant};

use report::{Report, Row, Value};

use xqd_core::Strategy;
use xqd_xmark::{document_pair, people_document, XmarkConfig};
use xqd_xml::project::{compute_projection, ProjectionInput};
use xqd_xml::serialize::serialize_nodes_into;
use xqd_xml::Store;
use xqd_xrpc::{
    ExecOptions, Federation, Metrics, NetworkModel, TenantSpec, WorkloadConfig, WorkloadEngine,
};

/// The Section VII benchmark query (the paper's XMark adaptation of Qn2):
/// persons under 40 from peer1 semijoined against open auctions on peer2,
/// returning the matching annotations' authors.
pub const BENCHMARK_QUERY: &str = r#"
(let $t := (let $s := doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person
            return for $x in $s return
                if ($x/descendant::age < 40) then $x else ())
 return for $e in (let $c := doc("xrpc://peer2/xmk.auctions.xml")
                   return $c/descendant::open_auction)
        return if ($e/child::seller/attribute::person = $t/attribute::id)
               then $e/child::annotation else ())/child::author
"#;

/// Builds the two-peer federation of Section VII with documents of roughly
/// `bytes_per_doc` each (total data = 2 × bytes_per_doc).
pub fn setup_federation(bytes_per_doc: usize, seed: u64) -> Federation {
    let cfg = XmarkConfig::with_target_bytes(bytes_per_doc, seed);
    let (people, auctions) = document_pair(&cfg);
    let mut fed = Federation::new(NetworkModel::lan());
    fed.load_document("peer1", "xmk.xml", &people).expect("people doc");
    fed.load_document("peer2", "xmk.auctions.xml", &auctions).expect("auctions doc");
    fed
}

/// The gate shared by the verdicts: the sweep measured something, and every
/// named flag of every point's row is `true`. A failing point is named by
/// its first column.
fn require_flags<P>(
    bench: &str,
    points: &[P],
    row: fn(&P) -> Row,
    flags: &[&str],
) -> Result<(), String> {
    if points.is_empty() {
        return Err(format!("{bench}: no points measured"));
    }
    for row in points.iter().map(row) {
        for flag in flags {
            if !row.iter().any(|(key, value)| key == flag && *value == Value::Bool(true)) {
                let (key, label) = &row[0];
                return Err(format!("{bench} point {key}={label}: {flag} is not true"));
            }
        }
    }
    Ok(())
}

/// One measured benchmark point.
#[derive(Debug, Clone)]
pub struct Point {
    pub strategy: Strategy,
    pub total_doc_bytes: u64,
    pub metrics: Metrics,
    pub result_len: usize,
}

/// Runs the benchmark query under `strategy` on a fresh federation.
///
/// The semi-join rewrite is pinned **off** here: figures 7–9 reproduce the
/// paper's four-strategy ladder as published, and the rewrite would shrink
/// by-fragment/by-projection below their printed series. The `joins` bench
/// below measures the semi-join against this ladder explicitly.
pub fn run_point(bytes_per_doc: usize, strategy: Strategy) -> Point {
    let mut fed = setup_federation(bytes_per_doc, 42);
    fed.set_exec_options(ExecOptions { semijoin: false, ..ExecOptions::default() });
    let total_doc_bytes = fed.total_document_bytes();
    let out = fed.run(BENCHMARK_QUERY, strategy).expect("benchmark query");
    Point { strategy, total_doc_bytes, metrics: out.metrics, result_len: out.result.len() }
}

/// Figure 7 — bandwidth usage: total transferred bytes (documents + SOAP
/// messages) per strategy and document size.
pub fn fig7_bandwidth(sizes: &[usize]) -> Vec<(usize, Vec<Point>)> {
    sizes
        .iter()
        .map(|&s| (s, Strategy::ALL.iter().map(|&st| run_point(s, st)).collect()))
        .collect()
}

/// Figure 8 — query time breakdown at one size: per strategy, the five
/// categories (shred, local exec, (de)serialize, remote exec, network).
pub fn fig8_breakdown(bytes_per_doc: usize) -> Vec<Point> {
    Strategy::ALL.iter().map(|&st| run_point(bytes_per_doc, st)).collect()
}

/// One Figure 10/11 measurement: projected sizes and projection times for
/// compile-time vs runtime projection over one people document.
#[derive(Debug, Clone)]
pub struct ProjectionPoint {
    pub doc_bytes: usize,
    pub compile_time_bytes: usize,
    pub runtime_bytes: usize,
    pub compile_time_cost: Duration,
    pub runtime_cost: Duration,
}

/// Figures 10 & 11 — projection precision and cost.
///
/// Compile-time projection (Marian & Siméon) can only follow the static
/// paths: it keeps **all** `site/people/person` elements (returned) and
/// their `age` descendants (used). Runtime projection starts from the
/// materialized, *filtered* context — only persons whose age passes the
/// predicate — and is therefore more precise by roughly the predicate's
/// selectivity. Each cost is project + write: Algorithm 1, then its kept
/// set written straight to text, as by-projection writes it on the wire.
pub fn fig10_11_projection(doc_bytes: usize, seed: u64) -> ProjectionPoint {
    fig10_11_projection_with_threshold(doc_bytes, seed, 40)
}

/// [`fig10_11_projection`] with a configurable age threshold — the
/// selectivity knob of the `runtime_vs_compiletime` ablation: the higher
/// the threshold, the less runtime projection can prune beyond the static
/// paths.
pub fn fig10_11_projection_with_threshold(
    doc_bytes: usize,
    seed: u64,
    age_threshold: u32,
) -> ProjectionPoint {
    let cfg = XmarkConfig::with_target_bytes(doc_bytes, seed);
    let xml = people_document(&cfg);
    let mut store = Store::new();
    let doc_id = xqd_xml::parse_document(&mut store, &xml, Some("xmk.xml")).unwrap();

    // shared path machinery: person and age node sets
    let doc = store.doc(doc_id);
    let mut persons = Vec::new();
    let mut ages = Vec::new();
    let person_name = store.names.get("person");
    let age_name = store.names.get("age");
    for i in 0..doc.len() as u32 {
        if Some(doc.name(i)) == person_name {
            persons.push(i);
        } else if Some(doc.name(i)) == age_name {
            ages.push(i);
        }
    }

    // compile-time: all persons returned, ages used
    let t0 = Instant::now();
    let ct_input = ProjectionInput::new(ages.clone(), persons.clone());
    let ct = compute_projection(doc, &ct_input);
    let mut ct_xml = String::new();
    serialize_nodes_into(doc, &store.names, ct.kept.iter().copied(), &mut ct_xml);
    let compile_time_cost = t0.elapsed();

    // runtime: evaluate the predicate first, keep only matching persons
    let t1 = Instant::now();
    let filtered: Vec<u32> = persons
        .iter()
        .copied()
        .filter(|&p| {
            let end = doc.subtree_end(p);
            (p..=end).any(|i| {
                Some(doc.name(i)) == age_name
                    && doc
                        .string_value(i)
                        .parse::<u32>()
                        .map(|a| a < age_threshold)
                        .unwrap_or(false)
            })
        })
        .collect();
    let rt_input = ProjectionInput::new(vec![], filtered);
    let rt = compute_projection(doc, &rt_input);
    let mut rt_xml = String::new();
    serialize_nodes_into(doc, &store.names, rt.kept.iter().copied(), &mut rt_xml);
    let runtime_cost = t1.elapsed();

    ProjectionPoint {
        doc_bytes: xml.len(),
        compile_time_bytes: ct_xml.len(),
        runtime_bytes: rt_xml.len(),
        compile_time_cost,
        runtime_cost,
    }
}

// ---------------------------------------------------------------------------
// Scale-out: parallel scatter-gather across 1..8 peers
// ---------------------------------------------------------------------------

/// The scale-out query over `peers` peers: one independent aggregate per
/// peer (persons under 40 in that peer's partition), which decomposes into
/// a single scatter round of `peers` XRPC calls.
pub fn scaleout_query(peers: usize) -> String {
    let subqueries: Vec<String> = (1..=peers)
        .map(|k| {
            format!(
                "count(for $p in doc(\"xrpc://peer{k}/xmk.xml\")\
                 /child::site/child::people/child::person \
                 return if ($p/descendant::age < 40) then $p else ())"
            )
        })
        .collect();
    format!("({})", subqueries.join(", "))
}

/// Builds a federation of `peers` peers, each holding its own XMark people
/// partition of roughly `bytes_per_peer` (distinct seeds per peer).
pub fn scaleout_federation(
    peers: usize,
    bytes_per_peer: usize,
    model: NetworkModel,
) -> Federation {
    let mut fed = Federation::new(model);
    for k in 1..=peers {
        let cfg = XmarkConfig::with_target_bytes(bytes_per_peer, 1000 + k as u64);
        let xml = people_document(&cfg);
        fed.load_document(&format!("peer{k}"), "xmk.xml", &xml)
            .expect("partition doc");
    }
    fed
}

/// One scale-out measurement: the same query and data executed with the
/// scatter round fanned out vs. forced sequential.
#[derive(Debug, Clone)]
pub struct ScaleoutPoint {
    pub peers: usize,
    pub parallel_result: Vec<String>,
    pub sequential_result: Vec<String>,
    pub parallel: Metrics,
    pub sequential: Metrics,
}

impl ScaleoutPoint {
    /// Simulated end-to-end speedup of scatter-gather over the sequential
    /// loop: serialized wall clock over overlapped wall clock.
    pub fn speedup(&self) -> f64 {
        self.sequential.wall_clock_serialized().as_secs_f64()
            / self.parallel.wall_clock_overlapped().as_secs_f64()
    }

    /// The `BENCH.json` point.
    pub fn row(&self) -> Row {
        let (par, seq) = (&self.parallel, &self.sequential);
        vec![
            ("peers", self.peers.into()),
            ("speedup", Value::Float(self.speedup(), 3)),
            ("wall_clock_sequential_us", seq.wall_clock_serialized().as_micros().into()),
            ("wall_clock_parallel_us", par.wall_clock_overlapped().as_micros().into()),
            ("message_bytes", par.message_bytes.into()),
            ("transfers", par.transfers.into()),
            ("remote_calls", par.remote_calls.into()),
            ("results_identical", (self.parallel_result == self.sequential_result).into()),
            ("bytes_identical", (par.message_bytes == seq.message_bytes).into()),
        ]
    }
}

/// Runs the scale-out query on `peers` peers under the WAN model (where
/// latency dominates and overlap pays), both fanned out and sequential.
pub fn scaleout_point(peers: usize, bytes_per_peer: usize) -> ScaleoutPoint {
    let query = scaleout_query(peers);

    let mut par = scaleout_federation(peers, bytes_per_peer, NetworkModel::wan());
    let par_out = par.run(&query, Strategy::ByValue).expect("parallel run");

    let mut seq = scaleout_federation(peers, bytes_per_peer, NetworkModel::wan());
    seq.set_exec_options(ExecOptions { parallel_scatter: false, ..ExecOptions::default() });
    let seq_out = seq.run(&query, Strategy::ByValue).expect("sequential run");

    ScaleoutPoint {
        peers,
        parallel_result: par_out.result,
        sequential_result: seq_out.result,
        parallel: par_out.metrics,
        sequential: seq_out.metrics,
    }
}

/// The full 1..=8-peer trajectory.
pub fn scaleout(max_peers: usize, bytes_per_peer: usize) -> Vec<ScaleoutPoint> {
    (1..=max_peers).map(|p| scaleout_point(p, bytes_per_peer)).collect()
}

/// Fanning out must change when messages cross the wire, never what they
/// carry or what comes back.
pub fn scaleout_verdict(points: &[ScaleoutPoint]) -> Result<(), String> {
    require_flags("scaleout", points, ScaleoutPoint::row, &["results_identical", "bytes_identical"])
}

/// The `BENCH.json` report of a scale-out sweep.
pub fn scaleout_report(points: &[ScaleoutPoint]) -> Report {
    Report {
        header: vec![
            ("bench", "scaleout".into()),
            ("model", "wan".into()),
            ("query", "per-peer person aggregate, one scatter round".into()),
        ],
        points: points.iter().map(ScaleoutPoint::row).collect(),
        verdict: scaleout_verdict(points),
    }
}

// ---------------------------------------------------------------------------
// Paths: indexed (staircase-join) vs naive-scan axis steps
// ---------------------------------------------------------------------------

/// The descendant-heavy XMark path queries of the `paths` bench, as
/// `(label, query)` pairs. All run against a single local people document
/// registered as `xmk.xml`.
pub const PATHS_QUERIES: &[(&str, &str)] = &[
    ("descendant-age", r#"count(doc("xmk.xml")/descendant::age)"#),
    (
        "descendant-person-descendant-age",
        r#"count(doc("xmk.xml")/descendant::person/descendant::age)"#,
    ),
    (
        "descendant-person-attribute-id",
        r#"count(doc("xmk.xml")/descendant::person/attribute::id)"#,
    ),
    (
        "child-chain-age",
        r#"count(doc("xmk.xml")/child::site/child::people/child::person/child::profile/child::age)"#,
    ),
    (
        "slashslash-interest-category",
        r#"count(doc("xmk.xml")//interest/attribute::category)"#,
    ),
];

/// One `paths` measurement: a single query at a single document scale,
/// compiled and run by the plan engine with the staircase-join fast path
/// off (`scan`) and on (`indexed`) over the *same* store, so node
/// identities are comparable. Times are µs, read at ns resolution.
#[derive(Debug, Clone)]
pub struct PathsPoint {
    pub query: &'static str,
    pub doc_bytes: usize,
    pub scan_us: f64,
    pub indexed_us: f64,
    pub results_identical: bool,
}

impl PathsPoint {
    /// Scan time over indexed time (>1 means the index wins).
    pub fn speedup(&self) -> f64 {
        self.scan_us / self.indexed_us.max(0.001)
    }

    /// The `BENCH_paths.json` point.
    pub fn row(&self) -> Row {
        vec![
            ("query", self.query.into()),
            ("doc_bytes", self.doc_bytes.into()),
            ("scan_us", Value::Float(self.scan_us, 3)),
            ("indexed_us", Value::Float(self.indexed_us, 3)),
            ("speedup", Value::Float(self.speedup(), 3)),
            ("results_identical", self.results_identical.into()),
        ]
    }
}

/// Runs every [`PATHS_QUERIES`] entry at one document scale, taking the
/// minimum of `iters` timed plan evaluations per mode (one plan compiled
/// per mode, one untimed warmup run first, so neither compilation nor lazy
/// name-index construction is charged to any iteration).
pub fn paths_points_at(target_bytes: usize, seed: u64, iters: usize) -> Vec<PathsPoint> {
    use xqd_xquery::{compile_query, parse_query, Evaluator, LocalResolver, StaticContext};

    let cfg = XmarkConfig::with_target_bytes(target_bytes, seed);
    let xml = people_document(&cfg);
    let doc_bytes = xml.len();
    let mut store = Store::new();
    xqd_xml::parse_document(&mut store, &xml, Some("xmk.xml")).expect("people doc");

    let mut points = Vec::new();
    for &(label, query) in PATHS_QUERIES {
        let module = parse_query(query).expect("paths query parses");
        let mut time_mode = |use_indexes: bool| {
            let plan = compile_query(&module, use_indexes, &StaticContext::default());
            let mut run = || {
                let mut resolver = LocalResolver;
                let mut ev = Evaluator::new(&mut store, &mut resolver);
                plan.eval(&mut ev).expect("paths query evaluates")
            };
            let warmup = run();
            let mut best = f64::MAX;
            for _ in 0..iters.max(1) {
                let t = Instant::now();
                let out = run();
                best = best.min(t.elapsed().as_nanos() as f64 / 1e3);
                assert_eq!(out, warmup, "{label}: unstable result across runs");
            }
            (warmup, best)
        };
        let (scan_result, scan_us) = time_mode(false);
        let (indexed_result, indexed_us) = time_mode(true);
        points.push(PathsPoint {
            query: label,
            doc_bytes,
            scan_us,
            indexed_us,
            results_identical: scan_result == indexed_result,
        });
    }
    points
}

/// The full `paths` sweep: every query at every scale.
pub fn paths_sweep(scales: &[usize], iters: usize) -> Vec<PathsPoint> {
    scales.iter().flat_map(|&s| paths_points_at(s, 42, iters)).collect()
}

/// Every indexed evaluation must return what the scan returns.
pub fn paths_verdict(points: &[PathsPoint]) -> Result<(), String> {
    require_flags("paths", points, PathsPoint::row, &["results_identical"])
}

/// The `BENCH_paths.json` report of a sweep.
pub fn paths_report(points: &[PathsPoint]) -> Report {
    Report {
        header: vec![
            ("bench", "paths".into()),
            ("query_set", "descendant-heavy XMark path steps, indexed vs scan".into()),
        ],
        points: points.iter().map(PathsPoint::row).collect(),
        verdict: paths_verdict(points),
    }
}

// ---------------------------------------------------------------------------
// Plans: compiled front end + LRU plan cache (cache off / cold / warm)
// ---------------------------------------------------------------------------

/// The repeated-query workload of the `plans` bench: federated query shapes
/// over the Section VII two-peer federation, from a single-call semijoin to
/// scatter and constant-heavy bodies. Repeated traffic of exactly these
/// texts is the workload the plan cache amortizes.
pub const PLANS_QUERIES: &[(&str, &str)] = &[
    (
        "person-count",
        r#"count(doc("xrpc://peer1/xmk.xml")/child::site/child::people/child::person)"#,
    ),
    (
        "young-person-names",
        r#"for $p in doc("xrpc://peer1/xmk.xml")/descendant::person
           return if ($p/descendant::age < 40) then $p/child::name else ()"#,
    ),
    (
        "two-peer-scatter",
        r#"(count(doc("xrpc://peer1/xmk.xml")/descendant::person),
            count(doc("xrpc://peer2/xmk.auctions.xml")/descendant::open_auction))"#,
    ),
    (
        "semijoin-authors",
        BENCHMARK_QUERY,
    ),
    (
        "const-heavy-filter",
        r#"for $p in doc("xrpc://peer1/xmk.xml")/descendant::person
           return if ($p/descendant::age < (2 * 10 + 20)) then $p/attribute::id else ()"#,
    ),
];

/// One `plans` measurement: the front-end rate (plans/sec) for one query
/// with the cache off / cold / warm, plus end-to-end per-query latency and
/// the bit-parity verdict of a replayed cached plan vs. a fresh front end.
#[derive(Debug, Clone)]
pub struct PlansPoint {
    /// Workload label (see [`PLANS_QUERIES`]).
    pub query: &'static str,
    /// Front-end rate with the plan cache disabled (`plan_cache_size: 0`):
    /// every call pays parse + decompose + lowering.
    pub off_plans_per_sec: f64,
    /// Front-end rate with the cache cleared before every call: the miss
    /// path including insertion.
    pub cold_plans_per_sec: f64,
    /// Front-end rate on a primed cache: one hash lookup per call.
    pub warm_plans_per_sec: f64,
    /// End-to-end latency of one run on a warm cache.
    pub compiled_us: u128,
    /// End-to-end latency of one run with span tracing enabled (same warm
    /// federation as `compiled_us`) — the tracing overhead budget.
    pub traced_us: u128,
    /// Replaying the cached plan returns exactly what the cache-off
    /// federation (full front end on every run) returns.
    pub results_identical: bool,
}

impl PlansPoint {
    /// Warm-cache front-end speedup over the uncached front end.
    pub fn warm_speedup(&self) -> f64 {
        self.warm_plans_per_sec / self.off_plans_per_sec.max(f64::MIN_POSITIVE)
    }

    /// The CI overhead budget: the traced run stays within 3% of the
    /// untraced run, with a 150µs absolute floor absorbing host timer
    /// noise on the sub-millisecond smoke points.
    pub fn trace_overhead_ok(&self) -> bool {
        let budget = (self.compiled_us * 3 / 100).max(150);
        self.traced_us <= self.compiled_us + budget
    }

    /// The `BENCH_plans.json` point.
    pub fn row(&self) -> Row {
        vec![
            ("query", self.query.into()),
            ("off_plans_per_sec", Value::Float(self.off_plans_per_sec, 1)),
            ("cold_plans_per_sec", Value::Float(self.cold_plans_per_sec, 1)),
            ("warm_plans_per_sec", Value::Float(self.warm_plans_per_sec, 1)),
            ("warm_speedup", Value::Float(self.warm_speedup(), 3)),
            ("compiled_us", self.compiled_us.into()),
            ("traced_us", self.traced_us.into()),
            ("trace_overhead_ok", self.trace_overhead_ok().into()),
            ("results_identical", self.results_identical.into()),
        ]
    }
}

/// Times `iters` calls of `f` and returns the rate in calls/sec.
fn rate_of(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Untraced / traced run pairs behind a [`PlansPoint`]'s two latencies.
const LATENCY_PAIRS: usize = 5;

/// Measures one [`PLANS_QUERIES`] entry at one document scale under
/// `strategy`. The three front-end modes run `iters` `prepare` calls each;
/// each latency is the best of [`LATENCY_PAIRS`] full runs, the untraced
/// and the traced ones alternating.
pub fn plans_point(
    label: &'static str,
    query: &str,
    bytes_per_doc: usize,
    strategy: Strategy,
    iters: usize,
) -> PlansPoint {
    let iters = iters.max(1);

    // cache off: plan_cache_size 0 recompiles on every prepare
    let mut off = setup_federation(bytes_per_doc, 42);
    off.set_exec_options(ExecOptions { plan_cache_size: 0, ..ExecOptions::default() });
    let off_plans_per_sec = rate_of(iters, || {
        off.prepare(query, strategy).expect("prepare");
    });

    // cold: the miss path of an enabled cache (cleared before every call)
    let mut cold = setup_federation(bytes_per_doc, 42);
    let cold_plans_per_sec = rate_of(iters, || {
        cold.clear_plan_cache();
        cold.prepare(query, strategy).expect("prepare");
    });

    // warm: primed once, then every call is a hash lookup
    let mut warm = setup_federation(bytes_per_doc, 42);
    warm.prepare(query, strategy).expect("prime");
    let warm_plans_per_sec = rate_of(iters, || {
        warm.prepare(query, strategy).expect("prepare");
    });

    // latency on the warm federation, untraced and traced runs taken
    // alternately and as often each, so host noise lands on both sides of
    // the tracing overhead budget alike; parity against the cache-off one
    let untraced = warm.exec_options();
    let traced = ExecOptions { trace: true, ..untraced };
    let (mut compiled_us, mut traced_us) = (u128::MAX, u128::MAX);
    let mut warm_out = None;
    for _ in 0..LATENCY_PAIRS {
        warm.set_exec_options(untraced);
        let t = Instant::now();
        let out = warm.run(query, strategy).expect("warm run");
        compiled_us = compiled_us.min(t.elapsed().as_micros());
        warm_out = Some(out);
        warm.set_exec_options(traced);
        let t = Instant::now();
        warm.run(query, strategy).expect("traced run");
        traced_us = traced_us.min(t.elapsed().as_micros());
    }
    warm.set_exec_options(untraced);
    let warm_out = warm_out.expect("at least one run");
    let off_out = off.run(query, strategy).expect("cache-off run");

    PlansPoint {
        query: label,
        off_plans_per_sec,
        cold_plans_per_sec,
        warm_plans_per_sec,
        compiled_us,
        traced_us,
        results_identical: warm_out.result == off_out.result,
    }
}

/// The full `plans` sweep: every workload query under `strategy`.
pub fn plans_sweep(bytes_per_doc: usize, strategy: Strategy, iters: usize) -> Vec<PlansPoint> {
    PLANS_QUERIES
        .iter()
        .map(|&(label, query)| plans_point(label, query, bytes_per_doc, strategy, iters))
        .collect()
}

/// A replayed cached plan must return what a fresh front end returns, and
/// a traced run must stay within the tracing overhead budget.
pub fn plans_verdict(points: &[PlansPoint]) -> Result<(), String> {
    require_flags("plans", points, PlansPoint::row, &["results_identical", "trace_overhead_ok"])
}

/// The `BENCH_plans.json` report of a sweep run under `strategy`.
pub fn plans_report(points: &[PlansPoint], strategy: Strategy) -> Report {
    Report {
        header: vec![
            ("bench", "plans".into()),
            ("strategy", strategy.name().into()),
            ("workload", "repeated federated queries, plan cache off / cold / warm".into()),
        ],
        points: points.iter().map(PlansPoint::row).collect(),
        verdict: plans_verdict(points),
    }
}

// ---------------------------------------------------------------------------
// Joins: semi-join key shipping vs the existing strategy ladder
// ---------------------------------------------------------------------------

/// The `joins` bench query — Q2's join shape on the XMark pair, keyed in
/// the direction where the key column carries duplicates (Q2's "many exams
/// per student"): cheap auctions on peer2 are joined by `seller/@person`
/// against the people document on peer1, returning the sellers' names.
/// One seller runs many auctions, so the producer's key column collapses
/// hard under `distinct-keys` — the classic semi-join win the ladder's
/// strategies cannot see.
pub const JOIN_QUERY: &str = r#"
(let $t := (let $a := doc("xrpc://peer2/xmk.auctions.xml")/child::site/child::open_auctions/child::open_auction
            return for $x in $a return
                if ($x/child::quantity < 3) then $x else ())
 return for $p in (let $s := doc("xrpc://peer1/xmk.xml")
                   return $s/descendant::person)
        return if ($p/attribute::id = $t/child::seller/attribute::person)
               then $p/child::name else ())
"#;

/// The asymmetric federation of the `joins` bench: the auction side scales
/// with `auction_bytes` while the seller pool stays fixed, so the number of
/// auctions *per seller* — the key-duplication factor — grows with scale.
pub fn joins_federation(auction_bytes: usize, seed: u64) -> Federation {
    let cfg = XmarkConfig {
        people: 40,
        open_auctions: (auction_bytes / 650).max(1),
        seed,
        payload_words: 30,
    };
    let (people, auctions) = document_pair(&cfg);
    let mut fed = Federation::new(NetworkModel::lan());
    fed.load_document("peer1", "xmk.xml", &people).expect("people doc");
    fed.load_document("peer2", "xmk.auctions.xml", &auctions).expect("auctions doc");
    fed
}

/// One `joins` measurement at one scale: the Section VII join executed by
/// the best of the paper's four strategies (semi-join off — the existing
/// ladder) against the same strategy set with join-aware decomposition on.
#[derive(Debug, Clone)]
pub struct JoinsPoint {
    pub bytes_per_doc: usize,
    pub total_doc_bytes: u64,
    /// Cheapest existing-ladder strategy by total transferred bytes.
    pub baseline_strategy: &'static str,
    pub baseline_bytes: u64,
    pub baseline_wall_us: u128,
    /// Cheapest strategy with the semi-join rewrite on.
    pub semijoin_strategy: &'static str,
    pub semijoin_bytes: u64,
    pub semijoin_wall_us: u128,
    /// Executor counters from the semi-join run.
    pub semijoins: u64,
    pub join_keys_shipped: u64,
    pub join_bytes_saved: u64,
    /// Semi-join results == existing-ladder results, bit for bit.
    pub results_identical: bool,
}

impl JoinsPoint {
    /// Transferred-byte reduction of the semi-join over the best existing
    /// strategy (>1 means the key filter wins).
    pub fn reduction(&self) -> f64 {
        self.baseline_bytes as f64 / self.semijoin_bytes.max(1) as f64
    }

    /// The `BENCH_joins.json` point.
    pub fn row(&self) -> Row {
        vec![
            ("doc_bytes", self.bytes_per_doc.into()),
            ("total_doc_bytes", self.total_doc_bytes.into()),
            ("baseline_strategy", self.baseline_strategy.into()),
            ("baseline_bytes", self.baseline_bytes.into()),
            ("baseline_wall_us", self.baseline_wall_us.into()),
            ("semijoin_strategy", self.semijoin_strategy.into()),
            ("semijoin_bytes", self.semijoin_bytes.into()),
            ("semijoin_wall_us", self.semijoin_wall_us.into()),
            ("byte_reduction", Value::Float(self.reduction(), 3)),
            ("semijoins", self.semijoins.into()),
            ("join_keys_shipped", self.join_keys_shipped.into()),
            ("join_bytes_saved", self.join_bytes_saved.into()),
            ("results_identical", self.results_identical.into()),
        ]
    }
}

/// Measures the benchmark join at one scale. Every strategy runs twice —
/// semi-join off (the existing ladder) and on — and each side reports its
/// cheapest strategy by transferred bytes; data shipping only competes on
/// the off side (the rewrite never fires without decomposition).
pub fn joins_point(bytes_per_doc: usize, seed: u64) -> JoinsPoint {
    let run = |strategy: Strategy, semijoin: bool| {
        let mut fed = joins_federation(bytes_per_doc, seed);
        fed.set_exec_options(ExecOptions { semijoin, ..ExecOptions::default() });
        let t = Instant::now();
        let out = fed.run(JOIN_QUERY, strategy).expect("join query");
        (out, t.elapsed().as_micros())
    };

    let total_doc_bytes = joins_federation(bytes_per_doc, seed).total_document_bytes();

    let mut baseline: Option<(Strategy, _, u128)> = None;
    for strategy in Strategy::ALL {
        let (out, us) = run(strategy, false);
        if baseline
            .as_ref()
            .map(|(_, b, _): &(_, xqd_xrpc::RunOutcome, _)| {
                out.metrics.transferred_bytes() < b.metrics.transferred_bytes()
            })
            .unwrap_or(true)
        {
            baseline = Some((strategy, out, us));
        }
    }
    let (base_strategy, base_out, base_us) = baseline.expect("one baseline");

    let mut semi: Option<(Strategy, _, u128)> = None;
    for strategy in [Strategy::ByValue, Strategy::ByFragment, Strategy::ByProjection] {
        let (out, us) = run(strategy, true);
        if semi
            .as_ref()
            .map(|(_, b, _): &(_, xqd_xrpc::RunOutcome, _)| {
                out.metrics.transferred_bytes() < b.metrics.transferred_bytes()
            })
            .unwrap_or(true)
        {
            semi = Some((strategy, out, us));
        }
    }
    let (semi_strategy, semi_out, semi_us) = semi.expect("one semijoin run");

    JoinsPoint {
        bytes_per_doc,
        total_doc_bytes,
        baseline_strategy: base_strategy.name(),
        baseline_bytes: base_out.metrics.transferred_bytes(),
        baseline_wall_us: base_us,
        semijoin_strategy: semi_strategy.name(),
        semijoin_bytes: semi_out.metrics.transferred_bytes(),
        semijoin_wall_us: semi_us,
        semijoins: semi_out.metrics.semijoins,
        join_keys_shipped: semi_out.metrics.join_keys_shipped,
        join_bytes_saved: semi_out.metrics.join_bytes_saved,
        results_identical: semi_out.result == base_out.result,
    }
}

/// The full `joins` sweep across document scales.
pub fn joins_sweep(scales: &[usize]) -> Vec<JoinsPoint> {
    scales.iter().map(|&s| joins_point(s, 42)).collect()
}

/// The semi-join must return what the existing ladder returns.
pub fn joins_verdict(points: &[JoinsPoint]) -> Result<(), String> {
    require_flags("joins", points, JoinsPoint::row, &["results_identical"])
}

/// The `BENCH_joins.json` report of a sweep.
pub fn joins_report(points: &[JoinsPoint]) -> Report {
    Report {
        header: vec![
            ("bench", "joins".into()),
            (
                "query",
                "XMark person/auction equi-join, semi-join key shipping vs the strategy ladder"
                    .into(),
            ),
        ],
        points: points.iter().map(JoinsPoint::row).collect(),
        verdict: joins_verdict(points),
    }
}

// ---------------------------------------------------------------------------
// Throughput: multi-tenant goodput and tail latency vs offered load
// ---------------------------------------------------------------------------

/// The multi-tenant mix of the `throughput` bench: an interactive tenant
/// (high fair-queuing weight, cheap lookups), a reporting tenant and a scan
/// tenant splitting the offered load 40/40/20 over the Section VII
/// federation.
pub fn throughput_tenants(offered_qps: f64) -> Vec<TenantSpec> {
    vec![
        TenantSpec::new(
            "interactive",
            4,
            offered_qps * 0.4,
            vec![
                "count(doc(\"xrpc://peer1/xmk.xml\")/child::site/child::people/child::person)"
                    .to_string(),
            ],
        ),
        TenantSpec::new(
            "reporting",
            1,
            offered_qps * 0.4,
            vec![
                "count(doc(\"xrpc://peer2/xmk.auctions.xml\")/descendant::open_auction)"
                    .to_string(),
            ],
        ),
        TenantSpec::new(
            "scan",
            1,
            offered_qps * 0.2,
            vec!["doc(\"xrpc://peer1/xmk.xml\")/descendant::person/attribute::id".to_string()],
        ),
    ]
}

/// Capacity of the throughput federation in queries per second: workers
/// over the mean fault-free service time of the workload templates. Each
/// sweep point's offered load is a multiple of this.
pub fn throughput_capacity(bytes_per_doc: usize) -> f64 {
    let mut fed = setup_federation(bytes_per_doc, 42);
    let config = WorkloadConfig::new(throughput_tenants(1.0));
    WorkloadEngine::capacity_qps(&mut fed, &config).expect("capacity probe")
}

/// One offered-load point of the throughput sweep.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Offered load as a multiple of estimated capacity.
    pub load_factor: f64,
    pub offered_qps: f64,
    pub goodput_qps: f64,
    pub arrivals: u64,
    pub completed: u64,
    pub shed: u64,
    pub deadline_cancelled: u64,
    pub errored: u64,
    pub p50_us: u128,
    pub p95_us: u128,
    pub p99_us: u128,
    pub peak_queue_depth: u64,
    /// Every completed query matched the fault-free serial baseline.
    pub results_identical: bool,
    /// Every non-completed query carries a typed error code.
    pub all_errors_typed: bool,
}

impl ThroughputPoint {
    /// The `BENCH_throughput.json` point.
    pub fn row(&self) -> Row {
        vec![
            ("load_factor", Value::Float(self.load_factor, 2)),
            ("offered_qps", Value::Float(self.offered_qps, 1)),
            ("goodput_qps", Value::Float(self.goodput_qps, 1)),
            ("arrivals", self.arrivals.into()),
            ("completed", self.completed.into()),
            ("shed", self.shed.into()),
            ("deadline_cancelled", self.deadline_cancelled.into()),
            ("errored", self.errored.into()),
            ("p50_us", self.p50_us.into()),
            ("p95_us", self.p95_us.into()),
            ("p99_us", self.p99_us.into()),
            ("peak_queue_depth", self.peak_queue_depth.into()),
            ("results_identical", self.results_identical.into()),
            ("all_errors_typed", self.all_errors_typed.into()),
        ]
    }
}

/// Runs the multi-tenant workload at `load × capacity`, sizing the arrival
/// window so roughly `target_arrivals` queries arrive regardless of load.
pub fn throughput_point(
    bytes_per_doc: usize,
    capacity_qps: f64,
    load: f64,
    target_arrivals: usize,
) -> ThroughputPoint {
    let offered = capacity_qps * load;
    let mut fed = setup_federation(bytes_per_doc, 42);
    let mut config = WorkloadConfig::new(throughput_tenants(offered));
    config.duration = Duration::from_secs_f64((target_arrivals as f64 / offered).max(1e-3));
    let report = WorkloadEngine::run(&mut fed, &config).expect("workload run");
    ThroughputPoint {
        load_factor: load,
        offered_qps: report.offered_qps,
        goodput_qps: report.goodput_qps,
        arrivals: report.arrivals,
        completed: report.completed,
        shed: report.shed,
        deadline_cancelled: report.deadline_cancelled,
        errored: report.errored,
        p50_us: report.p50.as_micros(),
        p95_us: report.p95.as_micros(),
        p99_us: report.p99.as_micros(),
        peak_queue_depth: report.metrics.peak_queue_depth,
        results_identical: report.results_identical,
        all_errors_typed: report.all_errors_typed,
    }
}

/// The full `throughput` sweep over offered-load multiples of capacity.
pub fn throughput_sweep(
    bytes_per_doc: usize,
    loads: &[f64],
    target_arrivals: usize,
) -> Vec<ThroughputPoint> {
    let capacity = throughput_capacity(bytes_per_doc);
    loads
        .iter()
        .map(|&l| throughput_point(bytes_per_doc, capacity, l, target_arrivals))
        .collect()
}

/// The summary entries of a throughput sweep — `peak_goodput_qps`,
/// `goodput_at_max_load_qps`, `flat_top`, `total_shed`. The flat-top check:
/// goodput at the highest offered load (≥ 2x capacity in the default sweep)
/// must stay within 10% of the peak — shed, don't thrash.
fn throughput_summary(points: &[ThroughputPoint]) -> (f64, f64, bool, u64) {
    let peak = points.iter().map(|p| p.goodput_qps).fold(0.0_f64, f64::max);
    let at_max_load = points
        .iter()
        .max_by(|a, b| a.load_factor.total_cmp(&b.load_factor))
        .map(|p| p.goodput_qps)
        .unwrap_or(0.0);
    (peak, at_max_load, at_max_load >= peak * 0.9, points.iter().map(|p| p.shed).sum())
}

/// Every completed result is bit-identical to serial execution and every
/// other query carries a typed error; past saturation goodput stays flat,
/// and the shed path fired (a zero `total_shed` means admission control
/// never engaged).
pub fn throughput_verdict(points: &[ThroughputPoint]) -> Result<(), String> {
    let flags = ["results_identical", "all_errors_typed"];
    require_flags("throughput", points, ThroughputPoint::row, &flags)?;
    let (peak, at_max_load, flat_top, total_shed) = throughput_summary(points);
    let max_load = points.iter().map(|p| p.load_factor).fold(0.0_f64, f64::max);
    if !flat_top {
        return Err(format!(
            "throughput point load_factor={max_load:.2}: flat_top is false — goodput \
             {at_max_load:.1} q/s fell below 90% of the peak {peak:.1} q/s"
        ));
    }
    if total_shed == 0 {
        return Err(format!(
            "throughput point load_factor={max_load:.2}: total_shed is 0 — the sweep never shed"
        ));
    }
    Ok(())
}

/// The `BENCH_throughput.json` report of a sweep.
pub fn throughput_report(points: &[ThroughputPoint]) -> Report {
    let (peak, at_max_load, flat_top, total_shed) = throughput_summary(points);
    Report {
        header: vec![
            ("bench", "throughput".into()),
            (
                "workload",
                "3 tenants (weights 4/1/1), seeded Poisson arrivals, WFQ + admission control"
                    .into(),
            ),
            ("peak_goodput_qps", Value::Float(peak, 1)),
            ("goodput_at_max_load_qps", Value::Float(at_max_load, 1)),
            ("flat_top", flat_top.into()),
            ("total_shed", total_shed.into()),
        ],
        points: points.iter().map(ThroughputPoint::row).collect(),
        verdict: throughput_verdict(points),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_query_agrees_across_strategies() {
        let mut baseline = None;
        for strategy in Strategy::ALL {
            let mut fed = setup_federation(30_000, 7);
            let out = fed.run(BENCHMARK_QUERY, strategy).unwrap();
            assert!(!out.result.is_empty(), "{strategy:?} produced no authors");
            match &baseline {
                None => baseline = Some(out.result),
                Some(b) => assert_eq!(&out.result, b, "{strategy:?}"),
            }
        }
    }

    /// Fig. 8's "local exec" is the in-process time the other categories do
    /// not account for. Under the WAN model the simulated network bill
    /// exceeds the whole in-process run, which used to be subtracted too
    /// and read 0 for every strategy.
    #[test]
    fn fig8_local_exec_is_the_in_process_residual() {
        let (people, auctions) = document_pair(&XmarkConfig::with_target_bytes(40_000, 42));
        let mut fed = Federation::new(NetworkModel::wan());
        fed.load_document("peer1", "xmk.xml", &people).unwrap();
        fed.load_document("peer2", "xmk.auctions.xml", &auctions).unwrap();
        let m = fed.run(BENCHMARK_QUERY, Strategy::DataShipping).unwrap().metrics;
        assert!(m.local_exec() > Duration::ZERO, "{m:?}");
        assert_eq!(m.local_exec() + m.shred + m.serialize + m.remote_exec, m.total, "{m:?}");
    }

    #[test]
    fn fig7_ordering_holds() {
        // data-shipping > by-value > by-fragment ≥ by-projection in bytes
        let points = fig8_breakdown(40_000);
        let bytes: Vec<u64> = points.iter().map(|p| p.metrics.transferred_bytes()).collect();
        assert!(bytes[0] > bytes[1], "data-shipping {} > by-value {}", bytes[0], bytes[1]);
        assert!(bytes[1] > bytes[2], "by-value {} > by-fragment {}", bytes[1], bytes[2]);
        assert!(bytes[2] > bytes[3], "by-fragment {} > by-projection {}", bytes[2], bytes[3]);
    }

    #[test]
    fn scaleout_speedup_exceeds_2x_at_4_peers() {
        let p = scaleout_point(4, 8_000);
        assert_eq!(p.parallel_result, p.sequential_result, "results must be identical");
        assert_eq!(
            p.parallel.message_bytes, p.sequential.message_bytes,
            "total message bytes must be identical"
        );
        assert_eq!(p.parallel.transfers, p.sequential.transfers);
        assert_eq!(p.parallel.remote_calls, p.sequential.remote_calls);
        assert_eq!(p.parallel.scatter_rounds, 1);
        assert!(
            p.speedup() > 2.0,
            "scatter-gather at 4 peers should be >2x: {:.2}x (seq {:?}, par {:?})",
            p.speedup(),
            p.sequential.wall_clock_serialized(),
            p.parallel.wall_clock_overlapped()
        );
    }

    /// `verdict` must fail, and its message must carry every `needle`.
    fn assert_fails(verdict: Result<(), String>, needles: &[&str]) {
        let msg = verdict.expect_err("a tampered point must fail the verdict");
        for needle in needles {
            assert!(msg.contains(needle), "verdict message lacks {needle:?}: {msg}");
        }
    }

    #[test]
    fn scaleout_verdict_gates_results_and_bytes() {
        let points = scaleout(2, 4_000);
        assert_eq!(scaleout_verdict(&points), Ok(()));
        assert!(scaleout_verdict(&[]).is_err(), "an empty sweep proves nothing");
        let mut wrong_result = points.clone();
        wrong_result[1].parallel_result.push("atom:0".to_string());
        assert_fails(scaleout_verdict(&wrong_result), &["peers=2", "results_identical"]);
        let mut wrong_bytes = points;
        wrong_bytes[0].sequential.message_bytes += 1;
        assert_fails(scaleout_verdict(&wrong_bytes), &["peers=1", "bytes_identical"]);
    }

    #[test]
    fn paths_verdict_gates_indexed_against_scan() {
        let mut points = paths_points_at(20_000, 9, 2);
        assert_eq!(points.len(), PATHS_QUERIES.len());
        assert_eq!(paths_verdict(&points), Ok(()));
        points[2].results_identical = false;
        assert_fails(paths_verdict(&points), &[PATHS_QUERIES[2].0, "results_identical"]);
    }

    #[test]
    fn plans_warm_cache_amortizes_front_end() {
        let (label, query) = PLANS_QUERIES[0];
        let p = plans_point(label, query, 6_000, Strategy::ByValue, 40);
        assert!(p.results_identical, "cached-plan replay and fresh front end differ");
        assert!(
            p.warm_speedup() > 3.0,
            "warm cache should beat the uncached front end: {:.1}x (off {:.0}/s, warm {:.0}/s)",
            p.warm_speedup(),
            p.off_plans_per_sec,
            p.warm_plans_per_sec
        );
    }

    #[test]
    fn plans_verdict_gates_replay_parity_and_trace_overhead() {
        let mut points: Vec<PlansPoint> = PLANS_QUERIES[..2]
            .iter()
            .map(|&(label, query)| plans_point(label, query, 4_000, Strategy::ByValue, 3))
            .collect();
        // the parity fields stay measured; the timings are pinned inside the
        // budget, since a debug build's few-run wall clock on a loaded host
        // can break it (`bench plans --small` gates the measured overhead)
        for p in &mut points {
            (p.compiled_us, p.traced_us) = (1_000, 1_020);
        }
        assert_eq!(plans_verdict(&points), Ok(()));
        points[1].traced_us = points[1].compiled_us * 2 + 151;
        assert_fails(plans_verdict(&points), &[PLANS_QUERIES[1].0, "trace_overhead_ok"]);
        points[0].results_identical = false;
        assert_fails(plans_verdict(&points), &[PLANS_QUERIES[0].0, "results_identical"]);
    }

    #[test]
    fn joins_semijoin_beats_the_ladder_and_stays_identical() {
        let p = joins_point(60_000, 42);
        assert!(p.results_identical, "semi-join changed the join result");
        assert_eq!(p.semijoins, 1, "the join edge must be detected");
        assert!(p.join_keys_shipped > 0, "no keys were shipped");
        assert!(
            p.reduction() > 1.5,
            "semi-join should already win at 60k: {:.2}x ({} vs {})",
            p.reduction(),
            p.baseline_bytes,
            p.semijoin_bytes
        );
    }

    #[test]
    fn joins_verdict_gates_semijoin_against_the_ladder() {
        let mut points = joins_sweep(&[8_000, 30_000]);
        assert_eq!(joins_verdict(&points), Ok(()));
        points[1].results_identical = false;
        assert_fails(joins_verdict(&points), &["doc_bytes=30000", "results_identical"]);
    }

    #[test]
    fn throughput_verdict_gates_shedding_flat_goodput_and_typed_errors() {
        let points = throughput_sweep(4_000, &[1.0, 2.0], 150);
        assert_eq!(throughput_verdict(&points), Ok(()), "goodput collapsed past saturation?");
        let at_2x = &points[1];
        assert!(at_2x.shed > 0, "2x load must trip admission control: {at_2x:?}");
        assert_eq!(
            at_2x.completed + at_2x.shed + at_2x.deadline_cancelled + at_2x.errored,
            at_2x.arrivals,
            "every arrival must be accounted for"
        );

        let mut diverged = points.clone();
        diverged[0].results_identical = false;
        assert_fails(throughput_verdict(&diverged), &["load_factor=1.00", "results_identical"]);
        let mut untyped = points.clone();
        untyped[1].all_errors_typed = false;
        assert_fails(throughput_verdict(&untyped), &["load_factor=2.00", "all_errors_typed"]);
        let mut collapsed = points.clone();
        collapsed[1].goodput_qps = collapsed[0].goodput_qps * 0.5;
        assert_fails(throughput_verdict(&collapsed), &["load_factor=2.00", "flat_top"]);
        let mut never_shed = points;
        never_shed.iter_mut().for_each(|p| p.shed = 0);
        assert_fails(throughput_verdict(&never_shed), &["load_factor=2.00", "total_shed"]);
    }

    #[test]
    fn fig10_runtime_more_precise() {
        let p = fig10_11_projection(60_000, 3);
        assert!(
            p.runtime_bytes * 2 < p.compile_time_bytes,
            "runtime {} should be well under compile-time {}",
            p.runtime_bytes,
            p.compile_time_bytes
        );
        assert!(p.compile_time_bytes < p.doc_bytes);
        // the byte columns are the projection's: pinned exactly, so a change
        // in how the kept set is written cannot move them
        assert_eq!((p.compile_time_bytes, p.runtime_bytes), (36_666, 13_716), "at 60 KB");
        let p = fig10_11_projection(150_000, 42);
        assert_eq!((p.compile_time_bytes, p.runtime_bytes), (91_793, 35_812), "at 150 KB");
    }
}
