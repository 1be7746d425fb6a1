//! # xqd-bench — the Section VII experiment harness
//!
//! One function per figure of the paper's evaluation; the `experiments`
//! example binary and the `*_bench` examples drive these, so the printed
//! series and the committed BENCH_*.json files come from the same code.
//!
//! Sizes are scaled down from the paper's 10–160 MB per document (see
//! DESIGN.md): the reproduction target is the *shape* of each figure — who
//! wins, by what factor, and how the series scale — not 2009 wall-clock
//! numbers.

use std::time::{Duration, Instant};

use xqd_core::Strategy;
use xqd_xmark::{document_pair, people_document, XmarkConfig};
use xqd_xml::project::{compute_projection, build_projected, ProjectionInput};
use xqd_xml::{serialize_document, Store};
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

/// Figure 9 — total execution time per strategy across sizes.
pub fn fig9_scaling(sizes: &[usize]) -> Vec<(usize, Vec<Point>)> {
    fig7_bandwidth(sizes)
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
/// selectivity.
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
    let ct_builder = build_projected(doc, &store.names, &ct, None);
    let mut scratch = Store::new();
    let ct_doc = scratch.attach(ct_builder);
    let ct_xml = serialize_document(scratch.doc(ct_doc), &scratch.names);
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
    let rt_builder = build_projected(doc, &store.names, &rt, None);
    let mut scratch2 = Store::new();
    let rt_doc = scratch2.attach(rt_builder);
    let rt_xml = serialize_document(scratch2.doc(rt_doc), &scratch2.names);
    let runtime_cost = t1.elapsed();

    ProjectionPoint {
        doc_bytes: xml.len(),
        compile_time_bytes: ct_xml.len(),
        runtime_bytes: rt_xml.len(),
        compile_time_cost,
        runtime_cost,
    }
}

/// Human-readable strategy column order used in all printed tables.
pub fn strategy_label(s: Strategy) -> &'static str {
    s.name()
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

    /// One JSON object for the BENCH trajectory (hand-rolled: the workspace
    /// is std-only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"peers\": {}, \"speedup\": {:.3}, \
             \"wall_clock_sequential_us\": {}, \"wall_clock_parallel_us\": {}, \
             \"message_bytes\": {}, \"transfers\": {}, \"remote_calls\": {}, \
             \"results_identical\": {}, \"bytes_identical\": {}}}",
            self.peers,
            self.speedup(),
            self.sequential.wall_clock_serialized().as_micros(),
            self.parallel.wall_clock_overlapped().as_micros(),
            self.parallel.message_bytes,
            self.parallel.transfers,
            self.parallel.remote_calls,
            self.parallel_result == self.sequential_result,
            self.parallel.message_bytes == self.sequential.message_bytes,
        )
    }
}

/// Runs the scale-out query on `peers` peers under the WAN model (where
/// latency dominates and overlap pays), both fanned out and sequential.
pub fn scaleout_point(peers: usize, bytes_per_peer: usize) -> ScaleoutPoint {
    let query = scaleout_query(peers);

    let mut par = scaleout_federation(peers, bytes_per_peer, NetworkModel::wan());
    let par_out = par.run(&query, Strategy::ByValue).expect("parallel run");

    let mut seq = scaleout_federation(peers, bytes_per_peer, NetworkModel::wan());
    seq.set_exec_options(ExecOptions { parallel_scatter: false, bulk_workers: 1, ..ExecOptions::default() });
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

/// The BENCH json trajectory document for a scale-out sweep.
pub fn scaleout_json(points: &[ScaleoutPoint]) -> String {
    let entries: Vec<String> = points.iter().map(|p| format!("    {}", p.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"scaleout\",\n  \"model\": \"wan\",\n  \
         \"query\": \"per-peer person aggregate, one scatter round\",\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
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
/// evaluated with the staircase-join fast path off (`scan`) and on
/// (`indexed`) over the *same* store, so node identities are comparable.
#[derive(Debug, Clone)]
pub struct PathsPoint {
    pub query: &'static str,
    pub doc_bytes: usize,
    pub scan_us: u128,
    pub indexed_us: u128,
    pub results_identical: bool,
}

impl PathsPoint {
    /// Scan time over indexed time (>1 means the index wins).
    pub fn speedup(&self) -> f64 {
        self.scan_us as f64 / (self.indexed_us.max(1)) as f64
    }

    /// One JSON object for the BENCH_paths trajectory (hand-rolled: the
    /// workspace is std-only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"query\": \"{}\", \"doc_bytes\": {}, \"scan_us\": {}, \
             \"indexed_us\": {}, \"speedup\": {:.3}, \"results_identical\": {}}}",
            self.query,
            self.doc_bytes,
            self.scan_us,
            self.indexed_us,
            self.speedup(),
            self.results_identical,
        )
    }
}

/// Runs every [`PATHS_QUERIES`] entry at one document scale, taking the
/// minimum of `iters` timed runs per mode (one untimed warmup run per mode
/// first, so lazy name-index construction is not charged to any iteration).
pub fn paths_points_at(target_bytes: usize, seed: u64, iters: usize) -> Vec<PathsPoint> {
    use xqd_xquery::{eval_query_with_indexes, parse_query};

    let cfg = XmarkConfig::with_target_bytes(target_bytes, seed);
    let xml = people_document(&cfg);
    let doc_bytes = xml.len();
    let mut store = Store::new();
    xqd_xml::parse_document(&mut store, &xml, Some("xmk.xml")).expect("people doc");

    let mut points = Vec::new();
    for &(label, query) in PATHS_QUERIES {
        let module = parse_query(query).expect("paths query parses");
        let mut time_mode = |use_indexes: bool| {
            let warmup = eval_query_with_indexes(&mut store, &module, use_indexes)
                .expect("paths query evaluates");
            let mut best = u128::MAX;
            for _ in 0..iters.max(1) {
                let t = Instant::now();
                let out = eval_query_with_indexes(&mut store, &module, use_indexes)
                    .expect("paths query evaluates");
                best = best.min(t.elapsed().as_micros());
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

/// The BENCH_paths json document for a sweep.
pub fn paths_json(points: &[PathsPoint]) -> String {
    let entries: Vec<String> = points.iter().map(|p| format!("    {}", p.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"paths\",\n  \
         \"query_set\": \"descendant-heavy XMark path steps, indexed vs scan\",\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
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
    /// every call pays parse + decompose + replica resolution + lowering.
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

    /// Tracing overhead as a fraction of the untraced run (0 when the
    /// traced run was not slower).
    pub fn trace_overhead_frac(&self) -> f64 {
        let base = self.compiled_us.max(1) as f64;
        (self.traced_us.saturating_sub(self.compiled_us)) as f64 / base
    }

    /// The CI overhead budget: the traced run stays within 3% of the
    /// untraced run, with a 150µs absolute floor absorbing host timer
    /// noise on the sub-millisecond smoke points.
    pub fn trace_overhead_ok(&self) -> bool {
        let budget = (self.compiled_us * 3 / 100).max(150);
        self.traced_us <= self.compiled_us + budget
    }

    /// One JSON object for the BENCH_plans trajectory (hand-rolled: the
    /// workspace is std-only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"query\": \"{}\", \"off_plans_per_sec\": {:.1}, \
             \"cold_plans_per_sec\": {:.1}, \"warm_plans_per_sec\": {:.1}, \
             \"warm_speedup\": {:.3}, \"compiled_us\": {}, \
             \"traced_us\": {}, \"trace_overhead_ok\": {}, \
             \"results_identical\": {}}}",
            self.query,
            self.off_plans_per_sec,
            self.cold_plans_per_sec,
            self.warm_plans_per_sec,
            self.warm_speedup(),
            self.compiled_us,
            self.traced_us,
            self.trace_overhead_ok(),
            self.results_identical,
        )
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

/// Measures one [`PLANS_QUERIES`] entry at one document scale under
/// `strategy`. The three front-end modes run `iters` `prepare` calls each;
/// latency is the best of `iters.min(5)` full runs per mode.
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

    // latency on the warm federation, parity against the cache-off one
    let lat_iters = iters.clamp(1, 5);
    let mut compiled_us = u128::MAX;
    let mut warm_out = None;
    for _ in 0..lat_iters {
        let t = Instant::now();
        let out = warm.run(query, strategy).expect("warm run");
        compiled_us = compiled_us.min(t.elapsed().as_micros());
        warm_out = Some(out);
    }
    let warm_out = warm_out.expect("at least one run");
    let off_out = off.run(query, strategy).expect("cache-off run");

    // tracing overhead: the same warm federation with span tracing on
    let saved = warm.exec_options();
    warm.set_exec_options(ExecOptions { trace: true, ..saved });
    let mut traced_us = u128::MAX;
    for _ in 0..lat_iters.max(3) {
        let t = Instant::now();
        warm.run(query, strategy).expect("traced run");
        traced_us = traced_us.min(t.elapsed().as_micros());
    }
    warm.set_exec_options(saved);

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

/// The BENCH_plans json document for a sweep.
pub fn plans_json(points: &[PlansPoint], strategy: Strategy) -> String {
    let entries: Vec<String> = points.iter().map(|p| format!("    {}", p.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"plans\",\n  \"strategy\": \"{}\",\n  \
         \"workload\": \"repeated federated queries, plan cache off / cold / warm\",\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        strategy.name(),
        entries.join(",\n")
    )
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

    /// One JSON object for the BENCH_joins trajectory (hand-rolled: the
    /// workspace is std-only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"doc_bytes\": {}, \"total_doc_bytes\": {}, \
             \"baseline_strategy\": \"{}\", \"baseline_bytes\": {}, \
             \"baseline_wall_us\": {}, \
             \"semijoin_strategy\": \"{}\", \"semijoin_bytes\": {}, \
             \"semijoin_wall_us\": {}, \"byte_reduction\": {:.3}, \
             \"semijoins\": {}, \"join_keys_shipped\": {}, \
             \"join_bytes_saved\": {}, \"results_identical\": {}}}",
            self.bytes_per_doc,
            self.total_doc_bytes,
            self.baseline_strategy,
            self.baseline_bytes,
            self.baseline_wall_us,
            self.semijoin_strategy,
            self.semijoin_bytes,
            self.semijoin_wall_us,
            self.reduction(),
            self.semijoins,
            self.join_keys_shipped,
            self.join_bytes_saved,
            self.results_identical,
        )
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

/// The BENCH_joins json document for a sweep.
pub fn joins_json(points: &[JoinsPoint]) -> String {
    let entries: Vec<String> = points.iter().map(|p| format!("    {}", p.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"joins\",\n  \
         \"query\": \"XMark person/auction equi-join, semi-join key shipping vs the strategy ladder\",\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
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
    /// One JSON object for the BENCH_throughput trajectory (hand-rolled:
    /// the workspace is std-only).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"load_factor\": {:.2}, \"offered_qps\": {:.1}, \"goodput_qps\": {:.1}, \
             \"arrivals\": {}, \"completed\": {}, \"shed\": {}, \
             \"deadline_cancelled\": {}, \"errored\": {}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
             \"peak_queue_depth\": {}, \
             \"results_identical\": {}, \"all_errors_typed\": {}}}",
            self.load_factor,
            self.offered_qps,
            self.goodput_qps,
            self.arrivals,
            self.completed,
            self.shed,
            self.deadline_cancelled,
            self.errored,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.peak_queue_depth,
            self.results_identical,
            self.all_errors_typed,
        )
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

/// The BENCH_throughput json document for a sweep. The summary reports the
/// flat-top check: goodput at the highest offered load (≥ 2x capacity in
/// the default sweep) must stay within 10% of the peak — shed, don't
/// thrash.
pub fn throughput_json(points: &[ThroughputPoint]) -> String {
    let peak = points.iter().map(|p| p.goodput_qps).fold(0.0_f64, f64::max);
    let at_max_load = points
        .iter()
        .max_by(|a, b| a.load_factor.total_cmp(&b.load_factor))
        .map(|p| p.goodput_qps)
        .unwrap_or(0.0);
    let flat_top = at_max_load >= peak * 0.9;
    let total_shed: u64 = points.iter().map(|p| p.shed).sum();
    let entries: Vec<String> = points.iter().map(|p| format!("    {}", p.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"throughput\",\n  \
         \"workload\": \"3 tenants (weights 4/1/1), seeded Poisson arrivals, WFQ + admission control\",\n  \
         \"peak_goodput_qps\": {:.1},\n  \
         \"goodput_at_max_load_qps\": {:.1},\n  \
         \"flat_top\": {},\n  \
         \"total_shed\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        peak,
        at_max_load,
        flat_top,
        total_shed,
        entries.join(",\n")
    )
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

    #[test]
    fn scaleout_json_is_well_formed() {
        let points = scaleout(2, 4_000);
        let json = scaleout_json(&points);
        assert!(json.contains("\"bench\": \"scaleout\""));
        assert!(json.contains("\"peers\": 1"));
        assert!(json.contains("\"peers\": 2"));
        assert!(json.contains("\"results_identical\": true"));
        assert!(json.contains("\"bytes_identical\": true"));
    }

    #[test]
    fn paths_results_identical_and_json_well_formed() {
        let points = paths_points_at(20_000, 9, 2);
        assert_eq!(points.len(), PATHS_QUERIES.len());
        for p in &points {
            assert!(p.results_identical, "{}: indexed and scan results differ", p.query);
        }
        let json = paths_json(&points);
        assert!(json.contains("\"bench\": \"paths\""));
        assert!(json.contains("\"results_identical\": true"));
        assert!(!json.contains("\"results_identical\": false"));
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
    fn plans_json_is_well_formed() {
        let points: Vec<PlansPoint> = PLANS_QUERIES[..2]
            .iter()
            .map(|&(label, query)| plans_point(label, query, 4_000, Strategy::ByValue, 3))
            .collect();
        let json = plans_json(&points, Strategy::ByValue);
        assert!(json.contains("\"bench\": \"plans\""));
        assert!(json.contains("\"results_identical\": true"));
        assert!(!json.contains("false"));
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
    fn joins_json_is_well_formed() {
        let points = joins_sweep(&[8_000, 30_000]);
        let json = joins_json(&points);
        assert!(json.contains("\"bench\": \"joins\""));
        assert!(json.contains("\"results_identical\": true"));
        assert!(!json.contains("identical\": false"));
    }

    #[test]
    fn throughput_sheds_past_saturation_with_flat_goodput() {
        let points = throughput_sweep(4_000, &[1.0, 2.0], 150);
        let json = throughput_json(&points);
        assert!(json.contains("\"bench\": \"throughput\""));
        assert!(json.contains("\"flat_top\": true"), "goodput collapsed past saturation:\n{json}");
        assert!(!json.contains("\"results_identical\": false"), "{json}");
        assert!(!json.contains("\"all_errors_typed\": false"), "{json}");
        let at_2x = points.iter().find(|p| p.load_factor == 2.0).unwrap();
        assert!(at_2x.shed > 0, "2x load must trip admission control: {at_2x:?}");
        assert_eq!(
            at_2x.completed + at_2x.shed + at_2x.deadline_cancelled + at_2x.errored,
            at_2x.arrivals,
            "every arrival must be accounted for"
        );
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
    }
}
