//! The coordinator front end: query text → cache key
//! → LRU plan cache → parse · decompose · replica resolution · lowering to
//! plan IR.
//!
//! Every run of the coordinator ([`crate::exec::Federation`]), simulated
//! or over sockets, prepares its query through the one
//! [`FrontEnd::prepare`], so what the two carriers execute can differ only
//! in the attempt and the clock underneath. A warm hit skips the parser,
//! the decomposer and the compiler alike.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xqd_core::replicas::ReplicaCatalog;
use xqd_core::{DecomposeOptions, Strategy};
use xqd_xquery::eval::StaticContext;
use xqd_xquery::value::{EvalError, EvalResult};
use xqd_xquery::parse_query;

use crate::exec::ExecOptions;

/// One cached unit of coordinator front-end work: the decomposition (kept
/// for explain output) plus the compiled plan that executes it.
#[derive(Debug)]
pub struct PreparedQuery {
    pub decomposition: Arc<xqd_core::Decomposition>,
    pub plan: xqd_xquery::Plan,
}

/// Everything besides the query itself that a prepared query is a function
/// of (the catalog generation is the front end's own).
pub(crate) struct Session<'a> {
    pub strategy: Strategy,
    pub decompose: DecomposeOptions,
    pub exec: ExecOptions,
    pub static_ctx: &'a StaticContext,
}

/// Front-end milestones, reported in the order they happen so a
/// coordinator can count and trace them its own way.
pub(crate) enum FrontEndEvent {
    CacheHit,
    CacheMiss,
    /// The query text went through the parser (miss path).
    Parsed { chars: usize },
    /// The query was decomposed and lowered to plan IR (miss path).
    Compiled { remote_calls: usize, semijoins: usize },
}

/// Everything a prepared query is a function of. Two runs whose keys differ
/// in any field can never share a plan — which is exactly the safety
/// argument for replaying a hit: documents are immutable once loaded (the
/// generation covers additions), and the static context, index strategy,
/// decomposition knobs and replica seed are all fingerprinted here.
#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Raw query text, so a warm hit skips the parser too; equivalent
    /// spellings may occupy two entries.
    query: String,
    strategy: Strategy,
    let_motion: bool,
    code_motion: bool,
    /// The *effective* toggle (decompose-level OR exec-level): flipping
    /// `--no-semijoin` must never replay a semi-join plan from the cache.
    semijoin: bool,
    use_indexes: bool,
    replica_seed: u64,
    catalog_gen: u64,
    /// `\u{1}`-joined static-context fields.
    static_fingerprint: String,
}

/// LRU cache of prepared queries: a map plus a monotonic access tick.
/// Eviction scans for the smallest tick — O(capacity), fine for the
/// double-digit capacities a coordinator holds.
#[derive(Default)]
struct PlanCache {
    tick: u64,
    entries: HashMap<PlanKey, (u64, Arc<PreparedQuery>)>,
}

impl PlanCache {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn get(&mut self, cap: usize, key: &PlanKey) -> Option<Arc<PreparedQuery>> {
        if cap == 0 {
            return None;
        }
        let tick = self.touch();
        self.entries.get_mut(key).map(|e| {
            e.0 = tick;
            Arc::clone(&e.1)
        })
    }

    fn insert(&mut self, cap: usize, key: PlanKey, prepared: Arc<PreparedQuery>) {
        if cap == 0 {
            return;
        }
        while self.entries.len() >= cap && !self.entries.contains_key(&key) {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&oldest);
        }
        let tick = self.touch();
        self.entries.insert(key, (tick, prepared));
    }
}

/// The plan cache plus the topology generation its keys are stamped with.
#[derive(Default)]
pub(crate) struct FrontEnd {
    plans: Mutex<PlanCache>,
    /// Bumped whenever a peer, document or replica placement is added, so
    /// plans whose replica resolution was baked against the old topology
    /// miss the cache instead of being replayed.
    catalog_gen: AtomicU64,
}

impl FrontEnd {
    /// Records a topology change (see [`FrontEnd::catalog_gen`]).
    pub(crate) fn topology_changed(&self) {
        self.catalog_gen.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of prepared queries currently cached.
    pub(crate) fn len(&self) -> usize {
        self.plans.lock().unwrap().entries.len()
    }

    /// Drops every cached plan.
    pub(crate) fn clear(&self) {
        let mut plans = self.plans.lock().unwrap();
        plans.entries.clear();
        plans.tick = 0;
    }

    /// Looks `query` up in the plan cache and, on a miss, runs the slow
    /// path — parse, decompose, annotate each remote call with its replica
    /// candidates (explain output; the executor re-derives the same order
    /// per ladder), lower to plan IR — and caches the result.
    pub(crate) fn prepare(
        &self,
        query: &str,
        session: &Session<'_>,
        catalog: &Mutex<ReplicaCatalog>,
        observe: &mut dyn FnMut(FrontEndEvent),
    ) -> EvalResult<Arc<PreparedQuery>> {
        let Session { strategy, decompose, exec, static_ctx } = session;
        let mut decompose = *decompose;
        decompose.semijoin = decompose.semijoin || exec.semijoin;
        let key = PlanKey {
            query: query.to_string(),
            strategy: *strategy,
            let_motion: decompose.let_motion,
            code_motion: decompose.code_motion,
            semijoin: decompose.semijoin,
            use_indexes: exec.use_indexes,
            replica_seed: exec.replica_seed,
            catalog_gen: self.catalog_gen.load(Ordering::Relaxed),
            static_fingerprint: format!(
                "{}\u{1}{}\u{1}{}",
                static_ctx.base_uri, static_ctx.default_collation, static_ctx.current_datetime
            ),
        };
        if let Some(hit) = self.plans.lock().unwrap().get(exec.plan_cache_size, &key) {
            observe(FrontEndEvent::CacheHit);
            return Ok(hit);
        }
        observe(FrontEndEvent::CacheMiss);

        let module =
            parse_query(query).map_err(|e| EvalError::new(format!("parse error: {e}")))?;
        observe(FrontEndEvent::Parsed { chars: query.len() });
        let mut decomposition = xqd_core::decompose_with(&module, *strategy, decompose)?;
        decomposition.resolve_replicas(&catalog.lock().unwrap(), exec.replica_seed);
        // the decomposer inlined user functions; the body is the whole query
        let plan = xqd_xquery::compile_module(
            &[],
            &decomposition.rewritten,
            exec.use_indexes,
            static_ctx,
        );
        observe(FrontEndEvent::Compiled {
            remote_calls: decomposition.calls.len(),
            semijoins: decomposition.semijoins.len(),
        });
        let prepared =
            Arc::new(PreparedQuery { decomposition: Arc::new(decomposition), plan });
        self.plans.lock().unwrap().insert(exec.plan_cache_size, key, Arc::clone(&prepared));
        Ok(prepared)
    }
}
