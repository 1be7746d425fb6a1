//! Tree-walking evaluator for normalized XCore expressions — the **local
//! reference semantics** the test suites compare the plan engine
//! ([`crate::compile`]) and the distributed executor against.
//!
//! The tree-walker never touches a transport: `Execute` nodes are an error
//! here, and only compiled plans drive the [`RemoteHandler`] hook that
//! `xqd-xrpc` implements with the three message passing semantics. Non-local
//! `fn:doc` URIs go through the [`DocResolver`] hook. Everything else — node
//! identity, document order, duplicate elimination, constructor copy
//! semantics — is evaluated against the local [`Store`], which is exactly
//! what makes the paper's semantic Problems 1–5 reproducible: a shipped
//! fragment is just another document in the receiving store.

use xqd_xml::axes::{axis_nodes, node_test_matches, NodeTest};
use xqd_xml::{index, Axis, DocBuilder, DocId, NodeId, NodeKind, Store};

use crate::ast::*;
use crate::builtins;
use crate::value::*;

/// Static context attributes shipped in XRPC message headers (Problem 5
/// class 1: `static-base-uri`, `default-collation`, `current-dateTime`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticContext {
    pub base_uri: String,
    pub default_collation: String,
    pub current_datetime: String,
}

impl Default for StaticContext {
    fn default() -> Self {
        StaticContext {
            base_uri: "local:/".to_string(),
            default_collation: "http://www.w3.org/2005/xpath-functions/collation/codepoint"
                .to_string(),
            // fixed for reproducibility; XRPC ships it so both sides agree
            current_datetime: "2009-03-29T12:00:00Z".to_string(),
        }
    }
}

/// Resolves `fn:doc` URIs to documents, loading/fetching if necessary.
pub trait DocResolver {
    fn resolve(&mut self, store: &mut Store, uri: &str) -> EvalResult<DocId>;
}

/// Resolver that only finds documents already in the store.
#[derive(Debug, Default)]
pub struct LocalResolver;

impl DocResolver for LocalResolver {
    fn resolve(&mut self, store: &mut Store, uri: &str) -> EvalResult<DocId> {
        store
            .doc_by_uri(uri)
            .ok_or_else(|| EvalError::new(format!("document not found: {uri}")))
    }
}

/// One pre-bound remote call of a scatter round. Every parameter sequence
/// is already evaluated, so a handler can encode all requests up front and
/// fan the execute phase out across peers concurrently.
pub struct ScatterCall<'a> {
    pub peer: String,
    pub params: Vec<(String, Sequence)>,
    pub body: &'a Expr,
    pub projection: Option<&'a ExecProjection>,
}

/// Executes an `Execute` (XRPCExpr) remotely and shreds the response into
/// the local store.
pub trait RemoteHandler {
    #[allow(clippy::too_many_arguments)]
    fn execute(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        params: &[(String, Sequence)],
        body: &Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<Sequence>;

    /// **Bulk RPC**: executes the same body once per parameter binding in a
    /// single network interaction. The plan engine batches a remote call
    /// nested directly in a `for`-loop through this method; under
    /// pass-by-fragment all iterations then share one fragments preamble,
    /// which is what lets Section V drop `ForExpr` from condition iii.
    ///
    /// The default implementation degrades to one interaction per call.
    #[allow(clippy::too_many_arguments)]
    fn execute_bulk(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        peer: &str,
        calls: &[Vec<(String, Sequence)>],
        body: &Expr,
        projection: Option<&ExecProjection>,
    ) -> EvalResult<Vec<Sequence>> {
        calls
            .iter()
            .map(|params| self.execute(local, static_ctx, peer, params, body, projection))
            .collect()
    }

    /// **Scatter-gather**: executes one round of calls aimed at (usually
    /// distinct) peers. The plan engine only batches calls whose parameters
    /// are independent of each other's results, so a handler may run them
    /// concurrently — but it must gather results in call order and stay
    /// observably identical to executing the calls one by one.
    ///
    /// The default implementation degrades to the sequential loop.
    fn execute_scatter(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        calls: &[ScatterCall<'_>],
    ) -> EvalResult<Vec<Sequence>> {
        calls
            .iter()
            .map(|c| self.execute(local, static_ctx, &c.peer, &c.params, c.body, c.projection))
            .collect()
    }
}

pub(crate) const MAX_CALL_DEPTH: usize = 128;

/// The evaluator. Owns no data; borrows the store and hooks.
///
/// The `pub(crate)` fields are shared with the compiled-plan engine
/// ([`crate::compile`]), which drives the same environment, context stack
/// and scratch buffers so the two engines cannot diverge in their
/// book-keeping.
pub struct Evaluator<'a> {
    pub store: &'a mut Store,
    pub functions: &'a [FunctionDef],
    pub resolver: &'a mut dyn DocResolver,
    pub remote: Option<&'a mut dyn RemoteHandler>,
    pub static_ctx: StaticContext,
    pub(crate) env: Vec<(String, Sequence)>,
    pub(crate) context: Vec<Item>,
    pub(crate) call_depth: usize,
    /// Answer eligible axis steps from the per-document name indexes
    /// (staircase join) instead of arena scans. Results are bit-identical
    /// either way; the toggle exists so equivalence tests and the `paths`
    /// bench can compare the two engines.
    pub(crate) use_indexes: bool,
    /// Scratch rank buffer reused across `axis_nodes` / staircase calls so
    /// path evaluation doesn't allocate a fresh `Vec` per step.
    pub(crate) scratch: Vec<u32>,
    /// Per-op profiling hook for the compiled engine (`EXPLAIN ANALYZE`);
    /// `None` on ordinary runs, leaving only a branch on the dispatch path.
    pub(crate) profile: Option<crate::compile::ProfileHook>,
}

impl<'a> Evaluator<'a> {
    pub fn new(
        store: &'a mut Store,
        functions: &'a [FunctionDef],
        resolver: &'a mut dyn DocResolver,
    ) -> Self {
        Evaluator {
            store,
            functions,
            resolver,
            remote: None,
            static_ctx: StaticContext::default(),
            env: Vec::new(),
            context: Vec::new(),
            call_depth: 0,
            use_indexes: true,
            scratch: Vec::new(),
            profile: None,
        }
    }

    /// Attaches the transport that compiled plans ([`crate::Plan::eval`])
    /// send their `Execute` ops through; the tree-walker never uses it.
    pub fn with_remote(mut self, remote: &'a mut dyn RemoteHandler) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Enables or disables the indexed path-step engine (on by default).
    pub fn with_indexes(mut self, on: bool) -> Self {
        self.use_indexes = on;
        self
    }

    pub fn with_static_context(mut self, ctx: StaticContext) -> Self {
        self.static_ctx = ctx;
        self
    }

    /// Attaches a per-op execution profile (compiled-plan runs only — the
    /// interpreter has no ops to attribute to).
    pub fn with_profile(mut self, hook: crate::compile::ProfileHook) -> Self {
        self.profile = Some(hook);
        self
    }

    /// Pre-binds a variable (used for shipped XRPC parameters).
    pub fn bind(&mut self, name: &str, value: Sequence) {
        self.env.push((name.to_string(), value));
    }

    /// The innermost visible binding of `$name`, if any.
    pub(crate) fn binding(&self, name: &str) -> Option<&Sequence> {
        self.env.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    pub(crate) fn lookup(&self, name: &str) -> EvalResult<Sequence> {
        self.binding(name)
            .cloned()
            .ok_or_else(|| EvalError::new(format!("unbound variable ${name}")))
    }

    pub(crate) fn context_item(&self) -> EvalResult<Item> {
        self.context
            .last()
            .cloned()
            .ok_or_else(|| EvalError::new("context item is undefined"))
    }

    /// Evaluates an expression to a sequence.
    pub fn eval(&mut self, e: &Expr) -> EvalResult {
        match e {
            Expr::Literal(a) => Ok(Sequence::unit(Item::Atom(a.clone()))),
            Expr::Empty => Ok(Sequence::new()),
            Expr::Sequence(es) => {
                let mut out = Vec::new();
                for e in es {
                    out.extend(self.eval(e)?);
                }
                Ok(out.into())
            }
            Expr::VarRef(v) => self.lookup(v),
            Expr::ContextItem => Ok(Sequence::unit(self.context_item()?)),
            Expr::For { var, seq, ret } => {
                let input = self.eval(seq)?;
                let mut out = Vec::new();
                for item in input.iter() {
                    self.env.push((var.clone(), Sequence::unit(item.clone())));
                    let r = self.eval(ret);
                    self.env.pop();
                    out.extend(r?);
                }
                Ok(out.into())
            }
            Expr::Let { var, value, ret } => {
                let v = self.eval(value)?;
                self.env.push((var.clone(), v));
                let r = self.eval(ret);
                self.env.pop();
                r
            }
            Expr::If { cond, then, els } => {
                let c = self.eval(cond)?;
                if effective_boolean_value(&c)? {
                    self.eval(then)
                } else {
                    self.eval(els)
                }
            }
            Expr::Typeswitch { input, cases, default_var, default } => {
                let v = self.eval(input)?;
                for case in cases {
                    if matches_seq_type(self.store, &v, &case.seq_type) {
                        self.env.push((case.var.clone(), v));
                        let r = self.eval(&case.body);
                        self.env.pop();
                        return r;
                    }
                }
                self.env.push((default_var.clone(), v));
                let r = self.eval(default);
                self.env.pop();
                r
            }
            Expr::Comparison { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
                let b = general_compare(self.store, *op, &l, &r)?;
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(b))))
            }
            Expr::NodeComparison { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::new());
                }
                let ln = single_node(&l, "node comparison")?;
                let rn = single_node(&r, "node comparison")?;
                let b = match op {
                    NodeCompOp::Is => ln == rn,
                    NodeCompOp::Before => ln < rn,
                    NodeCompOp::After => ln > rn,
                };
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(b))))
            }
            Expr::OrderBy { input, specs } => self.eval_order_by(input, specs),
            Expr::NodeSet { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
                let (mut l, mut r) = (l.into_vec(), r.into_vec());
                sort_document_order(&mut l)?;
                sort_document_order(&mut r)?;
                let rset: std::collections::HashSet<NodeId> = r
                    .iter()
                    .map(|i| match i {
                        Item::Node(n) => *n,
                        Item::Atom(_) => unreachable!(),
                    })
                    .collect();
                let mut out = Vec::new();
                match op {
                    NodeSetOp::Union => {
                        out = l;
                        out.extend(r);
                        sort_document_order(&mut out)?;
                    }
                    NodeSetOp::Intersect => {
                        for i in l {
                            if matches!(&i, Item::Node(n) if rset.contains(n)) {
                                out.push(i);
                            }
                        }
                    }
                    NodeSetOp::Except => {
                        for i in l {
                            if matches!(&i, Item::Node(n) if !rset.contains(n)) {
                                out.push(i);
                            }
                        }
                    }
                }
                Ok(out.into())
            }
            Expr::Construct(c) => self.eval_constructor(c),
            Expr::Path { start, steps } => self.eval_path(start.as_deref(), steps),
            Expr::Filter { input, predicate } => {
                let input = self.eval(input)?;
                Ok(self.apply_predicate(&input, predicate)?.into())
            }
            Expr::FunCall { name, args } => self.eval_funcall(name, args),
            Expr::And(l, r) => {
                let lv = self.eval(l)?;
                if !effective_boolean_value(&lv)? {
                    return Ok(Sequence::unit(Item::Atom(Atomic::Bool(false))));
                }
                let rv = self.eval(r)?;
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(effective_boolean_value(&rv)?))))
            }
            Expr::Or(l, r) => {
                let lv = self.eval(l)?;
                if effective_boolean_value(&lv)? {
                    return Ok(Sequence::unit(Item::Atom(Atomic::Bool(true))));
                }
                let rv = self.eval(r)?;
                Ok(Sequence::unit(Item::Atom(Atomic::Bool(effective_boolean_value(&rv)?))))
            }
            Expr::Arith { op, lhs, rhs } => {
                let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
                if l.is_empty() || r.is_empty() {
                    return Ok(Sequence::new());
                }
                let la = atomize(self.store, &l);
                let ra = atomize(self.store, &r);
                if la.len() != 1 || ra.len() != 1 {
                    return Err(EvalError::new("arithmetic on a multi-item sequence"));
                }
                let a = to_number(&la[0])
                    .ok_or_else(|| EvalError::new("left operand is not numeric"))?;
                let b = to_number(&ra[0])
                    .ok_or_else(|| EvalError::new("right operand is not numeric"))?;
                let result = match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => {
                        if b == 0.0 {
                            return Err(EvalError::new("division by zero"));
                        }
                        a / b
                    }
                    ArithOp::Mod => {
                        if b == 0.0 {
                            return Err(EvalError::new("modulo by zero"));
                        }
                        a % b
                    }
                };
                // integer-preserving when both inputs were integers
                let int_inputs = matches!(
                    (&la[0], &ra[0]),
                    (Atomic::Int(_), Atomic::Int(_))
                ) && *op != ArithOp::Div;
                Ok(Sequence::unit(Item::Atom(if int_inputs && result.fract() == 0.0 {
                    Atomic::Int(result as i64)
                } else {
                    Atomic::Dbl(result)
                })))
            }
            Expr::Execute { .. } => Err(EvalError::new(
                "execute at: no remote handler configured (local-only evaluator)",
            )),
        }
    }

    fn eval_order_by(&mut self, input: &Expr, specs: &[OrderSpec]) -> EvalResult {
        let items = self.eval(input)?;
        // evaluate keys with each item as context item
        let mut keyed: Vec<(Vec<Option<Atomic>>, usize, Item)> = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            let mut keys = Vec::with_capacity(specs.len());
            self.context.push(item.clone());
            for spec in specs {
                let k = self.eval(&spec.key);
                match k {
                    Ok(seq) => {
                        let atoms = atomize(self.store, &seq);
                        keys.push(atoms.into_iter().next());
                    }
                    Err(e) => {
                        self.context.pop();
                        return Err(e);
                    }
                }
            }
            self.context.pop();
            keyed.push((keys, i, item));
        }
        keyed.sort_by(|(ka, ia, _), (kb, ib, _)| {
            for (idx, spec) in specs.iter().enumerate() {
                let ord = compare_order_keys(&ka[idx], &kb[idx]);
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            ia.cmp(ib) // stable
        });
        Ok(keyed.into_iter().map(|(_, _, item)| item).collect())
    }

    fn eval_path(&mut self, start: Option<&Expr>, steps: &[Step]) -> EvalResult {
        let mut current: Sequence = match start {
            Some(e) => self.eval(e)?,
            None => {
                // leading "/": root of the context item's document
                let ctx = self.context_item()?;
                match ctx {
                    Item::Node(n) => Sequence::unit(Item::Node(NodeId::new(n.doc, 0))),
                    Item::Atom(_) => {
                        return Err(EvalError::new("leading / requires a node context item"))
                    }
                }
            }
        };
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            // `descendant-or-self::node()/child::n` (the expansion of `//n`)
            // is equivalent to `descendant::n` — both exclude attributes —
            // so the pair collapses into a single staircase lookup.
            if self.use_indexes
                && step.axis == Axis::DescendantOrSelf
                && matches!(step.test, NameTest::AnyKind)
                && step.predicates.is_empty()
            {
                if let Some(next) = steps.get(i + 1) {
                    if next.axis == Axis::Child
                        && matches!(next.test, NameTest::Name(_))
                        && next.predicates.is_empty()
                    {
                        let NameTest::Name(name) = &next.test else { unreachable!() };
                        if let Some(fast) =
                            self.indexed_named_step(&current, Axis::Descendant, name)?
                        {
                            current = fast;
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            if let Some(fast) = self.indexed_step(&current, step)? {
                current = fast;
                i += 1;
                continue;
            }
            let mut result: Vec<Item> = Vec::new();
            for item in current.iter() {
                let node = match item {
                    Item::Node(n) => *n,
                    Item::Atom(_) => {
                        return Err(EvalError::new("axis step applied to an atomic value"))
                    }
                };
                let candidates = self.step_candidates(node, step)?;
                result.extend(candidates);
            }
            sort_document_order(&mut result)?;
            current = result.into();
            i += 1;
        }
        Ok(current)
    }

    /// Whole-step indexed evaluation when the step is an eligible
    /// `(axis, name)` pair without predicates. Returns `Ok(None)` when the
    /// step must take the scan path.
    fn indexed_step(&mut self, current: &Sequence, step: &Step) -> EvalResult<Option<Sequence>> {
        if !self.use_indexes
            || !step.predicates.is_empty()
            || !matches!(
                step.axis,
                Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute
            )
        {
            return Ok(None);
        }
        let NameTest::Name(name) = &step.test else {
            return Ok(None);
        };
        self.indexed_named_step(current, step.axis, name)
    }

    /// Answers `axis::name` over the whole context sequence from the
    /// per-document name indexes. Contexts are grouped by document, sorted
    /// and deduplicated, then resolved with staircase interval lookups; the
    /// final cross-document `sort_document_order` matches the scan path's
    /// post-step normalization exactly.
    pub(crate) fn indexed_named_step(
        &mut self,
        current: &Sequence,
        axis: Axis,
        name: &str,
    ) -> EvalResult<Option<Sequence>> {
        // Same error the scan path raises on the first atomic context item.
        if current.iter().any(|i| matches!(i, Item::Atom(_))) {
            return Err(EvalError::new("axis step applied to an atomic value"));
        }
        let Some(name_id) = self.store.names.get(name) else {
            // QName not interned in this store: matches nothing (scan path
            // reaches the same result via `NodeTest::UnknownName`).
            return Ok(Some(Sequence::new()));
        };
        self.staircase_named(current, axis, name_id).map(Some)
    }

    /// The staircase lookup proper, after the context has been checked for
    /// atomics and the QName resolved to an interned id. Compiled plans call
    /// this directly with their pre-resolved [`xqd_xml::name::NameId`]s.
    pub(crate) fn staircase_named(
        &mut self,
        current: &Sequence,
        axis: Axis,
        name_id: xqd_xml::name::NameId,
    ) -> EvalResult<Sequence> {
        if let [Item::Node(n)] = current.as_slice() {
            // one context: each kernel's output is already in document
            // order and duplicate-free, so there is nothing to bucket or sort
            let mut ranks = std::mem::take(&mut self.scratch);
            ranks.clear();
            self.staircase_in_doc(n.doc, &[n.idx], axis, name_id, &mut ranks);
            let out = ranks.iter().map(|&r| Item::Node(NodeId::new(n.doc, r))).collect();
            ranks.clear();
            self.scratch = ranks;
            return Ok(out);
        }
        let mut by_doc: Vec<(DocId, Vec<u32>)> = Vec::new();
        for item in current.iter() {
            let Item::Node(n) = item else { unreachable!() };
            match by_doc.iter_mut().find(|(d, _)| *d == n.doc) {
                Some((_, ranks)) => ranks.push(n.idx),
                None => by_doc.push((n.doc, vec![n.idx])),
            }
        }
        let mut out: Vec<Item> = Vec::new();
        let mut ranks = std::mem::take(&mut self.scratch);
        for (doc_id, mut ctxs) in by_doc {
            ctxs.sort_unstable();
            ctxs.dedup();
            ranks.clear();
            self.staircase_in_doc(doc_id, &ctxs, axis, name_id, &mut ranks);
            out.extend(ranks.iter().map(|&r| Item::Node(NodeId::new(doc_id, r))));
        }
        ranks.clear();
        self.scratch = ranks;
        sort_document_order(&mut out)?;
        Ok(out.into())
    }

    /// Runs the index kernel of `axis` over the sorted, duplicate-free
    /// contexts `ctxs` of one document, appending ranks to `ranks`.
    fn staircase_in_doc(
        &mut self,
        doc_id: DocId,
        ctxs: &[u32],
        axis: Axis,
        name_id: xqd_xml::name::NameId,
        ranks: &mut Vec<u32>,
    ) {
        self.store.ensure_name_index(doc_id);
        let doc = self.store.doc(doc_id);
        let ix = doc.name_index().expect("ensure_name_index just built it");
        match axis {
            Axis::Descendant => index::descendants_named(doc, ix, ctxs, name_id, false, ranks),
            Axis::DescendantOrSelf => index::descendants_named(doc, ix, ctxs, name_id, true, ranks),
            Axis::Child => index::children_named(doc, ix, ctxs, name_id, ranks),
            Axis::Attribute => index::attributes_named(doc, ix, ctxs, name_id, ranks),
            _ => unreachable!("indexed_step gates the axis"),
        }
    }

    /// Applies one step (axis + test + predicates) to one context node.
    fn step_candidates(&mut self, node: NodeId, step: &Step) -> EvalResult<Vec<Item>> {
        let test = {
            let names = &self.store.names;
            match &step.test {
                NameTest::Name(n) => {
                    names.get(n).map(NodeTest::Name).unwrap_or(NodeTest::UnknownName)
                }
                NameTest::Wildcard => NodeTest::Wildcard,
                NameTest::AnyKind => NodeTest::AnyKind,
                NameTest::Text => NodeTest::Text,
                NameTest::Comment => NodeTest::Comment,
            }
        };
        let mut raw = Vec::new();
        let mut reached = std::mem::take(&mut self.scratch);
        reached.clear();
        {
            let doc = self.store.doc(node.doc);
            axis_nodes(doc, node.idx, step.axis, &mut reached);
            for &r in &reached {
                if node_test_matches(doc, r, step.axis, &test) {
                    raw.push(Item::Node(NodeId::new(node.doc, r)));
                }
            }
        }
        reached.clear();
        self.scratch = reached;
        let mut filtered = raw;
        for pred in &step.predicates {
            filtered = self.apply_predicate(&filtered, pred)?;
        }
        Ok(filtered)
    }

    /// XPath predicate semantics: a numeric predicate selects by position
    /// (1-based, in the order of the input sequence); anything else filters
    /// by effective boolean value with the item as context item.
    fn apply_predicate(&mut self, input: &[Item], pred: &Expr) -> EvalResult<Vec<Item>> {
        let mut out = Vec::new();
        for (i, item) in input.iter().enumerate() {
            self.context.push(item.clone());
            let v = self.eval(pred);
            self.context.pop();
            let v = v?;
            let keep = match v.as_slice() {
                [Item::Atom(a @ (Atomic::Int(_) | Atomic::Dbl(_)))] => {
                    let pos = to_number(a).unwrap();
                    (i + 1) as f64 == pos
                }
                _ => effective_boolean_value(&v)?,
            };
            if keep {
                out.push(item.clone());
            }
        }
        Ok(out)
    }

    fn eval_funcall(&mut self, name: &str, args: &[Expr]) -> EvalResult {
        // builtins first
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval(a)?);
        }
        if let Some(result) = builtins::eval_builtin(self, name, &arg_values)? {
            return Ok(result);
        }
        // user-defined function
        let func = self
            .functions
            .iter()
            .find(|f| f.name == name)
            .cloned()
            .ok_or_else(|| EvalError::new(format!("unknown function {name}()")))?;
        if func.params.len() != arg_values.len() {
            return Err(EvalError::new(format!(
                "{name}() expects {} arguments, got {}",
                func.params.len(),
                arg_values.len()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(EvalError::new(format!("call depth exceeded in {name}()")));
        }
        // function bodies see only their parameters (fresh scope)
        let saved_env = std::mem::take(&mut self.env);
        let saved_ctx = std::mem::take(&mut self.context);
        for ((p, _), v) in func.params.iter().zip(arg_values) {
            self.env.push((p.clone(), v));
        }
        self.call_depth += 1;
        let result = self.eval(&func.body);
        self.call_depth -= 1;
        self.env = saved_env;
        self.context = saved_ctx;
        result
    }

    fn eval_constructor(&mut self, c: &Constructor) -> EvalResult {
        match c {
            Constructor::Element { name, content } => {
                let name = self.constructor_name(name)?;
                let content = self.eval(content)?;
                let mut b = DocBuilder::new(None);
                b.start_element(&name);
                self.append_content(&mut b, &content)?;
                b.end_element();
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 1))))
            }
            Constructor::Document { content } => {
                let content = self.eval(content)?;
                let mut b = DocBuilder::new(None);
                self.append_content(&mut b, &content)?;
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 0))))
            }
            Constructor::Text { content } => {
                let content = self.eval(content)?;
                if content.is_empty() {
                    return Ok(Sequence::new());
                }
                let text = content
                    .iter()
                    .map(|i| string_value(self.store, i))
                    .collect::<Vec<_>>()
                    .join(" ");
                let mut b = DocBuilder::new(None);
                b.text(&text);
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 1))))
            }
            Constructor::Attribute { name, content } => {
                let name = self.constructor_name(name)?;
                let content = self.eval(content)?;
                let value = content
                    .iter()
                    .map(|i| string_value(self.store, i))
                    .collect::<Vec<_>>()
                    .join(" ");
                // standalone attribute nodes live under a holder element
                let mut b = DocBuilder::new(None);
                b.start_element("attribute-holder");
                b.attribute(&name, &value);
                b.end_element();
                let doc = self.store.attach(b.finish());
                Ok(Sequence::unit(Item::Node(NodeId::new(doc, 2))))
            }
        }
    }

    fn constructor_name(&mut self, name: &ElemName) -> EvalResult<String> {
        match name {
            ElemName::Static(n) => Ok(n.clone()),
            ElemName::Computed(e) => {
                let v = self.eval(e)?;
                match v.as_slice() {
                    [item] => Ok(string_value(self.store, item)),
                    _ => Err(EvalError::new("computed constructor name must be a single item")),
                }
            }
        }
    }

    /// XQuery content semantics: attribute items first (become attributes of
    /// the enclosing element), nodes are deep-copied, adjacent atomics join
    /// with single spaces into one text node.
    pub(crate) fn append_content(&mut self, b: &mut DocBuilder, content: &[Item]) -> EvalResult<()> {
        let mut pending_text: Option<String> = None;
        let mut seen_child = false;
        for item in content {
            match item {
                Item::Atom(a) => {
                    let lex = a.to_lexical();
                    match &mut pending_text {
                        Some(t) => {
                            t.push(' ');
                            t.push_str(&lex);
                        }
                        None => pending_text = Some(lex),
                    }
                }
                Item::Node(n) => {
                    let is_attr =
                        self.store.doc(n.doc).kind(n.idx) == NodeKind::Attribute;
                    if is_attr {
                        if seen_child || pending_text.is_some() {
                            return Err(EvalError::new(
                                "attribute node after non-attribute content (err:XQTY0024)",
                            ));
                        }
                        let doc = self.store.doc(n.doc);
                        b.copy_subtree(doc, &self.store.names, n.idx);
                        continue;
                    }
                    if let Some(t) = pending_text.take() {
                        b.text(&t);
                    }
                    seen_child = true;
                    let doc = self.store.doc(n.doc);
                    b.copy_subtree(doc, &self.store.names, n.idx);
                }
            }
        }
        if let Some(t) = pending_text {
            b.text(&t);
        }
        Ok(())
    }
}

pub(crate) fn single_node(seq: &[Item], what: &str) -> EvalResult<NodeId> {
    match seq {
        [Item::Node(n)] => Ok(*n),
        _ => Err(EvalError::new(format!("{what} requires a single node operand"))),
    }
}

pub(crate) fn compare_order_keys(a: &Option<Atomic>, b: &Option<Atomic>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less, // empty least
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            // numeric if both castable, else string
            if let (Some(nx), Some(ny)) = (to_number(x), to_number(y)) {
                nx.partial_cmp(&ny).unwrap_or(Ordering::Equal)
            } else {
                x.to_lexical().cmp(&y.to_lexical())
            }
        }
    }
}

/// Does `seq` match the sequence type? (typeswitch dispatch).
pub fn matches_seq_type(store: &Store, seq: &[Item], t: &SeqType) -> bool {
    if t.item == ItemType::EmptySequence {
        return seq.is_empty();
    }
    let len_ok = match t.occurrence {
        Occurrence::One => seq.len() == 1,
        Occurrence::Optional => seq.len() <= 1,
        Occurrence::ZeroOrMore => true,
        Occurrence::OneOrMore => !seq.is_empty(),
    };
    if !len_ok {
        return false;
    }
    seq.iter().all(|item| matches_item_type(store, item, &t.item))
}

fn matches_item_type(store: &Store, item: &Item, t: &ItemType) -> bool {
    match (t, item) {
        (ItemType::AnyItem, _) => true,
        (ItemType::AnyNode, Item::Node(_)) => true,
        (ItemType::Element(name), Item::Node(n)) => {
            let doc = store.doc(n.doc);
            doc.kind(n.idx) == NodeKind::Element
                && name
                    .as_ref()
                    .map(|nm| store.names.resolve(doc.name(n.idx)) == nm)
                    .unwrap_or(true)
        }
        (ItemType::Attribute(name), Item::Node(n)) => {
            let doc = store.doc(n.doc);
            doc.kind(n.idx) == NodeKind::Attribute
                && name
                    .as_ref()
                    .map(|nm| store.names.resolve(doc.name(n.idx)) == nm)
                    .unwrap_or(true)
        }
        (ItemType::TextNode, Item::Node(n)) => store.doc(n.doc).kind(n.idx) == NodeKind::Text,
        (ItemType::DocumentNode, Item::Node(n)) => {
            store.doc(n.doc).kind(n.idx) == NodeKind::Document
        }
        (ItemType::AtomicStr, Item::Atom(Atomic::Str(_))) => true,
        (ItemType::AtomicInt, Item::Atom(Atomic::Int(_))) => true,
        (ItemType::AtomicDbl, Item::Atom(Atomic::Dbl(_))) => true,
        (ItemType::AtomicBool, Item::Atom(Atomic::Bool(_))) => true,
        (ItemType::AtomicUntyped, Item::Atom(Atomic::Untyped(_))) => true,
        _ => false,
    }
}

/// Evaluates a whole module against a store with local-only resolution.
/// The main entry point for single-peer ("local execution") semantics.
pub fn eval_query(store: &mut Store, module: &QueryModule) -> EvalResult {
    eval_query_with_indexes(store, module, true)
}

/// [`eval_query`] with the indexed path-step engine explicitly toggled —
/// the hook the equivalence tests and the `paths` bench compare through.
pub fn eval_query_with_indexes(
    store: &mut Store,
    module: &QueryModule,
    use_indexes: bool,
) -> EvalResult {
    let mut resolver = LocalResolver;
    let mut ev =
        Evaluator::new(store, &module.functions, &mut resolver).with_indexes(use_indexes);
    ev.eval(&module.body)
}
