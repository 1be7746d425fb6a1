//! AST → flat plan IR compiler and the compiled-plan evaluator.
//!
//! The plan IR is the one engine that executes queries outside tests —
//! coordinators, peers, [`crate::eval_query`] and the constant folder alike
//! — and the only one that ever drives a [`crate::eval::RemoteHandler`].
//! This module lowers a (normalized or surface) module once into a flat
//! arena of [`Op`]s — children are `u32` operand indices instead of
//! `Box`es — with these decisions baked in:
//!
//! * names interned into a plan-local symbol table, resolved to the
//!   executing store's [`xqd_xml::NameId`]s through a per-run [`NameCache`]
//!   (hits cached forever — interned ids are immutable; misses re-probed
//!   because constructors can intern names mid-run),
//! * indexed-vs-scan selection per axis step, including the
//!   `descendant-or-self::node()/child::n` fusion for `//n`,
//! * constant subexpressions pre-evaluated by compiling them without
//!   folding and running that plan (only when they evaluate cleanly: a
//!   subexpression that would raise a dynamic error is lowered unfolded so
//!   the error surfaces at run time, with the same message),
//! * the scatter-round / Bulk-RPC shapes detected once, here, and recorded
//!   per op (the shape detectors live in this module),
//! * the comparison operands whose value depends only on their free
//!   variables' bindings recorded ([`MemoOperand`]), so a value join probes
//!   a per-run table instead of re-evaluating and nested-looping its
//!   loop-invariant side.
//!
//! The engine runs on the [`Evaluator`] state and calls the operator bodies
//! of [`crate::eval`] — arithmetic, constructors, `order by`, predicates,
//! function calls, the axis scan — which the scan-only reference walker
//! ([`crate::reference_eval`]) calls too. What the two engines do not share
//! is what this module adds: index use, folding, memo probes, the
//! scatter / bulk shapes and name caching. On local (`Execute`-free)
//! queries `Plan::eval` is bit-identical to the reference, results and
//! errors both, which the unit tests below and the differential suites in
//! the workspace root assert.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xqd_xml::axes::NodeTest;
use xqd_xml::{index, Axis, DocId, NameId, NodeId, Store};

use crate::ast::*;
use crate::eval::{
    arith, matches_seq_type, node_compare, node_set, Evaluator, LocalResolver, ScatterCall,
    StaticContext,
};
use crate::value::*;

/// Index of an [`Op`] in [`Plan::ops`].
pub type OpRef = u32;
/// Index of an interned string in [`Plan::syms`].
pub type SymId = u32;

/// Node test of a compiled axis step; names are interned symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanTest {
    Named(SymId),
    Wildcard,
    AnyKind,
    Text,
    Comment,
}

/// One compiled axis step with the index strategy baked in.
#[derive(Debug, Clone)]
pub struct PlanStep {
    pub axis: Axis,
    pub test: PlanTest,
    pub preds: Vec<OpRef>,
    /// Answer this step from the per-document name indexes (staircase
    /// join). Decided at compile time from the axis/test/predicate shape
    /// and the session's index toggle.
    pub indexed: bool,
    /// This step is the collapsed `descendant-or-self::node()/child::n`
    /// pair — the expansion of `//n` — rewritten to `descendant::n`.
    pub fused: bool,
}

#[derive(Debug, Clone)]
pub struct PlanCase {
    pub var: SymId,
    pub seq_type: SeqType,
    pub body: OpRef,
}

/// A compiled `execute at`. The body ships over the wire as XQuery source
/// and is re-parsed (and re-compiled) by the receiving peer, so it stays
/// an AST on this side.
#[derive(Debug, Clone)]
pub struct PlanExec {
    pub peer: OpRef,
    /// Pre-extracted literal peer URI — the compile-time half of the
    /// scatter / Bulk-RPC eligibility tests.
    pub literal_peer: Option<String>,
    pub params: Vec<XrpcParam>,
    pub body: Box<Expr>,
    pub projection: Option<Box<ExecProjection>>,
}

/// A `for`-return clause amenable to Bulk RPC, detected at compile time:
/// a chain of local lets ending in an `Op::Execute` at a literal peer.
/// The let value ops are shared with the plain compiled return chain.
#[derive(Debug, Clone)]
pub struct PlanBulk {
    pub lets: Vec<(SymId, OpRef)>,
    pub exec: OpRef,
}

/// A compiled user-defined function; `params.len()` is the arity.
#[derive(Debug, Clone)]
pub struct PlanFunc {
    pub name: SymId,
    pub params: Vec<SymId>,
    pub body: OpRef,
}

/// A general-comparison operand whose value is a pure function of its free
/// variables' bindings: built only from `VarRef`, `Const`, predicate-free
/// `Path` steps over those, and one-argument `data` / `string` (atomization
/// and string value of immutable nodes). No context item, constructor,
/// `Execute` or other call. The evaluator keeps a probe table for it while
/// those bindings stay the very same sequences. Recorded only when the other
/// operand is not a constant (see `Compiler::memo_operand`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoOperand {
    pub operand: OpRef,
    /// Every variable the operand reads (it binds none, so all are free).
    pub free: Vec<SymId>,
}

/// One instruction of the flat plan. Operands are [`OpRef`] indices into
/// the owning [`Plan::ops`] arena.
#[derive(Debug, Clone)]
pub enum Op {
    /// A pre-evaluated constant sequence (literals, `()`, folded pure
    /// subexpressions). Never contains nodes.
    Const(Sequence),
    VarRef(SymId),
    ContextItem,
    /// `scatter` lists the element indices forming a scatter round
    /// (≥2 `Execute`s at ≥2 distinct literal peers).
    Seq { items: Vec<OpRef>, scatter: Option<Vec<usize>> },
    /// `bulk` is the compile-time Bulk-RPC shape of the return clause.
    For { var: SymId, seq: OpRef, ret: OpRef, bulk: Option<PlanBulk> },
    Let { var: SymId, value: OpRef, ret: OpRef },
    /// A `let`-chain of independent remote calls to ≥2 distinct peers:
    /// one scatter round, bound in order. Falls back to the sequential
    /// chain when no remote handler is attached.
    LetScatter { binds: Vec<(SymId, OpRef)>, tail: OpRef },
    If { cond: OpRef, then: OpRef, els: OpRef },
    Typeswitch { input: OpRef, cases: Vec<PlanCase>, default_var: SymId, default: OpRef },
    /// `memo[i]` indexes [`Plan::memos`] when operand `i` (lhs, rhs) is
    /// memoisable; see [`MemoOperand`].
    Comparison { op: CompOp, lhs: OpRef, rhs: OpRef, scatter: bool, memo: [Option<u32>; 2] },
    NodeComparison { op: NodeCompOp, lhs: OpRef, rhs: OpRef, scatter: bool },
    NodeSet { op: NodeSetOp, lhs: OpRef, rhs: OpRef, scatter: bool },
    Arith { op: ArithOp, lhs: OpRef, rhs: OpRef, scatter: bool },
    OrderBy { input: OpRef, specs: Vec<OrderSpec<OpRef>> },
    Construct(Constructor<OpRef>),
    Path { start: Option<OpRef>, steps: Vec<PlanStep> },
    Filter { input: OpRef, pred: OpRef },
    /// `user` is the pre-resolved index into [`Plan::funcs`]; builtins
    /// still dispatch first at runtime, as in the reference walker.
    FunCall { name: SymId, args: Vec<OpRef>, user: Option<u32> },
    And(OpRef, OpRef),
    Or(OpRef, OpRef),
    Execute(Box<PlanExec>),
}

/// A compiled, immutable, shareable query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub ops: Vec<Op>,
    pub root: OpRef,
    pub funcs: Vec<PlanFunc>,
    /// Plan-local string table: variable names, QNames, function names.
    pub syms: Vec<String>,
    /// Index strategy the plan was compiled for (the per-step decisions in
    /// [`PlanStep::indexed`] were made under this toggle).
    pub use_indexes: bool,
    /// Number of non-trivial subexpressions pre-evaluated at compile time.
    pub consts_folded: u32,
    /// Memoisable comparison operands, indexed by [`Op::Comparison`]'s
    /// `memo`; the per-run probe tables are kept in the same order.
    pub memos: Vec<MemoOperand>,
}

impl Plan {
    fn op(&self, r: OpRef) -> &Op {
        &self.ops[r as usize]
    }

    fn sym(&self, s: SymId) -> &str {
        &self.syms[s as usize]
    }

    /// Executes the plan with the given evaluator. On `Execute`-free
    /// plans, bit-identical to [`crate::reference_eval`] on the source
    /// module — results and errors.
    pub fn eval(&self, ev: &mut Evaluator<'_>) -> EvalResult {
        let mut run = PlanRun {
            names: NameCache::new(self.syms.len()),
            memos: self.memos.iter().map(|_| MemoState::default()).collect(),
        };
        ev.eval_op(self, &mut run, self.root)
    }

    /// Human-readable op listing (explain output): header, functions,
    /// one line per op with the chosen axis strategy per path step.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} ops, {} syms, {} funcs, {} consts folded, indexes {}\n",
            self.ops.len(),
            self.syms.len(),
            self.funcs.len(),
            self.consts_folded,
            if self.use_indexes { "on" } else { "off" },
        ));
        for f in &self.funcs {
            let params: Vec<String> =
                f.params.iter().map(|&p| format!("${}", self.sym(p))).collect();
            out.push_str(&format!(
                "func {}({}) = @{}\n",
                self.sym(f.name),
                params.join(", "),
                f.body
            ));
        }
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("{i:>4}: {}\n", self.dump_op(op)));
        }
        out.push_str(&format!("root: @{}\n", self.root));
        out
    }

    fn dump_test(&self, t: &PlanTest) -> String {
        match t {
            PlanTest::Named(s) => self.sym(*s).to_string(),
            PlanTest::Wildcard => "*".into(),
            PlanTest::AnyKind => "node()".into(),
            PlanTest::Text => "text()".into(),
            PlanTest::Comment => "comment()".into(),
        }
    }

    fn dump_refs(refs: &[OpRef]) -> String {
        refs.iter().map(|r| format!("@{r}")).collect::<Vec<_>>().join(", ")
    }

    fn dump_op(&self, op: &Op) -> String {
        match op {
            Op::Const(seq) => format!("const {seq:?}"),
            Op::VarRef(v) => format!("var ${}", self.sym(*v)),
            Op::ContextItem => "context-item".into(),
            Op::Seq { items, scatter } => {
                let mut s = format!("seq [{}]", Self::dump_refs(items));
                if let Some(idxs) = scatter {
                    s.push_str(&format!(" scatter{idxs:?}"));
                }
                s
            }
            Op::For { var, seq, ret, bulk } => {
                let mut s = format!("for ${} in @{seq} return @{ret}", self.sym(*var));
                if let Some(b) = bulk {
                    s.push_str(&format!(" bulk(exec @{})", b.exec));
                }
                s
            }
            Op::Let { var, value, ret } => {
                format!("let ${} := @{value} return @{ret}", self.sym(*var))
            }
            Op::LetScatter { binds, tail } => {
                let bs: Vec<String> = binds
                    .iter()
                    .map(|(v, e)| format!("${} := @{e}", self.sym(*v)))
                    .collect();
                format!("let-scatter [{}] return @{tail}", bs.join(", "))
            }
            Op::If { cond, then, els } => format!("if @{cond} then @{then} else @{els}"),
            Op::Typeswitch { input, cases, default_var, default } => {
                let cs: Vec<String> = cases
                    .iter()
                    .map(|c| format!("${} as {} => @{}", self.sym(c.var), c.seq_type, c.body))
                    .collect();
                format!(
                    "typeswitch @{input} [{}] default ${} => @{default}",
                    cs.join(", "),
                    self.sym(*default_var)
                )
            }
            Op::Comparison { op, lhs, rhs, scatter, memo } => {
                let mut s = format!(
                    "cmp @{lhs} {} @{rhs}{}",
                    op.symbol(),
                    if *scatter { " scatter" } else { "" }
                );
                let memoised: Vec<OpRef> =
                    memo.iter().flatten().map(|&m| self.memos[m as usize].operand).collect();
                if !memoised.is_empty() {
                    s.push_str(&format!(" memo({})", Self::dump_refs(&memoised)));
                }
                s
            }
            Op::NodeComparison { op, lhs, rhs, scatter } => format!(
                "node-cmp @{lhs} {} @{rhs}{}",
                op.symbol(),
                if *scatter { " scatter" } else { "" }
            ),
            Op::NodeSet { op, lhs, rhs, scatter } => format!(
                "node-set @{lhs} {} @{rhs}{}",
                op.keyword(),
                if *scatter { " scatter" } else { "" }
            ),
            Op::Arith { op, lhs, rhs, scatter } => format!(
                "arith @{lhs} {} @{rhs}{}",
                op.symbol(),
                if *scatter { " scatter" } else { "" }
            ),
            Op::OrderBy { input, specs } => {
                let ss: Vec<String> = specs
                    .iter()
                    .map(|s| format!("@{}{}", s.key, if s.descending { " desc" } else { "" }))
                    .collect();
                format!("order-by @{input} [{}]", ss.join(", "))
            }
            Op::Construct(c) => match c {
                Constructor::Document { content } => format!("document {{ @{content} }}"),
                Constructor::Text { content } => format!("text {{ @{content} }}"),
                Constructor::Element { name, content } => {
                    format!("element {} {{ @{content} }}", self.dump_name(name))
                }
                Constructor::Attribute { name, content } => {
                    format!("attribute {} {{ @{content} }}", self.dump_name(name))
                }
            },
            Op::Path { start, steps } => {
                let mut s = match start {
                    Some(r) => format!("path @{r}"),
                    None => "path (root)".to_string(),
                };
                for st in steps {
                    s.push_str(&format!(
                        " / {}::{} [{}{}{}]",
                        st.axis.name(),
                        self.dump_test(&st.test),
                        if st.indexed { "indexed" } else { "scan" },
                        if st.fused { ", fused //" } else { "" },
                        if st.preds.is_empty() {
                            String::new()
                        } else {
                            format!(", preds {}", Self::dump_refs(&st.preds))
                        },
                    ));
                }
                s
            }
            Op::Filter { input, pred } => format!("filter @{input} [@{pred}]"),
            Op::FunCall { name, args, user } => format!(
                "call {}({}){}",
                self.sym(*name),
                Self::dump_refs(args),
                match user {
                    Some(i) => format!(" user#{i}"),
                    None => String::new(),
                }
            ),
            Op::And(l, r) => format!("and @{l} @{r}"),
            Op::Or(l, r) => format!("or @{l} @{r}"),
            Op::Execute(pe) => {
                let ps: Vec<String> = pe
                    .params
                    .iter()
                    .map(|p| format!("${} := ${}", p.var, p.outer))
                    .collect();
                format!(
                    "execute at @{}{} params ({}){}",
                    pe.peer,
                    match &pe.literal_peer {
                        Some(p) => format!(" ({p})"),
                        None => String::new(),
                    },
                    ps.join(", "),
                    if pe.projection.is_some() { " projected" } else { "" }
                )
            }
        }
    }

    fn dump_name(&self, n: &ElemName<OpRef>) -> String {
        match n {
            ElemName::Static(s) => s.clone(),
            ElemName::Computed(r) => format!("{{ @{r} }}"),
        }
    }

    /// `EXPLAIN ANALYZE` output: the op listing annotated with the
    /// execution profile of one run — calls, items produced, and inclusive
    /// simulated-time attribution per op (percentages against the root
    /// op's inclusive time, which covers the whole evaluation by
    /// construction). The static index-vs-scan choice stays visible in
    /// each path op's step annotations.
    pub fn dump_analyze(&self, prof: &OpProfile) -> String {
        let total = prof.sim_ns[self.root as usize];
        let mut out = String::new();
        out.push_str(&format!(
            "plan profile: {} ops, root @{}, total sim {:?}\n",
            self.ops.len(),
            self.root,
            Duration::from_nanos(total),
        ));
        for (i, op) in self.ops.iter().enumerate() {
            let line = self.dump_op(op);
            if prof.calls[i] == 0 {
                out.push_str(&format!("{i:>4}: {line}\n      (never executed)\n"));
                continue;
            }
            let pct = if total == 0 {
                0.0
            } else {
                prof.sim_ns[i] as f64 * 100.0 / total as f64
            };
            out.push_str(&format!(
                "{i:>4}: {line}\n      calls={} items={} sim={:?} ({:.1}%)\n",
                prof.calls[i],
                prof.items[i],
                Duration::from_nanos(prof.sim_ns[i]),
                pct,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// per-op execution profiles (EXPLAIN ANALYZE)
// ---------------------------------------------------------------------------

/// Execution profile of one plan run: per-[`Op`] counters plus inclusive
/// simulated-time attribution. Indexed like [`Plan::ops`].
///
/// Time is read from a shared simulated-clock cell (the tracer's) at op
/// entry and exit, so attribution uses exactly the timeline the executor
/// bills to the network metrics — wall-clock CPU never leaks in, which is
/// what keeps profiled chaos replays byte-identical. Re-entrant
/// activations of the same op (recursive functions, loop bodies) accrue
/// inclusive time only for the outermost activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Times each op was entered.
    pub calls: Vec<u64>,
    /// Items produced, summed over each op's successful evaluations.
    pub items: Vec<u64>,
    /// Inclusive simulated nanoseconds per op.
    pub sim_ns: Vec<u64>,
    /// Live activation count per op (recursion guard).
    active: Vec<u32>,
    /// Clock reading at each op's outermost entry.
    started: Vec<u64>,
}

impl OpProfile {
    pub fn new(ops: usize) -> OpProfile {
        OpProfile {
            calls: vec![0; ops],
            items: vec![0; ops],
            sim_ns: vec![0; ops],
            active: vec![0; ops],
            started: vec![0; ops],
        }
    }

    fn enter(&mut self, op: usize, now_ns: u64) {
        self.calls[op] += 1;
        if self.active[op] == 0 {
            self.started[op] = now_ns;
        }
        self.active[op] += 1;
    }

    fn exit(&mut self, op: usize, now_ns: u64, items: Option<u64>) {
        self.active[op] -= 1;
        if self.active[op] == 0 {
            self.sim_ns[op] += now_ns.saturating_sub(self.started[op]);
        }
        if let Some(n) = items {
            self.items[op] += n;
        }
    }

    /// Inclusive simulated time of `op`.
    pub fn op_ns(&self, op: OpRef) -> u64 {
        self.sim_ns[op as usize]
    }
}

/// The evaluator-side profiling hook: where the per-op counters accrue and
/// which simulated clock they read. Cheap to clone (two pointers); absent
/// on unprofiled runs so the fast path stays a single branch.
#[derive(Clone)]
pub struct ProfileHook {
    pub data: Rc<RefCell<OpProfile>>,
    /// Shared simulated-clock cell — the tracer's, when tracing is on.
    pub clock: Arc<AtomicU64>,
}

// ---------------------------------------------------------------------------
// Compiler: AST → plan
// ---------------------------------------------------------------------------

/// Builtins whose result is a pure function of their arguments and the
/// static context — eligible for compile-time constant folding. Everything
/// touching the store, the resolver or the dynamic context (`doc`, `root`,
/// `id`, `base-uri`, `name`, `position`, …) is excluded.
const PURE_BUILTINS: &[&str] = &[
    "true", "false", "not", "boolean", "string", "data", "number", "count", "empty", "exists",
    "concat", "string-join", "contains", "starts-with", "ends-with", "string-length", "substring",
    "substring-before", "substring-after", "upper-case", "lower-case", "normalize-space",
    "translate", "tokenize", "abs", "floor", "ceiling", "round", "sum", "avg", "min", "max",
    "distinct-values", "reverse", "subsequence", "insert-before", "remove", "index-of", "head",
    "tail", "exactly-one", "zero-or-one", "static-base-uri", "default-collation",
    "current-dateTime", "xqd:distinct-keys",
];

fn is_pure_builtin(name: &str) -> bool {
    let bare = name.strip_prefix("fn:").unwrap_or(name);
    PURE_BUILTINS.contains(&bare)
}

/// Is `e` a compile-time constant: built from literals via operators and
/// pure builtins only? (Constant *candidates* — a candidate only folds if
/// it also evaluates without error.)
fn is_const(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Empty => true,
        Expr::Sequence(es) => es.iter().all(is_const),
        Expr::If { cond, then, els } => is_const(cond) && is_const(then) && is_const(els),
        Expr::And(l, r) | Expr::Or(l, r) => is_const(l) && is_const(r),
        Expr::Comparison { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
            is_const(lhs) && is_const(rhs)
        }
        Expr::FunCall { name, args } => is_pure_builtin(name) && args.iter().all(is_const),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Scatter-round / Bulk-RPC shape detection
// ---------------------------------------------------------------------------

/// Is `ret` a `for`-return clause amenable to Bulk RPC: a chain of local
/// `let`s ending in an `Execute` with a literal peer (a computed peer could
/// vary per iteration)?
fn is_bulk_shape(ret: &Expr) -> bool {
    let mut cur = ret;
    while let Expr::Let { ret, .. } = cur {
        cur = ret;
    }
    scatter_exec_peer(cur).is_some()
}

/// Returns the element indices of a `Sequence` that form a scatter round:
/// `Execute` expressions with a literal peer. Engages only when at least two
/// such calls target at least two distinct peers — otherwise there is
/// nothing to overlap.
fn sequence_scatter(es: &[Expr]) -> Option<Vec<usize>> {
    let mut idxs = Vec::new();
    let mut peers = Vec::new();
    for (i, e) in es.iter().enumerate() {
        if let Some(p) = scatter_exec_peer(e) {
            idxs.push(i);
            if !peers.contains(&p) {
                peers.push(p);
            }
        }
    }
    (idxs.len() >= 2 && peers.len() >= 2).then_some(idxs)
}

/// The literal peer of an `Execute` eligible for scattering, if any.
fn scatter_exec_peer(e: &Expr) -> Option<String> {
    if let Expr::Execute { peer, .. } = e {
        if let Expr::Literal(a) = peer.as_ref() {
            return Some(a.to_lexical());
        }
    }
    None
}

/// Do `lhs`/`rhs` form a two-call scatter round? Both operands of a binary
/// expression are always evaluated, so two remote calls to distinct peers —
/// the shape distributed code motion leaves behind when it collapses a
/// `let`-chain into `execute(…) ⊕ execute(…)` — can fan out together.
fn binary_scatter(lhs: &Expr, rhs: &Expr) -> bool {
    matches!(
        (scatter_exec_peer(lhs), scatter_exec_peer(rhs)),
        (Some(a), Some(b)) if a != b
    )
}

/// A chain of `let $v := execute at <literal peer> … return …` bindings
/// whose parameters are independent of earlier chain variables — the shape
/// distributed code motion produces for a federated join. The calls can run
/// as one scatter round and bind in order afterwards.
struct LetScatterChain<'a> {
    /// (bound variable, the Execute expression it binds)
    binds: Vec<(&'a str, &'a Expr)>,
    tail: &'a Expr,
}

fn let_scatter(e: &Expr) -> Option<LetScatterChain<'_>> {
    let mut binds: Vec<(&str, &Expr)> = Vec::new();
    let mut peers: Vec<String> = Vec::new();
    let mut cur = e;
    while let Expr::Let { var, value, ret } = cur {
        let Expr::Execute { peer, params, .. } = value.as_ref() else {
            break;
        };
        let Expr::Literal(a) = peer.as_ref() else {
            break;
        };
        // independence: parameters must not read variables bound earlier in
        // this chain (they'd need the earlier call's result first)
        if params.iter().any(|p| binds.iter().any(|(v, _)| *v == p.outer)) {
            break;
        }
        binds.push((var.as_str(), value.as_ref()));
        let p = a.to_lexical();
        if !peers.contains(&p) {
            peers.push(p);
        }
        cur = ret;
    }
    (binds.len() >= 2 && peers.len() >= 2).then_some(LetScatterChain { binds, tail: cur })
}

/// Sizes of every scatter round statically detectable in `e` — the same
/// predicates the compiler bakes into the plan, exposed so the decomposer
/// can record on a `Decomposition` which XRPC calls will fan out (explain
/// output, tests).
pub fn scatter_rounds(e: &Expr) -> Vec<usize> {
    fn walk(e: &Expr, out: &mut Vec<usize>) {
        if let Expr::Sequence(es) = e {
            if let Some(idxs) = sequence_scatter(es) {
                out.push(idxs.len());
                for (i, child) in es.iter().enumerate() {
                    if !idxs.contains(&i) {
                        walk(child, out);
                    }
                }
                return;
            }
        }
        if let Some(chain) = let_scatter(e) {
            out.push(chain.binds.len());
            walk(chain.tail, out);
            return;
        }
        if let Expr::Comparison { lhs, rhs, .. }
        | Expr::NodeComparison { lhs, rhs, .. }
        | Expr::NodeSet { lhs, rhs, .. }
        | Expr::Arith { lhs, rhs, .. } = e
        {
            if binary_scatter(lhs, rhs) {
                out.push(2);
                return;
            }
        }
        e.for_each_child(&mut |c, _| walk(c, out));
    }
    let mut out = Vec::new();
    walk(e, &mut out);
    out
}

struct Compiler<'c> {
    ops: Vec<Op>,
    syms: Vec<String>,
    sym_ids: HashMap<String, SymId>,
    functions: &'c [FunctionDef],
    use_indexes: bool,
    static_ctx: &'c StaticContext,
    /// Pre-evaluate constant subexpressions; off only in the compiler that
    /// [`Compiler::try_fold`] runs the constant through.
    fold: bool,
    consts_folded: u32,
    memos: Vec<MemoOperand>,
}

impl<'c> Compiler<'c> {
    fn sym(&mut self, s: &str) -> SymId {
        if let Some(&id) = self.sym_ids.get(s) {
            return id;
        }
        let id = self.syms.len() as SymId;
        self.syms.push(s.to_string());
        self.sym_ids.insert(s.to_string(), id);
        id
    }

    fn push(&mut self, op: Op) -> OpRef {
        self.ops.push(op);
        (self.ops.len() - 1) as OpRef
    }

    /// Pre-evaluates a constant subexpression: compiles it without folding
    /// and runs that plan on a throwaway store under the compile-time
    /// static context. Only an `Ok` result folds: erroring expressions
    /// (`1 div 0`) are lowered unfolded so the error surfaces at run time.
    fn try_fold(&mut self, e: &Expr) -> Option<Sequence> {
        if !self.fold || !is_const(e) {
            return None;
        }
        let plan = lower(&[], e, self.use_indexes, self.static_ctx, false);
        let mut store = Store::new();
        let mut resolver = LocalResolver;
        let mut ev = Evaluator::new(&mut store, &[], &mut resolver)
            .with_static_context(self.static_ctx.clone());
        let folded = plan.eval(&mut ev).ok()?;
        // const expressions cannot construct nodes, but keep the invariant
        // explicit: a NodeId would dangle outside the throwaway store
        if folded.iter().any(|i| matches!(i, Item::Node(_))) {
            return None;
        }
        Some(folded)
    }

    fn compile(&mut self, e: &Expr) -> OpRef {
        match e {
            Expr::Literal(a) => {
                return self.push(Op::Const(Sequence::unit(Item::Atom(a.clone()))))
            }
            Expr::Empty => return self.push(Op::Const(Sequence::new())),
            _ => {}
        }
        if let Some(seq) = self.try_fold(e) {
            self.consts_folded += 1;
            return self.push(Op::Const(seq));
        }
        match e {
            Expr::Literal(_) | Expr::Empty => unreachable!("handled above"),
            Expr::Sequence(es) => {
                let scatter = sequence_scatter(es);
                let mut items = Vec::with_capacity(es.len());
                for x in es {
                    items.push(self.compile(x));
                }
                self.push(Op::Seq { items, scatter })
            }
            Expr::VarRef(v) => {
                let s = self.sym(v);
                self.push(Op::VarRef(s))
            }
            Expr::ContextItem => self.push(Op::ContextItem),
            Expr::For { var, seq, ret } => {
                let var = self.sym(var);
                let seq = self.compile(seq);
                let (ret, bulk) = self.compile_for_ret(ret);
                self.push(Op::For { var, seq, ret, bulk })
            }
            Expr::Let { .. } => self.compile_let(e),
            Expr::If { cond, then, els } => {
                let cond = self.compile(cond);
                let then = self.compile(then);
                let els = self.compile(els);
                self.push(Op::If { cond, then, els })
            }
            Expr::Typeswitch { input, cases, default_var, default } => {
                let input = self.compile(input);
                let mut pcases = Vec::with_capacity(cases.len());
                for c in cases {
                    let var = self.sym(&c.var);
                    let body = self.compile(&c.body);
                    pcases.push(PlanCase { var, seq_type: c.seq_type.clone(), body });
                }
                let default_var = self.sym(default_var);
                let default = self.compile(default);
                self.push(Op::Typeswitch { input, cases: pcases, default_var, default })
            }
            Expr::Comparison { op, lhs, rhs } => {
                let scatter = binary_scatter(lhs, rhs);
                let lhs = self.compile(lhs);
                let rhs = self.compile(rhs);
                let memo = [self.memo_operand(lhs, rhs), self.memo_operand(rhs, lhs)];
                self.push(Op::Comparison { op: *op, lhs, rhs, scatter, memo })
            }
            Expr::NodeComparison { op, lhs, rhs } => {
                let scatter = binary_scatter(lhs, rhs);
                let lhs = self.compile(lhs);
                let rhs = self.compile(rhs);
                self.push(Op::NodeComparison { op: *op, lhs, rhs, scatter })
            }
            Expr::NodeSet { op, lhs, rhs } => {
                let scatter = binary_scatter(lhs, rhs);
                let lhs = self.compile(lhs);
                let rhs = self.compile(rhs);
                self.push(Op::NodeSet { op: *op, lhs, rhs, scatter })
            }
            Expr::Arith { op, lhs, rhs } => {
                let scatter = binary_scatter(lhs, rhs);
                let lhs = self.compile(lhs);
                let rhs = self.compile(rhs);
                self.push(Op::Arith { op: *op, lhs, rhs, scatter })
            }
            Expr::OrderBy { input, specs } => {
                let input = self.compile(input);
                let mut pspecs = Vec::with_capacity(specs.len());
                for s in specs {
                    let key = self.compile(&s.key);
                    pspecs.push(OrderSpec { key, descending: s.descending });
                }
                self.push(Op::OrderBy { input, specs: pspecs })
            }
            Expr::Construct(c) => {
                let pc = self.compile_constructor(c);
                self.push(Op::Construct(pc))
            }
            Expr::Path { start, steps } => {
                let start = start.as_ref().map(|s| self.compile(s));
                let steps = self.compile_steps(steps);
                self.push(Op::Path { start, steps })
            }
            Expr::Filter { input, predicate } => {
                let input = self.compile(input);
                let pred = self.compile(predicate);
                self.push(Op::Filter { input, pred })
            }
            Expr::FunCall { name, args } => {
                let user = self.functions.iter().position(|f| f.name == *name).map(|i| i as u32);
                let name = self.sym(name);
                let mut cargs = Vec::with_capacity(args.len());
                for a in args {
                    cargs.push(self.compile(a));
                }
                self.push(Op::FunCall { name, args: cargs, user })
            }
            Expr::And(l, r) => {
                let l = self.compile(l);
                let r = self.compile(r);
                self.push(Op::And(l, r))
            }
            Expr::Or(l, r) => {
                let l = self.compile(l);
                let r = self.compile(r);
                self.push(Op::Or(l, r))
            }
            Expr::Execute { .. } => self.compile_execute(e),
        }
    }

    /// Records `operand` in [`Plan::memos`] if it is memoisable (the rule
    /// is [`MemoOperand`]'s) and worth tracking: not against a constant
    /// `other` side (`age < 40` — were this operand invariant the whole
    /// comparison would be, and hoisting that is not a join's business;
    /// the common case is a varying operand that would pay for the
    /// tracking every time), and not a constant too short to ever get a
    /// table (evaluating it is already one `Arc` clone).
    fn memo_operand(&mut self, operand: OpRef, other: OpRef) -> Option<u32> {
        let short = matches!(&self.ops[operand as usize], Op::Const(s) if s.len() < MEMO_MIN_ITEMS);
        if short || matches!(self.ops[other as usize], Op::Const(_)) {
            return None;
        }
        let mut free = Vec::new();
        if !self.memoisable(operand, &mut free) {
            return None;
        }
        self.memos.push(MemoOperand { operand, free });
        Some((self.memos.len() - 1) as u32)
    }

    fn memoisable(&self, op: OpRef, free: &mut Vec<SymId>) -> bool {
        match &self.ops[op as usize] {
            Op::Const(_) => true,
            Op::VarRef(v) => {
                if !free.contains(v) {
                    free.push(*v);
                }
                true
            }
            Op::Path { start: Some(start), steps } => {
                steps.iter().all(|s| s.preds.is_empty()) && self.memoisable(*start, free)
            }
            // builtins dispatch before user functions, so these two names
            // with one argument are always fn:data / fn:string
            Op::FunCall { name, args, .. } => {
                let name = &self.syms[*name as usize];
                matches!(name.strip_prefix("fn:").unwrap_or(name), "data" | "string")
                    && args.len() == 1
                    && self.memoisable(args[0], free)
            }
            _ => false,
        }
    }

    /// A `Let` node: the scatter-chain detection runs here, once, at
    /// compile time.
    fn compile_let(&mut self, e: &Expr) -> OpRef {
        if let Some(chain) = let_scatter(e) {
            let mut binds = Vec::with_capacity(chain.binds.len());
            for (v, exec) in &chain.binds {
                let s = self.sym(v);
                let op = self.compile_execute(exec);
                binds.push((s, op));
            }
            let tail = self.compile(chain.tail);
            return self.push(Op::LetScatter { binds, tail });
        }
        let Expr::Let { var, value, ret } = e else { unreachable!("compile_let takes Let") };
        let var = self.sym(var);
        let value = self.compile(value);
        let ret = self.compile(ret);
        self.push(Op::Let { var, value, ret })
    }

    /// The return clause of a `for`: when it matches the Bulk-RPC shape
    /// (local lets ending in an `Execute` at a literal peer), record the
    /// shape alongside the plain compiled chain. The plain chain is the
    /// no-remote fallback and shares the very same value ops.
    fn compile_for_ret(&mut self, ret: &Expr) -> (OpRef, Option<PlanBulk>) {
        if !is_bulk_shape(ret) {
            return (self.compile(ret), None);
        }
        let mut lets: Vec<(SymId, OpRef)> = Vec::new();
        let mut cur = ret;
        while let Expr::Let { var, value, ret } = cur {
            let s = self.sym(var);
            let v = self.compile(value);
            lets.push((s, v));
            cur = ret;
        }
        let exec = self.compile_execute(cur);
        let mut chain = exec;
        for &(var, value) in lets.iter().rev() {
            chain = self.push(Op::Let { var, value, ret: chain });
        }
        (chain, Some(PlanBulk { lets, exec }))
    }

    fn compile_execute(&mut self, e: &Expr) -> OpRef {
        let Expr::Execute { peer, params, body, projection } = e else {
            unreachable!("compile_execute takes Execute")
        };
        let literal_peer = match peer.as_ref() {
            Expr::Literal(a) => Some(a.to_lexical()),
            _ => None,
        };
        let peer = self.compile(peer);
        self.push(Op::Execute(Box::new(PlanExec {
            peer,
            literal_peer,
            params: params.clone(),
            body: body.clone(),
            projection: projection.clone(),
        })))
    }

    fn compile_constructor(&mut self, c: &Constructor) -> Constructor<OpRef> {
        match c {
            Constructor::Document { content } => {
                Constructor::Document { content: self.compile(content) }
            }
            Constructor::Text { content } => Constructor::Text { content: self.compile(content) },
            Constructor::Element { name, content } => {
                let name = self.compile_elem_name(name);
                Constructor::Element { name, content: self.compile(content) }
            }
            Constructor::Attribute { name, content } => {
                let name = self.compile_elem_name(name);
                Constructor::Attribute { name, content: self.compile(content) }
            }
        }
    }

    fn compile_elem_name(&mut self, n: &ElemName) -> ElemName<OpRef> {
        match n {
            ElemName::Static(s) => ElemName::Static(s.clone()),
            ElemName::Computed(e) => ElemName::Computed(self.compile(e)),
        }
    }

    /// Lowers the steps of a path, baking the indexed-vs-scan choice per
    /// step and collapsing the `//n` expansion into one indexed
    /// `descendant::n`.
    fn compile_steps(&mut self, steps: &[Step]) -> Vec<PlanStep> {
        let mut out = Vec::with_capacity(steps.len());
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
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
                        let s = self.sym(name);
                        out.push(PlanStep {
                            axis: Axis::Descendant,
                            test: PlanTest::Named(s),
                            preds: Vec::new(),
                            indexed: true,
                            fused: true,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            let indexed = self.use_indexes
                && step.predicates.is_empty()
                && matches!(
                    step.axis,
                    Axis::Child | Axis::Descendant | Axis::DescendantOrSelf | Axis::Attribute
                )
                && matches!(step.test, NameTest::Name(_));
            let test = match &step.test {
                NameTest::Name(n) => PlanTest::Named(self.sym(n)),
                NameTest::Wildcard => PlanTest::Wildcard,
                NameTest::AnyKind => PlanTest::AnyKind,
                NameTest::Text => PlanTest::Text,
                NameTest::Comment => PlanTest::Comment,
            };
            let mut preds = Vec::with_capacity(step.predicates.len());
            for p in &step.predicates {
                preds.push(self.compile(p));
            }
            out.push(PlanStep { axis: step.axis, test, preds, indexed, fused: false });
            i += 1;
        }
        out
    }
}

/// Compiles a module (function declarations + body) into a [`Plan`].
///
/// `use_indexes` bakes the per-step index strategy; `static_ctx` is the
/// context constants fold under — both are part of the plan-cache key, so
/// a cached plan is only ever replayed under the context it was built for.
pub fn compile_module(
    functions: &[FunctionDef],
    body: &Expr,
    use_indexes: bool,
    static_ctx: &StaticContext,
) -> Plan {
    lower(functions, body, use_indexes, static_ctx, true)
}

/// [`compile_module`] with constant folding on or off: off only for the
/// plan [`Compiler::try_fold`] evaluates a constant with.
fn lower(
    functions: &[FunctionDef],
    body: &Expr,
    use_indexes: bool,
    static_ctx: &StaticContext,
    fold: bool,
) -> Plan {
    let mut c = Compiler {
        ops: Vec::new(),
        syms: Vec::new(),
        sym_ids: HashMap::new(),
        functions,
        use_indexes,
        static_ctx,
        fold,
        consts_folded: 0,
        memos: Vec::new(),
    };
    let mut funcs = Vec::with_capacity(functions.len());
    for f in functions {
        let name = c.sym(&f.name);
        let params = f.params.iter().map(|(p, _)| c.sym(p)).collect();
        let body = c.compile(&f.body);
        funcs.push(PlanFunc { name, params, body });
    }
    let root = c.compile(body);
    Plan {
        ops: c.ops,
        root,
        funcs,
        syms: c.syms,
        use_indexes,
        consts_folded: c.consts_folded,
        memos: c.memos,
    }
}

/// [`compile_module`] over a parsed [`QueryModule`].
pub fn compile_query(module: &QueryModule, use_indexes: bool, static_ctx: &StaticContext) -> Plan {
    compile_module(&module.functions, &module.body, use_indexes, static_ctx)
}

// ---------------------------------------------------------------------------
// Plan evaluator
// ---------------------------------------------------------------------------

/// Per-run cache mapping plan symbols to the executing store's interned
/// [`NameId`]s. A hit is cached for the rest of the run (interned ids are
/// immutable), but a miss is re-probed on every use: node constructors can
/// intern new names mid-run, exactly as the reference walker observes when
/// it re-resolves QNames per step.
struct NameCache(Vec<Option<NameId>>);

impl NameCache {
    fn new(n: usize) -> Self {
        NameCache(vec![None; n])
    }

    fn resolve(&mut self, syms: &[String], store: &Store, sym: SymId) -> Option<NameId> {
        if let Some(id) = self.0[sym as usize] {
            return Some(id);
        }
        let id = store.names.get(&syms[sym as usize])?;
        self.0[sym as usize] = Some(id);
        Some(id)
    }
}

/// Below this many items an invariant operand gets no probe table: a nested
/// loop over a handful of atoms costs about what hashing the probe does.
const MEMO_MIN_ITEMS: usize = 8;

/// Run state of one memoisable comparison operand ([`MemoOperand`]). The
/// key is the *identity* of its free variables' bindings — `Arc::ptr_eq` on
/// the bound sequences, which `key` holds clones of, so an address cannot be
/// reused while it is the key. Documents are immutable once attached, so
/// the same bindings yield the same value. A different key simply replaces
/// the table, which is why nested loops, shadowing and recursion need no
/// scope tracking: whatever binding is visible *now* is what is compared.
#[derive(Default)]
struct MemoState {
    /// A binding for every free variable; `None` until the operand's first
    /// evaluation in this run, or when one of them was unbound.
    key: Option<Vec<Sequence>>,
    /// Built the second time `key` is seen, so an operand whose bindings
    /// change every evaluation (the varying side) never pays for one.
    /// Handed out by `Arc`: the other operand may re-enter this comparison
    /// (a recursive user function) and re-key the state under the caller.
    table: Option<Arc<ProbeTable>>,
}

/// Everything one [`Plan::eval`] keeps between ops. Per run, not on the
/// [`Evaluator`] — that outlives a plan, and `memos` is indexed by plan.
struct PlanRun {
    names: NameCache,
    /// Parallel to [`Plan::memos`].
    memos: Vec<MemoState>,
}

/// A comparison operand as [`Evaluator::memo_operand`] hands it back.
enum Operand {
    Fresh(Sequence),
    /// The run's probe table stands for it.
    Table(Arc<ProbeTable>),
}

/// The plan engine runs on the shared [`Evaluator`] state (environment,
/// context stack, scratch buffers, hooks) and calls the operator bodies of
/// [`crate::eval`] that the reference walker calls too; what is its own is
/// the op dispatch, index use, memo probes and the scatter / bulk shapes.
impl<'a> Evaluator<'a> {
    /// Single dispatch point of the compiled engine. When a [`ProfileHook`]
    /// is attached, wraps the real dispatch with per-op accounting — one
    /// branch and no other work on unprofiled runs.
    fn eval_op(&mut self, plan: &Plan, run: &mut PlanRun, op: OpRef) -> EvalResult {
        let Some(hook) = self.profile.clone() else {
            return self.eval_op_inner(plan, run, op);
        };
        hook.data.borrow_mut().enter(op as usize, hook.clock.load(Ordering::SeqCst));
        let result = self.eval_op_inner(plan, run, op);
        hook.data.borrow_mut().exit(
            op as usize,
            hook.clock.load(Ordering::SeqCst),
            result.as_ref().ok().map(|seq| seq.len() as u64),
        );
        result
    }

    fn eval_op_inner(&mut self, plan: &Plan, run: &mut PlanRun, op: OpRef) -> EvalResult {
        match plan.op(op) {
            Op::Const(seq) => Ok(seq.clone()),
            Op::VarRef(v) => self.lookup(plan.sym(*v)),
            Op::ContextItem => Ok(Sequence::unit(self.context_item()?)),
            Op::Seq { items, scatter } => {
                if self.remote.is_some() {
                    if let Some(idxs) = scatter {
                        return self.eval_sequence_scatter(plan, run, items, idxs);
                    }
                }
                let mut out = Vec::new();
                for &x in items {
                    self.eval_op(plan, run, x)?.append_to(&mut out);
                }
                Ok(out.into())
            }
            Op::For { var, seq, ret, bulk } => {
                let input = self.eval_op(plan, run, *seq)?;
                if self.remote.is_some() {
                    if let Some(b) = bulk {
                        return self.eval_bulk_for(plan, run, *var, input, b);
                    }
                }
                // one binding for the whole loop, its value rebound in place
                // per item unless something still holds it (a memo key);
                // the body leaves the environment as it found it
                let slot = self.env.len();
                self.env.push((plan.sym(*var).to_string(), Sequence::new()));
                let mut out = Vec::new();
                let mut outcome = Ok(());
                for item in input.iter() {
                    self.env[slot].1.set_unit(item.clone());
                    match self.eval_op(plan, run, *ret) {
                        Ok(r) => r.append_to(&mut out),
                        Err(e) => {
                            outcome = Err(e);
                            break;
                        }
                    }
                }
                self.env.pop();
                outcome.map(|()| out.into())
            }
            Op::Let { var, value, ret } => {
                let v = self.eval_op(plan, run, *value)?;
                self.env.push((plan.sym(*var).to_string(), v));
                let r = self.eval_op(plan, run, *ret);
                self.env.pop();
                r
            }
            Op::LetScatter { binds, tail } => {
                if self.remote.is_some() {
                    let mut calls = Vec::with_capacity(binds.len());
                    for (_, exec) in binds {
                        calls.push(self.bind_scatter_call(plan, *exec)?);
                    }
                    let handler =
                        self.remote.as_mut().expect("scatter path requires a handler");
                    let gathered =
                        handler.execute_scatter(self.store, &self.static_ctx, &calls)?;
                    for ((var, _), seq) in binds.iter().zip(gathered) {
                        self.env.push((plan.sym(*var).to_string(), seq));
                    }
                    let r = self.eval_op(plan, run, *tail);
                    for _ in 0..binds.len() {
                        self.env.pop();
                    }
                    return r;
                }
                // no remote handler: the chain degrades to plain nested
                // lets
                let mut pushed = 0usize;
                let mut err = None;
                for (var, exec) in binds {
                    match self.eval_op(plan, run, *exec) {
                        Ok(v) => {
                            self.env.push((plan.sym(*var).to_string(), v));
                            pushed += 1;
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                let r = match err {
                    Some(e) => Err(e),
                    None => self.eval_op(plan, run, *tail),
                };
                for _ in 0..pushed {
                    self.env.pop();
                }
                r
            }
            Op::If { cond, then, els } => {
                let c = self.eval_op(plan, run, *cond)?;
                if effective_boolean_value(&c)? {
                    self.eval_op(plan, run, *then)
                } else {
                    self.eval_op(plan, run, *els)
                }
            }
            Op::Typeswitch { input, cases, default_var, default } => {
                let v = self.eval_op(plan, run, *input)?;
                for case in cases {
                    if matches_seq_type(self.store, &v, &case.seq_type) {
                        self.env.push((plan.sym(case.var).to_string(), v));
                        let r = self.eval_op(plan, run, case.body);
                        self.env.pop();
                        return r;
                    }
                }
                self.env.push((plan.sym(*default_var).to_string(), v));
                let r = self.eval_op(plan, run, *default);
                self.env.pop();
                r
            }
            Op::Comparison { op, lhs, rhs, memo, .. } if memo.iter().any(Option::is_some) => {
                // a memoisable operand is never an `Execute`, so there is
                // no scatter round to give up here
                self.eval_comparison_memo(plan, run, *op, [*lhs, *rhs], *memo)
            }
            Op::Comparison { op, lhs, rhs, scatter, .. } => {
                let (l, r) = self.eval_operand_pair(plan, run, *lhs, *rhs, *scatter)?;
                let b = general_compare(self.store, *op, &l, &r)?;
                Ok(Sequence::boolean(b))
            }
            Op::NodeComparison { op, lhs, rhs, scatter } => {
                let (l, r) = self.eval_operand_pair(plan, run, *lhs, *rhs, *scatter)?;
                node_compare(*op, &l, &r)
            }
            Op::NodeSet { op, lhs, rhs, scatter } => {
                let (l, r) = self.eval_operand_pair(plan, run, *lhs, *rhs, *scatter)?;
                node_set(*op, l, r)
            }
            Op::Arith { op, lhs, rhs, scatter } => {
                let (l, r) = self.eval_operand_pair(plan, run, *lhs, *rhs, *scatter)?;
                arith(self.store, *op, &l, &r)
            }
            Op::OrderBy { input, specs } => {
                let items = self.eval_op(plan, run, *input)?;
                self.order_by(items, specs, |ev, &key| ev.eval_op(plan, run, key))
            }
            Op::Construct(c) => self.construct(c, |ev, &x| ev.eval_op(plan, run, x)),
            Op::Path { start, steps } => self.eval_path(plan, run, *start, steps),
            Op::Filter { input, pred } => {
                let input = self.eval_op(plan, run, *input)?;
                Ok(self.apply_predicate(&input, pred, |ev, &p| ev.eval_op(plan, run, p))?.into())
            }
            Op::FunCall { name, args, user } => {
                let user = user.map(|i| {
                    let f = &plan.funcs[i as usize];
                    (f.params.iter().map(|&p| plan.sym(p)), &f.body)
                });
                self.call(plan.sym(*name), args, user, |ev, &x| ev.eval_op(plan, run, x))
            }
            Op::And(l, r) => {
                let lv = self.eval_op(plan, run, *l)?;
                if !effective_boolean_value(&lv)? {
                    return Ok(Sequence::boolean(false));
                }
                let rv = self.eval_op(plan, run, *r)?;
                Ok(Sequence::boolean(effective_boolean_value(&rv)?))
            }
            Op::Or(l, r) => {
                let lv = self.eval_op(plan, run, *l)?;
                if effective_boolean_value(&lv)? {
                    return Ok(Sequence::boolean(true));
                }
                let rv = self.eval_op(plan, run, *r)?;
                Ok(Sequence::boolean(effective_boolean_value(&rv)?))
            }
            Op::Execute(pe) => self.eval_execute(plan, run, pe),
        }
    }

    /// A general comparison with a memoisable operand. Out of line on
    /// purpose: inlined, its locals widen every `eval_op_inner` frame and
    /// deep recursion overflows the 2 MiB test stacks in debug builds.
    #[inline(never)]
    fn eval_comparison_memo(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        op: CompOp,
        operands: [OpRef; 2],
        memo: [Option<u32>; 2],
    ) -> EvalResult {
        // lhs before rhs, as the reference evaluates them
        let l = self.memo_operand(plan, run, operands[0], memo[0])?;
        let r = self.memo_operand(plan, run, operands[1], memo[1])?;
        let b = match (&l, &r) {
            (Operand::Fresh(l), Operand::Fresh(r)) => general_compare(self.store, op, l, r)?,
            (Operand::Table(t), Operand::Fresh(r)) => t.compare(self.store, op, true, r)?,
            (Operand::Fresh(l), Operand::Table(t)) => t.compare(self.store, op, false, l)?,
            (Operand::Table(l), Operand::Table(r)) => {
                l.compare(self.store, op, true, r.operand())?
            }
        };
        Ok(Sequence::boolean(b))
    }

    /// Evaluates one comparison operand, or stands the run's probe table in
    /// for it. The table is built here, lazily, on the second evaluation
    /// under the same bindings — never ahead of the comparison, so nothing
    /// is evaluated that the reference would not evaluate.
    fn memo_operand(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        operand: OpRef,
        memo: Option<u32>,
    ) -> EvalResult<Operand> {
        let Some(m) = memo else {
            return Ok(Operand::Fresh(self.eval_op(plan, run, operand)?));
        };
        let free = &plan.memos[m as usize].free;
        let state = &mut run.memos[m as usize];
        let bound = |v: &SymId| self.binding(plan.sym(*v));
        let is_key = |(v, k): (&SymId, &Sequence)| bound(v).is_some_and(|b| b.same_allocation(k));
        let same = state.key.as_ref().is_some_and(|key| free.iter().zip(key).all(is_key));
        if !same {
            state.table = None;
            // an unbound variable leaves no key; the evaluation below raises
            state.key = free.iter().map(|v| bound(v).cloned()).collect();
        } else if let Some(table) = &state.table {
            return Ok(Operand::Table(table.clone()));
        }
        let value = self.eval_op(plan, run, operand)?;
        if !same || value.len() < MEMO_MIN_ITEMS {
            return Ok(Operand::Fresh(value));
        }
        let table = Arc::new(ProbeTable::build(self.store, value));
        run.memos[m as usize].table = Some(table.clone());
        Ok(Operand::Table(table))
    }

    fn eval_execute(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        pe: &PlanExec,
    ) -> EvalResult {
        let peer_seq = self.eval_op(plan, run, pe.peer)?;
        let peer_uri = match peer_seq.as_slice() {
            [item] => string_value(self.store, item),
            _ => return Err(EvalError::new("execute at peer must be a single item")),
        };
        let mut bound = Vec::with_capacity(pe.params.len());
        for p in &pe.params {
            bound.push((p.var.clone(), self.lookup(&p.outer)?));
        }
        match &mut self.remote {
            Some(handler) => handler.execute(
                self.store,
                &self.static_ctx,
                &peer_uri,
                &bound,
                &pe.body,
                pe.projection.as_deref(),
            ),
            None => Err(EvalError::new(
                "execute at: no remote handler configured (local-only evaluator)",
            )),
        }
    }

    /// Binds the parameters of one compiled `Op::Execute` from the current
    /// environment into a [`ScatterCall`].
    fn bind_scatter_call<'p>(
        &self,
        plan: &'p Plan,
        exec: OpRef,
    ) -> EvalResult<ScatterCall<'p>> {
        let Op::Execute(pe) = plan.op(exec) else {
            unreachable!("scatter detection only selects Execute expressions");
        };
        let peer =
            pe.literal_peer.clone().expect("scatter detection requires a literal peer");
        let mut bound = Vec::with_capacity(pe.params.len());
        for p in &pe.params {
            bound.push((p.var.clone(), self.lookup(&p.outer)?));
        }
        Ok(ScatterCall { peer, params: bound, body: &pe.body, projection: pe.projection.as_deref() })
    }

    fn eval_sequence_scatter(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        items: &[OpRef],
        idxs: &[usize],
    ) -> EvalResult {
        let mut calls = Vec::with_capacity(idxs.len());
        for &i in idxs {
            calls.push(self.bind_scatter_call(plan, items[i])?);
        }
        let handler = self.remote.as_mut().expect("scatter path requires a handler");
        let gathered = handler.execute_scatter(self.store, &self.static_ctx, &calls)?;
        let mut by_idx: Vec<Option<Sequence>> = vec![None; items.len()];
        for (&i, seq) in idxs.iter().zip(gathered) {
            by_idx[i] = Some(seq);
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            match by_idx[i].take() {
                Some(seq) => seq.append_to(&mut out),
                None => self.eval_op(plan, run, x)?.append_to(&mut out),
            }
        }
        Ok(out.into())
    }

    /// Evaluates the two operands of a binary op, fanning them out as a
    /// two-call scatter round when the compile-time flag is set and a remote
    /// handler is attached.
    fn eval_operand_pair(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        lhs: OpRef,
        rhs: OpRef,
        scatter: bool,
    ) -> EvalResult<(Sequence, Sequence)> {
        let fan_out = scatter && self.remote.is_some();
        if fan_out {
            let calls = vec![
                self.bind_scatter_call(plan, lhs)?,
                self.bind_scatter_call(plan, rhs)?,
            ];
            let handler = self.remote.as_mut().expect("scatter path requires a handler");
            let mut gathered = handler.execute_scatter(self.store, &self.static_ctx, &calls)?;
            let r = gathered.pop().expect("two results for two calls");
            let l = gathered.pop().expect("two results for two calls");
            return Ok((l, r));
        }
        Ok((self.eval_op(plan, run, lhs)?, self.eval_op(plan, run, rhs)?))
    }

    /// One Bulk RPC for the whole loop: every iteration binds its lets and
    /// parameters (unwinding the environment on error) before anything is
    /// sent.
    fn eval_bulk_for(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        var: SymId,
        input: Sequence,
        b: &PlanBulk,
    ) -> EvalResult {
        let Op::Execute(pe) = plan.op(b.exec) else {
            unreachable!("bulk detection records an Execute op");
        };
        let peer = pe.literal_peer.as_deref().expect("bulk detection requires a literal peer");
        let mut calls: Vec<Vec<(String, Sequence)>> = Vec::with_capacity(input.len());
        for item in input.iter() {
            self.env.push((plan.sym(var).to_string(), Sequence::unit(item.clone())));
            let mut pushed = 1usize;
            let mut bound: EvalResult<Vec<(String, Sequence)>> = Ok(Vec::new());
            for (lv, lval) in &b.lets {
                match self.eval_op(plan, run, *lval) {
                    Ok(v) => {
                        self.env.push((plan.sym(*lv).to_string(), v));
                        pushed += 1;
                    }
                    Err(e) => {
                        bound = Err(e);
                        break;
                    }
                }
            }
            if bound.is_ok() {
                let mut params = Vec::with_capacity(pe.params.len());
                for p in &pe.params {
                    match self.lookup(&p.outer) {
                        Ok(v) => params.push((p.var.clone(), v)),
                        Err(e) => {
                            bound = Err(e);
                            break;
                        }
                    }
                }
                if bound.is_ok() {
                    bound = Ok(params);
                }
            }
            for _ in 0..pushed {
                self.env.pop();
            }
            calls.push(bound?);
        }
        let handler = self.remote.as_mut().expect("bulk path requires a handler");
        let results = handler.execute_bulk(
            self.store,
            &self.static_ctx,
            peer,
            &calls,
            &pe.body,
            pe.projection.as_deref(),
        )?;
        Ok(results.into_iter().flatten().collect())
    }

    fn eval_path(
        &mut self,
        plan: &Plan,
        run: &mut PlanRun,
        start: Option<OpRef>,
        steps: &[PlanStep],
    ) -> EvalResult {
        let mut current: Sequence = match start {
            Some(op) => self.eval_op(plan, run, op)?,
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
        for step in steps {
            if step.indexed {
                let PlanTest::Named(sym) = step.test else {
                    unreachable!("compile gates indexed steps to named tests")
                };
                // same error the scan path raises on an atomic context item
                if current.iter().any(|i| matches!(i, Item::Atom(_))) {
                    return Err(EvalError::new("axis step applied to an atomic value"));
                }
                current = match run.names.resolve(&plan.syms, self.store, sym) {
                    // QName not interned in this store: matches nothing
                    None => Sequence::new(),
                    Some(id) => self.staircase_named(&current, step.axis, id)?,
                };
                continue;
            }
            let mut result: Vec<Item> = Vec::new();
            for item in current.iter() {
                let Item::Node(node) = *item else {
                    return Err(EvalError::new("axis step applied to an atomic value"));
                };
                // re-resolved per context node (through the cache): a
                // predicate may construct, and so intern, this step's name
                let test = match step.test {
                    PlanTest::Named(s) => run
                        .names
                        .resolve(&plan.syms, self.store, s)
                        .map(NodeTest::Name)
                        .unwrap_or(NodeTest::UnknownName),
                    PlanTest::Wildcard => NodeTest::Wildcard,
                    PlanTest::AnyKind => NodeTest::AnyKind,
                    PlanTest::Text => NodeTest::Text,
                    PlanTest::Comment => NodeTest::Comment,
                };
                let mut candidates = self.axis_scan(node, step.axis, &test);
                for pred in &step.preds {
                    candidates =
                        self.apply_predicate(&candidates, pred, |ev, &p| ev.eval_op(plan, run, p))?;
                }
                result.extend(candidates);
            }
            sort_document_order(&mut result)?;
            current = result.into();
        }
        Ok(current)
    }

    /// Answers an indexed `axis::name` step over the whole context sequence
    /// from the per-document name indexes: contexts are grouped by
    /// document, sorted and deduplicated, then resolved with staircase
    /// interval lookups; the final cross-document `sort_document_order`
    /// matches the scan's post-step normalization exactly.
    fn staircase_named(&mut self, current: &Sequence, axis: Axis, name_id: NameId) -> EvalResult {
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
            let Item::Node(n) = item else { unreachable!("the caller rejects atomic contexts") };
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
        name_id: NameId,
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
            _ => unreachable!("compile_steps gates the indexed axes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn store_with(doc: &str) -> Store {
        let mut s = Store::new();
        xqd_xml::parse_document(&mut s, doc, Some("d.xml")).unwrap();
        s
    }

    /// Reference walker vs compiled plan over the same document, both
    /// engines' results (or errors) returned for comparison.
    fn run_both(src: &str, doc: &str, use_indexes: bool) -> (EvalResult, EvalResult) {
        let module = parse_query(src).unwrap();
        let interp = {
            let mut s = store_with(doc);
            crate::reference_eval(&mut s, &module)
        };
        let compiled = {
            let mut s = store_with(doc);
            let plan = compile_query(&module, use_indexes, &StaticContext::default());
            let mut resolver = LocalResolver;
            let mut ev = Evaluator::new(&mut s, &module.functions, &mut resolver);
            plan.eval(&mut ev)
        };
        (interp, compiled)
    }

    const DOC: &str = r#"<root><group id="g1"><item id="k1"><v>7</v></item>
        <item id="k2"><v>12</v></item></group>
        <group id="g2"><item id="k3"><v>30</v></item><entry>x</entry></group></root>"#;

    #[test]
    fn compiled_matches_interpreter_on_core_shapes() {
        let queries = [
            "count(doc(\"d.xml\")//item)",
            "doc(\"d.xml\")//item/@id",
            "for $x in doc(\"d.xml\")//v order by $x descending return $x/text()",
            "sum(for $v in doc(\"d.xml\")//v return $v)",
            "(doc(\"d.xml\")//v)[2]",
            "count(doc(\"d.xml\")//item[v > 10])",
            "doc(\"d.xml\")//group except doc(\"d.xml\")//group[@id = \"g2\"]",
            "element out { doc(\"d.xml\")//item/@id }",
            "string-join(for $i in doc(\"d.xml\")//item return name($i), \",\")",
            "typeswitch ((doc(\"d.xml\")//item)[1]) case $e as element(item) \
             return name($e) default $d return \"none\"",
            "declare function f($n as node()) as xs:string { name($n) }; \
             for $g in doc(\"d.xml\")//group return f($g)",
            "some $x in doc(\"d.xml\")//item satisfies $x/@id = \"k2\"",
            "(doc(\"d.xml\")//item)[1] << (doc(\"d.xml\")//item)[2]",
        ];
        for q in queries {
            for idx in [true, false] {
                let (interp, compiled) = run_both(q, DOC, idx);
                assert_eq!(
                    format!("{interp:?}"),
                    format!("{compiled:?}"),
                    "engines diverged on {q} (indexes={idx})"
                );
            }
        }
    }

    #[test]
    fn errors_match_verbatim() {
        let cases = [
            "1 div 0",
            "nosuchfn(1)",
            "count(1, 2)",     // wrong builtin arity -> unknown function
            "sum(doc(\"d.xml\")//item) + missing()",
            "(1)/child::a",    // axis step on an atomic
            "declare function g($a) { g($a) }; g(1)", // depth exceeded
        ];
        for q in cases {
            let (interp, compiled) = run_both(q, DOC, true);
            assert_eq!(
                interp.unwrap_err(),
                compiled.unwrap_err(),
                "error divergence on {q}"
            );
        }
    }

    /// An untyped value casts to `xs:double` only from the XSD lexical
    /// space: `Infinity` and `inf` are Rust spellings, not XSD ones, and
    /// raise exactly as `abc` does; `INF`, `-INF` and `NaN` are XSD's.
    #[test]
    fn untyped_to_double_accepts_only_the_xsd_spellings() {
        let doc = "<r><a>Infinity</a><a>inf</a><a>abc</a><a> -INF </a><a>NaN</a></r>";
        let cases = [
            ("doc(\"d.xml\")/r/a[1] > 40", "Err(cannot cast Untyped(\"Infinity\") to number)"),
            ("doc(\"d.xml\")/r/a[2] < 40", "Err(cannot cast Untyped(\"inf\") to number)"),
            ("doc(\"d.xml\")/r/a[3] < 40", "Err(cannot cast Untyped(\"abc\") to number)"),
            ("number(\"infinity\")", "Ok([Atom(Dbl(NaN))])"),
            ("40 > doc(\"d.xml\")/r/a[4]", "Ok([Atom(Bool(true))])"),
            ("doc(\"d.xml\")/r/a[5] != 40", "Ok([Atom(Bool(false))])"),
            ("number(\"+INF\") = number(\"1e400\")", "Ok([Atom(Bool(true))])"),
        ];
        for (q, want) in cases {
            let (interp, compiled) = run_both(q, doc, true);
            for got in [interp, compiled] {
                let got = match got {
                    Ok(seq) => format!("Ok({seq:?})"),
                    Err(e) => format!("Err({})", e.message),
                };
                assert_eq!(got, want, "{q}");
            }
        }
    }

    #[test]
    fn constants_fold_to_single_op() {
        let module = parse_query("1 + 2 * 3").unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        assert_eq!(plan.consts_folded, 1, "one folded root constant");
        assert_eq!(plan.ops.len(), 1);
        assert!(matches!(plan.op(plan.root), Op::Const(s) if s.len() == 1));
    }

    #[test]
    fn erroring_constant_is_not_folded() {
        let module = parse_query("1 div 0").unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        assert_eq!(plan.consts_folded, 0);
        assert!(matches!(plan.op(plan.root), Op::Arith { .. }));
    }

    #[test]
    fn static_context_constants_fold() {
        let module = parse_query("concat(static-base-uri(), \"!\")").unwrap();
        let ctx =
            StaticContext { base_uri: "http://example.org/q".into(), ..Default::default() };
        let plan = compile_query(&module, true, &ctx);
        assert_eq!(plan.consts_folded, 1);
        let Op::Const(seq) = plan.op(plan.root) else { panic!("expected folded const") };
        assert_eq!(
            format!("{seq:?}"),
            "[Atom(Str(\"http://example.org/q!\"))]"
        );
    }

    #[test]
    fn index_strategy_is_baked_per_step() {
        let module = parse_query("doc(\"d.xml\")//item[v > 5]/child::v").unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        let path = plan
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Path { steps, .. } if steps.len() > 1 => Some(steps),
                _ => None,
            })
            .expect("the outer multi-step path op");
        // //item[v > 5] cannot fuse (predicate) -> descendant-or-self scan,
        // then predicated child::item scan, then indexed child::v
        assert!(path.iter().any(|s| s.indexed && !s.fused), "child::v should be indexed");
        assert!(path.iter().any(|s| !s.indexed), "predicated step must scan");

        let nofuse = compile_query(&module, false, &StaticContext::default());
        for op in &nofuse.ops {
            if let Op::Path { steps, .. } = op {
                assert!(
                    steps.iter().all(|s| !s.indexed && !s.fused),
                    "indexes off must compile every step as a scan"
                );
            }
        }
    }

    #[test]
    fn descendant_fusion_is_baked() {
        let module = parse_query("doc(\"d.xml\")//item").unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        let fused: Vec<&PlanStep> = plan
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Path { steps, .. } => Some(steps.iter().filter(|s| s.fused)),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(fused.len(), 1, "//item collapses into one fused step");
        assert_eq!(fused[0].axis, Axis::Descendant);
        assert!(fused[0].indexed);
    }

    #[test]
    fn names_resolve_lazily_for_constructed_docs() {
        // "made" is interned only when the constructor runs; the compiled
        // plan must still find the constructed element afterwards
        let q = "count(element wrap { element made { } }//made)";
        let (interp, compiled) = run_both(q, DOC, true);
        assert_eq!(format!("{interp:?}"), format!("{compiled:?}"));
        assert_eq!(format!("{compiled:?}"), "Ok([Atom(Int(1))])");
    }

    #[test]
    fn dump_lists_ops_and_step_strategies() {
        let module = parse_query("doc(\"d.xml\")//item[v > 5]").unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        let dump = plan.dump();
        assert!(dump.contains("plan:"), "{dump}");
        assert!(dump.contains("[scan"), "scan strategy shown: {dump}");
        assert!(dump.contains("call doc"), "{dump}");
        assert!(dump.contains("root: @"), "{dump}");
    }

    #[test]
    fn scatter_rounds_recorded_in_plan() {
        let q = "let $a := execute at { \"p1\" } params () { 1 } \
                 let $b := execute at { \"p2\" } params () { 2 } \
                 return ($a, $b)";
        let module = parse_query(q).unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        assert!(
            plan.ops.iter().any(|op| matches!(op, Op::LetScatter { binds, .. } if binds.len() == 2)),
            "let-chain compiles to a scatter op:\n{}",
            plan.dump()
        );
    }

    #[test]
    fn bulk_shape_recorded_on_for() {
        let q = "for $x in (1, 2) return execute at { \"p1\" } params () { 0 }";
        let module = parse_query(q).unwrap();
        let plan = compile_query(&module, true, &StaticContext::default());
        assert!(
            plan.ops.iter().any(|op| matches!(op, Op::For { bulk: Some(_), .. })),
            "bulk shape detected at compile time:\n{}",
            plan.dump()
        );
    }
}
