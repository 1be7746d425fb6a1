//! The evaluation state both engines run on, and the operator bodies they
//! share.
//!
//! [`Evaluator`] holds the environment, context stack and hooks that a
//! compiled [`Plan`](crate::Plan) drives in production, and that the
//! scan-only reference walker ([`crate::reference_eval`]) drives in tests.
//! Each operator whose semantics do not depend on how its operands were
//! evaluated — arithmetic, node comparison and node sets, the four
//! constructors, the keyed `order by` sort, predicate filtering, function
//! calls and the per-node axis scan — is written here once.
//!
//! Neither engine touches a transport itself: only compiled plans drive the
//! [`RemoteHandler`] hook that `xqd-xrpc` implements with the three message
//! passing semantics. Its one method takes a slice of [`RemoteRequest`]s,
//! one per XRPC request message: a lone call, a Bulk RPC or a scatter round
//! are all the same shape. Non-local `fn:doc` URIs go through the
//! [`DocResolver`] hook. Everything else — node identity, document order, duplicate
//! elimination, constructor copy semantics — is evaluated against the local
//! [`Store`], which is exactly what makes the paper's semantic Problems 1–5
//! reproducible: a shipped fragment is just another document in the
//! receiving store.

use std::cmp::Ordering;
use std::collections::HashSet;

use xqd_xml::axes::{axis_nodes, node_test_matches, NodeTest};
use xqd_xml::{Axis, DocBuilder, DocId, NodeId, NodeKind, Store};

use crate::ast::*;
use crate::builtins;
use crate::compile::compile_query;
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

/// One XRPC request message: the calls of one body at one peer, every
/// parameter sequence already evaluated. A lone `execute at` is a request
/// of one call, the calls of one `for` loop are one request (a Bulk RPC),
/// and a scatter round is several requests of one call each.
pub struct RemoteRequest<'a> {
    pub peer: &'a str,
    pub body: &'a Expr,
    pub projection: Option<&'a ExecProjection>,
    pub calls: &'a [Vec<(String, Sequence)>],
}

/// Sends a compiled plan's remote calls (XRPCExpr) and shreds the
/// responses into the local store.
pub trait RemoteHandler {
    /// Sends `requests` and returns one sequence per call, in request order
    /// and, within a request, in call order. A request's calls share one
    /// network interaction: under pass-by-fragment they share one fragments
    /// preamble, which is what lets Section V drop `ForExpr` from condition
    /// iii. The plan engine only sends several requests at once when their
    /// parameters are independent of each other's results, so a handler may
    /// run them concurrently — but it must stay observably identical to
    /// sending them one by one.
    fn send(
        &mut self,
        local: &mut Store,
        static_ctx: &StaticContext,
        requests: &[RemoteRequest<'_>],
    ) -> EvalResult<Vec<Sequence>>;
}

/// What evaluating an `execute at` raises without a [`RemoteHandler`].
pub(crate) fn no_remote_handler() -> EvalError {
    EvalError::new("execute at: no remote handler configured (local-only evaluator)")
}

pub(crate) const MAX_CALL_DEPTH: usize = 128;

/// The evaluation state a [`Plan`](crate::Plan) runs on. Owns no data;
/// borrows the store and hooks.
///
/// The reference walker ([`crate::reference_eval`]) drives the same state.
/// The operator bodies below are written once and called by both engines,
/// which differ only in how they evaluate an operand.
pub struct Evaluator<'a> {
    pub store: &'a mut Store,
    pub resolver: &'a mut dyn DocResolver,
    pub remote: Option<&'a mut dyn RemoteHandler>,
    pub static_ctx: StaticContext,
    pub(crate) env: Vec<(String, Sequence)>,
    pub(crate) context: Vec<Item>,
    pub(crate) call_depth: usize,
    /// Scratch rank buffer reused across `axis_nodes` / staircase calls so
    /// path evaluation doesn't allocate a fresh `Vec` per step.
    pub(crate) scratch: Vec<u32>,
    /// Per-op profiling hook (`EXPLAIN ANALYZE`); `None` on ordinary runs,
    /// leaving only a branch on the plan engine's dispatch path.
    pub(crate) profile: Option<crate::compile::ProfileHook>,
}

impl<'a> Evaluator<'a> {
    pub fn new(store: &'a mut Store, resolver: &'a mut dyn DocResolver) -> Self {
        Evaluator {
            store,
            resolver,
            remote: None,
            static_ctx: StaticContext::default(),
            env: Vec::new(),
            context: Vec::new(),
            call_depth: 0,
            scratch: Vec::new(),
            profile: None,
        }
    }

    /// Attaches the transport that compiled plans ([`crate::Plan::eval`])
    /// send their `Execute` ops through; the reference walker never uses it.
    pub fn with_remote(mut self, remote: &'a mut dyn RemoteHandler) -> Self {
        self.remote = Some(remote);
        self
    }

    pub fn with_static_context(mut self, ctx: StaticContext) -> Self {
        self.static_ctx = ctx;
        self
    }

    /// Attaches a per-op execution profile, which [`crate::Plan::eval`]
    /// fills in op by op.
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

    // -- operator bodies shared by both engines; `eval` evaluates an operand

    /// `order by`: the keys of each item are evaluated with the item as
    /// context item, then the items sort stably by their [`OrderKey`]s.
    pub(crate) fn order_by<X>(
        &mut self,
        items: Sequence,
        specs: &[OrderSpec<X>],
        mut eval: impl FnMut(&mut Self, &X) -> EvalResult,
    ) -> EvalResult {
        let mut keyed: Vec<(Vec<OrderKey>, usize, Item)> = Vec::with_capacity(items.len());
        for (i, item) in items.into_iter().enumerate() {
            self.context.push(item.clone());
            let keys: EvalResult<Vec<_>> = specs
                .iter()
                .map(|spec| {
                    let seq = eval(self, &spec.key)?;
                    Ok(OrderKey::new(seq.first().map(|k| atomize_item(self.store, k))))
                })
                .collect();
            self.context.pop();
            keyed.push((keys?, i, item));
        }
        keyed.sort_by(|(ka, ia, _), (kb, ib, _)| {
            for (idx, spec) in specs.iter().enumerate() {
                let ord = ka[idx].compare(&kb[idx]);
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            ia.cmp(ib) // stable
        });
        Ok(keyed.into_iter().map(|(_, _, item)| item).collect())
    }

    /// XPath predicate semantics: a numeric predicate selects by position
    /// (1-based, in the order of the input sequence); anything else filters
    /// by effective boolean value with the item as context item.
    pub(crate) fn apply_predicate<X: ?Sized>(
        &mut self,
        input: &[Item],
        pred: &X,
        mut eval: impl FnMut(&mut Self, &X) -> EvalResult,
    ) -> EvalResult<Vec<Item>> {
        let mut out = Vec::new();
        for (i, item) in input.iter().enumerate() {
            self.context.push(item.clone());
            let v = eval(self, pred);
            self.context.pop();
            let v = v?;
            let keep = match v.as_slice() {
                [Item::Atom(a @ (Atomic::Int(_) | Atomic::Dbl(_)))] => {
                    let pos = to_number(a).expect("an Int or Dbl is a number");
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

    /// A function call: the arguments in order, then a builtin of that name
    /// and arity, else `user`, the declared function (its parameter names
    /// and body). A user body sees only its parameters, and calls nest at
    /// most [`MAX_CALL_DEPTH`] deep.
    pub(crate) fn call<'p, X>(
        &mut self,
        name: &str,
        args: &[X],
        user: Option<(impl ExactSizeIterator<Item = &'p str>, &X)>,
        mut eval: impl FnMut(&mut Self, &X) -> EvalResult,
    ) -> EvalResult {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(eval(self, a)?);
        }
        if let Some(result) = builtins::eval_builtin(self, name, &values)? {
            return Ok(result);
        }
        let (params, body) =
            user.ok_or_else(|| EvalError::new(format!("unknown function {name}()")))?;
        if params.len() != values.len() {
            return Err(EvalError::new(format!(
                "{name}() expects {} arguments, got {}",
                params.len(),
                values.len()
            )));
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(EvalError::new(format!("call depth exceeded in {name}()")));
        }
        let saved_env = std::mem::take(&mut self.env);
        let saved_ctx = std::mem::take(&mut self.context);
        self.env.extend(params.map(str::to_string).zip(values));
        self.call_depth += 1;
        let result = eval(self, body);
        self.call_depth -= 1;
        self.env = saved_env;
        self.context = saved_ctx;
        result
    }

    /// The four node constructors; an element or attribute name is
    /// evaluated before the content.
    pub(crate) fn construct<X>(
        &mut self,
        c: &Constructor<X>,
        mut eval: impl FnMut(&mut Self, &X) -> EvalResult,
    ) -> EvalResult {
        let mut b = DocBuilder::new(None);
        let root = match c {
            Constructor::Element { name, content } => {
                let name = self.constructor_name(name, &mut eval)?;
                let content = eval(self, content)?;
                b.start_element(&name);
                self.append_content(&mut b, &content)?;
                b.end_element();
                1
            }
            Constructor::Document { content } => {
                let content = eval(self, content)?;
                self.append_content(&mut b, &content)?;
                0
            }
            Constructor::Text { content } => {
                let content = eval(self, content)?;
                if content.is_empty() {
                    return Ok(Sequence::new());
                }
                b.text(&joined_string_value(self.store, &content));
                1
            }
            Constructor::Attribute { name, content } => {
                let name = self.constructor_name(name, &mut eval)?;
                let content = eval(self, content)?;
                // standalone attribute nodes live under a holder element
                b.start_element("attribute-holder");
                b.attribute(&name, &joined_string_value(self.store, &content));
                b.end_element();
                2
            }
        };
        let doc = self.store.attach(b.finish());
        Ok(Sequence::unit(Item::Node(NodeId::new(doc, root))))
    }

    fn constructor_name<X>(
        &mut self,
        name: &ElemName<X>,
        eval: &mut impl FnMut(&mut Self, &X) -> EvalResult,
    ) -> EvalResult<String> {
        match name {
            ElemName::Static(n) => Ok(n.clone()),
            ElemName::Computed(e) => match eval(self, e)?.as_slice() {
                [item] => Ok(string_value(self.store, item)),
                _ => Err(EvalError::new("computed constructor name must be a single item")),
            },
        }
    }

    /// XQuery content semantics: attribute items first (become attributes of
    /// the enclosing element), nodes are deep-copied, adjacent atomics join
    /// with single spaces into one text node.
    fn append_content(&mut self, b: &mut DocBuilder, content: &[Item]) -> EvalResult<()> {
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

    /// The nodes `axis` reaches from `node` that pass `test`, in axis
    /// order: the per-node scan of a step the indexes do not answer.
    pub(crate) fn axis_scan(&mut self, node: NodeId, axis: Axis, test: &NodeTest) -> Vec<Item> {
        let mut out = Vec::new();
        let mut reached = std::mem::take(&mut self.scratch);
        reached.clear();
        let doc = self.store.doc(node.doc);
        axis_nodes(doc, node.idx, axis, &mut reached);
        for &r in &reached {
            if node_test_matches(doc, r, axis, test) {
                out.push(Item::Node(NodeId::new(node.doc, r)));
            }
        }
        reached.clear();
        self.scratch = reached;
        out
    }
}

/// The string values of `items`, joined with single spaces.
fn joined_string_value(store: &Store, items: &[Item]) -> String {
    items.iter().map(|i| string_value(store, i)).collect::<Vec<_>>().join(" ")
}

/// Arithmetic (XQuery §3.4). Two integers add, subtract, multiply and take
/// `mod` exactly; `div` and every other operand pair compute in `f64`, so a
/// double divided by zero is `INF`, `-INF` or `NaN` per IEEE 754 (F&O
/// §6.2.4, §6.2.6). An operand must be one item (more is `err:XPTY0004`),
/// numeric or untyped; untyped casts to `xs:double` (a text that does not
/// is `err:FORG0001`), and a string or boolean is `err:XPTY0004`.
pub(crate) fn arith(store: &Store, op: ArithOp, l: &[Item], r: &[Item]) -> EvalResult {
    if l.is_empty() || r.is_empty() {
        return Ok(Sequence::new());
    }
    let la = atomize(store, l);
    let ra = atomize(store, r);
    if la.len() != 1 || ra.len() != 1 {
        return Err(EvalError::with_code("err:XPTY0004", "arithmetic on a multi-item sequence"));
    }
    if let (Atomic::Int(a), Atomic::Int(b)) = (&la[0], &ra[0]) {
        return int_arith(op, *a, *b);
    }
    let a = numeric_operand(&la[0], "left")?;
    let b = numeric_operand(&ra[0], "right")?;
    let result = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    };
    Ok(Sequence::unit(Item::Atom(Atomic::Dbl(result))))
}

/// One operand of an arithmetic operator as `xs:double`.
fn numeric_operand(a: &Atomic, side: &str) -> EvalResult<f64> {
    match a {
        Atomic::Int(_) | Atomic::Dbl(_) | Atomic::Untyped(_) => to_number(a).ok_or_else(|| {
            EvalError::with_code("err:FORG0001", format!("{side} operand is not numeric"))
        }),
        Atomic::Str(_) | Atomic::Bool(_) => Err(EvalError::with_code(
            "err:XPTY0004",
            format!("{side} operand of an arithmetic operator is not numeric"),
        )),
    }
}

/// `+`, `-`, `*` and `mod` of two integers in `i64`, and their `div` in
/// `f64`; an overflow is `err:FOAR0002`, and a zero divisor is FOAR0001,
/// named in the message: the error stays untyped so that a peer reports it
/// as the dynamic fault a remote division always was.
fn int_arith(op: ArithOp, a: i64, b: i64) -> EvalResult {
    let exact = match op {
        ArithOp::Div | ArithOp::Mod if b == 0 => {
            let what = if op == ArithOp::Div { "division" } else { "modulo" };
            return Err(EvalError::new(format!("{what} by zero (err:FOAR0001)")));
        }
        ArithOp::Div => return Ok(Sequence::unit(Item::Atom(Atomic::Dbl(a as f64 / b as f64)))),
        ArithOp::Add => a.checked_add(b),
        ArithOp::Sub => a.checked_sub(b),
        ArithOp::Mul => a.checked_mul(b),
        // only i64::MIN mod -1 overflows, and its remainder is 0
        ArithOp::Mod => Some(a.checked_rem(b).unwrap_or(0)),
    };
    let v = exact.ok_or_else(|| {
        EvalError::with_code("err:FOAR0002", format!("integer overflow in {a} {} {b}", op.symbol()))
    })?;
    Ok(Sequence::unit(Item::Atom(Atomic::Int(v))))
}

/// `is`, `<<` and `>>`: empty if either side is, else one node each.
pub(crate) fn node_compare(op: NodeCompOp, l: &[Item], r: &[Item]) -> EvalResult {
    if l.is_empty() || r.is_empty() {
        return Ok(Sequence::new());
    }
    let single = |seq: &[Item]| match seq {
        [Item::Node(n)] => Ok(*n),
        _ => Err(EvalError::new("node comparison requires a single node operand")),
    };
    let (ln, rn) = (single(l)?, single(r)?);
    Ok(Sequence::boolean(match op {
        NodeCompOp::Is => ln == rn,
        NodeCompOp::Before => ln < rn,
        NodeCompOp::After => ln > rn,
    }))
}

/// `union`, `intersect` and `except`, in document order without duplicates.
pub(crate) fn node_set(op: NodeSetOp, l: Sequence, r: Sequence) -> EvalResult {
    let (mut l, mut r) = (l.into_vec(), r.into_vec());
    sort_document_order(&mut l)?;
    sort_document_order(&mut r)?;
    if op == NodeSetOp::Union {
        l.extend(r);
        sort_document_order(&mut l)?;
        return Ok(l.into());
    }
    let rset: HashSet<NodeId> = r
        .iter()
        .filter_map(|i| match i {
            Item::Node(n) => Some(*n),
            Item::Atom(_) => None,
        })
        .collect();
    let keep_shared = op == NodeSetOp::Intersect;
    l.retain(|i| matches!(i, Item::Node(n) if rset.contains(n)) == keep_shared);
    Ok(l.into())
}

/// An `order by` key, classified once before the sort. Keys sort in one
/// total order: empty, then NaN, then the numeric keys by value, then the
/// others by their lexical form. A key is numeric when it casts to a number.
enum OrderKey {
    Empty,
    NaN,
    Number(f64),
    Text(String),
}

impl OrderKey {
    fn new(key: Option<Atomic>) -> Self {
        match key {
            None => OrderKey::Empty,
            Some(a) => match to_number(&a) {
                Some(n) if n.is_nan() => OrderKey::NaN,
                Some(n) => OrderKey::Number(n),
                None => OrderKey::Text(a.to_lexical()),
            },
        }
    }

    fn rank(&self) -> u8 {
        match self {
            OrderKey::Empty => 0,
            OrderKey::NaN => 1,
            OrderKey::Number(_) => 2,
            OrderKey::Text(_) => 3,
        }
    }

    fn compare(&self, other: &Self) -> Ordering {
        match (self, other) {
            (OrderKey::Number(x), OrderKey::Number(y)) => {
                x.partial_cmp(y).expect("NaN ranks apart")
            }
            (OrderKey::Text(x), OrderKey::Text(y)) => x.cmp(y),
            (x, y) => x.rank().cmp(&y.rank()),
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

/// Evaluates a whole module against a store with local-only resolution:
/// compiles it (indexes on, the default static context) and runs the plan.
pub fn eval_query(store: &mut Store, module: &QueryModule) -> EvalResult {
    let plan = compile_query(module, true, &StaticContext::default());
    let mut resolver = LocalResolver;
    plan.eval(&mut Evaluator::new(store, &mut resolver))
}
