//! The **dependency graph** (d-graph) of Section III-A.
//!
//! A d-graph is the parse tree of an XCore expression plus *varref edges*
//! from every variable use to the `Var` vertex that binds it. Following the
//! paper, consecutive path steps become a chain of `AxisStep` vertices with
//! the innermost expression at the bottom (Fig. 2: `v4:/person → v5:/people
//! → v6:FunCall[doc]`), and `For`/`Let` vertices own a `Var` vertex whose
//! single child is the binding's value expression.
//!
//! The graph is bidirectionally convertible with [`Expr`]: analysis and
//! XRPCExpr insertion (Section III-B) are performed on the graph, then the
//! rewritten query is extracted back for execution.

use xqd_xml::Axis;
use xqd_xquery::ast::{
    CaseClause, Constructor, ElemName, ExecProjection, Expr, NameTest, OrderSpec, SeqType, Step,
    XrpcParam,
};
use xqd_xquery::{Atomic, EvalError};

/// Vertex identifier within one [`DGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Grammar rule represented by a vertex (Table II + rules 27–28, plus the
/// surface extensions that the analysis treats like their closest rule).
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    Literal(Atomic),
    Empty,
    /// Sequence construction (rule 2) — children are the members.
    ExprSeq,
    /// Binding occurrence of a variable; child 0 is the value expression.
    Var(String),
    VarRef(String),
    ContextItem,
    /// children: [Var, return]
    ForExpr,
    /// children: [Var, return]
    LetExpr,
    /// children: [cond, then, else]
    IfExpr,
    /// children: [input, case bodies…, default body]
    Typeswitch { cases: Vec<(String, SeqType)>, default_var: String },
    CompExpr(xqd_xquery::ast::CompOp),
    NodeCmp(xqd_xquery::ast::NodeCompOp),
    /// children: [input, keys…]
    OrderExpr(Vec<bool>),
    NodeSetExpr(xqd_xquery::ast::NodeSetOp),
    /// children: `[content]` or `[computed-name, content]`
    Constructor { kind: ConstructorKind, static_name: Option<String> },
    /// One path step; children: [input, predicates…].
    AxisStep { axis: Axis, test: NameTest },
    /// Leading `/` — the context document root.
    Root,
    /// Positional filter kept from the surface syntax;
    /// children: [input, predicate].
    Filter,
    FunCall(String),
    Arith(xqd_xquery::ast::ArithOp),
    And,
    Or,
    /// children: [peer, body, XRPCParam…]
    XRPCExpr { projection: Option<Box<ExecProjection>> },
    /// Leaf; `outer` resolves through a varref edge.
    XRPCParam { var: String, outer: String },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructorKind {
    Document,
    Text,
    Element,
    Attribute,
}

/// One vertex: rule, ordered parse-edge children, optional varref edge,
/// parent back-pointer.
#[derive(Debug, Clone)]
pub struct Vertex {
    pub rule: Rule,
    pub children: Vec<VertexId>,
    /// For `VarRef` and `XRPCParam` vertices: the `Var` vertex referenced.
    pub varref: Option<VertexId>,
    pub parent: Option<VertexId>,
}

/// The dependency graph.
#[derive(Debug, Clone)]
pub struct DGraph {
    verts: Vec<Vertex>,
    pub root: VertexId,
}

impl DGraph {
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.verts[id.0 as usize]
    }

    pub fn vertex_mut(&mut self, id: VertexId) -> &mut Vertex {
        &mut self.verts[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.verts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    pub fn ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.verts.len() as u32).map(VertexId)
    }

    fn push(&mut self, rule: Rule, children: Vec<VertexId>) -> VertexId {
        let id = VertexId(self.verts.len() as u32);
        for &c in &children {
            self.verts[c.0 as usize].parent = Some(id);
        }
        self.verts.push(Vertex { rule, children, varref: None, parent: None });
        id
    }

    /// `x ⊑p y`: is `y` reachable from `x` via parse edges only
    /// (reflexively)?
    pub fn parse_reaches(&self, x: VertexId, y: VertexId) -> bool {
        // equivalently: x is an ancestor-or-self of y in the parse tree
        let mut cur = Some(y);
        while let Some(c) = cur {
            if c == x {
                return true;
            }
            cur = self.vertex(c).parent;
        }
        false
    }

    /// `x ⊑ y`: is `y` reachable from `x` via parse and varref edges
    /// (reflexively)? This is the paper's "x depends on y".
    pub fn depends_on(&self, x: VertexId, y: VertexId) -> bool {
        let mut seen = vec![false; self.verts.len()];
        let mut stack = vec![x];
        while let Some(v) = stack.pop() {
            if v == y {
                return true;
            }
            if seen[v.0 as usize] {
                continue;
            }
            seen[v.0 as usize] = true;
            let vert = self.vertex(v);
            stack.extend(vert.children.iter().copied());
            if let Some(t) = vert.varref {
                stack.push(t);
            }
        }
        false
    }

    /// All vertices in the subgraph of `rs` (parse-edge induced, including
    /// `rs`), preorder.
    pub fn subgraph(&self, rs: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut stack = vec![rs];
        while let Some(v) = stack.pop() {
            out.push(v);
            stack.extend(self.vertex(v).children.iter().rev().copied());
        }
        out
    }

    /// Varref edges leaving the subgraph of `rs`: pairs of
    /// (referencing vertex inside, `Var` vertex outside).
    pub fn outgoing_varrefs(&self, rs: VertexId) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::new();
        for v in self.subgraph(rs) {
            if let Some(target) = self.vertex(v).varref {
                if !self.parse_reaches(rs, target) {
                    out.push((v, target));
                }
            }
        }
        out
    }

    /// Human-readable vertex label (Fig. 2 style).
    pub fn label(&self, id: VertexId) -> String {
        match &self.vertex(id).rule {
            Rule::Literal(a) => format!("Literal[{}]", a.to_lexical()),
            Rule::Empty => "()".to_string(),
            Rule::ExprSeq => "ExprSeq".to_string(),
            Rule::Var(v) => format!("Var[${v}]"),
            Rule::VarRef(v) => format!("VarRef[${v}]"),
            Rule::ContextItem => ".".to_string(),
            Rule::ForExpr => "ForExpr".to_string(),
            Rule::LetExpr => "LetExpr".to_string(),
            Rule::IfExpr => "IfExpr".to_string(),
            Rule::Typeswitch { .. } => "Typeswitch".to_string(),
            Rule::CompExpr(op) => op.symbol().to_string(),
            Rule::NodeCmp(op) => op.symbol().to_string(),
            Rule::OrderExpr(_) => "OrderExpr".to_string(),
            Rule::NodeSetExpr(op) => op.keyword().to_string(),
            Rule::Constructor { kind, static_name } => match static_name {
                Some(n) => format!("{kind:?}[{n}]"),
                None => format!("{kind:?}"),
            },
            Rule::AxisStep { axis, test } => {
                if *axis == Axis::Child {
                    format!("/{test}")
                } else if *axis == Axis::Attribute {
                    format!("@{test}")
                } else {
                    format!("/{}::{test}", axis.name())
                }
            }
            Rule::Root => "/".to_string(),
            Rule::Filter => "Filter".to_string(),
            Rule::FunCall(n) => format!("FunCall[{n}]"),
            Rule::Arith(op) => op.symbol().to_string(),
            Rule::And => "and".to_string(),
            Rule::Or => "or".to_string(),
            Rule::XRPCExpr { .. } => "XRPCExpr".to_string(),
            Rule::XRPCParam { var, outer } => format!("XRPCParam[${var}:=${outer}]"),
        }
    }

    /// Multi-line dump used by the `decompose_explain` example and tests.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for id in self.ids() {
            let v = self.vertex(id);
            out.push_str(&format!(
                "v{}: {} children={:?}",
                id.0,
                self.label(id),
                v.children.iter().map(|c| c.0).collect::<Vec<_>>()
            ));
            if let Some(t) = v.varref {
                out.push_str(&format!(" varref→v{}", t.0));
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the d-graph of a normalized XCore expression. Fails on unbound
/// variables (the normalizer guarantees closed queries).
pub fn build_dgraph(expr: &Expr) -> Result<DGraph, EvalError> {
    let mut g = DGraph { verts: Vec::new(), root: VertexId(0) };
    let mut scope: Vec<(String, VertexId)> = Vec::new();
    let root = build(&mut g, expr, &mut scope)?;
    g.root = root;
    Ok(g)
}

fn lookup(scope: &[(String, VertexId)], name: &str) -> Option<VertexId> {
    scope.iter().rev().find(|(n, _)| n == name).map(|(_, v)| *v)
}

fn build(
    g: &mut DGraph,
    e: &Expr,
    scope: &mut Vec<(String, VertexId)>,
) -> Result<VertexId, EvalError> {
    Ok(match e {
        Expr::Literal(a) => g.push(Rule::Literal(a.clone()), vec![]),
        Expr::Empty => g.push(Rule::Empty, vec![]),
        Expr::Sequence(es) => {
            let kids = es
                .iter()
                .map(|x| build(g, x, scope))
                .collect::<Result<Vec<_>, _>>()?;
            g.push(Rule::ExprSeq, kids)
        }
        Expr::VarRef(v) => {
            let target = lookup(scope, v);
            let id = g.push(Rule::VarRef(v.clone()), vec![]);
            // unbound refs are tolerated (shipped bodies reference params
            // bound at runtime); they simply carry no varref edge
            g.vertex_mut(id).varref = target;
            id
        }
        Expr::ContextItem => g.push(Rule::ContextItem, vec![]),
        Expr::For { var, seq, ret } | Expr::Let { var, value: seq, ret } => {
            let is_for = matches!(e, Expr::For { .. });
            let value = build(g, seq, scope)?;
            let var_vertex = g.push(Rule::Var(var.clone()), vec![value]);
            scope.push((var.clone(), var_vertex));
            let ret_vertex = build(g, ret, scope);
            scope.pop();
            let rule = if is_for { Rule::ForExpr } else { Rule::LetExpr };
            g.push(rule, vec![var_vertex, ret_vertex?])
        }
        Expr::If { cond, then, els } => {
            let c = build(g, cond, scope)?;
            let t = build(g, then, scope)?;
            let f = build(g, els, scope)?;
            g.push(Rule::IfExpr, vec![c, t, f])
        }
        Expr::Typeswitch { input, cases, default_var, default } => {
            // children: [input, case1 Var, case1 body, …, default Var, default body]
            let mut kids = vec![build(g, input, scope)?];
            let mut case_meta = Vec::new();
            for c in cases {
                case_meta.push((c.var.clone(), c.seq_type.clone()));
                let var_vertex = g.push(Rule::Var(c.var.clone()), vec![]);
                kids.push(var_vertex);
                scope.push((c.var.clone(), var_vertex));
                let body = build(g, &c.body, scope);
                scope.pop();
                kids.push(body?);
            }
            let dvar = g.push(Rule::Var(default_var.clone()), vec![]);
            kids.push(dvar);
            scope.push((default_var.clone(), dvar));
            let dbody = build(g, default, scope);
            scope.pop();
            kids.push(dbody?);
            g.push(
                Rule::Typeswitch { cases: case_meta, default_var: default_var.clone() },
                kids,
            )
        }
        Expr::Comparison { op, lhs, rhs } => {
            let l = build(g, lhs, scope)?;
            let r = build(g, rhs, scope)?;
            g.push(Rule::CompExpr(*op), vec![l, r])
        }
        Expr::NodeComparison { op, lhs, rhs } => {
            let l = build(g, lhs, scope)?;
            let r = build(g, rhs, scope)?;
            g.push(Rule::NodeCmp(*op), vec![l, r])
        }
        Expr::OrderBy { input, specs } => {
            let mut kids = vec![build(g, input, scope)?];
            let mut desc = Vec::new();
            for s in specs {
                kids.push(build(g, &s.key, scope)?);
                desc.push(s.descending);
            }
            g.push(Rule::OrderExpr(desc), kids)
        }
        Expr::NodeSet { op, lhs, rhs } => {
            let l = build(g, lhs, scope)?;
            let r = build(g, rhs, scope)?;
            g.push(Rule::NodeSetExpr(*op), vec![l, r])
        }
        Expr::Construct(c) => {
            let (kind, name, content) = match c {
                Constructor::Document { content } => (ConstructorKind::Document, None, content),
                Constructor::Text { content } => (ConstructorKind::Text, None, content),
                Constructor::Element { name, content } => {
                    (ConstructorKind::Element, Some(name), content)
                }
                Constructor::Attribute { name, content } => {
                    (ConstructorKind::Attribute, Some(name), content)
                }
            };
            let mut kids = Vec::new();
            let static_name = match name {
                Some(ElemName::Static(n)) => Some(n.clone()),
                Some(ElemName::Computed(e)) => {
                    kids.push(build(g, e, scope)?);
                    None
                }
                None => None,
            };
            kids.push(build(g, content, scope)?);
            g.push(Rule::Constructor { kind, static_name }, kids)
        }
        Expr::Path { start, steps } => {
            let mut cur = match start {
                Some(s) => build(g, s, scope)?,
                None => g.push(Rule::Root, vec![]),
            };
            for step in steps {
                let mut kids = vec![cur];
                for p in &step.predicates {
                    kids.push(build(g, p, scope)?);
                }
                cur = g.push(Rule::AxisStep { axis: step.axis, test: step.test.clone() }, kids);
            }
            cur
        }
        Expr::Filter { input, predicate } => {
            let i = build(g, input, scope)?;
            let p = build(g, predicate, scope)?;
            g.push(Rule::Filter, vec![i, p])
        }
        Expr::FunCall { name, args } => {
            let kids = args
                .iter()
                .map(|a| build(g, a, scope))
                .collect::<Result<Vec<_>, _>>()?;
            g.push(Rule::FunCall(name.clone()), kids)
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            let lv = build(g, l, scope)?;
            let rv = build(g, r, scope)?;
            g.push(if matches!(e, Expr::And(..)) { Rule::And } else { Rule::Or }, vec![lv, rv])
        }
        Expr::Arith { op, lhs, rhs } => {
            let l = build(g, lhs, scope)?;
            let r = build(g, rhs, scope)?;
            g.push(Rule::Arith(*op), vec![l, r])
        }
        Expr::Execute { peer, params, body, projection } => {
            let p = build(g, peer, scope)?;
            // params bind inside the body; their outer refs resolve here
            let mut param_ids = Vec::new();
            for param in params {
                let target = lookup(scope, &param.outer);
                let id = g.push(
                    Rule::XRPCParam { var: param.var.clone(), outer: param.outer.clone() },
                    vec![],
                );
                g.vertex_mut(id).varref = target;
                param_ids.push(id);
            }
            let n_before = scope.len();
            for (param, &id) in params.iter().zip(&param_ids) {
                scope.push((param.var.clone(), id));
            }
            let body_vertex = build(g, body, scope);
            scope.truncate(n_before);
            let mut kids = vec![p, body_vertex?];
            kids.extend(param_ids);
            g.push(Rule::XRPCExpr { projection: projection.clone() }, kids)
        }
    })
}

/// Extracts the expression represented by the subgraph rooted at `id`.
pub fn extract_expr(g: &DGraph, id: VertexId) -> Expr {
    let v = g.vertex(id);
    match &v.rule {
        Rule::Literal(a) => Expr::Literal(a.clone()),
        Rule::Empty => Expr::Empty,
        Rule::ExprSeq => {
            Expr::Sequence(v.children.iter().map(|&c| extract_expr(g, c)).collect())
        }
        Rule::Var(_) => extract_expr(g, v.children[0]),
        Rule::VarRef(name) => Expr::VarRef(name.clone()),
        Rule::ContextItem => Expr::ContextItem,
        Rule::ForExpr | Rule::LetExpr => {
            let var_vertex = g.vertex(v.children[0]);
            let Rule::Var(name) = &var_vertex.rule else {
                unreachable!("For/Let child 0 must be Var");
            };
            let value = extract_expr(g, var_vertex.children[0]).boxed();
            let ret = extract_expr(g, v.children[1]).boxed();
            if matches!(v.rule, Rule::ForExpr) {
                Expr::For { var: name.clone(), seq: value, ret }
            } else {
                Expr::Let { var: name.clone(), value, ret }
            }
        }
        Rule::IfExpr => Expr::If {
            cond: extract_expr(g, v.children[0]).boxed(),
            then: extract_expr(g, v.children[1]).boxed(),
            els: extract_expr(g, v.children[2]).boxed(),
        },
        Rule::Typeswitch { cases, default_var } => {
            // children: [input, case1 Var, case1 body, …, default Var, default body]
            let input = extract_expr(g, v.children[0]).boxed();
            let case_clauses = cases
                .iter()
                .enumerate()
                .map(|(i, (var, ty))| CaseClause {
                    var: var.clone(),
                    seq_type: ty.clone(),
                    body: extract_expr(g, v.children[2 + 2 * i]),
                })
                .collect();
            Expr::Typeswitch {
                input,
                cases: case_clauses,
                default_var: default_var.clone(),
                default: extract_expr(g, *v.children.last().unwrap()).boxed(),
            }
        }
        Rule::CompExpr(op) => Expr::Comparison {
            op: *op,
            lhs: extract_expr(g, v.children[0]).boxed(),
            rhs: extract_expr(g, v.children[1]).boxed(),
        },
        Rule::NodeCmp(op) => Expr::NodeComparison {
            op: *op,
            lhs: extract_expr(g, v.children[0]).boxed(),
            rhs: extract_expr(g, v.children[1]).boxed(),
        },
        Rule::OrderExpr(desc) => Expr::OrderBy {
            input: extract_expr(g, v.children[0]).boxed(),
            specs: v.children[1..]
                .iter()
                .zip(desc)
                .map(|(&k, &d)| OrderSpec { key: extract_expr(g, k), descending: d })
                .collect(),
        },
        Rule::NodeSetExpr(op) => Expr::NodeSet {
            op: *op,
            lhs: extract_expr(g, v.children[0]).boxed(),
            rhs: extract_expr(g, v.children[1]).boxed(),
        },
        Rule::Constructor { kind, static_name } => {
            let (name, content_idx) = match (static_name, v.children.len()) {
                (Some(n), _) => (Some(ElemName::Static(n.clone())), 0),
                (None, 2) => (Some(ElemName::Computed(extract_expr(g, v.children[0]).boxed())), 1),
                (None, _) => (None, 0),
            };
            let content = extract_expr(g, v.children[content_idx]).boxed();
            Expr::Construct(match kind {
                ConstructorKind::Document => Constructor::Document { content },
                ConstructorKind::Text => Constructor::Text { content },
                ConstructorKind::Element => {
                    Constructor::Element { name: name.expect("element name"), content }
                }
                ConstructorKind::Attribute => {
                    Constructor::Attribute { name: name.expect("attribute name"), content }
                }
            })
        }
        Rule::AxisStep { axis, test } => {
            let input = v.children[0];
            let predicates = v.children[1..].iter().map(|&p| extract_expr(g, p)).collect();
            let step = Step { axis: *axis, test: test.clone(), predicates };
            // merge with an inner path when possible for readability
            match extract_expr(g, input) {
                Expr::Path { start, mut steps } => {
                    steps.push(step);
                    Expr::Path { start, steps }
                }
                inner if matches!(g.vertex(input).rule, Rule::Root) => {
                    let _ = inner;
                    Expr::Path { start: None, steps: vec![step] }
                }
                inner => Expr::Path { start: Some(inner.boxed()), steps: vec![step] },
            }
        }
        Rule::Root => Expr::Path { start: None, steps: vec![] },
        Rule::Filter => Expr::Filter {
            input: extract_expr(g, v.children[0]).boxed(),
            predicate: extract_expr(g, v.children[1]).boxed(),
        },
        Rule::FunCall(name) => Expr::FunCall {
            name: name.clone(),
            args: v.children.iter().map(|&c| extract_expr(g, c)).collect(),
        },
        Rule::Arith(op) => Expr::Arith {
            op: *op,
            lhs: extract_expr(g, v.children[0]).boxed(),
            rhs: extract_expr(g, v.children[1]).boxed(),
        },
        Rule::And => Expr::And(
            extract_expr(g, v.children[0]).boxed(),
            extract_expr(g, v.children[1]).boxed(),
        ),
        Rule::Or => Expr::Or(
            extract_expr(g, v.children[0]).boxed(),
            extract_expr(g, v.children[1]).boxed(),
        ),
        Rule::XRPCExpr { projection } => {
            let peer = extract_expr(g, v.children[0]).boxed();
            let body = extract_expr(g, v.children[1]).boxed();
            let params = v.children[2..]
                .iter()
                .map(|&p| {
                    let Rule::XRPCParam { var, outer } = &g.vertex(p).rule else {
                        unreachable!("XRPCExpr trailing children must be XRPCParam");
                    };
                    XrpcParam { var: var.clone(), outer: outer.clone() }
                })
                .collect();
            Expr::Execute { peer, params, body, projection: projection.clone() }
        }
        Rule::XRPCParam { var, .. } => Expr::VarRef(var.clone()),
    }
}

/// Extracts the whole query.
pub fn to_expr(g: &DGraph) -> Expr {
    extract_expr(g, g.root)
}

/// Support for graph surgery used by XRPCExpr insertion.
impl DGraph {
    /// Adds a fresh vertex (used by the insertion procedure).
    pub fn add_vertex(&mut self, rule: Rule, children: Vec<VertexId>) -> VertexId {
        self.push(rule, children)
    }

    /// Replaces `old_child` with `new_child` in `parent`'s child list.
    pub fn replace_child(&mut self, parent: VertexId, old_child: VertexId, new_child: VertexId) {
        let p = self.vertex_mut(parent);
        for c in &mut p.children {
            if *c == old_child {
                *c = new_child;
            }
        }
        self.vertex_mut(new_child).parent = Some(parent);
    }

    /// Renames all `VarRef[$from]` vertices inside the subgraph of `rs`
    /// whose varref edge targets `target`, pointing them at `new_target`
    /// with name `to`.
    pub fn retarget_varrefs(
        &mut self,
        rs: VertexId,
        target: VertexId,
        to: &str,
        new_target: VertexId,
    ) {
        for v in self.subgraph(rs) {
            let vert = self.vertex_mut(v);
            if vert.varref == Some(target) {
                if let Rule::VarRef(name) = &mut vert.rule {
                    *name = to.to_string();
                }
                vert.varref = Some(new_target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xquery::{normalize, parse_query};

    fn graph_of(q: &str) -> DGraph {
        let m = parse_query(q).unwrap();
        let e = normalize(&m).unwrap();
        build_dgraph(&e).unwrap()
    }

    #[test]
    fn path_steps_become_chained_vertices() {
        let g = graph_of("doc(\"d.xml\")/child::people/child::person");
        // root is the outermost step /person
        match &g.vertex(g.root).rule {
            Rule::AxisStep { test: NameTest::Name(n), .. } => assert_eq!(n, "person"),
            other => panic!("{other:?}"),
        }
        let inner = g.vertex(g.root).children[0];
        match &g.vertex(inner).rule {
            Rule::AxisStep { test: NameTest::Name(n), .. } => assert_eq!(n, "people"),
            other => panic!("{other:?}"),
        }
        let doc = g.vertex(inner).children[0];
        assert!(matches!(&g.vertex(doc).rule, Rule::FunCall(n) if n == "doc"));
    }

    #[test]
    fn varref_edges_resolve_bindings() {
        let g = graph_of("let $s := doc(\"d.xml\") return $s/child::a");
        // find the VarRef vertex and its Var target
        let varref = g
            .ids()
            .find(|&id| matches!(&g.vertex(id).rule, Rule::VarRef(n) if n == "s"))
            .unwrap();
        let target = g.vertex(varref).varref.expect("varref edge");
        assert!(matches!(&g.vertex(target).rule, Rule::Var(n) if n == "s"));
    }

    #[test]
    fn depends_on_via_varref() {
        // mirrors Example 3.1: v15 ⊑v v3 through the varref edge
        let g = graph_of("let $s := doc(\"d.xml\")/child::a return for $x in $s return $x");
        let var_s = g
            .ids()
            .find(|&id| matches!(&g.vertex(id).rule, Rule::Var(n) if n == "s"))
            .unwrap();
        let for_vertex = g
            .ids()
            .find(|&id| matches!(&g.vertex(id).rule, Rule::ForExpr))
            .unwrap();
        assert!(g.depends_on(for_vertex, var_s));
        // but not parse-reachable
        assert!(!g.parse_reaches(for_vertex, var_s));
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        for q in [
            "doc(\"d.xml\")/child::a/child::b",
            "let $s := doc(\"d.xml\") return for $x in $s/child::a return if ($x/child::b = 1) then $x else ()",
            "(doc(\"a.xml\")//x union doc(\"b.xml\")//y) intersect doc(\"a.xml\")//z",
            "element out { doc(\"d.xml\")/child::a }",
            "typeswitch (doc(\"d.xml\")) case $n as node() return $n default $d return ()",
            "for $x in doc(\"d.xml\")//p order by $x/k descending return $x",
            "execute at { \"peer1\" } params ($a := $t) { $a/child::id }",
            "1 + 2 * 3",
            "$u and ($v or $w)",
        ] {
            let m = parse_query(q).unwrap();
            let g = build_dgraph(&m.body).unwrap();
            let back = to_expr(&g);
            // compare printed forms (Path nesting may differ structurally)
            assert_eq!(back.to_string(), m.body.to_string(), "roundtrip of {q}");
        }
    }

    #[test]
    fn subgraph_excludes_siblings() {
        let g = graph_of("let $c := doc(\"b.xml\") return for $e in $c/child::x return $e");
        let for_vertex =
            g.ids().find(|&id| matches!(&g.vertex(id).rule, Rule::ForExpr)).unwrap();
        let sub = g.subgraph(for_vertex);
        // the let's Var[$c] subtree is not part of the for's subgraph
        let var_c = g
            .ids()
            .find(|&id| matches!(&g.vertex(id).rule, Rule::Var(n) if n == "c"))
            .unwrap();
        assert!(!sub.contains(&var_c));
        assert!(sub.contains(&for_vertex));
    }

    #[test]
    fn outgoing_varrefs_found() {
        // mirrors Example 3.2: the for over $c and $t references outside vars
        let g = graph_of(
            "let $c := doc(\"b.xml\") return let $t := doc(\"a.xml\")//p return \
             for $e in $c/child::x return if ($e/attribute::id = $t/child::id) then $e else ()",
        );
        let for_vertex =
            g.ids().find(|&id| matches!(&g.vertex(id).rule, Rule::ForExpr)).unwrap();
        let out = g.outgoing_varrefs(for_vertex);
        let targets: Vec<&str> = out
            .iter()
            .map(|(_, t)| match &g.vertex(*t).rule {
                Rule::Var(n) => n.as_str(),
                _ => "?",
            })
            .collect();
        assert!(targets.contains(&"c"));
        assert!(targets.contains(&"t"));
    }

    #[test]
    fn dump_is_readable() {
        let g = graph_of("doc(\"d.xml\")/child::a");
        let d = g.dump();
        assert!(d.contains("FunCall[doc]"));
        assert!(d.contains("/a"));
    }
}
