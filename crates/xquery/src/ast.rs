//! Abstract syntax for the extended XCore language of Table II
//! (rules 1–26) plus the XRPC extension (rules 27–28).
//!
//! The parser accepts a pragmatic XQuery surface syntax (FLWOR with multiple
//! clauses, `where`, abbreviated steps, predicates, `and`/`or`, arithmetic)
//! and desugars it into this single expression type; the normalizer
//! ([`mod@crate::normalize`]) then reduces the remaining sugar to the XCore
//! forms the d-graph framework operates on.

use std::fmt;

use xqd_xml::Axis;

/// Atomic values (`xs:string`, `xs:integer`, `xs:double`, `xs:boolean`, and
/// untyped atomics produced by atomizing nodes).
#[derive(Debug, Clone, PartialEq)]
pub enum Atomic {
    Str(String),
    Int(i64),
    Dbl(f64),
    Bool(bool),
    /// `xs:untypedAtomic` — the type of atomized node content; compared
    /// numerically against numbers and textually against strings.
    Untyped(String),
}

impl Atomic {
    /// Lexical form per XPath casting rules (sufficient for our subset).
    pub fn to_lexical(&self) -> String {
        match self {
            Atomic::Str(s) | Atomic::Untyped(s) => s.clone(),
            Atomic::Int(i) => i.to_string(),
            Atomic::Dbl(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    format!("{}", *d as i64)
                } else {
                    format!("{d}")
                }
            }
            Atomic::Bool(b) => b.to_string(),
        }
    }
}

/// Value / general comparison operators (XCore rule 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        }
    }
}

/// Node comparison operators (XCore rule 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeCompOp {
    /// `is` — node identity.
    Is,
    /// `<<` — strictly before in document order.
    Before,
    /// `>>` — strictly after in document order.
    After,
}

impl NodeCompOp {
    pub fn symbol(self) -> &'static str {
        match self {
            NodeCompOp::Is => "is",
            NodeCompOp::Before => "<<",
            NodeCompOp::After => ">>",
        }
    }
}

/// Node set operators (XCore rule 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeSetOp {
    Union,
    Intersect,
    Except,
}

impl NodeSetOp {
    pub fn keyword(self) -> &'static str {
        match self {
            NodeSetOp::Union => "union",
            NodeSetOp::Intersect => "intersect",
            NodeSetOp::Except => "except",
        }
    }
}

/// Arithmetic operators (surface extension; normalized queries treat them
/// like value comparisons for decomposition purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        }
    }
}

/// Node test of an axis step (XCore rule 25).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    Name(String),
    Wildcard,
    AnyKind,
    Text,
    Comment,
}

impl fmt::Display for NameTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameTest::Name(n) => write!(f, "{n}"),
            NameTest::Wildcard => write!(f, "*"),
            NameTest::AnyKind => write!(f, "node()"),
            NameTest::Text => write!(f, "text()"),
            NameTest::Comment => write!(f, "comment()"),
        }
    }
}

/// One axis step with optional predicates (XCore keeps consecutive steps of
/// a path together, rule 20/21; predicates are our surface extension kept in
/// place because the paper's position()-free normalization allows it).
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NameTest,
    pub predicates: Vec<Expr>,
}

impl Step {
    pub fn simple(axis: Axis, test: NameTest) -> Self {
        Step { axis, test, predicates: Vec::new() }
    }
}

/// Node constructors (XCore rule 19).
#[derive(Debug, Clone, PartialEq)]
pub enum Constructor {
    Document { content: Box<Expr> },
    Text { content: Box<Expr> },
    Element { name: ElemName, content: Box<Expr> },
    Attribute { name: ElemName, content: Box<Expr> },
}

/// Static or computed constructor name.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemName {
    Static(String),
    Computed(Box<Expr>),
}

/// A `typeswitch` case clause (XCore rule 11).
#[derive(Debug, Clone, PartialEq)]
pub struct CaseClause {
    pub var: String,
    pub seq_type: SeqType,
    pub body: Expr,
}

/// Sequence types, as far as `typeswitch` needs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqType {
    pub item: ItemType,
    pub occurrence: Occurrence,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemType {
    AnyItem,
    AnyNode,
    Element(Option<String>),
    Attribute(Option<String>),
    TextNode,
    DocumentNode,
    AtomicStr,
    AtomicInt,
    AtomicDbl,
    AtomicBool,
    AtomicUntyped,
    EmptySequence,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    One,
    Optional,
    ZeroOrMore,
    OneOrMore,
}

impl fmt::Display for SeqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match &self.item {
            ItemType::AnyItem => "item()".to_string(),
            ItemType::AnyNode => "node()".to_string(),
            ItemType::Element(Some(n)) => format!("element({n})"),
            ItemType::Element(None) => "element()".to_string(),
            ItemType::Attribute(Some(n)) => format!("attribute({n})"),
            ItemType::Attribute(None) => "attribute()".to_string(),
            ItemType::TextNode => "text()".to_string(),
            ItemType::DocumentNode => "document-node()".to_string(),
            ItemType::AtomicStr => "xs:string".to_string(),
            ItemType::AtomicInt => "xs:integer".to_string(),
            ItemType::AtomicDbl => "xs:double".to_string(),
            ItemType::AtomicBool => "xs:boolean".to_string(),
            ItemType::AtomicUntyped => "xs:untypedAtomic".to_string(),
            ItemType::EmptySequence => return write!(f, "empty-sequence()"),
        };
        let occ = match self.occurrence {
            Occurrence::One => "",
            Occurrence::Optional => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        };
        write!(f, "{base}{occ}")
    }
}

/// One `order by` specification (XCore rule 16): a key expression evaluated
/// with each input item as context item, plus a direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    pub key: Expr,
    pub descending: bool,
}

/// The XCore expression language (Table II + rules 27–28).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Rule 3: Literal.
    Literal(Atomic),
    /// `()`.
    Empty,
    /// Rule 2: ExprSeq with at least two members after parsing.
    Sequence(Vec<Expr>),
    /// Rule 4: VarRef.
    VarRef(String),
    /// The context item `.` — used inside step predicates and order-by
    /// keys; not part of Table II but required to express them.
    ContextItem,
    /// Rule 6: ForExpr.
    For { var: String, seq: Box<Expr>, ret: Box<Expr> },
    /// Rule 7: LetExpr.
    Let { var: String, value: Box<Expr>, ret: Box<Expr> },
    /// Rule 8: IfExpr.
    If { cond: Box<Expr>, then: Box<Expr>, els: Box<Expr> },
    /// Rule 10: Typeswitch.
    Typeswitch {
        input: Box<Expr>,
        cases: Vec<CaseClause>,
        default_var: String,
        default: Box<Expr>,
    },
    /// Rule 12/13: value (general) comparison.
    Comparison { op: CompOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Rule 12/14: node comparison.
    NodeComparison { op: NodeCompOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Rule 15: OrderExpr.
    OrderBy { input: Box<Expr>, specs: Vec<OrderSpec> },
    /// Rule 17: NodeSetExpr.
    NodeSet { op: NodeSetOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Rule 19: Constructor.
    Construct(Constructor),
    /// Rules 20/21: a path: a start expression followed by axis steps.
    /// `start == None` means the path starts at the context document root
    /// (`/a/b` form).
    Path { start: Option<Box<Expr>>, steps: Vec<Step> },
    /// Surface filter `expr[pred]` on a non-step expression; normalized to
    /// For/If unless the predicate is positional.
    Filter { input: Box<Expr>, predicate: Box<Expr> },
    /// Rule 26: function call (built-in or user-defined).
    FunCall { name: String, args: Vec<Expr> },
    /// Surface logic, analyzed like IfExpr.
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    /// Surface arithmetic, analyzed like CompExpr.
    Arith { op: ArithOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Rules 27–28: `execute at {peer} { body }` with parameter bindings
    /// `$param := $outer` mapping outer-scope variables into the remote
    /// function's scope. `projection` carries the relative projection paths
    /// computed by by-projection decomposition (Section VI); it is `None`
    /// for by-value / by-fragment calls.
    Execute {
        peer: Box<Expr>,
        params: Vec<XrpcParam>,
        body: Box<Expr>,
        projection: Option<Box<ExecProjection>>,
    },
}

/// One step of a *relative* projection path (Table V grammar): a plain axis
/// step or one of the built-in function markers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelStep {
    Axis { axis: Axis, test: NameTest },
    /// `root()`
    Root,
    /// `id()`
    Id,
    /// `idref()`
    Idref,
}

impl fmt::Display for RelStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelStep::Axis { axis, test } => write!(f, "{}::{}", axis.name(), test),
            RelStep::Root => write!(f, "root()"),
            RelStep::Id => write!(f, "id()"),
            RelStep::Idref => write!(f, "idref()"),
        }
    }
}

/// A relative projection path: a sequence of [`RelStep`]s applied to a
/// materialized context sequence (a shipped parameter or a call result).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RelPath(pub Vec<RelStep>);

impl fmt::Display for RelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "self::node()");
        }
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Used/returned relative paths for one projection context
/// (`Urel`/`Rrel` of Section VI-B).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PathSpec {
    pub used: Vec<RelPath>,
    pub returned: Vec<RelPath>,
}

/// Projection metadata attached to an `Execute` by by-projection
/// decomposition: per-parameter request projections plus the response
/// projection the remote side must apply to the call result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecProjection {
    /// Parallel to `Execute::params`: how each shipped parameter is used by
    /// the remote body.
    pub params: Vec<PathSpec>,
    /// How the *caller* consumes the call result (`Urel(vxrpc)`,
    /// `Rrel(vxrpc)`); shipped inside the request's `projection-paths`
    /// element so the remote peer can project the response.
    pub result: PathSpec,
}

/// Rule 28: one XRPCParam binding `$var := $outer`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XrpcParam {
    /// Fresh variable visible inside the shipped body.
    pub var: String,
    /// Variable in the surrounding query whose value is shipped.
    pub outer: String,
}

/// A user-defined function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    pub name: String,
    pub params: Vec<(String, Option<SeqType>)>,
    pub return_type: Option<SeqType>,
    pub body: Expr,
}

/// A parsed query module: function declarations plus the main expression.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryModule {
    pub functions: Vec<FunctionDef>,
    pub body: Expr,
}

impl QueryModule {
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| f.name == name)
    }
}

impl Expr {
    pub fn boxed(self) -> Box<Expr> {
        Box::new(self)
    }

    /// Convenience constructor for string literals.
    pub fn str(s: &str) -> Expr {
        Expr::Literal(Atomic::Str(s.to_string()))
    }

    pub fn int(i: i64) -> Expr {
        Expr::Literal(Atomic::Int(i))
    }

    /// `fn:doc("uri")`.
    pub fn doc(uri: &str) -> Expr {
        Expr::FunCall { name: "doc".into(), args: vec![Expr::str(uri)] }
    }

    /// Visits this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(&mut |c, _| c.walk(f));
    }

    /// Visits the direct sub-expressions, in the order [`map_children`]
    /// rebuilds them, each with the variables this node binds over it.
    /// This is the one statement of the AST's child order and binder scope:
    /// `for`/`let` bind their variable over `ret`, a typeswitch clause (and
    /// the default) its variable over its body, and `execute at` its
    /// parameters over the shipped body. Other positions bind nothing.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr, Binders<'a>)) {
        let mut free = |e: &'a Expr| f(e, Binders::None);
        match self {
            Expr::Literal(_) | Expr::Empty | Expr::VarRef(_) | Expr::ContextItem => {}
            Expr::Sequence(es) | Expr::FunCall { args: es, .. } => es.iter().for_each(free),
            Expr::For { var, seq: value, ret } | Expr::Let { var, value, ret } => {
                free(value);
                f(ret, Binders::One(var));
            }
            Expr::If { cond, then, els } => {
                free(cond);
                free(then);
                free(els);
            }
            Expr::Typeswitch { input, cases, default_var, default } => {
                free(input);
                cases.iter().for_each(|c| f(&c.body, Binders::One(&c.var)));
                f(default, Binders::One(default_var));
            }
            Expr::Comparison { lhs, rhs, .. }
            | Expr::NodeComparison { lhs, rhs, .. }
            | Expr::NodeSet { lhs, rhs, .. }
            | Expr::Arith { lhs, rhs, .. }
            | Expr::Filter { input: lhs, predicate: rhs }
            | Expr::And(lhs, rhs)
            | Expr::Or(lhs, rhs) => {
                free(lhs);
                free(rhs);
            }
            Expr::OrderBy { input, specs } => {
                free(input);
                specs.iter().for_each(|s| free(&s.key));
            }
            Expr::Construct(c) => match c {
                Constructor::Document { content } | Constructor::Text { content } => free(content),
                Constructor::Element { name, content }
                | Constructor::Attribute { name, content } => {
                    if let ElemName::Computed(e) = name {
                        free(e);
                    }
                    free(content);
                }
            },
            Expr::Path { start, steps } => {
                start.iter().for_each(|s| free(s));
                steps.iter().flat_map(|st| &st.predicates).for_each(free);
            }
            Expr::Execute { peer, params, body, .. } => {
                free(peer);
                f(body, Binders::Params(params));
            }
        }
    }
}

/// The variables an expression binds over one of its children (see
/// [`Expr::for_each_child`]).
#[derive(Debug, Clone, Copy)]
pub enum Binders<'a> {
    None,
    /// A `for` / `let` / typeswitch-clause variable.
    One(&'a str),
    /// The parameters of an `execute at`, visible inside its body.
    Params(&'a [XrpcParam]),
}

impl<'a> Binders<'a> {
    pub fn iter(self) -> impl Iterator<Item = &'a str> {
        let (one, params) = match self {
            Binders::None => (None, &[][..]),
            Binders::One(v) => (Some(v), &[][..]),
            Binders::Params(ps) => (None, ps),
        };
        one.into_iter().chain(params.iter().map(|p| p.var.as_str()))
    }

    /// Does this binding shadow `name` inside the child?
    pub fn contains(self, name: &str) -> bool {
        self.iter().any(|v| v == name)
    }
}

/// Rebuilds `e` with every direct child mapped through `f`, in the order
/// [`Expr::for_each_child`] visits them.
pub fn map_children<E>(
    e: &Expr,
    f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
) -> Result<Expr, E> {
    Ok(match e {
        Expr::Literal(_) | Expr::Empty | Expr::VarRef(_) | Expr::ContextItem => e.clone(),
        Expr::Sequence(es) => {
            Expr::Sequence(es.iter().map(&mut *f).collect::<Result<_, _>>()?)
        }
        Expr::For { var, seq, ret } => Expr::For {
            var: var.clone(),
            seq: f(seq)?.boxed(),
            ret: f(ret)?.boxed(),
        },
        Expr::Let { var, value, ret } => Expr::Let {
            var: var.clone(),
            value: f(value)?.boxed(),
            ret: f(ret)?.boxed(),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: f(cond)?.boxed(),
            then: f(then)?.boxed(),
            els: f(els)?.boxed(),
        },
        Expr::Typeswitch { input, cases, default_var, default } => Expr::Typeswitch {
            input: f(input)?.boxed(),
            cases: cases
                .iter()
                .map(|c| {
                    Ok(CaseClause {
                        var: c.var.clone(),
                        seq_type: c.seq_type.clone(),
                        body: f(&c.body)?,
                    })
                })
                .collect::<Result<_, E>>()?,
            default_var: default_var.clone(),
            default: f(default)?.boxed(),
        },
        Expr::Comparison { op, lhs, rhs } => Expr::Comparison {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::NodeComparison { op, lhs, rhs } => Expr::NodeComparison {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::OrderBy { input, specs } => Expr::OrderBy {
            input: f(input)?.boxed(),
            specs: specs
                .iter()
                .map(|s| Ok(OrderSpec { key: f(&s.key)?, descending: s.descending }))
                .collect::<Result<_, E>>()?,
        },
        Expr::NodeSet { op, lhs, rhs } => Expr::NodeSet {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::Construct(c) => Expr::Construct(match c {
            Constructor::Document { content } => {
                Constructor::Document { content: f(content)?.boxed() }
            }
            Constructor::Text { content } => Constructor::Text { content: f(content)?.boxed() },
            Constructor::Element { name, content } => Constructor::Element {
                name: map_elem_name(name, f)?,
                content: f(content)?.boxed(),
            },
            Constructor::Attribute { name, content } => Constructor::Attribute {
                name: map_elem_name(name, f)?,
                content: f(content)?.boxed(),
            },
        }),
        Expr::Path { start, steps } => Expr::Path {
            start: match start {
                Some(s) => Some(f(s)?.boxed()),
                None => None,
            },
            steps: steps
                .iter()
                .map(|st| {
                    Ok(Step {
                        axis: st.axis,
                        test: st.test.clone(),
                        predicates: st
                            .predicates
                            .iter()
                            .map(&mut *f)
                            .collect::<Result<_, E>>()?,
                    })
                })
                .collect::<Result<_, E>>()?,
        },
        Expr::Filter { input, predicate } => Expr::Filter {
            input: f(input)?.boxed(),
            predicate: f(predicate)?.boxed(),
        },
        Expr::FunCall { name, args } => Expr::FunCall {
            name: name.clone(),
            args: args.iter().map(&mut *f).collect::<Result<_, _>>()?,
        },
        Expr::And(l, r) => Expr::And(f(l)?.boxed(), f(r)?.boxed()),
        Expr::Or(l, r) => Expr::Or(f(l)?.boxed(), f(r)?.boxed()),
        Expr::Arith { op, lhs, rhs } => Expr::Arith {
            op: *op,
            lhs: f(lhs)?.boxed(),
            rhs: f(rhs)?.boxed(),
        },
        Expr::Execute { peer, params, body, projection } => Expr::Execute {
            peer: f(peer)?.boxed(),
            params: params.clone(),
            body: f(body)?.boxed(),
            projection: projection.clone(),
        },
    })
}

/// Infallible variant of [`map_children`].
pub fn map_children_infallible(e: &Expr, f: &mut impl FnMut(&Expr) -> Expr) -> Expr {
    match map_children(e, &mut |c| Ok::<_, std::convert::Infallible>(f(c))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

fn map_elem_name<E>(
    n: &ElemName,
    f: &mut impl FnMut(&Expr) -> Result<Expr, E>,
) -> Result<ElemName, E> {
    Ok(match n {
        ElemName::Static(s) => ElemName::Static(s.clone()),
        ElemName::Computed(e) => ElemName::Computed(f(e)?.boxed()),
    })
}

// ---------------------------------------------------------------------------
// Pretty printer: emits parseable XQuery text. Used by the XRPC request
// codec (function bodies travel as XQuery source, mirroring XRPC's
// module-based remote invocation) and by the `decompose_explain` example.
// ---------------------------------------------------------------------------

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        print_expr(self, &mut out);
        f.write_str(&out)
    }
}

/// Serializes an expression to parseable XQuery text.
pub fn print_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Literal(a) => match a {
            Atomic::Str(s) | Atomic::Untyped(s) => {
                out.push('"');
                for c in s.chars() {
                    if c == '"' {
                        out.push_str("\"\"");
                    } else {
                        out.push(c);
                    }
                }
                out.push('"');
            }
            Atomic::Int(i) => out.push_str(&i.to_string()),
            Atomic::Dbl(d) => {
                let s = format!("{d}");
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN")
                {
                    out.push_str(".0");
                }
            }
            Atomic::Bool(b) => out.push_str(if *b { "true()" } else { "false()" }),
        },
        Expr::Empty => out.push_str("()"),
        Expr::Sequence(es) => {
            // members print parenthesized where needed: a bare OrderExpr
            // would swallow the following comma as an extra order spec
            out.push('(');
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_paren(e, out);
            }
            out.push(')');
        }
        Expr::VarRef(v) => {
            out.push('$');
            out.push_str(v);
        }
        Expr::ContextItem => out.push('.'),
        Expr::For { var, seq, ret } => {
            out.push_str("for $");
            out.push_str(var);
            out.push_str(" in ");
            print_binding(seq, out);
            out.push_str(" return ");
            print_expr(ret, out);
        }
        Expr::Let { var, value, ret } => {
            out.push_str("let $");
            out.push_str(var);
            out.push_str(" := ");
            print_binding(value, out);
            out.push_str(" return ");
            print_expr(ret, out);
        }
        Expr::If { cond, then, els } => {
            out.push_str("if (");
            print_expr(cond, out);
            out.push_str(") then ");
            print_expr(then, out);
            out.push_str(" else ");
            print_expr(els, out);
        }
        Expr::Typeswitch { input, cases, default_var, default } => {
            out.push_str("typeswitch (");
            print_expr(input, out);
            out.push(')');
            for c in cases {
                out.push_str(&format!(" case ${} as {} return ", c.var, c.seq_type));
                print_expr(&c.body, out);
            }
            out.push_str(&format!(" default ${default_var} return "));
            print_expr(default, out);
        }
        Expr::Comparison { op, lhs, rhs } => {
            print_paren(lhs, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            print_paren(rhs, out);
        }
        Expr::NodeComparison { op, lhs, rhs } => {
            print_paren(lhs, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            print_paren(rhs, out);
        }
        Expr::OrderBy { input, specs } => {
            print_paren(input, out);
            out.push_str(" order by ");
            for (i, s) in specs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                // keys parse with standalone order-by disabled: nested
                // OrderExprs need parentheses
                print_binding(&s.key, out);
                if s.descending {
                    out.push_str(" descending");
                }
            }
        }
        Expr::NodeSet { op, lhs, rhs } => {
            print_paren(lhs, out);
            out.push(' ');
            out.push_str(op.keyword());
            out.push(' ');
            print_paren(rhs, out);
        }
        Expr::Construct(c) => match c {
            Constructor::Document { content } => {
                out.push_str("document { ");
                print_expr(content, out);
                out.push_str(" }");
            }
            Constructor::Text { content } => {
                out.push_str("text { ");
                print_expr(content, out);
                out.push_str(" }");
            }
            Constructor::Element { name, content } => {
                out.push_str("element ");
                print_elem_name(name, out);
                out.push_str(" { ");
                print_expr(content, out);
                out.push_str(" }");
            }
            Constructor::Attribute { name, content } => {
                out.push_str("attribute ");
                print_elem_name(name, out);
                out.push_str(" { ");
                print_expr(content, out);
                out.push_str(" }");
            }
        },
        Expr::Path { start, steps } => {
            match start {
                Some(s) => print_paren(s, out),
                None => {
                    // leading "/" handled below by always prefixing
                }
            }
            for step in steps {
                out.push('/');
                out.push_str(step.axis.name());
                out.push_str("::");
                out.push_str(&step.test.to_string());
                for p in &step.predicates {
                    out.push('[');
                    print_expr(p, out);
                    out.push(']');
                }
            }
            if steps.is_empty() && start.is_none() {
                out.push('/');
            }
        }
        Expr::Filter { input, predicate } => {
            // the input is always parenthesized: `E//x[1]` would re-parse
            // as a per-step predicate, which filters per context node
            // rather than over the whole sequence
            out.push('(');
            print_expr(input, out);
            out.push_str(")[");
            print_expr(predicate, out);
            out.push(']');
        }
        Expr::FunCall { name, args } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                // parenthesized for the same comma-ambiguity reason as
                // sequence members
                print_paren(a, out);
            }
            out.push(')');
        }
        Expr::And(l, r) => {
            print_paren(l, out);
            out.push_str(" and ");
            print_paren(r, out);
        }
        Expr::Or(l, r) => {
            print_paren(l, out);
            out.push_str(" or ");
            print_paren(r, out);
        }
        Expr::Arith { op, lhs, rhs } => {
            print_paren(lhs, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            print_paren(rhs, out);
        }
        Expr::Execute { peer, params, body, .. } => {
            out.push_str("execute at { ");
            print_expr(peer, out);
            out.push_str(" } params (");
            for (i, p) in params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("${} := ${}", p.var, p.outer));
            }
            out.push_str(") { ");
            print_expr(body, out);
            out.push_str(" }");
        }
    }
}

fn print_elem_name(name: &ElemName, out: &mut String) {
    match name {
        ElemName::Static(n) => out.push_str(n),
        ElemName::Computed(e) => {
            out.push_str("{ ");
            print_expr(e, out);
            out.push_str(" }");
        }
    }
}

fn needs_parens(e: &Expr) -> bool {
    matches!(
        e,
        Expr::For { .. }
            | Expr::Let { .. }
            | Expr::If { .. }
            | Expr::Comparison { .. }
            | Expr::NodeComparison { .. }
            | Expr::NodeSet { .. }
            | Expr::And(..)
            | Expr::Or(..)
            | Expr::Arith { .. }
            | Expr::OrderBy { .. }
            | Expr::Typeswitch { .. }
            | Expr::Execute { .. }
    )
}

/// Binding values (`for $x in …`, `let $x := …`) parse with standalone
/// `order by` disabled (it belongs to the FLWOR), so an OrderExpr value
/// must be parenthesized.
fn print_binding(e: &Expr, out: &mut String) {
    if matches!(e, Expr::OrderBy { .. }) {
        out.push('(');
        print_expr(e, out);
        out.push(')');
    } else {
        print_expr(e, out);
    }
}

fn print_paren(e: &Expr, out: &mut String) {
    if needs_parens(e) {
        out.push('(');
        print_expr(e, out);
        out.push(')');
    } else {
        print_expr(e, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::Let {
            var: "x".into(),
            value: Expr::doc("a.xml").boxed(),
            ret: Expr::If {
                cond: Expr::Comparison {
                    op: CompOp::Eq,
                    lhs: Expr::VarRef("x".into()).boxed(),
                    rhs: Expr::int(1).boxed(),
                }
                .boxed(),
                then: Expr::VarRef("x".into()).boxed(),
                els: Expr::Empty.boxed(),
            }
            .boxed(),
        };
        // Let, FunCall(doc), Literal(uri), If, Comparison, VarRef, Literal(1), VarRef, Empty
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 9);
    }

    #[test]
    fn print_roundtrip_shapes() {
        let e = Expr::For {
            var: "x".into(),
            seq: Expr::Path {
                start: Some(Expr::doc("d.xml").boxed()),
                steps: vec![Step::simple(Axis::Child, NameTest::Name("a".into()))],
            }
            .boxed(),
            ret: Expr::VarRef("x".into()).boxed(),
        };
        assert_eq!(e.to_string(), "for $x in doc(\"d.xml\")/child::a return $x");
    }

    #[test]
    fn print_execute() {
        let e = Expr::Execute {
            peer: Expr::str("peer1").boxed(),
            params: vec![XrpcParam { var: "p".into(), outer: "t".into() }],
            body: Expr::VarRef("p".into()).boxed(),
            projection: None,
        };
        assert_eq!(e.to_string(), "execute at { \"peer1\" } params ($p := $t) { $p }");
    }

    #[test]
    fn atomic_lexical_forms() {
        assert_eq!(Atomic::Int(-3).to_lexical(), "-3");
        assert_eq!(Atomic::Dbl(2.0).to_lexical(), "2");
        assert_eq!(Atomic::Dbl(2.5).to_lexical(), "2.5");
        assert_eq!(Atomic::Bool(true).to_lexical(), "true");
        assert_eq!(Atomic::Untyped("x".into()).to_lexical(), "x");
    }

    #[test]
    fn seq_type_display() {
        let t = SeqType { item: ItemType::Element(Some("person".into())), occurrence: Occurrence::ZeroOrMore };
        assert_eq!(t.to_string(), "element(person)*");
        let t2 = SeqType { item: ItemType::AtomicStr, occurrence: Occurrence::One };
        assert_eq!(t2.to_string(), "xs:string");
    }
}
