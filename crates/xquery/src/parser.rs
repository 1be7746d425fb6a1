//! Recursive-descent parser for the XQuery surface syntax.
//!
//! The accepted language is the extended XCore of Table II plus pragmatic
//! sugar: multi-clause FLWOR with `where`/`order by` (desugared to nested
//! `for`/`let`/`if`/OrderExpr during parsing, following the paper's Qc2
//! normalization), abbreviated steps (`@x`, `..`, `//`, bare name tests),
//! predicates, `and`/`or`, arithmetic, user-defined function declarations,
//! and both XRPC surface forms:
//!
//! * `execute at {Expr} { fcn(Args) }` — the real XRPC syntax; the function
//!   body is inlined at parse time and arguments become shipped parameters,
//! * `execute at {Expr} params ($p := $v, …) { Body }` — the presentation
//!   syntax of rules 27–28, also what [`crate::ast::print_expr`] emits, so
//!   printed queries re-parse.

use std::fmt;

use xqd_xml::Axis;

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Token};

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { offset: e.offset, message: e.message }
    }
}

type Result<T> = std::result::Result<T, ParseError>;

/// Deepest expression nesting the parser accepts. Query text arrives from
/// outside the program (the CLI, and shipped bodies on a daemon's worker
/// threads), and the parser, normalizer, decomposer, compiler and both
/// evaluators all recurse on the AST — an unbounded depth lets a small
/// hostile query overflow the stack, which aborts the process. Nesting is
/// counted per recursive descent into an expression *and* per link of a
/// loop-built chain (`a + b + …`, `e[p][q]…`, FLWOR clauses), so it bounds
/// the depth of the AST as well as the parser's own recursion. The value
/// is sized for the weakest configuration that sees untrusted text: an
/// unoptimized build spends ~24 kB of stack per parenthesis level here (the
/// full precedence chain) and ~16 kB per AST level in the evaluators, and
/// test and daemon worker threads have 2 MiB.
const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<(Token, usize)>,
    pos: usize,
    functions: Vec<FunctionDef>,
    fresh: u32,
    /// Nesting of the expression being parsed: live recursive descents
    /// plus chain links charged so far (see [`MAX_NESTING`]).
    depth: usize,
}

/// Parses a complete query module (function declarations + body).
pub fn parse_query(input: &str) -> Result<QueryModule> {
    let toks = tokenize(input)?;
    let mut p = Parser { toks, pos: 0, functions: Vec::new(), fresh: 0, depth: 0 };
    p.parse_module()
}

/// Parses a single expression (no prolog).
pub fn parse_expr_str(input: &str) -> Result<Expr> {
    let m = parse_query(input)?;
    if m.functions.is_empty() {
        Ok(m.body)
    } else {
        Err(ParseError { offset: 0, message: "expected a bare expression, found declarations".into() })
    }
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Token {
        self.toks.get(self.pos + 1).map(|(t, _)| t).unwrap_or(&Token::Eof)
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(ParseError { offset: self.offset(), message: msg.into() })
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {t}, found {}", self.peek()))
        }
    }

    /// Consumes the keyword `kw` (a contextual Name token) or errors.
    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.peek() {
            Token::Name(n) if n == kw => {
                self.bump();
                Ok(())
            }
            other => self.err(format!("expected keyword '{kw}', found {other}")),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Name(n) if n == kw)
    }

    fn expect_name(&mut self) -> Result<String> {
        match self.bump() {
            Token::Name(n) => Ok(n),
            other => {
                self.pos -= 1;
                self.err(format!("expected name, found {other}"))
            }
        }
    }

    fn expect_var(&mut self) -> Result<String> {
        self.expect(&Token::Dollar)?;
        self.expect_name()
    }

    /// Charges `levels` more levels of nesting against [`MAX_NESTING`].
    /// The caller gives them back (`self.depth -= levels`) when the
    /// construct that nests ends; an error aborts the whole parse, so
    /// failing paths need not.
    fn deepen(&mut self, levels: usize) -> Result<()> {
        if self.depth + levels > MAX_NESTING {
            return self.err(format!("expression nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += levels;
        Ok(())
    }

    /// Runs one recursive descent under the nesting bound.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.deepen(1)?;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn fresh_var(&mut self, hint: &str) -> String {
        self.fresh += 1;
        format!("{hint}_{}", self.fresh)
    }

    // -- module ------------------------------------------------------------

    fn parse_module(&mut self) -> Result<QueryModule> {
        while self.at_kw("declare") {
            let f = self.parse_function_decl()?;
            if self.functions.iter().any(|g| g.name == f.name) {
                return self.err(format!("duplicate function declaration {}", f.name));
            }
            self.functions.push(f);
        }
        let body = self.parse_expr()?;
        if self.peek() != &Token::Eof {
            return self.err(format!("trailing input: {}", self.peek()));
        }
        Ok(QueryModule { functions: std::mem::take(&mut self.functions), body })
    }

    fn parse_function_decl(&mut self) -> Result<FunctionDef> {
        self.expect_kw("declare")?;
        self.expect_kw("function")?;
        let name = self.expect_name()?;
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &Token::RParen {
            loop {
                let v = self.expect_var()?;
                let ty = if self.at_kw("as") {
                    self.bump();
                    Some(self.parse_seq_type()?)
                } else {
                    None
                };
                params.push((v, ty));
                if self.peek() == &Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        let return_type = if self.at_kw("as") {
            self.bump();
            Some(self.parse_seq_type()?)
        } else {
            None
        };
        self.expect(&Token::LBrace)?;
        let body = self.parse_expr()?;
        self.expect(&Token::RBrace)?;
        self.expect(&Token::Semicolon)?;
        Ok(FunctionDef { name, params, return_type, body })
    }

    fn parse_seq_type(&mut self) -> Result<SeqType> {
        let name = self.expect_name()?;
        let item = match name.as_str() {
            "empty-sequence" => {
                self.expect(&Token::LParen)?;
                self.expect(&Token::RParen)?;
                return Ok(SeqType { item: ItemType::EmptySequence, occurrence: Occurrence::One });
            }
            "item" => {
                self.expect(&Token::LParen)?;
                self.expect(&Token::RParen)?;
                ItemType::AnyItem
            }
            "node" => {
                self.expect(&Token::LParen)?;
                self.expect(&Token::RParen)?;
                ItemType::AnyNode
            }
            "text" => {
                self.expect(&Token::LParen)?;
                self.expect(&Token::RParen)?;
                ItemType::TextNode
            }
            "document-node" => {
                self.expect(&Token::LParen)?;
                self.expect(&Token::RParen)?;
                ItemType::DocumentNode
            }
            "element" | "attribute" => {
                self.expect(&Token::LParen)?;
                let n = if let Token::Name(_) = self.peek() {
                    Some(self.expect_name()?)
                } else if self.peek() == &Token::Star {
                    self.bump();
                    None
                } else {
                    None
                };
                self.expect(&Token::RParen)?;
                if name == "element" {
                    ItemType::Element(n)
                } else {
                    ItemType::Attribute(n)
                }
            }
            "xs:string" => ItemType::AtomicStr,
            "xs:integer" | "xs:int" | "xs:long" => ItemType::AtomicInt,
            "xs:double" | "xs:decimal" | "xs:float" => ItemType::AtomicDbl,
            "xs:boolean" => ItemType::AtomicBool,
            "xs:untypedAtomic" => ItemType::AtomicUntyped,
            "xs:anyAtomicType" => ItemType::AnyItem,
            other => return self.err(format!("unsupported sequence type {other}")),
        };
        let occurrence = match self.peek() {
            Token::Question => {
                self.bump();
                Occurrence::Optional
            }
            Token::Star => {
                self.bump();
                Occurrence::ZeroOrMore
            }
            Token::Plus => {
                self.bump();
                Occurrence::OneOrMore
            }
            _ => Occurrence::One,
        };
        Ok(SeqType { item, occurrence })
    }

    // -- expressions -------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        let first = self.parse_single()?;
        if self.peek() != &Token::Comma {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.peek() == &Token::Comma {
            self.bump();
            items.push(self.parse_single()?);
        }
        Ok(Expr::Sequence(items))
    }

    fn parse_single(&mut self) -> Result<Expr> {
        self.parse_single_inner(true)
    }

    /// `allow_order` disambiguates the standalone OrderExpr of XCore rule 15
    /// (`ExprSingle order by OrderSpecs`) from FLWOR's own `order by`
    /// clause: clause sources and order keys are parsed with it off.
    fn parse_single_inner(&mut self, allow_order: bool) -> Result<Expr> {
        self.nested(|p| p.parse_single_body(allow_order))
    }

    fn parse_single_body(&mut self, allow_order: bool) -> Result<Expr> {
        let mut e = match self.peek() {
            Token::Name(n) => match n.as_str() {
                "for" | "let" => return self.parse_flwor(),
                "if" if self.peek2() == &Token::LParen => self.parse_if()?,
                "typeswitch" if self.peek2() == &Token::LParen => self.parse_typeswitch()?,
                "execute" => self.parse_execute()?,
                "some" | "every" if self.peek2() == &Token::Dollar => {
                    self.parse_quantified()?
                }
                _ => self.parse_or()?,
            },
            _ => self.parse_or()?,
        };
        if allow_order && self.at_kw("order") && matches!(self.peek2(), Token::Name(b) if b == "by")
        {
            self.bump();
            self.bump();
            let specs = self.parse_order_specs()?;
            e = Expr::OrderBy { input: e.boxed(), specs };
        }
        Ok(e)
    }

    /// Quantified expressions desugar to XCore per the W3C normalization:
    /// `some $x in E satisfies P`  →  `exists(for $x in E return
    /// if (P) then 1 else ())`, and `every` via double negation.
    fn parse_quantified(&mut self) -> Result<Expr> {
        let every = self.at_kw("every");
        self.bump();
        let mut bindings = Vec::new();
        loop {
            // the first binding is the level this descent already paid for
            self.deepen(usize::from(!bindings.is_empty()))?;
            let v = self.expect_var()?;
            self.expect_kw("in")?;
            let seq = self.parse_single_inner(false)?;
            bindings.push((v, seq));
            if self.peek() == &Token::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect_kw("satisfies")?;
        let pred = self.parse_single()?;
        self.depth -= bindings.len() - 1;
        // innermost body: if (P) then 1 else ()   (for `every`: if (not P))
        let cond = if every {
            Expr::FunCall { name: "not".into(), args: vec![pred] }
        } else {
            pred
        };
        let mut body = Expr::If {
            cond: cond.boxed(),
            then: Expr::int(1).boxed(),
            els: Expr::Empty.boxed(),
        };
        for (var, seq) in bindings.into_iter().rev() {
            body = Expr::For { var, seq: seq.boxed(), ret: body.boxed() };
        }
        let exists = Expr::FunCall { name: "exists".into(), args: vec![body] };
        Ok(if every {
            Expr::FunCall { name: "not".into(), args: vec![exists] }
        } else {
            exists
        })
    }

    fn parse_order_specs(&mut self) -> Result<Vec<OrderSpec>> {
        let mut specs = Vec::new();
        loop {
            let key = self.parse_single_inner(false)?;
            let descending = if self.at_kw("descending") {
                self.bump();
                true
            } else {
                if self.at_kw("ascending") {
                    self.bump();
                }
                false
            };
            specs.push(OrderSpec { key, descending });
            if self.peek() == &Token::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(specs)
    }

    fn parse_flwor(&mut self) -> Result<Expr> {
        enum Clause {
            For(String, Expr),
            Let(String, Expr),
        }
        let mut clauses = Vec::new();
        loop {
            if self.at_kw("for") {
                self.bump();
                loop {
                    // the first clause is the level this descent paid for
                    self.deepen(usize::from(!clauses.is_empty()))?;
                    let v = self.expect_var()?;
                    self.expect_kw("in")?;
                    let seq = self.parse_single_inner(false)?;
                    clauses.push(Clause::For(v, seq));
                    if self.peek() == &Token::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
            } else if self.at_kw("let") {
                self.bump();
                loop {
                    self.deepen(usize::from(!clauses.is_empty()))?;
                    let v = self.expect_var()?;
                    self.expect(&Token::Assign)?;
                    let value = self.parse_single_inner(false)?;
                    clauses.push(Clause::Let(v, value));
                    if self.peek() == &Token::Comma {
                        self.bump();
                        continue;
                    }
                    break;
                }
            } else {
                break;
            }
        }
        let where_cond = if self.at_kw("where") {
            self.bump();
            Some(self.parse_single()?)
        } else {
            None
        };
        let mut order_specs = Vec::new();
        if self.at_kw("order") {
            self.bump();
            self.expect_kw("by")?;
            order_specs = self.parse_order_specs()?;
        }
        self.expect_kw("return")?;
        let ret = self.parse_single()?;
        self.depth -= clauses.len() - 1;

        // Desugar: where → if; clauses nest outside-in. `order by` sorts the
        // *input* of the innermost `for` (keys rewritten to the context
        // item), which is exactly XQuery tuple-ordering when the keys depend
        // only on that loop variable — the supported subset, matching the
        // paper's standalone OrderExpr (rule 15).
        let mut body = match where_cond {
            Some(cond) => Expr::If { cond: cond.boxed(), then: ret.boxed(), els: Expr::Empty.boxed() },
            None => ret,
        };
        let mut pending_order = if order_specs.is_empty() { None } else { Some(order_specs) };
        if pending_order.is_some() && !clauses.iter().any(|c| matches!(c, Clause::For(..))) {
            return self.err("order by requires at least one for clause");
        }
        for c in clauses.into_iter().rev() {
            body = match c {
                Clause::For(var, seq) => {
                    let seq = match pending_order.take() {
                        Some(specs) => {
                            let specs = specs
                                .into_iter()
                                .map(|mut s| {
                                    s.key = substitute_var_with_context(&s.key, &var);
                                    s
                                })
                                .collect();
                            Expr::OrderBy { input: seq.boxed(), specs }
                        }
                        None => seq,
                    };
                    Expr::For { var, seq: seq.boxed(), ret: body.boxed() }
                }
                Clause::Let(var, value) => {
                    Expr::Let { var, value: value.boxed(), ret: body.boxed() }
                }
            };
        }
        Ok(body)
    }

    fn parse_if(&mut self) -> Result<Expr> {
        self.expect_kw("if")?;
        self.expect(&Token::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        self.expect_kw("then")?;
        let then = self.parse_single()?;
        self.expect_kw("else")?;
        let els = self.parse_single()?;
        Ok(Expr::If { cond: cond.boxed(), then: then.boxed(), els: els.boxed() })
    }

    fn parse_typeswitch(&mut self) -> Result<Expr> {
        self.expect_kw("typeswitch")?;
        self.expect(&Token::LParen)?;
        let input = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        let mut cases = Vec::new();
        while self.at_kw("case") {
            self.bump();
            let var = self.expect_var()?;
            self.expect_kw("as")?;
            let seq_type = self.parse_seq_type()?;
            self.expect_kw("return")?;
            let body = self.parse_single()?;
            cases.push(CaseClause { var, seq_type, body });
        }
        if cases.is_empty() {
            return self.err("typeswitch requires at least one case clause");
        }
        self.expect_kw("default")?;
        let default_var = self.expect_var()?;
        self.expect_kw("return")?;
        let default = self.parse_single()?;
        Ok(Expr::Typeswitch {
            input: input.boxed(),
            cases,
            default_var,
            default: default.boxed(),
        })
    }

    fn parse_execute(&mut self) -> Result<Expr> {
        self.expect_kw("execute")?;
        self.expect_kw("at")?;
        self.expect(&Token::LBrace)?;
        let peer = self.parse_expr()?;
        self.expect(&Token::RBrace)?;
        if self.at_kw("params") {
            // presentation syntax of rules 27-28
            self.bump();
            self.expect(&Token::LParen)?;
            let mut params = Vec::new();
            if self.peek() != &Token::RParen {
                loop {
                    let var = self.expect_var()?;
                    self.expect(&Token::Assign)?;
                    let outer = self.expect_var()?;
                    params.push(XrpcParam { var, outer });
                    if self.peek() == &Token::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen)?;
            self.expect(&Token::LBrace)?;
            let body = self.parse_expr()?;
            self.expect(&Token::RBrace)?;
            return Ok(Expr::Execute { peer: peer.boxed(), params, body: body.boxed(), projection: None });
        }
        // real XRPC syntax: { fcn(args) } — inline the declared function
        self.expect(&Token::LBrace)?;
        let fname = self.expect_name()?;
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        if self.peek() != &Token::RParen {
            loop {
                args.push(self.parse_single()?);
                if self.peek() == &Token::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Token::RParen)?;
        self.expect(&Token::RBrace)?;
        let func = self
            .functions
            .iter()
            .find(|f| f.name == fname)
            .cloned()
            .ok_or_else(|| ParseError {
                offset: self.offset(),
                message: format!("execute at calls undeclared function {fname}"),
            })?;
        if func.params.len() != args.len() {
            return self.err(format!(
                "{fname} expects {} arguments, got {}",
                func.params.len(),
                args.len()
            ));
        }
        // Evaluate arguments locally in let-bindings, ship them as params.
        let mut params = Vec::new();
        let mut lets: Vec<(String, Expr)> = Vec::new();
        for ((formal, _ty), arg) in func.params.iter().zip(args) {
            let outer = self.fresh_var("xrpcarg");
            params.push(XrpcParam { var: formal.clone(), outer: outer.clone() });
            lets.push((outer, arg));
        }
        let mut result = Expr::Execute {
            peer: peer.boxed(),
            params,
            body: func.body.clone().boxed(),
            projection: None,
        };
        for (var, value) in lets.into_iter().rev() {
            result = Expr::Let { var, value: value.boxed(), ret: result.boxed() };
        }
        Ok(result)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        let mut links = 0;
        while self.at_kw("or") {
            self.deepen(1)?;
            links += 1;
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Or(lhs.boxed(), rhs.boxed());
        }
        self.depth -= links;
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_comparison()?;
        let mut links = 0;
        while self.at_kw("and") {
            self.deepen(1)?;
            links += 1;
            self.bump();
            let rhs = self.parse_comparison()?;
            lhs = Expr::And(lhs.boxed(), rhs.boxed());
        }
        self.depth -= links;
        Ok(lhs)
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        let op = match self.peek() {
            Token::Eq => Some(CompOp::Eq),
            Token::Ne => Some(CompOp::Ne),
            Token::Lt => Some(CompOp::Lt),
            Token::Le => Some(CompOp::Le),
            Token::Gt => Some(CompOp::Gt),
            Token::Ge => Some(CompOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_additive()?;
            return Ok(Expr::Comparison { op, lhs: lhs.boxed(), rhs: rhs.boxed() });
        }
        let nop = match self.peek() {
            Token::Before => Some(NodeCompOp::Before),
            Token::After => Some(NodeCompOp::After),
            Token::Name(n) if n == "is" => Some(NodeCompOp::Is),
            _ => None,
        };
        if let Some(op) = nop {
            self.bump();
            let rhs = self.parse_additive()?;
            return Ok(Expr::NodeComparison { op, lhs: lhs.boxed(), rhs: rhs.boxed() });
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        let mut links = 0;
        loop {
            let op = match self.peek() {
                Token::Plus => ArithOp::Add,
                Token::Minus => ArithOp::Sub,
                _ => break,
            };
            self.deepen(1)?;
            links += 1;
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Arith { op, lhs: lhs.boxed(), rhs: rhs.boxed() };
        }
        self.depth -= links;
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_setop()?;
        let mut links = 0;
        loop {
            let op = match self.peek() {
                Token::Star => ArithOp::Mul,
                Token::Name(n) if n == "div" => ArithOp::Div,
                Token::Name(n) if n == "mod" => ArithOp::Mod,
                _ => break,
            };
            self.deepen(1)?;
            links += 1;
            self.bump();
            let rhs = self.parse_setop()?;
            lhs = Expr::Arith { op, lhs: lhs.boxed(), rhs: rhs.boxed() };
        }
        self.depth -= links;
        Ok(lhs)
    }

    fn parse_setop(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        let mut links = 0;
        loop {
            let op = match self.peek() {
                Token::Pipe => NodeSetOp::Union,
                Token::Name(n) if n == "union" => NodeSetOp::Union,
                Token::Name(n) if n == "intersect" => NodeSetOp::Intersect,
                Token::Name(n) if n == "except" => NodeSetOp::Except,
                _ => break,
            };
            self.deepen(1)?;
            links += 1;
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::NodeSet { op, lhs: lhs.boxed(), rhs: rhs.boxed() };
        }
        self.depth -= links;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.peek() == &Token::Minus {
            self.bump();
            let operand = self.nested(Self::parse_unary)?;
            return Ok(Expr::Arith {
                op: ArithOp::Sub,
                lhs: Expr::int(0).boxed(),
                rhs: operand.boxed(),
            });
        }
        if self.peek() == &Token::Plus {
            self.bump();
            return self.nested(Self::parse_unary);
        }
        self.parse_path()
    }

    // -- paths ---------------------------------------------------------------

    fn parse_path(&mut self) -> Result<Expr> {
        match self.peek() {
            Token::Slash => {
                self.bump();
                let mut steps = Vec::new();
                if self.starts_step() {
                    steps.push(self.parse_step()?);
                    self.parse_more_steps(&mut steps)?;
                }
                Ok(Expr::Path { start: None, steps })
            }
            Token::DoubleSlash => {
                self.bump();
                let mut steps =
                    vec![Step::simple(Axis::DescendantOrSelf, NameTest::AnyKind)];
                steps.push(self.parse_step()?);
                self.parse_more_steps(&mut steps)?;
                Ok(Expr::Path { start: None, steps })
            }
            _ => {
                if self.starts_step() {
                    let mut steps = vec![self.parse_step()?];
                    self.parse_more_steps(&mut steps)?;
                    return Ok(Expr::Path {
                        start: Some(Expr::ContextItem.boxed()),
                        steps,
                    });
                }
                let primary = self.parse_postfix()?;
                if matches!(self.peek(), Token::Slash | Token::DoubleSlash) {
                    let mut steps = Vec::new();
                    self.parse_more_steps(&mut steps)?;
                    return Ok(Expr::Path { start: Some(primary.boxed()), steps });
                }
                Ok(primary)
            }
        }
    }

    fn parse_more_steps(&mut self, steps: &mut Vec<Step>) -> Result<()> {
        loop {
            match self.peek() {
                Token::Slash => {
                    self.bump();
                    steps.push(self.parse_step()?);
                }
                Token::DoubleSlash => {
                    self.bump();
                    steps.push(Step::simple(Axis::DescendantOrSelf, NameTest::AnyKind));
                    steps.push(self.parse_step()?);
                }
                _ => return Ok(()),
            }
        }
    }

    /// Is the upcoming token sequence an axis step (rather than a primary)?
    fn starts_step(&self) -> bool {
        match self.peek() {
            Token::At | Token::DotDot => true,
            Token::Star => true,
            Token::Name(n) => {
                match self.peek2() {
                    Token::AxisSep => Axis::from_name(n).is_some(),
                    Token::LParen => matches!(n.as_str(), "node" | "text" | "comment"),
                    // constructors and control keywords handled elsewhere;
                    // a bare name is a child-axis name test
                    _ => !matches!(
                        n.as_str(),
                        "element" | "attribute" | "document" | "text"
                    ) || !matches!(self.peek2(), Token::LBrace | Token::Name(_)),
                }
            }
            _ => false,
        }
    }

    fn parse_step(&mut self) -> Result<Step> {
        let mut step = match self.peek().clone() {
            Token::At => {
                self.bump();
                let test = self.parse_node_test()?;
                Step::simple(Axis::Attribute, test)
            }
            Token::DotDot => {
                self.bump();
                Step::simple(Axis::Parent, NameTest::AnyKind)
            }
            Token::Star => {
                self.bump();
                Step::simple(Axis::Child, NameTest::Wildcard)
            }
            Token::Name(n) => {
                if self.peek2() == &Token::AxisSep {
                    let axis = Axis::from_name(&n)
                        .ok_or_else(|| ParseError {
                            offset: self.offset(),
                            message: format!("unknown axis {n}"),
                        })?;
                    self.bump();
                    self.bump();
                    let test = self.parse_node_test()?;
                    Step::simple(axis, test)
                } else {
                    let test = self.parse_node_test()?;
                    // @-less attribute() kind tests do not exist in our
                    // subset; bare tests use the child axis
                    Step::simple(Axis::Child, test)
                }
            }
            other => return self.err(format!("expected axis step, found {other}")),
        };
        while self.peek() == &Token::LBracket {
            self.deepen(1)?;
            self.bump();
            let pred = self.parse_expr()?;
            self.expect(&Token::RBracket)?;
            step.predicates.push(pred);
        }
        self.depth -= step.predicates.len();
        Ok(step)
    }

    fn parse_node_test(&mut self) -> Result<NameTest> {
        match self.bump() {
            Token::Star => Ok(NameTest::Wildcard),
            Token::Name(n) => {
                if self.peek() == &Token::LParen
                    && matches!(n.as_str(), "node" | "text" | "comment")
                {
                    self.bump();
                    self.expect(&Token::RParen)?;
                    Ok(match n.as_str() {
                        "node" => NameTest::AnyKind,
                        "text" => NameTest::Text,
                        _ => NameTest::Comment,
                    })
                } else {
                    Ok(NameTest::Name(n))
                }
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected node test, found {other}"))
            }
        }
    }

    // -- primaries -----------------------------------------------------------

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut e = self.parse_primary()?;
        let mut links = 0;
        while self.peek() == &Token::LBracket {
            self.deepen(1)?;
            links += 1;
            self.bump();
            let pred = self.parse_expr()?;
            self.expect(&Token::RBracket)?;
            e = Expr::Filter { input: e.boxed(), predicate: pred.boxed() };
        }
        self.depth -= links;
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Token::StringLit(s) => {
                self.bump();
                Ok(Expr::Literal(Atomic::Str(s)))
            }
            Token::IntLit(i) => {
                self.bump();
                Ok(Expr::Literal(Atomic::Int(i)))
            }
            Token::DblLit(d) => {
                self.bump();
                Ok(Expr::Literal(Atomic::Dbl(d)))
            }
            Token::Dollar => {
                self.bump();
                let v = self.expect_name()?;
                Ok(Expr::VarRef(v))
            }
            Token::Dot => {
                self.bump();
                Ok(Expr::ContextItem)
            }
            Token::LParen => {
                self.bump();
                if self.peek() == &Token::RParen {
                    self.bump();
                    return Ok(Expr::Empty);
                }
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Name(n) => match n.as_str() {
                "document" if self.peek2() == &Token::LBrace => {
                    self.bump();
                    self.expect(&Token::LBrace)?;
                    let content = self.parse_expr()?;
                    self.expect(&Token::RBrace)?;
                    Ok(Expr::Construct(Constructor::Document { content: content.boxed() }))
                }
                "text" if self.peek2() == &Token::LBrace => {
                    self.bump();
                    self.expect(&Token::LBrace)?;
                    let content = self.parse_expr()?;
                    self.expect(&Token::RBrace)?;
                    Ok(Expr::Construct(Constructor::Text { content: content.boxed() }))
                }
                "element" | "attribute"
                    if matches!(self.peek2(), Token::Name(_) | Token::LBrace) =>
                {
                    let kind = n;
                    self.bump();
                    let name = if self.peek() == &Token::LBrace {
                        self.bump();
                        let e = self.parse_expr()?;
                        self.expect(&Token::RBrace)?;
                        ElemName::Computed(e.boxed())
                    } else {
                        ElemName::Static(self.expect_name()?)
                    };
                    self.expect(&Token::LBrace)?;
                    let content = if self.peek() == &Token::RBrace {
                        Expr::Empty
                    } else {
                        self.parse_expr()?
                    };
                    self.expect(&Token::RBrace)?;
                    Ok(Expr::Construct(if kind == "element" {
                        Constructor::Element { name, content: content.boxed() }
                    } else {
                        Constructor::Attribute { name, content: content.boxed() }
                    }))
                }
                _ if self.peek2() == &Token::LParen => {
                    self.bump();
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        loop {
                            args.push(self.parse_single()?);
                            if self.peek() == &Token::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    Ok(Expr::FunCall { name: n, args })
                }
                _ => self.err(format!("unexpected name {n} in expression position")),
            },
            other => self.err(format!("unexpected token {other}")),
        }
    }
}

/// Rewrites `$var` references to the context item (used for `order by`
/// key desugaring). Stops at shadowing rebinds.
fn substitute_var_with_context(e: &Expr, var: &str) -> Expr {
    fn subst(e: &Expr, var: &str) -> Expr {
        match e {
            Expr::VarRef(v) if v == var => Expr::ContextItem,
            Expr::For { var: v, seq, ret } => Expr::For {
                var: v.clone(),
                seq: subst(seq, var).boxed(),
                ret: if v == var { ret.clone() } else { subst(ret, var).boxed() },
            },
            Expr::Let { var: v, value, ret } => Expr::Let {
                var: v.clone(),
                value: subst(value, var).boxed(),
                ret: if v == var { ret.clone() } else { subst(ret, var).boxed() },
            },
            Expr::Path { start, steps } => Expr::Path {
                start: start.as_ref().map(|s| subst(s, var).boxed()),
                steps: steps
                    .iter()
                    .map(|st| Step {
                        axis: st.axis,
                        test: st.test.clone(),
                        predicates: st.predicates.iter().map(|p| subst(p, var)).collect(),
                    })
                    .collect(),
            },
            Expr::Comparison { op, lhs, rhs } => Expr::Comparison {
                op: *op,
                lhs: subst(lhs, var).boxed(),
                rhs: subst(rhs, var).boxed(),
            },
            Expr::FunCall { name, args } => Expr::FunCall {
                name: name.clone(),
                args: args.iter().map(|a| subst(a, var)).collect(),
            },
            other => other.clone(),
        }
    }
    subst(e, var)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(input: &str) -> Expr {
        parse_expr_str(input).unwrap_or_else(|e| panic!("parse failed for {input:?}: {e}"))
    }

    #[test]
    fn literals_and_sequences() {
        assert_eq!(p("42"), Expr::int(42));
        assert_eq!(p("\"hi\""), Expr::str("hi"));
        assert_eq!(p("()"), Expr::Empty);
        assert_eq!(p("(1, 2)"), Expr::Sequence(vec![Expr::int(1), Expr::int(2)]));
        assert_eq!(p("(1)"), Expr::int(1));
        assert_eq!(p("1.5"), Expr::Literal(Atomic::Dbl(1.5)));
    }

    #[test]
    fn paths_abbreviated() {
        let e = p("doc(\"d.xml\")//person/@id");
        match &e {
            Expr::Path { start, steps } => {
                assert!(matches!(start.as_deref(), Some(Expr::FunCall { name, .. }) if name == "doc"));
                assert_eq!(steps.len(), 3);
                assert_eq!(steps[0].axis, Axis::DescendantOrSelf);
                assert_eq!(steps[0].test, NameTest::AnyKind);
                assert_eq!(steps[1].axis, Axis::Child);
                assert_eq!(steps[1].test, NameTest::Name("person".into()));
                assert_eq!(steps[2].axis, Axis::Attribute);
                assert_eq!(steps[2].test, NameTest::Name("id".into()));
            }
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn explicit_axes() {
        let e = p("$x/parent::a/ancestor-or-self::node()");
        match &e {
            Expr::Path { steps, .. } => {
                assert_eq!(steps[0].axis, Axis::Parent);
                assert_eq!(steps[1].axis, Axis::AncestorOrSelf);
                assert_eq!(steps[1].test, NameTest::AnyKind);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relative_path_uses_context_item() {
        let e = p("$s[tutor = $s/name]");
        match &e {
            Expr::Filter { predicate, .. } => match predicate.as_ref() {
                Expr::Comparison { lhs, .. } => match lhs.as_ref() {
                    Expr::Path { start, steps } => {
                        assert_eq!(start.as_deref(), Some(&Expr::ContextItem));
                        assert_eq!(steps[0].test, NameTest::Name("tutor".into()));
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flwor_desugars_to_core() {
        let e = p("for $x in (1,2) let $y := $x where $y = 1 return $y");
        match &e {
            Expr::For { var, ret, .. } => {
                assert_eq!(var, "x");
                match ret.as_ref() {
                    Expr::Let { var, ret, .. } => {
                        assert_eq!(var, "y");
                        assert!(matches!(ret.as_ref(), Expr::If { .. }));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_binding_for() {
        let e = p("for $x in (1), $y in (2) return ($x, $y)");
        match &e {
            Expr::For { var, ret, .. } => {
                assert_eq!(var, "x");
                assert!(matches!(ret.as_ref(), Expr::For { var, .. } if var == "y"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_rewrites_loop_var_to_context() {
        let e = p("for $x in (3,1,2) order by $x return $x");
        match &e {
            Expr::For { seq, .. } => match seq.as_ref() {
                Expr::OrderBy { input, specs } => {
                    assert!(matches!(input.as_ref(), Expr::Sequence(_)));
                    assert_eq!(specs.len(), 1);
                    assert_eq!(specs[0].key, Expr::ContextItem);
                    assert!(!specs[0].descending);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn node_comparisons() {
        assert!(matches!(
            p("$a is $b"),
            Expr::NodeComparison { op: NodeCompOp::Is, .. }
        ));
        assert!(matches!(
            p("$a << $b"),
            Expr::NodeComparison { op: NodeCompOp::Before, .. }
        ));
        assert!(matches!(
            p("$a >> $b"),
            Expr::NodeComparison { op: NodeCompOp::After, .. }
        ));
    }

    #[test]
    fn set_operations() {
        assert!(matches!(
            p("$a union $b"),
            Expr::NodeSet { op: NodeSetOp::Union, .. }
        ));
        assert!(matches!(p("$a | $b"), Expr::NodeSet { op: NodeSetOp::Union, .. }));
        assert!(matches!(
            p("$a//node() intersect $b//node()"),
            Expr::NodeSet { op: NodeSetOp::Intersect, .. }
        ));
        assert!(matches!(
            p("$a except $b"),
            Expr::NodeSet { op: NodeSetOp::Except, .. }
        ));
    }

    #[test]
    fn and_or_arith_precedence() {
        // a = 1 and b = 2 or c = 3  →  Or(And(=,=), =)
        let e = p("$a = 1 and $b = 2 or $c = 3");
        assert!(matches!(e, Expr::Or(..)));
        let e = p("1 + 2 * 3");
        match e {
            Expr::Arith { op: ArithOp::Add, rhs, .. } => {
                assert!(matches!(rhs.as_ref(), Expr::Arith { op: ArithOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constructors() {
        assert!(matches!(
            p("element person { \"bob\" }"),
            Expr::Construct(Constructor::Element { name: ElemName::Static(_), .. })
        ));
        assert!(matches!(
            p("element { $n } { () }"),
            Expr::Construct(Constructor::Element { name: ElemName::Computed(_), .. })
        ));
        assert!(matches!(
            p("document { element a {()} }"),
            Expr::Construct(Constructor::Document { .. })
        ));
        assert!(matches!(
            p("attribute id { \"7\" }"),
            Expr::Construct(Constructor::Attribute { .. })
        ));
        assert!(matches!(p("text { \"x\" }"), Expr::Construct(Constructor::Text { .. })));
    }

    #[test]
    fn typeswitch_parses() {
        let e = p("typeswitch ($x) case $n as node() return $n default $d return ()");
        match e {
            Expr::Typeswitch { cases, default_var, .. } => {
                assert_eq!(cases.len(), 1);
                assert_eq!(cases[0].var, "n");
                assert_eq!(default_var, "d");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_declarations_and_execute_inline() {
        let m = parse_query(
            "declare function fcn($n as xs:string) as xs:boolean { $n = \"x\" }; \
             execute at { \"peer1\" } { fcn(\"y\") }",
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
        // execute desugars to let $xrpcarg_1 := "y" return Execute{...}
        match &m.body {
            Expr::Let { var, ret, .. } => {
                assert!(var.starts_with("xrpcarg"));
                match ret.as_ref() {
                    Expr::Execute { params, body, .. } => {
                        assert_eq!(params.len(), 1);
                        assert_eq!(params[0].var, "n");
                        assert!(matches!(body.as_ref(), Expr::Comparison { .. }));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn execute_params_form_roundtrips_through_printer() {
        let e = p("execute at { \"p\" } params ($a := $x) { $a/child::b }");
        let printed = e.to_string();
        let reparsed = p(&printed);
        assert_eq!(e, reparsed);
    }

    #[test]
    fn q2_from_the_paper_parses() {
        let q2 = r#"
            (let $s := doc("xrpc://A/students.xml")/people/person,
                 $c := doc("xrpc://B/course42.xml"),
                 $t := $s[tutor = $s/name]
             for $e in $c/enroll/exam
             where $e/@id = $t/id
             return $e)/grade
        "#;
        let e = p(q2);
        match &e {
            Expr::Path { start, steps } => {
                assert!(start.is_some());
                assert_eq!(steps[0].test, NameTest::Name("grade".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn q1_from_the_paper_parses() {
        let q1 = r#"
            declare function makenodes() as node()
            { element a { element b { element c {()} } }/b };
            declare function overlap($l as node(), $r as node()) as xs:boolean
            { not(empty($l//* intersect $r//*)) };
            declare function earlier($l as node(), $r as node()) as node()
            { if ($l << $r) then $l else $r };
            let $bc := makenodes(),
                $abc := $bc/parent::a
            return (for $node in ($bc, $abc)
                    let $first := earlier($bc, $abc)
                    where overlap($first, $node)
                    return $node)//c
        "#;
        let m = parse_query(q1).unwrap();
        assert_eq!(m.functions.len(), 3);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_expr_str("for $x in").is_err());
        assert!(parse_expr_str("if (1) then 2").is_err());
        assert!(parse_expr_str("$").is_err());
        assert!(parse_expr_str("1 +").is_err());
        assert!(parse_expr_str("doc(\"x\"").is_err());
        assert!(parse_query("declare function f() { 1 } 2").is_err(), "missing semicolon");
    }

    #[test]
    fn leading_slash_paths() {
        let e = p("/site/people");
        match &e {
            Expr::Path { start: None, steps } => assert_eq!(steps.len(), 2),
            other => panic!("{other:?}"),
        }
        let e = p("//open_auction");
        assert!(matches!(e, Expr::Path { start: None, ref steps } if steps.len() == 2));
    }

    #[test]
    fn unary_minus() {
        let e = p("-$x");
        assert!(matches!(e, Expr::Arith { op: ArithOp::Sub, .. }));
    }

    #[test]
    fn predicates_on_steps() {
        let e = p("$d/person[age < 40]/name");
        match &e {
            Expr::Path { steps, .. } => {
                assert_eq!(steps.len(), 2);
                assert_eq!(steps[0].predicates.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dotdot_step() {
        let e = p("$x/..");
        match &e {
            Expr::Path { steps, .. } => {
                assert_eq!(steps[0].axis, Axis::Parent);
                assert_eq!(steps[0].test, NameTest::AnyKind);
            }
            other => panic!("{other:?}"),
        }
    }
}
