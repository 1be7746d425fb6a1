//! # xqd-xquery — the XQuery (extended XCore) engine
//!
//! Lexer, parser, normalizer and evaluator for the XCore dialect of Table II
//! of *"Efficient Distribution of Full-Fledged XQuery"* (ICDE 2009), plus
//! the XRPC extension rules 27–28 (`execute at`).
//!
//! The engine is deliberately **network-agnostic**: `fn:doc` resolution and
//! `execute at` dispatch go through the [`eval::DocResolver`] and
//! [`eval::RemoteHandler`] traits, which `xqd-xrpc` implements with the
//! paper's three message-passing semantics (pass-by-value, pass-by-fragment,
//! pass-by-projection). Running the same evaluator over shipped fragments is
//! what makes the paper's semantic Problems 1–5 faithfully observable.
//!
//! ```
//! use xqd_xml::Store;
//! use xqd_xquery::{parse_query, eval_query};
//!
//! let mut store = Store::new();
//! xqd_xml::parse_document(&mut store, "<people><p age='30'/><p age='50'/></people>",
//!                         Some("people.xml")).unwrap();
//! let q = parse_query("count(doc(\"people.xml\")//p[@age < 40])").unwrap();
//! let result = eval_query(&mut store, &q).unwrap();
//! assert_eq!(format!("{result:?}"), "[Atom(Int(1))]");
//! ```

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod eval;
pub mod lexer;
pub mod normalize;
pub mod parser;
mod reference;
pub mod value;

pub use ast::{Atomic, Expr, FunctionDef, QueryModule, XrpcParam};
pub use compile::{
    compile_module, compile_query, scatter_rounds, Op, OpProfile, OpRef, Plan, PlanStep,
    ProfileHook, SymId,
};
pub use eval::{
    eval_query, DocResolver, Evaluator, LocalResolver, RemoteHandler, RemoteRequest, StaticContext,
};
pub use normalize::{free_vars, inline_functions, lower_filters, normalize, rename_var};
pub use parser::{parse_expr_str, parse_query, ParseError};
pub use reference::reference_eval;
pub use value::{
    deep_equal, effective_boolean_value, EvalError, EvalResult, Item, Sequence,
};
