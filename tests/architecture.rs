//! The structural gates: one table of rows, each saying how often a pattern
//! may appear where in the source tree, and one scanner that checks them.
//!
//! A simplicity change that deletes a parallel code path adds a row here,
//! so the copy cannot grow back unnoticed. Every row also carries a tamper
//! line: `every_row_fires_on_its_tamper_line` injects it into an in-memory
//! copy of the real file and asserts that the row fails, so a row that
//! could never fire does not pass for a gate.
//!
//! std only, so there is no regex engine: a needle is a literal (with
//! optional `grep -w`-style word edges or a column-0 anchor), or one of
//! three small shapes that the table needs (two `fn`-name shapes and an
//! enum-variant line).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// What one needle matches in one line.
#[derive(Clone, Copy, Debug)]
enum Needle {
    /// `text` as a substring: `start` says what must precede it, and with
    /// `word_end` no word character may follow it.
    Text { text: &'static str, start: Start, word_end: bool },
    /// `fn ` then a name of `[a-z_]` characters containing `part`
    /// (`fn [a-z_]*_json`).
    FnNameHas(&'static str),
    /// `fn ` then a name of `[a-z_]` characters ending in `suffix` after at
    /// least one more character, then `(` or `<` (`fn [a-z_]+_plan[(<]`).
    FnNameEnds(&'static str),
    /// An enum variant's line: four spaces, an uppercase letter, letters,
    /// then a space, `,`, `{`, `(` or the line's end.
    Variant,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Start {
    Anywhere,
    /// No word character right before the text (`\b`).
    Word,
    /// At column 0.
    Line,
}

const fn lit(text: &'static str) -> Needle {
    Needle::Text { text, start: Start::Anywhere, word_end: false }
}

/// A whole word, as `grep -w` matches it.
const fn word(text: &'static str) -> Needle {
    Needle::Text { text, start: Start::Word, word_end: true }
}

/// `text\b`.
const fn word_end(text: &'static str) -> Needle {
    Needle::Text { text, start: Start::Anywhere, word_end: true }
}

/// `\btext`.
const fn word_start(text: &'static str) -> Needle {
    Needle::Text { text, start: Start::Word, word_end: false }
}

/// `^text`.
const fn line_start(text: &'static str) -> Needle {
    Needle::Text { text, start: Start::Line, word_end: false }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_name(c: char) -> bool {
    c.is_ascii_lowercase() || c == '_'
}

impl Needle {
    fn matches(self, line: &str) -> bool {
        match self {
            Needle::Text { text, start: Start::Line, word_end } => {
                line.starts_with(text) && (!word_end || edge_ok(line, text.len()))
            }
            // every start, overlapping ones too: one failing its word edge
            // must not hide the next
            Needle::Text { text, start, word_end } => {
                line.contains(text)
                    && line.char_indices().any(|(at, _)| {
                        line[at..].starts_with(text)
                            && (start != Start::Word
                                || !line[..at].chars().next_back().is_some_and(is_word))
                            && (!word_end || edge_ok(line, at + text.len()))
                    })
            }
            Needle::FnNameHas(part) => fn_names(line).any(|(name, _)| name.contains(part)),
            Needle::FnNameEnds(suffix) => fn_names(line).any(|(name, next)| {
                name.len() > suffix.len()
                    && name.ends_with(suffix)
                    && matches!(next, Some('(' | '<'))
            }),
            Needle::Variant => line.strip_prefix("    ").is_some_and(|rest| {
                let mut chars = rest.chars();
                chars.next().is_some_and(|c| c.is_ascii_uppercase())
                    && matches!(
                        chars.find(|c| !c.is_ascii_alphabetic()),
                        None | Some(' ' | ',' | '{' | '(')
                    )
            }),
        }
    }
}

/// No word character at byte `at` of `line`.
fn edge_ok(line: &str, at: usize) -> bool {
    !line[at..].chars().next().is_some_and(is_word)
}

/// The `[a-z_]*` run after each `fn ` in `line`, and the character after it.
fn fn_names(line: &str) -> impl Iterator<Item = (&str, Option<char>)> {
    line.match_indices("fn ").map(move |(at, _)| {
        let rest = &line[at + 3..];
        let end = rest.find(|c| !is_name(c)).unwrap_or(rest.len());
        (&rest[..end], rest[end..].chars().next())
    })
}

/// Which lines of a selected file a row scans.
#[derive(Clone, Copy, Debug)]
enum Lines {
    All,
    /// Up to the file's first `#[cfg(test)]` line.
    NonTest,
    /// As `NonTest`, less comment lines (`//` after leading whitespace).
    NonTestCode,
    /// The items whose header line a needle matches: the header through
    /// the next `}` at column 0.
    Body(&'static [Needle]),
}

/// Lines a row does not count although a needle matches them.
#[derive(Clone, Copy, Debug)]
enum Exempt {
    /// Lines a needle matches, in files matching the glob.
    Line(&'static str, Needle),
    /// The lines strictly inside the items whose header the needle matches.
    Body(Needle),
}

#[derive(Clone, Copy, Debug)]
enum Expect {
    /// This many matching lines over the whole scope (0: banned).
    Lines(usize),
    /// Exactly these files hold a matching line.
    Files(&'static [&'static str]),
    /// Exactly these files match the row's globs (no needles: a file-name
    /// set).
    Names(&'static [&'static str]),
}

/// `line` inserted into `file` after its first line containing `after`
/// (`""`: at the top); a file not in the tree is created.
#[derive(Clone, Copy, Debug)]
struct Tamper {
    file: &'static str,
    after: &'static str,
    line: &'static str,
}

const fn top(file: &'static str, line: &'static str) -> Tamper {
    Tamper { file, after: "", line }
}

const fn below(file: &'static str, after: &'static str, line: &'static str) -> Tamper {
    Tamper { file, after, line }
}

#[derive(Clone, Copy, Debug)]
struct Row {
    /// The design decision the row keeps.
    gate: &'static str,
    /// What a failure means.
    why: &'static str,
    /// Globs over repo-relative paths: `*` within one segment, `**` any
    /// number of segments.
    files: &'static [&'static str],
    lines: Lines,
    /// A line matches when any needle does.
    needles: &'static [Needle],
    exempt: &'static [Exempt],
    expect: Expect,
    tamper: Tamper,
}

const BASE: Row = Row {
    gate: "",
    why: "",
    files: &[],
    lines: Lines::All,
    needles: &[],
    exempt: &[],
    expect: Expect::Lines(0),
    tamper: top("", ""),
};

/// The Rust sources outside tests' own directories.
const SOURCES: &[&str] = &["crates/*/src/**/*.rs", "src/**/*.rs"];
const EXEC: &str = "crates/xrpc/src/exec.rs";
const MESSAGE: &str = "crates/xrpc/src/message.rs";
const SCHED: &str = "crates/xrpc/src/sched.rs";
const EVAL: &str = "crates/xquery/src/eval.rs";
const COMPILE: &str = "crates/xquery/src/compile.rs";
const FRONTEND: &str = "crates/xrpc/src/frontend.rs";
const TCP: &str = "crates/xrpc/src/tcp.rs";
const SERVER: &str = "crates/xrpc/src/server.rs";

const fn span_row(needle: &'static [Needle], tamper: &'static str) -> Row {
    Row {
        gate: "overload is decided once per side",
        why: "each scheduler span is built in one place, Scheduler::dispatch",
        files: &[SCHED],
        lines: Lines::NonTest,
        needles: needle,
        expect: Expect::Lines(1),
        tamper: top(SCHED, tamper),
        ..BASE
    }
}

const ROWS: &[Row] = &[
    Row {
        gate: "one ladder, one retry loop",
        why: "backoff and failover are decided in ladder.rs alone (net.rs defines the predicate)",
        files: &["crates/xrpc/src/*.rs"],
        needles: &[lit("backoff_with_hint("), lit("failover_eligible()")],
        expect: Expect::Files(&["crates/xrpc/src/ladder.rs", "crates/xrpc/src/net.rs"]),
        tamper: top(EXEC, "    let wait = policy.backoff_with_hint(attempt, hint);"),
        ..BASE
    },
    Row {
        gate: "one coordinator",
        why: "Federation in exec.rs is the one RemoteHandler / DocResolver, over either carrier",
        files: &["crates/xrpc/src/*.rs"],
        needles: &[lit("impl RemoteHandler for"), lit("impl DocResolver for")],
        expect: Expect::Files(&[EXEC]),
        tamper: top("crates/xrpc/src/tcp.rs", "impl DocResolver for SocketFederation {}"),
        ..BASE
    },
    Row {
        gate: "one coordinator",
        why: "ladders are walked in exec.rs and ladder.rs only",
        files: &["crates/xrpc/src/*.rs"],
        needles: &[lit("walk(")],
        expect: Expect::Files(&[EXEC, "crates/xrpc/src/ladder.rs"]),
        tamper: top("crates/xrpc/src/tcp.rs", "        ladder::walk(&candidates, deadline);"),
        ..BASE
    },
    Row {
        gate: "one coordinator",
        why: "tcp.rs is a transport and a logic-free face: no scoreboard, evaluator or counter",
        files: &["crates/xrpc/src/tcp.rs"],
        needles: &[lit("Mutex<Scoreboard>"), lit("Evaluator::new"), lit("AtomicU64")],
        tamper: top("crates/xrpc/src/tcp.rs", "static CALLS: AtomicU64 = AtomicU64::new(0);"),
        ..BASE
    },
    Row {
        gate: "one home per placement fact",
        why: "routes are chosen per call by the ladder: no plan is resolved or keyed on topology",
        files: &["crates/xrpc/src/**/*.rs"],
        needles: &[lit("topology_changed"), lit("catalog_gen"), lit("resolve_replicas(")],
        tamper: below(
            FRONTEND,
            "pub(crate) fn prepare(",
            "        decomposition.resolve_replicas(&catalog.lock().unwrap(), exec.replica_seed);",
        ),
        ..BASE
    },
    Row {
        gate: "one home per placement fact",
        why: "TcpTransport's dial map is the one address book (the catalog holds placement only)",
        files: SOURCES,
        needles: &[lit("set_address"), lit("set_peer_address")],
        tamper: top(EXEC, "    pub fn set_peer_address(&mut self, peer: &str, addr: &str) {"),
        ..BASE
    },
    Row {
        gate: "one home per placement fact",
        why: "SocketFederation keeps the three calls wirebench makes: new, set_retry_policy, run",
        files: &[TCP],
        lines: Lines::Body(&[line_start("impl SocketFederation")]),
        needles: &[word_start("fn ")],
        expect: Expect::Lines(3),
        tamper: below(TCP, "impl SocketFederation", "    pub fn plan_cache_len(&self) -> usize {"),
        ..BASE
    },
    Row {
        gate: "one home per placement fact",
        why: "both ends read a frame under the one cap, MAX_FRAME_LEN: no per-side field",
        files: &[SERVER, TCP],
        needles: &[lit("max_frame_len")],
        tamper: below(SERVER, "pub struct ServerConfig {", "    pub max_frame_len: usize,"),
        ..BASE
    },
    Row {
        gate: "every envelope is opened once",
        why: "an envelope is classified by the prefixes message.rs names, not by scanning it",
        files: &["crates/xrpc/src/*.rs"],
        needles: &[lit(r#"contains("<fault"#), lit(r#"contains("<doc-request"#)],
        tamper: top(EXEC, r#"    if reply.contains("<fault") {"#),
        ..BASE
    },
    Row {
        gate: "every envelope is opened once",
        why: "decode_doc_response strips a fixed header and trailer, it does not parse again",
        files: &[MESSAGE],
        lines: Lines::Body(&[line_start("pub fn decode_doc_response")]),
        needles: &[lit("Store::new()")],
        tamper: below(MESSAGE, "pub fn decode_doc_response", "    let mut store = Store::new();"),
        ..BASE
    },
    Row {
        gate: "every envelope is opened once",
        why: "message.rs has no private attribute or child helper (Attrs; NodeRef::child_element)",
        files: &[MESSAGE],
        lines: Lines::NonTest,
        needles: &[word_end("fn attr"), word_end("fn find_child"), word_end("fn children_named")],
        tamper: top(MESSAGE, "fn attr<'d>(el: &NodeRef<'d>, name: &str) -> Option<&'d str> {"),
        ..BASE
    },
    Row {
        gate: "every envelope is opened once",
        why: "message.rs reads attributes through impl Attrs only (b.attribute( is a write)",
        files: &[MESSAGE],
        lines: Lines::NonTest,
        needles: &[lit(".attribute("), lit(".attributes(")],
        exempt: &[
            Exempt::Line("**", word_start("b.attribute(")),
            Exempt::Body(line_start("impl<'a> Attrs<'a> {")),
        ],
        tamper: top(MESSAGE, r#"    let id = el.attribute("id");"#),
        ..BASE
    },
    Row {
        gate: "every envelope is opened once",
        why: "exec.rs holds one document server (Peer::serve_document)",
        files: &[EXEC],
        needles: &[lit(r#""xrpc:document-not-found""#)],
        expect: Expect::Lines(1),
        tamper: top(EXEC, r#"        return fault("xrpc:document-not-found", uri);"#),
        ..BASE
    },
    Row {
        gate: "a shipped document is paid for once",
        why: "exec.rs serves a document from its cached text (Store::served_text), never anew",
        files: &[EXEC],
        lines: Lines::NonTest,
        needles: &[lit("serialize_document(")],
        exempt: &[Exempt::Line(EXEC, lit("total += xqd_xml::serialize_document("))],
        tamper: top(
            EXEC,
            "        Ok(xqd_xml::serialize_document(self.store.doc(doc), &self.store.names))",
        ),
        ..BASE
    },
    Row {
        gate: "a shipped document is paid for once",
        why: "decode_doc_response borrows the document from the frame; the shredder reads it there",
        files: &[MESSAGE],
        lines: Lines::Body(&[line_start("pub fn decode_doc_response")]),
        needles: &[lit("to_string"), lit("to_owned"), lit("String::from")],
        tamper: below(MESSAGE, "pub fn decode_doc_response", "    Some(rest.to_string())"),
        ..BASE
    },
    Row {
        gate: "a shipped document is paid for once",
        why: "NameTable keeps std's keyed SipHash (the shredder's NameMemo sits in front of it)",
        files: &["crates/xml/src/name.rs"],
        needles: &[lit("BuildHasher"), lit("with_hasher("), lit("Hasher for")],
        tamper: top(
            "crates/xml/src/name.rs",
            "    index: HashMap<Box<str>, NameId, BuildHasherDefault<FxHasher>>,",
        ),
        ..BASE
    },
    Row {
        gate: "the shredder copies runs",
        why: "parser.rs slices the &str it is given and searches with str::find",
        files: &["crates/xml/src/parser.rs"],
        needles: &[lit("from_utf8"), lit("windows(")],
        tamper: top("crates/xml/src/parser.rs", "    let text = std::str::from_utf8(bytes)?;"),
        ..BASE
    },
    Row {
        gate: "the shredder copies runs",
        why: "the escapers copy the runs between special bytes, not one char at a time",
        files: &["crates/xml/src/serialize.rs"],
        lines: Lines::Body(&[
            line_start("fn escape("),
            line_start("pub fn escape("),
            line_start("fn escape_text("),
            line_start("pub fn escape_text("),
            line_start("fn escape_attr("),
            line_start("pub fn escape_attr("),
        ]),
        needles: &[lit(".chars()")],
        tamper: below("crates/xml/src/serialize.rs", "fn escape(", "    for c in s.chars() {"),
        ..BASE
    },
    Row {
        gate: "the shredder copies runs",
        why: "node values are spans into the document's text arena, not boxed per node",
        files: &["crates/xml/src/store.rs"],
        needles: &[lit("Option<Box<str>>")],
        tamper: top("crates/xml/src/store.rs", "    value: Option<Box<str>>,"),
        ..BASE
    },
    Row {
        gate: "one bench emitter, one report writer, no dead option",
        why: "the five sweeps share one emitter, examples/bench.rs",
        files: &["examples/*bench*.rs"],
        expect: Expect::Names(&["examples/bench.rs"]),
        tamper: top("examples/scaleout_bench.rs", "fn main() {}"),
        ..BASE
    },
    Row {
        gate: "one bench emitter, one report writer, no dead option",
        why: "crates/bench/src/lib.rs formats no JSON by hand (report.rs is the writer)",
        files: &["crates/bench/src/lib.rs"],
        needles: &[lit("fn to_json"), Needle::FnNameHas("_json")],
        tamper: top("crates/bench/src/lib.rs", "    fn points_json(&self) -> String {"),
        ..BASE
    },
    Row {
        gate: "one bench emitter, one report writer, no dead option",
        why: "ExecOptions::bulk_workers, a worker fork no caller turned on, stays gone",
        files: &["crates/**", "src/**", "tests/**", "examples/**"],
        needles: &[lit("bulk_workers")],
        tamper: top(EXEC, "    pub bulk_workers: usize,"),
        ..BASE
    },
    Row {
        gate: "overload is decided once per side",
        why: "a peer slot is bounded by ServerConfig::max_inflight alone",
        files: &["crates/**", "src/**"],
        needles: &[lit("peer_queue_depth")],
        tamper: top(EXEC, "    pub peer_queue_depth: usize,"),
        ..BASE
    },
    Row {
        gate: "overload is decided once per side",
        why: "sched.rs holds no macro (Scheduler::dispatch is the one dispatch path)",
        files: &[SCHED],
        needles: &[lit("macro_rules!")],
        tamper: top(SCHED, "macro_rules! drain { () => {} }"),
        ..BASE
    },
    span_row(&[lit("\"sched.queued\"")], r#"        tracer.span("sched.queued", start);"#),
    span_row(&[lit("\"sched.run\"")], r#"        tracer.span("sched.run", start);"#),
    span_row(&[lit("\"sched.cancelled\"")], r#"        tracer.span("sched.cancelled", start);"#),
    span_row(&[lit("\"sched.shed\"")], r#"        tracer.span("sched.shed", start);"#),
    Row {
        gate: "overload is decided once per side",
        why: "the seeded rendezvous hash is defined once, in xqd_core::replicas",
        files: &["crates/**/*.rs"],
        needles: &[lit("fn mix_score")],
        expect: Expect::Lines(1),
        tamper: top(EXEC, "fn mix_score(seed: u64, peer: &str) -> u64 {"),
        ..BASE
    },
    Row {
        gate: "the AST is walked one way",
        why: "child lists and scope rules live in Expr::for_each_child alone",
        files: &["crates/**/*.rs"],
        needles: &[
            word_end("fn collect_children"),
            word_end("fn count_uses"),
            word_end("fn uses_var"),
            word_end("fn binds_name"),
            word_end("fn normalize_children"),
            word_end("fn is_downward_only"),
        ],
        tamper: top(
            "crates/core/src/decompose.rs",
            "fn count_uses(e: &Expr, var: &str) -> usize {",
        ),
        ..BASE
    },
    Row {
        gate: "the AST is walked one way",
        why: "map_children is defined beside for_each_child in ast.rs only",
        files: &["crates/**/*.rs"],
        needles: &[lit("fn map_children")],
        expect: Expect::Files(&["crates/xquery/src/ast.rs"]),
        tamper: top("crates/xquery/src/normalize.rs", "pub fn map_children(e: &Expr) -> Expr {"),
        ..BASE
    },
    Row {
        gate: "the AST is walked one way",
        why: "the plan carries no decomposer metadata (the Decomposition holds it)",
        files: &["crates/**/*.rs", "src/**/*.rs", "examples/**/*.rs"],
        needles: &[lit("PlanRoute"), lit("PlanSemijoin")],
        tamper: top(COMPILE, "    pub routes: Vec<PlanRoute>,"),
        ..BASE
    },
    Row {
        gate: "the AST is walked one way",
        why: "the FNV-1a offset basis appears once outside tests, in xqd_prng::fnv1a",
        files: &["crates/*/src/*.rs"],
        lines: Lines::NonTest,
        needles: &[lit("0xcbf2_9ce4_8422_2325")],
        expect: Expect::Lines(1),
        tamper: top(SCHED, "    let mut h = 0xcbf2_9ce4_8422_2325u64;"),
        ..BASE
    },
    Row {
        gate: "a shipped node is addressed one way",
        why: "both ends address a shipped node through one table, wire::Fragment",
        files: &["crates/**/*.rs"],
        needles: &[
            word_end("fn nodeid_in_range"),
            word_end("fn node_at_nodeid"),
            word_end("fn locate_projected"),
            word_end("fn projected_nodeid"),
            word_end("struct ProjectedFragment"),
        ],
        tamper: top("crates/xrpc/src/wire.rs", "struct ProjectedFragment {"),
        ..BASE
    },
    Row {
        gate: "a shipped node is addressed one way",
        why: "enum NodeCodec has two variants: Value | Fragments",
        files: &[MESSAGE],
        lines: Lines::Body(&[line_start("enum NodeCodec")]),
        needles: &[Needle::Variant],
        expect: Expect::Lines(2),
        tamper: below(MESSAGE, "enum NodeCodec", "    Projection,"),
        ..BASE
    },
    Row {
        gate: "a shipped node is addressed one way",
        why: "a received fragid is subtracted from with checked_sub, then indexed",
        files: &[MESSAGE],
        needles: &[lit("as usize - 1")],
        tamper: top(MESSAGE, "    let frag = &frags[fragid as usize - 1];"),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "the walker has no index path or toggle (a plan fixes its index choice when compiled)",
        files: &["crates/**/*.rs", "src/**/*.rs", "tests/**/*.rs", "examples/**/*.rs"],
        needles: &[
            word("with_indexes"),
            word("eval_query_with_indexes"),
            word("fn indexed_step"),
            word("fn indexed_named_step"),
        ],
        tamper: top(EVAL, "    pub fn with_indexes(mut self, on: bool) -> Self {"),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "no production code runs the reference walker (Plan::eval is the engine that ships)",
        files: SOURCES,
        lines: Lines::NonTestCode,
        needles: &[word("reference_eval")],
        exempt: &[
            Exempt::Line("crates/xquery/src/reference.rs", line_start("pub fn reference_eval(")),
            Exempt::Line(
                "crates/xquery/src/lib.rs",
                line_start("pub use reference::reference_eval;"),
            ),
        ],
        tamper: top(EXEC, "        let result = xqd_xquery::reference_eval(&mut store, &module);"),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "compile.rs mirrors no walker method (it calls the shared body in eval.rs)",
        files: &[COMPILE],
        lines: Lines::NonTestCode,
        needles: &[Needle::FnNameEnds("_plan")],
        tamper: top(COMPILE, "    fn eval_path_plan(&mut self, op: OpRef) -> EvalResult {"),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "every scatter round lowers to Op::Scatter: no per-shape scatter path or field",
        files: &[COMPILE],
        lines: Lines::NonTestCode,
        needles: &[
            lit("LetScatter"),
            lit("binary_scatter"),
            lit("eval_sequence_scatter"),
            lit("eval_operand_pair"),
            word_start("scatter:"),
        ],
        tamper: top(COMPILE, "    LetScatter { binds: Vec<OpRef>, body: OpRef },"),
        ..BASE
    },
    Row {
        gate: "a remote call has one shape",
        why: "RemoteHandler declares one method: a lone call, a Bulk RPC and a scatter round \
              are all slices of requests",
        files: &[EVAL],
        lines: Lines::Body(&[lit("trait RemoteHandler")]),
        needles: &[word_start("fn ")],
        expect: Expect::Lines(1),
        tamper: below(
            EVAL,
            "pub trait RemoteHandler",
            "    fn execute(&mut self, call: &Call) -> EvalResult;",
        ),
        ..BASE
    },
    Row {
        gate: "a remote call has one shape",
        why: "no second handler entry point and no per-ladder billing helper",
        files: SOURCES,
        lines: Lines::NonTestCode,
        needles: &[
            word_start("execute_bulk"),
            word_start("execute_scatter"),
            word_start("charge_ladder"),
        ],
        tamper: below(EXEC, "impl RemoteHandler for FedLink", "    fn execute_bulk("),
        ..BASE
    },
    Row {
        gate: "a remote call lands one way",
        why: "only the landing routine, exec.rs's fn land, observes and traces a finished ladder",
        files: &[EXEC],
        lines: Lines::NonTestCode,
        needles: &[lit("apply_observations("), lit("tracer.advance(")],
        exempt: &[Exempt::Body(line_start("fn land("))],
        tamper: below(
            EXEC,
            "impl DocResolver for FedLink",
            "        tracer.advance(ladder.window);",
        ),
        ..BASE
    },
    Row {
        gate: "a remote call lands one way",
        why: "fn land applies the health observations and advances the trace clock once each",
        files: &[EXEC],
        lines: Lines::Body(&[line_start("fn land(")]),
        needles: &[lit("apply_observations("), lit("tracer.advance(")],
        expect: Expect::Lines(2),
        tamper: below(EXEC, "fn land(", "    core.apply_observations(window, []);"),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "the shared arithmetic body in eval.rs is written once",
        files: SOURCES,
        lines: Lines::NonTestCode,
        needles: &[lit("arithmetic on a multi-item sequence")],
        expect: Expect::Lines(1),
        tamper: top(
            COMPILE,
            r#"return Err(EvalError::new("arithmetic on a multi-item sequence"));"#,
        ),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "the shared computed-constructor-name body in eval.rs is written once",
        files: SOURCES,
        lines: Lines::NonTestCode,
        needles: &[lit("computed constructor name must be a single item")],
        expect: Expect::Lines(1),
        tamper: top(
            COMPILE,
            r#"_ => Err(EvalError::new("computed constructor name must be a single item")),"#,
        ),
        ..BASE
    },
    Row {
        gate: "one engine ships",
        why: "Evaluator holds no function table (reference_eval passes the module's to its walk)",
        files: &[EVAL],
        lines: Lines::Body(&[line_start("pub struct Evaluator<")]),
        needles: &[word_start("functions:")],
        tamper: below(EVAL, "pub struct Evaluator<", "    pub functions: &'a [FunctionDef],"),
        ..BASE
    },
    Row {
        gate: "the structural gates are this table",
        why: "ci.sh holds no structural grep block beside this table",
        files: &["ci.sh"],
        needles: &[lit("(structural)")],
        tamper: top("ci.sh", r#"echo "== one ladder, one retry loop (structural) ==""#),
        ..BASE
    },
];

/// Repo-relative path → contents of every file the rows may select; this
/// file names every banned needle, so it is left out.
type Tree = Vec<(String, String)>;

const SELF: &str = "tests/architecture.rs";

fn load_tree() -> Tree {
    fn walk(root: &Path, rel: &str, out: &mut Tree) {
        let path = root.join(rel);
        if path.is_dir() {
            let mut names: Vec<String> = fs::read_dir(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                .map(|entry| {
                    entry.expect("directory entry").file_name().to_string_lossy().into_owned()
                })
                .collect();
            names.sort();
            for name in names {
                walk(root, &format!("{rel}/{name}"), out);
            }
        } else if rel != SELF {
            let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((rel.to_string(), String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Tree::new();
    for top in ["ci.sh", "crates", "examples", "src", "tests"] {
        walk(root, top, &mut tree);
    }
    tree
}

/// `path` matches `glob`: `*` is any run within one segment, `**` any
/// number of whole segments.
fn glob_matches(glob: &str, path: &str) -> bool {
    fn segments(g: &[&str], p: &[&str]) -> bool {
        match (g.split_first(), p.split_first()) {
            (Some((&"**", g_rest)), _) => {
                segments(g_rest, p)
                    || p.split_first().is_some_and(|(_, p_rest)| segments(g, p_rest))
            }
            (Some((g0, g_rest)), Some((p0, p_rest))) => wild(g0, p0) && segments(g_rest, p_rest),
            (None, None) => true,
            _ => false,
        }
    }
    fn wild(g: &str, s: &str) -> bool {
        match g.split_once('*') {
            None => g == s,
            Some((head, tail)) => s.strip_prefix(head).is_some_and(|rest| {
                rest.char_indices()
                    .map(|(i, _)| i)
                    .chain([rest.len()])
                    .any(|i| wild(tail, &rest[i..]))
            }),
        }
    }
    let g: Vec<&str> = glob.split('/').collect();
    let p: Vec<&str> = path.split('/').collect();
    segments(&g, &p)
}

/// For each line of `text`: in the region `lines` selects, and strictly
/// inside a body an `Exempt::Body` names.
fn regions(text: &str, lines: Lines, exempt: &[Exempt]) -> Vec<(bool, bool)> {
    let bodies = |headers: &dyn Fn(&str) -> bool| {
        // (header or inside, strictly inside) per line
        let mut open = false;
        text.lines()
            .map(|line| {
                if open {
                    open = !line.starts_with('}');
                    (true, open)
                } else {
                    open = headers(line);
                    (open, false)
                }
            })
            .collect::<Vec<_>>()
    };
    let scope: Vec<bool> = match lines {
        Lines::All => text.lines().map(|_| true).collect(),
        Lines::NonTest | Lines::NonTestCode => {
            let mut tests = false;
            text.lines()
                .map(|line| {
                    tests = tests || line.starts_with("#[cfg(test)]");
                    let comment = matches!(lines, Lines::NonTestCode)
                        && line
                            .trim_start_matches([' ', '\t', '\r', '\x0b', '\x0c'])
                            .starts_with("//");
                    !tests && !comment
                })
                .collect()
        }
        Lines::Body(headers) => {
            bodies(&|l| headers.iter().any(|h| h.matches(l))).into_iter().map(|b| b.0).collect()
        }
    };
    let mut skipped = vec![false; scope.len()];
    for e in exempt {
        if let Exempt::Body(header) = e {
            for (s, (_, inside)) in skipped.iter_mut().zip(bodies(&|l| header.matches(l))) {
                *s |= inside;
            }
        }
    }
    scope.into_iter().zip(skipped).collect()
}

/// Ok, or what is wrong: the row, then each offending line as grep prints it.
fn verdict(row: &Row, tree: &Tree) -> Result<(), String> {
    let selected: Vec<&(String, String)> =
        tree.iter().filter(|(path, _)| row.files.iter().any(|g| glob_matches(g, path))).collect();
    let fail = |detail: String| Err(format!("[{}] {}\n{detail}", row.gate, row.why));
    if let Expect::Names(want) = row.expect {
        let got: BTreeSet<&str> = selected.iter().map(|(p, _)| p.as_str()).collect();
        let want: BTreeSet<&str> = want.iter().copied().collect();
        return if got == want { Ok(()) } else { fail(format!("  files {got:?}, want {want:?}")) };
    }
    let mut scanned = 0usize;
    let mut hits: Vec<String> = Vec::new();
    let mut hit_files: BTreeSet<&str> = BTreeSet::new();
    for (path, text) in selected {
        let line_exempt = |line: &str| {
            row.exempt.iter().any(
                |e| matches!(e, Exempt::Line(g, n) if glob_matches(g, path) && n.matches(line)),
            )
        };
        for ((n, line), (in_scope, body_exempt)) in
            text.lines().enumerate().zip(regions(text, row.lines, row.exempt))
        {
            if !in_scope {
                continue;
            }
            scanned += 1;
            if !body_exempt && !line_exempt(line) && row.needles.iter().any(|nd| nd.matches(line)) {
                hits.push(format!("  {path}:{}: {line}", n + 1));
                hit_files.insert(path);
            }
        }
    }
    if scanned == 0 {
        return fail(format!("  the row scans no line of {:?}: it can never fire", row.files));
    }
    match row.expect {
        Expect::Lines(n) if hits.len() != n => {
            fail(format!("  want {n} matching line(s), got {}:\n{}", hits.len(), hits.join("\n")))
        }
        Expect::Files(want) if hit_files != want.iter().copied().collect() => {
            fail(format!("  files {hit_files:?} match, want {want:?}"))
        }
        _ => Ok(()),
    }
}

/// `tree` with `t.line` injected.
fn tampered(tree: &Tree, t: &Tamper) -> Tree {
    let mut out = tree.clone();
    match out.iter_mut().find(|(path, _)| path == t.file) {
        Some((_, text)) => {
            let mut lines: Vec<&str> = text.lines().collect();
            let at = if t.after.is_empty() {
                0
            } else {
                1 + lines.iter().position(|l| l.contains(t.after)).unwrap_or_else(|| {
                    panic!("{}: no line holds the tamper anchor {:?}", t.file, t.after)
                })
            };
            lines.insert(at, t.line);
            *text = lines.join("\n");
        }
        None => out.push((t.file.to_string(), t.line.to_string())),
    }
    out
}

#[test]
fn the_tree_passes_every_row() {
    let tree = load_tree();
    let failures: Vec<String> = ROWS.iter().filter_map(|row| verdict(row, &tree).err()).collect();
    assert!(
        failures.is_empty(),
        "{} structural row(s) fail:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_row_fires_on_its_tamper_line() {
    let tree = load_tree();
    for row in ROWS {
        let err = verdict(row, &tampered(&tree, &row.tamper)).expect_err(&format!(
            "row [{}] {} does not fire on {:?}",
            row.gate, row.why, row.tamper
        ));
        assert!(
            err.contains(row.tamper.file),
            "row [{}] fired for another reason:\n{err}",
            row.gate
        );
    }
}

#[test]
fn needles_match_as_grep_does() {
    assert!(word("with_indexes").matches("fn with_indexes(x)"));
    assert!(!word("with_indexes").matches("eval_query_with_indexes()"));
    assert!(word_end("fn uses_var").matches("pub fn uses_var("));
    assert!(!word_end("fn uses_var").matches("fn uses_variable("));
    assert!(word_end("a_a").matches("a_a_a"));
    assert!(word_start("scatter:").matches("    scatter: Vec<u32>,"));
    assert!(!word_start("scatter:").matches("    is_scatter: bool,"));
    assert!(Needle::FnNameHas("_json").matches("    fn write_points_json_to(&self)"));
    assert!(!Needle::FnNameHas("_json").matches("    fn json_points(&self)"));
    assert!(Needle::FnNameEnds("_plan").matches("fn path_plan<'a>(x)"));
    assert!(!Needle::FnNameEnds("_plan").matches("fn _plan(x)"));
    assert!(!Needle::FnNameEnds("_plan").matches("fn path_plan2(x)"));
    assert!(Needle::Variant.matches("    Fragments { id: u32 },"));
    assert!(Needle::Variant.matches("    Value"));
    assert!(!Needle::Variant.matches("    /// Value"));
    assert!(!Needle::Variant.matches("        Value,"));
    assert!(!Needle::Variant.matches("    Value2,"));
    assert!(glob_matches("crates/*/src/**/*.rs", "crates/xml/src/a/b.rs"));
    assert!(glob_matches("crates/*/src/**/*.rs", "crates/xml/src/b.rs"));
    assert!(!glob_matches("crates/*/src/*.rs", "crates/xml/src/a/b.rs"));
    assert!(glob_matches("examples/*bench*.rs", "examples/bench.rs"));
    assert!(!glob_matches("examples/*bench*.rs", "examples/quickstart.rs"));
}
