//! XRPC message codecs: pass-by-value, pass-by-fragment and
//! pass-by-projection request/response encoding (Figures 1, 4 and 5).
//!
//! Messages are **real XML bytes**: the sender serializes into the SOAP-like
//! vocabulary below and the receiver re-parses ("shreds") it, so every
//! semantic property the paper derives from copying — lost parents under
//! by-value, preserved ancestry under by-fragment, projected context under
//! by-projection — emerges from the data representation, not from special
//! cases in the engine.
//!
//! ```text
//! <env><request semantics=".." static-base-uri=".." default-collation=".."
//!               current-dateTime="..">
//!   <query>…XQuery source…</query>
//!   <response-paths><used-path>…</used-path><returned-path>…</returned-path></response-paths>?
//!   <fragments><fragment uri=".." base-uri="..">…</fragment>*</fragments>?
//!   <call><param name="..."><sequence>…items…</sequence></param>*</call>+   (Bulk RPC: one <call> per iteration)
//! </request></env>
//!
//! items: <atom type="…">lexical</atom>
//!      | <copy kind="element|document|attribute|text|comment|pi" name=".."
//!              base-uri=".." document-uri="..">content</copy>     (by-value)
//!      | <element fragid=".." nodeid=".."/>                       (by-fragment/-projection)
//!      | <attribute fragid=".." nodeid=".." name=".."/>
//!
//! <env><response semantics="..">fragments? <call-result><sequence>…</sequence></call-result>*</response></env>
//! <env><fault code=".." peer=".." retry-after-ms=".."?><message>…</message></fault></env>
//! <env><doc-request uri=".."/></env>                                  (data shipping over a transport)
//! <env><doc uri="..">…the serialized document, embedded as is…</doc></env>
//! ```
//!
//! What kind of envelope a byte string is, is decided by its **prefix** —
//! the five the encoders emit, named once below — never by scanning or
//! parsing the message: element names inside shipped data cannot be
//! mistaken for an envelope, and a consumer opens a message at most once.

use std::fmt::Write;

use xqd_xml::project::{build_projected, compute_projection, ProjectionInput};
use xqd_xml::serialize::{escape_attr, escape_text, serialize_node, serialize_node_into};
use xqd_xml::{DocBuilder, DocId, NodeId, NodeKind, NodeMeta, Store};
use xqd_xquery::ast::{Atomic, PathSpec};
use xqd_xquery::eval::StaticContext;
use xqd_xquery::value::{EvalError, EvalResult, Item, Sequence};

use crate::net::XrpcError;
use crate::wire::{eval_rel_paths, fragment_roots, locate, parse_rel_path, Fragment};

/// Message-level passing semantics (the codec in use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSemantics {
    Value,
    Fragment,
    Projection,
}

impl WireSemantics {
    /// The codec the calls of a `strategy` run travel in (data shipping
    /// generates no calls; it rides along with by-value).
    pub fn of(strategy: xqd_core::Strategy) -> Self {
        match strategy {
            xqd_core::Strategy::ByFragment => WireSemantics::Fragment,
            xqd_core::Strategy::ByProjection => WireSemantics::Projection,
            _ => WireSemantics::Value,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            WireSemantics::Value => "value",
            WireSemantics::Fragment => "fragment",
            WireSemantics::Projection => "projection",
        }
    }

    fn from_tag(s: &str) -> Option<Self> {
        Some(match s {
            "value" => WireSemantics::Value,
            "fragment" => WireSemantics::Fragment,
            "projection" => WireSemantics::Projection,
            _ => return None,
        })
    }
}

/// How a message carries its node-valued items.
enum NodeCodec {
    Value,
    /// The `<fragments>` preamble: by-fragment and by-projection differ only
    /// in which nodes each fragment holds. `table[i]` addresses the nodes
    /// of `fragid` i + 1, `xml[i]` is its serialized content.
    Fragments {
        table: Vec<Fragment>,
        xml: Vec<String>,
    },
}

/// A shipped sequence with the path spec it travels under (by-projection
/// only; `None` ships whole subtrees).
type Group<'a> = (&'a Sequence, Option<&'a PathSpec>);

/// The node items of `seq`, in sequence order.
fn node_items(seq: &Sequence) -> Vec<NodeId> {
    seq.iter()
        .filter_map(|i| match i {
            Item::Node(n) => Some(*n),
            Item::Atom(_) => None,
        })
        .collect()
}

/// The codec the node items of `groups` travel in under `semantics`.
fn node_codec(store: &Store, semantics: WireSemantics, groups: &[Group]) -> NodeCodec {
    let (table, xml) = match semantics {
        WireSemantics::Value => return NodeCodec::Value,
        WireSemantics::Fragment => {
            let nodes: Vec<NodeId> = groups.iter().flat_map(|(seq, _)| node_items(seq)).collect();
            fragment_roots(store, &nodes)
                .into_iter()
                .map(|(d, r)| {
                    let xml = serialize_node(store.doc(d), &store.names, r);
                    (Fragment::subtree(store, d, r), xml)
                })
                .unzip()
        }
        WireSemantics::Projection => by_projection(store, groups),
    };
    NodeCodec::Fragments { table, xml }
}

/// Pass-by-projection: per document, run Algorithm 1 on the union of the
/// used/returned node sets derived from the per-sequence path specs; the
/// projected document is the document's one fragment.
fn by_projection(store: &Store, groups: &[Group]) -> (Vec<Fragment>, Vec<String>) {
    use std::collections::BTreeMap;
    // per-doc used/returned sets
    let mut used: BTreeMap<DocId, Vec<u32>> = BTreeMap::new();
    let mut returned: BTreeMap<DocId, Vec<u32>> = BTreeMap::new();
    for (seq, spec) in groups {
        let nodes = node_items(seq);
        match spec {
            Some(spec) if !spec.returned.iter().any(|r| r.0.is_empty()) => {
                // the items themselves are always referenced → used
                for n in &nodes {
                    used.entry(n.doc).or_default().push(n.idx);
                }
                for n in eval_rel_paths(store, &nodes, &spec.used) {
                    used.entry(n.doc).or_default().push(n.idx);
                }
                for n in eval_rel_paths(store, &nodes, &spec.returned) {
                    returned.entry(n.doc).or_default().push(n.idx);
                }
            }
            _ => {
                // no spec (or whole-value spec): ship full subtrees
                for n in &nodes {
                    returned.entry(n.doc).or_default().push(n.idx);
                }
            }
        }
    }
    let mut docs: Vec<DocId> = used.keys().chain(returned.keys()).copied().collect();
    docs.sort_unstable();
    docs.dedup();
    docs.into_iter()
        .map(|d| {
            let doc = store.doc(d);
            let input = ProjectionInput::new(
                used.remove(&d).unwrap_or_default(),
                returned.remove(&d).unwrap_or_default(),
            );
            let projection = compute_projection(doc, &input);
            let builder = build_projected(doc, &store.names, &projection, None);
            // serialize via a scratch store (the builder is standalone)
            let mut scratch = Store::new();
            let pd = scratch.attach(builder);
            let xml = xqd_xml::serialize_document(scratch.doc(pd), &scratch.names);
            // kept[i] is projected node i + 1, so the kept nodes address it
            (Fragment::of(store, d, projection.kept), xml)
        })
        .unzip()
}

/// Writes the `<fragments>` preamble, each `<fragment>` with its class-2
/// context properties (Problem 5).
fn write_fragments(store: &Store, codec: &NodeCodec, out: &mut String) {
    let NodeCodec::Fragments { table, xml } = codec else { return };
    if table.is_empty() {
        return;
    }
    out.push_str("<fragments>");
    for (f, xml) in table.iter().zip(xml) {
        let doc = store.doc(f.doc);
        out.push_str("<fragment");
        for (attr, value) in [(" uri=\"", &doc.uri), (" base-uri=\"", &doc.base_uri)] {
            if let Some(v) = value {
                out.push_str(attr);
                escape_attr(v, out);
                out.push('"');
            }
        }
        out.push('>');
        out.push_str(xml);
        out.push_str("</fragment>");
    }
    out.push_str("</fragments>");
}

fn atom_type_tag(a: &Atomic) -> &'static str {
    match a {
        Atomic::Str(_) => "string",
        Atomic::Int(_) => "integer",
        Atomic::Dbl(_) => "double",
        Atomic::Bool(_) => "boolean",
        Atomic::Untyped(_) => "untyped",
    }
}

fn write_atom(a: &Atomic, out: &mut String) {
    out.push_str("<atom type=\"");
    out.push_str(atom_type_tag(a));
    out.push_str("\">");
    escape_text(&a.to_lexical(), out);
    out.push_str("</atom>");
}

/// Minimum run length of same-typed atoms before [`write_sequence`] switches
/// from per-item `<atom>` elements to one front-coded `<keyset>` block.
/// Short sequences keep the verbose form: the block header would cost more
/// than it saves, and small fixtures stay byte-readable.
pub const KEYSET_MIN_RUN: usize = 8;

/// Emits a run of same-typed atoms as one front-coded key-set block:
///
/// ```text
/// <keyset type="string" n="3">0:7:person16:1:07:2:11</keyset>
/// ```
///
/// Each key is `P:S:suffix` — `P` characters shared with the previous key,
/// then the `S`-character suffix (`person1`, `person10`, `person11` above).
/// The payload is lossless and deterministic: decoding reproduces the exact
/// atom sequence, so the block is a drop-in replacement for the per-item
/// form. Join key sets produced by `xqd:distinct-keys` arrive sorted, which
/// is what makes front coding compact; the codec itself is content-driven
/// and applies to any long same-typed atom run.
fn write_keyset(run: &[&Atomic], out: &mut String) {
    out.push_str("<keyset type=\"");
    out.push_str(atom_type_tag(run[0]));
    out.push_str("\" n=\"");
    out.push_str(&run.len().to_string());
    out.push_str("\">");
    let mut payload = String::new();
    let mut prev: Vec<char> = Vec::new();
    for a in run {
        let lex: Vec<char> = a.to_lexical().chars().collect();
        let shared = prev.iter().zip(lex.iter()).take_while(|(a, b)| a == b).count();
        payload.push_str(&shared.to_string());
        payload.push(':');
        payload.push_str(&(lex.len() - shared).to_string());
        payload.push(':');
        payload.extend(&lex[shared..]);
        prev = lex;
    }
    escape_text(&payload, out);
    out.push_str("</keyset>");
}

fn atom_from_lexical(ty: &str, lex: String) -> EvalResult<Atomic> {
    Ok(match ty {
        "integer" => Atomic::Int(
            lex.parse().map_err(|_| EvalError::new(format!("bad integer atom {lex:?}")))?,
        ),
        "double" => Atomic::Dbl(
            lex.parse().map_err(|_| EvalError::new(format!("bad double atom {lex:?}")))?,
        ),
        "boolean" => Atomic::Bool(lex == "true"),
        "untyped" => Atomic::Untyped(lex),
        _ => Atomic::Str(lex),
    })
}

/// Parses a front-coded `<keyset>` payload back into its lexical keys.
fn parse_keyset_payload(payload: &str, n: usize) -> EvalResult<Vec<String>> {
    let chars: Vec<char> = payload.chars().collect();
    let mut pos = 0usize;
    let mut prev: Vec<char> = Vec::new();
    let mut keys = Vec::with_capacity(n);
    let read_count = |pos: &mut usize| -> EvalResult<usize> {
        let start = *pos;
        while *pos < chars.len() && chars[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if start == *pos || *pos >= chars.len() || chars[*pos] != ':' {
            return Err(EvalError::new("malformed keyset payload"));
        }
        let v: usize = chars[start..*pos]
            .iter()
            .collect::<String>()
            .parse()
            .map_err(|_| EvalError::new("malformed keyset payload"))?;
        *pos += 1; // skip ':'
        Ok(v)
    };
    while pos < chars.len() {
        let shared = read_count(&mut pos)?;
        let suffix = read_count(&mut pos)?;
        if shared > prev.len() || pos + suffix > chars.len() {
            return Err(EvalError::new("malformed keyset payload"));
        }
        let mut key: Vec<char> = prev[..shared].to_vec();
        key.extend(&chars[pos..pos + suffix]);
        pos += suffix;
        keys.push(key.iter().collect());
        prev = key;
    }
    if keys.len() != n {
        return Err(EvalError::new(format!(
            "keyset count mismatch: header says {n}, payload holds {}",
            keys.len()
        )));
    }
    Ok(keys)
}

/// Undoes [`escape_text`]'s three entities (the only ones the codec emits).
fn unescape_text(s: &str) -> String {
    s.replace("&lt;", "\u{0}lt")
        .replace("&gt;", "\u{0}gt")
        .replace("&amp;", "&")
        .replace("\u{0}lt", "<")
        .replace("\u{0}gt", ">")
}

/// The five envelope prefixes the encoders emit — the classification
/// contract of the wire format. Every consumer that needs to know what kind
/// of message it holds tests one of these; none scans or parses for it.
const REQUEST: &str = "<env><request";
const RESPONSE: &str = "<env><response";
const FAULT: &str = "<env><fault ";
const DOC_REQUEST: &str = "<env><doc-request ";
const DOC: &str = "<env><doc ";

/// Coarse classification of a wire message by its envelope prefix — used
/// as a deterministic trace-span annotation (`"request"` / `"response"` /
/// `"fault"`), with `"data"` covering the data-shipping path's document
/// payloads and envelopes and anything mangled in flight.
pub fn payload_kind(message: &str) -> &'static str {
    if message.starts_with(REQUEST) {
        "request"
    } else if message.starts_with(RESPONSE) {
        "response"
    } else if message.starts_with(FAULT) {
        "fault"
    } else {
        "data"
    }
}

/// Wire-level accounting for the `<keyset>` blocks of an encoded message:
/// `(keys, bytes_saved)` where `keys` counts the atoms carried in key-set
/// form and `bytes_saved` is the exact byte difference against the per-item
/// `<atom>` encoding of the same keys. Feeds the `join_keys_shipped` /
/// `join_bytes_saved` metrics; a message without key sets reports `(0, 0)`.
pub fn keyset_stats(message: &str) -> (u64, u64) {
    let mut keys = 0u64;
    let mut saved = 0u64;
    let mut rest = message;
    while let Some(start) = rest.find("<keyset ") {
        let block = &rest[start..];
        let Some(hdr_end) = block.find('>') else { break };
        let Some(body_end) = block.find("</keyset>") else { break };
        let header = &block[..hdr_end];
        let block_len = body_end + "</keyset>".len();
        let grab = |attr: &str| -> Option<&str> {
            let at = header.find(&format!("{attr}=\""))? + attr.len() + 2;
            let end = header[at..].find('"')? + at;
            Some(&header[at..end])
        };
        let ty = grab("type").unwrap_or("string");
        let n: usize = grab("n").and_then(|v| v.parse().ok()).unwrap_or(0);
        let payload = unescape_text(&block[hdr_end + 1..body_end]);
        if let Ok(lexicals) = parse_keyset_payload(&payload, n) {
            let mut as_atoms = 0usize;
            for lex in &lexicals {
                let mut escaped = String::new();
                escape_text(lex, &mut escaped);
                // `<atom type="TY">` + escaped lexical + `</atom>`
                as_atoms += 13 + ty.len() + escaped.len() + 7;
            }
            keys += n as u64;
            saved += (as_atoms as u64).saturating_sub(block_len as u64);
        }
        rest = &rest[start + block_len..];
    }
    (keys, saved)
}

fn write_item(store: &Store, codec: &NodeCodec, item: &Item, out: &mut String) -> EvalResult<()> {
    match item {
        Item::Atom(a) => {
            write_atom(a, out);
            Ok(())
        }
        Item::Node(n) => {
            let doc = store.doc(n.doc);
            match codec {
                NodeCodec::Value => {
                    let kind = match doc.kind(n.idx) {
                        NodeKind::Document => "document",
                        NodeKind::Element => "element",
                        NodeKind::Attribute => "attribute",
                        NodeKind::Text => "text",
                        NodeKind::Comment => "comment",
                        NodeKind::Pi => "pi",
                    };
                    out.push_str("<copy kind=\"");
                    out.push_str(kind);
                    out.push('"');
                    if matches!(doc.kind(n.idx), NodeKind::Attribute | NodeKind::Pi) {
                        out.push_str(" name=\"");
                        escape_attr(store.names.resolve(doc.name(n.idx)), out);
                        out.push('"');
                    }
                    // class-2 context properties (Problem 5)
                    let base = doc
                        .meta
                        .get(&n.idx)
                        .and_then(|m| m.base_uri.clone())
                        .or_else(|| doc.base_uri.clone());
                    if let Some(b) = base {
                        out.push_str(" base-uri=\"");
                        escape_attr(&b, out);
                        out.push('"');
                    }
                    if let Some(u) = &doc.uri {
                        out.push_str(" document-uri=\"");
                        escape_attr(u, out);
                        out.push('"');
                    }
                    out.push('>');
                    match doc.kind(n.idx) {
                        NodeKind::Document => {
                            for c in doc.children(n.idx) {
                                serialize_node_into(doc, &store.names, c, out);
                            }
                        }
                        NodeKind::Element => serialize_node_into(doc, &store.names, n.idx, out),
                        _ => escape_text(doc.value(n.idx).unwrap_or(""), out),
                    }
                    out.push_str("</copy>");
                    Ok(())
                }
                NodeCodec::Fragments { table, .. } => {
                    let (fragid, nodeid) = locate(table, store, *n).ok_or_else(|| {
                        EvalError::new("internal: shipped node missing from its fragments")
                    })?;
                    if doc.kind(n.idx) == NodeKind::Attribute {
                        let name = store.names.resolve(doc.name(n.idx));
                        let _ = write!(
                            out,
                            "<attribute fragid=\"{fragid}\" nodeid=\"{nodeid}\" name=\"{name}\"/>"
                        );
                    } else {
                        let _ = write!(out, "<element fragid=\"{fragid}\" nodeid=\"{nodeid}\"/>");
                    }
                    Ok(())
                }
            }
        }
    }
}

fn write_sequence(
    store: &Store,
    codec: &NodeCodec,
    seq: &Sequence,
    out: &mut String,
) -> EvalResult<()> {
    out.push_str("<sequence>");
    let items: Vec<&Item> = seq.iter().collect();
    let mut i = 0usize;
    while i < items.len() {
        // a run of same-typed atoms long enough to front-code?
        if let Item::Atom(first) = items[i] {
            let ty = atom_type_tag(first);
            let mut j = i + 1;
            while j < items.len() {
                match items[j] {
                    Item::Atom(a) if atom_type_tag(a) == ty => j += 1,
                    _ => break,
                }
            }
            if j - i >= KEYSET_MIN_RUN {
                let run: Vec<&Atomic> = items[i..j]
                    .iter()
                    .map(|it| match it {
                        Item::Atom(a) => a,
                        Item::Node(_) => unreachable!("run holds atoms only"),
                    })
                    .collect();
                write_keyset(&run, out);
                i = j;
                continue;
            }
        }
        write_item(store, codec, items[i], out)?;
        i += 1;
    }
    out.push_str("</sequence>");
    Ok(())
}

/// Encodes a request message.
///
/// `calls` is one entry per Bulk-RPC iteration, each a parameter list in
/// declaration order; `param_specs` (pass-by-projection only) are aligned
/// with the parameter list; `result_spec` is shipped as `response-paths`.
pub fn encode_request(
    store: &Store,
    semantics: WireSemantics,
    static_ctx: &StaticContext,
    body_src: &str,
    calls: &[Vec<(String, Sequence)>],
    param_specs: Option<&[PathSpec]>,
    result_spec: Option<&PathSpec>,
) -> EvalResult<String> {
    let groups: Vec<Group> = calls
        .iter()
        .flat_map(|c| {
            c.iter().enumerate().map(|(j, (_, s))| (s, param_specs.and_then(|ps| ps.get(j))))
        })
        .collect();
    let codec = node_codec(store, semantics, &groups);
    let mut out = String::with_capacity(1024);
    out.push_str(REQUEST);
    out.push_str(" semantics=\"");
    out.push_str(semantics.tag());
    out.push_str("\" static-base-uri=\"");
    escape_attr(&static_ctx.base_uri, &mut out);
    out.push_str("\" default-collation=\"");
    escape_attr(&static_ctx.default_collation, &mut out);
    out.push_str("\" current-dateTime=\"");
    escape_attr(&static_ctx.current_datetime, &mut out);
    out.push_str("\"><query>");
    escape_text(body_src, &mut out);
    out.push_str("</query>");
    if let Some(spec) = result_spec {
        out.push_str("<response-paths>");
        for p in &spec.used {
            out.push_str("<used-path>");
            escape_text(&p.to_string(), &mut out);
            out.push_str("</used-path>");
        }
        for p in &spec.returned {
            out.push_str("<returned-path>");
            escape_text(&p.to_string(), &mut out);
            out.push_str("</returned-path>");
        }
        out.push_str("</response-paths>");
    }
    write_fragments(store, &codec, &mut out);
    for call in calls {
        out.push_str("<call>");
        for (name, seq) in call {
            out.push_str("<param name=\"");
            escape_attr(name, &mut out);
            out.push_str("\">");
            write_sequence(store, &codec, seq, &mut out)?;
            out.push_str("</param>");
        }
        out.push_str("</call>");
    }
    out.push_str("</request></env>");
    Ok(out)
}

/// Encodes a response message carrying one result sequence per call.
pub fn encode_response(
    store: &Store,
    semantics: WireSemantics,
    results: &[Sequence],
    result_spec: Option<&PathSpec>,
) -> EvalResult<String> {
    let groups: Vec<Group> = results.iter().map(|s| (s, result_spec)).collect();
    let codec = node_codec(store, semantics, &groups);
    let mut out = String::with_capacity(1024);
    out.push_str(RESPONSE);
    out.push_str(" semantics=\"");
    out.push_str(semantics.tag());
    out.push_str("\">");
    write_fragments(store, &codec, &mut out);
    for seq in results {
        out.push_str("<call-result>");
        write_sequence(store, &codec, seq, &mut out)?;
        out.push_str("</call-result>");
    }
    out.push_str("</response></env>");
    Ok(out)
}

/// Encodes a typed failure as an XRPC fault response (SOAP-fault style):
///
/// ```text
/// <env><fault code=".." peer=".."><message>…</message></fault></env>
/// ```
///
/// Fault responses are real wire messages: a remote evaluation error or
/// transport-level rejection crosses the simulated network as these bytes
/// and is decoded back into an [`XrpcError`] on the caller side, exactly
/// like any other message.
pub fn encode_fault(err: &XrpcError) -> String {
    let mut out = String::with_capacity(128);
    out.push_str(FAULT);
    out.push_str("code=\"");
    escape_attr(&err.code(), &mut out);
    out.push_str("\" peer=\"");
    escape_attr(err.peer(), &mut out);
    let retry_after_ms = match err {
        XrpcError::BreakerOpen { retry_after, .. }
        | XrpcError::PeerBusy { retry_after, .. } => Some(retry_after.as_millis()),
        XrpcError::Overloaded { retry_after_ms } => Some(u128::from(*retry_after_ms)),
        _ => None,
    };
    if let Some(ms) = retry_after_ms {
        out.push_str("\" retry-after-ms=\"");
        out.push_str(&ms.to_string());
    }
    out.push_str("\"><message>");
    escape_text(&err.to_string(), &mut out);
    out.push_str("</message></fault></env>");
    out
}

/// Decodes a fault response, if `message` is one. Returns `None` for
/// non-fault messages *and* for byte streams too mangled to parse — the
/// caller treats those as transport corruption.
pub fn decode_fault(message: &str) -> Option<XrpcError> {
    if !message.starts_with(FAULT) {
        return None;
    }
    let mut scratch = Store::new();
    let doc = xqd_xml::parse_document(&mut scratch, message, None).ok()?;
    let fault = find_child(&scratch, NodeId::new(doc, 0), "env")
        .and_then(|env| find_child(&scratch, env, "fault"))?;
    fault_from(&scratch, fault)
}

/// The one reader of a parsed `<fault>` element: the typed error with its
/// retry-after hint restored. `None` when the element names no code.
fn fault_from(store: &Store, fault: NodeId) -> Option<XrpcError> {
    let code = attr(store, fault, "code")?;
    let peer = attr(store, fault, "peer").unwrap_or_default();
    let msg = find_child(store, fault, "message")
        .map(|m| store.doc(m.doc).string_value(m.idx))
        .unwrap_or_default();
    let mut err = XrpcError::from_code(&code, &peer, &msg);
    // retry-after hints ride along as an optional attribute
    if let Some(ms) = attr(store, fault, "retry-after-ms").and_then(|v| v.parse::<u64>().ok()) {
        match &mut err {
            XrpcError::BreakerOpen { retry_after, .. }
            | XrpcError::PeerBusy { retry_after, .. } => {
                *retry_after = std::time::Duration::from_millis(ms);
            }
            XrpcError::Overloaded { retry_after_ms } => *retry_after_ms = ms,
            _ => {}
        }
    }
    Some(err)
}

/// A reply envelope as the caller sees it: a wire-encoded fault decodes
/// back into its typed error; anything else is the reply.
pub(crate) fn reply_or_fault(reply: String) -> Result<String, XrpcError> {
    match decode_fault(&reply) {
        Some(e) => Err(e),
        None => Ok(reply),
    }
}

/// Encodes a whole-document fetch request (the data-shipping path over a
/// real transport; the simulated transport serializes the peer's store
/// directly and never needs one of these on the wire).
pub fn encode_doc_request(uri: &str) -> String {
    let mut out = String::with_capacity(64 + uri.len());
    out.push_str(DOC_REQUEST);
    out.push_str("uri=\"");
    escape_attr(uri, &mut out);
    out.push_str("\"/></env>");
    out
}

/// Decodes a doc-request envelope, returning the requested URI. `None` for
/// any other message shape (the prefix gate keeps ordinary requests off the
/// parse path).
pub fn decode_doc_request(message: &str) -> Option<String> {
    if !message.starts_with(DOC_REQUEST) {
        return None;
    }
    let mut scratch = Store::new();
    let doc = xqd_xml::parse_document(&mut scratch, message, None).ok()?;
    let req = find_child(&scratch, NodeId::new(doc, 0), "env")
        .and_then(|env| find_child(&scratch, env, "doc-request"))?;
    attr(&scratch, req, "uri")
}

/// What follows the embedded document in a doc reply envelope.
const DOC_CLOSE: &str = "</doc></env>";

/// Encodes a fetched document as a reply envelope. The serialized document
/// is embedded as is: the serializer's output is always well-formed, so the
/// envelope stays so, and a document costs its own bytes plus a constant.
pub fn encode_doc_response(uri: &str, xml: &str) -> String {
    let mut out = String::with_capacity(64 + uri.len() + xml.len());
    out.push_str(DOC);
    out.push_str("uri=\"");
    escape_attr(uri, &mut out);
    out.push_str("\">");
    out.push_str(xml);
    out.push_str(DOC_CLOSE);
    out
}

/// Opens a doc reply envelope: strips the fixed header and trailer and
/// hands back the document's XML text untouched, for the caller to shred —
/// the only parse it gets. Returns `None` for non-doc messages and for
/// envelopes cut short — the caller treats those as transport corruption
/// (after checking [`decode_fault`] first).
pub fn decode_doc_response(message: &str) -> Option<String> {
    let rest = message.strip_prefix(DOC)?.strip_prefix("uri=\"")?;
    // an escaped attribute value holds no quote, so the first one ends it
    let (_, rest) = rest.split_once("\">")?;
    Some(rest.strip_suffix(DOC_CLOSE)?.to_string())
}

/// A decoded request, with all node values shredded into the receiving
/// store.
#[derive(Debug)]
pub struct DecodedRequest {
    pub semantics: WireSemantics,
    pub static_ctx: StaticContext,
    pub query: String,
    pub calls: Vec<Vec<(String, Sequence)>>,
    pub result_spec: Option<PathSpec>,
}

/// Parses and shreds a request message.
///
/// Any structural failure — unparseable bytes, missing envelope, unknown
/// item vocabulary — is tagged `xrpc:transport-corrupt`: a malformed
/// request is indistinguishable from one damaged in flight, and the tag is
/// what lets the caller's retry policy classify it as retryable.
pub fn decode_request(store: &mut Store, message: &str) -> EvalResult<DecodedRequest> {
    decode_request_inner(store, message).map_err(tag_corrupt)
}

/// Tags an untyped decode failure as transport corruption (already-typed
/// errors pass through unchanged).
fn tag_corrupt(e: EvalError) -> EvalError {
    match e.code {
        Some(_) => e,
        None => EvalError::with_code("xrpc:transport-corrupt", e.message),
    }
}

fn decode_request_inner(store: &mut Store, message: &str) -> EvalResult<DecodedRequest> {
    let msg_doc = xqd_xml::parse_document(store, message, None)
        .map_err(|e| EvalError::new(format!("malformed request message: {e}")))?;
    let root = find_child(store, NodeId::new(msg_doc, 0), "env")
        .and_then(|env| find_child(store, env, "request"))
        .ok_or_else(|| EvalError::new("request message lacks env/request"))?;
    let semantics = attr(store, root, "semantics")
        .and_then(|s| WireSemantics::from_tag(&s))
        .ok_or_else(|| EvalError::new("request lacks semantics attribute"))?;
    let static_ctx = StaticContext {
        base_uri: attr(store, root, "static-base-uri").unwrap_or_default(),
        default_collation: attr(store, root, "default-collation").unwrap_or_default(),
        current_datetime: attr(store, root, "current-dateTime").unwrap_or_default(),
    };
    let query = find_child(store, root, "query")
        .map(|q| store.doc(q.doc).string_value(q.idx))
        .ok_or_else(|| EvalError::new("request lacks query"))?;

    let result_spec = find_child(store, root, "response-paths").map(|rp| {
        let mut spec = PathSpec::default();
        for c in children_named(store, rp, "used-path") {
            if let Some(p) = parse_rel_path(&store.doc(c.doc).string_value(c.idx)) {
                spec.used.push(p);
            }
        }
        for c in children_named(store, rp, "returned-path") {
            if let Some(p) = parse_rel_path(&store.doc(c.doc).string_value(c.idx)) {
                spec.returned.push(p);
            }
        }
        spec
    });

    let fragment_docs = shred_fragments(store, root)?;

    let mut calls = Vec::new();
    for call in children_named(store, root, "call") {
        let mut params = Vec::new();
        for param in children_named(store, call, "param") {
            let name = attr(store, param, "name")
                .ok_or_else(|| EvalError::new("param lacks name"))?;
            let seq_el = find_child(store, param, "sequence")
                .ok_or_else(|| EvalError::new("param lacks sequence"))?;
            let seq = decode_sequence(store, seq_el, &fragment_docs)?;
            params.push((name, seq));
        }
        calls.push(params);
    }
    Ok(DecodedRequest { semantics, static_ctx, query, calls, result_spec })
}

/// Parses and shreds a response message, returning one sequence per call.
///
/// A wire-encoded fault response decodes into its typed [`XrpcError`]
/// (carried as the `EvalError` code); structural failures are tagged
/// `xrpc:transport-corrupt` like on the request side.
pub fn decode_response(store: &mut Store, message: &str) -> EvalResult<Vec<Sequence>> {
    decode_response_inner(store, message).map_err(tag_corrupt)
}

fn decode_response_inner(store: &mut Store, message: &str) -> EvalResult<Vec<Sequence>> {
    let msg_doc = xqd_xml::parse_document(store, message, None)
        .map_err(|e| EvalError::new(format!("malformed response message: {e}")))?;
    let env = find_child(store, NodeId::new(msg_doc, 0), "env");
    if let Some(fault) = env.and_then(|env| find_child(store, env, "fault")) {
        let err = fault_from(store, fault)
            .ok_or_else(|| EvalError::new("fault response lacks code"))?;
        return Err(err.into());
    }
    let root = env
        .and_then(|env| find_child(store, env, "response"))
        .ok_or_else(|| EvalError::new("response message lacks env/response"))?;
    let fragment_docs = shred_fragments(store, root)?;
    let mut out = Vec::new();
    for cr in children_named(store, root, "call-result") {
        let seq_el = find_child(store, cr, "sequence")
            .ok_or_else(|| EvalError::new("call-result lacks sequence"))?;
        out.push(decode_sequence(store, seq_el, &fragment_docs)?);
    }
    Ok(out)
}

/// Copies each `<fragment>`'s content into a fresh document of `store`,
/// recording class-2 context metadata, and builds the table references
/// into it resolve against.
fn shred_fragments(store: &mut Store, root: NodeId) -> EvalResult<Vec<Fragment>> {
    let mut out = Vec::new();
    let frags: Vec<NodeId> = match find_child(store, root, "fragments") {
        Some(fs) => children_named(store, fs, "fragment"),
        None => return Ok(out),
    };
    for f in frags {
        let uri = attr(store, f, "uri");
        let base = attr(store, f, "base-uri");
        let mut b = DocBuilder::new(None);
        if let Some(bu) = &base {
            b.set_base_uri(bu);
        }
        {
            let doc = store.doc(f.doc);
            let kids: Vec<u32> = doc.children(f.idx).collect();
            for c in kids {
                b.copy_subtree(doc, &store.names, c);
            }
        }
        let new_doc = store.attach(b.finish());
        if let Some(u) = uri {
            store
                .doc_mut(new_doc)
                .meta
                .insert(0, NodeMeta { base_uri: base.clone(), document_uri: Some(u) });
        }
        out.push(Fragment::subtree(store, new_doc, 0));
    }
    Ok(out)
}

fn decode_sequence(
    store: &mut Store,
    seq_el: NodeId,
    fragments: &[Fragment],
) -> EvalResult<Sequence> {
    #[derive(Debug)]
    enum Raw {
        Atom(Atomic),
        Ref { fragid: u32, nodeid: u32, attr: Option<String> },
        Copy { kind: String, name: Option<String>, base: Option<String>, duri: Option<String>, idx: u32 },
    }
    let mut raws = Vec::new();
    {
        let doc = store.doc(seq_el.doc);
        for c in doc.children(seq_el.idx) {
            if doc.kind(c) != NodeKind::Element {
                continue;
            }
            let name = store.names.resolve(doc.name(c));
            let n = NodeId::new(seq_el.doc, c);
            match name {
                "atom" => {
                    let ty = attr(store, n, "type").unwrap_or_default();
                    let lex = doc.string_value(c);
                    raws.push(Raw::Atom(atom_from_lexical(&ty, lex)?));
                }
                "keyset" => {
                    let ty = attr(store, n, "type").unwrap_or_default();
                    let count: usize = attr(store, n, "n")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| EvalError::new("keyset lacks count"))?;
                    let payload = doc.string_value(c);
                    for lex in parse_keyset_payload(&payload, count)? {
                        raws.push(Raw::Atom(atom_from_lexical(&ty, lex)?));
                    }
                }
                "element" | "attribute" => {
                    let fragid: u32 = attr(store, n, "fragid")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| EvalError::new("ref lacks fragid"))?;
                    let nodeid: u32 = attr(store, n, "nodeid")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| EvalError::new("ref lacks nodeid"))?;
                    let attr_name =
                        if name == "attribute" { attr(store, n, "name") } else { None };
                    raws.push(Raw::Ref { fragid, nodeid, attr: attr_name });
                }
                "copy" => {
                    raws.push(Raw::Copy {
                        kind: attr(store, n, "kind").unwrap_or_default(),
                        name: attr(store, n, "name"),
                        base: attr(store, n, "base-uri"),
                        duri: attr(store, n, "document-uri"),
                        idx: c,
                    });
                }
                other => {
                    return Err(EvalError::new(format!("unknown sequence item <{other}>")))
                }
            }
        }
    }

    let msg_doc_id = seq_el.doc;
    let mut out: Vec<Item> = Vec::new();
    for raw in raws {
        match raw {
            Raw::Atom(a) => out.push(Item::Atom(a)),
            Raw::Ref { fragid, nodeid, attr: attr_name } => {
                let frag = fragid
                    .checked_sub(1)
                    .and_then(|i| fragments.get(i as usize))
                    .ok_or_else(|| EvalError::new(format!("fragid {fragid} out of range")))?;
                let target = frag
                    .node(nodeid)
                    .ok_or_else(|| EvalError::new(format!("nodeid {nodeid} out of range")))?;
                let doc = store.doc(frag.doc);
                let node = match attr_name {
                    None => target,
                    Some(name) => {
                        let name_id = store.names.get(&name);
                        doc.attributes(target)
                            .find(|&a| Some(doc.name(a)) == name_id)
                            .ok_or_else(|| {
                                EvalError::new(format!("attribute {name} not found on ref"))
                            })?
                    }
                };
                out.push(Item::Node(NodeId::new(frag.doc, node)));
            }
            Raw::Copy { kind, name, base, duri, idx } => {
                // each by-value copy becomes its own fragment document —
                // this separation is precisely what loses identity/order
                let mut b = DocBuilder::new(None);
                if let Some(bu) = &base {
                    b.set_base_uri(bu);
                }
                let result_idx: u32;
                {
                    let doc = store.doc(msg_doc_id);
                    match kind.as_str() {
                        "element" => {
                            let child = doc.first_child(idx).ok_or_else(|| {
                                EvalError::new("element copy has no content")
                            })?;
                            b.copy_subtree(doc, &store.names, child);
                            result_idx = 1;
                        }
                        "document" => {
                            let kids: Vec<u32> = doc.children(idx).collect();
                            for c in kids {
                                b.copy_subtree(doc, &store.names, c);
                            }
                            result_idx = 0;
                        }
                        "attribute" => {
                            b.start_element("attribute-holder");
                            b.attribute(
                                name.as_deref().unwrap_or("value"),
                                &doc.string_value(idx),
                            );
                            b.end_element();
                            result_idx = 2;
                        }
                        "text" => {
                            b.text(&doc.string_value(idx));
                            result_idx = 1;
                        }
                        "comment" => {
                            b.comment(&doc.string_value(idx));
                            result_idx = 1;
                        }
                        "pi" => {
                            b.pi(name.as_deref().unwrap_or("pi"), &doc.string_value(idx));
                            result_idx = 1;
                        }
                        other => {
                            return Err(EvalError::new(format!("unknown copy kind {other:?}")))
                        }
                    }
                }
                let new_doc = store.attach(b.finish());
                if duri.is_some() || base.is_some() {
                    store.doc_mut(new_doc).meta.insert(
                        result_idx,
                        NodeMeta { base_uri: base, document_uri: duri },
                    );
                }
                out.push(Item::Node(NodeId::new(new_doc, result_idx)));
            }
        }
    }
    Ok(out.into())
}

// -- tiny DOM helpers over the parsed message ------------------------------

fn find_child(store: &Store, parent: NodeId, name: &str) -> Option<NodeId> {
    let name_id = store.names.get(name)?;
    let doc = store.doc(parent.doc);
    doc.children(parent.idx)
        .find(|&c| doc.kind(c) == NodeKind::Element && doc.name(c) == name_id)
        .map(|c| NodeId::new(parent.doc, c))
}

fn children_named(store: &Store, parent: NodeId, name: &str) -> Vec<NodeId> {
    let Some(name_id) = store.names.get(name) else {
        return vec![];
    };
    let doc = store.doc(parent.doc);
    doc.children(parent.idx)
        .filter(|&c| doc.kind(c) == NodeKind::Element && doc.name(c) == name_id)
        .map(|c| NodeId::new(parent.doc, c))
        .collect()
}

fn attr(store: &Store, node: NodeId, name: &str) -> Option<String> {
    store.node(node).attribute(name).map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xquery::ast::RelPath;

    fn ctx() -> StaticContext {
        StaticContext::default()
    }

    fn sample_store() -> (Store, DocId) {
        let mut s = Store::new();
        let d = xqd_xml::parse_document(
            &mut s,
            "<r><p id=\"1\"><q>hello</q><big>payload</big></p><z/></r>",
            Some("r.xml"),
        )
        .unwrap();
        (s, d)
    }

    /// One decoded sequence per line, each item in a form that survives a
    /// change of the receiving store's document ids: atoms by type and
    /// lexical form, nodes by (document ordinal in first-seen order, index,
    /// kind, serialization, class-2 metadata).
    fn canonical(store: &Store, seqs: &[&Sequence]) -> String {
        let mut docs: Vec<DocId> = Vec::new();
        let mut out = String::new();
        for seq in seqs {
            for item in seq.iter() {
                match item {
                    Item::Atom(a) => {
                        out.push_str(&format!("{}:{} ", atom_type_tag(a), a.to_lexical()))
                    }
                    Item::Node(n) => {
                        let ord = docs.iter().position(|&d| d == n.doc).unwrap_or_else(|| {
                            docs.push(n.doc);
                            docs.len() - 1
                        });
                        let doc = store.doc(n.doc);
                        let meta = doc.meta.get(&n.idx);
                        out.push_str(&format!(
                            "d{ord}@{} {:?} {} {:?} {:?} ",
                            n.idx,
                            doc.kind(n.idx),
                            xqd_xml::serialize_node(doc, &store.names, n.idx),
                            meta.and_then(|m| m.base_uri.as_deref()),
                            meta.and_then(|m| m.document_uri.as_deref()),
                        ));
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// The wire format, pinned: every request and response of a corpus
    /// covering the shapes of Sections V–VI, under all three semantics, is
    /// hashed byte for byte, and so is what each decodes to.
    #[test]
    fn encoded_messages_are_pinned() {
        use crate::wire::parse_rel_path;
        let mut store = Store::new();
        // 0=doc 1=r 2=p 3=@id 4=q 5="hello" 6=big 7="payload" 8=z
        let a = xqd_xml::parse_document(
            &mut store,
            "<r><p id=\"1\"><q>hello</q><big>payload</big></p><z/></r>",
            Some("r.xml"),
        )
        .unwrap();
        // 0=doc 1=s 2=pi 3=comment 4="text" 5=t 6=@a
        let b = xqd_xml::parse_document(
            &mut store,
            "<s><?pi data?><!--note-->text<t a=\"v\"/></s>",
            Some("s.xml"),
        )
        .unwrap();
        let nodes = |list: &[(DocId, u32)]| -> Sequence {
            list.iter().map(|&(d, i)| Item::Node(NodeId::new(d, i))).collect::<Vec<_>>().into()
        };
        let spec = |used: &[&str], returned: &[&str]| PathSpec {
            used: used.iter().map(|p| parse_rel_path(p).unwrap()).collect(),
            returned: returned.iter().map(|p| parse_rel_path(p).unwrap()).collect(),
        };
        let one = |seq: Sequence| vec![vec![("x".to_string(), seq)]];
        // (calls, param specs, result spec)
        type Case = (Vec<Vec<(String, Sequence)>>, Option<Vec<PathSpec>>, Option<PathSpec>);
        let cases: Vec<Case> = vec![
            // Example 5.1: a node and its ancestor, then a descendant of both
            (one(nodes(&[(a, 2), (a, 1), (a, 4)])), None, None),
            // several roots in one document, roots in two documents
            (one(nodes(&[(a, 4), (a, 8), (b, 5), (b, 3)])), None, None),
            // an attribute item and a document-node item
            (one(nodes(&[(a, 3), (b, 0)])), None, None),
            // every node kind, beside atoms
            (
                one([(a, 0), (a, 1), (a, 3), (a, 5), (b, 2), (b, 3), (b, 4), (b, 6)]
                    .iter()
                    .map(|&(d, i)| Item::Node(NodeId::new(d, i)))
                    .chain([Item::Atom(Atomic::Int(7)), Item::Atom(Atomic::Str("s".into()))])
                    .collect::<Vec<_>>()
                    .into()),
                None,
                None,
            ),
            // Bulk RPC: three calls of two parameters
            (
                (0..3u32)
                    .map(|i| {
                        vec![
                            ("n".to_string(), nodes(&[(a, 2 + 2 * i)])),
                            ("k".to_string(), vec![Item::Atom(Atomic::Int(i64::from(i)))].into()),
                        ]
                    })
                    .collect(),
                None,
                None,
            ),
            // by-projection: a used/returned spec, a whole-value spec, no spec
            (
                vec![vec![
                    ("u".to_string(), nodes(&[(a, 2)])),
                    ("w".to_string(), nodes(&[(b, 5)])),
                    ("n".to_string(), nodes(&[(a, 8)])),
                ]],
                Some(vec![
                    spec(
                        &["child::q", "child::q/descendant-or-self::text()", "attribute::id"],
                        &["child::big"],
                    ),
                    spec(&[], &["self::node()"]),
                ]),
                Some(spec(&["child::p/attribute::id"], &["child::z"])),
            ),
            (one(nodes(&[(a, 1), (b, 1)])), None, Some(spec(&[], &["self::node()"]))),
        ];
        let mut wire = Vec::new();
        let mut decoded = String::new();
        for semantics in [WireSemantics::Value, WireSemantics::Fragment, WireSemantics::Projection]
        {
            for (calls, param_specs, result_spec) in &cases {
                let request = encode_request(
                    &store,
                    semantics,
                    &ctx(),
                    "$x",
                    calls,
                    param_specs.as_deref(),
                    result_spec.as_ref(),
                )
                .unwrap();
                let results: Vec<Sequence> =
                    calls.iter().flat_map(|c| c.iter().map(|(_, s)| s.clone())).collect();
                let response =
                    encode_response(&store, semantics, &results, result_spec.as_ref()).unwrap();
                let mut remote = Store::new();
                let req = decode_request(&mut remote, &request).unwrap();
                let seqs: Vec<&Sequence> =
                    req.calls.iter().flat_map(|c| c.iter().map(|(_, s)| s)).collect();
                decoded.push_str(&canonical(&remote, &seqs));
                let mut local = Store::new();
                let resp = decode_response(&mut local, &response).unwrap();
                decoded.push_str(&canonical(&local, &resp.iter().collect::<Vec<_>>()));
                wire.extend_from_slice(request.as_bytes());
                wire.extend_from_slice(response.as_bytes());
            }
        }
        assert_eq!(wire.len(), 24_554, "wire bytes");
        assert_eq!(xqd_prng::fnv1a(&wire), 7_615_877_312_136_390_994, "wire digest");
        assert_eq!(
            xqd_prng::fnv1a(decoded.as_bytes()),
            8_481_644_432_397_370_713,
            "decoded items:\n{decoded}"
        );
    }

    #[test]
    fn atoms_roundtrip_all_types() {
        let store = Store::new();
        let calls = vec![vec![(
            "x".to_string(),
            vec![
                Item::Atom(Atomic::Int(-7)),
                Item::Atom(Atomic::Dbl(2.5)),
                Item::Atom(Atomic::Bool(true)),
                Item::Atom(Atomic::Str("a<b&c".into())),
                Item::Atom(Atomic::Untyped("u".into())),
            ]
            .into(),
        )]];
        let msg =
            encode_request(&store, WireSemantics::Value, &ctx(), "$x", &calls, None, None)
                .unwrap();
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        assert_eq!(decoded.calls[0][0].1, calls[0][0].1);
        assert_eq!(decoded.query, "$x");
        assert_eq!(decoded.semantics, WireSemantics::Value);
        assert_eq!(decoded.static_ctx, ctx());
    }

    #[test]
    fn bulk_request_carries_every_call() {
        let store = Store::new();
        let calls: Vec<Vec<(String, Sequence)>> = (0..5)
            .map(|i| vec![("n".to_string(), vec![Item::Atom(Atomic::Int(i))].into())])
            .collect();
        let msg =
            encode_request(&store, WireSemantics::Fragment, &ctx(), "$n", &calls, None, None)
                .unwrap();
        assert_eq!(msg.matches("<call>").count(), 5);
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        assert_eq!(decoded.calls.len(), 5);
        for (i, c) in decoded.calls.iter().enumerate() {
            assert_eq!(c[0].1, vec![Item::Atom(Atomic::Int(i as i64))]);
        }
    }

    #[test]
    fn response_roundtrip_fragment() {
        let (store, d) = sample_store();
        let results: Vec<Sequence> =
            vec![vec![Item::Node(NodeId::new(d, 2))].into(), vec![Item::Node(NodeId::new(d, 8))].into()];
        let msg = encode_response(&store, WireSemantics::Fragment, &results, None).unwrap();
        let mut local = Store::new();
        let decoded = decode_response(&mut local, &msg).unwrap();
        assert_eq!(decoded.len(), 2);
        let Item::Node(p) = &decoded[0][0] else { panic!() };
        assert_eq!(local.doc(p.doc).string_value(p.idx), "hellopayload");
        let Item::Node(z) = &decoded[1][0] else { panic!() };
        assert_eq!(local.node(*z).name(), "z");
    }

    #[test]
    fn projection_request_prunes_payload() {
        let (store, d) = sample_store();
        // param = the <p> element, used via child::q (atomized: text
        // descendants needed) and attribute::id — the suffixes the path
        // analysis produces for "$p/q = … and $p/@id = …"
        use xqd_xquery::ast::{NameTest, RelStep};
        let q_step = RelStep::Axis { axis: xqd_xml::Axis::Child, test: NameTest::Name("q".into()) };
        let text_step =
            RelStep::Axis { axis: xqd_xml::Axis::DescendantOrSelf, test: NameTest::Text };
        let id_step =
            RelStep::Axis { axis: xqd_xml::Axis::Attribute, test: NameTest::Name("id".into()) };
        let spec = PathSpec {
            used: vec![
                RelPath(vec![q_step.clone()]),
                RelPath(vec![q_step, text_step]),
                RelPath(vec![id_step]),
            ],
            returned: vec![],
        };
        let calls = vec![vec![("p".to_string(), Sequence::unit(Item::Node(NodeId::new(d, 2))))]];
        let msg = encode_request(
            &store,
            WireSemantics::Projection,
            &ctx(),
            "$p",
            &calls,
            Some(std::slice::from_ref(&spec)),
            None,
        )
        .unwrap();
        assert!(!msg.contains("payload"), "projected away: {msg}");
        assert!(!msg.contains("<big"), "untouched sibling pruned: {msg}");
        assert!(msg.contains("<q>hello</q>"), "{msg}");
        // and the reference resolves on the remote side
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        let Item::Node(p) = &decoded.calls[0][0].1[0] else { panic!() };
        assert_eq!(remote.node(*p).name(), "p");
        assert_eq!(remote.node(*p).attribute("id"), Some("1"));
    }

    #[test]
    fn projection_without_spec_ships_subtrees() {
        let (store, d) = sample_store();
        let calls = vec![vec![("p".to_string(), Sequence::unit(Item::Node(NodeId::new(d, 2))))]];
        let msg = encode_request(
            &store,
            WireSemantics::Projection,
            &ctx(),
            "$p",
            &calls,
            None,
            None,
        )
        .unwrap();
        assert!(msg.contains("payload"), "full subtree shipped: {msg}");
    }

    #[test]
    fn response_paths_travel_in_request() {
        let store = Store::new();
        let spec = PathSpec {
            used: vec![RelPath(vec![])],
            returned: vec![RelPath(vec![xqd_xquery::ast::RelStep::Axis {
                axis: xqd_xml::Axis::Parent,
                test: xqd_xquery::ast::NameTest::Name("a".into()),
            }])],
        };
        let msg = encode_request(
            &store,
            WireSemantics::Projection,
            &ctx(),
            "1",
            &[vec![]],
            None,
            Some(&spec),
        )
        .unwrap();
        assert!(msg.contains("<returned-path>parent::a</returned-path>"), "{msg}");
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        assert_eq!(decoded.result_spec, Some(spec));
    }

    #[test]
    fn attribute_param_under_value_and_fragment() {
        let (store, d) = sample_store();
        let attr = Item::Node(NodeId::new(d, 3)); // @id of <p>
        for wire in [WireSemantics::Value, WireSemantics::Fragment] {
            let calls = vec![vec![("a".to_string(), Sequence::unit(attr.clone()))]];
            let msg = encode_request(&store, wire, &ctx(), "$a", &calls, None, None).unwrap();
            let mut remote = Store::new();
            let decoded = decode_request(&mut remote, &msg).unwrap();
            let Item::Node(n) = &decoded.calls[0][0].1[0] else { panic!() };
            assert_eq!(
                remote.doc(n.doc).kind(n.idx),
                xqd_xml::NodeKind::Attribute,
                "{wire:?}"
            );
            assert_eq!(remote.doc(n.doc).string_value(n.idx), "1", "{wire:?}");
        }
    }

    #[test]
    fn class2_metadata_on_fragments() {
        let (store, d) = sample_store();
        let calls = vec![vec![("p".to_string(), Sequence::unit(Item::Node(NodeId::new(d, 0))))]];
        let msg =
            encode_request(&store, WireSemantics::Fragment, &ctx(), "$p", &calls, None, None)
                .unwrap();
        assert!(msg.contains("uri=\"r.xml\""), "{msg}");
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        let Item::Node(n) = &decoded.calls[0][0].1[0] else { panic!() };
        assert_eq!(n.idx, 0, "document node shipped as nodeid 0");
        let meta = remote.doc(n.doc).meta.get(&0).expect("class-2 metadata");
        assert_eq!(meta.document_uri.as_deref(), Some("r.xml"));
    }

    #[test]
    fn malformed_messages_are_rejected() {
        let mut s = Store::new();
        assert!(decode_request(&mut s, "<env><bogus/></env>").is_err());
        assert!(decode_request(&mut s, "not xml").is_err());
        assert!(decode_response(&mut s, "<env><request/></env>").is_err());
        // a reference to a missing fragment
        let msg = "<env><request semantics=\"fragment\" static-base-uri=\"\" \
                   default-collation=\"\" current-dateTime=\"\"><query>1</query>\
                   <call><param name=\"x\"><sequence>\
                   <element fragid=\"3\" nodeid=\"1\"/>\
                   </sequence></param></call></request></env>";
        assert!(decode_request(&mut s, msg).is_err());
    }

    #[test]
    fn fault_responses_roundtrip_on_the_wire() {
        use std::time::Duration;
        let faults = [
            XrpcError::UnknownPeer { peer: "p<1>".into() },
            XrpcError::PeerBusy {
                peer: "p1".into(),
                detail: "slot held".into(),
                retry_after: Duration::from_millis(40),
            },
            XrpcError::Timeout { peer: "p1".into(), deadline: Duration::from_millis(250) },
            XrpcError::TransportCorrupt { peer: "p1".into(), detail: "bad & bytes".into() },
            XrpcError::RemoteFault {
                peer: "p1".into(),
                code: "err:FOAR0001".into(),
                message: "division by zero".into(),
            },
            XrpcError::Cancelled { peer: "p1".into(), reason: "budget".into() },
            XrpcError::BreakerOpen { peer: "p1".into(), retry_after: Duration::ZERO },
            XrpcError::Overloaded { retry_after_ms: 80 },
        ];
        for f in &faults {
            let wire = encode_fault(f);
            // decode_fault recovers the variant (messages are display text,
            // so compare the discriminating fields)
            let back = decode_fault(&wire).expect("fault parses");
            assert_eq!(back.code(), f.code(), "{wire}");
            assert_eq!(back.peer(), f.peer(), "{wire}");
            // ... and decode_response surfaces it as the typed error
            let mut s = Store::new();
            let err = decode_response(&mut s, &wire).unwrap_err();
            assert_eq!(err.code.as_deref(), Some(f.code().as_str()), "{wire}");
            assert!(err.message.contains(f.peer()), "{err}");
        }
    }

    #[test]
    fn breaker_fault_roundtrips_retry_after() {
        let f = XrpcError::BreakerOpen {
            peer: "p1".into(),
            retry_after: std::time::Duration::from_millis(375),
        };
        let wire = encode_fault(&f);
        assert!(wire.contains("retry-after-ms=\"375\""), "{wire}");
        assert_eq!(decode_fault(&wire), Some(f));
    }

    #[test]
    fn busy_and_overload_faults_roundtrip_retry_after() {
        use std::time::Duration;
        let busy = XrpcError::PeerBusy {
            peer: "p2".into(),
            detail: "slot still held after 25ms".into(),
            retry_after: Duration::from_millis(60),
        };
        let wire = encode_fault(&busy);
        assert!(wire.contains("retry-after-ms=\"60\""), "{wire}");
        // the detail is display text on the wire; the typed fields round-trip
        let back = decode_fault(&wire).expect("fault parses");
        assert_eq!(back.code(), busy.code());
        assert_eq!(back.peer(), busy.peer());
        assert_eq!(back.retry_after(), busy.retry_after());

        let shed = XrpcError::Overloaded { retry_after_ms: 210 };
        let wire = encode_fault(&shed);
        assert!(wire.contains("retry-after-ms=\"210\""), "{wire}");
        assert_eq!(decode_fault(&wire), Some(shed));
    }

    /// One fault reader: the hint `decode_fault` restores is the hint a
    /// fault read through `decode_response` reports.
    #[test]
    fn faults_read_through_decode_response_keep_their_retry_after() {
        use std::time::Duration;
        let peer = || "p1".to_string();
        for f in [
            XrpcError::PeerBusy {
                peer: peer(),
                detail: "slot held".into(),
                retry_after: Duration::from_millis(60),
            },
            XrpcError::BreakerOpen { peer: peer(), retry_after: Duration::from_millis(375) },
            XrpcError::Overloaded { retry_after_ms: 210 },
        ] {
            let wire = encode_fault(&f);
            let typed = decode_fault(&wire).expect("fault parses");
            assert_eq!(typed.retry_after(), f.retry_after(), "{wire}");
            let err = decode_response(&mut Store::new(), &wire).unwrap_err();
            assert_eq!(err.code.as_deref(), Some(f.code().as_str()), "{wire}");
            assert_eq!(err.message, typed.to_string(), "{wire}");
        }
    }

    #[test]
    fn non_fault_messages_decode_as_none_fault() {
        assert!(decode_fault("<env><response semantics=\"value\"/></env>").is_none());
        assert!(decode_fault("totally not xml <<<").is_none());
        assert!(decode_fault("").is_none());
    }

    #[test]
    fn decode_errors_are_tagged_transport_corrupt() {
        let mut s = Store::new();
        for msg in ["not xml", "<env><bogus/></env>", "<env><request/></env>"] {
            let err = decode_request(&mut s, msg).unwrap_err();
            assert!(err.has_code("xrpc:transport-corrupt"), "{msg:?} → {err}");
        }
        let err = decode_response(&mut s, "<env><request/></env>").unwrap_err();
        assert!(err.has_code("xrpc:transport-corrupt"), "{err}");
    }

    #[test]
    fn long_atom_runs_front_code_and_roundtrip() {
        let store = Store::new();
        // sorted person ids with heavy shared prefixes — the semijoin shape
        let keys: Vec<Item> = (0..20)
            .map(|i| Item::Atom(Atomic::Str(format!("person{i}"))))
            .collect();
        let calls = vec![vec![("k".to_string(), keys.clone().into())]];
        let msg =
            encode_request(&store, WireSemantics::Value, &ctx(), "$k", &calls, None, None)
                .unwrap();
        assert!(msg.contains("<keyset type=\"string\" n=\"20\">"), "{msg}");
        assert!(!msg.contains("<atom"), "run fully subsumed: {msg}");
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        assert_eq!(decoded.calls[0][0].1, Sequence::from(keys));
        // and the block is genuinely smaller than the per-atom form
        let (n, saved) = keyset_stats(&msg);
        assert_eq!(n, 20);
        assert!(saved > 0, "front coding must save bytes: {msg}");
    }

    #[test]
    fn short_runs_and_mixed_types_keep_atom_form() {
        let store = Store::new();
        let mut items: Vec<Item> = (0..KEYSET_MIN_RUN - 1)
            .map(|i| Item::Atom(Atomic::Int(i as i64)))
            .collect();
        items.push(Item::Atom(Atomic::Str("x".into())));
        let calls = vec![vec![("k".to_string(), items.into())]];
        let msg =
            encode_request(&store, WireSemantics::Value, &ctx(), "$k", &calls, None, None)
                .unwrap();
        assert!(!msg.contains("<keyset"), "{msg}");
        assert_eq!(keyset_stats(&msg), (0, 0));
    }

    #[test]
    fn keysets_escape_and_preserve_awkward_keys() {
        let store = Store::new();
        let keys: Vec<Item> = ["a<b", "a<b&c", "a b:c", "::", "9:1:", "", "zz", "zz", "é–ü", "é–üx"]
            .iter()
            .map(|s| Item::Atom(Atomic::Str(s.to_string())))
            .collect();
        let results = vec![Sequence::from(keys.clone())];
        let msg = encode_response(&store, WireSemantics::Value, &results, None).unwrap();
        assert!(msg.contains("<keyset"), "{msg}");
        let mut local = Store::new();
        let decoded = decode_response(&mut local, &msg).unwrap();
        assert_eq!(decoded[0], Sequence::from(keys));
    }

    #[test]
    fn keyset_roundtrips_every_atom_type() {
        let store = Store::new();
        for mk in [
            (|i: i64| Atomic::Int(i * 7 - 3)) as fn(i64) -> Atomic,
            |i| Atomic::Dbl(i as f64 / 4.0),
            |i| Atomic::Bool(i % 2 == 0),
            |i| Atomic::Str(format!("s{i}")),
            |i| Atomic::Untyped(format!("u{i}")),
        ] {
            let keys: Vec<Item> = (0..12).map(|i| Item::Atom(mk(i))).collect();
            let results = vec![Sequence::from(keys.clone())];
            let msg = encode_response(&store, WireSemantics::Value, &results, None).unwrap();
            assert!(msg.contains("<keyset"), "{msg}");
            let mut local = Store::new();
            let decoded = decode_response(&mut local, &msg).unwrap();
            assert_eq!(decoded[0], Sequence::from(keys), "{msg}");
        }
    }

    #[test]
    fn corrupt_keysets_are_rejected() {
        let mut s = Store::new();
        for payload in ["0:2:ab", "junk", "0:9:ab", "5:1:x0:1:y"] {
            let msg = format!(
                "<env><response semantics=\"value\"><call-result><sequence>\
                 <keyset type=\"string\" n=\"2\">{payload}</keyset>\
                 </sequence></call-result></response></env>"
            );
            let err = decode_response(&mut s, &msg).unwrap_err();
            assert!(err.has_code("xrpc:transport-corrupt"), "{payload:?} → {err}");
        }
    }

    #[test]
    fn text_and_comment_nodes_ship_by_value() {
        let mut store = Store::new();
        let d = xqd_xml::parse_document(&mut store, "<a>hi<!--note--></a>", None).unwrap();
        // 0=doc 1=a 2=text 3=comment
        let calls = vec![vec![(
            "x".to_string(),
            vec![Item::Node(NodeId::new(d, 2)), Item::Node(NodeId::new(d, 3))].into(),
        )]];
        let msg =
            encode_request(&store, WireSemantics::Value, &ctx(), "$x", &calls, None, None)
                .unwrap();
        let mut remote = Store::new();
        let decoded = decode_request(&mut remote, &msg).unwrap();
        let seq = &decoded.calls[0][0].1;
        let Item::Node(t) = &seq[0] else { panic!() };
        assert_eq!(remote.doc(t.doc).kind(t.idx), xqd_xml::NodeKind::Text);
        assert_eq!(remote.doc(t.doc).string_value(t.idx), "hi");
        let Item::Node(c) = &seq[1] else { panic!() };
        assert_eq!(remote.doc(c.doc).kind(c.idx), xqd_xml::NodeKind::Comment);
    }
}
