//! Decoder robustness under hostile bytes: seeded `xqd-prng` mutations of
//! valid wire messages must make `decode_request` / `decode_response` /
//! `decode_fault` return an error (or, for semantics-preserving byte
//! flips, any non-panicking outcome) — never panic, across all three wire
//! semantics. Truncation anywhere strictly inside the message must always
//! be *detected*: the envelope's closing bytes are gone.
//!
//! The second half fuzzes the length-prefixed socket framing underneath
//! the decoders: truncated prefixes, oversized declared lengths, mid-frame
//! EOF and invalid UTF-8 must all surface as typed
//! `xrpc:transport-corrupt` — never a panic, and never an allocation
//! sized by an untrusted length field.
//!
//! Node references are checked against the receiver's fragment table: one
//! the table does not hold (`fragid 0`, an id past the end, an attribute
//! its owner lacks) is typed corruption, never a panic.
//!
//! The last part covers the doc envelope of the data-shipping path, which
//! embeds the shipped document as is: whatever the document's own markup
//! looks like and wherever the envelope is cut, the coordinator ends up with
//! the document bit for bit or an error — never a different document.
//!
//! The end holds the decoders to reading envelopes strictly: an attribute
//! outside the vocabulary on any element they open, a version on `<env>`,
//! a malformed number, a duplicate attribute or a hostile `<keyset>` count
//! is typed corruption naming what it found — never a silent skip.

use xqd_prng::Rng;
use xqd_xml::Store;
use xqd_xquery::eval::StaticContext;
use xqd_xquery::value::{EvalResult, Item, Sequence};
use xqd_xquery::{parse_query, reference_eval};
use std::io::Cursor;
use std::time::Duration;

use xqd_xquery::ast::{Atomic, PathSpec};
use xqd_xrpc::message::keyset_stats;
use xqd_xrpc::wire::parse_rel_path;
use xqd_xrpc::{
    decode_doc_request, decode_doc_response, decode_fault, decode_request, decode_response,
    encode_doc_request, encode_doc_response, encode_fault, encode_request, encode_response,
    read_frame, write_frame, FrameError, WireSemantics, XrpcError, MAX_FRAME_LEN,
};

const SEMANTICS: [WireSemantics; 3] =
    [WireSemantics::Value, WireSemantics::Fragment, WireSemantics::Projection];

/// A store with one document plus a node-valued parameter sequence, so the
/// encoded messages exercise node shipping (fragids, hrefs, projections).
fn fixture() -> (Store, Sequence) {
    let mut store = Store::new();
    xqd_xml::parse_document(
        &mut store,
        "<a id=\"1\"><b><c>text &amp; more</c></b><b/></a>",
        Some("xrpc://p/d.xml"),
    )
    .unwrap();
    let module = parse_query("doc(\"xrpc://p/d.xml\")//b").unwrap();
    let seq = reference_eval(&mut store, &module).unwrap();
    (store, seq)
}

fn valid_messages() -> Vec<String> {
    let mut messages = Vec::new();
    for semantics in SEMANTICS {
        let (store, seq) = fixture();
        let calls = vec![vec![("x".to_string(), seq.clone())]];
        let request = encode_request(
            &store,
            semantics,
            &StaticContext::default(),
            "count($x//c)",
            &calls,
            None,
            None,
        )
        .unwrap();
        let response = encode_response(&store, semantics, &[seq], None).unwrap();
        messages.push(request);
        messages.push(response);
    }
    messages.push(encode_fault(&XrpcError::TransportCorrupt {
        peer: "p".to_string(),
        detail: "detail with <angle> & \"quotes\"".to_string(),
    }));
    messages.push(encode_doc_request(DOC_URI));
    messages.extend(HOSTILE_DOCUMENTS.map(|document| encode_doc_response(DOC_URI, document)));
    messages
}

fn char_floor(s: &str, pos: usize) -> usize {
    let mut p = pos.min(s.len());
    while p > 0 && !s.is_char_boundary(p) {
        p -= 1;
    }
    p
}

/// Runs every decoder over `mutant`; returns whether *any* accepted it.
/// The decoders must not panic — reaching the return is the property.
fn decode_all(mutant: &str) -> bool {
    let mut accepted = false;
    let mut store = Store::new();
    accepted |= decode_request(&mut store, mutant).is_ok();
    let mut store = Store::new();
    accepted |= decode_response(&mut store, mutant).is_ok();
    accepted |= decode_fault(mutant).is_some();
    accepted |= decode_doc_request(mutant).is_some();
    accepted |= open_doc_reply(mutant).is_ok();
    accepted
}

#[test]
fn truncated_messages_always_decode_as_errors() {
    let mut rng = Rng::seed_from_u64(0xDEC0DE);
    for message in valid_messages() {
        for _ in 0..200 {
            let cut = char_floor(&message, rng.gen_range_usize(0..message.len()));
            let mutant = &message[..cut];
            let mut store = Store::new();
            assert!(
                decode_request(&mut store, mutant).is_err(),
                "truncated request accepted at byte {cut}: {mutant:?}"
            );
            let mut store = Store::new();
            assert!(
                decode_response(&mut store, mutant).is_err(),
                "truncated response accepted at byte {cut}: {mutant:?}"
            );
        }
    }
}

#[test]
fn truncation_errors_are_tagged_transport_corrupt() {
    let mut rng = Rng::seed_from_u64(0xBADC0DE);
    for message in valid_messages() {
        for _ in 0..50 {
            let cut = char_floor(&message, rng.gen_range_usize(0..message.len()));
            let mut store = Store::new();
            let err = decode_response(&mut store, &message[..cut]).unwrap_err();
            assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "cut={cut}");
        }
    }
}

#[test]
fn byte_flipped_messages_never_panic_the_decoders() {
    let mut rng = Rng::seed_from_u64(0xF1A5);
    // printable ASCII replacements keep the mutant valid UTF-8 (invalid
    // UTF-8 never reaches a decoder: the transport rejects it earlier)
    let replacements: Vec<u8> = (0x20u8..0x7f).collect();
    for message in valid_messages() {
        for _ in 0..300 {
            let mut bytes = message.clone().into_bytes();
            // flip 1–4 bytes, only at ASCII positions so UTF-8 stays valid
            for _ in 0..(1 + rng.gen_range_usize(0..4)) {
                let pos = rng.gen_range_usize(0..bytes.len());
                if bytes[pos].is_ascii() {
                    bytes[pos] = replacements[rng.gen_range_usize(0..replacements.len())];
                }
            }
            let mutant = String::from_utf8(bytes).unwrap();
            // must not panic; accept-or-reject are both fine for flips
            // that happen to keep the message well-formed
            decode_all(&mutant);
        }
    }
}

#[test]
fn shuffled_fragments_of_messages_never_panic_the_decoders() {
    let mut rng = Rng::seed_from_u64(0x5AFE);
    for message in valid_messages() {
        for _ in 0..100 {
            // splice two random char-aligned windows of the message
            let a = char_floor(&message, rng.gen_range_usize(0..message.len()));
            let b = char_floor(&message, rng.gen_range_usize(0..message.len()));
            let (lo, hi) = (a.min(b), a.max(b));
            let mutant = format!("{}{}", &message[hi..], &message[..lo]);
            decode_all(&mutant);
        }
    }
}

// ---------------------------------------------------------------------------
// length-prefixed framing under hostile bytes
// ---------------------------------------------------------------------------

/// Frames every valid message, then mutilates the byte stream: cut
/// anywhere (inside the 4-byte prefix or the payload), and the reader
/// must return a [`FrameError`] that lifts to `xrpc:transport-corrupt` —
/// never panic, never report a clean close when payload bytes were owed.
#[test]
fn truncated_frames_always_read_as_typed_corruption() {
    let mut rng = Rng::seed_from_u64(0xF8A3E);
    for message in valid_messages() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &message).unwrap();
        for _ in 0..200 {
            // strictly inside the stream: cut after 1..len-1 bytes
            let cut = 1 + rng.gen_range_usize(0..framed.len() - 1);
            let mut cur = Cursor::new(&framed[..cut]);
            let err = read_frame(&mut cur, MAX_FRAME_LEN)
                .expect_err("truncated frame accepted")
                .into_xrpc("p", Duration::from_secs(1));
            assert_eq!(err.code(), "xrpc:transport-corrupt", "cut={cut}");
        }
    }
}

/// Random 4-byte prefixes declaring lengths above the cap are rejected
/// before any allocation — the reader must not try to reserve what the
/// prefix promises.
#[test]
fn oversized_declared_lengths_never_allocate() {
    let mut rng = Rng::seed_from_u64(0x0515E);
    for _ in 0..500 {
        let declared = 1024 + rng.gen_range_usize(0..u32::MAX as usize - 1024) as u32;
        let mut stream = declared.to_be_bytes().to_vec();
        stream.extend_from_slice(b"some bytes that are not the payload");
        let cap = 1024usize;
        let err = read_frame(&mut Cursor::new(stream), cap).expect_err("over-cap accepted");
        assert!(
            matches!(err, FrameError::Oversized { .. }),
            "declared={declared}: {err:?}"
        );
        assert_eq!(
            err.into_xrpc("p", Duration::from_secs(1)).code(),
            "xrpc:transport-corrupt"
        );
    }
}

/// A prefix that over-declares relative to the bytes that follow is
/// mid-frame EOF; an after-the-fact close between frames is clean. The
/// reader must distinguish the two exactly.
#[test]
fn mid_frame_eof_is_distinguished_from_clean_close() {
    let mut rng = Rng::seed_from_u64(0xE0F);
    for message in valid_messages() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &message).unwrap();
        // whole frame then EOF: one Ok(Some), then a clean close
        let mut cur = Cursor::new(framed.clone());
        assert_eq!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().as_deref(), Some(&message[..]));
        assert!(read_frame(&mut cur, MAX_FRAME_LEN).unwrap().is_none());
        // payload cut short: MidFrameEof with honest byte counts
        for _ in 0..50 {
            let cut = 4 + rng.gen_range_usize(0..message.len());
            let err = read_frame(&mut Cursor::new(&framed[..cut]), MAX_FRAME_LEN)
                .expect_err("short payload accepted");
            match err {
                FrameError::MidFrameEof { got, declared } => {
                    assert_eq!(got, cut - 4);
                    assert_eq!(declared, message.len());
                }
                other => panic!("cut={cut}: expected MidFrameEof, got {other:?}"),
            }
        }
    }
}

/// Payload bytes mangled into invalid UTF-8 must surface as typed
/// corruption, not a panic in the string conversion.
#[test]
fn non_utf8_payloads_are_typed_corruption() {
    let mut rng = Rng::seed_from_u64(0xBEEF);
    for message in valid_messages() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &message).unwrap();
        for _ in 0..100 {
            let mut stream = framed.clone();
            // continuation bytes (0x80..0xBF) are never valid standalone
            let pos = 4 + rng.gen_range_usize(0..message.len());
            stream[pos] = 0x80 + (rng.gen_range_usize(0..0x40) as u8);
            match read_frame(&mut Cursor::new(stream), MAX_FRAME_LEN) {
                Ok(Some(_)) => {} // flip landed inside a multi-byte char and stayed valid
                Ok(None) => panic!("mangled frame read as clean close"),
                Err(e) => {
                    assert_eq!(
                        e.into_xrpc("p", Duration::from_secs(1)).code(),
                        "xrpc:transport-corrupt"
                    );
                }
            }
        }
    }
}

#[test]
fn degenerate_inputs_never_panic_the_decoders() {
    for mutant in [
        "",
        "<",
        ">",
        "<env>",
        "<env></env>",
        "<env><fault></fault></env>",
        "<env><fault code=\"\"/></env>",
        "<env><response/></env>",
        "not xml at all",
        "<env><fault code=\"xrpc:timeout\" peer=\"p\"><message>m</message></fault></env> trailing",
    ] {
        decode_all(mutant);
    }
}

// ---------------------------------------------------------------------------
// node references: checked against the receiver's fragment table
// ---------------------------------------------------------------------------

/// One fragment holding `<a id="1"><b/></a>`: nodeid 0 is the fragment's
/// document node, 1 is `<a>`, 2 is `<b>` (the attribute takes no nodeid).
const ONE_FRAGMENT: &str =
    "<fragments><fragment uri=\"xrpc://p/d.xml\"><a id=\"1\"><b/></a></fragment></fragments>";

/// A request and a response carrying `fragments` and one reference item.
fn referencing(fragments: &str, reference: &str) -> [String; 2] {
    [
        format!(
            "<env><request semantics=\"fragment\" static-base-uri=\"\" default-collation=\"\" \
             current-dateTime=\"\"><query>$x</query>{fragments}<call><param name=\"x\">\
             <sequence>{reference}</sequence></param></call></request></env>"
        ),
        format!(
            "<env><response semantics=\"fragment\">{fragments}<call-result>\
             <sequence>{reference}</sequence></call-result></response></env>"
        ),
    ]
}

/// Every reference the table does not hold is typed corruption through
/// both decoders — never a panic, never a node the sender did not name.
#[test]
fn hostile_references_are_typed_corruption() {
    for (fragments, reference) in [
        (ONE_FRAGMENT, "<element fragid=\"0\" nodeid=\"1\"/>"),
        (ONE_FRAGMENT, "<element fragid=\"2\" nodeid=\"1\"/>"),
        (ONE_FRAGMENT, "<element fragid=\"1\" nodeid=\"3\"/>"),
        (ONE_FRAGMENT, "<element fragid=\"1\" nodeid=\"4294967295\"/>"),
        (ONE_FRAGMENT, "<attribute fragid=\"1\" nodeid=\"1\" name=\"missing\"/>"),
        (ONE_FRAGMENT, "<attribute fragid=\"1\" nodeid=\"2\" name=\"id\"/>"),
        ("", "<element fragid=\"1\" nodeid=\"1\"/>"),
        ("", "<element fragid=\"0\" nodeid=\"0\"/>"),
    ] {
        let [request, response] = referencing(fragments, reference);
        let err = decode_request(&mut Store::new(), &request).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{request}: {err}");
        let err = decode_response(&mut Store::new(), &response).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{response}: {err}");
    }
    // the references the table does hold resolve, in both directions
    for (reference, expected) in [
        ("<element fragid=\"1\" nodeid=\"0\"/>", "<a id=\"1\"><b/></a>"),
        ("<element fragid=\"1\" nodeid=\"1\"/>", "<a id=\"1\"><b/></a>"),
        ("<element fragid=\"1\" nodeid=\"2\"/>", "<b/>"),
        ("<attribute fragid=\"1\" nodeid=\"1\" name=\"id\"/>", "id=\"1\""),
    ] {
        let [request, response] = referencing(ONE_FRAGMENT, reference);
        let mut store = Store::new();
        let decoded = decode_request(&mut store, &request).unwrap();
        assert_eq!(serialized(&store, &decoded.calls[0][0].1), expected, "{reference}");
        let mut store = Store::new();
        let decoded = decode_response(&mut store, &response).unwrap();
        assert_eq!(serialized(&store, &decoded[0]), expected, "{reference}");
    }
}

/// An envelope nesting far past the XML parser's depth bound is typed
/// corruption through both decoders; it used to overflow the decoding
/// thread's stack and abort the process.
#[test]
fn deeply_nested_envelopes_are_typed_corruption() {
    let deep = format!("{}{}", "<a>".repeat(100_000), "</a>".repeat(100_000));
    let fragments = format!("<fragments><fragment>{deep}</fragment></fragments>");
    let [request, response] = referencing(&fragments, "<element fragid=\"1\" nodeid=\"1\"/>");
    let err = decode_request(&mut Store::new(), &request).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{err}");
    assert!(err.message.contains("nested deeper than 1024 levels"), "{err}");
    let err = decode_response(&mut Store::new(), &response).unwrap_err();
    assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{err}");
    assert!(err.message.contains("nested deeper than 1024 levels"), "{err}");
}

/// The one node of `seq`, serialized.
fn serialized(store: &Store, seq: &Sequence) -> String {
    let [Item::Node(n)] = &seq[..] else { panic!("one node expected") };
    xqd_xml::serialize_node(store.doc(n.doc), &store.names, n.idx)
}

// ---------------------------------------------------------------------------
// doc envelopes: the shipped document is embedded, not escaped
// ---------------------------------------------------------------------------

/// A URI that needs every attribute escape.
const DOC_URI: &str = "xrpc://p/a \"q\" & <d>.xml";

/// Well-formed documents whose own markup looks like envelope vocabulary:
/// the closing bytes of a doc envelope inside a comment, a PI and (escaped)
/// text, root elements named like envelope children, a nested envelope.
const HOSTILE_DOCUMENTS: [&str; 6] = [
    "<a id=\"1\"><b><c>text &amp; more</c></b><b/></a>",
    "<a><!--</doc></env>--><?pi </doc></env>?><b>&lt;/doc&gt;&lt;/env&gt;</b></a>",
    "<fault code=\"xrpc:timeout\" peer=\"p\"><message>not a fault</message></fault>",
    "<doc-request uri=\"xrpc://p/other.xml\"/>",
    "<env><doc uri=\"nested\"><x/></doc></env>",
    "<a q=\"&quot;&gt;\">é–ü \"&gt; tail</a>",
];

/// What the coordinator makes of a doc reply: the envelope is opened, then
/// the document is shredded and — to compare bit for bit — serialized back.
/// A reply that is no doc envelope is `xrpc:transport-corrupt` to the
/// caller; one whose content does not shred is a shredding error.
fn open_doc_reply(reply: &str) -> Result<String, String> {
    let xml = decode_doc_response(reply).ok_or("xrpc:transport-corrupt")?;
    let mut store = Store::new();
    let doc = xqd_xml::parse_document(&mut store, &xml, Some(DOC_URI))
        .map_err(|e| format!("shredding: {e}"))?;
    Ok(xqd_xml::serialize_document(store.doc(doc), &store.names))
}

#[test]
fn doc_envelopes_carry_any_document_bit_for_bit_at_a_constant_cost() {
    let mut escaped_uri = String::new();
    xqd_xml::serialize::escape_attr(DOC_URI, &mut escaped_uri);
    let envelope = "<env><doc uri=\"\"></doc></env>".len() + escaped_uri.len();
    for document in HOSTILE_DOCUMENTS {
        let reply = encode_doc_response(DOC_URI, document);
        assert_eq!(reply.len(), document.len() + envelope, "{reply}");
        assert_eq!(decode_doc_response(&reply).as_deref(), Some(document));
        assert_eq!(open_doc_reply(&reply).as_deref(), Ok(document));
        // classified by its prefix, whatever the document holds
        assert!(decode_fault(&reply).is_none(), "{reply}");
        assert!(decode_doc_request(&reply).is_none(), "{reply}");
        // and the envelope is itself well-formed XML
        xqd_xml::parse_document(&mut Store::new(), &reply, None).expect("well-formed envelope");
    }
    let request = encode_doc_request(DOC_URI);
    assert_eq!(decode_doc_request(&request).as_deref(), Some(DOC_URI));
    assert!(decode_doc_response(&request).is_none());
}

/// Every cut — inside the header, the `uri` attribute, the document, the
/// trailer — is an error or, never, another document.
#[test]
fn truncated_doc_envelopes_never_yield_a_different_document() {
    for document in HOSTILE_DOCUMENTS {
        let reply = encode_doc_response(DOC_URI, document);
        for cut in (0..reply.len()).filter(|&c| reply.is_char_boundary(c)) {
            if let Ok(got) = open_doc_reply(&reply[..cut]) {
                panic!("cut at byte {cut} of {reply:?} read as the document {got:?}");
            }
        }
        // the trailer gone altogether, and bytes after it
        let unclosed = reply.strip_suffix("</doc></env>").unwrap();
        assert!(open_doc_reply(unclosed).is_err(), "{unclosed}");
        assert!(open_doc_reply(&format!("{reply} trailing")).is_err());
    }
}

/// A peer still speaking the escaped-text format is refused when its
/// content is shredded — it is not read as a document made of one text.
#[test]
fn old_format_doc_replies_fail_to_shred() {
    for document in HOSTILE_DOCUMENTS {
        let mut old = String::from("<env><doc uri=\"xrpc://p/d.xml\">");
        xqd_xml::serialize::escape_text(document, &mut old);
        old.push_str("</doc></env>");
        let err = open_doc_reply(&old).expect_err("old-format reply accepted");
        assert!(err.starts_with("shredding: "), "{err}");
    }
}

// ---------------------------------------------------------------------------
// envelopes are read strictly: every attribute taken once, no leftover
// ---------------------------------------------------------------------------

/// A key-set header's count sizes no allocation: a count near `usize::MAX`
/// (once a capacity-overflow panic) or in the trillions (once an abort on
/// a failed 24 TB reservation) is typed corruption through both decoders,
/// and `keyset_stats` skips the block without counting it.
#[test]
fn hostile_keyset_counts_are_typed_corruption() {
    for n in ["18446744073709551615", "1000000000000"] {
        let keyset = format!("<keyset type=\"string\" n=\"{n}\">0:1:a0:1:b</keyset>");
        let [request, response] = referencing("", &keyset);
        let err = decode_request(&mut Store::new(), &request).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{request}: {err}");
        let err = decode_response(&mut Store::new(), &response).unwrap_err();
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{response}: {err}");
        assert_eq!(keyset_stats(&request), (0, 0), "{request}");
        assert_eq!(keyset_stats(&response), (0, 0), "{response}");
    }
}

/// XML forbids a repeated attribute name on one start tag: on an envelope
/// element it is typed corruption, not a silent first-one-wins read.
#[test]
fn duplicate_envelope_attributes_are_typed_corruption() {
    let [request, response] = referencing(ONE_FRAGMENT, "<element fragid=\"1\" nodeid=\"1\"/>");
    for (message, from, to) in [
        (&request, "semantics=\"fragment\"", "semantics=\"fragment\" semantics=\"value\""),
        (&request, "name=\"x\"", "name=\"x\" name=\"y\""),
        (&response, "nodeid=\"1\"", "nodeid=\"1\" nodeid=\"2\""),
    ] {
        let mutant = message.replacen(from, to, 1);
        let err = if mutant.starts_with("<env><request") {
            decode_request(&mut Store::new(), &mutant).unwrap_err()
        } else {
            decode_response(&mut Store::new(), &mutant).unwrap_err()
        };
        assert_eq!(err.code.as_deref(), Some("xrpc:transport-corrupt"), "{mutant}: {err}");
        let (name, _) = from.split_once('=').unwrap();
        assert!(err.message.contains(&format!("duplicate attribute {name}")), "{err}");
    }
}

/// One valid envelope of every shape the encoders emit, each holding the
/// elements the decoders open: by-value items (`<atom>`, `<keyset>`,
/// `<copy>`) with `<response-paths>`, by-fragment references (`<element>`,
/// `<attribute>`) with `<fragments>`, a fault with each optional hint, and
/// the doc request and reply.
fn every_envelope() -> Vec<String> {
    let (store, nodes) = fixture();
    let atoms: Vec<Item> = (0..8).map(|i| Item::Atom(Atomic::Int(i))).collect();
    let mixed: Sequence =
        [Item::Atom(Atomic::Str("s".into())), nodes[0].clone()].into_iter().chain(atoms).collect();
    let a = xqd_xml::NodeId::new(xqd_xml::DocId(0), 2); // the `id` attribute of <a>
    let refs: Sequence = vec![nodes[0].clone(), Item::Node(a)].into();
    let spec = PathSpec {
        used: vec![parse_rel_path("child::c").unwrap()],
        returned: vec![parse_rel_path("child::b").unwrap()],
    };
    let mut envelopes = Vec::new();
    for (semantics, seq) in [(WireSemantics::Value, &mixed), (WireSemantics::Fragment, &refs)] {
        let calls = vec![vec![("x".to_string(), seq.clone())]];
        let ctx = StaticContext::default();
        envelopes.push(
            encode_request(&store, semantics, &ctx, "$x", &calls, None, Some(&spec)).unwrap(),
        );
        let results = std::slice::from_ref(seq);
        envelopes.push(encode_response(&store, semantics, results, None).unwrap());
    }
    envelopes.push(encode_fault(&XrpcError::Overloaded { retry_after_ms: 80 }));
    envelopes.push(encode_fault(&XrpcError::Timeout {
        peer: "p".into(),
        deadline: Duration::from_millis(250),
    }));
    envelopes.push(encode_doc_request(DOC_URI));
    envelopes.push(encode_doc_response(DOC_URI, HOSTILE_DOCUMENTS[0]));
    envelopes
}

/// What each decoder makes of `message`: `Ok(())` for accepted, else the
/// error text. The decoder is chosen by the envelope's element; the three
/// that answer `Option` have no text to give.
fn decode_as_sent(message: &str) -> Result<(), String> {
    let typed = |r: EvalResult<()>| {
        r.map_err(|e| match e.code.as_deref() {
            Some("xrpc:transport-corrupt") => e.message,
            _ => panic!("untyped or mistyped: {e}"),
        })
    };
    let none = |accepted: bool| if accepted { Ok(()) } else { Err(String::new()) };
    if message.contains("<request") {
        typed(decode_request(&mut Store::new(), message).map(drop))
    } else if message.contains("<fault") && decode_fault(message).is_some() {
        Ok(())
    } else if message.contains("<response") || message.contains("<fault") {
        typed(decode_response(&mut Store::new(), message).map(drop))
    } else if message.contains("<doc-request") {
        none(decode_doc_request(message).is_some())
    } else {
        none(decode_doc_response(message).is_some())
    }
}

/// `message` with ` attr` added to the first start tag of `element`.
fn with_attribute(message: &str, element: &str, attr: &str) -> Option<String> {
    let open = format!("<{element}");
    let (at, _) = message.match_indices(&open).find(|&(i, _)| {
        matches!(message.as_bytes().get(i + open.len()), Some(b' ' | b'>' | b'/'))
    })?;
    let at = at + open.len();
    Some(format!("{} {attr}{}", &message[..at], &message[at..]))
}

/// Table-driven: every element the decoders open, given one attribute
/// outside the vocabulary — and `<env>` given a version — is typed
/// corruption naming the element and the attribute (`None` from the three
/// `Option` decoders). Malformed numbers are corruption naming the
/// attribute. Every unmodified envelope decodes with nothing left over.
#[test]
fn unknown_and_malformed_attributes_are_typed_corruption() {
    let envelopes = every_envelope();
    for envelope in &envelopes {
        assert_eq!(decode_as_sent(envelope), Ok(()), "{envelope}");
    }
    let elements = [
        "env", "request", "query", "response-paths", "used-path", "returned-path", "fragments",
        "fragment", "call", "param", "sequence", "atom", "keyset", "copy", "element",
        "attribute", "response", "call-result", "fault", "message", "doc-request", "doc",
    ];
    let unknown = elements.map(|element| (element, "unit=\"kg\""));
    for (element, attr) in unknown.into_iter().chain([("env", "v=\"2\"")]) {
        let name = attr.split_once('=').unwrap().0;
        let mut seen = 0;
        for envelope in &envelopes {
            let Some(mutant) = with_attribute(envelope, element, attr) else { continue };
            seen += 1;
            match decode_as_sent(&mutant) {
                Ok(()) => panic!("accepted: {mutant}"),
                // the three `Option` decoders, and the `<doc>` header
                Err(text) if text.is_empty() => {}
                Err(text) => assert!(
                    text.contains(&format!("<{element}> attribute {name}")),
                    "{mutant} → {text}"
                ),
            }
        }
        assert!(seen > 0, "no envelope holds <{element}>");
    }
    for (from, to, name) in [
        ("fragid=\"1\"", "fragid=\"one\"", "fragid"),
        ("nodeid=\"", "nodeid=\"-", "nodeid"),
        ("n=\"8\"", "n=\"eight\"", "n"),
        ("deadline-ms=\"250\"", "deadline-ms=\"soon\"", "deadline-ms"),
        ("retry-after-ms=\"80\"", "retry-after-ms=\"\"", "retry-after-ms"),
    ] {
        let envelope = envelopes.iter().find(|e| e.contains(from)).expect(from);
        let mutant = envelope.replacen(from, to, 1);
        let text = decode_as_sent(&mutant).expect_err(&mutant);
        assert!(text.contains(&format!("attribute {name} is malformed")), "{mutant} → {text}");
    }
}
