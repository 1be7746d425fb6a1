//! XML parser ("shredder" in the paper's vocabulary).
//!
//! A hand-written, non-validating parser covering what the distributed
//! XQuery pipeline needs: elements, attributes, text, comments, processing
//! instructions, CDATA sections, the five predefined entities and numeric
//! character references. Namespace declarations are kept as plain
//! attributes; QNames are stored verbatim (prefix included).
//!
//! The input is a `&str`, and every delimiter is ASCII, so the parser
//! slices it without re-validating UTF-8. It copies runs, not characters:
//! the next `<`, `&`, quote or section end is found with `str::find`, and
//! each run between them is copied once, straight into the document's
//! text arena, where consecutive runs of text, CDATA and references
//! become one text node.
//!
//! Attribute names are unique per start tag (XML 1.0's "Unique Att Spec"):
//! a repeat is a [`ParseError`] naming it, for documents and envelopes
//! alike, found in O(1) per attribute.

use std::fmt;

use crate::store::{DocBuilder, DocId, Store};

/// Parse failure with byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest element nesting the parser accepts. Every envelope a daemon
/// receives is parsed here, and what reads a document afterwards may
/// recurse on its depth, so a deeper document is a [`ParseError`], never a
/// stack overflow later. Shipped documents nest ~12 levels (XMark).
const MAX_NESTING: usize = 1024;

/// [`NAME_BYTES`] of a byte that may start a name.
const NAME_START: u8 = 2;

/// Per byte, what it may be in a name: [`NAME_START`] (letters, `_`, `:`
/// and every non-ASCII byte), 1 for what may only continue one (digits,
/// `-`, `.`), 0 for what ends it. A name ends at an ASCII byte, so it is
/// sliced on a character boundary.
const NAME_BYTES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let byte = b as u8;
        table[b] = if byte.is_ascii_alphabetic() || byte == b'_' || byte == b':' || byte >= 0x80 {
            NAME_START
        } else if byte.is_ascii_digit() || byte == b'-' || byte == b'.' {
            1
        } else {
            0
        };
        b += 1;
    }
    table
};

struct Parser<'a> {
    input: &'a str,
    /// Always on a character boundary: it only ever moves past ASCII
    /// delimiters, found runs and names (which end at an ASCII byte).
    pos: usize,
    /// Per interned name id, the last element whose start tag carried an
    /// attribute of that name (0, the document node, for none yet).
    seen: Vec<u32>,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: msg.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            self.err(format!("expected {s:?}"))
        }
    }

    fn read_until(&mut self, marker: &str) -> Result<&'a str, ParseError> {
        let rest = self.rest();
        // a one-byte marker (a quote) is a memchr, not a substring search
        let found = match marker.as_bytes() {
            &[byte] => rest.find(char::from(byte)),
            _ => rest.find(marker),
        };
        match found {
            Some(i) => {
                self.pos += i + marker.len();
                Ok(&rest[..i])
            }
            None => self.err(format!("unterminated section, expected {marker:?}")),
        }
    }

    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let bytes = &self.input.as_bytes()[start..];
        match bytes.first() {
            Some(&b) if NAME_BYTES[usize::from(b)] == NAME_START => {}
            _ => return self.err("expected name"),
        }
        let len = bytes.iter().position(|&b| NAME_BYTES[usize::from(b)] == 0);
        self.pos += len.unwrap_or(bytes.len());
        Ok(&self.input[start..self.pos])
    }

    fn parse_misc(&mut self, b: &mut DocBuilder) -> Result<bool, ParseError> {
        if self.starts_with("<!--") {
            self.bump(4);
            let body = self.read_until("-->")?;
            b.comment(body);
            Ok(true)
        } else if self.starts_with("<?") {
            self.bump(2);
            let target = self.read_name()?;
            self.skip_ws();
            let body = self.read_until("?>")?;
            if !target.eq_ignore_ascii_case("xml") {
                b.pi(target, body.trim_end());
            }
            Ok(true)
        } else if self.starts_with("<!DOCTYPE") {
            // Skip a (non-subset) doctype declaration.
            self.bump(9);
            let mut depth = 0usize;
            loop {
                match self.peek() {
                    Some(b'<') => depth += 1,
                    Some(b'>') => {
                        if depth == 0 {
                            self.bump(1);
                            break;
                        }
                        depth -= 1;
                    }
                    None => return self.err("unterminated DOCTYPE"),
                    _ => {}
                }
                self.bump(1);
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Parses the root element and everything inside it. The open elements
    /// are a stack of names, not a recursion, and [`MAX_NESTING`] bounds it.
    fn parse_element(&mut self, b: &mut DocBuilder) -> Result<(), ParseError> {
        let mut open: Vec<&'a str> = Vec::new();
        loop {
            if open.len() == MAX_NESTING {
                return self.err(format!("element nested deeper than {MAX_NESTING} levels"));
            }
            self.expect("<")?;
            let name = self.read_name()?;
            let el = b.start_element(name);
            if self.parse_attributes(b, el)? {
                open.push(name);
            } else {
                b.end_element();
            }
            // content up to the next start tag: text runs, CDATA and
            // references accumulate at the tail of the text arena until
            // other markup ends the text node
            let mut run = b.text_arena().len();
            while let Some(&name) = open.last() {
                match self.peek() {
                    None => return self.err(format!("unterminated element <{name}>")),
                    Some(b'<') => {
                        let next = self.input.as_bytes().get(self.pos + 1).copied();
                        if next == Some(b'!') && self.starts_with("<![CDATA[") {
                            self.bump(9);
                            let body = self.read_until("]]>")?;
                            b.text_arena().push_str(body);
                            continue;
                        }
                        b.text_since(run);
                        match next {
                            Some(b'/') => {
                                self.bump(2);
                                let close = self.read_name()?;
                                if close != name {
                                    return self.err(format!(
                                        "mismatched close tag </{close}>, open <{name}>"
                                    ));
                                }
                                self.skip_ws();
                                self.expect(">")?;
                                b.end_element();
                                open.pop();
                            }
                            Some(b'!' | b'?') if self.parse_misc(b)? => {}
                            // a start tag, or markup that then fails as one
                            _ => break,
                        }
                        run = b.text_arena().len();
                    }
                    Some(_) => {
                        let start = self.pos;
                        self.pos += self.rest().find('<').unwrap_or(self.input.len() - start);
                        decode_text(&self.input[start..self.pos], start, b.text_arena())?;
                    }
                }
            }
            if open.is_empty() {
                return Ok(());
            }
        }
    }

    /// Parses the attributes of element `el`'s start tag up to its end:
    /// `true` for `>`, `false` for an element closed by `/>`.
    fn parse_attributes(&mut self, b: &mut DocBuilder, el: u32) -> Result<bool, ParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(false);
                }
                Some(b'>') => {
                    self.bump(1);
                    return Ok(true);
                }
                Some(_) => {
                    let offset = self.pos;
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(b'"') => "\"",
                        Some(b'\'') => "'",
                        _ => return self.err("expected quoted attribute value"),
                    };
                    self.bump(1);
                    let raw_start = self.pos;
                    let raw = self.read_until(quote)?;
                    let from = b.text_arena().len();
                    decode_text(raw, raw_start, b.text_arena())?;
                    let id = b.attribute_since(attr_name, from).0 as usize;
                    if id >= self.seen.len() {
                        self.seen.resize(id + 1, 0);
                    }
                    if std::mem::replace(&mut self.seen[id], el) == el {
                        let message = format!("duplicate attribute {attr_name}");
                        return Err(ParseError { offset, message });
                    }
                }
                None => return self.err("unterminated start tag"),
            }
        }
    }
}

/// Appends `raw` (found at byte `raw_offset` of the input) to `out` with
/// its entity and character references decoded: each run between two
/// references is copied whole.
fn decode_text(raw: &str, raw_offset: usize, out: &mut String) -> Result<(), ParseError> {
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let offset = raw_offset + (raw.len() - rest.len()) + amp;
        let error = |message: String| ParseError { offset, message };
        let reference = &rest[amp..];
        let semi = reference
            .find(';')
            .ok_or_else(|| error("unterminated entity reference".into()))?;
        let ent = &reference[1..semi];
        let bad_char = || error(format!("bad character reference &{ent};"));
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16).ok().and_then(char::from_u32);
                out.push(cp.ok_or_else(bad_char)?);
            }
            _ if ent.starts_with('#') => {
                let cp = ent[1..].parse::<u32>().ok().and_then(char::from_u32);
                out.push(cp.ok_or_else(bad_char)?);
            }
            _ => return Err(error(format!("unknown entity &{ent};"))),
        }
        rest = &reference[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

/// Parses `input` into a [`DocBuilder`] (not yet attached to a store).
pub fn parse_to_builder(input: &str, uri: Option<&str>) -> Result<DocBuilder, ParseError> {
    let mut p = Parser { input, pos: 0, seen: Vec::new() };
    let mut b = DocBuilder::new(uri);
    p.skip_ws();
    // prolog + misc
    loop {
        if p.starts_with("<?xml") {
            p.bump(5);
            p.read_until("?>")?;
            p.skip_ws();
            continue;
        }
        if p.parse_misc(&mut b)? {
            p.skip_ws();
            continue;
        }
        break;
    }
    if p.peek() != Some(b'<') {
        return p.err("expected root element");
    }
    p.parse_element(&mut b)?;
    p.skip_ws();
    while p.pos < p.input.len() {
        if !p.parse_misc(&mut b)? {
            return p.err("trailing content after root element");
        }
        p.skip_ws();
    }
    Ok(b.finish())
}

/// Parses `input` and attaches the document to `store` under `uri`.
pub fn parse_document(store: &mut Store, input: &str, uri: Option<&str>) -> Result<DocId, ParseError> {
    let b = parse_to_builder(input, uri)?;
    Ok(store.attach(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{NodeId, NodeKind};

    #[test]
    fn simple_document() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><b x='1'>hi</b><c/></a>", Some("t.xml")).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.len(), 6); // doc, a, b, @x, text, c
        assert_eq!(doc.string_value(0), "hi");
        let a = s.node(NodeId::new(d, 1));
        assert_eq!(a.name(), "a");
        let b = a.child_element("b").unwrap();
        assert_eq!(b.attribute("x"), Some("1"));
    }

    #[test]
    fn entities_decoded() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a t='&lt;&amp;&#65;'>x &gt; y &#x41;</a>", None).unwrap();
        let doc = s.doc(d);
        let root = s.node(NodeId::new(d, 1));
        assert_eq!(root.attribute("t"), Some("<&A"));
        assert_eq!(doc.string_value(1), "x > y A");
    }

    #[test]
    fn prolog_comments_pis_cdata() {
        let mut s = Store::new();
        let input = "<?xml version=\"1.0\"?><!-- top --><a><?app do it?><![CDATA[<raw>]]></a><!-- tail -->";
        let d = parse_document(&mut s, input, None).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.string_value(1 + 1), "<raw>"); // comment shifts root to idx 2
        let kinds: Vec<NodeKind> = (0..doc.len() as u32).map(|i| doc.kind(i)).collect();
        assert!(kinds.contains(&NodeKind::Comment));
        assert!(kinds.contains(&NodeKind::Pi));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let mut s = Store::new();
        assert!(parse_document(&mut s, "<a><b></a></b>", None).is_err());
        assert!(parse_document(&mut s, "<a>", None).is_err());
        assert!(parse_document(&mut s, "text", None).is_err());
        assert!(parse_document(&mut s, "<a/><b/>", None).is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        let mut s = Store::new();
        assert!(parse_document(&mut s, "<a>&nbsp;</a>", None).is_err());
    }

    #[test]
    fn doctype_skipped() {
        let mut s = Store::new();
        let d =
            parse_document(&mut s, "<!DOCTYPE site SYSTEM \"x.dtd\"><site>ok</site>", None).unwrap();
        assert_eq!(s.doc(d).string_value(0), "ok");
    }

    #[test]
    fn whitespace_text_preserved_inside_elements() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a> <b/> </a>", None).unwrap();
        // two whitespace text nodes around <b/>
        let doc = s.doc(d);
        assert_eq!(doc.string_value(1), "  ");
        assert_eq!(doc.len(), 5);
    }

    #[test]
    fn utf8_content() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a name='møller'>grüße 你好</a>", None).unwrap();
        let doc = s.doc(d);
        assert_eq!(doc.string_value(1), "grüße 你好");
        assert_eq!(s.node(NodeId::new(d, 1)).attribute("name"), Some("møller"));
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let mut s = Store::new();
        let err = parse_document(&mut s, "<a x=\"1\" y='2' x=\"2\"/>", None).unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (15, "duplicate attribute x"));
        assert_eq!(s.doc_count(), 0);
        // the same name on two elements, or on an element and its child
        let d = parse_document(&mut s, "<a x='1'><b x='2'/><c x='3' y='4'/></a>", None).unwrap();
        assert_eq!(s.doc(d).len(), 8);
    }

    /// 10 000 distinct names that share four memo slots, as elements and
    /// attributes, twice over in two orders: the shredded nodes carry the
    /// names, and the ids, that plain `NameTable` interning gives.
    #[test]
    fn names_colliding_in_the_memo_shred_as_plain_interning_does() {
        use crate::name::{memo_slot, NameTable};
        let slots = [memo_slot(b"n0"), memo_slot(b"n1"), memo_slot(b"n2"), memo_slot(b"n3")];
        let pool: Vec<String> = (0..10_000_000)
            .map(|i| format!("n{i}"))
            .filter(|n| slots.contains(&memo_slot(n.as_bytes())))
            .take(10_000)
            .collect();
        assert_eq!(pool.len(), 10_000);
        let mut xml = String::from("<site>");
        let mut want = vec![(NodeKind::Element, "site")];
        for i in (0..pool.len()).chain((0..pool.len()).rev()) {
            let (el, at) = (&pool[i], &pool[(i * 7 + 3) % pool.len()]);
            xml.push_str(&format!("<{el} {at}='v'/>"));
            want.extend([(NodeKind::Element, el.as_str()), (NodeKind::Attribute, at.as_str())]);
        }
        xml.push_str("</site>");
        let mut s = Store::new();
        let d = parse_document(&mut s, &xml, None).unwrap();
        let doc = s.doc(d);
        let mut plain = NameTable::new();
        let got: Vec<(NodeKind, &str)> =
            (1..doc.len() as u32).map(|i| (doc.kind(i), s.names.resolve(doc.name(i)))).collect();
        assert_eq!(got, want);
        for (i, (_, name)) in want.iter().enumerate() {
            assert_eq!(doc.name(i as u32 + 1), plain.intern(name), "node {}: {name}", i + 1);
        }
        assert_eq!(s.names.len(), plain.len());
    }

    /// The check costs O(1) per attribute: a start tag with 200 000
    /// distinct attributes parses in well under two seconds unoptimized.
    #[test]
    fn wide_start_tags_parse_in_linear_time() {
        let mut xml = String::from("<a");
        for i in 0..200_000 {
            xml.push_str(&format!(" a{i}='{i}'"));
        }
        xml.push_str("/>");
        let start = std::time::Instant::now();
        let mut s = Store::new();
        let d = parse_document(&mut s, &xml, None).unwrap();
        assert_eq!(s.doc(d).len(), 200_002);
        assert!(start.elapsed() < std::time::Duration::from_secs(2), "{:?}", start.elapsed());
    }
}
