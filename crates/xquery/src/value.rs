//! XDM values: items, sequences, atomization, effective boolean value,
//! comparison semantics and `fn:deep-equal`.

use std::borrow::{Borrow, Cow};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use xqd_xml::{NodeId, NodeKind, Store};

use crate::ast::{Atomic, CompOp};

/// One XDM item: a node reference or an atomic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Node(NodeId),
    Atom(Atomic),
}

/// An XDM sequence. Flat by construction (nesting is impossible in XDM).
///
/// Backed by an `Arc<Vec<Item>>` so that variable lookups, FLWOR bindings
/// and scatter-round request building share one allocation instead of
/// deep-cloning item vectors; `Arc` rather than `Rc` because bound sequences
/// cross threads in the parallel Bulk-RPC executor. Sequences are
/// copy-on-write: construction sites build a plain `Vec<Item>` and convert
/// once via `From`, and the rare mutating consumers go through
/// [`Sequence::to_vec`] / [`Sequence::into_vec`]. The one in-place write,
/// [`Sequence::set_unit`], happens only on a handle nothing else shares.
#[derive(Clone, Default)]
pub struct Sequence(Arc<Vec<Item>>);

impl Sequence {
    /// The empty sequence `()`.
    pub fn new() -> Self {
        Sequence::default()
    }

    /// A singleton sequence.
    pub fn unit(item: Item) -> Self {
        Sequence(Arc::new(vec![item]))
    }

    /// The singleton `true` or `false`: a handle on one of two sequences
    /// kept per thread, so a comparison's result costs a reference count,
    /// not an allocation (and no count is shared between threads).
    pub fn boolean(b: bool) -> Self {
        thread_local! {
            static BOOLEANS: [Sequence; 2] =
                [false, true].map(|b| Sequence::unit(Item::Atom(Atomic::Bool(b))));
        }
        BOOLEANS.with(|both| both[usize::from(b)].clone())
    }

    pub fn as_slice(&self) -> &[Item] {
        &self.0
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.0.iter()
    }

    /// Is `other` a handle on this very allocation? Sequences are immutable,
    /// so two handles on one allocation hold the same items for good.
    pub(crate) fn same_allocation(&self, other: &Sequence) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Rebinds this handle to the singleton `item`. When no other handle
    /// shares the allocation it is overwritten in place — a FLWOR slot
    /// rebinding per item pays nothing — otherwise a fresh one is made, so
    /// a holder of the old handle (a memo key) still sees the old items.
    pub fn set_unit(&mut self, item: Item) {
        match Arc::get_mut(&mut self.0) {
            Some(items) => {
                items.clear();
                items.push(item);
            }
            None => *self = Sequence::unit(item),
        }
    }

    /// Appends the items to `out`: moved when this is the only handle,
    /// cloned one by one when shared — never a copy of the whole `Vec`
    /// first, which is what consuming a shared handle by value costs.
    pub fn append_to(self, out: &mut Vec<Item>) {
        match Arc::try_unwrap(self.0) {
            Ok(mut items) => out.append(&mut items),
            Err(shared) => out.extend(shared.iter().cloned()),
        }
    }

    /// Owned copy of the items (always clones).
    pub fn to_vec(&self) -> Vec<Item> {
        self.0.as_ref().clone()
    }

    /// Owned items; reuses the allocation when this is the only handle.
    pub fn into_vec(self) -> Vec<Item> {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| shared.as_ref().clone())
    }
}

// Debug matches `Vec<Item>` so diagnostics and doctest expectations read as
// the plain item list.
impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl std::ops::Deref for Sequence {
    type Target = [Item];

    fn deref(&self) -> &[Item] {
        &self.0
    }
}

impl From<Vec<Item>> for Sequence {
    fn from(items: Vec<Item>) -> Self {
        Sequence(Arc::new(items))
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        Sequence(Arc::new(iter.into_iter().collect()))
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    type IntoIter = std::vec::IntoIter<Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Sequence {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Sequence {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<Item>> for Sequence {
    fn eq(&self, other: &Vec<Item>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Sequence> for Vec<Item> {
    fn eq(&self, other: &Sequence) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Item]> for Sequence {
    fn eq(&self, other: &[Item]) -> bool {
        self.as_slice() == other
    }
}

/// Evaluation errors (dynamic errors per XQuery, with err:-style codes
/// collapsed into a message).
///
/// `code` is an optional machine-readable error code. Plain dynamic errors
/// carry `None`; the XRPC layer tags transport failures with `xrpc:*` codes
/// so typed failure semantics survive the `EvalResult` plumbing between the
/// evaluator and the distributed executor (the `xquery` crate cannot depend
/// on `xqd-xrpc`, so the taxonomy itself lives there and round-trips
/// through this field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    pub message: String,
    pub code: Option<String>,
}

impl EvalError {
    pub fn new(msg: impl Into<String>) -> Self {
        EvalError { message: msg.into(), code: None }
    }

    /// An error with a machine-readable code (e.g. `xrpc:timeout`).
    pub fn with_code(code: impl Into<String>, msg: impl Into<String>) -> Self {
        EvalError { message: msg.into(), code: Some(code.into()) }
    }

    /// True if the error carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.code.as_deref() == Some(code)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.code {
            Some(c) => write!(f, "evaluation error [{c}]: {}", self.message),
            None => write!(f, "evaluation error: {}", self.message),
        }
    }
}

impl std::error::Error for EvalError {}

pub type EvalResult<T = Sequence> = Result<T, EvalError>;

/// Atomizes one item (node → untyped atomic of its string value).
pub fn atomize_item(store: &Store, item: &Item) -> Atomic {
    match item {
        Item::Atom(a) => a.clone(),
        Item::Node(n) => Atomic::Untyped(store.doc(n.doc).string_value(n.idx)),
    }
}

/// Atomizes a sequence.
pub fn atomize(store: &Store, seq: &[Item]) -> Vec<Atomic> {
    seq.iter().map(|i| atomize_item(store, i)).collect()
}

/// String value of one item (`fn:string`).
pub fn string_value(store: &Store, item: &Item) -> String {
    match item {
        Item::Atom(a) => a.to_lexical(),
        Item::Node(n) => store.doc(n.doc).string_value(n.idx),
    }
}

/// Numeric promotion of an atomic, if possible.
pub fn to_number(a: &Atomic) -> Option<f64> {
    match a {
        Atomic::Int(i) => Some(*i as f64),
        Atomic::Dbl(d) => Some(*d),
        Atomic::Str(s) | Atomic::Untyped(s) => parse_xs_double(s),
        Atomic::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
    }
}

/// Casts a string to `xs:double`: surrounding whitespace is dropped, then
/// the text must be in the XSD lexical space — the decimal / exponent forms,
/// `INF`, `+INF`, `-INF` or `NaN`. Rust's `f64` grammar is exactly those
/// decimal forms plus `inf` / `infinity` / `nan` in any case, every one of
/// which holds a letter other than `e`, so a text of digits, signs, `.`
/// and `e`/`E` is handed to it and anything else is refused.
pub fn parse_xs_double(s: &str) -> Option<f64> {
    let s = s.trim();
    match s {
        "INF" | "+INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ if s.bytes().all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b)) => s.parse().ok(),
        _ => None,
    }
}

fn cannot_cast_to_number(a: &Atomic) -> EvalError {
    EvalError::new(format!("cannot cast {a:?} to number"))
}

/// Effective boolean value (XPath 2.0 §2.4.3).
pub fn effective_boolean_value(seq: &[Item]) -> EvalResult<bool> {
    match seq {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atom(a)] => Ok(match a {
            Atomic::Bool(b) => *b,
            Atomic::Str(s) | Atomic::Untyped(s) => !s.is_empty(),
            Atomic::Int(i) => *i != 0,
            Atomic::Dbl(d) => *d != 0.0 && !d.is_nan(),
        }),
        _ => Err(EvalError::new("effective boolean value of a multi-atom sequence")),
    }
}

/// Compares two atomics under general-comparison casting rules:
/// untyped vs numeric → numeric, untyped vs string/untyped → string,
/// untyped vs boolean → boolean.
pub fn compare_atomics(op: CompOp, l: &Atomic, r: &Atomic) -> EvalResult<bool> {
    use Atomic::*;
    let ord = match (l, r) {
        (Int(a), Int(b)) => a.partial_cmp(b),
        (Int(_) | Dbl(_), Int(_) | Dbl(_)) => {
            to_number(l).unwrap().partial_cmp(&to_number(r).unwrap())
        }
        (Untyped(_), Int(_) | Dbl(_)) | (Int(_) | Dbl(_), Untyped(_)) => {
            let a = to_number(l).ok_or_else(|| cannot_cast_to_number(l))?;
            let b = to_number(r).ok_or_else(|| cannot_cast_to_number(r))?;
            a.partial_cmp(&b)
        }
        (Bool(a), Bool(b)) => a.partial_cmp(b),
        (Untyped(s), Bool(b)) | (Bool(b), Untyped(s)) => {
            let parsed = match s.trim() {
                "true" | "1" => true,
                "false" | "0" => false,
                _ => return Err(EvalError::new(format!("cannot cast {s:?} to boolean"))),
            };
            if matches!(l, Bool(_)) {
                b.partial_cmp(&parsed)
            } else {
                parsed.partial_cmp(b)
            }
        }
        (Str(a) | Untyped(a), Str(b) | Untyped(b)) => a.partial_cmp(b),
        (Str(_), Int(_) | Dbl(_)) | (Int(_) | Dbl(_), Str(_)) => {
            return Err(EvalError::new("cannot compare xs:string with a number"))
        }
        (Str(_), Bool(_)) | (Bool(_), Str(_)) => {
            return Err(EvalError::new("cannot compare xs:string with xs:boolean"))
        }
        (Bool(_), Int(_) | Dbl(_)) | (Int(_) | Dbl(_), Bool(_)) => {
            return Err(EvalError::new("cannot compare xs:boolean with a number"))
        }
    };
    Ok(holds(op, ord))
}

/// Whether `op` holds for an operand pair that orders as `ord`; `None` is
/// an unordered (NaN) pair, for which every comparison is false.
fn holds(op: CompOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    let Some(ord) = ord else {
        return false;
    };
    match op {
        CompOp::Eq => ord == Equal,
        CompOp::Ne => ord != Equal,
        CompOp::Lt => ord == Less,
        CompOp::Le => ord != Greater,
        CompOp::Gt => ord == Greater,
        CompOp::Ge => ord != Less,
    }
}

/// `compare_atomics` of `item` atomized against the atom `b`, `item` on the
/// left when `item_is_lhs`. A node against a number reads the node's string
/// value where it lies when it is one span of the text arena and casts it
/// with [`parse_xs_double`], as `to_number` would the atomized copy; only
/// a failed cast builds the copy, for the error text.
fn compare_item_atom(
    store: &Store,
    op: CompOp,
    item: &Item,
    b: &Atomic,
    item_is_lhs: bool,
) -> EvalResult<bool> {
    if let (Item::Node(n), Atomic::Int(_) | Atomic::Dbl(_)) = (item, b) {
        if let Some(text) = store.doc(n.doc).string_value_span(n.idx) {
            let a = parse_xs_double(text)
                .ok_or_else(|| cannot_cast_to_number(&Atomic::Untyped(text.to_string())))?;
            let b = to_number(b).expect("a numeric atom");
            return Ok(holds(op, if item_is_lhs { a.partial_cmp(&b) } else { b.partial_cmp(&a) }));
        }
    }
    let a = atom_of(store, item);
    if item_is_lhs {
        compare_atomics(op, &a, b)
    } else {
        compare_atomics(op, b, &a)
    }
}

/// Atomizes one item without copying what is already an atom: an atom is
/// lent, only a node's string value is built.
fn atom_of<'a>(store: &Store, item: &'a Item) -> Cow<'a, Atomic> {
    match item {
        Item::Atom(a) => Cow::Borrowed(a),
        Item::Node(_) => Cow::Owned(atomize_item(store, item)),
    }
}

fn is_stringy(a: &Atomic) -> Option<&str> {
    match a {
        Atomic::Str(s) | Atomic::Untyped(s) => Some(s),
        _ => None,
    }
}

/// The one place that orders the pairs of a general comparison: left atoms
/// outermost, right atoms innermost, stopping at the first hit or the first
/// cast error. The left side is an iterator so a hit stops its atomization.
fn any_pair<'a, R: Borrow<Atomic>>(
    op: CompOp,
    lhs: impl Iterator<Item = Cow<'a, Atomic>>,
    rhs: &[R],
) -> EvalResult<bool> {
    for a in lhs {
        for b in rhs {
            if compare_atomics(op, &a, b.borrow())? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

/// General comparison: existential over the atomized operand sequences.
pub fn general_compare(
    store: &Store,
    op: CompOp,
    lhs: &[Item],
    rhs: &[Item],
) -> EvalResult<bool> {
    if lhs.is_empty() {
        return Ok(false);
    }
    // a single-item side is atomized at most once and held without a `Vec`
    match (lhs, rhs) {
        (_, [Item::Atom(b)]) => {
            for a in lhs {
                if compare_item_atom(store, op, a, b, true)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        ([Item::Atom(a)], [b]) => compare_item_atom(store, op, b, a, false),
        (_, [b]) => {
            let b = atom_of(store, b);
            any_pair(op, lhs.iter().map(|i| atom_of(store, i)), std::slice::from_ref(&b))
        }
        _ => {
            let r: Vec<Cow<'_, Atomic>> = rhs.iter().map(|i| atom_of(store, i)).collect();
            any_pair(op, lhs.iter().map(|i| atom_of(store, i)), &r)
        }
    }
}

/// One operand of a general comparison, evaluated and atomized once so that
/// later evaluations of the comparison atomize only the other side. When
/// every atom is `Str`/`Untyped` it also holds their strings as a hash set:
/// `=` against an all-string other side is then string equality — no cast,
/// cannot raise — and a probe answers it. Every other case runs
/// [`any_pair`] over the kept atoms, so the first hit and the first cast
/// error are [`general_compare`]'s.
pub(crate) struct ProbeTable {
    operand: Sequence,
    atoms: Vec<Atomic>,
    strings: Option<HashSet<String>>,
}

impl ProbeTable {
    pub(crate) fn build(store: &Store, operand: Sequence) -> ProbeTable {
        let atoms = atomize(store, &operand);
        let strings = atoms.iter().map(|a| is_stringy(a).map(str::to_string)).collect();
        ProbeTable { operand, atoms, strings }
    }

    /// The sequence the table was built from.
    pub(crate) fn operand(&self) -> &[Item] {
        &self.operand
    }

    /// `general_compare(store, op, table, other)` when `table_is_lhs`, else
    /// `general_compare(store, op, other, table)`.
    pub(crate) fn compare(
        &self,
        store: &Store,
        op: CompOp,
        table_is_lhs: bool,
        other: &[Item],
    ) -> EvalResult<bool> {
        let strings = if op == CompOp::Eq { self.strings.as_ref() } else { None };
        if table_is_lhs {
            // the table is the outer loop: the hash path needs the whole
            // inner side to be strings, or an earlier table atom could have
            // raised against a later non-string one
            let r: Vec<Cow<'_, Atomic>> = other.iter().map(|i| atom_of(store, i)).collect();
            if let Some(set) = strings {
                if let Some(r) = r.iter().map(|b| is_stringy(b)).collect::<Option<Vec<&str>>>() {
                    return Ok(r.iter().any(|s| set.contains(*s)));
                }
            }
            return any_pair(op, self.atoms.iter().map(Cow::Borrowed), &r);
        }
        // the table is the inner loop: each outer atom is on its own, a
        // string one probes, any other one walks the atoms in order
        for item in other {
            let a = atom_of(store, item);
            let hit = match (strings, is_stringy(&a)) {
                (Some(set), Some(s)) => set.contains(s),
                _ => any_pair(op, std::iter::once(a), &self.atoms)?,
            };
            if hit {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Sorts a node sequence into document order and removes duplicates.
/// Errors if the sequence contains atomic items. Operates on the plain item
/// vector: builders sort before converting into a shared [`Sequence`].
pub fn sort_document_order(seq: &mut Vec<Item>) -> EvalResult<()> {
    for item in seq.iter() {
        if matches!(item, Item::Atom(_)) {
            return Err(EvalError::new("document-order sort of a non-node sequence"));
        }
    }
    seq.sort_by_key(|i| match i {
        Item::Node(n) => *n,
        Item::Atom(_) => unreachable!(),
    });
    seq.dedup();
    Ok(())
}

/// `fn:deep-equal` over two sequences (default collation, no NaN-equals
/// subtleties: our atomics compare with general `Eq` semantics).
pub fn deep_equal(store: &Store, lhs: &[Item], rhs: &[Item]) -> bool {
    if lhs.len() != rhs.len() {
        return false;
    }
    lhs.iter().zip(rhs).all(|(l, r)| deep_equal_item(store, l, r))
}

fn deep_equal_item(store: &Store, l: &Item, r: &Item) -> bool {
    match (l, r) {
        (Item::Atom(a), Item::Atom(b)) => {
            compare_atomics(CompOp::Eq, a, b).unwrap_or(false)
        }
        (Item::Node(a), Item::Node(b)) => deep_equal_node(store, *a, *b),
        _ => false,
    }
}

fn deep_equal_node(store: &Store, a: NodeId, b: NodeId) -> bool {
    let da = store.doc(a.doc);
    let db = store.doc(b.doc);
    let (ka, kb) = (da.kind(a.idx), db.kind(b.idx));
    if ka != kb {
        return false;
    }
    match ka {
        NodeKind::Text | NodeKind::Comment => da.value(a.idx) == db.value(b.idx),
        NodeKind::Pi => da.name(a.idx) == db.name(b.idx) && da.value(a.idx) == db.value(b.idx),
        NodeKind::Attribute => {
            store.names.resolve(da.name(a.idx)) == store.names.resolve(db.name(b.idx))
                && da.value(a.idx) == db.value(b.idx)
        }
        NodeKind::Element => {
            if store.names.resolve(da.name(a.idx)) != store.names.resolve(db.name(b.idx)) {
                return false;
            }
            // attribute sets must match (order-insensitive)
            let attrs_a: Vec<(String, String)> = da
                .attributes(a.idx)
                .map(|x| {
                    (
                        store.names.resolve(da.name(x)).to_string(),
                        da.value(x).unwrap_or("").to_string(),
                    )
                })
                .collect();
            let attrs_b: Vec<(String, String)> = db
                .attributes(b.idx)
                .map(|x| {
                    (
                        store.names.resolve(db.name(x)).to_string(),
                        db.value(x).unwrap_or("").to_string(),
                    )
                })
                .collect();
            if attrs_a.len() != attrs_b.len() {
                return false;
            }
            for pair in &attrs_a {
                if !attrs_b.contains(pair) {
                    return false;
                }
            }
            deep_equal_children(store, a, b)
        }
        NodeKind::Document => deep_equal_children(store, a, b),
    }
}

fn deep_equal_children(store: &Store, a: NodeId, b: NodeId) -> bool {
    // comparable children: elements and text (XQuery F&O deep-equal ignores
    // comments and PIs)
    let da = store.doc(a.doc);
    let db = store.doc(b.doc);
    let ca: Vec<u32> = da
        .children(a.idx)
        .filter(|&c| matches!(da.kind(c), NodeKind::Element | NodeKind::Text))
        .collect();
    let cb: Vec<u32> = db
        .children(b.idx)
        .filter(|&c| matches!(db.kind(c), NodeKind::Element | NodeKind::Text))
        .collect();
    if ca.len() != cb.len() {
        return false;
    }
    ca.iter().zip(&cb).all(|(&x, &y)| {
        deep_equal_node(store, NodeId::new(a.doc, x), NodeId::new(b.doc, y))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xml::parse_document;

    #[test]
    fn ebv_rules() {
        assert!(!effective_boolean_value(&[]).unwrap());
        assert!(effective_boolean_value(&[Item::Atom(Atomic::Bool(true))]).unwrap());
        assert!(!effective_boolean_value(&[Item::Atom(Atomic::Str("".into()))]).unwrap());
        assert!(effective_boolean_value(&[Item::Atom(Atomic::Str("x".into()))]).unwrap());
        assert!(!effective_boolean_value(&[Item::Atom(Atomic::Int(0))]).unwrap());
        assert!(effective_boolean_value(&[Item::Atom(Atomic::Dbl(0.5))]).unwrap());
        assert!(effective_boolean_value(&[
            Item::Atom(Atomic::Int(1)),
            Item::Atom(Atomic::Int(2))
        ])
        .is_err());
    }

    #[test]
    fn untyped_casting_in_comparisons() {
        // untyped vs number → numeric
        assert!(compare_atomics(CompOp::Lt, &Atomic::Untyped("39".into()), &Atomic::Int(40))
            .unwrap());
        assert!(!compare_atomics(CompOp::Lt, &Atomic::Untyped("41".into()), &Atomic::Int(40))
            .unwrap());
        // untyped vs untyped → string
        assert!(compare_atomics(
            CompOp::Eq,
            &Atomic::Untyped("abc".into()),
            &Atomic::Untyped("abc".into())
        )
        .unwrap());
        // "10" < "9" as strings
        assert!(compare_atomics(
            CompOp::Lt,
            &Atomic::Untyped("10".into()),
            &Atomic::Untyped("9".into())
        )
        .unwrap());
        // string vs number is a type error
        assert!(compare_atomics(CompOp::Eq, &Atomic::Str("1".into()), &Atomic::Int(1)).is_err());
    }

    #[test]
    fn general_comparison_is_existential() {
        let store = Store::new();
        let lhs = vec![Item::Atom(Atomic::Int(1)), Item::Atom(Atomic::Int(5))];
        let rhs = vec![Item::Atom(Atomic::Int(5))];
        assert!(general_compare(&store, CompOp::Eq, &lhs, &rhs).unwrap());
        assert!(general_compare(&store, CompOp::Lt, &lhs, &rhs).unwrap());
        assert!(!general_compare(&store, CompOp::Gt, &lhs, &rhs).unwrap());
        assert!(!general_compare(&store, CompOp::Eq, &[], &rhs).unwrap());
    }

    /// The in-place node-against-number route is the route it skips: for
    /// every node of a fixture (spans, concatenations, casts that fail,
    /// overflow, a comment-only element, an attribute), every operator and a
    /// number on either side, the result or error text is
    /// `compare_atomics` over the atomized node.
    #[test]
    fn node_against_number_equals_atomize_then_compare() {
        let mut store = Store::new();
        let xml = "<r><e/><v> 7 </v><v>NaN</v><v>INF</v><v>1e400</v><v>-0</v><v>inf</v>\
                   <b>1<c/>2</b><k><!--9--></k><w a=\"3\"/></r>";
        let d = parse_document(&mut store, xml, None).unwrap();
        let numbers = [
            Atomic::Int(7),
            Atomic::Int(0),
            Atomic::Int(12),
            Atomic::Dbl(7.0),
            Atomic::Dbl(f64::INFINITY),
            Atomic::Dbl(f64::NAN),
            Atomic::Dbl(-0.0),
        ];
        let ops = [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];
        let (mut hits, mut errors) = (0, 0);
        for idx in 0..store.doc(d).len() as u32 {
            let node = Item::Node(NodeId::new(d, idx));
            let atom = atomize_item(&store, &node);
            for num in &numbers {
                for op in ops {
                    let (node, num) = (std::slice::from_ref(&node), [Item::Atom(num.clone())]);
                    let Item::Atom(n) = &num[0] else { unreachable!() };
                    for node_is_lhs in [true, false] {
                        let (want, got) = if node_is_lhs {
                            (compare_atomics(op, &atom, n), general_compare(&store, op, node, &num))
                        } else {
                            (compare_atomics(op, n, &atom), general_compare(&store, op, &num, node))
                        };
                        assert_eq!(got, want, "{atom:?} {op:?} {n:?}, node lhs {node_is_lhs}");
                        let inner = compare_item_atom(&store, op, &node[0], n, node_is_lhs);
                        assert_eq!(inner, want);
                        hits += usize::from(got == Ok(true));
                        errors += usize::from(got.is_err());
                    }
                }
            }
        }
        assert!(hits > 50 && errors > 50, "{hits} {errors}");
    }

    #[test]
    fn xs_double_lexical_space() {
        for (text, want) in [
            ("1", Some(1.0)),
            (" -1.5e2 ", Some(-150.0)),
            (".5", Some(0.5)),
            ("5.", Some(5.0)),
            ("+7E-1", Some(0.7)),
            ("INF", Some(f64::INFINITY)),
            ("+INF", Some(f64::INFINITY)),
            ("-INF", Some(f64::NEG_INFINITY)),
        ] {
            assert_eq!(parse_xs_double(text), want, "{text:?}");
        }
        assert!(parse_xs_double("NaN").unwrap().is_nan());
        for text in ["", " ", "inf", "Infinity", "infinity", "-inf", "nan", "NAN", "-NaN", "e5", ".",
            "1e", "0x10", "1_000", "abc"]
        {
            assert_eq!(parse_xs_double(text), None, "{text:?}");
        }
    }

    /// The probe is the nested loop, errors included: for every operand
    /// pair, op, and choice of memoised side, `ProbeTable::compare` returns
    /// exactly what `general_compare` returns — `Ok` value or `Err` message.
    #[test]
    fn probe_table_equals_general_compare() {
        const TEXTS: [&str; 9] = ["7", "07", " 7 ", "true", "", "x", "1", "0", "7.0"];
        let mut store = Store::new();
        let xml: String = TEXTS.iter().map(|t| format!("<v>{t}</v>")).collect();
        let d = parse_document(&mut store, &format!("<r>{xml}</r>"), None).unwrap();
        let nodes: Vec<Item> = {
            let doc = store.doc(d);
            doc.children(1).map(|c| Item::Node(NodeId::new(d, c))).collect()
        };
        assert_eq!(nodes.len(), TEXTS.len());
        let text = |rng: &mut xqd_prng::Rng| TEXTS[rng.gen_range_usize(0..TEXTS.len())].to_string();
        let item = |rng: &mut xqd_prng::Rng, kinds: u64| match rng.gen_range(0..kinds) {
            0 => Item::Atom(Atomic::Str(text(rng))),
            1 => Item::Atom(Atomic::Untyped(text(rng))),
            2 => nodes[rng.gen_range_usize(0..nodes.len())].clone(),
            3 => Item::Atom(Atomic::Int(rng.gen_range(0..9) as i64 - 1)),
            4 => Item::Atom(Atomic::Dbl(rng.choose(&[f64::NAN, -0.0, 0.0, 7.0, 1.5]))),
            _ => Item::Atom(Atomic::Bool(rng.gen_bool(0.5))),
        };
        let ops = [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];
        let mut rng = xqd_prng::Rng::seed_from_u64(20);
        let (mut hits, mut errors, mut hashed) = (0, 0, 0);
        for _ in 0..6000 {
            // half the operands are string-only, so the hash path is taken
            // often; the other half mix every type, so it must be refused
            let operand = |rng: &mut xqd_prng::Rng| -> Vec<Item> {
                let kinds = if rng.gen_bool(0.5) { 3 } else { 6 };
                (0..rng.gen_range_usize(0..13)).map(|_| item(rng, kinds)).collect()
            };
            let (l, r) = (operand(&mut rng), operand(&mut rng));
            let (lt, rt) = (
                ProbeTable::build(&store, l.clone().into()),
                ProbeTable::build(&store, r.clone().into()),
            );
            hashed += usize::from(lt.strings.is_some() && rt.strings.is_some());
            for op in ops {
                let want = general_compare(&store, op, &l, &r);
                assert_eq!(lt.compare(&store, op, true, &r), want, "{l:?} {op:?} {r:?}, lhs memo");
                assert_eq!(rt.compare(&store, op, false, &l), want, "{l:?} {op:?} {r:?}, rhs memo");
                hits += usize::from(want == Ok(true));
                errors += usize::from(want.is_err());
            }
        }
        // the generator reaches every outcome, not one corner of the space
        assert!(hits > 1000 && errors > 1000 && hashed > 1000, "{hits} {errors} {hashed}");
    }

    /// A table holding a number is not a string table: `"07" = 7` stays
    /// numeric (true) and `"07" = "7"` stays textual (false).
    #[test]
    fn probe_table_never_hashes_a_mixed_operand() {
        let store = Store::new();
        let untyped = |s: &str| Item::Atom(Atomic::Untyped(s.into()));
        let seven = Item::Atom(Atomic::Int(7));
        let mixed = ProbeTable::build(&store, vec![untyped("x"), seven.clone()].into());
        assert!(mixed.strings.is_none());
        // "x" = "07" is false, then 7 = "07" casts: numeric equality
        assert_eq!(mixed.compare(&store, CompOp::Eq, true, &[untyped("07")]), Ok(true));
        let strings = ProbeTable::build(&store, vec![untyped("07")].into());
        assert!(strings.strings.is_some());
        let seven = [seven];
        assert_eq!(strings.compare(&store, CompOp::Eq, false, &seven), Ok(true));
        assert_eq!(strings.compare(&store, CompOp::Eq, true, &seven), Ok(true));
        assert_eq!(strings.compare(&store, CompOp::Eq, false, &[untyped("7")]), Ok(false));
        assert_eq!(strings.compare(&store, CompOp::Eq, true, &[untyped("7")]), Ok(false));
    }

    #[test]
    fn deep_equal_structural() {
        let mut s = Store::new();
        let d1 = parse_document(&mut s, "<a x=\"1\" y=\"2\"><b>t</b></a>", None).unwrap();
        let d2 = parse_document(&mut s, "<a y=\"2\" x=\"1\"><b>t</b></a>", None).unwrap();
        let d3 = parse_document(&mut s, "<a x=\"1\"><b>t</b></a>", None).unwrap();
        let n1 = Item::Node(NodeId::new(d1, 1));
        let n2 = Item::Node(NodeId::new(d2, 1));
        let n3 = Item::Node(NodeId::new(d3, 1));
        assert!(deep_equal(&s, std::slice::from_ref(&n1), std::slice::from_ref(&n2)));
        assert!(!deep_equal(&s, std::slice::from_ref(&n1), std::slice::from_ref(&n3)));
        assert!(!deep_equal(&s, std::slice::from_ref(&n1), &[n1.clone(), n2.clone()]));
    }

    #[test]
    fn deep_equal_ignores_comments() {
        let mut s = Store::new();
        let d1 = parse_document(&mut s, "<a><!--x--><b/></a>", None).unwrap();
        let d2 = parse_document(&mut s, "<a><b/></a>", None).unwrap();
        assert!(deep_equal(
            &s,
            &[Item::Node(NodeId::new(d1, 1))],
            &[Item::Node(NodeId::new(d2, 1))]
        ));
    }

    #[test]
    fn deep_equal_atom_vs_node_is_false() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a>1</a>", None).unwrap();
        assert!(!deep_equal(
            &s,
            &[Item::Node(NodeId::new(d, 1))],
            &[Item::Atom(Atomic::Int(1))]
        ));
    }

    #[test]
    fn sort_document_order_dedups() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><b/><c/></a>", None).unwrap();
        let mut seq = vec![
            Item::Node(NodeId::new(d, 3)),
            Item::Node(NodeId::new(d, 2)),
            Item::Node(NodeId::new(d, 3)),
        ];
        sort_document_order(&mut seq).unwrap();
        assert_eq!(seq, vec![Item::Node(NodeId::new(d, 2)), Item::Node(NodeId::new(d, 3))]);
        let mut bad = vec![Item::Atom(Atomic::Int(1))];
        assert!(sort_document_order(&mut bad).is_err());
    }

    #[test]
    fn nan_comparisons_are_false() {
        assert!(!compare_atomics(CompOp::Eq, &Atomic::Dbl(f64::NAN), &Atomic::Dbl(1.0)).unwrap());
        assert!(!compare_atomics(CompOp::Lt, &Atomic::Dbl(f64::NAN), &Atomic::Dbl(1.0)).unwrap());
    }
}
