//! Interned element/attribute names.
//!
//! All documents in a [`crate::Store`] share one `NameTable`, so a node test
//! (`child::person`) is a single integer comparison regardless of which
//! document the context node lives in.
//!
//! The table keeps `HashMap`'s default, keyed SipHash on purpose. The
//! shredder interns every element and attribute name of every message a
//! daemon receives, so the keys come from hostile wire input: a fast
//! unkeyed hasher would let a peer pick names that all collide and make
//! each lookup linear. Do not swap it for a faster one.
//!
//! What keeps SipHash off the shredder's per-node path is a `NameMemo`
//! in front of the table: each [`crate::DocBuilder`] holds one, a small
//! direct-mapped array of recently interned ids indexed by a cheap,
//! unkeyed hash of the name's bytes. A hit is confirmed by an exact byte
//! compare against the table's own copy of the name, so a colliding or
//! hostile name only misses — it overwrites the slot and pays the keyed
//! lookup it pays without the memo — and can never be given a wrong id.

use std::collections::HashMap;

/// Identifier of an interned QName. `NameId(0)` is reserved for the empty
/// name (document nodes, text nodes, comments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(pub u32);

impl NameId {
    /// The reserved "no name" id used by nameless node kinds.
    pub const NONE: NameId = NameId(0);
}

/// Bidirectional string interner for QNames.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    names: Vec<Box<str>>,
    index: HashMap<Box<str>, NameId>,
}

impl NameTable {
    /// Creates a table with the reserved empty name pre-interned.
    pub fn new() -> Self {
        let mut t = NameTable { names: Vec::new(), index: HashMap::new() };
        let id = t.intern("");
        debug_assert_eq!(id, NameId::NONE);
        t
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.index.insert(boxed, id);
        id
    }

    /// Looks up a name without interning it.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.index.get(name).copied()
    }

    /// Resolves an id back to its string.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned names (including the reserved empty name).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when only the reserved empty name is present.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }
}

/// Slots in a [`NameMemo`]: a document's vocabulary (the XMark pair of
/// `bulk_ship` uses 52 names) mostly fits without evicting itself.
const MEMO_SLOTS: usize = 256;

/// A marker for an empty memo slot: no table holds `u32::MAX` names.
const MEMO_EMPTY: u32 = u32::MAX;

/// A fixed-size, direct-mapped memo of interned ids in front of one
/// [`NameTable`] (see the module doc). It only ever caches what the table
/// returned, so interning through it gives the ids the table gives.
#[derive(Debug, Clone)]
pub(crate) struct NameMemo {
    slots: [u32; MEMO_SLOTS],
}

impl Default for NameMemo {
    fn default() -> Self {
        NameMemo { slots: [MEMO_EMPTY; MEMO_SLOTS] }
    }
}

impl NameMemo {
    /// [`NameTable::intern`] of `name` into `table`, answered from the memo
    /// when its slot holds exactly `name`.
    pub(crate) fn intern(&mut self, table: &mut NameTable, name: &str) -> NameId {
        let slot = &mut self.slots[memo_slot(name.as_bytes())];
        if *slot != MEMO_EMPTY && table.resolve(NameId(*slot)) == name {
            return NameId(*slot);
        }
        let id = table.intern(name);
        *slot = id.0;
        id
    }
}

/// The memo slot of a name: its length and its first, middle and last
/// bytes, mixed by one multiply. Unkeyed and cheap on purpose — the exact
/// compare behind it makes a collision a miss, not a wrong id.
pub(crate) fn memo_slot(name: &[u8]) -> usize {
    let n = name.len();
    let (first, last) = match name {
        [] => (0, 0),
        [a, .., z] => (*a, *z),
        [a] => (*a, *a),
    };
    let mid = if n > 2 { name[n / 2] } else { 0 };
    let mixed = (u32::from(first) | u32::from(mid) << 8 | u32::from(last) << 16 | (n as u32) << 24)
        .wrapping_mul(0x9E37_79B9);
    (mixed >> (32 - MEMO_SLOTS.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = NameTable::new();
        let a = t.intern("person");
        let b = t.intern("person");
        assert_eq!(a, b);
        assert_eq!(t.resolve(a), "person");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut t = NameTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "a");
        assert_eq!(t.resolve(b), "b");
    }

    #[test]
    fn empty_name_is_reserved() {
        let mut t = NameTable::new();
        assert_eq!(t.intern(""), NameId::NONE);
        assert_eq!(t.resolve(NameId::NONE), "");
    }

    /// Names that share a memo slot evict each other and still get the
    /// table's ids, in any order and repeated.
    #[test]
    fn memo_gives_the_tables_ids_under_collisions() {
        let slot = memo_slot(b"n0");
        let colliding: Vec<String> = (0..20_000)
            .map(|i| format!("n{i}"))
            .filter(|n| memo_slot(n.as_bytes()) == slot)
            .take(8)
            .collect();
        assert!(colliding.len() >= 4, "few collisions among 20 000 names");
        let (mut memo, mut memoized, mut plain) = (NameMemo::default(), NameTable::new(), NameTable::new());
        for round in 0..3 {
            for name in colliding.iter().map(String::as_str).chain(["person", "", "person"]) {
                let id = memo.intern(&mut memoized, name);
                assert_eq!(id, plain.intern(name), "{name} in round {round}");
                assert_eq!(memoized.resolve(id), name);
            }
        }
        assert_eq!(memoized.len(), plain.len());
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = NameTable::new();
        assert_eq!(t.get("x"), None);
        let id = t.intern("x");
        assert_eq!(t.get("x"), Some(id));
    }
}
