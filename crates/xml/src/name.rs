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

    #[test]
    fn get_does_not_intern() {
        let mut t = NameTable::new();
        assert_eq!(t.get("x"), None);
        let id = t.intern("x");
        assert_eq!(t.get("x"), Some(id));
    }
}
