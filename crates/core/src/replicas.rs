//! Replica catalog: which peers serve a bit-identical copy of which
//! document.
//!
//! The paper assumes each `doc()` URI is served by exactly one live peer;
//! distributed XML design work (Abiteboul et al., the DXQ network
//! proposal) treats replicated placement and server selection as
//! first-class. This module supplies the placement half: a catalog mapping
//! each **canonical** document URI (`xrpc://primary/doc`) to the set of
//! alternate hosts holding a byte-identical copy, plus a deterministic
//! seeded ordering (rendezvous hashing) over a candidate set so replica
//! *selection* is a pure function of `(seed, host names)` — the property
//! the executor's failover ladder and the chaos suite's replay both build
//! on.
//!
//! Replicas are registered under the primary's canonical URI, never their
//! own: a copy of `xrpc://p/d.xml` living on host `q` is still *the*
//! document `xrpc://p/d.xml`. Decomposed call bodies therefore evaluate
//! unchanged on any replica, and responses stay bit-identical regardless
//! of which host answers (the wire codecs are content-based).

use std::collections::BTreeMap;

use crate::uris::split_xrpc_uri;

/// Document → replica-host placement map.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCatalog {
    /// Canonical `xrpc://primary/doc` URI → alternate hosts (registration
    /// order, primary excluded — it is implied by the URI).
    entries: BTreeMap<String, Vec<String>>,
    /// Peer name → transport address (`host:port`). Empty in simulated
    /// federations, where the name *is* the address; the socket transport
    /// dials through this book.
    addresses: BTreeMap<String, String>,
}

impl ReplicaCatalog {
    pub fn new() -> Self {
        ReplicaCatalog::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Records `host` as serving a bit-identical copy of the canonical
    /// `xrpc://primary/doc` URI. Registering the primary itself or a
    /// duplicate host is a no-op.
    pub fn register(&mut self, canonical_uri: &str, host: &str) {
        if let Some((primary, _)) = split_xrpc_uri(canonical_uri) {
            if primary == host {
                return;
            }
        }
        let hosts = self.entries.entry(canonical_uri.to_string()).or_default();
        if !hosts.iter().any(|h| h == host) {
            hosts.push(host.to_string());
        }
    }

    /// Every host serving `uri`: the primary (from the URI) first, then the
    /// registered replicas in registration order.
    pub fn hosts_for(&self, uri: &str) -> Vec<String> {
        let mut out = Vec::new();
        if let Some((primary, _)) = split_xrpc_uri(uri) {
            out.push(primary.to_string());
        }
        if let Some(replicas) = self.entries.get(uri) {
            out.extend(replicas.iter().cloned());
        }
        out
    }

    /// The registered replicas of `uri` (primary excluded).
    pub fn replicas_of(&self, uri: &str) -> &[String] {
        self.entries.get(uri).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Reverse lookup for plain-name resolution on a replica: the canonical
    /// URI of the document named `name` that `host` serves a copy of, if
    /// exactly determined. Iteration over the `BTreeMap` keeps the answer
    /// deterministic when several primaries publish the same name.
    pub fn canonical_on(&self, host: &str, name: &str) -> Option<String> {
        self.entries.iter().find_map(|(uri, hosts)| {
            let (_, doc) = split_xrpc_uri(uri)?;
            (doc == name && hosts.iter().any(|h| h == host)).then(|| uri.clone())
        })
    }

    /// The hosts able to stand in for `primary` entirely: the intersection,
    /// over every canonical URI primary serves, of that URI's replica
    /// hosts — with `primary` itself first. A host missing even one of the
    /// primary's documents cannot be a failover target for shipped call
    /// bodies (they may open any of them).
    pub fn hosts_serving_peer(&self, primary: &str) -> Vec<String> {
        let mut common: Option<Vec<String>> = None;
        for (uri, hosts) in &self.entries {
            let Some((host, _)) = split_xrpc_uri(uri) else { continue };
            if host != primary {
                continue;
            }
            common = Some(match common.take() {
                None => hosts.clone(),
                Some(prev) => prev.into_iter().filter(|h| hosts.iter().any(|x| x == h)).collect(),
            });
        }
        let mut out = vec![primary.to_string()];
        out.extend(common.unwrap_or_default());
        out
    }

    /// Records the transport address a peer daemon answers on. Placement
    /// (which host serves which document) and addressing (where that host
    /// listens) live in the same catalog so a federation is described by
    /// one structure.
    pub fn set_address(&mut self, peer: &str, addr: &str) {
        self.addresses.insert(peer.to_string(), addr.to_string());
    }

    /// The transport address registered for `peer`, if any.
    pub fn address_of(&self, peer: &str) -> Option<&str> {
        self.addresses.get(peer).map(String::as_str)
    }

    /// Every peer with a registered transport address, in name order.
    pub fn addressed_peers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.addresses.iter().map(|(p, a)| (p.as_str(), a.as_str()))
    }
}

/// Rendezvous score of `host` under `seed`/`salt`: FNV-1a over the name,
/// SplitMix-style mixed — the same construction the fault planner uses for
/// its per-attempt streams, so selection is seeded, deterministic, and
/// uncorrelated between nearby seeds.
pub fn mix_score(seed: u64, name: &str, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(xqd_prng::fnv1a(name.as_bytes()))
        .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seeded preference order over a candidate host set
/// (rendezvous hashing: highest score first, name as tie-break). With a
/// fixed seed this yields one global preference order, so every call —
/// and every replay — elects the same host while it stays healthy.
pub fn rendezvous_order(seed: u64, hosts: &[String]) -> Vec<String> {
    let mut out: Vec<String> = hosts.to_vec();
    out.sort_by(|a, b| {
        mix_score(seed, b, 0).cmp(&mix_score(seed, a, 0)).then_with(|| a.cmp(b))
    });
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> ReplicaCatalog {
        let mut c = ReplicaCatalog::new();
        c.register("xrpc://p/d.xml", "q");
        c.register("xrpc://p/d.xml", "r");
        c.register("xrpc://p/e.xml", "q");
        c.register("xrpc://a/da.xml", "b");
        c
    }

    #[test]
    fn hosts_include_primary_first() {
        let c = catalog();
        assert_eq!(c.hosts_for("xrpc://p/d.xml"), ["p", "q", "r"]);
        assert_eq!(c.hosts_for("xrpc://p/e.xml"), ["p", "q"]);
        // unreplicated documents are served by their primary alone
        assert_eq!(c.hosts_for("xrpc://z/solo.xml"), ["z"]);
        assert!(c.replicas_of("xrpc://z/solo.xml").is_empty());
    }

    #[test]
    fn registering_primary_or_duplicate_is_noop() {
        let mut c = catalog();
        c.register("xrpc://p/d.xml", "p");
        c.register("xrpc://p/d.xml", "q");
        assert_eq!(c.hosts_for("xrpc://p/d.xml"), ["p", "q", "r"]);
    }

    #[test]
    fn peer_serving_set_is_an_intersection() {
        let c = catalog();
        // q holds both of p's documents, r only one: only q can stand in
        assert_eq!(c.hosts_serving_peer("p"), ["p", "q"]);
        assert_eq!(c.hosts_serving_peer("a"), ["a", "b"]);
        // a peer with no catalog entries serves itself
        assert_eq!(c.hosts_serving_peer("z"), ["z"]);
    }

    #[test]
    fn canonical_lookup_by_replica_host() {
        let c = catalog();
        assert_eq!(c.canonical_on("q", "d.xml"), Some("xrpc://p/d.xml".into()));
        assert_eq!(c.canonical_on("b", "da.xml"), Some("xrpc://a/da.xml".into()));
        assert_eq!(c.canonical_on("q", "missing.xml"), None);
        assert_eq!(c.canonical_on("z", "d.xml"), None);
    }

    #[test]
    fn address_book_round_trips() {
        let mut c = catalog();
        c.set_address("p", "127.0.0.1:7001");
        assert_eq!(c.address_of("p"), Some("127.0.0.1:7001"));
        assert_eq!(c.address_of("q"), None);
        assert_eq!(c.addressed_peers().collect::<Vec<_>>(), [("p", "127.0.0.1:7001")]);
    }

    #[test]
    fn rendezvous_order_is_seeded_and_total() {
        let hosts: Vec<String> = ["p", "q", "r"].iter().map(|s| s.to_string()).collect();
        let o1 = rendezvous_order(7, &hosts);
        assert_eq!(o1, rendezvous_order(7, &hosts), "same seed, same order");
        assert_eq!(o1.len(), 3);
        // some seed produces a different election
        let diverges = (0..64).any(|s| rendezvous_order(s, &hosts) != o1);
        assert!(diverges, "order must depend on the seed");
        // candidate order in the input does not matter
        let shuffled: Vec<String> = ["r", "p", "q"].iter().map(|s| s.to_string()).collect();
        assert_eq!(rendezvous_order(7, &shuffled), o1);
    }
}
