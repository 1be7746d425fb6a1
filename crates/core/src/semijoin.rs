//! Join-aware decomposition: semi-join key shipping for cross-peer value
//! joins ("XQuery Join Graph Isolation" applied to the XRPC setting).
//!
//! After insertion and distributed code motion, the canonical cross-peer
//! equi-join has the shape
//!
//! ```text
//! let $t := execute at {"A"} { …producer body… }          (* full nodes! *)
//! return … let $cm1v := data($t/child::id)                (* key column  *)
//!          return execute at {"B"} params ($cm1 := $cm1v) { … $e/@id = $cm1 … }
//! ```
//!
//! The producer call returns **entire elements** even though the rest of
//! the query only ever consumes one downward key column out of them. When
//! a conservative use analysis proves that — every use of `$t` is the same
//! predicate-free downward path, consumed existentially (general
//! comparison) or shipped onward as a parameter — the producer body is
//! rewritten to return the **deduplicated, sorted key column** instead:
//!
//! ```text
//! let $t := execute at {"A"} { let $sj1v := (…producer body…)
//!                              return xqd:distinct-keys(data($sj1v/child::id)) }
//! return … let $cm1v := $t
//!          return execute at {"B"} params ($cm1 := $cm1v) { … $e/@id = $cm1 … }
//! ```
//!
//! Soundness: general comparisons are existential, so replacing the key
//! sequence by its distinct value set changes no comparison outcome; the
//! producer's nodes were demonstrably used for nothing else. The sorted
//! key set is also exactly what the wire codec front-codes into a compact
//! `<keyset>` block — the "filter" the consumer peer evaluates the join
//! against. The two-phase scatter (key harvest, then filtered fetch) falls
//! out of the existing round structure: the consumer's parameters depend
//! on the producer's binding, so the executor already sequences them.

use std::collections::HashSet;

use xqd_xquery::ast::{map_children_infallible, Expr, Step};

use crate::codemotion::is_downward_run;

/// One detected (and applied) semi-join rewrite, before the surrounding
/// decomposition resolves call indices: the producer binding's variable and
/// the key column extracted from it.
#[derive(Debug, Clone)]
pub(crate) struct SemijoinRewrite {
    /// Variable bound to the producer `execute at` (`$t` above).
    pub var: String,
    /// Printed key column (`child::id`).
    pub key_path: String,
}

/// One cross-peer semi-join edge of a decomposed plan, in terms of the
/// plan's [`crate::RemoteCall`] list.
#[derive(Debug, Clone)]
pub struct SemijoinEdge {
    /// Variable bound to the producer call.
    pub var: String,
    /// Key column shipped instead of the producer's nodes (`child::id`).
    pub key_path: String,
    /// Index into [`crate::Decomposition::calls`] of the key-harvest call.
    pub producer: usize,
    pub producer_peer: String,
    /// First call whose inputs depend on the producer — the peer the key
    /// filter is shipped to. `None` when the join closes at the
    /// coordinator (the keys still shrink the producer response).
    pub consumer: Option<usize>,
    pub consumer_peer: Option<String>,
}

/// Applies the semi-join rewrite everywhere it is provably sound.
/// Returns the rewritten expression plus one record per rewritten
/// producer, in rewrite order.
pub(crate) fn apply(e: &Expr) -> (Expr, Vec<SemijoinRewrite>) {
    let mut rewrites = Vec::new();
    let mut counter = 0u32;
    let out = go(e, &mut rewrites, &mut counter);
    (out, rewrites)
}

fn go(e: &Expr, rewrites: &mut Vec<SemijoinRewrite>, counter: &mut u32) -> Expr {
    // bottom-up: inner joins first, then this binding over the result
    let rebuilt = map_children_infallible(e, &mut |c| go(c, rewrites, counter));
    let Expr::Let { var, value, ret } = &rebuilt else { return rebuilt };
    let Expr::Execute { peer, params, body, .. } = value.as_ref() else { return rebuilt };

    let mut scan = Scan::new(var.clone());
    scan.scan(ret);
    let Some(steps) = scan.result() else { return rebuilt };

    // producer body: wrap so only the distinct key column returns
    *counter += 1;
    let sv = format!("sj{counter}v");
    let column = Expr::Path {
        start: Some(Expr::VarRef(sv.clone()).boxed()),
        steps: steps.clone(),
    };
    let extract = Expr::FunCall {
        name: "xqd:distinct-keys".into(),
        args: vec![Expr::FunCall { name: "data".into(), args: vec![column] }],
    };
    let harvest_body = Expr::Let {
        var: sv,
        value: body.clone(),
        ret: extract.boxed(),
    };
    // the original response projection described node results; the harvest
    // returns atoms, which need (and tolerate) no projection
    let harvest = Expr::Execute {
        peer: peer.clone(),
        params: params.clone(),
        body: harvest_body.boxed(),
        projection: None,
    };
    rewrites.push(SemijoinRewrite { var: var.clone(), key_path: print_steps(&steps) });
    Expr::Let {
        var: var.clone(),
        value: harvest.boxed(),
        ret: replace_uses(ret, var, &steps).boxed(),
    }
}

fn print_steps(steps: &[Step]) -> String {
    let mut out = String::new();
    for (i, s) in steps.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        out.push_str(s.axis.name());
        out.push_str("::");
        out.push_str(&s.test.to_string());
    }
    out
}

fn is_data(name: &str) -> bool {
    name == "data" || name == "fn:data"
}

/// Conservative key-use analysis for one producer binding. Succeeds only
/// when every reachable use of the producer variable (or of a variable
/// derived from it) is one of:
///
/// - the key column `$t/steps` — or `data($t/steps)` — as a general
///   comparison operand (existential: dedup + sort cannot flip it);
/// - a `let` binding the key column (or an alias of a derived variable),
///   which makes the bound variable *derived* and subject to these rules;
/// - shipping a derived variable into an `execute at` parameter, whose
///   body-side name is then analyzed under the same rules.
///
/// Everything else — bare node uses, reverse axes, predicates, counting,
/// shadowing of a tracked name — rejects the rewrite. All key-column uses
/// must agree on one path; that column becomes the shipped filter.
struct Scan {
    /// The producer variable in the *current* scope; `None` inside shipped
    /// bodies, where only derived parameter names are tracked.
    producer: Option<String>,
    /// Variables holding (aliases of) the extracted key column.
    keyvars: HashSet<String>,
    steps: Option<Vec<Step>>,
    ok: bool,
}

/// Sanctioned value shapes: the producer's key column (with its steps) or
/// an alias of an already-derived key variable.
enum KeyVal {
    Column(Vec<Step>),
    Alias,
}

impl Scan {
    fn new(producer: String) -> Self {
        Scan { producer: Some(producer), keyvars: HashSet::new(), steps: None, ok: true }
    }

    fn result(self) -> Option<Vec<Step>> {
        match (self.ok, self.steps) {
            (true, Some(steps)) => Some(steps),
            _ => None,
        }
    }

    fn tracked(&self, v: &str) -> bool {
        self.producer.as_deref() == Some(v) || self.keyvars.contains(v)
    }

    fn merge(&mut self, steps: Vec<Step>) {
        match &self.steps {
            None => self.steps = Some(steps),
            Some(prev) if *prev == steps => {}
            Some(_) => self.ok = false, // two different key columns
        }
    }

    /// Classifies `e` as a sanctioned key value, if it is one.
    fn key_value(&self, e: &Expr) -> Option<KeyVal> {
        match e {
            Expr::Path { start: Some(start), steps } => match start.as_ref() {
                Expr::VarRef(v)
                    if self.producer.as_deref() == Some(v) && is_downward_run(steps) =>
                {
                    Some(KeyVal::Column(steps.clone()))
                }
                _ => None,
            },
            Expr::VarRef(v) if self.keyvars.contains(v) => Some(KeyVal::Alias),
            Expr::FunCall { name, args } if is_data(name) && args.len() == 1 => {
                self.key_value(&args[0])
            }
            _ => None,
        }
    }

    /// A comparison operand: sanctioned key uses are consumed, anything
    /// else is scanned as a general expression.
    fn operand(&mut self, e: &Expr) {
        match self.key_value(e) {
            Some(KeyVal::Column(steps)) => self.merge(steps),
            Some(KeyVal::Alias) => {}
            None => self.scan(e),
        }
    }

    fn scan(&mut self, e: &Expr) {
        if !self.ok {
            return;
        }
        match e {
            Expr::VarRef(v) => {
                if self.tracked(v) {
                    self.ok = false;
                }
            }
            Expr::Comparison { lhs, rhs, .. } => {
                self.operand(lhs);
                self.operand(rhs);
            }
            Expr::Let { var, value, ret } => {
                match self.key_value(value) {
                    Some(kv) => {
                        if let KeyVal::Column(steps) = kv {
                            self.merge(steps);
                        }
                        if self.tracked(var) {
                            // rebinding a tracked name — too confusing
                            self.ok = false;
                            return;
                        }
                        self.keyvars.insert(var.clone());
                    }
                    None => {
                        self.scan(value);
                        if self.tracked(var) {
                            // the binding shadows a tracked name
                            self.ok = false;
                            return;
                        }
                    }
                }
                self.scan(ret);
            }
            Expr::Execute { peer, params, body, .. } => {
                self.scan(peer);
                let mut body_keys = HashSet::new();
                for p in params {
                    if self.keyvars.contains(&p.outer) {
                        body_keys.insert(p.var.clone());
                    } else if self.producer.as_deref() == Some(p.outer.as_str()) {
                        // shipping the raw nodes — a node use
                        self.ok = false;
                        return;
                    }
                }
                // the body is a separate scope: only the derived parameter
                // names are visible, under the same rules
                let mut sub = Scan {
                    producer: None,
                    keyvars: body_keys,
                    steps: self.steps.take(),
                    ok: true,
                };
                sub.scan(body);
                self.steps = sub.steps;
                self.ok &= sub.ok;
            }
            // a child under a binder that shadows a tracked name rejects
            other => other.for_each_child(&mut |c, binders| {
                if binders.iter().any(|v| self.tracked(v)) {
                    self.ok = false;
                }
                self.scan(c);
            }),
        }
    }
}

/// Replaces every occurrence of the key column (`$t/steps`, possibly under
/// `data(...)`) by `$t` itself, which now holds the harvested key atoms.
/// Sound as a blanket structural replacement: the scan already rejected
/// any plan where a tracked name is shadowed or the column appears in an
/// unsanctioned context. Shipped bodies are separate scopes and are left
/// untouched.
fn replace_uses(e: &Expr, producer: &str, steps: &[Step]) -> Expr {
    let is_column = |x: &Expr| -> bool {
        matches!(x, Expr::Path { start: Some(s), steps: st }
            if st == steps && matches!(s.as_ref(), Expr::VarRef(v) if v == producer))
    };
    if is_column(e) {
        return Expr::VarRef(producer.to_string());
    }
    if let Expr::FunCall { name, args } = e {
        if is_data(name) && args.len() == 1 && is_column(&args[0]) {
            return Expr::VarRef(producer.to_string());
        }
    }
    if let Expr::Execute { peer, params, body, projection } = e {
        return Expr::Execute {
            peer: replace_uses(peer, producer, steps).boxed(),
            params: params.clone(),
            body: body.clone(),
            projection: projection.clone(),
        };
    }
    map_children_infallible(e, &mut |c| replace_uses(c, producer, steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqd_xquery::parse_expr_str;

    fn apply_str(src: &str) -> (String, Vec<SemijoinRewrite>) {
        let e = parse_expr_str(src).unwrap();
        let (out, edges) = apply(&e);
        (out.to_string(), edges)
    }

    #[test]
    fn fragment_shape_harvests_distinct_keys() {
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { for $p in doc(\"xrpc://A/a.xml\")/child::people/child::person \
                 return if ($p/child::tutor = \"x\") then $p else () } \
             return let $cm1v := data($t/child::id) \
             return execute at { \"B\" } params ($cm1 := $cm1v) \
               { for $e in doc(\"xrpc://B/b.xml\")/child::enroll/child::exam \
                 return if ($e/attribute::id = $cm1) then $e else () }",
        );
        assert_eq!(edges.len(), 1, "{s}");
        assert_eq!(edges[0].var, "t");
        assert_eq!(edges[0].key_path, "child::id");
        assert!(s.contains("xqd:distinct-keys(data($sj1v/child::id))"), "{s}");
        assert!(s.contains("let $cm1v := $t"), "{s}");
        assert!(!s.contains("data($t/child::id)"), "{s}");
    }

    #[test]
    fn direct_comparison_use_also_qualifies() {
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { doc(\"xrpc://A/a.xml\")/child::people/child::person } \
             return for $e in doc(\"b.xml\")/child::exam \
             return if ($e/attribute::id = data($t/child::id)) then $e else ()",
        );
        assert_eq!(edges.len(), 1, "{s}");
        assert!(s.contains("xqd:distinct-keys"), "{s}");
        assert!(s.contains("$e/attribute::id = $t"), "{s}");
    }

    #[test]
    fn bare_node_use_rejects_the_rewrite() {
        // $t is returned as nodes — dedup would change the answer
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { doc(\"xrpc://A/a.xml\")/child::p } \
             return ($t, data($t/child::id))",
        );
        assert!(edges.is_empty(), "{s}");
        assert!(!s.contains("distinct-keys"), "{s}");
    }

    #[test]
    fn two_key_columns_reject_the_rewrite() {
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { doc(\"xrpc://A/a.xml\")/child::p } \
             return (data($t/child::id) = 1, data($t/child::name) = \"x\")",
        );
        assert!(edges.is_empty(), "{s}");
    }

    #[test]
    fn counting_keys_rejects_the_rewrite() {
        // count() over the column is not existential — dedup changes it
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { doc(\"xrpc://A/a.xml\")/child::p } \
             return count(data($t/child::id))",
        );
        assert!(edges.is_empty(), "{s}");
    }

    #[test]
    fn predicated_or_upward_columns_reject_the_rewrite() {
        for col in ["$t/parent::x", "$t/child::id[. = 1]"] {
            let (s, edges) = apply_str(&format!(
                "let $t := execute at {{ \"A\" }} params () \
                   {{ doc(\"xrpc://A/a.xml\")/child::p }} \
                 return data({col}) = 1",
            ));
            assert!(edges.is_empty(), "{col}: {s}");
        }
    }

    #[test]
    fn key_alias_shipped_as_parameter_is_tracked_into_the_body() {
        // the body uses the derived parameter as a node set — reject
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { doc(\"xrpc://A/a.xml\")/child::p } \
             return let $k := data($t/child::id) \
             return execute at { \"B\" } params ($q := $k) { $q/child::x }",
        );
        assert!(edges.is_empty(), "{s}");
    }

    #[test]
    fn shadowing_a_tracked_name_rejects_the_rewrite() {
        let (s, edges) = apply_str(
            "let $t := execute at { \"A\" } params () \
               { doc(\"xrpc://A/a.xml\")/child::p } \
             return let $k := data($t/child::id) \
             return for $k in doc(\"b.xml\")/child::e return ($k, 1 = $k)",
        );
        assert!(edges.is_empty(), "{s}");
    }

    #[test]
    fn local_bindings_are_untouched() {
        let (s, edges) =
            apply_str("let $t := doc(\"a.xml\")/child::p return data($t/child::id) = 1");
        assert!(edges.is_empty(), "{s}");
        assert!(!s.contains("distinct-keys"), "{s}");
    }
}
