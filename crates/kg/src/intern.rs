//! String interning.
//!
//! Entity names, relation names, attribute names and string literal
//! values are interned into dense [`Symbol`] ids so the rest of the
//! system can key maps and compare identities with `u32`s instead of
//! strings. Interning is append-only; symbols are never invalidated.

use crate::graph::TripleId;
use crate::hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// A dense handle to an interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] that created
/// them. They order by insertion order, which the datasets crate relies
/// on for deterministic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of the symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only string interner.
///
/// # Examples
///
/// ```
/// use multirag_kg::intern::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("CA981");
/// let b = interner.intern("CA981");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "CA981");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Interner {
    strings: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner with capacity for `capacity` distinct strings.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            strings: Vec::with_capacity(capacity),
            lookup: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Interns `s`, returning its symbol. Re-interning an existing
    /// string returns the original symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Symbol(
            u32::try_from(self.strings.len())
                .expect("interner overflow: >u32::MAX distinct strings"),
        );
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, sym);
        sym
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.lookup.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Resolves a symbol, returning `None` for foreign symbols.
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.strings.get(sym.index()).map(|s| &**s)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates `(Symbol, &str)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Symbol(i as u32), &**s))
    }
}

/// A canonical-key interner for claim values.
///
/// The confidence machinery compares claims by their
/// [`Value::canonical_key`] equivalence class. Building that `String`
/// once per *comparison* dominates the MCC hot path, so this wrapper
/// interns keys once and hands out [`Symbol`]s: symbol equality is
/// exactly canonical-key equality for symbols from the same
/// `KeyInterner`. [`KeyInterner::for_graph`] additionally precomputes
/// the key of every triple's **standardized** object value, so per-slot
/// profile construction is a table lookup instead of a string build.
///
/// The keys and the per-triple table built for a graph are shared by
/// every clone: cloning costs an `Arc` clone, and while they are shared
/// a clone interns the keys it meets later on its own, numbered after
/// the shared ones. [`KeyInterner::detached`] copies them instead.
///
/// A single scratch buffer is reused across [`KeyInterner::key_of`]
/// calls; hit/miss counters feed the `claim_key_interner_*` metrics.
#[derive(Debug, Default, Clone)]
pub struct KeyInterner {
    /// Keys and per-triple table of the graph, shared by clones.
    graph: Arc<GraphKeys>,
    /// Keys interned since `graph` was last extended; symbol `i` here
    /// is `graph.keys.len() + i` to callers.
    local: Interner,
    scratch: String,
    hits: u64,
    misses: u64,
}

/// What [`KeyInterner::extend_to`] builds for a graph.
#[derive(Debug, Default, Clone)]
struct GraphKeys {
    keys: Interner,
    /// `triple_keys[tid]` — key of triple `tid`'s standardized value
    /// (empty unless built with [`KeyInterner::for_graph`]).
    triple_keys: Vec<Symbol>,
}

impl KeyInterner {
    /// An empty interner with no per-triple cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the interner for a graph, precomputing the canonical key
    /// of every triple's standardized object value ([`Value::Str`] of
    /// the entity name for entity objects — the same form the
    /// confidence layer compares). Equivalent to
    /// [`KeyInterner::extend_to`] on an empty interner.
    pub fn for_graph(kg: &crate::graph::KnowledgeGraph) -> Self {
        let mut this = Self {
            graph: Arc::new(GraphKeys {
                keys: Interner::with_capacity(kg.triple_count() / 2 + 1),
                triple_keys: Vec::new(),
            }),
            ..Self::default()
        };
        this.extend_to(kg);
        this
    }

    /// Extends the per-triple cache over the triples of `kg` it does
    /// not cover yet, in id order. Graphs only grow by appending
    /// triples, so extending an interner built for an earlier state of
    /// the same graph yields exactly what [`KeyInterner::for_graph`]
    /// builds for the current one: the same symbol per triple, the same
    /// keys and the same hit and miss counts. Copies the shared keys
    /// first if a clone still holds them.
    pub fn extend_to(&mut self, kg: &crate::graph::KnowledgeGraph) {
        let covered = self.graph.triple_keys.len();
        if covered >= kg.triple_count() {
            return;
        }
        let graph = Arc::make_mut(&mut self.graph);
        // Keys interned locally already carry the next symbols in turn.
        for (_, key) in self.local.iter() {
            graph.keys.intern(key);
        }
        self.local = Interner::new();
        graph.triple_keys.reserve(kg.triple_count() - covered);
        for id in covered..kg.triple_count() {
            let value = kg.triple_value(TripleId(id as u32)).standardized();
            self.scratch.clear();
            value.write_canonical_key(&mut self.scratch);
            let before = graph.keys.len();
            let sym = graph.keys.intern(&self.scratch);
            if graph.keys.len() == before {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            graph.triple_keys.push(sym);
        }
    }

    /// A clone with its own copy of the graph keys, for a long-lived
    /// user that interns many keys of its own: they go into that copy,
    /// as in the interner it was cloned from. `repro_perf` measures its
    /// serial MCC loop on one, so the loop's allocation counts are those
    /// of interning into an owned table (a plain clone would intern on
    /// the side and allocate differently).
    pub fn detached(&self) -> Self {
        Self {
            graph: Arc::new(GraphKeys::clone(&self.graph)),
            ..self.clone()
        }
    }

    /// Interns `value`'s canonical key, reusing the scratch buffer.
    pub fn key_of(&mut self, value: &crate::value::Value) -> Symbol {
        self.scratch.clear();
        value.write_canonical_key(&mut self.scratch);
        // Sole owner of the graph keys and nothing interned on the
        // side: one table, no second lookup.
        if self.local.is_empty() {
            if let Some(graph) = Arc::get_mut(&mut self.graph) {
                let before = graph.keys.len();
                let sym = graph.keys.intern(&self.scratch);
                if graph.keys.len() == before {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                return sym;
            }
        }
        if let Some(sym) = self.graph.keys.get(&self.scratch) {
            self.hits += 1;
            return sym;
        }
        let before = self.local.len();
        let sym = self.local.intern(&self.scratch);
        if self.local.len() == before {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        Symbol(sym.0 + self.graph.keys.len() as u32)
    }

    /// The precomputed key of a triple's standardized value, if this
    /// interner was built with [`KeyInterner::for_graph`] over a graph
    /// containing `tid`. Cache uses count as interner hits.
    pub fn triple_key(&mut self, tid: TripleId) -> Option<Symbol> {
        let sym = self.graph.triple_keys.get(tid.index()).copied();
        if sym.is_some() {
            self.hits += 1;
        }
        sym
    }

    /// Resolves a key symbol back to its canonical-key string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        match sym.0.checked_sub(self.graph.keys.len() as u32) {
            None => self.graph.keys.resolve(sym),
            Some(local) => self.local.resolve(Symbol(local)),
        }
    }

    /// Number of distinct interned keys.
    pub fn len(&self) -> usize {
        self.graph.keys.len() + self.local.len()
    }

    /// Whether no keys have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an existing key (including triple-cache uses).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that interned a new key.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut interner = Interner::new();
        let a = interner.intern("alpha");
        let b = interner.intern("alpha");
        assert_eq!(a, b);
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn symbols_are_dense_and_ordered() {
        let mut interner = Interner::new();
        let a = interner.intern("a");
        let b = interner.intern("b");
        let c = interner.intern("c");
        assert_eq!(a, Symbol(0));
        assert_eq!(b, Symbol(1));
        assert_eq!(c, Symbol(2));
        assert!(a < b && b < c);
    }

    #[test]
    fn resolve_round_trips() {
        let mut interner = Interner::new();
        let words = ["CA981", "Beijing", "New York", "typhoon", ""];
        let syms: Vec<Symbol> = words.iter().map(|w| interner.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            assert_eq!(interner.resolve(*s), *w);
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut interner = Interner::new();
        assert_eq!(interner.get("missing"), None);
        assert_eq!(interner.len(), 0);
        let s = interner.intern("present");
        assert_eq!(interner.get("present"), Some(s));
    }

    #[test]
    fn try_resolve_rejects_foreign_symbols() {
        let interner = Interner::new();
        assert_eq!(interner.try_resolve(Symbol(99)), None);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut interner = Interner::new();
        interner.intern("x");
        interner.intern("y");
        let collected: Vec<(Symbol, String)> =
            interner.iter().map(|(s, w)| (s, w.to_string())).collect();
        assert_eq!(
            collected,
            vec![(Symbol(0), "x".to_string()), (Symbol(1), "y".to_string())]
        );
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut interner = Interner::with_capacity(16);
        assert!(interner.is_empty());
        interner.intern("z");
        assert!(!interner.is_empty());
    }

    #[test]
    fn empty_string_is_a_valid_key() {
        let mut interner = Interner::new();
        let e = interner.intern("");
        assert_eq!(interner.resolve(e), "");
        assert_eq!(interner.intern(""), e);
    }

    #[test]
    fn key_interner_symbols_match_canonical_keys() {
        use crate::value::Value;
        let mut keys = KeyInterner::new();
        let a = keys.key_of(&Value::from("Delayed "));
        let b = keys.key_of(&Value::from("delayed"));
        let c = keys.key_of(&Value::Int(3));
        let d = keys.key_of(&Value::Float(3.0));
        assert_eq!(a, b, "same equivalence class, same symbol");
        assert_eq!(c, d, "3 and 3.0 collapse");
        assert_ne!(a, c);
        assert_eq!(keys.resolve(a), Value::from("delayed").canonical_key());
        assert_eq!(keys.hits(), 2);
        assert_eq!(keys.misses(), 2);
    }

    #[test]
    fn key_interner_for_graph_precomputes_triple_keys() {
        use crate::graph::{KnowledgeGraph, TripleId};
        use crate::value::Value;
        let mut kg = KnowledgeGraph::new();
        let flight = kg.add_entity("CA981", "flights");
        let status = kg.add_relation("status");
        let s0 = kg.add_source("s0", "json", "flights");
        let s1 = kg.add_source("s1", "json", "flights");
        let t0 = kg.add_triple(flight, status, Value::from("Delayed"), s0, 0);
        let t1 = kg.add_triple(flight, status, Value::from("delayed"), s1, 0);
        let mut keys = KeyInterner::for_graph(&kg);
        let k0 = keys.triple_key(t0).expect("cached");
        let k1 = keys.triple_key(t1).expect("cached");
        assert_eq!(k0, k1, "standardized keys collapse surface variants");
        assert_eq!(
            keys.resolve(k0),
            Value::from("Delayed").standardized().canonical_key()
        );
        assert_eq!(keys.triple_key(TripleId(99)), None, "foreign triple");
    }

    #[test]
    fn extend_to_a_grown_graph_equals_building_for_it() {
        use crate::graph::{KnowledgeGraph, TripleId};
        use crate::value::Value;
        let mut kg = KnowledgeGraph::new();
        let flight = kg.add_entity("CA981", "flights");
        let status = kg.add_relation("status");
        let s0 = kg.add_source("s0", "json", "flights");
        kg.add_triple(flight, status, Value::from("Delayed"), s0, 0);
        let mut extended = KeyInterner::for_graph(&kg);
        kg.add_triple(flight, status, Value::from("delayed"), s0, 1);
        kg.add_triple(flight, status, Value::Int(3), s0, 2);
        extended.extend_to(&kg);
        let mut fresh = KeyInterner::for_graph(&kg);
        assert_eq!(extended.len(), fresh.len());
        assert_eq!(
            (extended.hits(), extended.misses()),
            (fresh.hits(), fresh.misses())
        );
        for tid in (0..3).map(TripleId) {
            assert_eq!(extended.triple_key(tid), fresh.triple_key(tid));
        }
        extended.extend_to(&kg);
        assert_eq!(
            extended.misses(),
            fresh.misses(),
            "extending again is a no-op"
        );
    }

    #[test]
    fn clones_share_graph_keys_and_number_new_keys_after_them() {
        use crate::graph::{KnowledgeGraph, TripleId};
        use crate::value::Value;
        let mut kg = KnowledgeGraph::new();
        let flight = kg.add_entity("CA981", "flights");
        let status = kg.add_relation("status");
        let s0 = kg.add_source("s0", "json", "flights");
        kg.add_triple(flight, status, Value::from("Delayed"), s0, 0);
        kg.add_triple(flight, status, Value::Int(3), s0, 1);
        let built = KeyInterner::for_graph(&kg);
        let (mut a, mut b) = (built.clone(), built.clone());
        let novel = Value::from("Cancelled");
        let sym = a.key_of(&novel);
        assert_eq!(sym, b.key_of(&novel), "clones number new keys alike");
        assert_eq!(sym.index(), built.len(), "new keys follow the graph's");
        assert_eq!(a.resolve(sym), novel.canonical_key());
        assert_eq!(a.key_of(&novel), sym);
        assert_eq!(
            (a.len(), built.len()),
            (3, 2),
            "the built interner is untouched"
        );
        assert_eq!(
            (a.hits(), a.misses()),
            (built.hits() + 1, built.misses() + 1)
        );
        let shared = a.key_of(&Value::from("delayed "));
        assert_eq!(Some(shared), a.triple_key(TripleId(0)));
        // Extending after local interning keeps every symbol and equals
        // building for the grown graph.
        kg.add_triple(flight, status, Value::from("cancelled"), s0, 2);
        a.extend_to(&kg);
        let mut fresh = KeyInterner::for_graph(&kg);
        assert_eq!(a.triple_key(TripleId(2)), Some(sym));
        assert_eq!(a.len(), fresh.len());
        for tid in (0..3).map(TripleId) {
            assert_eq!(a.triple_key(tid), fresh.triple_key(tid));
        }
        assert_eq!(b.len(), 3, "a clone's local keys stay its own");
    }
}
