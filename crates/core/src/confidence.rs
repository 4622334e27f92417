//! Multi-level confidence computing (Eqs. 4–11, Algorithm 1).
//!
//! **Graph level** (Eqs. 4–7): pairwise similarity between homologous
//! nodes via normalized mutual information of their attribute-value
//! distributions; the group's confidence is the mean pairwise
//! similarity. The joint distribution in Eq. 4 is instantiated as the
//! *maximal coupling* of the two value distributions — all shared mass
//! sits on the diagonal, residual mass couples independently — which
//! makes `I` large exactly when the two nodes assert the same content,
//! the stated intent of the paper's construction. Degenerate
//! (singleton) value sets fall back to a soft value-distance, keeping
//! `S ∈ [0, 1]` total.
//!
//! **Node level** (Eqs. 8–11): consistency `S_n(v)` (mean similarity to
//! homologous peers), LLM authority (Eq. 10 sigmoid over the simulated
//! expert score, centered on the candidate mean), historical authority
//! (Eq. 11 via [`HistoryStore`]), combined as
//! `C(v) = S_n(v) + α·Auth_LLM + (1−α)·Auth_hist`.
//!
//! # Two implementations, one contract
//!
//! The hot path runs on [`ClaimProfile`]s — per-slot claim records with
//! canonical keys resolved to interned [`Symbol`]s, distributions as
//! sorted dense `(key, mass)` vecs and entropy precomputed — so
//! [`nmi_similarity`] is an allocation-free merge-join and
//! [`mcc_filter_profiles`] computes the pairwise similarity matrix
//! **once**, sharing it across graph gating, node assessment and the
//! rescue path. The naive implementation ([`mi_similarity`],
//! [`mcc_filter_reference`]) is retained as the equivalence oracle: it
//! rebuilds string-keyed distributions per pair, and proptests assert
//! the kernel is **bit-identical** (not ε-close) to it. Nothing selects
//! the oracle at run time — MKLGP runs only the kernel, and tests and
//! the `repro_perf` harness call the reference functions directly. To
//! keep the contract checkable, both paths do their floating-point
//! work in the same order: distributions iterate in sorted-canonical-key
//! order and masses accumulate by repeated `+= w`.

use crate::config::MultiRagConfig;
use crate::history::HistoryStore;
use crate::homologous::HomologousGroup;
use multirag_kg::{
    FxHashMap, KeyInterner, KnowledgeGraph, Object, SourceId, Symbol, TripleId, Value,
};
use multirag_llmsim::authority::AuthorityFeatures;
use multirag_llmsim::MockLlm;

/// Graph-level confidence of one homologous subgraph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfidence {
    /// `C(G)` — mean pairwise similarity (Eq. 7), in `[0, 1]`.
    ///
    /// The mean divides by [`GraphConfidence::unordered_pairs`]; each
    /// unordered pair's similarity is symmetric, so this equals Eq. 7's
    /// double sum divided by its ordered-pair count.
    pub value: f64,
    /// Unordered node pairs averaged: `n·(n−1)/2`. This is the divisor
    /// of [`GraphConfidence::value`].
    pub unordered_pairs: usize,
    /// Ordered pairs of Eq. 7's double sum: `n·(n−1)`, i.e. twice
    /// [`GraphConfidence::unordered_pairs`]. (An earlier revision
    /// reported this doubled count under a single `pairs` field while
    /// dividing by the undoubled one; both are now explicit.)
    pub ordered_pairs: usize,
}

/// Node-level assessment of one claim.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfidence {
    /// The claim's triple.
    pub triple: TripleId,
    /// The claim's value.
    pub value: Value,
    /// Asserting source.
    pub source: SourceId,
    /// Consistency score `S_n(v)` (Eq. 8).
    pub consistency: f64,
    /// `Auth_LLM(v)` (Eq. 10).
    pub auth_llm: f64,
    /// `Auth_hist(v)` (Eq. 11).
    pub auth_hist: f64,
    /// Combined authority `A(v)` (Eq. 9).
    pub authority: f64,
    /// Final confidence `C(v) = S_n(v) + A(v)`, in `[0, 2]`.
    pub confidence: f64,
}

// -------------------------------------------------------------------
// Reference implementation (naive; the equivalence oracle)
// -------------------------------------------------------------------

/// The value multiset a claim asserts (lists flatten to their scalars).
fn value_set(value: &Value) -> Vec<Value> {
    value.scalar_claims()
}

/// Empirical distribution over canonical keys, sorted by key.
///
/// Sorting here is what makes the naive path's float summation order
/// deterministic and equal to the kernel's (whose profile dists are
/// sorted by resolved key string).
fn distribution(values: &[Value]) -> Vec<(String, f64)> {
    let mut acc: FxHashMap<String, f64> = FxHashMap::default();
    let w = 1.0 / values.len().max(1) as f64;
    for v in values {
        *acc.entry(v.canonical_key()).or_insert(0.0) += w;
    }
    let mut dist: Vec<(String, f64)> = acc.into_iter().collect();
    dist.sort_by(|a, b| a.0.cmp(&b.0));
    dist
}

/// Shannon entropy (Eq. 6) of a sorted distribution, in nats.
fn entropy(dist: &[(String, f64)]) -> f64 {
    -dist
        .iter()
        .filter(|(_, p)| *p > 0.0)
        .map(|(_, p)| p * p.ln())
        .sum::<f64>()
}

/// Eqs. 4–5: normalized mutual information similarity between two
/// attribute-value sets, in `[0, 1]`. Reference implementation — the
/// profile kernel [`nmi_similarity`] is bit-identical to it.
pub fn mi_similarity(vi: &Value, vj: &Value) -> f64 {
    let set_i = value_set(vi);
    let set_j = value_set(vj);
    let pi = distribution(&set_i);
    let pj = distribution(&set_j);
    let hi = entropy(&pi);
    let hj = entropy(&pj);
    if hi + hj < 1e-12 {
        // Both degenerate: exact agreement scores 1; *different* claims
        // get at most a sub-threshold soft similarity however close
        // their content is — a 1911-vs-1914 year conflict is still a
        // conflict, and must not let the subgraph pass the trust gate.
        let a = set_i.first().cloned().unwrap_or(Value::Null);
        let b = set_j.first().cloned().unwrap_or(Value::Null);
        if a.canonical_key() == b.canonical_key() {
            return 1.0;
        }
        return (1.0 - a.distance(&b)) * 0.45;
    }
    // Agreement information: the diagonal of the maximal coupling —
    // shared mass min(pi, pj) weighted by its pointwise MI. Disjoint
    // sets score 0, identical distributions score exactly Hi (= Hj),
    // so the symmetric-uncertainty normalization 2I/(Hi+Hj) maps
    // agreement onto [0, 1] with identical → 1, the range Eq. 5
    // asserts. Zero-entropy marginals make the MI term degenerate (a
    // singleton {a} vs a superset {a, b, c} would score 0 despite
    // genuine partial agreement), so the similarity is floored by the
    // distribution overlap Σ min(pi, pj).
    let mut mi = 0.0;
    let mut overlap = 0.0;
    for (key, p_i) in &pi {
        if let Ok(at) = pj.binary_search_by(|(k, _)| k.cmp(key)) {
            if let Some((_, p_j)) = pj.get(at) {
                let p = p_i.min(*p_j);
                overlap += p;
                if p > 0.0 {
                    mi += p * (p / (p_i * p_j)).ln();
                }
            }
        }
    }
    (2.0 * mi / (hi + hj)).max(overlap).clamp(0.0, 1.0)
}

/// The homologous nodes of a group: one node **per source**, carrying
/// the full value set that source asserts for the slot (Definition 4's
/// `snode` instances). A multi-valued truth asserted completely by two
/// sources thus yields two *identical* nodes — agreement, not conflict;
/// a source that swapped one value yields a partially-overlapping set.
fn group_values(kg: &KnowledgeGraph, group: &HomologousGroup) -> Vec<(TripleId, Value, SourceId)> {
    let mut order: Vec<SourceId> = Vec::new();
    let mut per_source: FxHashMap<SourceId, (TripleId, Vec<Value>)> = FxHashMap::default();
    for &tid in &group.triples {
        let t = kg.triple(tid);
        let value = match &t.object {
            Object::Entity(e) => Value::Str(kg.entity_name(*e).to_string()),
            Object::Literal(v) => v.clone(),
        };
        // Entity standardization (the `std.py` analogue): surface
        // variants of the same value ("Mann, Michael") collapse onto
        // one normal form before any consistency computation — the
        // knowledge-construction step that lets MultiRAG see agreement
        // where exact-match fusion sees fragmentation.
        let value = value.standardized();
        let entry = per_source.entry(t.source).or_insert_with(|| {
            order.push(t.source);
            (tid, Vec::new())
        });
        entry.1.push(value);
    }
    order
        .into_iter()
        .map(|source| {
            let (tid, mut values) = per_source.remove(&source).expect("inserted above");
            let value = if values.len() == 1 {
                values.pop().expect("len checked")
            } else {
                Value::List(values)
            };
            (tid, value, source)
        })
        .collect()
}

/// Eq. 7 over an explicit claim pool.
fn graph_confidence_of(claims: &[(TripleId, Value, SourceId)]) -> GraphConfidence {
    let n = claims.len();
    if n < 2 {
        return GraphConfidence {
            value: 0.5,
            unordered_pairs: 0,
            ordered_pairs: 0,
        };
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += mi_similarity(&claims[i].1, &claims[j].1);
            pairs += 1;
        }
    }
    GraphConfidence {
        value: total / pairs as f64,
        unordered_pairs: pairs,
        ordered_pairs: pairs * 2,
    }
}

/// Eq. 7: graph-level confidence of a homologous subgraph.
pub fn graph_confidence(kg: &KnowledgeGraph, group: &HomologousGroup) -> GraphConfidence {
    graph_confidence_of(&group_values(kg, group))
}

/// A placeholder record for a claim the graph-level gate discarded
/// before any node-level assessment ran.
fn unassessed(claim: (TripleId, Value, SourceId)) -> NodeConfidence {
    NodeConfidence {
        triple: claim.0,
        value: claim.1,
        source: claim.2,
        consistency: 0.0,
        auth_llm: 0.0,
        auth_hist: 0.0,
        authority: 0.0,
        confidence: 0.0,
    }
}

/// A flat-score record for ablations that skip node-level assessment.
fn uniform_assessment(claim: (TripleId, Value, SourceId)) -> NodeConfidence {
    NodeConfidence {
        triple: claim.0,
        value: claim.1,
        source: claim.2,
        consistency: 0.5,
        auth_llm: 0.5,
        auth_hist: 0.5,
        authority: 0.5,
        confidence: 1.0,
    }
}

/// Node-level assessment over an explicit claim pool (the gated subset
/// of a group's per-source nodes). Reference implementation.
pub fn assess_claims(
    kg: &KnowledgeGraph,
    group: &HomologousGroup,
    claims: &[(TripleId, Value, SourceId)],
    llm: &mut MockLlm,
    history: &HistoryStore,
    config: &MultiRagConfig,
    max_degree: usize,
) -> Vec<NodeConfidence> {
    let n = claims.len();
    // Pairwise similarities (symmetric).
    let mut sim = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s = mi_similarity(&claims[i].1, &claims[j].1);
            sim[i][j] = s;
            sim[j][i] = s;
        }
    }
    // Dominant type of the group's values (for the type-consistency
    // authority feature).
    let mut type_counts: FxHashMap<&'static str, usize> = FxHashMap::default();
    for (_, v, _) in claims {
        *type_counts.entry(type_tag(v)).or_insert(0) += 1;
    }
    let dominant = type_counts
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(&t, _)| t)
        .unwrap_or("str");

    let degree = kg.neighbors(group.entity).len();
    // Historical-authority validation reads past-query records into the
    // assessment prompt; its cost scales with the weight (1 − α) given
    // to `Auth_hist` — the mechanism behind Fig. 7's falling query time
    // as α → 1.
    let history_tokens = ((1.0 - config.alpha) * 40.0) as usize;
    if history_tokens > 0 {
        llm.reason(history_tokens * n, 4);
    }
    // Raw expert scores first (Eq. 10 centers on the candidate mean).
    let mut raw_c: Vec<f64> = Vec::with_capacity(n);
    for (tid, v, source) in claims {
        let support: f64 = (0..n)
            .filter(|&j| claims[j].1.canonical_key() == v.canonical_key())
            .count() as f64;
        let features = AuthorityFeatures {
            degree,
            max_degree,
            type_consistency: if type_tag(v) == dominant { 1.0 } else { 0.3 },
            path_support: support / n as f64,
            source_reputation: history.credibility(*source),
        };
        // Degraded mode: when the expert call dies even after retries,
        // fall back to a neutral raw score — consistency and history
        // still discriminate, so one flaky call never sinks a claim.
        let c = llm
            .try_score_authority(&format!("t{}", tid.0), &features)
            .unwrap_or(0.5);
        raw_c.push(c);
    }
    let c_mean = raw_c.iter().sum::<f64>() / n.max(1) as f64;

    claims
        .iter()
        .enumerate()
        .map(|(i, (triple, value, source))| {
            // Eq. 8: mean similarity to peers.
            let consistency = if n > 1 {
                (0..n).filter(|&j| j != i).map(|j| sim[i][j]).sum::<f64>() / (n - 1) as f64
            } else {
                0.5
            };
            // Eq. 10.
            let auth_llm = llm.squash_authority(raw_c[i], c_mean, config.beta);
            // Eq. 11: support = summed agreement mass for this value.
            let support: f64 = (0..n)
                .filter(|&j| {
                    // Peers agreeing with this claim's value.
                    sim[i][j] > 0.999 || j == i
                })
                .count() as f64;
            let auth_hist = history.auth_hist(*source, support, n);
            // Eq. 9.
            let authority = config.alpha * auth_llm + (1.0 - config.alpha) * auth_hist;
            NodeConfidence {
                triple: *triple,
                value: value.clone(),
                source: *source,
                consistency,
                auth_llm,
                auth_hist,
                authority,
                confidence: consistency + authority,
            }
        })
        .collect()
}

fn type_tag(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) | Value::Float(_) => "num",
        Value::Str(_) => "str",
        Value::List(_) => "list",
    }
}

// -------------------------------------------------------------------
// Profile kernel (the hot path)
// -------------------------------------------------------------------

/// One homologous node's claim, precomputed once per slot.
///
/// All per-comparison string work is hoisted here: the canonical key of
/// the full value and of every scalar member is resolved to a [`Symbol`]
/// from one [`KeyInterner`], the member distribution is a dense vec
/// sorted by resolved key string, and the entropy is precomputed.
/// Profiles are only comparable when built against the **same**
/// interner — symbol equality then coincides with canonical-key
/// equality.
#[derive(Debug, Clone, PartialEq)]
pub struct ClaimProfile {
    /// Representative triple (first one the source asserted).
    pub triple: TripleId,
    /// The claim's (standardized) value — lists for multi-valued nodes.
    pub value: Value,
    /// Asserting source.
    pub source: SourceId,
    /// Interned canonical key of `value` (the gate's support key).
    pub key: Symbol,
    /// First scalar claim (`Value::Null` when the set is empty) — the
    /// operand of the degenerate both-zero-entropy fallback.
    pub rep: Value,
    /// Interned canonical key of `rep`.
    pub rep_key: Symbol,
    /// Distribution over scalar-member keys, sorted by resolved key
    /// string, masses accumulated as repeated `+= 1/n` (matching the
    /// reference path's float ops exactly).
    pub dist: Vec<(Symbol, f64)>,
    /// Shannon entropy (Eq. 6) of `dist`, in nats.
    pub entropy: f64,
}

impl ClaimProfile {
    /// Builds a profile for one claim value. `known_key` short-circuits
    /// the whole-value key when the caller already has it interned
    /// (the per-triple cache of [`KeyInterner::for_graph`]).
    pub fn build(
        triple: TripleId,
        value: Value,
        source: SourceId,
        known_key: Option<Symbol>,
        keys: &mut KeyInterner,
    ) -> ClaimProfile {
        let key = match known_key {
            Some(k) => k,
            None => keys.key_of(&value),
        };
        if !matches!(value, Value::List(_)) {
            // Scalar claim: the member distribution is {key: 1.0} and
            // the entropy is the reference's -(1.0 · ln 1.0) = -0.0.
            return ClaimProfile {
                triple,
                rep: value.clone(),
                value,
                source,
                key,
                rep_key: key,
                dist: vec![(key, 1.0)],
                entropy: -(1.0f64 * 1.0f64.ln()),
            };
        }
        let scalars = value.scalar_claims();
        let w = 1.0 / scalars.len().max(1) as f64;
        let mut dist: Vec<(Symbol, f64)> = Vec::with_capacity(scalars.len());
        for s in &scalars {
            let k = keys.key_of(s);
            match dist.iter_mut().find(|(dk, _)| *dk == k) {
                Some(slot) => slot.1 += w,
                None => dist.push((k, w)),
            }
        }
        dist.sort_by(|l, r| keys.resolve(l.0).cmp(keys.resolve(r.0)));
        let entropy = -dist
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(_, p)| p * p.ln())
            .sum::<f64>();
        let rep = scalars.first().cloned().unwrap_or(Value::Null);
        let rep_key = keys.key_of(&rep);
        ClaimProfile {
            triple,
            value,
            source,
            key,
            rep,
            rep_key,
            dist,
            entropy,
        }
    }
}

/// Builds the per-source claim profiles of a homologous group — the
/// profile analogue of the reference path's `group_values`, sharing its
/// first-seen source order and list aggregation.
pub fn build_profiles(
    kg: &KnowledgeGraph,
    group: &HomologousGroup,
    keys: &mut KeyInterner,
) -> Vec<ClaimProfile> {
    let mut order: Vec<SourceId> = Vec::new();
    let mut per_source: FxHashMap<SourceId, Vec<(TripleId, Value)>> = FxHashMap::default();
    for &tid in &group.triples {
        let value = kg.triple_value(tid).standardized();
        per_source
            .entry(kg.triple(tid).source)
            .or_insert_with(|| {
                order.push(kg.triple(tid).source);
                Vec::new()
            })
            .push((tid, value));
    }
    order
        .into_iter()
        .filter_map(|source| per_source.remove(&source).map(|items| (source, items)))
        .map(|(source, items)| {
            let mut items = items.into_iter();
            match (items.next(), items.next()) {
                (Some((tid, value)), None) => {
                    // Single-triple node: its standardized key is in
                    // the per-graph cache — no string is built at all.
                    let known = keys.triple_key(tid);
                    ClaimProfile::build(tid, value, source, known, keys)
                }
                (first, second) => {
                    let first_tid = first.as_ref().map(|(tid, _)| *tid).unwrap_or(TripleId(0));
                    let values: Vec<Value> = first
                        .into_iter()
                        .chain(second)
                        .chain(items)
                        .map(|(_, v)| v)
                        .collect();
                    ClaimProfile::build(first_tid, Value::List(values), source, None, keys)
                }
            }
        })
        .collect()
}

/// Eqs. 4–5 as an allocation-free merge-join over two sorted profile
/// distributions. Bit-identical to [`mi_similarity`] on the profiles'
/// values (proptested).
pub fn nmi_similarity(a: &ClaimProfile, b: &ClaimProfile, keys: &KeyInterner) -> f64 {
    let (hi, hj) = (a.entropy, b.entropy);
    if hi + hj < 1e-12 {
        if a.rep_key == b.rep_key {
            return 1.0;
        }
        return (1.0 - a.rep.distance(&b.rep)) * 0.45;
    }
    let mut mi = 0.0;
    let mut overlap = 0.0;
    let (mut x, mut y) = (0usize, 0usize);
    // Both dists are sorted by resolved key string, so matches surface
    // in exactly the order the reference path's sorted iteration visits
    // them — the float accumulation sequence is identical.
    while let (Some(&(ka, pa)), Some(&(kb, pb))) = (a.dist.get(x), b.dist.get(y)) {
        if ka == kb {
            let p = pa.min(pb);
            overlap += p;
            if p > 0.0 {
                mi += p * (p / (pa * pb)).ln();
            }
            x += 1;
            y += 1;
        } else if keys.resolve(ka) < keys.resolve(kb) {
            x += 1;
        } else {
            y += 1;
        }
    }
    (2.0 * mi / (hi + hj)).max(overlap).clamp(0.0, 1.0)
}

/// Kernel operation counters, merged up into the `multirag-obs`
/// metrics registry by the pipeline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// NMI merge-join evaluations (one per unordered node pair).
    pub nmi_pairs: u64,
    /// Claim profiles constructed.
    pub profiles_built: u64,
}

/// Dense symmetric pairwise-similarity matrix over one slot's profiles.
struct SimMatrix {
    n: usize,
    cells: Vec<f64>,
}

impl SimMatrix {
    /// Computes every unordered pair once, in `(i, j>i)` order, and
    /// returns the matrix plus the Eq. 7 sum and pair count.
    fn build(
        profiles: &[ClaimProfile],
        keys: &KeyInterner,
        counters: &mut KernelCounters,
    ) -> (SimMatrix, f64, usize) {
        let n = profiles.len();
        let mut m = SimMatrix {
            n,
            cells: vec![0.0; n * n],
        };
        let mut total = 0.0;
        let mut pairs = 0usize;
        for (i, a) in profiles.iter().enumerate() {
            for (j, b) in profiles.iter().enumerate().skip(i + 1) {
                let s = nmi_similarity(a, b, keys);
                m.set(i, j, s);
                m.set(j, i, s);
                total += s;
                pairs += 1;
            }
        }
        counters.nmi_pairs += pairs as u64;
        (m, total, pairs)
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.cells.get(i * self.n + j).copied().unwrap_or(0.0)
    }

    fn set(&mut self, i: usize, j: usize, s: f64) {
        if let Some(cell) = self.cells.get_mut(i * self.n + j) {
            *cell = s;
        }
    }
}

fn unassessed_profile(p: &ClaimProfile) -> NodeConfidence {
    unassessed((p.triple, p.value.clone(), p.source))
}

fn uniform_profile(p: &ClaimProfile) -> NodeConfidence {
    uniform_assessment((p.triple, p.value.clone(), p.source))
}

/// Node-level assessment over the gated profile subset, reusing the
/// slot's shared similarity matrix: consistency, gate support and the
/// Eq. 11 agreement mass are all index lookups — no `canonical_key()`
/// scans.
#[allow(clippy::too_many_arguments)]
fn assess_profiles(
    kg: &KnowledgeGraph,
    group: &HomologousGroup,
    sub: &[(usize, &ClaimProfile)],
    sim: &SimMatrix,
    llm: &mut MockLlm,
    history: &HistoryStore,
    config: &MultiRagConfig,
    max_degree: usize,
) -> Vec<NodeConfidence> {
    let n = sub.len();
    // Same FxHashMap construction as the reference: its max-by tie
    // break depends on iteration order, which is a function of the
    // (identical) insertion sequence.
    let mut type_counts: FxHashMap<&'static str, usize> = FxHashMap::default();
    for (_, p) in sub {
        *type_counts.entry(type_tag(&p.value)).or_insert(0) += 1;
    }
    let dominant = type_counts
        .iter()
        .max_by_key(|(_, &c)| c)
        .map(|(&t, _)| t)
        .unwrap_or("str");

    let degree = kg.neighbors(group.entity).len();
    let history_tokens = ((1.0 - config.alpha) * 40.0) as usize;
    if history_tokens > 0 {
        llm.reason(history_tokens * n, 4);
    }
    let mut raw_c: Vec<f64> = Vec::with_capacity(n);
    for (_, p) in sub {
        let support = sub.iter().filter(|(_, q)| q.key == p.key).count() as f64;
        let features = AuthorityFeatures {
            degree,
            max_degree,
            type_consistency: if type_tag(&p.value) == dominant {
                1.0
            } else {
                0.3
            },
            path_support: support / n as f64,
            source_reputation: history.credibility(p.source),
        };
        let c = llm
            .try_score_authority(&format!("t{}", p.triple.0), &features)
            .unwrap_or(0.5);
        raw_c.push(c);
    }
    let c_mean = raw_c.iter().sum::<f64>() / n.max(1) as f64;

    sub.iter()
        .zip(raw_c)
        .enumerate()
        .map(|(a, ((i, p), c))| {
            let consistency = if n > 1 {
                let mut acc = 0.0;
                for (b, (j, _)) in sub.iter().enumerate() {
                    if b != a {
                        acc += sim.get(*i, *j);
                    }
                }
                acc / (n - 1) as f64
            } else {
                0.5
            };
            let auth_llm = llm.squash_authority(c, c_mean, config.beta);
            let support = sub
                .iter()
                .enumerate()
                .filter(|(b, (j, _))| sim.get(*i, *j) > 0.999 || *b == a)
                .count() as f64;
            let auth_hist = history.auth_hist(p.source, support, n);
            let authority = config.alpha * auth_llm + (1.0 - config.alpha) * auth_hist;
            NodeConfidence {
                triple: p.triple,
                value: p.value.clone(),
                source: p.source,
                consistency,
                auth_llm,
                auth_hist,
                authority,
                confidence: consistency + authority,
            }
        })
        .collect()
}

// -------------------------------------------------------------------
// Algorithm 1
// -------------------------------------------------------------------

/// The outcome of the MCC filtering for one slot (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct MccOutcome {
    /// Graph confidence of the slot's subgraph (if homologous).
    pub graph: Option<GraphConfidence>,
    /// Claims that survived (`SVs` members).
    pub kept: Vec<NodeConfidence>,
    /// Claims filtered out (`LVs` additions).
    pub dropped: Vec<NodeConfidence>,
    /// Claims that survived the graph-level gate into node assessment.
    pub gated: usize,
    /// Cost of the graph-level stage (MI confidence + gating).
    pub graph_cost: multirag_obs::StageCost,
    /// Cost of the node-level stage (assessment + thresholding) — the
    /// expert-LLM half, so `sim_ms` is nonzero when node level is on.
    pub node_cost: multirag_obs::StageCost,
}

/// The confidence stages' single wall-clock site (lint D02): real
/// elapsed time feeds only the *measured* `wall_s` half of
/// [`multirag_obs::StageCost`]; every byte-stable artifact consumes
/// `sim_ms` instead.
struct StageClock(multirag_obs::WallTimer);

impl StageClock {
    fn start() -> StageClock {
        StageClock(multirag_obs::WallTimer::start())
    }

    fn cost(&self, sim_ms: f64) -> multirag_obs::StageCost {
        multirag_obs::StageCost {
            wall_s: self.0.elapsed_s(),
            sim_ms,
        }
    }
}

/// Node-level threshold (Algorithm 1, line 17) plus the rescue rule,
/// shared verbatim by the kernel and reference paths.
fn threshold_and_rescue(
    outcome: &mut MccOutcome,
    candidates: Vec<NodeConfidence>,
    config: &MultiRagConfig,
) {
    for node in candidates {
        if !config.enable_node_level || node.confidence > config.node_threshold {
            outcome.kept.push(node);
        } else {
            outcome.dropped.push(node);
        }
    }
    // Low-confidence subgraphs must still yield an answer candidate:
    // the paper extracts *more* nodes from them rather than abstaining.
    // When the threshold wiped the slate, rescue the most trustworthy
    // node — this is where authority (history + expert score) breaks
    // consistency ties that voting cannot.
    if outcome.kept.is_empty() && !outcome.dropped.is_empty() {
        let best = outcome
            .dropped
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.confidence
                    .partial_cmp(&b.confidence)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.triple.cmp(&a.triple))
            })
            .map(|(i, _)| i)
            .expect("nonempty");
        outcome.kept.push(outcome.dropped.remove(best));
    }
}

/// Algorithm 1 applied to one homologous group: graph-level gating,
/// then node-level thresholding. A convenience wrapper that builds the
/// group's profiles against a fresh interner and runs
/// [`mcc_filter_profiles`].
pub fn mcc_filter(
    kg: &KnowledgeGraph,
    group: &HomologousGroup,
    llm: &mut MockLlm,
    history: &HistoryStore,
    config: &MultiRagConfig,
    max_degree: usize,
) -> MccOutcome {
    let mut keys = KeyInterner::new();
    let profiles = build_profiles(kg, group, &mut keys);
    let mut counters = KernelCounters::default();
    mcc_filter_profiles(
        kg,
        group,
        &profiles,
        &keys,
        llm,
        history,
        config,
        max_degree,
        &mut counters,
    )
}

/// Algorithm 1 over precomputed [`ClaimProfile`]s — the one-pass hot
/// path. The similarity matrix is computed once and shared by the
/// graph confidence, the gate, node assessment and the rescue rule.
/// `profiles` must have been built against `keys`.
#[allow(clippy::too_many_arguments)]
pub fn mcc_filter_profiles(
    kg: &KnowledgeGraph,
    group: &HomologousGroup,
    profiles: &[ClaimProfile],
    keys: &KeyInterner,
    llm: &mut MockLlm,
    history: &HistoryStore,
    config: &MultiRagConfig,
    max_degree: usize,
    counters: &mut KernelCounters,
) -> MccOutcome {
    let graph_clock = StageClock::start();
    let n = profiles.len();
    let (sim, total, pairs) = SimMatrix::build(profiles, keys, counters);
    let graph = if n < 2 {
        GraphConfidence {
            value: 0.5,
            unordered_pairs: 0,
            ordered_pairs: 0,
        }
    } else {
        GraphConfidence {
            value: total / pairs as f64,
            unordered_pairs: pairs,
            ordered_pairs: pairs * 2,
        }
    };
    let mut outcome = MccOutcome {
        graph: Some(graph),
        ..Default::default()
    };
    // Graph-level gate FIRST (the coarse-ranking stage of the paper's
    // coarse/fine scheme); see `mcc_filter_reference` for the paper
    // rationale. Support counts and the kept-value set work on interned
    // key ids — no string is built or compared.
    let mut pool: Vec<usize> = (0..n).collect();
    if config.enable_graph_level && graph.value >= config.graph_threshold {
        let mut ranked: Vec<(usize, TripleId, Symbol, usize)> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let support = profiles.iter().filter(|q| q.key == p.key).count();
                (support, p.triple, p.key, i)
            })
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let keep = config.trusted_top_k.max(1);
        let mut kept_keys: Vec<Symbol> = Vec::new();
        let mut gated: Vec<usize> = Vec::new();
        for (_, _, key, i) in ranked {
            if kept_keys.contains(&key) || kept_keys.len() < keep {
                if !kept_keys.contains(&key) {
                    kept_keys.push(key);
                }
                gated.push(i);
            } else if let Some(p) = profiles.get(i) {
                outcome.dropped.push(unassessed_profile(p));
            }
        }
        gated.sort_by_key(|&i| profiles.get(i).map(|p| p.triple));
        pool = gated;
    }
    outcome.gated = pool.len();
    outcome.graph_cost = graph_clock.cost(0.0);
    let node_clock = StageClock::start();
    let sim_before = llm.usage().simulated_ms;
    let sub: Vec<(usize, &ClaimProfile)> = pool
        .iter()
        .filter_map(|&i| profiles.get(i).map(|p| (i, p)))
        .collect();
    let candidates: Vec<NodeConfidence> = if config.enable_node_level {
        assess_profiles(kg, group, &sub, &sim, llm, history, config, max_degree)
    } else {
        sub.iter().map(|(_, p)| uniform_profile(p)).collect()
    };
    threshold_and_rescue(&mut outcome, candidates, config);
    outcome.node_cost = node_clock.cost(llm.usage().simulated_ms - sim_before);
    outcome
}

/// Algorithm 1, naive retained implementation: string-keyed
/// distributions rebuilt per pair, one extra O(n²) similarity pass in
/// node assessment. The equivalence oracle for the kernel path (and
/// the baseline the `repro_perf` harness measures against).
pub fn mcc_filter_reference(
    kg: &KnowledgeGraph,
    group: &HomologousGroup,
    llm: &mut MockLlm,
    history: &HistoryStore,
    config: &MultiRagConfig,
    max_degree: usize,
) -> MccOutcome {
    let graph_clock = StageClock::start();
    // One `group_values` pass feeds both the graph confidence and the
    // gate pool (it used to be recomputed three times per slot).
    let claims = group_values(kg, group);
    let graph = graph_confidence_of(&claims);
    let mut outcome = MccOutcome {
        graph: Some(graph),
        ..Default::default()
    };
    // Graph-level gate FIRST (the coarse-ranking stage of the paper's
    // coarse/fine scheme): a high-confidence subgraph needs only the
    // top 1–2 *answer candidates*; a low-confidence one keeps
    // everything for wider node-level verification (§IV-C intro).
    // Gating before the expensive node assessment is exactly why
    // removing the graph level inflates the time columns in Table III
    // (every node then pays for an expert-LLM assessment).
    let mut pool = claims;
    if config.enable_graph_level && graph.value >= config.graph_threshold {
        // Rank by cheap agreement support (how many peer sources assert
        // the same value set) and keep the top-k distinct values —
        // distinct values, not claims, so multi-valued truths survive.
        let support = |value: &Value| {
            pool.iter()
                .filter(|(_, v, _)| v.canonical_key() == value.canonical_key())
                .count()
        };
        let mut ranked: Vec<(usize, (TripleId, Value, SourceId))> = pool
            .iter()
            .cloned()
            .map(|claim| (support(&claim.1), claim))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
        let keep = config.trusted_top_k.max(1);
        let mut kept_values: Vec<String> = Vec::new();
        let mut gated: Vec<(TripleId, Value, SourceId)> = Vec::new();
        for (_, claim) in ranked {
            let key = claim.1.canonical_key();
            if kept_values.contains(&key) || kept_values.len() < keep {
                if !kept_values.contains(&key) {
                    kept_values.push(key);
                }
                gated.push(claim);
            } else {
                outcome.dropped.push(unassessed(claim));
            }
        }
        gated.sort_by_key(|c| c.0);
        pool = gated;
    }
    outcome.gated = pool.len();
    outcome.graph_cost = graph_clock.cost(0.0);
    let node_clock = StageClock::start();
    let sim_before = llm.usage().simulated_ms;
    // Node-level confidence computation is the expensive, expert-LLM-
    // backed stage; when it is ablated (w/o Node Level, w/o MCC) no
    // assessment happens at all — nodes ride into the context with a
    // flat weight and the PT column collapses, exactly as Table III
    // shows.
    let candidates: Vec<NodeConfidence> = if config.enable_node_level {
        assess_claims(kg, group, &pool, llm, history, config, max_degree)
    } else {
        pool.into_iter().map(uniform_assessment).collect()
    };
    threshold_and_rescue(&mut outcome, candidates, config);
    outcome.node_cost = node_clock.cost(llm.usage().simulated_ms - sim_before);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homologous::match_slot;
    use multirag_llmsim::Schema;

    fn graph_with_claims(values: &[&str]) -> (KnowledgeGraph, HomologousGroup) {
        let mut kg = KnowledgeGraph::new();
        let flight = kg.add_entity("CA981", "flights");
        let status = kg.add_relation("status");
        for (i, v) in values.iter().enumerate() {
            let s = kg.add_source(&format!("s{i}"), "json", "flights");
            kg.add_triple(flight, status, Value::from(*v), s, 0);
        }
        let mut sets = match_slot(&kg, flight, status);
        // A lone claim is "isolated" for the matcher; hand-build the
        // one-node group so the filters can still be exercised on it.
        let group = match sets.groups.drain(..).next() {
            Some(g) => g,
            None => HomologousGroup {
                entity: flight,
                relation: status,
                triples: sets.isolated.clone(),
                source_count: sets.isolated.len(),
            },
        };
        (kg, group)
    }

    /// The kernel NMI on two raw values, via throwaway profiles.
    fn kernel_nmi(a: &Value, b: &Value) -> f64 {
        let mut keys = KeyInterner::new();
        let pa = ClaimProfile::build(TripleId(0), a.clone(), SourceId(0), None, &mut keys);
        let pb = ClaimProfile::build(TripleId(1), b.clone(), SourceId(1), None, &mut keys);
        nmi_similarity(&pa, &pb, &keys)
    }

    fn assert_outcomes_bit_identical(a: &MccOutcome, b: &MccOutcome) {
        match (a.graph, b.graph) {
            (Some(x), Some(y)) => {
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "graph value");
                assert_eq!(x.unordered_pairs, y.unordered_pairs);
                assert_eq!(x.ordered_pairs, y.ordered_pairs);
            }
            (None, None) => {}
            _ => panic!("graph presence mismatch"),
        }
        assert_eq!(a.gated, b.gated, "gated count");
        assert_eq!(a.kept.len(), b.kept.len(), "kept len");
        assert_eq!(a.dropped.len(), b.dropped.len(), "dropped len");
        for (x, y) in a
            .kept
            .iter()
            .zip(&b.kept)
            .chain(a.dropped.iter().zip(&b.dropped))
        {
            assert_eq!(x.triple, y.triple);
            assert_eq!(x.value, y.value);
            assert_eq!(x.source, y.source);
            assert_eq!(x.consistency.to_bits(), y.consistency.to_bits());
            assert_eq!(x.auth_llm.to_bits(), y.auth_llm.to_bits());
            assert_eq!(x.auth_hist.to_bits(), y.auth_hist.to_bits());
            assert_eq!(x.authority.to_bits(), y.authority.to_bits());
            assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
        }
        assert_eq!(
            a.node_cost.sim_ms.to_bits(),
            b.node_cost.sim_ms.to_bits(),
            "simulated node cost"
        );
    }

    #[test]
    fn mi_similarity_of_identical_singletons_is_one() {
        assert!(
            (mi_similarity(&Value::from("delayed"), &Value::from("delayed")) - 1.0).abs() < 1e-9
        );
        assert!((mi_similarity(&Value::Int(5), &Value::Float(5.0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mi_similarity_of_disjoint_singletons_is_low() {
        let s = mi_similarity(&Value::from("delayed"), &Value::from("quartz"));
        assert!(s < 0.3, "similarity {s}");
    }

    #[test]
    fn mi_similarity_of_identical_sets_is_high() {
        let a = Value::List(vec![Value::from("x"), Value::from("y")]);
        let b = Value::List(vec![Value::from("x"), Value::from("y")]);
        let s = mi_similarity(&a, &b);
        assert!(s > 0.9, "similarity {s}");
    }

    #[test]
    fn mi_similarity_of_partially_overlapping_sets_is_middling() {
        let a = Value::List(vec![Value::from("x"), Value::from("y")]);
        let b = Value::List(vec![Value::from("x"), Value::from("z")]);
        let s = mi_similarity(&a, &b);
        let identical = mi_similarity(&a, &a);
        let disjoint = mi_similarity(&a, &Value::List(vec![Value::from("p"), Value::from("q")]));
        assert!(s < identical && s > disjoint, "s={s}");
    }

    #[test]
    fn mi_similarity_is_symmetric_and_bounded() {
        let pairs = [
            (Value::from("a"), Value::from("b")),
            (
                Value::List(vec![Value::from("a"), Value::from("b")]),
                Value::from("a"),
            ),
            (Value::Int(3), Value::from("3")),
        ];
        for (a, b) in &pairs {
            let ab = mi_similarity(a, b);
            let ba = mi_similarity(b, a);
            assert!((ab - ba).abs() < 1e-9);
            assert!((0.0..=1.0).contains(&ab));
        }
    }

    #[test]
    fn nmi_kernel_is_bit_identical_to_reference() {
        let values = [
            Value::from("delayed"),
            Value::from("quartz"),
            Value::Int(5),
            Value::Float(5.0),
            Value::Null,
            Value::from(""),
            Value::List(vec![Value::from("x"), Value::from("y")]),
            Value::List(vec![Value::from("x"), Value::from("z")]),
            Value::List(vec![Value::from("x"), Value::from("x"), Value::from("y")]),
            Value::List(vec![]),
            Value::List(vec![Value::from("a"), Value::Int(3), Value::Float(3.5)]),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(
                    kernel_nmi(a, b).to_bits(),
                    mi_similarity(a, b).to_bits(),
                    "kernel vs reference on {a:?} / {b:?}"
                );
            }
        }
    }

    #[test]
    fn graph_confidence_reports_both_pair_counts() {
        let (kg, group) = graph_with_claims(&["delayed", "delayed", "on-time", "boarding"]);
        let gc = graph_confidence(&kg, &group);
        assert_eq!(gc.unordered_pairs, 6, "4·3/2 unordered pairs");
        assert_eq!(gc.ordered_pairs, 12, "Eq. 7 double-sum count");
        let (kg1, g1) = graph_with_claims(&["delayed"]);
        let gc1 = graph_confidence(&kg1, &g1);
        assert_eq!((gc1.unordered_pairs, gc1.ordered_pairs), (0, 0));
        assert_eq!(gc1.value, 0.5);
    }

    #[test]
    fn consistent_groups_have_high_graph_confidence() {
        let (kg, group) = graph_with_claims(&["delayed", "delayed", "delayed", "delayed"]);
        let gc = graph_confidence(&kg, &group);
        assert!(gc.value > 0.9, "confidence {}", gc.value);
    }

    #[test]
    fn conflicted_groups_have_low_graph_confidence() {
        let (kg, group) = graph_with_claims(&["delayed", "on-time", "boarding", "cancelled"]);
        let gc = graph_confidence(&kg, &group);
        assert!(gc.value < 0.4, "confidence {}", gc.value);
    }

    #[test]
    fn majority_agreement_sits_between() {
        let (kg, group) = graph_with_claims(&["delayed", "delayed", "delayed", "on-time"]);
        let gc = graph_confidence(&kg, &group);
        let (kg2, g2) = graph_with_claims(&["delayed", "delayed", "delayed", "delayed"]);
        let (kg3, g3) = graph_with_claims(&["a", "b", "c", "d"]);
        assert!(gc.value < graph_confidence(&kg2, &g2).value);
        assert!(gc.value > graph_confidence(&kg3, &g3).value);
    }

    #[test]
    fn node_assessment_prefers_majority_claims() {
        let (kg, group) = graph_with_claims(&["delayed", "delayed", "delayed", "on-time"]);
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        let config = MultiRagConfig::default();
        let claims = group_values(&kg, &group);
        let nodes = assess_claims(&kg, &group, &claims, &mut llm, &history, &config, 10);
        // Node values are standardized ("on-time" → "on time").
        let delayed: Vec<&NodeConfidence> = nodes
            .iter()
            .filter(|a| a.value == Value::from("delayed"))
            .collect();
        let outlier = nodes
            .iter()
            .find(|a| a.value == Value::from("on time"))
            .unwrap();
        for d in &delayed {
            assert!(
                d.confidence > outlier.confidence,
                "majority {} vs outlier {}",
                d.confidence,
                outlier.confidence
            );
            assert!(d.consistency > outlier.consistency);
        }
    }

    #[test]
    fn history_biases_authority() {
        let (kg, group) = graph_with_claims(&["delayed", "on-time"]);
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        // Source s0 (delayed) has an excellent record; s1 terrible.
        history.record(SourceId(0), 95, 100);
        history.record(SourceId(1), 5, 100);
        let config = MultiRagConfig::default();
        let claims = group_values(&kg, &group);
        let nodes = assess_claims(&kg, &group, &claims, &mut llm, &history, &config, 10);
        let good = nodes.iter().find(|a| a.source == SourceId(0)).unwrap();
        let bad = nodes.iter().find(|a| a.source == SourceId(1)).unwrap();
        assert!(good.auth_hist > bad.auth_hist);
        assert!(good.authority > bad.authority);
    }

    #[test]
    fn mcc_filter_drops_low_confidence_outliers() {
        let (kg, group) =
            graph_with_claims(&["delayed", "delayed", "delayed", "delayed", "quartz"]);
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        let config = MultiRagConfig {
            enable_graph_level: false, // isolate the node-level check
            ..MultiRagConfig::default()
        };
        let outcome = mcc_filter(&kg, &group, &mut llm, &history, &config, 10);
        assert!(outcome
            .kept
            .iter()
            .all(|n| n.value == Value::from("delayed")));
        assert!(outcome
            .dropped
            .iter()
            .any(|n| n.value == Value::from("quartz")));
    }

    #[test]
    fn graph_level_gate_keeps_top_k_distinct_values() {
        // Three distinct values in a (numerically close) year slot:
        // the gate must cap the surviving *values* at trusted_top_k.
        let (kg, group) = graph_with_claims(&["delayed", "delayed", "on-time", "boarding"]);
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        let config = MultiRagConfig {
            enable_node_level: false,
            graph_threshold: 0.0, // force the trusted path
            ..MultiRagConfig::default()
        };
        let outcome = mcc_filter(&kg, &group, &mut llm, &history, &config, 10);
        let distinct: std::collections::HashSet<String> = outcome
            .kept
            .iter()
            .map(|n| n.value.canonical_key())
            .collect();
        assert!(distinct.len() <= config.trusted_top_k);
        assert!(!outcome.dropped.is_empty());
        // A fully consistent group keeps all its (single-valued) nodes.
        let (kg2, g2) = graph_with_claims(&["delayed", "delayed", "delayed", "delayed"]);
        let outcome2 = mcc_filter(&kg2, &g2, &mut llm, &history, &config, 10);
        assert_eq!(outcome2.kept.len(), 4);
    }

    #[test]
    fn low_confidence_groups_keep_all_candidates_for_verification() {
        let (kg, group) = graph_with_claims(&["a", "b", "c", "d"]);
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        let config = MultiRagConfig {
            enable_node_level: false, // watch the gate alone
            ..MultiRagConfig::default()
        };
        let outcome = mcc_filter(&kg, &group, &mut llm, &history, &config, 10);
        assert!(outcome.graph.unwrap().value < config.graph_threshold);
        assert_eq!(outcome.kept.len(), 4);
    }

    #[test]
    fn disabled_mcc_keeps_everything() {
        let (kg, group) = graph_with_claims(&["a", "b", "c"]);
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        let config = MultiRagConfig::default().without_mcc();
        let outcome = mcc_filter(&kg, &group, &mut llm, &history, &config, 10);
        assert_eq!(outcome.kept.len(), 3);
        assert!(outcome.dropped.is_empty());
    }

    #[test]
    fn kernel_filter_is_bit_identical_to_reference_filter() {
        let scenarios: &[&[&str]] = &[
            &["delayed", "delayed", "delayed", "on-time"],
            &["delayed", "on-time", "boarding", "cancelled"],
            &["delayed", "delayed", "delayed", "delayed", "quartz"],
            &["a", "b", "c", "d"],
            &["delayed"],
            &["delayed", "delayed"],
        ];
        let configs = [
            MultiRagConfig::default(),
            MultiRagConfig {
                graph_threshold: 0.0,
                ..MultiRagConfig::default()
            },
            MultiRagConfig::default().without_graph_level(),
            MultiRagConfig::default().without_node_level(),
            MultiRagConfig::default().without_mcc(),
            MultiRagConfig::default().with_alpha(0.9),
        ];
        for values in scenarios {
            for config in &configs {
                let (kg, group) = graph_with_claims(values);
                let history = HistoryStore::paper_defaults();
                history.record(SourceId(0), 90, 100);
                // Two fresh LLMs with the same seed: the call sequences
                // must line up for the responses (and simulated cost)
                // to match.
                let mut llm_k = MockLlm::new(Schema::new(), 7);
                let mut llm_r = MockLlm::new(Schema::new(), 7);
                let kernel = mcc_filter(&kg, &group, &mut llm_k, &history, config, 10);
                let reference = mcc_filter_reference(&kg, &group, &mut llm_r, &history, config, 10);
                assert_outcomes_bit_identical(&kernel, &reference);
                assert_eq!(
                    llm_k.usage().simulated_ms.to_bits(),
                    llm_r.usage().simulated_ms.to_bits(),
                    "identical LLM call sequence"
                );
            }
        }
    }

    #[test]
    fn profiles_share_interned_keys_across_sources() {
        let (kg, group) = graph_with_claims(&["delayed", "Delayed ", "on-time"]);
        let mut keys = KeyInterner::for_graph(&kg);
        let misses_after_build = keys.misses();
        let profiles = build_profiles(&kg, &group, &mut keys);
        assert_eq!(profiles.len(), 3);
        assert_eq!(
            profiles[0].key, profiles[1].key,
            "surface variants collapse"
        );
        assert_ne!(profiles[0].key, profiles[2].key);
        assert_eq!(
            keys.misses(),
            misses_after_build,
            "slot profiles intern nothing new — every key was precomputed per triple"
        );
        for p in &profiles {
            assert_eq!(keys.resolve(p.key), p.value.canonical_key());
            assert_eq!(p.dist.len(), 1);
            assert_eq!(p.entropy.to_bits(), (-(1.0f64 * 1.0f64.ln())).to_bits());
        }
    }
}
