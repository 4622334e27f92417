//! TruthFinder (Yin, Han & Yu, KDD'07) — the classic iterative data
//! fusion method.
//!
//! Alternates between (a) claim confidence from the trust of the
//! sources asserting it, `s(f) = 1 − Π (1 − t(w))` computed in
//! log-space with a dampening factor γ, and (b) source trust as the
//! mean confidence of the source's claims — until the trust vector
//! stabilizes. Fusion is **global** (every slot in the dataset), which
//! is exactly why its time column in Table II dwarfs query-local
//! methods.

use crate::common::{slot_claims, FusionMethod, MethodAnswer};
use multirag_datasets::Query;
use multirag_kg::{FxHashMap, KnowledgeGraph, Object, SourceId, Value};

/// Dampening factor γ on the log-trust sum (mitigates source
/// dependence).
const GAMMA: f64 = 0.3;
/// Initial source trust.
const INITIAL_TRUST: f64 = 0.8;
/// Convergence tolerance on the mean absolute change of source trust.
const TOLERANCE: f64 = 1e-4;
/// Maximum iterations.
const MAX_ITERS: usize = 20;

/// TruthFinder fusion.
#[derive(Debug, Default)]
pub struct TruthFinder {
    /// Converged claim confidence per (slot, value-key).
    confidence: FxHashMap<(u32, u32, String), f64>,
    /// Converged source trust.
    trust: FxHashMap<SourceId, f64>,
    iterations_run: usize,
}

impl TruthFinder {
    /// Converged trust of a source (after [`FusionMethod::prepare`]).
    pub fn source_trust(&self, source: SourceId) -> f64 {
        self.trust.get(&source).copied().unwrap_or(INITIAL_TRUST)
    }

    /// Iterations to convergence.
    pub fn iterations(&self) -> usize {
        self.iterations_run
    }
}

fn claim_value(kg: &KnowledgeGraph, object: &Object) -> Value {
    match object {
        Object::Entity(e) => Value::Str(kg.entity_name(*e).to_string()),
        Object::Literal(v) => v.clone(),
    }
}

impl FusionMethod for TruthFinder {
    fn name(&self) -> &'static str {
        "TruthFinder"
    }

    fn prepare(&mut self, kg: &KnowledgeGraph) {
        // Facts: (slot, value-key) → asserting sources (deduped).
        let mut facts: FxHashMap<(u32, u32, String), Vec<SourceId>> = FxHashMap::default();
        let mut by_source: FxHashMap<SourceId, Vec<(u32, u32, String)>> = FxHashMap::default();
        for (_, t) in kg.iter_triples() {
            let key = (
                t.subject.0,
                t.predicate.0,
                claim_value(kg, &t.object).canonical_key(),
            );
            let sources = facts.entry(key.clone()).or_default();
            if !sources.contains(&t.source) {
                sources.push(t.source);
                by_source.entry(t.source).or_default().push(key.clone());
            }
        }
        let mut trust: FxHashMap<SourceId, f64> =
            kg.source_ids().map(|s| (s, INITIAL_TRUST)).collect();
        let mut confidence: FxHashMap<(u32, u32, String), f64> = FxHashMap::default();
        self.iterations_run = 0;
        for _ in 0..MAX_ITERS {
            self.iterations_run += 1;
            // Claim confidence from source trust (log-space sum, damped).
            for (key, sources) in &facts {
                let mut sigma = 0.0;
                for s in sources {
                    let t = trust[s].clamp(1e-6, 1.0 - 1e-6);
                    sigma += -(1.0 - t).ln();
                }
                let conf = 1.0 - (-GAMMA * sigma).exp();
                confidence.insert(key.clone(), conf);
            }
            // Source trust from claim confidence.
            let mut delta = 0.0;
            for (source, keys) in &by_source {
                let mean = keys.iter().map(|k| confidence[k]).sum::<f64>() / keys.len() as f64;
                let old = trust[source];
                delta += (mean - old).abs();
                trust.insert(*source, mean);
            }
            if delta / (trust.len().max(1) as f64) < TOLERANCE {
                break;
            }
        }
        self.trust = trust;
        self.confidence = confidence;
    }

    fn answer(&mut self, kg: &KnowledgeGraph, query: &Query) -> MethodAnswer {
        let claims = slot_claims(kg, query);
        if claims.is_empty() {
            return MethodAnswer::default();
        }
        let domain = kg.resolve(kg.source(SourceId(0)).domain).to_string();
        let entity = kg.find_entity(&query.entity, &domain).expect("has claims");
        let relation = kg.find_relation(&query.attribute).expect("has claims");
        // Score distinct values by converged confidence; keep those
        // within 70% of the best (multi-valued support).
        let mut scored: Vec<(Value, f64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in &claims {
            let key = c.value.canonical_key();
            if !seen.insert(key.clone()) {
                continue;
            }
            let conf = self
                .confidence
                .get(&(entity.0, relation.0, key))
                .copied()
                .unwrap_or(0.0);
            scored.push((c.value.clone(), conf));
        }
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.canonical_key().cmp(&b.0.canonical_key()))
        });
        let best = scored.first().map(|&(_, c)| c).unwrap_or(0.0);
        MethodAnswer {
            values: scored
                .into_iter()
                .filter(|&(_, c)| c >= best * 0.7)
                .map(|(v, _)| v)
                .collect(),
            hallucinated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_datasets::movies::MoviesSpec;
    use multirag_datasets::spec::MultiSourceDataset;

    fn prepared(data: &MultiSourceDataset) -> TruthFinder {
        let mut tf = TruthFinder::default();
        tf.prepare(&data.graph);
        tf
    }

    #[test]
    fn converges_within_iteration_budget() {
        let data = MoviesSpec::small().generate(42);
        let tf = prepared(&data);
        assert!(tf.iterations() >= 2);
        assert!(tf.iterations() <= MAX_ITERS);
    }

    #[test]
    fn reliable_sources_earn_higher_trust() {
        let data = MoviesSpec::small().generate(42);
        let tf = prepared(&data);
        // Compare the most and least reliable generated sources.
        let mut infos = data.sources.clone();
        infos.sort_by(|a, b| a.reliability.partial_cmp(&b.reliability).unwrap());
        let worst = infos.first().unwrap();
        let best = infos.last().unwrap();
        assert!(
            tf.source_trust(best.id) > tf.source_trust(worst.id),
            "trust({}) = {} should beat trust({}) = {}",
            best.name,
            tf.source_trust(best.id),
            worst.name,
            tf.source_trust(worst.id)
        );
    }

    #[test]
    fn answers_beat_plain_counting_on_accuracy() {
        let data = MoviesSpec::small().generate(42);
        let mut tf = prepared(&data);
        let mut correct = 0usize;
        for q in &data.queries {
            let a = tf.answer(&data.graph, q);
            if a.values
                .iter()
                .any(|v| data.truth.is_correct(&q.entity, &q.attribute, v))
            {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / data.queries.len() as f64 > 0.6,
            "accuracy {correct}/{}",
            data.queries.len()
        );
    }

    #[test]
    fn empty_slot_answers_are_empty() {
        let data = MoviesSpec::small().generate(42);
        let mut tf = prepared(&data);
        let bogus = Query {
            id: 0,
            text: "?".into(),
            entity: "none".into(),
            attribute: "year".into(),
            gold: vec![],
        };
        assert!(tf.answer(&data.graph, &bogus).values.is_empty());
    }

    #[test]
    fn prepare_is_deterministic() {
        let data = MoviesSpec::small().generate(42);
        let a = prepared(&data);
        let b = prepared(&data);
        for s in &data.sources {
            assert_eq!(a.source_trust(s.id), b.source_trust(s.id));
        }
    }
}
