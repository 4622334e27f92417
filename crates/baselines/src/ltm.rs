//! LTM — the Latent Truth Model (Zhao, Rubinstein, Gemmell & Han,
//! VLDB'12), a Bayesian probabilistic data-fusion method.
//!
//! Each claim's truth is a latent Bernoulli; each source has a
//! sensitivity (recall over true claims) and specificity (1 − false
//! positive rate over false claims), both Beta-distributed. We run the
//! collapsed EM variant: E-step computes truth posteriors from current
//! source quality; M-step re-estimates sensitivity / specificity from
//! the posteriors. Like TruthFinder, fusion is global.

use crate::common::{slot_claims, FusionMethod, MethodAnswer};
use multirag_datasets::Query;
use multirag_kg::{FxHashMap, KnowledgeGraph, Object, SourceId, Value};

/// Beta prior for sensitivity (alpha, beta).
const SENSITIVITY_PRIOR: (f64, f64) = (8.0, 2.0);
/// Beta prior for specificity (alpha, beta).
const SPECIFICITY_PRIOR: (f64, f64) = (4.0, 2.0);
/// Prior probability a claim is true.
const TRUTH_PRIOR: f64 = 0.5;
/// EM iterations.
const ITERATIONS: usize = 12;

type FactKey = (u32, u32, String);

/// The Latent Truth Model.
#[derive(Debug, Default)]
pub struct Ltm {
    posterior: FxHashMap<FactKey, f64>,
    sensitivity: FxHashMap<SourceId, f64>,
    specificity: FxHashMap<SourceId, f64>,
}

impl Ltm {
    /// Posterior truth of a fact (after prepare).
    pub fn truth_posterior(&self, key: &FactKey) -> f64 {
        self.posterior.get(key).copied().unwrap_or(0.0)
    }

    /// Estimated sensitivity of a source.
    pub fn sensitivity(&self, source: SourceId) -> f64 {
        self.sensitivity.get(&source).copied().unwrap_or(0.5)
    }
}

fn claim_value(kg: &KnowledgeGraph, object: &Object) -> Value {
    match object {
        Object::Entity(e) => Value::Str(kg.entity_name(*e).to_string()),
        Object::Literal(v) => v.clone(),
    }
}

impl FusionMethod for Ltm {
    fn name(&self) -> &'static str {
        "LTM"
    }

    fn prepare(&mut self, kg: &KnowledgeGraph) {
        // For each slot, the candidate facts and which sources assert
        // each; a source that covers the slot but asserts a different
        // value is a negative observation for the fact.
        let mut slot_facts: FxHashMap<(u32, u32), Vec<FactKey>> = FxHashMap::default();
        let mut asserters: FxHashMap<FactKey, Vec<SourceId>> = FxHashMap::default();
        let mut slot_sources: FxHashMap<(u32, u32), Vec<SourceId>> = FxHashMap::default();
        for (_, t) in kg.iter_triples() {
            let slot = (t.subject.0, t.predicate.0);
            let key = (
                t.subject.0,
                t.predicate.0,
                claim_value(kg, &t.object).canonical_key(),
            );
            let facts = slot_facts.entry(slot).or_default();
            if !facts.contains(&key) {
                facts.push(key.clone());
            }
            let list = asserters.entry(key).or_default();
            if !list.contains(&t.source) {
                list.push(t.source);
            }
            let covering = slot_sources.entry(slot).or_default();
            if !covering.contains(&t.source) {
                covering.push(t.source);
            }
        }

        let (sa, sb) = SENSITIVITY_PRIOR;
        let (pa, pb) = SPECIFICITY_PRIOR;
        let mut sens: FxHashMap<SourceId, f64> =
            kg.source_ids().map(|s| (s, sa / (sa + sb))).collect();
        let mut spec: FxHashMap<SourceId, f64> =
            kg.source_ids().map(|s| (s, pa / (pa + pb))).collect();
        let mut posterior: FxHashMap<FactKey, f64> = FxHashMap::default();

        for _ in 0..ITERATIONS {
            // E-step: truth posterior per fact.
            for (slot, facts) in &slot_facts {
                let covering = &slot_sources[slot];
                for key in facts {
                    let yes = &asserters[key];
                    let mut log_true = TRUTH_PRIOR.ln();
                    let mut log_false = (1.0 - TRUTH_PRIOR).ln();
                    for s in covering {
                        let asserted = yes.contains(s);
                        let se = sens[s].clamp(0.01, 0.99);
                        let sp = spec[s].clamp(0.01, 0.99);
                        if asserted {
                            log_true += se.ln();
                            log_false += (1.0 - sp).ln();
                        } else {
                            log_true += (1.0 - se).ln();
                            log_false += sp.ln();
                        }
                    }
                    let m = log_true.max(log_false);
                    let p = (log_true - m).exp() / ((log_true - m).exp() + (log_false - m).exp());
                    posterior.insert(key.clone(), p);
                }
            }
            // M-step: source quality from posteriors.
            let mut tp: FxHashMap<SourceId, f64> = FxHashMap::default();
            let mut fn_: FxHashMap<SourceId, f64> = FxHashMap::default();
            let mut fp: FxHashMap<SourceId, f64> = FxHashMap::default();
            let mut tn: FxHashMap<SourceId, f64> = FxHashMap::default();
            for (slot, facts) in &slot_facts {
                let covering = &slot_sources[slot];
                for key in facts {
                    let p = posterior[key];
                    let yes = &asserters[key];
                    for s in covering {
                        if yes.contains(s) {
                            *tp.entry(*s).or_insert(0.0) += p;
                            *fp.entry(*s).or_insert(0.0) += 1.0 - p;
                        } else {
                            *fn_.entry(*s).or_insert(0.0) += p;
                            *tn.entry(*s).or_insert(0.0) += 1.0 - p;
                        }
                    }
                }
            }
            for s in kg.source_ids() {
                let t_pos = tp.get(&s).copied().unwrap_or(0.0);
                let f_neg = fn_.get(&s).copied().unwrap_or(0.0);
                let f_pos = fp.get(&s).copied().unwrap_or(0.0);
                let t_neg = tn.get(&s).copied().unwrap_or(0.0);
                sens.insert(s, (t_pos + sa) / (t_pos + f_neg + sa + sb));
                spec.insert(s, (t_neg + pa) / (t_neg + f_pos + pa + pb));
            }
        }
        self.posterior = posterior;
        self.sensitivity = sens;
        self.specificity = spec;
    }

    fn answer(&mut self, kg: &KnowledgeGraph, query: &Query) -> MethodAnswer {
        let claims = slot_claims(kg, query);
        if claims.is_empty() {
            return MethodAnswer::default();
        }
        let domain = kg.resolve(kg.source(SourceId(0)).domain).to_string();
        let entity = kg.find_entity(&query.entity, &domain).expect("has claims");
        let relation = kg.find_relation(&query.attribute).expect("has claims");
        let mut out: Vec<(Value, f64)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in &claims {
            let key = (entity.0, relation.0, c.value.canonical_key());
            if !seen.insert(key.2.clone()) {
                continue;
            }
            out.push((c.value.clone(), self.truth_posterior(&key)));
        }
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.canonical_key().cmp(&b.0.canonical_key()))
        });
        // Truths are claims whose posterior clears 0.5 (or the single
        // best when nothing does).
        let values: Vec<Value> = if out.iter().any(|&(_, p)| p > 0.5) {
            out.into_iter()
                .filter(|&(_, p)| p > 0.5)
                .map(|(v, _)| v)
                .collect()
        } else {
            out.into_iter().take(1).map(|(v, _)| v).collect()
        };
        MethodAnswer {
            values,
            hallucinated: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_datasets::movies::MoviesSpec;

    #[test]
    fn posteriors_are_probabilities() {
        let data = MoviesSpec::small().generate(42);
        let mut ltm = Ltm::default();
        ltm.prepare(&data.graph);
        for p in ltm.posterior.values() {
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn majority_supported_facts_get_high_posterior() {
        let data = MoviesSpec::small().generate(42);
        let mut ltm = Ltm::default();
        ltm.prepare(&data.graph);
        // Gold facts asserted by most sources should mostly clear 0.5.
        let mut cleared = 0usize;
        let mut total = 0usize;
        for q in &data.queries {
            let claims = slot_claims(&data.graph, q);
            if claims.len() < 4 {
                continue;
            }
            let domain = "movies";
            let e = data.graph.find_entity(&q.entity, domain).unwrap();
            let r = data.graph.find_relation(&q.attribute).unwrap();
            for g in &q.gold {
                total += 1;
                let key = (e.0, r.0, g.canonical_key());
                if ltm.truth_posterior(&key) > 0.5 {
                    cleared += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            cleared as f64 / total as f64 > 0.5,
            "cleared {cleared}/{total}"
        );
    }

    #[test]
    fn reliable_sources_get_higher_sensitivity() {
        let data = MoviesSpec::small().generate(42);
        let mut ltm = Ltm::default();
        ltm.prepare(&data.graph);
        let mut infos = data.sources.clone();
        infos.sort_by(|a, b| a.reliability.partial_cmp(&b.reliability).unwrap());
        // Compare the mean of the top and bottom thirds (single pairs
        // are noisy under EM).
        let third = infos.len() / 3;
        let low: f64 = infos[..third]
            .iter()
            .map(|s| ltm.sensitivity(s.id))
            .sum::<f64>()
            / third as f64;
        let high: f64 = infos[infos.len() - third..]
            .iter()
            .map(|s| ltm.sensitivity(s.id))
            .sum::<f64>()
            / third as f64;
        assert!(high > low, "high {high} vs low {low}");
    }

    #[test]
    fn answers_are_reasonably_accurate() {
        let data = MoviesSpec::small().generate(42);
        let mut ltm = Ltm::default();
        ltm.prepare(&data.graph);
        let mut correct = 0usize;
        for q in &data.queries {
            let a = ltm.answer(&data.graph, q);
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
    fn empty_slots_yield_empty_answers() {
        let data = MoviesSpec::small().generate(42);
        let mut ltm = Ltm::default();
        ltm.prepare(&data.graph);
        let bogus = Query {
            id: 0,
            text: "?".into(),
            entity: "none".into(),
            attribute: "year".into(),
            gold: vec![],
        };
        assert!(ltm.answer(&data.graph, &bogus).values.is_empty());
    }
}
