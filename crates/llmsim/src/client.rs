//! The [`MockLlm`] facade: one object through which every pipeline —
//! MultiRAG and all baselines — talks to "the LLM".
//!
//! Besides dispatching to the extraction / logic / authority /
//! generation modules, the client meters usage: calls, input and output
//! tokens, and a **simulated latency** derived from a CPU-inference
//! cost model. Wall-clock on this machine says nothing about LLM cost,
//! so the time columns of Tables II/III combine measured compute time
//! with this simulated LLM time (documented in EXPERIMENTS.md).

use crate::authority::{auth_llm, c_llm, AuthorityFeatures, AuthorityWeights};
use crate::error::LlmError;
use crate::extract::{extract_triples, ExtractedTriple};
use crate::halluc::{
    generate_with_hallucination, ContextProfile, GeneratedAnswer, HallucinationParams,
};
use crate::logic::{generate_logic_form, LogicForm};
use crate::ner::{extract_entities, Mention};
use crate::respcache::{CachedResponse, KeyBuilder, LlmResponseCache};
use crate::schema::Schema;
use multirag_faults::{
    ms_to_us, us_to_ms, FaultDecision, FaultKind, FaultPlan, RetryOutcome, RetryPolicy,
};
use multirag_kg::Value;
use multirag_retrieval::text::raw_tokens;
use std::sync::Arc;

/// Which fault-plan channel a guarded call consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallChannel {
    /// Ordinary LLM work: extraction, logic forms, generation.
    Generation,
    /// Support grading — its own key family so chaos sweeps can kill
    /// graders and generators independently.
    Grading,
}

/// Latency model approximating a local Llama3-8B-class deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-call overhead in milliseconds (prompt assembly, KV
    /// warmup).
    pub base_ms: f64,
    /// Milliseconds per input (prompt) token.
    pub ms_per_input_token: f64,
    /// Milliseconds per generated token.
    pub ms_per_output_token: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            base_ms: 120.0,
            ms_per_input_token: 0.9,
            ms_per_output_token: 18.0,
        }
    }
}

/// Accumulated usage across a client's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LlmUsage {
    /// Number of LLM calls.
    pub calls: u64,
    /// Prompt tokens consumed.
    pub input_tokens: u64,
    /// Generated tokens.
    pub output_tokens: u64,
    /// Simulated inference time in milliseconds.
    pub simulated_ms: f64,
    /// Retry attempts beyond the first, across all calls.
    pub retries: u64,
    /// Calls that failed even after retrying.
    pub failed_calls: u64,
}

impl LlmUsage {
    /// Simulated seconds.
    pub fn simulated_secs(&self) -> f64 {
        self.simulated_ms / 1000.0
    }

    /// Adds another usage meter into this one — every field is a plain
    /// sum. The closed-loop query sweep (`eval::loopsweep`) meters each
    /// cell separately and merge-reduces in query order, so a parallel
    /// sweep reports exactly the usage a serial sweep would.
    pub fn merge(&mut self, other: &LlmUsage) {
        self.calls += other.calls;
        self.input_tokens += other.input_tokens;
        self.output_tokens += other.output_tokens;
        self.simulated_ms += other.simulated_ms;
        self.retries += other.retries;
        self.failed_calls += other.failed_calls;
    }
}

/// The deterministic mock LLM.
///
/// # Examples
///
/// ```
/// use multirag_llmsim::{MockLlm, Schema};
///
/// let mut schema = Schema::new();
/// schema.add_entity_verbatim("CA981");
/// schema.add_relation("status");
/// let mut llm = MockLlm::new(schema, 42);
/// let triples = llm.extract_triples("The status of CA981 is delayed.");
/// assert_eq!(triples[0].predicate, "status");
/// assert!(llm.usage().calls > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MockLlm {
    seed: u64,
    /// Shared by every clone.
    schema: Arc<Schema>,
    cost: CostModel,
    halluc: HallucinationParams,
    authority_weights: AuthorityWeights,
    usage: LlmUsage,
    faults: Option<FaultPlan>,
    retry: RetryPolicy,
    cache: Option<LlmResponseCache>,
}

impl MockLlm {
    /// Creates a client over `schema` with the given seed. Passing an
    /// `Arc<Schema>` shares it instead of copying it.
    pub fn new(schema: impl Into<Arc<Schema>>, seed: u64) -> Self {
        Self {
            seed,
            schema: schema.into(),
            cost: CostModel::default(),
            halluc: HallucinationParams::default(),
            authority_weights: AuthorityWeights::default(),
            usage: LlmUsage::default(),
            faults: None,
            retry: RetryPolicy::default(),
            cache: None,
        }
    }

    /// Overrides the hallucination parameters.
    pub fn with_hallucination_params(mut self, params: HallucinationParams) -> Self {
        self.halluc = params;
        self
    }

    /// Subjects the `try_*` calls to a fault plan. Without one (or with
    /// a healthy plan) they behave exactly like their infallible
    /// counterparts.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the retry policy used when a fault plan makes a call
    /// fail.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Puts a shared response cache in front of the fallible calls
    /// ([`try_logic_form`], [`try_score_authority`],
    /// [`try_generate_answer`]). Keys hash the complete call input
    /// (including the seed and schema fingerprint), so a hit is
    /// guaranteed equivalent to recomputing. A hit is not a call: it
    /// skips metering and the fault plan entirely, and the cache's own
    /// [`hits`] counter is its one record.
    ///
    /// [`try_logic_form`]: MockLlm::try_logic_form
    /// [`try_score_authority`]: MockLlm::try_score_authority
    /// [`try_generate_answer`]: MockLlm::try_generate_answer
    /// [`hits`]: multirag_kg::SharedCache::hits
    pub fn with_response_cache(mut self, cache: LlmResponseCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Looks `key` up in the response cache; `None` without a cache.
    fn cached(&self, key: Option<u64>) -> Option<CachedResponse> {
        self.cache.as_ref()?.get(key?)
    }

    /// Stores a freshly computed response under `key`, if caching.
    fn store(&self, key: Option<u64>, response: impl FnOnce() -> CachedResponse) {
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.put(key, response());
        }
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The schema the client extracts against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The seed (for deriving per-query sub-keys).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Usage accumulated so far.
    pub fn usage(&self) -> LlmUsage {
        self.usage
    }

    /// Resets the usage meter (between experiment phases).
    pub fn reset_usage(&mut self) {
        self.usage = LlmUsage::default();
    }

    fn meter(&mut self, input_text_tokens: usize, output_tokens: usize) {
        // Quantized to integer µs, matching the ledger RetryPolicy::run
        // keeps — so a guarded call under a healthy plan charges the
        // bit-identical amount this unguarded path does.
        let call_ms = us_to_ms(ms_to_us(
            self.cost.base_ms
                + self.cost.ms_per_input_token * input_text_tokens as f64
                + self.cost.ms_per_output_token * output_tokens as f64,
        ));
        self.usage.calls += 1;
        self.usage.input_tokens += input_text_tokens as u64;
        self.usage.output_tokens += output_tokens as u64;
        self.usage.simulated_ms += call_ms;
    }

    /// Meters one logical call under the fault plan: retries failed
    /// attempts with seeded backoff (charged to `simulated_ms`, never
    /// slept), inflates spiking attempts by the plan's latency factor,
    /// and surfaces a typed error once retries or the deadline budget
    /// run out. Without a plan this is exactly [`MockLlm::meter`].
    fn meter_guarded(
        &mut self,
        call_key: &str,
        input_text_tokens: usize,
        output_tokens: usize,
    ) -> Result<(), LlmError> {
        self.meter_guarded_on(
            CallChannel::Generation,
            call_key,
            input_text_tokens,
            output_tokens,
        )
    }

    fn meter_guarded_on(
        &mut self,
        channel: CallChannel,
        call_key: &str,
        input_text_tokens: usize,
        output_tokens: usize,
    ) -> Result<(), LlmError> {
        let Some(plan) = self.faults.clone() else {
            self.meter(input_text_tokens, output_tokens);
            return Ok(());
        };
        let nominal_ms = self.cost.base_ms
            + self.cost.ms_per_input_token * input_text_tokens as f64
            + self.cost.ms_per_output_token * output_tokens as f64;
        let (outcome, total_ms) = self.retry.run(plan.seed, call_key, |attempt| {
            let decision = match channel {
                CallChannel::Generation => plan.llm_call(call_key, attempt),
                CallChannel::Grading => plan.grader_call(call_key, attempt),
            };
            match decision {
                FaultDecision::Inject(FaultKind::LlmFailure)
                | FaultDecision::Inject(FaultKind::GraderFailure) => None,
                FaultDecision::Inject(FaultKind::LlmLatencySpike) => {
                    Some(nominal_ms * plan.latency_spike_factor(call_key, attempt))
                }
                _ => Some(nominal_ms),
            }
        });
        // The prompt is sent (and paid for) on every outcome; output
        // tokens only materialise on success.
        self.usage.calls += 1;
        self.usage.input_tokens += input_text_tokens as u64;
        self.usage.simulated_ms += total_ms;
        match outcome {
            RetryOutcome::Succeeded { attempt } => {
                self.usage.retries += u64::from(attempt);
                self.usage.output_tokens += output_tokens as u64;
                Ok(())
            }
            RetryOutcome::Exhausted { attempts } => {
                self.usage.retries += u64::from(attempts.saturating_sub(1));
                self.usage.failed_calls += 1;
                Err(LlmError::Exhausted {
                    call_key: call_key.to_string(),
                    attempts,
                })
            }
            RetryOutcome::DeadlineExceeded { attempts } => {
                self.usage.retries += u64::from(attempts.saturating_sub(1));
                self.usage.failed_calls += 1;
                Err(LlmError::DeadlineExceeded {
                    call_key: call_key.to_string(),
                    attempts,
                    budget_ms: self.retry.deadline_ms,
                })
            }
        }
    }

    /// NER call (the `ner.py` prompt).
    pub fn extract_entities(&mut self, text: &str) -> Vec<Mention> {
        let mentions = extract_entities(text, &self.schema);
        self.meter(raw_tokens(text).len() + 64, mentions.len() * 6);
        mentions
    }

    /// Triple-extraction call (the `triple.py` prompt).
    pub fn extract_triples(&mut self, text: &str) -> Vec<ExtractedTriple> {
        let triples = extract_triples(text, &self.schema);
        self.meter(raw_tokens(text).len() + 96, triples.len() * 12);
        triples
    }

    /// Logic-form generation (Algorithm 2 step 1).
    pub fn logic_form(&mut self, query: &str) -> Option<LogicForm> {
        let lf = generate_logic_form(query, &self.schema);
        self.meter(raw_tokens(query).len() + 48, 16);
        lf
    }

    /// Eq. 10 squashing, exposed for the confidence module.
    pub fn squash_authority(&self, c: f64, c_mean: f64, beta: f64) -> f64 {
        auth_llm(c, c_mean, beta)
    }

    /// Answer generation under the hallucination law. `query_key` must
    /// uniquely identify the query so repeated pipelines face the same
    /// noise; `context_tokens` sizes the simulated prompt.
    pub fn generate_answer(
        &mut self,
        query_key: &str,
        faithful: Vec<Value>,
        distractors: &[Value],
        profile: &ContextProfile,
        context_tokens: usize,
    ) -> GeneratedAnswer {
        let out = generate_with_hallucination(
            self.seed,
            query_key,
            faithful,
            distractors,
            profile,
            &self.halluc,
        );
        self.meter(context_tokens + 128, out.values.len() * 8 + 12);
        out
    }

    /// A free-form "reasoning" call that only burns simulated tokens —
    /// used by CoT-style baselines whose intermediate text we don't
    /// model.
    pub fn reason(&mut self, prompt_tokens: usize, output_tokens: usize) {
        self.meter(prompt_tokens, output_tokens);
    }

    // ---- Fallible variants, subject to the fault plan -----------------
    //
    // Each takes a `call_key` uniquely identifying the logical call so
    // the fault plan's verdict (and any retry backoff) is replayable.
    // With no fault plan configured they are bit-identical to the
    // infallible calls above.

    /// Fallible [`MockLlm::logic_form`].
    pub fn try_logic_form(
        &mut self,
        call_key: &str,
        query: &str,
    ) -> Result<Option<LogicForm>, LlmError> {
        let key = self.cache.is_some().then(|| {
            KeyBuilder::new("lf", self.seed)
                .str(call_key)
                .u64(self.schema.fingerprint())
                .str(query)
                .build()
        });
        if let Some(CachedResponse::Logic(lf)) = self.cached(key) {
            return Ok(lf);
        }
        let lf = generate_logic_form(query, &self.schema);
        self.meter_guarded(call_key, raw_tokens(query).len() + 48, 16)?;
        self.store(key, || CachedResponse::Logic(lf.clone()));
        Ok(lf)
    }

    /// Expert authority assessment of one node (`C_LLM(v)`), subject
    /// to the fault plan.
    pub fn try_score_authority(
        &mut self,
        node_key: &str,
        features: &AuthorityFeatures,
    ) -> Result<f64, LlmError> {
        let key = self.cache.is_some().then(|| {
            // Every field, destructured without `..`: a field added
            // later must fail to compile here, not drop out of the key.
            let AuthorityFeatures {
                degree,
                max_degree,
                type_consistency,
                path_support,
                source_reputation,
            } = *features;
            let AuthorityWeights {
                degree: w_degree,
                type_consistency: w_type_consistency,
                path_support: w_path_support,
                source_reputation: w_source_reputation,
                noise,
            } = self.authority_weights;
            KeyBuilder::new("auth", self.seed)
                .str(node_key)
                .u64(degree as u64)
                .u64(max_degree as u64)
                .f64(type_consistency)
                .f64(path_support)
                .f64(source_reputation)
                .f64(w_degree)
                .f64(w_type_consistency)
                .f64(w_path_support)
                .f64(w_source_reputation)
                .f64(noise)
                .build()
        });
        if let Some(CachedResponse::Authority(c)) = self.cached(key) {
            return Ok(c);
        }
        let c = c_llm(features, &self.authority_weights, self.seed, node_key);
        self.meter_guarded(&format!("auth:{node_key}"), 96, 4)?;
        self.store(key, || CachedResponse::Authority(c));
        Ok(c)
    }

    /// Fallible [`MockLlm::generate_answer`]. The fault-plan call key is
    /// derived from `query_key`.
    pub fn try_generate_answer(
        &mut self,
        query_key: &str,
        faithful: Vec<Value>,
        distractors: &[Value],
        profile: &ContextProfile,
        context_tokens: usize,
    ) -> Result<GeneratedAnswer, LlmError> {
        let key = self.cache.is_some().then(|| {
            let ContextProfile {
                conflict_ratio,
                irrelevance_ratio,
                coverage,
                claims,
            } = *profile;
            let HallucinationParams {
                base,
                w_conflict,
                w_irrelevance,
                w_missing,
                max,
            } = self.halluc;
            // `faithful.len()` marks where the distractors begin.
            faithful
                .iter()
                .chain(distractors)
                .fold(
                    KeyBuilder::new("gen", self.seed)
                        .str(query_key)
                        .f64(conflict_ratio)
                        .f64(irrelevance_ratio)
                        .f64(coverage)
                        .u64(claims as u64)
                        .f64(base)
                        .f64(w_conflict)
                        .f64(w_irrelevance)
                        .f64(w_missing)
                        .f64(max)
                        .u64(context_tokens as u64)
                        .u64(faithful.len() as u64),
                    KeyBuilder::value,
                )
                .build()
        });
        if let Some(CachedResponse::Answer(out)) = self.cached(key) {
            return Ok(out);
        }
        let out = generate_with_hallucination(
            self.seed,
            query_key,
            faithful,
            distractors,
            profile,
            &self.halluc,
        );
        self.meter_guarded(
            &format!("gen:{query_key}"),
            context_tokens + 128,
            out.values.len() * 8 + 12,
        )?;
        self.store(key, || CachedResponse::Answer(out.clone()));
        Ok(out)
    }

    /// One metered support-grading call. The containment verdict itself
    /// is computed deterministically by the caller (interned claim-id
    /// set comparison — the mock has no judgement to add); this call
    /// charges the simulated cost of asking an LLM judge and consults
    /// the fault plan's grader channel ([`FaultPlan::grader_call`]).
    /// `Ok(())` means the grader ran and the caller's verdict stands; a
    /// typed error means the grader died and the control loop must fall
    /// back to its single-pass verdict.
    pub fn try_grade_support(
        &mut self,
        call_key: &str,
        context_tokens: usize,
        claim_count: usize,
    ) -> Result<(), LlmError> {
        self.meter_guarded_on(
            CallChannel::Grading,
            call_key,
            context_tokens + claim_count * 12 + 64,
            8,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_entity_verbatim("CA981");
        s.add_relation("status");
        s
    }

    #[test]
    fn usage_meters_every_call() {
        let mut llm = MockLlm::new(schema(), 42);
        assert_eq!(llm.usage().calls, 0);
        llm.extract_entities("CA981 was fine");
        llm.extract_triples("The status of CA981 is delayed.");
        llm.logic_form("What is the status of CA981?");
        let usage = llm.usage();
        assert_eq!(usage.calls, 3);
        assert!(usage.input_tokens > 0);
        assert!(usage.simulated_ms >= 3.0 * CostModel::default().base_ms);
    }

    #[test]
    fn reset_usage_zeroes_the_meter() {
        let mut llm = MockLlm::new(schema(), 42);
        llm.reason(100, 50);
        assert!(llm.usage().simulated_ms > 0.0);
        llm.reset_usage();
        assert_eq!(llm.usage(), LlmUsage::default());
    }

    #[test]
    fn cost_model_scales_latency() {
        let mut fast = MockLlm::new(schema(), 1);
        fast.cost = CostModel {
            base_ms: 1.0,
            ms_per_input_token: 0.0,
            ms_per_output_token: 0.0,
        };
        let mut slow = MockLlm::new(schema(), 1);
        fast.reason(1000, 100);
        slow.reason(1000, 100);
        assert!(slow.usage().simulated_ms > fast.usage().simulated_ms * 10.0);
    }

    #[test]
    fn same_seed_same_answers() {
        let profile = ContextProfile {
            conflict_ratio: 0.7,
            irrelevance_ratio: 0.3,
            coverage: 0.8,
            claims: 4,
        };
        let run = |seed| {
            let mut llm = MockLlm::new(schema(), seed);
            llm.generate_answer(
                "q1",
                vec![Value::from("delayed")],
                &[Value::from("on-time")],
                &profile,
                200,
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn different_seeds_can_differ() {
        let profile = ContextProfile {
            conflict_ratio: 0.9,
            irrelevance_ratio: 0.5,
            coverage: 0.3,
            claims: 4,
        };
        let fire_count = (0..64)
            .filter(|&seed| {
                let mut llm = MockLlm::new(schema(), seed);
                llm.generate_answer(
                    "q1",
                    vec![Value::from("a")],
                    &[Value::from("b")],
                    &profile,
                    100,
                )
                .hallucinated
            })
            .count();
        assert!(fire_count > 10 && fire_count < 64);
    }

    #[test]
    fn squash_authority_matches_eq10() {
        let llm = MockLlm::new(schema(), 1);
        assert!((llm.squash_authority(0.5, 0.5, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn simulated_seconds_conversion() {
        let usage = LlmUsage {
            calls: 1,
            simulated_ms: 2500.0,
            ..LlmUsage::default()
        };
        assert!((usage.simulated_secs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn healthy_fault_plan_is_bitwise_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut llm = MockLlm::new(schema(), 42);
            if let Some(p) = plan {
                llm = llm.with_fault_plan(p);
            }
            let features = AuthorityFeatures {
                degree: 3,
                max_degree: 10,
                type_consistency: 0.8,
                path_support: 0.5,
                source_reputation: 0.6,
            };
            llm.try_score_authority("n1", &features).unwrap();
            llm.try_logic_form("q1", "What is the status of CA981?")
                .unwrap();
            llm.usage()
        };
        assert_eq!(run(None), run(Some(FaultPlan::healthy(42))));
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let plan = FaultPlan {
            llm_failure_rate: 1.0,
            ..FaultPlan::healthy(7)
        };
        let mut llm = MockLlm::new(schema(), 7).with_fault_plan(plan);
        let err = llm
            .try_logic_form("q1", "What is the status of CA981?")
            .unwrap_err();
        assert_eq!(
            err,
            LlmError::Exhausted {
                call_key: "q1".into(),
                attempts: 3
            }
        );
        let usage = llm.usage();
        assert_eq!(usage.calls, 1);
        assert_eq!(usage.failed_calls, 1);
        assert_eq!(usage.retries, 2);
        assert_eq!(usage.output_tokens, 0, "no output tokens on failure");
        assert!(usage.simulated_ms > 0.0, "failed attempts still cost time");
    }

    #[test]
    fn deadline_budget_cuts_retries_short() {
        let plan = FaultPlan {
            llm_failure_rate: 1.0,
            ..FaultPlan::healthy(7)
        };
        let mut llm = MockLlm::new(schema(), 7)
            .with_fault_plan(plan)
            .with_retry_policy(RetryPolicy::default().with_deadline_ms(150.0));
        let err = llm
            .try_logic_form("q1", "What is the status of CA981?")
            .unwrap_err();
        assert!(
            matches!(err, LlmError::DeadlineExceeded { budget_ms, .. } if budget_ms == 150.0),
            "err={err:?}"
        );
    }

    #[test]
    fn retries_recover_and_charge_backoff() {
        let plan = FaultPlan {
            llm_failure_rate: 0.5,
            ..FaultPlan::healthy(13)
        };
        // Find a call that fails at attempt 0 and recovers at attempt 1.
        let key = (0..64)
            .map(|i| format!("call{i}"))
            .find(|k| {
                plan.llm_call(k, 0) == FaultDecision::Inject(FaultKind::LlmFailure)
                    && plan.llm_call(k, 1) == FaultDecision::Healthy
            })
            .expect("some call recovers on retry");
        let mut faulty = MockLlm::new(schema(), 13).with_fault_plan(plan);
        let mut clean = MockLlm::new(schema(), 13);
        let got = faulty
            .try_logic_form(&key, "What is the status of CA981?")
            .unwrap();
        let want = clean
            .try_logic_form(&key, "What is the status of CA981?")
            .unwrap();
        assert_eq!(got, want, "retried call returns the same answer");
        assert_eq!(faulty.usage().retries, 1);
        assert_eq!(faulty.usage().failed_calls, 0);
        assert!(
            faulty.usage().simulated_ms > clean.usage().simulated_ms,
            "retry burns backoff plus the failed attempt's work"
        );
    }

    #[test]
    fn faulted_usage_is_deterministic() {
        let run = || {
            let mut llm = MockLlm::new(schema(), 21)
                .with_fault_plan(FaultPlan::uniform(21, 0.3))
                .with_retry_policy(RetryPolicy::default());
            for i in 0..20 {
                let _ = llm.try_logic_form(&format!("t{i}"), "What is the status of CA981?");
                let features = AuthorityFeatures {
                    degree: 3,
                    max_degree: 10,
                    type_consistency: 0.8,
                    path_support: 0.5,
                    source_reputation: 0.6,
                };
                let _ = llm.try_score_authority(&format!("n{i}"), &features);
            }
            llm.usage()
        };
        // Bit-identical across replays, including the f64 meter.
        assert_eq!(run(), run());
    }

    #[test]
    fn response_cache_serves_repeats_without_metering() {
        let cache = LlmResponseCache::new();
        let mut llm = MockLlm::new(schema(), 42).with_response_cache(cache.clone());
        let first = llm
            .try_logic_form("q1", "What is the status of CA981?")
            .unwrap();
        let cold = llm.usage();
        assert_eq!(cache.hits(), 0);
        let second = llm
            .try_logic_form("q1", "What is the status of CA981?")
            .unwrap();
        assert_eq!(first, second, "cached response is the computed one");
        let warm = llm.usage();
        assert_eq!(warm.calls, cold.calls, "a hit is not a call");
        assert_eq!(warm.simulated_ms, cold.simulated_ms, "a hit burns no time");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn cached_answers_match_fresh_ones_exactly() {
        let profile = ContextProfile {
            conflict_ratio: 0.7,
            irrelevance_ratio: 0.3,
            coverage: 0.8,
            claims: 4,
        };
        let faithful = vec![Value::from("delayed")];
        let distractors = [Value::from("on-time")];
        let mut plain = MockLlm::new(schema(), 5);
        let want = plain
            .try_generate_answer("q1", faithful.clone(), &distractors, &profile, 200)
            .unwrap();
        let cache = LlmResponseCache::new();
        let mut cached = MockLlm::new(schema(), 5).with_response_cache(cache.clone());
        let miss = cached
            .try_generate_answer("q1", faithful.clone(), &distractors, &profile, 200)
            .unwrap();
        let hit = cached
            .try_generate_answer("q1", faithful, &distractors, &profile, 200)
            .unwrap();
        assert_eq!(want, miss);
        assert_eq!(want, hit);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn changed_inputs_miss_instead_of_serving_stale_answers() {
        let profile = ContextProfile {
            conflict_ratio: 0.7,
            irrelevance_ratio: 0.3,
            coverage: 0.8,
            claims: 4,
        };
        let cache = LlmResponseCache::new();
        let mut llm = MockLlm::new(schema(), 5).with_response_cache(cache.clone());
        llm.try_generate_answer("q1", vec![Value::from("a")], &[], &profile, 200)
            .unwrap();
        // Same query key, different context: must not hit.
        llm.try_generate_answer("q1", vec![Value::from("b")], &[], &profile, 200)
            .unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2);
        // A schema change re-namespaces logic-form entries.
        llm.try_logic_form("q2", "What is the status of CA981?")
            .unwrap();
        let mut grown = schema();
        grown.add_relation("gate");
        let mut llm = MockLlm::new(grown, 5).with_response_cache(cache.clone());
        llm.try_logic_form("q2", "What is the status of CA981?")
            .unwrap();
        assert_eq!(cache.hits(), 0, "schema changed, no hit");
    }

    #[test]
    fn every_operand_field_is_part_of_the_key() {
        let cache = LlmResponseCache::new();
        let client = || MockLlm::new(schema(), 9).with_response_cache(cache.clone());
        let mut llm = client();

        let features = AuthorityFeatures {
            degree: 3,
            max_degree: 10,
            type_consistency: 0.8,
            path_support: 0.5,
            source_reputation: 0.6,
        };
        llm.try_score_authority("n1", &features).unwrap();
        for changed in [
            AuthorityFeatures {
                degree: 4,
                ..features
            },
            AuthorityFeatures {
                max_degree: 11,
                ..features
            },
            AuthorityFeatures {
                type_consistency: 0.7,
                ..features
            },
            AuthorityFeatures {
                path_support: 0.4,
                ..features
            },
            AuthorityFeatures {
                source_reputation: 0.5,
                ..features
            },
        ] {
            llm.try_score_authority("n1", &changed).unwrap();
            assert_eq!(cache.hits(), 0, "changed features must miss: {changed:?}");
        }
        llm.try_score_authority("n1", &features).unwrap();
        assert_eq!(cache.hits(), 1, "the same features must hit");

        let profile = ContextProfile {
            conflict_ratio: 0.7,
            irrelevance_ratio: 0.3,
            coverage: 0.8,
            claims: 4,
        };
        let (a, b, c) = (Value::from("a"), Value::from("b"), Value::from("c"));
        let generate = |llm: &mut MockLlm,
                        faithful: &[Value],
                        distractors: &[Value],
                        profile: &ContextProfile| {
            llm.try_generate_answer("q1", faithful.to_vec(), distractors, profile, 200)
                .unwrap();
        };
        let (faithful, distractors) = ([a.clone(), b.clone()], [c.clone()]);
        generate(&mut llm, &faithful, &distractors, &profile);
        for changed in [
            ContextProfile {
                conflict_ratio: 0.6,
                ..profile
            },
            ContextProfile {
                irrelevance_ratio: 0.2,
                ..profile
            },
            ContextProfile {
                coverage: 0.9,
                ..profile
            },
            ContextProfile {
                claims: 5,
                ..profile
            },
        ] {
            generate(&mut llm, &faithful, &distractors, &changed);
            assert_eq!(cache.hits(), 1, "a changed profile must miss: {changed:?}");
        }
        let params = HallucinationParams::default();
        for changed in [
            HallucinationParams {
                base: 0.04,
                ..params
            },
            HallucinationParams {
                w_conflict: 0.5,
                ..params
            },
            HallucinationParams {
                w_irrelevance: 0.2,
                ..params
            },
            HallucinationParams {
                w_missing: 0.4,
                ..params
            },
            HallucinationParams { max: 0.9, ..params },
        ] {
            let mut other = client().with_hallucination_params(changed);
            generate(&mut other, &faithful, &distractors, &profile);
            assert_eq!(cache.hits(), 1, "changed parameters must miss: {changed:?}");
        }
        // One value moved across the faithful/distractor boundary.
        generate(&mut llm, &[a], &[b, c], &profile);
        assert_eq!(cache.hits(), 1, "a moved value must miss");
        generate(&mut llm, &faithful, &distractors, &profile);
        assert_eq!(cache.hits(), 2, "the same context must hit");
    }

    #[test]
    fn cache_hits_bypass_the_fault_plan() {
        let healthy_then_dead = |cache: LlmResponseCache| {
            let mut llm = MockLlm::new(schema(), 11).with_response_cache(cache);
            let warm = llm
                .try_logic_form("q1", "What is the status of CA981?")
                .unwrap();
            let plan = FaultPlan {
                llm_failure_rate: 1.0,
                ..FaultPlan::healthy(11)
            };
            llm = llm.with_fault_plan(plan);
            (
                warm,
                llm.try_logic_form("q1", "What is the status of CA981?"),
            )
        };
        let (warm, under_faults) = healthy_then_dead(LlmResponseCache::new());
        // The cached response keeps serving through a total LLM outage.
        assert_eq!(under_faults.expect("served from cache"), warm);
    }

    #[test]
    fn grader_calls_are_metered_and_fault_isolated() {
        // A plan that kills every generator but no grader: grading
        // succeeds while generation dies, proving the channels are
        // independent.
        let plan = FaultPlan {
            llm_failure_rate: 1.0,
            ..FaultPlan::healthy(7)
        };
        let mut llm = MockLlm::new(schema(), 7).with_fault_plan(plan);
        llm.try_grade_support("q1", 200, 3).unwrap();
        let after_grade = llm.usage();
        assert_eq!(after_grade.calls, 1);
        assert!(after_grade.simulated_ms > 0.0);
        llm.try_logic_form("q1", "What is the status of CA981?")
            .unwrap_err();

        // And the inverse: a dead grader surfaces a typed error while
        // generation keeps working.
        let dead_grader = FaultPlan {
            grader_failure_rate: 1.0,
            ..FaultPlan::healthy(7)
        };
        let mut llm = MockLlm::new(schema(), 7).with_fault_plan(dead_grader);
        llm.try_logic_form("q1", "What is the status of CA981?")
            .unwrap();
        let err = llm.try_grade_support("q1", 200, 3).unwrap_err();
        assert_eq!(
            err,
            LlmError::Exhausted {
                call_key: "q1".into(),
                attempts: 3
            }
        );
        assert!(
            llm.usage().simulated_ms > 0.0,
            "a dead grader still burns its attempts' time"
        );
    }

    #[test]
    fn grader_cost_under_healthy_plan_matches_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut llm = MockLlm::new(schema(), 42);
            if let Some(p) = plan {
                llm = llm.with_fault_plan(p);
            }
            llm.try_grade_support("q1", 200, 3).unwrap();
            llm.usage()
        };
        assert_eq!(run(None), run(Some(FaultPlan::healthy(42))));
    }

    #[test]
    fn metered_charges_are_whole_microseconds() {
        let mut llm = MockLlm::new(schema(), 42);
        llm.reason(1000, 100);
        llm.extract_triples("The status of CA981 is delayed.");
        let ms = llm.usage().simulated_ms;
        assert_eq!(
            ms,
            us_to_ms(ms_to_us(ms)),
            "the meter accumulates exact µs: {ms}"
        );
    }

    #[test]
    fn latency_spikes_inflate_simulated_time() {
        let plan = FaultPlan {
            llm_latency_spike_rate: 1.0,
            ..FaultPlan::healthy(5)
        };
        let mut spiky = MockLlm::new(schema(), 5).with_fault_plan(plan);
        let mut clean = MockLlm::new(schema(), 5);
        spiky
            .try_logic_form("q1", "What is the status of CA981?")
            .unwrap();
        clean
            .try_logic_form("q1", "What is the status of CA981?")
            .unwrap();
        let ratio = spiky.usage().simulated_ms / clean.usage().simulated_ms;
        assert!(
            (4.0..16.0).contains(&ratio),
            "spike factor should be in [4, 16): {ratio}"
        );
    }
}
