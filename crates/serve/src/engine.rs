//! The query engine: snapshot-bound pipelines, the L1 fast path,
//! worker-pool execution, and bounded admission with load shedding.
//!
//! Service time is accounted in *simulated* milliseconds, the same
//! clock the LLM meter charges, so it is deterministic: an L1 hit
//! costs [`RESULT_CACHE_HIT_MS`]; a miss costs the pipeline's metered
//! LLM time plus [`SERVE_OVERHEAD_MS`] of fixed per-request overhead.
//! The closed-loop simulator ([`crate::simloop`]) consumes these
//! per-request times to model queueing; the engine itself never reads
//! a wall clock.

use crate::cache::{result_key, CacheStack};
use crate::epoch::EpochSnapshot;
use crate::workload::{RequestKind, ServeRequest};
use multirag_core::{LoopConfig, MklgpPipeline, PipelineAnswer};
use multirag_faults::{FaultPlan, RetryPolicy};
use multirag_kg::SourceId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};

/// Simulated cost of answering straight from the L1 result cache.
pub const RESULT_CACHE_HIT_MS: f64 = 0.05;

/// Fixed per-request overhead added to every full pipeline pass
/// (parsing, routing, cache bookkeeping) on top of metered LLM time.
pub const SERVE_OVERHEAD_MS: f64 = 0.2;

/// Tunables for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pool size for the concurrent paths.
    pub workers: usize,
    /// Bounded admission queue depth; a full queue sheds the request.
    pub queue_depth: usize,
    /// Per-request retry deadline budget (simulated ms) handed to the
    /// pipeline's [`RetryPolicy`].
    pub deadline_ms: f64,
    /// Optional fault plan the snapshot pipelines serve under.
    pub fault_plan: Option<FaultPlan>,
    /// Optional closed-loop budget (grade → escalate → regenerate);
    /// `None` serves single-pass. Escalation time is metered, so an
    /// enabled loop shows up directly in per-request `service_ms` and
    /// the closed-loop latency percentiles.
    pub loop_control: Option<LoopConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 8,
            deadline_ms: 20_000.0,
            fault_plan: None,
            loop_control: None,
        }
    }
}

/// What the engine decided about one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeVerdict {
    /// The pipeline produced an answer (possibly a structured
    /// abstention — abstaining is an answer, not an overload).
    Answered(PipelineAnswer),
    /// Shed at admission: the bounded queue was full.
    Overloaded,
}

/// One served (or shed) request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Stream sequence number of the request.
    pub seq: u32,
    /// The request's workload kind.
    pub kind: RequestKind,
    /// Outcome.
    pub verdict: ServeVerdict,
    /// Whether the L1 result cache short-circuited the pipeline.
    pub result_cache_hit: bool,
    /// Deterministic service time in simulated milliseconds (0 for
    /// shed requests — they never reach a worker).
    pub service_ms: f64,
}

/// Binds a reader pipeline to an epoch snapshot: frozen history from
/// the snapshot, the shared cache stack's L2/L3 levels, a retry
/// deadline from the config, and the config's fault plan if any.
pub fn snapshot_pipeline<'s>(
    snapshot: &'s EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
) -> MklgpPipeline<'s> {
    let mut pipeline = snapshot
        .pipeline()
        .with_confidence_memo(caches.memo.clone())
        .with_llm_response_cache(caches.llm.clone())
        .with_retry_policy(RetryPolicy::default().with_deadline_ms(config.deadline_ms));
    if let Some(plan) = &config.fault_plan {
        pipeline = pipeline.with_fault_plan(plan.clone());
    }
    if let Some(cfg) = config.loop_control {
        pipeline = pipeline.with_loop_control(cfg);
    }
    pipeline
}

/// Serves one request through an already-bound pipeline: L1 first,
/// full pipeline on a miss (storing the fresh answer back into L1).
pub fn serve_one(
    pipeline: &mut MklgpPipeline<'_>,
    caches: &CacheStack,
    request: &ServeRequest,
) -> ServeResponse {
    let key = result_key(&request.query);
    if let Some(answer) = caches.result.get(key) {
        return ServeResponse {
            seq: request.seq,
            kind: request.kind,
            verdict: ServeVerdict::Answered(answer),
            result_cache_hit: true,
            service_ms: RESULT_CACHE_HIT_MS,
        };
    }
    let sim_before = pipeline.llm().usage().simulated_ms;
    let answer = pipeline.answer(&request.query);
    let sim_after = pipeline.llm().usage().simulated_ms;
    caches.result.put(key, answer.clone());
    ServeResponse {
        seq: request.seq,
        kind: request.kind,
        verdict: ServeVerdict::Answered(answer),
        result_cache_hit: false,
        service_ms: (sim_after - sim_before) + SERVE_OVERHEAD_MS,
    }
}

/// The sequential oracle: one pipeline, requests in stream order.
/// Fully deterministic — this is the path whose per-request
/// `service_ms` feeds the closed-loop simulator, and the reference the
/// concurrent paths are checked against.
pub fn serve_sequential(
    snapshot: &EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
    requests: &[ServeRequest],
) -> Vec<ServeResponse> {
    let mut pipeline = snapshot_pipeline(snapshot, caches, config);
    requests
        .iter()
        .map(|request| serve_one(&mut pipeline, caches, request))
        .collect()
}

/// [`serve_sequential`] with an observer attached to the pipeline:
/// every *computed* (non-L1-hit) answer records a [`QueryTrace`] into
/// `obs`'s capture buffer, in stream order — the feed the SLO layer's
/// tail-latency attribution splits into per-stage costs. Answers are
/// byte-identical to the unobserved oracle.
///
/// [`QueryTrace`]: multirag_obs::QueryTrace
pub fn serve_sequential_observed(
    snapshot: &EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
    requests: &[ServeRequest],
    obs: &multirag_obs::ObsHandle,
) -> Vec<ServeResponse> {
    let mut pipeline = snapshot_pipeline(snapshot, caches, config).with_observer(obs.clone());
    requests
        .iter()
        .map(|request| serve_one(&mut pipeline, caches, request))
        .collect()
}

/// Serves the stream on a worker pool, one snapshot-bound pipeline per
/// worker (built once per worker, not per request), all workers sharing
/// the cache stack, behind a bounded admission queue: the caller
/// thread `try_send`s every request; when the queue is full the
/// request is shed immediately as [`ServeVerdict::Overloaded`] instead
/// of blocking the stream. The caller then serves as one of the
/// `workers`, so a batch starts on a thread that is already running
/// and spawns one thread fewer. Responses come back in stream order.
/// Answers are deterministic; which worker served which request (and
/// therefore per-worker LLM meters) is not. A `queue_depth` of at
/// least the batch length admits every request.
///
/// The queue carries request indices and workers borrow the requests,
/// so every request is freed on the calling thread after the batch. A
/// worker that freed requests the caller allocated would contend with
/// the caller in the allocator while the caller is still serving.
pub fn serve_with_admission(
    snapshot: &EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
    requests: Vec<ServeRequest>,
) -> Vec<ServeResponse> {
    serve_with_admission_gated(snapshot, caches, config, requests, None)
}

/// Implementation of [`serve_with_admission`] with an optional start
/// gate: while the gate reads `true`, workers do not pull from the
/// queue, so admission outcomes depend only on `queue_depth` — the
/// deterministic overload path the tests pin down. The gate drops
/// after the last `try_send`.
fn serve_with_admission_gated(
    snapshot: &EpochSnapshot,
    caches: &CacheStack,
    config: &ServeConfig,
    requests: Vec<ServeRequest>,
    gate: Option<&AtomicBool>,
) -> Vec<ServeResponse> {
    // Any slot a worker failed to fill (a poisoned cell, a dead
    // worker) degrades to a shed verdict for *that* request instead of
    // a panic.
    let shed = |request: &ServeRequest| ServeResponse {
        seq: request.seq,
        kind: request.kind,
        verdict: ServeVerdict::Overloaded,
        result_cache_hit: false,
        service_ms: 0.0,
    };
    let (tx, rx) = sync_channel::<usize>(config.queue_depth.max(1));
    let rx = Mutex::new(rx);
    let mut results: Vec<Option<ServeResponse>> = (0..requests.len()).map(|_| None).collect();
    let out = Mutex::new(&mut results);
    let store = |idx: usize, response: ServeResponse| {
        if let Some(slot) = out.lock().get_mut(idx) {
            *slot = Some(response);
        }
    };
    // One worker: a snapshot-bound pipeline serving until the queue
    // closes. A panicking cell ends only its own worker; the others
    // keep draining the queue.
    let work = || {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let mut pipeline = snapshot_pipeline(snapshot, caches, config);
            loop {
                if let Some(gate) = gate {
                    while gate.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                }
                let message = rx.lock().recv();
                let Ok(idx) = message else {
                    break;
                };
                if let Some(request) = requests.get(idx) {
                    store(idx, serve_one(&mut pipeline, caches, request));
                }
            }
        }));
    };
    std::thread::scope(|scope| {
        for _ in 1..config.workers.max(1) {
            scope.spawn(work);
        }
        for (idx, request) in requests.iter().enumerate() {
            match tx.try_send(idx) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    // Full: the admission queue shed the request.
                    // Disconnected: every worker is gone (cannot happen
                    // while the caller holds the receiver, but
                    // degrading to a shed is strictly better than
                    // crashing serving).
                    store(idx, shed(request));
                }
            }
        }
        drop(tx);
        if let Some(gate) = gate {
            gate.store(false, Ordering::SeqCst);
        }
        work();
    });
    results
        .into_iter()
        .zip(&requests)
        .map(|(slot, request)| slot.unwrap_or_else(|| shed(request)))
        .collect()
}

/// Recomputes the pipeline's Step-5 credibility feedback from served
/// responses. Serving freezes the history store (answers must be pure
/// per epoch), so the signal the batch pipeline would have recorded
/// inline is gathered here instead and folded in at the next publish.
///
/// Counts one observation per *computed* answer — L1 hits replay an
/// already-counted computation and shed requests never produced one.
/// Comparison is representation-insensitive ([`Value::answer_key`]),
/// matching the evaluation metrics. The tally accumulates in a
/// `BTreeMap` and comes back in source-id order by construction, so
/// folding order never depends on serving interleavings.
pub fn feedback_tally(responses: &[ServeResponse]) -> Vec<(SourceId, usize, usize)> {
    let mut per_source: BTreeMap<SourceId, (usize, usize)> = BTreeMap::new();
    for response in responses {
        let ServeVerdict::Answered(answer) = &response.verdict else {
            continue;
        };
        if response.result_cache_hit || answer.abstained {
            continue;
        }
        for node in &answer.kept {
            let correct = answer
                .values
                .iter()
                .any(|v| v.answer_key() == node.value.answer_key());
            let entry = per_source.entry(node.source).or_insert((0, 0));
            entry.1 += 1;
            if correct {
                entry.0 += 1;
            }
        }
    }
    per_source
        .into_iter()
        .map(|(source, (correct, total))| (source, correct, total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::IndexWriter;
    use crate::workload::build_workload;
    use multirag_core::MultiRagConfig;
    use multirag_datasets::movies::MoviesSpec;
    use std::sync::Arc;

    fn snapshot() -> (Arc<EpochSnapshot>, Vec<multirag_datasets::Query>) {
        let data = MoviesSpec::small().generate(42);
        let mut writer = IndexWriter::new(data.graph, MultiRagConfig::default(), 42);
        (writer.publish(), data.queries)
    }

    #[test]
    fn l1_hit_short_circuits_and_replays_the_same_answer() {
        let (snap, queries) = snapshot();
        let caches = CacheStack::new();
        let config = ServeConfig::default();
        let stream = build_workload(&queries[..2], 2, 42);
        let mut pipeline = snapshot_pipeline(&snap, &caches, &config);
        let first = serve_one(&mut pipeline, &caches, &stream[0]);
        let again = serve_one(&mut pipeline, &caches, &stream[0]);
        assert!(!first.result_cache_hit);
        assert!(again.result_cache_hit);
        assert_eq!(again.service_ms, RESULT_CACHE_HIT_MS);
        assert_eq!(again.verdict, first.verdict);
        assert!(first.service_ms > again.service_ms);
    }

    #[test]
    fn concurrent_answers_match_the_sequential_oracle() {
        let (snap, queries) = snapshot();
        let config = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let stream = build_workload(&queries, queries.len() * 2, 42);
        // Separate cache stacks: shared caches would let one path's
        // fill order change the other's hit pattern mid-comparison.
        let oracle = serve_sequential(&snap, &CacheStack::new(), &config, &stream);
        let config = ServeConfig {
            queue_depth: stream.len(),
            ..config
        };
        let served = serve_with_admission(&snap, &CacheStack::new(), &config, stream);
        assert_eq!(oracle.len(), served.len());
        for (o, s) in oracle.iter().zip(&served) {
            assert_eq!(o.seq, s.seq);
            // Cache-hit flags may differ (fill order is scheduling-
            // dependent) but the answers themselves must not.
            assert_eq!(o.verdict, s.verdict, "answer divergence at seq {}", o.seq);
        }
    }

    #[test]
    fn bounded_admission_sheds_deterministically_when_gated() {
        let (snap, queries) = snapshot();
        let config = ServeConfig {
            workers: 2,
            queue_depth: 3,
            ..ServeConfig::default()
        };
        let stream = build_workload(&queries, 8, 42);
        let gate = AtomicBool::new(true);
        let responses =
            serve_with_admission_gated(&snap, &CacheStack::new(), &config, stream, Some(&gate));
        let shed: Vec<u32> = responses
            .iter()
            .filter(|r| r.verdict == ServeVerdict::Overloaded)
            .map(|r| r.seq)
            .collect();
        // Workers are gated until admission finishes, so exactly
        // queue_depth requests are accepted and the rest shed, in order.
        assert_eq!(shed, vec![3, 4, 5, 6, 7]);
        for response in &responses[..3] {
            assert!(matches!(response.verdict, ServeVerdict::Answered(_)));
            assert!(response.service_ms > 0.0);
        }
    }

    #[test]
    fn ungated_admission_serves_everything_under_light_load() {
        let (snap, queries) = snapshot();
        let config = ServeConfig {
            workers: 4,
            queue_depth: 64,
            ..ServeConfig::default()
        };
        let stream = build_workload(&queries, queries.len(), 42);
        let responses = serve_with_admission(&snap, &CacheStack::new(), &config, stream);
        assert!(responses
            .iter()
            .all(|r| matches!(r.verdict, ServeVerdict::Answered(_))));
    }

    #[test]
    fn admission_answers_match_the_sequential_oracle_at_any_worker_count() {
        let (snap, queries) = snapshot();
        let stream = build_workload(&queries, queries.len() * 2, 42);
        let oracle = serve_sequential(&snap, &CacheStack::new(), &ServeConfig::default(), &stream);
        // One worker is the calling thread alone; more add spawned ones.
        for workers in [1, 2, 4] {
            let config = ServeConfig {
                workers,
                queue_depth: stream.len(),
                ..ServeConfig::default()
            };
            let served = serve_with_admission(&snap, &CacheStack::new(), &config, stream.clone());
            assert_eq!(served.len(), oracle.len());
            for (o, s) in oracle.iter().zip(&served) {
                assert_eq!(o.seq, s.seq);
                assert_eq!(o.verdict, s.verdict, "workers {workers}, seq {}", o.seq);
            }
        }
    }

    #[test]
    fn loop_control_cost_lands_in_service_time() {
        let (snap, queries) = snapshot();
        let stream = build_workload(&queries, queries.len(), 42);
        let serve = |loop_control: Option<LoopConfig>| {
            let config = ServeConfig {
                loop_control,
                ..ServeConfig::default()
            };
            serve_sequential(&snap, &CacheStack::new(), &config, &stream)
        };
        let plain = serve(None);
        let looped = serve(Some(LoopConfig::default().with_max_attempts(2)));
        let total = |rs: &[ServeResponse]| rs.iter().map(|r| r.service_ms).sum::<f64>();
        assert!(
            total(&looped) > total(&plain),
            "metered grading must surface in service_ms: {} vs {}",
            total(&looped),
            total(&plain)
        );
        // Grading never flips a healthy answer's values.
        for (p, l) in plain.iter().zip(&looped) {
            let (ServeVerdict::Answered(a), ServeVerdict::Answered(b)) = (&p.verdict, &l.verdict)
            else {
                panic!("light load must answer everything");
            };
            if !a.hallucinated {
                assert_eq!(a.values, b.values);
            }
        }
    }

    #[test]
    fn feedback_tally_counts_each_computation_once_and_sorts() {
        let (snap, queries) = snapshot();
        let caches = CacheStack::new();
        let config = ServeConfig::default();
        // Serve the dataset twice: the second pass is all L1 hits.
        let mut stream = build_workload(&queries, queries.len(), 42);
        let mut second = stream.clone();
        for request in &mut second {
            request.seq += stream.len() as u32;
        }
        stream.extend(second);
        let responses = serve_sequential(&snap, &caches, &config, &stream);
        assert!(responses
            .iter()
            .skip(queries.len())
            .all(|r| r.result_cache_hit));
        let tally = feedback_tally(&responses);
        assert!(!tally.is_empty(), "answered queries must produce feedback");
        let only_first = feedback_tally(&responses[..queries.len()]);
        assert_eq!(tally, only_first, "L1 replays must not double-count");
        let mut sorted = tally.clone();
        sorted.sort_by_key(|&(source, _, _)| source);
        assert_eq!(tally, sorted);
        for &(_, correct, total) in &tally {
            assert!(correct <= total);
        }
    }
}
