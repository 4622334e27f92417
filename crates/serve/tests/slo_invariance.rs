//! Worker-count invariance for the SLO window pipeline: the verdict
//! stream a wave produces is identical at 1, 2 and 4 serve workers, so
//! the windowed SLO snapshots built from it are byte-identical too —
//! worker scheduling can never leak into burn-rate evaluation. Also
//! pins ingestion-order independence: feeding the same completions to
//! the engine reversed yields the same finalized outcome.

use multirag_core::MultiRagConfig;
use multirag_datasets::movies::MoviesSpec;
use multirag_datasets::spec::Scale;
use multirag_obs::slo::{Completion, SloEngine, SloSpec, WindowSnapshot};
use multirag_serve::{
    build_workload, serve_with_admission, CacheStack, IndexWriter, RequestKind, ServeConfig,
    ServeRequest, ServeResponse, ServeVerdict,
};

const SEED: u64 = 42;
/// One request arrival per 50 simulated ms.
const ARRIVAL_STEP_US: u64 = 50_000;

/// A deterministic completion stream derived only from fields that are
/// worker-count invariant: the request's query id and the verdict's
/// abstain/escalation outcome. Scheduling-dependent measurements
/// (wall time, cache-hit flags, per-worker meters) are deliberately
/// excluded — the production feed uses the discrete-event simulator's
/// timeline, which is deterministic for the same reason.
fn completions(
    wave: &[ServeRequest],
    responses: &[ServeResponse],
) -> Vec<(u64, Option<Completion>)> {
    wave.iter()
        .zip(responses)
        .enumerate()
        .map(|(i, (request, response))| {
            let at_us = (i as u64 + 1) * ARRIVAL_STEP_US;
            let completion = match &response.verdict {
                ServeVerdict::Answered(answer) => {
                    let query_id = u64::from(request.query.id);
                    let escalations = u64::from(answer.escalation_attempts);
                    // Latency model keyed off verdict-invariant data;
                    // the spread guarantees some completions breach the
                    // spec target below.
                    let latency_us = 300_000 + (query_id % 9) * 120_000 + escalations * 400_000;
                    // `response.result_cache_hit` is a scheduling
                    // artifact (a repeat racing its fresh twin across
                    // workers may miss), so the window feed derives the
                    // cache flag from the request kind instead.
                    Some(Completion {
                        query_id,
                        latency_us,
                        abstained: answer.abstained,
                        cache_hit: matches!(request.kind, RequestKind::Repeat),
                        escalations,
                    })
                }
                ServeVerdict::Overloaded => None,
            };
            (at_us, completion)
        })
        .collect()
}

fn spec() -> SloSpec {
    SloSpec::default()
        .with_window_us(4 * ARRIVAL_STEP_US)
        .with_p99_target_us(900_000)
        .with_error_budget(0.05)
}

/// Serialized engine outcome: every window snapshot, transition and
/// alert summary, in canonical JSON.
fn outcome_json(stream: &[(u64, Option<Completion>)]) -> String {
    let mut engine = SloEngine::new(spec());
    for (at_us, completion) in stream {
        match completion {
            Some(c) => engine.record_completion(*at_us, c),
            None => engine.record_shed(*at_us),
        }
    }
    let outcome = engine.finalize();
    let windows: Vec<String> = outcome
        .windows
        .iter()
        .map(WindowSnapshot::to_json)
        .collect();
    let transitions: Vec<String> = outcome.transitions.iter().map(|t| t.to_json()).collect();
    let alerts: Vec<String> = outcome.alerts.iter().map(|a| a.to_json()).collect();
    format!(
        "{{\"windows\":[{}],\"transitions\":[{}],\"alerts\":[{}]}}",
        windows.join(","),
        transitions.join(","),
        alerts.join(",")
    )
}

#[test]
fn windowed_snapshots_are_worker_count_invariant() {
    let data = MoviesSpec::at_scale(Scale::small()).generate(SEED);
    let mut writer = IndexWriter::new(data.graph, MultiRagConfig::default(), SEED);
    let snapshot = writer.publish();
    let wave = build_workload(&data.queries, data.queries.len() * 2, SEED);

    let mut snapshots: Vec<(usize, String)> = Vec::new();
    let mut reference: Option<Vec<ServeResponse>> = None;
    for workers in [1usize, 2, 4] {
        // A queue as deep as the wave admits every request.
        let config = ServeConfig {
            workers,
            queue_depth: wave.len(),
            ..ServeConfig::default()
        };
        let responses = serve_with_admission(&snapshot, &CacheStack::new(), &config, wave.clone());
        assert_eq!(responses.len(), wave.len());
        if let Some(reference) = &reference {
            for (r, expected) in responses.iter().zip(reference) {
                assert_eq!(
                    r.verdict, expected.verdict,
                    "worker count changed a verdict at seq {}",
                    r.seq
                );
            }
        } else {
            reference = Some(responses.clone());
        }
        let stream = completions(&wave, &responses);
        snapshots.push((workers, outcome_json(&stream)));
    }

    let (_, canonical) = &snapshots[0];
    assert!(
        canonical.contains("\"window\""),
        "outcome must contain window snapshots"
    );
    for (workers, json) in &snapshots {
        assert_eq!(
            json, canonical,
            "windowed SLO snapshot diverged at {workers} workers"
        );
    }
}

#[test]
fn engine_ingestion_is_order_independent() {
    let data = MoviesSpec::at_scale(Scale::small()).generate(SEED);
    let mut writer = IndexWriter::new(data.graph, MultiRagConfig::default(), SEED);
    let snapshot = writer.publish();
    let wave = build_workload(&data.queries, data.queries.len() * 2, SEED);
    let config = ServeConfig {
        queue_depth: wave.len(),
        ..ServeConfig::default()
    };
    let responses = serve_with_admission(&snapshot, &CacheStack::new(), &config, wave.clone());

    let stream = completions(&wave, &responses);
    let mut reversed = stream.clone();
    reversed.reverse();
    assert_eq!(
        outcome_json(&stream),
        outcome_json(&reversed),
        "engine outcome must not depend on completion ingestion order"
    );
}
