//! Serving harness — deterministic closed-loop load over the
//! epoch-snapshotted serving stack.
//!
//! The run tells one story in four acts:
//!
//! 1. **Warm start & epoch 1** — the movies graph round-trips through
//!    `kg::persist`, an [`IndexWriter`] publishes epoch 1, and a
//!    three-wave workload (fresh / repeat / paraphrase) is served: a
//!    concurrent pass is checked answer-for-answer against the
//!    sequential oracle, and the oracle is checked against a cache-free
//!    batch pipeline (cache transparency + worker-pool correctness).
//! 2. **Closed-loop levels** — the oracle's per-request simulated
//!    service times drive the discrete-event closed loop at several
//!    concurrency levels; overload sheds deterministically.
//! 3. **Epoch 2** — serving feedback and streamed triple updates fold
//!    into a new epoch; epoch-scoped caches clear, the content-
//!    addressed LLM cache carries logic-form parses across the swap.
//! 4. **Brownout** — a fault plan plus a tight deadline hits epoch 2;
//!    cached answers keep serving through the brownout and failures
//!    surface as structured abstentions, never wrong answers.
//!
//! `results/serve.json` is byte-identical for a fixed seed — the CI
//! serve-smoke job runs this binary twice and diffs the artifacts.
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_serve
//! ```

use multirag_bench::{check_schema, seed};
use multirag_core::{match_homologous_tiered, MultiRagConfig};
use multirag_datasets::movies::MoviesSpec;
use multirag_datasets::Query;
use multirag_eval::table::Table;
use multirag_faults::FaultPlan;
use multirag_kg::persist;
use multirag_obs::Observer;
use multirag_serve::{
    build_workload, closed_loop_timeline, feedback_tally, level_row, serve_report_json,
    serve_sequential, serve_with_admission, tally_answers, CacheStack, EpochIndex, EpochSnapshot,
    EpochSummary, IndexWriter, LevelReport, ServeConfig, ServeReport, ServeRequest, ServeResponse,
    TripleUpdate,
};

fn summarize(snap: &EpochSnapshot) -> EpochSummary {
    let sets = match_homologous_tiered(&snap.state.tindex);
    EpochSummary {
        epoch: snap.epoch,
        triples: snap.graph.triple_count(),
        groups: sets.groups.len(),
        isolated: sets.isolated.len(),
        updates_applied: snap.updates_applied,
    }
}

/// Replays one oracle wave through the closed loop at `concurrency`
/// clients and tallies answer quality over the requests that survived
/// admission.
fn level(
    label: String,
    epoch: u64,
    fault_rate: f64,
    oracle: &[ServeResponse],
    wave: &[ServeRequest],
    concurrency: usize,
    config: &ServeConfig,
) -> LevelReport {
    let service_us: Vec<u64> = oracle
        .iter()
        .map(|r| (r.service_ms * 1000.0).round().max(1.0) as u64)
        .collect();
    let (point, timings) =
        closed_loop_timeline(&service_us, concurrency, config.workers, config.queue_depth);
    let mut served: Vec<ServeResponse> = Vec::new();
    let mut queries: Vec<&Query> = Vec::new();
    for ((response, request), timing) in oracle.iter().zip(wave).zip(&timings) {
        if timing.served {
            served.push(response.clone());
            queries.push(&request.query);
        }
    }
    let tally = tally_answers(&served, &queries);
    LevelReport {
        label,
        epoch,
        fault_rate,
        point,
        tally,
    }
}

fn main() {
    let seed = seed();
    let scale = multirag_bench::scale();
    let scale_str = format!("{scale:?}");
    let config = MultiRagConfig::default();
    let serve_cfg = ServeConfig {
        workers: 4,
        queue_depth: 8,
        ..ServeConfig::default()
    };
    println!(
        "Serving harness: movies @ {scale_str}, seed {seed}, {} workers, queue depth {}",
        serve_cfg.workers, serve_cfg.queue_depth
    );

    let data = MoviesSpec::at_scale(scale).generate(seed);

    // Act 1: warm-start the writer from a persisted dump — the path a
    // restarted server takes — and publish epoch 1.
    let dump = persist::dump(&data.graph);
    let mut writer = IndexWriter::warm_start(&dump, config, seed).expect("persist dump loads");
    assert_eq!(
        writer.graph().triple_count(),
        data.graph.triple_count(),
        "warm start must reconstruct every triple"
    );
    let index = EpochIndex::new(writer.publish());
    let obs = Observer::metrics_only();
    index.attach_metrics(obs.registry());
    let caches = CacheStack::new();
    caches.attach_metrics(obs.registry());

    let mut epochs: Vec<EpochSummary> = Vec::new();
    let mut levels: Vec<LevelReport> = Vec::new();

    let snap1 = index.load();
    epochs.push(summarize(&snap1));
    let wave1 = build_workload(&data.queries, data.queries.len() * 3, seed);

    // Worker-pool correctness: a concurrent pass (scratch caches, so
    // fill races cannot leak into the canonical counters; a queue as
    // deep as the wave, so nothing sheds) must produce exactly the
    // oracle's answers.
    let admit_all = ServeConfig {
        queue_depth: wave1.len(),
        ..serve_cfg.clone()
    };
    let concurrent = serve_with_admission(&snap1, &CacheStack::new(), &admit_all, wave1.clone());
    let oracle1 = serve_sequential(&snap1, &caches, &serve_cfg, &wave1);
    for (c, o) in concurrent.iter().zip(&oracle1) {
        assert_eq!(
            c.verdict, o.verdict,
            "concurrent serving diverged from the oracle at seq {}",
            o.seq
        );
    }
    println!(
        "epoch 1: {} requests, concurrent == sequential oracle",
        wave1.len()
    );

    // Cache transparency: a cache-free batch pipeline bound to the same
    // frozen epoch must emit identical answers.
    let mut parity_matches = true;
    let mut batch = snap1.pipeline();
    for (request, response) in wave1.iter().zip(&oracle1) {
        let expected = batch.answer(&request.query);
        let got = match &response.verdict {
            multirag_serve::ServeVerdict::Answered(answer) => answer,
            multirag_serve::ServeVerdict::Overloaded => {
                parity_matches = false;
                continue;
            }
        };
        if *got != expected {
            parity_matches = false;
        }
    }
    assert!(
        parity_matches,
        "served answers must match the cache-free batch pipeline"
    );
    let parity_queries = wave1.len();
    println!("parity: {parity_queries} answers identical to the batch pipeline");

    // Act 2: closed-loop levels over epoch 1.
    for concurrency in [1usize, 4, 16] {
        levels.push(level(
            format!("epoch1-c{concurrency}"),
            snap1.epoch,
            0.0,
            &oracle1,
            &wave1,
            concurrency,
            &serve_cfg,
        ));
    }

    // Act 3: fold serving feedback and streamed updates into epoch 2.
    let feedback = feedback_tally(&oracle1);
    writer.absorb_feedback(&feedback);
    let mut applied = 0u32;
    for (i, query) in data.queries.iter().take(data.queries.len() / 2).enumerate() {
        if let Some(gold) = query.gold.first() {
            // Corroborate known slots from a late-joining stream source:
            // no new entities or relations, so the extraction schema —
            // and with it the L3 cache namespace — is unchanged.
            writer.apply(&TripleUpdate {
                entity: query.entity.clone(),
                relation: query.attribute.clone(),
                value: gold.clone(),
                source: "movies-stream-0".to_string(),
                chunk: 9_000 + i as u32,
            });
            applied += 1;
        }
    }
    let snap2 = writer.publish_to(&index);
    caches.on_epoch_swap();
    epochs.push(summarize(&snap2));
    println!(
        "epoch 2: published after {} feedback entries + {applied} streamed updates",
        feedback.len()
    );

    let llm_hits_before = caches.counters().llm_hits;
    let wave2 = build_workload(&data.queries, data.queries.len() * 2, seed ^ 0x5EED);
    let oracle2 = serve_sequential(&snap2, &caches, &serve_cfg, &wave2);
    let llm_hits_after = caches.counters().llm_hits;
    assert!(
        llm_hits_after > llm_hits_before,
        "logic-form parses must carry across the epoch swap via the L3 cache"
    );
    levels.push(level(
        "epoch2-c4".to_string(),
        snap2.epoch,
        0.0,
        &oracle2,
        &wave2,
        4,
        &serve_cfg,
    ));

    // Act 4: brownout — faults plus a tight retry deadline on epoch 2.
    let fault_rate = 0.15;
    let fault_cfg = ServeConfig {
        deadline_ms: 1_500.0,
        fault_plan: Some(FaultPlan::uniform(seed, fault_rate)),
        ..serve_cfg.clone()
    };
    let wave3 = build_workload(&data.queries, data.queries.len() * 2, seed ^ 0xFA17);
    let oracle3 = serve_sequential(&snap2, &caches, &fault_cfg, &wave3);
    levels.push(level(
        "faults-c16".to_string(),
        snap2.epoch,
        fault_rate,
        &oracle3,
        &wave3,
        16,
        &fault_cfg,
    ));

    let cache = caches.counters();
    assert!(cache.result_hits > 0, "workload repeats must hit L1");
    assert!(cache.memo_hits > 0, "paraphrases must hit the L2 memo");
    assert!(cache.llm_hits > 0, "the L3 response cache must hit");

    let mut table = Table::new(
        "Serving levels (simulated time)",
        &[
            "Level", "C", "Done", "Shed", "QPS", "p50/ms", "p99/ms", "Abstain",
        ],
    );
    for l in &levels {
        table.row(level_row(l));
    }
    println!("{}", table.render());
    println!(
        "caches: L1 {}/{} L2 {}/{} L3 {}/{} (hits/misses)",
        cache.result_hits,
        cache.result_misses,
        cache.memo_hits,
        cache.memo_misses,
        cache.llm_hits,
        cache.llm_misses
    );

    let report = ServeReport {
        seed,
        scale: scale_str,
        dataset: data.name.clone(),
        workers: serve_cfg.workers,
        queue_depth: serve_cfg.queue_depth,
        deadline_ms: serve_cfg.deadline_ms,
        epochs,
        levels,
        cache,
        parity_matches,
        parity_queries,
    };
    let json = serve_report_json(&report);
    let out_dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("serve.json"), &json))
    {
        println!("note: could not write results/serve.json: {err}");
    } else {
        println!(
            "wrote results/serve.json ({} bytes; bit-identical for a fixed seed)",
            json.len()
        );
    }
    check_schema("serve", &json);
}
