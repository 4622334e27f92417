//! Sharded cluster harness — proves 1-node == N-node answer parity
//! and measures throughput scaling across shard counts.
//!
//! The run tells one story in six acts:
//!
//! 1. **Parity** — each of the four datasets round-trips through
//!    `kg::persist`, publishes epoch 1, and serves the same workload on
//!    1-, 2-, 4- and 8-node clusters. Every verdict and the full
//!    abstain tally must match the single-node baseline bit for bit:
//!    because every node answers from the same shared snapshot, slot
//!    routing shifts *load*, never *answers*.
//! 2. **Router determinism** — the movies workload is routed on 1, 2
//!    and 4 router workers; the scheduling-independent trace (seq,
//!    shard, failover, verdict) must be byte-identical across counts.
//! 3. **Merge tier** — hot slots fan out to every replica and the
//!    per-shard verdicts reduce through the cross-shard merge; replicas
//!    must agree unanimously and the merged answer must equal the
//!    owner's.
//! 4. **Degraded serving** — a deterministic node-outage plan knocks
//!    nodes out per window; the router fails over to replicas, answers
//!    stay identical to the healthy baseline, and a fully-dark slot
//!    surfaces as a structured abstain — never a panic.
//! 5. **Rebalance & resize** — epoch 2 publishes into the cluster
//!    (stable ownership under an unchanged ring) and the fleet grows
//!    4 → 8 with bounded slot movement; parity holds through both.
//! 6. **Scaling** — the discrete-event fleet simulator replays the
//!    oracle's service times at a millions-of-queries replicated
//!    workload across shard counts; 8 shards must clear 3× the 1-shard
//!    throughput, and the cluster-wide histogram must equal the merge
//!    of the per-shard histograms.
//!
//! `results/cluster.json` is byte-identical for a fixed seed — the CI
//! cluster-smoke job runs this binary twice and diffs the artifacts.
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_cluster
//! ```

use std::sync::Arc;

use multirag_bench::{all_datasets, check_schema, seed};
use multirag_cluster::{
    cluster_closed_loop, outcome_json, serve_cluster, serve_fanout, Cluster, ClusterResponse,
    ClusterSimOutcome, SlotRouter, DEFAULT_VNODES,
};
use multirag_core::MultiRagConfig;
use multirag_datasets::Query;
use multirag_eval::table::Table;
use multirag_faults::FaultPlan;
use multirag_kg::persist;
use multirag_obs::json::{fmt_f64, JsonObj};
use multirag_obs::shard_series;
use multirag_serve::{
    build_workload, tally_answers, AnswerTally, EpochSnapshot, IndexWriter, ServeConfig,
    ServeRequest, ServeResponse, ServeVerdict, TripleUpdate,
};

/// Replication factor: every slot has an owner plus one replica.
const REPLICATION: usize = 2;
/// Topologies checked for answer parity against the 1-node baseline.
const TOPOLOGIES: [u32; 3] = [2, 4, 8];
/// Simulated requests driven through the scaling closed loop.
const SIM_TOTAL: usize = 1_000_000;

/// FNV-1a over a byte string — a stable fingerprint for the routing
/// trace, small enough to embed in the artifact.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The scheduling-independent routing trace: everything about a routed
/// batch except cache-hit flags and metered service times, which
/// legitimately vary with worker interleaving while the *answers* do
/// not.
fn routing_trace(responses: &[ClusterResponse]) -> String {
    let mut trace = String::new();
    for r in responses {
        let shard = r.shard.map_or(-1i64, i64::from);
        trace.push_str(&format!(
            "{}|{}|{}|{:?}\n",
            r.response.seq, shard, r.failover, r.response.verdict
        ));
    }
    trace
}

fn inner_responses(responses: &[ClusterResponse]) -> Vec<ServeResponse> {
    responses.iter().map(|r| r.response.clone()).collect()
}

fn tally(responses: &[ClusterResponse], wave: &[ServeRequest]) -> AnswerTally {
    let inner = inner_responses(responses);
    let queries: Vec<&Query> = wave.iter().map(|r| &r.query).collect();
    tally_answers(&inner, &queries)
}

/// Asserts verdict-for-verdict parity between two routed batches (the
/// shards serving each request may differ; the answers may not).
fn assert_parity(label: &str, baseline: &[ClusterResponse], other: &[ClusterResponse]) {
    assert_eq!(
        baseline.len(),
        other.len(),
        "{label}: batch length diverged"
    );
    for (a, b) in baseline.iter().zip(other) {
        assert_eq!(
            a.response.verdict, b.response.verdict,
            "{label}: verdict diverged at seq {}",
            a.response.seq
        );
    }
}

fn publish_dataset(
    data: &multirag_datasets::MultiSourceDataset,
    config: MultiRagConfig,
    seed: u64,
) -> (IndexWriter, Arc<EpochSnapshot>) {
    let dump = persist::dump(&data.graph);
    let mut writer = IndexWriter::warm_start(&dump, config, seed).expect("persist dump loads");
    let snap = writer.publish();
    (writer, snap)
}

fn main() {
    let seed = seed();
    let scale = multirag_bench::scale();
    let scale_str = format!("{scale:?}");
    let config = MultiRagConfig::default();
    let serve_cfg = ServeConfig {
        workers: 2,
        queue_depth: 8,
        ..ServeConfig::default()
    };
    println!(
        "Cluster harness: 4 datasets @ {scale_str}, seed {seed}, replication {REPLICATION}, \
         {DEFAULT_VNODES} vnodes"
    );

    // Act 1: answer + abstain-tally parity on every dataset, every
    // topology.
    let mut dataset_rows: Vec<String> = Vec::new();
    let mut movies: Option<(IndexWriter, Arc<EpochSnapshot>, Vec<ServeRequest>)> = None;
    for data in all_datasets() {
        let (writer, snap) = publish_dataset(&data, config, seed);
        let wave = build_workload(&data.queries, data.queries.len() * 2, seed);
        let baseline_cluster = Cluster::new(snap.clone(), 1, serve_cfg.clone(), REPLICATION);
        let baseline = serve_cluster(&baseline_cluster, &wave, 1);
        let base_tally = tally(&baseline, &wave);
        let mut spread_at_8 = 0usize;
        for shards in TOPOLOGIES {
            let cluster = Cluster::new(snap.clone(), shards, serve_cfg.clone(), REPLICATION);
            let routed = serve_cluster(&cluster, &wave, 1);
            assert_parity(
                &format!("{} @ {shards} shards", data.name),
                &baseline,
                &routed,
            );
            assert_eq!(
                tally(&routed, &wave),
                base_tally,
                "{} @ {shards} shards: abstain tally diverged from 1-node",
                data.name
            );
            if shards == 8 {
                let mut used: Vec<u32> = routed.iter().filter_map(|r| r.shard).collect();
                used.sort_unstable();
                used.dedup();
                spread_at_8 = used.len();
            }
        }
        println!(
            "parity: {:<8} {} requests identical on 1/2/4/8 nodes ({} of 8 shards used, \
             {} answered, {} abstained)",
            data.name,
            wave.len(),
            spread_at_8,
            base_tally.answered,
            base_tally.abstained
        );
        dataset_rows.push(
            JsonObj::new()
                .str("dataset", &data.name)
                .usize("requests", wave.len())
                .usize("answered", base_tally.answered)
                .usize("abstained", base_tally.abstained)
                .usize("correct", base_tally.correct)
                .usize("shards_used_at_8", spread_at_8)
                .bool("parity", true)
                .build(),
        );
        if data.name == "movies" {
            movies = Some((writer, snap, wave));
        }
    }
    let (mut writer, snap, wave) = movies.expect("movies dataset present");

    // Act 2: the routing trace is a pure function of the request
    // stream — byte-identical across router worker counts.
    let mut cluster4 = Cluster::new(snap.clone(), 4, serve_cfg.clone(), REPLICATION);
    let mut router = SlotRouter::new(&cluster4);
    let slots: Vec<String> = wave.iter().map(|r| router.slot_of(&r.query)).collect();
    cluster4.mark_hot_slots(slots.iter().map(String::as_str), 4);
    let mut canonical: Option<(String, Vec<ClusterResponse>)> = None;
    for workers in [1usize, 2, 4] {
        let routed = serve_cluster(&cluster4, &wave, workers);
        let trace = routing_trace(&routed);
        match &canonical {
            None => canonical = Some((trace, routed)),
            Some((expected, _)) => assert_eq!(
                expected, &trace,
                "routing trace diverged at {workers} router workers"
            ),
        }
    }
    let (trace, healthy4) = canonical.expect("router identity pass ran");
    let trace_hash = fnv1a(trace.as_bytes());
    println!(
        "router: trace byte-identical across 1/2/4 workers (fnv1a {trace_hash:016x}, {} requests)",
        wave.len()
    );

    // Act 3: merge tier — fan a sample of requests out to every
    // replica and reduce; replicas must agree unanimously.
    let mut fanout_checked = 0usize;
    let mut matched_claims = 0usize;
    for request in wave.iter().take(8) {
        let (merged, verdicts) = serve_fanout(&cluster4, &mut router, request);
        let merged = merged.expect("healthy fleet yields a merged verdict");
        assert!(
            merged.unanimous,
            "replicas disagreed on seq {} — shared-snapshot parity broken",
            request.seq
        );
        assert_eq!(merged.shards, verdicts.len());
        for (shard, answer) in &verdicts {
            assert_eq!(
                answer, &merged.answer,
                "shard {shard} verdict diverged from the merged answer at seq {}",
                request.seq
            );
        }
        fanout_checked += 1;
        matched_claims += merged.matched_claims;
    }
    println!(
        "merge: {fanout_checked} fan-outs unanimous across {REPLICATION} replicas \
         ({matched_claims} homologous claims matched)"
    );

    // Act 4: degraded serving under deterministic node outages.
    let outage_rate = 0.3;
    let degraded_cluster = Cluster::new(snap.clone(), 4, serve_cfg.clone(), REPLICATION)
        .with_outages(FaultPlan::node_outages(seed, outage_rate), 8);
    let degraded = serve_cluster(&degraded_cluster, &wave, 1);
    let failovers = degraded.iter().filter(|r| r.failover).count();
    let unrouted = degraded.iter().filter(|r| r.shard.is_none()).count();
    assert!(
        failovers > 0,
        "a {outage_rate} outage rate must force at least one failover"
    );
    for (healthy, down) in healthy4.iter().zip(&degraded) {
        match down.shard {
            // A routed request answers exactly like the healthy fleet,
            // even when a replica served it.
            Some(_) => assert_eq!(
                healthy.response.verdict, down.response.verdict,
                "failover changed an answer at seq {}",
                down.response.seq
            ),
            // A fully-dark slot degrades to a structured abstain.
            None => {
                let ServeVerdict::Answered(answer) = &down.response.verdict else {
                    panic!("unrouted request shed instead of abstaining");
                };
                assert!(answer.abstained, "unrouted request must abstain");
            }
        }
    }
    println!(
        "degraded: {} requests @ outage rate {outage_rate} — {failovers} failovers, \
         {unrouted} structured abstains, zero divergent answers",
        degraded.len()
    );

    // Act 5: epoch 2 publishes into the cluster, then the fleet grows.
    let mut applied = 0u32;
    for (i, request) in wave.iter().take(wave.len() / 4).enumerate() {
        if let Some(gold) = request.query.gold.first() {
            // Corroborate known slots from a late-joining stream
            // source: the slot universe is unchanged, so ownership must
            // be perfectly stable under the unchanged ring.
            writer.apply(&TripleUpdate {
                entity: request.query.entity.clone(),
                relation: request.query.attribute.clone(),
                value: gold.clone(),
                source: "movies-stream-0".to_string(),
                chunk: 9_000 + i as u32,
            });
            applied += 1;
        }
    }
    let snap2 = writer.publish();
    let total_slots = cluster4.assignments().len();
    let (publish_moved, publish_added) = cluster4.publish(snap2.clone());
    assert_eq!(
        publish_moved, 0,
        "an unchanged ring must keep every existing slot in place on publish"
    );
    assert_eq!(
        cluster4
            .metrics()
            .snapshot()
            .counter("cluster_rebalance_total"),
        1
    );
    let epoch2_baseline = serve_cluster(
        &Cluster::new(snap2.clone(), 1, serve_cfg.clone(), REPLICATION),
        &wave,
        1,
    );
    let epoch2_routed = serve_cluster(&cluster4, &wave, 1);
    assert_parity("epoch 2 @ 4 shards", &epoch2_baseline, &epoch2_routed);

    let resize_moved = cluster4.resize(8);
    assert_eq!(cluster4.shards(), 8);
    assert!(resize_moved > 0, "growing the fleet must move some slots");
    assert!(
        resize_moved as usize <= total_slots * 65 / 100,
        "consistent hashing must bound movement under growth \
         ({resize_moved} of {total_slots} moved)"
    );
    let resized_routed = serve_cluster(&cluster4, &wave, 1);
    assert_parity("post-resize @ 8 shards", &epoch2_baseline, &resized_routed);
    println!(
        "rebalance: publish applied {applied} updates, moved {publish_moved}/+{publish_added} \
         slots; resize 4→8 moved {resize_moved}/{total_slots} slots; parity held through both"
    );

    // Act 6: scaling — replay the oracle's service times through the
    // fleet simulator at SIM_TOTAL requests per shard count.
    let base_service_us: Vec<u64> = healthy4
        .iter()
        .map(|r| (r.response.service_ms * 1000.0).round().max(1.0) as u64)
        .collect();
    let mut outcomes: Vec<ClusterSimOutcome> = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        let ring = multirag_cluster::HashRing::new(shards, DEFAULT_VNODES, snap2.seed);
        let base_candidates: Vec<Vec<u32>> = slots
            .iter()
            .map(|slot| ring.candidates(slot, REPLICATION))
            .collect();
        let outcome = cluster_closed_loop(
            &base_service_us,
            &base_candidates,
            SIM_TOTAL,
            shards,
            64,
            2,
            serve_cfg.queue_depth,
            None,
        );
        // The merge-tier identity, asserted on the real workload: the
        // cluster-wide histogram equals the merge of per-shard ones.
        let mut merged = multirag_obs::LogHistogram::new();
        for h in &outcome.per_shard {
            merged.merge(h);
        }
        assert_eq!(
            merged, outcome.overall,
            "per-shard histograms must merge to the cluster-wide histogram"
        );
        outcomes.push(outcome);
    }
    let qps1 = outcomes[0].point.throughput_qps;
    let qps8 = outcomes[3].point.throughput_qps;
    let speedup = qps8 / qps1.max(f64::MIN_POSITIVE);
    assert!(
        speedup >= 3.0,
        "8 shards must clear 3× the 1-shard throughput (got {speedup:.2}×)"
    );

    // A degraded operating point for the report: same workload, 4
    // shards, nodes dropping per 50 ms outage window.
    let degraded_plan = FaultPlan::node_outages(seed, 0.2);
    let ring4 = multirag_cluster::HashRing::new(4, DEFAULT_VNODES, snap2.seed);
    let degraded_candidates: Vec<Vec<u32>> = slots
        .iter()
        .map(|slot| ring4.candidates(slot, REPLICATION))
        .collect();
    let sim_degraded = cluster_closed_loop(
        &base_service_us,
        &degraded_candidates,
        SIM_TOTAL,
        4,
        64,
        2,
        serve_cfg.queue_depth,
        Some((&degraded_plan, 50_000)),
    );
    assert!(
        sim_degraded.point.failovers > 0,
        "the degraded sim must exercise failover"
    );

    // Per-shard queue-depth gauges from the 8-shard operating point,
    // on the same registry the routing counters live in.
    let eight = &outcomes[3];
    for (shard, &peak) in eight.per_shard_peak_queue.iter().enumerate() {
        cluster4.metrics().gauge_set(
            &shard_series("cluster_shard_queue_depth", shard as u64),
            peak as f64,
        );
    }
    cluster4.export_ownership_metrics();
    let exposition = cluster4.metrics().snapshot().to_prometheus();
    for series in [
        "cluster_shard_queries_total{shard=\"000\"}",
        "cluster_shard_queue_depth{shard=\"007\"}",
        "cluster_shard_owned_slots{shard=\"003\"}",
        "cluster_rebalance_total",
        "cluster_resize_total",
        "cluster_failover_total",
    ] {
        assert!(
            exposition.contains(series),
            "metrics exposition is missing {series}"
        );
    }
    let q0 = exposition
        .find("cluster_shard_queries_total{shard=\"000\"}")
        .expect("shard 000 series present");
    let q3 = exposition
        .find("cluster_shard_queries_total{shard=\"003\"}")
        .expect("shard 003 series present");
    assert!(
        q0 < q3,
        "zero-padded shard labels must keep the exposition in shard order"
    );

    let mut table = Table::new(
        "Cluster scaling (simulated time, replicated movies workload)",
        &[
            "Shards", "Done", "Shed", "QPS", "p50/us", "p95/us", "p99/us", "Speedup",
        ],
    );
    for outcome in &outcomes {
        let p = &outcome.point;
        table.row(vec![
            p.shards.to_string(),
            p.completed.to_string(),
            p.shed.to_string(),
            format!("{:.0}", p.throughput_qps),
            p.p50_us.to_string(),
            p.p95_us.to_string(),
            p.p99_us.to_string(),
            format!("{:.2}x", p.throughput_qps / qps1.max(f64::MIN_POSITIVE)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "scaling: 8 shards = {speedup:.2}x the 1-shard throughput over {SIM_TOTAL} requests; \
         degraded point: {} failovers, {} unrouted",
        sim_degraded.point.failovers, sim_degraded.point.unrouted
    );

    let json = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &scale_str)
        .u64("vnodes", DEFAULT_VNODES as u64)
        .usize("replication", REPLICATION)
        .arr("datasets", dataset_rows)
        .bool("router_identity", true)
        .str("trace_fnv1a", &format!("{trace_hash:016x}"))
        .raw(
            "merge",
            &JsonObj::new()
                .usize("fanout_checked", fanout_checked)
                .usize("matched_claims", matched_claims)
                .bool("unanimous", true)
                .build(),
        )
        .raw(
            "degraded",
            &JsonObj::new()
                .usize("requests", degraded.len())
                .f64("outage_rate", outage_rate)
                .usize("failovers", failovers)
                .usize("unrouted", unrouted)
                .bool("answers_match_healthy", true)
                .build(),
        )
        .raw(
            "rebalance",
            &JsonObj::new()
                .u64("publish_moved", publish_moved)
                .u64("publish_added", publish_added)
                .u64("resize_moved", resize_moved)
                .usize("total_slots", total_slots)
                .build(),
        )
        .arr("scaling", outcomes.iter().map(outcome_json))
        .raw("sim_degraded", &outcome_json(&sim_degraded))
        .raw("speedup_8x", &fmt_f64(speedup))
        .build();
    let out_dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("cluster.json"), &json))
    {
        println!("note: could not write results/cluster.json: {err}");
    } else {
        println!(
            "wrote results/cluster.json ({} bytes; bit-identical for a fixed seed)",
            json.len()
        );
    }
    check_schema("cluster", &json);
}
