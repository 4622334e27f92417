//! Scaling study behind the paper's Q5 complexity claims: MLG
//! construction is `O(n log n)`-ish in triples and per-query extraction
//! through the homologous index is independent of graph size, while the
//! unaggregated scan grows linearly — the mechanism that turns the
//! Flights dataset from "NAN" to seconds in Table III.
//!
//! Artifact: `results/repro_scaling.txt` holds the serve-path and
//! cluster tables with their notes. Both run on simulated time, so the
//! file is byte-stable for a fixed seed (CI runs the binary twice and
//! `cmp`s it against the committed copy). The MLG/query table measures
//! wall time and goes to stdout only.
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_scaling
//! ```

use multirag_bench::seed;
use multirag_cluster::{cluster_closed_loop, HashRing, DEFAULT_VNODES};
use multirag_core::{kg_schema, MklgpPipeline, MultiRagConfig, MultiSourceLineGraph};
use multirag_datasets::movies::MoviesSpec;
use multirag_datasets::spec::Scale;
use multirag_eval::table::{fmt2, Table};
use multirag_llmsim::client::MockLlm;
use multirag_obs::WallTimer;
use multirag_serve::{
    build_workload, closed_loop_timeline, serve_sequential, CacheStack, IndexWriter, ServeConfig,
};

fn main() {
    let seed = seed();
    println!("Scaling study (seed = {seed})");
    let mut table = Table::new(
        "MLG construction and per-query extraction vs graph size",
        &[
            "entities",
            "triples",
            "mlg build/s",
            "100 queries w/ MKA (wall s)",
            "100 queries w/o MKA (wall s)",
        ],
    );
    for entities in [100usize, 400, 1000, 2500] {
        let data = MoviesSpec::at_scale(Scale {
            entities,
            queries: 100,
        })
        .generate(seed);

        let watch = WallTimer::start();
        let mlg = MultiSourceLineGraph::build(&data.graph);
        let build_s = watch.elapsed_s();
        std::hint::black_box(mlg.stats());

        let run = |config: MultiRagConfig| {
            let mut pipeline = MklgpPipeline::new(&data.graph, config, seed);
            let watch = WallTimer::start();
            for q in &data.queries {
                std::hint::black_box(pipeline.answer(q));
            }
            watch.elapsed_s()
        };
        let with_mka = run(MultiRagConfig::default());
        let without_mka = run(MultiRagConfig::default().without_mka());

        table.row(vec![
            entities.to_string(),
            data.graph.triple_count().to_string(),
            fmt2(build_s),
            fmt2(with_mka),
            fmt2(without_mka),
        ]);
    }
    println!("{}", table.render());
    println!(
        "With MKA the query column stays flat as the graph grows; without it the full-scan\n\
         extraction grows linearly with triples — extrapolate to web scale for the paper's NAN."
    );

    // Serve-path scaling: throughput vs worker-pool size at a fixed
    // dataset size. Per-request service times come from the sequential
    // oracle in *simulated* milliseconds and feed the deterministic
    // closed loop, so this table is byte-stable for a fixed seed
    // (unlike the wall-clock columns above).
    let data = MoviesSpec::at_scale(Scale {
        entities: 400,
        queries: 100,
    })
    .generate(seed);
    let mut writer = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), seed);
    let snapshot = writer.publish();
    let serve_cfg = ServeConfig::default();
    let wave = build_workload(&data.queries, data.queries.len() * 2, seed);
    let oracle = serve_sequential(&snapshot, &CacheStack::new(), &serve_cfg, &wave);
    let service_us: Vec<u64> = oracle
        .iter()
        .map(|r| (r.service_ms * 1000.0).round().max(1.0) as u64)
        .collect();

    let mut serve_table = Table::new(
        "Serve-path throughput vs workers (400 entities, 32 clients, sim time)",
        &["workers", "completed", "shed", "qps", "p50/ms", "p99/ms"],
    );
    let mut last_qps = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let (point, _) = closed_loop_timeline(&service_us, 32, workers, serve_cfg.queue_depth);
        serve_table.row(vec![
            workers.to_string(),
            point.completed.to_string(),
            point.shed.to_string(),
            fmt2(point.throughput_qps),
            fmt2(point.p50_ms),
            fmt2(point.p99_ms),
        ]);
        assert!(
            point.throughput_qps >= last_qps,
            "throughput must not fall as workers are added"
        );
        last_qps = point.throughput_qps;
    }
    let mut artifact = format!(
        "{}\nWorkers scale simulated throughput until queueing stops dominating; shed counts fall\n\
         as capacity absorbs the closed-loop burst (32 clients, queue depth {}).\n",
        serve_table.render(),
        serve_cfg.queue_depth
    );

    // Cluster scaling: throughput vs shard count at a fixed per-shard
    // worker pool. Each request's slot routes through the same
    // consistent-hash ring `multirag-cluster` serves with, so adding
    // shards spreads the replicated workload exactly as the fleet
    // would; `repro_cluster` proves the answers are unchanged while
    // this table shows the throughput side of the trade.
    let mut llm = MockLlm::new(kg_schema(&data.graph), seed);
    let slots: Vec<String> = wave
        .iter()
        .map(|r| {
            let q = &r.query;
            llm.logic_form(&q.text)
                .and_then(|lf| {
                    lf.relations
                        .first()
                        .map(|rel| multirag_cluster::slot_key(&lf.entity, rel))
                })
                .unwrap_or_else(|| multirag_cluster::slot_key(&q.entity, &q.attribute))
        })
        .collect();
    let mut cluster_table = Table::new(
        "Cluster throughput vs shard count (400 entities, 64 clients, 2 workers/shard, sim time)",
        &["shards", "completed", "shed", "qps", "p50/ms", "p99/ms"],
    );
    let mut last_qps = 0.0;
    for shards in [1u32, 2, 4, 8] {
        let ring = HashRing::new(shards, DEFAULT_VNODES, seed);
        let candidates: Vec<Vec<u32>> = slots.iter().map(|s| ring.candidates(s, 2)).collect();
        let outcome = cluster_closed_loop(
            &service_us,
            &candidates,
            200_000,
            shards,
            64,
            2,
            serve_cfg.queue_depth,
            None,
        );
        let point = &outcome.point;
        cluster_table.row(vec![
            shards.to_string(),
            point.completed.to_string(),
            point.shed.to_string(),
            fmt2(point.throughput_qps),
            fmt2(point.p50_us as f64 / 1000.0),
            fmt2(point.p99_us as f64 / 1000.0),
        ]);
        assert!(
            point.throughput_qps >= last_qps,
            "throughput must not fall as shards are added"
        );
        last_qps = point.throughput_qps;
    }
    artifact.push_str(&format!(
        "{}\nShards scale the same workload horizontally: every node answers from the shared\n\
         epoch snapshot, so the curve above is pure capacity — never answer drift.\n",
        cluster_table.render()
    ));
    print!("{artifact}");
    match std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write("results/repro_scaling.txt", &artifact))
    {
        Ok(()) => println!("wrote results/repro_scaling.txt"),
        Err(e) => println!("note: could not write results/repro_scaling.txt: {e}"),
    }
}
