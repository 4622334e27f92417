//! Quickstart: generate a small multi-source dataset, build the MKLGP
//! pipeline, and answer a few queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use multirag::core::{MklgpPipeline, MultiRagConfig, MultiSourceLineGraph};
use multirag::datasets::movies::MoviesSpec;

fn main() {
    // 1. A synthetic "Movies" benchmark: 13 sources across JSON / KG /
    //    CSV formats, conflicting claims, multi-valued truths.
    let dataset = MoviesSpec::small().generate(42);
    println!(
        "Generated '{}' with {} sources, {} entities, {} triples, {} queries",
        dataset.name,
        dataset.graph.source_count(),
        dataset.graph.entity_count(),
        dataset.graph.triple_count(),
        dataset.queries.len(),
    );

    // 2. The multi-source line graph of Fig. 4: homologous groups
    //    become cliques in the triple line graph.
    let stats = MultiSourceLineGraph::build(&dataset.graph).stats();
    println!(
        "MLG: {} nodes, {} edges, {} homologous groups, {} isolated",
        stats.nodes, stats.edges, stats.groups, stats.isolated
    );

    // 3. The MKLGP pipeline: homologous aggregation + multi-level
    //    confidence computing, with the paper's default thresholds.
    let config = MultiRagConfig::default();
    let mut pipeline = MklgpPipeline::new(&dataset.graph, config, 42);

    // 4. Answer the benchmark queries, reporting confidence diagnostics.
    let mut correct = 0usize;
    for query in &dataset.queries {
        let answer = pipeline.answer(query);
        let verdict = answer
            .fusion_values
            .iter()
            .any(|v| dataset.truth.is_correct(&query.entity, &query.attribute, v));
        if verdict {
            correct += 1;
        }
        println!(
            "\nQ{}: {}\n  trusted answer: {}\n  graph confidence: {}  kept/dropped: {}/{}  correct: {}",
            query.id,
            query.text,
            answer
                .fusion_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            answer
                .graph_confidence
                .map(|g| format!("{:.2}", g.value))
                .unwrap_or_else(|| "n/a (isolated)".into()),
            answer.kept.len(),
            answer.dropped,
            verdict,
        );
    }
    println!(
        "\n{}/{} queries answered correctly; simulated LLM time {:.1}s over {} calls",
        correct,
        dataset.queries.len(),
        pipeline.llm().usage().simulated_secs(),
        pipeline.llm().usage().calls,
    );
}
