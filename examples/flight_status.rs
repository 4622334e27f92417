//! The paper's CA981 case study (§IV-D, Table V): a flight-status query
//! over three conflicting feeds — a structured departure schedule
//! (CSV), semi-structured airline delay codes (JSON), and an
//! unstructured weather report — plus a low-reliability user forum that
//! must be suppressed.
//!
//! ```sh
//! cargo run --example flight_status
//! ```

use multirag::core::{MklgpPipeline, MultiRagConfig};
use multirag::datasets::Query;
use multirag::ingest::{fuse_sources, load_into_graph, RawSource, SourceFormat};
use multirag::kg::Value;
use multirag::llmsim::{MockLlm, Schema};

fn main() {
    // -----------------------------------------------------------
    // 1. Three legitimate feeds + one unreliable forum, in their
    //    native formats.
    // -----------------------------------------------------------
    let sources = vec![
        RawSource {
            name: "airline-schedule.csv".into(),
            domain: "flights".into(),
            format: SourceFormat::Csv,
            content: "flight,status,departure_time,origin,destination\n\
                      CA981,delayed,14:30,Beijing,New York\n\
                      CA982,on-time,09:10,Shanghai,Tokyo\n"
                .into(),
        },
        RawSource {
            name: "airline-ops.json".into(),
            domain: "flights".into(),
            format: SourceFormat::Json,
            content: r#"[
                {"code": "CA981", "status": "delayed", "delay_code": "WX31", "departure_time": "14:30"},
                {"code": "CA982", "status": "on-time", "delay_code": null}
            ]"#
            .into(),
        },
        RawSource {
            name: "weather-report.txt".into(),
            domain: "flights".into(),
            format: SourceFormat::Text,
            content: "Typhoon In-Fa approaches Beijing Capital Airport. \
                      The status of CA981 is delayed. \
                      Authorities expect departures to resume after 14:30."
                .into(),
        },
        RawSource {
            name: "user-forum.json".into(),
            domain: "flights".into(),
            format: SourceFormat::Json,
            content: r#"[{"code": "CA981", "status": "on-time", "departure_time": "12:05"}]"#.into(),
        },
    ];

    // -----------------------------------------------------------
    // 2. Ingest: per-format adapters → claims → provenance-carrying
    //    knowledge graph (Eq. 2 fusion). Each adapter counts the
    //    records it read.
    // -----------------------------------------------------------
    let fused = fuse_sources(&sources).expect("all feeds parse");
    for (i, adapted) in &fused {
        println!(
            "{}: {} records, {} claims, {} text chunks",
            sources[*i].name,
            adapted.records,
            adapted.claims.len(),
            adapted.text_chunks.len()
        );
    }
    let mut kg = load_into_graph(&sources, &fused).expect("fused indices are in range");

    // Unstructured text goes through the simulated LLM's extraction
    // (the ner.py / triple.py prompt path).
    let mut schema = Schema::new();
    schema.add_entity_verbatim("CA981");
    schema.add_entity_verbatim("CA982");
    schema.add_relation("status");
    schema.add_relation_alias("status", "status");
    let mut llm = MockLlm::new(schema, 7);
    let weather_chunks: Vec<String> = fused
        .iter()
        .filter(|(i, _)| sources[*i].name == "weather-report.txt")
        .flat_map(|(_, a)| a.text_chunks.clone())
        .collect();
    let weather_source = kg
        .source_ids()
        .find(|&s| kg.source_name(s) == "weather-report.txt")
        .expect("registered");
    for chunk in &weather_chunks {
        for triple in llm.extract_triples(chunk) {
            let subject = kg.add_entity(&triple.subject, "flights");
            let predicate = kg.add_relation(&triple.predicate);
            kg.add_triple(subject, predicate, triple.object.clone(), weather_source, 0);
            println!(
                "extracted from weather report: ({}, {}, {})",
                triple.subject, triple.predicate, triple.object
            );
        }
    }

    // -----------------------------------------------------------
    // 3. MKLGP: the forum's conflicting "on-time" claim must lose to
    //    the corroborated "delayed".
    // -----------------------------------------------------------
    let mut pipeline = MklgpPipeline::new(&kg, MultiRagConfig::default(), 7);
    let query = Query {
        id: 0,
        text: "What is the status of CA981?".into(),
        entity: "CA981".into(),
        attribute: "status".into(),
        gold: vec![Value::from("delayed")],
    };
    let answer = pipeline.answer(&query);
    println!("\nQuery: {}", query.text);
    if let Some(gc) = answer.graph_confidence {
        println!(
            "graph confidence of the homologous subgraph: {:.2}",
            gc.value
        );
    }
    for node in &answer.kept {
        println!(
            "  kept  {:>18} from {:<22} C(v)={:.2} (consistency {:.2}, authority {:.2})",
            node.value.to_string(),
            kg.source_name(node.source),
            node.confidence,
            node.consistency,
            node.authority,
        );
    }
    println!("  dropped {} low-confidence node(s)", answer.dropped);
    println!(
        "\nTrustworthy answer: {}",
        answer
            .fusion_values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(
        answer
            .fusion_values
            .iter()
            .any(|v| v.answer_key() == Value::from("delayed").answer_key()),
        "the corroborated 'delayed' status must win"
    );
    println!("The inconsistent forum report was suppressed. ✓");
}
