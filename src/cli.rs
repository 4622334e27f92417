//! The `multirag` command-line interface.
//!
//! ```text
//! multirag ingest --domain movies a.csv b.json c.xml --out graph.kg
//! multirag stats graph.kg
//! multirag query graph.kg "What is the director of Heat?"
//! multirag demo
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency budget
//! is deliberately tight); the functions here are plain and testable,
//! `main` only dispatches.

use crate::core::{MklgpPipeline, MultiRagConfig};
use crate::datasets::Query;
use crate::ingest::{fuse_sources, load_into_graph, RawSource, SourceFormat};
use crate::kg::{persist, KnowledgeGraph};
use crate::llmsim::logic::generate_logic_form;
use crate::llmsim::Schema;

/// CLI error type.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

/// Detects a source format from a file extension.
pub fn format_for_path(path: &str) -> Result<SourceFormat, CliError> {
    let ext = path.rsplit('.').next().unwrap_or("").to_lowercase();
    match ext.as_str() {
        "csv" => Ok(SourceFormat::Csv),
        "json" => Ok(SourceFormat::Json),
        "xml" => Ok(SourceFormat::Xml),
        "kg" => Ok(SourceFormat::Kg),
        "txt" | "text" | "md" => Ok(SourceFormat::Text),
        other => Err(err(format!(
            "cannot infer a format from extension '.{other}' ({path}); \
             expected .csv/.json/.xml/.kg/.txt"
        ))),
    }
}

/// Reads and fuses a set of files into a knowledge graph.
pub fn ingest_files(paths: &[String], domain: &str) -> Result<KnowledgeGraph, CliError> {
    if paths.is_empty() {
        return Err(err("ingest needs at least one file"));
    }
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let format = format_for_path(path)?;
        let content = std::fs::read_to_string(path)?;
        sources.push(RawSource {
            name: path.clone(),
            domain: domain.to_string(),
            format,
            content,
        });
    }
    let fused = fuse_sources(&sources).map_err(|e| err(format!("parse error: {e}")))?;
    load_into_graph(&sources, &fused).map_err(|e| err(format!("ingest error: {e}")))
}

/// Renders graph statistics.
pub fn render_stats(kg: &KnowledgeGraph) -> String {
    let stats = kg.stats();
    let mut out = format!(
        "entities: {}\nrelations: {}\ntriples: {}\nsources: {}\nedges: {}\nmean degree: {:.2}\n",
        stats.entities,
        stats.relations,
        stats.triples,
        stats.sources,
        stats.edges,
        stats.mean_degree
    );
    out.push_str("per-source:\n");
    for sid in kg.source_ids() {
        let count = kg.iter_triples().filter(|(_, t)| t.source == sid).count();
        out.push_str(&format!("  {:<32} {count} triples\n", kg.source_name(sid)));
    }
    out
}

/// Answers a natural-language question against a graph.
pub fn answer_question(kg: &KnowledgeGraph, question: &str, seed: u64) -> Result<String, CliError> {
    // Parse the question with a schema built from the graph, so we can
    // report *why* a question fails to parse before running MKLGP.
    let mut schema = Schema::new();
    for r in 0..kg.relation_count() {
        schema.add_relation(kg.relation_name(crate::kg::RelationId(r as u32)));
    }
    for e in kg.entity_ids() {
        schema.add_entity_verbatim(kg.entity_name(e));
    }
    let lf = generate_logic_form(question, &schema).ok_or_else(|| {
        err(format!(
            "could not parse '{question}' — try \"What is the <attribute> of <entity>?\""
        ))
    })?;
    let mut pipeline = MklgpPipeline::new(kg, MultiRagConfig::default(), seed);
    let query = Query {
        id: 0,
        text: question.to_string(),
        entity: lf.entity.clone(),
        attribute: lf.target_relation().to_string(),
        gold: vec![],
    };
    let answer = pipeline.answer(&query);
    if answer.abstained || answer.fusion_values.is_empty() {
        return Ok(format!(
            "no trustworthy answer for {} / {}",
            lf.entity,
            lf.target_relation()
        ));
    }
    let values: Vec<String> = answer.fusion_values.iter().map(|v| v.to_string()).collect();
    let confidence = answer
        .graph_confidence
        .map(|g| format!(" (graph confidence {:.2})", g.value))
        .unwrap_or_default();
    Ok(format!(
        "{} → {}{confidence}  [{} claims kept, {} filtered]",
        lf.target_relation(),
        values.join(", "),
        answer.kept.len(),
        answer.dropped
    ))
}

/// Entry point given `argv[1..]`. Returns the text to print.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "ingest" => {
            let (paths, domain, out) = parse_ingest_args(&args[1..])?;
            let kg = ingest_files(&paths, &domain)?;
            let mut text = render_stats(&kg);
            if let Some(out_path) = out {
                std::fs::write(&out_path, persist::dump(&kg))?;
                text.push_str(&format!("wrote {out_path}\n"));
            }
            Ok(text)
        }
        "stats" => {
            let path = args
                .get(1)
                .ok_or_else(|| err("usage: multirag stats <graph.kg>"))?;
            let kg = load_graph(path)?;
            Ok(render_stats(&kg))
        }
        "query" => {
            let path = args
                .get(1)
                .ok_or_else(|| err("usage: multirag query <graph.kg> \"question\""))?;
            let question = args
                .get(2)
                .ok_or_else(|| err("usage: multirag query <graph.kg> \"question\""))?;
            let kg = load_graph(path)?;
            answer_question(&kg, question, 42)
        }
        "demo" => Ok(demo()),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(err(format!("unknown command '{other}'\n{}", usage()))),
    }
}

fn parse_ingest_args(args: &[String]) -> Result<(Vec<String>, String, Option<String>), CliError> {
    let mut paths = Vec::new();
    let mut domain = "default".to_string();
    let mut out = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--domain" => {
                domain = iter
                    .next()
                    .ok_or_else(|| err("--domain needs a value"))?
                    .clone();
            }
            "--out" => {
                out = Some(
                    iter.next()
                        .ok_or_else(|| err("--out needs a value"))?
                        .clone(),
                );
            }
            path => paths.push(path.to_string()),
        }
    }
    Ok((paths, domain, out))
}

fn load_graph(path: &str) -> Result<KnowledgeGraph, CliError> {
    let text = std::fs::read_to_string(path)?;
    persist::load(&text).map_err(|e| err(format!("{e}")))
}

fn demo() -> String {
    use crate::datasets::movies::MoviesSpec;
    let data = MoviesSpec::small().generate(42);
    let mut pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
    let mut out = String::from("MultiRAG demo on a synthetic 13-source Movies benchmark:\n\n");
    for query in data.queries.iter().take(5) {
        let answer = pipeline.answer(query);
        out.push_str(&format!(
            "Q: {}\n   → {}\n",
            query.text,
            answer
                .fusion_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    out
}

fn usage() -> String {
    "multirag — knowledge-guided multi-source RAG\n\n\
     USAGE:\n\
     \x20 multirag ingest --domain <d> [--out graph.kg] <files...>\n\
     \x20 multirag stats <graph.kg>\n\
     \x20 multirag query <graph.kg> \"What is the <attribute> of <entity>?\"\n\
     \x20 multirag demo\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("multirag-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn format_detection() {
        assert_eq!(format_for_path("a.csv").unwrap(), SourceFormat::Csv);
        assert_eq!(format_for_path("b.JSON").unwrap(), SourceFormat::Json);
        assert_eq!(format_for_path("c.xml").unwrap(), SourceFormat::Xml);
        assert_eq!(format_for_path("d.kg").unwrap(), SourceFormat::Kg);
        assert_eq!(format_for_path("e.txt").unwrap(), SourceFormat::Text);
        assert!(format_for_path("f.parquet").is_err());
    }

    #[test]
    fn ingest_stats_query_round_trip() {
        let csv = write_temp("movies.csv", "name,year,director\nHeat,1995,Michael Mann\n");
        let json = write_temp(
            "reviews.json",
            r#"[{"name": "Heat", "year": 1995, "director": "Michael Mann"}]"#,
        );
        let dump = write_temp("graph.kg", "");
        let out = run(&[
            "ingest".into(),
            "--domain".into(),
            "movies".into(),
            "--out".into(),
            dump.clone(),
            csv,
            json,
        ])
        .unwrap();
        assert!(out.contains("sources: 2"), "{out}");

        let stats = run(&["stats".into(), dump.clone()]).unwrap();
        assert!(stats.contains("triples"));

        let answer = run(&["query".into(), dump, "What is the director of Heat?".into()]).unwrap();
        assert!(answer.to_lowercase().contains("michael mann"), "{answer}");
    }

    #[test]
    fn ingest_rejects_repeated_csv_header() {
        let dup = write_temp("dup.csv", "a,a\n1,2\n");
        let result = run(&["ingest".into(), "--domain".into(), "d".into(), dup]);
        let message = result.expect_err("a repeated header is a parse error").0;
        assert!(
            message.contains("line 1, column 3 (offset 2): repeated header 'a'"),
            "{message}"
        );
    }

    #[test]
    fn query_reports_parse_failures() {
        let dump = write_temp("empty.kg", "#multirag-kg v1\n");
        let result = run(&["query".into(), dump, "tell me a joke".into()]);
        assert!(result.is_err());
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let result = run(&["frobnicate".into()]);
        assert!(result.is_err());
        assert!(result.unwrap_err().0.contains("USAGE"));
    }

    #[test]
    fn help_and_demo_work() {
        assert!(run(&["help".into()]).unwrap().contains("USAGE"));
        let demo = run(&["demo".into()]).unwrap();
        assert!(demo.contains("Q:"));
    }

    #[test]
    fn ingest_requires_files() {
        let result = run(&["ingest".into(), "--domain".into(), "d".into()]);
        assert!(result.is_err());
    }
}
