//! multirag-lint — token-level determinism & panic-safety auditor.
//!
//! Statically enforces the project's byte-identity and availability
//! invariants over every workspace source file, as a deterministic,
//! sorted diagnostic stream:
//!
//! | rule | name                  | scope        | catches |
//! |------|-----------------------|--------------|---------|
//! | D01  | hash-iteration        | library      | iterating `HashMap`/`HashSet`/`FxHash*` order |
//! | D02  | wall-clock-entropy    | library      | `Instant::now` / `SystemTime::now` / `thread_rng` / `RandomState` outside the exempt timing module |
//! | D03  | float-over-hash-order | library      | `f64` sum/fold over hash-ordered iterators |
//! | R01  | panic-site            | library      | `unwrap` / `expect` / `panic!` / slice indexing in non-test code |
//! | S01  | ungated-artifact      | repro bins   | `results/*.json` writers missing the `MULTIRAG_CHECK_SCHEMA` golden gate |
//! | P01  | paper-constant        | library+bins | paper hyper-parameters re-hard-coded outside `core::config` |
//!
//! The engine is a hand-rolled token stream ([`lexer`]), not `syn` —
//! this workspace builds offline with no registry access, so the
//! analysis works on lexed tokens with comment/string opacity, test
//! region exclusion ([`scope`]) and conservative type inference
//! ([`rules::util`]). Conservative means: a rule only fires on shapes
//! it can prove locally; everything it cannot prove is silence, and the
//! justified remainder lives in the ratcheted [`allow`]-list.
//!
//! Findings reconcile against `lint_allow.toml` budgets (the ratchet:
//! counts may never grow, stale budgets must shrink) and render as the
//! byte-stable `results/lint.json` artifact via the `repro_lint`
//! binary, which CI runs twice and `cmp`s.

pub mod allow;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod scope;
pub mod taint;
pub mod toml;
pub mod walk;

pub use allow::{AllowList, Reconciliation};
pub use report::{lint_json, sort_findings, Finding, RuleInfo, RULES};
pub use taint::TaintPath;

use rules::util::FileCtx;
use std::path::Path;
use walk::SourceEntry;

/// Whole-workspace analysis: per-file findings plus the
/// interprocedural call graph and taint pass.
#[derive(Debug)]
pub struct WorkspaceAnalysis {
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Sorted union of all rule findings (intra-file rules + T01).
    pub findings: Vec<Finding>,
    /// Call-graph node count.
    pub graph_nodes: usize,
    /// Call-graph edge count.
    pub graph_edges: usize,
    /// Deduplicated, sorted T01 source→sink chains.
    pub taint_paths: Vec<TaintPath>,
}

/// Lints a single source text under its workspace-relative path.
/// The path drives classification (library vs bin, repro-binary
/// detection); findings come back in canonical sorted order.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let tokens = lexer::lex(source);
    let test_ranges = scope::test_ranges(&tokens);
    let ctx = FileCtx {
        rel,
        kind: walk::classify(rel),
        tokens: &tokens,
        test_ranges: &test_ranges,
    };
    let mut findings = rules::check_all(&ctx);
    sort_findings(&mut findings);
    findings
}

/// Analyzes a fixed set of sources: every intra-file rule per file,
/// then the interprocedural call graph + taint pass across them.
pub fn analyze_sources(sources: &[(SourceEntry, String)]) -> WorkspaceAnalysis {
    let mut findings = Vec::new();
    for (SourceEntry { rel, .. }, contents) in sources {
        findings.extend(lint_source(rel, contents));
    }
    let (files, call_graph) = graph::build(sources);
    let (taint_paths, taint_findings) = taint::analyze(&files, &call_graph);
    findings.extend(taint_findings);
    sort_findings(&mut findings);
    WorkspaceAnalysis {
        files_scanned: sources.len(),
        findings,
        graph_nodes: call_graph.nodes.len(),
        graph_edges: call_graph.edges.len(),
        taint_paths,
    }
}

/// Discovers and analyzes every workspace source under `root`.
pub fn analyze_workspace(root: &Path) -> WorkspaceAnalysis {
    analyze_sources(&walk::workspace_sources(root))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_sorts_across_rules() {
        let src = "fn f(m: &FxHashMap<u8, u8>, o: Option<u8>) -> u8 {\n\
                     for x in &m { touch(x); }\n\
                     o.unwrap()\n\
                   }";
        let findings = lint_source("crates/x/src/lib.rs", src);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        let mut sorted = rules.clone();
        sorted.sort_unstable();
        assert_eq!(rules, sorted);
        assert!(rules.contains(&"D01") && rules.contains(&"R01"));
    }

    #[test]
    fn lint_workspace_is_deterministic() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = analyze_workspace(&root);
        let b = analyze_workspace(&root);
        assert_eq!(a.files_scanned, b.files_scanned);
        assert_eq!(a.findings, b.findings);
        assert!(a.files_scanned > 20, "should scan the whole workspace");
    }
}
