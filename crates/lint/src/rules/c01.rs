//! C01 — concurrency hygiene in library code.
//!
//! Two shapes that make fan-out either unbounded or serialized:
//!
//! * **unbounded channel construction** — `channel()` (std mpsc with
//!   no capacity) or `unbounded(…)`: an unbounded queue between
//!   producers and a consumer turns backpressure into unbounded memory
//!   growth under load; use `sync_channel(cap)` / a bounded shim.
//! * **lock guard held across a fan-out call** — a `let guard =
//!   x.lock()/.read()/.write()` binding still live (no `drop(guard)`)
//!   when a `parallel_map*` / sweep / fan-out entry point is called in
//!   the same block: every worker immediately contends on the guard,
//!   serializing the fan-out (or deadlocking if workers take the same
//!   lock).
//!
//! Both checks are token-local and conservative: guard bindings are
//! only traced inside their enclosing block, and inline temporaries
//! (`queue.lock().pop()`) never bind a guard, so they never fire.

use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::util::FileCtx;
use crate::walk::FileKind;

/// Workspace fan-out entry points: calling one of these while holding
/// a guard serializes (or deadlocks) the workers.
pub const FANOUT_FNS: &[&str] = &[
    "parallel_map",
    "parallel_map_with",
    "run_loop_sweep",
    "cluster_closed_loop",
];

/// Guard-producing method names.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Runs the rule over one file.
pub fn check(ctx: &FileCtx<'_>) -> Vec<Finding> {
    if ctx.kind != FileKind::Library {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for i in 0..ctx.tokens.len() {
        if ctx.is_test(i) {
            continue;
        }
        let Some(tok) = ctx.tokens.get(i) else {
            continue;
        };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // Unbounded channel construction.
        if tok.text == "channel" && ctx.is_punct(i + 1, "(") && ctx.is_punct(i + 2, ")") {
            findings.push(Finding {
                rule: "C01",
                file: ctx.rel.to_string(),
                line: tok.line,
                message: "unbounded `channel()` in library code — no backpressure between \
                          producers and consumer; use `sync_channel(cap)`"
                    .to_string(),
            });
        }
        if tok.text == "unbounded" && ctx.is_punct(i + 1, "(") {
            findings.push(Finding {
                rule: "C01",
                file: ctx.rel.to_string(),
                line: tok.line,
                message: "unbounded channel constructor in library code — no backpressure; \
                          use a bounded channel"
                    .to_string(),
            });
        }
        // `let [mut] NAME = … .lock()/.read()/.write() …;` guard
        // binding, then a fan-out call before `drop(NAME)` in the
        // same block.
        if tok.text == "let" {
            let mut j = i + 1;
            if ctx.is_ident(j, "mut") {
                j += 1;
            }
            let name = ctx.text(j).to_string();
            if name.is_empty() || !ctx.is_punct(j + 1, "=") {
                continue;
            }
            let Some(stmt_end) = statement_end(ctx, j + 2) else {
                continue;
            };
            let binds_guard = (j + 2..stmt_end).any(|k| {
                ctx.is_punct(k, ".")
                    && GUARD_METHODS.iter().any(|m| ctx.is_ident(k + 1, m))
                    && ctx.is_punct(k + 2, "(")
                    && ctx.is_punct(k + 3, ")")
                    && guard_is_terminal(ctx, k + 4, stmt_end)
            });
            if !binds_guard {
                continue;
            }
            if let Some((fanout, line)) = fanout_before_drop(ctx, stmt_end + 1, &name) {
                findings.push(Finding {
                    rule: "C01",
                    file: ctx.rel.to_string(),
                    line,
                    message: format!(
                        "lock guard `{name}` held across fan-out call `{fanout}` — workers \
                         contend on the guard; drop it (or scope it) before fanning out"
                    ),
                });
            }
        }
    }
    findings
}

/// Whether the guard call at whose close-paren `from` starts is the
/// statement's terminal expression — only `.unwrap()`, `.expect(…)`
/// and `?` may follow before the `;`. Further chaining
/// (`q.lock().pop()`) binds the chained value, not the guard.
fn guard_is_terminal(ctx: &FileCtx<'_>, mut i: usize, stmt_end: usize) -> bool {
    while i < stmt_end {
        if ctx.is_punct(i, "?") {
            i += 1;
        } else if ctx.is_punct(i, ".") && ctx.is_ident(i + 1, "unwrap") {
            i += 4;
        } else if ctx.is_punct(i, ".") && ctx.is_ident(i + 1, "expect") {
            i += 5;
        } else {
            return false;
        }
    }
    i == stmt_end
}

/// Index of the `;` ending the statement starting at `from`, tracking
/// bracket depth so closure bodies don't end it early.
fn statement_end(ctx: &FileCtx<'_>, from: usize) -> Option<usize> {
    let mut depth: i32 = 0;
    for i in from..ctx.tokens.len() {
        let t = ctx.text(i);
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            ";" if depth == 0 => return Some(i),
            _ => {}
        }
        if depth < 0 {
            return None;
        }
    }
    None
}

/// Scans the rest of the enclosing block for a fan-out call occurring
/// before `drop(name)`. Returns the fan-out fn and its line.
fn fanout_before_drop(ctx: &FileCtx<'_>, from: usize, name: &str) -> Option<(&'static str, u32)> {
    let mut depth: i32 = 0;
    for i in from..ctx.tokens.len() {
        let t = ctx.text(i);
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return None; // enclosing block closed: guard dead
                }
            }
            "drop"
                if ctx.is_punct(i + 1, "(")
                    && ctx.is_ident(i + 2, name)
                    && ctx.is_punct(i + 3, ")") =>
            {
                return None;
            }
            _ => {
                if let Some(fanout) = FANOUT_FNS
                    .iter()
                    .find(|f| ctx.is_ident(i, f) && ctx.is_punct(i + 1, "("))
                {
                    return Some((fanout, ctx.line(i)));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    #[test]
    fn positive_unbounded_channel() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel(); }";
        assert!(lint_source("crates/x/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == "C01" && f.message.contains("unbounded")));
    }

    #[test]
    fn negative_bounded_channel() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel(4); }";
        assert!(!lint_source("crates/x/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == "C01"));
    }

    #[test]
    fn positive_guard_across_fanout() {
        let src = "fn f(state: &Mutex<u8>) {\n\
                     let guard = state.lock();\n\
                     let out = parallel_map(items, work);\n\
                   }";
        let findings = lint_source("crates/x/src/lib.rs", src);
        assert!(findings
            .iter()
            .any(|f| f.rule == "C01" && f.message.contains("guard `guard`") && f.line == 3));
    }

    #[test]
    fn negative_guard_dropped_before_fanout() {
        let src = "fn f(state: &Mutex<u8>) {\n\
                     let guard = state.lock();\n\
                     drop(guard);\n\
                     let out = parallel_map(items, work);\n\
                   }";
        assert!(!lint_source("crates/x/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == "C01"));
    }

    #[test]
    fn negative_guard_scoped_out_before_fanout() {
        let src = "fn f(state: &Mutex<u8>) {\n\
                     { let guard = state.lock(); touch(&guard); }\n\
                     let out = parallel_map(items, work);\n\
                   }";
        assert!(!lint_source("crates/x/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == "C01"));
    }

    #[test]
    fn negative_inline_lock_temporary() {
        // `item` is the popped value, not a guard: the lock temporary
        // dies at the end of the statement.
        let src = "fn f(q: &Mutex<Vec<u8>>) {\n\
                     let item = q.lock().unwrap().pop();\n\
                     let out = parallel_map(items, work);\n\
                   }";
        assert!(!lint_source("crates/x/src/lib.rs", src)
            .iter()
            .any(|f| f.rule == "C01"));
        // A guard bound through `.unwrap()` still fires.
        let src2 = "fn f(q: &Mutex<Vec<u8>>) {\n\
                      let guard = q.lock().unwrap();\n\
                      let out = parallel_map(items, work);\n\
                    }";
        assert!(lint_source("crates/x/src/lib.rs", src2)
            .iter()
            .any(|f| f.rule == "C01"));
    }

    #[test]
    fn negative_bins_and_tests_are_out_of_scope() {
        let src = "fn main() { let (tx, rx) = channel(); }";
        assert!(!lint_source("crates/bench/src/bin/repro_x.rs", src)
            .iter()
            .any(|f| f.rule == "C01"));
        let test_src = "#[cfg(test)]\nmod tests { fn t() { let (tx, rx) = channel(); } }";
        assert!(!lint_source("crates/x/src/lib.rs", test_src)
            .iter()
            .any(|f| f.rule == "C01"));
    }
}
