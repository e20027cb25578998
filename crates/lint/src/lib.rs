//! `kea-lint` — workspace-aware static analysis for the KEA invariants.
//!
//! KEA's tuning loop (the paper's always-on Performance Monitor +
//! Modeling Module, §4) runs continuously inside production
//! infrastructure: a panic is an outage, not a bug report. PR 1
//! panic-proofed the optimizer path by hand; this crate makes the
//! invariant *structural* by scanning the workspace's library crates
//! for constructs that can abort or silently corrupt the tuning loop:
//!
//! | rule | catches |
//! |------|---------|
//! | `panic-in-library`       | `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`, `assert_eq!`, `assert_ne!` (not `debug_assert*!`) |
//! | `index-in-library`       | `xs[i]`-style indexing (out-of-bounds panics) |
//! | `panic-method-in-library`| positional panicking methods (`remove(i)`, `split_at`, `Vec::insert`) |
//! | `nan-unsafe-ordering`    | `partial_cmp(..).unwrap()`, exact float equality, `== NAN` |
//! | `truncating-as-cast`     | float→int `as` casts, `.len() as u32` / `? as u32`-style narrowing |
//! | `unguarded-spawn`        | `thread::spawn` with a discarded `JoinHandle` |
//! | `unvalidated-denominator`| division by a caller-supplied parameter no path validated |
//! | `checked-unwrap`         | `is_some()`/`is_ok()` check still `.unwrap()`-ing inside the block |
//! | `nan-accumulation`       | loop-carried float accumulation of an unchecked quotient |
//! | `relaxed-atomic-gate`    | `Relaxed` load gating control flow (no happens-before edge) |
//! | `scoped-mut-capture`     | `scope.spawn` closure mutating captured state unsynchronized |
//! | `oncelock-get-then-set`  | `OnceLock` `get()` … `set(…)` check-then-act race |
//! | `swallowed-join-panic`   | `.join()` whose `Err` (the worker's panic) is discarded, incl. `.unwrap_or(..)`/`.unwrap_or_default()` |
//! | `bad-suppression`        | malformed, unreasoned, or stale `kea-lint:` directives |
//!
//! Scanning is token-level plus the lightweight [`syntax`] layer —
//! function boundaries, coarse nominal binding types, closure bodies,
//! receiver paths — recovered from the same hand-rolled lexer (no `syn`;
//! the offline build environment rules out registry deps). The rules
//! are documented heuristics, not type-checked facts; the suppression
//! directives in [`suppress`] exist precisely to record the cases a
//! human has judged safe.

#![forbid(unsafe_code)]

pub mod conc;
pub mod diag;
pub mod flow;
pub mod lexer;
pub mod rules;
pub mod suppress;
pub mod syntax;
pub mod walk;

use diag::Diagnostic;
use std::path::Path;

/// Lint one file's source as library code. `file` is the label used in
/// diagnostics (conventionally workspace-relative).
pub fn lint_source(file: &str, src: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let spans = rules::test_line_spans(&lexed.toks);
    let mut sup = suppress::parse(file, &lexed.line_comments, rules::ALL_RULES);
    let mut diags = rules::run_all(file, &lexed.toks, &spans);
    diag::sort(&mut diags);
    // Nested fns are scanned both standalone and as part of their
    // enclosing body; identical findings collapse to one.
    diags.dedup();
    sup.filter(&mut diags);
    diags.append(&mut sup.bad);
    diags.extend(sup.stale(file));
    diag::sort(&mut diags);
    diags
}

/// Lint every library-crate source file under the workspace at `root`.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let files = walk::library_sources(root)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut diags = Vec::new();
    for rel in files {
        let abs = root.join(&rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("reading {}: {e}", abs.display()))?;
        let label = rel.to_string_lossy().replace('\\', "/");
        diags.extend(lint_source(&label, &src));
    }
    diag::sort(&mut diags);
    Ok(diags)
}
