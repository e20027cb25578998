//! The **concurrency** rule pack.
//!
//! PRs 4–5 gave the workspace a real concurrency surface — scoped
//! work-stealing fan-outs, atomic claim cursors, `OnceLock`-cached
//! indexes — and the `kead` daemon will multiply it. These rules encode
//! the patterns that surface relies on:
//!
//! * atomic claim tickets (`fetch_add`) are fine Relaxed — the returned
//!   value itself is the claim; a **Relaxed `load` gating control flow**
//!   is not, because it publishes no happens-before edge;
//! * scoped workers return their results and the parent merges after
//!   `join` — a closure **mutating captured state** races instead;
//! * `OnceLock` is either read through `get_or_init` or invalidated
//!   through `&mut`/`take()` — a **`get()`-then-`set()`** sequence is a
//!   check-then-act race;
//! * a joined worker's `Err` is its panic, re-raised with
//!   `resume_unwind` — a join that **discards the `Err`** drops the
//!   panic and that worker's results without an error.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::rules::{in_spans, open_paren_of};
use crate::syntax::{receiver_path, receiver_root, Syntax, VarType};

/// Rule id: `.load(Ordering::Relaxed)` inside an `if`/`while`/`match`
/// gate.
pub const RELAXED_ATOMIC_GATE: &str = "relaxed-atomic-gate";
/// Rule id: a closure passed to `.spawn(…)` mutating captured state
/// without a sync wrapper.
pub const SCOPED_MUT_CAPTURE: &str = "scoped-mut-capture";
/// Rule id: `get()` then `set(…)` on one `OnceLock` — a
/// check-then-act race `get_or_init` exists to close.
pub const ONCELOCK_GET_THEN_SET: &str = "oncelock-get-then-set";
/// Rule id: a zero-argument `.join()` whose `Err` — the worker's panic
/// — is discarded (`if let Ok(..) =`, `let _ =`, `.ok()`, `.is_ok()`,
/// `.unwrap_or(..)`, `.unwrap_or_default()`).
pub(crate) const SWALLOWED_JOIN_PANIC: &str = "swallowed-join-panic";

/// Mutating container/string methods: a call through a captured
/// receiver inside a spawned closure is a cross-worker write.
const MUTATING_METHODS: &[&str] = &[
    "push",
    "push_str",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "clear",
    "remove",
    "pop",
    "truncate",
    "resize",
    "retain",
    "drain",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_unstable_by",
    "swap",
];

/// Run the concurrency pack over one file.
pub fn run(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
) {
    relaxed_atomic_gate(file, toks, spans, syn, diags);
    scoped_mut_capture(file, toks, spans, syn, diags);
    oncelock_get_then_set(file, toks, spans, syn, diags);
    swallowed_join_panic(file, toks, spans, diags);
}

fn relaxed_atomic_gate(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if !t.is_ident("load")
            || i == 0
            || !toks[i - 1].is_sym(".")
            || i + 1 >= toks.len()
            || !toks[i + 1].is_sym("(")
        {
            continue;
        }
        let close = crate::rules::skip_parens(toks, i + 1);
        let relaxed = toks[i + 1..close.min(toks.len())]
            .iter()
            .any(|a| a.is_ident("Relaxed"));
        if !relaxed || !syn.in_condition(i) {
            continue;
        }
        if in_spans(spans, t.line) {
            continue;
        }
        diags.push(Diagnostic::new(
            RELAXED_ATOMIC_GATE,
            file,
            t.line,
            t.col,
            format!(
                "`.load(Ordering::Relaxed)` gates control flow here but publishes no \
                 happens-before edge with the writes it observes — data behind the flag \
                 may not be visible yet; use `Acquire` (pair the stores with `Release`), \
                 or add `// kea-lint: allow({RELAXED_ATOMIC_GATE}) — <reason>` if the \
                 value is a pure counter",
            ),
        ));
    }
}

fn scoped_mut_capture(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        // `.spawn(` — scoped spawns share references with the parent;
        // plain `thread::spawn` closures are `'static` (moves), which
        // the borrow checker already polices.
        if !t.is_ident("spawn")
            || i == 0
            || !toks[i - 1].is_sym(".")
            || i + 1 >= toks.len()
            || !toks[i + 1].is_sym("(")
        {
            continue;
        }
        let Some(f) = syn.enclosing_fn(i) else {
            continue;
        };
        // The closure argument starts right after `(`, optionally
        // behind `move`.
        let Some(closure) = f
            .closures
            .iter()
            .find(|c| c.start == i + 2 || c.start == i + 3)
        else {
            continue;
        };
        for k in closure.body.clone() {
            let tk = &toks[k];
            let mutated: Option<(usize, String)> = if tk.kind == TokKind::Ident {
                let next = toks.get(k + 1);
                let assigns = next
                    .map(|n| {
                        (n.is_sym("=") && n.kind == TokKind::Punct)
                            || matches!(n.text.as_str(), "+=" | "-=" | "*=" | "/=" | "%=")
                    })
                    .unwrap_or(false);
                if assigns && k > 0 && !toks[k - 1].is_ident("let") && !toks[k - 1].is_ident("mut")
                {
                    if toks[k - 1].is_sym(".") {
                        receiver_root(toks, k - 1)
                    } else {
                        Some((k, tk.text.clone()))
                    }
                } else if MUTATING_METHODS.contains(&tk.text.as_str())
                    && k > 0
                    && toks[k - 1].is_sym(".")
                    && next.map(|n| n.is_sym("(")).unwrap_or(false)
                {
                    receiver_root(toks, k - 1)
                } else {
                    None
                }
            } else {
                None
            };
            let Some((root_at, root)) = mutated else {
                continue;
            };
            if root == "self" {
                continue;
            }
            if f.declared_in_closure(closure, &root) {
                continue;
            }
            // Sync-wrapped or atomic state is the sanctioned way to
            // share; unknown bindings stay flagged — the author either
            // wraps them or writes the reasoned allow.
            let ty = f.type_of(&root, root_at);
            if matches!(
                ty,
                VarType::Atomic | VarType::SyncWrapper | VarType::OnceLock
            ) {
                continue;
            }
            // Not a binding or parameter of this function at all (free
            // ident, e.g. a path segment) — skip.
            let known = f.params.iter().any(|(n, _)| n == &root)
                || f.bindings.iter().any(|b| b.name == root);
            if !known {
                continue;
            }
            if in_spans(spans, toks[root_at].line) {
                continue;
            }
            diags.push(Diagnostic::new(
                SCOPED_MUT_CAPTURE,
                file,
                toks[root_at].line,
                toks[root_at].col,
                format!(
                    "this closure passed to `spawn` mutates captured `{root}` — concurrent \
                     workers race on it; have each worker return its results and merge after \
                     `join`, wrap it in a `Mutex`/atomic, or add \
                     `// kea-lint: allow({SCOPED_MUT_CAPTURE}) — <reason>`"
                ),
            ));
        }
    }
}

fn oncelock_get_then_set(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
) {
    for f in &syn.fns {
        // Collect `recv.get(` and `recv.set(` sites in this body.
        let mut gets: Vec<(usize, String)> = Vec::new();
        let mut sets: Vec<(usize, String)> = Vec::new();
        for i in f.body.clone() {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || i == 0
                || !toks[i - 1].is_sym(".")
                || i + 1 >= toks.len()
                || !toks[i + 1].is_sym("(")
            {
                continue;
            }
            let Some(path) = receiver_path(toks, i - 1) else {
                continue;
            };
            match t.text.as_str() {
                "get" => gets.push((i, path)),
                "set" => sets.push((i, path)),
                _ => {}
            }
        }
        for (set_at, path) in &sets {
            let Some((_, _)) = gets.iter().find(|(g, p)| g < set_at && p == path) else {
                continue;
            };
            if !is_oncelock(toks, f, path) {
                continue;
            }
            let t = &toks[*set_at];
            if in_spans(spans, t.line) {
                continue;
            }
            diags.push(Diagnostic::new(
                ONCELOCK_GET_THEN_SET,
                file,
                t.line,
                t.col,
                format!(
                    "`{path}.get()` … `{path}.set(…)` is a check-then-act race: another \
                     thread can initialize between the two; use `get_or_init` (losing \
                     initializers are discarded) or route the mutation through the owner's \
                     `&mut` invalidation path (`take()`)"
                ),
            ));
        }
    }
}

fn swallowed_join_panic(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    for i in 1..toks.len() {
        if in_spans(spans, toks[i].line) {
            continue;
        }
        let Some(shape) = discarded_join(toks, i) else {
            continue;
        };
        diags.push(Diagnostic::new(
            SWALLOWED_JOIN_PANIC,
            file,
            toks[i].line,
            toks[i].col,
            format!(
                "`{shape}` discards the `Err` that carries the worker's panic, so the \
                 worker's results drop out without an error; match on the result and \
                 re-raise with `Err(payload) => std::panic::resume_unwind(payload)`, or \
                 add `// kea-lint: allow({SWALLOWED_JOIN_PANIC}) — <reason>`"
            ),
        ));
    }
}

/// If the token at `i` (≥ 1) is the `join` of a zero-argument `.join()`
/// whose `Err` is discarded, the shape that discards it.
fn discarded_join(toks: &[Tok], i: usize) -> Option<&'static str> {
    let sym_at = |k: usize, s: &str| toks.get(k).is_some_and(|t| t.is_sym(s));
    // String and path `join(x)` calls take an argument.
    if !toks[i].is_ident("join")
        || !sym_at(i - 1, ".")
        || !sym_at(i + 1, "(")
        || !sym_at(i + 2, ")")
    {
        return None;
    }
    let after = i + 3;
    if sym_at(after, ".") {
        let method = toks.get(after + 1)?;
        // `unwrap_or_else` stays clean: its closure sees the payload and
        // can re-raise it.
        return match method.text.as_str() {
            "ok" => Some(".join().ok()"),
            "is_ok" => Some(".join().is_ok()"),
            "unwrap_or" => Some(".join().unwrap_or(..)"),
            "unwrap_or_default" => Some(".join().unwrap_or_default()"),
            _ => None,
        };
    }
    let head = expr_head(toks, i - 1)?;
    if head < 2 || !toks[head].is_sym("=") {
        return None;
    }
    if toks[head - 1].is_ident("_") && toks[head - 2].is_ident("let") && sym_at(after, ";") {
        return Some("let _ = ….join()");
    }
    // `if let Ok(..) =`, `while let Ok(..) =` and `let Ok(..) = … else`.
    if !toks[head - 1].is_sym(")") {
        return None;
    }
    let open = open_paren_of(toks, head - 1)?;
    (open >= 2 && toks[open - 1].is_ident("Ok") && toks[open - 2].is_ident("let"))
        .then_some("let Ok(..) = ….join()")
}

/// Walking back from the expression whose last token is at `end`, the
/// index of the token just before it: the nearest `=`, `;` or `,`
/// outside brackets, or the opening bracket that encloses it.
fn expr_head(toks: &[Tok], end: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=end).rev() {
        let t = &toks[k];
        if t.is_sym(")") || t.is_sym("]") || t.is_sym("}") {
            depth += 1;
        } else if t.is_sym("(") || t.is_sym("[") || t.is_sym("{") {
            if depth == 0 {
                return Some(k);
            }
            depth -= 1;
        } else if depth == 0 && (t.is_sym("=") || t.is_sym(";") || t.is_sym(",")) {
            return Some(k);
        }
    }
    None
}

/// Is the receiver a `OnceLock`? Either its root binding classifies as
/// one, or its last segment is declared as a `OnceLock` field/static
/// anywhere in the file (`delta: OnceLock<…>`).
fn is_oncelock(toks: &[Tok], f: &crate::syntax::FnInfo, path: &str) -> bool {
    let root = path.split('.').next().unwrap_or(path);
    let root_ty = f
        .bindings
        .iter()
        .rev()
        .find(|b| b.name == root)
        .map(|b| b.ty)
        .or_else(|| {
            f.params
                .iter()
                .find(|(n, _)| n == root)
                .map(|(_, t)| *t)
        });
    if root_ty == Some(VarType::OnceLock) {
        return true;
    }
    let last = path.rsplit('.').next().unwrap_or(path);
    toks.windows(3).any(|w| {
        w[0].is_ident(last) && w[1].is_sym(":") && w[2].is_ident("OnceLock")
    })
}
