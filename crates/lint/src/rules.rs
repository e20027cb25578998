//! The rule set.
//!
//! Every rule walks the token stream produced by [`crate::lexer`] and is
//! scoped to *library* lines — test modules (`#[cfg(test)]`, `#[test]`)
//! are exempt, and whole test/bench files never reach the rules (the
//! walker filters them by path).

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::syntax::{self, Syntax, VarType};
use std::collections::HashSet;

/// Rule id: `unwrap`/`expect`/`panic!`-family/`assert!`-family in
/// library code.
pub const PANIC_IN_LIBRARY: &str = "panic-in-library";
/// Rule id: slice/array/map indexing in library code. Split from
/// [`PANIC_IN_LIBRARY`] so dense numeric kernels can `allow-file` the
/// indexing arm without also silencing stray unwraps.
pub const INDEX_IN_LIBRARY: &str = "index-in-library";
/// Rule id: panicking position-taking methods in library code
/// (`remove`, `swap_remove`, `split_at`, `drain(range)`, `copy_within`,
/// …) — the method-call cousins of [`INDEX_IN_LIBRARY`], which only sees
/// `[` bracket syntax.
pub const PANIC_METHOD_IN_LIBRARY: &str = "panic-method-in-library";
/// Rule id: orderings that panic or misbehave on NaN.
pub const NAN_UNSAFE_ORDERING: &str = "nan-unsafe-ordering";
/// Rule id: float→int `as` casts that silently truncate/saturate.
pub const TRUNCATING_AS_CAST: &str = "truncating-as-cast";
/// Rule id: `thread::spawn` whose `JoinHandle` is dropped.
pub const UNGUARDED_SPAWN: &str = "unguarded-spawn";

/// All rule ids, including the directive-hygiene pseudo-rule.
pub const ALL_RULES: &[&str] = &[
    PANIC_IN_LIBRARY,
    INDEX_IN_LIBRARY,
    PANIC_METHOD_IN_LIBRARY,
    NAN_UNSAFE_ORDERING,
    TRUNCATING_AS_CAST,
    UNGUARDED_SPAWN,
    crate::flow::UNVALIDATED_DENOMINATOR,
    crate::flow::CHECKED_UNWRAP,
    crate::flow::NAN_ACCUMULATION,
    crate::conc::RELAXED_ATOMIC_GATE,
    crate::conc::SCOPED_MUT_CAPTURE,
    crate::conc::ONCELOCK_GET_THEN_SET,
    crate::conc::SWALLOWED_JOIN_PANIC,
    crate::suppress::BAD_SUPPRESSION,
];

/// One-line description per rule id — the catalog `--help` prints.
pub fn describe(rule: &str) -> &'static str {
    match rule {
        PANIC_IN_LIBRARY => "unwrap/expect/panic!- or assert!-family call in library code",
        INDEX_IN_LIBRARY => "slice/array/map `[...]` indexing in library code",
        PANIC_METHOD_IN_LIBRARY => {
            "panicking position-taking method (remove, split_at, Vec::insert, ...)"
        }
        NAN_UNSAFE_ORDERING => "ordering or comparison that panics or misbehaves on NaN",
        TRUNCATING_AS_CAST => "float->int or narrowing `as` cast that silently truncates/saturates",
        UNGUARDED_SPAWN => "thread::spawn with a discarded JoinHandle",
        crate::flow::UNVALIDATED_DENOMINATOR => {
            "division by a caller-supplied parameter no path validated"
        }
        crate::flow::CHECKED_UNWRAP => {
            "is_some()/is_ok() check followed by unwrap() inside the guarded block"
        }
        crate::flow::NAN_ACCUMULATION => {
            "loop-carried float accumulation of a quotient with an unchecked denominator"
        }
        crate::conc::RELAXED_ATOMIC_GATE => {
            "Relaxed atomic load gating control flow (no happens-before edge)"
        }
        crate::conc::SCOPED_MUT_CAPTURE => {
            "closure passed to spawn mutating captured state without a sync wrapper"
        }
        crate::conc::ONCELOCK_GET_THEN_SET => {
            "OnceLock get() then set() check-then-act race"
        }
        crate::conc::SWALLOWED_JOIN_PANIC => {
            "thread join whose Err (the worker's panic) is discarded"
        }
        crate::suppress::BAD_SUPPRESSION => "malformed, unreasoned, or stale kea-lint directive",
        _ => "unknown rule",
    }
}

/// Keywords that may directly precede `[` without it being an index
/// expression (`let [a, b] = …`, `for [x, y] in …`, `&mut [T]`, …).
const NONINDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "for", "while", "loop", "move",
    "box", "dyn", "impl", "fn", "pub", "use", "where", "const", "static", "struct", "enum",
    "trait", "type", "unsafe", "async", "await", "break", "continue", "crate", "super", "as",
    "yield",
];

/// Integer target types for the truncating-cast rule.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Narrow integer types: casting `.len()` into these can truncate.
const NARROW_INT_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Methods that only exist on floats (so `x.round() as usize` is a
/// float→int cast even without type information).
const FLOAT_METHODS: &[&str] = &[
    "round", "floor", "ceil", "trunc", "sqrt", "powf", "powi", "exp", "exp2", "ln", "log", "log2",
    "log10", "fract", "cbrt", "hypot", "recip", "to_degrees", "to_radians",
];

/// Compute 1-based line spans covered by `#[cfg(test)]` / `#[test]`
/// items, so rules can exempt inline test modules.
pub fn test_line_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_sym("#") && i + 1 < toks.len() && toks[i + 1].is_sym("[") {
            // Collect the attribute's tokens up to the matching `]`.
            let mut depth = 0i32;
            let mut j = i + 1;
            let attr_start = i + 2;
            while j < toks.len() {
                if toks[j].is_sym("[") {
                    depth += 1;
                } else if toks[j].is_sym("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            if j >= toks.len() {
                break;
            }
            let attr = &toks[attr_start..j];
            if is_test_attr(attr) {
                let start_line = toks[i].line;
                let end_line = item_end_line(toks, j + 1);
                spans.push((start_line, end_line));
                i = j + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// `#[test]` or an attribute containing the `cfg ( test` sequence
/// (matches `#[cfg(test)]` but not `#[cfg(not(test))]`).
fn is_test_attr(attr: &[Tok]) -> bool {
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    attr.windows(3).any(|w| {
        w[0].is_ident("cfg") && w[1].is_sym("(") && w[2].is_ident("test")
    })
}

/// Line of the `;` or matching `}` that closes the item starting after
/// token `from` (skipping further attributes).
fn item_end_line(toks: &[Tok], mut from: usize) -> u32 {
    // Skip stacked attributes.
    while from + 1 < toks.len() && toks[from].is_sym("#") && toks[from + 1].is_sym("[") {
        let mut depth = 0i32;
        while from < toks.len() {
            if toks[from].is_sym("[") {
                depth += 1;
            } else if toks[from].is_sym("]") {
                depth -= 1;
                if depth == 0 {
                    from += 1;
                    break;
                }
            }
            from += 1;
        }
    }
    // Find the item's body `{` (or a terminating `;` for `mod foo;`).
    let mut i = from;
    while i < toks.len() && !toks[i].is_sym("{") && !toks[i].is_sym(";") {
        i += 1;
    }
    if i >= toks.len() {
        return toks.last().map(|t| t.line).unwrap_or(1);
    }
    if toks[i].is_sym(";") {
        return toks[i].line;
    }
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].is_sym("{") {
            depth += 1;
        } else if toks[i].is_sym("}") {
            depth -= 1;
            if depth == 0 {
                return toks[i].line;
            }
        }
        i += 1;
    }
    toks.last().map(|t| t.line).unwrap_or(1)
}

/// Is `line` inside any of the test-exempt `spans`?
pub(crate) fn in_spans(spans: &[(u32, u32)], line: u32) -> bool {
    spans.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Index of the `cl` matching the `op` at `open`; `None` unless
/// `toks[open]` is `op` and the bracket closes.
pub(crate) fn matching_close(toks: &[Tok], open: usize, op: &str, cl: &str) -> Option<usize> {
    if !toks.get(open)?.is_sym(op) {
        return None;
    }
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_sym(op) {
            depth += 1;
        } else if t.is_sym(cl) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the token after the `)` matching the `(` at `open`, or
/// `toks.len()` when there is none.
pub(crate) fn skip_parens(toks: &[Tok], open: usize) -> usize {
    matching_close(toks, open, "(", ")").map_or(toks.len(), |close| close + 1)
}

/// Index of the `(` matching the `)` at `close`, scanning backwards.
pub(crate) fn open_paren_of(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = close as isize;
    while i >= 0 {
        let t = &toks[i as usize];
        if t.is_sym(")") {
            depth += 1;
        } else if t.is_sym("(") {
            depth -= 1;
            if depth == 0 {
                return Some(i as usize);
            }
        }
        i -= 1;
    }
    None
}

/// Run every rule over one file's tokens. `file` is the path used in
/// diagnostics; `spans` are the test-exempt line ranges.
pub fn run_all(file: &str, toks: &[Tok], spans: &[(u32, u32)]) -> Vec<Diagnostic> {
    let syn = syntax::analyze(toks);
    let mut diags = Vec::new();
    // Token indices of `unwrap`/`expect` already reported through
    // `nan-unsafe-ordering` / `checked-unwrap` (avoid double-reporting
    // one call chain).
    let mut consumed = HashSet::new();
    nan_unsafe_ordering(file, toks, spans, &mut diags, &mut consumed);
    crate::flow::run(file, toks, spans, &syn, &mut diags, &mut consumed);
    crate::conc::run(file, toks, spans, &syn, &mut diags);
    panic_in_library(file, toks, spans, &mut diags, &consumed);
    index_in_library(file, toks, spans, &mut diags);
    panic_method_in_library(file, toks, spans, &syn, &mut diags);
    truncating_as_cast(file, toks, spans, &syn, &mut diags);
    unguarded_spawn(file, toks, spans, &mut diags);
    diags
}

fn panic_in_library(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
    consumed: &HashSet<usize>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_spans(spans, t.line) {
            continue;
        }
        // `.unwrap()` / `.expect(...)`
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_sym(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_sym("(")
            && !consumed.contains(&i)
        {
            diags.push(Diagnostic::new(
                PANIC_IN_LIBRARY,
                file,
                t.line,
                t.col,
                format!(
                    "`.{}()` can panic in library code; return a typed error, \
                     use `unwrap_or`/`ok_or`, or add `// kea-lint: allow({}) — <reason>`",
                    t.text, PANIC_IN_LIBRARY
                ),
            ));
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`, and the
        // `assert!` family, which stays in release builds (its
        // `debug_assert!` cousins do not).
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic"
                    | "unreachable"
                    | "todo"
                    | "unimplemented"
                    | "assert"
                    | "assert_eq"
                    | "assert_ne"
            )
            && i + 1 < toks.len()
            && toks[i + 1].is_sym("!")
        {
            diags.push(Diagnostic::new(
                PANIC_IN_LIBRARY,
                file,
                t.line,
                t.col,
                format!(
                    "`{}!` aborts the tuning loop; return a typed error instead",
                    t.text
                ),
            ));
        }
    }
}

fn index_in_library(file: &str, toks: &[Tok], spans: &[(u32, u32)], diags: &mut Vec<Diagnostic>) {
    for i in 1..toks.len() {
        if !toks[i].is_sym("[") {
            continue;
        }
        if in_spans(spans, toks[i].line) {
            continue;
        }
        let prev = &toks[i - 1];
        let is_index_receiver = match prev.kind {
            TokKind::Ident => !NONINDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Punct | TokKind::Op => prev.text == ")" || prev.text == "]",
            _ => false,
        };
        if is_index_receiver {
            diags.push(Diagnostic::new(
                INDEX_IN_LIBRARY,
                file,
                toks[i].line,
                toks[i].col,
                format!(
                    "indexing (`…[…]`) panics when out of bounds; use `.get(…)`, \
                     an iterator, or add `// kea-lint: allow({INDEX_IN_LIBRARY}) — <reason>`"
                ),
            ));
        }
    }
}

/// Methods that panic on out-of-range positions for every receiver type
/// they exist on (slice/`Vec`/`VecDeque` position APIs) — no keyed
/// non-panicking homonym to worry about.
const ALWAYS_PANIC_METHODS: &[&str] = &[
    "swap_remove",
    "split_at",
    "split_at_mut",
    "copy_within",
    "copy_from_slice",
    "clone_from_slice",
];

/// Methods that panic on out-of-range *positions* when the receiver is a
/// sequence, but also exist as non-panicking *key* operations on
/// `HashMap`/`BTreeMap`/sets. The keyed form passes the key by reference
/// (`map.remove(&k)`), so a leading `&` in the argument list marks the
/// call as keyed and exempt.
const POSITION_PANIC_METHODS: &[&str] = &["remove", "split_off", "swap"];

fn panic_method_in_library(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
) {
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || !toks[i - 1].is_sym(".")
            || i + 1 >= toks.len()
            || !toks[i + 1].is_sym("(")
        {
            continue;
        }
        if in_spans(spans, t.line) {
            continue;
        }
        let name = t.text.as_str();
        let first_arg = toks.get(i + 2);
        let flagged = if ALWAYS_PANIC_METHODS.contains(&name) {
            true
        } else if POSITION_PANIC_METHODS.contains(&name) {
            // `.remove(&key)` / `.swap(&mut a, &mut b)` are keyed-map or
            // `mem::swap`-style calls — non-panicking. A position call
            // passes the index by value.
            !first_arg.map(|a| a.is_sym("&")).unwrap_or(true)
        } else if name == "drain" {
            // `.drain()` (maps) and `.drain(..)` (full range) cannot go
            // out of bounds; `.drain(i..j)` can.
            match first_arg {
                Some(a) if a.is_sym(")") => false,
                Some(a) if a.is_sym("..") => {
                    !toks.get(i + 3).map(|b| b.is_sym(")")).unwrap_or(false)
                }
                Some(_) => true,
                None => false,
            }
        } else if name == "insert" {
            // `.insert(i, v)` panics on `Vec`/`VecDeque` when
            // `i > len`; the keyed map form does not. The receiver's
            // propagated local type disambiguates; an unknown receiver
            // stays exempt (the map form dominates in this codebase).
            !first_arg.map(|a| a.is_sym("&")).unwrap_or(true)
                && receiver_type(toks, syn, i - 1) == VarType::VecLike
        } else {
            false
        };
        if flagged {
            diags.push(Diagnostic::new(
                PANIC_METHOD_IN_LIBRARY,
                file,
                t.line,
                t.col,
                format!(
                    "`.{name}(…)` panics when the position is out of bounds; check against \
                     `.len()` first, restructure, or add \
                     `// kea-lint: allow({PANIC_METHOD_IN_LIBRARY}) — <reason>`"
                ),
            ));
        }
    }
}

fn nan_unsafe_ordering(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
    consumed: &mut HashSet<usize>,
) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if in_spans(spans, t.line) {
            continue;
        }
        // `partial_cmp(…).unwrap()` / `.expect(…)`
        if t.is_ident("partial_cmp")
            && i > 0
            && toks[i - 1].is_sym(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_sym("(")
        {
            let after = skip_parens(toks, i + 1);
            if after + 1 < toks.len()
                && toks[after].is_sym(".")
                && (toks[after + 1].is_ident("unwrap") || toks[after + 1].is_ident("expect"))
            {
                consumed.insert(after + 1);
                diags.push(Diagnostic::new(
                    NAN_UNSAFE_ORDERING,
                    file,
                    t.line,
                    t.col,
                    "`partial_cmp(..).unwrap()` panics on NaN; use `f64::total_cmp` \
                     (behavior-identical for finite inputs)",
                ));
            }
        }
        // `x == 1.5` / `x != 2.0`: exact float-literal comparison.
        // Comparisons against literal zero are exempt: `if d == 0.0`
        // is the *correct* division guard (NaN compares false and
        // propagates), and `.abs() < eps` would change behavior.
        if (t.is_sym("==") || t.is_sym("!=")) && i > 0 && i + 1 < toks.len() {
            let nonzero_float = |tok: &Tok| {
                tok.kind == TokKind::Float && !float_literal_is_zero(&tok.text)
            };
            let float_adjacent = nonzero_float(&toks[i - 1]) || nonzero_float(&toks[i + 1]);
            // `x == f64::NAN` is always false — catch the path tail too.
            let nan_adjacent = toks
                .get(i + 1..(i + 4).min(toks.len()))
                .map(|w| w.iter().any(|t| t.is_ident("NAN")))
                .unwrap_or(false);
            if float_adjacent || nan_adjacent {
                diags.push(Diagnostic::new(
                    NAN_UNSAFE_ORDERING,
                    file,
                    t.line,
                    t.col,
                    if nan_adjacent {
                        "comparison with NAN is always false; use `.is_nan()`".to_string()
                    } else {
                        format!(
                            "exact float equality is NaN- and rounding-fragile; compare with a \
                             tolerance or add `// kea-lint: allow({NAN_UNSAFE_ORDERING}) — <reason>`"
                        )
                    },
                ));
            }
        }
    }
}

/// Is this float-literal text exactly zero (`0.0`, `0.`, `0e0`, with or
/// without an `f32`/`f64` suffix or underscores)?
fn float_literal_is_zero(text: &str) -> bool {
    let cleaned: String = text
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .chars()
        .filter(|c| *c != '_')
        .collect();
    cleaned.parse::<f64>().map(|v| v == 0.0).unwrap_or(false)
}

/// Propagated local type of the receiver chain ending at the `.` token
/// at `dot`, resolved in the innermost enclosing function.
fn receiver_type(toks: &[Tok], syn: &Syntax, dot: usize) -> VarType {
    let Some((root_at, root)) = syntax::receiver_root(toks, dot) else {
        return VarType::Unknown;
    };
    // A dotted chain (`self.buf.insert`) types the *root*, which says
    // nothing about the field — stay unknown for chains.
    if root_at + 1 != dot {
        return VarType::Unknown;
    }
    syn.enclosing_fn(root_at)
        .map(|f| f.type_of(&root, root_at))
        .unwrap_or(VarType::Unknown)
}

fn truncating_as_cast(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
) {
    for i in 1..toks.len().saturating_sub(1) {
        if !toks[i].is_ident("as") {
            continue;
        }
        if in_spans(spans, toks[i].line) {
            continue;
        }
        let target = &toks[i + 1];
        if target.kind != TokKind::Ident || !INT_TYPES.contains(&target.text.as_str()) {
            continue;
        }
        let prev = &toks[i - 1];
        // `1.5 as usize`
        if prev.kind == TokKind::Float {
            diags.push(Diagnostic::new(
                TRUNCATING_AS_CAST,
                file,
                toks[i].line,
                toks[i].col,
                format!(
                    "float literal cast to `{}` truncates; use `.round()`/`.floor()` explicitly \
                     and bounds-check, or add `// kea-lint: allow({TRUNCATING_AS_CAST}) — <reason>`",
                    target.text
                ),
            ));
            continue;
        }
        // `value.parse::<u64>()? as u32`: the result of a fallible
        // conversion immediately narrowed with `as` — the classic
        // checked-parse-then-unchecked-truncate bug (a machine id of 2³²
        // parsed fine and wrapped to 0 in the telemetry CSV reader).
        // Widening (`? as u64`) stays legal: only narrow targets fire.
        if prev.is_sym("?") && NARROW_INT_TYPES.contains(&target.text.as_str()) {
            diags.push(Diagnostic::new(
                TRUNCATING_AS_CAST,
                file,
                toks[i].line,
                toks[i].col,
                format!(
                    "fallible result narrowed with `as {}` wraps silently; use \
                     `{}::try_from(..)` (or bounds-check) so out-of-range values become \
                     errors, or add `// kea-lint: allow({TRUNCATING_AS_CAST}) — <reason>`",
                    target.text, target.text
                ),
            ));
            continue;
        }
        // `expr.round() as usize`, `xs.len() as u32`
        if prev.is_sym(")") {
            if let Some(open) = open_paren_of(toks, i - 1) {
                if open >= 2 && toks[open - 2].is_sym(".") {
                    let method = &toks[open - 1];
                    // A user-defined `.round()` on a receiver whose
                    // propagated type is known non-float is not a float
                    // cast — the old token-level pass couldn't tell.
                    let recv = receiver_type(toks, syn, open - 2);
                    let float_recv = matches!(recv, VarType::Float | VarType::Unknown);
                    if method.kind == TokKind::Ident
                        && FLOAT_METHODS.contains(&method.text.as_str())
                        && float_recv
                    {
                        diags.push(Diagnostic::new(
                            TRUNCATING_AS_CAST,
                            file,
                            toks[i].line,
                            toks[i].col,
                            format!(
                                "float expression (`.{}(…)`) cast to `{}` silently saturates on \
                                 NaN/overflow; bounds-check first or add \
                                 `// kea-lint: allow({TRUNCATING_AS_CAST}) — <reason>`",
                                method.text, target.text
                            ),
                        ));
                    } else if method.is_ident("len")
                        && NARROW_INT_TYPES.contains(&target.text.as_str())
                    {
                        diags.push(Diagnostic::new(
                            TRUNCATING_AS_CAST,
                            file,
                            toks[i].line,
                            toks[i].col,
                            format!(
                                "`.len() as {}` truncates on large collections; use \
                                 `try_into()` or keep `usize`",
                                target.text
                            ),
                        ));
                    }
                }
            }
        }
    }
}

fn unguarded_spawn(file: &str, toks: &[Tok], spans: &[(u32, u32)], diags: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if !toks[i].is_ident("thread") {
            continue;
        }
        if in_spans(spans, toks[i].line) {
            continue;
        }
        if !(i + 3 < toks.len()
            && toks[i + 1].is_sym("::")
            && toks[i + 2].is_ident("spawn")
            && toks[i + 3].is_sym("("))
        {
            continue;
        }
        // Walk back over an optional `std::` prefix to the statement head.
        let mut head = i;
        if head >= 2 && toks[head - 1].is_sym("::") && toks[head - 2].is_ident("std") {
            head -= 2;
        }
        let at_stmt_start = head == 0
            || toks[head - 1].is_sym(";")
            || toks[head - 1].is_sym("{")
            || toks[head - 1].is_sym("}");
        if !at_stmt_start {
            continue; // the handle is bound or chained — guarded
        }
        let after = skip_parens(toks, i + 3);
        if after < toks.len() && toks[after].is_sym(";") {
            diags.push(Diagnostic::new(
                UNGUARDED_SPAWN,
                file,
                toks[i].line,
                toks[i].col,
                "`thread::spawn` result discarded — the JoinHandle must be kept and joined \
                 (or use `std::thread::scope`) so panics and stragglers are observed",
            ));
        }
    }
}
