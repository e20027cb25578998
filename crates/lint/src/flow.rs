//! The **dataflow** rule pack.
//!
//! These rules use the [`crate::syntax`] layer to follow values a short
//! distance — parameter to denominator, check to escape hatch,
//! loop-carried accumulator to its feeding expression — instead of
//! matching adjacent tokens. All three guard the same invariant as the
//! original rule set: KEA's tuning loop must neither abort nor silently
//! corrupt its numbers, because a recommendation computed from NaN ships
//! to the whole fleet.

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::rules::in_spans;
use crate::syntax::{receiver_path, FnInfo, Syntax, VarType};
use std::collections::HashSet;

/// Rule id: dividing by a caller-supplied parameter that no code path
/// validated first.
pub const UNVALIDATED_DENOMINATOR: &str = "unvalidated-denominator";
/// Rule id: `x.is_some()` / `x.is_ok()` check followed by `x.unwrap()`
/// inside the guarded block — the check and the escape drift apart.
pub const CHECKED_UNWRAP: &str = "checked-unwrap";
/// Rule id: loop-carried float accumulation of a quotient with an
/// unchecked denominator — one bad term poisons the whole aggregate.
pub const NAN_ACCUMULATION: &str = "nan-accumulation";

/// Methods whose call on a value counts as validating it.
const VALIDATING_METHODS: &[&str] = &[
    "max",
    "min",
    "clamp",
    "abs",
    "is_finite",
    "is_nan",
    "is_sign_positive",
    "is_sign_negative",
    "recip",
    "is_empty",
];

/// Comparison operators that count as validating their operands.
fn is_comparison(t: &Tok) -> bool {
    matches!(t.text.as_str(), "==" | "!=" | "<" | "<=" | ">" | ">=")
        && (t.kind == TokKind::Op || t.kind == TokKind::Punct)
}

/// Has `name` been validated anywhere in `toks[range_start..before]`?
/// Validation = compared against anything, a validating method call,
/// re-assignment, being matched on, or appearing inside an
/// `assert!`-family macro.
fn validated(toks: &[Tok], range_start: usize, before: usize, name: &str) -> bool {
    for j in range_start..before.min(toks.len()) {
        if !toks[j].is_ident(name) {
            continue;
        }
        // `name <op> …` / `… <op> name`
        if j + 1 < toks.len() && is_comparison(&toks[j + 1]) {
            return true;
        }
        if j > range_start && is_comparison(&toks[j - 1]) {
            return true;
        }
        // `name = …` re-assignment (the binding takes over).
        if j + 1 < toks.len() && toks[j + 1].is_sym("=") {
            return true;
        }
        // `name.max(…)`, `name.is_finite()`, …
        if j + 2 < toks.len()
            && toks[j + 1].is_sym(".")
            && toks[j + 2].kind == TokKind::Ident
            && VALIDATING_METHODS.contains(&toks[j + 2].text.as_str())
        {
            return true;
        }
        // `match name`
        if j > range_start && toks[j - 1].is_ident("match") {
            return true;
        }
        // Inside an assert-family macro's argument list.
        if j >= 2 {
            let mut k = j;
            let mut depth = 0i32;
            while k > range_start {
                k -= 1;
                if toks[k].is_sym(")") {
                    depth += 1;
                } else if toks[k].is_sym("(") {
                    if depth == 0 {
                        if k >= 2
                            && toks[k - 1].is_sym("!")
                            && toks[k - 2].text.contains("assert")
                        {
                            return true;
                        }
                        break;
                    }
                    depth -= 1;
                }
            }
        }
    }
    false
}

/// Run the dataflow pack over one file.
pub fn run(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
    consumed: &mut HashSet<usize>,
) {
    for f in &syn.fns {
        unvalidated_denominator(file, toks, spans, f, diags);
        nan_accumulation(file, toks, spans, f, diags);
    }
    checked_unwrap(file, toks, spans, syn, diags, consumed);
}

/// Is the parameter `name` still the caller's raw value at token `at`
/// (not shadowed by a local binding)?
fn is_live_param(f: &FnInfo, name: &str, at: usize) -> Option<VarType> {
    if f.bindings.iter().any(|b| b.name == name && b.at < at) {
        return None;
    }
    f.params
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, t)| *t)
}

fn unvalidated_denominator(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    f: &FnInfo,
    diags: &mut Vec<Diagnostic>,
) {
    for i in f.body.clone() {
        let t = &toks[i];
        let is_div = (t.is_sym("/") || t.is_sym("%"))
            || (t.kind == TokKind::Op && matches!(t.text.as_str(), "/=" | "%="));
        if !is_div || i + 1 >= f.body.end {
            continue;
        }
        let den = &toks[i + 1];
        if den.kind != TokKind::Ident {
            continue;
        }
        // Only bare identifiers: `x / d.max(eps)` and `x / len()` style
        // denominators are expressions the author already shaped.
        if i + 2 < toks.len() {
            let after = &toks[i + 2];
            if after.is_sym(".") || after.is_sym("(") || after.is_sym("::") || after.is_sym("[") {
                continue;
            }
        }
        // The denominator must be a *numeric parameter* still carrying
        // the caller's raw value.
        let Some(ty) = is_live_param(f, &den.text, i) else {
            continue;
        };
        if !matches!(ty, VarType::Float | VarType::Int) {
            continue;
        }
        if in_spans(spans, t.line) {
            continue;
        }
        if validated(toks, f.body.start, i, &den.text) {
            continue;
        }
        let zero_effect = if ty == VarType::Float {
            "a zero or NaN divides into NaN/inf that propagates silently"
        } else {
            "a zero divisor panics"
        };
        diags.push(Diagnostic::new(
            UNVALIDATED_DENOMINATOR,
            file,
            den.line,
            den.col,
            format!(
                "denominator `{}` flows straight from the caller into this division — {}; \
                 guard it first (early-return on zero, `.max(eps)`, or validate at entry), \
                 or add `// kea-lint: allow({UNVALIDATED_DENOMINATOR}) — <reason>`",
                den.text, zero_effect
            ),
        ));
    }
}

fn checked_unwrap(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    syn: &Syntax,
    diags: &mut Vec<Diagnostic>,
    consumed: &mut HashSet<usize>,
) {
    for cond in &syn.conditions {
        // Only `if` conditions guard a block the escape can live in.
        if cond.start == 0 || !toks[cond.start - 1].is_ident("if") {
            continue;
        }
        // Checked receivers in the condition: `recv.is_some()` /
        // `recv.is_ok()`, skipping negated checks (`!recv.is_some()`).
        let mut checked: Vec<(String, &'static str)> = Vec::new();
        for i in cond.clone() {
            let t = &toks[i];
            let kind = if t.is_ident("is_some") {
                "Some"
            } else if t.is_ident("is_ok") {
                "Ok"
            } else {
                continue;
            };
            if i == 0 || !toks[i - 1].is_sym(".") {
                continue;
            }
            if i + 1 >= toks.len() || !toks[i + 1].is_sym("(") {
                continue;
            }
            let Some(path) = receiver_path(toks, i - 1) else {
                continue;
            };
            // Walk to the head of the receiver chain to check negation.
            let chain_len = path.split('.').count() * 2 - 1;
            let head = (i - 1).saturating_sub(chain_len);
            if head > 0 && toks[head - 1].is_sym("!") {
                continue;
            }
            checked.push((path, kind));
        }
        if checked.is_empty() {
            continue;
        }
        // The guarded block: brace group right after the condition.
        let open = cond.end;
        if open >= toks.len() || !toks[open].is_sym("{") {
            continue;
        }
        let mut depth = 0i32;
        let mut close = open;
        while close < toks.len() {
            if toks[close].is_sym("{") {
                depth += 1;
            } else if toks[close].is_sym("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        for i in open + 1..close.min(toks.len()) {
            let t = &toks[i];
            if !(t.is_ident("unwrap") || t.is_ident("expect")) {
                continue;
            }
            if i == 0 || !toks[i - 1].is_sym(".") {
                continue;
            }
            if i + 1 >= toks.len() || !toks[i + 1].is_sym("(") {
                continue;
            }
            let Some(path) = receiver_path(toks, i - 1) else {
                continue;
            };
            let Some((_, variant)) = checked.iter().find(|(p, _)| *p == path) else {
                continue;
            };
            if in_spans(spans, t.line) {
                continue;
            }
            consumed.insert(i);
            diags.push(Diagnostic::new(
                CHECKED_UNWRAP,
                file,
                t.line,
                t.col,
                format!(
                    "`{path}` is checked in the `if` condition and `.{}()`-ed inside the \
                     block — the check and the escape drift apart under edits; bind the \
                     value instead: `if let {variant}(v) = {path}` (or `let {variant}(v) \
                     = {path} else`)",
                    t.text
                ),
            ));
        }
    }
}

fn nan_accumulation(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    f: &FnInfo,
    diags: &mut Vec<Diagnostic>,
) {
    let mut i = f.body.start;
    while i < f.body.end {
        if !(toks[i].is_ident("for") || toks[i].is_ident("while")) {
            i += 1;
            continue;
        }
        // Loop body: first `{` at zero bracket depth after the keyword.
        let mut depth = 0i32;
        let mut open = i + 1;
        while open < f.body.end {
            let t = &toks[open];
            if t.is_sym("(") || t.is_sym("[") {
                depth += 1;
            } else if t.is_sym(")") || t.is_sym("]") {
                depth -= 1;
            } else if t.is_sym("{") && depth == 0 {
                break;
            }
            open += 1;
        }
        let Some(close) = crate::rules::matching_close(toks, open, "{", "}") else {
            i = open + 1;
            continue;
        };
        scan_loop_body(file, toks, spans, f, open + 1..close, diags);
        i = open + 1; // nested loops get their own scan
    }
}

fn scan_loop_body(
    file: &str,
    toks: &[Tok],
    spans: &[(u32, u32)],
    f: &FnInfo,
    body: std::ops::Range<usize>,
    diags: &mut Vec<Diagnostic>,
) {
    // Any finiteness guard inside the loop body is taken as the author
    // handling the NaN/inf case.
    let guarded = body
        .clone()
        .any(|k| toks[k].is_ident("is_finite") || toks[k].is_ident("is_nan"));
    if guarded {
        return;
    }
    for k in body.clone() {
        let t = &toks[k];
        if t.kind != TokKind::Op || !matches!(t.text.as_str(), "+=" | "-=" | "*=") {
            continue;
        }
        if k == 0 || toks[k - 1].kind != TokKind::Ident {
            continue;
        }
        let acc = &toks[k - 1];
        if f.type_of(&acc.text, k) != VarType::Float {
            continue;
        }
        // RHS tokens up to the statement end.
        let mut depth = 0i32;
        let mut end = k + 1;
        while end < body.end {
            let te = &toks[end];
            if te.is_sym("(") || te.is_sym("[") || te.is_sym("{") {
                depth += 1;
            } else if te.is_sym(")") || te.is_sym("]") || te.is_sym("}") {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if te.is_sym(";") && depth == 0 {
                break;
            }
            end += 1;
        }
        // A division whose denominator is not a literal poisons the
        // accumulator on a zero/NaN term.
        let mut risky = None;
        for d in k + 1..end {
            if !toks[d].is_sym("/") {
                continue;
            }
            let Some(den) = toks.get(d + 1) else {
                continue;
            };
            if matches!(den.kind, TokKind::Int | TokKind::Float) {
                continue;
            }
            // A bare-identifier denominator already validated in this
            // function is handled.
            if den.kind == TokKind::Ident
                && !toks.get(d + 2).map(|t| t.is_sym(".") || t.is_sym("(")).unwrap_or(false)
                && validated(toks, f.body.start, d, &den.text)
            {
                continue;
            }
            risky = Some(d);
            break;
        }
        let Some(_) = risky else {
            continue;
        };
        if in_spans(spans, t.line) {
            continue;
        }
        diags.push(Diagnostic::new(
            NAN_ACCUMULATION,
            file,
            t.line,
            t.col,
            format!(
                "`{}` accumulates a quotient inside a loop — one zero/NaN denominator \
                 poisons every later iteration silently; validate the denominator, filter \
                 non-finite terms, or add `// kea-lint: allow({NAN_ACCUMULATION}) — <reason>`",
                acc.text
            ),
        ));
    }
}
