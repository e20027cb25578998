//! A lightweight syntax layer over the flat token stream.
//!
//! `kea-lint` still avoids `syn` (the offline build environment rules
//! out registry deps), but the dataflow and concurrency rule packs need
//! more structure than adjacent-token matching: function boundaries and
//! parameter lists, `let`/`static` bindings with a coarse local type,
//! closure bodies (to tell closure-local state from captured state),
//! and method-call receivers. This module recovers exactly that much —
//! a brace-tree-shaped pass, not a parse — and nothing more:
//!
//! * **Functions** are found by scanning for `fn <ident>`, skipping
//!   generic parameter lists, and brace-matching the body. Nested
//!   functions appear both as their own [`FnInfo`] and inside the
//!   enclosing body; rules de-duplicate identical diagnostics instead
//!   of modelling scopes.
//! * **Type propagation** is local and nominal: a binding's type comes
//!   from its annotation (`let x: Vec<f64>`) or the shape of its
//!   initializer (`Vec::new()`, `vec![…]`, a float literal, a trailing
//!   `as usize` cast, `Mutex::new(…)`, …) and collapses into the coarse
//!   [`VarType`] buckets the rules key off. Anything unrecognized is
//!   [`VarType::Unknown`], and every rule treats `Unknown`
//!   conservatively in its own flagging direction.
//! * **Closures** are recognized at expression positions (`|args| body`
//!   and the empty-parameter `||` form); a closure's body range lets a
//!   rule ask whether a binding was declared inside or captured from
//!   the enclosing function.

use crate::lexer::{Tok, TokKind};
use crate::rules::matching_close;
use std::ops::Range;

/// Coarse nominal type buckets for local bindings and parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// `f64`/`f32` (annotation, float-literal initializer, `as f64`).
    Float,
    /// Any integer type, or an initializer ending in an `as <int>` cast.
    Int,
    /// `bool`.
    Bool,
    /// `String`/`&str`.
    Str,
    /// `Vec`, `VecDeque`, arrays and slices — positional containers
    /// whose `insert`/`remove` take indices.
    VecLike,
    /// `HashMap`/`BTreeMap`/`HashSet`/`BTreeSet` — keyed containers
    /// whose `insert`/`remove` take keys.
    MapLike,
    /// `AtomicUsize`, `AtomicU64`, `AtomicBool`, … .
    Atomic,
    /// `Mutex`/`RwLock` (and `Arc`) — synchronization wrappers.
    SyncWrapper,
    /// `OnceLock`.
    OnceLock,
    /// A recognized user-defined nominal type (capitalized path root).
    Other,
    /// Could not be classified; rules must stay conservative.
    Unknown,
}

/// One parameter or `let`/`static` binding.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Bound name (simple-identifier patterns only).
    pub name: String,
    /// Coarse type bucket.
    pub ty: VarType,
    /// Token index of the name (bindings shadow earlier ones from here).
    pub at: usize,
}

/// A closure expression inside a function body.
#[derive(Debug, Clone)]
pub struct Closure {
    /// Parameter names bound by the closure head.
    pub params: Vec<String>,
    /// Token index of the opening `|` (or fused `||`).
    pub start: usize,
    /// Token range of the body (inside braces for block bodies,
    /// the expression tokens otherwise).
    pub body: Range<usize>,
}

/// One `fn` item: signature plus the body-local facts rules consume.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// `(name, type)` per simple-identifier parameter (`self` and
    /// destructuring patterns are skipped).
    pub params: Vec<(String, VarType)>,
    /// Token range strictly inside the body braces.
    pub body: Range<usize>,
    /// `let`/`static`/`const` bindings anywhere in the body (including
    /// inside nested closures), in token order.
    pub bindings: Vec<Binding>,
    /// Closures anywhere in the body, in token order.
    pub closures: Vec<Closure>,
}

impl FnInfo {
    /// Type of `name` as seen at token `at`: the latest binding before
    /// `at`, else the parameter of that name, else `Unknown`.
    pub fn type_of(&self, name: &str, at: usize) -> VarType {
        if let Some(b) = self
            .bindings
            .iter()
            .rev()
            .find(|b| b.name == name && b.at < at)
        {
            return b.ty;
        }
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or(VarType::Unknown)
    }

    /// Was `name` declared (as a closure parameter or a `let`) inside
    /// `closure`? Captured state is state this returns `false` for.
    pub fn declared_in_closure(&self, closure: &Closure, name: &str) -> bool {
        if closure.params.iter().any(|p| p == name) {
            return true;
        }
        self.bindings
            .iter()
            .any(|b| b.name == name && closure.body.contains(&b.at))
    }
}

/// The syntax facts for one file.
#[derive(Debug, Default)]
pub struct Syntax {
    /// Every `fn` item found, in token order (nested fns included).
    pub fns: Vec<FnInfo>,
    /// Token ranges of `if`/`while`/`match` conditions and scrutinees —
    /// the region between the keyword and its body `{`.
    pub conditions: Vec<Range<usize>>,
}

impl Syntax {
    /// The innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.contains(&idx))
            .min_by_key(|f| f.body.end - f.body.start)
    }

    /// Is token `idx` inside an `if`/`while`/`match` condition?
    pub fn in_condition(&self, idx: usize) -> bool {
        self.conditions.iter().any(|r| r.contains(&idx))
    }
}

/// Build the syntax facts for one token stream.
pub fn analyze(toks: &[Tok]) -> Syntax {
    let mut syn = Syntax::default();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
        {
            if let Some(f) = parse_fn(toks, i) {
                // Continue *inside* the body so nested fns are found too.
                let resume = f.body.start;
                syn.fns.push(f);
                i = resume;
                continue;
            }
        }
        i += 1;
    }
    syn.conditions = condition_ranges(toks);
    syn
}

/// Token ranges between `if`/`while`/`match` and the `{` opening their
/// body, at zero relative bracket depth. `if let`/`while let` included.
fn condition_ranges(toks: &[Tok]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.is_ident("if") || t.is_ident("while") || t.is_ident("match")) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            let tj = &toks[j];
            if tj.is_sym("(") || tj.is_sym("[") {
                depth += 1;
            } else if tj.is_sym(")") || tj.is_sym("]") {
                depth -= 1;
            } else if tj.is_sym("{") && depth == 0 {
                break;
            } else if tj.is_sym(";") && depth == 0 {
                // `if` used as an expression head we failed to track —
                // bail rather than spanning past the statement.
                break;
            }
            j += 1;
        }
        if j > i + 1 && j < toks.len() {
            out.push(i + 1..j);
        }
    }
    out
}

/// Parse the `fn` item starting at `at` (`toks[at]` is the `fn`
/// keyword). Returns `None` for bodyless signatures (trait methods).
fn parse_fn(toks: &[Tok], at: usize) -> Option<FnInfo> {
    let name = toks[at + 1].text.clone();
    let mut i = at + 2;
    // Generic parameter list: `<` … `>` with `>>` closing two levels.
    if i < toks.len() && toks[i].is_sym("<") {
        let mut depth = 0i64;
        while i < toks.len() {
            match toks[i].text.as_str() {
                "<" | "<<" if toks[i].kind != TokKind::Ident => {
                    depth += if toks[i].text == "<<" { 2 } else { 1 }
                }
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    if i >= toks.len() || !toks[i].is_sym("(") {
        return None;
    }
    let params_open = i;
    let params_close = matching_close(toks, params_open, "(", ")")?;
    let params = parse_params(&toks[params_open + 1..params_close]);
    // Body `{` (skipping return type and where clause); a `;` first
    // means a bodyless signature.
    let mut j = params_close + 1;
    while j < toks.len() && !toks[j].is_sym("{") && !toks[j].is_sym(";") {
        j += 1;
    }
    if j >= toks.len() || toks[j].is_sym(";") {
        return None;
    }
    let body_open = j;
    let body_close = matching_close(toks, body_open, "{", "}")?;
    let body = body_open + 1..body_close;
    let bindings = parse_bindings(toks, body.clone());
    let closures = parse_closures(toks, body.clone());
    Some(FnInfo {
        name,
        params,
        body,
        bindings,
        closures,
    })
}

/// Split a parameter-list token slice on top-level commas and extract
/// `(name, type)` for simple `name: Type` parameters.
fn parse_params(toks: &[Tok]) -> Vec<(String, VarType)> {
    let mut out = Vec::new();
    let mut depth = 0i64; // ( [ nesting
    let mut angle = 0i64; // < > nesting (commas inside generics)
    let mut start = 0usize;
    let mut chunks: Vec<&[Tok]> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            ">>" => angle = (angle - 2).max(0),
            "->" => {}
            "," if depth == 0 && angle == 0 => {
                chunks.push(&toks[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        chunks.push(&toks[start..]);
    }
    for chunk in chunks {
        // Skip `mut`/`ref` prefixes; reject `self` and pattern params.
        let mut k = 0;
        while k < chunk.len() && (chunk[k].is_ident("mut") || chunk[k].is_ident("ref")) {
            k += 1;
        }
        if k + 1 < chunk.len()
            && chunk[k].kind == TokKind::Ident
            && !chunk[k].is_ident("self")
            && chunk[k + 1].is_sym(":")
        {
            let ty = classify_type(&chunk[k + 2..]);
            out.push((chunk[k].text.clone(), ty));
        }
    }
    out
}

/// Classify a type's token run by its first meaningful token.
fn classify_type(toks: &[Tok]) -> VarType {
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_sym("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime || t.is_ident("dyn") {
            k += 1;
            continue;
        }
        break;
    }
    let Some(t) = toks.get(k) else {
        return VarType::Unknown;
    };
    if t.is_sym("[") {
        return VarType::VecLike;
    }
    if t.kind != TokKind::Ident {
        return VarType::Unknown;
    }
    classify_root(&t.text)
}

/// Classify a nominal path root (`Vec`, `AtomicUsize`, `f64`, …).
fn classify_root(root: &str) -> VarType {
    match root {
        "f64" | "f32" => VarType::Float,
        "u8" | "u16" | "u32" | "u64" | "u128" | "usize" | "i8" | "i16" | "i32" | "i64"
        | "i128" | "isize" => VarType::Int,
        "bool" => VarType::Bool,
        "String" | "str" => VarType::Str,
        "Vec" | "VecDeque" => VarType::VecLike,
        "HashMap" | "BTreeMap" | "HashSet" | "BTreeSet" => VarType::MapLike,
        "Mutex" | "RwLock" | "Arc" => VarType::SyncWrapper,
        "OnceLock" => VarType::OnceLock,
        _ if root.starts_with("Atomic") => VarType::Atomic,
        _ if root.starts_with(char::is_uppercase) => VarType::Other,
        _ => VarType::Unknown,
    }
}

/// Classify an initializer's token run.
fn classify_init(toks: &[Tok]) -> VarType {
    let Some(t0) = toks.first() else {
        return VarType::Unknown;
    };
    // `vec![…]`
    if t0.is_ident("vec") && toks.get(1).map(|t| t.is_sym("!")).unwrap_or(false) {
        return VarType::VecLike;
    }
    // `Root::assoc(..)` / `Root { .. }` — nominal constructors.
    if t0.kind == TokKind::Ident {
        let rooted = classify_root(&t0.text);
        let next = toks.get(1);
        let is_path = next.map(|t| t.is_sym("::")).unwrap_or(false);
        let is_struct_lit = next.map(|t| t.is_sym("{")).unwrap_or(false);
        if (is_path || is_struct_lit) && rooted != VarType::Unknown {
            // `std::…` paths: classify the segment after `std::`(`…::`).
            if t0.is_ident("std") || rooted == VarType::Other {
                if let Some(seg) = toks
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .find(|t| classify_root(&t.text) != VarType::Other
                        && classify_root(&t.text) != VarType::Unknown)
                {
                    return classify_root(&seg.text);
                }
            }
            return rooted;
        }
    }
    // A trailing `as <ty>` cast decides the produced type.
    if let Some(pos) = toks.iter().rposition(|t| t.is_ident("as")) {
        if let Some(t) = toks.get(pos + 1) {
            let c = classify_root(&t.text);
            if c == VarType::Float || c == VarType::Int {
                return c;
            }
        }
    }
    // Any float literal in an arithmetic initializer makes it a float.
    if toks.iter().any(|t| t.kind == TokKind::Float) {
        return VarType::Float;
    }
    match t0.kind {
        TokKind::Int => VarType::Int,
        TokKind::Str => VarType::Str,
        _ if t0.is_ident("true") || t0.is_ident("false") => VarType::Bool,
        _ => VarType::Unknown,
    }
}

/// Scan a body range for `let`/`static`/`const` simple bindings.
fn parse_bindings(toks: &[Tok], body: Range<usize>) -> Vec<Binding> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        if !(toks[i].is_ident("let") || toks[i].is_ident("static") || toks[i].is_ident("const")) {
            i += 1;
            continue;
        }
        let mut k = i + 1;
        while k < body.end && (toks[k].is_ident("mut") || toks[k].is_ident("ref")) {
            k += 1;
        }
        if k >= body.end || toks[k].kind != TokKind::Ident {
            i += 1;
            continue; // destructuring pattern — skip
        }
        let name_at = k;
        let name = toks[k].text.clone();
        k += 1;
        let mut ty = VarType::Unknown;
        if k < body.end && toks[k].is_sym(":") {
            let ty_start = k + 1;
            let mut depth = 0i64;
            k = ty_start;
            while k < body.end {
                let t = &toks[k];
                if t.is_sym("(") || t.is_sym("[") {
                    depth += 1;
                } else if t.is_sym(")") || t.is_sym("]") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if (t.is_sym("=") || t.is_sym(";")) && depth == 0 {
                    break;
                }
                k += 1;
            }
            ty = classify_type(&toks[ty_start..k]);
        }
        if ty == VarType::Unknown && k < body.end && toks[k].is_sym("=") {
            let init_start = k + 1;
            let mut depth = 0i64;
            k = init_start;
            while k < body.end {
                let t = &toks[k];
                if t.is_sym("(") || t.is_sym("[") || t.is_sym("{") {
                    depth += 1;
                } else if t.is_sym(")") || t.is_sym("]") || t.is_sym("}") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if t.is_sym(";") && depth == 0 {
                    break;
                }
                k += 1;
            }
            ty = classify_init(&toks[init_start..k]);
        }
        out.push(Binding {
            name,
            ty,
            at: name_at,
        });
        i = name_at + 1;
    }
    out
}

/// Tokens that may directly precede a closure head `|` at expression
/// position. Anything value-like before `|` means bitwise-or instead.
fn closure_position(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let p = &toks[i - 1];
    if p.kind == TokKind::Ident {
        return matches!(p.text.as_str(), "move" | "return" | "else" | "in" | "if" | "while" | "match");
    }
    matches!(
        p.text.as_str(),
        "(" | "," | "{" | ";" | "=" | "=>" | "&&" | "||" | "!" | ":" | "+" | "-" | "*" | ".."
    )
}

/// Scan a body range for closures.
fn parse_closures(toks: &[Tok], body: Range<usize>) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        let t = &toks[i];
        let (params, body_start) = if t.is_sym("||") && closure_position(toks, i) {
            (Vec::new(), i + 1)
        } else if t.is_sym("|") && closure_position(toks, i) {
            // Parameters until the closing `|` at zero paren depth.
            let mut params = Vec::new();
            let mut depth = 0i64;
            let mut k = i + 1;
            let mut expecting_name = true;
            while k < body.end {
                let tk = &toks[k];
                if tk.is_sym("(") || tk.is_sym("[") {
                    depth += 1;
                } else if tk.is_sym(")") || tk.is_sym("]") {
                    depth -= 1;
                } else if tk.is_sym("|") && depth == 0 {
                    break;
                } else if tk.is_sym(",") && depth == 0 {
                    expecting_name = true;
                    k += 1;
                    continue;
                } else if tk.is_sym(":") && depth == 0 {
                    expecting_name = false;
                } else if expecting_name && tk.kind == TokKind::Ident && !tk.is_ident("mut") {
                    params.push(tk.text.clone());
                    expecting_name = false;
                }
                k += 1;
            }
            if k >= body.end {
                i += 1;
                continue;
            }
            (params, k + 1)
        } else {
            i += 1;
            continue;
        };
        // Body: a brace block, or the expression up to `,`/`)`/`;`.
        let range = if body_start < body.end && toks[body_start].is_sym("{") {
            match matching_close(toks, body_start, "{", "}") {
                Some(close) => body_start + 1..close,
                None => body_start + 1..body.end,
            }
        } else {
            let mut depth = 0i64;
            let mut k = body_start;
            while k < body.end {
                let tk = &toks[k];
                if tk.is_sym("(") || tk.is_sym("[") || tk.is_sym("{") {
                    depth += 1;
                } else if tk.is_sym(")") || tk.is_sym("]") || tk.is_sym("}") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if (tk.is_sym(",") || tk.is_sym(";")) && depth == 0 {
                    break;
                }
                k += 1;
            }
            body_start..k
        };
        out.push(Closure {
            params,
            start: i,
            body: range.clone(),
        });
        i = if range.start > i { range.start } else { i + 1 };
    }
    out
}

/// The dotted receiver path ending at the `.` token at `dot` —
/// `self.delta.take()` yields `"self.delta"` for the `.` before `take`.
/// Complex receivers (`(expr).m()`, `xs[i].m()`) yield `None`.
pub fn receiver_path(toks: &[Tok], dot: usize) -> Option<String> {
    let mut segs: Vec<&str> = Vec::new();
    let mut i = dot;
    loop {
        if i == 0 || !toks[i].is_sym(".") {
            break;
        }
        let prev = &toks[i - 1];
        if prev.kind != TokKind::Ident {
            return None;
        }
        segs.push(&prev.text);
        if i >= 2 && toks[i - 2].is_sym(".") {
            i -= 2;
            continue;
        }
        break;
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    Some(segs.join("."))
}

/// The root identifier of the receiver chain ending at the `.` at `dot`
/// (`self.delta.take()` → `self`; `rank.floor()` → `rank`), plus its
/// token index.
pub fn receiver_root(toks: &[Tok], dot: usize) -> Option<(usize, String)> {
    let mut i = dot;
    loop {
        if i == 0 || !toks[i].is_sym(".") {
            return None;
        }
        let prev = &toks[i - 1];
        if prev.kind != TokKind::Ident {
            return None;
        }
        if i >= 2 && toks[i - 2].is_sym(".") {
            i -= 2;
            continue;
        }
        return Some((i - 1, prev.text.clone()));
    }
}
