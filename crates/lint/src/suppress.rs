//! Inline suppression directives.
//!
//! The contract (documented in CONTRIBUTING.md):
//!
//! * `// kea-lint: allow(<rule>[, <rule>…]) — <reason>` silences the
//!   named rule(s) on the directive's own line and on the line
//!   immediately below it. The reason is **mandatory**.
//! * `// kea-lint: allow-file(<rule>[, <rule>…]) — <reason>` silences
//!   the named rule(s) for the whole file; intended for dense numeric
//!   kernels where a per-line directive per index would drown the code.
//! * The reason separator is an em dash (`—`), `--`, `-`, or `:`.
//! * A malformed directive (unknown rule, missing reason, bad syntax)
//!   is itself reported as `bad-suppression` and cannot be silenced.
//! * A **stale** directive — one that suppresses zero diagnostics — is
//!   also a `bad-suppression`: dead allows hide real regressions behind
//!   a wall of noise and must be deleted.

use crate::diag::Diagnostic;

/// Rule id for malformed or stale suppression directives.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// One parsed `allow`/`allow-file` directive.
#[derive(Debug)]
struct Directive {
    /// 1-based line the directive comment lives on.
    line: u32,
    /// Rules it names, with a per-rule "suppressed something" mark.
    rules: Vec<(String, bool)>,
    /// `allow-file` scope?
    file_scoped: bool,
}

/// Parsed suppression state for one file.
#[derive(Debug, Default)]
pub struct Suppressions {
    directives: Vec<Directive>,
    /// Diagnostics for malformed directives.
    pub bad: Vec<Diagnostic>,
}

impl Suppressions {
    /// Index of `(directive, rule-slot)` covering `rule` at `line`.
    ///
    /// Line-scoped allows cover the directive's own line and the next
    /// line, so both trailing (`stmt; // kea-lint: allow(...) — r`) and
    /// leading (directive on its own line above) placements work.
    ///
    /// Binding order matters for stale tracking: a trailing directive on
    /// the diagnostic's own line binds tighter than a leading one on the
    /// line above, which binds tighter than file scope — otherwise two
    /// consecutive trailing allows shadow each other and the second one
    /// is falsely reported stale.
    fn directive_for(&self, rule: &str, line: u32) -> Option<(usize, usize)> {
        if rule == BAD_SUPPRESSION {
            return None;
        }
        for pass in 0..3 {
            for (di, d) in self.directives.iter().enumerate() {
                let scope_hit = match pass {
                    0 => !d.file_scoped && d.line == line,
                    1 => !d.file_scoped && d.line + 1 == line,
                    _ => d.file_scoped,
                };
                if !scope_hit {
                    continue;
                }
                if let Some(ri) = d.rules.iter().position(|(r, _)| r == rule) {
                    return Some((di, ri));
                }
            }
        }
        None
    }

    /// Drop every suppressed diagnostic from `diags`, marking the
    /// directives that did the suppressing.
    pub fn filter(&mut self, diags: &mut Vec<Diagnostic>) {
        diags.retain(|d| match self.directive_for(&d.rule, d.line) {
            Some((di, ri)) => {
                self.directives[di].rules[ri].1 = true;
                false
            }
            None => true,
        });
    }

    /// One `bad-suppression` diagnostic per allow that suppressed
    /// nothing. Call after [`Suppressions::filter`].
    pub fn stale(&self, file: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for d in &self.directives {
            for (rule, used) in &d.rules {
                if *used {
                    continue;
                }
                let scope = if d.file_scoped { "allow-file" } else { "allow" };
                out.push(Diagnostic::new(
                    BAD_SUPPRESSION,
                    file,
                    d.line,
                    1,
                    format!(
                        "stale suppression: `{scope}({rule})` suppresses no diagnostic — \
                         delete it"
                    ),
                ));
            }
        }
        out
    }
}

/// Parse every `kea-lint:` directive out of a file's line comments.
///
/// `known_rules` is the set of valid rule ids; referencing anything else
/// is a `bad-suppression` diagnostic.
pub fn parse(file: &str, comments: &[(u32, String)], known_rules: &[&str]) -> Suppressions {
    let mut sup = Suppressions::default();
    for (line, text) in comments {
        let Some(at) = text.find("kea-lint:") else {
            continue;
        };
        let body = text[at + "kea-lint:".len()..].trim_start();
        match parse_directive(body, known_rules) {
            Ok((rules, file_scoped)) => sup.directives.push(Directive {
                line: *line,
                rules: rules.into_iter().map(|r| (r, false)).collect(),
                file_scoped,
            }),
            Err(why) => sup.bad.push(Diagnostic::new(
                BAD_SUPPRESSION,
                file,
                *line,
                1,
                format!("malformed kea-lint directive: {why}"),
            )),
        }
    }
    sup
}

/// Parse `allow(<rules>) <sep> <reason>` / `allow-file(...)`; returns
/// the rule list and whether the directive is file-scoped.
fn parse_directive(body: &str, known_rules: &[&str]) -> Result<(Vec<String>, bool), String> {
    let (file_scoped, rest) = if let Some(r) = body.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("allow") {
        (false, r)
    } else {
        return Err(format!(
            "expected `allow(...)` or `allow-file(...)`, found `{}`",
            body.chars().take(30).collect::<String>()
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after allow".into());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed rule list — missing `)`".into());
    };
    let mut rules = Vec::new();
    for raw in rest[..close].split(',') {
        let rule = raw.trim();
        if rule.is_empty() {
            return Err("empty rule name in allow list".into());
        }
        if !known_rules.contains(&rule) {
            return Err(format!(
                "unknown rule `{rule}` (known: {})",
                known_rules.join(", ")
            ));
        }
        rules.push(rule.to_string());
    }
    // Reason: mandatory, after a separator.
    let tail = rest[close + 1..].trim_start();
    let reason = ["—", "--", "-", ":"]
        .iter()
        .find_map(|sep| tail.strip_prefix(sep))
        .map(str::trim);
    match reason {
        Some(r) if !r.is_empty() => Ok((rules, file_scoped)),
        _ => Err("missing reason — write `allow(<rule>) — <why this is safe>`".into()),
    }
}
