//! The diagnostic type and its one-line human form.

/// One lint finding, anchored to a file and 1-based line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier, e.g. `panic-in-library`.
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(rule: &str, file: &str, line: u32, col: u32, message: impl Into<String>) -> Self {
        Diagnostic {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            col,
            message: message.into(),
        }
    }

    /// `file:line:col: error[rule]: message` — the single-line human form.
    pub fn human(&self) -> String {
        format!(
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Sort diagnostics by file, then line, then column, then rule.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule))
    });
}
