//! `kea-lint` CLI.
//!
//! ```text
//! kea-lint --workspace
//! kea-lint <file.rs>...
//! ```
//!
//! `--workspace` locates the workspace root from the current directory
//! and lints the library crates under the standing policy (see
//! [`kea_lint::walk`]). Explicit file arguments are linted *as library
//! code* regardless of where they live — this is how the fixture corpus
//! under `crates/lint/tests/fixtures/` is exercised.
//!
//! Exit codes: `0` clean, `1` diagnostics reported, `2` usage or I/O
//! error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut workspace = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--help" | "-h" => {
                eprintln!("usage: kea-lint --workspace\n       kea-lint <file.rs>...\n\nRules:");
                for r in kea_lint::rules::ALL_RULES {
                    eprintln!("  {r:<26} {}", kea_lint::rules::describe(r));
                }
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_string()),
            other => {
                eprintln!("kea-lint: unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let diags = if workspace {
        let cwd = match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("kea-lint: cannot read current dir: {e}");
                return ExitCode::from(2);
            }
        };
        let Some(root) = kea_lint::walk::find_workspace_root(&cwd) else {
            eprintln!("kea-lint: no workspace Cargo.toml above {}", cwd.display());
            return ExitCode::from(2);
        };
        match kea_lint::lint_workspace(&root) {
            Ok(diags) => diags,
            Err(e) => {
                eprintln!("kea-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else if files.is_empty() {
        eprintln!("kea-lint: nothing to lint — pass --workspace or file paths (try --help)");
        return ExitCode::from(2);
    } else {
        let mut diags = Vec::new();
        for f in &files {
            let src = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("kea-lint: reading {f}: {e}");
                    return ExitCode::from(2);
                }
            };
            diags.extend(kea_lint::lint_source(f, &src));
        }
        kea_lint::diag::sort(&mut diags);
        diags
    };

    for d in &diags {
        println!("{}", d.human());
    }
    if diags.is_empty() {
        println!("kea-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "kea-lint: {} diagnostic{} — the tuning loop must not panic",
            diags.len(),
            if diags.len() == 1 { "" } else { "s" }
        );
        ExitCode::FAILURE
    }
}
