//! Integration tests for `kea-lint`: one fixture per rule, the
//! test-code exemption, the suppression contract, the CLI exit-code
//! contract, and the self-check that the shipped workspace is
//! violation-free.

use kea_lint::diag::Diagnostic;
use kea_lint::lint_source;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint a fixture as library code, the way `kea-lint <file>` does.
fn lint_fixture(name: &str) -> Vec<Diagnostic> {
    let path = fixture_path(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    lint_source(name, &src)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

// ---- one positive fixture per rule ------------------------------------

#[test]
fn panic_fixture_catches_every_macro_and_method() {
    let diags = lint_fixture("panic_in_library.rs");
    assert_eq!(rules_of(&diags), vec!["panic-in-library"; 9], "{diags:#?}");
    let msgs: String = diags.iter().map(|d| d.message.as_str()).collect();
    for needle in [
        "unwrap",
        "expect",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "`assert!`",
        "`assert_eq!`",
        "`assert_ne!`",
    ] {
        assert!(msgs.contains(needle), "missing `{needle}` in {msgs}");
    }
    // `debug_assert*!` is compiled out of release builds: no finding in
    // `debug_assert_sites`, the fixture's last function.
    assert!(diags.iter().all(|d| d.line < 35), "{diags:#?}");
}

#[test]
fn index_fixture_flags_expressions_not_patterns() {
    let diags = lint_fixture("index_in_library.rs");
    assert_eq!(rules_of(&diags), vec!["index-in-library"; 6], "{diags:#?}");
    // Range indexing (`xs[1..3]`) and map `[]`-lookup (`m[&7]`) are
    // index expressions too; the slice pattern and slice type in
    // `not_an_index` must not fire: every hit lies before that
    // function's body.
    assert!(diags.iter().all(|d| d.line < 25), "{diags:#?}");
}

#[test]
fn panic_method_fixture_flags_position_calls_not_keyed_ones() {
    let diags = lint_fixture("panic_method_in_library.rs");
    assert_eq!(
        rules_of(&diags),
        vec!["panic-method-in-library"; 8],
        "{diags:#?}"
    );
    let msgs: String = diags.iter().map(|d| d.message.as_str()).collect();
    for needle in [
        "remove",
        "swap_remove",
        "split_at",
        "swap",
        "split_off",
        "drain",
        "copy_within",
        "copy_from_slice",
    ] {
        assert!(msgs.contains(needle), "missing `{needle}` in {msgs}");
    }
    // The keyed map calls (`remove(&k)`, `split_off(&k)`) and full-range
    // drains are exempt: every hit lies before those functions.
    assert!(diags.iter().all(|d| d.line < 36), "{diags:#?}");
}

#[test]
fn nan_fixture_flags_partial_cmp_and_float_equality() {
    let diags = lint_fixture("nan_unsafe_ordering.rs");
    assert_eq!(rules_of(&diags), vec!["nan-unsafe-ordering"; 5], "{diags:#?}");
    // The `partial_cmp(..).unwrap()` chain is reported once, as the NaN
    // rule — not double-reported as panic-in-library.
    assert!(diags.iter().all(|d| d.rule != "panic-in-library"));
    // The exact-zero division guard is exempt.
    assert!(diags.iter().all(|d| d.line < 24), "{diags:#?}");
}

#[test]
fn cast_fixture_flags_truncation_not_widening() {
    let diags = lint_fixture("truncating_as_cast.rs");
    assert_eq!(rules_of(&diags), vec!["truncating-as-cast"; 5], "{diags:#?}");
    // `.len() as u64`, `u8 as u64`, and `? as u64` (all widening) are fine.
    assert!(diags.iter().all(|d| d.line < 24), "{diags:#?}");
    // The `?`-narrowing case (the telemetry CSV machine-id bug shape)
    // names the checked alternative.
    assert!(
        diags.iter().any(|d| d.line == 22 && d.message.contains("try_from")),
        "{diags:#?}"
    );
}

#[test]
fn spawn_fixture_flags_discarded_handles_only() {
    let diags = lint_fixture("unguarded_spawn.rs");
    assert_eq!(rules_of(&diags), vec!["unguarded-spawn"; 2], "{diags:#?}");
    // The bound and chained forms are guarded.
    assert!(diags.iter().all(|d| d.line < 15), "{diags:#?}");
}

// ---- the dataflow pack -------------------------------------------------

#[test]
fn denominator_fixture_flags_raw_params_only() {
    let diags = lint_fixture("flow_unvalidated_denominator.rs");
    assert_eq!(
        rules_of(&diags),
        vec!["unvalidated-denominator"; 3],
        "{diags:#?}"
    );
    // Guarded, clamped, rebound, and non-parameter denominators are
    // exempt: every hit lies in the first three functions.
    assert!(diags.iter().all(|d| d.line < 21), "{diags:#?}");
    // Float and integer denominators get different consequences.
    let msgs: String = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.contains("NaN/inf"), "{msgs}");
    assert!(msgs.contains("zero divisor panics"), "{msgs}");
}

#[test]
fn checked_unwrap_fixture_tracks_receiver_paths() {
    let diags = lint_fixture("flow_checked_unwrap.rs");
    let checked: Vec<_> = diags.iter().filter(|d| d.rule == "checked-unwrap").collect();
    assert_eq!(checked.len(), 2, "{diags:#?}");
    // Field paths are tracked, and the suggested fix names the binding.
    assert!(checked.iter().any(|d| d.message.contains("self.slot")));
    assert!(checked.iter().all(|d| d.message.contains("if let")));
    // A mismatched receiver is NOT checked-unwrap — it stays with the
    // plain panic rule, and is not double-reported.
    let panics: Vec<_> = diags.iter().filter(|d| d.rule == "panic-in-library").collect();
    assert_eq!(panics.len(), 1, "{diags:#?}");
    assert_eq!(diags.len(), 3, "{diags:#?}");
}

#[test]
fn nan_accumulation_fixture_flags_unchecked_quotients_only() {
    let diags = lint_fixture("flow_nan_accumulation.rs");
    assert_eq!(rules_of(&diags), vec!["nan-accumulation"], "{diags:#?}");
    // Finiteness-guarded, literal, and pre-validated denominators are
    // exempt: the only hit is in the first loop.
    assert!(diags[0].line < 11, "{diags:#?}");
}

// ---- the concurrency pack ----------------------------------------------

#[test]
fn relaxed_gate_fixture_flags_gates_not_tickets() {
    let diags = lint_fixture("conc_relaxed_gate.rs");
    assert_eq!(rules_of(&diags), vec!["relaxed-atomic-gate"; 2], "{diags:#?}");
    // Acquire gates, fetch_add claim tickets, and straight-line Relaxed
    // reads are exempt: both hits lie in the first two functions.
    assert!(diags.iter().all(|d| d.line < 21), "{diags:#?}");
}

#[test]
fn scoped_capture_fixture_flags_shared_mutation_only() {
    let diags = lint_fixture("conc_scoped_mut_capture.rs");
    assert_eq!(rules_of(&diags), vec!["scoped-mut-capture"; 2], "{diags:#?}");
    // Both the method-call (`out.push`) and compound-assignment
    // (`total +=`) shapes are named in the messages.
    let msgs: String = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(msgs.contains("`out`"), "{msgs}");
    assert!(msgs.contains("`total`"), "{msgs}");
    // Closure-local scratch and Mutex-wrapped capture are exempt.
    assert!(diags.iter().all(|d| d.line < 35), "{diags:#?}");
}

#[test]
fn oncelock_fixture_flags_check_then_act_only() {
    let diags = lint_fixture("conc_oncelock_get_then_set.rs");
    assert_eq!(rules_of(&diags), vec!["oncelock-get-then-set"], "{diags:#?}");
    assert!(diags[0].message.contains("get_or_init"), "{diags:#?}");
    // `get_or_init` and bare `set` are exempt.
    assert!(diags[0].line < 16, "{diags:#?}");
}

#[test]
fn join_fixture_flags_discarded_errs_only() {
    let diags = lint_fixture("conc_swallowed_join_panic.rs");
    assert_eq!(
        rules_of(&diags),
        vec!["swallowed-join-panic"; 6],
        "{diags:#?}"
    );
    let msgs: String = diags.iter().map(|d| d.message.as_str()).collect();
    for shape in [
        "let Ok(..) =",
        "let _ =",
        ".join().ok()",
        ".join().is_ok()",
        ".join().unwrap_or(..)",
        ".join().unwrap_or_default()",
    ] {
        assert!(msgs.contains(shape), "missing `{shape}` in {msgs}");
    }
    // A `match` that re-raises in its `Err` arm, an `unwrap_or_else`
    // that re-raises, a returned result, and string or path `join(x)`
    // calls are exempt.
    assert!(diags.iter().all(|d| d.line < 45), "{diags:#?}");
}

// ---- the closed type-inference gaps ------------------------------------

#[test]
fn round_cast_exempts_known_nonfloat_receivers() {
    let diags = lint_fixture("typed_round_receiver.rs");
    assert_eq!(rules_of(&diags), vec!["truncating-as-cast"; 2], "{diags:#?}");
    // The user-defined `round` on the integer-backed receiver (the
    // former false positive) is exempt; the float and the unprovable
    // receivers both stay flagged.
    assert!(diags.iter().all(|d| d.line > 21), "{diags:#?}");
}

#[test]
fn vec_insert_flags_positional_not_keyed() {
    let diags = lint_fixture("typed_insert_receiver.rs");
    assert_eq!(
        rules_of(&diags),
        vec!["panic-method-in-library"],
        "{diags:#?}"
    );
    assert!(diags[0].message.contains("insert"), "{diags:#?}");
    // The keyed map insert (the former false positive) and the opaque
    // receiver are both exempt.
    assert!(diags[0].line < 12, "{diags:#?}");
}

// ---- exemptions and suppressions --------------------------------------

#[test]
fn test_code_is_exempt() {
    let diags = lint_fixture("test_code_exempt.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn reasoned_suppressions_silence_their_rule() {
    let diags = lint_fixture("suppressed_ok.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn malformed_suppressions_are_reported_and_do_not_silence() {
    let diags = lint_fixture("suppressed_bad.rs");
    let bad: Vec<_> = diags.iter().filter(|d| d.rule == "bad-suppression").collect();
    assert_eq!(bad.len(), 3, "{diags:#?}");
    // The violations next to the malformed directives still fire.
    assert!(diags.iter().any(|d| d.rule == "panic-in-library"));
    assert!(diags.iter().any(|d| d.rule == "index-in-library"));
    assert_eq!(diags.len(), 5, "{diags:#?}");
}

#[test]
fn stale_suppressions_are_reported() {
    let diags = lint_fixture("stale_allow.rs");
    assert_eq!(rules_of(&diags), vec!["bad-suppression"], "{diags:#?}");
    assert!(diags[0].message.contains("stale suppression"), "{diags:#?}");
    assert!(diags[0].message.contains("panic-in-library"), "{diags:#?}");
    // The *used* allow right next to it is not reported.
    assert_eq!(diags.len(), 1, "{diags:#?}");
}

#[test]
fn clean_fixture_is_clean() {
    let diags = lint_fixture("clean.rs");
    assert!(diags.is_empty(), "{diags:#?}");
}

// ---- CLI exit-code contract -------------------------------------------

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kea-lint"))
        .args(args)
        .output()
        .expect("spawning kea-lint")
}

#[test]
fn cli_exits_nonzero_on_each_rule_fixture() {
    for fixture in [
        "panic_in_library.rs",
        "index_in_library.rs",
        "panic_method_in_library.rs",
        "nan_unsafe_ordering.rs",
        "truncating_as_cast.rs",
        "unguarded_spawn.rs",
        "suppressed_bad.rs",
        "flow_unvalidated_denominator.rs",
        "flow_checked_unwrap.rs",
        "flow_nan_accumulation.rs",
        "conc_relaxed_gate.rs",
        "conc_scoped_mut_capture.rs",
        "conc_oncelock_get_then_set.rs",
        "conc_swallowed_join_panic.rs",
        "stale_allow.rs",
    ] {
        let path = fixture_path(fixture);
        let out = run_cli(&[path.to_str().expect("utf-8 path")]);
        assert_eq!(out.status.code(), Some(1), "{fixture}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("error["), "{fixture}: {stdout}");
    }
}

#[test]
fn cli_exits_zero_on_clean_input() {
    let path = fixture_path("clean.rs");
    let out = run_cli(&[path.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("kea-lint: clean"));
}

#[test]
fn cli_exits_two_on_usage_errors() {
    assert_eq!(run_cli(&[]).status.code(), Some(2));
    assert_eq!(run_cli(&["--no-such-flag"]).status.code(), Some(2));
    assert_eq!(
        run_cli(&["does/not/exist.rs"]).status.code(),
        Some(2),
        "unreadable input is an I/O error, not a lint failure"
    );
    // Removed flags fail loudly: a script that still passes one must not
    // lint silently.
    let clean = fixture_path("clean.rs");
    let clean = clean.to_str().expect("utf-8 path");
    for flags in [
        &["--fix"][..],
        &["--fix-dry-run"],
        &["--fix", "--scaffold-allows"],
        &["--format", "json"],
    ] {
        let out = run_cli(&[flags, &[clean]].concat());
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
    }
}

// ---- the self-check ----------------------------------------------------

/// The shipped workspace must be violation-free: every library
/// unwrap/index/cast either got fixed or carries a reasoned allow. This
/// is the same scan CI runs via `cargo run -p kea-lint -- --workspace`.
#[test]
fn shipped_workspace_is_violation_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let diags = kea_lint::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        diags.is_empty(),
        "workspace has {} violation(s):\n{}",
        diags.len(),
        diags.iter().map(|d| d.human()).collect::<Vec<_>>().join("\n")
    );
}
