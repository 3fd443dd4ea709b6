//! Model↔implementation conformance: the real tree must check clean,
//! and a drift mutant — the live `endpoint.rs` with the body of
//! `Endpoint::on_timeout` gutted, so the timer silently stops clearing
//! the parked slot and emitting TRYAGAIN — must be caught with a
//! deterministic file:line-anchored diagnostic and nothing else.

use lint::conformance::{check_conformance, real_tree_sources, Role, SourceFile};
use lint::parse::parse_functions;
use lint::scan::scan;
use lint::{workspace_root, Rule};

const ENDPOINT: &str = "crates/nic-lauberhorn/src/endpoint.rs";

#[test]
fn real_tree_is_conformance_clean() {
    let files = real_tree_sources(&workspace_root()).expect("read conformance sources");
    let violations = check_conformance(&files);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// The live `endpoint.rs` with every line between the body braces of
/// the non-test `Endpoint::on_timeout` replaced by one comment, and
/// the 1-based line of that function's `fn`.
fn drift_mutant() -> (String, usize) {
    let source = include_str!("../../nic-lauberhorn/src/endpoint.rs");
    let tokens = scan(source).tokens;
    let f = parse_functions(&tokens)
        .into_iter()
        .find(|f| !f.in_test && f.qualname() == "Endpoint::on_timeout")
        .unwrap_or_else(|| panic!("Endpoint::on_timeout not found in {ENDPOINT}"));
    let open = tokens[f.body.0].line;
    let close = tokens[f.body.1 - 1].line;
    assert!(close > open, "Endpoint::on_timeout body is not multi-line");
    let mut lines: Vec<&str> = source.lines().collect();
    lines.splice(
        open..close - 1,
        ["        // Gutted: the timer never answers."],
    );
    (lines.join("\n"), f.line)
}

fn drifted_tree() -> Vec<SourceFile> {
    let mut files = real_tree_sources(&workspace_root()).expect("read conformance sources");
    let idx = files
        .iter()
        .position(|f| f.role == Role::Endpoint)
        .expect("endpoint source present");
    files[idx] = SourceFile {
        role: Role::Endpoint,
        path: ENDPOINT.to_string(),
        source: drift_mutant().0,
    };
    files
}

#[test]
fn drift_mutant_is_caught_at_the_gutted_timeout_path() {
    let violations = check_conformance(&drifted_tree());
    assert!(!violations.is_empty(), "drift mutant went undetected");

    // Every finding is a conformance finding against the gutted
    // timeout action, anchored at the mutated function — the rest of
    // the (real) tree stays clean.
    let anchor = drift_mutant().1;
    for v in &violations {
        assert!(
            v.rule == Rule::Conformance && v.msg.contains("timeout/tryagain"),
            "expected only timeout/tryagain conformance findings, got: {violations:#?}"
        );
        assert_eq!(v.file, ENDPOINT, "{v}");
        assert_eq!(v.line, anchor, "{v}");
    }
}

#[test]
fn drift_diagnostics_are_deterministic() {
    let render = |vs: &[lint::Violation]| {
        vs.iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let a = check_conformance(&drifted_tree());
    let b = check_conformance(&drifted_tree());
    assert_eq!(render(&a), render(&b));
}
