//! The experiment registry's invariants, checked without running any
//! experiment: ids and artifact names are unique, the gated artifacts
//! are exactly the committed trend baselines, and `repro` resolves ids
//! through the registry.

use std::collections::BTreeSet;
use std::process::Command;

use lauberhorn_bench::registry::{self, REGISTRY};
use lauberhorn_bench::trend;

#[test]
fn ids_are_unique_ignoring_case() {
    let mut seen = BTreeSet::new();
    for e in REGISTRY {
        assert!(
            seen.insert(e.id.to_ascii_lowercase()),
            "duplicate id {}",
            e.id
        );
        assert!(std::ptr::eq(
            registry::find(&e.id.to_ascii_lowercase()).expect("found"),
            e
        ));
    }
}

#[test]
fn artifact_names_are_unique() {
    let mut seen = BTreeSet::new();
    for name in registry::gated() {
        assert!(seen.insert(name), "duplicate artifact {name}");
    }
}

#[test]
fn gated_artifacts_are_exactly_the_committed_baselines() {
    let gated: BTreeSet<String> = registry::gated().map(|n| format!("{n}.json")).collect();
    let committed: BTreeSet<String> = std::fs::read_dir(trend::baseline_dir())
        .expect("baseline dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    assert_eq!(gated, committed);
}

#[test]
fn repro_rejects_an_unknown_id_and_lists_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("NOPE")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NOPE"), "{stderr}");
    for e in REGISTRY {
        assert!(stderr.contains(e.id), "{} not listed:\n{stderr}", e.id);
    }
}

#[test]
fn repro_runs_an_entry_by_id() {
    let dir = std::env::temp_dir().join(format!("repro-f1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("f1")
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("F1 — receive-path steps"),
        "missing header:\n{stdout}"
    );
}
