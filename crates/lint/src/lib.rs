//! In-tree static analysis for the Lauberhorn workspace.
//!
//! A dependency-free, token-level linter that enforces the invariants
//! the reproduction rests on:
//!
//! - **Determinism**: no wall-clock time sources (`Instant`,
//!   `SystemTime`) outside the bench harness; no `HashMap`/`HashSet`
//!   in crates whose output must be bit-identical across serial and
//!   parallel sweeps (`sim`, `rpc`, `mc`, `core`).
//! - **Panic freedom on the hot path**: no `unwrap`/`expect`/`panic!`/
//!   unchecked indexing in `nic-lauberhorn`, `coherence`, `os`, `rpc`,
//!   or `sim` outside `#[cfg(test)]` code.
//! - **Zero external dependencies**: every `Cargo.toml` dependency
//!   must be a workspace/path dependency.
//!
//! Exceptions require an inline justification pragma — the comment
//! form `lint:allow` + `(<rule>): <reason>`. See [`rules`] for the rule set
//! and [`scan`] for the scanner. Run it with `cargo run -p lint`; it
//! also runs as a tier-1 test (`tests/tree_clean.rs`).

pub mod cfg;
pub mod conformance;
pub mod dataflow;
pub mod parse;
pub mod report;
pub mod rules;
pub mod scan;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

pub use rules::{analyze_source, lint_cargo_toml, lint_source, Rule, Violation};

/// Collects `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root` (the directory holding
/// the top-level `Cargo.toml` and `crates/`). Returns all unsuppressed
/// violations, sorted by file then line.
///
/// The linter's own fixture files (`crates/lint/fixtures/`) are
/// deliberately full of violations and are skipped here; the rule
/// tests feed them through [`lint_source`] directly.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut analyses = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();

        let manifest = crate_dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)?;
            let rel = rel_to(root, &manifest);
            out.extend(lint_cargo_toml(&rel, &text));
        }

        // Analyze src/ and tests/; skip fixtures/ and benches entirely.
        for sub in ["src", "tests"] {
            let dir = crate_dir.join(sub);
            if !dir.is_dir() {
                continue;
            }
            let mut files = Vec::new();
            rust_files(&dir, &mut files)?;
            for file in files {
                // Integration tests are test code: only pragma
                // hygiene and the dependency rule apply there, both
                // checked elsewhere; skip source rules.
                if sub == "tests" {
                    continue;
                }
                let text = std::fs::read_to_string(&file)?;
                let rel = rel_to(root, &file);
                analyses.push(analyze_source(&crate_name, &rel, &text));
            }
        }
    }

    // Workspace-scope resolution: the counter registration surface
    // and the accessor-closure map span every analyzed file.
    let mut reg_idents: BTreeSet<String> = BTreeSet::new();
    let mut fn_idents: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for a in &analyses {
        reg_idents.extend(a.reg_idents.iter().cloned());
        for (name, idents) in &a.fn_idents {
            fn_idents
                .entry(name.clone())
                .or_default()
                .extend(idents.iter().cloned());
        }
    }

    // Model ↔ implementation conformance over the real tree; findings
    // route through each file's pragma machinery like any other rule.
    let mut conformance_by_file: BTreeMap<String, Vec<(usize, Rule, String)>> = BTreeMap::new();
    for v in conformance::check_conformance(&conformance::real_tree_sources(root)?) {
        conformance_by_file
            .entry(v.file.clone())
            .or_default()
            .push((v.line, v.rule, v.msg));
    }

    for a in analyses {
        let mut extra = rules::resolve_counters(&a.counter_incs, &reg_idents, &fn_idents);
        if let Some(cs) = conformance_by_file.remove(&a.rel_path) {
            extra.extend(cs);
        }
        out.extend(a.finalize(extra));
    }
    // Conformance findings for files outside the walk (shouldn't
    // happen, but never drop a finding silently).
    for (file, items) in conformance_by_file {
        for (line, rule, msg) in items {
            out.push(Violation {
                file: file.clone(),
                line,
                rule,
                msg,
            });
        }
    }

    let manifest = root.join("Cargo.toml");
    if manifest.is_file() {
        let text = std::fs::read_to_string(&manifest)?;
        out.extend(lint_cargo_toml(&rel_to(root, &manifest), &text));
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

/// Workspace root as seen from this crate (`crates/lint`).
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
