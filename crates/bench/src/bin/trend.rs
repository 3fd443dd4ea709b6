//! Cross-run regression gate over the `BENCH_*.json` artifacts.
//!
//! ```text
//! cargo run --release -p lauberhorn-bench --bin trend
//! cargo run --release -p lauberhorn-bench --bin trend -- --write-baselines
//! ```
//!
//! For every experiment the registry gates (the entries with an
//! artifact), reads `BENCH_<name>.json` from the current directory,
//! compares it against its committed baseline under
//! `crates/bench/baselines/trend/`, and writes the deterministic
//! `BENCH_trend.json` (schema `lauberhorn-trend/v1`). Exits non-zero
//! when any row regressed past the noise thresholds or vanished, or a
//! gated artifact is missing or invalid — each latency regression is
//! attributed to the critical-path stage whose blame share grew, when
//! the artifact carries blame (the `profile` rows do).
//!
//! Other `BENCH_*.json` files are skipped: the `engine` artifact is
//! wall-clock-dependent (events/second on the host) and has its own
//! ratio gate in `engine_bench --gate`. `--write-baselines` refreshes
//! the committed baselines from the current artifacts instead of
//! comparing.

use lauberhorn_bench::{artifact, registry, trend};

fn fail(msg: &str) -> ! {
    eprintln!("trend: {msg}");
    std::process::exit(1);
}

fn main() {
    let write_baselines = std::env::args().skip(1).any(|a| a == "--write-baselines");
    let root = artifact::out_dir();
    // Sorted, so `BENCH_trend.json` lists experiments by name whatever
    // the registry order.
    let mut gated: Vec<&str> = registry::gated().collect();
    gated.sort_unstable();

    let entries = std::fs::read_dir(&root)
        .unwrap_or_else(|e| fail(&format!("cannot scan {}: {e}", root.display())));
    let mut others: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_trend.json")
        .filter(|n| !gated.iter().any(|g| *n == format!("BENCH_{g}.json")))
        .collect();
    others.sort();
    for name in &others {
        println!("trend: {name}: not a gated experiment, skipped");
    }

    let th = trend::Thresholds::default();
    let mut trends = Vec::new();
    for name in gated {
        let path = root.join(format!("BENCH_{name}.json"));
        let current = trend::load(&path, name).unwrap_or_else(|e| fail(&e));
        let baseline_path = trend::baseline_dir().join(format!("{name}.json"));
        if write_baselines {
            if current.is_none() {
                fail(&format!("{name}: no {} to refresh from", path.display()));
            }
            if let Err(e) = std::fs::copy(&path, &baseline_path) {
                fail(&format!("cannot write {}: {e}", baseline_path.display()));
            }
            println!("baseline {name} <- {}", path.display());
            continue;
        }
        let baseline = trend::load(&baseline_path, name).unwrap_or_else(|e| fail(&e));
        match (&current, &baseline) {
            (None, _) => println!("trend: {name}: artifact missing; every baseline row vanished"),
            (_, None) => println!(
                "trend: {name}: no baseline (commit one with --write-baselines); \
                 treating all rows as new"
            ),
            _ => {}
        }
        match trend::gate(name, current.as_ref(), baseline.as_ref(), &th) {
            Ok(t) => trends.push(t),
            Err(e) => fail(&e),
        }
    }
    if write_baselines {
        println!(
            "baselines refreshed under {}",
            trend::baseline_dir().display()
        );
        return;
    }

    for t in &trends {
        for r in &t.rows {
            let point = if r.offered_rps > 0.0 {
                format!("{} @ {:.0} rps", r.stack, r.offered_rps)
            } else {
                r.stack.clone()
            };
            let detail = r
                .deltas
                .iter()
                .filter(|d| d.regressed)
                .map(|d| format!("{} {:.2} -> {:.2}", d.metric, d.baseline, d.current))
                .collect::<Vec<_>>()
                .join(", ");
            let blame = match &r.attributed_stage {
                Some(stage) => format!(" [blame: {stage} +{}pm]", r.attributed_growth_pm),
                None => String::new(),
            };
            match r.status {
                trend::RowStatus::Ok => {}
                trend::RowStatus::New => println!("NEW       {} :: {point}", t.experiment),
                trend::RowStatus::Missing => println!("MISSING   {} :: {point}", t.experiment),
                trend::RowStatus::Regressed => {
                    println!("REGRESSED {} :: {point}: {detail}{blame}", t.experiment)
                }
            }
        }
    }

    let doc = trend::document(&trends);
    if let Err(e) = trend::validate(&doc) {
        fail(&format!("emitted document fails its own schema: {e}"));
    }
    let out = root.join("BENCH_trend.json");
    if let Err(e) = std::fs::write(&out, doc.render()) {
        fail(&format!("cannot write {}: {e}", out.display()));
    }
    let failures: usize = trends.iter().map(trend::ExperimentTrend::failures).sum();
    let compared: usize = trends.iter().map(|t| t.rows.len()).sum();
    println!(
        "trend: {} experiment(s), {compared} row(s), {failures} regression(s), {} skipped -> {}",
        trends.len(),
        others.len(),
        out.display()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
