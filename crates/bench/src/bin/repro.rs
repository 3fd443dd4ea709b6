//! Regenerates the paper's figures and claims and the extension
//! experiments, one registry entry at a time:
//!
//! ```text
//! cargo run --release -p lauberhorn-bench --bin repro -- F2 LOAD
//! cargo run --release -p lauberhorn-bench --bin repro -- --all
//! cargo run --release -p lauberhorn-bench --bin repro -- FAULT --scale 10
//! ```
//!
//! Ids match case-insensitively; `--all` runs every entry in registry
//! order. `--scale N` stretches each sweep's load window `N`× at the
//! same offered-load points. Entries with an artifact write
//! `BENCH_<name>.json` to the current directory. A failed entry does
//! not stop the others; the exit status is 1 if any failed, 2 on a
//! usage error.

use lauberhorn_bench::artifact;
use lauberhorn_bench::registry::{self, Entry, REGISTRY};

fn usage_error(msg: &str) -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    eprintln!("repro: {msg}");
    eprintln!("usage: repro <id>… | --all [--scale N]");
    eprintln!("ids: {}", ids.join(" "));
    std::process::exit(2);
}

fn parse_scale(v: &str) -> u64 {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!(
            "invalid --scale value {v:?}: want an integer >= 1"
        )),
    }
}

fn main() {
    let mut entries: Vec<&'static Entry> = Vec::new();
    let mut all = false;
    let mut scale = 1;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--all" {
            all = true;
        } else if a == "--scale" {
            scale = parse_scale(&args.next().unwrap_or_default());
        } else if let Some(v) = a.strip_prefix("--scale=") {
            scale = parse_scale(v);
        } else if let Some(e) = registry::find(&a) {
            entries.push(e);
        } else {
            usage_error(&format!("unknown experiment `{a}`"));
        }
    }
    if all {
        entries = REGISTRY.iter().collect();
    }
    if entries.is_empty() {
        usage_error("no experiment given");
    }

    let mut failed = 0;
    for e in entries {
        let mut rows = Err(String::new());
        let framed = lauberhorn_bench::experiment(e.id, e.title, || match (e.run)(e.seed, scale) {
            Ok(out) => {
                rows = Ok(out.rows);
                out.text
            }
            Err(msg) => {
                rows = Err(msg);
                String::new()
            }
        });
        let rows = match rows {
            Ok(rows) => rows,
            Err(msg) => {
                eprintln!("repro: {} failed: {msg}", e.id);
                failed += 1;
                continue;
            }
        };
        println!("{framed}");
        if let Some(name) = e.artifact {
            match artifact::write(name, &artifact::document(name, e.seed, &rows)) {
                Ok(path) => println!("artifact -> {}", path.display()),
                Err(msg) => {
                    eprintln!("repro: {} artifact {name}: {msg}", e.id);
                    failed += 1;
                }
            }
        }
    }
    if failed > 0 {
        eprintln!("repro: {failed} experiment(s) failed");
        std::process::exit(1);
    }
}
