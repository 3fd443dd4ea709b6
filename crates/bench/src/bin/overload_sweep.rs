//! Regenerates the OVERLOAD experiment — admission, shedding, and
//! graceful degradation under saturation — plus the machine-readable
//! artifact `BENCH_overload.json` (schema `lauberhorn-bench/v1`,
//! validated before writing).
//!
//! `--scale N` (or `LAUBERHORN_SCALE=N`) stretches every point's load
//! window by `N`× at the same offered-load multipliers.

use lauberhorn::experiments::overload;
use lauberhorn_bench::artifact::{self, BenchRow};

fn main() {
    let seed = 42;
    let scale = lauberhorn_bench::scale();
    let mut rows = Vec::new();
    let out = lauberhorn_bench::experiment("OVERLOAD", "overload control and shedding", || {
        if scale != 1 {
            println!("scale knob: {scale}x load window");
        }
        let sweep = overload::run_scaled(seed, scale);
        for p in &sweep.points {
            rows.push(BenchRow::from_report(p.offered_rps, &p.report));
        }
        rows.push(BenchRow::from_report(
            sweep.fairness.offered_rps,
            &sweep.fairness.report,
        ));
        overload::render(&sweep)
    });
    println!("{out}");
    match artifact::write("overload", &artifact::document("overload", seed, &rows)) {
        Ok(path) => println!("artifact -> {}", path.display()),
        Err(e) => {
            eprintln!("overload_sweep: artifact: {e}");
            std::process::exit(1);
        }
    }
}
