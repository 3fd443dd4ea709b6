//! Regenerates the NICFAIL experiment — NIC-internal fault classes,
//! degraded-mode fallback, and shadow reconstruction — plus the
//! machine-readable artifact `BENCH_nicfail.json` (schema
//! `lauberhorn-bench/v1`, validated before writing).
//!
//! One arm per fault class (plus a fault-free baseline), all at the
//! same 0.8× calibrated offered load with the fault injected mid-run.
//! `--scale N` (or `LAUBERHORN_SCALE=N`) stretches every arm's load
//! window by `N`× with the fault still landing at the midpoint.

use lauberhorn::experiments::nicfail;
use lauberhorn_bench::artifact::{self, BenchRow};

fn main() {
    let seed = 42;
    let scale = lauberhorn_bench::scale();
    let mut rows = Vec::new();
    let out =
        lauberhorn_bench::experiment("NICFAIL", "NIC faults and shadow reconstruction", || {
            if scale != 1 {
                println!("scale knob: {scale}x load window");
            }
            let sweep = nicfail::run_scaled(seed, scale);
            for p in &sweep.points {
                rows.push(BenchRow::from_report(p.offered_rps, &p.report));
            }
            nicfail::render(&sweep)
        });
    println!("{out}");
    match artifact::write("nicfail", &artifact::document("nicfail", seed, &rows)) {
        Ok(path) => println!("artifact -> {}", path.display()),
        Err(e) => {
            eprintln!("nicfail_sweep: artifact: {e}");
            std::process::exit(1);
        }
    }
}
