//! Regenerates the TENANT experiment — multi-tenant isolation under a
//! noisy-neighbor storm — plus the machine-readable artifact
//! `BENCH_tenant.json` (schema `lauberhorn-bench/v1`, validated before
//! writing). Each row carries the headline `slo_met_frac` (fraction of
//! tenants meeting their p99 SLO) alongside the storm intensity and
//! whether isolation was armed.
//!
//! `--scale N` (or `LAUBERHORN_SCALE=N`) stretches every arm's load
//! window by `N`× at the same offered loads.

use lauberhorn::experiments::tenant;
use lauberhorn_bench::artifact::{self, BenchRow};

fn main() {
    let seed = 42;
    let scale = lauberhorn_bench::scale();
    let mut rows = Vec::new();
    let out = lauberhorn_bench::experiment("TENANT", "multi-tenant isolation", || {
        if scale != 1 {
            println!("scale knob: {scale}x load window");
        }
        let sweep = tenant::run_scaled(seed, scale);
        for p in &sweep.points {
            rows.push(
                BenchRow::from_report(p.offered_rps, &p.report)
                    .with_extra("storm", p.storm)
                    .with_extra("isolation", if p.isolation { 1.0 } else { 0.0 })
                    .with_extra("slo_met_frac", p.slo_met_frac()),
            );
        }
        tenant::render(&sweep)
    });
    println!("{out}");
    match artifact::write("tenant", &artifact::document("tenant", seed, &rows)) {
        Ok(path) => println!("artifact -> {}", path.display()),
        Err(e) => {
            eprintln!("tenant_sweep: artifact: {e}");
            std::process::exit(1);
        }
    }
}
