//! Observability profile: one short echo run per stack with full
//! tracing on, producing both human- and machine-readable artifacts.
//!
//! ```text
//! cargo run --release -p lauberhorn-bench --bin profile
//! ```
//!
//! For each stack this prints the ASCII per-stage latency table
//! (Figure 1 / Figure 3 step decomposition, measured from spans) and
//! the component metrics registry, then writes a Chrome-trace JSON to
//! `PROFILE_<stack>.trace.json` in the current directory — load it in
//! `chrome://tracing` or Perfetto to see every request laid out on
//! core, NIC, and per-request tracks.
//!
//! Tracing is load-bearing here and free everywhere else: the same
//! binary re-runs each workload with observability off and checks the
//! report digests match (the zero-perturbation guarantee, DESIGN.md
//! §11).

use lauberhorn::prelude::*;
use lauberhorn::rpc::driver;
use lauberhorn::sim::span::{chrome_trace, stage_table};
use lauberhorn::sim::{
    blame_table, tenant_queueing_table, ObserveSpec, OverloadConfig, TenancyConfig, TenantSpec,
};
use lauberhorn::workload::TenantMix;
use lauberhorn_bench::artifact::{self, BenchRow};

/// A small traced multi-tenant run on the unbounded baseline: 8
/// tenants, Zipf-skewed, tenant 0 storming at `storm`× its quiet
/// share. Quiet vs contended blame profiles feed the per-tenant
/// queueing-growth table below.
fn tenant_run(storm: f64) -> Report {
    const TENANTS: usize = 8;
    let specs: Vec<TenantSpec> = (0..TENANTS as u16)
        .map(|t| TenantSpec::new(t, 1, SimDuration::from_us(300)))
        .collect();
    let mut wl = WorkloadSpec::open_poisson(
        150_000.0 * (1.0 + (storm - 1.0) * 0.3),
        TENANTS,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        5,
        11,
    );
    wl.mix = TenantMix::zipf(TENANTS, 0.8, 0, storm).to_mix();
    wl.warmup = 100;
    let wl = wl.with_observe(ObserveSpec::full()).with_overload(
        OverloadConfig::unbounded_baseline().with_tenancy(TenancyConfig::observe_only(specs)),
    );
    Experiment::new(StackKind::LauberhornCxl)
        .cores(2)
        .services(ServiceSpec::uniform(TENANTS, 4_000, 32))
        .run(&wl)
}

fn main() {
    let stacks = [
        ("kernel", StackKind::KernelModern),
        ("bypass", StackKind::BypassModern),
        ("lauberhorn", StackKind::LauberhornEnzian),
    ];
    let mut failures = 0;
    let mut rows = Vec::new();
    for (slug, kind) in stacks {
        let wl = WorkloadSpec::echo_closed(64, 2, 7).with_observe(ObserveSpec::full());
        let mut stack = Experiment::new(kind).build();
        let observed = driver::run(&mut *stack, &wl);

        let common = stack.common();
        let spans = common.tracer.spans();
        println!("================================================================");
        println!(
            "{} — {} spans over {} requests (dropped {}, force-closed {})",
            observed.stack,
            spans.len(),
            observed.completed,
            common.tracer.dropped(),
            common.tracer.truncated(),
        );
        println!("================================================================");
        print!("{}", stage_table(spans));
        println!();
        if let Some(blame) = &observed.blame {
            print!("{}", blame_table(blame));
            println!();
        }
        print!("{}", observed.metrics.render());
        rows.push(BenchRow::from_report(0.0, &observed));

        let path = artifact::out_dir().join(format!("PROFILE_{slug}.trace.json"));
        match std::fs::write(&path, chrome_trace(&observed.stack, spans)) {
            Ok(()) => println!("chrome trace -> {}", path.display()),
            Err(e) => {
                eprintln!("profile: cannot write {}: {e}", path.display());
                failures += 1;
            }
        }

        // Zero-perturbation audit: the same workload with observability
        // off must produce a byte-identical report.
        let blind = Experiment::new(kind).run(&WorkloadSpec::echo_closed(64, 2, 7));
        if blind.digest() == observed.digest() {
            println!(
                "zero-perturbation: digests match ({:#018x})",
                blind.digest()
            );
        } else {
            eprintln!(
                "profile: PERTURBATION on {}: observed {:#018x} != blind {:#018x}",
                observed.stack,
                observed.digest(),
                blind.digest()
            );
            failures += 1;
        }
        println!();
    }
    // Per-tenant blame: the same tenant population quiet and with the
    // hog storming, no isolation — the queueing-growth table names
    // whose queueing grew under the storm (DESIGN.md §17's diagnostic
    // view: here the hog drowns in its own backlog first).
    println!("================================================================");
    println!("per-tenant blame — 8 tenants, tenant 0 storms 8x, no isolation");
    println!("================================================================");
    let quiet = tenant_run(1.0);
    let stormy = tenant_run(8.0);
    match (&quiet.blame, &stormy.blame) {
        (Some(q), Some(s)) => {
            print!("{}", tenant_queueing_table(q, s));
            println!();
        }
        _ => {
            eprintln!("profile: tenant runs produced no blame profile");
            failures += 1;
        }
    }

    // Machine-readable artifact: the per-stack closed-loop rows, each
    // carrying the critical-path blame shares for the trend harness.
    match artifact::write("profile", &artifact::document("profile", 7, &rows)) {
        Ok(path) => println!("artifact -> {}", path.display()),
        Err(e) => {
            eprintln!("profile: artifact: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("profile: {failures} failure(s)");
        std::process::exit(1);
    }
}
