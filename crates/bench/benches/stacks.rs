//! Macro-benchmarks: wall-clock cost of running the three
//! whole-machine simulations (useful when sizing longer experiments),
//! plus the parallel sweep executor's speedup over the serial path.

use lauberhorn::prelude::*;
use lauberhorn::sweep::{self, SweepPoint};
use lauberhorn_bench::bench;
use std::time::Instant;

fn main() {
    let wl = WorkloadSpec::echo_closed(64, 2, 42);
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        bench(&format!("sim/{}", stack.name().replace('/', "_")), || {
            Experiment::new(stack).cores(2).run(&wl)
        });
    }

    // Sweep executor: serial vs parallel wall clock over a grid of
    // (stack × seed) points.
    let points: Vec<SweepPoint> = [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ]
    .iter()
    .flat_map(|&stack| {
        (0..4u64).map(move |seed| {
            SweepPoint::new(
                Experiment::new(stack).cores(2),
                WorkloadSpec::echo_closed(64, 2, seed),
            )
        })
    })
    .collect();
    let t0 = Instant::now();
    let serial = sweep::run_serial(&points);
    let t_serial = t0.elapsed();
    let t1 = Instant::now();
    let parallel = sweep::run_parallel(&points, 0);
    let t_parallel = t1.elapsed();
    assert_eq!(serial.len(), parallel.len());
    println!(
        "sweep/12pt     serial {:>8.1} ms   parallel {:>8.1} ms   speedup {:.2}x",
        t_serial.as_secs_f64() * 1e3,
        t_parallel.as_secs_f64() * 1e3,
        t_serial.as_secs_f64() / t_parallel.as_secs_f64().max(1e-9),
    );
}
