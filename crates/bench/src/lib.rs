//! The benchmark harness: regenerates every table and figure of the
//! paper and the extension experiments.
//!
//! [`registry`] holds one entry per experiment; the `repro` binary runs
//! them (`repro <id>…` or `repro --all`), writing each entry's
//! `BENCH_<name>.json` artifact ([`artifact`]), and the `trend` binary
//! gates those artifacts against committed baselines ([`trend`]).
//! `engine_bench` is the event-queue microbenchmark with its own gate.

pub mod artifact;
pub mod json;
pub mod registry;
pub mod trend;

use std::time::Instant;

/// A minimal wall-clock micro-benchmark harness (in-tree replacement
/// for an external harness, so the workspace builds hermetically).
///
/// Runs `f` for a short warmup, then for enough iterations to estimate
/// a stable per-iteration time, and prints one row.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warmup + calibration: find an iteration count that takes ~50 ms.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = t0.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 1 << 30 {
            let per = elapsed.as_nanos() as f64 / iters as f64;
            let unit = if per >= 1e6 {
                format!("{:>10.2} ms", per / 1e6)
            } else if per >= 1e3 {
                format!("{:>10.2} us", per / 1e3)
            } else {
                format!("{:>10.1} ns", per)
            };
            println!("{name:<40} {unit}/iter   ({iters} iters)");
            return;
        }
        iters = iters.saturating_mul((50_000_000 / elapsed.as_nanos().max(1) as u64).clamp(2, 100));
    }
}

/// Prints a standard experiment header and runs `body`, timing it.
pub fn experiment<F: FnOnce() -> String>(id: &str, title: &str, body: F) -> String {
    let t0 = Instant::now();
    let out = body();
    let secs = t0.elapsed().as_secs_f64();
    format!(
        "================================================================\n{id} — {title}\n================================================================\n{out}\n[{id} regenerated in {secs:.1}s wall clock]\n"
    )
}
