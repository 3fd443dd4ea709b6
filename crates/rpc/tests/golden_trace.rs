//! Golden Chrome-trace fixtures: a seeded single-client echo run on
//! each of the three stacks must produce byte-for-byte its trace in
//! `tests/golden/` (`lauberhorn_echo`, `kernel_echo`, `bypass_echo`).
//!
//! Each pins three things at once: the event schedule of the stack's
//! fast path (any timing drift moves a `ts`/`dur` field), the span
//! structure (stage names and their order, parent links, track
//! assignment), and the exporter's deterministic formatting
//! (integer-µs rendering, field order).
//!
//! After an *intentional* change to any of those, regenerate with:
//!
//! ```text
//! BLESS=1 cargo test -p lauberhorn-rpc --test golden_trace
//! ```

use lauberhorn_rpc::sim_bypass::BypassSimConfig;
use lauberhorn_rpc::sim_kernel::KernelSimConfig;
use lauberhorn_rpc::sim_lauberhorn::LauberhornSimConfig;
use lauberhorn_rpc::{BypassSim, KernelSim, LauberhornSim, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::span::chrome_trace;
use lauberhorn_sim::{ObserveSpec, SimDuration};

/// One pinned stack: fixture file, the fixture itself, and the load
/// window of the run (long enough that the stack completes at least
/// one request).
struct Golden {
    file: &'static str,
    want: &'static str,
    duration: SimDuration,
}

const LAUBERHORN: Golden = Golden {
    file: "lauberhorn_echo.trace.json",
    want: include_str!("golden/lauberhorn_echo.trace.json"),
    duration: SimDuration::from_us(10),
};

const KERNEL: Golden = Golden {
    file: "kernel_echo.trace.json",
    want: include_str!("golden/kernel_echo.trace.json"),
    duration: SimDuration::from_us(50),
};

const BYPASS: Golden = Golden {
    file: "bypass_echo.trace.json",
    want: include_str!("golden/bypass_echo.trace.json"),
    duration: SimDuration::from_us(50),
};

fn run_trace(golden: &Golden, sim: &mut dyn ServerStack) -> String {
    let mut wl = WorkloadSpec::echo_closed(64, 1, 7).with_observe(ObserveSpec::full());
    wl.duration = golden.duration;
    wl.warmup = 0;
    let r = lauberhorn_rpc::driver::run(sim, &wl);
    assert!(r.completed > 0, "{} run completed nothing", golden.file);
    chrome_trace(sim.name(), sim.common().tracer.spans())
}

fn services() -> Vec<ServiceSpec> {
    ServiceSpec::uniform(1, 1000, 32)
}

fn lauberhorn_trace() -> String {
    let cfg = LauberhornSimConfig::enzian(2);
    run_trace(&LAUBERHORN, &mut LauberhornSim::new(cfg, services()))
}

fn kernel_trace() -> String {
    let cfg = KernelSimConfig::modern(2);
    run_trace(&KERNEL, &mut KernelSim::new(cfg, services()))
}

fn bypass_trace() -> String {
    let cfg = BypassSimConfig::modern(2);
    run_trace(&BYPASS, &mut BypassSim::new(cfg, services()))
}

fn check(golden: &Golden, got: String) {
    if std::env::var_os("BLESS").is_some() {
        let path = format!(
            "{}/tests/golden/{}",
            env!("CARGO_MANIFEST_DIR"),
            golden.file
        );
        std::fs::write(path, &got).expect("write golden fixture");
        return;
    }
    assert!(
        got == golden.want,
        "chrome trace drifted from {} \
         (BLESS=1 regenerates it after intentional changes);\ngot:\n{got}",
        golden.file
    );
}

#[test]
fn chrome_trace_matches_golden_fixture() {
    check(&LAUBERHORN, lauberhorn_trace());
}

#[test]
fn kernel_chrome_trace_matches_golden_fixture() {
    check(&KERNEL, kernel_trace());
}

#[test]
fn bypass_chrome_trace_matches_golden_fixture() {
    check(&BYPASS, bypass_trace());
}

#[test]
fn golden_run_is_reproducible() {
    // The fixtures are only meaningful if each run is a pure function
    // of the seed.
    assert_eq!(lauberhorn_trace(), lauberhorn_trace());
    assert_eq!(kernel_trace(), kernel_trace());
    assert_eq!(bypass_trace(), bypass_trace());
}
