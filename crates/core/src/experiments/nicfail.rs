//! Extension experiment: the NIC as a failure domain.
//!
//! "The NIC should be part of the OS" cuts both ways: once the NIC
//! holds registered endpoints, demux tables, and a scheduler mirror,
//! a NIC-internal fault is an *OS-state* loss, not just a link blip.
//! This experiment injects one fault from each class into a mid-run
//! Lauberhorn stack at 0.8× calibrated load and measures the episode
//! end to end — fault → watchdog detection → degraded mode → shadow
//! reconstruction → restore:
//!
//! * **table-corrupt** — an SEU flips a demux entry; lookups for that
//!   service fail-stop until the watchdog reprograms the entry from
//!   the kernel's shadow registry;
//! * **stuck-line** — one endpoint's CONTROL engine wedges,
//!   black-holing its parked fill; the watchdog drains the wedged
//!   queue onto the kernel path and retires the stalled core;
//! * **mirror-desync** — the NIC's scheduler mirror loses the
//!   kernel's pushes; repair re-pushes ground truth and resyncs;
//! * **reset** — the device's protocol engines die wholesale; the
//!   kernel salvages fabric-visible state, rebuilds every endpoint
//!   and demux entry from the shadow, writes the salvaged protocol
//!   state back, and replays the link-paused frame backlog.
//!
//! The headline claims, asserted by the tests:
//!
//! * **zero lost-forever requests** — every accepted request completes
//!   exactly once, through every fault class (`completed == offered`,
//!   `dup_executions == 0`);
//! * **bounded degraded-mode p99** — the tail stretches by at most the
//!   watchdog lease plus one client retransmission timeout, never
//!   collapses.

use crate::experiment::{saturation_rps, Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::{Report, RetryPolicy, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::fault::{FaultPlan, NicFaultKind};
use lauberhorn_sim::SimDuration;
use lauberhorn_workload::SizeDist;

/// The stack under test (NIC-internal faults are Lauberhorn-specific:
/// a DMA NIC holds no OS state worth reconstructing).
pub const STACK: StackKind = StackKind::LauberhornEnzian;

/// One arm per fault class, plus the fault-free baseline.
pub const ARMS: [Option<NicFaultKind>; 5] = [
    None,
    Some(NicFaultKind::TableCorrupt),
    Some(NicFaultKind::StuckControlLine),
    Some(NicFaultKind::MirrorDesync),
    Some(NicFaultKind::Reset),
];

/// Offered load as a fraction of calibrated capacity: high enough that
/// the degraded window has real traffic in flight, low enough that the
/// backlog drains instead of compounding.
pub const LOAD_FRACTION: f64 = 0.8;

/// Services (two, so demux corruption hits one while the other keeps
/// serving) and their handler cost.
const SERVICES: usize = 2;
const HANDLER_CYCLES: u64 = 1000;
/// Measured load window per arm.
const DURATION_MS: u64 = 10;
/// Cores per arm (two kernel dispatchers + user residency).
const CORES: usize = 4;

/// The service table.
pub fn services() -> Vec<ServiceSpec> {
    ServiceSpec::uniform(SERVICES, HANDLER_CYCLES, 32)
}

/// Display name of an arm.
pub fn arm_name(arm: Option<NicFaultKind>) -> &'static str {
    match arm {
        None => "baseline",
        Some(NicFaultKind::TableCorrupt) => "table-corrupt",
        Some(NicFaultKind::StuckControlLine) => "stuck-line",
        Some(NicFaultKind::MirrorDesync) => "mirror-desync",
        Some(NicFaultKind::Reset) => "reset",
    }
}

/// Calibrates the stack's capacity: its closed-loop saturation
/// throughput on the arms' cores and services.
pub fn calibrate(seed: u64) -> f64 {
    saturation_rps(STACK, CORES, services(), seed)
}

/// The workload for one arm: open Poisson at `rate_rps` with client
/// retransmission armed, the fault striking mid-window.
pub fn workload_for(
    rate_rps: f64,
    arm: Option<NicFaultKind>,
    seed: u64,
    duration_ms: u64,
) -> WorkloadSpec {
    let mut wl = WorkloadSpec::open_poisson(
        rate_rps,
        SERVICES,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        duration_ms,
        seed,
    );
    wl.warmup = 100;
    let plan = match arm {
        Some(kind) => FaultPlan::nic_fault(kind, SimDuration::from_ms(duration_ms / 2)),
        None => FaultPlan::none(),
    };
    wl.with_faults(plan).with_retry(RetryPolicy::same_rack())
}

/// One measured arm.
#[derive(Debug, Clone)]
pub struct NicfailPoint {
    /// The injected fault class (`None` = baseline).
    pub arm: Option<NicFaultKind>,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Nominal load-window length, ms.
    pub duration_ms: u64,
    /// Measured report.
    pub report: Report,
}

impl NicfailPoint {
    /// Goodput: completions per second of nominal load window.
    pub fn goodput_rps(&self) -> f64 {
        self.report.completed as f64 / (self.duration_ms.max(1) as f64 / 1e3)
    }

    /// A recovery/watchdog counter (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.report.metrics.get_counter(key).unwrap_or(0)
    }

    /// Wall-clock the kernel spent in degraded mode, µs.
    pub fn degraded_us(&self) -> f64 {
        self.report
            .metrics
            .get_gauge("os.watchdog.degraded_us")
            .unwrap_or(0.0)
    }
}

/// The whole experiment: calibrated capacity plus one point per arm.
#[derive(Debug, Clone)]
pub struct NicfailSweep {
    /// Calibrated capacity, requests/second.
    pub capacity_rps: f64,
    /// Points in [`ARMS`] order.
    pub points: Vec<NicfailPoint>,
}

impl NicfailSweep {
    /// The point for `arm`.
    pub fn point(&self, arm: Option<NicFaultKind>) -> Option<&NicfailPoint> {
        self.points.iter().find(|p| p.arm == arm)
    }

    /// The fault-free baseline.
    pub fn baseline(&self) -> &NicfailPoint {
        self.point(None).expect("baseline arm always present")
    }
}

/// Runs the experiment: calibrate, then every arm in parallel.
pub fn run(seed: u64) -> NicfailSweep {
    run_scaled(seed, 1)
}

/// [`run`] with the load window stretched by `scale` (the fault still
/// strikes mid-window, so the degraded episode stays surrounded by
/// steady-state traffic on both sides).
pub fn run_scaled(seed: u64, scale: u64) -> NicfailSweep {
    let duration_ms = DURATION_MS * scale.max(1);
    let capacity_rps = calibrate(seed);
    let rate = capacity_rps * LOAD_FRACTION;
    let points: Vec<SweepPoint> = ARMS
        .iter()
        .map(|&arm| {
            SweepPoint::new(
                Experiment::new(STACK).cores(CORES).services(services()),
                workload_for(rate, arm, seed, duration_ms),
            )
        })
        .collect();
    let reports = sweep::run_parallel(&points, 0);
    NicfailSweep {
        capacity_rps,
        points: ARMS
            .iter()
            .zip(reports)
            .map(|(&arm, report)| NicfailPoint {
                arm,
                offered_rps: rate,
                duration_ms,
                report,
            })
            .collect(),
    }
}

/// Renders the episode table.
pub fn render(sweep: &NicfailSweep) -> String {
    let mut out = format!(
        "NICFAIL — NIC fault classes at {:.0}% of calibrated capacity \
         ({:.0} rps of {:.0}), fault mid-window, watchdog lease 50us\n\n",
        LOAD_FRACTION * 100.0,
        sweep.baseline().offered_rps,
        sweep.capacity_rps,
    );
    out.push_str(&format!(
        "{:>14} {:>9} {:>9} {:>10} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}\n",
        "arm",
        "goodput",
        "rtt p50",
        "rtt p99",
        "degraded",
        "detected",
        "repairs",
        "resets",
        "requeue",
        "replay"
    ));
    for p in &sweep.points {
        out.push_str(&format!(
            "{:>14} {:>8.2}% {:>7.1}us {:>8.1}us {:>8.1}us {:>9} {:>8} {:>8} {:>8} {:>8}\n",
            arm_name(p.arm),
            p.report.completed as f64 / p.report.offered.max(1) as f64 * 100.0,
            p.report.rtt.p50_us(),
            p.report.rtt.p99_us(),
            p.degraded_us(),
            p.counter("os.watchdog.faults_detected"),
            p.counter("os.watchdog.repairs"),
            p.counter("os.watchdog.resets_recovered"),
            p.counter("nic.recovery.requeued_kernel"),
            p.counter("nic.recovery.replayed"),
        ));
    }
    out.push_str(
        "\nEvery arm: completed == offered (zero lost-forever), \
         dup_executions == 0 (at-most-once across recovery).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_arm_loses_nothing_and_recovers() {
        // The acceptance bar: a mid-run NIC reset at 0.8x calibrated
        // load, and 100% of accepted requests complete exactly once.
        let sweep = run(91);
        assert!(
            sweep.capacity_rps > 100_000.0,
            "implausible capacity {}",
            sweep.capacity_rps
        );
        let p = sweep.point(Some(NicFaultKind::Reset)).expect("reset arm");
        assert_eq!(
            p.counter("os.watchdog.resets_recovered"),
            1,
            "reset never recovered: degraded {}us, detected {}",
            p.degraded_us(),
            p.counter("os.watchdog.faults_detected")
        );
        assert_eq!(
            p.report.completed, p.report.offered,
            "requests lost forever across the reset ({} dropped)",
            p.report.dropped
        );
        assert_eq!(p.report.dropped, 0);
        assert_eq!(
            p.report.faults.dup_executions, 0,
            "handler ran twice across the reset"
        );
        // The link genuinely paused and replayed.
        assert!(
            p.counter("nic.recovery.backlogged") > 0,
            "no frames arrived during the degraded window"
        );
        assert_eq!(
            p.counter("nic.recovery.backlogged"),
            p.counter("nic.recovery.replayed"),
            "paused frames were not all replayed"
        );
    }

    #[test]
    fn every_fault_class_is_detected_and_survived() {
        let sweep = run(93);
        for p in sweep.points.iter().filter(|p| p.arm.is_some()) {
            let name = arm_name(p.arm);
            assert!(
                p.counter("nic.recovery.injected") >= 1,
                "{name}: fault never injected"
            );
            assert!(
                p.counter("os.watchdog.faults_detected") >= 1,
                "{name}: watchdog never noticed"
            );
            assert!(
                p.counter("os.watchdog.repairs") + p.counter("os.watchdog.resets_recovered") >= 1,
                "{name}: fault detected but never recovered"
            );
            assert_eq!(
                p.report.completed, p.report.offered,
                "{name}: requests lost forever ({} dropped)",
                p.report.dropped
            );
            assert_eq!(
                p.report.faults.dup_executions, 0,
                "{name}: at-most-once violated"
            );
        }
        // The baseline arm keeps the machinery cold.
        let base = sweep.baseline();
        assert_eq!(base.counter("os.watchdog.heartbeats"), 0);
        assert_eq!(base.counter("nic.recovery.injected"), 0);
    }

    #[test]
    fn degraded_mode_p99_stays_bounded() {
        // The tail may stretch by the detection lease plus one client
        // retransmission timeout — it must not collapse.
        let sweep = run(95);
        let base_p99 = sweep.baseline().report.rtt.p99_us();
        for p in sweep.points.iter().filter(|p| p.arm.is_some()) {
            let p99 = p.report.rtt.p99_us();
            assert!(
                p99 <= base_p99 + 300.0,
                "{}: degraded p99 {p99:.1}us vs baseline {base_p99:.1}us",
                arm_name(p.arm)
            );
        }
    }
}
