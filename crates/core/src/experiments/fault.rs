//! Extension experiment: behaviour under injected wire faults.
//!
//! The robustness argument behind "the NIC should be part of the OS"
//! only holds if the integrated stack degrades as gracefully as the
//! ones it replaces. This experiment sweeps a frame-loss rate over all
//! three stacks with the loss-tolerant RPC layer enabled (client
//! retransmission with exponential backoff, server-side at-most-once
//! dedup window) and records goodput, tail latency and the fault
//! counters.
//!
//! The checked predictions:
//!
//! * at 0 % loss every stack is byte-identical to a clean run — the
//!   fault machinery is strictly pay-for-use;
//! * at 0.1 % loss every stack still delivers ≥ 99 % goodput, and the
//!   dedup window keeps duplicate executions at exactly zero;
//! * tail latency degrades smoothly with the loss rate (retransmission
//!   timeouts, not collapse).

use crate::experiment::{Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::{Report, RetryPolicy, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::fault::FaultPlan;
use lauberhorn_workload::SizeDist;

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Stack under test.
    pub stack: StackKind,
    /// Per-frame loss probability applied to both wire directions.
    pub loss: f64,
    /// Measured report.
    pub report: Report,
}

impl FaultPoint {
    /// Completed as a fraction of offered.
    pub fn goodput_frac(&self) -> f64 {
        self.report.completed as f64 / self.report.offered.max(1) as f64
    }
}

/// The swept loss rates: clean, 0.1 %, 0.5 %, 1 %.
pub const LOSS_RATES: [f64; 4] = [0.0, 0.001, 0.005, 0.01];

/// The compared stacks.
pub const STACKS: [StackKind; 3] = [
    StackKind::LauberhornEnzian,
    StackKind::BypassModern,
    StackKind::KernelModern,
];

/// The un-scaled load window per point, in milliseconds.
const DURATION_MS: u64 = 50;

fn workload(loss: f64, seed: u64, duration_ms: u64) -> WorkloadSpec {
    let mut wl = WorkloadSpec::open_poisson(
        60_000.0,
        1,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        duration_ms,
        seed,
    );
    wl.warmup = 100;
    wl.with_faults(FaultPlan::wire_loss(loss))
        .with_retry(RetryPolicy::same_rack())
}

/// Runs the sweep: `STACKS × LOSS_RATES`, 2 cores, one 1000-cycle
/// service, open Poisson at 60 krps, retransmission enabled.
pub fn run(seed: u64) -> Vec<FaultPoint> {
    run_scaled(seed, 1)
}

/// [`run`] with every point's load window stretched `scale`× — the
/// soak knob: same rates, same injectors, `scale`× the exposure.
pub fn run_scaled(seed: u64, scale: u64) -> Vec<FaultPoint> {
    let services = ServiceSpec::uniform(1, 1000, 32);
    let mut points = Vec::with_capacity(STACKS.len() * LOSS_RATES.len());
    for &stack in &STACKS {
        for &loss in &LOSS_RATES {
            points.push(SweepPoint::new(
                Experiment::new(stack).cores(2).services(services.clone()),
                workload(loss, seed, DURATION_MS * scale.max(1)),
            ));
        }
    }
    let reports = sweep::run_parallel(&points, 0);
    let mut out = Vec::with_capacity(points.len());
    let mut it = reports.into_iter();
    for &stack in &STACKS {
        for &loss in &LOSS_RATES {
            out.push(FaultPoint {
                stack,
                loss,
                report: it.next().expect("one report per point"),
            });
        }
    }
    out
}

/// Renders the sweep table.
pub fn render(points: &[FaultPoint]) -> String {
    let mut out = String::from(
        "Fault sweep — goodput and tail latency vs wire loss \
         (retry + at-most-once dedup, 60 krps open, 2 cores)\n",
    );
    for &stack in &STACKS {
        out.push_str(&format!("\n== {}\n", stack.name()));
        out.push_str(&format!(
            "{:>7} {:>9} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
            "loss", "goodput", "rtt p50", "rtt p99", "retx", "replay", "dupexec", "dropped"
        ));
        for p in points.iter().filter(|p| p.stack == stack) {
            let f = &p.report.faults;
            out.push_str(&format!(
                "{:>6.2}% {:>8.2}% {:>8.1}us {:>8.1}us {:>8} {:>8} {:>8} {:>8}\n",
                p.loss * 100.0,
                p.goodput_frac() * 100.0,
                p.report.rtt.p50_us(),
                p.report.rtt.p99_us(),
                f.retransmits,
                f.dedup_replayed,
                f.dup_executions,
                p.report.dropped,
            ));
        }
        // Component metrics at the heaviest loss: which path absorbed
        // the faults (DESIGN.md §11).
        if let Some(worst) = points
            .iter()
            .filter(|p| p.stack == stack)
            .max_by(|a, b| a.loss.total_cmp(&b.loss))
        {
            let row = worst.report.metrics_row();
            if !row.is_empty() {
                out.push_str(&format!("   metrics@{:.2}%: {row}\n", worst.loss * 100.0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_loss_keeps_goodput_and_at_most_once() {
        // The PR's acceptance bar: at 0.1 % loss, goodput ≥ 99 % of
        // offered and zero duplicate executions, on every stack.
        for p in run(71).iter().filter(|p| p.loss == 0.001) {
            assert!(
                p.goodput_frac() >= 0.99,
                "{:?} at 0.1% loss: goodput {:.2}% ({}/{})",
                p.stack,
                p.goodput_frac() * 100.0,
                p.report.completed,
                p.report.offered
            );
            assert_eq!(
                p.report.faults.dup_executions, 0,
                "{:?}: handler ran twice for one request id",
                p.stack
            );
        }
    }

    #[test]
    fn zero_loss_with_retry_matches_clean_run() {
        // The retry layer armed but never used must not perturb the
        // simulation: digests and latency summaries equal a run with
        // no fault machinery at all.
        let services = ServiceSpec::uniform(1, 1000, 32);
        for &stack in &STACKS {
            let armed = Experiment::new(stack)
                .cores(2)
                .services(services.clone())
                .run(&workload(0.0, 71, DURATION_MS));
            let mut clean_wl = workload(0.0, 71, DURATION_MS);
            clean_wl.faults = FaultPlan::none();
            clean_wl.retry = None;
            let clean = Experiment::new(stack)
                .cores(2)
                .services(services.clone())
                .run(&clean_wl);
            assert_eq!(armed.request_digest, clean.request_digest, "{stack:?}");
            assert_eq!(armed.rtt, clean.rtt, "{stack:?}");
            assert_eq!(armed.completed, clean.completed, "{stack:?}");
            assert_eq!(armed.dropped, clean.dropped, "{stack:?}");
            assert_eq!(armed.faults.retransmits, 0, "{stack:?}");
        }
    }

    #[test]
    fn loss_actually_bites_and_retry_recovers() {
        // At 1 % loss the injectors must have fired (retransmissions
        // observed) yet goodput stays above 90 % on every stack.
        for p in run(73).iter().filter(|p| p.loss == 0.01) {
            let f = &p.report.faults;
            assert!(
                f.wire_tx_lost + f.wire_rx_lost > 0,
                "{:?}: no frames lost at 1% loss",
                p.stack
            );
            assert!(
                f.retransmits > 0,
                "{:?}: losses but no retransmissions",
                p.stack
            );
            assert!(
                p.goodput_frac() >= 0.90,
                "{:?} at 1% loss: goodput {:.2}%",
                p.stack,
                p.goodput_frac() * 100.0
            );
        }
    }
}
