//! Extension experiment: throughput–latency curves.
//!
//! Not a figure in the paper, but the natural quantitative extension of
//! its argument: sweep offered load and record the latency curve of
//! each stack until it saturates. The paper's claims translate to three
//! predictions, all checked here:
//!
//! * Lauberhorn's curve starts lowest (Figure 2) and stays flat longest
//!   (no software bottleneck on the data path);
//! * bypass is flat but offset upward (per-request software cycles);
//! * the kernel stack's knee arrives earliest (its per-request cycles
//!   saturate the cores first).

use crate::experiment::{Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::{Report, ServiceSpec, WorkloadSpec};
use lauberhorn_workload::SizeDist;

/// One point on a stack's curve.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Measured report.
    pub report: Report,
}

/// One stack's curve.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Stack.
    pub stack: StackKind,
    /// Points in offered-load order.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// Highest offered load the stack sustained (≥ 95 % completion and
    /// p99 under 20× the lightest-load p99).
    pub fn sustained_rps(&self) -> f64 {
        let base_p99 = self.points.first().map(|p| p.report.rtt.p99).unwrap_or(1);
        self.points
            .iter()
            .filter(|p| {
                let frac = p.report.completed as f64 / p.report.offered.max(1) as f64;
                frac >= 0.95 && p.report.rtt.p99 < base_p99.saturating_mul(20)
            })
            .map(|p| p.offered_rps)
            .fold(0.0, f64::max)
    }
}

/// Measured load window per point at scale 1, milliseconds.
const DURATION_MS: u64 = 15;

/// Runs the sweep: 2 cores, one 1000-cycle service, 64 B requests.
/// All `stacks × loads` points fan out over the parallel sweep
/// executor; the results fold back into per-stack curves.
pub fn run(seed: u64) -> Vec<Curve> {
    run_scaled(seed, 1)
}

/// [`run`] with the load window stretched by `scale`. The offered-load
/// points are unchanged — the same rates, swept `scale`× longer — so a
/// 100× run multiplies the simulated request count by 100 while every
/// per-second statistic stays directly comparable to the 1× sweep.
/// Request/event counters are u64 throughout ([`Report`] counts,
/// metrics counters, the engine's event sequence numbers), so even a
/// 10⁸-event run sits 11 orders of magnitude below overflow.
pub fn run_scaled(seed: u64, scale: u64) -> Vec<Curve> {
    let services = ServiceSpec::uniform(1, 1000, 32);
    let loads = [
        25_000.0f64,
        50_000.0,
        100_000.0,
        200_000.0,
        400_000.0,
        800_000.0,
    ];
    let stacks = [
        StackKind::LauberhornCxl,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ];
    let mut points = Vec::with_capacity(stacks.len() * loads.len());
    for &stack in &stacks {
        for &rate in &loads {
            let mut wl = WorkloadSpec::open_poisson(
                rate,
                1,
                0.0,
                SizeDist::Fixed { bytes: 64 },
                DURATION_MS * scale.max(1),
                seed,
            );
            wl.warmup = 100;
            points.push(SweepPoint::new(
                Experiment::new(stack).cores(2).services(services.clone()),
                wl,
            ));
        }
    }
    let mut reports = sweep::run_parallel(&points, 0).into_iter();
    stacks
        .into_iter()
        .map(|stack| Curve {
            stack,
            points: loads
                .iter()
                .map(|&rate| CurvePoint {
                    offered_rps: rate,
                    report: reports.next().expect("one report per point"),
                })
                .collect(),
        })
        .collect()
}

/// Renders the curves.
pub fn render(curves: &[Curve]) -> String {
    let mut out = String::from(
        "Load sweep — p50/p99 latency vs offered load (2 cores, 1000-cycle handler)\n",
    );
    for c in curves {
        out.push_str(&format!(
            "\n== {}   sustained: {:.0} rps\n",
            c.stack.name(),
            c.sustained_rps()
        ));
        out.push_str(&format!(
            "{:>12} {:>10} {:>10} {:>10} {:>10}\n",
            "offered rps", "rtt p50", "rtt p99", "xput rps", "completed"
        ));
        for p in &c.points {
            let r = &p.report;
            out.push_str(&format!(
                "{:>12.0} {:>8.1}us {:>8.1}us {:>10.0} {:>9.1}%\n",
                p.offered_rps,
                r.rtt.p50_us(),
                r.rtt.p99_us(),
                r.throughput_rps(),
                r.completed as f64 / r.offered.max(1) as f64 * 100.0,
            ));
        }
        // Component metrics at the heaviest offered load: where the
        // saturated stack spent its effort (DESIGN.md §11).
        if let Some(last) = c.points.last() {
            let row = last.report.metrics_row();
            if !row.is_empty() {
                out.push_str(&format!("   metrics@{:.0}rps: {row}\n", last.offered_rps));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lauberhorn_sustains_the_most_load() {
        let curves = run(41);
        let by_stack = |k: StackKind| {
            curves
                .iter()
                .find(|c| c.stack == k)
                .expect("present")
                .sustained_rps()
        };
        let lb = by_stack(StackKind::LauberhornCxl);
        let ke = by_stack(StackKind::KernelModern);
        assert!(lb >= by_stack(StackKind::BypassModern), "lb {lb}");
        assert!(lb > ke, "lb {lb} !> kernel {ke}");
    }

    #[test]
    fn latency_is_monotone_enough_in_load() {
        // At the light end (before saturation noise) p99 must not
        // *improve* dramatically as load rises.
        for c in run(43) {
            let first = c.points.first().expect("non-empty").report.rtt.p99;
            let second = c.points[1].report.rtt.p99;
            assert!(
                second as f64 > first as f64 * 0.5,
                "{}: p99 fell from {} to {}",
                c.stack.name(),
                first,
                second
            );
        }
    }

    #[test]
    fn kernel_knee_is_earliest() {
        let curves = run(47);
        let ke = curves
            .iter()
            .find(|c| c.stack == StackKind::KernelModern)
            .expect("present");
        let lb = curves
            .iter()
            .find(|c| c.stack == StackKind::LauberhornCxl)
            .expect("present");
        assert!(ke.sustained_rps() < lb.sustained_rps());
    }
}
