//! Claim C3 (§4): near-zero software cycles and no energy wasted
//! spinning.
//!
//! An offered-load sweep over the three stacks, reporting per-request
//! software overhead cycles, the active/stalled/idle core-time split,
//! the relative energy proxy, and interconnect traffic. This is the
//! quantitative form of "reduce the CPU cycle overhead of a small RPC
//! call to essentially zero" plus "no energy wasted in spinning".

use crate::experiment::{Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::{Report, ServiceSpec, WorkloadSpec};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Offered load (requests/second).
    pub rate_rps: f64,
    /// Reports per stack (lauberhorn, bypass, kernel — modern machine
    /// class for the DMA stacks, Enzian for Lauberhorn).
    pub reports: Vec<Report>,
}

/// Runs the sweep: all `rate × stack` points fan out over the
/// parallel executor and fold back into per-rate rows.
pub fn run(seed: u64) -> Vec<Point> {
    let services = ServiceSpec::uniform(1, 1000, 32);
    let stacks = [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ];
    let rates = [10_000.0f64, 50_000.0, 200_000.0];
    let mut points = Vec::with_capacity(rates.len() * stacks.len());
    for &rate in &rates {
        for &stack in &stacks {
            let mut wl = WorkloadSpec::open_poisson(
                rate,
                1,
                0.0,
                lauberhorn_workload::SizeDist::Fixed { bytes: 64 },
                20,
                seed,
            );
            wl.warmup = 50;
            points.push(SweepPoint::new(
                Experiment::new(stack).cores(2).services(services.clone()),
                wl,
            ));
        }
    }
    let mut reports = sweep::run_parallel(&points, 0).into_iter();
    rates
        .into_iter()
        .map(|rate| Point {
            rate_rps: rate,
            reports: stacks
                .iter()
                .map(|_| reports.next().expect("one per point"))
                .collect(),
        })
        .collect()
}

/// Renders the sweep.
pub fn render(points: &[Point]) -> String {
    let mut out =
        String::from("C3 — software cycles per request, energy split, bus traffic (§4)\n");
    for p in points {
        out.push_str(&format!("\n== offered load {:.0} rps\n", p.rate_rps));
        out.push_str(&format!(
            "{:<24} {:>11} {:>8} {:>8} {:>8} {:>12} {:>12}\n",
            "stack", "sw cyc/req", "active%", "stall%", "idle%", "energy", "fabric msgs"
        ));
        for r in &p.reports {
            let t = r.energy.total().as_ps().max(1) as f64;
            out.push_str(&format!(
                "{:<24} {:>11.0} {:>7.1}% {:>7.1}% {:>7.1}% {:>12.4} {:>12}\n",
                r.stack,
                r.sw_cycles_per_req,
                r.energy.active.as_ps() as f64 / t * 100.0,
                r.energy.stalled.as_ps() as f64 / t * 100.0,
                r.energy.idle.as_ps() as f64 / t * 100.0,
                r.energy_proxy,
                r.fabric_messages,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_overhead_ordering_at_every_load() {
        for p in run(5) {
            let lb = &p.reports[0];
            let by = &p.reports[1];
            let ke = &p.reports[2];
            assert!(
                lb.sw_cycles_per_req < by.sw_cycles_per_req,
                "@{}rps: lb {} !< by {}",
                p.rate_rps,
                lb.sw_cycles_per_req,
                by.sw_cycles_per_req
            );
            assert!(by.sw_cycles_per_req < ke.sw_cycles_per_req);
            // "Essentially zero": under 200 cycles.
            assert!(lb.sw_cycles_per_req < 200.0);
        }
    }

    #[test]
    fn lauberhorn_never_spins() {
        for p in run(6) {
            let lb = &p.reports[0];
            let by = &p.reports[1];
            assert!(lb.energy.active_fraction() < 0.5);
            assert!(by.energy.active_fraction() > 0.9);
            assert!(lb.energy_proxy < by.energy_proxy);
        }
    }

    #[test]
    fn idle_bypass_still_burns_fabric_bandwidth() {
        // At low load, the spinning baseline's poll traffic dominates:
        // its per-request fabric message count dwarfs Lauberhorn's.
        let p = &run(7)[0]; // 10k rps.
        let lb = &p.reports[0];
        let by = &p.reports[1];
        let lb_per_req = lb.fabric_messages as f64 / lb.completed.max(1) as f64;
        let by_per_req = by.fabric_messages as f64 / by.completed.max(1) as f64;
        assert!(
            by_per_req > 10.0 * lb_per_req,
            "bypass {by_per_req} vs lauberhorn {lb_per_req}"
        );
    }
}
