//! Claim C4 (§5.2): dynamic workloads with more services than cores.
//!
//! S services, C ≪ S cores, Zipf popularity whose hot set rotates
//! every epoch. The bypass stack must either keep its static bindings
//! (hot services land on shared, contended cores) or rebind every
//! epoch (paying control-plane and drain windows); the kernel stack
//! adapts for free but pays its software path per request; Lauberhorn
//! adapts through the shared scheduling state — cores migrate to hot
//! services by taking one kernel-loop dispatch, then serve from the
//! user loop.

use crate::experiment::{Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::spec::LoadMode;
use lauberhorn_rpc::{Report, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::SimDuration;
use lauberhorn_workload::{ArrivalProcess, DynamicMix, SizeDist};

/// One contender's result.
#[derive(Debug, Clone)]
pub struct Contender {
    /// Label.
    pub label: &'static str,
    /// Report.
    pub report: Report,
}

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct C4Params {
    /// Number of services (≫ cores).
    pub services: usize,
    /// Server cores.
    pub cores: usize,
    /// Offered load, requests/second.
    pub rate_rps: f64,
    /// Hot-set rotation period, microseconds.
    pub epoch_us: u64,
    /// Run duration, milliseconds.
    pub duration_ms: u64,
    /// Zipf popularity exponent (high skew makes the hot service
    /// exceed one core's capacity — the dynamic-scaling case of §5.2).
    pub zipf_s: f64,
    /// Handler cost in cycles.
    pub handler_cycles: u64,
}

impl Default for C4Params {
    fn default() -> Self {
        C4Params {
            services: 24,
            cores: 4,
            rate_rps: 700_000.0,
            epoch_us: 2_000,
            duration_ms: 20,
            zipf_s: 1.8,
            handler_cycles: 6_000,
        }
    }
}

/// Runs the dynamic-mix comparison.
pub fn run(p: C4Params, seed: u64) -> Vec<Contender> {
    let services = ServiceSpec::uniform(p.services, p.handler_cycles, 32);
    let wl = WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::Poisson {
                rate_rps: p.rate_rps,
            },
        },
        mix: DynamicMix::new(p.services, p.zipf_s, 5, p.epoch_us),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(p.duration_ms),
        seed,
        warmup: 500,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    };
    // Same machine class for every contender (3 GHz PC server) so the
    // comparison is architectural, not a clock-speed artefact. The four
    // contenders run concurrently on the sweep executor.
    let contenders: [(&'static str, StackKind, bool); 4] = [
        (
            "lauberhorn (NIC-driven scheduling)",
            StackKind::LauberhornCxl,
            false,
        ),
        ("bypass (static bindings)", StackKind::BypassModern, false),
        ("bypass (rebind every epoch)", StackKind::BypassModern, true),
        ("kernel stack", StackKind::KernelModern, false),
    ];
    let points: Vec<SweepPoint> = contenders
        .iter()
        .map(|&(_, stack, rebind)| {
            SweepPoint::new(
                Experiment::new(stack)
                    .cores(p.cores)
                    .services(services.clone())
                    .rebind_on_epoch(rebind),
                wl.clone(),
            )
        })
        .collect();
    contenders
        .iter()
        .zip(sweep::run_parallel(&points, 0))
        .map(|(&(label, _, _), report)| Contender { label, report })
        .collect()
}

/// Renders the comparison.
pub fn render(rows: &[Contender], p: C4Params) -> String {
    let mut out = format!(
        "C4 — dynamic workload: {} services on {} cores, hot set rotates every {} us (§5.2)\n\n",
        p.services, p.cores, p.epoch_us
    );
    out.push_str(&format!(
        "{:<38} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "stack", "rtt p50", "rtt p99", "completed", "xput rps", "sw cyc/req"
    ));
    for c in rows {
        let r = &c.report;
        out.push_str(&format!(
            "{:<38} {:>8.1}us {:>8.1}us {:>9.1}% {:>10.0} {:>10.0}\n",
            c.label,
            r.rtt.p50_us(),
            r.rtt.p99_us(),
            r.completed as f64 / r.offered.max(1) as f64 * 100.0,
            r.throughput_rps(),
            r.sw_cycles_per_req,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_label<'a>(rows: &'a [Contender], label: &str) -> &'a Report {
        &rows
            .iter()
            .find(|c| c.label.starts_with(label))
            .unwrap_or_else(|| panic!("{label} missing"))
            .report
    }

    #[test]
    fn lauberhorn_beats_both_bypass_policies_at_p99() {
        let rows = run(C4Params::default(), 21);
        let lb = by_label(&rows, "lauberhorn");
        let static_by = by_label(&rows, "bypass (static");
        let rebind_by = by_label(&rows, "bypass (rebind");
        assert!(
            lb.rtt.p99 < static_by.rtt.p99,
            "lb p99 {}us !< static bypass {}us",
            lb.rtt.p99_us(),
            static_by.rtt.p99_us()
        );
        assert!(
            lb.rtt.p99 < rebind_by.rtt.p99,
            "lb p99 {}us !< rebinding bypass {}us",
            lb.rtt.p99_us(),
            rebind_by.rtt.p99_us()
        );
    }

    #[test]
    fn lauberhorn_beats_kernel_at_median() {
        let rows = run(C4Params::default(), 22);
        let lb = by_label(&rows, "lauberhorn");
        let ke = by_label(&rows, "kernel");
        assert!(lb.rtt.p50 < ke.rtt.p50);
    }

    #[test]
    fn everyone_completes_most_requests() {
        // The comparison is about latency, not starvation; all stacks
        // must substantially keep up at this load.
        let rows = run(C4Params::default(), 23);
        for c in &rows {
            let frac = c.report.completed as f64 / c.report.offered.max(1) as f64;
            assert!(frac > 0.7, "{}: completed only {frac}", c.label);
        }
    }
}
