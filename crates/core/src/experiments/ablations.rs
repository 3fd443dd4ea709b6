//! Ablations of the design choices DESIGN.md calls out.
//!
//! * [`yield_policy`] — how eagerly a user loop returns its core to the
//!   kernel dispatch loop (`yield_after` TRYAGAINs). Eager yielding
//!   shares cores across services; lazy yielding hoards residency.
//! * [`tryagain_window`] — the 15 ms TRYAGAIN timeout (§5.1). A shorter
//!   window raises protocol traffic and yield churn; a longer one
//!   stretches the coherence protocol's tolerance. 15 ms is Enzian's
//!   safe bound, and the sweep shows the latency metrics are
//!   insensitive to it (it is purely a liveness bound).
//! * [`continuations`] — nested-RPC continuation endpoints (§6) vs
//!   routing replies through the kernel dispatch path.

use lauberhorn_rpc::sim_lauberhorn::{LauberhornSim, LauberhornSimConfig};
use lauberhorn_rpc::spec::LoadMode;
use lauberhorn_rpc::{Report, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::SimDuration;
use lauberhorn_workload::{ArrivalProcess, DynamicMix, SizeDist};

/// A labelled report row.
#[derive(Debug, Clone)]
pub struct Labelled {
    /// Variant label.
    pub label: String,
    /// Report.
    pub report: Report,
    /// TRYAGAIN dummies the NIC returned during the run.
    pub tryagains: u64,
    /// Fraction of requests delivered into parked user loops.
    pub fast_fraction: f64,
}

/// A sparse workload over `services` uniform services: per-service
/// gaps comparable to the TRYAGAIN window, so residency decisions
/// (yield, re-park) actually trigger.
fn sparse_wl(services: usize, rate_rps: f64, duration_ms: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        mode: LoadMode::Open {
            arrivals: ArrivalProcess::Poisson { rate_rps },
        },
        mix: DynamicMix::stable(services, 0.0),
        request_bytes: SizeDist::Fixed { bytes: 64 },
        payload: None,
        record_responses: false,
        duration: SimDuration::from_ms(duration_ms),
        seed,
        warmup: 30,
        faults: Default::default(),
        retry: None,
        observe: lauberhorn_sim::ObserveSpec::none(),
        overload: None,
    }
}

fn run_variant(
    label: String,
    cfg: LauberhornSimConfig,
    services: usize,
    wl: &WorkloadSpec,
) -> Labelled {
    let mut sim = LauberhornSim::new(cfg, ServiceSpec::uniform(services, 2000, 32));
    let report = sim.run(wl);
    let nic_stats = sim.nic().stats();
    let ep = sim.nic().total_endpoint_stats();
    Labelled {
        label,
        report,
        tryagains: ep.tryagains,
        fast_fraction: nic_stats.fast_path as f64 / nic_stats.rx_requests.max(1) as f64,
    }
}

/// Sweeps the user-loop yield policy.
///
/// Workload: four services on four cores (the hot set fits), with
/// per-service gaps slightly above the TRYAGAIN window — so the yield
/// decision, not kernel-queue pressure, governs residency.
pub fn yield_policy(seed: u64) -> Vec<Labelled> {
    [1u32, 4, 16]
        .into_iter()
        .map(|n| {
            let mut cfg = LauberhornSimConfig::enzian(4);
            cfg.yield_after = n;
            run_variant(
                format!("yield after {n} TRYAGAIN(s)"),
                cfg,
                4,
                &sparse_wl(4, 250.0, 2_000, seed),
            )
        })
        .collect()
}

/// Sweeps the TRYAGAIN window under a sparse many-service load.
///
/// Finding: the window is a *liveness and responsiveness* knob — a
/// shorter window returns idle cores to the kernel dispatch loop
/// sooner (helping cold requests) at the price of proportionally more
/// TRYAGAIN protocol traffic. Under steady load (see
/// [`tryagain_window_steady`]) it never appears on the critical path.
pub fn tryagain_window(seed: u64) -> Vec<Labelled> {
    [
        SimDuration::from_ms(1),
        SimDuration::from_ms(15),
        SimDuration::from_ms(60),
    ]
    .into_iter()
    .map(|t| {
        let mut cfg = LauberhornSimConfig::enzian(4);
        cfg.tryagain_timeout = Some(t);
        cfg.yield_after = 4;
        run_variant(
            format!("TRYAGAIN window {t}"),
            cfg,
            16,
            &sparse_wl(16, 1_500.0, 400, seed),
        )
    })
    .collect()
}

/// The same window sweep under steady load: the window never fires on
/// the hot path, so all metrics coincide.
pub fn tryagain_window_steady(seed: u64) -> Vec<Labelled> {
    [
        SimDuration::from_ms(1),
        SimDuration::from_ms(15),
        SimDuration::from_ms(60),
    ]
    .into_iter()
    .map(|t| {
        let mut cfg = LauberhornSimConfig::enzian(4);
        cfg.tryagain_timeout = Some(t);
        let wl = WorkloadSpec {
            mode: LoadMode::Open {
                arrivals: ArrivalProcess::Poisson { rate_rps: 80_000.0 },
            },
            mix: DynamicMix::stable(4, 0.0),
            request_bytes: SizeDist::Fixed { bytes: 64 },
            payload: None,
            record_responses: false,
            duration: SimDuration::from_ms(10),
            seed,
            warmup: 100,
            faults: Default::default(),
            retry: None,
            observe: lauberhorn_sim::ObserveSpec::none(),
            overload: None,
        };
        run_variant(format!("TRYAGAIN window {t} (steady)"), cfg, 4, &wl)
    })
    .collect()
}

/// Continuation cost comparison (analytic, from the calibrated model):
/// creating a reply endpoint vs taking the kernel-dispatch path for
/// the reply. Returns `(continuation_ns, kernel_path_ns)`.
pub fn continuations() -> (f64, f64) {
    use lauberhorn_nic::continuation::CONTINUATION_CREATE_COST;
    use lauberhorn_os::CostModel;
    let m = CostModel::enzian();
    let fabric = lauberhorn_coherence::FabricModel::eci();
    // Reply via continuation: create (one store) + fast-path delivery.
    let cont = CONTINUATION_CREATE_COST + fabric.data_lat;
    // Reply without: kernel endpoint dispatch + context switch into the
    // caller.
    let kernel = fabric.data_lat + m.cycles(m.sched_pick + m.full_context_switch());
    (cont.as_ns_f64(), kernel.as_ns_f64())
}

/// Renders a labelled table.
pub fn render(title: &str, rows: &[Labelled]) -> String {
    let mut out = format!("{title}\n\n");
    out.push_str(&format!(
        "{:<32} {:>10} {:>10} {:>11} {:>10} {:>9}\n",
        "variant", "rtt p50", "rtt p99", "sw cyc/req", "tryagains", "fastpath"
    ));
    for l in rows {
        out.push_str(&format!(
            "{:<32} {:>8.1}us {:>8.1}us {:>11.0} {:>10} {:>8.0}%\n",
            l.label,
            l.report.rtt.p50_us(),
            l.report.rtt.p99_us(),
            l.report.sw_cycles_per_req,
            l.tryagains,
            l.fast_fraction * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yield_policy_variants_all_complete() {
        for l in yield_policy(31) {
            let frac = l.report.completed as f64 / l.report.offered.max(1) as f64;
            assert!(frac > 0.9, "{}: {frac}", l.label);
        }
    }

    #[test]
    fn steady_window_rows_render() {
        let s = render("steady", &tryagain_window_steady(39));
        assert!(s.contains("steady"));
    }

    #[test]
    fn tryagain_traffic_scales_inversely_with_window() {
        let rows = tryagain_window(33);
        assert!(
            rows[0].tryagains > rows[1].tryagains,
            "1ms window {} !> 15ms window {}",
            rows[0].tryagains,
            rows[1].tryagains
        );
        assert!(rows[1].tryagains >= rows[2].tryagains);
    }

    #[test]
    fn tryagain_window_off_critical_path_under_steady_load() {
        let rows = tryagain_window_steady(37);
        let p50s: Vec<f64> = rows.iter().map(|l| l.report.rtt.p50_us()).collect();
        let (min, max) = (
            p50s.iter().cloned().fold(f64::MAX, f64::min),
            p50s.iter().cloned().fold(0.0, f64::max),
        );
        assert!(max / min < 1.1, "p50 spread {p50s:?}");
    }

    #[test]
    fn lazy_yield_holds_residency_longer() {
        let rows = yield_policy(35);
        // Yielding after 16 windows keeps cores parked in user loops
        // far longer than yielding after 1, so more requests land on
        // the fast path.
        assert!(
            rows[2].fast_fraction > rows[0].fast_fraction,
            "lazy {} !> eager {}",
            rows[2].fast_fraction,
            rows[0].fast_fraction
        );
    }

    #[test]
    fn continuations_are_much_cheaper_than_kernel_replies() {
        let (cont, kernel) = continuations();
        assert!(
            cont * 3.0 < kernel,
            "continuation {cont}ns vs kernel {kernel}ns"
        );
    }
}
