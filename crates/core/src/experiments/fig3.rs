//! Figure 3: the Lauberhorn receive fast path, phase by phase.
//!
//! We run the fast path end-to-end (process resident, core parked) and
//! decompose the server-side latency of a request into the pipeline
//! phases of Figure 3: Ethernet/IP/UDP decode + demux, deserialization
//! offload, the coherence-fabric delivery into the stalled load, the
//! handler, and the fetch-exclusive collection of the response.

use lauberhorn_nic::LauberhornNicConfig;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_rpc::sim_lauberhorn::{LauberhornSim, LauberhornSimConfig};
use lauberhorn_rpc::{Machine, Report, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::SimDuration;

/// One phase of the fast path.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Modelled latency.
    pub latency: SimDuration,
}

/// The fast-path decomposition plus a measured cross-check.
#[derive(Debug, Clone)]
pub struct FastPath {
    /// Analytic phases, in order.
    pub phases: Vec<Phase>,
    /// Sum of the phases.
    pub analytic_total: SimDuration,
    /// Measured end-system latency (p50) from a real run.
    pub measured: Report,
    /// Fraction of requests that took the fast path in that run.
    pub fast_path_fraction: f64,
}

/// Runs the decomposition for the given machine.
pub fn run(machine: Machine, seed: u64) -> FastPath {
    let addr = EndpointAddr::host(1, 9000);
    let nic_cfg = match machine {
        Machine::EnzianEci => LauberhornNicConfig::enzian(addr),
        Machine::CxlProjected => LauberhornNicConfig::cxl_server(addr),
        Machine::NumaEmulated => LauberhornNicConfig::numa_emulated(addr),
        m => panic!("fig3 decomposes the Lauberhorn fast path; {m:?} has no coherent NIC"),
    };
    let handler_cycles = 1000u64;
    let freq = match machine {
        Machine::EnzianEci => 2.0,
        _ => 3.0,
    };
    let fabric = nic_cfg.transfer.fabric;
    let phases = vec![
        Phase {
            name: "MAC + header decode + demux",
            latency: nic_cfg.pipeline_latency,
        },
        Phase {
            name: "deserialization offload (64 B)",
            latency: nic_cfg.deser_fixed + nic_cfg.deser_per_64b,
        },
        Phase {
            name: "fill response to stalled core",
            latency: fabric.data_lat,
        },
        Phase {
            name: "dispatch-form consume + jump",
            latency: SimDuration::from_cycles(40 + 5, freq),
        },
        Phase {
            name: "handler (1000 cycles)",
            latency: SimDuration::from_cycles(handler_cycles, freq),
        },
        Phase {
            name: "response write + next load",
            latency: SimDuration::from_cycles(15, freq) + fabric.req_lat,
        },
        Phase {
            name: "fetch-exclusive + collect",
            latency: fabric.req_lat + fabric.data_lat,
        },
    ];
    let analytic_total = phases.iter().map(|p| p.latency).sum();
    // Cross-check against the full simulation.
    let cfg = match machine {
        Machine::CxlProjected => LauberhornSimConfig::cxl_server(2),
        Machine::NumaEmulated => LauberhornSimConfig::numa_emulated(2),
        _ => LauberhornSimConfig::enzian(2),
    };
    let mut sim = LauberhornSim::new(cfg, ServiceSpec::uniform(1, handler_cycles, 32));
    let measured = sim.run(&WorkloadSpec::echo_closed(64, 4, seed));
    let stats = sim.nic().stats();
    let fast = stats.fast_path as f64 / stats.rx_requests.max(1) as f64;
    FastPath {
        phases,
        analytic_total,
        measured,
        fast_path_fraction: fast,
    }
}

/// Renders the decomposition.
pub fn render(fp: &FastPath) -> String {
    let mut out = String::from("Figure 3 — Lauberhorn receive fast path\n\n");
    for p in &fp.phases {
        out.push_str(&format!(
            "  {:<34} {:>10}\n",
            p.name,
            format!("{}", p.latency)
        ));
    }
    out.push_str(&format!(
        "  {:<34} {:>10}\n",
        "— analytic total",
        format!("{}", fp.analytic_total)
    ));
    out.push_str(&format!(
        "\nmeasured end-system p50: {:.2} us  (fast-path fraction {:.1}%)\n",
        fp.measured.end_system.p50_us(),
        fp.fast_path_fraction * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_and_measured_agree() {
        let fp = run(Machine::EnzianEci, 3);
        let analytic = fp.analytic_total.as_us_f64();
        let measured = fp.measured.end_system.p50_us();
        let ratio = measured / analytic;
        assert!(
            (0.5..2.0).contains(&ratio),
            "analytic {analytic} us vs measured {measured} us"
        );
    }

    #[test]
    fn fast_path_dominates_when_resident() {
        let fp = run(Machine::EnzianEci, 4);
        assert!(
            fp.fast_path_fraction > 0.95,
            "fast-path fraction {}",
            fp.fast_path_fraction
        );
    }

    #[test]
    fn cxl_is_faster_than_eci() {
        let e = run(Machine::EnzianEci, 5);
        let c = run(Machine::CxlProjected, 5);
        assert!(c.analytic_total < e.analytic_total);
    }
}
