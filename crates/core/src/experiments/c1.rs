//! Claim C1 (§6): the cache-line vs DMA crossover at ~4 KiB on Enzian.
//!
//! "For large messages, the direct, low-latency approach becomes less
//! efficient and it is best to revert back to DMA-based transfers ...
//! empirically for Enzian this happens at about 4 KiB."
//!
//! The sweep reports both paths' transfer times across message sizes
//! and locates the crossover; an end-to-end cross-check runs oversized
//! requests through the full simulation and verifies they divert
//! through the DMA fallback.

use lauberhorn_nic::large::{LargeTransferModel, TransferPath};
use lauberhorn_rpc::sim_lauberhorn::{LauberhornSim, LauberhornSimConfig};
use lauberhorn_rpc::{ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::SimDuration;
use lauberhorn_workload::SizeDist;

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    /// Message size in bytes.
    pub bytes: usize,
    /// Cache-line path latency.
    pub cacheline: SimDuration,
    /// DMA path latency.
    pub dma: SimDuration,
    /// Which path wins.
    pub winner: TransferPath,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Platform name.
    pub platform: &'static str,
    /// Sweep rows.
    pub rows: Vec<Row>,
    /// First size at which DMA wins.
    pub crossover_bytes: usize,
}

/// Runs the sweep on both platforms.
pub fn run() -> Vec<Crossover> {
    let sizes: Vec<usize> = (7..=16).map(|p| 1usize << p).collect(); // 128 B … 64 KiB.
    [
        (
            "enzian (ECI vs FPGA PCIe DMA)",
            LargeTransferModel::enzian(),
        ),
        (
            "cxl-server (CXL vs Gen4 DMA)",
            LargeTransferModel::cxl_server(),
        ),
    ]
    .into_iter()
    .map(|(platform, m)| Crossover {
        platform,
        rows: sizes
            .iter()
            .map(|&bytes| Row {
                bytes,
                cacheline: m.cacheline_time(bytes),
                dma: m.dma_time(bytes),
                winner: m.best(bytes).0,
            })
            .collect(),
        crossover_bytes: m.crossover_bytes(),
    })
    .collect()
}

/// End-to-end cross-check: payloads beyond the threshold take the DMA
/// fallback in the full simulation. Returns `(dma_fallbacks, requests)`.
pub fn end_to_end_check(seed: u64) -> (u64, u64) {
    let mut sim = LauberhornSim::new(
        LauberhornSimConfig::enzian(2),
        ServiceSpec::uniform(1, 1000, 32),
    );
    let threshold = lauberhorn_nic::large::LargeTransferModel::enzian().crossover_bytes();
    let wl = WorkloadSpec {
        request_bytes: SizeDist::Fixed {
            bytes: threshold + 2048,
        },
        ..WorkloadSpec::echo_closed(64, 5, seed)
    };
    sim.run(&wl);
    let s = sim.nic().stats();
    (s.dma_fallbacks, s.rx_requests)
}

/// Renders the sweep.
pub fn render(sweeps: &[Crossover]) -> String {
    let mut out = String::from("C1 — cache-line streaming vs DMA crossover (§6)\n");
    for c in sweeps {
        out.push_str(&format!(
            "\n== {}   crossover at {} B (paper: ~4 KiB on Enzian)\n",
            c.platform, c.crossover_bytes
        ));
        out.push_str(&format!(
            "{:>9} {:>12} {:>12}  winner\n",
            "bytes", "cache-line", "dma"
        ));
        for r in &c.rows {
            out.push_str(&format!(
                "{:>9} {:>12} {:>12}  {}\n",
                r.bytes,
                format!("{}", r.cacheline),
                format!("{}", r.dma),
                match r.winner {
                    TransferPath::CacheLine => "cache-line",
                    TransferPath::Dma => "DMA",
                }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enzian_crossover_matches_paper() {
        let sweeps = run();
        let enzian = &sweeps[0];
        assert!(
            (2048..=8192).contains(&enzian.crossover_bytes),
            "crossover {} B",
            enzian.crossover_bytes
        );
        // Small sizes prefer cache lines, large prefer DMA, with one
        // switch point (monotone winner function).
        let mut switched = 0;
        for w in enzian.rows.windows(2) {
            if w[0].winner != w[1].winner {
                switched += 1;
            }
        }
        assert_eq!(switched, 1, "exactly one crossover in the sweep");
    }

    #[test]
    fn oversized_requests_divert_through_dma() {
        let (fallbacks, requests) = end_to_end_check(3);
        assert!(requests > 100);
        assert_eq!(fallbacks, requests, "every oversized request diverted");
    }
}
