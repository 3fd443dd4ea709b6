//! Calibration summary: every latency and cost constant, with sources.
//!
//! The reproduction's credibility rests on these numbers, so they are
//! gathered here in queryable form (and unit-tested for consistency
//! with the values actually used by the models). Constants favour the
//! *baselines* wherever a published range exists: if Lauberhorn wins
//! under these numbers, it is not because the competition was slowed
//! down.
//!
//! | Quantity | Value | Source |
//! |----------|-------|--------|
//! | ECI request one-way | 300 ns | Ruzhanskaia et al. (arXiv:2409.08141): ~1 µs 64 B PIO RTT split over two crossings per line |
//! | ECI data one-way | 400 ns | same |
//! | CXL 3.0 fill crossing | 130/170 ns | vendor CXL.mem load latencies (~300 ns adder) |
//! | Enzian FPGA PCIe MMIO read RTT | 1.2 µs | FPGA PCIe endpoint measurements |
//! | Modern NIC PCIe DMA read RTT | 600 ns | ASIC NIC measurements (eRPC, CC-NIC) |
//! | MSI-X delivery | 900 ns | interrupt-latency studies |
//! | IRQ entry + softirq dispatch | ~1400 cycles | IX \[3\], Demikernel \[24\] breakdowns |
//! | Kernel per-packet UDP processing | 1500–1900 cycles | same |
//! | Context switch (direct+indirect) | ~3000 cycles | FlexSC / Shinjuku \[12\] |
//! | Busy-poll iteration | 90 cycles | DPDK rx_burst idle cost |
//! | TRYAGAIN window | 15 ms | the paper, §5.1 |
//! | DMA fallback threshold (Enzian) | ~4 KiB | the paper, §6 |

use lauberhorn_coherence::FabricModel;
use lauberhorn_nic::endpoint::TRYAGAIN_TIMEOUT;
use lauberhorn_nic::large::LargeTransferModel;
use lauberhorn_os::CostModel;
use lauberhorn_pcie::PcieLink;
use lauberhorn_sim::SimDuration;

/// One calibrated machine, summarised.
#[derive(Debug, Clone)]
pub struct MachineSummary {
    /// Human name.
    pub name: &'static str,
    /// CPU clock in GHz.
    pub freq_ghz: f64,
    /// Cache-line size in bytes.
    pub line_size: usize,
    /// Coherent-fabric fill round trip (request + data).
    pub coherent_fill_rtt: SimDuration,
    /// PCIe MMIO read round trip.
    pub mmio_read_rtt: SimDuration,
    /// PCIe DMA read round trip.
    pub dma_read_rtt: SimDuration,
    /// Large-message crossover (cache-line vs DMA), bytes.
    pub dma_crossover: usize,
}

/// The Enzian research computer as the paper uses it.
pub fn enzian() -> MachineSummary {
    let fabric = FabricModel::eci();
    let link = PcieLink::enzian_fpga();
    MachineSummary {
        name: "Enzian (ThunderX-1 + FPGA over ECI)",
        freq_ghz: CostModel::enzian().freq_ghz,
        line_size: fabric.line_size,
        coherent_fill_rtt: fabric.fill_rtt(),
        mmio_read_rtt: link.mmio_read_rtt,
        dma_read_rtt: link.dma_read_rtt,
        dma_crossover: LargeTransferModel::enzian().crossover_bytes(),
    }
}

/// A modern PC server with a projected CXL 3.0 NIC.
pub fn cxl_server() -> MachineSummary {
    let fabric = FabricModel::cxl3();
    let link = PcieLink::modern_server();
    MachineSummary {
        name: "PC server (x86 + CXL 3.0 NIC, projected)",
        freq_ghz: CostModel::linux_server().freq_ghz,
        line_size: fabric.line_size,
        coherent_fill_rtt: fabric.fill_rtt(),
        mmio_read_rtt: link.mmio_read_rtt,
        dma_read_rtt: link.dma_read_rtt,
        dma_crossover: LargeTransferModel::cxl_server().crossover_bytes(),
    }
}

/// The paper's TRYAGAIN window.
pub fn tryagain_timeout() -> SimDuration {
    TRYAGAIN_TIMEOUT
}

/// Renders the calibration table (used by the README generator and the
/// `F2` experiment header).
pub fn calibration_table() -> String {
    let mut out = String::from(
        "machine                                   GHz  line  coh-fill   mmio-rd    dma-rd     xover\n",
    );
    for m in [enzian(), cxl_server()] {
        out.push_str(&format!(
            "{:<41} {:<4} {:<5} {:<10} {:<10} {:<10} {} B\n",
            m.name,
            m.freq_ghz,
            m.line_size,
            format!("{}", m.coherent_fill_rtt),
            format!("{}", m.mmio_read_rtt),
            format!("{}", m.dma_read_rtt),
            m.dma_crossover,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eci_rtt_is_within_published_band() {
        let m = enzian();
        assert!(m.coherent_fill_rtt >= SimDuration::from_ns(500));
        assert!(m.coherent_fill_rtt <= SimDuration::from_ns(1000));
        assert_eq!(m.line_size, 128);
        assert_eq!(m.freq_ghz, 2.0);
    }

    #[test]
    fn coherent_beats_mmio_everywhere() {
        // §3's "misconception that fine-grained interaction ... is
        // slow": the coherent fill must beat an MMIO read round trip.
        for m in [enzian(), cxl_server()] {
            assert!(
                m.coherent_fill_rtt < m.mmio_read_rtt,
                "{}: fill {} !< mmio {}",
                m.name,
                m.coherent_fill_rtt,
                m.mmio_read_rtt
            );
        }
    }

    #[test]
    fn enzian_crossover_near_4k() {
        let x = enzian().dma_crossover;
        assert!((2048..=8192).contains(&x), "{x}");
    }

    #[test]
    fn tryagain_is_15ms() {
        assert_eq!(tryagain_timeout(), SimDuration::from_ms(15));
    }

    #[test]
    fn table_renders_both_machines() {
        let t = calibration_table();
        assert!(t.contains("Enzian"));
        assert!(t.contains("CXL"));
    }
}
