//! The device side the kernel and bypass stacks share: one traditional
//! DMA NIC (Figure 1), its descriptor rings and buffer arena, the
//! response transmit path, and the services behind it. When and on
//! which core software touches the device (NAPI and interrupts, or
//! polling cores) stays in [`crate::sim_kernel`] and [`crate::sim_bypass`].

use lauberhorn_nic_dma::nic::{RxDelivery, RxDrop};
use lauberhorn_nic_dma::ring::{RxDescriptor, TxDescriptor};
use lauberhorn_nic_dma::{DmaNic, DmaNicConfig};
use lauberhorn_packet::frame::{EndpointAddr, FRAME_OVERHEAD};
use lauberhorn_packet::rpcwire::RPC_HEADER_LEN;
use lauberhorn_sim::{SimDuration, SimTime, Stage};

use crate::spec::{spec_of, ServiceSpec};
use crate::stack::{Machine, StackCommon, BASE_PORT, NIC_TRACK};

/// IOVA (identity-mapped) of the packet-buffer arena.
const ARENA: u64 = 0x100_0000;
/// Bytes of one packet buffer.
const BUF_LEN: u64 = 16384;
/// RX descriptors posted per queue.
const RX_BUFS_PER_QUEUE: u64 = 128;
/// TX buffers the response path cycles through.
const TX_BUFS: u64 = 1024;

/// A DMA NIC, its rings and buffers, and the services behind it.
pub(crate) struct DmaHost {
    /// The device.
    pub(crate) nic: DmaNic,
    /// The services behind it.
    pub(crate) services: Vec<ServiceSpec>,
    /// The TX buffer the last response used.
    next_buf: u64,
}

impl DmaHost {
    /// Builds `machine`'s DMA NIC with `queues` RX queues, maps the
    /// buffer arena in the IOMMU and posts a full ring of buffers on
    /// every queue. Interrupt holdoff is zero: NAPI masking or polling
    /// governs interrupt moderation.
    pub(crate) fn new(machine: Machine, queues: u32, services: Vec<ServiceSpec>) -> Self {
        let base = match machine {
            Machine::EnzianPcie => DmaNicConfig::enzian_fpga(queues),
            _ => DmaNicConfig::modern_server(queues),
        };
        let mut nic = DmaNic::new(DmaNicConfig {
            interrupt_holdoff: SimDuration::ZERO,
            ..base
        });
        nic.iommu_mut().map(ARENA, ARENA, 256 << 20, true);
        for qi in 0..queues {
            for b in 0..RX_BUFS_PER_QUEUE {
                nic.post_rx(
                    qi,
                    RxDescriptor {
                        buf_iova: ARENA + (qi as u64 * RX_BUFS_PER_QUEUE + b) * BUF_LEN,
                        buf_len: BUF_LEN as u32,
                    },
                )
                // lint:allow(panic-path): construction-time ring setup
                .expect("fresh ring has room");
            }
        }
        DmaHost {
            nic,
            services,
            next_buf: 0,
        }
    }

    /// Takes the NIC's verdict `rx` on `request_id`'s frame. A
    /// delivered frame's buffer goes straight back on its ring (drivers
    /// refill as they poll; the copy out has finished by then). A frame
    /// with no free descriptor drops the request.
    pub(crate) fn delivered(
        &mut self,
        common: &mut StackCommon,
        rx: Result<RxDelivery, RxDrop>,
        request_id: u64,
        now: SimTime,
    ) -> Option<RxDelivery> {
        match rx {
            Ok(delivery) => {
                if self.nic.post_rx(delivery.queue, delivery.desc).is_err() {
                    debug_assert!(false, "slot was just freed");
                }
                Some(delivery)
            }
            Err(e) => {
                debug_assert!(matches!(e, RxDrop::NoDescriptor { .. }), "rx failed: {e:?}");
                common.drop_request(request_id, now);
                None
            }
        }
    }

    /// Where clients address `service`: its own UDP port on host 1.
    pub(crate) fn server_addr(&self, service: u16) -> EndpointAddr {
        EndpointAddr::host(1, BASE_PORT + service)
    }

    /// Transmits `request_id`'s response. The handler on `core` ended
    /// at `handler_end`; the stack's own `send` path (stage, start, end
    /// on `core`) follows, and the TX doorbell rings when it ends — at
    /// `handler_end` if it is empty. Records the handler, then the
    /// `send` spans, then the NIC's `Response` span, and puts the frame
    /// on the wire.
    pub(crate) fn respond(
        &mut self,
        common: &mut StackCommon,
        core: usize,
        request_id: u64,
        service: u16,
        handler_end: SimTime,
        send: &[(Stage, SimTime, SimTime)],
    ) {
        let rung_at = send.last().map_or(handler_end, |&(_, _, end)| end);
        let frame_len =
            FRAME_OVERHEAD + RPC_HEADER_LEN + spec_of(&self.services, service).response_bytes;
        self.next_buf = (self.next_buf + 1) % TX_BUFS;
        let doorbell = rung_at + self.nic.doorbell_cost();
        let desc = TxDescriptor {
            buf_iova: ARENA + self.next_buf * BUF_LEN,
            len: frame_len as u32,
        };
        let tx_done = match self.nic.tx_packet(doorbell, desc) {
            Ok(t) => t,
            Err(e) => {
                // TX ring exhaustion is not modelled as backpressure:
                // send at the doorbell time and flag the model bug.
                debug_assert!(false, "tx failed: {e:?}");
                doorbell
            }
        };
        common.handler_done(request_id, core, handler_end);
        if let Some(r) = common.request_mut(request_id) {
            r.times.response_tx = tx_done;
        }
        if common.tracer.is_enabled() {
            let root = common.root_span(request_id);
            let (rid, lane) = (Some(request_id), core as u32);
            let tr = &mut common.tracer;
            for &(stage, start, end) in send {
                tr.span(stage, rid, root, lane, start, end);
            }
            tr.span(Stage::Response, rid, root, NIC_TRACK, rung_at, tx_done);
        }
        let arrive = tx_done + common.wire.deliver(frame_len);
        common.complete(arrive, request_id);
    }

    /// Exports the NIC's counters into the run's metrics and returns
    /// the descriptor-ring bus transactions: about 4 per received frame
    /// (descriptor fetch, payload write, completion write, refill) and
    /// 3 per transmitted one.
    pub(crate) fn finish(&self, common: &mut StackCommon) -> u64 {
        let stats = self.nic.stats();
        stats.export(&mut common.metrics.registry);
        stats.rx_delivered * 4 + stats.tx_frames * 3
    }
}
