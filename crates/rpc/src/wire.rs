//! Client-side frame construction and the network model.
//!
//! Clients are modelled as remote machines that build *real* request
//! frames (varint-marshalled arguments under the RPC wire header,
//! inside checksummed Eth/IPv4/UDP) and receive real response frames.
//! The wire adds a configurable one-way latency plus serialization at
//! line rate.

use lauberhorn_packet::frame::{write_udp_headers, EndpointAddr, FRAME_OVERHEAD};
use lauberhorn_packet::marshal::VarintCodec;
use lauberhorn_packet::{PktBuf, RpcHeader, RpcKind, RPC_HEADER_LEN};
use lauberhorn_sim::{SimDuration, SimTime};

/// The network between client and server.
#[derive(Debug, Clone, Copy)]
pub struct WireModel {
    /// One-way propagation + switching latency.
    pub one_way: SimDuration,
    /// Link rate in bits per second (serialization delay).
    pub gbps: f64,
}

impl WireModel {
    /// A same-rack 100 Gb/s network (the paper's Enzian testbed class).
    pub fn same_rack_100g() -> Self {
        WireModel {
            one_way: SimDuration::from_ns(350),
            gbps: 100.0,
        }
    }

    /// Time for `bytes` to arrive at the far end.
    pub fn deliver(&self, bytes: usize) -> SimDuration {
        self.one_way + SimDuration::from_ns_f64(bytes as f64 * 8.0 / self.gbps)
    }
}

/// Client-side retransmission policy: exponential backoff with
/// jitter, bounded attempts.
///
/// The retransmit timer for attempt `k` (1-based; attempt 1 is the
/// original transmission) is `timeout * backoff^(k-1)`, jittered by
/// up to `±jitter_frac` of itself from the driver's dedicated
/// `"retry"` RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Initial retransmission timeout.
    pub timeout: SimDuration,
    /// Multiplier applied per retransmission.
    pub backoff: f64,
    /// Uniform jitter as a fraction of the current timeout.
    pub jitter_frac: f64,
    /// Total transmissions allowed (including the first). After the
    /// last timer fires unanswered, the request counts as dropped.
    pub max_attempts: u32,
    /// Wall-clock retry budget measured from the first transmission.
    /// When a retransmit timer fires past this budget the request
    /// terminates as a `Timeout` (counted in
    /// `FaultCounters::timeouts`) instead of spinning at max backoff
    /// until `max_attempts` runs out. `None` keeps the attempt bound
    /// as the only terminator.
    pub budget: Option<SimDuration>,
}

impl RetryPolicy {
    /// A policy sized for the simulated same-rack RTTs (tens of µs):
    /// 200 µs initial RTO, doubling, ±10 % jitter, 4 transmissions.
    pub fn same_rack() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_us(200),
            backoff: 2.0,
            jitter_frac: 0.1,
            max_attempts: 4,
            budget: None,
        }
    }

    /// A "detect only" policy: one transmission, whose timer merely
    /// lets the driver account a lost request as dropped. Used when
    /// faults are enabled but the workload opted out of retries.
    pub fn give_up_after(timeout: SimDuration) -> Self {
        RetryPolicy {
            timeout,
            backoff: 1.0,
            jitter_frac: 0.0,
            max_attempts: 1,
            budget: None,
        }
    }

    /// Whether a retransmit timer firing at `now` for a request first
    /// sent at `sent` has exhausted the retry budget.
    pub fn budget_exhausted(&self, sent: SimTime, now: SimTime) -> bool {
        match self.budget {
            Some(b) => now.since(sent) > b,
            None => false,
        }
    }

    /// The un-jittered retransmission timeout for 1-based `attempt`.
    pub fn rto(&self, attempt: u32) -> SimDuration {
        let scale = self.backoff.powi(attempt.saturating_sub(1) as i32);
        SimDuration::from_ns_f64(self.timeout.as_ns_f64() * scale)
    }
}

/// Builds a request frame for the uniform `\[Bytes\]` benchmark
/// signature. The frame is built exactly once into a [`PktBuf`];
/// every later holder (retransmit buffer, stack event queue, fault
/// duplicates) shares it by reference count.
///
/// The marshalled argument, the RPC header and the Ethernet/IPv4/UDP
/// headers are written straight into one buffer, sized once: the
/// frame and its reference count are the only allocations.
pub fn build_request(
    client: EndpointAddr,
    server: EndpointAddr,
    service_id: u16,
    method_id: u16,
    request_id: u64,
    payload: &[u8],
    cont_hint: u32,
) -> PktBuf {
    // `[Bytes]` marshals to one length-delimited blob in position 0.
    let args_len = VarintCodec::blob_len(0, payload.len());
    let header = RpcHeader {
        kind: RpcKind::Request,
        service_id,
        method_id,
        request_id,
        payload_len: args_len as u32,
        cont_hint,
    };
    let args_at = FRAME_OVERHEAD + RPC_HEADER_LEN;
    let mut frame = Vec::with_capacity(args_at + args_len);
    frame.resize(args_at, 0);
    VarintCodec::put_blob(&mut frame, 0, payload);
    debug_assert_eq!(frame.len(), args_at + args_len);
    // Every step is infallible for a UDP-sized payload; degrade to an
    // empty frame (which the server-side checksum/parse path rejects)
    // rather than panic if one ever fails.
    let built = header
        .write(frame.get_mut(FRAME_OVERHEAD..).unwrap_or_default())
        .and_then(|_| write_udp_headers(client, server, (request_id & 0xffff) as u16, &mut frame));
    match built {
        Ok(()) => PktBuf::from_vec(frame),
        Err(_) => {
            debug_assert!(false, "request frame builds");
            PktBuf::default()
        }
    }
}

/// A pending request's timestamps, for latency accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTimes {
    /// Client issued (frame left the client).
    pub sent: SimTime,
    /// Frame reached the server NIC.
    pub nic_arrival: SimTime,
    /// Dispatch line (or software delivery) reached the handler.
    pub handler_start: SimTime,
    /// Handler finished; response written.
    pub handler_end: SimTime,
    /// Response left the server NIC.
    pub response_tx: SimTime,
}

impl RequestTimes {
    /// Server end-system latency: NIC arrival to response leaving,
    /// minus nothing — the paper's end-system metric includes NIC
    /// processing, dispatch and the handler.
    pub fn end_system(&self) -> SimDuration {
        self.response_tx.since(self.nic_arrival)
    }

    /// Dispatch latency: NIC arrival to handler start (the cost of
    /// steps 1–9 of §2, however they are split).
    pub fn dispatch(&self) -> SimDuration {
        self.handler_start.since(self.nic_arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lauberhorn_packet::parse_udp_frame_ref;

    #[test]
    fn request_builds_and_parses_as_frame() {
        let raw = build_request(
            EndpointAddr::host(1, 100),
            EndpointAddr::host(2, 200),
            7,
            0,
            42,
            b"ping",
            0,
        );
        let frame = parse_udp_frame_ref(&raw).unwrap();
        let (h, _) = RpcHeader::decode_message(frame.payload).unwrap();
        assert_eq!(h.kind, RpcKind::Request);
        assert_eq!(h.service_id, 7);
        assert_eq!(h.request_id, 42);
    }

    #[test]
    fn request_frame_is_byte_identical_to_the_layered_build() {
        use lauberhorn_packet::build_udp_frame;
        use lauberhorn_packet::marshal::{ArgType, Codec, Signature, Value};
        let (client, server) = (EndpointAddr::host(3, 4000), EndpointAddr::host(1, 9000));
        let sig = Signature::of(&[ArgType::Bytes]);
        for len in [0, 1, 64, 4096, 56 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let request_id = 0x1_2345 + len as u64;
            // Marshal, frame the RPC message, then the UDP datagram:
            // the same bytes built layer by layer.
            let args = VarintCodec
                .encode(&sig, &[Value::Bytes(payload.clone())])
                .unwrap();
            let header = RpcHeader {
                kind: RpcKind::Request,
                service_id: 5,
                method_id: 2,
                request_id,
                payload_len: args.len() as u32,
                cont_hint: 9,
            };
            let msg = header.encode_message(&args).unwrap();
            let layered =
                build_udp_frame(client, server, &msg, (request_id & 0xffff) as u16).unwrap();
            let raw = build_request(client, server, 5, 2, request_id, &payload, 9);
            assert_eq!(raw.as_slice(), &layered[..], "{len}-byte payload");
        }
    }

    #[test]
    fn wire_latency_scales_with_size() {
        let w = WireModel::same_rack_100g();
        let small = w.deliver(64);
        let big = w.deliver(64 * 1024);
        assert!(big > small);
        // 64 KiB at 100 Gb/s is ~5.2 µs of serialization.
        assert!(big - small > SimDuration::from_us(5));
        assert!(big - small < SimDuration::from_us(6));
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let p = RetryPolicy::same_rack();
        assert_eq!(p.rto(1), p.timeout);
        assert_eq!(p.rto(2).as_ns_f64(), p.timeout.as_ns_f64() * 2.0);
        assert_eq!(p.rto(3).as_ns_f64(), p.timeout.as_ns_f64() * 4.0);
        let flat = RetryPolicy::give_up_after(SimDuration::from_ms(1));
        assert_eq!(flat.rto(5), SimDuration::from_ms(1));
        assert_eq!(flat.max_attempts, 1);
    }

    #[test]
    fn retry_budget_bounds_total_retry_time() {
        let p = RetryPolicy {
            budget: Some(SimDuration::from_ms(1)),
            ..RetryPolicy::same_rack()
        };
        let sent = SimTime::from_us(100);
        assert!(!p.budget_exhausted(sent, sent + SimDuration::from_us(999)));
        assert!(!p.budget_exhausted(sent, sent + SimDuration::from_ms(1)));
        assert!(p.budget_exhausted(sent, sent + SimDuration::from_us(1001)));
        // No budget: never exhausted, however long it spins.
        let free = RetryPolicy::same_rack();
        assert!(!free.budget_exhausted(sent, sent + SimDuration::from_secs(1)));
    }

    #[test]
    fn latency_accessors() {
        let t = RequestTimes {
            sent: SimTime::from_us(0),
            nic_arrival: SimTime::from_us(1),
            handler_start: SimTime::from_us(2),
            handler_end: SimTime::from_us(3),
            response_tx: SimTime::from_us(4),
        };
        assert_eq!(t.end_system(), SimDuration::from_us(3));
        assert_eq!(t.dispatch(), SimDuration::from_us(1));
    }
}
