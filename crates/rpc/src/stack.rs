//! The [`ServerStack`] abstraction: one interface over all three
//! whole-machine simulations, plus the centralized machine catalogue.
//!
//! Before this module existed each `sim_*.rs` carried its own copy of
//! the client model, the open/closed-loop generator, warmup handling
//! and metrics finalisation. Now a stack only implements the
//! *server-side mechanics* (what happens to a frame once it reaches
//! the NIC) and the generic driver in [`crate::driver`] does the rest,
//! so every stack is measured by exactly the same harness over exactly
//! the same request byte stream.

use std::collections::BTreeMap;

use lauberhorn_os::CostModel;
use lauberhorn_packet::frame::{EndpointAddr, UdpFrameRef};
use lauberhorn_packet::PktBuf;
use lauberhorn_sim::energy::CycleAccount;
use lauberhorn_sim::fault::{FaultDecision, FaultInjector};
use lauberhorn_sim::flightrec::FlightRecorder;
use lauberhorn_sim::{
    critical_paths, BlameProfile, EventQueue, Histogram, SimDuration, SimRng, SimTime, SpanId,
    SpanTracer, Stage,
};

use crate::driver::ClientEv;
use crate::report::{MetricsCollector, Report};
use crate::spec::{LoadMode, ServiceSpec, WorkloadSpec};
use crate::wire::{RequestTimes, WireModel};

/// Nominal on-wire size of a replayed response frame (Eth/IPv4/UDP
/// around a small RPC response); only used when the dedup window
/// answers a duplicate from its cache, so it never affects clean runs.
const REPLAY_FRAME_BYTES: usize = 110;

/// Nominal on-wire size of a pushback NACK (a minimum Ethernet frame
/// carrying the request id and the one-byte load hint). Only sent when
/// the workload armed overload control with pushback.
const NACK_FRAME_BYTES: usize = 64;

/// Server-side dedup state for one request id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DedupEntry {
    /// Accepted for execution; the response has not yet left.
    InFlight,
    /// Executed and answered; duplicates replay the cached response.
    Done,
}

/// What the server should do with an arriving request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxGate {
    /// First sighting: execute it.
    Execute,
    /// Duplicate (suppressed or replayed from cache): do not execute.
    Duplicate,
}

/// Base UDP port: in the DMA stacks, service `s` listens on
/// `BASE_PORT + s`.
pub const BASE_PORT: u16 = 10_000;

/// Display track (Chrome-trace `tid`) of the NIC lane in span traces;
/// cores use their index directly (0, 1, …).
pub const NIC_TRACK: u32 = 900;

/// Root (`Stage::Request`) spans cycle over this many display lanes
/// starting at [`ROOT_TRACK_BASE`], so overlapping requests stay
/// readable in a timeline viewer.
pub const ROOT_TRACKS: u64 = 8;
/// First display lane used for root spans.
pub const ROOT_TRACK_BASE: u32 = 1000;

/// Every concrete machine an experiment can run on, in one place.
///
/// The paper compares the same software architectures across hardware
/// substrates; centralizing the catalogue keeps "which machine is
/// this?" decisions out of the individual simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// Enzian with the Lauberhorn NIC on the ECI coherent fabric
    /// (2 GHz ARMv8, 128 B lines) — the paper's prototype.
    EnzianEci,
    /// Enzian's FPGA exposed as a conventional PCIe DMA NIC.
    EnzianPcie,
    /// A modern x86 PC server with a Gen4 PCIe DMA NIC.
    PcPcie,
    /// A projected CXL 3.0 x86 server carrying the Lauberhorn NIC.
    CxlProjected,
    /// A NUMA-emulated coherent NIC (the CC-NIC configuration \[22\]):
    /// a second socket's home agent stands in for the device, over the
    /// processor interconnect. No special hardware required.
    NumaEmulated,
}

impl Machine {
    /// The OS/software cost model for this machine's cores.
    pub fn cost_model(self) -> CostModel {
        match self {
            Machine::EnzianEci | Machine::EnzianPcie => CostModel::enzian(),
            Machine::PcPcie | Machine::CxlProjected | Machine::NumaEmulated => {
                CostModel::linux_server()
            }
        }
    }

    /// Short machine label used in stack names.
    pub fn label(self) -> &'static str {
        match self {
            Machine::EnzianEci => "enzian-eci",
            Machine::EnzianPcie => "enzian-pcie-dma",
            Machine::PcPcie => "pc-pcie-dma",
            Machine::CxlProjected => "cxl-server",
            Machine::NumaEmulated => "numa-emulated",
        }
    }

    /// Whether the machine exposes a coherent (Lauberhorn-capable)
    /// fabric, as opposed to a plain PCIe DMA path.
    pub fn is_coherent(self) -> bool {
        matches!(
            self,
            Machine::EnzianEci | Machine::CxlProjected | Machine::NumaEmulated
        )
    }
}

/// The machine-level configuration every stack shares: which hardware,
/// how many cores, and what network sits in front of it.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// The hardware substrate.
    pub machine: Machine,
    /// Cores available for RPC serving.
    pub cores: usize,
    /// Client↔server network model.
    pub wire: WireModel,
}

impl MachineConfig {
    /// A machine with the default same-rack 100 Gb/s network.
    pub fn new(machine: Machine, cores: usize) -> Self {
        MachineConfig {
            machine,
            cores,
            wire: WireModel::same_rack_100g(),
        }
    }
}

/// Why a request's record left [`StackCommon`]: the argument of
/// [`StackCommon::retire`], the one exit every request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The first response reached the client.
    Completed,
    /// A stack dropped it and no retry timer takes over. Nothing tells
    /// the client, so a closed-loop client stays parked on it.
    Dropped,
    /// The retry policy's attempt bound ran out.
    RetriesExhausted,
    /// The retry policy's wall-clock budget ran out, or a retransmit
    /// would have landed past the workload's shedding deadline.
    Timeout,
    /// A pushback NACK reached the client.
    Pushback,
}

/// Everything the simulator tracks about one in-flight request, from
/// generation ([`StackCommon::issue`]) to its single exit
/// ([`StackCommon::retire`]).
#[derive(Debug)]
pub(crate) struct RequestState {
    /// Timestamps for latency accounting.
    pub(crate) times: RequestTimes,
    /// Target service (tenants are services).
    service: u16,
    /// The closed-loop client that issued it.
    client: usize,
    /// The exact frame, kept for retransmission while a retry policy
    /// is in force. Shared by reference with every in-flight copy.
    pub(crate) retransmit: Option<PktBuf>,
    /// Stack software overhead cycles attributed so far.
    sw_cycles: u64,
    /// Root (`Stage::Request`) span, set when the frame first reaches
    /// the NIC with tracing on ([`SpanId::NONE`] past the span cap) and
    /// taken when the tree settles.
    root: Option<SpanId>,
    /// Open wait-class span (recovery / retry-wait / shed-backoff), so
    /// the critical path shows *why* the request stalled.
    wait: SpanId,
    /// When the last wait-class stall resolved (zero: none did). Spans
    /// that backdate to NIC arrival (e.g. CONTROL fill) clamp to this,
    /// so stalled time stays attributed to the wait, not the fill.
    wait_resolved: SimTime,
    /// Response bytes a real handler produced (Lauberhorn stack), held
    /// from dispatch until the NIC collects the response.
    pub(crate) resp_payload: Option<Vec<u8>>,
}

impl RequestState {
    /// Closes the open wait span (the stall resolved at `now`).
    fn end_wait(&mut self, tracer: &mut SpanTracer, now: SimTime) {
        if self.wait.is_some() {
            tracer.end(self.wait, now);
            self.wait = SpanId::NONE;
            self.wait_resolved = self.wait_resolved.max(now);
        }
    }

    /// Closes the root span at `at` and hands the finished tree to the
    /// flight recorder (retain-or-recycle), if one is armed. No-op when
    /// the request has no root or its tree already settled.
    fn settle(
        &mut self,
        request_id: u64,
        at: SimTime,
        tracer: &mut SpanTracer,
        flightrec: Option<&mut FlightRecorder>,
    ) {
        let Some(root) = self.root.take() else {
            return;
        };
        self.end_wait(tracer, at);
        tracer.end(root, at);
        if let Some(rec) = flightrec {
            let latency_ps = at.since(self.times.nic_arrival).as_ps();
            rec.offer(request_id, self.service, latency_ps, at, tracer);
        }
    }
}

/// One tenant's SLO ledger (tenants are services, DESIGN.md §17).
#[derive(Debug, Default)]
pub(crate) struct TenantLedger {
    pub(crate) offered: u64,
    pub(crate) completed: u64,
    /// RTTs of warmed completions.
    pub(crate) rtt: Histogram,
}

/// Driver-visible state every stack owns: metrics, the per-request
/// records, the server-side RNG, and the client-side event queue the
/// generic driver drains.
///
/// Stacks mutate this directly from their event handlers (noting
/// arrival times, charging software cycles, completing or dropping
/// requests); the driver owns generation, warmup and finalisation.
pub struct StackCommon {
    /// Network model between client and server.
    pub wire: WireModel,
    /// Server-side randomness (handler service times). The *client*
    /// stream lives in the driver so that every stack sees an
    /// identical request byte stream for a given seed.
    pub rng: SimRng,
    /// Accumulating run metrics.
    pub metrics: MetricsCollector,
    /// One record per in-flight request, keyed by request id.
    requests: BTreeMap<u64, RequestState>,
    /// Load generation stops here.
    pub end_of_load: SimTime,
    /// Absolute simulation cutoff (`end_of_load` + drain window).
    pub hard_end: SimTime,
    /// Client-side events (generation ticks, response arrivals),
    /// interleaved with the stack's own queue by the driver.
    pub(crate) client_q: EventQueue<ClientEv>,
    /// Completions before measurement starts.
    warmup: u64,
    /// Closed-loop think time; `None` for open-loop load.
    think: Option<SimDuration>,
    /// Per-tenant SLO ledgers, present when the workload carries a
    /// tenancy plan.
    pub(crate) tenants: Option<BTreeMap<u16, TenantLedger>>,
    /// Whether a retransmission policy is in force. When true, stack
    /// drops hand the request back to the client's retry timer instead
    /// of terminating it.
    retry_active: bool,
    /// Whether overload sheds answer the client with a NACK carrying a
    /// load hint (armed by the workload's `OverloadConfig::pushback`).
    pushback: bool,
    /// At-most-once dedup window, present when duplicates are possible
    /// (faults or retry enabled). `None` on clean runs: zero cost. It
    /// outlives the request records on purpose: a duplicate can arrive
    /// after its original was answered.
    dedup: Option<BTreeMap<u64, DedupEntry>>,
    /// Server→client response fault injector (`"fault.wire.rx"`).
    rx_fault: Option<FaultInjector>,
    /// Coherence fill-response fault injector (`"fault.fill"`), applied
    /// by the Lauberhorn stack to NIC→core fill deliveries.
    pub(crate) fill_fault: Option<FaultInjector>,
    /// Span tracer (inert unless the workload's [`ObserveSpec`] enables
    /// it). Spans never touch the event queue, the RNG, or simulated
    /// time, so enabling them cannot perturb a run.
    ///
    /// [`ObserveSpec`]: lauberhorn_sim::ObserveSpec
    pub tracer: SpanTracer,
    /// `(request id, service)` for every root span the full-trace
    /// tracer recorded — at most `span_cap` entries — so the blame
    /// profile gets its per-service dimension. With the flight recorder
    /// armed the retained trees carry their service instead.
    traced_services: Vec<(u64, u16)>,
    /// Outlier flight recorder, armed by `ObserveSpec::flightrec`.
    /// Analysis-side only: consumes completed span trees.
    pub flightrec: Option<FlightRecorder>,
}

impl StackCommon {
    /// Fresh driver state for a stack fronted by `wire`.
    pub fn new(wire: WireModel) -> Self {
        StackCommon {
            wire,
            rng: SimRng::root(0),
            metrics: MetricsCollector::default(),
            requests: BTreeMap::new(),
            end_of_load: SimTime::ZERO,
            hard_end: SimTime::ZERO,
            client_q: EventQueue::new(),
            warmup: 0,
            think: None,
            tenants: None,
            retry_active: false,
            pushback: false,
            dedup: None,
            rx_fault: None,
            fill_fault: None,
            tracer: SpanTracer::default(),
            traced_services: Vec::new(),
            flightrec: None,
        }
    }

    /// Resets per-run state. Called by the driver before `prepare`.
    pub fn begin(&mut self, workload: &WorkloadSpec) {
        self.rng = SimRng::stream(workload.seed, "server");
        self.metrics = MetricsCollector::default();
        self.requests.clear();
        self.end_of_load = SimTime::ZERO + workload.duration;
        self.hard_end = self.end_of_load + SimDuration::from_ms(20);
        self.client_q = EventQueue::new();
        self.warmup = workload.warmup;
        self.think = match &workload.mode {
            LoadMode::Closed { think, .. } => Some(*think),
            LoadMode::Open { .. } => None,
        };
        self.tenants = workload
            .overload
            .as_ref()
            .is_some_and(|o| o.tenancy.is_some())
            .then(BTreeMap::new);
        self.retry_active = workload.effective_retry().is_some();
        self.pushback = workload.overload.as_ref().is_some_and(|o| o.pushback);
        self.dedup = (self.retry_active || workload.faults.enabled()).then(BTreeMap::new);
        self.rx_fault =
            workload.faults.wire_rx.enabled().then(|| {
                FaultInjector::new(workload.faults.wire_rx, workload.seed, "fault.wire.rx")
            });
        self.fill_fault = workload
            .faults
            .fill
            .enabled()
            .then(|| FaultInjector::new(workload.faults.fill, workload.seed, "fault.fill"));
        self.tracer.configure(&workload.observe);
        self.traced_services.clear();
        self.flightrec = (workload.observe.spans && workload.observe.flightrec)
            .then(|| FlightRecorder::new(workload.observe.flight_cap));
    }

    /// Opens the record of a freshly generated request, sent at `now`
    /// by closed-loop `client` to `service`. `retransmit` holds the
    /// frame while a retry policy is in force.
    pub(crate) fn issue(
        &mut self,
        request_id: u64,
        now: SimTime,
        client: usize,
        service: u16,
        retransmit: Option<PktBuf>,
    ) {
        self.metrics.offered += 1;
        if let Some(ledgers) = self.tenants.as_mut() {
            ledgers.entry(service).or_default().offered += 1;
        }
        self.requests.insert(
            request_id,
            RequestState {
                times: RequestTimes {
                    sent: now,
                    ..Default::default()
                },
                service,
                client,
                retransmit,
                sw_cycles: 0,
                root: None,
                wait: SpanId::NONE,
                wait_resolved: SimTime::ZERO,
                resp_payload: None,
            },
        );
    }

    /// The record of in-flight `request_id`; `None` once it retired.
    pub(crate) fn request(&self, request_id: u64) -> Option<&RequestState> {
        self.requests.get(&request_id)
    }

    /// Mutable access to in-flight `request_id`'s record.
    pub(crate) fn request_mut(&mut self, request_id: u64) -> Option<&mut RequestState> {
        self.requests.get_mut(&request_id)
    }

    /// Requests generated and not yet retired.
    pub fn live_requests(&self) -> usize {
        self.requests.len()
    }

    /// How many requests' services the blame profile can attribute:
    /// retained trees with the flight recorder armed, recorded root
    /// spans otherwise. Bounded by `flight_cap` or `span_cap`.
    pub fn attributed_requests(&self) -> usize {
        match self.flightrec.as_ref() {
            Some(rec) => rec.trees().count(),
            None => self.traced_services.len(),
        }
    }

    /// The receive prologue every stack runs on a request frame that
    /// reached the server NIC at `now`. It records the arrival (under
    /// retransmission only the first counts, so a duplicate arriving
    /// mid-execution cannot corrupt the latency accounting), then checks
    /// the real IPv4/UDP checksums, which catch in-flight corruption
    /// where a NIC or its driver would discard the frame. Returns the
    /// parsed frame, or `None` after rejecting a corrupt one.
    pub(crate) fn receive<'a>(
        &mut self,
        raw: &'a [u8],
        request_id: u64,
        now: SimTime,
    ) -> Option<UdpFrameRef<'a>> {
        let first = self.requests.get_mut(&request_id);
        if let Some(rec) = first.filter(|r| r.times.nic_arrival == SimTime::ZERO) {
            rec.times.nic_arrival = now;
            if self.tracer.is_enabled() {
                let id = self.tracer.begin(
                    now,
                    Stage::Request,
                    Some(request_id),
                    SpanId::NONE,
                    ROOT_TRACK_BASE + (request_id % ROOT_TRACKS) as u32,
                );
                rec.root = Some(id);
                if id.is_some() && self.flightrec.is_none() {
                    self.traced_services.push((request_id, rec.service));
                }
            }
        }
        let frame = lauberhorn_packet::parse_udp_frame_ref(raw).ok();
        if frame.is_none() {
            self.reject_corrupt(request_id, now);
        }
        frame
    }

    /// The open root span for `request_id` ([`SpanId::NONE`] when
    /// tracing is off or the request has no root) — the parent for
    /// every stage span a stack records about this request.
    pub fn root_span(&self, request_id: u64) -> SpanId {
        self.request(request_id)
            .and_then(|r| r.root)
            .unwrap_or(SpanId::NONE)
    }

    /// `request_id` waited in a software queue from `from` until a
    /// core picked it up at `to`: a `Queue` span on `core` (none when
    /// it never waited). Queueing, not service — blame tables split on
    /// it.
    pub(crate) fn queue_span(&mut self, request_id: u64, core: usize, from: SimTime, to: SimTime) {
        if self.tracer.is_enabled() && to > from {
            let root = self.root_span(request_id);
            self.tracer
                .span(Stage::Queue, Some(request_id), root, core as u32, from, to);
        }
    }

    /// The software receive path of `request_id` ran on `core` from
    /// `start` until its handler started at `handler_start`. Records
    /// the handler start and, with tracing on, one span per `(stage,
    /// cycles)` part of the path, then `Unmarshal` for the rest. The
    /// stack charged the path as one `cost` sum; each span clamps to
    /// `handler_start`, so per-term rounding never overruns it.
    pub(crate) fn software_rx(
        &mut self,
        request_id: u64,
        core: usize,
        cost: &CostModel,
        start: SimTime,
        handler_start: SimTime,
        parts: &[(Stage, u64)],
    ) {
        if let Some(r) = self.request_mut(request_id) {
            r.times.handler_start = handler_start;
        }
        if !self.tracer.is_enabled() {
            return;
        }
        let root = self.root_span(request_id);
        let (rid, lane) = (Some(request_id), core as u32);
        let mut t = start;
        for &(stage, cycles) in parts {
            let end = (t + cost.cycles(cycles)).min(handler_start);
            self.tracer.span(stage, rid, root, lane, t, end);
            t = end;
        }
        self.tracer
            .span(Stage::Unmarshal, rid, root, lane, t, handler_start);
    }

    /// `request_id`'s handler on `core` returned at `now`: records the
    /// handler end and the `Handler` span since the handler start.
    pub(crate) fn handler_done(&mut self, request_id: u64, core: usize, now: SimTime) {
        let start = match self.requests.get_mut(&request_id) {
            Some(r) => {
                r.times.handler_end = now;
                r.times.handler_start
            }
            None => now,
        };
        if self.tracer.is_enabled() {
            let (root, lane) = (self.root_span(request_id), core as u32);
            self.tracer
                .span(Stage::Handler, Some(request_id), root, lane, start, now);
        }
    }

    /// Attributes `cycles` of stack software overhead to `request_id`.
    pub fn charge_req(&mut self, request_id: u64, cycles: u64) {
        if let Some(rec) = self.requests.get_mut(&request_id) {
            rec.sw_cycles += cycles;
        }
    }

    /// Opens a wait-class span (recovery, retry-wait, shed-backoff)
    /// under `request_id`'s root. No-op when tracing is off, the
    /// request has no root yet, or a wait span is already open — the
    /// first cause of a stall wins.
    pub fn begin_wait(&mut self, request_id: u64, stage: Stage, now: SimTime) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some(rec) = self.requests.get_mut(&request_id) else {
            return;
        };
        let root = rec.root.unwrap_or(SpanId::NONE);
        if rec.wait.is_some() || !root.is_some() {
            return;
        }
        rec.wait = self.tracer.begin(
            now,
            stage,
            Some(request_id),
            root,
            ROOT_TRACK_BASE + (request_id % ROOT_TRACKS) as u32,
        );
    }

    /// The earliest honest start for a stage span that backdates to a
    /// request's NIC arrival (e.g. the CONTROL-line fill): a stall
    /// that resolved later pushes the start forward — the device was
    /// not working on the request while it was paused.
    pub fn arrival_span_start(&self, request_id: u64) -> SimTime {
        self.request(request_id)
            .map_or(SimTime::ZERO, |r| r.times.nic_arrival.max(r.wait_resolved))
    }

    /// Admission check for an arriving (checksum-valid) request frame.
    ///
    /// Call after the stack validated the frame and before executing
    /// it. First sighting registers the id in the dedup window;
    /// duplicates are suppressed (in-flight original) or answered by
    /// replaying the cached completion (already done) — either way the
    /// caller must not execute. Without faults/retry this is one
    /// `Option` check.
    pub fn rx_gate(&mut self, request_id: u64, now: SimTime) -> RxGate {
        // A frame for this id reached the gate again: whatever stall
        // the open wait span was timing is over.
        if self.tracer.is_enabled() {
            if let Some(rec) = self.requests.get_mut(&request_id) {
                rec.end_wait(&mut self.tracer, now);
            }
        }
        let Some(window) = self.dedup.as_mut() else {
            return RxGate::Execute;
        };
        match window.get(&request_id) {
            None => {
                window.insert(request_id, DedupEntry::InFlight);
                RxGate::Execute
            }
            Some(DedupEntry::InFlight) => {
                self.metrics.faults.dedup_dropped += 1;
                RxGate::Duplicate
            }
            Some(DedupEntry::Done) => {
                self.metrics.faults.dedup_replayed += 1;
                let arrive = now + self.wire.deliver(REPLAY_FRAME_BYTES);
                self.deliver_response(arrive, request_id);
                RxGate::Duplicate
            }
        }
    }

    /// The response for `request_id` reaches the client at `arrive`;
    /// the record retires when it lands ([`Outcome::Completed`]). The
    /// span tree settles now, in send order, which is the order the
    /// flight recorder's p99 estimate observes.
    pub fn complete(&mut self, arrive: SimTime, request_id: u64) {
        if let Some(rec) = self.requests.get_mut(&request_id) {
            rec.settle(
                request_id,
                arrive,
                &mut self.tracer,
                self.flightrec.as_mut(),
            );
        }
        if let Some(window) = self.dedup.as_mut() {
            // `Done` → `Done` means the handler ran twice: the
            // at-most-once guarantee was violated. The counter is the
            // proof the FAULT experiment checks.
            if window.insert(request_id, DedupEntry::Done) == Some(DedupEntry::Done) {
                self.metrics.faults.dup_executions += 1;
            }
        }
        self.deliver_response(arrive, request_id);
    }

    /// Schedules the response delivery, subject to response-leg wire
    /// faults. A corrupted response is counted lost: the client NIC's
    /// checksum rejects it.
    fn deliver_response(&mut self, arrive: SimTime, request_id: u64) {
        let decision = match self.rx_fault.as_mut() {
            Some(inj) => inj.decide_frame(REPLAY_FRAME_BYTES, 0),
            None => FaultDecision::Deliver,
        };
        let at = match decision {
            FaultDecision::Deliver => arrive,
            FaultDecision::Delay { extra } => arrive + extra,
            FaultDecision::Duplicate { gap } => {
                self.client_q
                    .schedule(arrive, ClientEv::Response { request_id });
                arrive + gap
            }
            FaultDecision::Corrupt { .. } => {
                self.metrics.faults.corrupted += 1;
                self.metrics.faults.wire_rx_lost += 1;
                return;
            }
            FaultDecision::Drop => {
                self.metrics.faults.wire_rx_lost += 1;
                return;
            }
        };
        self.client_q
            .schedule(at, ClientEv::Response { request_id });
    }

    /// `request_id` was dropped somewhere in the stack (no descriptor,
    /// queue overflow, lost frame…) at `at`. Without retransmission
    /// this is terminal ([`Outcome::Dropped`]); with it, the request's
    /// fate belongs to the client's retry timer — the wait is timed as
    /// a retry-wait span — and the id is released from the dedup window
    /// so a retransmit can execute.
    pub fn drop_request(&mut self, request_id: u64, at: SimTime) {
        if self.retry_active {
            self.begin_wait(request_id, Stage::RetryWait, at);
            self.release_in_flight(request_id);
            return;
        }
        self.retire(request_id, Outcome::Dropped, at);
    }

    /// Releases an id whose execution never happened from the dedup
    /// window, so a retransmit may run it.
    fn release_in_flight(&mut self, request_id: u64) {
        if let Some(window) = self.dedup.as_mut() {
            if window.get(&request_id) == Some(&DedupEntry::InFlight) {
                window.remove(&request_id);
            }
        }
    }

    /// `request_id` was refused by overload control (queue full, past
    /// deadline, over fair share). With pushback armed the client gets
    /// a NACK carrying the NIC's load `hint` and terminates the
    /// request itself (feeding its AIMD pacer); without, the shed
    /// behaves like any other stack drop — the retry timer (if any)
    /// decides the request's fate.
    ///
    /// Either way the id leaves the dedup window: the shed happened
    /// before execution, so a later retransmit must be allowed to run.
    pub fn shed_request(&mut self, request_id: u64, hint: u8, now: SimTime) {
        if !self.pushback {
            // The retry timer (if armed) owns the wait; time it as
            // shed-backoff rather than a generic retry-wait.
            if self.retry_active {
                self.begin_wait(request_id, Stage::Backoff, now);
            }
            self.drop_request(request_id, now);
            return;
        }
        self.release_in_flight(request_id);
        let arrive = now + self.wire.deliver(NACK_FRAME_BYTES);
        if self.tracer.is_enabled() {
            // The NACK flight is the whole backoff the request pays
            // here: the client terminates it on receipt.
            let root = self.root_span(request_id);
            if root.is_some() {
                self.tracer.span(
                    Stage::Backoff,
                    Some(request_id),
                    root,
                    ROOT_TRACK_BASE + (request_id % ROOT_TRACKS) as u32,
                    now,
                    arrive,
                );
            }
        }
        self.client_q
            .schedule(arrive, ClientEv::Pushback { request_id, hint });
    }

    /// A corrupted or truncated frame failed validation at the server
    /// at `at`: count it and (without retry) terminate the request.
    pub fn reject_corrupt(&mut self, request_id: u64, at: SimTime) {
        self.metrics.faults.checksum_dropped += 1;
        self.drop_request(request_id, at);
    }

    /// The only way a request's record leaves: settles its `outcome` at
    /// `at`, or returns false when it already retired (a stale timer,
    /// NACK, or duplicate response). A completion feeds the latency
    /// histograms, software cycles and tenant ledger (once warmed); any
    /// other outcome counts a drop, closes the spans where the request's
    /// fate was sealed and leaves the dedup window. All but a silent
    /// [`Outcome::Dropped`] rearm the issuing closed-loop client.
    pub(crate) fn retire(&mut self, request_id: u64, outcome: Outcome, at: SimTime) -> bool {
        let Some(mut rec) = self.requests.remove(&request_id) else {
            return false;
        };
        if outcome == Outcome::Completed {
            self.metrics.completed += 1;
            let warmed = self.metrics.completed > self.warmup;
            let rtt = at.since(rec.times.sent);
            if warmed {
                self.metrics.rtt.record_duration(rtt);
                self.metrics
                    .end_system
                    .record_duration(rec.times.end_system());
                self.metrics.dispatch.record_duration(rec.times.dispatch());
                self.metrics.sw_cycles += rec.sw_cycles;
                self.metrics.measured += 1;
            }
            if let Some(ledger) = self
                .tenants
                .as_mut()
                .map(|t| t.entry(rec.service).or_default())
            {
                ledger.completed += 1;
                if warmed {
                    ledger.rtt.record_duration(rtt);
                }
            }
        } else {
            self.metrics.dropped += 1;
            match outcome {
                Outcome::RetriesExhausted => self.metrics.faults.retries_exhausted += 1,
                Outcome::Timeout => self.metrics.faults.timeouts += 1,
                _ => {}
            }
            if let Some(window) = self.dedup.as_mut() {
                window.remove(&request_id);
            }
            // The wait span is a leaf: closing it at the abandonment
            // is always containment-safe.
            rec.end_wait(&mut self.tracer, at);
            if let Some(flightrec) = self.flightrec.as_mut() {
                // Recycle mode: the tree must leave the arena now or
                // leak its slots. `take_request` clips any open child.
                rec.settle(request_id, at, &mut self.tracer, Some(flightrec));
            }
            // Without the recorder the root span (if any) stays open;
            // the driver's end-of-run `tracer.finish` closes it as
            // truncated — a child (a handler whose response was lost)
            // may still be executing past `at`.
        }
        if outcome != Outcome::Dropped {
            if let Some(think) = self.think.filter(|&t| at + t <= self.end_of_load) {
                self.client_q
                    .schedule(at + think, ClientEv::Gen { client: rec.client });
            }
        }
        true
    }

    /// The critical-path blame profile of this run: over the full span
    /// buffer normally, over the retained outlier trees when the flight
    /// recorder recycled the rest.
    pub(crate) fn blame_profile(&mut self) -> BlameProfile {
        if let Some(rec) = self.flightrec.as_ref() {
            let paths: Vec<_> = rec.trees().flat_map(|t| critical_paths(&t.spans)).collect();
            return BlameProfile::build(&paths, |rid| {
                rec.trees().find(|t| t.request_id == rid).map(|t| t.service)
            });
        }
        self.traced_services.sort_unstable();
        let services = &self.traced_services;
        BlameProfile::build(&critical_paths(self.tracer.spans()), |rid| {
            let i = services.binary_search_by_key(&rid, |&(r, _)| r).ok()?;
            services.get(i).map(|&(_, service)| service)
        })
    }
}

/// A whole-machine server simulation the generic driver can run.
///
/// Implementations provide the server-side mechanics; the driver in
/// [`crate::driver`] provides the client model, load generation,
/// warmup, metrics collection and report emission, identically for
/// every stack.
pub trait ServerStack {
    /// Builds this stack on `machine` with its default stack-specific
    /// knobs, serving `services`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` cannot carry this stack (e.g. the kernel
    /// stack on [`Machine::EnzianEci`], which has no DMA NIC).
    fn build(machine: MachineConfig, services: Vec<ServiceSpec>) -> Self
    where
        Self: Sized;

    /// The stack's display name, e.g. `"kernel/pc-pcie-dma"`.
    fn name(&self) -> &'static str;

    /// Where clients address requests for `service`.
    fn server_addr(&self, service: u16) -> EndpointAddr;

    /// The shared driver-visible state.
    fn common(&mut self) -> &mut StackCommon;

    /// One-time per-run setup (park cores, arm epoch timers, …).
    /// Called after [`StackCommon::begin`] and before the event loop.
    fn prepare(&mut self, workload: &WorkloadSpec);

    /// The time of the stack's earliest pending internal event.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Processes exactly one internal event (the one `next_event_time`
    /// reported).
    fn step(&mut self, workload: &WorkloadSpec);

    /// Schedules a client request frame to reach the NIC at `at`.
    /// The [`PktBuf`] is shared, not copied: the driver's retransmit
    /// buffer and any fault-duplicated deliveries alias the same bytes.
    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64);

    /// Finalises the run at `end`: returns the aggregate core-time
    /// account and the fabric/bus message count for the report.
    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64);

    /// Runs `workload` under the generic driver and reports.
    fn run(&mut self, workload: &WorkloadSpec) -> Report {
        crate::driver::run(self, workload)
    }
}
