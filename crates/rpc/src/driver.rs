//! The generic experiment driver: one client model, one load
//! generator, one warmup/metrics policy for every [`ServerStack`].
//!
//! The client side — open/closed-loop generation, request marshalling,
//! RTT bookkeeping — used to be copy-pasted into each of the three
//! stack simulations, which made "are we comparing the stacks on the
//! same workload?" a diff exercise. Here it exists once: the driver
//! owns the client RNG stream, builds identical request byte streams
//! for every stack under the same seed (pinned by a running FNV-1a
//! digest in the report), interleaves client events with the stack's
//! internal event queue in time order, and emits the common [`Report`].

use lauberhorn_packet::eth::ETH_HEADER_LEN;
use lauberhorn_packet::frame::EndpointAddr;
use lauberhorn_packet::PktBuf;
use lauberhorn_sim::fault::{FaultDecision, FaultInjector};
use lauberhorn_sim::{AimdPacer, SimDuration, SimRng, SimTime};

use crate::report::Report;
use crate::spec::{LoadMode, PayloadGen, WorkloadSpec};
use crate::stack::{Outcome, ServerStack, TenantLedger};
use crate::wire::{build_request, RetryPolicy};

/// Client-side events, interleaved with the stack's internal queue.
#[derive(Debug)]
pub(crate) enum ClientEv {
    /// A load-generator tick for the given (closed-loop) client.
    Gen { client: usize },
    /// The response frame reached the client.
    Response { request_id: u64 },
    /// The retransmission timer for `request_id` fired; `attempt` is
    /// the transmission it was armed after (1 = the original send).
    Retry { request_id: u64, attempt: u32 },
    /// A pushback NACK reached the client: the server shed the request
    /// under overload and advertised its load as `hint` (0–255).
    Pushback { request_id: u64, hint: u8 },
}

/// Running FNV-1a digest over the generated request stream; equal
/// digests across stacks prove they were offered identical bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestDigest(pub u64);

impl RequestDigest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        RequestDigest(Self::OFFSET)
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn absorb_request(&mut self, request_id: u64, service: u16, payload: &[u8]) {
        self.absorb(&request_id.to_le_bytes());
        self.absorb(&service.to_le_bytes());
        self.absorb(payload);
    }
}

/// Puts one request frame on the wire, applying transmit-leg faults.
/// Clean path (no injector): one `inject_frame`, nothing else. The
/// frame is a [`PktBuf`], so duplication bumps a reference count and
/// corruption copies-on-write (the retransmit copy stays pristine).
fn send_frame(
    stack: &mut (impl ServerStack + ?Sized),
    tx_fault: &mut Option<FaultInjector>,
    now: SimTime,
    raw: PktBuf,
    request_id: u64,
) {
    let arrive = now + stack.common().wire.deliver(raw.len());
    let Some(inj) = tx_fault.as_mut() else {
        stack.inject_frame(arrive, raw, request_id);
        return;
    };
    match inj.decide_frame(raw.len(), ETH_HEADER_LEN) {
        FaultDecision::Deliver => stack.inject_frame(arrive, raw, request_id),
        FaultDecision::Drop => {
            stack.common().metrics.faults.wire_tx_lost += 1;
        }
        FaultDecision::Corrupt { offset, bit } => {
            let mut raw = raw;
            FaultInjector::apply_corruption(raw.make_mut(), offset, bit);
            stack.common().metrics.faults.corrupted += 1;
            stack.inject_frame(arrive, raw, request_id);
        }
        FaultDecision::Duplicate { gap } => {
            stack.inject_frame(arrive, raw.clone(), request_id);
            stack.inject_frame(arrive + gap, raw, request_id);
        }
        FaultDecision::Delay { extra } => {
            stack.inject_frame(arrive + extra, raw, request_id);
        }
    }
}

/// The retransmission delay after `attempt` transmissions: the
/// policy's exponential RTO, jittered from the dedicated stream.
fn jittered_rto(policy: &RetryPolicy, attempt: u32, rng: &mut SimRng) -> SimDuration {
    let base = policy.rto(attempt);
    if policy.jitter_frac <= 0.0 {
        return base;
    }
    let u = rng.gen_f64() * 2.0 - 1.0;
    SimDuration::from_ns_f64(base.as_ns_f64() * (1.0 + policy.jitter_frac * u))
}

/// Runs `workload` against `stack` and reports.
///
/// The driver alternates between the client queue and the stack's
/// internal queue, always processing the globally-earliest event
/// (client first on ties, so request injection at time `t` is visible
/// to a stack event at the same `t`).
pub fn run(stack: &mut (impl ServerStack + ?Sized), workload: &WorkloadSpec) -> Report {
    stack.common().begin(workload);
    stack.prepare(workload);

    // The client's randomness is a stream of its own, independent of
    // the stack: every stack sees the same services, sizes and gaps.
    let mut client_rng = SimRng::stream(workload.seed, "client");
    let client_addr = EndpointAddr::host(2, 7000);
    let mut digest = RequestDigest::new();
    let mut next_request_id = 0u64;

    // Fault/retry machinery: all `None`/empty on a clean run, in which
    // case no extra RNG stream is created and no extra event is ever
    // scheduled — the clean schedule is bit-identical to pre-fault
    // builds.
    let retry = workload.effective_retry();
    let mut retry_rng = retry.map(|_| SimRng::stream(workload.seed, "retry"));
    let mut tx_fault = workload
        .faults
        .wire_tx
        .enabled()
        .then(|| FaultInjector::new(workload.faults.wire_tx, workload.seed, "fault.wire.tx"));

    // Tenant-scoped fault storm: applied at generation time, where the
    // tenant is known. The dedicated stream exists (and is drawn from)
    // only when the plan targets a tenant, so every other run's
    // schedule is untouched.
    let tenant_fault = workload.faults.tenant.filter(|t| t.enabled());
    let mut tenant_fault_rng = tenant_fault.map(|_| SimRng::stream(workload.seed, "fault.tenant"));
    let mut tenant_malformed: u64 = 0;
    let mut tenant_storm_extra: u64 = 0;

    // Per-tenant SLO ledgers are kept (in `StackCommon`) whenever the
    // workload carries a tenancy plan — enforcing *or* measurement-only
    // — so the unbounded baseline arm is scored against the same SLOs.
    let tenancy = workload.overload.as_ref().and_then(|o| o.tenancy.as_ref());

    // When the workload declares a deadline-shedding budget and the
    // retry policy has no wall-clock budget of its own, a retransmit
    // timer firing past that deadline can only produce a frame the
    // server sheds as stale at dispatch. Suppress those retransmits at
    // the client instead of firing them into guaranteed shed work;
    // each suppression terminates the request as a `Timeout` and is
    // counted, registered only when non-zero so clean-run digests are
    // untouched.
    let retry_deadline = match (&retry, &workload.overload) {
        (Some(p), Some(o)) if p.budget.is_none() => o.deadline,
        _ => None,
    };
    let mut deadline_suppressed: u64 = 0;

    // AIMD pacing, armed only when the workload's overload config asks
    // for pushback. `None` otherwise: open-loop gaps are used as
    // sampled, bit-identically to builds without overload control.
    let mut pacer = workload
        .overload
        .as_ref()
        .filter(|o| o.pushback)
        .map(|_| AimdPacer::new());

    match &workload.mode {
        LoadMode::Open { .. } => {
            stack
                .common()
                .client_q
                .schedule(SimTime::from_ns(1), ClientEv::Gen { client: 0 });
        }
        LoadMode::Closed { clients, .. } => {
            for c in 0..*clients {
                stack.common().client_q.schedule(
                    SimTime::from_ns(1 + c as u64 * 100),
                    ClientEv::Gen { client: c },
                );
            }
        }
    }
    let mut arrivals = match &workload.mode {
        LoadMode::Open { arrivals } => Some(arrivals.clone()),
        LoadMode::Closed { .. } => None,
    };

    let mut last_now = SimTime::ZERO;
    loop {
        // Pick the earliest event across both queues.
        let client_t = stack.common().client_q.peek_time();
        let stack_t = stack.next_event_time();
        let (now, client_side) = match (client_t, stack_t) {
            (Some(c), Some(s)) => (c.min(s), c <= s),
            (Some(c), None) => (c, true),
            (None, Some(s)) => (s, false),
            (None, None) => break,
        };
        last_now = now;
        let common = stack.common();
        if now > common.hard_end
            || (now > common.end_of_load
                && common.metrics.completed + common.metrics.dropped >= common.metrics.offered)
        {
            break;
        }
        if !client_side {
            stack.step(workload);
            continue;
        }
        let Some((_, ev)) = common.client_q.pop() else {
            break;
        };
        match ev {
            ClientEv::Gen { client } => {
                if now > common.end_of_load {
                    continue;
                }
                let request_id = next_request_id;
                next_request_id += 1;
                let service = workload.mix.sample(&mut client_rng, now);
                let payload: Vec<u8> = match &workload.payload {
                    Some(PayloadGen::Script(f)) => f(request_id),
                    Some(PayloadGen::Random(d)) => {
                        let size = d.sample(&mut client_rng);
                        (0..size).map(|i| (i as u8) ^ (request_id as u8)).collect()
                    }
                    None => {
                        let size = workload.request_bytes.sample(&mut client_rng);
                        (0..size).map(|i| (i as u8) ^ (request_id as u8)).collect()
                    }
                };
                digest.absorb_request(request_id, service, &payload);
                let raw = build_request(
                    client_addr,
                    stack.server_addr(service),
                    service,
                    0,
                    request_id,
                    &payload,
                    0,
                );
                let common = stack.common();
                common.issue(request_id, now, client, service, retry.map(|_| raw.clone()));
                if let (Some(policy), Some(rng)) = (&retry, retry_rng.as_mut()) {
                    let rto = jittered_rto(policy, 1, rng);
                    let first = ClientEv::Retry {
                        request_id,
                        attempt: 1,
                    };
                    common.client_q.schedule(now + rto, first);
                }
                match tenant_fault.filter(|tf| tf.tenant == service) {
                    Some(tf) => {
                        // Malformed: corrupt the transmitted copy only; the
                        // retransmit copy in the request record stays pristine.
                        let mut wire = raw.clone();
                        if let Some(rng) = tenant_fault_rng.as_mut().filter(|_| tf.malformed > 0.0)
                        {
                            if rng.gen_f64() < tf.malformed {
                                let len = wire.len();
                                let offset =
                                    rng.gen_range(ETH_HEADER_LEN..len.max(ETH_HEADER_LEN + 1));
                                let bit = rng.gen_range(0..8) as u8;
                                FaultInjector::apply_corruption(wire.make_mut(), offset, bit);
                                tenant_malformed += 1;
                                stack.common().metrics.faults.corrupted += 1;
                            }
                        }
                        send_frame(stack, &mut tx_fault, now, wire, request_id);
                        // Storm amplification: duplicates with the same
                        // request id (at-most-once is on the hook for them).
                        for _ in 0..tf.storm_extra {
                            tenant_storm_extra += 1;
                            send_frame(stack, &mut tx_fault, now, raw.clone(), request_id);
                        }
                    }
                    None => send_frame(stack, &mut tx_fault, now, raw, request_id),
                }
                if let Some(arr) = arrivals.as_mut() {
                    let mut gap = arr.next_gap(&mut client_rng);
                    if let Some(p) = pacer.as_ref() {
                        // AIMD pacing stretches the open-loop gap; without
                        // pushback the sampled gap is used untouched.
                        gap = SimDuration::from_ns_f64(gap.as_ns_f64() * p.gap_scale());
                    }
                    stack
                        .common()
                        .client_q
                        .schedule(now + gap, ClientEv::Gen { client });
                }
            }
            ClientEv::Response { request_id } => {
                // Duplicate deliveries (a replayed dedup answer
                // racing the original, or a duplicated response
                // frame) are ignored: the first answer won.
                if !stack.common().retire(request_id, Outcome::Completed, now) {
                    stack.common().metrics.faults.dup_responses += 1;
                } else if let Some(p) = pacer.as_mut() {
                    p.on_success(now);
                }
            }
            ClientEv::Retry {
                request_id,
                attempt,
            } => {
                let common = stack.common();
                let (Some(policy), Some(rec)) = (retry, common.request(request_id)) else {
                    // No policy (stale state), or the request was already
                    // answered or abandoned: a stale timer.
                    continue;
                };
                let (sent, raw) = (rec.times.sent, rec.retransmit.clone());
                // Terminal before another retransmission: the
                // attempt bound, then the wall-clock retry budget,
                // then the workload's overload deadline — past it a
                // retransmit would only be shed as stale at
                // dispatch, wasted wire and queue work.
                let outcome = if attempt >= policy.max_attempts {
                    Some(Outcome::RetriesExhausted)
                } else if policy.budget_exhausted(sent, now) {
                    Some(Outcome::Timeout)
                } else if retry_deadline.is_some_and(|d| now.since(sent) > d) {
                    deadline_suppressed += 1;
                    Some(Outcome::Timeout)
                } else {
                    None
                };
                if let Some(outcome) = outcome {
                    common.retire(request_id, outcome, now);
                    continue;
                }
                let Some(raw) = raw else {
                    continue;
                };
                common.metrics.faults.retransmits += 1;
                if let Some(rng) = retry_rng.as_mut() {
                    let next = attempt + 1;
                    let rto = jittered_rto(&policy, next, rng);
                    common.client_q.schedule(
                        now + rto,
                        ClientEv::Retry {
                            request_id,
                            attempt: next,
                        },
                    );
                }
                send_frame(stack, &mut tx_fault, now, raw, request_id);
            }
            ClientEv::Pushback { request_id, hint } => {
                // The server refused the request under overload and
                // said so explicitly: terminate it here (no point
                // retransmitting into a shedding server) and slow
                // the generator down. A NACK for a request already
                // answered or abandoned is stale.
                if stack.common().retire(request_id, Outcome::Pushback, now) {
                    if let Some(p) = pacer.as_mut() {
                        p.on_pushback(hint, now);
                    }
                }
            }
        }
    }

    let end = last_now.min(stack.common().hard_end);
    let (energy, fabric) = stack.finish(end);
    let common = stack.common();
    // Close spans left open at the cutoff (parked cores, in-flight
    // requests) so the balance invariant holds for exported traces.
    common.tracer.finish(end);
    common.metrics.request_digest = digest.0;
    let reg = &mut common.metrics.registry;
    if let Some(p) = pacer.as_ref() {
        // Only reached when overload pushback was armed, so these
        // entries never enter a clean run's digest.
        reg.counter("rpc.overload.pushbacks", p.pushbacks);
        reg.gauge("rpc.overload.pacer_factor", p.factor());
    }
    if deadline_suppressed > 0 {
        // Only non-zero when deadline shedding and a budget-less retry
        // policy are both armed, so clean runs never see this entry.
        reg.counter("rpc.retry.deadline_suppressed", deadline_suppressed);
    }
    if let Some(tcfg) = tenancy {
        // Per-tenant SLO attainment ledgers. Present only when a
        // tenancy plan rode along with the workload (enforcing or
        // observe-only), so untenanted digests are untouched. A tenant
        // with no measured completions does not meet its SLO.
        let ledgers = common.tenants.take().unwrap_or_default();
        let idle = TenantLedger::default();
        let reg = &mut common.metrics.registry;
        let mut met: u64 = 0;
        for spec in &tcfg.tenants {
            let t = spec.tenant;
            let ledger = ledgers.get(&t).unwrap_or(&idle);
            reg.counter(&format!("rpc.tenant.offered.s{t}"), ledger.offered);
            reg.counter(&format!("rpc.tenant.completed.s{t}"), ledger.completed);
            let p99_ps = (ledger.rtt.count() > 0).then(|| ledger.rtt.quantile(0.99));
            if let Some(p99_ps) = p99_ps {
                reg.gauge(&format!("rpc.tenant.rtt_p99_us.s{t}"), p99_ps as f64 / 1e6);
            }
            if p99_ps.is_some_and(|p| p <= spec.slo_p99.as_ps()) {
                met += 1;
            }
        }
        reg.counter("rpc.tenant.count", tcfg.tenants.len() as u64);
        reg.counter("rpc.tenant.slo_met", met);
    }
    if tenant_fault.is_some() {
        // Bookkeeping for the tenant-scoped fault arm: how much the
        // storm actually injected. Gated on the plan, like the ledgers.
        let reg = &mut common.metrics.registry;
        reg.counter("rpc.tenant.fault.malformed", tenant_malformed);
        reg.counter("rpc.tenant.fault.storm_extra", tenant_storm_extra);
    }
    let blame = if common.tracer.is_enabled() {
        // Trace-loss visibility (satellite of the blame work): how
        // much the measurement apparatus itself lost. These entries
        // exist only while tracing and are excluded from the report
        // digest, so the zero-perturbation guarantee is untouched.
        let reg = &mut common.metrics.registry;
        reg.counter("sim.span.recorded", common.tracer.recorded());
        reg.counter("sim.span.dropped", common.tracer.dropped());
        reg.counter("sim.span.truncated", common.tracer.truncated());
        if let Some(rec) = common.flightrec.as_ref() {
            reg.counter("sim.span.flightrec.seen", rec.seen());
            reg.counter("sim.span.flightrec.retained", rec.retained());
            reg.counter("sim.span.flightrec.recycled", rec.recycled());
            reg.counter("sim.span.flightrec.evicted", rec.evicted());
            reg.gauge(
                "sim.span.flightrec.p99_est_us",
                rec.p99_estimate_ps() as f64 / 1e6,
            );
        }
        Some(common.blame_profile())
    } else {
        None
    };
    let metrics = std::mem::take(&mut common.metrics);
    let mut report = metrics.finish(stack.name(), end.since(SimTime::ZERO), energy, fabric);
    report.blame = blame;
    report
}
