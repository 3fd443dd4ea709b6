//! Service and workload specifications shared by all three stacks.

use std::sync::Arc;

use lauberhorn_os::ProcessId;
use lauberhorn_packet::marshal::{ArgType, Signature};
use lauberhorn_sim::fault::FaultPlan;
use lauberhorn_sim::{ObserveSpec, OverloadConfig, SimDuration};
use lauberhorn_workload::{ArrivalProcess, DynamicMix, ServiceTime, SizeDist};

use crate::wire::RetryPolicy;

/// The type of an application handler body.
pub type HandlerFn = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// What a service's handler does with the delivered argument bytes.
#[derive(Clone)]
pub enum Behavior {
    /// Synthetic: burn the modelled cycles and return a fixed-size
    /// pattern (the benchmarking default).
    Synthetic,
    /// Application logic: a real function over the *delivered* argument
    /// bytes, returning the response payload. The modelled cycle cost
    /// still applies (simulated time), but the bytes are genuine —
    /// end-to-end data integrity through the whole stack is checkable.
    ///
    /// Arguments must fit the CONTROL line's inline capacity (96 B on
    /// Enzian) and responses likewise; larger payloads stay on the
    /// synthetic path.
    Handler(HandlerFn),
}

impl std::fmt::Debug for Behavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Behavior::Synthetic => write!(f, "Synthetic"),
            Behavior::Handler(_) => write!(f, "Handler(..)"),
        }
    }
}

/// One RPC service.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Service id (also its UDP port in the DMA stacks).
    pub service_id: u16,
    /// Owning process.
    pub process: ProcessId,
    /// Handler cost distribution.
    pub service_time: ServiceTime,
    /// Response payload size in bytes (kept ≤ the control line's inline
    /// capacity so responses travel the line protocol; the crossover
    /// experiment exercises larger transfers explicitly). Ignored when
    /// `behavior` is a real handler (the handler's output sizes it).
    pub response_bytes: usize,
    /// The handler body.
    pub behavior: Behavior,
}

impl ServiceSpec {
    /// The wire signature every benchmark method uses: one opaque byte
    /// string (RPC frameworks marshal everything into this shape at the
    /// transport layer).
    pub fn signature() -> Signature {
        Signature::of(&[ArgType::Bytes])
    }

    /// A uniform set of `n` echo-style services with fixed handler cost.
    pub fn uniform(n: usize, handler_cycles: u64, response_bytes: usize) -> Vec<ServiceSpec> {
        (0..n)
            .map(|i| ServiceSpec {
                service_id: i as u16,
                process: ProcessId(i as u32),
                service_time: ServiceTime::Fixed {
                    cycles: handler_cycles,
                },
                response_bytes,
                behavior: Behavior::Synthetic,
            })
            .collect()
    }

    /// A single service with application logic (see [`Behavior::Handler`]).
    pub fn with_handler(
        service_id: u16,
        handler_cycles: u64,
        handler: impl Fn(&[u8]) -> Vec<u8> + Send + Sync + 'static,
    ) -> ServiceSpec {
        ServiceSpec {
            service_id,
            process: ProcessId(service_id as u32),
            service_time: ServiceTime::Fixed {
                cycles: handler_cycles,
            },
            response_bytes: 32,
            behavior: Behavior::Handler(Arc::new(handler)),
        }
    }
}

/// How clients drive the system.
#[derive(Debug, Clone)]
pub enum LoadMode {
    /// Open loop: arrivals at the given process regardless of responses.
    Open {
        /// The arrival process.
        arrivals: ArrivalProcess,
    },
    /// Closed loop: `clients` outstanding requests; each client issues
    /// its next request `think` after receiving a response.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Think time between response and next request.
        think: SimDuration,
    },
}

/// How request payloads are produced.
#[derive(Clone)]
pub enum PayloadGen {
    /// Random bytes of a sampled size.
    Random(SizeDist),
    /// Application-defined: a function of the request id (used with
    /// [`Behavior::Handler`] services so responses can be verified).
    Script(Arc<dyn Fn(u64) -> Vec<u8> + Send + Sync>),
}

impl std::fmt::Debug for PayloadGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PayloadGen::Random(d) => write!(f, "Random({d:?})"),
            PayloadGen::Script(_) => write!(f, "Script(..)"),
        }
    }
}

/// A complete workload description.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Drive mode.
    pub mode: LoadMode,
    /// Service selection over time.
    pub mix: DynamicMix,
    /// Request payload size distribution.
    pub request_bytes: SizeDist,
    /// Overrides `request_bytes` with scripted payloads when set.
    pub payload: Option<PayloadGen>,
    /// Record `(request_id, response payload)` pairs in the report
    /// (Lauberhorn stack only; bounded by `duration`'s request count).
    pub record_responses: bool,
    /// Simulated duration.
    pub duration: SimDuration,
    /// RNG seed (all randomness derives from it).
    pub seed: u64,
    /// Requests to skip at the start of measurement (warmup).
    pub warmup: u64,
    /// Deterministic fault plan. Defaults to [`FaultPlan::none`],
    /// which is provably zero-cost: no RNG stream is created and the
    /// event schedule is untouched.
    pub faults: FaultPlan,
    /// Client retransmission policy. `None` with faults enabled means
    /// lost requests are detected (and counted dropped) but not
    /// retried; see [`crate::wire::RetryPolicy::give_up_after`].
    pub retry: Option<RetryPolicy>,
    /// Observability: span tracing and the flight recorder. Defaults
    /// to [`ObserveSpec::none`]; enabling it must not change any
    /// report digest (the zero-perturbation guarantee, enforced by the
    /// tier-1 `observability` test).
    pub observe: ObserveSpec,
    /// Overload control: bounded queues with drop-tail / deadline /
    /// fair-admission shedding on the server side and optional
    /// pushback NACKs driving client AIMD pacing. `None` (the
    /// default) arms nothing: no controller exists, no counters are
    /// exported, and report digests are untouched.
    pub overload: Option<OverloadConfig>,
}

impl WorkloadSpec {
    /// A closed-loop echo workload against a single service — the
    /// Figure 2 measurement shape.
    pub fn echo_closed(request_bytes: usize, duration_ms: u64, seed: u64) -> Self {
        WorkloadSpec {
            mode: LoadMode::Closed {
                clients: 1,
                think: SimDuration::ZERO,
            },
            mix: DynamicMix::stable(1, 0.0),
            request_bytes: SizeDist::Fixed {
                bytes: request_bytes,
            },
            payload: None,
            record_responses: false,
            duration: SimDuration::from_ms(duration_ms),
            seed,
            warmup: 100,
            faults: FaultPlan::none(),
            retry: None,
            observe: ObserveSpec::none(),
            overload: None,
        }
    }

    /// An open-loop Poisson workload.
    pub fn open_poisson(
        rate_rps: f64,
        services: usize,
        zipf_s: f64,
        request_bytes: SizeDist,
        duration_ms: u64,
        seed: u64,
    ) -> Self {
        WorkloadSpec {
            mode: LoadMode::Open {
                arrivals: ArrivalProcess::Poisson { rate_rps },
            },
            mix: DynamicMix::stable(services, zipf_s),
            request_bytes,
            payload: None,
            record_responses: false,
            duration: SimDuration::from_ms(duration_ms),
            seed,
            warmup: 200,
            faults: FaultPlan::none(),
            retry: None,
            observe: ObserveSpec::none(),
            overload: None,
        }
    }

    /// Enables the given fault plan on this workload.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enables client retransmission under this policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Enables observability (spans and/or the flight recorder).
    pub fn with_observe(mut self, observe: ObserveSpec) -> Self {
        self.observe = observe;
        self
    }

    /// Arms overload control (bounded queues, shedding policies, and
    /// — when the config asks for it — pushback-driven client pacing).
    pub fn with_overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = Some(overload);
        self
    }

    /// The retransmission policy actually in force: the explicit one,
    /// or — when faults are live without one — a single-attempt
    /// give-up timer so lost requests terminate as counted drops
    /// instead of hanging the run.
    pub fn effective_retry(&self) -> Option<RetryPolicy> {
        match (&self.retry, self.faults.enabled()) {
            (Some(r), _) => Some(*r),
            (None, true) => Some(RetryPolicy::give_up_after(SimDuration::from_ms(2))),
            (None, false) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_services_are_distinct() {
        let svcs = ServiceSpec::uniform(4, 1000, 32);
        assert_eq!(svcs.len(), 4);
        assert_eq!(svcs[3].service_id, 3);
        assert_ne!(svcs[0].process, svcs[1].process);
    }

    #[test]
    fn echo_spec_is_closed_loop() {
        let w = WorkloadSpec::echo_closed(64, 10, 1);
        assert!(matches!(w.mode, LoadMode::Closed { clients: 1, .. }));
        assert_eq!(w.mix.num_services(), 1);
    }
}
