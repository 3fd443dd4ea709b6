//! The pass-through stack: a `ServerStack` that forwards every call to
//! a built stack and times it, tags its allocations with the call's
//! layer, and keeps a bounded sample of the calls as spans.
//!
//! It sees the simulator only through the trait, so the per-layer split
//! is measured from outside the program: nothing in the simulator is
//! compiled differently for the traced run.

use std::time::Instant;

use lauberhorn::packet::frame::EndpointAddr;
use lauberhorn::packet::PktBuf;
use lauberhorn::rpc::stack::StackCommon;
use lauberhorn::rpc::{MachineConfig, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn::sim::energy::CycleAccount;
use lauberhorn::sim::SimTime;

use crate::alloc::{self, Layer, LAYERS};

/// Spans a probe keeps at most: a uniform sample of all the calls
/// (reservoir sampling), so memory stays bounded at any run length.
pub const SPAN_CAP: usize = 1024;

/// One trait call, as a span relative to the run's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequence number of the call within the run (1-based; 0 is the
    /// whole `driver::run`, the parent of every call).
    pub id: u64,
    /// The call's layer.
    pub layer: Layer,
    /// Host nanoseconds from the probe's creation to the call's entry.
    pub start_ns: u64,
    /// Host nanoseconds from the probe's creation to the call's return.
    pub end_ns: u64,
    /// The request the call carries, where it carries one
    /// (`inject_frame`).
    pub request: Option<u64>,
}

/// Per-layer host time and call counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// Host nanoseconds spent inside calls of each layer.
    pub ns: [u64; LAYERS],
    /// Calls made to each layer.
    pub calls: [u64; LAYERS],
}

/// A pass-through [`ServerStack`] that probes every call.
pub struct Probe {
    inner: Box<dyn ServerStack>,
    origin: Instant,
    /// Time and call counts per layer so far.
    pub times: LayerTimes,
    /// When `finish` returned; the driver's report tail runs after it.
    pub finish_end: Option<Instant>,
    spans: Vec<Span>,
    seq: u64,
    /// xorshift64 state for the reservoir; fixed, so the sample of a
    /// given call sequence repeats.
    rng: u64,
}

impl Probe {
    /// Wraps a built stack. The span buffer is allocated here, before
    /// the run, so recording spans allocates nothing during it.
    pub fn new(inner: Box<dyn ServerStack>) -> Self {
        let prev = alloc::enter(Layer::Probe);
        let spans = Vec::with_capacity(SPAN_CAP);
        alloc::enter(prev);
        Probe {
            inner,
            origin: Instant::now(),
            times: LayerTimes::default(),
            finish_end: None,
            spans,
            seq: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// When the probe was created: the zero of every span's clock.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The sampled spans, in no particular order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls made but not kept in the sample.
    pub fn spans_dropped(&self) -> u64 {
        self.seq - self.spans.len() as u64
    }

    /// Runs `f` against the wrapped stack, charged to `layer`. On
    /// return, allocations are charged to `after`.
    fn call<R>(
        &mut self,
        layer: Layer,
        after: Layer,
        request: Option<u64>,
        f: impl FnOnce(&mut dyn ServerStack) -> R,
    ) -> R {
        alloc::enter(layer);
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        let t1 = Instant::now();
        alloc::enter(Layer::Probe);
        let i = layer.index();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.times.ns[i] += ns;
        self.times.calls[i] += 1;
        self.seq += 1;
        let slot = if self.spans.len() < SPAN_CAP {
            Some(self.spans.len())
        } else {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            Some((self.rng % self.seq) as usize).filter(|&j| j < SPAN_CAP)
        };
        if let Some(j) = slot {
            let span = Span {
                id: self.seq,
                layer,
                start_ns: t0.duration_since(self.origin).as_nanos() as u64,
                end_ns: t1.duration_since(self.origin).as_nanos() as u64,
                request,
            };
            if j == self.spans.len() {
                self.spans.push(span);
            } else {
                self.spans[j] = span;
            }
        }
        if layer == Layer::Finish {
            self.finish_end = Some(t1);
        }
        alloc::enter(after);
        r
    }
}

impl ServerStack for Probe {
    /// A probe only wraps a stack that is already built.
    ///
    /// # Panics
    ///
    /// Always: build the stack with `Experiment::build` and wrap it
    /// with [`Probe::new`].
    fn build(_machine: MachineConfig, _services: Vec<ServiceSpec>) -> Self {
        panic!("a Probe wraps a built stack: use Probe::new(Experiment::build())")
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn server_addr(&self, service: u16) -> EndpointAddr {
        self.inner.server_addr(service)
    }

    fn common(&mut self) -> &mut StackCommon {
        self.inner.common()
    }

    fn prepare(&mut self, workload: &WorkloadSpec) {
        self.call(Layer::Prepare, Layer::Driver, None, |s| s.prepare(workload))
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.call(Layer::Peek, Layer::Driver, None, |s| s.next_event_time())
    }

    fn step(&mut self, workload: &WorkloadSpec) {
        self.call(Layer::Step, Layer::Driver, None, |s| s.step(workload))
    }

    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64) {
        self.call(Layer::Inject, Layer::Driver, Some(request_id), |s| {
            s.inject_frame(at, raw, request_id)
        })
    }

    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64) {
        // Everything the driver does after `finish` is the report tail.
        self.call(Layer::Finish, Layer::Report, None, |s| s.finish(end))
    }
}
