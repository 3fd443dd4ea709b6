//! The benchmark's own checks: the pass-through stack leaves every
//! simulation unchanged, and the failure accounting catches a stack
//! that misbehaves.

use lauberhorn::packet::frame::EndpointAddr;
use lauberhorn::packet::PktBuf;
use lauberhorn::rpc::stack::StackCommon;
use lauberhorn::rpc::{MachineConfig, ServerStack, ServiceSpec, WorkloadSpec};
use lauberhorn::sim::energy::CycleAccount;
use lauberhorn::sim::{SimDuration, SimTime};
use lauberhorn_simbench::bench::{build, timed_run, Ledger};
use lauberhorn_simbench::probe::Probe;
use lauberhorn_simbench::workload::{Workload, STACKS};

const SEED: u64 = 7;

fn smoke(workload: Workload) -> WorkloadSpec {
    workload.spec(SEED, SimDuration::from_us(400))
}

#[test]
fn the_probe_leaves_every_report_unchanged() {
    for workload in Workload::ALL {
        let spec = smoke(workload);
        for (i, (kind, name)) in STACKS.iter().enumerate() {
            let direct = workload.experiment(*kind).run(&spec);
            assert!(
                direct.completed > 0,
                "{name} on {workload:?} completed nothing"
            );
            let mut probe = Probe::new(build(workload, i).0);
            let (probed, _) = timed_run(&mut probe, &spec).expect("probed run panicked");
            assert_eq!(
                probed.digest(),
                direct.digest(),
                "{name} on {workload:?}: the probe changed the report"
            );
            let steps = probe.times.calls[lauberhorn_simbench::alloc::Layer::Step.index()];
            assert!(steps > 0, "{name} on {workload:?}: no step was probed");
        }
    }
}

/// A pass-through stack with a fault: it silently loses the `n`-th
/// request frame, or panics at its first step.
struct Faulty {
    inner: Box<dyn ServerStack>,
    drop_inject: Option<u64>,
    panic_in_step: bool,
    injected: u64,
}

impl Faulty {
    fn new(inner: Box<dyn ServerStack>) -> Self {
        Faulty {
            inner,
            drop_inject: None,
            panic_in_step: false,
            injected: 0,
        }
    }
}

impl ServerStack for Faulty {
    fn build(_machine: MachineConfig, _services: Vec<ServiceSpec>) -> Self {
        unreachable!("wraps a built stack")
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
        self.inner.prepare(workload)
    }
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.inner.next_event_time()
    }
    fn step(&mut self, workload: &WorkloadSpec) {
        assert!(!self.panic_in_step, "injected panic");
        self.inner.step(workload)
    }
    fn inject_frame(&mut self, at: SimTime, raw: PktBuf, request_id: u64) {
        self.injected += 1;
        if self.drop_inject == Some(self.injected) {
            return;
        }
        self.inner.inject_frame(at, raw, request_id)
    }
    fn finish(&mut self, end: SimTime) -> (CycleAccount, u64) {
        self.inner.finish(end)
    }
}

fn record(
    ledger: &mut Ledger,
    stack: usize,
    traced: bool,
    s: &mut dyn ServerStack,
    spec: &WorkloadSpec,
) -> bool {
    ledger.record(stack, traced, &timed_run(s, spec))
}

#[test]
fn a_stack_that_drops_one_frame_is_a_failed_operation() {
    for workload in [Workload::Echo, Workload::Mixed] {
        let spec = smoke(workload);
        let mut ledger = Ledger::new(workload.open_loop());
        let mut clean = build(workload, 0).0;
        assert!(record(&mut ledger, 0, false, &mut *clean, &spec));

        let mut lossy = Faulty::new(build(workload, 0).0);
        lossy.drop_inject = Some(10);
        assert!(!record(&mut ledger, 0, false, &mut lossy, &spec));

        // The same fault seen through the probe, as a traced run.
        let mut lossy = Faulty::new(build(workload, 0).0);
        lossy.drop_inject = Some(10);
        let mut probe = Probe::new(Box::new(lossy));
        assert!(!record(&mut ledger, 0, true, &mut probe, &spec));

        let mut traced = Probe::new(build(workload, 0).0);
        assert!(record(&mut ledger, 0, true, &mut traced, &spec));
        assert_eq!(
            (ledger.attempted, ledger.failed),
            (4, 2),
            "{:?}",
            ledger.problems
        );
    }
}

#[test]
fn a_panicking_stack_is_a_failed_operation() {
    let spec = smoke(Workload::Echo);
    let mut ledger = Ledger::new(false);
    let mut broken = Faulty::new(build(Workload::Echo, 1).0);
    broken.panic_in_step = true;
    assert!(!record(&mut ledger, 1, false, &mut broken, &spec));
    assert!(
        ledger.problems[0].contains("injected panic"),
        "{:?}",
        ledger.problems
    );
}

#[test]
fn stacks_offered_different_streams_fail_on_an_open_loop() {
    let mut ledger = Ledger::new(true);
    let spec = smoke(Workload::Mixed);
    let mut other = spec.clone();
    other.seed = SEED + 1;
    assert!(record(
        &mut ledger,
        0,
        false,
        &mut *build(Workload::Mixed, 0).0,
        &spec
    ));
    assert!(!record(
        &mut ledger,
        1,
        false,
        &mut *build(Workload::Mixed, 1).0,
        &other
    ));
}
