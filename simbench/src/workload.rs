//! The benchmark's workloads. Every rate, size and duration is a fixed
//! number here: nothing is calibrated at run time, so the inputs depend
//! only on the seed, never on the code under test.

use lauberhorn::experiment::{Experiment, StackKind};
use lauberhorn::rpc::spec::LoadMode;
use lauberhorn::rpc::{RetryPolicy, ServiceSpec, WorkloadSpec};
use lauberhorn::sim::fault::FaultPlan;
use lauberhorn::sim::{
    DeadlineClass, ObserveSpec, OverloadConfig, SimDuration, TenancyConfig, TenantSpec,
};
use lauberhorn::workload::{DynamicMix, SizeDist, TenantMix};

/// The stacks every workload runs, in report order, with the short
/// name used in metric names.
pub const STACKS: [(StackKind, &str); 3] = [
    (StackKind::LauberhornEnzian, "lauberhorn"),
    (StackKind::BypassModern, "bypass"),
    (StackKind::KernelModern, "kernel"),
];

/// Simulated server cores in every workload.
const CORES: usize = 4;

/// A named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop 64 B echo, 16 clients, 8 services.
    Echo,
    /// Open-loop Poisson at 400 k req/s over 64 Zipf services with
    /// cloud-RPC request sizes.
    Mixed,
    /// 100 tenants, the head one storming at 10×, with enforced
    /// isolation, wire loss, client patience and the flight recorder.
    Storm,
}

/// Storm: tenant population, one service each.
const STORM_TENANTS: usize = 100;
/// Storm: Zipf skew of the tenants' traffic shares.
const STORM_ZIPF_S: f64 = 0.8;
/// Storm: the storming tenant, the head of the Zipf distribution.
const STORM_HOG: u16 = 0;
/// Storm: the hog's offered load as a multiple of its quiet share.
const STORM_FACTOR: f64 = 10.0;
/// Storm: the quiet world's offered load.
const STORM_BASE_RPS: f64 = 300_000.0;
/// Storm: handler cost; the cores, not the NIC, bound capacity.
const STORM_HANDLER_CYCLES: u64 = 10_000;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Echo, Workload::Mixed, Workload::Storm];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo => "echo",
            Workload::Mixed => "mixed",
            Workload::Storm => "storm",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated load window of one benchmark run, chosen so one run of
    /// one stack costs a few hundred host milliseconds. `mixed` runs
    /// longer: its peak heap is set by the rare moments when several
    /// 56 KiB requests are in flight at once, and a short window makes
    /// that peak vary by over 10 % from seed to seed.
    pub fn duration(self) -> SimDuration {
        match self {
            Workload::Echo => SimDuration::from_ms(8),
            Workload::Mixed => SimDuration::from_ms(160),
            Workload::Storm => SimDuration::from_ms(30),
        }
    }

    /// Whether the workload fixes the request stream regardless of the
    /// stack. In a closed loop a faster stack is offered more requests,
    /// so only a prefix of the stream is shared and the request digests
    /// of different stacks differ by design.
    pub fn open_loop(self) -> bool {
        !matches!(self, Workload::Echo)
    }

    /// The service table.
    pub fn services(self) -> Vec<ServiceSpec> {
        match self {
            Workload::Echo => ServiceSpec::uniform(8, 1000, 32),
            Workload::Mixed => ServiceSpec::uniform(64, 1000, 32),
            Workload::Storm => ServiceSpec::uniform(STORM_TENANTS, STORM_HANDLER_CYCLES, 32),
        }
    }

    /// The experiment that builds `stack` for this workload.
    pub fn experiment(self, stack: StackKind) -> Experiment {
        Experiment::new(stack)
            .cores(CORES)
            .services(self.services())
    }

    /// The generated inputs for `seed` over a `duration` load window.
    pub fn spec(self, seed: u64, duration: SimDuration) -> WorkloadSpec {
        let mut wl = match self {
            Workload::Echo => {
                let mut wl = WorkloadSpec::echo_closed(64, 1, seed);
                wl.mode = LoadMode::Closed {
                    clients: 16,
                    think: SimDuration::ZERO,
                };
                wl.mix = DynamicMix::stable(8, 0.0);
                wl
            }
            Workload::Mixed => {
                WorkloadSpec::open_poisson(400_000.0, 64, 1.1, SizeDist::CloudRpc, 1, seed)
            }
            Workload::Storm => storm(seed),
        };
        wl.duration = duration;
        wl
    }
}

/// The TENANT isolation arm at a fixed base rate: every tenant weighted
/// equally, rate-limited to twice its quiet share, with a class-scaled
/// p99 SLO; drop-tail queues with deadline shedding; 2 ms client
/// patience; 1 % wire loss each way; the outlier flight recorder armed.
fn storm(seed: u64) -> WorkloadSpec {
    let quiet = TenantMix::zipf(STORM_TENANTS, STORM_ZIPF_S, STORM_HOG, 1.0);
    let base_slo = SimDuration::from_us(300);
    let tenants: Vec<TenantSpec> = (0..STORM_TENANTS as u16)
        .map(|t| {
            let class = match t % 3 {
                0 => DeadlineClass::Latency,
                1 => DeadlineClass::Standard,
                _ => DeadlineClass::Bulk,
            };
            let rate = (2.0 * quiet.offered_share(t) * STORM_BASE_RPS).ceil() as u64;
            TenantSpec::new(t, 1, class.scale(base_slo))
                .with_rate(rate.max(1_000), 32)
                .with_class(class)
        })
        .collect();
    let overload = OverloadConfig::drop_tail(64)
        .with_deadline(SimDuration::from_us(200))
        .with_tenancy(TenancyConfig::enforcing(tenants));
    let offered = STORM_BASE_RPS * (1.0 + (STORM_FACTOR - 1.0) * quiet.offered_share(STORM_HOG));
    let mut wl = WorkloadSpec::open_poisson(
        offered,
        STORM_TENANTS,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        1,
        seed,
    );
    wl.mix = TenantMix::zipf(STORM_TENANTS, STORM_ZIPF_S, STORM_HOG, STORM_FACTOR).to_mix();
    wl.with_retry(RetryPolicy::give_up_after(SimDuration::from_us(2_000)))
        .with_overload(overload)
        .with_faults(FaultPlan::wire_loss(0.01))
        .with_observe(ObserveSpec::flight(64))
}
