//! Extension experiment: multi-tenant isolation under a noisy-neighbor
//! storm.
//!
//! The paper's multiplexing claim — the NIC, holding the OS's
//! scheduling state, is where per-tenant isolation belongs — is tested
//! at population scale: 100 tenants with Zipf-skewed traffic share one
//! Lauberhorn NIC, each carrying its own weight, ingress rate limit,
//! deadline class, and p99 SLO. One tenant (the hog, the head of the
//! Zipf distribution) then storms: it multiplies its offered load 5×
//! and 10× while everyone else keeps theirs.
//!
//! Two worlds are compared at every storm intensity:
//!
//! * **isolation on** — per-tenant queues with weighted deficit-round-
//!   robin arbitration at each NIC pipeline stage, token-bucket rate
//!   limits at ingress, bounded queues with deadline shedding, and
//!   NIC-side fair admission;
//! * **unbounded baseline** — no isolation of any kind (the tenancy
//!   plan rides along observe-only, so the same SLO ledgers score the
//!   arm without arming the NIC).
//!
//! The headline metric is the **fraction of tenants meeting their p99
//! SLO**. The checked predictions: with no storm the two worlds agree
//! (≥ 95 % of tenants meet their SLO either way); at the 10× storm the
//! isolated NIC still keeps ≥ 95 % of tenants inside their SLOs while
//! the unbounded baseline collapses below 50 % — the hog's excess is
//! clipped at ingress before it can queue behind anyone else.

use crate::experiment::{Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::{Report, RetryPolicy, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::{DeadlineClass, OverloadConfig, SimDuration, TenancyConfig, TenantSpec};
use lauberhorn_workload::{SizeDist, TenantMix};

/// Tenant population (one service each).
pub const TENANTS: usize = 100;
/// Zipf skew of the tenant traffic shares.
pub const ZIPF_S: f64 = 0.8;
/// The storming tenant: the head of the Zipf distribution, so its
/// storm moves total offered load materially.
pub const HOG: u16 = 0;
/// Storm intensities: the hog's offered load as a multiple of its
/// quiet share (1× = no storm).
pub const STORMS: [f64; 3] = [1.0, 5.0, 10.0];
/// The stack under test (isolation is a NIC property; the DMA stacks
/// have no per-tenant view to arm).
pub const STACK: StackKind = StackKind::LauberhornCxl;

/// Handler cost per request (5 µs at 2 GHz): heavy enough that the
/// handler cores — not the wire or the NIC pipeline — are the capacity
/// bottleneck, so the hog's storm genuinely saturates the machine.
const HANDLER_CYCLES: u64 = 10_000;
/// Handler cores.
const CORES: usize = 4;
/// Quiet-world offered load as a fraction of calibrated capacity:
/// comfortably under saturation, so every SLO is attainable.
const BASE_UTIL: f64 = 0.7;
/// Measured load window per point.
const DURATION_MS: u64 = 10;
/// Client patience: a request unanswered this long is abandoned. Long
/// enough past every SLO that congested queues are fully visible in
/// the completed-request p99 (a short give-up would censor the tail
/// the SLO check needs to see).
pub const CLIENT_PATIENCE: SimDuration = SimDuration::from_us(2_000);
/// Server-side deadline budget for queued work when isolation is on.
const DEADLINE_BUDGET: SimDuration = SimDuration::from_us(200);
/// Bounded queue capacity when isolation is on.
const QUEUE_CAP: usize = 64;
/// The Standard-class p99 SLO; Latency halves it, Bulk doubles it.
const BASE_SLO: SimDuration = SimDuration::from_us(300);
/// Ingress rate limits allow this much headroom over each tenant's
/// quiet offered rate: normal jitter passes, a storm is clipped.
const RATE_HEADROOM: f64 = 2.0;

/// The quiet (no-storm) tenant mix.
pub fn quiet_mix() -> TenantMix {
    TenantMix::zipf(TENANTS, ZIPF_S, HOG, 1.0)
}

/// The tenancy plan: every tenant weighted equally at the NIC's DRR
/// stages, rate-limited to [`RATE_HEADROOM`]× its quiet share, and
/// carrying a class-scaled p99 SLO (classes rotate by tenant id).
pub fn tenancy(enforce: bool, base_rate_rps: f64) -> TenancyConfig {
    let quiet = quiet_mix();
    let specs: Vec<TenantSpec> = (0..TENANTS as u16)
        .map(|t| {
            let class = match t % 3 {
                0 => DeadlineClass::Latency,
                1 => DeadlineClass::Standard,
                _ => DeadlineClass::Bulk,
            };
            let rate = (RATE_HEADROOM * quiet.offered_share(t) * base_rate_rps).ceil() as u64;
            TenantSpec::new(t, 1, class.scale(BASE_SLO))
                .with_rate(rate.max(1_000), 32)
                .with_class(class)
        })
        .collect();
    if enforce {
        TenancyConfig::enforcing(specs)
    } else {
        TenancyConfig::observe_only(specs)
    }
}

/// The tenants' service table.
pub fn services() -> Vec<ServiceSpec> {
    ServiceSpec::uniform(TENANTS, HANDLER_CYCLES, 32)
}

/// Total offered load at `storm`: the hog multiplies its quiet rate,
/// everyone else keeps theirs.
pub fn offered_rps(base_rate_rps: f64, storm: f64) -> f64 {
    base_rate_rps * (1.0 + (storm - 1.0) * quiet_mix().offered_share(HOG))
}

/// The workload for one arm.
pub fn workload(
    storm: f64,
    isolation: bool,
    base_rate_rps: f64,
    seed: u64,
    duration_ms: u64,
) -> WorkloadSpec {
    let overload = if isolation {
        OverloadConfig::drop_tail(QUEUE_CAP)
            .with_deadline(DEADLINE_BUDGET)
            .with_tenancy(tenancy(true, base_rate_rps))
    } else {
        OverloadConfig::unbounded_baseline().with_tenancy(tenancy(false, base_rate_rps))
    };
    let mut wl = WorkloadSpec::open_poisson(
        offered_rps(base_rate_rps, storm),
        TENANTS,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        duration_ms,
        seed,
    );
    wl.mix = TenantMix::zipf(TENANTS, ZIPF_S, HOG, storm).to_mix();
    wl.warmup = 200;
    wl.with_retry(RetryPolicy::give_up_after(CLIENT_PATIENCE))
        .with_overload(overload)
}

/// The calibration probe's offered load: far past any plausible
/// capacity of [`CORES`] cores at [`HANDLER_CYCLES`] per request.
const PROBE_RPS: f64 = 1_500_000.0;

/// Calibrates the stack's capacity with an open-loop saturation probe:
/// offered load far past capacity, bounded queues and deadline
/// shedding keep admitted work completing usefully, and goodput
/// plateaus at the machine's real service rate. (A closed-loop probe
/// undershoots here: with 100 cold services per client round-trip its
/// per-request overhead is not the open-loop steady state's.)
pub fn calibrate(seed: u64) -> f64 {
    let mut wl = WorkloadSpec::open_poisson(
        PROBE_RPS,
        TENANTS,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        DURATION_MS,
        seed,
    );
    wl.mix = TenantMix::uniform(TENANTS).to_mix();
    wl.warmup = 200;
    let wl = wl
        .with_retry(RetryPolicy::give_up_after(CLIENT_PATIENCE))
        .with_overload(OverloadConfig::drop_tail(QUEUE_CAP).with_deadline(DEADLINE_BUDGET));
    let r = Experiment::new(STACK)
        .cores(CORES)
        .services(services())
        .run(&wl);
    r.completed as f64 / (DURATION_MS as f64 / 1e3)
}

/// One measured arm.
#[derive(Debug, Clone)]
pub struct TenantPoint {
    /// Storm intensity (hog multiplier).
    pub storm: f64,
    /// Whether isolation was armed.
    pub isolation: bool,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Nominal load-window length, ms.
    pub duration_ms: u64,
    /// Measured report.
    pub report: Report,
}

impl TenantPoint {
    /// The headline: fraction of tenants meeting their p99 SLO.
    pub fn slo_met_frac(&self) -> f64 {
        let met = self
            .report
            .metrics
            .get_counter("rpc.tenant.slo_met")
            .unwrap_or(0);
        let all = self
            .report
            .metrics
            .get_counter("rpc.tenant.count")
            .unwrap_or(0);
        met as f64 / all.max(1) as f64
    }

    /// Goodput: completions per second of nominal load window.
    pub fn goodput_rps(&self) -> f64 {
        self.report.completed as f64 / (self.duration_ms.max(1) as f64 / 1e3)
    }

    /// Frames the NIC's ingress rate limiter clipped from the hog.
    pub fn hog_clipped(&self) -> u64 {
        self.report
            .metrics
            .get_counter(&format!("nic-lauberhorn.tenant.ratelimited.s{HOG}"))
            .unwrap_or(0)
    }
}

/// The whole sweep.
#[derive(Debug, Clone)]
pub struct TenantSweep {
    /// Calibrated capacity, rps.
    pub capacity_rps: f64,
    /// Quiet-world offered load ([`BASE_UTIL`] × capacity), rps.
    pub base_rate_rps: f64,
    /// Points in `storm × {unbounded, isolated}` order.
    pub points: Vec<TenantPoint>,
}

impl TenantSweep {
    /// The point for `(storm, isolation)`.
    pub fn point(&self, storm: f64, isolation: bool) -> Option<&TenantPoint> {
        self.points
            .iter()
            .find(|p| p.storm == storm && p.isolation == isolation)
    }
}

/// Runs the sweep: calibrate capacity, then `STORMS × {off, on}` in
/// parallel.
pub fn run(seed: u64) -> TenantSweep {
    run_scaled(seed, 1)
}

/// [`run`] with the measured load window stretched by `scale`.
pub fn run_scaled(seed: u64, scale: u64) -> TenantSweep {
    let duration_ms = DURATION_MS * scale.max(1);
    let capacity_rps = calibrate(seed);
    let base_rate_rps = BASE_UTIL * capacity_rps;
    let mut points = Vec::new();
    for &storm in &STORMS {
        for isolation in [false, true] {
            points.push(SweepPoint::new(
                Experiment::new(STACK).cores(CORES).services(services()),
                workload(storm, isolation, base_rate_rps, seed, duration_ms),
            ));
        }
    }
    let reports = sweep::run_parallel(&points, 0);
    let mut it = reports.into_iter();
    let mut out = Vec::with_capacity(points.len());
    for &storm in &STORMS {
        for isolation in [false, true] {
            out.push(TenantPoint {
                storm,
                isolation,
                offered_rps: offered_rps(base_rate_rps, storm),
                duration_ms,
                report: it.next().expect("one report per arm"),
            });
        }
    }
    TenantSweep {
        capacity_rps,
        base_rate_rps,
        points: out,
    }
}

/// Renders the sweep table.
pub fn render(sweep: &TenantSweep) -> String {
    let mut out = format!(
        "Tenant isolation sweep — {TENANTS} tenants, Zipf s={ZIPF_S}, tenant {HOG} storms \
         (calibrated capacity {:.0} rps, quiet load {:.0} rps, {CORES} cores)\n",
        sweep.capacity_rps, sweep.base_rate_rps,
    );
    out.push_str(&format!(
        "{:>6} {:>10} {:>12} {:>12} {:>9} {:>10} {:>12}\n",
        "storm", "isolation", "offered rps", "goodput rps", "slo met", "rtt p99", "hog clipped"
    ));
    for p in &sweep.points {
        out.push_str(&format!(
            "{:>5.0}x {:>10} {:>12.0} {:>12.0} {:>8.0}% {:>8.1}us {:>12}\n",
            p.storm,
            if p.isolation { "on" } else { "off" },
            p.offered_rps,
            p.goodput_rps(),
            p.slo_met_frac() * 100.0,
            p.report.rtt.p99_us(),
            p.hog_clipped(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore]
    fn debug_dump() {
        let sweep = run(91);
        println!("{}", render(&sweep));
        for p in &sweep.points {
            println!(
                "--- storm {}x isolation={}: offered {} completed {} dropped {}",
                p.storm, p.isolation, p.report.offered, p.report.completed, p.report.dropped
            );
            for (k, v) in p.report.metrics.counters() {
                if v > 0 && !k.starts_with("rpc.tenant.offered") {
                    println!("    {k} = {v}");
                }
            }
        }
    }

    #[test]
    fn isolation_keeps_slos_through_the_storm() {
        // The acceptance bar: at the 10x storm, >= 95% of tenants meet
        // their p99 SLO with isolation on while the unbounded baseline
        // drops below 50%; with no storm the two worlds agree.
        let sweep = run(91);
        assert!(
            sweep.capacity_rps > 500_000.0,
            "implausible capacity {:.0}",
            sweep.capacity_rps
        );
        for isolation in [false, true] {
            let p = sweep.point(1.0, isolation).expect("quiet arm");
            assert!(
                p.slo_met_frac() >= 0.95,
                "quiet world (isolation={isolation}): only {:.0}% met their SLO",
                p.slo_met_frac() * 100.0
            );
        }
        let on = sweep.point(10.0, true).expect("storm arm");
        let off = sweep.point(10.0, false).expect("storm arm");
        assert!(
            on.slo_met_frac() >= 0.95,
            "10x storm with isolation: only {:.0}% met their SLO",
            on.slo_met_frac() * 100.0
        );
        assert!(
            off.slo_met_frac() < 0.50,
            "10x storm unbounded: {:.0}% met their SLO — the baseline did not collapse",
            off.slo_met_frac() * 100.0
        );
        // Non-vacuity: the isolation arm really clipped the hog at
        // ingress, and the baseline clipped nothing.
        assert!(on.hog_clipped() > 0, "the storm was never rate-limited");
        assert_eq!(off.hog_clipped(), 0, "the baseline must not clip");
    }

    #[test]
    fn storm_damage_is_confined_to_the_hog() {
        // With isolation on at 10x, the victims' aggregate goodput
        // stays within a few percent of their quiet-world goodput: the
        // storm is the hog's problem.
        let sweep = run(93);
        let quiet = sweep.point(1.0, true).expect("quiet arm");
        let storm = sweep.point(10.0, true).expect("storm arm");
        let victims = |p: &TenantPoint| -> u64 {
            (0..TENANTS as u16)
                .filter(|&t| t != HOG)
                .map(|t| {
                    p.report
                        .metrics
                        .get_counter(&format!("rpc.tenant.completed.s{t}"))
                        .unwrap_or(0)
                })
                .sum()
        };
        let (q, s) = (victims(quiet), victims(storm));
        assert!(q > 0, "no victim traffic in the quiet world");
        assert!(
            s as f64 >= 0.93 * q as f64,
            "victims' goodput fell {q} -> {s} under the hog's storm"
        );
    }
}
