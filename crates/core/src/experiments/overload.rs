//! Extension experiment: admission, shedding, and graceful degradation
//! under saturation.
//!
//! The paper's §4–§5 position — the NIC, as a trusted OS component
//! holding the scheduling state, is where per-packet admission belongs
//! — is only worth holding if it buys robustness. This experiment
//! saturates all three stacks with an adversarial tenant mix and
//! compares two worlds:
//!
//! * **unprotected** — unbounded queues, no admission control: clients
//!   with finite patience (a retry give-up timer) watch their requests
//!   rot in ever-deeper queues, and goodput collapses as offered load
//!   crosses capacity;
//! * **protected** — bounded queues with drop-tail + deadline shedding,
//!   NIC-side weighted fair admission, and pushback NACKs driving
//!   client AIMD pacing: goodput plateaus near capacity no matter how
//!   far past saturation the offered load goes.
//!
//! Capacity is calibrated per stack (closed-loop saturation
//! throughput), then offered load sweeps 0.5×–4× of it. The checked
//! predictions:
//!
//! * below capacity the two worlds are equivalent (admission admits
//!   everything);
//! * at ≥ 2× capacity the protected Lauberhorn stack keeps goodput at
//!   ≥ 90 % of calibrated capacity while the unprotected one collapses;
//! * NIC-side fair admission keeps every tenant's admitted share
//!   within 10 % of its fair weight even though tenant 0 offers 5× the
//!   load of the others (no cross-service starvation).

use crate::experiment::{saturation_rps, Experiment, StackKind};
use crate::sweep::{self, SweepPoint};
use lauberhorn_rpc::{Report, RetryPolicy, ServiceSpec, WorkloadSpec};
use lauberhorn_sim::{OverloadConfig, SimDuration};
use lauberhorn_workload::{SizeDist, TenantMix};

/// Offered load as multiples of calibrated capacity.
pub const MULTIPLIERS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// The compared stacks.
pub const STACKS: [StackKind; 3] = [
    StackKind::LauberhornCxl,
    StackKind::BypassModern,
    StackKind::KernelModern,
];

/// Tenants (one service each); tenant 0 is the adversary.
pub const TENANTS: usize = 4;
/// The adversary offers 5× each other tenant's rate.
pub const HOG_FACTOR: f64 = 5.0;
/// Client patience: a request unanswered this long is abandoned.
pub const CLIENT_PATIENCE: SimDuration = SimDuration::from_us(500);
/// Server-side deadline budget for queued work (shed past this).
const DEADLINE_BUDGET: SimDuration = SimDuration::from_us(200);
/// Bounded queue capacity per endpoint/socket/core backlog. With
/// [`HANDLER_CYCLES`] handlers a full queue's head-of-line wait stays
/// well inside [`CLIENT_PATIENCE`], so admitted work completes usefully.
const QUEUE_CAP: usize = 32;
/// Handler cost per request. Deliberately heavy (5 µs at 2 GHz) so the
/// handler cores — not the wire or the dispatch path — are the
/// capacity bottleneck, and "2× capacity" genuinely saturates them.
const HANDLER_CYCLES: u64 = 10_000;
/// Measured load window per point.
const DURATION_MS: u64 = 10;

/// The full protection the tentpole arms: bounded queues, deadline
/// shedding, equal-weight fair admission, and client pushback.
pub fn shed_config() -> OverloadConfig {
    OverloadConfig::drop_tail(QUEUE_CAP)
        .with_deadline(DEADLINE_BUDGET)
        .with_fairness(&[])
        .with_pushback()
}

/// The fairness probe's configuration: admission control without
/// pushback. The probe isolates the NIC-side fair-admission mechanism:
/// with AIMD pacing on, the (stack-wide) pacer throttles the meek
/// tenants' demand below their fair share, at which point max-min
/// correctly hands their unused share to the hog and "admitted share ≈
/// fair share" is no longer the right prediction.
pub fn fairness_config() -> OverloadConfig {
    OverloadConfig::drop_tail(QUEUE_CAP)
        .with_deadline(DEADLINE_BUDGET)
        .with_fairness(&[])
}

/// The tenants' service table (one heavy-handler service per tenant).
pub fn services() -> Vec<ServiceSpec> {
    ServiceSpec::uniform(TENANTS, HANDLER_CYCLES, 32)
}

/// The sweep workload at `rate_rps`: open Poisson over the adversarial
/// tenant mix, finite client patience, and the given overload policy
/// ([`shed_config`], [`fairness_config`], or the unbounded melt-down
/// baseline).
pub fn workload(rate_rps: f64, overload: OverloadConfig, seed: u64) -> WorkloadSpec {
    workload_for(rate_rps, overload, seed, DURATION_MS)
}

/// [`workload`] with an explicit load-window length (the scale knob
/// stretches the window, multiplying request count at fixed rates).
pub fn workload_for(
    rate_rps: f64,
    overload: OverloadConfig,
    seed: u64,
    duration_ms: u64,
) -> WorkloadSpec {
    let mut wl = WorkloadSpec::open_poisson(
        rate_rps,
        TENANTS,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        duration_ms,
        seed,
    );
    wl.mix = TenantMix::adversarial(TENANTS, HOG_FACTOR).to_mix();
    wl.warmup = 100;
    wl.with_retry(RetryPolicy::give_up_after(CLIENT_PATIENCE))
        .with_overload(overload)
}

/// Calibrates `stack`'s capacity: its closed-loop saturation
/// throughput on the sweep's two cores and tenant services.
pub fn calibrate(stack: StackKind, seed: u64) -> f64 {
    saturation_rps(stack, 2, services(), seed)
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Stack under test.
    pub stack: StackKind,
    /// Offered load as a multiple of calibrated capacity.
    pub multiplier: f64,
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Whether overload control was armed.
    pub shed: bool,
    /// Nominal load-window length this point was measured over, ms.
    pub duration_ms: u64,
    /// Measured report.
    pub report: Report,
}

impl OverloadPoint {
    /// Goodput: completions per second of nominal load window (the
    /// report's own duration stretches slightly past the window while
    /// stragglers resolve, which would flatter collapse).
    pub fn goodput_rps(&self) -> f64 {
        self.report.completed as f64 / (self.duration_ms.max(1) as f64 / 1e3)
    }
}

/// The whole sweep: per-stack calibrated capacity plus every point.
#[derive(Debug, Clone)]
pub struct OverloadSweep {
    /// `(stack, capacity_rps)` in [`STACKS`] order.
    pub capacity: Vec<(StackKind, f64)>,
    /// Points in `stack × multiplier × {off, on}` order.
    pub points: Vec<OverloadPoint>,
    /// The fairness probe: Lauberhorn at [`FAIRNESS_MULTIPLIER`]×
    /// capacity with [`fairness_config`] (admission without pushback).
    pub fairness: OverloadPoint,
}

impl OverloadSweep {
    /// Calibrated capacity of `stack`.
    pub fn capacity_of(&self, stack: StackKind) -> f64 {
        self.capacity
            .iter()
            .find(|(s, _)| *s == stack)
            .map(|(_, c)| *c)
            .unwrap_or(0.0)
    }

    /// The point for `(stack, multiplier, shed)`.
    pub fn point(&self, stack: StackKind, multiplier: f64, shed: bool) -> Option<&OverloadPoint> {
        self.points
            .iter()
            .find(|p| p.stack == stack && p.multiplier == multiplier && p.shed == shed)
    }

    /// Per-tenant admitted counts at the fairness probe.
    pub fn admitted_by_tenant(&self) -> Vec<u64> {
        (0..TENANTS as u16)
            .map(|t| {
                self.fairness
                    .report
                    .metrics
                    .get_counter(&format!("nic-lauberhorn.overload.admitted.s{t}"))
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Offered load of the fairness probe, in multiples of capacity. At 3×
/// every tenant — the meek ones included — demands more than its fair
/// quarter, so "admitted share ≈ fair share" is the max-min prediction.
pub const FAIRNESS_MULTIPLIER: f64 = 3.0;

/// Runs the sweep: calibrate capacity per stack, then
/// `STACKS × MULTIPLIERS × {unprotected, protected}` plus the fairness
/// probe in parallel.
pub fn run(seed: u64) -> OverloadSweep {
    run_scaled(seed, 1)
}

/// [`run`] with the measured load window stretched by `scale`:
/// calibration and the offered-load multipliers are unchanged, so each
/// point sees the same per-second conditions over `scale`× the requests
/// (all hot counters are u64 — no overflow risk at any feasible scale).
pub fn run_scaled(seed: u64, scale: u64) -> OverloadSweep {
    let duration_ms = DURATION_MS * scale.max(1);
    let capacity: Vec<(StackKind, f64)> = STACKS.iter().map(|&s| (s, calibrate(s, seed))).collect();
    let mut points = Vec::new();
    for &(stack, cap) in &capacity {
        for &m in &MULTIPLIERS {
            for shed in [false, true] {
                let cfg = if shed {
                    shed_config()
                } else {
                    OverloadConfig::unbounded_baseline()
                };
                points.push(SweepPoint::new(
                    Experiment::new(stack).cores(2).services(services()),
                    workload_for(cap * m, cfg, seed, duration_ms),
                ));
            }
        }
    }
    let lb_cap = capacity[0].1;
    points.push(SweepPoint::new(
        Experiment::new(StackKind::LauberhornCxl)
            .cores(2)
            .services(services()),
        workload_for(
            lb_cap * FAIRNESS_MULTIPLIER,
            fairness_config(),
            seed,
            duration_ms,
        ),
    ));
    let reports = sweep::run_parallel(&points, 0);
    let mut it = reports.into_iter();
    let mut out = Vec::with_capacity(points.len());
    for &(stack, cap) in &capacity {
        for &m in &MULTIPLIERS {
            for shed in [false, true] {
                out.push(OverloadPoint {
                    stack,
                    multiplier: m,
                    offered_rps: cap * m,
                    shed,
                    duration_ms,
                    report: it.next().expect("one report per point"),
                });
            }
        }
    }
    let fairness = OverloadPoint {
        stack: StackKind::LauberhornCxl,
        multiplier: FAIRNESS_MULTIPLIER,
        offered_rps: lb_cap * FAIRNESS_MULTIPLIER,
        shed: true,
        duration_ms,
        report: it.next().expect("fairness probe report"),
    };
    OverloadSweep {
        capacity,
        points: out,
        fairness,
    }
}

/// Renders the sweep table.
pub fn render(sweep: &OverloadSweep) -> String {
    let mut out = String::from(
        "Overload sweep — goodput vs offered load, unprotected vs shed \
         (adversarial 4-tenant mix, finite client patience, 2 cores)\n",
    );
    for &(stack, cap) in &sweep.capacity {
        out.push_str(&format!(
            "\n== {}   calibrated capacity: {:.0} rps\n",
            stack.name(),
            cap
        ));
        out.push_str(&format!(
            "{:>6} {:>12} {:>6} {:>12} {:>9} {:>10} {:>8} {:>8}\n",
            "x cap",
            "offered rps",
            "shed",
            "goodput rps",
            "good/cap",
            "rtt p99",
            "dropped",
            "nacks"
        ));
        for p in sweep.points.iter().filter(|p| p.stack == stack) {
            let nacks = p
                .report
                .metrics
                .get_counter("rpc.overload.pushbacks")
                .unwrap_or(0);
            out.push_str(&format!(
                "{:>6.1} {:>12.0} {:>6} {:>12.0} {:>8.1}% {:>8.1}us {:>8} {:>8}\n",
                p.multiplier,
                p.offered_rps,
                if p.shed { "on" } else { "off" },
                p.goodput_rps(),
                p.goodput_rps() / cap.max(1.0) * 100.0,
                p.report.rtt.p99_us(),
                p.report.dropped,
                nacks,
            ));
        }
    }
    // The fairness probe: per-tenant admitted shares under NIC-side
    // fair admission (Lauberhorn only; a DMA dataplane has no
    // per-service view).
    let admitted = sweep.admitted_by_tenant();
    let total: u64 = admitted.iter().sum();
    out.push_str(&format!(
        "\nFairness probe — lauberhorn/cxl-server at {FAIRNESS_MULTIPLIER}x, \
         tenant 0 offering {HOG_FACTOR}x each other tenant:\n"
    ));
    for (t, &a) in admitted.iter().enumerate() {
        out.push_str(&format!(
            "  tenant {t}: admitted {a:>6}  share {:>5.1}%  (fair: {:.1}%)\n",
            a as f64 / total.max(1) as f64 * 100.0,
            100.0 / TENANTS as f64,
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
        let sweep = run(85);
        println!("{}", render(&sweep));
        for (stack, m, shed) in [
            (StackKind::LauberhornCxl, 2.0, true),
            (StackKind::LauberhornCxl, 2.0, false),
            (StackKind::LauberhornCxl, 4.0, true),
            (StackKind::LauberhornCxl, 4.0, false),
        ] {
            let p = sweep.point(stack, m, shed).unwrap();
            println!(
                "--- {} {m}x shed={shed}: offered {} completed {} dropped {} dups {} rex {} to {}",
                stack.name(),
                p.report.offered,
                p.report.completed,
                p.report.dropped,
                p.report.faults.dup_responses,
                p.report.faults.retries_exhausted,
                p.report.faults.timeouts,
            );
            for (k, v) in p.report.metrics.counters() {
                if v > 0 {
                    println!("    {k} = {v}");
                }
            }
        }
    }

    #[test]
    fn shedding_preserves_goodput_where_collapse_reigns() {
        // The acceptance bar, at >= 2x capacity on Lauberhorn:
        //
        // * protected goodput stays >= 90% of the calibrated capacity
        //   (in practice it exceeds it — the closed-loop probe is a
        //   conservative capacity estimate);
        // * unprotected goodput shows the congestion-collapse
        //   signature: strictly *decreasing* in offered load past
        //   saturation, as ever-deeper queues age every request past
        //   the clients' patience;
        // * the protection is worth at least 40% more goodput at 2x
        //   and beyond.
        let sweep = run(81);
        let cap = sweep.capacity_of(StackKind::LauberhornCxl);
        assert!(cap > 100_000.0, "implausible capacity {cap}");
        for &m in &[2.0, 4.0] {
            let on = sweep
                .point(StackKind::LauberhornCxl, m, true)
                .expect("point exists");
            let off = sweep
                .point(StackKind::LauberhornCxl, m, false)
                .expect("point exists");
            assert!(
                on.goodput_rps() >= 0.9 * cap,
                "{m}x protected goodput {:.0} < 90% of capacity {:.0}",
                on.goodput_rps(),
                cap
            );
            assert!(
                on.goodput_rps() >= 1.4 * off.goodput_rps(),
                "{m}x: protection bought too little ({:.0} vs {:.0})",
                on.goodput_rps(),
                off.goodput_rps()
            );
        }
        let g = |m: f64| {
            sweep
                .point(StackKind::LauberhornCxl, m, false)
                .expect("point exists")
                .goodput_rps()
        };
        assert!(
            g(1.0) > g(2.0) && g(2.0) > g(4.0),
            "unprotected goodput did not collapse monotonically: \
             {:.0} -> {:.0} -> {:.0}",
            g(1.0),
            g(2.0),
            g(4.0)
        );
    }

    #[test]
    fn below_capacity_shedding_changes_nothing_much() {
        // At 0.5x capacity admission admits everything: protected and
        // unprotected goodput agree within a few percent on every
        // stack.
        let sweep = run(83);
        for &stack in &STACKS {
            let on = sweep.point(stack, 0.5, true).expect("point");
            let off = sweep.point(stack, 0.5, false).expect("point");
            let (g_on, g_off) = (on.goodput_rps(), off.goodput_rps());
            assert!(
                (g_on - g_off).abs() / g_off.max(1.0) < 0.05,
                "{}: 0.5x goodput diverged ({g_on:.0} vs {g_off:.0})",
                stack.name()
            );
        }
    }

    #[test]
    fn fair_admission_protects_the_meek_tenants() {
        // Tenant 0 offers 5x each other tenant; at the probe's 3x
        // overload every tenant demands more than its fair quarter.
        // With NIC-side fair admission armed, every tenant's admitted
        // share must sit within 10% (absolute) of its fair 25%.
        let sweep = run(85);
        let admitted = sweep.admitted_by_tenant();
        let total: u64 = admitted.iter().sum();
        assert!(total > 0, "nothing admitted at the fairness probe");
        for (t, &a) in admitted.iter().enumerate() {
            let share = a as f64 / total as f64;
            assert!(
                (share - 1.0 / TENANTS as f64).abs() <= 0.10,
                "tenant {t}: admitted share {share:.3} strays from fair 0.25"
            );
        }
        // The hog was actually refused work (non-vacuity).
        let hog_shed = sweep
            .fairness
            .report
            .metrics
            .get_counter("nic-lauberhorn.overload.shed.s0")
            .unwrap_or(0);
        assert!(hog_shed > 0, "the hog was never shed at 3x");
    }

    #[test]
    fn every_stack_sheds_rather_than_collapses() {
        // The kernel and bypass analogues (bounded backlogs + deadline
        // budget) must also beat their unprotected selves at 4x.
        let sweep = run(87);
        for &stack in &STACKS {
            let on = sweep.point(stack, 4.0, true).expect("point");
            let off = sweep.point(stack, 4.0, false).expect("point");
            assert!(
                on.goodput_rps() > off.goodput_rps(),
                "{}: protected 4x goodput {:.0} <= unprotected {:.0}",
                stack.name(),
                on.goodput_rps(),
                off.goodput_rps()
            );
            // And the shed counters actually moved.
            let shed: u64 = on
                .report
                .metrics
                .counters()
                .filter(|(k, _)| k.ends_with(".overload.shed"))
                .map(|(_, v)| v)
                .sum();
            assert!(shed > 0, "{}: no sheds recorded at 4x", stack.name());
        }
    }
}
