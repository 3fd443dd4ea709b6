//! Tier-1 observability guarantees (DESIGN.md §11).
//!
//! 1. **Zero perturbation**: enabling span tracing must not change a
//!    single bit of any report — the tracer never touches the event
//!    queue, the RNG, or simulated time, and metrics come from
//!    counters the components maintain anyway. The
//!    check is `Report::digest()` equality, which folds in every
//!    numeric field, every latency summary, and every metrics entry.
//! 2. **Span balance**: every recorded span closes, parents are
//!    recorded before their children, and a parent's interval contains
//!    its children's — on every stack, including capped tracers.
//! 3. **Exact decomposition**: the critical-path extraction slices
//!    every request's end-to-end latency into contiguous per-stage
//!    segments whose durations sum back EXACTLY (integer picoseconds,
//!    no residue) — on every stack, under faults and under overload.
//! 4. **One record, one exit** (DESIGN.md §18): after a run, live
//!    request records = offered − completed − dropped, and per-service
//!    blame attribution stays within the tracer's span/tree bounds.

use lauberhorn::prelude::*;
use lauberhorn::rpc::{driver, RetryPolicy};
use lauberhorn::sim::fault::FaultPlan;
use lauberhorn::sim::{critical_paths, ObserveSpec};

fn digest(kind: StackKind, wl: &WorkloadSpec) -> u64 {
    Experiment::new(kind).run(wl).digest()
}

#[test]
fn observability_never_perturbs_clean_runs() {
    let base = WorkloadSpec::echo_closed(64, 2, 11);
    for stack in StackKind::all() {
        let blind = digest(stack, &base);
        let spans_only = digest(
            stack,
            &base.clone().with_observe(ObserveSpec::spans(1 << 16)),
        );
        let full = digest(stack, &base.clone().with_observe(ObserveSpec::full()));
        assert_eq!(
            blind,
            spans_only,
            "{}: span tracing perturbed the report",
            stack.name()
        );
        assert_eq!(
            blind,
            full,
            "{}: full observability perturbed the report",
            stack.name()
        );
    }
}

#[test]
fn observability_never_perturbs_faulty_runs() {
    // The hard case: wire loss, retransmission, and dedup exercise the
    // abandon/replay paths where a stray span could most plausibly
    // leak into scheduling.
    let base = WorkloadSpec::open_poisson(150_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 4, 13)
        .with_faults(FaultPlan::wire_loss(0.05))
        .with_retry(RetryPolicy::same_rack());
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        let blind = digest(stack, &base);
        let full = digest(stack, &base.clone().with_observe(ObserveSpec::full()));
        assert_eq!(
            blind,
            full,
            "{}: observability perturbed a faulty run",
            stack.name()
        );
    }
}

#[test]
fn spans_balance_on_every_stack() {
    let wl = WorkloadSpec::echo_closed(64, 1, 5).with_observe(ObserveSpec::full());
    for stack in StackKind::all() {
        let mut s = Experiment::new(stack).build();
        let report = driver::run(&mut *s, &wl);
        assert!(report.completed > 0, "{}", stack.name());
        let tracer = &s.common().tracer;
        assert!(
            !tracer.spans().is_empty(),
            "{}: tracing on but no spans",
            stack.name()
        );
        assert_eq!(tracer.open_count(), 0, "{}: open spans", stack.name());
        if let Err(e) = tracer.check_balance() {
            panic!("{}: {e}", stack.name());
        }
    }
}

#[test]
fn critical_path_decomposition_is_exact_on_every_stack() {
    // The exact-sum invariant: for EVERY traced request, the segment
    // durations of its critical path sum to its end-to-end latency —
    // with integer picoseconds there is no rounding to hide behind.
    // Clean, faulty, and overloaded workloads all have to satisfy it.
    let clean = WorkloadSpec::echo_closed(64, 2, 11).with_observe(ObserveSpec::full());
    let faulty =
        WorkloadSpec::open_poisson(150_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 4, 13)
            .with_faults(FaultPlan::wire_loss(0.05))
            .with_retry(RetryPolicy::same_rack())
            .with_observe(ObserveSpec::full());
    let overloaded =
        WorkloadSpec::open_poisson(300_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 5, 2)
            .with_observe(ObserveSpec::full());
    for stack in StackKind::all() {
        for (label, wl) in [
            ("clean", &clean),
            ("faulty", &faulty),
            ("overloaded", &overloaded),
        ] {
            let mut s = Experiment::new(stack).build();
            let report = driver::run(&mut *s, wl);
            let paths = critical_paths(s.common().tracer.spans());
            assert!(
                !paths.is_empty(),
                "{} ({label}): no critical paths extracted",
                stack.name()
            );
            for p in &paths {
                if let Err(e) = p.check_exact() {
                    panic!("{} ({label}): request {}: {e}", stack.name(), p.request_id);
                }
            }
            // The report's blame profile aggregates those same paths:
            // class totals must re-sum to the attributed total.
            let blame = report
                .blame
                .as_ref()
                .unwrap_or_else(|| panic!("{} ({label}): no blame profile", stack.name()));
            assert_eq!(
                blame.by_class_ps.iter().sum::<u64>(),
                blame.total_ps,
                "{} ({label}): class blame does not re-sum",
                stack.name()
            );
            assert_eq!(blame.requests, paths.len() as u64, "{}", stack.name());
        }
    }
}

#[test]
fn flight_recorder_keeps_zero_perturbation() {
    // The recorder arms the recycle-mode tracer, the streaming p99
    // estimator, and critical-path blame over retained outliers — and
    // still must not move a single bit of the report digest.
    let clean = WorkloadSpec::echo_closed(64, 2, 11);
    for stack in StackKind::all() {
        let blind = digest(stack, &clean);
        let armed = digest(stack, &clean.clone().with_observe(ObserveSpec::flight(32)));
        assert_eq!(
            blind,
            armed,
            "{}: flight recorder perturbed a clean run",
            stack.name()
        );
    }
    let faulty =
        WorkloadSpec::open_poisson(150_000.0, 1, 0.0, SizeDist::Fixed { bytes: 64 }, 4, 13)
            .with_faults(FaultPlan::wire_loss(0.05))
            .with_retry(RetryPolicy::same_rack());
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        let blind = digest(stack, &faulty);
        let armed = digest(stack, &faulty.clone().with_observe(ObserveSpec::flight(32)));
        assert_eq!(
            blind,
            armed,
            "{}: flight recorder perturbed a faulty run",
            stack.name()
        );
    }
}

#[test]
fn nic_reset_episode_balances_spans_and_blames_recovery() {
    use lauberhorn::sim::fault::NicFaultKind;
    use lauberhorn::sim::SimDuration;
    // The PR 7 failure-domain episode with tracing on: a full NIC
    // reset mid-run pauses the link, backlogs arrivals, and replays
    // them after shadow reconstruction. The tracer must stay balanced
    // through the force-close window, and the requests that waited out
    // the outage must show the wait as a `recovery` segment on their
    // critical path.
    // The degraded window is a handful of microseconds (detection +
    // shadow reconstruction), so drive arrivals at 1M rps to land
    // several frames inside it.
    let plan = FaultPlan::nic_fault(NicFaultKind::Reset, SimDuration::from_ms(2));
    let mut wl =
        WorkloadSpec::open_poisson(1_000_000.0, 2, 0.5, SizeDist::Fixed { bytes: 64 }, 10, 11);
    wl.warmup = 100;
    let wl = wl.with_faults(plan).with_retry(RetryPolicy::same_rack());
    let traced = wl.clone().with_observe(ObserveSpec::full());
    let mut s = Experiment::new(StackKind::LauberhornEnzian)
        .cores(4)
        .services(ServiceSpec::uniform(2, 1000, 32))
        .build();
    let report = driver::run(&mut *s, &traced);
    let tracer = &s.common().tracer;
    assert_eq!(tracer.open_count(), 0, "open spans after the episode");
    if let Err(e) = tracer.check_balance() {
        panic!("tracer unbalanced across the NIC reset: {e}");
    }
    assert_eq!(
        report.metrics.get_counter("os.watchdog.resets_recovered"),
        Some(1),
        "episode did not run"
    );
    let backlogged = report
        .metrics
        .get_counter("nic.recovery.backlogged")
        .unwrap_or(0);
    assert!(backlogged > 0, "no arrivals were backlogged by the outage");
    let paths = critical_paths(tracer.spans());
    let recovery_ps: u64 = paths
        .iter()
        .flat_map(|p| &p.segments)
        .filter(|seg| seg.label() == "recovery")
        .map(|seg| seg.dur_ps())
        .sum();
    assert!(
        recovery_ps > 0,
        "no recovery segments on any critical path despite {backlogged} backlogged arrivals"
    );
    // And the blame profile surfaces the same story.
    let blame = report.blame.as_ref().expect("blame profile present");
    assert!(
        blame.by_stage_ps.get("recovery").copied().unwrap_or(0) > 0,
        "recovery stage missing from the blame profile"
    );
    // Zero perturbation holds through the episode, too.
    let blind = Experiment::new(StackKind::LauberhornEnzian)
        .cores(4)
        .services(ServiceSpec::uniform(2, 1000, 32))
        .run(&wl);
    assert_eq!(
        report.digest(),
        blind.digest(),
        "tracing perturbed the reset episode"
    );
}

#[test]
fn span_cap_sheds_load_without_breaking_balance() {
    // A tiny cap must drop spans (counted), never corrupt the ones
    // kept, and never perturb the run either.
    let base = WorkloadSpec::echo_closed(64, 1, 5);
    for stack in [StackKind::LauberhornEnzian, StackKind::KernelModern] {
        let capped = base.clone().with_observe(ObserveSpec::spans(32));
        let mut s = Experiment::new(stack).build();
        let report = driver::run(&mut *s, &capped);
        let tracer = &s.common().tracer;
        assert!(tracer.dropped() > 0, "{}: cap never hit", stack.name());
        assert!(tracer.spans().len() <= 32, "{}", stack.name());
        if let Err(e) = tracer.check_balance() {
            panic!("{}: {e}", stack.name());
        }
        assert_eq!(
            report.digest(),
            digest(stack, &base),
            "{}: capped tracing perturbed the report",
            stack.name()
        );
    }
}

/// The request-lifecycle matrix: clean, lossy, overloaded (with and
/// without pushback, and without any retry policy), tenant storm, NIC
/// reset, and process crash. Each entry is `(label, workload, services,
/// cores)`; load windows are stretched `scale`× at the same rates.
fn lifecycle_scenarios(scale: u64) -> Vec<(&'static str, WorkloadSpec, Vec<ServiceSpec>, usize)> {
    use lauberhorn::experiments::{nicfail, overload, tenant};
    use lauberhorn::sim::fault::{CrashSpec, NicFaultKind};
    use lauberhorn::sim::OverloadConfig;
    let ms = 3 * scale;
    let loss = WorkloadSpec::open_poisson(150_000.0, 2, 0.0, SizeDist::Fixed { bytes: 64 }, ms, 13)
        .with_faults(FaultPlan::wire_loss(0.01))
        .with_retry(RetryPolicy::same_rack());
    // Over twice every stack's calibrated capacity on two cores with
    // 10 000-cycle handlers (at most ~530 k rps, bypass on the PC).
    const OVERLOAD_RPS: f64 = 1_200_000.0;
    let shed = |cfg| overload::workload_for(OVERLOAD_RPS, cfg, 21, ms);
    let mut crash_plan = FaultPlan::wire_loss(0.01);
    crash_plan.crash = Some(CrashSpec {
        at: SimDuration::from_ms(ms / 2),
        service: 0,
    });
    let crash = WorkloadSpec::open_poisson(80_000.0, 2, 0.9, SizeDist::Fixed { bytes: 64 }, ms, 42)
        .with_faults(crash_plan)
        .with_retry(RetryPolicy::same_rack());
    vec![
        (
            "clean",
            WorkloadSpec::echo_closed(64, ms, 11),
            ServiceSpec::uniform(1, 1000, 32),
            4,
        ),
        ("loss", loss, ServiceSpec::uniform(2, 1000, 32), 4),
        (
            "shed+pushback",
            shed(overload::shed_config()),
            overload::services(),
            2,
        ),
        (
            "shed",
            shed(overload::fairness_config()),
            overload::services(),
            2,
        ),
        // No retry policy: every shed is a terminal stack drop.
        (
            "shed, no retry",
            WorkloadSpec::open_poisson(OVERLOAD_RPS, 2, 0.0, SizeDist::Fixed { bytes: 64 }, ms, 3)
                .with_overload(
                    OverloadConfig::drop_tail(8).with_deadline(SimDuration::from_us(50)),
                ),
            overload::services(),
            2,
        ),
        (
            "storm",
            tenant::workload(10.0, true, 300_000.0, 7, ms),
            tenant::services(),
            4,
        ),
        (
            "nic-reset",
            nicfail::workload_for(400_000.0, Some(NicFaultKind::Reset), 11, ms),
            nicfail::services(),
            4,
        ),
        ("crash", crash, ServiceSpec::uniform(2, 1000, 32), 4),
    ]
}

/// Runs one lifecycle case and checks the single-exit invariant: every
/// request the driver offered is either settled (completed or dropped)
/// or still holds exactly one live record, and the per-service blame
/// attribution stays within the tracer's own bounds. Returns the
/// attribution size.
fn check_lifecycle(
    stack: StackKind,
    label: &str,
    wl: &WorkloadSpec,
    svcs: &[ServiceSpec],
    cores: usize,
) -> usize {
    let mut s = Experiment::new(stack)
        .cores(cores)
        .services(svcs.to_vec())
        .build();
    let r = driver::run(&mut *s, wl);
    let common = s.common();
    let case = format!("{} ({label}, {:?})", stack.name(), wl.observe);
    assert!(r.offered > 0, "{case}: nothing offered");
    assert_eq!(
        common.live_requests() as u64,
        r.offered - r.completed - r.dropped,
        "{case}: live records != offered - completed - dropped"
    );
    let attributed = common.attributed_requests();
    let obs = &wl.observe;
    if !obs.spans {
        assert_eq!(attributed, 0, "{case}: attribution without tracing");
    } else if obs.flightrec {
        assert!(attributed <= obs.flight_cap, "{case}: {attributed} trees");
    } else {
        let roots = common
            .tracer
            .spans()
            .iter()
            .filter(|sp| sp.stage == lauberhorn::sim::Stage::Request)
            .count();
        assert!(
            attributed <= obs.span_cap,
            "{case}: {attributed} attributions"
        );
        assert_eq!(
            attributed, roots,
            "{case}: one attribution per recorded root"
        );
    }
    attributed
}

#[test]
fn every_request_record_retires_through_one_exit() {
    for (label, wl, svcs, cores) in lifecycle_scenarios(1) {
        for stack in StackKind::all() {
            for observe in [
                ObserveSpec::none(),
                ObserveSpec::full(),
                ObserveSpec::flight(64),
            ] {
                let wl = wl.clone().with_observe(observe);
                check_lifecycle(stack, label, &wl, &svcs, cores);
            }
        }
    }
}

#[test]
fn flight_recorder_attribution_does_not_grow_with_run_length() {
    // The storm case at 1x and 4x its load window: the flight recorder
    // keeps at most `flight_cap` attributed trees however long it runs.
    let storm = |scale| {
        lifecycle_scenarios(scale)
            .into_iter()
            .find(|(label, ..)| *label == "storm")
            .expect("storm scenario")
    };
    for stack in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ] {
        let sizes: Vec<usize> = [1, 4]
            .map(|scale| {
                let (label, wl, svcs, cores) = storm(scale);
                let wl = wl.with_observe(ObserveSpec::flight(64));
                check_lifecycle(stack, label, &wl, &svcs, cores)
            })
            .to_vec();
        assert_eq!(sizes[0], 64, "{}: ring never filled", stack.name());
        assert_eq!(
            sizes[1],
            sizes[0],
            "{}: attribution grew with run length",
            stack.name()
        );
    }
}
