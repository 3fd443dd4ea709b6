//! Golden `Report::digest()`s (`golden/digests.txt`) of short seeded
//! runs: every stack's echo fast path, wire loss with retransmission,
//! the TENANT isolated storm under the flight recorder, the NICFAIL
//! reset (endpoint restore), C4's bypass rebind-every-epoch, the DMA
//! stacks' overload shedding and request-frame corruption on the FAULT
//! stacks. Each arm asserts it reached its path. After an *intentional*
//! change:
//! `BLESS=1 cargo test -p lauberhorn --test golden_digests`.

use lauberhorn::experiments::{fault, nicfail, overload, tenant};
use lauberhorn::prelude::*;
use lauberhorn::rpc::RetryPolicy;
use lauberhorn::sim::fault::{FaultPlan, FaultSpec, NicFaultKind};
use lauberhorn::sim::ObserveSpec;

const SEED: u64 = 7;

fn poisson(rate_rps: f64, services: usize, duration_ms: u64) -> WorkloadSpec {
    let bytes = SizeDist::Fixed { bytes: 64 };
    WorkloadSpec::open_poisson(rate_rps, services, 0.0, bytes, duration_ms, SEED)
}

/// Each arm: label, experiment, workload, and the counter that proves
/// the arm reached the path it pins ("": completed requests).
fn arms() -> Vec<(String, Experiment, WorkloadSpec, &'static str)> {
    let mut arms = Vec::new();
    for stack in StackKind::all() {
        let label = format!("echo/{}", stack.name());
        let wl = WorkloadSpec::echo_closed(64, 2, SEED);
        arms.push((label, Experiment::new(stack), wl, ""));
    }
    for stack in fault::STACKS {
        let mut wl = poisson(60_000.0, 1, 4).with_faults(FaultPlan::wire_loss(0.02));
        wl.warmup = 20;
        let wl = wl.with_retry(RetryPolicy::same_rack());
        let label = format!("loss/{}", stack.name());
        arms.push((label, Experiment::new(stack), wl, "rpc.retry.retransmits"));
    }
    let wl = tenant::workload(10.0, true, 400_000.0, SEED, 2);
    let wl = wl.with_observe(ObserveSpec::flight(64));
    let exp = Experiment::new(tenant::STACK).cores(4);
    let exp = exp.services(tenant::services());
    let label = "tenant/isolated-storm".to_string();
    arms.push((label, exp, wl, "nic-lauberhorn.overload.shed"));
    let wl = nicfail::workload_for(400_000.0, Some(NicFaultKind::Reset), SEED, 2);
    let exp = Experiment::new(nicfail::STACK).cores(4);
    let exp = exp.services(nicfail::services());
    let label = "nicfail/reset".to_string();
    arms.push((label, exp, wl, "os.watchdog.resets_recovered"));
    let mut wl = poisson(300_000.0, 24, 3);
    wl.mix = DynamicMix::new(24, 1.8, 5, 500);
    wl.warmup = 100;
    let exp = Experiment::new(StackKind::BypassModern).cores(4);
    let exp = exp.services(ServiceSpec::uniform(24, 6_000, 32));
    let label = "c4/bypass-rebind".to_string();
    arms.push((label, exp.rebind_on_epoch(true), wl, "bypass.rebinds"));
    for (stack, witness) in [
        (StackKind::BypassModern, "bypass.overload.shed"),
        (StackKind::KernelModern, "os.overload.shed"),
    ] {
        let wl = overload::workload_for(1_000_000.0, overload::shed_config(), SEED, 2);
        let exp = Experiment::new(stack)
            .cores(2)
            .services(overload::services());
        let label = format!("shed/{}", stack.name());
        arms.push((label, exp, wl, witness));
    }
    for stack in fault::STACKS {
        let corrupt = FaultPlan {
            wire_tx: FaultSpec {
                corrupt: 0.02,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut wl = poisson(60_000.0, 1, 4).with_faults(corrupt);
        wl.warmup = 20;
        let wl = wl.with_retry(RetryPolicy::same_rack());
        let label = format!("corrupt/{}", stack.name());
        let witness = "rpc.wire.checksum_dropped";
        arms.push((label, Experiment::new(stack), wl, witness));
    }
    arms
}

#[test]
fn report_digests_match_golden_fixture() {
    let mut got = String::new();
    for (label, exp, wl, witness) in arms() {
        let r = exp.run(&wl);
        let reached = match witness {
            "" => r.completed,
            key => r.metrics.get_counter(key).unwrap_or(0),
        };
        assert!(reached > 0, "{label} never reached the path it pins");
        got.push_str(&format!("{label} {:#018x}\n", r.digest()));
    }
    if std::env::var_os("BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.txt");
        std::fs::write(path, &got).expect("write golden fixture");
        return;
    }
    let want = include_str!("golden/digests.txt");
    assert_eq!(got, want, "report digests drifted (BLESS=1 regenerates)");
}
