//! Determinism of the sweep executor: fanning a sweep out over
//! threads must be invisible in the results. Every simulation derives
//! its randomness from its workload seed alone, so the parallel
//! executor returns reports bit-identical to the serial one, in the
//! same order. The comparison is over the full `Debug` rendering of
//! each report — every field, every histogram percentile.
//!
//! Fault injection draws from its own named RNG streams keyed off the
//! same workload seed, so the guarantee extends unchanged to sweeps
//! with nonzero loss, corruption and duplication rates.

use lauberhorn::experiment::StackKind;
use lauberhorn::prelude::*;
use lauberhorn::rpc::RetryPolicy;
use lauberhorn::sim::fault::{FaultPlan, FaultSpec};
use lauberhorn::sweep;
use lauberhorn::workload::SizeDist;

fn mixed_points() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for (i, stack) in [
        StackKind::LauberhornEnzian,
        StackKind::LauberhornCxl,
        StackKind::BypassModern,
        StackKind::BypassEnzian,
        StackKind::KernelModern,
        StackKind::KernelEnzian,
    ]
    .into_iter()
    .enumerate()
    {
        // Two points per stack: a closed-loop echo and an open Poisson
        // stream, distinct seeds so no two points share a trajectory.
        points.push(SweepPoint::new(
            Experiment::new(stack).services(ServiceSpec::uniform(2, 1000, 32)),
            WorkloadSpec::echo_closed(64, 2, 100 + i as u64),
        ));
        let mut wl = WorkloadSpec::open_poisson(
            60_000.0,
            2,
            0.9,
            SizeDist::Fixed { bytes: 64 },
            4,
            200 + i as u64,
        );
        wl.warmup = 50;
        points.push(SweepPoint::new(
            Experiment::new(stack)
                .cores(2)
                .services(ServiceSpec::uniform(2, 1000, 32)),
            wl,
        ));
    }
    points
}

fn faulty_points() -> Vec<SweepPoint> {
    // Fault-injected variants: wire loss plus corruption, duplication
    // and delay spikes, with the retry layer armed. The injectors are
    // the only new RNG consumers, and they draw from streams derived
    // from the point's own seed.
    let mut spec = FaultSpec::loss(0.01);
    spec.corrupt = 0.005;
    spec.duplicate = 0.005;
    spec.delay_spike = 0.005;
    let plan = FaultPlan {
        wire_tx: spec,
        wire_rx: spec,
        fill: FaultSpec::loss(0.002),
        crash: None,
        nic: None,
        tenant: None,
    };
    let mut points = Vec::new();
    for (i, stack) in [
        StackKind::LauberhornEnzian,
        StackKind::BypassModern,
        StackKind::KernelModern,
    ]
    .into_iter()
    .enumerate()
    {
        let mut wl = WorkloadSpec::open_poisson(
            60_000.0,
            2,
            0.9,
            SizeDist::Fixed { bytes: 64 },
            8,
            300 + i as u64,
        );
        wl.warmup = 50;
        let wl = wl.with_faults(plan).with_retry(RetryPolicy::same_rack());
        points.push(SweepPoint::new(
            Experiment::new(stack)
                .cores(2)
                .services(ServiceSpec::uniform(2, 1000, 32)),
            wl,
        ));
    }
    points
}

#[test]
fn serial_equals_parallel() {
    let points = mixed_points();
    let serial = sweep::run_serial(&points);
    let parallel = sweep::run_parallel(&points, 4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "point {i} ({}) differs between serial and parallel runs",
            s.stack
        );
    }
}

#[test]
fn parallel_is_self_consistent() {
    // Re-running the same parallel sweep (different thread counts, so
    // different work interleavings) must reproduce itself exactly.
    let points = mixed_points();
    let two = sweep::run_parallel(&points, 2);
    let many = sweep::run_parallel(&points, 8);
    for (a, b) in two.iter().zip(&many) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn fault_injected_serial_equals_parallel() {
    let points = faulty_points();
    let serial = sweep::run_serial(&points);
    let parallel = sweep::run_parallel(&points, 4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        // The faults must actually have fired, or this test checks
        // nothing new over the clean sweep.
        assert!(
            s.faults.wire_tx_lost + s.faults.wire_rx_lost > 0,
            "point {i}: no wire faults injected"
        );
        assert_eq!(
            format!("{s:?}"),
            format!("{p:?}"),
            "point {i} ({}) differs between serial and parallel runs under faults",
            s.stack
        );
    }
}

#[test]
fn fault_injected_sweep_reproduces_itself() {
    let points = faulty_points();
    let a = sweep::run_parallel(&points, 2);
    let b = sweep::run_parallel(&points, 8);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }
}
