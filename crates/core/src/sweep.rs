//! The sweep executor: run many `(stack, workload)` points serially or
//! fanned out over threads, with bit-identical results either way.
//!
//! Every experiment that used to hand-roll a `for stack { for load {
//! for seed { ... } } }` nest goes through here now. Each point is an
//! independent simulation with its own RNG streams (derived from the
//! workload seed, never from shared state), so the parallel executor
//! is embarrassingly parallel: a work-stealing index over the point
//! list, results written back into place. Determinism is pinned by
//! `serial_equals_parallel` in the determinism test suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lauberhorn_rpc::{Report, WorkloadSpec};

use crate::experiment::Experiment;

/// One point of a sweep: a configured experiment (stack and machine
/// shape) and the workload to offer it.
#[derive(Clone)]
pub struct SweepPoint {
    /// The stack under test and its machine shape.
    pub experiment: Experiment,
    /// The workload to offer it.
    pub workload: WorkloadSpec,
}

impl SweepPoint {
    /// A point running `workload` on `experiment`.
    pub fn new(experiment: Experiment, workload: WorkloadSpec) -> Self {
        SweepPoint {
            experiment,
            workload,
        }
    }

    /// Runs this point in isolation.
    pub fn run(&self) -> Report {
        self.experiment.run(&self.workload)
    }
}

/// Runs every point in order on the calling thread.
pub fn run_serial(points: &[SweepPoint]) -> Vec<Report> {
    points.iter().map(SweepPoint::run).collect()
}

/// Runs every point across `threads` OS threads (`0` = one per
/// available core). Reports come back in point order and are
/// bit-identical to [`run_serial`]: points share nothing, and each
/// simulation's randomness derives only from its workload seed.
pub fn run_parallel(points: &[SweepPoint], threads: usize) -> Vec<Report> {
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(points.len().max(1));
    if threads <= 1 {
        return run_serial(points);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Report>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else {
                    break;
                };
                let report = point.run();
                *slots[i].lock().expect("no panics while holding the lock") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker did not panic")
                .expect("every point was claimed and run")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::StackKind;

    #[test]
    fn parallel_preserves_point_order() {
        let points: Vec<SweepPoint> = (0..6)
            .map(|seed| {
                SweepPoint::new(
                    Experiment::new(StackKind::LauberhornEnzian),
                    WorkloadSpec::echo_closed(64, 1, seed),
                )
            })
            .collect();
        let reports = run_parallel(&points, 3);
        assert_eq!(reports.len(), points.len());
        for r in &reports {
            assert_eq!(r.stack, "lauberhorn/enzian-eci");
            assert!(r.completed > 0);
        }
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let points = [SweepPoint::new(
            Experiment::new(StackKind::KernelModern),
            WorkloadSpec::echo_closed(32, 1, 9),
        )];
        let reports = run_parallel(&points, 0);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].completed > 0);
    }
}
