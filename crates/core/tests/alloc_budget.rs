//! Allocation budget of the simulated Lauberhorn request path.
//!
//! The paper's fast path has no software on it, and the simulator of
//! that path should not lean on the heap either: NIC and endpoint
//! handlers write into caller-owned buffers, and cache lines travel by
//! value. This test counts the heap allocations `driver::run` makes per
//! offered request on a closed-loop 64 B echo (8 uniform services,
//! 1000-cycle handlers, 16 clients, 4 cores, seed 7, 2 ms window) and
//! holds the Lauberhorn stack to a fixed budget, and to no more than
//! kernel bypass.
//!
//! The counters are thread-local, so tests running in parallel on other
//! threads cannot disturb the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lauberhorn::experiment::{Experiment, StackKind};
use lauberhorn::rpc::driver;
use lauberhorn::rpc::spec::LoadMode;
use lauberhorn::rpc::{ServiceSpec, WorkloadSpec};
use lauberhorn::sim::SimDuration;
use lauberhorn::workload::DynamicMix;

/// Counts `alloc` and `realloc` calls made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown find no slot.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per offered request inside `driver::run` for `stack` on
/// the closed-loop echo.
fn allocs_per_request(stack: StackKind) -> f64 {
    let mut spec = WorkloadSpec::echo_closed(64, 2, 7);
    spec.mode = LoadMode::Closed {
        clients: 16,
        think: SimDuration::ZERO,
    };
    spec.mix = DynamicMix::stable(8, 0.0);
    let mut sim = Experiment::new(stack)
        .cores(4)
        .services(ServiceSpec::uniform(8, 1000, 32))
        .build();
    let before = ALLOCS.with(Cell::get);
    let report = driver::run(sim.as_mut(), &spec);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(report.offered > 1000, "{stack:?} ran: {}", report.offered);
    allocs as f64 / report.offered as f64
}

#[test]
fn lauberhorn_request_path_stays_within_its_allocation_budget() {
    let lauberhorn = allocs_per_request(StackKind::LauberhornEnzian);
    let bypass = allocs_per_request(StackKind::BypassModern);
    assert!(
        lauberhorn <= 5.0,
        "Lauberhorn allocates {lauberhorn:.2} times per request (budget 5)"
    );
    assert!(
        lauberhorn <= bypass,
        "Lauberhorn allocates {lauberhorn:.2} times per request, bypass {bypass:.2}"
    );
}
