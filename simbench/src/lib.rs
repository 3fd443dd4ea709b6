//! Host cost per simulated request for the Lauberhorn, bypass and
//! kernel stacks, with a per-layer split measured from outside the
//! simulator. See `README.md` in this directory for the metrics, the
//! workloads and why they were chosen.
//!
//! The simulator is driven only through its public entry points,
//! `Experiment::build` and `rpc::driver::run`. The layers are measured
//! by wrapping the built stack in a pass-through [`probe::Probe`] and by
//! a counting global allocator ([`alloc::Counting`]) that charges each
//! allocation to the layer executing.

pub mod alloc;
pub mod bench;
pub mod probe;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
