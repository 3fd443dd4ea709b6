//! A counting global allocator that charges every allocation to the
//! layer executing when it happens.
//!
//! Counting is always on: the end-to-end run and the traced run pay the
//! same per-allocation cost. Only the *attribution* differs — an
//! untraced run never switches layers, so everything lands on
//! [`Layer::Driver`]; the pass-through stack in [`crate::probe`] tags
//! each trait call with its own layer.
//!
//! The counters are thread-local. The benchmark generates load and
//! runs the simulator on one thread, so a thread's counters see every
//! allocation the run makes, and concurrently running tests do not
//! disturb each other's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Where host work is charged: the driver itself, one of the
/// `ServerStack` trait calls, the report tail after `finish`, stack
/// construction, or the probe's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `rpc::driver::run` outside any stack call: client generation,
    /// request building, digests, ledgers, retry timers.
    Driver,
    /// `ServerStack::step`.
    Step,
    /// `ServerStack::inject_frame`.
    Inject,
    /// `ServerStack::next_event_time`.
    Peek,
    /// `ServerStack::prepare`.
    Prepare,
    /// `ServerStack::finish`.
    Finish,
    /// The driver's report tail after `finish` returned: metrics
    /// export, critical paths, blame profile.
    Report,
    /// `Experiment::build`.
    Build,
    /// The probe's own bookkeeping.
    Probe,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 9;

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; LAYERS] = [
        Layer::Driver,
        Layer::Step,
        Layer::Inject,
        Layer::Peek,
        Layer::Prepare,
        Layer::Finish,
        Layer::Report,
        Layer::Build,
        Layer::Probe,
    ];

    /// Short name used in metric names and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Step => "step",
            Layer::Inject => "inject",
            Layer::Peek => "peek",
            Layer::Prepare => "prepare",
            Layer::Finish => "finish",
            Layer::Report => "report",
            Layer::Build => "build",
            Layer::Probe => "probe",
        }
    }

    /// Index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

struct State {
    layer: Cell<Layer>,
    calls: [Cell<u64>; LAYERS],
    bytes: [Cell<u64>; LAYERS],
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    static STATE: State = const {
        State {
            layer: Cell::new(Layer::Driver),
            calls: [const { Cell::new(0) }; LAYERS],
            bytes: [const { Cell::new(0) }; LAYERS],
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Records one allocation (`new_size` > 0, `old_size` 0) or one
/// reallocation. `try_with` because the allocator can be called while
/// the thread is being torn down.
fn note(new_size: usize, old_size: usize) {
    let _ = STATE.try_with(|s| {
        let i = s.layer.get().index();
        s.calls[i].set(s.calls[i].get() + 1);
        s.bytes[i].set(s.bytes[i].get() + new_size as u64);
        let live = s.live.get() + new_size as i64 - old_size as i64;
        s.live.set(live);
        if live > s.peak.get() {
            s.peak.set(live);
        }
    });
}

fn note_free(size: usize) {
    let _ = STATE.try_with(|s| s.live.set(s.live.get() - size as i64));
}

/// The system allocator, counting calls and requested bytes.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// bookkeeping touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Makes `layer` the one charged for allocations; returns the previous.
pub fn enter(layer: Layer) -> Layer {
    STATE.with(|s| s.layer.replace(layer))
}

/// This thread's allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation plus reallocation calls, per layer.
    pub calls: [u64; LAYERS],
    /// Bytes requested by those calls (a reallocation counts its new
    /// size), per layer.
    pub bytes: [u64; LAYERS],
    /// Live requested bytes.
    pub live: i64,
    /// Highest live requested bytes since the last [`reset_peak`].
    pub peak: i64,
}

impl Snapshot {
    /// The counters accumulated between `start` and `self`; `live` and
    /// `peak` become growth above `start.live`.
    pub fn since(&self, start: &Snapshot) -> Snapshot {
        let mut d = Snapshot {
            live: self.live - start.live,
            peak: self.peak - start.live,
            ..Snapshot::default()
        };
        for i in 0..LAYERS {
            d.calls[i] = self.calls[i] - start.calls[i];
            d.bytes[i] = self.bytes[i] - start.bytes[i];
        }
        d
    }

    /// Calls summed over every layer.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Bytes summed over every layer.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }
}

/// Reads this thread's counters.
pub fn snapshot() -> Snapshot {
    STATE.with(|s| Snapshot {
        calls: std::array::from_fn(|i| s.calls[i].get()),
        bytes: std::array::from_fn(|i| s.bytes[i].get()),
        live: s.live.get(),
        peak: s.peak.get(),
    })
}

/// Restarts peak tracking from the current live level.
pub fn reset_peak() {
    STATE.with(|s| s.peak.set(s.live.get()));
}
