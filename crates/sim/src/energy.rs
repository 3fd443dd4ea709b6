//! Per-core cycle accounting — the paper's energy-efficiency proxy.
//!
//! Lauberhorn's receive path leaves a core *stalled on a cache fill*
//! while it waits for work, whereas kernel-bypass stacks *busy-poll*.
//! Both occupy the core, but a stalled core issues no instructions and
//! (on real hardware) draws far less dynamic power. We therefore account
//! three exclusive states per core:
//!
//! * **active** — executing instructions (application or OS),
//! * **stalled** — blocked on an outstanding memory/coherence fill,
//! * **idle** — halted in the scheduler idle loop (e.g. WFI/MWAIT).
//!
//! Experiment C3 reports the active/stalled/idle split per request for
//! each stack, which is the quantitative form of the paper's "no energy
//! wasted in spinning" claim.

use crate::time::{SimDuration, SimTime};

/// What a core is doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreState {
    /// Executing instructions.
    Active,
    /// Blocked on an outstanding fill (Lauberhorn blocked load).
    Stalled,
    /// Halted / in the idle loop.
    Idle,
}

/// Accumulated time per state for one core.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleAccount {
    /// Time spent executing instructions.
    pub active: SimDuration,
    /// Time spent stalled on fills.
    pub stalled: SimDuration,
    /// Time spent halted.
    pub idle: SimDuration,
}

impl CycleAccount {
    /// Total accounted time.
    pub fn total(&self) -> SimDuration {
        self.active + self.stalled + self.idle
    }

    /// Fraction of accounted time spent active, in `[0, 1]`.
    pub fn active_fraction(&self) -> f64 {
        let t = self.total().as_ps();
        if t == 0 {
            return 0.0;
        }
        self.active.as_ps() as f64 / t as f64
    }

    /// Relative dynamic-energy proxy.
    ///
    /// Weights follow the usual rule of thumb for server cores: an
    /// actively executing core draws full dynamic power, a load-stalled
    /// core roughly a third (clock still toggling, pipelines quiesced),
    /// and a halted core roughly a twentieth.
    pub fn energy_proxy(&self) -> f64 {
        self.active.as_secs_f64()
            + 0.33 * self.stalled.as_secs_f64()
            + 0.05 * self.idle.as_secs_f64()
    }

    /// Adds another account into this one.
    pub fn merge(&mut self, other: &CycleAccount) {
        self.active += other.active;
        self.stalled += other.stalled;
        self.idle += other.idle;
    }
}

/// Tracks the state of a set of cores over simulated time.
#[derive(Debug)]
pub struct EnergyMeter {
    accounts: Vec<CycleAccount>,
    state: Vec<CoreState>,
    since: Vec<SimTime>,
}

impl EnergyMeter {
    /// Creates a meter for `cores` cores, all initially idle at t=0.
    pub fn new(cores: usize) -> Self {
        EnergyMeter {
            accounts: vec![CycleAccount::default(); cores],
            state: vec![CoreState::Idle; cores],
            since: vec![SimTime::ZERO; cores],
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.accounts.len()
    }

    /// Transitions `core` to `state` at time `now`, charging the elapsed
    /// interval to the previous state. Out-of-range cores are ignored.
    pub fn set_state(&mut self, core: usize, state: CoreState, now: SimTime) {
        self.charge(core, now);
        if let Some(s) = self.state.get_mut(core) {
            *s = state;
        }
    }

    /// Current state of `core` (out-of-range cores read as idle).
    pub fn state(&self, core: usize) -> CoreState {
        self.state.get(core).copied().unwrap_or(CoreState::Idle)
    }

    fn charge(&mut self, core: usize, now: SimTime) {
        let Some(since) = self.since.get_mut(core) else {
            return;
        };
        let dt = now.since(*since);
        *since = now;
        let state = self.state.get(core).copied();
        let Some(acct) = self.accounts.get_mut(core) else {
            return;
        };
        match state {
            Some(CoreState::Active) => acct.active += dt,
            Some(CoreState::Stalled) => acct.stalled += dt,
            Some(CoreState::Idle) | None => acct.idle += dt,
        }
    }

    /// Sum of all per-core accounts up to `now` without consuming the
    /// meter.
    pub fn snapshot_total(&mut self, now: SimTime) -> CycleAccount {
        for core in 0..self.accounts.len() {
            self.charge(core, now);
        }
        let mut total = CycleAccount::default();
        for a in &self.accounts {
            total.merge(a);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_are_charged_to_previous_state() {
        let mut m = EnergyMeter::new(1);
        m.set_state(0, CoreState::Active, SimTime::from_us(10)); // idle 0..10
        m.set_state(0, CoreState::Stalled, SimTime::from_us(30)); // active 10..30
        let account = m.snapshot_total(SimTime::from_us(100)); // stalled 30..100
        assert_eq!(account.idle, SimDuration::from_us(10));
        assert_eq!(account.active, SimDuration::from_us(20));
        assert_eq!(account.stalled, SimDuration::from_us(70));
        assert_eq!(account.total(), SimDuration::from_us(100));
    }

    #[test]
    fn energy_proxy_orders_states() {
        let active = CycleAccount {
            active: SimDuration::from_secs(1),
            ..Default::default()
        };
        let stalled = CycleAccount {
            stalled: SimDuration::from_secs(1),
            ..Default::default()
        };
        let idle = CycleAccount {
            idle: SimDuration::from_secs(1),
            ..Default::default()
        };
        assert!(active.energy_proxy() > stalled.energy_proxy());
        assert!(stalled.energy_proxy() > idle.energy_proxy());
    }

    #[test]
    fn active_fraction() {
        let a = CycleAccount {
            active: SimDuration::from_us(25),
            stalled: SimDuration::from_us(25),
            idle: SimDuration::from_us(50),
        };
        assert!((a.active_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(CycleAccount::default().active_fraction(), 0.0);
    }

    #[test]
    fn snapshot_total_sums_cores() {
        let mut m = EnergyMeter::new(2);
        m.set_state(0, CoreState::Active, SimTime::ZERO);
        m.set_state(1, CoreState::Stalled, SimTime::ZERO);
        let t = m.snapshot_total(SimTime::from_us(10));
        assert_eq!(t.active, SimDuration::from_us(10));
        assert_eq!(t.stalled, SimDuration::from_us(10));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CycleAccount::default();
        let b = CycleAccount {
            active: SimDuration::from_ns(5),
            stalled: SimDuration::from_ns(6),
            idle: SimDuration::from_ns(7),
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.active, SimDuration::from_ns(10));
        assert_eq!(a.stalled, SimDuration::from_ns(12));
        assert_eq!(a.idle, SimDuration::from_ns(14));
    }
}
