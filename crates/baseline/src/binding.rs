//! Queue↔core↔service binding for the bypass dataplane.
//!
//! Each dedicated core busy-polls exactly one RX queue; each service is
//! pinned to one core (run-to-completion, the IX model). Changing the
//! assignment — because the hot set shifted — is a control-plane
//! operation: reprogram the flow director, quiesce the old queue
//! (drain in-flight descriptors), and migrate socket state. Published
//! numbers for such reconfigurations range from tens of microseconds
//! (Shenango's core reallocation, ~5 µs granularity with dedicated
//! spinning IOKernel) to milliseconds (full DPDK queue setup); we model
//! a configurable cost with a Shenango-favouring default.

use lauberhorn_sim::hash::FastMap;
use lauberhorn_sim::{SimDuration, SimTime};

/// Cost model of one rebind operation.
#[derive(Debug, Clone, Copy)]
pub struct RebindCost {
    /// Control-plane latency: filter reprogramming + state migration.
    pub control_plane: SimDuration,
    /// Drain time during which the moved service processes nothing
    /// (in-flight descriptors on the old queue must complete).
    pub drain: SimDuration,
}

impl Default for RebindCost {
    fn default() -> Self {
        RebindCost {
            control_plane: SimDuration::from_us(30),
            drain: SimDuration::from_us(20),
        }
    }
}

impl RebindCost {
    /// Total unavailability window of a rebind.
    pub fn total(&self) -> SimDuration {
        self.control_plane + self.drain
    }
}

/// The binding state of a bypass deployment.
#[derive(Debug)]
pub struct BindingManager {
    /// service → core currently serving it.
    assignment: FastMap<u16, usize>,
    /// core → services bound to it.
    per_core: Vec<Vec<u16>>,
    cost: RebindCost,
    rebinds: u64,
    /// Until when each service is unavailable due to an ongoing rebind.
    blocked_until: FastMap<u16, SimTime>,
}

impl BindingManager {
    /// Creates a manager for `cores` dedicated dataplane cores.
    pub fn new(cores: usize, cost: RebindCost) -> Self {
        BindingManager {
            assignment: FastMap::default(),
            per_core: vec![Vec::new(); cores],
            cost,
            rebinds: 0,
            blocked_until: FastMap::default(),
        }
    }

    /// Number of dataplane cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// The core serving `service`, if bound.
    pub fn core_of(&self, service: u16) -> Option<usize> {
        self.assignment.get(&service).copied()
    }

    /// Services bound to `core`.
    pub fn services_on(&self, core: usize) -> &[u16] {
        &self.per_core[core]
    }

    /// Binds `service` to `core` at time `now`.
    ///
    /// The initial bind of a service is charged only the control-plane
    /// cost; moving an existing binding also pays the drain window,
    /// during which the service is unavailable. Returns when the
    /// service is servable again.
    pub fn bind(&mut self, service: u16, core: usize, now: SimTime) -> SimTime {
        let ready_at = match self.assignment.insert(service, core) {
            Some(old_core) if old_core != core => {
                self.per_core[old_core].retain(|s| *s != service);
                self.rebinds += 1;
                now + self.cost.total()
            }
            Some(_) => now, // Re-bind to the same core: no-op.
            None => now + self.cost.control_plane,
        };
        if !self.per_core[core].contains(&service) {
            self.per_core[core].push(service);
        }
        if ready_at > now {
            self.blocked_until.insert(service, ready_at);
        }
        ready_at
    }

    /// Whether `service` can process a request at `now` (bound and not
    /// mid-rebind).
    pub fn available(&self, service: u16, now: SimTime) -> bool {
        if !self.assignment.contains_key(&service) {
            return false;
        }
        match self.blocked_until.get(&service) {
            Some(t) => now >= *t,
            None => true,
        }
    }

    /// Rebind operations performed.
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }

    /// The configured cost model.
    pub fn cost(&self) -> RebindCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_bind_pays_control_plane_only() {
        let mut b = BindingManager::new(2, RebindCost::default());
        let t0 = SimTime::from_ms(1);
        let ready = b.bind(7, 0, t0);
        assert_eq!(ready, t0 + RebindCost::default().control_plane);
        assert_eq!(b.core_of(7), Some(0));
        assert_eq!(b.rebinds(), 0);
    }

    #[test]
    fn moving_a_binding_pays_drain_and_blocks() {
        let mut b = BindingManager::new(2, RebindCost::default());
        let t0 = SimTime::from_ms(1);
        b.bind(7, 0, t0);
        let t1 = SimTime::from_ms(2);
        let ready = b.bind(7, 1, t1);
        assert_eq!(ready, t1 + RebindCost::default().total());
        assert_eq!(b.rebinds(), 1);
        assert!(!b.available(7, t1));
        assert!(b.available(7, ready));
        assert_eq!(b.services_on(0), &[] as &[u16]);
        assert_eq!(b.services_on(1), &[7]);
    }

    #[test]
    fn rebind_to_same_core_is_free() {
        let mut b = BindingManager::new(2, RebindCost::default());
        b.bind(7, 0, SimTime::ZERO);
        let t = SimTime::from_ms(5);
        assert_eq!(b.bind(7, 0, t), t);
        assert_eq!(b.rebinds(), 0);
    }

    #[test]
    fn unbound_service_unavailable() {
        let b = BindingManager::new(1, RebindCost::default());
        assert!(!b.available(9, SimTime::from_secs(1)));
    }
}
