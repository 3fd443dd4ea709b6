//! Per-service load statistics gathered by the NIC (§4, §5.2).
//!
//! "The NIC gathers load information and requests the OS to reschedule
//! processes in response to new packets arriving over the network."
//! The tracker keeps an EWMA of per-service arrival rate and queue
//! depth, and produces scaling advice the OS consumes (experiment C4's
//! dynamic core reallocation).

use lauberhorn_sim::hash::FastMap;
use lauberhorn_sim::stats::Ewma;
use lauberhorn_sim::SimTime;

/// Scaling advice for one service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Give the service more cores.
    ScaleUp,
    /// The service can release a core.
    ScaleDown,
    /// Keep the current allocation.
    Hold,
}

/// Scale-up watermarks: demand above this fraction of allocated
/// capacity, or queues deeper than this, trigger [`Advice::ScaleUp`].
const DEMAND_UP_FRAC: f64 = 0.8;
const DEPTH_UP: f64 = 4.0;

/// Scale-down watermarks, deliberately far below the scale-up pair so
/// the advice has a wide neutral band between the two directions.
const DEMAND_DOWN_FRAC: f64 = 0.3;
const DEPTH_DOWN: f64 = 0.5;

/// Reversal hold-down: after advising one direction, the opposite
/// direction is suppressed (as `Hold`) until this many further
/// arrivals have been observed. An EWMA swinging across both
/// watermarks (a bursty queue at low average rate) otherwise flaps
/// ScaleUp/ScaleDown on alternating observations.
const REVERSAL_HOLDDOWN_ARRIVALS: u64 = 64;

#[derive(Debug)]
struct ServiceLoad {
    rate: Ewma,        // Requests per second.
    queue_depth: Ewma, // Smoothed ready-queue depth.
    last_arrival: Option<SimTime>,
    arrivals: u64,
    cores: usize,        // Cores currently serving, as told by the OS.
    latch: Advice,       // Direction of the last non-Hold advice.
    latch_arrivals: u64, // `arrivals` when the latch was last renewed.
}

impl Default for ServiceLoad {
    fn default() -> Self {
        ServiceLoad {
            rate: Ewma::new(0.05),
            queue_depth: Ewma::new(0.1),
            last_arrival: None,
            arrivals: 0,
            cores: 0,
            latch: Advice::Hold,
            latch_arrivals: 0,
        }
    }
}

/// The per-service load tracker.
#[derive(Debug, Default)]
pub struct LoadTracker {
    services: FastMap<u16, ServiceLoad>,
    /// A single core's service capacity in requests/second, used to
    /// convert rate into a core demand. Configured per machine.
    core_capacity_rps: f64,
}

impl LoadTracker {
    /// Creates a tracker; `core_capacity_rps` is the per-core service
    /// rate (1 / mean service time).
    pub fn new(core_capacity_rps: f64) -> Self {
        LoadTracker {
            services: FastMap::default(),
            core_capacity_rps,
        }
    }

    /// Records a request arrival for `service` at `now`.
    pub fn record_arrival(&mut self, service: u16, now: SimTime) {
        let s = self.services.entry(service).or_default();
        if let Some(last) = s.last_arrival {
            let gap = now.since(last).as_secs_f64();
            if gap > 0.0 {
                s.rate.observe(1.0 / gap);
            }
        }
        s.last_arrival = Some(now);
        s.arrivals += 1;
    }

    /// Records the observed ready-queue depth for `service`.
    pub fn record_queue_depth(&mut self, service: u16, depth: usize) {
        self.services
            .entry(service)
            .or_default()
            .queue_depth
            .observe(depth as f64);
    }

    /// The OS informs the tracker how many cores serve `service`.
    pub fn set_cores(&mut self, service: u16, cores: usize) {
        self.services.entry(service).or_default().cores = cores;
    }

    /// Smoothed arrival rate (requests/second).
    pub fn rate(&self, service: u16) -> f64 {
        self.services.get(&service).map_or(0.0, |s| s.rate.value())
    }

    /// Total arrivals observed.
    pub fn arrivals(&self, service: u16) -> u64 {
        self.services.get(&service).map_or(0, |s| s.arrivals)
    }

    /// Scaling advice with hysteresis: scale up past the high
    /// watermarks ([`DEMAND_UP_FRAC`], [`DEPTH_UP`]), scale down below
    /// the low watermarks ([`DEMAND_DOWN_FRAC`], [`DEPTH_DOWN`]) with
    /// more than one core — and never reverse direction until
    /// [`REVERSAL_HOLDDOWN_ARRIVALS`] arrivals have passed since the
    /// last advice in the old direction (flap suppression; the
    /// suppressed direction reads as `Hold`).
    pub fn advice(&mut self, service: u16) -> Advice {
        let core_capacity_rps = self.core_capacity_rps;
        let Some(s) = self.services.get_mut(&service) else {
            return Advice::Hold;
        };
        let capacity = s.cores as f64 * core_capacity_rps;
        let demand = s.rate.value();
        let raw = if s.cores == 0 {
            if demand > 0.0 {
                Advice::ScaleUp
            } else {
                Advice::Hold
            }
        } else if demand > DEMAND_UP_FRAC * capacity || s.queue_depth.value() > DEPTH_UP {
            Advice::ScaleUp
        } else if s.cores > 1
            && demand < DEMAND_DOWN_FRAC * capacity
            && s.queue_depth.value() < DEPTH_DOWN
        {
            Advice::ScaleDown
        } else {
            Advice::Hold
        };
        if raw == Advice::Hold {
            return Advice::Hold;
        }
        let reversal = s.latch != Advice::Hold && raw != s.latch;
        if reversal && s.arrivals.saturating_sub(s.latch_arrivals) < REVERSAL_HOLDDOWN_ARRIVALS {
            return Advice::Hold;
        }
        s.latch = raw;
        s.latch_arrivals = s.arrivals;
        raw
    }

    /// Services known to the tracker.
    pub fn services(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.services.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_arrivals(t: &mut LoadTracker, service: u16, rps: f64, n: usize) {
        let gap_ps = (1e12 / rps) as u64;
        for i in 0..n {
            t.record_arrival(service, SimTime::from_ps(1 + i as u64 * gap_ps));
        }
    }

    #[test]
    fn rate_converges_to_offered_load() {
        let mut t = LoadTracker::new(100_000.0);
        feed_arrivals(&mut t, 1, 50_000.0, 400);
        let r = t.rate(1);
        assert!((r - 50_000.0).abs() / 50_000.0 < 0.05, "rate was {r}");
        assert_eq!(t.arrivals(1), 400);
    }

    #[test]
    fn overload_advises_scale_up() {
        let mut t = LoadTracker::new(100_000.0);
        t.set_cores(1, 1);
        feed_arrivals(&mut t, 1, 90_000.0, 400); // 90% of one core.
        assert_eq!(t.advice(1), Advice::ScaleUp);
    }

    #[test]
    fn light_load_advises_scale_down_with_spare_cores() {
        let mut t = LoadTracker::new(100_000.0);
        t.set_cores(1, 4);
        feed_arrivals(&mut t, 1, 20_000.0, 400); // 5% of 4 cores.
        assert_eq!(t.advice(1), Advice::ScaleDown);
    }

    #[test]
    fn single_core_never_scales_below_one() {
        let mut t = LoadTracker::new(100_000.0);
        t.set_cores(1, 1);
        feed_arrivals(&mut t, 1, 1_000.0, 100);
        assert_eq!(t.advice(1), Advice::Hold);
    }

    #[test]
    fn queue_buildup_forces_scale_up() {
        let mut t = LoadTracker::new(100_000.0);
        t.set_cores(1, 2);
        feed_arrivals(&mut t, 1, 10_000.0, 50);
        for _ in 0..50 {
            t.record_queue_depth(1, 10);
        }
        assert_eq!(t.advice(1), Advice::ScaleUp);
    }

    #[test]
    fn unknown_or_unserved_service() {
        let mut t = LoadTracker::new(100_000.0);
        assert_eq!(t.advice(42), Advice::Hold);
        feed_arrivals(&mut t, 42, 1000.0, 10);
        // Arrivals but zero cores allocated: needs one.
        assert_eq!(t.advice(42), Advice::ScaleUp);
    }

    #[test]
    fn advice_does_not_flap_on_a_steady_stream() {
        // A bursty queue at low average rate: the depth EWMA swings
        // across both watermarks (alternating observations of 0 and
        // 8). Pre-hysteresis this alternated ScaleUp/ScaleDown; the
        // reversal hold-down must pin it to at most one direction
        // change over the whole stream.
        let mut t = LoadTracker::new(100_000.0);
        t.set_cores(1, 2);
        let gap_ps = (1e12 / 10_000.0) as u64; // 10 krps: low demand.
        let mut history = Vec::new();
        for i in 0..400 {
            t.record_arrival(1, SimTime::from_ps(1 + i * gap_ps));
            t.record_queue_depth(1, if i % 2 == 0 { 8 } else { 0 });
            history.push(t.advice(1));
        }
        let directions: Vec<Advice> = history
            .iter()
            .copied()
            .filter(|a| *a != Advice::Hold)
            .collect();
        let reversals = directions.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            reversals <= 1,
            "advice flapped {reversals} times: {directions:?}"
        );
        // The tracker still reports the genuine overload signal.
        assert!(directions.contains(&Advice::ScaleUp));
    }

    #[test]
    fn hysteresis_still_allows_a_deliberate_reversal() {
        // Sustained drain after a real overload: once the hold-down
        // has passed, ScaleDown must get through.
        let mut t = LoadTracker::new(100_000.0);
        t.set_cores(1, 2);
        let gap_ps = (1e12 / 10_000.0) as u64;
        let mut i = 0u64;
        // Overload phase: deep queues.
        for _ in 0..50 {
            t.record_arrival(1, SimTime::from_ps(1 + i * gap_ps));
            t.record_queue_depth(1, 10);
            i += 1;
        }
        assert_eq!(t.advice(1), Advice::ScaleUp);
        // Drain phase: empty queues, low demand, many arrivals.
        let mut saw_down = false;
        for _ in 0..300 {
            t.record_arrival(1, SimTime::from_ps(1 + i * gap_ps));
            t.record_queue_depth(1, 0);
            i += 1;
            if t.advice(1) == Advice::ScaleDown {
                saw_down = true;
            }
        }
        assert!(saw_down, "hold-down never released the reversal");
    }

    #[test]
    fn services_enumerated_sorted() {
        let mut t = LoadTracker::new(1.0);
        t.record_arrival(3, SimTime::ZERO);
        t.record_arrival(1, SimTime::ZERO);
        assert_eq!(t.services(), vec![1, 3]);
    }
}
