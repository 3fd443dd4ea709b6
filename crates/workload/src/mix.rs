//! Dynamic service mixes: Zipf popularity with a rotating hot set.
//!
//! This is experiment C4's workload: S services, far more than the
//! machine has spare cores, with popularity concentrated on a hot set
//! that *rotates* every epoch. Static bindings (kernel bypass) must
//! rebind queues on every rotation; Lauberhorn's shared scheduling
//! state adapts without reconfiguration; the kernel stack adapts but
//! pays its software path on every request.

use lauberhorn_sim::{SimRng, SimTime};

use crate::zipf::Zipf;

/// A rotating-hot-set service popularity model.
#[derive(Debug, Clone)]
pub struct DynamicMix {
    num_services: usize,
    zipf: Zipf,
    /// Explicit per-service sampling weights (cumulative, normalized);
    /// overrides the Zipf ranking when set. Used by tenant mixes with
    /// arbitrary offered shares (e.g. one adversarial hog).
    cumulative: Option<Vec<f64>>,
    /// Rotation offset applied per epoch.
    rotate_by: usize,
    /// Epoch length.
    epoch: SimTime,
}

impl DynamicMix {
    /// Creates a mix over `num_services` services with Zipf exponent
    /// `s`, rotating the popularity ranking by `rotate_by` positions
    /// every `epoch_us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `num_services == 0` or `epoch_us == 0`.
    pub fn new(num_services: usize, s: f64, rotate_by: usize, epoch_us: u64) -> Self {
        assert!(num_services > 0);
        assert!(epoch_us > 0);
        DynamicMix {
            num_services,
            zipf: Zipf::new(num_services, s),
            cumulative: None,
            rotate_by,
            epoch: SimTime::from_us(epoch_us),
        }
    }

    /// A static mix (no rotation): stable Zipf popularity.
    pub fn stable(num_services: usize, s: f64) -> Self {
        Self::new(num_services, s, 0, 1)
    }

    /// A static mix with explicit per-service offered shares (need not
    /// be normalized; must be non-empty with a positive sum).
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or sums to zero.
    pub fn weighted(shares: &[f64]) -> Self {
        assert!(!shares.is_empty());
        let total: f64 = shares.iter().map(|s| s.max(0.0)).sum();
        assert!(total > 0.0);
        let mut acc = 0.0;
        let cumulative = shares
            .iter()
            .map(|s| {
                acc += s.max(0.0) / total;
                acc
            })
            .collect();
        DynamicMix {
            cumulative: Some(cumulative),
            ..Self::stable(shares.len(), 0.0)
        }
    }

    /// Number of services.
    pub fn num_services(&self) -> usize {
        self.num_services
    }

    /// The popularity-rotation period.
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// The epoch index at `now`.
    pub fn epoch_at(&self, now: SimTime) -> u64 {
        now.as_ps() / self.epoch.as_ps().max(1)
    }

    /// Maps a popularity rank to the concrete service id at `now`.
    pub fn rank_to_service(&self, rank: usize, now: SimTime) -> u16 {
        let shift = (self.epoch_at(now) as usize).wrapping_mul(self.rotate_by);
        ((rank + shift) % self.num_services) as u16
    }

    /// Samples the target service for a request arriving at `now`.
    pub fn sample(&self, rng: &mut SimRng, now: SimTime) -> u16 {
        if let Some(cum) = &self.cumulative {
            let u = rng.gen_f64();
            let rank = cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1);
            return self.rank_to_service(rank, now);
        }
        self.rank_to_service(self.zipf.sample(rng), now)
    }

    /// The current hot set: the `k` most popular service ids at `now`.
    pub fn hot_set(&self, k: usize, now: SimTime) -> Vec<u16> {
        (0..k.min(self.num_services))
            .map(|rank| self.rank_to_service(rank, now))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_mix_never_rotates() {
        let m = DynamicMix::stable(16, 1.0);
        assert_eq!(
            m.hot_set(4, SimTime::ZERO),
            m.hot_set(4, SimTime::from_secs(100))
        );
    }

    #[test]
    fn rotation_shifts_hot_set_each_epoch() {
        let m = DynamicMix::new(16, 1.0, 3, 1000); // Rotate by 3 every 1 ms.
        let h0 = m.hot_set(4, SimTime::from_us(500));
        let h1 = m.hot_set(4, SimTime::from_us(1500));
        assert_ne!(h0, h1);
        // Shifted by exactly 3 (mod 16).
        assert_eq!(h1[0], (h0[0] + 3) % 16);
    }

    #[test]
    fn samples_favour_hot_set() {
        let m = DynamicMix::new(32, 1.2, 1, 1_000_000);
        let mut rng = SimRng::stream(1, "mix");
        let now = SimTime::from_us(10);
        let hot: std::collections::HashSet<u16> = m.hot_set(4, now).into_iter().collect();
        let n = 50_000;
        let in_hot = (0..n)
            .filter(|_| hot.contains(&m.sample(&mut rng, now)))
            .count();
        let frac = in_hot as f64 / n as f64;
        assert!(frac > 0.5, "hot set captured only {frac}");
    }

    #[test]
    fn all_services_reachable() {
        let m = DynamicMix::stable(8, 0.5);
        let mut rng = SimRng::stream(2, "mix");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(m.sample(&mut rng, SimTime::ZERO));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn weighted_mix_tracks_the_given_shares() {
        let m = DynamicMix::weighted(&[6.0, 1.0, 1.0]);
        assert_eq!(m.num_services(), 3);
        let mut rng = SimRng::stream(3, "mix");
        let n = 40_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            counts[m.sample(&mut rng, SimTime::ZERO) as usize] += 1;
        }
        let hot = counts[0] as f64 / n as f64;
        assert!((hot - 0.75).abs() < 0.02, "hot share {hot}");
        assert!(counts[1] > 0 && counts[2] > 0);
    }

    #[test]
    fn epoch_index_advances() {
        let m = DynamicMix::new(4, 1.0, 1, 100);
        assert_eq!(m.epoch_at(SimTime::from_us(50)), 0);
        assert_eq!(m.epoch_at(SimTime::from_us(150)), 1);
        assert_eq!(m.epoch_at(SimTime::from_us(1050)), 10);
    }
}
