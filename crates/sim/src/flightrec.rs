//! Outlier flight recorder: full causal traces for tail requests only.
//!
//! Tail latency is the paper's currency — and the requests that define
//! the p99 are exactly the ones a sampled or capped tracer loses. The
//! flight recorder keeps the [`crate::span::SpanTracer`] in recycle
//! mode (bounded by the in-flight set) and, as each request completes,
//! decides in O(1) whether its span tree ships or recycles: a
//! streaming P² quantile estimator ([`P2Quantile`], Jain & Chlamtac
//! 1985) tracks the running p99, and any request at or above the
//! estimate has its full tree harvested into a bounded ring
//! ([`FlightRecorder`]). The result: complete causal traces for every
//! tail anomaly, O(in-flight + ring) memory at any offered load, and
//! zero perturbation — the recorder reads completed trees and touches
//! no simulated state.

use std::collections::VecDeque;

use crate::span::{SpanRecord, SpanTracer};
use crate::time::SimTime;

/// Streaming quantile estimation with five markers and no stored
/// samples (the P² algorithm). Deterministic: the estimate is a pure
/// function of the observation sequence. The five markers are named
/// fields rather than arrays so every access is statically bounded —
/// this crate's determinism scope forbids unchecked indexing.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (min, three interior, max).
    h0: f64,
    h1: f64,
    h2: f64,
    h3: f64,
    h4: f64,
    /// Interior marker positions (1-based); the extremes are implicit:
    /// n0 == 1 always, n4 == count.
    n1: f64,
    n2: f64,
    n3: f64,
    /// Desired interior positions; np0 == 1, np4 == count.
    np1: f64,
    np2: f64,
    np3: f64,
    /// The first five samples, sorted, until the markers initialise.
    boot: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// A new estimator for quantile `q` in (0, 1).
    pub fn new(q: f64) -> Self {
        let q = q.clamp(0.0, 1.0);
        P2Quantile {
            q,
            h0: 0.0,
            h1: 0.0,
            h2: 0.0,
            h3: 0.0,
            h4: 0.0,
            n1: 2.0,
            n2: 3.0,
            n3: 4.0,
            np1: 1.0 + 2.0 * q,
            np2: 1.0 + 4.0 * q,
            np3: 3.0 + 2.0 * q,
            boot: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// Observations seen so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current estimate: the middle marker, or the max of the samples
    /// while fewer than five have been seen.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count < 5 {
            return self.boot.last().copied().unwrap_or(0.0);
        }
        self.h2
    }

    /// One marker-adjustment step: moves `(n, h)` one position toward
    /// the desired position `np` via the parabolic (P²) prediction,
    /// falling back to linear when the parabola leaves the bracket.
    fn adjust(
        np: f64,
        n_prev: f64,
        n_next: f64,
        h_prev: f64,
        h_next: f64,
        n: &mut f64,
        h: &mut f64,
    ) {
        let d = np - *n;
        if !((d >= 1.0 && n_next - *n > 1.0) || (d <= -1.0 && n_prev - *n < -1.0)) {
            return;
        }
        let s = if d >= 0.0 { 1.0 } else { -1.0 };
        let hp = *h
            + s / (n_next - n_prev)
                * ((*n - n_prev + s) * (h_next - *h) / (n_next - *n)
                    + (n_next - *n - s) * (*h - h_prev) / (*n - n_prev));
        *h = if h_prev < hp && hp < h_next {
            hp
        } else if s > 0.0 {
            // Parabolic prediction left the bracket: linear.
            *h + (h_next - *h) / (n_next - *n)
        } else {
            *h - (h_prev - *h) / (n_prev - *n)
        };
        *n += s;
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.count <= 5 {
            self.boot.push(x);
            self.boot
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            if self.count == 5 {
                let mut it = self.boot.iter().copied();
                self.h0 = it.next().unwrap_or(0.0);
                self.h1 = it.next().unwrap_or(0.0);
                self.h2 = it.next().unwrap_or(0.0);
                self.h3 = it.next().unwrap_or(0.0);
                self.h4 = it.next().unwrap_or(0.0);
                self.boot.clear();
            }
            return;
        }
        // Locate the cell, stretching the extreme markers if needed.
        // `k` is the index of the cell's left marker (0..=3).
        let k = if x < self.h0 {
            self.h0 = x;
            0
        } else if x < self.h1 {
            0
        } else if x < self.h2 {
            1
        } else if x < self.h3 {
            2
        } else if x < self.h4 {
            3
        } else {
            self.h4 = x;
            3
        };
        // Markers strictly right of the cell shift by one position.
        if k < 1 {
            self.n1 += 1.0;
        }
        if k < 2 {
            self.n2 += 1.0;
        }
        if k < 3 {
            self.n3 += 1.0;
        }
        self.np1 += self.q / 2.0;
        self.np2 += self.q;
        self.np3 += (1.0 + self.q) / 2.0;
        // Adjust interior markers toward their desired positions.
        let n0 = 1.0;
        let n4 = self.count as f64;
        Self::adjust(
            self.np1,
            n0,
            self.n2,
            self.h0,
            self.h2,
            &mut self.n1,
            &mut self.h1,
        );
        Self::adjust(
            self.np2,
            self.n1,
            self.n3,
            self.h1,
            self.h3,
            &mut self.n2,
            &mut self.h2,
        );
        Self::adjust(
            self.np3,
            self.n2,
            n4,
            self.h2,
            self.h4,
            &mut self.n3,
            &mut self.h3,
        );
    }
}

/// A harvested span tree: one request's complete causal trace, ids
/// remapped to local indices (so the slice is its own arena).
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The request the tree belongs to.
    pub request_id: u64,
    /// The request's target service, for the blame profile's
    /// per-service split once the request's own record is gone.
    pub service: u16,
    /// Measured end-to-end latency in picoseconds.
    pub latency_ps: u64,
    /// The spans, parents before children.
    pub spans: Vec<SpanRecord>,
}

/// Observations required before the recorder trusts its p99 estimate
/// enough to recycle trees; every earlier completion is retained.
const WARMUP: u64 = 64;

/// Bounded ring of outlier span trees plus the streaming p99 gate.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    p99: P2Quantile,
    ring: VecDeque<SpanTree>,
    seen: u64,
    retained: u64,
    recycled: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder retaining up to `cap` outlier trees.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap,
            p99: P2Quantile::new(0.99),
            ring: VecDeque::with_capacity(cap.min(1024)),
            seen: 0,
            retained: 0,
            recycled: 0,
            evicted: 0,
        }
    }

    /// Offers a completed request to `service`: its latency feeds the
    /// p99 estimate, and its tree is either harvested into the ring
    /// (tail crossing, or warmup) or recycled back into the tracer's
    /// arena. Returns true when the tree was retained.
    pub fn offer(
        &mut self,
        rid: u64,
        service: u16,
        latency_ps: u64,
        at: SimTime,
        tr: &mut SpanTracer,
    ) -> bool {
        self.seen += 1;
        let est = self.p99.estimate();
        self.p99.observe(latency_ps as f64);
        let retain = self.cap > 0 && (self.seen <= WARMUP || latency_ps as f64 > est);
        if !retain {
            tr.discard_request(rid);
            self.recycled += 1;
            return false;
        }
        let mut spans = Vec::new();
        if !tr.take_request(rid, at, &mut spans) {
            return false;
        }
        self.retained += 1;
        self.ring.push_back(SpanTree {
            request_id: rid,
            service,
            latency_ps,
            spans,
        });
        while self.ring.len() > self.cap {
            self.ring.pop_front();
            self.evicted += 1;
        }
        true
    }

    /// The retained outlier trees, oldest first.
    pub fn trees(&self) -> impl Iterator<Item = &SpanTree> {
        self.ring.iter()
    }

    /// Completions offered to the recorder.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Trees harvested into the ring (including later-evicted ones).
    pub fn retained(&self) -> u64 {
        self.retained
    }

    /// Trees recycled straight back into the arena.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Retained trees later pushed out by newer outliers.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The running p99 estimate, rounded to integer picoseconds.
    pub fn p99_estimate_ps(&self) -> u64 {
        let est = self.p99.estimate();
        if est.is_finite() && est > 0.0 {
            est as u64
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ObserveSpec, SpanId, Stage};

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn p2_tracks_p99_of_a_deterministic_ramp() {
        let mut est = P2Quantile::new(0.99);
        // 1..=1000 in a fixed shuffled-ish order (stride walk).
        for i in 0..1000u64 {
            let v = (i * 577) % 1000 + 1;
            est.observe(v as f64);
        }
        let got = est.estimate();
        assert!(
            (got - 990.0).abs() < 30.0,
            "p99 of 1..=1000 should be near 990, got {got}"
        );
        // Determinism: same sequence, same estimate.
        let mut est2 = P2Quantile::new(0.99);
        for i in 0..1000u64 {
            est2.observe((((i * 577) % 1000) + 1) as f64);
        }
        assert_eq!(got.to_bits(), est2.estimate().to_bits());
    }

    #[test]
    fn p2_small_counts_report_running_max() {
        let mut est = P2Quantile::new(0.99);
        assert_eq!(est.estimate(), 0.0);
        est.observe(5.0);
        est.observe(3.0);
        assert_eq!(est.estimate(), 5.0);
    }

    #[test]
    fn recorder_retains_tail_and_recycles_the_rest() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::flight(8));
        let mut rec = FlightRecorder::new(8);
        // 1000 requests at 1 us, every 100th at 50 us.
        for rid in 0..1000u64 {
            let lat_ns = if rid % 100 == 99 { 50_000 } else { 1_000 };
            let start = t(rid * 100_000);
            let end = t(rid * 100_000 + lat_ns);
            let root = tr.begin(start, Stage::Request, Some(rid), SpanId::NONE, 1000);
            tr.span(Stage::Handler, Some(rid), root, 0, start, end);
            tr.end(root, end);
            rec.offer(rid, 0, lat_ns * 1000, end, &mut tr);
        }
        assert_eq!(rec.seen(), 1000);
        // Post-warmup, only the 50 us spikes should be retained.
        let tail: Vec<u64> = rec.trees().map(|s| s.request_id).collect();
        assert!(tail.iter().all(|rid| rid % 100 == 99), "{tail:?}");
        assert!(!tail.is_empty());
        assert!(rec.recycled() > 900);
        // Memory bound: ring at cap, tracer arena bounded.
        assert!(rec.trees().count() <= 8);
        assert!(tr.spans().len() <= 4, "arena grew: {}", tr.spans().len());
        assert!(rec.p99_estimate_ps() > 1_000_000);
    }

    #[test]
    fn recorder_ring_evicts_oldest() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::flight(2));
        let mut rec = FlightRecorder::new(2);
        for rid in 0..5u64 {
            let root = tr.begin(t(rid), Stage::Request, Some(rid), SpanId::NONE, 1000);
            tr.end(root, t(rid + 1));
            rec.offer(rid, 0, 1000, t(rid + 1), &mut tr);
        }
        // Warmup retains everything; the ring keeps the newest two.
        assert_eq!(rec.retained(), 5);
        assert_eq!(rec.evicted(), 3);
        let kept: Vec<u64> = rec.trees().map(|s| s.request_id).collect();
        assert_eq!(kept, vec![3, 4]);
    }
}
