//! Per-tenant pipeline-stage isolation: the OSMOSIS-style arbiter.
//!
//! The composed NIC processes a request frame in three hardware stages
//! — parse, demux, dispatch — and without arbitration those stages are
//! FIFO: one tenant's burst of parse-heavy (large) frames occupies the
//! parse stage and head-of-line-blocks every other tenant's 64-byte
//! requests behind it. [`TenantPipeline`] gives each stage a weighted
//! deficit-round-robin scheduler over per-tenant queues
//! ([`lauberhorn_sim::DrrScheduler`]), plus a per-tenant token-bucket
//! rate limit at the very front, so
//!
//! * a tenant's long-run share of each stage is proportional to its
//!   fairness weight, regardless of its frame sizes, and
//! * a storming tenant is clipped to its contracted rate before its
//!   frames can occupy any stage queue at all.
//!
//! The pipeline is a pure device model like the rest of the NIC: it
//! holds frames and returns timestamps; the machine simulation drives
//! it via [`TenantPipeline::pump`] and a `NicAction::PipelinePump`
//! self-wakeup. It exists only when an enforcing
//! [`TenancyConfig`] is armed, so untenanted runs are untouched.

use std::collections::BTreeMap;

use lauberhorn_packet::PktBuf;
use lauberhorn_sim::{DrrScheduler, SimDuration, SimTime, TenancyConfig, TokenBucket};

/// Fixed cost of the parse stage (header walk) in picoseconds.
const PARSE_FIXED_PS: u64 = 100_000;
/// Per-byte parse cost: parse effort is proportional to frame length,
/// which is exactly what makes large frames "parse-heavy".
const PARSE_PER_BYTE_PS: u64 = 125;
/// The demux table lookup is a fixed-cost match.
const DEMUX_PS: u64 = 60_000;
/// Fixed cost of building the dispatch line.
const DISPATCH_FIXED_PS: u64 = 90_000;
/// Per-byte dispatch cost (copying arguments into the line/AUX image).
const DISPATCH_PER_BYTE_PS: u64 = 60;

/// Number of pipeline stages (parse, demux, dispatch).
pub const STAGES: usize = 3;

/// Stage-service cost of a frame of `len` bytes at stage `stage`, in
/// picoseconds. The per-64-byte-frame total (~262 ns) matches the
/// monolithic `pipeline_latency` the untenanted fast path charges, so
/// arming tenancy does not change an uncontended request's latency
/// profile materially.
fn stage_cost_ps(stage: usize, len: usize) -> u64 {
    let len = len as u64;
    match stage {
        0 => PARSE_FIXED_PS + len * PARSE_PER_BYTE_PS,
        1 => DEMUX_PS,
        _ => DISPATCH_FIXED_PS + len * DISPATCH_PER_BYTE_PS,
    }
}

/// A frame in flight through the staged pipeline.
#[derive(Debug, Clone)]
struct StagedFrame {
    /// The raw wire bytes, shared with the sender (re-parsed at
    /// dispatch exit; ingress already validated the headers).
    raw: PktBuf,
    /// When the frame became available to its current stage.
    ready: SimTime,
}

/// One pipeline stage: a DRR arbiter over per-tenant queues in front
/// of a single server.
#[derive(Debug)]
struct StageState {
    sched: DrrScheduler<StagedFrame>,
    /// The frame in service, if any; it completes at `busy_until`.
    in_service: Option<(u16, StagedFrame)>,
    /// When the server frees up (the in-service frame's exit time).
    busy_until: SimTime,
}

/// Per-tenant pipeline counters (exported as `nic-lauberhorn.tenant.*`
/// only while tenancy is armed).
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantCounters {
    /// Frames admitted into the pipeline.
    pub admitted: u64,
    /// Frames clipped by the ingress rate limit.
    pub rate_limited: u64,
    /// Frames that completed all three stages.
    pub dispatched: u64,
}

/// The pipeline refused a frame: its tenant is over the contracted
/// ingress rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimited;

/// A frame leaving the dispatch stage: exit time, owning tenant, and
/// the raw wire bytes.
pub type PipelineExit = (SimTime, u16, PktBuf);

/// The per-tenant staged pipeline of the composed NIC.
#[derive(Debug)]
pub struct TenantPipeline {
    cfg: TenancyConfig,
    stages: Vec<StageState>,
    buckets: BTreeMap<u16, TokenBucket>,
    counters: BTreeMap<u16, TenantCounters>,
}

impl TenantPipeline {
    /// Builds the pipeline for an enforcing tenancy plan.
    pub fn new(cfg: TenancyConfig) -> Self {
        let weights = cfg.weights();
        let stages = (0..STAGES)
            .map(|_| StageState {
                sched: DrrScheduler::new(cfg.quantum_ps, &weights),
                in_service: None,
                busy_until: SimTime::ZERO,
            })
            .collect();
        let buckets = cfg
            .tenants
            .iter()
            .map(|t| (t.tenant, TokenBucket::new(t.rate_rps, t.burst)))
            .collect();
        TenantPipeline {
            stages,
            buckets,
            counters: BTreeMap::new(),
            cfg,
        }
    }

    /// The armed plan.
    pub fn config(&self) -> &TenancyConfig {
        &self.cfg
    }

    /// Whether `tenant` is covered by the plan (unlisted tenants take
    /// the NIC's untenanted path).
    pub fn covers(&self, tenant: u16) -> bool {
        self.cfg.spec_of(tenant).is_some()
    }

    /// Frames currently queued or in service across all stages.
    pub fn in_flight(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.sched.len() + usize::from(s.in_service.is_some()))
            .sum()
    }

    /// `tenant`'s counters.
    pub fn counters_of(&self, tenant: u16) -> TenantCounters {
        self.counters.get(&tenant).copied().unwrap_or_default()
    }

    /// Offers a validated request frame to the pipeline at `now`.
    /// Returns `Err(RateLimited)` when the tenant is over its
    /// contracted rate (the caller sheds the frame with
    /// `ShedReason::RateLimit`).
    pub fn offer(&mut self, now: SimTime, tenant: u16, raw: PktBuf) -> Result<(), RateLimited> {
        let c = self.counters.entry(tenant).or_default();
        if let Some(b) = self.buckets.get_mut(&tenant) {
            if !b.take(now) {
                c.rate_limited += 1;
                return Err(RateLimited);
            }
        }
        c.admitted += 1;
        // lint:allow(unchecked-index): STAGES ≥ 1 by construction
        self.stages[0]
            .sched
            .push(tenant, StagedFrame { raw, ready: now });
        Ok(())
    }

    /// Advances the pipeline to `now`: completes every stage service
    /// due by `now`, forwards frames to the next stage, and starts new
    /// services under DRR. Returns the frames that exited the dispatch
    /// stage (with their exit times, in increasing order) by appending
    /// them to `exits`, and returns the next instant the pipeline needs
    /// a pump, if any work remains in service.
    pub fn pump(&mut self, now: SimTime, exits: &mut Vec<PipelineExit>) -> Option<SimTime> {
        loop {
            let mut progressed = false;
            for s in 0..self.stages.len() {
                // Complete a due service.
                let completed = match self.stages.get_mut(s) {
                    Some(stage) if stage.busy_until <= now => {
                        let done = stage.busy_until;
                        stage.in_service.take().map(|(t, f)| (done, t, f))
                    }
                    _ => None,
                };
                if let Some((done, tenant, mut frame)) = completed {
                    match self.stages.get_mut(s + 1) {
                        Some(next_stage) => {
                            frame.ready = done;
                            next_stage.sched.push(tenant, frame);
                        }
                        None => {
                            self.counters.entry(tenant).or_default().dispatched += 1;
                            exits.push((done, tenant, frame.raw));
                        }
                    }
                    progressed = true;
                }
                // Start the next service when the server is idle.
                if let Some(stage) = self.stages.get_mut(s) {
                    if stage.in_service.is_none() {
                        if let Some((tenant, frame)) =
                            stage.sched.pop(|f| stage_cost_ps(s, f.raw.len()))
                        {
                            let start = stage.busy_until.max(frame.ready);
                            let cost = stage_cost_ps(s, frame.raw.len());
                            stage.busy_until = start + SimDuration::from_ps(cost);
                            stage.in_service = Some((tenant, frame));
                            progressed = true;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.stages
            .iter()
            .filter(|s| s.in_service.is_some())
            .map(|s| s.busy_until)
            .min()
    }

    /// Exports per-tenant pipeline counters under
    /// `<component>.tenant.*`. Callers must only invoke this while
    /// tenancy is armed: the entries enter the report digest.
    pub fn export(&self, reg: &mut lauberhorn_sim::MetricsRegistry, component: &str) {
        let (mut admitted, mut limited, mut dispatched) = (0u64, 0u64, 0u64);
        for t in &self.cfg.tenants {
            let c = self.counters_of(t.tenant);
            admitted += c.admitted;
            limited += c.rate_limited;
            dispatched += c.dispatched;
            let id = t.tenant;
            reg.counter(&format!("{component}.tenant.admitted.s{id}"), c.admitted);
            reg.counter(
                &format!("{component}.tenant.ratelimited.s{id}"),
                c.rate_limited,
            );
            reg.counter(
                &format!("{component}.tenant.dispatched.s{id}"),
                c.dispatched,
            );
        }
        reg.counter(&format!("{component}.tenant.admitted"), admitted);
        reg.counter(&format!("{component}.tenant.ratelimited"), limited);
        reg.counter(&format!("{component}.tenant.dispatched"), dispatched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lauberhorn_sim::TenantSpec;

    fn plan(specs: Vec<TenantSpec>) -> TenantPipeline {
        TenantPipeline::new(TenancyConfig::enforcing(specs))
    }

    fn frame(len: usize) -> PktBuf {
        PktBuf::from_vec(vec![0u8; len])
    }

    fn pump(p: &mut TenantPipeline, now: SimTime) -> (Vec<PipelineExit>, Option<SimTime>) {
        let mut exits = Vec::new();
        let next = p.pump(now, &mut exits);
        (exits, next)
    }

    fn spec(tenant: u16, weight: u32) -> TenantSpec {
        TenantSpec::new(tenant, weight, SimDuration::from_us(500))
    }

    #[test]
    fn a_single_frame_crosses_all_three_stages() {
        let mut p = plan(vec![spec(0, 1)]);
        let t0 = SimTime::from_us(10);
        p.offer(t0, 0, frame(64)).expect("no rate limit");
        let (exits, next) = pump(&mut p, t0);
        assert!(exits.is_empty(), "parse takes time");
        let wake = next.expect("in service");
        // Drive to completion through the wakes.
        let mut now = wake;
        let mut out = Vec::new();
        for _ in 0..8 {
            let (mut e, n) = pump(&mut p, now);
            out.append(&mut e);
            match n {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(out.len(), 1);
        let (done, tenant, raw) = &out[0];
        assert_eq!(*tenant, 0);
        assert_eq!(raw.len(), 64);
        // 64 B: parse 108 ns + demux 60 ns + dispatch ~93.8 ns.
        let total = done.since(t0);
        assert_eq!(total, SimDuration::from_ps(108_000 + 60_000 + 93_840));
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.counters_of(0).dispatched, 1);
    }

    #[test]
    fn parse_heavy_tenant_cannot_head_of_line_block_small_frames() {
        // Tenant 0 dumps a deep backlog of 4 KiB parse-heavy frames;
        // tenant 1's 64 B frames arrive just behind. Under FIFO the
        // small frames would wait for every big parse ahead of them
        // (~612 ns each); under DRR tenant 1's exits interleave from
        // the start.
        let mut p = plan(vec![spec(0, 1), spec(1, 1)]);
        let t0 = SimTime::from_us(1);
        for _ in 0..32 {
            p.offer(t0, 0, frame(4096)).expect("unlimited");
        }
        for _ in 0..32 {
            p.offer(t0, 1, frame(64)).expect("unlimited");
        }
        let mut now = t0;
        let mut exits = Vec::new();
        loop {
            let (mut e, n) = pump(&mut p, now);
            exits.append(&mut e);
            match n {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(exits.len(), 64);
        // All of tenant 1's small frames exit before the last
        // parse-heavy frame: cost-proportional sharing means the
        // 64 B stream (~1/10 the per-frame cost) finishes long before
        // the 4 KiB stream despite arriving second.
        let last_small = exits
            .iter()
            .rposition(|(_, t, _)| *t == 1)
            .expect("tenant 1 exits");
        let first_big_tail = exits
            .iter()
            .position(|(_, t, _)| *t == 0)
            .expect("tenant 0 exits");
        assert!(
            last_small < exits.len() - 8,
            "small frames held behind the parse-heavy backlog (last small at {last_small}/64)"
        );
        // And FIFO order holds within each tenant.
        let mut prev = SimTime::ZERO;
        for (done, t, _) in &exits {
            if *t == 1 {
                assert!(*done >= prev);
                prev = *done;
            }
        }
        let _ = first_big_tail;
        // Tenant 1's total completion time is bounded by roughly its
        // own service demand plus one big frame of blocking per round,
        // far below the FIFO bound of all 32 big parses first.
        let t1_last = exits
            .iter()
            .filter(|(_, t, _)| *t == 1)
            .map(|(d, _, _)| *d)
            .max()
            .expect("tenant 1 exits");
        let fifo_bound = t0 + SimDuration::from_ps(32 * (100_000 + 4096 * 125));
        assert!(
            t1_last < fifo_bound,
            "DRR did not protect the small-frame tenant: last 64 B exit at {t1_last:?}, \
             FIFO parse backlog alone ends at {fifo_bound:?}"
        );
    }

    #[test]
    fn ingress_rate_limit_clips_a_storm() {
        // 1M rps, burst 4: a 100-frame burst at one instant admits 4.
        let mut p = plan(vec![spec(0, 1).with_rate(1_000_000, 4)]);
        let t0 = SimTime::from_us(5);
        let (mut ok, mut clipped) = (0, 0);
        for _ in 0..100 {
            match p.offer(t0, 0, frame(64)) {
                Ok(()) => ok += 1,
                Err(RateLimited) => clipped += 1,
            }
        }
        assert_eq!((ok, clipped), (4, 96));
        let c = p.counters_of(0);
        assert_eq!(c.admitted, 4);
        assert_eq!(c.rate_limited, 96);
        // The limiter refills with time.
        assert!(p.offer(t0 + SimDuration::from_us(1), 0, frame(64)).is_ok());
    }

    #[test]
    fn weights_skew_stage_shares() {
        // Equal frame sizes, weights 1:3 → dispatched counts ~1:3
        // while both stay backlogged.
        let mut p = plan(vec![spec(0, 1), spec(1, 3)]);
        let t0 = SimTime::ZERO;
        for _ in 0..300 {
            p.offer(t0, 0, frame(256)).expect("unlimited");
            p.offer(t0, 1, frame(256)).expect("unlimited");
        }
        let mut now = t0;
        let mut served = [0u64; 2];
        // Pump until 200 frames exited, then look at the split.
        'outer: loop {
            let (e, n) = pump(&mut p, now);
            for (_, t, _) in e {
                served[t as usize] += 1;
                if served[0] + served[1] >= 200 {
                    break 'outer;
                }
            }
            match n {
                Some(t) => now = t,
                None => break,
            }
        }
        let frac = served[1] as f64 / (served[0] + served[1]) as f64;
        assert!(
            (0.70..=0.80).contains(&frac),
            "weight-3 tenant served {served:?} ({frac:.2}, want ~0.75)"
        );
    }

    #[test]
    fn exports_per_tenant_counters() {
        let mut p = plan(vec![spec(3, 1).with_rate(1_000_000, 1)]);
        let t0 = SimTime::from_us(1);
        p.offer(t0, 3, frame(64)).expect("burst of one");
        assert!(p.offer(t0, 3, frame(64)).is_err());
        let mut now = t0;
        while let (_, Some(t)) = pump(&mut p, now) {
            now = t;
        }
        let mut reg = lauberhorn_sim::MetricsRegistry::new();
        p.export(&mut reg, "nic-lauberhorn");
        assert_eq!(
            reg.get_counter("nic-lauberhorn.tenant.admitted.s3"),
            Some(1)
        );
        assert_eq!(
            reg.get_counter("nic-lauberhorn.tenant.ratelimited.s3"),
            Some(1)
        );
        assert_eq!(
            reg.get_counter("nic-lauberhorn.tenant.dispatched.s3"),
            Some(1)
        );
        assert_eq!(reg.get_counter("nic-lauberhorn.tenant.admitted"), Some(1));
    }
}
