//! Causal critical-path extraction and latency blame decomposition.
//!
//! The paper's argument is a *latency attribution* argument: Figure 1
//! claims the kernel burns a request's budget in named stages, Figure 3
//! claims Lauberhorn deletes them. A span tree records those stages;
//! this module turns each request's tree into a **critical path** — a
//! gapless partition of the root interval — and charges every
//! picosecond of end-to-end latency to exactly one stage and one
//! [`BlameClass`] (service, queueing, retry/recovery, shed-backoff).
//!
//! The decomposition is a boundary sweep: all span edges inside the
//! root interval cut it into elementary segments; each segment is won
//! by the *deepest* span covering it (ties: later start, then higher
//! id), and segments no child covers are un-instrumented wait —
//! queueing. Because the segments partition the root interval by
//! construction, the per-stage blame sums **exactly** to the measured
//! end-to-end latency; [`CritPath::check_exact`] asserts it and the
//! tier-1 `observability` test enforces it across every stack.
//!
//! Like the tracer itself, everything here is analysis-side: it reads
//! recorded spans and touches no simulated state, preserving the
//! zero-perturbation guarantee.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::{SpanId, SpanRecord, Stage};
use crate::time::SimTime;

/// Which budget a segment of the critical path burns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameClass {
    /// Productive work: protocol processing, dispatch, the handler.
    Service,
    /// Waiting behind other work (socket backlog, RX ring, or any
    /// un-instrumented gap inside the root interval).
    Queueing,
    /// Loss and failure recovery: retransmission waits, NIC-down
    /// backlog, shadow-state replay.
    Recovery,
    /// Overload shed-backoff: time bought by a pushback NACK.
    Backoff,
}

impl BlameClass {
    /// All classes, in report order.
    pub const ALL: [BlameClass; 4] = [
        BlameClass::Service,
        BlameClass::Queueing,
        BlameClass::Recovery,
        BlameClass::Backoff,
    ];

    /// Stable label used by exporters and the trend artifact.
    pub fn label(self) -> &'static str {
        match self {
            BlameClass::Service => "service",
            BlameClass::Queueing => "queueing",
            BlameClass::Recovery => "recovery",
            BlameClass::Backoff => "backoff",
        }
    }

    /// Index into per-class accumulator arrays.
    pub fn idx(self) -> usize {
        match self {
            BlameClass::Service => 0,
            BlameClass::Queueing => 1,
            BlameClass::Recovery => 2,
            BlameClass::Backoff => 3,
        }
    }
}

impl Stage {
    /// The blame class a stage's time is charged to.
    pub fn blame_class(self) -> BlameClass {
        match self {
            Stage::Backoff => BlameClass::Backoff,
            Stage::Recovery | Stage::RetryWait => BlameClass::Recovery,
            Stage::Queue | Stage::Park => BlameClass::Queueing,
            // The root itself never wins a segment; uncovered root time
            // is charged as queueing via [`Segment::GAP_LABEL`].
            Stage::Request => BlameClass::Queueing,
            _ => BlameClass::Service,
        }
    }
}

/// One elementary segment of a request's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// The deepest span covering the segment; `None` for gaps no child
    /// span covers.
    pub stage: Option<Stage>,
    /// Budget the segment is charged to.
    pub class: BlameClass,
}

impl Segment {
    /// Stage label for un-instrumented gaps.
    pub const GAP_LABEL: &'static str = "gap";

    /// Label used in blame tables.
    pub fn label(&self) -> &'static str {
        match self.stage {
            Some(s) => s.label(),
            None => Segment::GAP_LABEL,
        }
    }

    /// Segment duration in picoseconds.
    pub fn dur_ps(&self) -> u64 {
        self.end.since(self.start).as_ps()
    }
}

/// A request's critical path: a gapless partition of its root span.
#[derive(Debug, Clone)]
pub struct CritPath {
    /// The request the path belongs to.
    pub request_id: u64,
    /// Root span start (request arrival at the NIC).
    pub start: SimTime,
    /// Root span end (response delivered, or force-close cutoff).
    pub end: SimTime,
    /// The partition, in time order.
    pub segments: Vec<Segment>,
}

impl CritPath {
    /// Measured end-to-end latency in picoseconds.
    pub fn total_ps(&self) -> u64 {
        self.end.since(self.start).as_ps()
    }

    /// Per-class decomposition in picoseconds, [`BlameClass::idx`]
    /// order.
    pub fn by_class_ps(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for seg in &self.segments {
            if let Some(slot) = out.get_mut(seg.class.idx()) {
                *slot += seg.dur_ps();
            }
        }
        out
    }

    /// The exact-sum invariant: segment durations must sum to the
    /// measured end-to-end latency, to the picosecond.
    pub fn check_exact(&self) -> Result<(), String> {
        let sum: u64 = self.segments.iter().map(Segment::dur_ps).sum();
        if sum != self.total_ps() {
            return Err(format!(
                "request {}: decomposition sums to {} ps, measured {} ps",
                self.request_id,
                sum,
                self.total_ps()
            ));
        }
        let mut cursor = self.start;
        for seg in &self.segments {
            if seg.start != cursor || seg.end < seg.start {
                return Err(format!(
                    "request {}: segment not contiguous at {:?}",
                    self.request_id, seg.start
                ));
            }
            cursor = seg.end;
        }
        if cursor != self.end {
            return Err(format!(
                "request {}: partition stops short of root end",
                self.request_id
            ));
        }
        Ok(())
    }
}

/// Span depth: root = 0, children one deeper. `spans` must be an
/// id-indexed arena (the tracer buffer, or concatenated harvested
/// trees — both store each span at the index its id names).
fn depths(spans: &[SpanRecord]) -> Vec<u32> {
    let mut d = vec![0u32; spans.len()];
    for (i, rec) in spans.iter().enumerate() {
        let Some(p) = rec.parent.index() else {
            continue;
        };
        let depth = if p < i {
            d.get(p).copied().unwrap_or(0) + 1
        } else {
            // Recycled-slot order: walk up explicitly (trees are
            // shallow, this is rare).
            let mut depth = 0u32;
            let mut cur = rec.parent;
            while let Some(ci) = cur.index() {
                depth += 1;
                if depth >= 64 {
                    break;
                }
                cur = spans.get(ci).map(|r| r.parent).unwrap_or(SpanId::NONE);
            }
            depth
        };
        if let Some(slot) = d.get_mut(i) {
            *slot = depth;
        }
    }
    d
}

/// Extracts the critical path of every request with a root span in
/// `spans`. Requests whose root never closed are skipped (the tracer's
/// `finish` closes everything before analysis in practice).
pub fn critical_paths(spans: &[SpanRecord]) -> Vec<CritPath> {
    let depth = depths(spans);
    // Group member span indices by request id, excluding roots.
    let mut members: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, rec) in spans.iter().enumerate() {
        let Some(rid) = rec.request_id else { continue };
        if rec.stage == Stage::Request {
            roots.push(i);
        } else {
            members.entry(rid).or_default().push(i);
        }
    }
    let mut out = Vec::with_capacity(roots.len());
    for ri in roots {
        let Some(root) = spans.get(ri) else { continue };
        let (Some(rid), Some(rend)) = (root.request_id, root.end) else {
            continue;
        };
        let rstart = root.start;
        let empty = Vec::new();
        let kids = members.get(&rid).unwrap_or(&empty);
        // Clamp children to the root interval and collect boundaries.
        let mut clamped: Vec<(SimTime, SimTime, usize)> = Vec::with_capacity(kids.len());
        let mut bounds: Vec<SimTime> = Vec::with_capacity(kids.len() * 2 + 2);
        bounds.push(rstart);
        bounds.push(rend);
        for &ki in kids {
            let Some(kid) = spans.get(ki) else { continue };
            let ks = kid.start.max(rstart).min(rend);
            let ke = kid.end.unwrap_or(kid.start).min(rend).max(ks);
            if ke > ks {
                clamped.push((ks, ke, ki));
                bounds.push(ks);
                bounds.push(ke);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        let mut segments = Vec::with_capacity(bounds.len().saturating_sub(1));
        for pair in bounds.windows(2) {
            let (&lo, &hi) = match pair {
                [a, b] => (a, b),
                _ => continue,
            };
            // Deepest covering span wins; ties go to the later start,
            // then the higher id — the most recently entered context.
            let mut win: Option<usize> = None;
            for &(ks, ke, ki) in &clamped {
                if ks <= lo && ke >= hi {
                    let better = match win {
                        None => true,
                        Some(w) => {
                            let (wd, wk) = (depth.get(w).copied().unwrap_or(0), w);
                            let kd = depth.get(ki).copied().unwrap_or(0);
                            let ws = spans.get(wk).map(|r| r.start).unwrap_or(SimTime::ZERO);
                            (kd, ks, ki) > (wd, ws, wk)
                        }
                    };
                    if better {
                        win = Some(ki);
                    }
                }
            }
            let stage = win.and_then(|w| spans.get(w)).map(|r| r.stage);
            let class = stage.map_or(BlameClass::Queueing, Stage::blame_class);
            segments.push(Segment {
                start: lo,
                end: hi,
                stage,
                class,
            });
        }
        out.push(CritPath {
            request_id: rid,
            start: rstart,
            end: rend,
            segments,
        });
    }
    out
}

/// Aggregated blame across many critical paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlameProfile {
    /// Requests decomposed.
    pub requests: u64,
    /// Total end-to-end picoseconds attributed.
    pub total_ps: u64,
    /// Per-class picoseconds, [`BlameClass::idx`] order.
    pub by_class_ps: [u64; 4],
    /// Per-stage picoseconds (label → ps); gaps appear as `"gap"`.
    pub by_stage_ps: BTreeMap<&'static str, u64>,
    /// Per-service per-class picoseconds (service id → class array),
    /// for requests whose service is known.
    pub by_service_ps: BTreeMap<u16, [u64; 4]>,
}

impl BlameProfile {
    /// Builds a profile from extracted paths; `service_of` names a
    /// request's target service when known (PR 5's overload ledger
    /// dimension).
    pub fn build(paths: &[CritPath], service_of: impl Fn(u64) -> Option<u16>) -> BlameProfile {
        let mut prof = BlameProfile::default();
        for path in paths {
            prof.requests += 1;
            prof.total_ps += path.total_ps();
            let svc = service_of(path.request_id);
            for seg in &path.segments {
                let d = seg.dur_ps();
                if let Some(slot) = prof.by_class_ps.get_mut(seg.class.idx()) {
                    *slot += d;
                }
                *prof.by_stage_ps.entry(seg.label()).or_default() += d;
                if let Some(s) = svc {
                    let row = prof.by_service_ps.entry(s).or_insert([0u64; 4]);
                    if let Some(slot) = row.get_mut(seg.class.idx()) {
                        *slot += d;
                    }
                }
            }
        }
        prof
    }

    /// Queueing share of one tenant's attributed time, in permille.
    /// `None` when the tenant has no decomposed requests. Tenants are
    /// service ids (the 1:1 mapping DESIGN.md §17 fixes), so this is
    /// the per-tenant cut of the blame profile.
    pub fn queueing_permille_of(&self, tenant: u16) -> Option<u64> {
        let row = self.by_service_ps.get(&tenant)?;
        let total: u64 = row.iter().sum();
        if total == 0 {
            return None;
        }
        row.get(BlameClass::Queueing.idx())
            .map(|ps| ps * 1000 / total)
    }
}

/// Renders a blame profile as an ASCII table: the class decomposition,
/// the per-stage breakdown, then per-service rows when available.
pub fn blame_table(prof: &BlameProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "blame across {} requests, {} us attributed",
        prof.requests,
        prof.total_ps / 1_000_000
    );
    let _ = writeln!(out, "{:<12} {:>12} {:>7}", "class", "total_us", "share");
    for class in BlameClass::ALL {
        let ps = prof.by_class_ps.get(class.idx()).copied().unwrap_or(0);
        let share = if prof.total_ps == 0 {
            0.0
        } else {
            ps as f64 * 100.0 / prof.total_ps as f64
        };
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>6.1}%",
            class.label(),
            ps / 1_000_000,
            share
        );
    }
    let mut stages: Vec<(&'static str, u64)> =
        prof.by_stage_ps.iter().map(|(k, v)| (*k, *v)).collect();
    stages.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let _ = writeln!(out, "{:<12} {:>12} {:>7}", "stage", "total_us", "share");
    for (label, ps) in stages {
        let share = if prof.total_ps == 0 {
            0.0
        } else {
            ps as f64 * 100.0 / prof.total_ps as f64
        };
        let _ = writeln!(out, "{:<12} {:>12} {:>6.1}%", label, ps / 1_000_000, share);
    }
    if !prof.by_service_ps.is_empty() {
        let _ = writeln!(
            out,
            "{:<12} {:>12} {:>12} {:>12} {:>12}",
            "service", "service_us", "queue_us", "recov_us", "backoff_us"
        );
        for (svc, row) in &prof.by_service_ps {
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>12} {:>12} {:>12}",
                svc,
                row.first().copied().unwrap_or(0) / 1_000_000,
                row.get(1).copied().unwrap_or(0) / 1_000_000,
                row.get(2).copied().unwrap_or(0) / 1_000_000,
                row.get(3).copied().unwrap_or(0) / 1_000_000,
            );
        }
    }
    out
}

/// Renders the per-tenant queueing attribution between a quiet and a
/// contended run of the same workload shape: for every tenant seen in
/// either profile, its queueing share of attributed time in each run
/// and the growth, sorted so the tenant whose queueing grew the most
/// comes first. This is the "whose queueing grew" view the TENANT
/// experiment uses to show a noisy neighbor's damage (or, with
/// isolation armed, its containment).
pub fn tenant_queueing_table(quiet: &BlameProfile, contended: &BlameProfile) -> String {
    let mut tenants: Vec<u16> = quiet
        .by_service_ps
        .keys()
        .chain(contended.by_service_ps.keys())
        .copied()
        .collect();
    tenants.sort_unstable();
    tenants.dedup();
    let mut rows: Vec<(u16, u64, u64, i64)> = tenants
        .into_iter()
        .map(|t| {
            let q = quiet.queueing_permille_of(t).unwrap_or(0);
            let c = contended.queueing_permille_of(t).unwrap_or(0);
            (t, q, c, c as i64 - q as i64)
        })
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(&b.0)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "queueing share by tenant (permille of attributed time)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>8}",
        "tenant", "quiet", "contended", "growth"
    );
    for (t, q, c, d) in rows {
        let _ = writeln!(out, "{:<8} {:>10} {:>10} {:>+8}", t, q, c, d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ObserveSpec, SpanTracer};

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn tracer() -> SpanTracer {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::full());
        tr
    }

    #[test]
    fn decomposition_sums_exactly_and_gaps_are_queueing() {
        let mut tr = tracer();
        let root = tr.begin(t(0), Stage::Request, Some(1), SpanId::NONE, 1000);
        tr.span(Stage::Protocol, Some(1), root, 0, t(0), t(100));
        // Gap 100..250 — nothing instrumented.
        tr.span(Stage::Handler, Some(1), root, 0, t(250), t(900));
        tr.end(root, t(1000));
        let paths = critical_paths(tr.spans());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        p.check_exact().expect("exact sum");
        assert_eq!(p.total_ps(), 1_000_000);
        let by = p.by_class_ps();
        // 100 + 650 ns of service, 150 + 100 ns of gap-queueing.
        assert_eq!(by[BlameClass::Service.idx()], 750_000);
        assert_eq!(by[BlameClass::Queueing.idx()], 250_000);
        let gaps: Vec<&Segment> = p.segments.iter().filter(|s| s.stage.is_none()).collect();
        assert_eq!(gaps.len(), 2);
        assert!(gaps.iter().all(|s| s.label() == Segment::GAP_LABEL));
    }

    #[test]
    fn deepest_covering_span_wins() {
        let mut tr = tracer();
        let root = tr.begin(t(0), Stage::Request, Some(1), SpanId::NONE, 1000);
        let sys = tr.begin(t(0), Stage::Syscall, Some(1), root, 0);
        tr.span(Stage::Copy, Some(1), sys, 0, t(20), t(60));
        tr.end(sys, t(100));
        tr.end(root, t(100));
        let paths = critical_paths(tr.spans());
        let p = &paths[0];
        p.check_exact().expect("exact sum");
        // copy (depth 2) wins 20..60 over syscall (depth 1).
        let copy_ps: u64 = p
            .segments
            .iter()
            .filter(|s| s.stage == Some(Stage::Copy))
            .map(Segment::dur_ps)
            .sum();
        let sys_ps: u64 = p
            .segments
            .iter()
            .filter(|s| s.stage == Some(Stage::Syscall))
            .map(Segment::dur_ps)
            .sum();
        assert_eq!(copy_ps, 40_000);
        assert_eq!(sys_ps, 60_000);
    }

    #[test]
    fn recovery_and_backoff_classes_are_charged() {
        let mut tr = tracer();
        let root = tr.begin(t(0), Stage::Request, Some(7), SpanId::NONE, 1000);
        tr.span(Stage::Recovery, Some(7), root, 0, t(0), t(400));
        tr.span(Stage::Handler, Some(7), root, 0, t(400), t(500));
        tr.end(root, t(500));
        let root2 = tr.begin(t(0), Stage::Request, Some(8), SpanId::NONE, 1001);
        tr.span(Stage::Backoff, Some(8), root2, 0, t(0), t(300));
        tr.end(root2, t(300));
        let paths = critical_paths(tr.spans());
        let mut services = BTreeMap::new();
        services.insert(7u64, 2u16);
        let prof = BlameProfile::build(&paths, |rid| services.get(&rid).copied());
        assert_eq!(prof.requests, 2);
        assert_eq!(prof.total_ps, 800_000);
        assert_eq!(prof.by_class_ps[BlameClass::Recovery.idx()], 400_000);
        assert_eq!(prof.by_class_ps[BlameClass::Backoff.idx()], 300_000);
        assert_eq!(prof.by_class_ps[BlameClass::Service.idx()], 100_000);
        let svc = prof.by_service_ps.get(&2).expect("service row");
        assert_eq!(svc[BlameClass::Recovery.idx()], 400_000);
        let table = blame_table(&prof);
        assert!(table.contains("recovery"), "{table}");
        assert!(table.contains("service"), "{table}");
    }

    #[test]
    fn tenant_queueing_growth_ranks_the_victim_first() {
        // Quiet: tenant 3 is all service. Contended: half its time is
        // an un-instrumented gap (queueing), while tenant 5 stays flat.
        let build = |gap_ns: u64| {
            let mut tr = tracer();
            let root = tr.begin(t(0), Stage::Request, Some(1), SpanId::NONE, 1000);
            tr.span(Stage::Handler, Some(1), root, 0, t(gap_ns), t(1000));
            tr.end(root, t(1000));
            let root2 = tr.begin(t(0), Stage::Request, Some(2), SpanId::NONE, 1001);
            tr.span(Stage::Handler, Some(2), root2, 0, t(0), t(1000));
            tr.end(root2, t(1000));
            let mut services = BTreeMap::new();
            services.insert(1u64, 3u16);
            services.insert(2u64, 5u16);
            BlameProfile::build(&critical_paths(tr.spans()), |rid| {
                services.get(&rid).copied()
            })
        };
        let quiet = build(0);
        let contended = build(500);
        assert_eq!(quiet.queueing_permille_of(3), Some(0));
        assert_eq!(contended.queueing_permille_of(3), Some(500));
        assert_eq!(contended.queueing_permille_of(9), None);
        let table = tenant_queueing_table(&quiet, &contended);
        let victim = table.lines().nth(2).expect("first tenant row");
        assert!(victim.trim_start().starts_with('3'), "{table}");
        assert!(victim.contains("+500"), "{table}");
    }

    #[test]
    fn harvested_trees_concatenate_into_an_arena() {
        let mut tr = SpanTracer::default();
        tr.configure(&ObserveSpec::flight(4));
        let mut arena: Vec<SpanRecord> = Vec::new();
        for rid in 0..3u64 {
            let at = t(rid * 1000);
            let root = tr.begin(at, Stage::Request, Some(rid), SpanId::NONE, 1000);
            tr.span(Stage::Handler, Some(rid), root, 0, at, t(rid * 1000 + 500));
            tr.end(root, t(rid * 1000 + 600));
            assert!(tr.take_request(rid, t(rid * 1000 + 600), &mut arena));
        }
        let paths = critical_paths(&arena);
        assert_eq!(paths.len(), 3);
        for p in &paths {
            p.check_exact().expect("exact sum");
            assert_eq!(p.total_ps(), 600_000);
        }
    }
}
