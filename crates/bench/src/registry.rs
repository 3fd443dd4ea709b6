//! The experiment registry: one [`Entry`] per paper figure, claim and
//! extension experiment.
//!
//! The `repro` binary runs entries by id (or all of them, in registry
//! order), and the `trend` gate takes its set of gated artifacts from
//! the entries whose [`Entry::artifact`] is set — so adding an
//! experiment here is the whole of wiring it into the bins, CI and
//! the regression gate.

use std::fmt::Write as _;

use lauberhorn::calib;
use lauberhorn::experiments::{
    ablations, c1, c2, c3, c4, fault, fig1, fig2, fig3, fig4, fig5, loadsweep, nested, nicfail,
    overload, tenant, txpath,
};
use lauberhorn::prelude::*;
use lauberhorn::rpc::driver;
use lauberhorn::rpc::Machine;
use lauberhorn::sim::span::{chrome_trace, stage_table};
use lauberhorn::sim::{
    blame_table, tenant_queueing_table, ObserveSpec, OverloadConfig, TenancyConfig, TenantSpec,
};
use lauberhorn::workload::TenantMix;

use crate::artifact::{self, BenchRow};

/// What one experiment run produces.
pub struct Output {
    /// The rendered tables, printed under the experiment header.
    pub text: String,
    /// The rows of `BENCH_<artifact>.json`; empty when the entry has no
    /// artifact.
    pub rows: Vec<BenchRow>,
}

impl Output {
    fn plain(text: String) -> Result<Output, String> {
        Ok(Output {
            text,
            rows: Vec::new(),
        })
    }
}

/// One experiment.
pub struct Entry {
    /// The id printed in the experiment header and accepted by `repro`
    /// (matched case-insensitively), e.g. `F2`, `LOAD`, `NICFAIL`.
    pub id: &'static str,
    /// The header title.
    pub title: &'static str,
    /// `Some(name)`: the run writes `BENCH_<name>.json`, and `trend`
    /// gates it against `crates/bench/baselines/trend/<name>.json`.
    pub artifact: Option<&'static str>,
    /// The seed the run uses and its artifact records.
    pub seed: u64,
    /// Runs the experiment. `scale` stretches the sweeps' load windows
    /// `scale`× (same offered-load points, `scale`× the requests);
    /// entries without a load window ignore it.
    pub run: fn(seed: u64, scale: u64) -> Result<Output, String>,
}

/// Every experiment, in the order `repro --all` runs them: the paper's
/// figures, its claims, then the extensions.
pub static REGISTRY: &[Entry] = &[
    Entry {
        id: "F1",
        title: "receive-path steps: who runs what, at what cost",
        artifact: None,
        seed: 42,
        run: |_, _| Output::plain(fig1::render(&fig1::run(64))),
    },
    Entry {
        id: "F2",
        title: "64-byte message round-trip latencies",
        artifact: Some("fig2"),
        seed: 42,
        run: run_fig2,
    },
    Entry {
        id: "F3",
        title: "receive fast path, phase by phase",
        artifact: None,
        seed: 42,
        run: |seed, _| {
            let mut s = fig3::render(&fig3::run(Machine::EnzianEci, seed));
            s.push('\n');
            s.push_str(&fig3::render(&fig3::run(Machine::CxlProjected, seed)));
            Output::plain(s)
        },
    },
    Entry {
        id: "F4",
        title: "NIC/CPU cache-line protocol",
        artifact: None,
        seed: 42,
        run: |_, _| Output::plain(fig4::render(&fig4::run())),
    },
    Entry {
        id: "F5",
        title: "dispatch: normal vs NIC-driven scheduling",
        artifact: None,
        seed: 42,
        run: |seed, _| Output::plain(fig5::render(&fig5::run(seed))),
    },
    Entry {
        id: "C1",
        title: "large-message crossover",
        artifact: None,
        seed: 42,
        run: |seed, _| {
            let mut s = c1::render(&c1::run());
            let (fallbacks, requests) = c1::end_to_end_check(seed);
            s.push_str(&format!(
                "\nend-to-end check: {fallbacks}/{requests} oversized requests took the DMA fallback\n"
            ));
            Output::plain(s)
        },
    },
    Entry {
        id: "C2",
        title: "model checking the Figure 4 protocol",
        artifact: None,
        seed: 42,
        run: |_, _| {
            Output::plain(format!(
                "{}{}",
                c2::render(&c2::run()),
                c2::render_races(&c2::race_census())
            ))
        },
    },
    Entry {
        id: "C3",
        title: "software cycles and energy split",
        artifact: None,
        seed: 42,
        run: |seed, _| Output::plain(c3::render(&c3::run(seed))),
    },
    Entry {
        id: "C4",
        title: "dynamic service mixes",
        artifact: None,
        seed: 42,
        run: |seed, _| {
            let p = c4::C4Params::default();
            Output::plain(c4::render(&c4::run(p, seed), p))
        },
    },
    Entry {
        id: "NEST",
        title: "nested RPCs via continuation endpoints",
        artifact: None,
        seed: 42,
        run: |_, _| Output::plain(nested::render(&nested::run())),
    },
    Entry {
        id: "TX",
        title: "transmit path over cache lines",
        artifact: None,
        seed: 42,
        run: |_, _| Output::plain(txpath::render(&txpath::run())),
    },
    Entry {
        id: "ABL",
        title: "design-choice ablations",
        artifact: None,
        seed: 42,
        run: run_ablations,
    },
    Entry {
        id: "LOAD",
        title: "throughput-latency curves",
        artifact: Some("loadsweep"),
        seed: 42,
        run: |seed, scale| {
            let curves = loadsweep::run_scaled(seed, scale);
            let rows = curves
                .iter()
                .flat_map(|c| c.points.iter())
                .map(|p| BenchRow::from_report(p.offered_rps, &p.report))
                .collect();
            Ok(Output {
                text: scale_note(scale) + &loadsweep::render(&curves),
                rows,
            })
        },
    },
    Entry {
        id: "FAULT",
        title: "goodput and tails under wire loss",
        artifact: None,
        seed: 42,
        run: |seed, scale| {
            Output::plain(scale_note(scale) + &fault::render(&fault::run_scaled(seed, scale)))
        },
    },
    Entry {
        id: "OVERLOAD",
        title: "overload control and shedding",
        artifact: Some("overload"),
        seed: 42,
        run: |seed, scale| {
            let sweep = overload::run_scaled(seed, scale);
            let mut rows: Vec<BenchRow> = sweep
                .points
                .iter()
                .map(|p| BenchRow::from_report(p.offered_rps, &p.report))
                .collect();
            rows.push(BenchRow::from_report(
                sweep.fairness.offered_rps,
                &sweep.fairness.report,
            ));
            Ok(Output {
                text: scale_note(scale) + &overload::render(&sweep),
                rows,
            })
        },
    },
    Entry {
        id: "NICFAIL",
        title: "NIC faults and shadow reconstruction",
        artifact: Some("nicfail"),
        seed: 42,
        run: |seed, scale| {
            let sweep = nicfail::run_scaled(seed, scale);
            let rows = sweep
                .points
                .iter()
                .map(|p| BenchRow::from_report(p.offered_rps, &p.report))
                .collect();
            Ok(Output {
                text: scale_note(scale) + &nicfail::render(&sweep),
                rows,
            })
        },
    },
    Entry {
        id: "TENANT",
        title: "multi-tenant isolation",
        artifact: Some("tenant"),
        seed: 42,
        run: |seed, scale| {
            let sweep = tenant::run_scaled(seed, scale);
            let rows = sweep
                .points
                .iter()
                .map(|p| {
                    BenchRow::from_report(p.offered_rps, &p.report)
                        .with_extra("storm", p.storm)
                        .with_extra("isolation", if p.isolation { 1.0 } else { 0.0 })
                        .with_extra("slo_met_frac", p.slo_met_frac())
                })
                .collect();
            Ok(Output {
                text: scale_note(scale) + &tenant::render(&sweep),
                rows,
            })
        },
    },
    Entry {
        id: "PROFILE",
        title: "traced echo per stack: stages, blame, Chrome traces",
        artifact: Some("profile"),
        seed: 7,
        run: run_profile,
    },
];

/// The entry with id `id`, matched case-insensitively.
pub fn find(id: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

/// The artifact names `trend` gates, in registry order.
pub fn gated() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().filter_map(|e| e.artifact)
}

/// The line a scaled sweep prints ahead of its tables.
fn scale_note(scale: u64) -> String {
    if scale == 1 {
        String::new()
    } else {
        format!("scale knob: {scale}x load window\n")
    }
}

fn run_fig2(seed: u64, _scale: u64) -> Result<Output, String> {
    let mut text = String::from("calibration:\n");
    text.push_str(&calib::calibration_table());
    text.push('\n');
    let reports = fig2::run(10, seed);
    text.push_str(&fig2::render(&reports));
    let rows = reports
        .iter()
        .map(|r| BenchRow::from_report(0.0, r))
        .collect();
    Ok(Output { text, rows })
}

fn run_ablations(seed: u64, _scale: u64) -> Result<Output, String> {
    let mut s = ablations::render(
        "A1 — user-loop yield policy (TRYAGAINs before returning the core)",
        &ablations::yield_policy(seed),
    );
    s.push('\n');
    s.push_str(&ablations::render(
        "A2 — TRYAGAIN window sweep (liveness bound, not a latency knob)",
        &ablations::tryagain_window(seed),
    ));
    let (cont, kernel) = ablations::continuations();
    s.push_str(&format!(
        "\nA3 — nested-RPC reply delivery (§6):\n  via continuation endpoint: {cont:>8.0} ns\n  via kernel dispatch path:  {kernel:>8.0} ns\n"
    ));
    Output::plain(s)
}

/// A small traced multi-tenant run on the unbounded baseline: 8
/// tenants, Zipf-skewed, tenant 0 storming at `storm`× its quiet
/// share. Quiet vs contended blame profiles feed the per-tenant
/// queueing-growth table of the profile.
fn tenant_run(storm: f64) -> Report {
    const TENANTS: usize = 8;
    let specs: Vec<TenantSpec> = (0..TENANTS as u16)
        .map(|t| TenantSpec::new(t, 1, SimDuration::from_us(300)))
        .collect();
    let mut wl = WorkloadSpec::open_poisson(
        150_000.0 * (1.0 + (storm - 1.0) * 0.3),
        TENANTS,
        0.0,
        SizeDist::Fixed { bytes: 64 },
        5,
        11,
    );
    wl.mix = TenantMix::zipf(TENANTS, 0.8, 0, storm).to_mix();
    wl.warmup = 100;
    let wl = wl.with_observe(ObserveSpec::full()).with_overload(
        OverloadConfig::unbounded_baseline().with_tenancy(TenancyConfig::observe_only(specs)),
    );
    Experiment::new(StackKind::LauberhornCxl)
        .cores(2)
        .services(ServiceSpec::uniform(TENANTS, 4_000, 32))
        .run(&wl)
}

/// Observability profile: one short echo run per stack with full
/// tracing on. For each stack it renders the per-stage latency table
/// (Figure 1 / Figure 3 step decomposition, measured from spans), the
/// critical-path blame and the metrics registry, and writes a Chrome
/// trace to `PROFILE_<stack>.trace.json` (load it in `chrome://tracing`
/// or Perfetto).
///
/// Tracing is load-bearing here and free everywhere else: each
/// workload is re-run with observability off and the report digests
/// must match (the zero-perturbation guarantee, DESIGN.md §11). A
/// mismatch, or a trace that cannot be written, fails the run.
fn run_profile(seed: u64, _scale: u64) -> Result<Output, String> {
    let stacks = [
        ("kernel", StackKind::KernelModern),
        ("bypass", StackKind::BypassModern),
        ("lauberhorn", StackKind::LauberhornEnzian),
    ];
    const RULE: &str = "================================================================";
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    let mut s = String::new();
    for (slug, kind) in stacks {
        let wl = WorkloadSpec::echo_closed(64, 2, seed).with_observe(ObserveSpec::full());
        let mut stack = Experiment::new(kind).build();
        let observed = driver::run(&mut *stack, &wl);

        let common = stack.common();
        let spans = common.tracer.spans();
        let _ = writeln!(
            s,
            "{RULE}\n{} — {} spans over {} requests (dropped {}, force-closed {})\n{RULE}",
            observed.stack,
            spans.len(),
            observed.completed,
            common.tracer.dropped(),
            common.tracer.truncated(),
        );
        s.push_str(&stage_table(spans));
        s.push('\n');
        if let Some(blame) = &observed.blame {
            s.push_str(&blame_table(blame));
            s.push('\n');
        }
        s.push_str(&observed.metrics.render());
        rows.push(BenchRow::from_report(0.0, &observed));

        let path = artifact::out_dir().join(format!("PROFILE_{slug}.trace.json"));
        match std::fs::write(&path, chrome_trace(&observed.stack, spans)) {
            Ok(()) => {
                let _ = writeln!(s, "chrome trace -> {}", path.display());
            }
            Err(e) => failures.push(format!("cannot write {}: {e}", path.display())),
        }

        // Zero-perturbation audit: the same workload with observability
        // off must produce a byte-identical report.
        let blind = Experiment::new(kind).run(&WorkloadSpec::echo_closed(64, 2, seed));
        if blind.digest() == observed.digest() {
            let _ = writeln!(
                s,
                "zero-perturbation: digests match ({:#018x})",
                blind.digest()
            );
        } else {
            failures.push(format!(
                "PERTURBATION on {}: observed {:#018x} != blind {:#018x}",
                observed.stack,
                observed.digest(),
                blind.digest()
            ));
        }
        s.push('\n');
    }
    // Per-tenant blame: the same tenant population quiet and with the
    // hog storming, no isolation — the queueing-growth table names
    // whose queueing grew under the storm (DESIGN.md §17's diagnostic
    // view: here the hog drowns in its own backlog first).
    let _ = writeln!(
        s,
        "{RULE}\nper-tenant blame — 8 tenants, tenant 0 storms 8x, no isolation\n{RULE}"
    );
    let quiet = tenant_run(1.0);
    let stormy = tenant_run(8.0);
    match (&quiet.blame, &stormy.blame) {
        (Some(q), Some(st)) => s.push_str(&tenant_queueing_table(q, st)),
        _ => failures.push("tenant runs produced no blame profile".into()),
    }
    if failures.is_empty() {
        Ok(Output { text: s, rows })
    } else {
        Err(failures.join("; "))
    }
}
