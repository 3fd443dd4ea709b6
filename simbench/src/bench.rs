//! One benchmark invocation: set-up, the measured loop over the three
//! stacks, failure accounting, and the metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lauberhorn::rpc::{driver, Report, ServerStack, WorkloadSpec};
use lauberhorn_bench::json::Json;

use crate::alloc::{self, Layer, Snapshot};
use crate::probe::{LayerTimes, Probe, Span};
use crate::workload::{Workload, STACKS};

/// Set-up repetitions per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;
/// Rounds (one run of every stack) made even when `--seconds` is
/// already spent.
pub const MIN_ROUNDS: usize = 3;

/// What [`calibrate`] takes on the reference host, in nanoseconds.
/// Every host time the benchmark reports is scaled to that host's
/// speed: multiplied by `CALIB_REF_NS / calibrate()`, measured just
/// before the timed work.
pub const CALIB_REF_NS: f64 = 4_000_000.0;

/// Times a fixed loop of the kind of work the simulator does (ordered
/// map inserts and removals, small allocations) and returns its host
/// nanoseconds. A shared host's speed drifts by tens of percent over
/// minutes; scaling by this reading taken next to each measurement
/// halves the spread that drift leaves between runs.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 5000, vec![i as u8; (x % 64) as usize]);
        if i % 3 == 0 {
            map.remove(&((x >> 8) % 5000));
        }
    }
    std::hint::black_box(&map);
    t0.elapsed().as_nanos() as f64
}

/// Host cost of one `driver::run`.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Wall time of the call.
    pub wall_ns: u64,
    /// Allocation counters over the call (`peak` and `live` relative
    /// to the level at its start).
    pub alloc: Snapshot,
    /// When the call started and returned.
    pub start: Instant,
    /// See `start`.
    pub end: Instant,
}

/// Runs `spec` on `stack` through the public driver, timing it and
/// counting its allocations. A panic is returned as its message.
pub fn timed_run(
    stack: &mut dyn ServerStack,
    spec: &WorkloadSpec,
) -> Result<(Report, Cost), String> {
    alloc::enter(Layer::Driver);
    alloc::reset_peak();
    let before = alloc::snapshot();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| driver::run(stack, spec)));
    let end = Instant::now();
    let after = alloc::snapshot();
    alloc::enter(Layer::Driver);
    let report = result.map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string())
    })?;
    let cost = Cost {
        wall_ns: end.duration_since(start).as_nanos() as u64,
        alloc: after.since(&before),
        start,
        end,
    };
    Ok((report, cost))
}

/// Builds `stack` for `workload`, returning it with its build time and
/// allocation count.
pub fn build(workload: Workload, stack: usize) -> (Box<dyn ServerStack>, u64, u64) {
    let prev = alloc::enter(Layer::Build);
    let before = alloc::snapshot();
    let t0 = Instant::now();
    let built = workload.experiment(STACKS[stack].0).build();
    let ns = t0.elapsed().as_nanos() as u64;
    let allocs = alloc::snapshot().since(&before).calls[Layer::Build.index()];
    alloc::enter(prev);
    (built, ns, allocs)
}

/// Failure accounting: every stack run is one operation.
#[derive(Debug, Default)]
pub struct Ledger {
    open_loop: bool,
    reference: [Option<u64>; STACKS.len()],
    request_digest: Option<u64>,
    /// Operations recorded.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why, for the first few failures.
    pub problems: Vec<String>,
}

impl Ledger {
    /// A ledger for a workload; `open_loop` workloads must offer every
    /// stack the same request stream.
    pub fn new(open_loop: bool) -> Self {
        Ledger {
            open_loop,
            ..Ledger::default()
        }
    }

    /// Records one run of stack `stack` (an index into [`STACKS`]);
    /// returns whether it passed. A run fails if it panicked, completed
    /// nothing, accounted for more requests than were offered, or its
    /// digest differs from the first untraced run of the same stack in
    /// this ledger; on an open-loop workload, also if its request
    /// digest differs from the other stacks'.
    pub fn record(
        &mut self,
        stack: usize,
        traced: bool,
        outcome: &Result<(Report, Cost), String>,
    ) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Err(panic) => Some(format!("panicked: {panic}")),
            Ok((r, _)) => self.check(stack, traced, r),
        };
        let Some(problem) = problem else {
            return true;
        };
        self.failed += 1;
        if self.problems.len() < 8 {
            let run = if traced { "traced" } else { "untraced" };
            self.problems
                .push(format!("{} {run} run: {problem}", STACKS[stack].1));
        }
        false
    }

    fn check(&mut self, stack: usize, traced: bool, r: &Report) -> Option<String> {
        if r.completed == 0 {
            return Some("completed nothing".to_string());
        }
        if r.completed + r.dropped > r.offered {
            return Some(format!(
                "completed {} + dropped {} > offered {}",
                r.completed, r.dropped, r.offered
            ));
        }
        if self.open_loop {
            let want = *self.request_digest.get_or_insert(r.request_digest);
            if r.request_digest != want {
                return Some(format!(
                    "request digest {:#018x}, other stacks {want:#018x}",
                    r.request_digest
                ));
            }
        }
        let digest = r.digest();
        match self.reference[stack] {
            Some(want) if digest != want => Some(format!(
                "report digest {digest:#018x}, first untraced run {want:#018x}"
            )),
            Some(_) => None,
            None if traced => Some("traced run before any untraced run".to_string()),
            None => {
                self.reference[stack] = Some(digest);
                None
            }
        }
    }
}

/// One untraced run.
#[derive(Debug, Clone, Copy)]
struct Plain {
    offered: u64,
    cost: Cost,
    /// Host-speed factor (see [`CALIB_REF_NS`]) for this run's times.
    scale: f64,
}

impl Plain {
    fn per_req(&self, x: f64) -> f64 {
        x / self.offered.max(1) as f64
    }

    fn ns_per_req(&self) -> f64 {
        self.per_req(self.cost.wall_ns as f64 * self.scale)
    }
}

/// One traced run.
#[derive(Debug, Clone, Copy)]
struct Traced {
    offered: u64,
    cost: Cost,
    scale: f64,
    build_ns: u64,
    build_allocs: u64,
    times: LayerTimes,
    report_tail_ns: u64,
}

impl Traced {
    fn per_req(&self, x: u64) -> f64 {
        x as f64 / self.offered.max(1) as f64
    }

    /// Scaled host ns per offered request.
    fn ns_per_req(&self, ns: u64) -> f64 {
        self.per_req(ns) * self.scale
    }

    /// Host time in the stack's trait calls.
    fn calls_ns(&self) -> u64 {
        [
            Layer::Step,
            Layer::Inject,
            Layer::Peek,
            Layer::Prepare,
            Layer::Finish,
        ]
        .iter()
        .map(|l| self.times.ns[l.index()])
        .sum()
    }

    fn driver_ns(&self) -> u64 {
        self.cost
            .wall_ns
            .saturating_sub(self.calls_ns() + self.report_tail_ns)
    }
}

/// What one stack's runs left behind.
#[derive(Debug, Default)]
struct StackRuns {
    plain: Vec<Plain>,
    traced: Vec<Traced>,
    /// The last passing report, for the summary and simulated counts.
    last: Option<Report>,
    /// Calibration readings taken next to every run.
    calib_ns: Vec<f64>,
    /// Spans of the first traced run, with that run's bounds.
    spans: Vec<Span>,
    spans_dropped: u64,
    run_span: (u64, u64),
}

/// A named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value summarises (1 for a single count).
    pub samples: usize,
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Failure accounting over every run made.
    pub ledger: Ledger,
    /// The end-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs); empty without `trace`.
    pub per_layer: Vec<Metric>,
    /// One summary line per stack: digests and simulated latency.
    pub summary: Vec<String>,
    /// Median [`calibrate`] reading over the invocation, in ns.
    pub calib_ns: f64,
    /// The traced-run output document (JSON); empty without `trace`.
    pub trace_json: String,
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn metric(name: String, unit: &'static str, samples: Vec<f64>) -> Metric {
    let n = samples.len();
    Metric {
        name,
        unit,
        value: median(samples),
        samples: n,
    }
}

/// Runs `workload` for `seconds` of measurement with inputs from
/// `seed`. With `trace`, every untraced run is paired with a traced
/// run through the [`Probe`], and the per-layer metrics are reported;
/// without, one traced run per stack still checks that the probe leaves
/// the simulation unchanged.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let duration = workload.duration();

    // Set-up: the workload spec and the three stacks, several times.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut calib_ns = Vec::new();
    for _ in 0..SETUP_REPS {
        let cal = calibrate();
        calib_ns.push(cal);
        let t0 = Instant::now();
        let spec = workload.spec(seed, duration);
        let stacks: Vec<Box<dyn ServerStack>> = (0..STACKS.len())
            .map(|i| workload.experiment(STACKS[i].0).build())
            .collect();
        setup.push(t0.elapsed().as_secs_f64() * CALIB_REF_NS / cal);
        drop(std::hint::black_box((spec, stacks)));
    }
    let spec = workload.spec(seed, duration);

    let mut ledger = Ledger::new(workload.open_loop());
    let mut runs: Vec<StackRuns> = (0..STACKS.len()).map(|_| StackRuns::default()).collect();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() < budget {
        for (i, runs) in runs.iter_mut().enumerate() {
            plain_run(workload, &spec, i, &mut ledger, runs);
            if trace {
                traced_run(workload, &spec, i, &mut ledger, runs);
            }
        }
        rounds += 1;
    }
    if !trace {
        for (i, runs) in runs.iter_mut().enumerate() {
            traced_run(workload, &spec, i, &mut ledger, runs);
        }
    }

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    let mut summary = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let s = STACKS[i].1;
        end_to_end.push(metric(
            format!("ns_per_req.{s}"),
            "ns",
            r.plain.iter().map(Plain::ns_per_req).collect(),
        ));
        end_to_end.push(metric(
            format!("allocs_per_req.{s}"),
            "allocs",
            r.plain
                .iter()
                .map(|p| p.per_req(p.cost.alloc.total_calls() as f64))
                .collect(),
        ));
        end_to_end.push(metric(
            format!("peak_heap_mb.{s}"),
            "MB",
            r.plain
                .iter()
                .map(|p| p.cost.alloc.peak as f64 / 1e6)
                .collect(),
        ));
        if let Some(rep) = &r.last {
            summary.push(format!(
                "{:<22} offered={} completed={} dropped={} digest={:#018x} request_digest={:#018x} sim_rtt_p50={:.3}us sim_rtt_p99={:.3}us",
                rep.stack,
                rep.offered,
                rep.completed,
                rep.dropped,
                rep.digest(),
                rep.request_digest,
                rep.rtt.p50_us(),
                rep.rtt.p99_us(),
            ));
        }
        if trace {
            per_layer.extend(layer_metrics(s, r));
        }
    }
    end_to_end.push(metric("setup_s".to_string(), "s", setup));
    if trace {
        if let Some(rep) = &runs[0].last {
            let get = |n: &str| rep.metrics.get_counter(n).unwrap_or(0) as f64;
            per_layer.push(Metric {
                name: "nic.fast_path_frac".to_string(),
                unit: "frac",
                value: get("nic-lauberhorn.dispatch.fast_path")
                    / get("nic-lauberhorn.rx.requests").max(1.0),
                samples: 1,
            });
        }
    }
    calib_ns.extend(runs.iter().flat_map(|r| r.calib_ns.iter().copied()));
    let trace_json = if trace {
        trace_document(workload, seed, &runs, &per_layer)
    } else {
        String::new()
    };
    Outcome {
        ledger,
        end_to_end,
        per_layer,
        summary,
        calib_ns: median(calib_ns),
        trace_json,
    }
}

fn plain_run(
    workload: Workload,
    spec: &WorkloadSpec,
    stack: usize,
    ledger: &mut Ledger,
    runs: &mut StackRuns,
) {
    let (mut built, _, _) = build(workload, stack);
    let cal = calibrate();
    runs.calib_ns.push(cal);
    let outcome = timed_run(&mut *built, spec);
    let passed = ledger.record(stack, false, &outcome);
    if let (true, Ok((report, cost))) = (passed, outcome) {
        runs.plain.push(Plain {
            offered: report.offered,
            cost,
            scale: CALIB_REF_NS / cal,
        });
        runs.last = Some(report);
    }
}

fn traced_run(
    workload: Workload,
    spec: &WorkloadSpec,
    stack: usize,
    ledger: &mut Ledger,
    runs: &mut StackRuns,
) {
    let (built, build_ns, build_allocs) = build(workload, stack);
    let cal = calibrate();
    runs.calib_ns.push(cal);
    let mut probe = Probe::new(built);
    let outcome = timed_run(&mut probe, spec);
    let passed = ledger.record(stack, true, &outcome);
    let (true, Ok((report, cost))) = (passed, outcome) else {
        return;
    };
    let report_tail_ns = probe.finish_end.map_or(0, |f| {
        cost.end.saturating_duration_since(f).as_nanos() as u64
    });
    if runs.traced.is_empty() {
        runs.spans = probe.spans().to_vec();
        runs.spans.sort_by_key(|s| s.id);
        runs.spans_dropped = probe.spans_dropped();
        let origin = probe.origin();
        runs.run_span = (
            cost.start.duration_since(origin).as_nanos() as u64,
            cost.end.duration_since(origin).as_nanos() as u64,
        );
    }
    runs.traced.push(Traced {
        offered: report.offered,
        cost,
        scale: CALIB_REF_NS / cal,
        build_ns,
        build_allocs,
        times: probe.times,
        report_tail_ns,
    });
}

fn layer_metrics(s: &str, r: &StackRuns) -> Vec<Metric> {
    let traced = |f: &dyn Fn(&Traced) -> f64| -> Vec<f64> { r.traced.iter().map(f).collect() };
    let plain = |f: &dyn Fn(&Plain) -> f64| -> Vec<f64> { r.plain.iter().map(f).collect() };
    let ns = |t: &Traced, l: Layer| t.ns_per_req(t.times.ns[l.index()]);
    let calls = |t: &Traced, l: Layer| t.per_req(t.times.calls[l.index()]);
    let allocs = |t: &Traced, l: Layer| t.per_req(t.cost.alloc.calls[l.index()]);
    let reported = |f: &dyn Fn(&Report) -> u64| -> Vec<f64> {
        r.last
            .iter()
            .map(|rep| f(rep) as f64 / rep.offered.max(1) as f64)
            .collect()
    };
    let plain_ns = median(plain(&Plain::ns_per_req));
    let traced_ns = median(traced(&|t| t.ns_per_req(t.cost.wall_ns)));
    let m = |name: &str, unit: &'static str, samples: Vec<f64>| {
        metric(format!("{name}.{s}"), unit, samples)
    };
    let step = Layer::Step.index();
    let prepare = Layer::Prepare.index();
    vec![
        m(
            "driver.ns_per_req",
            "ns",
            traced(&|t| t.ns_per_req(t.driver_ns())),
        ),
        m(
            "driver.allocs_per_req",
            "allocs",
            traced(&|t| allocs(t, Layer::Driver)),
        ),
        m("step.ns_per_req", "ns", traced(&|t| ns(t, Layer::Step))),
        m(
            "step.allocs_per_req",
            "allocs",
            traced(&|t| allocs(t, Layer::Step)),
        ),
        m(
            "step.ns_per_event",
            "ns",
            traced(&|t| t.times.ns[step] as f64 * t.scale / t.times.calls[step].max(1) as f64),
        ),
        m(
            "events_per_req",
            "events",
            traced(&|t| calls(t, Layer::Step)),
        ),
        m("peek.ns_per_req", "ns", traced(&|t| ns(t, Layer::Peek))),
        m(
            "inject.calls_per_req",
            "calls",
            traced(&|t| calls(t, Layer::Inject)),
        ),
        m("inject.ns_per_req", "ns", traced(&|t| ns(t, Layer::Inject))),
        m(
            "report.ns_per_req",
            "ns",
            traced(&|t| t.ns_per_req(t.times.ns[Layer::Finish.index()] + t.report_tail_ns)),
        ),
        m(
            "setup.build_ms",
            "ms",
            traced(&|t| (t.build_ns + t.times.ns[prepare]) as f64 * t.scale / 1e6),
        ),
        m(
            "setup.allocs",
            "allocs",
            traced(&|t| (t.build_allocs + t.cost.alloc.calls[prepare]) as f64),
        ),
        m(
            "spans_per_req",
            "spans",
            reported(&|rep| rep.metrics.get_counter("sim.span.recorded").unwrap_or(0)),
        ),
        m(
            "retained_bytes_per_req",
            "B",
            plain(&|p| p.per_req(p.cost.alloc.live as f64)),
        ),
        m(
            "coherence.fabric_msgs_per_req",
            "msgs",
            reported(&|rep| rep.fabric_messages),
        ),
        m(
            "bytes_alloc_per_req",
            "B",
            plain(&|p| p.per_req(p.cost.alloc.total_bytes() as f64)),
        ),
        Metric {
            name: format!("probe_overhead_frac.{s}"),
            unit: "frac",
            value: (traced_ns - plain_ns) / plain_ns.max(1.0),
            samples: r.traced.len().min(r.plain.len()),
        },
    ]
}

/// The traced-run output: per-layer aggregates over every traced run of
/// each stack (unscaled host ns, with the median [`calibrate`] reading
/// to scale them by), the per-layer metrics, and the first traced run's
/// span sample (at most [`crate::probe::SPAN_CAP`] spans per stack).
fn trace_document(
    workload: Workload,
    seed: u64,
    runs: &[StackRuns],
    per_layer: &[Metric],
) -> String {
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let num = |x: u64| Json::Num(x as f64);
    let stacks = runs.iter().enumerate().map(|(i, r)| {
        let sum = |f: &dyn Fn(&Traced) -> u64| -> u64 { r.traced.iter().map(f).sum() };
        let layers = Layer::ALL.iter().map(|layer| {
            let k = layer.index();
            let ns = match layer {
                Layer::Driver => sum(&Traced::driver_ns),
                Layer::Report => sum(&|t| t.report_tail_ns),
                _ => sum(&|t| t.times.ns[k]),
            };
            let fields = vec![
                ("ns", num(ns)),
                ("calls", num(sum(&|t| t.times.calls[k]))),
                ("allocs", num(sum(&|t| t.cost.alloc.calls[k]))),
                ("alloc_bytes", num(sum(&|t| t.cost.alloc.bytes[k]))),
            ];
            (layer.name().to_string(), obj(fields))
        });
        let run = obj(vec![
            ("id", num(0)),
            ("name", Json::Str("driver.run".to_string())),
            ("start_ns", num(r.run_span.0)),
            ("end_ns", num(r.run_span.1)),
            ("parent", Json::Null),
            ("request", Json::Null),
        ]);
        let spans = r.spans.iter().map(|sp| {
            obj(vec![
                ("id", num(sp.id)),
                ("name", Json::Str(sp.layer.name().to_string())),
                ("start_ns", num(sp.start_ns)),
                ("end_ns", num(sp.end_ns)),
                ("parent", num(0)),
                ("request", sp.request.map_or(Json::Null, num)),
            ])
        });
        obj(vec![
            ("stack", Json::Str(STACKS[i].1.to_string())),
            ("traced_runs", num(r.traced.len() as u64)),
            ("offered", num(sum(&|t| t.offered))),
            ("wall_ns", num(sum(&|t| t.cost.wall_ns))),
            ("calib_ns", Json::Num(median(r.calib_ns.clone()))),
            ("layers", Json::Obj(layers.collect())),
            ("spans_dropped", num(r.spans_dropped)),
            (
                "spans",
                Json::Arr(std::iter::once(run).chain(spans).collect()),
            ),
        ])
    });
    let metrics = per_layer.iter().map(|m| {
        let fields = vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.to_string())),
            ("samples", num(m.samples as u64)),
        ];
        (m.name.clone(), obj(fields))
    });
    obj(vec![
        ("workload", Json::Str(workload.name().to_string())),
        ("seed", num(seed)),
        ("stacks", Json::Arr(stacks.collect())),
        ("metrics", Json::Obj(metrics.collect())),
    ])
    .render()
}
