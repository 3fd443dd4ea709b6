//! `simbench --workload <echo|mixed|storm> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs the three stacks on the workload's generated inputs for the
//! given measuring time, prints each metric by name with its unit, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced invocation also writes its per-layer
//! aggregates and span sample to `simbench/out/`.

use std::process::ExitCode;

use lauberhorn_simbench::bench::{self, Metric};
use lauberhorn_simbench::workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The `metrics` object of the result line, on one line. Every value
/// is a ratio over at least one request, so it is finite.
fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <echo|mixed|storm> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = bench::run(args.workload, args.seed, args.seconds, args.trace);

    println!(
        "workload {} seed {} ({} s measured{})",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    println!(
        "  host times scaled to the reference speed: calibration loop median {:.0} ns, reference {:.0} ns",
        out.calib_ns,
        bench::CALIB_REF_NS
    );
    for line in &out.summary {
        println!("  {line}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!(
            "  {:<36} {:>16.4} {:<6} (median of {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let ledger = &out.ledger;
    println!(
        "  failed operations: {} of {} ({:.4})",
        ledger.failed,
        ledger.attempted,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for p in &ledger.problems {
        println!("  FAILED: {p}");
    }

    if args.trace {
        let dir = std::path::Path::new("simbench/out");
        let path = dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &out.trace_json)) {
            Ok(()) => println!("  trace written to {}", path.display()),
            Err(e) => {
                eprintln!("simbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    let reported = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
        metrics_json(reported)
    );
    ExitCode::SUCCESS
}
