//! Machine-readable bench artifacts (`BENCH_*.json`).
//!
//! Every emitting binary validates its own document against the
//! `lauberhorn-bench/v1` schema before writing, so a malformed artifact
//! can never land on disk; CI re-runs the same check on the files.

use std::path::PathBuf;

use lauberhorn_rpc::Report;

use crate::json::Json;

/// The schema identifier every artifact must carry.
pub const SCHEMA: &str = "lauberhorn-bench/v1";

/// One row of an artifact: a stack at one operating point.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Stack display name (`Report::stack`).
    pub stack: String,
    /// Offered load in requests/second; `0` for closed-loop runs,
    /// where load is set by the client count rather than a rate.
    pub offered_rps: f64,
    /// Measured completions per second.
    pub throughput_rps: f64,
    /// Client-observed RTT p50, microseconds.
    pub rtt_p50_us: f64,
    /// Client-observed RTT p99, microseconds.
    pub rtt_p99_us: f64,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Optional critical-path blame shares (stage label -> permille of
    /// critical-path time), present when the run had tracing on. The
    /// trend harness uses the shares to attribute a latency regression
    /// to the stage whose blame grew.
    pub blame: Option<Vec<(String, u64)>>,
    /// Experiment-specific numeric fields, serialized as additional
    /// row fields (e.g. `slo_met_frac` for the TENANT sweep). The
    /// validator checks only the required fields, so extras are
    /// forward-compatible.
    pub extras: Vec<(String, f64)>,
}

impl BenchRow {
    /// A row from a report at offered load `offered_rps` (0 for
    /// closed-loop workloads). Picks up the critical-path blame
    /// profile when the report carries one.
    pub fn from_report(offered_rps: f64, r: &Report) -> BenchRow {
        let blame = r.blame.as_ref().filter(|b| b.total_ps > 0).map(|b| {
            b.by_stage_ps
                .iter()
                .map(|(stage, ps)| (stage.to_string(), ps * 1000 / b.total_ps))
                .collect()
        });
        BenchRow {
            stack: r.stack.clone(),
            offered_rps,
            throughput_rps: r.throughput_rps(),
            rtt_p50_us: r.rtt.p50_us(),
            rtt_p99_us: r.rtt.p99_us(),
            offered: r.offered,
            completed: r.completed,
            blame,
            extras: Vec::new(),
        }
    }

    /// Attaches an experiment-specific numeric field to the row.
    pub fn with_extra(mut self, name: &str, value: f64) -> BenchRow {
        self.extras.push((name.into(), value));
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("stack".into(), Json::Str(self.stack.clone())),
            ("offered_rps".into(), Json::Num(self.offered_rps)),
            ("throughput_rps".into(), Json::Num(self.throughput_rps)),
            ("rtt_p50_us".into(), Json::Num(self.rtt_p50_us)),
            ("rtt_p99_us".into(), Json::Num(self.rtt_p99_us)),
            ("offered".into(), Json::Num(self.offered as f64)),
            ("completed".into(), Json::Num(self.completed as f64)),
        ];
        if let Some(blame) = &self.blame {
            fields.push((
                "blame".into(),
                Json::Obj(
                    blame
                        .iter()
                        .map(|(stage, pm)| (stage.clone(), Json::Num(*pm as f64)))
                        .collect(),
                ),
            ));
        }
        for (name, value) in &self.extras {
            fields.push((name.clone(), Json::Num(*value)));
        }
        Json::Obj(fields)
    }
}

/// Assembles a schema-conformant document for `experiment` (e.g.
/// `"loadsweep"`) run with `seed`.
pub fn document(experiment: &str, seed: u64, rows: &[BenchRow]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("experiment".into(), Json::Str(experiment.into())),
        ("seed".into(), Json::Num(seed as f64)),
        (
            "rows".into(),
            Json::Arr(rows.iter().map(BenchRow::to_json).collect()),
        ),
    ])
}

/// Checks a document against `lauberhorn-bench/v1`: schema tag,
/// experiment name, and per-row field presence plus the two sanity
/// relations (`rtt_p99_us >= rtt_p50_us`, `completed <= offered`).
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong schema tag (want `{SCHEMA}`)"));
    }
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("missing `experiment` string")?;
    doc.get("seed")
        .and_then(Json::as_f64)
        .ok_or("missing `seed` number")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing `rows` array")?;
    for (i, row) in rows.iter().enumerate() {
        let ctx = |field: &str| format!("{experiment} row {i}: {field}");
        let num = |field: &str| {
            row.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| ctx(&format!("missing number `{field}`")))
        };
        row.get("stack")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing `stack` string"))?;
        let p50 = num("rtt_p50_us")?;
        let p99 = num("rtt_p99_us")?;
        let offered = num("offered")?;
        let completed = num("completed")?;
        for field in ["offered_rps", "throughput_rps"] {
            if num(field)? < 0.0 {
                return Err(ctx(&format!("negative `{field}`")));
            }
        }
        if p99 < p50 {
            return Err(ctx(&format!("rtt_p99_us {p99} < rtt_p50_us {p50}")));
        }
        if completed > offered {
            return Err(ctx(&format!("completed {completed} > offered {offered}")));
        }
        if let Some(blame) = row.get("blame") {
            let Json::Obj(shares) = blame else {
                return Err(ctx("`blame` must be an object"));
            };
            for (stage, share) in shares {
                let pm = share
                    .as_f64()
                    .ok_or_else(|| ctx(&format!("blame `{stage}` not a number")))?;
                if !(0.0..=1000.0).contains(&pm) {
                    return Err(ctx(&format!("blame `{stage}` share {pm} outside 0..=1000")));
                }
            }
        }
    }
    Ok(())
}

/// Where `BENCH_*.json` and `PROFILE_*.trace.json` artifacts are
/// written and read: the current directory. (Run the bins from the
/// repository root to refresh the committed artifacts.) A binary run
/// from a copy of the tree touches that copy, never the checkout it
/// was built from.
pub fn out_dir() -> PathBuf {
    std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."))
}

/// Validates `doc` and writes it as `BENCH_<experiment>.json` in
/// [`out_dir`]. Returns the path written.
pub fn write(experiment: &str, doc: &Json) -> Result<PathBuf, String> {
    validate(doc)?;
    let path = out_dir().join(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> BenchRow {
        BenchRow {
            stack: "kernel/pc-pcie-dma".into(),
            offered_rps: 100_000.0,
            throughput_rps: 99_000.0,
            rtt_p50_us: 10.0,
            rtt_p99_us: 30.0,
            offered: 1000,
            completed: 990,
            blame: Some(vec![("handler".into(), 700), ("wire".into(), 300)]),
            extras: vec![("slo_met_frac".into(), 0.97)],
        }
    }

    #[test]
    fn document_validates_and_roundtrips() {
        let doc = document("loadsweep", 42, &[row()]);
        validate(&doc).expect("valid");
        let back = Json::parse(&doc.render()).expect("parses");
        validate(&back).expect("still valid after roundtrip");
        assert_eq!(back, doc);
    }

    #[test]
    fn empty_rows_are_valid() {
        validate(&document("fig2", 1, &[])).expect("valid");
    }

    #[test]
    fn wrong_schema_rejected() {
        let mut doc = document("x", 1, &[row()]);
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Str("other/v9".into());
        }
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn inverted_percentiles_rejected() {
        let mut r = row();
        r.rtt_p99_us = 1.0;
        assert!(validate(&document("x", 1, &[r])).is_err());
    }

    #[test]
    fn overcompletion_rejected() {
        let mut r = row();
        r.completed = 2000;
        assert!(validate(&document("x", 1, &[r])).is_err());
    }

    #[test]
    fn missing_field_rejected() {
        let doc = Json::parse(
            "{\"schema\": \"lauberhorn-bench/v1\", \"experiment\": \"x\", \"seed\": 1, \
             \"rows\": [{\"stack\": \"s\"}]}",
        )
        .expect("parses");
        assert!(validate(&doc).is_err());
    }
}
