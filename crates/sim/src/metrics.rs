//! Named metrics registered by component, snapshotted into reports.
//!
//! Every hardware and software component keeps its own private stat
//! structs; this registry is the common denominator experiments and
//! exporters consume: a deterministic (BTreeMap-ordered) bag of
//! `component.subsystem.metric` → value entries. Components export into
//! it once, at run finalisation — the hot path is never touched, which
//! is what keeps the zero-perturbation guarantee trivial to uphold.
//!
//! Naming scheme (see DESIGN.md §11): `<component>.<subsystem>.<name>`,
//! e.g. `nic-lauberhorn.dispatch.fast_path`, `coherence.fabric.messages`,
//! `os.sched.wakeups`, `rpc.retry.retransmits`.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// A deterministic registry of named counters, gauges and histogram
/// summaries. Doubles as the immutable snapshot stored in reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Summary>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets counter `name` (monotone event counts).
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets gauge `name` (instantaneous or derived values).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Stores a distribution summary under `name`.
    pub fn histogram(&mut self, name: &str, summary: Summary) {
        self.hists.insert(name.to_string(), summary);
    }

    /// Whether nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Counter `name`, if registered.
    pub fn get_counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge `name`, if registered.
    pub fn get_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histogram summaries, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// One `k=v` line of every non-zero counter whose name starts with
    /// one of `prefixes` (all counters when `prefixes` is empty),
    /// followed by the tail percentiles (p50/p90/p99/max, in µs) of
    /// every matching non-empty histogram. Deterministic: name order.
    pub fn row(&self, prefixes: &[&str]) -> String {
        let keep = |name: &str| prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p));
        let mut parts = Vec::new();
        for (name, v) in &self.counters {
            if v == &0 || !keep(name) {
                continue;
            }
            parts.push(format!("{name}={v}"));
        }
        for (name, s) in &self.hists {
            if s.count == 0 || !keep(name) {
                continue;
            }
            parts.push(format!(
                "{name}.p50_us={:.2} {name}.p90_us={:.2} {name}.p99_us={:.2} {name}.max_us={:.2}",
                s.p50_us(),
                s.p90 as f64 / 1e6,
                s.p99_us(),
                s.max as f64 / 1e6,
            ));
        }
        parts.join(" ")
    }

    /// A full multi-line rendering (the `PROFILE` experiment's metrics dump).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:<44} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:<44} {v:.3}\n"));
        }
        for (name, s) in &self.hists {
            out.push_str(&format!(
                "{name:<44} n={} p50={:.2}us p99={:.2}us max={:.2}us\n",
                s.count,
                s.p50_us(),
                s.p99_us(),
                s.max as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_and_lookup() {
        let mut m = MetricsRegistry::new();
        m.counter("nic-dma.rx.delivered", 42);
        m.gauge("os.sched.load", 0.5);
        assert_eq!(m.get_counter("nic-dma.rx.delivered"), Some(42));
        assert_eq!(m.get_gauge("os.sched.load"), Some(0.5));
        assert!(!m.is_empty());
    }

    #[test]
    fn row_is_name_ordered_and_filters() {
        let mut m = MetricsRegistry::new();
        m.counter("z.last", 3);
        m.counter("a.first", 1);
        m.counter("a.zero", 0);
        assert_eq!(m.row(&[]), "a.first=1 z.last=3");
        assert_eq!(m.row(&["z."]), "z.last=3");
        assert_eq!(m.row(&["nope."]), "");
    }

    #[test]
    fn row_renders_histogram_percentiles() {
        let mut m = MetricsRegistry::new();
        m.counter("rpc.done", 10);
        m.histogram(
            "rpc.latency.rtt",
            Summary {
                count: 10,
                mean: 2e6,
                min: 1_000_000,
                p50: 2_000_000,
                p90: 2_500_000,
                p99: 3_000_000,
                p999: 3_000_000,
                max: 3_500_000,
            },
        );
        let row = m.row(&["rpc."]);
        assert!(row.contains("rpc.done=10"), "{row}");
        assert!(row.contains("rpc.latency.rtt.p50_us=2.00"), "{row}");
        assert!(row.contains("rpc.latency.rtt.p90_us=2.50"), "{row}");
        assert!(row.contains("rpc.latency.rtt.p99_us=3.00"), "{row}");
        assert!(row.contains("rpc.latency.rtt.max_us=3.50"), "{row}");
        // Empty histograms render nothing.
        m.histogram(
            "rpc.latency.empty",
            Summary {
                count: 0,
                mean: 0.0,
                min: 0,
                p50: 0,
                p90: 0,
                p99: 0,
                p999: 0,
                max: 0,
            },
        );
        assert!(!m.row(&["rpc."]).contains("empty"));
    }

    #[test]
    fn render_includes_every_kind() {
        let mut m = MetricsRegistry::new();
        m.counter("c.x", 7);
        m.gauge("g.y", 1.25);
        m.histogram(
            "h.z",
            Summary {
                count: 10,
                mean: 2e6,
                min: 1_000_000,
                p50: 2_000_000,
                p90: 3_000_000,
                p99: 3_000_000,
                p999: 3_000_000,
                max: 3_000_000,
            },
        );
        let r = m.render();
        assert!(r.contains("c.x"));
        assert!(r.contains("g.y"));
        assert!(r.contains("h.z"));
        assert!(r.contains("p50=2.00us"));
    }
}
