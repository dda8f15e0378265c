//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is named here once, with its unit
//! and better-direction; `BENCHMARK.json` at the repository root lists the
//! same names (a test pins the two together). An untraced run prints the
//! end-to-end set, a traced run the per-layer set.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The untraced (`--trace 0`) metrics: what a user of the simulator or
/// the jobs server sees. On the simulator workloads one operation is one
/// full tick; on `jobs_mix` it is one job, submit to result bytes.
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_per_s", "1/s", Higher),
    m("latency_p50_ms", "ms", Lower),
    m("latency_p90_ms", "ms", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// The five delegated stages of the canonical tick, in tick order.
pub const STAGES: [&str; 5] = ["mobility", "topology", "hello", "cluster", "route"];

/// The traced (`--trace 1`) metrics, grouped by the layer they time or
/// count.
pub const PER_LAYER: &[MetricDef] = &[
    // manet-mobility / manet-sim topology / hello / manet-cluster /
    // manet-routing: the five stage calls.
    m("mobility.ms_per_tick", "ms", Lower),
    m("mobility.share", "ratio", Lower),
    m("mobility.p99_us", "us", Lower),
    m("mobility.allocs_per_tick", "count", Lower),
    m("topology.ms_per_tick", "ms", Lower),
    m("topology.share", "ratio", Lower),
    m("topology.p99_us", "us", Lower),
    m("topology.allocs_per_tick", "count", Lower),
    m("hello.ms_per_tick", "ms", Lower),
    m("hello.share", "ratio", Lower),
    m("hello.p99_us", "us", Lower),
    m("hello.allocs_per_tick", "count", Lower),
    m("cluster.ms_per_tick", "ms", Lower),
    m("cluster.share", "ratio", Lower),
    m("cluster.p99_us", "us", Lower),
    m("cluster.allocs_per_tick", "count", Lower),
    m("route.ms_per_tick", "ms", Lower),
    m("route.share", "ratio", Lower),
    m("route.p99_us", "us", Lower),
    m("route.allocs_per_tick", "count", Lower),
    // manet-sim world + manet-stack: the tick minus the five stages.
    m("stack.residual_ms_per_tick", "ms", Lower),
    m("stack.residual_share", "ratio", Lower),
    // The untraced run's tail: p99 of the tick or of the job.
    m("latency_p99_ms", "ms", Lower),
    // The whole traced tick.
    m("tick.ms_per_tick", "ms", Lower),
    m("tick.p99_ms", "ms", Lower),
    m("tick.allocs_per_tick", "count", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
    // Exact work counts from the aggregated StackReport.
    m("sim.link_events_per_tick", "count", Lower),
    m("hello.sent_per_tick", "count", Lower),
    m("hello.lost_ratio", "ratio", Lower),
    m("cluster.msgs_per_tick", "count", Lower),
    m("cluster.lost_ratio", "ratio", Lower),
    m("cluster.retx_ratio", "ratio", Lower),
    m("cluster.heads", "count", Lower),
    m("route.msgs_per_tick", "count", Lower),
    m("route.msgs_per_link_event", "count", Lower),
    m("route.resync_ratio", "ratio", Lower),
    // manet-shard, from ShardPlane::report().
    m("shard.ghosts_per_tick", "count", Lower),
    m("shard.migrations_per_tick", "count", Lower),
    m("shard.boundary_links", "count", Lower),
    m("shard.owned_max_over_min", "ratio", Lower),
    // manet-jobs / HTTP.
    m("http.post_p50_ms", "ms", Lower),
    m("http.post_p99_ms", "ms", Lower),
    m("http.get_p50_ms", "ms", Lower),
    m("http.requests_per_job", "count", Lower),
    m("jobs.rejected_ratio", "ratio", Lower),
    m("jobs.queue_depth_max", "count", Lower),
    m("jobs.cache_hit_ratio", "ratio", Higher),
    // manet-experiments spec.
    m("spec.run_p50_ms", "ms", Lower),
    m("jobs.miss_overhead_ms", "ms", Lower),
    // The run itself.
    m("failed_ratio", "ratio", Lower),
    m("host_cpus", "count", Higher),
];

/// The catalogue a run of the given mode prints.
pub fn catalogue(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run's outcome: correctness counts plus named metric values.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Checks and requests attempted.
    pub attempted: u64,
    /// Checks and requests that failed.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one attempted check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Sets metric `name` (which must be in the catalogue).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a catalogued metric"
        );
        self.values.insert(name, value);
    }

    /// A metric value, when set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Failed over attempted.
    pub fn failed_ratio(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// Checks that every metric of the mode's catalogue is set and finite
    /// and that nothing failed.
    pub fn validate(&self, trace: bool) -> Result<(), String> {
        for def in catalogue(trace) {
            match self.get(def.name) {
                None => return Err(format!("metric {} was not measured", def.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite: {v}", def.name))
                }
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            return Err("no check was attempted".to_string());
        }
        if self.failed > 0 {
            return Err(format!(
                "{} of {} checks failed",
                self.failed, self.attempted
            ));
        }
        Ok(())
    }

    /// The mode's metrics as an aligned table: name, value, unit and
    /// which way is better.
    pub fn table(&self, trace: bool) -> String {
        catalogue(trace)
            .iter()
            .map(|def| {
                let v = self.get(def.name).unwrap_or(f64::NAN);
                format!(
                    "{:<28} {v:>16.6} {:<6} ({} is better)",
                    def.name,
                    def.unit,
                    def.better.name()
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// mode's metrics, each with its unit.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = catalogue(trace)
            .iter()
            .map(|def| {
                let v = self.get(def.name).unwrap_or(f64::NAN);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    r#""{}": {{"value": {v:?}, "unit": "{}"}}"#,
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.validate(trace).is_ok(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_util::json::Value;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this catalogue prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better.name())
                );
            }
        }
        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::Workload::NAMES);
    }

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.check(true, "ok");
        for def in END_TO_END {
            r.set(def.name, 1.5);
        }
        let line = r.json(false);
        let doc = Value::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = doc.get("metrics").unwrap();
        for def in END_TO_END {
            let m = metrics.get(def.name).unwrap();
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        }
        // A missing metric makes the run incorrect.
        assert!(Report::default().validate(false).is_err());
    }
}
