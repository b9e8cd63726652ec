//! Metric values, their aggregation from a trace, and the result line.

use crate::trace::{finite, json_str, Tracer};

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_min", "ms"),
    ("peak_rss_mb", "MB"),
    ("test_time_cycles", "cycles"),
    ("volume_bits", "bits"),
];

/// Every per-layer metric of the traced run, in output order, with its
/// unit. Layers a workload does not exercise report 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("soc-model.synth_ms", "ms"),
    ("tdcsoc.tables_ms", "ms"),
    ("tdcsoc.widths_computed", "count"),
    ("tdcsoc.tables_us_per_width", "us/width"),
    ("selenc.memo_hits", "count"),
    ("selenc.memo_misses", "count"),
    ("selenc.memo_hit_ratio", "ratio"),
    ("selenc.verify_ms", "ms"),
    ("selenc.streams_verified", "count"),
    ("selenc.stream_words", "words"),
    ("selenc.verify_ns_per_word", "ns/word"),
    ("tam.arch_ms", "ms"),
    ("tdcsoc.plan_ms", "ms"),
    ("tdcsoc.cache_io_ms", "ms"),
    ("tdcsoc.profile_hits", "count"),
    ("tdcsoc.profile_partial", "count"),
    ("tdcsoc.profile_misses", "count"),
    ("tdcsoc.widths_reused", "count"),
    ("tdcsoc.profile_evictions", "count"),
    ("tdcsoc.planfile_ms", "ms"),
    ("parpool.efficiency", "ratio"),
    ("parpool.busy_share", "ratio"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.session_ms", "ms"),
    ("serve.json_ms", "ms"),
    ("serve.daemon_ms", "ms"),
    ("serve.memo_hits", "count"),
    ("serve.memo_misses", "count"),
    ("serve.failed", "count"),
    ("serve.shed", "count"),
    ("fleet.batch_ms", "ms"),
    ("fleet.manifest_ms", "ms"),
    ("fleet.soc_hits", "count"),
    ("fleet.soc_misses", "count"),
    ("fleet.soc_duplicate_builds", "count"),
    ("fleet.profile_duplicate_misses", "count"),
    ("fleet.failed", "count"),
    ("trace.fastest_traced_ms", "ms"),
    ("trace.fastest_untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
    ("diag.ops", "count"),
    ("diag.p50_ms", "ms"),
    ("diag.p90_ms", "ms"),
    ("diag.ops_per_s", "1/s"),
];

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of already sorted values.
pub fn nearest_rank(sorted: &[f64], percent: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (percent * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1000.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Prints one `name value unit` line per metric.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(metrics: &[Metric], attempted: usize, failed: usize) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                finite(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Per-layer metrics of a traced run, plus the stage shares of the
/// replayed op.
pub struct Layers {
    /// Every [`PER_LAYER`] metric but the `trace.`/`diag.` ones.
    pub metrics: Vec<Metric>,
    /// (stage, share of the summed stage self times), largest first.
    pub shares: Vec<(&'static str, f64)>,
}

/// Computes each per-layer metric per traced op and reports its median
/// over the ops. Span self times give the times, counters the counts.
pub fn per_layer(t: &Tracer, workload: &str, ops: &[u64], workers: usize) -> Layers {
    let self_ms = t.self_ms_by_op();
    let ms = |op: u64, name: &str| {
        self_ms
            .get(&op)
            .and_then(|m| m.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let c = |op: u64, name: &'static str| t.counter(op, name).unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // plan_cold synthesizes its SOC in set-up only; report that span.
    let setup_synth = ms(0, "soc-model.synth");

    let mut per_op: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut stage_sums: Vec<(&'static str, f64)> = Vec::new();
    for &op in ops {
        let synth = if workload == "plan_cold" {
            setup_synth
        } else {
            ms(op, "soc-model.synth")
        };
        let op_synth = ms(op, "soc-model.synth");
        let tables = ms(op, "tdcsoc.tables");
        let verify = ms(op, "selenc.verify");
        let arch = ms(op, "tam.arch");
        let probe = ms(op, "tdcsoc.cache_probe");
        let cache_io = if probe > 0.0 {
            (probe - arch).max(0.0)
        } else {
            0.0
        };
        let plan = ms(op, "tdcsoc.plan");
        let planfile = ms(op, "tdcsoc.planfile");
        let session = ms(op, "serve.session");
        let json = ms(op, "serve.json");
        let roundtrip = ms(op, "serve.roundtrip");
        let manifest = ms(op, "fleet.manifest");
        let stages = [
            ("synth", op_synth),
            ("tables", tables),
            ("verify", verify),
            ("arch", arch),
            ("cache_io", cache_io),
            ("planfile", planfile),
            ("session", session),
            ("json", json),
            ("manifest", manifest),
        ];
        let replayed: f64 = stages.iter().map(|s| s.1).sum();
        let daemon = if roundtrip > 0.0 {
            (roundtrip - replayed).max(0.0)
        } else {
            0.0
        };
        for (stage, v) in stages.into_iter().chain([("daemon", daemon)]) {
            match stage_sums.iter_mut().find(|s| s.0 == stage) {
                Some(s) => s.1 += v,
                None => stage_sums.push((stage, v)),
            }
        }
        let hits = c(op, "selenc.memo_hits");
        let misses = c(op, "selenc.memo_misses");
        let efficiency = if workload == "plan_cold" {
            ratio(tables + verify + arch, plan * workers as f64)
        } else {
            0.0
        };
        per_op.push(vec![
            ("soc-model.synth_ms", synth),
            ("tdcsoc.tables_ms", tables),
            ("tdcsoc.widths_computed", c(op, "tdcsoc.widths_computed")),
            (
                "tdcsoc.tables_us_per_width",
                ratio(tables * 1e3, c(op, "replay.widths")),
            ),
            ("selenc.memo_hits", hits),
            ("selenc.memo_misses", misses),
            ("selenc.memo_hit_ratio", ratio(hits, hits + misses)),
            ("selenc.verify_ms", verify),
            ("selenc.streams_verified", c(op, "selenc.streams_verified")),
            ("selenc.stream_words", c(op, "selenc.stream_words")),
            (
                "selenc.verify_ns_per_word",
                ratio(verify * 1e6, c(op, "selenc.stream_words")),
            ),
            ("tam.arch_ms", arch),
            ("tdcsoc.plan_ms", plan),
            ("tdcsoc.cache_io_ms", cache_io),
            ("tdcsoc.profile_hits", c(op, "tdcsoc.profile_hits")),
            ("tdcsoc.profile_partial", c(op, "tdcsoc.profile_partial")),
            ("tdcsoc.profile_misses", c(op, "tdcsoc.profile_misses")),
            ("tdcsoc.widths_reused", c(op, "tdcsoc.widths_reused")),
            (
                "tdcsoc.profile_evictions",
                c(op, "tdcsoc.profile_evictions"),
            ),
            ("tdcsoc.planfile_ms", planfile),
            ("parpool.efficiency", efficiency),
            ("parpool.busy_share", c(op, "parpool.busy_share")),
            ("serve.roundtrip_ms", roundtrip),
            ("serve.session_ms", session),
            ("serve.json_ms", json),
            ("serve.daemon_ms", daemon),
            ("fleet.batch_ms", ms(op, "fleet.batch")),
            ("fleet.manifest_ms", manifest),
            ("fleet.soc_hits", c(op, "fleet.soc_hits")),
            ("fleet.soc_misses", c(op, "fleet.soc_misses")),
            (
                "fleet.soc_duplicate_builds",
                c(op, "fleet.soc_duplicate_builds"),
            ),
            (
                "fleet.profile_duplicate_misses",
                c(op, "fleet.profile_duplicate_misses"),
            ),
            ("fleet.failed", c(op, "fleet.failed")),
        ]);
    }

    let last = ops.last().copied().unwrap_or(0);
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        if name.starts_with("trace.") || name.starts_with("diag.") {
            continue;
        }
        let value = if name.starts_with("serve.")
            && matches!(
                name,
                "serve.memo_hits" | "serve.memo_misses" | "serve.failed" | "serve.shed"
            ) {
            // Daemon-wide status counters, read once after the last op.
            t.counter(last, name).unwrap_or(0.0)
        } else {
            let values: Vec<f64> = per_op
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            median(&values)
        };
        metrics.push(Metric::new(name, value, unit));
    }
    let total: f64 = stage_sums.iter().map(|s| s.1).sum();
    let mut shares: Vec<(&'static str, f64)> = stage_sums
        .into_iter()
        .filter(|s| s.1 > 0.0)
        .map(|(stage, v)| (stage, ratio(v, total)))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    Layers { metrics, shares }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the program does not print"
        );
    }

    #[test]
    fn median_and_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50), 5.0);
        assert_eq!(nearest_rank(&sorted, 90), 9.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(&[Metric::new("setup_s", 0.5, "s")], 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
