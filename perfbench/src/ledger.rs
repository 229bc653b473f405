//! The metric ledger: every end-to-end and per-layer metric the benchmark
//! reports, its unit, which way is better, and — for the per-layer ones —
//! the layer it measures and the end-to-end metric it should move, on which
//! workload. `BENCHMARK.json` lists the same names and units; a test keeps
//! the two in step.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result JSON and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
    /// The layer it measures (module names of this repository).
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// End-to-end metrics, measured on untraced runs (defined in the README).
#[rustfmt::skip]
pub const END_TO_END: [Metric; 3] = [
    m("sim_req_per_ref_s", "req/s", "higher", "-", "-"),
    m("setup_s", "s", "lower", "-", "-"),
    m("peak_rss_mb", "MB", "lower", "-", "-"),
];

const SETUP_QUEUE: &str = "setup_s on offline-batch and fleet-online";
const SETUP_DAY: &str = "setup_s on day-disagg";
const SCHED: &str = "sim_req_per_ref_s on offline-batch; no change on fleet-online";
const COSTING: &str = "sim_req_per_ref_s on fleet-online and day-disagg; little on offline-batch";
const ENGINE: &str = "sim_req_per_ref_s on all three";
const ROUTER: &str = "sim_req_per_ref_s on fleet-online and day-disagg; nothing on offline-batch";
const FLEET: &str = "sim_req_per_ref_s on fleet-online; no loss on serial day-disagg";
const DAY: &str = "sim_req_per_ref_s on day-disagg only";
const SCHEDULER: &str = "workload::Scheduler";
const ROUTING: &str = "core::router, core::disagg";

/// Per-layer metrics, measured on traced runs.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 35] = [
    m("policy.search_s", "s", "lower", "policy, hrm", SETUP_QUEUE),
    m("trace.parse_s", "s", "lower", "trace", SETUP_DAY),
    m("trace.records", "count", "higher", "trace", SETUP_DAY),
    m("scheduler.calls", "count", "lower", SCHEDULER, SCHED),
    m("scheduler.busy_s", "s", "lower", SCHEDULER, SCHED),
    m("scheduler.call_us.p50", "us", "lower", SCHEDULER, SCHED),
    m("scheduler.call_us.p99", "us", "lower", SCHEDULER, SCHED),
    m("scheduler.scanned_per_call", "requests", "lower", SCHEDULER, SCHED),
    m("scheduler.admitted_per_call", "requests", "higher", SCHEDULER, SCHED),
    m("scheduler.useful_ratio", "ratio", "higher", SCHEDULER, SCHED),
    m("scheduler.wall_share", "ratio", "lower", SCHEDULER, SCHED),
    m("costing.call_us.p50", "us", "lower", "schedule, sim", COSTING),
    m("costing.call_us.p99", "us", "lower", "schedule, sim", COSTING),
    m("costing.tasks_per_call", "tasks", "lower", "schedule, sim", COSTING),
    m("engine.step_s", "s", "lower", "core::engine", ENGINE),
    m("engine.windows", "count", "lower", "core::engine", ENGINE),
    m("engine.self_s", "s", "lower", "core::engine", ENGINE),
    m("engine.step_wall_share", "ratio", "lower", "core::engine", ENGINE),
    m("router.calls", "count", "lower", ROUTING, ROUTER),
    m("router.busy_s", "s", "lower", ROUTING, ROUTER),
    m("router.call_ns.p50", "ns", "lower", ROUTING, ROUTER),
    m("router.call_ns.p99", "ns", "lower", ROUTING, ROUTER),
    m("router.indexed_ratio", "ratio", "higher", ROUTING, ROUTER),
    m("fleet.select_s", "s", "lower", "core::cluster", FLEET),
    m("fleet.iterations", "count", "lower", "core::cluster", FLEET),
    m("fleet.dispatch_s", "s", "lower", "core::cluster", FLEET),
    m("fleet.events_per_req", "events/req", "lower", "core::cluster", FLEET),
    m("disagg.migrations", "count", "lower", "core::disagg", DAY),
    m("disagg.migrations_lost", "count", "lower", "core::disagg", DAY),
    m("disagg.cache_hit_ratio", "ratio", "higher", "core::disagg", DAY),
    m("dynamics.rerouted", "count", "lower", "core::dynamics", DAY),
    m("telemetry.events", "count", "higher", "telemetry", DAY),
    m("telemetry.samples", "count", "higher", "telemetry", DAY),
    m("telemetry.dropped", "count", "lower", "telemetry", DAY),
    m("bench.trace_overhead_pct", "%", "lower", "benchmark tracing", "none: traced minus untraced wall"),
];

/// The result line: `correct`, `attempted`, `failed` and one
/// `{"value", "unit"}` entry per metric, in ledger order. Non-finite values
/// are written as 0 (JSON has no NaN).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(Metric, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the ledger's metrics, with the same
    /// units and directions.
    #[test]
    fn benchmark_json_matches_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for metric in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                metric.name, metric.unit, metric.better
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"name\":").count();
        // Three workloads plus every metric.
        assert_eq!(listed, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn result_json_writes_every_metric_with_its_unit() {
        let line = result_json(
            true,
            10,
            0,
            &[(END_TO_END[1], 0.25), (END_TO_END[0], f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"sim_req_per_ref_s\": {\"value\": 0, \"unit\": \"req/s\"}}}"
        );
    }
}
