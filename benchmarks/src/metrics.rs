//! The metrics the benchmark reports, by name and unit. `BENCHMARK.json`
//! at the repository root declares the same lists (with direction and
//! bound); a test below keeps the two in step.

/// What a user of the system sees. From the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_eps", "1/s"),
    ("detect_p50_ms", "ms"),
    ("detect_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Single layers, named after this repository's modules. From the traced
/// run. A layer a workload does not have reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sea.parse_s", "s"),
    ("cep2asp.translate_s", "s"),
    ("cep2asp.typecheck_s", "s"),
    ("cep2asp.lower_s", "s"),
    ("cep2asp.nodes_lowered", "count"),
    ("cep2asp.nodes_total", "count"),
    ("cep2asp.scans_lowered", "count"),
    ("cep2asp.scans_total", "count"),
    ("cep.build_s", "s"),
    ("asp.run_s", "s"),
    ("asp.cpu_s", "s"),
    ("asp.cpu_wait_s", "s"),
    ("asp.cpu_unattributed_s", "s"),
    ("asp.source.records_out", "count"),
    ("asp.source.busy_s", "s"),
    ("asp.source.blocked_s", "s"),
    ("asp.stateless.records_in", "count"),
    ("asp.stateless.busy_s", "s"),
    ("asp.exchange.batches", "count"),
    ("asp.exchange.batch_efficiency", "ratio"),
    ("asp.exchange.queue_peak", "count"),
    ("asp.exchange.blocked_s", "s"),
    ("asp.stateful.records_in", "count"),
    ("asp.stateful.records_out", "count"),
    ("asp.stateful.busy_s", "s"),
    ("asp.stateful.peak_state_mib", "MiB"),
    ("asp.stateful.keyed_max_run", "count"),
    ("asp.stateful.late_dropped", "count"),
    ("cep.nfa.records_in", "count"),
    ("cep.nfa.records_out", "count"),
    ("cep.nfa.busy_s", "s"),
    ("cep.nfa.peak_state_mib", "MiB"),
    ("asp.sink.matches", "count"),
    ("asp.sink.latency_samples", "count"),
    ("asp.sink.busy_s", "s"),
    ("cpu_s", "s"),
    ("trace_overhead", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{de_field, Value};

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Array(items) = de_field(doc, list) else {
            panic!("BENCHMARK.json has no list `{list}`");
        };
        items
            .iter()
            .map(|m| match (de_field(m, "name"), de_field(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                other => panic!("metric without name and unit: {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
        let Value::Array(workloads) = de_field(&doc, "workloads") else {
            panic!("no workloads");
        };
        let names: Vec<&Value> = workloads.iter().map(|w| de_field(w, "name")).collect();
        let own_names: Vec<Value> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| Value::Str(w.name.into()))
            .collect();
        assert_eq!(names, own_names.iter().collect::<Vec<_>>());
    }
}
