//! Every workload runs at a tiny size, untraced and traced, and reports
//! exactly the metrics `BENCHMARK.json` names.

use slm_perfbench::json::{self, Json};
use slm_perfbench::layers::{traced, Tracer, PER_LAYER};
use slm_perfbench::{measure, Scale, Workload, END_TO_END};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect("string field")
}

fn listed(doc: &Json, key: &str, fields: [&str; 2]) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("a list")
        .iter()
        .map(|e| {
            (
                field(e, fields[0]).to_string(),
                field(e, fields[1]).to_string(),
            )
        })
        .collect()
}

fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let doc = benchmark();
    let workloads: Vec<String> = listed(&doc, "workloads", ["name", "why"])
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(
        listed(&doc, "end_to_end", ["name", "unit"]),
        owned(&END_TO_END)
    );
    assert_eq!(
        listed(&doc, "per_layer", ["name", "unit"]),
        owned(&PER_LAYER)
    );
}

#[test]
fn every_workload_reports_every_metric_at_a_tiny_size() {
    for workload in Workload::ALL {
        let name = workload.name();
        let run = measure(workload, 7, 0.01, &Scale::TINY).expect("untraced run");
        assert!(
            run.correct(),
            "{name}: {} of {} ops failed",
            run.failed,
            run.attempted
        );
        let reported: Vec<&str> = run.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(reported, expected, "{name}");
        for (metric, value, _) in &run.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name}: {metric} = {value}"
            );
        }

        let mut tracer = Tracer::default();
        let layers = traced(workload, 7, &Scale::TINY, &mut tracer).expect("traced run");
        assert!(layers.correct(), "{name}: traced ops failed");
        let reported: Vec<&str> = layers.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(reported, expected, "{name}");
        assert!(layers.metrics.iter().all(|m| m.1.is_finite()), "{name}");
        let spans = json::parse(&tracer.to_json()).expect("spans are JSON");
        assert!(spans.as_array().is_some_and(|s| !s.is_empty()), "{name}");
    }
}
