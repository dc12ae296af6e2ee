//! `BENCHMARK.json` and the binary agree on the workloads and metrics, and
//! the result line has the shape the contract asks for.

use perfbench::bench::{
    result_json, Checks, Metric, RunReport, END_TO_END, PER_LAYER, TRACE_OVERHEAD, WORKLOADS,
};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.field(key)
        .and_then(Value::as_seq)
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| match m.field(k) {
                Ok(Value::Str(s)) => s.clone(),
                other => panic!("{key}.{k}: {other:?}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let v = benchmark_json();
    let workloads: Vec<String> = v
        .field("workloads")
        .and_then(Value::as_seq)
        .unwrap()
        .iter()
        .map(|w| match w.field("name") {
            Ok(Value::Str(s)) => s.clone(),
            other => panic!("workload name: {other:?}"),
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&v, "end_to_end"), own(&END_TO_END));
    let mut per_layer = own(&PER_LAYER);
    per_layer.extend(own(&[TRACE_OVERHEAD]));
    assert_eq!(names_and_units(&v, "per_layer"), per_layer);
}

#[test]
fn the_result_line_carries_exactly_the_contract_keys() {
    let report = RunReport {
        metrics: vec![
            Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            },
            Metric {
                name: "sim_speedup",
                value: f64::NAN,
                unit: "x",
            },
        ],
        extra: Vec::new(),
        advisories: Vec::new(),
        boundaries: Vec::new(),
        checks: Checks {
            attempted: 3,
            failed: 1,
            failures: vec!["one".into()],
        },
        passes: 2,
    };
    let line = result_json(&report);
    let v: Value = serde_json::from_str(&line).expect("valid JSON");
    let keys: Vec<&str> = v
        .as_map()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(v.field("correct"), Ok(Value::Bool(false))));
    assert_eq!(v.field("attempted").unwrap().as_u64().unwrap(), 3);
    assert_eq!(v.field("failed").unwrap().as_u64().unwrap(), 1);
    let setup = v.field("metrics").unwrap().field("setup_s").unwrap();
    assert_eq!(setup.field("value").unwrap().as_f64().unwrap(), 0.25);
    assert!(matches!(setup.field("unit"), Ok(Value::Str(u)) if u == "s"));
}
