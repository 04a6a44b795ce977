//! Self-tests: a `tiny`-preset smoke of all three workloads, input
//! determinism, span nesting, and agreement with `BENCHMARK.json`.

use std::collections::HashMap;
use std::path::PathBuf;

use serde_json::Value;

use super::*;

fn dirs(tag: &str) -> Dirs {
    // Relative to the package root (where `cargo test` runs), so socket
    // paths stay short and everything stays inside the checkout.
    let root = PathBuf::from(format!("../.perfbench/test-{}-{tag}", std::process::id()));
    let d = Dirs {
        out: root.join("out"),
        tmp: root.join("tmp"),
    };
    std::fs::create_dir_all(&d.out).unwrap();
    std::fs::create_dir_all(&d.tmp).unwrap();
    d
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics_and_workloads() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    let Some(Spec::Serve(hubs)) = spec("hubs") else {
        panic!("hubs is a serving workload")
    };
    let Some(Spec::Serve(cold)) = spec("cold") else {
        panic!("cold is a serving workload")
    };
    for s in [&hubs, &cold] {
        let a = serve::inputs(s, 1000, 7, 2.0);
        assert_eq!(
            a,
            serve::inputs(s, 1000, 7, 2.0),
            "same seed, same schedule and mix"
        );
        assert_ne!(
            a,
            serve::inputs(s, 1000, 8, 2.0),
            "another seed, other inputs"
        );
        assert!(a.iter().all(|i| i.queries.len() == serve::QUERIES_PER));
        for k in 0..serve::SEGMENTS {
            assert!(
                a.iter()
                    .any(|i| i.phase == serve::Phase::Saturation && i.segment == k),
                "saturation segment {k} has scheduled requests"
            );
        }
        assert!(a
            .iter()
            .all(|i| i.phase == serve::Phase::Saturation || i.segment == 0));
    }
    let data = Scale::Tiny.config().generate();
    let repo = ceps_datagen::QueryRepository::from_graph(&data);
    assert_eq!(batch::query_set(&repo, 8, 3), batch::query_set(&repo, 8, 3));
    assert_ne!(batch::query_set(&repo, 8, 3), batch::query_set(&repo, 8, 4));
}

/// Every span's parent exists and belongs to the same request, and each
/// request has exactly one root.
fn assert_spans_nest(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let spans: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
    assert!(!spans.is_empty(), "{} holds spans", path.display());
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64);
    let request_of: HashMap<u64, u64> = spans
        .iter()
        .map(|s| (field(s, "span").unwrap(), field(s, "request").unwrap()))
        .collect();
    let mut roots: HashMap<u64, usize> = HashMap::new();
    for s in &spans {
        let req = field(s, "request").unwrap();
        match field(s, "parent") {
            None => *roots.entry(req).or_default() += 1,
            Some(p) => assert_eq!(
                request_of.get(&p),
                Some(&req),
                "span {s:?} nests under its own request"
            ),
        }
    }
    assert!(roots.values().all(|&n| n == 1), "one root per request");
    assert_eq!(
        roots.len(),
        request_of
            .values()
            .collect::<std::collections::HashSet<_>>()
            .len()
    );
}

#[test]
fn tiny_smoke_of_every_workload_emits_every_metric_with_its_unit() {
    let d = dirs("smoke");
    for name in WORKLOADS {
        for trace in [false, true] {
            let o = run_workload(name, 5, 1.0, trace, Some(Scale::Tiny), &d)
                .and_then(|o| finalize(o, trace))
                .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
            assert!(
                o.correct,
                "{name}: replies match the reference\n{}",
                o.report
            );
            assert_eq!(o.failed, 0, "{name}: no failures\n{}", o.report);
            assert!(o.attempted > 0);
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want, "{name} trace={trace}");
            let line = result_json(&o);
            let doc = Value::parse(&line).unwrap();
            for (metric, unit) in want {
                let m = doc.get("metrics").and_then(|ms| ms.get(metric)).unwrap();
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
            if trace {
                assert!(
                    o.report.contains("ledger ["),
                    "{name}: ledger table printed"
                );
                assert_spans_nest(&d.out.join(format!("{name}-seed5-spans.jsonl")));
            }
        }
    }
    let _ = std::fs::remove_dir_all(d.out.parent().unwrap());
}
