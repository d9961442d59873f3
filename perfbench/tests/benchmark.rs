//! Tests of the benchmark itself, on shrunk copies of its workloads.

use apm_harness::json::{self, Json};
use apm_perfbench::report::{self, Metric, Probes};
use apm_perfbench::workload::{plain_digest, run_pass, run_store, Pass, Spec, NAMES};
use std::collections::BTreeMap;
use std::sync::OnceLock;

const SEED: u64 = 3;

/// One untraced and two traced passes of each shrunk workload, computed
/// once and shared by the tests.
fn passes() -> &'static BTreeMap<&'static str, [Pass; 3]> {
    static PASSES: OnceLock<BTreeMap<&'static str, [Pass; 3]>> = OnceLock::new();
    PASSES.get_or_init(|| {
        NAMES
            .into_iter()
            .map(|name| {
                let spec = Spec::by_name(name).expect("known workload").shrunk();
                let configs = spec.run_configs(SEED);
                let run = |traced| run_pass(&spec, &configs, traced);
                (name, [run(false), run(true), run(true)])
            })
            .collect()
    })
}

fn layer_metrics(name: &str) -> Vec<Metric> {
    let [untraced, traced, _] = &passes()[name];
    let probes = Probes {
        alu_ms: [1.0, 1.0],
        mem_ms: [1.0, 1.0],
    };
    report::per_layer(&[untraced], &[traced], &probes)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn decorator_is_transparent_on_every_workload() {
    for name in NAMES {
        let spec = Spec::by_name(name).expect("known workload").shrunk();
        for (kind, config) in spec.run_configs(SEED) {
            let plain = plain_digest(&spec, kind, &config);
            let untraced = run_store(&spec, kind, &config, false).digest;
            let traced = run_store(&spec, kind, &config, true).digest;
            assert_eq!(
                untraced,
                plain,
                "{name} {}: untraced decorator",
                kind.name()
            );
            assert_eq!(traced, plain, "{name} {}: traced decorator", kind.name());
        }
    }
}

#[test]
fn passes_reproduce_their_digests() {
    for (name, passes) in passes() {
        let digests = |p: &Pass| p.stores.iter().map(|s| s.digest).collect::<Vec<_>>();
        assert_eq!(digests(&passes[0]), digests(&passes[1]), "{name}");
        assert_eq!(digests(&passes[1]), digests(&passes[2]), "{name}");
    }
}

#[test]
fn exact_counts_repeat_between_passes() {
    let probes = Probes {
        alu_ms: [1.0, 1.0],
        mem_ms: [1.0, 1.0],
    };
    for (name, [untraced, first, second]) in passes() {
        let counts = |traced: &Pass| {
            report::per_layer(&[untraced], &[traced], &probes)
                .into_iter()
                .filter(|m| {
                    ["alloc.", "sim.", "resilience."]
                        .iter()
                        .any(|prefix| m.name.starts_with(prefix))
                })
                .collect::<Vec<_>>()
        };
        let (a, b) = (counts(first), counts(second));
        assert_eq!(a.len(), 7, "{name}: {a:?}");
        assert_eq!(a, b, "{name}");
    }
}

#[test]
fn chaos_workload_exercises_the_resilience_layer() {
    let metrics = layer_metrics("chaos-m");
    assert!(value(&metrics, "stores.fault_s") > 0.0);
    assert!(value(&metrics, "stores.snap_s") > 0.0);
    assert!(value(&metrics, "stores.hedge_plan_ns") > 0.0);
    let read = layer_metrics("read-m");
    assert_eq!(value(&read, "stores.fault_s"), 0.0);
    assert_eq!(value(&read, "resilience.retries_per_op"), 0.0);
}

#[test]
fn residual_is_never_negative() {
    for name in NAMES {
        let metrics = layer_metrics(name);
        let residual = value(&metrics, "sim_runner.ns_per_op");
        assert!(residual >= 0.0, "{name}: sim_runner.ns_per_op = {residual}");
        let allocs = value(&metrics, "alloc.sim_runner_per_op");
        assert!(allocs >= 0.0, "{name}: alloc.sim_runner_per_op = {allocs}");
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn metrics_are_named_with_units_and_match_benchmark_json() {
    let end_to_end_declared = declared("end_to_end");
    let per_layer_declared = declared("per_layer");
    for (name, [untraced, ..]) in passes() {
        let emitted = [
            (report::end_to_end(&[untraced], 1.0), &end_to_end_declared),
            (layer_metrics(name), &per_layer_declared),
        ];
        for (metrics, want) in emitted {
            for m in &metrics {
                assert!(
                    report::valid_name(&m.name),
                    "{name}: bad metric name {:?}",
                    m.name
                );
                assert!(!m.unit.is_empty(), "{name}: {} has no unit", m.name);
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(&got, want, "{name}: metrics differ from BENCHMARK.json");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for (name, [untraced, ..]) in passes() {
        for m in report::end_to_end(&[untraced], 1.0) {
            assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn result_line_is_one_json_object() {
    let metrics = vec![Metric {
        name: "wall_s".into(),
        value: 1.25,
        unit: "s",
    }];
    let line = report::result_line(true, 10, 0, &metrics);
    assert!(!line.contains('\n'));
    let doc = json::parse(&line).expect("result line parses");
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
    let wall = doc
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
    assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
}
