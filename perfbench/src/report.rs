//! The benchmark's metrics, computed from the passes of one run.
//!
//! Timings are medians over a run's passes. Counts (`alloc.*`, `sim.*`,
//! `resilience.*`) repeat exactly between passes and between runs of
//! one commit. `BENCHMARK.json` lists the same names and units.

use crate::store::{Call, CallStats};
use crate::workload::{Pass, StoreRun};
use apm_core::stats::Histogram;
use apm_harness::experiment::StoreKind;

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Transaction-phase host ns per simulated op issued, over `stores`.
fn txn_ns_per_op<'a>(stores: impl IntoIterator<Item = &'a StoreRun>) -> f64 {
    let (ns, ops) = stores.into_iter().fold((0.0, 0u64), |(ns, ops), s| {
        (ns + s.txn_s * 1e9, ops + s.issued)
    });
    ns / ops as f64
}

/// Per-pass values, medians taken metric by metric across `passes`.
fn medians(passes: &[&Pass], per_pass: impl Fn(&Pass) -> Vec<Metric>) -> Vec<Metric> {
    let samples: Vec<Vec<Metric>> = passes.iter().map(|p| per_pass(p)).collect();
    samples[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = samples.iter().map(|s| s[i].value).collect();
            metric(first.name.clone(), median(&values), first.unit)
        })
        .collect()
}

/// `wall_s`, `setup_s`, `txn_ns_per_op` (medians over the untraced
/// passes) and `peak_rss_mb`.
pub fn end_to_end(passes: &[&Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let mut metrics = medians(passes, |pass| {
        vec![
            metric("wall_s", pass.wall_s, "s"),
            metric("setup_s", pass.stores.iter().map(|s| s.setup_s).sum(), "s"),
            metric("txn_ns_per_op", txn_ns_per_op(&pass.stores), "ns"),
        ]
    });
    metrics.push(metric("peak_rss_mb", peak_rss_mb, "MB"));
    metrics
}

/// Sums a call's stats over every store of a pass.
fn merged(pass: &Pass, calls: &[Call]) -> CallStats {
    let mut out = CallStats::default();
    for store in &pass.stores {
        let trace = &store.trace.as_ref().expect("traced pass").calls;
        for &call in calls {
            let stats = trace.get(call);
            out.ns.merge(&stats.ns);
            out.total_ns += stats.total_ns;
            out.alloc += stats.alloc;
        }
    }
    out
}

fn ns_summary(name: &str, hist: &Histogram) -> [Metric; 3] {
    [
        metric(name, hist.mean(), "ns"),
        metric(format!("{name}.p50"), hist.quantile(0.50) as f64, "ns"),
        metric(format!("{name}.p99"), hist.quantile(0.99) as f64, "ns"),
    ]
}

/// Every store-layer call of the transaction phase.
const TXN_CALLS: [Call; 11] = [
    Call::PlanRead,
    Call::PlanScan,
    Call::PlanInsert,
    Call::PlanUpdate,
    Call::Background,
    Call::TimedEvent,
    Call::Fault,
    Call::PlanTarget,
    Call::HedgePlan,
    Call::Snap,
    Call::Restore,
];
const PLAN_CALLS: [Call; 4] = [
    Call::PlanRead,
    Call::PlanScan,
    Call::PlanInsert,
    Call::PlanUpdate,
];

/// The per-layer values of one traced pass, before the per-store,
/// overhead and host metrics.
fn layer_metrics(pass: &Pass) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&StoreRun) -> f64| pass.stores.iter().map(f).sum::<f64>();
    let issued = sum(&|s| s.issued as f64);
    let logical = sum(&|s| s.logical as f64);
    let records = sum(&|s| s.records as f64);
    let txn_ns = sum(&|s| s.txn_s * 1e9);
    let generator_ns = sum(&|s| s.trace.as_ref().expect("traced pass").generator_ns as f64);
    let txn_alloc = sum(&|s| s.trace.as_ref().expect("traced pass").txn_alloc.calls as f64);
    let txn_bytes = sum(&|s| s.trace.as_ref().expect("traced pass").txn_alloc.bytes as f64);
    let generator_alloc =
        sum(&|s| s.trace.as_ref().expect("traced pass").generator_alloc.calls as f64);

    let load = merged(pass, &[Call::Load]);
    let plan = merged(pass, &PLAN_CALLS);
    let store_txn = merged(pass, &TXN_CALLS);
    let mut out = vec![
        metric("harness.build_s", sum(&|s| s.build_s), "s"),
        metric(
            "stores.load_ns_per_record",
            load.total_ns as f64 / records,
            "ns",
        ),
        metric(
            "stores.finish_load_s",
            merged(pass, &[Call::FinishLoad]).total_ns as f64 / 1e9,
            "s",
        ),
    ];
    out.extend(ns_summary(
        "stores.plan_read_ns",
        &merged(pass, &[Call::PlanRead]).ns,
    ));
    out.extend(ns_summary(
        "stores.plan_scan_ns",
        &merged(pass, &[Call::PlanScan]).ns,
    ));
    out.extend(ns_summary(
        "stores.plan_insert_ns",
        &merged(pass, &[Call::PlanInsert]).ns,
    ));
    out.extend([
        metric("stores.plan_share", plan.total_ns as f64 / txn_ns, "ratio"),
        metric(
            "stores.background_ns_per_op",
            merged(pass, &[Call::Background]).total_ns as f64 / issued,
            "ns",
        ),
        metric(
            "stores.fault_s",
            merged(pass, &[Call::Fault]).total_ns as f64 / 1e9,
            "s",
        ),
        metric(
            "stores.hedge_plan_ns",
            merged(pass, &[Call::HedgePlan]).ns.mean(),
            "ns",
        ),
        metric(
            "stores.snap_s",
            merged(pass, &[Call::Snap]).total_ns as f64 / 1e9,
            "s",
        ),
        metric("core.generator_ns_per_op", generator_ns / logical, "ns"),
        metric(
            "sim_runner.ns_per_op",
            (txn_ns - store_txn.total_ns as f64 - generator_ns) / issued,
            "ns",
        ),
        metric(
            "alloc.plan_per_op",
            plan.alloc.calls as f64 / issued,
            "count",
        ),
        metric(
            "alloc.sim_runner_per_op",
            (txn_alloc - store_txn.alloc.calls as f64 - generator_alloc) / issued,
            "count",
        ),
        metric(
            "alloc.load_per_record",
            load.alloc.calls as f64 / records,
            "count",
        ),
        metric("alloc.bytes_per_op", txn_bytes / issued, "B"),
        metric(
            "sim.acquisitions_per_op",
            sum(&|s| s.acquisitions as f64) / issued,
            "count",
        ),
        metric(
            "resilience.retries_per_op",
            sum(&|s| s.resilience.retries as f64) / issued,
            "count",
        ),
    ]);
    let hedges = sum(&|s| s.resilience.hedges as f64);
    let wins = sum(&|s| s.resilience.hedge_wins as f64);
    out.push(metric(
        "resilience.hedge_win_ratio",
        if hedges > 0.0 { wins / hedges } else { 0.0 },
        "ratio",
    ));
    out
}

/// Host-probe readings taken before and after the passes.
#[derive(Clone, Copy, Debug)]
pub struct Probes {
    pub alu_ms: [f64; 2],
    pub mem_ms: [f64; 2],
}

impl Probes {
    pub fn metrics(&self) -> [Metric; 2] {
        let mean = |v: [f64; 2]| (v[0] + v[1]) / 2.0;
        [
            metric("host.alu_probe_ms", mean(self.alu_ms), "ms"),
            metric("host.mem_probe_ms", mean(self.mem_ms), "ms"),
        ]
    }
}

/// Every per-layer metric: medians of the traced passes' layer values,
/// per-store end-to-end values from the untraced passes (0 for a store
/// the workload does not run), the traced run's overhead against the
/// untraced one, and the host probes.
pub fn per_layer(untraced: &[&Pass], traced: &[&Pass], probes: &Probes) -> Vec<Metric> {
    let mut out = medians(traced, layer_metrics);
    for kind in StoreKind::ALL {
        let store_metrics = |pass: &Pass| {
            let run = pass.stores.iter().find(|s| s.store == kind);
            vec![
                metric(
                    format!("txn_ns_per_op.{}", kind.name()),
                    run.map_or(0.0, |r| txn_ns_per_op([r])),
                    "ns",
                ),
                metric(
                    format!("setup_s.{}", kind.name()),
                    run.map_or(0.0, |r| r.setup_s),
                    "s",
                ),
            ]
        };
        out.extend(medians(untraced, store_metrics));
    }
    let pass_txn = |passes: &[&Pass]| {
        median(
            &passes
                .iter()
                .map(|p| txn_ns_per_op(&p.stores))
                .collect::<Vec<_>>(),
        )
    };
    out.push(metric(
        "trace.overhead_pct",
        (pass_txn(traced) / pass_txn(untraced) - 1.0) * 100.0,
        "%",
    ));
    out.extend(probes.metrics());
    out
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
