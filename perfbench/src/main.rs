//! Runs one workload of the repository benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-m --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The run repeats passes over the workload's stores for about
//! `--seconds` host seconds, from one thread, and reports medians over
//! the passes. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! alternates untraced and traced passes and prints the per-layer
//! metrics, writing the traced calls to `.perfbench/`. Every line but
//! the last is for people; the last is one JSON object.

use apm_harness::experiment::StoreKind;
use apm_harness::json::Json;
use apm_perfbench::probe;
use apm_perfbench::report::{self, Metric, Probes};
use apm_perfbench::store::Call;
use apm_perfbench::workload::{run_pass, Pass, Spec, NAMES};
use apm_stores::RunConfig;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The seed whose simulated outputs are pinned in `digests.txt`.
const DEFAULT_SEED: u64 = 1;
/// `workload store digest` lines for [`DEFAULT_SEED`].
const PINNED: &str = include_str!("../digests.txt");
/// Untraced passes a `--trace 0` run makes at least, so that every run
/// takes a median and re-checks its own digests.
const MIN_PASSES: usize = 3;
/// Passes of each kind a `--trace 1` run makes at least.
const MIN_TRACE_PASSES: usize = 2;
const TRACE_DIR: &str = ".perfbench";

const USAGE: &str = "usage: apm-perfbench --workload <read-m|scan-m|write-d|chaos-m> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Spec::by_name(&value)
                        .ok_or_else(|| bad(&format!("expected one of {}", NAMES.join(", "))))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs passes until the next one would overrun `seconds` and the
/// minimum counts are met. Traced runs alternate untraced and traced.
fn run_passes(args: &Args, configs: &[(StoreKind, RunConfig)]) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let pass = run_pass(&args.workload, configs, traced);
        let (txn_ns, ops) = pass.stores.iter().fold((0.0, 0), |(ns, ops), s| {
            (ns + s.txn_s * 1e9, ops + s.issued)
        });
        println!(
            "pass {}{}: wall {:.3} s, setup {:.3} s, txn {:.1} ns/op",
            passes.len(),
            if traced { " (traced)" } else { "" },
            pass.wall_s,
            pass.stores.iter().map(|s| s.setup_s).sum::<f64>(),
            txn_ns / ops as f64
        );
        passes.push(pass);
        let traced = passes.iter().filter(|p| p.traced).count();
        let untraced = passes.len() - traced;
        let enough = if args.trace {
            traced >= MIN_TRACE_PASSES && untraced == traced
        } else {
            untraced >= MIN_PASSES
        };
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if enough && elapsed + per_pass > args.seconds {
            return passes;
        }
    }
}

/// The digests pinned for `workload` at [`DEFAULT_SEED`], by store.
fn pinned(workload: &str) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut digests = BTreeMap::new();
    for line in PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, store, digest] = fields[..] else {
            return Err(format!("malformed digests.txt line {line:?}"));
        };
        if name == workload {
            let digest = u64::from_str_radix(digest, 16)
                .map_err(|e| format!("digests.txt line {line:?}: {e}"))?;
            digests.insert(store, digest);
        }
    }
    Ok(digests)
}

/// Checks every store's digest against the pinned one for the default
/// seed, and otherwise against the first pass. Returns the ops
/// attempted and the ops of store runs whose outputs did not match.
fn check_digests(args: &Args, passes: &[Pass]) -> Result<(u64, u64), String> {
    let name = args.workload.name;
    let pinned = match args.seed {
        DEFAULT_SEED => Some(pinned(name)?),
        _ => None,
    };
    let mut first: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for (index, pass) in passes.iter().enumerate() {
        for run in &pass.stores {
            let store = run.store.name();
            let want = match &pinned {
                Some(pinned) => pinned.get(store).copied(),
                None => Some(*first.entry(store).or_insert(run.digest)),
            };
            attempted += run.issued;
            if want != Some(run.digest) {
                eprintln!(
                    "apm-perfbench: {name} {store} pass {index}: digest {:016x}, expected {}",
                    run.digest,
                    want.map_or("none pinned".to_string(), |d| format!("{d:016x}"))
                );
                failed += run.issued;
            }
        }
    }
    Ok((attempted, failed))
}

/// The traced calls of the last traced pass, as JSON.
fn trace_json(args: &Args, pass: &Pass) -> Json {
    let num = |v: f64| Json::Num(v);
    let stores = pass
        .stores
        .iter()
        .map(|run| {
            let trace = &run.trace.as_ref().expect("traced pass").calls;
            let calls = Call::ALL
                .iter()
                .map(|&call| {
                    let stats = trace.get(call);
                    Json::Obj(vec![
                        ("call".into(), Json::Str(call.label().into())),
                        ("count".into(), num(stats.ns.count() as f64)),
                        ("total_ns".into(), num(stats.total_ns as f64)),
                        ("p50_ns".into(), num(stats.ns.quantile(0.5) as f64)),
                        ("p99_ns".into(), num(stats.ns.quantile(0.99) as f64)),
                        ("max_ns".into(), num(stats.ns.max() as f64)),
                        ("allocs".into(), num(stats.alloc.calls as f64)),
                        ("alloc_bytes".into(), num(stats.alloc.bytes as f64)),
                    ])
                })
                .collect();
            let spans = trace
                .spans
                .iter()
                .map(|span| {
                    Json::Obj(vec![
                        ("call".into(), Json::Str(span.call.label().into())),
                        ("start_ns".into(), num(span.start_ns as f64)),
                        ("end_ns".into(), num(span.end_ns as f64)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("store".into(), Json::Str(run.store.name().into())),
                ("txn_s".into(), num(run.txn_s)),
                ("issued".into(), num(run.issued as f64)),
                ("retries".into(), num(run.resilience.retries as f64)),
                ("hedges".into(), num(run.resilience.hedges as f64)),
                ("hedge_wins".into(), num(run.resilience.hedge_wins as f64)),
                ("calls".into(), Json::Arr(calls)),
                ("spans".into(), Json::Arr(spans)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name.into())),
        ("seed".into(), num(args.seed as f64)),
        ("stores".into(), Json::Arr(stores)),
    ])
}

fn write_trace(args: &Args, pass: &Pass) -> Result<String, String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        args.workload.name, args.seed
    );
    std::fs::write(&path, trace_json(args, pass).to_pretty())
        .map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}

fn run(args: &Args) -> Result<String, String> {
    let configs = args.workload.run_configs(args.seed);
    let before = (probe::alu_probe_ms(), probe::mem_probe_ms());
    let passes = run_passes(args, &configs);
    // The first pass only: heap fragmentation grows resident memory a
    // little with every later pass, so a later reading would depend on
    // how many passes the host's speed allowed.
    let peak_rss_mb = passes[0]
        .stores
        .iter()
        .try_fold(0.0, |peak, run| {
            run.resident_mb.map(|mb| f64::max(peak, mb))
        })
        .ok_or("no RssAnon line in /proc/self/status")?;
    let after = (probe::alu_probe_ms(), probe::mem_probe_ms());
    let probes = Probes {
        alu_ms: [before.0, after.0],
        mem_ms: [before.1, after.1],
    };

    let (attempted, failed) = check_digests(args, &passes)?;
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let metrics: Vec<Metric> = if args.trace {
        report::per_layer(&untraced, &traced, &probes)
    } else {
        report::end_to_end(&untraced, peak_rss_mb)
    };

    println!(
        "workload {} seed {} passes {} ({} traced)",
        args.workload.name,
        args.seed,
        passes.len(),
        traced.len()
    );
    for run in &passes[0].stores {
        println!(
            "digest {} {} {:016x}",
            args.workload.name,
            run.store.name(),
            run.digest
        );
    }
    for m in &metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        for m in probes.metrics() {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "host probes before/after: alu {:.1}/{:.1} ms, mem {:.1}/{:.1} ms",
        before.0, after.0, before.1, after.1
    );
    if let Some(last) = traced.last() {
        println!("trace written to {}", write_trace(args, last)?);
    }
    Ok(report::result_line(
        failed == 0,
        attempted,
        failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("apm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("apm-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
