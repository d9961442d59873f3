//! The four benchmark workloads and one timed pass over their stores.
//!
//! Each workload is a closed loop in virtual time with the paper's
//! client populations, at the `quick` profile's data scale, subsetting
//! the Table-1 × cluster matrix so that a different layer dominates host
//! time in each (see `perfbench/README.md` for the rationale).

use crate::alloc::{self, AllocCount};
use crate::store::{CallTrace, Instrumented};
use apm_core::driver::ClientConfig;
use apm_core::ops::OpKind;
use apm_core::snap::{fnv1a64, SnapWriter};
use apm_core::stats::ResilienceCounters;
use apm_core::workload::{Workload, WorkloadGenerator};
use apm_harness::chaos::ChaosGenerator;
use apm_harness::experiment::{ExperimentProfile, StoreKind};
use apm_sim::kernel::ResourceId;
use apm_sim::{ClusterSpec, Engine, FaultSchedule, SimDuration};
use apm_stores::resilience::{
    AdmissionPolicy, BreakerPolicy, HedgePolicy, ResiliencePolicy, RetryPolicy,
};
use apm_stores::runner::{run_benchmark, CheckpointSpec, RunConfig, RunResult};
use std::hint::black_box;
use std::time::Instant;

/// Workload names, in reporting order.
pub const NAMES: [&str; 4] = ["read-m", "scan-m", "write-d", "chaos-m"];

/// Cluster D holds 150 M records over 8 nodes: 1.875× Cluster M's
/// density per node (§5.8).
const CLUSTER_D_DATA_FACTOR: f64 = 1.875;
const CLUSTER_D_NODES: u32 = 8;
const CLUSTER_M_NODES: u32 = 4;
/// The chaos campaign's client deadline (`harness::chaos`).
const CHAOS_OP_DEADLINE: SimDuration = SimDuration::from_millis(250);

/// One workload: a Table-1 mix on a cluster, over a set of stores.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    workload: Workload,
    cluster: ClusterSpec,
    nodes: u32,
    stores: Vec<StoreKind>,
    client: ClientConfig,
    records_per_node: u64,
    /// Run the chaos campaign's shape: fault windows, a deadline,
    /// checkpoints and the resilient driver.
    chaos: bool,
}

impl Spec {
    /// The named workload, or `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<Spec> {
        let name = NAMES.into_iter().find(|n| *n == name)?;
        let all = StoreKind::ALL.to_vec();
        let with_scans = all.iter().copied().filter(|k| k.supports_scans()).collect();
        let on_d = all
            .iter()
            .copied()
            .filter(|k| k.in_cluster_d_figures())
            .collect();
        // Virtual windows (warm-up, measurement) are shorter than the
        // quick profile's 2 + 8 s, so that one pass over a workload's
        // stores takes a few host seconds and a run can take the median
        // of several passes.
        let (workload, cluster_d, stores, window, chaos) = match name {
            "read-m" => (Workload::r(), false, all, (0.5, 1.5), false),
            "scan-m" => (Workload::rs(), false, with_scans, (0.25, 0.75), false),
            "write-d" => (Workload::w(), true, on_d, (1.0, 4.0), false),
            "chaos-m" => (Workload::rw(), false, all, (0.25, 0.75), true),
            _ => return None,
        };
        let (cluster, nodes, client, data_factor) = if cluster_d {
            let client = ClientConfig::cluster_d(CLUSTER_D_NODES);
            (
                ClusterSpec::cluster_d(),
                CLUSTER_D_NODES,
                client,
                CLUSTER_D_DATA_FACTOR,
            )
        } else {
            let client = ClientConfig::cluster_m(CLUSTER_M_NODES);
            (ClusterSpec::cluster_m(), CLUSTER_M_NODES, client, 1.0)
        };
        let profile = ExperimentProfile {
            data_factor,
            ..ExperimentProfile::quick()
        };
        Some(Spec {
            name,
            workload,
            cluster,
            nodes,
            stores,
            client: client.with_window(window.0, window.1),
            records_per_node: profile.records_per_node(),
            chaos,
        })
    }

    /// The same workload shrunk to a small fraction of its records and
    /// window, for the benchmark's own tests.
    pub fn shrunk(mut self) -> Spec {
        self.records_per_node /= 50;
        self.client = self.client.with_window(0.2, 0.6);
        self
    }

    /// Each store's run configuration for `seed`.
    ///
    /// On `chaos-m` one [`ChaosGenerator`] samples a fault schedule per
    /// store, in store order, from the quick profile's seed (the one
    /// `repro chaos` samples by default) rather than from `seed`. The
    /// schedule decides how much state a store holds at each checkpoint,
    /// and the snapshot buffers set the run's memory peak: sampled from
    /// `seed`, the high-water mark split between two levels about 30%
    /// apart from one seed to the next. `seed` still drives the operation
    /// stream and the stores.
    pub fn run_configs(&self, seed: u64) -> Vec<(StoreKind, RunConfig)> {
        let chaos_seed = ExperimentProfile::quick().seed;
        let mut chaos = ChaosGenerator::new(chaos_seed, self.nodes as usize);
        self.stores
            .iter()
            .map(|&kind| (kind, self.run_config(seed, &mut chaos)))
            .collect()
    }

    fn run_config(&self, seed: u64, chaos: &mut ChaosGenerator) -> RunConfig {
        let measure_secs = self.client.measure_secs;
        let mut config = RunConfig {
            workload: self.workload.clone(),
            client: self.client.clone(),
            records_per_node: self.records_per_node,
            nodes: self.nodes,
            seed,
            event_at_secs: None,
            faults: FaultSchedule::none(),
            op_deadline: None,
            telemetry_window_secs: None,
            resilience: None,
            checkpoints: None,
        };
        if self.chaos {
            config.faults = chaos.sample(measure_secs).schedule;
            config.op_deadline = Some(CHAOS_OP_DEADLINE);
            config.resilience = Some(ResiliencePolicy {
                retry: Some(RetryPolicy::standard()),
                hedge: Some(HedgePolicy::standard()),
                breaker: Some(BreakerPolicy::standard()),
                admission: Some(AdmissionPolicy::standard()),
            });
            config.checkpoints = Some(CheckpointSpec::every(measure_secs / 4.0));
        }
        config
    }

    fn build(
        &self,
        kind: StoreKind,
        engine: &mut Engine,
        seed: u64,
    ) -> Box<dyn apm_stores::DistributedStore> {
        let scale = ExperimentProfile::quick().scale;
        kind.build(engine, self.cluster, self.nodes, scale, seed)
    }
}

/// FNV-1a digest of a run's simulated outputs: statistics, ledger and
/// ops issued, in their snapshot encodings.
pub fn digest(result: &RunResult) -> u64 {
    let mut w = SnapWriter::new();
    w.put(&result.stats);
    w.put(&result.ledger);
    w.put_u64(result.issued);
    fnv1a64(w.bytes())
}

/// What the traced pass adds to a [`StoreRun`].
#[derive(Debug)]
pub struct StoreTrace {
    pub calls: CallTrace,
    /// Allocations from the end of the load phase to the end of the run.
    pub txn_alloc: AllocCount,
    /// Host time and allocations of a replay of the run's operation
    /// stream through [`WorkloadGenerator::next_op`].
    pub generator_ns: u128,
    pub generator_alloc: AllocCount,
}

/// One store's run within a pass.
#[derive(Debug)]
pub struct StoreRun {
    pub store: StoreKind,
    /// Host seconds in [`StoreKind::build`].
    pub build_s: f64,
    /// Host seconds from the start of the build to the end of the load
    /// phase.
    pub setup_s: f64,
    /// Host seconds from the end of the load phase to the end of the run.
    pub txn_s: f64,
    /// Simulated ops issued, retries and hedges included.
    pub issued: u64,
    /// Logical ops drawn from the workload generator.
    pub logical: u64,
    pub records: u64,
    pub digest: u64,
    /// Resource acquisitions served by the kernel, over every resource.
    pub acquisitions: u64,
    pub resilience: ResilienceCounters,
    /// The process's anonymous resident memory in MiB right after the
    /// run, with the store, its engine and the run's result all alive;
    /// `None` when `/proc/self/status` cannot be read.
    pub resident_mb: Option<f64>,
    pub trace: Option<StoreTrace>,
}

/// The process's anonymous resident memory in MiB (`RssAnon` in
/// `/proc/self/status`): the heap and stacks, without the mapped files.
///
/// `VmHWM` would be the natural peak, but the kernel updates it only at
/// some unmaps, so it catches or misses a transient peak from one run to
/// the next. `VmRSS` also counts the binary's and libraries' pages, which
/// the kernel may map as 2 MiB huge pages or not from one run to the
/// next. A reading of `RssAnon` at a fixed point of the program is
/// steadier, though it still moves by a few MiB from run to run.
fn resident_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("RssAnon:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Builds, loads and runs one store through the decorator.
pub fn run_store(spec: &Spec, kind: StoreKind, config: &RunConfig, traced: bool) -> StoreRun {
    alloc::set_counting(traced);
    let start = Instant::now();
    let mut engine = Engine::new();
    let inner = spec.build(kind, &mut engine, config.seed);
    let built = Instant::now();
    let mut store = Instrumented::new(inner, traced.then_some(start));
    let result = run_benchmark(&mut engine, &mut store, config);
    let end = Instant::now();
    let resident_mb = resident_mb();
    let end_alloc = alloc::snapshot();
    let (load_end, load_end_alloc) = store.load_end().expect("run_benchmark ends the load phase");
    let records = config.records_per_node * u64::from(config.nodes);
    let acquisitions = (0..engine.resource_count())
        .map(|i| engine.served(ResourceId(i as u32)))
        .sum();
    let trace = store.into_trace().map(|calls| {
        let (generator_ns, generator_alloc) =
            replay_generator(config, records, result.ledger.logical);
        StoreTrace {
            calls,
            txn_alloc: end_alloc - load_end_alloc,
            generator_ns,
            generator_alloc,
        }
    });
    alloc::set_counting(false);
    StoreRun {
        store: kind,
        build_s: built.duration_since(start).as_secs_f64(),
        setup_s: load_end.duration_since(start).as_secs_f64(),
        txn_s: end.duration_since(load_end).as_secs_f64(),
        issued: result.issued,
        logical: result.ledger.logical,
        records,
        digest: digest(&result),
        acquisitions,
        resilience: *result.stats.resilience(),
        resident_mb,
        trace,
    }
}

/// Replays `ops` draws of the run's workload generator (same workload,
/// record count and seed), acknowledging each insert at once.
fn replay_generator(config: &RunConfig, records: u64, ops: u64) -> (u128, AllocCount) {
    let mut generator = WorkloadGenerator::new(config.workload.clone(), records, config.seed);
    let alloc_before = alloc::snapshot();
    let start = Instant::now();
    for _ in 0..ops {
        let op = generator.next_op();
        if op.kind() == OpKind::Insert {
            generator.ack_insert();
        }
        black_box(op);
    }
    let ns = start.elapsed().as_nanos();
    (ns, alloc::snapshot() - alloc_before)
}

/// The undecorated counterpart of [`run_store`]'s simulation, for the
/// transparency check: the digest of a plain `run_benchmark` run.
pub fn plain_digest(spec: &Spec, kind: StoreKind, config: &RunConfig) -> u64 {
    let mut engine = Engine::new();
    let mut store = spec.build(kind, &mut engine, config.seed);
    digest(&run_benchmark(&mut engine, store.as_mut(), config))
}

/// One pass over every store of a workload.
#[derive(Debug)]
pub struct Pass {
    pub traced: bool,
    /// Host seconds for the whole pass.
    pub wall_s: f64,
    pub stores: Vec<StoreRun>,
}

/// Runs every store of `spec` once, in order, from one thread.
pub fn run_pass(spec: &Spec, configs: &[(StoreKind, RunConfig)], traced: bool) -> Pass {
    let start = Instant::now();
    let stores = configs
        .iter()
        .map(|(kind, config)| run_store(spec, *kind, config, traced))
        .collect();
    Pass {
        traced,
        wall_s: start.elapsed().as_secs_f64(),
        stores,
    }
}
