//! The three replay workloads: set-up, one replay through the wrapped
//! layers, and the output checks every replay must pass.

use crate::layers::{SolveCounts, TimedAllocator, TimedBackend, TimedSource};
use crate::spans::{Recorder, Span};
use crate::stats::{fingerprint, tail_percentile};
use cpo_core::prelude::Allocator;
use cpo_des::prelude::{DesConfig, FailureSpec, LatencyModel, WindowBackend, WindowedScheduler};
use cpo_exper::runner::{Algorithm, Effort};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::{Infrastructure, ServerProfile};
use cpo_platform::prelude::{
    FleetExecutor, ShardConfig, ShardedScheduler, SimConfig, StoreMetrics, WindowExecutor,
};
use cpo_scenario::prelude::ArrivalSpec;
use cpo_traces::prelude::{
    Amplifier, AmplifyConfig, AzureReader, MalformedPolicy, TraceArrivalSource,
};
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// The 64-row Azure-style seed trace (3600 s of arrivals), frozen here so
/// the benchmark's input does not move with the repository's examples.
const SAMPLE: &str = include_str!("../data/azure_sample.csv");

/// Seed of the per-server failure/repair processes. The failure
/// schedule is part of a workload's definition, like its fleet size: on
/// a three-server fleet one outage removes a third of the capacity, so a
/// schedule drawn per run would dominate every other input and no two
/// seeds would measure the same workload.
const FAILURE_SEED: u64 = 7;

/// Which window engine a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformKind {
    /// Admission-only `FleetExecutor`, solved directly.
    Fleet,
    /// Reconfiguring `WindowExecutor` (re-solves every resident tenant).
    Reconfig,
    /// `ShardedScheduler<FleetExecutor>` with this many shards.
    Sharded(usize),
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Trace amplification factor (arrivals = 64 × factor).
    pub amplify: usize,
    /// Fleet size.
    pub servers: usize,
    /// Window length, s of trace time.
    pub window: f64,
    /// Allocator under test.
    pub algorithm: Algorithm,
    /// Server failure/repair processes.
    pub failures: Option<FailureSpec>,
    /// Window engine.
    pub platform: PlatformKind,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fleet-rr",
        amplify: 8000,
        servers: 5000,
        window: 30.0,
        algorithm: Algorithm::RoundRobin,
        failures: None,
        platform: PlatformKind::Fleet,
    },
    Workload {
        name: "paper-reconfig",
        amplify: 8,
        servers: 3,
        window: 30.0,
        algorithm: Algorithm::Nsga3Tabu,
        failures: Some(FailureSpec {
            mtbf: 7200.0,
            mttr: 600.0,
        }),
        platform: PlatformKind::Reconfig,
    },
    Workload {
        name: "sharded-tabu",
        amplify: 100,
        servers: 60,
        window: 30.0,
        algorithm: Algorithm::TabuSearch,
        failures: None,
        platform: PlatformKind::Sharded(2),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// A window engine the benchmark can build and check.
pub trait Platform: WindowBackend + Sized {
    /// Builds the engine over `infra`.
    fn build(infra: Infrastructure, kind: PlatformKind) -> Self;
    /// Checks the final placement state.
    fn verify(&self) -> Result<(), String>;
    /// Optimistic-commit counters of the placement store, if any.
    fn store_metrics(&self) -> StoreMetrics;
}

impl Platform for FleetExecutor {
    fn build(infra: Infrastructure, _: PlatformKind) -> Self {
        FleetExecutor::new(infra)
    }

    fn verify(&self) -> Result<(), String> {
        FleetExecutor::verify(self)
    }

    fn store_metrics(&self) -> StoreMetrics {
        self.store().metrics()
    }
}

impl Platform for WindowExecutor {
    fn build(infra: Infrastructure, _: PlatformKind) -> Self {
        WindowExecutor::new(infra, SimConfig::default())
    }

    fn verify(&self) -> Result<(), String> {
        let report = self.verify_state();
        if report.is_feasible() {
            Ok(())
        } else {
            Err(format!("{} violations", report.violations().len()))
        }
    }

    fn store_metrics(&self) -> StoreMetrics {
        StoreMetrics::default()
    }
}

impl Platform for ShardedScheduler<FleetExecutor> {
    fn build(infra: Infrastructure, kind: PlatformKind) -> Self {
        let PlatformKind::Sharded(shards) = kind else {
            panic!("a sharded engine needs a shard count");
        };
        ShardedScheduler::new(
            FleetExecutor::new(infra),
            ShardConfig {
                shards,
                ..ShardConfig::default()
            },
        )
    }

    fn verify(&self) -> Result<(), String> {
        self.backend().verify()
    }

    fn store_metrics(&self) -> StoreMetrics {
        self.backend().store().metrics()
    }
}

/// Everything set-up builds: the timed part of a run that is not replay.
pub struct Instance<B> {
    backend: B,
    source: TraceArrivalSource<Amplifier>,
    expected_arrivals: usize,
    horizon: f64,
    allocator: Box<dyn Allocator>,
    config: DesConfig,
}

/// Parses the dataset, builds the amplifier, fleet, store and allocator.
pub fn setup<B: Platform>(wl: &Workload, seed: u64) -> Instance<B> {
    let reader = AzureReader::new(Cursor::new(SAMPLE), MalformedPolicy::Fail)
        .expect("the embedded sample parses");
    let amp = Amplifier::new(
        reader,
        AmplifyConfig {
            factor: wl.amplify,
            time_jitter: 30.0,
            demand_jitter: 0.2,
            seed,
        },
    )
    .expect("the embedded sample amplifies");
    let expected_arrivals = amp.len();
    let horizon = amp.horizon() + 2.0 * wl.window;
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![(
            "dc".into(),
            ServerProfile::commodity(3).build_many(wl.servers),
        )],
    );
    Instance {
        backend: B::build(infra, wl.platform),
        source: TraceArrivalSource::new(amp, ArrivalSpec::default(), seed),
        expected_arrivals,
        horizon,
        allocator: wl.algorithm.build_tuned(Effort::Quick, seed, 1, None),
        config: DesConfig {
            window_length: wl.window,
            latency: LatencyModel::Fixed(0.0),
            failures: wl.failures,
            seed: FAILURE_SEED,
            solve_deadline: None,
        },
    }
}

/// What one replay measured and decided.
#[derive(Debug)]
pub struct Replay {
    /// Set-up wall time, s.
    pub setup_s: f64,
    /// `WindowedScheduler::run` wall time, s.
    pub wall_s: f64,
    /// Process CPU time (user + sys, all threads) during the run, s.
    pub cpu_s: f64,
    /// Peak resident memory from set-up to the end of the replay, MiB.
    pub peak_rss_mb: f64,
    /// Arrivals the source emitted.
    pub arrivals: u64,
    /// `next_arrival` calls.
    pub ingest_calls: u64,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Windows closed.
    pub windows: usize,
    /// Mean `WindowReport::provider_cost` over windows.
    pub provider_cost_mean: f64,
    /// Σ `WindowReport::migrations`.
    pub migrations: usize,
    /// Σ `WindowReport::solve_time`, s.
    pub solve_time_s: f64,
    /// Outcome fingerprint over the window reports.
    pub fingerprint: u64,
    /// Wall time of every `execute_window`, ms.
    pub window_ms: Vec<f64>,
    /// Allocator counters.
    pub solve: SolveCounts,
    /// `depart_tenant` calls and how many found a resident tenant.
    pub departs: (u64, u64),
    /// Failure plus repair calls.
    pub failures: u64,
    /// Placement-store counters at the end.
    pub store: StoreMetrics,
    /// Whether the engine was sharded (allocator calls then run on shard
    /// threads and `solve_time` is the modeled critical path).
    pub sharded: bool,
    /// Failed output checks (empty when the replay is correct).
    pub errors: Vec<String>,
    /// Spans, root first, when traced.
    pub spans: Option<Vec<Span>>,
}

impl Replay {
    /// Rejected / arrivals.
    pub fn rejection_rate(&self) -> f64 {
        self.rejected as f64 / (self.arrivals as f64).max(1.0)
    }
}

/// Sets up and replays `wl` once, tracing every layer call when `traced`.
pub fn replay<B: Platform>(wl: &Workload, seed: u64, traced: bool) -> Replay {
    crate::host::reset_peak_rss();
    let setup_start = Instant::now();
    let inst = setup::<B>(wl, seed);
    let setup_s = setup_start.elapsed().as_secs_f64();

    let rec = traced.then(|| Arc::new(Recorder::default()));
    let allocator = TimedAllocator::new(inst.allocator.as_ref(), rec.clone());
    let source = TimedSource::new(inst.source, rec.clone());
    let backend = TimedBackend::new(inst.backend, rec.clone());
    let mut sched = WindowedScheduler::with_backend(backend, inst.config, source);

    let root = rec.as_ref().map(|r| r.open_root());
    let cpu_start = crate::host::process_cpu_s();
    let start = Instant::now();
    let report = sched.run(&allocator, inst.horizon);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = crate::host::process_cpu_s() - cpu_start;
    if let (Some(rec), Some(root)) = (&rec, root) {
        rec.close(root);
    }

    let mut errors = Vec::new();
    let src = sched.source();
    if !src.drained {
        errors.push("the arrival source did not drain".to_string());
    }
    if let Some(err) = src.inner().error() {
        errors.push(format!("the arrival source failed: {err}"));
    }
    if src.arrivals as usize != inst.expected_arrivals {
        errors.push(format!(
            "{} arrivals replayed, {} expected",
            src.arrivals, inst.expected_arrivals
        ));
    }
    let admitted = report.total_admitted();
    let rejected = report.total_rejected();
    let decided: usize = report.windows.iter().map(|w| w.arrivals).sum();
    if admitted + rejected != src.arrivals as usize || decided != src.arrivals as usize {
        errors.push(format!(
            "admitted {admitted} + rejected {rejected} != arrivals {} (windows saw {decided})",
            src.arrivals
        ));
    }
    let backend = sched.backend();
    if let Err(e) = backend.inner().verify() {
        errors.push(format!("final state does not verify: {e}"));
    }
    let store = backend.inner().store_metrics();
    let sharded = matches!(wl.platform, PlatformKind::Sharded(_));
    if sharded && store.commits != admitted as u64 {
        errors.push(format!(
            "store commits {} != admitted {admitted}",
            store.commits
        ));
    }
    let windows = report.windows.len();
    if tail_percentile(windows).is_none_or(|q| q < 0.9) {
        errors.push(format!("{windows} windows leave fewer than ten beyond p90"));
    }
    let peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(0.0);
    let mut out = Replay {
        setup_s,
        wall_s,
        cpu_s,
        peak_rss_mb,
        arrivals: src.arrivals,
        ingest_calls: src.calls,
        admitted,
        rejected,
        windows,
        provider_cost_mean: report.windows.iter().map(|w| w.provider_cost).sum::<f64>()
            / windows.max(1) as f64,
        migrations: report.windows.iter().map(|w| w.migrations).sum(),
        solve_time_s: report
            .windows
            .iter()
            .map(|w| w.solve_time.as_secs_f64())
            .sum(),
        fingerprint: fingerprint(&report.windows),
        window_ms: backend.window_ms.clone(),
        solve: allocator.counts(),
        departs: (backend.departs, backend.departs_resident),
        failures: backend.failures,
        store,
        sharded,
        errors,
        spans: None,
    };
    drop((sched, allocator));
    out.spans = rec.map(|r| {
        Arc::try_unwrap(r)
            .unwrap_or_else(|_| panic!("every wrapper is dropped after the replay"))
            .into_spans()
    });
    out
}
