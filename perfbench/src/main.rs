//! `cpo-perfbench`: replays one named workload through
//! `cpo_des::WindowedScheduler` for a fixed wall-clock budget, checks
//! every replay's outputs, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics of one extra traced replay) as the
//! last line of standard output.
//!
//! ```text
//! cpo-perfbench --workload fleet-rr --seed 1 --seconds 20 --trace 0 \
//!     [--spans-out spans.tsv]
//! ```
//!
//! `perfbench/run.py` builds this binary and is the command to use; see
//! `perfbench/README.md` for the workloads and metrics.

mod host;
mod layers;
mod spans;
mod stats;
mod workload;

use cpo_platform::prelude::{FleetExecutor, ShardedScheduler, WindowExecutor};
use spans::{breakdown, Layer, Span};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{replay, setup, Platform, PlatformKind, Replay, Workload};

/// Set-up takes microseconds to milliseconds, and one process's median
/// set-up time is bimodal (about 17 µs or 35 µs on `paper-reconfig`),
/// varying between processes. A run therefore times set-up in itself
/// and in this many child processes of the same binary, and reports the
/// mean of their medians.
const SETUP_PROCESSES: usize = 8;

/// Set-ups each of those processes times: at least the first count, and
/// more up to the second while it has spent less than [`SETUP_SECONDS`].
const SETUP_SAMPLES: (usize, usize) = (10, 5000);
const SETUP_SECONDS: f64 = 0.2;

/// Tolerance of the one-shard solve cross-check: the executor's own
/// `solve_time` brackets the wrapped call, so it may exceed the wrapped
/// busy time by the wrapper's bookkeeping — allowed 1% plus 20 µs per
/// call.
const SOLVE_TOLERANCE: (f64, f64) = (0.01, 20e-6);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
    /// Only time set-up and print its median (the child-process mode).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans_out = None;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--spans-out" => spans_out = Some(value),
            "--setup-probe" => setup_probe = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.platform {
        PlatformKind::Fleet => run::<FleetExecutor>(&args),
        PlatformKind::Reconfig => run::<WindowExecutor>(&args),
        PlatformKind::Sharded(_) => run::<ShardedScheduler<FleetExecutor>>(&args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cpo-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Metric name, value and unit, in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run<B: Platform>(args: &Args) -> Result<String, String> {
    let wl = &args.workload;
    if args.setup_probe {
        return Ok(format!("setup_median {}", setup_median::<B>(wl, args.seed)));
    }
    println!(
        "workload {}: x{} trace on {} servers, {} s windows, {}, {:?}; seed {}",
        wl.name,
        wl.amplify,
        wl.servers,
        wl.window,
        wl.algorithm.label(),
        wl.platform,
        args.seed
    );
    println!(
        "host: available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );

    // Untraced replays fill the budget (half of it when a traced replay
    // follows); at least one always runs.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // A replay starts only when the slowest one so far would still end
    // within the budget, so a run never overshoots it by a whole replay.
    let start = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let mut slowest = 0.0f64;
    loop {
        let r = replay::<B>(wl, args.seed, false);
        slowest = slowest.max(r.setup_s + r.wall_s);
        replays.push(r);
        if start.elapsed().as_secs_f64() + slowest > budget {
            break;
        }
    }
    if args.trace {
        replays.push(replay::<B>(wl, args.seed, true));
    }

    cross_check(&mut replays);
    let mut traced = args
        .trace
        .then(|| replays.pop().expect("the traced replay ran last"));
    let layers = traced.as_mut().map(|t| layer_metrics(t, &replays));

    for (i, r) in replays.iter().chain(&traced).enumerate() {
        println!(
            "replay {i}{}: {} arrivals, {} windows, admitted {}, rejected {}, wall {:.3} s, cpu {:.3} s, setup {:.6} s, evaluations {}, fingerprint {:016x}{}",
            if r.spans.is_some() { " (traced)" } else { "" },
            r.arrivals,
            r.windows,
            r.admitted,
            r.rejected,
            r.wall_s,
            r.cpu_s,
            r.setup_s,
            r.solve.evaluations,
            r.fingerprint,
            if r.errors.is_empty() {
                ", checks pass".to_string()
            } else {
                format!(", CHECKS FAIL: {}", r.errors.join("; "))
            }
        );
    }
    if let (Some(path), Some(t)) = (&args.spans_out, &traced) {
        write_spans(path, t.spans.as_deref().unwrap_or_default())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("spans written to {path}");
    }

    // A replay that failed a check counts against the attempts and
    // keeps its numbers out of the metrics.
    let attempted = replays.len() + traced.iter().len();
    let failed = replays
        .iter()
        .chain(&traced)
        .filter(|r| !r.errors.is_empty())
        .count();
    let good: Vec<&Replay> = replays.iter().filter(|r| r.errors.is_empty()).collect();
    let metrics = match (&traced, layers) {
        (Some(t), Some(layers)) if t.errors.is_empty() => layers,
        (None, _) if !good.is_empty() => end_to_end(&good, setup_s::<B>(args)?),
        _ => return Err("no replay passed its checks; no metrics to report".into()),
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// Marks replays whose deterministic outcome differs from the first
/// replay's: same seed, so every decision and every evaluation count
/// must repeat bit for bit.
fn cross_check(replays: &mut [Replay]) {
    let Some(first) = replays.first() else {
        return;
    };
    let want = (first.fingerprint, first.solve.evaluations);
    for r in replays.iter_mut().skip(1) {
        let got = (r.fingerprint, r.solve.evaluations);
        if got != want {
            r.errors.push(format!(
                "outcome differs from the first replay: fingerprint {:016x} vs {:016x}, evaluations {} vs {}",
                got.0, want.0, got.1, want.1
            ));
        }
    }
}

/// Median set-up time over [`SETUP_SAMPLES`] set-ups in this process.
fn setup_median<B: Platform>(wl: &Workload, seed: u64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < SETUP_SAMPLES.0
        || (samples.len() < SETUP_SAMPLES.1 && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t = Instant::now();
        let inst = setup::<B>(wl, seed);
        samples.push(t.elapsed().as_secs_f64());
        drop(inst);
    }
    median(&samples)
}

/// Mean of the set-up medians of this process and [`SETUP_PROCESSES`]
/// children, each started and waited for in turn.
fn setup_s<B: Platform>(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let seed = args.seed.to_string();
    let mut medians = vec![setup_median::<B>(&args.workload, args.seed)];
    for _ in 0..SETUP_PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name, "--seed", &seed])
            .args(["--seconds", "1", "--trace", "0", "--setup-probe", "1"])
            .output()
            .map_err(|e| format!("starting a set-up probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let median = stdout
            .lines()
            .last()
            .and_then(|l| l.strip_prefix("setup_median "))
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or(format!("set-up probe failed: {}", out.status))?;
        medians.push(median);
    }
    println!(
        "setup medians per process (s): {}",
        medians
            .iter()
            .map(|m| format!("{m:.3e}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(medians.iter().sum::<f64>() / medians.len() as f64)
}

fn end_to_end(good: &[&Replay], setup_s: f64) -> Metrics {
    let first = good[0];
    let windows: Vec<f64> = good
        .iter()
        .flat_map(|r| r.window_ms.iter().copied())
        .collect();
    let per_replay = |f: fn(&Replay) -> f64| median(&good.iter().map(|r| f(r)).collect::<Vec<_>>());
    vec![
        (
            "events_per_s",
            per_replay(|r| r.arrivals as f64 / r.wall_s),
            "1/s",
        ),
        ("window_p50_ms", percentile(&windows, 0.5), "ms"),
        ("window_p90_ms", percentile(&windows, 0.9), "ms"),
        ("rejection_rate", first.rejection_rate(), "ratio"),
        ("provider_cost_mean", first.provider_cost_mean, "cost"),
        ("cpu_s", per_replay(|r| r.cpu_s), "s"),
        ("peak_rss_mb", per_replay(|r| r.peak_rss_mb), "MiB"),
        ("setup_s", setup_s, "s"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the traced replay, plus its consistency checks.
fn layer_metrics(t: &mut Replay, untraced: &[Replay]) -> Metrics {
    let spans = t.spans.as_deref().expect("traced replay has spans");
    let b = breakdown(spans);
    let s = |ns: u64| ns as f64 * 1e-9;
    let wall = s(b.wall_ns);
    let ingest = b.layer(Layer::NextArrival);
    let window = b.layer(Layer::Window);
    let alloc = b.layer(Layer::Allocate);
    let depart = b.layer(Layer::Depart);
    let fail = b.layer(Layer::Failure);
    let repair = b.layer(Layer::Repair);
    let des_self = b.des_self_ns();
    let events = t.arrivals + t.departs.0 + t.failures + t.windows as u64;
    let window_self_ms: Vec<f64> = b
        .window_self_ns
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    let alloc_ms: Vec<f64> = b.allocate_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());

    // Consistency: the layers' shares of the wall add up to it exactly,
    // so the scheduler's residual equals the root's own self time.
    if b.des_residual_ns != des_self as i64 || b.des_residual_ns < 0 {
        t.errors.push(format!(
            "layer self times do not sum to the traced wall: residual {} ns vs root self {} ns",
            b.des_residual_ns, des_self
        ));
    }
    let expect = [
        ("next_arrival", ingest.calls, t.ingest_calls),
        ("execute_window", window.calls, t.windows as u64),
        ("allocate", alloc.calls, t.solve.calls),
        ("depart_tenant", depart.calls, t.departs.0),
        ("failure/repair", fail.calls + repair.calls, t.failures),
    ];
    for (name, spans, calls) in expect {
        if spans != calls {
            t.errors
                .push(format!("{spans} {name} spans for {calls} calls"));
        }
    }
    if !t.sharded {
        let busy = s(alloc.busy_ns);
        let allowed = SOLVE_TOLERANCE.0 * t.solve_time_s + SOLVE_TOLERANCE.1 * alloc.calls as f64;
        if (busy - t.solve_time_s).abs() > allowed {
            t.errors.push(format!(
                "allocate busy {busy:.6} s differs from sum of solve_time {:.6} s by more than {allowed:.6} s",
                t.solve_time_s
            ));
        }
    }
    vec![
        ("traces.next_arrival.calls", ingest.calls as f64, "count"),
        ("traces.next_arrival.busy_s", s(ingest.busy_ns), "s"),
        (
            "traces.next_arrival.ns_per_call",
            ratio(ingest.busy_ns as f64, ingest.calls as f64),
            "ns",
        ),
        ("des.self_s", s(des_self), "s"),
        (
            "des.self_ns_per_event",
            ratio(des_self as f64, events as f64),
            "ns",
        ),
        ("platform.window.self_s", s(window.self_ns), "s"),
        (
            "platform.window.self_p90_ms",
            percentile(&window_self_ms, 0.9),
            "ms",
        ),
        (
            "platform.register.busy_s",
            s(b.layer(Layer::Register).busy_ns),
            "s",
        ),
        ("platform.depart.calls", depart.calls as f64, "count"),
        ("platform.depart.busy_s", s(depart.busy_ns), "s"),
        (
            "platform.depart.resident_ratio",
            ratio(t.departs.1 as f64, t.departs.0 as f64),
            "ratio",
        ),
        (
            "platform.failure.calls",
            (fail.calls + repair.calls) as f64,
            "count",
        ),
        (
            "platform.failure.busy_s",
            s(fail.busy_ns + repair.busy_ns),
            "s",
        ),
        ("platform.migrations", t.migrations as f64, "count"),
        ("platform.store.commits", t.store.commits as f64, "count"),
        (
            "platform.store.conflicts",
            t.store.conflicts as f64,
            "count",
        ),
        (
            "platform.store.conflict_rate",
            t.store.conflict_rate(),
            "ratio",
        ),
        ("core.allocate.calls", alloc.calls as f64, "count"),
        ("core.allocate.busy_s", s(alloc.busy_ns), "s"),
        ("core.allocate.p50_ms", percentile(&alloc_ms, 0.5), "ms"),
        ("core.allocate.p90_ms", percentile(&alloc_ms, 0.9), "ms"),
        (
            "core.allocate.vms_per_call",
            ratio(t.solve.vms as f64, t.solve.calls as f64),
            "count",
        ),
        (
            "core.allocate.evaluations",
            t.solve.evaluations as f64,
            "count",
        ),
        (
            "core.allocate.accepted_ratio",
            ratio(t.solve.accepted as f64, t.solve.offered as f64),
            "ratio",
        ),
        (
            "shard.solve_parallelism",
            ratio(alloc.busy_ns as f64, window.busy_ns as f64),
            "ratio",
        ),
        (
            "shard.idle_frac",
            ratio(b.shard_idle_ns as f64, b.shard_span_ns as f64),
            "ratio",
        ),
        ("process.cpu_per_wall", ratio(t.cpu_s, t.wall_s), "ratio"),
        (
            "trace.overhead_frac",
            ratio(t.wall_s, untraced_wall) - 1.0,
            "ratio",
        ),
        (
            "trace.attributed_frac",
            ratio(wall - s(des_self), wall),
            "ratio",
        ),
    ]
}

/// Writes the spans as tab-separated `name start_ns end_ns parent window`
/// rows (parent `-` for the root).
fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\twindow")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}",
            s.layer.name(),
            s.start,
            s.end,
            s.window
        )?;
    }
    out.flush()
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
