//! Golden digests of the continuous-time and the fixed-step window loop.
//!
//! `WindowedScheduler::run` is driven over `FleetExecutor`,
//! `WindowExecutor` and a two-shard `ShardedScheduler` with arrivals
//! that put several requests, multi-VM requests, affinity rules of all
//! four kinds, tied timestamps and multi-request batches into the same
//! window. Each run folds into one 64-bit digest: every per-window report
//! (float costs as bits, wall-clock `solve_time` excluded), the waiting
//! count, sum and maximum as bits, the end time, and the final platform
//! state (residual rows as bits for the fleet, tenant placements and
//! feasibility for the reconfiguring executor).
//!
//! The pinned values were recorded before the window-close path was
//! reworked for linear cost (request-indexed accept masks, payload-free
//! queue entries, batch assembly by move, in-place residual
//! subtraction). Any change to a decision, a departure's scheduling
//! order or a residual float shows up here.
//!
//! The fixed-step loop (`WindowExecutor::run`) is pinned the same way
//! over generated arrivals: round robin at seeds 1, 7 and 42, and the CP
//! allocator while servers fail and are repaired. Those digests cover
//! every per-window report and the whole event log as JSON lines; they
//! were recorded before the fixed-step loop moved onto `WindowExecutor`.
//!
//! The two primitives that rework rests on are checked directly against
//! the code they replaced: `RequestBatch::append` against the
//! clone-and-rebase merge through `push_request`, and
//! `Infrastructure::sub_capacity` against `adjust_capacity` with the
//! negated demand.

use cpo_core::prelude::{Allocator, CpAllocator, FilteringAllocator, RoundRobinAllocator};
use cpo_des::prelude::*;
use cpo_model::attr::AttrSet;
use cpo_model::prelude::*;
use cpo_platform::prelude::{
    FleetExecutor, ShardConfig, ShardedScheduler, SimConfig, SimReport, WindowExecutor,
    WindowReport,
};
use cpo_platform::tenant::rebase_rules;
use cpo_scenario::request_gen::RequestSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Two datacenters of `per_dc` commodity servers each, so datacenter
/// rules have something to decide.
fn infra(per_dc: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![
            ("dc0".into(), ServerProfile::commodity(3).build_many(per_dc)),
            ("dc1".into(), ServerProfile::commodity(3).build_many(per_dc)),
        ],
    )
}

/// Seeded arrivals: about six per unit of sim time, one in five sharing
/// its predecessor's timestamp, one to three VMs per request with a rule
/// over them, and every seventh arrival a two-request batch. Holding
/// times come from a small grid, so tenants admitted in one window often
/// depart at the same instant and the queue's FIFO order among them
/// decides the order their (inexact, multiples of 0.35) CPU demands are
/// returned to the residual.
struct RuleArrivals {
    rng: SmallRng,
    clock: f64,
    index: u64,
}

impl RuleArrivals {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            clock: 0.0,
            index: 0,
        }
    }

    fn push_request(&mut self, batch: &mut RequestBatch) {
        let n = self.rng.gen_range(1..=3usize);
        let base = batch.vm_count();
        let vms: Vec<VmSpec> = (0..n)
            .map(|_| {
                vm_spec(
                    self.rng.gen_range(1..=16) as f64 * 0.35,
                    self.rng.gen_range(1..=8) as f64 * 1024.0,
                    self.rng.gen_range(1..=4) as f64 * 20.0,
                )
            })
            .collect();
        let mut rules = Vec::new();
        if n >= 2 {
            let kind = match self.rng.gen_range(0..5u32) {
                0 => Some(AffinityKind::SameServer),
                1 => Some(AffinityKind::DifferentServer),
                2 => Some(AffinityKind::SameDatacenter),
                3 => Some(AffinityKind::DifferentDatacenter),
                _ => None,
            };
            if let Some(kind) = kind {
                // Reverse order on purpose: rebasing must keep it.
                rules.push(AffinityRule::new(
                    kind,
                    vec![VmId(base + n - 1), VmId(base)],
                ));
            }
        }
        batch.push_request(vms, rules);
    }
}

impl ArrivalSource for RuleArrivals {
    fn next_arrival(&mut self) -> Option<Arrival> {
        if self.rng.gen_range(0..5u32) != 0 {
            self.clock += self.rng.gen_range(0.0..0.33);
        }
        let mut batch = RequestBatch::new();
        self.push_request(&mut batch);
        if self.index % 7 == 6 {
            self.push_request(&mut batch);
        }
        let key = self.index;
        self.index += 1;
        Some(Arrival {
            at: SimTime::new(self.clock),
            batch,
            holding: self.rng.gen_range(1..=8) as f64 * 0.75,
            key,
        })
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn window(&mut self, w: &WindowReport) {
        for v in [
            w.window,
            w.arrivals as u64,
            w.admitted as u64,
            w.rejected as u64,
            w.migrations as u64,
            w.running_tenants as u64,
            w.running_vms as u64,
            w.active_servers as u64,
            w.offline_servers as u64,
            w.stranded_vms as u64,
            w.denied_flows as u64,
        ] {
            self.word(v);
        }
        for x in [
            w.migration_cost,
            w.provider_cost,
            w.downtime_cost,
            w.fabric_peak_utilization,
        ] {
            self.float(x);
        }
    }

    fn report(&mut self, r: &DesReport) {
        self.word(r.windows.len() as u64);
        for w in &r.windows {
            self.window(w);
        }
        self.word(r.waiting.count as u64);
        self.float(r.waiting.total);
        self.float(r.waiting.max);
        self.float(r.end_time);
    }

    fn bytes(&mut self, text: &str) {
        self.word(text.len() as u64);
        for b in text.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn fleet(&mut self, f: &FleetExecutor) {
        assert!(f.verify().is_ok(), "{:?}", f.verify());
        self.word(f.live_vms() as u64);
        self.word(f.resident_requests() as u64);
        for j in 0..f.server_count() {
            for c in f.residual_row(ServerId(j)) {
                self.float(c);
            }
        }
    }

    fn executor(&mut self, e: &WindowExecutor) {
        self.word(u64::from(e.verify_state().is_feasible()));
        for t in e.tenants() {
            self.word(t.id.0);
            for s in &t.placement {
                self.word(s.index() as u64);
            }
        }
    }
}

fn config(latency: LatencyModel, failures: bool) -> DesConfig {
    DesConfig {
        window_length: 1.0,
        latency,
        failures: failures.then_some(FailureSpec {
            mtbf: 12.0,
            mttr: 2.0,
        }),
        seed: 11,
        solve_deadline: None,
    }
}

const PER_REQUEST: LatencyModel = LatencyModel::PerRequest {
    base: 0.05,
    per_request: 0.02,
};

fn fleet_digest(allocator: &dyn Allocator, latency: LatencyModel, failures: bool) -> u64 {
    let mut s = WindowedScheduler::with_backend(
        FleetExecutor::new(infra(5)),
        config(latency, failures),
        RuleArrivals::new(5),
    );
    let report = s.run(allocator, 40.0);
    assert!(report.total_admitted() > 0 && report.total_rejected() > 0);
    let mut d = Digest::new();
    d.report(&report);
    d.fleet(s.backend());
    d.0
}

fn executor_digest(allocator: &dyn Allocator, latency: LatencyModel, failures: bool) -> u64 {
    let mut s = WindowedScheduler::new(
        infra(4),
        SimConfig::default(),
        config(latency, failures),
        RuleArrivals::new(9),
    );
    let report = s.run(allocator, 25.0);
    assert!(report.total_admitted() > 0 && report.total_rejected() > 0);
    let mut d = Digest::new();
    d.report(&report);
    d.executor(s.executor());
    d.0
}

#[test]
fn fleet_round_robin_with_failures_is_pinned() {
    let got = fleet_digest(&RoundRobinAllocator, LatencyModel::Fixed(0.0), true);
    assert_eq!(got, 0xd7da_aec9_1005_db42, "got {got:#018x}");
}

#[test]
fn fleet_filtering_with_latency_feedback_is_pinned() {
    let got = fleet_digest(&FilteringAllocator, PER_REQUEST, false);
    assert_eq!(got, 0x2ccb_c080_518c_d374, "got {got:#018x}");
}

#[test]
fn executor_round_robin_with_failures_is_pinned() {
    let got = executor_digest(&RoundRobinAllocator, LatencyModel::Fixed(0.0), true);
    assert_eq!(got, 0x9167_fe13_a2dd_b9bf, "got {got:#018x}");
}

#[test]
fn executor_filtering_with_latency_feedback_is_pinned() {
    let got = executor_digest(&FilteringAllocator, PER_REQUEST, false);
    assert_eq!(got, 0x2cd1_4141_44d0_c107, "got {got:#018x}");
}

#[test]
fn sharded_fleet_is_pinned() {
    let backend = ShardedScheduler::new(
        FleetExecutor::new(infra(5)),
        ShardConfig {
            shards: 2,
            ..ShardConfig::default()
        },
    );
    let mut s = WindowedScheduler::with_backend(
        backend,
        config(LatencyModel::Fixed(0.0), false),
        RuleArrivals::new(5),
    );
    let report = s.run(&FilteringAllocator, 40.0);
    let mut d = Digest::new();
    d.report(&report);
    d.fleet(s.backend().backend());
    let got = d.0;
    assert_eq!(got, 0x3261_c29b_1a7a_b42b, "got {got:#018x}");
}

/// One datacenter of `servers` commodity servers for the fixed-step
/// loop.
fn fixed_infra(servers: usize) -> Infrastructure {
    Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    )
}

/// The fixed-step loop over `windows` windows of `vms` generated VMs
/// each: every per-window report and the whole event log as JSON lines.
fn fixed_step_digest(
    allocator: &dyn Allocator,
    seed: u64,
    vms: usize,
    failure_prob: f64,
    windows: u64,
) -> u64 {
    let config = SimConfig {
        arrivals: RequestSpec {
            total_vms: vms,
            ..Default::default()
        },
        lifetime: (2, 5),
        seed,
        server_failure_prob: failure_prob,
        repair_windows: 2,
    };
    let mut exec = WindowExecutor::new(fixed_infra(vms), config);
    let report: SimReport = exec.run(allocator, windows);
    assert_eq!(report.windows.len() as u64, windows);
    assert_eq!(failure_prob > 0.0, exec.log().failure_count() > 0);
    let mut d = Digest::new();
    d.word(report.windows.len() as u64);
    for w in &report.windows {
        d.window(w);
    }
    d.bytes(&exec.log().to_json_lines());
    d.0
}

#[test]
fn fixed_step_round_robin_is_pinned() {
    let got: Vec<u64> = [1u64, 7, 42]
        .iter()
        .map(|&seed| fixed_step_digest(&RoundRobinAllocator, seed, 8, 0.0, 8))
        .collect();
    assert_eq!(
        got,
        [
            0xfc9b_af5f_c503_653f,
            0xc4ab_9a1d_2ef2_ffe0,
            0xf167_465a_a795_6238
        ],
        "got {got:#018x?}"
    );
}

#[test]
fn fixed_step_cp_under_failures_is_pinned() {
    let got = fixed_step_digest(&CpAllocator::default(), 13, 6, 0.6, 6);
    assert_eq!(got, 0xadd5_4d25_cb9b_3bbd, "got {got:#018x}");
}

/// The batch merge `append` replaced: clone every spec and push each
/// request again with its rules rebased onto the new VM ids.
fn clone_merge(parts: &[RequestBatch]) -> RequestBatch {
    let mut out = RequestBatch::new();
    for part in parts {
        for req in part.requests() {
            let base = out.vm_count();
            let vms = req.vms.iter().map(|&k| part.vm(k).clone()).collect();
            let rules = rebase_rules(req)
                .into_iter()
                .map(|(kind, locals)| {
                    AffinityRule::new(kind, locals.iter().map(|&l| VmId(base + l)).collect())
                })
                .collect();
            out.push_request(vms, rules);
        }
    }
    out
}

fn assert_batches_equal(a: &RequestBatch, b: &RequestBatch) {
    assert_eq!(a.vms(), b.vms(), "specs");
    assert_eq!(a.requests(), b.requests(), "ids, VM lists and rules");
    assert_eq!(a.vm_count(), b.vm_count());
    for k in a.vm_ids() {
        assert_eq!(a.request_of(k), b.request_of(k), "request_of({k:?})");
    }
}

#[test]
fn append_equals_the_clone_merge() {
    let mut source = RuleArrivals::new(3);
    // Every seventh arrival carries two requests, so these 40 cover
    // single- and multi-request batches with rules of every kind.
    let parts: Vec<RequestBatch> = (0..40)
        .map(|_| source.next_arrival().unwrap().batch)
        .collect();
    assert!(parts.iter().any(|p| p.request_count() == 2));
    assert!(parts
        .iter()
        .any(|p| p.requests().iter().any(|r| !r.rules.is_empty())));
    let mut appended = RequestBatch::new();
    for part in parts.clone() {
        appended.append(part);
    }
    assert_batches_equal(&appended, &clone_merge(&parts));
}

#[test]
fn append_offsets_a_multi_request_batch_behind_existing_requests() {
    let mut head = RequestBatch::new();
    head.push_request(vec![vm_spec(1.0, 1024.0, 10.0); 2], vec![]);
    let mut tail = RequestBatch::new();
    tail.push_request(vec![vm_spec(2.0, 2048.0, 20.0)], vec![]);
    tail.push_request(
        vec![vm_spec(3.0, 3072.0, 30.0); 3],
        vec![AffinityRule::new(
            AffinityKind::DifferentServer,
            vec![VmId(3), VmId(1)],
        )],
    );
    let expected = clone_merge(&[head.clone(), tail.clone()]);
    head.append(tail);
    assert_batches_equal(&head, &expected);
    assert_eq!(
        head.request(RequestId(2)).vms,
        vec![VmId(3), VmId(4), VmId(5)]
    );
    assert_eq!(
        head.request(RequestId(2)).rules[0].vms(),
        &[VmId(5), VmId(3)]
    );
    assert_eq!(head.request_of(VmId(2)), RequestId(1));
    // Appending onto an empty batch is a plain move.
    let mut empty = RequestBatch::new();
    empty.append(head.clone());
    assert_batches_equal(&empty, &head);
}

#[test]
fn sub_capacity_is_bit_identical_to_adjusting_by_the_negated_demand() {
    let mut rng = SmallRng::seed_from_u64(17);
    let mut subtracted = infra(3);
    let mut adjusted = infra(3);
    for step in 0..2000 {
        let j = ServerId(rng.gen_range(0..6));
        let demand: Vec<f64> = (0..3)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 => rng.gen_range(0.0..1.0),
                _ => rng.gen_range(0.0..4096.0),
            })
            .collect();
        if step % 3 == 2 {
            // Give capacity back now and then, so rows do not all sit at
            // the zero clamp.
            subtracted.adjust_capacity(j, &demand);
            adjusted.adjust_capacity(j, &demand);
        } else {
            subtracted.sub_capacity(j, &demand);
            let negated: Vec<f64> = demand.iter().map(|d| -d).collect();
            adjusted.adjust_capacity(j, &negated);
        }
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&subtracted.server(j).capacity),
            bits(&adjusted.server(j).capacity),
            "raw capacity at step {step}"
        );
        assert_eq!(
            bits(subtracted.effective_row(j)),
            bits(adjusted.effective_row(j)),
            "effective row at step {step}"
        );
    }
}
