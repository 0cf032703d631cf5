//! Micro-benchmarks of the platform simulator: window stepping under the
//! cheap allocators at two platform sizes, and the snapshot/accounting
//! path.

use cpo_core::prelude::{CpAllocator, RoundRobinAllocator};
use cpo_model::attr::AttrSet;
use cpo_model::prelude::{Infrastructure, ServerProfile};
use cpo_platform::prelude::{SimConfig, WindowExecutor};
use cpo_scenario::request_gen::RequestSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn sim(servers: usize, vms_per_window: usize) -> WindowExecutor {
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
    );
    WindowExecutor::new(
        infra,
        SimConfig {
            arrivals: RequestSpec {
                total_vms: vms_per_window,
                ..Default::default()
            },
            lifetime: (3, 6),
            seed: 9,
            ..Default::default()
        },
    )
}

fn micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_platform");
    group.sample_size(10);
    for (servers, vms) in [(16usize, 12usize), (64, 48)] {
        group.bench_with_input(
            BenchmarkId::new("step_round_robin", servers),
            &(servers, vms),
            |b, &(s, v)| {
                b.iter(|| {
                    let mut sim = sim(s, v);
                    for _ in 0..5 {
                        black_box(sim.step(&RoundRobinAllocator).admitted);
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("step_cp", servers),
            &(servers, vms),
            |b, &(s, v)| {
                b.iter(|| {
                    let mut sim = sim(s, v);
                    for _ in 0..5 {
                        black_box(sim.step(&CpAllocator::default()).admitted);
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("snapshot_verify", servers),
            &(servers, vms),
            |b, &(s, v)| {
                let mut warm = sim(s, v);
                for _ in 0..5 {
                    warm.step(&RoundRobinAllocator);
                }
                b.iter(|| black_box(warm.verify_state().count()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
