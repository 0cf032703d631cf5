//! Ablation — parallel vs sequential population evaluation.
//!
//! The engine evaluates each generation's offspring on scoped threads,
//! one contiguous run of the population per thread; this bench measures the speed-up on the
//! allocation problem at two sizes. Determinism is unaffected (verified
//! in the engine's tests): parallelism only reorders the evaluations.

use cpo_bench::bench_problem;
use cpo_core::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel_eval");
    group.sample_size(10);
    for servers in [25usize, 100] {
        let problem = bench_problem(servers, false, 42);
        for (name, parallel) in [("sequential", false), ("parallel", true)] {
            group.bench_with_input(BenchmarkId::new(name, servers), &problem, |b, p| {
                b.iter(|| {
                    let config = NsgaConfig {
                        population_size: 40,
                        max_evaluations: 1_000,
                        parallel_eval: parallel,
                        ..NsgaConfig::paper_defaults(Variant::Nsga3)
                    };
                    let alloc = EvoAllocator::nsga3(config);
                    black_box(alloc.allocate(p).evaluations)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
