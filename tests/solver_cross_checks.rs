//! Cross-validation of the solvers against brute force on tiny instances:
//! the CP solver must agree with exhaustive enumeration, and the platform
//! simulator must stay feasible under every allocator.

use cpo_iaas::cpsolve::prelude::*;
use cpo_iaas::model::attr::AttrSet;
use cpo_iaas::platform::prelude::*;
use cpo_iaas::prelude::*;
use cpo_iaas::scenario::request_gen::RequestSpec;

/// Exhaustively enumerate all m^n assignments of a tiny problem.
fn brute_force_feasible(problem: &AllocationProblem) -> Vec<Vec<usize>> {
    let (m, n) = (problem.m(), problem.n());
    let mut out = Vec::new();
    let total = m.pow(n as u32);
    for code in 0..total {
        let mut genes = Vec::with_capacity(n);
        let mut c = code;
        for _ in 0..n {
            genes.push(c % m);
            c /= m;
        }
        if problem.is_feasible(&Assignment::from_genes(&genes)) {
            out.push(genes);
        }
    }
    out
}

fn tiny_problem(seed: u64) -> AllocationProblem {
    let profile = ServerProfile::commodity(3);
    let infra = Infrastructure::new(
        AttrSet::standard(),
        vec![
            ("dc0".into(), profile.build_many(2)),
            ("dc1".into(), profile.build_many(1)),
        ],
    );
    let mut batch = RequestBatch::new();
    // Deterministic pseudo-random small batch with one rule.
    let kinds = [
        AffinityKind::SameServer,
        AffinityKind::SameDatacenter,
        AffinityKind::DifferentServer,
        AffinityKind::DifferentDatacenter,
    ];
    let kind = kinds[(seed % 4) as usize];
    let cpu = 4.0 + (seed % 3) as f64 * 6.0;
    batch.push_request(
        vec![vm_spec(cpu, 2048.0, 20.0); 2],
        vec![AffinityRule::new(kind, vec![VmId(0), VmId(1)])],
    );
    batch.push_request(vec![vm_spec(8.0, 4096.0, 40.0)], vec![]);
    AllocationProblem::new(infra, batch, None)
}

#[test]
fn cp_allocator_agrees_with_brute_force_on_feasibility() {
    for seed in 0..12 {
        let problem = tiny_problem(seed);
        let feasible = brute_force_feasible(&problem);
        let outcome = CpAllocator::default().allocate(&problem);
        if feasible.is_empty() {
            assert!(
                !outcome.rejected.is_empty(),
                "seed {seed}: brute force says infeasible, CP accepted everything"
            );
        } else {
            // CP admits per request in order; when a global solution exists
            // it must find one (requests here don't interact via rules).
            assert_eq!(
                outcome.rejected.len(),
                0,
                "seed {seed}: feasible per brute force but CP rejected {:?}",
                outcome.rejected
            );
            assert!(problem.is_feasible(&outcome.assignment), "seed {seed}");
        }
    }
}

#[test]
fn cp_optimize_matches_brute_force_minimum_cost() {
    // Pure packing (no rules): B&B over marginal cost must match the
    // exhaustive minimum of the usage+opex objective.
    let profile = ServerProfile::commodity(3);
    for seed in 0..8u64 {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), profile.build_many(3))],
        );
        let mut batch = RequestBatch::new();
        for i in 0..3 {
            let cpu = 2.0 + ((seed + i) % 5) as f64 * 2.0;
            batch.push_request(vec![vm_spec(cpu, 1024.0, 10.0)], vec![]);
        }
        let problem = AllocationProblem::new(infra, batch, None);
        let feasible = brute_force_feasible(&problem);
        let best_cost = feasible
            .iter()
            .map(|g| problem.evaluate(&Assignment::from_genes(g)).usage_opex)
            .fold(f64::INFINITY, f64::min);
        let outcome = CpAllocator::default().allocate(&problem);
        // Sequential admission cannot always reach the global optimum, but
        // on single-VM requests with identical servers it can and must.
        assert!(
            outcome.provider_cost() <= best_cost + 1e-6,
            "seed {seed}: CP cost {} vs brute-force optimum {best_cost}",
            outcome.provider_cost()
        );
    }
}

#[test]
fn csp_solver_enumeration_matches_brute_force() {
    // A raw CSP: 3 vars, 3 values, one all-different + one pack.
    for cap in [6.0, 10.0, 30.0] {
        let mut csp = Csp::new(3, 3);
        csp.add(Box::new(AllDifferent {
            vars: vec![VarId(0), VarId(1)],
        }));
        csp.add(Box::new(Pack::new(
            vec![VarId(0), VarId(1), VarId(2)],
            vec![vec![4.0], vec![5.0], vec![6.0]],
            vec![vec![cap]; 3],
        )));
        let (outcome, _) = solve(&mut csp, &SearchConfig::default());
        // Brute force.
        let mut any = false;
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    if a == b {
                        continue;
                    }
                    let mut load = [0.0; 3];
                    load[a] += 4.0;
                    load[b] += 5.0;
                    load[c] += 6.0;
                    if load.iter().all(|&l| l <= cap) {
                        any = true;
                    }
                }
            }
        }
        assert_eq!(
            outcome.solution().is_some(),
            any,
            "cap {cap}: solver and brute force disagree"
        );
    }
}

/// Enumerate all m^n complete assignments and keep those the ILP
/// formulation accepts, with their objective values.
fn ilp_enumeration(problem: &AllocationProblem) -> Vec<(Vec<usize>, f64)> {
    let ilp = cpo_iaas::model::ilp::IlpFormulation::from_problem(problem);
    let (m, n) = (problem.m(), problem.n());
    let mut out = Vec::new();
    for code in 0..m.pow(n as u32) {
        let mut genes = Vec::with_capacity(n);
        let mut c = code;
        for _ in 0..n {
            genes.push(c % m);
            c /= m;
        }
        let solution = ilp.solution_of(&Assignment::from_genes(&genes));
        if ilp.is_feasible(&solution) {
            let cost = ilp.objective_value(&solution);
            out.push((genes, cost));
        }
    }
    out
}

#[test]
fn cp_allocator_matches_ilp_enumeration_under_both_engines() {
    // Satellite check for the engine swap: on tiny scenarios the CP
    // allocator's feasibility verdict must match exhaustive enumeration
    // through the explicit ILP formulation, and any accepted assignment
    // must itself be ILP-feasible — identically under the queued and the
    // reference engine.
    for engine in [Engine::Queued, Engine::Reference] {
        for seed in 0..12u64 {
            let problem = tiny_problem(seed);
            let feasible = ilp_enumeration(&problem);
            let allocator = CpAllocator {
                engine,
                ..CpAllocator::default()
            };
            let outcome = allocator.allocate(&problem);
            if feasible.is_empty() {
                assert!(
                    !outcome.rejected.is_empty(),
                    "seed {seed} ({engine:?}): ILP says infeasible, CP accepted everything"
                );
            } else {
                assert!(
                    outcome.rejected.is_empty(),
                    "seed {seed} ({engine:?}): ILP-feasible but CP rejected {:?}",
                    outcome.rejected
                );
                let ilp = cpo_iaas::model::ilp::IlpFormulation::from_problem(&problem);
                let solution = ilp.solution_of(&outcome.assignment);
                assert!(
                    ilp.is_feasible(&solution),
                    "seed {seed} ({engine:?}): CP answer violates the ILP rows"
                );
            }
        }
    }
}

#[test]
fn cp_optimal_cost_matches_ilp_enumeration_under_both_engines() {
    // Single-VM requests on identical servers: sequential CP admission can
    // and must reach the global ILP optimum, engine-independently.
    let profile = ServerProfile::commodity(3);
    for engine in [Engine::Queued, Engine::Reference] {
        for seed in 0..8u64 {
            let infra = Infrastructure::new(
                AttrSet::standard(),
                vec![("dc".into(), profile.build_many(3))],
            );
            let mut batch = RequestBatch::new();
            for i in 0..3 {
                let cpu = 2.0 + ((seed + i) % 5) as f64 * 2.0;
                batch.push_request(vec![vm_spec(cpu, 1024.0, 10.0)], vec![]);
            }
            let problem = AllocationProblem::new(infra, batch, None);
            let feasible = ilp_enumeration(&problem);
            let ilp_best = feasible
                .iter()
                .map(|(_, c)| *c)
                .fold(f64::INFINITY, f64::min);
            assert!(ilp_best.is_finite(), "seed {seed}: tiny instance must fit");
            let allocator = CpAllocator {
                engine,
                ..CpAllocator::default()
            };
            let outcome = allocator.allocate(&problem);
            let ilp = cpo_iaas::model::ilp::IlpFormulation::from_problem(&problem);
            let cp_cost = ilp.objective_value(&ilp.solution_of(&outcome.assignment));
            assert!(
                cp_cost <= ilp_best + 1e-6,
                "seed {seed} ({engine:?}): CP cost {cp_cost} vs ILP optimum {ilp_best}"
            );
        }
    }
}

#[test]
fn platform_stays_feasible_under_every_allocator() {
    let mk_infra = || {
        Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(6))],
        )
    };
    let config = SimConfig {
        arrivals: RequestSpec {
            total_vms: 8,
            ..Default::default()
        },
        lifetime: (2, 4),
        seed: 5,
        ..Default::default()
    };
    let allocators: Vec<Box<dyn Allocator>> = vec![
        Box::new(RoundRobinAllocator),
        Box::new(CpAllocator::default()),
        Box::new(EvoAllocator::nsga3_tabu(NsgaConfig {
            population_size: 16,
            max_evaluations: 400,
            ..NsgaConfig::paper_defaults(Variant::Nsga3)
        })),
    ];
    for allocator in &allocators {
        let mut sim = WindowExecutor::new(mk_infra(), config.clone());
        for _ in 0..5 {
            sim.step(allocator.as_ref());
            let report = sim.verify_state();
            assert!(
                report.is_feasible(),
                "platform corrupted under {}: {report:?}",
                allocator.name()
            );
        }
    }
}

#[test]
fn moea_engine_improves_over_random_on_allocation() {
    use cpo_iaas::core::prelude::AllocMoeaProblem;
    use cpo_iaas::moea::prelude::*;

    let size = ScenarioSize::with_servers(8);
    let problem = ScenarioSpec::for_size(&size).generate(13);
    let adapter = AllocMoeaProblem::new(&problem);

    let cfg = NsgaConfig {
        population_size: 24,
        max_evaluations: 1_200,
        parallel_eval: false,
        ..NsgaConfig::paper_defaults(Variant::Nsga3)
    };
    let result = run(&adapter, &cfg, None);
    let first = &result.history[0];
    let last = result.history.last().unwrap();
    let improved_feasibility = last.feasible >= first.feasible;
    let improved_cost = match (first.best_feasible_total, last.best_feasible_total) {
        (Some(a), Some(b)) => b <= a + 1e-9,
        (None, Some(_)) => true,
        _ => false,
    };
    assert!(
        improved_feasibility || improved_cost,
        "evolution made no progress: {first:?} -> {last:?}"
    );
}
