//! The mono-objective alternative the paper discusses and sets aside:
//! "We have considered using a classical mono-objective genetic algorithm
//! because it is easier to apply a weighting coefficient on the
//! objectives" (Section III). Provided as a comparator for the ablation
//! benches: the same engine, genome and repair, but a single weighted
//! objective instead of the three-dimensional Pareto search.

use crate::allocator::{reject_unaccepted, AllocationOutcome, Allocator};
use crate::encoding::GenomeCodec;
use cpo_model::eval_pool::EvaluatorPool;
use cpo_model::prelude::*;
use cpo_moea::prelude::{run, Evaluation, MoeaProblem, NsgaConfig, Repair, Variant};
use cpo_tabu::repair::{repair as tabu_repair, RepairConfig, ScanOrder};
use std::time::Instant;

/// The allocation problem scalarised to one objective. Genome scoring
/// reuses a pooled [`EvaluatorPool`], as in
/// [`AllocMoeaProblem`](crate::moea_problem::AllocMoeaProblem).
struct WeightedProblem<'a> {
    problem: &'a AllocationProblem,
    codec: GenomeCodec,
    weights: [f64; 3],
    pool: EvaluatorPool<'a>,
}

impl MoeaProblem for WeightedProblem<'_> {
    fn n_vars(&self) -> usize {
        self.problem.n()
    }
    fn n_objectives(&self) -> usize {
        1
    }
    fn bounds(&self, _i: usize) -> (f64, f64) {
        self.codec.bounds()
    }
    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let a = self.codec.decode(genes);
        let score = self.pool.score(a);
        Evaluation {
            objectives: vec![score.objectives.weighted(self.weights)],
            violation: score.violation,
        }
    }
    fn name(&self) -> &str {
        "iaas-allocation-weighted"
    }
}

/// Single-objective GA with tabu repair: the weighted-sum baseline.
#[derive(Clone, Debug)]
pub struct WeightedGaAllocator {
    /// Engine configuration (single-objective NSGA-II degenerates to an
    /// elitist GA; crowding keeps diversity).
    pub config: NsgaConfig,
    /// Objective weights for (usage+opex, downtime, migration).
    pub weights: [f64; 3],
    /// Repair configuration.
    pub repair: RepairConfig,
}

impl WeightedGaAllocator {
    /// Equal weights (the paper's default stance) at the given config.
    pub fn equal_weights(config: NsgaConfig) -> Self {
        Self {
            config: NsgaConfig {
                variant: Variant::Nsga2,
                repair_mode: cpo_moea::prelude::RepairMode::Both,
                ..config
            },
            weights: [1.0, 1.0, 1.0],
            repair: RepairConfig {
                scan: ScanOrder::BestCost,
                ..RepairConfig::default()
            },
        }
    }

    /// Custom weights.
    pub fn with_weights(mut self, weights: [f64; 3]) -> Self {
        self.weights = weights;
        self
    }
}

impl Allocator for WeightedGaAllocator {
    fn name(&self) -> &'static str {
        "weighted-ga"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let codec = GenomeCodec::new(problem.m(), problem.n());
        let adapter = WeightedProblem {
            problem,
            codec,
            weights: self.weights,
            pool: EvaluatorPool::new(problem),
        };

        let repair_cfg = self.repair;
        let fixer = move |genes: &mut [f64]| -> bool {
            let mut a = codec.decode(genes);
            let outcome = tabu_repair(problem, &mut a, &repair_cfg);
            if outcome.moves > 0 {
                genes.copy_from_slice(&codec.encode(&a));
                true
            } else {
                false
            }
        };
        let repair: &dyn Repair = &fixer;
        let result = run(&adapter, &self.config, Some(repair));

        // Single objective: the best individual is simply the feasible
        // minimum; admission control as in the hybrids.
        let best = result
            .population
            .iter()
            .min_by(|a, b| {
                (a.violation, a.objectives[0])
                    .partial_cmp(&(b.violation, b.objectives[0]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("population non-empty");
        let mut assignment = codec.decode(&best.genes);
        let _ = tabu_repair(problem, &mut assignment, &self.repair);
        let rejected = reject_unaccepted(problem, &mut assignment);
        let outcome = AllocationOutcome::from_assignment(
            problem,
            assignment,
            rejected,
            start.elapsed(),
            result.evaluations,
        );
        crate::allocator::observe_outcome(&mut sp, self.name(), &outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn quick() -> NsgaConfig {
        NsgaConfig {
            population_size: 24,
            max_evaluations: 1_000,
            parallel_eval: false,
            ..NsgaConfig::paper_defaults(Variant::Nsga2)
        }
    }

    fn problem() -> AllocationProblem {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
        );
        let mut batch = RequestBatch::new();
        for _ in 0..4 {
            batch.push_request(vec![vm_spec(4.0, 4096.0, 40.0); 2], vec![]);
        }
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn weighted_ga_is_clean_and_serves_easy_load() {
        let p = problem();
        let out = WeightedGaAllocator::equal_weights(quick()).allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
        assert!(out.evaluations >= 1_000);
    }

    #[test]
    fn weights_steer_the_search() {
        // A problem with a previous allocation: migration-averse weights
        // must produce fewer moves than migration-indifferent ones.
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
        );
        let mut batch = RequestBatch::new();
        for _ in 0..8 {
            batch.push_request(vec![vm_spec(2.0, 2048.0, 20.0)], vec![]);
        }
        // Previous: spread one per server (round-robin-ish), feasible.
        let mut prev = Assignment::unassigned(8);
        for k in 0..8 {
            prev.assign(VmId(k), ServerId(k % 4));
        }
        let p = AllocationProblem::new(infra, batch, Some(prev.clone()));
        let averse = WeightedGaAllocator::equal_weights(quick())
            .with_weights([1.0, 1.0, 1_000.0])
            .allocate(&p);
        let indifferent = WeightedGaAllocator::equal_weights(quick())
            .with_weights([1.0, 1.0, 0.0])
            .allocate(&p);
        let moves_averse = averse.assignment.migrations_from(&prev).len();
        let moves_indiff = indifferent.assignment.migrations_from(&prev).len();
        assert!(
            moves_averse <= moves_indiff,
            "migration-averse weights must move no more ({moves_averse} vs {moves_indiff})"
        );
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(
            WeightedGaAllocator::equal_weights(quick()).name(),
            "weighted-ga"
        );
    }
}
