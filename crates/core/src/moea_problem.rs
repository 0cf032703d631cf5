//! Adapter exposing an [`AllocationProblem`] to the MOEA engine: genes are
//! server ids (real-coded), objectives are the three Eq. 15 terms, and the
//! constraint-violation degree feeds constraint-domination.
//!
//! Genome evaluation reuses pooled [`DeltaEvaluator`]s: each evaluation
//! thread pops one from the pool, `reset`s it onto the decoded assignment
//! (every buffer — tracker matrix, per-server occupancy lists, penalty
//! caches — is reused, no per-genome allocation of derived state), scores,
//! and returns it. Scores are bit-identical to the old per-genome
//! `check`/`evaluate` pair, pinned by `evaluation_matches_direct_model_calls`.

use crate::encoding::GenomeCodec;
use cpo_model::eval_pool::EvaluatorPool;
use cpo_model::prelude::*;
use cpo_moea::prelude::{Evaluation, MoeaProblem};

/// The allocation problem in MOEA clothing.
pub struct AllocMoeaProblem<'a> {
    problem: &'a AllocationProblem,
    codec: GenomeCodec,
    /// Shared evaluator pool — brief pop/push locks only, never held
    /// across a score (see [`EvaluatorPool`]).
    pool: EvaluatorPool<'a>,
}

impl<'a> AllocMoeaProblem<'a> {
    /// Wraps a problem.
    pub fn new(problem: &'a AllocationProblem) -> Self {
        let codec = GenomeCodec::new(problem.m(), problem.n());
        Self {
            problem,
            codec,
            pool: EvaluatorPool::new(problem),
        }
    }

    /// The genome codec in use.
    pub fn codec(&self) -> GenomeCodec {
        self.codec
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &AllocationProblem {
        self.problem
    }

    /// Scores an assignment on a pooled evaluator.
    fn pooled_score(&self, assignment: Assignment) -> cpo_model::delta::MoveScore {
        self.pool.score(assignment)
    }
}

impl MoeaProblem for AllocMoeaProblem<'_> {
    fn n_vars(&self) -> usize {
        self.problem.n()
    }

    fn n_objectives(&self) -> usize {
        3
    }

    fn bounds(&self, _i: usize) -> (f64, f64) {
        self.codec.bounds()
    }

    fn evaluate(&self, genes: &[f64]) -> Evaluation {
        let assignment = self.codec.decode(genes);
        let score = self.pooled_score(assignment);
        Evaluation {
            objectives: score.objectives.as_array().to_vec(),
            violation: score.violation,
        }
    }

    fn name(&self) -> &str {
        "iaas-allocation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;

    fn problem() -> AllocationProblem {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(3))],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(
            vec![vm_spec(2.0, 1024.0, 10.0), vm_spec(2.0, 1024.0, 10.0)],
            vec![AffinityRule::new(
                AffinityKind::DifferentServer,
                vec![VmId(0), VmId(1)],
            )],
        );
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn dimensions_match_problem() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        assert_eq!(adapter.n_vars(), 2);
        assert_eq!(adapter.n_objectives(), 3);
        assert_eq!(adapter.bounds(0), (0.0, 3.0));
    }

    #[test]
    fn feasible_genome_has_zero_violation() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        // VMs on different servers: feasible.
        let e = adapter.evaluate(&[0.5, 1.5]);
        assert_eq!(e.violation, 0.0);
        assert_eq!(e.objectives.len(), 3);
        assert!(e.objectives[0] > 0.0, "usage+opex is positive");
    }

    #[test]
    fn rule_breaking_genome_is_penalised() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        // Both VMs on server 1: breaks the different-server rule.
        let e = adapter.evaluate(&[1.5, 1.5]);
        assert!(e.violation > 0.0);
    }

    #[test]
    fn evaluation_matches_direct_model_calls() {
        let p = problem();
        let adapter = AllocMoeaProblem::new(&p);
        let genes = [0.5, 2.5];
        let e = adapter.evaluate(&genes);
        let a = adapter.codec().decode(&genes);
        let direct = p.evaluate(&a);
        assert_eq!(e.objectives, direct.as_array().to_vec());
    }
}
