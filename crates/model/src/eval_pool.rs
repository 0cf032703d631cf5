//! A shared pool of reusable [`DeltaEvaluator`]s for parallel scoring.
//!
//! Extracted from the two identical inline pools in the MOEA and
//! weighted-GA adapters (`cpo-core`) after a concurrency audit of the
//! sharded-scheduler work. The audit question was whether a pool's
//! `Mutex` is ever held across a solve or a score — which would
//! serialise evaluation threads and, worse, would deadlock if a scoring
//! path ever re-entered the pool. The answer is no, and this type makes
//! the discipline structural:
//!
//! * [`EvaluatorPool::score`] takes the lock **twice, briefly**: once to
//!   pop an evaluator (or miss and build a fresh one), once to push it
//!   back. The actual `reset` + `score` — the expensive part, touching
//!   the tracker matrix and penalty caches — runs on an **owned**
//!   evaluator with no lock held.
//! * The pool therefore grows to at most the number of concurrent
//!   workers, and a worker can never block another for longer than a
//!   `Vec::pop`/`Vec::push`.
//!
//! The sharded scheduler (`cpo_platform::shard`) and the parallel tabu
//! scan (`cpo_tabu::parallel`) deliberately do *not* use this type:
//! their workers are long-lived and each owns a private
//! `DeltaEvaluator` outright, so they share nothing. Pools are for the
//! intra-solve hot loop, where evaluations are short and churn is high.
//!
//! A `Mutex` (not a thread-local) because the evaluators borrow the
//! problem for `'a` and `thread_local!` requires `'static`.

use crate::assignment::Assignment;
use crate::delta::{DeltaEvaluator, MoveScore};
use crate::problem::AllocationProblem;
use std::sync::Mutex;

/// Reusable [`DeltaEvaluator`]s for one [`AllocationProblem`], popped
/// per evaluation. See the module docs for the locking discipline.
pub struct EvaluatorPool<'a> {
    problem: &'a AllocationProblem,
    pool: Mutex<Vec<DeltaEvaluator<'a>>>,
}

impl<'a> EvaluatorPool<'a> {
    /// An empty pool over `problem`. Evaluators are built lazily on
    /// first miss, so an unused pool allocates nothing.
    pub fn new(problem: &'a AllocationProblem) -> Self {
        Self {
            problem,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The problem every pooled evaluator scores against.
    pub fn problem(&self) -> &'a AllocationProblem {
        self.problem
    }

    /// Draws an evaluator holding `assignment`: pop (brief lock) then
    /// reset — or a fresh build on a miss — with no lock held during
    /// either. The caller owns the evaluator until
    /// [`checkin`](Self::checkin).
    fn checkout(&self, assignment: Assignment) -> DeltaEvaluator<'a> {
        let pooled = self.pool.lock().expect("evaluator pool poisoned").pop();
        match pooled {
            Some(mut ev) => {
                ev.reset(assignment);
                ev
            }
            None => DeltaEvaluator::new(self.problem, assignment),
        }
    }

    /// Returns an evaluator to the pool (brief lock). Its state is kept
    /// as-is; the next checkout resets it.
    fn checkin(&self, ev: DeltaEvaluator<'a>) {
        self.pool.lock().expect("evaluator pool poisoned").push(ev);
    }

    /// Scores `assignment` on a pooled evaluator: pop (brief lock),
    /// reset + score (no lock), push back (brief lock). Bit-identical
    /// to a fresh `DeltaEvaluator::new(..).score()` — `reset` rebuilds
    /// every derived buffer from the new assignment.
    pub fn score(&self, assignment: Assignment) -> MoveScore {
        let ev = self.checkout(assignment);
        let score = ev.score();
        self.checkin(ev);
        score
    }

    /// Evaluators currently parked in the pool (none are checked out
    /// while this can be observed without a race, so this is primarily
    /// a post-run diagnostic: it bounds the peak worker concurrency).
    pub fn idle(&self) -> usize {
        self.pool.lock().expect("evaluator pool poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::prelude::*;

    fn problem() -> AllocationProblem {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(3))],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(2.0, 4096.0, 40.0); 2], vec![]);
        batch.push_request(vec![vm_spec(1.0, 2048.0, 20.0)], vec![]);
        AllocationProblem::new(infra, batch, None)
    }

    fn spread(problem: &AllocationProblem) -> Assignment {
        let mut a = Assignment::unassigned(problem.n());
        for k in 0..problem.n() {
            a.assign(VmId(k), ServerId(k % problem.m()));
        }
        a
    }

    #[test]
    fn pooled_score_matches_fresh_evaluator() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let direct = DeltaEvaluator::new(&p, spread(&p)).score();
        let pooled_cold = pool.score(spread(&p));
        let pooled_warm = pool.score(spread(&p)); // exercises reset()
        assert_eq!(
            direct.total_cost().to_bits(),
            pooled_cold.total_cost().to_bits()
        );
        assert_eq!(
            direct.total_cost().to_bits(),
            pooled_warm.total_cost().to_bits()
        );
        assert_eq!(direct.violation, pooled_warm.violation);
    }

    #[test]
    fn sequential_use_parks_exactly_one_evaluator() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        for _ in 0..8 {
            pool.score(spread(&p));
        }
        assert_eq!(pool.idle(), 1, "no concurrency ⇒ no pool growth");
    }

    #[test]
    fn checkout_holds_an_evaluator_across_uses() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let mut ev = pool.checkout(spread(&p));
        let direct = DeltaEvaluator::new(&p, spread(&p)).score();
        assert_eq!(
            ev.score().total_cost().to_bits(),
            direct.total_cost().to_bits()
        );
        ev.apply(VmId(0), ServerId(2));
        pool.checkin(ev);
        assert_eq!(pool.idle(), 1);
        // The next checkout resets whatever state the worker left behind.
        let ev2 = pool.checkout(spread(&p));
        assert_eq!(
            ev2.score().total_cost().to_bits(),
            direct.total_cost().to_bits()
        );
        pool.checkin(ev2);
    }

    #[test]
    fn concurrent_use_grows_to_at_most_worker_count() {
        let p = problem();
        let pool = EvaluatorPool::new(&p);
        let threads = 4;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..32 {
                        pool.score(spread(&p));
                    }
                });
            }
        });
        let idle = pool.idle();
        assert!(
            idle >= 1 && idle <= threads,
            "pool size {idle} out of range"
        );
    }
}
