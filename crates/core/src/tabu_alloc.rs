//! An anytime allocator built from the tabu engine: greedy seed, then a
//! deadline-bounded candidate-list polish.
//!
//! The pipeline is *seed → polish → admit*:
//!
//! 1. **Seed** — [`FilteringAllocator`] places what fits greedily and
//!    cleanly rejects the rest (fast, never violating);
//! 2. **Polish** — [`tabu_search`] runs from the seed under the call's
//!    [`Deadline`] with the candidate-list neighborhood and the
//!    configured scan partitions. Unassigned VMs of rejected requests
//!    are part of the search space (an unassigned VM is a violation the
//!    search wants to erase), so the polish can *recover acceptances*
//!    the greedy pass gave up on, besides consolidating cost;
//! 3. **Admit** — requests not fully and validly served by the polished
//!    placement are evicted (their VMs unassigned) and reported as
//!    clean rejections. Because [`AllocationProblem::accepted_requests`]
//!    rejects every request touching an overloaded server, one eviction
//!    pass always yields a violation-free placement.
//!
//! Should the polish somehow end worse than its seed (a deadline can cut
//! it mid-repair), the seed outcome is returned instead — the allocator
//! is monotone in its seed by construction.

use crate::allocator::{reject_unaccepted, AllocationOutcome, Allocator};
use crate::filtering::FilteringAllocator;
use cpo_model::deadline::Deadline;
use cpo_model::prelude::*;
use cpo_tabu::search::{tabu_search, Neighborhood, TabuConfig};
use std::time::Instant;

/// Anytime tabu-search allocator (seed → polish → admit).
#[derive(Clone, Copy, Debug)]
pub struct TabuSearchAllocator {
    /// Polish configuration. The per-call deadline is composed onto
    /// `config.deadline` with [`Deadline::earliest`].
    pub config: TabuConfig,
}

impl Default for TabuSearchAllocator {
    fn default() -> Self {
        Self {
            config: TabuConfig {
                max_iterations: 400,
                neighborhood: Neighborhood::Candidates { refresh: 16 },
                ..TabuConfig::default()
            },
        }
    }
}

impl TabuSearchAllocator {
    /// The default pipeline with `threads` scan partitions.
    pub fn with_threads(threads: usize) -> Self {
        let mut a = Self::default();
        a.config.threads = threads;
        a
    }
}

impl Allocator for TabuSearchAllocator {
    fn name(&self) -> &'static str {
        "tabu-search"
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        self.allocate_with_deadline(problem, Deadline::never())
    }

    fn allocate_with_deadline(
        &self,
        problem: &AllocationProblem,
        deadline: Deadline,
    ) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let seed = FilteringAllocator.allocate(problem);

        let mut cfg = self.config;
        cfg.deadline = cfg.deadline.earliest(deadline);
        let result = tabu_search(problem, seed.assignment.clone(), &cfg);
        let evaluations = result.delta_evals + result.full_evals;

        // Admission control: evict whatever the polish left partially or
        // invalidly placed; what survives is violation-free.
        let mut polished = result.best;
        let rejected = reject_unaccepted(problem, &mut polished);
        let polished = AllocationOutcome::from_assignment(
            problem,
            polished,
            rejected,
            start.elapsed(),
            evaluations,
        );

        // Monotone in the seed: keep the polish only when it serves at
        // least as many requests at no higher cost (or strictly more).
        let mut outcome = if polished.accepted_requests > seed.accepted_requests
            || (polished.accepted_requests == seed.accepted_requests
                && polished.provider_cost() <= seed.provider_cost())
        {
            polished
        } else {
            let mut seed = seed;
            seed.evaluations = evaluations;
            seed
        };
        outcome.elapsed = start.elapsed();
        crate::allocator::observe_outcome(&mut sp, self.name(), &outcome);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpo_model::attr::AttrSet;
    use std::time::Duration;

    fn problem(servers: usize, vms: usize) -> AllocationProblem {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(servers))],
        );
        let mut batch = RequestBatch::new();
        for _ in 0..vms {
            batch.push_request(vec![vm_spec(2.0, 2048.0, 20.0)], vec![]);
        }
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn outcome_is_clean_and_never_below_the_seed() {
        let p = problem(4, 8);
        let seed = FilteringAllocator.allocate(&p);
        let out = TabuSearchAllocator::default().allocate(&p);
        assert!(out.is_clean());
        assert!(out.accepted_requests >= seed.accepted_requests);
        assert!(
            out.accepted_requests > seed.accepted_requests
                || out.provider_cost() <= seed.provider_cost() + 1e-9
        );
    }

    #[test]
    fn expired_deadline_still_returns_the_seed_quality() {
        let p = problem(4, 8);
        let seed = FilteringAllocator.allocate(&p);
        let out = TabuSearchAllocator::default()
            .allocate_with_deadline(&p, Deadline::within(Duration::ZERO));
        assert!(out.is_clean());
        assert_eq!(out.accepted_requests, seed.accepted_requests);
    }

    #[test]
    fn parallel_polish_matches_serial_outcome() {
        let p = problem(5, 10);
        let serial = TabuSearchAllocator::default().allocate(&p);
        let par = TabuSearchAllocator::with_threads(4).allocate(&p);
        assert_eq!(serial.assignment, par.assignment);
        assert_eq!(serial.rejected, par.rejected);
        assert_eq!(
            serial.provider_cost().to_bits(),
            par.provider_cost().to_bits()
        );
    }
}
