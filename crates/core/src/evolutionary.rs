//! The four evolutionary allocators of the paper's evaluation:
//!
//! * unmodified **NSGA-II** and **NSGA-III** — fast, but their best
//!   individuals routinely violate constraints (Fig. 10);
//! * **NSGA-III + constraint solver** — faulty genes fixed by a CP solve
//!   over the offending VMs;
//! * **NSGA-III + tabu search** — the paper's contribution (Figs. 3–6):
//!   faulty individuals repaired by the tabu relocation procedure inside
//!   the reproduction loop.
//!
//! Final solution selection follows the paper: the population member
//! closest (Euclidean) to the ideal point. Hybrids then perform admission
//! control: any request the repaired solution still cannot serve validly
//! is explicitly rejected (VMs unassigned) so the hybrid, like CP and
//! Round Robin, never emits an invalid placement.

use crate::allocator::{reject_unaccepted, AllocationOutcome, Allocator};
use crate::cp_repair::CpRepair;
use crate::moea_problem::AllocMoeaProblem;
use cpo_model::prelude::*;
use cpo_moea::prelude::{run, NsgaConfig, Repair, RepairMode, Variant};
use cpo_tabu::repair::{repair as tabu_repair, RepairConfig};
use std::time::Instant;

/// The hybridisation wired into the engine's repair hook.
#[derive(Clone, Debug)]
pub enum Hybrid {
    /// No repair: unmodified NSGA.
    None,
    /// Tabu-search repair (the paper's proposal).
    Tabu(RepairConfig),
    /// Constraint-solver repair.
    Cp(CpRepair),
}

/// An evolutionary allocator: NSGA-II/III, optionally hybridised.
#[derive(Clone, Debug)]
pub struct EvoAllocator {
    name: &'static str,
    /// Engine configuration (Table III defaults unless overridden).
    pub config: NsgaConfig,
    /// The repair hybridisation.
    pub hybrid: Hybrid,
    /// Whether to perform final admission control (hybrids only).
    pub finalize_rejections: bool,
}

impl EvoAllocator {
    /// Unmodified NSGA-II.
    pub fn nsga2(config: NsgaConfig) -> Self {
        let config = NsgaConfig {
            variant: Variant::Nsga2,
            repair_mode: RepairMode::Off,
            ..config
        };
        Self {
            name: "nsga2",
            config,
            hybrid: Hybrid::None,
            finalize_rejections: false,
        }
    }

    /// Unmodified NSGA-III.
    pub fn nsga3(config: NsgaConfig) -> Self {
        let config = NsgaConfig {
            variant: Variant::Nsga3,
            repair_mode: RepairMode::Off,
            ..config
        };
        Self {
            name: "nsga3",
            config,
            hybrid: Hybrid::None,
            finalize_rejections: false,
        }
    }

    /// NSGA-III with the constraint-solver repair.
    pub fn nsga3_cp(config: NsgaConfig) -> Self {
        let config = NsgaConfig {
            variant: Variant::Nsga3,
            repair_mode: RepairMode::Both,
            ..config
        };
        Self {
            name: "nsga3-cp",
            config,
            hybrid: Hybrid::Cp(CpRepair::default()),
            finalize_rejections: true,
        }
    }

    /// NSGA-III with the tabu-search repair — the paper's contribution.
    pub fn nsga3_tabu(config: NsgaConfig) -> Self {
        let config = NsgaConfig {
            variant: Variant::Nsga3,
            repair_mode: RepairMode::Both,
            ..config
        };
        Self {
            name: "nsga3-tabu",
            config,
            hybrid: Hybrid::Tabu(RepairConfig {
                // Cost-ordered scanning packs cheap servers first, which
                // both consolidates (Fig. 11) and leaves contiguous room
                // for large co-location groups (Fig. 9).
                scan: cpo_tabu::repair::ScanOrder::BestCost,
                ..RepairConfig::default()
            }),
            finalize_rejections: true,
        }
    }

    /// Paper-default constructors, seeded.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }
}

/// Iterated repair + admission: repair the individual, reject what is
/// still invalid, then let the repair try once more to place the evicted
/// requests against the freed capacity. Converges in a few rounds because
/// every round only re-attempts requests that were previously rejected.
fn admit(
    problem: &AllocationProblem,
    assignment: &mut Assignment,
    hybrid: &Hybrid,
) -> Vec<RequestId> {
    let repair_once = |a: &mut Assignment| match hybrid {
        Hybrid::Tabu(cfg) => {
            let _ = tabu_repair(problem, a, cfg);
        }
        Hybrid::Cp(cp) => {
            let _ = cp.repair(problem, a);
        }
        Hybrid::None => {}
    };
    repair_once(assignment);
    let mut rejected = reject_unaccepted(problem, assignment);
    for _ in 0..3 {
        if rejected.is_empty() {
            break;
        }
        repair_once(assignment); // tries to place the unassigned VMs
        let next = reject_unaccepted(problem, assignment);
        if next.len() >= rejected.len() {
            rejected = next;
            break;
        }
        rejected = next;
    }
    rejected
}

impl Allocator for EvoAllocator {
    fn name(&self) -> &'static str {
        self.name
    }

    fn allocate(&self, problem: &AllocationProblem) -> AllocationOutcome {
        let mut sp = cpo_obs::span!("allocator.allocate", algo = self.name());
        let start = Instant::now();
        let adapter = AllocMoeaProblem::new(problem);
        let codec = adapter.codec();

        // Build the repair closure for the engine's hook (Fig. 4).
        let tabu_closure;
        let cp_closure;
        let repair: Option<&dyn Repair> = match &self.hybrid {
            Hybrid::None => None,
            Hybrid::Tabu(cfg) => {
                let cfg = *cfg;
                tabu_closure = move |genes: &mut [f64]| -> bool {
                    let mut a = codec.decode(genes);
                    let outcome = tabu_repair(problem, &mut a, &cfg);
                    if outcome.moves > 0 {
                        genes.copy_from_slice(&codec.encode(&a));
                        true
                    } else {
                        false
                    }
                };
                Some(&tabu_closure)
            }
            Hybrid::Cp(cp) => {
                let cp = cp.clone();
                cp_closure = move |genes: &mut [f64]| -> bool {
                    let mut a = codec.decode(genes);
                    if cp.repair(problem, &mut a) {
                        genes.copy_from_slice(&codec.encode(&a));
                        true
                    } else {
                        false
                    }
                };
                Some(&cp_closure)
            }
        };

        // Warm start: seed the running allocation X^t (if any) so the
        // search explores around the incumbent and the Eq. 26 migration
        // term can actually be minimised rather than paid wholesale.
        let mut config = self.config.clone();
        if let Some(previous) = problem.previous() {
            config.seeds.push(codec.encode(previous));
        }
        let result = run(&adapter, &config, repair);

        let (assignment, rejected) = if self.finalize_rejections {
            // The paper's decision rule targets "the ideal point where
            // cost and rejection rate are the next to naught" and the
            // hybrid "is designed to generate the largest revenues" —
            // acceptance leads. Run every final individual through
            // iterated repair + admission control and keep the one with
            // the fewest rejections, breaking ties by cost (the Euclidean
            // pick degenerates to this lexicographic order because
            // rejecting a request *lowers* cost, which would otherwise
            // reward rejection — the distortion the paper calls out for CP).
            let mut candidates: Vec<(Assignment, Vec<RequestId>, f64, f64)> = result
                .population
                .iter()
                .map(|ind| {
                    let mut a = codec.decode(&ind.genes);
                    let rejected = admit(problem, &mut a, &self.hybrid);
                    let rejection = problem.rejection_rate(&a);
                    let cost = problem.evaluate(&a).total();
                    (a, rejected, rejection, cost)
                })
                .collect();
            let best = candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.2.partial_cmp(&b.2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.3.partial_cmp(&b.3).unwrap_or(std::cmp::Ordering::Equal))
                })
                .map(|(i, _)| i)
                .expect("population is never empty");
            let (a, rejected, _, _) = candidates.swap_remove(best);
            (a, rejected)
        } else {
            let best = result
                .closest_to_ideal()
                .expect("population is never empty");
            (codec.decode(&best.genes), Vec::new())
        };

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
    use cpo_moea::prelude::NsgaConfig;

    fn quick_config() -> NsgaConfig {
        NsgaConfig {
            population_size: 24,
            max_evaluations: 1_200,
            parallel_eval: false,
            ..NsgaConfig::paper_defaults(Variant::Nsga3)
        }
    }

    fn problem(servers: usize, vms: usize, rules: bool) -> AllocationProblem {
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![
                (
                    "dc0".into(),
                    ServerProfile::commodity(3).build_many(servers / 2),
                ),
                (
                    "dc1".into(),
                    ServerProfile::commodity(3).build_many(servers - servers / 2),
                ),
            ],
        );
        let mut batch = RequestBatch::new();
        let mut k = 0;
        while k < vms {
            let group = (vms - k).min(2);
            let specs = vec![vm_spec(2.0, 2048.0, 20.0); group];
            let rule = if rules && group == 2 {
                vec![AffinityRule::new(
                    AffinityKind::DifferentServer,
                    vec![VmId(k), VmId(k + 1)],
                )]
            } else {
                vec![]
            };
            batch.push_request(specs, rule);
            k += group;
        }
        AllocationProblem::new(infra, batch, None)
    }

    #[test]
    fn nsga3_tabu_produces_clean_allocations() {
        let p = problem(4, 8, true);
        let out = EvoAllocator::nsga3_tabu(quick_config()).allocate(&p);
        assert!(
            out.is_clean(),
            "hybrid must not violate: {:?}",
            out.violated_constraints
        );
        assert_eq!(out.rejection_rate, 0.0, "easy problem must be fully served");
        assert!(out.evaluations >= 1_200);
    }

    #[test]
    fn nsga3_cp_produces_clean_allocations() {
        let p = problem(4, 8, true);
        let out = EvoAllocator::nsga3_cp(quick_config()).allocate(&p);
        assert!(out.is_clean());
        assert_eq!(out.rejection_rate, 0.0);
    }

    #[test]
    fn unmodified_nsga_may_violate_but_never_rejects_explicitly() {
        let p = problem(4, 16, true);
        for alloc in [
            EvoAllocator::nsga2(quick_config()),
            EvoAllocator::nsga3(quick_config()),
        ] {
            let out = alloc.allocate(&p);
            assert!(
                out.rejected.is_empty(),
                "unmodified NSGA has no admission control"
            );
            // The assignment is complete (every gene decodes to a server).
            assert!(out.assignment.is_complete());
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EvoAllocator::nsga2(quick_config()).name(), "nsga2");
        assert_eq!(EvoAllocator::nsga3(quick_config()).name(), "nsga3");
        assert_eq!(EvoAllocator::nsga3_cp(quick_config()).name(), "nsga3-cp");
        assert_eq!(
            EvoAllocator::nsga3_tabu(quick_config()).name(),
            "nsga3-tabu"
        );
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let p = problem(4, 8, false);
        let a = EvoAllocator::nsga3_tabu(quick_config())
            .with_seed(7)
            .allocate(&p);
        let b = EvoAllocator::nsga3_tabu(quick_config())
            .with_seed(7)
            .allocate(&p);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.rejection_rate, b.rejection_rate);
    }

    #[test]
    fn warm_start_reduces_migrations() {
        // A feasible incumbent placement exists; the warm-started hybrid
        // should keep most VMs where they are (low migration cost) while
        // a cold random search would shuffle nearly everything.
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(6))],
        );
        let mut batch = RequestBatch::new();
        for _ in 0..12 {
            batch.push_request(vec![vm_spec(2.0, 2048.0, 20.0)], vec![]);
        }
        let mut prev = Assignment::unassigned(12);
        for k in 0..12 {
            prev.assign(VmId(k), ServerId(k % 6));
        }
        let p = AllocationProblem::new(infra, batch, Some(prev.clone()));
        let out = EvoAllocator::nsga3_tabu(quick_config()).allocate(&p);
        assert!(out.is_clean());
        let moves = out.assignment.migrations_from(&prev).len();
        assert!(
            moves <= 6,
            "warm start should limit churn, got {moves}/12 migrations"
        );
    }

    #[test]
    fn hybrid_rejects_impossible_requests_cleanly() {
        // One request can never fit (demand beyond any server).
        let infra = Infrastructure::new(
            AttrSet::standard(),
            vec![("dc".into(), ServerProfile::commodity(3).build_many(2))],
        );
        let mut batch = RequestBatch::new();
        batch.push_request(vec![vm_spec(1.0, 512.0, 5.0)], vec![]);
        batch.push_request(vec![vm_spec(500.0, 512.0, 5.0)], vec![]);
        let p = AllocationProblem::new(infra, batch, None);
        let out = EvoAllocator::nsga3_tabu(quick_config()).allocate(&p);
        assert!(
            out.is_clean(),
            "impossible request must be rejected, not violated"
        );
        assert_eq!(out.rejection_rate, 0.5);
        assert_eq!(out.rejected, vec![RequestId(1)]);
    }
}
