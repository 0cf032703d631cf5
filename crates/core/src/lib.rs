//! # cpo-core — the six IaaS allocators
//!
//! The paper's contribution layer: a common [`allocator::Allocator`]
//! interface and every algorithm its evaluation compares —
//!
//! | name | module | paper role |
//! |---|---|---|
//! | `round-robin` | [`round_robin`] | baseline with server affinity (ref. 26) |
//! | `constraint-programming` | [`cp_alloc`] | Choco-style CP admission |
//! | `nsga2` | [`evolutionary`] | unmodified NSGA-II |
//! | `nsga3` | [`evolutionary`] | unmodified NSGA-III |
//! | `nsga3-cp` | [`evolutionary`] + [`cp_repair`] | NSGA-III with constraint solver |
//! | `nsga3-tabu` | [`evolutionary`] + `cpo-tabu` | **the proposed hybrid** |
//!
//! Two further comparators round out the paper's discussion: the Table II
//! "Filtering Algorithm" ([`filtering`], BtrPlace-style greedy best-fit
//! with exact filters) and the weighted mono-objective GA the paper
//! considers and rejects ([`weighted_ga`]).
//!
//! Anytime admission is a cross-cutting concern here: every allocator
//! can be called through
//! [`Allocator::allocate_with_deadline`](allocator::Allocator::allocate_with_deadline)
//! (solvers with a search cut it at the deadline and return their best
//! incumbent), [`allocator::DeadlineBound`] imposes a per-call budget on
//! any allocator, [`tabu_alloc`] polishes a greedy seed under the
//! deadline, and [`portfolio`] can *race* its members against it.
//!
//! ```
//! use cpo_core::prelude::*;
//! use cpo_model::prelude::*;
//! use cpo_model::attr::AttrSet;
//!
//! let infra = Infrastructure::new(
//!     AttrSet::standard(),
//!     vec![("dc".into(), ServerProfile::commodity(3).build_many(4))],
//! );
//! let mut batch = RequestBatch::new();
//! batch.push_request(
//!     vec![vm_spec(4.0, 8192.0, 100.0); 2],
//!     vec![AffinityRule::new(AffinityKind::DifferentServer, vec![VmId(0), VmId(1)])],
//! );
//! let problem = AllocationProblem::new(infra, batch, None);
//!
//! let config = NsgaConfig {
//!     population_size: 20,
//!     max_evaluations: 600,
//!     ..NsgaConfig::paper_defaults(Variant::Nsga3)
//! };
//! let outcome = EvoAllocator::nsga3_tabu(config).allocate(&problem);
//! assert!(outcome.is_clean());
//! ```

#![warn(missing_docs)]

pub mod allocator;
pub mod cp_alloc;
pub mod cp_repair;
pub mod encoding;
pub mod evolutionary;
pub mod filtering;
pub mod moea_problem;
pub mod monitor;
pub mod portfolio;
pub mod round_robin;
pub mod tabu_alloc;
pub mod weighted_ga;

/// The most-used allocator types.
pub mod prelude {
    pub use crate::allocator::{AllocationOutcome, Allocator, DeadlineBound};
    pub use crate::cp_alloc::{CpAllocator, CpMode};
    pub use crate::cp_repair::CpRepair;
    pub use crate::encoding::GenomeCodec;
    pub use crate::evolutionary::{EvoAllocator, Hybrid};
    pub use crate::filtering::FilteringAllocator;
    pub use crate::moea_problem::AllocMoeaProblem;
    pub use crate::portfolio::{PortfolioAllocator, PortfolioCriterion, PortfolioMode};
    pub use crate::round_robin::RoundRobinAllocator;
    pub use crate::tabu_alloc::TabuSearchAllocator;
    pub use crate::weighted_ga::WeightedGaAllocator;
    pub use cpo_moea::prelude::{NsgaConfig, Variant};
}
