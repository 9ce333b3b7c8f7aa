//! # cnfet-opt
//!
//! The process–design co-optimization engine — the search loop the paper's
//! Sec 3.2 heuristic gestures at and Hills et al. (*"Rapid Co-optimization
//! of Processing and Circuit Design to Overcome Carbon Nanotube
//! Variations"*) builds an entire flow around. Where the rest of the
//! workspace *evaluates* fixed scenarios, this crate *searches* the joint
//! processing/circuit space:
//!
//! * a declarative problem ([`cnfet_pipeline::CoOptSpec`]): a base
//!   scenario, ordered search axes over any scenario field (correlation
//!   length, processing corner, node, grid policy, …), a scalarized
//!   circuit-cost objective ([`cnfet_core::objective::CostWeights`]), and
//!   a strategy selection;
//! * a pluggable [`Searcher`] trait with four shipped strategies —
//!   [`GridScan`] (exhaustive, exact Pareto front), [`CoordinateDescent`]
//!   (seeded descent with restarts, evaluating a fraction of the space),
//!   [`GeneticSearcher`] (seeded population with tournament selection,
//!   crossover, mutation, and elitism), and [`HalvingLadder`]
//!   (successive halving of Monte-Carlo precision around any inner
//!   strategy — explore coarse, promote the top `1/eta`, confirm the
//!   survivors at the spec's own precision);
//! * candidate batches fanned through the shared-cache
//!   [`cnfet_pipeline::YieldService`], so warm `pF(W)` curves, mapped
//!   designs, and the worker-count byte-determinism contract all carry
//!   over from the sweep machinery;
//! * a [`cnfet_pipeline::ParetoFront`] artifact trading **process
//!   demand** (how far along each axis a candidate reaches) against
//!   **circuit cost** (`W_min`, upsizing penalty, failure-budget margin),
//!   with dominated-point pruning.
//!
//! Determinism contract: a co-optimization run is a pure function of
//! `(spec, seed)`. Search decisions are sequential and seeded, candidate
//! batches are evaluated through index-ordered streaming sweeps, and
//! repeated evaluations are memoized — so the emitted
//! [`cnfet_pipeline::CoOptReport`] is byte-identical for any worker
//! count.
//!
//! ## Example
//!
//! ```
//! use cnfet_opt::run_co_opt;
//! use cnfet_pipeline::{CoOptSpec, YieldService};
//!
//! # fn main() -> cnfet_pipeline::Result<()> {
//! let spec = CoOptSpec::parse(r#"{
//!     "name": "corr-vs-width",
//!     "base": { "backend": "gaussian-sum", "rho": "paper", "fast_design": true,
//!               "correlation": "growth+aligned-layout" },
//!     "search": { "l_cnt_um": [50, 100, 200] },
//!     "searcher": "grid"
//! }"#)?;
//! let report = run_co_opt(&YieldService::new(), &spec, 7, 2)?;
//! // Longer CNT correlation relaxes the requirement: W_min falls.
//! let front = report.front.points();
//! assert!(front.last().unwrap().w_min_nm < front[0].w_min_nm);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod searcher;
pub mod service;

pub use engine::{run_co_opt, run_with_searcher, Candidate, SearchContext};
pub use searcher::{
    searcher_for, CoordinateDescent, GeneticSearcher, GridScan, HalvingLadder, Searcher,
};
pub use service::OptService;
