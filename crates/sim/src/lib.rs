//! # cnfet-sim
//!
//! Monte-Carlo engine for CNFET yield: conditional (Rao-Blackwellised)
//! estimators, an exact run-DP row-failure evaluator, and the workspace's
//! deterministic parallel executor ([`engine::ordered`]).
//!
//! ## Why conditional Monte Carlo
//!
//! The probabilities of interest sit at 1e-6 … 1e-9 (paper Table 1). Naive
//! MC would need ≳1e11 trials. Instead, every estimator here *integrates
//! out the per-CNT failure coin flips analytically*:
//!
//! * for a single CNFET, conditioned on its CNT count `n`, the failure
//!   probability is exactly `pf^n` ([`condmc::estimate_fet_failure`]);
//! * for a whole row of CNFETs sharing directional CNTs, conditioned on
//!   the CNT track positions, the row failure probability is computed
//!   **exactly** by a linear-time dynamic program over failure runs
//!   ([`rundp::row_failure_probability`]).
//!
//! Only the CNT geometry (a few hundred track positions) is sampled, so a
//! few thousand trials give percent-level accuracy at any probability
//! scale — this is what makes the paper's Table 1 reproducible on a laptop.
//!
//! ## Example
//!
//! ```
//! use cnfet_sim::rundp::row_failure_probability;
//!
//! // Three tracks; two FETs: one covers tracks 0..=1, one covers track 2.
//! // Row fails if (t0 and t1 fail) or (t2 fails).
//! let p = row_failure_probability(3, &[(0, 1), (2, 2)], 0.5).unwrap();
//! assert!((p - (0.25 + 0.5 - 0.125)).abs() < 1e-12);
//! ```

pub mod adaptive;
pub mod condmc;
pub mod engine;
pub mod rundp;

use std::error::Error;
use std::fmt;

/// Error type for simulation operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// An interval refers to tracks outside the row.
    BadInterval {
        /// Interval start (track index).
        lo: usize,
        /// Interval end (track index, inclusive).
        hi: usize,
        /// Number of tracks in the row.
        n_tracks: usize,
    },
    /// Underlying statistics error.
    Stats(cnt_stats::StatsError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter `{name}` = {value}: {constraint}"),
            SimError::BadInterval { lo, hi, n_tracks } => {
                write!(f, "interval [{lo}, {hi}] outside 0..{n_tracks}")
            }
            SimError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cnt_stats::StatsError> for SimError {
    fn from(e: cnt_stats::StatsError) -> Self {
        SimError::Stats(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SimError>;

pub use adaptive::{run_adaptive, run_adaptive_affine, McOutcome, McPrecision};
pub use condmc::{
    estimate_fet_failure, estimate_fet_failure_adaptive, estimate_row_failure, RowScenario,
};
pub use engine::ordered;
pub use rundp::{row_failure_probability, row_failure_probability_weighted};
