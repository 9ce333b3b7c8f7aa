//! # cnt-stats
//!
//! Statistics substrate for carbon-nanotube (CNT) and CNFET yield modeling.
//!
//! This crate provides the probabilistic machinery that the rest of the
//! `cnfet` workspace is built on:
//!
//! * [`special`] — special functions (`erf`, normal CDF/quantile) implemented
//!   from scratch so the workspace has no numerical dependencies.
//! * [`dist`] — continuous and discrete distributions with analytic moments
//!   and reproducible sampling (notably [`dist::TruncatedGaussian`], the
//!   inter-CNT pitch model of \[Zhang 09a\]).
//! * [`renewal`] — the renewal counting process `N(W)`: the (random) number
//!   of CNTs that fall under a CNFET gate of width `W`. Its probability
//!   generating function evaluated at the per-CNT failure probability `pf`
//!   *is* Eq. (2.2) of the paper.
//! * [`histogram`], [`describe`], [`ci`], [`correlation`] — data summaries
//!   used by the Monte-Carlo engine and the experiment harness.
//! * [`seed`] — the workspace's one deterministic seed-splitting rule
//!   (`split_seed`), shared by every parallel/streamed layer.
//! * [`fasthash`] — a deterministic multiply–rotate hasher for the hot
//!   memo maps (curve knots, Monte-Carlo points, convolution plans).
//! * [`distspec`] — declarative, seedable stochastic knobs:
//!   [`distspec::DistSpec`] (tagged distribution specs) and
//!   [`distspec::FieldSpec`] (wafer-scale random fields with a radial
//!   trend and spatially correlated noise), realized per die exactly or
//!   through a certified tabulated enclosure ([`distspec::FieldGrid`]).
//!
//! ## Example
//!
//! Computing the distribution of the number of CNTs under a 155 nm gate with
//! 4 nm mean pitch:
//!
//! ```
//! use cnt_stats::dist::TruncatedGaussian;
//! use cnt_stats::renewal::{CountModel, RenewalCount};
//!
//! # fn main() -> Result<(), cnt_stats::StatsError> {
//! let pitch = TruncatedGaussian::positive_with_moments(4.0, 0.82 * 4.0)?;
//! let counts = RenewalCount::new(pitch, CountModel::GaussianSum).distribution(155.0)?;
//! assert!((counts.mean() - 155.0 / 4.0).abs() < 2.0);
//! // Probability that *every* CNT fails when each fails with p = 0.531:
//! let p_all_fail = counts.pgf(0.531);
//! assert!(p_all_fail < 1e-6);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod ci;
pub mod correlation;
pub mod describe;
pub mod dist;
pub mod distspec;
pub mod fasthash;
pub mod fit;
pub mod histogram;
pub mod renewal;
pub mod seed;
pub mod special;

use std::error::Error;
use std::fmt;

/// Error type for every fallible operation in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable constraint, e.g. `"must be > 0"`.
        constraint: &'static str,
    },
    /// An input data set was empty where at least one element is required.
    EmptyData(&'static str),
    /// Inputs that must agree in length did not.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A numerical routine failed to converge.
    NoConvergence(&'static str),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid parameter `{name}` = {value}: {constraint}"),
            StatsError::EmptyData(what) => write!(f, "empty data: {what}"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            StatsError::NoConvergence(what) => write!(f, "no convergence in {what}"),
        }
    }
}

impl Error for StatsError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;

pub use describe::Summary;
pub use dist::{
    Bernoulli, ContinuousDist, DiscreteDist, Exponential, Gaussian, LogNormal, TruncatedGaussian,
    Uniform,
};
pub use distspec::{grid_coordinate, DistSpec, FieldGrid, FieldSampler, FieldSpec};
pub use fasthash::{FastBuild, FastMap};
pub use histogram::Histogram;
pub use renewal::{CountDistribution, CountModel, FailureSampler, RenewalCount};
pub use seed::{split_seed, splitmix64};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::InvalidParameter {
            name: "sigma",
            value: -1.0,
            constraint: "must be > 0",
        };
        assert!(e.to_string().contains("sigma"));
        assert!(e.to_string().contains("-1"));
        let e = StatsError::LengthMismatch { left: 3, right: 5 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
