//! Adaptive-precision Monte-Carlo driver: batched trial chunks fanned
//! across scoped threads, streaming [`Summary`] merging, and a stopping
//! rule on the confidence interval's relative half-width.
//!
//! ## Determinism contract
//!
//! Trials are organized into fixed-size **batches**; batch `k` always runs
//! on an RNG seeded with [`split_seed`]`(seed, k)`, batches are merged in
//! index order, and the stopping rule is evaluated after *every* committed
//! batch — exactly as a serial run would. Batches run on the
//! [`ordered`] executor, whose threads only run ahead speculatively
//! (batches past the stopping point are discarded), so the outcome is
//! **bit-identical for any worker count**, which is what lets the scenario
//! pipeline treat a Monte-Carlo back-end like an analytic one.

use crate::engine::{ordered, split_seed};
use crate::{Result, SimError};
use cnt_stats::ci::{mean_ci, ConfidenceInterval};
use cnt_stats::Summary;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Precision target of an adaptive Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McPrecision {
    /// Stop once the confidence interval's relative half-width falls to
    /// this target (e.g. `0.05` = ±5 %).
    pub rel_ci: f64,
    /// Hard cap on the total number of trials.
    pub max_trials: u64,
    /// Trials per batch (the seeding/commit granularity).
    pub batch: u32,
    /// Confidence level of the interval, e.g. `0.95`.
    pub level: f64,
}

impl Default for McPrecision {
    /// ±5 % at 95 % confidence, batches of 2000, at most 2 M trials.
    fn default() -> Self {
        Self {
            rel_ci: 0.05,
            max_trials: 2_000_000,
            batch: 2_000,
            level: 0.95,
        }
    }
}

impl McPrecision {
    /// Validate the precision parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if !(self.rel_ci.is_finite() && self.rel_ci > 0.0) {
            return Err(SimError::InvalidParameter {
                name: "rel_ci",
                value: self.rel_ci,
                constraint: "must be finite and > 0",
            });
        }
        if self.batch < 2 {
            return Err(SimError::InvalidParameter {
                name: "batch",
                value: f64::from(self.batch),
                constraint: "must be >= 2 (a CI needs two observations)",
            });
        }
        if self.max_trials < u64::from(self.batch) {
            return Err(SimError::InvalidParameter {
                name: "max_trials",
                value: self.max_trials as f64,
                constraint: "must be >= batch",
            });
        }
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(SimError::InvalidParameter {
                name: "level",
                value: self.level,
                constraint: "must be in (0, 1)",
            });
        }
        Ok(())
    }
}

/// Result of an adaptive Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct McOutcome {
    /// Confidence interval on the (affine-transformed) mean, clamped to
    /// `[0, 1]` — every estimand in this workspace is a probability.
    pub ci: ConfidenceInterval,
    /// Trials actually consumed (committed batches × batch size).
    pub trials: u64,
    /// Committed batches.
    pub batches: u32,
    /// Whether the precision target was met (vs. hitting `max_trials`).
    pub converged: bool,
    /// Merged per-trial summary (of the raw `job` samples, pre-transform).
    pub summary: Summary,
}

/// Absolute half-width floor: an interval this narrow is converged no
/// matter what the relative target says. Protects effectively-zero
/// estimands (e.g. `pf = 0` corners, where every sample is exactly 0 and
/// the relative half-width would be 0/0).
const ABS_HALF_WIDTH_FLOOR: f64 = 1e-12;

/// Run `job` in adaptive batches until the confidence interval of
/// `offset + scale·mean(job)` is tighter than `precision.rel_ci` (relative)
/// or `precision.max_trials` is reached.
///
/// The affine transform supports stratified estimators: an exactly-known
/// stratum contributes `offset`, the sampled stratum is scaled by its
/// weight, and the CI shrinks accordingly — see
/// `cnt_stats::renewal::FailureSampler`.
///
/// `job` must be a pure function of its RNG; see the module docs for the
/// worker-independence contract.
///
/// # Errors
///
/// Propagates precision-validation and CI errors.
pub fn run_adaptive_affine<F>(
    precision: &McPrecision,
    workers: usize,
    seed: u64,
    offset: f64,
    scale: f64,
    job: F,
) -> Result<McOutcome>
where
    F: Fn(&mut StdRng) -> f64 + Sync,
{
    run_adaptive_affine_fill(precision, workers, seed, offset, scale, |rng, out| {
        for v in out.iter_mut() {
            *v = job(rng);
        }
    })
}

/// Batch-fill variant of [`run_adaptive_affine`]: instead of one `job`
/// callback per trial, `fill` receives the batch's RNG and a sample buffer
/// of `precision.batch` slots to fill in order, so the hot loop does no
/// per-trial calls through a function-pointer boundary.
///
/// The determinism contract is unchanged and the outcome is bit-identical
/// to [`run_adaptive_affine`] with the equivalent scalar `job`: batch `k`
/// still runs on `split_seed(seed, k)`, `fill` must consume the RNG stream
/// exactly as the scalar loop would, per-batch summaries accumulate the
/// buffer in index order, and commits/stopping are evaluated identically.
/// A run spawns at most `workers − 1` threads, once.
///
/// # Errors
///
/// Propagates precision-validation and CI errors.
pub fn run_adaptive_affine_fill<F>(
    precision: &McPrecision,
    workers: usize,
    seed: u64,
    offset: f64,
    scale: f64,
    fill: F,
) -> Result<McOutcome>
where
    F: Fn(&mut StdRng, &mut [f64]) + Sync,
{
    precision.validate()?;
    if !(offset.is_finite() && scale.is_finite() && scale >= 0.0) {
        return Err(SimError::InvalidParameter {
            name: "offset/scale",
            value: offset,
            constraint: "must be finite with scale >= 0",
        });
    }
    let workers = workers.max(1);
    let batch = precision.batch;
    // Clamp instead of `as u32` so an enormous max_trials saturates the
    // batch budget rather than wrapping (2^33 trials / batch 2 would
    // truncate to *zero* batches).
    let max_batches = precision
        .max_trials
        .div_ceil(u64::from(batch))
        .min(u64::from(u32::MAX)) as u32;

    let run_batch = |index: u32| -> Summary {
        let mut rng = StdRng::seed_from_u64(split_seed(seed, u64::from(index)));
        let mut buf = vec![0.0_f64; batch as usize];
        fill(&mut rng, &mut buf);
        let mut acc = Summary::new();
        for &v in &buf {
            acc.add(v);
        }
        acc
    };

    let affine_ci = |merged: &Summary| -> Result<ConfidenceInterval> {
        let ci = mean_ci(merged, precision.level)?;
        Ok(ConfidenceInterval {
            estimate: (offset + scale * ci.estimate).clamp(0.0, 1.0),
            lo: (offset + scale * ci.lo).clamp(0.0, 1.0),
            hi: (offset + scale * ci.hi).clamp(0.0, 1.0),
            level: ci.level,
        })
    };

    // Commit in index order, checking the stopping rule after every batch:
    // the same decision sequence for any worker count. Most runs stop
    // within a few batches of equal cost, so claims stay within one batch
    // per extra thread of the commit point, and a stop drops at most that.
    let mut merged = Summary::new();
    let mut committed = 0u32;
    let mut converged = false;
    let mut failure = None;
    ordered(0..max_batches, workers, workers - 1, run_batch, |s| {
        merged.merge(&s);
        committed += 1;
        match affine_ci(&merged) {
            Ok(ci) => {
                converged = ci.half_width() <= ABS_HALF_WIDTH_FLOOR
                    || ci.relative_half_width() <= precision.rel_ci;
                !converged
            }
            Err(e) => {
                failure = Some(e);
                false
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }

    let ci = affine_ci(&merged)?;
    Ok(McOutcome {
        ci,
        trials: merged.count(),
        batches: committed,
        converged,
        summary: merged,
    })
}

/// [`run_adaptive_affine`] with the identity transform: the estimand is
/// the plain mean of `job`.
///
/// # Errors
///
/// Same as [`run_adaptive_affine`].
pub fn run_adaptive<F>(
    precision: &McPrecision,
    workers: usize,
    seed: u64,
    job: F,
) -> Result<McOutcome>
where
    F: Fn(&mut StdRng) -> f64 + Sync,
{
    run_adaptive_affine(precision, workers, seed, 0.0, 1.0, job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn precision(rel_ci: f64) -> McPrecision {
        McPrecision {
            rel_ci,
            max_trials: 100_000,
            batch: 500,
            level: 0.95,
        }
    }

    #[test]
    fn stops_when_the_target_is_met() {
        // Mean of U(0,1): ±2 % needs ~ (1.96·0.577/0.02)² ≈ 3200 trials.
        let out = run_adaptive(&precision(0.02), 4, 7, |rng| rng.gen::<f64>()).unwrap();
        assert!(out.converged);
        assert!(out.trials < 100_000, "converged early, used {}", out.trials);
        assert!(out.ci.relative_half_width() <= 0.02);
        assert!(out.ci.contains(0.5), "ci {} must cover 0.5", out.ci);
        assert_eq!(out.trials, u64::from(out.batches) * 500);
    }

    #[test]
    fn caps_at_max_trials_without_converging() {
        // A wildly heavy-tailed estimand cannot reach ±0.01 % in 10k trials.
        let p = McPrecision {
            rel_ci: 1e-4,
            max_trials: 10_000,
            batch: 1_000,
            level: 0.95,
        };
        let out = run_adaptive(&p, 3, 1, |rng| rng.gen::<f64>().powi(8)).unwrap();
        assert!(!out.converged);
        assert_eq!(out.trials, 10_000);
    }

    #[test]
    fn degenerate_zero_variance_converges_immediately() {
        let out = run_adaptive_affine(&precision(0.05), 4, 3, 1e-11, 1.0, |_| 0.0).unwrap();
        assert!(out.converged);
        assert_eq!(out.batches, 1, "first batch must suffice");
        assert_eq!(out.ci.estimate, 1e-11);
        assert_eq!(out.ci.half_width(), 0.0);
    }

    #[test]
    fn affine_transform_scales_the_interval() {
        // Shifting the estimand up makes the *relative* target easier, so
        // the affine run may stop sooner; its interval must nevertheless be
        // the exact affine image of its own merged summary.
        let shifted =
            run_adaptive_affine(&precision(0.04), 2, 9, 0.25, 0.5, |rng| rng.gen::<f64>()).unwrap();
        assert!(shifted.converged);
        let mean = shifted.summary.mean();
        assert!((shifted.ci.estimate - (0.25 + 0.5 * mean)).abs() < 1e-12);
        let half = shifted.ci.half_width();
        assert!(half > 0.0);
        assert!((shifted.ci.hi - shifted.ci.estimate - half).abs() < 1e-12);
        assert!(shifted.ci.relative_half_width() <= 0.04);
    }

    #[test]
    fn huge_max_trials_saturates_instead_of_truncating() {
        // 2^33 trials at batch 2 used to truncate to zero batches via
        // `as u32`; it must instead run (and here converge immediately).
        let p = McPrecision {
            rel_ci: 0.9,
            max_trials: 1 << 33,
            batch: 2,
            level: 0.95,
        };
        let out = run_adaptive(&p, 1, 3, |rng| 0.5 + 0.01 * rng.gen::<f64>()).unwrap();
        assert!(out.converged);
        assert!(out.batches >= 1);
    }

    #[test]
    fn fill_variant_is_bit_identical_to_scalar_for_any_worker_count() {
        // Heavy-tailed estimand so convergence takes several waves and the
        // commit/stop sequence is actually exercised.
        let p = McPrecision {
            rel_ci: 0.05,
            max_trials: 200_000,
            batch: 500,
            level: 0.95,
        };
        let reference =
            run_adaptive_affine(&p, 1, 13, 1e-9, 0.7, |rng| rng.gen::<f64>().powi(4)).unwrap();
        for workers in [1usize, 2, 4, 7] {
            let scalar =
                run_adaptive_affine(&p, workers, 13, 1e-9, 0.7, |rng| rng.gen::<f64>().powi(4))
                    .unwrap();
            let filled = run_adaptive_affine_fill(&p, workers, 13, 1e-9, 0.7, |rng, out| {
                for v in out.iter_mut() {
                    *v = rng.gen::<f64>().powi(4);
                }
            })
            .unwrap();
            assert_eq!(scalar, reference, "scalar path, workers={workers}");
            assert_eq!(filled, reference, "fill path, workers={workers}");
        }
    }

    #[test]
    fn validation_rejects_bad_precision() {
        let bad_rel = McPrecision {
            rel_ci: 0.0,
            ..McPrecision::default()
        };
        assert!(run_adaptive(&bad_rel, 1, 0, |_| 0.0).is_err());
        let bad_batch = McPrecision {
            batch: 1,
            ..McPrecision::default()
        };
        assert!(bad_batch.validate().is_err());
        let bad_cap = McPrecision {
            max_trials: 10,
            ..McPrecision::default()
        };
        assert!(bad_cap.validate().is_err());
        let bad_level = McPrecision {
            level: 1.0,
            ..McPrecision::default()
        };
        assert!(bad_level.validate().is_err());
    }
}
