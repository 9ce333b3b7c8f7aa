//! Device-level failure probability `pF(W)` — Eq. (2.2), Fig 2.1.

use crate::corner::ProcessCorner;
use crate::{CoreError, Result};
use cnt_growth::growth::{paper, ZHANG09A_PITCH_COV};
use cnt_stats::renewal::{CountDistribution, CountModel, RenewalCount};
use cnt_stats::TruncatedGaussian;

/// One point of a `pF` vs `W` sweep (a Fig 2.1 sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePoint {
    /// Gate width (nm).
    pub width: f64,
    /// CNFET count-failure probability.
    pub p_failure: f64,
}

/// The device failure model: pitch statistics × processing corner.
///
/// `pF(W) = Σ_n pf^n · Prob{N(W) = n}` with `N(W)` the renewal CNT count.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    pitch: TruncatedGaussian,
    corner: ProcessCorner,
    backend: CountModel,
}

impl FailureModel {
    /// Build from explicit pitch statistics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for non-positive pitch
    /// parameters (via the truncated-Gaussian constructor).
    pub fn new(mean_pitch: f64, pitch_cov: f64, corner: ProcessCorner) -> Result<Self> {
        if !(pitch_cov.is_finite() && pitch_cov > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "pitch_cov",
                value: pitch_cov,
                constraint: "must be finite and > 0",
            });
        }
        let pitch = TruncatedGaussian::positive_with_moments(mean_pitch, pitch_cov * mean_pitch)?;
        Ok(Self {
            pitch,
            corner,
            backend: CountModel::Convolution { step: 0.05 },
        })
    }

    /// The paper's configuration: `S = 4 nm`, calibrated σ_S/S, given
    /// corner, exact convolution back-end.
    ///
    /// # Errors
    ///
    /// Never fails in practice; mirrors [`FailureModel::new`].
    pub fn paper_default(corner: ProcessCorner) -> Result<Self> {
        Self::new(paper::MEAN_PITCH_NM, ZHANG09A_PITCH_COV, corner)
    }

    /// Switch the numerical back-end (builder style). The default exact
    /// convolution is right for anchors and tables; [`CountModel::GaussianSum`]
    /// is ~100× faster for dense sweeps at <2× tail error.
    pub fn with_backend(mut self, backend: CountModel) -> Self {
        self.backend = backend;
        self
    }

    /// The pitch distribution.
    pub fn pitch(&self) -> &TruncatedGaussian {
        &self.pitch
    }

    /// The processing corner.
    pub fn corner(&self) -> ProcessCorner {
        self.corner
    }

    /// Per-CNT failure probability `pf` (Eq. 2.1).
    pub fn pf(&self) -> f64 {
        self.corner.pf()
    }

    /// The renewal counting process this model is built on.
    pub fn renewal(&self) -> RenewalCount {
        RenewalCount::new(self.pitch, self.backend)
    }

    /// CNT count distribution under a gate of width `w`. On the default
    /// convolution back-end, a gate no wider than the widest one already
    /// asked for is read from the shared count plan in microseconds (see
    /// [`RenewalCount::distribution`]).
    ///
    /// # Errors
    ///
    /// Propagates renewal-model errors (invalid width).
    pub fn count_distribution(&self, w: f64) -> Result<CountDistribution> {
        Ok(self.renewal().distribution(w)?)
    }

    /// Device failure probability `pF(w)` — Eq. (2.2).
    ///
    /// # Errors
    ///
    /// Propagates renewal-model errors (invalid width).
    pub fn p_failure(&self, w: f64) -> Result<f64> {
        Ok(self.renewal().failure_probability(w, self.pf())?)
    }

    /// Batch `pF` at many widths — element-wise bit-identical to
    /// [`FailureModel::p_failure`] per width, but with one renewal process
    /// (and, for the convolution back-end, one cached sweep plan) serving
    /// the whole batch.
    ///
    /// # Errors
    ///
    /// Per-element errors of [`FailureModel::p_failure`]; the first failing
    /// width aborts the batch.
    pub fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        Ok(self.renewal().failure_probabilities(widths, self.pf())?)
    }

    /// Sweep `pF` over widths (one Fig 2.1 curve).
    ///
    /// # Errors
    ///
    /// Propagates [`FailureModel::p_failure`] errors.
    pub fn sweep(&self, widths: &[f64]) -> Result<Vec<FailurePoint>> {
        Ok(self
            .p_failures(widths)?
            .into_iter()
            .zip(widths)
            .map(|(p_failure, &width)| FailurePoint { width, p_failure })
            .collect())
    }

    /// Mean CNT count under a gate of width `w` (≈ `w / S̄`) — the `N̄`
    /// of the shorts-mode fault solve, which asks for it at every step of
    /// its width fixed point. The first moment of
    /// [`FailureModel::count_distribution`], so it costs what that does.
    ///
    /// # Errors
    ///
    /// Propagates renewal-model errors.
    pub fn mean_count(&self, w: f64) -> Result<f64> {
        Ok(self.count_distribution(w)?.mean())
    }

    /// Inverse query: the width at which `pF` equals `target` (bisection
    /// over the monotone `pF(W)` curve).
    ///
    /// # Errors
    ///
    /// [`CoreError::NoConvergence`] if the target is outside the model's
    /// reachable range within `[w_lo, w_hi]`.
    pub fn width_for_failure(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        crate::curve::width_for_failure(self, target, w_lo, w_hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FailureModel {
        FailureModel::paper_default(ProcessCorner::aggressive().unwrap()).unwrap()
    }

    #[test]
    fn pf_matches_corner() {
        let m = model();
        assert!((m.pf() - 0.531).abs() < 1e-12);
    }

    #[test]
    fn p_failure_monotone_decreasing() {
        let m = model();
        let pts = m.sweep(&[20.0, 60.0, 100.0, 140.0, 180.0]).unwrap();
        for pair in pts.windows(2) {
            assert!(
                pair[1].p_failure < pair[0].p_failure,
                "pF must fall with W: {pair:?}"
            );
        }
    }

    #[test]
    fn fig21_anchor_103nm() {
        // Paper Fig 2.1: pF(103 nm) ≈ 1.1e-6 after the 350× relaxation.
        let m = model();
        let p = m.p_failure(103.0).unwrap();
        assert!(
            (5e-7..3e-6).contains(&p),
            "pF(103) = {p:.3e}, paper ≈ 1.1e-6"
        );
    }

    #[test]
    fn fig21_anchor_155nm_order_of_magnitude() {
        // Paper Fig 2.1: pF(155 nm) ≈ 3e-9; the model reproduces the order
        // of magnitude (see calibration.rs for the W_min-level agreement).
        let m = model();
        let p = m.p_failure(155.0).unwrap();
        assert!(
            (5e-10..1e-8).contains(&p),
            "pF(155) = {p:.3e}, paper ≈ 3e-9"
        );
    }

    #[test]
    fn corners_order_as_in_fig21() {
        // At fixed W: aggressive > ideal removal > all semiconducting.
        let w = 60.0;
        let agg = model().p_failure(w).unwrap();
        let ideal = FailureModel::paper_default(ProcessCorner::ideal_removal().unwrap())
            .unwrap()
            .p_failure(w)
            .unwrap();
        let semi = FailureModel::paper_default(ProcessCorner::all_semiconducting().unwrap())
            .unwrap()
            .p_failure(w)
            .unwrap();
        assert!(agg > ideal && ideal > semi, "{agg} > {ideal} > {semi}");
        // pm = 0, pRs = 0 → only the zero-count event fails the device.
        let p_empty = model().count_distribution(w).unwrap().p_empty();
        assert!((semi - p_empty).abs() < 1e-12);
    }

    #[test]
    fn width_inversion_roundtrip() {
        let m = model();
        let w = m.width_for_failure(1e-6, 20.0, 200.0).unwrap();
        let p = m.p_failure(w).unwrap();
        assert!(
            (p.log10() - (-6.0)).abs() < 0.05,
            "inverted width {w} gives {p:.3e}"
        );
        // A target already met at the bracket's low edge is not a solver
        // failure: the minimal width is the low edge itself (heavily
        // relaxed redundancy/correlation targets land here).
        assert_eq!(m.width_for_failure(0.9999, 100.0, 200.0).unwrap(), 100.0);
        // A target tighter than the high edge can deliver remains a
        // genuine bracketing error.
        assert!(m.width_for_failure(1e-300, 100.0, 200.0).is_err());
    }

    #[test]
    fn backend_switch_is_consistent() {
        let exact = model();
        let fast = model().with_backend(CountModel::GaussianSum);
        let (pe, pf_) = (
            exact.p_failure(100.0).unwrap(),
            fast.p_failure(100.0).unwrap(),
        );
        let ratio = pe / pf_;
        assert!((0.3..3.0).contains(&ratio), "backends diverged: {ratio}");
    }

    #[test]
    fn mean_count_tracks_width() {
        let m = model();
        let c100 = m.mean_count(100.0).unwrap();
        assert!((c100 - 25.0).abs() < 1.5, "mean count {c100}");
    }
}
