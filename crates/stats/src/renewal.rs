//! Renewal counting process for CNT counts under a gate: `N(W)`.
//!
//! \[Zhang 09a\] models the positions of CNTs along the direction
//! perpendicular to growth as a renewal process: successive inter-CNT
//! pitches are i.i.d. draws from a (truncated Gaussian) pitch distribution
//! with mean `S` and standard deviation `σ_S`. The number of CNTs `N(W)`
//! inside an active region of width `W` is the renewal *count* of that
//! process, and the CNFET count-failure probability of the paper's Eq. (2.2)
//! is its probability generating function (PGF) evaluated at the per-CNT
//! failure probability:
//!
//! ```text
//! pF(W) = Σ_n pf^n · Prob{N(W) = n} = E[pf^N] = PGF_N(W)(pf)
//! ```
//!
//! Three evaluation back-ends are provided and cross-validated in tests:
//!
//! * [`CountModel::GaussianSum`] — CLT approximation of the n-fold pitch sum
//!   (fast, closed-form; the default for sweeps),
//! * [`CountModel::Convolution`] — numerically exact discretized convolution
//!   of the pitch density (the reference used for calibration),
//! * [`CountModel::MonteCarlo`] — simulation, used as an independent
//!   cross-check of both. Count *distributions* are empirical; the failure
//!   probability routes through [`FailureSampler`], a stratified,
//!   exponentially tilted estimator that stays accurate at the paper's
//!   1e-9 scale with thousands (not billions) of trials.

use crate::dist::{ContinuousDist, DiscreteDist, TruncatedGaussian};
use crate::fasthash::FastMap;
use crate::special::normal_cdf;
use crate::{Result, StatsError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// Where the first CNT sits relative to the lower edge of the active region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartPolicy {
    /// The lower edge coincides with a CNT; the first gap is a full pitch.
    /// This matches a process that nucleates CNTs at region boundaries.
    Ordinary,
    /// The active region is dropped at an arbitrary position on a wafer
    /// uniformly covered by CNTs, so the first gap follows the renewal
    /// *equilibrium* distribution. This is the physically correct model for
    /// placed CNFETs and the default. Its mean count is exactly `W / S̄`.
    #[default]
    Stationary,
}

/// Numerical back-end used to evaluate the count distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountModel {
    /// Central-limit approximation: the position of the n-th CNT is treated
    /// as Gaussian with the exact first two moments of the n-fold pitch sum.
    GaussianSum,
    /// Exact discretized convolution of the pitch density with grid `step`
    /// (nm). `step = 0.05` keeps the PGF accurate to better than 1 % in the
    /// 1e-9 regime while staying fast.
    Convolution {
        /// Discretization step in nanometres.
        step: f64,
    },
    /// Empirical distribution from direct simulation — an independent
    /// cross-check of the other two back-ends.
    MonteCarlo {
        /// Number of simulated active regions.
        trials: u32,
        /// RNG seed (the model is deterministic given the seed).
        seed: u64,
    },
}

impl Default for CountModel {
    fn default() -> Self {
        CountModel::Convolution { step: 0.05 }
    }
}

/// Renewal counting process for CNTs crossing an active region.
///
/// See the [module documentation](self) for the modeling background.
#[derive(Debug, Clone, PartialEq)]
pub struct RenewalCount {
    pitch: TruncatedGaussian,
    model: CountModel,
    start: StartPolicy,
}

impl RenewalCount {
    /// Create a renewal counting process from an inter-CNT pitch
    /// distribution and an evaluation back-end, with the default
    /// [`StartPolicy::Stationary`].
    pub fn new(pitch: TruncatedGaussian, model: CountModel) -> Self {
        Self {
            pitch,
            model,
            start: StartPolicy::default(),
        }
    }

    /// Select the start policy (builder style).
    pub fn with_start(mut self, start: StartPolicy) -> Self {
        self.start = start;
        self
    }

    /// The pitch distribution.
    pub fn pitch(&self) -> &TruncatedGaussian {
        &self.pitch
    }

    /// The evaluation back-end.
    pub fn model(&self) -> CountModel {
        self.model
    }

    /// The start policy.
    pub fn start(&self) -> StartPolicy {
        self.start
    }

    /// Distribution of the CNT count `N(width)`.
    ///
    /// On the [`CountModel::Convolution`] back-end the n-fold sub-densities
    /// behind the distribution do not depend on the width, so they live in
    /// a process-wide count plan per (pitch, step, start), built out to
    /// the widest gate asked for so far, at about the cost of one call of
    /// the single-shot convolution loop (50–75 ms for 172 nm on the
    /// 0.05-nm grid). A gate the plan covers then costs a few
    /// microseconds: one read per count instead of that O(W²/step²)
    /// loop. Results are bit-identical to the loop, which still answers a
    /// stationary start under a gate of ≲ 10 nm on the paper pitch and
    /// any gate whose plan would pass 2²⁰ values (about 350 nm on the
    /// 0.05-nm grid).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `width` is negative or not
    /// finite, or if a back-end parameter is invalid (e.g. non-positive
    /// convolution step).
    pub fn distribution(&self, width: f64) -> Result<CountDistribution> {
        if !(width.is_finite() && width >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "width",
                value: width,
                constraint: "must be finite and >= 0",
            });
        }
        if width == 0.0 {
            return CountDistribution::from_pmf(vec![1.0], width);
        }
        match self.model {
            CountModel::GaussianSum => self.distribution_clt(width),
            CountModel::Convolution { step } => self.distribution_conv(width, step),
            CountModel::MonteCarlo { trials, seed } => self.distribution_mc(width, trials, seed),
        }
    }

    /// Convenience: the paper's Eq. (2.2), `pF(W) = E[pf^N(W)]`.
    ///
    /// For the [`CountModel::Convolution`] back-end this does *not*
    /// materialize the count distribution: the PGF is evaluated directly by
    /// a single renewal-equation sweep over the grid
    /// (`RenewalCount::failure_probability_conv`), which is `O(W · S̄)`
    /// cells instead of `O(W² · S̄)` and is what makes bisection solvers
    /// over wide brackets (up to micrometre widths) tractable.
    ///
    /// # Errors
    ///
    /// Propagates [`RenewalCount::distribution`] errors; additionally rejects
    /// `pf` outside `[0, 1]`.
    pub fn failure_probability(&self, width: f64, pf: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&pf) {
            return Err(StatsError::InvalidParameter {
                name: "pf",
                value: pf,
                constraint: "must be in [0, 1]",
            });
        }
        match self.model {
            CountModel::Convolution { step } if width.is_finite() && width > 0.0 => {
                self.failure_probability_conv(width, pf, step)
            }
            CountModel::GaussianSum if width.is_finite() && width > 0.0 => {
                self.failure_probability_clt_memo(width, pf)
            }
            CountModel::MonteCarlo { trials, seed } if width.is_finite() && width > 0.0 => {
                if trials == 0 {
                    return Err(StatsError::InvalidParameter {
                        name: "trials",
                        value: 0.0,
                        constraint: "must be >= 1",
                    });
                }
                let sampler = self.failure_sampler(width, pf)?;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut acc = 0.0;
                for _ in 0..trials {
                    acc += sampler.sample_tail(&mut rng);
                }
                Ok(sampler.estimate_from_tail_mean(acc / f64::from(trials)))
            }
            _ => Ok(self.distribution(width)?.pgf(pf)),
        }
    }

    /// Direct PGF evaluation for the convolution back-end.
    ///
    /// Decompose Eq. (2.2) by the position of the *last* CNT inside the
    /// region:
    ///
    /// ```text
    /// pF(W) = P{first gap > W}
    ///       + Σ_x u(x) · P{pitch > W − x},
    /// u(x)  = pf·f_first(x) + pf·(u ∗ f_pitch)(x)
    /// ```
    ///
    /// where `u(x)` is the pf-weighted renewal density
    /// `Σ_{n≥1} pf^n f_{T_n}(x)`, computed by one forward sweep of the
    /// renewal equation on a grid of pitch `step`. Every term is
    /// non-negative, so unlike the naive `1 − (1/pf − 1)·Σ pf^m S(m)`
    /// rearrangement there is no catastrophic cancellation, and deep-tail
    /// values (`1e-9` and below) come out at full double precision.
    ///
    /// Since PR 7 the sweep state is cached: the pitch kernel, first-gap
    /// masses, and renewal density `u` are all *width-independent*, so they
    /// live in a thread-local [`ConvPlan`] keyed on (pitch, pf, step,
    /// start) and are extended incrementally to the largest width seen.
    /// Only the `p_empty` quadrature and the final tail sum are per-width.
    /// Results are bit-identical to the single-shot sweep (kept as
    /// [`RenewalCount::failure_probability_conv_reference`] and enforced by
    /// property tests): extension appends the exact same values, and the
    /// tail sum skips only terms whose pitch survivor is exactly `0.0`.
    fn failure_probability_conv(&self, width: f64, pf: f64, step: f64) -> Result<f64> {
        if !(step.is_finite() && step > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "step",
                value: step,
                constraint: "must be finite and > 0",
            });
        }
        CONV_PLANS.with(|cell| {
            let cache = &mut *cell.borrow_mut();
            let idx = self.conv_plan_index(cache, pf, step)?;
            self.conv_eval(&mut cache.plans[idx], width, pf, step)
        })
    }

    /// Find (or build) the cached sweep plan for this (pitch, pf, step,
    /// start) and return its index in the thread-local cache.
    fn conv_plan_index(&self, cache: &mut ConvCache, pf: f64, step: f64) -> Result<usize> {
        let key = ConvPlanKey {
            parent_mean: self.pitch.parent_mean().to_bits(),
            parent_sd: self.pitch.parent_sd().to_bits(),
            lo: self.pitch.lo().to_bits(),
            hi: self.pitch.hi().to_bits(),
            pf: pf.to_bits(),
            step: step.to_bits(),
            start: self.start,
        };
        cache.stamp += 1;
        let stamp = cache.stamp;
        if let Some(i) = cache.plans.iter().position(|p| p.key == key) {
            cache.plans[i].stamp = stamp;
            return Ok(i);
        }

        // Pitch kernel on the integer grid: bin j covers ((j−½)h, (j+½)h],
        // mass from the exact CDF — the exact loop of the reference sweep.
        let h = step;
        let mean = self.pitch.mean();
        let sd = self.pitch.std_dev();
        let support_hi = (mean + 10.0 * sd).min(self.pitch.hi());
        let kbins = ((support_hi / h).ceil() as usize).max(1) + 1;
        let mut kernel = Vec::with_capacity(kbins);
        let mut prev = self.pitch.cdf(0.0);
        for j in 0..kbins {
            let c = self.pitch.cdf((j as f64 + 0.5) * h);
            kernel.push((c - prev).max(0.0));
            prev = c;
        }
        let resid: f64 = 1.0 - kernel.iter().sum::<f64>();
        if let Some(last) = kernel.last_mut() {
            *last += resid.max(0.0);
        }
        let k0 = pf * kernel[0];
        if k0 >= 1.0 {
            return Err(StatsError::NoConvergence(
                "failure_probability_conv: grid step too coarse for pitch scale",
            ));
        }

        if cache.plans.len() >= CONV_PLAN_CAP {
            // Evict the least-recently-used plan; a handful of (pitch, pf)
            // pairs are live at once in every real workload.
            if let Some(evict) = cache
                .plans
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.stamp)
                .map(|(i, _)| i)
            {
                cache.plans.swap_remove(evict);
            }
        }
        let fe_s_prev = 1.0 - self.pitch.cdf(0.0);
        cache.plans.push(ConvPlan {
            key,
            kernel,
            k0,
            fe: Vec::new(),
            fe_s_prev,
            u: Vec::new(),
            results: FastMap::default(),
            stamp,
        });
        Ok(cache.plans.len() - 1)
    }

    /// Evaluate one width against a prepared plan, extending the cached
    /// first-gap masses and renewal density as needed.
    fn conv_eval(&self, plan: &mut ConvPlan, width: f64, pf: f64, step: f64) -> Result<f64> {
        if let Some(&r) = plan.results.get(&width.to_bits()) {
            return Ok(r);
        }
        let h = step;
        let mean = self.pitch.mean();
        let wbins = (width / h).round() as usize;

        // Equilibrium first-gap mass per bin (stationary start only). Each
        // bin value depends only on its index, and the resumable `fe_s_prev`
        // survivor makes appended values bit-identical to a fresh build.
        // The pitch CDF is non-decreasing on the bin edges and saturates at
        // exactly 1.0, so once the survivor is exactly 0.0 every later
        // survivor is too and every later bin mass is `(w·0.5·0/S̄).max(0)`
        // = +0.0: those bins are appended without calling the CDF (for the
        // paper pitch, every bin past ≈ 47 nm).
        if self.start == StartPolicy::Stationary {
            while plan.fe.len() <= wbins {
                if plan.fe_s_prev == 0.0 {
                    plan.fe.resize(wbins + 1, 0.0);
                    break;
                }
                let j = plan.fe.len();
                let lo_edge = (j as f64 - 0.5) * h;
                let hi_edge = (j as f64 + 0.5) * h;
                let s_hi = 1.0 - self.pitch.cdf(hi_edge);
                let bin_w = hi_edge - lo_edge.max(0.0);
                plan.fe
                    .push((bin_w * 0.5 * (plan.fe_s_prev + s_hi) / mean).max(0.0));
                plan.fe_s_prev = s_hi;
            }
        }

        // Forward renewal sweep, resumed from the cached prefix. Row `j` is
        // `u[j] = pf·(first[j] + Σ_{i_lo ≤ i < j} u[i]·kernel[j − i])/(1 − k0)`
        // with the sum taken in ascending `i`, exactly as the reference.
        // Rows go in blocks of `SWEEP_BLOCK` when the kernel is longer
        // than a block (see `sweep_block`): each row keeps its own
        // accumulator and adds the same terms in the same order, but one
        // `u[i]` load feeds every row of the block, so the block runs
        // `SWEEP_BLOCK` independent add chains instead of one. The rows
        // left over at the end of an extension, and every row of a kernel
        // of at most `SWEEP_BLOCK` taps, take the one-row loop.
        let klen = plan.kernel.len();
        let first = |kernel: &[f64], fe: &[f64], j: usize| match self.start {
            StartPolicy::Ordinary => kernel.get(j).copied().unwrap_or(0.0),
            StartPolicy::Stationary => fe[j],
        };
        while plan.u.len() <= wbins {
            let j = plan.u.len();
            if klen > SWEEP_BLOCK && j + SWEEP_BLOCK <= wbins + 1 {
                let acc = std::array::from_fn(|b| first(&plan.kernel, &plan.fe, j + b));
                sweep_block(&mut plan.u, &plan.kernel, acc, pf, plan.k0);
            } else {
                let i_lo = j.saturating_sub(klen - 1);
                let taps = plan.kernel[1..=j - i_lo].iter().rev();
                let mut acc = first(&plan.kernel, &plan.fe, j);
                for (ui, k) in plan.u[i_lo..].iter().zip(taps) {
                    acc += ui * k;
                }
                plan.u.push(pf * acc / (1.0 - plan.k0));
            }
        }

        // Exact no-CNT term — per-width, identical to the reference.
        let p_empty = match self.start {
            StartPolicy::Ordinary => 1.0 - self.pitch.cdf(width),
            StartPolicy::Stationary => {
                let mut tail = 0.0;
                let mut x = width;
                let mut s_lo = 1.0 - self.pitch.cdf(x);
                while s_lo > 0.0 && x < self.pitch.hi() {
                    let s_hi = 1.0 - self.pitch.cdf(x + h);
                    tail += 0.5 * (s_lo + s_hi) * h / mean;
                    x += h;
                    s_lo = s_hi;
                }
                tail
            }
        };

        // Tail sum over the pitch survivor. For j far below wbins the
        // argument `width − j·h` is deep past the pitch support and the
        // survivor is *exactly* 0.0; those terms contribute `u[j]·0.0 = +0.0`
        // in the reference (which starts from `p_empty ≥ +0.0`), so skipping
        // them is bit-exact. The survivor rises monotonically with j, so the
        // zero prefix ends at a single boundary found by bisection and then
        // verified by walking it down.
        let surv = |j: usize| 1.0 - self.pitch.cdf(width - j as f64 * h);
        let mut j0 = 0usize;
        if wbins > 0 && surv(0) == 0.0 {
            if surv(wbins) == 0.0 {
                j0 = wbins;
            } else {
                let (mut lo, mut hi) = (0usize, wbins);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if surv(mid) == 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                j0 = hi;
            }
            while j0 > 0 && surv(j0 - 1) > 0.0 {
                j0 -= 1;
            }
        }
        let mut p_fail = p_empty;
        for (dj, &uj) in plan.u[j0..=wbins].iter().enumerate() {
            if uj > 0.0 {
                p_fail += uj * surv(j0 + dj);
            }
        }
        let r = p_fail.clamp(0.0, 1.0);
        if plan.results.len() >= CONV_RESULT_CAP {
            plan.results.clear();
        }
        plan.results.insert(width.to_bits(), r);
        Ok(r)
    }

    /// The pre-PR-7 single-shot convolution sweep, kept verbatim as the
    /// bit-identity oracle for the plan-cached fast path. Every value the
    /// cached path returns must equal this one bit-for-bit (enforced by the
    /// crate's property tests). Not part of the supported API.
    #[doc(hidden)]
    pub fn failure_probability_conv_reference(
        &self,
        width: f64,
        pf: f64,
        step: f64,
    ) -> Result<f64> {
        if !(step.is_finite() && step > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "step",
                value: step,
                constraint: "must be finite and > 0",
            });
        }
        let h = step;
        let mean = self.pitch.mean();
        let sd = self.pitch.std_dev();
        let support_hi = (mean + 10.0 * sd).min(self.pitch.hi());

        // Pitch kernel on the integer grid: bin j covers
        // ((j−½)h, (j+½)h], mass from the exact CDF.
        let kbins = ((support_hi / h).ceil() as usize).max(1) + 1;
        let mut kernel = Vec::with_capacity(kbins);
        let mut prev = self.pitch.cdf(0.0);
        for j in 0..kbins {
            let c = self.pitch.cdf((j as f64 + 0.5) * h);
            kernel.push((c - prev).max(0.0));
            prev = c;
        }
        let resid: f64 = 1.0 - kernel.iter().sum::<f64>();
        if let Some(last) = kernel.last_mut() {
            *last += resid.max(0.0);
        }

        let wbins = (width / h).round() as usize;

        // First-gap mass per grid bin and the exact no-CNT term.
        let (first, p_empty): (Vec<f64>, f64) = match self.start {
            StartPolicy::Ordinary => {
                let first: Vec<f64> = kernel.iter().copied().take(wbins + 1).collect();
                (first, 1.0 - self.pitch.cdf(width))
            }
            StartPolicy::Stationary => {
                // Equilibrium density f_e(x) = (1 − F(x))/S̄, integrated per
                // bin by the trapezoid rule on the exact CDF.
                let nb = wbins + 1;
                let mut fe = Vec::with_capacity(nb);
                let mut s_prev = 1.0 - self.pitch.cdf(0.0);
                for j in 0..nb {
                    let lo_edge = (j as f64 - 0.5) * h;
                    let hi_edge = (j as f64 + 0.5) * h;
                    let s_hi = 1.0 - self.pitch.cdf(hi_edge);
                    let bin_w = hi_edge - lo_edge.max(0.0);
                    let m = (bin_w * 0.5 * (s_prev + s_hi) / mean).max(0.0);
                    fe.push(m);
                    s_prev = s_hi;
                }
                // P{first gap > W} = ∫_W^∞ (1 − F)/S̄ — summed directly as a
                // positive-term tail integral. The obvious `1 − Σ fe`
                // rearrangement cancels catastrophically and floors deep-tail
                // values (≲ 1e-7) to exactly 0, which would break the pf → 0
                // corner where p_empty dominates pF.
                let mut tail = 0.0;
                let mut x = width;
                let mut s_lo = 1.0 - self.pitch.cdf(x);
                while s_lo > 0.0 && x < self.pitch.hi() {
                    let s_hi = 1.0 - self.pitch.cdf(x + h);
                    tail += 0.5 * (s_lo + s_hi) * h / mean;
                    x += h;
                    s_lo = s_hi;
                }
                (fe, tail)
            }
        };

        // Forward renewal sweep: u[j] depends on u[0..j] and kernel[0]
        // (the sub-half-step mass) on itself.
        let k0 = pf * kernel[0];
        if k0 >= 1.0 {
            return Err(StatsError::NoConvergence(
                "failure_probability_conv: grid step too coarse for pitch scale",
            ));
        }
        let mut u = vec![0.0_f64; wbins + 1];
        for j in 0..=wbins {
            let mut acc = first.get(j).copied().unwrap_or(0.0);
            let i_lo = j.saturating_sub(kernel.len() - 1);
            for i in i_lo..j {
                acc += u[i] * kernel[j - i];
            }
            u[j] = pf * acc / (1.0 - k0);
        }

        // Tail survivor of the pitch, from the exact CDF.
        let mut p_fail = p_empty;
        for (j, &uj) in u.iter().enumerate() {
            if uj > 0.0 {
                p_fail += uj * (1.0 - self.pitch.cdf(width - j as f64 * h));
            }
        }
        Ok(p_fail.clamp(0.0, 1.0))
    }

    /// Memoized CLT PGF: `distribution(width)?.pgf(pf)` is a pure function
    /// of (pitch, start, width, pf), so its value is cached thread-locally.
    /// The distribution build is O(width/S̄) survival evaluations; repeat
    /// queries (service caches cold-started per request, co-opt grids
    /// revisiting knob points) become a map lookup.
    fn failure_probability_clt_memo(&self, width: f64, pf: f64) -> Result<f64> {
        /// Full identity of one CLT evaluation: pitch parameters, width,
        /// `pf`, and the start policy, all as bit patterns.
        type CltKey = (u64, u64, u64, u64, u64, u64, u8);
        thread_local! {
            static CLT_RESULTS: RefCell<FastMap<CltKey, f64>> = RefCell::new(FastMap::default());
        }
        let key = (
            self.pitch.parent_mean().to_bits(),
            self.pitch.parent_sd().to_bits(),
            self.pitch.lo().to_bits(),
            self.pitch.hi().to_bits(),
            width.to_bits(),
            pf.to_bits(),
            self.start as u8,
        );
        if let Some(hit) = CLT_RESULTS.with(|m| m.borrow().get(&key).copied()) {
            return Ok(hit);
        }
        let p = self.distribution(width)?.pgf(pf);
        CLT_RESULTS.with(|m| {
            let mut m = m.borrow_mut();
            if m.len() >= CONV_RESULT_CAP {
                m.clear();
            }
            m.insert(key, p);
        });
        Ok(p)
    }

    /// Batch twin of [`RenewalCount::failure_probability`]: evaluate
    /// `pF(W) = E[pf^N(W)]` for many widths in one call.
    ///
    /// Results are element-wise **bit-identical** to calling
    /// [`RenewalCount::failure_probability`] per width — batching never
    /// changes answers, it only amortizes setup. For the
    /// [`CountModel::Convolution`] back-end the per-(pitch, pf, step) sweep
    /// state (pitch kernel, first-gap masses, renewal density) is built once
    /// and extended to the largest width in the batch, so a `W_min`
    /// bisection or a sweep issues O(1) kernel sweeps instead of
    /// O(widths) — see [`RenewalCount::failure_probabilities_conv`].
    ///
    /// # Errors
    ///
    /// Same per-element errors as [`RenewalCount::failure_probability`];
    /// the first failing width aborts the batch.
    pub fn failure_probabilities(&self, widths: &[f64], pf: f64) -> Result<Vec<f64>> {
        widths
            .iter()
            .map(|&w| self.failure_probability(w, pf))
            .collect()
    }

    /// Batch entry point for the convolution sweep with an explicit grid
    /// `step`, independent of the configured [`CountModel`].
    ///
    /// Bit-identical to evaluating each width through a
    /// `CountModel::Convolution { step }` back-end one at a time; the
    /// cached sweep plan makes the marginal cost of an extra width one
    /// `p_empty` quadrature plus one tail sum over the pitch support.
    ///
    /// # Errors
    ///
    /// Rejects `pf` outside `[0, 1]`, a non-positive or non-finite `step`,
    /// and any width that is not finite and `> 0`.
    pub fn failure_probabilities_conv(
        &self,
        widths: &[f64],
        pf: f64,
        step: f64,
    ) -> Result<Vec<f64>> {
        if !(0.0..=1.0).contains(&pf) {
            return Err(StatsError::InvalidParameter {
                name: "pf",
                value: pf,
                constraint: "must be in [0, 1]",
            });
        }
        widths
            .iter()
            .map(|&w| {
                if !(w.is_finite() && w > 0.0) {
                    return Err(StatsError::InvalidParameter {
                        name: "width",
                        value: w,
                        constraint: "must be finite and > 0",
                    });
                }
                self.failure_probability_conv(w, pf, step)
            })
            .collect()
    }

    /// Mean and variance of the first-gap distribution for this policy.
    fn first_gap_moments(&self) -> (f64, f64) {
        let m = self.pitch.mean();
        let v = self.pitch.variance();
        match self.start {
            StartPolicy::Ordinary => (m, v),
            StartPolicy::Stationary => {
                // Equilibrium distribution: f_e(x) = (1 − F(x)) / m.
                // E[X_e] = E[X²]/(2m), E[X_e²] = E[X³]/(3m).
                let m2 = v + m * m;
                let m3 = numeric_raw_moment(&self.pitch, 3);
                let me = m2 / (2.0 * m);
                let ve = (m3 / (3.0 * m) - me * me).max(0.0);
                (me, ve)
            }
        }
    }

    fn distribution_clt(&self, width: f64) -> Result<CountDistribution> {
        let m = self.pitch.mean();
        let v = self.pitch.variance();
        let (me, ve) = self.first_gap_moments();

        // Survival S(n) = P(N >= n) = P(T_n <= width), where
        // T_n = first_gap + (n-1) pitches.
        let survival = |n: usize| -> f64 {
            debug_assert!(n >= 1);
            let k = (n - 1) as f64;
            let mean = me + k * m;
            let var = ve + k * v;
            if var <= 0.0 {
                return if width >= mean { 1.0 } else { 0.0 };
            }
            normal_cdf((width - mean) / var.sqrt())
        };

        let n_typ = (width / m).ceil() as usize + 2;
        let n_cap = 4 * n_typ + 64;
        let mut surv = Vec::with_capacity(n_typ * 2);
        surv.push(1.0); // S(0) = 1
        for n in 1..=n_cap {
            let s = survival(n);
            surv.push(s);
            if s < 1e-16 && n > n_typ {
                break;
            }
        }
        CountDistribution::from_survival(&surv, width)
    }

    /// Count distribution on the convolution back-end: answered from the
    /// process-wide [`CountPlan`] when one applies, else by
    /// [`RenewalCount::distribution_conv_reference`].
    fn distribution_conv(&self, width: f64, step: f64) -> Result<CountDistribution> {
        if step.is_finite() && step > 0.0 {
            let bounds = CountBounds::new(width, step, self.pitch.mean());
            let first_bins = self.first_gap_bins(width, step);
            if let Some(surv) = self
                .count_plan(step, bounds)
                .and_then(|plan| plan.survival(bounds, first_bins))
            {
                return CountDistribution::from_survival(&surv, width);
            }
        }
        self.distribution_conv_reference(width, step)
    }

    /// The single-shot count-distribution loop on the convolution
    /// back-end, kept as the bit-identity oracle of the [`CountPlan`]
    /// path: every distribution that path returns must equal this one
    /// bit for bit (enforced by the crate's property tests). It also
    /// answers the widths the plan does not. Not part of the supported API.
    ///
    /// Row `n` of the loop is the sub-density of the n-th CNT position
    /// `T_n` restricted to `≤ width`, and its sum is the survival
    /// `S(n) = P(N ≥ n)`.
    #[doc(hidden)]
    pub fn distribution_conv_reference(&self, width: f64, step: f64) -> Result<CountDistribution> {
        if !(step.is_finite() && step > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "step",
                value: step,
                constraint: "must be finite and > 0",
            });
        }
        let h = step;
        let kernel = self.count_kernel(h);
        let first = match self.start {
            StartPolicy::Ordinary => kernel.clone(),
            StartPolicy::Stationary => self.equilibrium_first_gap(h, self.first_gap_bins(width, h)),
        };
        let bounds = CountBounds::new(width, h, self.pitch.mean());

        // s holds the sub-density of T_n restricted to ≤ width.
        let mut s: Vec<f64> = first[..bounds.row_len(1, first.len())].to_vec();
        let mut surv = vec![1.0_f64]; // S(0)
        surv.push(s.iter().sum::<f64>());
        for n in 2..=bounds.n_cap() {
            if bounds.limit(n) < 0 || s.is_empty() {
                surv.push(0.0);
                break;
            }
            let out_len = bounds.row_len(n, s.len() + kernel.len() - 1);
            let next = convolve_truncated(&s, &kernel, out_len);
            let total: f64 = next.iter().sum();
            surv.push(total);
            s = next;
            if total < 1e-16 && n > bounds.n_typ {
                break;
            }
        }
        CountDistribution::from_survival(&surv, width)
    }

    /// Upper edge of the pitch support the convolution grids cover.
    fn support_hi(&self) -> f64 {
        (self.pitch.mean() + 10.0 * self.pitch.std_dev()).min(self.pitch.hi())
    }

    /// Pitch mass per grid bin for the count distribution: bin `i` holds
    /// `F((i+1)h) − F(ih)`, its value represented at the midpoint
    /// `(i + 0.5)·h`, so after summing n variables the represented value
    /// of index `j` is `(j + n/2)·h`.
    fn count_kernel(&self, h: f64) -> Vec<f64> {
        let kbins = ((self.support_hi() / h).ceil() as usize).max(1);
        let mut kernel = Vec::with_capacity(kbins);
        let mut prev = self.pitch.cdf(0.0);
        for i in 0..kbins {
            let c = self.pitch.cdf((i as f64 + 1.0) * h);
            kernel.push((c - prev).max(0.0));
            prev = c;
        }
        // Fold any residual tail mass into the last bin so the kernel sums
        // to exactly 1 (otherwise counts are biased upward).
        let resid: f64 = 1.0 - kernel.iter().sum::<f64>();
        if let Some(last) = kernel.last_mut() {
            *last += resid.max(0.0);
        }
        kernel
    }

    /// Bins the stationary first-gap vector may span at `width`: enough
    /// to cover the width plus the pitch support.
    fn first_gap_bins(&self, width: f64, h: f64) -> usize {
        (((width + self.support_hi()) / h).ceil() as usize).max(1)
    }

    /// Equilibrium first-gap masses `f_e(x) = (1 − F(x))/S̄` on the count
    /// grid, over at most `nb` bins: the vector stops at the first bin
    /// past the mean whose survival is negligible, and is normalized.
    fn equilibrium_first_gap(&self, h: f64, nb: usize) -> Vec<f64> {
        let mean = self.pitch.mean();
        let mut fe = Vec::new();
        for i in 0..nb {
            let x = (i as f64 + 0.5) * h;
            let s = 1.0 - self.pitch.cdf(x);
            if s < 1e-15 && (i as f64 * h) > mean {
                break;
            }
            fe.push(s * h / mean);
        }
        let total: f64 = fe.iter().sum();
        // Normalize the discretization residue.
        if total > 0.0 {
            for p in &mut fe {
                *p /= total;
            }
        }
        fe
    }

    /// The shared count plan for this (pitch, `h`, start) that covers
    /// `bounds`, widened first when it does not; `None` when the widened
    /// plan would pass [`COUNT_PLAN_VALUES`] (or did before).
    ///
    /// The cache lock is held only to clone, take or store an `Arc`: a
    /// plan is built outside it, after the narrower plan it replaces has
    /// been dropped. Two threads may race to build the same plan; both
    /// results are identical, and the wider one is kept.
    fn count_plan(&self, h: f64, bounds: CountBounds) -> Option<Arc<CountPlan>> {
        let key = CountPlanKey {
            pitch: [
                self.pitch.parent_mean().to_bits(),
                self.pitch.parent_sd().to_bits(),
                self.pitch.lo().to_bits(),
                self.pitch.hi().to_bits(),
            ],
            step: h.to_bits(),
            start: self.start,
        };
        // Every update below swaps whole values, so a poisoned lock still
        // guards a valid cache.
        let lock = || COUNT_PLANS.lock().unwrap_or_else(PoisonError::into_inner);
        let (target, old) = {
            let mut slots = lock();
            let slot = count_plan_slot(&mut slots, key);
            match &slot.plan {
                Some(plan) if plan.bounds.covers(bounds) => return Some(Arc::clone(plan)),
                _ if bounds.wbins >= slot.too_wide => return None,
                _ => {}
            }
            let old = slot.plan.take();
            let target = old.as_ref().map_or(bounds, |p| p.bounds.max(bounds));
            (target, old)
        };
        drop(old);
        let kernel = self.count_kernel(h);
        let built = match self.start {
            StartPolicy::Ordinary => CountPlan::build(&kernel, &kernel, 0, target),
            StartPolicy::Stationary => {
                let first = self.equilibrium_first_gap(h, COUNT_PLAN_VALUES);
                // A first gap that reaches the cap may still be truncated.
                if first.len() < COUNT_PLAN_VALUES {
                    CountPlan::build(&kernel, &first, first.len(), target)
                } else {
                    None
                }
            }
        }
        .map(Arc::new);
        let mut slots = lock();
        let slot = count_plan_slot(&mut slots, key);
        match &built {
            Some(plan) => {
                if !slot
                    .plan
                    .as_ref()
                    .is_some_and(|p| p.bounds.covers(plan.bounds))
                {
                    slot.plan = Some(Arc::clone(plan));
                }
            }
            None => slot.too_wide = slot.too_wide.min(target.wbins),
        }
        built
    }

    fn distribution_mc(&self, width: f64, trials: u32, seed: u64) -> Result<CountDistribution> {
        if trials == 0 {
            return Err(StatsError::InvalidParameter {
                name: "trials",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts: Vec<u64> = Vec::new();
        for _ in 0..trials {
            let mut pos = self.sample_first_gap(&mut rng);
            let mut n = 0usize;
            while pos <= width {
                n += 1;
                pos += self.pitch.sample(&mut rng);
                if n > 1_000_000 {
                    return Err(StatsError::NoConvergence("renewal MC count overflow"));
                }
            }
            if n >= counts.len() {
                counts.resize(n + 1, 0);
            }
            counts[n] += 1;
        }
        let pmf: Vec<f64> = counts.iter().map(|&c| c as f64 / trials as f64).collect();
        CountDistribution::from_pmf(pmf, width)
    }

    /// Sample the first gap according to the start policy.
    pub fn sample_first_gap(&self, mut rng: &mut (impl Rng + ?Sized)) -> f64 {
        match self.start {
            StartPolicy::Ordinary => self.pitch.sample(&mut rng),
            StartPolicy::Stationary => {
                // Equilibrium draw via the inspection paradox: pick a
                // length-biased pitch (rejection against an upper envelope),
                // then a uniform position inside it.
                let cap = self.pitch.mean() + 10.0 * self.pitch.std_dev();
                loop {
                    let x = self.pitch.sample(&mut rng);
                    let accept: f64 = rng.gen();
                    if accept < (x / cap).min(1.0) {
                        return rng.gen::<f64>() * x;
                    }
                }
            }
        }
    }

    /// Exact probability that the first gap exceeds `width` — equivalently,
    /// `Prob{N(width) = 0}`, the zero-count stratum of the count
    /// distribution.
    ///
    /// Computed from the pitch CDF alone (closed form for
    /// [`StartPolicy::Ordinary`]; a positive-term tail quadrature of the
    /// equilibrium survival for [`StartPolicy::Stationary`]), so deep-tail
    /// values far below 1e-9 come out at full precision instead of
    /// cancelling to zero.
    ///
    /// # Errors
    ///
    /// Rejects a negative or non-finite `width`.
    pub fn first_gap_survival(&self, width: f64) -> Result<f64> {
        if !(width.is_finite() && width >= 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "width",
                value: width,
                constraint: "must be finite and >= 0",
            });
        }
        match self.start {
            StartPolicy::Ordinary => Ok((1.0 - self.pitch.cdf(width)).clamp(0.0, 1.0)),
            StartPolicy::Stationary => {
                // P{G_e > W} = ∫_W^∞ (1 − F(x))/S̄ dx, summed as a
                // positive-term trapezoid on the exact CDF (same scheme as
                // the convolution back-end's `p_empty`).
                let mean = self.pitch.mean();
                let h = (self.pitch.std_dev() / 32.0).clamp(1e-4, mean / 8.0);
                let mut tail = 0.0;
                let mut x = width;
                let mut s_lo = 1.0 - self.pitch.cdf(x);
                while s_lo > 0.0 && x < self.pitch.hi() {
                    let s_hi = 1.0 - self.pitch.cdf(x + h);
                    tail += 0.5 * (s_lo + s_hi) * h / mean;
                    x += h;
                    s_lo = s_hi;
                }
                Ok(tail.clamp(0.0, 1.0))
            }
        }
    }

    /// Sample the first gap *conditioned on it falling inside the region*
    /// (`G ≤ width`) — the complement of the [`Self::first_gap_survival`]
    /// stratum.
    ///
    /// [`StartPolicy::Ordinary`] uses exact inverse-CDF sampling of the
    /// truncated pitch; [`StartPolicy::Stationary`] rejects equilibrium
    /// draws (the acceptance probability is `1 − p_empty`, which is ≈ 1
    /// for any region wider than a couple of pitches).
    pub fn sample_first_gap_within(&self, width: f64, mut rng: &mut (impl Rng + ?Sized)) -> f64 {
        match self.start {
            StartPolicy::Ordinary => {
                let mass = self.pitch.cdf(width).max(1e-300);
                let u: f64 = rng.gen::<f64>().clamp(1e-16, 1.0 - 1e-16);
                self.pitch.quantile((u * mass).min(1.0 - 1e-16)).min(width)
            }
            StartPolicy::Stationary => {
                for _ in 0..100_000 {
                    let g = self.sample_first_gap(&mut rng);
                    if g <= width {
                        return g;
                    }
                }
                // Statistically unreachable unless p_empty ≈ 1; fall back to
                // a uniform position so callers never loop forever.
                rng.gen::<f64>() * width
            }
        }
    }

    /// Build a deep-tail Monte-Carlo sampler for `pF(width) = E[pf^N]`.
    ///
    /// See [`FailureSampler`] for the estimator design (exact zero-count
    /// stratum + exponentially tilted importance sampling of the tail).
    ///
    /// # Errors
    ///
    /// Rejects invalid `width`/`pf` and propagates tilt-construction
    /// failures.
    pub fn failure_sampler(&self, width: f64, pf: f64) -> Result<FailureSampler> {
        if !(width.is_finite() && width > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "width",
                value: width,
                constraint: "must be finite and > 0",
            });
        }
        if !(0.0..=1.0).contains(&pf) {
            return Err(StatsError::InvalidParameter {
                name: "pf",
                value: pf,
                constraint: "must be in [0, 1]",
            });
        }
        let p_empty = self.first_gap_survival(width)?;

        // Cramér/Siegmund exponential change of measure: choose θ* with
        // pf·M(θ*) = 1, so each CNT contributes the weight
        // pf·M(θ*)·e^{−θ*x} and a whole trial collapses to e^{−θ*·T}
        // with T the first-passage sum. Sample values are then bounded
        // above by e^{−θ*·span} — no heavy-tailed likelihood ratios — and
        // the relative variance is width-independent, which is what keeps
        // `W_min` bisections over micrometre brackets convergent.
        let theta = if pf > 0.0 && pf < 1.0 {
            solve_tilt(&self.pitch, -pf.ln())?
        } else {
            0.0
        };
        let (tilt, ln_m) = self.pitch.tilted(theta)?;
        // Constants of the per-trial inner loop, hoisted out of it. Each is
        // the exact expression the loop used to evaluate, so hoisting
        // changes no bits.
        let ln_pf_m = pf.ln() + ln_m;
        let gap_cap = self.pitch.mean() + 10.0 * self.pitch.std_dev();
        let gap_mass = self.pitch.cdf(width).max(1e-300);
        Ok(FailureSampler {
            renewal: self.clone(),
            width,
            pf,
            p_empty,
            tilt,
            theta,
            ln_m,
            ln_pf_m,
            gap_cap,
            gap_mass,
        })
    }
}

/// Rows of the renewal density extended together by [`sweep_block`].
/// Sixteen accumulators fill eight SSE2 registers; on the 2000-nm sweep,
/// 8 and 32 rows measured slower and 24 no faster.
const SWEEP_BLOCK: usize = 16;

/// Append `SWEEP_BLOCK` rows `j0 .. j0 + SWEEP_BLOCK` (with `j0 = u.len()`)
/// of the renewal density to `u`, each bit-identical to the one-row sweep.
///
/// `acc[b]` enters holding row `j0 + b`'s first-gap term and then receives
/// exactly the one-row loop's terms `u[i]·kernel[j0 + b − i]`, in
/// ascending `i`, in three stages:
///
/// 1. its staggered leading terms, `i` below the window every row shares;
/// 2. the shared window `lo ≤ i < j0`, where one `u[i]` feeds all rows
///    against the contiguous taps `kernel[j0 − i .. j0 − i + SWEEP_BLOCK]`
///    — `SWEEP_BLOCK` independent add chains the compiler vectorizes;
/// 3. the in-block triangle `j0 ≤ i < j0 + b`, from the rows just finished.
///
/// No term is reassociated, and Rust never contracts `acc += u·k` into a
/// fused multiply-add, so every row rounds exactly as in the one-row loop.
/// Requires `kernel.len() > SWEEP_BLOCK`, so that every in-block term lies
/// inside each row's kernel support.
fn sweep_block(u: &mut Vec<f64>, kernel: &[f64], mut acc: [f64; SWEEP_BLOCK], pf: f64, k0: f64) {
    const B: usize = SWEEP_BLOCK;
    debug_assert!(kernel.len() > B);
    let reach = kernel.len() - 1;
    let j0 = u.len();
    // First `i` of the last row: the start of the shared window.
    let lo = (j0 + B - 1).saturating_sub(reach);
    for (b, acc_b) in acc.iter_mut().enumerate() {
        for i in (j0 + b).saturating_sub(reach)..lo {
            *acc_b += u[i] * kernel[j0 + b - i];
        }
    }
    // The leading terms index `acc` by a runtime row, which pins it to
    // memory; the window runs on a copy the compiler keeps in registers.
    let mut lanes = acc;
    for (d, &ui) in u[lo..j0].iter().enumerate() {
        let s = j0 - lo - d;
        let taps: &[f64; B] = kernel[s..s + B]
            .try_into()
            .expect("window of SWEEP_BLOCK taps");
        for b in 0..B {
            lanes[b] += ui * taps[b];
        }
    }
    acc = lanes;
    for b in 0..B {
        let ub = pf * acc[b] / (1.0 - k0);
        u.push(ub);
        for c in b + 1..B {
            acc[c] += ub * kernel[c - b];
        }
    }
}

/// Max cached sweep plans per thread (distinct (pitch, pf, step, start)).
const CONV_PLAN_CAP: usize = 8;

/// Max memoized per-width results per plan before the memo is reset.
const CONV_RESULT_CAP: usize = 16_384;

/// Identity of a convolution sweep plan — bit patterns, so "same inputs"
/// means exactly the f64s the sweep arithmetic consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ConvPlanKey {
    parent_mean: u64,
    parent_sd: u64,
    lo: u64,
    hi: u64,
    pf: u64,
    step: u64,
    start: StartPolicy,
}

/// Width-independent sweep state, extended incrementally as wider gates
/// are queried, plus a per-width result memo.
#[derive(Debug)]
struct ConvPlan {
    key: ConvPlanKey,
    /// Pitch mass per grid bin.
    kernel: Vec<f64>,
    /// `pf · kernel[0]` — the implicit same-bin term of the sweep.
    k0: f64,
    /// Equilibrium first-gap mass per bin (stationary start only).
    fe: Vec<f64>,
    /// Survivor at the last computed `fe` bin edge, so extension resumes
    /// the trapezoid exactly where a fresh build would be.
    fe_s_prev: f64,
    /// pf-weighted renewal density `u[j]`.
    u: Vec<f64>,
    /// Finished `width.to_bits() → pF` results.
    results: FastMap<u64, f64>,
    /// LRU stamp.
    stamp: u64,
}

#[derive(Debug, Default)]
struct ConvCache {
    plans: Vec<ConvPlan>,
    stamp: u64,
}

thread_local! {
    /// Per-thread sweep-plan cache. Thread-local instead of shared: the
    /// sweeps are deterministic pure functions, so per-thread duplicates
    /// cost only memory, never coherence or lock traffic on the hot path.
    static CONV_PLANS: RefCell<ConvCache> = RefCell::new(ConvCache::default());
}

/// The next row of the count loop: `s ∗ kernel`, truncated to `out_len`
/// entries. Each entry adds its terms in ascending `i`, skipping zero
/// entries of `s`.
fn convolve_truncated(s: &[f64], kernel: &[f64], out_len: usize) -> Vec<f64> {
    let mut next = vec![0.0_f64; out_len];
    for (i, &si) in s.iter().enumerate() {
        if si == 0.0 {
            continue;
        }
        let jmax = out_len.saturating_sub(i).min(kernel.len());
        for (j, &kj) in kernel.iter().enumerate().take(jmax) {
            next[i + j] += si * kj;
        }
    }
    next
}

/// The width-dependent bounds of the count loop.
#[derive(Debug, Clone, Copy)]
struct CountBounds {
    /// Grid bins under the gate, `⌊W/h⌋`.
    wbins: isize,
    /// Typical count `⌈W/S̄⌉ + 2`; the loop stops on a negligible row
    /// only past it.
    n_typ: usize,
}

impl CountBounds {
    fn new(width: f64, h: f64, mean: f64) -> Self {
        Self {
            wbins: (width / h).floor() as isize,
            n_typ: (width / mean).ceil() as usize + 2,
        }
    }

    /// Index limit for "value ≤ width" after n summands: j ≤ width/h − n/2.
    fn limit(self, n: usize) -> isize {
        self.wbins - (n as isize) / 2 - (n as isize % 2)
    }

    /// Length of row `n`, whose untruncated length is `len`.
    fn row_len(self, n: usize, len: usize) -> usize {
        ((self.limit(n).max(-1) + 1) as usize).min(len)
    }

    fn n_cap(self) -> usize {
        4 * self.n_typ + 64
    }

    fn covers(self, other: Self) -> bool {
        self.wbins >= other.wbins && self.n_typ >= other.n_typ
    }

    fn max(self, other: Self) -> Self {
        Self {
            wbins: self.wbins.max(other.wbins),
            n_typ: self.n_typ.max(other.n_typ),
        }
    }
}

/// Most values one [`CountPlan`] may hold: 8 MB, about a 350-nm gate on
/// the paper pitch at the 0.05-nm grid (a 2000-nm plan would need about
/// 160 MB). Wider gates take the reference loop on every call.
const COUNT_PLAN_VALUES: usize = 1 << 20;

/// Most (pitch, step, start) count plans kept at once.
const COUNT_PLAN_SLOTS: usize = 4;

/// Width-independent state of [`RenewalCount::distribution`] on the
/// convolution back-end.
///
/// Row `n` of the reference loop is a prefix of the untruncated n-fold
/// sub-density: a narrower gate only cuts every row shorter, and each
/// entry adds the same terms in the same order. So one build at the
/// widest gate seen stores every row's prefix sums, folded from `-0.0`
/// as `Iterator::sum` folds, and any narrower gate reads its survival
/// `S(n)` as one prefix per row, bit-identical to the reference.
#[derive(Debug)]
struct CountPlan {
    /// The widest bounds the plan answers.
    bounds: CountBounds,
    /// Length of the first-gap vector; a query whose first-gap loop stops
    /// short of it (a stationary start under a gate narrower than about
    /// 10 nm on the paper pitch) would truncate it, and takes the
    /// reference loop.
    first_bins: usize,
    /// End of each row in `prefix`.
    ends: Vec<usize>,
    /// Every row's prefix sums, `[-0.0, s₀, s₀ + s₁, …]`, back to back.
    prefix: Vec<f64>,
}

impl CountPlan {
    /// Run the reference loop at `bounds`, keeping each row's prefix sums;
    /// `None` past [`COUNT_PLAN_VALUES`].
    fn build(
        kernel: &[f64],
        first: &[f64],
        first_bins: usize,
        bounds: CountBounds,
    ) -> Option<Self> {
        // Reserved at the budget so that growth never copies the rows:
        // capacity never written costs no resident memory, and the
        // finished plan is trimmed to its length.
        let mut plan = Self {
            bounds,
            first_bins,
            ends: Vec::new(),
            prefix: Vec::with_capacity(COUNT_PLAN_VALUES),
        };
        let mut s = first[..bounds.row_len(1, first.len())].to_vec();
        plan.push_row(&s)?;
        for n in 2..=bounds.n_cap() {
            if bounds.limit(n) < 0 || s.is_empty() {
                break;
            }
            let next =
                convolve_truncated(&s, kernel, bounds.row_len(n, s.len() + kernel.len() - 1));
            let total = plan.push_row(&next)?;
            s = next;
            if total < 1e-16 && n > bounds.n_typ {
                break;
            }
        }
        plan.prefix.shrink_to_fit();
        Some(plan)
    }

    /// Append `row`'s prefix sums and return its total.
    fn push_row(&mut self, row: &[f64]) -> Option<f64> {
        if self.prefix.len() + row.len() + 1 > COUNT_PLAN_VALUES {
            return None;
        }
        let mut acc = -0.0_f64;
        self.prefix.push(acc);
        for &x in row {
            acc += x;
            self.prefix.push(acc);
        }
        self.ends.push(self.prefix.len());
        Some(acc)
    }

    /// Prefix sums of row `n` (1-based).
    fn row(&self, n: usize) -> Option<&[f64]> {
        let end = *self.ends.get(n - 1)?;
        let start = if n == 1 { 0 } else { self.ends[n - 2] };
        Some(&self.prefix[start..end])
    }

    /// The survival vector the reference loop builds at `bounds` (which
    /// the plan covers), with a first-gap loop of `first_bins` bins;
    /// `None` sends the query to the reference loop.
    fn survival(&self, bounds: CountBounds, first_bins: usize) -> Option<Vec<f64>> {
        if first_bins < self.first_bins {
            return None;
        }
        let row = self.row(1)?;
        let mut len = bounds.row_len(1, row.len() - 1);
        let mut surv = vec![1.0, row[len]];
        for n in 2..=bounds.n_cap() {
            if bounds.limit(n) < 0 || len == 0 {
                surv.push(0.0);
                break;
            }
            let row = self.row(n)?;
            len = bounds.row_len(n, row.len() - 1);
            let total = row[len];
            surv.push(total);
            if total < 1e-16 && n > bounds.n_typ {
                break;
            }
        }
        Some(surv)
    }
}

/// Identity of a count plan: pitch parameters and grid step as bit
/// patterns, and the start policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CountPlanKey {
    pitch: [u64; 4],
    step: u64,
    start: StartPolicy,
}

#[derive(Debug)]
struct CountPlanSlot {
    key: CountPlanKey,
    plan: Option<Arc<CountPlan>>,
    /// Grid width of the narrowest plan that passed the budget: bounds
    /// this wide or wider go straight to the reference loop.
    too_wide: isize,
}

/// The slot for `key`, created if missing. Slots are kept least recently
/// used first, and the first is evicted when the cache is full.
fn count_plan_slot(slots: &mut Vec<CountPlanSlot>, key: CountPlanKey) -> &mut CountPlanSlot {
    let slot = match slots.iter().position(|s| s.key == key) {
        Some(i) => slots.remove(i),
        None => {
            if slots.len() >= COUNT_PLAN_SLOTS {
                slots.remove(0);
            }
            CountPlanSlot {
                key,
                plan: None,
                too_wide: isize::MAX,
            }
        }
    };
    slots.push(slot);
    slots.last_mut().expect("slot just pushed")
}

/// Process-wide count plans. Shared instead of thread-local, unlike the
/// sweep plans: a plan is megabytes and costs about one reference call to
/// build, while a warm query is a handful of reads.
static COUNT_PLANS: Mutex<Vec<CountPlanSlot>> = Mutex::new(Vec::new());

/// Find `θ ≥ 0` such that `ln M(θ) = target` (`M` is the pitch MGF;
/// `ln M` is 0 at 0 and strictly increasing for `θ > 0`, so bisection
/// after exponential bracket growth is exact).
fn solve_tilt(pitch: &TruncatedGaussian, target: f64) -> Result<f64> {
    if target <= 0.0 {
        return Ok(0.0);
    }
    let sd = pitch.parent_sd();
    let mut hi = 1.0 / sd.max(1e-9);
    for _ in 0..200 {
        let (_, ln_m) = pitch.tilted(hi)?;
        if ln_m >= target {
            break;
        }
        hi *= 2.0;
    }
    let (mut lo, mut hi) = (0.0, hi);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        let (_, ln_m) = pitch.tilted(mid)?;
        if ln_m < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Stratified, importance-sampled Monte-Carlo estimator of the failure
/// probability `pF(W) = E[pf^{N(W)}]` — the stochastic twin of the analytic
/// back-ends, engineered so rare-event targets (1e-9 and below) converge in
/// thousands of trials instead of `1/pF`:
///
/// * **Zero-count stratum, exact.** `Prob{N = 0} = Prob{first gap > W}` is
///   computed analytically ([`RenewalCount::first_gap_survival`]) and
///   contributes `pf⁰ = 1` deterministically. Only the `N ≥ 1` tail is
///   sampled, so corners with `pf = 0` (all-semiconducting) converge with
///   zero variance instead of stalling on an unobservable ~1e-300 event.
/// * **Exponentially tilted tail.** Conditioned on `G ≤ W`, the remaining
///   pitches are drawn from the tilted density `f(x)e^{θx}/M(θ)`
///   ([`TruncatedGaussian::tilted`]) at the Cramér root `pf·M(θ) = 1`,
///   and each trial is re-weighted by the exact likelihood ratio
///   `M(θ)^{n+1}·e^{−θT}`. At that root a trial's value collapses to
///   `e^{−θT} ≤ e^{−θ·span}`: bounded, light-tailed, with
///   width-independent relative variance. Unbiased for every `θ`; the
///   choice only buys variance.
///
/// A sampler is immutable and `Sync`: one instance can serve every worker
/// thread of an adaptive run, each with its own RNG.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureSampler {
    renewal: RenewalCount,
    width: f64,
    pf: f64,
    p_empty: f64,
    tilt: TruncatedGaussian,
    theta: f64,
    ln_m: f64,
    /// Hoisted `pf.ln() + ln_m` — the per-CNT log-weight of a trial.
    ln_pf_m: f64,
    /// Hoisted rejection envelope `mean + 10σ` of the equilibrium
    /// first-gap draw (stationary start).
    gap_cap: f64,
    /// Hoisted conditional first-gap mass `F(width)` (ordinary start).
    gap_mass: f64,
}

impl FailureSampler {
    /// The exact zero-count stratum probability `Prob{N(W) = 0}`.
    pub fn p_empty(&self) -> f64 {
        self.p_empty
    }

    /// The sampled stratum's weight `Prob{N ≥ 1} = 1 − p_empty`.
    pub fn tail_weight(&self) -> f64 {
        1.0 - self.p_empty
    }

    /// The tilt parameter in use (0 when `pf ∈ {0, 1}` — no tilt needed).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The gate width this sampler estimates `pF` for (nm).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// One unbiased sample of `E[pf^N | N ≥ 1]`: draw the first gap from
    /// its conditional distribution, grow tilted pitches until the region
    /// is crossed, and return `pf^{1+n}` times the likelihood ratio.
    ///
    /// The loop consumes the RNG stream in exactly the same order as it
    /// always has (first-gap uniforms, then one uniform per tilted draw),
    /// and every operation is the same f64 expression — the PR 7 speedups
    /// here are monomorphized sampling (no `dyn RngCore` round trip per
    /// uniform) and hoisted per-trial constants, both bit-preserving.
    pub fn sample_tail(&self, mut rng: &mut (impl Rng + ?Sized)) -> f64 {
        if self.pf == 0.0 {
            return 0.0;
        }
        let g = self.sample_first_gap_within_fast(&mut rng);
        let span = self.width - g;
        let mut t = 0.0;
        let mut n = 0u64;
        loop {
            let x = self.tilt.sample_fast(&mut rng);
            t += x;
            if t > span || n > 1_000_000 {
                break;
            }
            n += 1;
        }
        // N = 1 + n CNTs, and the trial consumed n + 1 tilted draws with
        // running sum t = T_{n+1}, so the likelihood ratio is
        // M(θ)^{n+1}·e^{−θ·T_{n+1}} and the sample is pf^{n+1}·L.
        let count = n as f64 + 1.0;
        (count * self.ln_pf_m - self.theta * t).exp()
    }

    /// Fill `out` with consecutive [`Self::sample_tail`] draws — the batch
    /// fast path used by the adaptive driver's per-wave buffers.
    ///
    /// Bit-identical to `for v in out { *v = sampler.sample_tail(rng) }`:
    /// the RNG stream is consumed in the same order, trial by trial.
    /// Batching only removes per-trial call overhead from the hot loop.
    pub fn sample_tail_fill(&self, mut rng: &mut (impl Rng + ?Sized), out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = self.sample_tail(&mut rng);
        }
    }

    /// [`RenewalCount::sample_first_gap_within`] with the per-trial
    /// constants (`gap_cap`, `gap_mass`) pre-computed at sampler build.
    /// Identical draw composition, uniform for uniform.
    fn sample_first_gap_within_fast(&self, mut rng: &mut (impl Rng + ?Sized)) -> f64 {
        match self.renewal.start {
            StartPolicy::Ordinary => {
                let u: f64 = rng.gen::<f64>().clamp(1e-16, 1.0 - 1e-16);
                self.renewal
                    .pitch
                    .quantile((u * self.gap_mass).min(1.0 - 1e-16))
                    .min(self.width)
            }
            StartPolicy::Stationary => {
                for _ in 0..100_000 {
                    let g = loop {
                        let x = self.renewal.pitch.sample_fast(&mut rng);
                        let accept: f64 = rng.gen();
                        if accept < (x / self.gap_cap).min(1.0) {
                            break rng.gen::<f64>() * x;
                        }
                    };
                    if g <= self.width {
                        return g;
                    }
                }
                // Statistically unreachable unless p_empty ≈ 1; fall back to
                // a uniform position so callers never loop forever.
                rng.gen::<f64>() * self.width
            }
        }
    }

    /// Combine a mean of [`Self::sample_tail`] values into the full
    /// estimate `p_empty + (1 − p_empty)·tail_mean`, clamped to `[0, 1]`.
    pub fn estimate_from_tail_mean(&self, tail_mean: f64) -> f64 {
        (self.p_empty + self.tail_weight() * tail_mean).clamp(0.0, 1.0)
    }

    /// Serial convenience: estimate `pF` with `trials` tail samples.
    ///
    /// # Errors
    ///
    /// Rejects zero trials.
    pub fn estimate(&self, trials: u32, mut rng: &mut (impl Rng + ?Sized)) -> Result<f64> {
        if trials == 0 {
            return Err(StatsError::InvalidParameter {
                name: "trials",
                value: 0.0,
                constraint: "must be >= 1",
            });
        }
        let mut acc = 0.0;
        for _ in 0..trials {
            acc += self.sample_tail(&mut rng);
        }
        Ok(self.estimate_from_tail_mean(acc / f64::from(trials)))
    }
}

/// Distribution of the CNT count under a gate of a specific width.
///
/// Produced by [`RenewalCount::distribution`]; the PGF method is the paper's
/// Eq. (2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct CountDistribution {
    dist: DiscreteDist,
    width: f64,
}

impl CountDistribution {
    /// Build from a raw PMF vector (index = count). Normalizes defensively.
    ///
    /// # Errors
    ///
    /// Returns an error if the PMF is empty or contains invalid mass.
    pub fn from_pmf(pmf: Vec<f64>, width: f64) -> Result<Self> {
        let dist = DiscreteDist::from_weights(&pmf)?;
        Ok(Self { dist, width })
    }

    /// Build from survival values `surv[n] = P(N ≥ n)`, starting at
    /// `surv[0] = 1`; the last count takes all of its survival mass.
    fn from_survival(surv: &[f64], width: f64) -> Result<Self> {
        let pmf = (0..surv.len())
            .map(|n| (surv[n] - surv.get(n + 1).copied().unwrap_or(0.0)).max(0.0))
            .collect();
        Self::from_pmf(pmf, width)
    }

    /// The gate width this distribution was computed for (nm).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// `Prob{N = n}`.
    pub fn pmf(&self, n: usize) -> f64 {
        self.dist.pmf(n)
    }

    /// Largest count with non-zero probability.
    pub fn support_max(&self) -> usize {
        self.dist.pmf_slice().len() - 1
    }

    /// Mean CNT count.
    pub fn mean(&self) -> f64 {
        self.dist.mean()
    }

    /// Variance of the CNT count.
    pub fn variance(&self) -> f64 {
        self.dist.variance()
    }

    /// Probability that the region contains no CNT at all.
    pub fn p_empty(&self) -> f64 {
        self.dist.pmf(0)
    }

    /// Probability generating function `E[z^N]` — Eq. (2.2) at `z = pf`.
    pub fn pgf(&self, z: f64) -> f64 {
        self.dist.pgf(z)
    }

    /// Draw a count.
    pub fn sample(&self, rng: &mut (impl Rng + ?Sized)) -> usize {
        self.dist.sample(rng)
    }

    /// Access the underlying discrete distribution.
    pub fn as_discrete(&self) -> &DiscreteDist {
        &self.dist
    }
}

/// Raw moment `E[X^k]` of a continuous distribution by Simpson quadrature
/// over its effective support.
fn numeric_raw_moment(dist: &TruncatedGaussian, k: u32) -> f64 {
    let lo = dist.lo().max(dist.parent_mean() - 12.0 * dist.parent_sd());
    let hi = dist
        .hi()
        .min(dist.parent_mean() + 12.0 * dist.parent_sd())
        .max(lo + 1e-9);
    let n = 2000usize; // even
    let h = (hi - lo) / n as f64;
    let f = |x: f64| x.powi(k as i32) * dist.pdf(x);
    let mut acc = f(lo) + f(hi);
    for i in 1..n {
        let x = lo + i as f64 * h;
        acc += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
    }
    acc * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pitch() -> TruncatedGaussian {
        TruncatedGaussian::positive(4.0, 3.3).unwrap()
    }

    #[test]
    fn zero_width_means_zero_count() {
        let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
        let d = rc.distribution(0.0).unwrap();
        assert_eq!(d.pmf(0), 1.0);
        assert_eq!(d.mean(), 0.0);
        // A zero-width CNFET always fails: PGF(pf) = 1.
        assert_eq!(d.pgf(0.5), 1.0);
    }

    #[test]
    fn stationary_mean_count_is_width_over_pitch() {
        // Exact renewal-theory identity: E[N] = W/S̄ under the stationary
        // start, for every W. Check with the convolution back-end.
        let rc = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.02 });
        let m = rc.pitch().mean();
        for w in [20.0, 60.0, 155.0] {
            let d = rc.distribution(w).unwrap();
            let want = w / m;
            assert!(
                (d.mean() - want).abs() / want < 0.02,
                "W={w}: mean {} want {want}",
                d.mean()
            );
        }
    }

    #[test]
    fn backends_agree_on_moments() {
        let w = 100.0;
        let clt = RenewalCount::new(pitch(), CountModel::GaussianSum)
            .distribution(w)
            .unwrap();
        let conv = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.02 })
            .distribution(w)
            .unwrap();
        let mc = RenewalCount::new(
            pitch(),
            CountModel::MonteCarlo {
                trials: 60_000,
                seed: 7,
            },
        )
        .distribution(w)
        .unwrap();
        assert!(
            (clt.mean() - conv.mean()).abs() < 0.5,
            "clt {} vs conv {}",
            clt.mean(),
            conv.mean()
        );
        assert!(
            (mc.mean() - conv.mean()).abs() < 0.3,
            "mc {} vs conv {}",
            mc.mean(),
            conv.mean()
        );
        assert!(
            (mc.variance() - conv.variance()).abs() / conv.variance() < 0.1,
            "mc var {} vs conv var {}",
            mc.variance(),
            conv.variance()
        );
    }

    #[test]
    fn backends_agree_on_pgf_in_the_deep_tail() {
        // The PGF at pf ≈ 0.5 reaches the 1e-7 regime at W = 100 nm; the CLT
        // and the exact convolution should agree within a factor ~2 there,
        // and the convolution result must be insensitive to the grid step.
        let w = 100.0;
        let pf = 0.531;
        let conv_fine = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.01 })
            .failure_probability(w, pf)
            .unwrap();
        let conv = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.05 })
            .failure_probability(w, pf)
            .unwrap();
        let clt = RenewalCount::new(pitch(), CountModel::GaussianSum)
            .failure_probability(w, pf)
            .unwrap();
        assert!(
            (conv - conv_fine).abs() / conv_fine < 0.05,
            "grid sensitivity: {conv} vs {conv_fine}"
        );
        let ratio = clt / conv_fine;
        assert!(
            (0.3..3.0).contains(&ratio),
            "CLT {clt} vs conv {conv_fine} (ratio {ratio})"
        );
    }

    #[test]
    fn conv_pgf_deep_tail_p_empty_does_not_cancel() {
        // pf = 0 reduces pF to P{N = 0}, which is ~1e-11 at W = 25 nm. The
        // direct sweep must agree with the per-n distribution instead of
        // flooring to 0 through `1 − covered` cancellation.
        let rc = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.05 });
        for w in [20.0, 25.0] {
            let sweep = rc.failure_probability(w, 0.0).unwrap();
            let exact = rc.distribution(w).unwrap().pgf(0.0);
            assert!(sweep > 0.0, "W={w}: deep-tail p_empty floored to zero");
            assert!(
                (sweep - exact).abs() / exact < 0.05,
                "W={w}: sweep {sweep:.3e} vs distribution {exact:.3e}"
            );
        }
    }

    #[test]
    fn failure_probability_decreases_with_width() {
        let rc = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.05 });
        let mut last = 1.0;
        for w in [20.0, 40.0, 80.0, 120.0, 160.0] {
            let p = rc.failure_probability(w, 0.531).unwrap();
            assert!(p < last, "pF must fall with W: pF({w}) = {p} >= {last}");
            last = p;
        }
    }

    #[test]
    fn ordinary_start_counts_fewer_cnts_near_zero_width() {
        // With W ≪ S, the stationary start sees a CNT with probability
        // ≈ W/S̄ while the ordinary start must wait a full pitch.
        let w = 1.0;
        let stat = RenewalCount::new(
            pitch(),
            CountModel::MonteCarlo {
                trials: 40_000,
                seed: 3,
            },
        )
        .distribution(w)
        .unwrap();
        let ord = RenewalCount::new(
            pitch(),
            CountModel::MonteCarlo {
                trials: 40_000,
                seed: 3,
            },
        )
        .with_start(StartPolicy::Ordinary)
        .distribution(w)
        .unwrap();
        assert!(stat.mean() > 0.0);
        assert!(
            stat.mean() > ord.mean(),
            "stationary {} vs ordinary {}",
            stat.mean(),
            ord.mean()
        );
    }

    #[test]
    fn input_validation() {
        let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
        assert!(rc.distribution(-1.0).is_err());
        assert!(rc.distribution(f64::NAN).is_err());
        assert!(rc.failure_probability(100.0, 1.5).is_err());
        assert!(
            RenewalCount::new(pitch(), CountModel::Convolution { step: 0.0 })
                .distribution(10.0)
                .is_err()
        );
        assert!(
            RenewalCount::new(pitch(), CountModel::MonteCarlo { trials: 0, seed: 0 })
                .distribution(10.0)
                .is_err()
        );
    }

    #[test]
    fn first_gap_survival_matches_distribution_p_empty() {
        let rc = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.02 });
        for w in [2.0, 8.0, 20.0] {
            let exact = rc.distribution(w).unwrap().p_empty();
            let direct = rc.first_gap_survival(w).unwrap();
            assert!(
                (direct - exact).abs() / exact.max(1e-300) < 0.05,
                "W={w}: survival {direct:.3e} vs distribution {exact:.3e}"
            );
        }
        let ord =
            RenewalCount::new(pitch(), CountModel::GaussianSum).with_start(StartPolicy::Ordinary);
        let w = 6.0;
        assert!((ord.first_gap_survival(w).unwrap() - (1.0 - ord.pitch().cdf(w))).abs() < 1e-12);
        assert!(rc.first_gap_survival(-1.0).is_err());
    }

    #[test]
    fn conditional_first_gap_stays_inside_the_region() {
        let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
        let mut rng = StdRng::seed_from_u64(11);
        for &w in &[1.0, 4.0, 40.0] {
            for _ in 0..500 {
                let g = rc.sample_first_gap_within(w, &mut rng);
                assert!((0.0..=w).contains(&g), "W={w}: gap {g} escaped");
            }
        }
        let ord = rc.with_start(StartPolicy::Ordinary);
        for _ in 0..500 {
            let g = ord.sample_first_gap_within(3.0, &mut rng);
            assert!((0.0..=3.0).contains(&g));
        }
    }

    #[test]
    fn tilted_sampler_matches_convolution_in_the_deep_tail() {
        // pF(103) ≈ 1e-6 and pF(155) ≈ 1e-9 under the paper corner: naive
        // MC would need 1e9+ trials, the tilted sampler percent-level
        // accuracy in 20k.
        let pf = 0.531;
        for w in [103.0, 155.0] {
            let conv = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.02 })
                .failure_probability(w, pf)
                .unwrap();
            let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
            let sampler = rc.failure_sampler(w, pf).unwrap();
            assert!(sampler.theta() > 0.0, "deep tail must tilt");
            let mut rng = StdRng::seed_from_u64(5);
            let est = sampler.estimate(20_000, &mut rng).unwrap();
            let ratio = est / conv;
            assert!(
                (0.85..1.18).contains(&ratio),
                "W={w}: tilted MC {est:.3e} vs conv {conv:.3e} (ratio {ratio:.3})"
            );
        }
    }

    #[test]
    fn sampler_pf_zero_reduces_to_exact_empty_stratum() {
        let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
        let w = 20.0;
        let sampler = rc.failure_sampler(w, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let est = sampler.estimate(10, &mut rng).unwrap();
        assert_eq!(est, sampler.p_empty(), "pf = 0 must be variance-free");
        let conv = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.05 })
            .failure_probability(w, 0.0)
            .unwrap();
        assert!(
            (est - conv).abs() / conv < 0.05,
            "p_empty {est:.3e} vs conv {conv:.3e}"
        );
        // pf = 1 is also exact: every trial contributes exactly 1.
        let one = rc.failure_sampler(w, 1.0).unwrap();
        assert_eq!(one.estimate(10, &mut rng).unwrap(), 1.0);
    }

    #[test]
    fn mc_failure_probability_is_seeded() {
        let w = 60.0;
        let pf = 0.531;
        let a = RenewalCount::new(
            pitch(),
            CountModel::MonteCarlo {
                trials: 4000,
                seed: 9,
            },
        )
        .failure_probability(w, pf)
        .unwrap();
        let b = RenewalCount::new(
            pitch(),
            CountModel::MonteCarlo {
                trials: 4000,
                seed: 9,
            },
        )
        .failure_probability(w, pf)
        .unwrap();
        let c = RenewalCount::new(
            pitch(),
            CountModel::MonteCarlo {
                trials: 4000,
                seed: 10,
            },
        )
        .failure_probability(w, pf)
        .unwrap();
        assert_eq!(a, b, "same seed, same estimate");
        assert_ne!(a, c, "different seed, different estimate");
        let conv = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.05 })
            .failure_probability(w, pf)
            .unwrap();
        assert!(
            (a / conv - 1.0).abs() < 0.25,
            "mc {a:.3e} vs conv {conv:.3e}"
        );
        assert!(
            RenewalCount::new(pitch(), CountModel::MonteCarlo { trials: 0, seed: 0 })
                .failure_probability(w, pf)
                .is_err()
        );
    }

    #[test]
    fn equilibrium_moments_match_theory() {
        // For the equilibrium first gap: E[X_e] = (S̄² + σ²)/(2 S̄).
        let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
        let (me, ve) = rc.first_gap_moments();
        let m = rc.pitch().mean();
        let v = rc.pitch().variance();
        let want = (m * m + v) / (2.0 * m);
        assert!((me - want).abs() < 1e-6, "me {me} want {want}");
        assert!(ve > 0.0);
    }

    #[test]
    fn cached_conv_sweep_is_bit_identical_to_reference() {
        // The plan cache, incremental extension, chunked dot product, and
        // zero-prefix tail skip must not change a single bit vs the
        // single-shot reference sweep — in any query order.
        for start in [StartPolicy::Stationary, StartPolicy::Ordinary] {
            for step in [0.05, 0.11] {
                let rc =
                    RenewalCount::new(pitch(), CountModel::Convolution { step }).with_start(start);
                // Descending then ascending widths: exercises both the
                // extend path and the fully-cached-prefix path.
                for w in [155.0, 60.0, 103.0, 7.3, 900.0, 155.0, 2000.0] {
                    for pfv in [0.0, 0.2, 0.531, 1.0] {
                        let fast = rc.failure_probability(w, pfv).unwrap();
                        let slow = rc.failure_probability_conv_reference(w, pfv, step).unwrap();
                        assert_eq!(
                            fast.to_bits(),
                            slow.to_bits(),
                            "{start:?} step={step} W={w} pf={pfv}: {fast:e} vs {slow:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_pitch_survivor_stays_zero_once_saturated() {
        // The first-gap extension stops calling the CDF at the first bin
        // edge whose survivor is exactly 0.0. That is bit-exact only if no
        // later edge has a non-zero survivor: walk the paper pitch
        // (S = 4 nm, σ_S/S = 0.8) on the production grid to the `W_min`
        // solver's 2000 nm bracket edge.
        let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.2).unwrap();
        let h = 0.05;
        let surv = |j: usize| 1.0 - pitch.cdf((j as f64 + 0.5) * h);
        let first_zero = (0..=40_000)
            .find(|&j| surv(j) == 0.0)
            .expect("the survivor reaches exactly 0.0");
        assert!(
            first_zero as f64 * h < 50.0,
            "saturates at bin {first_zero}"
        );
        for j in first_zero..=40_000 {
            assert_eq!(surv(j).to_bits(), 0.0f64.to_bits(), "bin {j}");
        }
    }

    #[test]
    fn concurrent_count_plan_queries_match_the_reference() {
        // Four threads start together and widen, read and rebuild one
        // shared count plan at once, each in its own width order. Whatever
        // plan a query finds, or builds, it must match the single-shot loop.
        let rc = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.5 });
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (rc, barrier) = (&rc, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..6 {
                        let w = 10.0 + 15.0 * ((t + k) % 6) as f64 + t as f64;
                        let bits = |d: CountDistribution| -> Vec<u64> {
                            d.as_discrete()
                                .pmf_slice()
                                .iter()
                                .map(|p| p.to_bits())
                                .collect()
                        };
                        assert_eq!(
                            bits(rc.distribution(w).unwrap()),
                            bits(rc.distribution_conv_reference(w, 0.5).unwrap()),
                            "thread {t}, W = {w}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn batch_entry_points_match_scalar() {
        let rc = RenewalCount::new(pitch(), CountModel::Convolution { step: 0.05 });
        let widths = [5.0, 60.0, 103.0, 155.0, 2000.0];
        let batch = rc.failure_probabilities(&widths, 0.531).unwrap();
        let conv_batch = rc.failure_probabilities_conv(&widths, 0.531, 0.05).unwrap();
        for (i, &w) in widths.iter().enumerate() {
            let scalar = rc.failure_probability(w, 0.531).unwrap();
            assert_eq!(batch[i].to_bits(), scalar.to_bits());
            assert_eq!(conv_batch[i].to_bits(), scalar.to_bits());
        }
        // Batch validation mirrors the scalar contract.
        assert!(rc.failure_probabilities(&widths, 1.5).is_err());
        assert!(rc.failure_probabilities_conv(&[-1.0], 0.5, 0.05).is_err());
        assert!(rc.failure_probabilities_conv(&widths, 0.5, 0.0).is_err());
    }

    #[test]
    fn sample_tail_fill_matches_scalar_loop() {
        let rc = RenewalCount::new(pitch(), CountModel::GaussianSum);
        for start in [StartPolicy::Stationary, StartPolicy::Ordinary] {
            let sampler = rc
                .clone()
                .with_start(start)
                .failure_sampler(103.0, 0.531)
                .unwrap();
            let mut filled = vec![0.0; 257];
            sampler.sample_tail_fill(&mut StdRng::seed_from_u64(42), &mut filled);
            let mut rng = StdRng::seed_from_u64(42);
            for (i, &v) in filled.iter().enumerate() {
                let s = sampler.sample_tail(&mut rng);
                assert_eq!(v.to_bits(), s.to_bits(), "{start:?} trial {i}");
            }
        }
    }
}
