//! Memoized `pF(W)` curves — the shared hot path of every `W_min` solve.
//!
//! Every experiment in the reproduction ultimately asks the same question
//! many times over: *what is the device failure probability at width `W`?*
//! The exact convolution back-end answers it from a thread-local sweep
//! plan per `(pitch, pf)`: the first query of a corner on a thread builds
//! the plan out to the widest width asked (5–9 ms for the 2000 nm edge
//! of the `W_min` bracket), a new width then costs one tail sum over the
//! pitch support, and a repeated width is a memo lookup (about 20 ns). The
//! Monte-Carlo back-end ([`crate::stochastic::McFailure`]) costs tens of
//! milliseconds per width. `W_min` bisection, scaling studies, and
//! library-wide penalty tables ask the same `(corner, backend)` curve at
//! many widths, from many threads.
//!
//! [`FailureCurve`] wraps a [`FailureModel`] with a concurrent memoization
//! layer: exact evaluations are cached at dyadic widths and queries between
//! them are answered by monotone linear interpolation **in log space**
//! (`ln pF` vs `W`), refined adaptively until a per-segment midpoint test
//! certifies the interpolant to a relative tolerance. Refinement points are
//! fixed dyadic subdivisions of the domain, so the cached curve — and every
//! answer it returns — is a pure function of the model, independent of query
//! order or thread interleaving. That determinism is what lets a sweep
//! share one curve across its threads without losing reproducibility.
//!
//! The [`PFailure`] trait abstracts "something that can evaluate `pF(W)`"
//! so [`crate::wmin::WminSolver`] and the fixed-point helpers run unchanged
//! on either the exact model or a shared curve.

use crate::failure::FailureModel;
use crate::{CoreError, Result};
use cnt_stats::FastMap;
use std::sync::RwLock;

/// Anything that can evaluate the device failure probability `pF(W)`.
///
/// Implemented by the exact [`FailureModel`] and by the memoizing
/// [`FailureCurve`]; references and `Arc`s forward, so solvers can borrow a
/// shared curve.
pub trait PFailure {
    /// Device failure probability at width `w` (nm).
    ///
    /// # Errors
    ///
    /// Implementations reject non-finite or non-positive widths.
    fn p_failure(&self, w: f64) -> Result<f64>;

    /// Batch evaluation of `pF` at many widths.
    ///
    /// The contract for every implementation: element-wise **bit-identical**
    /// to calling [`PFailure::p_failure`] per width. Overrides may amortize
    /// setup (one renewal sweep plan, one cache lock) but must never change
    /// answers. The default simply loops.
    ///
    /// # Errors
    ///
    /// Per-element errors of [`PFailure::p_failure`]; the first failing
    /// width aborts the batch.
    fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        widths.iter().map(|&w| self.p_failure(w)).collect()
    }

    /// Invert the monotone-decreasing `pF(W)`: the smallest width (to
    /// 0.01 nm) with `pF(W) ≤ target` inside `[w_lo, w_hi]`, by bisection.
    /// A target at or above `pF(w_lo)` is met everywhere in the bracket,
    /// so the answer is `w_lo` itself — heavily relaxed requirements
    /// (long correlation and redundancy together can push the target
    /// near 1) must not read as solver failures.
    ///
    /// Overrides must return bit-identical widths to this default (the
    /// bisection decision sequence is a pure function of the evaluator, so
    /// caching/batching the probe evaluations cannot change the result).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a target outside `(0, 1)`;
    /// [`CoreError::NoConvergence`] if even `pF(w_hi)` misses the target
    /// (infeasible inside the bracket).
    fn width_for_failure(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        if !(target > 0.0 && target < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "target",
                value: target,
                constraint: "must be in (0, 1)",
            });
        }
        let f_lo = self.p_failure(w_lo)?;
        let f_hi = self.p_failure(w_hi)?;
        // pF decreases with W.
        if f_hi > target {
            return Err(CoreError::NoConvergence(
                "width_for_failure: target not bracketed",
            ));
        }
        if f_lo <= target {
            return Ok(w_lo);
        }
        let (mut lo, mut hi) = (w_lo, w_hi);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.p_failure(mid)? > target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 0.01 {
                break;
            }
        }
        // Return the side that satisfies pF(W) <= target, so callers can
        // rely on the requirement being met.
        Ok(hi)
    }
}

impl PFailure for FailureModel {
    fn p_failure(&self, w: f64) -> Result<f64> {
        FailureModel::p_failure(self, w)
    }

    fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        FailureModel::p_failures(self, widths)
    }
}

impl<T: PFailure + ?Sized> PFailure for &T {
    fn p_failure(&self, w: f64) -> Result<f64> {
        (**self).p_failure(w)
    }

    fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        (**self).p_failures(widths)
    }

    fn width_for_failure(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        (**self).width_for_failure(target, w_lo, w_hi)
    }
}

impl<T: PFailure + ?Sized> PFailure for std::sync::Arc<T> {
    fn p_failure(&self, w: f64) -> Result<f64> {
        (**self).p_failure(w)
    }

    fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        (**self).p_failures(widths)
    }

    fn width_for_failure(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        (**self).width_for_failure(target, w_lo, w_hi)
    }
}

/// Invert a monotone-decreasing `pF(W)` by bisection: the smallest width
/// (to 0.01 nm) with `pF(W) ≤ target` inside `[w_lo, w_hi]`.
///
/// Free-function form of [`PFailure::width_for_failure`] — it delegates to
/// the trait method, so evaluators with a faster override (e.g.
/// [`FailureCurve`]'s memoized, cache-aware bisection) are picked up by
/// every solver that routes through here.
///
/// # Errors
///
/// Same as [`PFailure::width_for_failure`].
pub fn width_for_failure<E: PFailure + ?Sized>(
    eval: &E,
    target: f64,
    w_lo: f64,
    w_hi: f64,
) -> Result<f64> {
    eval.width_for_failure(target, w_lo, w_hi)
}

/// `ln pF` floor: probabilities below `exp(-690) ≈ 1e-300` are treated as
/// equal (they underflow any quantity the paper reports).
const LN_FLOOR: f64 = -690.0;

/// Cached state: exact `ln pF` knots at dyadic widths, plus finished
/// inversion results. Both maps memoize pure functions of the model, so
/// concurrent inserts always agree.
#[derive(Default)]
struct CurveState {
    ln_pf: FastMap<u64, f64>,
    /// `(target, w_lo, w_hi)` bits → converged `W`; a bisection repeated
    /// with the same bracket is a lookup.
    inversions: FastMap<(u64, u64, u64), f64>,
    evals: u64,
}

/// A memoized, monotone-interpolated `pF(W)` curve over a fixed domain.
///
/// Queries inside the domain descend a dyadic segment tree rooted at
/// `[w_lo, w_hi]`; a segment answers by linear interpolation of `ln pF`
/// once two consecutive dyadic levels pass their midpoint tests at the
/// curve's relative tolerance, and triggers one exact evaluation per
/// level otherwise. Queries outside the domain fall back to (memoized) exact
/// evaluation.
///
/// The curve is generic over its evaluator: the default
/// [`FailureModel`] gives the analytic back-ends, and a stochastic
/// evaluator like [`crate::stochastic::McFailure`] plugs in unchanged —
/// a Monte-Carlo estimate at a fixed `(seed, width)` is still a pure
/// function of the model, so memoization and determinism carry over.
/// Stochastic evaluators should pair with a widened `rel_tol` (at least a
/// few times the Monte-Carlo relative CI) so sampling noise does not read
/// as curvature; see [`FailureCurve::with_rel_tol`].
///
/// The curve is `Sync` (for `Sync` evaluators): share it across threads
/// with `&FailureCurve` or `Arc<FailureCurve>`, both of which implement
/// [`PFailure`].
pub struct FailureCurve<E: PFailure = FailureModel> {
    model: E,
    w_lo: f64,
    w_hi: f64,
    rel_tol: f64,
    min_segment: f64,
    state: RwLock<CurveState>,
}

impl<E: PFailure + std::fmt::Debug> std::fmt::Debug for FailureCurve<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureCurve")
            .field("model", &self.model)
            .field("domain", &(self.w_lo, self.w_hi))
            .field("rel_tol", &self.rel_tol)
            .field("knots", &self.knots())
            .finish()
    }
}

impl<E: PFailure + Clone> Clone for FailureCurve<E> {
    /// Cloning copies the cached knots, so a clone starts warm.
    fn clone(&self) -> Self {
        let state = self.state.read().expect("curve lock poisoned");
        Self {
            model: self.model.clone(),
            w_lo: self.w_lo,
            w_hi: self.w_hi,
            rel_tol: self.rel_tol,
            min_segment: self.min_segment,
            state: RwLock::new(CurveState {
                ln_pf: state.ln_pf.clone(),
                inversions: state.inversions.clone(),
                evals: state.evals,
            }),
        }
    }
}

impl<E: PFailure> FailureCurve<E> {
    /// Wrap a model with the default domain `[5, 2000] nm` (the `W_min`
    /// solver's bracket) and a 0.4 % relative tolerance.
    pub fn new(model: E) -> Self {
        Self {
            model,
            w_lo: 5.0,
            w_hi: 2000.0,
            rel_tol: 0.004,
            min_segment: 0.02,
            state: RwLock::new(CurveState::default()),
        }
    }

    /// Change the interpolation domain (builder style). Queries outside it
    /// are answered exactly rather than interpolated.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] unless `0 < w_lo < w_hi`.
    pub fn with_domain(mut self, w_lo: f64, w_hi: f64) -> Result<Self> {
        if !(w_lo.is_finite() && w_lo > 0.0 && w_hi.is_finite() && w_hi > w_lo) {
            return Err(CoreError::InvalidParameter {
                name: "w_lo/w_hi",
                value: w_lo,
                constraint: "need 0 < w_lo < w_hi, both finite",
            });
        }
        self.w_lo = w_lo;
        self.w_hi = w_hi;
        self.state = RwLock::new(CurveState::default());
        Ok(self)
    }

    /// Change the relative interpolation tolerance (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] outside `(0, 0.25]`.
    pub fn with_rel_tol(mut self, rel_tol: f64) -> Result<Self> {
        if !(rel_tol.is_finite() && rel_tol > 0.0 && rel_tol <= 0.25) {
            return Err(CoreError::InvalidParameter {
                name: "rel_tol",
                value: rel_tol,
                constraint: "must be in (0, 0.25]",
            });
        }
        self.rel_tol = rel_tol;
        self.state = RwLock::new(CurveState::default());
        Ok(self)
    }

    /// The wrapped evaluator (a model or a stochastic back-end).
    pub fn model(&self) -> &E {
        &self.model
    }

    /// The interpolation domain `(w_lo, w_hi)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.w_lo, self.w_hi)
    }

    /// The relative interpolation tolerance.
    pub fn rel_tol(&self) -> f64 {
        self.rel_tol
    }

    /// Number of exact model evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.state.read().expect("curve lock poisoned").evals
    }

    /// Number of cached exact knots.
    pub fn knots(&self) -> usize {
        self.state.read().expect("curve lock poisoned").ln_pf.len()
    }

    /// The curve's residency cost in cache-entry units — the knot count.
    /// Bounded cache layers (e.g. the pipeline's LRU) use this as the
    /// eviction weight of a resident curve.
    pub fn cache_cost(&self) -> usize {
        self.knots()
    }

    /// Eviction hook: drop every memoized knot (and the evaluation
    /// counter), keeping the model, domain, and tolerance. Because the
    /// cached knots are a pure function of the model, a cleared curve
    /// returns exactly the same answers — it only re-pays the exact
    /// evaluations. Lets long-lived caches shed memory without
    /// invalidating handles.
    pub fn clear_cache(&self) {
        let mut state = self.state.write().expect("curve lock poisoned");
        state.ln_pf.clear();
        state.inversions.clear();
        state.evals = 0;
    }

    /// Memoized `pF(w)`: exact on cache misses at dyadic refinement points,
    /// interpolated (within `rel_tol`) everywhere else.
    ///
    /// # Errors
    ///
    /// Rejects non-finite / non-positive widths; propagates model errors.
    pub fn p_failure(&self, w: f64) -> Result<f64> {
        if !(w.is_finite() && w > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "w",
                value: w,
                constraint: "must be finite and > 0",
            });
        }
        // Fast path: answerable from the cache alone under a read lock.
        if let Some(v) = self.try_cached(w) {
            return Ok(v);
        }
        let mut state = self.state.write().expect("curve lock poisoned");
        self.descend(&mut state, w)
    }

    /// Invert the curve: smallest width with `pF(W) ≤ target` (bisection
    /// over the memoized curve; see [`width_for_failure`]).
    ///
    /// Finished inversions are memoized per `(target, w_lo, w_hi)`, and a
    /// cold bisection prefetches every dyadic probe the cache can already
    /// answer in one read-lock pass, so warm `W_min` solves touch the lock
    /// once instead of ~20 times. Results are bit-identical to the serial
    /// bisection of [`PFailure::width_for_failure`].
    ///
    /// # Errors
    ///
    /// Same as [`width_for_failure`].
    pub fn width_for_failure(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        self.invert_cached(target, w_lo, w_hi)
    }

    /// Batch evaluation: answer every cache-resident width under a single
    /// read lock, then descend the misses under a single write lock.
    /// Element-wise bit-identical to [`FailureCurve::p_failure`] per width.
    ///
    /// # Errors
    ///
    /// Per-element errors of [`FailureCurve::p_failure`]; the first failing
    /// width aborts the batch.
    pub fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        let cached = self.try_cached_many(widths);
        if cached.iter().all(Option::is_some) {
            return Ok(cached.into_iter().map(|c| c.expect("checked")).collect());
        }
        let mut state = self.state.write().expect("curve lock poisoned");
        cached
            .into_iter()
            .zip(widths)
            .map(|(hit, &w)| match hit {
                Some(v) => Ok(v),
                None => {
                    if !(w.is_finite() && w > 0.0) {
                        return Err(CoreError::InvalidParameter {
                            name: "w",
                            value: w,
                            constraint: "must be finite and > 0",
                        });
                    }
                    self.descend(&mut state, w)
                }
            })
            .collect()
    }

    /// Sweep the curve over widths (drop-in for [`FailureModel::sweep`]).
    ///
    /// # Errors
    ///
    /// Propagates [`FailureCurve::p_failure`] errors.
    pub fn sweep(&self, widths: &[f64]) -> Result<Vec<crate::failure::FailurePoint>> {
        Ok(self
            .p_failures(widths)?
            .into_iter()
            .zip(widths)
            .map(|(p_failure, &width)| crate::failure::FailurePoint { width, p_failure })
            .collect())
    }

    /// Memoized, cache-aware bisection (see
    /// [`FailureCurve::width_for_failure`]). The probe values come from a
    /// one-lock prefetch of the dyadic candidate midpoints where possible;
    /// since every probe value is a pure function of the model, the
    /// decision sequence — and therefore the returned width — is exactly
    /// that of the default serial bisection.
    fn invert_cached(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        if !(target > 0.0 && target < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "target",
                value: target,
                constraint: "must be in (0, 1)",
            });
        }
        let key = (target.to_bits(), w_lo.to_bits(), w_hi.to_bits());
        if let Some(&w) = self
            .state
            .read()
            .expect("curve lock poisoned")
            .inversions
            .get(&key)
        {
            return Ok(w);
        }

        // Candidate probes: the exact midpoints the bisection tree can
        // visit in its first four levels (computed with the same
        // `0.5 * (a + b)` arithmetic, so the bit patterns match), plus the
        // bracket endpoints. One read lock answers all cache hits.
        fn push_mids(a: f64, b: f64, depth: u32, out: &mut Vec<f64>) {
            if depth == 0 {
                return;
            }
            let m = 0.5 * (a + b);
            out.push(m);
            push_mids(a, m, depth - 1, out);
            push_mids(m, b, depth - 1, out);
        }
        let mut cands = vec![w_lo, w_hi];
        push_mids(w_lo, w_hi, 4, &mut cands);
        let mut pre: FastMap<u64, f64> = FastMap::default();
        for (w, hit) in cands.iter().zip(self.try_cached_many(&cands)) {
            if let Some(v) = hit {
                pre.insert(w.to_bits(), v);
            }
        }
        let probe = |w: f64| -> Result<f64> {
            match pre.get(&w.to_bits()) {
                Some(&v) => Ok(v),
                None => self.p_failure(w),
            }
        };

        let f_lo = probe(w_lo)?;
        let f_hi = probe(w_hi)?;
        // pF decreases with W; mirror the trait default exactly — an
        // infeasible bracket errors, a trivially-met target is `w_lo`.
        if f_hi > target {
            return Err(CoreError::NoConvergence(
                "width_for_failure: target not bracketed",
            ));
        }
        if f_lo <= target {
            self.state
                .write()
                .expect("curve lock poisoned")
                .inversions
                .insert(key, w_lo);
            return Ok(w_lo);
        }
        let (mut lo, mut hi) = (w_lo, w_hi);
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if probe(mid)? > target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 0.01 {
                break;
            }
        }
        self.state
            .write()
            .expect("curve lock poisoned")
            .inversions
            .insert(key, hi);
        Ok(hi)
    }

    /// Exact `ln pF(w)`, memoized.
    fn exact_ln(&self, state: &mut CurveState, w: f64) -> Result<f64> {
        if let Some(&v) = state.ln_pf.get(&w.to_bits()) {
            return Ok(v);
        }
        let p = self.model.p_failure(w)?;
        let ln = p.max(1e-300).ln().max(LN_FLOOR);
        state.ln_pf.insert(w.to_bits(), ln);
        state.evals += 1;
        Ok(ln)
    }

    /// The midpoint test: does the `(a, b)` secant reproduce the exact
    /// midpoint value `lm` to tolerance? A pure function of the three knot
    /// values, so every query recomputes it identically.
    fn secant_ok(&self, a: f64, la: f64, b: f64, lb: f64, lm: f64) -> bool {
        let secant = lerp(a, la, b, lb, 0.5 * (a + b));
        (lm - secant).abs() <= self.rel_tol.ln_1p()
            || (lm <= LN_FLOOR + 1.0 && secant <= LN_FLOOR + 1.0)
    }

    /// Attempt the whole descent using only cached values (read lock).
    /// Mirrors [`FailureCurve::descend`] exactly; `None` means some knot
    /// is missing and the write path must run.
    fn try_cached(&self, w: f64) -> Option<f64> {
        let state = self.state.read().expect("curve lock poisoned");
        self.try_cached_locked(&state, w)
    }

    /// Batch form of [`FailureCurve::try_cached`]: one read lock for the
    /// whole slice.
    fn try_cached_many(&self, ws: &[f64]) -> Vec<Option<f64>> {
        let state = self.state.read().expect("curve lock poisoned");
        ws.iter()
            .map(|&w| self.try_cached_locked(&state, w))
            .collect()
    }

    /// Cache-only descent under an already-held lock.
    fn try_cached_locked(&self, state: &CurveState, w: f64) -> Option<f64> {
        if let Some(&v) = state.ln_pf.get(&w.to_bits()) {
            return Some(v.exp());
        }
        if !(self.w_lo..=self.w_hi).contains(&w) {
            return None;
        }
        let (mut a, mut b) = (self.w_lo, self.w_hi);
        let mut la = *state.ln_pf.get(&a.to_bits())?;
        let mut lb = *state.ln_pf.get(&b.to_bits())?;
        loop {
            if b - a < self.min_segment {
                return Some(lerp(a, la, b, lb, w).exp());
            }
            let m = 0.5 * (a + b);
            let lm = *state.ln_pf.get(&m.to_bits())?;
            if w == m {
                return Some(lm.exp());
            }
            let parent_ok = self.secant_ok(a, la, b, lb, lm);
            if w < m {
                (b, lb) = (m, lm);
            } else {
                (a, la) = (m, lm);
            }
            if parent_ok {
                let hm = 0.5 * (a + b);
                let lhm = *state.ln_pf.get(&hm.to_bits())?;
                if w == hm {
                    return Some(lhm.exp());
                }
                if self.secant_ok(a, la, b, lb, lhm) {
                    return Some(if w < hm {
                        lerp(a, la, hm, lhm, w).exp()
                    } else {
                        lerp(hm, lhm, b, lb, w).exp()
                    });
                }
            }
        }
    }

    /// Full descent under the write lock, evaluating and memoizing as
    /// needed. Interpolation over a segment is only trusted after **two
    /// consecutive** levels pass their midpoint tests — the segment's
    /// secant must match its midpoint, and the half containing the query
    /// must again match its own midpoint — which catches curvature (or
    /// back-end kinks) hiding inside an accidentally-well-fit coarse
    /// segment. Every decision is a pure function of dyadic coordinates
    /// and the model, so results are independent of query and thread
    /// order.
    fn descend(&self, state: &mut CurveState, w: f64) -> Result<f64> {
        if let Some(&v) = state.ln_pf.get(&w.to_bits()) {
            return Ok(v.exp());
        }
        if !(self.w_lo..=self.w_hi).contains(&w) {
            // Outside the interpolation domain: exact, but still memoized.
            return Ok(self.exact_ln(state, w)?.exp());
        }
        let (mut a, mut b) = (self.w_lo, self.w_hi);
        let mut la = self.exact_ln(state, a)?;
        let mut lb = self.exact_ln(state, b)?;
        loop {
            if b - a < self.min_segment {
                return Ok(lerp(a, la, b, lb, w).exp());
            }
            let m = 0.5 * (a + b);
            let lm = self.exact_ln(state, m)?;
            if w == m {
                return Ok(lm.exp());
            }
            let parent_ok = self.secant_ok(a, la, b, lb, lm);
            if w < m {
                (b, lb) = (m, lm);
            } else {
                (a, la) = (m, lm);
            }
            if parent_ok {
                // Second-level check on the half containing the query; its
                // midpoint knot is memoized either way, so a failed check
                // just pre-pays the next loop iteration's evaluation.
                let hm = 0.5 * (a + b);
                let lhm = self.exact_ln(state, hm)?;
                if w == hm {
                    return Ok(lhm.exp());
                }
                if self.secant_ok(a, la, b, lb, lhm) {
                    return Ok(if w < hm {
                        lerp(a, la, hm, lhm, w).exp()
                    } else {
                        lerp(hm, lhm, b, lb, w).exp()
                    });
                }
            }
        }
    }
}

impl<E: PFailure> PFailure for FailureCurve<E> {
    fn p_failure(&self, w: f64) -> Result<f64> {
        FailureCurve::p_failure(self, w)
    }

    fn p_failures(&self, widths: &[f64]) -> Result<Vec<f64>> {
        FailureCurve::p_failures(self, widths)
    }

    fn width_for_failure(&self, target: f64, w_lo: f64, w_hi: f64) -> Result<f64> {
        self.invert_cached(target, w_lo, w_hi)
    }
}

/// Linear interpolation of `ln pF` between two knots.
fn lerp(a: f64, la: f64, b: f64, lb: f64, w: f64) -> f64 {
    la + (lb - la) * ((w - a) / (b - a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::ProcessCorner;
    use cnt_stats::renewal::CountModel;

    fn model() -> FailureModel {
        FailureModel::paper_default(ProcessCorner::aggressive().unwrap()).unwrap()
    }

    fn fast_model() -> FailureModel {
        model().with_backend(CountModel::GaussianSum)
    }

    #[test]
    fn matches_exact_at_anchors() {
        let m = model();
        let curve = FailureCurve::new(m.clone());
        for w in [60.0, 103.0, 155.0, 180.0] {
            let exact = m.p_failure(w).unwrap();
            let interp = curve.p_failure(w).unwrap();
            let rel = (interp / exact - 1.0).abs();
            assert!(rel < 0.01, "w = {w}: exact {exact:.4e}, curve {interp:.4e}");
        }
    }

    #[test]
    fn memoization_stops_reevaluating() {
        let curve = FailureCurve::new(fast_model());
        let p1 = curve.p_failure(123.0).unwrap();
        let evals = curve.evaluations();
        assert!(evals > 0);
        let p2 = curve.p_failure(123.0).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(curve.evaluations(), evals, "repeat query must be cached");
        // A nearby query in the now-validated neighbourhood is also free.
        let _ = curve.p_failure(123.5).unwrap();
        assert!(curve.evaluations() <= evals + 3);
    }

    #[test]
    fn query_order_does_not_change_answers() {
        let forward = FailureCurve::new(fast_model());
        let backward = FailureCurve::new(fast_model());
        let widths: Vec<f64> = (1..60).map(|i| 5.0 + 33.0 * i as f64).collect();
        let a: Vec<f64> = widths
            .iter()
            .map(|&w| forward.p_failure(w).unwrap())
            .collect();
        let b: Vec<f64> = widths
            .iter()
            .rev()
            .map(|&w| backward.p_failure(w).unwrap())
            .collect();
        for (x, y) in a.iter().zip(b.iter().rev()) {
            assert_eq!(x, y, "answers must not depend on query order");
        }
    }

    #[test]
    fn interpolation_is_monotone() {
        let curve = FailureCurve::new(fast_model());
        let mut last = f64::INFINITY;
        let mut w = 10.0;
        while w < 400.0 {
            let p = curve.p_failure(w).unwrap();
            assert!(p <= last * (1.0 + 1e-12), "pF must not increase at {w}");
            last = p;
            w += 1.3;
        }
    }

    #[test]
    fn outside_domain_is_exact() {
        let m = fast_model();
        let curve = FailureCurve::new(m.clone())
            .with_domain(50.0, 500.0)
            .unwrap();
        let w = 20.0;
        assert_eq!(
            curve.p_failure(w).unwrap(),
            m.p_failure(w).unwrap(),
            "out-of-domain queries bypass interpolation"
        );
    }

    #[test]
    fn inversion_matches_model_inversion() {
        let m = model();
        let curve = FailureCurve::new(m.clone());
        let w_curve = curve.width_for_failure(1e-6, 20.0, 200.0).unwrap();
        let w_model = m.width_for_failure(1e-6, 20.0, 200.0).unwrap();
        assert!(
            (w_curve - w_model).abs() < 0.5,
            "curve {w_curve} vs model {w_model}"
        );
    }

    #[test]
    fn shared_across_threads() {
        let curve = std::sync::Arc::new(FailureCurve::new(fast_model()));
        let solo = FailureCurve::new(fast_model());
        let widths: Vec<f64> = (0..64).map(|i| 20.0 + 7.0 * i as f64).collect();
        let mut results: Vec<(f64, f64)> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = widths
                .chunks(16)
                .map(|chunk| {
                    let curve = std::sync::Arc::clone(&curve);
                    let chunk = chunk.to_vec();
                    scope.spawn(move || {
                        chunk
                            .into_iter()
                            .map(|w| (w, curve.p_failure(w).unwrap()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                results.extend(h.join().unwrap());
            }
        });
        for (w, p) in results {
            assert_eq!(
                p,
                solo.p_failure(w).unwrap(),
                "thread-shared curve must agree with a cold curve at {w}"
            );
        }
    }

    #[test]
    fn validation() {
        let curve = FailureCurve::new(fast_model());
        assert!(curve.p_failure(-1.0).is_err());
        assert!(curve.p_failure(f64::NAN).is_err());
        assert!(FailureCurve::new(fast_model())
            .with_domain(10.0, 5.0)
            .is_err());
        assert!(FailureCurve::new(fast_model()).with_rel_tol(0.0).is_err());
        assert!(FailureCurve::new(fast_model()).with_rel_tol(0.5).is_err());
    }

    #[test]
    fn clear_cache_resets_cost_but_not_answers() {
        let curve = FailureCurve::new(fast_model());
        let before = curve.p_failure(123.0).unwrap();
        assert!(curve.cache_cost() > 0);
        assert_eq!(curve.cache_cost(), curve.knots());
        curve.clear_cache();
        assert_eq!(curve.cache_cost(), 0);
        assert_eq!(curve.evaluations(), 0);
        assert_eq!(
            curve.p_failure(123.0).unwrap(),
            before,
            "a cleared curve must answer identically"
        );
    }

    #[test]
    fn clone_starts_warm() {
        let curve = FailureCurve::new(fast_model());
        let _ = curve.p_failure(100.0).unwrap();
        let clone = curve.clone();
        assert_eq!(clone.knots(), curve.knots());
        assert_eq!(
            clone.p_failure(100.0).unwrap(),
            curve.p_failure(100.0).unwrap()
        );
    }
}
