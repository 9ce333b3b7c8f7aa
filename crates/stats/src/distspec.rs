//! Declarative, seedable stochastic knobs: [`DistSpec`] and [`FieldSpec`].
//!
//! The scenario layer above this crate describes *what* varies — a CNT
//! growth density, a correlation length, a minimum-device fraction — as
//! data, not code. A [`DistSpec`] is the tagged value of one such knob:
//! either a plain scalar (`Fixed`) or one of the workspace's continuous
//! distributions, identified by the canonical kind strings in
//! [`DistSpec::KINDS`]. A [`FieldSpec`] composes a `DistSpec` with a
//! wafer-scale random field — a radial trend plus spatially **correlated**
//! noise — so one spec object describes how a knob varies across an
//! entire wafer.
//!
//! Everything here is deterministic under [`crate::seed::split_seed`]:
//! a [`FieldSampler`] realizes die `d` of wafer seed `s` as a pure
//! function of `(spec, s, d, position)`, so wafer evaluations are
//! byte-identical for any worker count.
//!
//! JSON forms live in `cnfet-pipeline` (where the hand-rolled JSON value
//! type lives); this module owns the semantics: validation, moments,
//! sampling, and field realization.

use crate::dist::{ContinuousDist, Gaussian, LogNormal, TruncatedGaussian, Uniform};
use crate::seed::split_seed;
use crate::{Result, StatsError};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A tagged distribution spec: the declarative value of one stochastic
/// scenario knob.
///
/// `Fixed` is the scalar back-compat form — a knob that was a bare `f64`
/// parses as `Fixed` and behaves exactly as before. The other variants
/// carry the parameters of the matching sampler in [`crate::dist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// A degenerate distribution: always `value`. Scalar back-compat.
    Fixed(f64),
    /// `N(mean, sd²)` — [`Gaussian`].
    Gaussian {
        /// Mean.
        mean: f64,
        /// Standard deviation (> 0).
        sd: f64,
    },
    /// `N(mean, sd²)` truncated to `[lo, hi]` — [`TruncatedGaussian`].
    TruncatedGaussian {
        /// Parent mean.
        mean: f64,
        /// Parent standard deviation (> 0).
        sd: f64,
        /// Lower truncation bound.
        lo: f64,
        /// Upper truncation bound (> `lo`).
        hi: f64,
    },
    /// Uniform on `[lo, hi]` — [`Uniform`].
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound (> `lo`).
        hi: f64,
    },
    /// `exp(N(mu, sigma²))` — [`LogNormal`]; log-scale parameters.
    LogNormal {
        /// Log-scale mean.
        mu: f64,
        /// Log-scale standard deviation (> 0).
        sigma: f64,
    },
}

impl DistSpec {
    /// Canonical kind strings, in declaration order. The JSON layer and
    /// `describe` enumeration both derive from this one constant.
    pub const KINDS: [&'static str; 5] = [
        "fixed",
        "gaussian",
        "truncated-gaussian",
        "uniform",
        "lognormal",
    ];

    /// The canonical kind string of this variant (an entry of
    /// [`DistSpec::KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            DistSpec::Fixed(_) => "fixed",
            DistSpec::Gaussian { .. } => "gaussian",
            DistSpec::TruncatedGaussian { .. } => "truncated-gaussian",
            DistSpec::Uniform { .. } => "uniform",
            DistSpec::LogNormal { .. } => "lognormal",
        }
    }

    /// True for the degenerate (`Fixed`) form.
    pub fn is_fixed(&self) -> bool {
        matches!(self, DistSpec::Fixed(_))
    }

    /// The scalar value when `Fixed`, `None` otherwise.
    pub fn as_fixed(&self) -> Option<f64> {
        match self {
            DistSpec::Fixed(v) => Some(*v),
            _ => None,
        }
    }

    /// Validate the parameters by building the underlying sampler.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] with the offending parameter name
    /// and constraint.
    pub fn validate(&self) -> Result<()> {
        self.sampler().map(|_| ())
    }

    /// Mean of the distribution (the value itself for `Fixed`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DistSpec::validate`].
    pub fn mean(&self) -> Result<f64> {
        Ok(match self.sampler()? {
            DistSampler::Fixed(v) => v,
            DistSampler::Gaussian(d) => d.mean(),
            DistSampler::TruncatedGaussian(d) => d.mean(),
            DistSampler::Uniform(d) => d.mean(),
            DistSampler::LogNormal(d) => d.mean(),
        })
    }

    /// Build the validated sampler for repeated draws.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DistSpec::validate`].
    pub fn sampler(&self) -> Result<DistSampler> {
        Ok(match *self {
            DistSpec::Fixed(v) => {
                if !v.is_finite() {
                    return Err(StatsError::InvalidParameter {
                        name: "fixed",
                        value: v,
                        constraint: "must be finite",
                    });
                }
                DistSampler::Fixed(v)
            }
            DistSpec::Gaussian { mean, sd } => DistSampler::Gaussian(Gaussian::new(mean, sd)?),
            DistSpec::TruncatedGaussian { mean, sd, lo, hi } => {
                DistSampler::TruncatedGaussian(TruncatedGaussian::new(mean, sd, lo, hi)?)
            }
            DistSpec::Uniform { lo, hi } => DistSampler::Uniform(Uniform::new(lo, hi)?),
            DistSpec::LogNormal { mu, sigma } => DistSampler::LogNormal(LogNormal::new(mu, sigma)?),
        })
    }

    /// Draw one value (validating first; use [`DistSpec::sampler`] for
    /// hot loops). A `Fixed` spec returns its value without consuming
    /// randomness.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DistSpec::validate`].
    pub fn sample(&self, rng: &mut dyn RngCore) -> Result<f64> {
        Ok(self.sampler()?.sample(rng))
    }
}

/// A validated, ready-to-draw [`DistSpec`] (parameters checked once).
#[derive(Debug, Clone, Copy)]
pub enum DistSampler {
    /// Degenerate: always the value.
    Fixed(f64),
    /// Gaussian sampler.
    Gaussian(Gaussian),
    /// Truncated-Gaussian sampler.
    TruncatedGaussian(TruncatedGaussian),
    /// Uniform sampler.
    Uniform(Uniform),
    /// Log-normal sampler.
    LogNormal(LogNormal),
}

impl DistSampler {
    /// Draw one value. `Fixed` consumes no randomness.
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        match self {
            DistSampler::Fixed(v) => *v,
            DistSampler::Gaussian(d) => d.sample(rng),
            DistSampler::TruncatedGaussian(d) => d.sample(rng),
            DistSampler::Uniform(d) => d.sample(rng),
            DistSampler::LogNormal(d) => d.sample(rng),
        }
    }
}

/// Number of random Fourier harmonics in the correlated-noise field.
///
/// 16 harmonics approximate a stationary Gaussian field closely enough
/// for binning/radial-profile workloads while keeping per-die realization
/// O(16); the construction is exact in distribution as K → ∞.
const FIELD_HARMONICS: usize = 16;

/// Seed salt separating the field's harmonic table from other streams.
const FIELD_NOISE_SALT: u64 = 0x6E6F_6973; // "nois"
/// Seed salt separating per-die local draws from the harmonic table.
const FIELD_LOCAL_SALT: u64 = 0x6C6F_636C; // "locl"

/// A wafer-scale random field for one stochastic knob: a per-die local
/// distribution modulated by a deterministic radial trend and a spatially
/// correlated noise surface.
///
/// Die `d` at normalized radius `r ∈ [0, 1]` and grid position `(x, y)`
/// (in die pitches) realizes
///
/// ```text
/// value = local_d · (1 + trend·r) · (1 + noise(x, y))
/// ```
///
/// clamped to `[clamp_lo, clamp_hi]`, where `local_d ~ dist` is an
/// independent draw per die and `noise` is a zero-mean Gaussian surface
/// with standard deviation `noise_sd` and correlation length
/// `correlation_dies` (in die pitches), realized by a random-Fourier-
/// feature sum whose harmonics depend only on the wafer seed — so nearby
/// dies share their deviation, which is exactly the paper's spatial-
/// correlation story lifted to wafer scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldSpec {
    /// Per-die local distribution (die-to-die independent component).
    pub dist: DistSpec,
    /// Radial trend slope: the multiplier at the wafer edge is
    /// `1 + trend` (center = 1). Must be > −1.
    pub trend: f64,
    /// Standard deviation of the correlated multiplicative noise
    /// (0 disables the surface). Must be in `[0, 0.5]`.
    pub noise_sd: f64,
    /// Correlation length of the noise surface, in die pitches (> 0).
    pub correlation_dies: f64,
    /// Lower clamp on the realized value (−∞ to disable).
    pub clamp_lo: f64,
    /// Upper clamp on the realized value (+∞ to disable).
    pub clamp_hi: f64,
}

impl FieldSpec {
    /// A trivial field: every die draws i.i.d. from `dist`, no trend, no
    /// correlated noise, no clamping.
    pub fn from_dist(dist: DistSpec) -> Self {
        Self {
            dist,
            trend: 0.0,
            noise_sd: 0.0,
            correlation_dies: 8.0,
            clamp_lo: f64::NEG_INFINITY,
            clamp_hi: f64::INFINITY,
        }
    }

    /// Validate every component of the field.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidParameter`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        self.dist.validate()?;
        if !(self.trend.is_finite() && self.trend > -1.0) {
            return Err(StatsError::InvalidParameter {
                name: "trend",
                value: self.trend,
                constraint: "must be finite and > -1",
            });
        }
        if !(self.noise_sd.is_finite() && (0.0..=0.5).contains(&self.noise_sd)) {
            return Err(StatsError::InvalidParameter {
                name: "noise_sd",
                value: self.noise_sd,
                constraint: "must be in [0, 0.5]",
            });
        }
        if !(self.correlation_dies.is_finite() && self.correlation_dies > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "correlation_dies",
                value: self.correlation_dies,
                constraint: "must be finite and > 0",
            });
        }
        if self.clamp_lo.is_nan() || self.clamp_hi.is_nan() || self.clamp_lo >= self.clamp_hi {
            return Err(StatsError::InvalidParameter {
                name: "clamp_lo",
                value: self.clamp_lo,
                constraint: "must be < clamp_hi",
            });
        }
        Ok(())
    }

    /// Build the per-wafer sampler for this field under `seed` (one knob
    /// of one wafer run).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FieldSpec::validate`].
    pub fn sampler(&self, seed: u64) -> Result<FieldSampler> {
        FieldSampler::new(*self, seed)
    }
}

/// One harmonic of the correlated-noise surface.
#[derive(Debug, Clone, Copy)]
struct Harmonic {
    wx: f64,
    wy: f64,
    phase: f64,
}

/// The realized, seeded form of a [`FieldSpec`]: draws per-die values as
/// a pure function of `(spec, seed, die index, die position)`.
#[derive(Debug, Clone)]
pub struct FieldSampler {
    spec: FieldSpec,
    local: DistSampler,
    seed: u64,
    harmonics: Vec<Harmonic>,
}

impl FieldSampler {
    /// Seed a field sampler (see [`FieldSpec::sampler`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FieldSpec::validate`].
    pub fn new(spec: FieldSpec, seed: u64) -> Result<Self> {
        spec.validate()?;
        let local = spec.dist.sampler()?;
        // The harmonic table depends only on (spec, seed) — every die
        // evaluates the same surface, which is what makes the noise
        // *correlated* rather than independent.
        let gauss = Gaussian::standard();
        let noise_base = split_seed(seed, FIELD_NOISE_SALT);
        let harmonics = (0..FIELD_HARMONICS)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(split_seed(noise_base, k as u64));
                // Gaussian spectral density with scale 1/ℓ realizes the
                // squared-exponential correlation exp(−d²/2ℓ²).
                let inv_len = 1.0 / spec.correlation_dies;
                Harmonic {
                    wx: gauss.sample(&mut rng) * inv_len,
                    wy: gauss.sample(&mut rng) * inv_len,
                    phase: rng.gen::<f64>() * std::f64::consts::TAU,
                }
            })
            .collect();
        Ok(Self {
            spec,
            local,
            seed,
            harmonics,
        })
    }

    /// Amplitude of one harmonic: `noise_sd · √(2/K)` gives the sum of
    /// `K` unit cosines the standard deviation `noise_sd`.
    fn amplitude(&self) -> f64 {
        self.spec.noise_sd * (2.0 / FIELD_HARMONICS as f64).sqrt()
    }

    /// The zero-mean correlated noise surface at `(x, y)` (die pitches).
    pub fn noise_at(&self, x: f64, y: f64) -> f64 {
        if self.spec.noise_sd == 0.0 {
            return 0.0;
        }
        let sum: f64 = self
            .harmonics
            .iter()
            .map(|h| (h.wx * x + h.wy * y + h.phase).cos())
            .sum();
        self.amplitude() * sum
    }

    /// Die `die_index`'s independent draw from the local distribution.
    fn local_at(&self, die_index: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(split_seed(
            split_seed(self.seed, FIELD_LOCAL_SALT),
            die_index,
        ));
        self.local.sample(&mut rng)
    }

    /// Combine a die's local draw, normalized radius and noise value into
    /// the clamped knob value. For a fixed `local` and `r` this is
    /// monotone in `noise` — non-decreasing when `local·(1 + trend·r) ≥ 0`,
    /// non-increasing otherwise — because every step is: a rounded sum or
    /// product with a fixed operand, the `0.05` floor and the clamp.
    fn finish(&self, local: f64, r: f64, noise: f64) -> f64 {
        let trend_factor = 1.0 + self.spec.trend * r;
        let noise_factor = (1.0 + noise).max(0.05);
        (local * trend_factor * noise_factor).clamp(self.spec.clamp_lo, self.spec.clamp_hi)
    }

    /// Realize the knob value for die `die_index` at grid position
    /// `(x, y)` (die pitches from wafer center) and normalized radius
    /// `r ∈ [0, 1]`.
    ///
    /// Pure function of the sampler's `(spec, seed)` and the arguments —
    /// never of evaluation order or worker count. The correlated-noise
    /// multiplier is floored at 0.05 so extreme surfaces cannot flip a
    /// positive knob negative; the final value lands in
    /// `[clamp_lo, clamp_hi]`.
    pub fn realize(&self, die_index: u64, x: f64, y: f64, r: f64) -> f64 {
        self.finish(self.local_at(die_index), r, self.noise_at(x, y))
    }
}

/// The centre of grid column or row `i` of a `diameter`-die grid, in die
/// pitches from the wafer centre: `(i + 0.5) − diameter/2`. Exact for
/// every `u32` input (a difference of two half-integers below 2⁵²).
pub fn grid_coordinate(diameter: u32, i: u32) -> f64 {
    (f64::from(i) + 0.5) - f64::from(diameter) / 2.0
}

/// `cos` and `sin` of one grid line's phase for every harmonic.
#[derive(Debug, Clone, Copy)]
struct Trig {
    cos: [f64; FIELD_HARMONICS],
    sin: [f64; FIELD_HARMONICS],
}

impl Trig {
    fn new(phase: impl Fn(&Harmonic) -> f64, harmonics: &[Harmonic]) -> Self {
        let mut t = Trig {
            cos: [0.0; FIELD_HARMONICS],
            sin: [0.0; FIELD_HARMONICS],
        };
        for (k, h) in harmonics.iter().enumerate() {
            (t.sin[k], t.cos[k]) = phase(h).sin_cos();
        }
        t
    }
}

/// A [`FieldSampler`] tabulated over a square die grid: a certified fast
/// enclosure of [`FieldSampler::realize`] (see [`FieldGrid::enclose`]).
///
/// `realize` spends 16 libm `cos` calls per die on the noise surface.
/// Each harmonic's phase `wx·x + wy·y + φ` splits into a column part
/// `a = wx·x + φ` and a row part `b = wy·y`, so with `cos` and `sin` of
/// both tabulated once per run (`32·D` libm calls per table),
/// `cos(a + b) = cos a·cos b − sin a·sin b` costs two multiplies and a
/// subtract per harmonic. The result differs from `realize`'s own rounding
/// by a few ulps, so the grid widens it by a proven bound into an
/// interval that contains `realize`'s value.
#[derive(Debug, Clone)]
pub struct FieldGrid<'a> {
    sampler: &'a FieldSampler,
    diameter: u32,
    /// Per-column and per-row tables plus the bound `delta`; `None` when
    /// the field has no noise or the bound is too loose to be useful,
    /// where the enclosure is `realize`'s exact point.
    trig: Option<GridTrig>,
}

#[derive(Debug, Clone)]
struct GridTrig {
    cols: Vec<Trig>,
    rows: Vec<Trig>,
    delta: f64,
}

impl<'a> FieldGrid<'a> {
    /// Tabulate `sampler` over the columns and rows of a
    /// `diameter × diameter` die grid.
    ///
    /// # The bound `delta`
    ///
    /// Let `u = 2⁻⁵³`, `R = diameter/2` (every grid coordinate has
    /// `|x| < R`), and for one harmonic `(wx, wy, φ)` at die `(x, y)` let
    /// `p = fl(wx·x)` and `q = fl(wy·y)` — the same rounded products on
    /// both paths — and `θ = p + q + φ` exactly.
    ///
    /// * `realize` evaluates `cos t`, `t = fl(fl(p + q) + φ)`, so
    ///   `|t − θ| ≤ u·|p + q| + u·|fl(p + q) + φ| ≤ u·((2 + u)·|p + q| + |φ|)`.
    /// * The tables hold `cos`/`sin` of `a = fl(p + φ)` and of `q`, and
    ///   `|a + q − θ| ≤ u·(|p| + |φ|)`. Rounding the two products and the
    ///   difference adds at most `4u` (all factors lie in `[−1, 1]` up to
    ///   libm error), and the angle-sum identity is exact.
    /// * With libm `cos`/`sin` within `E` of the true value (glibc
    ///   documents 1 ulp, `E ≤ 2u`), the two terms differ by at most
    ///   `u·((3 + 4u)·|wx|·R + (2 + 3u)·|wy|·R + 2|φ|) + 5E + 4u + O(u²)`.
    /// * Each path adds its 16 terms with 15 rounded additions in some
    ///   order, so each sum is within `γ₁₅·16·(1 + 5E) ≈ 240u` of the
    ///   exact sum of its terms.
    ///
    /// So the fast sum `S` and `realize`'s sum differ by at most
    /// `Σ_h u·(3|wx_h|·R + 2|wy_h|·R + 2|φ_h|) + 16·(5E + 4u) + 480u`
    /// (plus `O(u²)`), and the grid takes
    ///
    /// ```text
    /// delta = 2⁻⁵⁰·Σ_h (|wx_h|·R + |wy_h|·R + |φ_h| + 1) + 2⁻⁴⁰
    /// ```
    ///
    /// `2⁻⁵⁰ = 8u` covers the per-harmonic terms with a factor ≥ 2.6 to
    /// spare. `2⁻⁴⁰ = 8192u` covers the constants with libm error up to
    /// about 48 ulp, and also absorbs the rounding of `delta` itself and
    /// of `S ± delta` (at most 16u, as `|S| ≤ 16 + delta`). The grid keeps
    /// tables only when `delta ≤ 1`: then `|p|` and `|q|` stay below
    /// `2⁵⁰·(1 + u)`, so no step of either path can overflow.
    pub fn new(sampler: &'a FieldSampler, diameter: u32) -> Self {
        let radius = f64::from(diameter) / 2.0;
        let harmonics = &sampler.harmonics;
        let delta = harmonics
            .iter()
            .map(|h| (h.wx.abs() + h.wy.abs()) * radius + h.phase.abs() + 1.0)
            .sum::<f64>()
            * 2f64.powi(-50)
            + 2f64.powi(-40);
        let trig = (sampler.spec.noise_sd != 0.0 && delta <= 1.0).then(|| {
            let line = |i: u32| grid_coordinate(diameter, i);
            GridTrig {
                cols: (0..diameter)
                    .map(|i| Trig::new(|h| h.wx * line(i) + h.phase, harmonics))
                    .collect(),
                rows: (0..diameter)
                    .map(|j| Trig::new(|h| h.wy * line(j), harmonics))
                    .collect(),
                delta,
            }
        });
        Self {
            sampler,
            diameter,
            trig,
        }
    }

    /// An interval `[lo, hi]` that contains
    /// `realize(row·D + col, x_col, y_row, r)` bit for bit, where `D` is
    /// the grid's diameter and `x_col`, `y_row` are [`grid_coordinate`]s.
    ///
    /// The fast harmonic sum `S` is widened to `S ± delta` (see
    /// [`FieldGrid::new`]), which contains `realize`'s own rounded sum;
    /// `realize`'s remaining arithmetic is monotone in that sum, so the
    /// same arithmetic at both ends brackets its value. A monotone
    /// quantizer that maps `lo` and `hi` to the same value therefore maps
    /// `realize`'s value there too. Without noise, or on a grid too coarse
    /// to certify, the interval is `realize`'s exact point.
    ///
    /// # Panics
    ///
    /// Panics if `col` or `row` is outside a tabulated grid.
    pub fn enclose(&self, col: u32, row: u32, r: f64) -> (f64, f64) {
        let Some(trig) = &self.trig else {
            let v = self.realize(col, row, r);
            return (v, v);
        };
        let s = self.sampler;
        let (a, b) = (&trig.cols[col as usize], &trig.rows[row as usize]);
        let sum: f64 = (0..FIELD_HARMONICS)
            .map(|k| a.cos[k] * b.cos[k] - a.sin[k] * b.sin[k])
            .sum();
        let local = s.local_at(self.die_index(col, row));
        let amp = s.amplitude();
        let lo = s.finish(local, r, amp * (sum - trig.delta));
        let hi = s.finish(local, r, amp * (sum + trig.delta));
        if lo <= hi {
            (lo, hi)
        } else {
            (hi, lo)
        }
    }

    /// [`FieldSampler::realize`]'s exact value for die `(col, row)`.
    pub fn realize(&self, col: u32, row: u32, r: f64) -> f64 {
        self.sampler.realize(
            self.die_index(col, row),
            grid_coordinate(self.diameter, col),
            grid_coordinate(self.diameter, row),
            r,
        )
    }

    /// Row-major index of die `(col, row)` in the full grid.
    fn die_index(&self, col: u32, row: u32) -> u64 {
        u64::from(row) * u64::from(self.diameter) + u64::from(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn kinds_cover_every_variant() {
        let specs = [
            DistSpec::Fixed(1.0),
            DistSpec::Gaussian { mean: 0.0, sd: 1.0 },
            DistSpec::TruncatedGaussian {
                mean: 0.0,
                sd: 1.0,
                lo: -1.0,
                hi: 1.0,
            },
            DistSpec::Uniform { lo: 0.0, hi: 1.0 },
            DistSpec::LogNormal {
                mu: 0.0,
                sigma: 1.0,
            },
        ];
        for (spec, kind) in specs.iter().zip(DistSpec::KINDS) {
            assert_eq!(spec.kind(), kind);
            spec.validate().unwrap();
        }
    }

    #[test]
    fn fixed_consumes_no_randomness_and_is_exact() {
        let spec = DistSpec::Fixed(0.33);
        let mut r = rng();
        let before = r.gen::<u64>();
        let mut r = rng();
        assert_eq!(spec.sample(&mut r).unwrap(), 0.33);
        assert_eq!(r.gen::<u64>(), before, "Fixed must not advance the RNG");
        assert!(spec.is_fixed());
        assert_eq!(spec.as_fixed(), Some(0.33));
        assert_eq!(spec.mean().unwrap(), 0.33);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(DistSpec::Fixed(f64::NAN).validate().is_err());
        assert!(DistSpec::Gaussian { mean: 0.0, sd: 0.0 }
            .validate()
            .is_err());
        assert!(DistSpec::Uniform { lo: 1.0, hi: 1.0 }.validate().is_err());
        assert!(DistSpec::LogNormal {
            mu: 0.0,
            sigma: -1.0
        }
        .validate()
        .is_err());
        assert!(DistSpec::TruncatedGaussian {
            mean: 0.0,
            sd: 1.0,
            lo: 2.0,
            hi: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn sample_means_track_analytic_means() {
        let specs = [
            DistSpec::Gaussian { mean: 4.0, sd: 0.5 },
            DistSpec::Uniform { lo: 2.0, hi: 6.0 },
            DistSpec::LogNormal {
                mu: 0.0,
                sigma: 0.25,
            },
        ];
        for spec in specs {
            let sampler = spec.sampler().unwrap();
            let mut r = rng();
            let n = 40_000;
            let mean = (0..n).map(|_| sampler.sample(&mut r)).sum::<f64>() / n as f64;
            let want = spec.mean().unwrap();
            assert!(
                (mean - want).abs() < 0.03 * want.abs().max(1.0),
                "{}: sampled {mean} vs analytic {want}",
                spec.kind()
            );
        }
    }

    #[test]
    fn field_validation_rejects_bad_hyperparameters() {
        let base = FieldSpec::from_dist(DistSpec::Fixed(1.0));
        base.validate().unwrap();
        assert!(FieldSpec {
            trend: -1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(FieldSpec {
            noise_sd: 0.6,
            ..base
        }
        .validate()
        .is_err());
        assert!(FieldSpec {
            correlation_dies: 0.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(FieldSpec {
            clamp_lo: 2.0,
            clamp_hi: 1.0,
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn field_realization_is_a_pure_function() {
        let spec = FieldSpec {
            dist: DistSpec::Gaussian { mean: 1.0, sd: 0.1 },
            trend: -0.2,
            noise_sd: 0.1,
            correlation_dies: 4.0,
            clamp_lo: 0.1,
            clamp_hi: 3.0,
        };
        let a = spec.sampler(99).unwrap();
        let b = spec.sampler(99).unwrap();
        for die in [0u64, 1, 17, 100_000] {
            let (x, y, r) = (die as f64 * 0.1, -3.0, 0.5);
            assert_eq!(a.realize(die, x, y, r), b.realize(die, x, y, r));
        }
        let c = spec.sampler(100).unwrap();
        assert_ne!(
            a.realize(3, 1.0, 1.0, 0.3),
            c.realize(3, 1.0, 1.0, 0.3),
            "different wafer seeds must realize different values"
        );
    }

    #[test]
    fn radial_trend_shifts_edge_dies() {
        let spec = FieldSpec {
            trend: -0.5,
            ..FieldSpec::from_dist(DistSpec::Fixed(2.0))
        };
        let s = spec.sampler(1).unwrap();
        assert_eq!(s.realize(0, 0.0, 0.0, 0.0), 2.0);
        assert!((s.realize(0, 10.0, 0.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_is_spatially_correlated() {
        let spec = FieldSpec {
            noise_sd: 0.2,
            correlation_dies: 50.0,
            ..FieldSpec::from_dist(DistSpec::Fixed(1.0))
        };
        let s = spec.sampler(5).unwrap();
        // Neighbors (1 die apart, ℓ = 50) are nearly identical; far dies
        // decorrelate. Average over many probe points for stability.
        let mut near = 0.0;
        let mut far = 0.0;
        let n = 200;
        for i in 0..n {
            let x = i as f64 * 3.0 - 300.0;
            let base = s.noise_at(x, 0.0);
            near += (s.noise_at(x + 1.0, 0.0) - base).abs();
            far += (s.noise_at(x + 500.0, 0.0) - base).abs();
        }
        assert!(
            near / n as f64 * 5.0 < far / n as f64,
            "near diff {near} should be far below far diff {far}"
        );
        // Clamps bound the realization.
        let spec = FieldSpec {
            clamp_lo: 0.9,
            clamp_hi: 1.1,
            noise_sd: 0.5,
            ..FieldSpec::from_dist(DistSpec::Gaussian { mean: 1.0, sd: 0.5 })
        };
        let s = spec.sampler(5).unwrap();
        for die in 0..500 {
            let v = s.realize(die, die as f64, 0.0, 0.5);
            assert!((0.9..=1.1).contains(&v), "die {die} escaped clamp: {v}");
        }
    }
}
