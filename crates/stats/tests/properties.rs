//! Property-based tests for the statistics substrate.

use cnt_stats::dist::{ContinuousDist, DiscreteDist, TruncatedGaussian};
use cnt_stats::renewal::{CountDistribution, CountModel, RenewalCount, StartPolicy};
use cnt_stats::{grid_coordinate, DistSpec, FieldGrid, FieldSpec, Histogram, Summary};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn truncated_gaussian_cdf_is_monotone(
        mean in 1.0f64..20.0,
        cov in 0.1f64..0.8,
        a in -5.0f64..30.0,
        b in -5.0f64..30.0,
    ) {
        let t = TruncatedGaussian::positive_with_moments(mean, cov * mean).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.cdf(lo) <= t.cdf(hi) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&t.cdf(lo)));
    }

    #[test]
    fn truncated_gaussian_quantile_roundtrip(
        mean in 2.0f64..10.0,
        cov in 0.2f64..0.8,
        p in 0.01f64..0.99,
    ) {
        let t = TruncatedGaussian::positive_with_moments(mean, cov * mean).unwrap();
        let x = t.quantile(p);
        prop_assert!(x >= 0.0);
        prop_assert!((t.cdf(x) - p).abs() < 1e-5,
            "cdf(quantile({p})) = {} at x = {x}", t.cdf(x));
    }

    #[test]
    fn pgf_is_monotone_and_bounded(
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
        z1 in 0.0f64..1.0,
        z2 in 0.0f64..1.0,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = DiscreteDist::from_weights(&weights).unwrap();
        let (lo, hi) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(d.pgf(lo) <= d.pgf(hi) + 1e-12);
        prop_assert!(d.pgf(hi) <= 1.0 + 1e-12);
        prop_assert!(d.pgf(lo) >= 0.0);
        prop_assert!((d.pgf(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renewal_failure_probability_decreases_with_width(
        w1 in 10.0f64..200.0,
        delta in 1.0f64..50.0,
        pf in 0.05f64..0.95,
    ) {
        let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.2).unwrap();
        let rc = RenewalCount::new(pitch, CountModel::GaussianSum);
        let p1 = rc.failure_probability(w1, pf).unwrap();
        let p2 = rc.failure_probability(w1 + delta, pf).unwrap();
        prop_assert!(p2 <= p1 * 1.001 + 1e-15, "pF({w1}) = {p1} < pF({}) = {p2}", w1 + delta);
    }

    #[test]
    fn renewal_failure_probability_increases_with_pf(
        w in 20.0f64..150.0,
        pf1 in 0.05f64..0.9,
        bump in 0.01f64..0.09,
    ) {
        let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.2).unwrap();
        let rc = RenewalCount::new(pitch, CountModel::GaussianSum);
        let p1 = rc.failure_probability(w, pf1).unwrap();
        let p2 = rc.failure_probability(w, pf1 + bump).unwrap();
        prop_assert!(p2 >= p1 - 1e-15);
    }

    #[test]
    fn summary_merge_equals_sequential(
        xs in prop::collection::vec(-1e3f64..1e3, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let seq = Summary::of(&xs);
        let mut a = Summary::of(&xs[..split]);
        let b = Summary::of(&xs[split..]);
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - seq.variance()).abs() < 1e-6);
    }

    #[test]
    fn histogram_conserves_weight(
        xs in prop::collection::vec(-10.0f64..110.0, 1..300),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 10).unwrap();
        h.extend(xs.iter().copied());
        let binned: f64 = (0..h.nbins()).map(|i| h.bin_weight(i)).sum();
        let total = binned + h.underflow() + h.overflow();
        prop_assert!((total - xs.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn count_distribution_mean_tracks_width(
        w in 20.0f64..300.0,
    ) {
        let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.2).unwrap();
        let rc = RenewalCount::new(pitch, CountModel::GaussianSum);
        let d = rc.distribution(w).unwrap();
        // Stationary renewal: E[N] = W/S̄ (CLT approximation within 5 %).
        prop_assert!((d.mean() - w / 4.0).abs() < 0.05 * (w / 4.0) + 0.5,
            "W={w}: mean {} vs {}", d.mean(), w / 4.0);
    }

    #[test]
    fn batched_gaussian_sum_is_bit_identical_to_scalar(
        widths in prop::collection::vec(5.0f64..2000.0, 1..8),
        pf in 0.0f64..1.0,
        ordinary in prop::bool::ANY,
    ) {
        let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.28).unwrap();
        let start = if ordinary { StartPolicy::Ordinary } else { StartPolicy::Stationary };
        let rc = RenewalCount::new(pitch, CountModel::GaussianSum).with_start(start);
        let batch = rc.failure_probabilities(&widths, pf).unwrap();
        for (&w, &b) in widths.iter().zip(&batch) {
            let scalar = rc.failure_probability(w, pf).unwrap();
            prop_assert_eq!(b.to_bits(), scalar.to_bits(),
                "W={}: batch {:.17e} vs scalar {:.17e}", w, b, scalar);
        }
    }

    #[test]
    fn sampler_fill_is_bit_identical_to_scalar_loop(
        width in 10.0f64..400.0,
        pf in 0.05f64..0.95,
        n in 1usize..200,
        seed in 0u64..u64::MAX,
        ordinary in prop::bool::ANY,
    ) {
        let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.28).unwrap();
        let start = if ordinary { StartPolicy::Ordinary } else { StartPolicy::Stationary };
        let rc = RenewalCount::new(pitch, CountModel::GaussianSum).with_start(start);
        let sampler = rc.failure_sampler(width, pf).unwrap();
        let mut fill_rng = StdRng::seed_from_u64(seed);
        let mut loop_rng = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0f64; n];
        sampler.sample_tail_fill(&mut fill_rng, &mut buf);
        for (i, &filled) in buf.iter().enumerate() {
            let scalar = sampler.sample_tail(&mut loop_rng);
            prop_assert_eq!(filled.to_bits(), scalar.to_bits(), "draw {} of {}", i, n);
        }
    }

    // Runs the O(W²/step²) uncached reference per width, so the width list
    // is kept short; the full [5, 2000] range is still drawn from.
    #[test]
    fn batched_conv_is_bit_identical_to_scalar_and_reference(
        widths in prop::collection::vec(5.0f64..2000.0, 1..4),
        pf in 0.0f64..1.0,
        step in 0.08f64..0.2,
        ordinary in prop::bool::ANY,
    ) {
        let rc = conv_renewal(step, ordinary);
        // Batched entry, plan-cached scalar entry, and the uncached
        // reference must agree to the bit at every width.
        let batch = rc.failure_probabilities_conv(&widths, pf, step).unwrap();
        let scalar = rc.failure_probabilities(&widths, pf).unwrap();
        for ((&w, &b), &s) in widths.iter().zip(&batch).zip(&scalar) {
            let reference = rc.failure_probability_conv_reference(w, pf, step).unwrap();
            prop_assert_eq!(b.to_bits(), reference.to_bits(),
                "batch vs reference at W={}: {:.17e} vs {:.17e}", w, b, reference);
            prop_assert_eq!(s.to_bits(), reference.to_bits(),
                "scalar vs reference at W={}: {:.17e} vs {:.17e}", w, s, reference);
        }
    }

    // Coarse grids: from 1 nm to 5 nm the pitch kernel shrinks from 38 to
    // 9 taps, so both the blocked sweep and (at 16 taps or fewer, from
    // ≈ 2.45 nm up) the one-row sweep build every row.
    #[test]
    fn coarse_grid_conv_is_bit_identical_to_reference(
        widths in prop::collection::vec(5.0f64..2000.0, 1..4),
        pf in 0.0f64..1.0,
        step in 1.0f64..5.0,
        ordinary in prop::bool::ANY,
    ) {
        let rc = conv_renewal(step, ordinary);
        for &w in &widths {
            assert_conv_matches_reference(&rc, w, pf, step)?;
        }
    }

    // Ascending widths: every query extends the cached plan from where the
    // previous one stopped, so blocks start right after the previous
    // extension's one-row leftovers.
    #[test]
    fn ascending_conv_extension_is_bit_identical_to_reference(
        widths in prop::collection::vec(5.0f64..600.0, 2..6),
        pf in 0.0f64..1.0,
        step in 0.08f64..0.2,
        ordinary in prop::bool::ANY,
    ) {
        let mut widths = widths;
        widths.sort_by(f64::total_cmp);
        let rc = conv_renewal(step, ordinary);
        for &w in &widths {
            assert_conv_matches_reference(&rc, w, pf, step)?;
        }
    }

    // The shared count plan against the single-shot loop, on random
    // pitches. Widths go in random order, ascending (every query widens
    // the plan) or descending (every query reads the plan built by the
    // first). Coarse grids keep the O(W²) reference cheap in debug builds;
    // the 0.05-nm grid has fixed cases below.
    #[test]
    fn count_plan_distribution_is_bit_identical_to_reference(
        mean in 2.0f64..8.0,
        cov in 0.05f64..0.8,
        step in 0.4f64..2.0,
        widths in prop::collection::vec(0.1f64..150.0, 1..5),
        order in 0u32..3,
        ordinary in prop::bool::ANY,
    ) {
        let pitch = TruncatedGaussian::positive_with_moments(mean, cov * mean).unwrap();
        let start = if ordinary { StartPolicy::Ordinary } else { StartPolicy::Stationary };
        let rc = RenewalCount::new(pitch, CountModel::Convolution { step }).with_start(start);
        let mut widths = widths;
        match order {
            0 => {}
            1 => widths.sort_by(f64::total_cmp),
            _ => widths.sort_by(|a, b| b.total_cmp(a)),
        }
        for &w in &widths {
            assert_distribution_matches_reference(&rc, w, step)?;
        }
    }
}

proptest! {
    #[test]
    fn field_grid_encloses_realize_bit_for_bit(
        kind in 0usize..5,
        a in -1.0f64..3.0,
        spread in 0.01f64..1.0,
        trend in -0.9f64..3.0,
        noise_raw in 0.0f64..0.6,
        log_corr in -2.99f64..5.99,
        diameter in 1u32..4097,
        clamped in prop::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        // noise_sd spans [0, 0.5] with both ends drawn often; the
        // correlation length is log-uniform over [0.05, 400] die pitches.
        let noise_sd = if noise_raw < 0.05 { 0.0 } else { noise_raw.min(0.5) };
        let correlation_dies = log_corr.exp();
        let dist = match kind {
            0 => DistSpec::Fixed(a),
            1 => DistSpec::Gaussian { mean: a, sd: spread },
            2 => DistSpec::TruncatedGaussian { mean: a, sd: spread, lo: a - spread, hi: a + 2.0 * spread },
            3 => DistSpec::Uniform { lo: a, hi: a + spread },
            _ => DistSpec::LogNormal { mu: a, sigma: spread },
        };
        let (clamp_lo, clamp_hi) = if clamped {
            (a - spread, a + spread)
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        let spec = FieldSpec { dist, trend, noise_sd, correlation_dies, clamp_lo, clamp_hi };
        let sampler = spec.sampler(seed).unwrap();
        let grid = FieldGrid::new(&sampler, diameter);
        let (last, mid) = (diameter - 1, diameter / 2);
        let radius = f64::from(diameter) / 2.0;
        for (col, row) in [(0, 0), (last, 0), (0, last), (last, last), (mid, mid), (mid, 0)] {
            let (x, y) = (grid_coordinate(diameter, col), grid_coordinate(diameter, row));
            let r = ((x * x + y * y).sqrt() / radius).min(1.0);
            let index = u64::from(row) * u64::from(diameter) + u64::from(col);
            let exact = sampler.realize(index, x, y, r);
            let (lo, hi) = grid.enclose(col, row, r);
            prop_assert!(lo <= exact && exact <= hi,
                "die ({}, {}) of D={}: {:.17e} outside [{:.17e}, {:.17e}]", col, row, diameter, exact, lo, hi);
            if lo.to_bits() == hi.to_bits() {
                prop_assert_eq!(exact.to_bits(), lo.to_bits());
            }
            if correlation_dies >= 1.0 {
                prop_assert!(hi - lo <= 1e-9 * lo.abs().max(hi.abs()),
                    "die ({}, {}) of D={} at ℓ={}: width {:e} around {:e}", col, row, diameter, correlation_dies, hi - lo, exact);
            }
        }
    }
}

/// The convolution back-end on the proptests' pitch, at grid `step`.
fn conv_renewal(step: f64, ordinary: bool) -> RenewalCount {
    let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.28).unwrap();
    let start = if ordinary {
        StartPolicy::Ordinary
    } else {
        StartPolicy::Stationary
    };
    RenewalCount::new(pitch, CountModel::Convolution { step }).with_start(start)
}

/// The plan-cached `pF(w)` equals `failure_probability_conv_reference`
/// to the bit.
fn assert_conv_matches_reference(rc: &RenewalCount, w: f64, pf: f64, step: f64) -> TestCaseResult {
    let fast = rc.failure_probability(w, pf).unwrap();
    let reference = rc.failure_probability_conv_reference(w, pf, step).unwrap();
    prop_assert_eq!(
        fast.to_bits(),
        reference.to_bits(),
        "step={} W={} pf={}: {:.17e} vs {:.17e}",
        step,
        w,
        pf,
        fast,
        reference
    );
    Ok(())
}

/// The production grid (0.05 nm) on the paper pitch and corner at the two
/// `W_min` anchors and the `W_min` solver's 2000 nm bracket edge, whose
/// 40 001-row plan every cold solve builds.
#[test]
fn production_grid_conv_is_bit_identical_to_reference() {
    let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.2).unwrap();
    for start in [StartPolicy::Stationary, StartPolicy::Ordinary] {
        let rc = RenewalCount::new(pitch, CountModel::Convolution { step: 0.05 }).with_start(start);
        for w in [103.0, 155.0, 2000.0] {
            assert_conv_matches_reference(&rc, w, 0.531, 0.05).unwrap();
        }
    }
}

/// `distribution(w)` equals `distribution_conv_reference` to the bit:
/// the whole pmf and the mean.
fn assert_distribution_matches_reference(rc: &RenewalCount, w: f64, step: f64) -> TestCaseResult {
    let fast = rc.distribution(w).unwrap();
    let reference = rc.distribution_conv_reference(w, step).unwrap();
    let bits = |d: &CountDistribution| -> Vec<u64> {
        d.as_discrete()
            .pmf_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect()
    };
    prop_assert_eq!(
        bits(&fast),
        bits(&reference),
        "pmf at step={} W={}",
        step,
        w
    );
    prop_assert_eq!(
        fast.mean().to_bits(),
        reference.mean().to_bits(),
        "mean at step={} W={}: {:.17e} vs {:.17e}",
        step,
        w,
        fast.mean(),
        reference.mean()
    );
    Ok(())
}

/// The production grid (0.05 nm) on the paper pitch: the `W_min` range
/// the shorts-mode fault solve asks for, widest first so that one plan
/// serves the rest, then both cases the plan leaves to the reference
/// loop: a stationary first gap under a 5-nm gate stops short of the
/// plan's, and the plan for a 5000-nm gate passes the value budget even
/// on a 4-nm grid. Debug builds, where one 170-nm reference call takes
/// seconds, skip the four widest gates; the release property-test run
/// covers them.
#[test]
fn production_grid_count_distribution_is_bit_identical_to_reference() {
    let pitch = TruncatedGaussian::positive_with_moments(4.0, 3.2).unwrap();
    let widths: &[f64] = if cfg!(debug_assertions) {
        &[39.4, 5.0, 0.01]
    } else {
        &[172.3, 155.0, 103.0, 62.5, 39.4, 5.0, 0.01]
    };
    for start in [StartPolicy::Stationary, StartPolicy::Ordinary] {
        let rc = RenewalCount::new(pitch, CountModel::Convolution { step: 0.05 }).with_start(start);
        for &w in widths {
            assert_distribution_matches_reference(&rc, w, 0.05).unwrap();
        }
        let coarse =
            RenewalCount::new(pitch, CountModel::Convolution { step: 4.0 }).with_start(start);
        assert_distribution_matches_reference(&coarse, 5000.0, 4.0).unwrap();
    }
}
