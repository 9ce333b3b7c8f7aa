//! Property tests for the stochastic scenario layer: every `DistSpec`,
//! `FieldSpec`, and `WaferSpec` form must survive JSON serialize → parse
//! unchanged — including the scalar back-compat form, where a bare number
//! still parses as `Fixed` and re-serializes as the same bare number —
//! and `knob::snap` must be monotone, which the wafer engine's certified
//! knob realization relies on.

use cnfet_pipeline::knob::{knob_domain, snap};
use cnfet_pipeline::{
    dist_from_json, dist_to_json, field_from_json, field_to_json, Json, ScenarioSpec, WaferSpec,
};
use cnt_stats::{DistSpec, FieldSpec};
use proptest::prelude::*;

mod common;

/// A valid `DistSpec` of the chosen kind, parameterized so every variant
/// is exercised. Bounds keep the parameters inside each sampler's domain
/// (positive `sd`/`sigma`, `lo < mean < hi`).
fn dist(kind: usize, a: f64, b: f64, width: f64) -> DistSpec {
    match kind % 5 {
        0 => DistSpec::Fixed(a),
        1 => DistSpec::Gaussian { mean: a, sd: b },
        2 => DistSpec::TruncatedGaussian {
            mean: a,
            sd: b,
            lo: a - width,
            hi: a + width,
        },
        3 => DistSpec::Uniform {
            lo: a,
            hi: a + width,
        },
        _ => DistSpec::LogNormal { mu: a, sigma: b },
    }
}

proptest! {
    #[test]
    fn dist_specs_round_trip(
        kind in 0usize..5,
        a in -3.0f64..3.0,
        b in 0.01f64..2.0,
        width in 0.5f64..4.0,
    ) {
        let spec = dist(kind, a, b, width);
        spec.validate().unwrap();
        let wire = dist_to_json(&spec).to_string_compact();
        let back = dist_from_json("density", &Json::parse(&wire).unwrap())
            .map_err(|e| TestCaseError::fail(format!("{e} for {wire}")))?;
        prop_assert_eq!(back, spec);
        // Fixed must stay a bare number on the wire (scalar back-compat).
        if kind % 5 == 0 {
            prop_assert!(!wire.contains('{'), "Fixed must serialize scalar: {}", wire);
        }
        // Every object form decodes to the same value; a bare number is
        // `fixed`'s `value`.
        let normal = match dist_to_json(&spec) {
            Json::Num(v) => Json::Obj(vec![
                ("kind".into(), Json::Str("fixed".into())),
                ("value".into(), Json::Num(v)),
            ]),
            normal => normal,
        };
        for form in common::three_forms(&normal) {
            let back = dist_from_json("density", &form)
                .map_err(|e| TestCaseError::fail(format!("{e} for {form:?}")))?;
            prop_assert_eq!(back, spec);
        }
    }

    #[test]
    fn scalar_numbers_parse_as_fixed(v in -1e6f64..1e6) {
        let parsed = dist_from_json("l_cnt_um", &Json::Num(v)).unwrap();
        prop_assert_eq!(parsed, DistSpec::Fixed(v));
        prop_assert_eq!(parsed.as_fixed(), Some(v));
    }

    #[test]
    fn field_specs_round_trip(
        kind in 0usize..5,
        a in -2.0f64..2.0,
        b in 0.01f64..1.0,
        width in 0.5f64..3.0,
        trend in -0.9f64..0.9,
        noise_sd in 0.0f64..0.5,
        correlation_dies in 0.5f64..64.0,
        clamp in 0.5f64..10.0,
        overrides in 0u32..32,
    ) {
        // Each bit of `overrides` toggles one hyperparameter away from its
        // default, so the trivial form, the full form, and every sparse
        // field object in between get exercised.
        let base = FieldSpec::from_dist(dist(kind, a, b, width));
        let spec = FieldSpec {
            dist: base.dist,
            trend: if overrides & 1 != 0 { trend } else { base.trend },
            noise_sd: if overrides & 2 != 0 { noise_sd } else { base.noise_sd },
            correlation_dies: if overrides & 4 != 0 {
                correlation_dies
            } else {
                base.correlation_dies
            },
            clamp_lo: if overrides & 8 != 0 { -clamp } else { base.clamp_lo },
            clamp_hi: if overrides & 16 != 0 { clamp } else { base.clamp_hi },
        };
        spec.validate().unwrap();
        let wire = field_to_json(&spec).to_string_compact();
        let back = field_from_json("density", &Json::parse(&wire).unwrap())
            .map_err(|e| TestCaseError::fail(format!("{e} for {wire}")))?;
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn wafer_specs_round_trip(
        diameter in 1u32..128,
        pin_seed in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
        kinds in prop::collection::vec(0usize..5, 3),
        mask in 0u32..8,
        trend in -0.5f64..0.5,
    ) {
        let mut base = ScenarioSpec::baseline("wafer-base");
        base.fast_design = true;
        let mut spec = WaferSpec::new("prop-wafer", diameter, base);
        spec.seed = pin_seed.then_some(seed);
        for (knob, &kind) in kinds.iter().enumerate() {
            if mask & (1 << knob) == 0 {
                continue;
            }
            // m_min fields stay in the valid fraction range (0, 1].
            let (center, sd, width) = if knob == 2 {
                (0.33, 0.02, 0.05)
            } else {
                (1.0, 0.05, 0.2)
            };
            let mut field = FieldSpec::from_dist(dist(kind, center, sd, width));
            field.trend = trend;
            field.clamp_lo = center * 0.25;
            field.clamp_hi = center * 2.0;
            spec.fields[knob] = Some(field);
        }
        let wire = spec.to_json().to_string_pretty();
        let back = WaferSpec::parse(&wire)
            .map_err(|e| TestCaseError::fail(format!("{e} for {wire}")))?;
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn scalar_scenario_documents_are_unchanged(
        density in 0.2f64..2.0,
        l_cnt in 10.0f64..500.0,
    ) {
        // The pre-DistSpec wire form: bare numbers for the migrated knobs.
        // It must parse to Fixed and re-serialize byte-identically.
        let doc = format!(
            r#"{{ "name": "legacy", "density": {density}, "l_cnt_um": {l_cnt} }}"#
        );
        let spec = ScenarioSpec::from_json(&Json::parse(&doc).unwrap()).unwrap();
        prop_assert_eq!(spec.density, DistSpec::Fixed(density));
        prop_assert_eq!(spec.l_cnt_um, DistSpec::Fixed(l_cnt));
        let rewire = spec.to_json();
        let reparsed = ScenarioSpec::from_json(
            &Json::parse(&rewire.to_string_compact()).unwrap(),
        ).unwrap();
        prop_assert_eq!(reparsed, spec);
        // The migrated knobs must stay bare numbers on the wire.
        for key in ["density", "l_cnt_um", "m_min"] {
            prop_assert!(
                matches!(rewire.get(key), Some(Json::Num(_))),
                "`{}` must stay a scalar on the wire", key
            );
        }
    }
}

/// `v` and its `k` nearest floats on either side (for `v > 0`).
fn neighbours(v: f64, k: u64) -> impl Iterator<Item = f64> {
    let bits = v.to_bits();
    (bits.saturating_sub(k)..=bits + k).map(f64::from_bits)
}

proptest! {
    #[test]
    fn snap_is_monotone_for_every_knob(
        exponent in -40i32..16,
        frac in 0.0f64..1.0,
        log_gap in -12.0f64..-0.31,
    ) {
        // Probes: adjacent floats around a power of two, around a random
        // value in its octave and around that value's rounding midpoint on
        // the 2⁻¹⁰ grid; purities within 1e-12 … 0.5 of 1 and the floats
        // just below 1; and every knob's domain edges.
        let octave = 2f64.powi(exponent);
        let v = octave * (1.0 + frac);
        let step = octave / 1024.0;
        let midpoint = ((v / step).floor() + 0.5) * step;
        let mut probes: Vec<f64> = [octave, v, midpoint, 1.0 - 10f64.powf(log_gap), 1.0]
            .into_iter()
            .flat_map(|p| neighbours(p, 3))
            .collect();
        for knob in 0..4 {
            let (lo, hi) = knob_domain(knob);
            probes.extend(neighbours(lo, 2).chain(neighbours(hi, 2)));
        }
        probes.sort_by(f64::total_cmp);
        for knob in 0..4 {
            for pair in probes.windows(2) {
                let (a, b) = (snap(knob, pair[0]), snap(knob, pair[1]));
                prop_assert!(a <= b,
                    "knob {}: snap({:e}) = {:e} > snap({:e}) = {:e}", knob, pair[0], a, pair[1], b);
            }
        }
    }
}
