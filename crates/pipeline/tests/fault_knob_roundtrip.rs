//! Property tests for the fault-knob wire forms: every `purity` and
//! `redundancy` value the parsers accept must survive JSON serialize →
//! parse unchanged, scalar back-compat must hold, and bad values must be
//! rejected with structured, suggestion-carrying errors.

use cnfet_fault::{PurityMode, RedundancyScheme};
use cnfet_pipeline::{
    redundancy_from_json, redundancy_to_json, Json, PipelineError, PuritySpec, ScenarioBuilder,
    ScenarioSpec,
};
use cnt_stats::DistSpec;
use proptest::prelude::*;

mod common;

/// A generated purity spec from plain scalars (kept in the knob's wire
/// domain so validation never interferes with the round-trip property).
fn purity(mode: bool, kind: usize, a: f64, b: f64) -> PuritySpec {
    let (lo, hi) = (0.5 + 0.4 * a.min(b), 0.5 + 0.4 * a.max(b));
    let dist = match kind % 3 {
        0 => DistSpec::Fixed(lo),
        1 => DistSpec::Uniform { lo, hi: hi + 1e-3 },
        _ => DistSpec::Gaussian {
            mean: hi,
            sd: 1e-4 + a * 1e-3,
        },
    };
    PuritySpec {
        dist,
        mode: if mode {
            PurityMode::Removal
        } else {
            PurityMode::Short
        },
    }
}

/// A generated redundancy scheme with in-domain parameters.
fn redundancy(kind: usize, a: u64, b: u64, cov: f64) -> RedundancyScheme {
    match kind % 4 {
        0 => RedundancyScheme::None,
        1 => RedundancyScheme::Tmr,
        2 => RedundancyScheme::SpareUnits {
            spares: 1 + a % 64,
            unit_size: 1 + b % 1_000_000,
        },
        _ => RedundancyScheme::RepairableTile {
            tiles: 1 + a % 4096,
            spare_tiles: 1 + b % 64,
            test_coverage: cov,
        },
    }
}

proptest! {
    #[test]
    fn purity_specs_round_trip(
        mode in proptest::bool::ANY,
        kind in 0usize..3,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let spec = purity(mode, kind, a, b);
        prop_assume!(spec.validate().is_ok());
        let wire = spec.to_json();
        let back = PuritySpec::from_json(&wire).unwrap();
        prop_assert_eq!(back, spec);
        // Serialization is a normal form: a second trip is byte-stable.
        prop_assert_eq!(back.to_json().to_string_pretty(), wire.to_string_pretty());
    }

    #[test]
    fn redundancy_schemes_round_trip(
        kind in 0usize..4,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        cov in 0.0f64..1.0,
    ) {
        let scheme = redundancy(kind, a, b, cov);
        prop_assume!(scheme.validate().is_ok());
        let wire = redundancy_to_json(&scheme);
        let back = redundancy_from_json(&wire).unwrap();
        prop_assert_eq!(back, scheme);
        prop_assert_eq!(
            redundancy_to_json(&back).to_string_pretty(),
            wire.to_string_pretty()
        );
        // Every wire form decodes to the same scheme.
        for form in common::three_forms(&wire) {
            prop_assert_eq!(redundancy_from_json(&form).unwrap(), scheme);
        }
    }

    #[test]
    fn fault_knobs_round_trip_through_a_full_scenario(
        mode in proptest::bool::ANY,
        pkind in 0usize..3,
        a in 0.0f64..1.0,
        rkind in 0usize..4,
        x in 0u64..10_000,
        y in 0u64..10_000,
        cov in 0.1f64..1.0,
    ) {
        let mut spec = ScenarioSpec::baseline("prop");
        spec.purity = purity(mode, pkind, a, a);
        spec.redundancy = redundancy(rkind, x, y, cov);
        prop_assume!(spec.validate().is_ok());
        let wire = spec.to_json();
        let back = ScenarioSpec::from_json(&wire).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn scalar_purity_keeps_back_compat(p in 0.501f64..1.0) {
        // A bare number is the scalar wire form: Fixed dist, short mode,
        // and it serializes back to the same bare number.
        let spec = PuritySpec::from_json(&Json::Num(p)).unwrap();
        prop_assert_eq!(spec.dist, DistSpec::Fixed(p));
        prop_assert_eq!(spec.mode, PurityMode::Short);
        prop_assert_eq!(spec.to_json(), Json::Num(p));
    }

    #[test]
    fn bad_purity_values_are_rejected(idx in 0usize..5) {
        const BAD: [f64; 5] = [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY];
        let p = BAD[idx];
        let parsed = PuritySpec::from_json(&Json::Num(p));
        let invalid = match parsed {
            Err(_) => true,
            Ok(spec) => spec.validate().is_err(),
        };
        prop_assert!(invalid, "purity {p} must be rejected");
    }

    #[test]
    fn bad_redundancy_counts_are_rejected(idx in 0usize..4) {
        const BAD: [f64; 4] = [0.0, -1.0, 2.5, 1e16];
        let spares = BAD[idx];
        let wire = Json::Obj(vec![
            ("kind".into(), Json::Str("spare-units".into())),
            ("spares".into(), Json::Num(spares)),
            ("unit_size".into(), Json::Num(1024.0)),
        ]);
        let rejected = match redundancy_from_json(&wire) {
            Err(_) => true,
            Ok(s) => s.validate().is_err(),
        };
        prop_assert!(rejected, "spares {spares} must be rejected");
    }
}

#[test]
fn typos_carry_suggestions() {
    // Unknown scheme kind → nearest canonical kind by edit distance.
    let err = redundancy_from_json(&Json::Obj(vec![("kind".into(), Json::Str("tmrr".into()))]))
        .unwrap_err();
    assert!(
        matches!(
            &err,
            PipelineError::UnknownKey { suggestion: Some(s), .. } if s == "tmr"
        ),
        "got {err:?}"
    );
    assert!(err.to_string().contains("did you mean `tmr`?"), "{err}");
    // The nested form's kind gets the same suggestion (it once answered
    // bad_spec: "object form needs a `kind` string").
    let err = redundancy_from_json(&Json::parse(r#"{ "tmrr": {} }"#).unwrap()).unwrap_err();
    assert!(
        matches!(
            &err,
            PipelineError::UnknownKey { key, suggestion: Some(s), .. } if key == "tmrr" && s == "tmr"
        ),
        "got {err:?}"
    );

    // Unknown scheme parameter → nearest parameter name.
    let err = redundancy_from_json(
        &Json::parse(r#"{ "kind": "spare-units", "spare": 2, "unit_size": 64 }"#).unwrap(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("did you mean `spares`?"), "{err}");

    // Unknown purity mode and misspelled purity parameter.
    let err = PuritySpec::from_json(&Json::parse(r#"{ "mode": "shrot", "dist": 0.99 }"#).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("short"), "{err}");
    let err = PuritySpec::from_json(&Json::parse(r#"{ "mode": "short", "dst": 0.99 }"#).unwrap())
        .unwrap_err();
    assert!(err.to_string().contains("did you mean `dist`?"), "{err}");

    // The builder surfaces the same structured codes for the new keys.
    let err = ScenarioBuilder::new("t")
        .set_json("redundancy", &Json::Str("spare-units".into()))
        .unwrap_err();
    assert!(err.to_string().contains("missing `spares`"), "{err}");
}
