//! Exhaustive error-path coverage of [`ScenarioBuilder::set_json`]: every
//! field arm's rejection, the [`ErrorCode`] each one maps to on the wire,
//! and the Levenshtein nearest-key suggestion text — so a client typo can
//! never silently fall back to a default.

use cnfet_pipeline::{
    ErrorCode, Json, PipelineError, ScenarioBuilder, ServiceError, SCENARIO_KEYS,
};

fn set(key: &str, value: &str) -> Result<ScenarioBuilder, PipelineError> {
    ScenarioBuilder::new("t").set_json(key, &Json::parse(value).unwrap())
}

/// The wire classification of a builder error.
fn code(err: &PipelineError) -> ErrorCode {
    ServiceError::from_pipeline(err).code
}

#[test]
fn every_field_arm_rejects_mistyped_values_as_bad_spec() {
    // (key, bad value, fragment the message must carry): one case per
    // `set_json` arm, each a type (not domain) violation.
    let cases = [
        ("name", "1", "must be a string"),
        ("corner", "42", "must be a string or an object"),
        ("corner", r#""bogus""#, "unknown corner"),
        ("corner", r#"{ "pm": 0.3 }"#, "missing `p_rs`"),
        (
            "corner",
            r#"{ "pm": "x", "p_rs": 0.1 }"#,
            "must be a number",
        ),
        ("correlation", "3", "must be a string"),
        ("correlation", r#""sideways""#, "unknown scenario"),
        ("library", "1", "must be a string"),
        ("library", r#""tsmc7""#, "unknown library"),
        ("node_nm", r#""wide""#, "must be a number"),
        ("yield_target", "true", "must be a number"),
        ("backend", "9", "must be a string or an object"),
        (
            "backend",
            r#"{ "kind": "convolution", "step": "x" }"#,
            "`step` must be a number",
        ),
        (
            "backend",
            r#"{ "monte-carlo": { "batch": 200.7 } }"#,
            "`batch` must be an integer",
        ),
        (
            "backend",
            r#"{ "kind": "monte-carlo", "max_trials": 50000.5 }"#,
            "`max_trials` must be an integer",
        ),
        ("m_transistors", r#""many""#, "must be a number"),
        (
            "m_min",
            r#""most""#,
            "distribution object, or \"self-consistent\"",
        ),
        ("rho", "1.8", "\"paper\" or \"measured\""),
        ("density", r#""thick""#, "must be a number"),
        ("l_cnt_um", r#""long""#, "must be a number"),
        ("grid", r#""triple""#, "\"single\" or \"dual\""),
        ("fast_design", r#""yes""#, "must be a boolean"),
        ("mc_trials", r#""lots""#, "must be an integer"),
        // Once truncated to 4294967295, 0 and 2 without an error.
        ("mc_trials", "1e10", "must be an integer in [0, 4294967295]"),
        ("mc_trials", "-5", "must be an integer in [0, 4294967295]"),
        ("mc_trials", "2.5", "must be an integer in [0, 4294967295]"),
    ];
    for (key, value, fragment) in cases {
        let err = set(key, value).unwrap_err();
        assert!(
            err.to_string().contains(fragment),
            "`{key}` = {value}: message `{err}` must contain `{fragment}`"
        );
        match code(&err) {
            ErrorCode::BadSpec { field } => {
                assert_eq!(field, key, "`{key}` = {value} must name its own field")
            }
            other => panic!("`{key}` = {value} must map to bad_spec, got {other:?}"),
        }
    }
}

#[test]
fn every_domain_violation_is_caught_at_build() {
    // Values with the right type but out of domain: accepted by the
    // setter, rejected by `build()`.
    let cases = [
        ("node_nm", "-45"),
        ("node_nm", "0"),
        ("yield_target", "0"),
        ("yield_target", "1.5"),
        ("m_transistors", "0.5"),
        ("m_min", "0"),
        ("m_min", "1.5"),
        ("l_cnt_um", "-200"),
        ("l_cnt_um", "0"),
        ("backend", r#"{ "kind": "convolution", "step": -0.05 }"#),
        ("backend", r#"{ "monte-carlo": { "rel_ci": 0 } }"#),
    ];
    for (key, value) in cases {
        let err = set(key, value)
            .unwrap_or_else(|e| panic!("`{key}` = {value} is a domain error, not {e}"))
            .build()
            .unwrap_err();
        match code(&err) {
            ErrorCode::BadSpec { .. } => {}
            other => panic!("`{key}` = {value} must map to bad_spec, got {other:?}"),
        }
    }
}

#[test]
fn unknown_keys_map_to_unknown_key_with_the_documented_suggestion() {
    // The satellite contract: the Levenshtein suggestion is part of the
    // error surface, both structured and in display text. Each case is
    // (scenario field, value, the unknown key, its suggestion).
    let cases = [
        ("yeild_target", "1", "yeild_target", Some("yield_target")),
        ("corelation", "1", "corelation", Some("correlation")),
        ("nodenm", "1", "nodenm", Some("node_nm")),
        ("l_cnt_un", "1", "l_cnt_un", Some("l_cnt_um")),
        ("backened", "1", "backened", Some("backend")),
        ("fastdesign", "1", "fastdesign", Some("fast_design")),
        ("zzzzzzzzzz", "1", "zzzzzzzzzz", None), // hopeless typos get no guess
        // Unknown back-end kinds and parameters, as for the other tagged
        // types (these two once answered bad_spec).
        ("backend", r#""quantum""#, "quantum", None),
        (
            "backend",
            r#"{ "kind": "monte-carlo", "trials": 5 }"#,
            "trials",
            None,
        ),
        (
            "backend",
            r#""monte-carl""#,
            "monte-carl",
            Some("monte-carlo"),
        ),
        // Once ignored: the run kept step 0.05, p_rm = 1.
        (
            "backend",
            r#"{ "kind": "convolution", "stepp": 0.1 }"#,
            "stepp",
            Some("step"),
        ),
        (
            "backend",
            r#"{ "kind": "gaussian-sum", "step": 0.1 }"#,
            "step",
            None,
        ),
        (
            "backend",
            r#"{ "gaussian-sum": { "rel_ci": 0.1 } }"#,
            "rel_ci",
            None,
        ),
        (
            "corner",
            r#"{ "pm": 0.33, "p_rs": 0.3, "prm": 0.5 }"#,
            "prm",
            Some("pm"),
        ),
    ];
    for (field, value, key, expected) in cases {
        let err = set(field, value).unwrap_err();
        match &err {
            PipelineError::UnknownKey {
                key: got,
                suggestion,
                ..
            } => {
                assert_eq!(got, key);
                assert_eq!(suggestion.as_deref(), expected, "for `{key}`");
            }
            other => panic!("`{key}` must be UnknownKey, got {other:?}"),
        }
        match code(&err) {
            ErrorCode::UnknownKey {
                key: got,
                suggestion,
            } => {
                assert_eq!(got, key);
                assert_eq!(suggestion.as_deref(), expected);
            }
            other => panic!("`{key}` must map to unknown_key, got {other:?}"),
        }
        match expected {
            Some(s) => assert!(
                err.to_string().contains(&format!("did you mean `{s}`?")),
                "display for `{key}`: {err}"
            ),
            None => assert!(
                !err.to_string().contains("did you mean"),
                "display for `{key}`: {err}"
            ),
        }
    }
}

#[test]
fn every_scenario_key_has_a_working_set_json_arm() {
    // The inverse guarantee: the advertised schema (`SCENARIO_KEYS`, which
    // `describe` exposes on the wire) is exactly the set of keys the
    // builder accepts.
    let good = [
        ("name", r#""renamed""#),
        ("corner", r#""ideal-removal""#),
        ("correlation", r#""growth""#),
        ("library", r#""commercial65""#),
        ("node_nm", "32"),
        ("yield_target", "0.95"),
        ("backend", r#""gaussian-sum""#),
        ("m_transistors", "1e7"),
        // A fraction, not "self-consistent": the fault knobs below need a
        // closed-form M_min (the builder rejects the combination).
        ("m_min", "0.33"),
        ("rho", r#""paper""#),
        ("density", r#"{ "gaussian": { "mean": 1, "sd": 0.05 } }"#),
        ("l_cnt_um", "400"),
        ("purity", "0.9999"),
        (
            "redundancy",
            r#"{ "kind": "spare-units", "spares": 2, "unit_size": 4096 }"#,
        ),
        ("grid", r#""dual""#),
        ("fast_design", "true"),
        ("mc_trials", "50"),
    ];
    assert_eq!(good.len(), SCENARIO_KEYS.len());
    let mut builder = ScenarioBuilder::new("t");
    for (key, value) in good {
        assert!(SCENARIO_KEYS.contains(&key), "`{key}` must be advertised");
        builder = builder
            .set_json(key, &Json::parse(value).unwrap())
            .unwrap_or_else(|e| panic!("`{key}` = {value} must be accepted: {e}"));
    }
    let spec = builder.build().unwrap();
    assert_eq!(spec.name, "renamed");
    assert_eq!(spec.l_cnt_um, cnt_stats::DistSpec::Fixed(400.0));
}

#[test]
fn coopt_axis_values_are_domain_validated_at_parse_time() {
    // A domain-invalid candidate value must fail at parse, not mid-search.
    let err = cnfet_pipeline::CoOptSpec::parse(
        r#"{ "name": "bad", "search": { "l_cnt_um": [-50, 200] } }"#,
    )
    .unwrap_err();
    assert!(
        matches!(code(&err), ErrorCode::BadSpec { field } if field == "l_cnt_um"),
        "got {err:?}"
    );
    // Out-of-domain values reachable only through an axis combination
    // still fail per-value against the base.
    assert!(cnfet_pipeline::CoOptSpec::parse(
        r#"{ "name": "bad", "search": { "yield_target": [0.9, 1.5] } }"#,
    )
    .is_err());
}

#[test]
fn searcher_forms_reject_every_malformed_genetic_and_halving_shape() {
    use cnfet_pipeline::SearcherSpec;
    let parse = |s: &str| SearcherSpec::from_json(&Json::parse(s).unwrap());
    // Mistyped or out-of-domain parameters: all bad_spec on the wire,
    // all caught at parse time — never a mid-search panic.
    let bad = [
        (
            r#"{ "genetic": { "population": 1 } }"#,
            "`population` must be an integer in [2, 1000000]",
        ),
        (
            r#"{ "genetic": { "population": 2.5 } }"#,
            "`population` must be an integer",
        ),
        (
            r#"{ "genetic": { "mutation_rate": 1.5 } }"#,
            "`mutation_rate` must be a number in [0, 1]",
        ),
        (
            r#"{ "genetic": { "mutation_rate": "high" } }"#,
            "`mutation_rate` must be a number",
        ),
        (
            r#"{ "kind": "genetic", "population": 4, "tournament_k": 9 }"#,
            "`tournament_k` (9) must not exceed `population` (4)",
        ),
        // The regression contract: a zero-rung or sub-2-eta ladder is a
        // parse error, not a degenerate search.
        (
            r#"{ "halving": { "rungs": 0 } }"#,
            "`rungs` must be an integer in [1, 1000000]",
        ),
        (
            r#"{ "halving": { "eta": 1 } }"#,
            "`eta` must be an integer in [2, 64]",
        ),
        (
            r#"{ "halving": { "eta": 2.5 } }"#,
            "`eta` must be an integer in [2, 64]",
        ),
        (
            r#"{ "halving": { "inner": "halving" } }"#,
            "cannot nest another `halving` ladder",
        ),
        (
            r#"{ "halving": { "inner": { "kind": "halving", "eta": 2 } } }"#,
            "cannot nest another `halving` ladder",
        ),
        (
            r#"{ "genetic": 7 }"#,
            "`genetic` parameters must be an object",
        ),
        (
            r#"{ "grid": {}, "genetic": {} }"#,
            "needs a `kind` string or a single kind key",
        ),
    ];
    for (form, fragment) in bad {
        let err = parse(form).unwrap_err();
        assert!(
            err.to_string().contains(fragment),
            "{form}: message `{err}` must contain `{fragment}`"
        );
        assert!(
            matches!(code(&err), ErrorCode::BadSpec { field } if field == "searcher"),
            "{form} must map to bad_spec on the wire, got {err:?}"
        );
    }
    // Typos in strategy and parameter names: unknown_key with the
    // Levenshtein nearest-name suggestion.
    let typos = [
        (r#""genetc""#, "genetc", Some("genetic")),
        (r#""halvng""#, "halvng", Some("halving")),
        (
            r#"{ "genetic": { "poplation": 8 } }"#,
            "poplation",
            Some("population"),
        ),
        (
            r#"{ "halving": { "inner": "grid", "rung": 2 } }"#,
            "rung",
            Some("rungs"),
        ),
        (
            r#"{ "kind": "genetic", "mutationrate": 0.2 }"#,
            "mutationrate",
            Some("mutation_rate"),
        ),
    ];
    for (form, key, expected) in typos {
        let err = parse(form).unwrap_err();
        match code(&err) {
            ErrorCode::UnknownKey {
                key: got,
                suggestion,
            } => {
                assert_eq!(got, key, "for {form}");
                assert_eq!(suggestion.as_deref(), expected, "for {form}");
            }
            other => panic!("{form} must map to unknown_key, got {other:?}"),
        }
        if let Some(s) = expected {
            assert!(
                err.to_string().contains(&format!("did you mean `{s}`?")),
                "display for {form}: {err}"
            );
        }
    }
    // The happy-path inverse: every advertised kind parses from its bare
    // name, and defaults are in-domain (a bare "halving" wraps genetic).
    for kind in cnfet_pipeline::SEARCHER_KINDS {
        let spec = parse(&format!("\"{kind}\"")).unwrap();
        assert_eq!(spec.name(), kind);
        // The composed display name matches what reports will carry: the
        // bare ladder wraps the default genetic inner.
        let composed = if kind == "halving" {
            "halving+genetic"
        } else {
            kind
        };
        assert_eq!(spec.composed_name(), composed);
        assert_eq!(
            SearcherSpec::from_json(&spec.to_json()).unwrap(),
            spec,
            "`{kind}` defaults must round-trip through the normal form"
        );
    }
}

#[test]
fn coopt_name_must_be_a_string_when_present() {
    // A mistyped `name` must error, not silently rename the artifact.
    let err =
        cnfet_pipeline::CoOptSpec::parse(r#"{ "name": 42, "search": { "l_cnt_um": [200] } }"#)
            .unwrap_err();
    assert!(err.to_string().contains("must be a string"), "got {err:?}");
    // Omitting it entirely still falls back to the documented default.
    let spec = cnfet_pipeline::CoOptSpec::parse(r#"{ "search": { "l_cnt_um": [200] } }"#).unwrap();
    assert_eq!(spec.name, "coopt");
}
