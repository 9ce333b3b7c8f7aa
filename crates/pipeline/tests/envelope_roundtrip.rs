//! Property tests: every envelope the service can emit or accept must
//! survive JSON serialize → parse unchanged, and foreign schema versions
//! must be rejected with a structured `unsupported_schema` error.

use cnfet_pipeline::{
    BackendSpec, CoOptReport, CoOptSpec, CorrelationSpec, ErrorCode, Json, LibrarySpec,
    McBackendReport, ParetoFront, ParetoPoint, ResponseBody, RungReport, ScenarioBuilder,
    ScenarioGrid, ScenarioReport, ScenarioSpec, SearchAxis, SearchReport, SearcherSpec,
    ServiceError, ServiceInfo, YieldRequest, YieldResponse, YieldService, SCHEMA_VERSION,
};
use proptest::prelude::*;

mod common;

/// Build a string from palette indices; the palette exercises JSON
/// escaping (quotes, backslashes, control and non-ASCII characters).
fn text(indices: &[usize]) -> String {
    const PALETTE: [char; 16] = [
        'a', 'b', 'z', '0', '9', '_', '-', '/', ' ', '"', '\\', '\n', '\t', 'é', '≤', '台',
    ];
    indices.iter().map(|i| PALETTE[i % PALETTE.len()]).collect()
}

fn error_code(variant: usize, key: &[usize], suggest: bool, n: u64) -> ErrorCode {
    match variant % 8 {
        0 => ErrorCode::BadRequest,
        1 => ErrorCode::UnsupportedSchema { requested: n },
        2 => ErrorCode::BadSpec { field: text(key) },
        3 => ErrorCode::UnknownKey {
            key: text(key),
            suggestion: suggest.then(|| "yield_target".to_string()),
        },
        4 => ErrorCode::UnsupportedBody { body: text(key) },
        5 => ErrorCode::Unconverged,
        6 => ErrorCode::Overloaded { shard: n },
        _ => ErrorCode::Internal,
    }
}

fn searcher_spec(searcher: usize) -> SearcherSpec {
    match searcher % 4 {
        0 => SearcherSpec::GridScan,
        1 => SearcherSpec::CoordinateDescent {
            restarts: 4,
            max_sweeps: 7,
        },
        2 => SearcherSpec::Genetic {
            population: 16,
            generations: 5,
            tournament_k: 3,
            mutation_rate: 0.25,
        },
        // The parser rejects a halving inside a halving, so the inner
        // strategy only draws from the three flat forms.
        _ => SearcherSpec::Halving {
            inner: Box::new(searcher_spec((searcher / 4) % 3)),
            rungs: 3,
            eta: 2,
        },
    }
}

fn coopt_spec(
    name: &[usize],
    node: f64,
    target: f64,
    backend: usize,
    searcher: usize,
) -> CoOptSpec {
    CoOptSpec {
        name: text(name),
        base: spec(name, node, target, backend),
        axes: vec![
            SearchAxis {
                key: "l_cnt_um".into(),
                values: vec![Json::Num(50.0), Json::Num(200.0), Json::Num(400.0)],
            },
            SearchAxis {
                key: "grid".into(),
                values: vec![Json::Str("dual".into()), Json::Str("single".into())],
            },
        ],
        objective: cnfet_core::objective::CostWeights::default(),
        searcher: searcher_spec(searcher),
    }
}

fn pareto_point(name: &[usize], w_min: f64, demand: f64) -> ParetoPoint {
    ParetoPoint {
        scenario: text(name),
        choice: vec![1, 0],
        demand,
        cost: w_min / 155.0,
        w_min_nm: w_min,
        upsizing_penalty: 0.065,
        p_req: 1.1e-6,
        p_at_w_min: 9.7e-7,
        relaxation: 360.0,
    }
}

fn spec(name: &[usize], node: f64, target: f64, backend: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(text(name));
    spec.node_nm = node;
    spec.yield_target = target;
    spec.library = if backend.is_multiple_of(2) {
        LibrarySpec::Nangate45
    } else {
        LibrarySpec::Commercial65
    };
    spec.correlation = match backend % 3 {
        0 => CorrelationSpec::None,
        1 => CorrelationSpec::Growth,
        _ => CorrelationSpec::GrowthAlignedLayout,
    };
    spec.backend = match backend % 4 {
        0 => BackendSpec::GaussianSum,
        1 => BackendSpec::Convolution { step: 0.1 },
        _ => cnfet_pipeline::mc_backend_defaults(),
    };
    spec
}

fn report(name: &[usize], seed: u64, w_min: f64, with_mc: bool) -> ScenarioReport {
    ScenarioReport {
        name: text(name),
        seed,
        library: "nangate45".into(),
        node_nm: 45.0,
        corner: "pm=33%, pRs=30%".into(),
        correlation: "none".into(),
        backend: "convolution".into(),
        yield_target: 0.9,
        m_transistors: 1e8,
        m_min: 33e6,
        m_r_min: 360.25,
        relaxation: 1.0,
        p_req: 3.4e-9,
        w_min_nm: w_min,
        p_at_w_min: 2.9e-9,
        upsizing_penalty: 0.115,
        unaligned_p_rf_mc: with_mc.then_some(4.5e-7),
        mc: with_mc.then_some(McBackendReport {
            trials: seed % 1_000_000 + 1,
            widths_evaluated: 17,
            ci_lo: 1.25e-9,
            ci_hi: 4.5e-9,
            ci_level: 0.95,
            converged: seed.is_multiple_of(2),
        }),
        fault: None,
    }
}

proptest! {
    #[test]
    fn requests_round_trip(
        id in prop::collection::vec(0usize..16, 0..12),
        name in prop::collection::vec(0usize..16, 0..10),
        node in 10.0f64..100.0,
        target in 0.5f64..0.99,
        backend in 0usize..12,
        seed in 0u64..u64::MAX, // full range: split seeds exceed 2^53
        workers in 1usize..16,
        kind in 0usize..4,
    ) {
        let s = spec(&name, node, target, backend);
        let request = match kind {
            0 => YieldRequest::evaluate(text(&id), s, seed),
            1 => YieldRequest::sweep(
                text(&id),
                ScenarioGrid { scenarios: vec![s] },
                seed,
                (workers % 2 == 0).then_some(workers),
            ),
            2 => YieldRequest::co_opt(
                text(&id),
                coopt_spec(&name, node, target, backend, workers),
                seed,
                (workers % 3 == 0).then_some(workers),
            ),
            _ => YieldRequest::describe(text(&id)),
        };
        let wire = request.to_json().to_string_compact();
        let back = YieldRequest::from_json(&Json::parse(&wire).unwrap())
            .map_err(|e| TestCaseError::fail(format!("{e} for {wire}")))?;
        prop_assert_eq!(back, request);
        // The back-end and the searcher decode to the same value from
        // every wire form.
        let s = spec(&name, node, target, backend);
        for form in common::three_forms(s.to_json().get("backend").unwrap()) {
            let back = ScenarioBuilder::from_spec(s.clone())
                .set_json("backend", &form)
                .map_err(|e| TestCaseError::fail(format!("{e} for {form:?}")))?;
            prop_assert_eq!(back.spec(), &s);
        }
        let searcher = searcher_spec(workers);
        for form in common::three_forms(&searcher.to_json()) {
            prop_assert_eq!(SearcherSpec::from_json(&form).unwrap(), searcher.clone());
        }
    }

    #[test]
    fn responses_round_trip_including_every_error_code(
        id in prop::collection::vec(0usize..16, 0..12),
        name in prop::collection::vec(0usize..16, 0..10),
        message in prop::collection::vec(0usize..16, 0..24),
        variant in 0usize..8,
        suggest in proptest::bool::ANY,
        n in 0u64..100,
        seed in 0u64..u64::MAX,
        w_min in 20.0f64..400.0,
        kind in 0usize..6,
        with_mc in proptest::bool::ANY,
    ) {
        let body = match kind {
            0 => ResponseBody::Report(report(&name, seed, w_min, with_mc)),
            1 => ResponseBody::SweepReport {
                index: n,
                total: n + 3,
                report: report(&name, seed, w_min, with_mc),
            },
            2 => ResponseBody::SweepDone { total: n + 3, failed: n % 4 },
            3 => ResponseBody::Describe(if with_mc {
                ServiceInfo::with_co_opt()
            } else {
                ServiceInfo::default()
            }),
            4 => ResponseBody::CoOpt(CoOptReport {
                name: text(&name),
                searcher: if with_mc { "halving+genetic" } else { "grid" }.into(),
                seed,
                candidates: n + 6,
                evaluations: n + 1,
                search: with_mc.then(|| SearchReport {
                    generations: n + 2,
                    coarse_evaluations: n * 7,
                    final_evaluations: n + 1,
                    rungs: vec![
                        RungReport {
                            relax: 4.0,
                            evaluations: n * 5,
                            promoted: n + 4,
                        },
                        RungReport {
                            relax: 1.0,
                            evaluations: n + 1,
                            promoted: 0,
                        },
                    ],
                }),
                best: pareto_point(&name, w_min, 0.5),
                front: ParetoFront::from_points(vec![
                    pareto_point(&name, w_min, 0.5),
                    pareto_point(&message, w_min + 30.0, 0.25),
                ]),
            }),
            _ => ResponseBody::Error(ServiceError {
                code: error_code(variant, &name, suggest, n),
                message: text(&message),
            }),
        };
        let response = YieldResponse::new(text(&id), body);
        let wire = response.to_json().to_string_compact();
        prop_assert!(!wire.contains('\n'), "JSON-lines form must be one line");
        let back = YieldResponse::from_json(&Json::parse(&wire).unwrap())
            .map_err(|e| TestCaseError::fail(format!("{e} for {wire}")))?;
        prop_assert_eq!(back, response);
    }

    #[test]
    fn foreign_schemas_are_rejected_with_unsupported_schema(
        schema in 0u64..100,
        kind in 0usize..3,
    ) {
        prop_assume!(schema != SCHEMA_VERSION);
        let mut request = match kind {
            0 => YieldRequest::evaluate("s", ScenarioSpec::baseline("b"), 1),
            1 => YieldRequest::sweep(
                "s",
                ScenarioGrid { scenarios: vec![ScenarioSpec::baseline("b")] },
                1,
                None,
            ),
            _ => YieldRequest::describe("s"),
        };
        request.schema = schema;
        let responses = YieldService::new().handle(&request);
        prop_assert_eq!(responses.len(), 1);
        match &responses[0].body {
            ResponseBody::Error(e) => {
                prop_assert_eq!(&e.code, &ErrorCode::UnsupportedSchema { requested: schema });
            }
            other => return Err(TestCaseError::fail(format!("expected error, got {other:?}"))),
        }
    }
}

#[test]
fn schema_2_is_rejected_on_the_wire_too() {
    // The literal acceptance case: a `schema: 2` JSON-lines request.
    let service = YieldService::new();
    let mut responses = Vec::new();
    service.handle_line(
        r#"{ "schema": 2, "id": "future", "body": "describe" }"#,
        &mut |r| responses.push(r),
    );
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id, "future");
    let wire = responses[0].to_json().to_string_compact();
    assert!(wire.contains("\"unsupported_schema\""), "wire: {wire}");
    match &responses[0].body {
        ResponseBody::Error(e) => {
            assert_eq!(e.code, ErrorCode::UnsupportedSchema { requested: 2 });
        }
        other => panic!("expected error, got {other:?}"),
    }
}
