//! Property tests: every request must survive JSON serialize → parse
//! unchanged, every response must be written as one line that parses back
//! into the same JSON tree, and foreign schema versions must be rejected
//! with a structured `unsupported_schema` error. Golden lines pin the
//! exact bytes each response kind is written as.

use cnfet_pipeline::{
    BackendSpec, CoOptReport, CoOptSpec, CorrelationSpec, ErrorCode, FaultReport, Json,
    LibrarySpec, McBackendReport, ParetoFront, ParetoPoint, RadialBand, ResponseBody, RungReport,
    ScenarioBuilder, ScenarioGrid, ScenarioReport, ScenarioSpec, SearchAxis, SearchReport,
    SearcherSpec, ServiceError, ServiceInfo, WaferReport, YieldRequest, YieldResponse,
    YieldService, SCHEMA_VERSION,
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
        let back = Json::parse(&wire)
            .map_err(|e| TestCaseError::fail(format!("{e} for {wire}")))?;
        prop_assert_eq!(back, response.to_json());
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

/// A string that exercises every escape the writer makes: a quote, a
/// backslash, a control character, a tab and non-ASCII text.
const AWKWARD: &str = "q\"b\\s\u{1}\t é≤台";

/// A seed above 2⁵³, which the wire carries as a decimal string.
const BIG_SEED: u64 = (1 << 53) + 1;

fn golden_report(name: &str, seed: u64) -> ScenarioReport {
    ScenarioReport {
        name: name.into(),
        seed,
        library: "nangate45".into(),
        node_nm: 45.0,
        corner: "pm=33%, pRs=30%".into(),
        correlation: "growth+aligned-layout".into(),
        backend: "convolution".into(),
        yield_target: 0.9,
        m_transistors: 1e8,
        m_min: 33e6,
        m_r_min: 360.25,
        relaxation: 127.0,
        p_req: 3.4e-9,
        w_min_nm: 103.5,
        p_at_w_min: 2.9e-9,
        // 0.30000000000000004: the shortest exact form needs 17 digits.
        upsizing_penalty: 0.1 + 0.2,
        unaligned_p_rf_mc: None,
        mc: None,
        fault: None,
    }
}

fn golden_point(scenario: &str, choice: Vec<u64>, demand: f64, w_min_nm: f64) -> ParetoPoint {
    ParetoPoint {
        scenario: scenario.into(),
        choice,
        demand,
        cost: w_min_nm / 155.0,
        w_min_nm,
        upsizing_penalty: 0.065,
        p_req: 1.1e-6,
        p_at_w_min: 9.7e-7,
        relaxation: 360.0,
    }
}

fn golden_error(code: ErrorCode, message: &str) -> ResponseBody {
    ResponseBody::Error(ServiceError {
        code,
        message: message.into(),
    })
}

/// Every response kind with the one compact line it must be written as.
fn golden_cases() -> Vec<(YieldResponse, &'static str)> {
    let mut report = golden_report(AWKWARD, BIG_SEED);
    report.backend = "monte-carlo".into();
    report.unaligned_p_rf_mc = Some(4.5e-7);
    report.mc = Some(McBackendReport {
        trials: 480_000,
        widths_evaluated: 24,
        ci_lo: 2.6e-9,
        ci_hi: 3.2e-9,
        ci_level: 0.95,
        converged: true,
    });
    report.fault = Some(FaultReport {
        purity: 0.999_999,
        mode: "short".into(),
        p_short: 3.1e-5,
        scheme: "repairable-tile".into(),
        area_overhead: 1.125,
        p_budget: 6.3e-5,
        recovered_yield: 0.93,
        shortfall: 0.0,
        method: "exact".into(),
        met_target: true,
    });
    let best = golden_point("study/l_cnt_um=200/grid=dual", vec![1, 0], 0.25, 103.5);
    let co_opt = CoOptReport {
        name: "study".into(),
        searcher: "halving+genetic".into(),
        seed: u64::MAX,
        candidates: 6,
        evaluations: 4,
        search: Some(SearchReport {
            generations: 2,
            coarse_evaluations: 12,
            final_evaluations: 4,
            rungs: vec![
                RungReport {
                    relax: 4.0,
                    evaluations: 12,
                    promoted: 4,
                },
                RungReport {
                    relax: 1.0,
                    evaluations: 4,
                    promoted: 0,
                },
            ],
        }),
        best: best.clone(),
        front: ParetoFront::from_points(vec![
            golden_point("study/l_cnt_um=50/grid=dual", vec![0, 0], 0.0, 155.25),
            best,
        ]),
    };
    let wafer = WaferReport {
        name: "wafer".into(),
        seed: BIG_SEED,
        diameter_dies: 20,
        dies: 316,
        w_design_nm: 103.5,
        overall_yield: 0.1 + 0.7,
        min_die_yield: 0.5,
        max_die_yield: 0.96875,
        distinct_scenarios: 314,
        bins: vec![0, 0, 0, 0, 0, 2, 10, 40, 100, 164],
        radial: vec![
            RadialBand {
                r_lo: 0.0,
                r_hi: 0.5,
                dies: 79,
                mean_yield: 0.9,
            },
            RadialBand {
                r_lo: 0.5,
                r_hi: 1.0,
                dies: 237,
                mean_yield: 0.75,
            },
        ],
    };
    let unknown = |suggestion: Option<&str>| ErrorCode::UnknownKey {
        key: "yeild_target".into(),
        suggestion: suggestion.map(String::from),
    };
    let cases = [
        (
            AWKWARD,
            ResponseBody::Report(report),
            concat!(
                r#"{"schema":1,"id":"q\"b\\s\u0001\t é≤台","#,
                r#""body":{"report":{"name":"q\"b\\s\u0001\t é≤台","seed":"9007199254740993","#,
                r#""library":"nangate45","node_nm":45,"corner":"pm=33%, pRs=30%","#,
                r#""correlation":"growth+aligned-layout","backend":"monte-carlo","#,
                r#""yield_target":0.9,"m_transistors":100000000,"m_min":33000000,"#,
                r#""m_r_min":360.25,"relaxation":127,"p_req":0.0000000034,"w_min_nm":103.5,"#,
                r#""p_at_w_min":0.0000000029,"upsizing_penalty":0.30000000000000004,"#,
                r#""unaligned_p_rf_mc":0.00000045,"mc":{"trials":480000,"widths_evaluated":24,"#,
                r#""ci_lo":0.0000000026,"ci_hi":0.0000000032,"ci_level":0.95,"converged":true},"#,
                r#""fault":{"purity":0.999999,"mode":"short","p_short":0.000031,"#,
                r#""scheme":"repairable-tile","area_overhead":1.125,"p_budget":0.000063,"#,
                r#""recovered_yield":0.93,"shortfall":0,"method":"exact","met_target":true}}}}"#,
            ),
        ),
        (
            "swp",
            ResponseBody::SweepReport {
                index: 1,
                total: 3,
                report: golden_report("grid/correlation=none", 7),
            },
            concat!(
                r#"{"schema":1,"id":"swp","body":{"sweep_report":{"index":1,"total":3,"#,
                r#""report":{"name":"grid/correlation=none","seed":7,"library":"nangate45","#,
                r#""node_nm":45,"corner":"pm=33%, pRs=30%","correlation":"growth+aligned-layout","#,
                r#""backend":"convolution","yield_target":0.9,"m_transistors":100000000,"#,
                r#""m_min":33000000,"m_r_min":360.25,"relaxation":127,"p_req":0.0000000034,"#,
                r#""w_min_nm":103.5,"p_at_w_min":0.0000000029,"#,
                r#""upsizing_penalty":0.30000000000000004}}}}"#,
            ),
        ),
        (
            "swp",
            ResponseBody::SweepDone {
                total: 3,
                failed: 1,
            },
            r#"{"schema":1,"id":"swp","body":{"sweep_done":{"total":3,"failed":1}}}"#,
        ),
        (
            "opt",
            ResponseBody::CoOpt(co_opt),
            concat!(
                r#"{"schema":1,"id":"opt","body":{"co_opt_report":{"name":"study","#,
                r#""searcher":"halving+genetic","seed":"18446744073709551615","candidates":6,"#,
                r#""evaluations":4,"search":{"generations":2,"coarse_evaluations":12,"#,
                r#""final_evaluations":4,"rungs":[{"relax":4,"evaluations":12,"promoted":4},"#,
                r#"{"relax":1,"evaluations":4,"promoted":0}]},"#,
                r#""best":{"scenario":"study/l_cnt_um=200/grid=dual","choice":[1,0],"#,
                r#""demand":0.25,"cost":0.667741935483871,"w_min_nm":103.5,"#,
                r#""upsizing_penalty":0.065,"p_req":0.0000011,"p_at_w_min":0.00000097,"#,
                r#""relaxation":360},"front":[{"scenario":"study/l_cnt_um=50/grid=dual","#,
                r#""choice":[0,0],"demand":0,"cost":1.0016129032258065,"w_min_nm":155.25,"#,
                r#""upsizing_penalty":0.065,"p_req":0.0000011,"p_at_w_min":0.00000097,"#,
                r#""relaxation":360},{"scenario":"study/l_cnt_um=200/grid=dual","choice":[1,0],"#,
                r#""demand":0.25,"cost":0.667741935483871,"w_min_nm":103.5,"#,
                r#""upsizing_penalty":0.065,"p_req":0.0000011,"p_at_w_min":0.00000097,"#,
                r#""relaxation":360}]}}}"#,
            ),
        ),
        (
            "wf",
            ResponseBody::Wafer(wafer),
            concat!(
                r#"{"schema":1,"id":"wf","body":{"wafer_report":{"name":"wafer","#,
                r#""seed":"9007199254740993","diameter_dies":20,"dies":316,"w_design_nm":103.5,"#,
                r#""overall_yield":0.7999999999999999,"min_die_yield":0.5,"#,
                r#""max_die_yield":0.96875,"distinct_scenarios":314,"bins":[0,0,0,0,0,2,10,40,"#,
                r#"100,164],"radial":[{"r_lo":0,"r_hi":0.5,"dies":79,"mean_yield":0.9},"#,
                r#"{"r_lo":0.5,"r_hi":1,"dies":237,"mean_yield":0.75}]}}}"#,
            ),
        ),
        (
            "cap",
            ResponseBody::Describe(ServiceInfo::default()),
            concat!(
                r#"{"schema":1,"id":"cap","body":{"describe":{"service":"cnfet-yield-service","#,
                r#""version":""#,
                env!("CARGO_PKG_VERSION"),
                r#"","schemas":[1],"requests":["evaluate","sweep","wafer","describe"],"#,
                r#""backends":["convolution","gaussian-sum","monte-carlo"],"#,
                r#""correlations":["none","growth","growth+aligned-layout"],"#,
                r#""libraries":["nangate45","commercial65"],"scenario_keys":["name","corner","#,
                r#""correlation","library","node_nm","yield_target","backend","m_transistors","#,
                r#""m_min","rho","density","l_cnt_um","purity","redundancy","grid","fast_design","#,
                r#""mc_trials"],"dist_kinds":["fixed","gaussian","truncated-gaussian","uniform","#,
                r#""lognormal"],"redundancy_kinds":["none","tmr","spare-units","#,
                r#""repairable-tile"],"purity_modes":["short","removal"],"wafer_keys":["name","#,
                r#""seed","diameter_dies","base","fields"],"coopt_keys":["name","base","search","#,
                r#""objective","searcher"],"searchers":["grid","coordinate-descent","genetic","#,
                r#""halving"]}}}"#,
            ),
        ),
        (
            "cap",
            ResponseBody::Describe(ServiceInfo::with_co_opt()),
            concat!(
                r#"{"schema":1,"id":"cap","body":{"describe":{"service":"cnfet-yield-service","#,
                r#""version":""#,
                env!("CARGO_PKG_VERSION"),
                r#"","schemas":[1],"requests":["evaluate","sweep","co_opt","wafer","describe"],"#,
                r#""backends":["convolution","gaussian-sum","monte-carlo"],"#,
                r#""correlations":["none","growth","growth+aligned-layout"],"#,
                r#""libraries":["nangate45","commercial65"],"scenario_keys":["name","corner","#,
                r#""correlation","library","node_nm","yield_target","backend","m_transistors","#,
                r#""m_min","rho","density","l_cnt_um","purity","redundancy","grid","fast_design","#,
                r#""mc_trials"],"dist_kinds":["fixed","gaussian","truncated-gaussian","uniform","#,
                r#""lognormal"],"redundancy_kinds":["none","tmr","spare-units","#,
                r#""repairable-tile"],"purity_modes":["short","removal"],"wafer_keys":["name","#,
                r#""seed","diameter_dies","base","fields"],"coopt_keys":["name","base","search","#,
                r#""objective","searcher"],"searchers":["grid","coordinate-descent","genetic","#,
                r#""halving"]}}}"#,
            ),
        ),
        (
            "",
            golden_error(
                ErrorCode::BadRequest,
                "parse error at line 1: unexpected character `n`",
            ),
            concat!(
                r#"{"schema":1,"id":"","body":{"error":{"code":"bad_request","#,
                r#""message":"parse error at line 1: unexpected character `n`"}}}"#,
            ),
        ),
        (
            "future",
            golden_error(
                ErrorCode::UnsupportedSchema { requested: 2 },
                "schema 2 is not supported (this build speaks schema 1)",
            ),
            concat!(
                r#"{"schema":1,"id":"future","body":{"error":{"code":"unsupported_schema","#,
                r#""requested":2,"supported":[1],"#,
                r#""message":"schema 2 is not supported (this build speaks schema 1)"}}}"#,
            ),
        ),
        (
            "bad",
            golden_error(
                ErrorCode::BadSpec {
                    field: "yield_target".into(),
                },
                AWKWARD,
            ),
            concat!(
                r#"{"schema":1,"id":"bad","body":{"error":{"code":"bad_spec","#,
                r#""field":"yield_target","message":"q\"b\\s\u0001\t é≤台"}}}"#,
            ),
        ),
        (
            "typo",
            golden_error(unknown(Some("yield_target")), "unknown key"),
            concat!(
                r#"{"schema":1,"id":"typo","body":{"error":{"code":"unknown_key","#,
                r#""key":"yeild_target","suggestion":"yield_target","message":"unknown key"}}}"#,
            ),
        ),
        (
            "typo",
            golden_error(unknown(None), "unknown key"),
            concat!(
                r#"{"schema":1,"id":"typo","body":{"error":{"code":"unknown_key","#,
                r#""key":"yeild_target","message":"unknown key"}}}"#,
            ),
        ),
        (
            "opt",
            golden_error(
                ErrorCode::UnsupportedBody {
                    body: "co_opt".into(),
                },
                "not served",
            ),
            concat!(
                r#"{"schema":1,"id":"opt","body":{"error":{"code":"unsupported_body","#,
                r#""body":"co_opt","message":"not served"}}}"#,
            ),
        ),
        (
            "busy",
            golden_error(ErrorCode::Overloaded { shard: 3 }, "queue full"),
            concat!(
                r#"{"schema":1,"id":"busy","body":{"error":{"code":"overloaded","shard":3,"#,
                r#""message":"queue full"}}}"#,
            ),
        ),
        (
            "mc",
            golden_error(ErrorCode::Unconverged, "no convergence"),
            concat!(
                r#"{"schema":1,"id":"mc","body":{"error":{"code":"unconverged","#,
                r#""message":"no convergence"}}}"#,
            ),
        ),
        (
            "boom",
            golden_error(ErrorCode::Internal, "internal"),
            concat!(
                r#"{"schema":1,"id":"boom","body":{"error":{"code":"internal","#,
                r#""message":"internal"}}}"#,
            ),
        ),
    ];
    cases
        .into_iter()
        .map(|(id, body, wire)| (YieldResponse::new(id, body), wire))
        .collect()
}

#[test]
fn every_response_kind_is_written_as_its_golden_line() {
    for (response, golden) in golden_cases() {
        let wire = response.to_json().to_string_compact();
        assert_eq!(wire, golden, "the writer moved a byte clients read");
        assert_eq!(Json::parse(golden).unwrap(), response.to_json());
    }
}
