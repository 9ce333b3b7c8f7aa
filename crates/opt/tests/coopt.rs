//! Integration contract of the co-optimization engine: the paper's
//! qualitative result re-emerges from the search, reports are
//! byte-deterministic for any worker count, and both strategies agree on
//! the optimum of a space small enough to enumerate.

use cnfet_opt::{run_co_opt, OptService};
use cnfet_pipeline::{
    CoOptSpec, ErrorCode, RequestBody, ResponseBody, SearcherSpec, YieldRequest, YieldService,
};

/// A fast base: gaussian-sum back-end, reduced design, paper density.
fn spec(search: &str, searcher: &str) -> CoOptSpec {
    CoOptSpec::parse(&format!(
        r#"{{
            "name": "study",
            "base": {{
                "backend": "gaussian-sum",
                "rho": "paper",
                "fast_design": true,
                "correlation": "growth+aligned-layout"
            }},
            "search": {{ {search} }},
            "searcher": {searcher}
        }}"#
    ))
    .unwrap()
}

#[test]
fn wmin_strictly_decreases_with_correlation_length() {
    // The acceptance contract: at a fixed yield target, the optimal W_min
    // strictly decreases as the CNT correlation length grows, across at
    // least three correlation settings.
    let spec = spec(r#""l_cnt_um": [50, 100, 200, 400]"#, r#""grid""#);
    let report = run_co_opt(&YieldService::new(), &spec, 20100613, 4).unwrap();
    assert_eq!(report.evaluations, 4);
    let front = report.front.points();
    assert_eq!(
        front.len(),
        4,
        "every correlation length is Pareto-optimal in a 1-axis study: {front:?}"
    );
    for pair in front.windows(2) {
        assert!(
            pair[1].w_min_nm < pair[0].w_min_nm,
            "W_min must strictly decrease with correlation length: {} nm then {} nm",
            pair[0].w_min_nm,
            pair[1].w_min_nm
        );
        assert!(pair[1].relaxation > pair[0].relaxation);
    }
    // The paper's own numbers sit on this curve: L_CNT = 200 µm lands at
    // the correlated threshold (≈103 nm), far below the uncorrelated one.
    let at_200 = front
        .iter()
        .find(|p| p.scenario.contains("l_cnt_um=200"))
        .expect("200 µm candidate present");
    assert!(
        (at_200.w_min_nm - 103.0).abs() < 8.0,
        "W_min at the paper's correlation length: {} nm",
        at_200.w_min_nm
    );
}

#[test]
fn reports_are_byte_identical_for_any_worker_count() {
    let spec = spec(
        r#""l_cnt_um": [50, 200], "grid": ["single", "dual"]"#,
        r#""grid""#,
    );
    let runs: Vec<String> = [1usize, 8]
        .iter()
        .map(|&workers| {
            run_co_opt(&YieldService::new(), &spec, 9, workers)
                .unwrap()
                .to_json()
                .to_string_pretty()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "workers 1 vs 8 must not change a byte");
    // A warm shared cache must not change bytes either.
    let service = YieldService::new();
    let cold = run_co_opt(&service, &spec, 9, 2).unwrap();
    let warm = run_co_opt(&service, &spec, 9, 2).unwrap();
    assert_eq!(
        cold.to_json().to_string_pretty(),
        warm.to_json().to_string_pretty()
    );
}

#[test]
fn coordinate_descent_finds_the_grid_optimum() {
    let search = r#""l_cnt_um": [50, 100, 200], "grid": ["dual", "single"]"#;
    let exhaustive = run_co_opt(&YieldService::new(), &spec(search, r#""grid""#), 3, 2).unwrap();
    let descent = run_co_opt(
        &YieldService::new(),
        &spec(
            search,
            r#"{ "kind": "coordinate-descent", "restarts": 2, "max_sweeps": 4 }"#,
        ),
        3,
        2,
    )
    .unwrap();
    assert_eq!(exhaustive.searcher, "grid");
    assert_eq!(descent.searcher, "coordinate-descent");
    assert_eq!(exhaustive.candidates, 6);
    assert_eq!(exhaustive.evaluations, 6, "grid scan is exhaustive");
    assert!(
        descent.evaluations <= exhaustive.evaluations,
        "descent must not evaluate more than the grid"
    );
    // On this unimodal landscape the descent lands on the same optimum.
    assert_eq!(descent.best.scenario, exhaustive.best.scenario);
    assert_eq!(descent.best.cost, exhaustive.best.cost);
}

#[test]
fn front_prunes_dominated_points() {
    // Two axes where one direction is pure gain: at fixed correlation
    // length, the dual grid halves the relaxation and only costs W_min.
    // Dual-grid candidates are therefore dominated whenever a cheaper
    // same-demand point exists; the front must stay monotone.
    let spec = spec(
        r#""l_cnt_um": [50, 200, 400], "grid": ["single", "dual"]"#,
        r#""grid""#,
    );
    let report = run_co_opt(&YieldService::new(), &spec, 5, 4).unwrap();
    assert_eq!(report.evaluations, 6);
    let front = report.front.points();
    assert!(!front.is_empty() && front.len() < 6, "front: {front:?}");
    for pair in front.windows(2) {
        assert!(pair[0].demand <= pair[1].demand);
        assert!(
            pair[1].cost < pair[0].cost,
            "along the front, more demand must buy strictly lower cost"
        );
    }
    // No surviving point is dominated by any other.
    for a in front {
        assert!(!front.iter().any(|b| b.dominates(a)), "{a:?} is dominated");
    }
}

#[test]
fn opt_service_serves_co_opt_and_bare_service_declines() {
    let spec = spec(r#""l_cnt_um": [50, 200]"#, r#""grid""#);
    let request = YieldRequest::co_opt("c-1", spec, 7, Some(2));
    // Round trip the request like a wire client would.
    let wire = request.to_json().to_string_compact();
    let parsed = YieldRequest::from_json(&cnfet_pipeline::Json::parse(&wire).unwrap()).unwrap();
    assert_eq!(parsed, request);
    assert!(matches!(parsed.body, RequestBody::CoOpt { .. }));

    let opt = OptService::new();
    let responses = opt.handle(&request);
    assert_eq!(responses.len(), 1);
    let ResponseBody::CoOpt(report) = &responses[0].body else {
        panic!("expected a co_opt report, got {:?}", responses[0].body);
    };
    assert_eq!(report.evaluations, 2);
    // The response survives the wire as one JSON line.
    let wire = responses[0].to_json().to_string_compact();
    assert!(!wire.contains('\n'), "JSON-lines responses are one line");
    assert_eq!(
        cnfet_pipeline::Json::parse(&wire).unwrap(),
        responses[0].to_json()
    );

    // Capability discovery tells the two front ends apart.
    assert!(opt.describe().requests.contains(&"co_opt".to_string()));
    let bare = YieldService::new();
    assert!(!bare.describe().requests.contains(&"co_opt".to_string()));

    // A bare service answers the same request with a structured decline.
    let responses = bare.handle(&request);
    assert_eq!(responses.len(), 1);
    match &responses[0].body {
        ResponseBody::Error(e) => {
            assert_eq!(
                e.code,
                ErrorCode::UnsupportedBody {
                    body: "co_opt".into()
                }
            );
        }
        other => panic!("expected unsupported_body, got {other:?}"),
    }
}

#[test]
fn searcher_spec_forms_round_trip() {
    for (form, expected) in [
        (r#""grid""#, SearcherSpec::GridScan),
        (
            r#"{ "kind": "coordinate-descent", "restarts": 5 }"#,
            SearcherSpec::CoordinateDescent {
                restarts: 5,
                max_sweeps: 8,
            },
        ),
        (
            // Nested single-key form; omitted params take the defaults.
            r#"{ "genetic": { "population": 12, "mutation_rate": 0.5 } }"#,
            SearcherSpec::Genetic {
                population: 12,
                generations: 8,
                tournament_k: 3,
                mutation_rate: 0.5,
            },
        ),
        (
            r#"{ "kind": "genetic", "population": 6, "generations": 2, "tournament_k": 2, "mutation_rate": 0.1 }"#,
            SearcherSpec::Genetic {
                population: 6,
                generations: 2,
                tournament_k: 2,
                mutation_rate: 0.1,
            },
        ),
        (
            r#"{ "halving": { "inner": "grid", "rungs": 2, "eta": 4 } }"#,
            SearcherSpec::Halving {
                inner: Box::new(SearcherSpec::GridScan),
                rungs: 2,
                eta: 4,
            },
        ),
        (
            // A bare "halving" wraps the default genetic searcher.
            r#""halving""#,
            SearcherSpec::Halving {
                inner: Box::new(SearcherSpec::Genetic {
                    population: 24,
                    generations: 8,
                    tournament_k: 3,
                    mutation_rate: 0.25,
                }),
                rungs: 3,
                eta: 2,
            },
        ),
    ] {
        let spec = spec(r#""l_cnt_um": [50, 200]"#, form);
        assert_eq!(spec.searcher, expected);
        let back = CoOptSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec, "normal form must round-trip");
    }
}

#[test]
fn genetic_and_halving_reports_are_byte_identical_for_any_worker_count() {
    // The determinism contract extends to the adaptive strategies: the
    // genetic walk and the halving ladder make sequential seeded
    // decisions, so worker count must not change a byte of the report —
    // including the new `search` provenance block.
    for searcher in [
        r#"{ "genetic": { "population": 6, "generations": 3, "tournament_k": 2, "mutation_rate": 0.3 } }"#,
        r#"{ "halving": { "inner": { "genetic": { "population": 6, "generations": 2 } }, "rungs": 2, "eta": 2 } }"#,
    ] {
        let spec = spec(
            r#""l_cnt_um": [50, 100, 200], "grid": ["single", "dual"]"#,
            searcher,
        );
        let runs: Vec<String> = [1usize, 8]
            .iter()
            .map(|&workers| {
                run_co_opt(&YieldService::new(), &spec, 20100613, workers)
                    .unwrap()
                    .to_json()
                    .to_string_pretty()
            })
            .collect();
        assert_eq!(
            runs[0], runs[1],
            "workers 1 vs 8 must not change a byte ({searcher})"
        );
        assert!(
            runs[0].contains("\"search\""),
            "adaptive searchers must emit the search provenance block"
        );
    }
}

#[test]
fn halving_ladder_is_free_on_analytic_backends_and_finds_the_optimum() {
    // On an analytic back-end the precision relaxation is a no-op: every
    // rung re-reads the memo, so the ladder costs exactly what its inner
    // strategy costs — and the grid inner makes the front exact.
    let search = r#""l_cnt_um": [50, 100, 200], "grid": ["dual", "single"]"#;
    let exhaustive = run_co_opt(&YieldService::new(), &spec(search, r#""grid""#), 3, 2).unwrap();
    let ladder = run_co_opt(
        &YieldService::new(),
        &spec(
            search,
            r#"{ "halving": { "inner": "grid", "rungs": 3, "eta": 2 } }"#,
        ),
        3,
        2,
    )
    .unwrap();
    assert_eq!(ladder.searcher, "halving+grid");
    assert_eq!(
        ladder.evaluations, exhaustive.evaluations,
        "analytic rungs must not add evaluations"
    );
    assert_eq!(ladder.best.scenario, exhaustive.best.scenario);
    assert_eq!(ladder.best.cost, exhaustive.best.cost);
    let search_block = ladder.search.expect("ladder reports provenance");
    assert_eq!(search_block.rungs.len(), 3);
    assert_eq!(search_block.rungs.last().unwrap().relax, 1.0);
    assert_eq!(search_block.rungs.last().unwrap().promoted, 0);
}

#[test]
fn coopt_axes_accept_distribution_values() {
    // A scenario axis may now carry distribution objects: the candidates
    // realize per-seed draws through the stochastic knob layer.
    let spec = CoOptSpec::parse(
        r#"{
            "name": "dist-axis",
            "base": {
                "backend": "gaussian-sum",
                "rho": "paper",
                "fast_design": true,
                "correlation": "growth+aligned-layout"
            },
            "search": {
                "density": [1.0, { "gaussian": { "mean": 1.0, "sd": 0.05 } }],
                "l_cnt_um": [100, 200]
            },
            "searcher": "grid"
        }"#,
    )
    .unwrap();
    let report = run_co_opt(&YieldService::new(), &spec, 7, 2).unwrap();
    assert_eq!(report.evaluations, 4);
    // Same spec, same seed → byte-identical artifact even though half the
    // candidates sample their density.
    let again = run_co_opt(&YieldService::new(), &spec, 7, 1).unwrap();
    assert_eq!(
        report.to_json().to_string_pretty(),
        again.to_json().to_string_pretty()
    );
}
