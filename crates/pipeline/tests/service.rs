//! Integration tests of the v1 service API: deterministic envelopes,
//! in-order streaming, cancellation, and bounded caches under stress.

use cnfet_pipeline::{
    BackendSpec, CacheConfig, CornerSpec, CorrelationSpec, Pipeline, RequestBody, ResponseBody,
    ScenarioGrid, ScenarioReport, ScenarioSpec, ServiceConfig, YieldRequest, YieldResponse,
    YieldService,
};

fn fast_spec(name: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::baseline(name);
    spec.backend = BackendSpec::GaussianSum;
    spec.fast_design = true;
    spec.rho = cnfet_pipeline::RhoSpec::Paper;
    spec
}

fn fast_grid_doc() -> &'static str {
    r#"{
        "name": "svc",
        "defaults": {
            "backend": "gaussian-sum",
            "rho": "paper",
            "fast_design": true,
            "m_min": "self-consistent"
        },
        "axes": {
            "node_nm": [45, 32, 22],
            "correlation": ["none", "growth+aligned-layout"]
        }
    }"#
}

/// Serialize a response batch to the exact bytes the daemon would emit.
fn wire(responses: &[YieldResponse]) -> String {
    responses
        .iter()
        .map(|r| r.to_json().to_string_compact())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn evaluate_responses_are_byte_identical_across_repeats_and_services() {
    let service = YieldService::new();
    let request = YieldRequest::evaluate("eval-1", fast_spec("x"), 7);
    let cold = wire(&service.handle(&request));
    let warm = wire(&service.handle(&request));
    assert_eq!(cold, warm, "cache warmth must not leak into responses");
    // A brand-new service (fresh caches) emits the same bytes too.
    let other = wire(&YieldService::new().handle(&request));
    assert_eq!(cold, other);
    assert!(cold.contains("\"report\""));
}

#[test]
fn sweep_streams_in_index_order_and_is_worker_independent() {
    let grid = ScenarioGrid::parse(fast_grid_doc()).unwrap();
    let total = grid.scenarios.len();
    let service = YieldService::new();
    let run = |workers: usize| -> Vec<YieldResponse> {
        service.handle(&YieldRequest::sweep("swp", grid.clone(), 99, Some(workers)))
    };
    let one = run(1);
    let many = run(8);
    assert_eq!(
        wire(&one),
        wire(&many),
        "worker count must not change a single byte"
    );
    assert_eq!(one.len(), total + 1, "one response per scenario + done");
    for (i, response) in one[..total].iter().enumerate() {
        assert_eq!(response.id, "swp");
        match &response.body {
            ResponseBody::SweepReport {
                index, total: t, ..
            } => {
                assert_eq!(*index, i as u64, "stream must be in index order");
                assert_eq!(*t, total as u64);
            }
            other => panic!("expected sweep_report, got {other:?}"),
        }
    }
    match &one[total].body {
        ResponseBody::SweepDone { total: t, failed } => {
            assert_eq!(*t, total as u64);
            assert_eq!(*failed, 0);
        }
        other => panic!("expected sweep_done, got {other:?}"),
    }
    // Reports match the legacy one-shot path scenario for scenario.
    let pipeline = Pipeline::new();
    for (i, response) in one[..total].iter().enumerate() {
        let ResponseBody::SweepReport { report, .. } = &response.body else {
            unreachable!("checked above");
        };
        let seed = cnfet_sim::engine::split_seed(99, i as u64);
        assert_eq!(
            report,
            &pipeline.evaluate(&grid.scenarios[i], seed).unwrap()
        );
    }
}

#[test]
fn sweep_handle_reports_progress_and_supports_cancellation() {
    // Distinct corners: every scenario must build its own pF(W) curve, so
    // the workers cannot race through the whole sweep before the consumer
    // cancels.
    let specs: Vec<ScenarioSpec> = (0..24)
        .map(|i| {
            let mut spec = fast_spec(&format!("c-{i}"));
            spec.corner = CornerSpec::Custom {
                pm: 0.05 + 0.005 * f64::from(i),
                p_rs: 0.25,
                p_rm: 1.0,
            };
            spec
        })
        .collect();
    let service = YieldService::new();
    let mut handle = service.sweep_with_workers(specs, 5, 2);
    assert_eq!(handle.total(), 24);
    let first = handle.next().expect("at least one result");
    assert_eq!(first.index, 0);
    first.report.expect("scenario evaluates");
    let progress = handle.progress();
    assert_eq!(progress.delivered, 1);
    assert!(progress.completed >= 1);
    handle.cancel();
    // Drain whatever the workers still deliver; the stream must end well
    // short of the full sweep instead of blocking forever.
    let mut delivered = 1;
    for item in handle {
        assert_eq!(item.index, delivered, "order holds even while cancelling");
        delivered += 1;
    }
    assert!(
        delivered < 24,
        "cancellation must truncate the stream, delivered {delivered}"
    );
}

#[test]
fn dropping_a_sweep_handle_mid_stream_does_not_hang() {
    let specs: Vec<ScenarioSpec> = (0..16).map(|i| fast_spec(&format!("d-{i}"))).collect();
    let service = YieldService::new();
    let mut handle = service.sweep_with_workers(specs, 5, 4);
    let _ = handle.next();
    drop(handle); // joins workers via Drop
}

#[test]
fn lru_cache_stays_bounded_under_100_scenario_stress() {
    let capacity = 4;
    let service = YieldService::with_config(ServiceConfig {
        cache: CacheConfig {
            curve_capacity: capacity,
            design_capacity: 2,
        },
        sweep_workers: 4,
    });
    // 100 scenarios over 25 distinct corners: far more curves than the
    // cache may hold.
    let specs: Vec<ScenarioSpec> = (0..100)
        .map(|i| {
            let mut spec = fast_spec(&format!("stress-{i}"));
            spec.corner = CornerSpec::Custom {
                pm: 0.05 + 0.01 * f64::from(i % 25),
                p_rs: 0.2,
                p_rm: 1.0,
            };
            spec
        })
        .collect();
    let reference = specs[3].clone();
    let mut delivered = 0;
    for item in service.sweep_with_workers(specs, 1, 4) {
        item.report.expect("stress scenario evaluates");
        delivered += 1;
        let stats = service.pipeline().cache_stats();
        assert!(
            stats.curves <= capacity,
            "curve cache exceeded capacity mid-sweep: {stats:?}"
        );
        assert!(stats.designs <= 2);
    }
    assert_eq!(delivered, 100);
    // Evictions must not have corrupted answers: a stressed-cache result
    // equals a fresh pipeline's.
    let seed = cnfet_sim::engine::split_seed(1, 3);
    assert_eq!(
        service.evaluate(&reference, seed).unwrap(),
        Pipeline::new().evaluate(&reference, seed).unwrap()
    );
}

#[test]
fn bad_scenarios_stream_structured_errors_and_a_failure_count() {
    let mut bad = fast_spec("bad");
    bad.yield_target = 2.0;
    let grid = ScenarioGrid {
        scenarios: vec![fast_spec("ok-0"), bad, fast_spec("ok-2")],
    };
    let service = YieldService::new();
    let responses = service.handle(&YieldRequest::sweep("mixed", grid, 1, Some(2)));
    assert_eq!(responses.len(), 4);
    assert!(!responses[0].is_error());
    assert!(responses[1].is_error(), "bad scenario yields an error");
    assert!(!responses[2].is_error(), "later scenarios still run");
    match &responses[3].body {
        ResponseBody::SweepDone { failed, total } => {
            assert_eq!((*total, *failed), (3, 1));
        }
        other => panic!("expected sweep_done, got {other:?}"),
    }
}

#[test]
fn describe_names_the_capabilities() {
    let service = YieldService::new();
    let responses = service.handle(&YieldRequest::describe("d"));
    assert_eq!(responses.len(), 1);
    let ResponseBody::Describe(info) = &responses[0].body else {
        panic!("expected describe body");
    };
    assert_eq!(info.schemas, vec![1]);
    assert!(info.backends.iter().any(|b| b == "monte-carlo"));
    assert!(info.scenario_keys.iter().any(|k| k == "yield_target"));
    // And the full response survives the wire.
    let line = responses[0].to_json().to_string_compact();
    assert_eq!(
        cnfet_pipeline::Json::parse(&line).unwrap(),
        responses[0].to_json()
    );
}

#[test]
fn wire_session_round_trips_every_kind() {
    // One daemon-style session: evaluate + sweep + describe, all parsed
    // back from their wire bytes.
    let service = YieldService::new();
    let grid = ScenarioGrid {
        scenarios: vec![fast_spec("w-0"), fast_spec("w-1")],
    };
    let requests = [
        YieldRequest::evaluate("a", fast_spec("w"), 3),
        YieldRequest::sweep("b", grid, 3, Some(1)),
        YieldRequest::describe("c"),
    ];
    let mut ids = Vec::new();
    for request in &requests {
        let line = request.to_json().to_string_compact();
        let mut emit = |response: YieldResponse| {
            let wire_line = response.to_json().to_string_compact();
            assert!(
                !wire_line.contains('\n'),
                "JSON-lines responses are one line"
            );
            assert_eq!(
                cnfet_pipeline::Json::parse(&wire_line).unwrap(),
                response.to_json()
            );
            assert!(!response.is_error(), "unexpected error: {wire_line}");
            ids.push(response.id.clone());
        };
        service.handle_line(&line, &mut emit);
    }
    assert_eq!(ids, ["a", "b", "b", "b", "c"], "ids stay correlated");
    // And a parsed request equals the original (request round-trip).
    let again = YieldRequest::from_json(
        &cnfet_pipeline::Json::parse(&requests[0].to_json().to_string_compact()).unwrap(),
    )
    .unwrap();
    assert_eq!(again.body, requests[0].body);
    assert!(matches!(again.body, RequestBody::Evaluate { seed: 3, .. }));
}

/// Every report of a sweep, in index order.
fn sweep_reports(
    specs: Vec<ScenarioSpec>,
    seed: u64,
    workers: usize,
) -> Vec<cnfet_pipeline::Result<ScenarioReport>> {
    YieldService::new()
        .sweep_with_workers(specs, seed, workers)
        .map(|item| item.report)
        .collect()
}

#[test]
fn monte_carlo_backend_sweeps_are_worker_independent() {
    // The acceptance contract of the MC back-end: a sweep over
    // stochastic scenarios is bit-identical for --workers 1 vs
    // --workers 8 at a fixed seed, including trial counts and CI
    // bounds. One sweep worker gives each scenario every MC thread,
    // eight give each a single one.
    let grid = ScenarioGrid::parse(
        r#"{
            "name": "mc",
            "defaults": {
                "backend": { "monte-carlo": { "rel_ci": 0.15, "max_trials": 100000, "batch": 1000 } },
                "rho": "paper",
                "fast_design": true
            },
            "axes": { "correlation": ["none", "growth+aligned-layout"] }
        }"#,
    )
    .unwrap();
    let one = sweep_reports(grid.scenarios.clone(), 7, 1);
    let many = sweep_reports(grid.scenarios, 7, 8);
    for (a, b) in one.iter().zip(many.iter()) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a, b, "MC scenario reports must be worker-independent");
        let mc = a.mc.as_ref().expect("mc provenance present");
        assert!(mc.trials > 0 && mc.ci_lo <= a.p_at_w_min && a.p_at_w_min <= mc.ci_hi);
    }
    // Correlation must still shrink W_min under the stochastic backend.
    let plain = one[0].as_ref().unwrap();
    let corr = one[1].as_ref().unwrap();
    assert!(corr.w_min_nm < plain.w_min_nm - 30.0);
}

#[test]
fn empty_sweep_is_empty() {
    let mut handle = YieldService::new().sweep_with_workers(Vec::new(), 0, 4);
    assert_eq!(handle.total(), 0);
    assert!(handle.next().is_none());
}

#[test]
fn correlated_scenarios_beat_uncorrelated_at_every_node() {
    let grid = ScenarioGrid::parse(fast_grid_doc()).unwrap();
    let results = sweep_reports(grid.scenarios, 5, 4);
    // Grid order: (45, none), (45, corr), (32, none), (32, corr), ...
    for pair in results.chunks(2) {
        let plain = pair[0].as_ref().unwrap();
        let corr = pair[1].as_ref().unwrap();
        assert_eq!(plain.correlation, CorrelationSpec::None.name());
        assert!(corr.w_min_nm < plain.w_min_nm);
        assert!(corr.upsizing_penalty <= plain.upsizing_penalty);
    }
}
