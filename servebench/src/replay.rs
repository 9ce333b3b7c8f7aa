//! In-process replays of a run's lines through a `ShardRouter` over
//! `OptService` with the daemon's shard count and defaults: one plain
//! (the untraced reference transcript and router latency), one traced.
//!
//! The traced replay swaps each shard's `OptService` for [`TracedShard`],
//! which answers a line by calling the same public functions the service
//! calls, in the same order, with a span around each call. Inner layers
//! of an evaluate are reached by calling their public functions on the
//! request's own decoded inputs and the shard's own caches: before the
//! engine call where that work is then reused from cache (the analytic
//! curve and its `W_min` solve), and as probe spans after it where the
//! engine keeps the work private (the Monte-Carlo solve, the fault
//! compose).

use crate::check::{Checker, Step, Transcript, View};
use crate::trace::{Span, Tracer};
use crate::workload::{fnv1a, Line};
use cnfet_core::curve::{FailureCurve, PFailure};
use cnfet_core::failure::FailureModel;
use cnfet_core::stochastic::McFailure;
use cnfet_core::wmin::WminSolver;
use cnfet_fault::{McFallback, PurityMode};
use cnfet_opt::OptService;
use cnfet_pipeline::{
    CacheStats, Client, CornerSpec, ErrorCode, Json, LineServer, McBackendReport, MminSpec,
    Pipeline, RequestBody, ResponseBody, RouterConfig, ScenarioReport, ScenarioSpec, ServiceConfig,
    ServiceError, ShardRouter, YieldRequest, YieldResponse, SCHEMA_VERSION,
};
use cnfet_sim::adaptive::McPrecision;
use cnt_stats::split_seed;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed salt of the probes that re-run seeded work (their own stream, so
/// a probe never shares random numbers with the request it measures).
pub const PROBE_SALT: u64 = 0x7072_6F62; // "prob"

/// Steps of the engine's width/short-probability fixed point.
const SHORT_FIXED_POINT_ITERS: usize = 8;

/// The width of the first query on a curve (nm), inside every bracket
/// the solver uses.
pub const FIRST_QUERY_NM: f64 = 100.0;

/// Worker threads of one Monte-Carlo evaluation, as the engine picks them.
pub fn mc_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// What a replay observed.
#[derive(Debug, Default)]
pub struct Replay {
    /// Responses.
    pub transcript: Transcript,
    /// Router latency per line (ms): submit to terminal response.
    pub latency_ms: Vec<Option<f64>>,
    /// Failed lines by index, with the reason.
    pub failures: Vec<(usize, String)>,
    /// Responses that answered no open request.
    pub strays: usize,
    /// What the per-layer metrics read from `report` bodies, by line.
    pub reports: HashMap<usize, Observed>,
    /// `(dies, distinct_scenarios)` of wafer reports by line index.
    pub wafers: HashMap<usize, (u64, u64)>,
    /// `(full, coarse)` evaluations of co-opt reports by line index.
    pub coopts: HashMap<usize, (u64, u64)>,
    /// Pipeline cache residency summed over shards, after the replay.
    pub cache: Option<CacheStats>,
}

/// The parts of an evaluate's report the per-layer metrics read.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// The solved width (nm).
    pub w_min_nm: f64,
    /// The Monte-Carlo provenance block, when the back-end was MC.
    pub mc: Option<McBackendReport>,
    /// Whether the fault compose took the Monte-Carlo fallback, when
    /// fault knobs were active.
    pub fault_mc: Option<bool>,
}

/// The router over `S` shards, in the daemon's configuration.
fn router<S: LineServer>(shards: usize, factory: impl FnMut(usize) -> S) -> ShardRouter {
    ShardRouter::new(
        RouterConfig {
            shards,
            ..RouterConfig::default()
        },
        factory,
    )
}

/// Fold the residency of every shard's pipeline.
fn sum_cache(services: &[OptService]) -> CacheStats {
    let mut total = CacheStats {
        curves: 0,
        curve_capacity: 0,
        curve_knots: 0,
        curve_evaluations: 0,
        designs: 0,
        design_capacity: 0,
        libraries: 0,
        alignments: 0,
    };
    for s in services
        .iter()
        .map(|s| s.service().pipeline().cache_stats())
    {
        total.curves += s.curves;
        total.curve_capacity += s.curve_capacity;
        total.curve_knots += s.curve_knots;
        total.curve_evaluations += s.curve_evaluations;
        total.designs += s.designs;
        total.design_capacity += s.design_capacity;
        total.libraries += s.libraries;
        total.alignments += s.alignments;
    }
    total
}

/// Replay `lines` with `outstanding` requests in flight through plain
/// `OptService` shards.
pub fn plain(lines: &[Line], outstanding: usize, shards: usize) -> Replay {
    let services: Vec<OptService> = (0..shards)
        .map(|_| OptService::with_config(ServiceConfig::default()))
        .collect();
    let router = router(shards, |i| services[i].clone());
    let mut replay = closed_loop(router, lines, outstanding, None);
    replay.cache = Some(sum_cache(&services));
    replay
}

/// Replay `lines` through [`TracedShard`]s, recording spans in `tracer`.
pub fn traced(lines: &[Line], outstanding: usize, shards: usize, tracer: Arc<Tracer>) -> Replay {
    let services: Vec<OptService> = (0..shards)
        .map(|_| OptService::with_config(ServiceConfig::default()))
        .collect();
    let index: Arc<HashMap<u64, usize>> = Arc::new(
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| (fnv1a(l.text.as_bytes()), i))
            .collect(),
    );
    let router_spans: Arc<Vec<AtomicU64>> =
        Arc::new((0..lines.len()).map(|_| AtomicU64::new(0)).collect());
    let router = router(shards, |i| TracedShard {
        service: services[i].clone(),
        tracer: Arc::clone(&tracer),
        index: Arc::clone(&index),
        router_spans: Arc::clone(&router_spans),
    });
    let mut replay = closed_loop(router, lines, outstanding, Some((&tracer, &router_spans)));
    replay.cache = Some(sum_cache(&services));
    replay
}

/// Lines in flight in an in-process closed loop.
struct Inflight<'a> {
    router: &'a ShardRouter,
    client: &'a Client,
    lines: &'a [Line],
    trace: Option<(&'a Tracer, &'a [AtomicU64])>,
    checker: Checker,
    /// Send instant and tracer clock of each submitted line.
    sent_at: Vec<Option<(Instant, u64)>>,
    /// Request and router span ids of each traced line.
    span_ids: Vec<(u64, u64)>,
}

impl Inflight<'_> {
    fn submit(&mut self, i: usize) {
        self.checker.open(i, &self.lines[i]);
        let clock = match self.trace {
            Some((tracer, router_spans)) => {
                self.span_ids[i] = (tracer.id(), tracer.id());
                router_spans[i].store(self.span_ids[i].1, Ordering::SeqCst);
                tracer.now()
            }
            None => 0,
        };
        self.sent_at[i] = Some((Instant::now(), clock));
        self.router.submit(self.lines[i].text.as_str(), self.client);
    }

    /// Run `f` in a span under request `index`'s root when tracing.
    fn under<T>(&self, name: &'static str, index: Option<usize>, f: impl FnOnce() -> T) -> T {
        match (self.trace, index) {
            (Some((tracer, _)), Some(i)) => tracer.span(name, Some(self.span_ids[i].0), i, |_| f()),
            _ => f(),
        }
    }
}

/// The in-process closed loop: the same lines, the same number in
/// flight, responses encoded as the daemon's writer encodes them.
fn closed_loop(
    router: ShardRouter,
    lines: &[Line],
    outstanding: usize,
    trace: Option<(&Tracer, &[AtomicU64])>,
) -> Replay {
    let (client, responses) = Client::channel();
    let mut replay = Replay {
        latency_ms: vec![None; lines.len()],
        ..Replay::default()
    };
    let mut flight = Inflight {
        router: &router,
        client: &client,
        lines,
        trace,
        checker: Checker::new(),
        sent_at: vec![None; lines.len()],
        span_ids: vec![(0, 0); lines.len()],
    };
    let mut next = 0;
    while next < outstanding.min(lines.len()) {
        flight.submit(next);
        next += 1;
    }
    while flight.checker.pending() > 0 {
        let Ok(response) = responses.recv_timeout(Duration::from_secs(120)) else {
            break;
        };
        let received = Instant::now();
        let received_ns = trace.map_or(0, |(t, _)| t.now());
        let step = flight.checker.response(&View::of_response(&response));
        let index = match step {
            Step::Done(i) | Step::Progress(i) => Some(i),
            Step::Stray => None,
        };
        let json = flight.under("envelope.encode", index, || response.to_json());
        let text = flight.under("json.encode", index, || json.to_string_compact());
        if let Step::Done(i) = step {
            let (at, at_ns) = flight.sent_at[i].expect("sent before answered");
            replay.latency_ms[i] = Some(received.duration_since(at).as_secs_f64() * 1e3);
            if let Some((tracer, _)) = trace {
                let (request, router_span) = flight.span_ids[i];
                for (id, name, end, parent) in [
                    (router_span, "router", received_ns, Some(request)),
                    (request, "request", tracer.now(), None),
                ] {
                    tracer.record(Span {
                        id,
                        name,
                        start: at_ns,
                        end,
                        parent,
                        request: i,
                        probe: false,
                    });
                }
            }
            observe(&mut replay, i, response);
            if next < lines.len() {
                flight.submit(next);
                next += 1;
            }
        }
        replay.transcript.push(step, &text);
    }
    let (failures, strays) = flight.checker.finish();
    router.shutdown();
    replay.failures = failures;
    replay.strays = strays;
    replay
}

/// Keep what the per-layer metrics read from responses.
fn observe(replay: &mut Replay, index: usize, response: YieldResponse) {
    match response.body {
        ResponseBody::Report(report) => {
            let observed = Observed {
                w_min_nm: report.w_min_nm,
                mc: report.mc,
                fault_mc: report.fault.map(|f| f.method == "monte-carlo"),
            };
            replay.reports.insert(index, observed);
        }
        ResponseBody::Wafer(w) => {
            replay.wafers.insert(index, (w.dies, w.distinct_scenarios));
        }
        ResponseBody::CoOpt(c) => {
            let (full, coarse) = match &c.search {
                Some(s) => (s.final_evaluations, s.coarse_evaluations),
                None => (c.evaluations, 0),
            };
            replay.coopts.insert(index, (full, coarse));
        }
        _ => {}
    }
}

/// A shard of the traced replay: answers exactly as `OptService` does,
/// with spans around each layer's public call.
pub struct TracedShard {
    service: OptService,
    tracer: Arc<Tracer>,
    /// Line index by hash of the line's text.
    index: Arc<HashMap<u64, usize>>,
    router_spans: Arc<Vec<AtomicU64>>,
}

impl LineServer for TracedShard {
    fn serve_line(&self, line: &str, emit: &mut dyn FnMut(YieldResponse) -> bool) -> bool {
        let t = &*self.tracer;
        let r = self
            .index
            .get(&fnv1a(line.as_bytes()))
            .copied()
            .unwrap_or(usize::MAX);
        let parent = self.router_spans.get(r).map(|id| id.load(Ordering::SeqCst));
        t.span("shard.serve", parent, r, |serve| {
            let doc = t.span("json.parse", Some(serve), r, |_| Json::parse(line));
            let request = doc.ok().and_then(|doc| {
                t.span("envelope.decode", Some(serve), r, |decode| {
                    let request = YieldRequest::from_json(&doc).ok();
                    let spec = doc
                        .get("body")
                        .and_then(|b| b.get("evaluate"))
                        .and_then(|e| e.get("spec"));
                    if let Some(spec) = spec {
                        t.probe("scenario.build", decode, r, |_| {
                            let _ = std::hint::black_box(ScenarioSpec::from_json(spec));
                        });
                    }
                    request
                })
            });
            match request {
                Some(request) if request.schema == SCHEMA_VERSION => {
                    t.span("service.stream", Some(serve), r, |stream| {
                        self.stream(&request, stream, r, emit)
                    })
                }
                _ => t.span("envelope.error", Some(serve), r, |_| {
                    self.service.handle_line_while(line, emit)
                }),
            }
        })
    }
}

/// The corner `Pipeline::evaluate` solves on: removal-mode impurity folds
/// into the metallic fraction.
pub fn eval_corner(spec: &ScenarioSpec) -> Option<CornerSpec> {
    if spec.fault_active() && spec.purity.mode == PurityMode::Removal {
        let c = spec.corner.corner().ok()?;
        Some(CornerSpec::Custom {
            pm: 1.0 - spec.purity.central(),
            p_rs: c.p_rs(),
            p_rm: c.p_rm(),
        })
    } else {
        Some(spec.corner)
    }
}

/// `M_min` of a fixed-fraction spec.
fn m_min(spec: &ScenarioSpec) -> Option<f64> {
    let MminSpec::Fraction(dist) = spec.m_min else {
        return None;
    };
    Some((dist.mean().ok()? * spec.m_transistors).max(1.0))
}

/// The per-cell failure budget a fault scenario's width solve targets.
fn fault_budget(spec: &ScenarioSpec) -> Option<f64> {
    spec.redundancy
        .required_p_cell(spec.yield_target, m_min(spec)?)
        .ok()
}

/// The width solve `Pipeline::evaluate` runs for a fixed-fraction spec:
/// for fault scenarios (`budget` given), the first fixed-point step.
fn solve_wmin<E: PFailure>(
    pipeline: &Pipeline,
    spec: &ScenarioSpec,
    eval: &E,
    budget: Option<f64>,
) -> Option<f64> {
    let row = pipeline.row_model(spec).ok()?;
    let relax = Pipeline::relaxation(spec, &row).max(1.0);
    let solver = WminSolver::new(eval);
    let solution = match budget {
        Some(budget) => solver.solve_for_requirement((budget * relax).min(0.999_999)),
        None => solver.solve_relaxed(spec.yield_target, m_min(spec)?, relax),
    };
    solution.ok().map(|s| s.w_min)
}

/// `McFailure` with a span around every width it actually samples.
struct TimedMc<'a> {
    inner: McFailure,
    tracer: &'a Tracer,
    parent: u64,
    request: usize,
}

impl PFailure for TimedMc<'_> {
    fn p_failure(&self, w: f64) -> cnfet_core::Result<f64> {
        let before = self.inner.evaluated_widths();
        let start = self.tracer.now();
        let p = self.inner.p_failure(w);
        if self.inner.evaluated_widths() > before {
            self.tracer.record(Span {
                id: self.tracer.id(),
                name: "mc.point",
                start,
                end: self.tracer.now(),
                parent: Some(self.parent),
                request: self.request,
                probe: false,
            });
        }
        p
    }
}

impl TracedShard {
    /// The body dispatch of `OptService::stream_while`, one span per layer.
    fn stream(
        &self,
        request: &YieldRequest,
        stream: u64,
        r: usize,
        emit: &mut dyn FnMut(YieldResponse) -> bool,
    ) -> bool {
        let t = &*self.tracer;
        let service = self.service.service();
        let id = request.id.as_str();
        let or_error = |result: cnfet_pipeline::Result<ResponseBody>| match result {
            Ok(body) => YieldResponse::new(id, body),
            Err(e) => YieldResponse::error(id, ServiceError::from_pipeline(&e)),
        };
        match &request.body {
            RequestBody::Evaluate { spec, seed } => {
                let result = self.evaluate(spec, *seed, stream, r);
                emit(or_error(result.map(ResponseBody::Report)))
            }
            RequestBody::Wafer {
                spec,
                seed,
                workers,
            } => {
                let workers = workers.unwrap_or(service.config().sweep_workers);
                let result = t.span("wafer.run", Some(stream), r, |_| {
                    service.wafer_with_workers(spec, *seed, workers)
                });
                emit(or_error(result.map(ResponseBody::Wafer)))
            }
            RequestBody::CoOpt {
                spec,
                seed,
                workers,
            } => {
                let workers = workers.unwrap_or(service.config().sweep_workers);
                let result = t.span("opt.run", Some(stream), r, |_| {
                    cnfet_opt::run_co_opt(service, spec, *seed, workers)
                });
                emit(or_error(result.map(ResponseBody::CoOpt)))
            }
            RequestBody::Sweep {
                grid,
                seed,
                workers,
            } => {
                let workers = workers.unwrap_or(service.config().sweep_workers);
                t.span("sweep.run", Some(stream), r, |_| {
                    let start = Instant::now();
                    let total = grid.scenarios.len() as u64;
                    let mut handle =
                        service.sweep_with_workers(grid.scenarios.clone(), *seed, workers);
                    let (mut failed, mut delivered) = (0, 0);
                    while let Some(item) = handle.next() {
                        if delivered == 0 {
                            t.note(
                                r,
                                "sweep.first_report_ms",
                                start.elapsed().as_secs_f64() * 1e3,
                            );
                        }
                        delivered += 1;
                        let response = match item.report {
                            Ok(report) => YieldResponse::new(
                                id,
                                ResponseBody::SweepReport {
                                    index: item.index as u64,
                                    total,
                                    report,
                                },
                            ),
                            Err(e) => {
                                failed += 1;
                                YieldResponse::error(id, ServiceError::from_pipeline(&e))
                            }
                        };
                        if !emit(response) {
                            handle.cancel();
                            return false;
                        }
                    }
                    t.note(r, "sweep.scenarios", delivered as f64);
                    let missing = total - delivered;
                    if missing > 0 {
                        failed += missing;
                        let truncated = YieldResponse::error(
                            id,
                            ServiceError {
                                code: ErrorCode::Internal,
                                message: format!(
                                    "sweep truncated: {missing} of {total} scenarios were never \
                                     delivered (worker failure)"
                                ),
                            },
                        );
                        if !emit(truncated) {
                            return false;
                        }
                    }
                    emit(YieldResponse::new(
                        id,
                        ResponseBody::SweepDone { total, failed },
                    ))
                })
            }
            RequestBody::Describe => self.service.stream_while(request, emit),
        }
    }

    /// `Pipeline::evaluate`, with the analytic curve and width solve run
    /// first on the shard's own caches, and the work the engine keeps
    /// private re-run as probes.
    fn evaluate(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        stream: u64,
        r: usize,
    ) -> cnfet_pipeline::Result<ScenarioReport> {
        let t = &*self.tracer;
        let pipeline = self.service.service().pipeline();
        let plain = spec.validate().is_ok()
            && !spec.is_stochastic()
            && matches!(spec.m_min, MminSpec::Fraction(_));
        let corner = eval_corner(spec).filter(|_| plain);
        if let Some(corner) = corner {
            t.span("design.stats", Some(stream), r, |_| {
                let _ = pipeline.design_stats(spec.library, spec.fast_design);
            });
            if spec.backend.mc_precision().is_none() {
                let curve = t.span("curve.first_query", Some(stream), r, |_| {
                    let curve = pipeline.failure_curve(&corner, &spec.backend).ok()?;
                    let _ = curve.p_failure(FIRST_QUERY_NM);
                    Some(curve)
                });
                // A fault solve's budget inversion is not cached, so the
                // engine would redo it: fault scenarios leave the width
                // solve to the engine and its probes below.
                if let (Some(curve), false) = (curve, spec.fault_active()) {
                    t.span("wmin.solve", Some(stream), r, |_| {
                        solve_wmin(pipeline, spec, curve.as_ref(), None)
                    });
                }
            }
        }
        t.span("engine.evaluate", Some(stream), r, |engine| {
            let result = pipeline.evaluate(spec, seed);
            if let (Some(corner), Ok(report)) = (corner, &result) {
                self.probe_private(pipeline, spec, seed, corner, report, engine, r);
            }
            result
        })
    }

    /// Re-run, as probes, the work `Pipeline::evaluate` keeps private.
    #[allow(clippy::too_many_arguments)]
    fn probe_private(
        &self,
        pipeline: &Pipeline,
        spec: &ScenarioSpec,
        seed: u64,
        corner: CornerSpec,
        report: &ScenarioReport,
        engine: u64,
        r: usize,
    ) {
        let t = &*self.tracer;
        if let Some(precision) = spec.backend.mc_precision() {
            t.probe("wmin.solve", engine, r, |solve| {
                let model = FailureModel::paper_default(corner.corner().ok()?).ok()?;
                let inner = McFailure::new(model, precision, split_seed(seed, PROBE_SALT))
                    .ok()?
                    .with_workers(mc_workers());
                let eval = TimedMc {
                    inner,
                    tracer: t,
                    parent: solve,
                    request: r,
                };
                let rel_tol = (4.0 * precision.rel_ci).clamp(0.05, 0.25);
                let curve = FailureCurve::new(eval).with_rel_tol(rel_tol).ok()?;
                let budget = spec.fault_active().then(|| fault_budget(spec)).flatten();
                solve_wmin(pipeline, spec, &curve, budget)
            });
        }
        let shorts = spec.purity.mode == PurityMode::Short && spec.purity.central() < 1.0;
        if let (Some(fault), true, None) = (&report.fault, shorts, spec.backend.mc_precision()) {
            // The width/short-probability fixed point: each step a width
            // solve on the (now warm) curve and the mean CNT count under
            // the gate at that width.
            t.probe("fault.fixed_point", engine, r, |fixed| {
                let curve = pipeline.failure_curve(&corner, &spec.backend).ok()?;
                let model = FailureModel::paper_default(corner.corner().ok()?).ok()?;
                let solver = WminSolver::new(curve.as_ref());
                let relax = report.relaxation.max(1.0);
                let purity = spec.purity.central();
                let mut p_short = 0.0;
                for _ in 0..SHORT_FIXED_POINT_ITERS {
                    let open = fault.p_budget - p_short;
                    if open <= 0.0 {
                        break;
                    }
                    let target = (open * relax).min(0.999_999);
                    let s = t.span("wmin.solve", Some(fixed), r, |_| {
                        solver.solve_for_requirement(target)
                    });
                    let count = t.span("model.mean_count", Some(fixed), r, |_| {
                        model.mean_count(s.as_ref().ok()?.w_min).ok()
                    })?;
                    let next = cnfet_fault::short_probability(purity, count).ok()?;
                    let converged = (next - p_short).abs() <= 1e-6 * fault.p_budget;
                    p_short = next;
                    if converged {
                        break;
                    }
                }
                Some(p_short)
            });
        }
        if let Some(fault) = &report.fault {
            t.probe("fault.required_p_cell", engine, r, |_| {
                let _ = spec
                    .redundancy
                    .required_p_cell(spec.yield_target, report.m_min);
            });
            let relax = report.relaxation.max(1.0);
            let p_cell = (fault.p_short + report.p_at_w_min / relax).clamp(0.0, 1.0);
            let fallback = McFallback {
                seed: split_seed(seed, PROBE_SALT),
                workers: mc_workers(),
                precision: McPrecision::default(),
            };
            let id = t.id();
            let start = t.now();
            let outcome = spec.redundancy.compose(p_cell, report.m_min, &fallback);
            let mc = outcome
                .map(|o| o.method == cnfet_fault::ComposeMethod::MonteCarlo)
                .unwrap_or(false);
            t.record(Span {
                id,
                name: if mc {
                    "fault.compose_mc"
                } else {
                    "fault.compose_exact"
                },
                start,
                end: t.now(),
                parent: Some(engine),
                request: r,
                probe: true,
            });
        }
    }
}
