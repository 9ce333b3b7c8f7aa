//! Per-layer metrics of a traced run: span medians and self times,
//! counters read from responses and the daemon's shutdown stats, and
//! unit-cost probes of the inner layers on the run's own inputs.

use crate::client::DaemonRun;
use crate::replay::{eval_corner, mc_workers, Replay, FIRST_QUERY_NM, PROBE_SALT};
use crate::stats::{mean, median};
use crate::trace::{layer, self_times, Note, Span, LAYERS};
use crate::workload::{Kind, Line};
use cnfet_core::failure::FailureModel;
use cnfet_core::stochastic::McFailure;
use cnfet_fault::McFallback;
use cnfet_opt::OptService;
use cnfet_pipeline::{
    redundancy_from_json, CornerSpec, Json, Pipeline, RequestBody, ScenarioSpec, YieldRequest,
};
use cnfet_sim::adaptive::McPrecision;
use cnt_stats::split_seed;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Where the value came from, when not the workload's own requests.
    pub source: Option<&'static str>,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        source: None,
    }
}

/// Time `f`, in milliseconds.
fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Answered latencies by kind over the lines selected by `keep`.
pub fn by_kind(
    lines: &[Line],
    latency: &[Option<f64>],
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<Kind, Vec<f64>> {
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    for (i, line) in lines.iter().enumerate() {
        if let (true, Some(ms)) = (keep(i), latency[i]) {
            by_kind.entry(line.kind).or_default().push(ms);
        }
    }
    by_kind
}

/// Latency medians by kind over the lines selected by `keep`.
pub fn kind_medians(
    lines: &[Line],
    latency: &[Option<f64>],
    keep: impl Fn(usize) -> bool,
) -> BTreeMap<Kind, f64> {
    by_kind(lines, latency, keep)
        .into_iter()
        .map(|(k, v)| (k, median(&v)))
        .collect()
}

/// The spans of a trace, indexed for the metrics below.
pub struct Trace<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
    notes: &'a [Note],
    probe_kids: HashMap<u64, u64>,
}

impl<'a> Trace<'a> {
    /// Index `spans` and compute their self times.
    pub fn new(spans: &'a [Span], notes: &'a [Note]) -> Self {
        let mut probe_kids: HashMap<u64, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.probe) {
            if let Some(parent) = s.parent {
                *probe_kids.entry(parent).or_default() += s.duration();
            }
        }
        Self {
            spans,
            selfs: self_times(spans),
            notes,
            probe_kids,
        }
    }

    fn named<'n>(&'n self, name: &'n str) -> impl Iterator<Item = (usize, &'n Span)> + 'n {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Median duration of the spans called `name`, in `scale` ns.
    fn median_duration(&self, name: &str, scale: f64) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .map(|(_, s)| s.duration() as f64 / scale)
            .collect();
        median(&v)
    }

    /// Median self time of the spans called `name`, in `scale` ns.
    fn median_self(&self, name: &str, scale: f64) -> f64 {
        let v: Vec<f64> = self
            .named(name)
            .map(|(i, _)| self.selfs[i] as f64 / scale)
            .collect();
        median(&v)
    }

    /// Duration of `span` without the work its probes re-ran: what the
    /// opaque call itself took.
    fn real(&self, span: &Span) -> f64 {
        span.duration()
            .saturating_sub(self.probe_kids.get(&span.id).copied().unwrap_or(0)) as f64
    }

    fn notes(&self, name: &str) -> Vec<f64> {
        self.notes
            .iter()
            .filter(|n| n.name == name)
            .map(|n| n.value)
            .collect()
    }

    /// Summed self time per layer and kind, in ms.
    pub fn self_ms(&self, lines: &[Line]) -> BTreeMap<Kind, BTreeMap<&'static str, f64>> {
        let mut sums: BTreeMap<Kind, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (span, &own) in self.spans.iter().zip(&self.selfs) {
            if let Some(line) = lines.get(span.request) {
                *sums
                    .entry(line.kind)
                    .or_default()
                    .entry(layer(span.name))
                    .or_default() += own as f64 / 1e6;
            }
        }
        sums
    }
}

/// Each layer's share of a kind's summed self time.
pub fn shares(
    self_ms: &BTreeMap<Kind, BTreeMap<&'static str, f64>>,
) -> BTreeMap<Kind, BTreeMap<&'static str, f64>> {
    self_ms
        .iter()
        .map(|(kind, layers)| {
            let total: f64 = layers.values().sum();
            let shares = layers
                .iter()
                .map(|(l, ms)| (*l, ms / total.max(f64::MIN_POSITIVE)))
                .collect();
            (*kind, shares)
        })
        .collect()
}

/// Render the layer-share table: one row per request kind.
pub fn share_table(self_ms: &BTreeMap<Kind, BTreeMap<&'static str, f64>>) -> String {
    let mut out = format!("{:<9}{:>10}", "kind", "self ms");
    for l in LAYERS {
        out += &format!("{l:>9}");
    }
    out.push('\n');
    for (kind, layers) in shares(self_ms) {
        let total: f64 = self_ms[&kind].values().sum();
        out += &format!("{:<9}{total:>10.1}", kind.name());
        for l in LAYERS {
            let share = layers.get(l).copied().unwrap_or(0.0);
            out += &format!("{:>8.1}%", 100.0 * share);
        }
        out.push('\n');
    }
    out
}

/// Up to `n` of the run's analytic evaluates, spread over the run:
/// decoded spec and solved width.
fn analytic_sample(lines: &[Line], replay: &Replay, n: usize) -> Vec<(ScenarioSpec, f64)> {
    let mut indices: Vec<usize> = replay
        .reports
        .iter()
        .filter(|(_, o)| o.mc.is_none())
        .map(|(i, _)| *i)
        .collect();
    indices.sort_unstable();
    spread(indices, n)
        .into_iter()
        .filter_map(|i| {
            let doc = Json::parse(&lines[i].text).ok()?;
            match YieldRequest::from_json(&doc).ok()?.body {
                RequestBody::Evaluate { spec, .. } => Some((spec, replay.reports[&i].w_min_nm)),
                _ => None,
            }
        })
        .collect()
}

/// Up to `n` items spread evenly over `items`.
fn spread<T>(items: Vec<T>, n: usize) -> Vec<T> {
    let step = items.len().div_ceil(n.max(1)).max(1);
    items.into_iter().step_by(step).collect()
}

/// Reference inputs for layers a workload's own requests never reach.
const REFERENCE_P_CELL: f64 = 2e-6;
const REFERENCE_CELLS: f64 = 3.3e7;
const REFERENCE_WIDTH_NM: f64 = 103.0;

/// Every per-layer metric of a traced run.
pub fn metrics(
    lines: &[Line],
    run: &DaemonRun,
    plain: &Replay,
    traced: &Replay,
    trace: &Trace,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let all = |_: usize| true;

    // serve: the pipe and loop, as client latency minus in-process
    // router latency.
    let client_all: Vec<f64> = run.latency_ms.iter().flatten().copied().collect();
    let inproc_all: Vec<f64> = plain.latency_ms.iter().flatten().copied().collect();
    out.push(metric(
        "serve.io_ms",
        median(&client_all) - median(&inproc_all),
        "ms",
    ));
    let client = kind_medians(lines, &run.latency_ms, all);
    let inproc = kind_medians(lines, &plain.latency_ms, all);
    for kind in Kind::ALL.into_iter().filter(|k| *k != Kind::Bad) {
        let io = client.get(&kind).copied().unwrap_or(f64::NAN)
            - inproc.get(&kind).copied().unwrap_or(f64::NAN);
        out.push(metric(format!("serve.io_ms.{}", kind.name()), io, "ms"));
    }

    // json and envelope.
    out.push(metric(
        "json.parse_us",
        trace.median_duration("json.parse", 1e3),
        "us",
    ));
    out.push(metric(
        "json.encode_us",
        trace.median_duration("json.encode", 1e3),
        "us",
    ));
    let bytes_in: Vec<f64> = lines.iter().map(|l| l.text.len() as f64 + 1.0).collect();
    let bytes_out = run.bytes_out as f64 / run.transcript.len().max(1) as f64;
    out.push(metric("json.bytes_in", mean(&bytes_in), "B"));
    out.push(metric("json.bytes_out", bytes_out, "B"));
    out.push(metric(
        "envelope.decode_us",
        trace.median_self("envelope.decode", 1e3),
        "us",
    ));
    out.push(metric(
        "scenario.build_us",
        trace.median_duration("scenario.build", 1e3),
        "us",
    ));
    out.push(metric(
        "envelope.encode_us",
        trace.median_duration("envelope.encode", 1e3),
        "us",
    ));
    out.push(metric(
        "envelope.error_us",
        trace.median_duration("envelope.error", 1e3),
        "us",
    ));

    // router: in-process latency outside the service call; describe
    // client latency beyond its unloaded cost; the daemon's counters.
    let stream_of: HashMap<usize, f64> = trace
        .named("service.stream")
        .map(|(_, s)| (s.request, s.duration() as f64))
        .collect();
    let overhead: Vec<f64> = trace
        .named("router")
        .map(|(_, s)| (s.duration() as f64 - stream_of.get(&s.request).unwrap_or(&0.0)) / 1e6)
        .collect();
    out.push(metric("router.overhead_ms", median(&overhead), "ms"));
    let describe_line = r#"{"schema":1,"id":"probe","body":"describe"}"#;
    let service = OptService::new();
    let describe_cost: Vec<f64> = (0..32)
        .map(|_| {
            ms(|| service.handle_line(describe_line, &mut |r| drop(std::hint::black_box(r)))).1
        })
        .collect();
    out.push(metric(
        "router.describe_wait_ms",
        client.get(&Kind::Describe).copied().unwrap_or(f64::NAN) - median(&describe_cost),
        "ms",
    ));
    let stats = run.stats.as_ref();
    let (hits, misses) = stats.map_or((0, 0), |s| (s.warm_hits, s.warm_misses));
    out.push(metric(
        "router.warm_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    ));
    out.push(metric("router.warm_misses", misses as f64, "count"));
    out.push(metric(
        "router.queue_high_water",
        stats.map_or(0, |s| s.queue_high_water()) as f64,
        "count",
    ));
    out.push(metric(
        "router.shed",
        stats.map_or(0, |s| s.shed()) as f64,
        "count",
    ));
    out.push(metric(
        "router.cancelled",
        stats.map_or(0, |s| s.cancelled()) as f64,
        "count",
    ));

    // service: sweeps.
    out.push(metric(
        "sweep.first_report_ms",
        median(&trace.notes("sweep.first_report_ms")),
        "ms",
    ));
    let scenarios: f64 = trace.notes("sweep.scenarios").iter().sum();
    let sweep_s: f64 = trace
        .named("sweep.run")
        .map(|(_, s)| s.duration() as f64 / 1e9)
        .sum();
    out.push(metric("sweep.scenarios_per_s", scenarios / sweep_s, "1/s"));

    // engine and design.
    let engine: Vec<f64> = trace
        .named("engine.evaluate")
        .map(|(_, s)| trace.real(s) / 1e6)
        .collect();
    out.push(metric("engine.evaluate_ms", median(&engine), "ms"));
    let cache = traced.cache.expect("replays record cache residency");
    out.push(metric(
        "engine.curve_evaluations",
        cache.curve_evaluations as f64,
        "count",
    ));
    out.push(metric(
        "engine.curve_knots",
        cache.curve_knots as f64,
        "count",
    ));
    out.push(metric("engine.curves", cache.curves as f64, "count"));

    let sample = analytic_sample(lines, traced, 8);
    let design: Vec<f64> = (0..3)
        .filter_map(|_| {
            let (spec, _) = sample.first()?;
            Some(ms(|| Pipeline::new().design_stats(spec.library, spec.fast_design)).1)
        })
        .collect();
    out.push(metric("design.stats_ms", median(&design), "ms"));

    // curve, failure model and the renewal convolution: a fresh curve's
    // first query, warm queries, and exact model queries, on up to eight
    // of the run's own analytic evaluates.
    let (mut first_query, mut warm_ns, mut exact_us) = (Vec::new(), Vec::new(), Vec::new());
    for (spec, w) in &sample {
        let Some(corner) = eval_corner(spec) else {
            continue;
        };
        let pipeline = Pipeline::new();
        let (curve, first_ms) = ms(|| {
            let curve = pipeline.failure_curve(&corner, &spec.backend).ok()?;
            curve.p_failure(FIRST_QUERY_NM).ok()?;
            Some(curve)
        });
        let Some(curve) = curve else { continue };
        first_query.push(first_ms);
        let w = *w;
        let _ = curve.p_failure(w);
        let (_, total) = ms(|| {
            for _ in 0..256 {
                let _ = std::hint::black_box(curve.p_failure(std::hint::black_box(w)));
            }
        });
        warm_ns.push(total * 1e6 / 256.0);
        if let Ok(model) = pipeline.failure_model(&corner, &spec.backend) {
            for k in 1..=8 {
                exact_us.push(ms(|| model.p_failure(w + 1e-3 * f64::from(k))).1 * 1e3);
            }
        }
    }
    out.push(metric("curve.first_query_ms", median(&first_query), "ms"));
    out.push(metric("curve.p_failure_ns", median(&warm_ns), "ns"));
    out.push(metric("model.p_failure_us", median(&exact_us), "us"));
    if trace.named("model.mean_count").next().is_some() {
        out.push(metric(
            "model.mean_count_ms",
            trace.median_duration("model.mean_count", 1e6),
            "ms",
        ));
    } else {
        // No shorts-mode fault solve in this workload: the paper corner's
        // mean count at the reference width.
        let model =
            FailureModel::paper_default(CornerSpec::Aggressive.corner().expect("paper corner"))
                .expect("paper model");
        let times: Vec<f64> = (1..=8)
            .map(|k| ms(|| model.mean_count(REFERENCE_WIDTH_NM + 1e-3 * f64::from(k))).1)
            .collect();
        out.push(Metric {
            source: Some("reference"),
            ..metric("model.mean_count_ms", median(&times), "ms")
        });
    }
    out.push(metric(
        "wmin.solve_us",
        trace.median_self("wmin.solve", 1e3),
        "us",
    ));

    // fault.
    out.push(metric(
        "fault.required_p_cell_us",
        trace.median_duration("fault.required_p_cell", 1e3),
        "us",
    ));
    let compose = |span: &str, name: &str, scheme: &str, scale: f64, unit| -> Metric {
        if trace.named(span).next().is_some() {
            return metric(name, trace.median_duration(span, scale), unit);
        }
        // No request of this workload takes this path: compose a
        // reference cell budget instead.
        let scheme = redundancy_from_json(&Json::parse(scheme).expect("valid scheme"))
            .expect("valid scheme");
        let fallback = McFallback {
            seed: split_seed(1, PROBE_SALT),
            workers: mc_workers(),
            precision: McPrecision::default(),
        };
        let times: Vec<f64> = (0..3)
            .map(|_| {
                ms(|| scheme.compose(REFERENCE_P_CELL, REFERENCE_CELLS, &fallback)).1 * 1e6 / scale
            })
            .collect();
        Metric {
            source: Some("reference"),
            ..metric(name, median(&times), unit)
        }
    };
    out.push(compose(
        "fault.compose_exact",
        "fault.compose_exact_us",
        r#""tmr""#,
        1e3,
        "us",
    ));
    out.push(compose(
        "fault.compose_mc",
        "fault.compose_mc_ms",
        r#"{"kind":"repairable-tile","tiles":16384,"spare_tiles":8192,"test_coverage":0.999}"#,
        1e6,
        "ms",
    ));
    let methods: Vec<f64> = traced
        .reports
        .values()
        .filter_map(|o| o.fault_mc)
        .map(|mc| f64::from(u8::from(mc)))
        .collect();
    out.push(metric("fault.mc_share", mean(&methods), "ratio"));

    // Monte Carlo: sampled widths inside the probe solves, and the `mc`
    // blocks of the responses; a reference point when no request of the
    // workload runs the Monte-Carlo back-end.
    let mc: Vec<_> = traced
        .reports
        .iter()
        .filter_map(|(i, o)| o.mc.map(|m| (*i, m)))
        .collect();
    if mc.is_empty() {
        let mut points = Vec::new();
        for seed in 1..=3 {
            let model =
                FailureModel::paper_default(CornerSpec::Aggressive.corner().expect("paper corner"))
                    .expect("paper model");
            let precision = McPrecision {
                rel_ci: 0.01,
                ..McPrecision::default()
            };
            let eval = McFailure::new(model, precision, split_seed(seed, PROBE_SALT))
                .expect("valid precision")
                .with_workers(mc_workers());
            let (point, took) = ms(|| eval.point(REFERENCE_WIDTH_NM));
            if let Ok(point) = point {
                points.push((
                    took,
                    point.trials as f64,
                    f64::from(u8::from(point.converged)),
                ));
            }
        }
        let col = |f: fn(&(f64, f64, f64)) -> f64| points.iter().map(f).collect::<Vec<_>>();
        let trials: f64 = col(|p| p.1).iter().sum();
        let took: f64 = col(|p| p.0).iter().sum();
        for (name, value, unit) in [
            ("mc.point_ms", median(&col(|p| p.0)), "ms"),
            ("mc.trials", median(&col(|p| p.1)), "count"),
            ("mc.trials_per_s", trials / (took / 1e3), "1/s"),
            ("mc.converged_ratio", mean(&col(|p| p.2)), "ratio"),
        ] {
            out.push(Metric {
                source: Some("reference"),
                ..metric(name, value, unit)
            });
        }
    } else {
        out.push(metric(
            "mc.point_ms",
            trace.median_duration("mc.point", 1e6),
            "ms",
        ));
        let trials: Vec<f64> = mc.iter().map(|(_, m)| m.trials as f64).collect();
        out.push(metric("mc.trials", median(&trials), "count"));
        let engine_of: HashMap<usize, f64> = trace
            .named("engine.evaluate")
            .map(|(_, s)| (s.request, trace.real(s) / 1e9))
            .collect();
        let seconds: f64 = mc.iter().filter_map(|(i, _)| engine_of.get(i)).sum();
        out.push(metric(
            "mc.trials_per_s",
            trials.iter().sum::<f64>() / seconds,
            "1/s",
        ));
        let converged: Vec<f64> = mc
            .iter()
            .map(|(_, m)| f64::from(u8::from(m.converged)))
            .collect();
        out.push(metric("mc.converged_ratio", mean(&converged), "ratio"));
    }

    // wafer.
    out.push(metric(
        "wafer.run_ms",
        trace.median_duration("wafer.run", 1e6),
        "ms",
    ));
    let (dies, distinct) = traced
        .wafers
        .values()
        .fold((0u64, 0u64), |(d, s), (dies, distinct)| {
            (d + dies, s + distinct)
        });
    let wafer_s: f64 = trace
        .named("wafer.run")
        .map(|(_, s)| s.duration() as f64 / 1e9)
        .sum();
    out.push(metric("wafer.dies_per_s", dies as f64 / wafer_s, "1/s"));
    out.push(metric(
        "wafer.distinct_ratio",
        distinct as f64 / dies.max(1) as f64,
        "ratio",
    ));

    // opt.
    out.push(metric(
        "opt.run_ms",
        trace.median_duration("opt.run", 1e6),
        "ms",
    ));
    let (full, coarse): (Vec<f64>, Vec<f64>) = traced
        .coopts
        .values()
        .map(|&(f, c)| (f as f64, c as f64))
        .unzip();
    let opt_ms: f64 = trace
        .named("opt.run")
        .map(|(_, s)| s.duration() as f64 / 1e6)
        .sum();
    out.push(metric(
        "opt.ms_per_evaluation",
        opt_ms / (full.iter().sum::<f64>() + coarse.iter().sum::<f64>()),
        "ms",
    ));
    out.push(metric("opt.full_evaluations", median(&full), "count"));
    out.push(metric("opt.coarse_evaluations", median(&coarse), "count"));

    // The cost of tracing itself.
    let traced_all: Vec<f64> = traced.latency_ms.iter().flatten().copied().collect();
    out.push(metric(
        "trace.overhead_ms",
        median(&traced_all) - median(&inproc_all),
        "ms",
    ));
    out
}
