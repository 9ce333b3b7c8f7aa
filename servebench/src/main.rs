//! `servebench` — the end-to-end benchmark of `repro serve`.
//!
//! ```text
//! bash servebench/run.sh --workload serve_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run spawns the release daemon (`repro serve --shards 2`) several
//! times to time its set-up, drives the named workload through the last
//! spawn for `--seconds` in a closed loop, checks every answer, and then
//! replays the same lines in-process through a `ShardRouter` over
//! `OptService` to compare transcripts. With `--trace 1` it also replays
//! them through traced shards and reports per-layer metrics instead of
//! end-to-end ones. The last line of stdout is the result object; see
//! `servebench/README.md` for the workloads and metrics.

mod check;
mod client;
mod layers;
mod replay;
mod stats;
mod trace;
mod workload;

use crate::layers::{kind_medians, Metric};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use crate::workload::{Generator, Kind};
use cnfet_pipeline::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// Shards of the daemon and of the in-process replays.
const SHARDS: usize = 2;

/// Daemon spawns per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Where run reports and span files go, relative to the checkout.
const OUT_DIR: &str = "servebench/out";

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "servebench: {msg}\nusage: servebench --workload <serve_mix|cold_batch|mc_search> \
         --seed <u64> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => usage(&format!("unknown argument `{other}`")),
        };
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{key} needs a value")));
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {key}")))
    };
    let name = get("--workload");
    Args {
        workload: workload::workload(&name)
            .unwrap_or_else(|| usage(&format!("unknown workload `{name}`"))),
        seed: get("--seed")
            .parse()
            .unwrap_or_else(|_| usage("--seed must be an unsigned integer")),
        seconds: get("--seconds")
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace must be 0 or 1"),
        },
    }
}

/// The release daemon built by `run.sh`.
fn daemon_binary() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("release")
        .join("repro")
}

/// A finite JSON number, or `null`.
fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let args = parse_args();
    let bin = daemon_binary();
    if !bin.is_file() {
        eprintln!(
            "servebench: no daemon binary at {} (run through servebench/run.sh)",
            bin.display()
        );
        std::process::exit(1);
    }
    let w = args.workload;
    let setup = workload::setup_lines(SHARDS);
    let mut generator = Generator::new(w, args.seed);
    let run = client::run(
        &bin,
        SHARDS,
        &setup,
        &mut generator,
        w.outstanding,
        args.seconds,
        SETUP_REPS,
    )
    .unwrap_or_else(|e| {
        eprintln!("servebench: driving the daemon failed: {e}");
        std::process::exit(1);
    });
    let lines = &run.lines;
    let timed = run.setup_lines..lines.len();

    // Failures: the daemon's answers, then transcript agreement with the
    // in-process replays.
    let mut failed: BTreeMap<usize, String> = run.failures.iter().cloned().collect();
    let mut strays = run.strays;
    let mut compare =
        |name: &str, replay: &replay::Replay, failed: &mut BTreeMap<usize, String>| {
            for (i, reason) in &replay.failures {
                failed
                    .entry(*i)
                    .or_insert(format!("{name} replay: {reason}"));
            }
            strays += replay.strays;
            for i in run.transcript.mismatched(&replay.transcript) {
                failed
                    .entry(i)
                    .or_insert(format!("responses differ from the {name} replay"));
            }
            replay.transcript.digest()
        };
    let plain = replay::plain(lines, w.outstanding, SHARDS);
    let plain_digest = compare("in-process", &plain, &mut failed);
    let traced = args.trace.then(|| {
        let tracer = Arc::new(Tracer::new());
        let traced = replay::traced(lines, w.outstanding, SHARDS, Arc::clone(&tracer));
        let digest = compare("traced", &traced, &mut failed);
        let (spans, notes) = tracer.take();
        (traced, digest, spans, notes)
    });
    let daemon_digest = run.transcript.digest();

    let attempted = timed.len();
    let failed_timed = failed.keys().filter(|i| timed.contains(i)).count();
    let correct = failed.is_empty()
        && strays == 0
        && run.setup_failures == 0
        && plain_digest == daemon_digest
        && traced.as_ref().is_none_or(|t| t.1 == daemon_digest);
    for (i, reason) in failed.iter().take(20) {
        let text = lines
            .get(*i)
            .map_or("(a response to no open line)", |l| &l.text);
        eprintln!("servebench: line {i} failed: {reason}\n  {text}");
    }

    // End-to-end metrics over the timed lines. Per-kind latencies are
    // means: where two vCPUs share one core, single-threaded work runs at
    // one of two speeds depending on whether the other vCPU is busy, so a
    // kind's median jumps between them while its mean follows their mix
    // (see README).
    let timed_latency: Vec<f64> = timed.clone().filter_map(|i| run.latency_ms[i]).collect();
    let mut sorted = timed_latency.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = tail(&sorted).expect("at least one timed request");
    let by_kind = layers::by_kind(lines, &run.latency_ms, |i| timed.contains(&i));
    let kind_mean = |k: Kind| by_kind.get(&k).map_or(f64::NAN, |v| mean(v));
    let mut metrics: Vec<Metric> = [
        ("setup_s", median(&run.setup_s), "s"),
        (
            "throughput_rps",
            timed_latency.len() as f64 / run.elapsed_s,
            "1/s",
        ),
        ("latency_p50_ms", median(&timed_latency), "ms"),
        ("latency_tail_ms", tail.value, "ms"),
        (
            "success_rate",
            (attempted - failed_timed) as f64 / attempted as f64,
            "ratio",
        ),
        ("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0, "MB"),
        ("evaluate_mean_ms", kind_mean(Kind::Evaluate), "ms"),
        ("fault_mean_ms", kind_mean(Kind::Fault), "ms"),
        ("sweep_mean_ms", kind_mean(Kind::Sweep), "ms"),
        ("wafer_mean_ms", kind_mean(Kind::Wafer), "ms"),
        ("coopt_mean_ms", kind_mean(Kind::CoOpt), "ms"),
    ]
    .into_iter()
    .map(|(name, value, unit)| Metric {
        name: name.to_string(),
        value,
        unit,
        source: None,
    })
    .collect();

    let makeup = workload::makeup(&lines[timed.clone()]);
    let mut report = vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::from_u64(args.seed)),
        ("seconds", num(args.seconds)),
        ("outstanding", Json::from_u64(w.outstanding as u64)),
        ("shards", Json::from_u64(SHARDS as u64)),
        (
            "cores",
            Json::from_u64(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        (
            "makeup",
            obj(vec![
                (
                    "counts",
                    Json::Obj(
                        makeup
                            .counts
                            .iter()
                            .map(|(k, n)| (k.name().to_string(), Json::from_u64(*n as u64)))
                            .collect(),
                    ),
                ),
                ("cacheable_repeat_share", num(makeup.repeat_share)),
                (
                    "distinct_corners",
                    Json::from_u64(makeup.distinct_corners as u64),
                ),
            ]),
        ),
        (
            "phases",
            obj(vec![
                (
                    "setup",
                    obj(vec![
                        ("spawns", Json::from_u64(run.setup_s.len() as u64)),
                        ("lines_each", Json::from_u64(run.setup_lines as u64)),
                        ("failed_spawns", Json::from_u64(run.setup_failures as u64)),
                        (
                            "seconds",
                            Json::Arr(run.setup_s.iter().map(|s| num(*s)).collect()),
                        ),
                    ]),
                ),
                (
                    "timed",
                    obj(vec![
                        ("sent", Json::from_u64(attempted as u64)),
                        ("answered", Json::from_u64(timed_latency.len() as u64)),
                        ("failed", Json::from_u64(failed_timed as u64)),
                        ("elapsed_s", num(run.elapsed_s)),
                        ("digest", Json::Str(format!("{daemon_digest:016x}"))),
                    ]),
                ),
                (
                    "in_process",
                    obj(vec![
                        ("failed", Json::from_u64(plain.failures.len() as u64)),
                        ("digest", Json::Str(format!("{plain_digest:016x}"))),
                    ]),
                ),
            ]),
        ),
        (
            "tail",
            obj(vec![
                ("percentile", num(tail.percentile)),
                ("samples", Json::from_u64(tail.samples as u64)),
                ("beyond", Json::from_u64(tail.beyond as u64)),
            ]),
        ),
        (
            "p50_ms_by_kind",
            Json::Obj(
                by_kind
                    .iter()
                    .map(|(k, v)| (k.name().to_string(), num(median(v))))
                    .collect(),
            ),
        ),
    ];

    if let Some((traced, digest, spans, notes)) = &traced {
        let trace = layers::Trace::new(spans, notes);
        metrics = layers::metrics(lines, &run, &plain, traced, &trace);
        let self_ms = trace.self_ms(lines);
        let shares = layers::shares(&self_ms);
        eprintln!(
            "servebench: {} layer shares of in-process self time (seed {}):\n{}",
            w.name,
            args.seed,
            layers::share_table(&self_ms)
        );
        let traced_p50 = kind_medians(lines, &traced.latency_ms, |_| true);
        let plain_p50 = kind_medians(lines, &plain.latency_ms, |_| true);
        let overhead: Vec<(String, Json)> = traced_p50
            .iter()
            .map(|(k, t)| {
                (
                    k.name().to_string(),
                    num(t - plain_p50.get(k).unwrap_or(&f64::NAN)),
                )
            })
            .collect();
        eprintln!(
            "servebench: tracing overhead (traced − untraced in-process p50, ms): {overhead:?}"
        );
        report.push((
            "traced",
            obj(vec![
                ("failed", Json::from_u64(traced.failures.len() as u64)),
                ("digest", Json::Str(format!("{digest:016x}"))),
                ("spans", Json::from_u64(spans.len() as u64)),
                ("overhead_ms_by_kind", Json::Obj(overhead)),
                (
                    "layer_shares",
                    Json::Obj(
                        shares
                            .iter()
                            .map(|(k, layers)| {
                                (
                                    k.name().to_string(),
                                    Json::Obj(
                                        layers
                                            .iter()
                                            .map(|(l, v)| (l.to_string(), num(*v)))
                                            .collect(),
                                    ),
                                )
                            })
                            .collect(),
                    ),
                ),
                (
                    "reference_probes",
                    Json::Arr(
                        metrics
                            .iter()
                            .filter(|m| m.source.is_some())
                            .map(|m| Json::Str(m.name.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ));
        let path = format!("{OUT_DIR}/{}-seed{}.spans.jsonl", w.name, args.seed);
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            for span in spans {
                writeln!(out, "{}", span.to_json_line())?;
            }
            out.flush()
        });
        if let Err(e) = written {
            eprintln!("servebench: cannot write {path}: {e}");
        }
    }

    let report = obj(report).to_string_compact();
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &report));
    if let Err(e) = written {
        eprintln!("servebench: cannot write {path}: {e}");
    }
    println!("{report}");

    let names: BTreeSet<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names.len(), metrics.len(), "metric names are unique");
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("servebench: metric {} has no samples on this run", m.name);
    }
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from_u64(attempted as u64)),
        ("failed", Json::from_u64(failed_timed as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            obj(vec![
                                ("value", num(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_string_compact());
}
