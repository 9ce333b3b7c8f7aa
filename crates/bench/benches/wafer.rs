//! Bench WAFER — the wafer engine, one whole wafer per iteration.
//!
//! A wafer run realizes every die's knobs through the per-knob random
//! fields, evaluates each distinct quantized scenario once and aggregates
//! the dies in chunk order. After the first iteration the design solve
//! on the central base runs on the service's warm curve cache, so these
//! entries time the per-die work:
//!
//! * `full_wafer_100k` — `examples/wafer/full_wafer_100k.json`: 101 780
//!   dies, two noisy fields and one local-only field, nearly every die
//!   its own scenario;
//! * `edge_density_falloff` — `examples/wafer/edge_density_falloff.json`:
//!   the 1 264-die smoke wafer;
//! * `flat_repairable_tile_40` — a 1 264-die wafer with no fields on a
//!   repairable-tile base, whose die evaluation is a Monte-Carlo
//!   redundancy compose. All dies share one scenario, so one compose per
//!   wafer; a per-die compose would cost ~1 000× and trip the gate on its
//!   own entry, whatever the suite median does.
//!
//! All three run on one worker, so the numbers track per-die cost rather
//! than the runner's core count.

use cnfet_pipeline::{WaferSpec, YieldService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_wafer(c: &mut Criterion, name: &str, spec: &str) {
    let spec = WaferSpec::parse(spec).expect("valid wafer spec");
    let service = YieldService::new();
    service
        .wafer_with_workers(&spec, 7, 1)
        .expect("warms the design solve");
    c.bench_function(name, |b| {
        b.iter(|| {
            service
                .wafer_with_workers(black_box(&spec), 7, 1)
                .expect("runnable wafer")
        })
    });
}

fn bench_examples(c: &mut Criterion) {
    bench_wafer(
        c,
        "wafer/full_wafer_100k",
        include_str!("../../../examples/wafer/full_wafer_100k.json"),
    );
    bench_wafer(
        c,
        "wafer/edge_density_falloff",
        include_str!("../../../examples/wafer/edge_density_falloff.json"),
    );
}

fn bench_flat_mc_compose(c: &mut Criterion) {
    let spec = r#"{
        "name": "flat-repairable-tile",
        "diameter_dies": 40,
        "base": {
            "backend": "gaussian-sum",
            "rho": "paper",
            "fast_design": true,
            "correlation": "growth+aligned-layout",
            "redundancy": {
                "repairable-tile": { "tiles": 16384, "spare_tiles": 8192, "test_coverage": 0.999 }
            }
        }
    }"#;
    let report = YieldService::new()
        .wafer_with_workers(&WaferSpec::parse(spec).expect("valid wafer spec"), 7, 1)
        .expect("runnable wafer");
    assert_eq!(report.distinct_scenarios, 1, "a flat wafer is one scenario");
    bench_wafer(c, "wafer/flat_repairable_tile_40", spec);
}

criterion_group!(benches, bench_examples, bench_flat_mc_compose);
criterion_main!(benches);
