//! Bench FAULT_COMPOSE — the redundancy-yield algebra of `cnfet-fault`.
//!
//! Every fault-aware solve ends in `RedundancyScheme::compose`: the
//! evaluate path runs it once per scenario, the wafer engine once per
//! die, and `required_p_cell` (the budget inversion feeding the width
//! solve) bisects over the same exact tail. These benches pin both
//! composition paths and the inversion in the perf trajectory:
//!
//! * `tmr_exact` / `spare_units_exact` — the closed-form tail on the
//!   paper-scale module (1- and 9-term schemes, the wafer hot path);
//! * `repairable_tile_mc` — a scheme past `EXACT_TERM_LIMIT`, paying the
//!   adaptive Monte-Carlo fallback at its default ±5 % precision;
//! * `required_p_cell_spares` — the deterministic bisection the fault
//!   solver runs before touching the failure curve;
//! * `mean_count_reference/172` / `mean_count_warm/172` — the mean CNT
//!   count under a 172.3-nm gate, which the shorts-mode fixed point asks
//!   for at every step: the single-shot count loop (what a gate the
//!   shared count plan declines still pays) and a query inside the plan.

use cnfet_bench::paper_model;
use cnfet_fault::{ComposeMethod, McFallback, RedundancyScheme};
use cnt_stats::renewal::CountModel;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The paper's 45-nm case study: 0.33 · 1e8 minimum-sized cells.
const M_CELLS: f64 = 0.33e8;

fn bench_exact(c: &mut Criterion) {
    let mc = McFallback::default();
    let tmr = RedundancyScheme::Tmr;
    // Per-cell budgets near each scheme's operating point (TMR widens the
    // bare ~3.3e-9 budget to ~3.3e-5; 8 spare rows land at ~1.5e-7).
    c.bench_function("fault_compose/tmr_exact", |b| {
        b.iter(|| {
            let out = tmr
                .compose(black_box(3.3e-5), black_box(M_CELLS), &mc)
                .expect("in-domain");
            assert_eq!(out.method, ComposeMethod::Exact);
            out.circuit_yield
        })
    });
    let spares = RedundancyScheme::SpareUnits {
        spares: 8,
        unit_size: 65_536,
    };
    c.bench_function("fault_compose/spare_units_exact", |b| {
        b.iter(|| {
            let out = spares
                .compose(black_box(1.5e-7), black_box(M_CELLS), &mc)
                .expect("in-domain");
            assert_eq!(out.method, ComposeMethod::Exact);
            out.circuit_yield
        })
    });
}

fn bench_mc_fallback(c: &mut Criterion) {
    // 8193 tail terms — past EXACT_TERM_LIMIT, so compose takes the
    // geometric-skip Monte-Carlo path. Parameters put the yield mid-range
    // (imperfect test coverage escapes kill ~half the chips) so the
    // adaptive driver does representative work instead of converging on
    // a degenerate 0/1 estimate.
    let tile = RedundancyScheme::RepairableTile {
        tiles: 16_384,
        spare_tiles: 8_192,
        test_coverage: 0.999,
    };
    let mc = McFallback::default();
    c.bench_function("fault_compose/repairable_tile_mc", |b| {
        b.iter(|| {
            let out = tile
                .compose(black_box(2.0e-5), black_box(M_CELLS), &mc)
                .expect("in-domain");
            assert_eq!(out.method, ComposeMethod::MonteCarlo);
            out.circuit_yield
        })
    });
}

fn bench_inversion(c: &mut Criterion) {
    let spares = RedundancyScheme::SpareUnits {
        spares: 8,
        unit_size: 65_536,
    };
    c.bench_function("fault_compose/required_p_cell_spares", |b| {
        b.iter(|| {
            spares
                .required_p_cell(black_box(0.9), black_box(M_CELLS))
                .expect("invertible")
        })
    });
}

fn bench_mean_count(c: &mut Criterion) {
    let model = paper_model();
    let renewal = model.renewal();
    let CountModel::Convolution { step } = renewal.model() else {
        panic!("the paper model counts on the convolution back-end");
    };
    c.bench_function("fault_compose/mean_count_reference/172", |b| {
        b.iter(|| {
            renewal
                .distribution_conv_reference(black_box(172.3), step)
                .expect("computable")
                .mean()
        })
    });
    // The first iteration builds the plan out to this gate; every later
    // one reads it.
    c.bench_function("fault_compose/mean_count_warm/172", |b| {
        b.iter(|| model.mean_count(black_box(172.3)).expect("computable"))
    });
}

criterion_group!(
    benches,
    bench_exact,
    bench_mc_fallback,
    bench_inversion,
    bench_mean_count
);
criterion_main!(benches);
