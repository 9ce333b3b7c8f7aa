//! Bench MC-BACKEND — the adaptive Monte-Carlo back-end against the exact
//! convolution back-end on the Fig 2.1 sweep widths.
//!
//! The interesting number is the cost of one converged `pF(W)` estimate at
//! a 1 % confidence-interval half-width: the stratified, exponentially
//! tilted sampler keeps that roughly width-independent, where naive MC
//! would scale like `1/pF(W)` (≈ 1e9 trials at the 155 nm anchor).

use cnfet_bench::paper_model;
use cnfet_core::stochastic::McFailure;
use cnfet_sim::adaptive::McPrecision;
use cnfet_sim::estimate_fet_failure_adaptive;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// 1 % relative half-width at 95 % confidence.
fn precision_1pct() -> McPrecision {
    McPrecision {
        rel_ci: 0.01,
        max_trials: 5_000_000,
        batch: 5_000,
        level: 0.95,
    }
}

fn bench_mc_vs_convolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_backend/p_failure");
    let model = paper_model();
    let pf = model.corner().pf();
    for width in [60.0, 103.0, 155.0] {
        group.bench_with_input(
            BenchmarkId::new("convolution", width as u64),
            &width,
            |b, &w| b.iter(|| model.p_failure(black_box(w)).expect("computable")),
        );
        let precision = precision_1pct();
        group.bench_with_input(
            BenchmarkId::new("monte_carlo_1pct_ci", width as u64),
            &width,
            |b, &w| {
                b.iter(|| {
                    estimate_fet_failure_adaptive(
                        black_box(w),
                        *model.pitch(),
                        pf,
                        &precision,
                        1,
                        7,
                    )
                    .expect("converges")
                })
            },
        );
    }
    // The same 103-nm estimate on two executor threads: the only entry
    // that times the parallel batch path (bit-identical to one worker).
    let precision = precision_1pct();
    group.bench_with_input(
        BenchmarkId::new("monte_carlo_1pct_ci_2workers", 103),
        &103.0,
        |b, &w| {
            b.iter(|| {
                estimate_fet_failure_adaptive(black_box(w), *model.pitch(), pf, &precision, 2, 7)
                    .expect("converges")
            })
        },
    );
    // The entries above time the warm per-width result memo. A fresh
    // processing corner pays the thread's whole sweep plan first: the
    // pitch kernel, the first-gap masses and the 40 001-row renewal sweep
    // out to the `W_min` solver's 2000 nm bracket edge. Each iteration
    // steps `pf` to the next f64, so no iteration reuses a plan.
    let renewal = model.renewal();
    let mut cold_pf = pf;
    group.bench_with_input(
        BenchmarkId::new("convolution_cold", 2000),
        &2000.0,
        |b, &w| {
            b.iter(|| {
                cold_pf = cold_pf.next_up();
                renewal
                    .failure_probability(black_box(w), cold_pf)
                    .expect("computable")
            })
        },
    );
    group.finish();
}

fn bench_mc_wmin_solve(c: &mut Criterion) {
    // One full W_min bisection on the stochastic evaluator (memoized, so
    // each iteration pays only the cache-hit path after the first).
    c.bench_function("mc_backend/wmin_warm_cache", |b| {
        let mc = McFailure::new(
            paper_model(),
            McPrecision {
                rel_ci: 0.05,
                max_trials: 1_000_000,
                batch: 2_000,
                level: 0.95,
            },
            11,
        )
        .expect("valid precision");
        let curve = cnfet_core::curve::FailureCurve::new(mc)
            .with_rel_tol(0.2)
            .expect("valid tol");
        // Warm: the first solve pays the sampling, later ones the lookups.
        let _ = cnfet_core::WminSolver::new(&curve)
            .solve(0.9, 33e6)
            .unwrap();
        b.iter(|| {
            cnfet_core::WminSolver::new(&curve)
                .solve(black_box(0.9), black_box(33e6))
                .expect("solvable")
        })
    });
}

criterion_group!(benches, bench_mc_vs_convolution, bench_mc_wmin_solve);
criterion_main!(benches);
