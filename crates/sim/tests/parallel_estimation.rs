//! Integration: `run_adaptive` running the conditional row estimator at
//! Table-1 scale across threads.

use cnfet_sim::adaptive::{run_adaptive, McOutcome, McPrecision};
use cnfet_sim::condmc::{estimate_row_failure, RowScenario};
use cnt_stats::ci::conditional_mc_ci;
use cnt_stats::TruncatedGaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scenario() -> RowScenario {
    // 120 devices at staggered offsets in a 560-nm band — a scaled-down
    // Table-1 row that still exercises interval overlap heavily.
    let width = 103.0;
    let spans: Vec<(f64, f64)> = (0..120)
        .map(|i| {
            let y0 = ((i * 7) % 10) as f64 * 45.0;
            (y0, y0 + width)
        })
        .collect();
    RowScenario {
        row_height: 560.0,
        fet_spans: spans,
        pitch: TruncatedGaussian::positive_with_moments(4.0, 3.2).expect("valid pitch"),
        pf: 0.531,
    }
}

/// Exactly `jobs` samples in batches of `batch`: a relative target no
/// run reaches, so every batch commits.
fn fixed(jobs: u64, batch: u32) -> McPrecision {
    McPrecision {
        rel_ci: 1e-9,
        max_trials: jobs,
        batch,
        level: 0.95,
    }
}

/// Each sample is one `trials`-trial conditional row estimate.
fn rows(trials: u32, workers: usize, seed: u64, precision: &McPrecision) -> McOutcome {
    let sc = scenario();
    run_adaptive(precision, workers, seed, |rng| {
        estimate_row_failure(&sc, trials, rng)
            .expect("estimable")
            .probability
    })
    .expect("valid precision")
}

#[test]
fn parallel_workers_agree_with_single_threaded_estimate() {
    let sc = scenario();
    let reference =
        estimate_row_failure(&sc, 3000, &mut StdRng::seed_from_u64(1234)).expect("estimable");

    // 120 jobs of a 25-trial conditional estimate each: the merged mean is
    // an unbiased estimate of the same p_RF, bit-identical at 1 and 4
    // workers.
    let precision = fixed(120, 10);
    let merged = rows(25, 4, 99, &precision);
    assert_eq!(merged, rows(25, 1, 99, &precision));
    assert_eq!(merged.summary.count(), 120);

    let ci = conditional_mc_ci(&merged.summary, 0.999).expect("ci");
    assert!(
        ci.contains(reference.probability)
            || (merged.summary.mean() / reference.probability - 1.0).abs() < 0.5,
        "parallel {:.3e} vs reference {:.3e} (ci {ci})",
        merged.summary.mean(),
        reference.probability
    );
}

#[test]
fn parallel_run_is_reproducible() {
    let precision = fixed(40, 4);
    let a = rows(10, 4, 7, &precision);
    assert_eq!(a, rows(10, 4, 7, &precision));
    assert_ne!(a.summary.mean(), rows(10, 4, 8, &precision).summary.mean());
}

#[test]
fn engine_handles_more_workers_than_trials() {
    let out = run_adaptive(&fixed(4, 2), 8, 5, |rng| rng.gen::<f64>()).expect("valid precision");
    assert_eq!(out.trials, 4);
    assert_eq!(out.batches, 2);
}
