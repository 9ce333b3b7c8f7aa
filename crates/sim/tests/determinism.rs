//! Seeded-RNG determinism regression tests for the Monte-Carlo estimators:
//! the same seed must give bit-identical estimates, and library code must
//! never consult an ambient entropy source.

use cnfet_sim::condmc::{estimate_fet_failure, estimate_row_failure, RowScenario};
use cnt_stats::TruncatedGaussian;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pitch() -> TruncatedGaussian {
    TruncatedGaussian::positive_with_moments(4.0, 3.28).unwrap()
}

#[test]
fn fet_failure_same_seed_same_estimate() {
    let a =
        estimate_fet_failure(60.0, pitch(), 0.531, 5_000, &mut StdRng::seed_from_u64(11)).unwrap();
    let b =
        estimate_fet_failure(60.0, pitch(), 0.531, 5_000, &mut StdRng::seed_from_u64(11)).unwrap();
    assert_eq!(a.probability, b.probability);
    assert_eq!(a.ci95, b.ci95);
    let c =
        estimate_fet_failure(60.0, pitch(), 0.531, 5_000, &mut StdRng::seed_from_u64(12)).unwrap();
    assert_ne!(a.probability, c.probability);
}

#[test]
fn row_failure_same_seed_same_estimate() {
    let scenario = RowScenario {
        row_height: 1400.0,
        fet_spans: vec![(100.0, 203.0), (400.0, 503.0), (800.0, 903.0)],
        pitch: pitch(),
        pf: 0.531,
    };
    let a = estimate_row_failure(&scenario, 2_000, &mut StdRng::seed_from_u64(5)).unwrap();
    let b = estimate_row_failure(&scenario, 2_000, &mut StdRng::seed_from_u64(5)).unwrap();
    assert_eq!(a.probability, b.probability);
    assert_eq!(a.ci95, b.ci95);
}
