//! Parallel scenario sweeps with deterministic seeding.
//!
//! Scenarios fan out across scoped worker threads pulling from a shared
//! queue; scenario `i` always evaluates under
//! `cnfet_sim::engine::split_seed(base_seed, i)`, so results are
//! reproducible for a given `(grid, base_seed)` regardless of worker
//! count or scheduling — the same contract the Monte-Carlo engine gives
//! its workers. The underlying [`Pipeline`] caches are order-independent
//! by construction, so sharing them across workers cannot change answers.

use crate::engine::{sweep_mc_workers, Pipeline};
use crate::report::ScenarioReport;
use crate::spec::ScenarioSpec;
use crate::Result;
use cnt_stats::seed::split_seed;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fans a list of scenarios across worker threads.
///
/// **Deprecated shim**: kept so existing callers compile unchanged. It
/// blocks until every scenario finishes and returns the whole result
/// vector; new code should use
/// [`crate::service::YieldService::sweep`], which streams reports
/// incrementally (same seed-splitting contract, same determinism) and
/// adds cancellation and progress.
#[derive(Debug)]
pub struct SweepRunner<'a> {
    pipeline: &'a Pipeline,
    workers: usize,
}

impl<'a> SweepRunner<'a> {
    /// A runner over a shared pipeline with one worker per available CPU.
    pub fn new(pipeline: &'a Pipeline) -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self { pipeline, workers }
    }

    /// Override the worker count (builder style; clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The worker count in use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluate every scenario, returning per-scenario results in input
    /// order. A failing scenario yields its error without aborting the
    /// rest of the sweep.
    pub fn run(&self, specs: &[ScenarioSpec], base_seed: u64) -> Vec<Result<ScenarioReport>> {
        if specs.is_empty() {
            return Vec::new();
        }
        let workers = self.workers.min(specs.len());
        let mc_workers = sweep_mc_workers(workers);
        let next = AtomicUsize::new(0);
        let mut collected: Vec<(usize, Result<ScenarioReport>)> = Vec::with_capacity(specs.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let next = &next;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= specs.len() {
                            return local;
                        }
                        let seed = split_seed(base_seed, i as u64);
                        local.push((
                            i,
                            self.pipeline
                                .evaluate_with_mc_workers(&specs[i], seed, mc_workers),
                        ));
                    }
                }));
            }
            for handle in handles {
                collected.extend(handle.join().expect("sweep worker panicked"));
            }
        });
        collected.sort_by_key(|(i, _)| *i);
        collected.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackendSpec, CorrelationSpec, ScenarioGrid};

    fn fast_grid() -> Vec<ScenarioSpec> {
        let grid = ScenarioGrid::parse(
            r#"{
                "name": "t",
                "defaults": {
                    "backend": "gaussian-sum",
                    "rho": "paper",
                    "fast_design": true,
                    "m_min": "self-consistent"
                },
                "axes": {
                    "node_nm": [45, 32],
                    "correlation": ["none", "growth+aligned-layout"]
                }
            }"#,
        )
        .unwrap();
        grid.scenarios
    }

    #[test]
    fn results_keep_input_order_and_are_deterministic() {
        let pipeline = Pipeline::new();
        let specs = fast_grid();
        let one = SweepRunner::new(&pipeline).with_workers(1).run(&specs, 99);
        let many = SweepRunner::new(&pipeline).with_workers(4).run(&specs, 99);
        assert_eq!(one.len(), specs.len());
        for (i, (a, b)) in one.iter().zip(many.iter()).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.name, specs[i].name, "order must match input");
            assert_eq!(a.w_min_nm, b.w_min_nm, "worker count must not matter");
            assert_eq!(a.seed, b.seed, "seeds split by index, not by worker");
        }
        // A fresh pipeline (cold caches) reproduces the same numbers.
        let cold = Pipeline::new();
        let again = SweepRunner::new(&cold).with_workers(3).run(&specs, 99);
        for (a, b) in one.iter().zip(again.iter()) {
            assert_eq!(
                a.as_ref().unwrap().w_min_nm,
                b.as_ref().unwrap().w_min_nm,
                "cache warmth must not change answers"
            );
        }
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
        let pipeline = Pipeline::new();
        let one = SweepRunner::new(&pipeline)
            .with_workers(1)
            .run(&grid.scenarios, 7);
        let many = SweepRunner::new(&pipeline)
            .with_workers(8)
            .run(&grid.scenarios, 7);
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
    fn bad_scenarios_fail_individually() {
        let pipeline = Pipeline::new();
        let mut specs = fast_grid();
        specs[1].yield_target = 1.5; // invalid
        specs[1].backend = BackendSpec::GaussianSum;
        let results = SweepRunner::new(&pipeline).with_workers(2).run(&specs, 1);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok(), "later scenarios still run");
    }

    #[test]
    fn empty_sweep_is_empty() {
        let pipeline = Pipeline::new();
        assert!(SweepRunner::new(&pipeline).run(&[], 0).is_empty());
    }

    #[test]
    fn correlated_scenarios_beat_uncorrelated_at_every_node() {
        let pipeline = Pipeline::new();
        let specs = fast_grid();
        let results = SweepRunner::new(&pipeline).run(&specs, 5);
        // Grid order: (45, none), (45, corr), (32, none), (32, corr).
        for pair in results.chunks(2) {
            let plain = pair[0].as_ref().unwrap();
            let corr = pair[1].as_ref().unwrap();
            assert_eq!(plain.correlation, CorrelationSpec::None.name());
            assert!(corr.w_min_nm < plain.w_min_nm);
            assert!(corr.upsizing_penalty <= plain.upsizing_penalty);
        }
    }
}
