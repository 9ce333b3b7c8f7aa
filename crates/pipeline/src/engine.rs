//! The pipeline engine: cached substrates + scenario evaluation.

use crate::cache::BoundedCache;
use crate::design::{design_stats, DesignStats};
use crate::report::{FaultReport, McBackendReport, ScenarioReport};
use crate::spec::{BackendSpec, CornerSpec, CorrelationSpec, LibrarySpec, MminSpec, RhoSpec};
use crate::{PipelineError, Result, ScenarioSpec};
use cnfet_celllib::CellLibrary;
use cnfet_core::curve::{FailureCurve, PFailure};
use cnfet_core::failure::FailureModel;
use cnfet_core::paper;
use cnfet_core::penalty::upsizing_penalty;
use cnfet_core::rowmodel::{evaluate_table1, RowModel, Table1, UnalignedRowStudy};
use cnfet_core::stochastic::McFailure;
use cnfet_core::wmin::{solve_upsizing, UpsizingSolution, WminSolver};
use cnfet_device::GateCapModel;
use cnfet_fault::{McFallback, PurityMode};
use cnfet_layout::{align_library, AlignmentOptions, GridPolicy, LibraryAlignment};
use cnfet_sim::adaptive::McPrecision;
use cnt_stats::seed::split_seed;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key for one `(corner, backend)` failure curve.
type CurveKey = (u64, u64, u64, u8, u64);

/// Seed salt for the count model backing auxiliary (non-curve) queries.
const COUNT_MODEL_SALT: u64 = 0x636E_7463; // "cntc"

/// Seed salt deriving the Monte-Carlo evaluator stream from a scenario
/// seed, keeping it disjoint from the row-failure cross-check stream.
const MC_EVAL_SALT: u64 = 0x7046_6D63; // "pFmc"

/// Seed salt deriving the redundancy-compose Monte-Carlo fallback stream,
/// disjoint from the back-end and cross-check streams.
const FAULT_MC_SALT: u64 = 0x666C_7463; // "fltc"

/// Fixed-point iterations coupling the width solve to the width-dependent
/// metallic-short probability, plus the relative tolerance that stops
/// them early. The short probability moves slowly with `W` (it is linear
/// in the mean CNT count), so the iteration contracts fast.
const SHORT_FIXED_POINT_ITERS: u32 = 8;
const SHORT_FIXED_POINT_REL_TOL: f64 = 1e-6;

/// Outcome of the fault-aware width solve, feeding the report's `fault`
/// provenance block.
struct FaultSolve {
    /// Metallic-short probability at the solved width (0 in removal mode).
    p_short: f64,
    /// Per-cell failure budget after redundancy recovery.
    p_budget: f64,
    /// False when shorts alone exceed the budget — the returned solution
    /// is then the shorts-ignored width and the target is missed.
    feasible: bool,
}

fn fault_err(e: cnfet_fault::FaultError) -> PipelineError {
    PipelineError::InvalidSpec {
        field: "fault",
        msg: e.to_string(),
    }
}

/// The deterministic central value of a knob: the value itself for the
/// fixed form, the analytic mean otherwise.
fn knob_central(d: &cnt_stats::DistSpec) -> Result<f64> {
    d.mean().map_err(|e| PipelineError::InvalidSpec {
        field: "scenario",
        msg: e.to_string(),
    })
}

fn curve_key(corner: &CornerSpec, backend: &BackendSpec) -> Result<CurveKey> {
    let c = corner.corner()?;
    let (tag, step) = match backend {
        BackendSpec::Convolution { step } => (0u8, step.to_bits()),
        BackendSpec::GaussianSum => (1u8, 0),
        BackendSpec::MonteCarlo { .. } => {
            return Err(PipelineError::InvalidSpec {
                field: "backend",
                msg: "monte-carlo curves are seeded per scenario and are not shareable; \
                      Pipeline::evaluate builds them inline"
                    .into(),
            })
        }
    };
    Ok((
        c.pm().to_bits(),
        c.p_rs().to_bits(),
        c.p_rm().to_bits(),
        tag,
        step,
    ))
}

/// Worker threads for one Monte-Carlo evaluation. Results are worker-count
/// independent by construction, so this is purely a wall-clock knob; cap
/// it so sweep-level parallelism does not oversubscribe badly. Read once
/// per process: every evaluate asks for it, and on Linux
/// `available_parallelism` reads the cgroup CPU quota files (~14 µs).
fn mc_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(8)
    })
}

/// Monte-Carlo worker threads for each scenario of a sweep that runs
/// `sweep_workers` scenarios at once: the cores are split between them.
/// Giving every scenario all of them instead puts `sweep_workers ×
/// mc_workers()` threads on the cores, and each scenario's speculative
/// batches (computed in parallel, dropped once an earlier batch meets the
/// precision target) then take time from the other scenarios' useful work.
pub(crate) fn sweep_mc_workers(sweep_workers: usize) -> usize {
    (mc_workers() / sweep_workers.max(1)).max(1)
}

/// Capacity bounds for the pipeline's two unbounded-key caches. The
/// library and alignment caches need no bound — their key domains are the
/// finite `(library, grid-policy)` product (≤ 4 entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident `pF(W)` curves (distinct `(corner, backend)`
    /// pairs). Each curve holds tens-to-hundreds of knots.
    pub curve_capacity: usize,
    /// Maximum resident mapped-design statistics (distinct
    /// `(library, fast)` pairs).
    pub design_capacity: usize,
}

impl Default for CacheConfig {
    /// 32 curves / 8 designs — generous for every workload in the repo,
    /// small enough that a daemon sweeping thousands of custom corners
    /// stays flat.
    fn default() -> Self {
        Self {
            curve_capacity: 32,
            design_capacity: 8,
        }
    }
}

/// A point-in-time snapshot of cache residency — the provenance surface
/// for the memoization win (replaces the per-report `curve_evaluations`
/// counter, which made reports depend on cache warmth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Resident `pF(W)` curves.
    pub curves: usize,
    /// Configured curve capacity.
    pub curve_capacity: usize,
    /// Total exact knots across resident curves (the
    /// [`FailureCurve::cache_cost`] sum).
    pub curve_knots: usize,
    /// Total exact model evaluations performed by resident curves.
    pub curve_evaluations: u64,
    /// Resident mapped-design statistics.
    pub designs: usize,
    /// Configured design capacity.
    pub design_capacity: usize,
    /// Resident generated libraries.
    pub libraries: usize,
    /// Resident aligned-library transforms.
    pub alignments: usize,
}

/// The shared evaluator behind every experiment, bench, and sweep.
///
/// All getters hand out `Arc`s from interior caches, so one `Pipeline` can
/// be borrowed concurrently by a sweep's or a wafer run's threads:
/// the expensive substrates — memoized `pF(W)` curves, mapped-design
/// statistics, aligned libraries — are computed once per distinct key and
/// shared from then on. The curve and design caches are **bounded** (LRU,
/// see [`CacheConfig`]); eviction only re-costs a future miss, it never
/// changes an answer, because every cached value is a pure function of its
/// key.
pub struct Pipeline {
    curves: Mutex<BoundedCache<CurveKey, Arc<FailureCurve>>>,
    designs: Mutex<BoundedCache<(LibrarySpec, bool), Arc<DesignStats>>>,
    libraries: Mutex<HashMap<LibrarySpec, Arc<CellLibrary>>>,
    alignments: Mutex<HashMap<(LibrarySpec, bool), Arc<LibraryAlignment>>>,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::with_cache_config(CacheConfig::default())
    }
}

impl Pipeline {
    /// An empty pipeline with default cache bounds; every cache fills
    /// lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pipeline with explicit cache bounds.
    pub fn with_cache_config(config: CacheConfig) -> Self {
        Self {
            curves: Mutex::new(BoundedCache::new(config.curve_capacity)),
            designs: Mutex::new(BoundedCache::new(config.design_capacity)),
            libraries: Mutex::new(HashMap::new()),
            alignments: Mutex::new(HashMap::new()),
        }
    }

    /// A residency snapshot of every cache (volatile by nature — this is
    /// operational provenance, deliberately kept out of scenario reports).
    pub fn cache_stats(&self) -> CacheStats {
        let curves = self.curves.lock().expect("pipeline lock poisoned");
        let (mut curve_knots, mut curve_evaluations) = (0, 0);
        curves.values().for_each(|curve| {
            curve_knots += curve.cache_cost();
            curve_evaluations += curve.evaluations();
        });
        let designs = self.designs.lock().expect("pipeline lock poisoned");
        CacheStats {
            curves: curves.len(),
            curve_capacity: curves.capacity(),
            curve_knots,
            curve_evaluations,
            designs: designs.len(),
            design_capacity: designs.capacity(),
            libraries: self.libraries.lock().expect("pipeline lock poisoned").len(),
            alignments: self
                .alignments
                .lock()
                .expect("pipeline lock poisoned")
                .len(),
        }
    }

    /// Build the (uncached) failure model for a corner and back-end.
    ///
    /// # Errors
    ///
    /// Propagates corner/model validation errors.
    pub fn failure_model(
        &self,
        corner: &CornerSpec,
        backend: &BackendSpec,
    ) -> Result<FailureModel> {
        Ok(FailureModel::paper_default(corner.corner()?)?
            .with_backend(backend.count_model(COUNT_MODEL_SALT)))
    }

    /// The shared memoized `pF(W)` curve for an *analytic* corner ×
    /// back-end pair. Monte-Carlo curves are seeded per scenario and built
    /// inline by [`Pipeline::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates corner/model validation errors; rejects the Monte-Carlo
    /// back-end.
    pub fn failure_curve(
        &self,
        corner: &CornerSpec,
        backend: &BackendSpec,
    ) -> Result<Arc<FailureCurve>> {
        let key = curve_key(corner, backend)?;
        if let Some(curve) = self
            .curves
            .lock()
            .expect("pipeline lock poisoned")
            .get(&key)
        {
            return Ok(Arc::clone(curve));
        }
        // Build outside the lock; re-check before inserting so concurrent
        // builders of the same key converge on one shared curve.
        let curve = Arc::new(FailureCurve::new(self.failure_model(corner, backend)?));
        let mut curves = self.curves.lock().expect("pipeline lock poisoned");
        if let Some(existing) = curves.get(&key) {
            return Ok(Arc::clone(existing));
        }
        // An evicted curve dies here; outstanding Arcs stay valid.
        curves.insert(key, Arc::clone(&curve));
        Ok(curve)
    }

    /// The generated cell library (cached).
    pub fn library(&self, lib: LibrarySpec) -> Arc<CellLibrary> {
        let mut libraries = self.libraries.lock().expect("pipeline lock poisoned");
        Arc::clone(
            libraries
                .entry(lib)
                .or_insert_with(|| Arc::new(lib.build())),
        )
    }

    /// Mapped-design statistics for `(library, fast)` (cached).
    ///
    /// # Errors
    ///
    /// Propagates mapping/placement errors.
    pub fn design_stats(&self, lib: LibrarySpec, fast: bool) -> Result<Arc<DesignStats>> {
        if let Some(stats) = self
            .designs
            .lock()
            .expect("pipeline lock poisoned")
            .get(&(lib, fast))
        {
            return Ok(Arc::clone(stats));
        }
        // Compute outside the lock: mapping + placement is the slow part.
        let library = self.library(lib);
        let stats = Arc::new(design_stats(&library, fast)?);
        let mut designs = self.designs.lock().expect("pipeline lock poisoned");
        if let Some(existing) = designs.get(&(lib, fast)) {
            return Ok(Arc::clone(existing));
        }
        designs.insert((lib, fast), Arc::clone(&stats));
        Ok(stats)
    }

    /// The aligned-active transform of a whole library (cached per grid
    /// policy).
    ///
    /// # Errors
    ///
    /// Propagates alignment errors.
    pub fn aligned_library(
        &self,
        lib: LibrarySpec,
        policy: GridPolicy,
    ) -> Result<Arc<LibraryAlignment>> {
        let key = (lib, policy == GridPolicy::Dual);
        if let Some(aligned) = self
            .alignments
            .lock()
            .expect("pipeline lock poisoned")
            .get(&key)
        {
            return Ok(Arc::clone(aligned));
        }
        let library = self.library(lib);
        let aligned = Arc::new(align_library(
            &library,
            &AlignmentOptions {
                policy,
                ..AlignmentOptions::default()
            },
        )?);
        Ok(Arc::clone(
            self.alignments
                .lock()
                .expect("pipeline lock poisoned")
                .entry(key)
                .or_insert(aligned),
        ))
    }

    /// The Eq. (3.2) row model a scenario implies: density from the paper
    /// or the measured design, rescaled to the scenario node, divided by
    /// the grid policy.
    ///
    /// # Errors
    ///
    /// Propagates design-stats and row-model validation errors.
    pub fn row_model(&self, spec: &ScenarioSpec) -> Result<RowModel> {
        let base_node = spec.library.node_nm();
        let rho_base = match spec.rho {
            RhoSpec::Paper => paper::RHO_MIN_FET_PER_UM,
            RhoSpec::Measured => {
                self.design_stats(spec.library, spec.fast_design)?
                    .rho_per_um
            }
        };
        // Critical-FET density rises as cells shrink below the base node;
        // the density knob scales the resolved source on top of that. A
        // stochastic spec uses its central (mean) values here — callers
        // that want a sampled realization pass a realized spec.
        let rho = rho_base * base_node / spec.node_nm * knob_central(&spec.density)?;
        let row = RowModel::from_design(knob_central(&spec.l_cnt_um)?, rho)?;
        Ok(row.with_grid_division(spec.grid.benefit_division())?)
    }

    /// The requirement relaxation a correlation scenario buys (Sec 3.1 /
    /// Table 1): none → 1, directional growth alone → `M_Rmin` divided by
    /// the paper's 13× alignment factor, growth + aligned-active → the
    /// full `M_Rmin`.
    pub fn relaxation(spec: &ScenarioSpec, row: &RowModel) -> f64 {
        match spec.correlation {
            CorrelationSpec::None => 1.0,
            CorrelationSpec::Growth => (row.relaxation() / paper::ALIGNMENT_FACTOR).max(1.0),
            CorrelationSpec::GrowthAlignedLayout => row.relaxation().max(1.0),
        }
    }

    /// Solve the scenario's `W_min` problem on any `pF(W)` evaluator —
    /// an analytic curve or a stochastic back-end.
    fn solve_wmin<E: PFailure>(
        spec: &ScenarioSpec,
        eval: &E,
        widths: &[(f64, u64)],
        relaxation: f64,
    ) -> Result<UpsizingSolution> {
        Ok(match spec.m_min {
            MminSpec::Fraction(dist) => {
                let m_min = (knob_central(&dist)? * spec.m_transistors).max(1.0);
                let solver = WminSolver::new(eval);
                let s = solver.solve_relaxed(spec.yield_target, m_min, relaxation.max(1.0))?;
                UpsizingSolution {
                    w_min: s.w_min,
                    m_min,
                    p_req: s.p_req,
                }
            }
            MminSpec::SelfConsistent => solve_upsizing(
                eval,
                widths,
                spec.yield_target,
                spec.m_transistors,
                relaxation,
            )?,
        })
    }

    /// The fault-aware width solve: the chip-yield inversion goes through
    /// the redundancy scheme (`required_p_cell` in place of the raw
    /// `required_p_failure`), and in `short` purity mode the per-cell
    /// budget is split between the width-dependent metallic-short
    /// probability and the open-failure requirement the solver can
    /// actually buy down with width. The two couple through `W` (wider
    /// gates hold more CNTs, so more chances of a metallic short), so the
    /// solve iterates to a fixed point. When shorts alone exceed the
    /// budget the scenario is *infeasible at any width*: the solve keeps
    /// the shorts-ignored width and reports the miss via
    /// [`FaultSolve::feasible`] rather than erroring, so co-optimization
    /// sweeps can rank the shortfall instead of aborting.
    fn solve_wmin_fault<E: PFailure>(
        spec: &ScenarioSpec,
        eval: &E,
        relaxation: f64,
        model: &FailureModel,
    ) -> Result<(UpsizingSolution, FaultSolve)> {
        let MminSpec::Fraction(dist) = spec.m_min else {
            // Unreachable through validated specs (validate() rejects the
            // combination); kept as a hard error for direct callers.
            return Err(PipelineError::InvalidSpec {
                field: "m_min",
                msg: "self-consistent M_min is incompatible with active faults".into(),
            });
        };
        let m_min = (knob_central(&dist)? * spec.m_transistors).max(1.0);
        let purity = spec.purity.central();
        let p_budget = spec
            .redundancy
            .required_p_cell(spec.yield_target, m_min)
            .map_err(fault_err)?;
        let relax = relaxation.max(1.0);
        let solver = WminSolver::new(eval);
        let mut p_short = 0.0;
        let mut solution = None;
        let mut feasible = true;
        for _ in 0..SHORT_FIXED_POINT_ITERS {
            let budget_open = p_budget - p_short;
            // Only shorts found by an earlier step can exhaust the budget:
            // a budget that is zero to begin with goes to the solver, which
            // rejects it as it rejects any zero requirement.
            if budget_open <= 0.0 && solution.is_some() {
                feasible = false;
                break;
            }
            let s = solver.solve_for_requirement((budget_open * relax).min(0.999_999))?;
            let next_short = if spec.purity.mode == PurityMode::Short && purity < 1.0 {
                cnfet_fault::short_probability(purity, model.mean_count(s.w_min)?)
                    .map_err(fault_err)?
            } else {
                0.0
            };
            let converged = (next_short - p_short).abs() <= SHORT_FIXED_POINT_REL_TOL * p_budget;
            p_short = next_short;
            solution = Some(s);
            if converged {
                break;
            }
        }
        let s = solution.expect("first iteration always solves (p_short starts at 0)");
        Ok((
            UpsizingSolution {
                w_min: s.w_min,
                m_min,
                p_req: s.p_req,
            },
            FaultSolve {
                p_short,
                p_budget,
                feasible,
            },
        ))
    }

    /// Evaluate one scenario. `seed` drives the Monte-Carlo back-end (if
    /// selected) and the optional conditional-MC cross-check, and is
    /// recorded in the report either way; analytic results are
    /// seed-independent, stochastic results are a pure function of
    /// `(spec, seed)` regardless of worker count. The report carries no
    /// cache provenance, so the result is a pure function of
    /// `(spec, seed)` — byte-identical however warm the caches are.
    ///
    /// Service-era callers should prefer
    /// [`crate::service::YieldService::evaluate`], which routes through
    /// the shared bounded caches and the versioned envelope layer; this
    /// method remains as the engine-level entry point behind it.
    ///
    /// # Errors
    ///
    /// Propagates validation, model, solver, and simulation errors.
    pub fn evaluate(&self, spec: &ScenarioSpec, seed: u64) -> Result<ScenarioReport> {
        self.evaluate_with_mc_workers(spec, seed, mc_workers())
    }

    /// [`Pipeline::evaluate`] with `mc_workers` threads for each
    /// Monte-Carlo run (the sampler and the fault-composition fallback);
    /// the report is the same for any count.
    pub(crate) fn evaluate_with_mc_workers(
        &self,
        spec: &ScenarioSpec,
        seed: u64,
        mc_workers: usize,
    ) -> Result<ScenarioReport> {
        spec.validate()?;
        // A stochastic spec realizes its knobs from the seed before
        // anything else; deterministic specs pass through untouched, so
        // their results are bit-stable across releases.
        let realized;
        let spec = if spec.is_stochastic() {
            realized = spec.realize(seed)?;
            &realized
        } else {
            spec
        };
        let stats = self.design_stats(spec.library, spec.fast_design)?;
        let scale = spec.node_nm / spec.library.node_nm();
        let widths: Vec<(f64, u64)> = stats
            .width_pairs
            .iter()
            .map(|&(w, n)| (w * scale, n))
            .collect();
        let row = self.row_model(spec)?;
        let relaxation = Self::relaxation(spec, &row);

        // The effective processing corner: removal-mode impurity folds
        // into the metallic fraction (the purity knob then *specifies*
        // the grown s-CNT fraction directly, keeping the corner's removal
        // selectivities), so the count-thinning rides the existing
        // open-failure machinery — including the shared curve cache,
        // which keys on the effective corner bits. Short mode and
        // fault-free scenarios keep the spec corner untouched.
        let eval_corner = if spec.fault_active() && spec.purity.mode == PurityMode::Removal {
            let c = spec.corner.corner()?;
            CornerSpec::Custom {
                pm: 1.0 - spec.purity.central(),
                p_rs: c.p_rs(),
                p_rm: c.p_rm(),
            }
        } else {
            spec.corner
        };
        // Fault scenarios need a plain model for the mean CNT count under
        // a gate (the metallic-short hook); cheap to build, so per-call.
        let fault_model = if spec.fault_active() {
            Some(FailureModel::paper_default(eval_corner.corner()?)?)
        } else {
            None
        };

        let (sol, fault_solve, p_at_w_min, mc) = match spec.backend.mc_precision() {
            Some(precision) => {
                // Stochastic back-end: a per-scenario evaluator (seeded per
                // width) behind the same memoizing curve layer the analytic
                // back-ends use. The interpolation tolerance is widened to
                // several CI half-widths so sampling noise does not read as
                // curvature and trigger runaway refinement.
                let model = FailureModel::paper_default(eval_corner.corner()?)?;
                let eval = McFailure::new(model, precision, split_seed(seed, MC_EVAL_SALT))?
                    .with_workers(mc_workers);
                let rel_tol = (4.0 * precision.rel_ci).clamp(0.05, 0.25);
                let curve = FailureCurve::new(eval).with_rel_tol(rel_tol)?;
                let (sol, fs) = match &fault_model {
                    Some(fm) => {
                        let (sol, fs) = Self::solve_wmin_fault(spec, &curve, relaxation, fm)?;
                        (sol, Some(fs))
                    }
                    None => (Self::solve_wmin(spec, &curve, &widths, relaxation)?, None),
                };
                // Record the CI at the solved width from a direct (memoized,
                // exact-width) stochastic point, not the interpolant.
                let point = curve.model().point(sol.w_min)?;
                let mc = McBackendReport {
                    trials: curve.model().total_trials(),
                    widths_evaluated: curve.model().evaluated_widths() as u64,
                    ci_lo: point.lo,
                    ci_hi: point.hi,
                    ci_level: point.level,
                    converged: curve.model().all_converged(),
                };
                (sol, fs, point.estimate, Some(mc))
            }
            None => {
                let curve = self.failure_curve(&eval_corner, &spec.backend)?;
                let (sol, fs) = match &fault_model {
                    Some(fm) => {
                        let (sol, fs) =
                            Self::solve_wmin_fault(spec, curve.as_ref(), relaxation, fm)?;
                        (sol, Some(fs))
                    }
                    None => (
                        Self::solve_wmin(spec, curve.as_ref(), &widths, relaxation)?,
                        None,
                    ),
                };
                let p_at = curve.p_failure(sol.w_min)?;
                (sol, fs, p_at, None)
            }
        };
        let penalty = upsizing_penalty(&GateCapModel::proportional(), &widths, sol.w_min)?;

        // Compose the effective chip yield through the redundancy scheme
        // at the solved operating point: the per-cell failure probability
        // is the short probability plus the correlation-credited open
        // failure. The MC fallback (schemes past the exact-term limit) is
        // seeded from the scenario seed, so any worker count reproduces
        // the same bytes.
        let fault = match fault_solve {
            None => None,
            Some(fs) => {
                let relax = relaxation.max(1.0);
                let p_cell = (fs.p_short + p_at_w_min / relax).clamp(0.0, 1.0);
                let outcome = spec
                    .redundancy
                    .compose(
                        p_cell,
                        sol.m_min,
                        &McFallback {
                            seed: split_seed(seed, FAULT_MC_SALT),
                            workers: mc_workers,
                            precision: McPrecision::default(),
                        },
                    )
                    .map_err(fault_err)?;
                let shortfall = (spec.yield_target - outcome.circuit_yield).max(0.0);
                Some(FaultReport {
                    purity: spec.purity.central(),
                    mode: spec.purity.mode.name().to_string(),
                    p_short: fs.p_short,
                    scheme: spec.redundancy.name().to_string(),
                    area_overhead: spec.redundancy.area_overhead(sol.m_min),
                    p_budget: fs.p_budget,
                    recovered_yield: outcome.circuit_yield,
                    shortfall,
                    method: outcome.method.name().to_string(),
                    met_target: fs.feasible && shortfall <= 1e-4,
                })
            }
        };

        // Optional conditional-MC cross-check of the non-aligned row
        // failure probability at the solved width (Table-1 machinery).
        let unaligned_p_rf_mc = if spec.mc_trials > 0
            && spec.correlation != CorrelationSpec::None
            && sol.w_min < 0.95 * 560.0 * scale
        {
            let study = UnalignedRowStudy {
                band_height: 560.0 * scale,
                width: sol.w_min,
                offset_step: 45.0 * scale,
                devices: row.m_r_min().round().max(1.0) as usize,
            };
            let model = self.failure_model(&eval_corner, &spec.backend)?;
            Some(study.estimate(&model, spec.mc_trials, seed)?.probability)
        } else {
            None
        };

        Ok(ScenarioReport {
            name: spec.name.clone(),
            seed,
            library: spec.library.name().to_string(),
            node_nm: spec.node_nm,
            corner: spec.corner.label(),
            correlation: spec.correlation.name().to_string(),
            backend: spec.backend.name().to_string(),
            yield_target: spec.yield_target,
            m_transistors: spec.m_transistors,
            m_min: sol.m_min,
            m_r_min: row.m_r_min(),
            relaxation,
            p_req: sol.p_req,
            w_min_nm: sol.w_min,
            p_at_w_min,
            upsizing_penalty: penalty,
            unaligned_p_rf_mc,
            mc,
            fault,
        })
    }

    /// The paper's Table 1 anchor: find the width where the aligned
    /// `p_RF` equals 1.5e-8, then estimate all three growth/layout
    /// scenarios there (conditional MC for the non-aligned case).
    ///
    /// # Errors
    ///
    /// Propagates model inversion and simulation errors.
    pub fn table1_anchor(&self, trials: u32, seed: u64) -> Result<Table1Anchor> {
        let corner = CornerSpec::Aggressive;
        let backend = BackendSpec::Convolution { step: 0.05 };
        let model = self.failure_model(&corner, &backend)?;
        let curve = self.failure_curve(&corner, &backend)?;
        let row = RowModel::from_design(paper::L_CNT_UM, paper::RHO_MIN_FET_PER_UM)?;
        let w_eval = curve.width_for_failure(paper::TABLE1_DIRECTIONAL_ALIGNED, 50.0, 300.0)?;
        let study = UnalignedRowStudy {
            band_height: 560.0, // polarity-band height of the 45-nm cell geometry
            width: w_eval,
            offset_step: 45.0, // legal-placement grid of the library
            devices: paper::M_R_MIN as usize,
        };
        let table1 = evaluate_table1(&model, &row, &study, trials, seed)?;
        Ok(Table1Anchor { w_eval, table1 })
    }
}

/// Result of [`Pipeline::table1_anchor`].
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Anchor {
    /// The evaluation width (nm) where aligned `p_RF = pF = 1.5e-8`.
    pub w_eval: f64,
    /// The three-scenario Table 1 evaluation at that width.
    pub table1: Table1,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("cache_stats", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

// Keep the compiler honest about the concurrency contract: sweeps and
// wafer runs share `&Pipeline` across threads.
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<Pipeline>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn fast_spec(name: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::baseline(name);
        spec.backend = BackendSpec::GaussianSum;
        spec.fast_design = true;
        spec.rho = RhoSpec::Paper;
        spec
    }

    #[test]
    fn caches_are_shared() {
        let p = Pipeline::new();
        let a = p
            .failure_curve(&CornerSpec::Aggressive, &BackendSpec::GaussianSum)
            .unwrap();
        let b = p
            .failure_curve(&CornerSpec::Aggressive, &BackendSpec::GaussianSum)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one curve");
        let c = p
            .failure_curve(&CornerSpec::IdealRemoval, &BackendSpec::GaussianSum)
            .unwrap();
        assert!(
            !Arc::ptr_eq(&a, &c),
            "different corners get distinct curves"
        );

        let d1 = p.design_stats(LibrarySpec::Nangate45, true).unwrap();
        let d2 = p.design_stats(LibrarySpec::Nangate45, true).unwrap();
        assert!(Arc::ptr_eq(&d1, &d2));

        let stats = p.cache_stats();
        assert_eq!(stats.curves, 2);
        assert_eq!(stats.designs, 1);
        assert_eq!(stats.libraries, 1);
        assert!(stats.curve_capacity >= stats.curves);
    }

    #[test]
    fn curve_cache_is_bounded_and_eviction_preserves_answers() {
        let p = Pipeline::with_cache_config(CacheConfig {
            curve_capacity: 2,
            design_capacity: 8,
        });
        let corner = |pm: f64| CornerSpec::Custom {
            pm,
            p_rs: 0.1,
            p_rm: 1.0,
        };
        let first = p
            .failure_curve(&corner(0.10), &BackendSpec::GaussianSum)
            .unwrap();
        let baseline = first.p_failure(120.0).unwrap();
        for i in 0..20 {
            let pm = 0.10 + 0.01 * f64::from(i);
            p.failure_curve(&corner(pm), &BackendSpec::GaussianSum)
                .unwrap();
            assert!(
                p.cache_stats().curves <= 2,
                "cache exceeded its bound at corner {i}"
            );
        }
        // The first curve was evicted; rebuilding it answers identically.
        let rebuilt = p
            .failure_curve(&corner(0.10), &BackendSpec::GaussianSum)
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &rebuilt), "must be a fresh curve");
        assert_eq!(rebuilt.p_failure(120.0).unwrap(), baseline);
        // The evicted Arc we still hold keeps working.
        assert_eq!(first.p_failure(120.0).unwrap(), baseline);
    }

    #[test]
    fn correlation_relaxes_wmin() {
        let p = Pipeline::new();
        let plain = p.evaluate(&fast_spec("plain"), 1).unwrap();
        let mut corr_spec = fast_spec("corr");
        corr_spec.correlation = CorrelationSpec::GrowthAlignedLayout;
        let corr = p.evaluate(&corr_spec, 1).unwrap();
        assert!(
            corr.w_min_nm < plain.w_min_nm - 30.0,
            "correlated {} vs plain {}",
            corr.w_min_nm,
            plain.w_min_nm
        );
        assert!(corr.relaxation > 300.0, "relaxation {}", corr.relaxation);
        assert_eq!(plain.relaxation, 1.0);
        assert!(corr.upsizing_penalty <= plain.upsizing_penalty);

        let mut growth_spec = fast_spec("growth");
        growth_spec.correlation = CorrelationSpec::Growth;
        let growth = p.evaluate(&growth_spec, 1).unwrap();
        assert!(
            growth.w_min_nm < plain.w_min_nm && growth.w_min_nm > corr.w_min_nm,
            "growth-only {} must sit between {} and {}",
            growth.w_min_nm,
            corr.w_min_nm,
            plain.w_min_nm
        );
    }

    #[test]
    fn grid_division_halves_the_benefit() {
        let p = Pipeline::new();
        let mut single = fast_spec("single");
        single.correlation = CorrelationSpec::GrowthAlignedLayout;
        let mut dual = single.clone();
        dual.name = "dual".into();
        dual.grid = GridPolicy::Dual;
        let rs = p.evaluate(&single, 1).unwrap();
        let rd = p.evaluate(&dual, 1).unwrap();
        assert!((rs.relaxation / rd.relaxation - 2.0).abs() < 1e-9);
        assert!(rd.w_min_nm > rs.w_min_nm);
    }

    #[test]
    fn mc_cross_check_runs_and_is_seeded() {
        let p = Pipeline::new();
        let mut spec = fast_spec("mc");
        spec.correlation = CorrelationSpec::GrowthAlignedLayout;
        spec.mc_trials = 50;
        let a = p.evaluate(&spec, 7).unwrap();
        let b = p.evaluate(&spec, 7).unwrap();
        let c = p.evaluate(&spec, 8).unwrap();
        let pa = a.unaligned_p_rf_mc.expect("mc requested");
        assert_eq!(pa, b.unaligned_p_rf_mc.unwrap(), "same seed, same estimate");
        assert_ne!(
            pa,
            c.unaligned_p_rf_mc.unwrap(),
            "different seed, different estimate"
        );
        // The non-aligned estimate sits between aligned and uncorrelated.
        assert!(pa >= a.p_at_w_min);
    }

    #[test]
    fn fault_free_spec_reports_no_fault_block() {
        let p = Pipeline::new();
        let report = p.evaluate(&fast_spec("clean"), 1).unwrap();
        assert!(report.fault.is_none(), "no fault knobs, no fault block");
    }

    #[test]
    fn redundancy_recovers_an_infeasible_purity() {
        use cnfet_fault::RedundancyScheme;
        use cnt_stats::DistSpec;

        let p = Pipeline::new();
        // At the baseline budget (~3e-9 per cell) a 1e-9 impurity shorts
        // roughly 3e-8 of the cells — shorts alone blow the budget.
        let mut bare = fast_spec("bare");
        bare.purity.dist = DistSpec::Fixed(1.0 - 1e-9);
        let r_bare = p.evaluate(&bare, 1).unwrap();
        let f_bare = r_bare.fault.as_ref().expect("fault block present");
        assert!(!f_bare.met_target, "shorts alone must miss the target");
        assert!(f_bare.shortfall > 0.0);
        assert!(f_bare.p_short > f_bare.p_budget);
        assert_eq!(f_bare.area_overhead, 1.0);

        // TMR widens the per-cell budget to ~sqrt(budget/3), which the
        // same purity meets comfortably.
        let mut tmr = bare.clone();
        tmr.name = "tmr".into();
        tmr.redundancy = RedundancyScheme::Tmr;
        let r_tmr = p.evaluate(&tmr, 1).unwrap();
        let f_tmr = r_tmr.fault.as_ref().unwrap();
        assert!(f_tmr.met_target, "TMR must recover the target");
        assert!(f_tmr.recovered_yield >= tmr.yield_target - 1e-4);
        assert_eq!(f_tmr.area_overhead, 3.0);
        assert!(
            f_tmr.p_budget > f_bare.p_budget * 100.0,
            "TMR budget {} vs bare {}",
            f_tmr.p_budget,
            f_bare.p_budget
        );
        // The relaxed budget also shrinks the solved width.
        assert!(r_tmr.w_min_nm < r_bare.w_min_nm);
    }

    #[test]
    fn sweep_workers_split_the_mc_threads() {
        assert_eq!(sweep_mc_workers(1), mc_workers());
        assert_eq!(sweep_mc_workers(0), mc_workers());
        assert_eq!(sweep_mc_workers(mc_workers()), 1);
        assert_eq!(sweep_mc_workers(64), 1);
    }

    #[test]
    fn zero_cell_budget_fails_like_the_fault_free_solve() {
        use cnt_stats::DistSpec;

        // At this target and size the per-cell budget underflows to 0.
        let p = Pipeline::new();
        let mut plain = fast_spec("plain");
        plain.yield_target = 0.999_999_999_9;
        plain.m_transistors = 1e9;
        let mut shorts = plain.clone();
        shorts.purity.dist = DistSpec::Fixed(0.999_999);
        let plain_err = p.evaluate(&plain, 1).unwrap_err();
        let shorts_err = p.evaluate(&shorts, 1).unwrap_err();
        assert!(
            plain_err.to_string().contains("`target` = 0"),
            "{plain_err}"
        );
        assert_eq!(shorts_err.to_string(), plain_err.to_string());
    }

    #[test]
    fn feasible_shorts_consume_budget_and_widen_wmin() {
        use cnt_stats::DistSpec;

        let p = Pipeline::new();
        let plain = p.evaluate(&fast_spec("plain"), 1).unwrap();
        let mut pure = fast_spec("pure");
        pure.purity.dist = DistSpec::Fixed(1.0 - 1e-11);
        let r = p.evaluate(&pure, 1).unwrap();
        let f = r.fault.as_ref().unwrap();
        assert!(f.met_target, "1e-11 impurity fits the budget");
        assert!(f.p_short > 0.0 && f.p_short < f.p_budget);
        // Shorts eat part of the open-failure budget, so the width solve
        // has to work a little harder than the fault-free one.
        assert!(r.w_min_nm >= plain.w_min_nm);
        // Same seed, same bytes.
        let again = p.evaluate(&pure, 1).unwrap();
        assert_eq!(r, again);
    }

    #[test]
    fn removal_mode_purity_overrides_the_corner_metallic_fraction() {
        use crate::spec::PuritySpec;
        use cnfet_fault::PurityMode;
        use cnt_stats::DistSpec;

        let p = Pipeline::new();
        let removal = |name: &str, purity: f64| {
            let mut spec = fast_spec(name);
            spec.purity = PuritySpec {
                dist: DistSpec::Fixed(purity),
                mode: PurityMode::Removal,
            };
            spec
        };
        let worse = p.evaluate(&removal("worse", 0.60), 1).unwrap();
        let better = p.evaluate(&removal("better", 0.90), 1).unwrap();
        // Removal mode thins the metallic count instead of shorting, so
        // there is no short term, and cleaner growth needs less upsizing.
        assert_eq!(worse.fault.as_ref().unwrap().p_short, 0.0);
        assert_eq!(better.fault.as_ref().unwrap().p_short, 0.0);
        assert!(better.w_min_nm < worse.w_min_nm);
        // Purity 0.67 reproduces the paper corner's pm = 33 % width (up
        // to the rounding of 1 − 0.67 in the effective corner).
        let plain = p.evaluate(&fast_spec("plain"), 1).unwrap();
        let mimic = p.evaluate(&removal("mimic", 0.67), 1).unwrap();
        assert!(
            ((mimic.w_min_nm - plain.w_min_nm) / plain.w_min_nm).abs() < 1e-6,
            "mimic {} vs plain {}",
            mimic.w_min_nm,
            plain.w_min_nm
        );
    }
}
