//! The typed scenario builder — one validation path for every client.
//!
//! Historically each entry point mutated [`ScenarioSpec`] through the
//! string-keyed `apply(key, value)` primitive, so the JSON grid parser,
//! the CLI `--backend` override, and programmatic callers each had their
//! own way of producing an invalid spec. [`ScenarioBuilder`] inverts that:
//! typed setters are the primitive, the JSON field path
//! ([`ScenarioBuilder::set_json`]) is one client of them, and
//! [`ScenarioBuilder::build`] is the single place a spec is validated.
//!
//! Unknown field names fail with [`PipelineError::UnknownKey`], which
//! carries the nearest valid key by edit distance — `"yeild_target"`
//! suggests `yield_target` — so the error is machine-actionable all the
//! way up through the service envelope layer.

use crate::json::{unknown_key, Json, Obj, Owner, Tagged};
use crate::spec::{
    redundancy_from_json, BackendSpec, CornerSpec, CorrelationSpec, LibrarySpec, MminSpec,
    PuritySpec, RhoSpec, ScenarioSpec,
};
use crate::{PipelineError, Result};
use cnfet_fault::RedundancyScheme;
use cnfet_layout::GridPolicy;

/// Every field name [`ScenarioBuilder::set_json`] accepts, in the order
/// they appear in serialized specs. The service's `Describe` response
/// exposes this list so wire clients can introspect the schema.
pub const SCENARIO_KEYS: [&str; 17] = [
    "name",
    "corner",
    "correlation",
    "library",
    "node_nm",
    "yield_target",
    "backend",
    "m_transistors",
    "m_min",
    "rho",
    "density",
    "l_cnt_um",
    "purity",
    "redundancy",
    "grid",
    "fast_design",
    "mc_trials",
];

/// A typed, validating builder over [`ScenarioSpec`].
///
/// Setters are infallible (they only store typed values); all domain
/// validation happens once, in [`ScenarioBuilder::build`]. The JSON field
/// path ([`ScenarioBuilder::set_json`]) parses each value into the typed
/// setter it names, so grid files, service envelopes, and the CLI share
/// exactly one decoding path.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl Default for ScenarioBuilder {
    /// Starts from [`ScenarioSpec::baseline`] named `"scenario"`.
    fn default() -> Self {
        Self::new("scenario")
    }
}

impl ScenarioBuilder {
    /// Start from the paper's baseline configuration.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            spec: ScenarioSpec::baseline(name),
        }
    }

    /// Start from an existing spec (e.g. to derive a variant).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        Self { spec }
    }

    /// Scenario name (also names the result artifact).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Processing corner.
    pub fn corner(mut self, corner: CornerSpec) -> Self {
        self.spec.corner = corner;
        self
    }

    /// Growth/layout correlation scenario.
    pub fn correlation(mut self, correlation: CorrelationSpec) -> Self {
        self.spec.correlation = correlation;
        self
    }

    /// Cell library; also resets the node to the library's native node
    /// (override with [`ScenarioBuilder::node_nm`] afterwards).
    pub fn library(mut self, library: LibrarySpec) -> Self {
        self.spec.library = library;
        self.spec.node_nm = library.node_nm();
        self
    }

    /// Technology node to scale the design to (nm).
    pub fn node_nm(mut self, node_nm: f64) -> Self {
        self.spec.node_nm = node_nm;
        self
    }

    /// Chip yield target in `(0, 1)`.
    pub fn yield_target(mut self, yield_target: f64) -> Self {
        self.spec.yield_target = yield_target;
        self
    }

    /// Numerical count back-end.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.spec.backend = backend;
        self
    }

    /// Chip transistor count `M`.
    pub fn m_transistors(mut self, m: f64) -> Self {
        self.spec.m_transistors = m;
        self
    }

    /// `M_min` treatment.
    pub fn m_min(mut self, m_min: MminSpec) -> Self {
        self.spec.m_min = m_min;
        self
    }

    /// Critical-FET density source.
    pub fn rho(mut self, rho: RhoSpec) -> Self {
        self.spec.rho = rho;
        self
    }

    /// Critical-FET density multiplier (a distribution for stochastic
    /// scenarios; [`cnt_stats::DistSpec::Fixed`] for the scalar form).
    pub fn density(mut self, density: cnt_stats::DistSpec) -> Self {
        self.spec.density = density;
        self
    }

    /// CNT correlation length `L_CNT` (µm) — the scalar (fixed) form.
    pub fn l_cnt_um(mut self, l_cnt_um: f64) -> Self {
        self.spec.l_cnt_um = cnt_stats::DistSpec::Fixed(l_cnt_um);
        self
    }

    /// CNT correlation length `L_CNT` (µm) as a distribution.
    pub fn l_cnt_um_dist(mut self, l_cnt_um: cnt_stats::DistSpec) -> Self {
        self.spec.l_cnt_um = l_cnt_um;
        self
    }

    /// s-CNT purity spec (semiconducting fraction + defect mode).
    pub fn purity(mut self, purity: PuritySpec) -> Self {
        self.spec.purity = purity;
        self
    }

    /// Architectural redundancy scheme.
    pub fn redundancy(mut self, redundancy: RedundancyScheme) -> Self {
        self.spec.redundancy = redundancy;
        self
    }

    /// Aligned-active grid policy.
    pub fn grid(mut self, grid: GridPolicy) -> Self {
        self.spec.grid = grid;
        self
    }

    /// Use the reduced OpenRISC-class design.
    pub fn fast_design(mut self, fast: bool) -> Self {
        self.spec.fast_design = fast;
        self
    }

    /// Conditional-MC trials for the non-aligned row cross-check.
    pub fn mc_trials(mut self, trials: u32) -> Self {
        self.spec.mc_trials = trials;
        self
    }

    /// Apply one named field from a JSON value — the merge primitive the
    /// grid parser (defaults / axes / explicit scenarios) and the service
    /// envelope layer are built on.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] (with a nearest-key suggestion) for
    /// unknown field names, [`PipelineError::InvalidSpec`] for wrong
    /// types.
    pub fn set_json(self, key: &str, value: &Json) -> Result<Self> {
        // Each scenario key owns its value: errors name the key itself.
        const SCENARIO: Owner = Owner::Doc("scenario");
        let invalid = |field: &'static str, msg: &str| PipelineError::InvalidSpec {
            field,
            msg: msg.into(),
        };
        Ok(match key {
            "name" => self.name(SCENARIO.str("name", value)?),
            "corner" => self.corner(CornerSpec::from_json(value)?),
            "correlation" => self.correlation(CorrelationSpec::from_json(value)?),
            "library" => self.library(LibrarySpec::from_json(value)?),
            "node_nm" => self.node_nm(SCENARIO.num("node_nm", value)?),
            "yield_target" => self.yield_target(SCENARIO.num("yield_target", value)?),
            "backend" => self.backend(BackendSpec::from_json(value)?),
            "m_transistors" => self.m_transistors(SCENARIO.num("m_transistors", value)?),
            "m_min" => match value {
                Json::Str(s) if s == "self-consistent" => self.m_min(MminSpec::SelfConsistent),
                Json::Num(_) | Json::Obj(_) => self.m_min(MminSpec::Fraction(
                    crate::knob::dist_from_json("m_min", value)?,
                )),
                _ => {
                    return Err(invalid(
                        "m_min",
                        "must be a fraction, a distribution object, or \"self-consistent\"",
                    ))
                }
            },
            "rho" => match value.as_str() {
                Some("paper") => self.rho(RhoSpec::Paper),
                Some("measured") => self.rho(RhoSpec::Measured),
                _ => return Err(invalid("rho", "must be \"paper\" or \"measured\"")),
            },
            "density" => self.density(crate::knob::dist_from_json("density", value)?),
            "l_cnt_um" => self.l_cnt_um_dist(crate::knob::dist_from_json("l_cnt_um", value)?),
            "purity" => self.purity(PuritySpec::from_json(value)?),
            "redundancy" => self.redundancy(redundancy_from_json(value)?),
            "grid" => match value.as_str() {
                Some("single") => self.grid(GridPolicy::Single),
                Some("dual") => self.grid(GridPolicy::Dual),
                _ => return Err(invalid("grid", "must be \"single\" or \"dual\"")),
            },
            "fast_design" => self.fast_design(SCENARIO.bool("fast_design", value)?),
            "mc_trials" => {
                let trials = SCENARIO.int("mc_trials", value, 0, u32::MAX.into())?;
                self.mc_trials(trials as u32)
            }
            other => return Err(unknown_key("scenario", other, &SCENARIO_KEYS)),
        })
    }

    /// Merge every field of a JSON object through [`Self::set_json`] — the
    /// one path for a scenario object, a grid's `defaults` and `scenarios`
    /// entries, and the `base` of a co_opt or wafer document. `field` names
    /// the object when it is not one.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] naming `field` for a non-object, else
    /// as [`Self::set_json`].
    pub fn merge_json(mut self, v: &Json, field: &'static str) -> Result<Self> {
        let fields = v.as_object().ok_or_else(|| PipelineError::InvalidSpec {
            field,
            msg: "must be an object".into(),
        })?;
        for (key, value) in fields {
            self = self.set_json(key, value)?;
        }
        Ok(self)
    }

    /// Peek at the spec as configured so far (not yet validated).
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Validate and return the finished spec.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] naming the offending field.
    pub fn build(self) -> Result<ScenarioSpec> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// Return the spec **without** validating — for merge pipelines (grid
    /// defaults, axis products) that validate each finished scenario once
    /// after all fields are applied.
    pub fn build_unchecked(self) -> ScenarioSpec {
        self.spec
    }
}

/// Top-level keys of a co-optimization spec document.
pub const COOPT_KEYS: [&str; 5] = ["name", "base", "search", "objective", "searcher"];

/// Names of the search strategies the `cnfet-opt` engine ships.
pub const SEARCHER_KINDS: [&str; 4] = ["grid", "coordinate-descent", "genetic", "halving"];

/// One axis of the co-optimization search space: a scenario field and the
/// ordered candidate values it may take.
///
/// **Order is semantic**: list values from least to most *process-demanding*
/// (e.g. correlation lengths ascending, metallic fractions descending).
/// The engine derives each candidate's process-demand index from its
/// normalized position along every axis, and the Pareto front trades that
/// demand against the circuit-side cost functional.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchAxis {
    /// The scenario field this axis varies (any [`SCENARIO_KEYS`] entry
    /// except `name`).
    pub key: String,
    /// The ordered candidate values (each a JSON value the field's
    /// [`ScenarioBuilder::set_json`] arm accepts).
    pub values: Vec<Json>,
}

/// Which search strategy evaluates the space (the engine lives in the
/// `cnfet-opt` crate; this is the declarative selection).
#[derive(Debug, Clone, PartialEq)]
pub enum SearcherSpec {
    /// Exhaustive batched scan of the full cartesian product — every
    /// candidate is evaluated, so the Pareto front is exact.
    GridScan,
    /// Seeded coordinate descent with restarts: from each start point,
    /// sweep the axes in order, batch-evaluating every value of one axis
    /// with the others held fixed, and move to the cheapest; repeat until
    /// a full sweep makes no move. Evaluates a fraction of the space; the
    /// Pareto front covers only visited candidates.
    CoordinateDescent {
        /// Independent seeded start points (the first restart always
        /// starts at the base configuration, index 0 on every axis).
        restarts: u32,
        /// Hard cap on coordinate sweeps per restart.
        max_sweeps: u32,
    },
    /// Population-based genetic search: seeded initial population,
    /// tournament selection, uniform crossover, per-axis mutation, and
    /// elitism. Every decision derives from `split_seed` per
    /// generation/individual, so the walk is a pure function of
    /// `(spec, seed)`.
    Genetic {
        /// Individuals per generation (the first individual of the first
        /// generation is always the base configuration).
        population: u32,
        /// Generations evolved after the initial population; 0 degrades
        /// to a plain scan of the seeded initial population.
        generations: u32,
        /// Tournament size of the selection operator.
        tournament_k: u32,
        /// Per-axis mutation probability in `[0, 1]`.
        mutation_rate: f64,
    },
    /// Successive-halving precision ladder wrapped around an inner
    /// strategy: the inner searcher runs at coarse Monte-Carlo precision
    /// (`rel_ci` relaxed by `eta` per rung), and only the top `1/eta`
    /// fraction of each rung's candidates is promoted to the next,
    /// tighter rung — cheap low-CI evaluations prune the population
    /// before expensive high-CI confirmation. On analytic back-ends the
    /// precision override is a no-op (memoized re-ranks, no extra cost).
    Halving {
        /// The strategy that explores the space at the coarsest rung
        /// (must not itself be `halving`).
        inner: Box<SearcherSpec>,
        /// Precision rungs, coarsest to exact (≥ 1; the last rung always
        /// evaluates at the spec's own backend precision).
        rungs: u32,
        /// Promotion divisor per rung (≥ 2): the top `1/eta` fraction of
        /// a rung's candidates survives to the next rung, and `rel_ci`
        /// relaxes by `eta^(rungs-1-r)` at rung `r`.
        eta: u32,
    },
}

/// The coordinate-descent defaults: 3 restarts, at most 8 sweeps each.
pub fn coordinate_descent_defaults() -> SearcherSpec {
    SearcherSpec::CoordinateDescent {
        restarts: 3,
        max_sweeps: 8,
    }
}

/// The genetic-searcher defaults: a population of 24 evolved for 8
/// generations, tournaments of 3, one mutated axis in four.
pub fn genetic_defaults() -> SearcherSpec {
    SearcherSpec::Genetic {
        population: 24,
        generations: 8,
        tournament_k: 3,
        mutation_rate: 0.25,
    }
}

/// The halving-ladder defaults: 3 rungs at `eta = 2` around a
/// default-configured genetic searcher.
pub fn halving_defaults() -> SearcherSpec {
    SearcherSpec::Halving {
        inner: Box::new(genetic_defaults()),
        rungs: 3,
        eta: 2,
    }
}

impl SearcherSpec {
    /// The canonical strategy names — what `describe` advertises and the
    /// parser suggests against (same list as [`SEARCHER_KINDS`]).
    pub const KINDS: [&'static str; 4] = SEARCHER_KINDS;

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            SearcherSpec::GridScan => "grid",
            SearcherSpec::CoordinateDescent { .. } => "coordinate-descent",
            SearcherSpec::Genetic { .. } => "genetic",
            SearcherSpec::Halving { .. } => "halving",
        }
    }

    /// The composed display name a report carries for this strategy:
    /// the kind keyword itself, except a halving ladder names its inner
    /// strategy too (`"halving+genetic"`), matching the `searcher`
    /// field the engine writes.
    pub fn composed_name(&self) -> &'static str {
        match self {
            SearcherSpec::Halving { inner, .. } => match inner.name() {
                "genetic" => "halving+genetic",
                "grid" => "halving+grid",
                "coordinate-descent" => "halving+coordinate-descent",
                _ => "halving",
            },
            other => other.name(),
        }
    }

    /// Parse a bare name (`"grid"`, `"genetic"`, …), an object with a
    /// `kind` plus strategy parameters (`{"kind": "genetic", "population":
    /// 32}`), or the nested single-key form (`{"genetic": {"population":
    /// 32}}`, `{"halving": {"inner": "genetic", "eta": 3}}`); omitted
    /// parameters take the strategy's defaults.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] (with a nearest-kind suggestion) on
    /// unknown strategy or parameter names,
    /// [`PipelineError::InvalidSpec`] on mistyped or out-of-domain
    /// parameters — all at parse time, never mid-search.
    pub fn from_json(v: &Json) -> Result<Self> {
        let (kind, p) = SEARCHER_WIRE.read("searcher", v)?;
        let int =
            |key, lo| -> Result<Option<u32>> { Ok(p.int(key, lo, 1_000_000)?.map(|n| n as u32)) };
        let defaults = match kind {
            "grid" => SearcherSpec::GridScan,
            "coordinate-descent" => coordinate_descent_defaults(),
            "genetic" => genetic_defaults(),
            _ => halving_defaults(),
        };
        Ok(match defaults {
            SearcherSpec::GridScan => SearcherSpec::GridScan,
            SearcherSpec::CoordinateDescent {
                restarts,
                max_sweeps,
            } => SearcherSpec::CoordinateDescent {
                restarts: int("restarts", 1)?.unwrap_or(restarts),
                max_sweeps: int("max_sweeps", 1)?.unwrap_or(max_sweeps),
            },
            SearcherSpec::Genetic {
                population,
                generations,
                tournament_k,
                mutation_rate,
            } => {
                let population = int("population", 2)?.unwrap_or(population);
                let tournament_k = int("tournament_k", 1)?.unwrap_or(tournament_k);
                if tournament_k > population {
                    return Err(p.error(
                        "tournament_k",
                        format!(
                            "`tournament_k` ({tournament_k}) must not exceed \
                             `population` ({population})"
                        ),
                    ));
                }
                let mutation_rate = p.num("mutation_rate")?.unwrap_or(mutation_rate);
                if !(0.0..=1.0).contains(&mutation_rate) {
                    return Err(p.error(
                        "mutation_rate",
                        "`mutation_rate` must be a number in [0, 1]",
                    ));
                }
                SearcherSpec::Genetic {
                    population,
                    generations: int("generations", 0)?.unwrap_or(generations),
                    tournament_k,
                    mutation_rate,
                }
            }
            SearcherSpec::Halving { inner, rungs, eta } => {
                let inner = match p.get("inner") {
                    None => inner,
                    Some(j) => Box::new(Self::from_json(j)?),
                };
                if matches!(*inner, SearcherSpec::Halving { .. }) {
                    return Err(p.error("inner", "`halving` cannot nest another `halving` ladder"));
                }
                // The regression contract: eta < 2 and rungs == 0 are
                // parse-time errors, never a mid-search panic.
                SearcherSpec::Halving {
                    inner,
                    rungs: int("rungs", 1)?.unwrap_or(rungs),
                    eta: p.int("eta", 2, 64)?.map_or(eta, |e| e as u32),
                }
            }
        })
    }

    /// Serialize to the wire form (normal `kind` object for parameterized
    /// strategies, bare string otherwise).
    pub fn to_json(&self) -> Json {
        let num = |n: u32| Json::Num(f64::from(n));
        let params = match self {
            SearcherSpec::GridScan => vec![],
            SearcherSpec::CoordinateDescent {
                restarts,
                max_sweeps,
            } => vec![
                ("restarts", num(*restarts)),
                ("max_sweeps", num(*max_sweeps)),
            ],
            SearcherSpec::Genetic {
                population,
                generations,
                tournament_k,
                mutation_rate,
            } => vec![
                ("population", num(*population)),
                ("generations", num(*generations)),
                ("tournament_k", num(*tournament_k)),
                ("mutation_rate", Json::Num(*mutation_rate)),
            ],
            SearcherSpec::Halving { inner, rungs, eta } => vec![
                ("inner", inner.to_json()),
                ("rungs", num(*rungs)),
                ("eta", num(*eta)),
            ],
        };
        SEARCHER_WIRE.write(self.name(), params)
    }
}

/// The wire table of [`SearcherSpec`]: its kinds and their parameters.
const SEARCHER_WIRE: Tagged = Tagged {
    kinds: &SEARCHER_KINDS,
    params: &[
        &[],
        &["restarts", "max_sweeps"],
        &["population", "generations", "tournament_k", "mutation_rate"],
        &["inner", "rungs", "eta"],
    ],
};

/// A declarative process–design co-optimization problem: a base scenario,
/// the search axes varied over it, the scalarized objective, and the
/// search strategy. Parsed from spec files (`repro coopt <spec.json>`) and
/// carried by the `co_opt` service envelope; executed by the `cnfet-opt`
/// engine.
///
/// The JSON document form:
///
/// ```text
/// {
///   "name": "corr-vs-width",
///   // scenario fields merged over ScenarioSpec::baseline
///   "base": { "fast_design": true, "correlation": "growth+aligned-layout" },
///   // ordered candidate values per scenario field; least → most demanding.
///   // Numeric fields also accept {"min", "max", "steps"} ranges.
///   "search": {
///     "l_cnt_um": { "min": 50, "max": 400, "steps": 4 },
///     "grid": ["single", "dual"]
///   },
///   "objective": { "w_min_weight": 1, "area_weight": 1 },   // all optional
///   "searcher": "grid"            // or {"kind": "coordinate-descent", …}
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CoOptSpec {
    /// Study name (also names the Pareto artifact).
    pub name: String,
    /// The scenario every candidate starts from.
    pub base: ScenarioSpec,
    /// The search axes, in file order (earlier axes vary slowest in the
    /// canonical candidate enumeration).
    pub axes: Vec<SearchAxis>,
    /// Weights of the scalarized circuit-cost objective.
    pub objective: cnfet_core::objective::CostWeights,
    /// The strategy that walks the space.
    pub searcher: SearcherSpec,
}

fn invalid_coopt(field: &'static str, msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field,
        msg: msg.into(),
    }
}

/// Parse the `objective` object onto [`cnfet_core::objective::CostWeights`]
/// (every field optional, defaults from `CostWeights::default`).
fn cost_weights_from_json(v: &Json) -> Result<cnfet_core::objective::CostWeights> {
    let o = Obj::new(
        v,
        Owner::Field("objective"),
        &[
            "w_min_weight",
            "area_weight",
            "margin_weight",
            "shortfall_weight",
            "w_ref_nm",
        ],
    )?;
    let d = cnfet_core::objective::CostWeights::default();
    Ok(cnfet_core::objective::CostWeights {
        w_min_weight: o.num("w_min_weight")?.unwrap_or(d.w_min_weight),
        area_weight: o.num("area_weight")?.unwrap_or(d.area_weight),
        margin_weight: o.num("margin_weight")?.unwrap_or(d.margin_weight),
        shortfall_weight: o.num("shortfall_weight")?.unwrap_or(d.shortfall_weight),
        w_ref_nm: o.num("w_ref_nm")?.unwrap_or(d.w_ref_nm),
    })
}

fn cost_weights_to_json(w: &cnfet_core::objective::CostWeights) -> Json {
    Json::Obj(vec![
        ("w_min_weight".into(), Json::Num(w.w_min_weight)),
        ("area_weight".into(), Json::Num(w.area_weight)),
        ("margin_weight".into(), Json::Num(w.margin_weight)),
        ("shortfall_weight".into(), Json::Num(w.shortfall_weight)),
        ("w_ref_nm".into(), Json::Num(w.w_ref_nm)),
    ])
}

impl SearchAxis {
    /// Expand one `search` entry: an explicit non-empty array of values,
    /// or — for numeric fields — a `{"min", "max", "steps"}` range that
    /// expands to `steps` evenly spaced values, ascending.
    fn from_json(key: &str, v: &Json) -> Result<Self> {
        let axis_keys: Vec<&'static str> = SCENARIO_KEYS
            .iter()
            .copied()
            .filter(|k| *k != "name")
            .collect();
        if !axis_keys.contains(&key) {
            return Err(unknown_key("search axis", key, &axis_keys));
        }
        let values: Vec<Json> = match v {
            Json::Arr(values) if !values.is_empty() => values.clone(),
            Json::Arr(_) => {
                return Err(invalid_coopt(
                    "search",
                    format!("axis `{key}` must list at least one value"),
                ))
            }
            Json::Obj(_) => {
                let range = Obj::new(v, Owner::Field("search"), &["min", "max", "steps"])?;
                let (min, max) = (range.req("min", Obj::num)?, range.req("max", Obj::num)?);
                let steps = range.req("steps", |r, k| r.int(k, 2, 10_000))?;
                if !(min.is_finite() && max.is_finite() && min < max) {
                    return Err(invalid_coopt(
                        "search",
                        format!("range for `{key}` needs finite min < max"),
                    ));
                }
                let n = steps as usize;
                (0..n)
                    .map(|i| Json::Num(min + (max - min) * i as f64 / (n - 1) as f64))
                    .collect()
            }
            _ => {
                return Err(invalid_coopt(
                    "search",
                    format!("axis `{key}` must be a value array or a min/max/steps range"),
                ))
            }
        };
        Ok(Self {
            key: key.to_string(),
            values,
        })
    }
}

impl CoOptSpec {
    /// Parse a co-optimization document.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] for malformed JSON, otherwise as
    /// [`CoOptSpec::from_json`].
    pub fn parse(src: &str) -> Result<Self> {
        Self::from_json(&Json::parse(src)?)
    }

    /// Build from a parsed document (the form the `co_opt` envelope
    /// carries). Every axis value is trial-applied to the base scenario at
    /// parse time, so a typo'd value fails here with the shared builder
    /// diagnostics instead of mid-search.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] / [`PipelineError::InvalidSpec`] for
    /// unknown sections, unknown fields, or out-of-domain values.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let doc = Obj::new(doc, Owner::Doc("co_opt"), &COOPT_KEYS)?;
        let name = doc.str("name")?.unwrap_or("coopt").to_string();
        let mut builder = ScenarioBuilder::new(name.clone());
        if let Some(base) = doc.get("base") {
            builder = builder.merge_json(base, "base")?;
        }
        let base = builder.name(name.clone()).build()?;

        let entries = doc
            .need("search")?
            .as_object()
            .ok_or_else(|| invalid_coopt("search", "must be an object"))?;
        if entries.is_empty() {
            return Err(invalid_coopt("search", "needs at least one axis"));
        }
        let mut axes = Vec::with_capacity(entries.len());
        for (key, value) in entries {
            let axis = SearchAxis::from_json(key, value)?;
            // Trial-apply AND validate each candidate value over the base,
            // so type and domain errors fail at parse time with the
            // field's own diagnostics instead of mid-search.
            for v in &axis.values {
                ScenarioBuilder::from_spec(base.clone())
                    .set_json(key, v)?
                    .build()?;
            }
            axes.push(axis);
        }

        let objective = match doc.get("objective") {
            None => cnfet_core::objective::CostWeights::default(),
            Some(v) => cost_weights_from_json(v)?,
        };
        objective
            .validate()
            .map_err(|e| invalid_coopt("objective", e.to_string()))?;

        let searcher = match doc.get("searcher") {
            None => SearcherSpec::GridScan,
            Some(v) => SearcherSpec::from_json(v)?,
        };

        let spec = Self {
            name,
            base,
            axes,
            objective,
            searcher,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize the full (explicit) spec; ranges are written as the value
    /// lists they expanded to, so the normal form round-trips exactly.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("base".into(), self.base.to_json()),
            (
                "search".into(),
                Json::Obj(
                    self.axes
                        .iter()
                        .map(|a| (a.key.clone(), Json::Arr(a.values.clone())))
                        .collect(),
                ),
            ),
            ("objective".into(), cost_weights_to_json(&self.objective)),
            ("searcher".into(), self.searcher.to_json()),
        ])
    }

    /// Check the spec is executable: a valid base, at least one axis, a
    /// bounded candidate count, valid weights.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] naming the offending section.
    pub fn validate(&self) -> Result<()> {
        self.base.validate()?;
        self.objective
            .validate()
            .map_err(|e| invalid_coopt("objective", e.to_string()))?;
        if self.axes.is_empty() {
            return Err(invalid_coopt("search", "needs at least one axis"));
        }
        let mut keys: Vec<&str> = self.axes.iter().map(|a| a.key.as_str()).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|p| p[0] == p[1]) {
            return Err(invalid_coopt("search", "axis keys must be unique"));
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(invalid_coopt(
                    "search",
                    format!("axis `{}` must list at least one value", axis.key),
                ));
            }
        }
        const MAX_CANDIDATES: u64 = 1_000_000;
        if self.candidate_count() > MAX_CANDIDATES {
            return Err(invalid_coopt(
                "search",
                format!("search space exceeds {MAX_CANDIDATES} candidates"),
            ));
        }
        Ok(())
    }

    /// Size of the full search space (product of axis lengths).
    pub fn candidate_count(&self) -> u64 {
        self.axes
            .iter()
            .map(|a| a.values.len() as u64)
            .try_fold(1u64, u64::checked_mul)
            .unwrap_or(u64::MAX)
    }

    /// Build the candidate scenario for one choice vector (`choice[i]`
    /// indexes `axes[i].values`). The scenario is named
    /// `<name>/<key>=<value>/…`, so candidate artifacts are
    /// self-describing.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] for an out-of-range choice vector or
    /// a candidate whose merged fields fail validation.
    pub fn scenario(&self, choice: &[usize]) -> Result<ScenarioSpec> {
        if choice.len() != self.axes.len() {
            return Err(invalid_coopt(
                "search",
                format!(
                    "choice vector has {} entries for {} axes",
                    choice.len(),
                    self.axes.len()
                ),
            ));
        }
        let mut builder = ScenarioBuilder::from_spec(self.base.clone());
        let mut parts = vec![self.name.clone()];
        for (axis, &i) in self.axes.iter().zip(choice) {
            let value = axis.values.get(i).ok_or_else(|| {
                invalid_coopt(
                    "search",
                    format!("choice {i} out of range for axis `{}`", axis.key),
                )
            })?;
            builder = builder.set_json(&axis.key, value)?;
            parts.push(format!("{}={}", axis.key, crate::spec::axis_label(value)));
        }
        builder.name(parts.join("/")).build()
    }

    /// The normalized process-demand index of a choice vector: the mean,
    /// over axes with more than one value, of the choice's fractional
    /// position along its (least → most demanding) axis order. 0 selects
    /// the least demanding value everywhere, 1 the most demanding.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] for an out-of-range choice vector.
    pub fn demand(&self, choice: &[usize]) -> Result<f64> {
        if choice.len() != self.axes.len()
            || self
                .axes
                .iter()
                .zip(choice)
                .any(|(a, &i)| i >= a.values.len())
        {
            return Err(invalid_coopt("search", "choice vector out of range"));
        }
        let mut sum = 0.0;
        let mut n = 0u32;
        for (axis, &i) in self.axes.iter().zip(choice) {
            if axis.values.len() > 1 {
                sum += i as f64 / (axis.values.len() - 1) as f64;
                n += 1;
            }
        }
        Ok(if n == 0 { 0.0 } else { sum / f64::from(n) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_setters_build_a_valid_spec() {
        let spec = ScenarioBuilder::new("typed")
            .corner(CornerSpec::IdealRemoval)
            .correlation(CorrelationSpec::GrowthAlignedLayout)
            .library(LibrarySpec::Commercial65)
            .node_nm(32.0)
            .yield_target(0.95)
            .backend(BackendSpec::GaussianSum)
            .m_min(MminSpec::SelfConsistent)
            .rho(RhoSpec::Paper)
            .grid(GridPolicy::Dual)
            .fast_design(true)
            .build()
            .unwrap();
        assert_eq!(spec.name, "typed");
        assert_eq!(spec.corner, CornerSpec::IdealRemoval);
        assert_eq!(spec.library, LibrarySpec::Commercial65);
        assert_eq!(spec.node_nm, 32.0, "node override survives library()");
        assert_eq!(spec.grid, GridPolicy::Dual);
    }

    #[test]
    fn library_resets_node_unless_overridden_after() {
        let spec = ScenarioBuilder::new("n")
            .node_nm(22.0)
            .library(LibrarySpec::Commercial65)
            .build()
            .unwrap();
        assert_eq!(spec.node_nm, 65.0, "library() resets the node");
    }

    #[test]
    fn build_validates() {
        assert!(ScenarioBuilder::new("bad")
            .yield_target(1.5)
            .build()
            .is_err());
        assert!(ScenarioBuilder::new("bad").node_nm(-1.0).build().is_err());
    }

    #[test]
    fn json_path_matches_typed_path() {
        let typed = ScenarioBuilder::new("x")
            .library(LibrarySpec::Commercial65)
            .yield_target(0.95)
            .build()
            .unwrap();
        let json = ScenarioBuilder::new("x")
            .set_json("library", &Json::Str("commercial65".into()))
            .unwrap()
            .set_json("yield_target", &Json::Num(0.95))
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(typed, json);
    }

    #[test]
    fn unknown_keys_get_a_suggestion() {
        let err = ScenarioBuilder::new("t")
            .set_json("yeild_target", &Json::Num(0.9))
            .unwrap_err();
        match err {
            PipelineError::UnknownKey {
                key, suggestion, ..
            } => {
                assert_eq!(key, "yeild_target");
                assert_eq!(suggestion.as_deref(), Some("yield_target"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // Display names the suggestion too, for CLI users.
        let err = ScenarioBuilder::new("t")
            .set_json("corelation", &Json::Str("none".into()))
            .unwrap_err();
        assert!(
            err.to_string().contains("did you mean `correlation`"),
            "message: {err}"
        );
    }

    #[test]
    fn hopeless_keys_get_no_suggestion() {
        let err = ScenarioBuilder::new("t")
            .set_json("zzzzzzzzzz", &Json::Num(1.0))
            .unwrap_err();
        match err {
            PipelineError::UnknownKey { suggestion, .. } => assert_eq!(suggestion, None),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }
}
