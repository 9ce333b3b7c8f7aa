//! Declarative scenario specifications and scenario grids.
//!
//! A [`ScenarioSpec`] names one complete yield computation: a processing
//! corner × a correlation scenario × a technology node × a cell library ×
//! a yield target × a numerical count back-end (plus the knobs the paper's
//! experiments vary: grid policy, `M_min` treatment, critical-FET density
//! source). Specs serialize to the JSON-lite format of [`crate::json`], so
//! whole grids live in version-controlled files and sweep results come
//! back as structured artifacts.
//!
//! A [`ScenarioGrid`] file has three (all optional, at least one required)
//! top-level sections:
//!
//! ```text
//! {
//!   // fields merged into every scenario
//!   "defaults": { "library": "nangate45", "yield_target": 0.9 },
//!   // cartesian product axes: every combination becomes one scenario
//!   "axes": { "node_nm": [45, 32], "correlation": ["none", "growth+aligned-layout"] },
//!   // and/or explicitly listed scenarios (each merged over the defaults)
//!   "scenarios": [ { "name": "anchor", "node_nm": 45 } ]
//! }
//! ```

use crate::builder::ScenarioBuilder;
use crate::json::{Json, Obj, Owner, Tagged};
use crate::knob;
use crate::{PipelineError, Result};
use cnfet_core::corner::ProcessCorner;
use cnfet_core::paper;
use cnfet_fault::redundancy::INVERT_TERM_LIMIT;
use cnfet_fault::{PurityMode, RedundancyScheme};
use cnfet_layout::GridPolicy;
use cnfet_sim::adaptive::McPrecision;
use cnt_stats::renewal::CountModel;
use cnt_stats::seed::split_seed;
use cnt_stats::DistSpec;

fn invalid(field: &'static str, msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field,
        msg: msg.into(),
    }
}

/// The processing corner of Eq. (2.1): a paper-named corner or an explicit
/// `(pm, pRs, pRm)` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CornerSpec {
    /// `pm = 33 %, pRs = 30 %` — the paper's main corner.
    Aggressive,
    /// `pm = 33 %, pRs = 0` — perfect removal selectivity.
    IdealRemoval,
    /// `pm = 0, pRs = 0` — perfectly semiconducting growth.
    AllSemiconducting,
    /// An explicit corner.
    Custom {
        /// Metallic CNT fraction.
        pm: f64,
        /// Collateral semiconducting removal probability.
        p_rs: f64,
        /// Metallic removal probability.
        p_rm: f64,
    },
}

impl CornerSpec {
    /// Resolve to a validated [`ProcessCorner`].
    ///
    /// # Errors
    ///
    /// Propagates out-of-range probabilities for custom corners.
    pub fn corner(&self) -> Result<ProcessCorner> {
        let c = match self {
            CornerSpec::Aggressive => ProcessCorner::aggressive(),
            CornerSpec::IdealRemoval => ProcessCorner::ideal_removal(),
            CornerSpec::AllSemiconducting => ProcessCorner::all_semiconducting(),
            CornerSpec::Custom { pm, p_rs, p_rm } => ProcessCorner::new(*pm, *p_rs, *p_rm),
        };
        Ok(c?)
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Str(s) => match s.as_str() {
                "aggressive" => Ok(CornerSpec::Aggressive),
                "ideal-removal" => Ok(CornerSpec::IdealRemoval),
                "all-semiconducting" => Ok(CornerSpec::AllSemiconducting),
                other => Err(invalid(
                    "corner",
                    format!(
                        "unknown corner `{other}` (expected aggressive, ideal-removal, \
                         all-semiconducting, or an object)"
                    ),
                )),
            },
            Json::Obj(_) => {
                let c = Obj::new(v, Owner::Field("corner"), &["pm", "p_rs", "p_rm"])?;
                Ok(CornerSpec::Custom {
                    pm: c.req("pm", Obj::num)?,
                    p_rs: c.req("p_rs", Obj::num)?,
                    p_rm: c.num("p_rm")?.unwrap_or(1.0),
                })
            }
            _ => Err(invalid("corner", "must be a string or an object")),
        }
    }

    fn to_json(self) -> Json {
        match self {
            CornerSpec::Aggressive => Json::Str("aggressive".into()),
            CornerSpec::IdealRemoval => Json::Str("ideal-removal".into()),
            CornerSpec::AllSemiconducting => Json::Str("all-semiconducting".into()),
            CornerSpec::Custom { pm, p_rs, p_rm } => Json::Obj(vec![
                ("pm".into(), Json::Num(pm)),
                ("p_rs".into(), Json::Num(p_rs)),
                ("p_rm".into(), Json::Num(p_rm)),
            ]),
        }
    }

    /// Short display label.
    pub fn label(&self) -> String {
        match self.corner() {
            Ok(c) => c.label(),
            Err(_) => "invalid corner".to_string(),
        }
    }
}

/// The growth/layout correlation scenario (paper Fig 3.1 / Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrelationSpec {
    /// Uncorrelated CNT growth — every device fails independently.
    None,
    /// Directional growth on an unmodified (non-aligned) library: partial
    /// track sharing, credited with the paper's Table 1 growth factor.
    Growth,
    /// Directional growth + aligned-active layout: the full `M_Rmin`
    /// relaxation.
    GrowthAlignedLayout,
}

impl CorrelationSpec {
    /// The canonical scenario names, in benefit order.
    pub const KINDS: [&'static str; 3] = ["none", "growth", "growth+aligned-layout"];

    const NAMES: [(&'static str, CorrelationSpec); 3] = [
        ("none", CorrelationSpec::None),
        ("growth", CorrelationSpec::Growth),
        (
            "growth+aligned-layout",
            CorrelationSpec::GrowthAlignedLayout,
        ),
    ];

    pub(crate) fn from_json(v: &Json) -> Result<Self> {
        let s = v
            .as_str()
            .ok_or_else(|| invalid("correlation", "must be a string"))?;
        Self::NAMES
            .iter()
            .find(|(name, _)| *name == s)
            .map(|(_, value)| *value)
            .ok_or_else(|| {
                invalid(
                    "correlation",
                    format!("unknown scenario `{s}` (none, growth, growth+aligned-layout)"),
                )
            })
    }

    /// The canonical scenario name.
    pub fn name(&self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(_, value)| value == self)
            .map(|(name, _)| *name)
            .expect("every variant is named")
    }
}

/// Which standard-cell library (and with it, the base technology node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LibrarySpec {
    /// The Nangate-45-class library (134 cells, 45 nm).
    Nangate45,
    /// The commercial-65-class library (775 cells, 65 nm).
    Commercial65,
}

impl LibrarySpec {
    /// The canonical library names.
    pub const KINDS: [&'static str; 2] = ["nangate45", "commercial65"];

    /// Generate the library.
    pub fn build(&self) -> cnfet_celllib::CellLibrary {
        match self {
            LibrarySpec::Nangate45 => cnfet_celllib::nangate45::nangate45_like(),
            LibrarySpec::Commercial65 => cnfet_celllib::commercial65::commercial65_like(),
        }
    }

    /// The library's native technology node (nm).
    pub fn node_nm(&self) -> f64 {
        match self {
            LibrarySpec::Nangate45 => 45.0,
            LibrarySpec::Commercial65 => 65.0,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            LibrarySpec::Nangate45 => "nangate45",
            LibrarySpec::Commercial65 => "commercial65",
        }
    }

    pub(crate) fn from_json(v: &Json) -> Result<Self> {
        match v.as_str() {
            Some("nangate45") => Ok(LibrarySpec::Nangate45),
            Some("commercial65") => Ok(LibrarySpec::Commercial65),
            Some(other) => Err(invalid(
                "library",
                format!("unknown library `{other}` (nangate45, commercial65)"),
            )),
            None => Err(invalid("library", "must be a string")),
        }
    }
}

/// The numerical CNT-count back-end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// Exact discretized convolution with the given step (nm).
    Convolution {
        /// Discretization step in nanometres.
        step: f64,
    },
    /// The ~100× faster central-limit approximation.
    GaussianSum,
    /// Adaptive-precision Monte Carlo: the stratified, exponentially
    /// tilted simulation estimator, run in batches until the confidence
    /// interval of every `pF(W)` query is tighter than `rel_ci`. The
    /// independent witness that cross-validates the two analytic
    /// back-ends.
    MonteCarlo {
        /// Target relative confidence-interval half-width (e.g. 0.05).
        rel_ci: f64,
        /// Hard cap on trials per `pF(W)` evaluation.
        max_trials: u64,
        /// Trials per batch (the seeding/commit granularity).
        batch: u32,
        /// Confidence level of the reported intervals (e.g. 0.95).
        ci_level: f64,
    },
}

/// Grid-file defaults for the Monte-Carlo back-end — the single source of
/// truth is [`McPrecision::default`] (±5 % at 95 % confidence, batches of
/// 2000, at most 2 M trials per width).
pub fn mc_backend_defaults() -> BackendSpec {
    let p = McPrecision::default();
    BackendSpec::MonteCarlo {
        rel_ci: p.rel_ci,
        max_trials: p.max_trials,
        batch: p.batch,
        ci_level: p.level,
    }
}

impl BackendSpec {
    /// The canonical back-end kind names.
    pub const KINDS: [&'static str; 3] = ["convolution", "gaussian-sum", "monte-carlo"];

    /// The equivalent `cnt-stats` count model. The Monte-Carlo back-end's
    /// adaptive driver lives above the count model (see
    /// `cnfet_core::stochastic::McFailure`); here it maps to the
    /// fixed-trials [`CountModel::MonteCarlo`] flavor at one batch per
    /// evaluation, which is what auxiliary single-shot queries (e.g. the
    /// row-failure cross-check's count sampling) use.
    pub fn count_model(&self, seed: u64) -> CountModel {
        match self {
            BackendSpec::Convolution { step } => CountModel::Convolution { step: *step },
            BackendSpec::GaussianSum => CountModel::GaussianSum,
            BackendSpec::MonteCarlo { batch, .. } => CountModel::MonteCarlo {
                trials: (*batch).max(2),
                seed,
            },
        }
    }

    /// The adaptive-precision target of a Monte-Carlo back-end.
    pub fn mc_precision(&self) -> Option<McPrecision> {
        match self {
            BackendSpec::MonteCarlo {
                rel_ci,
                max_trials,
                batch,
                ci_level,
            } => Some(McPrecision {
                rel_ci: *rel_ci,
                max_trials: *max_trials,
                batch: *batch,
                level: *ci_level,
            }),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Convolution { .. } => "convolution",
            BackendSpec::GaussianSum => "gaussian-sum",
            BackendSpec::MonteCarlo { .. } => "monte-carlo",
        }
    }

    /// Parse a bare kind name, a `kind` object or the nested single-key
    /// form; omitted parameters take their defaults (step 0.05 nm,
    /// [`McPrecision::default`]).
    pub(crate) fn from_json(v: &Json) -> Result<Self> {
        let (kind, p) = BACKEND_WIRE.read("backend", v)?;
        let d = McPrecision::default();
        Ok(match kind {
            "convolution" => BackendSpec::Convolution {
                step: p.num("step")?.unwrap_or(0.05),
            },
            "gaussian-sum" => BackendSpec::GaussianSum,
            _ => BackendSpec::MonteCarlo {
                rel_ci: p.num("rel_ci")?.unwrap_or(d.rel_ci),
                max_trials: p.int("max_trials", 0, u64::MAX)?.unwrap_or(d.max_trials),
                batch: p
                    .int("batch", 0, u32::MAX.into())?
                    .map_or(d.batch, |b| b as u32),
                ci_level: p.num("ci_level")?.unwrap_or(d.level),
            },
        })
    }

    fn to_json(self) -> Json {
        let num = Json::Num;
        match self {
            BackendSpec::Convolution { step } => {
                BACKEND_WIRE.write("convolution", vec![("step", num(step))])
            }
            BackendSpec::GaussianSum => BACKEND_WIRE.write("gaussian-sum", vec![]),
            BackendSpec::MonteCarlo {
                rel_ci,
                max_trials,
                batch,
                ci_level,
            } => BACKEND_WIRE.write(
                "monte-carlo",
                vec![
                    ("rel_ci", num(rel_ci)),
                    ("max_trials", num(max_trials as f64)),
                    ("batch", num(f64::from(batch))),
                    ("ci_level", num(ci_level)),
                ],
            ),
        }
    }
}

/// The wire table of [`BackendSpec`]: its kinds and their parameters.
const BACKEND_WIRE: Tagged = Tagged {
    kinds: &BackendSpec::KINDS,
    params: &[
        &["step"],
        &[],
        &["rel_ci", "max_trials", "batch", "ci_level"],
    ],
};

/// How `M_min` (the minimum-sized-device count) is determined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MminSpec {
    /// A fraction of the chip's transistors (the paper's fixed 33 %, or a
    /// distribution over fractions for stochastic scenarios).
    Fraction(DistSpec),
    /// The self-consistent Eq. (2.5) fixed point over the design's width
    /// distribution (the scaling-study treatment).
    SelfConsistent,
}

impl MminSpec {
    /// The paper's fixed-fraction form (scalar back-compat constructor).
    pub fn fraction(f: f64) -> Self {
        MminSpec::Fraction(DistSpec::Fixed(f))
    }
}

/// Where the critical-FET row density `ρ` comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RhoSpec {
    /// The paper's 1.8 FET/µm (Sec 3.3).
    Paper,
    /// Measured from the placed OpenRISC-class design on the chosen
    /// library.
    Measured,
}

/// The s-CNT purity knob: the semiconducting fraction of the grown CNTs
/// and how the metallic remainder manifests.
///
/// Wire forms, mirroring the other parameterized specs:
///
/// * a bare number or distribution object — purity in `Short` mode (the
///   scalar back-compat form; metallic CNTs short their transistor);
/// * `{"mode": "removal", "dist": 0.9999}` — an explicit mode plus an
///   optional purity distribution (default `Fixed(1)`). In `removal` mode
///   metallic CNTs are etched away, thinning the CNT count and feeding the
///   paper's existing open-failure path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PuritySpec {
    /// Semiconducting fraction in `(0, 1]` — `Fixed(1)` is the paper's
    /// implicit perfect-purity assumption; a distribution models
    /// lot-to-lot purity spread.
    pub dist: DistSpec,
    /// How metallic CNTs manifest.
    pub mode: PurityMode,
}

impl PuritySpec {
    /// The perfect-purity no-op default (`Fixed(1)`, `Short` mode).
    pub fn perfect() -> Self {
        Self {
            dist: DistSpec::Fixed(1.0),
            mode: PurityMode::Short,
        }
    }

    /// The central purity value: the fixed value, or the distribution
    /// mean for stochastic specs (validated specs never fail here; an
    /// invalid distribution reports 1.0, i.e. inactive).
    pub fn central(&self) -> f64 {
        self.dist
            .as_fixed()
            .or_else(|| self.dist.mean().ok())
            .unwrap_or(1.0)
    }

    /// True if this knob changes any result: purity below one (in either
    /// mode) introduces metallic-CNT defects.
    pub fn is_active(&self) -> bool {
        self.dist.as_fixed() != Some(1.0)
    }

    /// Parse from the wire forms: a bare dist (number or distribution
    /// object, short mode) or a `{"mode": …, "dist": …}` object.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] / [`PipelineError::InvalidSpec`]
    /// for unknown modes, parameters, or malformed distributions.
    pub fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Obj(_) if v.get("mode").is_some() => {
                let p = Obj::new(v, Owner::Field("purity"), &["mode", "dist"])?;
                let mode = p.req("mode", Obj::str)?;
                let mode = PurityMode::parse(mode).ok_or_else(|| {
                    invalid(
                        "purity",
                        format!("unknown purity mode `{mode}` (short, removal)"),
                    )
                })?;
                let dist = match p.get("dist") {
                    None => DistSpec::Fixed(1.0),
                    Some(d) => knob::dist_from_json("purity", d)?,
                };
                Ok(Self { dist, mode })
            }
            _ => Ok(Self {
                dist: knob::dist_from_json("purity", v)?,
                mode: PurityMode::Short,
            }),
        }
    }

    /// Serialize to the wire normal form: short mode emits the bare dist
    /// (scalar back-compat), removal mode the tagged mode object.
    pub fn to_json(&self) -> Json {
        match self.mode {
            PurityMode::Short => knob::dist_to_json(&self.dist),
            PurityMode::Removal => Json::Obj(vec![
                ("mode".into(), Json::Str(self.mode.name().into())),
                ("dist".into(), knob::dist_to_json(&self.dist)),
            ]),
        }
    }

    /// Domain validation: a valid distribution with central value in
    /// `(0, 1]` (fixed values are checked exactly).
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] naming the `purity` field.
    pub fn validate(&self) -> Result<()> {
        self.dist
            .validate()
            .map_err(|e| invalid("purity", e.to_string()))?;
        let central = self.central();
        if !(central > 0.0 && central <= 1.0) {
            return Err(invalid("purity", "must be in (0, 1]"));
        }
        Ok(())
    }
}

/// Parse a [`RedundancyScheme`] from its wire forms: a bare kind string
/// (`"none"`, `"tmr"`), a tagged object
/// (`{"kind": "spare-units", "spares": 4, "unit_size": 65536}`), or the
/// nested single-key shorthand (`{"spare-units": {"spares": 4, …}}`).
/// Unknown kinds and parameters fail with a nearest-name suggestion.
///
/// # Errors
///
/// [`PipelineError::UnknownKey`] / [`PipelineError::InvalidSpec`] for
/// unknown kinds/fields or mistyped parameters. Parameter *domains* are
/// checked by [`ScenarioSpec::validate`], not here.
pub fn redundancy_from_json(v: &Json) -> Result<RedundancyScheme> {
    let (kind, p) = REDUNDANCY_WIRE.read("redundancy", v)?;
    let count = |key| p.req(key, |p, k| p.int(k, 0, 1_000_000_000_000_000));
    Ok(match kind {
        "none" => RedundancyScheme::None,
        "tmr" => RedundancyScheme::Tmr,
        "spare-units" => RedundancyScheme::SpareUnits {
            spares: count("spares")?,
            unit_size: count("unit_size")?,
        },
        _ => RedundancyScheme::RepairableTile {
            tiles: count("tiles")?,
            spare_tiles: count("spare_tiles")?,
            test_coverage: p.num("test_coverage")?.unwrap_or(1.0),
        },
    })
}

/// The wire table of [`RedundancyScheme`]: its kinds and their parameters.
const REDUNDANCY_WIRE: Tagged = Tagged {
    kinds: &RedundancyScheme::KINDS,
    params: &[
        &[],
        &[],
        &["spares", "unit_size"],
        &["tiles", "spare_tiles", "test_coverage"],
    ],
};

/// Serialize a [`RedundancyScheme`] to its normal wire form: a bare kind
/// string for the parameterless schemes, a tagged `kind` object otherwise.
/// Round-trips exactly through [`redundancy_from_json`].
pub fn redundancy_to_json(s: &RedundancyScheme) -> Json {
    let num = Json::Num;
    let params = match *s {
        RedundancyScheme::None | RedundancyScheme::Tmr => vec![],
        RedundancyScheme::SpareUnits { spares, unit_size } => vec![
            ("spares", num(spares as f64)),
            ("unit_size", num(unit_size as f64)),
        ],
        RedundancyScheme::RepairableTile {
            tiles,
            spare_tiles,
            test_coverage,
        } => vec![
            ("tiles", num(tiles as f64)),
            ("spare_tiles", num(spare_tiles as f64)),
            ("test_coverage", num(test_coverage)),
        ],
    };
    REDUNDANCY_WIRE.write(s.name(), params)
}

/// One declarative yield scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also names the result artifact).
    pub name: String,
    /// Processing corner.
    pub corner: CornerSpec,
    /// Growth/layout correlation scenario.
    pub correlation: CorrelationSpec,
    /// Cell library (fixes the base node and the design mapping).
    pub library: LibrarySpec,
    /// Technology node to scale the design to (nm).
    pub node_nm: f64,
    /// Chip yield target in `(0, 1)`.
    pub yield_target: f64,
    /// Numerical count back-end.
    pub backend: BackendSpec,
    /// Chip transistor count `M`.
    pub m_transistors: f64,
    /// `M_min` treatment.
    pub m_min: MminSpec,
    /// Critical-FET density source.
    pub rho: RhoSpec,
    /// Multiplier on the resolved critical-FET density `ρ` — `Fixed(1)`
    /// uses the source density as-is; a distribution models die-to-die
    /// growth-density variation.
    pub density: DistSpec,
    /// CNT correlation length `L_CNT` (µm) — how far devices along the
    /// growth direction share the same CNTs. Sets the row size
    /// `M_Rmin = L_CNT · ρ` and with it the correlated-scenario
    /// relaxation; the paper's directional growth reaches 200 µm. A bare
    /// number is the fixed form; a distribution models per-die variation.
    pub l_cnt_um: DistSpec,
    /// s-CNT purity: the semiconducting fraction of the grown CNTs and
    /// whether metallic ones short their transistor or are removed
    /// (count-thinning). `Fixed(1)` — the default — reproduces the paper's
    /// implicit perfect-purity assumption exactly.
    pub purity: PuritySpec,
    /// Architectural redundancy scheme applied to the per-cell failure
    /// probability before the chip-yield inversion. `None` — the default —
    /// is the paper's raw-yield treatment.
    pub redundancy: RedundancyScheme,
    /// Aligned-active grid policy (Sec 3.3: one or two regions).
    pub grid: GridPolicy,
    /// Use the reduced OpenRISC-class design for the mapped statistics.
    pub fast_design: bool,
    /// Conditional-MC trials for the non-aligned row estimate (0 = analytic
    /// only; only meaningful for correlated scenarios).
    pub mc_trials: u32,
}

impl ScenarioSpec {
    /// The paper's baseline configuration: aggressive corner, Nangate-45
    /// library at its native node, 90 % yield on a 1e8-transistor chip,
    /// exact convolution back-end, fixed 33 % `M_min`, measured density,
    /// single-grid aligned-active, no correlation.
    pub fn baseline(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            corner: CornerSpec::Aggressive,
            correlation: CorrelationSpec::None,
            library: LibrarySpec::Nangate45,
            node_nm: 45.0,
            yield_target: paper::YIELD_TARGET,
            backend: BackendSpec::Convolution { step: 0.05 },
            m_transistors: paper::M_TRANSISTORS,
            m_min: MminSpec::fraction(paper::MMIN_FRACTION),
            rho: RhoSpec::Measured,
            density: DistSpec::Fixed(1.0),
            l_cnt_um: DistSpec::Fixed(paper::L_CNT_UM),
            purity: PuritySpec::perfect(),
            redundancy: RedundancyScheme::None,
            grid: GridPolicy::Single,
            fast_design: false,
            mc_trials: 0,
        }
    }

    /// Check scalar fields are in-domain.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        self.corner.corner()?;
        if !(self.node_nm.is_finite() && self.node_nm > 0.0) {
            return Err(invalid("node_nm", "must be finite and > 0"));
        }
        if !(self.yield_target > 0.0 && self.yield_target < 1.0) {
            return Err(invalid("yield_target", "must be in (0, 1)"));
        }
        if !(self.m_transistors.is_finite() && self.m_transistors >= 1.0) {
            return Err(invalid("m_transistors", "must be finite and >= 1"));
        }
        if let MminSpec::Fraction(d) = self.m_min {
            d.validate().map_err(|e| invalid("m_min", e.to_string()))?;
            if let Some(f) = d.as_fixed() {
                if !(f > 0.0 && f <= 1.0) {
                    return Err(invalid("m_min", "fraction must be in (0, 1]"));
                }
            }
        }
        self.density
            .validate()
            .map_err(|e| invalid("density", e.to_string()))?;
        if let Some(v) = self.density.as_fixed() {
            if !(v.is_finite() && v > 0.0) {
                return Err(invalid("density", "must be finite and > 0"));
            }
        }
        self.l_cnt_um
            .validate()
            .map_err(|e| invalid("l_cnt_um", e.to_string()))?;
        if let Some(v) = self.l_cnt_um.as_fixed() {
            if !(v.is_finite() && v > 0.0) {
                return Err(invalid("l_cnt_um", "must be finite and > 0"));
            }
        }
        self.purity.validate()?;
        self.redundancy
            .validate()
            .map_err(|e| invalid("redundancy", e.to_string()))?;
        if self.redundancy.exact_terms() > INVERT_TERM_LIMIT {
            return Err(invalid(
                "redundancy",
                format!(
                    "scheme needs {} exact tail terms; the per-cell budget \
                     inversion caps at {INVERT_TERM_LIMIT} (reduce spares)",
                    self.redundancy.exact_terms()
                ),
            ));
        }
        if self.fault_active() && self.m_min == MminSpec::SelfConsistent {
            return Err(invalid(
                "m_min",
                "self-consistent M_min is not supported with purity/redundancy \
                 faults active (use a fraction)",
            ));
        }
        match self.backend {
            BackendSpec::Convolution { step } => {
                if !(step.is_finite() && step > 0.0) {
                    return Err(invalid("backend", "convolution step must be > 0"));
                }
            }
            BackendSpec::MonteCarlo { .. } => {
                let precision = self.backend.mc_precision().expect("monte-carlo variant");
                precision.validate().map_err(|e| {
                    invalid("backend", format!("monte-carlo precision invalid: {e}"))
                })?;
            }
            BackendSpec::GaussianSum => {}
        }
        Ok(())
    }

    /// Build a spec from a JSON object, starting from [`Self::baseline`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] / [`PipelineError::InvalidSpec`] for
    /// unknown fields, wrong types, or out-of-domain values.
    pub fn from_json(v: &Json) -> Result<Self> {
        ScenarioBuilder::new("scenario")
            .merge_json(v, "scenario")?
            .build()
    }

    /// True if any knob carries a non-degenerate distribution — i.e. the
    /// scenario needs a seed-driven [`ScenarioSpec::realize`] step before
    /// (or as part of) evaluation.
    pub fn is_stochastic(&self) -> bool {
        let m_min_stochastic = match self.m_min {
            MminSpec::Fraction(d) => !d.is_fixed(),
            MminSpec::SelfConsistent => false,
        };
        !self.density.is_fixed()
            || !self.l_cnt_um.is_fixed()
            || m_min_stochastic
            || !self.purity.dist.is_fixed()
    }

    /// True if the fault subsystem changes this scenario's result: purity
    /// below one (either mode) or any redundancy scheme. Inactive
    /// scenarios take the fault-free evaluation path byte-for-byte.
    pub fn fault_active(&self) -> bool {
        self.purity.is_active() || self.redundancy != RedundancyScheme::None
    }

    /// Resolve every stochastic knob to a concrete scalar under `seed`,
    /// returning an all-`Fixed` spec.
    ///
    /// An already-deterministic spec returns unchanged (no RNG is
    /// consulted), so scalar scenarios evaluate byte-identically to every
    /// prior release. Each knob draws from its own derived stream —
    /// `split_seed(split_seed(seed, KNOB_SALT), knob_index)` in the fixed
    /// order of [`crate::knob::STOCHASTIC_KNOBS`] — so adding a
    /// distribution to one knob never shifts another's draws. Realized
    /// values are clamped to the knob's physical domain and snapped onto
    /// the relative quantization grid (see [`crate::knob::snap`]), which
    /// keeps the downstream caches effective.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] for invalid distribution parameters.
    pub fn realize(&self, seed: u64) -> Result<ScenarioSpec> {
        let mut spec = self.clone();
        if !self.is_stochastic() {
            return Ok(spec);
        }
        let knob_base = split_seed(seed, knob::KNOB_SALT);
        let draw = |knob: usize, d: &DistSpec| -> Result<f64> {
            let mut rng = cnt_stats::seed::seeded_rng(split_seed(knob_base, knob as u64));
            let v = d
                .sample(&mut rng)
                .map_err(|e| invalid("scenario", e.to_string()))?;
            Ok(knob::snap(knob, v))
        };
        if !spec.density.is_fixed() {
            spec.density = DistSpec::Fixed(draw(0, &self.density)?);
        }
        if !spec.l_cnt_um.is_fixed() {
            spec.l_cnt_um = DistSpec::Fixed(draw(1, &self.l_cnt_um)?);
        }
        if let MminSpec::Fraction(d) = self.m_min {
            if !d.is_fixed() {
                spec.m_min = MminSpec::Fraction(DistSpec::Fixed(draw(2, &d)?));
            }
        }
        if !spec.purity.dist.is_fixed() {
            spec.purity.dist = DistSpec::Fixed(draw(3, &self.purity.dist)?);
        }
        Ok(spec)
    }

    /// Serialize the full (explicit) spec.
    pub fn to_json(&self) -> Json {
        let m_min = match self.m_min {
            MminSpec::Fraction(d) => knob::dist_to_json(&d),
            MminSpec::SelfConsistent => Json::Str("self-consistent".into()),
        };
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("corner".into(), self.corner.to_json()),
            (
                "correlation".into(),
                Json::Str(self.correlation.name().into()),
            ),
            ("library".into(), Json::Str(self.library.name().into())),
            ("node_nm".into(), Json::Num(self.node_nm)),
            ("yield_target".into(), Json::Num(self.yield_target)),
            ("backend".into(), self.backend.to_json()),
            ("m_transistors".into(), Json::Num(self.m_transistors)),
            ("m_min".into(), m_min),
            (
                "rho".into(),
                Json::Str(
                    match self.rho {
                        RhoSpec::Paper => "paper",
                        RhoSpec::Measured => "measured",
                    }
                    .into(),
                ),
            ),
            ("density".into(), knob::dist_to_json(&self.density)),
            ("l_cnt_um".into(), knob::dist_to_json(&self.l_cnt_um)),
            ("purity".into(), self.purity.to_json()),
            ("redundancy".into(), redundancy_to_json(&self.redundancy)),
            (
                "grid".into(),
                Json::Str(
                    match self.grid {
                        GridPolicy::Single => "single",
                        GridPolicy::Dual => "dual",
                    }
                    .into(),
                ),
            ),
            ("fast_design".into(), Json::Bool(self.fast_design)),
            ("mc_trials".into(), Json::Num(f64::from(self.mc_trials))),
        ])
    }
}

/// An ordered list of scenarios, typically loaded from a grid file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// The expanded scenarios, in file/product order.
    pub scenarios: Vec<ScenarioSpec>,
}

impl ScenarioGrid {
    /// Parse a grid document (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] for malformed JSON, otherwise as
    /// [`ScenarioGrid::from_json`].
    pub fn parse(src: &str) -> Result<Self> {
        Self::from_json(&Json::parse(src)?)
    }

    /// Expand a parsed grid document (the form service envelopes carry).
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] for unknown sections or scenario
    /// fields (with nearest-key suggestions),
    /// [`PipelineError::InvalidSpec`] for bad fields or an empty grid.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let doc = Obj::new(
            doc,
            Owner::Doc("grid"),
            &["defaults", "axes", "scenarios", "name"],
        )?;
        let mut base = ScenarioBuilder::new(doc.str("name")?.unwrap_or("scenario"));
        if let Some(defaults) = doc.get("defaults") {
            base = base.merge_json(defaults, "defaults")?;
        }
        // Merging is not yet validation: each finished scenario validates
        // once below, after axes/explicit fields are applied over the
        // defaults.
        let base = base.build_unchecked();

        let mut scenarios = Vec::new();

        if let Some(axes) = doc.get("axes") {
            let axes = axes
                .as_object()
                .ok_or_else(|| invalid("axes", "must be an object"))?;
            for (key, values) in axes {
                if values.as_array().is_none_or(<[Json]>::is_empty) {
                    return Err(invalid(
                        "axes",
                        format!("`{key}` must be a non-empty array"),
                    ));
                }
            }
            // Cartesian product in file order: later axes vary fastest.
            let mut combos: Vec<Vec<(String, Json)>> = vec![Vec::new()];
            for (key, values) in axes {
                let values = values.as_array().expect("checked above");
                combos = combos
                    .into_iter()
                    .flat_map(|combo| {
                        values.iter().map(move |v| {
                            let mut next = combo.clone();
                            next.push((key.clone(), v.clone()));
                            next
                        })
                    })
                    .collect();
            }
            for combo in combos {
                let mut builder = ScenarioBuilder::from_spec(base.clone());
                let mut parts = vec![base.name.clone()];
                for (key, value) in &combo {
                    builder = builder.set_json(key, value)?;
                    parts.push(format!("{key}={}", axis_label(value)));
                }
                scenarios.push(builder.name(parts.join("/")).build()?);
            }
        }

        if let Some(explicit) = doc.get("scenarios") {
            let items = explicit
                .as_array()
                .ok_or_else(|| invalid("scenarios", "must be an array"))?;
            for (i, item) in items.iter().enumerate() {
                let builder = ScenarioBuilder::from_spec(base.clone())
                    .name(format!("{}/{}", base.name, i))
                    .merge_json(item, "scenarios")?;
                scenarios.push(builder.build()?);
            }
        }

        if scenarios.is_empty() {
            return Err(invalid(
                "grid",
                "no scenarios: provide `axes` and/or `scenarios`",
            ));
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|p| p[0] == p[1]) {
            return Err(invalid("grid", "scenario names must be unique"));
        }
        Ok(Self { scenarios })
    }

    /// Serialize as an explicit scenario list (the normal-form artifact).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "scenarios".into(),
            Json::Arr(self.scenarios.iter().map(ScenarioSpec::to_json).collect()),
        )])
    }
}

/// Compact rendering of an axis value for auto-generated scenario names.
pub(crate) fn axis_label(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => format!("{}", *n as i64),
        Json::Num(n) => format!("{n}"),
        Json::Bool(b) => format!("{b}"),
        // A tagged parameter object (e.g. a redundancy scheme) labels as
        // `kind(param=value,…)` so candidate names stay readable.
        Json::Obj(fields)
            if fields
                .iter()
                .any(|(k, v)| k == "kind" && v.as_str().is_some()) =>
        {
            let kind = fields
                .iter()
                .find_map(|(k, v)| (k == "kind").then(|| v.as_str().unwrap_or_default()))
                .unwrap_or_default();
            let params: Vec<String> = fields
                .iter()
                .filter(|(k, _)| k != "kind")
                .map(|(k, v)| format!("{k}={}", axis_label(v)))
                .collect();
            if params.is_empty() {
                kind.to_string()
            } else {
                format!("{kind}({})", params.join(","))
            }
        }
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_valid_and_round_trips() {
        let spec = ScenarioSpec::baseline("anchor");
        spec.validate().unwrap();
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn grid_axes_expand_as_a_product() {
        let grid = ScenarioGrid::parse(
            r#"{
                "name": "scaling",
                "defaults": { "m_min": "self-consistent", "rho": "paper" },
                "axes": {
                    "node_nm": [45, 32, 22, 16],
                    "correlation": ["none", "growth+aligned-layout"]
                }
            }"#,
        )
        .unwrap();
        assert_eq!(grid.scenarios.len(), 8);
        assert_eq!(
            grid.scenarios[0].name,
            "scaling/node_nm=45/correlation=none"
        );
        assert_eq!(grid.scenarios[0].m_min, MminSpec::SelfConsistent);
        assert_eq!(grid.scenarios[0].rho, RhoSpec::Paper);
        assert_eq!(
            grid.scenarios[7].correlation,
            CorrelationSpec::GrowthAlignedLayout
        );
        assert_eq!(grid.scenarios[7].node_nm, 16.0);
        // Later axes vary fastest.
        assert_eq!(
            grid.scenarios[1].correlation,
            CorrelationSpec::GrowthAlignedLayout
        );
        assert_eq!(grid.scenarios[1].node_nm, 45.0);
    }

    #[test]
    fn explicit_scenarios_merge_over_defaults() {
        let grid = ScenarioGrid::parse(
            r#"{
                "defaults": { "library": "commercial65", "yield_target": 0.95 },
                "scenarios": [
                    { "name": "one-grid" },
                    { "name": "two-grids", "grid": "dual" }
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(grid.scenarios.len(), 2);
        for s in &grid.scenarios {
            assert_eq!(s.library, LibrarySpec::Commercial65);
            assert_eq!(s.node_nm, 65.0, "library choice sets the node");
            assert_eq!(s.yield_target, 0.95);
        }
        assert_eq!(grid.scenarios[0].grid, GridPolicy::Single);
        assert_eq!(grid.scenarios[1].grid, GridPolicy::Dual);
    }

    #[test]
    fn rejects_bad_grids() {
        assert!(ScenarioGrid::parse("{}").is_err(), "empty grid");
        assert!(
            ScenarioGrid::parse(r#"{ "axes": { "node_nm": [] } }"#).is_err(),
            "empty axis"
        );
        assert!(
            ScenarioGrid::parse(r#"{ "scenarios": [ { "nope": 1 } ] }"#).is_err(),
            "unknown field"
        );
        assert!(
            ScenarioGrid::parse(r#"{ "mystery": 1, "scenarios": [ {} ] }"#).is_err(),
            "unknown section"
        );
        assert!(
            ScenarioGrid::parse(r#"{ "scenarios": [ { "name": "a" }, { "name": "a" } ] }"#)
                .is_err(),
            "duplicate names"
        );
        assert!(
            ScenarioGrid::parse(r#"{ "scenarios": [ { "yield_target": 2.0 } ] }"#).is_err(),
            "out-of-domain yield"
        );
        // A mistyped name once fell back to "scenario" silently.
        assert!(matches!(
            ScenarioGrid::parse(r#"{ "name": 5, "scenarios": [ {} ] }"#),
            Err(PipelineError::InvalidSpec { field: "name", .. })
        ));
    }

    #[test]
    fn unknown_grid_keys_name_the_nearest_valid_key() {
        // A typo'd scenario field: the error must carry the suggestion.
        let err =
            ScenarioGrid::parse(r#"{ "scenarios": [ { "yeild_target": 0.9 } ] }"#).unwrap_err();
        match &err {
            PipelineError::UnknownKey {
                key, suggestion, ..
            } => {
                assert_eq!(key, "yeild_target");
                assert_eq!(suggestion.as_deref(), Some("yield_target"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean `yield_target`"));
        // A typo'd top-level section gets the same treatment.
        let err = ScenarioGrid::parse(r#"{ "defalts": {}, "scenarios": [ {} ] }"#).unwrap_err();
        assert!(
            err.to_string().contains("did you mean `defaults`"),
            "message: {err}"
        );
        // Typo'd axis names too (axes apply fields to scenarios).
        let err = ScenarioGrid::parse(r#"{ "axes": { "node_mn": [45, 32] } }"#).unwrap_err();
        assert!(
            err.to_string().contains("did you mean `node_nm`"),
            "message: {err}"
        );
    }

    #[test]
    fn monte_carlo_backend_forms_and_round_trip() {
        // Bare name → defaults.
        let bare = BackendSpec::from_json(&Json::Str("monte-carlo".into())).unwrap();
        assert_eq!(bare, mc_backend_defaults());
        assert_eq!(bare.name(), "monte-carlo");
        // `kind` object form with overrides.
        let kind = BackendSpec::from_json(
            &Json::parse(r#"{ "kind": "monte-carlo", "rel_ci": 0.02, "batch": 500 }"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            kind,
            BackendSpec::MonteCarlo {
                rel_ci: 0.02,
                max_trials: 2_000_000,
                batch: 500,
                ci_level: 0.95
            }
        );
        // Nested single-key form (the grid-schema shorthand).
        let nested = BackendSpec::from_json(
            &Json::parse(
                r#"{ "monte-carlo": { "rel_ci": 0.1, "max_trials": 50000, "ci_level": 0.99 } }"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            nested,
            BackendSpec::MonteCarlo {
                rel_ci: 0.1,
                max_trials: 50_000,
                batch: 2_000,
                ci_level: 0.99
            }
        );
        // Full-spec round trip through to_json/from_json.
        let mut spec = ScenarioSpec::baseline("mc");
        spec.backend = kind;
        spec.validate().unwrap();
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
        // The precision surface maps 1:1.
        let p = kind.mc_precision().unwrap();
        assert_eq!(p.rel_ci, 0.02);
        assert_eq!(p.batch, 500);
        assert!(bare.count_model(9) != CountModel::GaussianSum);
    }

    #[test]
    fn monte_carlo_backend_rejects_bad_precision() {
        let mut spec = ScenarioSpec::baseline("bad");
        spec.backend = BackendSpec::MonteCarlo {
            rel_ci: 0.0,
            max_trials: 1000,
            batch: 100,
            ci_level: 0.95,
        };
        assert!(spec.validate().is_err(), "rel_ci = 0");
        spec.backend = BackendSpec::MonteCarlo {
            rel_ci: 0.05,
            max_trials: 10,
            batch: 100,
            ci_level: 0.95,
        };
        assert!(spec.validate().is_err(), "cap below one batch");
        spec.backend = BackendSpec::MonteCarlo {
            rel_ci: 0.05,
            max_trials: 1000,
            batch: 100,
            ci_level: 1.0,
        };
        assert!(spec.validate().is_err(), "ci_level = 1");
        assert!(
            ScenarioGrid::parse(
                r#"{ "scenarios": [ { "backend": { "monte-carlo": { "batch": 1 } } } ] }"#
            )
            .is_err(),
            "grid-level validation must catch it too"
        );
        // Mistyped keys and non-object payloads must error, not silently
        // fall back to 2M-trial defaults.
        assert!(
            BackendSpec::from_json(
                &Json::parse(r#"{ "monte-carlo": { "trials": 50000 } }"#).unwrap()
            )
            .is_err(),
            "unknown field `trials`"
        );
        assert!(
            BackendSpec::from_json(&Json::parse(r#"{ "monte-carlo": "fast" }"#).unwrap()).is_err(),
            "non-object payload"
        );
        assert!(
            BackendSpec::from_json(
                &Json::parse(r#"{ "kind": "monte-carlo", "rel-ci": 0.1 }"#).unwrap()
            )
            .is_err(),
            "mistyped key in the kind form"
        );
    }

    #[test]
    fn purity_spec_forms_and_round_trip() {
        // Scalar back-compat: a bare number is Short-mode fixed purity.
        let bare = PuritySpec::from_json(&Json::Num(0.999_9)).unwrap();
        assert_eq!(bare.mode, PurityMode::Short);
        assert_eq!(bare.dist, DistSpec::Fixed(0.999_9));
        assert!(bare.is_active());
        assert!(!PuritySpec::perfect().is_active());
        // Mode object form, dist defaulted.
        let removal =
            PuritySpec::from_json(&Json::parse(r#"{ "mode": "removal" }"#).unwrap()).unwrap();
        assert_eq!(removal.mode, PurityMode::Removal);
        assert_eq!(removal.dist, DistSpec::Fixed(1.0));
        // Mode object with a distribution payload.
        let spread = PuritySpec::from_json(
            &Json::parse(
                r#"{ "mode": "removal",
                     "dist": { "kind": "uniform", "lo": 0.999, "hi": 0.9999 } }"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(!spread.dist.is_fixed());
        assert!(spread.central() > 0.999 && spread.central() < 0.9999);
        // Round trips through the scenario serialization.
        for purity in [bare, removal, spread] {
            let mut spec = ScenarioSpec::baseline("p");
            spec.purity = purity;
            spec.validate().unwrap();
            assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
        // Bad values reject with actionable messages.
        assert!(PuritySpec::from_json(&Json::Num(0.0)).map_or_else(
            |e| e.to_string().contains("purity"),
            |p| p.validate().is_err()
        ));
        let err =
            PuritySpec::from_json(&Json::parse(r#"{ "mode": "shrot" }"#).unwrap()).unwrap_err();
        assert!(err.to_string().contains("short"), "message: {err}");
        let err =
            PuritySpec::from_json(&Json::parse(r#"{ "mode": "short", "dst": 0.9 }"#).unwrap())
                .unwrap_err();
        assert!(
            err.to_string().contains("did you mean `dist`"),
            "message: {err}"
        );
    }

    #[test]
    fn redundancy_forms_and_round_trip() {
        // Bare kind strings.
        assert_eq!(
            redundancy_from_json(&Json::Str("none".into())).unwrap(),
            RedundancyScheme::None
        );
        assert_eq!(
            redundancy_from_json(&Json::Str("tmr".into())).unwrap(),
            RedundancyScheme::Tmr
        );
        // Tagged object form.
        let spares = redundancy_from_json(
            &Json::parse(r#"{ "kind": "spare-units", "spares": 4, "unit_size": 65536 }"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            spares,
            RedundancyScheme::SpareUnits {
                spares: 4,
                unit_size: 65_536
            }
        );
        // Nested single-key shorthand; test_coverage defaults to 1.
        let tiles = redundancy_from_json(
            &Json::parse(r#"{ "repairable-tile": { "tiles": 64, "spare_tiles": 8 } }"#).unwrap(),
        )
        .unwrap();
        assert_eq!(
            tiles,
            RedundancyScheme::RepairableTile {
                tiles: 64,
                spare_tiles: 8,
                test_coverage: 1.0
            }
        );
        // Round trips through the scenario serialization.
        for scheme in [RedundancyScheme::Tmr, spares, tiles] {
            let mut spec = ScenarioSpec::baseline("r");
            spec.redundancy = scheme;
            spec.validate().unwrap();
            assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
        // Unknown kinds and parameters carry nearest-name suggestions.
        let err = redundancy_from_json(&Json::Str("tmrr".into())).unwrap_err();
        assert!(
            err.to_string().contains("did you mean `tmr`"),
            "message: {err}"
        );
        let err = redundancy_from_json(
            &Json::parse(r#"{ "kind": "spare-units", "spare": 4, "unit_size": 1 }"#).unwrap(),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("did you mean `spares`"),
            "message: {err}"
        );
        // A parameterized kind as a bare string needs the object form.
        assert!(redundancy_from_json(&Json::Str("spare-units".into())).is_err());
        // Validation rejects out-of-domain parameters and oversized schemes.
        let mut spec = ScenarioSpec::baseline("bad");
        spec.redundancy = RedundancyScheme::SpareUnits {
            spares: 1,
            unit_size: 0,
        };
        assert!(spec.validate().is_err(), "unit_size = 0");
        spec.redundancy = RedundancyScheme::SpareUnits {
            spares: INVERT_TERM_LIMIT + 1,
            unit_size: 1,
        };
        assert!(spec.validate().is_err(), "beyond INVERT_TERM_LIMIT");
        // Self-consistent M_min is rejected while faults are active.
        spec.redundancy = RedundancyScheme::Tmr;
        spec.m_min = MminSpec::SelfConsistent;
        assert!(spec.validate().is_err(), "self-consistent + redundancy");
    }

    #[test]
    fn purity_realizes_in_impurity_space() {
        let mut spec = ScenarioSpec::baseline("stoch");
        spec.purity = PuritySpec {
            dist: DistSpec::Uniform {
                lo: 0.999,
                hi: 0.999_99,
            },
            mode: PurityMode::Short,
        };
        assert!(spec.is_stochastic());
        assert!(spec.fault_active());
        let realized = spec.realize(41).unwrap();
        let v = realized.purity.dist.as_fixed().expect("realized to fixed");
        // In-domain up to the 2⁻¹⁰ relative impurity quantization grid.
        assert!(v > 0.998_9 && v < 1.0 - 0.9e-5, "in-domain draw: {v}");
        assert_eq!(realized.purity.mode, PurityMode::Short);
        // Byte-determinism: the same seed realizes identically.
        assert_eq!(spec.realize(41).unwrap(), realized);
        // Purity draws come from knob stream 3: the draw does not move
        // when another knob also becomes stochastic.
        let mut both = spec.clone();
        both.density = DistSpec::Uniform { lo: 0.9, hi: 1.1 };
        assert_eq!(
            both.realize(41).unwrap().purity.dist.as_fixed(),
            Some(v),
            "adding a density distribution must not shift purity draws"
        );
    }

    #[test]
    fn corner_spec_forms() {
        let named = CornerSpec::from_json(&Json::Str("ideal-removal".into())).unwrap();
        assert_eq!(named, CornerSpec::IdealRemoval);
        let custom =
            CornerSpec::from_json(&Json::parse(r#"{ "pm": 0.2, "p_rs": 0.1 }"#).unwrap()).unwrap();
        assert_eq!(
            custom,
            CornerSpec::Custom {
                pm: 0.2,
                p_rs: 0.1,
                p_rm: 1.0
            }
        );
        assert!(custom.corner().is_ok());
        assert!(CornerSpec::from_json(&Json::Str("bogus".into())).is_err());
    }
}
