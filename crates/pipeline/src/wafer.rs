//! Wafer-scale random-field workloads: [`WaferSpec`], the streaming
//! [`WaferEngine`], and the aggregated [`WaferReport`].
//!
//! A wafer run answers the paper's yield question at manufacturing scale:
//! *if every die on a wafer sees its own realization of the stochastic
//! process knobs — growth density, CNT correlation length, minimum-device
//! fraction — what does the wafer's yield distribution look like?*
//!
//! The model: the **base scenario** is solved once at its central knob
//! values, fixing the design width `W_design` (you tape out one design,
//! not one per die). Each die then realizes its knobs from the per-knob
//! [`cnt_stats::FieldSpec`] random fields — a local distribution × radial
//! trend × spatially correlated noise — and the die's yield is the chip
//! yield that design achieves under the die's process conditions:
//! `(1 − pF(W_design)/relaxation_die)^{M_min,die}` (Eq. 2.5 with the
//! Sec 3.1 relaxation evaluated at the die's realized row model).
//!
//! **Determinism contract**: the report is a pure function of
//! `(spec, seed)`. Die realizations derive from
//! `split_seed(split_seed(seed, KNOB_SALT), knob_index)` per knob and the
//! die's full-grid index, never from evaluation order; dies are
//! aggregated in fixed 1024-die chunks whose partial sums are merged in
//! chunk order, so the serialized [`WaferReport`] is **byte-identical for
//! any worker count**.
//!
//! Realized knob values are clamped to their physical domain and snapped
//! onto the relative quantization grid of [`crate::knob::snap`]. The
//! engine sorts the dies by their quantized knob tuple and evaluates each
//! distinct tuple once. Continuous fields make nearly every die its own
//! scenario (101 750 distinct among the 101 780 dies of
//! `examples/wafer/full_wafer_100k.json`); the sort pays on flat or tight
//! fields, where one expensive die evaluation — a Monte-Carlo redundancy
//! compose — serves every die that shares its tuple.

use crate::builder::ScenarioBuilder;
use crate::engine::Pipeline;
use crate::json::{Json, Obj, Owner};
use crate::knob::{self, field_from_json, field_to_json};
use crate::report::artifact_stem;
use crate::spec::{MminSpec, RhoSpec, ScenarioSpec};
use crate::{PipelineError, Result};
use cnfet_core::chipyield::yield_min_dominated;
use cnfet_core::failure::FailureModel;
use cnfet_core::paper;
use cnfet_core::rowmodel::RowModel;
use cnfet_fault::{short_probability, McFallback, PurityMode, RedundancyScheme};
use cnfet_sim::adaptive::McPrecision;
use cnfet_sim::engine::ordered;
use cnt_stats::seed::split_seed;
use cnt_stats::{grid_coordinate, DistSpec, FieldGrid, FieldSampler, FieldSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn invalid(field: &'static str, msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field,
        msg: msg.into(),
    }
}

/// Yield-binning histogram resolution (bins over `[0, 1]`).
const YIELD_BINS: usize = 10;
/// Radial-profile resolution (equal-width normalized-radius bands).
const RADIAL_BANDS: usize = 8;
/// Dies per aggregation chunk — the fixed merge granularity that makes
/// the report worker-count independent.
const CHUNK_DIES: usize = 1024;
/// Largest accepted wafer diameter in dies (≈ 13 M dies).
const MAX_DIAMETER_DIES: u32 = 4096;

/// Seed salt deriving the redundancy-compose Monte-Carlo fallback stream
/// for wafer die evaluations, disjoint from the knob realization streams.
const WAFER_FAULT_SALT: u64 = 0x7746_6C74; // "wflt"

/// Top-level keys of a wafer spec document.
pub const WAFER_KEYS: [&str; 5] = ["name", "seed", "diameter_dies", "base", "fields"];

/// A declarative wafer-scale workload: die-grid geometry, the base
/// scenario the design is solved on, and one random field per stochastic
/// knob.
///
/// The JSON document form:
///
/// ```text
/// {
///   "name": "wafer-demo",
///   "diameter_dies": 360,            // dies across the wafer diameter
///   "seed": 7,                        // optional: pins the realization
///   "base": { "correlation": "growth+aligned-layout", … },
///   "fields": {                       // per-knob random fields
///     "density": { "dist": { "gaussian": { "mean": 1, "sd": 0.08 } },
///                  "trend": -0.1, "noise_sd": 0.05,
///                  "correlation_dies": 24 },
///     "l_cnt_um": { "uniform": { "lo": 150, "hi": 250 } }
///   }
/// }
/// ```
///
/// Every [`crate::knob::STOCHASTIC_KNOBS`] entry may carry a field; knobs
/// without one fall back to the base scenario's own (possibly
/// distributional) knob as a trivial field with no trend or correlated
/// noise.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferSpec {
    /// Workload name (also names the `<name>.wafer.json` artifact).
    pub name: String,
    /// Dies across the wafer diameter; dies whose grid-cell centers fall
    /// inside the inscribed circle exist (`≈ π/4 · D²` dies).
    pub diameter_dies: u32,
    /// Optional pinned seed; when absent the caller's seed (e.g. the
    /// envelope seed) drives the realization.
    pub seed: Option<u64>,
    /// The scenario the design is solved on and every die derives from.
    pub base: ScenarioSpec,
    /// Per-knob random fields, indexed like
    /// [`crate::knob::STOCHASTIC_KNOBS`] (density, l_cnt_um, m_min,
    /// purity).
    pub fields: [Option<FieldSpec>; 4],
}

impl WaferSpec {
    /// A wafer over the given base with no field overrides.
    pub fn new(name: impl Into<String>, diameter_dies: u32, base: ScenarioSpec) -> Self {
        Self {
            name: name.into(),
            diameter_dies,
            seed: None,
            base,
            fields: [None, None, None, None],
        }
    }

    /// Parse a wafer document.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] for malformed JSON, otherwise as
    /// [`WaferSpec::from_json`].
    pub fn parse(src: &str) -> Result<Self> {
        Self::from_json(&Json::parse(src)?)
    }

    /// Build from a parsed document (the form the `wafer` envelope body
    /// carries).
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] for unknown sections, knobs, or
    /// distribution kinds (with nearest-candidate suggestions),
    /// [`PipelineError::InvalidSpec`] for bad values.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let doc = Obj::new(doc, Owner::Doc("wafer"), &WAFER_KEYS)?;
        let name = doc.str("name")?.unwrap_or("wafer").to_string();
        let diameter_dies = doc.req("diameter_dies", Obj::u64)?;
        if !(1..=u64::from(MAX_DIAMETER_DIES)).contains(&diameter_dies) {
            return Err(invalid(
                "diameter_dies",
                format!("must be an integer in [1, {MAX_DIAMETER_DIES}]"),
            ));
        }
        let seed = doc.u64("seed")?;
        // The base scenario keeps its own name (it round-trips through
        // `ScenarioSpec::to_json`); it defaults to the wafer's name only
        // when the document does not set one.
        let mut builder = ScenarioBuilder::new(name.clone());
        if let Some(base) = doc.get("base") {
            builder = builder.merge_json(base, "base")?;
        }
        let base = builder.build()?;

        let mut fields: [Option<FieldSpec>; 4] = [None, None, None, None];
        if let Some(v) = doc.get("fields") {
            let entries = Obj::new(v, Owner::Field("fields"), &knob::STOCHASTIC_KNOBS)?;
            // Each knob's own name labels its field's diagnostics.
            for (slot, knob) in fields.iter_mut().zip(knob::STOCHASTIC_KNOBS) {
                *slot = entries
                    .get(knob)
                    .map(|v| field_from_json(knob, v))
                    .transpose()?;
            }
        }

        let spec = Self {
            name,
            diameter_dies: diameter_dies as u32,
            seed,
            base,
            fields,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Serialize the full spec; `WaferSpec::from_json` inverts this
    /// exactly (the normal form).
    pub fn to_json(&self) -> Json {
        let mut doc = vec![("name".to_string(), Json::Str(self.name.clone()))];
        if let Some(seed) = self.seed {
            doc.push(("seed".to_string(), Json::from_u64(seed)));
        }
        doc.push((
            "diameter_dies".to_string(),
            Json::from_u64(u64::from(self.diameter_dies)),
        ));
        doc.push(("base".to_string(), self.base.to_json()));
        let fields: Vec<(String, Json)> = self
            .fields
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                f.as_ref()
                    .map(|f| (knob::STOCHASTIC_KNOBS[i].to_string(), field_to_json(f)))
            })
            .collect();
        if !fields.is_empty() {
            doc.push(("fields".to_string(), Json::Obj(fields)));
        }
        Json::Obj(doc)
    }

    /// Validate geometry, the base scenario, and every field.
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] naming the offending part.
    pub fn validate(&self) -> Result<()> {
        if !(1..=MAX_DIAMETER_DIES).contains(&self.diameter_dies) {
            return Err(invalid(
                "diameter_dies",
                format!("must be in [1, {MAX_DIAMETER_DIES}]"),
            ));
        }
        self.base.validate()?;
        for (i, field) in self.fields.iter().enumerate() {
            if let Some(f) = field {
                f.validate().map_err(|e| {
                    invalid("fields", format!("{}: {e}", knob::STOCHASTIC_KNOBS[i]))
                })?;
            }
        }
        if self.fields[2].is_some() && matches!(self.base.m_min, MminSpec::SelfConsistent) {
            return Err(invalid(
                "fields",
                "an `m_min` field needs a fractional base `m_min`, not \"self-consistent\"",
            ));
        }
        if self.fields[3].is_some() && self.base.purity.mode == PurityMode::Removal {
            return Err(invalid(
                "fields",
                "a `purity` field needs the \"short\" purity mode — removal-mode \
                 purity reshapes the failure curve, which is solved once per \
                 wafer, not per die",
            ));
        }
        Ok(())
    }

    /// The effective random field of one knob: the explicit field if set,
    /// otherwise the base scenario's knob as a trivial field. `None` for
    /// `m_min` under the self-consistent treatment and for removal-mode
    /// `purity` (both have no per-die variation).
    fn effective_field(&self, knob: usize) -> Option<FieldSpec> {
        if let Some(f) = &self.fields[knob] {
            return Some(*f);
        }
        let dist = match knob {
            0 => self.base.density,
            1 => self.base.l_cnt_um,
            2 => match self.base.m_min {
                MminSpec::Fraction(d) => d,
                MminSpec::SelfConsistent => return None,
            },
            3 => match self.base.purity.mode {
                PurityMode::Short => self.base.purity.dist,
                PurityMode::Removal => return None,
            },
            _ => unreachable!("no such knob"),
        };
        Some(FieldSpec::from_dist(dist))
    }

    /// The base scenario with every stochastic knob collapsed to its
    /// central (mean) value — the deterministic design point the wafer's
    /// `W_design` is solved at.
    fn central_base(&self) -> Result<ScenarioSpec> {
        let central = |d: &DistSpec, field: &'static str| -> Result<DistSpec> {
            Ok(DistSpec::Fixed(
                d.mean().map_err(|e| invalid(field, e.to_string()))?,
            ))
        };
        let mut base = self.base.clone();
        base.density = central(&base.density, "density")?;
        base.l_cnt_um = central(&base.l_cnt_um, "l_cnt_um")?;
        if let MminSpec::Fraction(d) = base.m_min {
            base.m_min = MminSpec::Fraction(central(&d, "m_min")?);
        }
        base.purity.dist = central(&base.purity.dist, "purity")?;
        Ok(base)
    }

    /// Number of dies on the wafer (grid cells whose centers fall inside
    /// the inscribed circle).
    pub fn die_count(&self) -> u64 {
        die_positions(self.diameter_dies).len() as u64
    }
}

/// One die's geometry: grid cell (the seeding key) and radius.
#[derive(Debug, Clone, Copy)]
struct Die {
    /// Column and row in the full `D × D` grid; the row-major index
    /// `row·D + col` is stable under geometry, which keeps per-die draws
    /// independent of how many dies exist.
    col: u32,
    row: u32,
    /// Normalized radius in `[0, 1]`.
    r: f64,
}

/// Enumerate the dies of a `D`-die-diameter wafer in row-major order.
fn die_positions(diameter_dies: u32) -> Vec<Die> {
    let radius = f64::from(diameter_dies) / 2.0;
    let mut dies = Vec::new();
    for row in 0..diameter_dies {
        for col in 0..diameter_dies {
            let x = grid_coordinate(diameter_dies, col);
            let y = grid_coordinate(diameter_dies, row);
            let rr = (x * x + y * y).sqrt();
            if rr <= radius {
                dies.push(Die {
                    col,
                    row,
                    r: if radius > 0.0 {
                        (rr / radius).min(1.0)
                    } else {
                        0.0
                    },
                });
            }
        }
    }
    dies
}

/// One radial band of the wafer yield profile.
#[derive(Debug, Clone, PartialEq)]
pub struct RadialBand {
    /// Inclusive lower normalized radius of the band.
    pub r_lo: f64,
    /// Exclusive upper normalized radius (the last band includes 1).
    pub r_hi: f64,
    /// Dies in the band.
    pub dies: u64,
    /// Mean die yield over the band (0 when empty).
    pub mean_yield: f64,
}

/// The aggregated result of one wafer run — a pure function of
/// `(spec, seed)`, byte-identical for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferReport {
    /// The workload name.
    pub name: String,
    /// The seed the realization derived from.
    pub seed: u64,
    /// Wafer diameter in dies.
    pub diameter_dies: u32,
    /// Dies evaluated.
    pub dies: u64,
    /// The design width solved on the central base scenario (nm).
    pub w_design_nm: f64,
    /// Mean die yield across the wafer.
    pub overall_yield: f64,
    /// Worst die yield.
    pub min_die_yield: f64,
    /// Best die yield.
    pub max_die_yield: f64,
    /// Distinct quantized knob tuples among the dies — the scenarios the
    /// engine evaluated, each exactly once (how much the quantization grid
    /// collapsed the wafer).
    pub distinct_scenarios: u64,
    /// Die counts of the ten equal-width yield bins over `[0, 1]`.
    pub bins: Vec<u64>,
    /// Center-to-edge yield profile over eight equal-width radius bands.
    pub radial: Vec<RadialBand>,
}

impl WaferReport {
    /// Serialize to the wire/artifact form (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seed".into(), Json::from_u64(self.seed)),
            (
                "diameter_dies".into(),
                Json::from_u64(u64::from(self.diameter_dies)),
            ),
            ("dies".into(), Json::from_u64(self.dies)),
            ("w_design_nm".into(), Json::Num(self.w_design_nm)),
            ("overall_yield".into(), Json::Num(self.overall_yield)),
            ("min_die_yield".into(), Json::Num(self.min_die_yield)),
            ("max_die_yield".into(), Json::Num(self.max_die_yield)),
            (
                "distinct_scenarios".into(),
                Json::from_u64(self.distinct_scenarios),
            ),
            (
                "bins".into(),
                Json::Arr(self.bins.iter().map(|&b| Json::from_u64(b)).collect()),
            ),
            (
                "radial".into(),
                Json::Arr(
                    self.radial
                        .iter()
                        .map(|b| {
                            Json::Obj(vec![
                                ("r_lo".into(), Json::Num(b.r_lo)),
                                ("r_hi".into(), Json::Num(b.r_hi)),
                                ("dies".into(), Json::from_u64(b.dies)),
                                ("mean_yield".into(), Json::Num(b.mean_yield)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Write a wafer artifact as `<name>.wafer.json`, returning the path.
/// Pretty-printed with stable key order, so identical reports are
/// byte-identical on disk.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_wafer_report(dir: &Path, report: &WaferReport) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.wafer.json", artifact_stem(&report.name)));
    std::fs::write(&path, report.to_json().to_string_pretty())?;
    Ok(path)
}

/// Per-chunk partial aggregate. Chunks cover fixed die ranges, so merging
/// these in chunk order reproduces the sequential aggregation exactly.
struct ChunkAgg {
    sum_yield: f64,
    min_yield: f64,
    max_yield: f64,
    bins: [u64; YIELD_BINS],
    band_dies: [u64; RADIAL_BANDS],
    band_sum: [f64; RADIAL_BANDS],
}

impl ChunkAgg {
    fn new() -> Self {
        Self {
            sum_yield: 0.0,
            min_yield: f64::INFINITY,
            max_yield: f64::NEG_INFINITY,
            bins: [0; YIELD_BINS],
            band_dies: [0; RADIAL_BANDS],
            band_sum: [0.0; RADIAL_BANDS],
        }
    }

    fn add(&mut self, y: f64, r: f64) {
        self.sum_yield += y;
        self.min_yield = self.min_yield.min(y);
        self.max_yield = self.max_yield.max(y);
        let bin = ((y * YIELD_BINS as f64) as usize).min(YIELD_BINS - 1);
        self.bins[bin] += 1;
        let band = ((r * RADIAL_BANDS as f64) as usize).min(RADIAL_BANDS - 1);
        self.band_dies[band] += 1;
        self.band_sum[band] += y;
    }

    fn merge(&mut self, other: &ChunkAgg) {
        self.sum_yield += other.sum_yield;
        self.min_yield = self.min_yield.min(other.min_yield);
        self.max_yield = self.max_yield.max(other.max_yield);
        for i in 0..YIELD_BINS {
            self.bins[i] += other.bins[i];
        }
        for i in 0..RADIAL_BANDS {
            self.band_dies[i] += other.band_dies[i];
            self.band_sum[i] += other.band_sum[i];
        }
    }
}

/// Per-run fault constants (present when the base scenario has purity or
/// redundancy active). `short_n_bar` is the mean CNT count under a
/// `W_design`-wide gate — the per-die metallic-short hook; `None` in
/// removal mode, where purity already reshaped the central solve's
/// failure curve and has no additional per-die effect.
struct WaferFault {
    short_n_bar: Option<f64>,
    redundancy: RedundancyScheme,
    mc: McFallback,
}

/// One wafer run's solved design and the per-run constants every die
/// evaluation shares.
struct WaferRun {
    /// The seed the realization derives from.
    seed: u64,
    /// The design width solved on the central base (nm).
    w_design: f64,
    /// The central base scenario.
    central: ScenarioSpec,
    p_at_w: f64,
    rho_scaled: f64,
    grid_division: f64,
    m_transistors: f64,
    base_m_min: f64,
    fault: Option<WaferFault>,
    /// One seeded sampler per knob with a field.
    samplers: [Option<FieldSampler>; 4],
}

impl WaferRun {
    /// Knob `knob`'s value on every die when it has no field.
    fn central_knob(&self, knob: usize) -> f64 {
        match knob {
            0 => self.central.density.as_fixed().unwrap_or(1.0),
            1 => self.central.l_cnt_um.as_fixed().unwrap_or(paper::L_CNT_UM),
            // 0 signals "use the base solution's M_min" downstream.
            2 => 0.0,
            _ => self.central.purity.dist.as_fixed().unwrap_or(1.0),
        }
    }

    /// Evaluate one die from its quantized knob values.
    fn die_yield(&self, knobs: [f64; 4]) -> Result<f64> {
        let [density, l_cnt, m_min_frac, purity] = knobs;
        let row = RowModel::from_design(l_cnt, self.rho_scaled * density)?
            .with_grid_division(self.grid_division)?;
        let relaxation = Pipeline::relaxation(&self.central, &row);
        let m_min = if m_min_frac > 0.0 {
            (m_min_frac * self.m_transistors).max(1.0)
        } else {
            self.base_m_min
        };
        let p_eff = (self.p_at_w / relaxation.max(1.0)).min(0.999_999);
        let Some(fault) = &self.fault else {
            return Ok(yield_min_dominated(p_eff, m_min));
        };
        // Fault-aware die: the per-die purity shorts a fraction of the
        // cells on top of the correlation-credited open failure, then the
        // redundancy scheme recovers what it can.
        let p_short = match fault.short_n_bar {
            Some(n_bar) if purity < 1.0 => {
                short_probability(purity, n_bar).map_err(|e| invalid("fault", e.to_string()))?
            }
            _ => 0.0,
        };
        let p_cell = (p_short + p_eff).clamp(0.0, 1.0);
        let outcome = fault
            .redundancy
            .compose(p_cell, m_min, &fault.mc)
            .map_err(|e| invalid("fault", e.to_string()))?;
        Ok(outcome.circuit_yield)
    }

    /// Realize every die's quantized knob tuple into one `(key, die)`
    /// vector in die order, filled in place in parts of `part_len` dies,
    /// one thread per part.
    fn realize(&self, diameter: u32, dies: &[Die], part_len: usize) -> Vec<(Key, u32)> {
        let fields: [Option<FieldGrid>; 4] = std::array::from_fn(|i| {
            self.samplers[i]
                .as_ref()
                .map(|s| FieldGrid::new(s, diameter))
        });
        let central: [f64; 4] = std::array::from_fn(|i| self.central_knob(i));
        let mut entries = vec![([0; 4], 0); dies.len()];
        let parts = entries
            .chunks_mut(part_len)
            .zip(dies.chunks(part_len))
            .enumerate();
        let threads = parts.len();
        ordered(
            parts,
            threads,
            usize::MAX,
            |(p, (entries, dies))| {
                for (k, (entry, die)) in entries.iter_mut().zip(dies).enumerate() {
                    let knobs: [f64; 4] = std::array::from_fn(|i| match &fields[i] {
                        Some(field) => snapped_knob(i, field, die),
                        None => central[i],
                    });
                    *entry = (knobs.map(f64::to_bits), (p * part_len + k) as u32);
                }
            },
            |()| true,
        );
        entries
    }

    /// Evaluate each distinct tuple of the sorted `entries` exactly once,
    /// in up to `parts` ranges that split between tuples, and scatter its
    /// yield to the tuple's dies. Returns the per-die yields and the
    /// number of distinct tuples.
    ///
    /// # Errors
    ///
    /// The error of the first failing die in die order: sorting on the die
    /// number too puts each tuple's first die first, and a failure is a
    /// function of the tuple alone.
    fn evaluate(&self, entries: &[(Key, u32)], parts: usize) -> Result<(Vec<AtomicU64>, u64)> {
        let n = entries.len();
        let mut cuts = vec![0];
        for p in 1..parts {
            let mut cut = (p * n / parts).max(cuts[cuts.len() - 1]);
            while cut < n && entries[cut].0 == entries[cut - 1].0 {
                cut += 1;
            }
            cuts.push(cut);
        }
        cuts.push(n);
        let ranges: Vec<_> = cuts
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| &entries[w[0]..w[1]])
            .collect();
        // Each die's slot is stored once. `Relaxed` suffices: the scoped
        // threads are joined before any slot is read.
        let yields: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let mut distinct = 0;
        let mut failure: Option<(u32, PipelineError)> = None;
        ordered(
            ranges,
            parts,
            usize::MAX,
            |range| {
                let mut distinct = 0_u64;
                let mut failure: Option<(u32, PipelineError)> = None;
                for group in range.chunk_by(|a, b| a.0 == b.0) {
                    distinct += 1;
                    let first_die = group[0].1;
                    if failure.as_ref().is_some_and(|(die, _)| *die < first_die) {
                        continue;
                    }
                    match self.die_yield(group[0].0.map(f64::from_bits)) {
                        Ok(y) => {
                            for &(_, die) in group {
                                yields[die as usize].store(y.to_bits(), Ordering::Relaxed);
                            }
                        }
                        Err(e) => failure = Some((first_die, e)),
                    }
                }
                (distinct, failure)
            },
            |(count, range_failure)| {
                distinct += count;
                if let Some((die, e)) = range_failure {
                    if failure.as_ref().is_none_or(|(first, _)| die < *first) {
                        failure = Some((die, e));
                    }
                }
                true
            },
        );
        match failure {
            Some((_, e)) => Err(e),
            None => Ok((yields, distinct)),
        }
    }

    /// The report over `dies` dies whose chunk aggregates merged into
    /// `total`.
    fn report(
        &self,
        spec: &WaferSpec,
        dies: usize,
        total: &ChunkAgg,
        distinct: u64,
    ) -> WaferReport {
        let n = dies as u64;
        let radial = (0..RADIAL_BANDS)
            .map(|i| RadialBand {
                r_lo: i as f64 / RADIAL_BANDS as f64,
                r_hi: (i + 1) as f64 / RADIAL_BANDS as f64,
                dies: total.band_dies[i],
                mean_yield: if total.band_dies[i] > 0 {
                    total.band_sum[i] / total.band_dies[i] as f64
                } else {
                    0.0
                },
            })
            .collect();
        WaferReport {
            name: spec.name.clone(),
            seed: self.seed,
            diameter_dies: spec.diameter_dies,
            dies: n,
            w_design_nm: self.w_design,
            overall_yield: if n > 0 {
                total.sum_yield / n as f64
            } else {
                0.0
            },
            min_die_yield: if n > 0 { total.min_yield } else { 0.0 },
            max_die_yield: if n > 0 { total.max_yield } else { 0.0 },
            distinct_scenarios: distinct,
            bins: total.bins.to_vec(),
            radial,
        }
    }
}

/// A die's quantized knob tuple as bit patterns: the sort key that groups
/// dies sharing a scenario.
type Key = [u64; 4];

/// Knob `knob`'s quantized value on `die`. The field grid's enclosure
/// decides it when both ends snap to the same value — [`knob::snap`] is
/// monotone, so the exact realization inside snaps there too — and the
/// exact realization answers otherwise.
fn snapped_knob(knob: usize, grid: &FieldGrid, die: &Die) -> f64 {
    let (lo, hi) = grid.enclose(die.col, die.row, die.r);
    let v = knob::snap(knob, lo);
    if lo == hi || knob::snap(knob, hi) == v {
        v
    } else {
        knob::snap(knob, grid.realize(die.col, die.row, die.r))
    }
}

/// The wafer evaluator over a shared [`Pipeline`].
///
/// A run has three phases, each split into at most `workers` parts run on
/// the [`ordered`] executor (one thread per part, the first the calling
/// thread) with no memo:
///
/// 1. every die's quantized knob tuple is realized into one
///    `(key, die)` vector, filled in place over fixed 1024-die chunks;
/// 2. one `sort_unstable` groups the dies by tuple, and each distinct
///    tuple is evaluated exactly once, on ranges that split between
///    tuples;
/// 3. die yields are aggregated per chunk and merged in chunk order.
///
/// So any worker count streams to the same report — and to the same
/// error, the one of the first failing die in die order.
pub struct WaferEngine<'a> {
    pipeline: &'a Pipeline,
}

impl<'a> WaferEngine<'a> {
    /// An engine over the given pipeline (shares its caches).
    pub fn new(pipeline: &'a Pipeline) -> Self {
        Self { pipeline }
    }

    /// Solve the central base for `W_design` and seed the knob samplers.
    fn prepare(&self, spec: &WaferSpec, seed: u64) -> Result<WaferRun> {
        spec.validate()?;
        let seed = spec.seed.unwrap_or(seed);

        // One design for the whole wafer: solve the central base.
        let central = spec.central_base()?;
        let base_report = self.pipeline.evaluate(&central, seed)?;
        let w_design = base_report.w_min_nm;

        // Per-run constants. `p_at_w_min` is pF(W_design) under the base
        // corner/backend — the per-die variation enters through the row
        // relaxation and M_min, not the failure curve.
        let base_node = central.library.node_nm();
        let rho_base = match central.rho {
            RhoSpec::Paper => paper::RHO_MIN_FET_PER_UM,
            RhoSpec::Measured => {
                self.pipeline
                    .design_stats(central.library, central.fast_design)?
                    .rho_per_um
            }
        };
        // Fault constants: the short hook needs the mean CNT count at
        // W_design under the *spec* corner (removal mode folds purity
        // into the corner inside `evaluate` and leaves no per-die term).
        let fault = if central.fault_active() {
            let short_n_bar = match central.purity.mode {
                PurityMode::Short => {
                    let fm = FailureModel::paper_default(central.corner.corner()?)?;
                    Some(fm.mean_count(w_design)?)
                }
                PurityMode::Removal => None,
            };
            Some(WaferFault {
                short_n_bar,
                redundancy: central.redundancy,
                mc: McFallback {
                    seed: split_seed(seed, WAFER_FAULT_SALT),
                    workers: 1,
                    precision: McPrecision::default(),
                },
            })
        } else {
            None
        };
        // Seed one sampler per knob; die draws key off the full-grid die
        // index inside the sampler, so they are position-stable.
        let knob_base = split_seed(seed, knob::KNOB_SALT);
        let mut samplers: [Option<FieldSampler>; 4] = [None, None, None, None];
        for (i, sampler) in samplers.iter_mut().enumerate() {
            if let Some(field) = spec.effective_field(i) {
                *sampler = Some(
                    field
                        .sampler(split_seed(knob_base, i as u64))
                        .map_err(|e| invalid("fields", e.to_string()))?,
                );
            }
        }
        Ok(WaferRun {
            seed,
            w_design,
            p_at_w: base_report.p_at_w_min,
            rho_scaled: rho_base * base_node / central.node_nm,
            grid_division: central.grid.benefit_division(),
            m_transistors: central.m_transistors,
            base_m_min: base_report.m_min,
            fault,
            central,
            samplers,
        })
    }

    /// Run the wafer workload: solve the central base scenario for
    /// `W_design`, then stream every die through the field realizations.
    ///
    /// `seed` drives the realization unless the spec pins its own;
    /// `workers` is purely a wall-clock knob (the report is byte-identical
    /// for any value).
    ///
    /// # Errors
    ///
    /// Propagates validation, model, and solver errors. When dies fail,
    /// the error is that of the first failing die in die order.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or a worker thread panics.
    pub fn run(&self, spec: &WaferSpec, seed: u64, workers: usize) -> Result<WaferReport> {
        assert!(workers > 0, "wafer engine requires at least one worker");
        let run = self.prepare(spec, seed)?;
        let dies = die_positions(spec.diameter_dies);
        let chunks = dies.len().div_ceil(CHUNK_DIES).max(1);
        let parts = workers.min(chunks);
        // Each part is a run of whole chunks.
        let part_len = chunks.div_ceil(parts) * CHUNK_DIES;

        let mut entries = run.realize(spec.diameter_dies, &dies, part_len);
        entries.sort_unstable();
        let (yields, distinct) = run.evaluate(&entries, parts)?;

        // Aggregate per chunk, merged in chunk order — the determinism
        // barrier.
        let mut total = ChunkAgg::new();
        ordered(
            dies.chunks(part_len).zip(yields.chunks(part_len)),
            parts,
            usize::MAX,
            |(dies, yields)| {
                dies.chunks(CHUNK_DIES)
                    .zip(yields.chunks(CHUNK_DIES))
                    .map(|(dies, yields)| {
                        let mut agg = ChunkAgg::new();
                        for (die, y) in dies.iter().zip(yields) {
                            agg.add(f64::from_bits(y.load(Ordering::Relaxed)), die.r);
                        }
                        agg
                    })
                    .collect::<Vec<_>>()
            },
            |aggs| {
                aggs.iter().for_each(|agg| total.merge(agg));
                true
            },
        );
        Ok(run.report(spec, dies.len(), &total, distinct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackendSpec, CorrelationSpec, PuritySpec};

    fn fast_base() -> ScenarioSpec {
        let mut base = ScenarioSpec::baseline("wafer-test");
        base.backend = BackendSpec::GaussianSum;
        base.fast_design = true;
        base.rho = RhoSpec::Paper;
        base.correlation = CorrelationSpec::GrowthAlignedLayout;
        base
    }

    fn demo_spec(diameter: u32) -> WaferSpec {
        let mut spec = WaferSpec::new("demo", diameter, fast_base());
        spec.fields[0] = Some(FieldSpec {
            dist: DistSpec::Gaussian { mean: 1.0, sd: 0.1 },
            trend: -0.15,
            noise_sd: 0.05,
            correlation_dies: 6.0,
            clamp_lo: 0.2,
            clamp_hi: 3.0,
        });
        spec.fields[1] = Some(FieldSpec::from_dist(DistSpec::Uniform {
            lo: 150.0,
            hi: 250.0,
        }));
        spec
    }

    #[test]
    fn die_grid_fills_the_inscribed_circle() {
        assert_eq!(die_positions(1).len(), 1);
        let d = die_positions(40);
        let area = std::f64::consts::PI / 4.0 * 40.0 * 40.0;
        assert!(
            (d.len() as f64 - area).abs() < 0.05 * area,
            "{} dies vs {area}",
            d.len()
        );
        for die in &d {
            assert!(die.r <= 1.0);
        }
        // Cells are unique and row-major increasing.
        assert!(d
            .windows(2)
            .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)));
    }

    #[test]
    fn wafer_spec_round_trips() {
        let mut spec = demo_spec(24);
        spec.seed = Some(99);
        let wire = spec.to_json();
        assert_eq!(WaferSpec::from_json(&wire).unwrap(), spec);
        // And the serialized text form round-trips too.
        assert_eq!(WaferSpec::parse(&wire.to_string_pretty()).unwrap(), spec);
    }

    #[test]
    fn wafer_spec_rejects_bad_documents() {
        assert!(WaferSpec::parse(r#"{ "diameter_dies": 0 }"#).is_err());
        assert!(WaferSpec::parse(r#"{ "diamter_dies": 10 }"#)
            .unwrap_err()
            .to_string()
            .contains("did you mean `diameter_dies`"));
        let err = WaferSpec::parse(r#"{ "diameter_dies": 10, "fields": { "densty": 1.0 } }"#)
            .unwrap_err();
        assert!(err.to_string().contains("did you mean `density`"), "{err}");
        assert!(WaferSpec::parse(
            r#"{ "diameter_dies": 10,
                 "base": { "m_min": "self-consistent" },
                 "fields": { "m_min": { "uniform": { "lo": 0.2, "hi": 0.4 } } } }"#,
        )
        .is_err());
    }

    #[test]
    fn report_is_byte_identical_across_worker_counts() {
        let spec = demo_spec(28);
        let p = Pipeline::new();
        let engine = WaferEngine::new(&p);
        let one = engine.run(&spec, 7, 1).unwrap();
        let four = engine.run(&spec, 7, 4).unwrap();
        assert_eq!(one, four);
        assert_eq!(
            one.to_json().to_string_pretty(),
            four.to_json().to_string_pretty()
        );
        assert_eq!(one.dies, spec.die_count());
        assert_eq!(one.bins.iter().sum::<u64>(), one.dies);
        assert_eq!(one.radial.iter().map(|b| b.dies).sum::<u64>(), one.dies);
        assert!(one.min_die_yield <= one.overall_yield);
        assert!(one.overall_yield <= one.max_die_yield);
        assert!(one.distinct_scenarios > 1 && one.distinct_scenarios <= one.dies);
        // A different seed realizes a different wafer.
        let other = engine.run(&spec, 8, 2).unwrap();
        assert_ne!(one.overall_yield, other.overall_yield);
    }

    #[test]
    fn quantization_collapses_tight_fields() {
        // Clamped to [0.9, 1.1], the relative 2⁻¹⁰ grid holds ~300
        // representable points — far fewer than the wafer's dies — so the
        // dies must share scenarios by pigeonhole.
        let mut spec = WaferSpec::new("tight", 28, fast_base());
        spec.fields[0] = Some(FieldSpec {
            dist: DistSpec::Gaussian {
                mean: 1.0,
                sd: 0.08,
            },
            trend: 0.0,
            noise_sd: 0.0,
            correlation_dies: 8.0,
            clamp_lo: 0.9,
            clamp_hi: 1.1,
        });
        let p = Pipeline::new();
        let report = WaferEngine::new(&p).run(&spec, 11, 2).unwrap();
        assert!(
            report.distinct_scenarios < report.dies / 2,
            "{} distinct of {} dies",
            report.distinct_scenarios,
            report.dies
        );
    }

    #[test]
    fn deterministic_base_wafer_is_uniform() {
        // No fields, all-fixed base: every die is the same scenario.
        let spec = WaferSpec::new("flat", 16, fast_base());
        let p = Pipeline::new();
        let report = WaferEngine::new(&p).run(&spec, 3, 2).unwrap();
        assert_eq!(report.distinct_scenarios, 1);
        assert!((report.min_die_yield - report.max_die_yield).abs() < 1e-15);
        // At W_design the base scenario meets its yield target.
        assert!(
            (report.overall_yield - spec.base.yield_target).abs() < 0.01,
            "yield {} vs target {}",
            report.overall_yield,
            spec.base.yield_target
        );
    }

    #[test]
    fn purity_field_drives_redundancy_recovered_die_yield() {
        // A per-die s-CNT purity field (short mode) must move die yield
        // through the redundancy compose path, deterministically for any
        // worker count. The field spans four decades of impurity, so the
        // wafer holds both near-clean dies that meet the target under TMR
        // and dirty dies that miss it outright.
        let mut spec = WaferSpec::new("fault", 20, fast_base());
        spec.base.purity = PuritySpec {
            dist: DistSpec::Fixed(1.0 - 1e-7),
            mode: PurityMode::Short,
        };
        spec.base.redundancy = RedundancyScheme::Tmr;
        spec.fields[3] = Some(FieldSpec::from_dist(DistSpec::Uniform {
            lo: 0.99999,
            hi: 0.999999999,
        }));
        assert!(spec.validate().is_ok());
        let p = Pipeline::new();
        let engine = WaferEngine::new(&p);
        let one = engine.run(&spec, 7, 1).unwrap();
        let four = engine.run(&spec, 7, 4).unwrap();
        assert_eq!(one, four);
        assert!(
            one.max_die_yield - one.min_die_yield > 0.1,
            "purity spread must separate die yields: min {} max {}",
            one.min_die_yield,
            one.max_die_yield
        );

        // Removal-mode purity reshapes the failure curve, which is solved
        // once per wafer — a per-die purity field must be rejected.
        spec.base.purity.mode = PurityMode::Removal;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn radial_trend_shows_in_the_profile() {
        // Strong negative density trend lowers ρ at the edge, which
        // *raises* the relaxation and with it edge yield — the profile
        // must be monotone in the trend's direction, not flat.
        let mut spec = WaferSpec::new("trend", 32, fast_base());
        spec.fields[0] = Some(FieldSpec {
            dist: DistSpec::Fixed(1.0),
            trend: 0.8,
            noise_sd: 0.0,
            correlation_dies: 8.0,
            clamp_lo: 0.2,
            clamp_hi: 3.0,
        });
        let p = Pipeline::new();
        let report = WaferEngine::new(&p).run(&spec, 5, 2).unwrap();
        let center = report.radial.first().unwrap().mean_yield;
        let edge = report.radial.last().unwrap().mean_yield;
        assert!(
            (center - edge).abs() > 1e-6,
            "trend must move the profile: center {center} vs edge {edge}"
        );
        let report_json = report.to_json();
        assert_eq!(
            Json::parse(&report_json.to_string_compact()).unwrap(),
            report_json
        );
    }

    /// The wafer the slow way: every die realized exactly, snapped and
    /// evaluated in die order — stopping at the first failing die — then
    /// aggregated chunk by chunk.
    fn reference(spec: &WaferSpec, seed: u64) -> Result<WaferReport> {
        let p = Pipeline::new();
        let run = WaferEngine::new(&p).prepare(spec, seed)?;
        let d = spec.diameter_dies;
        let dies = die_positions(d);
        let mut scenarios = std::collections::BTreeSet::new();
        let mut total = ChunkAgg::new();
        for chunk in dies.chunks(CHUNK_DIES) {
            let mut agg = ChunkAgg::new();
            for die in chunk {
                let knobs: [f64; 4] = std::array::from_fn(|i| match &run.samplers[i] {
                    Some(s) => knob::snap(
                        i,
                        s.realize(
                            u64::from(die.row) * u64::from(d) + u64::from(die.col),
                            grid_coordinate(d, die.col),
                            grid_coordinate(d, die.row),
                            die.r,
                        ),
                    ),
                    None => run.central_knob(i),
                });
                agg.add(run.die_yield(knobs)?, die.r);
                scenarios.insert(knobs.map(f64::to_bits));
            }
            total.merge(&agg);
        }
        Ok(run.report(spec, dies.len(), &total, scenarios.len() as u64))
    }

    /// Knob realizations of `spec` whose enclosure ends snap apart — the
    /// dies where the engine falls back to the exact realization.
    fn fallbacks(spec: &WaferSpec, seed: u64) -> usize {
        let p = Pipeline::new();
        let run = WaferEngine::new(&p).prepare(spec, seed).unwrap();
        let dies = die_positions(spec.diameter_dies);
        let mut count = 0;
        for (i, sampler) in run.samplers.iter().enumerate() {
            let Some(field) = sampler
                .as_ref()
                .map(|s| FieldGrid::new(s, spec.diameter_dies))
            else {
                continue;
            };
            for die in &dies {
                let (lo, hi) = field.enclose(die.col, die.row, die.r);
                count += usize::from(knob::snap(i, lo) != knob::snap(i, hi));
            }
        }
        count
    }

    #[test]
    fn wafer_matches_the_per_die_reference() {
        // A white-noise density field (correlation length far below a die
        // pitch) widens the certified enclosure until many dies straddle a
        // quantization boundary and take the exact fallback.
        let mut white = demo_spec(24);
        white.fields[0] = Some(FieldSpec {
            noise_sd: 0.5,
            correlation_dies: 1e-9,
            ..white.fields[0].unwrap()
        });
        let fallbacks_taken = fallbacks(&white, 5);
        assert!(
            fallbacks_taken > 10 && fallbacks_taken < white.die_count() as usize / 2,
            "{fallbacks_taken} fallbacks over {} dies",
            white.die_count()
        );
        let mut single = demo_spec(1);
        single.fields[1] = Some(FieldSpec {
            noise_sd: 0.2,
            correlation_dies: 0.5,
            ..FieldSpec::from_dist(DistSpec::Uniform {
                lo: 150.0,
                hi: 250.0,
            })
        });
        let mut tmr = WaferSpec::new("fault", 20, fast_base());
        tmr.base.purity = PuritySpec {
            dist: DistSpec::Fixed(1.0 - 1e-7),
            mode: PurityMode::Short,
        };
        tmr.base.redundancy = RedundancyScheme::Tmr;
        tmr.fields[3] = Some(FieldSpec {
            noise_sd: 0.3,
            correlation_dies: 3.0,
            ..FieldSpec::from_dist(DistSpec::Uniform {
                lo: 0.99999,
                hi: 0.999999999,
            })
        });
        for (spec, seed) in [(demo_spec(28), 7), (white, 5), (single, 9), (tmr, 7)] {
            let want = reference(&spec, seed).unwrap();
            let want_bytes = want.to_json().to_string_pretty();
            for workers in [1, 2, 4] {
                let p = Pipeline::new();
                let got = WaferEngine::new(&p).run(&spec, seed, workers).unwrap();
                assert_eq!(got, want, "`{}` at {workers} workers", spec.name);
                assert_eq!(got.to_json().to_string_pretty(), want_bytes);
            }
        }
    }

    #[test]
    fn wafer_error_is_the_first_failing_die_for_any_worker_count() {
        // Sub-micron CNT lengths break the row model on some dies; which
        // die's error comes back must not depend on thread timing.
        let mut spec = WaferSpec::new("failing", 360, fast_base());
        spec.fields[1] = Some(FieldSpec {
            dist: DistSpec::Uniform { lo: 0.3, hi: 0.9 },
            trend: 3.0,
            noise_sd: 0.1,
            correlation_dies: 4.0,
            clamp_lo: f64::NEG_INFINITY,
            clamp_hi: f64::INFINITY,
        });
        let want = reference(&spec, 3).unwrap_err().to_string();
        assert!(want.contains("`m_r_min` = 0.96943359375"), "{want}");
        for workers in [1, 2, 4] {
            let p = Pipeline::new();
            let got = WaferEngine::new(&p).run(&spec, 3, workers).unwrap_err();
            assert_eq!(got.to_string(), want, "{workers} workers");
        }
    }

    #[test]
    fn flat_mc_compose_wafer_evaluates_one_scenario() {
        // Past the exact-term limit a repairable-tile die pays a
        // Monte-Carlo compose; on a flat wafer every die shares one
        // scenario, so the run pays exactly one.
        let mut spec = WaferSpec::new("flat-tile", 40, fast_base());
        spec.base.redundancy = RedundancyScheme::RepairableTile {
            tiles: 16_384,
            spare_tiles: 8_192,
            test_coverage: 0.999,
        };
        let p = Pipeline::new();
        let engine = WaferEngine::new(&p);
        let one = engine.run(&spec, 3, 1).unwrap();
        let four = engine.run(&spec, 3, 4).unwrap();
        assert_eq!(one.distinct_scenarios, 1);
        assert_eq!(one.dies, spec.die_count());
        assert_eq!(
            one.to_json().to_string_pretty(),
            four.to_json().to_string_pretty()
        );
    }
}
