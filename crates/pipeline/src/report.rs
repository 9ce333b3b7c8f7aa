//! Structured scenario results and artifact emission.
//!
//! A [`ScenarioReport`] is a pure function of `(spec, seed)` — it carries
//! no volatile provenance (cache warmth, shared counters), so repeated
//! evaluations and sweeps at any worker count serialize byte-identically.
//! Shared-cache provenance lives on
//! [`crate::engine::Pipeline::cache_stats`] instead.

use crate::json::Json;
use crate::Result;
use std::path::{Path, PathBuf};

/// Provenance of a Monte-Carlo-backend evaluation: how much simulation a
/// scenario consumed and how tight the estimate at `W_min` is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McBackendReport {
    /// Total trials across every width the solve touched.
    pub trials: u64,
    /// Distinct widths evaluated stochastically.
    pub widths_evaluated: u64,
    /// Confidence-interval lower bound of `pF(W_min)`.
    pub ci_lo: f64,
    /// Confidence-interval upper bound of `pF(W_min)`.
    pub ci_hi: f64,
    /// Confidence level of the bounds.
    pub ci_level: f64,
    /// Whether every width met the precision target before `max_trials`.
    pub converged: bool,
}

impl McBackendReport {
    /// Serialize as the nested `mc` provenance object.
    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("trials".into(), Json::Num(self.trials as f64)),
            (
                "widths_evaluated".into(),
                Json::Num(self.widths_evaluated as f64),
            ),
            ("ci_lo".into(), Json::Num(self.ci_lo)),
            ("ci_hi".into(), Json::Num(self.ci_hi)),
            ("ci_level".into(), Json::Num(self.ci_level)),
            ("converged".into(), Json::Bool(self.converged)),
        ])
    }
}

/// Provenance of the fault subsystem: what the purity/redundancy knobs
/// did to this scenario's solve (present iff the spec activated them).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Realized s-CNT purity.
    pub purity: f64,
    /// Purity defect mode (`short`, `removal`).
    pub mode: String,
    /// Per-transistor metallic-short probability at the solved `W_min`
    /// (0 in `removal` mode — metallic CNTs thin the count instead).
    pub p_short: f64,
    /// Redundancy scheme kind (`none`, `tmr`, …).
    pub scheme: String,
    /// Area multiplier the scheme charges (≥ 1).
    pub area_overhead: f64,
    /// Per-cell failure budget after redundancy recovery — what the
    /// width solve targets instead of the raw chip-yield inversion.
    pub p_budget: f64,
    /// Effective chip yield after redundancy recovery at the solved
    /// operating point.
    pub recovered_yield: f64,
    /// Yield shortfall `max(0, target − recovered)`: 0 when the solve
    /// met the target, positive when purity defects made it infeasible.
    pub shortfall: f64,
    /// How the recovered yield was composed (`exact`, `monte-carlo`).
    pub method: String,
    /// Whether the solve met the yield target.
    pub met_target: bool,
}

impl FaultReport {
    /// Serialize as the nested `fault` provenance object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("purity".into(), Json::Num(self.purity)),
            ("mode".into(), Json::Str(self.mode.clone())),
            ("p_short".into(), Json::Num(self.p_short)),
            ("scheme".into(), Json::Str(self.scheme.clone())),
            ("area_overhead".into(), Json::Num(self.area_overhead)),
            ("p_budget".into(), Json::Num(self.p_budget)),
            ("recovered_yield".into(), Json::Num(self.recovered_yield)),
            ("shortfall".into(), Json::Num(self.shortfall)),
            ("method".into(), Json::Str(self.method.clone())),
            ("met_target".into(), Json::Bool(self.met_target)),
        ])
    }
}

/// The evaluated outcome of one [`crate::spec::ScenarioSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub name: String,
    /// The seed the sweep assigned (drives the optional MC cross-check).
    pub seed: u64,
    /// Library name.
    pub library: String,
    /// Technology node (nm).
    pub node_nm: f64,
    /// Processing-corner label.
    pub corner: String,
    /// Correlation-scenario name.
    pub correlation: String,
    /// Count back-end name.
    pub backend: String,
    /// Yield target.
    pub yield_target: f64,
    /// Chip transistor count `M`.
    pub m_transistors: f64,
    /// Minimum-sized device count `M_min` (fixed or self-consistent).
    pub m_min: f64,
    /// Row size `M_Rmin` of the Eq. (3.2) model.
    pub m_r_min: f64,
    /// Requirement relaxation applied (1 = uncorrelated).
    pub relaxation: f64,
    /// The device-level requirement `pF_req`.
    pub p_req: f64,
    /// The solved upsizing threshold (nm).
    pub w_min_nm: f64,
    /// Achieved `pF(W_min)`.
    pub p_at_w_min: f64,
    /// Gate-capacitance upsizing penalty.
    pub upsizing_penalty: f64,
    /// Conditional-MC estimate of the non-aligned row failure probability
    /// (when the spec requested trials).
    pub unaligned_p_rf_mc: Option<f64>,
    /// Monte-Carlo-backend provenance: trials used and the CI of
    /// `pF(W_min)` (present iff the scenario ran the `monte-carlo`
    /// back-end).
    pub mc: Option<McBackendReport>,
    /// Fault-subsystem provenance: purity defects and redundancy
    /// recovery (present iff the spec activated either knob).
    pub fault: Option<FaultReport>,
}

impl ScenarioReport {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("seed".into(), Json::from_u64(self.seed)),
            ("library".into(), Json::Str(self.library.clone())),
            ("node_nm".into(), Json::Num(self.node_nm)),
            ("corner".into(), Json::Str(self.corner.clone())),
            ("correlation".into(), Json::Str(self.correlation.clone())),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("yield_target".into(), Json::Num(self.yield_target)),
            ("m_transistors".into(), Json::Num(self.m_transistors)),
            ("m_min".into(), Json::Num(self.m_min)),
            ("m_r_min".into(), Json::Num(self.m_r_min)),
            ("relaxation".into(), Json::Num(self.relaxation)),
            ("p_req".into(), Json::Num(self.p_req)),
            ("w_min_nm".into(), Json::Num(self.w_min_nm)),
            ("p_at_w_min".into(), Json::Num(self.p_at_w_min)),
            ("upsizing_penalty".into(), Json::Num(self.upsizing_penalty)),
        ];
        if let Some(p) = self.unaligned_p_rf_mc {
            fields.push(("unaligned_p_rf_mc".into(), Json::Num(p)));
        }
        if let Some(mc) = self.mc {
            fields.push(("mc".into(), mc.to_json()));
        }
        if let Some(fault) = &self.fault {
            fields.push(("fault".into(), fault.to_json()));
        }
        Json::Obj(fields)
    }
}

/// One evaluated co-optimization candidate, as it appears in Pareto
/// artifacts: the axis choices that produced it plus the solved metrics
/// and its two ranking scalars (process demand, scalarized cost).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoPoint {
    /// The candidate's self-describing scenario name
    /// (`<study>/<key>=<value>/…`).
    pub scenario: String,
    /// The axis choice indices, in spec axis order (the candidate's
    /// canonical identity within the search space).
    pub choice: Vec<u64>,
    /// Normalized process-demand index in `[0, 1]` (0 = least demanding
    /// value on every axis).
    pub demand: f64,
    /// The scalarized circuit cost (`cnfet_core::objective::CostWeights`).
    pub cost: f64,
    /// The solved upsizing threshold (nm).
    pub w_min_nm: f64,
    /// The gate-capacitance upsizing penalty at that threshold.
    pub upsizing_penalty: f64,
    /// The device-level requirement the solve imposed.
    pub p_req: f64,
    /// The achieved `pF(W_min)`.
    pub p_at_w_min: f64,
    /// The correlation relaxation factor the candidate enjoyed.
    pub relaxation: f64,
}

impl ParetoPoint {
    /// True when `self` Pareto-dominates `other` over the minimized
    /// `(demand, cost)` pair: no worse on both, strictly better on one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.demand <= other.demand
            && self.cost <= other.cost
            && (self.demand < other.demand || self.cost < other.cost)
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::Str(self.scenario.clone())),
            (
                "choice".into(),
                Json::Arr(self.choice.iter().map(|&i| Json::Num(i as f64)).collect()),
            ),
            ("demand".into(), Json::Num(self.demand)),
            ("cost".into(), Json::Num(self.cost)),
            ("w_min_nm".into(), Json::Num(self.w_min_nm)),
            ("upsizing_penalty".into(), Json::Num(self.upsizing_penalty)),
            ("p_req".into(), Json::Num(self.p_req)),
            ("p_at_w_min".into(), Json::Num(self.p_at_w_min)),
            ("relaxation".into(), Json::Num(self.relaxation)),
        ])
    }
}

/// The non-dominated frontier of an evaluated candidate set, minimized
/// over `(process demand, circuit cost)` — the trade study a design team
/// reads off a co-optimization run.
///
/// Construction prunes dominated points and orders the survivors by
/// ascending demand (ties by cost, then scenario name), so the front is a
/// deterministic, diffable artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParetoFront {
    points: Vec<ParetoPoint>,
}

impl ParetoFront {
    /// Build the front from every evaluated candidate, pruning dominated
    /// points.
    pub fn from_points(mut candidates: Vec<ParetoPoint>) -> Self {
        candidates.sort_by(|a, b| {
            a.demand
                .total_cmp(&b.demand)
                .then(a.cost.total_cmp(&b.cost))
                .then(a.scenario.cmp(&b.scenario))
        });
        let mut points: Vec<ParetoPoint> = Vec::new();
        for candidate in candidates {
            if points.iter().any(|kept| kept.dominates(&candidate)) {
                continue;
            }
            // A later candidate never dominates an earlier kept one under
            // the (demand asc, cost asc) sort, so one forward pass is
            // enough; equal (demand, cost) duplicates collapse to the
            // first by scenario order.
            if points
                .iter()
                .any(|kept| kept.demand == candidate.demand && kept.cost == candidate.cost)
            {
                continue;
            }
            points.push(candidate);
        }
        Self { points }
    }

    /// The surviving points, ascending by demand.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of non-dominated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the front is empty (no candidates were evaluated).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Serialize as a JSON array of points.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.points.iter().map(ParetoPoint::to_json).collect())
    }
}

/// One precision rung of a successive-halving ladder: how loose the
/// Monte-Carlo confidence target was, how many fresh evaluations the rung
/// spent, and how many candidates it promoted to the next-tighter rung.
#[derive(Debug, Clone, PartialEq)]
pub struct RungReport {
    /// Factor the spec's `rel_ci` was relaxed by on this rung (1 = the
    /// spec's own precision).
    pub relax: f64,
    /// Fresh candidate evaluations spent on this rung.
    pub evaluations: u64,
    /// Candidates promoted to the next rung (0 on the final rung).
    pub promoted: u64,
}

impl RungReport {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("relax".into(), Json::Num(self.relax)),
            ("evaluations".into(), Json::Num(self.evaluations as f64)),
            ("promoted".into(), Json::Num(self.promoted as f64)),
        ])
    }
}

/// Search provenance of an adaptive run: generations evolved, how many
/// evaluations ran at coarse vs full Monte-Carlo precision, and the
/// per-rung promotion ledger of a halving ladder. Like everything else in
/// the report it is a pure function of `(spec, seed)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchReport {
    /// Generations a population-based searcher evolved (0 for a plain
    /// initial-population scan).
    pub generations: u64,
    /// Fresh evaluations that ran at relaxed (coarse) MC precision.
    pub coarse_evaluations: u64,
    /// Fresh evaluations that ran at the spec's own (full) precision —
    /// the same count as the report's top-level `evaluations`.
    pub final_evaluations: u64,
    /// The precision ladder, coarsest rung first (empty without halving).
    pub rungs: Vec<RungReport>,
}

impl SearchReport {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("generations".into(), Json::Num(self.generations as f64)),
            (
                "coarse_evaluations".into(),
                Json::Num(self.coarse_evaluations as f64),
            ),
            (
                "final_evaluations".into(),
                Json::Num(self.final_evaluations as f64),
            ),
            (
                "rungs".into(),
                Json::Arr(self.rungs.iter().map(RungReport::to_json).collect()),
            ),
        ])
    }
}

/// The artifact of one co-optimization run: provenance, the best
/// candidate by scalarized cost, and the Pareto front over everything the
/// searcher evaluated. A pure function of `(spec, seed)` — worker counts
/// never change a byte.
#[derive(Debug, Clone, PartialEq)]
pub struct CoOptReport {
    /// Study name (from the spec).
    pub name: String,
    /// The strategy that ran (`grid`, `coordinate-descent`, `genetic`,
    /// `halving+…`).
    pub searcher: String,
    /// The base seed of the run.
    pub seed: u64,
    /// Size of the declared search space.
    pub candidates: u64,
    /// Distinct candidates evaluated at the spec's own (full) precision —
    /// the ones the `best`/`front` fields are built from.
    pub evaluations: u64,
    /// Adaptive-search provenance (generations, precision rungs); absent
    /// for the non-adaptive grid and coordinate-descent strategies.
    pub search: Option<SearchReport>,
    /// The minimum-cost evaluated candidate (ties broken by canonical
    /// choice order).
    pub best: ParetoPoint,
    /// The non-dominated frontier over every evaluated candidate.
    pub front: ParetoFront,
}

impl CoOptReport {
    /// Serialize as a JSON object (the `search` block is omitted, not
    /// nulled, for non-adaptive runs — old artifacts stay byte-stable).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("searcher".into(), Json::Str(self.searcher.clone())),
            ("seed".into(), Json::from_u64(self.seed)),
            ("candidates".into(), Json::Num(self.candidates as f64)),
            ("evaluations".into(), Json::Num(self.evaluations as f64)),
        ];
        if let Some(search) = &self.search {
            fields.push(("search".into(), search.to_json()));
        }
        fields.push(("best".into(), self.best.to_json()));
        fields.push(("front".into(), self.front.to_json()));
        Json::Obj(fields)
    }
}

/// Sanitize a scenario name into a filesystem-safe artifact stem.
pub(crate) fn artifact_stem(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if out.is_empty() {
        out.push_str("scenario");
    }
    out
}

/// Write a co-optimization artifact as `<name>.coopt.json`, returning the
/// path. The serialization is pretty-printed with stable key order, so
/// identical reports are byte-identical on disk.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_coopt_report(dir: &Path, report: &CoOptReport) -> Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.coopt.json", artifact_stem(&report.name)));
    std::fs::write(&path, report.to_json().to_string_pretty())?;
    Ok(path)
}

/// Write one JSON artifact per report plus a combined
/// `sweep-summary.json`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reports(dir: &Path, reports: &[ScenarioReport]) -> Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::with_capacity(reports.len() + 1);
    for report in reports {
        let path = dir.join(format!("{}.json", artifact_stem(&report.name)));
        std::fs::write(&path, report.to_json().to_string_pretty())?;
        written.push(path);
    }
    let summary = Json::Arr(reports.iter().map(ScenarioReport::to_json).collect());
    let path = dir.join("sweep-summary.json");
    std::fs::write(&path, summary.to_string_pretty())?;
    written.push(path);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str) -> ScenarioReport {
        ScenarioReport {
            name: name.into(),
            seed: 7,
            library: "nangate45".into(),
            node_nm: 45.0,
            corner: "pm=33%, pRs=30%".into(),
            correlation: "none".into(),
            backend: "convolution".into(),
            yield_target: 0.9,
            m_transistors: 1e8,
            m_min: 33e6,
            m_r_min: 360.0,
            relaxation: 1.0,
            p_req: 3e-9,
            w_min_nm: 155.0,
            p_at_w_min: 2.9e-9,
            upsizing_penalty: 0.11,
            unaligned_p_rf_mc: None,
            mc: None,
            fault: None,
        }
    }

    #[test]
    fn report_serializes_and_reparses() {
        let r = report("a/b c");
        let json = r.to_json();
        let reparsed = Json::parse(&json.to_string_pretty()).unwrap();
        assert_eq!(reparsed.get("w_min_nm").unwrap().as_f64(), Some(155.0));
        assert_eq!(reparsed.get("name").unwrap().as_str(), Some("a/b c"));
        assert!(reparsed.get("unaligned_p_rf_mc").is_none());
        assert!(reparsed.get("mc").is_none());
        assert_eq!(reparsed, json, "reports round-trip through the wire format");
    }

    #[test]
    fn report_round_trips_with_optional_fields() {
        let mut r = report("full");
        r.unaligned_p_rf_mc = Some(4.5e-7);
        r.mc = Some(McBackendReport {
            trials: 1000,
            widths_evaluated: 7,
            ci_lo: 1e-9,
            ci_hi: 2e-9,
            ci_level: 0.95,
            converged: false,
        });
        let json = r.to_json();
        assert_eq!(Json::parse(&json.to_string_pretty()).unwrap(), json);
        assert_eq!(
            json.get("unaligned_p_rf_mc").unwrap().as_f64(),
            Some(4.5e-7)
        );
        assert_eq!(
            json.get("mc").unwrap().get("trials").unwrap().as_f64(),
            Some(1000.0)
        );
    }

    #[test]
    fn mc_provenance_serializes_as_nested_object() {
        let mut r = report("mc");
        r.backend = "monte-carlo".into();
        r.mc = Some(McBackendReport {
            trials: 480_000,
            widths_evaluated: 24,
            ci_lo: 2.6e-9,
            ci_hi: 3.2e-9,
            ci_level: 0.95,
            converged: true,
        });
        let reparsed = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        let mc = reparsed.get("mc").expect("mc object present");
        assert_eq!(mc.get("trials").unwrap().as_f64(), Some(480_000.0));
        assert_eq!(mc.get("converged").unwrap().as_bool(), Some(true));
        assert_eq!(mc.get("ci_hi").unwrap().as_f64(), Some(3.2e-9));
    }

    #[test]
    fn fault_provenance_round_trips() {
        let mut r = report("fault");
        r.fault = Some(FaultReport {
            purity: 0.999_999,
            mode: "short".into(),
            p_short: 3.1e-5,
            scheme: "repairable-tile".into(),
            area_overhead: 1.125,
            p_budget: 6.3e-5,
            recovered_yield: 0.93,
            shortfall: 0.0,
            method: "exact".into(),
            met_target: true,
        });
        let reparsed = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        let fault = reparsed.get("fault").expect("fault object present");
        assert_eq!(
            fault.get("scheme").unwrap().as_str(),
            Some("repairable-tile")
        );
        assert_eq!(fault.get("met_target").unwrap().as_bool(), Some(true));
        assert_eq!(reparsed, r.to_json());
        // Absent on fault-free reports.
        assert!(report("plain").to_json().get("fault").is_none());
    }

    #[test]
    fn artifacts_land_on_disk() {
        let dir = std::env::temp_dir().join(format!("cnfet-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_reports(&dir, &[report("x/y=1"), report("x/y=2")]).unwrap();
        assert_eq!(written.len(), 3);
        for path in &written {
            let body = std::fs::read_to_string(path).unwrap();
            assert!(
                Json::parse(&body).is_ok(),
                "{} must be valid",
                path.display()
            );
        }
        assert!(dir.join("x-y-1.json").is_file());
        assert!(dir.join("sweep-summary.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
