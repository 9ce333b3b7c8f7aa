//! # cnfet-pipeline
//!
//! The unified scenario pipeline: one declarative entry point for every
//! yield computation in the workspace.
//!
//! The DAC 2010 reproduction asks the same underlying question in many
//! shapes — *given a processing corner, a correlation scenario, a library
//! and a node, what `W_min` does the yield target impose and what does the
//! upsizing cost?* Historically each figure/table hand-wired its own
//! growth → device → layout → yield chain; this crate replaces that with:
//!
//! * [`spec::ScenarioSpec`] — a declarative description of one scenario
//!   (process corner × correlation scenario × node × library × yield
//!   target × count back-end), parse/serialize via the dependency-free
//!   JSON-lite of [`json`];
//! * [`spec::ScenarioGrid`] — grid files with defaults, cartesian axes and
//!   explicit scenario lists, so process/circuit co-optimization sweeps
//!   (Hills et al.) are data, not code;
//! * [`engine::Pipeline`] — the evaluator. It caches one memoized
//!   [`cnfet_core::curve::FailureCurve`] per `(corner, backend)`, one
//!   mapped-design statistic per `(library, size)`, and one aligned
//!   library per `(library, grid policy)`, so every consumer shares the
//!   `pF(W)` hot path instead of recomputing it;
//! * [`report`] — structured JSON artifacts for downstream tooling.
//!
//! ## The service layer
//!
//! Long-lived callers (the `repro serve` daemon, co-optimization loops)
//! use the v1 **service API** layered on top:
//!
//! * [`service::YieldService`] — a cloneable handle over one shared
//!   [`engine::Pipeline`] whose curve/design caches are **bounded**
//!   ([`cache::BoundedCache`], capacities in [`engine::CacheConfig`]);
//! * [`envelope`] — versioned `YieldRequest` / `YieldResponse` wire
//!   envelopes (`schema: 1`) with machine-readable
//!   [`envelope::ErrorCode`]s;
//! * [`service::SweepHandle`] — incremental sweep results in
//!   deterministic index order (scenario `i` under the seed
//!   `split_seed(seed, i)` of `cnfet_sim::engine`, for any worker count),
//!   with cooperative cancellation and progress reporting;
//! * [`builder::ScenarioBuilder`] — the typed construction/validation
//!   path that grid files, CLI overrides, and envelopes all share;
//! * [`router::ShardRouter`] — N service shards behind a deterministic
//!   request router: bounded admission queues with backpressure/shedding
//!   ([`envelope::ErrorCode::Overloaded`]), a shared warm tier for hot
//!   results, and client-disconnect cancellation — the concurrent back
//!   end of `repro serve --shards N`.
//!
//! [`engine::Pipeline::evaluate`] is the evaluation path underneath the
//! service: [`service::YieldService::evaluate`] and the wafer engine call
//! it, and sweeps call it with their share of the Monte-Carlo threads.
//!
//! ## Example
//!
//! ```
//! use cnfet_pipeline::{ScenarioGrid, YieldService};
//!
//! # fn main() -> cnfet_pipeline::Result<()> {
//! let grid = ScenarioGrid::parse(r#"{
//!     "defaults": { "backend": "gaussian-sum", "rho": "paper", "fast_design": true },
//!     "axes": { "correlation": ["none", "growth+aligned-layout"] }
//! }"#)?;
//! let reports = YieldService::new()
//!     .sweep(grid.scenarios, 20100613)
//!     .map(|item| item.report)
//!     .collect::<cnfet_pipeline::Result<Vec<_>>>()?;
//! // Correlation shrinks the upsizing threshold (155 nm → 103 nm in the paper).
//! assert!(reports[1].w_min_nm < reports[0].w_min_nm - 30.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod builder;
pub mod cache;
pub mod design;
pub mod engine;
pub mod envelope;
pub mod json;
pub mod knob;
pub mod report;
pub mod router;
pub mod service;
pub mod spec;
pub mod wafer;

use std::error::Error;
use std::fmt;

/// Error type of the scenario pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Malformed grid/spec document.
    Parse {
        /// 1-based line in the source document.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A spec field failed validation.
    InvalidSpec {
        /// The offending field.
        field: &'static str,
        /// The constraint that was violated.
        msg: String,
    },
    /// An unknown key in a spec, grid, or envelope, with the nearest
    /// valid key by edit distance when one is plausible.
    UnknownKey {
        /// What the key names (e.g. `scenario`, `grid`, `request`).
        context: &'static str,
        /// The key as received.
        key: String,
        /// The closest valid key, when the typo is recoverable.
        suggestion: Option<String>,
    },
    /// A malformed request envelope, answered `bad_request` on the wire.
    BadRequest(String),
    /// Underlying yield-model error.
    Core(cnfet_core::CoreError),
    /// Underlying netlist/mapping error.
    Netlist(cnfet_netlist::NetlistError),
    /// Underlying layout error.
    Layout(cnfet_layout::LayoutError),
    /// Filesystem error while writing artifacts.
    Io(std::io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            PipelineError::InvalidSpec { field, msg } => {
                write!(f, "invalid scenario field `{field}`: {msg}")
            }
            PipelineError::UnknownKey {
                context,
                key,
                suggestion,
            } => {
                write!(f, "unknown {context} key `{key}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            PipelineError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            PipelineError::Core(e) => write!(f, "yield-model error: {e}"),
            PipelineError::Netlist(e) => write!(f, "netlist error: {e}"),
            PipelineError::Layout(e) => write!(f, "layout error: {e}"),
            PipelineError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Core(e) => Some(e),
            PipelineError::Netlist(e) => Some(e),
            PipelineError::Layout(e) => Some(e),
            PipelineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cnfet_core::CoreError> for PipelineError {
    fn from(e: cnfet_core::CoreError) -> Self {
        PipelineError::Core(e)
    }
}

impl From<cnfet_netlist::NetlistError> for PipelineError {
    fn from(e: cnfet_netlist::NetlistError) -> Self {
        PipelineError::Netlist(e)
    }
}

impl From<cnfet_layout::LayoutError> for PipelineError {
    fn from(e: cnfet_layout::LayoutError) -> Self {
        PipelineError::Layout(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// Result alias for the pipeline.
pub type Result<T> = std::result::Result<T, PipelineError>;

pub use builder::{
    coordinate_descent_defaults, genetic_defaults, halving_defaults, CoOptSpec, ScenarioBuilder,
    SearchAxis, SearcherSpec, COOPT_KEYS, SCENARIO_KEYS, SEARCHER_KINDS,
};
pub use cache::BoundedCache;
pub use design::DesignStats;
pub use engine::{CacheConfig, CacheStats, Pipeline, Table1Anchor};
pub use envelope::{
    ErrorCode, RequestBody, ResponseBody, ServiceError, ServiceInfo, YieldRequest, YieldResponse,
    DEFAULT_SEED, MAX_WORKERS, SCHEMA_VERSION,
};
pub use json::Json;
pub use knob::{dist_from_json, dist_to_json, field_from_json, field_to_json, STOCHASTIC_KNOBS};
pub use report::{
    CoOptReport, FaultReport, McBackendReport, ParetoFront, ParetoPoint, RungReport,
    ScenarioReport, SearchReport,
};
pub use router::{
    shard_for, Client, LineServer, RouterConfig, RouterStats, ShardRouter, ShardStats,
};
pub use service::{ServiceConfig, SweepHandle, SweepItem, SweepProgress, YieldService};
pub use spec::{
    mc_backend_defaults, redundancy_from_json, redundancy_to_json, BackendSpec, CornerSpec,
    CorrelationSpec, LibrarySpec, MminSpec, PuritySpec, RhoSpec, ScenarioGrid, ScenarioSpec,
};
pub use wafer::{RadialBand, WaferEngine, WaferReport, WaferSpec};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_chain_preserves_sources() {
        let core = cnfet_core::CoreError::NoConvergence("wmin");
        let e: PipelineError = core.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("wmin"));
        let parse = PipelineError::Parse {
            line: 3,
            msg: "boom".into(),
        };
        assert!(parse.to_string().contains("line 3"));
    }
}
