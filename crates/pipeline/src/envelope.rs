//! Versioned request/response envelopes — the service wire contract.
//!
//! Every interaction with [`crate::service::YieldService`] is an envelope:
//!
//! ```text
//! request  = { "schema": 1, "id": "<caller id>", "body": <body> }
//! body     = { "evaluate": { "spec": {…}, "seed": 7 } }
//!          | { "sweep": { "grid": {…}, "seed": 7, "workers": 4 } }
//!          | { "wafer": { "spec": {…}, "seed": 7, "workers": 4 } }
//!          | "describe"
//! response = { "schema": 1, "id": "<same id>", "body": <body> }
//! body     = { "report": {…} }                        // Evaluate result
//!          | { "sweep_report": { "index", "total", "report" } }   // streamed
//!          | { "sweep_done": { "total", "failed" } }  // stream terminator
//!          | { "wafer_report": {…} }                  // Wafer result
//!          | { "describe": {…capabilities…} }
//!          | { "error": { "code", "message", … } }
//! ```
//!
//! `workers` is optional and only changes wall-clock time. It must be an
//! integer from 1 to [`MAX_WORKERS`]; any other value is answered
//! `bad_request` before the request runs.
//!
//! The `schema` field is the versioning handle: requests carrying any
//! version other than [`SCHEMA_VERSION`] are rejected with
//! [`ErrorCode::UnsupportedSchema`] instead of being misinterpreted.
//! Error bodies carry machine-readable [`ErrorCode`]s (with structured
//! payloads like the nearest-key suggestion), not just prose, so
//! co-optimization loops can branch on failure modes.
//!
//! Everything round-trips: `parse(to_json(x)) == x` for requests and
//! responses alike, which the envelope property tests pin down.
//!
//! ## The wire format, executed
//!
//! The README's JSON-lines session, as a doc-test — every request line
//! parses, dispatches, and every response serializes back through
//! [`YieldResponse::from_json`] unchanged, so the documented format
//! cannot drift from the code:
//!
//! ```
//! use cnfet_pipeline::{Json, ResponseBody, YieldRequest, YieldResponse, YieldService};
//!
//! # fn main() -> cnfet_pipeline::Result<()> {
//! let service = YieldService::new();
//! let lines = [
//!     // capability discovery
//!     r#"{"schema":1,"id":"cap","body":"describe"}"#,
//!     // one scenario (seed optional, default 20100613)
//!     r#"{"schema":1,"id":"w45","body":{"evaluate":{"spec":
//!         {"fast_design":true,"backend":"gaussian-sum","rho":"paper"},"seed":7}}}"#,
//!     // a grid, streamed in index order then terminated
//!     r#"{"schema":1,"id":"swp","body":{"sweep":{"grid":
//!         {"defaults":{"fast_design":true,"backend":"gaussian-sum","rho":"paper"},
//!          "axes":{"correlation":["none","growth+aligned-layout"]}},"seed":9}}}"#,
//! ];
//! let mut responses = Vec::new();
//! for line in lines {
//!     let request = YieldRequest::from_json(&Json::parse(line)?)?;
//!     for response in service.handle(&request) {
//!         // Serialize → parse: the response survives the wire unchanged.
//!         let wire = response.to_json().to_string_compact();
//!         assert!(!wire.contains('\n'), "JSON-lines responses are one line");
//!         assert_eq!(YieldResponse::from_json(&Json::parse(&wire)?)?, response);
//!         responses.push(response);
//!     }
//! }
//! // describe, evaluate report, two sweep reports in order, terminator.
//! assert_eq!(responses.len(), 5);
//! assert!(matches!(&responses[0].body, ResponseBody::Describe(info)
//!     if info.backends.contains(&"monte-carlo".into())));
//! assert!(matches!(&responses[1].body, ResponseBody::Report(r) if r.seed == 7));
//! assert!(matches!(&responses[2].body, ResponseBody::SweepReport { index: 0, .. }));
//! assert!(matches!(&responses[3].body, ResponseBody::SweepReport { index: 1, .. }));
//! assert!(matches!(&responses[4].body,
//!     ResponseBody::SweepDone { total: 2, failed: 0 }));
//! # Ok(())
//! # }
//! ```
//!
//! A `wafer` body streams a whole wafer of per-die scenario realizations
//! into one aggregated artifact. The spec carries die-grid geometry, a
//! base scenario, and per-knob random fields; the response's
//! `wafer_report` is byte-identical for any `workers` value:
//!
//! ```
//! use cnfet_pipeline::{Json, ResponseBody, YieldRequest, YieldResponse, YieldService};
//!
//! # fn main() -> cnfet_pipeline::Result<()> {
//! let service = YieldService::new();
//! let line = r#"{"schema":1,"id":"wf","body":{"wafer":{
//!     "spec":{
//!         "diameter_dies": 20,
//!         "base": {"fast_design":true,"backend":"gaussian-sum","rho":"paper",
//!                  "correlation":"growth+aligned-layout"},
//!         "fields": {"density": {"dist": {"gaussian": {"mean": 1, "sd": 0.05}},
//!                                "trend": -0.1, "clamp_lo": 0.5, "clamp_hi": 2.0}}
//!     },
//!     "seed": 7, "workers": 2}}}"#;
//! let request = YieldRequest::from_json(&Json::parse(line)?)?;
//! let responses = service.handle(&request);
//! assert_eq!(responses.len(), 1);
//! let ResponseBody::Wafer(report) = &responses[0].body else { panic!("not a wafer") };
//! // 20 dies across the diameter → the inscribed circle holds ~π/4·20².
//! assert_eq!(report.dies, 316);
//! assert!(report.min_die_yield <= report.max_die_yield);
//! // The artifact survives the wire unchanged.
//! let wire = responses[0].to_json().to_string_compact();
//! assert_eq!(YieldResponse::from_json(&Json::parse(&wire)?)?, responses[0]);
//! # Ok(())
//! # }
//! ```
//!
//! Malformed input never kills the session — it becomes a structured,
//! machine-branchable error line (here with the documented nearest-key
//! suggestion):
//!
//! ```
//! use cnfet_pipeline::YieldService;
//!
//! let service = YieldService::new();
//! let mut lines = Vec::new();
//! service.handle_line(
//!     r#"{"schema":1,"id":"typo","body":{"evaluate":{"spec":{"yeild_target":0.9}}}}"#,
//!     &mut |response| lines.push(response.to_json().to_string_compact()),
//! );
//! assert_eq!(lines.len(), 1);
//! assert!(lines[0].contains(r#""id":"typo""#));
//! assert!(lines[0].contains(r#""code":"unknown_key""#));
//! assert!(lines[0].contains(r#""suggestion":"yield_target""#));
//! ```

use crate::builder::{CoOptSpec, COOPT_KEYS, SCENARIO_KEYS, SEARCHER_KINDS};
use crate::json::{unknown_key, Json, Obj, Owner};
use crate::report::{CoOptReport, ScenarioReport};
use crate::spec::{BackendSpec, CorrelationSpec, LibrarySpec, ScenarioGrid, ScenarioSpec};
use crate::wafer::{WaferReport, WaferSpec, WAFER_KEYS};
use crate::{PipelineError, Result};
use cnfet_fault::{PurityMode, RedundancyScheme};
use cnt_stats::DistSpec;

/// The one wire-schema version this build understands.
pub const SCHEMA_VERSION: u64 = 1;

/// Default base seed when a request omits one — the repo-wide canonical
/// seed (the paper's publication date).
pub const DEFAULT_SEED: u64 = 20100613;

/// The largest `workers` a request may ask for. A request can start about
/// that many threads at once, so the bound is a constant rather than the
/// core count: the same line gets the same answer on every machine.
pub const MAX_WORKERS: usize = 64;

fn bad(msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field: "envelope",
        msg: msg.into(),
    }
}

/// What a request asks the service to do.
// Variant sizes track their spec payloads; requests are parsed once and
// moved, never stored in bulk, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Evaluate one scenario under a seed.
    Evaluate {
        /// The scenario to evaluate.
        spec: ScenarioSpec,
        /// Base seed (drives stochastic back-ends; recorded either way).
        seed: u64,
    },
    /// Evaluate a whole grid, streaming one `sweep_report` per scenario
    /// in index order, then a `sweep_done` terminator.
    Sweep {
        /// The grid to expand and evaluate.
        grid: ScenarioGrid,
        /// Base seed; scenario `i` runs under `split_seed(seed, i)`.
        seed: u64,
        /// Worker-thread override (`None` = service default). Never
        /// changes results, only wall-clock.
        workers: Option<usize>,
    },
    /// Run a process–design co-optimization study (served by the
    /// `cnfet-opt` front end; a bare [`crate::service::YieldService`]
    /// answers it with [`ErrorCode::UnsupportedBody`]).
    CoOpt {
        /// The declarative study to execute.
        spec: CoOptSpec,
        /// Base seed; candidate batches derive their seeds from it.
        seed: u64,
        /// Worker-thread override (`None` = service default). Never
        /// changes results, only wall-clock.
        workers: Option<usize>,
    },
    /// Stream a wafer-scale random-field workload into one aggregated
    /// [`WaferReport`].
    Wafer {
        /// The wafer workload to evaluate.
        spec: WaferSpec,
        /// Base seed; the spec's own `seed` (when set) takes precedence.
        seed: u64,
        /// Worker-thread override (`None` = service default). Never
        /// changes results, only wall-clock.
        workers: Option<usize>,
    },
    /// Capability/version discovery.
    Describe,
}

/// One versioned request.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldRequest {
    /// Wire-schema version; must equal [`SCHEMA_VERSION`].
    pub schema: u64,
    /// Caller-chosen correlation id, echoed on every response.
    pub id: String,
    /// The operation.
    pub body: RequestBody,
}

impl YieldRequest {
    /// A schema-1 `evaluate` request.
    pub fn evaluate(id: impl Into<String>, spec: ScenarioSpec, seed: u64) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            id: id.into(),
            body: RequestBody::Evaluate { spec, seed },
        }
    }

    /// A schema-1 `sweep` request.
    pub fn sweep(
        id: impl Into<String>,
        grid: ScenarioGrid,
        seed: u64,
        workers: Option<usize>,
    ) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            id: id.into(),
            body: RequestBody::Sweep {
                grid,
                seed,
                workers,
            },
        }
    }

    /// A schema-1 `co_opt` request.
    pub fn co_opt(
        id: impl Into<String>,
        spec: CoOptSpec,
        seed: u64,
        workers: Option<usize>,
    ) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            id: id.into(),
            body: RequestBody::CoOpt {
                spec,
                seed,
                workers,
            },
        }
    }

    /// A schema-1 `wafer` request.
    pub fn wafer(
        id: impl Into<String>,
        spec: WaferSpec,
        seed: u64,
        workers: Option<usize>,
    ) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            id: id.into(),
            body: RequestBody::Wafer {
                spec,
                seed,
                workers,
            },
        }
    }

    /// A schema-1 `describe` request.
    pub fn describe(id: impl Into<String>) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            id: id.into(),
            body: RequestBody::Describe,
        }
    }

    /// Serialize to the wire object.
    pub fn to_json(&self) -> Json {
        let body = match &self.body {
            RequestBody::Evaluate { spec, seed } => Json::Obj(vec![(
                "evaluate".into(),
                Json::Obj(vec![
                    ("spec".into(), spec.to_json()),
                    ("seed".into(), Json::from_u64(*seed)),
                ]),
            )]),
            RequestBody::Sweep {
                grid,
                seed,
                workers,
            } => {
                let mut fields = vec![
                    ("grid".into(), grid.to_json()),
                    ("seed".into(), Json::from_u64(*seed)),
                ];
                if let Some(w) = workers {
                    fields.push(("workers".into(), Json::Num(*w as f64)));
                }
                Json::Obj(vec![("sweep".into(), Json::Obj(fields))])
            }
            RequestBody::CoOpt {
                spec,
                seed,
                workers,
            } => {
                let mut fields = vec![
                    ("spec".into(), spec.to_json()),
                    ("seed".into(), Json::from_u64(*seed)),
                ];
                if let Some(w) = workers {
                    fields.push(("workers".into(), Json::Num(*w as f64)));
                }
                Json::Obj(vec![("co_opt".into(), Json::Obj(fields))])
            }
            RequestBody::Wafer {
                spec,
                seed,
                workers,
            } => {
                let mut fields = vec![
                    ("spec".into(), spec.to_json()),
                    ("seed".into(), Json::from_u64(*seed)),
                ];
                if let Some(w) = workers {
                    fields.push(("workers".into(), Json::Num(*w as f64)));
                }
                Json::Obj(vec![("wafer".into(), Json::Obj(fields))])
            }
            RequestBody::Describe => Json::Str("describe".into()),
        };
        Json::Obj(vec![
            ("schema".into(), Json::Num(self.schema as f64)),
            ("id".into(), Json::Str(self.id.clone())),
            ("body".into(), body),
        ])
    }

    /// Parse a request envelope.
    ///
    /// Schema validation is intentionally **not** done here — the service
    /// answers unsupported schemas with a structured
    /// [`ErrorCode::UnsupportedSchema`] response rather than a parse
    /// failure, so this accepts any integer `schema`.
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadRequest`] / [`PipelineError::UnknownKey`] on
    /// malformed envelopes; the spec and grid errors of the body as they
    /// are.
    pub fn from_json(v: &Json) -> Result<Self> {
        let request = Obj::new(v, Owner::Envelope("request"), &["schema", "id", "body"])?;
        // The integer read keeps `schema: 1.9` / `schema: -1` from being
        // silently truncated into a supported (or misreported) version;
        // any well-formed integer still reaches the service's version check.
        Ok(Self {
            schema: request.req("schema", Obj::u64)?,
            id: request.req("id", Obj::str)?.to_string(),
            body: Self::body_from_json(request.need("body")?)?,
        })
    }

    fn body_from_json(body: &Json) -> Result<RequestBody> {
        if body.as_str() == Some("describe") {
            return Ok(RequestBody::Describe);
        }
        let bad = |msg: &str| PipelineError::BadRequest(msg.into());
        let fields = body
            .as_object()
            .ok_or_else(|| bad("`body` must be \"describe\" or a single-key object"))?;
        let [(kind, payload)] = fields else {
            return Err(bad("`body` must have exactly one key"));
        };
        let payload = |label, keys| Obj::new(payload, Owner::Envelope(label), keys);
        // `seed` accepts the exact `Json::from_u64` encoding (number or
        // decimal string); `workers` only changes wall-clock time.
        let seed = |p: &Obj| -> Result<u64> { Ok(p.u64("seed")?.unwrap_or(DEFAULT_SEED)) };
        let workers = |p: &Obj| -> Result<Option<usize>> {
            match p.u64("workers")? {
                Some(w) if !(1..=MAX_WORKERS as u64).contains(&w) => Err(bad(&format!(
                    "`workers` must be an integer from 1 to {MAX_WORKERS}"
                ))),
                w => Ok(w.map(|w| w as usize)),
            }
        };
        match kind.as_str() {
            "describe" => {
                payload("describe request", &[])?;
                Ok(RequestBody::Describe)
            }
            "evaluate" => {
                let p = payload("evaluate request", &["spec", "seed"])?;
                Ok(RequestBody::Evaluate {
                    spec: ScenarioSpec::from_json(p.need("spec")?)?,
                    seed: seed(&p)?,
                })
            }
            "sweep" => {
                let p = payload("sweep request", &["grid", "seed", "workers"])?;
                Ok(RequestBody::Sweep {
                    grid: ScenarioGrid::from_json(p.need("grid")?)?,
                    seed: seed(&p)?,
                    workers: workers(&p)?,
                })
            }
            "co_opt" => {
                let p = payload("co_opt request", &["spec", "seed", "workers"])?;
                Ok(RequestBody::CoOpt {
                    spec: CoOptSpec::from_json(p.need("spec")?)?,
                    seed: seed(&p)?,
                    workers: workers(&p)?,
                })
            }
            "wafer" => {
                let p = payload("wafer request", &["spec", "seed", "workers"])?;
                Ok(RequestBody::Wafer {
                    spec: WaferSpec::from_json(p.need("spec")?)?,
                    seed: seed(&p)?,
                    workers: workers(&p)?,
                })
            }
            other => Err(unknown_key(
                "request body",
                other,
                &["evaluate", "sweep", "co_opt", "wafer", "describe"],
            )),
        }
    }
}

/// Best-effort extraction of the caller id from a (possibly malformed)
/// request document, so error responses can still be correlated.
pub fn recover_id(v: &Json) -> String {
    v.get("id")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

/// The shared JSON-lines daemon plumbing: parse one request line and hand
/// it to `dispatch`. Never fails — malformed JSON or a bad envelope
/// becomes a structured error response with a best-effort id. Every wire
/// front end (`YieldService::handle_line`, the `cnfet-opt` `OptService`)
/// routes through this one implementation, so id recovery and error
/// classification cannot diverge between them.
pub fn dispatch_line(
    line: &str,
    emit: &mut dyn FnMut(YieldResponse),
    dispatch: impl FnOnce(&YieldRequest, &mut dyn FnMut(YieldResponse)),
) {
    dispatch_line_while(
        line,
        &mut |response| {
            emit(response);
            true
        },
        |request, emit| {
            dispatch(request, &mut |response| {
                emit(response);
            });
            true
        },
    );
}

/// The cancellation-aware form of [`dispatch_line`]: `emit` returns
/// `false` when the client is gone (disconnected, queue torn down), and
/// `dispatch` is expected to stop streaming — and cancel any in-flight
/// sweep — as soon as it sees that. Returns `false` when the exchange was
/// aborted that way, `true` when every response was delivered.
pub fn dispatch_line_while(
    line: &str,
    emit: &mut dyn FnMut(YieldResponse) -> bool,
    dispatch: impl FnOnce(&YieldRequest, &mut dyn FnMut(YieldResponse) -> bool) -> bool,
) -> bool {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            return emit(YieldResponse::error("", ServiceError::from_pipeline(&e)));
        }
    };
    match YieldRequest::from_json(&doc) {
        Ok(request) => dispatch(&request, emit),
        Err(e) => emit(YieldResponse::error(
            recover_id(&doc),
            ServiceError::from_pipeline(&e),
        )),
    }
}

/// Machine-readable failure classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorCode {
    /// The envelope itself (or its JSON) is malformed.
    BadRequest,
    /// The request's `schema` version is not supported by this build.
    UnsupportedSchema {
        /// The version the caller asked for.
        requested: u64,
    },
    /// A scenario field failed domain validation.
    BadSpec {
        /// The offending field.
        field: String,
    },
    /// An unknown key in a spec/grid/envelope, with the nearest valid key.
    UnknownKey {
        /// The key as received.
        key: String,
        /// The closest valid key by edit distance, when one is plausible.
        suggestion: Option<String>,
    },
    /// The request body is well-formed but this front end does not serve
    /// it (e.g. `co_opt` sent to a bare yield service). The `describe`
    /// response enumerates what *is* served.
    UnsupportedBody {
        /// The body kind the caller asked for.
        body: String,
    },
    /// The serving tier shed this request because the target shard's
    /// bounded admission queue was full (backpressure instead of
    /// unbounded buffering). The request was **not** executed; retrying
    /// after a backoff is safe — requests are pure.
    Overloaded {
        /// The shard whose queue was full.
        shard: u64,
    },
    /// A solver or stochastic estimate failed to converge.
    Unconverged,
    /// Any other engine-side failure.
    Internal,
}

impl ErrorCode {
    /// The stable wire tag of this code.
    pub fn tag(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedSchema { .. } => "unsupported_schema",
            ErrorCode::BadSpec { .. } => "bad_spec",
            ErrorCode::UnknownKey { .. } => "unknown_key",
            ErrorCode::UnsupportedBody { .. } => "unsupported_body",
            ErrorCode::Overloaded { .. } => "overloaded",
            ErrorCode::Unconverged => "unconverged",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured error body: a code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Prose for humans; clients should branch on `code`, not this.
    pub message: String,
}

impl ServiceError {
    /// Classify an engine error into its wire form. The mapping is total:
    /// anything unrecognized degrades to [`ErrorCode::Internal`] with the
    /// full display chain as the message.
    pub fn from_pipeline(e: &PipelineError) -> Self {
        let code = match e {
            PipelineError::Parse { .. } | PipelineError::BadRequest(_) => ErrorCode::BadRequest,
            PipelineError::InvalidSpec { field, .. } => ErrorCode::BadSpec {
                field: (*field).to_string(),
            },
            PipelineError::UnknownKey {
                key, suggestion, ..
            } => ErrorCode::UnknownKey {
                key: key.clone(),
                suggestion: suggestion.clone(),
            },
            PipelineError::Core(cnfet_core::CoreError::NoConvergence(_)) => ErrorCode::Unconverged,
            _ => ErrorCode::Internal,
        };
        Self {
            code,
            message: e.to_string(),
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("code".into(), Json::Str(self.code.tag().into()))];
        match &self.code {
            ErrorCode::UnsupportedSchema { requested } => {
                fields.push(("requested".into(), Json::Num(*requested as f64)));
                fields.push((
                    "supported".into(),
                    Json::Arr(vec![Json::Num(SCHEMA_VERSION as f64)]),
                ));
            }
            ErrorCode::BadSpec { field } => {
                fields.push(("field".into(), Json::Str(field.clone())));
            }
            ErrorCode::UnknownKey { key, suggestion } => {
                fields.push(("key".into(), Json::Str(key.clone())));
                if let Some(s) = suggestion {
                    fields.push(("suggestion".into(), Json::Str(s.clone())));
                }
            }
            ErrorCode::UnsupportedBody { body } => {
                fields.push(("body".into(), Json::Str(body.clone())));
            }
            ErrorCode::Overloaded { shard } => {
                fields.push(("shard".into(), Json::Num(*shard as f64)));
            }
            _ => {}
        }
        fields.push(("message".into(), Json::Str(self.message.clone())));
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self> {
        let tag = v
            .get("code")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("error body needs a string `code`"))?;
        let field = |key: &str| -> Result<String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("error code `{tag}` needs a string `{key}`")))
        };
        let code = match tag {
            "bad_request" => ErrorCode::BadRequest,
            "unsupported_schema" => ErrorCode::UnsupportedSchema {
                requested: v
                    .get("requested")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("`unsupported_schema` needs a u64 `requested`"))?,
            },
            "bad_spec" => ErrorCode::BadSpec {
                field: field("field")?,
            },
            "unknown_key" => ErrorCode::UnknownKey {
                key: field("key")?,
                suggestion: match v.get("suggestion") {
                    None => None,
                    Some(s) => Some(
                        s.as_str()
                            .ok_or_else(|| bad("`suggestion` must be a string"))?
                            .to_string(),
                    ),
                },
            },
            "unsupported_body" => ErrorCode::UnsupportedBody {
                body: field("body")?,
            },
            "overloaded" => ErrorCode::Overloaded {
                shard: v
                    .get("shard")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("`overloaded` needs a u64 `shard`"))?,
            },
            "unconverged" => ErrorCode::Unconverged,
            "internal" => ErrorCode::Internal,
            other => return Err(bad(format!("unknown error code `{other}`"))),
        };
        Ok(Self {
            code,
            message: v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

/// Capability discovery payload — the `describe` answer.
///
/// Everything a wire client needs to build valid requests without reading
/// the README: the request bodies this front end serves, every count
/// back-end kind, every scenario field, and the co-optimization schema
/// (spec keys and searcher kinds). The lists are derived from the same
/// canonical constants the parsers validate against
/// ([`BackendSpec::KINDS`], [`SCENARIO_KEYS`], [`COOPT_KEYS`],
/// [`SEARCHER_KINDS`]), so `describe` cannot drift from what the build
/// actually accepts.
///
/// The fault-tolerance knobs are advertised the same way — the scenario
/// keys include `purity` and `redundancy`, and the scheme/mode lists come
/// from the `cnfet-fault` parser constants:
///
/// ```
/// use cnfet_pipeline::ServiceInfo;
///
/// let info = ServiceInfo::default();
/// assert!(info.scenario_keys.iter().any(|k| k == "purity"));
/// assert!(info.scenario_keys.iter().any(|k| k == "redundancy"));
/// assert_eq!(
///     info.redundancy_kinds,
///     ["none", "tmr", "spare-units", "repairable-tile"]
/// );
/// assert_eq!(info.purity_modes, ["short", "removal"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceInfo {
    /// Service name.
    pub service: String,
    /// Crate version of the serving build.
    pub version: String,
    /// Wire-schema versions this build accepts.
    pub schemas: Vec<u64>,
    /// Request bodies this front end answers (a bare yield service omits
    /// `co_opt`; the `cnfet-opt` front end includes it).
    pub requests: Vec<String>,
    /// Known count back-end kinds.
    pub backends: Vec<String>,
    /// Known correlation scenarios.
    pub correlations: Vec<String>,
    /// Known cell libraries.
    pub libraries: Vec<String>,
    /// Every scenario-spec field name.
    pub scenario_keys: Vec<String>,
    /// Known distribution kinds the stochastic knobs accept.
    pub dist_kinds: Vec<String>,
    /// Known redundancy scheme kinds the `redundancy` knob accepts.
    pub redundancy_kinds: Vec<String>,
    /// Known purity modes the `purity` knob accepts.
    pub purity_modes: Vec<String>,
    /// Top-level keys of a `wafer` spec document.
    pub wafer_keys: Vec<String>,
    /// Top-level keys of a `co_opt` spec document.
    pub coopt_keys: Vec<String>,
    /// Known co-optimization search strategies.
    pub searchers: Vec<String>,
}

impl Default for ServiceInfo {
    /// The capabilities of a bare [`crate::service::YieldService`] (no
    /// `co_opt` execution; the schema lists are still advertised so
    /// clients can discover the richer front end exists).
    fn default() -> Self {
        Self {
            service: "cnfet-yield-service".into(),
            version: env!("CARGO_PKG_VERSION").into(),
            schemas: vec![SCHEMA_VERSION],
            requests: ["evaluate", "sweep", "wafer", "describe"]
                .map(String::from)
                .to_vec(),
            backends: BackendSpec::KINDS.map(String::from).to_vec(),
            correlations: CorrelationSpec::KINDS.map(String::from).to_vec(),
            libraries: LibrarySpec::KINDS.map(String::from).to_vec(),
            scenario_keys: SCENARIO_KEYS.map(String::from).to_vec(),
            dist_kinds: DistSpec::KINDS.map(String::from).to_vec(),
            redundancy_kinds: RedundancyScheme::KINDS.map(String::from).to_vec(),
            purity_modes: PurityMode::KINDS.map(String::from).to_vec(),
            wafer_keys: WAFER_KEYS.map(String::from).to_vec(),
            coopt_keys: COOPT_KEYS.map(String::from).to_vec(),
            searchers: SEARCHER_KINDS.map(String::from).to_vec(),
        }
    }
}

impl ServiceInfo {
    /// The capabilities of a co-optimization-enabled front end (the
    /// `cnfet-opt` `OptService` / `repro serve`): everything the bare
    /// service answers plus `co_opt`.
    pub fn with_co_opt() -> Self {
        Self {
            requests: ["evaluate", "sweep", "co_opt", "wafer", "describe"]
                .map(String::from)
                .to_vec(),
            ..Self::default()
        }
    }
}

impl ServiceInfo {
    /// Serialize to the wire object.
    fn to_json(&self) -> Json {
        let strings =
            |items: &[String]| Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect());
        Json::Obj(vec![
            ("service".into(), Json::Str(self.service.clone())),
            ("version".into(), Json::Str(self.version.clone())),
            (
                "schemas".into(),
                Json::Arr(self.schemas.iter().map(|s| Json::Num(*s as f64)).collect()),
            ),
            ("requests".into(), strings(&self.requests)),
            ("backends".into(), strings(&self.backends)),
            ("correlations".into(), strings(&self.correlations)),
            ("libraries".into(), strings(&self.libraries)),
            ("scenario_keys".into(), strings(&self.scenario_keys)),
            ("dist_kinds".into(), strings(&self.dist_kinds)),
            ("redundancy_kinds".into(), strings(&self.redundancy_kinds)),
            ("purity_modes".into(), strings(&self.purity_modes)),
            ("wafer_keys".into(), strings(&self.wafer_keys)),
            ("coopt_keys".into(), strings(&self.coopt_keys)),
            ("searchers".into(), strings(&self.searchers)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self> {
        let strings = |key: &str| -> Result<Vec<String>> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| bad(format!("describe body needs an array `{key}`")))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad(format!("`{key}` entries must be strings")))
                })
                .collect()
        };
        let text = |key: &str| -> Result<String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("describe body needs a string `{key}`")))
        };
        Ok(Self {
            service: text("service")?,
            version: text("version")?,
            schemas: v
                .get("schemas")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("describe body needs an array `schemas`"))?
                .iter()
                .map(|s| {
                    s.as_u64()
                        .ok_or_else(|| bad("`schemas` entries must be non-negative integers"))
                })
                .collect::<Result<_>>()?,
            requests: strings("requests")?,
            backends: strings("backends")?,
            correlations: strings("correlations")?,
            libraries: strings("libraries")?,
            scenario_keys: strings("scenario_keys")?,
            dist_kinds: strings("dist_kinds")?,
            redundancy_kinds: strings("redundancy_kinds")?,
            purity_modes: strings("purity_modes")?,
            wafer_keys: strings("wafer_keys")?,
            coopt_keys: strings("coopt_keys")?,
            searchers: strings("searchers")?,
        })
    }
}

/// What a response carries.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// The result of an `evaluate` request.
    Report(ScenarioReport),
    /// One streamed result of a `sweep` request (index order guaranteed).
    SweepReport {
        /// Scenario index within the expanded grid.
        index: u64,
        /// Total scenarios in the sweep.
        total: u64,
        /// The scenario's report.
        report: ScenarioReport,
    },
    /// Stream terminator of a `sweep` request.
    SweepDone {
        /// Total scenarios in the sweep.
        total: u64,
        /// How many scenarios failed (their errors were streamed inline).
        failed: u64,
    },
    /// The result of a `co_opt` request: the Pareto artifact of the run.
    CoOpt(CoOptReport),
    /// The result of a `wafer` request: the aggregated wafer artifact.
    Wafer(WaferReport),
    /// The capability payload of a `describe` request.
    Describe(ServiceInfo),
    /// A structured failure.
    Error(ServiceError),
}

/// One versioned response.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldResponse {
    /// Wire-schema version of this response.
    pub schema: u64,
    /// The request id this answers.
    pub id: String,
    /// The payload.
    pub body: ResponseBody,
}

impl YieldResponse {
    /// Wrap a body in a schema-1 envelope for `id`.
    pub fn new(id: impl Into<String>, body: ResponseBody) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            id: id.into(),
            body,
        }
    }

    /// A schema-1 error response.
    pub fn error(id: impl Into<String>, error: ServiceError) -> Self {
        Self::new(id, ResponseBody::Error(error))
    }

    /// True for [`ResponseBody::Error`] payloads.
    pub fn is_error(&self) -> bool {
        matches!(self.body, ResponseBody::Error(_))
    }

    /// Serialize to the wire object.
    pub fn to_json(&self) -> Json {
        let body = match &self.body {
            ResponseBody::Report(report) => Json::Obj(vec![("report".into(), report.to_json())]),
            ResponseBody::SweepReport {
                index,
                total,
                report,
            } => Json::Obj(vec![(
                "sweep_report".into(),
                Json::Obj(vec![
                    ("index".into(), Json::Num(*index as f64)),
                    ("total".into(), Json::Num(*total as f64)),
                    ("report".into(), report.to_json()),
                ]),
            )]),
            ResponseBody::SweepDone { total, failed } => Json::Obj(vec![(
                "sweep_done".into(),
                Json::Obj(vec![
                    ("total".into(), Json::Num(*total as f64)),
                    ("failed".into(), Json::Num(*failed as f64)),
                ]),
            )]),
            ResponseBody::CoOpt(report) => {
                Json::Obj(vec![("co_opt_report".into(), report.to_json())])
            }
            ResponseBody::Wafer(report) => {
                Json::Obj(vec![("wafer_report".into(), report.to_json())])
            }
            ResponseBody::Describe(info) => Json::Obj(vec![("describe".into(), info.to_json())]),
            ResponseBody::Error(e) => Json::Obj(vec![("error".into(), e.to_json())]),
        };
        Json::Obj(vec![
            ("schema".into(), Json::Num(self.schema as f64)),
            ("id".into(), Json::Str(self.id.clone())),
            ("body".into(), body),
        ])
    }

    /// Parse a response envelope (the client half of the wire contract).
    ///
    /// # Errors
    ///
    /// [`PipelineError::InvalidSpec`] on malformed envelopes.
    pub fn from_json(v: &Json) -> Result<Self> {
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("response needs a non-negative integer `schema`"))?;
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("response needs a string `id`"))?
            .to_string();
        let body = v
            .get("body")
            .ok_or_else(|| bad("response needs a `body`"))?;
        let fields = body
            .as_object()
            .ok_or_else(|| bad("response `body` must be an object"))?;
        let [(kind, payload)] = fields else {
            return Err(bad("response `body` must have exactly one key"));
        };
        let num = |key: &str| -> Result<u64> {
            payload
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("`{kind}` needs a u64 `{key}`")))
        };
        let body = match kind.as_str() {
            "report" => ResponseBody::Report(ScenarioReport::from_json(payload)?),
            "sweep_report" => ResponseBody::SweepReport {
                index: num("index")?,
                total: num("total")?,
                report: ScenarioReport::from_json(
                    payload
                        .get("report")
                        .ok_or_else(|| bad("`sweep_report` needs a `report`"))?,
                )?,
            },
            "sweep_done" => ResponseBody::SweepDone {
                total: num("total")?,
                failed: num("failed")?,
            },
            "co_opt_report" => ResponseBody::CoOpt(CoOptReport::from_json(payload)?),
            "wafer_report" => ResponseBody::Wafer(WaferReport::from_json(payload)?),
            "describe" => ResponseBody::Describe(ServiceInfo::from_json(payload)?),
            "error" => ResponseBody::Error(ServiceError::from_json(payload)?),
            other => {
                return Err(bad(format!("unknown response body kind `{other}`")));
            }
        };
        Ok(Self { schema, id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_forms_round_trip() {
        let requests = [
            YieldRequest::evaluate("e-1", ScenarioSpec::baseline("b"), 7),
            YieldRequest::sweep(
                "s-1",
                ScenarioGrid {
                    scenarios: vec![ScenarioSpec::baseline("one")],
                },
                9,
                Some(4),
            ),
            YieldRequest::wafer(
                "w-1",
                WaferSpec::new("wafer", 16, ScenarioSpec::baseline("base")),
                11,
                Some(2),
            ),
            YieldRequest::describe("d-1"),
        ];
        for req in requests {
            let wire = req.to_json().to_string_pretty();
            let back = YieldRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, req, "round trip failed for: {wire}");
        }
    }

    #[test]
    fn seed_and_workers_default_when_omitted() {
        let req = YieldRequest::from_json(
            &Json::parse(r#"{ "schema": 1, "id": "x", "body": { "evaluate": { "spec": {} } } }"#)
                .unwrap(),
        )
        .unwrap();
        match req.body {
            RequestBody::Evaluate { seed, .. } => assert_eq!(seed, DEFAULT_SEED),
            other => panic!("expected evaluate, got {other:?}"),
        }
        let req = YieldRequest::from_json(
            &Json::parse(
                r#"{ "schema": 1, "id": "x",
                     "body": { "sweep": { "grid": { "scenarios": [ {} ] } } } }"#,
            )
            .unwrap(),
        )
        .unwrap();
        match req.body {
            RequestBody::Sweep { seed, workers, .. } => {
                assert_eq!(seed, DEFAULT_SEED);
                assert_eq!(workers, None);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let cases = [
            (r#"[1]"#, "not an object"),
            (r#"{ "id": "x", "body": "describe" }"#, "missing schema"),
            (r#"{ "schema": 1, "body": "describe" }"#, "missing id"),
            (r#"{ "schema": 1, "id": "x" }"#, "missing body"),
            (
                r#"{ "schema": 1, "id": "x", "body": { "evaluate": {}, "sweep": {} } }"#,
                "two body keys",
            ),
            (
                r#"{ "schema": 1, "id": "x", "body": { "evaluate": {} } }"#,
                "evaluate without spec",
            ),
            (
                r#"{ "schema": 1, "id": "x", "body": { "sweep": { "grid": {"scenarios": [{}]}, "workers": 0 } } }"#,
                "zero workers",
            ),
            (
                r#"{ "schema": 1, "id": "x", "body": { "sweep": { "grid": {"scenarios": [{}]}, "seed": "x" } } }"#,
                "non-integer seed",
            ),
            (
                r#"{ "schema": 1, "id": "x", "body": { "evaluate": 7 } }"#,
                "non-object payload",
            ),
            (
                r#"{ "schema": 1, "id": 7, "body": "describe" }"#,
                "numeric id",
            ),
            (
                r#"{ "schema": 1, "id": "x", "body": { "describe": 5 } }"#,
                "non-object describe payload",
            ),
        ];
        for (doc, why) in cases {
            let err = YieldRequest::from_json(&Json::parse(doc).unwrap()).unwrap_err();
            assert_eq!(
                ServiceError::from_pipeline(&err).code,
                ErrorCode::BadRequest,
                "{why}: {err}"
            );
        }
    }

    #[test]
    fn workers_above_the_limit_are_a_bad_request_that_runs_nothing() {
        for body in ["sweep", "wafer", "co_opt"] {
            let payload = match body {
                "sweep" => r#""grid": { "scenarios": [ {} ] }"#,
                "wafer" => r#""spec": { "diameter_dies": 4096, "base": {} }"#,
                _ => r#""spec": { "base": {}, "search": { "l_cnt_um": [50, 200] } }"#,
            };
            let line = |workers: usize| {
                format!(
                    r#"{{ "schema": 1, "id": "w", "body": {{ "{body}": {{ {payload}, "workers": {workers} }} }} }}"#
                )
            };
            let parse = |workers| YieldRequest::from_json(&Json::parse(&line(workers)).unwrap());
            assert!(parse(MAX_WORKERS).is_ok(), "{body} at the limit");
            for workers in [MAX_WORKERS + 1, 100_000] {
                let err = parse(workers).unwrap_err();
                assert_eq!(
                    ServiceError::from_pipeline(&err).code,
                    ErrorCode::BadRequest,
                    "{body} with {workers} workers: {err}"
                );
                let mut responses = Vec::new();
                dispatch_line(&line(workers), &mut |r| responses.push(r), |_, _| {
                    panic!("an over-limit request must not be dispatched")
                });
                assert_eq!(responses.len(), 1);
                assert_eq!(responses[0].id, "w");
                assert!(matches!(&responses[0].body,
                    ResponseBody::Error(e) if e.code == ErrorCode::BadRequest));
            }
        }
    }

    #[test]
    fn typoed_payload_keys_error_instead_of_defaulting() {
        // `sead` must not silently fall back to the default seed.
        let err = YieldRequest::from_json(
            &Json::parse(
                r#"{ "schema": 1, "id": "x", "body": { "evaluate": { "spec": {}, "sead": 42 } } }"#,
            )
            .unwrap(),
        )
        .unwrap_err();
        match err {
            PipelineError::UnknownKey {
                key, suggestion, ..
            } => {
                assert_eq!(key, "sead");
                assert_eq!(suggestion.as_deref(), Some("seed"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // Same for a typo'd `workers` in sweep payloads.
        assert!(YieldRequest::from_json(
            &Json::parse(
                r#"{ "schema": 1, "id": "x",
                     "body": { "sweep": { "grid": { "scenarios": [ {} ] }, "wokers": 2 } } }"#,
            )
            .unwrap(),
        )
        .is_err());
    }

    #[test]
    fn non_integer_and_negative_schemas_are_malformed() {
        for schema in ["1.9", "-1", "0.5", "true", "\"one\""] {
            let doc = format!(r#"{{ "schema": {schema}, "id": "x", "body": "describe" }}"#);
            assert!(
                YieldRequest::from_json(&Json::parse(&doc).unwrap()).is_err(),
                "schema {schema} must not be truncated into an integer version"
            );
        }
        // Integral values (any magnitude) still parse, so the service can
        // answer them with a structured `unsupported_schema`.
        let req = YieldRequest::from_json(
            &Json::parse(r#"{ "schema": 99, "id": "x", "body": "describe" }"#).unwrap(),
        )
        .unwrap();
        assert_eq!(req.schema, 99);
    }

    #[test]
    fn unknown_request_keys_get_suggestions() {
        let err = YieldRequest::from_json(
            &Json::parse(r#"{ "schema": 1, "id": "x", "bodyy": "describe" }"#).unwrap(),
        )
        .unwrap_err();
        match err {
            PipelineError::UnknownKey { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("body"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        let err = YieldRequest::from_json(
            &Json::parse(r#"{ "schema": 1, "id": "x", "body": { "evaluat": {} } }"#).unwrap(),
        )
        .unwrap_err();
        match err {
            PipelineError::UnknownKey {
                key, suggestion, ..
            } => {
                assert_eq!(key, "evaluat");
                assert_eq!(suggestion.as_deref(), Some("evaluate"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    #[test]
    fn error_code_mapping_is_structured() {
        let e = ServiceError::from_pipeline(&PipelineError::UnknownKey {
            context: "scenario",
            key: "yeild_target".into(),
            suggestion: Some("yield_target".into()),
        });
        assert_eq!(e.code.tag(), "unknown_key");
        let e = ServiceError::from_pipeline(&PipelineError::Core(
            cnfet_core::CoreError::NoConvergence("wmin"),
        ));
        assert_eq!(e.code, ErrorCode::Unconverged);
        let e = ServiceError::from_pipeline(&PipelineError::Parse {
            line: 1,
            msg: "x".into(),
        });
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn recover_id_is_best_effort() {
        assert_eq!(
            recover_id(&Json::parse(r#"{ "id": "abc", "schema": true }"#).unwrap()),
            "abc"
        );
        assert_eq!(recover_id(&Json::Num(4.0)), "");
    }
}
