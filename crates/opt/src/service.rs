//! `OptService` — the co-optimization-enabled envelope front end.
//!
//! A thin wrapper over [`YieldService`] that serves the full v1 wire
//! surface **including** `co_opt` request bodies, which a bare yield
//! service answers with a structured `unsupported_body` error. Its
//! `describe` response advertises `co_opt` among the supported request
//! bodies, so wire clients can discover the capability before relying on
//! it. Everything else — evaluate, sweep, schema rejection, the
//! never-fails JSON-lines loop — delegates to the wrapped service and its
//! shared bounded caches. `repro serve` runs one of these.

use crate::engine::run_co_opt;
use cnfet_pipeline::{
    RequestBody, ResponseBody, ServiceConfig, ServiceError, ServiceInfo, YieldRequest,
    YieldResponse, YieldService, SCHEMA_VERSION,
};

/// The co-optimization-enabled request/response front end.
///
/// Cloning is cheap and shares the underlying service's caches.
#[derive(Debug, Clone, Default)]
pub struct OptService {
    inner: YieldService,
}

impl OptService {
    /// A front end over a fresh default-configured service.
    pub fn new() -> Self {
        Self::default()
    }

    /// A front end over a fresh service with explicit configuration.
    pub fn with_config(config: ServiceConfig) -> Self {
        Self {
            inner: YieldService::with_config(config),
        }
    }

    /// Wrap an existing (possibly warm, possibly shared) service.
    pub fn from_service(inner: YieldService) -> Self {
        Self { inner }
    }

    /// The wrapped yield service (shared caches, typed evaluate/sweep).
    pub fn service(&self) -> &YieldService {
        &self.inner
    }

    /// Capability discovery: the bare-service surface plus `co_opt`.
    pub fn describe(&self) -> ServiceInfo {
        ServiceInfo::with_co_opt()
    }

    /// Answer one request, streaming every response through `emit`. A
    /// `co_opt` request emits exactly one response (the Pareto report or
    /// a structured error); everything else behaves exactly like
    /// [`YieldService::stream_while`]: `emit` returns `false` once the
    /// client is gone, streaming stops (and an in-flight sweep cancels) as
    /// soon as that is observed. Returns `false` when the exchange was
    /// aborted that way.
    pub fn stream_while(
        &self,
        request: &YieldRequest,
        emit: &mut dyn FnMut(YieldResponse) -> bool,
    ) -> bool {
        if request.schema != SCHEMA_VERSION {
            // The wrapped service owns schema rejection.
            return self.inner.stream_while(request, emit);
        }
        match &request.body {
            RequestBody::CoOpt {
                spec,
                seed,
                workers,
            } => {
                let workers = workers.unwrap_or(self.inner.config().sweep_workers);
                match run_co_opt(&self.inner, spec, *seed, workers) {
                    Ok(report) => {
                        emit(YieldResponse::new(&request.id, ResponseBody::CoOpt(report)))
                    }
                    Err(e) => emit(YieldResponse::error(
                        &request.id,
                        ServiceError::from_pipeline(&e),
                    )),
                }
            }
            RequestBody::Describe => emit(YieldResponse::new(
                &request.id,
                ResponseBody::Describe(self.describe()),
            )),
            _ => self.inner.stream_while(request, emit),
        }
    }

    /// Answer one request, collecting all responses.
    pub fn handle(&self, request: &YieldRequest) -> Vec<YieldResponse> {
        let mut out = Vec::new();
        self.stream_while(request, &mut |response| {
            out.push(response);
            true
        });
        out
    }

    /// Parse and answer one JSON-lines request; never fails (malformed
    /// input becomes a structured error response with a best-effort id) —
    /// the `repro serve` daemon loop.
    pub fn handle_line(&self, line: &str, emit: &mut dyn FnMut(YieldResponse)) {
        self.handle_line_while(line, &mut |response| {
            emit(response);
            true
        });
    }

    /// The cancellation-aware form of [`OptService::handle_line`] (the
    /// [`cnfet_pipeline::LineServer`] surface the sharded router drives).
    pub fn handle_line_while(
        &self,
        line: &str,
        emit: &mut dyn FnMut(YieldResponse) -> bool,
    ) -> bool {
        cnfet_pipeline::envelope::dispatch_line_while(line, emit, |request, emit| {
            self.stream_while(request, emit)
        })
    }
}

impl cnfet_pipeline::LineServer for OptService {
    fn serve_line(&self, line: &str, emit: &mut dyn FnMut(YieldResponse) -> bool) -> bool {
        self.handle_line_while(line, emit)
    }
}
