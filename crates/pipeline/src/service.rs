//! `YieldService` — the long-lived, shared-cache front end of the engine.
//!
//! A [`YieldService`] owns one [`Pipeline`] with **bounded** LRU caches
//! and answers versioned [`crate::envelope`] requests from any number of
//! callers: clones share the same caches (the handle is an `Arc`), so a
//! daemon, a test harness, and a co-optimization loop all hit the same
//! warm `pF(W)` curves. Three entry styles, one semantics:
//!
//! * typed — [`YieldService::evaluate`], [`YieldService::sweep`] (returns
//!   a streaming [`SweepHandle`]), [`YieldService::describe`];
//! * envelopes — [`YieldService::stream`] / [`YieldService::handle`] map
//!   a [`YieldRequest`] to one or more [`YieldResponse`]s;
//! * wire — [`YieldService::handle_line`] parses one JSON-lines request
//!   and never fails, turning every problem into a structured error
//!   response (the `repro serve` daemon loop).
//!
//! Determinism contract: responses are a pure function of the request
//! (plus the seed it carries). Sweeps stream reports in index order under
//! `split_seed(seed, index)` regardless of worker count, and reports
//! carry no volatile cache provenance — so identical requests serialize
//! byte-identically whether caches are cold, warm, or shared.

use crate::engine::{sweep_mc_workers, CacheConfig, Pipeline};
use crate::envelope::{
    ErrorCode, RequestBody, ResponseBody, ServiceError, ServiceInfo, YieldRequest, YieldResponse,
    MAX_WORKERS, SCHEMA_VERSION,
};
use crate::report::ScenarioReport;
use crate::spec::ScenarioSpec;
use crate::wafer::{WaferEngine, WaferReport, WaferSpec};
use crate::Result;
use cnfet_sim::engine::{ordered, split_seed};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Service configuration: cache bounds plus sweep defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Bounds for the shared pipeline caches.
    pub cache: CacheConfig,
    /// Default worker-thread count for sweeps (requests may override);
    /// the default is the core count, capped at [`MAX_WORKERS`].
    pub sweep_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            cache: CacheConfig::default(),
            sweep_workers: std::thread::available_parallelism()
                .map_or(1, |n| n.get().min(MAX_WORKERS)),
        }
    }
}

struct ServiceInner {
    pipeline: Pipeline,
    config: ServiceConfig,
}

/// The shared-cache request/response front end (see the module docs).
///
/// Cloning is cheap and shares the caches; the service is `Send + Sync`.
#[derive(Clone)]
pub struct YieldService {
    inner: Arc<ServiceInner>,
}

impl Default for YieldService {
    fn default() -> Self {
        Self::with_config(ServiceConfig::default())
    }
}

impl std::fmt::Debug for YieldService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("YieldService")
            .field("config", &self.inner.config)
            .field("cache_stats", &self.inner.pipeline.cache_stats())
            .finish()
    }
}

impl YieldService {
    /// A service with default cache bounds and worker counts.
    pub fn new() -> Self {
        Self::default()
    }

    /// A service with explicit configuration.
    pub fn with_config(config: ServiceConfig) -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                pipeline: Pipeline::with_cache_config(config.cache),
                config,
            }),
        }
    }

    /// The shared pipeline behind this service (for callers that need the
    /// lower-level substrate getters: curves, libraries, design stats).
    pub fn pipeline(&self) -> &Pipeline {
        &self.inner.pipeline
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Capability discovery (the `describe` answer). Static per build, so
    /// repeated calls serialize byte-identically.
    pub fn describe(&self) -> ServiceInfo {
        ServiceInfo::default()
    }

    /// Evaluate one scenario on the shared bounded caches.
    ///
    /// # Errors
    ///
    /// Propagates validation, model, solver, and simulation errors.
    pub fn evaluate(&self, spec: &ScenarioSpec, seed: u64) -> Result<ScenarioReport> {
        self.inner.pipeline.evaluate(spec, seed)
    }

    /// Start a streaming sweep with the service's default worker count.
    /// Scenario `i` evaluates under `split_seed(seed, i)`.
    pub fn sweep(&self, specs: Vec<ScenarioSpec>, seed: u64) -> SweepHandle {
        self.sweep_with_workers(specs, seed, self.inner.config.sweep_workers)
    }

    /// Start a streaming sweep with an explicit worker count. Workers only
    /// change wall-clock, never results or delivery order.
    pub fn sweep_with_workers(
        &self,
        specs: Vec<ScenarioSpec>,
        seed: u64,
        workers: usize,
    ) -> SweepHandle {
        SweepHandle::spawn(Arc::clone(&self.inner), specs, seed, workers)
    }

    /// Run a wafer-scale random-field workload on the shared caches with
    /// the service's default worker count.
    ///
    /// # Errors
    ///
    /// Propagates validation, model, and solver errors.
    pub fn wafer(&self, spec: &WaferSpec, seed: u64) -> Result<WaferReport> {
        self.wafer_with_workers(spec, seed, self.inner.config.sweep_workers)
    }

    /// Run a wafer workload with an explicit worker count. Workers only
    /// change wall-clock — the report is byte-identical for any count.
    ///
    /// # Errors
    ///
    /// Propagates validation, model, and solver errors.
    pub fn wafer_with_workers(
        &self,
        spec: &WaferSpec,
        seed: u64,
        workers: usize,
    ) -> Result<WaferReport> {
        WaferEngine::new(&self.inner.pipeline).run(spec, seed, workers.max(1))
    }

    /// Answer one request, streaming every response through `emit` (an
    /// `evaluate`/`describe` request emits exactly one response; a `sweep`
    /// emits one per scenario plus a terminator).
    pub fn stream(&self, request: &YieldRequest, emit: &mut dyn FnMut(YieldResponse)) {
        self.stream_while(request, &mut |response| {
            emit(response);
            true
        });
    }

    /// The cancellation-aware form of [`YieldService::stream`]: `emit`
    /// returns `false` once the client is gone (disconnected mid-sweep,
    /// shard torn down), at which point streaming stops and any in-flight
    /// sweep is cancelled through its [`SweepHandle`] — workers stop
    /// claiming scenarios and the shard's queue slot frees immediately
    /// instead of computing into the void. Returns `false` when the
    /// exchange was aborted that way, `true` when every response was
    /// delivered.
    pub fn stream_while(
        &self,
        request: &YieldRequest,
        emit: &mut dyn FnMut(YieldResponse) -> bool,
    ) -> bool {
        if request.schema != SCHEMA_VERSION {
            return emit(YieldResponse::error(
                &request.id,
                ServiceError {
                    code: ErrorCode::UnsupportedSchema {
                        requested: request.schema,
                    },
                    message: format!(
                        "schema {} is not supported (this build speaks schema {SCHEMA_VERSION})",
                        request.schema
                    ),
                },
            ));
        }
        match &request.body {
            RequestBody::Describe => emit(YieldResponse::new(
                &request.id,
                ResponseBody::Describe(self.describe()),
            )),
            RequestBody::Evaluate { spec, seed } => match self.evaluate(spec, *seed) {
                Ok(report) => emit(YieldResponse::new(
                    &request.id,
                    ResponseBody::Report(report),
                )),
                Err(e) => emit(YieldResponse::error(
                    &request.id,
                    ServiceError::from_pipeline(&e),
                )),
            },
            RequestBody::Sweep {
                grid,
                seed,
                workers,
            } => {
                let total = grid.scenarios.len() as u64;
                let workers = workers.unwrap_or(self.inner.config.sweep_workers);
                let mut handle = self.sweep_with_workers(grid.scenarios.clone(), *seed, workers);
                let mut failed = 0;
                let mut delivered = 0;
                while let Some(item) = handle.next() {
                    delivered += 1;
                    let wanted = match item.report {
                        Ok(report) => emit(YieldResponse::new(
                            &request.id,
                            ResponseBody::SweepReport {
                                index: item.index as u64,
                                total,
                                report,
                            },
                        )),
                        Err(e) => {
                            failed += 1;
                            emit(YieldResponse::error(
                                &request.id,
                                ServiceError::from_pipeline(&e),
                            ))
                        }
                    };
                    if !wanted {
                        // The client hung up mid-stream: stop the workers
                        // (in-flight scenarios finish, no new ones start)
                        // and free this slot without a terminator — nobody
                        // is listening for one.
                        handle.cancel();
                        return false;
                    }
                }
                // A worker that died (panic in the engine) leaves a gap the
                // handle cannot stream past; never dress that up as a clean
                // completion — report the shortfall and count it as failed.
                let missing = total - delivered;
                if missing > 0 {
                    failed += missing;
                    if !emit(YieldResponse::error(
                        &request.id,
                        ServiceError {
                            code: ErrorCode::Internal,
                            message: format!(
                                "sweep truncated: {missing} of {total} scenarios were never \
                                 delivered (worker failure)"
                            ),
                        },
                    )) {
                        return false;
                    }
                }
                emit(YieldResponse::new(
                    &request.id,
                    ResponseBody::SweepDone { total, failed },
                ))
            }
            RequestBody::Wafer {
                spec,
                seed,
                workers,
            } => {
                let workers = workers.unwrap_or(self.inner.config.sweep_workers);
                match self.wafer_with_workers(spec, *seed, workers) {
                    Ok(report) => {
                        emit(YieldResponse::new(&request.id, ResponseBody::Wafer(report)))
                    }
                    Err(e) => emit(YieldResponse::error(
                        &request.id,
                        ServiceError::from_pipeline(&e),
                    )),
                }
            }
            RequestBody::CoOpt { .. } => {
                // The search engine lives above this crate (`cnfet-opt`);
                // a bare yield service advertises that honestly instead of
                // guessing.
                emit(YieldResponse::error(
                    &request.id,
                    ServiceError {
                        code: ErrorCode::UnsupportedBody {
                            body: "co_opt".into(),
                        },
                        message: "co_opt requests are served by the co-optimization front \
                                  end (cnfet-opt `OptService` / `repro serve`), not a bare \
                                  yield service"
                            .into(),
                    },
                ))
            }
        }
    }

    /// Answer one request, collecting all responses (convenience wrapper
    /// over [`YieldService::stream`] for non-streaming callers).
    pub fn handle(&self, request: &YieldRequest) -> Vec<YieldResponse> {
        let mut out = Vec::new();
        self.stream(request, &mut |response| out.push(response));
        out
    }

    /// Parse and answer one JSON-lines request. Never fails: malformed
    /// input becomes a structured error response with a best-effort id —
    /// the daemon loop of `repro serve`.
    pub fn handle_line(&self, line: &str, emit: &mut dyn FnMut(YieldResponse)) {
        crate::envelope::dispatch_line(line, emit, |request, emit| self.stream(request, emit));
    }

    /// The cancellation-aware form of [`YieldService::handle_line`] (see
    /// [`YieldService::stream_while`] for the `emit` contract). Returns
    /// `false` when the exchange was aborted because the client vanished.
    pub fn handle_line_while(
        &self,
        line: &str,
        emit: &mut dyn FnMut(YieldResponse) -> bool,
    ) -> bool {
        crate::envelope::dispatch_line_while(line, emit, |request, emit| {
            self.stream_while(request, emit)
        })
    }
}

impl crate::router::LineServer for YieldService {
    fn serve_line(&self, line: &str, emit: &mut dyn FnMut(YieldResponse) -> bool) -> bool {
        self.handle_line_while(line, emit)
    }
}

/// Progress snapshot of a streaming sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Scenarios whose evaluation has finished (any order).
    pub completed: usize,
    /// Reports already handed to the consumer (index order).
    pub delivered: usize,
    /// Scenarios in the sweep.
    pub total: usize,
}

/// One streamed sweep result.
#[derive(Debug)]
pub struct SweepItem {
    /// Index of the scenario within the sweep's spec list.
    pub index: usize,
    /// The evaluation outcome.
    pub report: Result<ScenarioReport>,
}

/// A handle to an in-flight sweep: an iterator of [`SweepItem`]s in
/// strict index order, plus cooperative cancellation and progress.
///
/// One streaming thread runs the scenarios on the [`ordered`] executor
/// with `workers` threads in all, itself included, and the executor sends
/// each report on in index order, so `next()` blocks until the next index
/// is available. After [`SweepHandle::cancel`], no new scenario starts
/// evaluating (in-flight ones finish) and the stream ends at the first
/// index that did not run. A scenario that panics ends the stream just
/// before its index. Dropping the handle cancels and joins the streaming
/// thread.
pub struct SweepHandle {
    total: usize,
    delivered: usize,
    rx: mpsc::Receiver<SweepItem>,
    cancel: Arc<AtomicBool>,
    completed: Arc<AtomicUsize>,
    streamer: Option<JoinHandle<()>>,
}

impl SweepHandle {
    fn spawn(
        inner: Arc<ServiceInner>,
        specs: Vec<ScenarioSpec>,
        seed: u64,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1).min(specs.len().max(1));
        let mc_workers = sweep_mc_workers(workers);
        Self::stream(specs, workers, move |index, spec| {
            inner.pipeline.evaluate_with_mc_workers(
                &spec,
                split_seed(seed, index as u64),
                mc_workers,
            )
        })
    }

    /// Stream `evaluate(index, item)` over `items` on `workers` threads.
    fn stream<T: Send + 'static>(
        items: Vec<T>,
        workers: usize,
        evaluate: impl Fn(usize, T) -> Result<ScenarioReport> + Send + Sync + 'static,
    ) -> Self {
        let total = items.len();
        let cancel = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let streamer = {
            let (cancel, completed) = (Arc::clone(&cancel), Arc::clone(&completed));
            std::thread::spawn(move || {
                // Scenarios differ in cost, so no thread waits for a slow one.
                ordered(
                    items.into_iter().enumerate(),
                    workers,
                    usize::MAX,
                    |(index, item)| {
                        if cancel.load(Ordering::Acquire) {
                            return None;
                        }
                        let report = evaluate(index, item);
                        completed.fetch_add(1, Ordering::Release);
                        Some(SweepItem { index, report })
                    },
                    // Stop at the first scenario claimed after `cancel`, or
                    // once the consumer is gone.
                    |item| item.is_some_and(|item| tx.send(item).is_ok()),
                );
            })
        };
        Self {
            total,
            delivered: 0,
            rx,
            cancel,
            completed,
            streamer: Some(streamer),
        }
    }

    /// The number of scenarios in the sweep.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Ask the sweep to stop after its in-flight scenarios. Items already
    /// evaluated and contiguous with the delivered prefix still stream
    /// out; the iterator then ends.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// A progress snapshot (safe to call between `next()` calls).
    pub fn progress(&self) -> SweepProgress {
        SweepProgress {
            completed: self.completed.load(Ordering::Acquire),
            delivered: self.delivered,
            total: self.total,
        }
    }

    /// Block until the next in-index-order item is available; `None` once
    /// the sweep is exhausted or cancellation truncated the stream.
    #[allow(clippy::should_implement_trait)] // Iterator::next is the forwarding impl below
    pub fn next(&mut self) -> Option<SweepItem> {
        // The last report ends the stream without waiting for the
        // streaming thread to exit; `Drop` joins it.
        if self.delivered == self.total {
            return None;
        }
        let item = self.rx.recv().ok()?;
        self.delivered += 1;
        Some(item)
    }
}

impl Iterator for SweepHandle {
    type Item = SweepItem;

    fn next(&mut self) -> Option<SweepItem> {
        SweepHandle::next(self)
    }
}

impl Drop for SweepHandle {
    fn drop(&mut self) {
        self.cancel();
        // A panicked sweep already ended the stream; nothing to report here.
        if let Some(streamer) = self.streamer.take() {
            let _ = streamer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BackendSpec, RhoSpec};

    fn fast_spec(name: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::baseline(name);
        spec.backend = BackendSpec::GaussianSum;
        spec.fast_design = true;
        spec.rho = RhoSpec::Paper;
        spec
    }

    #[test]
    fn clones_share_caches() {
        let service = YieldService::new();
        let clone = service.clone();
        service.evaluate(&fast_spec("warm"), 1).unwrap();
        assert!(
            clone.pipeline().cache_stats().curves > 0,
            "clone must see the warmed cache"
        );
    }

    #[test]
    fn evaluate_matches_pipeline() {
        let service = YieldService::new();
        let spec = fast_spec("x");
        let a = service.evaluate(&spec, 3).unwrap();
        let b = Pipeline::new().evaluate(&spec, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn describe_is_static() {
        let service = YieldService::new();
        let a = YieldResponse::new("d", ResponseBody::Describe(service.describe()));
        let b = YieldResponse::new("d", ResponseBody::Describe(service.describe()));
        assert_eq!(
            a.to_json().to_string_pretty(),
            b.to_json().to_string_pretty()
        );
    }

    #[test]
    fn unsupported_schema_is_rejected() {
        let service = YieldService::new();
        let mut request = YieldRequest::describe("v2");
        request.schema = 2;
        let responses = service.handle(&request);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].id, "v2");
        match &responses[0].body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, ErrorCode::UnsupportedSchema { requested: 2 });
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn handle_line_never_panics_and_correlates_ids() {
        let service = YieldService::new();
        let mut responses = Vec::new();
        service.handle_line("this is not json", &mut |r| responses.push(r));
        service.handle_line(r#"{ "id": "bad-1", "schema": 1 }"#, &mut |r| {
            responses.push(r)
        });
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(YieldResponse::is_error));
        assert_eq!(responses[0].id, "", "unparseable line has no id");
        assert_eq!(responses[1].id, "bad-1", "id recovered from bad envelope");
    }

    #[test]
    fn a_panicking_scenario_ends_the_stream_after_every_earlier_report() {
        /// Sends once its scenario's panic unwinds through it.
        struct Unwinding(mpsc::Sender<()>);
        impl Drop for Unwinding {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }
        let report = YieldService::new().evaluate(&fast_spec("ok"), 1).unwrap();
        // Scenario 0, on the other thread, returns only once scenario 1 is
        // panicking: 0 must stream, and nothing past the gap.
        let (unwinding, panicked) = mpsc::channel();
        let panicked = std::sync::Mutex::new(panicked);
        let mut handle = SweepHandle::stream(vec![(); 4], 2, move |index, ()| {
            match index {
                0 => panicked.lock().unwrap().recv().unwrap(),
                1 => {
                    let _signal = Unwinding(unwinding.clone());
                    panic!("scenario 1 panics");
                }
                _ => {}
            }
            Ok(report.clone())
        });
        let indices: Vec<usize> = handle.by_ref().map(|item| item.index).collect();
        assert_eq!(indices, [0]);
        assert_eq!(handle.progress().delivered, 1);
    }
}
