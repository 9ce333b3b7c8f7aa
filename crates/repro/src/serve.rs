//! `serve` — run the yield service as a JSON-lines daemon.
//!
//! Reads one [`cnfet_pipeline::YieldRequest`] per stdin line and writes
//! one or more single-line [`cnfet_pipeline::YieldResponse`]s to stdout
//! (sweeps stream one `sweep_report` per scenario, in index order, then a
//! `sweep_done`). Requests are answered by `--shards N` co-optimization
//! front ends ([`cnfet_opt::OptService`]) behind the deterministic
//! [`cnfet_pipeline::ShardRouter`]: the shard is a pure hash of the
//! request id, every shard owns its own bounded caches, and a shared warm
//! tier answers repeated single-artifact requests without recomputing.
//! stdout carries *only* JSON lines — all diagnostics go to stderr — so
//! external co-optimizers can pipe the daemon directly. The process stays
//! up across malformed input (every problem becomes a structured error
//! response) and drains in-flight work before exiting on EOF, SIGTERM, or
//! a client hang-up (broken pipe).
//!
//! ```text
//! printf '%s\n' \
//!   '{"schema":1,"id":"cap","body":"describe"}' \
//!   '{"schema":1,"id":"w45","body":{"evaluate":{"spec":{"fast_design":true}}}}' \
//!   | repro serve --shards 4
//! ```
//!
//! Responses are deterministic: repeated identical requests — within one
//! session (warm caches) or across sessions — serialize byte-identically,
//! and `--workers` / `--shards` only change wall-clock time and
//! interleaving across ids, never bytes. Sorting a transcript makes it
//! byte-comparable across shard counts (CI pins `--shards 1` vs `4`).
//!
//! With `--admission shed`, a full shard queue answers immediately with a
//! machine-readable `overloaded` error instead of blocking the intake
//! loop — the back end for untrusted many-client front ends. The default
//! (`block`) applies backpressure to stdin, which can never shed.

use crate::common::{ReproError, Result};
use cnfet_opt::OptService;
use cnfet_pipeline::{Client, RouterConfig, ServiceConfig, ShardRouter};
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::time::Duration;

/// Configuration of one daemon session, parsed from the CLI.
pub struct ServeOptions {
    /// Sweep worker-thread override (`--workers`).
    pub workers: Option<usize>,
    /// Curve-cache capacity override (`--curve-cache`).
    pub curve_cache: Option<usize>,
    /// Number of service shards (`--shards`, default 1).
    pub shards: Option<usize>,
    /// Bound of each shard's admission queue (`--queue-depth`).
    pub queue_depth: Option<usize>,
    /// Admission policy: `block` (backpressure, default) or `shed`
    /// (answer `overloaded` when the shard queue is full).
    pub admission: Option<String>,
}

/// Whether a full shard queue blocks the intake loop or sheds the request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Admission {
    Block,
    Shed,
}

/// SIGTERM-triggered drain, without a signal-handling dependency: the
/// handler only stores to a static atomic (async-signal-safe), and the
/// intake loop polls the flag between lines.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FLAG: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }

    pub fn received() -> bool {
        FLAG.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub fn install() {}

    pub fn received() -> bool {
        false
    }
}

/// Run the daemon loop over stdin/stdout until EOF, SIGTERM, or client
/// hang-up — always draining in-flight responses before returning.
pub fn run(options: &ServeOptions) -> Result<()> {
    let mut config = ServiceConfig::default();
    if let Some(workers) = options.workers {
        config.sweep_workers = workers;
    }
    if let Some(capacity) = options.curve_cache {
        if capacity == 0 {
            return Err(ReproError::Usage("--curve-cache must be >= 1".into()));
        }
        config.cache.curve_capacity = capacity;
    }
    let mut router_config = RouterConfig::default();
    if let Some(shards) = options.shards {
        if shards == 0 {
            return Err(ReproError::Usage("--shards must be >= 1".into()));
        }
        router_config.shards = shards;
    }
    if let Some(depth) = options.queue_depth {
        if depth == 0 {
            return Err(ReproError::Usage("--queue-depth must be >= 1".into()));
        }
        router_config.queue_depth = depth;
    }
    let admission = match options.admission.as_deref() {
        None | Some("block") => Admission::Block,
        Some("shed") => Admission::Shed,
        Some(other) => {
            return Err(ReproError::Usage(format!(
                "--admission must be `block` or `shed`, got `{other}`"
            )));
        }
    };
    sigterm::install();

    let router = ShardRouter::new(router_config, |_| OptService::with_config(config));
    eprintln!(
        "repro serve: yield service up (schema 1 incl. co_opt, {} shard(s), queue depth {}, \
         {} sweep workers, {} curve slots/shard); one JSON request per line, ctrl-d to exit",
        router_config.shards,
        router_config.queue_depth,
        config.sweep_workers,
        config.cache.curve_capacity
    );

    let (client, responses) = Client::channel();

    // Writer: serialize responses to stdout in channel order, flushing
    // each so sweep results stream while later scenarios still compute. A
    // broken pipe means the client hung up — exiting drops the receiver,
    // which latches disconnection (and cancels in-flight sweeps) at the
    // next emit; `hung_up` lets the intake loop notice even when idle.
    // The writer must NOT hold a `Client` clone: its sender half would
    // keep the response channel open and the writer would never see
    // end-of-stream at shutdown.
    let hung_up = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let hung_up = std::sync::Arc::clone(&hung_up);
        std::thread::spawn(move || -> Result<()> {
            let mut out = std::io::stdout().lock();
            for response in responses {
                let emit = writeln!(out, "{}", response.to_json().to_string_compact())
                    .and_then(|()| out.flush());
                if let Err(e) = emit {
                    hung_up.store(true, std::sync::atomic::Ordering::Release);
                    if e.kind() == std::io::ErrorKind::BrokenPipe {
                        return Ok(());
                    }
                    return Err(e.into());
                }
            }
            Ok(())
        })
    };

    // Reader: stdin lines into a small bounded channel, so the intake
    // loop below can interleave line intake with SIGTERM/hang-up polls.
    // Lines are read as bytes and decoded lossily: invalid UTF-8 becomes
    // U+FFFD, so that line is answered `bad_request` like any other
    // malformed JSON instead of ending the session. Detached by design —
    // a reader blocked on a quiet stdin must not delay a drain-and-exit.
    let (line_tx, line_rx) = mpsc::sync_channel::<std::io::Result<String>>(64);
    std::thread::spawn(move || {
        let mut stdin = std::io::stdin().lock();
        let mut buf = Vec::new();
        loop {
            buf.clear();
            match stdin.read_until(b'\n', &mut buf) {
                Ok(0) => return,
                Ok(_) => {
                    let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    if line_tx
                        .send(Ok(String::from_utf8_lossy(line).into_owned()))
                        .is_err()
                    {
                        return;
                    }
                }
                Err(e) => {
                    let _ = line_tx.send(Err(e));
                    return;
                }
            }
        }
    });

    let mut accepted = 0u64;
    let reason = loop {
        if sigterm::received() {
            break "sigterm";
        }
        if !client.is_connected() || hung_up.load(std::sync::atomic::Ordering::Acquire) {
            client.disconnect();
            break "client hang-up";
        }
        match line_rx.recv_timeout(Duration::from_millis(25)) {
            Ok(Ok(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                match admission {
                    Admission::Block => router.submit(line, &client),
                    Admission::Shed => {
                        router.try_submit(line, &client);
                    }
                }
                accepted += 1;
            }
            Ok(Err(e)) => return Err(e.into()),
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break "eof",
        }
    };

    // Drain: stop admitting, let every queued/in-flight request finish
    // (the writer keeps delivering concurrently), then close the response
    // channel so the writer exits once it has flushed everything.
    let stats = router.shutdown();
    drop(client);
    let writer_result = writer
        .join()
        .unwrap_or_else(|_| Err(ReproError::Usage("response writer panicked".into())));
    eprintln!(
        "repro serve: {reason} after {accepted} requests; stats {}",
        stats.to_json().to_string_compact()
    );
    writer_result
}
