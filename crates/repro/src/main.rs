//! `cnfet-repro` — regenerate every table and figure of the DAC 2010 paper.
//!
//! ```text
//! cnfet-repro <experiment> [--fast] [--out-dir <path>] [--seed <u64>]
//! cnfet-repro sweep <grid-file> [--fast] [--out-dir <path>] [--seed <u64>] [--workers <n>]
//!                   [--backend <name-or-json>]
//! cnfet-repro coopt <spec-file> [--fast] [--out-dir <path>] [--seed <u64>] [--workers <n>]
//! cnfet-repro fault <spec-file> [--fast] [--out-dir <path>] [--seed <u64>]
//! cnfet-repro wafer <spec-file> [--fast] [--out-dir <path>] [--seed <u64>] [--workers <n>]
//! cnfet-repro serve [--workers <n>] [--curve-cache <n>] [--shards <n>]
//!                   [--queue-depth <n>] [--admission <block|shed>]
//!
//! experiments:
//!   fig2-1    pF vs W for three processing corners (+ W_min anchors)
//!   fig2-2a   transistor-width histogram of the OpenRISC-class design
//!   fig2-2b   upsizing penalty vs technology node (no correlation)
//!   fig3-1    growth/layout correlation scenarios
//!   table1    p_RF for the three growth/layout scenarios
//!   fig3-2    AOI222_X1 before/after aligned-active
//!   fig3-3    penalty vs node, with vs without correlation
//!   table2    library-wide area penalties and W_min values
//!   extras    beyond-paper analyses: grid trade-off, pRm requirement
//!   all       everything above, in paper order
//!   sweep     evaluate a declarative scenario-grid file in parallel
//!   coopt     run a process–design co-optimization study (Pareto artifact)
//!   fault     evaluate a purity/redundancy scenario and sweep the required
//!             purity across redundancy schemes
//!   wafer     stream a wafer-scale random-field workload to a yield artifact
//!   serve     JSON-lines yield-service daemon on stdin/stdout (incl. co_opt)
//!
//! options:
//!   --fast            reduced trial counts and design sizes
//!   --out-dir <path>  artifact directory (default `results/`)
//!   --seed <u64>      base RNG seed (default: each experiment's published seed)
//!   --backend <b>     (sweep) override every scenario's count back-end:
//!                     convolution | gaussian-sum | monte-carlo, or a JSON
//!                     object, e.g. '{"monte-carlo": {"rel_ci": 0.05}}'
//!   --workers <n>     (sweep, coopt, wafer, serve) worker threads, 1 to 64;
//!                     wall-clock only, never results
//!   --curve-cache <n> (serve) LRU capacity of each shard's pF(W) curve cache
//!   --shards <n>      (serve) service shards behind the deterministic router;
//!                     wall-clock/interleaving only, never response bytes
//!   --queue-depth <n> (serve) bound of each shard's admission queue
//!   --admission <p>   (serve) full-queue policy: block (backpressure, default)
//!                     or shed (machine-readable `overloaded` responses)
//! ```
//!
//! Every experiment prints an ASCII rendition plus a paper-vs-measured
//! comparison, and writes CSV data under the output directory. All
//! computations route through the `cnfet-pipeline` scenario engine, so one
//! invocation of `all` shares memoized `pF(W)` curves, mapped designs, and
//! aligned libraries across experiments.

mod common;
mod coopt;
mod extras;
mod fault;
mod fig2_1;
mod fig2_2a;
mod fig2_2b;
mod fig3_1;
mod fig3_2;
mod fig3_3;
mod serve;
mod sweep;
mod table1;
mod table2;
mod wafer;

use cnfet_pipeline::MAX_WORKERS;
use common::{ReproError, RunContext};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: cnfet-repro <fig2-1|fig2-2a|fig2-2b|fig3-1|table1|fig3-2|fig3-3|table2|extras|all> \
         [--fast] [--out-dir <path>] [--seed <u64>]\n       \
         cnfet-repro sweep <grid-file> [--fast] [--out-dir <path>] [--seed <u64>] [--workers <n>] \
         [--backend <name-or-json>]\n       \
         cnfet-repro coopt <spec-file> [--fast] [--out-dir <path>] [--seed <u64>] [--workers <n>]\n       \
         cnfet-repro fault <spec-file> [--fast] [--out-dir <path>] [--seed <u64>]\n       \
         cnfet-repro wafer <spec-file> [--fast] [--out-dir <path>] [--seed <u64>] [--workers <n>]\n       \
         cnfet-repro serve [--workers <n>] [--curve-cache <n>] [--shards <n>] \
         [--queue-depth <n>] [--admission <block|shed>]"
    );
}

struct Cli {
    positionals: Vec<String>,
    fast: bool,
    out_dir: Option<PathBuf>,
    seed: Option<u64>,
    workers: Option<usize>,
    backend: Option<String>,
    curve_cache: Option<usize>,
    shards: Option<usize>,
    queue_depth: Option<usize>,
    admission: Option<String>,
}

/// Parse `args` (flags may appear anywhere; `--flag value` and
/// `--flag=value` both work).
fn parse_cli(args: &[String]) -> common::Result<Cli> {
    let mut cli = Cli {
        positionals: Vec::new(),
        fast: false,
        out_dir: None,
        seed: None,
        workers: None,
        backend: None,
        curve_cache: None,
        shards: None,
        queue_depth: None,
        admission: None,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> common::Result<String> {
            if let Some(v) = inline.clone() {
                return Ok(v);
            }
            iter.next()
                .cloned()
                .ok_or_else(|| ReproError::Usage(format!("{name} needs a value")))
        };
        match flag {
            "--fast" => cli.fast = true,
            "--out-dir" => cli.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = Some(v.parse().map_err(|_| {
                    ReproError::Usage(format!("--seed expects an unsigned integer, got `{v}`"))
                })?);
            }
            "--workers" => {
                let v = value("--workers")?;
                let workers = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=MAX_WORKERS).contains(n))
                    .ok_or_else(|| {
                        ReproError::Usage(format!(
                            "--workers expects an integer from 1 to {MAX_WORKERS}, got `{v}`"
                        ))
                    })?;
                cli.workers = Some(workers);
            }
            "--backend" => cli.backend = Some(value("--backend")?),
            "--curve-cache" => {
                let v = value("--curve-cache")?;
                cli.curve_cache = Some(v.parse().map_err(|_| {
                    ReproError::Usage(format!(
                        "--curve-cache expects a positive integer, got `{v}`"
                    ))
                })?);
            }
            "--shards" => {
                let v = value("--shards")?;
                cli.shards = Some(v.parse().map_err(|_| {
                    ReproError::Usage(format!("--shards expects a positive integer, got `{v}`"))
                })?);
            }
            "--queue-depth" => {
                let v = value("--queue-depth")?;
                cli.queue_depth = Some(v.parse().map_err(|_| {
                    ReproError::Usage(format!(
                        "--queue-depth expects a positive integer, got `{v}`"
                    ))
                })?);
            }
            "--admission" => cli.admission = Some(value("--admission")?),
            f if f.starts_with("--") => {
                return Err(ReproError::Usage(format!("unknown flag `{f}`")));
            }
            _ => cli.positionals.push(arg.clone()),
        }
    }
    Ok(cli)
}

fn dispatch(cli: &Cli) -> common::Result<()> {
    let Some(which) = cli.positionals.first() else {
        return Err(ReproError::Usage("missing experiment name".into()));
    };
    let mut ctx = RunContext::new(cli.fast).with_seed(cli.seed);
    if let Some(dir) = &cli.out_dir {
        ctx = ctx.with_out_dir(dir.clone());
    }

    if which == "serve" {
        if cli.backend.is_some() || cli.fast || cli.seed.is_some() || cli.out_dir.is_some() {
            return Err(ReproError::Usage(
                "serve takes only --workers, --curve-cache, --shards, --queue-depth, \
                 and --admission; seeds and specs arrive per request"
                    .into(),
            ));
        }
        return serve::run(&serve::ServeOptions {
            workers: cli.workers,
            curve_cache: cli.curve_cache,
            shards: cli.shards,
            queue_depth: cli.queue_depth,
            admission: cli.admission.clone(),
        });
    }

    if cli.curve_cache.is_some() || cli.shards.is_some() || cli.queue_depth.is_some() {
        return Err(ReproError::Usage(
            "--curve-cache/--shards/--queue-depth only apply to the serve subcommand".into(),
        ));
    }
    if cli.admission.is_some() {
        return Err(ReproError::Usage(
            "--admission only applies to the serve subcommand".into(),
        ));
    }

    if which == "sweep" {
        let Some(grid_file) = cli.positionals.get(1) else {
            return Err(ReproError::Usage(
                "sweep needs a <grid-file> argument".into(),
            ));
        };
        return sweep::run(&ctx, grid_file, cli.workers, cli.backend.as_deref());
    }

    if which == "coopt" {
        if cli.backend.is_some() {
            return Err(ReproError::Usage(
                "--backend only applies to the sweep subcommand; pin the back-end in \
                 the coopt spec's `base` instead"
                    .into(),
            ));
        }
        let Some(spec_file) = cli.positionals.get(1) else {
            return Err(ReproError::Usage(
                "coopt needs a <spec-file> argument".into(),
            ));
        };
        return coopt::run(&ctx, spec_file, cli.workers);
    }

    if which == "fault" {
        if cli.backend.is_some() || cli.workers.is_some() {
            return Err(ReproError::Usage(
                "fault takes only --fast, --out-dir, and --seed (a single-scenario \
                 analysis has no worker pool or back-end override)"
                    .into(),
            ));
        }
        let Some(spec_file) = cli.positionals.get(1) else {
            return Err(ReproError::Usage(
                "fault needs a <spec-file> argument".into(),
            ));
        };
        return fault::run(&ctx, spec_file);
    }

    if which == "wafer" {
        if cli.backend.is_some() {
            return Err(ReproError::Usage(
                "--backend only applies to the sweep subcommand; pin the back-end in \
                 the wafer spec's `base` instead"
                    .into(),
            ));
        }
        let Some(spec_file) = cli.positionals.get(1) else {
            return Err(ReproError::Usage(
                "wafer needs a <spec-file> argument".into(),
            ));
        };
        return wafer::run(&ctx, spec_file, cli.workers);
    }

    if cli.backend.is_some() {
        return Err(ReproError::Usage(
            "--backend only applies to the sweep subcommand".into(),
        ));
    }

    let run = |name: &str| -> common::Result<()> {
        match name {
            "fig2-1" => fig2_1::run(&ctx),
            "fig2-2a" => fig2_2a::run(&ctx),
            "fig2-2b" => fig2_2b::run(&ctx),
            "fig3-1" => fig3_1::run(&ctx),
            "table1" => table1::run(&ctx),
            "fig3-2" => fig3_2::run(&ctx),
            "fig3-3" => fig3_3::run(&ctx),
            "table2" => table2::run(&ctx),
            "extras" => extras::run(&ctx),
            other => Err(ReproError::UnknownExperiment(other.to_string())),
        }
    };

    if which == "all" {
        [
            "fig2-1", "fig2-2a", "fig2-2b", "fig3-1", "table1", "fig3-2", "fig3-3", "table2",
            "extras",
        ]
        .iter()
        .try_for_each(|n| run(n))
    } else {
        run(which)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_cli(&args).and_then(|cli| dispatch(&cli));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, ReproError::UnknownExperiment(_) | ReproError::Usage(_)) {
                usage();
            }
            ExitCode::FAILURE
        }
    }
}
