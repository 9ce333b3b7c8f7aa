//! Drives the release `repro serve` daemon over its stdin/stdout pipe:
//! set-up timing, then the closed loop of the timed phase. One reader
//! thread per daemon; the calling thread writes and checks.

use crate::check::{Checker, Step, Transcript};
use crate::workload::Line;
use cnfet_pipeline::{Json, RouterStats};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a silent daemon may keep the loop waiting before its open
/// requests count as unanswered.
const STALL: Duration = Duration::from_secs(120);

/// One stdout line and when it arrived.
type Received = (Instant, String);

/// A spawned daemon and the thread reading its stdout.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: mpsc::Receiver<Received>,
    reader: JoinHandle<()>,
}

impl Daemon {
    fn spawn(bin: &Path, shards: usize) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["serve", "--shards", &shards.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if tx.send((Instant::now(), line)).is_err() {
                    return;
                }
            }
        });
        Ok(Self {
            stdin: child.stdin.take(),
            child,
            lines,
            reader,
        })
    }

    fn send(&mut self, line: &Line) -> std::io::Result<Instant> {
        let stdin = self.stdin.as_mut().expect("stdin open until close");
        let sent = Instant::now();
        stdin.write_all(line.text.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        Ok(sent)
    }

    /// The daemon's peak resident set (`VmHWM`), in kB.
    fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Close stdin, collect what is still in flight, wait for the exit and
    /// parse the shutdown stats line from stderr.
    fn close(mut self) -> std::io::Result<(Vec<Received>, Option<RouterStats>)> {
        drop(self.stdin.take());
        let rest: Vec<_> = self.lines.iter().collect();
        self.reader.join().expect("stdout reader panicked");
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            pipe.read_to_string(&mut stderr)?;
        }
        let status = self.child.wait()?;
        if !status.success() {
            eprintln!("servebench: daemon exited with {status}");
        }
        let stats = stderr
            .lines()
            .rev()
            .find_map(|l| l.split_once("; stats ").map(|(_, json)| json))
            .and_then(|json| Json::parse(json).ok())
            .and_then(|doc| RouterStats::from_json(&doc).ok());
        Ok((rest, stats))
    }
}

/// Everything the daemon phase measured.
#[derive(Debug)]
pub struct DaemonRun {
    /// Set-up time of each spawn, seconds.
    pub setup_s: Vec<f64>,
    /// Earlier spawns whose set-up answers failed the checker.
    pub setup_failures: usize,
    /// Every line sent to the measured daemon: set-up lines, then the
    /// timed lines.
    pub lines: Vec<Line>,
    /// How many of `lines` are set-up lines.
    pub setup_lines: usize,
    /// Client latency per line (ms), `None` when unanswered.
    pub latency_ms: Vec<Option<f64>>,
    /// Seconds from the first timed send to the last terminal response.
    pub elapsed_s: f64,
    /// The measured daemon's responses.
    pub transcript: Transcript,
    /// Bytes of every response line, newline included.
    pub bytes_out: u64,
    /// Failed lines by index, with the reason.
    pub failures: Vec<(usize, String)>,
    /// Responses that answered no open request.
    pub strays: usize,
    /// `VmHWM` just before stdin closed, kB.
    pub peak_rss_kb: u64,
    /// The daemon's shutdown stats.
    pub stats: Option<RouterStats>,
}

/// Send every line of `batch` at once and check the answers, until all
/// are answered or the daemon stalls.
fn answer_batch(
    daemon: &mut Daemon,
    batch: &[Line],
    checker: &mut Checker,
    transcript: &mut Transcript,
    latency: &mut [Option<f64>],
    offset: usize,
) -> std::io::Result<()> {
    let mut sent = Vec::new();
    for (i, line) in batch.iter().enumerate() {
        checker.open(offset + i, line);
        sent.push(daemon.send(line)?);
    }
    while checker.pending() > 0 {
        let Ok((at, text)) = daemon.lines.recv_timeout(STALL) else {
            break;
        };
        let step = checker.response_text(&text);
        if let Step::Done(i) = step {
            latency[i] = Some(at.duration_since(sent[i - offset]).as_secs_f64() * 1e3);
        }
        transcript.push(step, &text);
    }
    Ok(())
}

/// Spawn the daemon `setup_reps` times, timing each set-up; keep the last
/// one and drive `timed` through it for `seconds` with `outstanding`
/// requests in flight.
pub fn run(
    bin: &Path,
    shards: usize,
    setup: &[Line],
    timed: &mut dyn Iterator<Item = Line>,
    outstanding: usize,
    seconds: f64,
    setup_reps: usize,
) -> std::io::Result<DaemonRun> {
    let mut setup_s = Vec::new();
    let mut setup_failures = 0;
    let mut checker = Checker::new();
    let mut transcript = Transcript::default();
    let mut latency = vec![None; setup.len()];
    let mut daemon = None;
    for rep in 0..setup_reps.max(1) {
        // Earlier spawns only time the set-up; their answers are checked
        // by a checker of their own and then dropped.
        let mut scratch_checker = Checker::new();
        let mut scratch = Transcript::default();
        let mut scratch_latency = vec![None; setup.len()];
        let last = rep + 1 == setup_reps.max(1);
        let start = Instant::now();
        let mut d = Daemon::spawn(bin, shards)?;
        let (c, t, l) = if last {
            (&mut checker, &mut transcript, &mut latency)
        } else {
            (&mut scratch_checker, &mut scratch, &mut scratch_latency)
        };
        answer_batch(&mut d, setup, c, t, l, 0)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if last {
            daemon = Some(d);
        } else {
            d.close()?;
            let (failures, strays) = scratch_checker.finish();
            if !failures.is_empty() || strays > 0 {
                eprintln!("servebench: set-up spawn {rep} failed: {failures:?}");
                setup_failures += 1;
            }
        }
    }
    let mut daemon = daemon.expect("at least one spawn");

    // The timed phase: a closed loop, each retired request making room
    // for the next line until the time is up.
    let mut lines: Vec<Line> = setup.to_vec();
    let mut sent_at: Vec<Instant> = vec![Instant::now(); setup.len()];
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut last_done = start;
    let mut bytes_out = 0;
    let mut send_next = |daemon: &mut Daemon,
                         checker: &mut Checker,
                         lines: &mut Vec<Line>,
                         sent_at: &mut Vec<Instant>,
                         latency: &mut Vec<Option<f64>>|
     -> std::io::Result<()> {
        let line = timed.next().expect("workloads are endless");
        checker.open(lines.len(), &line);
        sent_at.push(daemon.send(&line)?);
        latency.push(None);
        lines.push(line);
        Ok(())
    };
    for _ in 0..outstanding {
        send_next(
            &mut daemon,
            &mut checker,
            &mut lines,
            &mut sent_at,
            &mut latency,
        )?;
    }
    while checker.pending() > 0 {
        let Ok((at, text)) = daemon.lines.recv_timeout(STALL) else {
            eprintln!("servebench: daemon silent for {STALL:?}; giving up on open requests");
            break;
        };
        let step = checker.response_text(&text);
        if let Step::Done(i) = step {
            latency[i] = Some(at.duration_since(sent_at[i]).as_secs_f64() * 1e3);
            last_done = at;
            if Instant::now() < deadline {
                send_next(
                    &mut daemon,
                    &mut checker,
                    &mut lines,
                    &mut sent_at,
                    &mut latency,
                )?;
            }
        }
        bytes_out += text.len() as u64 + 1;
        transcript.push(step, &text);
    }
    let elapsed_s = last_done.duration_since(start).as_secs_f64();
    let peak_rss_kb = daemon.peak_rss_kb().unwrap_or(0);
    let (rest, stats) = daemon.close()?;
    for (_, text) in rest {
        let step = checker.response_text(&text);
        transcript.push(step, &text);
    }
    let (failures, strays) = checker.finish();
    Ok(DaemonRun {
        setup_s,
        setup_failures,
        setup_lines: setup.len(),
        lines,
        latency_ms: latency,
        elapsed_s,
        transcript,
        bytes_out,
        failures,
        strays,
        peak_rss_kb,
        stats,
    })
}
