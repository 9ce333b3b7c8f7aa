//! End-to-end tests of the `repro serve` JSON-lines daemon: a full
//! evaluate + sweep + describe session, byte-level determinism across
//! repeats and worker counts, and structured error behavior.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `repro serve` with `args`, feed it the bytes of `input`, return
/// its stdout.
fn serve_session(args: &[&str], input: impl AsRef<[u8]>) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_ref())
        .expect("write requests");
    let out = child.wait_with_output().expect("daemon runs to EOF");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn session_script() -> String {
    [
        r#"{"schema":1,"id":"r1","body":{"evaluate":{"spec":{"fast_design":true,"backend":"gaussian-sum","rho":"paper"},"seed":7}}}"#,
        r#"{"schema":1,"id":"r2","body":{"sweep":{"grid":{"defaults":{"backend":"gaussian-sum","rho":"paper","fast_design":true},"axes":{"correlation":["none","growth","growth+aligned-layout"]}},"seed":9}}}"#,
        r#"{"schema":1,"id":"r3","body":"describe"}"#,
        "",
    ]
    .join("\n")
}

/// The id of one response line (cheap field grab, no full JSON parse).
fn response_id(line: &str) -> &str {
    let start = line.find(r#""id":""#).expect("id field") + 6;
    &line[start..start + line[start..].find('"').expect("closing quote")]
}

#[test]
fn serve_answers_a_full_session_in_order_with_no_errors() {
    let stdout = serve_session(&[], session_script());
    let lines: Vec<&str> = stdout.lines().collect();
    // r1 → 1 report; r2 → 3 sweep_reports + sweep_done; r3 → describe.
    assert_eq!(lines.len(), 6, "stdout:\n{stdout}");
    let ids: Vec<&str> = lines.iter().map(|l| response_id(l)).collect();
    assert_eq!(ids, ["r1", "r2", "r2", "r2", "r2", "r3"]);
    assert!(
        !stdout.contains(r#""error""#),
        "session must be error-free:\n{stdout}"
    );
    // Every line is a one-line JSON object of schema 1.
    for line in &lines {
        assert!(line.starts_with(r#"{"schema":1,"#), "line: {line}");
    }
    // The sweep streams in index order and terminates.
    assert!(lines[1].contains(r#""index":0"#));
    assert!(lines[2].contains(r#""index":1"#));
    assert!(lines[3].contains(r#""index":2"#));
    assert!(lines[4].contains(r#""sweep_done":{"total":3,"failed":0}"#));
    // Correlation shrinks W_min — the paper's claim, read off the wire.
    let w_min = |line: &str| -> f64 {
        let start = line.find(r#""w_min_nm":"#).expect("w_min field") + 11;
        line[start..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("numeric w_min")
    };
    assert!(w_min(lines[3]) < w_min(lines[1]) - 30.0);
}

#[test]
fn serve_is_byte_deterministic_across_repeats_sessions_and_workers() {
    // Identical requests repeated within one session: the second answer
    // (warm caches) must be byte-identical to the first.
    let twice = format!("{}{}", session_script(), session_script());
    let stdout = serve_session(&["--workers", "1"], &twice);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 12);
    assert_eq!(
        lines[..6].join("\n"),
        lines[6..].join("\n"),
        "warm-cache responses must repeat byte-identically"
    );
    // A fresh session with 8 workers: same bytes again.
    let eight = serve_session(&["--workers", "8"], session_script());
    assert_eq!(
        lines[..6].join("\n"),
        eight.trim_end(),
        "worker count must never change a byte"
    );
}

#[test]
fn serve_survives_garbage_and_answers_structured_errors() {
    // 200 000 nested `[` once overflowed the parser's stack, and a line
    // of invalid UTF-8 once ended the session: each must cost one
    // `bad_request` under the empty id and nothing more. A shorts-mode
    // fault evaluate whose per-cell budget underflows to 0 once panicked
    // its shard, and the same-id `describe` queued behind it was never
    // answered. A string of 4 MiB once took the parser minutes (each
    // character re-checked the rest of the line), stalling every client.
    let deep = "[".repeat(200_000);
    let long = format!(
        r#"{{"schema":1,"id":"long","pad":"{}","body":"describe"}}"#,
        "x".repeat(4 << 20)
    );
    let script = [
        b"not json at all".as_slice(),
        br#"{"schema":1,"id":"bad-spec","body":{"evaluate":{"spec":{"yield_target":2.0}}}}"#,
        br#"{"schema":1,"id":"typo","body":{"evaluate":{"spec":{"yeild_target":0.9}}}}"#,
        br#"{"schema":2,"id":"future","body":"describe"}"#,
        deep.as_bytes(),
        b"\xff\xfe not utf-8 \xc3\x28",
        br#"{"schema":1,"id":"zero-budget","body":{"evaluate":{"spec":{"fast_design":true,"backend":"gaussian-sum","rho":"paper","purity":0.999999,"redundancy":"none","yield_target":0.9999999999,"m_transistors":1e9},"seed":1}}}"#,
        br#"{"schema":1,"id":"zero-budget","body":"describe"}"#,
        long.as_bytes(),
        br#"{"schema":1,"body":"describe"}"#,
        br#"{"schema":1,"id":"backend-typo","body":{"evaluate":{"spec":{"backend":"monte-carl"}}}}"#,
        br#"{"schema":1,"id":"corner-typo","body":{"evaluate":{"spec":{"corner":{"pm":0.33,"p_rs":0.3,"prm":0.5}}}}}"#,
        br#"{"schema":1,"id":"still-up","body":"describe"}"#,
        b"",
    ]
    .join(&b'\n');
    let stdout = serve_session(&["--shards", "1"], &script);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 13, "stdout:\n{stdout}");
    assert!(lines[0].contains(r#""code":"bad_request""#));
    assert!(lines[1].contains(r#""code":"bad_spec""#));
    assert!(lines[1].contains(r#""field":"yield_target""#));
    assert!(lines[2].contains(r#""code":"unknown_key""#));
    assert!(
        lines[2].contains(r#""suggestion":"yield_target""#),
        "typo must come back with the nearest key: {}",
        lines[2]
    );
    assert!(lines[3].contains(r#""code":"unsupported_schema""#));
    assert!(lines[3].contains(r#""requested":2"#));
    for line in &lines[4..6] {
        assert!(line.contains(r#""code":"bad_request""#), "line: {line}");
        assert_eq!(response_id(line), "");
    }
    assert!(
        lines[6].contains(r#""code":"internal""#),
        "line: {}",
        lines[6]
    );
    assert!(lines[6].contains("`target` = 0"), "line: {}", lines[6]);
    assert_eq!(response_id(lines[6]), "zero-budget");
    assert!(lines[7].contains(r#""describe""#));
    assert_eq!(response_id(lines[7]), "zero-budget");
    assert!(
        lines[8].contains(r#""code":"unknown_key","key":"pad""#),
        "line: {}",
        lines[8]
    );
    assert_eq!(response_id(lines[8]), "long");
    // An envelope without an id is malformed: bad_request, not bad_spec.
    assert!(
        lines[9].contains(r#""code":"bad_request""#),
        "line: {}",
        lines[9]
    );
    assert_eq!(response_id(lines[9]), "");
    assert!(
        lines[10].contains(r#""code":"unknown_key","key":"monte-carl","suggestion":"monte-carlo""#),
        "line: {}",
        lines[10]
    );
    assert!(
        lines[11].contains(r#""code":"unknown_key","key":"prm","suggestion":"pm""#),
        "line: {}",
        lines[11]
    );
    // The daemon is still alive and serving after eleven failures.
    assert!(lines[12].contains(r#""describe""#));
    assert_eq!(response_id(lines[12]), "still-up");
}

#[test]
fn serve_rejects_out_of_range_workers_before_reading_stdin() {
    // `--workers` becomes the default of every request that omits
    // `workers`, so it has the same bound as the wire field.
    for workers in ["0", "65", "100000"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["serve", "--workers", workers])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn repro serve");
        // Keep stdin open: a daemon past argument parsing would wait on it.
        let stdin = child.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(60);
        while child.try_wait().expect("poll repro serve").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                panic!("`--workers {workers}` started the daemon");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        drop(stdin);
        let out = child.wait_with_output().expect("collect output");
        assert!(!out.status.success(), "`--workers {workers}` must fail");
        assert!(
            out.stdout.is_empty(),
            "`--workers {workers}` answered requests"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--workers expects an integer from 1 to 64")
                && stderr.contains("usage:"),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn serve_shard_count_never_changes_bytes() {
    // The committed 50-request session CI replays: shard count may change
    // the interleaving across ids, never the bytes — sorting the
    // transcript makes the two runs comparable.
    let session = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/serve/determinism_session.jsonl"),
    )
    .expect("committed determinism session");
    let sorted = |args: &[&str]| {
        let mut lines: Vec<String> = serve_session(args, &session)
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };
    let one = sorted(&["--shards", "1"]);
    let four = sorted(&["--shards", "4", "--queue-depth", "8"]);
    assert!(one.len() >= 50, "50 requests produce >= 50 responses");
    assert_eq!(one, four, "shard count changed response bytes");
}

#[test]
fn serve_drains_in_flight_work_on_sigterm() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    // Keep stdin open for the whole test: the exit below must be the
    // SIGTERM drain, not the EOF path.
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin
        .write_all(
            concat!(
                r#"{"schema":1,"id":"swp","body":{"sweep":{"grid":{"defaults":{"fast_design":true,"backend":"gaussian-sum","rho":"paper"},"axes":{"correlation":["none","growth","growth+aligned-layout"],"l_cnt_um":[120,140,160,180,200,220,240,260]}},"seed":1}}}"#,
                "\n"
            )
            .as_bytes(),
        )
        .expect("write sweep request");
    let mut reader = std::io::BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    std::io::BufRead::read_line(&mut reader, &mut first).expect("first sweep report");
    assert!(first.contains(r#""index":0"#), "first line: {first}");
    // SIGTERM mid-sweep: the daemon must finish the 24-scenario sweep,
    // flush every response, and only then exit cleanly.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("drained responses");
    let last = rest.lines().last().expect("drained output ends the stream");
    assert!(
        last.contains(r#""sweep_done":{"total":24,"failed":0}"#),
        "sweep must complete before exit; last line: {last}"
    );
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "SIGTERM drain must exit 0");
    let mut stderr = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().expect("stderr piped"), &mut stderr)
        .expect("read stderr");
    assert!(stderr.contains("sigterm"), "stderr: {stderr}");
    drop(stdin);
}

#[test]
fn serve_validates_router_flags() {
    let fails_with = |args: &[&str], needle: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    };
    fails_with(&["serve", "--shards", "0"], "--shards must be >= 1");
    fails_with(
        &["serve", "--queue-depth", "0"],
        "--queue-depth must be >= 1",
    );
    fails_with(
        &["serve", "--admission", "bogus"],
        "--admission must be `block` or `shed`",
    );
    fails_with(
        &["fig2-1", "--shards", "2"],
        "only apply to the serve subcommand",
    );
    fails_with(
        &["fig2-1", "--admission", "shed"],
        "only applies to the serve subcommand",
    );
}

#[test]
fn serve_rejects_flags_that_belong_to_experiments() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--seed", "3"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("serve takes only"), "stderr: {stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2-1", "--curve-cache", "4"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success());
}
