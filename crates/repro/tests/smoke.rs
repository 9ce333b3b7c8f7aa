//! Smoke tests: the `repro` binary's figure/table subcommands must run to
//! completion and print non-empty, finite output (no NaN/inf leaking into a
//! paper table).

use std::path::Path;
use std::process::Command;

/// Run one repro subcommand in `--fast` mode inside an isolated working
/// directory (the binary writes `results/*.csv` relative to its cwd) and
/// return its stdout.
fn run_subcommand(name: &str) -> String {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-smoke-{name}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([name, "--fast"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "`repro {name} --fast` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");

    // Every CSV the run announced must exist and be non-empty.
    let results = dir.join("results");
    let mut csvs = 0;
    if results.is_dir() {
        for entry in std::fs::read_dir(&results).expect("read results dir") {
            let path = entry.expect("dir entry").path();
            let body = std::fs::read_to_string(&path).expect("read csv");
            assert!(!body.trim().is_empty(), "{} is empty", path.display());
            assert_finite(&body, &path.display().to_string());
            csvs += 1;
        }
    }
    assert!(csvs > 0, "`repro {name}` wrote no CSV results");
    stdout
}

/// Assert the text contains at least one number and no NaN/inf tokens
/// (token-wise, so words like "nangate45" do not false-positive).
fn assert_finite(text: &str, what: &str) {
    for token in text.split(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c))) {
        let core = token
            .trim_matches(|c| c == '+' || c == '-' || c == '.')
            .to_lowercase();
        assert!(
            core != "nan" && core != "inf" && core != "infinity",
            "{what} contains non-finite value `{token}`:\n{text}"
        );
    }
    assert!(
        text.chars().any(|c| c.is_ascii_digit()),
        "{what} contains no numeric output:\n{text}"
    );
}

#[test]
fn fig2_1_runs_and_prints_finite_output() {
    let stdout = run_subcommand("fig2-1");
    assert!(!stdout.trim().is_empty(), "no stdout from fig2-1");
    assert_finite(&stdout, "fig2-1 stdout");
    // The figure sweeps pF over widths for the three corners.
    assert!(
        stdout.contains("pF") || stdout.to_lowercase().contains("failure"),
        "fig2-1 output does not mention the failure probability:\n{stdout}"
    );
}

#[test]
fn table1_runs_and_prints_finite_output() {
    let stdout = run_subcommand("table1");
    assert!(!stdout.trim().is_empty(), "no stdout from table1");
    assert_finite(&stdout, "table1 stdout");
    // Table 1 compares the three growth/layout scenarios.
    assert!(
        stdout.to_lowercase().contains("scenario") || stdout.contains("p_RF"),
        "table1 output does not look like Table 1:\n{stdout}"
    );
}

#[test]
fn unknown_subcommand_fails_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("no-such-figure")
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
}

#[test]
fn out_dir_flag_redirects_artifacts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-smoke-outdir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let custom = dir.join("custom-results");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2-1", "--fast", "--out-dir"])
        .arg(&custom)
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        custom.join("fig2-1.csv").is_file(),
        "--out-dir must receive the CSVs"
    );
    assert!(
        !dir.join("results").exists(),
        "default results/ must not be created when --out-dir is given"
    );
}

#[test]
fn seed_flag_changes_mc_results_and_default_seed_is_stable() {
    let run = |label: &str, extra: &[&str]| -> String {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-smoke-seed-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", "--fast"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("spawn repro binary");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join("results/table1.csv")).expect("table1 csv")
    };
    let default_a = run("a", &[]);
    let default_b = run("b", &[]);
    assert_eq!(default_a, default_b, "default seed must be deterministic");
    let seeded = run("c", &["--seed", "12345"]);
    assert_ne!(
        default_a, seeded,
        "--seed must reach the conditional-MC estimator"
    );
}

#[test]
fn sweep_subcommand_runs_a_grid_file() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-smoke-sweep");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let grid = dir.join("grid.json");
    std::fs::write(
        &grid,
        r#"// smoke grid: two correlation scenarios at the CLT back-end
{
  "name": "smoke",
  "defaults": { "backend": "gaussian-sum", "rho": "paper", "fast_design": true },
  "axes": { "correlation": ["none", "growth+aligned-layout"] }
}
"#,
    )
    .expect("write grid file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "grid.json", "--workers", "2"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 scenarios"), "stdout: {stdout}");
    assert!(dir.join("results/sweep-summary.csv").is_file());
    let summary =
        std::fs::read_to_string(dir.join("results/sweep-summary.json")).expect("json artifact");
    assert!(summary.contains("w_min_nm"));
    assert_finite(&summary, "sweep-summary.json");

    // A broken grid file fails cleanly.
    std::fs::write(dir.join("bad.json"), "{ not json").expect("write bad grid");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "bad.json"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));
}

#[test]
fn sweep_backend_override_runs_monte_carlo() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-smoke-mc-backend");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let grid = dir.join("grid.json");
    std::fs::write(
        &grid,
        r#"{
  "name": "mc-smoke",
  "defaults": { "rho": "paper", "fast_design": true },
  "axes": { "correlation": ["none", "growth+aligned-layout"] }
}
"#,
    )
    .expect("write grid file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "sweep",
            "grid.json",
            "--backend",
            r#"{"monte-carlo": {"rel_ci": 0.15, "max_trials": 100000, "batch": 1000}}"#,
            "--seed",
            "7",
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("backend override: monte-carlo"),
        "stdout: {stdout}"
    );
    let summary =
        std::fs::read_to_string(dir.join("results/sweep-summary.json")).expect("json artifact");
    assert!(summary.contains("\"backend\": \"monte-carlo\""));
    assert!(
        summary.contains("\"trials\"") && summary.contains("\"ci_hi\""),
        "MC provenance must land in the artifact: {summary}"
    );
    assert_finite(&summary, "mc sweep-summary.json");

    // A bogus override fails cleanly before any evaluation.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "grid.json", "--backend", "quantum"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown backend"));

    // --backend outside `sweep` is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2-1", "--backend", "monte-carlo"])
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--backend"));
}

#[test]
fn bad_flag_values_fail_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig2-1", "--seed", "not-a-number"])
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    // `--workers` is bounded like the wire field, before any work starts.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "missing-grid.json", "--workers", "65"])
        .output()
        .expect("spawn repro binary");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers expects an integer from 1 to 64"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}
