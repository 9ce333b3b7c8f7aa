//! Acceptance tests of the `repro coopt` subcommand: the example trade
//! study runs end-to-end and its Pareto artifact is byte-identical for
//! any `--workers` value.

use cnfet_pipeline::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The value under `key` of an artifact object, which must be present.
fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("artifact object without `{key}`"))
}

fn num(v: &Json, key: &str) -> f64 {
    field(v, key).as_f64().expect("a number")
}

fn count(v: &Json, key: &str) -> u64 {
    field(v, key).as_u64().expect("a count")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key).as_str().expect("a string")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf()
}

/// Run `repro coopt` on an example spec with a given worker count in an
/// isolated scratch directory; return (stdout, artifact bytes).
fn run_coopt_spec(spec_rel: &str, artifact_rel: &str, tag: &str, workers: u32) -> (String, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("repro-coopt-{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let spec = repo_root().join(spec_rel);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "coopt",
            spec.to_str().expect("utf-8 path"),
            "--workers",
            &workers.to_string(),
        ])
        .current_dir(&dir)
        .output()
        .expect("spawn repro binary");
    assert!(
        out.status.success(),
        "`repro coopt --workers {workers}` failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let artifact = dir.join("results").join(artifact_rel);
    let bytes = std::fs::read_to_string(&artifact)
        .unwrap_or_else(|e| panic!("artifact {}: {e}", artifact.display()));
    (stdout, bytes)
}

fn run_coopt(tag: &str, workers: u32) -> (String, String) {
    run_coopt_spec(
        "examples/coopt/correlation_tradeoff.json",
        "correlation-tradeoff.coopt.json",
        tag,
        workers,
    )
}

#[test]
fn example_artifact_is_byte_identical_across_worker_counts() {
    let (stdout, one) = run_coopt("w1", 1);
    let (_, eight) = run_coopt("w8", 8);
    assert_eq!(
        one, eight,
        "the Pareto artifact must not depend on --workers"
    );
    assert!(
        stdout.contains("pareto front"),
        "stdout must render the front:\n{stdout}"
    );

    // The artifact is valid JSON and carries the paper's qualitative
    // result: along the single-grid slice, W_min strictly decreases as the
    // correlation length grows.
    let report = Json::parse(&one).expect("valid JSON artifact");
    assert_eq!(text(&report, "name"), "correlation-tradeoff");
    assert_eq!(count(&report, "candidates"), 16);
    assert_eq!(
        count(&report, "evaluations"),
        16,
        "the grid scan is exhaustive"
    );
    let front = field(&report, "front").as_array().expect("a front array");
    assert!(
        front.len() >= 3,
        "at least three correlation settings survive on the front"
    );
    // The paper's qualitative result, read straight off the front: every
    // step up in process demand (longer CNTs / stricter layout) buys a
    // strictly smaller W_min at the fixed 90 % yield target.
    for pair in front.windows(2) {
        assert!(
            num(&pair[0], "demand") <= num(&pair[1], "demand"),
            "front sorted by demand"
        );
        assert!(
            num(&pair[1], "w_min_nm") < num(&pair[0], "w_min_nm"),
            "W_min must strictly decrease along the front: {} then {}",
            text(&pair[0], "scenario"),
            text(&pair[1], "scenario")
        );
    }
    // Table 2 anchor: the paper's ~350× relaxation (M_Rmin = 360) sits at
    // the correlated threshold, the 103 nm Nangate column.
    let anchored = front
        .iter()
        .find(|p| (num(p, "relaxation") - 360.0).abs() < 1.0)
        .expect("the paper's relaxation corner is on the front");
    assert!(
        (num(anchored, "w_min_nm") - 103.0).abs() < 8.0,
        "Table 2 Nangate column: measured {} nm",
        num(anchored, "w_min_nm")
    );
    // The cheapest candidate is the most process-demanding corner: the
    // longest correlation length on the single aligned grid.
    let best = text(field(&report, "best"), "scenario");
    assert!(
        best.contains("l_cnt_um=400") && best.contains("grid=single"),
        "best: {best}"
    );
}

#[test]
fn genetic_example_artifact_is_byte_identical_across_worker_counts() {
    // The adaptive path: halving+genetic over seven axes with the
    // Monte-Carlo back-end. Search decisions are sequential and seeded,
    // so `--workers` must still not change a byte — including the
    // `search` provenance block.
    let (stdout, one) = run_coopt_spec(
        "examples/coopt/genetic_7axis.json",
        "genetic-7axis.coopt.json",
        "genetic-w1",
        1,
    );
    let (_, eight) = run_coopt_spec(
        "examples/coopt/genetic_7axis.json",
        "genetic-7axis.coopt.json",
        "genetic-w8",
        8,
    );
    assert_eq!(
        one, eight,
        "the adaptive Pareto artifact must not depend on --workers"
    );
    assert!(
        stdout.contains("searcher `halving+genetic`"),
        "stdout must name the composed strategy:\n{stdout}"
    );
    assert!(
        stdout.contains("rung 0:"),
        "stdout must render the precision ladder:\n{stdout}"
    );

    let report = Json::parse(&one).expect("valid JSON artifact");
    assert_eq!(text(&report, "name"), "genetic-7axis");
    assert_eq!(text(&report, "searcher"), "halving+genetic");
    let (evaluations, candidates) = (count(&report, "evaluations"), count(&report, "candidates"));
    assert_eq!(candidates, 288);
    assert!(
        evaluations * 2 < candidates,
        "the ladder must confirm far fewer candidates than the space: {evaluations} of {candidates}"
    );
    let search = report
        .get("search")
        .expect("adaptive artifact carries provenance");
    assert_eq!(
        field(search, "rungs").as_array().map(<[Json]>::len),
        Some(3)
    );
    assert_eq!(count(search, "final_evaluations"), evaluations);
}
