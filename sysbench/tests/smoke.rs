//! Drives the benchmark's one command end to end at smoke size: the
//! build, all five workloads with every output check on, the traced
//! pass, the report file, and `compare` on it.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repo")
        .to_path_buf()
}

fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new("bash")
        .arg("sysbench/run.sh")
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&output.stderr));
    }
    (output.status.success(), stdout)
}

fn workloads(report: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(report).expect("the report was written");
    let value: Value = serde_json::from_str(&text).expect("the report is JSON");
    value.get("workloads").and_then(Value::as_array).expect("workloads").to_vec()
}

#[test]
fn smoke_runs_every_workload_with_every_check() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (untraced, traced, spans) =
        (dir.join("untraced.json"), dir.join("traced.json"), dir.join("spans.ndjson"));

    let (ok, stdout) = run(&["--smoke", "--out", untraced.to_str().unwrap()]);
    assert!(ok, "untraced smoke run failed");
    assert!(stdout.contains("all output checks passed"));
    let rows = workloads(&untraced);
    assert_eq!(rows.len(), 5);
    for row in &rows {
        let name = row.get("name").and_then(Value::as_str).unwrap();
        assert_eq!(row.get("correct").and_then(Value::as_bool), Some(true), "{name}");
        assert_eq!(row.get("failed").and_then(Value::as_u64), Some(0), "{name}");
        let metrics = row.get("end_to_end").and_then(Value::as_object).unwrap();
        assert!(metrics.len() >= 7, "{name}: {} end-to-end metrics", metrics.len());
        assert!(
            metrics.iter().all(|(_, m)| m.get("value").and_then(Value::as_f64).unwrap() > 0.0),
            "{name}"
        );
    }

    // A report compared with itself passes on every pair.
    let (ok, stdout) = run(&["compare", untraced.to_str().unwrap(), untraced.to_str().unwrap()]);
    assert!(ok && stdout.contains(" 0 regressed, 0 unresolved"), "{stdout}");

    // The contract line of one workload, traced: every per-layer metric.
    let (ok, stdout) = run(&[
        "--smoke",
        "--workload",
        "serve-durable",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--trace-out",
        spans.to_str().unwrap(),
        "--out",
        traced.to_str().unwrap(),
    ]);
    assert!(ok, "traced smoke run failed");
    let last: Value =
        serde_json::from_str(stdout.lines().last().unwrap()).expect("a JSON last line");
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(last.get("metrics").and_then(Value::as_object).unwrap().len(), 62);
    let span_file = std::fs::read_to_string(&spans).unwrap();
    assert!(span_file.lines().count() >= 6 * 64, "six spans per traced request");

    std::fs::remove_dir_all(&dir).unwrap();
}
