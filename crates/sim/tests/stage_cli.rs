//! The `stage` binary's argument contract, checked on the built binary.

use std::path::PathBuf;
use std::process::{Command, Output};

use dstage_workload::{generate, GeneratorConfig};

/// A generated small scenario written as JSON, once per name.
fn scenario_file(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let scenario = generate(&GeneratorConfig::small(), 3);
    std::fs::write(&path, serde_json::to_string(&scenario).expect("serialize")).expect("write");
    path
}

fn stage(path: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stage")).arg(path).args(args).output().expect("stage runs")
}

/// The paper excludes full path/all destinations with `Cost1` (§6); the
/// pairing used to panic mid-schedule.
#[test]
fn full_all_with_c1_is_a_usage_error() {
    let path = scenario_file("stage-full-all-c1.json");
    let out = stage(&path, &["--heuristic", "full-all", "--criterion", "C1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("full_all") && stderr.contains("C1"), "{stderr}");
    assert!(stderr.contains("usage: stage"), "{stderr}");
    assert!(out.stdout.is_empty(), "a schedule was printed");
}

/// Every scheduler name `stage-serve` accepts schedules offline too.
#[test]
fn the_extension_schedulers_are_accepted() {
    let path = scenario_file("stage-extensions.json");
    for (args, head) in [
        (&["--heuristic", "alap"][..], "alap + C4"),
        (&["--heuristic", "rcd", "--criterion", "c3f", "--weights", "1,5,10"][..], "rcd + C3f"),
    ] {
        let out = stage(&path, args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with(head), "{args:?}: {stdout}");
    }
}
