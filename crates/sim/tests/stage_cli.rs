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

/// `--ratio` is the log10 of a weight: NaN used to panic the scheduler
/// (exit 101) and an overflowing `10^x` scheduled with −∞ costs. `-inf`,
/// the urgency-only extreme, still schedules.
#[test]
fn a_non_finite_ratio_is_a_usage_error() {
    let path = scenario_file("stage-ratio.json");
    for ratio in ["nan", "inf", "400"] {
        let out = stage(&path, &["--ratio", ratio]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{ratio}: {stderr}");
        assert!(!stderr.contains("panicked"), "{ratio}: {stderr}");
        assert!(stderr.contains("invalid ratio") && stderr.contains("usage: stage"), "{stderr}");
        assert!(out.stdout.is_empty(), "{ratio}: a schedule was printed");
    }
    let out = stage(&path, &["--ratio", "-inf"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

/// The extension scheduler, the extension criterion and the 1,5,10
/// weighting schedule offline too.
#[test]
fn the_extension_scheduler_and_criterion_are_accepted() {
    let path = scenario_file("stage-extensions.json");
    for (args, head) in [
        (&["--heuristic", "alap"][..], "alap + C4"),
        (
            &["--heuristic", "full-all", "--criterion", "c3f", "--weights", "1,5,10"][..],
            "full_all + C3f",
        ),
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

/// An unknown heuristic, or one this build no longer has, exits with code 2
/// (as it does from `stage-serve`), listing the valid names; the usage line
/// lists the same ones.
#[test]
fn an_unknown_heuristic_is_a_usage_error_naming_the_valid_ones() {
    let path = scenario_file("stage-unknown-heuristic.json");
    for name in ["fastest", "rcd"] {
        let out = stage(&path, &["--heuristic", name]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "unknown scheduler `{name}` (valid: partial, full_one, full_all, alap)"
            )),
            "{stderr}"
        );
        assert!(stderr.contains("[--heuristic partial|full-one|full-all|alap]"), "{stderr}");
        assert!(out.stdout.is_empty(), "{name}: a schedule was printed");
    }
}

/// The small scenario with its machine 0 outgoing list (`[[a,b,..],`)
/// rewritten by `edit`, which gets that list's ids and the rest of the
/// JSON after its closing bracket.
fn edited_out_links(name: &str, edit: impl FnOnce(Vec<&str>, &str) -> String) -> PathBuf {
    let path = scenario_file(name);
    let text = std::fs::read_to_string(&path).expect("read");
    let key = r#""out_links":[["#;
    let at = text.find(key).expect("out_links") + key.len();
    let close = at + text[at..].find(']').expect("list end");
    let ids = text[at..close].split(',').collect();
    let edited = format!("{}{}", &text[..at], edit(ids, &text[close..]));
    std::fs::write(&path, edited).expect("write");
    path
}

fn assert_refused_naming_machine_0(path: &PathBuf) {
    let out = stage(path, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked") && !stderr.contains("internal error"), "{stderr}");
    assert!(stderr.contains("out_links of machine M0 disagree"), "{stderr}");
    assert!(out.stdout.is_empty(), "a schedule was printed");
}

/// A scenario file's adjacency lists are checked, not trusted: an
/// out-of-range link id used to panic the search (exit 101).
#[test]
fn an_out_of_range_adjacency_id_is_refused() {
    let path = edited_out_links("stage-oob-link.json", |mut ids, rest| {
        ids[0] = "99999";
        format!("{}{rest}", ids.join(","))
    });
    assert_refused_naming_machine_0(&path);
}

/// A link filed under the wrong machine used to be searched from there,
/// and the run ended in a schedule that failed validation.
#[test]
fn a_link_filed_under_the_wrong_machine_is_refused() {
    let path = edited_out_links("stage-misfiled-link.json", |ids, rest| {
        // `rest` is `],[c,d,..],...`: M0's first link moves to M1's list.
        format!("{}],[{},{}", ids[1..].join(","), ids[0], &rest[3..])
    });
    assert_refused_naming_machine_0(&path);
}

/// `stage` reads a bare catalog and the `scenarios` exporter's wrapper
/// object alike, and names the file when it is neither.
#[test]
fn a_bare_catalog_and_the_exporter_wrapper_both_load() {
    let bare = scenario_file("stage-bare.json");
    let text = std::fs::read_to_string(&bare).expect("read");
    let wrapped = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stage-wrapped.json");
    std::fs::write(&wrapped, format!(r#"{{"seed":3,"scenario":{text},"schedule":null}}"#))
        .expect("write");
    let runs: Vec<Output> =
        [&bare, &wrapped].into_iter().map(|path| stage(path, &["--json"])).collect();
    for out in &runs {
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }
    assert_eq!(runs[0].stdout, runs[1].stdout, "the same catalog schedules the same");

    let neither = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stage-neither.json");
    for (body, names) in [
        (r#"{"seed":3}"#, "missing field `network`"),
        (r#"{"seed":3,"scenario":{"items":[]}}"#, "field `scenario`: missing field `network`"),
        (r#"{"seed":3,"#, "unexpected end of input"),
    ] {
        std::fs::write(&neither, body).expect("write");
        let out = stage(&neither, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{body}: {stderr}");
        assert!(stderr.contains("stage-neither.json is not a scenario JSON"), "{stderr}");
        assert!(stderr.contains(names), "{body}: {stderr}");
    }
}
