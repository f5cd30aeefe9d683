//! The report: host block, one table per workload, and the JSON file
//! `compare` reads.

use std::path::Path;

use serde_json::Value;

use crate::defs::{self, END_TO_END, FAILED_SHARE, PER_LAYER};
use crate::inputs::{Scale, Workload};
use crate::runner::WorkloadReport;
use crate::stats;
use crate::workloads::Ctx;

/// Seconds one run measures when `--seconds` is not given; also
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// What the numbers were measured on, stated in every report so none is
/// mistaken for more than it is.
pub fn host_block(ctx: &Ctx) -> Vec<(String, Value)> {
    vec![
        ("nproc".to_string(), Value::UInt(ctx.nproc as u64)),
        ("clients".to_string(), Value::UInt(ctx.clients as u64)),
        ("threads".to_string(), Value::UInt(ctx.threads as u64)),
        (
            "daemon_workers".to_string(),
            Value::UInt(dstage_service::server::ServerConfig::default().workers as u64),
        ),
        ("load".to_string(), text("closed loop: a connection sends its next line after the reply")),
        ("transport".to_string(), text("loopback, not a link")),
        (
            "scratch_filesystem".to_string(),
            text(&crate::daemon::filesystem_of(&ctx.scratch.path(""))),
        ),
        (
            "fsync".to_string(),
            text("fsync and recovery figures are this sandbox's filesystem, not a device's"),
        ),
        ("commit".to_string(), text(&git_commit())),
        ("seed".to_string(), Value::UInt(ctx.seed)),
        ("scale".to_string(), text(if ctx.scale == Scale::Smoke { "smoke" } else { "full" })),
    ]
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository says so.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "not a git checkout".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or(head.clone(), |hash| hash.trim().to_string()),
        None => head,
    }
}

fn percent(share: f64) -> String {
    format!("{:.1}%", 100.0 * share)
}

/// Prints one workload's rows: every metric by name, with its unit.
/// On one core no parallel efficiency is printed: it would compare one
/// thread with one thread.
pub fn print_workload(report: &WorkloadReport, traced: bool, nproc: usize) {
    let workload = report.workload;
    println!();
    println!("== {} — {}", workload.name(), defs::why(workload));
    println!(
        "   wall {:.1} s, {} operations attempted, {} failed (failed_share {}), output checks {}",
        report.wall_s,
        report.attempted,
        report.failed,
        report.failed_share(),
        if report.violations.is_empty() { "passed" } else { "FAILED" },
    );
    if traced {
        println!("   {:<46} {:>16}  unit", "per-layer metric", "value");
        for m in PER_LAYER.iter().filter(|m| nproc > 1 || m.name != "sim.parallel_efficiency") {
            if let Some(value) = report.per_layer.get(m.name) {
                println!("   {:<46} {:>16.3}  {}", m.name, value, m.unit);
            }
        }
    } else {
        println!(
            "   {} passes, {} timed operations per pass, op_tail_us is p{:.0}, output_digest {}",
            report.passes,
            report.op_samples,
            100.0 * report.tail_percentile,
            report.output_digest
        );
        println!(
            "   {:<24} {:>16}  {:<9} {:>7} {:>8} {:>6}",
            "end-to-end metric", "figure", "unit", "passes", "spread", "bound"
        );
        for m in END_TO_END.iter() {
            if let Some(measured) = report.end_to_end.get(m.name) {
                println!(
                    "   {:<24} {:>16.4}  {:<9} {:>7} {:>8} {:>6}",
                    m.name,
                    measured.value,
                    m.unit,
                    measured.per_pass.len(),
                    percent(stats::relative_spread(&measured.per_pass)),
                    percent(m.bound),
                );
            }
        }
    }
    for note in &report.notes {
        println!("   note: {note}");
    }
    for violation in &report.violations {
        println!("   CHECK FAILED: {violation}");
    }
}

fn workload_value(report: &WorkloadReport, traced: bool) -> Value {
    let workload = report.workload;
    let texts = |items: &[String]| Value::Array(items.iter().map(|s| text(s)).collect());
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|m| {
            let measured = report.end_to_end.get(m.name)?;
            Some((
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(measured.value)),
                    ("unit".to_string(), text(m.unit)),
                    (
                        "per_pass".to_string(),
                        Value::Array(measured.per_pass.iter().map(|v| Value::Float(*v)).collect()),
                    ),
                ]),
            ))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|m| {
            let value = report.per_layer.get(m.name)?;
            Some((
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), text(m.unit)),
                ]),
            ))
        })
        .collect();
    Value::Object(vec![
        ("name".to_string(), text(workload.name())),
        ("traced".to_string(), Value::Bool(traced)),
        ("wall_s".to_string(), Value::Float(report.wall_s)),
        ("passes".to_string(), Value::UInt(report.passes as u64)),
        ("op_samples".to_string(), Value::UInt(report.op_samples as u64)),
        ("tail_percentile".to_string(), Value::Float(report.tail_percentile)),
        ("attempted".to_string(), Value::UInt(report.attempted)),
        ("failed".to_string(), Value::UInt(report.failed)),
        (FAILED_SHARE.to_string(), Value::Float(report.failed_share())),
        ("correct".to_string(), Value::Bool(report.correct())),
        ("output_digest".to_string(), text(&report.output_digest)),
        ("violations".to_string(), texts(&report.violations)),
        ("notes".to_string(), texts(&report.notes)),
        ("end_to_end".to_string(), Value::Object(end_to_end)),
        ("per_layer".to_string(), Value::Object(per_layer)),
    ])
}

/// The whole run as one JSON document (what `--out` writes).
pub fn document(ctx: &Ctx, reports: &[WorkloadReport], traced: bool) -> String {
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::UInt(1)),
        ("host".to_string(), Value::Object(host_block(ctx))),
        (
            "workloads".to_string(),
            Value::Array(reports.iter().map(|r| workload_value(r, traced)).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree always serializes")
}

/// `BENCHMARK.json`, rendered from the metric tables.
pub fn manifest() -> String {
    let entry = |fields: Vec<(&str, Value)>| {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let doc = entry(vec![
        ("command", Value::Array(vec![text("bash"), text("sysbench/run.sh")])),
        ("paths", Value::Array(vec![text("sysbench")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|w| entry(vec![("name", text(w.name())), ("why", text(defs::why(*w)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .filter(|m| m.only_on.is_none())
                    .map(|m| {
                        entry(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        entry(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a value tree always serializes") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        // `dstage-bench manifest > BENCHMARK.json` regenerates it.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest());
    }

    #[test]
    fn the_manifest_has_exactly_the_contract_keys() {
        let value: Value = serde_json::from_str(&manifest()).unwrap();
        let keys: Vec<&str> = value.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(value.get("workloads").unwrap().as_array().unwrap().len(), 5);
        assert!(manifest().len() < 64 * 1024);
    }
}
