//! Runs a workload — warm-up, then passes for the time given — and folds
//! the passes into one report row per metric (`defs::Fold` says how).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::check;
use crate::defs::{self, Better, Fold, END_TO_END};
use crate::inputs::{cases, Scale, Workload};
use crate::stats;
use crate::workloads::{run_pass, Ctx, Pass};

/// One end-to-end figure, taken from its per-pass values as the metric's
/// `Fold` says, and those values for the spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub per_pass: Vec<f64>,
}

/// Everything reported about one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub workload: Workload,
    pub wall_s: f64,
    pub passes: usize,
    /// Operations behind the latency percentiles of one pass.
    pub op_samples: usize,
    /// The percentile `op_tail_us` is, by the ten-samples-beyond rule.
    pub tail_percentile: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty means every check passed.
    pub violations: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, Measured>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Digest of every weighted sum of the first pass, for comparing runs.
    pub output_digest: String,
    pub notes: Vec<String>,
}

impl WorkloadReport {
    pub fn new(workload: Workload) -> WorkloadReport {
        WorkloadReport {
            workload,
            wall_s: 0.0,
            passes: 0,
            op_samples: 0,
            tail_percentile: 0.0,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            output_digest: String::new(),
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The untraced run: one untimed warm-up pass, then full passes until
/// another would overrun `seconds` (always at least one). A daemon is
/// fresh every round, so a smoke-size warm-up is all a service workload
/// can use; an offline workload runs in this process, whose heap only a
/// full-size pass grows to its working size.
pub fn run_untraced(ctx: &Ctx, workload: Workload, seconds: f64) -> WorkloadReport {
    let started = Instant::now();
    let warm_scale = if workload.is_service() { Scale::Smoke } else { ctx.scale };
    let warm_up = cases(workload, ctx.seed, warm_scale);
    let warm = run_pass(ctx, workload, &warm_up, Duration::ZERO, false);

    let mut passes: Vec<Pass> = Vec::new();
    let measuring = Instant::now();
    loop {
        let pass_started = Instant::now();
        let inputs = cases(workload, ctx.seed, ctx.scale);
        let generation = pass_started.elapsed();
        passes.push(run_pass(ctx, workload, &inputs, generation, passes.is_empty()));
        let next_would_end = measuring.elapsed() + pass_started.elapsed();
        if ctx.scale == Scale::Smoke || next_would_end.as_secs_f64() > seconds {
            break;
        }
    }

    let mut report = fold(workload, &passes);
    // A warm-up that failed its checks is a failed run all the same.
    report.violations.extend(warm.violations.into_iter().map(|v| format!("warm-up: {v}")));
    report.wall_s = started.elapsed().as_secs_f64();
    report
}

fn fold(workload: Workload, passes: &[Pass]) -> WorkloadReport {
    let first = &passes[0];
    let mut report = WorkloadReport {
        passes: passes.len(),
        op_samples: first.op_samples,
        tail_percentile: first.tail_percentile,
        output_digest: check::digest(first.weighted_sums.iter().copied()),
        ..WorkloadReport::new(workload)
    };
    for pass in passes {
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        report.violations.extend(pass.violations.iter().cloned());
    }
    let excused: Vec<&String> = passes.iter().flat_map(|p| &p.known_defects).collect();
    if let Some(first) = excused.first() {
        report.notes.push(format!(
            "KNOWN DEFECT of the program, not failing the run (README, \"A defect the checks found\"): \
             {} link double-bookings after the fault phase in {} of {} passes, first: {first}",
            excused.len(),
            passes.iter().filter(|p| !p.known_defects.is_empty()).count(),
            passes.len(),
        ));
    }
    for metric in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
        let per_pass: Vec<f64> =
            passes.iter().filter_map(|p| p.values.get(metric.name).copied()).collect();
        if per_pass.len() < passes.len() {
            report.violations.push(format!("{}: not measured in every pass", metric.name));
        }
        if per_pass.is_empty() {
            continue;
        }
        let (lowest, highest) =
            per_pass.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let value = match (metric.fold, metric.better) {
            (Fold::Median, _) => stats::median(&per_pass),
            (Fold::Max, _) | (Fold::Best, Better::Higher) => highest,
            (Fold::Best, Better::Lower) => lowest,
        };
        report.end_to_end.insert(metric.name, Measured { value, per_pass });
    }
    report
}

/// The line the benchmark contract asks for: one JSON object with
/// `correct`, `attempted`, `failed` and the metrics of the run's kind.
pub fn contract_line(report: &WorkloadReport, traced: bool) -> String {
    let entry = |name: &str, value: f64, unit: &str| {
        let value = if value.is_finite() { value } else { 0.0 };
        format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
    };
    let metrics: Vec<String> = if traced {
        defs::PER_LAYER
            .iter()
            .filter_map(|m| Some(entry(m.name, *report.per_layer.get(m.name)?, m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.only_on.is_none())
            .filter_map(|m| Some(entry(m.name, report.end_to_end.get(m.name)?.value, m.unit)))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(op_p50: f64, rss: f64) -> Pass {
        let mut p = Pass { attempted: 10, op_samples: 10, tail_percentile: 0.5, ..Pass::default() };
        for m in END_TO_END.iter().filter(|m| m.applies_to(Workload::PlanGrid)) {
            p.values.insert(m.name, 1.0);
        }
        p.values.insert("op_p50_us", op_p50);
        p.values.insert("peak_rss_mb", rss);
        p
    }

    #[test]
    fn folding_takes_the_best_timing_and_the_memory_maximum() {
        let mut passes = [pass(30.0, 5.0), pass(10.0, 9.0), pass(20.0, 7.0)];
        for (p, (rate, share)) in passes.iter_mut().zip([(5.0, 0.3), (7.0, 0.1), (6.0, 0.2)]) {
            p.values.insert("ops_per_s", rate);
            p.values.insert("satisfied_share", share);
        }
        let report = fold(Workload::PlanGrid, &passes);
        assert_eq!(report.end_to_end["op_p50_us"].value, 10.0);
        assert_eq!(report.end_to_end["ops_per_s"].value, 7.0);
        assert_eq!(report.end_to_end["satisfied_share"].value, 0.2);
        assert_eq!(report.end_to_end["op_p50_us"].per_pass, vec![30.0, 10.0, 20.0]);
        assert_eq!(report.end_to_end["peak_rss_mb"].value, 9.0);
        assert_eq!((report.attempted, report.failed, report.passes), (30, 0, 3));
        assert!(report.correct());
        assert!(!report.end_to_end.contains_key("repair_p50_ms"));
    }

    #[test]
    fn a_metric_missing_from_a_pass_fails_the_run() {
        let mut broken = pass(1.0, 1.0);
        broken.values.remove("ops_per_s");
        let report = fold(Workload::PlanGrid, &[pass(1.0, 1.0), broken]);
        assert!(!report.correct());
    }

    #[test]
    fn the_contract_line_is_one_json_object_with_every_shared_metric() {
        let report = fold(Workload::PlanGrid, &[pass(1.5, 2.0)]);
        let line = contract_line(&report, false);
        let value: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("correct").and_then(serde_json::Value::as_bool), Some(true));
        let metrics = value.get("metrics").and_then(serde_json::Value::as_object).unwrap();
        let shared = END_TO_END.iter().filter(|m| m.only_on.is_none()).count();
        assert_eq!(metrics.len(), shared);
        assert!(line.contains("\"op_p50_us\":{\"value\":1.5,\"unit\":\"us\"}"));
    }
}
