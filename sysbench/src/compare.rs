//! `dstage-bench compare A.json B.json`: applies each end-to-end metric's
//! bound per (metric, workload) to two reports of `--out`.

use serde_json::Value;

use crate::defs::{self, Better, FAILED_SHARE};
use crate::inputs::Workload;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of either report is wider than the bound, so
    /// the medians cannot settle it either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload in one report.
struct Side {
    value: f64,
    per_pass: Vec<f64>,
}

/// `setup_s` is bounded by `max(25 %, 0.25 s)`: set-up here takes
/// milliseconds, and a quarter of a millisecond is not a regression.
const SETUP_FLOOR_S: f64 = 0.25;

/// The bound as a share of `a`'s value, with `setup_s`'s absolute floor.
fn effective_bound(metric: &defs::EndToEnd, a: &Side) -> f64 {
    if metric.name == "setup_s" && a.value > 0.0 {
        metric.bound.max(SETUP_FLOOR_S / a.value)
    } else {
        metric.bound
    }
}

/// The verdict for one (metric, workload) pair.
fn judge(better: Better, bound: f64, a: &Side, b: &Side) -> (Verdict, f64, f64) {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let spread = stats::relative_spread(&a.per_pass).max(stats::relative_spread(&b.per_pass));
    let verdict = if spread > bound {
        // Too noisy to call, unless every run of B beats every run of A.
        let every_b_better = !a.per_pass.is_empty()
            && !b.per_pass.is_empty()
            && a.per_pass.iter().all(|x| {
                b.per_pass.iter().all(|y| match better {
                    Better::Lower => y < x,
                    Better::Higher => y > x,
                })
            });
        if every_b_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    (verdict, worse_by, spread)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(report: &Value) -> &[Value] {
    report.get("workloads").and_then(Value::as_array).unwrap_or(&[])
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let entry = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: entry.get("value")?.as_f64()?,
        per_pass: entry
            .get("per_pass")
            .and_then(Value::as_array)
            .map(|values| values.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default(),
    })
}

/// Compares two report files, prints one row per (metric, workload) pair
/// present in both, and returns the verdicts.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<Vec<Verdict>, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |r: &Value| r.get("host").and_then(|h| h.get("seed")).and_then(Value::as_u64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let mut verdicts = Vec::new();
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(wb) =
            workloads(&b).iter().find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let mut row = |metric: &str, va: String, vb: String, detail: String, verdict: Verdict| {
            println!("{name:<14} {metric:<24} {va:>14} {vb:>14} {detail}  {}", verdict.as_str());
            verdicts.push(verdict);
        };
        for m in defs::END_TO_END.iter() {
            let (Some(sa), Some(sb)) = (side(wa, m.name), side(wb, m.name)) else { continue };
            let bound = effective_bound(m, &sa);
            let (verdict, worse_by, spread) = judge(m.better, bound, &sa, &sb);
            row(
                m.name,
                format!("{:.4}", sa.value),
                format!("{:.4}", sb.value),
                format!(
                    "{:>8.1}% {:>7.1}% {:>6}",
                    100.0 * worse_by,
                    100.0 * spread,
                    // The absolute floor of `setup_s` is in force.
                    if bound > m.bound {
                        format!("{SETUP_FLOOR_S}s")
                    } else {
                        format!("{:.0}%", 100.0 * bound)
                    }
                ),
                verdict,
            );
        }
        // failed_share is bounded absolutely: no failed operation at all.
        let failed = |w: &Value| w.get("failed").and_then(Value::as_u64).unwrap_or(0);
        let correct = |w: &Value| w.get("correct").and_then(Value::as_bool).unwrap_or(false);
        row(
            FAILED_SHARE,
            failed(wa).to_string(),
            failed(wb).to_string(),
            format!("{:>9} {:>8} {:>6}", "", "", "0"),
            if failed(wb) == 0 && correct(wb) { Verdict::Pass } else { Verdict::Regressed },
        );
        // Offline outputs are a function of the seed alone.
        let offline = Workload::from_name(name).is_some_and(|w| !w.is_service());
        if same_seed && offline {
            let digest = |w: &Value| {
                w.get("output_digest").and_then(Value::as_str).unwrap_or("").to_string()
            };
            let same = digest(wa) == digest(wb);
            row(
                "output_digest",
                digest(wa),
                digest(wb),
                format!("{:>9} {:>8} {:>6}", "", "", "exact"),
                if same { Verdict::Pass } else { Verdict::Regressed },
            );
        }
    }
    let count = |v: Verdict| verdicts.iter().filter(|x| **x == v).count();
    println!(
        "{} pass, {} regressed, {} unresolved",
        count(Verdict::Pass),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    if verdicts.is_empty() {
        return Err("the two reports share no (metric, workload) pair".to_string());
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, per_pass: &[f64]) -> Side {
        Side { value, per_pass: per_pass.to_vec() }
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        let steady = [100.0, 100.5, 99.5];
        let a = side(100.0, &steady);
        let verdict =
            |better, b: f64| judge(better, 0.10, &a, &side(b, &steady.map(|x| x * b / 100.0))).0;
        assert_eq!(verdict(Better::Lower, 109.0), Verdict::Pass);
        assert_eq!(verdict(Better::Lower, 111.0), Verdict::Regressed);
        assert_eq!(verdict(Better::Lower, 50.0), Verdict::Pass);
        assert_eq!(verdict(Better::Higher, 91.0), Verdict::Pass);
        assert_eq!(verdict(Better::Higher, 89.0), Verdict::Regressed);
        assert_eq!(verdict(Better::Higher, 200.0), Verdict::Pass);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = defs::END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        // 10 ms of set-up: 0.25 s is 25 times the value.
        assert_eq!(effective_bound(setup, &side(0.010, &[])), 25.0);
        // 10 s of set-up: the relative bound is the wider one.
        assert_eq!(effective_bound(setup, &side(10.0, &[])), setup.bound);
        let other = defs::END_TO_END.iter().find(|m| m.name == "pass_s").unwrap();
        assert_eq!(effective_bound(other, &side(0.010, &[])), other.bound);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 100.0, 120.0];
        let a = side(100.0, &noisy);
        assert_eq!(judge(Better::Lower, 0.10, &a, &side(100.0, &noisy)).0, Verdict::Unresolved);
        assert_eq!(judge(Better::Lower, 0.10, &a, &side(130.0, &[130.0])).0, Verdict::Unresolved);
        // Every run of B is below every run of A.
        assert_eq!(
            judge(Better::Lower, 0.10, &a, &side(50.0, &[40.0, 50.0, 60.0])).0,
            Verdict::Pass
        );
    }
}
