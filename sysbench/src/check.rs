//! Output checks, all run outside the timed regions.
//!
//! The snapshot invariants are computed from the snapshot's own JSON
//! alone, never through the program's ledger, so a ledger bug cannot
//! hide itself from them.

use std::collections::BTreeMap;

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_service::engine::AdmissionEngine;
use serde_json::Value;

use crate::inputs::WEIGHTS;

/// The scheduler a `stage-serve` started without scheduler flags runs,
/// which the in-process engine must match for replays to be identical.
pub const SERVICE_HEURISTIC: Heuristic = Heuristic::FullPathOneDestination;

/// The configuration of a `stage-serve` started without scheduler flags.
pub fn service_config() -> HeuristicConfig {
    HeuristicConfig {
        criterion: CostCriterion::C4,
        eu: EuWeights::from_log10_ratio(2.0),
        priority_weights: PriorityWeights::new(WEIGHTS.to_vec()),
        caching: true,
    }
}

fn field<'a>(value: &'a Value, name: &str) -> Result<&'a Value, String> {
    value.get(name).ok_or_else(|| format!("snapshot: missing `{name}`"))
}

fn uint(value: &Value, name: &str) -> Result<u64, String> {
    field(value, name)?.as_u64().ok_or_else(|| format!("snapshot: `{name}` is not an integer"))
}

fn array<'a>(value: &'a Value, name: &str) -> Result<&'a [Value], String> {
    field(value, name)?.as_array().ok_or_else(|| format!("snapshot: `{name}` is not an array"))
}

/// What the checks of one `snapshot` reply found.
#[derive(Debug, Default, PartialEq)]
pub struct SnapshotFindings {
    /// Links whose `busy_ms` windows are malformed, unsorted or overlap.
    pub ledger: Vec<String>,
    /// Every other violated invariant.
    pub other: Vec<String>,
}

impl SnapshotFindings {
    pub fn all(self) -> Vec<String> {
        self.ledger.into_iter().chain(self.other).collect()
    }
}

/// Checks one `snapshot` reply after `submits` submissions; returns every
/// violated invariant (empty = all hold):
///
/// * per link, the `busy_ms` windows are well-formed, sorted and disjoint;
/// * `admitted + rejected = submissions = submits`;
/// * every satisfied request's `eta_ms` is within the deadline of the log
///   record that admitted it;
/// * `weighted_sum` is Σ `W[p]` over the satisfied requests.
pub fn snapshot_findings(snapshot: &Value, submits: u64) -> SnapshotFindings {
    snapshot_findings_inner(snapshot, submits)
        .unwrap_or_else(|malformed| SnapshotFindings { ledger: Vec::new(), other: vec![malformed] })
}

fn snapshot_findings_inner(snapshot: &Value, submits: u64) -> Result<SnapshotFindings, String> {
    let mut ledger = Vec::new();
    let mut violations = Vec::new();

    for entry in array(snapshot, "ledger")? {
        let link = uint(entry, "link")?;
        let mut previous_end = 0u64;
        for (i, window) in array(entry, "busy_ms")?.iter().enumerate() {
            let bounds = window.as_array().unwrap_or(&[]);
            let (Some(start), Some(end)) =
                (bounds.first().and_then(Value::as_u64), bounds.get(1).and_then(Value::as_u64))
            else {
                return Err(format!("snapshot: link {link} window {i} is not a [start, end] pair"));
            };
            if start > end {
                ledger.push(format!("link {link}: window [{start}, {end}] ends before it starts"));
            }
            if i > 0 && start < previous_end {
                ledger.push(format!(
                    "link {link}: window [{start}, {end}] overlaps or precedes one ending at {previous_end}"
                ));
            }
            previous_end = previous_end.max(end);
        }
    }

    let (submissions, admitted, rejected) =
        (uint(snapshot, "submissions")?, uint(snapshot, "admitted")?, uint(snapshot, "rejected")?);
    if admitted + rejected != submissions || submissions != submits {
        violations.push(format!(
            "{admitted} admitted + {rejected} rejected, {submissions} submissions, {submits} submits sent"
        ));
    }

    // Request id → deadline, from the records that admitted it: its own
    // submit, or the optimizer swap that readmitted a refused one.
    let log = array(snapshot, "log")?;
    let mut deadline_of: BTreeMap<u64, u64> = BTreeMap::new();
    for record in log {
        match record.get("verb").and_then(Value::as_str) {
            Some("submit") => {
                if let Some(request) = record.get("request").and_then(Value::as_u64) {
                    deadline_of.insert(request, uint(record, "deadline_ms")?);
                }
            }
            Some("optimize") => {
                for swap in array(record, "swaps")? {
                    let refused = log
                        .get(uint(swap, "submission")? as usize)
                        .ok_or("snapshot: swap names a submission beyond the log")?;
                    deadline_of.insert(uint(swap, "admitted")?, uint(refused, "deadline_ms")?);
                }
            }
            _ => {}
        }
    }

    let mut weight = 0u64;
    for request in array(snapshot, "requests")? {
        let id = uint(request, "request")?;
        if field(request, "status")?.as_str() == Some("evicted") {
            continue;
        }
        let priority = uint(request, "priority")? as usize;
        weight +=
            WEIGHTS.get(priority).copied().ok_or(format!("request {id}: priority {priority}"))?;
        match (request.get("eta_ms").and_then(Value::as_u64), deadline_of.get(&id)) {
            (Some(eta), Some(&deadline)) if eta <= deadline => {}
            (eta, deadline) => violations.push(format!(
                "request {id}: eta {eta:?} against deadline {deadline:?} of its log record"
            )),
        }
    }
    let claimed = uint(snapshot, "weighted_sum")?;
    if claimed != weight {
        violations.push(format!("weighted_sum {claimed}, but satisfied requests weigh {weight}"));
    }
    Ok(SnapshotFindings { ledger, other: violations })
}

/// Replay identity: the snapshot's log through a fresh in-process engine
/// over the same catalog must serialize to the same bytes.
pub fn replay_violation(catalog: &Scenario, snapshot_line: &str) -> Option<String> {
    let snapshot: Value = match serde_json::from_str(snapshot_line) {
        Ok(v) => v,
        Err(e) => return Some(format!("snapshot does not parse: {e}")),
    };
    let mut engine = AdmissionEngine::new(catalog, SERVICE_HEURISTIC, service_config());
    for (i, record) in
        snapshot.get("log").and_then(Value::as_array).unwrap_or(&[]).iter().enumerate()
    {
        if let Err(e) = engine.replay_record(record) {
            return Some(format!("log record {i} does not replay: {e}"));
        }
    }
    match serde_json::to_string(&engine.snapshot()) {
        Ok(replayed) if replayed == snapshot_line => None,
        Ok(_) => Some("replaying the snapshot's log gives a different snapshot".to_string()),
        Err(e) => Some(format!("replayed snapshot does not serialize: {e}")),
    }
}

/// FNV-1a over a sequence of integers: equal outputs, equal digest.
pub fn digest(values: impl IntoIterator<Item = u64>) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in values {
        for byte in value.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(ledger: &str, weighted_sum: u64, eta: u64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"ok":true,"submissions":3,"admitted":2,"rejected":1,"weighted_sum":{weighted_sum},
            "log":[
              {{"verb":"submit","item":"a","destination":1,"deadline_ms":5000,"priority":2,"decision":"admitted","request":0,"eta_ms":{eta}}},
              {{"verb":"submit","item":"b","destination":1,"deadline_ms":9000,"priority":0,"decision":"rejected","reason":"late"}},
              {{"verb":"submit","item":"c","destination":2,"deadline_ms":7000,"priority":1,"decision":"admitted","request":1,"eta_ms":6000}}
            ],
            "requests":[
              {{"request":0,"item":"a","destination":1,"priority":2,"status":"admitted","eta_ms":{eta}}},
              {{"request":1,"item":"c","destination":2,"priority":1,"status":"evicted"}}
            ],
            "ledger":{ledger}}}"#
        ))
        .unwrap()
    }

    const DISJOINT: &str = r#"[{"link":4,"busy_ms":[[0,100],[100,250],[400,500]]}]"#;

    #[test]
    fn a_consistent_snapshot_passes() {
        assert_eq!(
            snapshot_findings(&snapshot(DISJOINT, 100, 4_000), 3),
            SnapshotFindings::default()
        );
    }

    #[test]
    fn an_overlapping_ledger_fails() {
        let overlapping = r#"[{"link":4,"busy_ms":[[0,100],[90,250]]}]"#;
        let found = snapshot_findings(&snapshot(overlapping, 100, 4_000), 3);
        assert!(found.other.is_empty(), "{found:?}");
        let v = found.ledger;
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("link 4") && v[0].contains("overlaps"), "{v:?}");
        let unsorted = r#"[{"link":4,"busy_ms":[[300,400],[0,100]]}]"#;
        assert_eq!(snapshot_findings(&snapshot(unsorted, 100, 4_000), 3).ledger.len(), 1);
    }

    #[test]
    fn wrong_sums_late_deliveries_and_lost_submits_fail() {
        // Evicted request 1 must not count: 110 is wrong, 100 is right.
        assert_eq!(snapshot_findings(&snapshot(DISJOINT, 110, 4_000), 3).other.len(), 1);
        // eta after the deadline in the log record.
        assert_eq!(snapshot_findings(&snapshot(DISJOINT, 100, 5_001), 3).other.len(), 1);
        // The harness sent 4 submits, the daemon counted 3.
        assert_eq!(snapshot_findings(&snapshot(DISJOINT, 100, 4_000), 4).other.len(), 1);
        // A reply that is not a snapshot at all is one violation, not a panic.
        assert_eq!(snapshot_findings(&Value::Null, 0).all().len(), 1);
    }

    #[test]
    fn a_real_engine_snapshot_passes_and_replays() {
        let case = &crate::inputs::cases(
            crate::inputs::Workload::ServePaper,
            1,
            crate::inputs::Scale::Smoke,
        )[0];
        let mut engine = AdmissionEngine::new(&case.scenario, SERVICE_HEURISTIC, service_config());
        for args in &case.stream {
            engine.submit(args).unwrap();
        }
        let line = serde_json::to_string(&engine.snapshot()).unwrap();
        let value: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            snapshot_findings(&value, case.stream.len() as u64),
            SnapshotFindings::default()
        );
        assert_eq!(replay_violation(&case.scenario, &line), None);
        assert!(
            replay_violation(&case.scenario, &line.replacen("admitted", "admitted ", 1)).is_some()
        );
    }

    #[test]
    fn digests_separate_sequences() {
        assert_eq!(digest([1, 2, 3]), digest([1, 2, 3]));
        assert_ne!(digest([1, 2, 3]), digest([3, 2, 1]));
    }
}
