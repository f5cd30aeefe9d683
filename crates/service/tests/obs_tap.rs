//! Read-only-tap byte-identity test at the service boundary: two
//! `stage-serve` daemons run the same sequential script, one with the
//! observability tap enabled (`DSTAGE_OBS=1`) and one with it disabled
//! (`DSTAGE_OBS=0`). Their snapshots must be byte-identical — metrics
//! and flight-recorder state may differ wildly, admission state may not.

use dstage_workload::{generate, GeneratorConfig};
use serde::Value;

#[path = "support/daemon.rs"]
mod daemon;

use daemon::{connect, round_trip, spawn_server};

const SEED: u64 = 11;

/// Runs the fixed script against a fresh daemon with `DSTAGE_OBS=obs`:
/// every catalog request submitted sequentially on one connection, one
/// disturbance, then snapshot + prometheus scrape + trace + shutdown.
/// Returns (snapshot bytes, prometheus text, trace response).
fn run_script(
    scenario_path: &std::path::Path,
    submissions: &[String],
    obs: &str,
) -> (String, String, Value) {
    let scenario = scenario_path.to_str().expect("utf-8 temp path");
    let (mut child, addr) =
        spawn_server(&["--scenario", scenario, "--workers", "4"], &[("DSTAGE_OBS", obs)]);
    let mut conn = connect(&addr, None);

    for line in submissions {
        let response = round_trip(&mut conn, line);
        assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true), "{response:?}");
    }
    let outage =
        round_trip(&mut conn, r#"{"verb":"inject","kind":"link_outage","link":0,"at_ms":60000}"#);
    assert_eq!(outage.get("ok").and_then(Value::as_bool), Some(true), "{outage:?}");

    let snapshot = round_trip(&mut conn, r#"{"verb":"snapshot"}"#);
    assert_eq!(snapshot.get("submissions").and_then(Value::as_u64), Some(submissions.len() as u64));
    let scrape = round_trip(&mut conn, r#"{"verb":"metrics","format":"prometheus"}"#);
    assert_eq!(scrape.get("ok").and_then(Value::as_bool), Some(true), "{scrape:?}");
    let text = scrape.get("text").and_then(Value::as_str).expect("prometheus text").to_string();
    let trace = round_trip(&mut conn, r#"{"verb":"trace","limit":64}"#);
    assert_eq!(trace.get("ok").and_then(Value::as_bool), Some(true), "{trace:?}");

    let bye = round_trip(&mut conn, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    drop(conn);
    let status = child.wait().expect("wait for stage-serve");
    assert!(status.success(), "stage-serve must drain cleanly, got {status:?}");

    let bytes = serde_json::to_string(&snapshot).expect("reserialize snapshot");
    (bytes, text, trace)
}

fn counter(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("series {series} missing from scrape:\n{text}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("series {series} is not a u64: {e}"))
}

#[test]
fn snapshots_are_byte_identical_with_obs_on_and_off() {
    let scenario = generate(&GeneratorConfig::small(), SEED);
    let scenario_path =
        std::env::temp_dir().join(format!("dstage-obs-tap-{}-{SEED}.json", std::process::id()));
    std::fs::write(&scenario_path, serde_json::to_string(&scenario).expect("serialize catalog"))
        .expect("write catalog file");

    let submissions: Vec<String> = scenario
        .requests()
        .map(|(_, r)| {
            format!(
                r#"{{"verb":"submit","item":"{}","destination":{},"deadline_ms":{},"priority":{}}}"#,
                scenario.item(r.item()).name(),
                r.destination().index(),
                r.deadline().as_millis(),
                r.priority().level()
            )
        })
        .collect();
    assert!(!submissions.is_empty());

    let (snapshot_on, prom_on, trace_on) = run_script(&scenario_path, &submissions, "1");
    let (snapshot_off, prom_off, trace_off) = run_script(&scenario_path, &submissions, "0");
    let _ = std::fs::remove_file(&scenario_path);

    // The invariant: admission state is untouched by the tap.
    assert_eq!(snapshot_on, snapshot_off, "observability must be a read-only tap");

    // Tap on: the ledger reflects the script (one decision per submit,
    // each admitted or refused; one injection) and the verb histograms
    // saw every dispatch.
    let n = submissions.len() as u64;
    assert_eq!(counter(&prom_on, "dstage_service_decisions_total"), n);
    assert_eq!(
        counter(&prom_on, "dstage_service_decisions_total"),
        counter(&prom_on, "dstage_service_admitted_total")
            + counter(&prom_on, "dstage_service_refused_total"),
    );
    assert_eq!(counter(&prom_on, "dstage_service_injections_total"), 1);
    assert_eq!(
        counter(&prom_on, r#"dstage_service_verb_latency_us_count{verb="submit"}"#),
        n,
        "every submit dispatch must land in the verb histogram"
    );
    // The flight recorder kept the logical order: sequence numbers are
    // strictly increasing and the submit events are present.
    let events = trace_on.get("events").and_then(Value::as_array).expect("trace events");
    assert!(!events.is_empty(), "tap on must record flight events");
    let seqs: Vec<u64> =
        events.iter().map(|e| e.get("seq").and_then(Value::as_u64).expect("seq")).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "sequence numbers must increase: {seqs:?}");
    assert!(
        events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("verb.submit")),
        "submit dispatches must appear in the flight recorder"
    );

    // Tap off: same exposition shape, but nothing recorded anywhere.
    assert_eq!(counter(&prom_off, "dstage_service_decisions_total"), 0);
    assert_eq!(counter(&prom_off, r#"dstage_service_verb_latency_us_count{verb="submit"}"#), 0);
    assert_eq!(trace_off.get("total_recorded").and_then(Value::as_u64), Some(0));
    assert_eq!(
        trace_off.get("events").and_then(Value::as_array).map(|events| events.len()),
        Some(0),
        "tap off must leave the flight recorder empty"
    );
}
