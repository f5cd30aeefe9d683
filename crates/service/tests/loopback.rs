//! Loopback integration test: the real `stage-serve` binary on an
//! ephemeral port, hammered by concurrent clients, must make exactly the
//! admission decisions a sequential offline replay of the same order
//! makes — checked byte for byte on the snapshot JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_service::engine::AdmissionEngine;
use dstage_workload::{generate, GeneratorConfig};
use serde::Value;

#[path = "support/oracle.rs"]
mod oracle;

const SEED: u64 = 11;

fn catalog() -> Scenario {
    generate(&GeneratorConfig::small(), SEED)
}

/// The heuristic configuration `stage-serve` is started with below.
fn config() -> HeuristicConfig {
    HeuristicConfig {
        criterion: CostCriterion::C4,
        eu: EuWeights::from_log10_ratio(2.0),
        priority_weights: PriorityWeights::paper_1_10_100(),
        caching: true,
    }
}

/// Starts the daemon on an ephemeral port and returns (child, addr).
fn spawn_server(scenario_path: &std::path::Path, workers: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stage-serve"))
        .args([
            "--scenario",
            scenario_path.to_str().expect("utf-8 temp path"),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--heuristic",
            "full-one",
            "--criterion",
            "C4",
            "--ratio",
            "2",
            "--weights",
            "1,10,100",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stage-serve");
    let stdout = child.stdout.take().expect("stage-serve stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (child, addr)
}

/// One NDJSON round trip on an existing connection.
fn round_trip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, request: &str) -> Value {
    writeln!(writer, "{request}").expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    let n = reader.read_line(&mut response).expect("recv");
    assert!(n > 0, "daemon closed the connection after {request:?}");
    serde_json::from_str(response.trim())
        .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    (BufReader::new(stream.try_clone().expect("clone stream")), stream)
}

/// Byte-identity at 8 workers — the daemon's default-ish pool size.
#[test]
fn concurrent_decisions_match_sequential_replay_byte_for_byte() {
    exercise_loopback(8, 8);
}

/// Four connections on four workers: every worker is a writer queueing
/// for its turn.
#[test]
fn four_clients_on_four_workers_match_sequential_replay() {
    exercise_loopback(4, 4);
}

/// Sixteen connections on sixteen workers: the longest queue of writers
/// the request stream can form.
#[test]
fn sixteen_clients_on_sixteen_workers_match_sequential_replay() {
    exercise_loopback(16, 16);
}

/// Eight connections on sixteen workers: half the pool has no connection
/// to serve while the other half takes turns.
#[test]
fn eight_clients_on_sixteen_workers_match_sequential_replay() {
    exercise_loopback(16, 8);
}

/// A point-to-multipoint submit over the wire: the group response
/// carries one per-destination decision each, later members reuse the
/// staged upstream copy, and the per-destination decision log replays
/// byte-for-byte.
#[test]
fn p2mp_submit_round_trip_shares_hops_and_replays() {
    let scenario = dstage_workload::small::fan_out();
    let scenario_path =
        std::env::temp_dir().join(format!("dstage-loopback-p2mp-{}.json", std::process::id()));
    std::fs::write(&scenario_path, serde_json::to_string(&scenario).expect("serialize catalog"))
        .expect("write catalog file");
    let (mut child, addr) = spawn_server(&scenario_path, 2);

    let item = scenario.items().next().expect("fan_out has an item").1.name().to_string();
    let (mut reader, mut writer) = connect(&addr);
    let line = format!(
        r#"{{"verb":"submit","item":"{item}","destinations":[2,3,4],"deadline_ms":1800000,"priority":2,"idempotency_key":"wire-g1"}}"#
    );
    let response = round_trip(&mut reader, &mut writer, &line);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("admitted").and_then(Value::as_u64), Some(3));
    assert_eq!(response.get("rejected").and_then(Value::as_u64), Some(0));
    let group = response.get("group").and_then(Value::as_array).expect("group array");
    let new_transfers: Vec<u64> = group
        .iter()
        .map(|m| m.get("new_transfers").and_then(Value::as_u64).expect("new_transfers"))
        .collect();
    assert_eq!(new_transfers, [2, 1, 1], "later members must reuse the staged hub copy");
    // A group retry replays every member decision byte-for-byte.
    let retry = round_trip(&mut reader, &mut writer, &line);
    assert_eq!(serde_json::to_string(&retry).unwrap(), serde_json::to_string(&response).unwrap());

    let snapshot = round_trip(&mut reader, &mut writer, r#"{"verb":"snapshot"}"#);
    assert_eq!(snapshot.get("submissions").and_then(Value::as_u64), Some(3));
    let bye = round_trip(&mut reader, &mut writer, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    drop((reader, writer));
    let status = child.wait().expect("wait for stage-serve");
    assert!(status.success(), "stage-serve must drain cleanly, got {status:?}");
    let _ = std::fs::remove_file(&scenario_path);

    let mut replay = AdmissionEngine::new(&scenario, Heuristic::FullPathOneDestination, config());
    let log = snapshot.get("log").and_then(Value::as_array).expect("snapshot log");
    for entry in log {
        replay.replay_record(entry).expect("replay log record");
    }
    assert_eq!(
        serde_json::to_string(&replay.snapshot()).expect("serialize replay"),
        serde_json::to_string(&snapshot).expect("reserialize snapshot"),
        "per-destination decisions must replay identically"
    );
}

fn exercise_loopback(workers: usize, clients: usize) {
    let scenario = catalog();
    let scenario_path = std::env::temp_dir()
        .join(format!("dstage-loopback-{}-{SEED}-w{workers}-c{clients}.json", std::process::id()));
    std::fs::write(&scenario_path, serde_json::to_string(&scenario).expect("serialize catalog"))
        .expect("write catalog file");
    let (mut child, addr) = spawn_server(&scenario_path, workers);

    // The catalog's request stream, as wire submissions.
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
    assert!(
        submissions.len() >= clients * 2,
        "need a couple of submissions per client, got {}",
        submissions.len()
    );

    // Concurrent phase: `clients` connections submitting disjoint chunks.
    let chunk_len = submissions.len().div_ceil(clients);
    let mut clients = Vec::new();
    for chunk in submissions.chunks(chunk_len) {
        let chunk = chunk.to_vec();
        let addr = addr.clone();
        clients.push(thread::spawn(move || {
            let (mut reader, mut writer) = connect(&addr);
            chunk
                .iter()
                .map(|line| round_trip(&mut reader, &mut writer, line))
                .collect::<Vec<Value>>()
        }));
    }
    let mut submission_indices = Vec::new();
    for client in clients {
        for response in client.join().expect("client thread") {
            assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
            let decision = response.get("decision").and_then(Value::as_str).unwrap_or("");
            assert!(
                decision == "admitted" || decision == "rejected",
                "unexpected decision in {response:?}"
            );
            submission_indices
                .push(response.get("submission").and_then(Value::as_u64).expect("submission id"));
        }
    }
    // Every submission was processed exactly once, in some serialized order.
    submission_indices.sort_unstable();
    assert_eq!(submission_indices, (0..submissions.len() as u64).collect::<Vec<_>>());

    // Authoritative state, a query spot-check, then shutdown.
    let (mut reader, mut writer) = connect(&addr);
    let snapshot = round_trip(&mut reader, &mut writer, r#"{"verb":"snapshot"}"#);
    assert_eq!(snapshot.get("submissions").and_then(Value::as_u64), Some(submissions.len() as u64));
    let admitted = snapshot.get("admitted").and_then(Value::as_u64).expect("admitted count");
    assert!(admitted > 0, "the small catalog must admit something");
    let query = round_trip(&mut reader, &mut writer, r#"{"verb":"query","request":0}"#);
    assert_eq!(query.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(query.get("status").and_then(Value::as_str), Some("admitted"));
    let metrics = round_trip(&mut reader, &mut writer, r#"{"verb":"metrics"}"#);
    assert_eq!(
        metrics.get("latency").and_then(|l| l.get("count")).and_then(Value::as_u64),
        Some(submissions.len() as u64)
    );
    let bye = round_trip(&mut reader, &mut writer, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    drop((reader, writer));
    let status = child.wait().expect("wait for stage-serve");
    assert!(status.success(), "stage-serve must drain cleanly, got {status:?}");
    let _ = std::fs::remove_file(&scenario_path);

    // Sequential replay of the daemon's serialized decision order through
    // a fresh in-process engine must reproduce the snapshot byte for byte.
    let mut replay = AdmissionEngine::new(&scenario, Heuristic::FullPathOneDestination, config());
    let log = snapshot.get("log").and_then(Value::as_array).expect("snapshot log");
    for entry in log {
        replay.replay_record(entry).expect("replay log record");
    }
    let live_bytes = serde_json::to_string(&snapshot).expect("reserialize snapshot");
    let replay_bytes = serde_json::to_string(&replay.snapshot()).expect("serialize replay");
    assert_eq!(replay_bytes, live_bytes, "concurrent and sequential admission must agree");
    oracle::assert_sound(&snapshot, &scenario, "after the concurrent run");
}
