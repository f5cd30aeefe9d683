//! Crash-injection harness: the real `stage-serve` binary is killed at
//! deterministic crash points (and with plain SIGKILL) in a loop, then
//! restarted on the same data directory. After every restart the
//! recovered snapshot must be byte-identical to a fresh engine's replay
//! of the surviving decision log, and with `--durability always` no
//! acknowledged decision may be lost — a client retrying an
//! acknowledged key gets the recorded response back, not a double
//! admission.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::request::PriorityWeights;
use dstage_model::scenario::Scenario;
use dstage_service::engine::AdmissionEngine;
use dstage_workload::{generate, GeneratorConfig};
use serde::Value;

#[path = "support/oracle.rs"]
mod oracle;

/// Catalog seed shared by the daemon (`--generate`) and the in-test
/// replay engines.
const SEED: u64 = 11;
/// Wall-clock ceiling for each kill/restart loop; CI treats a slower
/// run as a hang.
const BUDGET: Duration = Duration::from_secs(120);

/// The heuristic configuration matching `stage-serve`'s defaults.
fn config() -> HeuristicConfig {
    HeuristicConfig {
        criterion: CostCriterion::C4,
        eu: EuWeights::from_log10_ratio(2.0),
        priority_weights: PriorityWeights::paper_1_10_100(),
        caching: true,
    }
}

fn catalog() -> Scenario {
    generate(&GeneratorConfig::paper(), SEED)
}

fn item_names(scenario: &Scenario) -> Vec<String> {
    scenario.item_ids().map(|i| scenario.item(i).name().to_string()).collect()
}

fn temp_data_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dstage-crash-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spawns the daemon on `data_dir`, optionally arming a crash point,
/// and waits for the banner.
fn spawn_server(data_dir: &Path, durability: &str, crash: Option<&str>) -> (Child, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_stage-serve"));
    command
        .args([
            "--generate",
            &SEED.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "4",
            "--durability",
            durability,
            "--data-dir",
        ])
        .arg(data_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env_remove("DSTAGE_CRASH_POINT");
    if let Some(point) = crash {
        command.env("DSTAGE_CRASH_POINT", point);
    }
    let mut child = command.spawn().expect("spawn stage-serve");
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

fn connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone stream")), stream)
}

/// One round trip that tolerates the server dying mid-request (that is
/// the point of this suite): `None` means no response arrived.
fn try_round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> Option<Value> {
    if writeln!(writer, "{request}").is_err() || writer.flush().is_err() {
        return None;
    }
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(n) if n > 0 => serde_json::from_str(response.trim()).ok(),
        _ => None,
    }
}

fn round_trip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, request: &str) -> Value {
    try_round_trip(reader, writer, request)
        .unwrap_or_else(|| panic!("no response to {request:?} from a healthy server"))
}

fn acked_ok(response: &Value) -> bool {
    response.get("ok").and_then(Value::as_bool) == Some(true)
}

fn submit_line(items: &[String], machines: usize, pick: usize, key: &str) -> String {
    format!(
        "{{\"verb\":\"submit\",\"item\":\"{}\",\"destination\":{},\"deadline_ms\":{},\
         \"priority\":{},\"idempotency_key\":\"{key}\"}}",
        items[pick % items.len()],
        pick % machines,
        3_600_000 + (pick as u64) * 120_000,
        pick % 3,
    )
}

/// Asserts the daemon's snapshot is byte-identical to a fresh engine
/// replaying the snapshot's own decision log, and that every
/// acknowledged submission is present with its recorded decision —
/// which a keyed retry replays verbatim instead of deciding again.
fn assert_recovered(addr: &str, scenario: &Scenario, acked: &HashMap<String, Value>) {
    let (mut reader, mut writer) = connect(addr);
    let snapshot = round_trip(&mut reader, &mut writer, "{\"verb\":\"snapshot\"}");
    let log = snapshot.get("log").and_then(Value::as_array).expect("snapshot log");

    // Byte-identity: the recovered state replays from its own log.
    let mut replay = AdmissionEngine::new(scenario, Heuristic::FullPathOneDestination, config());
    for entry in log {
        replay.replay_record(entry).expect("replay log record");
    }
    assert_eq!(
        serde_json::to_string(&snapshot).expect("snapshot json"),
        serde_json::to_string(&replay.snapshot()).expect("replay json"),
        "recovered snapshot must equal a fault-free replay of the surviving log"
    );
    oracle::assert_sound(&snapshot, scenario, "after recovery");

    // No acknowledged decision lost, and retries replay it unchanged.
    for (key, response) in acked {
        let entry = log
            .iter()
            .find(|e| e.get("idempotency_key").and_then(Value::as_str) == Some(key))
            .unwrap_or_else(|| panic!("acknowledged submission {key} missing after recovery"));
        assert_eq!(
            entry.get("decision").and_then(Value::as_str),
            response.get("decision").and_then(Value::as_str),
            "decision for {key} changed across recovery"
        );
        let item = entry.get("item").and_then(Value::as_str).expect("item");
        let destination = entry.get("destination").and_then(Value::as_u64).expect("destination");
        let deadline = entry.get("deadline_ms").and_then(Value::as_u64).expect("deadline");
        let priority = entry.get("priority").and_then(Value::as_u64).expect("priority");
        let retry = round_trip(
            &mut reader,
            &mut writer,
            &format!(
                "{{\"verb\":\"submit\",\"item\":\"{item}\",\"destination\":{destination},\
                 \"deadline_ms\":{deadline},\"priority\":{priority},\
                 \"idempotency_key\":\"{key}\"}}"
            ),
        );
        assert_eq!(
            serde_json::to_string(&retry).expect("retry json"),
            serde_json::to_string(response).expect("acked json"),
            "retry of acknowledged key {key} must return the recorded response"
        );
    }
}

/// Drains the daemon with the `shutdown` verb and insists on exit 0.
fn drain(child: &mut Child, addr: &str) {
    let (mut reader, mut writer) = connect(addr);
    round_trip(&mut reader, &mut writer, "{\"verb\":\"shutdown\"}");
    drop((reader, writer));
    let status = child.wait().expect("wait for drained server");
    assert!(status.success(), "drain must exit cleanly, got {status:?}");
}

/// Every named crash point: the daemon is driven until the armed point
/// aborts it, restarted, and checked — acknowledged decisions survive
/// `kill -9`-grade crashes at every stage of the WAL and checkpoint
/// paths.
#[test]
fn every_crash_point_recovers_without_losing_acknowledged_decisions() {
    let started = Instant::now();
    let scenario = catalog();
    let items = item_names(&scenario);
    let machines = scenario.network().machine_count();
    let dir = temp_data_dir("points");
    // `:2` arms the second passage so at least one earlier operation is
    // acknowledged before the crash lands; checkpoint points fire on the
    // explicit `checkpoint` verb.
    let rounds = [
        ("wal_append:2", false),
        ("wal_tear:1", false),
        ("pre_fsync:2", false),
        ("post_fsync:2", false),
        ("checkpoint_tmp:1", true),
        ("checkpoint_rename:1", true),
    ];
    let mut acked: HashMap<String, Value> = HashMap::new();
    let mut pick = 0usize;
    for (round, &(point, checkpoint)) in rounds.iter().enumerate() {
        let (mut child, addr) = spawn_server(&dir, "always", Some(point));
        let (mut reader, mut writer) = connect(&addr);
        // Submit until the armed point kills the server (bounded: every
        // decision appends and commits, so the second append or fsync
        // lands by the second submission).
        let mut crashed = false;
        for i in 0..6 {
            let key = format!("cp-{round}-{i}");
            let line = submit_line(&items, machines, pick, &key);
            pick += 1;
            match try_round_trip(&mut reader, &mut writer, &line) {
                Some(response) if acked_ok(&response) => {
                    acked.insert(key, response);
                }
                _ => {
                    crashed = true;
                    break;
                }
            }
            if checkpoint
                && i >= 1
                && try_round_trip(&mut reader, &mut writer, "{\"verb\":\"checkpoint\"}").is_none()
            {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "crash point {point} never fired");
        let status = child.wait().expect("wait for crashed server");
        assert!(!status.success(), "a crash must not exit cleanly ({point})");

        // Restart without the crash point: recovery must hold the line.
        let (mut child, addr) = spawn_server(&dir, "always", None);
        assert_recovered(&addr, &scenario, &acked);
        // No checkpoint temp files survive recovery.
        let leftovers = std::fs::read_dir(&dir)
            .expect("read data dir")
            .filter_map(Result::ok)
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(leftovers, 0, "recovery must clear checkpoint temp files");
        drain(&mut child, &addr);
        assert!(started.elapsed() < BUDGET, "crash-point loop exceeded {BUDGET:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Randomized crash chaos: a fixed-seed LCG picks crash points, arm
/// counts, and outright SIGKILLs across rounds; the data directory
/// accumulates state the whole way. Every restart must recover a
/// snapshot equal to the fault-free replay of the surviving log, with
/// every acknowledged decision intact — then a clean drain preserves
/// everything.
#[test]
fn randomized_crash_chaos_preserves_acknowledged_decisions() {
    let started = Instant::now();
    let scenario = catalog();
    let items = item_names(&scenario);
    let machines = scenario.network().machine_count();
    let dir = temp_data_dir("chaos");
    let mut state: u64 = 0xD5_7A6E; // fixed seed: same kill schedule every run
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let points = ["wal_append", "wal_tear", "pre_fsync", "post_fsync", "checkpoint_tmp"];
    let mut acked: HashMap<String, Value> = HashMap::new();
    let mut pick = 0usize;
    for round in 0..5 {
        let sigkill = next() % 3 == 0;
        let point;
        let crash = if sigkill {
            None
        } else {
            point = format!("{}:{}", points[next() as usize % points.len()], next() % 2 + 1);
            Some(point.as_str())
        };
        let (mut child, addr) = spawn_server(&dir, "always", crash);
        let (mut reader, mut writer) = connect(&addr);
        let submissions = 2 + next() as usize % 3;
        for i in 0..submissions {
            let key = format!("chaos-{round}-{i}");
            let line = submit_line(&items, machines, pick, &key);
            pick += 1;
            match try_round_trip(&mut reader, &mut writer, &line) {
                Some(response) if acked_ok(&response) => {
                    acked.insert(key, response);
                }
                _ => break, // the armed point fired
            }
            if crash.is_some() && i + 1 == submissions {
                // Give checkpoint-stage points a chance to fire too.
                let _ = try_round_trip(&mut reader, &mut writer, "{\"verb\":\"checkpoint\"}");
            }
        }
        // Whatever survived the round dies hard — an armed point that
        // never fired still gets its crash, via SIGKILL.
        let _ = child.kill();
        let _ = child.wait();

        let (mut child, addr) = spawn_server(&dir, "always", None);
        assert_recovered(&addr, &scenario, &acked);
        drain(&mut child, &addr);
        assert!(started.elapsed() < BUDGET, "chaos loop exceeded {BUDGET:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM is a graceful drain: in-flight state is fsynced whatever the
/// policy (here `interval:60000`, which would otherwise leave the tail
/// unsynced for a minute), the process exits 0, and a restart recovers
/// every decision.
#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_loses_nothing() {
    let scenario = catalog();
    let items = item_names(&scenario);
    let machines = scenario.network().machine_count();
    let dir = temp_data_dir("sigterm");
    let (mut child, addr) = spawn_server(&dir, "interval:60000", None);

    let mut acked: HashMap<String, Value> = HashMap::new();
    let (mut reader, mut writer) = connect(&addr);
    for i in 0..4 {
        let key = format!("term-{i}");
        let response =
            round_trip(&mut reader, &mut writer, &submit_line(&items, machines, i, &key));
        assert!(acked_ok(&response), "submit must be acknowledged: {response:?}");
        acked.insert(key, response);
    }
    drop((reader, writer));

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let status = child.wait().expect("wait for drained server");
    assert!(status.success(), "SIGTERM must drain and exit 0, got {status:?}");

    let (mut child, addr) = spawn_server(&dir, "always", None);
    assert_recovered(&addr, &scenario, &acked);
    drain(&mut child, &addr);
    std::fs::remove_dir_all(&dir).ok();
}
