//! Crash-injection harness: the real `stage-serve` binary is killed at
//! deterministic crash points (and with plain SIGKILL) in a loop, then
//! restarted on the same data directory. After every restart the
//! recovered snapshot must be byte-identical to a fresh engine's replay
//! of the surviving decision log, and with `--durability always` no
//! acknowledged decision may be lost — a client retrying an
//! acknowledged key gets the recorded response back, not a double
//! admission.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use dstage_core::heuristic::Heuristic;
use dstage_model::scenario::Scenario;
use dstage_service::engine::AdmissionEngine;
use dstage_workload::{generate, GeneratorConfig};
use serde::Value;

#[path = "support/daemon.rs"]
mod daemon;
#[path = "support/oracle.rs"]
mod oracle;

use daemon::{config, connect, round_trip, try_round_trip};

/// Catalog seed shared by the daemon (`--generate`) and the in-test
/// replay engines.
const SEED: u64 = 11;
/// Wall-clock ceiling for each kill/restart loop; CI treats a slower
/// run as a hang.
const BUDGET: Duration = Duration::from_secs(120);
/// How long a read waits for a reply before the connection counts as dead.
const READ_TIMEOUT: Option<Duration> = Some(Duration::from_secs(20));

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
    spawn_server_with(data_dir, &["--durability", durability], crash)
}

/// [`spawn_server`] with `options` in place of the fsync policy.
fn spawn_server_with(data_dir: &Path, options: &[&str], crash: Option<&str>) -> (Child, String) {
    let seed = SEED.to_string();
    let dir = data_dir.to_str().expect("utf-8 temp path");
    let args = ["--generate", &seed, "--workers", "4", "--data-dir", dir];
    let crash = crash.map(|point| ("DSTAGE_CRASH_POINT", point));
    daemon::spawn_server(&[&args[..], options].concat(), crash.as_slice())
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
    let mut conn = connect(addr, READ_TIMEOUT);
    let snapshot = round_trip(&mut conn, "{\"verb\":\"snapshot\"}");
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
            &mut conn,
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
    let mut conn = connect(addr, READ_TIMEOUT);
    round_trip(&mut conn, "{\"verb\":\"shutdown\"}");
    drop(conn);
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
        let mut conn = connect(&addr, READ_TIMEOUT);
        // Submit until the armed point kills the server (bounded: every
        // decision appends and commits, so the second append or fsync
        // lands by the second submission).
        let mut crashed = false;
        for i in 0..6 {
            let key = format!("cp-{round}-{i}");
            let line = submit_line(&items, machines, pick, &key);
            pick += 1;
            match try_round_trip(&mut conn, &line) {
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
                && try_round_trip(&mut conn, "{\"verb\":\"checkpoint\"}").is_none()
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
        let mut conn = connect(&addr, READ_TIMEOUT);
        let submissions = 2 + next() as usize % 3;
        for i in 0..submissions {
            let key = format!("chaos-{round}-{i}");
            let line = submit_line(&items, machines, pick, &key);
            pick += 1;
            match try_round_trip(&mut conn, &line) {
                Some(response) if acked_ok(&response) => {
                    acked.insert(key, response);
                }
                _ => break, // the armed point fired
            }
            if crash.is_some() && i + 1 == submissions {
                // Give checkpoint-stage points a chance to fire too.
                let _ = try_round_trip(&mut conn, "{\"verb\":\"checkpoint\"}");
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

/// The names of `dir`'s files `<prefix>NNN<suffix>`, as their numbers.
fn numbered(dir: &Path, prefix: &str, suffix: &str) -> Vec<u64> {
    let names = std::fs::read_dir(dir).expect("read data dir").filter_map(Result::ok);
    let numbers = names.filter_map(|e| {
        let name = e.file_name().into_string().ok()?;
        name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
    });
    numbers.collect()
}

/// `--checkpoint-every`: concurrent keyed submits cross the periodic
/// trigger several times, then SIGKILL. The newest checkpoint was written
/// by the trigger (no client asked for one), every WAL segment before it
/// was compacted away, and the restart recovers the checkpoint plus its
/// WAL tail: a snapshot equal to a replay of its own log, with every
/// acknowledged key replaying its recorded response instead of being
/// decided again.
#[test]
fn periodic_checkpoints_compact_the_wal_and_recover_after_sigkill() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 20;
    let scenario = catalog();
    let items = item_names(&scenario);
    let machines = scenario.network().machine_count();
    let dir = temp_data_dir("periodic");
    let options = ["--durability", "always", "--checkpoint-every", "25"];
    let (mut child, addr) = spawn_server_with(&dir, &options, None);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let (addr, items) = (addr.clone(), items.clone());
            std::thread::spawn(move || {
                let mut conn = connect(&addr, READ_TIMEOUT);
                (0..PER_CLIENT)
                    .map(|i| {
                        let key = format!("periodic-{client}-{i}");
                        let line = submit_line(&items, machines, client * PER_CLIENT + i, &key);
                        let response = round_trip(&mut conn, &line);
                        assert!(acked_ok(&response), "submit must be acknowledged: {response:?}");
                        (key, response)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let acked: HashMap<String, Value> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
    assert_eq!(acked.len(), CLIENTS * PER_CLIENT);
    child.kill().expect("SIGKILL stage-serve");
    child.wait().expect("wait for killed server");

    let newest = numbered(&dir, "checkpoint-", ".ckpt").into_iter().max();
    let newest = newest.expect("a periodic checkpoint was written");
    assert!(newest >= 25, "checkpoint covers {newest} records, fewer than --checkpoint-every");
    let segments = numbered(&dir, "wal-", ".log");
    assert!(segments.iter().all(|&start| start >= newest), "{segments:?} below {newest}");

    let (mut child, addr) = spawn_server_with(&dir, &options, None);
    let log_len = |addr: &str| {
        let mut conn = connect(addr, READ_TIMEOUT);
        let snapshot = round_trip(&mut conn, "{\"verb\":\"snapshot\"}");
        snapshot.get("log").and_then(Value::as_array).expect("snapshot log").len()
    };
    let recovered = log_len(&addr);
    assert_eq!(recovered, CLIENTS * PER_CLIENT, "every acknowledged decision is in the log");
    assert_recovered(&addr, &scenario, &acked);
    assert_eq!(log_len(&addr), recovered, "a retried key was decided again");
    drain(&mut child, &addr);
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
    let mut conn = connect(&addr, READ_TIMEOUT);
    for i in 0..4 {
        let key = format!("term-{i}");
        let response = round_trip(&mut conn, &submit_line(&items, machines, i, &key));
        assert!(acked_ok(&response), "submit must be acknowledged: {response:?}");
        acked.insert(key, response);
    }
    drop(conn);

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
