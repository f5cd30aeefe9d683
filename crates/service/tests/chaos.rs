//! Chaos integration test: the real `stage-serve` binary under the real
//! `stage-loadgen` with its deterministic fault proxy interposed, plus
//! live disturbance injections mid-run. The invariant: the daemon's
//! post-chaos snapshot must be byte-identical to a fault-free sequential
//! replay of the surviving decision log — faults may slow clients down
//! and force retries, but they must never corrupt admission state.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dstage_core::cost::{CostCriterion, EuWeights};
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::request::PriorityWeights;
use dstage_service::engine::AdmissionEngine;
use dstage_service::protocol::{InjectArgs, InjectKind, SubmitArgs};
use dstage_workload::{generate, Family, GeneratorConfig};
use serde::Value;

#[path = "support/oracle.rs"]
mod oracle;

/// Workload seed shared by the daemon (`--generate`) and the load
/// generator (`--seed`) so item names line up.
const SEED: u64 = 11;
/// Fault-schedule seed for the loadgen chaos proxy. Fixed so CI runs the
/// same refuse/cut/delay schedule every time.
const CHAOS_SEED: u64 = 7;
const REQUESTS: usize = 48;
/// Wall-clock ceiling for the whole run (chaos delays + retries
/// included); CI treats a slower run as a hang.
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

fn spawn_server(family: &str) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stage-serve"))
        .args([
            "--generate",
            &SEED.to_string(),
            "--family",
            family,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "8",
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

/// Parses a Prometheus exposition and asserts the chaos-run ledger
/// identities: every decision is admitted or refused, every displaced
/// request is repaired or evicted, and all four instrumented layers
/// expose series.
fn assert_ledger_consistent(text: &str) {
    let value = |series: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("series {series} missing from scrape:\n{text}"))
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("series {series} is not a u64: {e}"))
    };

    let decisions = value("dstage_service_decisions_total");
    let admitted = value("dstage_service_admitted_total");
    let refused = value("dstage_service_refused_total");
    // Keyed retries dedup before the engine decides, so despite chaos
    // re-sends there is exactly one decision per unique submission.
    assert_eq!(decisions, REQUESTS as u64, "one decision per unique submission");
    assert_eq!(decisions, admitted + refused, "every decision admits or refuses");

    assert_eq!(value("dstage_service_injections_total"), 2, "both disturbances recorded");
    let displaced = value("dstage_service_displaced_total");
    let repairs = value("dstage_service_repairs_total");
    let evictions = value("dstage_service_evictions_total");
    assert_eq!(displaced, repairs + evictions, "every displaced request is repaired or evicted");

    // Breadth: at least 12 distinct metric families spanning all four
    // instrumented layers (histogram _bucket/_sum/_count rows fold into
    // one family).
    let mut families: Vec<&str> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split([' ', '{']).next())
        .map(|name| {
            name.strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name)
        })
        .collect();
    families.sort_unstable();
    families.dedup();
    assert!(families.len() >= 12, "only {} metric families: {families:?}", families.len());
    for layer in ["dstage_service_", "dstage_resources_", "dstage_path_", "dstage_sim_"] {
        assert!(families.iter().any(|f| f.starts_with(layer)), "no {layer}* series in the scrape");
    }
}

/// The DDCCast headroom claim under the harness's fixed injection
/// script, as far as it holds on a ledger that books every transfer once:
/// because `alap` parks low-priority transfers against their deadlines
/// instead of packing the early timeline, the scripted disturbances
/// displace fewer of its admitted requests, evict no more of them, and
/// leave a strictly larger weighted sum than under `partial` — with both
/// post-repair snapshots sound under the ledger-independent oracle.
///
/// Not claimed: the re-admission *rate*. `alap` repairs 5 of its 16
/// displaced requests, `partial` 7 of its 19 (EXPERIMENTS.md "Release in
/// place"): the rate only read higher while a sixth repair crossed a
/// window the old replay had dropped from the ledger.
#[test]
fn alap_has_fewer_displaced_no_more_evicted_and_a_larger_weighted_sum_than_partial() {
    let scenario = generate(&GeneratorConfig::paper(), SEED);
    let item = {
        let (_, request) = scenario.requests().next().expect("paper catalog has requests");
        scenario.item(request.item()).name().to_string()
    };
    let run = |heuristic: Heuristic| {
        let mut engine = AdmissionEngine::new(&scenario, heuristic, config());
        for (_, r) in scenario.requests() {
            engine
                .submit(&SubmitArgs {
                    item: scenario.item(r.item()).name().to_string(),
                    destination: r.destination().index() as u32,
                    deadline_ms: r.deadline().as_millis(),
                    priority: r.priority().level(),
                    idempotency_key: None,
                })
                .expect("valid submission");
        }
        engine
            .inject(&InjectArgs { kind: InjectKind::LinkOutage { link: 0 }, at_ms: 60_000 })
            .expect("inject the outage");
        engine
            .inject(&InjectArgs {
                kind: InjectKind::CopyLoss { item: item.clone(), machine: 0 },
                at_ms: 120_000,
            })
            .expect("inject the copy loss");
        oracle::assert_sound(&engine.snapshot(), &scenario, &format!("{heuristic} after repair"));
        engine.counters()
    };
    let partial = run(Heuristic::PartialPath);
    let alap = run(Heuristic::Alap);
    let (partial_displaced, alap_displaced) =
        (partial.repaired + partial.evicted, alap.repaired + alap.evicted);
    assert!(
        partial_displaced > 0 && alap_displaced > 0,
        "the injection script must displace admitted requests under both schedulers"
    );
    assert!(
        alap_displaced < partial_displaced,
        "the script displaced no fewer of alap's requests: {alap_displaced} >= {partial_displaced}"
    );
    assert!(
        alap.evicted <= partial.evicted,
        "alap evicted more displaced requests than partial: {} > {}",
        alap.evicted,
        partial.evicted
    );
    assert!(
        alap.weighted_sum > partial.weighted_sum,
        "alap must keep a strictly larger post-repair weighted sum: {} <= {}",
        alap.weighted_sum,
        partial.weighted_sum
    );
}

#[test]
fn chaotic_run_snapshot_equals_fault_free_replay() {
    chaos_run(Family::Paper);
}

/// The same chaos invariant on the inter-datacenter WAN family: its
/// catalog is built from point-to-multipoint groups expanded to
/// per-destination requests, so this pins that expansion survives faults
/// and replays byte-for-byte like any plain catalog.
#[test]
fn wan_family_chaos_snapshot_matches_fault_free_replay() {
    chaos_run(Family::Wan);
}

fn chaos_run(family: Family) {
    let started = Instant::now();
    let scenario = family.generate(SEED);
    let item = {
        let (_, request) = scenario.requests().next().expect("catalog has requests");
        scenario.item(request.item()).name().to_string()
    };
    let (mut server, addr) = spawn_server(family.name());

    // Load phase: the real loadgen binary with the chaos proxy
    // interposed. Every submit line is keyed, so retries through the
    // faulty proxy must converge on exactly one decision per line.
    let loadgen = Command::new(env!("CARGO_BIN_EXE_stage-loadgen"))
        .args([
            "--addr",
            &addr,
            "--clients",
            "4",
            "--requests",
            &REQUESTS.to_string(),
            "--seed",
            &SEED.to_string(),
            "--family",
            family.name(),
            "--timeout-ms",
            "2000",
            "--retries",
            "8",
            "--chaos",
            &CHAOS_SEED.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn stage-loadgen");

    // Disturbances land while the chaotic load is in flight; the engine's
    // write lock serializes them into the decision log wherever they fall.
    std::thread::sleep(Duration::from_millis(200));
    let (mut reader, mut writer) = connect(&addr);
    let outage = round_trip(
        &mut reader,
        &mut writer,
        r#"{"verb":"inject","kind":"link_outage","link":0,"at_ms":60000}"#,
    );
    assert_eq!(outage.get("ok").and_then(Value::as_bool), Some(true), "{outage:?}");
    let loss = round_trip(
        &mut reader,
        &mut writer,
        &format!(
            r#"{{"verb":"inject","kind":"copy_loss","item":"{item}","machine":0,"at_ms":120000}}"#
        ),
    );
    assert_eq!(loss.get("ok").and_then(Value::as_bool), Some(true), "{loss:?}");
    drop((reader, writer));

    let output = loadgen.wait_with_output().expect("wait for stage-loadgen");
    let summary = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "stage-loadgen must answer every line despite chaos, got {:?}\n{summary}",
        output.status
    );
    assert!(summary.contains("gave up: 0"), "no line may be abandoned:\n{summary}");
    assert!(summary.contains("chaos proxy on"), "the proxy must be interposed:\n{summary}");

    // Authoritative post-chaos state, then shutdown.
    let (mut reader, mut writer) = connect(&addr);
    let snapshot = round_trip(&mut reader, &mut writer, r#"{"verb":"snapshot"}"#);
    // Keyed retries deduplicate: despite cut connections and re-sent
    // lines, exactly REQUESTS submissions reach the log.
    assert_eq!(snapshot.get("submissions").and_then(Value::as_u64), Some(REQUESTS as u64));
    assert_eq!(snapshot.get("injections").and_then(Value::as_u64), Some(2));

    // Prometheus scrape while the daemon is still up: the observability
    // ledger must be arithmetically consistent with the chaos run.
    let scrape =
        round_trip(&mut reader, &mut writer, r#"{"verb":"metrics","format":"prometheus"}"#);
    assert_eq!(scrape.get("ok").and_then(Value::as_bool), Some(true), "{scrape:?}");
    let text = scrape.get("text").and_then(Value::as_str).expect("prometheus text").to_string();
    assert_ledger_consistent(&text);

    let bye = round_trip(&mut reader, &mut writer, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    drop((reader, writer));
    let status = server.wait().expect("wait for stage-serve");
    assert!(status.success(), "stage-serve must drain cleanly, got {status:?}");

    // The invariant: a fresh engine replaying the surviving decision log
    // with no faults anywhere reproduces the snapshot byte for byte.
    let mut replay = AdmissionEngine::new(&scenario, Heuristic::FullPathOneDestination, config());
    let log = snapshot.get("log").and_then(Value::as_array).expect("snapshot log");
    for (index, entry) in log.iter().enumerate() {
        replay.replay_record(entry).expect("replay log record");
        oracle::assert_sound(&replay.snapshot(), &scenario, &format!("after record {index}"));
    }
    let live_bytes = serde_json::to_string(&snapshot).expect("reserialize snapshot");
    let replay_bytes = serde_json::to_string(&replay.snapshot()).expect("serialize replay");
    assert_eq!(replay_bytes, live_bytes, "chaos must not corrupt admission state");

    assert!(
        started.elapsed() < BUDGET,
        "chaos run exceeded its wall-clock budget: {:?}",
        started.elapsed()
    );
}
