//! The wire format, pinned byte for byte: one decision-log record of every
//! shape, as the snapshot's `log` array and the write-ahead log carry it,
//! and the checkpoint of the engine that logged them. The literals were
//! recorded from the hand-written codecs the derived ones replaced; each
//! encoded record must also decode back to the record it came from.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dstage_core::cost::EuWeights;
use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_model::prelude::*;
use dstage_service::client::Connection;
use dstage_service::durability::{Durability, DEFAULT_CHECKPOINT_EVERY};
use dstage_service::engine::AdmissionEngine;
use dstage_service::protocol::{InjectArgs, InjectKind, SubmitArgs};
use dstage_service::server::{Server, ServerConfig};
use dstage_service::wal::{scan_segment, FsyncPolicy};
use serde::Value;

/// Admitted with a key, admitted, two refusals, an optimize pass that
/// swaps both refusals in, a copy loss and a link outage.
const RECORDS: [&str; 7] = [
    r#"{"verb":"submit","item":"alpha","destination":1,"deadline_ms":20000,"priority":0,"idempotency_key":"k-alpha","decision":"admitted","request":0,"eta_ms":10000,"hops":1,"new_transfers":1}"#,
    r#"{"verb":"submit","item":"beta","destination":1,"deadline_ms":20000,"priority":0,"decision":"admitted","request":1,"eta_ms":20000,"hops":1,"new_transfers":1}"#,
    r#"{"verb":"submit","item":"gamma","destination":1,"deadline_ms":20000,"priority":2,"decision":"rejected","reason":"deadline 20000 ms unreachable for `gamma` to M1 under the current ledger"}"#,
    r#"{"verb":"submit","item":"delta","destination":1,"deadline_ms":20000,"priority":2,"decision":"rejected","reason":"deadline 20000 ms unreachable for `delta` to M1 under the current ledger"}"#,
    r#"{"verb":"optimize","budget":8,"attempted":2,"swaps":[{"submission":2,"evicted":0,"admitted":2},{"submission":3,"evicted":1,"admitted":3}]}"#,
    r#"{"verb":"inject","kind":"copy_loss","item":"gamma","machine":1,"at_ms":15000,"cancelled_transfers":0,"repaired":[],"evicted":[2]}"#,
    r#"{"verb":"inject","kind":"link_outage","link":0,"at_ms":60000,"cancelled_transfers":0,"repaired":[],"evicted":[]}"#,
];

/// The checkpoint of the engine that logged [`RECORDS`]: the records
/// themselves follow the `log` key.
const CHECKPOINT_HEAD: &str = concat!(
    r#"{"format":1,"fingerprint":"v2|machines=2|links=1|gc_ms=360000|horizon_ms=7200000|rule=earliest"#,
    r#"|weights=1,10,100|items=alpha,beta,gamma,delta","#,
    r#""now_ms":60000,"idempotency_capacity":4096,"#,
    r#""admitted":[{"item":"alpha","destination":1,"deadline_ms":20000,"priority":0},{"item":"beta","destination":1,"deadline_ms":20000,"priority":0},{"item":"gamma","destination":1,"deadline_ms":20000,"priority":2},{"item":"delta","destination":1,"deadline_ms":20000,"priority":2}],"#,
    r#""info":[{"status":"evicted","route":[]},{"status":"evicted","route":[]},{"status":"evicted","route":[{"item":2,"from":0,"to":1,"link":0,"start":0,"arrival":10000}]},{"status":"admitted","delivery":{"request":3,"at":20000,"hops":1},"route":[{"item":3,"from":0,"to":1,"link":0,"start":10000,"arrival":20000}]}],"#,
    r#""committed":[{"item":2,"from":0,"to":1,"link":0,"start":0,"arrival":10000},{"item":3,"from":0,"to":1,"link":0,"start":10000,"arrival":20000}],"#,
    r#""outages":[[0,60000]],"losses":[[2,1,15000]],"#,
    r#""log":["#,
);

/// The configuration the pinned bytes were written under: `Cost₄` at E-U
/// ratio 10⁰, the 1/10/100 weighting. The fingerprint names the weighting
/// and the commit rule of full path/one destination only.
fn written_under() -> HeuristicConfig {
    HeuristicConfig { eu: EuWeights::from_log10_ratio(0.0), ..HeuristicConfig::paper_best() }
}

/// One link m0 → m1 (10 s per 10 kB item at 8 kbps): two items fit before
/// a 20 s deadline, so the third and fourth are refused.
fn catalog() -> Scenario {
    let mut b = NetworkBuilder::new();
    for i in 0..2 {
        b.add_machine(Machine::new(format!("m{i}"), Bytes::from_mib(4)));
    }
    let m = MachineId::new;
    b.add_link(VirtualLink::new(
        m(0),
        m(1),
        SimTime::ZERO,
        SimTime::from_hours(2),
        BitsPerSec::new(8_000),
    ));
    let mut builder = Scenario::builder(b.build());
    for name in ["alpha", "beta", "gamma", "delta"] {
        let source = vec![DataSource::new(m(0), SimTime::ZERO)];
        builder = builder.add_item(DataItem::new(name, Bytes::new(10_000), source));
    }
    builder.build().expect("a valid catalog")
}

fn fresh() -> AdmissionEngine {
    AdmissionEngine::new(&catalog(), Heuristic::FullPathOneDestination, written_under())
}

fn submit(engine: &mut AdmissionEngine, item: &str, priority: u8, key: Option<&str>) {
    let args = SubmitArgs {
        item: item.to_string(),
        destination: 1,
        deadline_ms: 20_000,
        priority,
        idempotency_key: key.map(str::to_string),
    };
    engine.submit(&args).expect("no key conflict");
}

/// Drives every record shape through an engine recovered from `dir`,
/// staging each into the WAL as the daemon does.
fn log_every_shape(dir: &Path) -> (Durability, AdmissionEngine) {
    let (durability, mut engine, _) = Durability::recover(
        dir,
        FsyncPolicy::Always,
        DEFAULT_CHECKPOINT_EVERY,
        &catalog(),
        Heuristic::FullPathOneDestination,
        written_under(),
    )
    .expect("recover an empty data dir");
    let step = |engine: &mut AdmissionEngine, op: &dyn Fn(&mut AdmissionEngine)| {
        op(engine);
        durability.stage(engine);
    };
    step(&mut engine, &|e| submit(e, "alpha", 0, Some("k-alpha")));
    step(&mut engine, &|e| submit(e, "beta", 0, None));
    step(&mut engine, &|e| submit(e, "gamma", 2, None));
    step(&mut engine, &|e| submit(e, "delta", 2, None));
    step(&mut engine, &|e| {
        e.optimize(8);
    });
    step(&mut engine, &|e| {
        let loss = InjectKind::CopyLoss { item: "gamma".to_string(), machine: 1 };
        e.inject(&InjectArgs { kind: loss, at_ms: 15_000 }).expect("known item and machine");
    });
    step(&mut engine, &|e| {
        let outage = InjectKind::LinkOutage { link: 0 };
        e.inject(&InjectArgs { kind: outage, at_ms: 60_000 }).expect("known link");
    });
    durability.finalize();
    (durability, engine)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dstage-wire-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn every_record_shape_encodes_to_its_pinned_line_and_decodes_back() {
    let dir = temp_dir("records");
    let (_durability, engine) = log_every_shape(&dir);

    // The snapshot's log array.
    let snapshot = engine.snapshot();
    let log = snapshot.get("log").and_then(Value::as_array).expect("a log array");
    let lines: Vec<String> = log.iter().map(|r| serde_json::to_string(r).unwrap()).collect();
    assert_eq!(lines, RECORDS);

    // The write-ahead log's payloads.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .expect("a WAL segment");
    let scan = scan_segment(&segment).expect("scan the segment");
    let payloads: Vec<String> =
        scan.records.iter().map(|r| String::from_utf8(r.payload.clone()).unwrap()).collect();
    assert_eq!(payloads, RECORDS);

    // Decoding every line gives the logged record back.
    let mut replayed = fresh();
    for line in RECORDS {
        let value: Value = serde_json::from_str(line).unwrap();
        replayed.replay_record(&value).unwrap();
    }
    assert_eq!(replayed.log(), engine.log());
    assert_eq!(
        serde_json::to_string(&replayed.snapshot()).unwrap(),
        serde_json::to_string(&snapshot).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_checkpoint_encodes_to_its_pinned_bytes_and_restores() {
    let dir = temp_dir("checkpoint");
    let (_durability, engine) = log_every_shape(&dir);
    let pinned = format!("{CHECKPOINT_HEAD}{}]}}", RECORDS.join(","));
    let checkpoint = serde_json::to_string(&engine.checkpoint_value()).unwrap();
    assert_eq!(checkpoint, pinned);

    let value: Value = serde_json::from_str(&pinned).unwrap();
    let restored = AdmissionEngine::restore(
        &catalog(),
        Heuristic::FullPathOneDestination,
        written_under(),
        &value,
    )
    .expect("the pinned checkpoint restores");
    assert_eq!(restored.log(), engine.log());
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).unwrap(),
        serde_json::to_string(&engine.snapshot()).unwrap()
    );
    assert_eq!(serde_json::to_string(&restored.checkpoint_value()).unwrap(), pinned);
    std::fs::remove_dir_all(&dir).ok();
}

fn keys(value: &Value) -> Vec<&str> {
    value.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect()
}

/// The replies the server assembles itself: their keys, in order (their
/// values are clocks and counters), and the whole `shutdown` line.
#[test]
fn server_replies_keep_their_fields_in_order() {
    let server = Server::bind(fresh(), "127.0.0.1:0", ServerConfig { workers: 1 }).unwrap();
    let addr = server.local_addr().unwrap();
    let daemon = std::thread::spawn(move || server.run());
    let mut conn = Connection::open(addr, Duration::from_secs(60)).unwrap();
    let mut ask = |line: &str| conn.round_trip(line).unwrap();
    let submitted =
        ask(r#"{"verb":"submit","item":"alpha","destination":1,"deadline_ms":20000,"priority":0}"#);
    assert_eq!(
        submitted,
        r#"{"ok":true,"submission":0,"decision":"admitted","request":0,"eta_ms":10000,"hops":1,"new_transfers":1}"#
    );

    let metrics: Value = serde_json::from_str(&ask(r#"{"verb":"metrics"}"#)).unwrap();
    assert_eq!(
        keys(&metrics),
        [
            "ok",
            "submissions",
            "admitted",
            "rejected",
            "injections",
            "optimizations",
            "swapped",
            "repaired",
            "evicted",
            "satisfied",
            "admitted_by_priority",
            "rejected_by_priority",
            "weighted_sum",
            "latency"
        ]
    );
    let latency = metrics.get("latency").unwrap();
    assert_eq!(
        keys(latency),
        ["count", "mean_us", "p50_us", "p90_us", "p99_us", "max_us", "buckets"]
    );
    let buckets = latency.get("buckets").and_then(Value::as_array).unwrap();
    assert!(buckets.iter().all(|b| keys(b) == ["le_us", "count"]));

    let text: Value =
        serde_json::from_str(&ask(r#"{"verb":"metrics","format":"prometheus"}"#)).unwrap();
    assert_eq!(keys(&text), ["ok", "format", "text"]);

    let trace: Value = serde_json::from_str(&ask(r#"{"verb":"trace","limit":4}"#)).unwrap();
    assert_eq!(keys(&trace), ["ok", "enabled", "total_recorded", "events"]);
    let events = trace.get("events").and_then(Value::as_array).unwrap();
    assert!(events.iter().all(|e| keys(e) == ["seq", "layer", "name", "value", "wall_us"]));

    assert_eq!(ask(r#"{"verb":"shutdown"}"#), r#"{"ok":true,"draining":true}"#);
    drop(conn);
    daemon.join().unwrap().unwrap();
}
