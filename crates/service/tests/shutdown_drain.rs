//! Shutdown-drain regression: a connection that is already accepted (and
//! queued behind the single worker) when another client triggers
//! `shutdown` must still get its in-flight request answered during the
//! drain grace window — the old code dropped it at the first
//! post-shutdown read-timeout tick, closing the socket with no response.

use std::thread;
use std::time::Duration;

use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_service::engine::AdmissionEngine;
use dstage_service::server::{Server, ServerConfig};
use dstage_workload::small::two_hop_chain;
use serde::Value;

#[path = "support/daemon.rs"]
mod daemon;

use daemon::{connect, round_trip};

#[test]
fn queued_connection_is_answered_during_shutdown_drain() {
    let engine = AdmissionEngine::new(
        &two_hop_chain(),
        Heuristic::FullPathOneDestination,
        HeuristicConfig::paper_best(),
    );
    let server =
        Server::bind(engine, "127.0.0.1:0", ServerConfig { workers: 1 }).expect("bind server");
    let addr = server.local_addr().expect("local addr").to_string();
    let server = thread::spawn(move || server.run().expect("server run"));

    // Connection B occupies the only worker (proven by a round trip);
    // connection A is accepted but waits in the worker queue.
    let mut b_conn = connect(&addr, Some(Duration::from_secs(10)));
    let warmup = round_trip(
        &mut b_conn,
        r#"{"verb":"submit","item":"alpha","destination":2,"deadline_ms":7200000,"priority":2}"#,
    );
    assert_eq!(warmup.get("decision").and_then(Value::as_str), Some("admitted"));
    let mut a_conn = connect(&addr, Some(Duration::from_secs(10)));

    // A goes silent past the old failure point (the worker's first
    // post-shutdown 200 ms timeout tick), then submits — the drain grace
    // must still answer it.
    let late_submit = thread::spawn(move || {
        thread::sleep(Duration::from_millis(500));
        round_trip(
            &mut a_conn,
            r#"{"verb":"submit","item":"alpha","destination":1,"deadline_ms":7200000,"priority":1}"#,
        )
    });

    let bye = round_trip(&mut b_conn, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    drop(b_conn); // frees the worker for the queued A

    let late = late_submit.join().expect("late client thread");
    assert_eq!(late.get("ok").and_then(Value::as_bool), Some(true));
    let decision = late.get("decision").and_then(Value::as_str).unwrap_or("");
    assert!(
        decision == "admitted" || decision == "rejected",
        "queued connection must get a real decision, got {late:?}"
    );

    let snapshot = server.join().expect("server thread");
    assert_eq!(
        snapshot.get("submissions").and_then(Value::as_u64),
        Some(2),
        "both submissions must be in the drained snapshot"
    );
}
