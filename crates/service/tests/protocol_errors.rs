//! Protocol error paths against an in-process daemon: invalid
//! injections, idempotency-key misuse, oversized and deeply nested request
//! lines, and mid-line disconnects must all leave the server healthy.
//!
//! The server runs ONE worker on purpose: if any of the abusive
//! connections wedged it, every later round trip would hang (and the
//! harness would time the test out).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread;

use dstage_core::heuristic::{Heuristic, HeuristicConfig};
use dstage_service::engine::AdmissionEngine;
use dstage_service::server::{Server, ServerConfig, MAX_LINE_BYTES};
use dstage_workload::small::two_hop_chain;
use serde::Value;

#[path = "support/daemon.rs"]
mod daemon;

use daemon::{connect, round_trip};

fn error_of(value: &Value) -> String {
    assert_eq!(value.get("ok").and_then(Value::as_bool), Some(false), "expected error: {value:?}");
    value.get("error").and_then(Value::as_str).expect("error message").to_string()
}

#[test]
fn abusive_clients_get_errors_and_the_worker_survives() {
    let engine = AdmissionEngine::new(
        &two_hop_chain(),
        Heuristic::FullPathOneDestination,
        HeuristicConfig::paper_best(),
    );
    let server =
        Server::bind(engine, "127.0.0.1:0", ServerConfig { workers: 1 }).expect("bind server");
    let addr = server.local_addr().expect("local addr");
    let daemon = thread::spawn(move || server.run());

    // --- inject with unknown ids is an error, never a logged injection.
    let mut conn = connect(addr, None);
    let bad_link =
        round_trip(&mut conn, r#"{"verb":"inject","kind":"link_outage","link":99,"at_ms":0}"#);
    assert!(error_of(&bad_link).contains("unknown link"), "{bad_link:?}");
    let bad_item = round_trip(
        &mut conn,
        r#"{"verb":"inject","kind":"copy_loss","item":"ghost","machine":0,"at_ms":0}"#,
    );
    assert!(error_of(&bad_item).contains("unknown data item"), "{bad_item:?}");
    let bad_machine = round_trip(
        &mut conn,
        r#"{"verb":"inject","kind":"copy_loss","item":"alpha","machine":99,"at_ms":0}"#,
    );
    assert!(error_of(&bad_machine).contains("unknown machine"), "{bad_machine:?}");
    let bad_kind = round_trip(&mut conn, r#"{"verb":"inject","kind":"meteor","at_ms":0}"#);
    assert!(error_of(&bad_kind).contains("unknown kind `meteor`"), "{bad_kind:?}");

    // --- a high surrogate escape paired with a non-surrogate used to
    // decode to an unrelated character (and overflow in a debug build,
    // killing the worker): it is malformed JSON, and the connection
    // goes on serving.
    let ill_paired = round_trip(
        &mut conn,
        r#"{"verb":"inject","kind":"copy_loss","item":"\uD800\u0041","machine":0,"at_ms":0}"#,
    );
    assert_eq!(error_of(&ill_paired), "malformed JSON: invalid unicode escape", "{ill_paired:?}");
    let after = round_trip(&mut conn, r#"{"verb":"metrics"}"#);
    assert_eq!(after.get("ok").and_then(Value::as_bool), Some(true), "{after:?}");

    // --- idempotency: replaying the same key+args returns the original
    // bytes; the same key with different args is rejected, not deduped.
    let keyed = r#"{"verb":"submit","item":"alpha","destination":2,"deadline_ms":7200000,"priority":2,"idempotency_key":"k1"}"#;
    let first = round_trip(&mut conn, keyed);
    assert_eq!(first.get("decision").and_then(Value::as_str), Some("admitted"));
    let replayed = round_trip(&mut conn, keyed);
    assert_eq!(
        serde_json::to_string(&replayed).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "a keyed retry must replay the original decision"
    );
    let conflicting = round_trip(
        &mut conn,
        r#"{"verb":"submit","item":"alpha","destination":2,"deadline_ms":9999999,"priority":2,"idempotency_key":"k1"}"#,
    );
    assert!(error_of(&conflicting).contains("different arguments"), "{conflicting:?}");
    let metrics = round_trip(&mut conn, r#"{"verb":"metrics"}"#);
    assert_eq!(
        metrics.get("submissions").and_then(Value::as_u64),
        Some(1),
        "dedup and conflict must not grow the log: {metrics:?}"
    );
    drop(conn);

    // --- a client disconnecting mid-line must not wedge the (single)
    // worker for the next connection.
    {
        let mut half = TcpStream::connect(addr).expect("connect");
        half.write_all(br#"{"verb":"submit","item":"al"#).expect("send partial line");
        half.flush().expect("flush");
        half.shutdown(Shutdown::Both).expect("disconnect mid-line");
    }

    // --- an endless line is cut off at MAX_LINE_BYTES with one error
    // response, then the connection is dropped.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let blob = vec![b'x'; MAX_LINE_BYTES + 1024];
        writer.write_all(&blob).expect("stream an endless line");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read the error line");
        let value: Value = serde_json::from_str(response.trim()).expect("error is JSON");
        assert!(error_of(&value).contains("exceeds"), "{value:?}");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).expect("connection must be closed");
        assert!(rest.is_empty(), "nothing after the error line");
    }

    // --- a line nested far deeper than the parser descends (and far
    // shorter than MAX_LINE_BYTES) gets one error line on its own
    // connection; it must not overflow the worker's stack.
    {
        let mut conn = connect(addr, None);
        let nested = round_trip(&mut conn, &"[".repeat(10_000));
        assert!(error_of(&nested).contains("recursion limit exceeded"), "{nested:?}");
    }

    // --- the worker is still alive and serving correct answers.
    let mut conn = connect(addr, None);
    let query = round_trip(&mut conn, r#"{"verb":"query","request":0}"#);
    assert_eq!(query.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(query.get("status").and_then(Value::as_str), Some("admitted"));
    let bye = round_trip(&mut conn, r#"{"verb":"shutdown"}"#);
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true));
    drop(conn);
    let snapshot = daemon.join().expect("daemon thread").expect("clean drain");
    assert_eq!(snapshot.get("submissions").and_then(Value::as_u64), Some(1));
    assert_eq!(snapshot.get("injections").and_then(Value::as_u64), Some(0));
}
