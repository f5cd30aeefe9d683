//! The `stage-submit` binary against a real `stage-serve`: a keyed submit
//! sent twice is decided once, the read verbs exit 0, and an address
//! nothing listens on exits 2.

use std::net::TcpListener;
use std::process::{Command, Output};

use serde::Value;

#[path = "support/daemon.rs"]
mod daemon;

/// Runs `stage-submit --addr addr` with `args`.
fn submit(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_stage-submit"))
        .args(["--addr", addr])
        .args(args)
        .output()
        .expect("run stage-submit")
}

/// The one reply line a successful run prints.
fn reply(out: &Output) -> Value {
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "one reply line: {stdout:?}");
    serde_json::from_str(stdout.trim_end()).unwrap_or_else(|e| panic!("bad reply {stdout:?}: {e}"))
}

#[test]
fn a_keyed_submit_is_decided_once_and_the_read_verbs_exit_zero() {
    let (mut server, addr) = daemon::spawn_server(&["--generate", "0"], &[]);
    let ask = [
        "submit",
        "--item",
        "item-0042",
        "--dest",
        "3",
        "--deadline-ms",
        "5400000",
        "--priority",
        "2",
        "--key",
        "submit-cli-0",
    ];
    let first = reply(&submit(&addr, &ask));
    assert_eq!(first.get("decision").and_then(Value::as_str), Some("admitted"), "{first:?}");
    let again = reply(&submit(&addr, &ask));
    assert_eq!(again.get("submission"), first.get("submission"), "{again:?}");

    let query = reply(&submit(&addr, &["query", "--request", "0"]));
    assert_eq!(query.get("status").and_then(Value::as_str), Some("admitted"), "{query:?}");
    let snapshot = reply(&submit(&addr, &["snapshot"]));
    assert_eq!(snapshot.get("submissions").and_then(Value::as_u64), Some(1), "{snapshot:?}");

    let bye = reply(&submit(&addr, &["shutdown"]));
    assert_eq!(bye.get("draining").and_then(Value::as_bool), Some(true), "{bye:?}");
    let status = server.wait().expect("wait for stage-serve");
    assert!(status.success(), "stage-serve must drain cleanly, got {status:?}");
}

#[test]
fn a_closed_port_exits_two() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a port");
        listener.local_addr().expect("local addr").to_string()
    };
    let out = submit(&addr, &["snapshot"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("Connection refused"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing answered: {:?}", out.stdout);
}
