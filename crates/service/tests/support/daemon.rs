//! The daemon harness the service suites share: `stage-serve`'s default
//! heuristic configuration, spawning the built binary and reading its
//! banner, and NDJSON round trips on the daemon client's `Connection`.
//! Each suite passes what sets it apart — worker count, family or scenario
//! file, data directory, crash point, `DSTAGE_OBS`, read timeout — as
//! arguments.

// Each suite includes the whole module and uses part of it.
#![allow(dead_code)]

use std::fmt::Display;
use std::io::{BufRead, BufReader};
use std::net::ToSocketAddrs;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dstage_core::heuristic::HeuristicConfig;
use dstage_service::client::Connection;
use serde::Value;

/// The heuristic configuration matching `stage-serve`'s defaults; of it
/// the engine reads the 1/10/100 weighting only.
pub fn config() -> HeuristicConfig {
    HeuristicConfig::paper_best()
}

/// Starts `stage-serve` on an ephemeral port with `args` and the
/// environment variables `envs` (no crash point unless `envs` arms one),
/// its stderr discarded, and waits for the banner: returns the child and
/// the address it listens on.
pub fn spawn_server(args: &[&str], envs: &[(&str, &str)]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_stage-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .env_remove("DSTAGE_CRASH_POINT")
        .envs(envs.iter().copied())
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

/// A connection to `addr` through the daemon client, its connect, reads
/// and writes bounded by `timeout` when one is given and by a minute
/// otherwise.
pub fn connect(addr: impl ToSocketAddrs + Display, timeout: Option<Duration>) -> Connection {
    Connection::open(addr, timeout.unwrap_or(Duration::from_secs(60)))
        .unwrap_or_else(|e| panic!("connect: {e}"))
}

/// One NDJSON round trip on an existing connection.
pub fn round_trip(connection: &mut Connection, request: &str) -> Value {
    let response = connection
        .round_trip(request)
        .unwrap_or_else(|e| panic!("no response to {request:?}: {e}"));
    serde_json::from_str(&response).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

/// One round trip that tolerates the server dying mid-request: `None`
/// means no response arrived.
pub fn try_round_trip(connection: &mut Connection, request: &str) -> Option<Value> {
    let response = connection.round_trip(request).ok()?;
    serde_json::from_str(&response).ok()
}
