//! The daemon harness the service suites share: `stage-serve`'s default
//! heuristic configuration, spawning the built binary and reading its
//! banner, and NDJSON round trips on a connection. Each suite passes what
//! sets it apart — worker count, family or scenario file, data directory,
//! crash point, `DSTAGE_OBS`, read timeout — as arguments.

// Each suite includes the whole module and uses part of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dstage_core::heuristic::HeuristicConfig;
use serde::Value;

/// The heuristic configuration matching `stage-serve`'s defaults: `Cost₄`
/// at the operating point, the 1/10/100 weighting.
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

/// A connection to `addr`, its reads bounded by `read_timeout` when one is
/// given: the buffered reader and the writer.
pub fn connect(
    addr: impl ToSocketAddrs,
    read_timeout: Option<Duration>,
) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    if read_timeout.is_some() {
        stream.set_read_timeout(read_timeout).expect("read timeout");
    }
    (BufReader::new(stream.try_clone().expect("clone stream")), stream)
}

/// One NDJSON round trip on an existing connection.
pub fn round_trip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> Value {
    writeln!(writer, "{request}").expect("send");
    writer.flush().expect("flush");
    let mut response = String::new();
    let n = reader.read_line(&mut response).expect("recv");
    assert!(n > 0, "daemon closed the connection after {request:?}");
    serde_json::from_str(response.trim())
        .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
}

/// One round trip that tolerates the server dying mid-request: `None`
/// means no response arrived.
pub fn try_round_trip(
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
