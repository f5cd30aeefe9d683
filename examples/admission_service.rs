//! Admission-control service end to end: starts the daemon in-process on
//! an ephemeral loopback port, drives it with concurrent NDJSON clients
//! (the same wire protocol `stage-submit` speaks), injects a live link
//! outage that forces a schedule repair, and shows that the snapshot is
//! a deterministic function of the decision order by replaying it
//! sequentially through a fresh engine.
//!
//! ```text
//! cargo run --release --example admission_service
//! ```

use std::error::Error;
use std::thread;
use std::time::Duration;

use data_staging::core::heuristic::{Heuristic, HeuristicConfig};
use data_staging::service::client::Connection;
use data_staging::service::engine::AdmissionEngine;
use data_staging::service::protocol::{ClientRequest, InjectArgs, InjectKind, SubmitArgs};
use data_staging::service::server::{Server, ServerConfig};
use data_staging::workload::{generate, GeneratorConfig};
use serde::Value;

/// Bound on each connect, read and write.
const TIMEOUT: Duration = Duration::from_secs(30);

fn main() -> Result<(), Box<dyn Error>> {
    let catalog = generate(&GeneratorConfig::small(), 7);
    let heuristic = Heuristic::FullPathOneDestination;
    let config = HeuristicConfig::paper_best();
    let engine = AdmissionEngine::new(&catalog, heuristic, config.clone());
    println!("catalog: {} machines, {} items", engine.machine_count(), engine.item_names().count());

    // The daemon, exactly as `stage-serve` runs it.
    let server = Server::bind(engine, "127.0.0.1:0", ServerConfig::default())?;
    let addr = server.local_addr()?;
    let daemon = thread::spawn(move || server.run());

    // Four concurrent clients, each submitting a share of the catalog's
    // request stream over its own connection.
    let requests: Vec<ClientRequest> = catalog
        .requests()
        .map(|(_, r)| {
            ClientRequest::Submit(SubmitArgs {
                item: catalog.item(r.item()).name().to_string(),
                destination: r.destination().index() as u32,
                deadline_ms: r.deadline().as_millis(),
                priority: r.priority().level(),
                idempotency_key: None,
            })
        })
        .collect();
    let mut clients = Vec::new();
    for chunk in requests.chunks(requests.len().div_ceil(4)) {
        let chunk = chunk.to_vec();
        clients.push(thread::spawn(move || -> Result<u64, Box<dyn Error + Send + Sync>> {
            let mut connection = Connection::open(addr, TIMEOUT)?;
            let mut admitted = 0;
            for request in chunk {
                let response: Value = serde_json::from_str(
                    &connection.round_trip(&serde_json::to_string(&request)?)?,
                )?;
                if response.get("decision").and_then(Value::as_str) == Some("admitted") {
                    admitted += 1;
                }
            }
            Ok(admitted)
        }));
    }
    let mut admitted = 0;
    for client in clients {
        admitted += client.join().expect("client thread panicked").map_err(|e| e.to_string())?;
    }
    println!("{admitted} of {} submissions admitted over the wire", requests.len());

    // A live disturbance: a heavily used virtual link goes down right
    // after the schedule is built. The engine cancels every committed
    // transfer the outage invalidates and re-admits displaced requests
    // in weighted-priority order, evicting only what no longer fits.
    let mut connection = Connection::open(addr, TIMEOUT)?;
    let mut ask = |request: &ClientRequest| -> Result<String, Box<dyn Error>> {
        Ok(connection.round_trip(&serde_json::to_string(request)?)?)
    };
    let outage = InjectArgs { kind: InjectKind::LinkOutage { link: 193 }, at_ms: 1 };
    let injection: Value = serde_json::from_str(&ask(&ClientRequest::Inject(outage))?)?;
    println!(
        "link 193 outage: {} transfers cancelled, {} requests displaced, {} repaired, {} evicted",
        injection.get("cancelled_transfers").and_then(Value::as_u64).unwrap_or(0),
        injection.get("displaced").and_then(Value::as_u64).unwrap_or(0),
        injection.get("repaired").and_then(Value::as_u64).unwrap_or(0),
        injection.get("evicted").and_then(Value::as_u64).unwrap_or(0),
    );

    // Pull the authoritative state, then shut the daemon down.
    let line = ask(&ClientRequest::Snapshot)?;
    let snapshot: Value = serde_json::from_str(&line)?;
    ask(&ClientRequest::Shutdown)?;
    let final_snapshot = daemon.join().expect("daemon thread panicked")?;
    println!(
        "daemon drained with weighted sum {}",
        final_snapshot.get("weighted_sum").and_then(Value::as_u64).unwrap_or(0)
    );

    // Determinism: replaying the daemon's decision log — submissions
    // and injections alike — sequentially through a fresh engine
    // reproduces the snapshot byte for byte.
    let mut replay = AdmissionEngine::new(&catalog, heuristic, config);
    for entry in snapshot.get("log").and_then(Value::as_array).unwrap_or(&Vec::new()) {
        replay.replay_record(entry).map_err(std::io::Error::other)?;
    }
    let replayed = serde_json::to_string(&replay.snapshot())?;
    assert_eq!(replayed, line, "sequential replay must match the live snapshot");
    println!("sequential replay reproduced the snapshot byte for byte");
    Ok(())
}
