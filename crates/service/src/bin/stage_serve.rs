//! The admission-control daemon.
//!
//! ```text
//! stage-serve [OPTIONS]
//!
//! OPTIONS:
//!   --scenario FILE  catalog (network + items) from a scenario JSON;
//!                    requests in the file are ignored
//!   --generate SEED  paper-scale generated catalog (default: seed 0)
//!   --family F       scenario family for the generated catalog:
//!                    paper (default) | satcom | wan | grid | line; an
//!                    unknown name lists the valid ones and exits with
//!                    code 2
//!   --addr A         bind address (default 127.0.0.1:0 = ephemeral port)
//!   --workers N      worker threads, 1 to 1024 (default: max(8, cores))
//!   --scheduler S    partial | full-one (default) | full-all | alap
//!                    (--heuristic is an accepted alias); an unknown name
//!                    lists the valid ones and exits with code 2. A request
//!                    is routed alone, so only the commit rule counts:
//!                    alap latest slots, the other three earliest
//!   --weights W      1,5,10 | 1,10,100 (default)
//!   --data-dir D     durable data directory: recover on start, write-
//!                    ahead log every decision, enable `checkpoint`
//!   --durability P   fsync policy: always (default) | interval:<ms>
//!   --checkpoint-every N  periodic checkpoint after N WAL records
//! ```
//!
//! Prints `listening on <addr>` on stdout once ready, serves until a
//! client issues `shutdown` (or SIGTERM/SIGINT arrives — both drain
//! gracefully and fsync the WAL), then prints a summary to stderr.

use std::process::ExitCode;
use std::sync::Arc;

use dstage_core::heuristic::{Pairing, UsageError};
use dstage_model::scenario::Scenario;
use dstage_service::durability::{Durability, DEFAULT_CHECKPOINT_EVERY};
use dstage_service::engine::AdmissionEngine;
use dstage_service::server::{Server, ServerConfig};
use dstage_service::wal::FsyncPolicy;
use dstage_workload::Family;
use serde::Value;

/// Most worker threads `--workers` accepts. Each is an OS thread started
/// at bind time, and the connection queue is sized by their number.
const MAX_WORKERS: usize = 1024;

struct Options {
    scenario: Option<String>,
    family: Family,
    seed: u64,
    addr: String,
    workers: Option<usize>,
    pairing: Pairing,
    data_dir: Option<String>,
    /// `always` by default, so a bare `--data-dir` never silently risks
    /// acknowledged decisions.
    durability: FsyncPolicy,
    checkpoint_every: u64,
}

fn parse_args() -> Result<Options, UsageError> {
    let mut options = Options {
        scenario: None,
        family: Family::Paper,
        seed: 0,
        addr: "127.0.0.1:0".to_string(),
        workers: None,
        pairing: Pairing::default(),
        data_dir: None,
        durability: FsyncPolicy::Always,
        checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if options.pairing.parse_online_flag("--scheduler", &arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--scenario" => {
                options.scenario = Some(args.next().ok_or("--scenario needs a file")?);
            }
            "--generate" => {
                options.seed = args
                    .next()
                    .ok_or("--generate needs a seed")?
                    .parse()
                    .map_err(|e| format!("invalid seed: {e}"))?;
            }
            "--family" => {
                let name = args.next().ok_or("--family needs a name")?;
                options.family = Family::from_name(&name).ok_or_else(|| {
                    UsageError::unknown_name(format!(
                        "unknown family `{name}` (valid: {})",
                        Family::names()
                    ))
                })?;
            }
            "--addr" => options.addr = args.next().ok_or("--addr needs host:port")?,
            "--workers" => {
                options.workers = Some(
                    args.next()
                        .ok_or("--workers needs a count")?
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (1..=MAX_WORKERS).contains(n))
                        .ok_or_else(|| format!("invalid --workers (1 to {MAX_WORKERS} threads)"))?,
                );
            }
            "--data-dir" => {
                options.data_dir = Some(args.next().ok_or("--data-dir needs a directory")?);
            }
            "--durability" => {
                let policy = args.next().ok_or("--durability needs a policy")?;
                options.durability = FsyncPolicy::parse(&policy)?;
            }
            "--checkpoint-every" => {
                options.checkpoint_every = args
                    .next()
                    .ok_or("--checkpoint-every needs a record count")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("invalid --checkpoint-every (positive record count)")?;
            }
            "--help" | "-h" => return Err(UsageError::from("")),
            other => return Err(UsageError::from(format!("unknown option {other:?}"))),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(o) => o,
        Err(err) => {
            return err.report(&format!(
                "stage-serve [--scenario FILE | --generate SEED] [--family {}] \
                 [--addr HOST:PORT] [--workers 1-1024] {} \
                 [--data-dir D] [--durability always|interval:<ms>] [--checkpoint-every N]",
                Family::names().replace(", ", "|"),
                Pairing::online_usage("--scheduler")
            ))
        }
    };
    let catalog = match &options.scenario {
        Some(path) => match Scenario::load_json(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => options.family.generate(options.seed),
    };
    let Pairing { heuristic, config, .. } = options.pairing;
    let (durability, engine) = match &options.data_dir {
        Some(dir) => {
            let recovered = Durability::recover(
                std::path::Path::new(dir),
                options.durability,
                options.checkpoint_every,
                &catalog,
                heuristic,
                config,
            );
            match recovered {
                Ok((durability, engine, report)) => {
                    eprintln!(
                        "recovered: {} records from checkpoint, {} replayed from WAL{} \
                         ({} ms, durability {})",
                        report.checkpoint_records,
                        report.replayed,
                        if report.truncated {
                            format!(", {} torn bytes truncated", report.truncated_bytes)
                        } else {
                            String::new()
                        },
                        report.wall.as_millis(),
                        durability.policy().label(),
                    );
                    (Some(Arc::new(durability)), engine)
                }
                Err(e) => {
                    eprintln!("error: recovery failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => (None, AdmissionEngine::new(&catalog, heuristic, config)),
    };
    eprintln!(
        "catalog: {} machines, {} items ({})",
        engine.machine_count(),
        engine.item_names().count(),
        engine.item_names().take(5).collect::<Vec<_>>().join(", ")
    );
    let server_config =
        options.workers.map_or_else(ServerConfig::default, |workers| ServerConfig { workers });
    let server = match Server::bind(engine, &options.addr, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(durability) = &durability {
        server.enable_durability(Arc::clone(durability));
    }
    // SIGTERM/SIGINT become the same graceful drain a client `shutdown`
    // triggers, so orchestrated restarts never tear the log. The handler
    // only flips a flag; a watcher thread does the actual poke.
    signals::install();
    {
        let handle = server.shutdown_handle();
        std::thread::spawn(move || loop {
            if signals::requested() {
                handle.trigger();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }
    match server.local_addr() {
        Ok(addr) => {
            // The contract clients (and the loopback test) rely on: the
            // first stdout line announces the resolved address.
            println!("listening on {addr}");
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(snapshot) => {
            // Whatever the fsync policy, an orderly exit leaves the WAL
            // fully synced: restart recovers every drained decision.
            if let Some(durability) = &durability {
                durability.finalize();
            }
            let (submissions, admitted) = (
                snapshot.get("submissions").and_then(Value::as_u64).unwrap_or(0),
                snapshot.get("admitted").and_then(Value::as_u64).unwrap_or(0),
            );
            eprintln!("drained: {submissions} submissions, {admitted} admitted");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal signal plumbing: the handler flips an atomic, nothing else —
/// all real work happens on the watcher thread in `main`.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGINT (2) and SIGTERM (15) into the drain flag.
    pub fn install() {
        unsafe {
            signal(2, handle);
            signal(15, handle);
        }
    }

    /// Whether a drain-requesting signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    /// No signal handling off Unix; `shutdown` over the wire still works.
    pub fn install() {}

    /// Never requested without signal support.
    pub fn requested() -> bool {
        false
    }
}
